//! Small shared helpers: order statistics, timing, and the work directory.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between order
/// statistics; `NaN` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Completions per second: those in `done` before `start + secs`, over
/// `secs`. Every latency and rate figure is taken over the whole timed
/// phase: the shared host switches between a fast and a slow speed every
/// few seconds, and a figure over the whole phase moves with the share of
/// time spent slow, where a median over short windows jumps between the
/// two speeds.
pub fn rate(done: &[Instant], start: Instant, secs: f64) -> f64 {
    let stop = start + std::time::Duration::from_secs_f64(secs);
    done.iter().filter(|t| **t < stop).count() as f64 / secs
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A per-run scratch directory under `.bench_work/` in the checkout root,
/// removed when dropped.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn new(label: &str) -> std::io::Result<WorkDir> {
        let path = Path::new(".bench_work").join(format!("{label}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leaves `.bench_work` itself only when another run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}
