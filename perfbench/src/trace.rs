//! In-memory spans recorded around the calls into each layer's public
//! functions, written out once the run ends.
//!
//! A span has a name, a start and end, the span that caused it and the
//! replayed request it belongs to. A layer's self time is its span's
//! duration minus the part covered by its child spans. With tracing off,
//! [`Tracer::span`] just runs the closure, so the difference between a
//! traced and an untraced replay of the same inputs is the tracing
//! overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Spans kept per run; later spans are counted but not stored.
const MAX_SPANS: usize = 400_000;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<u32>,
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u32,
    dropped: u64,
}

/// Per-name aggregate over all recorded spans.
#[derive(Default, Clone, Debug)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations_ns: Vec<u64>,
}

impl Agg {
    /// Median inclusive duration in microseconds (0 when never entered).
    pub fn median_us(&self) -> f64 {
        let xs: Vec<f64> = self.durations_ns.iter().map(|&d| d as f64 / 1e3).collect();
        if xs.is_empty() {
            0.0
        } else {
            crate::util::median(&xs)
        }
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            dropped: 0,
        }
    }

    /// Starts a new replayed request; its spans share this identifier.
    pub fn request(&mut self, id: u32) {
        self.request = id;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, start: Instant, end: Instant) -> Option<u32> {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            request: self.request,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some(id)
    }

    /// Runs `f` under a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let start = Instant::now();
        let id = self.push(name, start, start);
        if let Some(id) = id {
            self.stack.push(id);
        }
        let out = f(self);
        if let Some(id) = id {
            self.stack.pop();
            let end = self.ns(Instant::now());
            self.spans[id as usize].end_ns = end;
        }
        out
    }

    /// Records a child span of the current span from a duration the
    /// program itself measured and returned (for example the phase
    /// timings in `SolverStats`), ending now.
    pub fn reported(&mut self, name: &'static str, d: Duration) {
        if self.on {
            let end = Instant::now();
            self.push(name, end.checked_sub(d).unwrap_or(end), end);
        }
    }

    /// Aggregates by span name: counts, inclusive and self time.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let d = s.end_ns - s.start_ns;
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += d;
            a.self_ns += d.saturating_sub(child_ns[i]);
            a.durations_ns.push(d);
        }
        out
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                s.start_ns,
                s.end_ns
            )?;
        }
        if self.dropped > 0 {
            writeln!(w, "{{\"dropped\":{}}}", self.dropped)?;
        }
        w.flush()
    }
}
