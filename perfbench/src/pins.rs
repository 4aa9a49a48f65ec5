//! `perfbench/pins.txt`: pinned digests and the frozen exclusion lists.
//!
//! ```text
//! pin <workload> <seed> <seconds> <input-digest> <pool-digest>
//! exclude <workload> <stream> <index>...
//! ```
//!
//! A `pin` line records, for one seed and run length, the digest of every
//! generated input and the digest of the pool admitted from them; a run on
//! a pinned combination aborts (exit 4) when either differs. An `exclude`
//! line lists the candidate indices of one input stream of a workload's
//! fixed population that are left out because the program answers them
//! wrongly or not at all; any other admitted input that fails the
//! correctness gate fails the run.

use std::collections::BTreeSet;

pub const PATH: &str = "perfbench/pins.txt";

#[derive(Default)]
pub struct Pins {
    lines: Vec<Vec<String>>,
}

impl Pins {
    /// Reads [`PATH`]; a missing file pins nothing and excludes nothing,
    /// so every admitted input is gated.
    pub fn load() -> Pins {
        let text = std::fs::read_to_string(PATH).unwrap_or_default();
        Pins {
            lines: text
                .lines()
                .filter(|l| !l.trim_start().starts_with('#'))
                .map(|l| l.split_whitespace().map(str::to_string).collect())
                .collect(),
        }
    }

    /// The pinned `(input, pool)` digests for `(workload, seed, seconds)`
    /// (the serve schedule's length depends on the run length).
    pub fn pinned(&self, workload: &str, seed: u64, seconds: f64) -> Option<(String, String)> {
        self.lines.iter().find_map(|f| match &f[..] {
            [tag, w, s, secs, input, pool]
                if tag == "pin"
                    && w == workload
                    && s.parse() == Ok(seed)
                    && secs.parse() == Ok(seconds) =>
            {
                Some((input.clone(), pool.clone()))
            }
            _ => None,
        })
    }

    /// The excluded candidate indices of `stream` in `workload`.
    pub fn excluded(&self, workload: &str, stream: &str) -> BTreeSet<usize> {
        self.lines
            .iter()
            .filter(|f| f.len() >= 3 && f[0] == "exclude" && f[1] == workload && f[2] == stream)
            .flat_map(|f| f[3..].iter().filter_map(|i| i.parse().ok()))
            .collect()
    }
}
