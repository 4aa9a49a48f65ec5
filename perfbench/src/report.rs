//! What a workload run hands back, and the fixed metric lists the final
//! JSON line is built from.

use crate::pins::Pins;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// Settings every workload receives.
pub struct Ctx {
    pub bin: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub digest_only: bool,
    /// Gate every candidate and list the failing ones instead of running.
    pub list_exclusions: bool,
    pub workload: String,
    pub pins: Pins,
}

impl Ctx {
    /// The frozen exclusion list of one of this workload's input streams.
    pub fn excluded(&self, stream: &str) -> BTreeSet<usize> {
        self.pins.excluded(&self.workload, stream)
    }

    /// Whether the run stops once its pool is built (digests or
    /// exclusion listing only).
    pub fn pool_only(&self) -> bool {
        self.digest_only || self.list_exclusions
    }
}

/// End-to-end metrics, printed with `--trace 0` on every workload. Each
/// workload maps its own figures onto these names (see README.md). Rates
/// are printed as the workloads' own lines but are not among these: on the
/// shared host serve-mixed's saturation rate swung by 1.7x within minutes.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("p50_ms", "ms"), ("tail_ms", "ms")];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.transport_us", "us"),
    ("queue.depth_max", "count"),
    ("queue.shed", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.lag_max_ms", "ms"),
    ("loadgen.backlog", "count"),
    ("exec.parse_us", "us"),
    ("exec.verify_us", "us"),
    ("exec.render_us", "us"),
    ("presolve.us", "us"),
    ("presolve.changed_share", "ratio"),
    ("presolve.rewrites", "count"),
    ("canon.us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookup_us", "us"),
    ("cache.evictions", "count"),
    ("cache.verify_failures", "count"),
    ("diskcache.appends", "count"),
    ("diskcache.insert_us", "us"),
    ("diskcache.rejected", "count"),
    ("feasible.us", "us"),
    ("primes.us", "us"),
    ("primes.count", "count"),
    ("primes.ps_steps", "count"),
    ("primes.peak_terms", "count"),
    ("cover.us", "us"),
    ("cover.nodes", "count"),
    ("cover.prune_ratio", "ratio"),
    ("cover.ns_per_node", "ns"),
    ("auto.exact_share", "ratio"),
    ("auto.fallback_us", "us"),
    ("heuristic.evals", "count"),
    ("session.open_us", "us"),
    ("session.apply_first_us", "us"),
    ("session.apply_replay_us", "us"),
    ("session.replay_share", "ratio"),
    ("session.seeded_share", "ratio"),
    ("session.raises_reused_ratio", "ratio"),
    ("kiss.parse_us", "us"),
    ("symbolic.minimize_us", "us"),
    ("symbolic.extract_us", "us"),
    ("synth.encode_us", "us"),
    ("synth.verify_us", "us"),
    ("espresso.realize_us", "us"),
    ("nova.us", "us"),
    ("espresso.measure_us", "us"),
    ("espresso.iters", "count"),
    ("synth.cubes_sum", "count"),
    ("trace.replayed", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.replay_mismatches", "count"),
    ("self_ms.exec", "ms"),
    ("self_ms.presolve", "ms"),
    ("self_ms.canon", "ms"),
    ("self_ms.cache", "ms"),
    ("self_ms.diskcache", "ms"),
    ("self_ms.feasible", "ms"),
    ("self_ms.solve", "ms"),
    ("self_ms.primes", "ms"),
    ("self_ms.cover", "ms"),
    ("self_ms.session", "ms"),
    ("self_ms.kiss", "ms"),
    ("self_ms.symbolic", "ms"),
    ("self_ms.synth", "ms"),
    ("self_ms.espresso", "ms"),
    ("self_ms.nova", "ms"),
];

/// Which span names each `self_ms.<layer>` metric sums.
pub const SELF_TIME_LAYERS: &[(&str, &[&str])] = &[
    (
        "self_ms.exec",
        &["exec.parse", "exec.verify", "exec.render"],
    ),
    ("self_ms.presolve", &["presolve"]),
    ("self_ms.canon", &["canon"]),
    ("self_ms.cache", &["cache.lookup"]),
    ("self_ms.diskcache", &["diskcache.insert"]),
    ("self_ms.feasible", &["feasible"]),
    ("self_ms.solve", &["solve", "solve.setup"]),
    ("self_ms.primes", &["primes"]),
    ("self_ms.cover", &["cover"]),
    ("self_ms.session", &["session.open", "session.apply"]),
    ("self_ms.kiss", &["kiss.parse"]),
    (
        "self_ms.symbolic",
        &["symbolic.minimize", "symbolic.extract"],
    ),
    ("self_ms.synth", &["synth.encode", "synth.verify"]),
    (
        "self_ms.espresso",
        &["espresso.realize", "espresso.measure"],
    ),
    ("self_ms.nova", &["nova"]),
];

/// One workload run's outcome.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions (printed to stderr).
    pub errors: Vec<String>,
    /// Set when the run cannot be trusted (for example a lagging
    /// open-loop generator); the command then exits non-zero.
    pub invalid: Option<String>,
    /// End-to-end metrics by contract name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// The workload's own metric names, printed as human-readable lines.
    pub named: Vec<(String, f64, &'static str)>,
    /// Per-layer metrics by name (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// Digest of every generated input.
    pub digest: String,
    /// Digest of the admitted pool the run draws its requests from.
    pub pool_digest: String,
    /// Per input stream, the candidates that failed the gate (only with
    /// `--list-exclusions`).
    pub exclusions: Vec<(String, Vec<usize>)>,
}

impl Report {
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why.into());
        }
    }

    /// Adds another report's attempted and failed counts and errors.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.into_iter().take(room));
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push((name.to_string(), value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }
}
