//! Seeded input generators. Every workload's inputs are a pure function of
//! the `--seed` argument; [`Digest`] hashes them so a pinned seed can
//! detect a generator change.

use ioenc_core::ConstraintSet;
use ioenc_rng::SplitMix64;
use ioenc_synth::{corpus_files, render_constraints, CorpusOptions};

pub type Rng = SplitMix64;

/// Accumulates every generated input of a run into one 128-bit digest.
#[derive(Default)]
pub struct Digest {
    bytes: Vec<u8>,
}

impl Digest {
    pub fn add(&mut self, s: &str) {
        self.bytes.extend_from_slice(s.as_bytes());
        self.bytes.push(0);
    }

    pub fn hex(&self) -> String {
        format!("{:032x}", ioenc_rng::hash_bytes128(&self.bytes))
    }
}

/// Picks `k` distinct symbols out of `n`.
fn pick(rng: &mut Rng, n: usize, k: usize) -> Vec<usize> {
    let mut m: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut m);
    m.truncate(k);
    m
}

/// A random mix of face, dominance and disjunctive constraints over `n`
/// symbols. Dominances follow one random order, so they never form a
/// cycle on their own; the set can still be infeasible in combination.
pub fn random_set(rng: &mut Rng, n: usize) -> ConstraintSet {
    let mut cs = ConstraintSet::new(n);
    let order = pick(rng, n, n);
    for _ in 0..2 + rng.gen_range(0..3) {
        let size = 2 + rng.gen_range(0..2);
        cs.add_face(pick(rng, n, size));
    }
    for _ in 0..rng.gen_range(0..4) {
        let a = rng.gen_range(0..n - 1);
        let b = a + 1 + rng.gen_range(0..n - a - 1);
        cs.add_dominance(order[a], order[b]);
    }
    if rng.gen_bool(0.5) {
        let kids = pick(rng, n, 3);
        cs.add_disjunctive(kids[0], [kids[1], kids[2]]);
    }
    cs
}

pub fn render(cs: &ConstraintSet) -> String {
    render_constraints(cs)
}

/// Another spelling of the same constraint set: symbols listed in a new
/// order and constraint lines shuffled; with `pad`, one line is repeated
/// (a redundant constraint that presolve drops).
pub fn respell(text: &str, rng: &mut Rng, pad: bool) -> String {
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    let mut names: Vec<&str> = header
        .strip_prefix("symbols:")
        .unwrap_or_default()
        .split_whitespace()
        .collect();
    let mut body: Vec<&str> = lines.filter(|l| !l.trim().is_empty()).collect();
    rng.shuffle(&mut names);
    if pad && !body.is_empty() {
        let dup = body[rng.gen_range(0..body.len())];
        body.push(dup);
    }
    rng.shuffle(&mut body);
    let mut out = format!("symbols: {}\n", names.join(" "));
    for l in body {
        out.push_str(l);
        out.push('\n');
    }
    out
}

/// Input-constraint sets of a seeded gen-corpus draw (the face
/// constraints of each machine's symbolic minimization), for machines
/// with at least `min_states` states.
pub fn fsm_sets(seed: u64, count: usize, max_states: usize, min_states: usize) -> Vec<String> {
    ioenc_kiss::corpus(seed, count, max_states)
        .iter()
        .filter(|f| f.num_states() >= min_states)
        .map(|f| render(&ioenc_symbolic::input_constraints(f)))
        .collect()
}

/// The adversarial constraint files (distance-2, non-face, extended
/// disjunctive and mixed) of a seeded gen-corpus draw.
pub fn adversarial_sets(seed: u64, count: usize) -> Vec<String> {
    corpus_files(&CorpusOptions {
        seed,
        count: 0,
        max_states: 4,
        adversarial: count,
    })
    .into_iter()
    .map(|(_, text)| text)
    .collect()
}

/// The KISS2 machines of a seeded gen-corpus draw, as `(file name, text)`.
pub fn machines(seed: u64, count: usize, max_states: usize) -> Vec<(String, String)> {
    corpus_files(&CorpusOptions {
        seed,
        count,
        max_states,
        adversarial: 0,
    })
}

/// Zipf-like rank sampler: rank `k` (0-based) has weight `1 / (k + 1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf = Vec::with_capacity(n);
        for k in 0..n {
            acc += 1.0 / (k + 1) as f64;
            cdf.push(acc);
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = self.cdf.last().copied().unwrap_or(0.0);
        let u = rng.gen_f64() * total;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// An exponential inter-arrival gap (seconds) at `rate` per second.
pub fn exp_gap(rng: &mut Rng, rate: f64) -> f64 {
    -(1.0 - rng.gen_f64()).ln() / rate
}
