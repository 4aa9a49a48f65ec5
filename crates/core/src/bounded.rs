//! The exact version of problem P-3 (Section 7.1): enumerate all 2^(n-1)
//! encoding-dichotomies and select the fixed-size subset minimizing the
//! cost function — "clearly infeasible on all but trivial instances", which
//! is exactly why the paper develops the heuristic. This implementation
//! exists as the reference point for the heuristic on small instances.

use crate::budget::{Budget, BudgetPhase, BudgetScope, BudgetSpent};
use crate::cost::{cost_of_with, CostFunction};
use crate::stats::SolverStats;
use crate::{ConstraintSet, EncodeError, Encoding};
use ioenc_cover::Parallelism;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Options for [`bounded_exact_encode`].
///
/// Construct with [`BoundedExactOptions::new`] (or `default()`) and refine
/// with the `with_*` methods; the struct is `#[non_exhaustive]`, so future
/// options can be added without breaking callers.
///
/// ```
/// use ioenc_core::{BoundedExactOptions, CostFunction};
///
/// let opts = BoundedExactOptions::new()
///     .with_code_length(4)
///     .with_cost(CostFunction::Cubes);
/// assert_eq!(opts.code_length, Some(4));
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct BoundedExactOptions {
    /// Code length; `None` uses the minimum `⌈log₂ n⌉`.
    pub code_length: Option<usize>,
    /// Cost function to minimize.
    pub cost: CostFunction,
    /// Refuse instances with more symbols than this (the candidate pool is
    /// `2^(n-1) − 1`).
    pub max_symbols: usize,
    /// Refuse instances whose selection space exceeds this many subsets.
    pub max_selections: u64,
    /// Thread policy for the enumeration; results are bit-identical across
    /// settings.
    pub parallelism: Parallelism,
    /// Resource budget. The evaluation cap is enforced as an upfront gate
    /// on the selection-space size (deterministic); the deadline and the
    /// cancel token stop the sweep cooperatively.
    pub budget: Budget,
}

impl Default for BoundedExactOptions {
    fn default() -> Self {
        BoundedExactOptions {
            code_length: None,
            cost: CostFunction::Violations,
            max_symbols: 8,
            max_selections: 5_000_000,
            parallelism: Parallelism::Auto,
            budget: Budget::unlimited(),
        }
    }
}

impl BoundedExactOptions {
    /// The default options (minimum code length, violation cost).
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests an explicit code length instead of the minimum `⌈log₂ n⌉`.
    pub fn with_code_length(mut self, bits: usize) -> Self {
        self.code_length = Some(bits);
        self
    }

    /// Sets the cost function to minimize.
    pub fn with_cost(mut self, cost: CostFunction) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the largest accepted symbol count.
    pub fn with_max_symbols(mut self, max: usize) -> Self {
        self.max_symbols = max;
        self
    }

    /// Sets the largest accepted selection-space size.
    pub fn with_max_selections(mut self, max: u64) -> Self {
        self.max_selections = max;
        self
    }

    /// Sets the thread policy.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Installs a resource [`Budget`].
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }
}

/// The detailed result of [`bounded_exact_encode_report`].
#[derive(Debug, Clone)]
pub struct BoundedReport {
    /// The minimum-cost encoding of the requested length.
    pub encoding: Encoding,
    /// Its cost under the configured [`CostFunction`].
    pub cost: u64,
    /// Evaluation counters and timings.
    pub stats: SolverStats,
}

/// Exhaustively finds the minimum-cost encoding of the requested length
/// (the *candidate generation* + *selection* formulation the paper gives
/// before the heuristic). Returns the encoding and its cost.
///
/// # Errors
///
/// * [`EncodeError::TooLarge`] beyond the configured instance limits;
/// * [`EncodeError::WidthExceeded`] for lengths that cannot give distinct
///   codes;
/// * [`EncodeError::Budget`] when the evaluation budget cannot pay for the
///   selection space, or the deadline / cancel token fires mid-sweep.
#[deprecated(note = "use Solver::new().mode(SolverMode::Bounded)")]
pub fn bounded_exact_encode(
    cs: &ConstraintSet,
    opts: &BoundedExactOptions,
) -> Result<(Encoding, u64), EncodeError> {
    bounded_exact_encode_report(cs, opts).map(|r| (r.encoding, r.cost))
}

/// Like [`bounded_exact_encode`] but returns the full [`BoundedReport`]
/// (evaluation counters, timings).
///
/// # Errors
///
/// As for [`bounded_exact_encode`].
pub fn bounded_exact_encode_report(
    cs: &ConstraintSet,
    opts: &BoundedExactOptions,
) -> Result<BoundedReport, EncodeError> {
    let start = Instant::now();
    let done = |encoding: Encoding, cost: u64, stats: SolverStats| {
        let mut stats = stats;
        stats.timings.total = start.elapsed();
        Ok(BoundedReport {
            encoding,
            cost,
            stats,
        })
    };
    let n = cs.num_symbols();
    if n > opts.max_symbols {
        return Err(EncodeError::TooLarge {
            what: "bounded exact enumeration",
        });
    }
    if n == 0 {
        return done(Encoding::new(0, Vec::new()), 0, SolverStats::default());
    }
    let min_len = usize::max(1, (usize::BITS - (n - 1).leading_zeros()) as usize);
    let c = opts.code_length.unwrap_or(min_len);
    if c >= 64 || (1u64 << c) < n as u64 {
        return Err(EncodeError::WidthExceeded);
    }
    if n == 1 {
        return done(Encoding::new(c, vec![0]), 0, SolverStats::default());
    }

    // All 2^(n-1) − 1 distinct encoding-dichotomies (symbol 0 pinned to
    // the left block; for input-type cost functions orientation is
    // immaterial), each as its column: bit s is the code bit it gives
    // symbol s, 1 for the right block.
    let candidates: Vec<u64> = (1u64..1 << (n - 1)).map(|mask| mask << 1).collect();

    // Selection-space size check: C(|candidates|, c).
    let mut selections = 1u64;
    for i in 0..c as u64 {
        selections = selections.saturating_mul(candidates.len() as u64 - i) / (i + 1);
        if selections > opts.max_selections {
            return Err(EncodeError::TooLarge {
                what: "bounded exact selection space",
            });
        }
    }
    // Upfront evaluation gate: an enumeration needs up to `selections`
    // cost evaluations, so a smaller budget cannot finish it. Failing here
    // — before any work — keeps the expiry decision deterministic.
    if opts.budget.max_evals.is_some_and(|b| selections > b) {
        return Err(EncodeError::budget(
            BudgetPhase::Bounded,
            BudgetSpent::default(),
        ));
    }
    let scope = opts.budget.scope();

    // The search branches on the first selected candidate; branches are
    // independent (the running minimum never prunes, it only filters the
    // final compare), so each branch computes its own first-in-order
    // minimum and a strict-`<` merge in branch order reproduces the
    // sequential result exactly. A work-stealing index balances the
    // heavily skewed branch sizes.
    let last_start = candidates.len().saturating_sub(c);
    let threads = opts.parallelism.threads().min(last_start + 1);
    let ctx = EnumCtx {
        cs,
        candidates: &candidates,
        c,
        cost: opts.cost,
        max_espresso_iters: opts.budget.max_espresso_iters,
        stop: &AtomicBool::new(false),
        scope: &scope,
    };
    let mut best: Option<(u64, Encoding)> = None;
    let mut stats = SolverStats::default();
    let mut stopped = false;
    if threads <= 1 {
        let mut out = BranchOut::default();
        let mut codes = vec![0; n];
        enumerate(&ctx, 0, 0, &mut codes, &mut out);
        best = out.best;
        stats.evals = out.evals;
        stats.espresso_iters = out.espresso_iters;
        stopped = out.stopped;
    } else {
        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<BranchOut>>> =
            (0..=last_start).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i > last_start {
                        break;
                    }
                    let mut out = BranchOut::default();
                    let mut codes = vec![0; n];
                    set_code_bit(&mut codes, candidates[i], 0);
                    enumerate(&ctx, i + 1, 1, &mut codes, &mut out);
                    *results[i]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(out);
                });
            }
        });
        // Merge in branch order so the winning encoding (and the counter
        // totals) match the sequential sweep exactly.
        for slot in results {
            // A panicking worker would have propagated through the scope
            // above, so every slot is filled; an empty default is inert.
            let out = slot
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .unwrap_or_default();
            stats.evals += out.evals;
            stats.espresso_iters += out.espresso_iters;
            stopped |= out.stopped;
            if let Some((cost, enc)) = out.best {
                if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                    best = Some((cost, enc));
                }
            }
        }
    }
    if stopped {
        stats.timings.total = start.elapsed();
        return Err(EncodeError::budget(
            BudgetPhase::Bounded,
            BudgetSpent {
                stats,
                raised: Vec::new(),
            },
        ));
    }
    match best {
        Some((cost, enc)) => done(enc, cost, stats),
        None => Err(EncodeError::TooLarge {
            what: "no injective selection of the requested length",
        }),
    }
}

struct EnumCtx<'a> {
    cs: &'a ConstraintSet,
    /// Candidate columns as symbol masks.
    candidates: &'a [u64],
    c: usize,
    cost: CostFunction,
    max_espresso_iters: Option<u64>,
    /// Latched by whichever branch first observes an interrupt, so every
    /// other branch stops at its next leaf.
    stop: &'a AtomicBool,
    scope: &'a BudgetScope,
}

#[derive(Default)]
struct BranchOut {
    best: Option<(u64, Encoding)>,
    evals: u64,
    espresso_iters: u64,
    stopped: bool,
}

/// Sets code bit `k` of every symbol to its bit in a column `mask`.
fn set_code_bit(codes: &mut [u64], mask: u64, k: usize) {
    for (s, code) in codes.iter_mut().enumerate() {
        *code = *code & !(1 << k) | (mask >> s & 1) << k;
    }
}

/// Visits every selection of `ctx.c` candidates, in lexicographic order,
/// that extends the `depth` already chosen with candidates from `start`
/// on. `codes` holds each symbol's code over the chosen columns: bit `k`
/// is written when the `k`th candidate is chosen, so the low `depth` bits
/// are always current and no leaf rebuilds them.
fn enumerate(
    ctx: &EnumCtx<'_>,
    start: usize,
    depth: usize,
    codes: &mut [u64],
    out: &mut BranchOut,
) {
    if depth == ctx.c {
        // One interrupt check per leaf is cheap next to a cost evaluation.
        if ctx.stop.load(Ordering::Relaxed) || ctx.scope.interrupted() {
            ctx.stop.store(true, Ordering::Relaxed);
            out.stopped = true;
            return;
        }
        // Injectivity first; only injective leaves build an encoding.
        if (1..codes.len()).any(|i| codes[..i].contains(&codes[i])) {
            return;
        }
        let enc = Encoding::new(ctx.c, codes.to_vec());
        let (value, iters) = cost_of_with(ctx.cs, &enc, ctx.cost, ctx.max_espresso_iters);
        out.evals += 1;
        out.espresso_iters += iters;
        if out.best.as_ref().is_none_or(|(b, _)| value < *b) {
            out.best = Some((value, enc));
        }
        return;
    }
    let remaining = ctx.c - depth;
    for i in start..=(ctx.candidates.len().saturating_sub(remaining)) {
        set_code_bit(codes, ctx.candidates[i], depth);
        enumerate(ctx, i + 1, depth + 1, codes, out);
        if out.stopped {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(deprecated)] // the wrappers stay covered until removal
    use super::*;
    use crate::{count_violations, heuristic_encode, HeuristicOptions};

    #[test]
    fn satisfiable_instances_reach_zero() {
        let mut cs = ConstraintSet::new(4);
        cs.add_face([0, 1]);
        cs.add_face([2, 3]);
        let (enc, cost) = bounded_exact_encode(&cs, &BoundedExactOptions::default()).unwrap();
        assert_eq!(cost, 0);
        assert_eq!(count_violations(&cs, &enc), 0);
        assert_eq!(enc.width(), 2);
    }

    #[test]
    fn figure_3_at_three_bits_has_positive_minimum() {
        // Figure 3's constraints need 4 bits; the exact 3-bit minimum is
        // some positive violation count that the heuristic cannot beat.
        let mut cs = ConstraintSet::new(5);
        cs.add_face([0, 2, 4]);
        cs.add_face([0, 1, 4]);
        cs.add_face([1, 2, 3]);
        cs.add_face([1, 3, 4]);
        let (_, exact_cost) = bounded_exact_encode(&cs, &BoundedExactOptions::default()).unwrap();
        assert!(exact_cost >= 1);
        let heur = heuristic_encode(&cs, &HeuristicOptions::default()).unwrap();
        assert!(count_violations(&cs, &heur) as u64 >= exact_cost);
    }

    #[test]
    fn four_bit_selection_satisfies_figure_3() {
        let mut cs = ConstraintSet::new(5);
        cs.add_face([0, 2, 4]);
        cs.add_face([0, 1, 4]);
        cs.add_face([1, 2, 3]);
        cs.add_face([1, 3, 4]);
        let opts = BoundedExactOptions {
            code_length: Some(4),
            ..Default::default()
        };
        let (_, cost) = bounded_exact_encode(&cs, &opts).unwrap();
        assert_eq!(cost, 0);
    }

    #[test]
    fn thread_counts_agree_bitwise() {
        let mut cs = ConstraintSet::new(5);
        cs.add_face([0, 2, 4]);
        cs.add_face([0, 1, 4]);
        cs.add_face([1, 2, 3]);
        cs.add_face([1, 3, 4]);
        let encode = |par: Parallelism| {
            let opts = BoundedExactOptions {
                parallelism: par,
                ..Default::default()
            };
            bounded_exact_encode(&cs, &opts).unwrap()
        };
        let (ref_enc, ref_cost) = encode(Parallelism::Off);
        for par in [
            Parallelism::Fixed(1),
            Parallelism::Fixed(4),
            Parallelism::Auto,
        ] {
            let (enc, cost) = encode(par);
            assert_eq!(cost, ref_cost, "{par:?} cost diverged");
            assert_eq!(enc.codes(), ref_enc.codes(), "{par:?} codes diverged");
        }
    }

    #[test]
    fn instance_limits_are_enforced() {
        let cs = ConstraintSet::new(12);
        assert!(matches!(
            bounded_exact_encode(&cs, &BoundedExactOptions::default()),
            Err(EncodeError::TooLarge { .. })
        ));
        let opts = BoundedExactOptions {
            max_symbols: 12,
            max_selections: 10,
            ..Default::default()
        };
        assert!(matches!(
            bounded_exact_encode(&cs, &opts),
            Err(EncodeError::TooLarge { .. })
        ));
    }

    #[test]
    fn eval_budget_gate_fails_before_any_work() {
        let mut cs = ConstraintSet::new(5);
        cs.add_face([0, 1]);
        for par in [Parallelism::Off, Parallelism::Fixed(4)] {
            let opts = BoundedExactOptions::default()
                .with_parallelism(par)
                .with_budget(Budget::unlimited().with_max_evals(3));
            match bounded_exact_encode(&cs, &opts) {
                Err(EncodeError::Budget { phase, spent }) => {
                    assert_eq!(phase, BudgetPhase::Bounded);
                    assert_eq!(spent.stats.evals, 0, "the gate fires upfront");
                }
                other => panic!("expected budget expiry, got {other:?}"),
            }
        }
    }

    #[test]
    fn report_counts_evaluations_identically_across_threads() {
        let mut cs = ConstraintSet::new(4);
        cs.add_face([0, 1]);
        let r = bounded_exact_encode_report(&cs, &BoundedExactOptions::default()).unwrap();
        assert!(r.stats.evals > 0);
        let r2 = bounded_exact_encode_report(
            &cs,
            &BoundedExactOptions::default().with_parallelism(Parallelism::Fixed(4)),
        )
        .unwrap();
        assert_eq!(r.stats.work_units(), r2.stats.work_units());
        assert_eq!(r.encoding.codes(), r2.encoding.codes());
    }

    #[test]
    fn cancelled_sweep_reports_bounded_expiry() {
        let token = ioenc_cover::CancelToken::new();
        token.cancel();
        let cs = ConstraintSet::new(5);
        let opts =
            BoundedExactOptions::default().with_budget(Budget::unlimited().with_cancel(token));
        assert!(matches!(
            bounded_exact_encode(&cs, &opts),
            Err(EncodeError::Budget {
                phase: BudgetPhase::Bounded,
                ..
            })
        ));
    }

    #[test]
    fn too_short_length_rejected() {
        let cs = ConstraintSet::new(5);
        let opts = BoundedExactOptions {
            code_length: Some(2),
            ..Default::default()
        };
        assert!(matches!(
            bounded_exact_encode(&cs, &opts),
            Err(EncodeError::WidthExceeded)
        ));
    }
}
