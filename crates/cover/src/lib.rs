#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! Covering solvers for the `ioenc` encoding framework.
//!
//! The final step of exact encoding (Section 6.3 of Saldanha et al.) selects
//! a minimum set of prime encoding-dichotomies covering all initial
//! encoding-dichotomies — a *unate covering* problem. The general
//! abstraction of Section 4, and the distance-2 / non-face extensions of
//! Sections 8.2–8.3, require *binate covering*.
//!
//! * [`UnateProblem`] — exact branch-and-bound (essential columns, row and
//!   column dominance, maximal-independent-set lower bound) and a greedy
//!   heuristic.
//! * [`BinateProblem`] — exact branch-and-bound with unit propagation over
//!   clauses that may contain complemented columns.
//!
//! # Parallel search
//!
//! Both exact solvers run a two-phase search: a deterministic breadth-first
//! expansion of the root into a fixed pool of subproblems, then a
//! work-stealing sweep over that pool in which every worker runs a
//! sequential depth-first search sharing one atomic upper bound. Pruning
//! against the shared bound is *strict* (`>` rather than `>=`), so any
//! subproblem whose subtree attains the global minimum always records its
//! minimum-cost solution with the lexicographically least *branch path*
//! (the sequence of branch ranks from the root — an intrinsic property of
//! the instance, independent of scheduling and of any valid seeded bound);
//! merging task results by `(cost, path)` therefore returns bit-identical
//! solutions for every [`Parallelism`] setting and under any warm-start
//! seeding. When a node budget expires the search stops early and only
//! then may the (still feasible, `optimal = false`) result depend on
//! scheduling.
//!
//! # Examples
//!
//! ```
//! use ioenc_cover::UnateProblem;
//!
//! // Three rows over four columns; {1, 2} is the unique minimum cover.
//! let mut p = UnateProblem::new(4);
//! p.add_row([0, 1]);
//! p.add_row([1, 3]);
//! p.add_row([2]);
//! let sol = p.solve_exact().expect("feasible");
//! let mut cols = sol.columns.clone();
//! cols.sort();
//! assert_eq!(cols, vec![1, 2]);
//! ```

mod binate;
mod unate;

pub use binate::{BinateProblem, Clause};
pub use unate::UnateProblem;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A shareable cancellation token for cooperative interruption of the
/// exact solvers (and the encoders built on them).
///
/// Cloning shares the underlying flag; once [`cancel`](Self::cancel) is
/// called every holder observes the request at its next check point.
/// Cancellation is inherently wall-clock-dependent: unlike the
/// deterministic work budgets, *where* a search stops under cancellation
/// may vary run to run.
///
/// # Examples
///
/// ```
/// use ioenc_cover::CancelToken;
///
/// let token = CancelToken::new();
/// let shared = token.clone();
/// assert!(!shared.is_cancelled());
/// token.cancel();
/// assert!(shared.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; visible to every clone of the token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Nodes between two interrupt checks of one worker. A clock read costs
/// a few tens of nanoseconds, a node a microsecond or more, so the checks
/// stay negligible while a deadline is noticed within a few nodes.
const CHECK_STRIDE: u64 = 16;

/// Cooperative interruption sources (cancel token, wall-clock deadline)
/// shared by both solvers. Checks are amortized: the root expansion and
/// each sweep worker count the nodes they visit (a worker across all its
/// tasks), and only every [`CHECK_STRIDE`]th node looks at the clock or
/// the flag.
#[derive(Debug, Clone, Default)]
pub(crate) struct Interrupt {
    pub(crate) cancel: Option<CancelToken>,
    pub(crate) deadline: Option<Instant>,
}

impl Interrupt {
    fn enabled(&self) -> bool {
        self.cancel.is_some() || self.deadline.is_some()
    }

    /// An immediate (unamortized) check.
    pub(crate) fn tripped(&self) -> bool {
        self.cancel.as_ref().is_some_and(|c| c.is_cancelled())
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Amortized per-node check. `ticks` counts the nodes visited so far
    /// by the caller (the expansion or one worker); the sources are
    /// consulted on every [`CHECK_STRIDE`]th node, starting with the first.
    pub(crate) fn check(&self, ticks: u64) -> bool {
        self.enabled() && ticks.is_multiple_of(CHECK_STRIDE) && self.tripped()
    }
}

/// Thread-count policy for the exact solvers.
///
/// Results are bit-identical across all settings (see the crate-level
/// notes on parallel search); the setting only controls how many worker
/// threads sweep the subproblem pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Use the machine's available parallelism, capped at 8 threads.
    #[default]
    Auto,
    /// Use exactly this many threads (0 is treated as 1).
    Fixed(usize),
    /// Single-threaded: never spawn worker threads.
    Off,
}

impl Parallelism {
    /// The worker-thread count this policy resolves to on this machine.
    pub fn threads(self) -> usize {
        match self {
            Parallelism::Off => 1,
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
        }
    }
}

/// Instrumentation counters from one exact solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverStats {
    /// Branch-and-bound nodes expanded (root expansion + all tasks).
    pub nodes: u64,
    /// Subtrees cut by the bound tests.
    pub prunes: u64,
    /// Subproblems in the deterministic root decomposition.
    pub tasks: usize,
    /// Worker threads used for the task sweep.
    pub threads: usize,
}

impl CoverStats {
    /// Sums another solve's counters into this one (thread/task counts take
    /// the maximum, so a pipeline of solves reports its widest stage).
    pub fn absorb(&mut self, other: &CoverStats) {
        self.nodes += other.nodes;
        self.prunes += other.prunes;
        self.tasks = self.tasks.max(other.tasks);
        self.threads = self.threads.max(other.threads);
    }
}

/// A covering solution: the selected columns and their total weight.
/// The default is the empty selection (no columns, zero cost, not
/// proved optimal).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Solution {
    /// Selected column indices, in no particular order.
    pub columns: Vec<usize>,
    /// Sum of the selected columns' weights.
    pub cost: u64,
    /// `false` when a node limit stopped the search before optimality was
    /// proved; the solution is still feasible.
    pub optimal: bool,
}

/// Errors produced by the covering solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// Some row (clause) cannot be satisfied by any column assignment.
    Infeasible,
    /// The node limit was exhausted before any feasible solution was found.
    NodeLimit,
    /// A deterministic work budget (`set_work_budget`) expired. Unlike
    /// [`NodeLimit`](Self::NodeLimit), this is reported even when a feasible
    /// solution was found, so callers can fall back to a cheaper method; the
    /// counters in `stats` are bit-identical across thread counts.
    Budget {
        /// Work performed before the budget expired.
        stats: CoverStats,
    },
    /// A cancel token fired or a wall-clock deadline passed. The stop point
    /// is timing-dependent, so `stats` may vary run to run.
    Interrupted {
        /// Work performed before the interruption.
        stats: CoverStats,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "covering problem is infeasible"),
            SolveError::NodeLimit => {
                write!(f, "node limit reached before a feasible solution was found")
            }
            SolveError::Budget { stats } => {
                write!(f, "cover work budget exhausted after {} nodes", stats.nodes)
            }
            SolveError::Interrupted { stats } => {
                write!(f, "cover search interrupted after {} nodes", stats.nodes)
            }
        }
    }
}

impl std::error::Error for SolveError {}
