//! Exact binate covering (minimum-cost satisfying assignment of a
//! product-of-sums with positive and negative literals).

use crate::{CancelToken, CoverStats, Interrupt, Parallelism, Solution, SolveError};
use ioenc_bitset::BitSet;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A clause in a binate covering problem: satisfied when some column in
/// `pos` is *selected* or some column in `neg` is *rejected*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clause {
    /// Columns that satisfy the clause when selected.
    pub pos: BitSet,
    /// Columns that satisfy the clause when rejected.
    pub neg: BitSet,
}

/// A binate covering problem over `num_cols` 0/1 columns: find the
/// minimum-weight selection of columns such that every clause holds
/// (Section 4 of the paper, and the distance-2 / non-face extensions of
/// Section 8).
///
/// # Examples
///
/// ```
/// use ioenc_cover::BinateProblem;
///
/// let mut p = BinateProblem::new(3);
/// p.add_clause([0, 1], []);   // select 0 or 1
/// p.add_clause([], [0]);      // do not select 0
/// let sol = p.solve_exact().unwrap();
/// assert_eq!(sol.columns, vec![1]);
/// ```
#[derive(Debug, Clone)]
pub struct BinateProblem {
    num_cols: usize,
    weights: Vec<u32>,
    clauses: Vec<Clause>,
    node_limit: u64,
    work_budget: Option<u64>,
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    parallelism: Parallelism,
}

const DEFAULT_NODE_LIMIT: u64 = 5_000_000;

/// Subproblem-pool size for the deterministic root expansion; fixed so
/// every [`Parallelism`] setting merges the same pool.
const TASK_TARGET: usize = 32;

/// Nodes the root expansion may pop before giving up on the target.
const EXPANSION_BUDGET: u64 = 256;

impl BinateProblem {
    /// A problem with `num_cols` unit-weight columns.
    pub fn new(num_cols: usize) -> Self {
        Self::with_weights(vec![1; num_cols])
    }

    /// A problem with explicit column weights.
    pub fn with_weights(weights: Vec<u32>) -> Self {
        BinateProblem {
            num_cols: weights.len(),
            weights,
            clauses: Vec::new(),
            node_limit: DEFAULT_NODE_LIMIT,
            work_budget: None,
            cancel: None,
            deadline: None,
            parallelism: Parallelism::default(),
        }
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Adds a clause from iterators of positive and negative columns.
    ///
    /// # Panics
    ///
    /// Panics if a column index is out of range.
    pub fn add_clause<P, N>(&mut self, pos: P, neg: N)
    where
        P: IntoIterator<Item = usize>,
        N: IntoIterator<Item = usize>,
    {
        self.clauses.push(Clause {
            pos: BitSet::from_indices(self.num_cols, pos),
            neg: BitSet::from_indices(self.num_cols, neg),
        });
    }

    /// Overrides the branch-and-bound node budget.
    pub fn set_node_limit(&mut self, limit: u64) {
        self.node_limit = limit;
    }

    /// Enables *strict budget mode* with the given node cap (`None`
    /// disables it again). See [`UnateProblem::set_work_budget`] for the
    /// semantics: exhaustion becomes [`SolveError::Budget`] and the
    /// explored node set is bit-identical across all [`Parallelism`]
    /// settings.
    ///
    /// [`UnateProblem::set_work_budget`]: crate::UnateProblem::set_work_budget
    pub fn set_work_budget(&mut self, budget: Option<u64>) {
        self.work_budget = budget;
    }

    /// Installs a cooperative cancellation token, checked every 16 nodes
    /// of each worker.
    pub fn set_cancel(&mut self, cancel: Option<CancelToken>) {
        self.cancel = cancel;
    }

    /// Installs a wall-clock deadline, checked every 16 nodes
    /// of each worker.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Sets the thread policy for [`solve_exact`](Self::solve_exact).
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.parallelism = parallelism;
    }

    /// The configured thread policy.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Exact minimum-weight satisfying selection, by branch and bound with
    /// unit propagation. The search sweeps a deterministic subproblem pool
    /// with the configured [`Parallelism`]; results are identical for
    /// every thread count.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] if no selection satisfies all clauses;
    /// [`SolveError::NodeLimit`] if the budget expired with no feasible
    /// solution found (a best-effort feasible solution, when one was found,
    /// is returned with `optimal = false` instead).
    pub fn solve_exact(&self) -> Result<Solution, SolveError> {
        self.solve_exact_with_stats().map(|(sol, _)| sol)
    }

    /// Like [`solve_exact`](Self::solve_exact), also returning search
    /// counters.
    ///
    /// # Errors
    ///
    /// As for [`solve_exact`](Self::solve_exact).
    pub fn solve_exact_with_stats(&self) -> Result<(Solution, CoverStats), SolveError> {
        let strict = self.work_budget.is_some();
        let node_limit = self.work_budget.unwrap_or(self.node_limit);
        let interrupt = Interrupt {
            cancel: self.cancel.clone(),
            deadline: self.deadline,
        };
        let mut stats = CoverStats {
            threads: self.parallelism.threads(),
            ..CoverStats::default()
        };

        // Phase 1: deterministic breadth-first decomposition.
        let root = BNode {
            selected: BitSet::new(self.num_cols),
            rejected: BitSet::new(self.num_cols),
            seq: 0,
        };
        let mut bound = u64::MAX;
        let mut solved: Vec<(u64, Vec<usize>, u64)> = Vec::new();
        let tasks = match self.expand_tasks(
            root,
            &mut bound,
            &mut solved,
            &mut stats,
            node_limit,
            &interrupt,
        ) {
            Ok(tasks) => tasks,
            Err(()) => return Err(SolveError::Interrupted { stats }),
        };
        stats.tasks = tasks.len();

        // Phase 2: the sweep — shared-bound outside budget mode, fixed
        // phase-1 bound inside it (see `UnateProblem::set_work_budget`).
        let shared_bound = AtomicU64::new(bound);
        let budget = (node_limit.saturating_sub(stats.nodes) / tasks.len().max(1) as u64).max(1);
        let results = self.sweep_tasks(
            &tasks,
            (!strict).then_some(&shared_bound),
            bound,
            budget,
            stats.threads,
            &interrupt,
        );

        let mut best: Option<(u64, u64, &Vec<usize>)> = None;
        for (cost, cols, seq) in &solved {
            if best.is_none_or(|(c, s, _)| (*cost, *seq) < (c, s)) {
                best = Some((*cost, *seq, cols));
            }
        }
        let mut exhausted = false;
        let mut interrupted = false;
        for (task, result) in tasks.iter().zip(&results) {
            stats.nodes += result.nodes;
            stats.prunes += result.prunes;
            exhausted |= result.exhausted;
            interrupted |= result.interrupted;
            if let Some((cost, cols)) = &result.best {
                if best.is_none_or(|(c, s, _)| (*cost, task.seq) < (c, s)) {
                    best = Some((*cost, task.seq, cols));
                }
            }
        }
        if interrupted {
            return Err(SolveError::Interrupted { stats });
        }
        if strict && exhausted {
            return Err(SolveError::Budget { stats });
        }
        match best {
            Some((cost, _, cols)) => Ok((
                Solution {
                    columns: cols.clone(),
                    cost,
                    optimal: !exhausted,
                },
                stats,
            )),
            None if exhausted => Err(SolveError::NodeLimit),
            None => Err(SolveError::Infeasible),
        }
    }

    /// Breadth-first root expansion; fully sequential and deterministic.
    /// Assignments solved by propagation alone land in `solved` and
    /// tighten `bound`. `Err(())` reports an interruption.
    fn expand_tasks(
        &self,
        root: BNode,
        bound: &mut u64,
        solved: &mut Vec<(u64, Vec<usize>, u64)>,
        stats: &mut CoverStats,
        node_limit: u64,
        interrupt: &Interrupt,
    ) -> Result<Vec<BNode>, ()> {
        let mut queue: VecDeque<BNode> = VecDeque::from([root]);
        let mut next_seq = 1u64;
        let mut used = Vec::new();
        let expansion_cap = EXPANSION_BUDGET.min(node_limit);
        while queue.len() < TASK_TARGET && stats.nodes < expansion_cap {
            let Some(mut node) = queue.pop_front() else {
                break;
            };
            if interrupt.check(stats.nodes) {
                return Err(());
            }
            stats.nodes += 1;
            match self.reduce_node(&mut node, *bound, &mut stats.prunes, &mut used) {
                BReduced::Solved(cost, cols) => {
                    *bound = (*bound).min(cost);
                    solved.push((cost, cols, node.seq));
                }
                BReduced::Conflict | BReduced::Pruned => {}
                BReduced::Open(col, prefer_select) => {
                    for select in branch_order(prefer_select) {
                        let mut sub = node.clone();
                        sub.fix(col, select);
                        sub.seq = next_seq;
                        queue.push_back(sub);
                        next_seq += 1;
                    }
                }
            }
        }
        Ok(queue.into())
    }

    #[allow(clippy::too_many_arguments)]
    fn sweep_tasks(
        &self,
        tasks: &[BNode],
        shared_bound: Option<&AtomicU64>,
        fixed_bound: u64,
        budget: u64,
        threads: usize,
        interrupt: &Interrupt,
    ) -> Vec<BTaskResult> {
        let results: Vec<Mutex<BTaskResult>> = tasks
            .iter()
            .map(|_| Mutex::new(BTaskResult::default()))
            .collect();
        let next = AtomicUsize::new(0);
        let worker = || {
            // One context per worker, so the interrupt tick count runs
            // across the worker's whole task sequence.
            let mut ctx = BTaskCtx {
                shared_bound,
                fixed_bound,
                result: BTaskResult::default(),
                budget,
                interrupt,
                ticks: 0,
                used: Vec::new(),
            };
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(task) = tasks.get(i) else { break };
                self.dfs(task.clone(), &mut ctx);
                *results[i]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) =
                    std::mem::take(&mut ctx.result);
            }
        };
        let workers = threads.min(tasks.len().max(1));
        if workers <= 1 {
            worker();
        } else {
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(worker);
                }
            });
        }
        results
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
            })
            .collect()
    }

    fn dfs(&self, mut node: BNode, ctx: &mut BTaskCtx<'_>) {
        ctx.result.nodes += 1;
        if ctx.result.nodes > ctx.budget {
            ctx.result.exhausted = true;
            return;
        }
        if ctx.interrupt.check(ctx.ticks) {
            ctx.result.interrupted = true;
            return;
        }
        ctx.ticks += 1;
        // Strict pruning against the shared bound is schedule-safe; the
        // task's own best additionally prunes at `>=` — it evolves inside
        // this task only, so the first minimal-cost solution in the task's
        // DFS order is still always reached, for any schedule. In budget
        // mode the shared bound is absent and the fixed phase-1 bound is
        // used instead, making the node count schedule-independent.
        let shared = match ctx.shared_bound {
            Some(b) => b.load(Ordering::Relaxed),
            None => ctx.fixed_bound,
        };
        let local = ctx.result.best.as_ref().map_or(u64::MAX, |(c, _)| *c);
        let bound = shared.min(local.saturating_sub(1));
        match self.reduce_node(&mut node, bound, &mut ctx.result.prunes, &mut ctx.used) {
            BReduced::Solved(cost, cols) => ctx.record(cost, cols),
            BReduced::Conflict | BReduced::Pruned => {}
            BReduced::Open(col, prefer_select) => {
                for select in branch_order(prefer_select) {
                    let mut sub = node.clone();
                    sub.fix(col, select);
                    self.dfs(sub, ctx);
                    if ctx.result.exhausted || ctx.result.interrupted {
                        return;
                    }
                }
            }
        }
    }

    /// Unit propagation to fixpoint, conflict detection, and the strict
    /// bound tests. An `Open` outcome names the branching literal: the
    /// first open literal (negative preferred) of the first open clause.
    /// `used` is the caller's scratch for [`lower_bound`](Self::lower_bound).
    fn reduce_node(
        &self,
        node: &mut BNode,
        bound: u64,
        prunes: &mut u64,
        used: &mut Vec<u64>,
    ) -> BReduced {
        loop {
            let mut changed = false;
            for clause in &self.clauses {
                match clause_state(clause, node) {
                    ClauseState::Conflict => return BReduced::Conflict,
                    ClauseState::Unit(c, select) => {
                        node.fix(c, select);
                        changed = true;
                    }
                    _ => {}
                }
            }
            if !changed {
                break;
            }
        }
        let mut cost = 0u64;
        node.selected
            .for_each_set(|c| cost += self.weights[c] as u64);
        // Strict pruning: subtrees matching the bound survive, which keeps
        // per-task results schedule-independent (see the crate docs).
        if cost.saturating_add(self.lower_bound(node, used)) > bound {
            *prunes += 1;
            return BReduced::Pruned;
        }
        let open_clause = self
            .clauses
            .iter()
            .find(|cl| matches!(clause_state(cl, node), ClauseState::Open));
        let Some(clause) = open_clause else {
            // Feasible: reject all remaining open columns (they only cost).
            return BReduced::Solved(cost, node.selected.iter().collect());
        };
        // Branch on an open literal of the chosen clause: prefer a negative
        // literal (rejection is free). A clause classified Open always has
        // one; if not (impossible), Conflict is the sound answer.
        let open = |lits: &BitSet| {
            open_words(lits, node)
                .enumerate()
                .find(|&(_, w)| w != 0)
                .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
        };
        open(&clause.neg)
            .map(|c| (c, false))
            .or_else(|| open(&clause.pos).map(|c| (c, true)))
            .map_or(BReduced::Conflict, |(col, prefer_select)| {
                BReduced::Open(col, prefer_select)
            })
    }

    /// Lower bound: greedy disjoint set of unsatisfied clauses whose open
    /// literals are all positive — each needs a distinct selection.
    /// `used` (the open columns claimed so far) is caller scratch, so the
    /// bound allocates nothing once it has grown to the column words.
    fn lower_bound(&self, node: &BNode, used: &mut Vec<u64>) -> u64 {
        let (sel, rej) = (node.selected.as_words(), node.rejected.as_words());
        used.clear();
        used.resize(sel.len(), 0);
        let mut bound = 0u64;
        'clauses: for clause in &self.clauses {
            let (pos, neg) = (clause.pos.as_words(), clause.neg.as_words());
            // Only an unsatisfied clause with no open negative literal
            // forces a selection, and it joins the bound only when its
            // open positive literals avoid every claimed column.
            let mut any_open = false;
            for w in 0..pos.len() {
                let open = !(sel[w] | rej[w]);
                let open_pos = pos[w] & open;
                if pos[w] & sel[w] != 0 || neg[w] & (rej[w] | open) != 0 || open_pos & used[w] != 0
                {
                    continue 'clauses;
                }
                any_open |= open_pos != 0;
            }
            if !any_open {
                continue;
            }
            let mut min_w = u64::MAX;
            for (w, open_pos) in open_words(&clause.pos, node).enumerate() {
                used[w] |= open_pos;
                let mut bits = open_pos;
                while bits != 0 {
                    let c = w * 64 + bits.trailing_zeros() as usize;
                    min_w = min_w.min(self.weights[c] as u64);
                    bits &= bits - 1;
                }
            }
            bound += min_w;
        }
        bound
    }
}

/// The two values of a branching column, `true` = select, in search order.
fn branch_order(prefer_select: bool) -> [bool; 2] {
    [prefer_select, !prefer_select]
}

/// A subproblem: a partial assignment plus its creation order. A column
/// is in at most one of the two sets; in neither, it is still open.
#[derive(Debug, Clone)]
struct BNode {
    selected: BitSet,
    rejected: BitSet,
    seq: u64,
}

impl BNode {
    /// Fixes an open column to selected (`true`) or rejected.
    fn fix(&mut self, col: usize, select: bool) {
        if select {
            self.selected.insert(col);
        } else {
            self.rejected.insert(col);
        }
    }
}

/// The words of `lits` restricted to the node's open columns.
fn open_words<'a>(lits: &'a BitSet, node: &'a BNode) -> impl Iterator<Item = u64> + 'a {
    let (sel, rej) = (node.selected.as_words(), node.rejected.as_words());
    lits.as_words()
        .iter()
        .zip(sel.iter().zip(rej))
        .map(|(l, (s, r))| l & !(s | r))
}

enum BReduced {
    Solved(u64, Vec<usize>),
    Conflict,
    Pruned,
    /// Branch on (column, prefer-select).
    Open(usize, bool),
}

#[derive(Debug, Default)]
struct BTaskResult {
    best: Option<(u64, Vec<usize>)>,
    nodes: u64,
    prunes: u64,
    exhausted: bool,
    interrupted: bool,
}

struct BTaskCtx<'a> {
    /// `None` in strict budget mode (prune against `fixed_bound` only).
    shared_bound: Option<&'a AtomicU64>,
    fixed_bound: u64,
    result: BTaskResult,
    budget: u64,
    interrupt: &'a Interrupt,
    /// Nodes this worker has visited over all its tasks (interrupt stride).
    ticks: u64,
    /// Lower-bound scratch (see [`BinateProblem::lower_bound`]).
    used: Vec<u64>,
}

impl BTaskCtx<'_> {
    fn record(&mut self, cost: u64, cols: Vec<usize>) {
        let local = self.result.best.as_ref().map_or(u64::MAX, |(c, _)| *c);
        if cost < local {
            self.result.best = Some((cost, cols));
            if let Some(bound) = self.shared_bound {
                bound.fetch_min(cost, Ordering::Relaxed);
            }
        }
    }
}

enum ClauseState {
    Satisfied,
    Conflict,
    /// One open literal left: (column, must-select?)
    Unit(usize, bool),
    Open,
}

/// Classifies a clause under the node's partial assignment with word
/// operations: satisfied by a selected positive or a rejected negative
/// literal, else by how many literals are still open.
fn clause_state(clause: &Clause, node: &BNode) -> ClauseState {
    let (pos, neg) = (clause.pos.as_words(), clause.neg.as_words());
    let (sel, rej) = (node.selected.as_words(), node.rejected.as_words());
    let mut open_count = 0;
    // The last open literal seen: (word, bits, is-positive).
    let mut last = (0, 0u64, false);
    for w in 0..pos.len() {
        if pos[w] & sel[w] != 0 || neg[w] & rej[w] != 0 {
            return ClauseState::Satisfied;
        }
        let open = !(sel[w] | rej[w]);
        let (open_pos, open_neg) = (pos[w] & open, neg[w] & open);
        open_count += open_pos.count_ones() + open_neg.count_ones();
        if open_neg != 0 {
            last = (w, open_neg, false);
        } else if open_pos != 0 {
            last = (w, open_pos, true);
        }
    }
    match open_count {
        0 => ClauseState::Conflict,
        1 => {
            let (w, bits, select) = last;
            ClauseState::Unit(w * 64 + bits.trailing_zeros() as usize, select)
        }
        _ => ClauseState::Open,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_positive_reduces_to_unate() {
        let mut p = BinateProblem::new(3);
        p.add_clause([0, 1], []);
        p.add_clause([1, 2], []);
        let sol = p.solve_exact().unwrap();
        assert_eq!(sol.cost, 1);
        assert_eq!(sol.columns, vec![1]);
    }

    #[test]
    fn negative_literal_blocks_column() {
        let mut p = BinateProblem::new(3);
        p.add_clause([0, 1], []);
        p.add_clause([], [0]);
        let sol = p.solve_exact().unwrap();
        assert_eq!(sol.columns, vec![1]);
    }

    #[test]
    fn infeasible_contradiction() {
        let mut p = BinateProblem::new(1);
        p.add_clause([0], []);
        p.add_clause([], [0]);
        assert_eq!(p.solve_exact(), Err(SolveError::Infeasible));
    }

    #[test]
    fn implication_chains_propagate() {
        // 0 must be selected; selecting 0 forbids 1; clause (1 or 2) then
        // forces 2.
        let mut p = BinateProblem::new(3);
        p.add_clause([0], []);
        p.add_clause([1], [0]); // 0 selected -> 1 selected? no: clause = 1 ∨ ¬0
        p.add_clause([2], [1]);
        let sol = p.solve_exact().unwrap();
        // Optimal: select 0, then clause2 = 1 ∨ ¬0 forces 1, clause3 = 2 ∨ ¬1
        // forces 2 — cost 3. No cheaper assignment exists because clause 1
        // pins column 0.
        assert_eq!(sol.cost, 3);
    }

    #[test]
    fn weights_steer_choice() {
        let mut p = BinateProblem::with_weights(vec![5, 1, 1]);
        p.add_clause([0, 1], []);
        p.add_clause([0, 2], []);
        let sol = p.solve_exact().unwrap();
        assert_eq!(sol.cost, 2);
        let mut cols = sol.columns;
        cols.sort();
        assert_eq!(cols, vec![1, 2]);
    }

    #[test]
    fn at_most_one_constraint() {
        // Cover two rows but columns 1 and 2 are mutually exclusive.
        let mut p = BinateProblem::new(4);
        p.add_clause([1, 2], []);
        p.add_clause([1, 3], []);
        p.add_clause([], [1, 2]); // not both 1 and 2
        let sol = p.solve_exact().unwrap();
        assert!(sol.cost <= 2);
        // Check the solution satisfies all clauses.
        let sel: Vec<bool> = (0..4).map(|c| sol.columns.contains(&c)).collect();
        assert!(sel[1] || sel[2]);
        assert!(sel[1] || sel[3]);
        assert!(!(sel[1] && sel[2]));
    }

    /// Brute force for cross-checking.
    fn brute_force(p: &BinateProblem) -> Option<u64> {
        let n = p.num_cols;
        assert!(n <= 16);
        let mut best: Option<u64> = None;
        'outer: for mask in 0u32..(1 << n) {
            for cl in &p.clauses {
                let ok = cl.pos.iter().any(|c| mask & (1 << c) != 0)
                    || cl.neg.iter().any(|c| mask & (1 << c) == 0);
                if !ok {
                    continue 'outer;
                }
            }
            let cost: u64 = (0..n)
                .filter(|&c| mask & (1 << c) != 0)
                .map(|c| p.weights[c] as u64)
                .sum();
            best = Some(best.map_or(cost, |b: u64| b.min(cost)));
        }
        best
    }

    #[test]
    fn matches_brute_force_on_fixed_cases() {
        let mut p = BinateProblem::new(5);
        p.add_clause([0, 1], [2]);
        p.add_clause([2, 3], []);
        p.add_clause([4], [0, 3]);
        p.add_clause([1], [4]);
        let sol = p.solve_exact().unwrap();
        assert!(sol.optimal);
        assert_eq!(Some(sol.cost), brute_force(&p));
    }

    #[test]
    fn empty_problem_selects_nothing() {
        let p = BinateProblem::new(4);
        let sol = p.solve_exact().unwrap();
        assert_eq!(sol.cost, 0);
        assert!(sol.columns.is_empty());
    }

    #[test]
    fn thread_counts_agree_bitwise() {
        let mut p = BinateProblem::new(10);
        for i in 0..10usize {
            p.add_clause([i, (i + 3) % 10], [(i + 5) % 10]);
        }
        p.add_clause([], [0, 5]);
        let mut baseline = None;
        for par in [
            Parallelism::Off,
            Parallelism::Fixed(1),
            Parallelism::Fixed(2),
            Parallelism::Fixed(4),
            Parallelism::Auto,
        ] {
            let mut q = p.clone();
            q.set_parallelism(par);
            let sol = q.solve_exact().unwrap();
            match &baseline {
                None => baseline = Some(sol),
                Some(b) => assert_eq!(&sol, b, "{par:?} diverged"),
            }
        }
    }

    #[test]
    fn stats_report_search_effort() {
        let mut p = BinateProblem::new(6);
        p.add_clause([0, 1], []);
        p.add_clause([2, 3], [1]);
        p.add_clause([4, 5], [3]);
        let (sol, stats) = p.solve_exact_with_stats().unwrap();
        assert!(sol.optimal);
        assert!(stats.nodes > 0);
        assert!(stats.threads >= 1);
    }

    #[test]
    fn work_budget_exhaustion_is_an_error_and_deterministic() {
        let mut p = BinateProblem::new(12);
        for i in 0..12usize {
            p.add_clause([i, (i + 3) % 12], [(i + 5) % 12]);
        }
        p.set_work_budget(Some(6));
        let mut baseline = None;
        for par in [
            Parallelism::Off,
            Parallelism::Fixed(2),
            Parallelism::Fixed(4),
            Parallelism::Auto,
        ] {
            let mut q = p.clone();
            q.set_parallelism(par);
            let err = q.solve_exact_with_stats().unwrap_err();
            let SolveError::Budget { stats } = err else {
                panic!("expected Budget error, got {err:?}");
            };
            let counters = (stats.nodes, stats.prunes, stats.tasks);
            match &baseline {
                None => baseline = Some(counters),
                Some(b) => assert_eq!(&counters, b, "{par:?} diverged"),
            }
        }
    }

    #[test]
    fn ample_work_budget_matches_unrestricted_solution() {
        let mut p = BinateProblem::new(10);
        for i in 0..10usize {
            p.add_clause([i, (i + 3) % 10], [(i + 5) % 10]);
        }
        let unrestricted = p.solve_exact().unwrap();
        let mut q = p.clone();
        q.set_work_budget(Some(1_000_000));
        assert_eq!(q.solve_exact().unwrap(), unrestricted);
    }
}
