//! Exact and greedy unate covering.

use crate::{CancelToken, CoverStats, Interrupt, Parallelism, Solution, SolveError};
use ioenc_bitset::BitSet;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A unate (set-) covering problem: choose a minimum-weight set of columns
/// such that every row contains at least one chosen column.
///
/// Rows are sets of column indices. Weights default to 1.
///
/// # Examples
///
/// ```
/// use ioenc_cover::UnateProblem;
///
/// let mut p = UnateProblem::with_weights(vec![1, 10, 1]);
/// p.add_row([0, 1]);
/// p.add_row([1, 2]);
/// // Column 1 alone covers both rows, but columns {0, 2} are cheaper.
/// let sol = p.solve_exact().unwrap();
/// assert_eq!(sol.cost, 2);
/// ```
#[derive(Debug, Clone)]
pub struct UnateProblem {
    num_cols: usize,
    weights: Vec<u32>,
    rows: Vec<BitSet>,
    node_limit: u64,
    work_budget: Option<u64>,
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    parallelism: Parallelism,
    warm_start: Option<Vec<usize>>,
    certified_lb: Option<u64>,
    scratch_reuse: bool,
}

/// Default branch-and-bound node budget; generous for the problem sizes the
/// encoder produces.
const DEFAULT_NODE_LIMIT: u64 = 5_000_000;

/// Skip the quadratic column-dominance reduction above this column count.
const COL_DOMINANCE_LIMIT: usize = 6_000;

/// Subproblems the deterministic root expansion aims for. Fixed (not a
/// function of the thread count) so every [`Parallelism`] setting merges
/// the same task pool.
const TASK_TARGET: usize = 32;

/// Nodes the root expansion may pop before giving up on reaching
/// [`TASK_TARGET`].
const EXPANSION_BUDGET: u64 = 256;

/// Merge-order sentinel for the greedy fallback solution: compares after
/// every real branch path (whose ranks are always `< u32::MAX`), so a
/// search-found solution of equal cost always wins.
const GREEDY_SENTINEL: &[u32] = &[u32::MAX, 0];

/// Merge-order sentinel for a repaired warm-start incumbent: after the
/// greedy sentinel, so seeding can tighten the bound without ever changing
/// which solution is returned when costs tie.
const INCUMBENT_SENTINEL: &[u32] = &[u32::MAX, 1];

impl UnateProblem {
    /// A problem with `num_cols` unit-weight columns and no rows.
    pub fn new(num_cols: usize) -> Self {
        Self::with_weights(vec![1; num_cols])
    }

    /// A problem with explicit column weights.
    pub fn with_weights(weights: Vec<u32>) -> Self {
        UnateProblem {
            num_cols: weights.len(),
            weights,
            rows: Vec::new(),
            node_limit: DEFAULT_NODE_LIMIT,
            work_budget: None,
            cancel: None,
            deadline: None,
            parallelism: Parallelism::default(),
            warm_start: None,
            certified_lb: None,
            scratch_reuse: true,
        }
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Adds a row given the columns that cover it.
    ///
    /// # Panics
    ///
    /// Panics if a column index is out of range.
    pub fn add_row<I: IntoIterator<Item = usize>>(&mut self, cols: I) {
        self.rows.push(BitSet::from_indices(self.num_cols, cols));
    }

    /// Adds a row from a pre-built column set.
    ///
    /// # Panics
    ///
    /// Panics if the set's capacity differs from the column count.
    pub fn add_row_set(&mut self, cols: BitSet) {
        assert_eq!(
            cols.capacity(),
            self.num_cols,
            "row {} width mismatch: set capacity {} vs {} problem columns",
            self.rows.len(),
            cols.capacity(),
            self.num_cols,
        );
        self.rows.push(cols);
    }

    /// Overrides the branch-and-bound node budget.
    pub fn set_node_limit(&mut self, limit: u64) {
        self.node_limit = limit;
    }

    /// Enables *strict budget mode* with the given node cap (`None`
    /// disables it again).
    ///
    /// Strict mode differs from [`set_node_limit`](Self::set_node_limit)
    /// in two ways. First, exhausting the cap is an error
    /// ([`SolveError::Budget`]) even when a feasible cover was found, so a
    /// degradation ladder can fall back to a cheaper method instead of
    /// silently accepting a non-optimal cover. Second, workers prune
    /// against the *fixed* bound computed by the deterministic root
    /// expansion (plus their task-local best) rather than the shared
    /// atomic bound, making the explored node set — and therefore budget
    /// exhaustion itself — bit-identical across all [`Parallelism`]
    /// settings. When the search completes within the budget it returns
    /// the same optimal solution as the unrestricted search.
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

    /// Seeds the exact search with a warm-start incumbent: a set of
    /// columns believed to (nearly) cover every row, typically a previous
    /// solution of a closely related instance. Columns covering no row are
    /// dropped, duplicates are ignored, and any uncovered rows are
    /// repaired with their cheapest column, deterministically; the result
    /// seeds the initial upper bound alongside the greedy cover.
    ///
    /// Because the search returns the minimum-cost solution with the
    /// lexicographically least branch path — an intrinsic property of the
    /// problem, not of the search schedule — a warm start can only shrink
    /// the explored tree, never change the returned solution, provided the
    /// search completes without exhausting its node budget. (The incumbent
    /// itself is returned only when the search finds nothing at least as
    /// good, which a completed search always does.)
    ///
    /// # Panics
    ///
    /// Panics if a column index is out of range.
    pub fn set_warm_start(&mut self, columns: Option<Vec<usize>>) {
        if let Some(cols) = &columns {
            for &c in cols {
                assert!(
                    c < self.num_cols,
                    "warm-start column {c} out of range {}",
                    self.num_cols
                );
            }
        }
        self.warm_start = columns;
    }

    /// Installs a certified lower bound on the optimal cost, e.g. derived
    /// from a previous search's optimality certificate on a provably
    /// harder instance. The bound is *only* used to mark a budget-stopped
    /// solution whose cost equals it as optimal; it never steers the
    /// search, so an (erroneously) low bound is harmless and a correct one
    /// cannot change the returned columns.
    pub fn set_certified_lower_bound(&mut self, lb: Option<u64>) {
        self.certified_lb = lb;
    }

    /// Disables (or re-enables) the search arena's buffer recycling.
    ///
    /// With reuse off every node allocates fresh buffers, reproducing the
    /// pre-arena allocation behavior while executing the identical search;
    /// the differential test suite uses this to pin arena runs to
    /// allocation-per-node runs byte for byte. On by default.
    #[doc(hidden)]
    pub fn set_scratch_reuse(&mut self, on: bool) {
        self.scratch_reuse = on;
    }

    /// Greedy cover: repeatedly choose the column covering the most
    /// still-uncovered rows per unit weight.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] if some row has no columns.
    pub fn solve_greedy(&self) -> Result<Solution, SolveError> {
        if self.rows.iter().any(|r| r.is_empty()) {
            return Err(SolveError::Infeasible);
        }
        let mut uncovered: Vec<usize> = (0..self.rows.len()).collect();
        let mut chosen = Vec::new();
        let mut cost = 0u64;
        // One counts buffer for the whole solve; rounds reset it in place.
        let mut counts = vec![0u32; self.num_cols];
        while !uncovered.is_empty() {
            counts.fill(0);
            for &r in &uncovered {
                self.rows[r].for_each_set(|c| counts[c] += 1);
            }
            let best = (0..self.num_cols)
                .filter(|&c| counts[c] > 0)
                .max_by(|&a, &b| {
                    // Compare counts[a]/w[a] vs counts[b]/w[b] without floats.
                    let lhs = counts[a] as u64 * self.weights[b] as u64;
                    let rhs = counts[b] as u64 * self.weights[a] as u64;
                    lhs.cmp(&rhs)
                })
                .unwrap_or(0); // unreachable: an uncovered row exists and every
                               // row was built non-empty, so some count > 0
            chosen.push(best);
            cost += self.weights[best] as u64;
            uncovered.retain(|&r| !self.rows[r].contains(best));
        }
        Ok(Solution {
            columns: chosen,
            cost,
            optimal: false,
        })
    }

    /// Exact minimum-weight cover by branch and bound.
    ///
    /// Reductions: essential columns, row dominance, column dominance (when
    /// the column count is modest), and a maximal-independent-set lower
    /// bound whose witness is carried to child nodes as a pre-reduction
    /// prune. Branching expands the columns of a shortest row. The search
    /// runs over a deterministic subproblem pool swept by the configured
    /// [`Parallelism`]; the returned solution is the minimum-cost cover
    /// with the lexicographically least branch path, which is identical
    /// for every thread count and every valid seeded bound.
    ///
    /// If the node budget runs out the best feasible solution found so far
    /// is returned with `optimal = false`.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] if some row has no columns.
    pub fn solve_exact(&self) -> Result<Solution, SolveError> {
        self.solve_exact_with_stats().map(|(sol, _)| sol)
    }

    /// Like [`solve_exact`](Self::solve_exact), also returning search
    /// counters.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] if some row has no columns;
    /// [`SolveError::Budget`] when a strict work budget
    /// ([`set_work_budget`](Self::set_work_budget)) expires;
    /// [`SolveError::Interrupted`] on cancellation or deadline expiry.
    pub fn solve_exact_with_stats(&self) -> Result<(Solution, CoverStats), SolveError> {
        if self.rows.iter().any(|r| r.is_empty()) {
            return Err(SolveError::Infeasible);
        }
        let strict = self.work_budget.is_some();
        let node_limit = self.work_budget.unwrap_or(self.node_limit);
        let interrupt = Interrupt {
            cancel: self.cancel.clone(),
            deadline: self.deadline,
        };
        // Root preprocessing: columns with identical row coverage are
        // interchangeable — keep one cheapest representative. (Prime sets
        // frequently contain many columns covering the same dichotomies.)
        let rows = self.merge_duplicate_columns();
        // Seed the upper bound with a greedy solution, tightened by the
        // repaired warm-start incumbent when one was supplied.
        let greedy = self.solve_greedy()?;
        let incumbent = self
            .warm_start
            .as_ref()
            .and_then(|cand| self.repair_incumbent(cand, &rows));

        let mut stats = CoverStats {
            threads: self.parallelism.threads(),
            ..CoverStats::default()
        };

        // Phase 1: deterministic breadth-first decomposition of the root.
        let root = Node {
            rows,
            chosen: Vec::new(),
            path: Vec::new(),
            cost: 0,
            depth: 0,
            seed_lb: 0,
        };
        let mut bound = greedy.cost;
        if let Some((icost, _)) = &incumbent {
            bound = bound.min(*icost);
        }
        let mut solved: Vec<(u64, Vec<usize>, Vec<u32>)> = Vec::new();
        let mut root_arena = SearchArena::new(self.num_cols, self.scratch_reuse);
        let tasks = match self.expand_tasks(
            root,
            &mut bound,
            &mut solved,
            &mut stats,
            node_limit,
            &interrupt,
            &mut root_arena,
        ) {
            Ok(tasks) => tasks,
            Err(()) => return Err(SolveError::Interrupted { stats }),
        };
        stats.tasks = tasks.len();

        // Phase 2: sweep the pool. Outside budget mode the workers share
        // one atomic upper bound; in strict budget mode each worker prunes
        // against the fixed phase-1 bound so the explored node set does not
        // depend on scheduling.
        let shared_bound = AtomicU64::new(bound);
        let budget = per_task_budget(node_limit, stats.nodes, tasks.len());
        let results = self.sweep_tasks(
            &tasks,
            (!strict).then_some(&shared_bound),
            bound,
            budget,
            stats.threads,
            &interrupt,
        );

        // Deterministic merge: min (cost, branch path); both fallback seeds
        // carry sentinel paths ordering after every search-found solution.
        let mut best: (u64, &[u32], &[usize]) = (greedy.cost, GREEDY_SENTINEL, &greedy.columns);
        if let Some((icost, icols)) = &incumbent {
            if (*icost, INCUMBENT_SENTINEL) < (best.0, best.1) {
                best = (*icost, INCUMBENT_SENTINEL, icols);
            }
        }
        for (cost, cols, path) in &solved {
            if (*cost, path.as_slice()) < (best.0, best.1) {
                best = (*cost, path, cols);
            }
        }
        let mut exhausted = false;
        let mut interrupted = false;
        for result in &results {
            stats.nodes += result.nodes;
            stats.prunes += result.prunes;
            exhausted |= result.exhausted;
            interrupted |= result.interrupted;
            if let Some((cost, path, cols)) = &result.best {
                if (*cost, path.as_slice()) < (best.0, best.1) {
                    best = (*cost, path, cols);
                }
            }
        }
        if interrupted {
            return Err(SolveError::Interrupted { stats });
        }
        if strict && exhausted {
            return Err(SolveError::Budget { stats });
        }
        // A budget-stopped search is still provably optimal when its best
        // cost meets a caller-certified lower bound.
        let optimal = !exhausted || self.certified_lb == Some(best.0);
        let solution = Solution {
            columns: best.2.to_vec(),
            cost: best.0,
            optimal,
        };
        Ok((solution, stats))
    }

    /// Turns warm-start candidate columns into a feasible cover of `rows`:
    /// drops useless and duplicate candidates, then covers every remaining
    /// uncovered row with its cheapest column (ties to the lowest index).
    fn repair_incumbent(&self, cand: &[usize], rows: &[BitSet]) -> Option<(u64, Vec<usize>)> {
        let mut sel: Vec<usize> = Vec::new();
        for &c in cand {
            if !sel.contains(&c) && rows.iter().any(|r| r.contains(c)) {
                sel.push(c);
            }
        }
        for r in rows {
            if sel.iter().any(|&c| r.contains(c)) {
                continue;
            }
            let mut cheapest: Option<usize> = None;
            r.for_each_set(|c| match cheapest {
                None => cheapest = Some(c),
                Some(b) if self.weights[c] < self.weights[b] => cheapest = Some(c),
                _ => {}
            });
            sel.push(cheapest?); // None: empty row, the instance is infeasible
        }
        let cost = sel.iter().map(|&c| self.weights[c] as u64).sum();
        Some((cost, sel))
    }

    /// Pops nodes breadth-first, reducing each and queueing its children,
    /// until the queue reaches [`TASK_TARGET`] or the expansion budget is
    /// spent. Fully sequential and deterministic. Subproblems solved
    /// outright are appended to `solved` and tighten `bound`. `Err(())`
    /// reports an interruption.
    #[allow(clippy::too_many_arguments)]
    fn expand_tasks(
        &self,
        root: Node,
        bound: &mut u64,
        solved: &mut Vec<(u64, Vec<usize>, Vec<u32>)>,
        stats: &mut CoverStats,
        node_limit: u64,
        interrupt: &Interrupt,
        arena: &mut SearchArena,
    ) -> Result<Vec<Node>, ()> {
        let mut queue: VecDeque<Node> = VecDeque::from([root]);
        let expansion_cap = EXPANSION_BUDGET.min(node_limit);
        while queue.len() < TASK_TARGET && stats.nodes < expansion_cap {
            let Some(mut node) = queue.pop_front() else {
                break;
            };
            if interrupt.check(stats.nodes) {
                return Err(());
            }
            stats.nodes += 1;
            match self.reduce_node(&mut node, *bound, &mut stats.prunes, arena) {
                Reduced::Solved => {
                    *bound = (*bound).min(node.cost);
                    solved.push((node.cost, node.chosen, node.path));
                }
                Reduced::Infeasible | Reduced::Pruned => {}
                Reduced::Open => {
                    for child in self.children_of(&node, arena) {
                        queue.push_back(child);
                    }
                }
            }
        }
        Ok(queue.into())
    }

    /// Runs every task through a sequential depth-first search, claiming
    /// tasks from a shared counter. With one thread the sweep runs inline.
    /// `shared_bound: None` selects strict budget mode: workers prune
    /// against `fixed_bound` plus their task-local best only.
    #[allow(clippy::too_many_arguments)]
    fn sweep_tasks(
        &self,
        tasks: &[Node],
        shared_bound: Option<&AtomicU64>,
        fixed_bound: u64,
        budget: u64,
        threads: usize,
        interrupt: &Interrupt,
    ) -> Vec<TaskResult> {
        let results: Vec<Mutex<TaskResult>> = tasks
            .iter()
            .map(|_| Mutex::new(TaskResult::default()))
            .collect();
        let next = AtomicUsize::new(0);
        let worker = || {
            // One arena and one context per worker: scratch buffers,
            // recycled node buffers and the interrupt tick count live for
            // the worker's whole task sequence.
            let mut arena = SearchArena::new(self.num_cols, self.scratch_reuse);
            let mut ctx = TaskCtx {
                shared_bound,
                fixed_bound,
                result: TaskResult::default(),
                budget,
                interrupt,
                ticks: 0,
            };
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(task) = tasks.get(i) else { break };
                self.dfs(task.clone(), &mut ctx, &mut arena);
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

    /// Per-task sequential branch and bound against the shared (or fixed)
    /// bound.
    fn dfs(&self, mut node: Node, ctx: &mut TaskCtx<'_>, arena: &mut SearchArena) {
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
        // this task only, so the minimal-cost, least-path solution in the
        // task's subtree is still always reached, for any schedule. In
        // budget mode the shared bound is absent and the fixed phase-1
        // bound is used instead, making the node count schedule-independent.
        let shared = match ctx.shared_bound {
            Some(b) => b.load(Ordering::Relaxed),
            None => ctx.fixed_bound,
        };
        let local = ctx.result.best.as_ref().map_or(u64::MAX, |(c, _, _)| *c);
        let bound = shared.min(local.saturating_sub(1));
        match self.reduce_node(&mut node, bound, &mut ctx.result.prunes, arena) {
            Reduced::Solved => {
                ctx.record(node.cost, &node.chosen, &node.path);
                arena.recycle_node(node);
            }
            Reduced::Infeasible | Reduced::Pruned => arena.recycle_node(node),
            Reduced::Open => {
                let mut children = self.children_of(&node, arena);
                arena.recycle_node(node);
                for child in children.drain(..) {
                    self.dfs(child, ctx, arena);
                    if ctx.result.exhausted || ctx.result.interrupted {
                        break;
                    }
                }
                arena.recycle_children(children);
            }
        }
    }

    /// Applies the reduction loop (essentials, row dominance, column
    /// dominance) and the bound tests to one node.
    ///
    /// Pruning is strict (`>` against `bound`) so subtrees holding
    /// solutions *equal* to the bound survive — the keystone of
    /// schedule-independent results under a shared, concurrently-improving
    /// bound. For the same reason a node that is *not* pruned reduces to
    /// the same rows and chosen columns under every valid bound: the bound
    /// is consulted only by the prune tests, never by the reductions.
    ///
    /// On [`Reduced::Open`] the arena's `witness` holds the
    /// maximal-independent-set rows backing the lower bound, for
    /// [`children_of`](Self::children_of) to seed child pre-prunes.
    fn reduce_node(
        &self,
        node: &mut Node,
        bound: u64,
        prunes: &mut u64,
        arena: &mut SearchArena,
    ) -> Reduced {
        // Inherited-witness pre-prune: the parent's independent rows that
        // survive into this node already bound the remaining cost from
        // below, at zero cost before any reduction work.
        if node.cost.saturating_add(node.seed_lb) > bound {
            *prunes += 1;
            return Reduced::Pruned;
        }
        loop {
            if node.cost > bound {
                *prunes += 1;
                return Reduced::Pruned;
            }
            if node.rows.is_empty() {
                return Reduced::Solved;
            }
            if node.rows.iter().any(|r| r.is_empty()) {
                // Infeasible branch (can happen after column removal).
                return Reduced::Infeasible;
            }
            // Essential columns: rows with a single column.
            if let Some(r) = node.rows.iter().position(|r| r.count() == 1) {
                let Some(c) = node.rows[r].first() else {
                    continue; // unreachable: position() found count() == 1
                };
                node.cost += self.weights[c] as u64;
                node.chosen.push(c);
                node.rows.retain(|row| !row.contains(c));
                continue;
            }
            // Row dominance: a row that is a superset of another is
            // implied by it.
            let before = node.rows.len();
            node.rows.sort_by_key(|r| r.count());
            node.rows.dedup();
            let keep = &mut arena.keep;
            keep.clear();
            keep.resize(node.rows.len(), true);
            for i in 0..node.rows.len() {
                if !keep[i] {
                    continue;
                }
                for (j, k) in keep.iter_mut().enumerate().skip(i + 1) {
                    if *k && node.rows[i].is_subset(&node.rows[j]) {
                        *k = false;
                    }
                }
            }
            let mut i = 0;
            node.rows.retain(|_| {
                let k = keep[i];
                i += 1;
                k
            });
            if node.rows.len() != before {
                continue;
            }
            // Column dominance (skipped for very wide problems): remove a
            // column whose row set is a subset of a cheaper-or-equal
            // column's row set. Field-wise destructuring hands out disjoint
            // borrows of the arena's scratch buffers.
            let SearchArena {
                active,
                col_rows,
                col_slot,
                dominated,
                removed,
                ..
            } = &mut *arena;
            active.clear();
            for r in &node.rows {
                active.union_with(r);
            }
            let limit = if node.depth == 0 {
                COL_DOMINANCE_LIMIT
            } else {
                COL_DOMINANCE_LIMIT / 8
            };
            let active_count = active.count();
            if active_count <= limit {
                // One entry per active column, in column order, in arena
                // scratch; the nested BitSets are reset to this node's row
                // count. `col_slot` maps a column to its entry, so each row
                // fills its own columns' row sets from its set bits.
                col_rows.truncate(active_count);
                for e in col_rows.iter_mut() {
                    e.rows.reset(node.rows.len());
                    e.count = 0;
                }
                while col_rows.len() < active_count {
                    col_rows.push(ColRows {
                        col: 0,
                        rows: BitSet::new(node.rows.len()),
                        count: 0,
                    });
                }
                let mut k = 0;
                active.for_each_set(|c| {
                    col_rows[k].col = c;
                    col_slot[c] = k as u32;
                    k += 1;
                });
                for (i, r) in node.rows.iter().enumerate() {
                    r.for_each_set(|c| {
                        let e = &mut col_rows[col_slot[c] as usize];
                        e.rows.insert(i);
                        e.count += 1;
                    });
                }
                // Sort by descending row count so dominators come first.
                // The sort is stable: among equal counts, column order.
                col_rows.sort_by_key(|e| std::cmp::Reverse(e.count));
                dominated.clear();
                dominated.resize(active_count, false);
                let mut any = false;
                for i in 0..col_rows.len() {
                    if dominated[i] {
                        continue;
                    }
                    let (wi, si) = (self.weights[col_rows[i].col], &col_rows[i].rows);
                    for j in i + 1..col_rows.len() {
                        let ej = &col_rows[j];
                        if !dominated[j] && ej.rows.is_subset(si) && wi <= self.weights[ej.col] {
                            dominated[j] = true;
                            any = true;
                        }
                    }
                }
                if any {
                    removed.clear();
                    for (e, _) in col_rows.iter().zip(dominated.iter()).filter(|(_, &d)| d) {
                        removed.insert(e.col);
                    }
                    for row in &mut node.rows {
                        row.difference_with(removed);
                    }
                    continue;
                }
            }
            break;
        }
        // Lower bound (also strict); leaves the witness in the arena.
        if node.cost + self.mis_lower_bound(&node.rows, arena) > bound {
            *prunes += 1;
            return Reduced::Pruned;
        }
        Reduced::Open
    }

    /// Child subproblems branching on the columns of a shortest row, with
    /// already-tried columns excluded from later siblings. Child buffers
    /// come from the arena's pools; each child inherits a pre-reduction
    /// lower bound from the parent's surviving MIS witness rows.
    ///
    /// Must be called immediately after [`reduce_node`](Self::reduce_node)
    /// returned [`Reduced::Open`] for the same node, while the arena still
    /// holds that node's witness.
    fn children_of(&self, node: &Node, arena: &mut SearchArena) -> Vec<Node> {
        let pivot = node
            .rows
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.count())
            .map(|(i, _)| i)
            .unwrap_or(0); // children_of is only called on Open nodes,
                           // whose row list is non-empty
                           // Candidate columns with their coverage counts; most-covering
                           // first (ties to the lower column) for a quick strong bound.
        let branch = &mut arena.branch;
        branch.clear();
        node.rows[pivot].for_each_set(|c| branch.push((0u32, c as u32)));
        for r in &node.rows {
            for (count, c) in branch.iter_mut() {
                if r.contains(*c as usize) {
                    *count += 1;
                }
            }
        }
        branch.sort_by_key(|&(count, c)| (std::cmp::Reverse(count), c));

        let mut children = arena.alloc_children();
        children.reserve(arena.branch.len());
        let mut excluded = std::mem::take(&mut arena.excluded);
        debug_assert!(excluded.is_empty());
        for rank in 0..arena.branch.len() {
            let c = arena.branch[rank].1 as usize;
            // The surviving independent-witness rows lower-bound the
            // child's remaining cost before any of its own reduction work.
            let seed_lb: u64 = arena
                .witness
                .iter()
                .filter(|&&(r, _)| !node.rows[r as usize].contains(c))
                .map(|&(_, w)| w)
                .sum();
            let mut rows = arena.rows_pool.pop().unwrap_or_default();
            let mut n = 0;
            for r in &node.rows {
                if r.contains(c) {
                    continue;
                }
                if n < rows.len() {
                    rows[n].clone_from(r);
                } else {
                    rows.push(r.clone());
                }
                // Columns already tried at this node are excluded from the
                // subtree (they would revisit the same covers).
                for &e in &excluded {
                    rows[n].remove(e);
                }
                n += 1;
            }
            rows.truncate(n);
            let mut chosen = arena.cols_pool.pop().unwrap_or_default();
            chosen.clear();
            chosen.extend_from_slice(&node.chosen);
            chosen.push(c);
            let mut path = arena.path_pool.pop().unwrap_or_default();
            path.clear();
            path.extend_from_slice(&node.path);
            path.push(rank as u32);
            children.push(Node {
                rows,
                chosen,
                path,
                cost: node.cost + self.weights[c] as u64,
                depth: node.depth + 1,
                seed_lb,
            });
            excluded.push(c);
        }
        excluded.clear();
        arena.excluded = excluded;
        children
    }

    /// Greedy maximal set of pairwise-disjoint rows; the sum of each such
    /// row's cheapest column is a valid lower bound. The chosen rows and
    /// their cheapest-column weights (the *witness*) are left in
    /// `arena.witness` for child seeding: a row that survives into a child
    /// only shrinks (branch filtering and column exclusion remove
    /// candidates), so its recorded minimum stays a valid per-row bound
    /// and pairwise disjointness is preserved.
    fn mis_lower_bound(&self, rows: &[BitSet], arena: &mut SearchArena) -> u64 {
        let SearchArena {
            order,
            used,
            witness,
            ..
        } = &mut *arena;
        order.clear();
        order.extend(0..rows.len());
        order.sort_by_key(|&r| rows[r].count());
        used.clear();
        witness.clear();
        let mut bound = 0u64;
        for &r in order.iter() {
            if rows[r].is_disjoint(used) {
                used.union_with(&rows[r]);
                let mut min_w = u64::MAX;
                rows[r].for_each_set(|c| min_w = min_w.min(self.weights[c] as u64));
                let min_w = if min_w == u64::MAX { 0 } else { min_w };
                witness.push((r as u32, min_w));
                bound += min_w;
            }
        }
        bound
    }

    /// Benchmark-only entry point: the MIS lower bound over this problem's
    /// rows (with a fresh arena). Not part of the public API contract.
    #[doc(hidden)]
    pub fn mis_bound_for_bench(&self) -> u64 {
        let mut arena = SearchArena::new(self.num_cols, true);
        self.mis_lower_bound(&self.rows, &mut arena)
    }

    /// Removes, from a copy of the rows, every column whose row coverage
    /// equals a cheaper-or-equal column's coverage.
    fn merge_duplicate_columns(&self) -> Vec<BitSet> {
        use std::collections::HashMap;
        let mut col_rows: Vec<BitSet> = vec![BitSet::new(self.rows.len()); self.num_cols];
        for (r, row) in self.rows.iter().enumerate() {
            for c in row.iter() {
                col_rows[c].insert(r);
            }
        }
        let mut representative: HashMap<&BitSet, usize> = HashMap::new();
        let mut drop: Vec<usize> = Vec::new();
        for (c, rows_of_c) in col_rows.iter().enumerate() {
            if rows_of_c.is_empty() {
                continue;
            }
            match representative.get(rows_of_c) {
                None => {
                    representative.insert(rows_of_c, c);
                }
                Some(&keep) => {
                    if self.weights[c] < self.weights[keep] {
                        drop.push(keep);
                        representative.insert(rows_of_c, c);
                    } else {
                        drop.push(c);
                    }
                }
            }
        }
        let mut rows = self.rows.clone();
        for row in &mut rows {
            for &c in &drop {
                row.remove(c);
            }
        }
        rows
    }
}

/// Splits the remaining node budget evenly over the task pool. The split
/// depends only on deterministic quantities, so budget exhaustion is
/// task-local.
fn per_task_budget(node_limit: u64, spent: u64, tasks: usize) -> u64 {
    (node_limit.saturating_sub(spent) / tasks.max(1) as u64).max(1)
}

/// A subproblem: remaining rows plus the partial cover that produced them.
#[derive(Debug, Clone)]
struct Node {
    rows: Vec<BitSet>,
    chosen: Vec<usize>,
    /// Branch ranks from the root — the schedule-independent merge
    /// tie-breaker. A node's path is determined by the problem alone
    /// (branch ordering never consults the bound), so the minimum
    /// `(cost, path)` solution is a property of the instance, not of the
    /// search schedule or of any valid seeded bound.
    path: Vec<u32>,
    cost: u64,
    depth: usize,
    /// Lower bound on the remaining cover cost inherited from the parent's
    /// MIS witness; valid before this node's own reductions run.
    seed_lb: u64,
}

/// Per-worker scratch: reusable buffers for the reduction loop plus pools
/// of recycled node buffers, so the steady-state search allocates nothing.
/// With `reuse` off the pools stay empty and every node allocates fresh —
/// the pre-arena behavior, kept as a differential-testing reference.
struct SearchArena {
    reuse: bool,
    rows_pool: Vec<Vec<BitSet>>,
    cols_pool: Vec<Vec<usize>>,
    path_pool: Vec<Vec<u32>>,
    children_pool: Vec<Vec<Node>>,
    /// Row-dominance keep flags.
    keep: Vec<bool>,
    /// Column-dominance entries, one per active column.
    col_rows: Vec<ColRows>,
    /// Column → index of its `col_rows` entry (capacity = problem columns).
    col_slot: Vec<u32>,
    /// Column-dominance flags, indexed like `col_rows`.
    dominated: Vec<bool>,
    /// Columns removed by column dominance (capacity = problem columns).
    removed: BitSet,
    /// Branch columns already tried at the current node.
    excluded: Vec<usize>,
    /// Branch candidates as (coverage count, column).
    branch: Vec<(u32, u32)>,
    /// Columns still present in some row (capacity = problem columns).
    active: BitSet,
    /// MIS row visit order.
    order: Vec<usize>,
    /// Columns used by the MIS witness rows (capacity = problem columns).
    used: BitSet,
    /// MIS witness: (row index, cheapest column weight) per chosen row.
    witness: Vec<(u32, u64)>,
}

/// A column's entry in the column-dominance scratch: its index, the node
/// rows it covers, and how many there are.
struct ColRows {
    col: usize,
    rows: BitSet,
    count: u32,
}

/// Recycled buffers kept per pool; beyond this they are simply dropped
/// (deep recursions return most buffers quickly, so the cap only guards
/// against pathological retention).
const POOL_CAP: usize = 256;

impl SearchArena {
    fn new(num_cols: usize, reuse: bool) -> Self {
        SearchArena {
            reuse,
            rows_pool: Vec::new(),
            cols_pool: Vec::new(),
            path_pool: Vec::new(),
            children_pool: Vec::new(),
            keep: Vec::new(),
            col_rows: Vec::new(),
            col_slot: vec![0; num_cols],
            dominated: Vec::new(),
            removed: BitSet::new(num_cols),
            excluded: Vec::new(),
            branch: Vec::new(),
            active: BitSet::new(num_cols),
            order: Vec::new(),
            used: BitSet::new(num_cols),
            witness: Vec::new(),
        }
    }

    fn alloc_children(&mut self) -> Vec<Node> {
        self.children_pool.pop().unwrap_or_default()
    }

    fn recycle_children(&mut self, children: Vec<Node>) {
        debug_assert!(children.is_empty());
        if self.reuse && self.children_pool.len() < POOL_CAP {
            self.children_pool.push(children);
        }
    }

    fn recycle_node(&mut self, node: Node) {
        if !self.reuse {
            return;
        }
        if self.rows_pool.len() < POOL_CAP {
            self.rows_pool.push(node.rows);
        }
        if self.cols_pool.len() < POOL_CAP {
            self.cols_pool.push(node.chosen);
        }
        if self.path_pool.len() < POOL_CAP {
            self.path_pool.push(node.path);
        }
    }
}

enum Reduced {
    Solved,
    Infeasible,
    Pruned,
    Open,
}

#[derive(Debug, Default)]
struct TaskResult {
    /// Best solution in this task's subtree: (cost, branch path, columns).
    best: Option<(u64, Vec<u32>, Vec<usize>)>,
    nodes: u64,
    prunes: u64,
    exhausted: bool,
    interrupted: bool,
}

struct TaskCtx<'a> {
    /// `None` in strict budget mode (prune against `fixed_bound` only).
    shared_bound: Option<&'a AtomicU64>,
    fixed_bound: u64,
    result: TaskResult,
    budget: u64,
    interrupt: &'a Interrupt,
    /// Nodes this worker has visited over all its tasks (interrupt stride).
    ticks: u64,
}

impl TaskCtx<'_> {
    fn record(&mut self, cost: u64, cols: &[usize], path: &[u32]) {
        let better = match &self.result.best {
            None => true,
            Some((bc, bp, _)) => (cost, path) < (*bc, bp.as_slice()),
        };
        if better {
            self.result.best = Some((cost, path.to_vec(), cols.to_vec()));
            if let Some(bound) = self.shared_bound {
                bound.fetch_min(cost, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_problem_has_empty_cover() {
        let p = UnateProblem::new(3);
        let sol = p.solve_exact().unwrap();
        assert_eq!(sol.cost, 0);
        assert!(sol.columns.is_empty());
        assert!(sol.optimal);
    }

    #[test]
    fn infeasible_row() {
        let mut p = UnateProblem::new(2);
        p.add_row([0]);
        p.add_row(std::iter::empty());
        assert_eq!(p.solve_exact(), Err(SolveError::Infeasible));
        assert_eq!(p.solve_greedy(), Err(SolveError::Infeasible));
    }

    #[test]
    fn essential_column_is_forced() {
        let mut p = UnateProblem::new(3);
        p.add_row([2]);
        p.add_row([0, 2]);
        let sol = p.solve_exact().unwrap();
        assert_eq!(sol.columns, vec![2]);
        assert_eq!(sol.cost, 1);
    }

    #[test]
    fn weighted_prefers_cheap_pair() {
        let mut p = UnateProblem::with_weights(vec![1, 10, 1]);
        p.add_row([0, 1]);
        p.add_row([1, 2]);
        let sol = p.solve_exact().unwrap();
        assert_eq!(sol.cost, 2);
        let mut cols = sol.columns;
        cols.sort();
        assert_eq!(cols, vec![0, 2]);
    }

    #[test]
    fn unit_weights_prefer_single_column() {
        let mut p = UnateProblem::new(3);
        p.add_row([0, 1]);
        p.add_row([1, 2]);
        let sol = p.solve_exact().unwrap();
        assert_eq!(sol.cost, 1);
        assert_eq!(sol.columns, vec![1]);
    }

    #[test]
    fn greedy_is_feasible() {
        let mut p = UnateProblem::new(5);
        p.add_row([0, 1]);
        p.add_row([1, 2]);
        p.add_row([3]);
        p.add_row([2, 4]);
        let sol = p.solve_greedy().unwrap();
        for r in 0..p.num_rows() {
            assert!(sol.columns.iter().any(|&c| p.rows[r].contains(c)));
        }
    }

    /// Brute force minimum cover by subset enumeration.
    fn brute_force(p: &UnateProblem) -> Option<u64> {
        let n = p.num_cols;
        assert!(n <= 16);
        let mut best: Option<u64> = None;
        'outer: for mask in 0u32..(1 << n) {
            for r in &p.rows {
                if !r.iter().any(|c| mask & (1 << c) != 0) {
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
    fn exact_matches_brute_force_on_fixed_cases() {
        let cases: Vec<(usize, Vec<Vec<usize>>)> = vec![
            (4, vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3]]),
            (
                5,
                vec![
                    vec![0, 1, 2],
                    vec![2, 3],
                    vec![3, 4],
                    vec![0, 4],
                    vec![1, 3],
                ],
            ),
            (
                6,
                vec![vec![0], vec![1, 2], vec![2, 3, 4], vec![4, 5], vec![1, 5]],
            ),
        ];
        for (n, rows) in cases {
            let mut p = UnateProblem::new(n);
            for r in rows {
                p.add_row(r);
            }
            let sol = p.solve_exact().unwrap();
            assert!(sol.optimal);
            assert_eq!(Some(sol.cost), brute_force(&p));
        }
    }

    #[test]
    fn solution_covers_all_rows() {
        let mut p = UnateProblem::new(8);
        for i in 0..8 {
            p.add_row([i, (i + 3) % 8]);
        }
        let sol = p.solve_exact().unwrap();
        for r in &p.rows {
            assert!(sol.columns.iter().any(|&c| r.contains(c)));
        }
    }

    #[test]
    fn thread_counts_agree_bitwise() {
        // A ring structure with several equal-cost optima: the stress case
        // for deterministic tie-breaking.
        let mut p = UnateProblem::new(12);
        for i in 0..12 {
            p.add_row([i, (i + 4) % 12, (i + 7) % 12]);
        }
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
        let mut p = UnateProblem::new(10);
        for i in 0..10 {
            p.add_row([i, (i + 3) % 10]);
        }
        let (sol, stats) = p.solve_exact_with_stats().unwrap();
        assert!(sol.optimal);
        assert!(stats.nodes > 0);
        assert!(stats.threads >= 1);
    }

    #[test]
    fn node_limit_still_returns_feasible() {
        let mut p = UnateProblem::new(14);
        for i in 0..14 {
            p.add_row([i, (i + 5) % 14, (i + 9) % 14]);
        }
        p.set_node_limit(1);
        let sol = p.solve_exact().unwrap();
        for r in &p.rows {
            assert!(sol.columns.iter().any(|&c| r.contains(c)));
        }
    }

    #[test]
    fn work_budget_exhaustion_is_an_error_and_deterministic() {
        let mut p = UnateProblem::new(12);
        for i in 0..12 {
            p.add_row([i, (i + 4) % 12, (i + 7) % 12]);
        }
        p.set_work_budget(Some(8));
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
        let mut p = UnateProblem::new(12);
        for i in 0..12 {
            p.add_row([i, (i + 4) % 12, (i + 7) % 12]);
        }
        let unrestricted = p.solve_exact().unwrap();
        for par in [
            Parallelism::Off,
            Parallelism::Fixed(2),
            Parallelism::Fixed(4),
        ] {
            let mut q = p.clone();
            q.set_work_budget(Some(1_000_000));
            q.set_parallelism(par);
            let sol = q.solve_exact().unwrap();
            assert_eq!(sol, unrestricted, "{par:?} diverged");
        }
    }

    #[test]
    fn cancel_token_interrupts_search() {
        let mut p = UnateProblem::new(14);
        for i in 0..14 {
            p.add_row([i, (i + 5) % 14, (i + 9) % 14]);
        }
        let token = crate::CancelToken::new();
        token.cancel();
        p.set_cancel(Some(token));
        match p.solve_exact() {
            Err(SolveError::Interrupted { .. }) => {}
            other => panic!("expected Interrupted, got {other:?}"),
        }
    }

    #[test]
    fn warm_start_never_changes_the_solution() {
        // Several equal-cost optima; any feasible warm start (including
        // junk that needs repair) must leave the returned columns
        // untouched because tie-breaking is by intrinsic branch path.
        let mut p = UnateProblem::new(12);
        for i in 0..12 {
            p.add_row([i, (i + 4) % 12, (i + 7) % 12]);
        }
        let baseline = p.solve_exact().unwrap();
        for warm in [
            vec![],
            vec![0],
            vec![0, 4, 8],
            (0..12).collect::<Vec<_>>(),
            baseline.columns.clone(),
        ] {
            let mut q = p.clone();
            q.set_warm_start(Some(warm.clone()));
            let sol = q.solve_exact().unwrap();
            assert_eq!(sol, baseline, "warm start {warm:?} changed the result");
        }
    }

    #[test]
    fn warm_start_with_certified_bound_is_optimal_under_budget() {
        // Exhaust the per-task budget immediately; with a warm start whose
        // repaired cost meets a certified lower bound, the result is still
        // marked optimal.
        let mut p = UnateProblem::new(6);
        p.add_row([0, 1]);
        p.add_row([2, 3]);
        p.add_row([4, 5]);
        let full = p.solve_exact().unwrap();
        assert_eq!(full.cost, 3);
        p.set_node_limit(1);
        p.set_warm_start(Some(full.columns.clone()));
        p.set_certified_lower_bound(Some(3));
        let sol = p.solve_exact().unwrap();
        assert_eq!(sol.cost, 3);
        assert!(sol.optimal, "certified bound must upgrade the flag");
    }

    #[test]
    fn scratch_reuse_toggle_is_invisible() {
        let mut p = UnateProblem::new(14);
        for i in 0..14 {
            p.add_row([i, (i + 5) % 14, (i + 9) % 14]);
        }
        let (with_arena, stats_a) = p.solve_exact_with_stats().unwrap();
        let mut q = p.clone();
        q.set_scratch_reuse(false);
        let (without, stats_b) = q.solve_exact_with_stats().unwrap();
        assert_eq!(with_arena, without);
        assert_eq!(
            (stats_a.nodes, stats_a.prunes),
            (stats_b.nodes, stats_b.prunes)
        );
    }

    #[test]
    #[should_panic(expected = "row 1 width mismatch")]
    fn add_row_set_names_the_row() {
        let mut p = UnateProblem::new(4);
        p.add_row_set(BitSet::new(4));
        p.add_row_set(BitSet::new(5));
    }

    #[test]
    #[should_panic(expected = "warm-start column 9 out of range")]
    fn warm_start_range_checked() {
        let mut p = UnateProblem::new(4);
        p.set_warm_start(Some(vec![9]));
    }
}
