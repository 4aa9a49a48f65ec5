//! Behaviour at resource limits and awkward shapes: node budgets,
//! deadlines, wide problems that skip column dominance, and duplicate
//! columns.

use ioenc_cover::{BinateProblem, Parallelism, SolveError, UnateProblem};
use std::time::{Duration, Instant};

#[test]
fn tiny_node_limit_still_returns_feasible_cover() {
    // A hard-ish random-ish instance with a tiny budget: the solver must
    // return the greedy-seeded solution flagged non-optimal.
    let mut p = UnateProblem::new(40);
    for r in 0..30usize {
        p.add_row([r % 40, (r * 7 + 3) % 40, (r * 13 + 11) % 40]);
    }
    p.set_node_limit(1);
    let sol = p.solve_exact().unwrap();
    assert!(!sol.optimal);
    for r in 0..30usize {
        let row = [r % 40, (r * 7 + 3) % 40, (r * 13 + 11) % 40];
        assert!(row.iter().any(|c| sol.columns.contains(c)));
    }
}

#[test]
fn duplicate_columns_are_merged_without_losing_optimality() {
    // Columns 1, 2, 3 cover identical rows; weights differ.
    let mut p = UnateProblem::with_weights(vec![5, 3, 7, 3, 1]);
    p.add_row([0, 1, 2, 3]);
    p.add_row([1, 2, 3]);
    p.add_row([4]);
    let sol = p.solve_exact().unwrap();
    assert!(sol.optimal);
    // Cheapest duplicate (weight 3) plus the essential column 4.
    assert_eq!(sol.cost, 4);
}

#[test]
fn wide_problem_exceeding_column_dominance_limit_still_solves() {
    // More columns than the dominance threshold: correctness must not
    // depend on that reduction.
    let cols = 7000;
    let mut p = UnateProblem::new(cols);
    for r in 0..20usize {
        // Each row has a private column plus shared filler columns.
        p.add_row([r, 20 + r % 5, 6000 + r % 3]);
    }
    let sol = p.solve_exact().unwrap();
    for r in 0..20usize {
        let row = [r, 20 + r % 5, 6000 + r % 3];
        assert!(row.iter().any(|c| sol.columns.contains(c)));
    }
    // Optimal cover uses the shared columns: 5 + 3 suffice? Rows share
    // column 20+r%5 (5 distinct) — each row covered by one of them.
    assert!(sol.cost <= 5);
}

#[test]
fn binate_node_limit_reports_gracefully() {
    let mut p = BinateProblem::new(30);
    for i in 0..30usize {
        p.add_clause([i, (i + 1) % 30], [(i + 2) % 30]);
    }
    p.set_node_limit(1);
    match p.solve_exact() {
        Ok(sol) => assert!(!sol.optimal),
        Err(SolveError::NodeLimit) => {}
        Err(e) => panic!("unexpected {e:?}"),
    }
}

#[test]
fn unate_weight_zero_columns_are_legal() {
    let mut p = UnateProblem::with_weights(vec![0, 1]);
    p.add_row([0, 1]);
    let sol = p.solve_exact().unwrap();
    assert_eq!(sol.cost, 0);
    assert_eq!(sol.columns, vec![0]);
}

#[test]
fn binate_tautological_clause_is_satisfied_by_rejection() {
    // Clause (¬0): satisfied by rejecting 0 — zero cost.
    let mut p = BinateProblem::new(2);
    p.add_clause([], [0]);
    let sol = p.solve_exact().unwrap();
    assert_eq!(sol.cost, 0);
    assert!(sol.columns.is_empty());
}

#[test]
fn deadline_is_noticed_in_a_search_of_small_tasks() {
    // A 36-column ring search of about 200 nodes whose tasks all stay
    // far below 256 nodes, padded with 50,000 clauses that the forced
    // column `x` satisfies: they change no node, but make every node
    // scan them, so the search takes far longer than the deadline. A
    // search that consulted the deadline only at the root and every
    // 256th node of a task would never see it and would answer `Ok`.
    let n = 36;
    let x = n;
    let mut p = BinateProblem::new(n + 1);
    p.add_clause([x], []);
    for i in 0..n {
        p.add_clause([i, (i + 1) % n, (i + 2) % n], []);
        p.add_clause([], [i, (i + 4) % n]);
    }
    for k in 0..50_000 {
        p.add_clause([x, k % n], [k / n % n]);
    }
    p.set_parallelism(Parallelism::Off);
    p.set_deadline(Some(Instant::now() + Duration::from_millis(1)));
    match p.solve_exact_with_stats() {
        Err(SolveError::Interrupted { .. }) => {}
        other => panic!("the deadline was ignored: {other:?}"),
    }
}
