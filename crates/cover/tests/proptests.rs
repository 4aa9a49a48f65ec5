//! Randomized tests: the exact solvers against brute-force enumeration,
//! driven by the workspace's deterministic PRNG.

use ioenc_cover::{BinateProblem, Parallelism, SolveError, UnateProblem};
use ioenc_rng::SplitMix64;

const COLS: usize = 10;
const CASES: usize = 80;

/// Where the [`COLS`] live columns of a generated case sit in the solver's
/// problem, with its column count: packed into one word, or scattered
/// across the 64-bit word boundaries of a 150-column problem whose other
/// columns appear in no row or clause. Brute force stays over the live
/// columns.
const COLUMN_MAPS: [(usize, [usize; COLS]); 2] = [
    (COLS, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
    (150, [0, 63, 64, 65, 100, 127, 128, 129, 140, 149]),
];

/// Spreads live-column weights over a `width`-column problem (unit weight
/// on the dead columns).
fn spread_weights(weights: &[u32], width: usize, map: &[usize; COLS]) -> Vec<u32> {
    let mut wide = vec![1; width];
    for (c, &w) in weights.iter().enumerate() {
        wide[map[c]] = w;
    }
    wide
}

/// Maps solver columns back to live-column indices.
fn unmap(columns: &[usize], map: &[usize; COLS]) -> Vec<usize> {
    columns
        .iter()
        .map(|&c| map.iter().position(|&m| m == c).expect("a live column"))
        .collect()
}

fn random_unate(rng: &mut SplitMix64) -> (Vec<u32>, Vec<Vec<usize>>) {
    let weights: Vec<u32> = (0..COLS).map(|_| rng.gen_range(1..8) as u32).collect();
    let num_rows = rng.gen_range(1..8);
    let rows: Vec<Vec<usize>> = (0..num_rows)
        .map(|_| {
            let len = rng.gen_range(1..4);
            (0..len).map(|_| rng.gen_range(0..COLS)).collect()
        })
        .collect();
    (weights, rows)
}

fn unate_brute(weights: &[u32], rows: &[Vec<usize>]) -> u64 {
    let mut best = u64::MAX;
    'outer: for mask in 0u32..(1 << COLS) {
        for r in rows {
            if !r.iter().any(|&c| mask & (1 << c) != 0) {
                continue 'outer;
            }
        }
        let cost: u64 = (0..COLS)
            .filter(|&c| mask & (1 << c) != 0)
            .map(|c| weights[c] as u64)
            .sum();
        best = best.min(cost);
    }
    best
}

#[test]
fn unate_exact_is_optimal() {
    for (width, map) in &COLUMN_MAPS {
        let mut rng = SplitMix64::new(0xc0);
        for _ in 0..CASES {
            let (weights, rows) = random_unate(&mut rng);
            let mut p = UnateProblem::with_weights(spread_weights(&weights, *width, map));
            for r in &rows {
                p.add_row(r.iter().map(|&c| map[c]));
            }
            let sol = p.solve_exact().unwrap();
            assert!(sol.optimal);
            assert_eq!(sol.cost, unate_brute(&weights, &rows), "width {width}");
            let columns = unmap(&sol.columns, map);
            // And the returned columns really cover every row.
            for r in &rows {
                assert!(r.iter().any(|c| columns.contains(c)));
            }
            // Cost is consistent with the selected columns.
            let recomputed: u64 = columns.iter().map(|&c| weights[c] as u64).sum();
            assert_eq!(sol.cost, recomputed);
        }
    }
}

#[test]
fn unate_exact_is_deterministic_across_thread_counts() {
    let mut rng = SplitMix64::new(0xc5);
    for _ in 0..CASES {
        let (weights, rows) = random_unate(&mut rng);
        let mut p = UnateProblem::with_weights(weights);
        for r in &rows {
            p.add_row(r.iter().copied());
        }
        let mut solutions = Vec::new();
        for par in [
            Parallelism::Off,
            Parallelism::Fixed(1),
            Parallelism::Fixed(4),
        ] {
            let mut q = p.clone();
            q.set_parallelism(par);
            solutions.push(q.solve_exact().unwrap());
        }
        assert_eq!(solutions[0].columns, solutions[1].columns);
        assert_eq!(solutions[0].columns, solutions[2].columns);
        assert_eq!(solutions[0].cost, solutions[2].cost);
    }
}

#[test]
fn greedy_is_feasible_and_not_better_than_exact() {
    let mut rng = SplitMix64::new(0xc1);
    for _ in 0..CASES {
        let (weights, rows) = random_unate(&mut rng);
        let mut p = UnateProblem::with_weights(weights);
        for r in &rows {
            p.add_row(r.iter().copied());
        }
        let greedy = p.solve_greedy().unwrap();
        let exact = p.solve_exact().unwrap();
        assert!(greedy.cost >= exact.cost);
        for r in &rows {
            assert!(r.iter().any(|c| greedy.columns.contains(c)));
        }
    }
}

/// Wider random instances than [`random_unate`] so the branch-and-bound
/// actually recurses: the arena and warm-start paths below are only
/// interesting when the search allocates per-node state.
fn random_unate_wide(rng: &mut SplitMix64) -> (Vec<u32>, Vec<Vec<usize>>) {
    let cols = rng.gen_range(12..20);
    let weights: Vec<u32> = (0..cols).map(|_| rng.gen_range(1..6) as u32).collect();
    let num_rows = rng.gen_range(6..16);
    let rows: Vec<Vec<usize>> = (0..num_rows)
        .map(|_| {
            let len = rng.gen_range(1..5);
            (0..len).map(|_| rng.gen_range(0..cols)).collect()
        })
        .collect();
    (weights, rows)
}

#[test]
fn arena_reuse_is_invisible_in_solution_and_stats() {
    let mut rng = SplitMix64::new(0xc7);
    for _ in 0..CASES {
        let (weights, rows) = random_unate_wide(&mut rng);
        let mut p = UnateProblem::with_weights(weights);
        for r in &rows {
            p.add_row(r.iter().copied());
        }
        let mut q = p.clone();
        q.set_scratch_reuse(false);
        let (sol_arena, stats_arena) = p.solve_exact_with_stats().unwrap();
        let (sol_fresh, stats_fresh) = q.solve_exact_with_stats().unwrap();
        assert_eq!(sol_arena, sol_fresh);
        // Byte-identical search, not merely an equal answer: the arena
        // may not change which nodes are visited or pruned.
        assert_eq!(stats_arena.nodes, stats_fresh.nodes);
        assert_eq!(stats_arena.prunes, stats_fresh.prunes);
    }
}

#[test]
fn warm_start_junk_never_changes_the_solution() {
    let mut rng = SplitMix64::new(0xc8);
    for _ in 0..CASES {
        let (weights, rows) = random_unate_wide(&mut rng);
        let cols = weights.len();
        let mut p = UnateProblem::with_weights(weights);
        for r in &rows {
            p.add_row(r.iter().copied());
        }
        let baseline = p.solve_exact().unwrap();
        // Seed with random (possibly infeasible, duplicated, useless)
        // candidates; the incumbent is repaired or discarded, never
        // allowed to steer the search away from the canonical optimum.
        let len = rng.gen_range(0..cols);
        let junk: Vec<usize> = (0..len).map(|_| rng.gen_range(0..cols)).collect();
        let mut q = p.clone();
        q.set_warm_start(Some(junk));
        assert_eq!(q.solve_exact().unwrap(), baseline);
    }
}

type BinateCase = (Vec<u32>, Vec<(Vec<usize>, Vec<usize>)>);

fn random_binate(rng: &mut SplitMix64) -> BinateCase {
    let weights: Vec<u32> = (0..COLS).map(|_| rng.gen_range(1..8) as u32).collect();
    let num_clauses = rng.gen_range(1..7);
    let clauses = (0..num_clauses)
        .map(|_| {
            let np = rng.gen_range(0..3);
            let nn = rng.gen_range(0..3);
            (
                (0..np).map(|_| rng.gen_range(0..COLS)).collect(),
                (0..nn).map(|_| rng.gen_range(0..COLS)).collect(),
            )
        })
        .collect();
    (weights, clauses)
}

fn binate_brute(weights: &[u32], clauses: &[(Vec<usize>, Vec<usize>)]) -> Option<u64> {
    let mut best: Option<u64> = None;
    'outer: for mask in 0u32..(1 << COLS) {
        for (pos, neg) in clauses {
            let ok = pos.iter().any(|&c| mask & (1 << c) != 0)
                || neg.iter().any(|&c| mask & (1 << c) == 0);
            if !ok {
                continue 'outer;
            }
        }
        let cost: u64 = (0..COLS)
            .filter(|&c| mask & (1 << c) != 0)
            .map(|c| weights[c] as u64)
            .sum();
        best = Some(best.map_or(cost, |b: u64| b.min(cost)));
    }
    best
}

#[test]
fn binate_exact_matches_brute_force() {
    for (width, map) in &COLUMN_MAPS {
        let mut rng = SplitMix64::new(0xc2);
        for _ in 0..CASES {
            let (weights, clauses) = random_binate(&mut rng);
            let mut p = BinateProblem::with_weights(spread_weights(&weights, *width, map));
            for (pos, neg) in &clauses {
                p.add_clause(pos.iter().map(|&c| map[c]), neg.iter().map(|&c| map[c]));
            }
            let best = binate_brute(&weights, &clauses);
            match p.solve_exact() {
                Ok(sol) => {
                    assert!(sol.optimal);
                    assert_eq!(Some(sol.cost), best, "width {width}");
                    // Verify the returned assignment.
                    let columns = unmap(&sol.columns, map);
                    for (pos, neg) in &clauses {
                        let ok = pos.iter().any(|c| columns.contains(c))
                            || neg.iter().any(|c| !columns.contains(c));
                        assert!(ok);
                    }
                }
                Err(SolveError::Infeasible) => assert_eq!(best, None),
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
    }
}

#[test]
fn binate_exact_is_deterministic_across_thread_counts() {
    let mut rng = SplitMix64::new(0xc6);
    for _ in 0..CASES {
        let (weights, clauses) = random_binate(&mut rng);
        let mut p = BinateProblem::with_weights(weights);
        for (pos, neg) in &clauses {
            p.add_clause(pos.iter().copied(), neg.iter().copied());
        }
        let mut results = Vec::new();
        for par in [
            Parallelism::Off,
            Parallelism::Fixed(1),
            Parallelism::Fixed(4),
        ] {
            let mut q = p.clone();
            q.set_parallelism(par);
            results.push(q.solve_exact());
        }
        match (&results[0], &results[1], &results[2]) {
            (Ok(a), Ok(b), Ok(c)) => {
                assert_eq!(a.columns, b.columns);
                assert_eq!(a.columns, c.columns);
            }
            (Err(a), Err(b), Err(c)) => {
                assert_eq!(a, b);
                assert_eq!(a, c);
            }
            other => panic!("thread counts disagree on feasibility: {other:?}"),
        }
    }
}
