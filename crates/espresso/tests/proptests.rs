//! Randomized tests: minimization preserves semantics on random functions,
//! driven by the workspace's deterministic PRNG.
//!
//! Besides small one-word specs, the tests also run over two wide specs of
//! more than 64 bits, one with a 5-part variable and one with a binary
//! variable across bit 64. Only a few *live* variables vary there; every
//! other variable stays full in every cube, so minterm enumeration runs
//! over the live variables alone.

use ioenc_cube::{Cover, Cube, VarSpec};
use ioenc_espresso::{exact_minimize, expand, irredundant, minimize, reduce};
use ioenc_rng::SplitMix64;

const CASES: usize = 96;
const WIDE_CASES: usize = 32;

fn random_spec(rng: &mut SplitMix64) -> VarSpec {
    if rng.gen_bool(0.5) {
        VarSpec::binary(rng.gen_range(1..4))
    } else {
        let nvars = rng.gen_range(1..3);
        VarSpec::new((0..nvars).map(|_| rng.gen_range(2..4)).collect())
    }
}

/// The wide specs, each with its live variables: 31 binaries, a 5-part
/// variable at bits 62..67, 20 binaries (107 bits); and a 3-part variable,
/// 41 binaries, the 31st at bits 63..65 (85 bits).
fn wide_domains() -> [(VarSpec, Vec<usize>); 2] {
    let mut a = vec![2; 31];
    a.push(5);
    a.extend([2; 20]);
    let mut b = vec![3];
    b.extend([2; 41]);
    [
        (VarSpec::new(a), vec![2, 30, 31, 32, 45]),
        (VarSpec::new(b), vec![0, 5, 31, 32, 40]),
    ]
}

/// Every minterm over the live variables; the others take value 0 (every
/// cube admits all their values).
fn live_minterms(spec: &VarSpec, live: &[usize]) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut m = vec![0usize; spec.num_vars()];
    loop {
        out.push(m.clone());
        let mut k = 0;
        loop {
            let Some(&v) = live.get(k) else {
                return out;
            };
            m[v] += 1;
            if m[v] < spec.parts(v) {
                break;
            }
            m[v] = 0;
            k += 1;
        }
    }
}

fn random_cube(rng: &mut SplitMix64, spec: &VarSpec, live: &[usize]) -> Cube {
    let mut c = Cube::universe(spec);
    for &v in live {
        let mut cleared = 0;
        let parts = spec.parts(v);
        for p in 0..parts {
            if rng.gen_bool(0.35) && cleared + 1 < parts {
                c.clear_part(spec, v, p);
                cleared += 1;
            }
        }
    }
    c
}

fn random_on_dc_in(rng: &mut SplitMix64, spec: &VarSpec, live: &[usize]) -> (Cover, Cover) {
    let n_on = rng.gen_range(0..5);
    let n_dc = rng.gen_range(0..3);
    let on: Vec<Cube> = (0..n_on).map(|_| random_cube(rng, spec, live)).collect();
    let dc: Vec<Cube> = (0..n_dc).map(|_| random_cube(rng, spec, live)).collect();
    (
        Cover::from_cubes(spec.clone(), on),
        Cover::from_cubes(spec.clone(), dc),
    )
}

/// `(minterms, on, dc)`: `CASES` functions over small random specs, then,
/// when `wide`, `WIDE_CASES` over each wide spec.
fn cases(seed: u64, wide: bool) -> Vec<(Vec<Vec<usize>>, Cover, Cover)> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::new();
    for _ in 0..CASES {
        let spec = random_spec(&mut rng);
        let live: Vec<usize> = spec.vars().collect();
        let (on, dc) = random_on_dc_in(&mut rng, &spec, &live);
        out.push((Cover::enumerate_minterms(&spec), on, dc));
    }
    if wide {
        for (spec, live) in wide_domains() {
            let minterms = live_minterms(&spec, &live);
            for _ in 0..WIDE_CASES {
                let (on, dc) = random_on_dc_in(&mut rng, &spec, &live);
                out.push((minterms.clone(), on, dc));
            }
        }
    }
    out
}

fn assert_semantics_preserved(minterms: &[Vec<usize>], on: &Cover, dc: &Cover, m: &Cover) {
    for mt in minterms {
        let in_on = on.contains_minterm(mt);
        let in_dc = dc.contains_minterm(mt);
        let in_m = m.contains_minterm(mt);
        if in_on && !in_dc {
            assert!(in_m, "lost on-set minterm {mt:?}");
        }
        if !in_on && !in_dc {
            assert!(!in_m, "gained off-set minterm {mt:?}");
        }
    }
}

/// `F ∪ D` is the same function before and after.
fn assert_function_kept(minterms: &[Vec<usize>], f: &Cover, dc: &Cover, r: &Cover) {
    for mt in minterms {
        let before = f.contains_minterm(mt) || dc.contains_minterm(mt);
        let after = r.contains_minterm(mt) || dc.contains_minterm(mt);
        assert_eq!(before, after, "{mt:?}");
    }
}

#[test]
fn minimize_preserves_semantics() {
    for (minterms, on, dc) in cases(0xe0, true) {
        let m = minimize(&on, &dc, None);
        assert_semantics_preserved(&minterms, &on, &dc, &m);
    }
}

#[test]
fn minimize_never_grows_cube_count() {
    for (_, on, dc) in cases(0xe1, true) {
        let mut scc = on.clone();
        scc.single_cube_containment();
        let m = minimize(&on, &dc, None);
        assert!(m.len() <= scc.len(), "{} > {}", m.len(), scc.len());
    }
}

#[test]
fn expand_covers_original_and_avoids_off() {
    for (minterms, on, dc) in cases(0xe2, true) {
        let off = on.union(&dc).complement();
        let e = expand(&on, &off);
        for c in on.cubes() {
            assert!(e.cubes().iter().any(|p| p.contains(c)));
        }
        for c in e.cubes() {
            for o in off.cubes() {
                assert!(c.distance(on.spec(), o) > 0);
            }
        }
        assert_semantics_preserved(&minterms, &on, &dc, &e);
    }
}

#[test]
fn irredundant_preserves_function() {
    for (minterms, on, dc) in cases(0xe3, true) {
        let r = irredundant(&on, &dc);
        assert_function_kept(&minterms, &on, &dc, &r);
    }
}

#[test]
fn reduce_preserves_function() {
    for (minterms, on, dc) in cases(0xe4, true) {
        let r = reduce(&on, &dc);
        assert_function_kept(&minterms, &on, &dc, &r);
    }
}

#[test]
fn heuristic_is_valid_and_no_better_than_exact() {
    // Exact minimization enumerates the whole domain: small specs only.
    for (minterms, on, dc) in cases(0xe5, false) {
        let heur = minimize(&on, &dc, None);
        let exact = exact_minimize(&on, &dc);
        assert_semantics_preserved(&minterms, &on, &dc, &exact);
        assert!(
            heur.len() >= exact.len(),
            "heuristic {} cubes < exact {}",
            heur.len(),
            exact.len()
        );
    }
}

#[test]
fn minimize_idempotent_on_result() {
    for (minterms, on, dc) in cases(0xe6, true) {
        let m = minimize(&on, &dc, None);
        let m2 = minimize(&m, &dc, None);
        assert!(m2.len() <= m.len());
        assert_semantics_preserved(&minterms, &m, &dc, &m2);
    }
}
