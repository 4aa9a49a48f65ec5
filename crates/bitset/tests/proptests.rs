//! Randomized model tests checking `BitSet` against
//! `std::collections::BTreeSet`, driven by the workspace's deterministic
//! PRNG (no external proptest dependency; every run checks the same cases).

use ioenc_bitset::BitSet;
use ioenc_rng::SplitMix64;
use std::collections::BTreeSet;

const CAP: usize = 150;
const CASES: usize = 300;

fn random_indices(rng: &mut SplitMix64) -> Vec<usize> {
    let len = rng.gen_range(0..40);
    (0..len).map(|_| rng.gen_range(0..CAP)).collect()
}

fn build(v: &[usize]) -> (BitSet, BTreeSet<usize>) {
    (
        BitSet::from_indices(CAP, v.iter().copied()),
        v.iter().copied().collect(),
    )
}

/// Runs `f` over `CASES` random pairs of index vectors.
fn for_random_pairs(seed: u64, mut f: impl FnMut(Vec<usize>, Vec<usize>)) {
    let mut rng = SplitMix64::new(seed);
    for _ in 0..CASES {
        f(random_indices(&mut rng), random_indices(&mut rng));
    }
}

#[test]
fn union_matches_model() {
    for_random_pairs(0xb1, |a, b| {
        let (sa, ma) = build(&a);
        let (sb, mb) = build(&b);
        let want: Vec<usize> = ma.union(&mb).copied().collect();
        assert_eq!(sa.union(&sb).iter().collect::<Vec<_>>(), want);
    });
}

#[test]
fn intersection_matches_model() {
    for_random_pairs(0xb2, |a, b| {
        let (sa, ma) = build(&a);
        let (sb, mb) = build(&b);
        let want: Vec<usize> = ma.intersection(&mb).copied().collect();
        assert_eq!(sa.intersection(&sb).iter().collect::<Vec<_>>(), want);
    });
}

#[test]
fn difference_matches_model() {
    for_random_pairs(0xb3, |a, b| {
        let (sa, ma) = build(&a);
        let (sb, mb) = build(&b);
        let want: Vec<usize> = ma.difference(&mb).copied().collect();
        assert_eq!(sa.difference(&sb).iter().collect::<Vec<_>>(), want);
    });
}

#[test]
fn relations_match_model() {
    for_random_pairs(0xb4, |a, b| {
        let (sa, ma) = build(&a);
        let (sb, mb) = build(&b);
        assert_eq!(sa.is_subset(&sb), ma.is_subset(&mb));
        assert_eq!(sa.is_disjoint(&sb), ma.is_disjoint(&mb));
        assert_eq!(sa.count(), ma.len());
        assert_eq!(sa == sb, ma == mb);
    });
}

#[test]
fn complement_involution() {
    let mut rng = SplitMix64::new(0xb5);
    for _ in 0..CASES {
        let a = random_indices(&mut rng);
        let (sa, ma) = build(&a);
        let c = sa.complement();
        assert_eq!(c.count(), CAP - ma.len());
        assert!(c.is_disjoint(&sa));
        assert_eq!(c.complement(), sa);
    }
}

// ---- differential coverage of the kernel dispatch widths ----
//
// The dispatched operations pick an implementation by word count: the
// unrolled scalar kernels below 8 words, 256-bit SIMD from 8 words and
// 512-bit SIMD from 16 words (on CPUs that have them). Checking every
// operation against the `BTreeSet` model at capacities straddling those
// thresholds pins all paths to identical semantics: two capacities that
// dispatch differently but agree with the same model agree with each
// other.

/// Capacities bracketing every dispatch threshold: sub-word, scalar
/// kernel, first SIMD width (8 words = 512 bits), second SIMD width
/// (16 words = 1024 bits), and deep in each regime. Off-by-a-bit sizes
/// exercise the trailing-word masking.
const WIDTH_CAPS: &[usize] = &[63, 64, 65, 448, 512, 513, 960, 1024, 1025, 4096, 4113];

fn random_indices_in(rng: &mut SplitMix64, cap: usize, max_len: usize) -> Vec<usize> {
    let len = rng.gen_range(0..max_len);
    (0..len).map(|_| rng.gen_range(0..cap)).collect()
}

fn build_in(cap: usize, v: &[usize]) -> (BitSet, BTreeSet<usize>) {
    (
        BitSet::from_indices(cap, v.iter().copied()),
        v.iter().copied().collect(),
    )
}

/// Every binary operation and predicate checked against the model.
fn check_pair(cap: usize, a: &[usize], b: &[usize]) {
    let (sa, ma) = build_in(cap, a);
    let (sb, mb) = build_in(cap, b);
    let want_union: Vec<usize> = ma.union(&mb).copied().collect();
    assert_eq!(sa.union(&sb).iter().collect::<Vec<_>>(), want_union);
    let want_inter: Vec<usize> = ma.intersection(&mb).copied().collect();
    assert_eq!(sa.intersection(&sb).iter().collect::<Vec<_>>(), want_inter);
    let want_diff: Vec<usize> = ma.difference(&mb).copied().collect();
    assert_eq!(sa.difference(&sb).iter().collect::<Vec<_>>(), want_diff);
    let want_or_not: Vec<usize> = (0..cap)
        .filter(|i| ma.contains(i) || !mb.contains(i))
        .collect();
    let mut or_not = sa.clone();
    or_not.union_with_complement(&sb);
    assert_eq!(or_not.iter().collect::<Vec<_>>(), want_or_not);
    assert_eq!(
        or_not.count(),
        want_or_not.len(),
        "trailing bits at cap {cap}"
    );
    assert_eq!(sa.is_subset(&sb), ma.is_subset(&mb), "subset at cap {cap}");
    assert_eq!(
        sa.is_disjoint(&sb),
        ma.is_disjoint(&mb),
        "disjoint at cap {cap}"
    );
    assert_eq!(sa.count(), ma.len(), "count at cap {cap}");
    let mut visited = Vec::new();
    sa.for_each_set(|i| visited.push(i));
    assert_eq!(visited, ma.iter().copied().collect::<Vec<_>>());
}

#[test]
fn kernel_paths_match_model_across_widths() {
    let mut rng = SplitMix64::new(0xd1);
    for &cap in WIDTH_CAPS {
        for _ in 0..40 {
            let a = random_indices_in(&mut rng, cap, cap.min(600));
            let b = random_indices_in(&mut rng, cap, cap.min(600));
            check_pair(cap, &a, &b);
        }
    }
}

/// Hand-built worst cases for word-boundary handling: empty, full,
/// single bits at word seams, lone trailing bit, dense halves.
fn adversarial_patterns(cap: usize) -> Vec<Vec<usize>> {
    let mut out = vec![
        Vec::new(),
        (0..cap).collect(),
        vec![0],
        vec![cap - 1],
        (0..cap).step_by(2).collect(),
        (1..cap).step_by(2).collect(),
        (0..cap.min(64)).collect(),
        (cap.saturating_sub(64)..cap).collect(),
    ];
    for seam in [63usize, 64, 65, 127, 128, 511, 512, 1023, 1024] {
        if seam < cap {
            out.push(vec![seam]);
        }
    }
    out
}

#[test]
fn adversarial_patterns_match_model_across_widths() {
    for &cap in WIDTH_CAPS {
        let patterns = adversarial_patterns(cap);
        for a in &patterns {
            for b in &patterns {
                check_pair(cap, a, b);
            }
        }
    }
}

#[test]
fn in_place_ops_match_functional_ops_across_widths() {
    let mut rng = SplitMix64::new(0xd2);
    for &cap in WIDTH_CAPS {
        for _ in 0..20 {
            let a = random_indices_in(&mut rng, cap, cap.min(600));
            let b = random_indices_in(&mut rng, cap, cap.min(600));
            let (sa, _) = build_in(cap, &a);
            let (sb, _) = build_in(cap, &b);
            let mut u = sa.clone();
            u.union_with(&sb);
            assert_eq!(u, sa.union(&sb));
            let mut i = sa.clone();
            i.intersect_with(&sb);
            assert_eq!(i, sa.intersection(&sb));
            let mut d = sa.clone();
            d.difference_with(&sb);
            assert_eq!(d, sa.difference(&sb));
        }
    }
}

#[test]
fn remove_inverts_insert() {
    let mut rng = SplitMix64::new(0xb6);
    for _ in 0..CASES {
        let a = random_indices(&mut rng);
        let x = rng.gen_range(0..CAP);
        let (mut sa, ma) = build(&a);
        let newly = sa.insert(x);
        assert_eq!(newly, !ma.contains(&x));
        assert!(sa.contains(x));
        sa.remove(x);
        assert!(!sa.contains(x));
    }
}
