//! Randomized tests: cube/cover algebra against exhaustive minterm
//! semantics, driven by the workspace's deterministic PRNG.
//!
//! Besides small one-word specs, every enumeration test also runs over
//! two wide specs of more than 64 bits: one with a 5-part variable across
//! bit 64, one with a binary variable across it. Only a few *live*
//! variables vary there; every other variable stays full in every cube,
//! so minterm enumeration runs over the live variables alone.

use ioenc_cube::{Cover, Cube, VarSpec};
use ioenc_rng::SplitMix64;

const CASES: usize = 128;
const WIDE_CASES: usize = 48;

/// A spec plus the variables that may vary in its cubes.
struct Domain {
    spec: VarSpec,
    live: Vec<usize>,
}

impl Domain {
    fn small(spec: VarSpec) -> Self {
        let live = spec.vars().collect();
        Domain { spec, live }
    }

    /// 31 binary variables (bits 0..62), a 5-part variable at bits 62..67,
    /// then 20 binary variables of padding (107 bits, two words).
    fn straddling_multi_valued() -> Self {
        let mut parts = vec![2; 31];
        parts.push(5);
        parts.extend([2; 20]);
        let spec = VarSpec::new(parts);
        assert_eq!(spec.var_range(31), 62..67);
        Domain {
            spec,
            live: vec![2, 30, 31, 32, 45],
        }
    }

    /// A 3-part variable, then 31 binary variables, the last at bits
    /// 63..65, then 10 binary variables of padding (85 bits).
    fn straddling_binary() -> Self {
        let mut parts = vec![3];
        parts.extend([2; 41]);
        let spec = VarSpec::new(parts);
        assert_eq!(spec.var_range(31), 63..65);
        Domain {
            spec,
            live: vec![0, 5, 31, 32, 40],
        }
    }

    /// Every minterm over the live variables; the others take value 0
    /// (every cube admits all their values).
    fn minterms(&self) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut m = vec![0usize; self.spec.num_vars()];
        loop {
            out.push(m.clone());
            let mut k = 0;
            loop {
                let Some(&v) = self.live.get(k) else {
                    return out;
                };
                m[v] += 1;
                if m[v] < self.spec.parts(v) {
                    break;
                }
                m[v] = 0;
                k += 1;
            }
        }
    }
}

fn random_spec(rng: &mut SplitMix64) -> VarSpec {
    let nvars = rng.gen_range(1..4);
    VarSpec::new((0..nvars).map(|_| rng.gen_range(2..4)).collect())
}

fn random_cube(rng: &mut SplitMix64, d: &Domain) -> Cube {
    let spec = &d.spec;
    let mut c = Cube::universe(spec);
    for &v in &d.live {
        // Keep at least one part set so cubes are rarely void.
        let keep = rng.gen_range(0..spec.parts(v));
        for k in 0..spec.parts(v) {
            if k != keep && rng.gen_bool(0.5) {
                c.clear_part(spec, v, k);
            }
        }
    }
    c
}

fn random_cover_in(rng: &mut SplitMix64, d: &Domain) -> Cover {
    let len = rng.gen_range(0..6);
    let cubes = (0..len).map(|_| random_cube(rng, d)).collect();
    Cover::from_cubes(d.spec.clone(), cubes)
}

/// `CASES` covers over small random specs, then `WIDE_CASES` over each
/// wide spec.
fn cases(seed: u64) -> Vec<(Domain, Cover)> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::new();
    for _ in 0..CASES {
        let d = Domain::small(random_spec(&mut rng));
        let cover = random_cover_in(&mut rng, &d);
        out.push((d, cover));
    }
    for wide in [Domain::straddling_multi_valued, Domain::straddling_binary] {
        for _ in 0..WIDE_CASES {
            let d = wide();
            let cover = random_cover_in(&mut rng, &d);
            out.push((d, cover));
        }
    }
    out
}

#[test]
fn tautology_matches_enumeration() {
    for (d, cover) in cases(0xd0) {
        let want = d.minterms().iter().all(|m| cover.contains_minterm(m));
        assert_eq!(cover.is_tautology(), want);
    }
}

#[test]
fn complement_matches_enumeration() {
    for (d, cover) in cases(0xd1) {
        let comp = cover.complement();
        for m in d.minterms() {
            assert_ne!(cover.contains_minterm(&m), comp.contains_minterm(&m));
        }
    }
}

#[test]
fn intersection_matches_enumeration() {
    for (d, cover) in cases(0xd2) {
        let spec = &d.spec;
        if cover.len() >= 2 {
            let a = &cover.cubes()[0];
            let b = &cover.cubes()[1];
            let i = a.intersection(spec, b);
            for m in d.minterms() {
                let in_both = a.contains_minterm(spec, &m) && b.contains_minterm(spec, &m);
                let in_i = i.as_ref().is_some_and(|c| c.contains_minterm(spec, &m));
                assert_eq!(in_both, in_i);
            }
        }
    }
}

#[test]
fn containment_matches_enumeration() {
    for (d, cover) in cases(0xd3) {
        let spec = &d.spec;
        if !cover.is_empty() {
            let c = &cover.cubes()[0];
            let want = d
                .minterms()
                .iter()
                .filter(|m| c.contains_minterm(spec, m))
                .all(|m| cover.contains_minterm(m));
            assert_eq!(cover.contains_cube(c), want);
        }
    }
}

#[test]
fn scc_preserves_semantics() {
    for (d, cover) in cases(0xd4) {
        let mut reduced = cover.clone();
        reduced.single_cube_containment();
        for m in d.minterms() {
            assert_eq!(cover.contains_minterm(&m), reduced.contains_minterm(&m));
        }
    }
}

#[test]
fn supercube_contains_both() {
    for (_d, cover) in cases(0xd5) {
        if cover.len() >= 2 {
            let a = &cover.cubes()[0];
            let b = &cover.cubes()[1];
            let s = a.supercube(b);
            assert!(s.contains(a));
            assert!(s.contains(b));
        }
    }
}

#[test]
fn consensus_is_implied() {
    for (d, cover) in cases(0xd6) {
        let spec = &d.spec;
        if cover.len() >= 2 {
            let a = cover.cubes()[0].clone();
            let b = cover.cubes()[1].clone();
            if let Some(c) = a.consensus(spec, &b) {
                // The consensus is covered by a + b.
                let ab = Cover::from_cubes(spec.clone(), vec![a, b]);
                assert!(ab.contains_cube(&c));
            }
        }
    }
}

// --- Per-bit reference definitions of the word-level cube kernels ---

fn ref_part_count(spec: &VarSpec, c: &Cube, v: usize) -> usize {
    spec.var_range(v).filter(|&b| c.bits().contains(b)).count()
}

fn ref_field_disjoint(spec: &VarSpec, a: &Cube, b: &Cube, v: usize) -> bool {
    spec.var_range(v)
        .all(|bit| !(a.bits().contains(bit) && b.bits().contains(bit)))
}

fn ref_distance(spec: &VarSpec, a: &Cube, b: &Cube) -> usize {
    spec.vars()
        .filter(|&v| ref_field_disjoint(spec, a, b, v))
        .count()
}

fn ref_is_void(spec: &VarSpec, c: &Cube) -> bool {
    spec.vars().any(|v| ref_part_count(spec, c, v) == 0)
}

/// `None` when the cubes do not intersect, else `a_v ∪ ¬p_v` per variable.
fn ref_cofactor(spec: &VarSpec, a: &Cube, p: &Cube) -> Option<String> {
    if ref_distance(spec, a, p) > 0 {
        return None;
    }
    let bits: String = (0..spec.total_bits())
        .map(|b| {
            if a.bits().contains(b) || !p.bits().contains(b) {
                '1'
            } else {
                '0'
            }
        })
        .collect();
    Some(bits)
}

/// Distance exactly 1: union in the conflicting variable, intersection
/// elsewhere.
fn ref_consensus(spec: &VarSpec, a: &Cube, b: &Cube) -> Option<String> {
    if ref_distance(spec, a, b) != 1 {
        return None;
    }
    let v = spec
        .vars()
        .find(|&v| ref_field_disjoint(spec, a, b, v))
        .expect("one disjoint variable");
    let bits: String = (0..spec.total_bits())
        .map(|bit| {
            let (x, y) = (a.bits().contains(bit), b.bits().contains(bit));
            let set = if spec.var_range(v).contains(&bit) {
                x || y
            } else {
                x && y
            };
            if set {
                '1'
            } else {
                '0'
            }
        })
        .collect();
    Some(bits)
}

/// A cube with every bit drawn independently: void cubes, full and empty
/// fields all occur, in every variable.
fn raw_cube(rng: &mut SplitMix64, spec: &VarSpec, density: f64) -> Cube {
    let mut c = Cube::universe(spec);
    for v in spec.vars() {
        for p in 0..spec.parts(v) {
            if !rng.gen_bool(density) {
                c.clear_part(spec, v, p);
            }
        }
    }
    c
}

#[test]
fn word_kernels_match_per_bit_references() {
    let mut rng = SplitMix64::new(0xd7);
    let specs = [
        VarSpec::new(vec![2, 3, 2]),
        VarSpec::binary(32),
        Domain::straddling_multi_valued().spec,
        Domain::straddling_binary().spec,
        // A multi-valued variable spanning three words, between binaries.
        VarSpec::new(vec![2, 2, 150, 2, 7]),
    ];
    for spec in &specs {
        for _ in 0..200 {
            // Dense cubes make distance 0 and 1 common; sparse ones make
            // empty fields common.
            let density = [0.97, 0.85, 0.5][rng.gen_range(0..3)];
            let a = raw_cube(&mut rng, spec, density);
            let b = raw_cube(&mut rng, spec, density);
            assert_eq!(a.is_void(spec), ref_is_void(spec, &a), "{spec:?}");
            assert_eq!(a.distance(spec, &b), ref_distance(spec, &a, &b));
            assert_eq!(a.intersects(spec, &b), ref_distance(spec, &a, &b) == 0);
            for v in spec.vars() {
                let n = ref_part_count(spec, &a, v);
                assert_eq!(a.var_part_count(spec, v), n);
                assert_eq!(a.var_is_full(spec, v), n == spec.parts(v));
                assert_eq!(a.var_is_empty(spec, v), n == 0);
            }
            assert_eq!(
                a.cofactor(spec, &b).map(|c| c.bits().to_string()),
                ref_cofactor(spec, &a, &b)
            );
            assert_eq!(
                a.consensus(spec, &b).map(|c| c.bits().to_string()),
                ref_consensus(spec, &a, &b)
            );
            for bit in 0..spec.total_bits() {
                let (v, p) = spec.locate(bit);
                assert_eq!(spec.offset(v) + p, bit);
            }
        }
    }
}
