//! Exact two-level minimization (Quine–McCluskey generalized to
//! multi-valued covers): all prime implicants by iterated consensus, then a
//! minimum cover of the on-set by exact unate covering.
//!
//! Exponential — used as the reference oracle for the heuristic loop and
//! for small cost evaluations where exactness matters.

use ioenc_cover::UnateProblem;
use ioenc_cube::{Cover, Cube};

/// Exactly minimizes `on` against `dc`: returns a minimum-cardinality cover
/// `M` with `ON ⊆ M ∪ DC` and `M ⊆ ON ∪ DC`.
///
/// # Panics
///
/// Panics if the specs differ, the domain exceeds 2^16 minterms, or prime
/// generation exceeds 100 000 implicants (exactness has limits).
pub fn exact_minimize(on: &Cover, dc: &Cover) -> Cover {
    assert!(on.spec() == dc.spec(), "dc-set spec mismatch");
    let spec = on.spec().clone();
    assert!(
        spec.domain_size() <= 1 << 16,
        "exact minimization limited to 2^16 minterms"
    );
    if on.is_empty() {
        return Cover::empty(spec);
    }
    let care = on.union(dc);

    // All prime implicants of ON ∪ DC by iterated consensus + absorption.
    let mut primes: Vec<Cube> = {
        let mut c = care.clone();
        c.single_cube_containment();
        c.cubes().to_vec()
    };
    loop {
        let mut new_cubes: Vec<Cube> = Vec::new();
        for i in 0..primes.len() {
            for j in (i + 1)..primes.len() {
                if let Some(cons) = primes[i].consensus(&spec, &primes[j]) {
                    if cons.is_void(&spec) {
                        continue;
                    }
                    // Keep only consensus cubes fully inside the care set
                    // and not already absorbed.
                    if care.contains_cube(&cons)
                        && !primes.iter().any(|p| p.contains(&cons))
                        && !new_cubes.iter().any(|p| p.contains(&cons))
                    {
                        new_cubes.push(cons);
                    }
                }
            }
        }
        if new_cubes.is_empty() {
            break;
        }
        primes.extend(new_cubes);
        // Absorption.
        let mut cover = Cover::from_cubes(spec.clone(), primes);
        cover.single_cube_containment();
        primes = cover.cubes().to_vec();
        assert!(primes.len() <= 100_000, "prime implicant explosion");
    }
    // Expand every cube to a prime (consensus alone can leave non-maximal
    // cubes): grow each against the off-set.
    let off = care.complement();
    let mut maximal: Vec<Cube> = Vec::new();
    for p in &primes {
        let mut cube = p.clone();
        loop {
            let mut grown = false;
            for b in 0..spec.total_bits() {
                if cube.bits().contains(b) {
                    continue;
                }
                let (v, part) = spec.locate(b);
                cube.set_part(&spec, v, part);
                if off.cubes().iter().all(|o| !cube.intersects(&spec, o)) {
                    grown = true;
                } else {
                    cube.clear_part(&spec, v, part);
                }
            }
            if !grown {
                break;
            }
        }
        maximal.push(cube);
    }
    let mut prime_cover = Cover::from_cubes(spec.clone(), maximal);
    prime_cover.single_cube_containment();
    let primes = prime_cover.cubes().to_vec();

    // Covering: rows are the on-set minterms outside DC.
    let minterms: Vec<Vec<usize>> = Cover::enumerate_minterms(&spec)
        .into_iter()
        .filter(|m| on.contains_minterm(m) && !dc.contains_minterm(m))
        .collect();
    let mut problem = UnateProblem::new(primes.len());
    for m in &minterms {
        problem.add_row(
            primes
                .iter()
                .enumerate()
                .filter(|(_, p)| p.contains_minterm(&spec, m))
                .map(|(k, _)| k),
        );
    }
    // Every on-set minterm lies in some prime (primes were generated
    // from the on-set), so every row is non-empty and the unate solver
    // cannot fail; treat the impossible error as an empty selection.
    let sol = problem.solve_exact().unwrap_or_default();
    Cover::from_cubes(
        spec,
        sol.columns.into_iter().map(|k| primes[k].clone()).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimize;
    use ioenc_cube::VarSpec;

    fn check_exact(on: &Cover, dc: &Cover) -> Cover {
        let m = exact_minimize(on, dc);
        let spec = on.spec();
        for mt in Cover::enumerate_minterms(spec) {
            let in_on = on.contains_minterm(&mt);
            let in_dc = dc.contains_minterm(&mt);
            let in_m = m.contains_minterm(&mt);
            if in_on && !in_dc {
                assert!(in_m, "lost {mt:?}");
            }
            if !in_on && !in_dc {
                assert!(!in_m, "gained {mt:?}");
            }
        }
        m
    }

    #[test]
    fn or_function_needs_two_cubes() {
        let spec = VarSpec::binary(2);
        let on = Cover::parse(&spec, "0 1\n1 0\n1 1").unwrap();
        let m = check_exact(&on, &Cover::empty(spec));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn xor3_needs_four_cubes() {
        let spec = VarSpec::binary(3);
        let mut text = String::new();
        for m in 0..8 {
            if (m as u32).count_ones() % 2 == 1 {
                for b in 0..3 {
                    text.push(if m >> b & 1 == 1 { '1' } else { '0' });
                    text.push(' ');
                }
                text.push('\n');
            }
        }
        let on = Cover::parse(&spec, &text).unwrap();
        let m = check_exact(&on, &Cover::empty(spec));
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn dc_reduces_cube_count() {
        let spec = VarSpec::binary(2);
        let on = Cover::parse(&spec, "0 0\n1 1").unwrap();
        let dc = Cover::parse(&spec, "0 1").unwrap();
        // With 01 free, {00,01} merge into 0- and 11 stays: 2 cubes; in
        // fact 0- + 11 is minimal (2) vs 2 without dc as well, so use a
        // stronger case: dc covering everything else gives 1 cube.
        let dc_all = Cover::parse(&spec, "0 1\n1 0").unwrap();
        let m = check_exact(&on, &dc_all);
        assert_eq!(m.len(), 1);
        let m2 = check_exact(&on, &dc);
        assert!(m2.len() <= 2);
    }

    #[test]
    fn heuristic_never_beats_exact() {
        let spec = VarSpec::new(vec![2, 2, 3]);
        let on = Cover::parse(&spec, "10 11 110\n01 10 011\n11 01 101\n10 01 100").unwrap();
        let dc = Cover::parse(&spec, "01 01 010").unwrap();
        let exact = check_exact(&on, &dc);
        let heur = minimize(&on, &dc, None);
        assert!(heur.len() >= exact.len());
    }

    #[test]
    fn multivalued_merging() {
        // One 4-valued variable: parts {0,1} and {2,3} asserted separately
        // merge into the full literal.
        let spec = VarSpec::new(vec![4, 2]);
        let on = Cover::parse(&spec, "1100 01\n0011 01").unwrap();
        let m = check_exact(&on, &Cover::empty(spec));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn empty_on_set() {
        let spec = VarSpec::binary(2);
        let m = exact_minimize(&Cover::empty(spec.clone()), &Cover::empty(spec));
        assert!(m.is_empty());
    }
}
