//! The `reduce` step: shrink each cube to the smallest cube still covering
//! the minterms no other cube (or don't-care) covers, so a later `expand`
//! can escape local minima.

use crate::others_cofactor;
use ioenc_cube::{Cover, Cube};

/// Reduces every cube of `f` in place against the rest of the cover and
/// `dc`.
///
/// For each cube `c` the maximally reduced replacement is
/// `c ∩ supercube(¬((F \ {c} ∪ D) cofactored by c))`; a cube whose
/// replacement is void (it was entirely covered by the others) is dropped.
/// Reduction preserves the function `F ∪ D`.
pub fn reduce(f: &Cover, dc: &Cover) -> Cover {
    let spec = f.spec().clone();
    let mut cubes = f.cubes().to_vec();
    // Largest cubes first, as in ESPRESSO: they have the most room to
    // shrink, freeing space for the rest.
    cubes.sort_by_key(|c| std::cmp::Reverse(c.bits().count()));
    let mut i = 0;
    while i < cubes.len() {
        let comp = others_cofactor(&spec, &cubes, i, |_| true, dc).complement();
        if comp.is_empty() {
            // c is covered by the others: drop it.
            cubes.remove(i);
            continue;
        }
        let mut sup: Option<Cube> = None;
        for q in comp.cubes() {
            sup = Some(match sup {
                None => q.clone(),
                Some(s) => s.supercube(q),
            });
        }
        // comp was checked non-empty above, so `sup` is always `Some`.
        if let Some(sup) = sup {
            if let Some(reduced) = cubes[i].intersection(&spec, &sup) {
                cubes[i] = reduced;
            }
        }
        i += 1;
    }
    Cover::from_cubes(spec, cubes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioenc_cube::VarSpec;

    #[test]
    fn reduce_preserves_function() {
        let spec = VarSpec::binary(3);
        let f = Cover::parse(&spec, "1 1 -\n- 1 1\n1 - 1").unwrap();
        let dc = Cover::empty(spec.clone());
        let r = reduce(&f, &dc);
        for mt in Cover::enumerate_minterms(&spec) {
            assert_eq!(f.contains_minterm(&mt), r.contains_minterm(&mt));
        }
    }

    #[test]
    fn fully_covered_cube_is_dropped() {
        let spec = VarSpec::binary(2);
        let f = Cover::parse(&spec, "- 1\n1 -\n0 -").unwrap();
        let dc = Cover::empty(spec.clone());
        let r = reduce(&f, &dc);
        // The cover is a tautology made of x0 + x0'; the x1 cube reduces to
        // nothing.
        assert!(r.len() <= 2);
        for mt in Cover::enumerate_minterms(&spec) {
            assert_eq!(f.contains_minterm(&mt), r.contains_minterm(&mt));
        }
    }

    #[test]
    fn overlapping_cubes_shrink() {
        let spec = VarSpec::binary(2);
        // Two overlapping cubes 1- and -1; one of them gives up the shared
        // minterm 11.
        let f = Cover::parse(&spec, "1 -\n- 1").unwrap();
        let dc = Cover::empty(spec.clone());
        let r = reduce(&f, &dc);
        let total_bits: usize = r.cubes().iter().map(|c| c.bits().count()).sum();
        let before: usize = f.cubes().iter().map(|c| c.bits().count()).sum();
        assert!(total_bits < before, "reduction should shrink something");
        for mt in Cover::enumerate_minterms(&spec) {
            assert_eq!(f.contains_minterm(&mt), r.contains_minterm(&mt));
        }
    }

    #[test]
    fn dc_allows_deeper_reduction() {
        let spec = VarSpec::binary(2);
        let f = Cover::parse(&spec, "- 1").unwrap();
        let dc = Cover::parse(&spec, "1 1").unwrap();
        let r = reduce(&f, &dc);
        assert_eq!(r.len(), 1);
        // Cube may shrink to 01 because 11 is don't-care.
        assert!(r.cubes()[0].contains_minterm(&spec, &[0, 1]));
    }
}
