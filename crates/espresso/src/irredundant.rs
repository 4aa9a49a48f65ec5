//! The `irredundant` step: remove cubes covered by the rest of the cover
//! plus the don't-care set.

use crate::others_cofactor;
use ioenc_cube::Cover;

/// Produces an irredundant subset of `f`: no remaining cube is covered by
/// the union of the others and `dc`.
///
/// Cubes are examined largest-first so that big, expensive cubes get the
/// first chance to be declared redundant; the sequential scheme guarantees
/// the final cover is irredundant (removal order may affect *which*
/// irredundant cover is produced, as in ESPRESSO's heuristic).
pub fn irredundant(f: &Cover, dc: &Cover) -> Cover {
    let spec = f.spec().clone();
    let mut cubes = f.cubes().to_vec();
    // Largest (most general) cubes first.
    cubes.sort_by_key(|c| std::cmp::Reverse(c.bits().count()));
    let mut keep = vec![true; cubes.len()];
    for i in 0..cubes.len() {
        // Is the cube covered by everything else currently kept, plus dc?
        // (A void cube is covered, as in `Cover::contains_cube`.)
        if cubes[i].is_void(&spec)
            || others_cofactor(&spec, &cubes, i, |j| keep[j], dc).is_tautology()
        {
            keep[i] = false;
        }
    }
    let kept: Vec<_> = cubes
        .into_iter()
        .zip(keep)
        .filter_map(|(c, k)| k.then_some(c))
        .collect();
    Cover::from_cubes(spec, kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioenc_cube::VarSpec;

    #[test]
    fn removes_consensus_cube() {
        let spec = VarSpec::binary(2);
        // x0 + x0' covers the middle cube x1.
        let f = Cover::parse(&spec, "1 -\n0 -\n- 1").unwrap();
        let r = irredundant(&f, &Cover::empty(spec.clone()));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn keeps_needed_cubes() {
        let spec = VarSpec::binary(2);
        let f = Cover::parse(&spec, "1 -\n- 1").unwrap();
        let r = irredundant(&f, &Cover::empty(spec.clone()));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn dc_set_makes_cube_redundant() {
        let spec = VarSpec::binary(2);
        let f = Cover::parse(&spec, "1 1\n0 0").unwrap();
        let dc = Cover::parse(&spec, "1 -").unwrap();
        let r = irredundant(&f, &dc);
        // 1 1 is inside dc, so only 0 0 remains.
        assert_eq!(r.len(), 1);
        assert_eq!(r.cubes()[0].display(&spec), "10 10");
    }

    #[test]
    fn result_is_irredundant() {
        let spec = VarSpec::binary(3);
        let f = Cover::parse(&spec, "1 1 -\n1 - 1\n- 1 1\n1 1 1").unwrap();
        let dc = Cover::empty(spec.clone());
        let r = irredundant(&f, &dc);
        // Check no cube of the result is covered by the others.
        for i in 0..r.len() {
            let mut rest = Cover::empty(spec.clone());
            for (j, c) in r.cubes().iter().enumerate() {
                if j != i {
                    rest.push(c.clone());
                }
            }
            assert!(!rest.contains_cube(&r.cubes()[i]));
        }
        // And semantics are preserved.
        for mt in Cover::enumerate_minterms(&spec) {
            assert_eq!(f.contains_minterm(&mt), r.contains_minterm(&mt));
        }
    }
}
