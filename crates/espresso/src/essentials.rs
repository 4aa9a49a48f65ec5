//! Essential prime extraction: cubes no other part of the cover can
//! replace are removed from the iteration and restored at the end, as in
//! ESPRESSO proper.

use crate::others_cofactor;
use ioenc_cube::Cover;

/// Splits `f` into `(essential, rest)`: a cube is (relatively) essential
/// when it is not covered by the remaining cubes together with the
/// don't-care set — no minimization step could ever discard it, so it can
/// sit out the reduce/expand/irredundant loop as a don't-care.
pub fn split_essential(f: &Cover, dc: &Cover) -> (Cover, Cover) {
    let spec = f.spec().clone();
    let mut essential = Cover::empty(spec.clone());
    let mut rest = Cover::empty(spec.clone());
    for (i, cube) in f.cubes().iter().enumerate() {
        // Covered by the other cubes plus dc? (A void cube is covered, as
        // in `Cover::contains_cube`.)
        if cube.is_void(&spec) || others_cofactor(&spec, f.cubes(), i, |_| true, dc).is_tautology()
        {
            rest.push(cube.clone());
        } else {
            essential.push(cube.clone());
        }
    }
    (essential, rest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioenc_cube::VarSpec;

    #[test]
    fn lone_cube_is_essential() {
        let spec = VarSpec::binary(2);
        let f = Cover::parse(&spec, "1 1").unwrap();
        let (e, rest) = split_essential(&f, &Cover::empty(spec));
        assert_eq!(e.len(), 1);
        assert!(rest.is_empty());
    }

    #[test]
    fn consensus_covered_cube_is_not_essential() {
        let spec = VarSpec::binary(2);
        // x0 + x0' cover everything; the middle cube x1 is redundant.
        let f = Cover::parse(&spec, "1 -\n0 -\n- 1").unwrap();
        let (e, rest) = split_essential(&f, &Cover::empty(spec.clone()));
        assert_eq!(rest.len(), 1);
        assert_eq!(rest.cubes()[0].display(&spec), "11 01");
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn dc_can_make_a_cube_inessential() {
        let spec = VarSpec::binary(2);
        let f = Cover::parse(&spec, "1 1").unwrap();
        let dc = Cover::parse(&spec, "1 -").unwrap();
        let (e, rest) = split_essential(&f, &dc);
        assert!(e.is_empty());
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn xor_cubes_are_both_essential() {
        let spec = VarSpec::binary(2);
        let f = Cover::parse(&spec, "1 0\n0 1").unwrap();
        let (e, rest) = split_essential(&f, &Cover::empty(spec));
        assert_eq!(e.len(), 2);
        assert!(rest.is_empty());
    }
}
