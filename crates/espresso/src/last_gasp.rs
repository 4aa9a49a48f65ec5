//! The LAST_GASP step: a final attempt to leave the reduce/expand local
//! minimum. All cubes are reduced *independently* (not sequentially), each
//! maximally reduced cube is re-expanded, and any expansion that covers two
//! or more of the reduced cubes is offered to `irredundant` as a new prime.

use crate::{expand, irredundant, others_cofactor};
use ioenc_cube::{Cover, Cube};

/// Runs one LAST_GASP attempt; returns an improved cover or the input.
pub fn last_gasp(f: &Cover, dc: &Cover, off: &Cover) -> Cover {
    let spec = f.spec().clone();
    if f.len() < 2 {
        return f.clone();
    }
    // Order-independent maximal reduction: every cube against all others.
    let mut reduced: Vec<Cube> = Vec::new();
    for (i, c) in f.cubes().iter().enumerate() {
        let comp = others_cofactor(&spec, f.cubes(), i, |_| true, dc).complement();
        if comp.is_empty() {
            continue; // fully covered by the others
        }
        let mut sup: Option<Cube> = None;
        for q in comp.cubes() {
            sup = Some(match sup {
                None => q.clone(),
                Some(s) => s.supercube(q),
            });
        }
        if let Some(r) = sup.and_then(|s| c.intersection(&spec, &s)) {
            reduced.push(r);
        }
    }
    if reduced.len() < 2 {
        return f.clone();
    }
    // Re-expand the reduced cubes; keep expansions covering >= 2 of them.
    let reduced_cover = Cover::from_cubes(spec.clone(), reduced.clone());
    let expanded = expand(&reduced_cover, off);
    let candidates: Vec<Cube> = expanded
        .cubes()
        .iter()
        .filter(|p| reduced.iter().filter(|r| p.contains(r)).count() >= 2)
        .cloned()
        .collect();
    if candidates.is_empty() {
        return f.clone();
    }
    let mut augmented = f.clone();
    for c in candidates {
        augmented.push(c);
    }
    let improved = irredundant(&augmented, dc);
    if improved.len() < f.len() {
        improved
    } else {
        f.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioenc_cube::VarSpec;

    #[test]
    fn last_gasp_preserves_semantics() {
        let spec = VarSpec::binary(3);
        let f = Cover::parse(&spec, "1 1 -\n- 1 1\n1 - 1\n0 0 0").unwrap();
        let dc = Cover::empty(spec.clone());
        let off = f.union(&dc).complement();
        let g = last_gasp(&f, &dc, &off);
        for mt in Cover::enumerate_minterms(&spec) {
            assert_eq!(f.contains_minterm(&mt), g.contains_minterm(&mt));
        }
        assert!(g.len() <= f.len());
    }

    #[test]
    fn trivial_covers_pass_through() {
        let spec = VarSpec::binary(2);
        let f = Cover::parse(&spec, "1 1").unwrap();
        let dc = Cover::empty(spec.clone());
        let off = f.union(&dc).complement();
        assert_eq!(last_gasp(&f, &dc, &off), f);
    }

    #[test]
    fn never_worse() {
        let spec = VarSpec::new(vec![2, 3]);
        let f = Cover::parse(&spec, "10 110\n01 011\n11 100").unwrap();
        let dc = Cover::parse(&spec, "10 001").unwrap();
        let off = f.union(&dc).complement();
        let g = last_gasp(&f, &dc, &off);
        assert!(g.len() <= f.len());
        for mt in Cover::enumerate_minterms(&spec) {
            let before = f.contains_minterm(&mt) || dc.contains_minterm(&mt);
            let after = g.contains_minterm(&mt) || dc.contains_minterm(&mt);
            assert_eq!(before, after);
        }
    }
}
