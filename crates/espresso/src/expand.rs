//! The `expand` step: grow each cube into a maximal cube disjoint from the
//! off-set, dropping cubes that become covered.

use ioenc_cube::{Cover, Cube};

/// Expands every cube of `f` against `off`.
///
/// Each cube is grown part-by-part: a cleared part bit may be raised when
/// the raised cube still does not intersect any off-set cube. Raising order
/// prefers bits that occur in many of the still-unexpanded cubes, which
/// maximizes the chance that expansion covers (and thus deletes) other
/// cubes. The result contains only maximally-expanded cubes with contained
/// cubes removed.
pub fn expand(f: &Cover, off: &Cover) -> Cover {
    let spec = f.spec();
    let mut cubes: Vec<Cube> = f.cubes().to_vec();
    // Most specific cubes first: they benefit most from expansion and their
    // expansion is most likely to swallow others.
    cubes.sort_by_key(|c| c.bits().count());
    let mut covered = vec![false; cubes.len()];
    let mut result = Cover::empty(spec.clone());
    let mut freq = vec![0usize; spec.total_bits()];

    for i in 0..cubes.len() {
        if covered[i] {
            continue;
        }
        let mut cube = cubes[i].clone();
        // Candidate bits, ordered by how often they appear in the remaining
        // uncovered cubes (descending).
        let mut free: Vec<usize> = cube.bits().complement().iter().collect();
        freq.fill(0);
        for (j, c) in cubes.iter().enumerate() {
            if j != i && !covered[j] {
                c.bits().for_each_set(|b| freq[b] += 1);
            }
        }
        free.sort_by_key(|&b| std::cmp::Reverse(freq[b]));
        // A cube that already meets the off-set cannot grow: every raised
        // cube would meet it too.
        if disjoint_from_cover(&cube, off) {
            // Greedy raising loop: keep sweeping until no bit can be raised.
            // The cube is disjoint from the off-set before each raise, so
            // only off-set cubes holding the raised bit can meet it after.
            loop {
                let mut raised = false;
                free.retain(|&b| {
                    let (v, p) = spec.locate(b);
                    cube.set_part(spec, v, p);
                    let conflict = off
                        .cubes()
                        .iter()
                        .any(|o| o.bits().contains(b) && cube.intersects(spec, o));
                    if conflict {
                        cube.clear_part(spec, v, p);
                    }
                    raised |= !conflict;
                    conflict
                });
                if !raised {
                    break;
                }
            }
        }
        // Mark every cube the expanded prime now covers.
        for (j, c) in cubes.iter().enumerate() {
            if !covered[j] && cube.contains(c) {
                covered[j] = true;
            }
        }
        result.push(cube);
    }
    result.single_cube_containment();
    result
}

fn disjoint_from_cover(cube: &Cube, off: &Cover) -> bool {
    off.cubes().iter().all(|o| !cube.intersects(off.spec(), o))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioenc_cube::VarSpec;

    #[test]
    fn expands_to_prime() {
        let spec = VarSpec::binary(2);
        // f = minterm 11, off = nothing → expands to the universe.
        let on = Cover::parse(&spec, "1 1").unwrap();
        let off = Cover::empty(spec.clone());
        let e = expand(&on, &off);
        assert_eq!(e.len(), 1);
        assert!(e.cubes()[0].is_universe(&spec));
    }

    #[test]
    fn expansion_blocked_by_off_set() {
        let spec = VarSpec::binary(2);
        let on = Cover::parse(&spec, "1 1").unwrap();
        let off = Cover::parse(&spec, "0 0").unwrap();
        let e = expand(&on, &off);
        assert_eq!(e.len(), 1);
        let c = &e.cubes()[0];
        // Must not contain minterm 00 but should have grown beyond 11.
        assert!(!c.contains_minterm(&spec, &[0, 0]));
        assert!(c.contains_minterm(&spec, &[1, 1]));
        assert!(c.bits().count() > 2);
    }

    #[test]
    fn expansion_swallows_covered_cubes() {
        let spec = VarSpec::binary(2);
        let on = Cover::parse(&spec, "0 1\n1 1").unwrap();
        let off = Cover::parse(&spec, "0 0\n1 0").unwrap();
        let e = expand(&on, &off);
        // Both minterms expand to the single prime -1.
        assert_eq!(e.len(), 1);
        assert_eq!(e.cubes()[0].display(&spec), "11 01");
    }

    #[test]
    fn result_stays_disjoint_from_off() {
        let spec = VarSpec::binary(3);
        let on = Cover::parse(&spec, "0 0 0\n1 1 1\n0 1 0").unwrap();
        let off = Cover::parse(&spec, "1 0 -\n- 0 1").unwrap();
        let e = expand(&on, &off);
        for c in e.cubes() {
            for o in off.cubes() {
                assert!(c.distance(&spec, o) > 0, "expanded cube hits off-set");
            }
        }
        // Every original on-cube is covered by the expansion.
        for c in on.cubes() {
            assert!(e.cubes().iter().any(|p| p.contains(c)));
        }
    }
}
