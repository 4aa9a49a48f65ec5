//! Input (face) constraint generation by multiple-valued minimization.

use ioenc_core::ConstraintSet;
use ioenc_cube::{Cover, Cube, VarSpec};
use ioenc_espresso::minimize;
use ioenc_kiss::Fsm;
use std::collections::BTreeSet;

/// Generates the face-embedding constraints of an FSM by minimizing its
/// symbolic transition table as a multiple-valued function (the ESPRESSO-MV
/// step of the paper's flow).
///
/// The table is modelled with the inputs as binary variables, the present
/// state as one `n`-valued variable and a single output variable whose
/// parts are the one-hot next state followed by the primary outputs. After
/// minimization, every cube whose present-state literal groups two or more
/// (but not all) states yields one face constraint on those states: an
/// encoding placing the group on a private face lets the encoded cover
/// express the cube with a single product term (Section 1).
///
/// Unspecified primary outputs (`-`) become don't-care conditions; the
/// machines produced by [`ioenc_kiss::generate`] are completely specified
/// and deterministic, so the off-set is written down directly instead of
/// being computed by complementation.
///
/// # Panics
///
/// Panics if the FSM has no transitions for some reachable minimization
/// corner case (the `ioenc-kiss` generator never produces such machines).
pub fn input_constraints(fsm: &Fsm) -> ConstraintSet {
    let ns = fsm.num_states();
    let names: Vec<String> = fsm.state_names().to_vec();
    let mut cs = ConstraintSet::with_names(names);
    if ns < 3 {
        // With fewer than 3 states every non-trivial group is "all states".
        return cs;
    }
    let (spec, on, dc, off) = build_covers(fsm);
    let minimized = minimize(&on, &dc, Some(&off));
    let ps_var = fsm.num_inputs();
    let mut groups: BTreeSet<Vec<usize>> = BTreeSet::new();
    for cube in minimized.cubes() {
        let group: Vec<usize> = (0..ns).filter(|&s| cube.part(&spec, ps_var, s)).collect();
        if group.len() >= 2 && group.len() < ns {
            groups.insert(group);
        }
    }
    for g in groups {
        cs.add_face(g);
    }
    cs
}

/// Like [`input_constraints`] but with *encoding don't cares*
/// (Section 8.1): for each minimized cube, the states whose on-set
/// transitions actually contribute minterms form the *reduced* implicant
/// and become the face members; the remaining states of the cube's
/// (expanded) present-state literal are free to join the face or not, and
/// are emitted as the constraint's don't cares. This mirrors how MIS-MV
/// derives don't cares from the gap between reduced and expanded
/// implicants.
pub fn input_constraints_with_dc(fsm: &Fsm) -> ConstraintSet {
    let ns = fsm.num_states();
    let names: Vec<String> = fsm.state_names().to_vec();
    let mut cs = ConstraintSet::with_names(names);
    if ns < 3 {
        return cs;
    }
    let (spec, on, dc, off) = build_covers(fsm);
    let minimized = minimize(&on, &dc, Some(&off));
    let ps_var = fsm.num_inputs();
    let mut groups: BTreeSet<(Vec<usize>, Vec<usize>)> = BTreeSet::new();
    for cube in minimized.cubes() {
        let expanded: Vec<usize> = (0..ns).filter(|&s| cube.part(&spec, ps_var, s)).collect();
        if expanded.len() < 2 || expanded.len() == ns {
            continue;
        }
        // Reduced implicant: the states that contribute on-set minterms.
        let required: Vec<usize> = expanded
            .iter()
            .copied()
            .filter(|&s| {
                on.cubes()
                    .iter()
                    .any(|t| t.part(&spec, ps_var, s) && t.intersection(&spec, cube).is_some())
            })
            .collect();
        if required.len() >= 2 {
            let dcs: Vec<usize> = expanded
                .iter()
                .copied()
                .filter(|s| !required.contains(s))
                .collect();
            groups.insert((required, dcs));
        } else {
            groups.insert((expanded, Vec::new()));
        }
    }
    for (members, dcs) in groups {
        cs.add_face_with_dc(members, dcs);
    }
    cs
}

/// Builds (spec, on, dc, off) for the symbolic table.
pub(crate) fn build_covers(fsm: &Fsm) -> (VarSpec, Cover, Cover, Cover) {
    let ni = fsm.num_inputs();
    let ns = fsm.num_states();
    let no = fsm.num_outputs();
    let mut parts = vec![2; ni];
    parts.push(ns.max(2));
    parts.push((ns + no).max(2));
    let spec = VarSpec::new(parts);
    let ps_var = ni;
    let out_var = ni + 1;

    let mut on = Cover::empty(spec.clone());
    let mut dc = Cover::empty(spec.clone());
    let mut off = Cover::empty(spec.clone());
    for t in fsm.transitions() {
        let mut base = Cube::universe(&spec);
        for (v, lit) in t.input.iter().enumerate() {
            match lit {
                Some(false) => base.clear_part(&spec, v, 1),
                Some(true) => base.clear_part(&spec, v, 0),
                None => {}
            }
        }
        for s in 0..spec.parts(ps_var) {
            if s != t.from {
                base.clear_part(&spec, ps_var, s);
            }
        }
        // ON: next state plus asserted outputs.
        let mut on_cube = base.clone();
        for p in 0..spec.parts(out_var) {
            on_cube.clear_part(&spec, out_var, p);
        }
        on_cube.set_part(&spec, out_var, t.to);
        for (j, o) in t.output.iter().enumerate() {
            if *o == Some(true) {
                on_cube.set_part(&spec, out_var, ns + j);
            }
        }
        on.push(on_cube);
        // DC: unspecified outputs.
        let dc_parts: Vec<usize> = t
            .output
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_none())
            .map(|(j, _)| ns + j)
            .collect();
        if !dc_parts.is_empty() {
            let mut dc_cube = base.clone();
            for p in 0..spec.parts(out_var) {
                dc_cube.clear_part(&spec, out_var, p);
            }
            for p in dc_parts {
                dc_cube.set_part(&spec, out_var, p);
            }
            dc.push(dc_cube);
        }
        // OFF: the other next states plus outputs at 0 (plus any padding
        // parts of a widened output variable).
        let mut off_cube = base;
        for p in 0..spec.parts(out_var) {
            off_cube.clear_part(&spec, out_var, p);
        }
        let mut any = false;
        for s in 0..ns {
            if s != t.to {
                off_cube.set_part(&spec, out_var, s);
                any = true;
            }
        }
        for (j, o) in t.output.iter().enumerate() {
            if *o == Some(false) {
                off_cube.set_part(&spec, out_var, ns + j);
                any = true;
            }
        }
        if any {
            off.push(off_cube);
        }
    }
    (spec, on, dc, off)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioenc_kiss::{generate, BenchmarkSpec, Transition};

    /// A machine where states a and b behave identically on input 0 (both
    /// go to c with the same output) and differ on input 1.
    fn shared_behavior_fsm() -> Fsm {
        let mut fsm = Fsm::new(
            "shared",
            1,
            1,
            vec!["a".into(), "b".into(), "c".into(), "d".into()],
        );
        let t = |input: bool, from: usize, to: usize, out: bool| Transition {
            input: vec![Some(input)],
            from,
            to,
            output: vec![Some(out)],
        };
        fsm.add_transition(t(false, 0, 2, true));
        fsm.add_transition(t(false, 1, 2, true));
        fsm.add_transition(t(true, 0, 3, false));
        fsm.add_transition(t(true, 1, 0, false));
        fsm.add_transition(t(false, 2, 2, false));
        fsm.add_transition(t(true, 2, 3, false));
        fsm.add_transition(t(false, 3, 0, false));
        fsm.add_transition(t(true, 3, 1, true));
        fsm
    }

    #[test]
    fn shared_behavior_becomes_a_face_constraint() {
        let fsm = shared_behavior_fsm();
        let cs = input_constraints(&fsm);
        // The minimizer merges the two transitions (0, a → c, 1) and
        // (0, b → c, 1) into one cube with present-state literal {a, b}.
        let has_ab = cs.faces().iter().any(|f| {
            let g: Vec<usize> = f.members.iter().collect();
            g == vec![0, 1]
        });
        assert!(has_ab, "expected face (a, b); got:\n{cs}");
    }

    #[test]
    fn constraints_reference_valid_symbols() {
        let fsm = generate(&BenchmarkSpec::sized("t", 12));
        let cs = input_constraints(&fsm);
        assert_eq!(cs.num_symbols(), 12);
        for f in cs.faces() {
            assert!(f.members.count() >= 2);
            assert!(f.members.count() < 12);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let fsm = generate(&BenchmarkSpec::sized("t", 10));
        let a = input_constraints(&fsm).to_string();
        let b = input_constraints(&fsm).to_string();
        assert_eq!(a, b);
    }

    #[test]
    fn clustered_machines_produce_faces() {
        let fsm = generate(&BenchmarkSpec {
            cluster_size: 3,
            shared_behaviors: 2,
            ..BenchmarkSpec::sized("clustered", 12)
        });
        let cs = input_constraints(&fsm);
        assert!(
            !cs.faces().is_empty(),
            "clustered machines must yield face constraints"
        );
    }

    #[test]
    fn minimized_cover_is_consistent_with_on_off() {
        // The minimized cover must cover ON and avoid OFF; spot-check by
        // containment (exhaustive enumeration is too big).
        let fsm = shared_behavior_fsm();
        let (spec, on, dc, off) = build_covers(&fsm);
        let m = minimize(&on, &dc, Some(&off));
        let m_plus_dc = m.union(&dc);
        for c in on.cubes() {
            assert!(
                m_plus_dc.contains_cube(c),
                "lost on-cube {}",
                c.display(&spec)
            );
        }
        for c in m.cubes() {
            for o in off.cubes() {
                assert!(
                    c.distance(&spec, o) > 0,
                    "minimized cube {} intersects off-set",
                    c.display(&spec)
                );
            }
        }
    }

    #[test]
    fn dc_variant_produces_valid_constraints() {
        let fsm = generate(&BenchmarkSpec::sized("dc", 12));
        let cs = input_constraints_with_dc(&fsm);
        for f in cs.faces() {
            assert!(f.members.count() >= 2);
            assert!(f.members.is_disjoint(&f.dont_cares));
        }
        // Deterministic.
        assert_eq!(
            input_constraints_with_dc(&fsm).to_string(),
            input_constraints_with_dc(&fsm).to_string()
        );
    }

    #[test]
    fn tiny_machines_have_no_constraints() {
        let mut fsm = Fsm::new("tiny", 1, 1, vec!["a".into(), "b".into()]);
        fsm.add_transition(Transition {
            input: vec![None],
            from: 0,
            to: 1,
            output: vec![Some(true)],
        });
        fsm.add_transition(Transition {
            input: vec![None],
            from: 1,
            to: 0,
            output: vec![Some(false)],
        });
        let cs = input_constraints(&fsm);
        assert!(cs.is_empty());
    }
}
