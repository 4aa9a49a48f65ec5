//! Validity and maximal raising of encoding-dichotomies with respect to
//! output constraints (Definitions 3.6, 6.1, 6.2 and Figure 5).

use crate::lattice::RaiseAtom;
use crate::{ConstraintSet, Dichotomy};

/// Tests whether a dichotomy violates any output constraint
/// (Definition 3.6). The conditions are *monotone*: once violated, no
/// raising can repair a dichotomy, so invalid dichotomies may be deleted at
/// any stage.
///
/// * Dominance `a > b` (including the dominances implied by disjunctive
///   constraints): violated when `a` is in the left block and `b` in the
///   right block (bit 0 cannot cover bit 1).
/// * Disjunctive `p = ⋁ children`: violated when `p` is in the right block
///   while every child is in the left block (1 ≠ OR of 0s).
/// * Extended disjunctive `⋁ᵢ ⋀ conjᵢ >= p`: violated when `p` is in the
///   right block while every conjunction has a child in the left block.
///
/// # Examples
///
/// ```
/// use ioenc_core::{is_valid, ConstraintSet, Dichotomy};
///
/// let cs = ConstraintSet::parse(&["s0", "s1", "s5"], "s0>s1").unwrap();
/// // (s0; s1 s5) puts s0 at 0 and s1 at 1: s0 cannot cover s1.
/// let d = Dichotomy::from_blocks(3, [0], [1, 2]);
/// assert!(!is_valid(&d, &cs));
/// assert!(is_valid(&d.flipped(), &cs));
/// ```
pub fn is_valid(d: &Dichotomy, cs: &ConstraintSet) -> bool {
    for (a, b) in cs.all_dominances() {
        if d.in_left(a) && d.in_right(b) {
            return false;
        }
    }
    for (parent, children) in cs.disjunctives() {
        if d.in_right(parent) && children.iter().all(|&c| d.in_left(c)) {
            return false;
        }
    }
    for (parent, conjunctions) in cs.extended_disjunctives() {
        if d.in_right(parent)
            && conjunctions
                .iter()
                .all(|conj| conj.iter().any(|&s| d.in_left(s)))
        {
            return false;
        }
    }
    true
}

/// Maximally raises a dichotomy (Definition 6.2, procedure
/// `raise_dichotomy` of Figure 5): repeatedly inserts the symbols implied
/// by the output constraints until a fixpoint.
///
/// Rules applied to fixpoint (with `a > b` ranging over explicit and
/// implied dominances):
///
/// * `a ∈ left  ⇒ b ∈ left` (a 0 forces its dominated codes to 0);
/// * `b ∈ right ⇒ a ∈ right`;
/// * disjunctive `p = ⋁ c`: all children left ⇒ `p` left; `p` right with
///   all children but one left ⇒ last child right;
/// * extended `⋁ ⋀ >= p`: every conjunction has a left child ⇒ `p` left;
///   `p` right with all conjunctions but one killed ⇒ the surviving
///   conjunction's children all right.
///
/// Returns `None` when an implied insertion conflicts with the other block
/// — the dichotomy is invalid and must be deleted (Theorem 6.1).
pub fn raise_dichotomy(d: &Dichotomy, cs: &ConstraintSet) -> Option<Dichotomy> {
    raise_dichotomy_traced(d, cs, &mut |_| {})
}

/// [`raise_dichotomy`] with a derivation trace: `trace` receives the
/// [`RaiseAtom`] of every rule that fires (changes the partial dichotomy)
/// or derives the conflict behind a `None` return.
///
/// The trace is what makes raises reusable across constraint deltas
/// (see [`lattice`](crate::lattice)): removing a constraint whose atom
/// never fired leaves the recorded derivation — and hence the fixpoint —
/// untouched. Rules whose conclusions already held are *not* recorded;
/// that is conservative, since a rule that never changed anything cannot
/// have shaped the result.
pub(crate) fn raise_dichotomy_traced(
    d: &Dichotomy,
    cs: &ConstraintSet,
    trace: &mut dyn FnMut(RaiseAtom),
) -> Option<Dichotomy> {
    let mut d = d.clone();
    loop {
        let mut changed = false;
        for (a, b) in cs.all_dominances() {
            if d.in_left(a) && !d.in_left(b) {
                trace(RaiseAtom::Dominance(a, b));
                if !d.insert_left(b) {
                    return None;
                }
                changed = true;
            }
            if d.in_right(b) && !d.in_right(a) {
                trace(RaiseAtom::Dominance(a, b));
                if !d.insert_right(a) {
                    return None;
                }
                changed = true;
            }
        }
        for (parent, children) in cs.disjunctives() {
            if children.iter().all(|&c| d.in_left(c)) && !d.in_left(parent) {
                trace(RaiseAtom::Disjunctive(parent, children.to_vec()));
                if !d.insert_left(parent) {
                    return None;
                }
                changed = true;
            }
            if d.in_right(parent) {
                let unassigned_or_right: Vec<usize> = children
                    .iter()
                    .copied()
                    .filter(|&c| !d.in_left(c))
                    .collect();
                if unassigned_or_right.len() == 1 && !d.in_right(unassigned_or_right[0]) {
                    trace(RaiseAtom::Disjunctive(parent, children.to_vec()));
                    if !d.insert_right(unassigned_or_right[0]) {
                        return None;
                    }
                    changed = true;
                }
                if unassigned_or_right.is_empty() {
                    trace(RaiseAtom::Disjunctive(parent, children.to_vec()));
                    return None; // 1 = OR of 0s
                }
            }
        }
        for (parent, conjunctions) in cs.extended_disjunctives() {
            let killed = |conj: &[usize]| conj.iter().any(|&s| d.in_left(s));
            if conjunctions.iter().all(|c| killed(c)) {
                if d.in_right(parent) {
                    trace(RaiseAtom::Extended(parent, conjunctions.to_vec()));
                    return None;
                }
                if !d.in_left(parent) {
                    trace(RaiseAtom::Extended(parent, conjunctions.to_vec()));
                    d.insert_left(parent);
                    changed = true;
                }
            } else if d.in_right(parent) {
                let alive: Vec<&Vec<usize>> = conjunctions.iter().filter(|c| !killed(c)).collect();
                if alive.len() == 1 {
                    for &s in alive[0] {
                        if !d.in_right(s) {
                            trace(RaiseAtom::Extended(parent, conjunctions.to_vec()));
                            if !d.insert_right(s) {
                                return None;
                            }
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    debug_assert!(is_valid(&d, cs));
    Some(d)
}

/// Filters to the valid dichotomies, maximally raised; invalid ones are
/// dropped (the `D` set of Theorem 6.1). The result is deduplicated.
pub(crate) fn raised_valid(dichotomies: &[Dichotomy], cs: &ConstraintSet) -> Vec<Dichotomy> {
    let mut out: Vec<Dichotomy> = dichotomies
        .iter()
        .filter(|d| is_valid(d, cs))
        .filter_map(|d| raise_dichotomy(d, cs))
        .collect();
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure_4_constraints() -> ConstraintSet {
        let names = ["s0", "s1", "s2", "s3", "s4", "s5"];
        ConstraintSet::parse(
            &names,
            "(s1,s5)\n(s2,s5)\n(s4,s5)\n\
             s0>s1\ns0>s2\ns0>s3\ns0>s5\ns1>s3\ns2>s3\ns4>s5\ns5>s2\ns5>s3\n\
             s0=s1|s2",
        )
        .unwrap()
    }

    #[test]
    fn figure_4_invalid_dichotomy_deleted() {
        let cs = figure_4_constraints();
        // (s0; s1 s5) conflicts with s0 > s1.
        let d = Dichotomy::from_blocks(6, [0], [1, 5]);
        assert!(!is_valid(&d, &cs));
        // (s1 s5; s0) is valid.
        assert!(is_valid(&d.flipped(), &cs));
    }

    #[test]
    fn figure_4_raising_example() {
        // The paper raises (s1; s2 s5) to (s1 s3; s0 s2 s4 s5).
        let cs = figure_4_constraints();
        let d = Dichotomy::from_blocks(6, [1], [2, 5]);
        let raised = raise_dichotomy(&d, &cs).expect("valid");
        assert_eq!(raised, Dichotomy::from_blocks(6, [1, 3], [0, 2, 4, 5]));
    }

    #[test]
    fn figure_4_all_raised_dichotomies() {
        // The paper lists 6 raised dichotomies for Figure 4.
        let cs = figure_4_constraints();
        let initial = crate::initial_dichotomies(&cs, false);
        let raised = raised_valid(&initial, &cs);
        let expected = [
            Dichotomy::from_blocks(6, [1, 3], [0, 2, 4, 5]),
            Dichotomy::from_blocks(6, [2, 3], [0, 1, 4, 5]),
            Dichotomy::from_blocks(6, [2, 3, 4, 5], [0, 1]),
            Dichotomy::from_blocks(6, [0, 1, 2, 3, 5], [4]),
            Dichotomy::from_blocks(6, [2, 3, 5], [0, 1]),
            Dichotomy::from_blocks(6, [2, 3, 5], [4]),
        ];
        for e in &expected {
            assert!(raised.contains(e), "missing raised dichotomy {e:?}");
        }
        // The figure's list is illustrative, not exhaustive; the fixpoint
        // also yields a few valid raised dichotomies with only s3 in the
        // left block. All results must be valid and raise-closed.
        for d in &raised {
            assert!(is_valid(d, &cs));
            assert_eq!(raise_dichotomy(d, &cs).as_ref(), Some(d));
        }
    }

    #[test]
    fn disjunctive_all_children_left_forces_parent_left() {
        let cs = ConstraintSet::parse(&["p", "a", "b"], "p=a|b").unwrap();
        let d = Dichotomy::from_blocks(3, [1, 2], []);
        let raised = raise_dichotomy(&d, &cs).unwrap();
        assert!(raised.in_left(0));
    }

    #[test]
    fn disjunctive_parent_right_forces_last_child_right() {
        let cs = ConstraintSet::parse(&["p", "a", "b"], "p=a|b").unwrap();
        let d = Dichotomy::from_blocks(3, [1], [0]);
        let raised = raise_dichotomy(&d, &cs).unwrap();
        assert!(raised.in_right(2));
    }

    #[test]
    fn disjunctive_conflict_is_detected() {
        let cs = ConstraintSet::parse(&["p", "a", "b"], "p=a|b").unwrap();
        // p at 1 with both children at 0 is hopeless.
        let d = Dichotomy::from_blocks(3, [1, 2], [0]);
        assert!(!is_valid(&d, &cs));
        assert!(raise_dichotomy(&d, &cs).is_none());
    }

    #[test]
    fn implied_dominance_from_disjunctive() {
        // p = a ∨ b implies p > a: p left forces a left.
        let cs = ConstraintSet::parse(&["p", "a", "b"], "p=a|b").unwrap();
        let d = Dichotomy::from_blocks(3, [0], []);
        let raised = raise_dichotomy(&d, &cs).unwrap();
        assert!(raised.in_left(1) && raised.in_left(2));
    }

    #[test]
    fn extended_raising_rules() {
        let names = ["a", "b", "c", "d", "e"];
        let cs = ConstraintSet::parse(&names, "(b&c)|(d&e)>=a").unwrap();
        // Both conjunctions killed → parent forced left.
        let d = Dichotomy::from_blocks(5, [1, 3], []);
        let raised = raise_dichotomy(&d, &cs).unwrap();
        assert!(raised.in_left(0));
        // Parent right, first conjunction killed → d and e forced right.
        let d = Dichotomy::from_blocks(5, [1], [0]);
        let raised = raise_dichotomy(&d, &cs).unwrap();
        assert!(raised.in_right(3) && raised.in_right(4));
        // Parent right, all conjunctions killed → invalid.
        let d = Dichotomy::from_blocks(5, [1, 3], [0]);
        assert!(raise_dichotomy(&d, &cs).is_none());
    }

    #[test]
    fn raising_is_idempotent() {
        let cs = figure_4_constraints();
        let initial = crate::initial_dichotomies(&cs, false);
        for d in initial.iter().filter(|d| is_valid(d, &cs)) {
            if let Some(r) = raise_dichotomy(d, &cs) {
                assert_eq!(raise_dichotomy(&r, &cs), Some(r.clone()));
            }
        }
    }
}
