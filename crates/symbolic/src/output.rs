//! Output (dominance and disjunctive) constraint generation.

use crate::input_constraints;
use ioenc_core::{check_feasible, initial_dichotomies, raise_dichotomy, ConstraintSet, Dichotomy};
use ioenc_kiss::Fsm;

/// How many output constraints to derive (the paper's Table 1 machines
/// range from nine dominances and no disjunctives for `planet` to rich
/// mixed sets).
#[derive(Debug, Clone)]
pub struct OutputProfile {
    /// Maximum dominance constraints to keep.
    pub max_dominance: usize,
    /// Maximum disjunctive constraints to keep.
    pub max_disjunctive: usize,
}

impl Default for OutputProfile {
    fn default() -> Self {
        OutputProfile {
            max_dominance: 12,
            max_disjunctive: 3,
        }
    }
}

/// Generates a feasible mixed constraint set: the face constraints of
/// [`input_constraints`] plus dominance and disjunctive output constraints
/// derived from the transition structure, standing in for the extended
/// DeMicheli procedure the paper uses for Table 1 (see DESIGN.md).
///
/// Dominance candidates `a > b` are scored by shared predecessors and
/// output agreement — exactly the situations where letting `code(a)` cover
/// `code(b)` enlarges the don't-care set of the next-state logic.
/// Disjunctive candidates `p = a ∨ b` are scored by how completely `p`'s
/// predecessors also reach `a` and `b`. Candidates are admitted greedily in
/// score order, each guarded by the polynomial feasibility check of
/// Theorem 6.1 so the emitted set is always satisfiable (as the paper's
/// encoded benchmarks are).
pub fn mixed_constraints(fsm: &Fsm, profile: &OutputProfile) -> ConstraintSet {
    output_constraints(fsm, input_constraints(fsm), profile)
}

/// Extends an already-extracted face-constraint set with dominance and
/// disjunctive output constraints (the second half of
/// [`mixed_constraints`], split out so the `ioenc synth` pipeline can run
/// face extraction and output-constraint admission as separate resumable
/// stages). `cs` is typically [`input_constraints`]`(fsm)` — possibly
/// round-tripped through its textual artifact — and every admitted
/// candidate is feasibility-guarded exactly as in [`mixed_constraints`].
pub fn output_constraints(fsm: &Fsm, cs: ConstraintSet, profile: &OutputProfile) -> ConstraintSet {
    let mut cs = cs;
    let ns = fsm.num_states();
    if ns < 3 {
        return cs;
    }

    // Predecessor sets and output signatures.
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); ns];
    for t in fsm.transitions() {
        if !preds[t.to].contains(&t.from) {
            preds[t.to].push(t.from);
        }
    }
    let out_ones: Vec<u64> = (0..ns)
        .map(|s| {
            let mut sig = 0u64;
            for t in fsm.transitions_into(s) {
                for (j, o) in t.output.iter().enumerate() {
                    if *o == Some(true) && j < 64 {
                        sig |= 1 << j;
                    }
                }
            }
            sig
        })
        .collect();

    // Dominance candidates.
    let mut dom: Vec<(usize, usize, usize)> = Vec::new(); // (score, a, b)
    for a in 0..ns {
        for b in 0..ns {
            if a == b {
                continue;
            }
            let shared = preds[a].iter().filter(|p| preds[b].contains(p)).count();
            if shared == 0 {
                continue;
            }
            let (sig_a, sig_b) = (out_ones[a], out_ones[b]);
            // a > b pays off when a's asserted outputs cover b's.
            let covers = (sig_a | sig_b) == sig_a;
            let score = shared * 2 + usize::from(covers) * 3 + preds[a].len();
            dom.push((score, a, b));
        }
    }
    dom.sort_by_key(|&(score, a, b)| (std::cmp::Reverse(score), a, b));
    let mut admission = Admission::new(&cs);
    let mut taken = 0;
    for (attempts, &(_, a, b)) in dom.iter().enumerate() {
        if taken >= profile.max_dominance || attempts >= 4 * profile.max_dominance + 16 {
            break;
        }
        // Skip inverses of already-taken pairs (a cycle forces equal codes).
        if cs.dominances().contains(&(b, a)) || cs.dominances().contains(&(a, b)) {
            continue;
        }
        let mut trial = cs.clone();
        trial.add_dominance(a, b);
        // `a > b` fires where `a` is at 0 and `b` is not, or `b` is at 1
        // and `a` is not.
        if admission.admit(&trial, |d| {
            (d.in_left(a) && !d.in_left(b)) || (d.in_right(b) && !d.in_right(a))
        }) {
            cs = trial;
            taken += 1;
        }
    }

    // Disjunctive candidates p = a ∨ b.
    let mut disj: Vec<(usize, usize, usize, usize)> = Vec::new();
    for p in 0..ns {
        if preds[p].len() < 2 {
            continue;
        }
        for a in 0..ns {
            for b in (a + 1)..ns {
                if a == p || b == p {
                    continue;
                }
                let joined = preds[p]
                    .iter()
                    .filter(|q| preds[a].contains(q) || preds[b].contains(q))
                    .count();
                if joined < 2 {
                    continue;
                }
                disj.push((joined, p, a, b));
            }
        }
    }
    disj.sort_by_key(|&(score, p, a, b)| (std::cmp::Reverse(score), p, a, b));
    let mut taken = 0;
    let mut used_parents: Vec<usize> = Vec::new();
    for (attempts, &(_, p, a, b)) in disj.iter().enumerate() {
        if taken >= profile.max_disjunctive || attempts >= 6 * profile.max_disjunctive + 10 {
            break;
        }
        if used_parents.contains(&p) {
            continue;
        }
        let mut trial = cs.clone();
        trial.add_disjunctive(p, [a, b]);
        // Every rule of `p = a ∨ b` (and of its implied `p > a`, `p > b`)
        // needs one of its three symbols assigned.
        if admission.admit(&trial, |d| d.assigns(p) || d.assigns(a) || d.assigns(b)) {
            cs = trial;
            used_parents.push(p);
            taken += 1;
        }
    }
    debug_assert!(check_feasible(&cs).is_feasible());
    cs
}

/// Theorem 6.1's feasibility check (P-1), kept across the candidates of
/// one machine instead of rerun from scratch for each.
///
/// The initial dichotomies depend only on the faces, so they are built
/// once; the state holds the maximal raise of each under the admitted
/// constraints. A candidate re-raises only the entries on which one of its
/// own rules can fire, resuming from the stored fixpoint: raising is a
/// monotone closure, so the raise under `S ∪ A` of the raise under `S` is
/// the raise under `S ∪ A` (DESIGN.md §6j).
struct Admission {
    /// `raised[k]`: the maximal raise of initial dichotomy `k`, or `None`
    /// once raising it conflicts (it is then invalid, Theorem 6.1's
    /// deletion, and stays so under every superset).
    raised: Vec<Option<Dichotomy>>,
    /// `flip[k]`: the index of initial dichotomy `k` with its blocks
    /// swapped (the initial dichotomies come in both orientations).
    flip: Vec<usize>,
    /// Whether the admitted set itself passes; when it does not, no
    /// superset can.
    feasible: bool,
}

impl Admission {
    fn new(cs: &ConstraintSet) -> Self {
        let initial = initial_dichotomies(cs, false);
        #[allow(clippy::expect_used)] // without symmetry breaking, both
        // orientations of every initial dichotomy are generated.
        let flip = initial
            .iter()
            .map(|d| {
                initial
                    .binary_search(&d.flipped())
                    .expect("initial dichotomies come in both orientations")
            })
            .collect();
        let raised = initial.iter().map(|d| raise_dichotomy(d, cs)).collect();
        let mut state = Admission {
            raised,
            flip,
            feasible: true,
        };
        state.feasible = (0..state.raised.len()).all(|k| state.covered(k));
        state
    }

    /// Whether some surviving raise covers initial dichotomy `k`, in either
    /// orientation. A raise that covers it contains it or its flip, and
    /// then that dichotomy's own raise cannot conflict; so it is enough to
    /// look at those two entries (DESIGN.md §6j).
    fn covered(&self, k: usize) -> bool {
        self.raised[k].is_some() || self.raised[self.flip[k]].is_some()
    }

    /// Theorem 6.1's verdict on `trial`, the admitted set plus one
    /// candidate whose rules can fire only where `fires` holds. On `true`
    /// the state moves to `trial`; on `false`, at the first initial
    /// dichotomy left uncovered, it is left as it was.
    fn admit(&mut self, trial: &ConstraintSet, fires: impl Fn(&Dichotomy) -> bool) -> bool {
        if !self.feasible {
            return false;
        }
        let mut undo = Vec::new();
        for k in 0..self.raised.len() {
            let Some(d) = &self.raised[k] else {
                continue;
            };
            if !fires(d) {
                continue;
            }
            let raised = raise_dichotomy(d, trial);
            undo.push((k, std::mem::replace(&mut self.raised[k], raised)));
            if !self.covered(k) {
                for (k, old) in undo {
                    self.raised[k] = old;
                }
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioenc_kiss::{generate, BenchmarkSpec};

    #[test]
    fn mixed_sets_are_feasible() {
        for states in [8, 12, 16] {
            let fsm = generate(&BenchmarkSpec::sized("mix", states));
            let cs = mixed_constraints(&fsm, &OutputProfile::default());
            assert!(
                check_feasible(&cs).is_feasible(),
                "{states}-state machine produced an infeasible set"
            );
        }
    }

    #[test]
    fn profile_caps_are_respected() {
        let fsm = generate(&BenchmarkSpec::sized("cap", 14));
        let profile = OutputProfile {
            max_dominance: 4,
            max_disjunctive: 1,
        };
        let cs = mixed_constraints(&fsm, &profile);
        assert!(cs.dominances().len() <= 4);
        assert!(cs.disjunctives().count() <= 1);
    }

    #[test]
    fn zero_profile_gives_input_only() {
        let fsm = generate(&BenchmarkSpec::sized("io", 10));
        let profile = OutputProfile {
            max_dominance: 0,
            max_disjunctive: 0,
        };
        let cs = mixed_constraints(&fsm, &profile);
        assert!(!cs.has_output_constraints());
        assert_eq!(cs.faces().len(), input_constraints(&fsm).faces().len());
    }

    #[test]
    fn output_constraints_are_generated_when_allowed() {
        let fsm = generate(&BenchmarkSpec {
            cluster_size: 3,
            shared_behaviors: 2,
            ..BenchmarkSpec::sized("rich", 12)
        });
        let cs = mixed_constraints(&fsm, &OutputProfile::default());
        assert!(
            cs.has_output_constraints(),
            "expected some output constraints; got:\n{cs}"
        );
    }

    #[test]
    fn rejected_candidates_keep_the_input_constraints() {
        // Machines on which some dominance candidate is rejected; the set
        // must still hold every constraint of the input, spans included.
        for states in 6..=12 {
            let fsm = generate(&BenchmarkSpec::sized("keep", states));
            let faces = input_constraints(&fsm);
            let names: Vec<&str> = (0..faces.num_symbols()).map(|s| faces.name(s)).collect();
            let text = format!(
                "{faces}dist2({},{})\n!({},{})\n",
                names[0], names[1], names[1], names[2]
            );
            let cs = ConstraintSet::parse(&names, &text).unwrap();
            let out = output_constraints(&fsm, cs.clone(), &OutputProfile::default());
            assert_eq!(
                out.distance2_pairs(),
                cs.distance2_pairs(),
                "{states} states"
            );
            assert_eq!(out.nonfaces(), cs.nonfaces(), "{states} states");
            for r in cs.constraint_refs() {
                assert_eq!(out.span_of(r), cs.span_of(r), "{states} states, {r:?}");
            }
        }
    }

    #[test]
    fn deterministic() {
        let fsm = generate(&BenchmarkSpec::sized("det", 10));
        let a = mixed_constraints(&fsm, &OutputProfile::default()).to_string();
        let b = mixed_constraints(&fsm, &OutputProfile::default()).to_string();
        assert_eq!(a, b);
    }
}
