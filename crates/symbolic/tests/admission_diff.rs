//! Differential test of output-constraint admission.
//!
//! [`output_constraints`] decides each candidate incrementally: it keeps
//! the maximal raise of every initial dichotomy and re-raises only where
//! the candidate's own rules can fire. The reference below is the plain
//! greedy loop — the same candidates in the same order, each trialled on
//! a clone and decided by a from-scratch [`check_feasible`] — and the two
//! must emit the same constraint set, byte for byte, on gen-corpus
//! machines of every topology. The pinned fixtures under
//! `tests/fixtures/extract/` hold the sets of five `synth-batch` machines
//! as emitted before the incremental check.

use ioenc_core::{check_feasible, ConstraintSet};
use ioenc_kiss::{corpus, Fsm};
use ioenc_symbolic::{input_constraints, output_constraints, OutputProfile};
use std::collections::BTreeSet;
use std::path::Path;

/// How often the reference admitted and rejected candidates.
#[derive(Debug, Default)]
struct Tally {
    dominances_admitted: usize,
    dominances_rejected: usize,
    disjunctives_admitted: usize,
    disjunctives_rejected: usize,
    /// Machines whose stacked base set is feasible.
    stacked: usize,
}

/// The admission loop of `output_constraints`, with every candidate
/// decided by `check_feasible` on a trial clone.
fn reference(
    fsm: &Fsm,
    cs: ConstraintSet,
    profile: &OutputProfile,
    t: &mut Tally,
) -> ConstraintSet {
    let mut cs = cs;
    let ns = fsm.num_states();
    if ns < 3 {
        return cs;
    }
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); ns];
    for tr in fsm.transitions() {
        if !preds[tr.to].contains(&tr.from) {
            preds[tr.to].push(tr.from);
        }
    }
    let out_ones = |s: usize| -> u64 {
        let mut sig = 0u64;
        for tr in fsm.transitions_into(s) {
            for (j, o) in tr.output.iter().enumerate() {
                if *o == Some(true) && j < 64 {
                    sig |= 1 << j;
                }
            }
        }
        sig
    };

    let mut dom: Vec<(usize, usize, usize)> = Vec::new();
    for a in 0..ns {
        for b in 0..ns {
            if a == b {
                continue;
            }
            let shared = preds[a].iter().filter(|p| preds[b].contains(p)).count();
            if shared == 0 {
                continue;
            }
            let covers = (out_ones(a) | out_ones(b)) == out_ones(a);
            let score = shared * 2 + usize::from(covers) * 3 + preds[a].len();
            dom.push((score, a, b));
        }
    }
    dom.sort_by_key(|&(score, a, b)| (std::cmp::Reverse(score), a, b));
    let mut taken = 0;
    for (attempts, &(_, a, b)) in dom.iter().enumerate() {
        if taken >= profile.max_dominance || attempts >= 4 * profile.max_dominance + 16 {
            break;
        }
        if cs.dominances().contains(&(b, a)) || cs.dominances().contains(&(a, b)) {
            continue;
        }
        let mut trial = cs.clone();
        trial.add_dominance(a, b);
        if check_feasible(&trial).is_feasible() {
            cs = trial;
            taken += 1;
            t.dominances_admitted += 1;
        } else {
            t.dominances_rejected += 1;
        }
    }

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
                if joined >= 2 {
                    disj.push((joined, p, a, b));
                }
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
        if check_feasible(&trial).is_feasible() {
            cs = trial;
            used_parents.push(p);
            taken += 1;
            t.disjunctives_admitted += 1;
        } else {
            t.disjunctives_rejected += 1;
        }
    }
    cs
}

/// The `symbols:`-headed text of the synth extract artifact.
fn render(cs: &ConstraintSet) -> String {
    let names: Vec<&str> = (0..cs.num_symbols()).map(|s| cs.name(s)).collect();
    format!("symbols: {}\n{cs}", names.join(" "))
}

#[test]
fn incremental_admission_matches_the_from_scratch_check() {
    let wide = OutputProfile {
        max_dominance: 40,
        max_disjunctive: 10,
    };
    let machines = corpus(0x0ad_d1ff, 40, 14);
    let mut topologies = BTreeSet::new();
    let mut sizes = BTreeSet::new();
    // "stacked" admits into a set that already holds output constraints,
    // an extended disjunctive and a distance-2 pair.
    let cases = [
        ("default", OutputProfile::default(), false),
        ("wide", wide.clone(), false),
        ("stacked", wide, true),
    ];
    for (label, profile, stacked) in cases {
        let mut tally = Tally::default();
        for fsm in &machines {
            topologies.insert(fsm.name().split('_').nth(1).unwrap_or("").to_string());
            sizes.insert(fsm.num_states());
            let mut base = input_constraints(fsm);
            if stacked {
                base = output_constraints(fsm, base, &OutputProfile::default());
                let n = base.num_symbols();
                base.add_extended(n - 1, [vec![0, 1], vec![2]]);
                base.add_distance2(0, 1);
                // Admission extends feasible sets only.
                if !check_feasible(&base).is_feasible() {
                    continue;
                }
                tally.stacked += 1;
            }
            let want = render(&reference(fsm, base.clone(), &profile, &mut tally));
            let got = render(&output_constraints(fsm, base, &profile));
            assert_eq!(got, want, "{} under the {label} profile", fsm.name());
        }
        // Both verdicts and both kinds of admitted constraint occur, so the
        // comparison exercises every branch of the incremental check.
        assert!(tally.dominances_admitted > 0, "{label}: {tally:?}");
        assert!(tally.dominances_rejected > 0, "{label}: {tally:?}");
        assert!(tally.disjunctives_admitted > 0, "{label}: {tally:?}");
        assert!(tally.disjunctives_rejected > 0, "{label}: {tally:?}");
        assert!(!stacked || tally.stacked >= machines.len() / 2, "{tally:?}");
    }
    assert_eq!(topologies.len(), 5, "{topologies:?}");
    assert_eq!(sizes.first(), Some(&4), "{sizes:?}");
    assert_eq!(sizes.last(), Some(&14), "{sizes:?}");
}

#[test]
fn pinned_synth_batch_sets_are_unchanged() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/extract");
    for name in [
        "c017_ovlap_s10",
        "c103_wide_s10",
        "c117_ovlap_s9",
        "c147_ovlap_s10",
        "c010_chain_s10",
    ] {
        let read = |ext: &str| {
            let path = dir.join(format!("{name}.{ext}"));
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        };
        let fsm = Fsm::parse_kiss2(&read("kiss")).expect("fixture parses");
        let cs = output_constraints(&fsm, input_constraints(&fsm), &OutputProfile::default());
        assert_eq!(render(&cs), read("constraints"), "{name}");
    }
}
