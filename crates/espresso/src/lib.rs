#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! A self-contained ESPRESSO-style two-level minimizer over multi-valued
//! inputs and multiple outputs.
//!
//! The encoding framework needs two-level minimization in two places:
//!
//! * **Cost evaluation** (Section 7 of Saldanha et al.): the quality of a
//!   bounded-length encoding is the number of cubes or literals of the
//!   minimized *encoded constraint functions* `F_I`.
//! * **Constraint generation**: input (face) constraints are read off the
//!   multiple-valued minimized cover of an FSM's symbolic transition table
//!   (the role ESPRESSO-MV plays in the paper).
//!
//! The minimizer implements the classic loop — `expand` against the
//! off-set, `irredundant`, `reduce` — on covers in positional cube notation
//! ([`ioenc_cube`]). Multiple-output functions use the standard trick of a
//! final multi-valued *output variable*.
//!
//! # Examples
//!
//! ```
//! use ioenc_cube::{Cover, VarSpec};
//! use ioenc_espresso::minimize;
//!
//! let spec = VarSpec::binary(2);
//! // a'b + ab' + ab  minimizes to  a + b.
//! let on = Cover::parse(&spec, "0 1\n1 0\n1 1").unwrap();
//! let dc = Cover::empty(spec.clone());
//! let m = minimize(&on, &dc, None);
//! assert_eq!(m.len(), 2);
//! ```

mod essentials;
mod exact;
mod expand;
mod irredundant;
mod last_gasp;
mod pla_text;
mod reduce;

use ioenc_cube::{Cover, Cube, VarSpec};

pub use essentials::split_essential;
pub use exact::exact_minimize;
pub use expand::expand;
pub use irredundant::irredundant;
pub use last_gasp::last_gasp;
pub use pla_text::{cover_to_pla_text, parse_pla_text, pla_cube};
pub use reduce::reduce;

/// Minimizes `on` against the don't-care set `dc`.
///
/// `off` may be supplied when the caller already knows the off-set (as the
/// constraint cost evaluation does); otherwise it is computed as the
/// complement of `on ∪ dc`.
///
/// The result `M` satisfies `ON ⊆ M ∪ DC` and `M ∩ OFF = ∅`; every cube of
/// `M` is maximal against the off-set.
///
/// # Panics
///
/// Panics if the covers' specs differ.
pub fn minimize(on: &Cover, dc: &Cover, off: Option<&Cover>) -> Cover {
    minimize_bounded(on, dc, off, None).0
}

/// Counters from one bounded minimization ([`minimize_bounded`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinimizeStats {
    /// Improvement-loop rounds (one `reduce`/`expand`/`irredundant` pass
    /// each) that ran.
    pub iterations: u64,
    /// `false` when the iteration cap stopped the loop before the cost
    /// converged (the cover returned is still valid, just possibly larger).
    pub converged: bool,
}

/// [`minimize`] with a cap on the improvement-loop iterations.
///
/// ESPRESSO is an anytime algorithm: the cover is valid between rounds, so
/// stopping early trades quality for bounded work rather than failing. With
/// `max_iters = None` the behaviour (and result) is identical to
/// [`minimize`]; with `Some(k)` at most `k` `reduce`/`expand`/`irredundant`
/// rounds run, and the `LAST_GASP` escape is skipped when the cap stopped
/// the loop.
///
/// # Panics
///
/// Panics if the covers' specs differ.
pub fn minimize_bounded(
    on: &Cover,
    dc: &Cover,
    off: Option<&Cover>,
    max_iters: Option<u64>,
) -> (Cover, MinimizeStats) {
    let computed_off;
    let off = match off {
        Some(o) => {
            assert!(o.spec() == on.spec(), "off-set spec mismatch");
            o
        }
        None => {
            computed_off = on.union(dc).complement();
            &computed_off
        }
    };
    assert!(dc.spec() == on.spec(), "dc-set spec mismatch");

    let mut f = on.clone();
    f.single_cube_containment();
    f = expand(&f, off);
    f = irredundant(&f, dc);
    // Essential primes sit out the iteration as don't cares (ESPRESSO's
    // ESSEN_PRIMES step): they can never be discarded, and treating them as
    // don't cares lets the loop reshape the rest around them.
    let (essential, rest) = split_essential(&f, dc);
    let loop_dc = dc.union(&essential);
    let mut f = rest;
    let mut best = cost(&f);
    let mut stats = MinimizeStats {
        iterations: 0,
        converged: true,
    };
    loop {
        if max_iters.is_some_and(|m| stats.iterations >= m) {
            stats.converged = false;
            break;
        }
        stats.iterations += 1;
        f = reduce(&f, &loop_dc);
        f = expand(&f, off);
        f = irredundant(&f, &loop_dc);
        let c = cost(&f);
        if c >= best {
            break;
        }
        best = c;
    }
    // One LAST_GASP attempt to escape the local minimum (skipped when the
    // iteration cap already stopped the loop).
    if stats.converged {
        f = last_gasp::last_gasp(&f, &loop_dc, off);
    }
    let mut result = f.union(&essential);
    result.single_cube_containment();
    (result, stats)
}

/// The cofactor against `f[i]` of `(F \ {f[i]}) ∪ D`, where `F` is the
/// cubes of `f` that `live` admits, in order, followed by `dc`'s cubes.
/// It reads the cubes straight from the slices instead of first building
/// the cover it cofactors. Irredundant, essentials, reduce and LAST_GASP
/// all ask their question of this cover.
pub(crate) fn others_cofactor(
    spec: &VarSpec,
    f: &[Cube],
    i: usize,
    live: impl Fn(usize) -> bool,
    dc: &Cover,
) -> Cover {
    let others = f
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != i && live(j))
        .map(|(_, c)| c);
    Cover::cofactor_of(spec, others.chain(dc.cubes()), &f[i])
}

/// The (cube count, total-cleared-bit) cost ordering used to detect
/// convergence of the minimization loop.
fn cost(f: &Cover) -> (usize, usize) {
    let bits: usize = f
        .cubes()
        .iter()
        .map(|c| f.spec().total_bits() - c.bits().count())
        .sum();
    (f.len(), bits)
}

/// Summary statistics of a cover: `(cube count, input-literal count)` over
/// the first `input_vars` variables.
///
/// # Examples
///
/// ```
/// use ioenc_cube::{Cover, VarSpec};
/// use ioenc_espresso::{minimize, summary};
///
/// let spec = VarSpec::binary(2);
/// let on = Cover::parse(&spec, "0 1\n1 0\n1 1").unwrap();
/// let m = minimize(&on, &Cover::empty(spec.clone()), None);
/// let s = summary(&m, 2);
/// assert_eq!(s, (2, 2)); // two cubes, one literal each
/// ```
pub fn summary(f: &Cover, input_vars: usize) -> (usize, usize) {
    (f.len(), f.literal_count(input_vars))
}

/// A multiple-output PLA: binary inputs plus one output variable, with
/// explicit on- and don't-care sets.
///
/// # Examples
///
/// ```
/// use ioenc_espresso::Pla;
///
/// let mut pla = Pla::new(2, 1);
/// pla.add_on(&[Some(false), Some(true)], &[0]);
/// pla.add_on(&[Some(true), None], &[0]);
/// let m = pla.minimize();
/// assert_eq!(m.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Pla {
    spec: VarSpec,
    inputs: usize,
    outputs: usize,
    on: Cover,
    dc: Cover,
}

impl Pla {
    /// An empty PLA with `inputs` binary inputs and `outputs` outputs.
    ///
    /// A 1-output PLA is modelled with a 2-part output variable: output 0
    /// is part 0, and part 1 is unused.
    pub fn new(inputs: usize, outputs: usize) -> Self {
        let parts = outputs.max(2);
        let spec = VarSpec::binary_with_output(inputs, parts);
        Pla {
            spec: spec.clone(),
            inputs,
            outputs,
            on: Cover::empty(spec.clone()),
            dc: Cover::empty(spec),
        }
    }

    /// The underlying spec (inputs then the output variable).
    pub fn spec(&self) -> &VarSpec {
        &self.spec
    }

    /// Number of binary inputs.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of outputs.
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// The accumulated on-set.
    pub fn on_set(&self) -> &Cover {
        &self.on
    }

    /// The accumulated don't-care set.
    pub fn dc_set(&self) -> &Cover {
        &self.dc
    }

    fn build_cube(&self, input: &[Option<bool>], outputs: &[usize]) -> Cube {
        assert_eq!(input.len(), self.inputs, "one literal per input");
        let mut c = Cube::universe(&self.spec);
        for (v, lit) in input.iter().enumerate() {
            match lit {
                Some(false) => c.clear_part(&self.spec, v, 1),
                Some(true) => c.clear_part(&self.spec, v, 0),
                None => {}
            }
        }
        let out_var = self.inputs;
        for p in 0..self.spec.parts(out_var) {
            c.clear_part(&self.spec, out_var, p);
        }
        for &o in outputs {
            assert!(o < self.outputs, "output {o} out of range");
            c.set_part(&self.spec, out_var, o);
        }
        c
    }

    /// Adds an on-set cube: `input[v]` is `Some(bit)` or `None` for a
    /// don't-care literal; `outputs` lists the asserted outputs.
    ///
    /// # Panics
    ///
    /// Panics if the literal count or an output index is wrong.
    pub fn add_on(&mut self, input: &[Option<bool>], outputs: &[usize]) {
        let c = self.build_cube(input, outputs);
        self.on.push(c);
    }

    /// Adds a don't-care cube.
    ///
    /// # Panics
    ///
    /// Panics if the literal count or an output index is wrong.
    pub fn add_dc(&mut self, input: &[Option<bool>], outputs: &[usize]) {
        let c = self.build_cube(input, outputs);
        self.dc.push(c);
    }

    /// Minimizes the PLA, returning the minimized multiple-output cover.
    pub fn minimize(&self) -> Cover {
        minimize(&self.on, &self.dc, None)
    }

    /// Minimizes and returns `(cubes, input_literals)`.
    pub fn minimize_summary(&self) -> (usize, usize) {
        summary(&self.minimize(), self.inputs)
    }

    /// [`minimize`](Self::minimize) with an improvement-loop iteration cap
    /// (see [`minimize_bounded`]).
    pub fn minimize_bounded(&self, max_iters: Option<u64>) -> (Cover, MinimizeStats) {
        minimize_bounded(&self.on, &self.dc, None, max_iters)
    }

    /// [`minimize_summary`](Self::minimize_summary) with an iteration cap;
    /// returns the summary plus the loop counters.
    pub fn minimize_summary_bounded(
        &self,
        max_iters: Option<u64>,
    ) -> ((usize, usize), MinimizeStats) {
        let (m, stats) = self.minimize_bounded(max_iters);
        (summary(&m, self.inputs), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bspec(n: usize) -> VarSpec {
        VarSpec::binary(n)
    }

    fn check_valid(on: &Cover, dc: &Cover, m: &Cover) {
        let spec = on.spec();
        for mt in Cover::enumerate_minterms(spec) {
            let in_on = on.contains_minterm(&mt);
            let in_dc = dc.contains_minterm(&mt);
            let in_m = m.contains_minterm(&mt);
            if in_on && !in_dc {
                assert!(in_m, "on-set minterm {mt:?} lost");
            }
            if !in_on && !in_dc {
                assert!(!in_m, "off-set minterm {mt:?} gained");
            }
        }
    }

    #[test]
    fn or_of_two_vars() {
        let spec = bspec(2);
        let on = Cover::parse(&spec, "0 1\n1 0\n1 1").unwrap();
        let dc = Cover::empty(spec.clone());
        let m = minimize(&on, &dc, None);
        assert_eq!(m.len(), 2);
        check_valid(&on, &dc, &m);
    }

    #[test]
    fn xor_does_not_shrink() {
        let spec = bspec(2);
        let on = Cover::parse(&spec, "0 1\n1 0").unwrap();
        let dc = Cover::empty(spec.clone());
        let m = minimize(&on, &dc, None);
        assert_eq!(m.len(), 2);
        check_valid(&on, &dc, &m);
    }

    #[test]
    fn tautology_collapses_to_one_cube() {
        let spec = bspec(3);
        let mut lines = String::new();
        for i in 0..8 {
            for b in 0..3 {
                lines.push(if i >> b & 1 == 1 { '1' } else { '0' });
                lines.push(' ');
            }
            lines.push('\n');
        }
        let on = Cover::parse(&spec, &lines).unwrap();
        let m = minimize(&on, &Cover::empty(spec.clone()), None);
        assert_eq!(m.len(), 1);
        assert!(m.cubes()[0].is_universe(&spec));
    }

    #[test]
    fn dont_cares_enable_merging() {
        // f = minterm 00; dc = minterm 01 → minimizes to cube 0-.
        let spec = bspec(2);
        let on = Cover::parse(&spec, "0 0").unwrap();
        let dc = Cover::parse(&spec, "0 1").unwrap();
        let m = minimize(&on, &dc, None);
        assert_eq!(m.len(), 1);
        assert_eq!(m.cubes()[0].display(&spec), "10 11");
        check_valid(&on, &dc, &m);
    }

    #[test]
    fn multivalued_input_minimization() {
        // One 3-valued variable, one binary: f = (v∈{0,1}) x + (v=2) x.
        let spec = VarSpec::new(vec![3, 2]);
        let on = Cover::parse(&spec, "110 01\n001 01").unwrap();
        let dc = Cover::empty(spec.clone());
        let m = minimize(&on, &dc, None);
        assert_eq!(m.len(), 1);
        assert_eq!(m.cubes()[0].display(&spec), "111 01");
    }

    #[test]
    fn multi_output_sharing() {
        let mut pla = Pla::new(2, 2);
        pla.add_on(&[Some(true), Some(true)], &[0, 1]);
        pla.add_on(&[Some(true), Some(false)], &[0]);
        pla.add_on(&[Some(true), Some(false)], &[1]);
        let m = pla.minimize();
        // x0 alone drives both outputs: one cube.
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn empty_on_set_minimizes_to_empty() {
        let spec = bspec(2);
        let on = Cover::empty(spec.clone());
        let m = minimize(&on, &Cover::empty(spec.clone()), None);
        assert!(m.is_empty());
    }

    #[test]
    fn explicit_off_set_is_honoured() {
        let spec = bspec(2);
        let on = Cover::parse(&spec, "1 1").unwrap();
        let off = Cover::parse(&spec, "0 0").unwrap();
        let dc = Cover::parse(&spec, "0 1\n1 0").unwrap();
        let m = minimize(&on, &dc, Some(&off));
        assert_eq!(m.len(), 1);
        for mt in Cover::enumerate_minterms(&spec) {
            assert!(!(off.contains_minterm(&mt) && m.contains_minterm(&mt)));
        }
    }

    #[test]
    fn pla_single_output() {
        let mut pla = Pla::new(3, 1);
        // f = x0 x1 + x0 x2.
        pla.add_on(&[Some(true), Some(true), None], &[0]);
        pla.add_on(&[Some(true), None, Some(true)], &[0]);
        let (cubes, lits) = pla.minimize_summary();
        assert_eq!(cubes, 2);
        assert_eq!(lits, 4);
    }

    #[test]
    #[should_panic(expected = "output 2 out of range")]
    fn pla_rejects_bad_output() {
        let mut pla = Pla::new(1, 2);
        pla.add_on(&[None], &[2]);
    }

    #[test]
    fn unbounded_minimize_bounded_matches_minimize() {
        let spec = bspec(4);
        let mut lines = String::new();
        for i in 0..16u32 {
            if i.count_ones() % 2 == 0 && i != 6 {
                for b in 0..4 {
                    lines.push(if i >> b & 1 == 1 { '1' } else { '0' });
                    lines.push(' ');
                }
                lines.push('\n');
            }
        }
        let on = Cover::parse(&spec, &lines).unwrap();
        let dc = Cover::empty(spec.clone());
        let plain = minimize(&on, &dc, None);
        let (bounded, stats) = minimize_bounded(&on, &dc, None, None);
        assert_eq!(plain.len(), bounded.len());
        assert!(stats.converged);
        assert!(stats.iterations >= 1);
    }

    #[test]
    fn iteration_cap_still_yields_a_valid_cover() {
        let spec = bspec(4);
        let mut lines = String::new();
        for i in 0..16u32 {
            if i.count_ones() % 2 == 0 {
                for b in 0..4 {
                    lines.push(if i >> b & 1 == 1 { '1' } else { '0' });
                    lines.push(' ');
                }
                lines.push('\n');
            }
        }
        let on = Cover::parse(&spec, &lines).unwrap();
        let dc = Cover::empty(spec.clone());
        let (m, stats) = minimize_bounded(&on, &dc, None, Some(0));
        assert!(!stats.converged);
        assert_eq!(stats.iterations, 0);
        check_valid(&on, &dc, &m);
    }
}
