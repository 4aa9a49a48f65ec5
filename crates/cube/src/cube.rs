//! Single cubes in positional notation.

use crate::VarSpec;
use ioenc_bitset::BitSet;
use std::fmt;

/// A cube (product term) over a [`VarSpec`] domain, in positional notation.
///
/// Each variable owns a group of bits; bit `p` of variable `v` is set when
/// the cube admits value `p` for `v`. A cube *contains* a minterm when every
/// variable's value bit is set. A cube with an all-zero part field contains
/// no minterms (it is *void*).
///
/// Most operations take the spec explicitly; a cube does not carry its spec
/// (covers do).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cube {
    bits: BitSet,
}

impl Cube {
    /// The universal cube: every part of every variable admitted.
    pub fn universe(spec: &VarSpec) -> Self {
        Cube {
            bits: BitSet::full(spec.total_bits()),
        }
    }

    /// A cube from raw positional bits.
    ///
    /// # Panics
    ///
    /// Panics if the bit set's capacity differs from `spec.total_bits()`.
    pub fn from_bits(spec: &VarSpec, bits: BitSet) -> Self {
        assert_eq!(bits.capacity(), spec.total_bits(), "cube width mismatch");
        Cube { bits }
    }

    /// The minterm cube selecting `values[v]` for each variable.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != spec.num_vars()` or a value is out of
    /// range for its variable.
    pub fn minterm(spec: &VarSpec, values: &[usize]) -> Self {
        assert_eq!(values.len(), spec.num_vars(), "one value per variable");
        let mut bits = BitSet::new(spec.total_bits());
        for (v, &val) in values.iter().enumerate() {
            assert!(val < spec.parts(v), "value {val} out of range for var {v}");
            bits.insert(spec.offset(v) + val);
        }
        Cube { bits }
    }

    /// Parses a cube from a whitespace-separated list of per-variable part
    /// strings, e.g. `"10 01 110"`. Character `i` of a variable's string is
    /// `1`/`0` for part `i` admitted/excluded; `-` in a *binary* variable's
    /// single-character shorthand (`"0"`, `"1"`, `"-"`) is also accepted.
    ///
    /// # Errors
    ///
    /// Returns a message if the token count or any token length is wrong, or
    /// if a character is not `0`, `1` or `-`.
    pub fn parse(spec: &VarSpec, s: &str) -> Result<Self, String> {
        let tokens: Vec<&str> = s.split_whitespace().collect();
        if tokens.len() != spec.num_vars() {
            return Err(format!(
                "expected {} variable fields, got {}",
                spec.num_vars(),
                tokens.len()
            ));
        }
        let mut bits = BitSet::new(spec.total_bits());
        for (v, tok) in tokens.iter().enumerate() {
            let o = spec.offset(v);
            if let (2, [c]) = (spec.parts(v), tok.as_bytes()) {
                match *c {
                    b'0' => {
                        bits.insert(o);
                    }
                    b'1' => {
                        bits.insert(o + 1);
                    }
                    b'-' | b'~' | b'2' => {
                        bits.insert(o);
                        bits.insert(o + 1);
                    }
                    c => {
                        return Err(format!(
                            "bad binary literal '{}' for var {v}",
                            char::from(c)
                        ))
                    }
                }
                continue;
            }
            if tok.len() != spec.parts(v) {
                return Err(format!(
                    "variable {v} has {} parts but field '{tok}' has {} characters",
                    spec.parts(v),
                    tok.len()
                ));
            }
            for (p, c) in tok.chars().enumerate() {
                match c {
                    '1' => {
                        bits.insert(o + p);
                    }
                    '0' => {}
                    c => return Err(format!("bad part character '{c}' for var {v}")),
                }
            }
        }
        Ok(Cube { bits })
    }

    /// Raw positional bits.
    pub fn bits(&self) -> &BitSet {
        &self.bits
    }

    /// Tests whether part `p` of variable `v` is admitted.
    #[inline]
    pub fn part(&self, spec: &VarSpec, v: usize, p: usize) -> bool {
        debug_assert!(p < spec.parts(v));
        self.bits.contains(spec.offset(v) + p)
    }

    /// Admits part `p` of variable `v`.
    #[inline]
    pub fn set_part(&mut self, spec: &VarSpec, v: usize, p: usize) {
        debug_assert!(p < spec.parts(v));
        self.bits.insert(spec.offset(v) + p);
    }

    /// Excludes part `p` of variable `v`.
    #[inline]
    pub fn clear_part(&mut self, spec: &VarSpec, v: usize, p: usize) {
        debug_assert!(p < spec.parts(v));
        self.bits.remove(spec.offset(v) + p);
    }

    /// Number of admitted parts of variable `v`.
    pub fn var_part_count(&self, spec: &VarSpec, v: usize) -> usize {
        let w = self.bits.as_words();
        spec.var_words(v)
            .map(|(i, m)| (w[i] & m).count_ones() as usize)
            .sum()
    }

    /// `true` if variable `v`'s part field is full (don't-care literal).
    pub fn var_is_full(&self, spec: &VarSpec, v: usize) -> bool {
        let w = self.bits.as_words();
        spec.var_words(v).all(|(i, m)| w[i] & m == m)
    }

    /// `true` if variable `v`'s part field is empty (void cube).
    pub fn var_is_empty(&self, spec: &VarSpec, v: usize) -> bool {
        let w = self.bits.as_words();
        spec.var_words(v).all(|(i, m)| w[i] & m == 0)
    }

    /// `true` if the cube contains no minterm (some variable is empty).
    pub fn is_void(&self, spec: &VarSpec) -> bool {
        let w = self.bits.as_words();
        spec.any_empty_var(|i| w[i])
    }

    /// `true` if the cube is the universal cube.
    pub fn is_universe(&self, spec: &VarSpec) -> bool {
        self.bits.count() == spec.total_bits()
    }

    /// Cube containment: `self` contains `other` iff every minterm of
    /// `other` is in `self` (bit-wise, `other.bits ⊆ self.bits`; valid when
    /// `other` is non-void).
    pub fn contains(&self, other: &Cube) -> bool {
        other.bits.is_subset(&self.bits)
    }

    /// Intersection; `None` if the cubes do not intersect.
    pub fn intersection(&self, spec: &VarSpec, other: &Cube) -> Option<Cube> {
        let c = Cube {
            bits: self.bits.intersection(&other.bits),
        };
        if c.is_void(spec) {
            None
        } else {
            Some(c)
        }
    }

    /// Supercube (smallest cube containing both): bit-wise union.
    pub fn supercube(&self, other: &Cube) -> Cube {
        Cube {
            bits: self.bits.union(&other.bits),
        }
    }

    /// Number of variables whose part fields are disjoint between the two
    /// cubes (`0` means the cubes intersect).
    pub fn distance(&self, spec: &VarSpec, other: &Cube) -> usize {
        let (a, b) = (self.bits.as_words(), other.bits.as_words());
        spec.count_empty_vars(|i| a[i] & b[i])
    }

    /// `true` if the cubes share a minterm (`distance == 0`), stopping at
    /// the first disjoint variable.
    pub fn intersects(&self, spec: &VarSpec, other: &Cube) -> bool {
        let (a, b) = (self.bits.as_words(), other.bits.as_words());
        !spec.any_empty_var(|i| a[i] & b[i])
    }

    /// The cofactor of `self` with respect to cube `p` (Shannon expansion
    /// basis): `None` if `self` and `p` do not intersect, else a cube in
    /// which each variable's field is `self_v ∪ ¬p_v`.
    pub fn cofactor(&self, spec: &VarSpec, p: &Cube) -> Option<Cube> {
        if !self.intersects(spec, p) {
            return None;
        }
        let mut bits = self.bits.clone();
        bits.union_with_complement(&p.bits);
        let c = Cube { bits };
        // No variable can be empty because self ∩ p is non-void.
        debug_assert!(!c.is_void(spec));
        Some(c)
    }

    /// Admits every part of variable `v` (makes its literal a don't care).
    #[inline]
    pub(crate) fn raise_var(&mut self, spec: &VarSpec, v: usize) {
        self.bits.union_with(spec.mask(v));
    }

    /// The cube that admits every part of every variable except the parts
    /// of variable `v` that `self` admits: one cube of De Morgan's
    /// complement of `self`.
    pub(crate) fn var_complement(&self, spec: &VarSpec, v: usize) -> Cube {
        let mut bits = BitSet::full(spec.total_bits());
        bits.difference_with(&self.bits.intersection(spec.mask(v)));
        Cube { bits }
    }

    /// Excludes every part of variable `v` except part `p`.
    #[inline]
    pub(crate) fn restrict_var(&mut self, spec: &VarSpec, v: usize, p: usize) {
        self.bits.difference_with(spec.mask(v));
        self.bits.insert(spec.offset(v) + p);
    }

    /// The consensus of two cubes at distance exactly 1: the supercube in
    /// the conflicting variable, intersection elsewhere. `None` when the
    /// distance is not 1.
    pub fn consensus(&self, spec: &VarSpec, other: &Cube) -> Option<Cube> {
        if self.distance(spec, other) != 1 {
            return None;
        }
        let mut bits = self.bits.intersection(&other.bits);
        let v = spec.vars().find(|&v| bits.is_disjoint(spec.mask(v)))?;
        let mut field = self.bits.union(&other.bits);
        field.intersect_with(spec.mask(v));
        bits.union_with(&field);
        Some(Cube { bits })
    }

    /// Tests whether the minterm given by `values` lies in the cube.
    pub fn contains_minterm(&self, spec: &VarSpec, values: &[usize]) -> bool {
        values
            .iter()
            .enumerate()
            .all(|(v, &val)| self.bits.contains(spec.offset(v) + val))
    }

    /// Number of minterms in the cube (product of per-variable part counts).
    pub fn minterm_count(&self, spec: &VarSpec) -> u64 {
        spec.vars()
            .map(|v| self.var_part_count(spec, v) as u64)
            .fold(1u64, |a, b| a.saturating_mul(b))
    }

    /// Number of input literals: variables with a non-full part field.
    /// With a PLA-shaped spec the final output variable is usually excluded
    /// by passing `vars < spec.num_vars()`.
    pub fn literal_count(&self, spec: &VarSpec, vars: usize) -> usize {
        (0..vars).filter(|&v| !self.var_is_full(spec, v)).count()
    }

    /// Renders the cube in the format accepted by [`Cube::parse`].
    pub fn display(&self, spec: &VarSpec) -> String {
        let mut out = String::new();
        for v in spec.vars() {
            if v > 0 {
                out.push(' ');
            }
            for b in spec.var_range(v) {
                out.push(if self.bits.contains(b) { '1' } else { '0' });
            }
        }
        out
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cube({})", self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> VarSpec {
        VarSpec::new(vec![2, 2, 3])
    }

    #[test]
    fn parse_and_display_round_trip() {
        let s = spec();
        let c = Cube::parse(&s, "10 11 011").unwrap();
        assert_eq!(c.display(&s), "10 11 011");
        assert!(c.var_is_full(&s, 1));
        assert!(!c.var_is_full(&s, 2));
        assert_eq!(c.var_part_count(&s, 2), 2);
    }

    #[test]
    fn parse_binary_shorthand() {
        let s = VarSpec::binary(3);
        let c = Cube::parse(&s, "0 - 1").unwrap();
        assert_eq!(c.display(&s), "10 11 01");
    }

    #[test]
    fn parse_errors() {
        let s = spec();
        assert!(Cube::parse(&s, "10 11").is_err());
        assert!(Cube::parse(&s, "10 11 01").is_err());
        assert!(Cube::parse(&s, "10 11 0x1").is_err());
    }

    #[test]
    fn containment_and_intersection() {
        let s = spec();
        let big = Cube::parse(&s, "11 11 111").unwrap();
        let small = Cube::parse(&s, "10 01 100").unwrap();
        assert!(big.contains(&small));
        assert!(!small.contains(&big));
        let other = Cube::parse(&s, "01 11 110").unwrap();
        assert!(small.intersection(&s, &other).is_none());
        let touching = Cube::parse(&s, "11 01 110").unwrap();
        let i = small.intersection(&s, &touching).unwrap();
        assert_eq!(i.display(&s), "10 01 100");
    }

    #[test]
    fn void_and_universe() {
        let s = spec();
        assert!(Cube::universe(&s).is_universe(&s));
        let mut c = Cube::universe(&s);
        c.clear_part(&s, 1, 0);
        c.clear_part(&s, 1, 1);
        assert!(c.is_void(&s));
    }

    #[test]
    fn distance_counts_disjoint_vars() {
        let s = spec();
        let a = Cube::parse(&s, "10 10 100").unwrap();
        let b = Cube::parse(&s, "01 10 011").unwrap();
        assert_eq!(a.distance(&s, &b), 2);
        assert_eq!(a.distance(&s, &a), 0);
    }

    #[test]
    fn consensus_at_distance_one() {
        let s = VarSpec::binary(2);
        let a = Cube::parse(&s, "1 1").unwrap();
        let b = Cube::parse(&s, "0 1").unwrap();
        let c = a.consensus(&s, &b).unwrap();
        assert_eq!(c.display(&s), "11 01");
        let far = Cube::parse(&s, "0 0").unwrap();
        assert!(a.consensus(&s, &far).is_none());
        // Distance 0 has no consensus either.
        assert!(a.consensus(&s, &a).is_none());
    }

    #[test]
    fn cofactor_matches_definition() {
        let s = VarSpec::binary(2);
        let f = Cube::parse(&s, "1 0").unwrap();
        let p = Cube::parse(&s, "1 -").unwrap();
        let cof = f.cofactor(&s, &p).unwrap();
        // Cofactor w.r.t. x0=1 leaves x0 unconstrained.
        assert_eq!(cof.display(&s), "11 10");
        let q = Cube::parse(&s, "0 -").unwrap();
        assert!(f.cofactor(&s, &q).is_none());
    }

    #[test]
    fn minterm_helpers() {
        let s = spec();
        let c = Cube::parse(&s, "10 11 011").unwrap();
        assert_eq!(c.minterm_count(&s), 4);
        assert!(c.contains_minterm(&s, &[0, 1, 2]));
        assert!(!c.contains_minterm(&s, &[1, 1, 2]));
        assert!(!c.contains_minterm(&s, &[0, 0, 0]));
        let m = Cube::minterm(&s, &[0, 1, 2]);
        assert!(c.contains(&m));
        assert_eq!(m.minterm_count(&s), 1);
    }

    #[test]
    fn literal_count_ignores_full_vars() {
        let s = VarSpec::binary_with_output(3, 4);
        let c = Cube::parse(&s, "1 - 0 1010").unwrap();
        assert_eq!(c.literal_count(&s, 3), 2);
    }
}
