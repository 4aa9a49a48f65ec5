//! Variable specifications: how many parts each multi-valued variable has,
//! and the word masks the cube operations test part fields with.

use ioenc_bitset::BitSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The shape of a multi-valued function domain: one entry per variable
/// giving its number of parts (values).
///
/// Binary variables have two parts. The spec also precomputes the bit
/// offset of every variable within a cube's bit vector, each variable's
/// part mask as words, and the variable owning every bit. All of it sits
/// behind one shared pointer, so cloning a spec (every cover holds one)
/// copies nothing.
///
/// # Examples
///
/// ```
/// use ioenc_cube::VarSpec;
///
/// let spec = VarSpec::new(vec![2, 2, 4]);
/// assert_eq!(spec.num_vars(), 3);
/// assert_eq!(spec.total_bits(), 8);
/// assert_eq!(spec.offset(2), 4);
/// assert_eq!(spec.parts(2), 4);
/// assert_eq!(spec.locate(5), (2, 1));
/// ```
#[derive(Clone)]
pub struct VarSpec {
    layout: Arc<Layout>,
}

/// Everything derived from the part counts, computed once per spec.
struct Layout {
    parts: Vec<usize>,
    offsets: Vec<usize>,
    total: usize,
    /// Per variable: its part field as a full-width bit set.
    masks: Vec<BitSet>,
    /// Per variable: the words its part field touches.
    words: Vec<std::ops::Range<usize>>,
    /// Per bit: the variable it belongs to.
    bit_var: Vec<usize>,
    /// Per word: the low bit of every binary variable lying wholly in that
    /// word. One shift-and-or tests all of them at once.
    binary_low: Vec<u64>,
    /// The variables `binary_low` leaves out: multi-valued ones, and binary
    /// ones whose two bits straddle a word boundary.
    other_vars: Vec<usize>,
}

impl VarSpec {
    /// Creates a spec from per-variable part counts.
    ///
    /// # Panics
    ///
    /// Panics if any variable has fewer than 2 parts (a 0/1-part variable
    /// carries no information and would make several identities vacuous).
    pub fn new(parts: Vec<usize>) -> Self {
        assert!(
            parts.iter().all(|&p| p >= 2),
            "every multi-valued variable needs at least 2 parts"
        );
        let mut offsets = Vec::with_capacity(parts.len());
        let mut total = 0;
        for &p in &parts {
            offsets.push(total);
            total += p;
        }
        let word_count = total.div_ceil(64);
        let mut masks = Vec::with_capacity(parts.len());
        let mut words = Vec::with_capacity(parts.len());
        let mut bit_var = Vec::with_capacity(total);
        let mut binary_low = vec![0u64; word_count];
        let mut other_vars = Vec::new();
        for (v, (&p, &o)) in parts.iter().zip(&offsets).enumerate() {
            masks.push(BitSet::from_indices(total, o..o + p));
            words.push(o / 64..(o + p - 1) / 64 + 1);
            bit_var.extend(std::iter::repeat_n(v, p));
            if p == 2 && o % 64 != 63 {
                binary_low[o / 64] |= 1 << (o % 64);
            } else {
                other_vars.push(v);
            }
        }
        VarSpec {
            layout: Arc::new(Layout {
                parts,
                offsets,
                total,
                masks,
                words,
                bit_var,
                binary_low,
                other_vars,
            }),
        }
    }

    /// A spec of `n` binary (two-part) variables.
    pub fn binary(n: usize) -> Self {
        Self::new(vec![2; n])
    }

    /// `n` binary input variables followed by one `outputs`-part output
    /// variable — the standard multiple-output PLA shape.
    pub fn binary_with_output(n: usize, outputs: usize) -> Self {
        let mut parts = vec![2; n];
        parts.push(outputs);
        Self::new(parts)
    }

    /// Number of variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.layout.parts.len()
    }

    /// Number of parts of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn parts(&self, v: usize) -> usize {
        self.layout.parts[v]
    }

    /// Bit offset of variable `v`'s part field.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn offset(&self, v: usize) -> usize {
        self.layout.offsets[v]
    }

    /// Total bits in a cube over this spec.
    #[inline]
    pub fn total_bits(&self) -> usize {
        self.layout.total
    }

    /// The bit range of variable `v`'s part field.
    #[inline]
    pub fn var_range(&self, v: usize) -> std::ops::Range<usize> {
        let o = self.layout.offsets[v];
        o..o + self.layout.parts[v]
    }

    /// The `(variable, part)` that cube bit `bit` stands for, read from a
    /// table.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= total_bits()`.
    #[inline]
    pub fn locate(&self, bit: usize) -> (usize, usize) {
        let v = self.layout.bit_var[bit];
        (v, bit - self.layout.offsets[v])
    }

    /// Variable `v`'s part field as a set over all cube bits.
    #[inline]
    pub(crate) fn mask(&self, v: usize) -> &BitSet {
        &self.layout.masks[v]
    }

    /// Iterates over variable indices.
    pub fn vars(&self) -> std::ops::Range<usize> {
        0..self.layout.parts.len()
    }

    /// Number of minterms in the whole domain (product of part counts).
    ///
    /// Saturates at `u64::MAX` for very large domains.
    pub fn domain_size(&self) -> u64 {
        self.layout
            .parts
            .iter()
            .fold(1u64, |acc, &p| acc.saturating_mul(p as u64))
    }

    /// Variable `v`'s words as `(word index, part mask in that word)`.
    #[inline]
    pub(crate) fn var_words(&self, v: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        let mask = self.layout.masks[v].as_words();
        self.layout.words[v].clone().map(move |i| (i, mask[i]))
    }

    /// `true` if some variable's part field is empty in the bit vector whose
    /// word `i` is `word(i)`.
    #[inline]
    pub(crate) fn any_empty_var(&self, word: impl Fn(usize) -> u64) -> bool {
        let l = &*self.layout;
        for (i, &low) in l.binary_low.iter().enumerate() {
            let w = word(i);
            if (w | w >> 1) & low != low {
                return true;
            }
        }
        l.other_vars
            .iter()
            .any(|&v| self.var_words(v).all(|(i, m)| word(i) & m == 0))
    }

    /// Number of variables whose part field is empty in the bit vector
    /// whose word `i` is `word(i)`.
    #[inline]
    pub(crate) fn count_empty_vars(&self, word: impl Fn(usize) -> u64) -> usize {
        let l = &*self.layout;
        let mut n = 0;
        for (i, &low) in l.binary_low.iter().enumerate() {
            let w = word(i);
            n += (!(w | w >> 1) & low).count_ones() as usize;
        }
        n + l
            .other_vars
            .iter()
            .filter(|&&v| self.var_words(v).all(|(i, m)| word(i) & m == 0))
            .count()
    }

    /// Calls `f(v)` once for every variable whose part field is not full in
    /// the bit vector `words`, in no particular order.
    #[inline]
    pub(crate) fn for_each_non_full_var(&self, words: &[u64], mut f: impl FnMut(usize)) {
        let l = &*self.layout;
        for (i, (&low, &w)) in l.binary_low.iter().zip(words).enumerate() {
            let mut open = !(w & w >> 1) & low;
            while open != 0 {
                f(l.bit_var[i * 64 + open.trailing_zeros() as usize]);
                open &= open - 1;
            }
        }
        for &v in &l.other_vars {
            if self.var_words(v).any(|(i, m)| words[i] & m != m) {
                f(v);
            }
        }
    }
}

impl PartialEq for VarSpec {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.layout, &other.layout) || self.layout.parts == other.layout.parts
    }
}

impl Eq for VarSpec {}

impl Hash for VarSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.layout.parts.hash(state);
    }
}

impl fmt::Debug for VarSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VarSpec{:?}", self.layout.parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_and_ranges() {
        let s = VarSpec::new(vec![2, 3, 2]);
        assert_eq!(s.num_vars(), 3);
        assert_eq!(s.total_bits(), 7);
        assert_eq!(s.offset(0), 0);
        assert_eq!(s.offset(1), 2);
        assert_eq!(s.offset(2), 5);
        assert_eq!(s.var_range(1), 2..5);
        assert_eq!(s.domain_size(), 12);
    }

    #[test]
    fn binary_with_output_shape() {
        let s = VarSpec::binary_with_output(3, 5);
        assert_eq!(s.num_vars(), 4);
        assert_eq!(s.parts(3), 5);
        assert_eq!(s.total_bits(), 11);
    }

    #[test]
    #[should_panic(expected = "at least 2 parts")]
    fn rejects_single_part_variable() {
        VarSpec::new(vec![2, 1]);
    }

    #[test]
    fn locate_inverts_offsets() {
        let s = VarSpec::new(vec![2, 3, 70, 2]);
        for v in s.vars() {
            for (p, b) in s.var_range(v).enumerate() {
                assert_eq!(s.locate(b), (v, p));
            }
        }
    }

    #[test]
    fn masks_cover_each_field_and_straddlers_are_tested_alone() {
        // 31 binary variables fill bits 0..62, a 5-part variable at 62..67
        // straddles the word boundary, then a binary one sits at 67..69.
        let mut parts = vec![2; 31];
        parts.push(5);
        parts.push(2);
        let s = VarSpec::new(parts);
        assert_eq!(s.var_range(31), 62..67);
        assert_eq!(s.var_words(31).map(|(i, _)| i).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(s.layout.other_vars, [31]);
        for v in s.vars() {
            let want: Vec<usize> = s.var_range(v).collect();
            assert_eq!(s.mask(v).iter().collect::<Vec<_>>(), want);
        }
        // A binary variable at bits 63/64 is a straddler too.
        let mut parts = vec![3];
        parts.extend([2; 31]);
        parts.push(2);
        let s = VarSpec::new(parts);
        assert_eq!(s.var_range(31), 63..65);
        assert!(s.layout.other_vars.contains(&31));
    }

    #[test]
    fn clones_share_and_equal_specs_compare_by_shape() {
        let a = VarSpec::new(vec![2, 3]);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.layout, &b.layout));
        assert_eq!(a, VarSpec::new(vec![2, 3]));
        assert_ne!(a, VarSpec::new(vec![3, 2]));
    }
}
