#![warn(missing_docs)]
// `deny` rather than `forbid` solely so the tightly-scoped `simd` module
// can opt back in with documented invariants; every other module in this
// crate (and every other crate in the workspace) rejects unsafe code.
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! Fixed-capacity bit sets for the `ioenc` encoding framework.
//!
//! The framework manipulates many small sets of symbol indices (dichotomy
//! blocks, cube parts, covering-matrix rows). [`BitSet`] is a compact,
//! allocation-friendly set over the universe `0..capacity` backed by `u64`
//! words.
//!
//! # Kernels and dispatch
//!
//! The operations dominating the covering branch-and-bound — subset and
//! disjointness tests, intersections, population counts and first-set
//! iteration — run through explicit word-parallel kernels
//! (`kernels`): four words per step, reductions folded into one
//! accumulator, early exit at 256-bit block granularity. On x86-64 an
//! AVX2/POPCNT path (`simd`) is selected at runtime (cached CPUID
//! detection) for sets of at least 512 bits. Below that threshold the
//! streaming operations take the scalar kernels and the binary
//! predicates (`is_subset`, `is_disjoint`) keep a plain word loop
//! inlined at the call site — dichotomy-level predicate checks run on
//! one- and two-word sets, where any dispatched call costs more than
//! the loop body. All paths are bit-identical by construction and
//! pinned to each other by a differential property suite; under Miri
//! only the portable paths run.
//!
//! # Examples
//!
//! ```
//! use ioenc_bitset::BitSet;
//!
//! let mut a = BitSet::new(10);
//! a.insert(1);
//! a.insert(7);
//! let b = BitSet::from_indices(10, [7, 9]);
//! assert!(!a.is_disjoint(&b));
//! assert_eq!(a.intersection(&b).iter().collect::<Vec<_>>(), vec![7]);
//! ```

use std::fmt;

mod kernels;
#[cfg(target_arch = "x86_64")]
mod simd;

const WORD_BITS: usize = 64;

/// `true` when the word count justifies the runtime-detected SIMD path.
#[cfg(target_arch = "x86_64")]
#[inline]
fn simd_eligible(words: usize) -> bool {
    // Miri cannot execute vector intrinsics; it always takes the portable
    // kernels, which the differential suite pins to the SIMD path.
    !cfg!(miri) && words >= simd::MIN_WORDS
}

/// Word count below which the binary predicates keep the plain word loop
/// inline at the call site. Matches the SIMD threshold on x86-64 (pinned
/// by a test): below it no vector kernel is ever selected, and the
/// dichotomy-level one- and two-word predicate checks that dominate prime
/// generation cannot afford an outlined call.
const INLINE_MAX_WORDS: usize = 8;

/// Outlined large-set subset test: runtime-detected SIMD when available,
/// the portable kernel otherwise. `#[inline(never)]` keeps this body out
/// of the small-set fast path inlined from [`BitSet::is_subset`].
#[inline(never)]
fn is_subset_large(a: &[u64], b: &[u64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if !cfg!(miri) && simd::avx2_available() {
        return simd::is_subset(a, b);
    }
    kernels::is_subset(a, b)
}

/// Outlined large-set disjointness test; see [`is_subset_large`].
#[inline(never)]
fn is_disjoint_large(a: &[u64], b: &[u64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if !cfg!(miri) && simd::avx2_available() {
        return simd::is_disjoint(a, b);
    }
    kernels::is_disjoint(a, b)
}

/// A set of `usize` indices drawn from the fixed universe `0..capacity()`.
///
/// All binary operations require both operands to have the same capacity;
/// they panic otherwise (capacities are a static property of each problem
/// instance, so a mismatch is a logic error).
#[derive(PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct BitSet {
    /// Number of valid bits.
    len: usize,
    words: Vec<u64>,
}

impl Clone for BitSet {
    fn clone(&self) -> Self {
        BitSet {
            len: self.len,
            words: self.words.clone(),
        }
    }

    /// Reuses `self`'s word allocation — the covering search's arena
    /// recycles row buffers through this, so the steady-state inner loop
    /// allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.len = source.len;
        self.words.clone_from(&source.words);
    }
}

#[inline]
fn word_count(len: usize) -> usize {
    len.div_ceil(WORD_BITS)
}

impl BitSet {
    /// Creates an empty set over the universe `0..capacity`.
    ///
    /// # Examples
    ///
    /// ```
    /// let s = ioenc_bitset::BitSet::new(5);
    /// assert!(s.is_empty());
    /// assert_eq!(s.capacity(), 5);
    /// ```
    pub fn new(capacity: usize) -> Self {
        BitSet {
            len: capacity,
            words: vec![0; word_count(capacity)],
        }
    }

    /// Creates a set containing every index in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::new(capacity);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.trim();
        s
    }

    /// Creates a set from an iterator of indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= capacity`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(capacity: usize, indices: I) -> Self {
        let mut s = Self::new(capacity);
        for i in indices {
            s.insert(i);
        }
        s
    }

    /// The size of the universe (not the number of elements).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Clears excess bits beyond `len` in the last word.
    #[inline]
    fn trim(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    #[inline]
    fn check_same(&self, other: &Self) {
        assert_eq!(
            self.len, other.len,
            "bit set capacity mismatch: {} vs {}",
            self.len, other.len
        );
    }

    /// Inserts `index`, returning `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity()`.
    #[inline]
    pub fn insert(&mut self, index: usize) -> bool {
        assert!(index < self.len, "index {index} out of range {}", self.len);
        let (w, b) = (index / WORD_BITS, index % WORD_BITS);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Removes `index`, returning `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity()`.
    #[inline]
    pub fn remove(&mut self, index: usize) -> bool {
        assert!(index < self.len, "index {index} out of range {}", self.len);
        let (w, b) = (index / WORD_BITS, index % WORD_BITS);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Tests membership. Out-of-range indices are simply absent.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        if index >= self.len {
            return false;
        }
        let (w, b) = (index / WORD_BITS, index % WORD_BITS);
        self.words[w] & (1 << b) != 0
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Empties the set and changes its universe to `0..capacity`, reusing
    /// the word allocation where possible. Equivalent to
    /// `*self = BitSet::new(capacity)` without the fresh allocation.
    pub fn reset(&mut self, capacity: usize) {
        self.len = capacity;
        self.words.clear();
        self.words.resize(word_count(capacity), 0);
    }

    /// Number of elements in the set.
    #[inline]
    pub fn count(&self) -> usize {
        #[cfg(target_arch = "x86_64")]
        if simd_eligible(self.words.len()) && simd::popcnt_available() {
            return simd::count(&self.words);
        }
        kernels::count(&self.words)
    }

    /// `true` if the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `true` if `self` and `other` share no element.
    ///
    /// Small sets (below the SIMD threshold) take the plain word loop
    /// inline: dichotomy-level predicate checks in prime generation run
    /// on one- and two-word sets, where an inlined handful of
    /// instructions beats any dispatched kernel (see `OPTIMIZATION.md`,
    /// "the predicate regression").
    #[inline]
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.check_same(other);
        if self.words.len() < INLINE_MAX_WORDS {
            return self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0);
        }
        is_disjoint_large(&self.words, &other.words)
    }

    /// `true` if every element of `self` is in `other`.
    ///
    /// Dispatches like [`BitSet::is_disjoint`]: plain inlined word loop
    /// below the SIMD threshold, outlined kernel above it.
    #[inline]
    pub fn is_subset(&self, other: &Self) -> bool {
        self.check_same(other);
        if self.words.len() < INLINE_MAX_WORDS {
            return self
                .words
                .iter()
                .zip(&other.words)
                .all(|(a, b)| a & !b == 0);
        }
        is_subset_large(&self.words, &other.words)
    }

    /// `true` if every element of `other` is in `self`.
    pub fn is_superset(&self, other: &Self) -> bool {
        other.is_subset(self)
    }

    /// In-place union.
    #[inline]
    pub fn union_with(&mut self, other: &Self) {
        self.check_same(other);
        kernels::union(&mut self.words, &other.words);
    }

    /// In-place intersection.
    #[inline]
    pub fn intersect_with(&mut self, other: &Self) {
        self.check_same(other);
        #[cfg(target_arch = "x86_64")]
        if simd_eligible(self.words.len()) && simd::avx2_available() {
            return simd::intersect(&mut self.words, &other.words);
        }
        kernels::intersect(&mut self.words, &other.words);
    }

    /// In-place difference (`self \ other`).
    #[inline]
    pub fn difference_with(&mut self, other: &Self) {
        self.check_same(other);
        kernels::difference(&mut self.words, &other.words);
    }

    /// In-place union with the complement of `other` (`self ∪ ¬other`),
    /// in one pass over the words.
    ///
    /// # Examples
    ///
    /// ```
    /// use ioenc_bitset::BitSet;
    ///
    /// let mut a = BitSet::from_indices(5, [0]);
    /// a.union_with_complement(&BitSet::from_indices(5, [0, 1, 2]));
    /// assert_eq!(a, BitSet::from_indices(5, [0, 3, 4]));
    /// ```
    #[inline]
    pub fn union_with_complement(&mut self, other: &Self) {
        self.check_same(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= !*b;
        }
        self.trim();
    }

    /// Returns the union as a new set.
    pub fn union(&self, other: &Self) -> Self {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Returns the intersection as a new set.
    pub fn intersection(&self, other: &Self) -> Self {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// Returns the difference `self \ other` as a new set.
    pub fn difference(&self, other: &Self) -> Self {
        let mut s = self.clone();
        s.difference_with(other);
        s
    }

    /// Returns the complement within the universe.
    pub fn complement(&self) -> Self {
        let mut s = self.clone();
        for w in &mut s.words {
            *w = !*w;
        }
        s.trim();
        s
    }

    /// The smallest element, if any (named `first` to avoid clashing with `Ord::min`).
    pub fn first(&self) -> Option<usize> {
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(i * WORD_BITS + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Calls `f` on every element in increasing order.
    ///
    /// Equivalent to `self.iter().for_each(f)` but without per-item
    /// iterator state: the word loop stays in registers, which measurably
    /// helps the covering search's counting loops (see `OPTIMIZATION.md`).
    #[inline]
    pub fn for_each_set(&self, mut f: impl FnMut(usize)) {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                f(wi * WORD_BITS + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
    }

    /// Raw words backing the set (low bit of word 0 is index 0).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for BitSet {
    /// Renders as a `capacity()`-character string of `0`/`1`, index 0 first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            f.write_str(if self.contains(i) { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl Extend<usize> for BitSet {
    fn extend<T: IntoIterator<Item = usize>>(&mut self, iter: T) {
        for i in iter {
            self.insert(i);
        }
    }
}

/// Iterator over set elements, produced by [`BitSet::iter`].
pub struct Iter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = BitSet::new(70);
        assert!(e.is_empty());
        assert_eq!(e.count(), 0);
        let f = BitSet::full(70);
        assert_eq!(f.count(), 70);
        assert_eq!(f.complement(), e);
        assert_eq!(e.complement(), f);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert_eq!(s.count(), 3);
        assert!(s.contains(64));
        assert!(!s.contains(63));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert!(!s.contains(64));
        assert!(!s.contains(4000));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        BitSet::new(5).insert(5);
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_indices(10, [1, 3, 5]);
        let b = BitSet::from_indices(10, [3, 5, 7]);
        assert_eq!(a.union(&b), BitSet::from_indices(10, [1, 3, 5, 7]));
        assert_eq!(a.intersection(&b), BitSet::from_indices(10, [3, 5]));
        assert_eq!(a.difference(&b), BitSet::from_indices(10, [1]));
        assert!(!a.is_disjoint(&b));
        assert!(a.is_disjoint(&BitSet::from_indices(10, [0, 2])));
        assert!(BitSet::from_indices(10, [3]).is_subset(&a));
        assert!(a.is_superset(&BitSet::from_indices(10, [1, 5])));
        assert!(!a.is_subset(&b));
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn mismatched_capacity_panics() {
        let a = BitSet::new(4);
        let b = BitSet::new(5);
        a.is_disjoint(&b);
    }

    #[test]
    fn iteration_order() {
        let s = BitSet::from_indices(200, [199, 0, 64, 65, 127, 128]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 65, 127, 128, 199]);
        assert_eq!(s.first(), Some(0));
        assert_eq!(BitSet::new(8).first(), None);
    }

    #[test]
    fn display_and_debug() {
        let s = BitSet::from_indices(4, [0, 2]);
        assert_eq!(s.to_string(), "1010");
        assert_eq!(format!("{s:?}"), "{0, 2}");
    }

    #[test]
    fn complement_respects_capacity() {
        // Make sure bits beyond `len` never leak into counts or equality.
        let s = BitSet::from_indices(67, [0]);
        let c = s.complement();
        assert_eq!(c.count(), 66);
        assert!(!c.contains(0));
        assert!(c.contains(66));
        assert_eq!(c.complement(), s);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn inline_threshold_matches_simd_threshold() {
        assert_eq!(INLINE_MAX_WORDS, simd::MIN_WORDS);
    }

    #[test]
    fn reset_changes_universe_and_empties() {
        let mut s = BitSet::from_indices(70, [0, 69]);
        s.reset(130);
        assert_eq!(s.capacity(), 130);
        assert!(s.is_empty());
        assert!(s.insert(129));
        s.reset(3);
        assert_eq!(s.capacity(), 3);
        assert!(s.is_empty());
        assert_eq!(s, BitSet::new(3));
    }

    #[test]
    fn clone_from_reuses_and_matches() {
        let big = BitSet::from_indices(300, [0, 64, 299]);
        let mut s = BitSet::from_indices(10, [1]);
        s.clone_from(&big);
        assert_eq!(s, big);
        let small = BitSet::from_indices(5, [2]);
        s.clone_from(&small);
        assert_eq!(s, small);
        assert_eq!(s.capacity(), 5);
    }

    #[test]
    fn for_each_set_matches_iter() {
        let s = BitSet::from_indices(200, [199, 0, 64, 65, 127, 128]);
        let mut seen = Vec::new();
        s.for_each_set(|i| seen.push(i));
        assert_eq!(seen, s.iter().collect::<Vec<_>>());
    }

    #[test]
    fn large_sets_agree_with_small_semantics() {
        // Big enough to cross the SIMD dispatch threshold on x86-64.
        let a = BitSet::from_indices(1024, (0..1024).step_by(3));
        let b = BitSet::from_indices(1024, (0..1024).step_by(6));
        assert!(b.is_subset(&a));
        assert!(!a.is_subset(&b));
        assert_eq!(a.count(), 342);
        let mut c = a.clone();
        c.intersect_with(&b);
        assert_eq!(c, b);
        let off = BitSet::from_indices(1024, (3..1024).step_by(6));
        assert!(off.is_disjoint(&b));
        assert!(!off.is_disjoint(&a));
    }

    #[test]
    fn extend_collects() {
        let mut s = BitSet::new(6);
        s.extend([5usize, 1, 1]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 5]);
    }
}
