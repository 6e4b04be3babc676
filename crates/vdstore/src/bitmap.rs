//! Candidate-set bitmaps.
//!
//! Section 6.1 of the paper notes that in the early BOND iterations — when
//! selectivity is still low — materialising the surviving candidates as new
//! base tables copies too much data; instead a bitmap over the (dense) row
//! identifiers marks the pruned vectors. The same bitmap doubles as the
//! tombstone structure for deleted rows (Section 6.2) and as the carrier of
//! prior relational predicates ("photographs taken in 1992") combined with
//! the k-NN search.

use serde::{Deserialize, Serialize};

use crate::RowId;

/// A fixed-length bitset over dense row identifiers. The default is the
/// empty bitmap (no rows, no allocation).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bitmap {
    len: usize,
    words: Vec<u64>,
}

const WORD_BITS: usize = 64;

impl Bitmap {
    /// Creates a bitmap of `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        Bitmap { len, words: vec![0; len.div_ceil(WORD_BITS)] }
    }

    /// Creates a bitmap of `len` bits, all set.
    pub fn full(len: usize) -> Self {
        let mut b = Bitmap { len, words: vec![u64::MAX; len.div_ceil(WORD_BITS)] };
        b.clear_trailing();
        b
    }

    /// Creates a bitmap with exactly the given rows set.
    pub fn from_rows(len: usize, rows: &[RowId]) -> Self {
        let mut b = Bitmap::new(len);
        for &r in rows {
            b.set(r);
        }
        b
    }

    fn clear_trailing(&mut self) {
        let used = self.len % WORD_BITS;
        if used != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << used) - 1;
            }
        }
    }

    /// Number of addressable bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap addresses zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets the bit for `row`.
    #[inline]
    pub fn set(&mut self, row: RowId) {
        let row = row as usize;
        debug_assert!(row < self.len);
        self.words[row / WORD_BITS] |= 1u64 << (row % WORD_BITS);
    }

    /// Clears the bit for `row`.
    #[inline]
    pub fn clear(&mut self, row: RowId) {
        let row = row as usize;
        debug_assert!(row < self.len);
        self.words[row / WORD_BITS] &= !(1u64 << (row % WORD_BITS));
    }

    /// Tests the bit for `row`.
    #[inline]
    pub fn get(&self, row: RowId) -> bool {
        let row = row as usize;
        debug_assert!(row < self.len);
        self.words[row / WORD_BITS] & (1u64 << (row % WORD_BITS)) != 0
    }

    /// The backing 64-row words, lowest rows first (bit `i % 64` of word
    /// `i / 64` is row `i`; bits past [`Bitmap::len`] are clear). Word-wise
    /// consumers — the quantized filter's candidate sweep — start from these
    /// instead of testing rows one at a time.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Sets every bit.
    pub fn set_all(&mut self) {
        self.words.fill(u64::MAX);
        self.clear_trailing();
    }

    /// Clears every bit.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// In-place intersection with `other`.
    ///
    /// # Panics
    /// Panics if the bitmaps have different lengths.
    pub fn and_with(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    /// Panics if the bitmaps have different lengths.
    pub fn or_with(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// In-place complement (within the addressed length).
    pub fn negate(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.clear_trailing();
    }

    /// In-place difference: clears every bit that is set in `other`.
    ///
    /// # Panics
    /// Panics if the bitmaps have different lengths.
    pub fn and_not_with(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !*b;
        }
    }

    /// Word-wise retain: for every 64-row word that still has a set bit,
    /// `keep_mask(word_index, word)` returns the rows to keep (bit `b` is
    /// row `word_index * 64 + b`) and the word is AND-ed with it. Mask bits
    /// of rows that are clear — or past [`Bitmap::len`] — are ignored, so
    /// the callback may compute them from garbage; all-clear words are
    /// skipped. Returns the number of rows cleared.
    pub fn retain_words(&mut self, mut keep_mask: impl FnMut(usize, u64) -> u64) -> usize {
        let mut cleared = 0usize;
        for (index, word) in self.words.iter_mut().enumerate() {
            if *word != 0 {
                let kept = *word & keep_mask(index, *word);
                cleared += (*word ^ kept).count_ones() as usize;
                *word = kept;
            }
        }
        cleared
    }

    /// Iterates over the set rows in ascending order.
    pub fn iter(&self) -> BitmapIter<'_> {
        BitmapIter { bitmap: self, word_idx: 0, current: self.words.first().copied().unwrap_or(0) }
    }

    /// Materialises the set rows into a vector (the "switch to positional
    /// joins" moment of Section 6.1).
    pub fn to_rows(&self) -> Vec<RowId> {
        // sized up front: the iterator has no length hint to collect by
        let mut rows = Vec::with_capacity(self.count());
        rows.extend(self.iter());
        rows
    }

    /// Extracts the bits of `range` into a new bitmap of length
    /// `range.len()` (bit `i` of the result is bit `range.start + i` of
    /// `self`). Word-wise: O(range.len() / 64).
    ///
    /// # Panics
    /// Panics if the range exceeds the bitmap's length.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bitmap {
        let mut out = Bitmap::default();
        self.slice_into(range, &mut out);
        out
    }

    /// [`Bitmap::slice`] into `out`, reusing its storage: once `out` has
    /// held a slice this long, no allocation.
    ///
    /// # Panics
    /// Panics if the range exceeds the bitmap's length.
    pub fn slice_into(&self, range: std::ops::Range<usize>, out: &mut Bitmap) {
        assert!(range.start <= range.end && range.end <= self.len, "slice out of range");
        out.len = range.end - range.start;
        out.words.clear();
        out.words.resize(out.len.div_ceil(WORD_BITS), 0);
        let shift = range.start % WORD_BITS;
        let first_word = range.start / WORD_BITS;
        for (i, w) in out.words.iter_mut().enumerate() {
            let lo = self.words.get(first_word + i).copied().unwrap_or(0) >> shift;
            let hi = if shift == 0 {
                0
            } else {
                self.words.get(first_word + i + 1).copied().unwrap_or(0) << (WORD_BITS - shift)
            };
            *w = lo | hi;
        }
        out.clear_trailing();
    }

    /// Number of bits set in both `self` and `other` — `(a & b).count()`
    /// without materialising the intersection. The engine uses this to
    /// price and skip filtered segment scans (eligible = filter ∧ live).
    ///
    /// # Panics
    /// Panics if the bitmaps have different lengths.
    pub fn intersection_count(&self, other: &Bitmap) -> usize {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        self.words.iter().zip(&other.words).map(|(a, b)| (a & b).count_ones() as usize).sum()
    }

    /// Fraction of set bits, in `[0, 1]`; `0` for an empty bitmap.
    pub fn density(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count() as f64 / self.len as f64
        }
    }
}

/// Iterator over the set rows of a [`Bitmap`].
pub struct BitmapIter<'a> {
    bitmap: &'a Bitmap,
    word_idx: usize,
    current: u64,
}

impl Iterator for BitmapIter<'_> {
    type Item = RowId;

    fn next(&mut self) -> Option<RowId> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some((self.word_idx * WORD_BITS + bit) as RowId);
            }
            self.word_idx += 1;
            if self.word_idx >= self.bitmap.words.len() {
                return None;
            }
            self.current = self.bitmap.words[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a Bitmap {
    type Item = RowId;
    type IntoIter = BitmapIter<'a>;

    fn into_iter(self) -> BitmapIter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_extracts_ranges_across_word_boundaries() {
        let rows: Vec<RowId> = vec![0, 3, 63, 64, 65, 100, 127, 128, 199];
        let b = Bitmap::from_rows(200, &rows);
        for range in [0..200, 0..64, 1..200, 63..66, 60..140, 128..129, 199..200, 70..70] {
            let s = b.slice(range.clone());
            assert_eq!(s.len(), range.len());
            let expected: Vec<RowId> = rows
                .iter()
                .filter(|&&r| range.contains(&(r as usize)))
                .map(|&r| r - range.start as RowId)
                .collect();
            assert_eq!(s.to_rows(), expected, "range {range:?}");
        }
    }

    #[test]
    #[should_panic(expected = "slice out of range")]
    fn slice_rejects_out_of_range() {
        let _ = Bitmap::new(10).slice(5..11);
    }

    #[test]
    fn new_full_and_count() {
        let b = Bitmap::new(100);
        assert_eq!(b.len(), 100);
        assert_eq!(b.count(), 0);
        let f = Bitmap::full(100);
        assert_eq!(f.count(), 100);
        assert!(f.get(0) && f.get(99));
        // bits past the logical length stay clear
        let f = Bitmap::full(65);
        assert_eq!(f.count(), 65);
    }

    #[test]
    fn set_clear_get() {
        let mut b = Bitmap::new(130);
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(128));
        assert_eq!(b.count(), 3);
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn iteration_order_and_to_rows() {
        let rows = vec![3, 64, 65, 127, 128];
        let b = Bitmap::from_rows(200, &rows);
        assert_eq!(b.to_rows(), rows);
        assert_eq!(b.iter().count(), 5);
    }

    #[test]
    fn boolean_algebra() {
        let mut a = Bitmap::from_rows(10, &[1, 2, 3]);
        let b = Bitmap::from_rows(10, &[2, 3, 4]);
        let mut u = a.clone();
        u.or_with(&b);
        assert_eq!(u.to_rows(), vec![1, 2, 3, 4]);
        a.and_with(&b);
        assert_eq!(a.to_rows(), vec![2, 3]);
        a.and_not_with(&Bitmap::from_rows(10, &[3]));
        assert_eq!(a.to_rows(), vec![2]);
    }

    #[test]
    fn negate_respects_length() {
        let mut b = Bitmap::from_rows(70, &[0, 69]);
        b.negate();
        assert_eq!(b.count(), 68);
        assert!(!b.get(0) && !b.get(69) && b.get(1));
    }

    #[test]
    fn set_all_clear_all_density() {
        let mut b = Bitmap::new(64);
        assert_eq!(b.density(), 0.0);
        b.set_all();
        assert_eq!(b.count(), 64);
        assert_eq!(b.density(), 1.0);
        b.clear_all();
        assert_eq!(b.count(), 0);
        assert_eq!(Bitmap::new(0).density(), 0.0);
    }

    #[test]
    fn intersection_count_matches_materialised_and() {
        let a = Bitmap::from_rows(130, &[0, 3, 64, 65, 127, 129]);
        let b = Bitmap::from_rows(130, &[3, 64, 100, 129]);
        assert_eq!(a.intersection_count(&b), 3);
        let mut and = a.clone();
        and.and_with(&b);
        assert_eq!(and.count(), a.intersection_count(&b));
        assert_eq!(a.intersection_count(&Bitmap::new(130)), 0);
    }

    #[test]
    fn retain_words_masks_whole_words_and_counts_what_it_cleared() {
        // 130 rows: two full words and a trailing word of two rows; the
        // middle word is all clear
        let rows: Vec<RowId> = vec![0, 1, 5, 63, 128, 129];
        let mut b = Bitmap::from_rows(130, &rows);
        let before = b.count();
        let mut visited = Vec::new();
        // keep odd rows only; the mask is all-ones past the bitmap's length
        // and over clear rows, both of which must be ignored
        let cleared = b.retain_words(|index, word| {
            visited.push((index, word));
            0xAAAA_AAAA_AAAA_AAAA
        });
        let words = vec![(0, (1 << 0) | (1 << 1) | (1 << 5) | (1 << 63)), (2, 0b11)];
        assert_eq!(visited, words, "the all-clear middle word is skipped");
        assert_eq!(b.to_rows(), vec![1, 5, 63, 129]);
        assert_eq!(cleared, before - b.count());
        assert_eq!(b.words()[2] >> 2, 0, "bits past len stay clear");
        // an all-ones mask clears nothing, an all-zero mask everything
        assert_eq!(b.retain_words(|_, _| u64::MAX), 0);
        assert_eq!(b.retain_words(|_, _| 0), 4);
        assert_eq!(b.count(), 0);
        // and once every word is clear the callback is never asked
        assert_eq!(b.retain_words(|_, _| unreachable!("all-clear words are skipped")), 0);
    }

    #[test]
    #[should_panic(expected = "bitmap length mismatch")]
    fn mismatched_lengths_panic() {
        let mut a = Bitmap::new(10);
        let b = Bitmap::new(11);
        a.and_with(&b);
    }
}
