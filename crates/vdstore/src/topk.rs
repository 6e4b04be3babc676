//! Bounded top-k heaps.
//!
//! The MIL program of Section 6.1 uses a `kfetch` operator that selects the
//! k-th largest element "using a priority queue implemented as a heap, with
//! worst-case cost O(n log k)". These two types are that priority queue, for
//! the two directions BOND needs: k largest (similarity metrics) and
//! k smallest (distance metrics). The sequential-scan baselines use the same
//! structures to maintain "an array with the best k answers so far".

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::RowId;

/// Ascending order of two values that stays a total order when NaN is
/// present — what `sort_by` requires, or it may panic: NaN sorts after every
/// number and ties with NaN, numbers keep their `partial_cmp` order (so
/// `-0.0` and `0.0` still tie).
#[inline]
pub fn ascending_nan_last(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// [`ascending_nan_last`]'s descending twin: larger values first, NaN still
/// last.
#[inline]
pub fn descending_nan_last(a: f64, b: f64) -> Ordering {
    b.partial_cmp(&a).unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// A scored row, ordered by score then row id (for deterministic ties).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scored {
    /// The row this score belongs to.
    pub row: RowId,
    /// The score (similarity or distance, depending on context).
    pub score: f64,
}

impl Eq for Scored {}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.row.cmp(&other.row))
    }
}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Keeps the `k` largest scores seen so far (a min-heap of size ≤ k).
#[derive(Debug, Clone)]
pub struct TopKLargest {
    k: usize,
    // BinaryHeap is a max-heap; store reversed entries so the *smallest*
    // retained score sits at the top and can be evicted in O(log k).
    heap: BinaryHeap<std::cmp::Reverse<Scored>>,
}

impl TopKLargest {
    /// Creates a collector for the `k` largest scores. `k` must be > 0.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        TopKLargest { k, heap: BinaryHeap::with_capacity(k + 1) }
    }

    /// Offers a scored row; it is retained only if it belongs to the top k.
    #[inline]
    pub fn push(&mut self, row: RowId, score: f64) {
        let item = std::cmp::Reverse(Scored { row, score });
        if self.heap.len() < self.k {
            self.heap.push(item);
        } else if let Some(mut top) = self.heap.peek_mut() {
            // replace the weakest entry in place: one sift instead of two
            if item < *top {
                *top = item;
            }
        }
    }

    /// Forgets every retained entry, keeping `k` and the allocation.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Forgets every retained entry and collects the `k` largest from now
    /// on, reusing the allocation (it grows only for a larger `k`).
    pub fn reset(&mut self, k: usize) {
        assert!(k > 0, "k must be positive");
        self.k = k;
        self.heap.clear();
        self.heap.reserve(k + 1);
    }

    /// The retained entries, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = Scored> + '_ {
        self.heap.iter().map(|entry| entry.0)
    }

    /// Number of retained entries (≤ k).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The k-th largest score seen so far (the weakest retained entry), or
    /// `None` when fewer than `k` entries have been offered.
    ///
    /// This is κ_min of the paper when fed with lower bounds `S_min`.
    pub fn kth(&self) -> Option<f64> {
        if self.heap.len() < self.k {
            None
        } else {
            self.heap.peek().map(|r| r.0.score)
        }
    }

    /// The weakest retained score even when fewer than `k` entries are held.
    pub fn weakest(&self) -> Option<f64> {
        self.heap.peek().map(|r| r.0.score)
    }

    /// Drains the collector into a vector sorted by descending score.
    pub fn into_sorted_vec(self) -> Vec<Scored> {
        let mut v: Vec<Scored> = self.heap.into_iter().map(|r| r.0).collect();
        v.sort_by(|a, b| b.cmp(a));
        v
    }
}

/// Keeps the `k` smallest scores seen so far (a max-heap of size ≤ k).
#[derive(Debug, Clone)]
pub struct TopKSmallest {
    k: usize,
    heap: BinaryHeap<Scored>,
}

impl TopKSmallest {
    /// Creates a collector for the `k` smallest scores. `k` must be > 0.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        TopKSmallest { k, heap: BinaryHeap::with_capacity(k + 1) }
    }

    /// Offers a scored row; it is retained only if it belongs to the k
    /// smallest.
    #[inline]
    pub fn push(&mut self, row: RowId, score: f64) {
        let item = Scored { row, score };
        if self.heap.len() < self.k {
            self.heap.push(item);
        } else if let Some(mut top) = self.heap.peek_mut() {
            // replace the weakest entry in place: one sift instead of two
            if item < *top {
                *top = item;
            }
        }
    }

    /// Number of retained entries (≤ k).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The k-th smallest score seen so far, or `None` when fewer than `k`
    /// entries have been offered.
    ///
    /// This is κ_max of the paper when fed with upper bounds `S_max`.
    pub fn kth(&self) -> Option<f64> {
        if self.heap.len() < self.k {
            None
        } else {
            self.heap.peek().map(|s| s.score)
        }
    }

    /// The weakest retained score even when fewer than `k` entries are held.
    pub fn weakest(&self) -> Option<f64> {
        self.heap.peek().map(|s| s.score)
    }

    /// Drains the collector into a vector sorted by ascending score.
    pub fn into_sorted_vec(self) -> Vec<Scored> {
        let mut v: Vec<Scored> = self.heap.into_iter().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2 000 generated vectors mixing NaN, ±∞, ±0 and ordinary values:
    /// sorting with either comparator never panics, puts every NaN last
    /// and leaves the numbers exactly where a NaN-free sort puts them.
    #[test]
    fn nan_last_comparators_are_total_orders() {
        let mut state = 0x00DD_BA11_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
        for _ in 0..2000 {
            let len = (next() % 40) as usize;
            let values: Vec<f64> = (0..len)
                .map(|_| match next() % 8 {
                    pick @ 0..=4 => specials[pick as usize],
                    _ => (next() % 1000) as f64 / 7.0 - 50.0,
                })
                .collect();
            let numbers: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
            type Pair = (fn(f64, f64) -> Ordering, fn(&f64, &f64) -> Option<Ordering>);
            let pairs: [Pair; 2] = [
                (ascending_nan_last, |a, b| a.partial_cmp(b)),
                (descending_nan_last, |a, b| b.partial_cmp(a)),
            ];
            for (cmp, reference) in pairs {
                let mut sorted = values.clone();
                sorted.sort_by(|&a, &b| cmp(a, b));
                let mut want = numbers.clone();
                want.sort_by(|a, b| reference(a, b).expect("no NaN left"));
                let (head, tail) = sorted.split_at(numbers.len());
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(head), bits(&want), "{values:?}");
                assert!(tail.iter().all(|v| v.is_nan()), "{values:?}");
            }
        }
    }

    #[test]
    fn top_k_largest_keeps_largest() {
        let mut t = TopKLargest::new(3);
        assert!(t.is_empty());
        assert_eq!(t.kth(), None);
        for (i, s) in [0.1, 0.9, 0.3, 0.8, 0.2, 0.7].into_iter().enumerate() {
            t.push(i as RowId, s);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.kth(), Some(0.7));
        let sorted = t.into_sorted_vec();
        let scores: Vec<f64> = sorted.iter().map(|s| s.score).collect();
        assert_eq!(scores, vec![0.9, 0.8, 0.7]);
    }

    #[test]
    fn top_k_smallest_keeps_smallest() {
        let mut t = TopKSmallest::new(2);
        for (i, s) in [5.0, 1.0, 3.0, 0.5, 4.0].into_iter().enumerate() {
            t.push(i as RowId, s);
        }
        assert_eq!(t.kth(), Some(1.0));
        let sorted = t.into_sorted_vec();
        let rows: Vec<RowId> = sorted.iter().map(|s| s.row).collect();
        assert_eq!(rows, vec![3, 1]);
    }

    #[test]
    fn kth_requires_k_entries() {
        let mut t = TopKLargest::new(5);
        t.push(0, 1.0);
        assert_eq!(t.kth(), None);
        assert_eq!(t.weakest(), Some(1.0));
        let mut t = TopKSmallest::new(5);
        t.push(0, 1.0);
        assert_eq!(t.kth(), None);
        assert_eq!(t.weakest(), Some(1.0));
    }

    #[test]
    fn ties_are_deterministic() {
        let mut a = TopKLargest::new(2);
        let mut b = TopKLargest::new(2);
        for (i, s) in [0.5, 0.5, 0.5, 0.5].into_iter().enumerate() {
            a.push(i as RowId, s);
            b.push(i as RowId, s);
        }
        assert_eq!(a.into_sorted_vec(), b.into_sorted_vec());
    }

    /// The eviction `push` used before the in-place `peek_mut` replacement.
    fn pop_then_push<T: Ord>(heap: &mut BinaryHeap<T>, k: usize, item: T) {
        if heap.len() < k {
            heap.push(item);
        } else if heap.peek().is_some_and(|top| item < *top) {
            heap.pop();
            heap.push(item);
        }
    }

    #[test]
    fn in_place_eviction_retains_what_pop_then_push_retained() {
        // few distinct scores over many rows: duplicate scores everywhere,
        // so evictions are decided by the row-id tie-break
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for k in [1, 2, 7, 64] {
            let mut largest = TopKLargest::new(k);
            let mut smallest = TopKSmallest::new(k);
            let mut old_largest = BinaryHeap::new();
            let mut old_smallest = BinaryHeap::new();
            for _ in 0..500 {
                let row = (next() % 40) as RowId;
                let score = (next() % 5) as f64 * 0.25;
                largest.push(row, score);
                smallest.push(row, score);
                pop_then_push(&mut old_largest, k, std::cmp::Reverse(Scored { row, score }));
                pop_then_push(&mut old_smallest, k, Scored { row, score });
                assert_eq!(largest.weakest(), old_largest.peek().map(|r| r.0.score));
                assert_eq!(smallest.weakest(), old_smallest.peek().map(|s| s.score));
            }
            assert_eq!(largest.kth(), largest.weakest(), "500 offers fill every k here");
            assert_eq!(smallest.kth(), smallest.weakest());
            let mut expected: Vec<Scored> = old_largest.into_iter().map(|r| r.0).collect();
            expected.sort_by(|a, b| b.cmp(a));
            assert_eq!(largest.into_sorted_vec(), expected, "k = {k}");
            let mut expected: Vec<Scored> = old_smallest.into_iter().collect();
            expected.sort();
            assert_eq!(smallest.into_sorted_vec(), expected, "k = {k}");
        }
    }

    #[test]
    fn clear_keeps_k() {
        let mut t = TopKLargest::new(2);
        for (i, s) in [0.4, 0.9, 0.1].into_iter().enumerate() {
            t.push(i as RowId, s);
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.kth(), None);
        t.push(7, 0.5);
        t.push(8, 0.25);
        t.push(9, 0.75);
        assert_eq!(t.kth(), Some(0.5));
    }

    #[test]
    fn reset_takes_a_new_k_and_iter_lists_the_entries() {
        let mut t = TopKLargest::new(2);
        t.push(1, 0.4);
        t.reset(3);
        assert!(t.is_empty());
        for (i, s) in [0.4, 0.9, 0.1, 0.7].into_iter().enumerate() {
            t.push(i as RowId, s);
        }
        assert_eq!(t.kth(), Some(0.4));
        let mut rows: Vec<RowId> = t.iter().map(|entry| entry.row).collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![0, 1, 3]);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = TopKLargest::new(0);
    }

    #[test]
    fn scored_ordering() {
        let a = Scored { row: 1, score: 0.3 };
        let b = Scored { row: 2, score: 0.3 };
        let c = Scored { row: 0, score: 0.9 };
        assert!(a < b);
        assert!(b < c);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }
}
