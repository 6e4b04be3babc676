//! Horizontal partitioning: zero-copy row-range views of a decomposed table.
//!
//! BOND's per-fragment partial scores shard naturally along the row axis —
//! a candidate's bounds depend only on its own coefficients — so a table can
//! be split into contiguous row ranges that independent workers scan in
//! parallel (the `bond-exec` engine does exactly that). A [`Segment`] is a
//! *view*: it borrows the table's columns and exposes each dimensional
//! fragment as a sub-slice, so partitioning copies no vector data.
//!
//! Every segment can also compute its own per-dimension statistics
//! ([`SegmentStats`]); because real collections are often appended in
//! batches with drifting distributions, per-segment statistics diverge from
//! the table-wide ones and are the hook for per-segment tuning decisions
//! (and, later, for segment-level zone-map pruning).

use crate::bitmap::Bitmap;
use crate::error::{Result, VdError};
use crate::stats::ColumnStats;
use crate::table::DecomposedTable;
use crate::topk::descending_nan_last;
use crate::RowId;
use std::ops::Range;

/// An owned, lifetime-free description of a segment: the row range it
/// covers, without a borrow of the table.
///
/// A `SegmentSpec` is what a long-lived engine *stores* — plain partition
/// boundaries that are `Send + Sync + 'static` and trivially copyable —
/// while a [`Segment`] is what a search *scans*: [`SegmentSpec::view`]
/// materialises the zero-copy borrowed view on demand, per call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegmentSpec {
    start: usize,
    len: usize,
}

impl SegmentSpec {
    /// A spec covering `len` rows starting at table row `start`.
    #[must_use]
    pub fn new(start: usize, len: usize) -> Self {
        SegmentSpec { start, len }
    }

    /// First table row covered.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of rows covered (including tombstoned ones).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the spec covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The covered table row range.
    pub fn range(&self) -> Range<usize> {
        self.start..self.start + self.len
    }

    /// Materialises the zero-copy [`Segment`] view of `table` this spec
    /// describes. Errors when the range falls outside the table (e.g. a
    /// spec persisted against a since-reorganised table).
    pub fn view<'t>(&self, table: &'t DecomposedTable) -> Result<Segment<'t>> {
        table.segment(self.range())
    }
}

/// A contiguous row-range view of a [`DecomposedTable`].
///
/// Row ids inside a segment are *local* (0-based within the segment);
/// [`Segment::to_global`] maps them back to table row ids.
#[derive(Debug, Clone, Copy)]
pub struct Segment<'a> {
    table: &'a DecomposedTable,
    start: usize,
    len: usize,
}

impl<'a> Segment<'a> {
    /// The table this segment views.
    pub fn table(&self) -> &'a DecomposedTable {
        self.table
    }

    /// The owned, lifetime-free description of this segment's row range.
    pub fn spec(&self) -> SegmentSpec {
        SegmentSpec { start: self.start, len: self.len }
    }

    /// First table row covered by this segment.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of rows covered (including tombstoned ones).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the segment covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The covered table row range.
    pub fn range(&self) -> Range<usize> {
        self.start..self.start + self.len
    }

    /// Number of live (non-tombstoned) rows in the segment.
    pub fn live_rows(&self) -> usize {
        self.range().filter(|&r| !self.table.is_deleted(r as RowId)).count()
    }

    /// The values of dimension `dim` restricted to this segment — a
    /// zero-copy sub-slice of the table's column.
    pub fn col_slice(&self, dim: usize) -> Result<&'a [f64]> {
        Ok(&self.table.column(dim)?.values()[self.range()])
    }

    /// Maps a segment-local row id to the table row id.
    #[inline]
    pub fn to_global(&self, local: RowId) -> RowId {
        (self.start + local as usize) as RowId
    }

    /// Maps a table row id to the segment-local id, when covered.
    pub fn to_local(&self, global: RowId) -> Option<RowId> {
        let g = global as usize;
        self.range().contains(&g).then(|| (g - self.start) as RowId)
    }

    /// The live-row bitmap of this segment, in *local* indexing: bit `i` is
    /// set iff table row `start + i` is not tombstoned. This is the initial
    /// candidate set of a per-segment BOND search. Word-wise over the
    /// segment's own window of the tombstones, so it costs O(len / 64)
    /// however large the table is.
    pub fn live_bitmap(&self) -> Bitmap {
        let mut live = Bitmap::default();
        self.live_bitmap_into(&mut live);
        live
    }

    /// [`Segment::live_bitmap`] into `out`, reusing its storage — what a
    /// search that keeps per-thread scratch calls.
    pub fn live_bitmap_into(&self, out: &mut Bitmap) {
        self.table.tombstones().slice_into(self.range(), out);
        out.negate();
    }

    /// Per-row total masses `T(x)` of the segment's rows, in local order —
    /// the `Ev` bookkeeping, restricted to the rows this segment scans.
    pub fn row_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.len];
        for d in 0..self.table.dims() {
            let values = self.col_slice(d).expect("dimension in range");
            for (s, &v) in sums.iter_mut().zip(values) {
                *s += v;
            }
        }
        sums
    }

    /// Per-dimension statistics over *this segment's rows only*, plus the
    /// row-sum envelope a search planner needs. Each fragment is visited
    /// once (the per-row sums accumulate alongside the column moments);
    /// intended to be computed once at partition time and cached.
    pub fn stats(&self) -> SegmentStats {
        let mut sums = vec![0.0; self.len];
        let per_dim: Vec<Option<ColumnStats>> = (0..self.table.dims())
            .map(|d| {
                let values = self.col_slice(d).expect("dimension in range");
                for (s, &v) in sums.iter_mut().zip(values) {
                    *s += v;
                }
                ColumnStats::compute_slice(self.table.column(d).expect("dim").name(), values)
            })
            .collect();
        let (mut sum_min, mut sum_max, mut total) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
        for &s in &sums {
            sum_min = sum_min.min(s);
            sum_max = sum_max.max(s);
            total += s;
        }
        let (row_sum_min, row_sum_max, row_sum_mean) = if sums.is_empty() {
            (0.0, 0.0, 0.0)
        } else {
            (sum_min, sum_max, total / sums.len() as f64)
        };
        SegmentStats {
            range: self.range(),
            per_dim,
            live_rows: self.live_rows(),
            row_sum_min,
            row_sum_max,
            row_sum_mean,
        }
    }
}

/// A per-dimension value envelope: parallel `(mins, maxs)` vectors — the
/// zone map of a row range.
pub type Envelope = (Vec<f64>, Vec<f64>);

/// Per-dimension statistics of one segment.
///
/// Each entry is `None` only for an empty segment. Beyond the per-column
/// moments, the struct carries the *envelopes* a search planner consumes:
/// per-dimension `[min, max]` value boxes (the zone map of the segment) and
/// the `[min, max]` range of the per-row total masses `T(x)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentStats {
    /// The table row range the statistics describe.
    pub range: Range<usize>,
    /// Statistics of each dimensional fragment, restricted to the segment.
    pub per_dim: Vec<Option<ColumnStats>>,
    /// Number of live (non-tombstoned) rows in the segment.
    pub live_rows: usize,
    /// Smallest per-row total mass `T(x)` in the segment (0 when empty).
    pub row_sum_min: f64,
    /// Largest per-row total mass `T(x)` in the segment (0 when empty).
    pub row_sum_max: f64,
    /// Mean per-row total mass `T(x)` in the segment (0 when empty).
    pub row_sum_mean: f64,
}

impl SegmentStats {
    /// The owned boundary description of the row range the statistics
    /// cover — the inverse of [`SegmentSpec::view`] + [`Segment::stats`],
    /// used when persisted stats are matched back to persisted specs.
    pub fn spec(&self) -> SegmentSpec {
        SegmentSpec::new(self.range.start, self.range.end - self.range.start)
    }

    /// The per-dimension mean values (NaN for an empty segment).
    pub fn mean_per_dim(&self) -> Vec<f64> {
        self.per_dim.iter().map(|s| s.as_ref().map_or(f64::NAN, |s| s.mean)).collect()
    }

    /// The per-dimension minimum values (NaN for an empty segment).
    pub fn min_per_dim(&self) -> Vec<f64> {
        self.per_dim.iter().map(|s| s.as_ref().map_or(f64::NAN, |s| s.min)).collect()
    }

    /// The per-dimension maximum values (NaN for an empty segment).
    pub fn max_per_dim(&self) -> Vec<f64> {
        self.per_dim.iter().map(|s| s.as_ref().map_or(f64::NAN, |s| s.max)).collect()
    }

    /// The segment's value envelope: per-dimension `(min, max)` boxes, i.e.
    /// the zone map used for metric-specific whole-segment bounds. `None`
    /// for an empty segment.
    pub fn envelope(&self) -> Option<Envelope> {
        if self.per_dim.iter().any(|s| s.is_none()) {
            return None;
        }
        Some((self.min_per_dim(), self.max_per_dim()))
    }

    /// The dimensions ordered by decreasing segment-local mean — the
    /// per-segment analogue of the paper's "decreasing value in q" heuristic
    /// applied to the data side.
    pub fn dims_by_mean_descending(&self) -> Vec<usize> {
        let means = self.mean_per_dim();
        let mut order: Vec<usize> = (0..means.len()).collect();
        order.sort_by(|&a, &b| descending_nan_last(means[a], means[b]).then(a.cmp(&b)));
        order
    }
}

impl DecomposedTable {
    /// A segment viewing the given row range.
    pub fn segment(&self, range: Range<usize>) -> Result<Segment<'_>> {
        if range.start > range.end || range.end > self.rows() {
            return Err(VdError::RowOutOfBounds { row: range.end as RowId, rows: self.rows() });
        }
        Ok(Segment { table: self, start: range.start, len: range.end - range.start })
    }

    /// Splits the table into `partitions` contiguous row-range segments of
    /// near-equal size (sizes differ by at most one row; empty trailing
    /// segments are omitted for tables smaller than the partition count).
    pub fn partition_segments(&self, partitions: usize) -> Vec<Segment<'_>> {
        self.partition_specs(partitions)
            .into_iter()
            .map(|spec| Segment { table: self, start: spec.start, len: spec.len })
            .collect()
    }

    /// The owned boundaries of [`DecomposedTable::partition_segments`]:
    /// the same near-equal split, as lifetime-free [`SegmentSpec`]s a
    /// long-lived engine can store and re-materialise per call.
    pub fn partition_specs(&self, partitions: usize) -> Vec<SegmentSpec> {
        let partitions = partitions.max(1);
        let rows = self.rows();
        let base = rows / partitions;
        let extra = rows % partitions;
        let mut specs = Vec::with_capacity(partitions);
        let mut start = 0;
        for p in 0..partitions {
            let len = base + usize::from(p < extra);
            if len == 0 {
                break;
            }
            specs.push(SegmentSpec { start, len });
            start += len;
        }
        specs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DecomposedTable {
        DecomposedTable::from_vectors(
            "seg",
            &(0..10).map(|i| vec![i as f64, 10.0 - i as f64, 0.5]).collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn segment_views_are_zero_copy_slices() {
        let t = sample();
        let s = t.segment(3..7).unwrap();
        assert_eq!(s.start(), 3);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.col_slice(0).unwrap(), &[3.0, 4.0, 5.0, 6.0]);
        assert_eq!(s.col_slice(1).unwrap(), &[7.0, 6.0, 5.0, 4.0]);
        // the slice aliases the column's storage
        let col = t.column(0).unwrap().values();
        assert!(std::ptr::eq(&col[3], &s.col_slice(0).unwrap()[0]));
        assert!(s.col_slice(9).is_err());
        assert!(t.segment(5..11).is_err());
        #[allow(clippy::reversed_empty_ranges)]
        let backwards = t.segment(7..3);
        assert!(backwards.is_err());
    }

    #[test]
    fn specs_round_trip_through_views() {
        let t = sample();
        let spec = SegmentSpec::new(3, 4);
        assert_eq!(spec.start(), 3);
        assert_eq!(spec.len(), 4);
        assert!(!spec.is_empty());
        assert_eq!(spec.range(), 3..7);
        let view = spec.view(&t).unwrap();
        assert_eq!(view.range(), 3..7);
        assert_eq!(view.spec(), spec);
        assert_eq!(view.stats().spec(), spec);
        // out-of-bounds specs fail to materialise instead of panicking
        assert!(SegmentSpec::new(5, 6).view(&t).is_err());
        assert!(SegmentSpec::new(0, 0).is_empty());
    }

    #[test]
    fn partition_specs_match_partition_segments() {
        let t = sample();
        for parts in [1, 2, 3, 4, 7, 10, 13] {
            let specs = t.partition_specs(parts);
            let segments = t.partition_segments(parts);
            assert_eq!(specs.len(), segments.len(), "parts = {parts}");
            for (spec, seg) in specs.iter().zip(&segments) {
                assert_eq!(seg.spec(), *spec);
                assert_eq!(spec.view(&t).unwrap().range(), seg.range());
            }
        }
        assert_eq!(t.partition_specs(0).len(), 1, "0 partitions clamps to 1");
    }

    #[test]
    fn local_global_round_trip() {
        let t = sample();
        let s = t.segment(4..8).unwrap();
        assert_eq!(s.to_global(0), 4);
        assert_eq!(s.to_global(3), 7);
        assert_eq!(s.to_local(5), Some(1));
        assert_eq!(s.to_local(3), None);
        assert_eq!(s.to_local(8), None);
    }

    #[test]
    fn partitioning_covers_every_row_exactly_once() {
        let t = sample();
        for parts in [1, 2, 3, 4, 7, 10, 13] {
            let segments = t.partition_segments(parts);
            assert!(segments.len() <= parts);
            let mut covered = Vec::new();
            for s in &segments {
                covered.extend(s.range());
            }
            assert_eq!(covered, (0..t.rows()).collect::<Vec<_>>(), "parts = {parts}");
            // sizes are balanced to within one row
            let sizes: Vec<usize> = segments.iter().map(|s| s.len()).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "unbalanced partition sizes {sizes:?}");
        }
        assert_eq!(t.partition_segments(0).len(), 1, "0 partitions clamps to 1");
    }

    #[test]
    fn live_bitmap_is_local_and_respects_tombstones() {
        let mut t = sample();
        t.delete(5).unwrap();
        let s = t.segment(4..8).unwrap();
        assert_eq!(s.live_bitmap().to_rows(), vec![0, 2, 3]); // local ids
        assert_eq!(s.live_rows(), 3);
        let untouched = t.segment(0..4).unwrap();
        assert_eq!(untouched.live_rows(), 4);
    }

    #[test]
    fn live_bitmap_of_unaligned_ranges_matches_the_table_bitmap() {
        // 200 rows so that ranges start and end inside 64-row words
        let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64]).collect();
        let mut t = DecomposedTable::from_vectors("wide", &rows).unwrap();
        for row in [0, 5, 63, 64, 70, 127, 128, 199] {
            t.delete(row).unwrap();
        }
        for range in [0..200, 3..200, 5..70, 63..65, 64..128, 70..199, 130..130] {
            let s = t.segment(range.clone()).unwrap();
            let live = s.live_bitmap();
            assert_eq!(live, t.live_bitmap().slice(range.clone()), "range {range:?}");
            assert_eq!(live.count(), s.live_rows(), "range {range:?}");
        }
    }

    #[test]
    fn segment_row_sums_match_table_row_sums() {
        let t = sample();
        let all = t.row_sums();
        let s = t.segment(2..9).unwrap();
        let local = s.row_sums();
        for (i, sum) in local.iter().enumerate() {
            assert!((sum - all[i + 2]).abs() < 1e-12);
        }
    }

    #[test]
    fn per_segment_stats_differ_from_table_stats() {
        let t = sample();
        let lo = t.segment(0..5).unwrap().stats();
        let hi = t.segment(5..10).unwrap().stats();
        // dimension 0 is ascending: the two halves have different means
        let m_lo = lo.per_dim[0].as_ref().unwrap().mean;
        let m_hi = hi.per_dim[0].as_ref().unwrap().mean;
        assert!(m_lo < m_hi);
        assert_eq!(lo.range, 0..5);
        // dimension 2 is constant: identical stats in both segments
        let (c_lo, c_hi) = (lo.per_dim[2].as_ref().unwrap(), hi.per_dim[2].as_ref().unwrap());
        assert_eq!((c_lo.min, c_lo.max, c_lo.mean), (c_hi.min, c_hi.max, c_hi.mean));
    }

    #[test]
    fn stats_carry_envelopes_and_row_sum_range() {
        let mut t = sample();
        t.delete(1).unwrap();
        let s = t.segment(0..4).unwrap();
        let stats = s.stats();
        assert_eq!(stats.live_rows, 3);
        let (mins, maxs) = stats.envelope().expect("non-empty segment has an envelope");
        assert_eq!(mins, vec![0.0, 7.0, 0.5]);
        assert_eq!(maxs, vec![3.0, 10.0, 0.5]);
        // row sums: i + (10 - i) + 0.5 = 10.5 for every row
        assert!((stats.row_sum_min - 10.5).abs() < 1e-12);
        assert!((stats.row_sum_max - 10.5).abs() < 1e-12);
        assert!((stats.row_sum_mean - 10.5).abs() < 1e-12);
        // empty segment: no envelope, zeroed row-sum range
        let empty = t.segment(4..4).unwrap().stats();
        assert!(empty.envelope().is_none());
        assert_eq!((empty.row_sum_min, empty.row_sum_max, empty.row_sum_mean), (0.0, 0.0, 0.0));
        assert_eq!(empty.live_rows, 0);
    }

    #[test]
    fn stats_ordering_prefers_heavy_dims() {
        let t = sample();
        let s = t.segment(0..3).unwrap(); // dim1 mean 9, dim0 mean 1, dim2 mean 0.5
        assert_eq!(s.stats().dims_by_mean_descending(), vec![1, 0, 2]);
        let empty = t.segment(4..4).unwrap();
        assert!(empty.is_empty());
        assert!(empty.stats().per_dim.iter().all(|s| s.is_none()));
    }
}
