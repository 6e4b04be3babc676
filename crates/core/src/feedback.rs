//! Execution feedback: what past searches learned about each segment.
//!
//! Every search already emits a [`PruneTrace`] — where pruning first bit,
//! how many candidates survived, how many code cells the filter swept.
//! [`ExecFeedback`] is the accumulator: one [`SegmentFeedback`] of
//! lock-free atomic counters per segment, folded in from each query's trace
//! on the worker threads themselves (relaxed ordering — a stale read merely
//! prices like yesterday, never wrongly), and snapshotted into the
//! plain-data [`FeedbackSnapshot`] for introspection, the cost estimates
//! EXPLAIN/ANALYZE render, and persistence alongside the segment store
//! footer. Plans and the service queue never read it.

use crate::error::{BondError, Result};
use crate::trace::PruneTrace;
use std::sync::atomic::{AtomicU64, Ordering};
use vdstore::VdError;

/// Fixed-point scale for fractional accumulators (survival).
pub const FEEDBACK_SCALE: u64 = 1 << 20;

/// Magic prefix of the serialised [`FeedbackSnapshot`] (the learned-state
/// payload stored alongside the v2 store footer).
const FEEDBACK_MAGIC: &[u8; 8] = b"BONDFB02";

/// Magic prefix of the earlier payload, which also carried a table
/// dimensionality and one prune credit per dimension per segment. Still
/// read: its credits are validated and dropped.
const FEEDBACK_MAGIC_V1: &[u8; 8] = b"BONDFB01";

/// Persisted counters per segment record.
const PERSISTED_COUNTERS: usize = 7;

/// Lock-free feedback accumulator for one segment.
///
/// All counters are relaxed atomics: folds happen concurrently on the
/// engine's worker threads, reads happen while other queries are still
/// executing, and both directions tolerate staleness — feedback only tunes
/// *plans*, never answers.
#[derive(Debug)]
pub struct SegmentFeedback {
    /// Searches folded in (zone-map skips are counted separately).
    searches: AtomicU64,
    /// Times the segment was skipped outright by the zone-map check — a
    /// "skip hit": the envelope bound saved the whole scan.
    skips: AtomicU64,
    /// Times the segment was scanned but contributed nothing to the final
    /// top-k — a "skip miss": work the zone map failed to avoid.
    misses: AtomicU64,
    /// Sum of observed warmup lengths (dimensions scanned before the first
    /// pruning attempt that removed anything; the full scan when none did).
    warmup_sum: AtomicU64,
    /// Number of searches contributing to `warmup_sum`.
    warmup_count: AtomicU64,
    /// Σ final-survivor fraction × [`FEEDBACK_SCALE`].
    survival_sum: AtomicU64,
    /// Total `(candidate, dimension)` contribution evaluations folded in.
    contributions: AtomicU64,
    /// Total `(row, dimension)` code cells swept by the quantized
    /// first-pass filter. In-memory only: not part of the persisted
    /// learned-state payload (whose seven-counter records predate it);
    /// selectivity re-learns within a few queries after a cold open.
    filter_cells: AtomicU64,
    /// Total rows the quantized filter swept (the denominator of the
    /// observed filter selectivity). In-memory only, like `filter_cells`.
    filter_rows: AtomicU64,
    /// Total rows that survived the quantized filter into the exact
    /// search. In-memory only, like `filter_cells`.
    refine_rows: AtomicU64,
}

impl SegmentFeedback {
    fn new() -> Self {
        SegmentFeedback {
            searches: AtomicU64::new(0),
            skips: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            warmup_sum: AtomicU64::new(0),
            warmup_count: AtomicU64::new(0),
            survival_sum: AtomicU64::new(0),
            contributions: AtomicU64::new(0),
            filter_cells: AtomicU64::new(0),
            filter_rows: AtomicU64::new(0),
            refine_rows: AtomicU64::new(0),
        }
    }

    fn from_snapshot(snap: &SegmentFeedbackSnapshot) -> Self {
        SegmentFeedback {
            searches: AtomicU64::new(snap.searches),
            skips: AtomicU64::new(snap.skips),
            misses: AtomicU64::new(snap.misses),
            warmup_sum: AtomicU64::new(snap.warmup_sum),
            warmup_count: AtomicU64::new(snap.warmup_count),
            survival_sum: AtomicU64::new(snap.survival_sum),
            contributions: AtomicU64::new(snap.contributions),
            filter_cells: AtomicU64::new(snap.filter_cells),
            filter_rows: AtomicU64::new(snap.filter_rows),
            refine_rows: AtomicU64::new(snap.refine_rows),
        }
    }

    /// Folds one executed (non-skipped) segment search into the
    /// accumulator. `dims` is the length of the plan the search scanned
    /// (the observed warmup of a search that never pruned) and `rows` the
    /// segment's row count; a trace alone knows neither.
    ///
    /// Callers must not fold predicate-filtered searches: their survival
    /// and prune-depth signals describe the filter's eligible subset, not
    /// the segment's data distribution, and would skew the estimates of
    /// unfiltered queries (the engine gates on `filter.is_none()` before
    /// calling this).
    // ordering: relaxed — every counter is an independent monotone
    // accumulator folded by racing workers via atomic RMW (no increment is
    // lost); readers consume snapshots that tune cost estimates, never
    // answers, so cross-counter skew from unordered folds is benign.
    pub fn record_search(&self, dims: usize, trace: &PruneTrace, rows: usize) {
        self.searches.fetch_add(1, Ordering::Relaxed);
        self.contributions.fetch_add(trace.contributions_evaluated, Ordering::Relaxed);
        if trace.filter_ran() {
            self.filter_cells.fetch_add(trace.filter_cells, Ordering::Relaxed);
            self.filter_rows.fetch_add(rows as u64, Ordering::Relaxed);
            self.refine_rows.fetch_add(trace.refine_rows, Ordering::Relaxed);
        }
        let mut prev = 0usize;
        let mut first_effective: Option<usize> = None;
        let mut final_candidates = rows;
        for cp in &trace.checkpoints {
            let end = cp.dims_processed.min(dims);
            if cp.pruned_now > 0 && end > prev && first_effective.is_none() {
                first_effective = Some(end);
            }
            prev = end;
            final_candidates = cp.candidates;
        }
        self.warmup_sum.fetch_add(first_effective.unwrap_or(dims) as u64, Ordering::Relaxed);
        self.warmup_count.fetch_add(1, Ordering::Relaxed);
        if rows > 0 {
            let frac =
                (final_candidates.min(rows) as u64).saturating_mul(FEEDBACK_SCALE) / rows as u64;
            self.survival_sum.fetch_add(frac, Ordering::Relaxed);
        }
    }

    /// Records one zone-map skip (the envelope bound saved the scan).
    // ordering: relaxed — independent monotone event count (see
    // `record_search`).
    pub fn record_skip(&self) {
        self.skips.fetch_add(1, Ordering::Relaxed);
    }

    /// Records that a scanned search contributed nothing to its query's
    /// final top-k (the work the zone map failed to avoid).
    // ordering: relaxed — independent monotone event count (see
    // `record_search`).
    pub fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// A plain-data copy of the counters (each counter is read atomically;
    /// concurrent folds may land between reads, which only staleness-shifts
    /// the snapshot — acceptable for cost estimates).
    // ordering: relaxed — loads race with in-flight folds; the copy only
    // staleness-shifts cost estimates, and each field alone is a valid
    // (monotone) reading, so no acquire pairing is needed.
    pub fn snapshot(&self) -> SegmentFeedbackSnapshot {
        SegmentFeedbackSnapshot {
            searches: self.searches.load(Ordering::Relaxed),
            skips: self.skips.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            warmup_sum: self.warmup_sum.load(Ordering::Relaxed),
            warmup_count: self.warmup_count.load(Ordering::Relaxed),
            survival_sum: self.survival_sum.load(Ordering::Relaxed),
            contributions: self.contributions.load(Ordering::Relaxed),
            filter_cells: self.filter_cells.load(Ordering::Relaxed),
            filter_rows: self.filter_rows.load(Ordering::Relaxed),
            refine_rows: self.refine_rows.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data snapshot of one segment's feedback counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SegmentFeedbackSnapshot {
    /// Searches folded in (excluding zone-map skips).
    pub searches: u64,
    /// Zone-map skips observed.
    pub skips: u64,
    /// Scanned searches that contributed nothing to the final top-k.
    pub misses: u64,
    /// Sum of observed warmup lengths, in dimensions.
    pub warmup_sum: u64,
    /// Number of searches contributing to `warmup_sum`.
    pub warmup_count: u64,
    /// Σ final-survivor fraction × [`FEEDBACK_SCALE`].
    pub survival_sum: u64,
    /// Total contribution evaluations folded in.
    pub contributions: u64,
    /// Total code cells swept by the quantized first-pass filter (zero
    /// when no search used codes). Not persisted with the learned state.
    pub filter_cells: u64,
    /// Total rows the quantized filter swept. Not persisted.
    pub filter_rows: u64,
    /// Total rows that survived the quantized filter. Not persisted.
    pub refine_rows: u64,
}

impl SegmentFeedbackSnapshot {
    /// Whether enough observations have been folded in for the observed
    /// counters to outrank the full-work prior. Zone-map skips count:
    /// a segment the envelope check keeps skipping is thoroughly observed
    /// even though it is never scanned.
    pub fn is_warm(&self, min_observations: u64) -> bool {
        self.searches + self.skips >= min_observations
    }

    /// Mean observed warmup length in dimensions, when any search was
    /// folded in.
    pub fn mean_warmup(&self) -> Option<f64> {
        (self.warmup_count > 0).then(|| self.warmup_sum as f64 / self.warmup_count as f64)
    }

    /// Mean fraction of the segment's rows that survived to the end of the
    /// scan, when any search was folded in.
    pub fn mean_survival(&self) -> Option<f64> {
        (self.searches > 0)
            .then(|| self.survival_sum as f64 / (self.searches as f64 * FEEDBACK_SCALE as f64))
    }

    /// Fraction of this segment's encounters the zone-map check skipped.
    pub fn skip_rate(&self) -> f64 {
        let total = self.searches + self.skips;
        if total == 0 {
            0.0
        } else {
            self.skips as f64 / total as f64
        }
    }

    /// Mean observed selectivity of the quantized first-pass filter: the
    /// fraction of swept rows that survived into the exact search. `None`
    /// until a filtered search has been folded in. Lower is better — a
    /// selectivity of 0.1 means the exact scan touched a tenth of the rows.
    pub fn filter_selectivity(&self) -> Option<f64> {
        (self.filter_rows > 0).then(|| self.refine_rows as f64 / self.filter_rows as f64)
    }
}

/// A plain-data snapshot of a whole engine's feedback store: one entry per
/// segment, in segment (row-range) order. This is what
/// `Engine::feedback_snapshot()` returns and what persists alongside the v2
/// store footer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedbackSnapshot {
    /// Per-segment snapshots, parallel to the engine's segment specs.
    pub segments: Vec<SegmentFeedbackSnapshot>,
}

impl FeedbackSnapshot {
    /// Total searches folded in across all segments.
    pub fn total_searches(&self) -> u64 {
        self.segments.iter().map(|s| s.searches).sum()
    }

    /// Total zone-map skips observed across all segments.
    pub fn total_skips(&self) -> u64 {
        self.segments.iter().map(|s| s.skips).sum()
    }

    /// Serialises the snapshot into the opaque learned-state payload the
    /// store writer embeds in the v2 footer (all integers little-endian:
    /// magic `BONDFB02`, segments u32, then per segment seven u64
    /// counters).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(12 + self.segments.len() * PERSISTED_COUNTERS * 8);
        buf.extend_from_slice(FEEDBACK_MAGIC);
        buf.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        for s in &self.segments {
            for v in [
                s.searches,
                s.skips,
                s.misses,
                s.warmup_sum,
                s.warmup_count,
                s.survival_sum,
                s.contributions,
            ] {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        buf
    }

    /// Parses a payload produced by [`FeedbackSnapshot::to_bytes`],
    /// validating structure and counts. A `BONDFB01` payload — magic,
    /// dims u32, segments u32, then per segment the seven counters
    /// followed by `dims` u64 prune credits — is validated the same way
    /// and its credits are dropped: a store file is outside input.
    ///
    /// # Errors
    ///
    /// [`BondError::Storage`] wrapping [`VdError::Corrupt`] on any
    /// structural violation (bad magic, truncation, trailing bytes,
    /// allocation-attack counts, a `BONDFB01` payload with zero dims).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        fn take<'a>(buf: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8]> {
            if buf.len() < n {
                return Err(BondError::Storage(VdError::Corrupt(format!("truncated {what}"))));
            }
            let (head, tail) = buf.split_at(n);
            *buf = tail;
            Ok(head)
        }
        fn take_u32(buf: &mut &[u8], what: &str) -> Result<usize> {
            Ok(u32::from_le_bytes(take(buf, 4, what)?.try_into().unwrap()) as usize)
        }
        let corrupt = |msg: &str| BondError::Storage(VdError::Corrupt(msg.into()));
        let mut buf = bytes;
        // the bytes each record carries after its counters
        let credit_bytes = match take(&mut buf, 8, "feedback magic")? {
            magic if magic == FEEDBACK_MAGIC => 0,
            magic if magic == FEEDBACK_MAGIC_V1 => {
                let dims = take_u32(&mut buf, "feedback dims")?;
                if dims == 0 {
                    return Err(corrupt("feedback payload has zero dimensions"));
                }
                dims.checked_mul(8).ok_or_else(|| corrupt("credit length overflows"))?
            }
            _ => return Err(corrupt("bad feedback magic")),
        };
        let n_segments = take_u32(&mut buf, "feedback segment count")?;
        let per_segment = (PERSISTED_COUNTERS * 8)
            .checked_add(credit_bytes)
            .ok_or_else(|| corrupt("segment record length overflows"))?;
        let expected = n_segments
            .checked_mul(per_segment)
            .ok_or_else(|| corrupt("feedback payload length overflows"))?;
        if buf.len() != expected {
            return Err(corrupt("feedback payload length disagrees with its header"));
        }
        let segments = buf
            .chunks_exact(per_segment)
            .map(|record| {
                let counter =
                    |i: usize| u64::from_le_bytes(record[i * 8..][..8].try_into().unwrap());
                SegmentFeedbackSnapshot {
                    searches: counter(0),
                    skips: counter(1),
                    misses: counter(2),
                    warmup_sum: counter(3),
                    warmup_count: counter(4),
                    survival_sum: counter(5),
                    contributions: counter(6),
                    // the quantized-filter counters are in-memory-only
                    // signals; a reopened store re-learns them within a few
                    // queries
                    ..Default::default()
                }
            })
            .collect();
        Ok(FeedbackSnapshot { segments })
    }
}

/// The engine-wide feedback store: one lock-free [`SegmentFeedback`] per
/// segment. Shared by every worker thread of every concurrently executing
/// batch; folding and reading never block.
#[derive(Debug)]
pub struct ExecFeedback {
    segments: Vec<SegmentFeedback>,
}

impl ExecFeedback {
    /// An empty store for `n_segments` segments.
    pub fn new(n_segments: usize) -> Self {
        ExecFeedback { segments: (0..n_segments).map(|_| SegmentFeedback::new()).collect() }
    }

    /// Restores a store from persisted learned state.
    pub fn from_snapshot(snap: &FeedbackSnapshot) -> Self {
        ExecFeedback {
            segments: snap.segments.iter().map(SegmentFeedback::from_snapshot).collect(),
        }
    }

    /// Number of segments tracked.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the store tracks no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The accumulator of segment `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn segment(&self, index: usize) -> &SegmentFeedback {
        &self.segments[index]
    }

    /// A plain-data snapshot of every segment's counters.
    pub fn snapshot(&self) -> FeedbackSnapshot {
        FeedbackSnapshot { segments: self.segments.iter().map(SegmentFeedback::snapshot).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceCheckpoint;

    fn trace(checkpoints: Vec<(usize, usize, usize)>) -> PruneTrace {
        PruneTrace {
            checkpoints: checkpoints
                .into_iter()
                .map(|(dims_processed, candidates, pruned_now)| TraceCheckpoint {
                    dims_processed,
                    candidates,
                    pruned_now,
                })
                .collect(),
            contributions_evaluated: 100,
            dims_accessed: 4,
            pruning_attempts: 2,
            switched_to_list: false,
            segment_skipped: false,
            filter_cells: 0,
            filter_dims: 0,
            filter_steps: 0,
            filter_probes: 0,
            filter_blocks_skipped: 0,
            refine_rows: 0,
            filter_bits: 0,
            kernel: None,
            rule: None,
        }
    }

    /// A `BONDFB01` payload as the earlier writer laid it out: magic, dims,
    /// segments, then per segment seven counters and `dims` prune credits.
    fn v1_payload(dims: u32, records: &[[u64; 7]]) -> Vec<u8> {
        let mut buf = FEEDBACK_MAGIC_V1.to_vec();
        buf.extend_from_slice(&dims.to_le_bytes());
        buf.extend_from_slice(&(records.len() as u32).to_le_bytes());
        for (i, counters) in records.iter().enumerate() {
            for v in counters {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            for d in 0..u64::from(dims) {
                buf.extend_from_slice(&(i as u64 * 100 + d).to_le_bytes());
            }
        }
        buf
    }

    #[test]
    fn record_search_observes_the_first_effective_prune() {
        let fb = SegmentFeedback::new();
        // the first block (2 dims) prunes 60 rows, the second prunes nothing
        fb.record_search(4, &trace(vec![(2, 40, 60), (4, 40, 0)]), 100);
        let s = fb.snapshot();
        assert_eq!(s.searches, 1);
        assert_eq!(s.contributions, 100);
        assert_eq!(s.mean_warmup(), Some(2.0));
        // final survival: 40 of 100 rows
        let survival = s.mean_survival().unwrap();
        assert!((survival - 0.4).abs() < 1e-5, "{survival}");
    }

    #[test]
    fn ineffective_searches_observe_a_full_scan_warmup() {
        let fb = SegmentFeedback::new();
        fb.record_search(3, &trace(vec![(3, 10, 0)]), 10);
        let s = fb.snapshot();
        assert_eq!(s.mean_warmup(), Some(3.0));
        assert!((s.mean_survival().unwrap() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn skips_and_misses_are_counted_separately() {
        let fb = SegmentFeedback::new();
        fb.record_skip();
        fb.record_skip();
        fb.record_search(2, &trace(vec![(2, 1, 9)]), 10);
        fb.record_miss();
        let s = fb.snapshot();
        assert_eq!((s.searches, s.skips, s.misses), (1, 2, 1));
        assert!((s.skip_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!(!s.is_warm(4), "1 search + 2 skips = 3 observations");
        assert!(s.is_warm(3), "skips count as observations");
    }

    #[test]
    fn concurrent_folds_are_lock_free_and_lose_nothing() {
        let fb = ExecFeedback::new(2);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let fb = &fb;
                scope.spawn(move || {
                    for _ in 0..100 {
                        fb.segment(0).record_search(4, &trace(vec![(2, 5, 5)]), 10);
                        fb.segment(1).record_skip();
                    }
                });
            }
        });
        let snap = fb.snapshot();
        assert_eq!(snap.segments[0].searches, 800);
        assert_eq!(snap.segments[1].skips, 800);
        assert_eq!(snap.total_searches(), 800);
        assert_eq!(snap.total_skips(), 800);
    }

    #[test]
    fn snapshot_round_trips_through_bytes() {
        let fb = ExecFeedback::new(3);
        fb.segment(0).record_search(5, &trace(vec![(2, 3, 7)]), 10);
        fb.segment(1).record_skip();
        fb.segment(2).record_miss();
        let snap = fb.snapshot();
        let bytes = snap.to_bytes();
        assert_eq!(&bytes[..8], b"BONDFB02");
        assert_eq!(bytes.len(), 12 + 3 * 7 * 8, "magic, count, seven counters a segment");
        let back = FeedbackSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        // the restored accumulator keeps counting from where it left off
        let restored = ExecFeedback::from_snapshot(&back);
        restored.segment(1).record_skip();
        assert_eq!(restored.snapshot().segments[1].skips, 2);
        assert_eq!(restored.len(), 3);
        assert!(!restored.is_empty());
    }

    /// Every corruption of `bytes` whose segment count sits at
    /// `count_at`: truncations, a trailing byte, a bad magic and an absurd
    /// segment count, which cannot drive an oversized allocation.
    fn assert_corruptions_are_typed(bytes: &[u8], count_at: usize) {
        let is_corrupt = |b: &[u8]| {
            matches!(FeedbackSnapshot::from_bytes(b), Err(BondError::Storage(VdError::Corrupt(_))))
        };
        assert!(is_corrupt(&[]));
        for cut in [4, count_at, count_at + 4, count_at + 8, bytes.len() - 1] {
            assert!(is_corrupt(&bytes[..cut]), "cut {cut}");
        }
        let mut trailing = bytes.to_vec();
        trailing.push(0);
        assert!(is_corrupt(&trailing));
        let mut bad_magic = bytes.to_vec();
        bad_magic[0] = b'X';
        assert!(is_corrupt(&bad_magic));
        let mut huge = bytes.to_vec();
        huge[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(is_corrupt(&huge));
    }

    #[test]
    fn corrupt_payloads_are_typed_errors() {
        assert_corruptions_are_typed(&ExecFeedback::new(2).snapshot().to_bytes(), 8);
        let v1 = v1_payload(3, &[[1; 7], [2; 7]]);
        assert_corruptions_are_typed(&v1, 12);
        // a v1 header with zero dims, or a dims count the records disagree
        // with
        let mut zero_dims = v1.clone();
        zero_dims[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert!(FeedbackSnapshot::from_bytes(&zero_dims).is_err());
        let mut wrong_dims = v1;
        wrong_dims[8..12].copy_from_slice(&4u32.to_le_bytes());
        assert!(FeedbackSnapshot::from_bytes(&wrong_dims).is_err());
    }

    #[test]
    fn v1_payloads_restore_their_counters_and_drop_their_credits() {
        let records = [[9, 8, 7, 6, 5, 4, 3], [1, 2, 3, 4, 5, 6, 7]];
        let snap = FeedbackSnapshot::from_bytes(&v1_payload(5, &records)).unwrap();
        assert_eq!(snap.segments.len(), 2);
        for (s, r) in snap.segments.iter().zip(&records) {
            let counters = [
                s.searches,
                s.skips,
                s.misses,
                s.warmup_sum,
                s.warmup_count,
                s.survival_sum,
                s.contributions,
            ];
            assert_eq!(&counters, r);
            assert_eq!((s.filter_cells, s.filter_rows, s.refine_rows), (0, 0, 0));
        }
        // written back, it is the credit-free format
        let rewritten = snap.to_bytes();
        assert_eq!(&rewritten[..8], b"BONDFB02");
        assert_eq!(FeedbackSnapshot::from_bytes(&rewritten).unwrap(), snap);
    }

    #[test]
    fn quant_filter_counters_accumulate_in_memory_only() {
        let fb = SegmentFeedback::new();
        let mut t = trace(vec![(2, 4, 6)]);
        t.filter_cells = 20;
        t.refine_rows = 4;
        fb.record_search(2, &t, 10);
        let s = fb.snapshot();
        assert_eq!((s.filter_cells, s.filter_rows, s.refine_rows), (20, 10, 4));
        assert!((s.filter_selectivity().unwrap() - 0.4).abs() < 1e-12);
        // codeless searches leave the counters untouched
        let codeless = SegmentFeedback::new();
        codeless.record_search(2, &trace(vec![(2, 4, 6)]), 10);
        assert_eq!(codeless.snapshot().filter_selectivity(), None);
        // the persisted payload intentionally excludes them (seven-counter
        // records) — a byte round trip zeroes them ...
        let snap = FeedbackSnapshot { segments: vec![s.clone()] };
        let back = FeedbackSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(back.segments[0].filter_cells, 0);
        assert_eq!(back.segments[0].filter_selectivity(), None);
        // ... while in-memory restores keep counting from where they were
        let restored = ExecFeedback::from_snapshot(&snap);
        assert_eq!(restored.snapshot().segments[0].refine_rows, 4);
    }

    #[test]
    fn checkpoints_beyond_the_order_are_clamped() {
        // a malformed trace claiming more processed dims than the order has
        // must not panic or mis-index
        let fb = SegmentFeedback::new();
        fb.record_search(2, &trace(vec![(5, 1, 9)]), 10);
        let s = fb.snapshot();
        assert_eq!(s.searches, 1);
        assert_eq!(s.mean_warmup(), Some(2.0));
    }
}
