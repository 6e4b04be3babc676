//! Execution feedback: what past searches learned about each segment.
//!
//! Every search already emits a [`PruneTrace`] — which dimensions were
//! scanned, where pruning first bit, how many candidates survived — and
//! until now that signal was thrown away after the figures were drawn. On
//! clustered collections a-priori moments mislead (a segment straddling two
//! clusters has wide, useless envelopes even though every query prunes it
//! the same way), so the observed prune behaviour is the better planning
//! input. [`ExecFeedback`] is the accumulator: one [`SegmentFeedback`] of
//! lock-free atomic counters per segment, folded in from each query's trace
//! on the worker threads themselves (relaxed ordering — a stale read merely
//! plans like yesterday, never wrongly), and snapshotted into the plain-data
//! [`FeedbackSnapshot`] for introspection, cost estimation and persistence
//! alongside the segment store footer.

use crate::error::{BondError, Result};
use crate::trace::PruneTrace;
use std::sync::atomic::{AtomicU64, Ordering};
use vdstore::VdError;

/// Fixed-point scale for fractional accumulators (prune credit, survival).
pub const FEEDBACK_SCALE: u64 = 1 << 20;

/// Magic prefix of the serialised [`FeedbackSnapshot`] (the learned-state
/// payload stored alongside the v2 store footer).
const FEEDBACK_MAGIC: &[u8; 8] = b"BONDFB01";

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
    /// learned-state payload (whose record length is fixed by `BONDFB01`);
    /// selectivity re-learns within a few queries after a cold open.
    filter_cells: AtomicU64,
    /// Total rows the quantized filter swept (the denominator of the
    /// observed filter selectivity). In-memory only, like `filter_cells`.
    filter_rows: AtomicU64,
    /// Total rows that survived the quantized filter into the exact
    /// search. In-memory only, like `filter_cells`.
    refine_rows: AtomicU64,
    /// Per-dimension prune credit: Σ (rows pruned ÷ block length) ×
    /// [`FEEDBACK_SCALE`] for every scan block the dimension was part of
    /// when a pruning attempt removed candidates. Indexed by dimension id.
    prune_credit: Vec<AtomicU64>,
}

impl SegmentFeedback {
    fn new(dims: usize) -> Self {
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
            prune_credit: (0..dims).map(|_| AtomicU64::new(0)).collect(),
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
            prune_credit: snap.prune_credit.iter().map(|&c| AtomicU64::new(c)).collect(),
        }
    }

    /// Folds one executed (non-skipped) segment search into the
    /// accumulator. `order` is the dimension order the search actually
    /// scanned in (the plan's permutation) and `rows` the segment's row
    /// count; both come from the caller because a trace alone does not know
    /// which dimension sat at which scan position.
    ///
    /// Callers must not fold predicate-filtered searches: their survival
    /// and prune-depth signals describe the filter's eligible subset, not
    /// the segment's data distribution, and would poison the per-dimension
    /// credit used to plan unfiltered queries (the engine gates on
    /// `filter.is_none()` before calling this).
    // ordering: relaxed — every counter is an independent monotone
    // accumulator folded by racing workers via atomic RMW (no increment is
    // lost); readers consume snapshots that tune plans and cost estimates,
    // never answers, so cross-counter skew from unordered folds is benign.
    pub fn record_search(&self, order: &[usize], trace: &PruneTrace, rows: usize) {
        self.searches.fetch_add(1, Ordering::Relaxed);
        self.contributions.fetch_add(trace.contributions_evaluated, Ordering::Relaxed);
        if trace.filter_ran() {
            self.filter_cells.fetch_add(trace.filter_cells, Ordering::Relaxed);
            self.filter_rows.fetch_add(rows as u64, Ordering::Relaxed);
            self.refine_rows.fetch_add(trace.refine_rows, Ordering::Relaxed);
        }
        let dims = order.len();
        let mut prev = 0usize;
        let mut first_effective: Option<usize> = None;
        let mut final_candidates = rows;
        for cp in &trace.checkpoints {
            let end = cp.dims_processed.min(dims);
            if cp.pruned_now > 0 && end > prev {
                let block = &order[prev..end];
                let credit =
                    (cp.pruned_now as u64).saturating_mul(FEEDBACK_SCALE) / block.len() as u64;
                for &d in block {
                    self.prune_credit[d].fetch_add(credit, Ordering::Relaxed);
                }
                if first_effective.is_none() {
                    first_effective = Some(end);
                }
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

    /// A credit-free copy of the scalar counters — everything
    /// [`crate::cost::CostModel::segment_cost`] consumes, without cloning
    /// the per-dimension credit vector. The cheap variant for admission
    /// hot paths that price many requests per second; `prune_credit` is
    /// left empty, so do not plan from this.
    // ordering: relaxed — loads race with in-flight folds; the copy only
    // staleness-shifts cost estimates, and each field alone is a valid
    // (monotone) reading, so no acquire pairing is needed.
    pub fn scalar_snapshot(&self) -> SegmentFeedbackSnapshot {
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
            prune_credit: Vec::new(),
        }
    }

    /// A plain-data copy of the counters (each counter is read atomically;
    /// concurrent folds may land between reads, which only staleness-shifts
    /// the snapshot — acceptable for planning).
    // ordering: relaxed — same contract as `scalar_snapshot`: planning
    // input may trail execution by a few folds, never an answer.
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
            prune_credit: self.prune_credit.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
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
    /// Per-dimension prune credit (× [`FEEDBACK_SCALE`]), by dimension id.
    pub prune_credit: Vec<u64>,
}

impl SegmentFeedbackSnapshot {
    /// Whether enough observations have been folded in for the learned
    /// signals to outrank the a-priori statistics. Zone-map skips count:
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

    /// The per-dimension prune-credit distribution, normalised to sum to 1
    /// (all zeros when nothing has pruned yet).
    pub fn prune_rates(&self) -> Vec<f64> {
        let total: u64 = self.prune_credit.iter().sum();
        if total == 0 {
            return vec![0.0; self.prune_credit.len()];
        }
        self.prune_credit.iter().map(|&c| c as f64 / total as f64).collect()
    }
}

/// A plain-data snapshot of a whole engine's feedback store: one entry per
/// segment, in segment (row-range) order. This is what
/// `Engine::feedback_snapshot()` returns and what persists alongside the v2
/// store footer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedbackSnapshot {
    /// The table dimensionality the credits are indexed by.
    pub dims: usize,
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
    /// magic, dims u32, segments u32, then per segment seven u64 counters
    /// followed by `dims` u64 prune credits).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + self.segments.len() * (56 + self.dims * 8));
        buf.extend_from_slice(FEEDBACK_MAGIC);
        buf.extend_from_slice(&(self.dims as u32).to_le_bytes());
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
            for &c in &s.prune_credit {
                buf.extend_from_slice(&c.to_le_bytes());
            }
        }
        buf
    }

    /// Parses a payload produced by [`FeedbackSnapshot::to_bytes`],
    /// validating structure and counts.
    ///
    /// # Errors
    ///
    /// [`BondError::Storage`] wrapping [`VdError::Corrupt`] on any
    /// structural violation (bad magic, truncation, trailing bytes,
    /// allocation-attack counts, credits not matching `dims`).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        fn take<'a>(buf: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8]> {
            if buf.len() < n {
                return Err(BondError::Storage(VdError::Corrupt(format!("truncated {what}"))));
            }
            let (head, tail) = buf.split_at(n);
            *buf = tail;
            Ok(head)
        }
        let corrupt = |msg: &str| BondError::Storage(VdError::Corrupt(msg.into()));
        let mut buf = bytes;
        if take(&mut buf, 8, "feedback magic")? != FEEDBACK_MAGIC {
            return Err(corrupt("bad feedback magic"));
        }
        let dims =
            u32::from_le_bytes(take(&mut buf, 4, "feedback dims")?.try_into().unwrap()) as usize;
        let n_segments =
            u32::from_le_bytes(take(&mut buf, 4, "feedback segment count")?.try_into().unwrap())
                as usize;
        if dims == 0 {
            return Err(corrupt("feedback payload has zero dimensions"));
        }
        let per_segment = 56usize
            .checked_add(dims.checked_mul(8).ok_or_else(|| corrupt("credit length overflows"))?)
            .ok_or_else(|| corrupt("segment record length overflows"))?;
        let expected = n_segments
            .checked_mul(per_segment)
            .ok_or_else(|| corrupt("feedback payload length overflows"))?;
        if buf.len() != expected {
            return Err(corrupt("feedback payload length disagrees with its header"));
        }
        let mut segments = Vec::with_capacity(n_segments);
        for _ in 0..n_segments {
            let mut counters = [0u64; 7];
            for c in &mut counters {
                *c = u64::from_le_bytes(take(&mut buf, 8, "feedback counter")?.try_into().unwrap());
            }
            let mut prune_credit = Vec::with_capacity(dims);
            for _ in 0..dims {
                prune_credit.push(u64::from_le_bytes(
                    take(&mut buf, 8, "prune credit")?.try_into().unwrap(),
                ));
            }
            let [searches, skips, misses, warmup_sum, warmup_count, survival_sum, contributions] =
                counters;
            segments.push(SegmentFeedbackSnapshot {
                searches,
                skips,
                misses,
                warmup_sum,
                warmup_count,
                survival_sum,
                contributions,
                prune_credit,
                // the quantized-filter counters are in-memory-only signals;
                // a reopened store re-learns them within a few queries
                ..Default::default()
            });
        }
        Ok(FeedbackSnapshot { dims, segments })
    }
}

/// The engine-wide feedback store: one lock-free [`SegmentFeedback`] per
/// segment. Shared by every worker thread of every concurrently executing
/// batch; folding and reading never block.
#[derive(Debug)]
pub struct ExecFeedback {
    dims: usize,
    segments: Vec<SegmentFeedback>,
}

impl ExecFeedback {
    /// An empty store for `n_segments` segments of a `dims`-dimensional
    /// table.
    pub fn new(n_segments: usize, dims: usize) -> Self {
        ExecFeedback {
            dims,
            segments: (0..n_segments).map(|_| SegmentFeedback::new(dims)).collect(),
        }
    }

    /// Restores a store from persisted learned state.
    pub fn from_snapshot(snap: &FeedbackSnapshot) -> Self {
        ExecFeedback {
            dims: snap.dims,
            segments: snap.segments.iter().map(SegmentFeedback::from_snapshot).collect(),
        }
    }

    /// The table dimensionality the credits are indexed by.
    pub fn dims(&self) -> usize {
        self.dims
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
        FeedbackSnapshot {
            dims: self.dims,
            segments: self.segments.iter().map(SegmentFeedback::snapshot).collect(),
        }
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
            filter_blocks_skipped: 0,
            refine_rows: 0,
            filter_bits: 0,
            kernel: None,
            rule: None,
        }
    }

    #[test]
    fn record_search_attributes_credit_to_the_pruning_block() {
        let fb = SegmentFeedback::new(4);
        // order [2,0,3,1]; first block (dims 2,0) prunes 60 rows, second
        // block (dims 3,1) prunes nothing.
        fb.record_search(&[2, 0, 3, 1], &trace(vec![(2, 40, 60), (4, 40, 0)]), 100);
        let s = fb.snapshot();
        assert_eq!(s.searches, 1);
        assert_eq!(s.contributions, 100);
        let credit = 60 * FEEDBACK_SCALE / 2;
        assert_eq!(s.prune_credit, vec![credit, 0, credit, 0]);
        assert_eq!(s.mean_warmup(), Some(2.0));
        // final survival: 40 of 100 rows
        let survival = s.mean_survival().unwrap();
        assert!((survival - 0.4).abs() < 1e-5, "{survival}");
        let rates = s.prune_rates();
        assert_eq!(rates, vec![0.5, 0.0, 0.5, 0.0]);
    }

    #[test]
    fn ineffective_searches_observe_a_full_scan_warmup() {
        let fb = SegmentFeedback::new(3);
        fb.record_search(&[0, 1, 2], &trace(vec![(3, 10, 0)]), 10);
        let s = fb.snapshot();
        assert_eq!(s.mean_warmup(), Some(3.0));
        assert!((s.mean_survival().unwrap() - 1.0).abs() < 1e-5);
        assert_eq!(s.prune_rates(), vec![0.0; 3]);
    }

    #[test]
    fn skips_and_misses_are_counted_separately() {
        let fb = SegmentFeedback::new(2);
        fb.record_skip();
        fb.record_skip();
        fb.record_search(&[0, 1], &trace(vec![(2, 1, 9)]), 10);
        fb.record_miss();
        let s = fb.snapshot();
        assert_eq!((s.searches, s.skips, s.misses), (1, 2, 1));
        assert!((s.skip_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!(!s.is_warm(4), "1 search + 2 skips = 3 observations");
        assert!(s.is_warm(3), "skips count as observations");
    }

    #[test]
    fn concurrent_folds_are_lock_free_and_lose_nothing() {
        let fb = ExecFeedback::new(2, 4);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let fb = &fb;
                scope.spawn(move || {
                    for _ in 0..100 {
                        fb.segment(0).record_search(&[0, 1, 2, 3], &trace(vec![(2, 5, 5)]), 10);
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
        let fb = ExecFeedback::new(3, 5);
        fb.segment(0).record_search(&[4, 3, 2, 1, 0], &trace(vec![(2, 3, 7)]), 10);
        fb.segment(1).record_skip();
        fb.segment(2).record_miss();
        let snap = fb.snapshot();
        let bytes = snap.to_bytes();
        let back = FeedbackSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        // the restored accumulator keeps counting from where it left off
        let restored = ExecFeedback::from_snapshot(&back);
        restored.segment(1).record_skip();
        assert_eq!(restored.snapshot().segments[1].skips, 2);
        assert_eq!(restored.dims(), 5);
        assert_eq!(restored.len(), 3);
        assert!(!restored.is_empty());
    }

    #[test]
    fn corrupt_payloads_are_typed_errors() {
        let snap = ExecFeedback::new(2, 3).snapshot();
        let bytes = snap.to_bytes();
        assert!(FeedbackSnapshot::from_bytes(&[]).is_err());
        for cut in [4, 12, 16, bytes.len() - 1] {
            assert!(FeedbackSnapshot::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(FeedbackSnapshot::from_bytes(&trailing).is_err());
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(FeedbackSnapshot::from_bytes(&bad_magic).is_err());
        // an absurd segment count cannot drive an oversized allocation
        let mut huge = bytes;
        huge[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            FeedbackSnapshot::from_bytes(&huge),
            Err(BondError::Storage(VdError::Corrupt(_)))
        ));
    }

    #[test]
    fn quant_filter_counters_accumulate_in_memory_only() {
        let fb = SegmentFeedback::new(2);
        let mut t = trace(vec![(2, 4, 6)]);
        t.filter_cells = 20;
        t.refine_rows = 4;
        fb.record_search(&[0, 1], &t, 10);
        let s = fb.snapshot();
        assert_eq!((s.filter_cells, s.filter_rows, s.refine_rows), (20, 10, 4));
        assert!((s.filter_selectivity().unwrap() - 0.4).abs() < 1e-12);
        assert_eq!(fb.scalar_snapshot().filter_cells, 20);
        // codeless searches leave the counters untouched
        let codeless = SegmentFeedback::new(2);
        codeless.record_search(&[0, 1], &trace(vec![(2, 4, 6)]), 10);
        assert_eq!(codeless.snapshot().filter_selectivity(), None);
        // the persisted payload intentionally excludes them (fixed-length
        // BONDFB01 records) — a byte round trip zeroes them ...
        let snap = FeedbackSnapshot { dims: 2, segments: vec![s.clone()] };
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
        let fb = SegmentFeedback::new(2);
        fb.record_search(&[1, 0], &trace(vec![(5, 1, 9)]), 10);
        let s = fb.snapshot();
        assert_eq!(s.searches, 1);
        assert_eq!(s.mean_warmup(), Some(2.0));
    }
}
