//! The cost model: segment knowledge turned into work estimates.
//!
//! [`CostModel`] consumes a segment's statistics *and* (when available) its
//! accumulated [`SegmentFeedbackSnapshot`] and answers the question every
//! layer asks: **how expensive is this segment for one query?**
//! [`CostModel::segment_cost`] estimates the expected number of
//! `(candidate, dimension)` cells a search will touch, discounted by the
//! observed warmup depth, survivor fraction and zone-map skip rate once the
//! segment has [`CostModel::MIN_WARM_SEARCHES`] observations — the per-spec
//! cost estimate EXPLAIN renders and ANALYZE checks against the executed
//! work.
//!
//! The model plans nothing: every segment of a query runs the query's one
//! plan ([`crate::SegmentPlan::uniform`]), which keeps every exact answer
//! bit-identical to the sequential searcher.

use crate::feedback::SegmentFeedbackSnapshot;
use crate::kernels::Kernel;
use vdstore::SegmentStats;

/// Derives cost estimates from segment statistics and accumulated
/// execution feedback.
#[derive(Debug)]
pub struct CostModel;

impl CostModel {
    /// Observations (folded searches plus zone-map skips) a segment needs
    /// before its observed counters outrank the full-work prior in the
    /// cost estimates.
    pub const MIN_WARM_SEARCHES: u64 = 8;

    /// Estimated `(candidate, dimension)` cells one search of this segment
    /// will evaluate — the unified per-segment cost the engine sums into
    /// per-spec estimates.
    ///
    /// Cold (no feedback): every live row scans through the warmup half of
    /// the dimensions and survives into the rest — the conservative
    /// full-work prior. Warm: the observed mean warmup fraction, the
    /// observed survivor fraction (floored at `k / rows` — a top-k search
    /// cannot retire more than that), and, when `skipping` is in effect,
    /// the observed zone-map skip rate discount the estimate.
    pub fn segment_cost(
        stats: &SegmentStats,
        feedback: Option<&SegmentFeedbackSnapshot>,
        k: usize,
        skipping: bool,
    ) -> f64 {
        let rows = stats.live_rows as f64;
        let dims = stats.per_dim.len() as f64;
        if rows <= 0.0 || dims <= 0.0 {
            return 0.0;
        }
        let warm = feedback.filter(|f| f.is_warm(Self::MIN_WARM_SEARCHES));
        let warmup_frac = warm
            .and_then(SegmentFeedbackSnapshot::mean_warmup)
            .map_or(0.5, |w| (w / dims).clamp(0.0, 1.0));
        let floor = (k as f64 / rows).min(1.0);
        let survival = warm
            .and_then(SegmentFeedbackSnapshot::mean_survival)
            .map_or(1.0, |s| s.clamp(0.0, 1.0))
            .max(floor);
        let p_skip =
            if skipping { warm.map_or(0.0, SegmentFeedbackSnapshot::skip_rate) } else { 0.0 };
        rows * dims * (warmup_frac + survival * (1.0 - warmup_frac)) * (1.0 - p_skip)
    }

    /// Relative cost of sweeping one quantized `u8` code cell, in units of
    /// one exact `(candidate, dimension)` contribution evaluation. A code is
    /// an eighth of the bytes of an `f64` and the filter kernel is a
    /// branch-free table lookup, so a code cell is priced at an eighth of an
    /// exact cell.
    pub const QUANT_CELL_COST: f64 = 0.125;

    /// [`CostModel::QUANT_CELL_COST`] specialised to the scan kernel the
    /// sweep actually dispatches to. The SIMD flavours process four code
    /// cells per gather-accumulate step, but the gathers serialise on the
    /// LUT loads, so the observed speedup is nearer 2× than 4× — a SIMD
    /// code cell is priced at a sixteenth of an exact cell instead of an
    /// eighth. The scalar price is exactly `QUANT_CELL_COST`, so all
    /// existing scalar-priced estimates are unchanged bit for bit.
    pub fn quant_cell_cost(kernel: Kernel) -> f64 {
        match kernel {
            Kernel::Scalar => Self::QUANT_CELL_COST,
            Kernel::Avx2 | Kernel::Neon => Self::QUANT_CELL_COST * 0.5,
        }
    }

    /// Code bit-width of the companion the quantized filter sweeps: the
    /// full `u8` grid (256 levels) — tightest brackets. Codes occupy a byte
    /// at any width, so a narrower grid saves no traffic and only widens
    /// the brackets the exact refine has to resolve.
    pub const DEFAULT_CODE_BITS: u8 = 8;

    /// Estimated cost of one search of this segment when the quantized
    /// first-pass filter runs, as `(filter sweep cost, exact refine cost)`
    /// in exact-cell equivalents. EXPLAIN renders the phases side by side;
    /// their sum is the segment's estimate.
    ///
    /// The sweep is priced at [`CostModel::quant_cell_cost`]`(kernel)` per
    /// code cell — `rows × dims` cells cold, `rows ×` the observed code
    /// columns read per row (`filter_cells / filter_rows`) once the
    /// segment's feedback is warm, because the progressive sweep stops
    /// early on most rows. The engine passes the kernel the process
    /// actually dispatched to, so the estimates track the hardware
    /// the sweep runs on. The refine is the exact search of
    /// [`CostModel::segment_cost`] scaled by the segment's *observed*
    /// filter selectivity (the fraction of swept rows that survived into
    /// the exact phase, floored at `k / rows`). With no filtered search
    /// folded in yet, the exact phase is priced at full weight — the
    /// conservative prior; one filtered query is enough to start
    /// discounting.
    pub fn segment_cost_quantized(
        stats: &SegmentStats,
        feedback: Option<&SegmentFeedbackSnapshot>,
        k: usize,
        skipping: bool,
        kernel: Kernel,
    ) -> (f64, f64) {
        let rows = stats.live_rows as f64;
        let dims = stats.per_dim.len() as f64;
        if rows <= 0.0 || dims <= 0.0 {
            return (0.0, 0.0);
        }
        let warm = feedback.filter(|f| f.is_warm(Self::MIN_WARM_SEARCHES));
        let p_skip =
            if skipping { warm.map_or(0.0, SegmentFeedbackSnapshot::skip_rate) } else { 0.0 };
        // The sweep is progressive: most rows drop out after a few code
        // columns. A warm segment has recorded how many it really reads per
        // row; cold, price the full `dims`.
        let columns = warm
            .filter(|f| f.filter_rows > 0)
            .map_or(dims, |f| (f.filter_cells as f64 / f.filter_rows as f64).min(dims));
        let filter_cost = rows * columns * Self::quant_cell_cost(kernel) * (1.0 - p_skip);
        let floor = (k as f64 / rows).min(1.0);
        let selectivity = feedback
            .and_then(SegmentFeedbackSnapshot::filter_selectivity)
            .map_or(1.0, |s| s.clamp(0.0, 1.0))
            .max(floor);
        (filter_cost, selectivity * Self::segment_cost(stats, feedback, k, skipping))
    }

    /// Discounts a per-segment cost estimate by a predicate filter's
    /// selectivity on that segment (`eligible / live` rows). Every scan
    /// phase — code sweep, warmup, refine — ranges over eligible rows only,
    /// so the whole estimate scales linearly; a segment with no eligible
    /// rows is skipped outright and costs nothing. The selectivity is
    /// floored at `k / live`: a top-k search over a non-empty eligible set
    /// still has to rank at least k rows' worth of work.
    pub fn filtered_cost(cost: f64, eligible: usize, live_rows: usize, k: usize) -> f64 {
        if live_rows == 0 || eligible == 0 {
            return 0.0;
        }
        let floor = (k as f64 / live_rows as f64).min(1.0);
        let selectivity = (eligible as f64 / live_rows as f64).clamp(0.0, 1.0).max(floor);
        cost * selectivity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::FEEDBACK_SCALE;
    use vdstore::DecomposedTable;

    fn segment_stats(vectors: &[Vec<f64>]) -> SegmentStats {
        let t = DecomposedTable::from_vectors("cost", vectors).unwrap();
        t.segment(0..t.rows()).unwrap().stats()
    }

    fn warm_feedback(searches: u64) -> SegmentFeedbackSnapshot {
        SegmentFeedbackSnapshot {
            searches,
            warmup_sum: searches, // mean observed warmup = 1 dimension
            warmup_count: searches,
            survival_sum: searches * FEEDBACK_SCALE / 10, // 10 % survive
            ..SegmentFeedbackSnapshot::default()
        }
    }

    /// The quantized estimate's two phases, summed, under the scalar price.
    fn quantized_total(
        stats: &SegmentStats,
        feedback: Option<&SegmentFeedbackSnapshot>,
        k: usize,
        skipping: bool,
    ) -> f64 {
        let (filter, refine) =
            CostModel::segment_cost_quantized(stats, feedback, k, skipping, Kernel::Scalar);
        filter + refine
    }

    #[test]
    fn segment_cost_discounts_skips_and_survival() {
        let stats = segment_stats(&vec![vec![0.1, 0.2, 0.3, 0.4]; 100]);
        let cold = CostModel::segment_cost(&stats, None, 10, true);
        assert!((cold - 100.0 * 4.0).abs() < 1e-9, "cold prior is full work, got {cold}");

        // warm: half skipped, 10 % survive, warmup 1 of 4 dims
        let mut fb = warm_feedback(40);
        fb.skips = 40;
        let warm = CostModel::segment_cost(&stats, Some(&fb), 10, true);
        assert!(warm < cold * 0.5, "skip rate alone halves the estimate: {warm} vs {cold}");
        let no_skip = CostModel::segment_cost(&stats, Some(&fb), 10, false);
        assert!((no_skip - warm * 2.0).abs() < 1e-6, "skipping off removes the discount");
        // larger k floors the survivor fraction: cost is non-decreasing in k
        let k_small = CostModel::segment_cost(&stats, Some(&fb), 1, true);
        let k_large = CostModel::segment_cost(&stats, Some(&fb), 100, true);
        assert!(k_large >= k_small);
        // degenerate segments cost nothing
        let empty = segment_stats(&[vec![0.0, 0.0]]);
        let empty = SegmentStats { live_rows: 0, ..empty };
        assert_eq!(CostModel::segment_cost(&empty, None, 1, true), 0.0);
    }

    #[test]
    fn quantized_cost_discounts_with_observed_selectivity() {
        let stats = segment_stats(&vec![vec![0.1, 0.2, 0.3, 0.4]; 100]);

        // cold: conservative prior — full exact cost plus the code sweep
        let cold = quantized_total(&stats, None, 10, true);
        let exact_cold = CostModel::segment_cost(&stats, None, 10, true);
        assert!(
            (cold - (100.0 * 4.0 * CostModel::QUANT_CELL_COST + exact_cold)).abs() < 1e-9,
            "cold quantized cost is filter sweep + full exact cost, got {cold}"
        );

        // observed 5 % selectivity slashes the exact phase (every sweep
        // recorded here ran through all 4 columns)
        let mut fb = warm_feedback(40);
        fb.filter_rows = 4000;
        fb.filter_cells = 4000 * 4;
        fb.refine_rows = 200;
        assert_eq!(fb.filter_selectivity(), Some(0.05));
        let observed = quantized_total(&stats, Some(&fb), 1, false);
        let exact_warm = CostModel::segment_cost(&stats, Some(&fb), 1, false);
        let expected = 100.0 * 4.0 * CostModel::QUANT_CELL_COST + 0.05 * exact_warm;
        assert!((observed - expected).abs() < 1e-9, "got {observed}, expected {expected}");
        assert!(observed < exact_warm, "filtering must look cheaper than scanning exactly");

        // selectivity is floored at k / rows: asking for every row cancels
        // the discount entirely
        let all = quantized_total(&stats, Some(&fb), 100, false);
        let exact_all = CostModel::segment_cost(&stats, Some(&fb), 100, false);
        assert!((all - (100.0 * 4.0 * CostModel::QUANT_CELL_COST + exact_all)).abs() < 1e-9);

        // degenerate segments still cost nothing
        let empty = segment_stats(&[vec![0.0, 0.0]]);
        let empty = SegmentStats { live_rows: 0, ..empty };
        assert_eq!(quantized_total(&empty, None, 1, true), 0.0);
    }

    #[test]
    fn warm_sweep_is_priced_at_the_observed_columns_per_row() {
        let stats = segment_stats(&vec![vec![0.1, 0.2, 0.3, 0.4]; 100]);
        let full = 100.0 * 4.0 * CostModel::QUANT_CELL_COST;
        let sweep = |fb: Option<&SegmentFeedbackSnapshot>| {
            CostModel::segment_cost_quantized(&stats, fb, 10, false, Kernel::Scalar).0
        };
        assert_eq!(sweep(None), full);

        // warm, and the progressive sweep read 1.5 code columns per row
        let mut fb = warm_feedback(40);
        fb.filter_rows = 4000;
        fb.filter_cells = 6000;
        assert!((sweep(Some(&fb)) - full * 1.5 / 4.0).abs() < 1e-9);
        // probe cells can push the ratio past `dims`; the price cannot
        fb.filter_cells = 4000 * 5;
        assert_eq!(sweep(Some(&fb)), full);
        // warm from exact traffic only: no sweep recorded, full prior
        fb.filter_rows = 0;
        fb.filter_cells = 0;
        assert_eq!(sweep(Some(&fb)), full);
        // the same counters on a segment that is not warm yet are ignored
        let mut cold = warm_feedback(1);
        cold.filter_rows = 100;
        cold.filter_cells = 150;
        assert!(!cold.is_warm(CostModel::MIN_WARM_SEARCHES));
        assert_eq!(sweep(Some(&cold)), full);
    }

    #[test]
    fn kernel_cell_cost_prices_simd_sweeps_cheaper() {
        assert_eq!(CostModel::quant_cell_cost(Kernel::Scalar), CostModel::QUANT_CELL_COST);
        for simd in [Kernel::Avx2, Kernel::Neon] {
            let c = CostModel::quant_cell_cost(simd);
            assert!(c < CostModel::QUANT_CELL_COST, "{simd:?} must be cheaper than scalar");
            assert!(c > 0.0);
        }
        // a SIMD kernel discounts the sweep phase only
        let stats = segment_stats(&vec![vec![0.1, 0.2, 0.3, 0.4]; 100]);
        let scalar = CostModel::segment_cost_quantized(&stats, None, 10, true, Kernel::Scalar);
        let simd = CostModel::segment_cost_quantized(&stats, None, 10, true, Kernel::Avx2);
        assert!(simd.0 < scalar.0, "sweep phase gets cheaper under SIMD");
        assert_eq!(simd.1, scalar.1, "refine phase is exact work either way");
    }

    #[test]
    fn filtered_cost_scales_with_selectivity() {
        // a quarter of the rows are eligible: a quarter of the work
        assert!((CostModel::filtered_cost(400.0, 25, 100, 1) - 100.0).abs() < 1e-12);
        // fully eligible: no discount
        assert_eq!(CostModel::filtered_cost(400.0, 100, 100, 1), 400.0);
        // no eligible row: the segment is skipped outright
        assert_eq!(CostModel::filtered_cost(400.0, 0, 100, 1), 0.0);
        assert_eq!(CostModel::filtered_cost(400.0, 10, 0, 1), 0.0);
        // the k/rows floor: asking for half the segment keeps at least half
        // the estimate even for a 1 %-selective filter
        assert!((CostModel::filtered_cost(400.0, 1, 100, 50) - 200.0).abs() < 1e-12);
    }
}
