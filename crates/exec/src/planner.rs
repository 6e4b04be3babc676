//! Per-segment search planning policies.
//!
//! The engine's PR 1 behaviour — one global ordering and block schedule for
//! every partition — is kept as [`PlannerKind::Uniform`] and stays
//! bit-identical to the sequential searcher. [`PlannerKind::Adaptive`]
//! derives a [`bond::SegmentPlan`] per `(query, segment)` pair through the
//! shared [`bond::CostModel`] (the derivation lives in `bond-core`, so the
//! same model also serves the admission-control cost estimates): dimensions
//! ordered by expected contribution (`(μ−q)² + σ²` for distances,
//! `min(q, max)` for similarities), warmup sized to half the ordering-key
//! mass. It also visits segments most-promising-first by their zone-map
//! envelope bound and skips whole segments whose bound cannot reach κ.
//!
//! Adaptive plans give up the bit-identical-refinement guarantee (per-row
//! sums accumulate in different orders per segment); the engine
//! compensates by re-verifying exact scores at merge time.

/// Which planning policy the engine applies to its segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlannerKind {
    /// One plan for every segment, derived from the engine's `BondParams` —
    /// bit-identical to the sequential searcher.
    #[default]
    Uniform,
    /// A per-segment plan derived a-priori from the segment's statistics,
    /// plus cost-model-driven scheduling: segments are visited
    /// most-promising-first, so the query's own neighbourhood establishes
    /// κ before any far segment starts, and segments whose zone-map bound
    /// cannot reach κ are skipped whole.
    Adaptive,
}

impl PlannerKind {
    /// Whether this policy derives per-segment plans from statistics — the
    /// policy that enables the visit order and zone-map segment skipping,
    /// and whose merges re-verify exact scores (rank-correct rather than
    /// bit-identical).
    pub fn is_stats_driven(self) -> bool {
        self == PlannerKind::Adaptive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bond::{BlockSchedule, CostModel};
    use bond_metrics::Objective;
    use vdstore::{DecomposedTable, SegmentStats};

    fn segment_stats(vectors: &[Vec<f64>]) -> SegmentStats {
        let t = DecomposedTable::from_vectors("plan", vectors).unwrap();
        t.segment(0..t.rows()).unwrap().stats()
    }

    #[test]
    fn minimize_orders_by_expected_contribution() {
        // dim 0: segment agrees with the query (tiny expected distance);
        // dim 1: strong disagreement; dim 2: high variance.
        let stats = segment_stats(&[
            vec![0.5, 0.9, 0.0],
            vec![0.5, 0.95, 1.0],
            vec![0.5, 0.85, 0.0],
            vec![0.5, 0.9, 1.0],
        ]);
        let q = [0.5, 0.1, 0.5];
        let plan = CostModel::plan(&stats, &q, None, Objective::Minimize);
        assert!(plan.is_valid(3));
        assert_eq!(*plan.order.last().unwrap(), 0, "agreeing dim is deferred");
        assert_eq!(plan.order[0], 1, "disagreeing dim leads");
    }

    #[test]
    fn maximize_defers_dims_the_segment_cannot_match() {
        // dim 1 has a large query value but the segment's envelope tops out
        // near zero there — it cannot contribute and goes last.
        let stats = segment_stats(&[vec![0.5, 0.01, 0.3], vec![0.6, 0.02, 0.4]]);
        let q = [0.4, 0.5, 0.1];
        let plan = CostModel::plan(&stats, &q, None, Objective::Maximize);
        assert_eq!(plan.order, vec![0, 2, 1]);
    }

    #[test]
    fn weights_scale_the_keys() {
        let stats = segment_stats(&[vec![0.5, 0.5], vec![0.4, 0.6]]);
        let q = [0.0, 0.0];
        // unweighted: both dims have similar expected distance; weight dim 1 up
        let plan = CostModel::plan(&stats, &q, Some(&[1.0, 100.0]), Objective::Minimize);
        assert_eq!(plan.order[0], 1);
    }

    #[test]
    fn warmup_covers_half_the_key_mass() {
        let stats = segment_stats(&vec![vec![0.9, 0.05, 0.03, 0.02]; 3]);
        let q = [0.9, 0.05, 0.03, 0.02];
        let plan = CostModel::plan(&stats, &q, None, Objective::Maximize);
        // dim 0 alone carries ≥ half the achievable mass
        assert_eq!(plan.schedule, BlockSchedule::WarmupThenFixed { warmup: 1, m: 4 });
    }

    #[test]
    fn degenerate_zero_mass_still_yields_a_valid_plan() {
        let stats = segment_stats(&[vec![0.0, 0.0], vec![0.0, 0.0]]);
        let plan = CostModel::plan(&stats, &[0.0, 0.0], None, Objective::Maximize);
        assert!(plan.is_valid(2));
        // no key mass: the whole scan is one warmup block
        assert_eq!(plan.schedule, BlockSchedule::WarmupThenFixed { warmup: 2, m: 4 });
    }

    #[test]
    fn planner_kind_default_is_uniform() {
        assert_eq!(PlannerKind::default(), PlannerKind::Uniform);
    }

    #[test]
    fn stats_driven_classification() {
        assert!(!PlannerKind::Uniform.is_stats_driven());
        assert!(PlannerKind::Adaptive.is_stats_driven());
    }
}
