//! Per-query search planning policies.
//!
//! Both policies run the query's one plan — the order and schedule derived
//! from the engine's `BondParams` ([`bond::SegmentPlan::uniform`]) — in
//! every segment, so every exact answer is bit-identical to the sequential
//! searcher. They differ in how the query moves through its segments:
//! [`PlannerKind::Uniform`] visits them in row order (a code-filtered scan
//! that shares κ visits most-promising-first under either policy), while
//! [`PlannerKind::Adaptive`] visits them most-promising-first by their
//! zone-map envelope bound and skips whole segments whose bound cannot
//! reach κ — which every finished segment of a query that shares κ
//! publishes as its k-th exact score, under either policy.

/// Which planning policy the engine applies to a query's segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlannerKind {
    /// Every segment is searched, in row order.
    #[default]
    Uniform,
    /// Cost-model-driven scheduling from segment statistics: segments are
    /// visited most-promising-first, so the query's own neighbourhood
    /// establishes κ before any far segment starts, and segments whose
    /// zone-map bound cannot reach κ are skipped whole.
    Adaptive,
}

impl PlannerKind {
    /// Whether this policy schedules segments from their statistics — the
    /// policy that enables the visit order and zone-map segment skipping.
    pub fn is_stats_driven(self) -> bool {
        self == PlannerKind::Adaptive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
