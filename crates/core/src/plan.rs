//! Per-segment search plans.
//!
//! A [`SegmentPlan`] is the fully resolved "what order, what cadence"
//! decision a segment search executes: a dimension permutation and a
//! [`BlockSchedule`]. The sequential searcher derives it from its
//! [`BondParams`]; the engine derives the same plan once per query
//! ([`SegmentPlan::uniform`]) and hands it to every segment. One summation
//! order for every row is what keeps the merged parallel answer
//! bit-identical to the sequential one.

use crate::ordering::DimensionOrdering;
use crate::schedule::BlockSchedule;
use crate::searcher::BondParams;

/// A fully resolved per-segment search plan: the dimension processing order
/// and the scan-then-prune block schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentPlan {
    /// The dimension processing order (a permutation of `0..dims`).
    pub order: Vec<usize>,
    /// How the dimensions are grouped into scan-then-prune blocks.
    pub schedule: BlockSchedule,
}

impl SegmentPlan {
    /// The plan every segment shares under uniform planning: the order
    /// derived from `params.ordering` for this query (and optional metric
    /// weights) and the params' block schedule. This is exactly what the
    /// classic sequential searcher executes, which is what keeps the
    /// `Uniform` engine path bit-identical to it.
    pub fn uniform(
        params: &BondParams,
        query: &[f64],
        weights: Option<&[f64]>,
        dims: usize,
    ) -> Self {
        SegmentPlan {
            order: params.ordering.order(query, weights, dims),
            schedule: params.schedule,
        }
    }

    /// Whether the plan's order is a valid permutation of `0..dims`.
    pub fn is_valid(&self, dims: usize) -> bool {
        DimensionOrdering::is_valid_permutation(&self.order, dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_plan_mirrors_params() {
        let params = BondParams {
            ordering: DimensionOrdering::QueryValueDescending,
            schedule: BlockSchedule::Fixed(3),
            ..BondParams::default()
        };
        let q = [0.1, 0.5, 0.2, 0.2];
        let plan = SegmentPlan::uniform(&params, &q, None, 4);
        assert_eq!(plan.order[0], 1);
        assert_eq!(plan.schedule, BlockSchedule::Fixed(3));
        assert!(plan.is_valid(4));
    }

    #[test]
    fn validity_checks_the_permutation() {
        let good = SegmentPlan { order: vec![2, 0, 1], schedule: BlockSchedule::SingleBlock };
        assert!(good.is_valid(3));
        assert!(!good.is_valid(4));
        let bad = SegmentPlan { order: vec![0, 0, 1], schedule: BlockSchedule::SingleBlock };
        assert!(!bad.is_valid(3));
    }

    #[test]
    fn weighted_uniform_plans_use_the_weights() {
        let params = BondParams {
            ordering: DimensionOrdering::WeightedQueryDescending,
            ..Default::default()
        };
        let q = [0.1, 0.5, 0.05];
        let w = [1.0, 1.0, 400.0];
        let plan = SegmentPlan::uniform(&params, &q, Some(&w), 3);
        assert_eq!(plan.order[0], 2, "heavy weight promotes the tiny query dim");
    }
}
