//! Pruning bounds for weighted search (Section 8.1 and Appendix A).
//!
//! ## A note on Equation 14
//!
//! The appendix derives the weighted upper bound by ordering the remaining
//! dimensions by decreasing `w_i · q_i²` and then reusing the assignment of
//! Lemma 1. That ordering is **not safe in general**: with
//! `w = (1, 0.1)`, `q = (0.4, 0.9)` and remaining mass `T(v⁺) = 1`, the
//! printed formula yields `w_1 q_1² + w_2 (1 − q_2)² = 0.161`, but the vector
//! `v⁺ = (1, 0)` — which is feasible — has weighted distance
//! `1·(1−0.4)² + 0.1·0.9² = 0.441 > 0.161`. Pruning with such a bound could
//! discard true nearest neighbours.
//!
//! We therefore implement a *provably safe* upper bound that follows the
//! same vertex argument as Lemma 1 but decouples the two choices it has to
//! make (which dimensions receive a full 1, and which receives the
//! fractional remainder) and bounds each by its maximum:
//!
//! * writing `Σ w_i (v_i − q_i)²` at a vertex as
//!   `Σ w_i q_i² + Σ_{i: v_i = 1} w_i (1 − 2 q_i) + w_j u (u − 2 q_j)`,
//! * the best set of full dimensions is bounded by the sum of the
//!   `⌊T(v⁺)⌋` largest *gains* `g_i = w_i (1 − 2 q_i)` (prefix sums are
//!   precomputed, so the per-candidate cost stays O(1)),
//! * the fractional term is bounded by
//!   `max(0, u² · max_i w_i − 2u · min_i w_i q_i)`.
//!
//! Both relaxations only increase the bound, so it dominates the true
//! maximum and pruning stays safe; for uniform weights it coincides with
//! Lemma 1's bound up to the decoupling of the fractional dimension.

use crate::bounds::{
    descending_nan_last, CandidateState, OptimisticTail, PruningRule, Requirements,
};
use crate::metric::Objective;

/// Query-only pruning bound for **weighted histogram intersection**:
/// `Σ w_i min(h_i, q_i) ≤ Σ_{remaining} w_i q_i`, lower bound 0.
///
/// This is the weighted analogue of Hq; a subspace query (weights 0/1) makes
/// the sum range only over the selected remaining dimensions.
#[derive(Debug, Clone)]
pub struct WeightedHqRule {
    weights: Vec<f64>,
    remaining_weighted_query_sum: f64,
}

impl WeightedHqRule {
    /// Creates the rule for the given per-dimension weights.
    pub fn new(weights: Vec<f64>) -> Self {
        WeightedHqRule { weights, remaining_weighted_query_sum: 0.0 }
    }
}

impl PruningRule for WeightedHqRule {
    fn objective(&self) -> Objective {
        Objective::Maximize
    }

    fn requirements(&self) -> Requirements {
        Requirements::default()
    }

    fn prepare(&mut self, query: &[f64], remaining_dims: &[usize]) {
        self.remaining_weighted_query_sum =
            remaining_dims.iter().map(|&d| self.weights[d] * query[d]).sum();
    }

    #[inline]
    fn bounds(&self, candidate: &CandidateState) -> (f64, f64) {
        (candidate.partial, self.optimistic_tail().bound(candidate))
    }

    #[inline]
    fn optimistic_tail(&self) -> OptimisticTail {
        OptimisticTail::AddConst(self.remaining_weighted_query_sum)
    }

    fn name(&self) -> &'static str {
        "WHq"
    }
}

/// Per-vector pruning bound for **weighted squared Euclidean distance**
/// (criterion `E_v` with weights; used for Figure 11 and subspace search).
#[derive(Debug, Clone)]
pub struct WeightedEvRule {
    weights: Vec<f64>,
    /// Σ_{remaining} w_i q_i² — the distance when every remaining v_i = 0.
    const_zero_mass: f64,
    /// Gains `w_i (1 − 2 q_i)` sorted descending; `prefix_gain[f]` = sum of
    /// the `f` largest gains.
    prefix_gain: Vec<f64>,
    /// max over remaining dims of w_i.
    max_weight: f64,
    /// min over remaining dims of w_i q_i.
    min_weight_q: f64,
    /// Σ_{remaining} 1 / w_i, or +∞ if any remaining weight is 0.
    sum_inv_weight: f64,
    /// Σ_{remaining} q_i.
    remaining_query_sum: f64,
    remaining: usize,
    /// The gains of the last `prepare`, sorted descending; reused for
    /// their allocation.
    gains: Vec<f64>,
}

impl WeightedEvRule {
    /// Creates the rule for the given per-dimension weights.
    pub fn new(weights: Vec<f64>) -> Self {
        WeightedEvRule {
            weights,
            const_zero_mass: 0.0,
            prefix_gain: vec![0.0],
            max_weight: 0.0,
            min_weight_q: 0.0,
            sum_inv_weight: 0.0,
            remaining_query_sum: 0.0,
            remaining: 0,
            gains: Vec::new(),
        }
    }

    fn upper_extra(&self, remaining_mass: f64) -> f64 {
        let r = self.remaining;
        if r == 0 {
            return 0.0;
        }
        let mass = remaining_mass.clamp(0.0, r as f64);
        let full = mass.floor() as usize;
        if full >= r {
            return self.const_zero_mass + self.prefix_gain[r];
        }
        let frac = mass - full as f64;
        let frac_term = (self.max_weight * frac * frac - 2.0 * self.min_weight_q * frac).max(0.0);
        self.const_zero_mass + self.prefix_gain[full] + frac_term
    }
}

impl PruningRule for WeightedEvRule {
    fn objective(&self) -> Objective {
        Objective::Minimize
    }

    fn requirements(&self) -> Requirements {
        Requirements { needs_scanned_mass: true, needs_total_mass: true }
    }

    /// Rebuilds the tables in the rule's own buffers, so a step allocates
    /// nothing once they have grown to the query's dimensionality.
    fn prepare(&mut self, query: &[f64], remaining_dims: &[usize]) {
        self.remaining = remaining_dims.len();
        self.const_zero_mass = 0.0;
        self.max_weight = 0.0;
        self.min_weight_q = f64::INFINITY;
        self.sum_inv_weight = 0.0;
        self.remaining_query_sum = 0.0;
        let gains = &mut self.gains;
        gains.clear();
        for &d in remaining_dims {
            let w = self.weights[d];
            let q = query[d];
            self.const_zero_mass += w * q * q;
            self.max_weight = self.max_weight.max(w);
            self.min_weight_q = self.min_weight_q.min(w * q);
            self.remaining_query_sum += q;
            if w > 0.0 {
                self.sum_inv_weight += 1.0 / w;
            } else {
                self.sum_inv_weight = f64::INFINITY;
            }
            gains.push(w * (1.0 - 2.0 * q));
        }
        if remaining_dims.is_empty() {
            self.min_weight_q = 0.0;
        }
        gains.sort_by(|&a, &b| descending_nan_last(a, b));
        self.prefix_gain.clear();
        self.prefix_gain.resize(gains.len() + 1, 0.0);
        for (i, g) in gains.iter().enumerate() {
            self.prefix_gain[i + 1] = self.prefix_gain[i] + g;
        }
    }

    #[inline]
    fn bounds(&self, candidate: &CandidateState) -> (f64, f64) {
        let upper = candidate.partial + self.upper_extra(candidate.remaining_mass());
        (self.optimistic_tail().bound(candidate), upper)
    }

    /// The Cauchy–Schwarz lower bound, `p + (T(v⁺) − T(q⁺))² / Σ 1/wᵢ`:
    /// `0.0` added where it is vacuous — no dimension remains, or a
    /// remaining weight is zero (so `Σ 1/wᵢ` is infinite).
    #[inline]
    fn optimistic_tail(&self) -> OptimisticTail {
        if self.remaining == 0 || !self.sum_inv_weight.is_finite() || self.sum_inv_weight <= 0.0 {
            return OptimisticTail::AddConst(0.0);
        }
        OptimisticTail::AddSquaredGap {
            target: self.remaining_query_sum,
            divisor: self.sum_inv_weight,
        }
    }

    fn name(&self) -> &'static str {
        "WEv"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{DecomposableMetric, WeightedSquaredEuclidean};

    #[test]
    fn paper_equation_14_counterexample_is_handled_safely() {
        // The scenario from the module docs: the printed Eq. 14 bound would
        // be 0.161, below the feasible distance 0.441. Our bound dominates it.
        let weights = vec![1.0, 0.1];
        let q = vec![0.4, 0.9];
        let mut rule = WeightedEvRule::new(weights.clone());
        rule.prepare(&q, &[0, 1]);
        let state = CandidateState { partial: 0.0, scanned_mass: 0.0, total_mass: 1.0 };
        let (_, hi) = rule.bounds(&state);
        let metric = WeightedSquaredEuclidean::new(weights).unwrap();
        let worst_feasible = metric.score(&[1.0, 0.0], &q);
        assert!((worst_feasible - 0.441).abs() < 1e-12);
        assert!(hi >= worst_feasible - 1e-12, "safe bound {hi} must cover {worst_feasible}");
    }

    #[test]
    fn weighted_ev_brackets_true_distance_randomized() {
        let mut seed = 0xDEADBEEFCAFEBABEu64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let dims = 10;
        for round in 0..300 {
            let weights: Vec<f64> = (0..dims)
                .map(|_| if round % 5 == 0 { (next() * 3.0).floor() } else { next() * 4.0 })
                .collect();
            let q: Vec<f64> = (0..dims).map(|_| next()).collect();
            let v: Vec<f64> = (0..dims).map(|_| next()).collect();
            let metric = WeightedSquaredEuclidean::new(weights.clone()).unwrap();
            let m = 4;
            let scanned: Vec<usize> = (0..m).collect();
            let remaining: Vec<usize> = (m..dims).collect();
            let mut rule = WeightedEvRule::new(weights);
            rule.prepare(&q, &remaining);
            let state = CandidateState {
                partial: metric.partial_score(&scanned, &v, &q),
                scanned_mass: v[..m].iter().sum(),
                total_mass: v.iter().sum(),
            };
            let (lo, hi) = rule.bounds(&state);
            let full = metric.score(&v, &q);
            assert!(lo <= full + 1e-9, "WEv lower bound violated: {lo} > {full}");
            assert!(hi >= full - 1e-9, "WEv upper bound violated: {hi} < {full}");
        }
    }

    #[test]
    fn uniform_weights_match_unweighted_lower_bound() {
        // With w_i = 1 the lower bound must equal Lemma 2's (D²/r).
        let weights = vec![1.0; 4];
        let q = vec![0.2, 0.3, 0.1, 0.4];
        let mut rule = WeightedEvRule::new(weights);
        rule.prepare(&q, &[0, 1, 2, 3]);
        let state = CandidateState { partial: 0.0, scanned_mass: 0.0, total_mass: 2.0 };
        let (lo, _) = rule.bounds(&state);
        let d: f64 = 2.0 - 1.0;
        assert!((lo - d * d / 4.0).abs() < 1e-12);
    }

    #[test]
    fn zero_weights_make_lower_bound_vacuous() {
        // A zero-weight dimension can absorb any mass difference for free.
        let weights = vec![0.0, 1.0];
        let q = vec![0.9, 0.1];
        let mut rule = WeightedEvRule::new(weights);
        rule.prepare(&q, &[0, 1]);
        let state = CandidateState { partial: 0.3, scanned_mass: 0.0, total_mass: 1.5 };
        let (lo, hi) = rule.bounds(&state);
        assert_eq!(lo, 0.3);
        assert!(hi >= lo);
    }

    #[test]
    fn weighted_hq_brackets_weighted_intersection() {
        let weights: Vec<f64> = vec![2.0, 1.0, 0.5, 0.0];
        let q: Vec<f64> = vec![0.7, 0.15, 0.1, 0.05];
        let h: Vec<f64> = vec![0.55, 0.2, 0.15, 0.1];
        let scanned = [0usize, 1];
        let remaining = [2usize, 3];
        let mut rule = WeightedHqRule::new(weights.clone());
        rule.prepare(&q, &remaining);
        let partial: f64 = scanned.iter().map(|&d| weights[d] * h[d].min(q[d])).sum();
        let full: f64 = (0..4).map(|d| weights[d] * h[d].min(q[d])).sum();
        let (lo, hi) = rule.bounds(&CandidateState::partial_only(partial));
        assert!(lo <= full + 1e-12 && hi >= full - 1e-12);
        // upper bound adds Σ w_i q_i over remaining = 0.5*0.1 + 0 = 0.05
        assert!((hi - partial - 0.05).abs() < 1e-12);
        assert_eq!(rule.name(), "WHq");
        assert_eq!(rule.objective(), Objective::Maximize);
    }

    #[test]
    fn empty_remaining_collapses() {
        let mut rule = WeightedEvRule::new(vec![1.0, 2.0]);
        rule.prepare(&[0.5, 0.5], &[]);
        let state = CandidateState { partial: 0.7, scanned_mass: 1.0, total_mass: 1.0 };
        assert_eq!(rule.bounds(&state), (0.7, 0.7));
        assert_eq!(rule.name(), "WEv");
    }

    #[test]
    fn subspace_weights_ignore_unselected_dims() {
        // dims 0 and 1 are irrelevant (weight 0): pruning bound on the
        // remaining relevant dim must still bracket the true subspace score.
        let weights = vec![0.0, 0.0, 1.0, 1.0];
        let metric = WeightedSquaredEuclidean::new(weights.clone()).unwrap();
        let q = vec![0.9, 0.9, 0.2, 0.3];
        let v = vec![0.0, 0.0, 0.25, 0.35];
        let mut rule = WeightedEvRule::new(weights);
        rule.prepare(&q, &[2, 3]);
        let state = CandidateState { partial: 0.0, scanned_mass: 0.0, total_mass: v[2] + v[3] };
        let (lo, hi) = rule.bounds(&state);
        let full = metric.score(&v, &q);
        assert!(lo <= full + 1e-12 && hi >= full - 1e-12);
    }
}
