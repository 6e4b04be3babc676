//! Pruning bounds for histogram intersection (Section 4.1).

use crate::bounds::{CandidateState, OptimisticTail, PruningRule, Requirements};
use crate::metric::Objective;

/// Criterion **Hq** (Equations 5–6): bounds that depend only on the query.
///
/// For the unseen dimensions, `0 ≤ S(h⁺, q⁺) ≤ T(q⁺)`, so
/// `S_min = S(h⁻, q⁻)` and `S_max = S(h⁻, q⁻) + T(q⁺)`. Because the added
/// bounds are the same constant for every histogram, Hq needs no
/// per-candidate bookkeeping beyond the partial score — which is why the
/// paper finds it the best criterion in practice despite pruning slightly
/// less than Hh.
#[derive(Debug, Clone, Default)]
pub struct HqRule {
    remaining_query_sum: f64,
}

impl HqRule {
    /// Creates the rule. Constants are filled in by `prepare`.
    pub fn new() -> Self {
        HqRule { remaining_query_sum: 0.0 }
    }

    /// The current `T(q⁺)` (exposed for tests and the relational-algebra
    /// formulation, whose `maxbound` is `κ + T(q⁺) − 1` rearranged).
    pub fn remaining_query_sum(&self) -> f64 {
        self.remaining_query_sum
    }
}

impl PruningRule for HqRule {
    fn objective(&self) -> Objective {
        Objective::Maximize
    }

    fn requirements(&self) -> Requirements {
        Requirements::default()
    }

    fn prepare(&mut self, query: &[f64], remaining_dims: &[usize]) {
        self.remaining_query_sum = remaining_dims.iter().map(|&d| query[d]).sum();
    }

    #[inline]
    fn bounds(&self, candidate: &CandidateState) -> (f64, f64) {
        (candidate.partial, self.optimistic_tail().bound(candidate))
    }

    #[inline]
    fn optimistic_tail(&self) -> OptimisticTail {
        OptimisticTail::AddConst(self.remaining_query_sum)
    }

    fn name(&self) -> &'static str {
        "Hq"
    }
}

/// Criterion **Hh** (Equations 7–9): stricter bounds that additionally use
/// the mass `T(h⁻)` each histogram has shown in the scanned dimensions.
///
/// With `T(h⁺) = T(h) − T(h⁻)` (for normalized histograms `T(h) = 1`):
///
/// * upper: `S(h⁺, q⁺) ≤ min(T(h⁺), T(q⁺))`
/// * lower: `S(h⁺, q⁺) ≥ min(q⁺_min, T(h⁺))`, where `q⁺_min` is the smallest
///   query value among the remaining dimensions.
///
/// The stricter bounds prune more vectors, at the cost of maintaining
/// `T(h⁻)` per candidate (the bookkeeping the paper finds not to pay off in
/// runtime, Table 3).
#[derive(Debug, Clone, Default)]
pub struct HhRule {
    remaining_query_sum: f64,
    remaining_query_min: f64,
}

impl HhRule {
    /// Creates the rule. Constants are filled in by `prepare`.
    pub fn new() -> Self {
        HhRule { remaining_query_sum: 0.0, remaining_query_min: 0.0 }
    }
}

impl PruningRule for HhRule {
    fn objective(&self) -> Objective {
        Objective::Maximize
    }

    fn requirements(&self) -> Requirements {
        Requirements { needs_scanned_mass: true, needs_total_mass: true }
    }

    fn prepare(&mut self, query: &[f64], remaining_dims: &[usize]) {
        self.remaining_query_sum = remaining_dims.iter().map(|&d| query[d]).sum();
        self.remaining_query_min =
            remaining_dims.iter().map(|&d| query[d]).fold(f64::INFINITY, f64::min);
        if remaining_dims.is_empty() {
            self.remaining_query_min = 0.0;
        }
    }

    #[inline]
    fn bounds(&self, candidate: &CandidateState) -> (f64, f64) {
        let lower = candidate.partial + self.remaining_query_min.min(candidate.remaining_mass());
        (lower, self.optimistic_tail().bound(candidate))
    }

    #[inline]
    fn optimistic_tail(&self) -> OptimisticTail {
        OptimisticTail::AddMassCapped(self.remaining_query_sum)
    }

    fn name(&self) -> &'static str {
        "Hh"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{DecomposableMetric, HistogramIntersection};

    /// The query and collection of the worked example (Table 2 / Section 4.2).
    fn example() -> (Vec<f64>, Vec<Vec<f64>>) {
        let q = vec![0.7, 0.15, 0.1, 0.05];
        let h = vec![
            vec![0.1, 0.3, 0.4, 0.2], // h1 (values chosen so S(h1-,q-)=0.25 as in the table)
            vec![0.05, 0.05, 0.9, 0.0], // h2
            vec![0.8, 0.1, 0.05, 0.05], // h3
            vec![0.2, 0.6, 0.1, 0.1], // h4
            vec![0.7, 0.15, 0.15, 0.0], // h5
            vec![0.925, 0.0, 0.0, 0.025], // h6
            vec![0.55, 0.2, 0.15, 0.1], // h7
            vec![0.05, 0.1, 0.05, 0.8], // h8
            vec![0.45, 0.5, 0.05, 0.05], // h9
        ];
        (q, h)
    }

    #[test]
    fn hq_bounds_bracket_true_score_on_example() {
        let (q, hs) = example();
        let metric = HistogramIntersection;
        let mut rule = HqRule::new();
        let scanned = [0usize, 1];
        let remaining = [2usize, 3];
        rule.prepare(&q, &remaining);
        assert!((rule.remaining_query_sum() - 0.15).abs() < 1e-12);
        for h in &hs {
            let partial = metric.partial_score(&scanned, h, &q);
            let (lo, hi) = rule.bounds(&CandidateState::partial_only(partial));
            let full = metric.score(h, &q);
            assert!(lo <= full + 1e-12, "Hq lower bound violated");
            assert!(hi >= full - 1e-12, "Hq upper bound violated");
        }
    }

    #[test]
    fn hq_prunes_the_paper_example() {
        // With m = 2 and k = 3, κ_min = 0.7 and the pruning threshold is
        // κ_min − T(q⁺) = 0.55; histograms {h1, h2, h4, h8} are pruned.
        let (q, hs) = example();
        let metric = HistogramIntersection;
        let mut rule = HqRule::new();
        rule.prepare(&q, &[2, 3]);
        let partials: Vec<f64> = hs.iter().map(|h| metric.partial_score(&[0, 1], h, &q)).collect();
        // κ_min = 3rd largest lower bound = 3rd largest partial
        let mut lows: Vec<f64> =
            partials.iter().map(|&p| rule.bounds(&CandidateState::partial_only(p)).0).collect();
        lows.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let kappa = lows[2];
        assert!((kappa - 0.7).abs() < 1e-9);
        let pruned: Vec<usize> = partials
            .iter()
            .enumerate()
            .filter(|(_, &p)| rule.bounds(&CandidateState::partial_only(p)).1 < kappa)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(pruned, vec![0, 1, 3, 7], "h1, h2, h4, h8 are pruned");
    }

    #[test]
    fn hh_prunes_more_than_hq_on_example() {
        // Hh additionally removes h6 and h9, identifying the three best
        // results after the first iteration (Section 4.2).
        let (q, hs) = example();
        let metric = HistogramIntersection;
        let scanned = [0usize, 1];
        let remaining = [2usize, 3];
        let mut hh = HhRule::new();
        hh.prepare(&q, &remaining);

        let states: Vec<CandidateState> = hs
            .iter()
            .map(|h| CandidateState {
                partial: metric.partial_score(&scanned, h, &q),
                scanned_mass: h[0] + h[1],
                // h6 in the paper's Table 2 sums to 0.95, not 1.0; the rule
                // must use the vector's true mass for the lower bound to hold.
                total_mass: h.iter().sum(),
            })
            .collect();
        let mut lows: Vec<f64> = states.iter().map(|s| hh.bounds(s).0).collect();
        lows.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let kappa = lows[2];
        assert!((kappa - 0.75).abs() < 1e-9, "κ_min = 0.75 in the paper example, got {kappa}");
        let survivors: Vec<usize> = states
            .iter()
            .enumerate()
            .filter(|(_, s)| hh.bounds(s).1 >= kappa)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(survivors, vec![2, 4, 6], "only h3, h5, h7 survive under Hh");
    }

    #[test]
    fn hh_bounds_are_tighter_than_hq() {
        let (q, hs) = example();
        let metric = HistogramIntersection;
        let scanned = [0usize, 1];
        let remaining = [2usize, 3];
        let mut hq = HqRule::new();
        let mut hh = HhRule::new();
        hq.prepare(&q, &remaining);
        hh.prepare(&q, &remaining);
        for h in &hs {
            let partial = metric.partial_score(&scanned, h, &q);
            let state =
                CandidateState { partial, scanned_mass: h[0] + h[1], total_mass: h.iter().sum() };
            let (lo_q, hi_q) = hq.bounds(&CandidateState::partial_only(partial));
            let (lo_h, hi_h) = hh.bounds(&state);
            let full = metric.score(h, &q);
            assert!(lo_h <= full + 1e-12 && hi_h >= full - 1e-12);
            assert!(lo_h >= lo_q - 1e-12, "Hh lower bound at least as tight");
            assert!(hi_h <= hi_q + 1e-12, "Hh upper bound at least as tight");
        }
    }

    #[test]
    fn empty_remaining_dims_collapse_bounds() {
        let q = vec![0.5, 0.5];
        let mut hq = HqRule::new();
        hq.prepare(&q, &[]);
        let (lo, hi) = hq.bounds(&CandidateState::partial_only(0.42));
        assert_eq!((lo, hi), (0.42, 0.42));

        let mut hh = HhRule::new();
        hh.prepare(&q, &[]);
        let state = CandidateState { partial: 0.42, scanned_mass: 1.0, total_mass: 1.0 };
        let (lo, hi) = hh.bounds(&state);
        assert!((lo - 0.42).abs() < 1e-12 && (hi - 0.42).abs() < 1e-12);
    }

    #[test]
    fn names_and_requirements() {
        assert_eq!(HqRule::new().name(), "Hq");
        assert_eq!(HhRule::new().name(), "Hh");
        assert!(!HqRule::new().requirements().needs_scanned_mass);
        assert!(HhRule::new().requirements().needs_scanned_mass);
        assert!(HhRule::new().requirements().needs_total_mass);
        assert_eq!(HqRule::new().objective(), Objective::Maximize);
        assert_eq!(HhRule::new().objective(), Objective::Maximize);
    }
}
