//! Pruning bounds for squared Euclidean distance (Section 4.3).
//!
//! The data are assumed to live in the unit hypercube (`0 ≤ v_i ≤ 1`), the
//! setting of Definition 2. Under a distance metric BOND keeps the k
//! *smallest* scores, so the roles of the bounds flip: κ_max is the k-th
//! smallest upper bound `S_max`, and a candidate is pruned when its lower
//! bound `S_min` exceeds κ_max.

use crate::bounds::{
    descending_nan_last, CandidateState, OptimisticTail, PruningRule, Requirements,
};
use crate::metric::Objective;

/// Criterion **Eq** (Equation 10): bounds that depend only on the query.
///
/// The distance already accumulated can never decrease, so
/// `S_min = S(v⁻, q⁻)`; the worst case for the remaining dimensions is the
/// farthest corner of the remaining hyperbox, giving
/// `S_max = S(v⁻, q⁻) + Σ_{remaining} max(q_i, 1 − q_i)²`.
///
/// The paper finds Eq prunes "hardly any image" because that upper bound is
/// far too loose without knowledge of `T(v⁺)`; it is included for the
/// Figure 5 comparison.
#[derive(Debug, Clone, Default)]
pub struct EqRule {
    remaining_corner_sum: f64,
}

impl EqRule {
    /// Creates the rule. Constants are filled in by `prepare`.
    pub fn new() -> Self {
        EqRule { remaining_corner_sum: 0.0 }
    }
}

impl PruningRule for EqRule {
    fn objective(&self) -> Objective {
        Objective::Minimize
    }

    fn requirements(&self) -> Requirements {
        Requirements::default()
    }

    fn prepare(&mut self, query: &[f64], remaining_dims: &[usize]) {
        self.remaining_corner_sum = remaining_dims
            .iter()
            .map(|&d| {
                let q = query[d];
                let far = q.max(1.0 - q);
                far * far
            })
            .sum();
    }

    #[inline]
    fn bounds(&self, candidate: &CandidateState) -> (f64, f64) {
        (self.optimistic_tail().bound(candidate), candidate.partial + self.remaining_corner_sum)
    }

    #[inline]
    fn optimistic_tail(&self) -> OptimisticTail {
        OptimisticTail::Partial
    }

    fn name(&self) -> &'static str {
        "Eq"
    }
}

/// Criterion **Ev** (Lemmas 1 and 2): per-vector bounds using the remaining
/// mass `T(v⁺) = T(v) − T(v⁻)`.
///
/// * **Upper bound (Lemma 1).** Among all ways of distributing the mass
///   `T(v⁺)` over the remaining dimensions (each value in `[0, 1]`), the
///   distance is maximized by assigning full 1s to the dimensions with the
///   *smallest* query values, a single fractional remainder to the next
///   dimension, and 0 elsewhere. With the remaining query values sorted in
///   decreasing order and prefix sums precomputed in [`PruningRule::prepare`],
///   each candidate's bound is evaluated in O(1).
/// * **Lower bound (Lemma 2).** The distance increase is minimized when the
///   remaining differences are all equal, giving
///   `(T(v⁺) − T(q⁺))² / (N − m)` (a Cauchy–Schwarz argument; the bound is
///   valid irrespective of the box constraints).
#[derive(Debug, Clone, Default)]
pub struct EvRule {
    /// Remaining query values sorted in decreasing order.
    sorted_q: Vec<f64>,
    /// `prefix_q2[j] = Σ_{i < j} sorted_q[i]²` (dims that receive value 0).
    prefix_q2: Vec<f64>,
    /// `suffix_one_minus_q2[j] = Σ_{i ≥ j} (1 − sorted_q[i])²` (dims that
    /// receive value 1).
    suffix_one_minus_q2: Vec<f64>,
    /// `T(q⁺)`.
    remaining_query_sum: f64,
}

impl EvRule {
    /// Creates the rule. Constants are filled in by `prepare`.
    pub fn new() -> Self {
        EvRule::default()
    }

    /// Number of remaining dimensions after the last `prepare` call.
    fn remaining(&self) -> usize {
        self.sorted_q.len()
    }

    /// Lemma 1 upper bound on the *additional* distance for a vector with
    /// remaining mass `remaining_mass`.
    fn upper_extra(&self, remaining_mass: f64) -> f64 {
        let r = self.remaining();
        if r == 0 {
            return 0.0;
        }
        // Mass cannot exceed r (each coordinate is at most 1) nor be negative.
        let mass = remaining_mass.clamp(0.0, r as f64);
        let full = mass.floor() as usize;
        if full >= r {
            // every remaining coordinate is 1
            return self.suffix_one_minus_q2[0];
        }
        let frac = mass - full as f64;
        // indices [r - full, r) get value 1; index r - full - 1 gets `frac`;
        // indices [0, r - full - 1) get value 0.
        let frac_idx = r - full - 1;
        let zeros = self.prefix_q2[frac_idx];
        let ones = self.suffix_one_minus_q2[frac_idx + 1];
        let q_frac = self.sorted_q[frac_idx];
        let d = frac - q_frac;
        zeros + d * d + ones
    }
}

impl PruningRule for EvRule {
    fn objective(&self) -> Objective {
        Objective::Minimize
    }

    fn requirements(&self) -> Requirements {
        Requirements { needs_scanned_mass: true, needs_total_mass: true }
    }

    /// Rebuilds the tables in the rule's own buffers, so a step allocates
    /// nothing once they have grown to the query's dimensionality.
    fn prepare(&mut self, query: &[f64], remaining_dims: &[usize]) {
        self.sorted_q.clear();
        self.sorted_q.extend(remaining_dims.iter().map(|&d| query[d]));
        self.sorted_q.sort_by(|&a, &b| descending_nan_last(a, b));
        self.remaining_query_sum = self.sorted_q.iter().sum();
        let r = self.sorted_q.len();
        self.prefix_q2.clear();
        self.prefix_q2.resize(r + 1, 0.0);
        for i in 0..r {
            self.prefix_q2[i + 1] = self.prefix_q2[i] + self.sorted_q[i] * self.sorted_q[i];
        }
        self.suffix_one_minus_q2.clear();
        self.suffix_one_minus_q2.resize(r + 1, 0.0);
        for i in (0..r).rev() {
            let d = 1.0 - self.sorted_q[i];
            self.suffix_one_minus_q2[i] = self.suffix_one_minus_q2[i + 1] + d * d;
        }
    }

    #[inline]
    fn bounds(&self, candidate: &CandidateState) -> (f64, f64) {
        let upper = candidate.partial + self.upper_extra(candidate.remaining_mass());
        (self.optimistic_tail().bound(candidate), upper)
    }

    /// The Lemma 2 lower bound, `p + (T(v⁺) − T(q⁺))² / (N − m)`: `0.0`
    /// added once no dimension remains.
    #[inline]
    fn optimistic_tail(&self) -> OptimisticTail {
        match self.remaining() {
            0 => OptimisticTail::AddConst(0.0),
            r => OptimisticTail::AddSquaredGap {
                target: self.remaining_query_sum,
                divisor: r as f64,
            },
        }
    }

    fn name(&self) -> &'static str {
        "Ev"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{DecomposableMetric, SquaredEuclidean};

    fn brute_force_max_extra(q_remaining: &[f64], mass: f64, steps: usize) -> f64 {
        // Exhaustive-ish check for 2 remaining dims: sweep the simplex.
        assert_eq!(q_remaining.len(), 2);
        let mut best = 0.0f64;
        for i in 0..=steps {
            let a = (i as f64 / steps as f64).min(1.0);
            let b = mass - a;
            if !(0.0..=1.0).contains(&b) {
                continue;
            }
            let d = (a - q_remaining[0]).powi(2) + (b - q_remaining[1]).powi(2);
            best = best.max(d);
        }
        best
    }

    #[test]
    fn eq_bounds_bracket_true_distance() {
        let q = vec![0.2, 0.8, 0.5, 0.9];
        let v = vec![0.1, 0.4, 0.7, 0.3];
        let metric = SquaredEuclidean;
        let scanned = [0usize, 1];
        let remaining = [2usize, 3];
        let mut rule = EqRule::new();
        rule.prepare(&q, &remaining);
        let partial = metric.partial_score(&scanned, &v, &q);
        let (lo, hi) = rule.bounds(&CandidateState::partial_only(partial));
        let full = metric.score(&v, &q);
        assert!(lo <= full + 1e-12);
        assert!(hi >= full - 1e-12);
        // corner sum: max(0.5,0.5)² + max(0.9,0.1)² = 0.25 + 0.81
        assert!((hi - lo - 1.06).abs() < 1e-12);
        assert_eq!(rule.objective(), Objective::Minimize);
        assert_eq!(rule.name(), "Eq");
    }

    #[test]
    fn ev_upper_matches_lemma_examples() {
        // Example from the analysis: q+ = [0.9, 0.1] (descending), R = 1.
        // Max extra distance = (0 − 0.9)² + (1 − 0.1)² = 1.62.
        let q = vec![0.9, 0.1];
        let mut rule = EvRule::new();
        rule.prepare(&q, &[0, 1]);
        let state = CandidateState { partial: 0.0, scanned_mass: 0.0, total_mass: 1.0 };
        let (_, hi) = rule.bounds(&state);
        assert!((hi - 1.62).abs() < 1e-12);
        // R = 0.5: fractional 0.5 on the dim with q = 0.1, 0 on q = 0.9
        let state = CandidateState { partial: 0.0, scanned_mass: 0.0, total_mass: 0.5 };
        let (_, hi) = rule.bounds(&state);
        assert!((hi - (0.81 + 0.16)).abs() < 1e-12);
        // R = 2: both coordinates are 1
        let state = CandidateState { partial: 0.0, scanned_mass: 0.0, total_mass: 2.0 };
        let (_, hi) = rule.bounds(&state);
        assert!((hi - (0.01 + 0.81)).abs() < 1e-12);
    }

    #[test]
    fn ev_upper_dominates_brute_force() {
        let mut rule = EvRule::new();
        for (qa, qb) in [(0.9, 0.1), (0.5, 0.45), (0.2, 0.1), (0.8, 0.7), (0.0, 1.0)] {
            let q = vec![qa, qb];
            rule.prepare(&q, &[0, 1]);
            for mass in [0.0, 0.3, 0.5, 1.0, 1.2, 1.7, 2.0] {
                let state = CandidateState { partial: 0.0, scanned_mass: 0.0, total_mass: mass };
                let (_, hi) = rule.bounds(&state);
                let brute = brute_force_max_extra(&q, mass, 2000);
                assert!(
                    hi >= brute - 1e-6,
                    "Lemma 1 bound {hi} below brute force {brute} for q={q:?}, mass={mass}"
                );
            }
        }
    }

    #[test]
    fn ev_lower_bound_is_cauchy_schwarz() {
        let q = vec![0.3, 0.4, 0.1];
        let mut rule = EvRule::new();
        rule.prepare(&q, &[0, 1, 2]);
        // T(q+) = 0.8; with T(v+) = 0.2 the lower bound is (0.2-0.8)²/3 = 0.12
        let state = CandidateState { partial: 0.5, scanned_mass: 0.0, total_mass: 0.2 };
        let (lo, _) = rule.bounds(&state);
        assert!((lo - (0.5 + 0.36 / 3.0)).abs() < 1e-12);
        // equal masses -> lower bound adds nothing
        let state = CandidateState { partial: 0.5, scanned_mass: 0.0, total_mass: 0.8 };
        let (lo, _) = rule.bounds(&state);
        assert!((lo - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ev_bounds_bracket_true_distance_randomized() {
        // deterministic pseudo-random sweep (no external RNG needed)
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let metric = SquaredEuclidean;
        let dims = 8;
        for _ in 0..200 {
            let q: Vec<f64> = (0..dims).map(|_| next()).collect();
            let v: Vec<f64> = (0..dims).map(|_| next()).collect();
            let m = 3;
            let scanned: Vec<usize> = (0..m).collect();
            let remaining: Vec<usize> = (m..dims).collect();
            let mut rule = EvRule::new();
            rule.prepare(&q, &remaining);
            let state = CandidateState {
                partial: metric.partial_score(&scanned, &v, &q),
                scanned_mass: v[..m].iter().sum(),
                total_mass: v.iter().sum(),
            };
            let (lo, hi) = rule.bounds(&state);
            let full = metric.score(&v, &q);
            assert!(lo <= full + 1e-9, "Ev lower bound violated: {lo} > {full}");
            assert!(hi >= full - 1e-9, "Ev upper bound violated: {hi} < {full}");
        }
    }

    #[test]
    fn ev_empty_remaining_collapses() {
        let mut rule = EvRule::new();
        rule.prepare(&[0.5], &[]);
        let state = CandidateState { partial: 1.5, scanned_mass: 0.5, total_mass: 0.5 };
        assert_eq!(rule.bounds(&state), (1.5, 1.5));
        assert!(rule.requirements().needs_total_mass);
        assert_eq!(rule.name(), "Ev");
    }

    #[test]
    fn ev_tighter_than_eq_for_small_mass() {
        // A vector that has already shown nearly all of its mass can hardly
        // add distance in the remaining dims when the query is small there;
        // Ev exploits this, Eq cannot.
        let q = vec![0.8, 0.7, 0.05, 0.1];
        let remaining = [2usize, 3];
        let mut ev = EvRule::new();
        let mut eq = EqRule::new();
        ev.prepare(&q, &remaining);
        eq.prepare(&q, &remaining);
        let state = CandidateState { partial: 0.1, scanned_mass: 0.95, total_mass: 1.0 };
        let (_, hi_ev) = ev.bounds(&state);
        let (_, hi_eq) = eq.bounds(&CandidateState::partial_only(0.1));
        assert!(hi_ev < hi_eq, "Ev ({hi_ev}) should beat Eq ({hi_eq}) here");
    }
}
