//! Property-based tests for the pruning bounds.
//!
//! The single invariant everything in BOND rests on is *bound correctness*:
//! for any query, any data vector, any scanned/remaining split of the
//! dimensions and any weights, the rule's lower bound must not exceed the
//! true final score and its upper bound must not fall below it. A violation
//! would make pruning unsafe (BOND could drop a true nearest neighbour), so
//! these properties are exercised aggressively here.

use bond_metrics::{
    CandidateState, DecomposableMetric, EqRule, EvRule, HhRule, HistogramIntersection, HqRule,
    Objective, OptimisticTail, PruningRule, SquaredEuclidean, WeightedEvRule, WeightedHqRule,
    WeightedSquaredEuclidean,
};
use proptest::prelude::*;

const DIMS: usize = 12;

/// A random vector in the unit hypercube.
fn unit_vector() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..=1.0, DIMS)
}

/// A random normalized histogram (non-negative, sums to 1).
fn histogram() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..=1.0, DIMS).prop_map(|mut v| {
        let total: f64 = v.iter().sum();
        if total <= 0.0 {
            v[0] = 1.0;
        } else {
            for x in &mut v {
                *x /= total;
            }
        }
        v
    })
}

/// Non-negative weights, some possibly zero.
fn weights() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(prop_oneof![Just(0.0f64), 0.01f64..=5.0], DIMS)
}

/// A split point m in [0, DIMS].
fn split() -> impl Strategy<Value = usize> {
    0..=DIMS
}

fn scanned_remaining(m: usize) -> (Vec<usize>, Vec<usize>) {
    ((0..m).collect(), (m..DIMS).collect())
}

fn state_for(v: &[f64], metric: &dyn DecomposableMetric, q: &[f64], m: usize) -> CandidateState {
    let (scanned, _) = scanned_remaining(m);
    CandidateState {
        partial: metric.partial_score(&scanned, v, q),
        scanned_mass: v[..m].iter().sum(),
        total_mass: v.iter().sum(),
    }
}

/// One entry of a per-row state array: usually a plausible score or mass,
/// sometimes the garbage a row that is no longer a candidate may hold.
fn state_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..=4.0,
        0.0f64..=4.0,
        0.0f64..=4.0,
        -1e300f64..=1e300,
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

const MAX_ROWS: usize = 150;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bounds_all_equals_per_candidate_bounds_bit_for_bit(
        q in unit_vector(),
        w in weights(),
        m in split(),
        partial in proptest::collection::vec(state_value(), 0..=MAX_ROWS),
        scanned in proptest::collection::vec(state_value(), MAX_ROWS),
        total in proptest::collection::vec(state_value(), MAX_ROWS),
        with_scanned in proptest::bool::ANY,
        with_total in proptest::bool::ANY,
    ) {
        let rows = partial.len();
        let scanned = with_scanned.then(|| &scanned[..rows]);
        let total = with_total.then(|| &total[..rows]);
        let (_, remaining) = scanned_remaining(m);
        let mut rules: Vec<Box<dyn PruningRule>> = vec![
            Box::new(HqRule::new()),
            Box::new(HhRule::new()),
            Box::new(EqRule::new()),
            Box::new(EvRule::new()),
            Box::new(WeightedHqRule::new(w.clone())),
            Box::new(WeightedEvRule::new(w)),
        ];
        for rule in &mut rules {
            rule.prepare(&q, &remaining);
            // stale outputs of an earlier attempt must be overwritten
            let mut lower = vec![f64::NAN; rows];
            let mut upper = vec![f64::NAN; rows];
            rule.bounds_all(&partial, scanned, total, &mut lower, &mut upper);
            for row in 0..rows {
                let (lo, hi) = rule.bounds(&CandidateState {
                    partial: partial[row],
                    scanned_mass: scanned.map_or(0.0, |s| s[row]),
                    total_mass: total.map_or(0.0, |t| t[row]),
                });
                // (which NaN comes out of a NaN input is not pinned down)
                for (all, one) in [(lower[row], lo), (upper[row], hi)] {
                    prop_assert!(
                        all.to_bits() == one.to_bits() || (all.is_nan() && one.is_nan()),
                        "{} row {}: bounds_all {} vs bounds {}", rule.name(), row, all, one
                    );
                }
            }
        }
    }
}

/// A query for the tail property: unit-cube values, some exactly zero.
fn query_with_zeros() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(prop_oneof![Just(0.0f64), 0.0f64..=1.0, 0.0f64..=1.0], DIMS)
}

/// A mass for the tail property: a plausible one, or one of the values a
/// stale or broken row can hold.
fn tail_mass() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..=2.0,
        0.0f64..=2.0,
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every rule's closed-form optimistic bound equals the optimistic side
    /// of its `bounds`, and `pessimistic_word` the pessimistic side at the
    /// rows it is asked for — NaN and ±∞ partial scores, scanned masses above
    /// and below the total, NaN masses, no dimension left or all of them,
    /// zero query values, and zero weights (`WEv`'s infinite `Σ 1/wᵢ`).
    #[test]
    fn optimistic_tail_equals_the_optimistic_bound_bit_for_bit(
        q in query_with_zeros(),
        w in weights(),
        m in prop_oneof![split(), Just(DIMS), Just(0usize)],
        partial in proptest::collection::vec(state_value(), 64),
        scanned in proptest::collection::vec(tail_mass(), 64),
        total in proptest::collection::vec(tail_mass(), 64),
        zero_weight in proptest::bool::ANY,
        keepers in 0u64..u64::MAX,
    ) {
        let mut w = w;
        if zero_weight {
            w[DIMS - 1] = 0.0;
        }
        let (_, remaining) = scanned_remaining(m);
        let mut rules: Vec<Box<dyn PruningRule>> = vec![
            Box::new(HqRule::new()),
            Box::new(HhRule::new()),
            Box::new(EqRule::new()),
            Box::new(EvRule::new()),
            Box::new(WeightedHqRule::new(w.clone())),
            Box::new(WeightedEvRule::new(w)),
        ];
        for rule in &mut rules {
            rule.prepare(&q, &remaining);
            // the pessimistic side, for a word's rows chosen by a mask
            let mut pessimistic = vec![f64::NAN; partial.len()];
            rule.pessimistic_word(keepers, &partial, Some(&scanned), Some(&total), &mut pessimistic);
            let tail = rule.optimistic_tail();
            let requirements = rule.requirements();
            let reads_mass = matches!(
                tail,
                OptimisticTail::AddMassCapped(_) | OptimisticTail::AddSquaredGap { .. }
            );
            prop_assert!(
                !reads_mass || (requirements.needs_scanned_mass && requirements.needs_total_mass),
                "{}: the tail reads masses the rule does not ask for", rule.name()
            );
            for row in 0..partial.len() {
                let candidate = CandidateState {
                    partial: partial[row],
                    scanned_mass: scanned[row],
                    total_mass: total[row],
                };
                let (lower, upper) = rule.bounds(&candidate);
                let optimistic = match rule.objective() {
                    Objective::Maximize => upper,
                    Objective::Minimize => lower,
                };
                let (got, want) = (pessimistic[row], match rule.objective() {
                    Objective::Maximize => lower,
                    Objective::Minimize => upper,
                });
                prop_assert!(
                    keepers >> row & 1 == 0
                        || got.to_bits() == want.to_bits()
                        || (got.is_nan() && want.is_nan()),
                    "{} at {:?}: pessimistic_word {} vs bounds {}", rule.name(), candidate, got, want
                );
                let got = tail.bound(&candidate);
                // (which NaN comes out of a NaN input is not pinned down)
                prop_assert!(
                    got.to_bits() == optimistic.to_bits() || (got.is_nan() && optimistic.is_nan()),
                    "{} {:?} at {:?}: tail {} vs bounds {}",
                    rule.name(), tail, candidate, got, optimistic
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hq_bounds_are_correct(h in histogram(), q in histogram(), m in split()) {
        let metric = HistogramIntersection;
        let (_, remaining) = scanned_remaining(m);
        let mut rule = HqRule::new();
        rule.prepare(&q, &remaining);
        let state = state_for(&h, &metric, &q, m);
        let (lo, hi) = rule.bounds(&state);
        let full = metric.score(&h, &q);
        prop_assert!(lo <= full + 1e-9);
        prop_assert!(hi >= full - 1e-9);
    }

    #[test]
    fn hh_bounds_are_correct_and_tighter(h in histogram(), q in histogram(), m in split()) {
        let metric = HistogramIntersection;
        let (_, remaining) = scanned_remaining(m);
        let mut hh = HhRule::new();
        let mut hq = HqRule::new();
        hh.prepare(&q, &remaining);
        hq.prepare(&q, &remaining);
        let state = state_for(&h, &metric, &q, m);
        let (lo, hi) = hh.bounds(&state);
        let full = metric.score(&h, &q);
        prop_assert!(lo <= full + 1e-9, "Hh lower {} vs {}", lo, full);
        prop_assert!(hi >= full - 1e-9, "Hh upper {} vs {}", hi, full);
        let (lo_q, hi_q) = hq.bounds(&state);
        prop_assert!(lo >= lo_q - 1e-9);
        prop_assert!(hi <= hi_q + 1e-9);
    }

    #[test]
    fn eq_bounds_are_correct(v in unit_vector(), q in unit_vector(), m in split()) {
        let metric = SquaredEuclidean;
        let (_, remaining) = scanned_remaining(m);
        let mut rule = EqRule::new();
        rule.prepare(&q, &remaining);
        let state = state_for(&v, &metric, &q, m);
        let (lo, hi) = rule.bounds(&state);
        let full = metric.score(&v, &q);
        prop_assert!(lo <= full + 1e-9);
        prop_assert!(hi >= full - 1e-9);
    }

    #[test]
    fn ev_bounds_are_correct_and_tighter_upper(v in unit_vector(), q in unit_vector(), m in split()) {
        let metric = SquaredEuclidean;
        let (_, remaining) = scanned_remaining(m);
        let mut ev = EvRule::new();
        let mut eq = EqRule::new();
        ev.prepare(&q, &remaining);
        eq.prepare(&q, &remaining);
        let state = state_for(&v, &metric, &q, m);
        let (lo, hi) = ev.bounds(&state);
        let full = metric.score(&v, &q);
        prop_assert!(lo <= full + 1e-9, "Ev lower {} vs true {}", lo, full);
        prop_assert!(hi >= full - 1e-9, "Ev upper {} vs true {}", hi, full);
        // Ev's lower bound is at least Eq's (which is just the partial score).
        let (lo_q, _) = eq.bounds(&state);
        prop_assert!(lo >= lo_q - 1e-9);
    }

    #[test]
    fn weighted_ev_bounds_are_correct(
        v in unit_vector(),
        q in unit_vector(),
        w in weights(),
        m in split(),
    ) {
        let metric = match WeightedSquaredEuclidean::new(w.clone()) {
            Ok(m) => m,
            Err(_) => return Ok(()),
        };
        let (_, remaining) = scanned_remaining(m);
        let mut rule = WeightedEvRule::new(w);
        rule.prepare(&q, &remaining);
        let state = state_for(&v, &metric, &q, m);
        let (lo, hi) = rule.bounds(&state);
        let full = metric.score(&v, &q);
        prop_assert!(lo <= full + 1e-9, "WEv lower {} vs true {}", lo, full);
        prop_assert!(hi >= full - 1e-9, "WEv upper {} vs true {}", hi, full);
    }

    #[test]
    fn weighted_hq_bounds_are_correct(
        h in histogram(),
        q in histogram(),
        w in weights(),
        m in split(),
    ) {
        let (_, remaining) = scanned_remaining(m);
        let mut rule = WeightedHqRule::new(w.clone());
        rule.prepare(&q, &remaining);
        let scanned: Vec<usize> = (0..m).collect();
        let partial: f64 = scanned.iter().map(|&d| w[d] * h[d].min(q[d])).sum();
        let full: f64 = (0..DIMS).map(|d| w[d] * h[d].min(q[d])).sum();
        let (lo, hi) = rule.bounds(&CandidateState::partial_only(partial));
        prop_assert!(lo <= full + 1e-9);
        prop_assert!(hi >= full - 1e-9);
    }

    #[test]
    fn bounds_shrink_as_more_dimensions_are_scanned(h in histogram(), q in histogram()) {
        // The Hq bound interval at m+1 is contained in the interval at m
        // for the same histogram (monotone refinement).
        let metric = HistogramIntersection;
        let mut rule = HqRule::new();
        let mut prev_width = f64::INFINITY;
        for m in 0..=DIMS {
            let (_, remaining) = scanned_remaining(m);
            rule.prepare(&q, &remaining);
            let state = state_for(&h, &metric, &q, m);
            let (lo, hi) = rule.bounds(&state);
            let width = hi - lo;
            prop_assert!(width <= prev_width + 1e-9);
            prev_width = width;
        }
    }

    #[test]
    fn euclidean_similarity_transform_is_monotone(d1 in 0.0f64..16.0, d2 in 0.0f64..16.0) {
        let s1 = SquaredEuclidean::similarity_from_distance(d1, 16);
        let s2 = SquaredEuclidean::similarity_from_distance(d2, 16);
        if d1 < d2 {
            prop_assert!(s1 >= s2);
        }
    }
}
