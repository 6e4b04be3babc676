//! Dimension orderings (Section 5.1).
//!
//! The aggregates BOND uses are commutative over the dimensions, so the
//! fragments can be processed in any order without a correctness penalty —
//! a flexibility tree indexes do not have. A good order prunes a large
//! fraction of the candidates early. Without statistics about the data the
//! paper's heuristic is to process dimensions in *decreasing order of the
//! query values* (for Zipfian data such as color histograms the high query
//! dimensions are also the most selective); Figure 7 compares that order
//! against a random and an increasing order.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vdstore::{ascending_nan_last, descending_nan_last};

/// How the dimensional fragments are ordered before scanning.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum DimensionOrdering {
    /// Decreasing query value — the paper's default heuristic.
    #[default]
    QueryValueDescending,
    /// Increasing query value — the worst case of Figure 7.
    QueryValueAscending,
    /// A deterministic pseudo-random permutation.
    Random {
        /// Seed of the permutation.
        seed: u64,
    },
    /// Decreasing `w_i · q_i²` — the weighted analogue ("the most skewed
    /// query dimensions, after normalization using the weights, are chosen
    /// first", Section 8.2). Falls back to decreasing query value when no
    /// weights are supplied.
    WeightedQueryDescending,
    /// An explicit order supplied by the caller (must be a permutation of
    /// `0..dims`; validated by the searcher).
    Explicit(Vec<usize>),
    /// The natural storage order `0, 1, 2, …` (useful as a neutral baseline
    /// and for debugging).
    Natural,
}

impl DimensionOrdering {
    /// Produces the processing order for a query (and optional weights) over
    /// `dims` dimensions.
    pub fn order(&self, query: &[f64], weights: Option<&[f64]>, dims: usize) -> Vec<usize> {
        debug_assert_eq!(query.len(), dims);
        match self {
            DimensionOrdering::QueryValueDescending => {
                let mut idx: Vec<usize> = (0..dims).collect();
                idx.sort_by(|&a, &b| descending_nan_last(query[a], query[b]));
                idx
            }
            DimensionOrdering::QueryValueAscending => {
                let mut idx: Vec<usize> = (0..dims).collect();
                idx.sort_by(|&a, &b| ascending_nan_last(query[a], query[b]));
                idx
            }
            DimensionOrdering::Random { seed } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                let mut idx: Vec<usize> = (0..dims).collect();
                for i in (1..dims).rev() {
                    let j = rng.gen_range(0..=i);
                    idx.swap(i, j);
                }
                idx
            }
            DimensionOrdering::WeightedQueryDescending => {
                let mut idx: Vec<usize> = (0..dims).collect();
                let key = |d: usize| -> f64 {
                    match weights {
                        Some(w) => w[d] * query[d] * query[d],
                        None => query[d],
                    }
                };
                idx.sort_by(|&a, &b| descending_nan_last(key(a), key(b)));
                idx
            }
            DimensionOrdering::Explicit(order) => order.clone(),
            DimensionOrdering::Natural => (0..dims).collect(),
        }
    }

    /// Checks that an order is a permutation of `0..dims`.
    pub fn is_valid_permutation(order: &[usize], dims: usize) -> bool {
        if order.len() != dims {
            return false;
        }
        let mut seen = vec![false; dims];
        for &d in order {
            if d >= dims || seen[d] {
                return false;
            }
            seen[d] = true;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: [f64; 5] = [0.1, 0.5, 0.05, 0.3, 0.05];

    #[test]
    fn descending_order_follows_query() {
        let o = DimensionOrdering::QueryValueDescending.order(&Q, None, 5);
        assert_eq!(&o[..3], &[1, 3, 0]);
        assert!(DimensionOrdering::is_valid_permutation(&o, 5));
    }

    #[test]
    fn ascending_is_reverse_of_descending_on_distinct_values() {
        let q = [0.1, 0.5, 0.03, 0.3, 0.05];
        let desc = DimensionOrdering::QueryValueDescending.order(&q, None, 5);
        let asc = DimensionOrdering::QueryValueAscending.order(&q, None, 5);
        let mut rev = desc.clone();
        rev.reverse();
        assert_eq!(asc, rev);
    }

    #[test]
    fn random_is_a_deterministic_permutation() {
        let a = DimensionOrdering::Random { seed: 9 }.order(&Q, None, 5);
        let b = DimensionOrdering::Random { seed: 9 }.order(&Q, None, 5);
        let c = DimensionOrdering::Random { seed: 10 }.order(&Q, None, 5);
        assert_eq!(a, b);
        assert!(DimensionOrdering::is_valid_permutation(&a, 5));
        assert!(DimensionOrdering::is_valid_permutation(&c, 5));
    }

    #[test]
    fn weighted_order_uses_weights() {
        // dim 2 has a tiny query value (0.05) but a huge weight:
        // w2·q2² = 400·0.0025 = 1.0 beats w1·q1² = 0.25, so dim 2 comes first
        let w = [1.0, 1.0, 400.0, 1.0, 1.0];
        let o = DimensionOrdering::WeightedQueryDescending.order(&Q, Some(&w), 5);
        assert_eq!(&o[..2], &[2, 1]);
        // falls back to query order without weights
        let fallback = DimensionOrdering::WeightedQueryDescending.order(&Q, None, 5);
        assert_eq!(fallback, DimensionOrdering::QueryValueDescending.order(&Q, None, 5));
    }

    #[test]
    fn explicit_and_natural() {
        let e = DimensionOrdering::Explicit(vec![4, 3, 2, 1, 0]).order(&Q, None, 5);
        assert_eq!(e, vec![4, 3, 2, 1, 0]);
        let n = DimensionOrdering::Natural.order(&Q, None, 5);
        assert_eq!(n, vec![0, 1, 2, 3, 4]);
        assert_eq!(DimensionOrdering::default(), DimensionOrdering::QueryValueDescending);
    }

    /// Every ordering over 2 000 generated query (and weight) vectors
    /// mixing NaN, ±∞ and ±0 into ordinary values: no panic, always a
    /// permutation, and the value orders put NaN dimensions last.
    #[test]
    fn orderings_survive_non_finite_vectors() {
        let mut state = 0xBAD_F10A7_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
        let mut value = move || match next() % 6 {
            pick @ 0..=4 => specials[pick as usize],
            _ => (next() % 100) as f64 / 100.0,
        };
        for i in 0..2000 {
            let dims = 1 + i % 37;
            let query: Vec<f64> = (0..dims).map(|_| value()).collect();
            let weights: Vec<f64> = (0..dims).map(|_| value()).collect();
            for ordering in [
                DimensionOrdering::QueryValueDescending,
                DimensionOrdering::QueryValueAscending,
                DimensionOrdering::WeightedQueryDescending,
                DimensionOrdering::Random { seed: i as u64 },
                DimensionOrdering::Natural,
            ] {
                for w in [None, Some(&weights[..])] {
                    let order = ordering.order(&query, w, dims);
                    assert!(DimensionOrdering::is_valid_permutation(&order, dims), "{query:?}");
                    if matches!(
                        ordering,
                        DimensionOrdering::QueryValueDescending
                            | DimensionOrdering::QueryValueAscending
                    ) {
                        let first_nan =
                            order.iter().position(|&d| query[d].is_nan()).unwrap_or(dims);
                        assert!(order[first_nan..].iter().all(|&d| query[d].is_nan()));
                    }
                }
            }
        }
    }

    #[test]
    fn permutation_validation() {
        assert!(DimensionOrdering::is_valid_permutation(&[2, 0, 1], 3));
        assert!(!DimensionOrdering::is_valid_permutation(&[0, 1], 3));
        assert!(!DimensionOrdering::is_valid_permutation(&[0, 0, 1], 3));
        assert!(!DimensionOrdering::is_valid_permutation(&[0, 1, 5], 3));
    }
}
