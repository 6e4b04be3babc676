//! Skewed weight vectors for weighted k-NN queries (Section 8.1, Figure 11).
//!
//! The paper studies how the skew of the query weights affects pruning: "10%
//! of the dimensions should get more than 90% of the weights" before the
//! weighted search becomes effective on a uniformly clustered dataset. Two
//! generators are provided: a Zipf-law weight vector parameterized by an
//! exponent, and an explicit concentration generator ("put `mass_fraction`
//! of the total weight on the top `top_fraction` of dimensions") that maps
//! directly onto the x-axis of Figure 11.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vdstore::descending_nan_last;

use crate::samplers::zipf_probabilities;

/// Weights following a Zipf law over a random permutation of the dimensions,
/// normalized so that they sum to `dims` (the convention of Appendix A under
/// which Equation 3 still defines a similarity).
pub fn zipf_weights(dims: usize, theta: f64, seed: u64) -> Vec<f64> {
    assert!(dims > 0, "need at least one dimension");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = zipf_probabilities(dims, theta);
    // scale: probabilities sum to 1 -> weights sum to dims
    for x in &mut w {
        *x *= dims as f64;
    }
    // random permutation so the heavy dimensions are not always the first
    for i in (1..dims).rev() {
        let j = rng.gen_range(0..=i);
        w.swap(i, j);
    }
    w
}

/// Weights where the `top_fraction` most important dimensions carry
/// `mass_fraction` of the total weight and the rest share the remainder
/// evenly; normalized to sum to `dims`. `mass_fraction = top_fraction`
/// reproduces the uniform (unweighted) case.
pub fn concentrated_weights(
    dims: usize,
    top_fraction: f64,
    mass_fraction: f64,
    seed: u64,
) -> Vec<f64> {
    assert!(dims > 0, "need at least one dimension");
    assert!(
        (0.0..=1.0).contains(&top_fraction) && (0.0..=1.0).contains(&mass_fraction),
        "fractions must be in [0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let top = ((dims as f64 * top_fraction).round() as usize).clamp(1, dims);
    let rest = dims - top;
    let total = dims as f64;
    let top_weight = total * mass_fraction / top as f64;
    let rest_weight = if rest == 0 { 0.0 } else { total * (1.0 - mass_fraction) / rest as f64 };
    let mut w = vec![rest_weight; dims];
    // choose which dimensions are the heavy ones at random
    let mut idx: Vec<usize> = (0..dims).collect();
    for i in (1..dims).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    for &d in idx.iter().take(top) {
        w[d] = top_weight;
    }
    w
}

/// The fraction of total weight carried by the heaviest `top_fraction` of
/// dimensions — the skew measure plotted on the x-axis of Figure 11.
pub fn weight_concentration(weights: &[f64], top_fraction: f64) -> f64 {
    if weights.is_empty() {
        return 0.0;
    }
    let mut sorted = weights.to_vec();
    sorted.sort_by(|&a, &b| descending_nan_last(a, b));
    let top = ((weights.len() as f64 * top_fraction).round() as usize).clamp(1, weights.len());
    let total: f64 = sorted.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    sorted.iter().take(top).sum::<f64>() / total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_weights_sum_to_dims_and_are_skewed() {
        let w = zipf_weights(128, 1.5, 7);
        assert_eq!(w.len(), 128);
        assert!((w.iter().sum::<f64>() - 128.0).abs() < 1e-9);
        assert!(weight_concentration(&w, 0.1) > 0.5);
        let uniform = zipf_weights(128, 0.0, 7);
        // top 10% of 128 dims rounds to 13 dims -> concentration 13/128
        assert!((weight_concentration(&uniform, 0.1) - 13.0 / 128.0).abs() < 1e-9);
    }

    #[test]
    fn concentrated_weights_hit_requested_concentration() {
        for mass in [0.1, 0.5, 0.9, 0.99] {
            let w = concentrated_weights(100, 0.1, mass, 3);
            assert!((w.iter().sum::<f64>() - 100.0).abs() < 1e-9);
            let c = weight_concentration(&w, 0.1);
            assert!((c - mass.max(0.1)).abs() < 0.02, "requested {mass}, got {c}");
        }
    }

    #[test]
    fn uniform_case_degenerates_gracefully() {
        let w = concentrated_weights(50, 0.1, 0.1, 1);
        let spread = w.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - w.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread < 1e-9, "equal mass and top fractions give uniform weights");
        // all-mass-on-top extreme: the rest must be exactly zero
        let w = concentrated_weights(50, 0.1, 1.0, 1);
        let zeros = w.iter().filter(|&&x| x == 0.0).count();
        assert_eq!(zeros, 45);
    }

    #[test]
    fn heavy_dimensions_are_randomized() {
        let a = concentrated_weights(64, 0.1, 0.9, 1);
        let b = concentrated_weights(64, 0.1, 0.9, 2);
        let heavy = |w: &[f64]| -> Vec<usize> {
            w.iter().enumerate().filter(|(_, &x)| x > 1.0).map(|(i, _)| i).collect()
        };
        assert_ne!(heavy(&a), heavy(&b), "different seeds place weight on different dims");
    }

    #[test]
    #[should_panic(expected = "fractions must be in")]
    fn invalid_fraction_panics() {
        let _ = concentrated_weights(10, 1.5, 0.5, 0);
    }

    #[test]
    fn weight_concentration_edge_cases() {
        assert_eq!(weight_concentration(&[], 0.1), 0.0);
        assert_eq!(weight_concentration(&[0.0, 0.0], 0.5), 0.0);
        assert!((weight_concentration(&[1.0, 1.0, 1.0, 1.0], 0.5) - 0.5).abs() < 1e-12);
    }
}
