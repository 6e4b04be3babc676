//! Low-level random samplers.
//!
//! Only the `rand` crate is available offline, and it does not ship the
//! Gaussian or Zipf distributions, so the two samplers the paper's data
//! generators need are implemented here: a Box–Muller Gaussian and a
//! rank-based Zipf.

use rand::Rng;
use vdstore::descending_nan_last;

/// Draws a sample from a normal distribution with the given mean and
/// standard deviation using the Box–Muller transform.
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    // Avoid ln(0) by sampling u1 from (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    let mag = (-2.0 * u1.ln()).sqrt();
    mean + std_dev * mag * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The unnormalized Zipf mass of rank `i` (1-based) with exponent `theta`:
/// `1 / i^theta`.
#[inline]
pub fn zipf_mass(rank: usize, theta: f64) -> f64 {
    1.0 / (rank as f64).powf(theta)
}

/// Normalized Zipf probabilities over `n` ranks with exponent `theta`.
/// `theta = 0` yields the uniform distribution.
pub fn zipf_probabilities(n: usize, theta: f64) -> Vec<f64> {
    assert!(n > 0, "need at least one rank");
    assert!(theta >= 0.0, "theta must be non-negative");
    let mut p: Vec<f64> = (1..=n).map(|i| zipf_mass(i, theta)).collect();
    let total: f64 = p.iter().sum();
    for x in &mut p {
        *x /= total;
    }
    p
}

/// Samples an index in `0..probabilities.len()` according to the given
/// (normalized) probabilities.
pub fn sample_discrete<R: Rng + ?Sized>(rng: &mut R, probabilities: &[f64]) -> usize {
    let target: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, &p) in probabilities.iter().enumerate() {
        acc += p;
        if target < acc {
            return i;
        }
    }
    probabilities.len() - 1
}

/// Samples a coordinate in `[0, 1]` whose distribution is uniform for
/// `theta = 0` and increasingly skewed towards 0 for larger `theta`
/// (a continuous stand-in for the paper's "cluster-center coordinates follow
/// a Zipfian distribution with skew parameter θ").
pub fn skewed_coordinate<R: Rng + ?Sized>(rng: &mut R, theta: f64) -> f64 {
    let u: f64 = rng.gen();
    u.powf(1.0 + theta)
}

/// Samples `k` distinct indices from `0..n` with probability proportional to
/// `attractiveness` (weighted sampling without replacement).
pub fn weighted_sample_without_replacement<R: Rng + ?Sized>(
    rng: &mut R,
    attractiveness: &[f64],
    k: usize,
) -> Vec<usize> {
    let n = attractiveness.len();
    let k = k.min(n);
    // Efraimidis–Spirakis: key = u^(1/w); take the k largest keys.
    let mut keyed: Vec<(f64, usize)> = attractiveness
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let key = if w > 0.0 { u.powf(1.0 / w) } else { 0.0 };
            (key, i)
        })
        .collect();
    keyed.sort_by(|a, b| descending_nan_last(a.0, b.0));
    keyed.into_iter().take(k).map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_has_right_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng, 2.0, 0.5)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.02, "mean {mean}");
        assert!((var - 0.25).abs() < 0.02, "variance {var}");
    }

    #[test]
    fn zipf_probabilities_are_normalized_and_skewed() {
        let p = zipf_probabilities(100, 1.0);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[0] > p[1] && p[1] > p[50]);
        let uniform = zipf_probabilities(10, 0.0);
        for &x in &uniform {
            assert!((x - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "need at least one rank")]
    fn zipf_rejects_empty() {
        let _ = zipf_probabilities(0, 1.0);
    }

    #[test]
    fn sample_discrete_respects_probabilities() {
        let mut rng = StdRng::seed_from_u64(11);
        let p = vec![0.7, 0.2, 0.1];
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[sample_discrete(&mut rng, &p)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[2]);
        assert!((counts[0] as f64 / 30_000.0 - 0.7).abs() < 0.02);
    }

    #[test]
    fn skewed_coordinate_is_uniform_at_zero_theta() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let mean0: f64 = (0..n).map(|_| skewed_coordinate(&mut rng, 0.0)).sum::<f64>() / n as f64;
        let mean2: f64 = (0..n).map(|_| skewed_coordinate(&mut rng, 2.0)).sum::<f64>() / n as f64;
        assert!((mean0 - 0.5).abs() < 0.02);
        assert!(mean2 < 0.3, "theta=2 should push mass toward 0, mean {mean2}");
    }

    #[test]
    fn weighted_sampling_prefers_heavy_items_and_is_distinct() {
        let mut rng = StdRng::seed_from_u64(5);
        let attractiveness = vec![10.0, 1.0, 1.0, 1.0, 0.0];
        let mut first_counts = 0;
        for _ in 0..2000 {
            let s = weighted_sample_without_replacement(&mut rng, &attractiveness, 3);
            assert_eq!(s.len(), 3);
            let mut dedup = s.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "samples must be distinct");
            assert!(!s.contains(&4), "zero-weight item must never be sampled");
            if s.contains(&0) {
                first_counts += 1;
            }
        }
        assert!(first_counts > 1900, "heavy item sampled in {first_counts}/2000 draws");
        // requesting more than available clamps
        let s = weighted_sample_without_replacement(&mut rng, &[1.0, 1.0], 5);
        assert_eq!(s.len(), 2);
    }
}
