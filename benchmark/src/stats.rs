//! Robust statistics of the harness: medians, pooled percentiles, the
//! quartile spread the acceptance check uses, and the slice-rejection rule.

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-th percentile (0 ..= 100) of an ascending-sorted slice, linearly
/// interpolated between the two nearest ranks. `NaN` for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the default "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        // position i·(n+1)/4 on a 1-based scale, clamped into the data
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Distance between the first and third quartile as a share of the median —
/// the spread the acceptance check compares against a metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// What the harness knows about one measured slice when deciding whether
/// its numbers count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceHealth {
    /// Seconds per reference scan in this slice's reference block.
    pub ref_s: f64,
    /// `/proc/stat` steal during the slice as a share of wall × nproc.
    pub steal_share: f64,
}

/// Why a slice was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The hypervisor ran someone else for more than [`MAX_STEAL_SHARE`].
    Steal,
    /// The reference block ran more than [`MAX_REF_DEVIATION`] off the run's
    /// median reference block: the machine changed speed inside the run.
    RefDeviation,
}

/// A slice is dropped when steal exceeds this share of its wall × nproc.
pub const MAX_STEAL_SHARE: f64 = 0.02;
/// A slice is dropped when its `ref_s` is further than this from the run's
/// median `ref_s`, relatively.
pub const MAX_REF_DEVIATION: f64 = 0.15;
/// Never keep fewer slices than this (or all of them, when the run has
/// fewer): the slices closest to the median reference speed are re-admitted.
pub const MIN_KEPT_SLICES: usize = 8;

/// Applies the rejection rule. Returns, per slice, `None` when the slice is
/// kept and the reason when it is dropped.
pub fn judge_slices(slices: &[SliceHealth]) -> Vec<Option<DropReason>> {
    let ref_median = median(&slices.iter().map(|s| s.ref_s).collect::<Vec<_>>());
    let deviation = |s: &SliceHealth| (s.ref_s / ref_median - 1.0).abs();
    let mut verdicts: Vec<Option<DropReason>> = slices
        .iter()
        .map(|s| {
            if s.steal_share > MAX_STEAL_SHARE {
                Some(DropReason::Steal)
            } else if deviation(s) > MAX_REF_DEVIATION {
                Some(DropReason::RefDeviation)
            } else {
                None
            }
        })
        .collect();
    let floor = MIN_KEPT_SLICES.min(slices.len());
    let mut kept = verdicts.iter().filter(|v| v.is_none()).count();
    if kept < floor {
        let mut dropped: Vec<usize> =
            (0..slices.len()).filter(|&i| verdicts[i].is_some()).collect();
        dropped.sort_by(|&a, &b| deviation(&slices[a]).total_cmp(&deviation(&slices[b])));
        for i in dropped {
            if kept == floor {
                break;
            }
            verdicts[i] = None;
            kept += 1;
        }
    }
    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 50.0), 6.0);
        assert_eq!(percentile_sorted(&v, 90.0), 10.0);
        assert_eq!(percentile_sorted(&v, 95.0), 10.5);
        assert_eq!(percentile_sorted(&v, 100.0), 11.0);
        assert!(percentile_sorted(&[], 50.0).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }

    fn healthy(n: usize) -> Vec<SliceHealth> {
        (0..n).map(|i| SliceHealth { ref_s: 1.0 + i as f64 * 1e-3, steal_share: 0.0 }).collect()
    }

    #[test]
    fn healthy_slices_are_all_kept() {
        assert!(judge_slices(&healthy(12)).iter().all(Option::is_none));
    }

    #[test]
    fn stolen_and_deviating_slices_are_dropped_with_their_reason() {
        let mut s = healthy(12);
        s[3].steal_share = 0.05;
        s[7].ref_s = 1.3;
        let v = judge_slices(&s);
        assert_eq!(v[3], Some(DropReason::Steal));
        assert_eq!(v[7], Some(DropReason::RefDeviation));
        assert_eq!(v.iter().filter(|x| x.is_none()).count(), 10);
    }

    #[test]
    fn the_eight_slices_nearest_the_median_speed_survive_a_bad_run() {
        let mut s = healthy(12);
        for (i, slice) in s.iter_mut().enumerate().take(6) {
            slice.steal_share = 0.5;
            slice.ref_s = 1.0 + i as f64; // slice 0 is the closest of the bad ones
        }
        let v = judge_slices(&s);
        assert_eq!(v.iter().filter(|x| x.is_none()).count(), MIN_KEPT_SLICES);
        assert!(v[0].is_none() && v[1].is_none(), "closest bad slices re-admitted first");
        assert!(v[5].is_some());
        // a short run keeps everything it has
        let short = judge_slices(&s[..4]);
        assert!(short.iter().all(Option::is_none));
    }
}
