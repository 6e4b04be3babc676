//! Dataset statistics.
//!
//! Figure 2 of the paper plots, for the Corel HSV histogram collection,
//! (a) the mean value of each bin and (b) the average distribution of values
//! within a histogram when sorted in decreasing order — showing a Zipfian
//! shape. These statistics justify the "decreasing value in q" dimension
//! ordering heuristic of Section 5.1. This module computes them, plus the
//! per-column summary statistics the ordering strategies can use.

use serde::{Deserialize, Serialize};

use crate::column::Column;
use crate::table::DecomposedTable;
use crate::topk::descending_nan_last;

/// Summary statistics of one dimensional fragment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnStats {
    /// Column name.
    pub name: String,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population variance.
    pub variance: f64,
    /// Skewness (third standardized moment, 0 for symmetric data).
    pub skewness: f64,
}

impl ColumnStats {
    /// Computes the statistics of a column. Returns `None` for an empty
    /// column.
    pub fn compute(column: &Column) -> Option<Self> {
        Self::compute_slice(column.name(), column.values())
    }

    /// Computes the statistics of a raw value slice (e.g. a segment's view
    /// of a column). Returns `None` for an empty slice.
    pub fn compute_slice(name: &str, values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let mut m2 = 0.0;
        let mut m3 = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in values {
            let d = v - mean;
            m2 += d * d;
            m3 += d * d * d;
            min = min.min(v);
            max = max.max(v);
        }
        let variance = m2 / n;
        let skewness = if variance > 0.0 { (m3 / n) / variance.powf(1.5) } else { 0.0 };
        Some(ColumnStats { name: name.to_string(), min, max, mean, variance, skewness })
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }
}

/// Collection-level statistics of a decomposed table (Figure 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Mean value per dimension (bin), in dimension order — the upper plot
    /// of Figure 2.
    pub mean_per_dim: Vec<f64>,
    /// Average sorted (decreasing) value distribution within a vector — the
    /// lower plot of Figure 2. Entry `j` is the mean of the `(j+1)`-th
    /// largest coefficient over all vectors.
    pub mean_sorted_profile: Vec<f64>,
    /// Per-dimension summary statistics.
    pub per_column: Vec<ColumnStats>,
    /// Mean of the per-row sums `T(x)` (≈ 1 for normalized histograms).
    pub mean_row_sum: f64,
}

impl DatasetStats {
    /// Computes the statistics of a table.
    pub fn compute(table: &DecomposedTable) -> Self {
        let dims = table.dims();
        let rows = table.rows();
        let per_column: Vec<ColumnStats> = table
            .columns()
            .iter()
            .map(|c| ColumnStats::compute(c).expect("table columns are non-empty"))
            .collect();
        let mean_per_dim = per_column.iter().map(|s| s.mean).collect();

        let mut profile = vec![0.0; dims];
        let mut sum_of_sums = 0.0;
        for r in 0..rows {
            let mut row = table.row(r as u32).expect("row in range");
            sum_of_sums += row.iter().sum::<f64>();
            row.sort_by(|&a, &b| descending_nan_last(a, b));
            for (p, v) in profile.iter_mut().zip(row) {
                *p += v;
            }
        }
        let n = rows.max(1) as f64;
        for p in &mut profile {
            *p /= n;
        }
        DatasetStats {
            mean_per_dim,
            mean_sorted_profile: profile,
            per_column,
            mean_row_sum: sum_of_sums / n,
        }
    }

    /// A crude measure of how Zipfian the average per-vector value profile
    /// is: the fraction of a vector's total mass carried by the top
    /// `top_fraction` of its dimensions. Skewed (Zipfian) data yields values
    /// close to 1; uniform data yields ≈ `top_fraction`.
    pub fn mass_concentration(&self, top_fraction: f64) -> f64 {
        let dims = self.mean_sorted_profile.len();
        if dims == 0 {
            return 0.0;
        }
        let top = ((dims as f64 * top_fraction).ceil() as usize).clamp(1, dims);
        let total: f64 = self.mean_sorted_profile.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.mean_sorted_profile.iter().take(top).sum::<f64>() / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::DecomposedTable;

    #[test]
    fn column_stats_basics() {
        let c = Column::new("x", vec![1.0, 2.0, 3.0, 4.0]);
        let s = ColumnStats::compute(&c).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.variance - 1.25).abs() < 1e-12);
        assert!((s.std_dev() - 1.25f64.sqrt()).abs() < 1e-12);
        assert!(s.skewness.abs() < 1e-9, "symmetric data has ~0 skewness");
        assert!(ColumnStats::compute(&Column::default()).is_none());
    }

    #[test]
    fn skewness_sign() {
        // right-skewed data: many small, one large
        let c = Column::new("x", vec![0.0, 0.0, 0.0, 0.0, 10.0]);
        let s = ColumnStats::compute(&c).unwrap();
        assert!(s.skewness > 0.5);
        // constant column
        let c = Column::new("x", vec![2.0, 2.0]);
        assert_eq!(ColumnStats::compute(&c).unwrap().skewness, 0.0);
    }

    #[test]
    fn dataset_stats_profile_is_sorted_mean() {
        let t = DecomposedTable::from_vectors("h", &[vec![0.7, 0.2, 0.1], vec![0.1, 0.6, 0.3]])
            .unwrap();
        let s = DatasetStats::compute(&t);
        assert_eq!(s.mean_per_dim.len(), 3);
        assert!((s.mean_per_dim[0] - 0.4).abs() < 1e-12);
        // sorted profiles: [0.7,0.2,0.1] and [0.6,0.3,0.1] -> mean [0.65,0.25,0.1]
        assert!((s.mean_sorted_profile[0] - 0.65).abs() < 1e-12);
        assert!((s.mean_sorted_profile[1] - 0.25).abs() < 1e-12);
        assert!((s.mean_sorted_profile[2] - 0.1).abs() < 1e-12);
        assert!((s.mean_row_sum - 1.0).abs() < 1e-12);
        // profile is non-increasing
        for w in s.mean_sorted_profile.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn mass_concentration_detects_skew() {
        let skewed = DecomposedTable::from_vectors(
            "s",
            &[vec![0.9, 0.05, 0.03, 0.02], vec![0.85, 0.1, 0.03, 0.02]],
        )
        .unwrap();
        let uniform = DecomposedTable::from_vectors("u", &[vec![0.25; 4], vec![0.25; 4]]).unwrap();
        let cs = DatasetStats::compute(&skewed).mass_concentration(0.25);
        let cu = DatasetStats::compute(&uniform).mass_concentration(0.25);
        assert!(cs > 0.8);
        assert!((cu - 0.25).abs() < 1e-9);
    }
}
