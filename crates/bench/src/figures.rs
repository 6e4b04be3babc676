//! Regeneration of the pruning-efficiency figures (Figures 2 and 4–11).
//!
//! Every function runs the paper's workload for one figure and returns the
//! plotted series as data (candidates surviving vs. dimensions processed,
//! aggregated over the query set as best / average / worst), so the caller
//! can print, plot or assert on them.

use bond::{BlockSchedule, BondParams, BondSearcher, DimensionOrdering, PruneTrace};
use bond_baselines::VaFile;
use bond_metrics::{EqRule, HistogramIntersection, SquaredEuclidean};
use vdstore::{DatasetStats, DecomposedTable};

use crate::{workloads, ExperimentScale};

/// One plotted line: surviving candidates against processed dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct PruningSeries {
    /// Legend label ("Hq", "Ev, θ=0.5", ...).
    pub label: String,
    /// Collection size the series is relative to.
    pub total_rows: usize,
    /// X axis: dimensions processed.
    pub dims: Vec<usize>,
    /// Best case over the query set (fewest survivors).
    pub best: Vec<usize>,
    /// Average over the query set.
    pub avg: Vec<f64>,
    /// Worst case over the query set (most survivors).
    pub worst: Vec<usize>,
}

impl PruningSeries {
    /// Average surviving fraction after roughly `fraction` of the dimensions
    /// have been processed (used by the shape assertions in the tests).
    pub fn avg_survivors_at_fraction(&self, fraction: f64) -> f64 {
        if self.dims.is_empty() {
            return self.total_rows as f64;
        }
        let target = (*self.dims.last().unwrap() as f64 * fraction).round() as usize;
        let mut value = self.total_rows as f64;
        for (i, &d) in self.dims.iter().enumerate() {
            if d <= target {
                value = self.avg[i];
            }
        }
        value
    }

    /// Appends the best/avg/worst candidate count over `traces` after `dims`
    /// dimensions.
    pub fn push_sample(&mut self, traces: &[PruneTrace], dims: usize) {
        let counts: Vec<usize> =
            traces.iter().map(|t| t.candidates_after(dims, self.total_rows)).collect();
        self.dims.push(dims);
        self.best.push(counts.iter().copied().min().unwrap_or(self.total_rows));
        self.worst.push(counts.iter().copied().max().unwrap_or(self.total_rows));
        self.avg.push(counts.iter().sum::<usize>() as f64 / counts.len().max(1) as f64);
    }
}

/// Aggregates per-query traces into a best/avg/worst series sampled at every
/// `step` dimensions.
pub fn aggregate_traces(
    label: &str,
    traces: &[PruneTrace],
    total_rows: usize,
    total_dims: usize,
    step: usize,
) -> PruningSeries {
    let mut series = PruningSeries {
        label: label.to_string(),
        total_rows,
        dims: Vec::new(),
        best: Vec::new(),
        avg: Vec::new(),
        worst: Vec::new(),
    };
    for d in (step.max(1)..=total_dims).step_by(step.max(1)) {
        series.push_sample(traces, d);
    }
    series
}

/// The dataset statistics of Figure 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2 {
    /// Mean value per bin (upper plot).
    pub mean_per_bin: Vec<f64>,
    /// Mean sorted (decreasing) per-histogram value profile (lower plot).
    pub mean_sorted_profile: Vec<f64>,
    /// Fraction of a histogram's mass carried by its top 10 % of bins.
    pub mass_concentration_top10: f64,
}

/// Figure 2: statistics of the (Corel-like) histogram collection.
pub fn fig2(scale: ExperimentScale) -> Fig2 {
    let table = workloads::corel(scale);
    let stats = DatasetStats::compute(&table);
    Fig2 {
        mass_concentration_top10: stats.mass_concentration(0.1),
        mean_per_bin: stats.mean_per_dim,
        mean_sorted_profile: stats.mean_sorted_profile,
    }
}

fn default_params(m: usize) -> BondParams {
    BondParams {
        schedule: BlockSchedule::Fixed(m),
        ordering: DimensionOrdering::QueryValueDescending,
        ..BondParams::default()
    }
}

fn run_histogram(
    table: &DecomposedTable,
    queries: &[Vec<f64>],
    k: usize,
    params: &BondParams,
    use_hh: bool,
) -> Vec<PruneTrace> {
    let searcher = BondSearcher::new(table);
    let _ = searcher.row_sums();
    crate::par_map(queries, |q| {
        let outcome = if use_hh {
            searcher.histogram_intersection_hh(q, k, params)
        } else {
            searcher.histogram_intersection_hq(q, k, params)
        };
        outcome.expect("search succeeds").trace
    })
}

fn run_euclidean(
    table: &DecomposedTable,
    queries: &[Vec<f64>],
    k: usize,
    params: &BondParams,
    use_ev: bool,
) -> Vec<PruneTrace> {
    let searcher = BondSearcher::new(table);
    let _ = searcher.row_sums();
    crate::par_map(queries, |q| {
        let outcome = if use_ev {
            searcher.euclidean_ev(q, k, params)
        } else {
            searcher.euclidean_eq(q, k, params)
        };
        outcome.expect("search succeeds").trace
    })
}

/// Figure 4: pruning efficiency of Hq and Hh on the histogram collection
/// (k = 10, m = 8, dimensions in decreasing query order).
pub fn fig4(scale: ExperimentScale) -> Vec<PruningSeries> {
    let table = workloads::corel(scale);
    let queries = workloads::queries(&table, scale);
    let params = default_params(8);
    let hq = run_histogram(&table, &queries, 10, &params, false);
    let hh = run_histogram(&table, &queries, 10, &params, true);
    vec![
        aggregate_traces("Hq", &hq, table.rows(), table.dims(), 8),
        aggregate_traces("Hh", &hh, table.rows(), table.dims(), 8),
    ]
}

/// Figure 5: pruning efficiency of Eq and Ev on the same collection under
/// squared Euclidean distance.
pub fn fig5(scale: ExperimentScale) -> Vec<PruningSeries> {
    let table = workloads::corel(scale);
    let queries = workloads::queries(&table, scale);
    let params = default_params(8);
    let eq = run_euclidean(&table, &queries, 10, &params, false);
    let ev = run_euclidean(&table, &queries, 10, &params, true);
    vec![
        aggregate_traces("Eq", &eq, table.rows(), table.dims(), 8),
        aggregate_traces("Ev", &ev, table.rows(), table.dims(), 8),
    ]
}

/// Figure 6: effect of `k` on the pruning of Hq (k ∈ {1, 10, 100, 1000}).
pub fn fig6(scale: ExperimentScale) -> Vec<PruningSeries> {
    let table = workloads::corel(scale);
    let queries = workloads::queries(&table, scale);
    let params = default_params(8);
    let max_k = table.rows();
    [1usize, 10, 100, 1000]
        .iter()
        .filter(|&&k| k <= max_k)
        .map(|&k| {
            let traces = run_histogram(&table, &queries, k, &params, false);
            aggregate_traces(&format!("k={k}"), &traces, table.rows(), table.dims(), 8)
        })
        .collect()
}

/// Figure 7: effect of the dimension ordering on Hq (decreasing query value,
/// random, increasing query value).
pub fn fig7(scale: ExperimentScale) -> Vec<PruningSeries> {
    let table = workloads::corel(scale);
    let queries = workloads::queries(&table, scale);
    let orderings = [
        ("descending q", DimensionOrdering::QueryValueDescending),
        ("random", DimensionOrdering::Random { seed: 17 }),
        ("ascending q", DimensionOrdering::QueryValueAscending),
    ];
    orderings
        .into_iter()
        .map(|(label, ordering)| {
            let params =
                BondParams { schedule: BlockSchedule::Fixed(8), ordering, ..BondParams::default() };
            let traces = run_histogram(&table, &queries, 10, &params, false);
            aggregate_traces(label, &traces, table.rows(), table.dims(), 8)
        })
        .collect()
}

/// Figure 8: impact of dimensionality on Ev (26-, 52-, 166- and
/// 260-dimensional histogram collections).
pub fn fig8(scale: ExperimentScale) -> Vec<PruningSeries> {
    [26usize, 52, 166, 260]
        .iter()
        .map(|&dims| {
            let table = workloads::corel_with_dims(scale, dims);
            let queries = workloads::queries(&table, scale);
            let params = default_params((dims / 20).max(2));
            let traces = run_euclidean(&table, &queries, 10, &params, true);
            aggregate_traces(
                &format!("{dims} dims"),
                &traces,
                table.rows(),
                dims,
                (dims / 20).max(2),
            )
        })
        .collect()
}

/// Figure 9: Hq pruning on exact vs. 8-bit-quantized fragments. The codes
/// series is the engine's code sweep ([`crate::hq_on_codes`]), whose steps
/// back off while they remove nothing and whose κ is proven only by its
/// probes, after the first and the last block — so the curve drops there
/// and the steps in between remove only what the first κ reaches. Both
/// series are read every 8 dimensions and once more at the last dimension,
/// where the sweep's last block, and its second probe, end.
pub fn fig9(scale: ExperimentScale) -> Vec<PruningSeries> {
    let table = workloads::corel(scale);
    let queries = workloads::queries(&table, scale);
    let params = default_params(8);
    let exact = run_histogram(&table, &queries, 10, &params, false);
    let vafile = VaFile::build(&table, 8).expect("quantization succeeds");
    let live = table.live_bitmap();
    let on_codes: Vec<PruneTrace> = queries
        .iter()
        .map(|q| crate::hq_on_codes(vafile.codes(), &live, q, 10).expect("filter succeeds").1)
        .collect();
    let (rows, dims) = (table.rows(), table.dims());
    let mut series = vec![
        aggregate_traces("Hq exact", &exact, rows, dims, 8),
        aggregate_traces("Hq 8-bit codes", &on_codes, rows, dims, 8),
    ];
    if dims % 8 != 0 {
        for (s, traces) in series.iter_mut().zip([&exact, &on_codes]) {
            s.push_sample(traces, dims);
        }
    }
    series
}

/// Figure 10: effect of the cluster-center skew θ on Ev over the clustered
/// datasets of Section 7.5.
pub fn fig10(scale: ExperimentScale) -> Vec<PruningSeries> {
    [0.0f64, 0.5, 1.0, 2.0]
        .iter()
        .map(|&theta| {
            let table = workloads::clustered(scale, theta);
            let queries = workloads::queries(&table, scale);
            let params = default_params(8);
            let traces = run_euclidean(&table, &queries, 10, &params, true);
            aggregate_traces(&format!("theta={theta}"), &traces, table.rows(), table.dims(), 8)
        })
        .collect()
}

/// Figure 11: effect of the weight skew on weighted Euclidean search over
/// the θ = 0 clustered dataset. The series are labeled by the fraction of
/// total weight carried by the top 10 % of dimensions.
pub fn fig11(scale: ExperimentScale) -> Vec<PruningSeries> {
    let table = workloads::clustered(scale, 0.0);
    let queries = workloads::queries(&table, scale);
    let searcher = BondSearcher::new(&table);
    [0.1f64, 0.5, 0.75, 0.9, 0.99]
        .iter()
        .map(|&mass| {
            let weights = bond_datagen::concentrated_weights(table.dims(), 0.1, mass, 0x000F_1611);
            let params = default_params(8);
            let traces: Vec<PruneTrace> = crate::par_map(&queries, |q| {
                searcher
                    .weighted_euclidean(q, &weights, 10, &params)
                    .expect("search succeeds")
                    .trace
            });
            aggregate_traces(
                &format!("{:.0}% of weight on top 10% dims", mass * 100.0),
                &traces,
                table.rows(),
                table.dims(),
                8,
            )
        })
        .collect()
}

/// The paper's headline statistic (Section 7.1): the average number of
/// dimensions after which the candidate set first contained only the top-k
/// images, and the average fraction of images discarded after one fifth of
/// the dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadlineStats {
    /// Average fraction of the collection pruned after 20 % of the dims.
    pub pruned_after_fifth: f64,
    /// Average number of dimensions needed to isolate the top k.
    pub avg_dims_to_top_k: f64,
}

/// Computes the headline statistics for Hq on the histogram workload.
pub fn headline(scale: ExperimentScale) -> HeadlineStats {
    let table = workloads::corel(scale);
    let queries = workloads::queries(&table, scale);
    let params = default_params(8);
    let traces = run_histogram(&table, &queries, 10, &params, false);
    let rows = table.rows() as f64;
    let fifth = (table.dims() as f64 * 0.2).round() as usize;
    let pruned_after_fifth = traces
        .iter()
        .map(|t| 1.0 - t.candidates_after(fifth, table.rows()) as f64 / rows)
        .sum::<f64>()
        / traces.len() as f64;
    let avg_dims_to_top_k =
        traces.iter().map(|t| t.dims_to_reach(10).unwrap_or(table.dims()) as f64).sum::<f64>()
            / traces.len() as f64;
    HeadlineStats { pruned_after_fifth, avg_dims_to_top_k }
}

/// Sanity checks on the figure series used by both the experiments binary
/// and the integration tests: the qualitative claims of the paper that must
/// hold at any scale.
pub fn check_shapes(scale: ExperimentScale) -> Vec<(String, bool)> {
    let mut checks = Vec::new();
    let f4 = fig4(scale);
    let hq_late = f4[0].avg_survivors_at_fraction(0.5) / f4[0].total_rows as f64;
    checks.push((
        "fig4: Hq discards most of the collection by half of the dimensions".to_string(),
        hq_late < 0.1,
    ));
    let hh_fifth = f4[1].avg_survivors_at_fraction(0.2);
    let hq_fifth = f4[0].avg_survivors_at_fraction(0.2);
    checks
        .push(("fig4: Hh prunes at least as well as Hq".to_string(), hh_fifth <= hq_fifth * 1.05));

    let f5 = fig5(scale);
    let eq_late = f5[0].avg_survivors_at_fraction(0.8) / f5[0].total_rows as f64;
    let ev_late = f5[1].avg_survivors_at_fraction(0.8) / f5[1].total_rows as f64;
    checks.push(("fig5: Eq prunes hardly anything".to_string(), eq_late > 0.9));
    checks.push(("fig5: Ev prunes far more than Eq".to_string(), ev_late < eq_late * 0.5));

    let f7 = fig7(scale);
    let desc = f7[0].avg_survivors_at_fraction(0.3);
    let asc = f7[2].avg_survivors_at_fraction(0.3);
    checks.push((
        "fig7: descending-q ordering prunes earlier than ascending-q".to_string(),
        desc < asc,
    ));

    let f10 = fig10(scale);
    let uniform = f10[0].avg_survivors_at_fraction(0.5) / f10[0].total_rows as f64;
    let skewed =
        f10.last().unwrap().avg_survivors_at_fraction(0.5) / f10.last().unwrap().total_rows as f64;
    checks.push(("fig10: data skew favours pruning".to_string(), skewed < uniform));

    let f11 = fig11(scale);
    let uniform_w = f11[0].avg_survivors_at_fraction(0.5);
    let skewed_w = f11.last().unwrap().avg_survivors_at_fraction(0.5);
    checks.push((
        "fig11: strongly skewed weights prune better than uniform weights".to_string(),
        skewed_w < uniform_w,
    ));
    checks
}

/// Ensures the Eq rule exists in the public API (it is exercised in fig5);
/// kept as a compile-time anchor for the re-export.
#[allow(dead_code)]
fn _anchor() {
    let _ = EqRule::new();
    let _ = HistogramIntersection;
    let _ = SquaredEuclidean;
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCALE: ExperimentScale = ExperimentScale::Small;

    #[test]
    fn fig2_statistics_are_skewed_and_normalized() {
        let f = fig2(SCALE);
        assert_eq!(f.mean_per_bin.len(), 166);
        assert!(f.mass_concentration_top10 > 0.5);
        // profile is non-increasing
        for w in f.mean_sorted_profile.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn fig4_prunes_fast_on_histogram_data() {
        let series = fig4(SCALE);
        assert_eq!(series.len(), 2);
        let hq = &series[0];
        // "more than 98% of the images are discarded after on average just
        // 1/5 of the dimensions" — allow a margin at the small test scale.
        let surviving = hq.avg_survivors_at_fraction(0.2) / hq.total_rows as f64;
        assert!(surviving < 0.15, "Hq leaves {surviving:.2} of the collection after 1/5 of dims");
        // best <= avg <= worst everywhere
        for i in 0..hq.dims.len() {
            assert!(hq.best[i] as f64 <= hq.avg[i] + 1e-9);
            assert!(hq.avg[i] <= hq.worst[i] as f64 + 1e-9);
        }
    }

    #[test]
    fn fig6_larger_k_prunes_later() {
        let series = fig6(SCALE);
        assert!(series.len() >= 3);
        let k1 = series[0].avg_survivors_at_fraction(0.3);
        let k100 = series[2].avg_survivors_at_fraction(0.3);
        assert!(k1 <= k100 * 1.2 + 5.0, "k=1 ({k1}) should not prune worse than k=100 ({k100})");
    }

    #[test]
    fn fig9_compressed_follows_exact_trend() {
        let series = fig9(SCALE);
        assert_eq!(series.len(), 2);
        let exact = series[0].avg_survivors_at_fraction(0.5);
        let codes = series[1].avg_survivors_at_fraction(0.5);
        // quantization slack can only leave more candidates, but the trend
        // must be similar (within the same order of magnitude)
        assert!(codes + 1.0 >= exact);
        assert!(codes < series[1].total_rows as f64 * 0.2);
    }

    #[test]
    fn qualitative_shape_checks_pass_at_small_scale() {
        for (name, ok) in check_shapes(SCALE) {
            assert!(ok, "shape check failed: {name}");
        }
    }

    #[test]
    fn headline_statistics() {
        let h = headline(SCALE);
        assert!(h.pruned_after_fifth > 0.85, "pruned {:.3} after 1/5 dims", h.pruned_after_fifth);
        assert!(h.avg_dims_to_top_k <= 166.0);
    }
}
