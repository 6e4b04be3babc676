//! Plain-text rendering of experiment results for the `experiments` binary.

use crate::ablation::AblationPoint;
use crate::figures::{Fig2, PruningSeries};
use crate::multifeature::MultiFeatureComparison;
use crate::tables::{Table2Row, Table4, TimingRow};

/// Renders a set of pruning series as an aligned text table: one row per
/// sampled dimension count, one column group (best/avg/worst) per series.
pub fn render_series(title: &str, series: &[PruningSeries]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    if series.is_empty() {
        out.push_str("(no data)\n");
        return out;
    }
    out.push_str(&format!("collection size: {} vectors\n", series[0].total_rows));
    out.push_str(&format!("{:>6}", "dims"));
    for s in series {
        out.push_str(&format!(" | {:>28}", s.label));
    }
    out.push('\n');
    out.push_str(&format!("{:>6}", ""));
    for _ in series {
        out.push_str(&format!(" | {:>8} {:>9} {:>9}", "best", "avg", "worst"));
    }
    out.push('\n');
    let max_len = series.iter().map(|s| s.dims.len()).max().unwrap_or(0);
    for i in 0..max_len {
        let dims = series.iter().find_map(|s| s.dims.get(i)).copied().unwrap_or_default();
        out.push_str(&format!("{dims:>6}"));
        for s in series {
            if i < s.dims.len() {
                out.push_str(&format!(" | {:>8} {:>9.1} {:>9}", s.best[i], s.avg[i], s.worst[i]));
            } else {
                out.push_str(&format!(" | {:>8} {:>9} {:>9}", "-", "-", "-"));
            }
        }
        out.push('\n');
    }
    out
}

/// Renders the Figure 2 statistics (sampled, to keep the output readable).
pub fn render_fig2(fig: &Fig2) -> String {
    let mut out = String::new();
    out.push_str("== Figure 2: dataset statistics ==\n");
    out.push_str(&format!(
        "mass carried by the top 10% of bins of an average histogram: {:.1}%\n",
        fig.mass_concentration_top10 * 100.0
    ));
    out.push_str("mean value per bin (every 10th bin):\n  ");
    for (i, v) in fig.mean_per_bin.iter().enumerate().step_by(10) {
        out.push_str(&format!("[{i}]={v:.4} "));
    }
    out.push_str("\nmean sorted per-histogram profile (first 20 ranks):\n  ");
    for (i, v) in fig.mean_sorted_profile.iter().take(20).enumerate() {
        out.push_str(&format!("#{}={:.4} ", i + 1, v));
    }
    out.push('\n');
    out
}

/// Renders the worked example of Table 2.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str("== Table 2: worked example (q = <0.7, 0.15, 0.1, 0.05>, k = 3, m = 2) ==\n");
    out.push_str(&format!(
        "{:<4} {:<28} {:>6} {:>6} {:>6} {:>6}  {:<10} {:<10}\n",
        "h", "histogram", "S-", "Smin", "Smax", "S", "Hq prunes", "Hh prunes"
    ));
    for r in rows {
        let hist = r.histogram.iter().map(|v| format!("{v:.3}")).collect::<Vec<_>>().join(", ");
        out.push_str(&format!(
            "{:<4} <{hist:<26}> {:>6.3} {:>6.3} {:>6.3} {:>6.3}  {:<10} {:<10}\n",
            r.name,
            r.s_minus,
            r.s_min,
            r.s_max,
            r.s_full,
            if r.pruned_by_hq { "yes" } else { "" },
            if r.pruned_by_hh { "yes" } else { "" },
        ));
    }
    out
}

/// Renders a response-time table (Tables 3).
pub fn render_timing(title: &str, rows: &[TimingRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} (times in ms) ==\n"));
    out.push_str(&format!(
        "{:<42} {:>9} {:>9} {:>9} {:>9}\n",
        "method", "min", "max", "avg", "median"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<42} {:>9.3} {:>9.3} {:>9.3} {:>9.3}\n",
            r.method, r.stats.min_ms, r.stats.max_ms, r.stats.avg_ms, r.stats.median_ms
        ));
    }
    out
}

/// Renders Table 4 (timings plus candidate counts).
pub fn render_table4(table: &Table4) -> String {
    let mut out = render_timing("Table 4: filtering on 8-bit approximations", &table.rows);
    out.push_str(&format!(
        "avg candidates after BOND filter:    {:.1}\n",
        table.avg_candidates_bond
    ));
    out.push_str(&format!(
        "avg candidates after VA-File filter: {:.1}\n",
        table.avg_candidates_vafile
    ));
    out
}

/// Renders the Section 8.2 comparison.
pub fn render_multifeature(results: &[MultiFeatureComparison]) -> String {
    let mut out = String::new();
    let flag = |ok: bool| if ok { "yes" } else { "NO" };
    out.push_str("== Section 8.2: synchronized BOND vs. stream merging ==\n");
    out.push_str(&format!(
        "{:<10} {:>16} {:>10} {:>16} {:>10} {:>14} {:>8} {:>14}\n",
        "aggregate",
        "synchronized ms",
        "engine ms",
        "stream-merge ms",
        "speedup",
        "stream depth",
        "agree",
        "engine agrees"
    ));
    for r in results {
        let speedup =
            if r.synchronized_ms > 0.0 { r.stream_merge_ms / r.synchronized_ms } else { f64::NAN };
        out.push_str(&format!(
            "{:<10} {:>16.3} {:>10.3} {:>16.3} {:>9.2}x {:>14} {:>8} {:>14}\n",
            r.aggregate,
            r.synchronized_ms,
            r.engine_ms,
            r.stream_merge_ms,
            speedup,
            r.optimal_stream_depth,
            flag(r.results_agree),
            flag(r.engine_agrees)
        ));
    }
    out
}

/// Renders an ablation sweep.
pub fn render_ablation(title: &str, points: &[AblationPoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!(
        "{:<30} {:>12} {:>22}\n",
        "configuration", "avg ms", "avg contributions"
    ));
    for p in points {
        out.push_str(&format!(
            "{:<30} {:>12.3} {:>22.0}\n",
            p.configuration, p.avg_ms, p.avg_contributions
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::PruningSeries;
    use crate::tables::{TimingRow, TimingStats};

    #[test]
    fn series_rendering_contains_labels_and_values() {
        let s = PruningSeries {
            label: "Hq".to_string(),
            total_rows: 100,
            dims: vec![8, 16],
            best: vec![50, 10],
            avg: vec![60.0, 12.5],
            worst: vec![80, 20],
        };
        let text = render_series("Figure 4", &[s]);
        assert!(text.contains("Figure 4"));
        assert!(text.contains("Hq"));
        assert!(text.contains("12.5"));
        assert!(render_series("Empty", &[]).contains("(no data)"));
    }

    #[test]
    fn timing_rendering() {
        let rows = vec![TimingRow {
            method: "Hq".to_string(),
            stats: TimingStats { min_ms: 1.0, max_ms: 3.0, avg_ms: 2.0, median_ms: 2.0 },
        }];
        let text = render_timing("Table 3", &rows);
        assert!(text.contains("Table 3"));
        assert!(text.contains("Hq"));
        assert!(text.contains("2.000"));
    }

    #[test]
    fn table2_rendering_marks_pruned_rows() {
        let rows = crate::tables::table2();
        let text = render_table2(&rows);
        assert!(text.contains("h3"));
        assert!(text.contains("yes"));
    }

    #[test]
    fn ablation_and_multifeature_rendering() {
        let text = render_ablation(
            "m sweep",
            &[AblationPoint {
                configuration: "m = 8".to_string(),
                avg_ms: 1.5,
                avg_contributions: 1234.0,
            }],
        );
        assert!(text.contains("m = 8"));
        let text = render_multifeature(&[MultiFeatureComparison {
            aggregate: "average".to_string(),
            synchronized_ms: 1.0,
            engine_ms: 0.8,
            stream_merge_ms: 1.5,
            optimal_stream_depth: 40,
            results_agree: true,
            engine_agrees: false,
        }]);
        assert!(text.contains("1.50x"));
        assert!(text.contains("engine ms") && text.contains("0.800"));
        let row: Vec<&str> = text.lines().last().unwrap().split_whitespace().collect();
        assert_eq!(row[row.len() - 2..], ["yes", "NO"]);
    }
}
