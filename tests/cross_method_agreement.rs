//! Cross-crate integration test: on a realistic generated workload, every
//! search method in the repository — BOND with each criterion, BOND on
//! 8-bit codes (the code sweep, then the exact refine), the VA-File, the
//! sequential scans and the relational-algebra plan — must return the same
//! top-k answers.

use bond::SegmentContext;
use bond::{search_segment, BlockSchedule, BondParams, BondSearcher, DimensionOrdering};
use bond_baselines::{sequential_scan, sequential_scan_early_abandon, VaFile};
use bond_datagen::{sample_queries, CorelLikeConfig};
use bond_metrics::{HistogramIntersection, HqRule, SquaredEuclidean};
use bond_relalg::BondHqProgram;

fn sorted_scores(scores: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = scores.into_iter().collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v
}

fn assert_scores_match(label: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{label}: result sizes differ");
    for (x, y) in a.iter().zip(b) {
        assert!((x - y).abs() < 1e-9, "{label}: {x} vs {y}");
    }
}

#[test]
fn all_methods_agree_on_corel_like_workload() {
    let table = CorelLikeConfig::small(1_500, 48).generate();
    let matrix = table.to_row_matrix();
    let vafile = VaFile::build(&table, 8).unwrap();
    let segment = table.segment(0..table.rows()).unwrap();
    let searcher = BondSearcher::new(&table);
    let params = BondParams {
        schedule: BlockSchedule::Fixed(8),
        ordering: DimensionOrdering::QueryValueDescending,
        ..BondParams::default()
    };
    let k = 10;

    for query in sample_queries(&table, 5, 11) {
        // Histogram intersection family.
        let truth = sequential_scan(&matrix, &query, k, &HistogramIntersection);
        let truth_scores = sorted_scores(truth.hits.iter().map(|h| h.score));

        let hq = searcher.histogram_intersection_hq(&query, k, &params).unwrap();
        assert_scores_match("Hq", &sorted_scores(hq.hits.iter().map(|h| h.score)), &truth_scores);

        let hh = searcher.histogram_intersection_hh(&query, k, &params).unwrap();
        assert_scores_match("Hh", &sorted_scores(hh.hits.iter().map(|h| h.score)), &truth_scores);

        let mil = BondHqProgram::new(k, 8).unwrap().execute(&table, &query).unwrap();
        assert_scores_match("MIL", &sorted_scores(mil.hits.iter().map(|h| h.score)), &truth_scores);

        // the VA-File's one-segment codes, swept in the Hq plan's order
        let codes = vafile.codes().segment_view(0).unwrap();
        let ctx = SegmentContext { codes: Some(codes), ..SegmentContext::default() };
        let mut rule = HqRule::new();
        let compressed = search_segment(
            &segment,
            &query,
            &HistogramIntersection,
            &mut rule,
            k,
            None,
            &params,
            &ctx,
        )
        .unwrap();
        assert!(compressed.trace.filter_cells > 0, "the code sweep ran");
        assert_scores_match(
            "compressed",
            &sorted_scores(compressed.hits.iter().map(|h| h.score)),
            &truth_scores,
        );

        let va = vafile.search_histogram(&matrix, &query, k);
        assert_scores_match(
            "VA-File",
            &sorted_scores(va.hits.iter().map(|h| h.score)),
            &truth_scores,
        );

        let abandon = sequential_scan_early_abandon(&matrix, &query, k, &HistogramIntersection, 8);
        assert_scores_match(
            "early abandon",
            &sorted_scores(abandon.hits.iter().map(|h| h.score)),
            &truth_scores,
        );

        // Euclidean family.
        let truth_e = sequential_scan(&matrix, &query, k, &SquaredEuclidean);
        let truth_e_scores = sorted_scores(truth_e.hits.iter().map(|h| h.score));
        let ev = searcher.euclidean_ev(&query, k, &params).unwrap();
        assert_scores_match("Ev", &sorted_scores(ev.hits.iter().map(|h| h.score)), &truth_e_scores);
        let va_e = vafile.search_euclidean(&matrix, &query, k);
        assert_scores_match(
            "VA-File (euclid)",
            &sorted_scores(va_e.hits.iter().map(|h| h.score)),
            &truth_e_scores,
        );
    }
}

#[test]
fn bond_does_less_work_than_the_scan_on_skewed_data() {
    let table = CorelLikeConfig::small(3_000, 96).generate();
    let searcher = BondSearcher::new(&table);
    let params = BondParams {
        schedule: BlockSchedule::Fixed(8),
        ordering: DimensionOrdering::QueryValueDescending,
        ..BondParams::default()
    };
    let naive_work = (table.rows() * table.dims()) as f64;
    let mut total_fraction = 0.0;
    let queries = sample_queries(&table, 10, 3);
    for query in &queries {
        let outcome = searcher.histogram_intersection_hq(query, 10, &params).unwrap();
        total_fraction += outcome.trace.contributions_evaluated as f64 / naive_work;
    }
    let avg_fraction = total_fraction / queries.len() as f64;
    assert!(
        avg_fraction < 0.35,
        "BOND performed {:.0}% of the naive work; expected a large saving",
        avg_fraction * 100.0
    );
}
