//! End-to-end observability invariants: EXPLAIN renders exactly the plan
//! execution runs, ANALYZE's scanned-cell accounting is the summed
//! [`bond::PruneTrace`] work counters, disabled tracing is bit-invisible
//! to query results, a segment that carried a κ in probes at most once,
//! and a warmed run populates the metrics registry.

use std::sync::Arc;

use bond_datagen::{sample_queries, ClusteredConfig};
use bond_exec::{Engine, PlannerKind, QuerySpec, RequestBatch, RuleKind, ScanMode};
use vdstore::DecomposedTable;

const DIMS: usize = 8;
const PARTITIONS: [usize; 4] = [1, 2, 3, 7];

/// Deterministic normalized histograms — skewed enough that plans differ
/// across segments, duplicated across no clusters (worst case for
/// skipping, best case for exercising every planner path).
fn table(rows: usize, dims: usize) -> DecomposedTable {
    let vectors: Vec<Vec<f64>> = (0..rows)
        .map(|r| {
            let mut v: Vec<f64> =
                (0..dims).map(|d| ((r * 13 + d * 29) % 83) as f64 + 1.0).collect();
            let total: f64 = v.iter().sum();
            v.iter_mut().for_each(|x| *x /= total);
            v
        })
        .collect();
    DecomposedTable::from_vectors("obs", &vectors).unwrap()
}

/// A cluster-major clustered table where adaptive planning skips whole
/// segments — a smaller copy of the shape `bench_adaptive` runs on.
fn clustered_table(rows: usize) -> Arc<DecomposedTable> {
    Arc::new(
        ClusteredConfig { clusters: 16, ..ClusteredConfig::small(rows, 16, 0.0) }
            .with_cluster_major(true)
            .with_seed(7)
            .generate(),
    )
}

/// For every planner × partition count, the plan EXPLAIN renders must be
/// the plan execution runs (`plans_match`), and ANALYZE's per-segment and
/// total scanned-cell counts must equal the executed trace's work
/// counters exactly.
#[test]
fn explain_matches_execution_for_every_planner_and_partitioning() {
    let table = Arc::new(table(210, DIMS));
    let queries: Vec<Vec<f64>> = (0u32..3).map(|i| table.row(i * 67).unwrap()).collect();
    for planner in [PlannerKind::Uniform, PlannerKind::Adaptive] {
        for partitions in PARTITIONS {
            let engine = Engine::builder(table.clone())
                .partitions(partitions)
                .threads(2)
                .rule(RuleKind::EuclideanEv)
                .planner(planner)
                .build()
                .unwrap();
            for query in &queries {
                let spec = QuerySpec::new(query.clone(), 5);
                let explain = engine.explain(&spec).unwrap();
                let outcome = engine.search_spec(&spec).unwrap();
                let analysis = outcome.analyze(&explain);

                let context = format!("planner {planner:?} partitions {partitions}");
                assert!(analysis.plans_match(), "{context}: executed plan != rendered plan");
                assert_eq!(
                    analysis.scanned_cells(),
                    outcome.contributions_evaluated(),
                    "{context}: ANALYZE total diverges from trace counters"
                );
                assert_eq!(analysis.segments.len(), outcome.segments.len());
                for (sa, run) in analysis.segments.iter().zip(&outcome.segments) {
                    assert_eq!(
                        sa.scanned_cells, run.trace.contributions_evaluated,
                        "{context}: segment {} scanned cells diverge",
                        sa.segment
                    );
                    assert_eq!(sa.skipped, run.trace.segment_skipped);
                    assert_eq!(sa.rule, run.trace.rule);
                    assert_eq!(sa.rule, Some("Ev"), "{context}: rule tag lost");
                }
            }
        }
    }
}

/// Tracing must be invisible to results: the same engine configuration
/// run with the span subscriber disabled and enabled returns
/// bit-identical scores, identical rows and identical work counters.
#[test]
fn disabled_tracing_is_bit_identical_to_enabled() {
    let table = Arc::new(table(300, DIMS));
    let batch =
        RequestBatch::from_queries((0u32..6).map(|i| table.row(i * 41).unwrap()).collect(), 7);
    let run = || {
        let engine = Engine::builder(table.clone())
            .partitions(3)
            .threads(1) // deterministic κ publication order ⇒ identical work counters
            .planner(PlannerKind::Adaptive)
            .build()
            .unwrap();
        engine.execute(&batch).unwrap()
    };

    bond_obs::span::set_enabled(false);
    bond_obs::span::take_spans(); // drain anything earlier tests left
    let quiet = run();
    assert!(bond_obs::span::take_spans().is_empty(), "disabled tracing must record nothing");

    bond_obs::span::set_enabled(true);
    let traced = run();
    let spans = bond_obs::span::take_spans();
    assert!(
        spans.iter().any(|s| s.stage == "engine.scan"),
        "enabled tracing must record scan spans"
    );
    bond_obs::span::set_enabled(false);

    assert_eq!(quiet.queries.len(), traced.queries.len());
    for (a, b) in quiet.queries.iter().zip(&traced.queries) {
        assert_eq!(a.hits.len(), b.hits.len());
        for (x, y) in a.hits.iter().zip(&b.hits) {
            assert_eq!(x.row, y.row);
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "score bits diverged");
        }
        assert_eq!(a.contributions_evaluated(), b.contributions_evaluated());
    }
}

/// A segment probes κ after its first block only when it carried none in.
/// On a one-thread quantized engine the first segment of the visit order
/// runs cold and probes at most twice (after its first and its last
/// block); every later segment carries the κ its predecessors published
/// into the shared cell, so ANALYZE reports at most one probe for it —
/// after its last block, which some of them reach.
#[test]
fn a_segment_that_carried_a_kappa_probes_at_most_once() {
    // clusters spread over every segment, so each one's sweep runs on
    // to its last block
    let table = Arc::new(
        ClusteredConfig { clusters: 16, ..ClusteredConfig::small(4_000, 16, 0.0) }
            .with_seed(7)
            .generate(),
    );
    let engine = Engine::builder(table.clone())
        .partitions(8)
        .threads(1)
        .rule(RuleKind::EuclideanEv)
        .scan_mode(ScanMode::QuantizedFilter)
        .build()
        .unwrap();
    let mut warm = 0;
    for query in sample_queries(&table, 4, 99) {
        let spec = QuerySpec::new(query, 10);
        let explain = engine.explain(&spec).unwrap();
        let analysis = engine.search_spec(&spec).unwrap().analyze(&explain);
        let cold = explain.visit_order[0];
        for seg in analysis.segments.iter().filter(|seg| seg.segment != cold) {
            assert!(seg.filter_probes <= 1, "segment {}:\n{analysis}", seg.segment);
            // it swept to its last block and probed only there
            warm += usize::from(seg.filter_probes == 1);
        }
        let first = analysis.segments[cold].filter_probes;
        assert!((1..=2).contains(&first), "segment {cold}:\n{analysis}");
        assert!(analysis.to_string().contains(" filter_probes="), "{analysis}");
    }
    assert!(warm > 0, "no segment that carried a κ probed after its last block");
}

/// After a warming batch on an adaptive engine over cluster-major data,
/// the registry reports non-zero `engine.segment.skipped` and code-sweep
/// counters, and the rendered exports carry the numbers.
#[test]
fn warmed_run_populates_the_registry() {
    let table = clustered_table(4_000);
    let engine = Engine::builder(table.clone())
        .partitions(8)
        .threads(2)
        .rule(RuleKind::EuclideanEv)
        .planner(PlannerKind::Adaptive)
        .build()
        .unwrap();
    let warming = RequestBatch::from_queries(sample_queries(&table, 100, 99), 10);
    engine.execute(&warming).unwrap();
    let eval = RequestBatch::from_queries(sample_queries(&table, 12, 4321), 10);
    engine.execute(&eval).unwrap();
    // one quantized-filter query feeds the filter-phase counters too
    let quant_query = sample_queries(&table, 1, 777).remove(0);
    engine
        .search_spec(&QuerySpec::new(quant_query, 10).scan_mode(ScanMode::QuantizedFilter))
        .unwrap();

    let metrics = engine.metrics();
    assert_eq!(metrics.counter_value("engine.query.count"), Some(113));
    assert_eq!(metrics.counter_value("engine.batch.count"), Some(3));
    assert!(
        metrics.counter_value("engine.segment.skipped").unwrap() > 0,
        "warmed clustered run must skip whole segments"
    );
    assert!(metrics.counter_value("engine.rule.Ev.searches").unwrap() > 0);
    assert!(
        metrics.counter_value("engine.quant.filter_cells").unwrap() > 0,
        "quantized query must count its code sweep"
    );
    assert!(
        metrics.histogram_snapshot("engine.quant.filter_selectivity").unwrap().count > 0,
        "quantized query must record its filter selectivity"
    );
    let latency = metrics.histogram_snapshot("engine.query.latency_us").unwrap();
    assert_eq!(latency.count, 113);

    let text = metrics.render_text();
    assert!(text.contains("engine_segment_skipped"), "text export missing skip counter");
    assert!(text.contains("engine_quant_filter_cells"), "text export missing filter counter");
    let json = metrics.render_json();
    assert!(json.contains("\"engine.segment.skipped\":"), "json export missing skip counter");
    assert!(json.contains("\"engine.quant.filter_cells\":"));
}
