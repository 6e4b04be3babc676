//! The quantized scan modes' engine-level contract:
//!
//! * [`ScanMode::QuantizedFilter`] is **bit-identical** to
//!   [`ScanMode::Exact`] — for every rule, any partition count, either
//!   storage backend, and with cold or warmed feedback state. The code
//!   sweep may only discard rows whose optimistic interval bound provably
//!   cannot reach κ, so the exact refinement sees a superset of the true
//!   top k and produces the very same merged answer.
//! * [`ScanMode::ApproximateQuantized`] answers from the codes alone and
//!   every hit's reported error bound honestly brackets its exact score.
//! * Codes persisted in the store footer serve a reopened engine without
//!   re-encoding — zero-copy under the mapped backend.

use bond::BondError;
use bond_exec::{Engine, EngineBuilder, PlannerKind, QuerySpec, RequestBatch, RuleKind, ScanMode};
use bond_metrics::{DecomposableMetric, SquaredEuclidean};
use proptest::prelude::*;
use std::path::PathBuf;
use vdstore::{DecomposedTable, StorageBackend};

const DIMS: usize = 8;
const PARTITIONS: [usize; 4] = [1, 2, 3, 7];

/// A process-unique temp path, removed by the caller.
fn temp_store(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bond_exec_quantized_{tag}_{}", std::process::id()))
}

/// Deterministic, mildly skewed synthetic histograms.
fn table(rows: usize, dims: usize) -> DecomposedTable {
    let vectors: Vec<Vec<f64>> = (0..rows)
        .map(|r| {
            let mut v: Vec<f64> =
                (0..dims).map(|d| ((r * 31 + d * 17) % 97) as f64 + 1.0).collect();
            let total: f64 = v.iter().sum();
            v.iter_mut().for_each(|x| *x /= total);
            v
        })
        .collect();
    DecomposedTable::from_vectors("quantized", &vectors).unwrap()
}

#[test]
fn quantized_filter_is_bit_identical_for_every_rule_and_partitioning() {
    let t = table(400, DIMS);
    let queries: Vec<Vec<f64>> = (0..3).map(|i| t.row(i * 131).unwrap()).collect();
    let weighted: Vec<RuleKind> = vec![
        RuleKind::weighted_histogram(vec![1.0, 2.0, 0.0, 1.0, 4.0, 1.0, 1.0, 0.5]).unwrap(),
        RuleKind::weighted_euclidean(vec![0.5, 1.0, 3.0, 0.0, 1.0, 1.0, 2.0, 1.0]).unwrap(),
    ];
    for partitions in PARTITIONS {
        let engine = Engine::builder(t.clone()).partitions(partitions).threads(2).build().unwrap();
        for rule in RuleKind::ALL.into_iter().chain(weighted.iter().cloned()) {
            for q in &queries {
                let exact = QuerySpec::new(q.clone(), 10).rule(rule.clone());
                let filtered = exact.clone().scan_mode(ScanMode::QuantizedFilter);
                let expected = engine.search_spec(&exact).unwrap();
                let got = engine.search_spec(&filtered).unwrap();
                assert_eq!(got.hits, expected.hits, "rule {} partitions {partitions}", rule.name());
                // the filter phase actually ran and was accounted for
                assert!(got.quant_filter_cells() > 0, "rule {}", rule.name());
                assert!(got.quant_filter_selectivity().is_some());
                assert!(got.error_bounds.is_none(), "filtered answers are exact");
                assert_eq!(expected.quant_filter_cells(), 0);
            }
        }
    }
}

#[test]
fn quantized_filter_composes_with_every_planner_and_feedback() {
    let t = table(360, DIMS);
    for planner in [PlannerKind::Uniform, PlannerKind::Adaptive] {
        let engine = Engine::builder(t.clone())
            .partitions(4)
            .threads(2)
            .planner(planner)
            .rule(RuleKind::EuclideanEv)
            .build()
            .unwrap();
        // warm the feedback store through the quantized path itself
        let warming: Vec<QuerySpec> = (0..40)
            .map(|i| {
                QuerySpec::new(engine.table().row(i * 9).unwrap(), 5)
                    .scan_mode(ScanMode::QuantizedFilter)
            })
            .collect();
        engine.execute(&RequestBatch::from_specs(warming)).unwrap();

        // cold or warm, the filtered answer is the exact answer
        for i in [7u32, 83, 211] {
            let q = engine.table().row(i).unwrap();
            let exact = engine.search_spec(&QuerySpec::new(q.clone(), 10)).unwrap();
            let filtered = engine
                .search_spec(&QuerySpec::new(q, 10).scan_mode(ScanMode::QuantizedFilter))
                .unwrap();
            assert_eq!(filtered.hits, exact.hits, "planner {planner:?} query {i}");
        }

        // the observed selectivity reached the learned per-segment state
        let snapshot = engine.feedback_snapshot();
        assert!(
            snapshot.segments.iter().any(|s| s.filter_selectivity().is_some()),
            "planner {planner:?}: quantized runs must feed selectivity back"
        );
    }
}

#[test]
fn observed_selectivity_discounts_the_quantized_cost_estimate() {
    let t = table(300, DIMS);
    let engine =
        Engine::builder(t).partitions(2).threads(1).planner(PlannerKind::Adaptive).build().unwrap();
    let q = engine.table().row(150).unwrap();
    let spec = QuerySpec::new(q.clone(), 5).scan_mode(ScanMode::QuantizedFilter);
    let cold = engine.estimate_cost(&spec);
    // cold, the model assumes every row survives: filter + full exact cost
    assert!(cold > engine.estimate_cost(&QuerySpec::new(q, 5)));

    let warming: Vec<QuerySpec> = (0..40)
        .map(|i| {
            QuerySpec::new(engine.table().row(i * 7).unwrap(), 5)
                .scan_mode(ScanMode::QuantizedFilter)
        })
        .collect();
    engine.execute(&RequestBatch::from_specs(warming)).unwrap();
    let warm = engine.estimate_cost(&spec);
    assert!(
        warm < cold,
        "observed selectivity must shrink the refine estimate: warm {warm} vs cold {cold}"
    );
}

#[test]
fn approximate_mode_reports_honest_error_bounds() {
    let t = table(300, DIMS);
    let engine =
        Engine::builder(t).partitions(3).threads(2).rule(RuleKind::EuclideanEq).build().unwrap();
    for i in [3u32, 77, 240] {
        let q = engine.table().row(i).unwrap();
        let k = 10;
        let approx = engine
            .search_spec(&QuerySpec::new(q.clone(), k).scan_mode(ScanMode::ApproximateQuantized))
            .unwrap();
        assert_eq!(approx.hits.len(), k);
        let bounds = approx.error_bounds.as_ref().expect("approximate answers carry bounds");
        assert_eq!(bounds.len(), approx.hits.len());
        for (hit, &err) in approx.hits.iter().zip(bounds) {
            assert!(err.is_finite() && err >= 0.0);
            let exact = SquaredEuclidean.score(&engine.table().row(hit.row).unwrap(), &q);
            assert!(
                (hit.score - exact).abs() <= err + 1e-9,
                "row {}: |{} - {exact}| > {err}",
                hit.row,
                hit.score
            );
        }
        // codes-only: not a single exact cell was read
        assert_eq!(approx.contributions_evaluated(), 0);
        assert!(approx.quant_filter_cells() > 0);
        // 8-bit codes on this collection recover most of the exact top k
        let exact_rows: Vec<u32> =
            engine.search_spec(&QuerySpec::new(q, k)).unwrap().hits.iter().map(|h| h.row).collect();
        let recalled = approx.hits.iter().filter(|h| exact_rows.contains(&h.row)).count();
        assert!(recalled * 2 >= k, "recall@{k} collapsed: {recalled}/{k} for query row {i}");
    }
}

#[test]
fn engine_default_scan_mode_applies_and_spec_overrides_win() {
    let t = table(200, DIMS);
    let engine = Engine::builder(t)
        .partitions(2)
        .threads(1)
        .scan_mode(ScanMode::QuantizedFilter)
        .build()
        .unwrap();
    assert_eq!(engine.scan_mode(), ScanMode::QuantizedFilter);
    let q = engine.table().row(20).unwrap();
    // engine default: the filter runs without any per-spec opt-in
    let defaulted = engine.search(&q, 5).unwrap();
    assert!(defaulted.quant_filter_cells() > 0);
    // a per-spec override turns it back off
    let exact =
        engine.search_spec(&QuerySpec::new(q.clone(), 5).scan_mode(ScanMode::Exact)).unwrap();
    assert_eq!(exact.quant_filter_cells(), 0);
    assert_eq!(defaulted.hits, exact.hits);
    // and the quant metrics were emitted for the filtered run only
    assert!(engine.metrics().counter_value("engine.quant.filter_cells").unwrap() > 0);
    assert!(engine.metrics().counter_value("engine.quant.refine_rows").is_some());
}

#[test]
fn explain_renders_filter_and_refine_phases_that_sum_to_the_estimate() {
    let t = table(240, DIMS);
    let engine = Engine::builder(t).partitions(3).threads(1).build().unwrap();
    let q = engine.table().row(100).unwrap();
    let spec = QuerySpec::new(q, 7).scan_mode(ScanMode::QuantizedFilter);
    let explain = engine.explain(&spec).unwrap();
    assert_eq!(explain.scan, ScanMode::QuantizedFilter);
    for seg in &explain.segments {
        let filter = seg.filter_cost.expect("filter phase estimated");
        let refine = seg.refine_cost.expect("refine phase estimated");
        assert!(filter > 0.0);
        assert!(
            (filter + refine - seg.estimated_cells).abs() <= 1e-9 * seg.estimated_cells.max(1.0),
            "phases must sum to the total estimate"
        );
    }
    let rendered = explain.to_string();
    assert!(rendered.contains("scan=quantized-filter"), "{rendered}");
    assert!(rendered.contains("filter="), "{rendered}");

    // exact plans carry no phase split
    let exact = engine.explain(&QuerySpec::new(engine.table().row(0).unwrap(), 7)).unwrap();
    assert_eq!(exact.scan, ScanMode::Exact);
    assert!(exact.segments.iter().all(|s| s.filter_cost.is_none() && s.refine_cost.is_none()));

    // ANALYZE joins the executed filter counters against the plan
    let outcome = engine.search_spec(&spec).unwrap();
    let analysis = outcome.analyze(&explain);
    assert_eq!(analysis.filter_cells(), outcome.quant_filter_cells());
    assert!(analysis.segments.iter().any(|s| s.filter_cells > 0));
    for (seg, run) in analysis.segments.iter().zip(&outcome.segments) {
        // cells actually read: at most every row through every swept
        // column, plus its probes
        assert_eq!(seg.filter_dims, run.trace.filter_dims);
        assert!(seg.filter_dims <= DIMS);
        assert!(seg.filter_cells <= ((run.rows.len() + 7) * seg.filter_dims) as u64);
        assert_eq!(seg.filter_cells == 0, seg.filter_dims == 0);
    }
    let shown = analysis.to_string();
    assert!(shown.contains("filter_cells="), "{shown}");
    assert!(shown.contains(" filter_dims="), "{shown}");
}

#[test]
fn persisted_codes_serve_reopened_engines_without_reencoding() {
    let t = table(320, DIMS);
    let path = temp_store("roundtrip");
    let original = Engine::builder(t).partitions(4).threads(2).build().unwrap();
    original.persist(&path).unwrap();
    let queries: Vec<Vec<f64>> = (0..3).map(|i| original.table().row(i * 101).unwrap()).collect();

    for backend in [StorageBackend::Heap, StorageBackend::Mapped] {
        let reopened = EngineBuilder::open_with(&path, backend)
            .unwrap()
            .threads(2)
            .scan_mode(ScanMode::QuantizedFilter)
            .build()
            .unwrap();
        // the footer's codes seed the engine cache: under the mapped
        // backend the 8-bit codes are zero-copy views of the file, proof
        // they were not re-encoded from the f64 columns
        let codes = reopened.ensure_codes(8).unwrap();
        if backend == StorageBackend::Mapped && StorageBackend::mapping_supported() {
            assert!(codes.is_mapped(), "persisted codes must be viewed, not rebuilt");
        }
        for rule in RuleKind::ALL {
            for q in &queries {
                let exact = QuerySpec::new(q.clone(), 10).rule(rule.clone());
                let expected = original.search_spec(&exact).unwrap();
                let got = reopened.search_spec(&exact.clone().scan_mode(ScanMode::QuantizedFilter));
                assert_eq!(
                    got.unwrap().hits,
                    expected.hits,
                    "rule {} backend {backend:?}",
                    rule.name()
                );
            }
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corrupting_the_codes_section_fails_the_open() {
    let t = table(100, DIMS);
    let path = temp_store("corrupt");
    Engine::builder(t).partitions(2).threads(1).build().unwrap().persist(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // the codes section ends with the per-dimension code checksums, just
    // before the 24-byte footer trailer — flip a bit inside it
    let n = bytes.len();
    bytes[n - 32] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    let err = EngineBuilder::open_with(&path, StorageBackend::Heap).map(|_| ()).unwrap_err();
    assert!(
        matches!(err, BondError::Storage(vdstore::VdError::Corrupt(_))),
        "codes corruption must be a typed open error, got {err}"
    );
    std::fs::remove_file(&path).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random collections, random query, every rule: the quantized filter
    /// never changes a single bit of the answer.
    #[test]
    fn quantized_filter_identity_holds_on_random_collections(
        vectors in proptest::collection::vec(
            proptest::collection::vec(0.001f64..1.0, DIMS), 20..80),
        qi in 0usize..80,
        partitions in 1usize..5,
        k in 1usize..8,
    ) {
        let t = DecomposedTable::from_vectors("prop", &vectors).unwrap();
        let query = vectors[qi % vectors.len()].clone();
        let engine = Engine::builder(t).partitions(partitions).threads(2).build().unwrap();
        let k = k.min(engine.table().live_rows());
        for rule in RuleKind::ALL {
            let exact = QuerySpec::new(query.clone(), k).rule(rule.clone());
            let filtered = exact.clone().scan_mode(ScanMode::QuantizedFilter);
            let expected = engine.search_spec(&exact).unwrap();
            let got = engine.search_spec(&filtered).unwrap();
            prop_assert_eq!(&got.hits, &expected.hits, "rule {}", rule.name());
        }
    }
}

/// Tombstoned rows stay invisible through both quantized modes.
#[test]
fn deleted_rows_never_surface_from_the_code_sweep() {
    let mut t = table(150, DIMS);
    let q = t.row(75).unwrap();
    t.delete(75).unwrap();
    let engine = Engine::builder(t).partitions(3).threads(2).build().unwrap();
    for scan in [ScanMode::QuantizedFilter, ScanMode::ApproximateQuantized] {
        let outcome = engine.search_spec(&QuerySpec::new(q.clone(), 5).scan_mode(scan)).unwrap();
        assert_eq!(outcome.hits.len(), 5);
        assert!(outcome.hits.iter().all(|h| h.row != 75), "{scan:?}");
    }
}
