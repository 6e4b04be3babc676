//! The stats-driven planner and the feedback store: in which order
//! `Adaptive` visits segments, and which it skips, may change *work*, never
//! *answers*; what the feedback store observes changes *estimates* only.
//! On clustered, cluster-major data `PlannerKind::Adaptive` visits the
//! query's own neighbourhood first, a mixed-planner batch answers every
//! spec bit-identically to the sequential reference, and warm cost
//! estimates reflect observed skips.

use bond::metrics::{DecomposableMetric, SquaredEuclidean};
use bond_datagen::{sample_query_rows, ClusteredConfig};
use bond_exec::{Engine, PlannerKind, QuerySpec, RequestBatch, RuleKind};
use proptest::prelude::*;
use std::sync::Arc;
use vdstore::DecomposedTable;

const DIMS: usize = 8;

/// Random normalized histograms, each duplicated once so the merge's
/// deterministic tie-breaking is exercised on every query.
fn duplicated_collection() -> impl Strategy<Value = (Vec<Vec<f64>>, usize)> {
    (proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, DIMS), 15..40), 0usize..30)
        .prop_map(|(mut vectors, qi)| {
            for v in &mut vectors {
                let total: f64 = v.iter().sum();
                if total <= 0.0 {
                    v[0] = 1.0;
                } else {
                    for x in v.iter_mut() {
                        *x /= total;
                    }
                }
            }
            let dupes: Vec<Vec<f64>> = vectors.clone();
            vectors.extend(dupes);
            (vectors, qi)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn mixed_planner_batches_answer_each_spec_on_its_own_terms(
        (vectors, _) in duplicated_collection(),
        k in 1usize..=5,
    ) {
        let table = DecomposedTable::from_vectors("mixed", &vectors).unwrap();
        let engine = Engine::builder(table).partitions(3).threads(2).build().unwrap();
        let queries: Vec<Vec<f64>> =
            vectors.iter().step_by(vectors.len().div_ceil(4).max(1)).cloned().collect();
        let specs: Vec<QuerySpec> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let planner =
                    if i % 2 == 0 { PlannerKind::Uniform } else { PlannerKind::Adaptive };
                QuerySpec::new(q.clone(), k).planner(planner)
            })
            .collect();
        let outcome = engine.execute(&RequestBatch::from_specs(specs.clone())).unwrap();
        for (spec, merged) in specs.iter().zip(&outcome.queries) {
            let reference = engine.sequential_reference_spec(spec).unwrap();
            assert_eq!(merged.hits, reference, "mixed-planner batch");
        }
    }
}

/// On clustered, cluster-major data each contiguous segment covers a few
/// clusters, so a segment's zone-map envelope says how near it can be. An
/// `Adaptive` query visits segments most-promising-first even when it scans
/// exactly: EXPLAIN renders the visit order sorted by each segment's best
/// envelope distance to the query (ties on the segment index), which
/// starts at a segment that can hold the query itself, and every answer
/// stays bit-identical.
#[test]
fn adaptive_visits_cluster_major_segments_nearest_first() {
    let rows = 8_000;
    let dims = 16;
    let k = 10;
    let partitions = 8;
    let table = Arc::new(
        ClusteredConfig { clusters: 16, ..ClusteredConfig::small(rows, dims, 0.0) }
            .with_cluster_major(true)
            .generate(),
    );
    let engine = Engine::builder(table.clone())
        .partitions(partitions)
        .threads(1)
        .rule(RuleKind::EuclideanEv)
        .planner(PlannerKind::Adaptive)
        .build()
        .unwrap();
    let row_order: Vec<usize> = (0..partitions).collect();
    let query_rows = sample_query_rows(&table, 12, 4321);
    let eval_queries: Vec<Vec<f64>> = query_rows.iter().map(|&r| table.row(r).unwrap()).collect();
    let mut reordered = 0;
    for (&row, q) in query_rows.iter().zip(&eval_queries) {
        let explain = engine.explain(&QuerySpec::new(q.clone(), k)).unwrap();
        let promise: Vec<f64> = engine
            .segment_stats()
            .iter()
            .map(|stats| {
                let (mins, maxs) = stats.envelope().expect("no segment is empty");
                SquaredEuclidean.envelope_best_score(q, &mins, &maxs)
            })
            .collect();
        let mut nearest_first = row_order.clone();
        nearest_first.sort_by(|&a, &b| promise[a].total_cmp(&promise[b]).then(a.cmp(&b)));
        assert_eq!(explain.visit_order, nearest_first, "segments visit nearest-envelope first");
        // the query's own row is at distance 0, so its segment is among
        // the leaders and the first visited one can hold the query too
        let own = engine.segment_specs().iter().position(|s| s.range().contains(&(row as usize)));
        assert_eq!(promise[own.unwrap()], 0.0);
        assert_eq!(promise[explain.visit_order[0]], 0.0);
        reordered += usize::from(explain.visit_order != row_order);
    }
    assert!(reordered > 0, "no query left row order: the visit order never applied");

    let outcome = engine.execute(&RequestBatch::from_queries(eval_queries.clone(), k)).unwrap();
    for (q, merged) in eval_queries.iter().zip(&outcome.queries) {
        let reference = engine.sequential_reference(q, k).unwrap();
        assert_eq!(merged.hits, reference, "visit-ordered adaptive search");
    }
}

/// Warm estimates reflect what was observed: a segment the zone map keeps
/// skipping prices lower than it did cold, and uniform planning (which
/// never skips) prices at least as high as adaptive planning.
#[test]
fn cost_estimates_learn_from_feedback() {
    let mut vectors = Vec::new();
    for i in 0..400 {
        vectors.push(vec![0.1 + (i % 10) as f64 * 1e-3; 8]);
    }
    for i in 0..400 {
        vectors.push(vec![0.9 - (i % 10) as f64 * 1e-3; 8]);
    }
    let table = Arc::new(DecomposedTable::from_vectors("cost_learn", &vectors).unwrap());
    let engine = Engine::builder(table.clone())
        .partitions(2)
        .threads(1)
        .rule(RuleKind::EuclideanEv)
        .planner(PlannerKind::Adaptive)
        .build()
        .unwrap();

    let spec = QuerySpec::new(vectors[0].clone(), 5);
    let cold = engine.estimate_cost(&spec);
    assert!(cold > 0.0);

    // queries from cluster A keep skipping the far cluster-B segment
    let warming: Vec<QuerySpec> =
        (0..40).map(|i| QuerySpec::new(vectors[i * 7 % 400].clone(), 5)).collect();
    let outcome = engine.execute(&RequestBatch::from_specs(warming)).unwrap();
    assert!(outcome.queries.iter().map(|q| q.segments_skipped()).sum::<usize>() > 0);

    let warm = engine.estimate_cost(&spec);
    assert!(warm < cold, "observed skips and pruning must cheapen the estimate: {warm} vs {cold}");

    let uniform = engine.estimate_cost(&spec.clone().planner(PlannerKind::Uniform));
    assert!(uniform >= warm, "uniform planning never skips, so it cannot price lower");

    // the snapshot exposes the same signals for introspection
    let snapshot = engine.feedback_snapshot();
    assert_eq!(snapshot.segments.len(), engine.partitions());
    assert!(snapshot.segments[1].skips > 0, "the far segment accumulated skip hits");
}
