//! The adaptive planner's contract: the most-promising-first visit order
//! and κ-aware whole-segment skipping return *exactly* the sequential
//! reference searcher's answer — rows and scores, bit for bit — for every
//! rule, any partition count, any k, and under score ties (duplicate
//! vectors), where the deterministic `RowId` tie-break must agree with the
//! sequential total order. Every segment runs the query's one plan, so
//! every row's score is summed in the sequential order.

use bond::{BondParams, BondSearcher};
use bond_exec::{Engine, PlannerKind, RequestBatch, RuleKind};
use proptest::prelude::*;
use std::sync::Arc;
use vdstore::DecomposedTable;

const DIMS: usize = 8;
const PARTITIONS: [usize; 4] = [1, 2, 3, 7];

/// Random normalized histograms, *each duplicated once* so every distance
/// value occurs at least twice and the merge's tie-breaking is exercised on
/// every query; plus a query index.
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
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn adaptive_answers_are_bit_identical_for_every_rule(
        (vectors, qi) in duplicated_collection(),
    ) {
        let table = Arc::new(DecomposedTable::from_vectors("adaptive", &vectors).unwrap());
        let query = vectors[qi % vectors.len()].clone();
        let n = table.rows();
        for rule in RuleKind::ALL {
            for partitions in PARTITIONS {
                for k in [1, 10.min(n), n] {
                    let engine = Engine::builder(table.clone())
                        .partitions(partitions)
                        .threads(3)
                        .rule(rule.clone())
                        .planner(PlannerKind::Adaptive)
                        .build()
                        .unwrap();
                    let outcome = engine.search(&query, k).unwrap();
                    let reference = engine.sequential_reference(&query, k).unwrap();
                    let context = format!(
                        "rule {} partitions {partitions} k {k} rows {n}",
                        rule.name()
                    );
                    assert_eq!(outcome.hits, reference, "{context}");
                }
            }
        }
    }

    #[test]
    fn weighted_rules_match_the_sequential_weighted_searcher(
        (vectors, qi) in duplicated_collection(),
        uniform_planner in proptest::bool::ANY,
    ) {
        let table = Arc::new(DecomposedTable::from_vectors("weighted", &vectors).unwrap());
        let query = vectors[qi % vectors.len()].clone();
        let n = table.rows();
        let k = 5.min(n);
        // a subspace-ish weight profile: one heavy, one zero, rest moderate
        let mut weights = vec![1.0; DIMS];
        weights[0] = 4.0;
        weights[DIMS - 1] = 0.0;
        let planner =
            if uniform_planner { PlannerKind::Uniform } else { PlannerKind::Adaptive };
        let params = BondParams::default();
        let searcher = BondSearcher::new(&table);

        for (kind, sequential) in [
            (
                RuleKind::weighted_euclidean(weights.clone()).unwrap(),
                searcher.weighted_euclidean(&query, &weights, k, &params).unwrap().hits,
            ),
            (
                RuleKind::weighted_histogram(weights.clone()).unwrap(),
                searcher
                    .weighted_histogram_intersection(&query, &weights, k, &params)
                    .unwrap()
                    .hits,
            ),
        ] {
            let engine = Engine::builder(table.clone())
                .partitions(3)
                .threads(2)
                .rule(kind.clone())
                .planner(planner)
                .build()
                .unwrap();
            let outcome = engine.search(&query, k).unwrap();
            let context = format!("weighted rule {} planner {planner:?}", kind.name());
            assert_eq!(outcome.hits, sequential, "{context}");
        }
    }

    #[test]
    fn adaptive_batches_match_single_queries(
        (vectors, _) in duplicated_collection(),
        k in 1usize..=5,
    ) {
        let table = DecomposedTable::from_vectors("batch", &vectors).unwrap();
        let queries: Vec<Vec<f64>> =
            vectors.iter().step_by(vectors.len().div_ceil(4).max(1)).cloned().collect();
        let engine = Engine::builder(table)
            .partitions(3)
            .threads(2)
            .planner(PlannerKind::Adaptive)
            .build()
            .unwrap();
        let outcome = engine
            .execute(&RequestBatch::from_queries(queries.clone(), k))
            .unwrap();
        for (q, merged) in queries.iter().zip(&outcome.queries) {
            let reference = engine.sequential_reference(q, k).unwrap();
            assert_eq!(merged.hits, reference, "adaptive batch");
        }
    }
}

/// Two well-separated clusters in distinct row ranges: once the first
/// segment has proven its κ, the second segment's envelope bound cannot
/// reach it and the whole segment must be skipped with *zero* column
/// touches (no contributions, no dimensions accessed, no pruning attempts).
#[test]
fn far_segment_is_skipped_without_touching_columns() {
    let dims = 8;
    let mut vectors = Vec::new();
    for i in 0..50 {
        // cluster A: tightly around 0.1
        vectors.push(vec![0.1 + (i % 10) as f64 * 1e-3; dims]);
    }
    for i in 0..50 {
        // cluster B: tightly around 0.9, provably far from cluster A
        vectors.push(vec![0.9 - (i % 10) as f64 * 1e-3; dims]);
    }
    let table = DecomposedTable::from_vectors("two_clusters", &vectors).unwrap();
    let query = vectors[0].clone();

    let engine = Engine::builder(table)
        .partitions(2)
        .threads(1) // deterministic task order: segment 0 runs first
        .rule(RuleKind::EuclideanEv)
        .planner(PlannerKind::Adaptive)
        .build()
        .unwrap();
    let outcome = engine.search(&query, 5).unwrap();

    // the answers all come from cluster A and match the reference
    let reference = engine.sequential_reference(&query, 5).unwrap();
    assert_eq!(outcome.hits, reference, "two clusters");
    assert!(outcome.hits.iter().all(|h| h.row < 50));

    // segment 1 (rows 50..100) was skipped outright
    assert_eq!(outcome.segments.len(), 2);
    let skipped = &outcome.segments[1].trace;
    assert!(skipped.segment_skipped, "far segment must be skipped");
    assert_eq!(skipped.contributions_evaluated, 0, "zero column touches");
    assert_eq!(skipped.dims_accessed, 0);
    assert_eq!(skipped.pruning_attempts, 0);
    assert!(skipped.checkpoints.is_empty());
    assert_eq!(outcome.segments_skipped(), 1);
    // segment 0 did real work
    assert!(outcome.segments[0].trace.contributions_evaluated > 0);
}

/// The similarity-side skip: a segment with no mass on the query's
/// dimensions has envelope bound ~0 and is skipped.
#[test]
fn massless_segment_is_skipped_under_histogram_intersection() {
    let mut vectors = Vec::new();
    for i in 0..40 {
        let x = 0.8 + (i % 5) as f64 * 0.01;
        vectors.push(vec![x, 1.0 - x, 0.0, 0.0]);
    }
    for i in 0..40 {
        let x = 0.8 + (i % 5) as f64 * 0.01;
        vectors.push(vec![0.0, 0.0, x, 1.0 - x]);
    }
    let table = DecomposedTable::from_vectors("disjoint_support", &vectors).unwrap();
    let query = vec![0.8, 0.2, 0.0, 0.0];

    let engine = Engine::builder(table)
        .partitions(2)
        .threads(1)
        .rule(RuleKind::HistogramHq)
        .planner(PlannerKind::Adaptive)
        .build()
        .unwrap();
    let outcome = engine.search(&query, 3).unwrap();
    assert!(outcome.segments[1].trace.segment_skipped);
    assert_eq!(outcome.segments[1].trace.contributions_evaluated, 0);
    assert!(outcome.hits.iter().all(|h| h.row < 40));
}

/// Skipping needs the shared κ cell and the adaptive planner; without
/// either, every segment runs.
#[test]
fn no_skipping_without_kappa_sharing_or_under_uniform_planning() {
    let mut vectors = Vec::new();
    for _ in 0..30 {
        vectors.push(vec![0.1; 4]);
    }
    for _ in 0..30 {
        vectors.push(vec![0.9; 4]);
    }
    let table = Arc::new(DecomposedTable::from_vectors("no_skip", &vectors).unwrap());
    let query = vec![0.1; 4];

    for (planner, share) in [
        (PlannerKind::Uniform, true),
        (PlannerKind::Adaptive, false),
        (PlannerKind::Uniform, false),
    ] {
        let engine = Engine::builder(table.clone())
            .partitions(2)
            .threads(1)
            .rule(RuleKind::EuclideanEv)
            .planner(planner)
            .share_kappa(share)
            .build()
            .unwrap();
        let outcome = engine.search(&query, 3).unwrap();
        assert_eq!(outcome.segments_skipped(), 0, "planner {planner:?} share {share}");
        assert!(outcome.segments.iter().all(|s| s.trace.contributions_evaluated > 0));
    }
}
