//! The request API's contract: a heterogeneous [`RequestBatch`] — every
//! spec with its own `k`, pruning rule and planner — answers each query
//! exactly as if it were asked alone, and each answer matches the
//! per-query sequential reference. Mixing must never leak state between
//! queries: κ cells are per query, rules are instantiated per
//! `(query, segment)` task, and the merge ranks under each query's own
//! objective. Also exercised here: the `Server` front-end routes
//! concurrently submitted requests back to the right submitters.

use bond_exec::{Engine, PlannerKind, QuerySpec, RequestBatch, RuleKind, Server};
use proptest::prelude::*;
use std::sync::Arc;
use vdstore::DecomposedTable;

const DIMS: usize = 8;
const PARTITIONS: [usize; 4] = [1, 2, 3, 7];

/// Random normalized histograms (valid under every rule family), each
/// duplicated once so the deterministic tie-break is exercised, plus a
/// seed for spec assignment.
fn duplicated_collection() -> impl Strategy<Value = (Vec<Vec<f64>>, u64)> {
    (
        proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, DIMS), 15..40),
        0u64..1_000_000,
    )
        .prop_map(|(mut vectors, seed)| {
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
            (vectors, seed)
        })
}

/// The rules a batch cycles through: all four unweighted kinds plus both
/// weighted families (one subspace-ish profile each).
fn mixed_rules() -> Vec<RuleKind> {
    let mut weights = vec![1.0; DIMS];
    weights[0] = 4.0;
    weights[DIMS - 1] = 0.0;
    let mut rules: Vec<RuleKind> = RuleKind::ALL.to_vec();
    rules.push(RuleKind::weighted_histogram(weights.clone()).unwrap());
    rules.push(RuleKind::weighted_euclidean(weights).unwrap());
    rules
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A batch mixing every rule kind, a spread of ks, and (when the case
    /// says so) per-query planner overrides answers every spec exactly
    /// like the per-query sequential reference — for any partition count
    /// and under both engine-default planners.
    #[test]
    fn mixed_k_mixed_rule_batches_match_per_query_references(
        (vectors, seed) in duplicated_collection(),
    ) {
        let table = Arc::new(DecomposedTable::from_vectors("hetero", &vectors).unwrap());
        let n = table.rows();
        let rules = mixed_rules();
        let specs: Vec<QuerySpec> = (0..6)
            .map(|i| {
                let qi = (seed as usize + i * 7) % vectors.len();
                let k = [1, 3.min(n), 10.min(n), n][(seed as usize + i) % 4];
                let mut spec = QuerySpec::new(vectors[qi].clone(), k)
                    .rule(rules[i % rules.len()].clone());
                // every batch mixes planners too: half the specs override
                spec = match i % 2 {
                    0 => spec.planner(PlannerKind::Adaptive),
                    _ => spec.planner(PlannerKind::Uniform),
                };
                spec
            })
            .collect();
        let batch = RequestBatch::from_specs(specs.clone());

        for default_planner in [PlannerKind::Uniform, PlannerKind::Adaptive] {
            for partitions in PARTITIONS {
                let engine = Engine::builder(table.clone())
                    .partitions(partitions)
                    .threads(3)
                    .planner(default_planner)
                    .build()
                    .unwrap();
                let outcome = engine.execute(&batch).unwrap();
                prop_assert_eq!(outcome.queries.len(), specs.len());
                for (i, (spec, merged)) in specs.iter().zip(&outcome.queries).enumerate() {
                    prop_assert_eq!(
                        merged.hits.len(),
                        spec.k(),
                        "spec {} must get its own k", i
                    );
                    let reference = engine.sequential_reference_spec(spec).unwrap();
                    let context = format!(
                        "spec {i} rule {} k {} partitions {partitions} default {default_planner:?}",
                        spec.rule_override().unwrap().name(),
                        spec.k(),
                    );
                    assert_eq!(merged.hits, reference, "{context}");
                }
            }
        }
    }

    /// Heterogeneous batches answer identically to asking each spec alone:
    /// batching is an amortization, never a semantic change.
    #[test]
    fn batched_specs_match_solo_executions(
        (vectors, seed) in duplicated_collection(),
    ) {
        let table = Arc::new(DecomposedTable::from_vectors("solo", &vectors).unwrap());
        let n = table.rows();
        let rules = mixed_rules();
        let specs: Vec<QuerySpec> = (0..5)
            .map(|i| {
                let qi = (seed as usize + i * 11) % vectors.len();
                QuerySpec::new(vectors[qi].clone(), 1 + (seed as usize + i) % 5.min(n))
                    .rule(rules[(i + 1) % rules.len()].clone())
            })
            .collect();
        let engine = Engine::builder(table).partitions(3).threads(2).build().unwrap();
        let outcome = engine.execute(&RequestBatch::from_specs(specs.clone())).unwrap();
        for (spec, merged) in specs.iter().zip(&outcome.queries) {
            let solo = engine.search_spec(spec).unwrap();
            prop_assert_eq!(&merged.hits, &solo.hits);
            prop_assert_eq!(merged.segments.len(), solo.segments.len());
        }
    }
}

/// The engine is exactly what a service layer needs: `Send + Sync +
/// 'static` (compile-time assertion), clonable, and its clones share one
/// table allocation.
#[test]
fn engine_satisfies_the_service_bounds() {
    fn assert_send_sync_static<T: Send + Sync + 'static>() {}
    assert_send_sync_static::<Engine>();
    assert_send_sync_static::<Server>();

    let table = Arc::new(
        DecomposedTable::from_vectors(
            "bounds",
            &(0..60).map(|i| vec![i as f64 / 60.0, 1.0 - i as f64 / 60.0]).collect::<Vec<_>>(),
        )
        .unwrap(),
    );
    let engine = Engine::builder(table.clone()).partitions(2).threads(1).build().unwrap();
    // the engine shares the caller's Arc rather than deep-copying the table
    assert!(std::ptr::eq(engine.table(), &*table));
    let clone = engine.clone();
    assert!(std::ptr::eq(clone.table(), engine.table()));
}

/// Server smoke test: many submitter threads, mixed specs, every answer
/// routed back to the thread that asked for it.
#[test]
fn concurrent_submitters_get_their_own_answers() {
    let vectors: Vec<Vec<f64>> = (0..300)
        .map(|r| {
            let mut v: Vec<f64> =
                (0..DIMS).map(|d| ((r * 29 + d * 13) % 83) as f64 + 1.0).collect();
            let total: f64 = v.iter().sum();
            v.iter_mut().for_each(|x| *x /= total);
            v
        })
        .collect();
    let table = DecomposedTable::from_vectors("server", &vectors).unwrap();
    let engine = Engine::builder(table).partitions(4).threads(2).build().unwrap();
    let server = Server::builder(engine.clone()).max_batch(16).build().unwrap();
    let rules = mixed_rules();

    let n_threads = 8;
    let per_thread = 6;
    std::thread::scope(|scope| {
        for t in 0..n_threads {
            let server = &server;
            let engine = &engine;
            let rules = &rules;
            let vectors = &vectors;
            scope.spawn(move || {
                for i in 0..per_thread {
                    let qi = (t * 37 + i * 11) % vectors.len();
                    let spec = QuerySpec::new(vectors[qi].clone(), 1 + (t + i) % 7)
                        .rule(rules[(t + i) % rules.len()].clone());
                    let answer = server.submit(spec.clone()).unwrap().wait().unwrap();
                    let direct = engine.search_spec(&spec).unwrap();
                    assert_eq!(
                        answer.hits, direct.hits,
                        "thread {t} request {i}: answer routed to the wrong requester"
                    );
                }
            });
        }
    });
    assert_eq!(server.queries_served(), n_threads * per_thread);
    assert!(server.batches_executed() <= n_threads * per_thread);
}
