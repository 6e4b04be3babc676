//! The open query surface's contract (PR 9):
//!
//! * **Filtered k-NN is exact** — for every rule (the four unweighted plus
//!   both weighted families), any partition count and either planner, a
//!   predicate-filtered search returns exactly the brute-force
//!   filter-then-scan answer: the filter composes with tombstones, with
//!   the quantized first pass, and with zone-map segment skipping, and an
//!   adaptive skip never drops an eligible row.
//! * **Multi-feature requests are exact** — the partitioned engine's
//!   synchronized scan matches an independent per-row oracle for every
//!   aggregate, with and without a filter; a row deleted from any feature
//!   collection is never an answer; and the engine's and
//!   [`MultiFeatureSearcher`]'s answers over a generated collection are
//!   pinned bit for bit by a recorded digest.
//! * **Bad requests die at admission** — domain-mismatched or empty
//!   filters ([`BondError::InvalidFilter`]), per-feature dimension
//!   mismatches ([`BondError::FeatureDimensionMismatch`]) and aggregate
//!   arity errors are rejected before any segment work starts, and so
//!   are NaN or infinite query coordinates and rule weights
//!   ([`BondError::NonFinite`]) — through the engine and through a
//!   [`Server`] alike.
//! * **The filter metrics account honestly** — eligible rows are counted
//!   once per scanned segment, filter-empty segments are skipped and
//!   counted — as filter-empty, not as zone-map skips — and multi-feature
//!   scans tick their own counter.

use bond::{BondError, FeatureMetricKind, FeatureQuery, MultiFeatureSearcher};
use bond_exec::{
    AggregateSpec, Engine, FeatureSpec, KnnProgram, MultiFeatureSpec, PlannerKind, QuerySpec,
    RequestBatch, RuleKind, ScanMode, Server,
};
use bond_metrics::{DecomposableMetric, SquaredEuclidean};
use bond_obs::names;
use proptest::prelude::*;
use std::sync::Arc;
use vdstore::topk::Scored;
use vdstore::{Bitmap, DecomposedTable, RowId, TopKLargest};

const DIMS: usize = 8;
const PARTITIONS: [usize; 4] = [1, 2, 3, 7];

/// All six pruning-rule families.
fn all_rules() -> Vec<RuleKind> {
    let mut rules: Vec<RuleKind> = RuleKind::ALL.to_vec();
    rules.push(RuleKind::weighted_histogram(vec![1.0, 2.0, 0.0, 1.0, 4.0, 1.0, 1.0, 0.5]).unwrap());
    rules.push(RuleKind::weighted_euclidean(vec![0.5, 1.0, 3.0, 0.0, 1.0, 1.0, 2.0, 1.0]).unwrap());
    rules
}

/// Random normalized histograms plus a 64-bit eligibility mask and a query
/// index. The mask is forced non-empty over the generated rows.
fn collection_with_filter() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<bool>, usize)> {
    (
        proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, DIMS), 16..48),
        proptest::collection::vec(proptest::bool::ANY, 64),
        0usize..48,
    )
        .prop_map(|(mut vectors, mut mask, qi)| {
            for v in &mut vectors {
                let total: f64 = v.iter().sum();
                if total <= 0.0 {
                    v[0] = 1.0;
                } else {
                    v.iter_mut().for_each(|x| *x /= total);
                }
            }
            let n = vectors.len();
            mask.truncate(n);
            if !mask.iter().any(|&m| m) {
                mask[n / 2] = true;
            }
            (vectors, mask, qi)
        })
}

fn bitmap_from_mask(mask: &[bool]) -> Bitmap {
    let rows: Vec<RowId> =
        mask.iter().enumerate().filter(|(_, &m)| m).map(|(r, _)| r as RowId).collect();
    Bitmap::from_rows(mask.len(), &rows)
}

/// Brute-force filter-then-scan reference: the engine's own sequential
/// searcher ranks *every* live row exactly (same scoring, same `(score,
/// row)` total order), then the predicate keeps the eligible prefix.
fn filtered_reference(engine: &Engine, query: &[f64], mask: &[bool], k: usize) -> Vec<Scored> {
    let live = engine.segment_stats().iter().map(|s| s.live_rows).sum::<usize>();
    let all = engine.sequential_reference(query, live).unwrap();
    all.into_iter().filter(|h| mask[h.row as usize]).take(k).collect()
}

/// Independent multi-feature oracle: the `k` best eligible rows by the
/// per-feature similarities (histogram intersection over `color`, Equation
/// 3 over `texture`) aggregated row by row — no BOND machinery involved.
fn oracle(
    color: &[Vec<f64>],
    query: &[f64],
    texture: &[Vec<f64>],
    tquery: &[f64],
    eligible: impl Fn(usize) -> bool,
    k: usize,
    combine: impl Fn(&[f64]) -> f64,
) -> Vec<Scored> {
    let mut heap = TopKLargest::new(k);
    for r in (0..color.len()).filter(|&r| eligible(r)) {
        let hi: f64 = color[r].iter().zip(query).map(|(a, b)| a.min(*b)).sum();
        let d = SquaredEuclidean.score(&texture[r], tquery);
        let eu = SquaredEuclidean::similarity_from_distance(d, tquery.len());
        heap.push(r as RowId, combine(&[hi, eu]));
    }
    heap.into_sorted_vec()
}

/// Same rows in the same ranks as the oracle, scores within rounding (the
/// oracle sums dimensions in another order).
fn assert_matches_oracle(got: &[Scored], want: &[Scored], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}");
    for (i, (got, want)) in got.iter().zip(want).enumerate() {
        assert_eq!(got.row, want.row, "{ctx} rank {i}");
        assert!(
            (got.score - want.score).abs() <= 1e-9 * want.score.abs().max(1.0),
            "{ctx} rank {i}: {} vs {}",
            got.score,
            want.score
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn filtered_answers_match_brute_force_for_every_rule(
        (vectors, mask, qi) in collection_with_filter(),
    ) {
        let table = Arc::new(DecomposedTable::from_vectors("filtered", &vectors).unwrap());
        let query = vectors[qi % vectors.len()].clone();
        let eligible = mask.iter().filter(|&&m| m).count();
        let filter = Arc::new(bitmap_from_mask(&mask));
        for rule in all_rules() {
            for partitions in PARTITIONS {
                // Adaptive covers the zone-map skip path: a skipped segment
                // must never have held an eligible answer row.
                for planner in [PlannerKind::Uniform, PlannerKind::Adaptive] {
                    let engine = Engine::builder(table.clone())
                        .partitions(partitions)
                        .threads(2)
                        .rule(rule.clone())
                        .planner(planner)
                        .build()
                        .unwrap();
                    for k in [1, 3.min(eligible), eligible] {
                        let spec = QuerySpec::new(query.clone(), k)
                            .filter_shared(filter.clone());
                        let outcome = engine.search_spec(&spec).unwrap();
                        let expected = filtered_reference(&engine, &query, &mask, k);
                        let ctx = format!(
                            "rule {} partitions {partitions} planner {planner:?} k {k} \
                             eligible {eligible}",
                            rule.name()
                        );
                        if planner == PlannerKind::Uniform {
                            // Same dimension order as the reference scan:
                            // the answer is bit-identical.
                            assert_eq!(outcome.hits, expected, "{ctx}");
                        } else {
                            // Adaptive reorders dimensions per segment, so
                            // exact scores can drift by an ULP — rows and
                            // ranks must still match the brute force.
                            assert_eq!(outcome.hits.len(), expected.len(), "{ctx}");
                            for (got, want) in outcome.hits.iter().zip(&expected) {
                                assert_eq!(got.row, want.row, "{ctx}");
                                assert!((got.score - want.score).abs() < 1e-9, "{ctx}");
                            }
                        }
                        assert!(outcome.hits.iter().all(|h| mask[h.row as usize]));
                    }
                }
            }
        }
    }

    #[test]
    fn engine_multifeature_matches_an_independent_oracle_for_every_aggregate(
        (vectors, _mask, qi) in collection_with_filter(),
    ) {
        let color = DecomposedTable::from_vectors("color", &vectors).unwrap();
        // A second feature collection over the same rows: reversed dims.
        let reversed: Vec<Vec<f64>> =
            vectors.iter().map(|v| v.iter().rev().copied().collect()).collect();
        let texture = Arc::new(DecomposedTable::from_vectors("texture", &reversed).unwrap());
        let query = vectors[qi % vectors.len()].clone();
        let tquery: Vec<f64> = query.iter().rev().copied().collect();
        let k = 4.min(vectors.len());

        for aggregate in [
            AggregateSpec::WeightedAverage(vec![0.6, 0.4]),
            AggregateSpec::FuzzyMin,
            AggregateSpec::FuzzyMax,
        ] {
            let combine = aggregate.build().unwrap();
            let expected = oracle(&vectors, &query, &reversed, &tquery, |_| true, k, |s| {
                combine.combine(s)
            });
            let spec = QuerySpec::multi_feature(
                MultiFeatureSpec::new(
                    vec![
                        FeatureSpec::new(query.clone(), FeatureMetricKind::HistogramIntersection),
                        FeatureSpec::external(
                            tquery.clone(),
                            FeatureMetricKind::Euclidean,
                            texture.clone(),
                        ),
                    ],
                    aggregate.clone(),
                ),
                k,
            );
            for partitions in PARTITIONS {
                let engine = Engine::builder(color.clone())
                    .partitions(partitions)
                    .threads(2)
                    .build()
                    .unwrap();
                let outcome = engine.search_spec(&spec).unwrap();
                let ctx = format!("aggregate {} partitions {partitions}", aggregate.label());
                assert_matches_oracle(&outcome.hits, &expected, &ctx);
            }
        }
    }

    #[test]
    fn filtered_multifeature_matches_an_independent_oracle(
        (vectors, mask, qi) in collection_with_filter(),
    ) {
        let color = DecomposedTable::from_vectors("color", &vectors).unwrap();
        let reversed: Vec<Vec<f64>> =
            vectors.iter().map(|v| v.iter().rev().copied().collect()).collect();
        let texture = Arc::new(DecomposedTable::from_vectors("texture", &reversed).unwrap());
        let query = vectors[qi % vectors.len()].clone();
        let tquery: Vec<f64> = query.iter().rev().copied().collect();
        let eligible = mask.iter().filter(|&&m| m).count();
        let k = 3.min(eligible);
        let weights = [0.7, 0.3];

        let expected = oracle(&vectors, &query, &reversed, &tquery, |r| mask[r], k, |s| {
            weights[0] * s[0] + weights[1] * s[1]
        });

        let spec = QuerySpec::multi_feature(
            MultiFeatureSpec::new(
                vec![
                    FeatureSpec::new(query.clone(), FeatureMetricKind::HistogramIntersection),
                    FeatureSpec::external(tquery, FeatureMetricKind::Euclidean, texture.clone()),
                ],
                AggregateSpec::WeightedAverage(weights.to_vec()),
            ),
            k,
        )
        .filter(bitmap_from_mask(&mask));
        for partitions in PARTITIONS {
            let engine =
                Engine::builder(color.clone()).partitions(partitions).threads(2).build().unwrap();
            let outcome = engine.search_spec(&spec).unwrap();
            assert_matches_oracle(&outcome.hits, &expected, &format!("partitions {partitions}"));
            assert!(outcome.hits.iter().all(|h| mask[h.row as usize]));
        }
    }
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
    DecomposedTable::from_vectors("surface", &vectors).unwrap()
}

#[test]
fn filters_compose_with_tombstones() {
    let mut t = table(200, DIMS);
    let query = t.row(60).unwrap();
    // Tombstone the filter's best match and a few of its neighbours.
    for row in [60, 61, 62] {
        t.delete(row).unwrap();
    }
    let mask: Vec<bool> = (0..200).map(|r| r % 2 == 0).collect();
    let engine = Engine::builder(t).partitions(4).threads(2).build().unwrap();
    let spec = QuerySpec::new(query.clone(), 7).filter(bitmap_from_mask(&mask));
    let outcome = engine.search_spec(&spec).unwrap();
    assert_eq!(outcome.hits.len(), 7);
    assert!(outcome.hits.iter().all(|h| mask[h.row as usize] && (h.row < 60 || h.row > 62)));
    let expected = filtered_reference(&engine, &query, &mask, 7);
    assert_eq!(outcome.hits, expected);
}

#[test]
fn predicate_filters_compose_with_the_quantized_first_pass() {
    let t = table(400, DIMS);
    let mask: Vec<bool> = (0..400).map(|r| r % 3 != 1).collect();
    let filter = Arc::new(bitmap_from_mask(&mask));
    let engine = Engine::builder(t.clone()).partitions(4).threads(2).build().unwrap();
    for rule in all_rules() {
        for q in [t.row(0).unwrap(), t.row(133).unwrap()] {
            let exact =
                QuerySpec::new(q.clone(), 10).rule(rule.clone()).filter_shared(filter.clone());
            let quantized = exact.clone().scan_mode(ScanMode::QuantizedFilter);
            let expected = engine.search_spec(&exact).unwrap();
            let got = engine.search_spec(&quantized).unwrap();
            assert_eq!(got.hits, expected.hits, "rule {}", rule.name());
            assert!(got.quant_filter_cells() > 0, "code sweep actually ran");
            assert!(got.hits.iter().all(|h| mask[h.row as usize]));
        }
    }
}

#[test]
fn bad_filters_and_features_are_rejected_at_admission() {
    let mut t = table(100, DIMS);
    t.delete(10).unwrap();
    let q = t.row(0).unwrap();
    let engine = Engine::builder(t).partitions(2).threads(1).build().unwrap();

    // Filter domain must equal the table's row space.
    let short = QuerySpec::new(q.clone(), 1).filter(Bitmap::new(99));
    assert!(matches!(engine.search_spec(&short), Err(BondError::InvalidFilter(_))));
    // An empty filter can never answer.
    let empty = QuerySpec::new(q.clone(), 1).filter(Bitmap::new(100));
    assert!(matches!(engine.search_spec(&empty), Err(BondError::InvalidFilter(_))));
    // A filter naming only tombstoned rows is empty in effect.
    let dead = QuerySpec::new(q.clone(), 1).filter(Bitmap::from_rows(100, &[10]));
    assert!(matches!(engine.search_spec(&dead), Err(BondError::InvalidFilter(_))));
    // k is validated against the *eligible* rows, not the table.
    let tight = QuerySpec::new(q.clone(), 3).filter(Bitmap::from_rows(100, &[1, 2]));
    assert!(matches!(engine.search_spec(&tight), Err(BondError::InvalidK { k: 3, rows: 2 })));
    // validate_against reports the same decision without executing.
    assert!(matches!(
        QuerySpec::new(q.clone(), 3)
            .filter(Bitmap::from_rows(100, &[1, 2]))
            .validate_against(&engine),
        Err(BondError::InvalidK { k: 3, rows: 2 })
    ));

    // Per-feature dimensions are checked feature by feature.
    let mf = QuerySpec::multi_feature(
        MultiFeatureSpec::new(
            vec![
                FeatureSpec::new(q.clone(), FeatureMetricKind::HistogramIntersection),
                FeatureSpec::new(vec![0.5; DIMS + 1], FeatureMetricKind::Euclidean),
            ],
            AggregateSpec::WeightedAverage(vec![0.5, 0.5]),
        ),
        5,
    );
    assert!(matches!(
        engine.search_spec(&mf),
        Err(BondError::FeatureDimensionMismatch { feature: 1, expected: DIMS, actual: 9 })
    ));
    // Aggregate arity must match the feature count.
    let arity = QuerySpec::multi_feature(
        MultiFeatureSpec::new(
            vec![FeatureSpec::new(q.clone(), FeatureMetricKind::Euclidean)],
            AggregateSpec::WeightedAverage(vec![0.5, 0.5]),
        ),
        5,
    );
    assert!(matches!(engine.search_spec(&arity), Err(BondError::InvalidParams(_))));
    // Multi-feature requests cannot override the single-feature rule.
    let ruled = QuerySpec::multi_feature(
        MultiFeatureSpec::new(
            vec![FeatureSpec::new(q.clone(), FeatureMetricKind::Euclidean)],
            AggregateSpec::FuzzyMin,
        ),
        5,
    )
    .rule(RuleKind::EuclideanEq);
    assert!(matches!(engine.search_spec(&ruled), Err(BondError::InvalidParams(_))));

    // One bad spec fails the whole batch before any work starts.
    let batch = RequestBatch::from_specs(vec![
        QuerySpec::new(q.clone(), 1),
        QuerySpec::new(q, 1).filter(Bitmap::new(100)),
    ]);
    assert!(engine.execute(&batch).is_err());
    assert_eq!(engine.metrics().counter_value(names::ENGINE_BATCH_COUNT), Some(0));
}

#[test]
fn non_finite_queries_and_weights_are_rejected_with_a_typed_error() {
    let t = table(100, DIMS);
    let engine = Engine::builder(t.clone()).partitions(2).threads(1).build().unwrap();
    let server = Server::new(engine.clone());
    for (dim, bad) in [(0, f64::NAN), (3, f64::INFINITY), (DIMS - 1, f64::NEG_INFINITY)] {
        let mut query = t.row(5).unwrap();
        query[dim] = bad;
        for scan in [ScanMode::Exact, ScanMode::QuantizedFilter] {
            let spec = QuerySpec::new(query.clone(), 3).scan_mode(scan);
            let want = BondError::NonFinite { what: "query", dim };
            assert_eq!(engine.search_spec(&spec).unwrap_err(), want);
            assert_eq!(server.submit(spec).and_then(|ticket| ticket.wait()).unwrap_err(), want);
        }
        // directly constructed weights bypass the validating constructor
        let mut weights = vec![1.0; DIMS];
        weights[dim] = bad;
        let spec = QuerySpec::new(t.row(5).unwrap(), 3).rule(RuleKind::WeightedEuclidean(weights));
        let want = BondError::NonFinite { what: "weight", dim };
        assert_eq!(engine.search_spec(&spec).unwrap_err(), want);
        assert_eq!(server.submit(spec).and_then(|ticket| ticket.wait()).unwrap_err(), want);
    }
    assert_eq!(server.queries_rejected(), 9);
    // the server still answers
    let fine = server.submit(QuerySpec::new(t.row(5).unwrap(), 3)).unwrap().wait().unwrap();
    assert_eq!(fine.hits.len(), 3);
    server.shutdown();
}

#[test]
fn filter_metrics_account_eligible_rows_and_empty_segments() {
    let t = table(100, DIMS);
    let q = t.row(5).unwrap();
    let engine = Engine::builder(t).partitions(4).threads(2).build().unwrap();
    // Rows 0..25 live entirely in the first of four 25-row segments.
    let spec =
        QuerySpec::new(q.clone(), 3).filter(Bitmap::from_rows(100, &(0..25).collect::<Vec<_>>()));
    let outcome = engine.search_spec(&spec).unwrap();
    assert!(outcome.hits.iter().all(|h| h.row < 25));
    let metrics = engine.metrics();
    assert_eq!(metrics.counter_value(names::ENGINE_FILTER_ELIGIBLE_ROWS), Some(25));
    assert_eq!(metrics.counter_value(names::ENGINE_FILTER_SEGMENTS_EMPTY), Some(3));
    assert_eq!(outcome.segments_skipped(), 3, "filter-empty segments are skipped outright");

    // A multi-feature request ticks its own per-segment counter.
    let mf = QuerySpec::multi_feature(
        MultiFeatureSpec::new(
            vec![FeatureSpec::new(q, FeatureMetricKind::HistogramIntersection)],
            AggregateSpec::FuzzyMin,
        ),
        3,
    );
    engine.search_spec(&mf).unwrap();
    assert_eq!(metrics.counter_value(names::ENGINE_MULTIFEATURE_SEARCHES), Some(4));
}

/// `engine.segment.skipped` counts zone-map skips only. A `Uniform` engine
/// never skips by zone map, so segments a filter or tombstones leave empty
/// — answered without a scan, and reported by `segments_skipped()` — must
/// leave the counter at zero.
#[test]
fn empty_segments_are_not_counted_as_zone_map_skips() {
    let mut t = table(200, DIMS);
    // the last of four 50-row segments loses every row
    for row in 150..200 {
        t.delete(row).unwrap();
    }
    let q = t.row(5).unwrap();
    let engine = Engine::builder(t).partitions(4).threads(1).build().unwrap();
    let metrics = engine.metrics();
    let count = |name: &str| metrics.counter_value(name).unwrap_or(0);

    let filtered =
        QuerySpec::new(q.clone(), 3).filter(Bitmap::from_rows(200, &(0..50).collect::<Vec<_>>()));
    assert_eq!(engine.search_spec(&filtered).unwrap().segments_skipped(), 3);
    assert_eq!(count(names::ENGINE_FILTER_SEGMENTS_EMPTY), 3);
    let mf = QuerySpec::multi_feature(
        MultiFeatureSpec::new(
            vec![FeatureSpec::new(q, FeatureMetricKind::HistogramIntersection)],
            AggregateSpec::FuzzyMin,
        ),
        3,
    );
    assert_eq!(engine.search_spec(&mf).unwrap().segments_skipped(), 1);

    assert_eq!(count(names::ENGINE_SEGMENT_SEARCHED), 1 + 3);
    assert_eq!(count(names::ENGINE_SEGMENT_SKIPPED), 0, "no zone-map skip happened");
}

#[test]
fn relational_programs_execute_on_the_engine() {
    let t = table(150, DIMS);
    let query = t.row(9).unwrap();
    let engine = Engine::builder(t.clone()).partitions(3).threads(2).build().unwrap();
    // No selects: the program is the pure MIL formulation on the engine.
    let run =
        KnnProgram::knn(query.clone(), 5).rule(RuleKind::HistogramHq).execute(&engine).unwrap();
    let mil = bond_relalg::run_bond_hq(&t, &query, 5).unwrap();
    assert_eq!(run.outcome.hits, mil.hits);
    // With selects: pushdown equals the filter bitmap path exactly.
    let lo = 1.0 / 97.0;
    let hi = 30.0 / 97.0;
    let pushed = KnnProgram::knn(query.clone(), 2).select(0, lo, hi).execute(&engine).unwrap();
    let mask: Vec<bool> = (0..150).map(|r| (lo..=hi).contains(&t.row(r).unwrap()[0])).collect();
    assert_eq!(pushed.eligible_rows, mask.iter().filter(|&&m| m).count());
    let direct =
        engine.search_spec(&QuerySpec::new(query, 2).filter(bitmap_from_mask(&mask))).unwrap();
    assert_eq!(pushed.outcome.hits, direct.hits);
}

#[test]
fn mixed_batches_answer_each_spec_as_its_own_search() {
    let t = table(100, DIMS);
    let q = t.row(5).unwrap();
    let q2 = t.row(70).unwrap();
    let partitions = 4;
    let multi_feature = |query: &[f64]| {
        MultiFeatureSpec::new(
            vec![FeatureSpec::new(query.to_vec(), FeatureMetricKind::HistogramIntersection)],
            AggregateSpec::FuzzyMin,
        )
    };
    // Rows 0..25 fill the first of four 25-row segments, so that filter
    // leaves three segments empty; even rows reach every segment.
    let first_segment = Bitmap::from_rows(100, &(0..25).collect::<Vec<_>>());
    let even_rows = Bitmap::from_rows(100, &(0..100).step_by(2).collect::<Vec<_>>());
    let batch = RequestBatch::from_specs(vec![
        QuerySpec::multi_feature(multi_feature(&q2), 3),
        QuerySpec::new(q.clone(), 4),
        QuerySpec::new(q2.clone(), 2).filter(first_segment),
        QuerySpec::new(q.clone(), 5).scan_mode(ScanMode::QuantizedFilter),
        QuerySpec::multi_feature(multi_feature(&q), 2).filter(even_rows),
        QuerySpec::new(q2, 3).rule(RuleKind::EuclideanEv),
    ]);
    let mf_specs = 2;
    for threads in [1, 2] {
        let engine =
            Engine::builder(t.clone()).partitions(partitions).threads(threads).build().unwrap();
        let metrics = engine.metrics();
        let count = |name: &str| metrics.counter_value(name).unwrap_or(0);
        let (batches, queries, mf) = (
            count(names::ENGINE_BATCH_COUNT),
            count(names::ENGINE_QUERY_COUNT),
            count(names::ENGINE_MULTIFEATURE_SEARCHES),
        );
        let outcome = engine.execute(&batch).unwrap();
        assert_eq!(count(names::ENGINE_BATCH_COUNT), batches + 1, "threads {threads}");
        assert_eq!(
            count(names::ENGINE_QUERY_COUNT),
            queries + batch.len() as u64,
            "threads {threads}"
        );
        assert_eq!(
            count(names::ENGINE_MULTIFEATURE_SEARCHES),
            mf + (partitions * mf_specs) as u64,
            "threads {threads}"
        );
        assert_eq!(outcome.queries.len(), batch.len());
        for (i, (got, spec)) in outcome.queries.iter().zip(batch.specs()).enumerate() {
            let alone = engine.search_spec(spec).unwrap();
            assert_eq!(got.hits, alone.hits, "threads {threads} spec {i}");
            assert_eq!(
                got.segments_skipped(),
                alone.segments_skipped(),
                "threads {threads} spec {i}"
            );
        }
        assert_eq!(outcome.queries[2].segments_skipped(), 3);
        assert!(outcome.queries[4].hits.iter().all(|h| h.row % 2 == 0));
    }
}

/// A generated two-feature collection over `rows` objects: peaky normalized
/// 16-bin histograms (the engine's table, searched with histogram
/// intersection) and 10-dimensional texture vectors in `[0, 1]` (an external
/// table, searched with Euclidean distance). No row is deleted.
fn two_feature_collection(rows: usize) -> (DecomposedTable, Arc<DecomposedTable>) {
    let mut state = 0x5EED_F00D_2002u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut color = Vec::with_capacity(rows);
    let mut texture = Vec::with_capacity(rows);
    for _ in 0..rows {
        let mut v: Vec<f64> = (0..16).map(|_| next().powi(4) + 1e-3).collect();
        let total: f64 = v.iter().sum();
        v.iter_mut().for_each(|x| *x /= total);
        color.push(v);
        texture.push((0..10).map(|_| next() * next()).collect::<Vec<f64>>());
    }
    (
        DecomposedTable::from_vectors("color", &color).unwrap(),
        Arc::new(DecomposedTable::from_vectors("texture", &texture).unwrap()),
    )
}

/// Multi-feature answers, pinned bit for bit: every hit's row and score
/// bits of the engine (1, 3 and 8 partitions, 1 and 2 threads, every
/// aggregate, with and without a filter, `k` of 1, 10 and every eligible
/// row) and of the sequential searcher fold into one digest, recorded from
/// the synchronized scan's hand-written block loop before it ran on the
/// shared one. Scores depend only on the per-feature sums in the global
/// dimension order, so the digest is the same under every kernel.
#[test]
fn multifeature_answers_match_the_recorded_digest() {
    const ROWS: usize = 300;
    let (color, texture) = two_feature_collection(ROWS);
    let query = color.row(17).unwrap();
    let tquery = texture.row(200).unwrap();
    let mask: Vec<bool> = (0..ROWS).map(|r| r % 5 < 2).collect();
    let eligible = mask.iter().filter(|&&m| m).count();
    let aggregates = [
        AggregateSpec::WeightedAverage(vec![0.6, 0.4]),
        AggregateSpec::FuzzyMin,
        AggregateSpec::FuzzyMax,
    ];
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |hits: &[Scored]| {
        for x in std::iter::once(hits.len() as u64)
            .chain(hits.iter().flat_map(|h| [u64::from(h.row), h.score.to_bits()]))
        {
            digest ^= x;
            digest = digest.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for partitions in [1, 3, 8] {
        for threads in [1, 2] {
            let engine = Engine::builder(color.clone())
                .partitions(partitions)
                .threads(threads)
                .build()
                .unwrap();
            for aggregate in &aggregates {
                for filtered in [false, true] {
                    let all = if filtered { eligible } else { ROWS };
                    for k in [1, 10, all] {
                        let features = vec![
                            FeatureSpec::new(
                                query.clone(),
                                FeatureMetricKind::HistogramIntersection,
                            ),
                            FeatureSpec::external(
                                tquery.clone(),
                                FeatureMetricKind::Euclidean,
                                texture.clone(),
                            ),
                        ];
                        let spec = QuerySpec::multi_feature(
                            MultiFeatureSpec::new(features, aggregate.clone()),
                            k,
                        );
                        let spec =
                            if filtered { spec.filter(bitmap_from_mask(&mask)) } else { spec };
                        fold(&engine.search_spec(&spec).unwrap().hits);
                    }
                }
            }
        }
    }
    let sequential = MultiFeatureSearcher::new(vec![&color, &texture]).unwrap();
    let queries = vec![
        FeatureQuery { query: query.clone(), metric: FeatureMetricKind::HistogramIntersection },
        FeatureQuery { query: tquery.clone(), metric: FeatureMetricKind::Euclidean },
    ];
    let schedule = bond::BondParams::default().schedule;
    let mut pruned = 0;
    for aggregate in &aggregates {
        for k in [1, 10, ROWS] {
            let aggregate = aggregate.build().unwrap();
            let outcome = sequential.search(&queries, aggregate.as_ref(), k, schedule).unwrap();
            fold(&outcome.hits);
            pruned += outcome.trace.checkpoints.iter().map(|c| c.pruned_now).sum::<usize>();
        }
    }
    assert!(pruned > ROWS, "only {pruned} candidates pruned: the digest misses the loop");
    assert_eq!(format!("{digest:016x}"), "a6c1c135ddde9154");
}

/// A row deleted from an external feature collection is never a
/// multi-feature answer, though the engine's own table still holds it.
#[test]
fn rows_deleted_from_an_external_feature_are_never_answers() {
    // row 19 scores best under an HI query on dimension 0; then 18, 17, …
    let vectors: Vec<Vec<f64>> =
        (0..20).map(|r| vec![r as f64 / 20.0, 1.0 - r as f64 / 20.0]).collect();
    let table = DecomposedTable::from_vectors("ramp", &vectors).unwrap();
    let mut external = table.clone();
    external.delete(19).unwrap();
    let external = Arc::new(external);
    let query = vec![1.0, 0.0];
    for features in [
        vec![FeatureSpec::external(
            query.clone(),
            FeatureMetricKind::HistogramIntersection,
            external.clone(),
        )],
        vec![
            FeatureSpec::new(query.clone(), FeatureMetricKind::HistogramIntersection),
            FeatureSpec::external(
                query.clone(),
                FeatureMetricKind::HistogramIntersection,
                external.clone(),
            ),
        ],
    ] {
        let spec =
            QuerySpec::multi_feature(MultiFeatureSpec::new(features, AggregateSpec::FuzzyMin), 3);
        for partitions in [1, 3] {
            let engine =
                Engine::builder(table.clone()).partitions(partitions).threads(2).build().unwrap();
            let rows: Vec<RowId> =
                engine.search_spec(&spec).unwrap().hits.iter().map(|h| h.row).collect();
            assert_eq!(rows, vec![18, 17, 16], "partitions {partitions}");
        }
    }
}
