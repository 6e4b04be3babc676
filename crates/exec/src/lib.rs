//! # bond-exec — a parallel, partitioned, batched query-execution engine
//!
//! The core crate reproduces the paper's algorithm: one query, one thread,
//! one pass over the fragments. This crate turns it into a *serving
//! engine*:
//!
//! * **An owned, shareable engine** — [`Engine`] owns its table behind an
//!   `Arc`, stores partition boundaries as lifetime-free
//!   [`vdstore::SegmentSpec`]s with cached [`vdstore::SegmentStats`], and
//!   materialises the zero-copy [`vdstore::Segment`] views per call. It is
//!   `Send + Sync + 'static` and clones in O(1), so it can live in a
//!   server struct and serve concurrent request threads for the life of
//!   the process.
//! * **Horizontal partitioning** — the table is split into contiguous
//!   row-range segments; BOND's per-fragment partial scores depend only on
//!   a candidate's own coefficients, so segments are independently
//!   scannable units, exactly like the independent searchers of
//!   parallel-ensemble k-NN designs.
//! * **Parallel BOND with κ sharing** — every segment runs the unmodified
//!   pruning rules, but publishes its κ into one atomic [`SharedKappa`]
//!   cell per query: the κ a segment that started with none proves by
//!   completing `k` rows after its first block, and every finished
//!   segment's k-th exact score. A tight bound found in one segment
//!   immediately prunes candidates in all others, recovering most of the
//!   pruning power a single full-table search has — the split is *not*
//!   embarrassingly parallel, it is cooperative branch-and-bound.
//! * **Heterogeneous batched execution** — a [`RequestBatch`] of
//!   [`QuerySpec`]s schedules all `queries × segments` work items on one
//!   worker pool. Every spec carries its own `k` and kind (top-k,
//!   filtered, multi-feature) and may override the engine's pruning rule
//!   and planner, so mixed workloads (navigation steps next to weighted
//!   re-ranking jobs) execute in a single pass;
//!   per-query setup (dimension ordering, the Ev rule's `T(x)` table,
//!   thread spawn) is amortized across the batch, and every query still
//!   reports per-segment [`bond::PruneTrace`]s.
//! * **Exactness** — every segment runs the query's one
//!   [`bond::SegmentPlan`] and refines its survivors to exact scores in
//!   the *same* dimension order the sequential searcher uses; since the k
//!   best rows under the total `(score, row id)` order are unique, every
//!   answer equals the sequential searcher's ([`bond::BondSearcher`]) bit
//!   for bit, whatever the planner and scan mode.
//! * **Segment skipping** — under [`PlannerKind::Adaptive`] (engine-wide
//!   or per query) segments are visited most-promising-first by their
//!   zone-map envelope bound, and segments whose bound provably cannot
//!   reach the query's current κ are skipped without touching their
//!   columns.
//! * **Admission control** — [`service::Server`] validates every
//!   submitted [`QuerySpec`], queues it under its [`Priority`] class and
//!   drains Interactive → Normal → Batch, first come first served within a
//!   class, into coalesced batches of at most
//!   [`service::ServerBuilder::max_batch`]. Rejected submissions are
//!   counted ([`service::Server::queries_rejected`]).
//! * **Weighted rules** — [`RuleKind::WeightedHistogram`] /
//!   [`RuleKind::WeightedEuclidean`] carry per-dimension weights through
//!   the same engine: weighted orderings, the safe weighted bounds, and
//!   subspace queries (0/1 weights) all execute partitioned and batched.
//! * **Persistence & cold start** — [`Engine::persist`] writes the table,
//!   the partition boundaries and the cached per-segment statistics as a
//!   versioned segment store (`vdstore::persist`, format `BONDVD02`);
//!   [`EngineBuilder::open`] reopens it — in any process — into a fully
//!   validated engine whose `SegmentSpec`s, statistics and zone-map
//!   envelopes come straight from the store's footer. Under
//!   [`vdstore::StorageBackend::Mapped`] the column fragments are *viewed*
//!   through a read-only file mapping: planning and whole-segment
//!   skipping work before a single data page is faulted in, and collections
//!   larger than RAM stay servable.
//! * **Quantized first-pass scanning** — [`ScanMode::QuantizedFilter`]
//!   runs BOND on per-segment `u8` code columns ([`vdstore::StoreCodes`],
//!   [`bond::quantfilter`]) before the exact search — a progressive sweep,
//!   eight columns at a time in plan order, segments visited
//!   most-promising-first, κ tightened and candidates dropped after every
//!   block: only rows whose optimistic interval bound still reaches the
//!   query's κ fall through to `f64` refinement, and the answers stay
//!   bit-identical to [`ScanMode::Exact`]. Codes persist in the store
//!   footer, so reopened engines filter without re-encoding.
//! * **Predicate-filtered k-NN** — [`QuerySpec::filter`] pushes an
//!   eligible-row [`vdstore::Bitmap`] into every layer of the search: the
//!   exact scan, κ seeding, the quantized first pass and the zone-map
//!   segment-skip bounds all respect the filter; segments with zero
//!   eligible rows are skipped outright, and a filter that empties the
//!   table is rejected at admission as
//!   [`bond::BondError::InvalidFilter`]. Filtered answers are
//!   bit-identical to a brute-force filter-then-scan.
//! * **Multi-feature combination queries** — a [`QuerySpec`] built with
//!   [`QuerySpec::multi_feature`] carries a [`MultiFeatureSpec`] (one
//!   [`FeatureSpec`] per feature plus an [`AggregateSpec`]) through the
//!   same partitioned engine: every segment runs
//!   [`bond::MultiFeatureSearcher`]'s synchronized scan — the crate's one
//!   BOND loop over the union of the features' dimensions, each feature
//!   kept by the single-table search's exact-partials code over the
//!   segment's rows — combined bounds pool under the shared κ protocol, a
//!   row deleted from any feature collection is never an answer, and
//!   per-feature dimensions are validated up front
//!   ([`bond::BondError::FeatureDimensionMismatch`]).
//! * **Relational programs** — [`KnnProgram`] executes range selects
//!   through `bond-relalg`'s algebraic operators and pushes the combined
//!   candidate bitmap down into the k-NN operator as exactly the filter
//!   above, logging the MIL-style script it ran.
//! * **A serving front-end** — [`service::Server`] wraps a cloned engine
//!   in a submission queue: concurrent threads submit individual
//!   [`QuerySpec`]s, a worker coalesces them into engine batches, and
//!   answers route back through per-request tickets.
//! * **End-to-end observability** — every engine owns a
//!   [`bond_obs::MetricsRegistry`] into which the engine, planner, store
//!   and service layers emit counters, gauges and histograms under
//!   stable dotted names; stage-level [`bond_obs::Span`]s trace
//!   plan/scan/warmup/merge/persist/queue stages when enabled (a single
//!   relaxed load when not); and [`Engine::explain`] renders the exact
//!   per-segment plan a [`QuerySpec`] would run, which
//!   [`batch::QueryOutcome::analyze`] joins post-execution against the
//!   executed [`bond::PruneTrace`]s.
//!
//! ## Quick start
//!
//! ```
//! use bond_exec::{Engine, PlannerKind, QuerySpec, RequestBatch, RuleKind};
//! use vdstore::DecomposedTable;
//!
//! let vectors: Vec<Vec<f64>> = (0..100)
//!     .map(|i| vec![i as f64 / 100.0, 1.0 - i as f64 / 100.0])
//!     .collect();
//! let table = DecomposedTable::from_vectors("demo", &vectors).unwrap();
//!
//! // the engine takes ownership of the table (Arc'd internally) …
//! let engine = Engine::builder(table)
//!     .partitions(4)
//!     .threads(2)
//!     .rule(RuleKind::EuclideanEq)
//!     .build()
//!     .unwrap();
//!
//! // … one query under the engine defaults …
//! let outcome = engine.search(&[0.25, 0.75], 3).unwrap();
//! assert_eq!(outcome.hits.len(), 3);
//! assert_eq!(outcome.hits[0].row, 25);
//!
//! // … or a heterogeneous batch: per-query k, rule and planner.
//! let batch = RequestBatch::from_specs(vec![
//!     QuerySpec::new(vec![0.1, 0.9], 5),
//!     QuerySpec::new(vec![0.9, 0.1], 1).rule(RuleKind::HistogramHq),
//!     QuerySpec::new(vec![0.5, 0.5], 2).planner(PlannerKind::Adaptive),
//! ]);
//! let answers = engine.execute(&batch).unwrap();
//! assert_eq!(answers.queries.len(), 3);
//! assert_eq!(answers.queries[1].hits.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod batch;
pub mod engine;
pub mod explain;
pub mod kappa;
pub mod planner;
pub mod relational;
pub mod rules;
pub mod service;

pub use batch::{
    AggregateSpec, BatchOutcome, FeatureSpec, MultiFeatureSpec, Priority, QueryKind, QueryOutcome,
    QuerySpec, RequestBatch, ScanMode, SegmentRun,
};
pub use bond_obs::MetricsRegistry;
pub use engine::{Engine, EngineBuilder};
pub use explain::{QueryAnalysis, QueryExplain, SegmentAnalysis, SegmentExplain};
pub use kappa::SharedKappa;
pub use planner::PlannerKind;
pub use relational::{KnnProgram, RelationalRun, SelectStep};
pub use rules::RuleKind;
pub use service::{Server, ServerBuilder, Ticket};

#[cfg(test)]
mod tests {
    use super::*;
    use bond::BondError;
    use vdstore::DecomposedTable;

    fn table(rows: usize, dims: usize) -> DecomposedTable {
        // deterministic, mildly skewed synthetic histograms
        let vectors: Vec<Vec<f64>> = (0..rows)
            .map(|r| {
                let mut v: Vec<f64> =
                    (0..dims).map(|d| ((r * 31 + d * 17) % 97) as f64 + 1.0).collect();
                let total: f64 = v.iter().sum();
                v.iter_mut().for_each(|x| *x /= total);
                v
            })
            .collect();
        DecomposedTable::from_vectors("t", &vectors).unwrap()
    }

    #[test]
    fn engine_is_send_sync_static_and_cheaply_clonable() {
        fn assert_send_sync_static<T: Send + Sync + 'static>() {}
        assert_send_sync_static::<Engine>();
        assert_send_sync_static::<Server>();
        assert_send_sync_static::<QuerySpec>();
        assert_send_sync_static::<RequestBatch>();

        // an engine outlives the stack frame its table was built in, and a
        // clone can be moved into a spawned (non-scoped) thread
        let engine = {
            let t = table(100, 4);
            Engine::builder(t).partitions(2).threads(1).build().unwrap()
        };
        let q = engine.table().row(10).unwrap();
        let clone = engine.clone();
        let hits = std::thread::spawn(move || clone.search(&q, 3).unwrap().hits).join().unwrap();
        let q = engine.table().row(10).unwrap();
        assert_eq!(hits, engine.search(&q, 3).unwrap().hits);
    }

    #[test]
    fn engine_matches_sequential_for_every_rule() {
        let table = table(500, 16);
        let query = table.row(123).unwrap();
        for rule in RuleKind::ALL {
            let engine = Engine::builder(table.clone())
                .partitions(4)
                .threads(3)
                .rule(rule.clone())
                .build()
                .unwrap();
            let parallel = engine.search(&query, 10).unwrap();
            let sequential = engine.sequential_reference(&query, 10).unwrap();
            assert_eq!(parallel.hits, sequential, "rule {}", rule.name());
        }
    }

    #[test]
    fn batch_answers_match_single_queries() {
        let table = table(300, 8);
        let engine = Engine::builder(table).partitions(3).threads(2).build().unwrap();
        let queries: Vec<Vec<f64>> = (0..5).map(|i| engine.table().row(i * 37).unwrap()).collect();
        let batch = RequestBatch::from_queries(queries.clone(), 7);
        let outcome = engine.execute(&batch).unwrap();
        assert_eq!(outcome.queries.len(), 5);
        for (q, merged) in queries.iter().zip(&outcome.queries) {
            let single = engine.search(q, 7).unwrap();
            assert_eq!(single.hits, merged.hits);
            assert_eq!(merged.segments.len(), engine.partitions());
        }
    }

    #[test]
    fn mixed_k_mixed_rule_batches_answer_each_spec_on_its_own_terms() {
        let table = table(400, 8);
        let engine = Engine::builder(table)
            .partitions(3)
            .threads(2)
            .rule(RuleKind::HistogramHh)
            .build()
            .unwrap();
        let specs = vec![
            QuerySpec::new(engine.table().row(11).unwrap(), 1),
            QuerySpec::new(engine.table().row(42).unwrap(), 9).rule(RuleKind::EuclideanEv),
            QuerySpec::new(engine.table().row(99).unwrap(), 4)
                .rule(RuleKind::EuclideanEq)
                .planner(PlannerKind::Adaptive),
            QuerySpec::new(engine.table().row(7).unwrap(), 17).rule(
                RuleKind::weighted_euclidean(vec![1.0, 2.0, 0.0, 1.0, 4.0, 1.0, 1.0, 0.5]).unwrap(),
            ),
        ];
        let outcome = engine.execute(&RequestBatch::from_specs(specs.clone())).unwrap();
        assert_eq!(outcome.queries.len(), specs.len());
        for (spec, merged) in specs.iter().zip(&outcome.queries) {
            assert_eq!(merged.hits.len(), spec.k(), "each spec gets its own k");
            assert_eq!(merged.hits, engine.search_spec(spec).unwrap().hits);
        }
    }

    #[test]
    fn tombstoned_rows_never_surface() {
        let mut t = table(200, 8);
        let query = t.row(50).unwrap();
        t.delete(50).unwrap(); // the best possible match is deleted
        let engine = Engine::builder(t).partitions(4).threads(2).build().unwrap();
        let outcome = engine.search(&query, 5).unwrap();
        assert_eq!(outcome.hits.len(), 5);
        assert!(outcome.hits.iter().all(|h| h.row != 50));
    }

    #[test]
    fn validation_matches_the_sequential_searcher() {
        let t = table(50, 4);
        let engine = Engine::builder(t.clone()).partitions(2).threads(1).build().unwrap();
        assert!(matches!(
            engine.search(&[0.5; 3], 1),
            Err(BondError::QueryDimensionMismatch { .. })
        ));
        let q = t.row(0).unwrap();
        assert!(matches!(engine.search(&q, 0), Err(BondError::InvalidK { .. })));
        assert!(matches!(engine.search(&q, 51), Err(BondError::InvalidK { .. })));
        // empty batch is fine
        let empty = engine.execute(&RequestBatch::new()).unwrap();
        assert!(empty.queries.is_empty());
        // per-spec rule overrides are validated before any work starts
        let bad = QuerySpec::new(q.clone(), 1).rule(RuleKind::WeightedEuclidean(vec![-1.0; 4]));
        assert!(matches!(engine.search_spec(&bad), Err(BondError::InvalidParams(_))));
        let short = QuerySpec::new(q.clone(), 1).rule(RuleKind::WeightedEuclidean(vec![1.0; 3]));
        assert!(matches!(
            engine.search_spec(&short),
            Err(BondError::WeightDimensionMismatch { .. })
        ));
        // one bad spec fails the whole batch up front
        let batch = RequestBatch::from_specs(vec![QuerySpec::new(q, 1), short]);
        assert!(engine.execute(&batch).is_err());
    }

    #[test]
    fn build_rejects_zero_partitions_and_threads() {
        let t = table(20, 4);
        assert!(matches!(
            Engine::builder(t.clone()).partitions(0).build(),
            Err(BondError::InvalidParams(_))
        ));
        assert!(matches!(
            Engine::builder(t.clone()).threads(0).build(),
            Err(BondError::InvalidParams(_))
        ));
        // a descriptive message, not a silent clamp
        let msg = match Engine::builder(t).partitions(0).build() {
            Err(BondError::InvalidParams(msg)) => msg,
            other => panic!("expected InvalidParams, got {other:?}"),
        };
        assert!(msg.contains("partitions"));
    }

    #[test]
    fn build_rejects_invalid_default_rules() {
        let t = table(50, 4);
        // directly constructed invalid weights error at build, not mid-search
        assert!(matches!(
            Engine::builder(t.clone()).rule(RuleKind::WeightedEuclidean(vec![-1.0; 4])).build(),
            Err(BondError::InvalidParams(_))
        ));
        assert!(matches!(
            Engine::builder(t).rule(RuleKind::WeightedEuclidean(vec![1.0; 3])).build(),
            Err(BondError::WeightDimensionMismatch { .. })
        ));
    }

    #[test]
    fn more_partitions_than_rows_degrades_gracefully() {
        let t = table(5, 4);
        let engine = Engine::builder(t).partitions(64).threads(8).build().unwrap();
        assert!(engine.partitions() <= 5);
        let q = engine.table().row(2).unwrap();
        let outcome = engine.search(&q, 5).unwrap();
        assert_eq!(outcome.hits.len(), 5);
        assert_eq!(outcome.hits[0].row, 2);
    }

    #[test]
    fn kappa_sharing_reduces_work_without_changing_answers() {
        let table = table(2000, 24);
        let query = table.row(7).unwrap();
        let shared = Engine::builder(table.clone())
            .partitions(4)
            .threads(1) // deterministic interleaving for a fair work count
            .rule(RuleKind::HistogramHh)
            .build()
            .unwrap();
        let isolated = Engine::builder(table)
            .partitions(4)
            .threads(1)
            .rule(RuleKind::HistogramHh)
            .share_kappa(false)
            .build()
            .unwrap();
        let with = shared.search(&query, 5).unwrap();
        let without = isolated.search(&query, 5).unwrap();
        assert_eq!(with.hits, without.hits);
        assert!(
            with.contributions_evaluated() <= without.contributions_evaluated(),
            "κ sharing must never increase the scanned work: {} vs {}",
            with.contributions_evaluated(),
            without.contributions_evaluated()
        );
    }

    #[test]
    fn segment_stats_expose_per_partition_distributions() {
        let t = table(100, 6);
        let engine = Engine::builder(t).partitions(4).threads(1).build().unwrap();
        let stats = engine.segment_stats();
        assert_eq!(stats.len(), engine.partitions());
        assert_eq!(stats.len(), engine.segment_specs().len());
        assert!(stats.iter().all(|s| s.per_dim.len() == 6));
        // segments tile the table
        assert_eq!(stats.first().unwrap().range.start, 0);
        assert_eq!(stats.last().unwrap().range.end, 100);
        // specs and stats agree on the boundaries
        for (spec, stat) in engine.segment_specs().iter().zip(stats) {
            assert_eq!(spec.range(), stat.range);
        }
    }
}
