//! Umbrella crate for the BOND reproduction.
//!
//! The actual functionality lives in the workspace crates; this crate only
//! re-exports them under one roof so that the runnable examples under
//! `examples/` and the cross-crate integration tests under `tests/` have a
//! single, convenient dependency. Library users should depend on the
//! individual crates (`bond-core`, `vdstore`, …) directly.
//!
//! The contract the crates keep: every answer the engine returns equals the
//! sequential searcher's bit for bit, whatever the planner, scan mode,
//! partitioning or kernel.

#![warn(missing_docs)]

pub use bond;
pub use bond_baselines as baselines;
pub use bond_datagen as datagen;
pub use bond_exec as exec;
pub use bond_metrics as metrics;
pub use bond_obs as obs;
pub use bond_relalg as relalg;
pub use vdstore;

pub use bond_exec::{
    Engine, EngineBuilder, PlannerKind, Priority, QuerySpec, RequestBatch, RuleKind, ScanMode,
    Server, ServerBuilder, Ticket,
};

pub use bond_exec::{
    MetricsRegistry, QueryAnalysis, QueryExplain, SegmentAnalysis, SegmentExplain,
};

/// The open query surface (PR 9): predicate-filtered k-NN, multi-feature
/// combination requests and relational programs as first-class
/// [`QuerySpec`]s.
///
/// A relational predicate rides along as an eligibility bitmap:
///
/// ```
/// use bond_repro::{Engine, QuerySpec};
/// use vdstore::{Bitmap, DecomposedTable};
///
/// let vectors: Vec<Vec<f64>> = (0..80)
///     .map(|i| vec![i as f64 / 80.0, 1.0 - i as f64 / 80.0])
///     .collect();
/// let engine = Engine::builder(DecomposedTable::from_vectors("demo", &vectors).unwrap())
///     .partitions(4)
///     .build()
///     .unwrap();
/// // only even rows compete for the top-3 …
/// let evens: Vec<u32> = (0..80).filter(|r| r % 2 == 0).collect();
/// let spec = QuerySpec::new(vec![0.5, 0.5], 3).filter(Bitmap::from_rows(80, &evens));
/// let outcome = engine.search_spec(&spec).unwrap();
/// assert!(outcome.hits.iter().all(|h| h.row % 2 == 0));
/// ```
///
/// A multi-feature request combines several collections under one
/// monotonic aggregate ([`QuerySpec::multi_feature`]):
///
/// ```
/// use bond_repro::{AggregateSpec, Engine, FeatureSpec, MultiFeatureSpec, QuerySpec};
/// use bond::FeatureMetricKind;
/// use vdstore::DecomposedTable;
///
/// let vectors: Vec<Vec<f64>> = (0..40)
///     .map(|i| vec![i as f64 / 40.0, 1.0 - i as f64 / 40.0])
///     .collect();
/// let engine = Engine::builder(DecomposedTable::from_vectors("demo", &vectors).unwrap())
///     .partitions(2)
///     .build()
///     .unwrap();
/// let spec = QuerySpec::multi_feature(
///     MultiFeatureSpec::new(
///         vec![
///             FeatureSpec::new(vec![0.3, 0.7], FeatureMetricKind::HistogramIntersection),
///             FeatureSpec::new(vec![0.3, 0.7], FeatureMetricKind::Euclidean),
///         ],
///         AggregateSpec::WeightedAverage(vec![0.5, 0.5]),
///     ),
///     5,
/// );
/// assert_eq!(engine.search_spec(&spec).unwrap().hits.len(), 5);
/// ```
///
/// And [`KnnProgram`] runs relational selects ahead of the k-NN operator,
/// pushing their conjunction down as exactly that filter bitmap.
pub use bond_exec::{
    AggregateSpec, FeatureSpec, KnnProgram, MultiFeatureSpec, QueryKind, RelationalRun, SelectStep,
};

pub use vdstore::{Advice, PersistedStore, StorageBackend};

/// The unified error enum every layer of the workspace reports through:
/// storage errors wrap as [`BondError::Storage`], engine/builder validation
/// as the parameter variants, and the service layer as
/// [`BondError::ServiceUnavailable`].
pub use bond::BondError;
/// Convenience alias over [`BondError`].
pub use bond::Result;
