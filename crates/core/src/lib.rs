//! # bond — Branch-and-bound ON Decomposed data
//!
//! This crate is the reproduction of the paper's primary contribution:
//! k-nearest-neighbour search that scans the dimensional fragments of a
//! vertically decomposed feature collection one block at a time, maintains
//! partial scores for all surviving candidates, and after every block prunes
//! the vectors whose best-case final score can no longer reach the k-th best
//! worst-case score (Algorithm 2).
//!
//! ## Quick start
//!
//! ```
//! use bond::{BondParams, BondSearcher};
//! use vdstore::DecomposedTable;
//!
//! // a tiny collection of normalized histograms, one column per dimension
//! let table = DecomposedTable::from_vectors(
//!     "demo",
//!     &[
//!         vec![0.8, 0.1, 0.05, 0.05],
//!         vec![0.1, 0.3, 0.4, 0.2],
//!         vec![0.7, 0.15, 0.15, 0.0],
//!     ],
//! )
//! .unwrap();
//!
//! let searcher = BondSearcher::new(&table);
//! let query = vec![0.7, 0.15, 0.1, 0.05];
//! let outcome = searcher
//!     .histogram_intersection_hq(&query, 2, &BondParams::default())
//!     .unwrap();
//! assert_eq!(outcome.hits.len(), 2);
//! assert_eq!(outcome.hits[0].row, 2); // the histogram most similar to the query
//! ```
//!
//! ## Module map
//!
//! BOND's block loop — sweep a block, bound every candidate, take κ as the
//! k-th best safe bound, drop what cannot reach it — is written once (the
//! private `bond_loop` module) and runs in two spaces: over code intervals
//! ([`quantfilter`]) and over exact partial scores ([`searcher`]). Each
//! space supplies only its sweep and its bounds.
//!
//! * [`searcher`] — BOND search (Algorithm 2) over exact partial scores and
//!   a [`metrics::PruningRule`]'s bounds; [`search_segment`] runs the code
//!   sweep first when a segment has codes, then refines its survivors
//!   exactly, best code bound first,
//! * [`candidates`] — the bitmap-then-materialise candidate set of Section
//!   6.1 and the pruning pass over it, 64 rows at a time,
//! * [`ordering`] — dimension orderings (Section 5.1),
//! * [`schedule`] — how many dimensions to scan between pruning attempts
//!   (Section 5.2),
//! * [`plan`] — [`SegmentPlan`], the resolved (order, schedule) pair every
//!   segment of one query runs,
//! * [`feedback`] — [`ExecFeedback`], the lock-free per-segment
//!   accumulators that fold every query's pruning trace into observed
//!   counters (warmups, skip hits/misses, candidate survival, code cells),
//! * [`cost`] — [`CostModel`], the per-segment cost estimates,
//! * [`weighted`] — weighted and subspace k-NN queries (Section 8.1),
//! * [`multifeature`] — synchronized multi-feature search (Section 8.2),
//! * [`quantfilter`] — BOND on 8-bit codes (Section 7.4, Figure 9 /
//!   Table 4), the quantized first pass the execution engine runs before
//!   the exact search: LUT sweeps over `u8` code columns bound every
//!   candidate after each block; also the full interval score bounds the
//!   VA-File baseline filters with, and approximate codes-only top-k,
//! * [`kernels`] — the runtime-dispatched ISA-pinned implementations of the
//!   two hot loops (quantized LUT sweep, exact contribution accumulate):
//!   AVX2 / NEON / portable scalar, selected once per process and
//!   overridable with `BOND_KERNEL`, all bit-identical to the scalar
//!   reference,
//! * [`trace`] — the pruning traces from which every figure of the paper's
//!   evaluation is regenerated.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod bond_loop;
pub mod candidates;
pub mod cost;
pub mod error;
pub mod feedback;
pub mod kappa;
pub mod kernels;
pub mod multifeature;
pub mod ordering;
pub mod plan;
pub mod quantfilter;
pub mod schedule;
pub mod searcher;
pub mod trace;
pub mod weighted;

pub use candidates::CandidateSet;
pub use cost::CostModel;
pub use error::{BondError, Result};
pub use feedback::{ExecFeedback, FeedbackSnapshot, SegmentFeedback, SegmentFeedbackSnapshot};
pub use kappa::KappaCell;
pub use kernels::Kernel;
pub use multifeature::{
    FeatureMetricKind, FeatureQuery, MultiFeatureContext, MultiFeatureSearcher,
};
pub use ordering::DimensionOrdering;
pub use plan::SegmentPlan;
pub use quantfilter::{ApproxOutcome, QuantFilter, QuantScratch};
pub use schedule::BlockSchedule;
pub use searcher::{
    prune_slack, search_segment, BondParams, BondSearcher, SearchOutcome, SegmentContext,
};
pub use trace::{PruneTrace, TraceCheckpoint};
pub use weighted::WeightedHistogramIntersection;

// Re-export the vocabulary types callers need.
pub use bond_metrics as metrics;
pub use vdstore::topk::Scored;
pub use vdstore::RowId;
