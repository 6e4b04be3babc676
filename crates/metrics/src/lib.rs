//! # bond-metrics — similarity metrics and pruning bounds for BOND
//!
//! This crate contains the *mathematics* of the paper:
//!
//! * the two similarity metrics used throughout — **histogram
//!   intersection** (Definition 1) and **(squared) Euclidean distance**
//!   (Definition 2) — plus the weighted Euclidean distance of the appendix
//!   (Definition 3), all exposed through the [`DecomposableMetric`] trait,
//! * the pruning bounds that drive the branch-and-bound iteration:
//!   * `Hq` — histogram intersection, query-only bound (Equations 5–6),
//!   * `Hh` — histogram intersection, per-vector bound using the scanned
//!     mass `T(h⁻)` (Equations 7–9),
//!   * `Eq` — Euclidean, query-only bound (Equation 10),
//!   * `Ev` — Euclidean, per-vector bound using the remaining mass `T(v⁺)`
//!     (Lemmas 1 and 2),
//!   * weighted variants of the above (Appendix A, with a corrected — and
//!     provably safe — upper bound, see [`bounds::weighted`]),
//! * the monotonic aggregate functions used by multi-feature queries
//!   (Section 8.2): weighted average and the fuzzy-logic `min`/`max`.
//!
//! All bounds implement [`bounds::PruningRule`]; the BOND engine in
//! `bond-core` is generic over that trait, so new metrics only need a new
//! rule implementation.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod aggregate;
pub mod bounds;
pub mod metric;

pub use aggregate::{FuzzyMax, FuzzyMin, ScoreAggregate, WeightedAverage};
pub use bounds::{
    euclid::{EqRule, EvRule},
    histogram::{HhRule, HqRule},
    weighted::{WeightedEvRule, WeightedHqRule},
    CandidateState, OptimisticTail, PruningRule, Requirements,
};
pub use metric::{
    DecomposableMetric, HistogramIntersection, KernelOp, Objective, SquaredEuclidean,
    WeightedHistogramIntersection, WeightedSquaredEuclidean,
};
