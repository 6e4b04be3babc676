//! # vdstore — a vertically decomposed in-memory column store
//!
//! This crate is the storage substrate for the BOND reproduction (de Vries,
//! Mamoulis, Nes, Kersten: *Efficient k-NN Search on Vertically Decomposed
//! Data*, SIGMOD 2002). It implements the Decomposition Storage Model
//! (Copeland & Khoshafian, SIGMOD 1985) the way the paper's Monet
//! implementation uses it:
//!
//! * every dimension of a feature-vector collection is stored in its own
//!   [`Column`] (a BAT with a *virtual*, densely ascending OID head and a
//!   `f64` tail),
//! * a [`DecomposedTable`] groups the per-dimension columns of one feature
//!   collection and offers row-major construction, appends, tombstone
//!   deletes and subspace views,
//! * the physical operators the MIL program of Section 6.1 relies on live in
//!   [`ops`]: `kfetch` (k-th largest/smallest element), `uselect` (unary
//!   range select), positional joins/gathers and element-wise maps,
//! * [`Bitmap`] is the candidate-set representation used in the early BOND
//!   iterations before the engine switches to materialised candidate lists,
//! * [`codes`] builds the per-segment `u8` code companions — the one
//!   scalar quantization of the workspace: the execution engine's
//!   quantized first-pass filter sweeps them (persisted in the store footer
//!   and exposed zero-copy on the mapped backend), and the VA-File
//!   baseline and the Figure 9 / Table 4 experiments build a one-segment
//!   companion,
//! * [`stats`] computes the dataset statistics of Figure 2 that motivate the
//!   dimension-ordering heuristics,
//! * [`persist`] writes the persistent segment store: the column fragments
//!   8-byte aligned with a stats/zone-map footer, so a reopened store hands
//!   its partition boundaries and [`SegmentStats`] to a planner before any
//!   data page is touched,
//! * [`mmap`] provides the file-backed [`MappedRegion`] a reopened store's
//!   columns can view zero-copy ([`StorageBackend::Mapped`]), with heap
//!   decoding ([`StorageBackend::Heap`]) as the portable fallback.
//!
//! The crate is deliberately free of any knowledge about similarity metrics
//! or pruning rules — those live in `bond-metrics` and `bond-core`.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bat;
pub mod bitmap;
pub mod checksum;
pub mod codes;
pub mod column;
pub mod error;
pub mod mmap;
pub mod ops;
pub mod persist;
pub mod rowmatrix;
pub mod segment;
pub mod stats;
pub mod table;
pub mod topk;

pub use bat::{Bat, Head};
pub use bitmap::Bitmap;
pub use codes::{
    BlockEnvelopes, CodeColumn, CodeParams, SegmentCodesView, StoreCodes, DEFAULT_CODE_BITS,
};
pub use column::{Column, ColumnData};
pub use error::{Result, VdError};
pub use mmap::{MappedRegion, StorageBackend};
pub use persist::{PersistReport, PersistedStore};
pub use rowmatrix::RowMatrix;
pub use segment::{Envelope, Segment, SegmentSpec, SegmentStats};
pub use stats::{ColumnStats, DatasetStats};
pub use table::{DecomposedTable, TableBuilder};
pub use topk::{ascending_nan_last, descending_nan_last, TopKLargest, TopKSmallest};

/// Row identifier inside a decomposed table.
///
/// The paper exploits the "known, densely ascending order of histograms" to
/// avoid materialising histogram identifiers; we keep the same invariant:
/// a `RowId` is simply the dense position of the vector in the collection.
pub type RowId = u32;
