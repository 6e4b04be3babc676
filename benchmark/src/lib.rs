//! The repository's benchmark: four single-busy-thread workloads whose
//! timings are reported in reference-scan units, plus a traced run that
//! measures every layer from outside. See `README.md` beside `Cargo.toml`.

#![warn(missing_docs)]

pub mod clock;
pub mod harness;
pub mod json;
pub mod layers;
pub mod names;
pub mod refscan;
pub mod selfcheck;
pub mod stats;
pub mod trace;
pub mod workloads;
