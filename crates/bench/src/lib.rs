//! # bond-bench — the experiment harness
//!
//! One module per evaluation artifact of the paper:
//!
//! * [`workloads`] — builds the datasets and query sets every experiment
//!   shares (Corel-like histograms, clustered vectors, weight vectors);
//! * [`figures`] — regenerates the pruning-efficiency figures (Figures 2 and
//!   4–11): every function returns the plotted series as plain data;
//! * [`tables`] — regenerates the worked example (Table 2) and the response
//!   time tables (Tables 3 and 4);
//! * [`multifeature`] — the synchronized-search vs. engine vs. stream-merging
//!   experiment of Section 8.2;
//! * [`ablation`] — ablations of BOND's own design choices (block size `m`,
//!   bitmap-to-list switch point, Hh bookkeeping);
//! * [`report`] — plain-text rendering used by the `experiments` binary.
//!
//! The binary `experiments` dispatches on an experiment id (`fig4`,
//! `table3`, `all`, …) and a `--scale` flag and prints every artifact as a
//! plain-text table.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod ablation;
pub mod figures;
pub mod multifeature;
pub mod report;
pub mod tables;
pub mod workloads;

use bond::metrics::HistogramIntersection;
use bond::quantfilter::filter_segment_with_kernel;
use bond::{DimensionOrdering, Kernel, PruneTrace, QuantFilter};
use vdstore::{Bitmap, StoreCodes};

/// How large the generated datasets are.
///
/// The paper's datasets (59,619 × 166 histograms; 100,000 × 128 clustered
/// vectors) are reproduced by [`ExperimentScale::Paper`]; the smaller scales
/// keep the full pipeline identical but run in seconds, which is what the
/// test-suite and the default `experiments` invocation use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Tiny datasets for unit tests (hundreds of vectors).
    Small,
    /// Default for the `experiments` binary (tens of thousands of vectors).
    Medium,
    /// The paper's dataset sizes.
    Paper,
}

impl ExperimentScale {
    /// Number of Corel-like histograms.
    pub fn corel_vectors(&self) -> usize {
        match self {
            ExperimentScale::Small => 2_000,
            ExperimentScale::Medium => 20_000,
            ExperimentScale::Paper => 59_619,
        }
    }

    /// Number of clustered vectors (Section 7.5 datasets).
    pub fn clustered_vectors(&self) -> usize {
        match self {
            ExperimentScale::Small => 2_000,
            ExperimentScale::Medium => 20_000,
            ExperimentScale::Paper => 100_000,
        }
    }

    /// Number of sample queries per experiment (the paper uses 100).
    pub fn queries(&self) -> usize {
        match self {
            ExperimentScale::Small => 10,
            ExperimentScale::Medium => 40,
            ExperimentScale::Paper => 100,
        }
    }

    /// Parses a `--scale` argument.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "small" => Some(ExperimentScale::Small),
            "medium" => Some(ExperimentScale::Medium),
            "paper" => Some(ExperimentScale::Paper),
            _ => None,
        }
    }
}

/// BOND-Hq on 8-bit codes (Section 7.4; Figure 9 and Table 4): the
/// engine's code sweep over a one-segment companion (the VA-File's),
/// dimensions in the Hq plan's order (decreasing query value), `live` rows
/// eligible. Returns the filter — its survivors are what the exact refine
/// reads — and its pruning curve as a trace: one checkpoint per pruning step
/// (at the back-off's block ends, 8, 16, 32, … while steps remove nothing),
/// code cells read as the work counter.
pub fn hq_on_codes(
    codes: &StoreCodes,
    live: &Bitmap,
    query: &[f64],
    k: usize,
) -> bond::Result<(QuantFilter, PruneTrace)> {
    let view = codes.segment_view(0)?;
    let order = DimensionOrdering::QueryValueDescending.order(query, None, codes.dims());
    let mut checkpoints = Vec::new();
    let filter = filter_segment_with_kernel(
        &view,
        &HistogramIntersection,
        query,
        k,
        live,
        None,
        Kernel::active(),
        Some(&order),
        Some(&mut checkpoints),
    )?;
    let trace = PruneTrace {
        checkpoints,
        contributions_evaluated: filter.cells,
        dims_accessed: filter.dims,
        pruning_attempts: filter.steps,
        ..PruneTrace::default()
    };
    Ok((filter, trace))
}

/// Maps `f` over `items` in parallel using scoped threads (one chunk per
/// available core). Results come back in input order. Used by the figure
/// harness to spread the per-query searches of an experiment over cores —
/// the searches are independent, exactly like the paper's 100-query batches.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    if items.len() <= 1 || threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        for (input, output) in items.chunks(chunk).zip(results.chunks_mut(chunk)) {
            let f = &f;
            scope.spawn(move || {
                for (i, item) in input.iter().enumerate() {
                    output[i] = Some(f(item));
                }
            });
        }
    });
    results.into_iter().map(|r| r.expect("all chunks processed")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_and_values() {
        let items: Vec<u64> = (0..103).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        let empty: Vec<u64> = vec![];
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[5u64], |&x| x + 1), vec![6]);
    }

    #[test]
    fn scales_are_ordered() {
        assert!(ExperimentScale::Small.corel_vectors() < ExperimentScale::Medium.corel_vectors());
        assert!(ExperimentScale::Medium.corel_vectors() < ExperimentScale::Paper.corel_vectors());
        assert_eq!(ExperimentScale::Paper.corel_vectors(), 59_619);
        assert_eq!(ExperimentScale::Paper.clustered_vectors(), 100_000);
        assert_eq!(ExperimentScale::Paper.queries(), 100);
    }

    #[test]
    fn parse_scale() {
        assert_eq!(ExperimentScale::parse("small"), Some(ExperimentScale::Small));
        assert_eq!(ExperimentScale::parse("MEDIUM"), Some(ExperimentScale::Medium));
        assert_eq!(ExperimentScale::parse("paper"), Some(ExperimentScale::Paper));
        assert_eq!(ExperimentScale::parse("huge"), None);
    }
}
