//! Pruning traces.
//!
//! Every figure of the paper's evaluation (Figures 4–11) plots, for some
//! workload, the number of surviving candidates against the number of
//! dimensions processed. The search engine records exactly that series —
//! plus the work counters needed for the run-time tables — in a
//! [`PruneTrace`], which the benchmark harness aggregates across queries.

use serde::{Deserialize, Serialize};

/// The state of the search after one scan-and-prune block.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceCheckpoint {
    /// Number of dimensions processed so far.
    pub dims_processed: usize,
    /// Number of candidates that survive after the pruning attempt.
    pub candidates: usize,
    /// Number of candidates removed by this pruning attempt.
    pub pruned_now: usize,
}

/// Work counters and the per-block candidate series of one BOND search.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PruneTrace {
    /// One entry per pruning attempt, in order.
    pub checkpoints: Vec<TraceCheckpoint>,
    /// Total `(candidate, dimension)` contribution evaluations — the CPU
    /// work the "avoided work" region of Figure 1 refers to.
    pub contributions_evaluated: u64,
    /// Number of dimensional fragments that were read at all (the paper:
    /// "the top-k images are identified after 64 dimensions, which means
    /// that 102 tables need not be accessed at all").
    pub dims_accessed: usize,
    /// Number of pruning attempts performed.
    pub pruning_attempts: usize,
    /// Whether the candidate-set representation switched from bitmap to an
    /// explicit list during the search (Section 6.1).
    pub switched_to_list: bool,
    /// Whether the whole segment was skipped by the engine's zone-map check
    /// (its envelope bound could not reach κ) — the search never ran and no
    /// column of the segment was touched.
    pub segment_skipped: bool,
    /// Number of `(row, dimension)` code cells the quantized first-pass
    /// filter actually read before the exact search began (swept word runs
    /// plus its probes' `k × dims` lookups) — cheap `u8` work, kept separate from
    /// the exact-cell counter `contributions_evaluated`. Zero when the
    /// search ran without codes.
    pub filter_cells: u64,
    /// Number of code columns the quantized filter's progressive sweep got
    /// through before at most `k` candidates remained or the dimensions
    /// ran out. Zero when no code was swept.
    pub filter_dims: usize,
    /// Number of pruning steps the quantized filter's sweep took over those
    /// columns — fewer than one per eight while steps remove nothing, since
    /// the blocks then double. Zero when no code was swept. A `u32` (it is
    /// at most the dimensions) so the trace, which every segment task
    /// moves, keeps its size: a `usize` here measured about 4 % slower on
    /// an exact-only served workload that never sets it.
    pub filter_steps: u32,
    /// Number of κ probes the quantized filter ran: at most two — after its
    /// first block when the segment carried no κ in, and after its last.
    /// Zero when no code was swept. A `u32` beside `filter_steps`, so the
    /// trace keeps its size.
    pub filter_probes: u32,
    /// Number of κ probes the exact loop ran: one in a segment that shares
    /// κ and carried none into its first step (it completes the exact
    /// scores of `k` rows), none elsewhere — an isolated search proves κ
    /// by the heap at every step. A `u32` beside `filter_probes`, so the
    /// trace keeps its size.
    pub exact_probes: u32,
    /// Number of 1 024-row blocks the quantized filter dropped before its
    /// first block because their code envelope could not reach the κ the
    /// segment carried in — none of their cells was read.
    pub filter_blocks_skipped: usize,
    /// Number of rows that survived the quantized filter into the exact
    /// search (zero when the search ran without codes; equals the segment's
    /// live rows when the filter could not prune).
    pub refine_rows: u64,
    /// The code bit-width the quantized first pass swept: the width of the
    /// store's one code companion ([`vdstore::DEFAULT_CODE_BITS`] for the
    /// engine's filter). Zero when the search ran without codes.
    pub filter_bits: u8,
    /// The scan-kernel flavour (`"scalar"`, `"avx2"`, `"neon"`) the
    /// segment's hot loops dispatched to. `None` for traces that predate
    /// kernel dispatch (e.g. deserialized old reports).
    pub kernel: Option<&'static str>,
    /// The name of the pruning rule/metric that produced this trace
    /// (`"Hq"`, `"Ev"`, …), stamped by the execution engine. Bound scales
    /// are incomparable across rules, so per-rule consumers (per-rule
    /// metrics) must not aggregate traces whose tags differ. `None` for traces from the sequential entry points, which
    /// predate tagging.
    pub rule: Option<&'static str>,
}

impl PruneTrace {
    /// Whether the quantized filter decided anything in this segment: it
    /// read code cells, or dropped row blocks by their envelopes.
    pub fn filter_ran(&self) -> bool {
        self.filter_cells > 0 || self.filter_blocks_skipped > 0
    }

    /// Number of candidates that survived after processing `dims` dimensions
    /// (reading the step function defined by the checkpoints). Before the
    /// first checkpoint the whole collection of `total_rows` survives.
    pub fn candidates_after(&self, dims: usize, total_rows: usize) -> usize {
        let mut current = total_rows;
        for c in &self.checkpoints {
            if c.dims_processed <= dims {
                current = c.candidates;
            } else {
                break;
            }
        }
        current
    }

    /// The number of dimensions after which the candidate set first shrank
    /// to at most `target` candidates, if it ever did.
    pub fn dims_to_reach(&self, target: usize) -> Option<usize> {
        self.checkpoints.iter().find(|c| c.candidates <= target).map(|c| c.dims_processed)
    }

    /// Fraction of the naive `rows × dims` contribution evaluations that was
    /// actually performed (the "avoided work" complement).
    pub fn work_fraction(&self, rows: usize, dims: usize) -> f64 {
        if rows == 0 || dims == 0 {
            return 0.0;
        }
        self.contributions_evaluated as f64 / (rows as f64 * dims as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PruneTrace {
        PruneTrace {
            checkpoints: vec![
                TraceCheckpoint { dims_processed: 8, candidates: 500, pruned_now: 500 },
                TraceCheckpoint { dims_processed: 16, candidates: 100, pruned_now: 400 },
                TraceCheckpoint { dims_processed: 24, candidates: 10, pruned_now: 90 },
            ],
            contributions_evaluated: 8 * 1000 + 8 * 500 + 8 * 100,
            dims_accessed: 24,
            pruning_attempts: 3,
            switched_to_list: true,
            segment_skipped: false,
            filter_cells: 0,
            filter_dims: 0,
            filter_steps: 0,
            filter_probes: 0,
            exact_probes: 0,
            filter_blocks_skipped: 0,
            refine_rows: 0,
            filter_bits: 0,
            kernel: Some("scalar"),
            rule: Some("Hq"),
        }
    }

    #[test]
    fn candidates_after_reads_the_step_function() {
        let t = sample();
        assert_eq!(t.candidates_after(0, 1000), 1000);
        assert_eq!(t.candidates_after(7, 1000), 1000);
        assert_eq!(t.candidates_after(8, 1000), 500);
        assert_eq!(t.candidates_after(20, 1000), 100);
        assert_eq!(t.candidates_after(166, 1000), 10);
    }

    #[test]
    fn dims_to_reach_finds_first_checkpoint() {
        let t = sample();
        assert_eq!(t.dims_to_reach(600), Some(8));
        assert_eq!(t.dims_to_reach(100), Some(16));
        assert_eq!(t.dims_to_reach(5), None);
    }

    /// Every segment task moves a trace: its counters share the padding
    /// of the 8-byte fields rather than grow it.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn the_trace_keeps_its_size() {
        assert_eq!(std::mem::size_of::<PruneTrace>(), 128);
    }

    #[test]
    fn work_fraction() {
        let t = sample();
        let f = t.work_fraction(1000, 166);
        assert!(f > 0.0 && f < 1.0);
        assert_eq!(PruneTrace::default().work_fraction(0, 10), 0.0);
    }
}
