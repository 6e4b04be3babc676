//! The single registry of metric and span-stage names.
//!
//! Every dotted name the workspace registers — counters, gauges,
//! histograms, span stages — is a constant here, and only here:
//! `bond-lint`'s `metric-name-registry` rule rejects dotted name literals
//! anywhere else, and cross-checks that every constant below is documented
//! in the README's metrics/spans tables. That closes the drift triangle
//! between code, docs and dashboards: a name cannot change in one place
//! without the linter pointing at the other two.

// --- engine metrics ------------------------------------------------------

/// Counter: engine passes executed.
pub const ENGINE_BATCH_COUNT: &str = "engine.batch.count";
/// Counter: queries merged to completion.
pub const ENGINE_QUERY_COUNT: &str = "engine.query.count";
/// Histogram: batch wall time, recorded per query (µs).
pub const ENGINE_QUERY_LATENCY_US: &str = "engine.query.latency_us";
/// Histogram: `(candidate, dimension)` cells evaluated per query.
pub const ENGINE_QUERY_SCANNED_CELLS: &str = "engine.query.scanned_cells";
/// Counter: segment scans actually run.
pub const ENGINE_SEGMENT_SEARCHED: &str = "engine.segment.searched";
/// Counter: segments skipped via the zone-map envelope bound.
pub const ENGINE_SEGMENT_SKIPPED: &str = "engine.segment.skipped";
/// Counter: zone-map misses (the bound couldn't beat κ).
pub const ENGINE_SEGMENT_MISSED: &str = "engine.segment.missed";
/// Counter: u8 code cells swept by the quantized first pass.
pub const ENGINE_QUANT_FILTER_CELLS: &str = "engine.quant.filter_cells";
/// Counter: rows surviving the code filter into the exact scan.
pub const ENGINE_QUANT_REFINE_ROWS: &str = "engine.quant.refine_rows";
/// Histogram: surviving fraction per query, in percent.
pub const ENGINE_QUANT_FILTER_SELECTIVITY: &str = "engine.quant.filter_selectivity";
/// Counter: rows eligible under predicate filters, summed over scanned segments.
pub const ENGINE_FILTER_ELIGIBLE_ROWS: &str = "engine.filter.eligible_rows";
/// Counter: segments skipped because a filter left no row eligible.
pub const ENGINE_FILTER_SEGMENTS_EMPTY: &str = "engine.filter.segments_empty";
/// Counter: synchronized multi-feature segment scans executed.
pub const ENGINE_MULTIFEATURE_SEARCHES: &str = "engine.multifeature.searches";
/// Counter: quantized sweeps dispatched to the portable scalar kernel.
pub const ENGINE_KERNEL_SCALAR_SWEEPS: &str = "engine.kernel.scalar.sweeps";
/// Counter: quantized sweeps dispatched to the AVX2 kernel.
pub const ENGINE_KERNEL_AVX2_SWEEPS: &str = "engine.kernel.avx2.sweeps";
/// Counter: quantized sweeps dispatched to the NEON kernel.
pub const ENGINE_KERNEL_NEON_SWEEPS: &str = "engine.kernel.neon.sweeps";
/// Counter: quantized code companions built (one per `engine.codes.build` span).
pub const ENGINE_CODES_BUILDS: &str = "engine.codes.builds";

// --- planner metrics -----------------------------------------------------

/// Histogram: per-query |estimate − scanned| / scanned, in percent.
pub const PLANNER_COST_ABS_REL_ERROR: &str = "planner.cost.abs_rel_error";

// --- store metrics -------------------------------------------------------

/// Histogram: persistent-store cold-open time (µs).
pub const STORE_OPEN_COLD_US: &str = "store.open.cold_us";
/// Histogram: store write time (µs).
pub const STORE_PERSIST_US: &str = "store.persist.us";
/// Counter: store bytes written.
pub const STORE_PERSIST_BYTES: &str = "store.persist.bytes";

// --- service metrics -----------------------------------------------------

/// Counter: server batches executed.
pub const SERVICE_BATCH_EXECUTED: &str = "service.batch.executed";
/// Counter: queries served to completion.
pub const SERVICE_QUERY_SERVED: &str = "service.query.served";
/// Counter: requests rejected at admission.
pub const SERVICE_ADMISSION_REJECTED: &str = "service.admission.rejected";
/// Gauge: requests currently queued.
pub const SERVICE_QUEUE_DEPTH: &str = "service.queue.depth";
/// Histogram: admission-to-drain wait per request (µs).
pub const SERVICE_QUEUE_WAIT_US: &str = "service.queue.wait_us";

// --- span stages ---------------------------------------------------------

/// Span stage: plan derivation for one batch.
pub const SPAN_ENGINE_PLAN: &str = "engine.plan";
/// Span stage: one segment-task scan.
pub const SPAN_ENGINE_SCAN: &str = "engine.scan";
/// Span stage: per-batch merge of the segments' answers.
pub const SPAN_ENGINE_MERGE: &str = "engine.merge";
/// Span stage: building quantized code columns.
pub const SPAN_ENGINE_CODES_BUILD: &str = "engine.codes.build";
/// Span stage: one segment's dimension warmup.
pub const SPAN_SEGMENT_WARMUP: &str = "segment.warmup";
/// Span stage: writing the persistent store.
pub const SPAN_STORE_PERSIST: &str = "store.persist";
/// Span stage: a request's admission-to-drain queue wait.
pub const SPAN_SERVICE_QUEUE_WAIT: &str = "service.queue_wait";
/// Span stage: one server batch execution.
pub const SPAN_SERVICE_EXECUTE: &str = "service.execute";

/// The per-rule segment-search counter family: one counter per pruning
/// rule tag (`Hq`, `Hh`, `Eq`, `Ev`, `WHq`, `WEv`), documented in the
/// README as `engine.rule.<tag>.searches`.
pub fn engine_rule_searches(rule_tag: &str) -> String {
    format!("engine.rule.{rule_tag}.searches")
}

/// Every registered constant name, for uniqueness/docs checks and tests.
pub const ALL: &[&str] = &[
    ENGINE_BATCH_COUNT,
    ENGINE_QUERY_COUNT,
    ENGINE_QUERY_LATENCY_US,
    ENGINE_QUERY_SCANNED_CELLS,
    ENGINE_SEGMENT_SEARCHED,
    ENGINE_SEGMENT_SKIPPED,
    ENGINE_SEGMENT_MISSED,
    ENGINE_QUANT_FILTER_CELLS,
    ENGINE_QUANT_REFINE_ROWS,
    ENGINE_QUANT_FILTER_SELECTIVITY,
    ENGINE_FILTER_ELIGIBLE_ROWS,
    ENGINE_FILTER_SEGMENTS_EMPTY,
    ENGINE_MULTIFEATURE_SEARCHES,
    ENGINE_KERNEL_SCALAR_SWEEPS,
    ENGINE_KERNEL_AVX2_SWEEPS,
    ENGINE_KERNEL_NEON_SWEEPS,
    ENGINE_CODES_BUILDS,
    PLANNER_COST_ABS_REL_ERROR,
    STORE_OPEN_COLD_US,
    STORE_PERSIST_US,
    STORE_PERSIST_BYTES,
    SERVICE_BATCH_EXECUTED,
    SERVICE_QUERY_SERVED,
    SERVICE_ADMISSION_REJECTED,
    SERVICE_QUEUE_DEPTH,
    SERVICE_QUEUE_WAIT_US,
    SPAN_ENGINE_PLAN,
    SPAN_ENGINE_SCAN,
    SPAN_ENGINE_MERGE,
    SPAN_ENGINE_CODES_BUILD,
    SPAN_SEGMENT_WARMUP,
    SPAN_STORE_PERSIST,
    SPAN_SERVICE_QUEUE_WAIT,
    SPAN_SERVICE_EXECUTE,
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique() {
        let set: BTreeSet<&str> = ALL.iter().copied().collect();
        assert_eq!(set.len(), ALL.len());
    }

    #[test]
    fn names_are_dotted_lowercase() {
        for name in ALL {
            assert!(name.contains('.'), "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "{name}"
            );
            assert!(name.split('.').all(|seg| !seg.is_empty()), "{name}");
        }
    }

    #[test]
    fn rule_family_renders() {
        assert_eq!(engine_rule_searches("Hq"), "engine.rule.Hq.searches");
    }
}
