//! Every name the benchmark emits, with its unit and direction. Later issues
//! cite workloads and metrics by these names, so a name, once merged, is
//! never reused for something else; `tests/names.rs` holds this file and
//! `BENCHMARK.json` to each other.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A smaller value is better.
    Lower,
    /// A larger value is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload: its name and the one-line reason it exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadDef {
    /// The `--workload` value.
    pub name: &'static str,
    /// Why the workload was chosen.
    pub why: &'static str,
}

/// A metric: name, unit, direction and — for end-to-end metrics — the share
/// of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Dotted (per-layer) or plain (end-to-end) name.
    pub name: &'static str,
    /// Unit of the printed value.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Regression bound; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

/// The four workloads, in the order `list` prints them.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "serve_small",
        why: "Server submit/wait, one request at a time, 20000x32 histograms (5 MB, in cache): \
              scan work is tiny, so admission, queue hand-off, planning and merge dominate",
    },
    WorkloadDef {
        name: "scan_large",
        why: "direct Engine::search_spec, clustered 100000x128 (102 MB, beyond L2), quantized \
              filter: code sweep, LUT build and exact refine do the work, the service layer none",
    },
    WorkloadDef {
        name: "batch_large",
        why: "Engine::execute on batches of 8 over scan_large's collection and queries: per-batch \
              set-up amortised, so a query-blocked sweep shows here and not on scan_large",
    },
    WorkloadDef {
        name: "burst_mixed_mmap",
        why: "store reopened memory-mapped behind Server, bursts of 8 mixed specs (plain, \
              filtered, weighted subspace, adaptive): the only non-empty queue, cold-start set-up",
    },
];

/// Length of the measured phase the gate uses: `run_seconds` in
/// `BENCHMARK.json`, which the driver passes as `--seconds`. Runs of other
/// lengths hold other numbers of slices and are not comparable with it.
pub const RUN_SECONDS: u64 = 28;

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports all of them from the untraced run.
///
/// A *CPU scan* is the benchmark's reference unit (`refscan::Reference`): its
/// own brute-force k-NN scoring as many rows as the workload's collection
/// has, fed from a cache-resident tile.
///
/// Each bound is three times the widest quartile spread that sets of ten
/// seeds of the same code showed on any workload when the benchmark was
/// written (README, "Noise"), rounded up to the next 0.05 and capped at the
/// driver's 0.25: the three timing ratios spread up to 8 % (`scan_large`,
/// whose share of code-companion rebuilds differs from run to run) and, in
/// one set of three, 14 % (`burst_mixed_mmap`, in a disturbed phase of the
/// host). The 90th-percentile latency spread as much and is reported per
/// layer (`client.latency_p90_cpu_scans`) rather than gated.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("queries_per_cpu_scan", "1/cpuscan", Better::Higher, 0.25),
    e2e("latency_p50_cpu_scans", "cpuscans", Better::Lower, 0.25),
    e2e("cpu_per_query_cpu_scans", "cpuscans", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
];

/// Per-layer metrics: the traced run reports all of them for every workload,
/// each measured on that workload's own collection and configuration.
pub const PER_LAYER: [MetricDef; 57] = [
    // machine / harness: context only
    layer("machine.cpu_scan_ms", "ms", Better::Lower),
    layer("machine.full_scan_ms", "ms", Better::Lower),
    layer("machine.stream_read_gb_s", "GB/s", Better::Higher),
    layer("bench.kept_slice_share", "share", Better::Higher),
    layer("bench.steal_share", "share", Better::Lower),
    layer("trace.overhead_pct", "%", Better::Lower),
    // client: the generator's view, un-normalised
    layer("client.throughput_qps", "1/s", Better::Higher),
    layer("client.latency_p90_cpu_scans", "cpuscans", Better::Lower),
    layer("client.latency_p50_ms", "ms", Better::Lower),
    layer("client.latency_p90_ms", "ms", Better::Lower),
    layer("client.latency_p99_ms", "ms", Better::Lower),
    layer("client.cpu_ms_per_query", "ms", Better::Lower),
    layer("client.samples", "count", Better::Higher),
    layer("client.failed_share", "share", Better::Lower),
    layer("client.speedup_vs_full_scan", "x", Better::Higher),
    // datagen (benchmark input)
    layer("datagen.generate_s", "s", Better::Lower),
    // vdstore::table, ::codes
    layer("vdstore.table_build_s", "s", Better::Lower),
    layer("vdstore.codes_build_mcells_s", "Mcells/s", Better::Higher),
    // vdstore::persist, ::mmap
    layer("vdstore.persist_mb_s", "MB/s", Better::Higher),
    layer("vdstore.open_mapped_ms", "ms", Better::Lower),
    layer("vdstore.open_heap_ms", "ms", Better::Lower),
    layer("vdstore.mapped_first_query_ms", "ms", Better::Lower),
    layer("vdstore.store_bytes_per_user_byte", "ratio", Better::Lower),
    // vdstore::bitmap
    layer("vdstore.bitmap_and_count_mrows_s", "Mrows/s", Better::Higher),
    // bond::kernels
    layer("kernels.sweep8_gcells_s", "Gcells/s", Better::Higher),
    layer("kernels.sweep4_gcells_s", "Gcells/s", Better::Higher),
    layer("kernels.sweep8_scalar_gcells_s", "Gcells/s", Better::Higher),
    layer("kernels.sweep8_share_of_stream", "share", Better::Higher),
    layer("kernels.fill_pair_lut_us", "us", Better::Lower),
    layer("kernels.accumulate_gcells_s", "Gcells/s", Better::Higher),
    layer("kernels.accumulate_gather_mcells_s", "Mcells/s", Better::Higher),
    // bond::quantfilter
    layer("quantfilter.segment_us", "us", Better::Lower),
    layer("quantfilter.lut_share", "share", Better::Lower),
    layer("quantfilter.survivor_share", "share", Better::Lower),
    // bond::searcher, bond-baselines
    layer("searcher.seq_query_ms", "ms", Better::Lower),
    layer("searcher.cells_share", "share", Better::Lower),
    layer("baselines.seqscan_query_ms", "ms", Better::Lower),
    // bond-exec::planner
    layer("planner.explain_us", "us", Better::Lower),
    layer("planner.estimate_cost_us", "us", Better::Lower),
    layer("planner.validate_us", "us", Better::Lower),
    // bond-exec::engine
    layer("engine.search_ms", "ms", Better::Lower),
    layer("engine.fixed_overhead_us", "us", Better::Lower),
    layer("engine.batch8_ms_per_query", "ms", Better::Lower),
    layer("engine.exact_cells_per_query", "count", Better::Lower),
    layer("engine.code_cells_per_query", "count", Better::Lower),
    layer("engine.refine_rows_per_query", "count", Better::Lower),
    layer("engine.segments_skipped_share", "share", Better::Higher),
    layer("engine.codes_rebuilds_per_kquery", "count", Better::Lower),
    layer("engine.parallel_speedup_2t", "x", Better::Higher),
    layer("engine.spawn_overhead_us", "us", Better::Lower),
    // bond-exec::service
    layer("service.submit_us", "us", Better::Lower),
    layer("service.round_trip_overhead_us", "us", Better::Lower),
    layer("service.queries_per_pass", "count", Better::Higher),
    layer("service.queue_wait_mean_us", "us", Better::Lower),
    layer("service.rejected", "count", Better::Lower),
    // bond-obs
    layer("obs.metrics_json_us", "us", Better::Lower),
    layer("obs.served_counter_matches", "count", Better::Higher),
];

/// The per-layer metrics that are counts of work, not timings: for a fixed
/// seed and `--seconds` they must repeat exactly between two traced runs.
pub const EXACT_COUNTS: [&str; 9] = [
    "vdstore.store_bytes_per_user_byte",
    "quantfilter.survivor_share",
    "searcher.cells_share",
    "engine.exact_cells_per_query",
    "engine.code_cells_per_query",
    "engine.refine_rows_per_query",
    "engine.segments_skipped_share",
    "engine.codes_rebuilds_per_kquery",
    "service.rejected",
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}
