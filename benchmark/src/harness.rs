//! One benchmark run: generate inputs, set the system up, alternate
//! reference-scan blocks with blocks of operations, check answers, and turn
//! the slices into metrics.
//!
//! Three rules make the numbers repeat on a shared 2-vCPU machine:
//!
//! 1. **One busy thread.** The engine runs with `threads(1)` (inline) and the
//!    one generator thread blocks while the `Server` worker runs.
//! 2. **Reference-scan units.** A run is a sequence of slices; each slice
//!    first times `R` reference scans by the benchmark's own code, then a
//!    fixed number of operations against the program. Every timing is
//!    divided by its own slice's seconds per scan, so minute-scale machine
//!    drift cancels.
//! 3. **Long runs, robust statistics.** Warm-up slices are discarded and do
//!    not count against `--seconds`; slices the hypervisor or a speed change
//!    disturbed are dropped ([`crate::stats::judge_slices`]); slice-level
//!    metrics are medians over kept slices, and latency percentiles are taken
//!    over the pooled normalised latencies of kept slices.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bond::Kernel;
use bond_exec::QuerySpec;

use crate::clock;
use crate::json::{object, Value};
use crate::layers;
use crate::names::{MetricDef, END_TO_END, PER_LAYER};
use crate::refscan::{Neighbour, Reference};
use crate::stats::{judge_slices, median, percentile_sorted, DropReason, SliceHealth};
use crate::trace::Tracer;
use crate::workloads::{neighbours, set_up, write_store, Inputs, Kind, Shape, Sut, K};

/// Warm-up slices an untraced run discards before `--seconds` starts.
pub const WARMUP_SLICES: usize = 2;
/// Every this-many-th operation is re-answered by the oracle.
pub const ORACLE_EVERY: u64 = 16;
/// Set-ups are repeated until they have taken this long in total (at least
/// [`MIN_SETUPS`], at most [`MAX_SETUPS`] times); `setup_s` is their median.
pub const SETUP_REPEAT_S: f64 = 1.5;
/// Least number of set-ups of an untraced run.
pub const MIN_SETUPS: usize = 3;
/// Most set-ups of an untraced run: what a millisecond-scale set-up reaches.
pub const MAX_SETUPS: usize = 101;
/// Share of `--seconds` a traced run spends in slices; the layer probes get
/// the rest.
pub const TRACED_SLICE_SHARE: f64 = 0.45;
/// Operation latencies the run has room for without allocating.
const LATENCY_ROOM: usize = 1 << 18;
/// Sampled operations, and their hits, the oracle buffer has room for.
const SAMPLE_ROOM: (usize, usize) = (1 << 13, 1 << 16);

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub kind: Kind,
    /// Its sizes.
    pub shape: Shape,
    /// Seed of query sampling, filter, subspace and mix order.
    pub seed: u64,
    /// Length of the measured phase (after warm-up), seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced run (end-to-end metrics).
    pub trace: bool,
    /// Where the store file and the trace are written.
    pub out_dir: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Its definition in [`crate::names`].
    pub def: &'static MetricDef,
    /// The value as measured.
    pub value: f64,
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operations attempted against the program.
    pub attempted: u64,
    /// Operations that returned an error or whose sampled answer the oracle
    /// rejected.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// What the environment could otherwise have changed, recorded.
    pub meta: Value,
}

impl Report {
    /// Whether every checked answer was right and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// A metric's value by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.def.name == name).map(|m| m.value)
    }

    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = object(self.metrics.iter().map(|m| {
            let entry = object([
                ("value", Value::Number(m.value)),
                ("unit", Value::String(m.def.unit.into())),
            ]);
            (m.def.name, entry)
        }));
        object([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Number(self.attempted as f64)),
            ("failed", Value::Number(self.failed as f64)),
            ("metrics", metrics),
        ])
        .render()
    }
}

/// One slice: a reference block, then a block of operations.
#[derive(Debug, Clone, PartialEq)]
pub struct Slice {
    /// Whether the tracer was recording during the operations.
    pub traced: bool,
    /// Wall seconds per reference scan.
    pub ref_s: f64,
    /// CPU seconds per reference scan.
    pub ref_cpu_s: f64,
    /// Wall seconds of the block of operations.
    pub sut_wall_s: f64,
    /// Process CPU seconds of the block of operations.
    pub sut_cpu_s: f64,
    /// Requests the block completed.
    pub queries: usize,
    /// `/proc/stat` steal during the slice as a share of wall × nproc.
    pub steal_share: f64,
    /// Where the block's operation latencies sit in the run's latency buffer.
    pub latencies: Range<usize>,
}

impl Slice {
    /// Scans one request cost: block wall per request over seconds per scan.
    fn scans_per_query(&self) -> f64 {
        self.sut_wall_s / self.queries as f64 / self.ref_s
    }
}

/// The answers of the sampled operations, kept for the oracle in flat
/// storage that is allocated and touched before the run's resident-set
/// baseline is taken — so that a faster program, which completes and samples
/// more operations, does not show as a larger `peak_rss_mb`.
#[derive(Debug)]
pub struct Samples {
    /// Requests per operation.
    group: usize,
    ops: Vec<u64>,
    /// Hits per request.
    lens: Vec<u32>,
    hits: Vec<Neighbour>,
}

/// A vector of `room` touched elements and length 0.
fn touched<T: Clone>(room: usize, filler: T) -> Vec<T> {
    let mut v = Vec::with_capacity(room);
    v.resize(room, filler);
    v.clear();
    v
}

impl Samples {
    /// Room for `ops` operations of `group` requests and `hits` hits in all.
    pub fn with_room(ops: usize, group: usize, hits: usize) -> Samples {
        Samples {
            group,
            ops: touched(ops, 0),
            lens: touched(ops * group, 0),
            hits: touched(hits, Neighbour { row: 0, score: 0.0 }),
        }
    }

    /// Keeps the answers of operation `op`, one per request; `false` (and
    /// nothing kept) when there is no room left.
    pub fn push(&mut self, op: u64, answers: &[Vec<Neighbour>]) -> bool {
        assert_eq!(answers.len(), self.group, "one answer per request");
        let hits: usize = answers.iter().map(Vec::len).sum();
        if self.ops.len() == self.ops.capacity()
            || self.lens.len() + answers.len() > self.lens.capacity()
            || self.hits.len() + hits > self.hits.capacity()
        {
            return false;
        }
        self.ops.push(op);
        for answer in answers {
            self.lens.push(answer.len() as u32);
            self.hits.extend_from_slice(answer);
        }
        true
    }

    /// Operations kept.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no operation was kept.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Operations among `samples` with at least one answer the oracle rejects.
pub fn oracle_failures(inputs: &Inputs, samples: &Samples) -> u64 {
    assert_eq!(samples.group, inputs.kind.group(), "samples of another workload");
    let (mut lens, mut hits) = (samples.lens.chunks_exact(samples.group), samples.hits.as_slice());
    let mut failures = 0;
    for &op in &samples.ops {
        let mut all_right = true;
        for (&request, &len) in inputs.requests(op).iter().zip(lens.next().expect("one per op")) {
            let (answer, rest) = hits.split_at(len as usize);
            hits = rest;
            // every answer is checked, so the cursor stays in step
            all_right &= inputs.oracle_accepts(request, answer);
        }
        failures += u64::from(!all_right);
    }
    failures
}

/// What the slices of a run add up to.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Slices given.
    pub slices: usize,
    /// Slices kept by the rejection rule.
    pub kept: usize,
    /// Slices dropped for steal.
    pub dropped_steal: usize,
    /// Slices dropped for a deviating reference block.
    pub dropped_ref_deviation: usize,
    /// Median seconds per reference scan over kept slices.
    pub ref_s: f64,
    /// Requests completed per reference-scan time (median of kept slices).
    pub queries_per_cpu_scan: f64,
    /// Median operation latency in scans.
    pub latency_p50_cpu_scans: f64,
    /// 90th-percentile operation latency in scans.
    pub latency_p90_cpu_scans: f64,
    /// CPU per request over CPU per scan (median of kept slices).
    pub cpu_per_query_cpu_scans: f64,
    /// Requests per second (median of kept slices).
    pub throughput_qps: f64,
    /// Median operation latency, milliseconds.
    pub latency_p50_ms: f64,
    /// 90th-percentile operation latency, milliseconds.
    pub latency_p90_ms: f64,
    /// 99th-percentile operation latency, milliseconds.
    pub latency_p99_ms: f64,
    /// CPU milliseconds per request (median of kept slices).
    pub cpu_ms_per_query: f64,
    /// Pooled latency samples.
    pub samples: usize,
    /// Steal as a share of wall × nproc, over all slices given.
    pub steal_share: f64,
}

/// Applies the rejection rule to `slices` and computes every slice-derived
/// number from the kept ones; `latencies_s` is the buffer their
/// [`Slice::latencies`] index.
pub fn summarise(slices: &[&Slice], latencies_s: &[f64]) -> Summary {
    let health: Vec<SliceHealth> =
        slices.iter().map(|s| SliceHealth { ref_s: s.ref_s, steal_share: s.steal_share }).collect();
    let verdicts = judge_slices(&health);
    let kept: Vec<&Slice> =
        slices.iter().zip(&verdicts).filter(|(_, v)| v.is_none()).map(|(s, _)| *s).collect();
    let over_kept =
        |f: &dyn Fn(&Slice) -> f64| median(&kept.iter().map(|s| f(s)).collect::<Vec<_>>());
    // every latency in units of `unit(its slice)` seconds, ascending
    let pooled = |unit: &dyn Fn(&Slice) -> f64| {
        let mut v: Vec<f64> = kept
            .iter()
            .flat_map(|s| {
                let unit = unit(s);
                latencies_s[s.latencies.clone()].iter().map(move |&l| l / unit)
            })
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let in_scans = pooled(&|s| s.ref_s);
    let in_ms = pooled(&|_| 1e-3);
    let count = |r: DropReason| verdicts.iter().filter(|v| **v == Some(r)).count();
    Summary {
        slices: slices.len(),
        kept: kept.len(),
        dropped_steal: count(DropReason::Steal),
        dropped_ref_deviation: count(DropReason::RefDeviation),
        ref_s: over_kept(&|s| s.ref_s),
        queries_per_cpu_scan: over_kept(&|s| 1.0 / s.scans_per_query()),
        latency_p50_cpu_scans: percentile_sorted(&in_scans, 50.0),
        latency_p90_cpu_scans: percentile_sorted(&in_scans, 90.0),
        cpu_per_query_cpu_scans: over_kept(&|s| s.sut_cpu_s / s.queries as f64 / s.ref_cpu_s),
        throughput_qps: over_kept(&|s| s.queries as f64 / s.sut_wall_s),
        latency_p50_ms: percentile_sorted(&in_ms, 50.0),
        latency_p90_ms: percentile_sorted(&in_ms, 90.0),
        latency_p99_ms: percentile_sorted(&in_ms, 99.0),
        cpu_ms_per_query: over_kept(&|s| s.sut_cpu_s / s.queries as f64 * 1e3),
        samples: in_ms.len(),
        steal_share: slices.iter().map(|s| s.steal_share).sum::<f64>() / slices.len().max(1) as f64,
    }
}

/// Times `scans` reference scans (or, to calibrate, as many as fill the
/// shape's least block time). Returns `(scans, wall seconds, CPU seconds)`.
fn reference_block(
    inputs: &Inputs,
    reference: &Reference,
    scans: Option<usize>,
    cursor: &mut usize,
) -> (usize, f64, f64) {
    let started = Instant::now();
    let cpu = clock::process_cpu_s();
    let mut done = 0;
    loop {
        let finished = match scans {
            Some(n) => done == n,
            None => done >= 2 && started.elapsed().as_secs_f64() >= inputs.shape.ref_block_s,
        };
        if finished {
            break;
        }
        reference.scan(inputs.probe_query(*cursor), K);
        *cursor += 1;
        done += 1;
    }
    (done, started.elapsed().as_secs_f64(), clock::process_cpu_s() - cpu)
}

/// The benchmark-owned storage of the sliced phase. All of it exists, and is
/// resident, before the run takes its resident-set baseline.
#[derive(Debug)]
struct Buffers {
    reference: Reference,
    latencies_s: Vec<f64>,
    samples: Samples,
}

/// The sliced phase of a run.
#[derive(Debug)]
struct Sliced {
    measured: Vec<Slice>,
    warmup: usize,
    warmup_s: f64,
    measured_s: f64,
    scans_per_block: usize,
    attempted: u64,
    errors: u64,
}

/// Runs the warm-up slices, then measured slices until the next one would
/// end after the budget (at least one, or one of either kind). An untraced run's budget is
/// `seconds`; a traced run warms up for one slice only, spends
/// [`TRACED_SLICE_SHARE`] of `seconds` here, and records spans in every
/// other measured slice.
fn run_slices(
    inputs: &Inputs,
    sut: &Sut,
    buffers: &mut Buffers,
    tracer: &mut Tracer,
    nproc: usize,
    seconds: f64,
    traced_run: bool,
) -> Sliced {
    let (budget_s, warmup) =
        if traced_run { (seconds * TRACED_SLICE_SHARE, 1) } else { (seconds, WARMUP_SLICES) };
    let ops = inputs.shape.ops_per_slice;
    let mut out = Sliced {
        measured: Vec::with_capacity(64),
        warmup,
        warmup_s: 0.0,
        measured_s: 0.0,
        scans_per_block: 0,
        attempted: 0,
        errors: 0,
    };
    let mut started = Instant::now();
    let mut scan_cursor = 0usize;
    let mut longest_slice_s = 0.0f64;
    for index in 0.. {
        if index == warmup {
            out.warmup_s = started.elapsed().as_secs_f64();
            started = Instant::now();
        }
        // a traced run needs a slice of either kind
        let enough = index > warmup + usize::from(traced_run);
        if enough && started.elapsed().as_secs_f64() + longest_slice_s > budget_s {
            break;
        }
        let slice_started = Instant::now();
        let steal = clock::steal_s();
        let traced = traced_run && index >= warmup && (index - warmup).is_multiple_of(2);

        let fixed = (out.scans_per_block > 0).then_some(out.scans_per_block);
        let (scans, ref_wall, ref_cpu) =
            reference_block(inputs, &buffers.reference, fixed, &mut scan_cursor);
        out.scans_per_block = scans;
        let per_scan = |block: f64| buffers.reference.seconds_per_scan(block / scans as f64);

        let first_latency = buffers.latencies_s.len();
        let mut queries = 0usize;
        tracer.set_on(traced);
        let sut_started = Instant::now();
        let sut_cpu = clock::process_cpu_s();
        for op in (index * ops) as u64..((index + 1) * ops) as u64 {
            // an operation's specs are built outside its latency: building
            // them is the generator's work
            let specs: Vec<QuerySpec> =
                inputs.requests(op).iter().map(|&r| inputs.spec(r)).collect();
            let requests = specs.len();
            let op_started = Instant::now();
            let result = sut.run_specs(inputs.kind, specs, tracer, op);
            buffers.latencies_s.push(op_started.elapsed().as_secs_f64());
            out.attempted += 1;
            match result {
                // one answer per request, or the operation failed
                Ok(outcomes) if outcomes.len() == requests => {
                    queries += requests;
                    if op.is_multiple_of(ORACLE_EVERY) {
                        let answers: Vec<_> = outcomes.iter().map(neighbours).collect();
                        buffers.samples.push(op, &answers);
                    }
                }
                _ => out.errors += 1,
            }
        }
        let sut_wall_s = sut_started.elapsed().as_secs_f64();
        let sut_cpu_s = clock::process_cpu_s() - sut_cpu;
        tracer.set_on(false);

        let slice_s = slice_started.elapsed().as_secs_f64();
        longest_slice_s = longest_slice_s.max(slice_s);
        if index >= warmup {
            out.measured.push(Slice {
                traced,
                ref_s: per_scan(ref_wall),
                ref_cpu_s: per_scan(ref_cpu),
                sut_wall_s,
                sut_cpu_s,
                queries: queries.max(1),
                steal_share: (clock::steal_s() - steal) / (slice_s * nproc as f64),
                latencies: first_latency..buffers.latencies_s.len(),
            });
        }
    }
    out.measured_s = started.elapsed().as_secs_f64();
    out
}

/// Removes the store file when the run ends, however it ends.
struct StoreFile(PathBuf);

impl Drop for StoreFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Repeats set-up and returns the last system with every set-up's seconds.
fn timed_setups(
    inputs: &Inputs,
    store: Option<&Path>,
    once: bool,
) -> Result<(Sut, Vec<f64>), String> {
    let mut times = Vec::new();
    loop {
        let started = Instant::now();
        let sut = set_up(inputs, store).map_err(|e| format!("set-up failed: {e}"))?;
        times.push(started.elapsed().as_secs_f64());
        let enough = times.len() >= MIN_SETUPS && times.iter().sum::<f64>() >= SETUP_REPEAT_S;
        if once || enough || times.len() == MAX_SETUPS {
            return Ok((sut, times));
        }
        // the previous system is dropped (server joined, table freed) before
        // the next set-up starts, so at most one is ever resident
        drop(sut);
    }
}

fn commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

fn resolve(defs: &'static [MetricDef], values: &[(&str, f64)]) -> Vec<Metric> {
    defs.iter()
        .map(|def| {
            let value = values
                .iter()
                .find(|(n, _)| *n == def.name)
                .unwrap_or_else(|| panic!("metric `{}` was not measured", def.name))
                .1;
            Metric { def, value }
        })
        .collect()
}

/// Runs one workload once.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    // one busy thread needs one CPU; see `clock::pin_to_one_cpu`
    let nproc = clock::nproc();
    let unpinned = clock::pin_to_one_cpu();
    let inputs = Inputs::generate(cfg.kind, cfg.shape, cfg.seed);
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let store = (cfg.kind == Kind::BurstMixedMmap).then(|| {
        StoreFile(cfg.out_dir.join(format!(
            "store-{}-{}.bond",
            cfg.kind.name(),
            std::process::id()
        )))
    });
    if let Some(store) = &store {
        write_store(&inputs, &store.0).map_err(|e| format!("writing the store failed: {e}"))?;
    }
    let store_path = store.as_ref().map(|s| s.0.as_path());
    let mut tracer = Tracer::with_capacity(if cfg.trace { 1 << 20 } else { 0 });
    let mut buffers = Buffers {
        reference: Reference::new(&inputs.flat, inputs.kind.measure()),
        latencies_s: touched(LATENCY_ROOM, 0.0),
        samples: Samples::with_room(SAMPLE_ROOM.0, cfg.kind.group(), SAMPLE_ROOM.1),
    };

    // Everything the benchmark owns is allocated and resident by now. From
    // here on the resident set grows only by what the program allocates:
    // forget the generator's peak and take the benchmark's own buffers as
    // the baseline.
    let peak_reset = clock::reset_peak_rss();
    let baseline_rss = clock::rss_bytes();

    let (sut, setup_times) = timed_setups(&inputs, store_path, cfg.trace)?;
    let sliced =
        run_slices(&inputs, &sut, &mut buffers, &mut tracer, nproc, cfg.seconds, cfg.trace);
    let peak_rss = clock::peak_rss_bytes();
    let failed = sliced.errors + oracle_failures(&inputs, &buffers.samples);

    // gated numbers come from untraced slices only
    let untraced: Vec<&Slice> = sliced.measured.iter().filter(|s| !s.traced).collect();
    let summary = summarise(&untraced, &buffers.latencies_s);

    let mut meta = vec![
        ("workload", Value::String(cfg.kind.name().into())),
        ("seed", Value::Number(cfg.seed as f64)),
        ("data_seed", Value::Number(cfg.shape.data_seed as f64)),
        ("seconds", Value::Number(cfg.seconds)),
        ("trace", Value::Bool(cfg.trace)),
        ("rows", Value::Number(cfg.shape.rows as f64)),
        ("dims", Value::Number(cfg.shape.dims as f64)),
        ("partitions", Value::Number(sut.engine.partitions() as f64)),
        ("ops_per_slice", Value::Number(cfg.shape.ops_per_slice as f64)),
        ("requests_per_op", Value::Number(cfg.kind.group() as f64)),
        ("engine_threads", Value::Number(sut.engine.threads() as f64)),
        ("generator_threads", Value::Number(1.0)),
        ("server_worker_threads", Value::Number(if cfg.kind.served() { 1.0 } else { 0.0 })),
        ("nproc", Value::Number(nproc as f64)),
        ("pinned_to_one_cpu", Value::Bool(unpinned.is_some())),
        ("backend", Value::String(format!("{:?}", sut.engine.storage_backend()))),
        ("kernel_active", Value::String(Kernel::active().label().into())),
        ("kernel_env", std::env::var(bond::kernels::KERNEL_ENV).map_or(Value::Null, Value::String)),
        ("commit", Value::String(commit())),
        ("build", Value::String(if cfg!(debug_assertions) { "debug" } else { "release" }.into())),
        ("setup_reps", Value::Number(setup_times.len() as f64)),
        ("peak_rss_reset", Value::Bool(peak_reset)),
        ("warmup_slices", Value::Number(sliced.warmup as f64)),
        ("warmup_s", Value::Number(sliced.warmup_s)),
        ("measured_slices", Value::Number(sliced.measured.len() as f64)),
        ("measured_phase_s", Value::Number(sliced.measured_s)),
        ("untraced_slices", Value::Number(summary.slices as f64)),
        ("kept_slices", Value::Number(summary.kept as f64)),
        ("dropped_for_steal", Value::Number(summary.dropped_steal as f64)),
        ("dropped_for_ref_deviation", Value::Number(summary.dropped_ref_deviation as f64)),
        ("scans_per_block", Value::Number(sliced.scans_per_block as f64)),
        ("latency_samples", Value::Number(summary.samples as f64)),
        ("oracle_samples", Value::Number(buffers.samples.len() as f64)),
        // per measured slice: ms per reference scan, seconds of the block of
        // operations, traced or not — enough to see a disturbed run by eye
        (
            "slices",
            Value::Array(
                sliced
                    .measured
                    .iter()
                    .map(|s| {
                        Value::Array(vec![
                            Value::Number((s.ref_s * 1e6).round() / 1e3),
                            Value::Number((s.sut_wall_s * 1e4).round() / 1e4),
                            Value::Bool(s.traced),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];

    let metrics = if cfg.trace {
        let traced: Vec<f64> =
            sliced.measured.iter().filter(|s| s.traced).map(Slice::scans_per_query).collect();
        let plain: Vec<f64> = untraced.iter().map(|s| s.scans_per_query()).collect();
        let mut values = vec![
            ("machine.cpu_scan_ms", summary.ref_s * 1e3),
            ("bench.kept_slice_share", summary.kept as f64 / summary.slices.max(1) as f64),
            ("bench.steal_share", summary.steal_share),
            ("trace.overhead_pct", (median(&traced) / median(&plain) - 1.0) * 100.0),
            ("client.throughput_qps", summary.throughput_qps),
            ("client.latency_p90_cpu_scans", summary.latency_p90_cpu_scans),
            ("client.latency_p50_ms", summary.latency_p50_ms),
            ("client.latency_p90_ms", summary.latency_p90_ms),
            ("client.latency_p99_ms", summary.latency_p99_ms),
            ("client.cpu_ms_per_query", summary.cpu_ms_per_query),
            ("client.samples", summary.samples as f64),
            ("client.failed_share", failed as f64 / sliced.attempted.max(1) as f64),
            ("datagen.generate_s", inputs.datagen_s),
        ];
        let budget_s = (cfg.seconds - sliced.measured_s).max(0.0);
        let scratch = StoreFile(cfg.out_dir.join(format!(
            "probe-{}-{}.bond",
            cfg.kind.name(),
            std::process::id()
        )));
        let target = layers::ProbeTarget {
            inputs: &inputs,
            sut: &sut,
            ops_sent: sliced.attempted,
            workload_store: store_path,
            scratch_store: &scratch.0,
            unpinned: unpinned.as_ref(),
        };
        let probed = layers::probe(&target, &mut tracer, budget_s)
            .map_err(|e| format!("layer probe failed: {e}"))?;
        values.extend(probed);
        // requests completed in the time of one brute-force pass over the whole
        // collection, memory traffic included: the paper's yardstick
        let full_scan_ms = values.iter().find(|(n, _)| *n == "machine.full_scan_ms");
        let full_scan_s = full_scan_ms.expect("probed").1 * 1e-3;
        values.push(("client.speedup_vs_full_scan", summary.throughput_qps * full_scan_s));
        let metrics = resolve(&PER_LAYER, &values);
        let path = cfg.out_dir.join(format!("trace-{}.json", cfg.kind.name()));
        layers::write_trace(&path, &tracer, &metrics, summary.ref_s, &meta)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        meta.push(("trace_file", Value::String(path.display().to_string())));
        metrics
    } else {
        let values = [
            ("setup_s", median(&setup_times)),
            ("queries_per_cpu_scan", summary.queries_per_cpu_scan),
            ("latency_p50_cpu_scans", summary.latency_p50_cpu_scans),
            ("cpu_per_query_cpu_scans", summary.cpu_per_query_cpu_scans),
            ("peak_rss_mb", peak_rss.saturating_sub(baseline_rss) as f64 / 1e6),
        ];
        resolve(&END_TO_END, &values)
    };
    if let Some(before) = &unpinned {
        clock::set_affinity(before);
    }
    Ok(Report { attempted: sliced.attempted, failed, metrics, meta: object(meta) })
}
