//! The per-layer probes of the traced run. Each layer is measured **from
//! outside**, by timing calls into its public functions on the workload's own
//! collection and configuration; spans inside the program are ROADMAP 5a.
//!
//! Timings are medians over repetitions: thirty where a repetition is cheap,
//! fewer (never under [`MIN_REPS`]) where one repetition already takes a
//! good part of a second. Counts are taken over a fixed list of requests on a
//! freshly set-up system, so they repeat exactly for a fixed seed.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bond::kernels::{self, Kernel};
use bond::quantfilter::{filter_segment, interval_scores_into, QuantScratch};
use bond::{BondParams, BondSearcher, Result};
use bond_baselines::sequential_scan;
use bond_exec::{Engine, QuerySpec, RequestBatch, Server};
use bond_obs::names as obs_names;
use vdstore::persist::{open_store, save_store_with_codes};
use vdstore::{Bitmap, DecomposedTable, SegmentCodesView, StorageBackend, StoreCodes};

use crate::clock;
use crate::harness::Metric;
use crate::json::{object, Value};
use crate::refscan::brute_force;
use crate::stats::median;
use crate::trace::{Tracer, NO_SPAN};
use crate::workloads::{build_engine, set_up, Inputs, Kind, Sut, CODE_BITS, GROUP, K};

/// Repetitions a probe aims for.
pub const TARGET_REPS: usize = 30;
/// Repetitions every probe makes, however slow one is.
pub const MIN_REPS: usize = 3;
/// Requests of the fixed list the count metrics are taken over.
pub const COUNTED_REQUESTS: usize = 32;
/// Rows of the segment whose first pass is timed as "LUT build only".
const LUT_ROWS: usize = 64;

/// Repeats closures under a per-probe time cap and records one span per
/// repetition.
struct Prober<'t> {
    tracer: &'t mut Tracer,
    cap_s: f64,
}

impl Prober<'_> {
    /// Median of the seconds `run` reports over [`TARGET_REPS`] repetitions —
    /// fewer once the probe's time cap is used up, never fewer than
    /// [`MIN_REPS`]. `run` gets the repetition's index, so it can vary its
    /// input, and times the part of itself that counts.
    fn seconds_by(&mut self, name: &'static str, mut run: impl FnMut(usize) -> f64) -> f64 {
        let started = Instant::now();
        let mut times = Vec::with_capacity(TARGET_REPS);
        while times.len() < TARGET_REPS
            && (times.len() < MIN_REPS || started.elapsed().as_secs_f64() < self.cap_s)
        {
            let span = self.tracer.begin(name, NO_SPAN, times.len() as u64);
            times.push(run(times.len()));
            self.tracer.end(span);
        }
        median(&times)
    }

    /// [`Prober::seconds_by`] for a closure that counts as a whole.
    fn seconds(&mut self, name: &'static str, mut run: impl FnMut(usize)) -> f64 {
        self.seconds_by(name, |i| {
            let rep = Instant::now();
            run(i);
            rep.elapsed().as_secs_f64()
        })
    }
}

/// Work counters of the fixed request list, taken on a fresh system.
struct Counts {
    requests: usize,
    exact_cells: u64,
    code_cells: u64,
    refine_rows: u64,
    segments: usize,
    segments_skipped: usize,
    codes_rebuilds: usize,
}

fn count_fixed_list(inputs: &Inputs, store: Option<&Path>, tracer: &mut Tracer) -> Result<Counts> {
    let span = tracer.begin("probe.counts", NO_SPAN, 0);
    let sut = set_up(inputs, store)?;
    let uses_codes = inputs.kind.scan_mode().uses_codes();
    let mut counts = Counts {
        requests: 0,
        exact_cells: 0,
        code_cells: 0,
        refine_rows: 0,
        segments: 0,
        segments_skipped: 0,
        codes_rebuilds: 0,
    };
    let mut companion: Option<Arc<StoreCodes>> = None;
    for op in 0..(COUNTED_REQUESTS / inputs.kind.group()) as u64 {
        if uses_codes {
            // the companion the next query will sweep: a pointer that moved
            // since the previous query is a rebuild of the whole code store
            let now = sut.engine.ensure_adaptive_codes()?;
            if companion.as_ref().is_some_and(|before| !Arc::ptr_eq(before, &now)) {
                counts.codes_rebuilds += 1;
            }
            companion = Some(now);
        }
        // straight into the engine, one pass per operation: through the
        // server the worker's wake-up decides how a burst is split into
        // passes, and with it when feedback folds — counts would not repeat
        let specs = inputs.requests(op).iter().map(|&r| inputs.spec(r)).collect();
        for outcome in sut.engine.execute(&RequestBatch::from_specs(specs))?.queries {
            counts.requests += 1;
            counts.exact_cells += outcome.contributions_evaluated();
            counts.code_cells += outcome.quant_filter_cells();
            counts.refine_rows += outcome.quant_refine_rows();
            counts.segments += outcome.segments.len();
            counts.segments_skipped += outcome.segments_skipped();
        }
    }
    tracer.end(span);
    Ok(counts)
}

/// What the probes measure and what they may touch.
#[derive(Debug, Clone, Copy)]
pub struct ProbeTarget<'a> {
    /// The run's inputs.
    pub inputs: &'a Inputs,
    /// The system the sliced phase just ran against.
    pub sut: &'a Sut,
    /// Operations the sliced phase sent it.
    pub ops_sent: u64,
    /// The store the workload was set up from, if it starts from one.
    pub workload_store: Option<&'a Path>,
    /// A file the store probes may write and leave behind; the caller owns it.
    pub scratch_store: &'a Path,
    /// The CPUs the process had before the run pinned itself to one.
    pub unpinned: Option<&'a clock::CpuSet>,
}

/// Runs every layer probe for the target's workload within about `budget_s`
/// seconds and returns `(metric name, value)` pairs — all of
/// [`crate::names::PER_LAYER`] except the harness, client and datagen rows
/// the harness fills in itself.
pub fn probe(
    target: &ProbeTarget<'_>,
    tracer: &mut Tracer,
    budget_s: f64,
) -> Result<Vec<(&'static str, f64)>> {
    let ProbeTarget { inputs, sut, ops_sent, workload_store, scratch_store, unpinned } = *target;
    tracer.set_on(true);
    let kind = inputs.kind;
    let engine = &sut.engine;
    let table = engine.table();
    let (rows, dims) = (table.rows(), table.dims());
    let cells = (rows * dims) as f64;
    let metric = kind.rule().make_metric();
    let op = metric.kernel_op().expect("both base metrics expose a kernel op");
    let query = |i: usize| inputs.probe_query(i);
    let plain = |i: usize| QuerySpec::new(query(i).to_vec(), K);
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // --- bond-exec::service, bond-obs: read the workload's own counters
    // before any probe sends the server more requests ---
    let probe_server;
    let server = match &sut.server {
        Some(server) => server,
        None => {
            probe_server = Server::new(engine.clone());
            &probe_server
        }
    };
    // served workloads sent the set-up request plus every operation's group;
    // the others get a server of their own here and send it one round
    let sent = if kind.served() {
        ops_sent as usize * kind.group() + 1
    } else {
        for i in 0..GROUP {
            server.submit(plain(i))?.wait()?;
        }
        GROUP
    };
    let registry = server.metrics();
    out.push(("obs.served_counter_matches", f64::from(server.queries_served() == sent)));
    out.push((
        "service.queries_per_pass",
        server.queries_served() as f64 / server.batches_executed().max(1) as f64,
    ));
    out.push((
        "service.queue_wait_mean_us",
        registry.histogram_snapshot(obs_names::SERVICE_QUEUE_WAIT_US).map_or(0.0, |h| h.mean()),
    ));
    out.push(("service.rejected", server.queries_rejected() as f64));

    let mut p = Prober { tracer, cap_s: budget_s / 37.0 };

    let submit_s = p.seconds_by("service.submit_us", |i| {
        let spec = plain(i);
        let started = Instant::now();
        let ticket = server.submit(spec).expect("valid spec is admitted");
        let submit_s = started.elapsed().as_secs_f64();
        ticket.wait().expect("admitted request is answered");
        submit_s
    });
    out.push(("service.submit_us", submit_s * 1e6));
    let search_s = p.seconds("engine.search_ms", |i| {
        black_box(engine.search_spec(&plain(i)).expect("valid spec"));
    });
    out.push(("engine.search_ms", search_s * 1e3));
    out.push((
        "obs.metrics_json_us",
        p.seconds("obs.metrics_json_us", |_| {
            black_box(engine.metrics().render_json());
        }) * 1e6,
    ));

    // --- bond-exec::planner ---
    let first = inputs.spec(inputs.requests(0)[0]);
    let explain_s = p.seconds("planner.explain_us", |_| drop(black_box(engine.explain(&first))));
    out.push(("planner.explain_us", explain_s * 1e6));
    let estimate_s = p.seconds("planner.estimate_cost_us", |_| {
        black_box(engine.estimate_cost(&first));
    });
    out.push(("planner.estimate_cost_us", estimate_s * 1e6));
    let validate_s = p.seconds("planner.validate_us", |_| drop(black_box(engine.validate(&first))));
    out.push(("planner.validate_us", validate_s * 1e6));

    // --- bond-exec::engine ---
    // one eligible row per segment: plan, per-segment set-up and merge with
    // next to no scanning — the engine's fixed cost per query
    let first_rows: Vec<u32> = engine.segment_specs().iter().map(|s| s.start() as u32).collect();
    let sparse = Arc::new(Bitmap::from_rows(rows, &first_rows));
    let sparse_spec =
        |i: usize| QuerySpec::new(query(i).to_vec(), 1).filter_shared(Arc::clone(&sparse));
    let fixed_s = p.seconds("engine.fixed_overhead_us", |i| {
        black_box(engine.search_spec(&sparse_spec(i)).expect("one row per segment is eligible"));
    });
    out.push(("engine.fixed_overhead_us", fixed_s * 1e6));
    // the same next-to-no-scan request through the server: what submit, the
    // queue and the two thread hand-offs add, with no scan noise to hide it
    let round_trip_s = p.seconds("service.round_trip_overhead_us", |i| {
        let answer = server.submit(sparse_spec(i)).and_then(|ticket| ticket.wait());
        black_box(answer.expect("request is answered"));
    });
    out.push(("service.round_trip_overhead_us", (round_trip_s - fixed_s) * 1e6));
    let batch =
        |i: usize| RequestBatch::from_specs((0..GROUP).map(|j| plain(i * GROUP + j)).collect());
    let batch_s = p.seconds("engine.batch8_ms_per_query", |i| {
        black_box(engine.execute(&batch(i)).expect("valid batch"));
    });
    out.push(("engine.batch8_ms_per_query", batch_s / GROUP as f64 * 1e3));
    {
        // the same batches on one and on two engine threads; CPU time beside
        // wall time shows what the second thread cost rather than saved. The
        // one probe that wants a second CPU gets the process's own back.
        let pinned = clock::affinity();
        if let Some(all) = unpinned {
            clock::set_affinity(all);
        }
        let two = build_engine(inputs, workload_store, 2)?;
        if kind.scan_mode().uses_codes() {
            two.ensure_codes(CODE_BITS)?;
        }
        let cpu_of = |e: &Engine, i: usize| {
            let cpu = clock::process_cpu_s();
            black_box(e.execute(&batch(i)).expect("valid batch"));
            clock::process_cpu_s() - cpu
        };
        let (mut cpu_one, mut cpu_two) = (Vec::new(), Vec::new());
        let wall_one = p.seconds("engine.parallel_speedup_2t", |i| cpu_one.push(cpu_of(engine, i)));
        let wall_two = p.seconds("engine.spawn_overhead_us", |i| cpu_two.push(cpu_of(&two, i)));
        out.push(("engine.parallel_speedup_2t", wall_one / wall_two));
        out.push(("engine.spawn_overhead_us", (median(&cpu_two) - median(&cpu_one)) * 1e6));
        if let Some(one) = &pinned {
            clock::set_affinity(one);
        }
    }
    let counts = count_fixed_list(inputs, workload_store, p.tracer)?;
    let per_query = |n: u64| n as f64 / counts.requests.max(1) as f64;
    out.push(("engine.exact_cells_per_query", per_query(counts.exact_cells)));
    out.push(("engine.code_cells_per_query", per_query(counts.code_cells)));
    out.push(("engine.refine_rows_per_query", per_query(counts.refine_rows)));
    out.push((
        "engine.segments_skipped_share",
        counts.segments_skipped as f64 / counts.segments.max(1) as f64,
    ));
    out.push(("engine.codes_rebuilds_per_kquery", per_query(counts.codes_rebuilds as u64) * 1e3));

    // --- bond::searcher, bond-baselines ---
    let searcher = BondSearcher::new(table);
    let params = BondParams::default();
    let sequential = |query: &[f64]| match kind {
        Kind::ServeSmall => searcher.histogram_intersection_hh(query, K, &params),
        _ => searcher.euclidean_ev(query, K, &params),
    };
    out.push((
        "searcher.seq_query_ms",
        p.seconds("searcher.seq_query_ms", |i| {
            black_box(sequential(query(i)).expect("valid query"));
        }) * 1e3,
    ));
    let evaluated: u64 = (0..4)
        .map(|i| sequential(query(i)).map(|o| o.trace.contributions_evaluated))
        .sum::<Result<u64>>()?;
    out.push(("searcher.cells_share", evaluated as f64 / (4.0 * cells)));
    {
        let row_major = table.to_row_matrix();
        out.push((
            "baselines.seqscan_query_ms",
            p.seconds("baselines.seqscan_query_ms", |i| {
                black_box(sequential_scan(&row_major, query(i), K, metric.as_ref()));
            }) * 1e3,
        ));
    }

    // --- machine: the streaming read every sweep is compared against ---
    let stream_s = p.seconds("machine.stream_read_gb_s", |_| {
        black_box(inputs.flat.stream_sum());
    });
    let stream_gb_s = inputs.flat.bytes() as f64 / stream_s / 1e9;
    out.push(("machine.stream_read_gb_s", stream_gb_s));
    // the brute-force scan over the whole copy, memory traffic included: what
    // the reference scan would be if it did not have to repeat
    out.push((
        "machine.full_scan_ms",
        p.seconds("machine.full_scan_ms", |i| {
            black_box(brute_force(&inputs.flat, kind.measure(), query(i), None, None, K));
        }) * 1e3,
    ));

    // --- bond::kernels, bond::quantfilter: one segment, through the public
    // first-pass entry points (`interval_scores_into` is the sweep with its
    // LUT builds, `filter_segment` adds the survivor selection) ---
    let codes8 = engine.ensure_codes(CODE_BITS)?;
    let codes4 = StoreCodes::build(table, engine.segment_specs(), engine.segment_stats(), 4)
        .map_err(bond::BondError::Storage)?;
    let active = Kernel::active();
    let view8 = codes8.segment_view(0).map_err(bond::BondError::Storage)?;
    let view4 = codes4.segment_view(0).map_err(bond::BondError::Storage)?;
    let segment_cells = (view8.len() * dims) as f64;
    let mut scratch = QuantScratch::new();
    let mut sweep_s = |p: &mut Prober<'_>, name, view: &SegmentCodesView<'_>, kernel| {
        p.seconds(name, |i| {
            let swept = interval_scores_into(view, metric.as_ref(), query(i), kernel, &mut scratch);
            black_box(swept.expect("query has the segment's dimensions"));
        })
    };
    let sweep8_s = sweep_s(&mut p, "kernels.sweep8_gcells_s", &view8, active);
    let sweep4_s = sweep_s(&mut p, "kernels.sweep4_gcells_s", &view4, active);
    let scalar_s = sweep_s(&mut p, "kernels.sweep8_scalar_gcells_s", &view8, Kernel::Scalar);
    // the same pass over a segment of LUT_ROWS rows is all LUT build: the
    // builds cost the same whatever the segment's length, the sweep nothing
    let few = DecomposedTable::from_vectors("lut", &inputs.vectors[..LUT_ROWS.min(rows)])
        .map_err(bond::BondError::Storage)?;
    let few_codes =
        Engine::builder(few).partitions(1).threads(1).build()?.ensure_codes(CODE_BITS)?;
    let few_view = few_codes.segment_view(0).map_err(bond::BondError::Storage)?;
    let lut_s = sweep_s(&mut p, "kernels.fill_pair_lut_us", &few_view, active);
    out.push(("kernels.fill_pair_lut_us", lut_s * 1e6));
    out.push(("kernels.sweep8_gcells_s", segment_cells / sweep8_s / 1e9));
    out.push(("kernels.sweep4_gcells_s", segment_cells / sweep4_s / 1e9));
    out.push(("kernels.sweep8_scalar_gcells_s", segment_cells / scalar_s / 1e9));
    // a code cell is one byte, so Gcells/s over GB/s is the share of the
    // machine's streaming-read speed the sweep reaches
    out.push(("kernels.sweep8_share_of_stream", segment_cells / sweep8_s / 1e9 / stream_gb_s));
    {
        let segment = engine.segment_specs()[0].view(table).map_err(bond::BondError::Storage)?;
        let columns: Vec<&[f64]> =
            (0..dims).map(|d| segment.col_slice(d).expect("dimension in range")).collect();
        let mut acc = vec![0.0; segment.len()];
        let q = query(0);
        let dense_s = p.seconds("kernels.accumulate_gcells_s", |_| {
            for (d, column) in columns.iter().enumerate() {
                kernels::accumulate(active, op, d, column, q[d], &mut acc);
            }
            black_box(&acc);
        });
        out.push(("kernels.accumulate_gcells_s", segment_cells / dense_s / 1e9));
        // every 16th row: the candidate-list regime after the first prunes
        let sparse_rows: Vec<u32> = (0..segment.len() as u32).step_by(16).collect();
        let mut acc = vec![0.0; sparse_rows.len()];
        let gather_s = p.seconds("kernels.accumulate_gather_mcells_s", |_| {
            for (d, column) in columns.iter().enumerate() {
                kernels::accumulate_gather(active, op, d, column, &sparse_rows, q[d], &mut acc);
            }
            black_box(&acc);
        });
        out.push((
            "kernels.accumulate_gather_mcells_s",
            (sparse_rows.len() * dims) as f64 / gather_s / 1e6,
        ));

        let live = segment.live_bitmap();
        let filter_s = p.seconds("quantfilter.segment_us", |i| {
            black_box(
                filter_segment(&view8, metric.as_ref(), query(i), K, &live, None).expect("filter"),
            );
        });
        out.push(("quantfilter.segment_us", filter_s * 1e6));
        out.push(("quantfilter.lut_share", lut_s / filter_s));
    }
    {
        // survivors of the code filter, each of eight queries on its own
        // segment with no shared bound: a pure function of data and seed
        let (mut survivors, mut swept) = (0usize, 0usize);
        for (i, spec) in engine.segment_specs().iter().enumerate().take(8) {
            let view = codes8.segment_view(i).map_err(bond::BondError::Storage)?;
            let live = spec.view(table).map_err(bond::BondError::Storage)?.live_bitmap();
            let filter = filter_segment(&view, metric.as_ref(), query(i), K, &live, None)?;
            survivors += filter.survivors.count();
            swept += view.len();
        }
        out.push(("quantfilter.survivor_share", survivors as f64 / swept.max(1) as f64));
    }

    // --- vdstore::bitmap ---
    let live = table.live_bitmap();
    out.push((
        "vdstore.bitmap_and_count_mrows_s",
        rows as f64
            / p.seconds("vdstore.bitmap_and_count_mrows_s", |_| {
                let mut eligible = live.clone();
                eligible.and_with(&inputs.filter);
                black_box(eligible.count());
            })
            / 1e6,
    ));

    // --- vdstore::table, ::codes ---
    out.push((
        "vdstore.table_build_s",
        p.seconds("vdstore.table_build_s", |_| {
            black_box(
                DecomposedTable::from_vectors("probe", &inputs.vectors).expect("rectangular"),
            );
        }),
    ));
    let codes_s = p.seconds("vdstore.codes_build_mcells_s", |_| {
        let built =
            StoreCodes::build(table, engine.segment_specs(), engine.segment_stats(), CODE_BITS);
        black_box(built.expect("finite values quantize"));
    });
    out.push(("vdstore.codes_build_mcells_s", cells / codes_s / 1e6));

    // --- vdstore::persist, ::mmap ---
    let mut written = 0u64;
    let persist_s = p.seconds("vdstore.persist_mb_s", |_| {
        let report = save_store_with_codes(
            table,
            engine.segment_specs(),
            engine.segment_stats(),
            None,
            Some(&codes8),
            scratch_store,
        );
        written = report.expect("store is written").bytes_written;
    });
    out.push(("vdstore.persist_mb_s", written as f64 / 1e6 / persist_s));
    out.push(("vdstore.store_bytes_per_user_byte", written as f64 / (cells * 8.0)));
    for (name, backend) in [
        ("vdstore.open_mapped_ms", StorageBackend::Mapped),
        ("vdstore.open_heap_ms", StorageBackend::Heap),
    ] {
        let open_s = p.seconds(name, |_| {
            black_box(open_store(scratch_store, backend).expect("store reopens"));
        });
        out.push((name, open_s * 1e3));
    }
    out.push((
        "vdstore.mapped_first_query_ms",
        p.seconds("vdstore.mapped_first_query_ms", |i| {
            let cold = build_engine(inputs, Some(scratch_store), 1).expect("store reopens");
            black_box(cold.search_spec(&plain(i)).expect("valid spec"));
        }) * 1e3,
    ));
    p.tracer.set_on(false);
    Ok(out)
}

/// Writes the traced run's artefact: the per-layer table (timings also in
/// reference scans), per-name span totals with self time, and every span.
pub fn write_trace(
    path: &Path,
    tracer: &Tracer,
    metrics: &[Metric],
    ref_s: f64,
    meta: &[(&str, Value)],
) -> std::io::Result<()> {
    let seconds_per_unit = |unit: &str| match unit {
        "s" => Some(1.0),
        "ms" => Some(1e-3),
        "us" => Some(1e-6),
        _ => None,
    };
    let per_layer = object(metrics.iter().map(|m| {
        let mut entry =
            vec![("value", Value::Number(m.value)), ("unit", Value::String(m.def.unit.into()))];
        if let Some(scale) = seconds_per_unit(m.def.unit) {
            entry.push(("cpu_scans", Value::Number(m.value * scale / ref_s)));
        }
        (m.def.name, object(entry))
    }));
    let totals = object(tracer.totals().into_iter().map(|(name, t)| {
        let entry = object([
            ("count", Value::Number(t.count as f64)),
            ("total_s", Value::Number(t.total_s)),
            ("self_s", Value::Number(t.self_s)),
        ]);
        (name, entry)
    }));
    let spans = Value::Array(
        tracer
            .spans()
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::Array(vec![
                    Value::Number(id as f64),
                    Value::String(s.name.into()),
                    Value::Number(s.start_ns as f64),
                    Value::Number(s.end_ns as f64),
                    if s.parent == NO_SPAN { Value::Null } else { Value::Number(s.parent as f64) },
                    Value::Number(s.request as f64),
                ])
            })
            .collect(),
    );
    let doc = object([
        ("meta", object(meta.iter().cloned())),
        ("cpu_scan_s", Value::Number(ref_s)),
        ("per_layer", per_layer),
        ("span_totals", totals),
        (
            "span_columns",
            Value::Array(
                ["id", "name", "start_ns", "end_ns", "parent", "request"]
                    .map(|c| Value::String(c.into()))
                    .to_vec(),
            ),
        ),
        ("spans", spans),
    ]);
    std::fs::write(path, doc.render() + "\n")
}
