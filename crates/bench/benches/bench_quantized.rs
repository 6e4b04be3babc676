//! Exact vs quantized-filter vs approximate scans on clustered data:
//! latency, exact cells scanned, filter selectivity and recall@k.
//!
//! ```text
//! cargo bench -p bond-bench --bench bench_quantized
//! ```
//!
//! Generates `datagen`'s clustered distribution in the cluster-major layout
//! and runs the same evaluation batch through one engine under its three
//! scan modes:
//!
//! * `exact` — the plain branch-and-bound scan over the `f64` fragments;
//! * `quantized_filter` — the branch-free `u8` code sweep first, exact
//!   refinement only for rows whose optimistic interval bound reaches κ
//!   (bit-identical answers, verified against the exact run);
//! * `approximate_8bit` — answers from the codes alone, with per-hit error
//!   bounds and recall@k measured against the exact answers.
//!
//! Reports per-mode latency, exact `f64` cells scanned, code cells swept
//! and filter selectivity, plus the headline `exact_cells_ratio` (exact
//! cells of the exact run over exact cells of the filtered run) on one
//! machine-readable `BENCH_JSON` line.
//!
//! A second section compares scan-kernel flavours head to head: the same
//! code sweep (`quantfilter::interval_scores_into`) runs once per
//! supported [`Kernel`] at 4 and 8 bits, asserts cross-kernel
//! bit-identity inline, and reports cells/sec per flavour plus the
//! dispatched-vs-scalar speedup in the same `BENCH_JSON` line.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use bond::quantfilter::interval_scores_into;
use bond::{Kernel, QuantScratch};
use bond_datagen::{sample_queries, ClusteredConfig};
use bond_exec::{Engine, QuerySpec, RequestBatch, RuleKind, ScanMode};
use bond_metrics::SquaredEuclidean;
use vdstore::{SegmentStats, StoreCodes};

struct Series {
    mode: &'static str,
    batch_ms: f64,
    ms_per_query: f64,
    exact_cells: u64,
    filter_cells: u64,
    selectivity: f64,
    recall: f64,
    mean_error_bound: f64,
}

struct KernelSeries {
    bits: u8,
    kernel: &'static str,
    sweep_ms: f64,
    cells_per_sec: f64,
}

/// Runs the bare filter-phase sweep (LUT build + code sweep, no exact
/// refinement) over every segment for every query on one explicit
/// kernel flavour, and returns the per-row interval bounds as a
/// bit-pattern digest so flavours can be compared for exact identity.
fn sweep_all(
    codes: &StoreCodes,
    queries: &[Vec<f64>],
    kernel: Kernel,
    scratch: &mut QuantScratch,
    digest: Option<&mut Vec<u64>>,
) -> u64 {
    let metric = SquaredEuclidean;
    let mut cells = 0u64;
    let mut digest = digest;
    for query in queries {
        for si in 0..codes.n_segments() {
            let view = codes.segment_view(si).expect("segment view");
            cells += interval_scores_into(&view, &metric, query, kernel, scratch)
                .expect("sweep succeeds");
            if let Some(bits) = digest.as_deref_mut() {
                bits.extend(scratch.opt().iter().chain(scratch.pes()).map(|v| v.to_bits()));
            }
        }
    }
    cells
}

fn main() {
    let rows = 40_000;
    let dims = 32;
    let k = 10;
    let n_queries = 16;
    let partitions = 8;
    let reps = 3;

    let table = Arc::new(
        ClusteredConfig { clusters: 16, ..ClusteredConfig::small(rows, dims, 0.0) }
            .with_cluster_major(true)
            .generate(),
    );
    let queries = sample_queries(&table, n_queries, 4321);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "quantized scan: {} rows x {dims} dims (clustered, cluster-major), {n_queries} queries, \
         k = {k}, {partitions} partitions, {cores} cores",
        table.rows()
    );

    let engine = Engine::builder(table.clone())
        .partitions(partitions)
        .threads(1) // isolate scan-kernel work from parallel speedup
        .rule(RuleKind::EuclideanEv)
        .build()
        .expect("valid engine configuration");
    // encode once, outside the timed region — persisted stores get this
    // for free from the footer
    let encode_timer = Instant::now();
    engine.ensure_codes(8).expect("finite table quantizes");
    println!("  one-time 8-bit encode: {:.2} ms", encode_timer.elapsed().as_secs_f64() * 1000.0);

    let batch_for = |scan: Option<ScanMode>| {
        RequestBatch::from_specs(
            queries
                .iter()
                .map(|q| {
                    let spec = QuerySpec::new(q.clone(), k);
                    match scan {
                        Some(scan) => spec.scan_mode(scan),
                        None => spec,
                    }
                })
                .collect(),
        )
    };

    let exact_reference = engine.execute(&batch_for(None)).expect("exact batch executes");

    let mut series: Vec<Series> = Vec::new();
    for (mode, scan) in [
        ("exact", None),
        ("quantized_filter", Some(ScanMode::QuantizedFilter)),
        ("approximate_8bit", Some(ScanMode::ApproximateQuantized)),
    ] {
        let batch = batch_for(scan);
        // untimed pass collects the work counters and checks the answers
        let outcome = engine.execute(&batch).expect("batch executes");
        let exact_cells: u64 = outcome.queries.iter().map(|q| q.contributions_evaluated()).sum();
        let filter_cells: u64 = outcome.queries.iter().map(|q| q.quant_filter_cells()).sum();
        let selectivities: Vec<f64> =
            outcome.queries.iter().filter_map(|q| q.quant_filter_selectivity()).collect();
        let selectivity = if selectivities.is_empty() {
            0.0
        } else {
            selectivities.iter().sum::<f64>() / selectivities.len() as f64
        };

        let mut recalled = 0usize;
        let mut bound_sum = 0.0f64;
        let mut bound_n = 0usize;
        for (got, reference) in outcome.queries.iter().zip(&exact_reference.queries) {
            recalled +=
                got.hits.iter().filter(|h| reference.hits.iter().any(|r| r.row == h.row)).count();
            if let Some(bounds) = &got.error_bounds {
                bound_sum += bounds.iter().sum::<f64>();
                bound_n += bounds.len();
            }
            if scan == Some(ScanMode::QuantizedFilter) {
                assert_eq!(got.hits, reference.hits, "quantized filter must stay bit-identical");
            }
        }
        let recall = recalled as f64 / (n_queries * k) as f64;
        let mean_error_bound = bound_sum / bound_n.max(1) as f64;

        let timer = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(engine.execute(&batch).expect("batch executes"));
        }
        let elapsed = timer.elapsed();
        let batch_ms = elapsed.as_secs_f64() * 1000.0 / reps as f64;
        let ms_per_query = batch_ms / batch.len() as f64;
        println!(
            "  {mode:>16}: {batch_ms:>8.2} ms/batch, {ms_per_query:>6.2} ms/query, \
             {exact_cells:>12} exact cells, {filter_cells:>12} code cells, \
             selectivity {selectivity:>6.4}, recall@{k} {recall:.3}",
        );
        series.push(Series {
            mode,
            batch_ms,
            ms_per_query,
            exact_cells,
            filter_cells,
            selectivity,
            recall,
            mean_error_bound,
        });
    }

    let exact = &series[0];
    let filtered = &series[1];
    let cells_ratio = exact.exact_cells as f64 / filtered.exact_cells.max(1) as f64;
    println!(
        "  quantized filter vs exact: {:.2}x latency, {:.1}x fewer exact cells \
         ({} -> {}), approximate recall@{k} {:.3}",
        filtered.batch_ms / exact.batch_ms,
        cells_ratio,
        exact.exact_cells,
        filtered.exact_cells,
        series[2].recall,
    );

    // --- kernel flavour comparison: the same sweep per ISA path --------
    // Bypasses the engine so the flavour is explicit per series (the
    // process-wide `BOND_KERNEL` dispatch latches once and can't be
    // varied afterwards); every flavour is checked bit-identical to the
    // scalar reference before its timed reps.
    let specs = table.partition_specs(partitions);
    let stats: Vec<SegmentStats> =
        specs.iter().map(|s| s.view(&table).expect("segment view").stats()).collect();
    let kernel_reps = 20;
    let active = Kernel::active();
    println!("  kernel sweep comparison (dispatched flavour: {}):", active.label());
    let mut kernel_series: Vec<KernelSeries> = Vec::new();
    for bits in [4u8, 8] {
        let codes =
            StoreCodes::build(&table, &specs, &stats, bits).expect("finite table quantizes");
        let flavours: Vec<Kernel> = Kernel::ALL.into_iter().filter(|k| k.is_supported()).collect();
        let mut reference: Option<Vec<u64>> = None;
        let mut cells = 0u64;
        let mut scratches: Vec<QuantScratch> = Vec::new();
        for &kernel in &flavours {
            let mut scratch = QuantScratch::new();
            // untimed warm pass: sizes the scratch, faults in the code
            // columns, and captures the bounds for the identity check
            let mut digest = Vec::new();
            cells = sweep_all(&codes, &queries, kernel, &mut scratch, Some(&mut digest));
            match &reference {
                Some(expected) => assert_eq!(
                    expected,
                    &digest,
                    "{} sweep must be bit-identical to scalar",
                    kernel.label()
                ),
                None => reference = Some(digest),
            }
            scratches.push(scratch);
        }
        // interleave the flavours rep by rep and keep each one's best
        // pass: on a shared host, load spikes would otherwise land on
        // whichever flavour happened to run during them
        let mut best = vec![f64::INFINITY; flavours.len()];
        for _ in 0..kernel_reps {
            for (f, &kernel) in flavours.iter().enumerate() {
                let timer = Instant::now();
                std::hint::black_box(sweep_all(&codes, &queries, kernel, &mut scratches[f], None));
                best[f] = best[f].min(timer.elapsed().as_secs_f64());
            }
        }
        for (f, &kernel) in flavours.iter().enumerate() {
            let sweep_ms = best[f] * 1000.0;
            let cells_per_sec = cells as f64 / best[f];
            println!(
                "    {:>6} @ {bits} bits: {sweep_ms:>7.2} ms/sweep-pass, {:>7.1} Mcells/s",
                kernel.label(),
                cells_per_sec / 1e6
            );
            kernel_series.push(KernelSeries {
                bits,
                kernel: kernel.label(),
                sweep_ms,
                cells_per_sec,
            });
        }
    }
    let cps = |bits: u8, label: &str| {
        kernel_series
            .iter()
            .find(|s| s.bits == bits && s.kernel == label)
            .map_or(0.0, |s| s.cells_per_sec)
    };
    let kernel_speedup_8bit = cps(8, active.label()) / cps(8, "scalar").max(f64::MIN_POSITIVE);
    let kernel_speedup_4bit = cps(4, active.label()) / cps(4, "scalar").max(f64::MIN_POSITIVE);
    println!(
        "    dispatched ({}) vs scalar: {kernel_speedup_4bit:.2}x cells/s at 4 bits, \
         {kernel_speedup_8bit:.2}x at 8 bits",
        active.label()
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"bench\":\"quantized_scan\",\"rows\":{},\"dims\":{dims},\"k\":{k},\
         \"queries\":{n_queries},\"partitions\":{partitions},\"reps\":{reps},\"cores\":{cores},\
         \"rule\":\"Ev\",\"bits\":8,\"distribution\":\"clustered_cluster_major\",\
         \"exact_cells_ratio\":{cells_ratio:.4},\"series\":[",
        table.rows()
    );
    for (i, s) in series.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"mode\":\"{}\",\"batch_ms\":{:.4},\"ms_per_query\":{:.4},\
             \"exact_cells\":{},\"filter_cells\":{},\"selectivity\":{:.6},\
             \"recall\":{:.4},\"mean_error_bound\":{:.6}}}",
            s.mode,
            s.batch_ms,
            s.ms_per_query,
            s.exact_cells,
            s.filter_cells,
            s.selectivity,
            s.recall,
            s.mean_error_bound
        );
    }
    let _ = write!(
        json,
        "],\"active_kernel\":\"{}\",\"kernel_speedup_4bit\":{kernel_speedup_4bit:.4},\
         \"kernel_speedup_8bit\":{kernel_speedup_8bit:.4},\"kernels\":[",
        active.label()
    );
    for (i, s) in kernel_series.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"kernel\":\"{}\",\"bits\":{},\"sweep_ms\":{:.4},\"cells_per_sec\":{:.0}}}",
            s.kernel, s.bits, s.sweep_ms, s.cells_per_sec
        );
    }
    json.push_str("]}");
    println!("BENCH_JSON {json}");
}
