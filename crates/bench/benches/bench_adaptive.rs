//! Uniform vs. Adaptive planning on clustered data: batch latency and
//! zone-map segment skipping (both planners run the same dimension plan,
//! so the adaptive series differs only by its visit order and skips).
//!
//! ```text
//! cargo bench -p bond-bench --bench bench_adaptive
//! ```
//!
//! Generates `datagen`'s clustered distribution in the cluster-major layout
//! (the append-in-batches regime where contiguous row segments have
//! divergent statistics), runs the same query batch through a
//! `PlannerKind::Uniform` and a `PlannerKind::Adaptive` engine, and reports
//! per-planner batch latency, scanned work and how many `query × segment`
//! searches the adaptive zone-map check skipped outright. Ends with a
//! machine-readable `BENCH_JSON` line for the perf trajectory.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use bond_datagen::{sample_queries, ClusteredConfig};
use bond_exec::{Engine, PlannerKind, RequestBatch, RuleKind};

struct Series {
    planner: &'static str,
    batch_ms: f64,
    ms_per_query: f64,
    contributions: u64,
    segments_skipped: usize,
}

fn main() {
    let rows = 40_000;
    let dims = 32;
    let k = 10;
    let n_queries = 16;
    let partitions = 8;
    let reps = 3;

    // Few clusters relative to the partition count: each contiguous segment
    // then covers a handful of clusters, its envelopes are narrow, and the
    // zone-map check has something to skip — the regime adaptive planning
    // is built for.
    let table = Arc::new(
        ClusteredConfig { clusters: 16, ..ClusteredConfig::small(rows, dims, 0.0) }
            .with_cluster_major(true)
            .generate(),
    );
    let queries = sample_queries(&table, n_queries, 4321);
    let batch = RequestBatch::from_queries(queries, k);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "adaptive planning: {} rows x {dims} dims (clustered, cluster-major), \
         {n_queries} queries, k = {k}, {partitions} partitions, {cores} cores",
        table.rows()
    );

    let mut series: Vec<Series> = Vec::new();
    for (name, planner) in [("uniform", PlannerKind::Uniform), ("adaptive", PlannerKind::Adaptive)]
    {
        let engine = Engine::builder(table.clone())
            .partitions(partitions)
            .threads(1) // isolate skipping from parallel speedup
            .rule(RuleKind::EuclideanEv)
            .planner(planner)
            .build()
            .expect("valid engine configuration");
        // warm-up pass (untimed) also collects the work counters
        let outcome = engine.execute(&batch).expect("batch executes");
        let contributions: u64 = outcome.queries.iter().map(|q| q.contributions_evaluated()).sum();
        let segments_skipped: usize = outcome.queries.iter().map(|q| q.segments_skipped()).sum();

        let timer = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(engine.execute(&batch).expect("batch executes"));
        }
        let elapsed = timer.elapsed();
        let batch_ms = elapsed.as_secs_f64() * 1000.0 / reps as f64;
        let ms_per_query = batch_ms / batch.len() as f64;
        println!(
            "  {name:>8}: {batch_ms:>8.2} ms/batch, {ms_per_query:>6.2} ms/query, \
             {contributions:>12} contributions, {segments_skipped:>3} segment searches skipped",
        );
        series.push(Series {
            planner: name,
            batch_ms,
            ms_per_query,
            contributions,
            segments_skipped,
        });
    }

    let uniform = &series[0];
    let adaptive = &series[1];
    println!(
        "  adaptive vs uniform: {:.2}x latency, {:.2}x scanned work, {} of {} segment searches skipped",
        adaptive.batch_ms / uniform.batch_ms,
        adaptive.contributions as f64 / uniform.contributions.max(1) as f64,
        adaptive.segments_skipped,
        n_queries * partitions,
    );

    // Machine-readable summary for the perf trajectory.
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"bench\":\"adaptive_planning\",\"rows\":{},\"dims\":{dims},\"k\":{k},\
         \"queries\":{n_queries},\"partitions\":{partitions},\"reps\":{reps},\"cores\":{cores},\
         \"rule\":\"Ev\",\"distribution\":\"clustered_cluster_major\",\"series\":[",
        table.rows()
    );
    for (i, s) in series.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"planner\":\"{}\",\"batch_ms\":{:.4},\"ms_per_query\":{:.4},\
             \"contributions\":{},\"segments_skipped\":{}}}",
            s.planner, s.batch_ms, s.ms_per_query, s.contributions, s.segments_skipped
        );
    }
    json.push_str("]}");
    println!("BENCH_JSON {json}");
}
