//! Adaptive planning on clustered data: most-promising-first segment
//! visits and κ-aware whole-segment skipping, compared against the uniform
//! (row-order) engine.
//!
//! ```text
//! cargo run --release --example adaptive_search
//! ```

use std::sync::Arc;
use std::time::Instant;

use bond_datagen::ClusteredConfig;
use bond_exec::{Engine, PlannerKind, RequestBatch, RuleKind};

fn main() {
    // 1. A clustered collection in the cluster-major layout: vectors were
    //    "appended in batches", so contiguous row segments hold different
    //    clusters and their statistics diverge — the regime zone-map
    //    skipping is built for.
    let table = Arc::new(
        ClusteredConfig { clusters: 12, ..ClusteredConfig::small(30_000, 32, 0.0) }
            .with_cluster_major(true)
            .generate(),
    );
    let k = 10;
    let partitions = 8;
    let queries: Vec<Vec<f64>> =
        (0..12).map(|i| table.row((i * 2500 + 7) as u32).unwrap()).collect();
    println!(
        "collection: {} clustered vectors x {} dims (cluster-major), {} queries, k = {k}",
        table.rows(),
        table.dims(),
        queries.len(),
    );

    // 2. Two engines over the same table: row-order visits vs.
    //    most-promising-first visits plus zone-map segment skipping.
    let build = |planner: PlannerKind| {
        Engine::builder(table.clone())
            .partitions(partitions)
            .threads(1) // isolate skipping from parallel speedup
            .rule(RuleKind::EuclideanEv)
            .planner(planner)
            .build()
            .expect("valid engine configuration")
    };
    let uniform = build(PlannerKind::Uniform);
    let adaptive = build(PlannerKind::Adaptive);

    // 3. The adaptive planner reads the per-segment zone maps the engine
    //    cached at build time; show how much the segments disagree.
    let stats = adaptive.segment_stats();
    println!("\nper-segment mean of dimension 0 (segments hold different clusters):");
    for s in stats {
        let mean0 = s.per_dim[0].as_ref().map_or(f64::NAN, |c| c.mean);
        println!("  rows {:>6}..{:<6} mean(dim 0) = {mean0:.3}", s.range.start, s.range.end);
    }

    // 4. Run the same batch through both planners.
    let batch = RequestBatch::from_queries(queries.clone(), k);
    let run = |engine: &Engine, name: &str| {
        let t = Instant::now();
        let outcome = engine.execute(&batch).unwrap();
        let elapsed = t.elapsed();
        let work: u64 = outcome.queries.iter().map(|q| q.contributions_evaluated()).sum();
        let skipped: usize = outcome.queries.iter().map(|q| q.segments_skipped()).sum();
        println!(
            "{name:>9}: {elapsed:?}, {work} contributions, \
             {skipped} of {} segment searches skipped",
            batch.len() * engine.partitions(),
        );
        outcome
    };
    println!();
    let u = run(&uniform, "uniform");
    let a = run(&adaptive, "adaptive");

    // 5. Exactness: the adaptive engine returns the same rows with the same
    //    scores, bit for bit — skipping changes work, never answers.
    for (qu, qa) in u.queries.iter().zip(&a.queries) {
        assert_eq!(qu.hits, qa.hits, "same rows and scores");
    }
    println!("\nadaptive answers match the uniform engine's, bit for bit");

    // 6. Where the savings come from: one query's per-segment behaviour.
    let q0 = &a.queries[0];
    println!("\nquery 0 under the adaptive planner:");
    for run in &q0.segments {
        if run.trace.segment_skipped {
            println!(
                "  rows {:>6}..{:<6} SKIPPED (zone-map bound outside κ, zero columns touched)",
                run.rows.start, run.rows.end
            );
        } else {
            println!(
                "  rows {:>6}..{:<6} scanned {:>2} dims, {:>2} pruning attempts",
                run.rows.start, run.rows.end, run.trace.dims_accessed, run.trace.pruning_attempts,
            );
        }
    }
}
