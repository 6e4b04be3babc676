//! End-to-end observability walkthrough: EXPLAIN a query, execute it,
//! ANALYZE the outcome against the rendered plan, inspect stage-level
//! spans, and dump the engine's metrics registry in both export formats.
//!
//! ```text
//! cargo run --release --example observability
//! ```
//!
//! Builds a clustered, cluster-major collection (the regime where adaptive
//! planning skips whole segments) behind a `PlannerKind::Adaptive` engine,
//! then walks the full observability surface: `Engine::explain` renders
//! the query's plan, the visit order and the per-segment envelope bounds
//! *without executing*; `QueryOutcome::analyze` joins that rendered plan
//! with the executed `PruneTrace` (scanned cells, prune depth, skip
//! status, plan match); the span ring buffer
//! shows where the batch's wall time went; and
//! `MetricsRegistry::render_text` / `render_json` export the counters in
//! Prometheus-style text and the benches' `BENCH_JSON` convention.

use std::sync::Arc;

use bond_datagen::{sample_queries, ClusteredConfig};
use bond_exec::{Engine, PlannerKind, QuerySpec, RuleKind, ScanMode};
use bond_obs::span;

fn main() {
    // 1. A clustered collection in the cluster-major layout: contiguous
    //    row segments hold different clusters, so their zone maps
    //    diverge and far segments can be skipped outright.
    let table = Arc::new(
        ClusteredConfig { clusters: 16, ..ClusteredConfig::small(20_000, 32, 0.0) }
            .with_cluster_major(true)
            .generate(),
    );
    let k = 10;
    let engine = Engine::builder(table.clone())
        .partitions(8)
        .threads(2)
        .rule(RuleKind::EuclideanEv)
        .planner(PlannerKind::Adaptive)
        .build()
        .expect("valid engine configuration");
    println!(
        "collection: {} clustered vectors x {} dims (cluster-major), 8 partitions, k = {k}",
        table.rows(),
        table.dims(),
    );

    // 2. Turn the span subscriber on (a single atomic flag; while it is
    //    off — the default — every instrumented stage costs one relaxed
    //    load).
    span::set_enabled(true);

    // 3. EXPLAIN: render the plan the engine *would* run — visit order
    //    (nearest envelope first), the query's one dimension ordering and
    //    block schedule, per-segment envelope bound — without executing
    //    anything.
    let spec = QuerySpec::new(sample_queries(&table, 1, 4321).remove(0), k);
    let explain = engine.explain(&spec).expect("explainable query");
    println!("\n{explain}");

    // 4. Execute the same spec and ANALYZE: join the executed prune
    //    traces against the rendered plan. Scanned cells are exactly the
    //    summed PruneTrace work counters, and the executed plan must
    //    match the one EXPLAIN rendered.
    let outcome = engine.search_spec(&spec).expect("query executes");
    let analysis = outcome.analyze(&explain);
    println!("{analysis}");
    assert!(analysis.plans_match(), "executed plan diverged from rendered plan");
    assert_eq!(analysis.scanned_cells(), outcome.contributions_evaluated());
    //    The exact loop proves κ by a probe only in a segment that carried
    //    none into its first step (ANALYZE's `probes=`): the first one
    //    visited, and on two threads perhaps the one beside it.
    let probes: Vec<u32> = analysis.segments.iter().map(|s| s.exact_probes).collect();
    assert!(probes.iter().all(|&p| p <= 1), "a segment probed twice:\n{analysis}");
    assert_eq!(probes[explain.visit_order[0]], 1, "the first segment ran cold:\n{analysis}");
    println!(
        "exact loop: {} κ probes over {} segments searched",
        probes.iter().sum::<u32>(),
        analysis.segments.len() - analysis.segments_skipped()
    );

    // 5. The same request through the quantized first pass: EXPLAIN now
    //    names the code width every segment sweeps, ANALYZE joins the
    //    executed filter counters (code cells swept, columns, skipped
    //    blocks, κ probes, rows refined exactly), and the answer stays
    //    bit-identical to the exact scan.
    let quantized = spec.clone().scan_mode(ScanMode::QuantizedFilter);
    let qexplain = engine.explain(&quantized).expect("explainable query");
    println!("{qexplain}");
    let qoutcome = engine.search_spec(&quantized).expect("query executes");
    assert_eq!(qoutcome.hits, outcome.hits, "the quantized filter must stay bit-identical");
    let qanalysis = qoutcome.analyze(&qexplain);
    println!("{qanalysis}");
    //    A segment probes κ after its last block, and after its first only
    //    when it carried no sibling's κ in (ANALYZE's `filter_probes=`).
    let probes: u32 = qanalysis.segments.iter().map(|s| s.filter_probes).sum();
    println!(
        "quantized filter: {} code cells swept, {probes} κ probes, {} rows refined exactly, \
         selectivity {:.4} (exact scan touched {} f64 cells)",
        qoutcome.quant_filter_cells(),
        qoutcome.quant_refine_rows(),
        qoutcome.quant_filter_selectivity().unwrap_or(1.0),
        outcome.contributions_evaluated(),
    );

    // 6. Where did the time go? Drain the span ring buffer and aggregate
    //    the per-stage durations of everything run so far.
    let spans = span::take_spans();
    let mut by_stage: Vec<(&'static str, u64, u64)> = Vec::new();
    for s in &spans {
        match by_stage.iter_mut().find(|(stage, _, _)| *stage == s.stage) {
            Some((_, count, total)) => {
                *count += 1;
                *total += s.duration_us;
            }
            None => by_stage.push((s.stage, 1, s.duration_us)),
        }
    }
    by_stage.sort_by_key(|(_, _, total)| std::cmp::Reverse(*total));
    println!("stage-level spans ({} records):", spans.len());
    for (stage, count, total) in &by_stage {
        println!("  {stage:<16} x{count:<5} {total:>8} us total");
    }

    // 7. The metrics registry: every layer of the engine emitted into it.
    //    Prometheus-style text for scraping …
    println!("\nmetrics (Prometheus text format):");
    print!("{}", engine.metrics().render_text());

    // 8. … and the one-line JSON snapshot the perf trajectory consumes.
    println!("\nBENCH_JSON {}", engine.metrics().render_json());
}
