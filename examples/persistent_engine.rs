//! The persistent segment store: build a clustered collection, persist it
//! with its stats/zone-map footer, cold-open it from disk, and check the
//! reopened engine answers exactly like the in-memory one.
//!
//! ```text
//! # self-contained demo (persist + reopen in one process, temp file)
//! cargo run --release --example persistent_engine
//!
//! # cross-process check, as the CI persistence-smoke job runs it:
//! cargo run --release --example persistent_engine -- persist /tmp/bond_store
//! cargo run --release --example persistent_engine -- verify  /tmp/bond_store
//! ```
//!
//! `persist` builds a deterministic collection, persists the store and
//! writes the expected top-k answers (bit-exact, as `f64::to_bits` hex) for
//! all four rules to a sidecar file. `verify` — typically a *separate
//! process* — cold-opens the store via `EngineBuilder::open`, re-runs the
//! same queries and exits non-zero on any deviation: bit-identical hits
//! under uniform and adaptive planning alike, and again under
//! `ScanMode::QuantizedFilter`, which must sweep the codes persisted in
//! the store's footer without building any.

use std::path::{Path, PathBuf};
use std::time::Instant;

use bond_datagen::{sample_queries, ClusteredConfig};
use bond_exec::{Engine, EngineBuilder, PlannerKind, QuerySpec, RuleKind, ScanMode};
use bond_obs::names;
use vdstore::{DecomposedTable, StorageBackend};

const ROWS: usize = 20_000;
const DIMS: usize = 32;
const K: usize = 10;
const N_QUERIES: usize = 8;
const PARTITIONS: usize = 8;
const QUERY_SEED: u64 = 4321;

/// The deterministic collection both processes regenerate identically.
fn collection() -> DecomposedTable {
    ClusteredConfig { clusters: 16, ..ClusteredConfig::small(ROWS, DIMS, 0.0) }
        .with_cluster_major(true)
        .generate()
}

fn rules() -> [RuleKind; 4] {
    RuleKind::ALL
}

fn in_memory_engine(table: DecomposedTable) -> Engine {
    Engine::builder(table)
        .partitions(PARTITIONS)
        .threads(2)
        .build()
        .expect("valid engine configuration")
}

/// One expected-answer line: `rule query_index rank row score_bits`.
fn answer_lines(engine: &Engine, queries: &[Vec<f64>], mode: ScanMode) -> Vec<String> {
    let mut lines = Vec::new();
    for rule in rules() {
        for (qi, q) in queries.iter().enumerate() {
            let spec = QuerySpec::new(q.clone(), K).rule(rule.clone()).scan_mode(mode);
            let outcome = engine.search_spec(&spec).expect("query executes");
            for (rank, hit) in outcome.hits.iter().enumerate() {
                lines.push(format!(
                    "{} {qi} {rank} {} {:016x}",
                    rule.name(),
                    hit.row,
                    hit.score.to_bits()
                ));
            }
        }
    }
    lines
}

fn expected_path(store: &Path) -> PathBuf {
    store.with_extension("expected")
}

fn persist(store: &Path) {
    let table = collection();
    let queries = sample_queries(&table, N_QUERIES, QUERY_SEED);
    let timer = Instant::now();
    let engine = in_memory_engine(table);
    println!("built in-memory engine in {:.1} ms", timer.elapsed().as_secs_f64() * 1000.0);

    let timer = Instant::now();
    engine.persist(store).expect("store persists");
    let file_mb = std::fs::metadata(store).map(|m| m.len() as f64 / 1e6).unwrap_or(0.0);
    println!(
        "persisted {} rows x {} dims + {} segment stats footers to {} ({file_mb:.1} MB) \
         in {:.1} ms",
        engine.table().rows(),
        engine.table().dims(),
        engine.partitions(),
        store.display(),
        timer.elapsed().as_secs_f64() * 1000.0,
    );

    let lines = answer_lines(&engine, &queries, ScanMode::Exact);
    std::fs::write(expected_path(store), lines.join("\n") + "\n").expect("expected file writes");
    println!("wrote {} expected answers to {}", lines.len(), expected_path(store).display());
}

fn verify(store: &Path) {
    let backend = StorageBackend::from_env();
    let timer = Instant::now();
    let engine = EngineBuilder::open(store)
        .expect("store reopens")
        .threads(2)
        .build()
        .expect("reopened engine builds");
    println!(
        "cold-opened {} via {:?} (columns: {:?}) in {:.1} ms",
        store.display(),
        backend,
        engine.storage_backend(),
        timer.elapsed().as_secs_f64() * 1000.0,
    );

    // queries are re-derived deterministically from the reopened table
    let queries = sample_queries(engine.table(), N_QUERIES, QUERY_SEED);
    let expected = std::fs::read_to_string(expected_path(store)).expect("expected file reads");
    let expected: Vec<&str> = expected.lines().collect();
    let got = answer_lines(&engine, &queries, ScanMode::Exact);
    check_answers(&expected, &got);
    println!(
        "OK: {} answers bit-identical across the process boundary ({} rules x {} queries x k={K})",
        got.len(),
        rules().len(),
        N_QUERIES,
    );

    // adaptive planning on the reopened engine: bit-identical + zone-map
    // skips driven purely by the footer statistics
    let mut skipped = 0usize;
    for (qi, q) in queries.iter().enumerate() {
        let spec =
            QuerySpec::new(q.clone(), K).rule(RuleKind::EuclideanEv).planner(PlannerKind::Adaptive);
        let adaptive = engine.search_spec(&spec).expect("adaptive query executes");
        let reference = engine.sequential_reference_spec(&spec).expect("reference executes");
        skipped += adaptive.segments_skipped();
        if adaptive.hits != reference {
            eprintln!("FAIL: adaptive query {qi}: {:?} vs {:?}", adaptive.hits, reference);
            std::process::exit(1);
        }
    }
    println!(
        "OK: adaptive planning bit-identical on the reopened engine; \
         {skipped} of {} segment searches skipped via persisted zone maps",
        N_QUERIES * PARTITIONS,
    );

    // the code filter sweeps the codes the footer carried: same answers,
    // and no companion is built in this process
    let got = answer_lines(&engine, &queries, ScanMode::QuantizedFilter);
    check_answers(&expected, &got);
    let builds = engine.metrics().counter_value(names::ENGINE_CODES_BUILDS).unwrap_or(0);
    if builds != 0 {
        eprintln!("FAIL: the reopened engine built {builds} code companions");
        std::process::exit(1);
    }
    println!("OK: code-filtered answers bit-identical from the persisted codes");
}

/// Exits non-zero unless `got` equals the `expected` answer lines.
fn check_answers(expected: &[&str], got: &[String]) {
    if expected.len() != got.len() {
        eprintln!("FAIL: {} expected answers, {} computed", expected.len(), got.len());
        std::process::exit(1);
    }
    let mut mismatches = 0;
    for (e, g) in expected.iter().zip(got) {
        if *e != g.as_str() {
            if mismatches < 10 {
                eprintln!("FAIL: expected `{e}`, got `{g}`");
            }
            mismatches += 1;
        }
    }
    if mismatches > 0 {
        eprintln!("FAIL: {mismatches} of {} answers deviate", got.len());
        std::process::exit(1);
    }
}

fn demo() {
    let dir = std::env::temp_dir().join(format!("bond_persistent_engine_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let store = dir.join("demo.bondvd");
    persist(&store);
    verify(&store);

    // cold-open cost vs. rebuild cost, side by side
    let timer = Instant::now();
    let rebuilt = in_memory_engine(collection());
    let rebuild_ms = timer.elapsed().as_secs_f64() * 1000.0;
    let timer = Instant::now();
    let reopened = EngineBuilder::open(&store).expect("reopens").build().expect("builds");
    let reopen_ms = timer.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(reopened.segment_stats(), rebuilt.segment_stats());
    println!(
        "cold open {reopen_ms:.1} ms vs generate+build {rebuild_ms:.1} ms \
         (footer stats bit-identical to rebuilt stats)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => demo(),
        [mode, path] if mode == "persist" => persist(Path::new(path)),
        [mode, path] if mode == "verify" => verify(Path::new(path)),
        _ => {
            eprintln!("usage: persistent_engine [persist|verify <path>]");
            std::process::exit(2);
        }
    }
}
