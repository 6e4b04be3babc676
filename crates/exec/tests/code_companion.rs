//! The quantized-filter code companion is built once and never on the
//! query path: an engine serving quantized-filter traffic on clustered
//! data — tight per-segment selectivity, the regime that used to re-encode
//! the store at 4 bits — keeps sweeping the one 8-bit companion, says so
//! in EXPLAIN/ANALYZE, and persists it in the footer, from which a
//! reopened engine seeds its cache. Stores that still carry an older
//! writer's mixed-width footer reopen without codes.

use bond_datagen::{sample_queries, ClusteredConfig};
use bond_exec::{Engine, EngineBuilder, PlannerKind, QuerySpec, RequestBatch, RuleKind, ScanMode};
use bond_obs::names;
use std::path::PathBuf;
use std::sync::Arc;
use vdstore::checksum::fnv1a;
use vdstore::persist::{store_to_bytes, store_to_bytes_with_codes};
use vdstore::{StorageBackend, DEFAULT_CODE_BITS};

const ROWS: usize = 2_000;
const DIMS: usize = 8;
const PARTITIONS: usize = 8;

fn temp_store(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bond_exec_code_companion_{tag}_{}", std::process::id()))
}

fn filter_spec(q: Vec<f64>) -> QuerySpec {
    QuerySpec::new(q, 10).scan_mode(ScanMode::QuantizedFilter)
}

/// An engine on cluster-major clustered data: each partition holds few
/// clusters, so the code filter is extremely selective there.
fn cold_engine(threads: usize) -> Engine {
    let table = ClusteredConfig { clusters: 16, ..ClusteredConfig::small(ROWS, DIMS, 0.0) }
        .with_cluster_major(true)
        .generate();
    Engine::builder(table)
        .partitions(PARTITIONS)
        .threads(threads)
        .planner(PlannerKind::Adaptive)
        .rule(RuleKind::EuclideanEv)
        .build()
        .unwrap()
}

/// [`cold_engine`] after two rounds of quantized-filter traffic.
fn warmed_engine(threads: usize) -> Engine {
    let engine = cold_engine(threads);
    let queries = sample_queries(engine.table(), 12, 97);
    for _ in 0..2 {
        let warming = queries.iter().cloned().map(filter_spec).collect();
        engine.execute(&RequestBatch::from_specs(warming)).unwrap();
    }
    engine
}

#[test]
fn the_companion_is_built_once_and_survives_traffic_and_persist() {
    let engine = warmed_engine(2);
    let before = engine.ensure_adaptive_codes().unwrap();
    assert_eq!(before.bits(), DEFAULT_CODE_BITS);
    for q in sample_queries(engine.table(), 200, 31) {
        engine.search_spec(&filter_spec(q)).unwrap();
    }
    assert!(Arc::ptr_eq(&before, &engine.ensure_adaptive_codes().unwrap()));
    let path = temp_store("persist");
    engine.persist(&path).unwrap();
    assert!(Arc::ptr_eq(&before, &engine.ensure_adaptive_codes().unwrap()));
    assert_eq!(engine.metrics().counter_value(names::ENGINE_CODES_BUILDS), Some(1));

    // what was written is the companion, and it seeds the reopened engine's
    // cache: no build there at all
    let reopened = EngineBuilder::open_with(&path, StorageBackend::Heap).unwrap().build().unwrap();
    std::fs::remove_file(&path).unwrap();
    let seeded = reopened.ensure_adaptive_codes().unwrap();
    assert_eq!(seeded.bits(), before.bits());
    assert_eq!(reopened.metrics().counter_value(names::ENGINE_CODES_BUILDS), Some(0));
}

#[test]
fn warmed_filter_answers_stay_bit_identical_to_exact() {
    let engine = warmed_engine(2);
    for q in sample_queries(engine.table(), 6, 4242) {
        let exact = engine.search_spec(&QuerySpec::new(q.clone(), 10)).unwrap();
        let filtered = engine.search_spec(&filter_spec(q)).unwrap();
        assert_eq!(filtered.hits, exact.hits);
        assert!(filtered.quant_filter_cells() > 0);
    }
}

#[test]
fn explain_width_is_the_width_analyze_saw_swept() {
    let engine = warmed_engine(2);
    let spec = filter_spec(engine.table().row(42).unwrap());

    let explain = engine.explain(&spec).unwrap();
    assert!(explain.segments.iter().all(|s| s.code_bits == Some(DEFAULT_CODE_BITS)));
    let rendered = explain.to_string();
    assert!(rendered.contains("kernel="), "{rendered}");
    assert!(rendered.contains(" bits=8"), "{rendered}");

    let analysis = engine.search_spec(&spec).unwrap().analyze(&explain);
    let swept: Vec<_> = analysis.segments.iter().filter(|s| s.filter_cells > 0).collect();
    assert!(!swept.is_empty());
    for seg in swept {
        assert_eq!(Some(seg.filter_bits), explain.segments[seg.segment].code_bits);
        assert!(seg.kernel.is_some());
    }
    let shown = analysis.to_string();
    assert!(shown.contains("bits="), "{shown}");
    assert!(shown.contains("kernel="), "{shown}");

    // exact plans carry no width column
    let exact = engine.explain(&QuerySpec::new(engine.table().row(0).unwrap(), 10)).unwrap();
    assert!(exact.segments.iter().all(|s| s.code_bits.is_none()));
}

/// The store an older warmed engine persisted: `engine`'s footer with a
/// learned-state payload (an empty `BONDFB02` record, which the engine
/// ignores), its 8-bit codes section rewritten to the `0` sentinel plus
/// one width per segment, and the footer checksum re-sealed.
fn mixed_width_store_bytes(engine: &Engine, widths: &[u8]) -> Vec<u8> {
    const TRAILER_LEN: usize = 16;
    let feedback = [b"BONDFB02".as_slice(), &0u32.to_le_bytes()].concat();
    let (table, specs, stats) = (engine.table(), engine.segment_specs(), engine.segment_stats());
    let codes = engine.ensure_adaptive_codes().unwrap();
    let plain = store_to_bytes(table, specs, stats, Some(&feedback)).unwrap();
    let bytes =
        store_to_bytes_with_codes(table, specs, stats, Some(&feedback), Some(&*codes)).unwrap();
    let trailer = &bytes[bytes.len() - TRAILER_LEN..];
    let footer_offset = u64::from_le_bytes(trailer[..8].try_into().unwrap()) as usize;
    // the codes section starts where the plain footer's checksum sat
    let at = plain.len() - TRAILER_LEN - 8;
    assert_eq!(bytes[at], DEFAULT_CODE_BITS);
    let mut out = bytes[..at].to_vec();
    out.push(0);
    out.extend_from_slice(widths);
    out.extend_from_slice(&bytes[at + 1..bytes.len() - TRAILER_LEN - 8]);
    let checksum = fnv1a(&out[footer_offset..]);
    out.extend_from_slice(&checksum.to_le_bytes());
    out.extend_from_slice(trailer);
    out
}

#[test]
fn mixed_width_footers_reopen_as_no_codes() {
    let engine = warmed_engine(2);
    let widths: Vec<u8> = (0..PARTITIONS).map(|si| if si % 2 == 0 { 4 } else { 8 }).collect();
    let path = temp_store("mixed");
    std::fs::write(&path, mixed_width_store_bytes(&engine, &widths)).unwrap();

    let queries = sample_queries(engine.table(), 4, 777);
    for backend in [StorageBackend::Heap, StorageBackend::Mapped] {
        let reopened = EngineBuilder::open_with(&path, backend)
            .unwrap()
            .threads(2)
            .rule(RuleKind::EuclideanEv)
            .scan_mode(ScanMode::QuantizedFilter)
            .build()
            .unwrap();
        for q in &queries {
            let exact = reopened
                .search_spec(&QuerySpec::new(q.clone(), 10).scan_mode(ScanMode::Exact))
                .unwrap();
            let got = reopened.search_spec(&QuerySpec::new(q.clone(), 10)).unwrap();
            assert_eq!(got.hits, exact.hits, "backend {backend:?}");
        }
        // the mixed companion was dropped, the 8-bit one built on first use
        let codes = reopened.ensure_adaptive_codes().unwrap();
        assert_eq!(codes.bits(), DEFAULT_CODE_BITS, "{backend:?}");
        assert!(!codes.is_mapped(), "backend {backend:?}");
        assert_eq!(reopened.metrics().counter_value(names::ENGINE_CODES_BUILDS), Some(1));

        // and persisting it again writes the single-width form
        let rewritten = temp_store("rewritten");
        reopened.persist(&rewritten).unwrap();
        let store = vdstore::persist::open_store(&rewritten, StorageBackend::Heap).unwrap();
        std::fs::remove_file(&rewritten).unwrap();
        assert_eq!(store.codes.unwrap().bits(), DEFAULT_CODE_BITS);
    }
    std::fs::remove_file(&path).unwrap();
}
