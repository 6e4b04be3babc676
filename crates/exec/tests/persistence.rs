//! The persistent segment store's engine-level contract: an engine reopened
//! from disk — through either storage backend — is indistinguishable from
//! the engine that persisted it. Both planners stay bit-identical to the
//! sequential reference, the footer statistics are
//! bit-exact copies of the build-time statistics (so zone-map skipping
//! fires without reading any column data), and malformed files surface
//! typed errors instead of panics.

use bond::BondError;
use bond_exec::{Engine, EngineBuilder, PlannerKind, QuerySpec, RequestBatch, RuleKind, ScanMode};
use proptest::prelude::*;
use std::path::PathBuf;
use vdstore::{DecomposedTable, StorageBackend, VdError};

const DIMS: usize = 8;

/// A process-unique temp path, removed by the caller.
fn temp_store(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bond_exec_persistence_{tag}_{}", std::process::id()))
}

/// Deterministic, mildly skewed synthetic histograms.
fn table(rows: usize, dims: usize) -> DecomposedTable {
    let vectors: Vec<Vec<f64>> = (0..rows)
        .map(|r| {
            let mut v: Vec<f64> =
                (0..dims).map(|d| ((r * 31 + d * 17) % 97) as f64 + 1.0).collect();
            let total: f64 = v.iter().sum();
            v.iter_mut().for_each(|x| *x /= total);
            v
        })
        .collect();
    DecomposedTable::from_vectors("persisted", &vectors).unwrap()
}

#[test]
fn reopened_engines_answer_bit_identically_for_every_rule_and_backend() {
    let t = table(400, DIMS);
    let queries: Vec<Vec<f64>> = (0..4).map(|i| t.row(i * 97).unwrap()).collect();
    let path = temp_store("bitident");
    let original =
        Engine::builder(t).partitions(4).threads(2).build().expect("valid configuration");
    original.persist(&path).expect("store persists");

    for backend in [StorageBackend::Heap, StorageBackend::Mapped] {
        let reopened = EngineBuilder::open_with(&path, backend)
            .expect("store reopens")
            .threads(2)
            .build()
            .expect("reopened engine builds");
        assert_eq!(reopened.partitions(), original.partitions());
        for rule in RuleKind::ALL {
            for q in &queries {
                let spec = QuerySpec::new(q.clone(), 10).rule(rule.clone());
                let expected = original.search_spec(&spec).unwrap();
                let got = reopened.search_spec(&spec).unwrap();
                assert_eq!(got.hits, expected.hits, "rule {} backend {backend:?}", rule.name());
            }
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn reopened_footer_stats_are_bit_exact_copies_of_build_time_stats() {
    let t = table(300, DIMS);
    let path = temp_store("stats");
    let original = Engine::builder(t).partitions(3).threads(1).build().unwrap();
    original.persist(&path).unwrap();

    let reopened =
        EngineBuilder::open_with(&path, StorageBackend::Mapped).unwrap().build().unwrap();
    assert_eq!(reopened.segment_specs(), original.segment_specs());
    assert_eq!(reopened.segment_stats(), original.segment_stats(), "bit-exact footer stats");
    std::fs::remove_file(&path).unwrap();
}

/// Two well-separated clusters persisted and reopened: the zone-map skip on
/// the far segment must fire in the *reopened* engine, driven purely by the
/// footer's envelopes — the skipped segment's trace proves no column data
/// was read for it.
#[test]
fn segment_skipping_fires_from_persisted_zone_maps() {
    let dims = DIMS;
    let mut vectors = Vec::new();
    for i in 0..50 {
        vectors.push(vec![0.1 + (i % 10) as f64 * 1e-3; dims]);
    }
    for i in 0..50 {
        vectors.push(vec![0.9 - (i % 10) as f64 * 1e-3; dims]);
    }
    let t = DecomposedTable::from_vectors("two_clusters", &vectors).unwrap();
    let query = vectors[0].clone();
    let path = temp_store("zonemap");
    Engine::builder(t)
        .partitions(2)
        .threads(1)
        .rule(RuleKind::EuclideanEv)
        .build()
        .unwrap()
        .persist(&path)
        .unwrap();

    for backend in [StorageBackend::Heap, StorageBackend::Mapped] {
        let engine = EngineBuilder::open_with(&path, backend)
            .unwrap()
            .threads(1) // deterministic task order: segment 0 proves κ first
            .rule(RuleKind::EuclideanEv)
            .planner(PlannerKind::Adaptive)
            .build()
            .unwrap();
        let outcome = engine.search(&query, 5).unwrap();
        assert_eq!(outcome.segments_skipped(), 1, "backend {backend:?}");
        let skipped = &outcome.segments[1].trace;
        assert!(skipped.segment_skipped);
        assert_eq!(skipped.contributions_evaluated, 0, "zero column touches on the far segment");
        assert_eq!(skipped.dims_accessed, 0);
        assert!(outcome.hits.iter().all(|h| h.row < 50));
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn open_errors_are_typed_not_panics() {
    let missing = temp_store("missing");
    assert!(matches!(
        EngineBuilder::open_with(&missing, StorageBackend::Heap),
        Err(BondError::Storage(VdError::Io(_)))
    ));

    // a valid store, then truncated / corrupted variants
    let t = table(60, DIMS);
    let path = temp_store("mangled");
    Engine::builder(t).partitions(2).threads(1).build().unwrap().persist(&path).unwrap();
    let good = std::fs::read(&path).unwrap();

    for cut in [0, 6, 24, good.len() / 2, good.len() - 1] {
        std::fs::write(&path, &good[..cut]).unwrap();
        for backend in [StorageBackend::Heap, StorageBackend::Mapped] {
            let err = EngineBuilder::open_with(&path, backend).map(|_| ()).unwrap_err();
            assert!(
                matches!(
                    err,
                    BondError::Storage(VdError::Corrupt(_))
                        | BondError::Storage(VdError::UnsupportedVersion { .. })
                ),
                "cut {cut} backend {backend:?}: {err}"
            );
        }
    }

    // a v1 magic reports the version gap
    let mut v1 = good.clone();
    v1[7] = b'1';
    std::fs::write(&path, &v1).unwrap();
    assert!(matches!(
        EngineBuilder::open_with(&path, StorageBackend::Heap),
        Err(BondError::Storage(VdError::UnsupportedVersion { found: 1, supported: 2 }))
    ));
    std::fs::remove_file(&path).unwrap();
}

/// A hand-assembled `PersistedStore` goes through the same shared layout
/// validator the store writers use: zero-length or non-tiling segments are
/// rejected at `build()`, not silently planned over.
#[test]
fn hand_assembled_stores_are_validated_at_build() {
    let t = table(50, DIMS);
    let path = temp_store("handmade");
    Engine::builder(t).partitions(2).threads(1).build().unwrap().persist(&path).unwrap();
    let mut store = vdstore::persist::open_store(&path, StorageBackend::Heap).unwrap();
    // inject a zero-length segment (with a matching stats entry, so only
    // the emptiness itself is at fault)
    let empty_spec = vdstore::SegmentSpec::new(store.specs[1].start(), 0);
    let empty_stats = empty_spec.view(&store.table).unwrap().stats();
    store.specs.insert(1, empty_spec);
    store.stats.insert(1, empty_stats);
    let err = EngineBuilder::from_store(store).build().map(|_| ()).unwrap_err();
    assert!(
        matches!(err, BondError::Storage(VdError::InvalidArgument(_))),
        "zero-length persisted segment must be rejected, got {err}"
    );
    std::fs::remove_file(&path).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Weighted rules (including 0-weight subspace queries) agree across
    /// the persist/reopen boundary on both backends, bit-identically under
    /// either planner.
    #[test]
    fn weighted_rule_queries_agree_across_backends(
        vectors in proptest::collection::vec(
            proptest::collection::vec(0.01f64..1.0, DIMS), 20..60),
        weights in proptest::collection::vec(0.0f64..4.0, DIMS),
        qi in 0usize..60,
        euclidean in proptest::bool::ANY,
    ) {
        let mut weights = weights;
        if weights.iter().all(|&w| w == 0.0) {
            weights[0] = 1.0;
        }
        let rule = if euclidean {
            RuleKind::weighted_euclidean(weights).unwrap()
        } else {
            RuleKind::weighted_histogram(weights).unwrap()
        };
        let t = DecomposedTable::from_vectors("weighted", &vectors).unwrap();
        let query = vectors[qi % vectors.len()].clone();
        let k = 5.min(vectors.len());

        let path = temp_store(if euclidean { "weighted_e" } else { "weighted_h" });
        let original = Engine::builder(t)
            .partitions(3)
            .threads(2)
            .rule(rule.clone())
            .build()
            .unwrap();
        original.persist(&path).unwrap();
        let uniform_expected = original.search(&query, k).unwrap();
        let reference = original.sequential_reference(&query, k).unwrap();

        for backend in [StorageBackend::Heap, StorageBackend::Mapped] {
            let reopened = EngineBuilder::open_with(&path, backend)
                .unwrap()
                .threads(2)
                .rule(rule.clone())
                .build()
                .unwrap();
            let uniform = reopened.search(&query, k).unwrap();
            prop_assert_eq!(&uniform.hits, &uniform_expected.hits, "uniform {:?}", backend);
            let adaptive = reopened
                .search_spec(&QuerySpec::new(query.clone(), k).planner(PlannerKind::Adaptive))
                .unwrap();
            prop_assert_eq!(&adaptive.hits, &reference, "adaptive {:?}", backend);
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Persist → reopen → search round-trips bit-identically for all four
    /// unweighted rules under adaptive planning, with tombstones persisted.
    #[test]
    fn adaptive_reopened_engines_are_bit_identical(
        rows in 30usize..120,
        deleted in proptest::collection::vec(0u32..120, 0..6),
        qi in 0usize..120,
    ) {
        let mut t = table(rows, DIMS);
        for &d in &deleted {
            if (d as usize) < rows {
                t.delete(d).unwrap();
            }
        }
        let query = t.row(qi as u32 % rows as u32).unwrap();
        let k = 5.min(t.live_rows());
        prop_assume!(k > 0);

        let path = temp_store("adaptive");
        let original = Engine::builder(t).partitions(3).threads(2).build().unwrap();
        original.persist(&path).unwrap();
        let reopened = EngineBuilder::open_with(&path, StorageBackend::from_env())
            .unwrap()
            .threads(2)
            .build()
            .unwrap();
        prop_assert_eq!(reopened.table().live_rows(), original.table().live_rows());
        for rule in RuleKind::ALL {
            let spec = QuerySpec::new(query.clone(), k)
                .rule(rule.clone())
                .planner(PlannerKind::Adaptive);
            let reference = original.sequential_reference_spec(&spec).unwrap();
            let got = reopened.search_spec(&spec).unwrap();
            prop_assert_eq!(&got.hits, &reference, "{}", rule.name());
        }
        std::fs::remove_file(&path).unwrap();
    }
}

/// A reopened mapped engine stays `Send + Sync + 'static` and survives the
/// stack frame of its open — the whole point of the owned-engine design.
#[test]
fn reopened_mapped_engine_is_shareable() {
    fn assert_send_sync_static<T: Send + Sync + 'static>(_: &T) {}
    let path = temp_store("shareable");
    Engine::builder(table(120, DIMS))
        .partitions(2)
        .threads(1)
        .build()
        .unwrap()
        .persist(&path)
        .unwrap();

    let engine = EngineBuilder::open_with(&path, StorageBackend::Mapped).unwrap().build().unwrap();
    assert_send_sync_static(&engine);
    if StorageBackend::mapping_supported() {
        assert_eq!(engine.storage_backend(), StorageBackend::Mapped);
    }
    let q = engine.table().row(7).unwrap();
    let clone = engine.clone();
    let hits = std::thread::spawn(move || clone.search(&q, 3).unwrap().hits).join().unwrap();
    let q = engine.table().row(7).unwrap();
    assert_eq!(hits, engine.search(&q, 3).unwrap().hits);

    // batches over a mapped table behave like any other batch
    let batch = RequestBatch::from_queries(vec![engine.table().row(1).unwrap()], 4);
    assert_eq!(engine.execute(&batch).unwrap().queries.len(), 1);
    std::fs::remove_file(&path).unwrap();
}

/// Calling `.partitions(n)` on an opened builder deliberately discards the
/// footer's boundaries and recomputes from the (possibly mapped) columns —
/// the repartitioned engine must still answer identically to a fresh
/// in-memory engine with the same partition count.
#[test]
fn repartitioning_a_reopened_store_recomputes_consistently() {
    let t = table(200, DIMS);
    let path = temp_store("repartition");
    let original = Engine::builder(t.clone()).partitions(4).threads(1).build().unwrap();
    original.persist(&path).unwrap();

    let repartitioned = EngineBuilder::open_with(&path, StorageBackend::Mapped)
        .unwrap()
        .partitions(7)
        .threads(1)
        .build()
        .unwrap();
    assert_eq!(repartitioned.partitions(), 7);
    let fresh = Engine::builder(t).partitions(7).threads(1).build().unwrap();
    assert_eq!(repartitioned.segment_specs(), fresh.segment_specs());
    assert_eq!(repartitioned.segment_stats(), fresh.segment_stats());
    let q = fresh.table().row(42).unwrap();
    assert_eq!(repartitioned.search(&q, 9).unwrap().hits, fresh.search(&q, 9).unwrap().hits);
    std::fs::remove_file(&path).unwrap();
}

fn build_adaptive(builder: EngineBuilder) -> Result<Engine, BondError> {
    builder.threads(2).rule(RuleKind::EuclideanEv).planner(PlannerKind::Adaptive).build()
}

/// Exact and code-filtered specs over a few of the table's own rows.
fn mixed_specs(engine: &Engine) -> Vec<QuerySpec> {
    (0..4)
        .flat_map(|i| {
            let spec = QuerySpec::new(engine.table().row(i * 53).unwrap(), 7);
            [spec.clone(), spec.scan_mode(ScanMode::QuantizedFilter)]
        })
        .collect()
}

/// `segments` records of seven u64 counters plus `extra_per_segment` more,
/// as the `BONDFB02` (`extra_per_segment == 0`) and `BONDFB01` writers laid
/// them out.
fn learned_counters(segments: u32, extra_per_segment: usize) -> Vec<u8> {
    let mut payload = Vec::new();
    for si in 0..u64::from(segments) {
        for v in 0..(7 + extra_per_segment) as u64 {
            payload.extend_from_slice(&(si * 100 + v + 1).to_le_bytes());
        }
    }
    payload
}

/// Rewrites `fresh`'s store at `path` with `payload` in the footer's learned
/// section, then checks that both backends reopen it into an engine that
/// answers `fresh`'s mixed specs bit-identically.
fn assert_payload_is_ignored(fresh: &Engine, path: &PathBuf, payload: &[u8]) {
    let (table, specs, stats) = (fresh.table(), fresh.segment_specs(), fresh.segment_stats());
    vdstore::persist::save_store(table, specs, stats, Some(payload), path).unwrap();
    let queries = mixed_specs(fresh);
    let expected = fresh.execute(&RequestBatch::from_specs(queries.clone())).unwrap();
    for backend in [StorageBackend::Heap, StorageBackend::Mapped] {
        let reopened = build_adaptive(EngineBuilder::open_with(path, backend).unwrap()).unwrap();
        let got = reopened.execute(&RequestBatch::from_specs(queries.clone())).unwrap();
        for (got, want) in got.queries.iter().zip(&expected.queries) {
            assert_eq!(got.hits, want.hits, "{backend:?}, payload {:?}", &payload[..8]);
        }
    }
}

/// The engine keeps no learned state: after serving traffic,
/// [`Engine::persist`] writes the footer's learned section empty, and the
/// store reopens on either backend with the same cost estimate and the same
/// answers, exact and code-filtered — and repartitions like a fresh store.
#[test]
fn persist_writes_no_learned_state_after_traffic() {
    let engine = build_adaptive(Engine::builder(table(240, DIMS)).partitions(4)).unwrap();
    let path = temp_store("no_learned_state");
    let warming: Vec<QuerySpec> =
        (0..60).map(|i| QuerySpec::new(engine.table().row(i * 4).unwrap(), 5)).collect();
    engine.execute(&RequestBatch::from_specs(warming)).unwrap();
    engine.persist(&path).unwrap();
    let written = vdstore::persist::open_store(&path, StorageBackend::Heap).unwrap();
    assert_eq!(written.learned, None, "persist writes the learned section empty");

    let queries = mixed_specs(&engine);
    let expected = engine.execute(&RequestBatch::from_specs(queries.clone())).unwrap();
    for backend in [StorageBackend::Heap, StorageBackend::Mapped] {
        let reopened = build_adaptive(EngineBuilder::open_with(&path, backend).unwrap()).unwrap();
        let spec = QuerySpec::new(reopened.table().row(17).unwrap(), 7);
        assert_eq!(reopened.estimate_cost(&spec), engine.estimate_cost(&spec), "{backend:?}");
        let got = reopened.execute(&RequestBatch::from_specs(queries.clone())).unwrap();
        for (got, want) in got.queries.iter().zip(&expected.queries) {
            assert_eq!(got.hits, want.hits, "{backend:?}");
        }
    }

    let repartitioned = build_adaptive(EngineBuilder::open(&path).unwrap().partitions(7)).unwrap();
    let q = engine.table().row(42).unwrap();
    assert_eq!(repartitioned.search(&q, 9).unwrap().hits, engine.search(&q, 9).unwrap().hits);
    std::fs::remove_file(&path).unwrap();
}

/// A store whose learned state an earlier writer laid out as `BONDFB01` —
/// the seven counters of every segment followed by one prune credit per
/// dimension — opens on either backend and answers bit-identically to a
/// fresh engine; so does a `BONDFB01` record whose length disagrees with
/// its header, since the payload is never decoded.
#[test]
fn v1_learned_state_is_ignored_on_reopen() {
    let fresh = build_adaptive(Engine::builder(table(240, DIMS)).partitions(4)).unwrap();
    let path = temp_store("learned_v1");
    for credits in [DIMS, DIMS - 1] {
        let mut fb01 = b"BONDFB01".to_vec();
        fb01.extend_from_slice(&(DIMS as u32).to_le_bytes());
        fb01.extend_from_slice(&4u32.to_le_bytes());
        fb01.extend(learned_counters(4, credits));
        assert_payload_is_ignored(&fresh, &path, &fb01);
    }
    std::fs::remove_file(&path).unwrap();
}

/// A bit flip in the footer's learned section is a typed open error on
/// either backend — the footer checksum covers it. A payload whose bytes
/// are intact but which the engine cannot use (a `BONDFB02` record covering
/// the wrong segment count, one whose checksum was patched after a flip, or
/// garbage) opens and answers bit-identically to a fresh engine.
#[test]
fn corrupt_learned_state_is_a_typed_build_error() {
    let fresh = build_adaptive(Engine::builder(table(240, DIMS)).partitions(4)).unwrap();
    let path = temp_store("learned_corrupt");
    let mut fb02 = b"BONDFB02".to_vec();
    fb02.extend_from_slice(&4u32.to_le_bytes());
    fb02.extend(learned_counters(4, 0));
    let (table, specs, stats) = (fresh.table(), fresh.segment_specs(), fresh.segment_stats());
    vdstore::persist::save_store(table, specs, stats, Some(&fb02), &path).unwrap();

    // locate the learned payload by its magic and flip a byte in it
    let bytes = std::fs::read(&path).unwrap();
    let magic = b"BONDFB02";
    let pos = bytes.windows(magic.len()).rposition(|w| w == magic).expect("payload present");
    let mut corrupted = bytes.clone();
    corrupted[pos] = b'X';
    std::fs::write(&path, &corrupted).unwrap();
    for backend in [StorageBackend::Heap, StorageBackend::Mapped] {
        let err = EngineBuilder::open_with(&path, backend)
            .expect_err("learned-section corruption must fail the open");
        assert!(matches!(err, BondError::Storage(VdError::Corrupt(_))), "{backend:?}: {err}");
    }

    // with the footer checksum patched to match, the store is well formed
    // and the unreadable payload is ignored
    let n = corrupted.len();
    let footer_offset = u64::from_le_bytes(corrupted[n - 16..n - 8].try_into().unwrap()) as usize;
    let patched = vdstore::checksum::fnv1a(&corrupted[footer_offset..n - 24]);
    corrupted[n - 24..n - 16].copy_from_slice(&patched.to_le_bytes());
    std::fs::write(&path, &corrupted).unwrap();
    let reopened = build_adaptive(EngineBuilder::open_with(&path, StorageBackend::Heap).unwrap())
        .expect("an intact store with an unusable learned payload builds");
    let q = fresh.table().row(17).unwrap();
    assert_eq!(reopened.search(&q, 7).unwrap().hits, fresh.search(&q, 7).unwrap().hits);

    let mut fb02_misaligned = b"BONDFB02".to_vec();
    fb02_misaligned.extend_from_slice(&3u32.to_le_bytes());
    fb02_misaligned.extend(learned_counters(3, 0));
    assert_payload_is_ignored(&fresh, &path, &fb02_misaligned);
    assert_payload_is_ignored(&fresh, &path, b"not a learned-state payload");
    std::fs::remove_file(&path).unwrap();
}

/// Fragment checksums guard reopened engines end to end: a heap open of a
/// bit-flipped data region fails with the typed mismatch, while a mapped
/// open stays lazy and serves reads (verification is deferred to
/// copy-on-write promotion, covered in the vdstore unit tests).
#[test]
fn fragment_corruption_fails_heap_reopen_with_a_typed_error() {
    let t = table(100, DIMS);
    let path = temp_store("checksum_guard");
    let engine = Engine::builder(t).partitions(2).threads(1).build().unwrap();
    engine.persist(&path).unwrap();

    // flip one byte in the middle of the data region
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = 64 + (100 * DIMS * 8) / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let err = EngineBuilder::open_with(&path, StorageBackend::Heap).unwrap_err();
    assert!(
        matches!(err, BondError::Storage(VdError::ChecksumMismatch { .. })),
        "heap reopen must surface the checksum mismatch, got {err}"
    );
    std::fs::remove_file(&path).unwrap();
}
