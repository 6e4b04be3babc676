//! Per-block code envelopes: whatever backend serves the codes — built in
//! memory, reopened onto the heap, or mapped zero-copy — every segment's
//! envelopes equal a brute-force min/max of its code bytes per run of 1 024
//! segment-local rows, including a ragged last block, a segment starting
//! off a block boundary and a one-row segment.

use vdstore::persist::{open_store, save_store_with_codes};
use vdstore::{DecomposedTable, SegmentSpec, SegmentStats, StorageBackend, StoreCodes};

const DIMS: usize = 6;

/// 1 500 rows (one full block and a ragged one), then one row, then 2 200
/// rows starting at row 1 501.
fn fixture() -> (DecomposedTable, Vec<SegmentSpec>, Vec<SegmentStats>) {
    let vectors: Vec<Vec<f64>> = (0..3701)
        .map(|r| {
            // a slow drift per dimension plus noise, so block ranges differ
            (0..DIMS)
                .map(|d| (r as f64 / 900.0 + d as f64).sin() + 0.1 * ((r * 7 + d) as f64).cos())
                .collect()
        })
        .collect();
    let table = DecomposedTable::from_vectors("envelopes", &vectors).unwrap();
    let specs =
        vec![SegmentSpec::new(0, 1500), SegmentSpec::new(1500, 1), SegmentSpec::new(1501, 2200)];
    let stats = specs.iter().map(|s| s.view(&table).unwrap().stats()).collect();
    (table, specs, stats)
}

/// Asserts every segment's envelopes against a brute-force scan of its
/// code windows.
fn assert_brute_force(codes: &StoreCodes, label: &str) {
    for si in 0..codes.n_segments() {
        let view = codes.segment_view(si).unwrap();
        let envelopes = view.block_envelopes();
        let per_block = envelopes.rows_per_block();
        assert_eq!(per_block, 1024, "{label}");
        assert_eq!(envelopes.blocks(), view.len().div_ceil(per_block), "{label} segment {si}");
        for b in 0..envelopes.blocks() {
            let rows = b * per_block..((b + 1) * per_block).min(view.len());
            for d in 0..DIMS {
                let window = &view.dim_codes(d).unwrap()[rows.clone()];
                let want = (*window.iter().min().unwrap(), *window.iter().max().unwrap());
                assert_eq!(envelopes.block(b)[d], want, "{label} segment {si} block {b} dim {d}");
            }
        }
        // built once, then shared
        assert!(std::ptr::eq(envelopes, view.block_envelopes()), "{label}");
    }
}

#[test]
fn envelopes_match_brute_force_on_every_backend() {
    let (table, specs, stats) = fixture();
    let built = StoreCodes::build(&table, &specs, &stats, 8).unwrap();
    assert_brute_force(&built, "built");

    let dir = std::env::temp_dir().join(format!("vdstore_block_envelopes_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("envelopes.bondvd");
    save_store_with_codes(&table, &specs, &stats, None, Some(&built), &path).unwrap();
    let heap = open_store(&path, StorageBackend::Heap).unwrap();
    assert_brute_force(heap.codes.as_ref().unwrap(), "heap");
    if StorageBackend::mapping_supported() {
        let mapped = open_store(&path, StorageBackend::Mapped).unwrap();
        let codes = mapped.codes.as_ref().unwrap();
        assert!(codes.is_mapped());
        assert_brute_force(codes, "mapped");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
