//! Property-based tests of the storage substrate: bitmap boolean algebra,
//! quantization bracketing, top-k heaps against a full sort, store
//! round-trips, and store parsing of truncated or corrupted bytes. These are the invariants the upper layers
//! (pruning, VA-File bounds, candidate management) silently rely on.

use proptest::prelude::*;
use vdstore::checksum::fnv1a;
use vdstore::{
    ops, persist, Bitmap, CodeParams, DecomposedTable, PersistedStore, SegmentStats,
    StorageBackend, StoreCodes, TopKLargest, TopKSmallest, VdError,
};

const LEN: usize = 200;

/// A one-column table of `values` and its `bits`-bit codes over
/// `partitions` segments.
fn one_column_codes(values: &[f64], partitions: usize, bits: u8) -> (DecomposedTable, StoreCodes) {
    let vectors: Vec<Vec<f64>> = values.iter().map(|&v| vec![v]).collect();
    let table = DecomposedTable::from_vectors("c", &vectors).unwrap();
    let specs = table.partition_specs(partitions);
    let stats: Vec<SegmentStats> = specs.iter().map(|s| s.view(&table).unwrap().stats()).collect();
    let codes = StoreCodes::build(&table, &specs, &stats, bits).unwrap();
    (table, codes)
}

/// `table` and its `bits`-bit codes over `partitions` segments, written to
/// store bytes.
fn store_bytes_with_codes(table: &DecomposedTable, partitions: usize, bits: u8) -> Vec<u8> {
    let specs = table.partition_specs(partitions);
    let stats: Vec<SegmentStats> = specs.iter().map(|s| s.view(table).unwrap().stats()).collect();
    let codes = StoreCodes::build(table, &specs, &stats, bits).unwrap();
    persist::store_to_bytes_with_codes(table, &specs, &stats, None, Some(&codes)).unwrap().to_vec()
}

/// Writes `bytes` to a file of this process named after `test` and opens it
/// memory-mapped.
fn open_mapped(test: &str, bytes: &[u8]) -> Result<PersistedStore, VdError> {
    let path =
        std::env::temp_dir().join(format!("vdstore_prop_{test}_{}.bondvd", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    let opened = persist::open_store(&path, StorageBackend::Mapped);
    std::fs::remove_file(&path).unwrap();
    opened
}

/// A store that opened from damaged bytes must still describe `table`'s
/// shape: same dimensions and rows, statistics parallel to the segments,
/// codes (when present) covering the same cells.
fn assert_consistent(store: &PersistedStore, table: &DecomposedTable) {
    assert_eq!(store.table.dims(), table.dims());
    assert_eq!(store.table.rows(), table.rows());
    assert_eq!(store.specs.len(), store.stats.len());
    if let Some(codes) = &store.codes {
        assert_eq!(codes.dims(), table.dims());
        assert_eq!(codes.rows(), table.rows());
        assert!(codes.matches_specs(&store.specs));
    }
}

fn rows(max: u32) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0..max, 0..(max as usize)).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bitmap_boolean_algebra(a in rows(LEN as u32), b in rows(LEN as u32)) {
        let ba = Bitmap::from_rows(LEN, &a);
        let bb = Bitmap::from_rows(LEN, &b);

        // union / intersection counts agree with set semantics
        let sa: std::collections::BTreeSet<u32> = a.iter().copied().collect();
        let sb: std::collections::BTreeSet<u32> = b.iter().copied().collect();
        let mut union = ba.clone();
        union.or_with(&bb);
        prop_assert_eq!(union.to_rows(), sa.union(&sb).copied().collect::<Vec<_>>());
        let mut inter = ba.clone();
        inter.and_with(&bb);
        prop_assert_eq!(inter.to_rows(), sa.intersection(&sb).copied().collect::<Vec<_>>());
        let mut diff = ba.clone();
        diff.and_not_with(&bb);
        prop_assert_eq!(diff.to_rows(), sa.difference(&sb).copied().collect::<Vec<_>>());

        // double negation is identity
        let mut neg = ba.clone();
        neg.negate();
        neg.negate();
        prop_assert_eq!(neg, ba.clone());

        // density is count / len
        prop_assert!((ba.density() - sa.len() as f64 / LEN as f64).abs() < 1e-12);
    }

    #[test]
    fn quantization_brackets_every_value(
        values in proptest::collection::vec(-10.0f64..10.0, 1..120),
        bits in 1u8..=8,
        partitions in 1usize..=3,
    ) {
        let (table, codes) = one_column_codes(&values, partitions, bits);
        for (si, spec) in codes.specs().iter().enumerate() {
            let view = codes.segment_view(si).unwrap();
            let grid = view.params(0);
            prop_assert_eq!(grid.bits, bits);
            let exact = &table.column(0).unwrap().values()[spec.range()];
            for (&code, &v) in view.dim_codes(0).unwrap().iter().zip(exact) {
                prop_assert!((code as u32) < grid.levels());
                prop_assert_eq!(code, grid.encode(v));
                let (lo, hi) = grid.cell_bounds(code);
                prop_assert!(lo <= v + 1e-9 && v <= hi + 1e-9, "{} outside [{}, {}]", v, lo, hi);
                prop_assert!(hi - lo <= grid.cell_width() + 1e-9);
            }
        }
    }

    #[test]
    fn quantization_rejects_non_finite_values(
        values in proptest::collection::vec(-10.0f64..10.0, 1..60),
        at_seed in 0usize..1_000_000_000,
        kind in 0u8..3,
        bits in 1u8..=8,
    ) {
        let bad = match kind {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        };
        let err = CodeParams::new(bad, 10.0, bits).unwrap_err();
        prop_assert!(matches!(err, VdError::InvalidQuantization(_)));
        let err = CodeParams::new(-10.0, bad, bits).unwrap_err();
        prop_assert!(matches!(err, VdError::InvalidQuantization(_)));

        // the checked constructors refuse the value outright, and so does a
        // store decoded onto the heap; a mapped store reads its bytes as
        // stored, the encoder must refuse them, and an append must refuse
        // to promote them before any column grows
        const MARKER: f64 = 1234.5;
        let mut values = values;
        let at = at_seed % values.len();
        values[at] = MARKER;
        let vectors: Vec<Vec<f64>> = values.iter().map(|&v| vec![0.25, v]).collect();
        let table = DecomposedTable::from_vectors("c", &vectors).unwrap();
        let specs = table.partition_specs(1);
        let stats: Vec<SegmentStats> =
            specs.iter().map(|s| s.view(&table).unwrap().stats()).collect();
        let mut bytes =
            persist::store_to_bytes_with_codes(&table, &specs, &stats, None, None).unwrap().to_vec();
        // splice the value into the second dimension's fragment (the data
        // region precedes the footer, whose statistics also carry the
        // marker), then re-seal the fragment checksum and the footer
        // checksum
        let pos = bytes.windows(8).position(|w| w == MARKER.to_le_bytes()).unwrap();
        let fragment = pos - at * 8..pos + (values.len() - at) * 8;
        let old_sum = fnv1a(&bytes[fragment.clone()]);
        bytes[pos..pos + 8].copy_from_slice(&bad.to_le_bytes());
        let new_sum = fnv1a(&bytes[fragment.clone()]);
        let footer = fragment.end..bytes.len() - 24;
        let sum_at = fragment.end
            + bytes[footer.clone()].windows(8).position(|w| w == old_sum.to_le_bytes()).unwrap();
        bytes[sum_at..sum_at + 8].copy_from_slice(&new_sum.to_le_bytes());
        let footer_sum = fnv1a(&bytes[footer.clone()]);
        bytes[footer.end..footer.end + 8].copy_from_slice(&footer_sum.to_le_bytes());
        let err = persist::store_from_bytes(&bytes).unwrap_err();
        prop_assert_eq!(err, VdError::NonFinite { row: at as u32, dim: 1 });
        if StorageBackend::mapping_supported() {
            let mut table = open_mapped("non_finite", &bytes).unwrap().table;
            prop_assert!(!table.value(at as u32, 1).unwrap().is_finite());
            let stats: Vec<SegmentStats> =
                specs.iter().map(|s| s.view(&table).unwrap().stats()).collect();
            let err = StoreCodes::build(&table, &specs, &stats, bits).unwrap_err();
            prop_assert!(matches!(err, VdError::InvalidQuantization(_)));
            let err = table.append(&[0.5, 0.5]).unwrap_err();
            prop_assert_eq!(err, VdError::NonFinite { row: at as u32, dim: 1 });
            prop_assert_eq!(table.rows(), values.len());
            for dim in 0..2 {
                prop_assert_eq!(table.column(dim).unwrap().len(), values.len());
            }
        }
    }

    #[test]
    fn all_equal_columns_quantize_to_exact_single_level_codes(
        value in -10.0f64..10.0,
        len in 1usize..80,
        bits in 1u8..=8,
    ) {
        let (_, codes) = one_column_codes(&vec![value; len], 1, bits);
        let view = codes.segment_view(0).unwrap();
        let grid = view.params(0);
        prop_assert_eq!(grid.cell_width(), 0.0);
        prop_assert_eq!(grid.cell_bounds(0), (value, value));
        prop_assert!(view.dim_codes(0).unwrap().iter().all(|&code| code == 0));
    }

    #[test]
    fn topk_heaps_agree_with_sorting(
        values in proptest::collection::vec(-1000.0f64..1000.0, 1..200),
        k in 1usize..30,
    ) {
        let k = k.min(values.len());
        let mut largest = TopKLargest::new(k);
        let mut smallest = TopKSmallest::new(k);
        for (i, &v) in values.iter().enumerate() {
            largest.push(i as u32, v);
            smallest.push(i as u32, v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top: Vec<f64> = largest.into_sorted_vec().iter().map(|s| s.score).collect();
        prop_assert_eq!(top.len(), k);
        for (a, b) in top.iter().zip(&sorted[..k]) {
            prop_assert!((a - b).abs() < 1e-12);
        }
        sorted.reverse();
        let bottom: Vec<f64> = smallest.into_sorted_vec().iter().map(|s| s.score).collect();
        for (a, b) in bottom.iter().zip(&sorted[..k]) {
            prop_assert!((a - b).abs() < 1e-12);
        }
        // kfetch agrees with the heaps
        prop_assert!((ops::kfetch_largest(&values, k).unwrap() - top[k - 1]).abs() < 1e-12);
        prop_assert!((ops::kfetch_smallest(&values, k).unwrap() - bottom[k - 1]).abs() < 1e-12);
    }

    #[test]
    fn uselect_matches_filter(values in proptest::collection::vec(0.0f64..1.0, 1..200), lo in 0.0f64..1.0, width in 0.0f64..1.0) {
        let hi = (lo + width).min(1.0);
        let expected: Vec<u32> = values
            .iter()
            .enumerate()
            .filter(|(_, &v)| v >= lo && v <= hi)
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(ops::uselect(&values, lo, hi), expected.clone());
        prop_assert_eq!(ops::uselect_bitmap(&values, lo, hi).to_rows(), expected);
    }

    #[test]
    fn segment_store_round_trips_with_bit_exact_stats(
        raw in proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, 5), 1..40),
        deleted in proptest::collection::vec(proptest::bool::ANY, 1..40),
        partitions in 1usize..6,
    ) {
        let mut table = DecomposedTable::from_vectors("store", &raw).unwrap();
        for (i, &d) in deleted.iter().enumerate().take(raw.len()) {
            if d {
                table.delete(i as u32).unwrap();
            }
        }
        let specs = table.partition_specs(partitions);
        let stats: Vec<vdstore::SegmentStats> =
            specs.iter().map(|s| s.view(&table).unwrap().stats()).collect();
        let learned = vec![0xFEu8; (partitions * 3) % 7];
        let learned = (!learned.is_empty()).then_some(learned);
        let bytes =
            persist::store_to_bytes_with_codes(&table, &specs, &stats, learned.as_deref(), None)
                .unwrap();
        let store = persist::store_from_bytes(&bytes).unwrap();
        prop_assert_eq!(store.learned.as_deref(), learned.as_deref());

        prop_assert_eq!(&store.table, &table);
        prop_assert_eq!(&store.specs, &specs);
        // the footer's statistics are bit-exact: equal to the written ones
        // AND to statistics recomputed from the reopened table
        prop_assert_eq!(&store.stats, &stats);
        for (spec, stat) in store.specs.iter().zip(&store.stats) {
            let fresh = spec.view(&store.table).unwrap().stats();
            prop_assert_eq!(stat, &fresh);
            prop_assert_eq!(stat.envelope(), fresh.envelope());
        }
    }

    #[test]
    fn persisted_codes_round_trip_and_bracket_exact_values(
        raw in proptest::collection::vec(proptest::collection::vec(-2.0f64..2.0, 4), 1..40),
        partitions in 1usize..5,
        bits in 1u8..=8,
    ) {
        let table = DecomposedTable::from_vectors("codes", &raw).unwrap();
        let specs = table.partition_specs(partitions);
        let stats: Vec<vdstore::SegmentStats> =
            specs.iter().map(|s| s.view(&table).unwrap().stats()).collect();
        let codes = vdstore::StoreCodes::build(&table, &specs, &stats, bits).unwrap();
        let bytes =
            persist::store_to_bytes_with_codes(&table, &specs, &stats, None, Some(&codes))
                .unwrap();
        let store = persist::store_from_bytes(&bytes).unwrap();
        let back = store.codes.as_ref().unwrap();
        prop_assert_eq!(back.bits(), bits);
        prop_assert!(back.matches_specs(&specs));
        // reopened codes are byte-identical and their grids still bracket
        // every exact value of their segment
        for (si, spec) in specs.iter().enumerate() {
            let view = back.segment_view(si).unwrap();
            for d in 0..table.dims() {
                prop_assert_eq!(
                    view.dim_codes(d).unwrap(),
                    &codes.dim_codes(d).unwrap()[spec.range()]
                );
                let grid = view.params(d);
                let exact = &table.column(d).unwrap().values()[spec.range()];
                for (&code, &v) in view.dim_codes(d).unwrap().iter().zip(exact) {
                    let (lo, hi) = grid.cell_bounds(code);
                    prop_assert!(lo <= v + 1e-9 && v <= hi + 1e-9);
                }
            }
        }
    }

    #[test]
    fn store_parsing_never_panics_on_truncation(
        raw in proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, 4), 1..20),
        partitions in 1usize..4,
        bits in 1u8..=8,
        cut_seed in 0usize..1_000_000_000,
    ) {
        let table = DecomposedTable::from_vectors("trunc", &raw).unwrap();
        let bytes = store_bytes_with_codes(&table, partitions, bits);
        // every proper prefix must fail with a typed error, never a panic,
        // whether parsed from memory or opened through a file mapping
        let cut = cut_seed % bytes.len();
        let err = persist::store_from_bytes(&bytes[..cut]).unwrap_err();
        prop_assert!(matches!(err, VdError::Corrupt(_) | VdError::UnsupportedVersion { .. }));
        prop_assert!(open_mapped("truncation", &bytes[..cut]).is_err());
    }

    #[test]
    fn store_parsing_never_panics_on_single_byte_corruption(
        raw in proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, 3), 1..12),
        bits in 1u8..=8,
        flip_seed in 0usize..1_000_000_000,
        flip_bits in 1u8..=255,
    ) {
        let table = DecomposedTable::from_vectors("flip", &raw).unwrap();
        let mut bytes = store_bytes_with_codes(&table, 2, bits);
        let at = flip_seed % bytes.len();
        bytes[at] ^= flip_bits;
        // a flipped byte in the data region is caught by the fragment
        // checksums (eagerly on the heap, lazily on a mapping) and one in
        // the footer, codes included, by the footer checksum; a flip
        // landing in a checksum field itself also mismatches — what is
        // forbidden is a panic or a structurally inconsistent success
        if let Ok(store) = persist::store_from_bytes(&bytes) {
            assert_consistent(&store, &table);
        }
        if let Ok(store) = open_mapped("flip", &bytes) {
            assert_consistent(&store, &table);
        }
    }

    #[test]
    fn row_matrix_matches_decomposed_table(
        raw in proptest::collection::vec(proptest::collection::vec(-5.0f64..5.0, 5), 1..50),
    ) {
        let table = DecomposedTable::from_vectors("t", &raw).unwrap();
        let matrix = table.to_row_matrix();
        prop_assert_eq!(matrix.rows(), table.rows());
        for r in 0..table.rows() as u32 {
            prop_assert_eq!(matrix.row(r).to_vec(), table.row(r).unwrap());
        }
        // row sums computed column-wise equal row sums computed row-wise
        let sums = table.row_sums();
        for (r, s) in sums.iter().enumerate() {
            let direct: f64 = matrix.row(r as u32).iter().sum();
            prop_assert!((s - direct).abs() < 1e-9);
        }
    }
}
