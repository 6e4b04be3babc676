//! The forced-`BOND_KERNEL` matrix, end to end: for every override value
//! (including unset, an unsupported flavour and garbage) the process must
//! latch the kernel `Kernel::select` predicts, and a full search over all
//! six pruning rules plus the quantized filter's progressive sweep must
//! return bit-identical results — hits, survivors, cells and sweep depth —
//! regardless of which flavour ran.
//!
//! `Kernel::active()` is a process-wide `OnceLock` — the override is read
//! exactly once, before any search — so each matrix cell has to be its own
//! process: this test re-executes its own binary in probe mode per cell.
//! That is also why this lives in its own integration binary: nothing else
//! here may touch `Kernel::active()` first.

use std::process::Command;

use bond::kernels::{sweep_group, Kernel};
use bond::quantfilter::filter_segment;
use bond::{BondParams, BondSearcher};
use bond_metrics::SquaredEuclidean;
use vdstore::{Bitmap, DecomposedTable, SegmentStats, StoreCodes};

const ROWS: usize = 150;
/// Three pruning blocks of the progressive code sweep (8 + 8 + 4).
const DIMS: usize = 20;
const K: usize = 7;

fn table() -> DecomposedTable {
    // deterministic, allocation-only data — no RNG, identical in every
    // probe process
    let vectors: Vec<Vec<f64>> = (0..ROWS)
        .map(|r| (0..DIMS).map(|d| ((r * DIMS + d) as f64 * 0.37).sin().abs()).collect())
        .collect();
    DecomposedTable::from_vectors("env-matrix", &vectors).unwrap()
}

/// Runs every rule plus the quantized filter under whatever kernel this
/// process latched, and folds every hit's row and score bits into one
/// hex digest the parent can compare across cells.
fn digest() -> String {
    let table = table();
    let searcher = BondSearcher::new(&table);
    let params = BondParams::default();
    let query: Vec<f64> = table.row(3).unwrap();
    let weights: Vec<f64> = (0..DIMS).map(|d| 0.5 + d as f64 * 0.25).collect();

    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |x: u64| {
        acc ^= x;
        acc = acc.wrapping_mul(0x1000_0000_01b3);
    };
    let mut fold_hits = |hits: &[bond::Scored]| {
        for h in hits {
            fold(u64::from(h.row));
            fold(h.score.to_bits());
        }
    };

    fold_hits(&searcher.histogram_intersection_hq(&query, K, &params).unwrap().hits);
    fold_hits(&searcher.histogram_intersection_hh(&query, K, &params).unwrap().hits);
    fold_hits(&searcher.euclidean_eq(&query, K, &params).unwrap().hits);
    fold_hits(&searcher.euclidean_ev(&query, K, &params).unwrap().hits);
    fold_hits(&searcher.weighted_euclidean(&query, &weights, K, &params).unwrap().hits);
    fold_hits(
        &searcher.weighted_histogram_intersection(&query, &weights, K, &params).unwrap().hits,
    );

    // the quantized sweep, through the dispatched flavour
    let specs = table.partition_specs(2);
    let stats: Vec<SegmentStats> = specs.iter().map(|s| s.view(&table).unwrap().stats()).collect();
    let codes = StoreCodes::build(&table, &specs, &stats, 8).unwrap();
    for si in 0..codes.n_segments() {
        let view = codes.segment_view(si).unwrap();
        let live = Bitmap::full(view.len());
        let filter = filter_segment(&view, &SquaredEuclidean, &query, K, &live, None).unwrap();
        assert!(filter.dims > 8, "the progressive sweep must get past its first block");
        fold(filter.cells);
        fold(filter.dims as u64);
        fold(filter.kappa.map_or(0, f64::to_bits));
        for row in filter.survivors.to_rows() {
            fold(u64::from(row));
        }
    }
    format!("{acc:016x}")
}

#[test]
fn forced_kernel_matrix_latches_and_answers_identically() {
    if std::env::var("BOND_KERNEL_PROBE").is_ok() {
        // probe mode: report what this process latched and what it answered
        let active = Kernel::active();
        println!(
            "ACTIVE={} GROUP={} DIGEST={}",
            active.label(),
            sweep_group(active, 256),
            digest()
        );
        return;
    }

    let exe = std::env::current_exe().unwrap();
    let cells: [Option<&str>; 5] =
        [None, Some("scalar"), Some("avx2"), Some("neon"), Some("bogus")];
    let mut digests: Vec<(String, String)> = Vec::new();
    for forced in cells {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "forced_kernel_matrix_latches_and_answers_identically",
            "--exact",
            "--nocapture",
        ])
        .env("BOND_KERNEL_PROBE", "1")
        .env_remove("BOND_KERNEL");
        if let Some(name) = forced {
            cmd.env("BOND_KERNEL", name);
        }
        let out = cmd.output().expect("probe process spawns");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "probe {forced:?} failed:\n{stdout}");

        // the report may share its line with the harness's "test … ok"
        // chatter, so pick the tagged tokens out of the whole stream
        let token = |tag: &str| {
            stdout
                .split_whitespace()
                .find_map(|t| t.strip_prefix(tag))
                .unwrap_or_else(|| panic!("probe {forced:?} printed no {tag} report:\n{stdout}"))
                .to_string()
        };
        let active = token("ACTIVE=");
        let digest = token("DIGEST=");

        let expected = Kernel::select(forced).label();
        assert_eq!(active, expected, "BOND_KERNEL={forced:?} latched the wrong flavour");
        // A pruning step comes every 8 plan dimensions on every kernel; the
        // scalar reference (CI's forced-scalar leg) sweeps those 8 columns
        // one at a time through the split accumulators, not as one block.
        if active == "scalar" {
            assert_eq!(token("GROUP="), "1", "scalar must take the single-column sweep");
        }
        digests.push((format!("{forced:?}->{active}"), digest));
    }

    let reference = &digests[0].1;
    for (cell, digest) in &digests {
        assert_eq!(digest, reference, "kernel cell {cell} changed the answers");
    }
}
