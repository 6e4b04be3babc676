//! Generated differential tests of the engine's scan modes, hits compared
//! bit for bit — scores and row ids:
//!
//! * [`ScanMode::QuantizedFilter`] — the progressive code sweep in front of
//!   the exact search — against [`ScanMode::Exact`] and the sequential
//!   reference, across planners {Uniform, Adaptive} and, for `Adaptive`,
//!   with and without a shared κ;
//! * [`ScanMode::Exact`] under the `Uniform` planner against the sequential
//!   reference and a row-by-row brute force, with a shared κ (each search
//!   proves it by a probe) and without (by the heap at every step), the two
//!   bit for bit.
//!
//! Both run over
//!
//! * layouts {cluster-major, shuffled, groups of identical rows that tie
//!   exactly at rank k} — clustered and near-duplicate sets are where the
//!   code bounds are tightest and ties common,
//! * all six rules (the weighted ones with zero weights),
//! * predicate filters {1 row, 0.1 %, 10 %, 90 %, none} and tombstones,
//! * `k ∈ {1, 10, every eligible row}` (and one more than that, which the
//!   engine must refuse),
//! * partitions {1, 3, 8},
//! * the forced scalar kernel and the dispatched one.
//!
//! The kernel is latched once per process, so the scalar leg re-executes
//! this binary with `BOND_KERNEL=scalar` (the `kernel_env_matrix` pattern)
//! and both legs must also agree on a digest of every answer. The filtered
//! leg also counts the row blocks the code sweep dropped by their envelopes
//! before reading a cell: the count must be positive, and equal on both
//! legs.

use std::process::Command;

use bond::metrics::Objective;
use bond::BondError;
use bond_datagen::ClusteredConfig;
use bond_exec::{Engine, PlannerKind, QuerySpec, RequestBatch, RuleKind, ScanMode};
use vdstore::topk::Scored;
use vdstore::{Bitmap, DecomposedTable};

const ROWS: usize = 1600;
/// Three pruning blocks of the code sweep (8 + 8 + 4).
const DIMS: usize = 20;

#[derive(Debug, Clone, Copy)]
enum Layout {
    ClusterMajor,
    Shuffled,
    /// Every row is one of four identical copies, so ranks tie exactly —
    /// at rank 1 for a member query, inside a group at rank 10.
    Duplicates,
}

fn table(layout: Layout, tombstones: bool) -> DecomposedTable {
    let clustered = |cluster_major| {
        ClusteredConfig { clusters: 8, ..ClusteredConfig::small(ROWS, DIMS, 0.0) }
            .with_cluster_major(cluster_major)
            .generate()
    };
    let mut table = match layout {
        Layout::ClusterMajor => clustered(true),
        Layout::Shuffled => clustered(false),
        Layout::Duplicates => {
            let base = clustered(true);
            let vectors: Vec<Vec<f64>> =
                (0..ROWS).map(|r| base.row((r - r % 4) as u32).unwrap()).collect();
            DecomposedTable::from_vectors("duplicates", &vectors).unwrap()
        }
    };
    if tombstones {
        for row in (0..ROWS).step_by(7) {
            table.delete(row as u32).unwrap();
        }
    }
    table
}

/// The six rules; the weighted pair zeroes every fifth dimension.
fn rules() -> Vec<RuleKind> {
    let weights: Vec<f64> =
        (0..DIMS).map(|d| if d % 5 == 0 { 0.0 } else { 0.25 + (d % 4) as f64 }).collect();
    let mut rules = RuleKind::ALL.to_vec();
    rules.push(RuleKind::weighted_histogram(weights.clone()).unwrap());
    rules.push(RuleKind::weighted_euclidean(weights).unwrap());
    rules
}

/// The predicate filters: one row, 0.1 %, 10 %, 90 %, none.
fn filters() -> Vec<Option<Bitmap>> {
    let every = |step: usize, invert: bool| {
        let mut filter = Bitmap::new(ROWS);
        for row in 0..ROWS {
            if (row % step == 1) != invert {
                filter.set(row as u32);
            }
        }
        Some(filter)
    };
    vec![
        Some(Bitmap::from_rows(ROWS, &[ROWS as u32 / 2 + 1])),
        every(1000, false),
        every(10, false),
        every(10, true),
        None,
    ]
}

/// FNV-1a over every answered hit.
struct Digest(u64);

impl Digest {
    fn fold(&mut self, x: u64) {
        self.0 ^= x;
        self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
    }
}

/// Runs the whole matrix under whatever kernel this process latched,
/// asserting the differential contract case by case; returns the digest of
/// all filtered answers, how many cases actually swept codes and how many
/// row blocks their envelopes dropped.
fn run_matrix() -> (u64, usize, usize) {
    let rules = rules();
    let filters = filters();
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    let (mut case, mut swept, mut skipped) = (0usize, 0usize, 0usize);
    for layout in [Layout::ClusterMajor, Layout::Shuffled, Layout::Duplicates] {
        for tombstones in [false, true] {
            let table = table(layout, tombstones);
            for partitions in [1usize, 3, 8] {
                for (planner, share_kappa) in [
                    (PlannerKind::Uniform, true),
                    (PlannerKind::Adaptive, true),
                    (PlannerKind::Adaptive, false),
                ] {
                    let engine = Engine::builder(table.clone())
                        .partitions(partitions)
                        .threads(1)
                        .planner(planner)
                        .share_kappa(share_kappa)
                        .build()
                        .unwrap();
                    for rule in &rules {
                        for filter in &filters {
                            case += 1;
                            let ctx = format!(
                                "case {case}: {layout:?} tombstones={tombstones} \
                                 partitions={partitions} {planner:?} \
                                 share_kappa={share_kappa} {} filter={:?}",
                                rule.name(),
                                filter.as_ref().map(Bitmap::count)
                            );
                            let (case_swept, case_skipped) =
                                check_case(&engine, rule, filter.as_ref(), case, &ctx, &mut digest);
                            swept += case_swept;
                            skipped += case_skipped;
                        }
                    }
                }
            }
        }
    }
    (digest.0, swept, skipped)
}

/// One generated case: a member query and a `k` picked by the case number,
/// asked exactly and through the code filter in one batch. Returns whether
/// the filter swept any code, and how many row blocks it dropped unread.
fn check_case(
    engine: &Engine,
    rule: &RuleKind,
    filter: Option<&Bitmap>,
    case: usize,
    ctx: &str,
    digest: &mut Digest,
) -> (usize, usize) {
    let table = engine.table();
    let eligible = match filter {
        Some(filter) => filter.intersection_count(&table.live_bitmap()),
        None => table.live_rows(),
    };
    // a member of the collection (its copies tie with it on `Duplicates`)
    let query = table.row(((case * 37) % ROWS) as u32).unwrap();
    let k = [1, 10.min(eligible), eligible, eligible + 1][case % 4];
    let mut exact = QuerySpec::new(query, k).rule(rule.clone()).scan_mode(ScanMode::Exact);
    if let Some(filter) = filter {
        exact = exact.filter(filter.clone());
    }
    let filtered = exact.clone().scan_mode(ScanMode::QuantizedFilter);

    if eligible == 0 {
        assert!(matches!(engine.search_spec(&filtered), Err(BondError::InvalidFilter(_))), "{ctx}");
        return (0, 0);
    }
    if k > eligible {
        for spec in [&exact, &filtered] {
            assert!(matches!(engine.search_spec(spec), Err(BondError::InvalidK { .. })), "{ctx}");
        }
        return (0, 0);
    }
    let batch = RequestBatch::from_specs(vec![exact.clone(), filtered]);
    let outcome = engine.execute(&batch).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let (want, got) = (&outcome.queries[0], &outcome.queries[1]);
    assert_eq!(got.hits.len(), k, "{ctx}");
    assert_eq!(got.hits, want.hits, "{ctx}: the code filter changed the answer");
    if filter.is_none() {
        let reference = engine.sequential_reference_spec(&exact).unwrap();
        assert_eq!(got.hits, reference, "{ctx}: diverged from the sequential reference");
    }
    for hit in &got.hits {
        assert!(table.live_bitmap().get(hit.row), "{ctx}: tombstoned row {}", hit.row);
        assert!(filter.is_none_or(|f| f.get(hit.row)), "{ctx}: ineligible row {}", hit.row);
        digest.fold(u64::from(hit.row));
        digest.fold(hit.score.to_bits());
    }
    assert_eq!(want.quant_filter_cells(), 0, "{ctx}");
    let skipped = got.segments.iter().map(|s| s.trace.filter_blocks_skipped).sum();
    (usize::from(got.quant_filter_cells() > 0), skipped)
}

#[test]
fn quantized_filter_matches_exact_across_the_generated_matrix() {
    if std::env::var("BOND_DIFFERENTIAL_PROBE").is_ok() {
        let (digest, swept, skipped) = run_matrix();
        println!("DIGEST={digest:016x} SWEPT={swept} SKIPPED={skipped}");
        return;
    }
    let (digest, swept, skipped) = run_matrix();
    // (half the `k`s — every eligible row, and one more — leave nothing to
    // prune, and the one-row filter never reaches `k` rows per segment)
    assert!(swept >= 400, "only {swept} cases swept any code: the matrix misses the sweep");
    assert!(skipped > 0, "no row block was dropped by its envelope: the matrix misses the skip");

    let scalar = scalar_leg("quantized_filter_matches_exact_across_the_generated_matrix");
    assert_eq!(
        scalar.digest,
        format!("{digest:016x}"),
        "the forced scalar kernel changed an answer"
    );
    assert_eq!(
        scalar.skipped.as_deref(),
        Some(&*skipped.to_string()),
        "block skips differ by kernel"
    );
}

/// What the scalar-kernel leg printed.
struct ScalarLeg {
    digest: String,
    skipped: Option<String>,
}

/// Re-runs the named test of this binary in a process of its own with the
/// portable scalar kernel forced — where `BOND_DIFFERENTIAL_PROBE` makes it
/// print its digest (and block-skip count) instead of recursing — and
/// returns what it printed.
fn scalar_leg(test: &str) -> ScalarLeg {
    let out = Command::new(std::env::current_exe().unwrap())
        .args([test, "--exact", "--nocapture"])
        .env("BOND_DIFFERENTIAL_PROBE", "1")
        .env("BOND_KERNEL", "scalar")
        .output()
        .expect("probe process spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "scalar-kernel leg failed:\n{stdout}");
    let field = |name: &str| {
        stdout.split_whitespace().find_map(|t| t.strip_prefix(name)).map(str::to_string)
    };
    let digest = field("DIGEST=")
        .unwrap_or_else(|| panic!("scalar-kernel leg printed no digest:\n{stdout}"));
    ScalarLeg { digest, skipped: field("SKIPPED=") }
}

/// The `Exact` matrix under whatever kernel this process latched, each
/// case asked of an engine whose segments share κ — the digest's and the
/// pruning count's — and of one whose segments search on their own;
/// returns the digest of all answers and how many cases pruned anything.
fn run_exact_matrix() -> (u64, usize) {
    let rules = rules();
    let filters = filters();
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    let (mut case, mut pruned) = (0usize, 0usize);
    for layout in [Layout::ClusterMajor, Layout::Shuffled, Layout::Duplicates] {
        for tombstones in [false, true] {
            let table = table(layout, tombstones);
            for partitions in [1usize, 3, 8] {
                let engines = [true, false].map(|share_kappa| {
                    Engine::builder(table.clone())
                        .partitions(partitions)
                        .threads(1)
                        .planner(PlannerKind::Uniform)
                        .share_kappa(share_kappa)
                        .build()
                        .unwrap()
                });
                for rule in &rules {
                    for filter in &filters {
                        case += 1;
                        let ctx = format!(
                            "case {case}: {layout:?} tombstones={tombstones} \
                             partitions={partitions} {} filter={:?}",
                            rule.name(),
                            filter.as_ref().map(Bitmap::count)
                        );
                        pruned += check_exact_case(
                            &engines,
                            rule,
                            filter.as_ref(),
                            case,
                            &ctx,
                            &mut digest,
                        );
                    }
                }
            }
        }
    }
    (digest.0, pruned)
}

/// One generated `Exact` case: a member query and a `k` picked by the case
/// number, asked of the κ-sharing engine and the isolated one, whose
/// answers must be the same bits. Returns whether the sharing search
/// evaluated fewer cells than a scan of every eligible row would.
fn check_exact_case(
    [engine, isolated]: &[Engine; 2],
    rule: &RuleKind,
    filter: Option<&Bitmap>,
    case: usize,
    ctx: &str,
    digest: &mut Digest,
) -> usize {
    let table = engine.table();
    let is_eligible = |row: u32| filter.is_none_or(|f| f.get(row));
    let live = table.live_bitmap();
    let eligible: Vec<u32> = live.iter().filter(|&r| is_eligible(r)).collect();
    let query = table.row(((case * 37) % ROWS) as u32).unwrap();
    let k = [1, 10.min(eligible.len()), eligible.len()][case % 3];
    let mut exact = QuerySpec::new(query.clone(), k).rule(rule.clone()).scan_mode(ScanMode::Exact);
    if let Some(filter) = filter {
        exact = exact.filter(filter.clone());
    }
    let outcome = engine.search_spec(&exact).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let got = &outcome.hits;
    assert_eq!(got.len(), k, "{ctx}");
    let alone = isolated.search_spec(&exact).unwrap_or_else(|e| panic!("{ctx}: {e}")).hits;
    let bits = |hits: &[Scored]| -> Vec<(u32, u64)> {
        hits.iter().map(|h| (h.row, h.score.to_bits())).collect()
    };
    assert_eq!(bits(got), bits(&alone), "{ctx}: sharing κ changed the answer");

    // The sequential searcher asked for every live row ranks them all
    // exactly, in the engine's dimension order and `(score, row)` order;
    // the predicate then keeps the eligible prefix.
    let everything = QuerySpec::new(query.clone(), table.live_rows()).rule(rule.clone());
    let ranking = engine.sequential_reference_spec(&everything).unwrap();
    let want: Vec<_> = ranking.into_iter().filter(|h| is_eligible(h.row)).take(k).collect();
    assert_eq!(got, &want, "{ctx}: diverged from the filtered sequential ranking");
    if filter.is_none() {
        let reference = engine.sequential_reference_spec(&exact).unwrap();
        assert_eq!(bits(got), bits(&reference), "{ctx}: diverged from the sequential reference");
    }

    // Brute force, row by row (its sums run in another order, hence the
    // tolerance): the answer's scores are the k best eligible scores.
    let metric = rule.make_metric();
    let score = |row: u32| metric.score(&table.row(row).unwrap(), &query);
    let best_first = |scores: &mut Vec<f64>| {
        scores.sort_by(|a, b| a.total_cmp(b));
        if metric.objective() == Objective::Maximize {
            scores.reverse();
        }
    };
    let mut brute: Vec<f64> = eligible.iter().map(|&row| score(row)).collect();
    best_first(&mut brute);
    let mut answered: Vec<f64> = got.iter().map(|h| score(h.row)).collect();
    best_first(&mut answered);
    for (rank, (a, b)) in answered.iter().zip(&brute).enumerate() {
        assert!((a - b).abs() < 1e-9, "{ctx}: rank {rank} scores {a}, brute force has {b}");
    }
    for (i, hit) in got.iter().enumerate() {
        assert!(live.get(hit.row), "{ctx}: tombstoned row {}", hit.row);
        assert!(is_eligible(hit.row), "{ctx}: ineligible row {}", hit.row);
        assert!(got[..i].iter().all(|h| h.row != hit.row), "{ctx}: row {} twice", hit.row);
        assert!((hit.score - score(hit.row)).abs() < 1e-9, "{ctx}: row {} mis-scored", hit.row);
        digest.fold(u64::from(hit.row));
        digest.fold(hit.score.to_bits());
    }
    assert_eq!(outcome.quant_filter_cells(), 0, "{ctx}");
    usize::from(outcome.contributions_evaluated() < (eligible.len() * DIMS) as u64)
}

#[test]
fn exact_matches_the_sequential_reference_and_brute_force_across_the_generated_matrix() {
    let (digest, pruned) = run_exact_matrix();
    if std::env::var("BOND_DIFFERENTIAL_PROBE").is_ok() {
        println!("DIGEST={digest:016x} PRUNED={pruned}");
        return;
    }
    // (a third of the `k`s — every eligible row — leave nothing to prune)
    assert!(pruned >= 150, "only {pruned} cases pruned anything: the matrix misses the step");
    let scalar = scalar_leg(
        "exact_matches_the_sequential_reference_and_brute_force_across_the_generated_matrix",
    );
    assert_eq!(
        scalar.digest,
        format!("{digest:016x}"),
        "the forced scalar kernel changed an answer"
    );
}
