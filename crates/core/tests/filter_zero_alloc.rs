//! The quantized filter's steady-state allocation contract: once the
//! per-thread scratch has grown to the segment's size, a full interval
//! sweep — LUT builds included — performs **zero** heap allocations, and
//! the progressive filter (`filter_segment`: candidate words,
//! remaining-dimension bounds and κ heap all live in the scratch) performs
//! exactly one, the survivor bitmap it returns — also when a carried κ lets
//! it drop far row blocks by their envelopes before its first block. A
//! whole quantized segment search — filter, then the bound-ordered exact
//! refine — adds only what its answer needs. This is what makes the filter
//! phase safe to run per segment per query on the hot path without
//! allocator traffic or lock contention.
//!
//! Verified with a counting `#[global_allocator]`, which is process-wide
//! state — hence this test's own integration binary, so no other test's
//! allocations can race the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bond::kernels::Kernel;
use bond::quantfilter::{filter_segment_with_kernel, interval_scores_into};
use bond::{search_segment, BondParams, KappaCell, QuantScratch, SegmentContext, SegmentPlan};
use bond_metrics::{EvRule, SquaredEuclidean};
use vdstore::{Bitmap, DecomposedTable, SegmentSpec, SegmentStats, StoreCodes};

/// Forwards to the system allocator, counting every allocation.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System`; the counter is a relaxed atomic
// with no allocation of its own, so all of `System`'s contract holds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The fewest allocations any of five runs of `window` performed. The
/// counter is process-wide, so the libtest harness thread can race a stray
/// allocation into one window — a genuine allocation in the measured code
/// shows up in *every* repetition, hence the minimum.
fn min_allocations(mut window: impl FnMut()) -> u64 {
    (0..5)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            window();
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .min()
        .unwrap()
}

/// The counter is process-wide: the two tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// 300 rows x 20 dimensions (three pruning blocks, the last one short) in
/// two segments, and a member query.
fn fixture() -> (DecomposedTable, Vec<SegmentSpec>, Vec<SegmentStats>, Vec<f64>) {
    let vectors: Vec<Vec<f64>> = (0..300)
        .map(|r| (0..20).map(|d| ((r * 20 + d) as f64 * 0.29).sin().abs()).collect())
        .collect();
    let table = DecomposedTable::from_vectors("za", &vectors).unwrap();
    let specs = table.partition_specs(2);
    let stats = specs.iter().map(|s| s.view(&table).unwrap().stats()).collect();
    let query = table.row(7).unwrap();
    (table, specs, stats, query)
}

#[test]
fn warmed_interval_sweep_allocates_nothing() {
    let _turn = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (table, specs, stats, query) = fixture();
    let metric = SquaredEuclidean;
    for bits in [4u8, 8] {
        let codes = StoreCodes::build(&table, &specs, &stats, bits).unwrap();
        for kernel in Kernel::ALL.into_iter().filter(|k| k.is_supported()) {
            let mut scratch = QuantScratch::new();
            // warm pass: grows the row/LUT buffers to their final sizes
            for si in 0..codes.n_segments() {
                let view = codes.segment_view(si).unwrap();
                interval_scores_into(&view, &metric, &query, kernel, &mut scratch).unwrap();
            }
            // Steady state: not one allocation across repeated sweeps.
            let min_allocs = min_allocations(|| {
                for si in 0..codes.n_segments() {
                    let view = codes.segment_view(si).unwrap();
                    interval_scores_into(&view, &metric, &query, kernel, &mut scratch).unwrap();
                }
            });
            assert_eq!(min_allocs, 0, "warmed sweep allocated ({} @ {bits} bits)", kernel.label());
        }
    }
}

#[test]
fn warmed_filter_allocates_only_its_survivor_bitmap() {
    let _turn = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (table, specs, stats, query) = fixture();
    let metric = SquaredEuclidean;
    let lives: Vec<Bitmap> = specs.iter().map(|s| Bitmap::full(s.len())).collect();
    for bits in [4u8, 8] {
        let codes = StoreCodes::build(&table, &specs, &stats, bits).unwrap();
        for kernel in Kernel::ALL.into_iter().filter(|k| k.is_supported()) {
            // The progressive sweep runs on this thread's scratch: its
            // first call grows the buffers, after that each call allocates
            // the bitmap it returns and nothing else.
            let filter_all = || {
                for (si, live) in lives.iter().enumerate() {
                    let view = codes.segment_view(si).unwrap();
                    let filter = filter_segment_with_kernel(
                        &view, &metric, &query, 5, live, None, kernel, None, None,
                    )
                    .unwrap();
                    assert!(filter.dims > 8, "the sweep must get past its first block");
                }
            };
            filter_all();
            assert_eq!(
                min_allocations(filter_all),
                codes.n_segments() as u64,
                "warmed filter allocated beyond its survivor bitmaps ({} @ {bits} bits)",
                kernel.label()
            );
        }
    }
}

#[test]
fn warmed_quantized_search_allocates_only_survivors_and_answer() {
    let _turn = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (table, specs, stats, query) = fixture();
    let codes = StoreCodes::build(&table, &specs, &stats, 8).unwrap();
    let params = BondParams::default();
    let plan = SegmentPlan::uniform(&params, &query, None, table.dims());
    let segments: Vec<_> = specs.iter().map(|spec| spec.view(&table).unwrap()).collect();
    let views: Vec<_> = (0..specs.len()).map(|si| codes.segment_view(si).unwrap()).collect();
    let k = 5;
    let search_all = || {
        for (segment, view) in segments.iter().zip(&views) {
            let ctx =
                SegmentContext { plan: Some(&plan), codes: Some(*view), ..Default::default() };
            let outcome = search_segment(
                segment,
                &query,
                &SquaredEuclidean,
                &mut EvRule::new(),
                k,
                None,
                &params,
                &ctx,
            )
            .unwrap();
            assert_eq!(outcome.hits.len(), k);
            assert!(outcome.trace.refine_rows > k as u64, "the refine has survivors to order");
        }
    };
    search_all();
    // per segment: the code filter's survivor bitmap, the answer's ranking
    // heap and the answer itself — no per-row state, no exact steps
    assert_eq!(
        min_allocations(search_all),
        3 * specs.len() as u64,
        "a warmed quantized search allocated beyond its survivors and answer"
    );
}

/// A fixed κ the filter carries in (squared Euclidean: smaller is better).
struct Carried(f64);

impl KappaCell for Carried {
    fn tighten(&self, local: f64) -> f64 {
        local.min(self.0)
    }

    fn current(&self) -> Option<f64> {
        Some(self.0)
    }
}

#[test]
fn warmed_filter_that_skips_blocks_allocates_only_its_survivor_bitmap() {
    let _turn = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    // three row blocks, each its own band of values: a query in the first
    // band is within 0.2 of its block and at least 16 away from the others
    let vectors: Vec<Vec<f64>> = (0..3000)
        .map(|r| {
            (0..20).map(|d| (r / 1024) as f64 + 0.1 * ((r * 20 + d) as f64).sin().abs()).collect()
        })
        .collect();
    let table = DecomposedTable::from_vectors("za-blocks", &vectors).unwrap();
    let specs = table.partition_specs(1);
    let stats: Vec<SegmentStats> = specs.iter().map(|s| s.view(&table).unwrap().stats()).collect();
    let query = table.row(7).unwrap();
    let live = Bitmap::full(table.rows());
    let kappa = Carried(1.0);
    let metric = SquaredEuclidean;
    for bits in [4u8, 8] {
        let codes = StoreCodes::build(&table, &specs, &stats, bits).unwrap();
        let view = codes.segment_view(0).unwrap();
        for kernel in Kernel::ALL.into_iter().filter(|k| k.is_supported()) {
            let filter = || {
                let filter = filter_segment_with_kernel(
                    &view,
                    &metric,
                    &query,
                    5,
                    &live,
                    Some(&kappa),
                    kernel,
                    None,
                    None,
                )
                .unwrap();
                assert_eq!(filter.blocks_skipped, 2, "both far blocks drop");
                assert!(filter.dims > 0, "the near block is swept");
            };
            // the first call also builds the segment's envelopes
            filter();
            assert_eq!(
                min_allocations(filter),
                1,
                "a filter that skipped blocks allocated beyond its survivor bitmap ({} @ {bits} bits)",
                kernel.label()
            );
        }
    }
}
