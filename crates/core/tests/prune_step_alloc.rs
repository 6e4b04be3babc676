//! The exact search's pruning step allocates nothing per attempt: its
//! bounds arrays and κ heap are grown once and reused, so the number of
//! allocations of one `search_segment` call does not depend on how many
//! pruning attempts the block schedule makes — only the trace's
//! `checkpoints` vector grows with them. (The step used to build a bounds
//! vector, a κ heap, a doomed list and a `HashSet` on every attempt.)
//!
//! Verified with a counting `#[global_allocator]`, which is process-wide
//! state — hence this test's own integration binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bond::{search_segment, BlockSchedule, BondParams, SegmentContext, TraceCheckpoint};
use bond_metrics::{HhRule, HistogramIntersection, HqRule, PruningRule};
use vdstore::DecomposedTable;

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

/// The fewest allocations any of five runs of `window` performed (the
/// libtest harness thread can race a stray allocation into one window; a
/// genuine allocation in the measured code shows up in every repetition).
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

/// How often a `checkpoints` vector reallocates while `attempts` entries
/// are pushed onto it.
fn checkpoint_growth(attempts: usize) -> u64 {
    min_allocations(|| {
        let mut checkpoints = Vec::new();
        for i in 0..attempts {
            checkpoints.push(TraceCheckpoint { dims_processed: i, candidates: i, pruned_now: i });
        }
        std::hint::black_box(&checkpoints);
    })
}

#[test]
fn allocations_do_not_grow_with_the_number_of_pruning_attempts() {
    // 2000 normalized 32-bin histograms around a few shared shapes, so the
    // candidate set shrinks over many blocks and passes from bitmap to list
    let vectors: Vec<Vec<f64>> = (0..2000usize)
        .map(|r| {
            let mut v: Vec<f64> = (0..32usize)
                .map(|d| {
                    let shape = (((r % 5) * 32 + d) as f64 * 0.37).sin().abs();
                    let noise = ((r * 32 + d) as f64 * 0.73).sin().abs();
                    shape + 0.4 * noise
                })
                .collect();
            let total: f64 = v.iter().sum();
            v.iter_mut().for_each(|x| *x /= total);
            v
        })
        .collect();
    let table = DecomposedTable::from_vectors("alloc", &vectors).unwrap();
    let segment = table.segment(0..table.rows()).unwrap();
    let query = table.row(7).unwrap();

    let rules: [fn() -> Box<dyn PruningRule>; 2] =
        [|| Box::new(HqRule::new()), || Box::new(HhRule::new())];
    for new_rule in rules {
        let name = new_rule().name();
        let measure = |m: usize| {
            let params = BondParams { schedule: BlockSchedule::Fixed(m), ..BondParams::default() };
            let mut rule = new_rule();
            let mut search = || {
                search_segment(
                    &segment,
                    &query,
                    &HistogramIntersection,
                    rule.as_mut(),
                    10,
                    None,
                    &params,
                    &SegmentContext::default(),
                )
                .unwrap()
            };
            let trace = search().trace;
            assert!(trace.switched_to_list, "{name}, m = {m}: the list phase must be reached");
            let allocations = min_allocations(|| {
                std::hint::black_box(search());
            });
            (allocations, trace.pruning_attempts)
        };
        let (allocs_m1, attempts_m1) = measure(1);
        let (allocs_m8, attempts_m8) = measure(8);
        assert!(
            attempts_m1 >= attempts_m8 + 8,
            "{name}: Fixed(1) must make many more attempts ({attempts_m1} vs {attempts_m8})"
        );
        let allowed = checkpoint_growth(attempts_m1) - checkpoint_growth(attempts_m8);
        assert!(
            allocs_m1 <= allocs_m8 + allowed,
            "{name}: {attempts_m1} attempts took {allocs_m1} allocations, {attempts_m8} attempts \
             {allocs_m8}; the checkpoints vector accounts for {allowed}"
        );
    }
}
