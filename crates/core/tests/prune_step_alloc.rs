//! The exact search's pruning step allocates nothing per attempt: its
//! bounds arrays and κ heap are grown once and reused, and so are the
//! tables the Ev rules rebuild in `prepare`, so the number of allocations
//! of one `search_segment` call does not depend on how many pruning
//! attempts the block schedule makes — only the trace's `checkpoints`
//! vector grows with them. (The step used to build a bounds vector, a κ
//! heap, a doomed list and a `HashSet` on every attempt.)
//!
//! Nor does a warmed search allocate anything that grows with its segment:
//! the eligibility bitmap, partial scores and scanned masses live in a
//! per-thread scratch — which a one-row filter shows most plainly, since
//! its search reads next to none of them. (Each used to be a fresh,
//! zero-filled `rows`-sized buffer per (query, segment).)
//!
//! Verified with a counting `#[global_allocator]`, which is process-wide
//! state — hence this test's own integration binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bond::{search_segment, BlockSchedule, BondParams, SegmentContext, TraceCheckpoint};
use bond_metrics::{
    DecomposableMetric, EvRule, HhRule, HistogramIntersection, HqRule, PruningRule,
    SquaredEuclidean, WeightedEvRule, WeightedSquaredEuclidean,
};
use vdstore::{Bitmap, DecomposedTable};

/// Forwards to the system allocator, counting every allocation and the
/// bytes it asked for.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System`; the counters are relaxed atomics
// with no allocation of their own, so all of `System`'s contract holds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The counters are process-wide: the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// The least any of five runs of `window` added to `counter` (the libtest
/// harness thread can race a stray allocation into one window; a genuine
/// allocation in the measured code shows up in every repetition).
fn min_added(counter: &AtomicU64, mut window: impl FnMut()) -> u64 {
    (0..5)
        .map(|_| {
            let before = counter.load(Ordering::Relaxed);
            window();
            counter.load(Ordering::Relaxed) - before
        })
        .min()
        .unwrap()
}

fn min_allocations(window: impl FnMut()) -> u64 {
    min_added(&ALLOCATIONS, window)
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
    let _turn = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
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

    let weights: Vec<f64> = (0..32).map(|d| [1.0, 0.5, 2.0, 0.0][d % 4]).collect();
    let wse = WeightedSquaredEuclidean::new(weights.clone()).unwrap();
    type NewRule<'a> = Box<dyn Fn() -> Box<dyn PruningRule> + 'a>;
    let rules: [(&dyn DecomposableMetric, NewRule<'_>); 4] = [
        (&HistogramIntersection, Box::new(|| Box::new(HqRule::new()))),
        (&HistogramIntersection, Box::new(|| Box::new(HhRule::new()))),
        (&SquaredEuclidean, Box::new(|| Box::new(EvRule::new()))),
        (&wse, Box::new(|| Box::new(WeightedEvRule::new(weights.clone())))),
    ];
    let sums = table.row_sums();
    for (metric, new_rule) in &rules {
        let name = new_rule().name();
        let measure = |m: usize| {
            let params = BondParams { schedule: BlockSchedule::Fixed(m), ..BondParams::default() };
            let mut rule = new_rule();
            let mut search = || {
                search_segment(
                    &segment,
                    &query,
                    *metric,
                    rule.as_mut(),
                    10,
                    None,
                    &params,
                    &SegmentContext { row_sums: Some(&sums), ..SegmentContext::default() },
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

#[test]
fn a_one_row_filter_allocates_no_more_for_a_longer_segment() {
    let _turn = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let vectors: Vec<Vec<f64>> = (0..64_000usize)
        .map(|r| (0..8usize).map(|d| ((r * 8 + d) as f64 * 0.37).sin().abs()).collect())
        .collect();
    let table = DecomposedTable::from_vectors("sparse", &vectors).unwrap();
    let sums = table.row_sums();
    let query = table.row(7).unwrap();
    let params = BondParams::default();

    let rules: [fn() -> Box<dyn PruningRule>; 2] =
        [|| Box::new(HqRule::new()), || Box::new(HhRule::new())];
    for new_rule in rules {
        let name = new_rule().name();
        // the bytes a warmed search of the first `rows` rows allocates when
        // one of them is eligible
        let bytes = |rows: usize| {
            let segment = table.segment(0..rows).unwrap();
            let filter = Bitmap::from_rows(rows, &[rows as u32 / 2]);
            let ctx = SegmentContext {
                filter: Some(&filter),
                row_sums: Some(&sums[..rows]),
                ..SegmentContext::default()
            };
            let mut rule = new_rule();
            let mut search = || {
                let outcome = search_segment(
                    &segment,
                    &query,
                    &HistogramIntersection,
                    rule.as_mut(),
                    10,
                    None,
                    &params,
                    &ctx,
                )
                .unwrap();
                assert_eq!(outcome.hits.len(), 1, "{name}: the one eligible row is the answer");
                std::hint::black_box(outcome);
            };
            search();
            min_added(&BYTES, search)
        };
        let (short, long) = (bytes(1_000), bytes(64_000));
        assert_eq!(short, long, "{name}: 1 000 rows took {short} bytes, 64 000 rows {long}");
    }
}
