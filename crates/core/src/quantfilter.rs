//! The quantized first-pass scan: BOND run in code space.
//!
//! Section 7.4 of the paper composes BOND with VA-File-style codes: prune
//! on small approximations first, touch exact values only for survivors —
//! and it prunes *while* it scans, dimension block by dimension block,
//! exactly like the exact search does. [`filter_segment`] is that first
//! pass, and it runs the very loop the exact search runs (the crate's one
//! progressive block loop, generic over where bounds come from); this
//! module supplies the **code-interval** bound source. It is one-sided:
//! pruning needs only each candidate's *optimistic* bound, so per dimension
//! one tiny lookup table (one entry per quantization level, at most 256)
//! holds the best contribution any value in a cell can make.
//!
//! **16-bit LUTs.** The tables are built in `f64`, each column's range
//! taken as it is written ([`kernels::fill_best_lut`]), then each group of
//! [`kernels::code_group`] columns is quantized once to 16-bit integers
//! rounded toward the optimistic side ([`kernels::quantize_lut`]: one
//! offset per column, one scale per group, both read off the ranges, so
//! the quantizer reads each entry once and writes the permute sweep's byte
//! planes in the same loop), and the ISA-pinned sweep
//! ([`kernels::sweep_codes`]) sums a row's entries over the group exactly
//! and adds the group's bound onto one per-row `f64` running bound, with
//! no per-row branching — byte permutes held in registers where AVX-512
//! VBMI is available, no gather — prefetching each code column a fixed
//! distance ahead ([`kernels::SWEEP_PREFETCH_ROWS`]). The bound is a little
//! looser than the `f64` sum (about 2 % more survivors), never tighter,
//! and the same bits on every kernel; the exact refine decides every hit,
//! so answers do not move. A group holding a non-finite entry keeps every
//! row.
//!
//! **A block.** The candidate set starts as the eligible bitmap (live ∧
//! predicate filter) and stays a bitmap. Code columns are swept in the
//! segment plan's dimension order, and only over the runs of 64-row bitmap
//! words that still hold a candidate; LUTs are built and quantized per
//! group of [`kernels::code_group`] columns from the block's start, so
//! they stay L1-sized however wide the block, and a segment that empties
//! after its first block builds one group of 8 LUTs, not `dims / 8`
//! ([`QuantFilter::groups`] counts them). After each block every
//! candidate's exact score is bounded by
//! `swept bound + the best of the unswept dimensions` (the
//! latter from each grid's `[min, max]`, suffix-summed once per (query,
//! segment)), and every candidate whose bound cannot reach κ is cleared
//! before another of its code cells — or a single exact `f64` — is read.
//! It ends at `k` candidates or the last dimension; what is left goes to
//! the exact refine, best bound first.
//!
//! **κ from the probe.** κ needs pessimistic bounds for only `k` rows, so
//! the sweep carries none. After the last block, and after the first in a
//! segment that carried no κ in, the `k` candidates with the best
//! optimistic bound have their pessimistic bound computed over every
//! dimension from their code cells (`k × dims` lookups, one batched metric
//! call per dimension); the weakest of them is a κ for the whole query,
//! published to the shared cell. After a cold segment's first block it
//! lifts κ from nothing to nearly final — the most promising rows are, on
//! clustered data, the query's neighbours, and their completed bounds are
//! as tight as a full two-sided sweep would prove for them. A segment that
//! carried a sibling's κ in skips that probe: the engine visits segments
//! most-promising-first, so that κ is usually about as tight, and the
//! probe would cost more than it saves. On the benchmark's `scan_large`,
//! skipping 45 of 112 probes over its counted queries left every swept
//! cell as it was; on `burst_mixed_mmap`, where a far segment is
//! sometimes visited first and hands on a loose κ, the skip costs about
//! 20 % more code cells, and its queries still run faster without the
//! probe. After the last block the probe nearly always tightens κ once
//! more for the exact refine, so it stays. The steps in between prune
//! with the κ they carried in. Each probed cell is a scattered read, one
//! cache line per row and column, so the probe prefetches its rows' cells
//! six dimensions ahead (`kernels::PREFETCH_DIMS`). An exact search that
//! shares κ follows the same rule after its first block (`searcher`'s
//! module docs), completing exact scores rather than code bounds; it has
//! no after-last probe, since it publishes its k-th exact score when it
//! finishes.
//!
//! **Block sizes back off.** The first block is eight columns. A step that
//! removed no candidate doubles the next block (capped at the columns
//! left); a step that removed any resets it to eight. A step costs a bound
//! test per candidate word, whatever it removes, so a segment
//! whose bounds are still too loose to prune — the query's own
//! neighbourhood early on, a noise row's whole segment — pays a handful of
//! steps for that, not one per eight columns; once steps remove rows they
//! come every eight columns again.
//!
//! **κ before the far rows.** A bound over 8 of 128 dimensions is loose,
//! so *before the first block* a segment that carries a κ in (a sibling
//! segment's, from the shared cell) tests its row blocks: per 1 024 rows,
//! [`vdstore::BlockEnvelopes`] hold every dimension's smallest and largest
//! code, and a block's optimistic bound is the best contribution of each
//! dimension's code range, summed in the sweep order. A block that cannot
//! reach κ loses its candidates before a single one of its cells is read.
//! A segment's own envelope spans every cluster that landed in it, so it
//! rarely misses κ; its blocks' envelopes span one or two, and on
//! clustered data most of them do. Then the sweep prunes with the κ it
//! carried in (its own, or a sibling's). The engine visits a query's
//! segments most-promising-first (tightest envelope score toward the
//! query), so the first segment's probe runs in the query's own
//! neighbourhood and every later segment starts against its κ.
//!
//! Safety rests on one invariant, property-tested per metric in
//! `bond-metrics`: `worst_contribution ≤ contribution ≤ best_contribution`
//! for any value inside the interval — a code cell's, or a block's code
//! range, which holds every code of the block. Metrics that do not override
//! `worst_contribution` keep the vacuous default, which degenerates the
//! filter to "keep everything" — never to a wrong answer.
//!
//! [`filter_segment_with_kernel`] is the same sweep with everything
//! explicit — kernel flavour, sweep order, and a sink that receives one
//! [`TraceCheckpoint`] per pruning step: the pruning curve Figure 9 plots,
//! with no second filter beside the engine's.
//!
//! [`interval_scores_into`] remains the full-interval primitive (all
//! dimensions, every row, both sides of the interval) — the VA-File
//! baseline's filter.

use std::ops::Range;

use bond_metrics::{DecomposableMetric, Objective};
use vdstore::topk::Scored;
use vdstore::{
    ascending_nan_last, Bitmap, BlockEnvelopes, CodeParams, RowId, SegmentCodesView, TopKLargest,
};

use crate::bond_loop::{with_scratch, Blocks, BondLoop, BoundSource, Bounds, Proof, Scratch};
use crate::candidates::{word_runs, CandidateSet, WORD_ROWS};
use crate::error::{BondError, Result};
use crate::kappa::KappaCell;
use crate::kernels::{self, CodeSweep, Kernel, LutRange, QuantLut, SurviveTest};
use crate::ordering::DimensionOrdering;
use crate::searcher::prune_slack;
use crate::trace::TraceCheckpoint;

/// Code columns [`filter_segment`] sweeps in its first block and after
/// every step that removed a candidate — on every kernel, and one
/// quantized group at 8 bits ([`kernels::code_group`]). A step that
/// removed nothing doubles the next block instead (see the module docs).
const PRUNE_BLOCK: usize = 8;

/// Reusable working memory of the quantized filter and the interval sweep:
/// the per-row bound accumulators, the per-level contribution LUTs and the
/// progressive sweep's remaining-dimension bounds.
///
/// Allocated fresh, these were the filter path's only per-task
/// allocations; hoisting them into a scratch that lives as long as the
/// worker (the engine keeps one per thread, see [`filter_segment`]) makes
/// the filter allocation-free — beyond the survivor bitmap it returns —
/// once the buffers have grown to the segment's size, a property the
/// `filter_zero_alloc` integration test pins with a counting allocator.
#[derive(Debug, Default)]
pub struct QuantScratch {
    /// The optimistic bound per row: the filter's one accumulator, or the
    /// optimistic side of the last [`interval_scores_into`] sweep.
    opt: Vec<f64>,
    /// The pessimistic side of the last [`interval_scores_into`] sweep.
    pes: Vec<f64>,
    /// One group of columns' one-lane `f64` LUTs — the filter's optimistic
    /// ones before they are quantized ([`kernels::code_group`] columns);
    /// the interval sweep's optimistic ones, then its pessimistic ones
    /// ([`kernels::sweep_group`] columns) — followed by the staging area a
    /// pair LUT is built in before being split. Also the batched
    /// contribution pairs of the block envelope test and the probe.
    luts: Vec<f64>,
    /// Per-level `(lo, hi)` cell bounds of the dimension currently having
    /// its LUT built — input to the metric's batched
    /// `fill_contribution_pairs` — or, in the block envelope test, each
    /// tested block's code range in one dimension, and in the probe each
    /// probed row's code cell in one dimension (their pairs then go to
    /// `luts`).
    bounds: Vec<(f64, f64)>,
    /// `rem_opt[j]`: the best total contribution of the plan's dimensions
    /// `j..` for *any* value inside their grids.
    rem_opt: Vec<f64>,
    /// `(block, bound so far)` of the row blocks the envelope test has not
    /// dropped yet.
    blocks: Vec<(usize, f64)>,
    /// `(row, pessimistic bound)` of the rows a probe completes.
    probed: Vec<(RowId, f64)>,
    /// `(row, optimistic bound)` of the survivors, best first
    /// ([`rank_survivors`]).
    ranked: Vec<(RowId, f64)>,
    /// The filter's current group of optimistic LUTs, quantized to 16 bits
    /// ([`kernels::quantize_lut`]).
    quant: QuantLut,
}

impl QuantScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        QuantScratch::default()
    }

    /// The optimistic bounds of the last [`interval_scores_into`] sweep.
    pub fn opt(&self) -> &[f64] {
        &self.opt
    }

    /// The pessimistic bounds of the last [`interval_scores_into`] sweep.
    pub fn pes(&self) -> &[f64] {
        &self.pes
    }
}

/// Fills `lut` with the interleaved `[opt, pes]` contribution of every
/// cell of dimension `d`'s grid. Fused ISA build when the metric exposes a
/// kernel op and the kernel has one; bit-identical to the portable
/// two-step build through `bounds`, which stays both the fallback and the
/// reference.
fn fill_pair_lut(
    metric: &dyn DecomposableMetric,
    kernel: Kernel,
    d: usize,
    grid: CodeParams,
    q: f64,
    bounds: &mut Vec<(f64, f64)>,
    lut: &mut [f64],
) {
    let fused =
        metric.kernel_op().is_some_and(|op| kernels::fill_pair_lut(kernel, op, d, grid, q, lut));
    if !fused {
        bounds.resize(lut.len() / 2, (0.0, 0.0));
        grid.fill_cell_bounds(bounds);
        metric.fill_contribution_pairs(d, bounds, q, lut);
    }
}

/// Fills `lut` with the optimistic contribution of every cell of dimension
/// `d`'s grid — the optimistic lane of [`fill_pair_lut`], bit for bit — and
/// returns the entries' range, taken as they are written: the one-lane
/// build of `sweep` ([`kernels::fill_best_lut`]) when the metric has a
/// kernel op, else a pair LUT staged in `pairs` (`2 × lut.len()` slots)
/// and split.
#[allow(clippy::too_many_arguments)]
fn fill_best_lut(
    metric: &dyn DecomposableMetric,
    kernel: Kernel,
    sweep: CodeSweep,
    d: usize,
    grid: CodeParams,
    q: f64,
    bounds: &mut Vec<(f64, f64)>,
    pairs: &mut [f64],
    lut: &mut [f64],
) -> LutRange {
    if let Some(op) = metric.kernel_op() {
        return kernels::fill_best_lut(sweep, op, d, grid, q, lut);
    }
    fill_pair_lut(metric, kernel, d, grid, q, bounds, pairs);
    let mut range = LutRange::EMPTY;
    for (best, pair) in lut.iter_mut().zip(pairs.chunks_exact(2)) {
        *best = pair[0];
        range = range.with(pair[0]);
    }
    range
}

/// Sweeps all code fragments of one segment into `scratch` using the given
/// [`Kernel`], leaving the per-row interval `[pes, opt]` bracketing each
/// exact full-dimensional score in [`QuantScratch::pes`] /
/// [`QuantScratch::opt`]. Returns the number of code cells swept.
///
/// Per block of [`kernels::sweep_group`] columns, each column's pair LUT is
/// split into an optimistic and a pessimistic one, and [`kernels::sweep_lane`]
/// runs once per side. Every row adds its per-dimension contributions in
/// dimension order on every kernel, so the result is bit-identical across
/// kernels. Once the scratch buffers have reached the segment's size, the
/// whole sweep — LUT builds included — performs no allocation.
pub fn interval_scores_into(
    codes: &SegmentCodesView<'_>,
    metric: &dyn DecomposableMetric,
    query: &[f64],
    kernel: Kernel,
    scratch: &mut QuantScratch,
) -> Result<u64> {
    let dims = codes.dims();
    if query.len() != dims {
        return Err(BondError::QueryDimensionMismatch { expected: dims, actual: query.len() });
    }
    let (rows, levels) = (codes.len(), codes.levels());
    let QuantScratch { opt, pes, luts, bounds, .. } = scratch;
    opt.resize(rows, 0.0);
    pes.resize(rows, 0.0);
    let group = kernels::sweep_group(kernel, levels);
    let mut columns: [&[u8]; kernels::MAX_SWEEP_GROUP] = [&[]; kernels::MAX_SWEEP_GROUP];
    for start in (0..dims).step_by(group) {
        let block = start..dims.min(start + group);
        for (column, d) in columns.iter_mut().zip(block.clone()) {
            *column = codes.dim_codes(d)?;
        }
        let columns = &columns[..block.len()];
        let width = block.len() * levels;
        luts.resize(2 * width + 2 * levels, 0.0);
        let (best, rest) = luts.split_at_mut(width);
        let (worst, pair) = rest.split_at_mut(width);
        let split = best.chunks_exact_mut(levels).zip(worst.chunks_exact_mut(levels));
        for ((best, worst), d) in split.zip(block) {
            fill_pair_lut(metric, kernel, d, codes.params(d), query[d], bounds, pair);
            for ((b, w), cell) in best.iter_mut().zip(worst).zip(pair.chunks_exact(2)) {
                (*b, *w) = (cell[0], cell[1]);
            }
        }
        kernels::sweep_lane(kernel, columns, best, levels, opt, start == 0);
        kernels::sweep_lane(kernel, columns, worst, levels, pes, start == 0);
    }
    Ok((rows * dims) as u64)
}

/// The result of the quantized first pass over one segment.
#[derive(Debug, Clone)]
pub struct QuantFilter {
    /// Eligible rows whose optimistic bound still reached κ when the sweep
    /// ended — the only rows the exact scan needs to touch. Always a
    /// superset of the segment's share of the true top k.
    pub survivors: Bitmap,
    /// The tightest κ the sweep pruned with: proven from the codes by a
    /// probe (the weakest of `k` rows' pessimistic bounds, completed over
    /// every dimension after the first block of a segment that carried no
    /// κ in, or after the last block) or adopted from the shared cell.
    /// `None` when no sweep ran (at most `k` eligible rows) or nothing was
    /// proven (vacuous metric bounds, no shared κ) — the filter then keeps
    /// everything.
    pub kappa: Option<f64>,
    /// Number of code cells read: every `(row, dimension)` of the swept
    /// word runs, plus each probe's `k × dims` lookups (see
    /// [`QuantFilter::probes`]).
    pub cells: u64,
    /// Probes the sweep ran: at most two — after the first block when the
    /// segment carried no finite κ in, and after the last block.
    pub probes: usize,
    /// LUT groups the sweep built and quantized: one per group of
    /// [`kernels::code_group`] columns from each block's start (the probe
    /// builds none), so a segment that empties after its first block
    /// builds one.
    pub groups: usize,
    /// Code columns swept before at most `k` candidates remained or the
    /// dimensions ran out.
    pub dims: usize,
    /// Pruning steps the sweep took: one after every block, unless the
    /// block left at most `k` candidates to begin with.
    pub steps: usize,
    /// Row blocks whose envelope bound missed the carried κ before the
    /// first block: their candidates were dropped without reading a cell.
    pub blocks_skipped: usize,
}

impl QuantFilter {
    /// The result of a call that swept nothing: `survivors` are what it
    /// keeps.
    fn unswept(survivors: Bitmap, kappa: Option<f64>, blocks_skipped: usize) -> QuantFilter {
        let (cells, probes, groups, dims, steps) = (0, 0, 0, 0, 0);
        QuantFilter { survivors, kappa, cells, probes, groups, dims, steps, blocks_skipped }
    }
}

/// Runs the quantized filter over one segment as a progressive sweep (see
/// the module docs): `live` is the initial candidate set, code columns are
/// swept in storage order in blocks of eight (doubling after a step that
/// removed nothing), and after each block every candidate whose
/// optimistic bound misses κ is dropped from the rest of the sweep. κ is
/// proven by the probe after the last block — and after the first when
/// `shared` held no κ — and published through `shared`, so sibling
/// segments benefit immediately.
///
/// The sweep runs on the process-wide [`Kernel::active`] flavour and a
/// per-thread scratch, so steady-state calls allocate nothing beyond the
/// survivor bitmap.
pub fn filter_segment(
    codes: &SegmentCodesView<'_>,
    metric: &dyn DecomposableMetric,
    query: &[f64],
    k: usize,
    live: &Bitmap,
    shared: Option<&dyn KappaCell>,
) -> Result<QuantFilter> {
    with_scratch(|scratch| {
        let kernel = Kernel::active();
        filter_segment_in_order(codes, metric, query, k, live, shared, kernel, None, None, scratch)
    })
}

/// [`filter_segment`] with everything explicit: the kernel flavour (tests
/// and benches compare flavours inside one process — the `BOND_KERNEL`
/// override is latched once), the sweep `order` (a permutation of the
/// segment's dimensions; `None` is storage order) and a `steps` sink, which
/// receives one [`TraceCheckpoint`] per pruning step — dimensions swept,
/// candidates left, candidates the step removed. That is the sweep's
/// pruning curve, taken at the block ends of the back-off (8, 16, 32, …
/// while steps remove nothing).
///
/// # Errors
///
/// As [`filter_segment`], plus [`BondError::InvalidParams`] for an `order`
/// that is not a permutation of `0..dims`.
#[allow(clippy::too_many_arguments)]
pub fn filter_segment_with_kernel(
    codes: &SegmentCodesView<'_>,
    metric: &dyn DecomposableMetric,
    query: &[f64],
    k: usize,
    live: &Bitmap,
    shared: Option<&dyn KappaCell>,
    kernel: Kernel,
    order: Option<&[usize]>,
    steps: Option<&mut Vec<TraceCheckpoint>>,
) -> Result<QuantFilter> {
    if order.is_some_and(|order| !DimensionOrdering::is_valid_permutation(order, codes.dims())) {
        return Err(BondError::InvalidParams(
            "dimension ordering is not a permutation of the codes' dimensions".into(),
        ));
    }
    with_scratch(|scratch| {
        filter_segment_in_order(
            codes, metric, query, k, live, shared, kernel, order, steps, scratch,
        )
    })
}

/// [`filter_segment_with_kernel`] on `scratch`, with an `order` the caller
/// has validated (the engine passes the segment plan's).
#[allow(clippy::too_many_arguments)]
pub(crate) fn filter_segment_in_order(
    codes: &SegmentCodesView<'_>,
    metric: &dyn DecomposableMetric,
    query: &[f64],
    k: usize,
    live: &Bitmap,
    shared: Option<&dyn KappaCell>,
    kernel: Kernel,
    order: Option<&[usize]>,
    steps: Option<&mut Vec<TraceCheckpoint>>,
    scratch: &mut Scratch,
) -> Result<QuantFilter> {
    let rows = codes.len();
    let dims = codes.dims();
    if query.len() != dims {
        return Err(BondError::QueryDimensionMismatch { expected: dims, actual: query.len() });
    }
    if live.len() != rows {
        return Err(BondError::InvalidParams(format!(
            "live bitmap covers {} rows but the segment's codes cover {rows}",
            live.len()
        )));
    }
    if k == 0 {
        return Err(BondError::InvalidK { k, rows: live.count() });
    }
    if live.count() <= k {
        // nothing to prune: every eligible row is part of the answer
        return Ok(QuantFilter::unswept(live.clone(), None, 0));
    }
    // the survivor bitmap, and the only allocation of a warmed call
    let mut survivors = live.clone();
    let mut source = CodeIntervals::new(codes, metric, query, order, kernel, &mut scratch.codes);
    source.steps = steps;
    source.fill_remaining_bounds();
    let sign = source.sign;
    let carried = shared.and_then(|cell| cell.current()).filter(|kappa| kappa.is_finite());
    let blocks_skipped = carried.map_or(0, |kappa| source.skip_far_blocks(&mut survivors, kappa));
    if blocks_skipped > 0 && survivors.count() <= k {
        // what is left is the segment's answer: no sweep can prune it
        return Ok(QuantFilter::unswept(survivors, carried, blocks_skipped));
    }
    let mut candidates = CandidateSet::from_bitmap(survivors);
    let blocks = Blocks::BackOff { first: PRUNE_BLOCK };
    let progress = BondLoop { k, kernel, blocks, shared }.run(
        &mut source,
        &mut candidates,
        &mut scratch.best,
    )?;
    let survivors = match candidates {
        CandidateSet::Bits(bits) => bits,
        // the code sweep never leaves the bitmap phase
        CandidateSet::List(list) => Bitmap::from_rows(rows, &list),
    };
    Ok(QuantFilter {
        survivors,
        kappa: progress.kappa.is_finite().then_some(sign * progress.kappa),
        cells: source.cells,
        probes: source.probes,
        groups: source.groups,
        dims: progress.swept,
        steps: progress.steps,
        blocks_skipped,
    })
}

/// The survivors of `filter` with their optimistic bound (score space)
/// after the sweep: what it accumulated over its `filter.dims` columns
/// plus the best the unswept ones can add — the value its last pruning
/// pass tested. Best first: NaN first (it never fails a test), then by
/// bound, ties by row — ranked lazily ([`Ranked::prefix`]), since the
/// refine reads the order only from the front and only until a bound
/// fails. `filter` must be the last run on `scratch` and carry a κ (so the
/// sweep's remaining-dimension bounds are this run's). Allocates nothing
/// once `scratch` has held as many survivors.
pub(crate) fn rank_survivors<'s>(
    filter: &QuantFilter,
    sign: f64,
    scratch: &'s mut QuantScratch,
) -> Ranked<'s> {
    let QuantScratch { opt, rem_opt, ranked, .. } = scratch;
    let add = rem_opt[filter.dims];
    ranked.clear();
    ranked.extend(filter.survivors.iter().map(|row| {
        // before the first block nothing was accumulated
        let swept = if filter.dims == 0 { 0.0 } else { opt[row as usize] };
        (row, swept + add)
    }));
    Ranked { rows: ranked, sorted: 0, sign }
}

/// `(row, bound)` pairs in [`rank_survivors`]' order, sorted only as far
/// as they are read.
pub(crate) struct Ranked<'s> {
    rows: &'s mut [(RowId, f64)],
    /// `rows[..sorted]` are the best `sorted` rows, in order.
    sorted: usize,
    /// `+1.0` under `Maximize`, `−1.0` under `Minimize`.
    sign: f64,
}

impl Ranked<'_> {
    /// How many rows there are.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// The best `n` rows (every row, if there are fewer), best first: the
    /// prefix a full sort gives, since the order is total (rows are
    /// distinct). A call that reaches past the sorted prefix selects the
    /// next rows out of the unsorted rest and sorts only those — at least
    /// as many as are already sorted, so reading every row costs a few
    /// passes more than one full sort, and reading `k` rows and a chunk or
    /// two costs a pass over the rest and a sort of what was read.
    pub(crate) fn prefix(&mut self, n: usize) -> &[(RowId, f64)] {
        let n = n.min(self.rows.len());
        if n > self.sorted {
            let sign = self.sign;
            let order = |a: &(RowId, f64), b: &(RowId, f64)| {
                ascending_nan_last(sign * a.1, sign * b.1).reverse().then(a.0.cmp(&b.0))
            };
            let end = n.max(2 * self.sorted).min(self.rows.len());
            let (rest, take) = (&mut self.rows[self.sorted..], end - self.sorted);
            if take < rest.len() {
                rest.select_nth_unstable_by(take - 1, order);
            }
            rest[..take].sort_unstable_by(order);
            self.sorted = end;
        }
        &self.rows[..n]
    }
}

/// The code-interval [`BoundSource`], one-sided: per block, the 16-bit
/// LUT sweep adds each candidate's optimistic contributions onto its
/// running bound, and the suffix-summed `rem_opt` of the unswept grids
/// bounds the rest. No pessimistic bound is carried: κ comes from the
/// probe ([`Proof::Probe`]).
struct CodeIntervals<'a> {
    codes: &'a SegmentCodesView<'a>,
    metric: &'a dyn DecomposableMetric,
    query: &'a [f64],
    order: Option<&'a [usize]>,
    kernel: Kernel,
    /// The quantized sweep `kernel` runs.
    sweep: CodeSweep,
    /// `+1.0` under `Maximize`, `−1.0` under `Minimize`.
    sign: f64,
    scratch: &'a mut QuantScratch,
    /// Code cells read: swept word runs plus the probes' lookups.
    cells: u64,
    /// Probes run.
    probes: usize,
    /// LUT groups built and quantized.
    groups: usize,
    /// Where each pruning step's checkpoint goes, if anywhere.
    steps: Option<&'a mut Vec<TraceCheckpoint>>,
}

impl<'a> CodeIntervals<'a> {
    fn new(
        codes: &'a SegmentCodesView<'a>,
        metric: &'a dyn DecomposableMetric,
        query: &'a [f64],
        order: Option<&'a [usize]>,
        kernel: Kernel,
        scratch: &'a mut QuantScratch,
    ) -> Self {
        // Stale accumulator contents never matter: the first block sweeps
        // in `init` mode, and only rows of swept words are ever read.
        scratch.opt.resize(codes.len(), 0.0);
        let sign = match metric.objective() {
            Objective::Maximize => 1.0,
            Objective::Minimize => -1.0,
        };
        let sweep = CodeSweep::of(kernel);
        CodeIntervals {
            codes,
            metric,
            query,
            order,
            kernel,
            sweep,
            sign,
            scratch,
            cells: 0,
            probes: 0,
            groups: 0,
            steps: None,
        }
    }

    /// Suffix-sums, over the sweep order, the best contribution each
    /// dimension can make for any value inside its grid — what an unswept
    /// dimension can still add to a candidate's optimistic bound.
    fn fill_remaining_bounds(&mut self) {
        let dims = self.codes.dims();
        let rem_opt = &mut self.scratch.rem_opt;
        rem_opt.clear();
        rem_opt.resize(dims + 1, 0.0);
        for j in (0..dims).rev() {
            let d = self.order.map_or(j, |order| order[j]);
            let (grid, q) = (self.codes.params(d), self.query[d]);
            rem_opt[j] = rem_opt[j + 1] + self.metric.best_contribution(d, grid.min, grid.max, q);
        }
    }

    /// The zone-map test at block grain, run before the first block with
    /// the κ the segment carries in (`kappa`, in score space): clears the
    /// candidates of every row block whose envelope bound cannot reach it
    /// ([`CodeIntervals::bound_blocks`]) and returns how many blocks it
    /// cleared. The test is the pruning pass's own predicate, so a NaN bound
    /// keeps its block. Sound for the reason every code bound is: the best
    /// contribution over an interval bounds every value inside it, and each
    /// row's codes lie inside its block's range.
    fn skip_far_blocks(&mut self, candidates: &mut Bitmap, kappa: f64) -> usize {
        let envelopes = self.codes.block_envelopes();
        let words_per_block = envelopes.rows_per_block() / WORD_ROWS;
        let blocks = &mut self.scratch.blocks;
        blocks.clear();
        blocks.extend(
            (candidates.words().chunks(words_per_block).enumerate())
                .filter(|(_, words)| words.iter().any(|&word| word != 0))
                .map(|(b, _)| (b, 0.0)),
        );
        let tested = blocks.len();
        let kappa = self.sign * kappa;
        self.bound_blocks(
            envelopes,
            Some(SurviveTest { sign: self.sign, add: 0.0, bar: kappa - prune_slack(kappa) }),
        );
        // the blocks left reach κ, in ascending order like the words
        let mut reaching = self.scratch.blocks.iter().map(|&(b, _)| b).peekable();
        candidates.retain_words(|index, _| {
            let block = index / words_per_block;
            while reaching.next_if(|&b| b < block).is_some() {}
            if reaching.peek() == Some(&block) {
                u64::MAX
            } else {
                0
            }
        });
        tested - self.scratch.blocks.len()
    }

    /// Sums the optimistic bound (score space) of every row block in the
    /// scratch's `blocks` — `(block, partial sum)` pairs — dimension by
    /// dimension in the sweep order: the best contribution any value in the
    /// dimension's code range of that block can make, one batched metric
    /// call per dimension for all blocks. With `keep`, a block leaves the
    /// list as soon as its partial sum plus `rem_opt` of the rest fails it;
    /// the blocks left carry their whole bound.
    fn bound_blocks(&mut self, envelopes: &BlockEnvelopes, keep: Option<SurviveTest>) {
        let Self { codes, metric, query, order, .. } = *self;
        let QuantScratch { luts: pairs, bounds, rem_opt, blocks, .. } = &mut *self.scratch;
        for j in 0..codes.dims() {
            if blocks.is_empty() {
                break;
            }
            let d = order.map_or(j, |order| order[j]);
            let grid = codes.params(d);
            bounds.clear();
            bounds.extend(blocks.iter().map(|&(b, _)| {
                let (min, max) = envelopes.block(b)[d];
                (grid.cell_bounds(min).0, grid.cell_bounds(max).1)
            }));
            pairs.resize(bounds.len() * 2, 0.0);
            metric.fill_contribution_pairs(d, bounds, query[d], pairs);
            let keep = keep.map(|test| SurviveTest { add: rem_opt[j + 1], ..test });
            let mut best = pairs.iter().step_by(2);
            blocks.retain_mut(|(_, sum)| {
                *sum += best.next().copied().unwrap_or(0.0);
                keep.is_none_or(|test| test.survives(*sum))
            });
        }
    }

    /// Sweeps one group of at most [`kernels::code_group`] code columns
    /// over the runs of candidate-holding `words`: builds just their
    /// one-lane `f64` LUTs, quantizes them to 16 bits once
    /// ([`kernels::quantize_lut`]) and sweeps every run with the integer
    /// entries ([`kernels::sweep_codes`]).
    fn sweep_group(&mut self, words: &[u64], block: Range<usize>) -> Result<()> {
        let Self { codes, metric, query, kernel, sweep, order, .. } = *self;
        let levels = codes.levels();
        let init = block.start == 0;
        let dim_at = |j: usize| order.map_or(j, |order| order[j]);
        let mut columns: [&[u8]; kernels::MAX_SWEEP_GROUP] = [&[]; kernels::MAX_SWEEP_GROUP];
        for (column, j) in columns.iter_mut().zip(block.clone()) {
            *column = codes.dim_codes(dim_at(j))?;
        }
        let columns = &columns[..block.len()];
        let QuantScratch { opt, luts, bounds, quant, .. } = &mut *self.scratch;
        luts.resize((columns.len() + 2) * levels, 0.0);
        let (best, pairs) = luts.split_at_mut(columns.len() * levels);
        let mut ranges = [LutRange::EMPTY; kernels::MAX_SWEEP_GROUP];
        for ((lut, range), j) in best.chunks_exact_mut(levels).zip(&mut ranges).zip(block) {
            let d = dim_at(j);
            let grid = codes.params(d);
            *range = fill_best_lut(metric, kernel, sweep, d, grid, query[d], bounds, pairs, lut);
        }
        let ranges = &ranges[..columns.len()];
        kernels::quantize_lut(sweep, metric.objective(), best, ranges, levels, quant);
        self.groups += 1;
        let mut window: [&[u8]; kernels::MAX_SWEEP_GROUP] = [&[]; kernels::MAX_SWEEP_GROUP];
        for run in word_runs(words, codes.len()) {
            for (slice, column) in window.iter_mut().zip(columns) {
                *slice = &column[run.clone()];
            }
            let window = &window[..columns.len()];
            kernels::sweep_codes(sweep, window, quant, &mut opt[run], init);
        }
        Ok(())
    }
}

impl BoundSource for CodeIntervals<'_> {
    /// The probe, after the last block too: what is left then goes to the
    /// exact refine, which stops at the κ it reads.
    fn proof(&self) -> Proof {
        Proof::Probe { after_last: true }
    }

    fn dims(&self) -> usize {
        self.codes.dims()
    }

    /// Sweeps the block over every run of candidate-holding words, as
    /// consecutive groups of [`kernels::code_group`] columns over the same
    /// runs, so each group's LUTs stay L1-sized however wide the block.
    /// Hole rows inside a swept word are over-computed and never read.
    fn sweep(&mut self, candidates: &CandidateSet, block: Range<usize>) -> Result<()> {
        let rows = self.codes.len();
        let words = match candidates {
            CandidateSet::Bits(bits) => bits.words(),
            CandidateSet::List(_) => &[],
        };
        let swept_rows: usize = word_runs(words, rows).map(|run| run.len()).sum();
        self.cells += (swept_rows * block.len()) as u64;
        let group = kernels::code_group(self.codes.levels());
        for start in block.clone().step_by(group) {
            self.sweep_group(words, start..block.end.min(start + group))?;
        }
        Ok(())
    }

    /// The optimistic bounds, which are also what the κ heap collects: the
    /// probe completes the `k` most promising rows.
    fn bounds(&self, swept: usize) -> Bounds<'_> {
        let opt = &self.scratch.opt[..];
        let opt_add = self.scratch.rem_opt[swept];
        Bounds::stored(opt, opt, self.sign, opt_add)
    }

    /// Computes the pessimistic bound of the `k` rows in `best` over every
    /// dimension from their code cells and returns the weakest — k rows
    /// provably score at least that well, so it is a valid κ, as tight as
    /// a full two-sided sweep would prove for those rows. Per dimension
    /// the rows' cells go through one batched `fill_contribution_pairs`
    /// call, whose worst lane is by definition `worst_contribution` of each
    /// cell; each row adds its lanes in the sweep order. A NaN bound proves
    /// nothing.
    fn probe(&mut self, best: &TopKLargest, _swept: usize) -> Result<Option<f64>> {
        let Self { codes, metric, query, order, sign, .. } = *self;
        let QuantScratch { luts: pairs, bounds, probed, .. } = &mut *self.scratch;
        probed.clear();
        probed.extend(best.iter().map(|Scored { row, .. }| (row, 0.0)));
        let dims = codes.dims();
        let dim_at = |j: usize| order.map_or(j, |order| order[j]);
        // each cell is a scattered read: keep the next dimensions' misses
        // in flight while this one is looked up
        let ahead = |j: usize, probed: &[(RowId, f64)]| -> Result<()> {
            if j < dims {
                let column = codes.dim_codes(dim_at(j))?;
                for &(row, _) in probed {
                    kernels::prefetch(column, row as usize);
                }
            }
            Ok(())
        };
        (0..kernels::PREFETCH_DIMS).try_for_each(|j| ahead(j, probed))?;
        for j in 0..dims {
            ahead(j + kernels::PREFETCH_DIMS, probed)?;
            let d = dim_at(j);
            let (column, grid) = (codes.dim_codes(d)?, codes.params(d));
            bounds.clear();
            bounds.extend(probed.iter().map(|&(row, _)| grid.cell_bounds(column[row as usize])));
            pairs.resize(bounds.len() * 2, 0.0);
            metric.fill_contribution_pairs(d, bounds, query[d], pairs);
            for ((_, bound), pair) in probed.iter_mut().zip(pairs.chunks_exact(2)) {
                *bound += pair[1];
            }
        }
        self.cells += (probed.len() * dims) as u64;
        self.probes += 1;
        let weakest = probed
            .iter()
            .map(|&(_, bound)| sign * bound)
            .try_fold(f64::INFINITY, |kth, bound| (!bound.is_nan()).then(|| kth.min(bound)));
        Ok(weakest)
    }

    fn stepped(&mut self, candidates: &mut CandidateSet, swept: usize, removed: usize) {
        if let Some(steps) = self.steps.as_deref_mut() {
            let candidates = candidates.len();
            steps.push(TraceCheckpoint { dims_processed: swept, candidates, pruned_now: removed });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bond_metrics::{
        HistogramIntersection, SquaredEuclidean, WeightedHistogramIntersection,
        WeightedSquaredEuclidean,
    };
    use std::sync::Mutex;
    use vdstore::{DecomposedTable, RowId, SegmentCodesView, SegmentStats, StoreCodes};

    use crate::bond_loop::tests::{per_candidate_step, with_seam, StepStats};

    fn codes_for(table: &DecomposedTable, partitions: usize) -> StoreCodes {
        let specs = table.partition_specs(partitions);
        let stats: Vec<SegmentStats> =
            specs.iter().map(|s| s.view(table).unwrap().stats()).collect();
        StoreCodes::build(table, &specs, &stats, 8).unwrap()
    }

    fn setup(partitions: usize) -> (DecomposedTable, StoreCodes) {
        let vectors: Vec<Vec<f64>> = (0..24)
            .map(|r| (0..4).map(|d| ((r * 4 + d) as f64 * 0.41).sin().abs()).collect())
            .collect();
        let table = DecomposedTable::from_vectors("qf", &vectors).unwrap();
        let codes = codes_for(&table, partitions);
        (table, codes)
    }

    /// `rows` x 20 dims around 7 well-separated centres, laid out
    /// cluster-major or shuffled; every 9th row repeats the row before it
    /// exactly, so ranks tie — the regime where bounds are tightest and
    /// ties common (Maneewongvatana & Mount, PAPERS.md).
    fn clustered(rows: usize, cluster_major: bool) -> DecomposedTable {
        const DIMS: usize = 20;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut vectors: Vec<Vec<f64>> = Vec::with_capacity(rows);
        for r in 0..rows {
            if r % 9 == 8 {
                vectors.push(vectors[r - 1].clone());
                continue;
            }
            let cluster = if cluster_major { r * 7 / rows } else { (next() * 7.0) as usize % 7 };
            vectors.push(
                (0..DIMS)
                    .map(|d| ((cluster * 31 + d * 17) % 13) as f64 / 13.0 + 0.04 * next())
                    .collect(),
            );
        }
        DecomposedTable::from_vectors("qf-clustered", &vectors).unwrap()
    }

    /// A single-threaded κ cell (a `Mutex` only to satisfy `Sync`).
    struct TestCell(Mutex<Option<f64>>, Objective);

    impl KappaCell for TestCell {
        fn tighten(&self, local: f64) -> f64 {
            let mut slot = self.0.lock().unwrap();
            let tightest = match *slot {
                Some(shared) if self.1.better(shared, local) => shared,
                _ => local,
            };
            *slot = Some(tightest);
            tightest
        }

        fn current(&self) -> Option<f64> {
            *self.0.lock().unwrap()
        }
    }

    /// Exact scores of every row, best first under the metric's objective
    /// (ties in row order — the engine's deterministic rank).
    fn ranked(
        table: &DecomposedTable,
        rows: Range<usize>,
        metric: &dyn DecomposableMetric,
        query: &[f64],
    ) -> Vec<(u32, f64)> {
        let start = rows.start;
        let mut scores: Vec<(u32, f64)> = rows
            .map(|r| ((r - start) as u32, metric.score(&table.row(r as u32).unwrap(), query)))
            .collect();
        scores.sort_by(|a, b| {
            let by_score = a.1.partial_cmp(&b.1).unwrap();
            match metric.objective() {
                Objective::Maximize => by_score.reverse().then(a.0.cmp(&b.0)),
                Objective::Minimize => by_score.then(a.0.cmp(&b.0)),
            }
        });
        scores
    }

    #[test]
    fn word_mask_step_reproduces_the_per_bit_step_decision_for_decision() {
        let dims = 20;
        let weights: Vec<f64> =
            (0..dims).map(|d| if d % 5 == 0 { 0.0 } else { 0.5 + d as f64 }).collect();
        let whi = WeightedHistogramIntersection::new(weights.clone()).unwrap();
        let wse = WeightedSquaredEuclidean::new(weights).unwrap();
        let metrics: Vec<&dyn DecomposableMetric> =
            vec![&HistogramIntersection, &SquaredEuclidean, &whi, &wse];
        let mut seed = 0x5EED_0FB1_7000_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        StepStats::take();
        // the word-mask side reuses one scratch across every case, as a
        // worker thread does: stale rows must not matter
        let mut reused = Scratch::default();
        let mut cases = 0usize;
        // 640 rows in two segments of 320: every segment ends on a word
        // boundary; 700 rows in three: none does
        for (rows, partitions, aligned) in [(640usize, 2usize, true), (700, 3, false)] {
            for cluster_major in [true, false] {
                let table = clustered(rows, cluster_major);
                let codes = codes_for(&table, partitions);
                for (mi, metric) in metrics.iter().enumerate() {
                    let query = table.row(13 + 50 * mi as u32).unwrap();
                    for si in 0..codes.n_segments() {
                        let view = codes.segment_view(si).unwrap();
                        let len = view.len();
                        assert_eq!(len % WORD_ROWS == 0, aligned, "{len} rows");
                        let range = codes.specs()[si].range();
                        for tombstones in [false, true] {
                            for filter in ["none", "one row", "10 %", "90 %"] {
                                let mut live = Bitmap::full(len);
                                if tombstones {
                                    for dead in (0..len).step_by(11) {
                                        live.clear(dead as u32);
                                    }
                                }
                                let share = match filter {
                                    "none" => 1.0,
                                    "10 %" => 0.1,
                                    "90 %" => 0.9,
                                    _ => 0.0,
                                };
                                let mut eligible: Vec<RowId> = (0..len as RowId)
                                    .filter(|&row| live.get(row) && next() < share)
                                    .collect();
                                if filter == "one row" {
                                    eligible.push(len as RowId / 2);
                                }
                                let live = Bitmap::from_rows(len, &eligible);
                                let truth: Vec<f64> =
                                    ranked(&table, range.clone(), *metric, &query)
                                        .into_iter()
                                        .filter(|(row, _)| live.get(*row))
                                        .map(|(_, score)| score)
                                        .collect();
                                for k in [1, 10, len, len + 1] {
                                    for pre in [None, truth.get(k - 1).copied()] {
                                        for kernel in [Kernel::Scalar, Kernel::active()] {
                                            let run = |reference: bool, scratch: &mut Scratch| {
                                                let cell =
                                                    TestCell(Mutex::new(pre), metric.objective());
                                                let mut filter = || {
                                                    filter_segment_in_order(
                                                        &view,
                                                        *metric,
                                                        &query,
                                                        k,
                                                        &live,
                                                        Some(&cell),
                                                        kernel,
                                                        None,
                                                        None,
                                                        scratch,
                                                    )
                                                    .unwrap()
                                                };
                                                let filter = if reference {
                                                    with_seam(Box::new(per_candidate_step), filter)
                                                } else {
                                                    filter()
                                                };
                                                (filter, cell.current().map(f64::to_bits))
                                            };
                                            let (masked, masked_kappa) = run(false, &mut reused);
                                            let (reference, reference_kappa) =
                                                run(true, &mut Scratch::default());
                                            let ctx = format!(
                                                "{} major={cluster_major} seg{si}/{len} \
                                                 tombstones={tombstones} filter={filter} k={k} \
                                                 pre={pre:?} {}",
                                                metric.name(),
                                                kernel.label()
                                            );
                                            assert_eq!(
                                                masked.survivors, reference.survivors,
                                                "{ctx}"
                                            );
                                            assert_eq!(
                                                masked.kappa.map(f64::to_bits),
                                                reference.kappa.map(f64::to_bits),
                                                "{ctx}"
                                            );
                                            assert_eq!(
                                                (masked.cells, masked.dims),
                                                (reference.cells, reference.dims),
                                                "{ctx}"
                                            );
                                            assert_eq!(masked_kappa, reference_kappa, "{ctx}");
                                            cases += 1;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 2 * 5 * 4 * 2 * 4 * 4 * 2 * 2);
        let StepStats { dense_words: dense, thin_words: thin, .. } = StepStats::take();
        assert!(dense > 1_000 && thin > 1_000, "word-mask words {dense}, bit-loop words {thin}");
    }

    /// A heap's entries as comparable bits, weakest first.
    fn heap_bits(best: &TopKLargest) -> Vec<(RowId, u64)> {
        let mut entries: Vec<(RowId, u64)> =
            best.iter().map(|entry| (entry.row, entry.score.to_bits())).collect();
        entries.sort_unstable();
        entries
    }

    /// The one place the two steps could part: a NaN heap bound compares
    /// equal to every score, so once one is in the heap its weakest entry
    /// no longer only rises. Words mixing NaN and ordinary bounds, under
    /// both objectives, on both kernels and with the heap reading the
    /// optimistic bounds themselves (as a probe source's does), must leave
    /// the candidate words and the heap exactly as the per-bit step does.
    #[test]
    fn word_mask_step_matches_the_per_bit_step_on_nan_pessimistic_bounds() {
        let mut seed = 0x0A11_C0DE_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let rows = 300usize;
        for (sign, same, kernel) in [(1.0, false, Kernel::Scalar), (-1.0, true, Kernel::active())] {
            for round in 0..40 {
                let mut bound = || {
                    let x = next();
                    if x < 0.08 {
                        f64::NAN
                    } else {
                        (x * 8.0).floor() * 0.25
                    }
                };
                let opt: Vec<f64> = (0..rows).map(|_| bound()).collect();
                let pes: Vec<f64> = (0..rows).map(|_| bound()).collect();
                let heap = if same { &opt } else { &pes };
                let bounds = Bounds { sign, ..plain(&opt, heap) };
                let candidates: Vec<RowId> = (0..rows.div_ceil(WORD_ROWS))
                    .flat_map(|w| {
                        let bits = if w % 3 == 0 { u64::MAX } else { (next() * 2e18) as u64 };
                        (0..WORD_ROWS)
                            .filter(move |bit| bits >> bit & 1 == 1)
                            .map(move |bit| (w * WORD_ROWS + bit) as RowId)
                    })
                    .filter(|&row| (row as usize) < rows)
                    .collect();
                let kappa = sign * (0.8 + round as f64 * 0.01);
                let keep = SurviveTest { sign, add: 0.25, bar: kappa - prune_slack(kappa) };
                for collect in [None, Some(1), Some(3), Some(17)] {
                    let mut masked =
                        CandidateSet::from_bitmap(Bitmap::from_rows(rows, &candidates));
                    let mut reference = masked.clone();
                    let mut heaps = collect.map(|k| (TopKLargest::new(k), TopKLargest::new(k)));
                    let (masked_best, reference_best) = match &mut heaps {
                        Some((a, b)) => (Some(a), Some(b)),
                        None => (None, None),
                    };
                    let removed = masked.prune(kernel, Some(keep), &bounds, masked_best);
                    let expected =
                        per_candidate_step(&mut reference, Some(keep), &bounds, reference_best);
                    let ctx = format!("sign {sign} round {round} collect {collect:?}");
                    assert_eq!(removed, expected, "{ctx}");
                    assert_eq!(masked, reference, "{ctx}");
                    if let Some((a, b)) = &heaps {
                        assert_eq!(heap_bits(a), heap_bits(b), "{ctx}");
                    }
                }
            }
        }
    }

    /// Optimistic and heap bounds, larger is better, nothing unswept.
    fn plain<'a>(opt: &'a [f64], heap: &'a [f64]) -> Bounds<'a> {
        Bounds::stored(opt, heap, 1.0, 0.0)
    }

    #[test]
    fn intervals_bracket_exact_scores_for_all_metrics() {
        let (table, codes) = setup(2);
        let query: Vec<f64> = table.row(5).unwrap();
        let weighted = WeightedSquaredEuclidean::new(vec![2.0, 0.5, 1.5, 3.0]).unwrap();
        let metrics: Vec<&dyn DecomposableMetric> =
            vec![&HistogramIntersection, &SquaredEuclidean, &weighted];
        let mut scratch = QuantScratch::new();
        for metric in metrics {
            for si in 0..codes.n_segments() {
                let view = codes.segment_view(si).unwrap();
                interval_scores_into(&view, metric, &query, Kernel::active(), &mut scratch)
                    .unwrap();
                let spec = codes.specs()[si];
                for (local, global) in spec.range().enumerate() {
                    let v = table.row(global as u32).unwrap();
                    let exact = metric.score(&v, &query);
                    let (lo, hi) = match metric.objective() {
                        Objective::Maximize => (scratch.pes()[local], scratch.opt()[local]),
                        Objective::Minimize => (scratch.opt()[local], scratch.pes()[local]),
                    };
                    assert!(
                        lo <= exact + 1e-9 && exact <= hi + 1e-9,
                        "{}: row {global} score {exact} outside [{lo}, {hi}]",
                        metric.name()
                    );
                }
            }
        }
    }

    #[test]
    fn filter_keeps_the_true_top_k() {
        let (table, codes) = setup(1);
        let query: Vec<f64> = table.row(17).unwrap();
        let live = table.live_bitmap();
        let view = codes.segment_view(0).unwrap();
        let (rows, dims) = (table.rows(), table.dims());
        let first_block = PRUNE_BLOCK.min(dims);
        for k in [1usize, 3, 10] {
            let filter =
                filter_segment(&view, &HistogramIntersection, &query, k, &live, None).unwrap();
            assert!(filter.kappa.is_some());
            // every row is swept through the first block; after that only
            // what is still standing, plus the probes — a cold segment's
            // after the first and the last block — k × dims lookups each
            assert!(filter.cells >= (rows * first_block) as u64, "cells {}", filter.cells);
            assert!(filter.probes <= 2, "{} probes", filter.probes);
            let probes = filter.probes * k * dims;
            assert!(filter.cells <= (rows * dims + probes) as u64, "cells {}", filter.cells);
            assert!(filter.dims >= first_block && filter.dims <= dims);
            let survivors = filter.survivors.to_rows();
            for &(row, _) in &ranked(&table, 0..rows, &HistogramIntersection, &query)[..k] {
                assert!(survivors.contains(&row), "filter lost true top-{k} row {row}");
            }
            assert!(survivors.len() >= k);
        }
    }

    /// The property the engine's bit-identity rests on: whatever the
    /// layout, rule, dimension order, kernel or κ the shared cell already
    /// holds — none, the tightest a sibling could prove, or one so loose
    /// that it prunes nothing and the skipped first probe leaves the sweep
    /// without a κ of its own until the last block — the survivors contain
    /// the brute-force top-k, ties at rank k included.
    #[test]
    fn survivors_contain_the_brute_force_top_k() {
        let dims = 20;
        let weights: Vec<f64> =
            (0..dims).map(|d| if d % 5 == 0 { 0.0 } else { 0.5 + d as f64 }).collect();
        let whi = WeightedHistogramIntersection::new(weights.clone()).unwrap();
        let wse = WeightedSquaredEuclidean::new(weights).unwrap();
        let metrics: Vec<&dyn DecomposableMetric> =
            vec![&HistogramIntersection, &SquaredEuclidean, &whi, &wse];
        let reversed: Vec<usize> = (0..dims).rev().collect();
        let strided: Vec<usize> = (0..dims).map(|j| (j * 7) % dims).collect();
        let orders: [Option<&[usize]>; 3] = [None, Some(&reversed), Some(&strided)];
        let kernels: Vec<Kernel> = Kernel::ALL.into_iter().filter(|k| k.is_supported()).collect();
        for cluster_major in [true, false] {
            let table = clustered(700, cluster_major);
            let codes = codes_for(&table, 3);
            for (mi, metric) in metrics.iter().enumerate() {
                // a member, a near-duplicate pair, and an off-data query
                let mut queries: Vec<Vec<f64>> =
                    [13usize, 7, 8].iter().map(|&r| table.row(r as u32).unwrap()).collect();
                queries.push((0..dims).map(|d| 0.3 + 0.02 * d as f64).collect());
                for (qi, query) in queries.iter().enumerate() {
                    for si in 0..codes.n_segments() {
                        let view = codes.segment_view(si).unwrap();
                        let range = codes.specs()[si].range();
                        let mut live = Bitmap::full(view.len());
                        for dead in (0..view.len()).step_by(11) {
                            live.clear(dead as u32);
                        }
                        let truth: Vec<(u32, f64)> = ranked(&table, range, *metric, query)
                            .into_iter()
                            .filter(|(row, _)| live.get(*row))
                            .collect();
                        for k in [1usize, 10, truth.len(), truth.len() + 1] {
                            let order = orders[(mi + qi + si + k) % orders.len()];
                            let kernel = kernels[(qi + k) % kernels.len()];
                            // cold, against the tightest κ any sibling
                            // segment could have proven (the true k-th
                            // score) and against a loose one (the
                            // segment's worst live score)
                            let exact_kth = truth.get(k - 1).map(|&(_, score)| score);
                            let loosest = truth.last().map(|&(_, score)| score);
                            for pre in [None, exact_kth, loosest] {
                                let cell = TestCell(Mutex::new(pre), metric.objective());
                                let filter = filter_segment_in_order(
                                    &view,
                                    *metric,
                                    query,
                                    k,
                                    &live,
                                    Some(&cell),
                                    kernel,
                                    order,
                                    None,
                                    &mut Scratch::default(),
                                )
                                .unwrap();
                                let ctx = format!(
                                    "{} major={cluster_major} q{qi} seg{si} k={k} pre={pre:?}",
                                    metric.name()
                                );
                                for &(row, _) in truth.iter().take(k) {
                                    assert!(filter.survivors.get(row), "{ctx}: lost row {row}");
                                }
                                for row in filter.survivors.iter() {
                                    assert!(live.get(row), "{ctx}: dead row {row} survived");
                                }
                                let most = if pre.is_some() { 1 } else { 2 };
                                assert!(filter.probes <= most, "{ctx}: {} probes", filter.probes);
                                let probed = filter.probes * k * dims;
                                assert!(
                                    filter.cells <= (view.len() * dims + probed) as u64,
                                    "{ctx}: {} cells",
                                    filter.cells
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_tight_shared_kappa_ends_the_sweep_after_one_block() {
        let table = clustered(700, true);
        let codes = codes_for(&table, 1);
        let view = codes.segment_view(0).unwrap();
        let live = table.live_bitmap();
        let (rows, dims) = (table.rows(), table.dims());
        let query = table.row(13).unwrap();
        let k = 5;
        let cold = filter_segment(&view, &SquaredEuclidean, &query, k, &live, None).unwrap();
        assert!(cold.cells < (rows * dims) as u64, "pruning saved no cell: {}", cold.cells);
        // a κ no row of this segment can reach: the envelope of its one row
        // block misses it, so every candidate drops before a single cell,
        // LUT or column is read
        let cell = TestCell(Mutex::new(Some(-1.0)), Objective::Minimize);
        let far = filter_segment(&view, &SquaredEuclidean, &query, k, &live, Some(&cell)).unwrap();
        assert_eq!(far.survivors.count(), 0);
        assert_eq!((far.cells, far.dims, far.blocks_skipped), (0, 0, 1));
        assert_eq!(far.kappa, Some(-1.0));
    }

    #[test]
    fn far_row_blocks_drop_before_their_first_cell() {
        // seven clusters, cluster-major, over three row blocks; the query
        // sits in the first cluster, inside block 0
        let table = clustered(3000, true);
        let codes = codes_for(&table, 1);
        let view = codes.segment_view(0).unwrap();
        assert_eq!(view.block_envelopes().blocks(), 3);
        let live = table.live_bitmap();
        let query = table.row(13).unwrap();
        let k = 5;
        let truth = ranked(&table, 0..table.rows(), &SquaredEuclidean, &query);
        let cold = filter_segment(&view, &SquaredEuclidean, &query, k, &live, None).unwrap();
        assert_eq!(cold.blocks_skipped, 0, "no κ carried in, nothing to test a block against");
        let cell = TestCell(Mutex::new(Some(truth[k - 1].1)), Objective::Minimize);
        let warm = filter_segment(&view, &SquaredEuclidean, &query, k, &live, Some(&cell)).unwrap();
        assert_eq!(warm.blocks_skipped, 2, "both far blocks drop");
        assert!(warm.survivors.iter().all(|row| row < 1024), "a far row survived");
        assert!(warm.cells < cold.cells, "cells {} vs {} cold", warm.cells, cold.cells);
        for &(row, _) in &truth[..k] {
            assert!(warm.survivors.get(row), "lost true top-{k} row {row}");
        }
    }

    /// The soundness of the block test: every row's exact score lies
    /// within its block's envelope bound — and in a one-row segment, whose
    /// grids are degenerate, the bound *is* the exact score, so a bound
    /// that dropped a dimension's contribution cannot pass either way.
    #[test]
    fn every_row_scores_inside_its_block_envelope_bound() {
        let dims = 20;
        let weights: Vec<f64> =
            (0..dims).map(|d| if d % 5 == 0 { 0.0 } else { 0.5 + d as f64 }).collect();
        let whi = WeightedHistogramIntersection::new(weights.clone()).unwrap();
        let wse = WeightedSquaredEuclidean::new(weights).unwrap();
        let metrics: Vec<&dyn DecomposableMetric> =
            vec![&HistogramIntersection, &SquaredEuclidean, &whi, &wse];
        let strided: Vec<usize> = (0..dims).map(|j| (j * 7) % dims).collect();
        let mut checked = 0usize;
        // two segments of 1 300 rows (a full block and a ragged one each),
        // then six one-row segments
        for (table, partitions) in [(clustered(2600, false), 2), (clustered(6, true), 6)] {
            let codes = codes_for(&table, partitions);
            let query = table.row(3).unwrap();
            for metric in &metrics {
                for si in 0..codes.n_segments() {
                    let view = codes.segment_view(si).unwrap();
                    let envelopes = view.block_envelopes();
                    let mut scratch = QuantScratch::new();
                    let order = Some(&strided[..]);
                    let mut source = CodeIntervals::new(
                        &view,
                        *metric,
                        &query,
                        order,
                        Kernel::Scalar,
                        &mut scratch,
                    );
                    source.scratch.blocks = (0..envelopes.blocks()).map(|b| (b, 0.0)).collect();
                    source.bound_blocks(envelopes, None);
                    let start = codes.specs()[si].start();
                    let per_block = envelopes.rows_per_block();
                    for &(b, bound) in &source.scratch.blocks {
                        for local in b * per_block..((b + 1) * per_block).min(view.len()) {
                            let row = table.row((start + local) as u32).unwrap();
                            let exact = metric.score(&row, &query);
                            let (exact, bound) = (source.sign * exact, source.sign * bound);
                            let tol = 1e-9 * exact.abs().max(1.0);
                            let ctx = format!("{} seg{si} block {b} row {local}", metric.name());
                            assert!(exact <= bound + tol, "{ctx}: scores {exact} past {bound}");
                            if view.len() == 1 {
                                assert!(bound <= exact + tol, "{ctx}: bound {bound} ≠ {exact}");
                            }
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(checked, 4 * (2600 + 6));
    }

    /// A segment no bound can split before its last eight columns: every
    /// row shares the first 120 of its 128 values (uniform noise per
    /// column), and only the last eight (uniform noise per row) differ.
    /// Every step before the last block removes nothing, so the blocks go
    /// 8, 16, 32, 64, 8 — five steps where a fixed eight would take 16. The
    /// wide blocks are swept as groups of [`kernels::code_group`] columns
    /// from each block's start, each group quantized once, so every
    /// survivor's bound is bit for bit where one full quantized sweep over
    /// the same groups, in plan order, leaves it — and never on the
    /// pessimistic side of the two-sided `f64` interval sweep's optimistic
    /// bound by more than `prune_slack`.
    #[test]
    fn barren_steps_double_the_block_and_the_bounds_stay_bit_identical() {
        const DIMS: usize = 128;
        let mut state = 0x0B5E_55ED_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let shared: Vec<f64> = (0..DIMS - 8).map(|_| next()).collect();
        let vectors: Vec<Vec<f64>> = (0..1500)
            .map(|_| shared.iter().copied().chain((0..8).map(|_| next())).collect())
            .collect();
        let table = DecomposedTable::from_vectors("barren", &vectors).unwrap();
        let query: Vec<f64> = (0..DIMS).map(|_| next()).collect();
        let live = table.live_bitmap();
        let specs = table.partition_specs(1);
        let stats: Vec<SegmentStats> =
            specs.iter().map(|s| s.view(&table).unwrap().stats()).collect();
        let kernels: Vec<Kernel> = Kernel::ALL.into_iter().filter(|k| k.is_supported()).collect();
        for bits in [4u8, 8] {
            let codes = StoreCodes::build(&table, &specs, &stats, bits).unwrap();
            let view = codes.segment_view(0).unwrap();
            for metric in [&SquaredEuclidean as &dyn DecomposableMetric, &HistogramIntersection] {
                for &kernel in &kernels {
                    let ctx = format!("{} {bits} bits {}", metric.name(), kernel.label());
                    let mut scratch = Scratch::default();
                    let mut steps = Vec::new();
                    let filter = filter_segment_in_order(
                        &view,
                        metric,
                        &query,
                        5,
                        &live,
                        None,
                        kernel,
                        None,
                        Some(&mut steps),
                        &mut scratch,
                    )
                    .unwrap();
                    assert_eq!((filter.dims, filter.steps), (DIMS, 5), "{ctx}");
                    let ends: Vec<usize> = steps.iter().map(|s| s.dims_processed).collect();
                    assert_eq!(ends, [8, 24, 56, 120, 128], "{ctx}: blocks 8/16/32/64/8");
                    assert!(
                        filter.survivors.count() < table.rows(),
                        "{ctx}: the last block prunes"
                    );
                    let quantized = full_quantized_sweep(&view, metric, &query, kernel, &ends);
                    let mut full = QuantScratch::new();
                    interval_scores_into(&view, metric, &query, kernel, &mut full).unwrap();
                    for row in filter.survivors.iter().map(|row| row as usize) {
                        let opt = scratch.codes.opt[row];
                        assert_eq!(opt.to_bits(), quantized[row].to_bits(), "{ctx}: row {row}");
                        let interval = full.opt()[row];
                        let pessimistic = match metric.objective() {
                            Objective::Minimize => opt > interval + prune_slack(interval),
                            Objective::Maximize => opt < interval - prune_slack(interval),
                        };
                        assert!(!pessimistic, "{ctx}: row {row}: {opt} vs interval {interval}");
                    }
                }
            }
        }
    }

    /// The lazy ranking against one full sort: whatever prefixes the
    /// refine reads — `k` rows then chunks, one row at a time, all at once
    /// — each is the full sort's prefix bit for bit, in both objectives,
    /// over bounds with many ties (broken by row), NaN and `±0`.
    #[test]
    fn lazy_ranking_reads_the_full_sort_prefix_by_prefix() {
        let mut state = 0x5E1E_C7ED_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let values = [f64::NAN, -0.0, 0.0, 1.5, -2.25, 7.0, 1e300, -1e-300];
        for sign in [1.0, -1.0] {
            for n in [0usize, 1, 7, 64, 188, 430] {
                let mut rows: Vec<(RowId, f64)> =
                    (0..n).map(|i| (i as RowId * 3, values[next() as usize % 8])).collect();
                for i in (1..n).rev() {
                    rows.swap(i, next() as usize % (i + 1));
                }
                let mut full = rows.clone();
                full.sort_by(|a, b| {
                    ascending_nan_last(sign * a.1, sign * b.1).reverse().then(a.0.cmp(&b.0))
                });
                let bits = |r: &[(RowId, f64)]| -> Vec<(RowId, u64)> {
                    r.iter().map(|&(row, b)| (row, b.to_bits())).collect()
                };
                for (first, step) in [(10, 8), (50, 8), (1, 1), (3, 200), (n + 1, 1)] {
                    let mut data = rows.clone();
                    let mut ranked = Ranked { rows: &mut data, sorted: 0, sign };
                    assert_eq!(ranked.len(), n);
                    let mut read = first;
                    loop {
                        let want = &full[..read.min(n)];
                        assert_eq!(bits(ranked.prefix(read)), bits(want), "n {n} read {read}");
                        if read >= n {
                            break;
                        }
                        read += step;
                    }
                }
            }
        }
    }

    /// The module docs' claim: a segment that empties after its first
    /// block builds one LUT group, not `dims / 8`. The query is one of the
    /// rows, and every other row is uniform noise, far from it in the first
    /// eight dimensions already, so the probe after the first block proves
    /// a κ only that row reaches, and the sweep stops there.
    #[test]
    fn a_segment_that_empties_after_its_first_block_builds_one_group() {
        const DIMS: usize = 64;
        let mut state = 0x0E5_0A11_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let vectors: Vec<Vec<f64>> =
            (0..1000).map(|_| (0..DIMS).map(|_| next()).collect()).collect();
        let table = DecomposedTable::from_vectors("one-group", &vectors).unwrap();
        let specs = table.partition_specs(1);
        let stats: Vec<SegmentStats> =
            specs.iter().map(|s| s.view(&table).unwrap().stats()).collect();
        let codes = StoreCodes::build(&table, &specs, &stats, 8).unwrap();
        let view = codes.segment_view(0).unwrap();
        let live = table.live_bitmap();
        for kernel in Kernel::ALL.into_iter().filter(|k| k.is_supported()) {
            let mut scratch = Scratch::default();
            let filter = filter_segment_in_order(
                &view,
                &SquaredEuclidean,
                &vectors[17],
                1,
                &live,
                None,
                kernel,
                None,
                None,
                &mut scratch,
            )
            .unwrap();
            let ctx = kernel.label();
            assert_eq!(filter.survivors.iter().collect::<Vec<_>>(), [17], "{ctx}");
            assert_eq!((filter.dims, filter.steps, filter.probes), (8, 1, 1), "{ctx}");
            assert_eq!(filter.groups, 1, "{ctx}: one group, not {}", DIMS / 8);
        }
    }

    /// Every row's quantized optimistic bound over all of the segment's
    /// dimensions in storage order, swept block by block (blocks ending at
    /// `ends`) in groups of [`kernels::code_group`] columns from each
    /// block's start — the groups the filter quantizes.
    fn full_quantized_sweep(
        view: &SegmentCodesView<'_>,
        metric: &dyn DecomposableMetric,
        query: &[f64],
        kernel: Kernel,
        ends: &[usize],
    ) -> Vec<f64> {
        let (levels, sweep) = (view.levels(), CodeSweep::of(kernel));
        let group = kernels::code_group(levels);
        let (mut bounds, mut pairs) = (Vec::new(), vec![0.0; 2 * levels]);
        let mut quant = QuantLut::new();
        let mut acc = vec![f64::NAN; view.len()];
        let mut from = 0;
        for &end in ends {
            for start in (from..end).step_by(group) {
                let dims = start..end.min(start + group);
                let mut luts = vec![0.0; dims.len() * levels];
                let mut ranges = Vec::new();
                for (lut, d) in luts.chunks_exact_mut(levels).zip(dims.clone()) {
                    let (grid, q) = (view.params(d), query[d]);
                    let (bounds, pairs) = (&mut bounds, &mut pairs);
                    ranges
                        .push(fill_best_lut(metric, kernel, sweep, d, grid, q, bounds, pairs, lut));
                }
                kernels::quantize_lut(
                    sweep,
                    metric.objective(),
                    &luts,
                    &ranges,
                    levels,
                    &mut quant,
                );
                let columns: Vec<&[u8]> = dims.map(|d| view.dim_codes(d).unwrap()).collect();
                kernels::sweep_codes(sweep, &columns, &quant, &mut acc, start == 0);
            }
            from = end;
        }
        acc
    }

    /// The batched probe against its definition: every probed row's
    /// pessimistic bound computed cell by cell with `worst_contribution`
    /// over every dimension, in the sweep order — the κ must be the same
    /// bits, and the probe must count `k × dims` lookups.
    #[test]
    fn the_batched_probe_completes_each_bound_cell_by_cell() {
        let dims = 20;
        let weights: Vec<f64> =
            (0..dims).map(|d| if d % 5 == 0 { 0.0 } else { 0.5 + d as f64 }).collect();
        let whi = WeightedHistogramIntersection::new(weights.clone()).unwrap();
        let wse = WeightedSquaredEuclidean::new(weights).unwrap();
        let metrics: [&dyn DecomposableMetric; 4] =
            [&HistogramIntersection, &SquaredEuclidean, &whi, &wse];
        let strided: Vec<usize> = (0..dims).map(|j| (j * 7) % dims).collect();
        let table = clustered(700, false);
        let codes = codes_for(&table, 1);
        let view = codes.segment_view(0).unwrap();
        let query = table.row(13).unwrap();
        for metric in metrics {
            for order in [None, Some(&strided[..])] {
                for k in [1, 7] {
                    // the heap's scores (optimistic bounds) only pick the rows
                    let mut best = TopKLargest::new(k);
                    for row in (0..k as RowId).map(|i| 3 + 97 * i) {
                        best.push(row, 0.25 * f64::from(row % 5));
                    }
                    let mut scratch = QuantScratch::new();
                    let mut source = CodeIntervals::new(
                        &view,
                        metric,
                        &query,
                        order,
                        Kernel::Scalar,
                        &mut scratch,
                    );
                    let kappa = source.probe(&best, 0).unwrap().unwrap();
                    let want = probe_by_definition(&view, metric, &query, order, &best);
                    let ctx = format!("{} {order:?} k {k}", metric.name());
                    assert_eq!(kappa.to_bits(), want.to_bits(), "{ctx}");
                    assert_eq!(source.cells, (k * dims) as u64, "{ctx}");
                }
            }
        }
    }

    /// What a probe of `best`'s rows must return: each row's pessimistic
    /// bound completed cell by cell with `worst_contribution` over every
    /// dimension, in the sweep order; the weakest of them, in goodness
    /// space.
    fn probe_by_definition(
        view: &SegmentCodesView<'_>,
        metric: &dyn DecomposableMetric,
        query: &[f64],
        order: Option<&[usize]>,
        best: &TopKLargest,
    ) -> f64 {
        let sign = match metric.objective() {
            Objective::Maximize => 1.0,
            Objective::Minimize => -1.0,
        };
        best.iter()
            .map(|Scored { row, .. }| {
                let pessimistic = (0..view.dims()).fold(0.0, |bound, j| {
                    let d = order.map_or(j, |order| order[j]);
                    let code = view.dim_codes(d).unwrap()[row as usize];
                    let (lo, hi) = view.params(d).cell_bounds(code);
                    bound + metric.worst_contribution(d, lo, hi, query[d])
                });
                sign * pessimistic
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// The probe's lookahead ([`kernels::PREFETCH_DIMS`] dimensions ahead)
    /// at the edges it must stay inside: one-row segments, fewer
    /// dimensions than the lookahead, and the last rows of a ragged
    /// segment (65 rows, so the last word is partial), on every supported
    /// kernel and in both directions — the κ must be the definition's bits,
    /// counted as one probe of `rows × dims` lookups.
    #[test]
    fn the_probe_looks_ahead_inside_short_and_ragged_segments() {
        let kernels: Vec<Kernel> = Kernel::ALL.into_iter().filter(|k| k.is_supported()).collect();
        let ahead = kernels::PREFETCH_DIMS;
        let shapes = [
            (1, 1, 1),
            (1, 20, 1),
            (130, 1, 2),
            (130, ahead - 1, 2),
            (130, ahead, 2),
            (130, 20, 2),
        ];
        let mut probes = 0;
        for (rows, dims, partitions) in shapes {
            let vectors: Vec<Vec<f64>> = (0..rows)
                .map(|r| (0..dims).map(|d| ((r * dims + d) as f64 * 0.37).sin().abs()).collect())
                .collect();
            let table = DecomposedTable::from_vectors("ragged", &vectors).unwrap();
            let codes = codes_for(&table, partitions);
            let query = table.row(0).unwrap();
            let reversed: Vec<usize> = (0..dims).rev().collect();
            for si in 0..codes.n_segments() {
                let view = codes.segment_view(si).unwrap();
                let len = view.len();
                for metric in [&HistogramIntersection as &dyn DecomposableMetric, &SquaredEuclidean]
                {
                    for order in [None, Some(&reversed[..])] {
                        for k in [1, 3] {
                            // the segment's last rows, weakest first
                            let mut best = TopKLargest::new(k);
                            for row in len.saturating_sub(k)..len {
                                best.push(row as RowId, row as f64);
                            }
                            let want = probe_by_definition(&view, metric, &query, order, &best);
                            for &kernel in &kernels {
                                let ctx = format!(
                                    "{rows}x{dims} seg{si} {} {order:?} k={k} {}",
                                    metric.name(),
                                    kernel.label()
                                );
                                let mut scratch = QuantScratch::new();
                                let mut source = CodeIntervals::new(
                                    &view,
                                    metric,
                                    &query,
                                    order,
                                    kernel,
                                    &mut scratch,
                                );
                                let kappa = source.probe(&best, 0).unwrap().unwrap();
                                assert_eq!(kappa.to_bits(), want.to_bits(), "{ctx}");
                                let cells = (best.len() * dims) as u64;
                                assert_eq!((source.cells, source.probes), (cells, 1), "{ctx}");
                                probes += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(probes, (2 + 4 * 2) * 2 * 2 * 2 * kernels.len());
    }

    /// A code source that counts, on its own, what the loop asks of the
    /// [`CodeIntervals`] it wraps: the swept cells (every row of each
    /// candidate-holding word, the last word clamped to the segment, times
    /// the block's width) and the probes with the cells they look up.
    struct Counted<'s, 'a> {
        inner: &'s mut CodeIntervals<'a>,
        swept: u64,
        probes: usize,
        probed: u64,
    }

    impl BoundSource for Counted<'_, '_> {
        fn proof(&self) -> Proof {
            self.inner.proof()
        }

        fn dims(&self) -> usize {
            self.inner.dims()
        }

        fn sweep(&mut self, candidates: &CandidateSet, block: Range<usize>) -> Result<()> {
            let rows = self.inner.codes.len();
            if let CandidateSet::Bits(bits) = candidates {
                let words = bits.words().iter().enumerate().filter(|&(_, &word)| word != 0);
                let swept: usize = words.map(|(w, _)| (rows - w * WORD_ROWS).min(WORD_ROWS)).sum();
                self.swept += (swept * block.len()) as u64;
            }
            self.inner.sweep(candidates, block)
        }

        fn bounds(&self, swept: usize) -> Bounds<'_> {
            self.inner.bounds(swept)
        }

        fn probe(&mut self, best: &TopKLargest, swept: usize) -> Result<Option<f64>> {
            self.probes += 1;
            self.probed += (best.len() * self.inner.dims()) as u64;
            self.inner.probe(best, swept)
        }

        fn stepped(&mut self, candidates: &mut CandidateSet, swept: usize, removed: usize) {
            self.inner.stepped(candidates, swept, removed);
        }
    }

    /// The probe's schedule and its price: a cold segment probes after its
    /// first block and after its last; one that carried a κ in — as tight
    /// as a sibling could prove, or so loose that it prunes nothing — only
    /// after its last. Every probe looks up `k × dims` code cells, and
    /// `cells` is exactly the swept word runs plus those lookups: the same
    /// filter replayed through [`Counted`] must see the same probes and
    /// add up to the same cells.
    #[test]
    fn a_carried_kappa_skips_the_first_probe_and_cells_count_every_probe() {
        let table = clustered(3000, false);
        let codes = codes_for(&table, 1);
        let view = codes.segment_view(0).unwrap();
        let live = table.live_bitmap();
        let dims = table.dims();
        let kernel = Kernel::active();
        let (mut cold_twice, mut warm_once, mut warm_none) = (0, 0, 0);
        for metric in [&HistogramIntersection as &dyn DecomposableMetric, &SquaredEuclidean] {
            for row in [13, 1500] {
                let query = table.row(row).unwrap();
                let truth = ranked(&table, 0..table.rows(), metric, &query);
                for k in [1, 5, 20] {
                    let tight = Some(truth[k - 1].1);
                    let loose = truth.last().map(|&(_, score)| score);
                    for pre in [None, tight, loose] {
                        let ctx = format!("{} q{row} k={k} pre={pre:?}", metric.name());
                        let cell = TestCell(Mutex::new(pre), metric.objective());
                        let filter = filter_segment_in_order(
                            &view,
                            metric,
                            &query,
                            k,
                            &live,
                            Some(&cell),
                            kernel,
                            None,
                            None,
                            &mut Scratch::default(),
                        )
                        .unwrap();
                        // the replay: the filter's own steps, around the
                        // counting source
                        let mut scratch = QuantScratch::new();
                        let mut inner =
                            CodeIntervals::new(&view, metric, &query, None, kernel, &mut scratch);
                        inner.fill_remaining_bounds();
                        let mut survivors = live.clone();
                        if let Some(kappa) = pre {
                            inner.skip_far_blocks(&mut survivors, kappa);
                        }
                        let mut source =
                            Counted { inner: &mut inner, swept: 0, probes: 0, probed: 0 };
                        let cell = TestCell(Mutex::new(pre), metric.objective());
                        let blocks = Blocks::BackOff { first: PRUNE_BLOCK };
                        let progress = BondLoop { k, kernel, blocks, shared: Some(&cell) }
                            .run(&mut source, &mut CandidateSet::from_bitmap(survivors), &mut None)
                            .unwrap();
                        assert_eq!(progress.swept, filter.dims, "{ctx}");
                        assert_eq!(filter.probes, source.probes, "{ctx}");
                        assert_eq!(source.probed, (filter.probes * k * dims) as u64, "{ctx}");
                        assert_eq!(filter.cells, source.swept + source.probed, "{ctx}");
                        assert_eq!(source.inner.cells, filter.cells, "{ctx}");
                        match pre {
                            // the first probe always runs; the last one
                            // unless the sweep ended at k rows before it
                            None => {
                                assert!(
                                    (1..=2).contains(&filter.probes),
                                    "{ctx}: {} probes",
                                    filter.probes
                                );
                                cold_twice += usize::from(filter.probes == 2);
                            }
                            Some(_) => {
                                assert!(filter.probes <= 1, "{ctx}: {} probes", filter.probes);
                                warm_once += usize::from(filter.probes == 1);
                                warm_none += usize::from(filter.probes == 0);
                            }
                        }
                    }
                }
            }
        }
        assert!(cold_twice > 0, "no cold segment reached its last block");
        assert!(warm_once > 0, "no warm segment probed after its last block");
        assert!(warm_none > 0, "no warm segment ended before its last block");
    }

    /// The step sink records the sweep's pruning curve and decides nothing:
    /// one checkpoint per step, candidates never rising, removals adding up,
    /// the last count the survivors' — and the same filter without it.
    #[test]
    fn the_step_sink_records_every_step_and_changes_no_decision() {
        let table = clustered(3000, false);
        let codes = codes_for(&table, 1);
        let view = codes.segment_view(0).unwrap();
        let mut live = table.live_bitmap();
        for dead in (0..table.rows()).step_by(7) {
            live.clear(dead as u32);
        }
        let dims = table.dims();
        let strided: Vec<usize> = (0..dims).map(|j| (j * 7) % dims).collect();
        let kernels: Vec<Kernel> = Kernel::ALL.into_iter().filter(|k| k.is_supported()).collect();
        let mut curves = 0;
        for metric in [&SquaredEuclidean as &dyn DecomposableMetric, &HistogramIntersection] {
            for order in [None, Some(&strided[..])] {
                for (k, &kernel) in [1, 10, 200].into_iter().zip(kernels.iter().cycle()) {
                    let query = table.row(13 + k as u32).unwrap();
                    let run = |steps: Option<&mut Vec<TraceCheckpoint>>| {
                        filter_segment_with_kernel(
                            &view, metric, &query, k, &live, None, kernel, order, steps,
                        )
                        .unwrap()
                    };
                    let plain = run(None);
                    let mut steps = Vec::new();
                    let traced = run(Some(&mut steps));
                    let ctx = format!("{} {order:?} k {k} {}", metric.name(), kernel.label());
                    assert_eq!(traced.survivors, plain.survivors, "{ctx}");
                    assert_eq!(traced.kappa.map(f64::to_bits), plain.kappa.map(f64::to_bits));
                    assert_eq!(
                        (traced.cells, traced.dims, traced.steps, traced.blocks_skipped),
                        (plain.cells, plain.dims, plain.steps, plain.blocks_skipped),
                        "{ctx}"
                    );
                    assert_eq!(steps.len(), traced.steps, "{ctx}");
                    let last = steps.last().unwrap();
                    assert_eq!(last.candidates, traced.survivors.count(), "{ctx}");
                    assert_eq!(last.dims_processed, traced.dims, "{ctx}");
                    assert_eq!(steps[0].dims_processed, PRUNE_BLOCK, "{ctx}");
                    for pair in steps.windows(2) {
                        assert!(pair[0].dims_processed < pair[1].dims_processed, "{ctx}");
                        assert!(pair[0].candidates >= pair[1].candidates, "{ctx}");
                        assert_eq!(pair[0].candidates - pair[1].candidates, pair[1].pruned_now);
                    }
                    let removed: usize = steps.iter().map(|step| step.pruned_now).sum();
                    assert_eq!(live.count() - removed, last.candidates, "{ctx}");
                    curves += usize::from(steps.len() > 1);
                }
            }
        }
        assert!(curves > 0, "no sweep took more than one step");
        let scrambled = vec![0; dims];
        let err = filter_segment_with_kernel(
            &view,
            &SquaredEuclidean,
            &table.row(0).unwrap(),
            5,
            &live,
            None,
            Kernel::Scalar,
            Some(&scrambled),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, BondError::InvalidParams(_)), "{err}");
    }

    #[test]
    fn at_most_k_eligible_rows_skip_the_sweep() {
        let (table, codes) = setup(1);
        let view = codes.segment_view(0).unwrap();
        let live = Bitmap::from_rows(table.rows(), &[2, 9, 20]);
        let query: Vec<f64> = table.row(9).unwrap();
        let filter = filter_segment(&view, &SquaredEuclidean, &query, 3, &live, None).unwrap();
        assert_eq!(filter.survivors, live);
        assert_eq!((filter.cells, filter.dims, filter.kappa), (0, 0, None));
    }

    #[test]
    fn filter_respects_the_live_bitmap() {
        let (table, codes) = setup(1);
        let query: Vec<f64> = table.row(0).unwrap();
        let mut live = table.live_bitmap();
        live.clear(0); // the query row itself is the best match — kill it
        let view = codes.segment_view(0).unwrap();
        let filter = filter_segment(&view, &HistogramIntersection, &query, 3, &live, None).unwrap();
        assert!(!filter.survivors.to_rows().contains(&0));
    }

    #[test]
    fn vacuous_bounds_keep_everything() {
        struct Opaque;
        impl DecomposableMetric for Opaque {
            fn objective(&self) -> Objective {
                Objective::Maximize
            }
            fn contribution(&self, _d: usize, v: f64, q: f64) -> f64 {
                v * q
            }
            fn name(&self) -> &'static str {
                "opaque"
            }
        }
        let (table, codes) = setup(1);
        let query: Vec<f64> = table.row(2).unwrap();
        let mut live = table.live_bitmap();
        live.clear(5);
        let view = codes.segment_view(0).unwrap();
        let filter = filter_segment(&view, &Opaque, &query, 2, &live, None).unwrap();
        assert!(filter.kappa.is_none(), "an infinite pessimistic bound proves nothing");
        assert_eq!(filter.survivors, live);
        // not even a κ a sibling proved can drop a row: +∞ reaches anything
        let cell = TestCell(Mutex::new(Some(1e9)), Objective::Maximize);
        let filter = filter_segment(&view, &Opaque, &query, 2, &live, Some(&cell)).unwrap();
        assert_eq!(filter.survivors, live);
        assert_eq!(cell.current(), Some(1e9), "nothing vacuous was published");
    }

    #[test]
    fn mismatched_inputs_are_rejected() {
        let (_table, codes) = setup(1);
        let view = codes.segment_view(0).unwrap();
        let mut scratch = QuantScratch::new();
        let hi = HistogramIntersection;
        assert!(interval_scores_into(&view, &hi, &[0.5; 2], Kernel::Scalar, &mut scratch).is_err());
        let live = Bitmap::full(view.len());
        assert!(filter_segment(&view, &hi, &[0.5; 2], 1, &live, None).is_err());
        assert!(filter_segment(&view, &hi, &[0.1; 4], 0, &live, None).is_err());
        let short = Bitmap::new(3);
        assert!(filter_segment(&view, &hi, &[0.1; 4], 1, &short, None).is_err());
    }
}
