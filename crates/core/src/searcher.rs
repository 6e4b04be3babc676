//! The BOND search engine (Algorithm 2).
//!
//! `BOND(X, k, m)`:
//!
//! 1. compute the partial scores `S⁻ = S(X⁻)` over the next block of
//!    dimensions,
//! 2. determine the per-candidate bounds `S_max` and `S_min`,
//! 3. determine κ from the "safe" bounds of the current candidates,
//! 4. remove every candidate whose optimistic bound cannot reach κ,
//! 5. repeat with a larger `m` until only `k` candidates remain or all
//!    dimensions have been processed.
//!
//! The loop itself — steps 3 to 5, the candidate set, the κ heap and κ
//! sharing — is the crate's one block loop, which the quantized first
//! pass ([`crate::quantfilter`]) runs too. This module supplies its
//! **exact-partials** bound source: step 1 accumulates the partial scores
//! densely, gathered over the candidates' rows, or per candidate for a
//! metric without a kernel shape, and step 2 bounds them with the
//! [`PruningRule`] (Hq, Hh, Eq, Ev and their weighted variants). While the
//! candidates are a bitmap, step 2 is the pruning pass's own: it tests the
//! rule's closed-form optimistic bound ([`PruningRule::optimistic_tail`])
//! a 64-row word at a time and asks the rule for the pessimistic bound of
//! the keepers only; a row list's bounds are stored per position first.
//! The synchronized multi-feature scan ([`crate::multifeature`]) drives
//! one such source per feature. Convenience methods instantiate the rule /
//! metric combinations the paper evaluates.
//!
//! **Where κ is proven.** An isolated search ([`BondSearcher`], or a
//! segment with no shared κ cell) runs step 3 as the paper does: every
//! step collects the `k` best pessimistic bounds of the candidates that
//! pass the κ it carried in, and prunes again when they prove a tighter
//! κ. A segment that shares κ with its siblings proves it by a probe, as
//! the code filter does: a segment that carries no finite κ into its
//! first step offers the κ heap every candidate's partial score after its
//! first block, completes the exact scores of the `k` best over the
//! unswept dimensions — each the very sum its rank reads — and prunes with
//! the weakest; every other step prunes with the κ it carried in, its own
//! or a sibling's, and proves nothing. A sibling's κ is usually as tight
//! as a heap step would prove, so the heap steps cost more than they
//! removed (about 40 % of a `serve_small` engine query). Every segment
//! that shares κ publishes its k-th exact score when it finishes
//! ([`search_segment`]), whichever finish ranked it.
//!
//! **§7.4: the code loop, then an ordered refine.** When the segment has
//! codes, [`search_segment`] runs the loop over code intervals first. Its
//! survivors leave it with an optimistic bound over *every* dimension, so
//! the exact finish is a VA-File-style refine rather than a second BOND
//! loop: survivors are scored exactly, best bound first, until the next
//! bound cannot reach the k-th exact score found — an exact step after the
//! code filter measured to avoid only 4–6 % of the refine cells for more
//! than it cost. Only a filter that proved no κ (vacuous code bounds)
//! hands its survivors to the exact loop. Either way the scores are the
//! same per-row sums in plan order, so the answer is bit-identical to a
//! codeless search.

use std::borrow::Cow;
use std::ops::{ControlFlow, Range};

use bond_metrics::{
    CandidateState, DecomposableMetric, KernelOp, Objective, OptimisticTail, PruningRule,
};
use bond_metrics::{EqRule, EvRule, HhRule, HistogramIntersection, HqRule, SquaredEuclidean};
use vdstore::topk::Scored;
use vdstore::{
    Bitmap, DecomposedTable, RowId, Segment, SegmentCodesView, TopKLargest, TopKSmallest,
};

use crate::bond_loop::{
    with_scratch, Blocks, BondLoop, BoundSource, Bounds, Proof, RuleState, Scratch, Slots,
};
use crate::candidates::{word_runs, CandidateSet};
use crate::error::{BondError, Result};
use crate::kappa::KappaCell;
use crate::kernels::{self, Kernel, SurviveTest};
use crate::ordering::DimensionOrdering;
use crate::plan::SegmentPlan;
use crate::quantfilter::{rank_survivors, QuantFilter};
use crate::schedule::BlockSchedule;
use crate::trace::{PruneTrace, TraceCheckpoint};

/// Relative tolerance applied to the pruning comparison. Bounds that are
/// analytically equal to κ can drift apart by a few ulps (e.g. a candidate
/// whose lower and upper bound coincide and which itself defines κ); pruning
/// strictly on `<`/`>` could then discard a true answer. The guard errs on
/// the side of keeping candidates, which never affects correctness.
pub(crate) const PRUNE_EPS: f64 = 1e-9;

/// Slack around κ below/above which a candidate (or, in the engine's
/// zone-map check, a whole segment) is *not* pruned.
pub fn prune_slack(kappa: f64) -> f64 {
    PRUNE_EPS * kappa.abs().max(1.0)
}

/// Minimum candidate density at which the dense vector kernels take the
/// bitmap path: they stream *every* row of the column (hole rows'
/// accumulators receive garbage that is provably never read), so below
/// this density the over-compute outweighs the lane parallelism and the
/// branchy per-candidate scalar loop wins. With the block held in
/// registers ([`kernels::accumulate_block`]) 0.10 measured the same on the
/// benchmark's `serve_small` (cycle-counter probe of the sweep stage) and
/// 0.05 slower.
const DENSE_KERNEL_MIN_DENSITY: f64 = 0.25;

/// Most columns one [`kernels::accumulate_block`] call sums: a wider block
/// is cut into calls of at most this many, which name their columns from a
/// stack array.
const DENSE_BLOCK_COLUMNS: usize = 32;

/// Row-block length of the gathered kernel path: partial sums are copied
/// into a contiguous stack buffer once per block, accumulated across the
/// whole dimension block, and copied back — amortizing the copies over
/// all dimensions while keeping the accumulator resident in L1.
const GATHER_BLOCK_ROWS: usize = 64;

/// Dense kernel accumulate over a whole dimension block: every row of each
/// column is streamed through [`kernels::accumulate_block`], which holds
/// each row's score — and, when the rule bounds with the scanned mass, its
/// mass — in registers across the block's columns (up to
/// [`DENSE_BLOCK_COLUMNS`] per call), so every cell is read once and
/// every sum stored once. With `init` the sums start at zero rather than
/// at what `partial` (and `mass`) hold: the first block a source sweeps
/// replaces zeroing them. Per candidate row the arithmetic is exactly the
/// scalar loop's, in the same dimension order.
#[allow(clippy::too_many_arguments)]
fn dense_accumulate_block(
    kernel: Kernel,
    op: KernelOp<'_>,
    segment: &Segment<'_>,
    dims_block: &[usize],
    query: &[f64],
    partial: &mut [f64],
    mut mass: Option<&mut [f64]>,
    init: bool,
) -> Result<()> {
    let mut columns: [&[f64]; DENSE_BLOCK_COLUMNS] = [&[]; DENSE_BLOCK_COLUMNS];
    let mut queries = [0.0; DENSE_BLOCK_COLUMNS];
    for (call, dims) in dims_block.chunks(DENSE_BLOCK_COLUMNS).enumerate() {
        for ((column, q), &d) in columns.iter_mut().zip(&mut queries).zip(dims) {
            *column = segment.col_slice(d)?;
            *q = query[d];
        }
        let (columns, queries) = (&columns[..dims.len()], &queries[..dims.len()]);
        let init = init && call == 0;
        let mass = mass.as_deref_mut();
        kernels::accumulate_block(kernel, op, dims, columns, queries, partial, mass, init);
    }
    Ok(())
}

/// Gathered kernel accumulate over a whole dimension block for an explicit
/// row list: 64-row blocks are copied into a contiguous accumulator (and
/// the scanned masses into a second one, when the rule needs them),
/// advanced through every dimension of the block ([`gather_rows`]), then
/// copied back.
#[allow(clippy::too_many_arguments)]
fn gather_accumulate_block(
    kernel: Kernel,
    op: KernelOp<'_>,
    segment: &Segment<'_>,
    dims_block: &[usize],
    query: &[f64],
    rows: &[RowId],
    partial: &mut [f64],
    mut mass: Option<&mut [f64]>,
) -> Result<()> {
    let mut acc = [0.0f64; GATHER_BLOCK_ROWS];
    let mut mass_acc = [0.0f64; GATHER_BLOCK_ROWS];
    for chunk in rows.chunks(GATHER_BLOCK_ROWS) {
        let m = chunk.len();
        for (i, &row) in chunk.iter().enumerate() {
            acc[i] = partial[row as usize];
        }
        if let Some(mass) = mass.as_deref_mut() {
            for (i, &row) in chunk.iter().enumerate() {
                mass_acc[i] = mass[row as usize];
            }
        }
        let chunk_mass = mass.is_some().then_some(&mut mass_acc[..m]);
        gather_rows(kernel, op, segment, dims_block, query, chunk, &mut acc[..m], chunk_mass)?;
        for (i, &row) in chunk.iter().enumerate() {
            partial[row as usize] = acc[i];
        }
        if let Some(mass) = mass.as_deref_mut() {
            for (i, &row) in chunk.iter().enumerate() {
                mass[row as usize] = mass_acc[i];
            }
        }
    }
    Ok(())
}

/// Advances the contiguous sums `acc` (and `mass`) of the rows `chunk`
/// through every dimension of `dims_block`, one gather per cell
/// ([`kernels::accumulate_gather_with_mass`] feeds both sums from it; per
/// row: same adds, same order as the scalar loop). The block's cells are
/// prefetched [`kernels::PREFETCH_DIMS`] dimensions ahead.
#[allow(clippy::too_many_arguments)]
fn gather_rows(
    kernel: Kernel,
    op: KernelOp<'_>,
    segment: &Segment<'_>,
    dims_block: &[usize],
    query: &[f64],
    chunk: &[RowId],
    acc: &mut [f64],
    mut mass: Option<&mut [f64]>,
) -> Result<()> {
    // each cell is a scattered read: keep the next dimensions' misses in
    // flight while this one is computed
    let ahead = |i: usize| -> Result<()> {
        if let Some(&d) = dims_block.get(i) {
            let values = segment.col_slice(d)?;
            for &row in chunk {
                kernels::prefetch(values, row as usize);
            }
        }
        Ok(())
    };
    (0..kernels::PREFETCH_DIMS).try_for_each(ahead)?;
    for (i, &d) in dims_block.iter().enumerate() {
        ahead(i + kernels::PREFETCH_DIMS)?;
        let (values, q) = (segment.col_slice(d)?, query[d]);
        match mass.as_deref_mut() {
            Some(mass) => {
                kernels::accumulate_gather_with_mass(kernel, op, d, values, chunk, q, acc, mass)
            }
            None => kernels::accumulate_gather(kernel, op, d, values, chunk, q, acc),
        }
    }
    Ok(())
}

/// The per-row working memory of one table's [`ExactPartials`]: the partial
/// scores, the scanned masses, the bounds of the last pruning step that
/// stored them and the rows of a sparse bitmap a block gathers. A
/// single-table search keeps it in the per-thread scratch, so it allocates
/// nothing that grows with its segment.
#[derive(Default)]
pub(crate) struct RowState {
    partial: Vec<f64>,
    mass: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    rows: Vec<RowId>,
}

/// Zeroes what the search will read of a segment's per-row `values`: every
/// row while the candidates are a bitmap (the dense kernels stream whole
/// columns), only the listed rows once they are a list. A source runs it
/// before it first adds to or bounds from its sums, unless that is a dense
/// sweep: the dense kernel then starts the sums at zero itself
/// ([`kernels::accumulate_block`]'s `init`), with no memset.
fn zero_for(values: &mut [f64], candidates: &CandidateSet) {
    match candidates.as_list() {
        None => values.fill(0.0),
        Some(list) => {
            for &row in list {
                values[row as usize] = 0.0;
            }
        }
    }
}

/// Tuning knobs of a BOND search.
#[derive(Debug, Clone, PartialEq)]
pub struct BondParams {
    /// How many dimensions to scan between pruning attempts (Section 5.2).
    pub schedule: BlockSchedule,
    /// In which order to process the dimensional fragments (Section 5.1).
    pub ordering: DimensionOrdering,
    /// Candidate-set density at or below which the bitmap representation is
    /// materialised into an explicit row list (Section 6.1).
    pub materialize_threshold: f64,
    /// Whether the surviving candidates' exact scores are completed over the
    /// unscanned dimensions before ranking. Disabling this reproduces the
    /// paper's observation that once `|C| = k` the remaining fragments "need
    /// not be accessed at all" — the hits are then ranked by their partial
    /// scores.
    pub refine_survivors: bool,
}

impl Default for BondParams {
    fn default() -> Self {
        BondParams {
            schedule: BlockSchedule::default(),
            ordering: DimensionOrdering::default(),
            materialize_threshold: 0.05,
            refine_survivors: true,
        }
    }
}

/// The result of a BOND search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// The k best rows, best first. Scores are exact when
    /// [`BondParams::refine_survivors`] is `true` (the default).
    pub hits: Vec<Scored>,
    /// The per-block pruning trace and work counters.
    pub trace: PruneTrace,
}

/// A BOND searcher bound to one decomposed table.
#[derive(Debug)]
pub struct BondSearcher<'a> {
    table: &'a DecomposedTable,
    row_sums: std::sync::OnceLock<Vec<f64>>,
}

impl<'a> BondSearcher<'a> {
    /// Creates a searcher over the given table.
    pub fn new(table: &'a DecomposedTable) -> Self {
        BondSearcher { table, row_sums: std::sync::OnceLock::new() }
    }

    /// The table this searcher reads.
    pub fn table(&self) -> &DecomposedTable {
        self.table
    }

    /// The materialised per-row total masses `T(x)` (computed on first use;
    /// the "extra table" of Section 4.3).
    pub fn row_sums(&self) -> &[f64] {
        self.row_sums.get_or_init(|| self.table.row_sums())
    }

    fn validate(&self, query: &[f64], k: usize) -> Result<()> {
        if query.len() != self.table.dims() {
            return Err(BondError::QueryDimensionMismatch {
                expected: self.table.dims(),
                actual: query.len(),
            });
        }
        let live = self.table.live_rows();
        if k == 0 || k > live {
            return Err(BondError::InvalidK { k, rows: live });
        }
        Ok(())
    }

    /// k-NN under histogram intersection with the query-only criterion Hq.
    pub fn histogram_intersection_hq(
        &self,
        query: &[f64],
        k: usize,
        params: &BondParams,
    ) -> Result<SearchOutcome> {
        let mut rule = HqRule::new();
        self.search_with_rule(query, &HistogramIntersection, &mut rule, k, None, params)
    }

    /// k-NN under histogram intersection with the per-vector criterion Hh.
    pub fn histogram_intersection_hh(
        &self,
        query: &[f64],
        k: usize,
        params: &BondParams,
    ) -> Result<SearchOutcome> {
        let mut rule = HhRule::new();
        self.search_with_rule(query, &HistogramIntersection, &mut rule, k, None, params)
    }

    /// k-NN under squared Euclidean distance with the query-only criterion Eq.
    pub fn euclidean_eq(
        &self,
        query: &[f64],
        k: usize,
        params: &BondParams,
    ) -> Result<SearchOutcome> {
        let mut rule = EqRule::new();
        self.search_with_rule(query, &SquaredEuclidean, &mut rule, k, None, params)
    }

    /// k-NN under squared Euclidean distance with the per-vector criterion Ev.
    pub fn euclidean_ev(
        &self,
        query: &[f64],
        k: usize,
        params: &BondParams,
    ) -> Result<SearchOutcome> {
        let mut rule = EvRule::new();
        self.search_with_rule(query, &SquaredEuclidean, &mut rule, k, None, params)
    }

    /// The generic branch-and-bound loop, usable with any metric / rule pair
    /// whose objectives agree. `weights` only influences the dimension
    /// ordering (pass the metric's weights for weighted search).
    pub fn search_with_rule(
        &self,
        query: &[f64],
        metric: &dyn DecomposableMetric,
        rule: &mut dyn PruningRule,
        k: usize,
        weights: Option<&[f64]>,
        params: &BondParams,
    ) -> Result<SearchOutcome> {
        self.validate(query, k)?;
        let segment = self.table.segment(0..self.table.rows())?;
        let requirements = rule.requirements();
        let ctx = SegmentContext {
            kappa: None,
            row_sums: requirements.needs_total_mass.then(|| self.row_sums()),
            plan: None,
            codes: None,
            filter: None,
        };
        search_segment(&segment, query, metric, rule, k, weights, params, &ctx)
    }
}

/// Shared context for a (possibly partitioned) BOND search.
///
/// [`BondSearcher::search_with_rule`] fills this in for the classic
/// single-threaded full-table search; the `bond-exec` engine fills it in
/// once per query and hands it to every segment worker, which is what
/// amortizes the per-query setup (dimension ordering, `T(x)` materialisation)
/// across partitions and lets segments pool their pruning bounds.
#[derive(Default)]
pub struct SegmentContext<'k> {
    /// Shared κ cell; `None` runs the segment in isolation (the classic
    /// sequential behaviour).
    pub kappa: Option<&'k dyn KappaCell>,
    /// Precomputed per-row total masses `T(x)` for the segment's rows, in
    /// segment-local order. Only consulted when the rule needs total mass;
    /// computed on the fly when absent.
    pub row_sums: Option<&'k [f64]>,
    /// The per-segment search plan (dimension order + block schedule).
    /// Derived from `params` when absent — the classic uniform behaviour.
    pub plan: Option<&'k SegmentPlan>,
    /// This segment's window of the store's quantized code companions.
    /// When present, a branch-free first pass sweeps the codes, proves κ
    /// from the pessimistic bounds of its `k` most promising rows and
    /// discards every row whose optimistic bound cannot reach it — only the
    /// survivors are read exactly, best bound first. The answer stays
    /// bit-identical to a codeless search.
    pub codes: Option<SegmentCodesView<'k>>,
    /// Segment-local eligibility bitmap carrying a relational predicate
    /// ("photographs taken in 1992", Section 6.1) into the search. Bit `i`
    /// refers to the segment's `i`-th row; it is intersected with the
    /// segment's live bitmap, so tombstoned rows stay excluded either way.
    /// The quantized first pass, the exact scan and the κ proven here all
    /// range over eligible rows only. `None` searches every live row.
    pub filter: Option<&'k Bitmap>,
}

/// Runs one branch-and-bound BOND search restricted to a row segment.
///
/// This is [`BondSearcher::search_with_rule`] generalised along two axes:
/// the scan covers only `segment`'s rows, and an externally supplied
/// [`KappaCell`] may tighten κ with bounds proven by other segments of the
/// same query. With a cell the segment proves κ by a probe rather than the
/// heap (see the module docs), and publishes to it what the probe proves
/// and, when it finds `k` hits with exact scores, the k-th. Returned
/// [`Scored::row`] ids are *global* table row ids, and with
/// [`BondParams::refine_survivors`] enabled the scores are exact — so
/// per-segment outcomes merge into the global top-k by score alone.
///
/// Unlike the full-table entry point, `k` may exceed the segment's row
/// count: the segment then simply reports everything it holds (the caller
/// is responsible for the global k).
#[allow(clippy::too_many_arguments)]
pub fn search_segment(
    segment: &Segment<'_>,
    query: &[f64],
    metric: &dyn DecomposableMetric,
    rule: &mut dyn PruningRule,
    k: usize,
    weights: Option<&[f64]>,
    params: &BondParams,
    ctx: &SegmentContext<'_>,
) -> Result<SearchOutcome> {
    with_scratch(|scratch| {
        let kernel = Kernel::active();
        search_segment_with(segment, query, metric, rule, k, weights, params, ctx, kernel, scratch)
    })
}

/// [`search_segment`] with the kernel flavour and the scratch passed in.
///
/// This is where a segment that shares κ publishes its answer's: when it
/// found `k` hits whose scores are exact (every dimension read), the k-th
/// — `k` rows score that well — goes to the shared cell, whichever finish
/// ranked them (the exact loop's or [`OrderedRefine`]'s), so segments that
/// start later prune harder from their first block.
#[allow(clippy::too_many_arguments)]
pub(crate) fn search_segment_with(
    segment: &Segment<'_>,
    query: &[f64],
    metric: &dyn DecomposableMetric,
    rule: &mut dyn PruningRule,
    k: usize,
    weights: Option<&[f64]>,
    params: &BondParams,
    ctx: &SegmentContext<'_>,
    kernel: Kernel,
    scratch: &mut Scratch,
) -> Result<SearchOutcome> {
    let dims = segment.table().dims();
    check_segment_search(segment, query, metric, &*rule, k, ctx)?;
    let derived_plan;
    let plan: &SegmentPlan = match ctx.plan {
        Some(plan) => plan,
        None => {
            derived_plan = SegmentPlan::uniform(params, query, weights, dims);
            &derived_plan
        }
    };
    if !plan.is_valid(dims) {
        return Err(BondError::InvalidParams(
            "dimension ordering is not a permutation of the table's dimensions".into(),
        ));
    }
    let search = SegmentSearch { segment, query, metric, k, params, ctx, plan, kernel };
    let outcome = search.run(rule, scratch)?;
    let exact = outcome.trace.dims_accessed == dims;
    let kth = outcome.hits.get(k - 1).map(|hit| hit.score).filter(|kth| exact && kth.is_finite());
    if let (Some(cell), Some(kth)) = (ctx.kappa, kth) {
        cell.tighten(kth);
    }
    Ok(outcome)
}

/// The checks [`search_segment_with`] makes before it reads a row.
fn check_segment_search(
    segment: &Segment<'_>,
    query: &[f64],
    metric: &dyn DecomposableMetric,
    rule: &dyn PruningRule,
    k: usize,
    ctx: &SegmentContext<'_>,
) -> Result<()> {
    let (rows, dims) = (segment.len(), segment.table().dims());
    if query.len() != dims {
        return Err(BondError::QueryDimensionMismatch { expected: dims, actual: query.len() });
    }
    if k == 0 {
        return Err(BondError::InvalidK { k, rows: segment.live_rows() });
    }
    if metric.objective() != rule.objective() {
        return Err(BondError::InvalidParams(format!(
            "metric {} maximizes/minimizes differently than rule {}",
            metric.name(),
            rule.name()
        )));
    }
    if let Some(sums) = ctx.row_sums.filter(|sums| sums.len() != rows) {
        return Err(BondError::InvalidParams(format!(
            "precomputed row sums cover {} rows but the segment has {rows}",
            sums.len()
        )));
    }
    if let Some(filter) = ctx.filter.filter(|filter| filter.len() != rows) {
        return Err(BondError::InvalidFilter(format!(
            "segment filter covers {} rows but the segment has {rows}",
            filter.len()
        )));
    }
    match &ctx.codes {
        Some(codes) if codes.len() != rows || codes.dims() != dims => {
            Err(BondError::InvalidParams(format!(
                "segment codes cover {} rows x {} dims, segment has {rows} x {dims}",
                codes.len(),
                codes.dims()
            )))
        }
        _ => Ok(()),
    }
}

/// One segment's search, its inputs checked and its plan settled.
struct SegmentSearch<'a> {
    segment: &'a Segment<'a>,
    query: &'a [f64],
    metric: &'a dyn DecomposableMetric,
    k: usize,
    params: &'a BondParams,
    ctx: &'a SegmentContext<'a>,
    plan: &'a SegmentPlan,
    kernel: Kernel,
}

impl SegmentSearch<'_> {
    /// Searches the eligible rows (live, and passing the filter): the code
    /// filter first where the segment has codes, the exact loop where that
    /// did not answer. All bookkeeping is in segment-local row ids; only
    /// the ranking translates back to global ids.
    fn run(&self, rule: &mut dyn PruningRule, scratch: &mut Scratch) -> Result<SearchOutcome> {
        let mut eligible = std::mem::take(&mut scratch.eligible);
        self.segment.live_bitmap_into(&mut eligible);
        if let Some(filter) = self.ctx.filter {
            eligible.and_with(filter);
        }
        let mut trace = PruneTrace { kernel: Some(self.kernel.label()), ..PruneTrace::default() };
        let candidates = match &self.ctx.codes {
            Some(codes) => match self.filter_codes(codes, eligible, &mut trace, scratch)? {
                ControlFlow::Break(hits) => return Ok(SearchOutcome { hits, trace }),
                ControlFlow::Continue(candidates) => candidates,
            },
            None => CandidateSet::from_bitmap(eligible),
        };
        self.exact_loop(rule, candidates, trace, scratch)
    }

    /// The quantized first pass (Section 7.4 composed with the engine): the
    /// same loop over code intervals, in the plan's dimension order, leaves
    /// only the rows whose optimistic bound can still reach κ. The κ proven
    /// there is also published to the shared cell, so sibling segments
    /// prune with it. With a κ the survivors are refined in bound order,
    /// and the hits break out; without one (vacuous code bounds) they go on
    /// to the exact loop.
    fn filter_codes(
        &self,
        codes: &SegmentCodesView<'_>,
        eligible: Bitmap,
        trace: &mut PruneTrace,
        scratch: &mut Scratch,
    ) -> Result<ControlFlow<Vec<Scored>, CandidateSet>> {
        let &SegmentSearch { segment, query, metric, k, params, ctx, plan, kernel } = self;
        let order = &plan.order[..];
        let filter = crate::quantfilter::filter_segment_in_order(
            codes,
            metric,
            query,
            k,
            &eligible,
            ctx.kappa,
            kernel,
            Some(order),
            None,
            scratch,
        )?;
        scratch.eligible = eligible;
        trace.filter_cells = filter.cells;
        trace.filter_dims = filter.dims;
        trace.filter_steps = u32::try_from(filter.steps).unwrap_or(u32::MAX);
        trace.filter_probes = u32::try_from(filter.probes).unwrap_or(u32::MAX);
        trace.filter_blocks_skipped = filter.blocks_skipped;
        trace.filter_bits = codes.bits();
        trace.refine_rows = filter.survivors.count() as u64;
        if trace.refine_rows == 0 {
            // the usual outcome once the query's own neighbourhood has set
            // κ: nothing to refine, so no per-row state is built
            return Ok(ControlFlow::Break(Vec::new()));
        }
        if params.refine_survivors && filter.kappa.is_some() {
            let refine = OrderedRefine { segment, query, metric, order, kernel, k };
            return refine.run(&filter, scratch, trace).map(ControlFlow::Break);
        }
        let mut candidates = CandidateSet::from_bitmap(filter.survivors);
        trace.switched_to_list = candidates.maybe_materialize(params.materialize_threshold);
        Ok(ControlFlow::Continue(candidates))
    }

    /// The exact loop over `candidates`, then the survivors' scores
    /// completed over the unswept dimensions (cheap: only |C| vectors are
    /// touched) and ranked. A search that shares κ proves it by the probe
    /// ([`Proof::Probe`]), an isolated one by the heap at every step.
    fn exact_loop(
        &self,
        rule: &mut dyn PruningRule,
        mut candidates: CandidateSet,
        trace: PruneTrace,
        scratch: &mut Scratch,
    ) -> Result<SearchOutcome> {
        let &SegmentSearch { segment, query, metric, k, params, ctx, plan, kernel } = self;
        let mut source = ExactPartials::new(
            segment,
            query,
            metric,
            rule,
            &plan.order,
            kernel,
            &mut scratch.exact,
            ctx.row_sums,
            params.materialize_threshold,
        );
        source.trace = trace;
        if ctx.kappa.is_some() {
            source.proof = Proof::Probe { after_last: false };
        }
        // Stage tracing: the time from scan start to the first pruning
        // attempt that actually removed candidates is the segment's
        // *observed* warmup, recorded as a `segment.warmup` span (detail:
        // dimensions processed) while the global subscriber is on. Off (the
        // default), beginning the span is one relaxed atomic load and no
        // clock is read.
        source.warmup = Some(bond_obs::Span::begin(bond_obs::names::SPAN_SEGMENT_WARMUP));
        let run = BondLoop { k, kernel, blocks: Blocks::Planned(plan.schedule), shared: ctx.kappa };
        let processed = run.run(&mut source, &mut candidates, &mut scratch.best)?.swept;
        // No pruning attempt removed anything: there was no effective
        // warmup boundary to measure, so the span is discarded rather than
        // recorded.
        if let Some(span) = source.warmup.take() {
            span.cancel();
        }
        let survivors = CandidateSet::List(candidates.to_rows());
        if let CandidateSet::Bits(bits) = candidates {
            // hand the words back for the next search on this thread
            scratch.eligible = bits;
        }
        let dims = plan.order.len();
        source.trace.dims_accessed = processed;
        source.start_sums(&survivors);
        if params.refine_survivors && processed < dims {
            source.scanned_mass = None;
            source.sweep(&survivors, processed..dims)?;
            source.trace.dims_accessed = dims;
        }
        let rows = survivors.as_list().unwrap_or_default().iter().copied();
        let hits = rank(segment, rows, source.partial, metric.objective(), k);
        Ok(SearchOutcome { hits, trace: source.trace })
    }
}

/// Rows [`OrderedRefine`] scores between two looks at κ once the first
/// `k` are scored.
const REFINE_CHUNK: usize = 8;

/// The exact finish after a code filter that proved or carried a κ (see
/// the module docs).
struct OrderedRefine<'a> {
    segment: &'a Segment<'a>,
    query: &'a [f64],
    metric: &'a dyn DecomposableMetric,
    /// The plan's dimension order.
    order: &'a [usize],
    kernel: Kernel,
    k: usize,
}

impl OrderedRefine<'_> {
    /// Scores the survivors exactly over every dimension in plan order,
    /// best optimistic code bound first ([`crate::quantfilter::rank_survivors`]):
    /// the first `k` at once, then up to [`REFINE_CHUNK`] at a time, and
    /// stops at the first survivor whose bound fails the pruning pass's own
    /// test at the k-th exact score so far. Every survivor after it is
    /// ranked no better, so fails too: its exact score, at most its bound,
    /// lies below k scored rows, and the k best of the scored rows are the
    /// k best of all survivors. Each score is the same per-row sum, in the
    /// same order, as the exact loop's, so the hits are bit-identical to
    /// refining every survivor. ([`search_segment_with`] publishes their
    /// k-th.)
    fn run(
        &self,
        filter: &QuantFilter,
        scratch: &mut Scratch,
        trace: &mut PruneTrace,
    ) -> Result<Vec<Scored>> {
        let &OrderedRefine { segment, metric, k, .. } = self;
        let sign = match metric.objective() {
            Objective::Maximize => 1.0,
            Objective::Minimize => -1.0,
        };
        let Scratch { codes: code_scratch, exact, best, .. } = scratch;
        let mut ranked = rank_survivors(filter, sign, code_scratch);
        let partial = &mut exact.partial;
        partial.resize(segment.len(), 0.0);
        let best = best.get_or_insert_with(|| TopKLargest::new(k));
        best.reset(k);
        let mut scored = 0;
        while scored < ranked.len() {
            let end = match best.kth() {
                None => k.min(ranked.len()),
                Some(kappa) => {
                    let reaches = SurviveTest { sign, add: 0.0, bar: kappa - prune_slack(kappa) };
                    let next = &ranked.prefix(scored + REFINE_CHUNK)[scored..];
                    scored + next.iter().take_while(|&&(_, bound)| reaches.survives(bound)).count()
                }
            };
            if end == scored {
                break;
            }
            let next = &ranked.prefix(end)[scored..];
            self.score(next, partial)?;
            for &(row, _) in next {
                best.push(row, sign * partial[row as usize]);
            }
            scored = end;
        }
        trace.contributions_evaluated += (scored * self.order.len()) as u64;
        trace.dims_accessed = self.order.len();
        let rows = ranked.prefix(scored).iter().map(|&(row, _)| row);
        Ok(rank(segment, rows, partial, metric.objective(), k))
    }

    /// Scores `rows` exactly over every dimension into `partial`: gathered
    /// kernel accumulates from zero when the metric has a kernel shape, the
    /// per-candidate loop otherwise — per row the exact loop's sum.
    fn score(&self, rows: &[(RowId, f64)], partial: &mut [f64]) -> Result<()> {
        let &OrderedRefine { segment, query, metric, order, kernel, .. } = self;
        let mut ids = [0 as RowId; GATHER_BLOCK_ROWS];
        for chunk in rows.chunks(GATHER_BLOCK_ROWS) {
            let ids = &mut ids[..chunk.len()];
            for (id, &(row, _)) in ids.iter_mut().zip(chunk) {
                *id = row;
                partial[row as usize] = 0.0;
            }
            match metric.kernel_op() {
                Some(op) => {
                    gather_accumulate_block(kernel, op, segment, order, query, ids, partial, None)?
                }
                None => {
                    for &d in order {
                        let values = segment.col_slice(d)?;
                        for &row in ids.iter() {
                            let v = values[row as usize];
                            partial[row as usize] += metric.contribution(d, v, query[d]);
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// The exact-partials [`BoundSource`]: per block, the dense, gathered or
/// per-candidate accumulate of the partial scores (and scanned masses);
/// per step, the rule's bounds from them — computed by the pruning pass as
/// it reads them while the candidates are a bitmap ([`Slots::Rule`]),
/// stored per position once they are a list. A single-table search runs one
/// over its plan's order; a multi-feature search ([`crate::multifeature`])
/// drives one per feature, over that feature's share of every block. It
/// proves κ by the heap, unless a single-table search shares κ with its
/// sibling segments: then by the probe ([`ExactPartials::proof`]).
pub(crate) struct ExactPartials<'a> {
    segment: &'a Segment<'a>,
    query: &'a [f64],
    metric: &'a dyn DecomposableMetric,
    rule: &'a mut dyn PruningRule,
    order: &'a [usize],
    op: Option<KernelOp<'a>>,
    kernel: Kernel,
    pub(crate) partial: &'a mut [f64],
    /// Dropped (`None`) once no step will prune again.
    pub(crate) scanned_mass: Option<&'a mut [f64]>,
    total_mass: Option<Cow<'a, [f64]>>,
    /// The rule's optimistic bound at the last bitmap step, which bounds
    /// rows where the pruning pass reads them; `None` once a step stored
    /// both bounds in `lower` and `upper`.
    tail: Option<OptimisticTail>,
    lower: &'a mut Vec<f64>,
    upper: &'a mut Vec<f64>,
    /// The candidates of a sparse bitmap, for the gathered accumulate.
    rows: &'a mut Vec<RowId>,
    materialize_threshold: f64,
    /// Whether `partial` and the scanned masses still hold whatever the
    /// state held before (another search's rows): the first non-empty
    /// dense block starts the sums at zero itself, and any other first
    /// sweep or bound zeroes them first ([`zero_for`]). Per source, not
    /// per block position: a multi-feature search's feature can get no
    /// dimension of the first global block.
    unset: bool,
    pub(crate) trace: PruneTrace,
    warmup: Option<bond_obs::Span>,
    /// Where κ is proven: [`Proof::Heap`] (the paper's Algorithm 2, and
    /// what [`ExactPartials::new`] sets) or, for a search that shares κ,
    /// `Proof::Probe` — a cold segment's first step offers the heap every
    /// candidate's partial score and the probe completes the `k` best.
    pub(crate) proof: Proof,
}

impl<'a> ExactPartials<'a> {
    /// The source over `segment`'s rows in `state`, sized for the segment
    /// (zeroed by its first sweep or bound). `T(x)` is `row_sums` when
    /// given, the segment's own row sums otherwise — and only when the
    /// rule's requirements ask.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        segment: &'a Segment<'a>,
        query: &'a [f64],
        metric: &'a dyn DecomposableMetric,
        rule: &'a mut dyn PruningRule,
        order: &'a [usize],
        kernel: Kernel,
        state: &'a mut RowState,
        row_sums: Option<&'a [f64]>,
        materialize_threshold: f64,
    ) -> Self {
        let requirements = rule.requirements();
        let total_mass = requirements.needs_total_mass.then(|| match row_sums {
            Some(sums) => Cow::Borrowed(sums),
            None => Cow::Owned(segment.row_sums()),
        });
        let RowState { partial, mass, lower, upper, rows } = state;
        partial.resize(segment.len(), 0.0);
        let scanned_mass = requirements.needs_scanned_mass.then(|| {
            mass.resize(segment.len(), 0.0);
            &mut mass[..]
        });
        ExactPartials {
            segment,
            query,
            metric,
            rule,
            order,
            op: metric.kernel_op(),
            kernel,
            partial,
            scanned_mass,
            total_mass,
            tail: None,
            lower,
            upper,
            rows,
            materialize_threshold,
            unset: true,
            trace: PruneTrace::default(),
            warmup: None,
            proof: Proof::Heap,
        }
    }

    /// Zeroes the sums for `candidates` if nothing has started them yet.
    fn start_sums(&mut self, candidates: &CandidateSet) {
        if std::mem::take(&mut self.unset) {
            zero_for(self.partial, candidates);
            if let Some(mass) = self.scanned_mass.as_deref_mut() {
                zero_for(mass, candidates);
            }
        }
    }

    /// Both of the rule's bounds stored at the candidates' slots: while
    /// the set is a bitmap, one [`PruningRule::bounds_all`] call per run of
    /// words that hold a candidate — hole rows inside those words get
    /// garbage that is never read, as in [`dense_accumulate_block`], and
    /// rows of empty words keep whatever they held — and per candidate, by
    /// list position, once it is a list. A single-table search stores them
    /// only in the list phase ([`BoundSource::bound`]), where under
    /// [`Proof::Probe`] the partial score takes the pessimistic bound's
    /// place, as what the κ heap collects; a multi-feature search, whose
    /// aggregate reads both bounds of every feature at every slot, in every
    /// step.
    pub(crate) fn bound_slots(&mut self, candidates: &CandidateSet, swept: usize) {
        self.start_sums(candidates);
        self.rule.prepare(self.query, &self.order[swept..]);
        self.tail = None;
        let scanned_mass = self.scanned_mass.as_deref();
        let total_mass = self.total_mass.as_deref();
        match candidates {
            CandidateSet::Bits(bits) => {
                let rows = self.partial.len();
                self.lower.resize(rows, 0.0);
                self.upper.resize(rows, 0.0);
                for run in word_runs(bits.words(), rows) {
                    let (lower, upper) =
                        (&mut self.lower[run.clone()], &mut self.upper[run.clone()]);
                    let scanned_mass = scanned_mass.map(|mass| &mass[run.clone()]);
                    let total_mass = total_mass.map(|mass| &mass[run.clone()]);
                    self.rule.bounds_all(
                        &self.partial[run],
                        scanned_mass,
                        total_mass,
                        lower,
                        upper,
                    );
                }
            }
            CandidateSet::List(list) => {
                self.lower.clear();
                self.upper.clear();
                let (probe, maximize) =
                    (self.proof != Proof::Heap, self.rule.objective() == Objective::Maximize);
                for &row in list {
                    let idx = row as usize;
                    let partial = self.partial[idx];
                    let (mut lo, mut hi) = self.rule.bounds(&CandidateState {
                        partial,
                        scanned_mass: scanned_mass.map_or(0.0, |m| m[idx]),
                        total_mass: total_mass.map_or(0.0, |t| t[idx]),
                    });
                    match (probe, maximize) {
                        (true, true) => lo = partial,
                        (true, false) => hi = partial,
                        (false, _) => {}
                    }
                    self.lower.push(lo);
                    self.upper.push(hi);
                }
            }
        }
    }
}

impl BoundSource for ExactPartials<'_> {
    /// Never after the last block: the segment's rank then reads every
    /// survivor's exact score, and its k-th is published
    /// ([`search_segment_with`]).
    fn proof(&self) -> Proof {
        self.proof
    }

    fn dims(&self) -> usize {
        self.order.len()
    }

    /// Accumulates the partial scores over the block — via the ISA-pinned
    /// kernels when the metric has a vectorizable shape. The dense path
    /// streams whole columns (over-computing hole rows whose accumulators
    /// are never read again) and is only worth it while the candidate
    /// bitmap is dense; a sparser bitmap's rows are collected into a list
    /// and, like the materialised list, take the gathered path; a metric
    /// without a kernel shape keeps the per-candidate loop. The source's
    /// first non-empty dense block starts the sums at zero; any other path
    /// zeroes them before its first sweep.
    fn sweep(&mut self, candidates: &CandidateSet, block: Range<usize>) -> Result<()> {
        let alive = candidates.len();
        let rows = self.partial.len();
        let dense = self.op.is_some()
            && candidates.is_bitmap()
            && rows > 0
            && alive as f64 / rows as f64 >= DENSE_KERNEL_MIN_DENSITY;
        let init = dense && !block.is_empty() && std::mem::take(&mut self.unset);
        if !dense {
            self.start_sums(candidates);
        }
        let Self {
            segment,
            query,
            metric,
            order,
            op,
            kernel,
            partial,
            scanned_mass,
            rows: sparse,
            trace,
            ..
        } = self;
        let (segment, query, metric, kernel) = (*segment, *query, *metric, *kernel);
        let dims_block = &order[block.clone()];
        let mut mass = scanned_mass.as_deref_mut();
        match (*op, candidates) {
            (Some(op), CandidateSet::List(list)) => gather_accumulate_block(
                kernel, op, segment, dims_block, query, list, partial, mass,
            )?,
            (Some(op), CandidateSet::Bits(_)) if dense => {
                dense_accumulate_block(kernel, op, segment, dims_block, query, partial, mass, init)?
            }
            (Some(op), CandidateSet::Bits(bits)) => {
                sparse.clear();
                sparse.extend(bits.iter());
                gather_accumulate_block(
                    kernel, op, segment, dims_block, query, sparse, partial, mass,
                )?
            }
            (None, _) => {
                for &d in dims_block {
                    let values = segment.col_slice(d)?;
                    let q = query[d];
                    match mass.as_deref_mut() {
                        Some(mass) => candidates.for_each(|row| {
                            let v = values[row as usize];
                            partial[row as usize] += metric.contribution(d, v, q);
                            mass[row as usize] += v;
                        }),
                        None => candidates.for_each(|row| {
                            let v = values[row as usize];
                            partial[row as usize] += metric.contribution(d, v, q);
                        }),
                    }
                }
            }
        }
        trace.contributions_evaluated += (block.len() * alive) as u64;
        Ok(())
    }

    /// Prepares the rule for the dimensions after `swept`. While the set
    /// is a bitmap that is all: the pruning pass bounds rows from their
    /// partial scores and masses where it reads them
    /// ([`PruningRule::optimistic_tail`] a word at a time, the pessimistic
    /// bound only for keepers). A list's bounds are stored per position
    /// ([`ExactPartials::bound_slots`]).
    fn bound(&mut self, candidates: &CandidateSet, swept: usize) {
        if candidates.is_bitmap() {
            self.start_sums(candidates);
            self.rule.prepare(self.query, &self.order[swept..]);
            self.tail = Some(self.rule.optimistic_tail());
        } else {
            self.bound_slots(candidates, swept);
        }
    }

    /// κ_min is the k-th largest lower bound, κ_max the k-th smallest upper
    /// bound: the k-th largest sign-folded safe bound either way. A row is
    /// pruned when `S_max < κ_min − slack` (maximizing) or `S_min > κ_max +
    /// slack` (minimizing) — one comparison once the sign is folded in.
    fn bounds(&self, _swept: usize) -> Bounds<'_> {
        let (opt, pes, sign) = match self.rule.objective() {
            Objective::Maximize => (&self.upper[..], &self.lower[..], 1.0),
            Objective::Minimize => (&self.lower[..], &self.upper[..], -1.0),
        };
        let Some(tail) = self.tail else { return Bounds::stored(opt, pes, sign, 0.0) };
        let state = RuleState {
            rule: &*self.rule,
            tail,
            partial: self.partial,
            scanned_mass: self.scanned_mass.as_deref(),
            total_mass: self.total_mass.as_deref(),
            proof: self.proof,
        };
        Bounds { slots: Slots::Rule(state), sign, opt_add: 0.0 }
    }

    /// Completes the exact scores of the `k` rows in `best` — the best
    /// partial scores of a cold step — over the dimensions after `swept`:
    /// each row's partial score is copied into a scratch accumulator (never
    /// back into the partial scores, which later steps bound) and summed on
    /// in plan order, gathered and prefetched as the row-list sweep is, or
    /// per candidate for a metric without a kernel shape. Each is so the
    /// very sum the segment's rank reads for that row, and the weakest is
    /// a κ for the whole query: `k` rows score that well. A NaN score
    /// proves nothing. The probe's cells count as evaluated.
    fn probe(&mut self, best: &TopKLargest, swept: usize) -> Result<Option<f64>> {
        let Self { segment, query, metric, order, op, kernel, .. } = *self;
        let rest = &order[swept..];
        let sign = match metric.objective() {
            Objective::Maximize => 1.0,
            Objective::Minimize => -1.0,
        };
        let (mut ids, mut acc) = ([0 as RowId; GATHER_BLOCK_ROWS], [0.0f64; GATHER_BLOCK_ROWS]);
        let (mut weakest, mut nan) = (f64::INFINITY, false);
        let mut rows = best.iter().map(|entry| entry.row);
        loop {
            let m = ids.iter_mut().zip(rows.by_ref()).map(|(id, row)| *id = row).count();
            if m == 0 {
                break;
            }
            let (ids, acc) = (&ids[..m], &mut acc[..m]);
            for (sum, &row) in acc.iter_mut().zip(ids) {
                *sum = self.partial[row as usize];
            }
            match op {
                Some(op) => gather_rows(kernel, op, segment, rest, query, ids, acc, None)?,
                None => {
                    for &d in rest {
                        let values = segment.col_slice(d)?;
                        for (sum, &row) in acc.iter_mut().zip(ids) {
                            *sum += metric.contribution(d, values[row as usize], query[d]);
                        }
                    }
                }
            }
            for &score in acc.iter() {
                nan |= score.is_nan();
                weakest = weakest.min(sign * score);
            }
        }
        self.trace.contributions_evaluated += (best.len() * rest.len()) as u64;
        self.trace.exact_probes += 1;
        Ok((!nan).then_some(weakest))
    }

    fn stepped(&mut self, candidates: &mut CandidateSet, swept: usize, removed: usize) {
        if removed > 0 {
            if let Some(span) = self.warmup.take() {
                drop(span.detail(swept as u64));
            }
        }
        self.trace.pruning_attempts += 1;
        self.trace.checkpoints.push(TraceCheckpoint {
            dims_processed: swept,
            candidates: candidates.len(),
            pruned_now: removed,
        });
        if candidates.maybe_materialize(self.materialize_threshold) {
            self.trace.switched_to_list = true;
        }
    }
}

/// Ranks the surviving (segment-local) rows by score under the objective
/// and returns the k best, best first, with *global* row ids. Ties go by
/// row id, so the answer does not depend on the order of `survivors`.
fn rank(
    segment: &Segment<'_>,
    survivors: impl Iterator<Item = RowId>,
    partial: &[f64],
    objective: Objective,
    k: usize,
) -> Vec<Scored> {
    match objective {
        Objective::Maximize => {
            let mut heap = TopKLargest::new(k);
            survivors.for_each(|row| heap.push(segment.to_global(row), partial[row as usize]));
            heap.into_sorted_vec()
        }
        Objective::Minimize => {
            let mut heap = TopKSmallest::new(k);
            survivors.for_each(|row| heap.push(segment.to_global(row), partial[row as usize]));
            heap.into_sorted_vec()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bond_metrics::{
        WeightedEvRule, WeightedHistogramIntersection, WeightedHqRule, WeightedSquaredEuclidean,
    };
    use std::cell::Cell;
    use std::rc::Rc;
    use std::sync::Mutex;

    use crate::bond_loop::tests::{per_candidate_step, with_seam, Seam, StepStats};

    /// A κ cell that pools bounds the way the engine's does and keeps every
    /// value a search published, in order.
    struct RecordingCell {
        objective: Objective,
        state: Mutex<(Option<f64>, Vec<u64>)>,
    }

    impl RecordingCell {
        fn new(objective: Objective) -> Self {
            RecordingCell::holding(objective, None)
        }

        /// A cell that starts out holding `kappa`.
        fn holding(objective: Objective, kappa: Option<f64>) -> Self {
            RecordingCell { objective, state: Mutex::new((kappa, Vec::new())) }
        }

        fn published(&self) -> Vec<u64> {
            self.state.lock().unwrap().1.clone()
        }
    }

    impl KappaCell for RecordingCell {
        fn tighten(&self, local: f64) -> f64 {
            let mut state = self.state.lock().unwrap();
            state.1.push(local.to_bits());
            let merged = match (state.0, self.objective) {
                (None, _) => local,
                (Some(shared), Objective::Maximize) => shared.max(local),
                (Some(shared), Objective::Minimize) => shared.min(local),
            };
            state.0 = Some(merged);
            merged
        }

        fn current(&self) -> Option<f64> {
            self.state.lock().unwrap().0
        }
    }

    /// Peaky normalized histograms: a handful of rows resemble the query, so
    /// the candidate set shrinks step by step instead of all at once.
    fn generated_table(rows: usize, dims: usize, seed: u64) -> DecomposedTable {
        let mut state = seed;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let vectors: Vec<Vec<f64>> = (0..rows)
            .map(|_| {
                let mut v: Vec<f64> = (0..dims).map(|_| next().powi(4) + 1e-3).collect();
                let total: f64 = v.iter().sum();
                v.iter_mut().for_each(|x| *x /= total);
                v
            })
            .collect();
        DecomposedTable::from_vectors("generated", &vectors).unwrap()
    }

    /// One query over a table cut into segments that share a κ cell, as
    /// they do in the engine.
    struct Case<'a> {
        segments: &'a [Segment<'a>],
        query: &'a [f64],
        metric: &'a dyn DecomposableMetric,
        new_rule: &'a dyn Fn() -> Box<dyn PruningRule>,
        /// The segment-local eligibility bitmap for a segment of that length.
        filter: &'a dyn Fn(usize) -> Option<Bitmap>,
        k: usize,
        params: BondParams,
    }

    impl Case<'_> {
        /// Searches the segments in order on the given scratch, sharing a
        /// fresh κ cell or (not `shared`) each on its own; returns the
        /// outcomes and every κ published on the way.
        fn run(&self, shared: bool, scratch: &mut Scratch) -> (Vec<SearchOutcome>, Vec<u64>) {
            let cell = RecordingCell::new(self.metric.objective());
            self.run_on(shared.then_some(&cell), scratch)
        }

        /// [`Case::run`] with the segments sharing `cell`, or isolated
        /// (`None`: nothing is published).
        fn run_on(
            &self,
            cell: Option<&RecordingCell>,
            scratch: &mut Scratch,
        ) -> (Vec<SearchOutcome>, Vec<u64>) {
            let outcomes = self
                .segments
                .iter()
                .map(|segment| {
                    let filter = (self.filter)(segment.len());
                    let ctx = SegmentContext {
                        kappa: cell.map(|cell| cell as &dyn KappaCell),
                        filter: filter.as_ref(),
                        ..SegmentContext::default()
                    };
                    search_segment_with(
                        segment,
                        self.query,
                        self.metric,
                        (self.new_rule)().as_mut(),
                        self.k,
                        None,
                        &self.params,
                        &ctx,
                        Kernel::active(),
                        scratch,
                    )
                    .unwrap()
                })
                .collect();
            (outcomes, cell.map_or_else(Vec::new, RecordingCell::published))
        }
    }

    #[test]
    fn wordwise_step_reproduces_the_per_candidate_step_decision_for_decision() {
        const DIMS: usize = 12;
        let weights: Vec<f64> = (0..DIMS).map(|d| [2.0, 0.0, 0.5, 1.0][d % 4]).collect();
        let weighted_hist = WeightedHistogramIntersection::new(weights.clone()).unwrap();
        let weighted_euclid = WeightedSquaredEuclidean::new(weights.clone()).unwrap();
        type NewRule<'a> = Box<dyn Fn() -> Box<dyn PruningRule> + 'a>;
        let rules: [(&dyn DecomposableMetric, NewRule<'_>); 6] = [
            (&HistogramIntersection, Box::new(|| Box::new(HqRule::new()))),
            (&HistogramIntersection, Box::new(|| Box::new(HhRule::new()))),
            (&SquaredEuclidean, Box::new(|| Box::new(EqRule::new()))),
            (&SquaredEuclidean, Box::new(|| Box::new(EvRule::new()))),
            (&weighted_hist, Box::new(|| Box::new(WeightedHqRule::new(weights.clone())))),
            (&weighted_euclid, Box::new(|| Box::new(WeightedEvRule::new(weights.clone())))),
        ];
        let filters: [Box<dyn Fn(usize) -> Option<Bitmap>>; 3] = [
            Box::new(|_| None),
            Box::new(|len| Some(Bitmap::from_rows(len, &[len as RowId / 2]))),
            Box::new(|len| {
                let tenth: Vec<RowId> = (0..len as RowId).filter(|r| r % 10 == 4).collect();
                Some(Bitmap::from_rows(len, &tenth))
            }),
        ];
        let schedules = [
            BlockSchedule::Fixed(1),
            BlockSchedule::Fixed(8),
            BlockSchedule::Doubling { first: 1 },
        ];
        let mut cases = 0usize;
        StepStats::take();
        let mut reused = Scratch::default();
        for (rows, seed) in [(70usize, 0xB0D5_EED1u64), (257, 0x5EED_CAFE_F00D)] {
            for tombstones in [false, true] {
                let mut table = generated_table(rows, DIMS, seed);
                if tombstones {
                    for row in (3..rows).step_by(7) {
                        table.delete(row as RowId).unwrap();
                    }
                }
                let query = table.row(5).unwrap();
                // the second segment starts inside a 64-row bitmap word
                let split = rows / 2 + 3;
                let segments =
                    [table.segment(0..split).unwrap(), table.segment(split..rows).unwrap()];
                for (metric, new_rule) in &rules {
                    for filter in &filters {
                        for k in [1, 10, rows] {
                            for schedule in schedules {
                                for (materialize_threshold, shared) in
                                    [(0.05, false), (0.05, true), (0.5, false), (0.5, true)]
                                {
                                    let case = Case {
                                        segments: &segments,
                                        query: &query,
                                        metric: *metric,
                                        new_rule,
                                        filter,
                                        k,
                                        params: BondParams {
                                            schedule,
                                            materialize_threshold,
                                            ..BondParams::default()
                                        },
                                    };
                                    // the word-wise side reuses one scratch
                                    // across every case, as a worker thread
                                    // does: stale rows must not matter
                                    let (wordwise, wordwise_kappas) = case.run(shared, &mut reused);
                                    let (reference, reference_kappas) =
                                        with_seam(Box::new(per_candidate_step), || {
                                            case.run(shared, &mut Scratch::default())
                                        });
                                    let what = format!(
                                        "{rows} rows, tombstones {tombstones}, {}, k {k}, \
                                         {schedule:?}, materialize at {materialize_threshold}, \
                                         shared {shared}",
                                        new_rule().name()
                                    );
                                    // hits, checkpoints, contributions_evaluated, …
                                    assert_eq!(wordwise, reference, "{what}");
                                    assert_eq!(wordwise_kappas, reference_kappas, "{what}");
                                    for (a, b) in wordwise.iter().zip(&reference) {
                                        let bits = |o: &SearchOutcome| -> Vec<u64> {
                                            o.hits.iter().map(|h| h.score.to_bits()).collect()
                                        };
                                        assert_eq!(bits(a), bits(b), "{what}");
                                    }
                                    cases += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 2 * 2 * 6 * 3 * 3 * 3 * 2 * 2);
        let StepStats { from_bitmaps, from_lists, .. } = StepStats::take();
        assert!(from_bitmaps > 1_000 && from_lists > 1_000, "{from_bitmaps} / {from_lists}");
    }

    /// The heap step as it ran before the early prune, which every exact
    /// step of an isolated search carrying a κ in must reproduce: its first
    /// pass offers every candidate to the heap (`per_candidate_step` with
    /// `keep: None`), then drops every candidate, read at its own slot,
    /// that misses the κ that step proved — the better of the heap's k-th
    /// bound and the shared cell's κ — so the loop's second pass, at that
    /// same κ, has nothing left to remove.
    fn heap_over_every_candidate(cell: Rc<RecordingCell>) -> Seam {
        Box::new(move |set, _, bounds, best| {
            let Some(best) = best else { return 0 };
            per_candidate_step(set, None, bounds, Some(&mut *best));
            let &Bounds { sign, opt_add, .. } = bounds;
            let shared = cell.current().map_or(f64::NEG_INFINITY, |c| sign * c);
            let kappa =
                best.kth().filter(|kth| kth.is_finite()).map_or(shared, |kth| kth.max(shared));
            let keep = (kappa > f64::NEG_INFINITY).then(|| SurviveTest {
                sign,
                add: opt_add,
                bar: kappa - prune_slack(kappa),
            });
            per_candidate_step(set, keep, bounds, None)
        })
    }

    /// What [`keepers_only`] saw of the loop's pruning passes.
    #[derive(Debug, Clone, Copy, Default)]
    struct PassCounts {
        /// Candidates a bitmap's first pass dropped with a carried κ.
        early: usize,
        /// Candidates a row list's first pass dropped with a carried κ.
        list_early: usize,
        /// First and second passes over a row list.
        list_first: usize,
        list_second: usize,
        /// Second passes over a list whose first pass removed rows, so
        /// read bounds the loop computed again for the keepers.
        list_rebound: usize,
        /// Whether the last first pass over a list removed rows.
        list_shifted: bool,
        /// In searches that share κ: passes that offered the κ heap (a
        /// cold segment's first step, with no κ to prune with) …
        probing: usize,
        /// … and candidates the passes that offered none dropped.
        heapless: usize,
    }

    /// The loop's own pruning pass, checking after every first pass that
    /// the κ heap holds only rows it kept, and counting passes in `counts`
    /// — a heap step's (isolated) or a probe step's (`shared`).
    fn keepers_only(counts: Rc<Cell<PassCounts>>, shared: bool) -> Seam {
        Box::new(move |set, keep, bounds, mut best| {
            let (bitmap, first) = (set.is_bitmap(), best.is_some());
            assert!(!(shared && first && keep.is_some()), "a probing pass pruned");
            let removed = set.prune(Kernel::active(), keep, bounds, best.as_deref_mut());
            if let Some(best) = best {
                let kept = set.to_rows();
                for entry in best.iter() {
                    assert!(
                        kept.binary_search(&entry.row).is_ok(),
                        "row {} was dropped",
                        entry.row
                    );
                }
            }
            let mut seen = counts.get();
            match (shared, bitmap, first) {
                (true, _, true) => seen.probing += 1,
                (true, _, false) => seen.heapless += removed,
                (false, true, true) => seen.early += removed,
                (false, true, false) => {}
                (false, false, true) => {
                    seen.list_first += 1;
                    seen.list_early += removed;
                    seen.list_shifted = removed > 0;
                }
                (false, false, false) => {
                    seen.list_second += 1;
                    seen.list_rebound += usize::from(seen.list_shifted);
                }
            }
            counts.set(seen);
            removed
        })
    }

    /// The exact loop's steps with a κ carried in — a sibling segment's,
    /// the segment's own from its last step, or one the shared cell holds
    /// from the start (the k-th best exact score) — against a reference
    /// pass: the same hits, bit for bit, the same checkpoints and counts,
    /// the same κ published. An isolated search (its own κ only) proves κ
    /// by the heap, against [`heap_over_every_candidate`]; a search that
    /// shares κ proves it by the probe, against [`per_candidate_step`],
    /// which then offers the partial scores at the probing step and
    /// collects no heap at any other. All six rules, two filters, `k` 1, 3
    /// and 10, three block schedules.
    fn early_prune_reproduces_the_heap_over_every_candidate(
        materialize_threshold: f64,
    ) -> PassCounts {
        const DIMS: usize = 12;
        let weights: Vec<f64> = (0..DIMS).map(|d| [2.0, 0.0, 0.5, 1.0][d % 4]).collect();
        let weighted_hist = WeightedHistogramIntersection::new(weights.clone()).unwrap();
        let weighted_euclid = WeightedSquaredEuclidean::new(weights.clone()).unwrap();
        type NewRule<'a> = Box<dyn Fn() -> Box<dyn PruningRule> + 'a>;
        let rules: [(&dyn DecomposableMetric, NewRule<'_>); 6] = [
            (&HistogramIntersection, Box::new(|| Box::new(HqRule::new()))),
            (&HistogramIntersection, Box::new(|| Box::new(HhRule::new()))),
            (&SquaredEuclidean, Box::new(|| Box::new(EqRule::new()))),
            (&SquaredEuclidean, Box::new(|| Box::new(EvRule::new()))),
            (&weighted_hist, Box::new(|| Box::new(WeightedHqRule::new(weights.clone())))),
            (&weighted_euclid, Box::new(|| Box::new(WeightedEvRule::new(weights.clone())))),
        ];
        let filters: [Box<dyn Fn(usize) -> Option<Bitmap>>; 2] = [
            Box::new(|_| None),
            Box::new(|len| {
                let tenth: Vec<RowId> = (0..len as RowId).filter(|r| r % 10 == 4).collect();
                Some(Bitmap::from_rows(len, &tenth))
            }),
        ];
        let counts = Rc::new(Cell::new(PassCounts::default()));
        let mut cases = 0;
        for (rows, seed) in [(257usize, 0xE4_12C0_FFEEu64), (1000, 0x0B0D_5EED_1E55)] {
            let table = generated_table(rows, DIMS, seed);
            let query = table.row(5).unwrap();
            let split = rows / 2 + 3;
            let segments = [table.segment(0..split).unwrap(), table.segment(split..rows).unwrap()];
            for (metric, new_rule) in &rules {
                let objective = metric.objective();
                let mut scores: Vec<f64> = (0..rows)
                    .map(|r| metric.score(&table.row(r as RowId).unwrap(), &query))
                    .collect();
                scores.sort_by(|a, b| a.total_cmp(b));
                if objective == Objective::Maximize {
                    scores.reverse();
                }
                for filter in &filters {
                    for k in [1, 3, 10] {
                        // isolated, then sharing a cell — one that holds the
                        // k-th best score of the whole table too, a valid κ
                        // only without a filter
                        let mut runs = vec![(false, None), (true, None)];
                        if filter(rows).is_none() {
                            runs.push((true, Some(scores[k - 1])));
                        }
                        for &(shared, pre) in &runs {
                            for schedule in [
                                BlockSchedule::Fixed(1),
                                BlockSchedule::Fixed(4),
                                BlockSchedule::Doubling { first: 1 },
                            ] {
                                let case = Case {
                                    segments: &segments,
                                    query: &query,
                                    metric: *metric,
                                    new_rule,
                                    filter,
                                    k,
                                    params: BondParams {
                                        schedule,
                                        materialize_threshold,
                                        ..BondParams::default()
                                    },
                                };
                                let run = |seam: Option<Seam>| {
                                    let cell = Rc::new(RecordingCell::holding(objective, pre));
                                    let seam = seam
                                        .unwrap_or_else(|| heap_over_every_candidate(cell.clone()));
                                    with_seam(seam, || {
                                        let cell = shared.then_some(&*cell);
                                        case.run_on(cell, &mut Scratch::default())
                                    })
                                };
                                let probing = || Box::new(per_candidate_step) as Seam;
                                let reference = run(shared.then(probing));
                                let early = run(Some(keepers_only(counts.clone(), shared)));
                                let what = format!(
                                    "{rows} rows, {}, k {k}, shared {shared}, κ held {pre:?}, \
                                     {schedule:?}",
                                    new_rule().name()
                                );
                                assert_eq!(early, reference, "{what}");
                                for (a, b) in early.0.iter().zip(&reference.0) {
                                    let bits = |o: &SearchOutcome| -> Vec<u64> {
                                        o.hits.iter().map(|h| h.score.to_bits()).collect()
                                    };
                                    assert_eq!(bits(a), bits(b), "{what}");
                                }
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 2 * 6 * (3 * 2 * 2 + 3) * 3);
        counts.get()
    }

    #[test]
    fn bitmap_steps_prune_with_the_carried_kappa_before_the_heap() {
        // a threshold no density reaches: every step is a bitmap step
        let counts = early_prune_reproduces_the_heap_over_every_candidate(0.0);
        assert_eq!((counts.list_first, counts.list_second), (0, 0));
        assert!(counts.early > 10_000, "the carried κ dropped only {} rows early", counts.early);
        // a search that shares κ probes at most once per segment and
        // otherwise only prunes with the κ it carried in
        assert!(counts.probing > 100, "only {} probing steps", counts.probing);
        let heapless = counts.heapless;
        assert!(heapless > 10_000, "steps without a heap dropped only {heapless} rows");
        // and so do list steps, whose second pass bounds the keepers again
        let counts = early_prune_reproduces_the_heap_over_every_candidate(1.0);
        let early = counts.list_early;
        assert!(early > 1_000, "the carried κ dropped only {early} listed rows early");
    }

    #[test]
    fn list_steps_read_their_bounds_at_their_own_positions() {
        // every density reaches it: every step after the first is a list step
        let counts = early_prune_reproduces_the_heap_over_every_candidate(1.0);
        assert!(counts.list_first > 500, "only {} list steps", counts.list_first);
        assert!(counts.list_second > 500, "only {} second passes over lists", counts.list_second);
        let rebound = counts.list_rebound;
        assert!(rebound > 100, "only {rebound} second passes over lists the first pass shifted");
    }

    /// The bound-ordered refine against refining every survivor of the
    /// same code filter: the hits must be bit-identical and the exact cells
    /// no more — over groups of identical rows that tie at rank `k` (and
    /// across the refine's stop point), `k` up to past the survivors, a
    /// one-row filter, weighted metrics with zero weights, a κ carried in
    /// or not, and both kernel flavours.
    #[test]
    fn ordered_refine_matches_a_full_refine_of_every_survivor() {
        const DIMS: usize = 20;
        let weights: Vec<f64> = (0..DIMS).map(|d| [1.5, 0.0, 0.5, 1.0][d % 4]).collect();
        let whi = WeightedHistogramIntersection::new(weights.clone()).unwrap();
        let wse = WeightedSquaredEuclidean::new(weights.clone()).unwrap();
        type NewRule<'a> = Box<dyn Fn() -> Box<dyn PruningRule> + 'a>;
        let rules: [(&dyn DecomposableMetric, NewRule<'_>); 4] = [
            (&HistogramIntersection, Box::new(|| Box::new(HqRule::new()))),
            (&SquaredEuclidean, Box::new(|| Box::new(EvRule::new()))),
            (&whi, Box::new(|| Box::new(WeightedHqRule::new(weights.clone())))),
            (&wse, Box::new(|| Box::new(WeightedEvRule::new(weights.clone())))),
        ];
        let base = generated_table(300, DIMS, 0x0DDE_12EF);
        let mut duplicates = DecomposedTable::from_vectors(
            "duplicates",
            &(0..1200).map(|r| base.row(r / 4).unwrap()).collect::<Vec<_>>(),
        )
        .unwrap();
        for row in (5..1200).step_by(7) {
            duplicates.delete(row).unwrap();
        }
        let kernels = [Kernel::Scalar, Kernel::active()];
        let mut reused = Scratch::default();
        let (mut cases, mut ordered, mut stopped) = (0usize, 0usize, 0usize);
        for table in [generated_table(1200, DIMS, 0x5EED_0FF5), duplicates] {
            let specs = table.partition_specs(2);
            let stats: Vec<vdstore::SegmentStats> =
                specs.iter().map(|s| s.view(&table).unwrap().stats()).collect();
            let codes = vdstore::StoreCodes::build(&table, &specs, &stats, 8).unwrap();
            let query = table.row(41).unwrap();
            for (metric, new_rule) in &rules {
                let plan = SegmentPlan::uniform(&BondParams::default(), &query, None, DIMS);
                let order = &plan.order;
                for (si, spec) in specs.iter().enumerate() {
                    let segment = table.segment(spec.range()).unwrap();
                    let view = codes.segment_view(si).unwrap();
                    let live = segment.live_bitmap();
                    let some = |rows: Vec<RowId>| Some(Bitmap::from_rows(segment.len(), &rows));
                    let filters = [
                        None,
                        some(vec![segment.len() as RowId / 2]),
                        some((0..segment.len() as RowId).filter(|r| r % 10 == 3).collect()),
                    ];
                    // every live row's exact score: per row the same sum,
                    // in plan order, the searcher computes
                    let exact: Vec<f64> = (0..segment.len())
                        .map(|row| {
                            order.iter().fold(0.0, |sum, &d| {
                                let v = segment.col_slice(d).unwrap()[row];
                                sum + metric.contribution(d, v, query[d])
                            })
                        })
                        .collect();
                    for filter in &filters {
                        let mut eligible = live.clone();
                        if let Some(filter) = filter {
                            eligible.and_with(filter);
                        }
                        let mut truth: Vec<f64> =
                            eligible.iter().map(|r| exact[r as usize]).collect();
                        truth.sort_by(|a, b| a.total_cmp(b));
                        if metric.objective() == Objective::Maximize {
                            truth.reverse();
                        }
                        let n = eligible.count();
                        for k in [1, 3, 10, n, n + 5] {
                            for pre in [None, truth.get(k - 1).copied()] {
                                for kernel in kernels {
                                    let ctx = format!(
                                        "{} seg{si} filter={:?} k={k} pre={pre:?} {}",
                                        metric.name(),
                                        filter.as_ref().map(Bitmap::count),
                                        kernel.label()
                                    );
                                    let cell = RecordingCell::holding(metric.objective(), pre);
                                    let got = search_segment_with(
                                        &segment,
                                        &query,
                                        *metric,
                                        new_rule().as_mut(),
                                        k,
                                        None,
                                        &BondParams::default(),
                                        &SegmentContext {
                                            kappa: Some(&cell),
                                            plan: Some(&plan),
                                            codes: Some(view),
                                            filter: filter.as_ref(),
                                            ..SegmentContext::default()
                                        },
                                        kernel,
                                        &mut reused,
                                    )
                                    .unwrap();
                                    // the same filter, then every survivor
                                    let cell = RecordingCell::holding(metric.objective(), pre);
                                    let survivors = crate::quantfilter::filter_segment_in_order(
                                        &view,
                                        *metric,
                                        &query,
                                        k,
                                        &eligible,
                                        Some(&cell),
                                        kernel,
                                        Some(order),
                                        None,
                                        &mut Scratch::default(),
                                    )
                                    .unwrap()
                                    .survivors;
                                    let want = rank(
                                        &segment,
                                        survivors.iter(),
                                        &exact,
                                        metric.objective(),
                                        k,
                                    );
                                    let bits = |hits: &[Scored]| -> Vec<(RowId, u64)> {
                                        hits.iter().map(|h| (h.row, h.score.to_bits())).collect()
                                    };
                                    assert_eq!(bits(&got.hits), bits(&want), "{ctx}");
                                    let full = (survivors.count() * DIMS) as u64;
                                    let cells = got.trace.contributions_evaluated;
                                    assert!(cells <= full, "{ctx}: {cells} cells > {full}");
                                    assert_eq!(got.trace.refine_rows, survivors.count() as u64);
                                    // more survivors than k, and no exact step
                                    ordered += usize::from(
                                        survivors.count() > k && got.trace.checkpoints.is_empty(),
                                    );
                                    stopped += usize::from(cells < full);
                                    cases += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 2 * 4 * 2 * 3 * 5 * 2 * 2);
        assert!(ordered > 150, "only {ordered} of {cases} cases refined in bound order");
        assert!(stopped > 25, "the refine stopped early in only {stopped} cases");
    }

    /// The gathered accumulate's lookahead ([`kernels::PREFETCH_DIMS`]
    /// dimensions ahead) at the edges it must stay inside: one-row
    /// segments, fewer dimensions than the lookahead, and the last rows of
    /// a ragged segment (65 rows, so the last word is partial), on every
    /// supported kernel. Each gathered score and mass must be the scalar
    /// reference's bits (the same adds in plan order), and a search through
    /// the code filter's probes and the bound-ordered refine must return
    /// the brute-force ranking, bit for bit.
    #[test]
    fn the_refine_looks_ahead_inside_short_and_ragged_segments() {
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
        type NewRule = fn() -> Box<dyn PruningRule>;
        let rules: [(&dyn DecomposableMetric, NewRule); 2] = [
            (&HistogramIntersection, || Box::new(HqRule::new())),
            (&SquaredEuclidean, || Box::new(EvRule::new())),
        ];
        let bits = |hits: &[Scored]| -> Vec<(RowId, u64)> {
            hits.iter().map(|h| (h.row, h.score.to_bits())).collect()
        };
        let mut cases = 0;
        for (rows, dims, partitions) in shapes {
            let table = generated_table(rows, dims, 0x1EAF_0000 + (rows * 64 + dims) as u64);
            let specs = table.partition_specs(partitions);
            let stats: Vec<vdstore::SegmentStats> =
                specs.iter().map(|s| s.view(&table).unwrap().stats()).collect();
            let codes = vdstore::StoreCodes::build(&table, &specs, &stats, 8).unwrap();
            let query = table.row(0).unwrap();
            for (metric, new_rule) in rules {
                let op = metric.kernel_op().expect("a kernel-shaped metric");
                let plan = SegmentPlan::uniform(&BondParams::default(), &query, None, dims);
                let order = &plan.order;
                for (si, spec) in specs.iter().enumerate() {
                    let segment = table.segment(spec.range()).unwrap();
                    let len = segment.len();
                    let column = |d: usize| segment.col_slice(d).unwrap();
                    let exact: Vec<f64> = (0..len)
                        .map(|row| {
                            order
                                .iter()
                                .fold(0.0, |sum, &d| sum + op.apply(d, column(d)[row], query[d]))
                        })
                        .collect();
                    let mass: Vec<f64> = (0..len)
                        .map(|row| order.iter().fold(0.0, |sum, &d| sum + column(d)[row]))
                        .collect();
                    // the segment's last rows, and the whole of a short one
                    let tail: Vec<RowId> =
                        (len.saturating_sub(3)..len).map(|r| r as RowId).collect();
                    for &kernel in &kernels {
                        let ctx =
                            format!("{rows}x{dims} seg{si} {} {}", metric.name(), kernel.label());
                        let (mut got, mut got_mass) = (vec![0.0; len], vec![0.0; len]);
                        gather_accumulate_block(
                            kernel,
                            op,
                            &segment,
                            order,
                            &query,
                            &tail,
                            &mut got,
                            Some(&mut got_mass),
                        )
                        .unwrap();
                        for &row in &tail {
                            let row = row as usize;
                            assert_eq!(got[row].to_bits(), exact[row].to_bits(), "{ctx} row {row}");
                            assert_eq!(
                                got_mass[row].to_bits(),
                                mass[row].to_bits(),
                                "{ctx} row {row}"
                            );
                        }
                        for k in [1, 3] {
                            let outcome = search_segment_with(
                                &segment,
                                &query,
                                metric,
                                new_rule().as_mut(),
                                k,
                                None,
                                &BondParams::default(),
                                &SegmentContext {
                                    plan: Some(&plan),
                                    codes: Some(codes.segment_view(si).unwrap()),
                                    ..SegmentContext::default()
                                },
                                kernel,
                                &mut Scratch::default(),
                            )
                            .unwrap();
                            let live = segment.live_bitmap();
                            let want = rank(&segment, live.iter(), &exact, metric.objective(), k);
                            assert_eq!(bits(&outcome.hits), bits(&want), "{ctx} k={k}");
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 10 * 2 * 2 * kernels.len());
    }

    /// Table 2's collection (h6 kept exactly as printed, mass 0.95).
    fn example_table() -> DecomposedTable {
        DecomposedTable::from_vectors(
            "table2",
            &[
                vec![0.1, 0.3, 0.4, 0.2],
                vec![0.05, 0.05, 0.9, 0.0],
                vec![0.8, 0.1, 0.05, 0.05],
                vec![0.2, 0.6, 0.1, 0.1],
                vec![0.7, 0.15, 0.15, 0.0],
                vec![0.925, 0.0, 0.0, 0.025],
                vec![0.55, 0.2, 0.15, 0.1],
                vec![0.05, 0.1, 0.05, 0.8],
                vec![0.45, 0.5, 0.05, 0.05],
            ],
        )
        .unwrap()
    }

    fn query() -> Vec<f64> {
        vec![0.7, 0.15, 0.1, 0.05]
    }

    fn params_m2() -> BondParams {
        BondParams {
            schedule: BlockSchedule::Fixed(2),
            ordering: DimensionOrdering::Natural,
            ..BondParams::default()
        }
    }

    #[test]
    fn finds_the_paper_example_top3_with_hq() {
        let table = example_table();
        let searcher = BondSearcher::new(&table);
        let outcome = searcher.histogram_intersection_hq(&query(), 3, &params_m2()).unwrap();
        let mut rows: Vec<RowId> = outcome.hits.iter().map(|h| h.row).collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![2, 4, 6], "the three best matches are h3, h5, h7");
        // after the first block (m = 2) the candidate set shrinks to 5
        // (h1, h2, h4, h8 are pruned, Section 4.2)
        let first = outcome.trace.checkpoints[0];
        assert_eq!(first.dims_processed, 2);
        assert_eq!(first.candidates, 5);
        assert_eq!(first.pruned_now, 4);
    }

    #[test]
    fn hh_prunes_down_to_the_answer_after_one_block() {
        let table = example_table();
        let searcher = BondSearcher::new(&table);
        let outcome = searcher.histogram_intersection_hh(&query(), 3, &params_m2()).unwrap();
        let mut rows: Vec<RowId> = outcome.hits.iter().map(|h| h.row).collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![2, 4, 6]);
        let first = outcome.trace.checkpoints[0];
        assert_eq!(first.candidates, 3, "Hh identifies the three best results immediately");
    }

    #[test]
    fn euclidean_rules_agree_with_each_other() {
        let table = example_table();
        let searcher = BondSearcher::new(&table);
        let q = query();
        let ev = searcher.euclidean_ev(&q, 3, &params_m2()).unwrap();
        let eq = searcher.euclidean_eq(&q, 3, &params_m2()).unwrap();
        let rows = |o: &SearchOutcome| {
            let mut v: Vec<RowId> = o.hits.iter().map(|h| h.row).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(rows(&ev), rows(&eq));
        // scores are exact distances, ascending
        assert!(ev.hits[0].score <= ev.hits[1].score);
    }

    #[test]
    fn exact_scores_match_direct_computation() {
        let table = example_table();
        let searcher = BondSearcher::new(&table);
        let q = query();
        let outcome = searcher.histogram_intersection_hq(&q, 3, &params_m2()).unwrap();
        use bond_metrics::DecomposableMetric;
        for hit in &outcome.hits {
            let v = table.row(hit.row).unwrap();
            let direct = HistogramIntersection.score(&v, &q);
            assert!((hit.score - direct).abs() < 1e-12);
        }
    }

    #[test]
    fn validation_errors() {
        let table = example_table();
        let searcher = BondSearcher::new(&table);
        let p = BondParams::default();
        assert!(matches!(
            searcher.histogram_intersection_hq(&[0.5; 3], 1, &p),
            Err(BondError::QueryDimensionMismatch { .. })
        ));
        assert!(matches!(
            searcher.histogram_intersection_hq(&query(), 0, &p),
            Err(BondError::InvalidK { .. })
        ));
        assert!(matches!(
            searcher.histogram_intersection_hq(&query(), 100, &p),
            Err(BondError::InvalidK { .. })
        ));
        // mismatched objective between metric and rule
        let mut rule = EvRule::new();
        assert!(matches!(
            searcher.search_with_rule(&query(), &HistogramIntersection, &mut rule, 1, None, &p),
            Err(BondError::InvalidParams(_))
        ));
        // bad explicit ordering
        let bad = BondParams {
            ordering: DimensionOrdering::Explicit(vec![0, 0, 1, 2]),
            ..BondParams::default()
        };
        assert!(matches!(
            searcher.histogram_intersection_hq(&query(), 1, &bad),
            Err(BondError::InvalidParams(_))
        ));
    }

    #[test]
    fn deleted_rows_never_appear_in_results() {
        let mut table = example_table();
        table.delete(2).unwrap(); // h3 was the best match
        let searcher = BondSearcher::new(&table);
        let outcome = searcher.histogram_intersection_hq(&query(), 3, &params_m2()).unwrap();
        let rows: Vec<RowId> = outcome.hits.iter().map(|h| h.row).collect();
        assert!(!rows.contains(&2));
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn k_equal_to_collection_size_returns_everything() {
        let table = example_table();
        let searcher = BondSearcher::new(&table);
        let outcome = searcher.histogram_intersection_hq(&query(), 9, &params_m2()).unwrap();
        assert_eq!(outcome.hits.len(), 9);
        // best first
        for w in outcome.hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn unrefined_search_skips_remaining_fragments() {
        let table = example_table();
        let searcher = BondSearcher::new(&table);
        let refined = searcher.histogram_intersection_hh(&query(), 3, &params_m2()).unwrap();
        let params = BondParams { refine_survivors: false, ..params_m2() };
        let unrefined = searcher.histogram_intersection_hh(&query(), 3, &params).unwrap();
        // the answer set is identified after 2 of 4 dimensions; without
        // refinement the last fragments are never read
        assert_eq!(unrefined.trace.dims_accessed, 2);
        assert_eq!(refined.trace.dims_accessed, 4);
        let rows = |o: &SearchOutcome| {
            let mut v: Vec<RowId> = o.hits.iter().map(|h| h.row).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(rows(&refined), rows(&unrefined));
        assert!(unrefined.trace.contributions_evaluated < refined.trace.contributions_evaluated);
    }

    #[test]
    fn ordering_does_not_change_the_answer() {
        let table = example_table();
        let searcher = BondSearcher::new(&table);
        let q = query();
        let reference: Vec<RowId> = {
            let mut v: Vec<RowId> = searcher
                .histogram_intersection_hq(&q, 3, &params_m2())
                .unwrap()
                .hits
                .iter()
                .map(|h| h.row)
                .collect();
            v.sort_unstable();
            v
        };
        for ordering in [
            DimensionOrdering::QueryValueDescending,
            DimensionOrdering::QueryValueAscending,
            DimensionOrdering::Random { seed: 3 },
            DimensionOrdering::Natural,
        ] {
            let p = BondParams { ordering, ..params_m2() };
            let mut rows: Vec<RowId> = searcher
                .histogram_intersection_hq(&q, 3, &p)
                .unwrap()
                .hits
                .iter()
                .map(|h| h.row)
                .collect();
            rows.sort_unstable();
            assert_eq!(rows, reference);
        }
    }

    #[test]
    fn work_counter_reflects_pruning() {
        let table = example_table();
        let searcher = BondSearcher::new(&table);
        let outcome = searcher.histogram_intersection_hh(&query(), 3, &params_m2()).unwrap();
        // naive work would be 9 vectors × 4 dims = 36 contributions; BOND
        // scans 9×2 in the first block and only the 3 survivors afterwards
        assert!(outcome.trace.contributions_evaluated < 36);
        assert!(outcome.trace.work_fraction(9, 4) < 1.0);
    }
}
