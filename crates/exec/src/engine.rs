//! The parallel, partitioned execution engine.
//!
//! An [`Engine`] is built once per table and then serves requests for as
//! long as the process lives: it *owns* its [`DecomposedTable`] behind an
//! [`Arc`], stores its partition boundaries as lifetime-free
//! [`SegmentSpec`]s plus cached [`SegmentStats`], and materialises the
//! zero-copy [`Segment`] views internally, per call. The engine is
//! `Send + Sync + 'static` and cheaply clonable (a clone is one `Arc`
//! bump), so it can be stored in a server struct, shared across request
//! threads, or handed to a background worker — the shape a long-lived
//! serving system needs (see [`crate::service`]).
//!
//! Execution is per-request heterogeneous: a [`RequestBatch`] of
//! [`QuerySpec`]s may mix `k`s, pruning rules, planners, predicate filters
//! and request kinds freely. Every kind — top-k, filtered top-k,
//! multi-feature — runs in one engine pass: each spec is validated and
//! resolved once, all `queries × segments` tasks go through one scheduler
//! (the module's only spawn site), each query gets its own shared-κ cell,
//! and every query's per-segment answers go through one merge and one
//! metrics path.
//!
//! *In which dimension order, with which block schedule* is one
//! [`SegmentPlan`] per query, derived once from the engine's `BondParams`
//! and run by every segment: each segment refines its survivors to exact
//! scores in the dimension order the sequential searcher uses, so the
//! merged top-k of an exact or code-filtered scan is bit-identical to a
//! sequential [`BondSearcher`] search over the whole table, whatever the
//! planner. *Which segments to search, in which order* is the query's
//! effective [`PlannerKind`]: [`PlannerKind::Adaptive`] visits segments
//! most-promising-first by their zone-map envelope bound and skips whole
//! segments whose bound provably cannot reach the current κ — without
//! touching any of the segment's columns.
//!
//! The engine learns nothing from the traffic it serves: the visit order,
//! the skips and the plan read the request and the segment statistics
//! alone, so a fresh engine and one that has served a million queries do
//! the same work for the same request.

use crate::batch::{
    BatchOutcome, MultiFeatureSpec, QueryKind, QueryOutcome, QuerySpec, RequestBatch, ScanMode,
    SegmentRun,
};
use crate::kappa::SharedKappa;
use crate::planner::PlannerKind;
use crate::rules::RuleKind;
use bond::{
    prune_slack, search_segment, BondError, BondParams, BondSearcher, DimensionOrdering,
    FeatureQuery, KappaCell, MultiFeatureContext, MultiFeatureSearcher, PruneTrace, Result,
    SearchOutcome, SegmentContext, SegmentPlan,
};
use bond_metrics::{DecomposableMetric, Objective, ScoreAggregate};
use bond_obs::{names, Counter, Histogram, MetricsRegistry, Span};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use vdstore::persist::{open_store, save_store_with_codes, validate_store_inputs, PersistedStore};
use vdstore::topk::Scored;
use vdstore::{
    ascending_nan_last, descending_nan_last, Advice, Bitmap, DecomposedTable, Envelope, Segment,
    SegmentSpec, SegmentStats, StorageBackend, StoreCodes, TopKLargest, TopKSmallest,
    DEFAULT_CODE_BITS,
};

/// The pruning-rule names the engine pre-registers per-rule search
/// counters for (`engine.rule.<name>.searches`). Bound scales are
/// incomparable across rules, which is exactly why the counts must not
/// aggregate — see [`bond::PruneTrace::rule`].
const RULE_NAMES: [&str; 6] = ["Hq", "Hh", "Eq", "Ev", "WHq", "WEv"];

/// The engine's pre-registered metric handles: every hot-path emission is
/// a relaxed atomic on one of these, never a registry lock.
#[derive(Debug)]
pub(crate) struct EngineMetrics {
    /// The registry the handles live in, one per engine.
    pub(crate) registry: MetricsRegistry,
    /// `engine.batch.count` — executed engine passes.
    batches: Counter,
    /// `engine.query.count` — queries answered.
    queries: Counter,
    /// `engine.query.latency_us` — wall time of the engine pass that
    /// answered each query (the latency a submitter observes).
    latency_us: Histogram,
    /// `engine.query.scanned_cells` — `(candidate, dimension)` cells each
    /// query actually evaluated, summed over its segments.
    scanned_cells: Histogram,
    /// `engine.segment.searched` — per-segment scans that ran.
    segment_searched: Counter,
    /// `engine.segment.skipped` — whole-segment zone-map skips.
    segment_skipped: Counter,
    /// `engine.segment.missed` — scanned segments that contributed nothing
    /// to their query's final top-k (work the zone map failed to avoid).
    pub(crate) segment_missed: Counter,
    /// `engine.rule.<name>.searches` — executed scans per pruning rule.
    rule_searches: [(&'static str, Counter); RULE_NAMES.len()],
    /// `store.open.cold_us` — wall time of the store open this engine was
    /// built from, when it was.
    open_cold_us: Histogram,
    /// `store.persist.us` — wall time of [`Engine::persist`] calls.
    persist_us: Histogram,
    /// `store.persist.bytes` — bytes written by [`Engine::persist`].
    persist_bytes: Counter,
    /// `engine.quant.filter_cells` — quantized `u8` code cells swept by
    /// first-pass filters.
    quant_filter_cells: Counter,
    /// `engine.quant.refine_rows` — rows that survived a quantized filter
    /// into exact refinement.
    quant_refine_rows: Counter,
    /// `engine.quant.filter_selectivity` — per query, the percentage of
    /// filtered rows that reached the exact phase (lower is better).
    quant_filter_selectivity: Histogram,
    /// `engine.filter.eligible_rows` — rows eligible under predicate
    /// filters (filter ∧ live), summed over scanned filtered segments.
    filter_eligible_rows: Counter,
    /// `engine.filter.segments_empty` — segments skipped outright because a
    /// predicate filter left none of their rows eligible.
    filter_segments_empty: Counter,
    /// `engine.multifeature.searches` — synchronized multi-feature segment
    /// scans executed.
    multifeature_searches: Counter,
    /// `engine.kernel.<label>.sweeps` — quantized code sweeps dispatched to
    /// each scan-kernel flavour (one tick per swept segment).
    kernel_sweeps: [(&'static str, Counter); 3],
    /// `engine.codes.builds` — code companions encoded from the table; a
    /// tick after set-up means a build ran on the query path.
    codes_builds: Counter,
}

impl EngineMetrics {
    fn new(registry: MetricsRegistry) -> EngineMetrics {
        let rule_searches =
            RULE_NAMES.map(|name| (name, registry.counter(&names::engine_rule_searches(name))));
        let kernel_sweeps = [
            ("scalar", registry.counter(names::ENGINE_KERNEL_SCALAR_SWEEPS)),
            ("avx2", registry.counter(names::ENGINE_KERNEL_AVX2_SWEEPS)),
            ("neon", registry.counter(names::ENGINE_KERNEL_NEON_SWEEPS)),
        ];
        EngineMetrics {
            batches: registry.counter(names::ENGINE_BATCH_COUNT),
            queries: registry.counter(names::ENGINE_QUERY_COUNT),
            latency_us: registry.histogram(names::ENGINE_QUERY_LATENCY_US),
            scanned_cells: registry.histogram(names::ENGINE_QUERY_SCANNED_CELLS),
            segment_searched: registry.counter(names::ENGINE_SEGMENT_SEARCHED),
            segment_skipped: registry.counter(names::ENGINE_SEGMENT_SKIPPED),
            segment_missed: registry.counter(names::ENGINE_SEGMENT_MISSED),
            rule_searches,
            open_cold_us: registry.histogram(names::STORE_OPEN_COLD_US),
            persist_us: registry.histogram(names::STORE_PERSIST_US),
            persist_bytes: registry.counter(names::STORE_PERSIST_BYTES),
            quant_filter_cells: registry.counter(names::ENGINE_QUANT_FILTER_CELLS),
            quant_refine_rows: registry.counter(names::ENGINE_QUANT_REFINE_ROWS),
            quant_filter_selectivity: registry.histogram(names::ENGINE_QUANT_FILTER_SELECTIVITY),
            filter_eligible_rows: registry.counter(names::ENGINE_FILTER_ELIGIBLE_ROWS),
            filter_segments_empty: registry.counter(names::ENGINE_FILTER_SEGMENTS_EMPTY),
            multifeature_searches: registry.counter(names::ENGINE_MULTIFEATURE_SEARCHES),
            kernel_sweeps,
            codes_builds: registry.counter(names::ENGINE_CODES_BUILDS),
            registry,
        }
    }

    fn rule_counter(&self, name: &str) -> Option<&Counter> {
        self.rule_searches.iter().find(|(n, _)| *n == name).map(|(_, c)| c)
    }

    fn kernel_counter(&self, label: &str) -> Option<&Counter> {
        self.kernel_sweeps.iter().find(|(n, _)| *n == label).map(|(_, c)| c)
    }
}

/// Builds an [`Engine`] for one table.
///
/// Construction is fallible: [`EngineBuilder::build`] validates the
/// configuration (`partitions`/`threads` must be non-zero, a weighted
/// default rule must carry weights valid for the table) and returns
/// [`BondError::InvalidParams`] / [`BondError::WeightDimensionMismatch`]
/// instead of silently clamping or panicking mid-search.
#[derive(Debug)]
pub struct EngineBuilder {
    table: Arc<DecomposedTable>,
    partitions: usize,
    threads: usize,
    params: BondParams,
    rule: RuleKind,
    share_kappa: bool,
    planner: PlannerKind,
    scan: ScanMode,
    /// Partition boundaries + statistics preloaded from a persisted store's
    /// footer; when present, [`EngineBuilder::build`] uses them verbatim
    /// instead of partitioning and scanning the table.
    preloaded: Option<(Vec<SegmentSpec>, Vec<SegmentStats>)>,
    /// Quantized code fragments from the store's footer, seeded into the
    /// engine's code cache at [`EngineBuilder::build`] so the first
    /// quantized scan does not re-encode the table.
    preloaded_codes: Option<StoreCodes>,
    /// Wall time of the store open this builder came from, recorded as
    /// `store.open.cold_us` at [`EngineBuilder::build`].
    open_micros: Option<u64>,
}

impl EngineBuilder {
    /// Starts a builder over a store reopened from disk, using the backend
    /// selected by the `VDSTORE_BACKEND` environment variable (or the
    /// platform default — memory-mapped where supported). See
    /// [`EngineBuilder::open_with`].
    pub fn open(path: impl AsRef<Path>) -> Result<EngineBuilder> {
        Self::open_with(path, StorageBackend::from_env())
    }

    /// Starts a builder over a store reopened from disk with an explicit
    /// [`StorageBackend`].
    ///
    /// The builder's partition boundaries, per-segment statistics and
    /// zone-map envelopes come straight from the store's footer, so the
    /// engine [`EngineBuilder::build`] returns can plan adaptively and skip
    /// whole segments *before a single column data page has been read* —
    /// under [`StorageBackend::Mapped`] the fragments fault in lazily as
    /// searches touch them. The result is bit-identical to an engine built
    /// over the original in-memory table with the same partition count
    /// (footer statistics are bit-exact copies of the cached build-time
    /// statistics).
    ///
    /// # Errors
    ///
    /// [`BondError::Storage`] when the file cannot be opened, is corrupt,
    /// truncated, or written by an unsupported format version.
    pub fn open_with(path: impl AsRef<Path>, backend: StorageBackend) -> Result<EngineBuilder> {
        let store = open_store(path.as_ref(), backend).map_err(BondError::Storage)?;
        Ok(Self::from_store(store))
    }

    /// Starts a builder over an already-opened [`PersistedStore`] (e.g. one
    /// inspected or filtered before serving). The store's learned-state
    /// payload, if an older writer left one, is ignored: the engine keeps
    /// no learned state.
    pub fn from_store(store: PersistedStore) -> EngineBuilder {
        let PersistedStore { table, specs, stats, codes, open_micros, .. } = store;
        let mut builder = Engine::builder(table);
        builder.partitions = specs.len().max(1);
        builder.preloaded = Some((specs, stats));
        builder.preloaded_codes = codes;
        builder.open_micros = (open_micros > 0).then_some(open_micros);
        builder
    }

    /// Number of row-range segments the table is split into. Defaults to
    /// the machine's available parallelism; `0` is rejected at
    /// [`EngineBuilder::build`]. On a builder opened from a persisted store
    /// this *discards* the store's boundaries, footer statistics and codes:
    /// [`EngineBuilder::build`] re-partitions and recomputes statistics,
    /// scanning every column (faulting in all pages of a mapped store).
    #[must_use]
    pub fn partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self.preloaded = None;
        self.preloaded_codes = None;
        self
    }

    /// Number of worker threads (no implicit cap — oversubscribing the
    /// machine is the caller's choice). Defaults to the machine's available
    /// parallelism; `1` executes inline without spawning; `0` is rejected
    /// at [`EngineBuilder::build`].
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Search parameters (schedule, ordering, materialisation threshold).
    ///
    /// `refine_survivors` is forced to `true`: merging per-segment answers
    /// requires exact scores, and exact scores are also what makes the
    /// uniform parallel result bit-identical to the sequential one. For a
    /// query whose effective rule is weighted, any ordering other than
    /// [`DimensionOrdering::Explicit`] is replaced by the weighted default
    /// ordering — the same rewrite the sequential weighted entry points
    /// apply (and what keeps [`Engine::sequential_reference`] comparable);
    /// pass an explicit permutation to pin a specific order. Both planners
    /// run the params' ordering and schedule in every segment.
    #[must_use]
    pub fn params(mut self, params: BondParams) -> Self {
        self.params = params;
        self
    }

    /// Which metric + pruning criterion to serve by default — a
    /// [`QuerySpec::rule`] override replaces it per query. Defaults to
    /// [`RuleKind::HistogramHq`]. Weighted kinds switch non-`Explicit`
    /// orderings to [`DimensionOrdering::WeightedQueryDescending`] per
    /// query (see [`EngineBuilder::params`]).
    #[must_use]
    pub fn rule(mut self, rule: RuleKind) -> Self {
        self.rule = rule;
        self
    }

    /// Whether segments of one query share their pruning bound κ through an
    /// atomic cell (default `true`). Disabling isolates the segments — same
    /// answers, strictly less pruning (and no adaptive segment skipping,
    /// which consumes the shared κ); useful for measuring the κ-sharing
    /// benefit.
    #[must_use]
    pub fn share_kappa(mut self, share: bool) -> Self {
        self.share_kappa = share;
        self
    }

    /// How queries move through their segments by default (default
    /// [`PlannerKind::Uniform`]) — a [`QuerySpec::planner`] override
    /// replaces it per query. [`PlannerKind::Adaptive`] visits segments
    /// most-promising-first and enables κ-aware whole-segment skipping;
    /// the answers stay bit-identical either way.
    #[must_use]
    pub fn planner(mut self, planner: PlannerKind) -> Self {
        self.planner = planner;
        self
    }

    /// How queries read column data by default (default
    /// [`ScanMode::Exact`]) — a [`QuerySpec::scan_mode`] override replaces
    /// it per query. [`ScanMode::QuantizedFilter`] sweeps the quantized
    /// code companions first and refines only surviving rows exactly
    /// (bit-identical answers). Codes are built lazily on first use and
    /// cached per bit width; engines opened from a store persisted with
    /// codes reuse the footer's codes directly.
    #[must_use]
    pub fn scan_mode(mut self, scan: ScanMode) -> Self {
        self.scan = scan;
        self
    }

    /// Finishes the build: validates the configuration, partitions the
    /// table, and computes the per-segment statistics (and their zone-map
    /// envelopes) once — every query of every future batch reuses them.
    ///
    /// # Errors
    ///
    /// [`BondError::InvalidParams`] when `partitions` or `threads` is zero
    /// or the default rule carries invalid weight values;
    /// [`BondError::WeightDimensionMismatch`] when the default rule's
    /// weights do not match the table's dimensionality;
    /// [`BondError::Storage`] when preloaded boundaries do not tile the
    /// table.
    pub fn build(self) -> Result<Engine> {
        if self.partitions == 0 {
            return Err(BondError::InvalidParams("partitions must be non-zero".into()));
        }
        if self.threads == 0 {
            return Err(BondError::InvalidParams("threads must be non-zero".into()));
        }
        let dims = self.table.dims();
        if let Some(w) = self.rule.weights() {
            if w.len() != dims {
                return Err(BondError::WeightDimensionMismatch { expected: dims, actual: w.len() });
            }
        }
        self.rule.validate(dims)?;
        let mut params = self.params;
        params.refine_survivors = true;
        let (specs, stats) = match self.preloaded {
            Some((specs, stats)) => {
                // A store's footer was validated structurally at open; the
                // same shared validator re-checks layouts handed to the
                // builder directly (e.g. a hand-assembled `PersistedStore`),
                // so smuggled boundaries cannot break the merge.
                validate_store_inputs(&self.table, &specs, &stats).map_err(BondError::Storage)?;
                (specs, stats)
            }
            None => {
                let specs = self.table.partition_specs(self.partitions);
                let stats = specs
                    .iter()
                    .map(|s| Ok(s.view(&self.table).map_err(BondError::Storage)?.stats()))
                    .collect::<Result<Vec<SegmentStats>>>()?;
                (specs, stats)
            }
        };
        let envelopes: Vec<Option<Envelope>> = stats.iter().map(SegmentStats::envelope).collect();
        let metrics = EngineMetrics::new(MetricsRegistry::default());
        if let Some(us) = self.open_micros {
            metrics.open_cold_us.record(us);
        }
        // Seed the code cache from the store footer when the persisted
        // codes still describe this engine's partitioning (they do unless
        // the builder re-partitioned, which clears them anyway).
        let mut codes_cache: BTreeMap<u8, Arc<StoreCodes>> = BTreeMap::new();
        if let Some(codes) = self.preloaded_codes.filter(|codes| codes.matches_specs(&specs)) {
            codes_cache.insert(codes.bits(), Arc::new(codes));
        }
        Ok(Engine {
            inner: Arc::new(EngineInner {
                table: self.table,
                specs,
                stats,
                envelopes,
                threads: self.threads,
                params,
                rule: self.rule,
                share_kappa: self.share_kappa,
                planner: self.planner,
                scan: self.scan,
                row_sums: OnceLock::new(),
                codes: Mutex::new(codes_cache),
                metrics,
            }),
        })
    }
}

/// The engine's shared state: everything a worker thread needs, owned.
#[derive(Debug)]
struct EngineInner {
    table: Arc<DecomposedTable>,
    /// Partition boundaries, stored lifetime-free; [`Segment`] views are
    /// materialised from these per call.
    specs: Vec<SegmentSpec>,
    /// Per-segment statistics, computed once at build; the input of the
    /// adaptive planner and the zone-map skip checks.
    stats: Vec<SegmentStats>,
    /// Per-segment zone maps derived from `stats`, cached so batches do not
    /// re-derive them on every [`Engine::execute`] call.
    envelopes: Vec<Option<Envelope>>,
    threads: usize,
    params: BondParams,
    rule: RuleKind,
    share_kappa: bool,
    planner: PlannerKind,
    scan: ScanMode,
    /// Full-table `T(x)`, materialised lazily the first time any request's
    /// rule needs it; workers slice it per segment.
    row_sums: OnceLock<Vec<f64>>,
    /// Quantized code companions, cached per bit width: built lazily on the
    /// first scan that needs them (or seeded from a store footer) and
    /// shared by every later query at that width.
    codes: Mutex<BTreeMap<u8, Arc<StoreCodes>>>,
    /// Pre-registered metric handles; every hot-path emission is a relaxed
    /// atomic bump on one of these.
    metrics: EngineMetrics,
}

/// A query-execution engine bound to one decomposed table, which it owns.
///
/// Construction partitions the table and pre-materialises shared state;
/// [`Engine::execute`] then serves whole (possibly heterogeneous) batches,
/// [`Engine::search`] single queries. The engine is `Send + Sync +
/// 'static` and [`Engine::clone`] is one `Arc` bump — store it in a
/// server, share it across threads, move it into workers.
#[derive(Debug, Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

/// How a top-k request executes: [`Engine::resolve_topk`]'s answer, which
/// [`Engine::execute`] runs and [`Engine::explain`] renders.
pub(crate) struct TopKQuery<'b> {
    pub(crate) rule: &'b RuleKind,
    pub(crate) planner: PlannerKind,
    pub(crate) scan: ScanMode,
    pub(crate) metric: Box<dyn DecomposableMetric>,
    pub(crate) objective: Objective,
    /// Whether segments may be skipped whole against the shared κ.
    pub(crate) skipping: bool,
    /// `T(q)`, for the total-mass half of the zone-map bound.
    pub(crate) query_sum: f64,
    /// Position `p` executes segment `visit_order[p]`; `None` visits in
    /// row order ([`Engine::plan_visit_order`]).
    pub(crate) visit_order: Option<Vec<usize>>,
    /// The query's one plan, run by every segment.
    pub(crate) plan: SegmentPlan,
}

/// A top-k request as the engine pass runs it.
struct TopKRun<'b> {
    query: TopKQuery<'b>,
    /// The code companions a quantized scan sweeps, resolved (and built,
    /// on the cache's first miss) before any task runs.
    codes: Option<Arc<StoreCodes>>,
}

/// A multi-feature request as the engine pass runs it.
struct MultiFeatureRun<'b> {
    searcher: MultiFeatureSearcher<'b>,
    queries: Vec<FeatureQuery>,
    aggregate: Box<dyn ScoreAggregate>,
}

enum ResolvedKind<'b> {
    TopK(TopKRun<'b>),
    MultiFeature(MultiFeatureRun<'b>),
}

/// Everything `execute` resolves once per request before scheduling.
struct ResolvedQuery<'b> {
    spec: &'b QuerySpec,
    /// The order answers rank in; multi-feature requests maximize their
    /// combined similarity whatever their component metrics.
    objective: Objective,
    /// Per-segment eligible rows (`filter ∧ live`) of a filtered request,
    /// counted once at validation; tasks read them instead of recounting.
    eligible: Option<Vec<usize>>,
    kappa: Option<SharedKappa>,
    kind: ResolvedKind<'b>,
}

impl<'b> ResolvedQuery<'b> {
    fn topk(&self) -> Option<&TopKRun<'b>> {
        match &self.kind {
            ResolvedKind::TopK(run) => Some(run),
            ResolvedKind::MultiFeature(_) => None,
        }
    }

    /// The pruning rule stamped on this query's traces (`None` for
    /// multi-feature requests: each feature prunes under its own rule).
    fn rule_name(&self) -> Option<&'static str> {
        self.topk().map(|run| run.query.rule.name())
    }

    fn visit_order(&self) -> Option<&[usize]> {
        self.topk()?.query.visit_order.as_deref()
    }
}

/// One `execute` call's read-only state, shared by every task.
struct Pass<'b> {
    resolved: Vec<ResolvedQuery<'b>>,
    /// The zero-copy segment views, materialised once per call.
    segments: Vec<Segment<'b>>,
    /// The `T(x)` table, when any request's rule needs it.
    row_sums: Option<&'b [f64]>,
    /// Whether the columns are served by a file mapping — the only case
    /// where access-pattern advice reaches a kernel.
    mapped: bool,
}

/// One `(query, segment)` task's inputs: the pass, the query, and the
/// segment its visit position resolved to.
#[derive(Clone, Copy)]
struct Task<'p> {
    pass: &'p Pass<'p>,
    rq: &'p ResolvedQuery<'p>,
    si: usize,
    segment: &'p Segment<'p>,
}

impl Task<'_> {
    /// The segment's eligible rows as a local bitmap: tombstones ∧ the
    /// predicate filter.
    fn eligible_bitmap(&self) -> Bitmap {
        let mut local = self.segment.live_bitmap();
        if let Some(filter) = self.rq.spec.filter_override() {
            local.and_with(&filter.slice(self.segment.range()));
        }
        local
    }
}

/// The outcome of a segment skipped before any of its columns was read.
fn skipped(rule: Option<&'static str>) -> SearchOutcome {
    let trace = PruneTrace { segment_skipped: true, rule, ..PruneTrace::default() };
    SearchOutcome { hits: Vec::new(), trace }
}

impl Engine {
    /// Starts building an engine over `table` with default settings.
    ///
    /// Accepts the table by value or already wrapped in an [`Arc`]; either
    /// way the engine takes (shared) ownership — no lifetime ties the
    /// engine to a stack frame.
    pub fn builder(table: impl Into<Arc<DecomposedTable>>) -> EngineBuilder {
        let parallelism = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        EngineBuilder {
            table: table.into(),
            partitions: parallelism,
            threads: parallelism,
            params: BondParams::default(),
            rule: RuleKind::HistogramHq,
            share_kappa: true,
            planner: PlannerKind::Uniform,
            scan: ScanMode::Exact,
            preloaded: None,
            preloaded_codes: None,
            open_micros: None,
        }
    }

    /// Persists the engine's table, partition boundaries and cached
    /// per-segment statistics as a v2 segment store at `path`. The file can
    /// be reopened — in this or any other process — with
    /// [`EngineBuilder::open`], yielding an engine that answers
    /// bit-identically without recomputing anything. The footer's
    /// learned-state section is written empty.
    ///
    /// The store also carries the engine's 8-bit quantized code companions
    /// (built here if no query has needed them yet), so a reopened engine
    /// serves [`ScanMode::QuantizedFilter`] without re-encoding a single
    /// fragment. Tables whose values cannot be quantized (non-finite
    /// entries) persist without codes.
    ///
    /// # Errors
    ///
    /// [`BondError::Storage`] on I/O failure.
    pub fn persist(&self, path: impl AsRef<Path>) -> Result<()> {
        let span = Span::begin(names::SPAN_STORE_PERSIST);
        let codes = self.ensure_codes(DEFAULT_CODE_BITS).ok();
        let report = save_store_with_codes(
            &self.inner.table,
            &self.inner.specs,
            &self.inner.stats,
            None,
            codes.as_deref(),
            path.as_ref(),
        )
        .map_err(BondError::Storage)?;
        drop(span);
        self.inner.metrics.persist_us.record(report.elapsed_micros);
        self.inner.metrics.persist_bytes.add(report.bytes_written);
        Ok(())
    }

    /// The quantized code companions at `bits` bits per value, built on
    /// first use and cached (seeded from the store footer for engines
    /// opened from a store persisted with codes). Quantized scan modes call
    /// this implicitly; exposed so callers can pre-warm the cache off the
    /// query path.
    ///
    /// # Errors
    ///
    /// [`BondError::InvalidParams`] for a bit width outside 1..=8;
    /// [`BondError::Storage`] when the table cannot be quantized
    /// (non-finite values).
    pub fn ensure_codes(&self, bits: u8) -> Result<Arc<StoreCodes>> {
        if bits == 0 || bits > 8 {
            return Err(BondError::InvalidParams(format!(
                "scan-mode code bits must be in 1..=8, got {bits}"
            )));
        }
        // a poisoned cache still holds only fully built companions (an
        // entry is inserted after its build succeeds), so recovering the
        // guard is safe
        let mut cache = self.inner.codes.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(codes) = cache.get(&bits) {
            return Ok(Arc::clone(codes));
        }
        let span = Span::begin(names::SPAN_ENGINE_CODES_BUILD).detail(bits as u64);
        self.inner.metrics.codes_builds.inc();
        let codes =
            StoreCodes::build(&self.inner.table, &self.inner.specs, &self.inner.stats, bits)
                .map_err(BondError::Storage)?;
        drop(span);
        let codes = Arc::new(codes);
        cache.insert(bits, Arc::clone(&codes));
        Ok(codes)
    }

    /// The code companion [`ScanMode::QuantizedFilter`] sweeps:
    /// [`Engine::ensure_codes`] at [`DEFAULT_CODE_BITS`].
    ///
    /// # Errors
    ///
    /// As [`Engine::ensure_codes`].
    pub fn ensure_adaptive_codes(&self) -> Result<Arc<StoreCodes>> {
        self.ensure_codes(DEFAULT_CODE_BITS)
    }

    /// The engine's [`MetricsRegistry`]: every executed batch, scan,
    /// zone-map skip, merge miss and persist call lands
    /// here as a counter/gauge/histogram update under a stable dotted
    /// name. Render it with [`MetricsRegistry::render_text`]
    /// (Prometheus exposition text) or [`MetricsRegistry::render_json`]
    /// (one machine-readable line). One registry per engine; a
    /// [`crate::service::Server`] registers its own metrics in its
    /// engine's.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics.registry
    }

    /// The storage backend serving the engine's column data:
    /// [`StorageBackend::Mapped`] for an engine reopened from a store with
    /// mapped columns, [`StorageBackend::Heap`] otherwise.
    pub fn storage_backend(&self) -> StorageBackend {
        self.inner.table.backend()
    }

    /// The table this engine serves.
    pub fn table(&self) -> &DecomposedTable {
        &self.inner.table
    }

    /// The engine's partition boundaries, in row order.
    pub fn segment_specs(&self) -> &[SegmentSpec] {
        &self.inner.specs
    }

    /// Number of partitions actually in use (may be lower than requested
    /// for tiny tables).
    pub fn partitions(&self) -> usize {
        self.inner.specs.len()
    }

    /// The worker-thread count.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// The default metric + rule the engine serves when a [`QuerySpec`]
    /// does not override it.
    pub fn rule(&self) -> &RuleKind {
        &self.inner.rule
    }

    /// The default planning policy.
    pub fn planner(&self) -> PlannerKind {
        self.inner.planner
    }

    /// The default scan mode (how queries read column data unless a
    /// [`QuerySpec::scan_mode`] override says otherwise).
    pub fn scan_mode(&self) -> ScanMode {
        self.inner.scan
    }

    /// The effective search parameters.
    pub fn params(&self) -> &BondParams {
        &self.inner.params
    }

    /// Per-dimension statistics of every segment — the per-partition view
    /// of the collection's distribution and the input of the adaptive
    /// planner. Computed once at build time and cached; calls are free.
    pub fn segment_stats(&self) -> &[SegmentStats] {
        &self.inner.stats
    }

    /// A rough work estimate for `spec`, in `(candidate, dimension)` cells:
    /// every eligible live row through every dimension — plus, for a code
    /// scan, its code cells at an eighth of an exact cell each — floored at
    /// `k` rows in a segment the filter leaves non-empty. A pure function
    /// of the segment statistics, the request's eligibility, `k` and scan
    /// mode: it learns nothing from traffic, and no plan, skip or queue
    /// reads it. It is deleted once the benchmark's
    /// `planner.estimate_cost_us` row, its one caller, is retired (ROADMAP
    /// item 15).
    pub fn estimate_cost(&self, spec: &QuerySpec) -> f64 {
        // A domain-mismatched filter prices as unfiltered here and is
        // rejected by `validate` before execution.
        let eligible = spec.filter_override().and_then(|f| self.filter_eligibility(f).ok());
        let (dims, cell_cost) = match spec.kind() {
            QueryKind::MultiFeature(mf) => {
                (mf.features().iter().map(|f| f.query().len()).sum(), 1.0)
            }
            QueryKind::TopK => {
                let scan = spec.scan_mode_override().unwrap_or(self.inner.scan);
                (self.inner.table.dims(), if scan.uses_codes() { 1.125 } else { 1.0 })
            }
        };
        let rows = |si: usize, live: usize| match &eligible {
            None => live,
            Some(counts) if counts[si] == 0 => 0,
            Some(counts) => counts[si].max(spec.k()).min(live),
        };
        let stats = &self.inner.stats;
        stats.iter().enumerate().map(|(si, s)| (rows(si, s.live_rows) * dims) as f64).sum::<f64>()
            * cell_cost
    }

    /// The `BondParams` a query executing under `rule` effectively uses:
    /// the engine's params, with non-explicit orderings switched to the
    /// weighted default ordering for weighted rules — the same rewrite the
    /// sequential weighted entry points apply.
    fn params_for(&self, rule: &RuleKind) -> BondParams {
        let mut params = self.inner.params.clone();
        if rule.weights().is_some() && !matches!(params.ordering, DimensionOrdering::Explicit(_)) {
            params.ordering = DimensionOrdering::WeightedQueryDescending;
        }
        params
    }

    /// The segment *visit order* of a query that shares κ and either plans
    /// from statistics or filters on codes: segments sorted
    /// most-promising-first by their optimistic zone-map envelope score
    /// toward the query, ties broken on the segment index. Visiting the
    /// query's own neighbourhood first establishes κ before any far segment
    /// starts, so those segments skip, or lose their rows at the code
    /// sweep's first block, instead of warming up against an empty bound.
    /// Any visit order gives the same answer; this one just minimises
    /// wasted scans. `None` — every other query — visits in row order.
    fn plan_visit_order(
        &self,
        planner: PlannerKind,
        scan: ScanMode,
        metric: &dyn DecomposableMetric,
        objective: Objective,
        query: &[f64],
    ) -> Option<Vec<usize>> {
        let inner = &*self.inner;
        let promising_first = planner.is_stats_driven() || scan == ScanMode::QuantizedFilter;
        if !(inner.share_kappa && promising_first) {
            return None;
        }
        let mut order: Vec<usize> = (0..inner.specs.len()).collect();
        let promise: Vec<f64> = inner
            .envelopes
            .iter()
            .map(|env| match env {
                Some((mins, maxs)) => metric.envelope_best_score(query, mins, maxs),
                None => match objective {
                    Objective::Maximize => f64::NEG_INFINITY,
                    Objective::Minimize => f64::INFINITY,
                },
            })
            .collect();
        order.sort_by(|&a, &b| {
            let cmp = match objective {
                Objective::Maximize => descending_nan_last(promise[a], promise[b]),
                Objective::Minimize => ascending_nan_last(promise[a], promise[b]),
            };
            cmp.then(a.cmp(&b))
        });
        Some(order)
    }

    /// Checks one request against this engine's table and the spec's
    /// effective rule, without executing anything: the up-front validation
    /// [`Engine::execute`] applies to every spec, exposed so admission
    /// control (e.g. [`crate::service::Server::submit`]) can reject a bad
    /// request immediately instead of poisoning a coalesced batch.
    pub fn validate(&self, spec: &QuerySpec) -> Result<()> {
        self.admit(spec).map(drop)
    }

    /// [`Engine::validate`], keeping what it counted: the per-segment
    /// eligible rows of a filtered request (`None` when unfiltered), which
    /// resolution hands to the tasks and EXPLAIN renders.
    pub(crate) fn admit(&self, spec: &QuerySpec) -> Result<Option<Vec<usize>>> {
        let dims = self.inner.table.dims();
        // A predicate filter must address the table's full row domain and
        // leave at least one live row eligible; `k` is then checked against
        // the *eligible* count, so an over-asking filtered request fails at
        // admission instead of returning a silently short answer.
        let counts = spec.filter_override().map(|f| self.filter_eligibility(f)).transpose()?;
        let eligible = match &counts {
            Some(counts) => counts.iter().sum(),
            None => self.inner.table.live_rows(),
        };
        if counts.is_some() && eligible == 0 {
            return Err(BondError::InvalidFilter("filter leaves no live row eligible".into()));
        }
        if spec.k() == 0 || spec.k() > eligible {
            return Err(BondError::InvalidK { k: spec.k(), rows: eligible });
        }
        match spec.kind() {
            QueryKind::TopK => {
                if spec.vector().len() != dims {
                    return Err(BondError::QueryDimensionMismatch {
                        expected: dims,
                        actual: spec.vector().len(),
                    });
                }
                finite("query", spec.vector())?;
                let rule = spec.rule_override().unwrap_or(&self.inner.rule);
                if let Some(w) = rule.weights() {
                    if w.len() != dims {
                        return Err(BondError::WeightDimensionMismatch {
                            expected: dims,
                            actual: w.len(),
                        });
                    }
                    finite("weight", w)?;
                }
                // Invalid weight *values* (directly constructed variants
                // bypassing the validating constructors) error here instead
                // of panicking in `make_metric` during execution.
                rule.validate(dims)?;
            }
            QueryKind::MultiFeature(mf) => self.validate_multifeature(spec, mf)?,
        }
        Ok(counts)
    }

    /// The multi-feature half of [`Engine::validate`]: feature arity,
    /// per-feature dimensionalities (typed as
    /// [`BondError::FeatureDimensionMismatch`]), shared row space, the
    /// aggregate's weights, and the overrides this kind does not accept.
    fn validate_multifeature(&self, spec: &QuerySpec, mf: &MultiFeatureSpec) -> Result<()> {
        if spec.rule_override().is_some() {
            return Err(BondError::InvalidParams(
                "multi-feature requests cannot override the pruning rule — each feature \
                 prunes under its own metric's rule"
                    .into(),
            ));
        }
        if let Some(scan) = spec.scan_mode_override().filter(|&scan| scan != ScanMode::Exact) {
            return Err(BondError::InvalidParams(format!(
                "multi-feature requests execute exact scans only, got scan mode {}",
                scan.label()
            )));
        }
        if mf.features().is_empty() {
            return Err(BondError::InvalidParams(
                "multi-feature request needs at least one feature".into(),
            ));
        }
        mf.aggregate().validate(mf.features().len())?;
        let rows = self.inner.table.rows();
        for (f, feature) in mf.features().iter().enumerate() {
            let (expected, feature_rows) = match feature.table() {
                Some(table) => (table.dims(), table.rows()),
                None => (self.inner.table.dims(), rows),
            };
            if feature.query().len() != expected {
                return Err(BondError::FeatureDimensionMismatch {
                    feature: f,
                    expected,
                    actual: feature.query().len(),
                });
            }
            finite("feature query", feature.query())?;
            if feature_rows != rows {
                return Err(BondError::InvalidParams(format!(
                    "feature {f}'s collection has {feature_rows} rows, the engine's table \
                     has {rows}"
                )));
            }
        }
        Ok(())
    }

    /// Per-segment eligible-row counts under `filter` — `filter ∧ live`,
    /// segment by segment, without materialising any intersection. The
    /// shared precondition check of [`Engine::validate`] and
    /// [`Engine::estimate_cost`].
    ///
    /// # Errors
    ///
    /// [`BondError::InvalidFilter`] when the bitmap's domain is not the
    /// table's full row count; [`BondError::Storage`] when a segment's
    /// boundaries do not fit the table.
    pub(crate) fn filter_eligibility(&self, filter: &Bitmap) -> Result<Vec<usize>> {
        let inner = &*self.inner;
        if filter.len() != inner.table.rows() {
            return Err(BondError::InvalidFilter(format!(
                "filter covers {} rows but the table has {}",
                filter.len(),
                inner.table.rows()
            )));
        }
        inner
            .specs
            .iter()
            .map(|s| {
                let segment = s.view(&inner.table).map_err(BondError::Storage)?;
                Ok(filter.slice(segment.range()).intersection_count(&segment.live_bitmap()))
            })
            .collect()
    }

    /// Runs one k-NN query under the engine defaults; equivalent to a
    /// single-spec [`Engine::execute`].
    pub fn search(&self, query: &[f64], k: usize) -> Result<QueryOutcome> {
        self.search_spec(&QuerySpec::new(query.to_vec(), k))
    }

    /// Runs one request, honouring its per-query overrides; equivalent to a
    /// single-spec [`Engine::execute`].
    pub fn search_spec(&self, spec: &QuerySpec) -> Result<QueryOutcome> {
        let batch = RequestBatch::single(spec.clone());
        let mut outcome = self.execute(&batch)?;
        outcome.queries.pop().ok_or_else(|| {
            BondError::ServiceUnavailable("the engine pass answered no query".into())
        })
    }

    /// Executes a whole batch in one engine pass: every spec is validated
    /// and resolved once, all `queries × segments` tasks run on one worker
    /// pool, and each query's per-segment answers are merged into its own
    /// top-`k`. Specs may mix `k`s, rules, planners and request kinds
    /// freely — heterogeneity costs nothing beyond the per-query setup it
    /// always required. Under adaptive planning, segments whose zone-map
    /// bound cannot reach the query's current κ are skipped entirely (their
    /// [`SegmentRun::trace`] reports `segment_skipped`).
    ///
    /// Every spec is validated before any work starts; the first invalid
    /// spec fails the whole call.
    ///
    /// Filtered requests ([`QuerySpec::filter`]) restrict every stage to
    /// their eligible rows; multi-feature requests
    /// ([`QuerySpec::multi_feature`]) run one synchronized scan per segment
    /// under the same shared-κ protocol and merge exactly like top-k
    /// requests. All kinds coexist freely in one batch.
    pub fn execute(&self, batch: &RequestBatch) -> Result<BatchOutcome> {
        let eligible: Vec<Option<Vec<usize>>> =
            batch.specs().iter().map(|spec| self.admit(spec)).collect::<Result<_>>()?;
        if batch.is_empty() {
            return Ok(BatchOutcome { queries: Vec::new() });
        }
        let inner = &*self.inner;
        let batch_start = Instant::now();
        let plan_span = Span::begin(names::SPAN_ENGINE_PLAN).detail(batch.len() as u64);
        let resolved: Vec<ResolvedQuery<'_>> = batch
            .specs()
            .iter()
            .zip(eligible)
            .map(|(spec, eligible)| self.resolve(spec, eligible))
            .collect::<Result<_>>()?;
        let pass = self.prepare_pass(resolved)?;
        drop(plan_span);

        let n_segments = pass.segments.len();
        let outcomes = run_tasks(inner.threads, batch.len() * n_segments, |task| {
            self.run_task(&pass, task / n_segments, task % n_segments)
        });
        let outcomes: Vec<SearchOutcome> = outcomes.into_iter().collect::<Result<_>>()?;
        let queries = self.merge_pass(&pass, outcomes);
        inner.metrics.batches.inc();
        // Every query of a coalesced batch waits for the whole engine pass,
        // so the batch's wall time *is* the latency each submitter observes.
        let elapsed_us = batch_start.elapsed().as_micros() as u64;
        for _ in 0..batch.len() {
            inner.metrics.latency_us.record(elapsed_us);
        }
        Ok(BatchOutcome { queries })
    }

    /// The effective rule, planner and scan of a top-k `spec`, and what
    /// they imply: metric, objective, skipping, visit order and the plan
    /// every segment runs. The one resolution [`Engine::execute`] runs and
    /// [`Engine::explain`] renders, which is what makes the rendered plan
    /// the executed plan.
    pub(crate) fn resolve_topk<'b>(&'b self, spec: &'b QuerySpec) -> TopKQuery<'b> {
        let inner = &*self.inner;
        let rule = spec.rule_override().unwrap_or(&inner.rule);
        let planner = spec.planner_override().unwrap_or(inner.planner);
        let scan = spec.scan_mode_override().unwrap_or(inner.scan);
        let metric = rule.make_metric();
        let objective = rule.objective();
        let visit_order =
            self.plan_visit_order(planner, scan, metric.as_ref(), objective, spec.vector());
        let plan = SegmentPlan::uniform(
            &self.params_for(rule),
            spec.vector(),
            rule.weights(),
            inner.table.dims(),
        );
        TopKQuery {
            rule,
            planner,
            scan,
            metric,
            objective,
            skipping: planner.is_stats_driven() && inner.share_kappa,
            query_sum: spec.vector().iter().sum(),
            visit_order,
            plan,
        }
    }

    /// Resolves one validated spec for the engine pass; `eligible` is what
    /// [`Engine::admit`] counted for it.
    fn resolve<'b>(
        &'b self,
        spec: &'b QuerySpec,
        eligible: Option<Vec<usize>>,
    ) -> Result<ResolvedQuery<'b>> {
        let (objective, kind) = match spec.kind() {
            QueryKind::TopK => {
                let query = self.resolve_topk(spec);
                // Quantized scans resolve (and, on the cache's first miss,
                // build) their code companions up front — tasks only read.
                let codes = query.scan.uses_codes();
                let codes = codes.then(|| self.ensure_adaptive_codes()).transpose()?;
                let objective = query.objective;
                (objective, ResolvedKind::TopK(TopKRun { query, codes }))
            }
            // The combined similarity is maximized regardless of the
            // component metrics (Euclidean components are flipped onto the
            // similarity scale before aggregation), so one Maximize cell
            // serves any mix.
            QueryKind::MultiFeature(mf) => {
                (Objective::Maximize, ResolvedKind::MultiFeature(self.resolve_multifeature(mf)?))
            }
        };
        let kappa = self.inner.share_kappa.then(|| SharedKappa::new(objective));
        Ok(ResolvedQuery { spec, objective, eligible, kappa, kind })
    }

    fn resolve_multifeature<'b>(&'b self, mf: &'b MultiFeatureSpec) -> Result<MultiFeatureRun<'b>> {
        let tables: Vec<&DecomposedTable> = mf
            .features()
            .iter()
            .map(|f| f.table().map(|t| t.as_ref()).unwrap_or(&self.inner.table))
            .collect();
        let queries = mf
            .features()
            .iter()
            .map(|f| FeatureQuery { query: f.query().to_vec(), metric: f.metric() })
            .collect();
        Ok(MultiFeatureRun {
            searcher: MultiFeatureSearcher::new(tables)?,
            queries,
            aggregate: mf.aggregate().build()?,
        })
    }

    /// The per-call state every task reads besides its own query: segment
    /// views and `T(x)` when any rule needs it.
    fn prepare_pass<'b>(&'b self, resolved: Vec<ResolvedQuery<'b>>) -> Result<Pass<'b>> {
        let inner = &*self.inner;
        let segments = inner
            .specs
            .iter()
            .map(|s| s.view(&inner.table).map_err(BondError::Storage))
            .collect::<Result<_>>()?;
        let topk = || resolved.iter().filter_map(ResolvedQuery::topk);
        // The `T(x)` table, materialised once per engine the first time any
        // request's rule needs it.
        let row_sums = topk()
            .any(|run| run.query.rule.needs_total_mass())
            .then(|| inner.row_sums.get_or_init(|| inner.table.row_sums()).as_slice());
        let mapped = inner.table.backend() == StorageBackend::Mapped;
        Ok(Pass { resolved, segments, row_sums, mapped })
    }

    /// One `(query, segment)` task: the query at `qi`, at position `pos` of
    /// its visit order. Each stage may answer it: the filter window, then
    /// by request kind the synchronized multi-feature scan, or the zone-map
    /// skip and the segment search.
    fn run_task(&self, pass: &Pass<'_>, qi: usize, pos: usize) -> Result<SearchOutcome> {
        let rq = &pass.resolved[qi];
        // position `pos` of a query with a visit order executes its
        // `pos`-th most promising segment; everyone else visits in row
        // order. The merge permutes outcomes back into segment order.
        let si = rq.visit_order().map_or(pos, |order| order[pos]);
        let task = Task { pass, rq, si, segment: &pass.segments[si] };
        // Predicate filter: a window that leaves no live row eligible skips
        // the segment before any bound — or column — is touched.
        if let Some(eligible) = &rq.eligible {
            if eligible[si] == 0 {
                self.inner.metrics.filter_segments_empty.inc();
                return Ok(skipped(rq.rule_name()));
            }
            self.inner.metrics.filter_eligible_rows.add(eligible[si] as u64);
        }
        match &rq.kind {
            ResolvedKind::MultiFeature(run) => self.search_features(&task, run),
            ResolvedKind::TopK(run) => match self.try_skip_segment(&task, &run.query) {
                Some(skipped) => Ok(skipped),
                None => self.search_one_segment(&task, run),
            },
        }
    }

    /// The multi-feature stage: one synchronized scan
    /// ([`MultiFeatureSearcher::search_range`]) of the segment, pooling its
    /// combined-similarity κ with the query's other segments.
    fn search_features(&self, task: &Task<'_>, run: &MultiFeatureRun<'_>) -> Result<SearchOutcome> {
        let local = task.eligible_bitmap();
        if local.count() == 0 {
            // every row of the segment is deleted
            return Ok(skipped(None));
        }
        let scan_span = Span::begin(names::SPAN_ENGINE_SCAN).detail(task.si as u64);
        let ctx = MultiFeatureContext {
            kappa: task.rq.kappa.as_ref().map(|cell| cell as &dyn KappaCell),
            filter: Some(&local),
        };
        let result = run.searcher.search_range(
            &run.queries,
            run.aggregate.as_ref(),
            task.rq.spec.k(),
            self.inner.params.schedule,
            task.segment.range(),
            &ctx,
        );
        drop(scan_span);
        self.inner.metrics.multifeature_searches.inc();
        result
    }

    /// The search stage: run [`search_segment`] on the query's plan —
    /// exact BOND, or the code sweep plus exact refine when the query
    /// carries codes.
    fn search_one_segment(&self, task: &Task<'_>, run: &TopKRun<'_>) -> Result<SearchOutcome> {
        let inner = &*self.inner;
        let Task { pass, rq, si, segment } = *task;
        let (query, k) = (rq.spec.vector(), rq.spec.k());
        let _scan_span = Span::begin(names::SPAN_ENGINE_SCAN).detail(si as u64);
        let mut rule = run.query.rule.make_rule();
        let plan = &run.query.plan;
        // Mapped backend: hint the kernel about the exact scan the plan is
        // about to run — the first block's fragment slices are certain to
        // be read front to back. A code-filtered task's first block reads
        // code bytes instead, and only its survivors' cells after that, so
        // it gets no hint.
        if pass.mapped && run.codes.is_none() {
            let first_block = plan.schedule.next_block(0, inner.table.dims(), 0);
            segment.advise(plan.order.iter().take(first_block).copied(), Advice::Sequential);
        }
        // QuantizedFilter: hand the segment's code window to the searcher,
        // which sweeps it as a first pass and exactly refines only the
        // surviving rows.
        let codes = run.codes.as_ref().map(|codes| codes.segment_view(si)).transpose();
        let filter = rq.spec.filter_override().map(|f| f.slice(segment.range()));
        let ctx = SegmentContext {
            kappa: rq.kappa.as_ref().map(|cell| cell as &dyn KappaCell),
            row_sums: pass.row_sums.map(|sums| &sums[segment.range()]),
            plan: Some(plan),
            codes: codes.map_err(BondError::Storage)?,
            filter: filter.as_ref(),
        };
        let (metric, weights) = (run.query.metric.as_ref(), run.query.rule.weights());
        let mut outcome =
            search_segment(segment, query, metric, rule.as_mut(), k, weights, &inner.params, &ctx)?;
        // Stamp which pruning rule produced this trace — bound scales are
        // incomparable across rules, and downstream consumers (per-rule
        // metrics, ANALYZE) must not mix them.
        outcome.trace.rule = rq.rule_name();
        // A stats-driven query publishes the segment's k-th best *exact*
        // score as κ (k witnesses reach it), arming the zone-map skip for
        // segments that have not started yet.
        if let (true, Some(cell)) = (run.query.planner.is_stats_driven(), &rq.kappa) {
            if outcome.hits.len() >= k {
                cell.tighten(outcome.hits[k - 1].score);
            }
        }
        Ok(outcome)
    }

    /// Merges every query's task outcomes (task order: query-major, visit
    /// position minor) and records each answered query's metrics.
    fn merge_pass(&self, pass: &Pass<'_>, outcomes: Vec<SearchOutcome>) -> Vec<QueryOutcome> {
        let merge_span = Span::begin(names::SPAN_ENGINE_MERGE).detail(pass.resolved.len() as u64);
        let n_segments = pass.segments.len();
        let mut per_task = outcomes.into_iter();
        let mut queries = Vec::with_capacity(pass.resolved.len());
        for rq in &pass.resolved {
            let mut segment_outcomes: Vec<SearchOutcome> =
                per_task.by_ref().take(n_segments).collect();
            if let Some(order) = rq.visit_order() {
                // positions back to segment (row-range) order
                let mut by_segment: Vec<(usize, SearchOutcome)> =
                    order.iter().copied().zip(segment_outcomes).collect();
                by_segment.sort_unstable_by_key(|&(si, _)| si);
                segment_outcomes = by_segment.into_iter().map(|(_, outcome)| outcome).collect();
            }
            let outcome = self.merge_query(rq, &pass.segments, segment_outcomes);
            self.record_query_metrics(rq, &outcome);
            queries.push(outcome);
        }
        drop(merge_span);
        queries
    }

    /// Folds one answered query into the engine's metric handles: counts,
    /// executed work, per-segment search/skip tallies, and for top-k
    /// requests the per-rule scan counters.
    fn record_query_metrics(&self, rq: &ResolvedQuery<'_>, outcome: &QueryOutcome) {
        let m = &self.inner.metrics;
        m.queries.inc();
        let filter_cells = outcome.quant_filter_cells();
        m.scanned_cells.record(outcome.contributions_evaluated());
        for run in &outcome.segments {
            let trace = &run.trace;
            if trace.filter_cells > 0 {
                if let Some(counter) = trace.kernel.and_then(|k| m.kernel_counter(k)) {
                    counter.inc();
                }
            }
        }
        // skipped segments were not searched: zone-map skips (counted where
        // they happen) and segments a filter or tombstones left empty
        let searched = (outcome.segments.len() - outcome.segments_skipped()) as u64;
        m.segment_searched.add(searched);
        if let Some(counter) = rq.rule_name().and_then(|name| m.rule_counter(name)) {
            counter.add(searched);
        }
        if filter_cells > 0 {
            m.quant_filter_cells.add(filter_cells);
            m.quant_refine_rows.add(outcome.quant_refine_rows());
            if let Some(selectivity) = outcome.quant_filter_selectivity() {
                m.quant_filter_selectivity.record((selectivity * 100.0).round() as u64);
            }
        }
    }

    /// The zone-map check: when the query's κ is already tighter than the
    /// best score any vector inside the segment's envelope could reach, the
    /// segment contributes nothing and is skipped without touching its
    /// columns. Two independent per-segment bounds combine (the tighter
    /// wins): the per-dimension value envelope and the row-sum (total-mass)
    /// envelope. The same ε-slack as candidate pruning keeps boundary ties
    /// safe. The envelope covers the whole segment, so its bound is
    /// conservative (still valid) for any eligible subset — filtered
    /// zone-map skips can never drop an eligible row.
    fn try_skip_segment(&self, task: &Task<'_>, query: &TopKQuery<'_>) -> Option<SearchOutcome> {
        let Task { rq, si, .. } = *task;
        if !query.skipping {
            return None;
        }
        let kappa = rq.kappa.as_ref()?.get()?;
        let optimistic = self.optimistic_bound(
            si,
            query.metric.as_ref(),
            query.objective,
            rq.spec.vector(),
            query.query_sum,
        )?;
        let slack = prune_slack(kappa);
        let skip = match query.objective {
            Objective::Maximize => optimistic < kappa - slack,
            Objective::Minimize => optimistic > kappa + slack,
        };
        if !skip {
            return None;
        }
        self.inner.metrics.segment_skipped.inc();
        Some(skipped(rq.rule_name()))
    }

    /// The tightest optimistic score any vector inside segment `si`'s
    /// zone maps could reach for `query`: the per-dimension value envelope
    /// combined with the row-sum (total-mass) envelope, tighter bound
    /// winning — exactly the bound [`Engine::try_skip_segment`] compares
    /// against κ, shared with [`Engine::explain`]'s rendering. `None` for
    /// a segment with no envelope (an empty segment).
    pub(crate) fn optimistic_bound(
        &self,
        si: usize,
        metric: &dyn DecomposableMetric,
        objective: Objective,
        query: &[f64],
        query_sum: f64,
    ) -> Option<f64> {
        let (mins, maxs) = self.inner.envelopes[si].as_ref()?;
        let mut optimistic = metric.envelope_best_score(query, mins, maxs);
        let stats = &self.inner.stats[si];
        if let Some(mass_bound) =
            metric.mass_best_score(query_sum, stats.row_sum_min, stats.row_sum_max, query.len())
        {
            optimistic = match objective {
                Objective::Maximize => optimistic.min(mass_bound),
                Objective::Minimize => optimistic.max(mass_bound),
            };
        }
        Some(optimistic)
    }

    /// Merges per-segment outcomes (global row ids) into the query's global
    /// top-k.
    ///
    /// Every segment refined in the query's one dimension order, so scores
    /// are directly comparable and the k best under the total
    /// `(score, row)` order match the sequential searcher bit for bit.
    /// Exactly equal rows (duplicates) order by row id, in the engine and
    /// the sequential reference alike.
    fn merge_query(
        &self,
        rq: &ResolvedQuery<'_>,
        segments: &[Segment<'_>],
        segment_outcomes: Vec<SearchOutcome>,
    ) -> QueryOutcome {
        let k = rq.spec.k();
        let mut runs = Vec::with_capacity(segment_outcomes.len());
        let offer = |heap_push: &mut dyn FnMut(Scored)| {
            for (segment, outcome) in segments.iter().zip(segment_outcomes) {
                for &hit in &outcome.hits {
                    heap_push(hit);
                }
                runs.push(SegmentRun { rows: segment.range(), trace: outcome.trace });
            }
        };
        let hits = match rq.objective {
            Objective::Maximize => {
                let mut heap = TopKLargest::new(k);
                offer(&mut |s| heap.push(s.row, s.score));
                heap.into_sorted_vec()
            }
            Objective::Minimize => {
                let mut heap = TopKSmallest::new(k);
                offer(&mut |s| heap.push(s.row, s.score));
                heap.into_sorted_vec()
            }
        };
        // A segment that was scanned (not skipped) yet placed nothing in the
        // final top-k was work the zone map failed to avoid — a "skip miss".
        let missed = runs.iter().filter(|run| {
            !run.trace.segment_skipped && !hits.iter().any(|h| run.rows.contains(&(h.row as usize)))
        });
        self.inner.metrics.segment_missed.add(missed.count() as u64);
        let plan = rq.topk().map(|run| run.query.plan.clone());
        QueryOutcome { hits, segments: runs, plan }
    }

    /// Convenience: the sequential reference answer for the engine's
    /// default rule and parameters, computed by the classic single-threaded
    /// [`BondSearcher`] (used by tests, benches and doc examples to
    /// demonstrate equivalence).
    pub fn sequential_reference(&self, query: &[f64], k: usize) -> Result<Vec<Scored>> {
        self.sequential_reference_spec(&QuerySpec::new(query.to_vec(), k))
    }

    /// The sequential reference answer for one request, honouring its
    /// per-query rule override (the planner override is irrelevant — the
    /// reference is always the classic full-table scan).
    pub fn sequential_reference_spec(&self, spec: &QuerySpec) -> Result<Vec<Scored>> {
        self.validate(spec)?;
        let rule = spec.rule_override().unwrap_or(&self.inner.rule);
        let params = self.params_for(rule);
        let searcher = BondSearcher::new(&self.inner.table);
        let metric = rule.make_metric();
        let mut rule_instance = rule.make_rule();
        let outcome = searcher.search_with_rule(
            spec.vector(),
            metric.as_ref(),
            rule_instance.as_mut(),
            spec.k(),
            rule.weights(),
            &params,
        )?;
        Ok(outcome.hits)
    }
}

/// Rejects a NaN or infinite value of a request's `what` vector: no score,
/// bound or dimension order is defined for it.
fn finite(what: &'static str, values: &[f64]) -> Result<()> {
    match values.iter().position(|v| !v.is_finite()) {
        Some(dim) => Err(BondError::NonFinite { what, dim }),
        None => Ok(()),
    }
}

/// The engine's one scheduler: runs `task(i)` for every `i < n` on up to
/// `workers` threads, which claim indices from a shared counter, and
/// returns the results in index order. One worker runs the tasks inline,
/// without spawning.
fn run_tasks<T: Send + Sync>(workers: usize, n: usize, task: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(task).collect();
    }
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let next_task = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // ordering: relaxed — the atomic RMW alone makes each task
                // index unique; task *data* is published to the workers by
                // the scope's spawn (happens-before the closure runs),
                // not through this counter.
                let i = next_task.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // a claimed index is never claimed again, so the slot is
                // still empty
                let _ = slots[i].set(task(i));
            });
        }
    });
    slots.into_iter().map(|slot| slot.into_inner().expect("every task ran")).collect()
}
