//! Per-query requests and batched outcomes.
//!
//! Serving workloads are heterogeneous: a navigation step wants 10
//! neighbours under the engine's default rule while a re-ranking job in the
//! same batch wants 100 under a weighted metric. A [`QuerySpec`] carries
//! one query's *whole* request — its [`QueryKind`] (bare top-k or a
//! multi-feature combination), the vector, its own `k`, an optional
//! eligibility filter, and optional per-query overrides of the engine's
//! pruning rule and planner — and a [`RequestBatch`] collects specs so the
//! engine amortizes per-query setup (dimension ordering, `T(x)`
//! materialisation, worker-pool spawn) and schedules all
//! `queries × segments` work items on one pool. Every query still reports a
//! per-segment [`bond::PruneTrace`], preserving the paper's evaluation
//! instrumentation in the parallel engine.

use crate::planner::PlannerKind;
use crate::rules::RuleKind;
use bond::{BondError, FeatureMetricKind, PruneTrace, Result, SegmentPlan};
use bond_metrics::{FuzzyMax, FuzzyMin, ScoreAggregate, WeightedAverage};
use std::ops::Range;
use std::sync::Arc;
use vdstore::topk::Scored;
use vdstore::{Bitmap, DecomposedTable};

/// The admission-control class of a request: which queue it waits in at
/// the serving front-end. Within a coalesced batch every spec still
/// executes in one engine pass — priority governs *admission order* when
/// more work is queued than one pass takes, not execution resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive work, admitted before anything else.
    Interactive,
    /// The default class.
    #[default]
    Normal,
    /// Throughput work that yields to both other classes.
    Batch,
}

impl Priority {
    /// All classes, in admission order.
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Normal, Priority::Batch];

    /// The queue index of this class (admission order).
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Normal => 1,
            Priority::Batch => 2,
        }
    }
}

/// How a query's segment scans read column data: exact `f64` fragments
/// only, or a quantized first pass in front of the exact search. Either
/// way the answer is the sequential searcher's, bit for bit.
///
/// The quantized mode runs the code sweep of [`bond::quantfilter`] over
/// the store's `u8` code companions before touching exact fragments. Codes are built lazily per engine
/// and cached; engines opened from a store persisted by
/// [`crate::Engine::persist`] get their 8-bit codes from the footer for
/// free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScanMode {
    /// Exact fragments only — the classic BOND scan, no codes involved.
    #[default]
    Exact,
    /// Quantized first pass, exact refinement: every segment sweeps its
    /// 8-bit code columns first and only rows whose optimistic interval
    /// bound can still reach the pruning bound κ enter the exact search.
    /// Answers are bit-identical to [`ScanMode::Exact`] — the filter keeps
    /// a superset of the true top-k and the exact phase scores survivors
    /// in the same plan order.
    QuantizedFilter,
}

impl ScanMode {
    /// Whether this mode reads quantized code columns at all.
    pub fn uses_codes(self) -> bool {
        !matches!(self, ScanMode::Exact)
    }

    /// A short lowercase label for logs and reports.
    pub fn label(self) -> &'static str {
        match self {
            ScanMode::Exact => "exact",
            ScanMode::QuantizedFilter => "quantized-filter",
        }
    }
}

/// How the per-feature similarities of a multi-feature request combine
/// into one global score — a declarative, validatable mirror of the
/// [`ScoreAggregate`] implementations in `bond-metrics` (Section 8.2's
/// monotonic aggregates), so a spec stays plain data until admission.
#[derive(Debug, Clone, PartialEq)]
pub enum AggregateSpec {
    /// Weighted arithmetic mean; one non-negative weight per feature,
    /// normalized at build time.
    WeightedAverage(Vec<f64>),
    /// Fuzzy conjunction: the worst component similarity.
    FuzzyMin,
    /// Fuzzy disjunction: the best component similarity.
    FuzzyMax,
}

impl AggregateSpec {
    /// Checks the aggregate against the spec's feature count.
    pub fn validate(&self, features: usize) -> Result<()> {
        match self {
            AggregateSpec::WeightedAverage(weights) => {
                if weights.len() != features {
                    return Err(BondError::InvalidParams(format!(
                        "aggregate carries {} weights for {features} features",
                        weights.len()
                    )));
                }
                if WeightedAverage::new(weights.clone()).is_none() {
                    return Err(BondError::InvalidParams(
                        "aggregate weights must be non-negative with a positive sum".into(),
                    ));
                }
                Ok(())
            }
            AggregateSpec::FuzzyMin | AggregateSpec::FuzzyMax => Ok(()),
        }
    }

    /// Materialises the combining function. Call [`AggregateSpec::validate`]
    /// first; building an invalid weighted average is an error.
    pub fn build(&self) -> Result<Box<dyn ScoreAggregate>> {
        match self {
            AggregateSpec::WeightedAverage(weights) => WeightedAverage::new(weights.clone())
                .map(|a| Box::new(a) as Box<dyn ScoreAggregate>)
                .ok_or_else(|| {
                    BondError::InvalidParams(
                        "aggregate weights must be non-negative with a positive sum".into(),
                    )
                }),
            AggregateSpec::FuzzyMin => Ok(Box::new(FuzzyMin)),
            AggregateSpec::FuzzyMax => Ok(Box::new(FuzzyMax)),
        }
    }

    /// A short lowercase label for plans and reports.
    pub fn label(&self) -> &'static str {
        match self {
            AggregateSpec::WeightedAverage(_) => "weighted_average",
            AggregateSpec::FuzzyMin => "fuzzy_min",
            AggregateSpec::FuzzyMax => "fuzzy_max",
        }
    }
}

/// One feature component of a multi-feature request: a query vector, the
/// metric it is scored under, and the feature collection it runs against —
/// either the engine's own table (the default) or a sibling collection
/// sharing the engine's row-id space (e.g. the "texture" table beside the
/// engine's "color" table).
#[derive(Debug, Clone)]
pub struct FeatureSpec {
    query: Vec<f64>,
    metric: FeatureMetricKind,
    table: Option<Arc<DecomposedTable>>,
}

impl FeatureSpec {
    /// A feature scored against the engine's own collection.
    #[must_use]
    pub fn new(query: Vec<f64>, metric: FeatureMetricKind) -> Self {
        FeatureSpec { query, metric, table: None }
    }

    /// A feature scored against a sibling collection, which must have the
    /// same number of rows as the engine's table (checked at admission).
    #[must_use]
    pub fn external(
        query: Vec<f64>,
        metric: FeatureMetricKind,
        table: Arc<DecomposedTable>,
    ) -> Self {
        FeatureSpec { query, metric, table: Some(table) }
    }

    /// The feature's query vector.
    pub fn query(&self) -> &[f64] {
        &self.query
    }

    /// The metric this feature is scored under.
    pub fn metric(&self) -> FeatureMetricKind {
        self.metric
    }

    /// The sibling collection, or `None` for the engine's own table.
    pub fn table(&self) -> Option<&Arc<DecomposedTable>> {
        self.table.as_ref()
    }
}

impl PartialEq for FeatureSpec {
    fn eq(&self, other: &Self) -> bool {
        // tables compare by identity: two specs are equal when they name
        // the same collection, not merely equal data
        self.query == other.query
            && self.metric == other.metric
            && match (&self.table, &other.table) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (None, None) => true,
                _ => false,
            }
    }
}

/// A multi-feature combination request (Section 8.2): per-feature queries,
/// metrics and collections plus the monotonic aggregate that combines them.
/// Carried by [`QueryKind::MultiFeature`]; executed as one synchronized
/// scan per segment under the engine's shared-κ protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiFeatureSpec {
    features: Vec<FeatureSpec>,
    aggregate: AggregateSpec,
}

impl MultiFeatureSpec {
    /// Combines `features` under `aggregate`. Dimensionalities, row spaces
    /// and aggregate arity are checked at engine admission, not here — a
    /// spec is plain data until it meets a table.
    #[must_use]
    pub fn new(features: Vec<FeatureSpec>, aggregate: AggregateSpec) -> Self {
        MultiFeatureSpec { features, aggregate }
    }

    /// The feature components, in aggregate order.
    pub fn features(&self) -> &[FeatureSpec] {
        &self.features
    }

    /// The combining aggregate.
    pub fn aggregate(&self) -> &AggregateSpec {
        &self.aggregate
    }
}

/// What shape of answer a [`QuerySpec`] requests from the engine.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum QueryKind {
    /// Single-feature top-k over the engine's table — the classic request.
    #[default]
    TopK,
    /// A synchronized multi-feature combination query.
    MultiFeature(MultiFeatureSpec),
}

/// One k-NN request: a query vector, how many neighbours it wants, and
/// optional per-query overrides of the engine defaults.
///
/// Built in builder style; every method is chainable:
///
/// ```
/// use bond_exec::{PlannerKind, Priority, QuerySpec, RuleKind};
///
/// let spec = QuerySpec::new(vec![0.25, 0.75], 10)
///     .rule(RuleKind::EuclideanEq)          // override the engine default
///     .planner(PlannerKind::Adaptive)       // per-query planning policy
///     .priority(Priority::Interactive);     // admission class at the server
/// assert_eq!(spec.k(), 10);
/// ```
///
/// A relational predicate rides along as an eligibility bitmap
/// ([`QuerySpec::filter`]); a multi-feature combination request is built
/// with [`QuerySpec::multi_feature`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    kind: QueryKind,
    vector: Vec<f64>,
    k: usize,
    filter: Option<Arc<Bitmap>>,
    rule: Option<RuleKind>,
    planner: Option<PlannerKind>,
    scan: Option<ScanMode>,
    priority: Option<Priority>,
}

impl QuerySpec {
    /// A request for the `k` nearest neighbours of `vector` under the
    /// engine's default rule and planner, at the server's default
    /// admission class.
    #[must_use]
    pub fn new(vector: Vec<f64>, k: usize) -> Self {
        QuerySpec {
            kind: QueryKind::TopK,
            vector,
            k,
            filter: None,
            rule: None,
            planner: None,
            scan: None,
            priority: None,
        }
    }

    /// A multi-feature combination request: the `k` rows with the best
    /// aggregate similarity over all feature components. The spec's
    /// `vector()` is empty — per-feature queries live in the
    /// [`MultiFeatureSpec`]. Rule and scan-mode overrides do not apply to
    /// this kind (each feature prunes under its own metric's rule, exact
    /// fragments only) and are rejected at admission.
    #[must_use]
    pub fn multi_feature(spec: MultiFeatureSpec, k: usize) -> Self {
        QuerySpec {
            kind: QueryKind::MultiFeature(spec),
            vector: Vec::new(),
            k,
            filter: None,
            rule: None,
            planner: None,
            scan: None,
            priority: None,
        }
    }

    /// Overrides the engine's metric + pruning rule for this query only
    /// (weighted kinds carry their per-dimension weights by value, so a
    /// single batch can mix e.g. unweighted and subspace requests).
    #[must_use]
    pub fn rule(mut self, rule: RuleKind) -> Self {
        self.rule = Some(rule);
        self
    }

    /// Overrides the engine's planning policy for this query only.
    #[must_use]
    pub fn planner(mut self, planner: PlannerKind) -> Self {
        self.planner = Some(planner);
        self
    }

    /// Overrides the engine's scan mode for this query only (e.g. one
    /// code-filtered query inside an otherwise exact batch).
    #[must_use]
    pub fn scan_mode(mut self, scan: ScanMode) -> Self {
        self.scan = Some(scan);
        self
    }

    /// Sets this request's admission class at a serving front-end (the
    /// engine itself executes whatever batch it is handed; see
    /// [`crate::service::Server`]).
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = Some(priority);
        self
    }

    /// Restricts the search to the rows set in `filter` — the Section 6.1
    /// composition of a relational predicate ("photographs taken in 1992")
    /// with the k-NN search. The bitmap addresses the engine table's full
    /// row domain; the scan, the κ-seeding, the quantized first pass and
    /// the zone-map segment skips all range over eligible rows only, and a
    /// segment with no eligible row is never touched. A filter whose
    /// domain mismatches the table, or that leaves no live row eligible,
    /// is rejected at admission with [`bond::BondError::InvalidFilter`].
    #[must_use]
    pub fn filter(mut self, filter: Bitmap) -> Self {
        self.filter = Some(Arc::new(filter));
        self
    }

    /// Restricts the search to a pre-shared eligibility bitmap without
    /// copying it (the relational front-end hands the same pushed-down
    /// predicate to many specs).
    #[must_use]
    pub fn filter_shared(mut self, filter: Arc<Bitmap>) -> Self {
        self.filter = Some(filter);
        self
    }

    /// What shape of answer this request asks for.
    pub fn kind(&self) -> &QueryKind {
        &self.kind
    }

    /// The query vector (empty for [`QueryKind::MultiFeature`] requests,
    /// whose per-feature vectors live in their [`MultiFeatureSpec`]).
    pub fn vector(&self) -> &[f64] {
        &self.vector
    }

    /// The number of neighbours this query requests.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The eligibility filter, when one was set.
    pub fn filter_override(&self) -> Option<&Arc<Bitmap>> {
        self.filter.as_ref()
    }

    /// The per-query rule override, when one was set.
    pub fn rule_override(&self) -> Option<&RuleKind> {
        self.rule.as_ref()
    }

    /// The per-query planner override, when one was set.
    pub fn planner_override(&self) -> Option<PlannerKind> {
        self.planner
    }

    /// The per-query scan-mode override, when one was set.
    pub fn scan_mode_override(&self) -> Option<ScanMode> {
        self.scan
    }

    /// The per-query admission-class override, when one was set (the
    /// serving front-end queues unannotated requests at
    /// [`Priority::Normal`]). Renamed from the pre-PR-9 `priority_class`,
    /// which was the one accessor that didn't follow the `_override`
    /// convention.
    pub fn priority_override(&self) -> Option<Priority> {
        self.priority
    }

    /// Checks this spec against an engine without executing it — the
    /// single validation entry point shared by direct execution and
    /// service admission. Equivalent to [`crate::Engine::validate`].
    pub fn validate_against(&self, engine: &crate::Engine) -> Result<()> {
        engine.validate(self)
    }
}

/// A heterogeneous set of [`QuerySpec`]s executed together against one
/// table: every spec keeps its own `k`, rule and planner, and the engine
/// answers them in submission order in a single worker-pool pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RequestBatch {
    specs: Vec<QuerySpec>,
}

impl RequestBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        RequestBatch::default()
    }

    /// A batch over pre-collected specs.
    #[must_use]
    pub fn from_specs(specs: Vec<QuerySpec>) -> Self {
        RequestBatch { specs }
    }

    /// A homogeneous batch: every query requests the same `k` under the
    /// engine defaults (the pre-`QuerySpec` `QueryBatch` shape).
    #[must_use]
    pub fn from_queries(queries: Vec<Vec<f64>>, k: usize) -> Self {
        RequestBatch { specs: queries.into_iter().map(|q| QuerySpec::new(q, k)).collect() }
    }

    /// A single-request batch.
    #[must_use]
    pub fn single(spec: QuerySpec) -> Self {
        RequestBatch { specs: vec![spec] }
    }

    /// Adds one request.
    pub fn push(&mut self, spec: QuerySpec) -> &mut Self {
        self.specs.push(spec);
        self
    }

    /// The requests, in submission order.
    pub fn specs(&self) -> &[QuerySpec] {
        &self.specs
    }

    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the batch holds no requests.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

impl FromIterator<QuerySpec> for RequestBatch {
    fn from_iter<I: IntoIterator<Item = QuerySpec>>(iter: I) -> Self {
        RequestBatch { specs: iter.into_iter().collect() }
    }
}

impl IntoIterator for RequestBatch {
    type Item = QuerySpec;
    type IntoIter = std::vec::IntoIter<QuerySpec>;

    fn into_iter(self) -> Self::IntoIter {
        self.specs.into_iter()
    }
}

/// What one segment contributed to one query.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentRun {
    /// The table row range the segment covers.
    pub rows: Range<usize>,
    /// The pruning trace of the segment's branch-and-bound search.
    pub trace: PruneTrace,
}

/// The answer to one query of a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The k best rows across all segments, best first, with exact scores.
    pub hits: Vec<Scored>,
    /// Per-segment traces, in segment (row-range) order.
    pub segments: Vec<SegmentRun>,
    /// The query's one [`SegmentPlan`], which every searched segment ran —
    /// `None` for multi-feature scans, which run no dimension plan. [`QueryOutcome::analyze`] joins this against the
    /// plan [`crate::Engine::explain`] rendered.
    pub plan: Option<SegmentPlan>,
}

impl QueryOutcome {
    /// Total `(candidate, dimension)` contribution evaluations across all
    /// segments — the batch analogue of [`PruneTrace::contributions_evaluated`].
    pub fn contributions_evaluated(&self) -> u64 {
        self.segments.iter().map(|s| s.trace.contributions_evaluated).sum()
    }

    /// Total quantized code cells the first-pass filter swept across all
    /// segments; `0` for exact scans.
    pub fn quant_filter_cells(&self) -> u64 {
        self.segments.iter().map(|s| s.trace.filter_cells).sum()
    }

    /// Total rows that survived the quantized filter into the exact phase
    /// across all segments; `0` when no filter ran.
    pub fn quant_refine_rows(&self) -> u64 {
        self.segments.iter().map(|s| s.trace.refine_rows).sum()
    }

    /// Fraction of filtered rows the quantized first pass let through to
    /// exact refinement, or `None` when no filter ran. Lower is better.
    pub fn quant_filter_selectivity(&self) -> Option<f64> {
        let swept: u64 = self
            .segments
            .iter()
            .filter(|s| s.trace.filter_ran())
            .map(|s| s.rows.len() as u64)
            .sum();
        (swept > 0).then(|| self.quant_refine_rows() as f64 / swept as f64)
    }

    /// Fraction of the naive `rows × dims` work actually performed.
    pub fn work_fraction(&self, rows: usize, dims: usize) -> f64 {
        if rows == 0 || dims == 0 {
            return 0.0;
        }
        self.contributions_evaluated() as f64 / (rows as f64 * dims as f64)
    }

    /// Total pruning attempts across all segments.
    pub fn pruning_attempts(&self) -> usize {
        self.segments.iter().map(|s| s.trace.pruning_attempts).sum()
    }

    /// Number of segments the engine answered without a scan: zone-map
    /// skips (adaptive planning), segments a predicate filter left with no
    /// eligible row, and multi-feature segments whose rows are all
    /// deleted. Skipped segments report zero contributions and zero
    /// dimensions accessed.
    pub fn segments_skipped(&self) -> usize {
        self.segments.iter().filter(|s| s.trace.segment_skipped).count()
    }
}

/// The answers to a whole batch, in request submission order.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// One outcome per request.
    pub queries: Vec<QueryOutcome>,
}

impl BatchOutcome {
    /// Total contribution evaluations over the whole batch.
    pub fn contributions_evaluated(&self) -> u64 {
        self.queries.iter().map(|q| q.contributions_evaluated()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builder_carries_overrides() {
        let plain = QuerySpec::new(vec![0.1, 0.9], 5);
        assert_eq!(plain.vector(), &[0.1, 0.9]);
        assert_eq!(plain.k(), 5);
        assert_eq!(plain.kind(), &QueryKind::TopK);
        assert_eq!(plain.rule_override(), None);
        assert_eq!(plain.planner_override(), None);
        assert_eq!(plain.priority_override(), None);
        assert!(plain.filter_override().is_none());

        let spec = QuerySpec::new(vec![0.5, 0.5], 3)
            .rule(RuleKind::EuclideanEq)
            .planner(PlannerKind::Adaptive)
            .priority(Priority::Batch)
            .filter(Bitmap::from_rows(4, &[0, 2]));
        assert_eq!(spec.rule_override(), Some(&RuleKind::EuclideanEq));
        assert_eq!(spec.planner_override(), Some(PlannerKind::Adaptive));
        assert_eq!(spec.priority_override(), Some(Priority::Batch));
        assert_eq!(spec.filter_override().unwrap().count(), 2);
        // sharing a pushed-down predicate across specs clones no bitmap
        let shared = Arc::new(Bitmap::from_rows(4, &[1]));
        let a = QuerySpec::new(vec![0.5, 0.5], 1).filter_shared(shared.clone());
        let b = QuerySpec::new(vec![0.1, 0.1], 1).filter_shared(shared.clone());
        assert!(Arc::ptr_eq(a.filter_override().unwrap(), b.filter_override().unwrap()));
    }

    #[test]
    fn multi_feature_specs_are_plain_data() {
        let table = Arc::new(
            DecomposedTable::from_vectors("tex", &[vec![0.5, 0.5], vec![0.2, 0.8]]).unwrap(),
        );
        let mf = MultiFeatureSpec::new(
            vec![
                FeatureSpec::new(vec![0.6, 0.4], FeatureMetricKind::HistogramIntersection),
                FeatureSpec::external(vec![0.5, 0.5], FeatureMetricKind::Euclidean, table.clone()),
            ],
            AggregateSpec::WeightedAverage(vec![0.7, 0.3]),
        );
        assert_eq!(mf.features().len(), 2);
        assert_eq!(mf.features()[0].metric(), FeatureMetricKind::HistogramIntersection);
        assert!(mf.features()[0].table().is_none());
        assert!(Arc::ptr_eq(mf.features()[1].table().unwrap(), &table));
        assert_eq!(mf.aggregate().label(), "weighted_average");

        let spec = QuerySpec::multi_feature(mf.clone(), 3);
        assert_eq!(spec.k(), 3);
        assert!(spec.vector().is_empty());
        assert_eq!(spec.kind(), &QueryKind::MultiFeature(mf));
        // feature equality is collection *identity*, not data equality
        let same_data = Arc::new(
            DecomposedTable::from_vectors("tex", &[vec![0.5, 0.5], vec![0.2, 0.8]]).unwrap(),
        );
        let a = FeatureSpec::external(vec![0.5], FeatureMetricKind::Euclidean, table.clone());
        let b = FeatureSpec::external(vec![0.5], FeatureMetricKind::Euclidean, same_data);
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
    }

    #[test]
    fn aggregate_specs_validate_and_build() {
        let avg = AggregateSpec::WeightedAverage(vec![3.0, 1.0]);
        avg.validate(2).unwrap();
        assert!(avg.validate(3).is_err());
        assert!(AggregateSpec::WeightedAverage(vec![-1.0, 1.0]).validate(2).is_err());
        assert!(AggregateSpec::WeightedAverage(vec![0.0, 0.0]).build().is_err());
        let built = avg.build().unwrap();
        assert!((built.combine(&[1.0, 0.0]) - 0.75).abs() < 1e-12);
        AggregateSpec::FuzzyMin.validate(5).unwrap();
        assert_eq!(AggregateSpec::FuzzyMin.build().unwrap().combine(&[0.9, 0.2]), 0.2);
        assert_eq!(AggregateSpec::FuzzyMax.build().unwrap().combine(&[0.9, 0.2]), 0.9);
        assert_eq!(AggregateSpec::FuzzyMin.label(), "fuzzy_min");
        assert_eq!(AggregateSpec::FuzzyMax.label(), "fuzzy_max");
    }

    #[test]
    fn priority_admission_order() {
        assert_eq!(Priority::default(), Priority::Normal);
        let indices: Vec<usize> = Priority::ALL.iter().map(|p| p.index()).collect();
        assert_eq!(indices, vec![0, 1, 2]);
        assert!(Priority::Interactive < Priority::Normal);
        assert!(Priority::Normal < Priority::Batch);
    }

    #[test]
    fn batch_construction_and_accessors() {
        let mut b = RequestBatch::new();
        assert!(b.is_empty());
        assert_eq!(b, RequestBatch::default());
        b.push(QuerySpec::new(vec![0.1, 0.9], 5)).push(QuerySpec::new(vec![0.5, 0.5], 2));
        assert_eq!(b.len(), 2);
        assert_eq!(b.specs()[1].k(), 2);

        let single = RequestBatch::single(QuerySpec::new(vec![1.0], 1));
        assert_eq!(single.len(), 1);

        let homogeneous = RequestBatch::from_queries(vec![vec![1.0], vec![2.0]], 3);
        assert_eq!(homogeneous.len(), 2);
        assert!(homogeneous.specs().iter().all(|s| s.k() == 3 && s.rule_override().is_none()));

        let collected: RequestBatch =
            (0..4).map(|i| QuerySpec::new(vec![i as f64], i + 1)).collect();
        assert_eq!(collected.len(), 4);
        let ks: Vec<usize> = collected.into_iter().map(|s| s.k()).collect();
        assert_eq!(ks, vec![1, 2, 3, 4]);
    }

    #[test]
    fn outcome_aggregates_sum_over_segments() {
        let outcome = QueryOutcome {
            hits: vec![],
            segments: vec![
                SegmentRun {
                    rows: 0..50,
                    trace: PruneTrace {
                        contributions_evaluated: 100,
                        pruning_attempts: 2,
                        filter_cells: 200,
                        refine_rows: 10,
                        ..PruneTrace::default()
                    },
                },
                SegmentRun {
                    rows: 50..100,
                    trace: PruneTrace {
                        contributions_evaluated: 60,
                        pruning_attempts: 1,
                        filter_cells: 200,
                        refine_rows: 15,
                        ..PruneTrace::default()
                    },
                },
            ],
            plan: None,
        };
        assert_eq!(outcome.contributions_evaluated(), 160);
        assert_eq!(outcome.pruning_attempts(), 3);
        assert_eq!(outcome.segments_skipped(), 0);
        assert_eq!(outcome.quant_filter_cells(), 400);
        assert_eq!(outcome.quant_refine_rows(), 25);
        assert_eq!(outcome.quant_filter_selectivity(), Some(0.25));
        assert!((outcome.work_fraction(100, 4) - 0.4).abs() < 1e-12);
        assert_eq!(outcome.work_fraction(0, 4), 0.0);
        let batch = BatchOutcome { queries: vec![outcome.clone(), outcome] };
        assert_eq!(batch.contributions_evaluated(), 320);
    }

    #[test]
    fn exact_outcomes_report_no_filter_phase() {
        let outcome = QueryOutcome {
            hits: vec![],
            segments: vec![SegmentRun {
                rows: 0..10,
                trace: PruneTrace { contributions_evaluated: 40, ..PruneTrace::default() },
            }],
            plan: None,
        };
        assert_eq!(outcome.quant_filter_cells(), 0);
        assert_eq!(outcome.quant_filter_selectivity(), None);
    }

    #[test]
    fn scan_mode_classification_and_labels() {
        assert_eq!(ScanMode::default(), ScanMode::Exact);
        assert!(!ScanMode::Exact.uses_codes());
        assert!(ScanMode::QuantizedFilter.uses_codes());
        assert_eq!(ScanMode::Exact.label(), "exact");
        assert_eq!(ScanMode::QuantizedFilter.label(), "quantized-filter");

        let spec = QuerySpec::new(vec![0.5], 1).scan_mode(ScanMode::QuantizedFilter);
        assert_eq!(spec.scan_mode_override(), Some(ScanMode::QuantizedFilter));
        assert_eq!(QuerySpec::new(vec![0.5], 1).scan_mode_override(), None);
    }
}
