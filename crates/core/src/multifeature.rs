//! Synchronized multi-feature search (Section 8.2).
//!
//! A complex query evaluates several feature collections at once — e.g.
//! "the k images with the best weighted average of color similarity to A and
//! texture similarity to B". Instead of running one ranked stream per
//! feature and merging them (the classical approach, implemented as the
//! `stream_merge` baseline), BOND treats the union of all feature dimensions
//! as one large set of dimensions: it scans blocks of the most promising
//! dimensions across *all* collections simultaneously, maintains per-feature
//! partial scores, converts the per-feature score bounds to similarity
//! bounds, combines them through the monotonic aggregate, and prunes on the
//! combined bounds.
//!
//! That is Algorithm 2 over the union, so it runs on the crate's one block
//! loop: this module supplies its third bound source, next to the code
//! intervals and the single table's exact partials. Each feature keeps the
//! single-table source's column state (partial scores, masses and its
//! rule's bounds) over the searched segment's rows; a global block is one
//! contiguous range of every feature's own order. A candidate is a row that
//! is live in every feature collection.
//!
//! Every feature collection may use its own metric; Euclidean components are
//! mapped onto the `[0, 1]` similarity scale with Equation 3 so they can be
//! aggregated with histogram-intersection components.

use std::ops::Range;

use bond_metrics::{
    DecomposableMetric, EvRule, HhRule, HistogramIntersection, PruningRule, ScoreAggregate,
    SquaredEuclidean,
};
use vdstore::{descending_nan_last, Bitmap, DecomposedTable, Segment, TopKLargest};

use crate::bond_loop::{Blocks, BondLoop, BoundSource, Bounds, Proof};
use crate::candidates::CandidateSet;
use crate::error::{BondError, Result};
use crate::kappa::KappaCell;
use crate::kernels::Kernel;
use crate::schedule::BlockSchedule;
use crate::searcher::{BondParams, ExactPartials, RowState, SearchOutcome};

/// Which metric a feature collection is searched with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureMetricKind {
    /// Histogram intersection (similarity in `[0, 1]`), pruned with Hh.
    HistogramIntersection,
    /// Squared Euclidean distance mapped to a similarity with Equation 3,
    /// pruned with Ev.
    Euclidean,
}

impl FeatureMetricKind {
    /// The metric a feature is scored with, and the rule that prunes it.
    fn searched_with(self) -> (&'static dyn DecomposableMetric, Box<dyn PruningRule>) {
        match self {
            Self::HistogramIntersection => (&HistogramIntersection, Box::new(HhRule::new())),
            Self::Euclidean => (&SquaredEuclidean, Box::new(EvRule::new())),
        }
    }

    /// A feature score (or bound) on the `[0, 1]` similarity scale: Euclidean
    /// distances over `dims` dimensions go through Equation 3.
    fn similarity(self, score: f64, dims: usize) -> f64 {
        match self {
            Self::HistogramIntersection => score,
            Self::Euclidean => SquaredEuclidean::similarity_from_distance(score, dims),
        }
    }
}

/// One component of a multi-feature query.
#[derive(Debug, Clone)]
pub struct FeatureQuery {
    /// The query vector for this feature collection.
    pub query: Vec<f64>,
    /// The metric used within this collection.
    pub metric: FeatureMetricKind,
}

/// Shared context for a (possibly partitioned) synchronized multi-feature
/// search — the multi-feature analogue of [`crate::SegmentContext`].
///
/// [`MultiFeatureSearcher::search`] uses the default (no sharing, no
/// filter); the execution engine fills it in once per query and hands it to
/// every segment worker, so segments pool their combined-score κ and an
/// eligibility predicate restricts the scan.
#[derive(Default)]
pub struct MultiFeatureContext<'k> {
    /// Shared κ cell over the *combined* similarity (`Objective::Maximize`);
    /// `None` runs the range in isolation.
    pub kappa: Option<&'k dyn KappaCell>,
    /// Eligibility bitmap local to the searched range (bit `i` = row
    /// `range.start + i`), e.g. a relational predicate. It is intersected
    /// with every feature collection's live rows, so a row deleted from any
    /// of them stays excluded either way. `None` scans every live row of
    /// the range.
    pub filter: Option<&'k Bitmap>,
}

/// A synchronized searcher over several feature collections that share the
/// same row-id space (one row = one object, e.g. one image).
#[derive(Debug)]
pub struct MultiFeatureSearcher<'a> {
    tables: Vec<&'a DecomposedTable>,
}

impl<'a> MultiFeatureSearcher<'a> {
    /// Creates a searcher over feature collections that all have the same
    /// number of rows.
    pub fn new(tables: Vec<&'a DecomposedTable>) -> Result<Self> {
        let first = tables.first().ok_or_else(|| {
            BondError::InvalidParams("need at least one feature collection".into())
        })?;
        for t in &tables {
            if t.rows() != first.rows() {
                return Err(BondError::InvalidParams(format!(
                    "feature collections must share the row space ({} vs {} rows)",
                    first.rows(),
                    t.rows()
                )));
            }
        }
        Ok(MultiFeatureSearcher { tables })
    }

    /// Number of objects in the shared row space.
    pub fn rows(&self) -> usize {
        self.tables.first().map(|t| t.rows()).unwrap_or(0)
    }

    /// Runs the synchronized search: the k rows with the largest aggregate
    /// similarity over all feature components. Rows deleted from any
    /// feature collection are never answers.
    ///
    /// `schedule` sizes the blocks of dimensions scanned between pruning
    /// attempts (across all features combined); the global dimension order
    /// interleaves the features' dimensions by decreasing raw query value —
    /// the single-feature skew heuristic applied to the union, whatever the
    /// aggregate.
    pub fn search(
        &self,
        queries: &[FeatureQuery],
        aggregate: &dyn ScoreAggregate,
        k: usize,
        schedule: BlockSchedule,
    ) -> Result<SearchOutcome> {
        let rows = self.rows();
        if k == 0 || k > rows {
            return Err(BondError::InvalidK { k, rows });
        }
        self.search_range(queries, aggregate, k, schedule, 0..rows, &MultiFeatureContext::default())
    }

    /// Runs the synchronized search restricted to one contiguous row range.
    ///
    /// This is [`MultiFeatureSearcher::search`] generalised the same way
    /// [`crate::search_segment`] generalises the single-feature searcher:
    /// the scan covers only `range`'s rows (further narrowed by
    /// `ctx.filter`), and an externally supplied [`KappaCell`] may tighten
    /// the combined-similarity κ with lower bounds proven by other segments
    /// of the same query. Returned rows are global ids with *exact* combined
    /// similarities, so per-segment outcomes merge into the global top-k by
    /// score alone. Unlike the full entry point, `k` may exceed the range's
    /// eligible row count: the range then reports everything it holds.
    pub fn search_range(
        &self,
        queries: &[FeatureQuery],
        aggregate: &dyn ScoreAggregate,
        k: usize,
        schedule: BlockSchedule,
        range: Range<usize>,
        ctx: &MultiFeatureContext<'_>,
    ) -> Result<SearchOutcome> {
        let mut states: Vec<RowState> = queries.iter().map(|_| RowState::default()).collect();
        self.search_range_in(queries, aggregate, k, schedule, range, ctx, &mut states)
    }

    /// [`MultiFeatureSearcher::search_range`] over the given per-feature
    /// row states, one per query, whatever rows they hold.
    #[allow(clippy::too_many_arguments)]
    fn search_range_in(
        &self,
        queries: &[FeatureQuery],
        aggregate: &dyn ScoreAggregate,
        k: usize,
        schedule: BlockSchedule,
        range: Range<usize>,
        ctx: &MultiFeatureContext<'_>,
        states: &mut [RowState],
    ) -> Result<SearchOutcome> {
        self.validate(queries, k, &range, ctx)?;
        let segments: Vec<Segment<'_>> =
            self.tables.iter().map(|t| t.segment(range.clone())).collect::<vdstore::Result<_>>()?;
        // A candidate is live in every feature collection, and eligible.
        let mut eligible = ctx.filter.cloned().unwrap_or_else(|| Bitmap::full(range.len()));
        for segment in &segments {
            eligible.and_with(&segment.live_bitmap());
        }
        let mut candidates = CandidateSet::from_bitmap(eligible);

        // Global dimension order: (feature, dim) sorted by decreasing query
        // value (the per-feature skew heuristic applied to the union).
        let mut global_order: Vec<(usize, usize)> = queries
            .iter()
            .enumerate()
            .flat_map(|(f, q)| (0..q.query.len()).map(move |d| (f, d)))
            .collect();
        global_order.sort_by(|&(fa, da), &(fb, db)| {
            descending_nan_last(queries[fa].query[da], queries[fb].query[db])
        });

        let orders: Vec<Vec<usize>> = (0..queries.len())
            .map(|f| global_order.iter().filter(|&&(g, _)| g == f).map(|&(_, d)| d).collect())
            .collect();
        let kernel = Kernel::active();
        let mut rules: Vec<_> = queries.iter().map(|q| q.metric.searched_with()).collect();
        let threshold = BondParams::default().materialize_threshold;
        let features = (queries.iter().zip(&segments).zip(&orders))
            .zip(rules.iter_mut().zip(states))
            .map(|(((q, segment), order), ((metric, rule), state))| {
                let rule = rule.as_mut();
                ExactPartials::new(
                    segment, &q.query, *metric, rule, order, kernel, state, None, threshold,
                )
            })
            .collect();
        let mut source = Synchronized {
            features,
            kinds: queries.iter().map(|q| q.metric).collect(),
            owners: global_order.iter().map(|&(f, _)| f).collect(),
            aggregate,
            lower: Vec::new(),
            upper: Vec::new(),
            component: (vec![0.0; queries.len()], vec![0.0; queries.len()]),
        };
        let run = BondLoop { k, kernel, blocks: Blocks::Planned(schedule), shared: ctx.kappa };
        let swept = run.run(&mut source, &mut candidates, &mut None)?.swept;
        source.finish(&segments[0], CandidateSet::List(candidates.to_rows()), swept, k, ctx.kappa)
    }

    /// The checks [`MultiFeatureSearcher::search_range`] makes before it
    /// reads a column.
    fn validate(
        &self,
        queries: &[FeatureQuery],
        k: usize,
        range: &Range<usize>,
        ctx: &MultiFeatureContext<'_>,
    ) -> Result<()> {
        if queries.len() != self.tables.len() {
            return Err(BondError::InvalidParams(format!(
                "{} feature queries supplied for {} collections",
                queries.len(),
                self.tables.len()
            )));
        }
        let rows = self.rows();
        if k == 0 {
            return Err(BondError::InvalidK { k, rows });
        }
        if range.start > range.end || range.end > rows {
            return Err(BondError::InvalidParams(format!(
                "range {range:?} exceeds the {rows}-row collection"
            )));
        }
        for (f, (q, table)) in queries.iter().zip(&self.tables).enumerate() {
            if q.query.len() != table.dims() {
                return Err(BondError::FeatureDimensionMismatch {
                    feature: f,
                    expected: table.dims(),
                    actual: q.query.len(),
                });
            }
        }
        match ctx.filter {
            Some(filter) if filter.len() != range.len() => Err(BondError::InvalidFilter(format!(
                "range filter covers {} rows but the range has {}",
                filter.len(),
                range.len()
            ))),
            _ => Ok(()),
        }
    }
}

/// The synchronized scan's [`BoundSource`]: every feature's exact partials,
/// each swept over its share of a global block and bounded per candidate
/// through the aggregate.
struct Synchronized<'a> {
    features: Vec<ExactPartials<'a>>,
    kinds: Vec<FeatureMetricKind>,
    /// The feature each position of the global order belongs to.
    owners: Vec<usize>,
    aggregate: &'a dyn ScoreAggregate,
    /// The combined similarity bounds at the candidates' slots.
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// One candidate's per-feature lower and upper similarity bounds.
    component: (Vec<f64>, Vec<f64>),
}

impl Synchronized<'_> {
    /// How many of feature `f`'s dimensions the first `swept` positions of
    /// the global order hold.
    fn cut(&self, f: usize, swept: usize) -> usize {
        self.owners[..swept].iter().filter(|&&owner| owner == f).count()
    }

    /// Completes the survivors over the unswept dimensions, ranks their
    /// exact combined similarities with global ids and publishes the k-th.
    fn finish(
        mut self,
        segment: &Segment<'_>,
        survivors: CandidateSet,
        swept: usize,
        k: usize,
        shared: Option<&dyn KappaCell>,
    ) -> Result<SearchOutcome> {
        for feature in &mut self.features {
            feature.scanned_mass = None;
        }
        self.sweep(&survivors, swept..self.owners.len())?;
        let mut best = TopKLargest::new(k);
        let similarity = &mut self.component.0;
        survivors.for_each(|row| {
            for (f, feature) in self.features.iter().enumerate() {
                let score = feature.partial[row as usize];
                similarity[f] = self.kinds[f].similarity(score, feature.dims());
            }
            best.push(segment.to_global(row), self.aggregate.combine(similarity));
        });
        // An exact k-th best is itself a valid lower-bound κ: publish it so
        // segments that start later prune harder from their first block.
        if let (Some(cell), Some(kth)) = (shared, best.kth()) {
            cell.tighten(kth);
        }
        let cells = self.features.iter().map(|feature| feature.trace.contributions_evaluated).sum();
        let mut trace = std::mem::take(&mut self.features[0].trace);
        trace.contributions_evaluated = cells;
        trace.dims_accessed = self.owners.len();
        Ok(SearchOutcome { hits: best.into_sorted_vec(), trace })
    }
}

impl BoundSource for Synchronized<'_> {
    fn proof(&self) -> Proof {
        Proof::Heap
    }

    fn dims(&self) -> usize {
        self.owners.len()
    }

    /// Sweeps each feature's share of the global block: one contiguous
    /// range of its own order.
    fn sweep(&mut self, candidates: &CandidateSet, block: Range<usize>) -> Result<()> {
        for f in 0..self.features.len() {
            let own = self.cut(f, block.start)..self.cut(f, block.end);
            self.features[f].sweep(candidates, own)?;
        }
        Ok(())
    }

    /// Every feature's rule bounds on the similarity scale — a distance's
    /// optimistic bound is the upper similarity bound — combined through
    /// the aggregate at each candidate's slot. The aggregate reads both
    /// bounds of every feature at every slot, so each feature stores both
    /// ([`ExactPartials::bound_slots`]) in bitmap steps too.
    fn bound(&mut self, candidates: &CandidateSet, swept: usize) {
        for f in 0..self.features.len() {
            let own = self.cut(f, swept);
            self.features[f].bound_slots(candidates, own);
        }
        let Self { features, kinds, aggregate, lower, upper, component: (lo, hi), .. } = self;
        let bounds: Vec<_> = features.iter().map(|f| (f.bounds(swept), f.dims())).collect();
        let list = candidates.as_list();
        let slots = list.map_or(features[0].partial.len(), <[_]>::len);
        lower.resize(slots, 0.0);
        upper.resize(slots, 0.0);
        let mut combine = |slot: usize| {
            for (f, (bounds, dims)) in bounds.iter().enumerate() {
                lo[f] = kinds[f].similarity(bounds.heap(slot), *dims);
                hi[f] = kinds[f].similarity(bounds.opt(slot), *dims);
            }
            (lower[slot], upper[slot]) = aggregate.combine_bounds(lo, hi);
        };
        match list {
            None => candidates.for_each(|row| combine(row as usize)),
            Some(list) => (0..list.len()).for_each(combine),
        }
    }

    fn bounds(&self, _swept: usize) -> Bounds<'_> {
        Bounds::stored(&self.upper, &self.lower, 1.0, 0.0)
    }

    /// The first feature's source records the scan's steps, and switches
    /// the candidates to a list at its threshold.
    fn stepped(&mut self, candidates: &mut CandidateSet, swept: usize, removed: usize) {
        self.features[0].stepped(candidates, swept, removed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bond_metrics::{FuzzyMin, WeightedAverage};
    use vdstore::RowId;

    use crate::searcher::BondSearcher;

    fn color_table() -> DecomposedTable {
        DecomposedTable::from_vectors(
            "color",
            &[
                vec![0.7, 0.2, 0.1, 0.0],
                vec![0.1, 0.1, 0.4, 0.4],
                vec![0.25, 0.25, 0.25, 0.25],
                vec![0.6, 0.3, 0.05, 0.05],
                vec![0.0, 0.1, 0.2, 0.7],
            ],
        )
        .unwrap()
    }

    fn texture_table() -> DecomposedTable {
        DecomposedTable::from_vectors(
            "texture",
            &[
                vec![0.9, 0.1, 0.3],
                vec![0.2, 0.8, 0.5],
                vec![0.5, 0.5, 0.5],
                vec![0.1, 0.9, 0.6],
                vec![0.85, 0.15, 0.25],
            ],
        )
        .unwrap()
    }

    fn brute_force(
        color_q: &[f64],
        texture_q: &[f64],
        aggregate: &dyn ScoreAggregate,
        k: usize,
    ) -> Vec<RowId> {
        let color = color_table();
        let texture = texture_table();
        let mut scored: Vec<(RowId, f64)> = (0..color.rows() as RowId)
            .map(|r| {
                let c = HistogramIntersection.score(&color.row(r).unwrap(), color_q);
                let d = SquaredEuclidean.score(&texture.row(r).unwrap(), texture_q);
                let t = SquaredEuclidean::similarity_from_distance(d, texture.dims());
                (r, aggregate.combine(&[c, t]))
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let mut rows: Vec<RowId> = scored.into_iter().take(k).map(|(r, _)| r).collect();
        rows.sort_unstable();
        rows
    }

    fn run(aggregate: &dyn ScoreAggregate, k: usize) -> Vec<RowId> {
        let color = color_table();
        let texture = texture_table();
        let searcher = MultiFeatureSearcher::new(vec![&color, &texture]).unwrap();
        let queries = vec![
            FeatureQuery {
                query: vec![0.65, 0.25, 0.05, 0.05],
                metric: FeatureMetricKind::HistogramIntersection,
            },
            FeatureQuery { query: vec![0.9, 0.1, 0.3], metric: FeatureMetricKind::Euclidean },
        ];
        let outcome = searcher.search(&queries, aggregate, k, BlockSchedule::Fixed(2)).unwrap();
        let mut rows: Vec<RowId> = outcome.hits.iter().map(|h| h.row).collect();
        rows.sort_unstable();
        rows
    }

    #[test]
    fn synchronized_search_matches_brute_force_average() {
        let agg = WeightedAverage::new(vec![0.6, 0.4]).unwrap();
        for k in [1, 2, 3] {
            assert_eq!(
                run(&agg, k),
                brute_force(&[0.65, 0.25, 0.05, 0.05], &[0.9, 0.1, 0.3], &agg, k),
                "k = {k}"
            );
        }
    }

    #[test]
    fn synchronized_search_matches_brute_force_min() {
        let agg = FuzzyMin;
        for k in [1, 2] {
            assert_eq!(
                run(&agg, k),
                brute_force(&[0.65, 0.25, 0.05, 0.05], &[0.9, 0.1, 0.3], &agg, k),
                "k = {k}"
            );
        }
    }

    #[test]
    fn validation() {
        let color = color_table();
        let texture = texture_table();
        let small = DecomposedTable::from_vectors("s", &[vec![1.0]]).unwrap();
        assert!(MultiFeatureSearcher::new(vec![]).is_err());
        assert!(MultiFeatureSearcher::new(vec![&color, &small]).is_err());
        let searcher = MultiFeatureSearcher::new(vec![&color, &texture]).unwrap();
        assert_eq!(searcher.rows(), 5);
        let agg = FuzzyMin;
        // wrong number of feature queries
        let one = vec![FeatureQuery {
            query: vec![0.5; 4],
            metric: FeatureMetricKind::HistogramIntersection,
        }];
        assert!(searcher.search(&one, &agg, 1, BlockSchedule::Fixed(2)).is_err());
        // wrong query dims
        let bad = vec![
            FeatureQuery { query: vec![0.5; 3], metric: FeatureMetricKind::HistogramIntersection },
            FeatureQuery { query: vec![0.5; 3], metric: FeatureMetricKind::Euclidean },
        ];
        assert!(searcher.search(&bad, &agg, 1, BlockSchedule::Fixed(2)).is_err());
        // bad k
        let ok = vec![
            FeatureQuery { query: vec![0.5; 4], metric: FeatureMetricKind::HistogramIntersection },
            FeatureQuery { query: vec![0.5; 3], metric: FeatureMetricKind::Euclidean },
        ];
        assert!(searcher.search(&ok, &agg, 0, BlockSchedule::Fixed(2)).is_err());
        assert!(searcher.search(&ok, &agg, 100, BlockSchedule::Fixed(2)).is_err());
    }

    #[test]
    fn range_results_merge_into_the_full_answer() {
        let color = color_table();
        let texture = texture_table();
        let searcher = MultiFeatureSearcher::new(vec![&color, &texture]).unwrap();
        let queries = vec![
            FeatureQuery {
                query: vec![0.65, 0.25, 0.05, 0.05],
                metric: FeatureMetricKind::HistogramIntersection,
            },
            FeatureQuery { query: vec![0.9, 0.1, 0.3], metric: FeatureMetricKind::Euclidean },
        ];
        let agg = WeightedAverage::new(vec![0.6, 0.4]).unwrap();
        let k = 2;
        let full = searcher.search(&queries, &agg, k, BlockSchedule::Fixed(2)).unwrap();
        // split the row space into two ranges sharing one κ cell, merge the
        // exact per-range answers: bit-identical to the full search
        struct MaxCell(std::sync::Mutex<Option<f64>>);
        impl KappaCell for MaxCell {
            fn tighten(&self, local: f64) -> f64 {
                let mut g = self.0.lock().unwrap();
                let merged = g.map_or(local, |v| v.max(local));
                *g = Some(merged);
                merged
            }
            fn current(&self) -> Option<f64> {
                *self.0.lock().unwrap()
            }
        }
        let cell = MaxCell(std::sync::Mutex::new(None));
        let mut heap = TopKLargest::new(k);
        for range in [0..3, 3..5] {
            let ctx = MultiFeatureContext { kappa: Some(&cell), filter: None };
            let part = searcher
                .search_range(&queries, &agg, k, BlockSchedule::Fixed(2), range, &ctx)
                .unwrap();
            for hit in part.hits {
                heap.push(hit.row, hit.score);
            }
        }
        assert_eq!(heap.into_sorted_vec(), full.hits);
    }

    #[test]
    fn range_filter_restricts_the_candidates() {
        let color = color_table();
        let texture = texture_table();
        let searcher = MultiFeatureSearcher::new(vec![&color, &texture]).unwrap();
        let queries = vec![
            FeatureQuery {
                query: vec![0.65, 0.25, 0.05, 0.05],
                metric: FeatureMetricKind::HistogramIntersection,
            },
            FeatureQuery { query: vec![0.9, 0.1, 0.3], metric: FeatureMetricKind::Euclidean },
        ];
        let agg = FuzzyMin;
        // only rows 1 and 3 are eligible
        let filter = Bitmap::from_rows(5, &[1, 3]);
        let ctx = MultiFeatureContext { filter: Some(&filter), ..Default::default() };
        let out =
            searcher.search_range(&queries, &agg, 2, BlockSchedule::Fixed(2), 0..5, &ctx).unwrap();
        let mut rows: Vec<RowId> = out.hits.iter().map(|h| h.row).collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![1, 3]);
        // mismatched filter domain is a typed error
        let bad = Bitmap::from_rows(3, &[1]);
        let ctx = MultiFeatureContext { filter: Some(&bad), ..Default::default() };
        assert!(matches!(
            searcher.search_range(&queries, &agg, 1, BlockSchedule::Fixed(2), 0..5, &ctx),
            Err(BondError::InvalidFilter(_))
        ));
        // per-feature dimension mismatches carry the feature index
        let bad_q = vec![
            FeatureQuery { query: vec![0.5; 4], metric: FeatureMetricKind::HistogramIntersection },
            FeatureQuery { query: vec![0.5; 9], metric: FeatureMetricKind::Euclidean },
        ];
        assert!(matches!(
            searcher.search(&bad_q, &agg, 1, BlockSchedule::Fixed(2)),
            Err(BondError::FeatureDimensionMismatch { feature: 1, expected: 3, actual: 9 })
        ));
    }

    #[test]
    fn trace_reports_pruning_progress() {
        let color = color_table();
        let texture = texture_table();
        let searcher = MultiFeatureSearcher::new(vec![&color, &texture]).unwrap();
        let queries = vec![
            FeatureQuery {
                query: vec![0.65, 0.25, 0.05, 0.05],
                metric: FeatureMetricKind::HistogramIntersection,
            },
            FeatureQuery { query: vec![0.9, 0.1, 0.3], metric: FeatureMetricKind::Euclidean },
        ];
        let agg = WeightedAverage::uniform(2).unwrap();
        let outcome = searcher.search(&queries, &agg, 1, BlockSchedule::Fixed(2)).unwrap();
        assert!(!outcome.trace.checkpoints.is_empty());
        assert!(outcome.trace.dims_accessed <= 7);
        assert_eq!(outcome.hits.len(), 1);
    }

    #[test]
    fn deleted_rows_are_never_answers() {
        // row 19 scores best under an HI query on dimension 0; then 18, 17, …
        let vectors: Vec<Vec<f64>> =
            (0..20).map(|r| vec![r as f64 / 20.0, 1.0 - r as f64 / 20.0]).collect();
        let mut table = DecomposedTable::from_vectors("ramp", &vectors).unwrap();
        let other = table.clone();
        table.delete(19).unwrap();
        let query = vec![1.0, 0.0];
        let rows = |hits: &[vdstore::topk::Scored]| hits.iter().map(|h| h.row).collect::<Vec<_>>();
        let single = BondSearcher::new(&table)
            .histogram_intersection_hh(&query, 3, &BondParams::default())
            .unwrap();
        assert_eq!(rows(&single.hits), vec![18, 17, 16]);
        let hi = FeatureQuery { query, metric: FeatureMetricKind::HistogramIntersection };
        // deleted in the only collection, and in either of two
        for tables in [vec![&table], vec![&table, &other], vec![&other, &table]] {
            let queries = vec![hi.clone(); tables.len()];
            let searcher = MultiFeatureSearcher::new(tables).unwrap();
            let out = searcher.search(&queries, &FuzzyMin, 3, BlockSchedule::Fixed(1)).unwrap();
            assert_eq!(rows(&out.hits), vec![18, 17, 16]);
            // and through a range filter that names the deleted row
            let filter = Bitmap::from_rows(10, &[9, 8]);
            let ctx = MultiFeatureContext { filter: Some(&filter), ..Default::default() };
            let out = searcher
                .search_range(&queries, &FuzzyMin, 3, BlockSchedule::Fixed(1), 10..20, &ctx)
                .unwrap();
            assert_eq!(rows(&out.hits), vec![18]);
        }
    }

    /// A feature that gets no dimension of the first global blocks still
    /// starts its sums from zero, also over row states that hold another
    /// search's sums, as a reused scratch would: over such states the
    /// search returns the hits of fresh states, bit for bit.
    #[test]
    fn a_feature_without_a_share_of_the_first_block_starts_from_zero() {
        let mut state = 0x5EED_F00D_0B0Du64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let rows = 150;
        let mut histogram = |dims: usize| {
            let v: Vec<f64> = (0..dims).map(|_| 0.5 + unit()).collect();
            let total: f64 = v.iter().sum();
            v.into_iter().map(|x| x / total).collect::<Vec<f64>>()
        };
        let colors: Vec<Vec<f64>> = (0..rows).map(|_| histogram(8)).collect();
        let textures: Vec<Vec<f64>> = (0..rows).map(|_| histogram(6)).collect();
        let color = DecomposedTable::from_vectors("color", &colors).unwrap();
        let texture = DecomposedTable::from_vectors("texture", &textures).unwrap();
        let searcher = MultiFeatureSearcher::new(vec![&color, &texture]).unwrap();
        let features = |color_q: Vec<f64>, texture_q: Vec<f64>| {
            vec![
                FeatureQuery { query: color_q, metric: FeatureMetricKind::HistogramIntersection },
                FeatureQuery { query: texture_q, metric: FeatureMetricKind::Euclidean },
            ]
        };
        // every color value sorts above every texture value: the first four
        // global blocks of two are color's alone
        let shrunk = |v: &[f64]| v.iter().map(|x| x * 1e-3).collect::<Vec<f64>>();
        let queries = features(colors[3].clone(), shrunk(&textures[4]));
        let texture_top = queries[1].query.iter().fold(0.0f64, |m, &x| m.max(x));
        assert!(queries[0].query.iter().all(|&x| x > texture_top));
        // the same rows with texture first leave texture's sums behind
        let other = features(shrunk(&colors[9]), textures[9].clone());
        let agg = WeightedAverage::uniform(2).unwrap();
        let (k, schedule, ctx) = (5, BlockSchedule::Fixed(2), MultiFeatureContext::default());
        let fresh = searcher.search_range(&queries, &agg, k, schedule, 0..rows, &ctx).unwrap();
        let mut states = vec![RowState::default(), RowState::default()];
        searcher.search_range_in(&other, &agg, k, schedule, 0..rows, &ctx, &mut states).unwrap();
        let reused =
            searcher.search_range_in(&queries, &agg, k, schedule, 0..rows, &ctx, &mut states);
        let hits = |outcome: &SearchOutcome| -> Vec<(RowId, u64)> {
            outcome.hits.iter().map(|h| (h.row, h.score.to_bits())).collect()
        };
        assert_eq!(hits(&reused.unwrap()), hits(&fresh));
        assert_eq!(fresh.hits.len(), k);
    }
}
