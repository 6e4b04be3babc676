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
//! Every feature collection may use its own metric; Euclidean components are
//! mapped onto the `[0, 1]` similarity scale with Equation 3 so they can be
//! aggregated with histogram-intersection components.

use std::ops::Range;

use bond_metrics::{
    CandidateState, DecomposableMetric, EvRule, HhRule, HistogramIntersection, PruningRule,
    ScoreAggregate, SquaredEuclidean,
};
use vdstore::{descending_nan_last, Bitmap, DecomposedTable, RowId, TopKLargest};

use crate::error::{BondError, Result};
use crate::kappa::KappaCell;
use crate::schedule::BlockSchedule;
use crate::searcher::SearchOutcome;
use crate::trace::{PruneTrace, TraceCheckpoint};

/// Which metric a feature collection is searched with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureMetricKind {
    /// Histogram intersection (similarity in `[0, 1]`), pruned with Hh.
    HistogramIntersection,
    /// Squared Euclidean distance mapped to a similarity with Equation 3,
    /// pruned with Ev.
    Euclidean,
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
    /// Per-feature full-table row sums `T(x)`, outer-indexed by feature.
    /// Computed on the fly when absent — the engine precomputes them once
    /// per query so segment workers don't each re-derive them.
    pub total_mass: Option<&'k [Vec<f64>]>,
    /// Eligibility bitmap local to the searched range (bit `i` = row
    /// `range.start + i`): carries tombstones and/or a relational predicate.
    /// `None` scans every row of the range.
    pub filter: Option<&'k Bitmap>,
}

/// A synchronized searcher over several feature collections that share the
/// same row-id space (one row = one object, e.g. one image).
#[derive(Debug)]
pub struct MultiFeatureSearcher<'a> {
    tables: Vec<&'a DecomposedTable>,
}

struct FeatureState<'t> {
    query: Vec<f64>,
    kind: FeatureMetricKind,
    dims: usize,
    partial: Vec<f64>,
    scanned_mass: Vec<f64>,
    total_mass: &'t [f64],
    remaining: Vec<usize>,
}

impl FeatureState<'_> {
    /// Adds dimension `d`'s contribution of every `alive` row to its
    /// partial score and, while the scan still prunes (`track_mass`), the
    /// row's scanned mass.
    fn accumulate(&mut self, values: &[f64], d: usize, alive: &[RowId], track_mass: bool) {
        let q = self.query[d];
        for &row in alive {
            let v = values[row as usize];
            self.partial[row as usize] += match self.kind {
                FeatureMetricKind::HistogramIntersection => {
                    HistogramIntersection.contribution(d, v, q)
                }
                FeatureMetricKind::Euclidean => SquaredEuclidean.contribution(d, v, q),
            };
            if track_mass {
                self.scanned_mass[row as usize] += v;
            }
        }
    }

    fn similarity_bounds(&self, rule: &dyn PruningRule, row: RowId) -> (f64, f64) {
        let idx = row as usize;
        let state = CandidateState {
            partial: self.partial[idx],
            scanned_mass: self.scanned_mass[idx],
            total_mass: self.total_mass[idx],
        };
        let (lo, hi) = rule.bounds(&state);
        match self.kind {
            FeatureMetricKind::HistogramIntersection => (lo, hi),
            FeatureMetricKind::Euclidean => {
                // distance bounds -> similarity bounds (Equation 3), order flips
                let sim_hi = SquaredEuclidean::similarity_from_distance(lo, self.dims);
                let sim_lo = SquaredEuclidean::similarity_from_distance(hi, self.dims);
                (sim_lo, sim_hi)
            }
        }
    }

    fn exact_similarity(&self, row: RowId) -> f64 {
        match self.kind {
            FeatureMetricKind::HistogramIntersection => self.partial[row as usize],
            FeatureMetricKind::Euclidean => {
                SquaredEuclidean::similarity_from_distance(self.partial[row as usize], self.dims)
            }
        }
    }
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
    /// similarity over all feature components.
    ///
    /// `block` dimensions are scanned between pruning attempts (across all
    /// features combined); the global dimension order interleaves features
    /// by decreasing query value scaled by the aggregate's sensitivity to
    /// that feature (its weight for a weighted average, 1 otherwise).
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
        for (f, q) in queries.iter().enumerate() {
            if q.query.len() != self.tables[f].dims() {
                return Err(BondError::FeatureDimensionMismatch {
                    feature: f,
                    expected: self.tables[f].dims(),
                    actual: q.query.len(),
                });
            }
        }
        if let Some(filter) = ctx.filter {
            if filter.len() != range.len() {
                return Err(BondError::InvalidFilter(format!(
                    "range filter covers {} rows but the range has {}",
                    filter.len(),
                    range.len()
                )));
            }
        }
        if let Some(mass) = ctx.total_mass {
            if mass.len() != self.tables.len() {
                return Err(BondError::InvalidParams(format!(
                    "{} total-mass vectors supplied for {} collections",
                    mass.len(),
                    self.tables.len()
                )));
            }
        }

        // Per-feature state and rules. Bookkeeping vectors stay indexed by
        // global row id so the block loop is byte-for-byte the full-table
        // scan — partial sums accumulate in the same order for any range,
        // which is what keeps per-segment answers bit-identical to the
        // sequential searcher's.
        let computed_mass: Vec<Vec<f64>> = if ctx.total_mass.is_none() {
            self.tables.iter().map(|t| t.row_sums()).collect()
        } else {
            Vec::new()
        };
        let mut states: Vec<FeatureState<'_>> = queries
            .iter()
            .enumerate()
            .map(|(f, q)| {
                let table = self.tables[f];
                FeatureState {
                    query: q.query.clone(),
                    kind: q.metric,
                    dims: table.dims(),
                    partial: vec![0.0; rows],
                    scanned_mass: vec![0.0; rows],
                    total_mass: match ctx.total_mass {
                        Some(mass) => &mass[f],
                        None => &computed_mass[f],
                    },
                    remaining: (0..table.dims()).collect(),
                }
            })
            .collect();
        let mut rules: Vec<Box<dyn PruningRule>> = queries
            .iter()
            .map(|q| match q.metric {
                FeatureMetricKind::HistogramIntersection => {
                    Box::new(HhRule::new()) as Box<dyn PruningRule>
                }
                FeatureMetricKind::Euclidean => Box::new(EvRule::new()) as Box<dyn PruningRule>,
            })
            .collect();

        // Global dimension order: (feature, dim) sorted by decreasing query
        // value (the per-feature skew heuristic applied to the union).
        let mut global_order: Vec<(usize, usize)> = Vec::new();
        for (f, q) in queries.iter().enumerate() {
            for d in 0..q.query.len() {
                global_order.push((f, d));
            }
        }
        global_order.sort_by(|&(fa, da), &(fb, db)| {
            let ka = queries[fa].query[da];
            let kb = queries[fb].query[db];
            descending_nan_last(ka, kb)
        });
        let total_dims = global_order.len();

        let mut alive: Vec<RowId> = match ctx.filter {
            Some(filter) => filter.iter().map(|local| local + range.start as RowId).collect(),
            None => (range.start as RowId..range.end as RowId).collect(),
        };
        let mut trace = PruneTrace::default();

        let mut processed = 0usize;
        let mut attempts = 0usize;
        loop {
            let block = schedule.next_block(processed, total_dims, attempts);
            if block == 0 {
                break;
            }
            for &(f, d) in &global_order[processed..processed + block] {
                states[f].accumulate(self.tables[f].column(d)?.values(), d, &alive, true);
                states[f].remaining.retain(|&r| r != d);
            }
            trace.contributions_evaluated += (block * alive.len()) as u64;
            processed += block;
            trace.dims_accessed = processed;

            if alive.len() <= k {
                break;
            }

            // Prepare per-feature rules with their remaining dimensions.
            for (f, rule) in rules.iter_mut().enumerate() {
                rule.prepare(&states[f].query, &states[f].remaining);
            }

            // Global bounds per candidate.
            let mut lower = Vec::with_capacity(alive.len());
            let mut upper = Vec::with_capacity(alive.len());
            let mut feature_lo = vec![0.0; states.len()];
            let mut feature_hi = vec![0.0; states.len()];
            for &row in &alive {
                for (f, state) in states.iter().enumerate() {
                    let (lo, hi) = state.similarity_bounds(rules[f].as_ref(), row);
                    feature_lo[f] = lo;
                    feature_hi[f] = hi;
                }
                let (glo, ghi) = aggregate.combine_bounds(&feature_lo, &feature_hi);
                lower.push(glo);
                upper.push(ghi);
            }
            let mut heap = TopKLargest::new(k);
            for (i, &row) in alive.iter().enumerate() {
                heap.push(row, lower[i]);
            }
            attempts += 1;
            trace.pruning_attempts = attempts;
            let mut pruned_now = 0usize;
            // κ is the k-th largest *combined lower bound*: ≥ k rows are
            // proven to finish at or above it, so it is a globally valid
            // pruning threshold — which is what makes it safe to pool
            // through the shared cell with sibling segments.
            let kappa = match (ctx.kappa, heap.kth()) {
                (Some(cell), Some(local)) => Some(cell.tighten(local)),
                (Some(cell), None) => cell.current(),
                (None, local) => local,
            };
            if let Some(kappa) = kappa {
                let slack = crate::searcher::prune_slack(kappa);
                let before = alive.len();
                let mut idx = 0usize;
                alive.retain(|_| {
                    let keep = upper[idx] >= kappa - slack;
                    idx += 1;
                    keep
                });
                pruned_now = before - alive.len();
            }
            trace.checkpoints.push(TraceCheckpoint {
                dims_processed: processed,
                candidates: alive.len(),
                pruned_now,
            });
            if alive.len() <= k {
                break;
            }
        }

        // Complete the survivors' exact per-feature scores.
        if processed < total_dims {
            for &(f, d) in &global_order[processed..] {
                states[f].accumulate(self.tables[f].column(d)?.values(), d, &alive, false);
            }
            trace.contributions_evaluated += ((total_dims - processed) * alive.len()) as u64;
            trace.dims_accessed = total_dims;
        }

        let mut heap = TopKLargest::new(k);
        let mut component = vec![0.0; states.len()];
        for &row in &alive {
            for (f, state) in states.iter().enumerate() {
                component[f] = state.exact_similarity(row);
            }
            heap.push(row, aggregate.combine(&component));
        }
        // An exact k-th best is itself a valid lower-bound κ: publish it so
        // segments that start later prune harder from their first block.
        if let (Some(cell), Some(kth)) = (ctx.kappa, heap.kth()) {
            cell.tighten(kth);
        }
        Ok(SearchOutcome { hits: heap.into_sorted_vec(), trace })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bond_metrics::{FuzzyMin, WeightedAverage};

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
        let mass: Vec<Vec<f64>> = vec![color.row_sums(), texture.row_sums()];
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
            let ctx =
                MultiFeatureContext { kappa: Some(&cell), total_mass: Some(&mass), filter: None };
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
}
