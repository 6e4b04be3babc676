//! The multi-feature experiment of Section 8.2: synchronized BOND search in
//! two feature collections vs. per-feature search followed by stream
//! merging. The paper reports synchronized search to be ~20 % faster for the
//! `average` aggregate and ~70 % faster for the `min` aggregate, granting
//! the stream-merging baseline the (unknowable in practice) optimal
//! per-stream depth; this harness reproduces that protocol. It also times
//! the same queries through the partitioned [`Engine`] (colour table owned,
//! texture table external) and checks its answers against the sequential
//! synchronized searcher bit for bit.

use std::sync::Arc;
use std::time::Instant;

use bond::{
    BlockSchedule, BondParams, BondSearcher, DimensionOrdering, FeatureMetricKind, FeatureQuery,
    MultiFeatureSearcher,
};
use bond_baselines::{merge_streams, RankedStream};
use bond_exec::{AggregateSpec, Engine, FeatureSpec, MultiFeatureSpec, QuerySpec};
use bond_metrics::DecomposableMetric;
use bond_metrics::{ScoreAggregate, SquaredEuclidean};
use vdstore::topk::Scored;
use vdstore::DecomposedTable;

use crate::{workloads, ExperimentScale};

/// Result of one aggregate's comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiFeatureComparison {
    /// Aggregate name ("average" or "min").
    pub aggregate: String,
    /// Mean synchronized-search time per query (ms).
    pub synchronized_ms: f64,
    /// Mean time per query (ms) of the same synchronized search through
    /// the partitioned engine.
    pub engine_ms: f64,
    /// Mean stream-merging time per query (ms), including the per-feature
    /// searches at the optimal depth.
    pub stream_merge_ms: f64,
    /// The optimal per-stream depth granted to the baseline.
    pub optimal_stream_depth: usize,
    /// Whether both methods returned identical top-k sets for every query.
    pub results_agree: bool,
    /// Whether the engine's hits equalled the sequential synchronized
    /// searcher's, bit for bit, for every query.
    pub engine_agrees: bool,
}

/// The two feature collections, their per-query vectors, and the engine
/// that owns the colour collection.
struct Collections {
    color: Arc<DecomposedTable>,
    texture: Arc<DecomposedTable>,
    color_queries: Vec<Vec<f64>>,
    texture_queries: Vec<Vec<f64>>,
    engine: Engine,
}

/// Runs the Section 8.2 experiment for both aggregates.
///
/// # Errors
///
/// Whatever the sequential searchers or the engine report; none is
/// expected on the generated collections.
pub fn sec82(scale: ExperimentScale) -> bond::Result<Vec<MultiFeatureComparison>> {
    let color = Arc::new(workloads::clustered_feature(scale, 64, 0xC0105));
    let texture = Arc::new(workloads::clustered_feature(scale, 128, 0x7E97));
    let data = Collections {
        color_queries: workloads::queries(&color, scale),
        texture_queries: workloads::queries(&texture, scale),
        engine: Engine::builder(Arc::clone(&color)).partitions(8).threads(4).build()?,
        color,
        texture,
    };
    let k = 10;
    Ok(vec![
        compare(&data, &AggregateSpec::WeightedAverage(vec![0.5, 0.5]), "average", k)?,
        compare(&data, &AggregateSpec::FuzzyMin, "min", k)?,
    ])
}

fn similarity_of(table: &DecomposedTable, row: u32, query: &[f64]) -> f64 {
    let d = SquaredEuclidean.score(&table.row(row).expect("row in range"), query);
    SquaredEuclidean::similarity_from_distance(d, table.dims())
}

fn topk_rows(hits: &[Scored]) -> Vec<u32> {
    let mut rows: Vec<u32> = hits.iter().map(|h| h.row).collect();
    rows.sort_unstable();
    rows
}

/// One aggregate's comparison.
fn compare(
    data: &Collections,
    aggregate: &AggregateSpec,
    label: &str,
    k: usize,
) -> bond::Result<MultiFeatureComparison> {
    let (color, texture) = (data.color.as_ref(), data.texture.as_ref());
    let combine = aggregate.build()?;
    let searcher = MultiFeatureSearcher::new(vec![color, texture])?;
    let baseline = StreamMerge {
        color: BondSearcher::new(color),
        texture: BondSearcher::new(texture),
        params: BondParams {
            schedule: BlockSchedule::Fixed(8),
            ordering: DimensionOrdering::QueryValueDescending,
            ..BondParams::default()
        },
    };

    let mut sync_total = 0.0;
    let mut engine_total = 0.0;
    let mut merge_total = 0.0;
    let mut max_depth = 0usize;
    let mut agree = true;
    let mut engine_agrees = true;

    for (cq, tq) in data.color_queries.iter().zip(&data.texture_queries) {
        // --- synchronized BOND search ---
        let feature_queries = vec![
            FeatureQuery { query: cq.clone(), metric: FeatureMetricKind::Euclidean },
            FeatureQuery { query: tq.clone(), metric: FeatureMetricKind::Euclidean },
        ];
        let start = Instant::now();
        let sync = searcher.search(&feature_queries, &*combine, k, BlockSchedule::Fixed(8))?;
        sync_total += start.elapsed().as_secs_f64() * 1000.0;
        let sync_rows = topk_rows(&sync.hits);

        // --- the same search through the engine ---
        let spec = engine_spec(cq, tq, &data.texture, aggregate, k);
        let start = Instant::now();
        let outcome = data.engine.search_spec(&spec)?;
        engine_total += start.elapsed().as_secs_f64() * 1000.0;
        engine_agrees &= outcome.hits == sync.hits;

        // --- stream merging at the optimal depth ---
        let (merge_ms, merge_rows, used_depth) = baseline.at_optimal_depth(cq, tq, &*combine, k)?;
        merge_total += merge_ms;
        max_depth = max_depth.max(used_depth);
        agree &= sync_rows == merge_rows;
    }
    let n = data.color_queries.len() as f64;
    Ok(MultiFeatureComparison {
        aggregate: label.to_string(),
        synchronized_ms: sync_total / n,
        engine_ms: engine_total / n,
        stream_merge_ms: merge_total / n,
        optimal_stream_depth: max_depth,
        results_agree: agree,
        engine_agrees,
    })
}

/// The engine's form of one query pair: the colour query against the
/// engine's own table, the texture query against `texture` as an external
/// feature.
fn engine_spec(
    color_query: &[f64],
    texture_query: &[f64],
    texture: &Arc<DecomposedTable>,
    aggregate: &AggregateSpec,
    k: usize,
) -> QuerySpec {
    QuerySpec::multi_feature(
        MultiFeatureSpec::new(
            vec![
                FeatureSpec::new(color_query.to_vec(), FeatureMetricKind::Euclidean),
                FeatureSpec::external(
                    texture_query.to_vec(),
                    FeatureMetricKind::Euclidean,
                    Arc::clone(texture),
                ),
            ],
            aggregate.clone(),
        ),
        k,
    )
}

/// The stream-merging baseline: one BOND Ev searcher per feature.
struct StreamMerge<'a> {
    color: BondSearcher<'a>,
    texture: BondSearcher<'a>,
    params: BondParams,
}

impl StreamMerge<'_> {
    /// Finds the smallest per-stream depth that lets the merge terminate
    /// correctly (the paper grants the baseline this optimum), timing the
    /// whole baseline pipeline at each tried depth. Returns the time (ms)
    /// and top-k rows at that depth, and the depth itself.
    fn at_optimal_depth(
        &self,
        cq: &[f64],
        tq: &[f64],
        aggregate: &dyn ScoreAggregate,
        k: usize,
    ) -> bond::Result<(f64, Vec<u32>, usize)> {
        let (color, texture) = (self.color.table(), self.texture.table());
        let mut depth = k.max(8);
        loop {
            let start = Instant::now();
            let color_stream = ranked_stream(&self.color, cq, depth, &self.params, color.dims())?;
            let texture_stream =
                ranked_stream(&self.texture, tq, depth, &self.params, texture.dims())?;
            let ra = |f: usize, row: u32| -> f64 {
                if f == 0 {
                    similarity_of(color, row, cq)
                } else {
                    similarity_of(texture, row, tq)
                }
            };
            let merged = merge_streams(&[color_stream, texture_stream], &ra, aggregate, k);
            let elapsed = start.elapsed().as_secs_f64() * 1000.0;
            if merged.complete || depth >= color.rows() {
                return Ok((elapsed, topk_rows(&merged.hits), depth));
            }
            depth = (depth * 2).min(color.rows());
        }
    }
}

/// A per-feature ranked stream of the `depth` most similar objects, produced
/// by a BOND Ev search in that feature collection (similarities on the
/// Equation 3 scale).
fn ranked_stream(
    searcher: &BondSearcher<'_>,
    query: &[f64],
    depth: usize,
    params: &BondParams,
    dims: usize,
) -> bond::Result<RankedStream> {
    let depth = depth.min(searcher.table().rows());
    let outcome = searcher.euclidean_ev(query, depth, params)?;
    Ok(RankedStream::new(
        outcome
            .hits
            .into_iter()
            .map(|h| Scored {
                row: h.row,
                score: SquaredEuclidean::similarity_from_distance(h.score, dims),
            })
            .collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronized_and_merged_results_agree() {
        let results = sec82(ExperimentScale::Small).unwrap();
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(r.results_agree, "{} results diverged", r.aggregate);
            assert!(
                r.engine_agrees,
                "{}: engine hits differ from the sequential searcher's",
                r.aggregate
            );
            assert!(r.synchronized_ms > 0.0);
            assert!(r.engine_ms > 0.0);
            assert!(r.stream_merge_ms > 0.0);
            assert!(r.optimal_stream_depth >= 10);
        }
        assert_eq!(results[0].aggregate, "average");
        assert_eq!(results[1].aggregate, "min");
    }
}
