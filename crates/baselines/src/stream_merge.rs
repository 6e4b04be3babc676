//! Stream merging for multi-feature queries (Section 8.2's baseline).
//!
//! The classical way to answer "find the k images with the best combined
//! color and texture similarity" is to obtain, per feature, a ranked stream
//! of the most similar objects (e.g. by running a k'-NN search in each
//! feature collection), then merge the streams with a threshold-style
//! algorithm (Fagin's algorithm / Güntzer et al.'s quick-combine): objects
//! popped from any stream are completed by *random accesses* into the other
//! features, a bounded heap keeps the best aggregates seen, and the merge
//! stops once no unseen object can beat the current k-th best — the
//! *threshold* computed from the current stream positions.
//!
//! The difficulty the paper points out is choosing the per-stream depth k':
//! too small and the merge cannot terminate correctly, too large and the
//! per-feature searches dominate the cost. [`MergeResult::complete`] reports
//! whether the streams were deep enough, so a caller can re-run with deeper
//! streams (the experiment harness grants the baseline the *optimal* depth,
//! as the paper does).

use std::collections::HashSet;

use bond_metrics::ScoreAggregate;
use vdstore::topk::Scored;
use vdstore::{descending_nan_last, RowId, TopKLargest};

/// A per-feature ranked stream: entries sorted by descending similarity.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedStream {
    entries: Vec<Scored>,
}

impl RankedStream {
    /// Creates a stream from (row, similarity) entries; they are sorted by
    /// descending similarity internally.
    pub fn new(mut entries: Vec<Scored>) -> Self {
        entries.sort_by(|a, b| descending_nan_last(a.score, b.score).then(a.row.cmp(&b.row)));
        RankedStream { entries }
    }

    /// Number of entries available for sorted access.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The i-th best entry, if present.
    pub fn get(&self, i: usize) -> Option<Scored> {
        self.entries.get(i).copied()
    }
}

/// Outcome of a stream merge.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeResult {
    /// The k best rows by aggregate similarity, best first.
    pub hits: Vec<Scored>,
    /// Number of sorted accesses performed (stream pops).
    pub sorted_accesses: usize,
    /// Number of random accesses performed (completions in other features).
    pub random_accesses: usize,
    /// Whether the threshold condition was met before any stream ran dry.
    /// If `false` the result may be incorrect and the caller should retry
    /// with deeper streams.
    pub complete: bool,
}

/// Merges per-feature ranked streams with the threshold algorithm.
///
/// `random_access(feature, row)` must return the exact similarity of `row`
/// in `feature`. The aggregate must be monotonically increasing (all the
/// aggregates of Section 8.2 are).
pub fn merge_streams(
    streams: &[RankedStream],
    random_access: &dyn Fn(usize, RowId) -> f64,
    aggregate: &dyn ScoreAggregate,
    k: usize,
) -> MergeResult {
    assert!(!streams.is_empty(), "need at least one stream");
    assert!(k > 0, "k must be positive");
    let features = streams.len();
    let mut heap = TopKLargest::new(k);
    let mut seen: HashSet<RowId> = HashSet::new();
    let mut positions = vec![0usize; features];
    let mut last_scores: Vec<f64> =
        streams.iter().map(|s| s.get(0).map(|e| e.score).unwrap_or(0.0)).collect();
    let mut sorted_accesses = 0usize;
    let mut random_accesses = 0usize;
    let mut complete = false;

    loop {
        let mut any_progress = false;
        for f in 0..features {
            let Some(entry) = streams[f].get(positions[f]) else { continue };
            positions[f] += 1;
            sorted_accesses += 1;
            last_scores[f] = entry.score;
            any_progress = true;
            if seen.insert(entry.row) {
                // complete the object with random accesses into the other features
                let mut scores = vec![0.0; features];
                for (g, score) in scores.iter_mut().enumerate() {
                    if g == f {
                        *score = entry.score;
                    } else {
                        *score = random_access(g, entry.row);
                        random_accesses += 1;
                    }
                }
                heap.push(entry.row, aggregate.combine(&scores));
            }
        }
        // Threshold: the best aggregate any unseen object could still reach.
        let threshold = aggregate.combine(&last_scores);
        if let Some(kth) = heap.kth() {
            if kth >= threshold {
                complete = true;
                break;
            }
        }
        if !any_progress {
            // All streams are exhausted without the threshold ever being
            // reached. We cannot know here whether the streams covered the
            // whole collection, so stay conservative: the caller should
            // retry with deeper streams.
            break;
        }
    }

    MergeResult { hits: heap.into_sorted_vec(), sorted_accesses, random_accesses, complete }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bond_metrics::{FuzzyMin, WeightedAverage};

    /// Two features over five objects with known similarities.
    fn toy() -> (Vec<Vec<f64>>, Vec<RankedStream>) {
        // feature-major: sims[f][row]
        let sims = vec![vec![0.9, 0.8, 0.1, 0.4, 0.3], vec![0.2, 0.7, 0.9, 0.5, 0.1]];
        let streams = sims
            .iter()
            .map(|s| {
                RankedStream::new(
                    s.iter()
                        .enumerate()
                        .map(|(r, &v)| Scored { row: r as RowId, score: v })
                        .collect(),
                )
            })
            .collect();
        (sims, streams)
    }

    fn brute_force_top_k(
        sims: &[Vec<f64>],
        aggregate: &dyn ScoreAggregate,
        k: usize,
    ) -> Vec<RowId> {
        let rows = sims[0].len();
        let mut scored: Vec<(RowId, f64)> = (0..rows)
            .map(|r| {
                let component: Vec<f64> = sims.iter().map(|s| s[r]).collect();
                (r as RowId, aggregate.combine(&component))
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        scored.into_iter().take(k).map(|(r, _)| r).collect()
    }

    #[test]
    fn merge_matches_brute_force_for_average() {
        let (sims, streams) = toy();
        let agg = WeightedAverage::uniform(2).unwrap();
        let ra = |f: usize, r: RowId| sims[f][r as usize];
        for k in 1..=3 {
            let result = merge_streams(&streams, &ra, &agg, k);
            assert!(result.complete);
            let got: Vec<RowId> = result.hits.iter().map(|s| s.row).collect();
            assert_eq!(got, brute_force_top_k(&sims, &agg, k), "k={k}");
        }
    }

    #[test]
    fn merge_matches_brute_force_for_min() {
        let (sims, streams) = toy();
        let agg = FuzzyMin;
        let ra = |f: usize, r: RowId| sims[f][r as usize];
        let result = merge_streams(&streams, &ra, &agg, 2);
        assert!(result.complete);
        let got: Vec<RowId> = result.hits.iter().map(|s| s.row).collect();
        assert_eq!(got, brute_force_top_k(&sims, &agg, 2));
    }

    #[test]
    fn shallow_streams_are_reported_incomplete() {
        let (sims, _) = toy();
        // streams truncated to depth 1: the merge cannot certify the answer
        let streams: Vec<RankedStream> = sims
            .iter()
            .map(|s| {
                let mut entries: Vec<Scored> = s
                    .iter()
                    .enumerate()
                    .map(|(r, &v)| Scored { row: r as RowId, score: v })
                    .collect();
                entries.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap());
                entries.truncate(1);
                RankedStream::new(entries)
            })
            .collect();
        let agg = WeightedAverage::uniform(2).unwrap();
        let ra = |f: usize, r: RowId| sims[f][r as usize];
        let result = merge_streams(&streams, &ra, &agg, 3);
        assert!(!result.complete);
    }

    #[test]
    fn accounting_counts_accesses() {
        let (sims, streams) = toy();
        let agg = WeightedAverage::uniform(2).unwrap();
        let ra = |f: usize, r: RowId| sims[f][r as usize];
        let result = merge_streams(&streams, &ra, &agg, 1);
        assert!(result.sorted_accesses > 0);
        assert!(result.random_accesses > 0);
        // every random access completes a newly seen object in one other feature
        assert!(result.random_accesses <= result.sorted_accesses);
    }

    #[test]
    fn ranked_stream_sorts_and_exposes_entries() {
        let s = RankedStream::new(vec![
            Scored { row: 2, score: 0.1 },
            Scored { row: 0, score: 0.9 },
            Scored { row: 1, score: 0.5 },
        ]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.get(0).unwrap().row, 0);
        assert_eq!(s.get(2).unwrap().row, 2);
        assert!(s.get(3).is_none());
    }

    #[test]
    #[should_panic(expected = "need at least one stream")]
    fn empty_stream_list_panics() {
        let agg = FuzzyMin;
        let _ = merge_streams(&[], &|_, _| 0.0, &agg, 1);
    }
}
