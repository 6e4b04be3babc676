//! The Vector-Approximation File (Weber, Schek & Blott, VLDB 1998).
//!
//! The VA-File is the paper's strongest sequential competitor (Table 4): a
//! small approximation (typically 8 bits per dimension) of every vector is
//! scanned in a *filter* step that produces a candidate set with safe
//! score bounds; a *refinement* step then looks up the exact vectors of the
//! candidates and resolves the true top k.
//!
//! The approximation is the workspace's one code format: a one-segment
//! [`StoreCodes`] companion, so every dimension has one grid over its
//! column's `[min, max]` — the classic VA-File cells. The filter is the
//! engine's full-interval sweep ([`interval_scores_into`]): per dimension it
//! asks the metric for the best and worst contribution any value inside a
//! cell can make ([`DecomposableMetric::best_contribution`] /
//! [`DecomposableMetric::worst_contribution`]) and adds them onto every
//! row's optimistic and pessimistic full-score bound, so baseline and
//! engine agree on what the codes prove. The filter then keeps a k-th best
//! *pessimistic* bound τ and retains every vector whose *optimistic* bound
//! reaches it, which is precisely the VA-SSA variant of the original paper.
//! Unlike BOND it never prunes while it scans: every cell is read.

use bond::quantfilter::interval_scores_into;
use bond::{BondError, Kernel, QuantScratch};
use bond_metrics::{DecomposableMetric, HistogramIntersection, Objective, SquaredEuclidean};
use vdstore::topk::Scored;
use vdstore::{
    DecomposedTable, Result, RowId, RowMatrix, StoreCodes, TopKLargest, TopKSmallest, VdError,
};

/// The result of a complete VA-File search (filter + refinement).
#[derive(Debug, Clone, PartialEq)]
pub struct VaSearchResult {
    /// The k best rows, best first, with exact scores.
    pub hits: Vec<Scored>,
    /// Number of vectors surviving the filter step (those needing exact
    /// refinement) — the quantity Table 4 compares against BOND-on-codes.
    pub candidates_after_filter: usize,
    /// Per-dimension code inspections performed in the filter step.
    pub filter_dims_touched: usize,
    /// Per-dimension exact-value inspections performed in the refinement.
    pub refine_dims_touched: usize,
}

/// A vector-approximation file over a decomposed table.
#[derive(Debug, Clone)]
pub struct VaFile {
    codes: StoreCodes,
}

impl VaFile {
    /// Builds the approximation with `bits` bits per dimension (1 ..= 8;
    /// the paper and the original VA-File use 8): a one-segment code
    /// companion of `table`. Fails on an empty table, a width outside
    /// `1..=8` and non-finite values.
    pub fn build(table: &DecomposedTable, bits: u8) -> Result<Self> {
        if table.rows() == 0 {
            return Err(VdError::Empty("table"));
        }
        let specs = table.partition_specs(1);
        let stats =
            specs.iter().map(|spec| Ok(spec.view(table)?.stats())).collect::<Result<Vec<_>>>()?;
        Ok(VaFile { codes: StoreCodes::build(table, &specs, &stats, bits)? })
    }

    /// The underlying one-segment code companion.
    pub fn codes(&self) -> &StoreCodes {
        &self.codes
    }

    /// Approximate size of the approximation file in bytes: one byte per
    /// code at any width.
    pub fn approx_bytes(&self) -> usize {
        self.codes.rows() * self.codes.dims()
    }

    /// Filter step under any decomposable metric: sweeps every code into
    /// each row's optimistic and pessimistic full-score bound, proves the
    /// k-th best pessimistic bound τ and keeps every row whose optimistic
    /// bound can still reach it. Returns the candidate rows and the number
    /// of code inspections.
    ///
    /// Metrics that leave the default (vacuous) interval bounds degenerate
    /// the filter to "keep everything" — never to a wrong answer.
    pub fn filter_metric(
        &self,
        metric: &dyn DecomposableMetric,
        query: &[f64],
        k: usize,
    ) -> (Vec<RowId>, usize) {
        let rows = self.codes.rows();
        assert_eq!(query.len(), self.codes.dims(), "query dimensionality mismatch");
        assert!(k > 0, "k must be positive");
        let mut scratch = QuantScratch::new();
        let cells = self
            .codes
            .segment_view(0)
            .map_err(BondError::Storage)
            .and_then(|view| {
                interval_scores_into(&view, metric, query, Kernel::active(), &mut scratch)
            })
            .expect("a one-segment companion of the query's dimensionality");
        let (opt, pes) = (scratch.opt(), scratch.pes());
        let tau = match metric.objective() {
            Objective::Maximize => {
                let mut heap = TopKLargest::new(k.min(rows));
                for (r, &p) in pes.iter().enumerate() {
                    heap.push(r as RowId, p);
                }
                heap.kth()
            }
            Objective::Minimize => {
                let mut heap = TopKSmallest::new(k.min(rows));
                for (r, &p) in pes.iter().enumerate() {
                    heap.push(r as RowId, p);
                }
                heap.kth()
            }
        };
        // a vacuous (infinite) pessimistic bound proves nothing
        let candidates: Vec<RowId> = match tau.filter(|t| t.is_finite()) {
            None => (0..rows as RowId).collect(),
            Some(tau) => (0..rows as RowId)
                .filter(|&r| match metric.objective() {
                    Objective::Maximize => opt[r as usize] >= tau - 1e-12,
                    Objective::Minimize => opt[r as usize] <= tau + 1e-12,
                })
                .collect(),
        };
        (candidates, cells as usize)
    }

    /// Filter step for squared Euclidean distance: returns the candidate
    /// rows (those whose lower-bound distance does not exceed the k-th
    /// smallest upper-bound distance) and the number of code inspections.
    pub fn filter_euclidean(&self, query: &[f64], k: usize) -> (Vec<RowId>, usize) {
        self.filter_metric(&SquaredEuclidean, query, k)
    }

    /// Filter step for histogram intersection: returns the candidate rows
    /// (those whose upper-bound similarity reaches the k-th largest
    /// lower-bound similarity) and the number of code inspections.
    pub fn filter_histogram(&self, query: &[f64], k: usize) -> (Vec<RowId>, usize) {
        self.filter_metric(&HistogramIntersection, query, k)
    }

    /// Complete search (filter + exact refinement) under any decomposable
    /// metric. `exact` must hold the original vectors.
    pub fn search_metric(
        &self,
        exact: &RowMatrix,
        metric: &dyn DecomposableMetric,
        query: &[f64],
        k: usize,
    ) -> VaSearchResult {
        let (candidates, filter_work) = self.filter_metric(metric, query, k);
        let cap = k.min(candidates.len().max(1));
        let hits = match metric.objective() {
            Objective::Maximize => {
                let mut heap = TopKLargest::new(cap);
                for &r in &candidates {
                    heap.push(r, metric.score(exact.row(r), query));
                }
                heap.into_sorted_vec()
            }
            Objective::Minimize => {
                let mut heap = TopKSmallest::new(cap);
                for &r in &candidates {
                    heap.push(r, metric.score(exact.row(r), query));
                }
                heap.into_sorted_vec()
            }
        };
        VaSearchResult {
            hits,
            candidates_after_filter: candidates.len(),
            filter_dims_touched: filter_work,
            refine_dims_touched: candidates.len() * exact.dims(),
        }
    }

    /// Complete search (filter + exact refinement) under squared Euclidean
    /// distance. `exact` must hold the original vectors.
    pub fn search_euclidean(&self, exact: &RowMatrix, query: &[f64], k: usize) -> VaSearchResult {
        self.search_metric(exact, &SquaredEuclidean, query, k)
    }

    /// Complete search (filter + exact refinement) under histogram
    /// intersection.
    pub fn search_histogram(&self, exact: &RowMatrix, query: &[f64], k: usize) -> VaSearchResult {
        self.search_metric(exact, &HistogramIntersection, query, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqscan::sequential_scan;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_table(rows: usize, dims: usize, seed: u64) -> DecomposedTable {
        let mut rng = StdRng::seed_from_u64(seed);
        let vectors: Vec<Vec<f64>> = (0..rows)
            .map(|_| {
                let mut v: Vec<f64> = (0..dims).map(|_| rng.gen::<f64>()).collect();
                let s: f64 = v.iter().sum();
                for x in &mut v {
                    *x /= s;
                }
                v
            })
            .collect();
        DecomposedTable::from_vectors("rand", &vectors).unwrap()
    }

    #[test]
    fn euclidean_search_matches_sequential_scan() {
        let table = random_table(400, 12, 3);
        let exact = table.to_row_matrix();
        let va = VaFile::build(&table, 8).unwrap();
        for (qi, k) in [(0u32, 1usize), (5, 5), (17, 10)] {
            let query = table.row(qi).unwrap();
            let truth = sequential_scan(&exact, &query, k, &SquaredEuclidean);
            let result = va.search_euclidean(&exact, &query, k);
            let rows = |hits: &[Scored]| {
                let mut v: Vec<RowId> = hits.iter().map(|s| s.row).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(rows(&truth.hits), rows(&result.hits), "query {qi}, k {k}");
            assert!(result.candidates_after_filter >= k);
            assert!(result.candidates_after_filter < exact.rows());
        }
    }

    #[test]
    fn histogram_search_matches_sequential_scan() {
        let table = random_table(400, 12, 7);
        let exact = table.to_row_matrix();
        let va = VaFile::build(&table, 8).unwrap();
        for (qi, k) in [(3u32, 1usize), (42, 5), (99, 10)] {
            let query = table.row(qi).unwrap();
            let truth = sequential_scan(&exact, &query, k, &HistogramIntersection);
            let result = va.search_histogram(&exact, &query, k);
            let rows = |hits: &[Scored]| {
                let mut v: Vec<RowId> = hits.iter().map(|s| s.row).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(rows(&truth.hits), rows(&result.hits), "query {qi}, k {k}");
        }
    }

    #[test]
    fn fewer_bits_mean_more_candidates() {
        let table = random_table(500, 8, 11);
        let query = table.row(0).unwrap();
        let va8 = VaFile::build(&table, 8).unwrap();
        let va2 = VaFile::build(&table, 2).unwrap();
        let (c8, _) = va8.filter_euclidean(&query, 10);
        let (c2, _) = va2.filter_euclidean(&query, 10);
        assert!(
            c2.len() >= c8.len(),
            "coarser quantization cannot produce fewer candidates ({} vs {})",
            c2.len(),
            c8.len()
        );
        assert!(va2.approx_bytes() <= va8.approx_bytes());
    }

    #[test]
    fn filter_never_discards_a_true_neighbor() {
        let table = random_table(300, 10, 13);
        let exact = table.to_row_matrix();
        let va = VaFile::build(&table, 4).unwrap();
        for qi in [1u32, 50, 200] {
            let query = table.row(qi).unwrap();
            let truth = sequential_scan(&exact, &query, 10, &SquaredEuclidean);
            let (candidates, _) = va.filter_euclidean(&query, 10);
            for hit in &truth.hits {
                assert!(
                    candidates.contains(&hit.row),
                    "true neighbour {} missing from the candidate set",
                    hit.row
                );
            }
        }
    }

    /// The generic filter serves metrics the hand-rolled filters never
    /// knew: weighted Euclidean flows through the same shared
    /// `best/worst_contribution` bounds and matches the sequential truth.
    #[test]
    fn weighted_metrics_flow_through_the_shared_bounds() {
        use bond_metrics::WeightedSquaredEuclidean;
        let table = random_table(300, 8, 23);
        let exact = table.to_row_matrix();
        let va = VaFile::build(&table, 8).unwrap();
        let metric =
            WeightedSquaredEuclidean::new(vec![2.0, 0.5, 1.0, 3.0, 1.0, 0.0, 1.5, 1.0]).unwrap();
        for qi in [4u32, 120, 250] {
            let query = table.row(qi).unwrap();
            let truth = sequential_scan(&exact, &query, 10, &metric);
            let result = va.search_metric(&exact, &metric, &query, 10);
            let rows = |hits: &[Scored]| {
                let mut v: Vec<RowId> = hits.iter().map(|s| s.row).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(rows(&truth.hits), rows(&result.hits), "query {qi}");
            assert!(result.candidates_after_filter < exact.rows());
        }
    }

    #[test]
    fn work_accounting_is_reported() {
        let table = random_table(100, 6, 17);
        let exact = table.to_row_matrix();
        let va = VaFile::build(&table, 8).unwrap();
        let query = table.row(9).unwrap();
        let r = va.search_euclidean(&exact, &query, 3);
        assert_eq!(r.filter_dims_touched, 600);
        assert_eq!(r.refine_dims_touched, r.candidates_after_filter * 6);
        assert_eq!(r.hits.len(), 3);
        assert_eq!(va.codes().bits(), 8);
    }
}
