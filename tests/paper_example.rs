//! Cross-crate integration test: the worked example of Section 4.2 /
//! Table 2, exercised through every layer of the system — the storage
//! substrate, the metric bounds, the BOND engine, the relational-algebra
//! formulation and the sequential-scan baseline must all tell the same
//! story.

use bond::{BlockSchedule, BondParams, BondSearcher, DimensionOrdering, RowId};
use bond_baselines::sequential_scan;
use bond_metrics::HistogramIntersection;
use bond_relalg::BondHqProgram;
use vdstore::DecomposedTable;

fn collection() -> Vec<Vec<f64>> {
    vec![
        vec![0.1, 0.3, 0.4, 0.2],
        vec![0.05, 0.05, 0.9, 0.0],
        vec![0.8, 0.1, 0.05, 0.05],
        vec![0.2, 0.6, 0.1, 0.1],
        vec![0.7, 0.15, 0.15, 0.0],
        vec![0.925, 0.0, 0.0, 0.025],
        vec![0.55, 0.2, 0.15, 0.1],
        vec![0.05, 0.1, 0.05, 0.8],
        vec![0.45, 0.5, 0.05, 0.05],
    ]
}

fn query() -> Vec<f64> {
    vec![0.7, 0.15, 0.1, 0.05]
}

fn sorted_rows(rows: impl IntoIterator<Item = RowId>) -> Vec<RowId> {
    let mut v: Vec<RowId> = rows.into_iter().collect();
    v.sort_unstable();
    v
}

#[test]
fn table2_worked_example_end_to_end() {
    let table = DecomposedTable::from_vectors("table2", &collection()).unwrap();
    let q = query();
    let k = 3;
    let params = BondParams {
        schedule: BlockSchedule::Fixed(2),
        ordering: DimensionOrdering::Natural,
        ..BondParams::default()
    };

    // sequential scan (ground truth): {h3, h5, h7} = rows {2, 4, 6}
    let truth = sequential_scan(&table.to_row_matrix(), &q, k, &HistogramIntersection);
    assert_eq!(sorted_rows(truth.hits.iter().map(|h| h.row)), vec![2, 4, 6]);

    // BOND engine, both criteria
    let searcher = BondSearcher::new(&table);
    let hq = searcher.histogram_intersection_hq(&q, k, &params).unwrap();
    let hh = searcher.histogram_intersection_hh(&q, k, &params).unwrap();
    assert_eq!(sorted_rows(hq.hits.iter().map(|h| h.row)), vec![2, 4, 6]);
    assert_eq!(sorted_rows(hh.hits.iter().map(|h| h.row)), vec![2, 4, 6]);

    // the paper's pruning narrative: Hq removes 4 histograms after m = 2,
    // Hh already isolates the answer set
    assert_eq!(hq.trace.checkpoints[0].candidates, 5);
    assert_eq!(hh.trace.checkpoints[0].candidates, 3);

    // the relational-algebra formulation agrees
    let mil = BondHqProgram::new(k, 2).unwrap().execute(&table, &q).unwrap();
    assert_eq!(sorted_rows(mil.hits.iter().map(|h| h.row)), vec![2, 4, 6]);

    // exact similarities match Table 2's S column
    let mut scores: Vec<f64> = hq.hits.iter().map(|h| h.score).collect();
    scores.sort_by(|a, b| b.partial_cmp(a).unwrap());
    assert!((scores[0] - 0.95).abs() < 1e-12); // h5
    assert!((scores[1] - 0.90).abs() < 1e-12); // h3
    assert!((scores[2] - 0.85).abs() < 1e-12); // h7
}

#[test]
fn persisted_collection_round_trips_through_search() {
    let table = DecomposedTable::from_vectors("table2", &collection()).unwrap();
    let specs = table.partition_specs(1);
    let stats: Vec<_> = specs.iter().map(|s| s.view(&table).unwrap().stats()).collect();
    let bytes =
        vdstore::persist::store_to_bytes_with_codes(&table, &specs, &stats, None, None).unwrap();
    let reloaded = vdstore::persist::store_from_bytes(&bytes).unwrap().table;
    let searcher = BondSearcher::new(&reloaded);
    let outcome = searcher.histogram_intersection_hq(&query(), 3, &BondParams::default()).unwrap();
    assert_eq!(sorted_rows(outcome.hits.iter().map(|h| h.row)), vec![2, 4, 6]);
}

#[test]
fn tombstoned_rows_are_excluded_across_the_stack() {
    let mut table = DecomposedTable::from_vectors("table2", &collection()).unwrap();
    table.delete(4).unwrap(); // remove h5, the best match
    let searcher = BondSearcher::new(&table);
    let outcome = searcher.histogram_intersection_hh(&query(), 3, &BondParams::default()).unwrap();
    let rows = sorted_rows(outcome.hits.iter().map(|h| h.row));
    assert!(!rows.contains(&4));
    assert_eq!(rows.len(), 3);
    // after reorganisation the same search still works on compacted row ids
    table.reorganize();
    let searcher = BondSearcher::new(&table);
    let outcome = searcher.histogram_intersection_hh(&query(), 3, &BondParams::default()).unwrap();
    assert_eq!(outcome.hits.len(), 3);
}
