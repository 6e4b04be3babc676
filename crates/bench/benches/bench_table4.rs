//! Criterion bench for Table 4: the filter step on 8-bit approximations —
//! BOND-Hq as the engine's code sweep vs. a sequential VA-File scan, both
//! over the VA-File's one-segment code companion — plus the shared exact
//! refinement step.

use bond_baselines::VaFile;
use bond_bench::{hq_on_codes, workloads, ExperimentScale};
use bond_metrics::{DecomposableMetric, HistogramIntersection};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_table4(c: &mut Criterion) {
    let scale = ExperimentScale::Small;
    let table = workloads::corel(scale);
    let matrix = table.to_row_matrix();
    let queries = workloads::queries(&table, scale);
    let vafile = VaFile::build(&table, 8).unwrap();
    let live = table.live_bitmap();
    let k = 10;

    let mut group = c.benchmark_group("table4");
    group.bench_function("bond_hq_code_sweep", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            black_box(hq_on_codes(vafile.codes(), &live, q, k).unwrap());
        })
    });
    group.bench_function("vafile_filter", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            black_box(vafile.filter_histogram(q, k));
        })
    });
    group.bench_function("refinement_step", |b| {
        // refine a precomputed candidate set (the first query's) with exact values
        let candidates =
            hq_on_codes(vafile.codes(), &live, &queries[0], k).unwrap().0.survivors.to_rows();
        b.iter(|| {
            let metric = HistogramIntersection;
            let mut heap = vdstore::TopKLargest::new(k);
            for &row in &candidates {
                heap.push(row, metric.score(matrix.row(row), &queries[0]));
            }
            black_box(heap.into_sorted_vec());
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_table4
}
criterion_main!(benches);
