//! Micro-benchmarks of the storage-layer operators BOND is built from
//! (kfetch, uselect, bitmap iteration, quantization), plus the per-block
//! accumulation kernel. These are not a paper table; they document where the
//! per-iteration time goes and guard against regressions in the substrate.

use bond_bench::{workloads, ExperimentScale};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vdstore::{ops, Bitmap, SegmentStats, StoreCodes};

fn bench_operators(c: &mut Criterion) {
    let table = workloads::corel(ExperimentScale::Small);
    let column = table.column(0).unwrap();
    let values = column.values();
    let rows = table.rows();

    let mut group = c.benchmark_group("operators");
    group.bench_function("kfetch_largest_k10", |b| {
        b.iter(|| black_box(ops::kfetch_largest(values, 10).unwrap()))
    });
    group.bench_function("uselect_bitmap", |b| {
        b.iter(|| black_box(ops::uselect_bitmap(values, 0.001, 1.0)))
    });
    group.bench_function("map_min_const", |b| {
        b.iter(|| black_box(ops::map_min_const(values, 0.05)))
    });
    group.bench_function("bitmap_iterate_half_full", |b| {
        let mut bitmap = Bitmap::new(rows);
        for r in (0..rows as u32).step_by(2) {
            bitmap.set(r);
        }
        b.iter(|| {
            let mut acc = 0u64;
            for r in bitmap.iter() {
                acc += r as u64;
            }
            black_box(acc)
        })
    });
    group.bench_function("quantize_column_8bit", |b| {
        // one column, one segment: one global grid, as a VA-File has
        let one = table.project(&[0]).unwrap();
        let specs = one.partition_specs(1);
        let stats: Vec<SegmentStats> =
            specs.iter().map(|s| s.view(&one).unwrap().stats()).collect();
        b.iter(|| black_box(StoreCodes::build(&one, &specs, &stats, 8).unwrap()))
    });
    group.bench_function("accumulate_block", |b| {
        let mut partial = vec![0.0f64; rows];
        b.iter(|| {
            ops::accumulate(&mut partial, values).unwrap();
            black_box(&partial);
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_operators
}
criterion_main!(benches);
