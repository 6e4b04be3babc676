//! Cross-kernel bit-identity: the ISA-pinned SIMD paths must produce the
//! exact same `f64` bit patterns as the portable scalar reference, for
//! every kernel entry point the hot loops use.
//!
//! The surfaces pinned:
//!
//! * the quantized sweeps across all four decomposable metrics — which
//!   covers all six pruning rules (`Hq`/`Hh` share histogram
//!   intersection, `Eq`/`Ev` squared Euclidean, `WHq`/`WEv` the weighted
//!   variants) — at 2-, 4- and 8-bit code widths: the one-lane `f64` sweep
//!   (`kernels::sweep_lane`), the two-sided interval sweep built from it
//!   (`quantfilter::interval_scores_into`, whose optimistic side must equal
//!   the one-lane sweep over the same LUTs) and the whole code filter
//!   (`quantfilter::filter_segment_with_kernel`: survivors, κ and counts);
//! * the code filter's 16-bit sweep (`kernels::sweep_codes`) and its
//!   quantizer (`kernels::quantize_lut`), each x86 implementation the host
//!   runs called directly against the scalar reference, over runs that end
//!   at their columns' last row (so the sweeps' prefetch addresses run past
//!   the column); a group's one-pass LUT build (`kernels::fill_best_lut`
//!   with the range it takes, then the quantizer) of every implementation
//!   against the two-step scalar reference; the whole filter over tables
//!   whose segments end on and off the 64-row step — the tests print one
//!   line per implementation they compared;
//! * the exact refine/warmup accumulate (`kernels::accumulate`,
//!   `accumulate_gather`), the exact search's dense block accumulate
//!   (`accumulate_block`, with and without the scanned mass, starting its
//!   sums at zero or not) and the fused gathered score-and-mass form
//!   (`accumulate_gather_with_mass`) across all four `KernelOp` shapes
//!   those six rules compile down to — the tests print one line per
//!   flavour they compared with the scalar reference;
//! * the pruning steps' 64-row survive mask (`kernels::survive_mask`) over
//!   adversarial values — NaN, ±0, ±∞, denormals, values equal to the bar;
//! * the exact pruning pass's word mask (`kernels::tail_mask`), every
//!   rule's closed-form optimistic bound straight from partial scores and
//!   masses, over the same kind of values and constants — the test prints
//!   one line per flavour it compared.
//!
//! Equality is `to_bits()` on every output — not approximate — because
//! kernel dispatch must never be observable in answers.

use bond::kernels::{self, CodeSweep, Kernel, LutRange, QuantLut, SurviveTest};
use bond::quantfilter::{filter_segment_with_kernel, interval_scores_into};
use bond::QuantScratch;
use bond_metrics::{
    CandidateState, DecomposableMetric, HistogramIntersection, KernelOp, Objective, OptimisticTail,
    SquaredEuclidean, WeightedHistogramIntersection, WeightedSquaredEuclidean,
};
use proptest::prelude::*;
use vdstore::{
    Bitmap, CodeParams, DecomposedTable, RowId, SegmentCodesView, SegmentStats, StoreCodes,
};

const DIMS: usize = 6;
/// Spans two partitions and, within each, more than one 64-cell kernel
/// block plus a non-multiple tail.
const ROWS: usize = 170;

/// Every kernel flavour this host can actually run, scalar first.
fn supported_kernels() -> Vec<Kernel> {
    Kernel::ALL.into_iter().filter(|k| k.is_supported()).collect()
}

/// Unit-cube vectors plus a query drawn from the same distribution.
fn collection() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    (
        proptest::collection::vec(proptest::collection::vec(0.0f64..=1.0, DIMS), ROWS),
        proptest::collection::vec(0.0f64..=1.0, DIMS),
    )
}

fn weights() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.05f64..=4.0, DIMS)
}

/// Runs the sweep over every segment with an explicit kernel and returns
/// the concatenated `[opt, pes]` bounds as raw bit patterns.
fn sweep_digest(
    codes: &StoreCodes,
    metric: &dyn DecomposableMetric,
    query: &[f64],
    kernel: Kernel,
) -> Vec<u64> {
    let mut scratch = QuantScratch::new();
    let mut digest = Vec::new();
    for si in 0..codes.n_segments() {
        let view = codes.segment_view(si).unwrap();
        interval_scores_into(&view, metric, query, kernel, &mut scratch).unwrap();
        digest.extend(scratch.opt().iter().chain(scratch.pes()).map(|v| v.to_bits()));
    }
    digest
}

/// The one-lane optimistic LUT of every dimension of a segment, built the
/// portable way (the optimistic lane of the metric's pair build), one
/// `levels`-entry table per dimension.
fn best_luts(
    view: &SegmentCodesView<'_>,
    metric: &dyn DecomposableMetric,
    query: &[f64],
) -> Vec<f64> {
    let levels = view.levels();
    let mut bounds = vec![(0.0, 0.0); levels];
    let mut pairs = vec![0.0; levels * 2];
    let mut luts = Vec::with_capacity(view.dims() * levels);
    for (d, &q) in query.iter().enumerate() {
        view.params(d).fill_cell_bounds(&mut bounds);
        metric.fill_contribution_pairs(d, &bounds, q, &mut pairs);
        luts.extend(pairs.iter().step_by(2));
    }
    luts
}

/// The one-lane sweep of every dimension over rows `rows` of a segment,
/// in groups of the kernel's width, the first group in `init` mode or
/// onto a zeroed accumulator.
fn lane_sweep(
    view: &SegmentCodesView<'_>,
    luts: &[f64],
    rows: std::ops::Range<usize>,
    kernel: Kernel,
    init: bool,
) -> Vec<u64> {
    let levels = view.levels();
    let group = kernels::sweep_group(kernel, levels);
    let mut acc = vec![if init { f64::NAN } else { 0.0 }; rows.len()];
    for start in (0..view.dims()).step_by(group) {
        let block = start..view.dims().min(start + group);
        let columns: Vec<&[u8]> =
            block.clone().map(|d| &view.dim_codes(d).unwrap()[rows.clone()]).collect();
        let luts = &luts[block.start * levels..block.end * levels];
        kernels::sweep_lane(kernel, &columns, luts, levels, &mut acc, init && start == 0);
    }
    bits_of(&acc)
}

fn bits_of(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Each column's range, taken by a plain pass over its entries.
fn ranges_of(luts: &[f64], levels: usize) -> Vec<LutRange> {
    let range = |lut: &[f64]| lut.iter().fold(LutRange::EMPTY, |r, &e| r.with(e));
    luts.chunks_exact(levels).map(range).collect()
}

/// `(rows, from)`: columns of `rows` codes, swept from row `from` to their
/// last row — whole columns on and off the 64-row step, and runs that
/// start mid-column.
const RUNS: [(usize, usize); 11] = [
    (1, 0),
    (63, 0),
    (64, 0),
    (65, 0),
    (200, 0),
    (511, 0),
    (513, 0),
    (65, 1),
    (200, 100),
    (511, 300),
    (513, 256),
];

/// The code filter's 16-bit sweep: every x86 implementation the host runs
/// (`gather`, `permute`), called directly, against the scalar reference —
/// group widths 1 to 32, 2, 16 and 256 levels, run lengths on and off the
/// 64-row step, `init` on and off, code bytes past the level count, and
/// both rounding directions. Every run ends at its columns' last row, so
/// each implementation's prefetch address runs past the column (by
/// `kernels::SWEEP_PREFETCH_ROWS` rows), and a second run starts mid-column
/// and ends there too. Every other group's LUTs are ramps (`c·δ`, as
/// a grid's cell edges give), whose entries quantize onto or next to
/// integers, where the quantizer's step decides. Each implementation's own
/// quantizer must give the scalar quantizer's entries, scale and offset;
/// its sweep must give the scalar sweep's bounds bit for bit. Prints one
/// line per implementation compared.
#[test]
fn code_sweep_implementations_match_the_scalar_reference() {
    let mut state = 0x5EED_C0DE_0F16_B175u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let sweeps: Vec<CodeSweep> =
        [CodeSweep::Gather, CodeSweep::Permute].into_iter().filter(|s| s.is_supported()).collect();
    let mut compared = vec![0usize; sweeps.len()];
    for levels in [2usize, 16, 256] {
        for width in 1..=kernels::MAX_SWEEP_GROUP {
            let delta = (next() % 1000 + 1) as f64 * 1e-3;
            let luts: Vec<f64> = (0..width * levels)
                .map(|i| match width % 2 {
                    0 => (i % levels) as f64 * delta,
                    _ => (next() >> 11) as f64 / (1u64 << 53) as f64 * 3.0 - 0.5,
                })
                .collect();
            let ranges = ranges_of(&luts, levels);
            for objective in [Objective::Minimize, Objective::Maximize] {
                let mut reference = QuantLut::new();
                let scalar = CodeSweep::Scalar;
                kernels::quantize_lut(scalar, objective, &luts, &ranges, levels, &mut reference);
                let quantized: Vec<QuantLut> = sweeps
                    .iter()
                    .map(|&sweep| {
                        let mut lut = QuantLut::new();
                        kernels::quantize_lut(sweep, objective, &luts, &ranges, levels, &mut lut);
                        let ctx =
                            format!("{} quantizer, {levels} levels, width {width}", sweep.label());
                        assert_eq!(lut.entries(), reference.entries(), "{ctx}");
                        assert_eq!(lut.scale().to_bits(), reference.scale().to_bits(), "{ctx}");
                        assert_eq!(lut.offset().to_bits(), reference.offset().to_bits(), "{ctx}");
                        lut
                    })
                    .collect();
                for (rows, from) in RUNS {
                    let columns: Vec<Vec<u8>> =
                        (0..width).map(|_| (0..rows).map(|_| next() as u8).collect()).collect();
                    // a run from row `from` to the columns' last row
                    let columns: Vec<&[u8]> = columns.iter().map(|c| &c[from..]).collect();
                    let rows = rows - from;
                    let start: Vec<f64> =
                        (0..rows).map(|_| (next() % 1000) as f64 - 500.0).collect();
                    for init in [false, true] {
                        let mut want = start.clone();
                        kernels::sweep_codes(
                            CodeSweep::Scalar,
                            &columns,
                            &reference,
                            &mut want,
                            init,
                        );
                        for ((&sweep, lut), count) in
                            sweeps.iter().zip(&quantized).zip(&mut compared)
                        {
                            let mut got = start.clone();
                            kernels::sweep_codes(sweep, &columns, lut, &mut got, init);
                            assert_eq!(
                                bits_of(&got),
                                bits_of(&want),
                                "{} sweep, {levels} levels, width {width}, rows {rows}, init {init}",
                                sweep.label()
                            );
                            *count += 1;
                        }
                    }
                }
            }
        }
    }
    for (sweep, count) in sweeps.iter().zip(compared) {
        println!(
            "code sweep {}: bit-identical to the scalar reference in {count} sweeps",
            sweep.label()
        );
    }
}

/// The whole code filter over tables of 1, 63, 64, 65, 511 and 513 rows in
/// one and in two segments: every segment's swept runs end at its code
/// columns' last row — the last segment's at the table's — so every sweep
/// implementation's prefetch address runs past the column. Each supported
/// kernel's survivors, κ bits and counts must equal the scalar kernel's.
#[test]
fn filters_whose_runs_end_at_the_last_row_match_the_scalar_kernel() {
    let mut state = 0x7A11_0F5E_6A11_0F5Eu64;
    let mut unit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for rows in [1usize, 63, 64, 65, 511, 513] {
        let vectors: Vec<Vec<f64>> = (0..rows).map(|_| (0..16).map(|_| unit()).collect()).collect();
        let query: Vec<f64> = (0..16).map(|_| unit()).collect();
        let table = DecomposedTable::from_vectors("tail", &vectors).unwrap();
        for parts in [1, 2] {
            let specs = table.partition_specs(parts);
            let stats: Vec<SegmentStats> =
                specs.iter().map(|s| s.view(&table).unwrap().stats()).collect();
            let codes = StoreCodes::build(&table, &specs, &stats, 8).unwrap();
            for si in 0..codes.n_segments() {
                let view = codes.segment_view(si).unwrap();
                let live = Bitmap::full(view.len());
                for metric in [&SquaredEuclidean as &dyn DecomposableMetric, &HistogramIntersection]
                {
                    let run = |kernel| {
                        filter_segment_with_kernel(
                            &view, metric, &query, 1, &live, None, kernel, None, None,
                        )
                        .unwrap()
                    };
                    let want = run(Kernel::Scalar);
                    for kernel in supported_kernels() {
                        let got = run(kernel);
                        let ctx = format!("{} {rows} rows segment {si}/{parts}", kernel.label());
                        assert_eq!(got.survivors, want.survivors, "{ctx}");
                        assert_eq!(got.kappa.map(f64::to_bits), want.kappa.map(f64::to_bits));
                        assert_eq!(
                            (got.cells, got.dims, got.steps, got.groups),
                            (want.cells, want.dims, want.steps, want.groups),
                            "{ctx}"
                        );
                    }
                }
            }
        }
    }
}

/// One group's 16-bit LUTs built the one-pass way — each column's one-lane
/// `f64` LUT and its range from `kernels::fill_best_lut`, then
/// `kernels::quantize_lut` from those ranges — by every implementation the
/// host runs (`scalar` too), against the two-step scalar reference: the
/// metric's portable pair build, a plain pass for each column's range, and
/// the scalar quantizer. The `f64` entries, the ranges, the 16-bit entries,
/// the scale, the offset and, for `permute`, both byte planes must match
/// bit for bit, for all four `KernelOp`s, both objectives, 2, 4, 16 and
/// 256 levels and group widths 1 to 8, over adversarial grids: `min ==
/// max`, queries below and above the grid, a query on a cell edge, and a
/// zero weight. Prints one line per implementation compared.
#[test]
fn code_lut_builds_match_the_two_step_reference() {
    let mut state = 0x1B0_0D5E_ED0F_1A7Bu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
    let weights: Vec<f64> = (0..8).map(|d| if d == 3 { 0.0 } else { 0.25 + d as f64 }).collect();
    let whi = WeightedHistogramIntersection::new(weights.clone()).unwrap();
    let wse = WeightedSquaredEuclidean::new(weights).unwrap();
    let metrics: [&dyn DecomposableMetric; 4] =
        [&HistogramIntersection, &SquaredEuclidean, &whi, &wse];
    let sweeps: Vec<CodeSweep> = CodeSweep::ALL.into_iter().filter(|s| s.is_supported()).collect();
    let mut compared = vec![0usize; sweeps.len()];
    for metric in metrics {
        for bits in [1u8, 2, 4, 8] {
            let levels = 1usize << bits;
            for width in 1..=8usize {
                // column `d`'s grid and query: mixed within every group
                let grids: Vec<(CodeParams, f64)> = (0..width)
                    .map(|d| {
                        let min = 2.0 * unit() - 1.0;
                        let max = if (d + width) % 5 == 0 { min } else { min + 0.1 + 3.0 * unit() };
                        let grid = CodeParams::new(min, max, bits).unwrap();
                        let query = match (d + bits as usize) % 4 {
                            0 => min + (max - min) * unit(),
                            1 => min - 1.0 - unit(),
                            2 => max + 1.0 + unit(),
                            _ => min + (levels / 2) as f64 * grid.cell_width(),
                        };
                        (grid, query)
                    })
                    .collect();
                let want = pair_lane_luts(metric, &grids, levels);
                let want_ranges = ranges_of(&want, levels);
                for objective in [Objective::Minimize, Objective::Maximize] {
                    let mut reference = QuantLut::new();
                    let (luts, ranges, scalar) = (&want, &want_ranges, CodeSweep::Scalar);
                    kernels::quantize_lut(scalar, objective, luts, ranges, levels, &mut reference);
                    for (&sweep, count) in sweeps.iter().zip(&mut compared) {
                        let ctx = format!(
                            "{} {} {levels} levels width {width} {objective:?}",
                            sweep.label(),
                            metric.name()
                        );
                        let op = metric.kernel_op().unwrap();
                        let mut luts = vec![f64::NAN; width * levels];
                        let ranges: Vec<LutRange> = (luts.chunks_exact_mut(levels).zip(&grids))
                            .enumerate()
                            .map(|(d, (lut, &(grid, q)))| {
                                kernels::fill_best_lut(sweep, op, d, grid, q, lut)
                            })
                            .collect();
                        assert_eq!(bits_of(&luts), bits_of(&want), "{ctx}: f64 entries");
                        assert_eq!(ranges, want_ranges, "{ctx}: ranges");
                        let mut got = QuantLut::new();
                        kernels::quantize_lut(sweep, objective, &luts, &ranges, levels, &mut got);
                        assert_same_quantization(&got, &reference, levels, sweep, &ctx);
                        *count += 1;
                    }
                }
            }
        }
    }
    for (sweep, count) in sweeps.iter().zip(compared) {
        println!(
            "code LUT build {}: bit-identical to the scalar reference in {count} groups",
            sweep.label()
        );
    }
}

/// The two-step reference's `f64` LUTs: the optimistic lane of the
/// metric's portable pair build, column `d` over `grids[d]`.
fn pair_lane_luts(
    metric: &dyn DecomposableMetric,
    grids: &[(CodeParams, f64)],
    levels: usize,
) -> Vec<f64> {
    let mut luts = vec![0.0; grids.len() * levels];
    let mut bounds = vec![(0.0, 0.0); levels];
    let mut pairs = vec![0.0; 2 * levels];
    for (d, (lut, &(grid, query))) in luts.chunks_exact_mut(levels).zip(grids).enumerate() {
        grid.fill_cell_bounds(&mut bounds);
        metric.fill_contribution_pairs(d, &bounds, query, &mut pairs);
        for (e, pair) in lut.iter_mut().zip(pairs.chunks_exact(2)) {
            *e = pair[0];
        }
    }
    luts
}

/// `got` holds `want`'s entries, scale and offset bit for bit, and, when
/// quantized for `permute`, each column's entries split into its low-byte
/// and high-byte planes.
fn assert_same_quantization(
    got: &QuantLut,
    want: &QuantLut,
    levels: usize,
    sweep: CodeSweep,
    ctx: &str,
) {
    assert_eq!(got.entries(), want.entries(), "{ctx}: entries");
    assert_eq!(got.scale().to_bits(), want.scale().to_bits(), "{ctx}: scale");
    assert_eq!(got.offset().to_bits(), want.offset().to_bits(), "{ctx}: offset");
    for (j, column) in want.entries().chunks_exact(levels).enumerate() {
        match got.planes(j) {
            Some((low, high)) => {
                let low_bytes: Vec<u8> = column.iter().map(|&q| q as u8).collect();
                let high_bytes: Vec<u8> = column.iter().map(|&q| (q >> 8) as u8).collect();
                assert_eq!((low, high), (&low_bytes[..], &high_bytes[..]), "{ctx}: planes");
            }
            None => assert_ne!(sweep, CodeSweep::Permute, "{ctx}: no planes"),
        }
    }
}

/// The exact accumulates that carry the scanned mass — the dense block
/// (`accumulate_block` over one column) and the fused gathered form
/// (`accumulate_gather_with_mass`) — of every flavour the host runs against
/// the scalar reference, for every `KernelOp`, at every length from 0 to
/// 67 — so every ragged tail behind the 16-, 4- and 2-row vector steps —
/// the gathered form over unsorted row ids with repeats. Both the score
/// bits and the mass bits must match, the score must also match the plain
/// accumulate's (what the refine and the rules without mass read) and the
/// mass a plain loop's. Prints one line per vector flavour compared.
#[test]
fn fused_accumulates_match_the_scalar_reference() {
    let mut state = 0xF05E_D0A5_5C0A_11EDu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
    let weights: Vec<f64> = (0..DIMS).map(|_| 0.05 + 4.0 * unit()).collect();
    let ops = [
        KernelOp::Min,
        KernelOp::SquaredDiff,
        KernelOp::WeightedMin(&weights),
        KernelOp::WeightedSquaredDiff(&weights),
    ];
    let kernels = supported_kernels();
    let mut compared = vec![0usize; kernels.len()];
    for len in 0..=67usize {
        let values: Vec<f64> = (0..len).map(|_| 4.0 * unit() - 2.0).collect();
        let seed: Vec<f64> = (0..len).map(|_| 16.0 * unit() - 8.0).collect();
        let mass_seed: Vec<f64> = (0..len).map(|_| unit()).collect();
        // unsorted, with repeats, into a column of `len` rows (any column
        // for an empty list)
        let column = len.max(1);
        let column_values: Vec<f64> = (0..column).map(|_| 4.0 * unit() - 2.0).collect();
        let rows: Vec<RowId> =
            (0..len).map(|_| (unit() * column as f64) as RowId % column as RowId).collect();
        for (o, op) in ops.into_iter().enumerate() {
            let dim = (len + o) % DIMS;
            let query = unit();
            // the scalar references: fused, plain, and the plain mass loop
            let (dims, columns, queries) = ([dim], [&values[..]], [query]);
            let mut dense = (seed.clone(), mass_seed.clone());
            let (acc, mass) = (&mut dense.0, Some(&mut dense.1[..]));
            kernels::accumulate_block(
                Kernel::Scalar,
                op,
                &dims,
                &columns,
                &queries,
                acc,
                mass,
                false,
            );
            let mut plain = seed.clone();
            kernels::accumulate(Kernel::Scalar, op, dim, &values, query, &mut plain);
            let mass: Vec<f64> = mass_seed.iter().zip(&values).map(|(m, v)| m + v).collect();
            let ctx = format!("len {len}, {op:?}");
            assert_eq!(bits_of(&dense.0), bits_of(&plain), "{ctx}: fused vs plain dense score");
            assert_eq!(bits_of(&dense.1), bits_of(&mass), "{ctx}: fused dense mass");
            let mut gathered = (seed.clone(), mass_seed.clone());
            let (acc, mass) = (&mut gathered.0, &mut gathered.1);
            kernels::accumulate_gather_with_mass(
                Kernel::Scalar,
                op,
                dim,
                &column_values,
                &rows,
                query,
                acc,
                mass,
            );
            let mut plain = seed.clone();
            let v = &column_values;
            kernels::accumulate_gather(Kernel::Scalar, op, dim, v, &rows, query, &mut plain);
            let mass: Vec<f64> =
                mass_seed.iter().zip(&rows).map(|(m, &r)| m + column_values[r as usize]).collect();
            assert_eq!(bits_of(&gathered.0), bits_of(&plain), "{ctx}: fused vs plain gathered");
            assert_eq!(bits_of(&gathered.1), bits_of(&mass), "{ctx}: fused gathered mass");
            for (&kernel, count) in kernels.iter().zip(&mut compared) {
                let ctx = format!("{} {ctx}", kernel.label());
                let mut got = (seed.clone(), mass_seed.clone());
                let (acc, mass) = (&mut got.0, Some(&mut got.1[..]));
                kernels::accumulate_block(kernel, op, &dims, &columns, &queries, acc, mass, false);
                assert_eq!(bits_of(&got.0), bits_of(&dense.0), "{ctx}: fused dense score");
                assert_eq!(bits_of(&got.1), bits_of(&dense.1), "{ctx}: fused dense mass");
                let mut got = (seed.clone(), mass_seed.clone());
                let (acc, mass) = (&mut got.0, &mut got.1);
                kernels::accumulate_gather_with_mass(kernel, op, dim, v, &rows, query, acc, mass);
                assert_eq!(bits_of(&got.0), bits_of(&gathered.0), "{ctx}: fused gathered score");
                assert_eq!(bits_of(&got.1), bits_of(&gathered.1), "{ctx}: fused gathered mass");
                *count += 1;
            }
        }
    }
    for (kernel, count) in kernels.iter().zip(compared).filter(|(k, _)| **k != Kernel::Scalar) {
        println!(
            "exact accumulate+mass {}: bit-identical to the scalar reference in {count} cases",
            kernel.label()
        );
    }
}

/// The exact search's dense block accumulate (`accumulate_block`) of every
/// flavour the host runs against the scalar reference: every `KernelOp`,
/// 0 to 67 rows (every tail behind AVX2's 16-row tiles and NEON's 2-row
/// steps), blocks of 1 to 9 columns, with the scanned mass and without,
/// and with `init` — over accumulators holding NaN, which it must ignore,
/// and first columns whose `Min` contributions are `−0.0`, which must sum
/// to `+0.0` as on a zeroed accumulator — and without. The scalar
/// reference itself must equal the one-column `accumulate`, called column
/// by column from zero or the seed, and a plain mass loop. Score and mass
/// bits must match. Prints one line per vector flavour compared.
#[test]
fn block_accumulates_match_the_scalar_reference() {
    let mut state = 0xB10C_ACC0_5EED_0042u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
    let weights: Vec<f64> = (0..DIMS).map(|_| 0.05 + 4.0 * unit()).collect();
    let ops = [
        KernelOp::Min,
        KernelOp::SquaredDiff,
        KernelOp::WeightedMin(&weights),
        KernelOp::WeightedSquaredDiff(&weights),
    ];
    let kernels = supported_kernels();
    let mut compared = vec![0usize; kernels.len()];
    for rows in 0..=67usize {
        for width in 1..=9usize {
            let columns: Vec<Vec<f64>> = (0..width)
                .map(|j| {
                    let value = |row: usize, u: f64| {
                        if j == 0 && row % 3 == 1 {
                            -0.0
                        } else {
                            4.0 * u - 2.0
                        }
                    };
                    (0..rows).map(|row| value(row, unit())).collect()
                })
                .collect();
            let columns: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
            let dims: Vec<usize> = (0..width).map(|j| (rows + 5 * j) % DIMS).collect();
            let queries: Vec<f64> = (0..width).map(|_| unit()).collect();
            let seed: Vec<f64> = (0..rows).map(|_| 16.0 * unit() - 8.0).collect();
            let mass_seed: Vec<f64> = (0..rows).map(|_| unit()).collect();
            for (op, init, with_mass) in ops
                .into_iter()
                .flat_map(|op| [(op, false), (op, true)])
                .flat_map(|(op, init)| [(op, init, false), (op, init, true)])
            {
                let ctx = format!("{rows} rows, {width} columns, {op:?}, init {init}");
                let start = |seed: &[f64]| {
                    if init {
                        vec![f64::NAN; seed.len()]
                    } else {
                        seed.to_vec()
                    }
                };
                // the one-column accumulates and a plain mass loop
                let mut plain = if init { vec![0.0; rows] } else { seed.clone() };
                let mut mass = if init { vec![0.0; rows] } else { mass_seed.clone() };
                for ((&dim, column), &query) in dims.iter().zip(&columns).zip(&queries) {
                    kernels::accumulate(Kernel::Scalar, op, dim, column, query, &mut plain);
                    for (m, &v) in mass.iter_mut().zip(column.iter()) {
                        *m += v;
                    }
                }
                let mut reference = (start(&seed), start(&mass_seed));
                let (acc, m) = (&mut reference.0, with_mass.then_some(&mut reference.1[..]));
                kernels::accumulate_block(
                    Kernel::Scalar,
                    op,
                    &dims,
                    &columns,
                    &queries,
                    acc,
                    m,
                    init,
                );
                assert_eq!(bits_of(&reference.0), bits_of(&plain), "{ctx}: reference score");
                if with_mass {
                    assert_eq!(bits_of(&reference.1), bits_of(&mass), "{ctx}: reference mass");
                }
                for (&kernel, count) in kernels.iter().zip(&mut compared) {
                    let mut got = (start(&seed), start(&mass_seed));
                    let (acc, m) = (&mut got.0, with_mass.then_some(&mut got.1[..]));
                    kernels::accumulate_block(kernel, op, &dims, &columns, &queries, acc, m, init);
                    let ctx = format!("{} {ctx}", kernel.label());
                    assert_eq!(bits_of(&got.0), bits_of(&reference.0), "{ctx}: score");
                    assert_eq!(bits_of(&got.1), bits_of(&reference.1), "{ctx}: mass");
                    *count += 1;
                }
            }
        }
    }
    for (kernel, count) in kernels.iter().zip(compared).filter(|(k, _)| **k != Kernel::Scalar) {
        println!(
            "exact block accumulate {}: bit-identical to the scalar reference in {count} cases",
            kernel.label()
        );
    }
}

/// The exact pruning pass's word mask (`kernels::tail_mask`): every
/// rule's closed-form optimistic bound of up to 64 rows, tested against a
/// bar, on every flavour against the scalar reference — and the reference
/// against the row-by-row bound and predicate, and against the thin-word
/// test of a subset of the rows (`kernels::tail_bits`). Partial scores and masses
/// take NaN, ±0, ±∞ and values near the bar; masses run above and below
/// the total; the forms' constants take NaN, ±∞ and zeros too. Prints one
/// line per vector flavour compared.
#[test]
fn tail_masks_match_the_scalar_reference() {
    let mut state = 0x7A11_3A5C_5EED_0048u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let specials =
        [f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE / 4.0, 1.0];
    let constants = [0.0, -0.0, 0.25, 1.0, 3.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let mut tails = vec![OptimisticTail::Partial];
    for (i, &c) in constants.iter().enumerate() {
        tails.push(OptimisticTail::AddConst(c));
        tails.push(OptimisticTail::AddMassCapped(c));
        let divisor = [3.0, 0.5, f64::INFINITY, 0.0][i % 4];
        tails.push(OptimisticTail::AddSquaredGap { target: c, divisor });
    }
    let kernels = supported_kernels();
    let mut compared = vec![0usize; kernels.len()];
    for tail in tails {
        for rows in 0..=64usize {
            let bar = (next() % 9) as f64 * 0.5 - 2.0;
            let mut value = |near: f64| match next() % 8 {
                0 => specials[(next() % specials.len() as u64) as usize],
                1 => near,
                2 => near.next_up(),
                _ => (next() % 4001) as f64 / 1000.0 - 2.0,
            };
            let partial: Vec<f64> = (0..rows).map(|_| value(bar)).collect();
            let total: Vec<f64> = (0..rows).map(|_| value(1.0)).collect();
            let scanned: Vec<f64> = total.iter().map(|&t| t + value(0.0) * 0.5).collect();
            for (sign, add) in [(1.0, 0.0), (-1.0, 0.0), (1.0, 0.5), (-1.0, f64::INFINITY)] {
                let test = SurviveTest { sign, add, bar };
                let mut expected = 0u64;
                for row in 0..rows {
                    let candidate = CandidateState {
                        partial: partial[row],
                        scanned_mass: scanned[row],
                        total_mass: total[row],
                    };
                    expected |= u64::from(test.survives(tail.bound(&candidate))) << row;
                }
                let reference =
                    kernels::tail_mask(Kernel::Scalar, tail, test, &partial, &scanned, &total);
                assert_eq!(reference, expected, "scalar reference vs bound: {tail:?} {test:?}");
                // a thin word's rows one at a time: the same answers
                let valid = if rows == 64 { u64::MAX } else { (1u64 << rows) - 1 };
                let thin = next() & next() & valid;
                let bits = kernels::tail_bits(tail, test, thin, &partial, &scanned, &total);
                assert_eq!(bits, reference & thin, "tail bits vs mask: {tail:?} {test:?}");
                for (&kernel, count) in kernels.iter().zip(&mut compared) {
                    let got = kernels::tail_mask(kernel, tail, test, &partial, &scanned, &total);
                    assert_eq!(
                        got,
                        reference,
                        "{} tail mask diverged: {tail:?} {test:?}, {rows} rows",
                        kernel.label()
                    );
                    *count += 1;
                }
            }
        }
    }
    for (kernel, count) in kernels.iter().zip(compared).filter(|(k, _)| **k != Kernel::Scalar) {
        println!(
            "pruning-step tail {}: bit-identical to the scalar reference in {count} words",
            kernel.label()
        );
    }
}

/// The values a bound test can meet at its edges, plus a few ordinary
/// ones: `bar` itself and its neighbours turn up as often as the rest.
fn edge_value(bar: f64) -> impl Strategy<Value = f64> {
    let specials = [
        f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE / 4.0,
        -f64::MIN_POSITIVE / 4.0,
        f64::from_bits(1),
        f64::MAX,
    ];
    prop_oneof![
        (0usize..specials.len()).prop_map(move |i| specials[i]),
        Just(bar),
        Just(-bar),
        (0u8..2).prop_map(move |up| if up == 1 { bar.next_up() } else { bar.next_down() }),
        -4.0f64..=4.0,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn quantized_sweep_is_bit_identical_across_kernels(
        (vectors, query) in collection(),
        w in weights(),
        bits in prop_oneof![Just(2u8), Just(4), Just(8)],
    ) {
        let table = DecomposedTable::from_vectors("ki", &vectors).unwrap();
        let specs = table.partition_specs(2);
        let stats: Vec<SegmentStats> =
            specs.iter().map(|s| s.view(&table).unwrap().stats()).collect();
        let codes = StoreCodes::build(&table, &specs, &stats, bits).unwrap();

        let whi = WeightedHistogramIntersection::new(w.clone()).unwrap();
        let wse = WeightedSquaredEuclidean::new(w).unwrap();
        let metrics: Vec<&dyn DecomposableMetric> =
            vec![&HistogramIntersection, &SquaredEuclidean, &whi, &wse];
        for metric in metrics {
            let reference = sweep_digest(&codes, metric, &query, Kernel::Scalar);
            for kernel in supported_kernels() {
                let got = sweep_digest(&codes, metric, &query, kernel);
                prop_assert_eq!(
                    &reference,
                    &got,
                    "{} sweep diverged from scalar ({} @ {} bits)",
                    kernel.label(),
                    metric.name(),
                    bits
                );
            }
            let mut scratch = QuantScratch::new();
            for si in 0..codes.n_segments() {
                let view = codes.segment_view(si).unwrap();
                let rows = view.len();
                // the one-lane sweep: over the whole segment it is the
                // interval sweep's optimistic side; over windows off every
                // unroll width (16, 4) it is the scalar reference
                interval_scores_into(&view, metric, &query, Kernel::Scalar, &mut scratch).unwrap();
                let optimistic = bits_of(scratch.opt());
                let luts = best_luts(&view, metric, &query);
                for window in [0..rows, 1..rows, 3..rows - 2, 5..24, 7..10] {
                    for init in [false, true] {
                        let want = lane_sweep(&view, &luts, window.clone(), Kernel::Scalar, init);
                        if window == (0..rows) {
                            prop_assert_eq!(&want, &optimistic, "one-lane vs interval sweep");
                        }
                        for kernel in supported_kernels() {
                            let got = lane_sweep(&view, &luts, window.clone(), kernel, init);
                            prop_assert_eq!(
                                &want,
                                &got,
                                "{} one-lane sweep diverged ({} @ {} bits, rows {:?}, init {})",
                                kernel.label(),
                                metric.name(),
                                bits,
                                window,
                                init
                            );
                        }
                    }
                }
                // the whole code filter: survivors, κ bits and counts
                let live = Bitmap::full(rows);
                for k in [1, 5] {
                    let run = |kernel| {
                        filter_segment_with_kernel(
                            &view, metric, &query, k, &live, None, kernel, None, None,
                        )
                        .unwrap()
                    };
                    let want = run(Kernel::Scalar);
                    for kernel in supported_kernels() {
                        let got = run(kernel);
                        prop_assert_eq!(&got.survivors, &want.survivors, "{}", kernel.label());
                        prop_assert_eq!(
                            got.kappa.map(f64::to_bits),
                            want.kappa.map(f64::to_bits),
                            "{} κ",
                            kernel.label()
                        );
                        prop_assert_eq!(
                            (got.cells, got.dims, got.steps, got.groups),
                            (want.cells, want.dims, want.steps, want.groups),
                            "{} counts",
                            kernel.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn refine_accumulate_is_bit_identical_across_kernels(
        values in proptest::collection::vec(-2.0f64..=2.0, ROWS),
        seed_acc in proptest::collection::vec(-8.0f64..=8.0, ROWS),
        query in -1.0f64..=1.0,
        w in weights(),
        dim in 0usize..DIMS,
    ) {
        let ops = [
            KernelOp::Min,                         // Hq, Hh
            KernelOp::SquaredDiff,                 // Eq, Ev
            KernelOp::WeightedMin(&w),             // WHq
            KernelOp::WeightedSquaredDiff(&w),     // WEv
        ];
        for op in ops {
            let mut reference = seed_acc.clone();
            kernels::accumulate(Kernel::Scalar, op, dim, &values, query, &mut reference);
            for kernel in supported_kernels() {
                let mut acc = seed_acc.clone();
                kernels::accumulate(kernel, op, dim, &values, query, &mut acc);
                prop_assert_eq!(
                    bits_of(&reference),
                    bits_of(&acc),
                    "{} dense accumulate diverged from scalar ({:?})",
                    kernel.label(),
                    op
                );
            }
        }
    }

    #[test]
    fn gathered_paths_are_bit_identical_across_kernels(
        values in proptest::collection::vec(-2.0f64..=2.0, ROWS),
        rows in proptest::collection::vec(0u32..ROWS as u32, 1..=97),
        query in -1.0f64..=1.0,
        w in weights(),
        dim in 0usize..DIMS,
    ) {
        let rows: Vec<RowId> = rows;
        let ops = [
            KernelOp::Min,
            KernelOp::SquaredDiff,
            KernelOp::WeightedMin(&w),
            KernelOp::WeightedSquaredDiff(&w),
        ];
        for op in ops {
            let mut reference = vec![0.0; rows.len()];
            kernels::accumulate_gather(Kernel::Scalar, op, dim, &values, &rows, query, &mut reference);
            for kernel in supported_kernels() {
                let mut acc = vec![0.0; rows.len()];
                kernels::accumulate_gather(kernel, op, dim, &values, &rows, query, &mut acc);
                prop_assert_eq!(
                    bits_of(&reference),
                    bits_of(&acc),
                    "{} gathered accumulate diverged from scalar ({:?})",
                    kernel.label(),
                    op
                );
            }
        }

        // the fused form, over the same unsorted list with repeats: the
        // score and the scanned mass (Hh, Ev, WEv) in one gather per cell
        for op in ops {
            let mut want = (vec![0.5; rows.len()], vec![0.25; rows.len()]);
            let (acc, mass) = (&mut want.0, &mut want.1);
            kernels::accumulate_gather_with_mass(
                Kernel::Scalar, op, dim, &values, &rows, query, acc, mass,
            );
            for kernel in supported_kernels() {
                let mut got = (vec![0.5; rows.len()], vec![0.25; rows.len()]);
                let (acc, mass) = (&mut got.0, &mut got.1);
                kernels::accumulate_gather_with_mass(kernel, op, dim, &values, &rows, query, acc, mass);
                prop_assert_eq!(bits_of(&want.0), bits_of(&got.0), "{} fused score {:?}", kernel.label(), op);
                prop_assert_eq!(bits_of(&want.1), bits_of(&got.1), "{} fused mass {:?}", kernel.label(), op);
            }
        }
    }

    #[test]
    fn survive_mask_is_bit_identical_across_kernels(
        (bar, add) in prop_oneof![
            (-2.0f64..=2.0, -1.0f64..=1.0),
            Just((0.0, 0.0)),
            Just((f64::NEG_INFINITY, 0.0)),
            Just((f64::INFINITY, 0.5)),
            Just((f64::NAN, 0.0)),
            Just((1.0, f64::INFINITY)),
        ],
        rows in 1usize..=64,
        seed_values in proptest::collection::vec(0u64..u64::MAX, 128),
    ) {
        // 128 values, two windows of up to 64 rows: half edge values, half
        // the values whose `x + add` lands on the bar under either sign
        let mut rng = TestRng::for_test(&format!("{bar:?}/{add:?}/{}", seed_values[0]));
        let values: Vec<f64> = seed_values
            .iter()
            .map(|&s| match s % 4 {
                0 | 1 => edge_value(bar).generate(&mut rng),
                2 => bar - add,
                _ => -bar - add,
            })
            .collect();
        for sign in [1.0, -1.0] {
            let test = SurviveTest { sign, add, bar };
            for start in [0, 64] {
                let x = &values[start..start + rows];
                // the predicate, row by row — what every flavour computes
                let mut expected = 0u64;
                for (row, &value) in x.iter().enumerate() {
                    expected |= u64::from(test.survives(value)) << row;
                }
                let reference = kernels::survive_mask(Kernel::Scalar, test, x);
                prop_assert_eq!(reference, expected, "scalar reference vs predicate");
                for kernel in supported_kernels() {
                    let got = kernels::survive_mask(kernel, test, x);
                    prop_assert_eq!(
                        got,
                        reference,
                        "{} survive mask diverged: {:?}, {} rows from {}",
                        kernel.label(),
                        test,
                        rows,
                        start
                    );
                }
            }
        }
    }
}
