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
//!   runs called directly against the scalar reference — the test prints
//!   one line per implementation it compared;
//! * the exact refine/warmup accumulate (`kernels::accumulate`,
//!   `accumulate_gather`, `add_assign`, `add_assign_gather`) across all
//!   four `KernelOp` shapes those six rules compile down to;
//! * the pruning steps' 64-row survive mask (`kernels::survive_mask`) over
//!   adversarial values — NaN, ±0, ±∞, denormals, values equal to the bar.
//!
//! Equality is `to_bits()` on every output — not approximate — because
//! kernel dispatch must never be observable in answers.

use bond::kernels::{self, CodeSweep, Kernel, QuantLut, SurviveTest};
use bond::quantfilter::{filter_segment_with_kernel, interval_scores_into};
use bond::QuantScratch;
use bond_metrics::{
    DecomposableMetric, HistogramIntersection, KernelOp, Objective, SquaredEuclidean,
    WeightedHistogramIntersection, WeightedSquaredEuclidean,
};
use proptest::prelude::*;
use vdstore::{Bitmap, DecomposedTable, RowId, SegmentCodesView, SegmentStats, StoreCodes};

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

/// The code filter's 16-bit sweep: every x86 implementation the host runs
/// (`gather`, `permute`), called directly, against the scalar reference —
/// group widths 1 to 32, 2, 16 and 256 levels, run lengths on and off the
/// 64-row step, `init` on and off, code bytes past the level count, and
/// both rounding directions. Every other group's LUTs are ramps (`c·δ`, as
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
            for objective in [Objective::Minimize, Objective::Maximize] {
                let mut reference = QuantLut::new();
                kernels::quantize_lut(CodeSweep::Scalar, objective, &luts, levels, &mut reference);
                let quantized: Vec<QuantLut> = sweeps
                    .iter()
                    .map(|&sweep| {
                        let mut lut = QuantLut::new();
                        kernels::quantize_lut(sweep, objective, &luts, levels, &mut lut);
                        let ctx =
                            format!("{} quantizer, {levels} levels, width {width}", sweep.label());
                        assert_eq!(lut.entries(), reference.entries(), "{ctx}");
                        assert_eq!(lut.scale().to_bits(), reference.scale().to_bits(), "{ctx}");
                        assert_eq!(lut.offset().to_bits(), reference.offset().to_bits(), "{ctx}");
                        lut
                    })
                    .collect();
                for rows in [1usize, 63, 64, 65, 200] {
                    let columns: Vec<Vec<u8>> =
                        (0..width).map(|_| (0..rows).map(|_| next() as u8).collect()).collect();
                    let columns: Vec<&[u8]> = columns.iter().map(Vec::as_slice).collect();
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
                            (got.cells, got.dims, got.steps),
                            (want.cells, want.dims, want.steps),
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

        // the Hh rule's scanned-mass side columns
        let mut dense_ref = vec![0.0; values.len()];
        kernels::add_assign(Kernel::Scalar, &values, &mut dense_ref);
        let mut gather_ref = vec![0.0; rows.len()];
        kernels::add_assign_gather(Kernel::Scalar, &values, &rows, &mut gather_ref);
        for kernel in supported_kernels() {
            let mut dense = vec![0.0; values.len()];
            kernels::add_assign(kernel, &values, &mut dense);
            prop_assert_eq!(bits_of(&dense_ref), bits_of(&dense), "{} add_assign", kernel.label());
            let mut gather = vec![0.0; rows.len()];
            kernels::add_assign_gather(kernel, &values, &rows, &mut gather);
            prop_assert_eq!(
                bits_of(&gather_ref),
                bits_of(&gather),
                "{} add_assign_gather",
                kernel.label()
            );
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
