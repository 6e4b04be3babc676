//! Runtime-dispatched, ISA-pinned scan kernels for the two hot loops.
//!
//! The BOND premise — vertical decomposition turns k-NN into dense
//! streaming scans — is only cashed in when the inner loops actually run
//! at hardware width. This module pins the two loops that matter to
//! explicit per-ISA implementations instead of leaving them to the
//! auto-vectorizer's mood:
//!
//! 1. **the quantized sweep** ([`sweep`]): per dimension, accumulate the
//!    optimistic/pessimistic LUT entries selected by a flat `&[u8]` code
//!    column into two per-row running bounds, and
//! 2. **the exact accumulate** ([`accumulate`], [`accumulate_gather`]):
//!    `acc[i] += contribution(dim, value_i, q)` for the warmup/refine
//!    phases, in dense (contiguous rows) and gathered (explicit row list)
//!    form, plus the mass companions ([`add_assign`],
//!    [`add_assign_gather`]) the `Hh` rule needs.
//!
//! A third primitive serves the pruning step the BOND loop runs between
//! blocks: the 64-row **survive mask** ([`survive_mask`]), one branch-free
//! bound test per row of a candidate-bitmap word, AND-ed into the word.
//!
//! One flavour is selected per process by [`Kernel::active`] —
//! `is_x86_feature_detected!("avx2")` on x86-64, NEON on aarch64, the
//! portable scalar loop everywhere else — and can be forced with the
//! `BOND_KERNEL=scalar|avx2|neon` environment variable for testing. Every
//! entry point also accepts an explicit [`Kernel`] so tests and benches
//! can compare flavours inside one process regardless of the environment;
//! an explicitly requested flavour the host cannot run degrades to scalar
//! instead of faulting.
//!
//! **Bit-identity is the contract.** Each vector path performs, per row,
//! exactly the floating-point operations of the scalar reference in the
//! same order (rows are independent, so lane-parallelism does not reorder
//! any row's sum): `vminpd`/`vsubpd`/`vmulpd`/`vaddpd` are IEEE-exact per
//! lane and no FMA contraction is used (fusing `(v−q)·(v−q)` would change
//! rounding versus the scalar two-step). The only representable
//! divergences are NaN inputs and `(−0.0, +0.0)` min-ties, which decoded
//! table values never produce. This is why the "fast-scan" trick of the
//! PQ literature appears here as the dimension-blocked [`sweep_pairs`]
//! over interleaved `[opt, pes]` pair tables rather than a literal
//! `pshufb` byte shuffle: fast-scan shuffles 8-bit quantized distances,
//! but BOND's bounds are `f64` and must stay bit-identical to the scalar
//! sweep, so the fast path keeps full-width lanes and wins by holding the
//! running bounds in registers across a block of dimensions, fetching each
//! cell's contribution pair with one 128-bit load, and producing LUT byte
//! offsets in two ALU operations per cell.

use std::sync::OnceLock;

use bond_metrics::KernelOp;
use vdstore::{CodeParams, RowId};

/// Environment variable that forces kernel selection
/// (`BOND_KERNEL=scalar|avx2|neon`). Unknown or unsupported values fall
/// back to the portable scalar kernel rather than erroring: a forced
/// kernel is a test/debug override, and the scalar loop is always correct.
pub const KERNEL_ENV: &str = "BOND_KERNEL";

/// Cells per inner-loop chunk of the scalar sweep: both running bounds
/// advance through the code column in blocks of this many rows, keeping
/// the working set in registers/L1 and giving the auto-vectorizer a fixed
/// trip count.
pub const BLOCK_CELLS: usize = 64;

/// The instruction-set flavours the scan kernels are pinned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// The portable scalar loops — the reference every other flavour must
    /// match bit for bit.
    Scalar,
    /// `core::arch::x86_64` AVX2: the quantized sweep blocks up to
    /// [`MAX_SWEEP_GROUP`] dimensions per pass with the running bounds
    /// held in ymm registers ([`sweep_pairs`]); the exact kernels run 4
    /// rows per 256-bit lane group.
    Avx2,
    /// `core::arch::aarch64` NEON: 2 rows per 128-bit vector; loads and
    /// arithmetic are vectorized, LUT lookups are lane-gathered (NEON has
    /// no gather instruction).
    Neon,
}

static ACTIVE: OnceLock<Kernel> = OnceLock::new();

impl Kernel {
    /// Every flavour, for iteration in tests and benches.
    pub const ALL: [Kernel; 3] = [Kernel::Scalar, Kernel::Avx2, Kernel::Neon];

    /// The flavour's name as used by `BOND_KERNEL`, EXPLAIN output and the
    /// `engine.kernel.*` dispatch counters.
    pub fn label(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2 => "avx2",
            Kernel::Neon => "neon",
        }
    }

    /// Parses a `BOND_KERNEL` value. `None` for anything unknown.
    pub fn from_name(name: &str) -> Option<Kernel> {
        match name {
            "scalar" => Some(Kernel::Scalar),
            "avx2" => Some(Kernel::Avx2),
            "neon" => Some(Kernel::Neon),
            _ => None,
        }
    }

    /// Whether this flavour can run on the current host.
    pub fn is_supported(self) -> bool {
        match self {
            Kernel::Scalar => true,
            Kernel::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            Kernel::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    /// The best flavour the host supports, ignoring any override.
    pub fn preferred() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return Kernel::Avx2;
            }
        }
        if cfg!(target_arch = "aarch64") {
            return Kernel::Neon;
        }
        Kernel::Scalar
    }

    /// The selection rule as a pure function of the (optional) forced
    /// `BOND_KERNEL` value: a recognised, supported flavour wins; a
    /// recognised but unsupported or unrecognised value degrades to
    /// scalar; no override picks [`Kernel::preferred`].
    pub fn select(forced: Option<&str>) -> Kernel {
        match forced {
            Some(name) => match Kernel::from_name(name.trim()) {
                Some(k) if k.is_supported() => k,
                _ => Kernel::Scalar,
            },
            None => Kernel::preferred(),
        }
    }

    /// The process-wide active kernel: decided once, on first use, from
    /// `BOND_KERNEL` and hardware detection.
    pub fn active() -> Kernel {
        *ACTIVE.get_or_init(|| Kernel::select(std::env::var(KERNEL_ENV).ok().as_deref()))
    }
}

/// Sweeps one code column into the per-row bound accumulators:
/// `opt[i] += opt_lut[codes[i]]` and `pes[i] += pes_lut[codes[i]]` for
/// every row `i`.
///
/// The LUT lengths must be equal powers of two (they are `1 << bits` by
/// construction); the vector paths mask code bytes by `len − 1`, so a
/// malformed out-of-range code aliases a valid cell instead of reading out
/// of bounds (the scalar path panics on it, as it always has — valid
/// `StoreCodes` never produce one either way).
pub fn sweep(
    kernel: Kernel,
    codes: &[u8],
    opt_lut: &[f64],
    pes_lut: &[f64],
    opt: &mut [f64],
    pes: &mut [f64],
) {
    assert_eq!(codes.len(), opt.len(), "sweep: codes and opt accumulator disagree on rows");
    assert_eq!(codes.len(), pes.len(), "sweep: codes and pes accumulator disagree on rows");
    assert_eq!(opt_lut.len(), pes_lut.len(), "sweep: LUT lengths differ");
    assert!(opt_lut.len().is_power_of_two(), "sweep: LUT length must be a power of two");
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 if Kernel::Avx2.is_supported() => {
            // SAFETY: AVX2 availability was just checked; slice lengths
            // are asserted above and LUT indices are masked to the LUT's
            // power-of-two length inside the kernel.
            unsafe { x86::sweep_avx2(codes, opt_lut, pes_lut, opt, pes) }
        }
        #[cfg(target_arch = "aarch64")]
        Kernel::Neon => neon::sweep_neon(codes, opt_lut, pes_lut, opt, pes),
        _ => sweep_scalar(codes, opt_lut, pes_lut, opt, pes),
    }
}

/// Upper bound on [`sweep_group`] across every kernel and level count —
/// callers size their column/LUT scratch against this.
pub const MAX_SWEEP_GROUP: usize = 32;

/// How many code columns [`sweep_pairs`] folds into one pass over the
/// interleaved accumulator on this kernel at this LUT size. The
/// single-dimension sweep is bound by memory traffic — two LUT loads plus
/// an accumulator load-modify-store per cell — so the AVX2 path blocks
/// dimensions together, keeps the running bounds in registers across the
/// block and fetches each cell's `[opt, pes]` contribution with one
/// 128-bit load. The block width follows the LUT footprint: at ≤ 16
/// levels (bits ≤ 4, the fast-scan regime) all 32 pair tables together
/// are only 8 KiB, so the widest block wins; at 5–8 bits a 32-column
/// block would be 128 KiB of LUTs, so 8 columns (32 KiB, L1-resident)
/// measure fastest. The scalar reference keeps the original
/// one-dimension-at-a-time loop, and NEON keeps its vectorized
/// single-dimension [`sweep`] (group 1).
pub fn sweep_group(kernel: Kernel, levels: usize) -> usize {
    match kernel {
        Kernel::Avx2 => {
            if levels <= 16 {
                MAX_SWEEP_GROUP
            } else {
                8
            }
        }
        Kernel::Scalar | Kernel::Neon => 1,
    }
}

/// Dimension-blocked sweep over an interleaved accumulator: accumulates up
/// to [`sweep_group`] code columns in one pass. `pair_luts[j*levels*2 +
/// 2*c]` holds the optimistic and `… + 1` the pessimistic contribution of
/// code `c` in column `j`; `inter[2*i]` / `inter[2*i + 1]` are row `i`'s
/// running optimistic/pessimistic bounds.
///
/// Per row and side this computes `acc = ((acc + l0[c0]) + l1[c1]) + …` —
/// one `f64` addition per (row, column), performed in column order —
/// exactly the addition order of sweeping the columns one at a time with
/// [`sweep`], so the accumulated values are bit-identical to the scalar
/// reference; only the pass structure over memory changes.
///
/// With `init` the accumulator's prior contents are ignored: every row
/// starts from `0.0` (computed as `0.0 + l0[c0]`, the exact FP operation a
/// zeroed accumulator would perform) and is stored back. Callers sweep the
/// first dimension block with `init` instead of zeroing `inter` — the
/// kernel then neither memsets nor loads the accumulator on its first
/// pass.
pub fn sweep_pairs(
    kernel: Kernel,
    columns: &[&[u8]],
    pair_luts: &[f64],
    levels: usize,
    inter: &mut [f64],
    init: bool,
) {
    assert!(levels.is_power_of_two(), "sweep_pairs: levels must be a power of two");
    assert!(
        columns.len() * levels * 2 <= pair_luts.len(),
        "sweep_pairs: LUT storage shorter than columns × levels × 2"
    );
    for column in columns {
        assert_eq!(column.len() * 2, inter.len(), "sweep_pairs: column and accumulator disagree");
    }
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 if Kernel::Avx2.is_supported() => {
            // SAFETY: AVX2 availability, column/accumulator lengths, LUT
            // storage size and the power-of-two level count were all just
            // checked; indices are masked to `levels − 1` inside.
            unsafe { x86::sweep_pairs_avx2(columns, pair_luts, levels, inter, init) }
        }
        _ => {
            // one column at a time — the reference pass structure
            if init {
                inter.fill(0.0);
            }
            let m = levels - 1;
            for (j, column) in columns.iter().enumerate() {
                let lut = &pair_luts[j * levels * 2..(j + 1) * levels * 2];
                for (pair, &code) in inter.chunks_exact_mut(2).zip(column.iter()) {
                    let c = (code as usize & m) * 2;
                    pair[0] += lut[c];
                    pair[1] += lut[c + 1];
                }
            }
        }
    }
}

/// Rows one [`survive_mask`] covers: one candidate-bitmap word.
pub const MASK_ROWS: usize = 64;

/// The bound test of a [`survive_mask`]: a row **survives** unless
/// `sign · (x + add)` is below `bar`. A NaN compares false and keeps its
/// row. Adding `add = 0.0`
/// changes no comparison (it only turns `−0.0` into `+0.0`), so a plain
/// `sign · x` test is this one with `add = 0.0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurviveTest {
    /// `+1.0` or `−1.0`: folds either objective into larger-is-better.
    pub sign: f64,
    /// Added to every value before the sign is applied (the best the
    /// unswept dimensions can still add, in the code sweep).
    pub add: f64,
    /// The value a row must reach.
    pub bar: f64,
}

impl SurviveTest {
    /// Whether one value survives — the predicate every [`survive_mask`]
    /// flavour computes per row, and the per-row loops (thin words, list
    /// phases) apply directly.
    #[inline]
    pub fn survives(self, x: f64) -> bool {
        let dropped = self.sign * (x + self.add) < self.bar;
        !dropped
    }
}

/// The survive mask of up to [`MASK_ROWS`] rows: bit `i` is set iff row
/// `i`'s value `x[i·stride + lane]` passes `test`
/// ([`SurviveTest::survives`]); bits past the last row are clear. `x`
/// holds whole rows — a contiguous slice of bounds (`stride` 1) or a
/// window of the code sweep's interleaved `[opt, pes]` accumulator
/// (`stride` 2, `lane` 0 for the optimistic, 1 for the pessimistic bound).
///
/// Bit-identical on every kernel: each lane performs the reference's one
/// addition, one multiplication and one ordered compare. AVX2 tests four
/// rows per instruction; NEON takes the scalar reference.
///
/// # Panics
/// Panics unless `stride` is 1 or 2, `lane < stride`, and `x` holds at
/// most [`MASK_ROWS`] whole rows.
pub fn survive_mask(
    kernel: Kernel,
    test: SurviveTest,
    x: &[f64],
    stride: usize,
    lane: usize,
) -> u64 {
    assert!(
        matches!(stride, 1 | 2) && lane < stride,
        "survive_mask: stride 1 or 2, lane inside it"
    );
    assert!(
        x.len().is_multiple_of(stride) && x.len() <= MASK_ROWS * stride,
        "survive_mask: at most 64 whole rows"
    );
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 if Kernel::Avx2.is_supported() => {
            // SAFETY: AVX2 availability was just checked, and so were the
            // stride, the lane and a row count of at most 64 whole rows.
            unsafe { x86::survive_mask_avx2(test, x, stride, lane) }
        }
        _ => survive_mask_scalar(test, x, stride, lane),
    }
}

/// The portable survive mask — the bit-identity reference.
fn survive_mask_scalar(test: SurviveTest, x: &[f64], stride: usize, lane: usize) -> u64 {
    let mut mask = 0u64;
    for (i, row) in x.chunks_exact(stride).enumerate() {
        mask |= u64::from(test.survives(row[lane])) << i;
    }
    mask
}

/// Builds one dimension's interleaved `[opt, pes]` contribution LUT
/// (`pairs[2*c]` / `pairs[2*c + 1]` for cell `c`) straight from the
/// quantization grid, fusing cell-edge generation with the bound math of
/// `op` in one vectorized pass — no bounds array, no per-cell division
/// and no scalar `maxnum` lowering. The LUT build runs once per (query,
/// segment, dimension) and at 8 bits costs as much as the sweep it feeds,
/// so it is dispatched like the sweep itself.
///
/// Returns `false` when this kernel has no fused path; the caller then
/// falls back to [`CodeParams::fill_cell_bounds`] plus the metric's
/// `fill_contribution_pairs` — which is also the bit-identity reference:
/// the fused path performs the exact same IEEE operations in the same
/// order per cell (edge `min + c·width` clamped to `max`, then the op's
/// bound formulas), so its LUT values match the portable build bit for
/// bit. As with the sweep kernels, the only representable divergences are
/// NaN queries and `(−0.0, +0.0)` min/max ties, which finite grids and
/// real queries do not produce.
pub fn fill_pair_lut(
    kernel: Kernel,
    op: KernelOp<'_>,
    dim: usize,
    grid: CodeParams,
    query: f64,
    pairs: &mut [f64],
) -> bool {
    let levels = grid.levels() as usize;
    assert_eq!(pairs.len(), levels * 2, "fill_pair_lut: LUT storage is not levels × 2");
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 if Kernel::Avx2.is_supported() => {
            // SAFETY: AVX2 availability was just checked and the LUT slice
            // holds exactly `levels × 2` slots; `levels` is a power of two
            // (≥ 2), so the two-cell vector steps tile it exactly.
            unsafe { x86::fill_pair_lut_avx2(op, dim, grid, query, pairs) }
            true
        }
        _ => false,
    }
}

/// Dense exact accumulate: `acc[i] += op(dim, values[i], query)` for every
/// row `i`. `values` and `acc` must be the same length.
pub fn accumulate(
    kernel: Kernel,
    op: KernelOp<'_>,
    dim: usize,
    values: &[f64],
    query: f64,
    acc: &mut [f64],
) {
    assert_eq!(values.len(), acc.len(), "accumulate: values and accumulator disagree on rows");
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 if Kernel::Avx2.is_supported() => {
            // SAFETY: AVX2 availability was just checked; equal slice
            // lengths are asserted above.
            unsafe { x86::accumulate_avx2(op, dim, values, query, acc) }
        }
        #[cfg(target_arch = "aarch64")]
        Kernel::Neon => neon::accumulate_neon(op, dim, values, query, acc),
        _ => accumulate_scalar(op, dim, values, query, acc),
    }
}

/// Gathered exact accumulate for an explicit candidate list:
/// `acc[i] += op(dim, values[rows[i]], query)` for every list position
/// `i`. `rows` and `acc` must be the same length and every row id must
/// index into `values`.
pub fn accumulate_gather(
    kernel: Kernel,
    op: KernelOp<'_>,
    dim: usize,
    values: &[f64],
    rows: &[RowId],
    query: f64,
    acc: &mut [f64],
) {
    assert_eq!(rows.len(), acc.len(), "accumulate_gather: rows and accumulator disagree");
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2
            if Kernel::Avx2.is_supported()
                && values.len() <= i32::MAX as usize
                && rows.iter().all(|&r| (r as usize) < values.len()) =>
        {
            // SAFETY: AVX2 availability, in-bounds row ids and a column
            // short enough for 32-bit gather indices were all just
            // checked; rows/acc length equality is asserted above.
            unsafe { x86::accumulate_gather_avx2(op, dim, values, rows, query, acc) }
        }
        _ => accumulate_gather_scalar(op, dim, values, rows, query, acc),
    }
}

/// Dense mass accumulate: `acc[i] += values[i]` (the scanned-mass side
/// column of the `Hh` rule). A second pass over the same value column the
/// contribution kernel just streamed — it stays L1/L2-hot.
pub fn add_assign(kernel: Kernel, values: &[f64], acc: &mut [f64]) {
    assert_eq!(values.len(), acc.len(), "add_assign: values and accumulator disagree on rows");
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 if Kernel::Avx2.is_supported() => {
            // SAFETY: AVX2 availability was just checked; equal slice
            // lengths are asserted above.
            unsafe { x86::add_assign_avx2(values, acc) }
        }
        #[cfg(target_arch = "aarch64")]
        Kernel::Neon => neon::add_assign_neon(values, acc),
        _ => {
            for (a, &v) in acc.iter_mut().zip(values) {
                *a += v;
            }
        }
    }
}

/// Gathered mass accumulate: `acc[i] += values[rows[i]]`.
pub fn add_assign_gather(kernel: Kernel, values: &[f64], rows: &[RowId], acc: &mut [f64]) {
    assert_eq!(rows.len(), acc.len(), "add_assign_gather: rows and accumulator disagree");
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2
            if Kernel::Avx2.is_supported()
                && values.len() <= i32::MAX as usize
                && rows.iter().all(|&r| (r as usize) < values.len()) =>
        {
            // SAFETY: AVX2 availability, in-bounds row ids and a column
            // short enough for 32-bit gather indices were all just
            // checked; rows/acc length equality is asserted above.
            unsafe { x86::add_assign_gather_avx2(values, rows, acc) }
        }
        _ => {
            for (a, &r) in acc.iter_mut().zip(rows) {
                *a += values[r as usize];
            }
        }
    }
}

/// The portable sweep — the bit-identity reference. This is the exact
/// loop shape the quantized filter has always run: 64-cell blocks, no
/// per-row branches.
fn sweep_scalar(codes: &[u8], opt_lut: &[f64], pes_lut: &[f64], opt: &mut [f64], pes: &mut [f64]) {
    for ((opt_block, pes_block), code_block) in
        opt.chunks_mut(BLOCK_CELLS).zip(pes.chunks_mut(BLOCK_CELLS)).zip(codes.chunks(BLOCK_CELLS))
    {
        for ((o, p), &c) in opt_block.iter_mut().zip(pes_block.iter_mut()).zip(code_block) {
            *o += opt_lut[c as usize];
            *p += pes_lut[c as usize];
        }
    }
}

/// The portable dense accumulate — the bit-identity reference.
fn accumulate_scalar(op: KernelOp<'_>, dim: usize, values: &[f64], query: f64, acc: &mut [f64]) {
    for (a, &v) in acc.iter_mut().zip(values) {
        *a += op.apply(dim, v, query);
    }
}

/// The portable gathered accumulate — the bit-identity reference.
fn accumulate_gather_scalar(
    op: KernelOp<'_>,
    dim: usize,
    values: &[f64],
    rows: &[RowId],
    query: f64,
    acc: &mut [f64],
) {
    for (a, &r) in acc.iter_mut().zip(rows) {
        *a += op.apply(dim, values[r as usize], query);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m128i, __m256d, _mm256_add_pd, _mm256_blend_pd, _mm256_cmp_pd, _mm256_i32gather_pd,
        _mm256_loadu_pd, _mm256_max_pd, _mm256_min_pd, _mm256_movemask_pd, _mm256_mul_pd,
        _mm256_permute4x64_pd, _mm256_set1_pd, _mm256_set_m128d, _mm256_setr_pd, _mm256_setzero_pd,
        _mm256_storeu_pd, _mm256_sub_pd, _mm256_unpackhi_pd, _mm256_unpacklo_pd, _mm_and_si128,
        _mm_cvtepu8_epi32, _mm_cvtsi32_si128, _mm_loadu_pd, _mm_loadu_si128, _mm_set1_epi32,
        _CMP_LT_OQ,
    };

    use bond_metrics::KernelOp;
    use vdstore::{CodeParams, RowId};

    use super::SurviveTest;

    /// The dropped-row bits of four rows: `sign · (v + add)` compared
    /// against the bar lane-wise with an *ordered* compare, so a NaN lane
    /// reads "not dropped" exactly as the scalar `<` does.
    ///
    /// # Safety
    /// Caller guarantees AVX2 is available.
    // SAFETY: pure register arithmetic; only reachable from
    // `survive_mask_avx2`, which runs with AVX2 established.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dropped_quad(v: __m256d, sign: __m256d, add: __m256d, bar: __m256d) -> u64 {
        let s = _mm256_mul_pd(sign, _mm256_add_pd(v, add));
        _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(s, bar)) as u64
    }

    /// The AVX2 survive mask: four rows per compare. With stride 2 two
    /// loads hold four interleaved rows; `unpacklo`/`unpackhi` pick the
    /// lane (rows in order 0, 2, 1, 3) and one cross-lane permute restores
    /// row order. A tail of fewer than four rows goes through the scalar
    /// predicate.
    ///
    /// # Safety
    /// Caller guarantees AVX2, `stride` 1 or 2, `lane < stride` and that
    /// `x` holds at most 64 whole rows.
    // SAFETY: dispatched from `survive_mask` only after asserting all of
    // the above; every load reads rows `i..i + 4` with `i + 4 ≤ rows`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn survive_mask_avx2(
        test: SurviveTest,
        x: &[f64],
        stride: usize,
        lane: usize,
    ) -> u64 {
        let rows = x.len() / stride;
        let p = x.as_ptr();
        let sign = _mm256_set1_pd(test.sign);
        let add = _mm256_set1_pd(test.add);
        let bar = _mm256_set1_pd(test.bar);
        let mut dropped = 0u64;
        let mut i = 0usize;
        while i + 4 <= rows {
            let v = if stride == 1 {
                _mm256_loadu_pd(p.add(i))
            } else {
                let a = _mm256_loadu_pd(p.add(2 * i));
                let b = _mm256_loadu_pd(p.add(2 * i + 4));
                let picked =
                    if lane == 0 { _mm256_unpacklo_pd(a, b) } else { _mm256_unpackhi_pd(a, b) };
                _mm256_permute4x64_pd::<0b11_01_10_00>(picked)
            };
            dropped |= dropped_quad(v, sign, add, bar) << i;
            i += 4;
        }
        let mut mask = if i == 64 { !dropped } else { !dropped & ((1u64 << i) - 1) };
        while i < rows {
            mask |= u64::from(test.survives(*p.add(i * stride + lane))) << i;
            i += 1;
        }
        mask
    }

    /// One 4-row sweep step: widen 4 code bytes to 32-bit indices, mask
    /// them into the LUT, gather both `f64` LUT entries and add them onto
    /// the resident accumulators. Per row this is exactly the scalar
    /// `opt[i] += opt_lut[c]; pes[i] += pes_lut[c]` — `vaddpd` is
    /// IEEE-exact per lane, so the result is bit-identical.
    ///
    /// # Safety
    /// Caller guarantees AVX2, `i + 4` rows in bounds of all three slices
    /// and a `mask` of the LUTs' power-of-two length minus one.
    // SAFETY: see the function's safety contract; the sole caller
    // (`sweep_avx2`) establishes it for every step.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sweep_quad(
        codes: *const u8,
        o_lut: *const f64,
        p_lut: *const f64,
        opt: *mut f64,
        pes: *mut f64,
        mask: __m128i,
        i: usize,
    ) {
        let word = codes.add(i).cast::<u32>().read_unaligned();
        let idx = _mm_and_si128(_mm_cvtepu8_epi32(_mm_cvtsi32_si128(word as i32)), mask);
        let og = _mm256_i32gather_pd::<8>(o_lut, idx);
        let o = _mm256_loadu_pd(opt.add(i));
        _mm256_storeu_pd(opt.add(i), _mm256_add_pd(o, og));
        let pg = _mm256_i32gather_pd::<8>(p_lut, idx);
        let p = _mm256_loadu_pd(pes.add(i));
        _mm256_storeu_pd(pes.add(i), _mm256_add_pd(p, pg));
    }

    /// The AVX2 quantized sweep. Two regimes:
    ///
    /// * **bits ≤ 4** (LUT ≤ 16 entries, 256 bytes for both LUTs): the
    ///   fast-scan-inspired path. A literal `pshufb` 16-entry shuffle is
    ///   off the table — fast-scan shuffles *8-bit quantized distances*,
    ///   while BOND's bounds are `f64` and contractually bit-identical to
    ///   scalar — so the low-bit win is taken by keeping the entire LUT
    ///   pair L1-resident and unrolling 16 rows per iteration so the
    ///   four gathers per LUT overlap.
    /// * **bits 5–8**: plain unrolled gather-accumulate, 8 rows per
    ///   iteration over the 64-cell blocks.
    ///
    /// # Safety
    /// Caller guarantees AVX2 is available, `codes`, `opt` and `pes` are
    /// the same length, and the LUTs are equal power-of-two lengths.
    // SAFETY: dispatched from `sweep` only after `is_supported` and the
    // length/power-of-two asserts; all pointer arithmetic stays inside the
    // asserted bounds and LUT indices are masked.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sweep_avx2(
        codes: &[u8],
        opt_lut: &[f64],
        pes_lut: &[f64],
        opt: &mut [f64],
        pes: &mut [f64],
    ) {
        let n = codes.len();
        let lut_mask = opt_lut.len() - 1;
        let mask = _mm_set1_epi32(lut_mask as i32);
        let cp = codes.as_ptr();
        let ol = opt_lut.as_ptr();
        let pl = pes_lut.as_ptr();
        let op = opt.as_mut_ptr();
        let pp = pes.as_mut_ptr();
        let mut i = 0usize;
        if opt_lut.len() <= 16 {
            while i + 16 <= n {
                sweep_quad(cp, ol, pl, op, pp, mask, i);
                sweep_quad(cp, ol, pl, op, pp, mask, i + 4);
                sweep_quad(cp, ol, pl, op, pp, mask, i + 8);
                sweep_quad(cp, ol, pl, op, pp, mask, i + 12);
                i += 16;
            }
        } else {
            while i + 8 <= n {
                sweep_quad(cp, ol, pl, op, pp, mask, i);
                sweep_quad(cp, ol, pl, op, pp, mask, i + 4);
                i += 8;
            }
        }
        while i + 4 <= n {
            sweep_quad(cp, ol, pl, op, pp, mask, i);
            i += 4;
        }
        while i < n {
            let c = (*cp.add(i) as usize) & lut_mask;
            *op.add(i) += *ol.add(c);
            *pp.add(i) += *pl.add(c);
            i += 1;
        }
    }

    /// The dimension-blocked AVX2 sweep over the interleaved accumulator:
    /// up to [`super::MAX_SWEEP_GROUP`] code columns fold into the running
    /// `[opt, pes]` pairs in a single pass. Four tricks stack up here:
    ///
    /// * the per-row bounds stay **in registers** across the whole column
    ///   block — the single-dimension sweep reloads and restores both
    ///   accumulator streams per dimension;
    /// * each cell's `[opt, pes]` LUT pair is one 128-bit load — the
    ///   split-LUT layout needed two;
    /// * `vgatherdpd` is microcoded on plenty of AVX2 parts, so indices
    ///   come from one 8-byte scalar read of the code column and plain
    ///   loads assemble the vectors;
    /// * the cell's **byte offset** into its pair table is produced
    ///   directly as `(word >> (8·k − 4)) & ((levels − 1) << 4)` — the ×16
    ///   entry scale folds into the mask, so each offset costs one shift
    ///   and one AND instead of shift + mask + rescale (the extraction
    ///   arithmetic, not the loads, is this loop's port bottleneck).
    ///
    /// The per-row, per-side addition order — column `j` after column
    /// `j−1`, one `vaddpd` lane each — stays exactly the scalar
    /// reference's, keeping the result bit-identical.
    ///
    /// # Safety
    /// Caller guarantees AVX2 is available, every column holds
    /// `inter.len() / 2` codes, the LUT storage holds
    /// `columns.len() × levels` interleaved pairs and `levels` is a power
    /// of two.
    // SAFETY: dispatched from `sweep_pairs` only after asserting all of
    // the above; all pointer arithmetic stays inside those bounds and LUT
    // indices are masked to `levels − 1`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sweep_pairs_avx2(
        columns: &[&[u8]],
        pair_luts: &[f64],
        levels: usize,
        inter: &mut [f64],
        init: bool,
    ) {
        let n = inter.len() / 2;
        // byte-offset mask: a pair is 16 bytes, so `code × 16` is produced
        // in one shift + AND by pre-shifting the level mask
        let m = (levels - 1) << 4;
        let lp = pair_luts.as_ptr().cast::<u8>();
        let ip = inter.as_mut_ptr();
        // two `[opt, pes]` pairs — one 128-bit load each — fill a ymm;
        // offsets are byte offsets into this column's pair table
        let duo = |lut: *const u8, o_lo: usize, o_hi: usize| {
            // SAFETY: the enclosing function's contract — both byte
            // offsets are already masked to `(levels − 1) << 4` and `lut`
            // points at a `levels`-pair table inside the caller-checked
            // LUT storage, so both 16-byte reads stay inside it.
            unsafe {
                _mm256_set_m128d(
                    _mm_loadu_pd(lut.add(o_hi).cast()),
                    _mm_loadu_pd(lut.add(o_lo).cast()),
                )
            }
        };
        let mut i = 0usize;
        // 16 rows per iteration: eight independent accumulator registers
        // hide the serial `vaddpd` latency down each column chain, and the
        // code bytes per column arrive as two scalar 8-byte loads.
        // `init` skips both the memset a zeroed accumulator would need and
        // the accumulator loads of the first dimension block: each lane
        // starts from a register zero and performs the identical
        // `0.0 + contribution` addition.
        let zero = _mm256_setzero_pd();
        while i + 16 <= n {
            let (mut a0, mut a1, mut a2, mut a3, mut a4, mut a5, mut a6, mut a7) = if init {
                (zero, zero, zero, zero, zero, zero, zero, zero)
            } else {
                (
                    _mm256_loadu_pd(ip.add(2 * i)),
                    _mm256_loadu_pd(ip.add(2 * i + 4)),
                    _mm256_loadu_pd(ip.add(2 * i + 8)),
                    _mm256_loadu_pd(ip.add(2 * i + 12)),
                    _mm256_loadu_pd(ip.add(2 * i + 16)),
                    _mm256_loadu_pd(ip.add(2 * i + 20)),
                    _mm256_loadu_pd(ip.add(2 * i + 24)),
                    _mm256_loadu_pd(ip.add(2 * i + 28)),
                )
            };
            for (j, column) in columns.iter().enumerate() {
                let lut = lp.add(j * levels * 16);
                let w = column.as_ptr().add(i).cast::<u64>().read_unaligned() as usize;
                let v = column.as_ptr().add(i + 8).cast::<u64>().read_unaligned() as usize;
                a0 = _mm256_add_pd(a0, duo(lut, (w << 4) & m, (w >> 4) & m));
                a1 = _mm256_add_pd(a1, duo(lut, (w >> 12) & m, (w >> 20) & m));
                a2 = _mm256_add_pd(a2, duo(lut, (w >> 28) & m, (w >> 36) & m));
                a3 = _mm256_add_pd(a3, duo(lut, (w >> 44) & m, (w >> 52) & m));
                a4 = _mm256_add_pd(a4, duo(lut, (v << 4) & m, (v >> 4) & m));
                a5 = _mm256_add_pd(a5, duo(lut, (v >> 12) & m, (v >> 20) & m));
                a6 = _mm256_add_pd(a6, duo(lut, (v >> 28) & m, (v >> 36) & m));
                a7 = _mm256_add_pd(a7, duo(lut, (v >> 44) & m, (v >> 52) & m));
            }
            _mm256_storeu_pd(ip.add(2 * i), a0);
            _mm256_storeu_pd(ip.add(2 * i + 4), a1);
            _mm256_storeu_pd(ip.add(2 * i + 8), a2);
            _mm256_storeu_pd(ip.add(2 * i + 12), a3);
            _mm256_storeu_pd(ip.add(2 * i + 16), a4);
            _mm256_storeu_pd(ip.add(2 * i + 20), a5);
            _mm256_storeu_pd(ip.add(2 * i + 24), a6);
            _mm256_storeu_pd(ip.add(2 * i + 28), a7);
            i += 16;
        }
        while i + 8 <= n {
            let (mut a0, mut a1, mut a2, mut a3) = if init {
                (zero, zero, zero, zero)
            } else {
                (
                    _mm256_loadu_pd(ip.add(2 * i)),
                    _mm256_loadu_pd(ip.add(2 * i + 4)),
                    _mm256_loadu_pd(ip.add(2 * i + 8)),
                    _mm256_loadu_pd(ip.add(2 * i + 12)),
                )
            };
            for (j, column) in columns.iter().enumerate() {
                let lut = lp.add(j * levels * 16);
                let w = column.as_ptr().add(i).cast::<u64>().read_unaligned() as usize;
                a0 = _mm256_add_pd(a0, duo(lut, (w << 4) & m, (w >> 4) & m));
                a1 = _mm256_add_pd(a1, duo(lut, (w >> 12) & m, (w >> 20) & m));
                a2 = _mm256_add_pd(a2, duo(lut, (w >> 28) & m, (w >> 36) & m));
                a3 = _mm256_add_pd(a3, duo(lut, (w >> 44) & m, (w >> 52) & m));
            }
            _mm256_storeu_pd(ip.add(2 * i), a0);
            _mm256_storeu_pd(ip.add(2 * i + 4), a1);
            _mm256_storeu_pd(ip.add(2 * i + 8), a2);
            _mm256_storeu_pd(ip.add(2 * i + 12), a3);
            i += 8;
        }
        while i < n {
            let (mut o, mut p) =
                if init { (0.0, 0.0) } else { (*ip.add(2 * i), *ip.add(2 * i + 1)) };
            for (j, column) in columns.iter().enumerate() {
                let lut = lp.add(j * levels * 16);
                let off = ((*column.as_ptr().add(i)) as usize) << 4 & m;
                o += *lut.add(off).cast::<f64>();
                p += *lut.add(off + 8).cast::<f64>();
            }
            *ip.add(2 * i) = o;
            *ip.add(2 * i + 1) = p;
            i += 1;
        }
    }

    /// Fused LUT build: generates each cell's `[lo, hi]` edges in
    /// registers (`min + c·width`, clamped to `max` — the exact formula of
    /// `CodeParams::fill_cell_bounds`) and applies `op`'s interval-bound
    /// math lane-wise, writing one `(opt_c, pes_c, opt_{c+1}, pes_{c+1})`
    /// vector per two cells. Cell indices live in `f64` lane accumulators
    /// stepped by `+2.0` — exact for every index ≤ 256, so the edges match
    /// the scalar `c as f64` conversion bit for bit. Bound formulas mirror
    /// the metric impls operation for operation: `maxnum(q, lo)` →
    /// `vmaxpd`, `(w·d)·d` not `w·(d·d)`, no FMA contraction anywhere.
    ///
    /// # Safety
    /// Caller guarantees AVX2 is available and `pairs.len()` is
    /// `2 × levels` for a power-of-two (hence even) level count.
    // SAFETY: bounds are enforced by the dispatching `fill_pair_lut`; all
    // stores below stay inside `pairs` because the two-cell steps tile an
    // even-length LUT exactly.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fill_pair_lut_avx2(
        op: KernelOp<'_>,
        dim: usize,
        grid: CodeParams,
        query: f64,
        pairs: &mut [f64],
    ) {
        let levels = pairs.len() / 2;
        let vmin = _mm256_set1_pd(grid.min);
        let vmax = _mm256_set1_pd(grid.max);
        let vw = _mm256_set1_pd(grid.cell_width());
        let vq = _mm256_set1_pd(query);
        let two = _mm256_set1_pd(2.0);
        let out = pairs.as_mut_ptr();
        match op {
            KernelOp::Min | KernelOp::WeightedMin(_) => {
                let scale = match op {
                    KernelOp::WeightedMin(w) => Some(_mm256_set1_pd(w[dim])),
                    _ => None,
                };
                // lanes (c+1, c, c+2, c+1): opt reads the cell's top edge,
                // pes its bottom — both edges share the `min(…, max)` clamp
                let mut idx = _mm256_setr_pd(1.0, 0.0, 2.0, 1.0);
                for c in (0..levels).step_by(2) {
                    let e = _mm256_min_pd(_mm256_add_pd(vmin, _mm256_mul_pd(idx, vw)), vmax);
                    let mut v = _mm256_min_pd(e, vq);
                    if let Some(s) = scale {
                        v = _mm256_mul_pd(s, v);
                    }
                    _mm256_storeu_pd(out.add(2 * c), v);
                    idx = _mm256_add_pd(idx, two);
                }
            }
            KernelOp::SquaredDiff | KernelOp::WeightedSquaredDiff(_) => {
                let scale = match op {
                    KernelOp::WeightedSquaredDiff(w) => Some(_mm256_set1_pd(w[dim])),
                    _ => None,
                };
                let mut ilo = _mm256_setr_pd(0.0, 0.0, 1.0, 1.0);
                let mut ihi = _mm256_setr_pd(1.0, 1.0, 2.0, 2.0);
                for c in (0..levels).step_by(2) {
                    let lo = _mm256_min_pd(_mm256_add_pd(vmin, _mm256_mul_pd(ilo, vw)), vmax);
                    let hi = _mm256_min_pd(_mm256_add_pd(vmin, _mm256_mul_pd(ihi, vw)), vmax);
                    // best: distance to the clamped nearest point of the cell
                    let d = _mm256_sub_pd(_mm256_min_pd(_mm256_max_pd(vq, lo), hi), vq);
                    let best = match scale {
                        Some(s) => _mm256_mul_pd(_mm256_mul_pd(s, d), d),
                        None => _mm256_mul_pd(d, d),
                    };
                    // worst: the farther endpoint
                    let dl = _mm256_sub_pd(lo, vq);
                    let dh = _mm256_sub_pd(hi, vq);
                    let mut worst = _mm256_max_pd(_mm256_mul_pd(dl, dl), _mm256_mul_pd(dh, dh));
                    if let Some(s) = scale {
                        worst = _mm256_mul_pd(s, worst);
                    }
                    _mm256_storeu_pd(out.add(2 * c), _mm256_blend_pd::<0b1010>(best, worst));
                    ilo = _mm256_add_pd(ilo, two);
                    ihi = _mm256_add_pd(ihi, two);
                }
            }
        }
    }

    /// The per-shape contribution of 4 gathered-or-loaded values. The
    /// operation order matches [`KernelOp::apply`] exactly: `min` then
    /// weight, and `(w·d)·d` (not `w·(d·d)`) for the weighted square — no
    /// FMA contraction anywhere, or bit-identity would break.
    ///
    /// # Safety
    /// Caller guarantees AVX2 is available.
    // SAFETY: pure register arithmetic; only reachable from AVX2 kernels
    // that already established feature support.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn contribution_quad(op: KernelOp<'_>, dim: usize, v: __m256d, q: __m256d) -> __m256d {
        match op {
            KernelOp::Min => _mm256_min_pd(v, q),
            KernelOp::SquaredDiff => {
                let d = _mm256_sub_pd(v, q);
                _mm256_mul_pd(d, d)
            }
            KernelOp::WeightedMin(w) => _mm256_mul_pd(_mm256_set1_pd(w[dim]), _mm256_min_pd(v, q)),
            KernelOp::WeightedSquaredDiff(w) => {
                let d = _mm256_sub_pd(v, q);
                _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(w[dim]), d), d)
            }
        }
    }

    /// Dense AVX2 accumulate: 4 contiguous rows per iteration.
    ///
    /// # Safety
    /// Caller guarantees AVX2 and `values.len() == acc.len()`.
    // SAFETY: dispatched from `accumulate` only after `is_supported` and
    // the length assert; pointer arithmetic stays inside those bounds.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn accumulate_avx2(
        op: KernelOp<'_>,
        dim: usize,
        values: &[f64],
        query: f64,
        acc: &mut [f64],
    ) {
        let n = values.len();
        let q = _mm256_set1_pd(query);
        let vp = values.as_ptr();
        let ap = acc.as_mut_ptr();
        let mut i = 0usize;
        while i + 4 <= n {
            let v = _mm256_loadu_pd(vp.add(i));
            let c = contribution_quad(op, dim, v, q);
            let a = _mm256_loadu_pd(ap.add(i));
            _mm256_storeu_pd(ap.add(i), _mm256_add_pd(a, c));
            i += 4;
        }
        while i < n {
            *ap.add(i) += op.apply(dim, *vp.add(i), query);
            i += 1;
        }
    }

    /// Gathered AVX2 accumulate: 4 list rows per iteration, value loads
    /// via `vpgatherdq` on the 32-bit row ids.
    ///
    /// # Safety
    /// Caller guarantees AVX2, `rows.len() == acc.len()`, every row id in
    /// bounds of `values`, and `values.len() ≤ i32::MAX` (gather indices
    /// are signed 32-bit).
    // SAFETY: dispatched from `accumulate_gather` only after checking all
    // of the above; pointer arithmetic stays inside those bounds.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn accumulate_gather_avx2(
        op: KernelOp<'_>,
        dim: usize,
        values: &[f64],
        rows: &[RowId],
        query: f64,
        acc: &mut [f64],
    ) {
        let n = rows.len();
        let q = _mm256_set1_pd(query);
        let vp = values.as_ptr();
        let rp = rows.as_ptr();
        let ap = acc.as_mut_ptr();
        let mut i = 0usize;
        while i + 4 <= n {
            let idx = _mm_loadu_si128(rp.add(i).cast::<__m128i>());
            let v = _mm256_i32gather_pd::<8>(vp, idx);
            let c = contribution_quad(op, dim, v, q);
            let a = _mm256_loadu_pd(ap.add(i));
            _mm256_storeu_pd(ap.add(i), _mm256_add_pd(a, c));
            i += 4;
        }
        while i < n {
            *ap.add(i) += op.apply(dim, *vp.add(*rp.add(i) as usize), query);
            i += 1;
        }
    }

    /// Dense AVX2 mass accumulate: `acc[i] += values[i]`.
    ///
    /// # Safety
    /// Caller guarantees AVX2 and `values.len() == acc.len()`.
    // SAFETY: dispatched from `add_assign` only after `is_supported` and
    // the length assert.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_assign_avx2(values: &[f64], acc: &mut [f64]) {
        let n = values.len();
        let vp = values.as_ptr();
        let ap = acc.as_mut_ptr();
        let mut i = 0usize;
        while i + 4 <= n {
            let v = _mm256_loadu_pd(vp.add(i));
            let a = _mm256_loadu_pd(ap.add(i));
            _mm256_storeu_pd(ap.add(i), _mm256_add_pd(a, v));
            i += 4;
        }
        while i < n {
            *ap.add(i) += *vp.add(i);
            i += 1;
        }
    }

    /// Gathered AVX2 mass accumulate: `acc[i] += values[rows[i]]`.
    ///
    /// # Safety
    /// Same contract as [`accumulate_gather_avx2`].
    // SAFETY: dispatched from `add_assign_gather` only after checking
    // feature support, row bounds and the 32-bit index limit.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_assign_gather_avx2(values: &[f64], rows: &[RowId], acc: &mut [f64]) {
        let n = rows.len();
        let vp = values.as_ptr();
        let rp = rows.as_ptr();
        let ap = acc.as_mut_ptr();
        let mut i = 0usize;
        while i + 4 <= n {
            let idx = _mm_loadu_si128(rp.add(i).cast::<__m128i>());
            let v = _mm256_i32gather_pd::<8>(vp, idx);
            let a = _mm256_loadu_pd(ap.add(i));
            _mm256_storeu_pd(ap.add(i), _mm256_add_pd(a, v));
            i += 4;
        }
        while i < n {
            *ap.add(i) += *vp.add(*rp.add(i) as usize);
            i += 1;
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use core::arch::aarch64::{
        float64x2_t, vaddq_f64, vcombine_f64, vdupq_n_f64, vld1_f64, vld1q_f64, vminnmq_f64,
        vmulq_f64, vst1q_f64, vsubq_f64,
    };

    use bond_metrics::KernelOp;

    /// NEON sweep: arithmetic runs two rows per 128-bit vector; the LUT
    /// lookups are lane-gathered (NEON has no gather instruction).
    pub(super) fn sweep_neon(
        codes: &[u8],
        opt_lut: &[f64],
        pes_lut: &[f64],
        opt: &mut [f64],
        pes: &mut [f64],
    ) {
        let n = codes.len();
        let lut_mask = opt_lut.len() - 1;
        let mut i = 0usize;
        while i + 2 <= n {
            let c0 = (codes[i] as usize) & lut_mask;
            let c1 = (codes[i + 1] as usize) & lut_mask;
            // SAFETY: NEON is baseline on aarch64; `i + 2 <= n` bounds all
            // lane loads/stores, and the LUT indices are masked.
            unsafe {
                let og = vcombine_f64(vld1_f64(&opt_lut[c0]), vld1_f64(&opt_lut[c1]));
                let o = vld1q_f64(opt.as_ptr().add(i));
                vst1q_f64(opt.as_mut_ptr().add(i), vaddq_f64(o, og));
                let pg = vcombine_f64(vld1_f64(&pes_lut[c0]), vld1_f64(&pes_lut[c1]));
                let p = vld1q_f64(pes.as_ptr().add(i));
                vst1q_f64(pes.as_mut_ptr().add(i), vaddq_f64(p, pg));
            }
            i += 2;
        }
        while i < n {
            let c = (codes[i] as usize) & lut_mask;
            opt[i] += opt_lut[c];
            pes[i] += pes_lut[c];
            i += 1;
        }
    }

    /// Two-lane contribution matching [`KernelOp::apply`] op for op.
    /// `vminnmq_f64` is IEEE `minNum` — the same semantics as Rust's
    /// `f64::min` — and the weighted square keeps the `(w·d)·d` order.
    ///
    /// # Safety
    /// NEON is baseline on aarch64; register arithmetic only.
    // SAFETY: pure register arithmetic; NEON is unconditionally available
    // on aarch64 targets.
    #[inline]
    unsafe fn contribution_pair(
        op: KernelOp<'_>,
        dim: usize,
        v: float64x2_t,
        q: float64x2_t,
    ) -> float64x2_t {
        match op {
            KernelOp::Min => vminnmq_f64(v, q),
            KernelOp::SquaredDiff => {
                let d = vsubq_f64(v, q);
                vmulq_f64(d, d)
            }
            KernelOp::WeightedMin(w) => vmulq_f64(vdupq_n_f64(w[dim]), vminnmq_f64(v, q)),
            KernelOp::WeightedSquaredDiff(w) => {
                let d = vsubq_f64(v, q);
                vmulq_f64(vmulq_f64(vdupq_n_f64(w[dim]), d), d)
            }
        }
    }

    /// Dense NEON accumulate: two contiguous rows per iteration.
    pub(super) fn accumulate_neon(
        op: KernelOp<'_>,
        dim: usize,
        values: &[f64],
        query: f64,
        acc: &mut [f64],
    ) {
        let n = values.len();
        let mut i = 0usize;
        // SAFETY: NEON is baseline on aarch64; the loop bound keeps every
        // two-lane load/store inside the equal-length slices.
        unsafe {
            let q = vdupq_n_f64(query);
            while i + 2 <= n {
                let v = vld1q_f64(values.as_ptr().add(i));
                let c = contribution_pair(op, dim, v, q);
                let a = vld1q_f64(acc.as_ptr().add(i));
                vst1q_f64(acc.as_mut_ptr().add(i), vaddq_f64(a, c));
                i += 2;
            }
        }
        while i < n {
            acc[i] += op.apply(dim, values[i], query);
            i += 1;
        }
    }

    /// Dense NEON mass accumulate: `acc[i] += values[i]`.
    pub(super) fn add_assign_neon(values: &[f64], acc: &mut [f64]) {
        let n = values.len();
        let mut i = 0usize;
        // SAFETY: NEON is baseline on aarch64; the loop bound keeps every
        // two-lane load/store inside the equal-length slices.
        unsafe {
            while i + 2 <= n {
                let v = vld1q_f64(values.as_ptr().add(i));
                let a = vld1q_f64(acc.as_ptr().add(i));
                vst1q_f64(acc.as_mut_ptr().add(i), vaddq_f64(a, v));
                i += 2;
            }
        }
        while i < n {
            acc[i] += values[i];
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bond_metrics::{
        DecomposableMetric, HistogramIntersection, SquaredEuclidean, WeightedHistogramIntersection,
        WeightedSquaredEuclidean,
    };

    fn xorshift(seed: &mut u64) -> f64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        (*seed >> 11) as f64 / (1u64 << 53) as f64
    }

    fn supported() -> Vec<Kernel> {
        Kernel::ALL.into_iter().filter(|k| k.is_supported()).collect()
    }

    #[test]
    fn selection_rules() {
        assert_eq!(Kernel::select(Some("scalar")), Kernel::Scalar);
        assert_eq!(Kernel::select(Some("nonsense")), Kernel::Scalar);
        assert_eq!(Kernel::select(Some(" avx2 ")), Kernel::select(Some("avx2")));
        // a recognised but unsupported flavour degrades to scalar
        if !Kernel::Neon.is_supported() {
            assert_eq!(Kernel::select(Some("neon")), Kernel::Scalar);
        }
        if Kernel::Avx2.is_supported() {
            assert_eq!(Kernel::select(Some("avx2")), Kernel::Avx2);
            assert_eq!(Kernel::select(None), Kernel::Avx2);
        }
        assert_eq!(Kernel::select(None), Kernel::preferred());
        // labels round-trip through from_name
        for k in Kernel::ALL {
            assert_eq!(Kernel::from_name(k.label()), Some(k));
        }
        assert!(Kernel::Scalar.is_supported());
        // active() is stable across calls
        assert_eq!(Kernel::active(), Kernel::active());
    }

    #[test]
    fn sweeps_are_bit_identical_across_kernels() {
        let mut seed = 0x0123_4567_89AB_CDEFu64;
        for bits in [1u32, 2, 4, 6, 8] {
            let levels = 1usize << bits;
            // deliberately awkward length: exercises unroll + remainder
            let rows = 203;
            let codes: Vec<u8> =
                (0..rows).map(|_| (xorshift(&mut seed) * levels as f64) as u8).collect();
            let opt_lut: Vec<f64> = (0..levels).map(|_| xorshift(&mut seed) * 2.0 - 1.0).collect();
            let pes_lut: Vec<f64> = (0..levels).map(|_| xorshift(&mut seed) * 2.0 - 1.0).collect();
            let init: Vec<f64> = (0..rows).map(|_| xorshift(&mut seed)).collect();
            let mut opt_ref = init.clone();
            let mut pes_ref = init.clone();
            sweep(Kernel::Scalar, &codes, &opt_lut, &pes_lut, &mut opt_ref, &mut pes_ref);
            for kernel in supported() {
                let mut opt = init.clone();
                let mut pes = init.clone();
                sweep(kernel, &codes, &opt_lut, &pes_lut, &mut opt, &mut pes);
                for i in 0..rows {
                    assert_eq!(
                        opt[i].to_bits(),
                        opt_ref[i].to_bits(),
                        "{}: opt diverges at row {i}, bits {bits}",
                        kernel.label()
                    );
                    assert_eq!(
                        pes[i].to_bits(),
                        pes_ref[i].to_bits(),
                        "{}: pes diverges at row {i}, bits {bits}",
                        kernel.label()
                    );
                }
            }
        }
    }

    #[test]
    fn out_of_range_codes_alias_instead_of_faulting() {
        // only the vector paths mask; feed them codes beyond the LUT and
        // check they stay in bounds and deterministic
        let codes = vec![255u8; 37];
        let opt_lut = vec![1.0; 4];
        let pes_lut = vec![2.0; 4];
        for kernel in supported() {
            if kernel == Kernel::Scalar {
                continue; // the scalar path indexes directly and would panic
            }
            let mut opt = vec![0.0; 37];
            let mut pes = vec![0.0; 37];
            sweep(kernel, &codes, &opt_lut, &pes_lut, &mut opt, &mut pes);
            assert!(opt.iter().all(|&o| o == 1.0));
            assert!(pes.iter().all(|&p| p == 2.0));
        }
    }

    #[test]
    fn accumulates_are_bit_identical_across_kernels() {
        let wh =
            WeightedHistogramIntersection::new((0..33).map(|d| d as f64 * 0.25).collect()).unwrap();
        let we =
            WeightedSquaredEuclidean::new((0..33).map(|d| 0.1 + d as f64 * 0.3).collect()).unwrap();
        let metrics: Vec<&dyn DecomposableMetric> =
            vec![&HistogramIntersection, &SquaredEuclidean, &wh, &we];
        let mut seed = 0xFEED_FACE_0BAD_F00Du64;
        let rows = 131;
        let values: Vec<f64> = (0..rows).map(|_| xorshift(&mut seed)).collect();
        let init: Vec<f64> = (0..rows).map(|_| xorshift(&mut seed)).collect();
        let list: Vec<RowId> = (0..rows).filter(|r| r % 3 != 1).map(|r| r as RowId).rev().collect();
        for metric in metrics {
            let op = metric.kernel_op().unwrap();
            for dim in [0usize, 17, 32] {
                let q = xorshift(&mut seed);
                let mut dense_ref = init.clone();
                accumulate(Kernel::Scalar, op, dim, &values, q, &mut dense_ref);
                let mut gather_ref = vec![0.5f64; list.len()];
                accumulate_gather(Kernel::Scalar, op, dim, &values, &list, q, &mut gather_ref);
                for kernel in supported() {
                    let mut dense = init.clone();
                    accumulate(kernel, op, dim, &values, q, &mut dense);
                    assert!(
                        dense.iter().zip(&dense_ref).all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{}: dense accumulate diverges ({})",
                        kernel.label(),
                        metric.name()
                    );
                    let mut gathered = vec![0.5f64; list.len()];
                    accumulate_gather(kernel, op, dim, &values, &list, q, &mut gathered);
                    assert!(
                        gathered.iter().zip(&gather_ref).all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{}: gathered accumulate diverges ({})",
                        kernel.label(),
                        metric.name()
                    );
                }
            }
        }
    }

    #[test]
    fn mass_kernels_are_bit_identical_across_kernels() {
        let mut seed = 0x0F0F_F0F0_1234_8765u64;
        let rows = 97;
        let values: Vec<f64> = (0..rows).map(|_| xorshift(&mut seed)).collect();
        let init: Vec<f64> = (0..rows).map(|_| xorshift(&mut seed)).collect();
        let list: Vec<RowId> = (0..rows as RowId).filter(|r| r % 2 == 0).collect();
        let mut dense_ref = init.clone();
        add_assign(Kernel::Scalar, &values, &mut dense_ref);
        let mut gather_ref = vec![0.25f64; list.len()];
        add_assign_gather(Kernel::Scalar, &values, &list, &mut gather_ref);
        for kernel in supported() {
            let mut dense = init.clone();
            add_assign(kernel, &values, &mut dense);
            assert!(dense.iter().zip(&dense_ref).all(|(a, b)| a.to_bits() == b.to_bits()));
            let mut gathered = vec![0.25f64; list.len()];
            add_assign_gather(kernel, &values, &list, &mut gathered);
            assert!(gathered.iter().zip(&gather_ref).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}
