//! Runtime-dispatched, ISA-pinned scan kernels for the two hot loops.
//!
//! The BOND premise — vertical decomposition turns k-NN into dense
//! streaming scans — is only cashed in when the inner loops actually run
//! at hardware width. This module pins the two loops that matter to
//! explicit per-ISA implementations instead of leaving them to the
//! auto-vectorizer's mood:
//!
//! 1. **the quantized sweep** ([`sweep_lane`]): per dimension, accumulate
//!    the LUT entries a flat `&[u8]` code column selects into one per-row
//!    running bound — the optimistic bound the code filter prunes on, or
//!    either side of the full interval the VA-File and the approximate scan
//!    read (one pass per side), and
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
//! PQ literature appears here as the dimension-blocked sweep
//! ([`sweep_lane`]) over full-precision LUTs rather than a literal
//! `pshufb` byte shuffle: fast-scan shuffles 8-bit quantized distances, but
//! BOND's bounds are `f64` and must stay bit-identical to the scalar sweep,
//! so the fast path keeps full-width lanes and wins by holding the running
//! bounds in registers across a block of dimensions, gathering four rows'
//! entries per instruction.

use std::sync::OnceLock;

use bond_metrics::KernelOp;
use vdstore::{CodeParams, RowId};

/// Environment variable that forces kernel selection
/// (`BOND_KERNEL=scalar|avx2|neon`). Unknown or unsupported values fall
/// back to the portable scalar kernel rather than erroring: a forced
/// kernel is a test/debug override, and the scalar loop is always correct.
pub const KERNEL_ENV: &str = "BOND_KERNEL";

/// The instruction-set flavours the scan kernels are pinned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// The portable scalar loops — the reference every other flavour must
    /// match bit for bit.
    Scalar,
    /// `core::arch::x86_64` AVX2: the quantized sweep blocks up to
    /// [`MAX_SWEEP_GROUP`] dimensions per pass with the running bounds
    /// held in ymm registers and gathers four rows' LUT entries per
    /// instruction; the exact kernels run 4 rows per 256-bit lane group.
    Avx2,
    /// `core::arch::aarch64` NEON: the exact kernels run 2 rows per
    /// 128-bit vector; the quantized sweep runs the scalar reference (NEON
    /// has no gather instruction).
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

/// Upper bound on [`sweep_group`] across every kernel and level count —
/// callers size their column/LUT scratch against this.
pub const MAX_SWEEP_GROUP: usize = 32;

/// How many code columns [`sweep_lane`] folds into one pass over the
/// accumulator on this kernel at this LUT size. A single-dimension sweep
/// is bound by memory traffic — a LUT load plus an accumulator
/// load-modify-store per cell — so the AVX2 path blocks dimensions
/// together and keeps the running bounds in registers across the block.
/// The block width follows the LUT footprint: at ≤ 16 levels (bits ≤ 4,
/// the fast-scan regime) all 32 tables together are only 4 KiB, so the
/// widest block wins; at 5–8 bits a 32-column block would be 64 KiB of
/// LUTs, so 8 columns (16 KiB, L1-resident) are swept per pass. The scalar
/// reference, which NEON runs too, sweeps one column at a time (group 1).
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

/// One-lane, dimension-blocked sweep: for every row `i` and every column
/// `j` in order, `acc[i] += luts[j·levels + columns[j][i]]` — the code
/// filter's optimistic bound, or one side of the VA-File's interval, up to
/// [`sweep_group`] columns per pass. `luts[j·levels + c]` is code `c`'s
/// entry in column `j`.
///
/// Per row this computes `acc = ((acc + l0[c0]) + l1[c1]) + …`, one `f64`
/// addition per (row, column) in column order, whatever the kernel and the
/// group width, so every kernel is bit-identical to the scalar reference.
/// With `init` the accumulator's prior contents are ignored: every row
/// starts from `0.0` (computed as `0.0 + l0[c0]`, the exact operation a
/// zeroed accumulator would perform), so callers sweep their first block
/// with `init` instead of zeroing the accumulator. Code bytes are masked by
/// `levels − 1` on every kernel, so a malformed code aliases a valid cell.
/// AVX2 gathers four rows' entries per instruction; the other kernels run
/// the scalar reference, one column at a time.
///
/// # Panics
/// Panics unless `levels` is a power of two of at most 256, the LUT
/// storage holds `columns.len() × levels` entries, and every column holds
/// `acc.len()` codes.
pub fn sweep_lane(
    kernel: Kernel,
    columns: &[&[u8]],
    luts: &[f64],
    levels: usize,
    acc: &mut [f64],
    init: bool,
) {
    assert!(
        levels.is_power_of_two() && levels <= 256,
        "sweep_lane: levels must be a power of two of at most 256"
    );
    assert!(
        columns.len() * levels <= luts.len(),
        "sweep_lane: LUT storage shorter than columns × levels"
    );
    for column in columns {
        assert_eq!(column.len(), acc.len(), "sweep_lane: column and accumulator disagree");
    }
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 if Kernel::Avx2.is_supported() => {
            // SAFETY: AVX2 availability, column/accumulator lengths, LUT
            // storage size and the power-of-two level count of at most 256
            // were all just checked; indices are masked to `levels − 1`.
            unsafe { x86::sweep_lane_avx2(columns, luts, levels, acc, init) }
        }
        _ => sweep_lane_scalar(columns, luts, levels, acc, init),
    }
}

/// The portable one-lane sweep — the bit-identity reference: one column at
/// a time over every row.
fn sweep_lane_scalar(columns: &[&[u8]], luts: &[f64], levels: usize, acc: &mut [f64], init: bool) {
    if init {
        acc.fill(0.0);
    }
    let m = levels - 1;
    for (column, lut) in columns.iter().zip(luts.chunks_exact(levels)) {
        for (a, &code) in acc.iter_mut().zip(column.iter()) {
            *a += lut[code as usize & m];
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

/// The survive mask of up to [`MASK_ROWS`] rows: bit `i` is set iff
/// `x[i]` passes `test` ([`SurviveTest::survives`]); bits past the last
/// row are clear. `x` is a contiguous slice of bounds, one per row.
///
/// Bit-identical on every kernel: each lane performs the reference's one
/// addition, one multiplication and one ordered compare. AVX2 tests four
/// rows per instruction; NEON takes the scalar reference.
///
/// # Panics
/// Panics unless `x` holds at most [`MASK_ROWS`] rows.
pub fn survive_mask(kernel: Kernel, test: SurviveTest, x: &[f64]) -> u64 {
    assert!(x.len() <= MASK_ROWS, "survive_mask: at most 64 rows");
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 if Kernel::Avx2.is_supported() => {
            // SAFETY: AVX2 availability and a row count of at most 64 were
            // just checked.
            unsafe { x86::survive_mask_avx2(test, x) }
        }
        _ => survive_mask_scalar(test, x),
    }
}

/// The portable survive mask — the bit-identity reference.
fn survive_mask_scalar(test: SurviveTest, x: &[f64]) -> u64 {
    let mut mask = 0u64;
    for (i, &value) in x.iter().enumerate() {
        mask |= u64::from(test.survives(value)) << i;
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

/// Builds one dimension's one-lane optimistic contribution LUT (`best[c]`
/// for cell `c`): the optimistic lane of [`fill_pair_lut`], and the same
/// IEEE operations per cell, so the same bits — at half its work, since the
/// pessimistic lane is not computed. Returns `false` when this kernel has
/// no fused path or the grid has fewer than four levels (the vector steps
/// take four cells); the caller then takes the optimistic lane of a pair
/// LUT.
pub fn fill_best_lut(
    kernel: Kernel,
    op: KernelOp<'_>,
    dim: usize,
    grid: CodeParams,
    query: f64,
    best: &mut [f64],
) -> bool {
    let levels = grid.levels() as usize;
    assert_eq!(best.len(), levels, "fill_best_lut: LUT storage is not one entry per level");
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 if Kernel::Avx2.is_supported() && levels >= 4 => {
            // SAFETY: AVX2 availability was just checked and the LUT slice
            // holds exactly `levels` slots; `levels` is a power of two of at
            // least 4, so the four-cell vector steps tile it exactly.
            unsafe { x86::fill_best_lut_avx2(op, dim, grid, query, best) }
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
        _mm256_set1_pd, _mm256_setr_pd, _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd,
        _mm_and_si128, _mm_cvtepu8_epi32, _mm_cvtsi32_si128, _mm_loadu_si128, _mm_set1_epi8,
        _mm_srli_si128, _CMP_LT_OQ,
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

    /// The AVX2 survive mask: four rows per compare. A tail of fewer than
    /// four rows goes through the scalar predicate.
    ///
    /// # Safety
    /// Caller guarantees AVX2 and that `x` holds at most 64 rows.
    // SAFETY: dispatched from `survive_mask` only after asserting all of
    // the above; every load reads rows `i..i + 4` with `i + 4 ≤ rows`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn survive_mask_avx2(test: SurviveTest, x: &[f64]) -> u64 {
        let rows = x.len();
        let p = x.as_ptr();
        let sign = _mm256_set1_pd(test.sign);
        let add = _mm256_set1_pd(test.add);
        let bar = _mm256_set1_pd(test.bar);
        let mut dropped = 0u64;
        let mut i = 0usize;
        while i + 4 <= rows {
            let v = _mm256_loadu_pd(p.add(i));
            dropped |= dropped_quad(v, sign, add, bar) << i;
            i += 4;
        }
        let mut mask = if i == 64 { !dropped } else { !dropped & ((1u64 << i) - 1) };
        while i < rows {
            mask |= u64::from(test.survives(*p.add(i))) << i;
            i += 1;
        }
        mask
    }

    /// The AVX2 one-lane sweep: the running bounds of 16 rows stay in four
    /// ymm registers across the whole column block; per column, one 16-byte
    /// load of codes, masked to `levels − 1` once, widens into four index
    /// vectors and four `vgatherdpd` fetch the rows' LUT entries. A row
    /// adds its columns in order, one `vaddpd` lane each — the scalar
    /// reference's additions, so the result is bit-identical. Rows past the
    /// last 16 go four at a time, then one at a time.
    ///
    /// # Safety
    /// Caller guarantees AVX2 is available, every column holds `acc.len()`
    /// codes, the LUT storage holds `columns.len() × levels` entries and
    /// `levels` is a power of two of at most 256.
    // SAFETY: dispatched from `sweep_lane` only after asserting all of the
    // above; every load reads codes `i..i + 16` (or `i..i + 4`) with the
    // end at most `acc.len()`, and every gathered index is masked to
    // `levels − 1` inside its column's table.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sweep_lane_avx2(
        columns: &[&[u8]],
        luts: &[f64],
        levels: usize,
        acc: &mut [f64],
        init: bool,
    ) {
        let n = acc.len();
        // levels ≤ 256, so the mask fits a byte
        let m = levels - 1;
        let mask = _mm_set1_epi8(m as u8 as i8);
        let lp = luts.as_ptr();
        let ap = acc.as_mut_ptr();
        let zero = _mm256_setzero_pd();
        let mut i = 0usize;
        while i + 16 <= n {
            let (mut a0, mut a1, mut a2, mut a3) = if init {
                (zero, zero, zero, zero)
            } else {
                (
                    _mm256_loadu_pd(ap.add(i)),
                    _mm256_loadu_pd(ap.add(i + 4)),
                    _mm256_loadu_pd(ap.add(i + 8)),
                    _mm256_loadu_pd(ap.add(i + 12)),
                )
            };
            for (j, column) in columns.iter().enumerate() {
                let lut = lp.add(j * levels);
                let codes = _mm_and_si128(_mm_loadu_si128(column.as_ptr().add(i).cast()), mask);
                let idx0 = _mm_cvtepu8_epi32(codes);
                let idx1 = _mm_cvtepu8_epi32(_mm_srli_si128::<4>(codes));
                let idx2 = _mm_cvtepu8_epi32(_mm_srli_si128::<8>(codes));
                let idx3 = _mm_cvtepu8_epi32(_mm_srli_si128::<12>(codes));
                a0 = _mm256_add_pd(a0, _mm256_i32gather_pd::<8>(lut, idx0));
                a1 = _mm256_add_pd(a1, _mm256_i32gather_pd::<8>(lut, idx1));
                a2 = _mm256_add_pd(a2, _mm256_i32gather_pd::<8>(lut, idx2));
                a3 = _mm256_add_pd(a3, _mm256_i32gather_pd::<8>(lut, idx3));
            }
            _mm256_storeu_pd(ap.add(i), a0);
            _mm256_storeu_pd(ap.add(i + 4), a1);
            _mm256_storeu_pd(ap.add(i + 8), a2);
            _mm256_storeu_pd(ap.add(i + 12), a3);
            i += 16;
        }
        while i + 4 <= n {
            let mut a = if init { zero } else { _mm256_loadu_pd(ap.add(i)) };
            for (j, column) in columns.iter().enumerate() {
                let word = column.as_ptr().add(i).cast::<u32>().read_unaligned();
                let codes = _mm_and_si128(_mm_cvtsi32_si128(word as i32), mask);
                a = _mm256_add_pd(
                    a,
                    _mm256_i32gather_pd::<8>(lp.add(j * levels), _mm_cvtepu8_epi32(codes)),
                );
            }
            _mm256_storeu_pd(ap.add(i), a);
            i += 4;
        }
        while i < n {
            let mut a = if init { 0.0 } else { *ap.add(i) };
            for (j, column) in columns.iter().enumerate() {
                a += *lp.add(j * levels + (*column.as_ptr().add(i) as usize & m));
            }
            *ap.add(i) = a;
            i += 1;
        }
    }

    /// Fused one-lane LUT build: the optimistic lane of
    /// [`fill_pair_lut_avx2`], four cells per vector, with the same edges
    /// (`min + c·width` clamped to `max`, cell indices in `f64` lanes
    /// stepped by `+4.0`, exact for every index ≤ 256) and the same bound
    /// formulas, operation for operation.
    ///
    /// # Safety
    /// Caller guarantees AVX2 is available and `best.len()` is a
    /// power-of-two level count of at least 4.
    // SAFETY: bounds are enforced by the dispatching `fill_best_lut`; all
    // stores below stay inside `best` because the four-cell steps tile it.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fill_best_lut_avx2(
        op: KernelOp<'_>,
        dim: usize,
        grid: CodeParams,
        query: f64,
        best: &mut [f64],
    ) {
        let levels = best.len();
        let vmin = _mm256_set1_pd(grid.min);
        let vmax = _mm256_set1_pd(grid.max);
        let vw = _mm256_set1_pd(grid.cell_width());
        let vq = _mm256_set1_pd(query);
        let four = _mm256_set1_pd(4.0);
        let out = best.as_mut_ptr();
        match op {
            KernelOp::Min | KernelOp::WeightedMin(_) => {
                let scale = match op {
                    KernelOp::WeightedMin(w) => Some(_mm256_set1_pd(w[dim])),
                    _ => None,
                };
                // a cell's best is at its top edge, index c + 1
                let mut idx = _mm256_setr_pd(1.0, 2.0, 3.0, 4.0);
                for c in (0..levels).step_by(4) {
                    let e = _mm256_min_pd(_mm256_add_pd(vmin, _mm256_mul_pd(idx, vw)), vmax);
                    let mut v = _mm256_min_pd(e, vq);
                    if let Some(s) = scale {
                        v = _mm256_mul_pd(s, v);
                    }
                    _mm256_storeu_pd(out.add(c), v);
                    idx = _mm256_add_pd(idx, four);
                }
            }
            KernelOp::SquaredDiff | KernelOp::WeightedSquaredDiff(_) => {
                let scale = match op {
                    KernelOp::WeightedSquaredDiff(w) => Some(_mm256_set1_pd(w[dim])),
                    _ => None,
                };
                let mut ilo = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
                let mut ihi = _mm256_setr_pd(1.0, 2.0, 3.0, 4.0);
                for c in (0..levels).step_by(4) {
                    let lo = _mm256_min_pd(_mm256_add_pd(vmin, _mm256_mul_pd(ilo, vw)), vmax);
                    let hi = _mm256_min_pd(_mm256_add_pd(vmin, _mm256_mul_pd(ihi, vw)), vmax);
                    let d = _mm256_sub_pd(_mm256_min_pd(_mm256_max_pd(vq, lo), hi), vq);
                    let v = match scale {
                        Some(s) => _mm256_mul_pd(_mm256_mul_pd(s, d), d),
                        None => _mm256_mul_pd(d, d),
                    };
                    _mm256_storeu_pd(out.add(c), v);
                    ilo = _mm256_add_pd(ilo, four);
                    ihi = _mm256_add_pd(ihi, four);
                }
            }
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
        float64x2_t, vaddq_f64, vdupq_n_f64, vld1q_f64, vminnmq_f64, vmulq_f64, vst1q_f64,
        vsubq_f64,
    };

    use bond_metrics::KernelOp;

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

    /// The one-lane sweep on every kernel against its scalar reference:
    /// both `init` modes, row counts on and off every unroll width, 1- to
    /// 8-bit codes, and code bytes past the level count, which every kernel
    /// masks.
    #[test]
    fn sweeps_are_bit_identical_across_kernels() {
        let mut seed = 0x0123_4567_89AB_CDEFu64;
        for bits in [1u32, 2, 4, 6, 8] {
            let levels = 1usize << bits;
            for rows in [0usize, 3, 4, 7, 16, 21, 203] {
                let columns: Vec<Vec<u8>> = (0..5)
                    .map(|_| (0..rows).map(|_| (xorshift(&mut seed) * 256.0) as u8).collect())
                    .collect();
                let columns: Vec<&[u8]> = columns.iter().map(Vec::as_slice).collect();
                let luts: Vec<f64> =
                    (0..5 * levels).map(|_| xorshift(&mut seed) * 2.0 - 1.0).collect();
                let start: Vec<f64> = (0..rows).map(|_| xorshift(&mut seed)).collect();
                for init in [false, true] {
                    let mut reference = start.clone();
                    sweep_lane(Kernel::Scalar, &columns, &luts, levels, &mut reference, init);
                    for kernel in supported() {
                        let mut acc = start.clone();
                        sweep_lane(kernel, &columns, &luts, levels, &mut acc, init);
                        let ctx = format!("{} bits {bits} rows {rows} init {init}", kernel.label());
                        assert_eq!(bits_of(&acc), bits_of(&reference), "{ctx}");
                    }
                }
            }
        }
    }

    /// The fused one-lane LUT build against the optimistic lane of the
    /// portable pair build, for every kernel op, grids wide and degenerate,
    /// queries inside, outside and on the grid's edges.
    #[test]
    fn fused_best_lut_is_the_optimistic_lane_of_the_pair_lut() {
        let weights: Vec<f64> = (0..4).map(|d| 0.5 + d as f64).collect();
        let wh = WeightedHistogramIntersection::new(weights.clone()).unwrap();
        let we = WeightedSquaredEuclidean::new(weights).unwrap();
        let metrics: Vec<&dyn DecomposableMetric> =
            vec![&HistogramIntersection, &SquaredEuclidean, &wh, &we];
        let mut fused = 0;
        for metric in metrics {
            let op = metric.kernel_op().unwrap();
            for bits in [1u8, 2, 4, 8] {
                for (min, max) in [(0.0, 1.0), (-0.3, 0.7), (0.25, 0.25)] {
                    let grid = CodeParams::new(min, max, bits).unwrap();
                    let levels = grid.levels() as usize;
                    for (dim, query) in [(0, 0.4), (1, -2.0), (2, 3.0), (3, min), (3, max)] {
                        let mut bounds = vec![(0.0, 0.0); levels];
                        grid.fill_cell_bounds(&mut bounds);
                        let mut pairs = vec![0.0; levels * 2];
                        metric.fill_contribution_pairs(dim, &bounds, query, &mut pairs);
                        let want: Vec<f64> = pairs.iter().copied().step_by(2).collect();
                        for kernel in supported() {
                            let mut best = vec![f64::NAN; levels];
                            if fill_best_lut(kernel, op, dim, grid, query, &mut best) {
                                let ctx =
                                    format!("{} {} bits {bits}", kernel.label(), metric.name());
                                assert_eq!(bits_of(&best), bits_of(&want), "{ctx} q {query}");
                                fused += 1;
                            }
                        }
                    }
                }
            }
        }
        if Kernel::Avx2.is_supported() {
            assert!(fused > 0, "no fused one-lane build ran");
        }
    }

    fn bits_of(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn out_of_range_codes_alias_instead_of_faulting() {
        // every kernel masks code bytes by `levels − 1`: codes beyond the
        // LUT stay in bounds and read the cell they alias
        let codes = vec![255u8; 37];
        let luts = [1.0, 2.0, 3.0, 4.0];
        for kernel in supported() {
            let mut acc = vec![0.0; 37];
            sweep_lane(kernel, &[&codes], &luts, 4, &mut acc, false);
            assert!(acc.iter().all(|&a| a == 4.0), "{}", kernel.label());
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
