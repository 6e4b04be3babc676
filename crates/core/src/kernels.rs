//! Runtime-dispatched, ISA-pinned scan kernels for the two hot loops.
//!
//! The BOND premise — vertical decomposition turns k-NN into dense
//! streaming scans — is only cashed in when the inner loops actually run
//! at hardware width. This module pins the two loops that matter to
//! explicit per-ISA implementations instead of leaving them to the
//! auto-vectorizer's mood:
//!
//! 1. **the quantized sweeps**: the code filter's one-sided sweep
//!    ([`sweep_codes`]) adds, per row, the 16-bit LUT entries a group of
//!    flat `&[u8]` code columns selects into an exact integer sum and turns
//!    it into the optimistic bound the filter prunes on; the interval sweep
//!    the VA-File reads ([`sweep_lane`]) adds
//!    full-precision `f64` entries, once per side of the interval, and
//! 2. **the exact accumulate**: `acc[i] += contribution(dim, value_i, q)`
//!    for the warmup/refine phases. The exact search's dense form
//!    ([`accumulate_block`]) sums a whole block of columns over contiguous
//!    rows, holding each row's score — and the scanned mass the `Hh`, `Ev`
//!    and `WEv` rules need, when asked — in registers across the block, so
//!    each cell is read once and each sum stored once; the first block
//!    starts the sums at zero itself, so nothing is zeroed beforehand. The
//!    gathered form ([`accumulate_gather`], over an explicit row list)
//!    goes a column at a time, and its fused form
//!    ([`accumulate_gather_with_mass`]) adds each gathered cell to the
//!    mass too. [`accumulate`] is the one-column dense form.
//!
//! A third primitive serves the pruning step the BOND loop runs between
//! blocks: the 64-row **survive mask** ([`survive_mask`]), one branch-free
//! bound test per row of a candidate-bitmap word, AND-ed into the word —
//! of stored bounds, or, in the exact search's bitmap steps, of a rule's
//! closed-form optimistic bound computed in the same registers from the
//! rows' partial scores and masses ([`tail_mask`]).
//!
//! One flavour is selected per process by [`Kernel::active`] —
//! `is_x86_feature_detected!("avx2")` on x86-64, NEON on aarch64, the
//! portable scalar loop everywhere else — and can be forced with the
//! `BOND_KERNEL=scalar|avx2|neon` environment variable for testing. Every
//! entry point also accepts an explicit [`Kernel`] (the code filter's sweep
//! an explicit [`CodeSweep`]) so tests and benches can compare flavours
//! inside one process regardless of the environment; an explicitly
//! requested flavour the host cannot run degrades to scalar instead of
//! faulting.
//!
//! **Bit-identity is the contract.** Each vector path performs, per row,
//! exactly the floating-point operations of the scalar reference in the
//! same order (rows are independent, so lane-parallelism does not reorder
//! any row's sum): `vminpd`/`vsubpd`/`vmulpd`/`vaddpd` are IEEE-exact per
//! lane and no FMA contraction is used (fusing `(v−q)·(v−q)` would change
//! rounding versus the scalar two-step). The only representable
//! divergences are NaN inputs and `(−0.0, +0.0)` min-ties, which decoded
//! table values never produce.
//!
//! **The code filter sweeps integers.** The PQ fast-scan trick (André,
//! Kermarrec & Le Scouarnec) holds small integer LUTs in registers and
//! looks them up with byte shuffles instead of memory gathers. The filter
//! only needs a bound on the optimistic side, not the `f64` sum itself, so
//! [`quantize_lut`] rounds each group's optimistic LUTs to 16-bit integers
//! on that side (one scale per group, one offset per column), and
//! [`sweep_codes`] sums them exactly as `u32` per row and then performs one
//! fixed sequence of `f64` operations — the same integers and the same
//! operations on every implementation, so every implementation is still
//! bit-identical to the scalar reference. With AVX-512 VBMI each column's
//! entries sit as a low-byte and a high-byte plane in registers and
//! `vpermi2b` looks up 64 rows at once; without it, `vpgatherdd` fetches
//! eight rows' entries per instruction. Each group costs one pass per
//! column before its sweep: [`fill_best_lut`] builds a column's `f64` LUT
//! and takes its range (smallest, largest, all finite) in the same
//! registers, and [`quantize_lut`] takes the scale from those ranges and
//! writes each column's 16-bit entries — and, for the byte permutes, both
//! byte planes — in one loop. Where the permutes run, AVX-512 F/BW hold, so
//! the build and the quantizer go eight `f64` lanes wide there; AVX2 hosts
//! go four. The sweeps ask for every column's codes
//! [`SWEEP_PREFETCH_ROWS`] rows ahead of the rows they sum. The exact
//! refine still decides every hit, so a looser bound costs survivors,
//! never answers. 8-bit
//! entries lose too much (the refine would read ~14× the rows); 16 bits
//! cost about 2 % more survivors than `f64`. The interval sweep keeps
//! full-precision LUTs: its bounds are reported as scores and error bounds.

use std::sync::OnceLock;

use bond_metrics::{CandidateState, KernelOp, Objective, OptimisticTail};
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
    /// `core::arch::x86_64` AVX2: the code filter's 16-bit sweep picks
    /// AVX-512 VBMI byte permutes where the host has them and 32-bit
    /// gathers elsewhere ([`CodeSweep::of`]); the `f64` interval sweep
    /// blocks up to [`MAX_SWEEP_GROUP`] dimensions per pass with the
    /// running bounds held in ymm registers and gathers four rows' LUT
    /// entries per instruction; the exact block accumulate holds 16 rows'
    /// sums in ymm registers across a block of columns, and the other exact
    /// kernels run 4 rows per 256-bit lane group.
    Avx2,
    /// `core::arch::aarch64` NEON: the exact kernels run 2 rows per
    /// 128-bit vector; both quantized sweeps run the scalar reference.
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
/// The block width follows the LUT footprint ([`code_group`]). The scalar
/// reference, which NEON runs too, sweeps one column at a time (group 1).
pub fn sweep_group(kernel: Kernel, levels: usize) -> usize {
    match kernel {
        Kernel::Avx2 => code_group(levels),
        Kernel::Scalar | Kernel::Neon => 1,
    }
}

/// One-lane, dimension-blocked `f64` sweep: for every row `i` and every
/// column `j` in order, `acc[i] += luts[j·levels + columns[j][i]]` — one
/// side of the interval [`crate::quantfilter::interval_scores_into`]
/// computes for the VA-File, up to
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

/// Columns one quantized LUT spans in the code filter's sweep
/// ([`quantize_lut`], [`sweep_codes`]), on every kernel — the group shares
/// one scale, so the group fixes the quantized bounds, and one group for
/// every kernel keeps the filter's bounds the same bits on every kernel —
/// and the AVX2 width of [`sweep_group`]. The width follows the LUT
/// footprint: at ≤ 16 levels (bits ≤ 4, the fast-scan regime) 32 tables
/// together are small, so the widest group wins; at 5–8 bits a 32-column
/// group would be 64 KiB of `f64` LUTs, so 8 columns (16 KiB,
/// L1-resident) go per group.
pub fn code_group(levels: usize) -> usize {
    if levels <= 16 {
        MAX_SWEEP_GROUP
    } else {
        8
    }
}

/// Largest quantized LUT entry: entries are `u16`.
const Q_MAX: f64 = 65_535.0;

/// The implementations of the code filter's quantized sweep
/// ([`sweep_codes`]) and of the quantizer feeding it ([`quantize_lut`]).
/// [`CodeSweep::of`] picks one per [`Kernel`]; tests and benches name one
/// directly to compare it with the scalar reference. An implementation the
/// host cannot run degrades to scalar instead of faulting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeSweep {
    /// The portable per-row loop — the reference every other
    /// implementation matches bit for bit. The scalar and NEON kernels run
    /// it.
    Scalar,
    /// AVX2 `vpgatherdd`: eight rows' 16-bit entries per gather, for x86
    /// hosts without AVX-512 VBMI.
    Gather,
    /// AVX-512 VBMI `vpermi2b`: each column's LUT as a low-byte and a
    /// high-byte plane held in registers, 64 rows per step, no gather.
    Permute,
}

impl CodeSweep {
    /// Every implementation, scalar first.
    pub const ALL: [CodeSweep; 3] = [CodeSweep::Scalar, CodeSweep::Gather, CodeSweep::Permute];

    /// The implementation `kernel` runs: the `avx2` flavour takes the byte
    /// permutes where AVX-512 VBMI and BW hold (with the F subset every
    /// AVX-512 part has) and the 32-bit gathers elsewhere; every other
    /// flavour takes the scalar reference.
    pub fn of(kernel: Kernel) -> CodeSweep {
        match kernel {
            Kernel::Avx2 if CodeSweep::Permute.is_supported() => CodeSweep::Permute,
            Kernel::Avx2 if CodeSweep::Gather.is_supported() => CodeSweep::Gather,
            _ => CodeSweep::Scalar,
        }
    }

    /// Whether this implementation can run on the current host.
    pub fn is_supported(self) -> bool {
        match self {
            CodeSweep::Scalar => true,
            CodeSweep::Gather => Kernel::Avx2.is_supported(),
            CodeSweep::Permute => {
                #[cfg(target_arch = "x86_64")]
                {
                    static VBMI: OnceLock<bool> = OnceLock::new();
                    // a table without planes falls back to the AVX2 gather
                    *VBMI.get_or_init(|| {
                        Kernel::Avx2.is_supported()
                            && std::arch::is_x86_feature_detected!("avx512f")
                            && std::arch::is_x86_feature_detected!("avx512bw")
                            && std::arch::is_x86_feature_detected!("avx512vbmi")
                    })
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
        }
    }

    /// The implementation's name, for test output.
    pub fn label(self) -> &'static str {
        match self {
            CodeSweep::Scalar => "scalar",
            CodeSweep::Gather => "gather",
            CodeSweep::Permute => "permute",
        }
    }
}

/// One group's optimistic `f64` LUTs quantized to 16-bit integers by
/// [`quantize_lut`]: per column `j` an offset `m_j`, its smallest entry;
/// one scale `s` for the group; and per cell an integer `q` with
/// `q·s + m_j` on the optimistic side of the cell's entry. A row's bound
/// over the group is [`QuantLut::value`] of its integer sum. Lives in the
/// filter's scratch and is refilled per group, so it allocates only while
/// it grows.
#[derive(Debug, Clone, Default)]
pub struct QuantLut {
    levels: usize,
    columns: usize,
    /// `columns × levels` entries, column-major, plus one slot of padding
    /// the 32-bit gathers read past the last entry.
    q: Vec<u16>,
    /// For [`CodeSweep::Permute`]: per column the entries' low bytes, then
    /// their high bytes, [`plane_len`] bytes each.
    planes: Vec<u8>,
    /// Whether `planes` holds this group's entries.
    has_planes: bool,
    scale: f64,
    offset: f64,
}

impl QuantLut {
    /// An empty table; it grows on first use.
    pub fn new() -> Self {
        QuantLut::default()
    }

    /// The quantized entries, `levels` per column, column-major.
    pub fn entries(&self) -> &[u16] {
        &self.q[..self.columns * self.levels]
    }

    /// Column `j`'s byte planes — its entries' low bytes and high bytes,
    /// `levels` each — when the table was quantized for
    /// [`CodeSweep::Permute`], `None` otherwise.
    pub fn planes(&self, j: usize) -> Option<(&[u8], &[u8])> {
        let plane = plane_len(self.levels);
        let column = self.planes.get(j * 2 * plane..(j + 1) * 2 * plane)?;
        let (low, high) = column.split_at(plane);
        self.has_planes.then(|| (&low[..self.levels], &high[..self.levels]))
    }

    /// The group's scale `s`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The sum of the columns' offsets, `Σ m_j` in column order from
    /// `0.0` — `∓∞` for a group that held a non-finite entry.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// The bound a row whose entries sum to `n` gets over the group:
    /// `f64(n)·s + Σ m_j`, the same two operations on every
    /// implementation.
    #[inline]
    pub fn value(&self, n: u32) -> f64 {
        f64::from(n) * self.scale + self.offset
    }
}

/// Bytes one byte plane of a column takes: the 128 bytes two `zmm`
/// registers hold, or 256 at 256 levels.
fn plane_len(levels: usize) -> usize {
    levels.max(128)
}

/// One LUT column's smallest and largest entry, and whether every entry is
/// finite: what [`quantize_lut`] needs of a column besides its entries.
/// [`fill_best_lut`] takes it in registers while it writes the column, so
/// no pass reads a column only to range it. `min` and `max` are exact only
/// when `finite` holds; the quantizer ignores them otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LutRange {
    /// The smallest entry.
    pub min: f64,
    /// The largest entry.
    pub max: f64,
    /// Whether no entry is `±∞` or NaN.
    pub finite: bool,
}

impl LutRange {
    /// The range of no entries.
    pub const EMPTY: LutRange =
        LutRange { min: f64::INFINITY, max: f64::NEG_INFINITY, finite: true };

    /// This range with entry `e` taken in.
    #[inline]
    pub fn with(self, e: f64) -> LutRange {
        LutRange {
            min: if e < self.min { e } else { self.min },
            max: if e > self.max { e } else { self.max },
            finite: self.finite & e.is_finite(),
        }
    }

    /// The range of both ranges' entries.
    #[inline]
    fn merge(self, other: LutRange) -> LutRange {
        LutRange {
            min: if other.min < self.min { other.min } else { self.min },
            max: if other.max > self.max { other.max } else { self.max },
            finite: self.finite & other.finite,
        }
    }
}

/// Quantizes one group's optimistic `f64` LUTs (`luts[j·levels + c]`, at
/// most [`MAX_SWEEP_GROUP`] columns, with `ranges[j]` column `j`'s range as
/// [`fill_best_lut`] returns it) into `out`, for the objective the entries
/// serve:
///
/// - column `j`'s offset `m_j` is its smallest entry; the group's scale is
///   `s = max_j(max_j − m_j) / 65535`, raised by one ulp when `65535·s`
///   falls short of that span and floored at [`f64::MIN_POSITIVE`];
/// - an entry `e` becomes `q = ⌊(e − m_j)·(1/s)⌋` under `Minimize` or
///   `⌈…⌉` under `Maximize`; when `q·s` then lies on the pessimistic side
///   of `e − m_j` (the reciprocal can round across an integer), `q` steps
///   once more, and it is clamped to `[0, 65535]`;
/// - a group holding a non-finite entry, or whose largest bound would
///   overflow, gets a vacuous bound instead: every `q` is zero, `s` is zero
///   and the offset is `−∞` under `Minimize`, `+∞` under `Maximize`, so
///   every row keeps.
///
/// A zero span gives `s = 0` and all-zero entries: the bound is exact.
/// The ranges give the scale before any entry is read, so each column is
/// read once: `sweep` picks the implementation — eight `f64` lanes for
/// [`CodeSweep::Permute`], which also writes the byte planes in the same
/// loop, four for [`CodeSweep::Gather`] — and every implementation gives
/// the same entries, scale and offset.
///
/// # Panics
/// Panics unless `levels` is a power of two of at most 256, `luts` holds
/// between one and [`MAX_SWEEP_GROUP`] whole columns and `ranges` one
/// range per column. Ranges that are not the columns' own give a bound
/// that may not be optimistic (debug builds check them).
pub fn quantize_lut(
    sweep: CodeSweep,
    objective: Objective,
    luts: &[f64],
    ranges: &[LutRange],
    levels: usize,
    out: &mut QuantLut,
) {
    assert!(
        levels.is_power_of_two() && levels <= 256,
        "quantize_lut: levels must be a power of two of at most 256"
    );
    let columns = luts.len() / levels;
    assert!(
        columns * levels == luts.len() && (1..=MAX_SWEEP_GROUP).contains(&columns),
        "quantize_lut: the LUTs must be 1 to MAX_SWEEP_GROUP whole columns"
    );
    assert_eq!(ranges.len(), columns, "quantize_lut: one range per column");
    debug_assert!(
        luts.chunks_exact(levels).zip(ranges).all(|(lut, range)| {
            let own = lut.iter().fold(LutRange::EMPTY, |r, &e| r.with(e));
            own.finite == range.finite
                && (!own.finite || (own.min == range.min && own.max == range.max))
        }),
        "quantize_lut: a range is not its column's"
    );
    let sweep = if sweep.is_supported() { sweep } else { CodeSweep::Scalar };
    let up = objective == Objective::Maximize;
    out.levels = levels;
    out.columns = columns;
    out.q.resize(columns * levels + 1, 0);
    out.has_planes = sweep == CodeSweep::Permute;
    if out.has_planes {
        out.planes.resize(columns * 2 * plane_len(levels), 0);
    }
    let mut span = 0.0f64;
    let mut finite = true;
    for range in ranges {
        finite &= range.finite;
        if range.max - range.min > span {
            span = range.max - range.min;
        }
    }
    let offset = ranges.iter().fold(0.0, |sum, range| sum + range.min);
    let mut scale = span / Q_MAX;
    if scale * Q_MAX < span {
        scale = f64::from_bits(scale.to_bits() + 1);
    }
    let scale = if span > 0.0 { scale.max(f64::MIN_POSITIVE) } else { 0.0 };
    let top = (columns as f64 * Q_MAX) * scale + offset;
    if !finite || !top.is_finite() {
        out.q.fill(0);
        out.planes.fill(0);
        (out.scale, out.offset) = (0.0, if up { f64::INFINITY } else { f64::NEG_INFINITY });
        return;
    }
    (out.scale, out.offset) = (scale, offset);
    let grid = QuantGrid { scale, inv: if scale > 0.0 { 1.0 / scale } else { 0.0 }, up };
    let plane = 2 * plane_len(levels);
    for ((j, lut), range) in luts.chunks_exact(levels).enumerate().zip(ranges) {
        let q = &mut out.q[j * levels..(j + 1) * levels];
        let planes = out.planes.get_mut(j * plane..(j + 1) * plane).filter(|_| out.has_planes);
        quantize_column(sweep, grid, range.min, lut, q, planes);
    }
}

/// Quantizes one column (offset `m`) into `q` — and for
/// [`CodeSweep::Permute`], which passes the column's byte `planes`, into
/// those in the same loop. `sweep` must be supported.
fn quantize_column(
    sweep: CodeSweep,
    grid: QuantGrid,
    m: f64,
    lut: &[f64],
    q: &mut [u16],
    planes: Option<&mut [u8]>,
) {
    match (sweep, planes) {
        #[cfg(target_arch = "x86_64")]
        (CodeSweep::Permute, Some(planes)) => {
            // SAFETY: `sweep` is supported, so AVX-512 F/BW hold; `q` is as
            // long as the column and `planes` holds its two planes of
            // `plane_len(levels) ≥ levels` bytes.
            unsafe { x86::quantize_column_avx512(grid, m, lut, q, planes) }
        }
        #[cfg(target_arch = "x86_64")]
        (CodeSweep::Gather, _) if lut.len() >= 4 => {
            // SAFETY: `sweep` is supported, so AVX2 holds; the four-entry
            // steps tile a power-of-two column of at least four entries and
            // `q` is as long as the column.
            unsafe { x86::quantize_column_avx2(grid, m, lut, q) }
        }
        _ => {
            for (q, &e) in q.iter_mut().zip(lut) {
                *q = grid.quantize(e - m);
            }
        }
    }
}

/// The per-entry constants of [`quantize_lut`]'s pass.
#[derive(Debug, Clone, Copy)]
struct QuantGrid {
    scale: f64,
    /// `1/s`, or `0.0` for a zero scale (every entry then quantizes to 0).
    inv: f64,
    /// `Maximize`: round up.
    up: bool,
}

impl QuantGrid {
    /// One entry, `x = e − m` (never negative): the scalar reference of
    /// every quantizer. `r = x·(1/s)` lies in `[0, 2¹⁷)`, so adding and
    /// subtracting 2⁵² rounds it to the nearest integer exactly, and one
    /// compare turns that into its floor or ceiling; the result's `u16` is
    /// the low bits of `q + 2⁵²`. Plain `f64` arithmetic and compares, so
    /// the column loop vectorizes on any baseline — `f64::floor` lowers to a
    /// library call on baseline x86-64, and a saturating `as` conversion
    /// keeps the loop scalar.
    #[inline]
    fn quantize(self, x: f64) -> u16 {
        let r = x * self.inv;
        let t = (r + MAGIC) - MAGIC;
        let q = if self.up {
            let q = t + if t < r { 1.0 } else { 0.0 };
            q + if q * self.scale < x { 1.0 } else { 0.0 }
        } else {
            let q = t - if t > r { 1.0 } else { 0.0 };
            q - if q * self.scale > x { 1.0 } else { 0.0 }
        };
        let q = if q < Q_MAX { q } else { Q_MAX };
        (q + MAGIC).to_bits() as u16
    }
}

/// 2⁵²: an `f64` at or above it has no fractional bits.
const MAGIC: f64 = 4_503_599_627_370_496.0;

/// How many rows ahead of the rows it sums each vector implementation of
/// [`sweep_codes`] asks for every column's codes with a prefetch hint: one
/// cache line per column per 64 rows. A group streams eight code columns
/// (32 at ≤ 16 levels) at once, and the swept runs skip the words pruning
/// emptied, more streams and more breaks than the hardware prefetcher
/// follows well. In an in-process sweep over the benchmark's `scan_large`
/// collection (600 member queries, distances alternated every 200 queries
/// over 40 rounds, a 2-vCPU AVX-512 Xeon VM), the permute sweep's engine
/// query took 405–421 µs with no prefetch, 363–371 µs at 128 rows,
/// 361–367 µs at 256, 368–381 µs at 512 and 392–405 µs at 1 024; the
/// gather sweep 487 µs with none and 432–437 µs at 128 and 256.
pub const SWEEP_PREFETCH_ROWS: usize = 256;

/// The code filter's one-sided sweep over one group of columns and one
/// run of rows: per row `i`, `n = Σ_j q_j[columns[j][i] & (levels − 1)]`
/// as an exact `u32`, then `acc[i] = base + lut.value(n)`, where `base` is
/// `acc[i]`, or `0.0` with `init`. Every implementation performs exactly
/// these operations, so each is bit-identical to the scalar reference; a
/// malformed code aliases a valid cell. `lut` must come from
/// [`quantize_lut`] for these columns — with `sweep` itself when `sweep` is
/// [`CodeSweep::Permute`], which reads the byte planes.
///
/// # Panics
/// Panics unless `lut` was quantized for `columns.len()` (at least one)
/// columns and every column holds `acc.len()` codes.
pub fn sweep_codes(
    sweep: CodeSweep,
    columns: &[&[u8]],
    lut: &QuantLut,
    acc: &mut [f64],
    init: bool,
) {
    assert!(
        !columns.is_empty() && columns.len() == lut.columns,
        "sweep_codes: the LUT must be quantized for these columns"
    );
    for column in columns {
        assert_eq!(column.len(), acc.len(), "sweep_codes: column and accumulator disagree");
    }
    match sweep {
        #[cfg(target_arch = "x86_64")]
        CodeSweep::Permute if lut.has_planes && CodeSweep::Permute.is_supported() => {
            // SAFETY: AVX-512 F/BW/VBMI hold, the planes were laid out
            // for this group, and every column holds `acc.len()` codes
            // (asserted above); codes are masked to `levels − 1`.
            unsafe { x86::sweep_codes_permute(columns, lut, acc, init) }
        }
        #[cfg(target_arch = "x86_64")]
        CodeSweep::Gather | CodeSweep::Permute if CodeSweep::Gather.is_supported() => {
            // SAFETY: AVX2 holds, the entries carry their padding slot,
            // and every column holds `acc.len()` codes (asserted above);
            // codes are masked to `levels − 1`.
            unsafe { x86::sweep_codes_gather(columns, lut, acc, init) }
        }
        _ => sweep_codes_scalar(columns, lut, acc, init, 0),
    }
}

/// The portable quantized sweep — the bit-identity reference: per row from
/// row `from` on, the integer sum over the group's columns, then one bound.
/// Rows go 256 at a time, column by column into a stack of `u32` sums, so
/// each column streams like the `f64` sweep does. The vector
/// implementations finish their tails with it.
fn sweep_codes_scalar(columns: &[&[u8]], lut: &QuantLut, acc: &mut [f64], init: bool, from: usize) {
    let levels = lut.levels;
    let m = levels - 1;
    let mut sums = [0u32; 256];
    let mut start = from;
    while start < acc.len() {
        let rows = start..acc.len().min(start + sums.len());
        let sums = &mut sums[..rows.len()];
        sums.fill(0);
        for (column, q) in columns.iter().zip(lut.q.chunks_exact(levels)) {
            // `code & m ≤ m`: a malformed code aliases a valid cell
            let q = &q[..=m];
            for (n, &code) in sums.iter_mut().zip(&column[rows.clone()]) {
                *n += u32::from(q[usize::from(code) & m]);
            }
        }
        for (a, &n) in acc[rows.clone()].iter_mut().zip(sums.iter()) {
            let base = if init { 0.0 } else { *a };
            *a = base + lut.value(n);
        }
        start = rows.end;
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

/// The survive mask of up to [`MASK_ROWS`] rows whose bound is a rule's
/// closed-form optimistic bound: bit `i` is set iff
/// `tail.bound(partial[i], scanned[i], total[i])` passes `test`
/// ([`OptimisticTail::bound`], [`SurviveTest::survives`]); bits past the
/// last row are clear. The pruning pass of the exact search's bitmap steps
/// tests a word straight from the partial scores and masses with it, so
/// no bound is stored.
///
/// Bit-identical on every kernel: each lane performs the scalar tail's
/// operations in its order — `maxNum(T(x) − T(x⁻), 0)`, then the form's
/// `minNum`, subtraction, multiplication, division and addition — and then
/// [`survive_mask`]'s test. AVX2 bounds four rows per instruction; NEON
/// takes the scalar reference.
///
/// # Panics
/// Panics unless `partial` holds at most [`MASK_ROWS`] rows and both mass
/// slices as many (zeros stand for masses a rule does not keep).
pub fn tail_mask(
    kernel: Kernel,
    tail: OptimisticTail,
    test: SurviveTest,
    partial: &[f64],
    scanned: &[f64],
    total: &[f64],
) -> u64 {
    let rows = partial.len();
    assert!(rows <= MASK_ROWS, "tail_mask: at most 64 rows");
    assert!(scanned.len() == rows && total.len() == rows, "tail_mask: a mass per row");
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 if Kernel::Avx2.is_supported() => {
            // SAFETY: AVX2 availability, a row count of at most 64 and
            // equal slice lengths were just checked.
            unsafe { x86::tail_mask_avx2(tail, test, partial, scanned, total) }
        }
        _ => tail_mask_scalar(tail, test, partial, scanned, total),
    }
}

/// The portable tail mask — the bit-identity reference.
fn tail_mask_scalar(
    tail: OptimisticTail,
    test: SurviveTest,
    partial: &[f64],
    scanned: &[f64],
    total: &[f64],
) -> u64 {
    let mut mask = 0u64;
    for (i, ((&partial, &scanned_mass), &total_mass)) in
        partial.iter().zip(scanned).zip(total).enumerate()
    {
        let bound = tail.bound(&CandidateState { partial, scanned_mass, total_mass });
        mask |= u64::from(test.survives(bound)) << i;
    }
    mask
}

/// [`tail_mask`] for the rows set in `rows` only, one row at a time: the
/// mask of the set rows whose bound passes `test` — for a word too thin to
/// pay for a whole-word mask. The form is matched once, not per row, and
/// each row's bound is [`OptimisticTail::bound`]'s.
pub fn tail_bits(
    tail: OptimisticTail,
    test: SurviveTest,
    rows: u64,
    partial: &[f64],
    scanned: &[f64],
    total: &[f64],
) -> u64 {
    let state = |i: usize| CandidateState {
        partial: partial[i],
        scanned_mass: scanned[i],
        total_mass: total[i],
    };
    // one loop per form, the form a constant inside it
    macro_rules! bits {
        ($form:expr) => {{
            let form = $form;
            let mut mask = 0u64;
            let mut left = rows;
            while left != 0 {
                let i = left.trailing_zeros() as usize;
                left &= left - 1;
                mask |= u64::from(test.survives(form.bound(&state(i)))) << i;
            }
            mask
        }};
    }
    match tail {
        OptimisticTail::Partial => bits!(OptimisticTail::Partial),
        OptimisticTail::AddConst(c) => bits!(OptimisticTail::AddConst(c)),
        OptimisticTail::AddMassCapped(cap) => bits!(OptimisticTail::AddMassCapped(cap)),
        OptimisticTail::AddSquaredGap { target, divisor } => {
            bits!(OptimisticTail::AddSquaredGap { target, divisor })
        }
    }
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
/// for cell `c`) for the quantized sweep `sweep` and returns its range, taken
/// in registers as the entries are written, so the quantizer
/// ([`quantize_lut`]) reads each entry once and no pass reads the column
/// only to range it. The entries are the optimistic lane of
/// [`fill_pair_lut`], by the same IEEE operations per cell (edge
/// `min + c·width` clamped to `max`, then the op's best-contribution
/// formula), so the same bits as the metric's portable pair build — at half
/// its work, since the pessimistic lane is not computed. Every `KernelOp`
/// has a body per implementation: eight `f64` lanes for
/// [`CodeSweep::Permute`] (AVX-512 F holds wherever it runs), four for
/// [`CodeSweep::Gather`] at four levels or more, and the portable loop
/// otherwise.
pub fn fill_best_lut(
    sweep: CodeSweep,
    op: KernelOp<'_>,
    dim: usize,
    grid: CodeParams,
    query: f64,
    best: &mut [f64],
) -> LutRange {
    let levels = grid.levels() as usize;
    assert_eq!(best.len(), levels, "fill_best_lut: LUT storage is not one entry per level");
    match sweep {
        #[cfg(target_arch = "x86_64")]
        CodeSweep::Permute if CodeSweep::Permute.is_supported() => {
            // SAFETY: AVX-512 F holds with the permute sweep, and the LUT
            // slice holds exactly `levels` slots; the eight-cell steps are
            // masked to the cells below `levels`.
            unsafe { x86::fill_best_lut_avx512(op, dim, grid, query, best) }
        }
        #[cfg(target_arch = "x86_64")]
        CodeSweep::Gather | CodeSweep::Permute if Kernel::Avx2.is_supported() && levels >= 4 => {
            // SAFETY: AVX2 availability was just checked and the LUT slice
            // holds exactly `levels` slots; `levels` is a power of two of at
            // least 4, so the four-cell vector steps tile it exactly.
            unsafe { x86::fill_best_lut_avx2(op, dim, grid, query, best) }
        }
        _ => fill_best_lut_scalar(op, dim, grid, query, best),
    }
}

/// The portable one-lane LUT build, [`fill_best_lut`]'s reference body: the
/// vector bodies' operations per cell, with their `vminpd`/`vmaxpd` written
/// as the compare-selects those perform (the first operand only when it is
/// strictly smaller, or larger). The range goes in four independent lanes,
/// so its compares do not form one chain.
fn fill_best_lut_scalar(
    op: KernelOp<'_>,
    dim: usize,
    grid: CodeParams,
    q: f64,
    best: &mut [f64],
) -> LutRange {
    let min = |a: f64, b: f64| if a < b { a } else { b };
    let max = |a: f64, b: f64| if a > b { a } else { b };
    let width = grid.cell_width();
    let edge = |c: usize| min(grid.min + c as f64 * width, grid.max);
    let gap = |c: usize| min(max(q, edge(c)), edge(c + 1)) - q;
    match op {
        KernelOp::Min => fill_lanes(best, |c| min(edge(c + 1), q)),
        KernelOp::WeightedMin(w) => {
            let w = w[dim];
            fill_lanes(best, |c| w * min(edge(c + 1), q))
        }
        KernelOp::SquaredDiff => fill_lanes(best, |c| gap(c) * gap(c)),
        KernelOp::WeightedSquaredDiff(w) => {
            let w = w[dim];
            fill_lanes(best, |c| w * gap(c) * gap(c))
        }
    }
}

/// Writes `best[c] = cell(c)` for every cell and returns the entries'
/// range, taken in four independent lanes.
#[inline(always)]
fn fill_lanes(best: &mut [f64], cell: impl Fn(usize) -> f64) -> LutRange {
    let mut lanes = [LutRange::EMPTY; 4];
    for (c, e) in best.iter_mut().enumerate() {
        *e = cell(c);
        lanes[c % 4] = lanes[c % 4].with(*e);
    }
    lanes.into_iter().fold(LutRange::EMPTY, LutRange::merge)
}

/// Dense exact accumulate of one column: `acc[i] += op(dim, values[i],
/// query)` for every row `i` — a one-column [`accumulate_block`]. `values`
/// and `acc` must be the same length. The exact search sums whole blocks of
/// columns with [`accumulate_block`] directly.
pub fn accumulate(
    kernel: Kernel,
    op: KernelOp<'_>,
    dim: usize,
    values: &[f64],
    query: f64,
    acc: &mut [f64],
) {
    accumulate_block(kernel, op, &[dim], &[values], &[query], acc, None, false);
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

/// How many rows ahead of the rows it sums [`accumulate_block`]'s AVX2
/// body asks for each column's cells with a prefetch. A block streams one
/// column per dimension at once, more streams than the hardware prefetcher
/// follows well. In a cycle-counter probe of the benchmark's `serve_small`
/// exact search (8-column blocks over 2 500-row segments, a 2-vCPU
/// AVX-512 Xeon VM), 64 rows (eight cache lines) measured best of 32, 64,
/// 128, 256 and 512, though within run noise of all of them, and took a
/// block from 10.3–12.3 µs with no prefetch to 8.2–8.9 µs.
pub const DENSE_PREFETCH_ROWS: usize = 64;

/// Dense exact accumulate over a block of columns: for every row `i` and
/// every column `j` in order, `acc[i] += op(dims[j], columns[j][i],
/// queries[j])`, and with `mass`, `mass[i] += columns[j][i]` — the scanned
/// mass `T(x⁻)` the `Hh`, `Ev` and `WEv` rules bound with. With `init` the
/// prior contents of `acc` (and `mass`) are ignored: every sum starts from
/// `+0.0` and is *added* to (`0.0 + c`, the operation a zeroed accumulator
/// performs, so a `−0.0` first contribution gives `+0.0` as it would
/// there), which lets the first block a search sweeps replace zeroing its
/// accumulators.
///
/// Per row this is one `f64` addition per (row, column) in column order,
/// on every kernel, so each is bit-identical to the scalar reference and
/// to [`accumulate`] called column by column. The AVX2 body holds 16
/// rows' scores — and their masses — in registers across all the columns,
/// loads each cell once, stores each sum once and prefetches every column
/// [`DENSE_PREFETCH_ROWS`] rows ahead; NEON and the scalar reference go a
/// column at a time.
///
/// # Panics
/// Panics unless `dims`, `columns` and `queries` have the same length and
/// every column and `mass` hold `acc.len()` rows.
#[allow(clippy::too_many_arguments)]
pub fn accumulate_block(
    kernel: Kernel,
    op: KernelOp<'_>,
    dims: &[usize],
    columns: &[&[f64]],
    queries: &[f64],
    acc: &mut [f64],
    mass: Option<&mut [f64]>,
    init: bool,
) {
    assert!(
        dims.len() == columns.len() && queries.len() == columns.len(),
        "accumulate_block: dims, columns and queries disagree"
    );
    for column in columns {
        assert_eq!(column.len(), acc.len(), "accumulate_block: column and accumulator disagree");
    }
    if let Some(mass) = mass.as_deref() {
        assert_eq!(mass.len(), acc.len(), "accumulate_block: mass and accumulator disagree");
    }
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 if Kernel::Avx2.is_supported() => {
            // SAFETY: AVX2 availability was just checked; every slice
            // length is asserted above.
            unsafe { x86::accumulate_block_avx2(op, dims, columns, queries, acc, mass, init) }
        }
        #[cfg(target_arch = "aarch64")]
        Kernel::Neon => {
            let mut mass = mass;
            if init {
                acc.fill(0.0);
                if let Some(mass) = mass.as_deref_mut() {
                    mass.fill(0.0);
                }
            }
            for ((&dim, column), &query) in dims.iter().zip(columns).zip(queries) {
                neon::accumulate_neon(op, dim, column, query, acc);
                if let Some(mass) = mass.as_deref_mut() {
                    for (m, &v) in mass.iter_mut().zip(column.iter()) {
                        *m += v;
                    }
                }
            }
        }
        _ => accumulate_block_scalar(op, dims, columns, queries, acc, mass, init),
    }
}

/// Gathered exact accumulate with the scanned mass, in one gather per
/// cell: `acc[i] += op(dim, values[rows[i]], query)` and
/// `mass[i] += values[rows[i]]` for every list position `i` — per position
/// [`accumulate_gather`]'s add and the plain mass add. `rows`, `acc` and
/// `mass` must be the same length and every row id must index into
/// `values`.
#[allow(clippy::too_many_arguments)]
pub fn accumulate_gather_with_mass(
    kernel: Kernel,
    op: KernelOp<'_>,
    dim: usize,
    values: &[f64],
    rows: &[RowId],
    query: f64,
    acc: &mut [f64],
    mass: &mut [f64],
) {
    assert_eq!(rows.len(), acc.len(), "accumulate_gather_with_mass: rows and accumulator disagree");
    assert_eq!(rows.len(), mass.len(), "accumulate_gather_with_mass: rows and mass disagree");
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2
            if Kernel::Avx2.is_supported()
                && values.len() <= i32::MAX as usize
                && rows.iter().all(|&r| (r as usize) < values.len()) =>
        {
            // SAFETY: AVX2 availability, in-bounds row ids and a column
            // short enough for 32-bit gather indices were all just
            // checked; rows/acc/mass length equality is asserted above.
            unsafe {
                x86::accumulate_gather_with_mass_avx2(op, dim, values, rows, query, acc, mass)
            }
        }
        _ => accumulate_gather_with_mass_scalar(op, dim, values, rows, query, acc, mass),
    }
}

/// How many dimensions ahead, in sweep order, the scattered-read paths —
/// the κ probe's code lookups and the gathered exact accumulate — ask for
/// their rows' cells with [`prefetch`]. Each of those cells sits on its own
/// cache line in its own column, so without the hint every one is an
/// exposed miss; six dimensions ahead keeps that many dimensions' worth
/// of the rows' misses in flight while the current one is computed. On
/// the benchmark's `scan_large`, 4, 6 and 8 measured the same within run
/// noise.
pub(crate) const PREFETCH_DIMS: usize = 6;

/// Asks the cache hierarchy to start loading the line holding
/// `column[row]`, and returns at once: a hint, which reads nothing into the
/// program and never faults. The address is formed with `wrapping_add`, so
/// even a `row` past the end creates no out-of-range pointer (the hint is
/// then merely wasted). `_mm_prefetch` on x86-64; nothing on other targets.
#[inline(always)]
pub(crate) fn prefetch<T>(column: &[T], row: usize) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE is baseline on x86-64, and a prefetch neither
    // dereferences its address nor faults on it, whatever it points to.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(column.as_ptr().wrapping_add(row).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (column, row);
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

/// The portable block accumulate — the bit-identity reference: one column
/// at a time over every row, score and mass in the same pass.
fn accumulate_block_scalar(
    op: KernelOp<'_>,
    dims: &[usize],
    columns: &[&[f64]],
    queries: &[f64],
    acc: &mut [f64],
    mut mass: Option<&mut [f64]>,
    init: bool,
) {
    if init {
        acc.fill(0.0);
        if let Some(mass) = mass.as_deref_mut() {
            mass.fill(0.0);
        }
    }
    for ((&dim, column), &query) in dims.iter().zip(columns).zip(queries) {
        match mass.as_deref_mut() {
            Some(mass) => accumulate_with_mass_scalar(op, dim, column, query, acc, mass),
            None => accumulate_scalar(op, dim, column, query, acc),
        }
    }
}

/// One column of [`accumulate_block_scalar`] with the mass. A function of
/// its own, as [`accumulate_scalar`] is: the same loop written inline in
/// the block's column loop measured about 45 % slower under
/// `BOND_KERNEL=scalar` (49 → 71 µs per 8-column block of 2 500 rows on
/// the benchmark's `serve_small`).
fn accumulate_with_mass_scalar(
    op: KernelOp<'_>,
    dim: usize,
    values: &[f64],
    query: f64,
    acc: &mut [f64],
    mass: &mut [f64],
) {
    for ((a, m), &v) in acc.iter_mut().zip(mass.iter_mut()).zip(values) {
        *a += op.apply(dim, v, query);
        *m += v;
    }
}

/// The portable fused gathered accumulate — the bit-identity reference.
fn accumulate_gather_with_mass_scalar(
    op: KernelOp<'_>,
    dim: usize,
    values: &[f64],
    rows: &[RowId],
    query: f64,
    acc: &mut [f64],
    mass: &mut [f64],
) {
    for ((a, m), &r) in acc.iter_mut().zip(mass.iter_mut()).zip(rows) {
        let v = values[r as usize];
        *a += op.apply(dim, v, query);
        *m += v;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m128i, __m256d, __m256i, __m512d, __m512i, _mm256_add_epi32, _mm256_add_pd,
        _mm256_and_pd, _mm256_and_si256, _mm256_blend_pd, _mm256_castsi256_si128, _mm256_ceil_pd,
        _mm256_cmp_pd, _mm256_cvtepi32_pd, _mm256_cvtepu8_epi32, _mm256_cvttpd_epi32,
        _mm256_div_pd, _mm256_extracti128_si256, _mm256_floor_pd, _mm256_i32gather_epi32,
        _mm256_i32gather_pd, _mm256_loadu_pd, _mm256_max_pd, _mm256_min_pd, _mm256_movemask_pd,
        _mm256_mul_pd, _mm256_or_pd, _mm256_set1_epi32, _mm256_set1_pd, _mm256_setr_pd,
        _mm256_setzero_pd, _mm256_setzero_si256, _mm256_storeu_pd, _mm256_sub_pd, _mm512_add_epi16,
        _mm512_add_epi32, _mm512_add_pd, _mm512_and_si512, _mm512_castsi256_si512,
        _mm512_castsi512_si256, _mm512_cmp_pd_mask, _mm512_cvtepi32_pd, _mm512_cvtepu16_epi32,
        _mm512_cvttpd_epi32, _mm512_extracti64x4_epi64, _mm512_inserti64x4, _mm512_loadu_si512,
        _mm512_mask_add_pd, _mm512_mask_blend_epi8, _mm512_mask_cmp_pd_mask,
        _mm512_mask_cvtepi32_storeu_epi16, _mm512_mask_cvtepi32_storeu_epi8, _mm512_mask_max_pd,
        _mm512_mask_min_pd, _mm512_mask_storeu_pd, _mm512_mask_sub_pd, _mm512_maskz_loadu_epi8,
        _mm512_maskz_loadu_pd, _mm512_max_pd, _mm512_min_pd, _mm512_movepi8_mask, _mm512_mul_pd,
        _mm512_permutex2var_epi32, _mm512_permutex2var_epi8, _mm512_reduce_max_pd,
        _mm512_reduce_min_pd, _mm512_roundscale_pd, _mm512_set1_epi16, _mm512_set1_epi8,
        _mm512_set1_pd, _mm512_setr_epi32, _mm512_setr_pd, _mm512_setzero_pd, _mm512_setzero_si512,
        _mm512_slli_epi32, _mm512_srli_epi16, _mm512_srli_epi32, _mm512_sub_pd, _mm_and_si128,
        _mm_cvtepu8_epi32, _mm_cvtsi32_si128, _mm_loadu_si128, _mm_packus_epi32, _mm_prefetch,
        _mm_set1_epi8, _mm_srli_si128, _mm_storel_epi64, _mm_storeu_si128, _CMP_GT_OQ, _CMP_LT_OQ,
        _CMP_UNORD_Q, _MM_FROUND_NO_EXC, _MM_FROUND_TO_NEG_INF, _MM_FROUND_TO_POS_INF, _MM_HINT_T0,
    };
    use std::ptr;

    use bond_metrics::{CandidateState, KernelOp, OptimisticTail};
    use vdstore::{CodeParams, RowId};

    use super::{
        plane_len, prefetch, sweep_codes_scalar, LutRange, QuantGrid, QuantLut, SurviveTest,
        DENSE_PREFETCH_ROWS, Q_MAX, SWEEP_PREFETCH_ROWS,
    };

    /// [`QuantGrid::quantize`] over one column ([`quantize_quad`]), eight
    /// entries per step — four at four levels.
    ///
    /// # Safety
    /// Caller guarantees AVX2, a power-of-two column length of at least 4
    /// and `q.len() == lut.len()`.
    // SAFETY: dispatched from `quantize_lut` only for the gather sweep on
    // AVX2 hosts and columns of at least four power-of-two entries, so
    // the eight-entry steps tile any longer one; `q` is the column's slice
    // of the entries.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_column_avx2(grid: QuantGrid, m: f64, lut: &[f64], q: &mut [u16]) {
        let (p, out) = (lut.as_ptr(), q.as_mut_ptr());
        if lut.len() < 8 {
            let v = quantize_quad(grid, _mm256_sub_pd(_mm256_loadu_pd(p), _mm256_set1_pd(m)));
            _mm_storel_epi64(out.cast(), _mm_packus_epi32(v, v));
            return;
        }
        let vm = _mm256_set1_pd(m);
        for c in (0..lut.len()).step_by(8) {
            let a = quantize_quad(grid, _mm256_sub_pd(_mm256_loadu_pd(p.add(c)), vm));
            let b = quantize_quad(grid, _mm256_sub_pd(_mm256_loadu_pd(p.add(c + 4)), vm));
            _mm_storeu_si128(out.add(c).cast(), _mm_packus_epi32(a, b));
        }
    }

    /// [`QuantGrid::quantize`] of four entries, as `i32` lanes: the
    /// reference's floor or ceiling taken with `vroundpd` (equal to its
    /// round-and-compare for the ratios it meets), the same steps added as
    /// masked `1.0`s, and the same clamp.
    ///
    /// # Safety
    /// Caller guarantees AVX2.
    // SAFETY: pure register arithmetic.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn quantize_quad(grid: QuantGrid, x: __m256d) -> __m128i {
        let (inv, s) = (_mm256_set1_pd(grid.inv), _mm256_set1_pd(grid.scale));
        let one = _mm256_set1_pd(1.0);
        let r = _mm256_mul_pd(x, inv);
        let v = if grid.up {
            let v = _mm256_ceil_pd(r);
            let short = _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_mul_pd(v, s), x);
            _mm256_add_pd(v, _mm256_and_pd(short, one))
        } else {
            let v = _mm256_floor_pd(r);
            let over = _mm256_cmp_pd::<_CMP_GT_OQ>(_mm256_mul_pd(v, s), x);
            _mm256_sub_pd(v, _mm256_and_pd(over, one))
        };
        _mm256_cvttpd_epi32(_mm256_min_pd(v, _mm256_set1_pd(Q_MAX)))
    }

    /// [`QuantGrid::quantize`] over one column with eight `f64` lanes
    /// ([`quantize_eight`]), sixteen entries per step, each step's entries
    /// stored as `u16`s and, in the same step, as their low bytes and high
    /// bytes into the column's two planes. Steps past the column's end are
    /// masked: nothing beyond `levels` entries is read or written.
    ///
    /// # Safety
    /// Caller guarantees AVX-512 F, `q.len() == lut.len()` and `planes`
    /// holding two planes of at least `lut.len()` bytes each.
    // SAFETY: dispatched from `quantize_lut` only for the permute sweep,
    // which runs only where AVX-512 F/BW hold; every load and store is
    // masked to the entries below `lut.len()`, and the second half's
    // address, when the column has fewer than nine entries, is formed with
    // `wrapping_add` under an all-zero mask, which reads nothing.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn quantize_column_avx512(
        grid: QuantGrid,
        m: f64,
        lut: &[f64],
        q: &mut [u16],
        planes: &mut [u8],
    ) {
        let levels = lut.len();
        let (p, out) = (lut.as_ptr(), q.as_mut_ptr());
        let (low, high) = planes.split_at_mut(planes.len() / 2);
        let (low, high) = (low.as_mut_ptr(), high.as_mut_ptr());
        let vm = _mm512_set1_pd(m);
        for c in (0..levels).step_by(16) {
            let live = if levels - c >= 16 { u16::MAX } else { (1u16 << (levels - c)) - 1 };
            let a = _mm512_maskz_loadu_pd(live as u8, p.add(c));
            let b = _mm512_maskz_loadu_pd((live >> 8) as u8, p.wrapping_add(c + 8));
            let a = quantize_eight(grid, _mm512_sub_pd(a, vm));
            let b = quantize_eight(grid, _mm512_sub_pd(b, vm));
            let n = _mm512_inserti64x4::<1>(_mm512_castsi256_si512(a), b);
            _mm512_mask_cvtepi32_storeu_epi16(out.add(c).cast(), live, n);
            _mm512_mask_cvtepi32_storeu_epi8(low.add(c).cast(), live, n);
            _mm512_mask_cvtepi32_storeu_epi8(high.add(c).cast(), live, _mm512_srli_epi32::<8>(n));
        }
    }

    /// [`QuantGrid::quantize`] of eight entries, as `i32` lanes:
    /// [`quantize_quad`]'s steps on eight lanes, the masked `1.0` a masked
    /// add.
    ///
    /// # Safety
    /// Caller guarantees AVX-512 F.
    // SAFETY: pure register arithmetic.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn quantize_eight(grid: QuantGrid, x: __m512d) -> __m256i {
        let (inv, s) = (_mm512_set1_pd(grid.inv), _mm512_set1_pd(grid.scale));
        let one = _mm512_set1_pd(1.0);
        let r = _mm512_mul_pd(x, inv);
        let v = if grid.up {
            let v = _mm512_roundscale_pd::<{ _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC }>(r);
            let short = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(_mm512_mul_pd(v, s), x);
            _mm512_mask_add_pd(v, short, v, one)
        } else {
            let v = _mm512_roundscale_pd::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(r);
            let over = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(_mm512_mul_pd(v, s), x);
            _mm512_mask_sub_pd(v, over, v, one)
        };
        _mm512_cvttpd_epi32(_mm512_min_pd(v, _mm512_set1_pd(Q_MAX)))
    }

    /// Four rows' bounds from their entry sums: `base + (f64(n)·s + offset)`,
    /// the reference's three operations per row.
    ///
    /// # Safety
    /// Caller guarantees AVX2 and four writable rows at `ap`.
    // SAFETY: pure register arithmetic plus one four-row load/store the
    // callers keep inside the accumulator.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_bounds_quad(ap: *mut f64, sums: __m128i, lut: &QuantLut, init: bool) {
        let t = _mm256_add_pd(
            _mm256_mul_pd(_mm256_cvtepi32_pd(sums), _mm256_set1_pd(lut.scale)),
            _mm256_set1_pd(lut.offset),
        );
        let base = if init { _mm256_setzero_pd() } else { _mm256_loadu_pd(ap) };
        _mm256_storeu_pd(ap, _mm256_add_pd(base, t));
    }

    /// The AVX2 quantized sweep: per sixteen rows and column, one 16-byte
    /// code load, masked to `levels − 1`, widens into two sets of eight
    /// indices, and two `vpgatherdd` read their 16-bit entries (as 32-bit
    /// words at 2-byte strides, the upper half masked off — the padding
    /// slot keeps the last read inside the table); the sums stay exact
    /// `u32` lanes across the group. Every 64 rows each column's codes
    /// [`SWEEP_PREFETCH_ROWS`] rows ahead are prefetched. Rows past the
    /// last sixteen take the scalar reference.
    ///
    /// # Safety
    /// Caller guarantees AVX2, `lut` quantized for `columns.len()` columns
    /// (with its padding slot) and every column holding `acc.len()` codes.
    // SAFETY: dispatched from `sweep_codes` only after asserting all of the
    // above; code loads read rows `i..i + 16` with the end at most
    // `acc.len()`, and every gathered index is masked to `levels − 1`
    // inside its column's entries. The prefetch address, past the column
    // near its end, is formed with `wrapping_add` inside `prefetch` and
    // never dereferenced.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sweep_codes_gather(
        columns: &[&[u8]],
        lut: &QuantLut,
        acc: &mut [f64],
        init: bool,
    ) {
        let n = acc.len();
        let levels = lut.levels;
        let mask = _mm_set1_epi8((levels - 1) as u8 as i8);
        let low = _mm256_set1_epi32(0xFFFF);
        let qp = lut.q.as_ptr();
        let ap = acc.as_mut_ptr();
        let mut i = 0usize;
        while i + 16 <= n {
            let (mut n0, mut n1) = (_mm256_setzero_si256(), _mm256_setzero_si256());
            let fetch = i.is_multiple_of(64);
            for (j, column) in columns.iter().enumerate() {
                if fetch {
                    prefetch(column, i + SWEEP_PREFETCH_ROWS);
                }
                let table = qp.add(j * levels).cast::<i32>();
                let codes = _mm_and_si128(_mm_loadu_si128(column.as_ptr().add(i).cast()), mask);
                let e0 = _mm256_i32gather_epi32::<2>(table, _mm256_cvtepu8_epi32(codes));
                let high = _mm_srli_si128::<8>(codes);
                let e1 = _mm256_i32gather_epi32::<2>(table, _mm256_cvtepu8_epi32(high));
                n0 = _mm256_add_epi32(n0, _mm256_and_si256(e0, low));
                n1 = _mm256_add_epi32(n1, _mm256_and_si256(e1, low));
            }
            for (r, sums) in [(0, n0), (8, n1)] {
                store_bounds_quad(ap.add(i + r), _mm256_castsi256_si128(sums), lut, init);
                let upper = _mm256_extracti128_si256::<1>(sums);
                store_bounds_quad(ap.add(i + r + 4), upper, lut, init);
            }
            i += 16;
        }
        sweep_codes_scalar(columns, lut, acc, init, i);
    }

    /// One byte plane's entries for 64 codes: `vpermi2b` over the plane's
    /// first 128 bytes, and at 256 levels a second one over the upper 128
    /// bytes, blended on each code's top bit.
    ///
    /// # Safety
    /// Caller guarantees AVX-512 BW/VBMI and a plane of 128 readable bytes
    /// at `plane` (256 when `wide`).
    // SAFETY: register permutes over loads the caller keeps inside one
    // plane of `plane_len(levels)` bytes.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    unsafe fn plane_lookup(plane: *const u8, codes: __m512i, wide: bool) -> __m512i {
        let low = _mm512_permutex2var_epi8(
            _mm512_loadu_si512(plane.cast()),
            codes,
            _mm512_loadu_si512(plane.add(64).cast()),
        );
        if !wide {
            return low;
        }
        let high = _mm512_permutex2var_epi8(
            _mm512_loadu_si512(plane.add(128).cast()),
            codes,
            _mm512_loadu_si512(plane.add(192).cast()),
        );
        _mm512_mask_blend_epi8(_mm512_movepi8_mask(codes), low, high)
    }

    /// Sixteen rows' bounds from their entry sums, for the rows `live`
    /// marks: `base + (f64(n)·s + offset)`, the reference's three
    /// operations per row.
    ///
    /// # Safety
    /// Caller guarantees AVX-512 F and that every row `live` marks is
    /// writable at `ap`.
    // SAFETY: masked loads and stores touch only the rows `live` marks.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    unsafe fn store_bounds_sixteen(
        ap: *mut f64,
        sums: __m512i,
        live: u16,
        lut: &QuantLut,
        init: bool,
    ) {
        let (s, off) = (_mm512_set1_pd(lut.scale), _mm512_set1_pd(lut.offset));
        let halves = [_mm512_castsi512_si256(sums), _mm512_extracti64x4_epi64::<1>(sums)];
        for (h, half) in halves.into_iter().enumerate() {
            let k = (live >> (8 * h)) as u8;
            if k == 0 {
                continue;
            }
            let t: __m512d = _mm512_add_pd(_mm512_mul_pd(_mm512_cvtepi32_pd(half), s), off);
            let p = ap.add(8 * h);
            let base = if init { _mm512_setzero_pd() } else { _mm512_maskz_loadu_pd(k, p) };
            _mm512_mask_storeu_pd(p, k, _mm512_add_pd(base, t));
        }
    }

    /// The AVX-512 VBMI quantized sweep: 64 rows per step. Per column, one
    /// (masked, at the tail) 64-byte code load, masked to `levels − 1`,
    /// indexes the column's low-byte and high-byte planes with `vpermi2b`
    /// ([`plane_lookup`]) — no gather. Each plane's bytes add into `u16`
    /// lanes, even rows and odd rows apart (`& 0xFF`, `>> 8`): 32 columns
    /// of bytes stay below 2¹⁶. After the group, each row's sum
    /// `256·high + low` widens to `u32` and goes through the reference's
    /// three operations. Each step prefetches every column's codes
    /// [`SWEEP_PREFETCH_ROWS`] rows ahead.
    ///
    /// # Safety
    /// Caller guarantees AVX-512 F/BW/VBMI, `lut` quantized with its
    /// planes for `columns.len()` columns, and every column holding
    /// `acc.len()` codes.
    // SAFETY: dispatched from `sweep_codes` only after asserting all of the
    // above; code loads are masked to the rows below `acc.len()`, plane
    // loads stay inside each column's `2 × plane_len` bytes, and bound
    // stores are masked the same way. The prefetch address, past the
    // column near its end, is formed with `wrapping_add` inside `prefetch`
    // and never dereferenced.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    pub(super) unsafe fn sweep_codes_permute(
        columns: &[&[u8]],
        lut: &QuantLut,
        acc: &mut [f64],
        init: bool,
    ) {
        let n = acc.len();
        let levels = lut.levels;
        let plane = plane_len(levels);
        let wide = levels > 128;
        let mask = _mm512_set1_epi8((levels - 1) as u8 as i8);
        let low = _mm512_set1_epi16(0x00FF);
        // u32 lanes of the even rows (a) and odd rows (b), interleaved
        let first = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
        let second =
            _mm512_setr_epi32(8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14, 30, 15, 31);
        let pp = lut.planes.as_ptr();
        let ap = acc.as_mut_ptr();
        let mut i = 0usize;
        while i < n {
            let rows = (n - i).min(64);
            let live = if rows == 64 { u64::MAX } else { (1u64 << rows) - 1 };
            // low plane even/odd rows, high plane even/odd rows
            let mut sums = [_mm512_setzero_si512(); 4];
            for (j, column) in columns.iter().enumerate() {
                prefetch(column, i + SWEEP_PREFETCH_ROWS);
                let loaded = _mm512_maskz_loadu_epi8(live, column.as_ptr().add(i).cast());
                let codes = _mm512_and_si512(loaded, mask);
                let table = pp.add(j * 2 * plane);
                let lo = plane_lookup(table, codes, wide);
                let hi = plane_lookup(table.add(plane), codes, wide);
                sums[0] = _mm512_add_epi16(sums[0], _mm512_and_si512(lo, low));
                sums[1] = _mm512_add_epi16(sums[1], _mm512_srli_epi16::<8>(lo));
                sums[2] = _mm512_add_epi16(sums[2], _mm512_and_si512(hi, low));
                sums[3] = _mm512_add_epi16(sums[3], _mm512_srli_epi16::<8>(hi));
            }
            for h in 0..2 {
                let widen = |v: __m512i| {
                    let half = if h == 0 {
                        _mm512_castsi512_si256(v)
                    } else {
                        _mm512_extracti64x4_epi64::<1>(v)
                    };
                    _mm512_cvtepu16_epi32(half)
                };
                // rows 32h + 2t and 32h + 2t + 1, t < 16
                let even = _mm512_add_epi32(widen(sums[0]), _mm512_slli_epi32::<8>(widen(sums[2])));
                let odd = _mm512_add_epi32(widen(sums[1]), _mm512_slli_epi32::<8>(widen(sums[3])));
                for (c, order) in [(0, first), (1, second)] {
                    let row = 32 * h + 16 * c;
                    let sixteen = _mm512_permutex2var_epi32(even, order, odd);
                    let marks = (live >> row) as u16;
                    store_bounds_sixteen(ap.add(i + row), sixteen, marks, lut, init);
                }
            }
            i += 64;
        }
    }

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

    /// Four rows' remaining mass `max(T(x) − T(x⁻), 0)`: `vmaxpd` with `0`
    /// as its second operand is `maxNum` with a non-NaN operand, a NaN
    /// difference becoming `0`.
    ///
    /// # Safety
    /// Caller guarantees AVX2 and four readable rows at `at` in both slices.
    // SAFETY: only reachable from `tail_mask_avx2`, which established AVX2
    // support and keeps `at + 4` within the equal-length slices.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn remaining_quad(scanned: *const f64, total: *const f64, at: usize) -> __m256d {
        let rem = _mm256_sub_pd(_mm256_loadu_pd(total.add(at)), _mm256_loadu_pd(scanned.add(at)));
        _mm256_max_pd(rem, _mm256_setzero_pd())
    }

    /// The AVX2 tail mask: four rows bounded and tested per step, lane by
    /// lane the scalar [`OptimisticTail::bound`] — `Hh`'s cap is
    /// `vminpd(cap, rem)`, `minNum` with the non-NaN remaining mass as its
    /// second operand — then [`SurviveTest::survives`]. One loop per form,
    /// chosen once per word. A tail of fewer than four rows goes through
    /// the scalar bound and predicate.
    ///
    /// # Safety
    /// Caller guarantees AVX2, at most 64 rows and three slices of equal
    /// length.
    // SAFETY: dispatched from `tail_mask` only after asserting all of the
    // above; every load reads rows `at..at + 4` with `at + 4 ≤ rows`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tail_mask_avx2(
        tail: OptimisticTail,
        test: SurviveTest,
        partial: &[f64],
        scanned: &[f64],
        total: &[f64],
    ) -> u64 {
        let rows = partial.len();
        let (p, s, t) = (partial.as_ptr(), scanned.as_ptr(), total.as_ptr());
        let sign = _mm256_set1_pd(test.sign);
        let add = _mm256_set1_pd(test.add);
        let bar = _mm256_set1_pd(test.bar);
        let mut dropped = 0u64;
        // every quad of the word through one form's bound
        macro_rules! quads {
            ($at:ident => $bound:expr) => {{
                let mut $at = 0usize;
                while $at + 4 <= rows {
                    dropped |= dropped_quad($bound, sign, add, bar) << $at;
                    $at += 4;
                }
            }};
        }
        match tail {
            OptimisticTail::Partial => quads!(at => _mm256_loadu_pd(p.add(at))),
            OptimisticTail::AddConst(c) => {
                let c = _mm256_set1_pd(c);
                quads!(at => _mm256_add_pd(_mm256_loadu_pd(p.add(at)), c))
            }
            OptimisticTail::AddMassCapped(cap) => {
                let cap = _mm256_set1_pd(cap);
                quads!(at => _mm256_add_pd(
                    _mm256_loadu_pd(p.add(at)),
                    _mm256_min_pd(cap, remaining_quad(s, t, at)),
                ))
            }
            OptimisticTail::AddSquaredGap { target, divisor } => {
                let (target, divisor) = (_mm256_set1_pd(target), _mm256_set1_pd(divisor));
                quads!(at => {
                    let gap = _mm256_sub_pd(remaining_quad(s, t, at), target);
                    let extra = _mm256_div_pd(_mm256_mul_pd(gap, gap), divisor);
                    _mm256_add_pd(_mm256_loadu_pd(p.add(at)), extra)
                })
            }
        }
        let mut i = rows & !3;
        let mut mask = if i == 64 { !dropped } else { !dropped & ((1u64 << i) - 1) };
        while i < rows {
            let candidate = CandidateState {
                partial: partial[i],
                scanned_mass: scanned[i],
                total_mass: total[i],
            };
            mask |= u64::from(test.survives(tail.bound(&candidate))) << i;
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
    /// formulas, operation for operation. Each vector also goes into the
    /// column's range ([`range_quad`]) before the next is built.
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
    ) -> LutRange {
        let levels = best.len();
        let vmin = _mm256_set1_pd(grid.min);
        let vmax = _mm256_set1_pd(grid.max);
        let vw = _mm256_set1_pd(grid.cell_width());
        let vq = _mm256_set1_pd(query);
        let four = _mm256_set1_pd(4.0);
        let out = best.as_mut_ptr();
        let mut range =
            [_mm256_set1_pd(f64::INFINITY), _mm256_set1_pd(f64::NEG_INFINITY), _mm256_setzero_pd()];
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
                    range_quad(&mut range, v);
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
                    range_quad(&mut range, v);
                    ilo = _mm256_add_pd(ilo, four);
                    ihi = _mm256_add_pd(ihi, four);
                }
            }
        }
        let (mut lo, mut hi) = ([0.0; 4], [0.0; 4]);
        _mm256_storeu_pd(lo.as_mut_ptr(), range[0]);
        _mm256_storeu_pd(hi.as_mut_ptr(), range[1]);
        let nan = _mm256_movemask_pd(range[2]) != 0;
        let lanes = lo.into_iter().zip(hi);
        let range = lanes.fold(LutRange::EMPTY, |r, (lo, hi)| r.with(lo).with(hi));
        LutRange { finite: range.finite && !nan, ..range }
    }

    /// Takes four entries into a column's range lanes `[min, max, nan]`:
    /// `nan` marks every lane that has met a NaN. Without one, the lanes'
    /// min and max are exact, and finite exactly when every entry is; with
    /// one they may have lost it, but the column is then not finite anyway.
    /// The NaN test is one compare and one OR, not two more FP operations:
    /// the build is bound by its FP ports.
    ///
    /// # Safety
    /// Caller guarantees AVX2.
    // SAFETY: pure register arithmetic.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn range_quad(range: &mut [__m256d; 3], v: __m256d) {
        range[0] = _mm256_min_pd(range[0], v);
        range[1] = _mm256_max_pd(range[1], v);
        range[2] = _mm256_or_pd(range[2], _mm256_cmp_pd::<_CMP_UNORD_Q>(v, v));
    }

    /// [`fill_best_lut_avx2`] on eight `f64` lanes: the same edges (cell
    /// indices stepped by `+8.0`), the same formulas, and the same range
    /// lanes (the NaN marks in a mask register), with every step masked to
    /// the cells below `levels` — so two and four levels take one masked
    /// step.
    ///
    /// # Safety
    /// Caller guarantees AVX-512 F and `best.len()` is a power-of-two level
    /// count.
    // SAFETY: bounds are enforced by the dispatching `fill_best_lut`; every
    // store is masked to the cells below `best.len()`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn fill_best_lut_avx512(
        op: KernelOp<'_>,
        dim: usize,
        grid: CodeParams,
        query: f64,
        best: &mut [f64],
    ) -> LutRange {
        let levels = best.len();
        let live: u8 = if levels >= 8 { u8::MAX } else { (1u8 << levels) - 1 };
        let vmin = _mm512_set1_pd(grid.min);
        let vmax = _mm512_set1_pd(grid.max);
        let vw = _mm512_set1_pd(grid.cell_width());
        let vq = _mm512_set1_pd(query);
        let eight = _mm512_set1_pd(8.0);
        let out = best.as_mut_ptr();
        let (mut least, mut most) =
            (_mm512_set1_pd(f64::INFINITY), _mm512_set1_pd(f64::NEG_INFINITY));
        let mut nan = 0u8;
        match op {
            KernelOp::Min | KernelOp::WeightedMin(_) => {
                let scale = match op {
                    KernelOp::WeightedMin(w) => Some(_mm512_set1_pd(w[dim])),
                    _ => None,
                };
                let mut idx = _mm512_setr_pd(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0);
                for c in (0..levels).step_by(8) {
                    let e = _mm512_min_pd(_mm512_add_pd(vmin, _mm512_mul_pd(idx, vw)), vmax);
                    let mut v = _mm512_min_pd(e, vq);
                    if let Some(s) = scale {
                        v = _mm512_mul_pd(s, v);
                    }
                    _mm512_mask_storeu_pd(out.add(c), live, v);
                    least = _mm512_mask_min_pd(least, live, least, v);
                    most = _mm512_mask_max_pd(most, live, most, v);
                    nan |= _mm512_mask_cmp_pd_mask::<_CMP_UNORD_Q>(live, v, v);
                    idx = _mm512_add_pd(idx, eight);
                }
            }
            KernelOp::SquaredDiff | KernelOp::WeightedSquaredDiff(_) => {
                let scale = match op {
                    KernelOp::WeightedSquaredDiff(w) => Some(_mm512_set1_pd(w[dim])),
                    _ => None,
                };
                let mut ilo = _mm512_setr_pd(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0);
                let mut ihi = _mm512_setr_pd(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0);
                for c in (0..levels).step_by(8) {
                    let lo = _mm512_min_pd(_mm512_add_pd(vmin, _mm512_mul_pd(ilo, vw)), vmax);
                    let hi = _mm512_min_pd(_mm512_add_pd(vmin, _mm512_mul_pd(ihi, vw)), vmax);
                    let d = _mm512_sub_pd(_mm512_min_pd(_mm512_max_pd(vq, lo), hi), vq);
                    let v = match scale {
                        Some(s) => _mm512_mul_pd(_mm512_mul_pd(s, d), d),
                        None => _mm512_mul_pd(d, d),
                    };
                    _mm512_mask_storeu_pd(out.add(c), live, v);
                    least = _mm512_mask_min_pd(least, live, least, v);
                    most = _mm512_mask_max_pd(most, live, most, v);
                    nan |= _mm512_mask_cmp_pd_mask::<_CMP_UNORD_Q>(live, v, v);
                    ilo = _mm512_add_pd(ilo, eight);
                    ihi = _mm512_add_pd(ihi, eight);
                }
            }
        }
        let range =
            LutRange::EMPTY.with(_mm512_reduce_min_pd(least)).with(_mm512_reduce_max_pd(most));
        LutRange { finite: range.finite && nan == 0, ..range }
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

    /// Dense AVX2 block accumulate: per tile of 16 rows, the scores (and,
    /// with `mass`, the masses) sit in four `ymm` registers each across
    /// every column of the block — each cell loaded once, each sum stored
    /// once, every column prefetched [`DENSE_PREFETCH_ROWS`] rows ahead —
    /// and the last rows (fewer than 16) go one at a time. With `init` the
    /// sums start at `+0.0` instead of the stored ones.
    ///
    /// # Safety
    /// Caller guarantees AVX2, `dims`, `columns` and `queries` of one
    /// length, and every column and `mass` of `acc.len()` rows.
    // SAFETY: dispatched from `accumulate_block` only after `is_supported`
    // and those asserts.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn accumulate_block_avx2(
        op: KernelOp<'_>,
        dims: &[usize],
        columns: &[&[f64]],
        queries: &[f64],
        acc: &mut [f64],
        mass: Option<&mut [f64]>,
        init: bool,
    ) {
        match mass {
            Some(mass) => {
                block_rows::<true>(op, dims, columns, queries, acc, mass.as_mut_ptr(), init)
            }
            None => block_rows::<false>(op, dims, columns, queries, acc, ptr::null_mut(), init),
        }
    }

    /// The row loop of [`accumulate_block_avx2`], with the masses at `mp`
    /// or without them.
    ///
    /// # Safety
    /// As [`accumulate_block_avx2`], and when `MASS`, `acc.len()` masses
    /// at `mp`.
    // SAFETY: every load and store covers rows below `acc.len()`, which
    // every column and (when `MASS`) `mp` hold; `mp` is not touched
    // otherwise, and a prefetch past the end neither reads nor faults.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn block_rows<const MASS: bool>(
        op: KernelOp<'_>,
        dims: &[usize],
        columns: &[&[f64]],
        queries: &[f64],
        acc: &mut [f64],
        mp: *mut f64,
        init: bool,
    ) {
        let (ap, n) = (acc.as_mut_ptr(), acc.len());
        let zero = _mm256_setzero_pd();
        let mut i = 0usize;
        while i + 16 <= n {
            let (mut a, mut m) = ([zero; 4], [zero; 4]);
            if !init {
                for k in 0..4 {
                    a[k] = _mm256_loadu_pd(ap.add(i + 4 * k));
                    if MASS {
                        m[k] = _mm256_loadu_pd(mp.add(i + 4 * k));
                    }
                }
            }
            for ((column, &query), &dim) in columns.iter().zip(queries).zip(dims) {
                let vp = column.as_ptr().add(i);
                let ahead = vp.wrapping_add(DENSE_PREFETCH_ROWS);
                _mm_prefetch::<_MM_HINT_T0>(ahead.cast());
                _mm_prefetch::<_MM_HINT_T0>(ahead.wrapping_add(8).cast());
                let q = _mm256_set1_pd(query);
                for k in 0..4 {
                    let v = _mm256_loadu_pd(vp.add(4 * k));
                    a[k] = _mm256_add_pd(a[k], contribution_quad(op, dim, v, q));
                    if MASS {
                        m[k] = _mm256_add_pd(m[k], v);
                    }
                }
            }
            for k in 0..4 {
                _mm256_storeu_pd(ap.add(i + 4 * k), a[k]);
                if MASS {
                    _mm256_storeu_pd(mp.add(i + 4 * k), m[k]);
                }
            }
            i += 16;
        }
        while i < n {
            let mut a = if init { 0.0 } else { *ap.add(i) };
            let mut m = if init || !MASS { 0.0 } else { *mp.add(i) };
            for ((column, &query), &dim) in columns.iter().zip(queries).zip(dims) {
                let v = *column.as_ptr().add(i);
                a += op.apply(dim, v, query);
                if MASS {
                    m += v;
                }
            }
            *ap.add(i) = a;
            if MASS {
                *mp.add(i) = m;
            }
            i += 1;
        }
    }

    /// Gathered AVX2 accumulate with the scanned mass: 4 list rows per
    /// iteration, one `vgatherdpd` per four cells feeding both sums.
    ///
    /// # Safety
    /// Same contract as [`accumulate_gather_avx2`], and
    /// `mass.len() == rows.len()`.
    // SAFETY: dispatched from `accumulate_gather_with_mass` only after
    // checking feature support, row bounds, the 32-bit index limit and the
    // length asserts; pointer arithmetic stays inside those bounds.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn accumulate_gather_with_mass_avx2(
        op: KernelOp<'_>,
        dim: usize,
        values: &[f64],
        rows: &[RowId],
        query: f64,
        acc: &mut [f64],
        mass: &mut [f64],
    ) {
        let n = rows.len();
        let q = _mm256_set1_pd(query);
        let vp = values.as_ptr();
        let rp = rows.as_ptr();
        let ap = acc.as_mut_ptr();
        let mp = mass.as_mut_ptr();
        let mut i = 0usize;
        while i + 4 <= n {
            let idx = _mm_loadu_si128(rp.add(i).cast::<__m128i>());
            let v = _mm256_i32gather_pd::<8>(vp, idx);
            let c = contribution_quad(op, dim, v, q);
            _mm256_storeu_pd(ap.add(i), _mm256_add_pd(_mm256_loadu_pd(ap.add(i)), c));
            _mm256_storeu_pd(mp.add(i), _mm256_add_pd(_mm256_loadu_pd(mp.add(i)), v));
            i += 4;
        }
        while i < n {
            let v = *vp.add(*rp.add(i) as usize);
            *ap.add(i) += op.apply(dim, v, query);
            *mp.add(i) += v;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use bond_metrics::{
        DecomposableMetric, HistogramIntersection, SquaredEuclidean, WeightedHistogramIntersection,
        WeightedSquaredEuclidean,
    };
    use proptest::prelude::*;

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

    /// The one-lane LUT build of every implementation the host runs against
    /// the optimistic lane of the portable pair build, and the range it
    /// returns against a plain pass over that lane, for every kernel op,
    /// grids wide and degenerate, queries inside, outside and on the grid's
    /// edges.
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
                        let range = ranges(&want, levels)[0];
                        for sweep in CodeSweep::ALL.into_iter().filter(|s| s.is_supported()) {
                            let mut best = vec![f64::NAN; levels];
                            let got = fill_best_lut(sweep, op, dim, grid, query, &mut best);
                            let ctx = format!("{} {} bits {bits}", sweep.label(), metric.name());
                            assert_eq!(bits_of(&best), bits_of(&want), "{ctx} q {query}");
                            assert_eq!(got, range, "{ctx} q {query}");
                            fused += 1;
                        }
                    }
                }
            }
        }
        assert!(fused > 0, "no one-lane build ran");
    }

    /// Non-finite entries: NaN and infinite queries, queries so far off
    /// the grid that `d²` overflows, and an infinite weight. Every
    /// implementation writes the portable body's entries bit for bit, and
    /// its range is finite exactly when every entry is — with the plain
    /// pass's smallest and largest entry when it is.
    #[test]
    fn one_lane_builds_range_non_finite_entries() {
        let weights = [0.0, 2.0, f64::INFINITY, 1.0];
        let ops = [
            KernelOp::Min,
            KernelOp::SquaredDiff,
            KernelOp::WeightedMin(&weights),
            KernelOp::WeightedSquaredDiff(&weights),
        ];
        let queries = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e200, -1e200, 0.5];
        let mut checked = 0;
        for op in ops {
            for bits in [1u8, 2, 4, 8] {
                let grid = CodeParams::new(-0.5, 1.5, bits).unwrap();
                let levels = grid.levels() as usize;
                for (dim, query) in (0..4).flat_map(|d| queries.map(|q| (d, q))) {
                    let mut want = vec![0.0; levels];
                    fill_best_lut(CodeSweep::Scalar, op, dim, grid, query, &mut want);
                    let plain = ranges(&want, levels)[0];
                    for sweep in CodeSweep::ALL.into_iter().filter(|s| s.is_supported()) {
                        let mut best = vec![0.0; levels];
                        let range = fill_best_lut(sweep, op, dim, grid, query, &mut best);
                        let ctx =
                            format!("{} {op:?} bits {bits} dim {dim} q {query}", sweep.label());
                        assert_eq!(bits_of(&best), bits_of(&want), "{ctx}");
                        assert_eq!(range.finite, plain.finite, "{ctx}");
                        if plain.finite {
                            assert_eq!((range.min, range.max), (plain.min, plain.max), "{ctx}");
                        }
                        checked += usize::from(!plain.finite);
                    }
                }
            }
        }
        assert!(checked > 0, "no non-finite column built");
    }

    /// Each column's range, taken by a plain pass — what the one-lane
    /// builds return as they write the column.
    fn ranges(luts: &[f64], levels: usize) -> Vec<LutRange> {
        let range = |lut: &[f64]| lut.iter().fold(LutRange::EMPTY, |r, &e| r.with(e));
        luts.chunks_exact(levels).map(range).collect()
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
    fn out_of_range_codes_alias_in_the_quantized_sweep_too() {
        let codes = vec![255u8; 131];
        let luts = [1.0, 2.0, 3.0, 4.0];
        for sweep in CodeSweep::ALL.into_iter().filter(|s| s.is_supported()) {
            let mut lut = QuantLut::new();
            quantize_lut(sweep, Objective::Minimize, &luts, &ranges(&luts, 4), 4, &mut lut);
            let mut acc = vec![0.0; 131];
            sweep_codes(sweep, &[&codes], &lut, &mut acc, true);
            assert!(acc.iter().all(|&a| a == lut.value(65_535)), "{}", sweep.label());
            assert!((lut.value(65_535) - 4.0).abs() < 1e-12, "{}", sweep.label());
        }
    }

    /// One column of adversarial LUT entries for the soundness property.
    /// Ramps (`c·δ`, what a grid's cell edges give) put `(e − m)/s` on or
    /// next to integers, where rounding the reciprocal product can land on
    /// either side and the quantizer's step decides.
    fn adversarial_column(levels: usize, next: &mut impl FnMut() -> u64) -> Vec<f64> {
        let unit = |x: u64| (x >> 11) as f64 / (1u64 << 53) as f64;
        let regime = next() % 7;
        let constant = unit(next()) * 8.0 - 4.0;
        (0..levels)
            .map(|c| {
                let u = unit(next());
                match regime {
                    0 => u * 8.0 - 4.0,
                    1 => -1.0 - u * 1e3,
                    2 => constant,
                    3 => u * 2e300 - 1e300,
                    4 => u * 1e-310,
                    5 => c as f64 * (constant + 4.5) * 0.01,
                    _ => {
                        if next().is_multiple_of(2) {
                            u * 1e300
                        } else {
                            -u * f64::MIN_POSITIVE
                        }
                    }
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The quantized bound is never on the pessimistic side of the
        /// `f64` bound (the same LUTs summed in column order) by more than
        /// `prune_slack` of the group's magnitude — the rounding the `f64`
        /// sum itself carries. LUTs mix negative entries, zero spans, 1e300
        /// spans and subnormals, and some hold `±∞` or NaN (the group's
        /// bound is then vacuous); a finite group's bound lies within three
        /// grid steps per column of it. Every implementation's quantizer
        /// gives the scalar quantizer's entries, scale and offset.
        #[test]
        fn quantized_bounds_stay_on_the_optimistic_side(
            seed in 1u64..u64::MAX,
            width in 1usize..=MAX_SWEEP_GROUP,
            bits in 0usize..3,
            special in 0usize..8,
        ) {
            let levels = [2usize, 16, 256][bits];
            let mut state = seed;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut luts: Vec<f64> =
                (0..width).flat_map(|_| adversarial_column(levels, &mut next)).collect();
            if let Some(&value) = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN].get(special) {
                let at = next() as usize % luts.len();
                luts[at] = value;
            }
            let finite = luts.iter().all(|e| e.is_finite());
            let magnitude: f64 = luts
                .chunks_exact(levels)
                .map(|column| column.iter().fold(0.0f64, |m, e| m.max(e.abs())))
                .sum();
            let slack = crate::searcher::prune_slack(magnitude);
            let rows = 97;
            let columns: Vec<Vec<u8>> =
                (0..width).map(|_| (0..rows).map(|_| next() as u8).collect()).collect();
            let columns: Vec<&[u8]> = columns.iter().map(Vec::as_slice).collect();
            let ranges = ranges(&luts, levels);
            for objective in [Objective::Minimize, Objective::Maximize] {
                let mut reference = QuantLut::new();
                quantize_lut(CodeSweep::Scalar, objective, &luts, &ranges, levels, &mut reference);
                for sweep in CodeSweep::ALL.into_iter().filter(|s| s.is_supported()) {
                    let mut lut = QuantLut::new();
                    quantize_lut(sweep, objective, &luts, &ranges, levels, &mut lut);
                    prop_assert_eq!(lut.entries(), reference.entries(), "{}", sweep.label());
                    prop_assert_eq!(lut.scale().to_bits(), reference.scale().to_bits());
                    prop_assert_eq!(lut.offset().to_bits(), reference.offset().to_bits());
                }
                let mut bounds = vec![0.0; rows];
                sweep_codes(CodeSweep::Scalar, &columns, &reference, &mut bounds, true);
                for (row, &bound) in bounds.iter().enumerate() {
                    let exact = columns
                        .iter()
                        .zip(luts.chunks_exact(levels))
                        .fold(0.0, |sum, (column, lut)| sum + lut[column[row] as usize % levels]);
                    let vacuous = if objective == Objective::Minimize {
                        f64::NEG_INFINITY
                    } else {
                        f64::INFINITY
                    };
                    if !finite {
                        prop_assert_eq!(bound, vacuous, "row {}", row);
                        continue;
                    }
                    let pessimistic = match objective {
                        Objective::Minimize => bound > exact + slack,
                        Objective::Maximize => bound < exact - slack,
                    };
                    prop_assert!(
                        !pessimistic,
                        "{:?} row {}: quantized {} vs f64 {} (slack {})",
                        objective,
                        row,
                        bound,
                        exact,
                        slack
                    );
                    // and no looser than a few grid steps per column: a
                    // finite group's bound is never vacuous
                    let gap = match objective {
                        Objective::Minimize => exact - bound,
                        Objective::Maximize => bound - exact,
                    };
                    let steps = 3.0 * width as f64 * reference.scale();
                    prop_assert!(
                        gap <= steps + slack,
                        "{:?} row {}: quantized {} is {} from f64 {} (allowed {})",
                        objective,
                        row,
                        bound,
                        gap,
                        exact,
                        steps + slack
                    );
                }
            }
        }
    }

    /// The exact metrics every flavour implements, weighted ones with
    /// 33 dims' weights.
    fn exact_metrics() -> Vec<Box<dyn DecomposableMetric>> {
        let wh =
            WeightedHistogramIntersection::new((0..33).map(|d| d as f64 * 0.25).collect()).unwrap();
        let we =
            WeightedSquaredEuclidean::new((0..33).map(|d| 0.1 + d as f64 * 0.3).collect()).unwrap();
        vec![
            Box::new(HistogramIntersection),
            Box::new(SquaredEuclidean),
            Box::new(wh),
            Box::new(we),
        ]
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The plain exact accumulate, dense and gathered (a reversed list
    /// with holes), on every supported flavour against the scalar
    /// reference.
    #[test]
    fn accumulates_are_bit_identical_across_kernels() {
        let mut seed = 0xFEED_FACE_0BAD_F00Du64;
        let rows = 131;
        let values: Vec<f64> = (0..rows).map(|_| xorshift(&mut seed)).collect();
        let init: Vec<f64> = (0..rows).map(|_| xorshift(&mut seed)).collect();
        let list: Vec<RowId> = (0..rows).filter(|r| r % 3 != 1).map(|r| r as RowId).rev().collect();
        for metric in exact_metrics() {
            let op = metric.kernel_op().unwrap();
            for dim in [0usize, 17, 32] {
                let q = xorshift(&mut seed);
                let mut dense_ref = init.clone();
                accumulate(Kernel::Scalar, op, dim, &values, q, &mut dense_ref);
                let mut gather_ref = vec![0.5f64; list.len()];
                accumulate_gather(Kernel::Scalar, op, dim, &values, &list, q, &mut gather_ref);
                for kernel in supported() {
                    let ctx = format!("{} ({})", kernel.label(), metric.name());
                    let mut dense = init.clone();
                    accumulate(kernel, op, dim, &values, q, &mut dense);
                    assert_eq!(bits(&dense), bits(&dense_ref), "{ctx}: dense accumulate");
                    let mut gathered = vec![0.5f64; list.len()];
                    accumulate_gather(kernel, op, dim, &values, &list, q, &mut gathered);
                    assert_eq!(bits(&gathered), bits(&gather_ref), "{ctx}: gathered accumulate");
                }
            }
        }
    }

    /// The accumulates that also carry the scanned mass, the dense block
    /// (over one column) and the fused gathered one (every other row), on
    /// every supported flavour: the score carries the scalar plain
    /// accumulate's bits and the mass the bits of a plain mass loop.
    #[test]
    fn mass_kernels_are_bit_identical_across_kernels() {
        let mut seed = 0x0F0F_F0F0_1234_8765u64;
        let rows = 97;
        let values: Vec<f64> = (0..rows).map(|_| xorshift(&mut seed)).collect();
        let init: Vec<f64> = (0..rows).map(|_| xorshift(&mut seed)).collect();
        let list: Vec<RowId> = (0..rows as RowId).filter(|r| r % 2 == 0).collect();
        let mass_ref: Vec<f64> = init.iter().zip(&values).map(|(m, v)| m + v).collect();
        let gathered_mass_ref: Vec<f64> = list.iter().map(|&r| 0.25 + values[r as usize]).collect();
        for metric in exact_metrics() {
            let op = metric.kernel_op().unwrap();
            for dim in [0usize, 17, 32] {
                let q = xorshift(&mut seed);
                let mut dense_ref = init.clone();
                accumulate(Kernel::Scalar, op, dim, &values, q, &mut dense_ref);
                let mut gather_ref = vec![0.5f64; list.len()];
                accumulate_gather(Kernel::Scalar, op, dim, &values, &list, q, &mut gather_ref);
                for kernel in supported() {
                    let ctx = format!("{} ({})", kernel.label(), metric.name());
                    let (mut dense, mut mass) = (init.clone(), init.clone());
                    let (dims, columns, m) = ([dim], [&values[..]], Some(&mut mass[..]));
                    accumulate_block(kernel, op, &dims, &columns, &[q], &mut dense, m, false);
                    assert_eq!(bits(&dense), bits(&dense_ref), "{ctx}: fused dense score");
                    assert_eq!(bits(&mass), bits(&mass_ref), "{ctx}: fused dense mass");
                    let (mut gathered, mut mass) =
                        (vec![0.5f64; list.len()], vec![0.25; list.len()]);
                    let (acc, m) = (&mut gathered, &mut mass);
                    accumulate_gather_with_mass(kernel, op, dim, &values, &list, q, acc, m);
                    assert_eq!(bits(&gathered), bits(&gather_ref), "{ctx}: fused gathered score");
                    assert_eq!(bits(&mass), bits(&gathered_mass_ref), "{ctx}: fused gathered mass");
                }
            }
        }
    }
}
