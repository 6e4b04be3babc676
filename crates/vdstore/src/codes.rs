//! Per-segment quantized code companions of a decomposed table.
//!
//! Section 7.4 of the paper composes BOND with VA-File-style scalar codes:
//! prune on small approximations, touch exact values only for survivors.
//! This module is the workspace's one scalar quantization: one flat `u8`
//! code fragment per dimension, encoded **per segment** with that segment's
//! tightened `[min, max]` envelope (the same envelopes the zone-map check
//! already keeps in [`SegmentStats`]), at one code width for the whole
//! store. Tighter ranges mean narrower cells, which means tighter score
//! intervals in the filter pass. A one-segment companion has one global
//! grid per column — the classic VA-File approximation.
//!
//! The codes persist inside the `BONDVD02` footer (see [`crate::persist`])
//! with one FNV-1a checksum per dimension, and on the mapped backend they
//! are exposed zero-copy: a `&[u8]` needs no alignment, so a
//! [`CodeColumn`] can point straight into the file mapping.
//!
//! **Zone maps inside the segment.** A segment's envelope spans whatever
//! landed in it, so on a segment holding several clusters the segment-grain
//! zone map never fires. Every segment therefore also has
//! [`BlockEnvelopes`]: per run of 1 024 rows and per dimension, the smallest
//! and largest code byte. They are derived from the code columns — built
//! once per segment, the first time a search asks for them, on every
//! backend alike — and never persisted, so the store format does not carry
//! them.

use std::sync::{Arc, OnceLock};

use crate::checksum::fnv1a;
use crate::error::{Result, VdError};
use crate::mmap::MappedRegion;
use crate::segment::{SegmentSpec, SegmentStats};
use crate::table::DecomposedTable;

/// Code bit-width of the companion the engine's quantized filter sweeps:
/// the full `u8` grid (256 levels) — tightest brackets. Codes occupy a byte
/// at any width, so a narrower grid saves no traffic and only widens the
/// brackets the exact refine has to resolve.
pub const DEFAULT_CODE_BITS: u8 = 8;

/// The scalar-quantization parameters of one (segment, dimension) cell
/// grid: `2^bits` equi-width cells spanning `[min, max]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeParams {
    /// Lower edge of the quantized range.
    pub min: f64,
    /// Upper edge of the quantized range.
    pub max: f64,
    /// Bits per code (1 ..= 8; codes are stored as `u8`).
    pub bits: u8,
}

impl CodeParams {
    /// Builds parameters, validating the range and bit width.
    pub fn new(min: f64, max: f64, bits: u8) -> Result<Self> {
        if bits == 0 || bits > 8 {
            return Err(VdError::InvalidQuantization(format!(
                "code bits must be in 1..=8, got {bits}"
            )));
        }
        if !min.is_finite() || !max.is_finite() || min > max {
            return Err(VdError::InvalidQuantization(format!(
                "code range [{min}, {max}] must be finite and ordered"
            )));
        }
        Ok(CodeParams { min, max, bits })
    }

    /// Number of quantization levels (`2^bits`).
    #[inline]
    pub fn levels(&self) -> u32 {
        1u32 << self.bits
    }

    /// Width of one quantization cell (`0.0` for a degenerate range).
    /// This is the exact multiplier behind [`CodeParams::cell_bounds`] —
    /// exposed so ISA kernels can regenerate cell edges bit-identically
    /// without going through a bounds array.
    #[inline]
    pub fn cell_width(&self) -> f64 {
        self.width()
    }

    #[inline]
    fn width(&self) -> f64 {
        if self.max > self.min {
            (self.max - self.min) / self.levels() as f64
        } else {
            0.0
        }
    }

    /// Encodes a value into its cell index. A degenerate range
    /// (`min == max`) maps every value to the single cell 0; values outside
    /// `[min, max]` clamp to the edge cells.
    #[inline]
    pub fn encode(&self, value: f64) -> u8 {
        let width = self.width();
        if width == 0.0 {
            return 0;
        }
        let cell = ((value - self.min).max(0.0) / width) as u32;
        cell.min(self.levels() - 1) as u8
    }

    /// The `[cell_lower, cell_upper]` interval of a cell index. Every value
    /// of this segment's rows that encoded to `code` lies inside it.
    #[inline]
    pub fn cell_bounds(&self, code: u8) -> (f64, f64) {
        let width = self.width();
        let lo = self.min + code as f64 * width;
        let hi = (self.min + (code as u32 + 1) as f64 * width).min(self.max);
        (lo.min(self.max), hi)
    }

    /// Fills `out[c]` with [`CodeParams::cell_bounds`]`(c)` for every slot
    /// — identical values, but the cell width (one division) is computed
    /// once instead of per cell. The quantized filter rebuilds a
    /// per-level bounds table for every (query, segment, dimension), so
    /// the per-cell division is measurable there.
    pub fn fill_cell_bounds(&self, out: &mut [(f64, f64)]) {
        let width = self.width();
        // the cell index converts through `i32`: exact for every level
        // count (≤ 256), and — unlike `usize as f64` — a conversion the
        // auto-vectorizer has a packed instruction for
        for (c, slot) in out.iter_mut().enumerate() {
            let lo = self.min + c as i32 as f64 * width;
            let hi = (self.min + (c as i32 + 1) as f64 * width).min(self.max);
            *slot = (lo.min(self.max), hi);
        }
    }

    /// Midpoint reconstruction of a cell — the value a code stands for,
    /// within [`CodeParams::max_error`].
    #[inline]
    pub fn approximate(&self, code: u8) -> f64 {
        let (lo, hi) = self.cell_bounds(code);
        0.5 * (lo + hi)
    }

    /// Maximum absolute error of the midpoint reconstruction: half a cell.
    #[inline]
    pub fn max_error(&self) -> f64 {
        0.5 * self.width()
    }
}

/// Backing storage of one dimension's flat code fragment.
#[derive(Debug, Clone)]
enum CodeData {
    /// Codes owned in memory.
    Heap(Vec<u8>),
    /// Codes borrowed zero-copy from a file mapping (`&[u8]` needs no
    /// alignment, unlike the `f64` fragments).
    Mapped { region: Arc<MappedRegion>, offset: usize, len: usize },
}

/// One dimension's code fragment: `rows` bytes, row-aligned with the exact
/// `f64` fragment, encoded segment-by-segment with per-segment parameters.
#[derive(Debug, Clone)]
pub struct CodeColumn {
    data: CodeData,
}

impl CodeColumn {
    /// Wraps owned codes.
    pub fn from_vec(codes: Vec<u8>) -> Self {
        CodeColumn { data: CodeData::Heap(codes) }
    }

    /// Wraps a zero-copy window of a file mapping. Fails if the window
    /// falls outside the region.
    pub fn mapped(region: Arc<MappedRegion>, offset: usize, len: usize) -> Result<Self> {
        let end = offset.checked_add(len).ok_or_else(|| {
            VdError::Corrupt(format!("code column window {offset}+{len} overflows"))
        })?;
        if end > region.as_bytes().len() {
            return Err(VdError::Corrupt(format!(
                "code column window {offset}..{end} exceeds mapping of {} bytes",
                region.as_bytes().len()
            )));
        }
        Ok(CodeColumn { data: CodeData::Mapped { region, offset, len } })
    }

    /// The flat code bytes, one per row.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match &self.data {
            CodeData::Heap(v) => v,
            CodeData::Mapped { region, offset, len } => &region.as_bytes()[*offset..*offset + *len],
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.data {
            CodeData::Heap(v) => v.len(),
            CodeData::Mapped { len, .. } => *len,
        }
    }

    /// Whether the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the codes live in a file mapping (zero-copy) rather than on
    /// the heap.
    pub fn is_mapped(&self) -> bool {
        matches!(self.data, CodeData::Mapped { .. })
    }
}

/// Rows per block envelope: 16 words of a candidate bitmap.
const ENVELOPE_ROWS: usize = 1024;

/// One segment's per-block code envelopes: for every run of 1 024 rows
/// (the last one may be shorter) and every dimension, the smallest and the
/// largest code byte among the block's rows. Every row's code lies inside
/// its block's range, so the cell edges of that range bound every value of
/// the block — tombstoned rows included, which only widens the range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockEnvelopes {
    dims: usize,
    /// `ranges[block · dims + dim]`: that dimension's `(min, max)` code.
    ranges: Vec<(u8, u8)>,
}

impl BlockEnvelopes {
    /// Derives the envelopes from one segment's code windows (one slice per
    /// dimension, all of the segment's length).
    fn build(windows: &[&[u8]]) -> Self {
        let dims = windows.len();
        let blocks = windows.first().map_or(0, |w| w.len().div_ceil(ENVELOPE_ROWS));
        let mut ranges = vec![(0u8, 0u8); blocks * dims];
        for (d, window) in windows.iter().enumerate() {
            for (b, chunk) in window.chunks(ENVELOPE_ROWS).enumerate() {
                let min = chunk.iter().copied().min().unwrap_or(0);
                let max = chunk.iter().copied().max().unwrap_or(0);
                ranges[b * dims + d] = (min, max);
            }
        }
        BlockEnvelopes { dims, ranges }
    }

    /// Rows per block: block `b` covers the segment-local rows
    /// `b · rows_per_block ..` (clamped to the segment's length).
    pub fn rows_per_block(&self) -> usize {
        ENVELOPE_ROWS
    }

    /// Number of blocks.
    pub fn blocks(&self) -> usize {
        self.ranges.len().checked_div(self.dims).unwrap_or(0)
    }

    /// Block `b`'s `(min, max)` code byte, indexed by dimension.
    #[inline]
    pub fn block(&self, b: usize) -> &[(u8, u8)] {
        &self.ranges[b * self.dims..(b + 1) * self.dims]
    }
}

/// The quantized companion of a partitioned store: per-dimension flat code
/// fragments plus the per-(segment, dimension) grids that decode them, and
/// each segment's [`BlockEnvelopes`], derived from the codes on first use.
#[derive(Debug, Clone)]
pub struct StoreCodes {
    /// Bits per code, in every segment (1 ..= 8; a code is one byte at any
    /// width).
    bits: u8,
    rows: usize,
    specs: Vec<SegmentSpec>,
    /// `params[segment][dim]` — the grid each code byte of that window was
    /// encoded with.
    params: Vec<Vec<CodeParams>>,
    /// `columns[dim]` — all rows contiguous, segment windows encoded with
    /// their own grids.
    columns: Vec<CodeColumn>,
    /// FNV-1a over each dimension's code bytes.
    checksums: Vec<u64>,
    /// `envelopes[segment]`, built on first use.
    envelopes: Vec<OnceLock<BlockEnvelopes>>,
}

impl StoreCodes {
    /// Builds code fragments for every dimension of `table`, one grid per
    /// (segment, dimension) tightened to the segment's value envelope from
    /// `stats` (falling back to a fresh scan of the slice for dimensions
    /// with no statistics). Fails on non-finite values and on mismatched
    /// specs/stats and on a bit width outside `1..=8`.
    pub fn build(
        table: &DecomposedTable,
        specs: &[SegmentSpec],
        stats: &[SegmentStats],
        bits: u8,
    ) -> Result<Self> {
        if bits == 0 || bits > 8 {
            return Err(VdError::InvalidQuantization(format!(
                "code bits must be in 1..=8, got {bits}"
            )));
        }
        if specs.len() != stats.len() {
            return Err(VdError::LengthMismatch { expected: specs.len(), actual: stats.len() });
        }
        let rows = table.rows();
        let dims = table.dims();
        let mut params: Vec<Vec<CodeParams>> = Vec::with_capacity(specs.len());
        for (spec, stat) in specs.iter().zip(stats) {
            let mut per_dim = Vec::with_capacity(dims);
            for d in 0..dims {
                let (min, max) = match &stat.per_dim.get(d).and_then(|s| s.as_ref()) {
                    Some(s) => (s.min, s.max),
                    None => {
                        let slice = &table.column(d)?.values()[spec.range()];
                        let min = slice.iter().copied().fold(f64::INFINITY, f64::min);
                        let max = slice.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                        if slice.is_empty() {
                            (0.0, 0.0)
                        } else {
                            (min, max)
                        }
                    }
                };
                if !min.is_finite() || !max.is_finite() {
                    return Err(VdError::InvalidQuantization(format!(
                        "segment {:?} dim {d} has a non-finite value envelope [{min}, {max}]",
                        spec.range()
                    )));
                }
                per_dim.push(CodeParams::new(min, max, bits)?);
            }
            params.push(per_dim);
        }
        let mut columns = Vec::with_capacity(dims);
        let mut checksums = Vec::with_capacity(dims);
        for d in 0..dims {
            let values = table.column(d)?.values();
            if let Some(row) = values.iter().position(|v| !v.is_finite()) {
                return Err(VdError::InvalidQuantization(format!(
                    "dim {d} has a non-finite value at row {row}; codes would be garbage"
                )));
            }
            let mut codes = vec![0u8; rows];
            for (spec, segment_params) in specs.iter().zip(&params) {
                let grid = segment_params[d];
                for (c, &v) in codes[spec.range()].iter_mut().zip(&values[spec.range()]) {
                    *c = grid.encode(v);
                }
            }
            checksums.push(fnv1a(&codes));
            columns.push(CodeColumn::from_vec(codes));
        }
        Ok(StoreCodes {
            bits,
            rows,
            envelopes: unbuilt(specs.len()),
            specs: specs.to_vec(),
            params,
            columns,
            checksums,
        })
    }

    /// Reassembles codes parsed from a persisted store, whose reader has
    /// validated the width and every grid. Validates shape consistency;
    /// checksum verification happens at parse time.
    pub(crate) fn from_parts(
        bits: u8,
        rows: usize,
        specs: Vec<SegmentSpec>,
        params: Vec<Vec<CodeParams>>,
        columns: Vec<CodeColumn>,
        checksums: Vec<u64>,
    ) -> Result<Self> {
        if params.len() != specs.len() {
            return Err(VdError::Corrupt(format!(
                "code params cover {} segments, store has {}",
                params.len(),
                specs.len()
            )));
        }
        if checksums.len() != columns.len() {
            return Err(VdError::Corrupt(format!(
                "{} code checksums for {} code columns",
                checksums.len(),
                columns.len()
            )));
        }
        for column in &columns {
            if column.len() != rows {
                return Err(VdError::Corrupt(format!(
                    "code column holds {} rows, store has {rows}",
                    column.len()
                )));
            }
        }
        let envelopes = unbuilt(specs.len());
        Ok(StoreCodes { bits, rows, specs, params, columns, checksums, envelopes })
    }

    /// Bits per code, shared by every segment.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.columns.len()
    }

    /// Number of segments the codes were encoded over.
    pub fn n_segments(&self) -> usize {
        self.specs.len()
    }

    /// The segment boundaries the codes were encoded over.
    pub fn specs(&self) -> &[SegmentSpec] {
        &self.specs
    }

    /// Every segment's grids, in segment order, each indexed by dimension.
    pub(crate) fn params(&self) -> &[Vec<CodeParams>] {
        &self.params
    }

    /// The FNV-1a checksum of every dimension's code bytes, in dimension
    /// order.
    pub(crate) fn checksums(&self) -> &[u64] {
        &self.checksums
    }

    /// Every dimension's code column, in dimension order.
    pub(crate) fn columns(&self) -> &[CodeColumn] {
        &self.columns
    }

    /// The FNV-1a checksum of one dimension's code bytes.
    pub fn checksum(&self, dim: usize) -> Result<u64> {
        self.checksums
            .get(dim)
            .copied()
            .ok_or(VdError::DimOutOfBounds { dim, dims: self.checksums.len() })
    }

    /// One dimension's flat code bytes (all rows).
    pub fn dim_codes(&self, dim: usize) -> Result<&[u8]> {
        self.columns
            .get(dim)
            .map(CodeColumn::as_slice)
            .ok_or(VdError::DimOutOfBounds { dim, dims: self.columns.len() })
    }

    /// Whether any dimension's codes are mapped zero-copy from a file.
    pub fn is_mapped(&self) -> bool {
        self.columns.iter().any(CodeColumn::is_mapped)
    }

    /// Whether these codes were encoded over exactly the given segment
    /// boundaries — the precondition for using them in a segmented search.
    pub fn matches_specs(&self, specs: &[SegmentSpec]) -> bool {
        self.specs == specs
    }

    /// A view of one segment's codes: the per-dimension windows plus the
    /// grids that decode them.
    pub fn segment_view(&self, segment: usize) -> Result<SegmentCodesView<'_>> {
        let spec = *self.specs.get(segment).ok_or_else(|| {
            VdError::Corrupt(format!("segment {segment} of {} in codes", self.specs.len()))
        })?;
        Ok(SegmentCodesView { codes: self, segment, start: spec.start(), len: spec.len() })
    }
}

/// One segment's window into [`StoreCodes`]: local-row-indexed code slices
/// and the per-dimension grids of this segment.
#[derive(Debug, Clone, Copy)]
pub struct SegmentCodesView<'a> {
    codes: &'a StoreCodes,
    segment: usize,
    start: usize,
    len: usize,
}

impl<'a> SegmentCodesView<'a> {
    /// The grid of one dimension in this segment.
    #[inline]
    pub fn params(&self, dim: usize) -> CodeParams {
        self.codes.params[self.segment][dim]
    }

    /// This segment's code window of one dimension (local row indexing,
    /// same order as [`crate::Segment::col_slice`]).
    #[inline]
    pub fn dim_codes(&self, dim: usize) -> Result<&'a [u8]> {
        let all = self.codes.dim_codes(dim)?;
        Ok(&all[self.start..self.start + self.len])
    }

    /// Number of quantization levels of the grids.
    #[inline]
    pub fn levels(&self) -> usize {
        1usize << self.codes.bits
    }

    /// Bits per code.
    pub fn bits(&self) -> u8 {
        self.codes.bits
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.codes.dims()
    }

    /// Number of rows in this segment.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the segment is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// This segment's per-block code envelopes, derived from its code
    /// windows on the first call (any thread) and shared after that.
    pub fn block_envelopes(&self) -> &'a BlockEnvelopes {
        let codes = self.codes;
        codes.envelopes[self.segment].get_or_init(|| {
            let window = self.start..self.start + self.len;
            let windows: Vec<&[u8]> =
                codes.columns.iter().map(|column| &column.as_slice()[window.clone()]).collect();
            BlockEnvelopes::build(&windows)
        })
    }
}

/// One unbuilt envelope slot per segment.
fn unbuilt(segments: usize) -> Vec<OnceLock<BlockEnvelopes>> {
    (0..segments).map(|_| OnceLock::new()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn sample_table() -> (DecomposedTable, Vec<SegmentSpec>, Vec<SegmentStats>) {
        let vectors: Vec<Vec<f64>> = (0..12)
            .map(|r| (0..3).map(|d| ((r * 3 + d) as f64 * 0.37).sin().abs()).collect())
            .collect();
        let table = DecomposedTable::from_vectors("codes", &vectors).unwrap();
        let specs = table.partition_specs(3);
        let stats = specs.iter().map(|s| s.view(&table).unwrap().stats()).collect();
        (table, specs, stats)
    }

    #[test]
    fn params_encode_and_bracket() {
        let p = CodeParams::new(0.0, 1.0, 4).unwrap();
        assert_eq!(p.levels(), 16);
        for i in 0..100 {
            let v = i as f64 / 99.0;
            let code = p.encode(v);
            let (lo, hi) = p.cell_bounds(code);
            assert!(lo <= v + 1e-12 && v <= hi + 1e-12, "bracket broken at {v}");
            assert!((p.approximate(code) - v).abs() <= p.max_error() + 1e-12);
        }
        // out-of-range values clamp to edge cells
        assert_eq!(p.encode(-3.0), 0);
        assert_eq!(p.encode(3.0), 15);
        // more bits, narrower cells
        assert!(CodeParams::new(0.0, 1.0, 8).unwrap().max_error() < p.max_error());
        // degenerate range: one exact cell
        let flat = CodeParams::new(0.5, 0.5, 8).unwrap();
        assert_eq!(flat.encode(0.7), 0);
        assert_eq!(flat.cell_bounds(0), (0.5, 0.5));
        assert_eq!(flat.max_error(), 0.0);
    }

    #[test]
    fn params_validation() {
        assert!(CodeParams::new(0.0, 1.0, 0).is_err());
        assert!(CodeParams::new(0.0, 1.0, 9).is_err());
        assert!(CodeParams::new(1.0, 0.0, 8).is_err());
        assert!(CodeParams::new(f64::NAN, 1.0, 8).is_err());
        assert!(CodeParams::new(0.0, f64::INFINITY, 8).is_err());
    }

    #[test]
    fn build_brackets_every_live_value_per_segment() {
        let (table, specs, stats) = sample_table();
        let codes = StoreCodes::build(&table, &specs, &stats, 8).unwrap();
        assert_eq!(codes.rows(), 12);
        assert_eq!(codes.dims(), 3);
        assert_eq!(codes.n_segments(), 3);
        assert!(codes.matches_specs(&specs));
        assert!(!codes.is_mapped());
        for (si, spec) in specs.iter().enumerate() {
            let view = codes.segment_view(si).unwrap();
            assert_eq!(view.len(), spec.len());
            for d in 0..3 {
                let window = view.dim_codes(d).unwrap();
                let exact = &table.column(d).unwrap().values()[spec.range()];
                let grid = view.params(d);
                for (&code, &v) in window.iter().zip(exact) {
                    let (lo, hi) = grid.cell_bounds(code);
                    assert!(lo <= v + 1e-12 && v <= hi + 1e-12);
                }
            }
        }
    }

    #[test]
    fn segment_grids_are_tighter_than_global() {
        // clustered data: each segment covers a narrow value band, so the
        // per-segment grids must have (weakly) smaller cells than one
        // global grid would
        let vectors: Vec<Vec<f64>> =
            (0..30).map(|r| vec![(r / 10) as f64 + (r % 10) as f64 * 0.01]).collect();
        let table = DecomposedTable::from_vectors("bands", &vectors).unwrap();
        let specs = table.partition_specs(3);
        let stats: Vec<SegmentStats> =
            specs.iter().map(|s| s.view(&table).unwrap().stats()).collect();
        let codes = StoreCodes::build(&table, &specs, &stats, 8).unwrap();
        let global = CodeParams::new(0.0, 2.09, 8).unwrap();
        for si in 0..3 {
            let seg = codes.segment_view(si).unwrap().params(0);
            assert!(seg.max_error() < global.max_error());
        }
    }

    #[test]
    fn build_rejects_bad_inputs() {
        let (table, specs, stats) = sample_table();
        assert!(StoreCodes::build(&table, &specs, &stats, 0).is_err());
        assert!(StoreCodes::build(&table, &specs, &stats, 9).is_err());
        assert!(StoreCodes::build(&table, &specs, &stats[..2], 8).is_err());
        // a checked table refuses the NaN outright; a table a store reader
        // opened unchecked can still carry one, and the build must refuse it
        let vectors = [vec![0.1], vec![f64::NAN]];
        let err = DecomposedTable::from_vectors("nan", &vectors).unwrap_err();
        assert_eq!(err, VdError::NonFinite { row: 1, dim: 0 });
        let column = Column::from_values(vectors.iter().map(|v| v[0]).collect());
        let bad = DecomposedTable::from_columns_unchecked("nan", vec![column]).unwrap();
        let bad_specs = bad.partition_specs(1);
        let bad_stats: Vec<SegmentStats> =
            bad_specs.iter().map(|s| s.view(&bad).unwrap().stats()).collect();
        let err = StoreCodes::build(&bad, &bad_specs, &bad_stats, 8).unwrap_err();
        assert!(matches!(err, VdError::InvalidQuantization(_)));
    }

    #[test]
    fn checksums_cover_the_code_bytes() {
        let (table, specs, stats) = sample_table();
        let codes = StoreCodes::build(&table, &specs, &stats, 8).unwrap();
        for d in 0..3 {
            assert_eq!(codes.checksum(d).unwrap(), fnv1a(codes.dim_codes(d).unwrap()));
        }
        assert!(codes.checksum(7).is_err());
        assert!(codes.dim_codes(7).is_err());
    }
}
