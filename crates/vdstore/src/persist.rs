//! Binary persistence of decomposed tables.
//!
//! Two formats live here:
//!
//! * **v1 (`BONDVD01`)** — the original table-only stream: header, columns,
//!   tombstones. Kept for compatibility ([`table_to_bytes`] /
//!   [`table_from_bytes`] and the file wrappers).
//! * **v2 (`BONDVD02`)** — the *persistent segment store*: the same
//!   contiguous column fragments, 8-byte aligned so they can be viewed
//!   in-place through a file mapping, plus a **stats/zone-map footer**
//!   carrying the partition boundaries ([`SegmentSpec`]s) and the
//!   per-segment statistics ([`SegmentStats`]: per-dimension envelopes,
//!   row-sum ranges, live-row counts) a search planner needs *before* any
//!   data page is faulted in. A trailer at the end of the file locates the
//!   footer, so a cold open reads header + footer + trailer only — the
//!   fragments stay untouched until a search scans them.
//!
//! v2 layout (all integers little-endian):
//!
//! ```text
//! header  : magic 8 bytes = b"BONDVD02"
//!           name_len u32, name bytes (UTF-8)
//!           dims u32, rows u64
//!           zero padding to the next 8-byte boundary
//! data    : dims fragments, each rows * f64 — column after column,
//!           contiguous, every fragment 8-byte aligned
//! footer  : per column: name_len u32, name bytes
//!           n_deleted u32, n_deleted * u32 ascending row ids
//!           n_segments u32, per segment:
//!             start u64, len u64, live_rows u64
//!             row_sum_min f64, row_sum_max f64, row_sum_mean f64
//!             per dim: flag u8 (1 = stats follow):
//!               min f64, max f64, mean f64, variance f64, skewness f64
//!           per dim: fragment checksum u64 (FNV-1a over the fragment's
//!             bytes in the data region)
//!           learned_len u32, learned bytes (opaque learned-state payload;
//!             the execution engine writes none and ignores one it reads;
//!             0 = none)
//!           codes section (optional — present iff any footer bytes remain
//!             before the footer checksum; stores written without codes are
//!             byte-identical to the pre-codes format):
//!             bits u8 (1..=8), the width of every segment's codes
//!             per segment, per dim: code grid min f64, max f64
//!             per dim: rows bytes of u8 cell codes, segment windows
//!               encoded with that segment's grid
//!             per dim: code checksum u64 (FNV-1a over the dim's code bytes)
//!           footer checksum u64 (FNV-1a over all preceding footer bytes)
//! trailer : footer_offset u64, tail magic 8 bytes = b"BONDFT02"
//! ```
//!
//! Older writers could give each segment its own code width: a `bits` byte
//! of 0 followed by one width byte (1..=8) per segment. The reader still
//! parses and verifies that form, and opens it without codes — an engine
//! builds its one-width companion on first use.
//!
//! Fragment checksums are verified on heap opens (every fragment is being
//! decoded anyway) and, for mapped opens, on copy-on-write promotion — the
//! one moment corrupted mapped bytes would silently become the new heap
//! truth — surfacing as the typed [`VdError::ChecksumMismatch`]. The
//! footer itself (whose statistics and envelopes drive planning and
//! whole-segment skipping with no later cross-check) carries its own
//! checksum, verified on every open: the footer is read eagerly anyway,
//! so that check costs nothing extra.
//!
//! Note the checksum and learned-state sections extended the v2 footer *in
//! place* (the magic stays `BONDVD02`): this workspace owns both ends of
//! the format and regenerates its stores, so no version bump was spent on
//! the change — but a store written before the extension parses as
//! `Corrupt` (truncated checksum section), not `UnsupportedVersion`.
//! Readers that must bridge that gap should bump to `BONDVD03`.
//!
//! The segments must tile `0..rows` in row order — the invariant the
//! execution engine's merge relies on — and every structural violation
//! (bad magic, truncation, trailing bytes, overflowing counts, out-of-range
//! rows) surfaces as a typed [`VdError`], never a panic.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::bitmap::Bitmap;
use crate::checksum::{fnv1a, fnv1a_update, FNV_OFFSET};
use crate::codes::{CodeColumn, CodeParams, StoreCodes};
use crate::column::{Column, ColumnData};
use crate::error::{Result, VdError};
use crate::mmap::{MappedRegion, StorageBackend};
use crate::segment::{SegmentSpec, SegmentStats};
use crate::stats::ColumnStats;
use crate::table::DecomposedTable;
use crate::RowId;
use std::path::Path;

const MAGIC: &[u8; 8] = b"BONDVD01";
const MAGIC_V2: &[u8; 8] = b"BONDVD02";
const MAGIC_PREFIX: &[u8; 6] = b"BONDVD";
const TAIL_MAGIC_V2: &[u8; 8] = b"BONDFT02";
const TRAILER_LEN: usize = 16;
/// Newest store format version this build reads.
pub const STORE_VERSION: u32 = 2;

/// Serialises a table into a byte buffer (format v1, table only).
pub fn table_to_bytes(table: &DecomposedTable) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + table.rows() * table.dims() * 8);
    buf.put_slice(MAGIC);
    put_string(&mut buf, table.name());
    buf.put_u32_le(table.dims() as u32);
    buf.put_u64_le(table.rows() as u64);
    for c in table.columns() {
        put_string(&mut buf, c.name());
        for &v in c.values() {
            buf.put_f64_le(v);
        }
    }
    // tombstones: store as the list of deleted row ids (usually tiny)
    let deleted: Vec<u32> = (0..table.rows() as u32).filter(|&r| table.is_deleted(r)).collect();
    buf.put_u32_le(deleted.len() as u32);
    for r in deleted {
        buf.put_u32_le(r);
    }
    buf.freeze()
}

/// Reconstructs a table from a byte buffer produced by [`table_to_bytes`].
pub fn table_from_bytes(bytes: &[u8]) -> Result<DecomposedTable> {
    let mut buf = bytes;
    check_magic(&mut buf, MAGIC, 1)?;
    let name = get_string(&mut buf)?;
    if buf.remaining() < 12 {
        return Err(VdError::Corrupt("truncated header".into()));
    }
    let dims = buf.get_u32_le() as usize;
    let rows = checked_rows(buf.get_u64_le())?;
    if dims == 0 {
        return Err(VdError::Corrupt("zero dimensions".into()));
    }
    let column_bytes = rows
        .checked_mul(8)
        .ok_or_else(|| VdError::Corrupt("column byte length overflows".into()))?;
    let mut columns = Vec::with_capacity(dims.min(1024));
    for _ in 0..dims {
        let cname = get_string(&mut buf)?;
        if buf.remaining() < column_bytes {
            return Err(VdError::Corrupt("truncated column data".into()));
        }
        let mut values = Vec::with_capacity(rows);
        for _ in 0..rows {
            values.push(buf.get_f64_le());
        }
        columns.push(Column::new(cname, values));
    }
    let mut table = DecomposedTable::from_columns_unchecked(name, columns)?;
    if buf.remaining() < 4 {
        return Err(VdError::Corrupt("missing tombstone section".into()));
    }
    let n_deleted = buf.get_u32_le() as usize;
    let tombstone_bytes = n_deleted
        .checked_mul(4)
        .ok_or_else(|| VdError::Corrupt("tombstone byte length overflows".into()))?;
    if buf.remaining() < tombstone_bytes {
        return Err(VdError::Corrupt("truncated tombstone list".into()));
    }
    for _ in 0..n_deleted {
        let r = buf.get_u32_le();
        table.delete(r)?;
    }
    if buf.remaining() != 0 {
        return Err(VdError::Corrupt(format!(
            "{} trailing bytes after the tombstone list",
            buf.remaining()
        )));
    }
    Ok(table)
}

/// Writes a table to a file (format v1).
pub fn save_table(table: &DecomposedTable, path: &Path) -> Result<()> {
    let bytes = table_to_bytes(table);
    std::fs::write(path, &bytes)
        .map_err(|e| VdError::Io(format!("writing {}: {e}", path.display())))
}

/// Reads a table from a file (format v1).
pub fn load_table(path: &Path) -> Result<DecomposedTable> {
    let bytes =
        std::fs::read(path).map_err(|e| VdError::Io(format!("reading {}: {e}", path.display())))?;
    table_from_bytes(&bytes)
}

/// Serialises only the live-row bitmap of a table (useful for persisting the
/// result of a prior selection predicate to combine with k-NN search).
pub fn bitmap_to_bytes(bitmap: &Bitmap) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u64_le(bitmap.len() as u64);
    for row in bitmap.iter() {
        buf.put_u32_le(row);
    }
    buf.freeze()
}

/// Reconstructs a bitmap from [`bitmap_to_bytes`] output.
pub fn bitmap_from_bytes(bytes: &[u8]) -> Result<Bitmap> {
    let mut buf = bytes;
    if buf.remaining() < 8 {
        return Err(VdError::Corrupt("bitmap buffer too short".into()));
    }
    let len = checked_rows(buf.get_u64_le())?;
    if !buf.remaining().is_multiple_of(4) {
        return Err(VdError::Corrupt(format!(
            "{} trailing bytes after the last whole row id",
            buf.remaining() % 4
        )));
    }
    let mut b = Bitmap::new(len);
    while buf.remaining() >= 4 {
        let row = buf.get_u32_le();
        if (row as usize) >= len {
            return Err(VdError::Corrupt(format!("bitmap row {row} out of range {len}")));
        }
        b.set(row);
    }
    Ok(b)
}

// ---------------------------------------------------------------------------
// v2: the persistent segment store
// ---------------------------------------------------------------------------

/// A reopened persistent segment store: the table plus the partition
/// boundaries and per-segment statistics its footer carried, ready to feed
/// an execution engine without recomputing anything.
#[derive(Debug, Clone)]
pub struct PersistedStore {
    /// The reopened table (heap- or mapping-backed columns).
    pub table: DecomposedTable,
    /// The persisted partition boundaries, in row order, tiling the table.
    pub specs: Vec<SegmentSpec>,
    /// The persisted per-segment statistics, parallel to `specs`.
    pub stats: Vec<SegmentStats>,
    /// The backend actually serving the column data (a mapped-open request
    /// falls back to [`StorageBackend::Heap`] where mapping is unsupported).
    pub backend: StorageBackend,
    /// The per-fragment FNV-1a checksums from the footer, in dimension
    /// order (verified already for heap opens; carried by the mapped
    /// columns for promotion-time verification).
    pub fragment_checksums: Vec<u64>,
    /// The opaque learned-state payload persisted alongside the footer,
    /// when one was written (the execution engine writes none and ignores
    /// one it reads).
    pub learned: Option<Vec<u8>>,
    /// The per-segment quantized code companions from the footer, when the
    /// store was written with them ([`save_store_with_codes`]) — a cold
    /// open hands the engine's quantized filter its codes without touching
    /// a single exact fragment. Mapped opens expose them zero-copy.
    pub codes: Option<StoreCodes>,
    /// Wall time [`open_store`] (or [`store_from_bytes`]) spent producing
    /// this value, in microseconds — the cold-open cost an engine records
    /// as `store.open.cold_us`. Under [`StorageBackend::Mapped`] this
    /// covers only the eager header/footer work; data pages fault in
    /// lazily afterwards. Zero for hand-assembled stores.
    pub open_micros: u64,
}

/// What one store write cost: returned by [`save_store`] and
/// [`write_store`] so callers (e.g. an engine's `persist`) can feed their
/// observability layer without re-statting the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistReport {
    /// Total bytes written (header + data region + footer + trailer).
    pub bytes_written: u64,
    /// Wall time of the write, in microseconds.
    pub elapsed_micros: u64,
}

/// The v2 header: magic, name, dims, rows, zero-padded to the next 8-byte
/// boundary so the data region (and every fragment in it) stays aligned.
fn store_header(table: &DecomposedTable) -> BytesMut {
    let mut buf = BytesMut::with_capacity(32 + table.name().len());
    buf.put_slice(MAGIC_V2);
    put_string(&mut buf, table.name());
    buf.put_u32_le(table.dims() as u32);
    buf.put_u64_le(table.rows() as u64);
    while !buf.len().is_multiple_of(8) {
        buf.put_u8(0);
    }
    buf
}

/// The v2 footer: column names, tombstones, segment boundaries + stats,
/// per-fragment checksums and the optional learned-state payload.
fn store_footer(
    table: &DecomposedTable,
    specs: &[SegmentSpec],
    stats: &[SegmentStats],
    checksums: &[u64],
    learned: Option<&[u8]>,
    codes: Option<&StoreCodes>,
) -> BytesMut {
    let mut buf = BytesMut::with_capacity(
        64 + specs.len() * (48 + table.dims() * 41)
            + checksums.len() * 8
            + learned.map_or(0, <[u8]>::len)
            + codes.map_or(0, |c| c.rows() * c.dims() + c.n_segments() * c.dims() * 16),
    );
    for c in table.columns() {
        put_string(&mut buf, c.name());
    }
    let deleted: Vec<u32> = (0..table.rows() as u32).filter(|&r| table.is_deleted(r)).collect();
    buf.put_u32_le(deleted.len() as u32);
    for r in deleted {
        buf.put_u32_le(r);
    }
    buf.put_u32_le(specs.len() as u32);
    for (spec, stat) in specs.iter().zip(stats) {
        buf.put_u64_le(spec.start() as u64);
        buf.put_u64_le(spec.len() as u64);
        buf.put_u64_le(stat.live_rows as u64);
        buf.put_f64_le(stat.row_sum_min);
        buf.put_f64_le(stat.row_sum_max);
        buf.put_f64_le(stat.row_sum_mean);
        for per_dim in &stat.per_dim {
            match per_dim {
                Some(s) => {
                    buf.put_u8(1);
                    buf.put_f64_le(s.min);
                    buf.put_f64_le(s.max);
                    buf.put_f64_le(s.mean);
                    buf.put_f64_le(s.variance);
                    buf.put_f64_le(s.skewness);
                }
                None => buf.put_u8(0),
            }
        }
    }
    for &checksum in checksums {
        buf.put_u64_le(checksum);
    }
    let learned = learned.unwrap_or(&[]);
    buf.put_u32_le(learned.len() as u32);
    buf.put_slice(learned);
    if let Some(codes) = codes {
        buf.put_u8(codes.bits());
        for grid in codes.params().iter().flatten() {
            buf.put_f64_le(grid.min);
            buf.put_f64_le(grid.max);
        }
        for column in codes.columns() {
            buf.put_slice(column.as_slice());
        }
        for &checksum in codes.checksums() {
            buf.put_u64_le(checksum);
        }
    }
    buf
}

/// Serialises a table plus its partition boundaries and cached per-segment
/// statistics into the v2 store format, in memory, computing each
/// fragment's FNV-1a checksum as it is written and embedding `learned` (an
/// opaque learned-state payload) in the footer. For large collections prefer [`save_store`], which streams the
/// data region to disk instead of materialising a second copy of every
/// fragment.
///
/// # Errors
///
/// [`VdError::InvalidArgument`] when `stats` is not parallel to `specs`,
/// a stats entry covers a different range than its spec, a stats entry's
/// dimensionality differs from the table's, or the specs do not tile the
/// table's rows in order.
pub fn store_to_bytes(
    table: &DecomposedTable,
    specs: &[SegmentSpec],
    stats: &[SegmentStats],
    learned: Option<&[u8]>,
) -> Result<Bytes> {
    store_to_bytes_with_codes(table, specs, stats, learned, None)
}

/// [`store_to_bytes`] plus an optional quantized-code companion persisted
/// in the footer's codes section. Writing `None` produces bytes identical
/// to [`store_to_bytes`]; the codes must cover exactly this table and these
/// segment boundaries.
pub fn store_to_bytes_with_codes(
    table: &DecomposedTable,
    specs: &[SegmentSpec],
    stats: &[SegmentStats],
    learned: Option<&[u8]>,
    codes: Option<&StoreCodes>,
) -> Result<Bytes> {
    validate_write_inputs(table, specs, stats, codes)?;
    let mut buf = Vec::with_capacity(4096 + table.rows() * table.dims() * 8);
    write_v2(&mut buf, table, specs, stats, learned, codes)
        .map_err(|e| VdError::Io(format!("serialising the store: {e}")))?;
    Ok(Bytes::from(buf))
}

/// Writes the v2 store to a file, streaming the data region through a
/// buffered writer — peak extra memory is one I/O buffer plus the footer,
/// not a second copy of the table, so collections near (or beyond, under
/// [`StorageBackend::Mapped`]) RAM size can still be persisted. Fragment
/// checksums are folded incrementally over the streamed chunks. Same
/// validation and byte-exact output as [`store_to_bytes`]. Returns a
/// [`PersistReport`] with the bytes written and the wall time spent.
pub fn save_store(
    table: &DecomposedTable,
    specs: &[SegmentSpec],
    stats: &[SegmentStats],
    learned: Option<&[u8]>,
    path: &Path,
) -> Result<PersistReport> {
    save_store_with_codes(table, specs, stats, learned, None, path)
}

/// [`save_store`] plus an optional quantized-code companion persisted in
/// the footer's codes section — same streaming, same byte-exact agreement
/// with [`store_to_bytes_with_codes`].
pub fn save_store_with_codes(
    table: &DecomposedTable,
    specs: &[SegmentSpec],
    stats: &[SegmentStats],
    learned: Option<&[u8]>,
    codes: Option<&StoreCodes>,
    path: &Path,
) -> Result<PersistReport> {
    use std::io::Write;
    let started = std::time::Instant::now();
    validate_write_inputs(table, specs, stats, codes)?;
    let io_err = |e: std::io::Error| VdError::Io(format!("writing {}: {e}", path.display()));
    let file = std::fs::File::create(path).map_err(io_err)?;
    let mut w = std::io::BufWriter::new(file);
    let bytes_written = write_v2(&mut w, table, specs, stats, learned, codes).map_err(io_err)?;
    w.flush().map_err(io_err)?;
    Ok(PersistReport { bytes_written, elapsed_micros: started.elapsed().as_micros() as u64 })
}

/// Both writers' input checks: the segment layout, and the code companion
/// when one is written.
fn validate_write_inputs(
    table: &DecomposedTable,
    specs: &[SegmentSpec],
    stats: &[SegmentStats],
    codes: Option<&StoreCodes>,
) -> Result<()> {
    validate_store_inputs(table, specs, stats)?;
    codes.map_or(Ok(()), |codes| validate_codes_inputs(table, specs, codes))
}

/// The one v2 serialiser, over any [`std::io::Write`]: header, the data
/// region in 8 192-value chunks with each fragment's FNV-1a folded over
/// its chunks, footer, footer checksum, footer offset and tail magic.
/// Inputs must already have passed [`validate_write_inputs`]. Returns the
/// bytes written.
fn write_v2(
    w: &mut impl std::io::Write,
    table: &DecomposedTable,
    specs: &[SegmentSpec],
    stats: &[SegmentStats],
    learned: Option<&[u8]>,
    codes: Option<&StoreCodes>,
) -> std::io::Result<u64> {
    let header = store_header(table);
    w.write_all(&header)?;
    let mut scratch = Vec::with_capacity(8 * 8192);
    let mut checksums = Vec::with_capacity(table.dims());
    for c in table.columns() {
        let mut hash = FNV_OFFSET;
        for chunk in c.values().chunks(8192) {
            scratch.clear();
            for &v in chunk {
                scratch.extend_from_slice(&v.to_le_bytes());
            }
            hash = fnv1a_update(hash, &scratch);
            w.write_all(&scratch)?;
        }
        checksums.push(hash);
    }
    let footer_offset = (header.len() + table.rows() * table.dims() * 8) as u64;
    let footer = store_footer(table, specs, stats, &checksums, learned, codes);
    w.write_all(&footer)?;
    w.write_all(&fnv1a(&footer).to_le_bytes())?;
    w.write_all(&footer_offset.to_le_bytes())?;
    w.write_all(TAIL_MAGIC_V2)?;
    Ok(footer_offset + footer.len() as u64 + 8 + TRAILER_LEN as u64)
}

/// Partitions the table, computes the per-segment statistics, and writes the
/// v2 store in one call — the convenience entry point for callers that do
/// not already hold cached statistics (the execution engine does, and passes
/// them to [`save_store_with_codes`] directly).
pub fn write_store(
    table: &DecomposedTable,
    partitions: usize,
    path: &Path,
) -> Result<PersistReport> {
    let specs = table.partition_specs(partitions);
    let stats: Vec<SegmentStats> =
        specs.iter().map(|s| s.view(table).expect("spec in range").stats()).collect();
    save_store(table, &specs, &stats, None, path)
}

/// Reconstructs a store from an in-memory v2 byte buffer (heap columns).
/// Every fragment is checksum-verified as it is decoded.
pub fn store_from_bytes(bytes: &[u8]) -> Result<PersistedStore> {
    let started = std::time::Instant::now();
    let layout = parse_layout(bytes)?;
    let rows = layout.rows;
    let columns: Result<Vec<Column>> = layout
        .column_names
        .iter()
        .enumerate()
        .map(|(d, name)| {
            let start = layout.data_offset + d * rows * 8;
            let fragment = &bytes[start..start + rows * 8];
            let actual = fnv1a(fragment);
            if actual != layout.checksums[d] {
                return Err(VdError::ChecksumMismatch {
                    column: name.clone(),
                    expected: layout.checksums[d],
                    actual,
                });
            }
            let mut window = fragment;
            let mut values = Vec::with_capacity(rows);
            for _ in 0..rows {
                values.push(window.get_f64_le());
            }
            Ok(Column::new(name.clone(), values))
        })
        .collect();
    let code_columns = layout.codes.as_ref().map(|c| {
        c.dim_offsets
            .iter()
            .map(|&offset| CodeColumn::from_vec(bytes[offset..offset + rows].to_vec()))
            .collect()
    });
    let mut store = assemble_store(layout, columns?, code_columns, StorageBackend::Heap)?;
    store.open_micros = started.elapsed().as_micros() as u64;
    Ok(store)
}

/// Opens a v2 store file.
///
/// With [`StorageBackend::Mapped`] the column fragments are *viewed* through
/// a read-only file mapping: only the header/footer/trailer pages are read
/// eagerly, the data pages fault in lazily as searches touch them (which is
/// also why checksums are *not* verified here — each mapped fragment
/// carries its expected checksum and verifies on copy-on-write promotion
/// instead). Where mapping is unsupported (non-unix, big-endian) the call
/// transparently falls back to buffered heap reads, which verify every
/// fragment eagerly — [`PersistedStore::backend`] reports what is actually
/// in effect.
pub fn open_store(path: &Path, backend: StorageBackend) -> Result<PersistedStore> {
    let started = std::time::Instant::now();
    if backend == StorageBackend::Mapped && StorageBackend::mapping_supported() {
        let region = MappedRegion::map_file(path)?;
        let layout = parse_layout(region.as_bytes())?;
        let rows = layout.rows;
        let columns: Result<Vec<Column>> = layout
            .column_names
            .iter()
            .enumerate()
            .map(|(d, name)| {
                let data = ColumnData::mapped(
                    region.clone(),
                    layout.data_offset + d * rows * 8,
                    rows,
                    Some(layout.checksums[d]),
                )?;
                Ok(Column::from_data(name.clone(), data))
            })
            .collect();
        let code_columns = match layout.codes.as_ref() {
            Some(c) => Some(
                c.dim_offsets
                    .iter()
                    .map(|&offset| CodeColumn::mapped(region.clone(), offset, rows))
                    .collect::<Result<Vec<_>>>()?,
            ),
            None => None,
        };
        let mut store = assemble_store(layout, columns?, code_columns, StorageBackend::Mapped)?;
        store.open_micros = started.elapsed().as_micros() as u64;
        return Ok(store);
    }
    let bytes =
        std::fs::read(path).map_err(|e| VdError::Io(format!("reading {}: {e}", path.display())))?;
    let mut store = store_from_bytes(&bytes)?;
    store.open_micros = started.elapsed().as_micros() as u64;
    Ok(store)
}

/// Everything the v2 header, footer and trailer describe — parsed and
/// validated without touching a single byte of the data region.
struct StoreLayout {
    name: String,
    rows: usize,
    data_offset: usize,
    column_names: Vec<String>,
    deleted: Vec<RowId>,
    specs: Vec<SegmentSpec>,
    stats: Vec<SegmentStats>,
    checksums: Vec<u64>,
    learned: Option<Vec<u8>>,
    codes: Option<CodesLayout>,
}

/// Where the footer's codes section sits and how to decode it: per-segment
/// grids plus the absolute file offset of each dimension's code bytes (the
/// mapped backend views them zero-copy at exactly those offsets).
struct CodesLayout {
    bits: u8,
    params: Vec<Vec<CodeParams>>,
    dim_offsets: Vec<usize>,
    checksums: Vec<u64>,
}

fn parse_layout(bytes: &[u8]) -> Result<StoreLayout> {
    let mut buf = bytes;
    check_magic(&mut buf, MAGIC_V2, STORE_VERSION)?;
    let name = get_string(&mut buf)?;
    if buf.remaining() < 12 {
        return Err(VdError::Corrupt("truncated store header".into()));
    }
    let dims = buf.get_u32_le() as usize;
    let rows = checked_rows(buf.get_u64_le())?;
    if dims == 0 {
        return Err(VdError::Corrupt("zero dimensions".into()));
    }
    let header_len = bytes.len() - buf.remaining();
    let data_offset = header_len.div_ceil(8) * 8;
    let data_len = dims
        .checked_mul(rows)
        .and_then(|n| n.checked_mul(8))
        .ok_or_else(|| VdError::Corrupt("data region length overflows".into()))?;
    let footer_offset = data_offset
        .checked_add(data_len)
        .ok_or_else(|| VdError::Corrupt("footer offset overflows".into()))?;
    let min_len = footer_offset
        .checked_add(TRAILER_LEN)
        .ok_or_else(|| VdError::Corrupt("store length overflows".into()))?;
    if bytes.len() < min_len {
        return Err(VdError::Corrupt("store truncated before its footer".into()));
    }
    let mut trailer = &bytes[bytes.len() - TRAILER_LEN..];
    let trailer_footer_offset = trailer.get_u64_le();
    if trailer != TAIL_MAGIC_V2.as_slice() {
        return Err(VdError::Corrupt("bad trailer magic".into()));
    }
    if trailer_footer_offset != footer_offset as u64 {
        return Err(VdError::Corrupt(format!(
            "trailer footer offset {trailer_footer_offset} disagrees with header-derived \
             offset {footer_offset}"
        )));
    }
    // header padding must be zero bytes
    if bytes[header_len..data_offset].iter().any(|&b| b != 0) {
        return Err(VdError::Corrupt("non-zero header padding".into()));
    }

    let footer_region = &bytes[footer_offset..bytes.len() - TRAILER_LEN];
    if footer_region.len() < 8 {
        return Err(VdError::Corrupt("footer shorter than its checksum".into()));
    }
    let (footer_bytes, stored) = footer_region.split_at(footer_region.len() - 8);
    let stored = u64::from_le_bytes(stored.try_into().expect("8-byte split"));
    let actual = fnv1a(footer_bytes);
    if actual != stored {
        // the footer drives segment skipping (envelopes) and planning
        // (statistics) without any later cross-check, so unlike the lazily
        // verified data region it is verified on *every* open — it is read
        // eagerly anyway, so the check is near-free
        return Err(VdError::Corrupt(format!(
            "footer checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
        )));
    }
    let mut footer = footer_bytes;
    let column_names: Vec<String> =
        (0..dims).map(|_| get_string(&mut footer)).collect::<Result<_>>()?;

    let n_deleted = read_u32(&mut footer, "tombstone count")? as usize;
    let mut deleted = Vec::with_capacity(n_deleted.min(rows + 1));
    let mut previous: Option<RowId> = None;
    for _ in 0..n_deleted {
        let row = read_u32(&mut footer, "tombstone row id")?;
        if row as usize >= rows {
            return Err(VdError::Corrupt(format!("tombstoned row {row} out of range {rows}")));
        }
        if previous.is_some_and(|p| p >= row) {
            return Err(VdError::Corrupt("tombstone row ids not strictly ascending".into()));
        }
        previous = Some(row);
        deleted.push(row);
    }

    let n_segments = read_u32(&mut footer, "segment count")? as usize;
    let mut specs = Vec::with_capacity(n_segments.min(rows + 1));
    let mut stats = Vec::with_capacity(n_segments.min(rows + 1));
    let mut next_start = 0usize;
    for _ in 0..n_segments {
        let start = checked_rows(read_u64(&mut footer, "segment start")?)?;
        let len = checked_rows(read_u64(&mut footer, "segment length")?)?;
        if start != next_start || len == 0 {
            return Err(VdError::Corrupt(format!(
                "segments must tile the table in row order: got start {start}, length {len}, \
                 expected start {next_start}"
            )));
        }
        next_start = start.checked_add(len).filter(|&end| end <= rows).ok_or_else(|| {
            VdError::Corrupt(format!("segment {start}+{len} exceeds {rows} rows"))
        })?;
        let live_rows = checked_rows(read_u64(&mut footer, "live-row count")?)?;
        if live_rows > len {
            return Err(VdError::Corrupt(format!(
                "segment claims {live_rows} live rows in {len} rows"
            )));
        }
        let row_sum_min = read_f64(&mut footer, "row-sum minimum")?;
        let row_sum_max = read_f64(&mut footer, "row-sum maximum")?;
        let row_sum_mean = read_f64(&mut footer, "row-sum mean")?;
        let per_dim: Vec<Option<ColumnStats>> = (0..dims)
            .map(|d| match read_u8(&mut footer, "per-dimension stats flag")? {
                0 => Ok(None),
                1 => Ok(Some(ColumnStats {
                    name: column_names[d].clone(),
                    min: read_f64(&mut footer, "dimension minimum")?,
                    max: read_f64(&mut footer, "dimension maximum")?,
                    mean: read_f64(&mut footer, "dimension mean")?,
                    variance: read_f64(&mut footer, "dimension variance")?,
                    skewness: read_f64(&mut footer, "dimension skewness")?,
                })),
                flag => Err(VdError::Corrupt(format!("invalid stats flag {flag}"))),
            })
            .collect::<Result<_>>()?;
        specs.push(SegmentSpec::new(start, len));
        stats.push(SegmentStats {
            range: start..start + len,
            per_dim,
            live_rows,
            row_sum_min,
            row_sum_max,
            row_sum_mean,
        });
    }
    if next_start != rows {
        return Err(VdError::Corrupt(format!(
            "segments cover rows 0..{next_start} of a table with {rows} rows"
        )));
    }
    let checksums: Vec<u64> =
        (0..dims).map(|_| read_u64(&mut footer, "fragment checksum")).collect::<Result<_>>()?;
    let learned_len = read_u32(&mut footer, "learned-state length")? as usize;
    let learned = if learned_len == 0 {
        None
    } else {
        if footer.remaining() < learned_len {
            return Err(VdError::Corrupt("truncated learned-state payload".into()));
        }
        let mut payload = vec![0u8; learned_len];
        footer.copy_to_slice(&mut payload);
        Some(payload)
    };
    // anything left before the footer checksum is the codes section; a
    // pre-codes store ends exactly here and parses as "no codes"
    let codes = if footer.is_empty() {
        None
    } else {
        let bits = read_u8(&mut footer, "code bits")?;
        if bits > 8 {
            return Err(VdError::Corrupt(format!("code bits {bits} outside 1..=8")));
        }
        // bits == 0 is the mixed-width sentinel of older writers: one width
        // byte per segment follows. It is parsed and verified like the
        // one-width form, then dropped (see the module docs).
        let widths: Vec<u8> = if bits == 0 {
            let mut widths = Vec::with_capacity(specs.len());
            for _ in 0..specs.len() {
                let b = read_u8(&mut footer, "per-segment code bits")?;
                if b == 0 || b > 8 {
                    return Err(VdError::Corrupt(format!(
                        "per-segment code bits {b} outside 1..=8"
                    )));
                }
                widths.push(b);
            }
            widths
        } else {
            vec![bits; specs.len()]
        };
        let mut params = Vec::with_capacity(specs.len());
        for (spec, &width) in specs.iter().zip(&widths) {
            let mut per_dim = Vec::with_capacity(dims);
            for _ in 0..dims {
                let min = read_f64(&mut footer, "code grid minimum")?;
                let max = read_f64(&mut footer, "code grid maximum")?;
                per_dim.push(CodeParams::new(min, max, width).map_err(|e| {
                    VdError::Corrupt(format!("segment {:?} code grid: {e}", spec.range()))
                })?);
            }
            params.push(per_dim);
        }
        let mut dim_offsets = Vec::with_capacity(dims);
        for _ in 0..dims {
            if footer.remaining() < rows {
                return Err(VdError::Corrupt("truncated code bytes".into()));
            }
            let consumed = footer_bytes.len() - footer.remaining();
            dim_offsets.push(footer_offset + consumed);
            footer = &footer[rows..];
        }
        let code_checksums: Vec<u64> =
            (0..dims).map(|_| read_u64(&mut footer, "code checksum")).collect::<Result<_>>()?;
        for (d, &offset) in dim_offsets.iter().enumerate() {
            let local = offset - footer_offset;
            let actual = fnv1a(&footer_bytes[local..local + rows]);
            if actual != code_checksums[d] {
                return Err(VdError::ChecksumMismatch {
                    column: format!("{}.codes", column_names[d]),
                    expected: code_checksums[d],
                    actual,
                });
            }
        }
        (bits != 0).then_some(CodesLayout { bits, params, dim_offsets, checksums: code_checksums })
    };
    if !footer.is_empty() {
        return Err(VdError::Corrupt(format!("{} trailing bytes in footer", footer.len())));
    }
    Ok(StoreLayout {
        name,
        rows,
        data_offset,
        column_names,
        deleted,
        specs,
        stats,
        checksums,
        learned,
        codes,
    })
}

fn assemble_store(
    layout: StoreLayout,
    columns: Vec<Column>,
    code_columns: Option<Vec<CodeColumn>>,
    backend: StorageBackend,
) -> Result<PersistedStore> {
    let codes = match (layout.codes, code_columns) {
        (Some(c), Some(code_columns)) => Some(StoreCodes::from_parts(
            c.bits,
            layout.rows,
            layout.specs.clone(),
            c.params,
            code_columns,
            c.checksums,
        )?),
        _ => None,
    };
    let mut tombstones = Bitmap::new(layout.rows);
    for &row in &layout.deleted {
        tombstones.set(row);
    }
    let table = DecomposedTable::from_parts_unchecked(layout.name, columns, tombstones)?;
    Ok(PersistedStore {
        table,
        specs: layout.specs,
        stats: layout.stats,
        backend,
        fragment_checksums: layout.checksums,
        learned: layout.learned,
        codes,
        open_micros: 0,
    })
}

/// Checks that a code companion covers exactly this table and these segment
/// boundaries — the writer-side invariant of the footer's codes section.
fn validate_codes_inputs(
    table: &DecomposedTable,
    specs: &[SegmentSpec],
    codes: &StoreCodes,
) -> Result<()> {
    if codes.rows() != table.rows() || codes.dims() != table.dims() {
        return Err(VdError::InvalidArgument(format!(
            "codes cover {} rows x {} dims, table holds {} x {}",
            codes.rows(),
            codes.dims(),
            table.rows(),
            table.dims()
        )));
    }
    if !codes.matches_specs(specs) {
        return Err(VdError::InvalidArgument(
            "codes were encoded over different segment boundaries than the store's".into(),
        ));
    }
    Ok(())
}

/// Checks that `specs`/`stats` describe a valid segment layout for `table`:
/// parallel, non-empty specs tiling `0..rows` in order, each stats entry
/// covering exactly its spec's range with the table's dimensionality. Both
/// store writers call this before serialising, and the execution engine
/// applies the same check to layouts handed to it directly (e.g. a
/// hand-assembled `PersistedStore`) — one validator, one invariant.
///
/// # Errors
///
/// [`VdError::InvalidArgument`] naming the violated invariant.
pub fn validate_store_inputs(
    table: &DecomposedTable,
    specs: &[SegmentSpec],
    stats: &[SegmentStats],
) -> Result<()> {
    if specs.len() != stats.len() {
        return Err(VdError::InvalidArgument(format!(
            "{} segment specs but {} stats entries",
            specs.len(),
            stats.len()
        )));
    }
    let mut next_start = 0usize;
    for (spec, stat) in specs.iter().zip(stats) {
        if spec.start() != next_start || spec.is_empty() || spec.range().end > table.rows() {
            return Err(VdError::InvalidArgument(format!(
                "segment specs must tile the table's {} rows in order; offending spec {:?}",
                table.rows(),
                spec
            )));
        }
        next_start = spec.range().end;
        if stat.spec() != *spec {
            return Err(VdError::InvalidArgument(format!(
                "stats cover {:?} but the spec covers {:?}",
                stat.range,
                spec.range()
            )));
        }
        if stat.per_dim.len() != table.dims() {
            return Err(VdError::InvalidArgument(format!(
                "stats carry {} dimensions, table has {}",
                stat.per_dim.len(),
                table.dims()
            )));
        }
    }
    if next_start != table.rows() {
        return Err(VdError::InvalidArgument(format!(
            "segment specs cover rows 0..{next_start} of a table with {} rows",
            table.rows()
        )));
    }
    Ok(())
}

/// Checks an 8-byte magic whose last two bytes are the ASCII version. A
/// recognised prefix with a different version reports
/// [`VdError::UnsupportedVersion`]; anything else is [`VdError::Corrupt`].
fn check_magic(buf: &mut &[u8], expected: &[u8; 8], expected_version: u32) -> Result<()> {
    if buf.remaining() < expected.len() {
        return Err(VdError::Corrupt("buffer shorter than magic".into()));
    }
    let mut magic = [0u8; 8];
    buf.copy_to_slice(&mut magic);
    if &magic == expected {
        return Ok(());
    }
    if &magic[..6] == MAGIC_PREFIX {
        if let Some(found) = std::str::from_utf8(&magic[6..]).ok().and_then(|v| v.parse().ok()) {
            return Err(VdError::UnsupportedVersion { found, supported: expected_version });
        }
    }
    Err(VdError::Corrupt(format!("bad magic {magic:?}")))
}

fn checked_rows(rows: u64) -> Result<usize> {
    // RowIds are u32: anything larger cannot be addressed and is rejected
    // before it can drive an oversized allocation.
    if rows > u32::MAX as u64 {
        return Err(VdError::Corrupt(format!("row count {rows} exceeds the u32 row-id space")));
    }
    Ok(rows as usize)
}

fn read_u8(buf: &mut &[u8], what: &str) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(VdError::Corrupt(format!("truncated {what}")));
    }
    Ok(buf.get_u8())
}

fn read_u32(buf: &mut &[u8], what: &str) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(VdError::Corrupt(format!("truncated {what}")));
    }
    Ok(buf.get_u32_le())
}

fn read_u64(buf: &mut &[u8], what: &str) -> Result<u64> {
    if buf.remaining() < 8 {
        return Err(VdError::Corrupt(format!("truncated {what}")));
    }
    Ok(buf.get_u64_le())
}

fn read_f64(buf: &mut &[u8], what: &str) -> Result<f64> {
    if buf.remaining() < 8 {
        return Err(VdError::Corrupt(format!("truncated {what}")));
    }
    Ok(buf.get_f64_le())
}

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_string(buf: &mut &[u8]) -> Result<String> {
    if buf.remaining() < 4 {
        return Err(VdError::Corrupt("truncated string length".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(VdError::Corrupt("truncated string".into()));
    }
    let mut bytes = vec![0u8; len];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|e| VdError::Corrupt(format!("invalid utf-8: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DecomposedTable {
        let mut t = DecomposedTable::from_vectors(
            "corel_sample",
            &[vec![0.1, 0.9], vec![0.5, 0.5], vec![0.8, 0.2]],
        )
        .unwrap();
        t.delete(1).unwrap();
        t
    }

    fn sample_store_bytes(partitions: usize) -> Bytes {
        let t = sample();
        let specs = t.partition_specs(partitions);
        let stats: Vec<SegmentStats> = specs.iter().map(|s| s.view(&t).unwrap().stats()).collect();
        store_to_bytes(&t, &specs, &stats, None).unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample();
        let bytes = table_to_bytes(&t);
        let back = table_from_bytes(&bytes).unwrap();
        assert_eq!(back.name(), "corel_sample");
        assert_eq!(back.dims(), 2);
        assert_eq!(back.rows(), 3);
        assert_eq!(back.row(0).unwrap(), t.row(0).unwrap());
        assert!(back.is_deleted(1));
        assert_eq!(back.live_rows(), 2);
        assert_eq!(back.column(0).unwrap().name(), "dim_0");
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        let t = sample();
        let bytes = table_to_bytes(&t);
        assert!(table_from_bytes(&[]).is_err());
        assert!(table_from_bytes(&bytes[..4]).is_err());
        let mut bad_magic = bytes.to_vec();
        bad_magic[0] = b'X';
        assert!(table_from_bytes(&bad_magic).is_err());
        let truncated = &bytes[..bytes.len() - 8];
        assert!(table_from_bytes(truncated).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let t = sample();
        let mut padded = table_to_bytes(&t).to_vec();
        padded.push(0);
        let err = table_from_bytes(&padded).unwrap_err();
        assert!(matches!(err, VdError::Corrupt(ref msg) if msg.contains("trailing")), "{err}");
    }

    #[test]
    fn version_mismatch_is_typed() {
        // a v2 store pushed through the v1 reader reports the version gap
        let bytes = sample_store_bytes(2);
        assert_eq!(
            table_from_bytes(&bytes).unwrap_err(),
            VdError::UnsupportedVersion { found: 2, supported: 1 }
        );
        // and vice versa
        let v1 = table_to_bytes(&sample());
        assert_eq!(
            store_from_bytes(&v1).unwrap_err(),
            VdError::UnsupportedVersion { found: 1, supported: 2 }
        );
        // an unrecognisable version suffix is plain corruption
        let mut weird = v1.to_vec();
        weird[6] = b'x';
        weird[7] = b'y';
        assert!(matches!(table_from_bytes(&weird), Err(VdError::Corrupt(_))));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("vdstore_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table.bondvd");
        let t = sample();
        save_table(&t, &path).unwrap();
        let back = load_table(&path).unwrap();
        assert_eq!(back.rows(), t.rows());
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(load_table(&path), Err(VdError::Io(_))));
    }

    #[test]
    fn bitmap_round_trip() {
        let b = Bitmap::from_rows(100, &[0, 17, 64, 99]);
        let bytes = bitmap_to_bytes(&b);
        let back = bitmap_from_bytes(&bytes).unwrap();
        assert_eq!(back, b);
        assert!(bitmap_from_bytes(&[1, 2]).is_err());
        // trailing partial row ids are rejected, not silently dropped
        let mut ragged = bytes.to_vec();
        ragged.extend_from_slice(&[1, 2, 3]);
        let err = bitmap_from_bytes(&ragged).unwrap_err();
        assert!(matches!(err, VdError::Corrupt(ref msg) if msg.contains("trailing")), "{err}");
        // an absurd domain length cannot drive an oversized allocation
        let mut huge = bytes.to_vec();
        huge[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(bitmap_from_bytes(&huge), Err(VdError::Corrupt(_))));
    }

    #[test]
    fn store_round_trip_preserves_table_specs_and_stats() {
        let t = sample();
        let specs = t.partition_specs(2);
        let stats: Vec<SegmentStats> = specs.iter().map(|s| s.view(&t).unwrap().stats()).collect();
        let bytes = store_to_bytes(&t, &specs, &stats, None).unwrap();
        let store = store_from_bytes(&bytes).unwrap();
        assert_eq!(store.backend, StorageBackend::Heap);
        assert_eq!(store.table, t);
        assert_eq!(store.specs, specs);
        assert_eq!(store.stats, stats);
        assert!(store.table.is_deleted(1));
        assert_eq!(store.table.column(1).unwrap().name(), "dim_1");
    }

    #[test]
    fn store_data_region_is_aligned() {
        let bytes = sample_store_bytes(1);
        // header: magic(8) + name_len(4) + name(12) + dims(4) + rows(8) = 36,
        // padded to 40; every fragment offset is then 8-byte aligned.
        let mut probe = &bytes[40..];
        assert_eq!(probe.get_f64_le(), 0.1, "first value of dim_0 sits at the aligned offset");
    }

    #[test]
    fn store_writer_validates_inputs() {
        let t = sample();
        let specs = t.partition_specs(2);
        let stats: Vec<SegmentStats> = specs.iter().map(|s| s.view(&t).unwrap().stats()).collect();
        // specs/stats must be parallel
        assert!(matches!(
            store_to_bytes(&t, &specs, &stats[..1], None),
            Err(VdError::InvalidArgument(_))
        ));
        // stats must cover the spec's range
        let swapped = vec![stats[1].clone(), stats[0].clone()];
        assert!(matches!(
            store_to_bytes(&t, &specs, &swapped, None),
            Err(VdError::InvalidArgument(_))
        ));
        // specs must tile the table
        let gappy = vec![SegmentSpec::new(0, 1), SegmentSpec::new(2, 1)];
        let gappy_stats: Vec<SegmentStats> =
            gappy.iter().map(|s| s.view(&t).unwrap().stats()).collect();
        assert!(matches!(
            store_to_bytes(&t, &gappy, &gappy_stats, None),
            Err(VdError::InvalidArgument(_))
        ));
    }

    #[test]
    fn store_truncations_and_corruptions_are_typed_errors() {
        let bytes = sample_store_bytes(3);
        assert!(store_from_bytes(&[]).is_err());
        for cut in [4, 9, 20, bytes.len() / 2, bytes.len() - 1] {
            let err = store_from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, VdError::Corrupt(_) | VdError::UnsupportedVersion { .. }),
                "cut at {cut}: {err}"
            );
        }
        // trailing bytes between footer and trailer shift the trailer: caught
        let mut padded = bytes.to_vec();
        padded.insert(bytes.len() - TRAILER_LEN, 0);
        assert!(store_from_bytes(&padded).is_err());
        // a corrupted trailer magic is caught
        let mut bad_tail = bytes.to_vec();
        *bad_tail.last_mut().unwrap() = b'X';
        assert!(store_from_bytes(&bad_tail).is_err());
    }

    #[test]
    fn streamed_save_matches_in_memory_serialisation_byte_for_byte() {
        let dir = std::env::temp_dir().join("vdstore_store_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("streamed.bondvd");
        let t = sample();
        let specs = t.partition_specs(2);
        let stats: Vec<SegmentStats> = specs.iter().map(|s| s.view(&t).unwrap().stats()).collect();
        save_store(&t, &specs, &stats, None, &path).unwrap();
        let streamed = std::fs::read(&path).unwrap();
        let in_memory = store_to_bytes(&t, &specs, &stats, None).unwrap();
        assert_eq!(streamed, in_memory.to_vec(), "the two writers must never diverge");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn store_file_round_trip_both_backends() {
        let dir = std::env::temp_dir().join("vdstore_store_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.bondvd");
        let t = sample();
        write_store(&t, 2, &path).unwrap();

        let heap = open_store(&path, StorageBackend::Heap).unwrap();
        assert_eq!(heap.backend, StorageBackend::Heap);
        assert_eq!(heap.table, t);

        let mapped = open_store(&path, StorageBackend::Mapped).unwrap();
        assert_eq!(mapped.table, t);
        assert_eq!(mapped.specs, heap.specs);
        assert_eq!(mapped.stats, heap.stats);
        if StorageBackend::mapping_supported() {
            assert_eq!(mapped.backend, StorageBackend::Mapped);
            assert_eq!(mapped.table.column(0).unwrap().backend(), StorageBackend::Mapped);
        } else {
            assert_eq!(mapped.backend, StorageBackend::Heap);
        }

        std::fs::remove_file(&path).unwrap();
        assert!(matches!(open_store(&path, StorageBackend::Heap), Err(VdError::Io(_))));
        assert!(matches!(open_store(&path, StorageBackend::Mapped), Err(VdError::Io(_))));
    }

    #[test]
    fn fragment_checksums_round_trip_and_catch_data_corruption() {
        let t = sample();
        let specs = t.partition_specs(2);
        let stats: Vec<SegmentStats> = specs.iter().map(|s| s.view(&t).unwrap().stats()).collect();
        let bytes = store_to_bytes(&t, &specs, &stats, None).unwrap();
        let store = store_from_bytes(&bytes).unwrap();
        assert_eq!(store.fragment_checksums.len(), t.dims());
        for (d, &checksum) in store.fragment_checksums.iter().enumerate() {
            assert_eq!(checksum, crate::checksum::fnv1a_f64(t.columns()[d].values()));
        }
        assert!(store.learned.is_none());
        store.table.verify_checksums().unwrap();

        // flip one data byte: the heap open reports the typed mismatch
        // (header: magic 8 + name_len 4 + name 12 + dims 4 + rows 8 = 36,
        // padded to 40; the first fragment starts there)
        let mut corrupt = bytes.to_vec();
        corrupt[40] ^= 0xFF;
        let err = store_from_bytes(&corrupt).unwrap_err();
        assert!(
            matches!(err, VdError::ChecksumMismatch { ref column, .. } if column == "dim_0"),
            "{err}"
        );
    }

    #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
    #[test]
    fn mapped_open_defers_checksum_verification_to_promotion() {
        let dir = std::env::temp_dir().join("vdstore_store_cow_checksum_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cow.bondvd");
        let t = sample();
        write_store(&t, 2, &path).unwrap();

        // corrupt one byte of the first fragment's data on disk
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(40)).unwrap();
            f.write_all(&[0xAB]).unwrap();
        }

        // the mapped open itself stays lazy and succeeds …
        let store = open_store(&path, StorageBackend::Mapped).unwrap();
        assert_eq!(store.backend, StorageBackend::Mapped);
        // … the explicit sweep and the copy-on-write promotion both catch it
        assert!(matches!(store.table.verify_checksums(), Err(VdError::ChecksumMismatch { .. })));
        let mut corrupted_col = store.table.columns()[0].clone();
        let err = corrupted_col.set(0, 9.0).unwrap_err();
        assert!(matches!(err, VdError::ChecksumMismatch { .. }), "{err}");
        // untouched fragments still promote cleanly
        let mut clean_col = store.table.columns()[1].clone();
        assert!(clean_col.set(0, 9.0).is_ok());
        assert_eq!(clean_col.backend(), StorageBackend::Heap);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn footer_corruption_is_caught_by_the_footer_checksum() {
        // the footer's statistics/envelopes drive planning and skipping
        // with no later cross-check, so a flipped footer byte — even one
        // the structural parse would happily accept, like a stats float —
        // must fail the open
        let bytes = sample_store_bytes(2);
        let n = bytes.len();
        let footer_offset = u64::from_le_bytes(bytes[n - 16..n - 8].try_into().unwrap()) as usize;
        for delta in [10, (n - 24 - footer_offset) / 2] {
            let mut corrupted = bytes.to_vec();
            corrupted[footer_offset + delta] ^= 0x01;
            let err = store_from_bytes(&corrupted).unwrap_err();
            assert!(
                matches!(err, VdError::Corrupt(ref m) if m.contains("footer checksum")),
                "flip at footer+{delta}: {err}"
            );
        }
    }

    #[test]
    fn learned_payload_round_trips_and_is_validated() {
        let t = sample();
        let specs = t.partition_specs(1);
        let stats: Vec<SegmentStats> = specs.iter().map(|s| s.view(&t).unwrap().stats()).collect();
        let payload = vec![7u8, 13, 42, 0, 255];
        let bytes = store_to_bytes(&t, &specs, &stats, Some(&payload)).unwrap();
        let store = store_from_bytes(&bytes).unwrap();
        assert_eq!(store.learned.as_deref(), Some(&payload[..]));

        // the learned section participates in the exact-consumption check:
        // claiming more bytes than the footer holds is corruption
        let dir = std::env::temp_dir().join("vdstore_store_learned_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("learned.bondvd");
        save_store(&t, &specs, &stats, Some(&payload), &path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes.to_vec());
        let heap = open_store(&path, StorageBackend::Heap).unwrap();
        assert_eq!(heap.learned.as_deref(), Some(&payload[..]));
        if StorageBackend::mapping_supported() {
            let mapped = open_store(&path, StorageBackend::Mapped).unwrap();
            assert_eq!(mapped.learned.as_deref(), Some(&payload[..]));
            assert_eq!(mapped.fragment_checksums, heap.fragment_checksums);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn codes_round_trip_both_backends_and_checksum_fail_on_corruption() {
        let t = sample();
        let specs = t.partition_specs(2);
        let stats: Vec<SegmentStats> = specs.iter().map(|s| s.view(&t).unwrap().stats()).collect();
        let codes = StoreCodes::build(&t, &specs, &stats, 8).unwrap();

        // a store written without codes still parses — as "no codes"
        let plain = store_to_bytes(&t, &specs, &stats, None).unwrap();
        assert!(store_from_bytes(&plain).unwrap().codes.is_none());

        let bytes = store_to_bytes_with_codes(&t, &specs, &stats, None, Some(&codes)).unwrap();
        let store = store_from_bytes(&bytes).unwrap();
        let back = store.codes.as_ref().unwrap();
        assert_eq!(back.bits(), 8);
        assert!(back.matches_specs(&specs));
        assert!(!back.is_mapped());
        for d in 0..t.dims() {
            assert_eq!(back.dim_codes(d).unwrap(), codes.dim_codes(d).unwrap());
            assert_eq!(back.checksum(d).unwrap(), codes.checksum(d).unwrap());
            for si in 0..specs.len() {
                assert_eq!(
                    back.segment_view(si).unwrap().params(d),
                    codes.segment_view(si).unwrap().params(d)
                );
            }
        }

        // the streamed writer agrees byte for byte, and both backends
        // reopen the codes
        let dir = std::env::temp_dir().join("vdstore_store_codes_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("codes.bondvd");
        save_store_with_codes(&t, &specs, &stats, None, Some(&codes), &path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes.to_vec());
        let heap = open_store(&path, StorageBackend::Heap).unwrap();
        assert_eq!(heap.codes.as_ref().unwrap().dim_codes(0).unwrap(), codes.dim_codes(0).unwrap());
        if StorageBackend::mapping_supported() {
            let mapped = open_store(&path, StorageBackend::Mapped).unwrap();
            let mc = mapped.codes.as_ref().unwrap();
            assert!(mc.is_mapped(), "mapped opens view codes zero-copy");
            for d in 0..t.dims() {
                assert_eq!(mc.dim_codes(d).unwrap(), codes.dim_codes(d).unwrap());
            }
        }
        std::fs::remove_file(&path).unwrap();

        // flipping one code byte fails the open with a typed checksum error
        // (the footer checksum covers the codes section)
        let layout = parse_layout(&bytes).unwrap();
        let code_offset = layout.codes.unwrap().dim_offsets[0];
        let mut corrupted = bytes.to_vec();
        corrupted[code_offset] ^= 0xFF;
        let err = store_from_bytes(&corrupted).unwrap_err();
        assert!(matches!(err, VdError::Corrupt(ref m) if m.contains("footer checksum")), "{err}");

        // the writers reject codes built over different boundaries
        let other_specs = t.partition_specs(1);
        let other_stats: Vec<SegmentStats> =
            other_specs.iter().map(|s| s.view(&t).unwrap().stats()).collect();
        let mismatched = StoreCodes::build(&t, &other_specs, &other_stats, 8).unwrap();
        assert!(matches!(
            store_to_bytes_with_codes(&t, &specs, &stats, None, Some(&mismatched)),
            Err(VdError::InvalidArgument(_))
        ));
    }

    /// `bytes` (a store with 8-bit codes over `plain_len`-byte plain
    /// footers) with its one code-width byte replaced by `widths` and the
    /// footer checksum re-sealed.
    fn with_code_widths(bytes: &[u8], plain_len: usize, widths: &[u8]) -> Vec<u8> {
        let trailer = &bytes[bytes.len() - TRAILER_LEN..];
        let footer_offset = u64::from_le_bytes(trailer[..8].try_into().unwrap()) as usize;
        // the codes section starts where the plain footer's checksum sat
        let at = plain_len - TRAILER_LEN - 8;
        assert_eq!(bytes[at], 8);
        let mut out = bytes[..at].to_vec();
        out.extend_from_slice(widths);
        out.extend_from_slice(&bytes[at + 1..bytes.len() - TRAILER_LEN - 8]);
        let checksum = fnv1a(&out[footer_offset..]);
        out.extend_from_slice(&checksum.to_le_bytes());
        out.extend_from_slice(trailer);
        out
    }

    #[test]
    fn mixed_width_codes_round_trip_via_the_sentinel() {
        let t = sample();
        let specs = t.partition_specs(2);
        let stats: Vec<SegmentStats> = specs.iter().map(|s| s.view(&t).unwrap().stats()).collect();
        let codes = StoreCodes::build(&t, &specs, &stats, 8).unwrap();
        let plain = store_to_bytes(&t, &specs, &stats, None).unwrap();
        let bytes = store_to_bytes_with_codes(&t, &specs, &stats, None, Some(&codes)).unwrap();
        assert_eq!(with_code_widths(&bytes, plain.len(), &[8]), bytes.to_vec());

        // the sentinel and one width per segment: parsed, verified, dropped
        let mixed = with_code_widths(&bytes, plain.len(), &[0, 4, 8]);
        let heap = store_from_bytes(&mixed).unwrap();
        assert!(heap.codes.is_none());
        assert_eq!(heap.specs, specs);
        let dir = std::env::temp_dir().join("vdstore_store_mixed_codes_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mixed.bondvd");
        std::fs::write(&path, &mixed).unwrap();
        for backend in [StorageBackend::Heap, StorageBackend::Mapped] {
            let store = open_store(&path, backend).unwrap();
            assert!(store.codes.is_none(), "{backend:?}");
            assert_eq!(store.table.value(2, 1).unwrap(), t.value(2, 1).unwrap());
        }
        std::fs::remove_file(&path).unwrap();

        // a width byte outside 1..=8 is corrupt, in either form
        for widths in [&[0, 0, 8][..], &[0, 8, 9], &[9]] {
            let err = store_from_bytes(&with_code_widths(&bytes, plain.len(), widths)).unwrap_err();
            assert!(matches!(err, VdError::Corrupt(ref m) if m.contains("code bits")), "{err}");
        }
    }

    #[test]
    fn persisted_stats_match_freshly_computed_stats() {
        let t = sample();
        let dir = std::env::temp_dir().join("vdstore_store_stats_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stats.bondvd");
        write_store(&t, 3, &path).unwrap();
        let store = open_store(&path, StorageBackend::Heap).unwrap();
        for (spec, stat) in store.specs.iter().zip(&store.stats) {
            let fresh = spec.view(&store.table).unwrap().stats();
            assert_eq!(*stat, fresh, "footer stats are bit-identical to recomputed stats");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
