//! A single dimensional fragment: the values of one dimension for every
//! vector of the collection.
//!
//! In the paper's Monet implementation each dimension `i` is a binary
//! relation `Hi(oid, value)`. Because the histogram identifiers form a
//! densely ascending sequence the head column is *virtual*: the value of row
//! `r` is simply `values[r]`. [`Column`] captures exactly that.
//!
//! Since the persistent segment store, the dense value array may live in
//! two places — [`ColumnData`] abstracts over them:
//!
//! * [`ColumnData::Heap`]: an owned `Vec<f64>`, the in-memory default.
//! * [`ColumnData::Mapped`]: a zero-copy view of a [`MappedRegion`] — the
//!   fragment's contiguous byte range inside a persisted store file, served
//!   straight from the page cache.
//!
//! Reads are transparent (`values()` hands out a `&[f64]` either way).
//! Mutation promotes a mapped column to the heap first (copy-on-write), so
//! the whole mutable API keeps working on reopened stores.

use serde::{Deserialize, Serialize};

use crate::checksum::fnv1a;
use crate::error::{Result, VdError};
use crate::mmap::{MappedRegion, StorageBackend};
use crate::RowId;
use std::sync::Arc;

/// Where a column's dense value array lives: an owned heap vector or a
/// zero-copy view of a file-backed [`MappedRegion`].
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Owned values on the heap.
    Heap(Vec<f64>),
    /// A `len`-value window into a mapped store file, starting at
    /// `byte_offset`. The offset is validated (in range, 8-byte aligned) at
    /// construction, so reads are infallible afterwards.
    Mapped {
        /// The mapping this view borrows from (shared by all columns of the
        /// store).
        region: Arc<MappedRegion>,
        /// Byte offset of the fragment's first value inside the region.
        byte_offset: usize,
        /// Number of `f64` values in the fragment.
        len: usize,
        /// The fragment's FNV-1a checksum from the store footer, when the
        /// store carried one; verified before any copy-on-write promotion
        /// so corrupted bytes cannot silently become the heap truth.
        checksum: Option<u64>,
        /// The dimension the fragment stores, which a non-finite value
        /// found on promotion is reported at.
        dim: usize,
    },
}

impl ColumnData {
    /// A mapped view of `len` values of dimension `dim` at `byte_offset`
    /// inside `region`, optionally guarded by the fragment's persisted
    /// `checksum`. Both the checksum and the values' finiteness are checked
    /// lazily, on copy-on-write promotion — an eager check would fault in
    /// every data page and defeat the lazy cold open — so reads, a search's
    /// included, see the bytes as stored.
    ///
    /// # Errors
    ///
    /// [`VdError::Io`] when the range falls outside the region or is not
    /// 8-byte aligned.
    pub fn mapped(
        region: Arc<MappedRegion>,
        byte_offset: usize,
        len: usize,
        checksum: Option<u64>,
        dim: usize,
    ) -> Result<Self> {
        // Validate once; `as_slice` relies on it.
        region.f64_slice(byte_offset, len)?;
        Ok(ColumnData::Mapped { region, byte_offset, len, checksum, dim })
    }

    /// Verifies the fragment's bytes against its persisted checksum, when
    /// one is carried (heap data and unguarded mappings verify trivially).
    fn verify(&self, name: &str) -> Result<()> {
        if let ColumnData::Mapped { region, byte_offset, len, checksum: Some(expected), .. } = self
        {
            let bytes = &region.as_bytes()[*byte_offset..*byte_offset + *len * 8];
            let actual = fnv1a(bytes);
            if actual != *expected {
                return Err(VdError::ChecksumMismatch {
                    column: name.to_string(),
                    expected: *expected,
                    actual,
                });
            }
        }
        Ok(())
    }

    /// The dense values, wherever they live.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        match self {
            ColumnData::Heap(v) => v,
            ColumnData::Mapped { region, byte_offset, len, .. } => {
                region.f64_slice(*byte_offset, *len).expect("validated at construction")
            }
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Heap(v) => v.len(),
            ColumnData::Mapped { len, .. } => *len,
        }
    }

    /// Whether there are no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Which backend currently holds the values.
    pub fn backend(&self) -> StorageBackend {
        match self {
            ColumnData::Heap(_) => StorageBackend::Heap,
            ColumnData::Mapped { .. } => StorageBackend::Mapped,
        }
    }

    /// Promotes a mapped view to an owned heap vector (copy-on-write),
    /// verifying the fragment's checksum first when one is carried and
    /// that every value is finite — the moment corrupted or non-finite
    /// mapped bytes would otherwise become the new heap truth. Heap data
    /// is returned as-is.
    fn promote(&mut self, name: &str) -> Result<&mut Vec<f64>> {
        if let ColumnData::Mapped { dim, .. } = *self {
            self.verify(name)?;
            let values = self.as_slice();
            if let Some(row) = values.iter().position(|v| !v.is_finite()) {
                return Err(VdError::NonFinite { row: row as RowId, dim });
            }
            *self = ColumnData::Heap(values.to_vec());
        }
        match self {
            ColumnData::Heap(v) => Ok(v),
            ColumnData::Mapped { .. } => unreachable!("promoted above"),
        }
    }

    /// Infallible promotion for the mutation APIs without an error channel.
    ///
    /// # Panics
    /// Panics when a mapped fragment fails checksum or finiteness
    /// verification.
    fn make_heap(&mut self, name: &str) -> &mut Vec<f64> {
        self.promote(name).expect("mapped fragment failed verification on promotion")
    }

    /// Consumes the data, copying mapped views onto the heap.
    fn into_vec(self) -> Vec<f64> {
        match self {
            ColumnData::Heap(v) => v,
            mapped @ ColumnData::Mapped { .. } => mapped.as_slice().to_vec(),
        }
    }
}

impl Default for ColumnData {
    fn default() -> Self {
        ColumnData::Heap(Vec::new())
    }
}

impl PartialEq for ColumnData {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// One vertically decomposed dimension: a dense array of `f64` coefficients,
/// addressed positionally by [`RowId`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Column {
    /// Optional human-readable name (e.g. `"hsv_bin_17"`).
    name: String,
    data: ColumnData,
}

impl Column {
    /// Creates a column from raw values.
    pub fn new(name: impl Into<String>, values: Vec<f64>) -> Self {
        Column { name: name.into(), data: ColumnData::Heap(values) }
    }

    /// Creates a column over pre-built storage (heap or mapped).
    pub fn from_data(name: impl Into<String>, data: ColumnData) -> Self {
        Column { name: name.into(), data }
    }

    /// Creates an unnamed column from raw values.
    pub fn from_values(values: Vec<f64>) -> Self {
        Column { name: String::new(), data: ColumnData::Heap(values) }
    }

    /// Creates an empty column with the given capacity.
    pub fn with_capacity(name: impl Into<String>, capacity: usize) -> Self {
        Column { name: name.into(), data: ColumnData::Heap(Vec::with_capacity(capacity)) }
    }

    /// The column's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the column.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Which storage backend currently holds this column's values.
    pub fn backend(&self) -> StorageBackend {
        self.data.backend()
    }

    /// Number of rows stored.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the value at `row`, or an error when out of bounds.
    pub fn get(&self, row: RowId) -> Result<f64> {
        self.data
            .as_slice()
            .get(row as usize)
            .copied()
            .ok_or(VdError::RowOutOfBounds { row, rows: self.data.len() })
    }

    /// Positional lookup without bounds checking beyond the slice's own.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    #[inline]
    pub fn value(&self, row: RowId) -> f64 {
        self.data.as_slice()[row as usize]
    }

    /// The underlying dense value slice.
    #[inline]
    pub fn values(&self) -> &[f64] {
        self.data.as_slice()
    }

    /// Mutable access to the underlying value slice. A mapped column is
    /// promoted to the heap first (copy-on-write, checksum- and
    /// finiteness-verified).
    ///
    /// # Panics
    /// Panics when a mapped fragment fails verification; use
    /// [`Column::set`] for a typed [`VdError::ChecksumMismatch`] or
    /// [`VdError::NonFinite`] instead.
    pub fn values_mut(&mut self) -> &mut [f64] {
        self.data.make_heap(&self.name)
    }

    /// Appends a value (a new row) to the column. A mapped column is
    /// promoted to the heap first (copy-on-write, checksum- and
    /// finiteness-verified).
    ///
    /// # Panics
    /// Panics when a mapped fragment fails verification (see
    /// [`Column::values_mut`]).
    pub fn push(&mut self, value: f64) {
        self.data.make_heap(&self.name).push(value);
    }

    /// Promotes a mapped column to the heap (copy-on-write, checksum- and
    /// finiteness-verified, as [`Column::set`] does); a heap column is left
    /// as it is.
    ///
    /// # Errors
    ///
    /// As [`Column::set`]'s promotion.
    pub(crate) fn make_owned(&mut self) -> Result<()> {
        self.data.promote(&self.name).map(drop)
    }

    /// Overwrites the value of an existing row. A mapped column is promoted
    /// to the heap first (copy-on-write, checksum- and finiteness-verified).
    ///
    /// # Errors
    ///
    /// [`VdError::RowOutOfBounds`] for a bad row;
    /// [`VdError::ChecksumMismatch`] when a guarded mapped fragment fails
    /// verification at promotion time, [`VdError::NonFinite`] when it holds
    /// a NaN or ±∞.
    pub fn set(&mut self, row: RowId, value: f64) -> Result<()> {
        let rows = self.data.len();
        let heap = self.data.promote(&self.name)?;
        let slot = heap.get_mut(row as usize).ok_or(VdError::RowOutOfBounds { row, rows })?;
        *slot = value;
        Ok(())
    }

    /// Verifies a checksum-guarded mapped fragment against its persisted
    /// checksum (trivially `Ok` for heap columns and unguarded mappings).
    ///
    /// # Errors
    ///
    /// [`VdError::ChecksumMismatch`] naming the column on disagreement.
    pub fn verify_checksum(&self) -> Result<()> {
        self.data.verify(&self.name)
    }

    /// Gathers the values of the given rows (a positional join with a
    /// materialised candidate list, cf. step 3 of the MIL program).
    pub fn gather(&self, rows: &[RowId]) -> Vec<f64> {
        let values = self.data.as_slice();
        rows.iter().map(|&r| values[r as usize]).collect()
    }

    /// Minimum value of the column (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        self.data.as_slice().iter().copied().reduce(f64::min)
    }

    /// Maximum value of the column (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        self.data.as_slice().iter().copied().reduce(f64::max)
    }

    /// Arithmetic mean of the column (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        let values = self.data.as_slice();
        if values.is_empty() {
            None
        } else {
            Some(values.iter().sum::<f64>() / values.len() as f64)
        }
    }

    /// Consumes the column and returns its values (copying them off a
    /// mapped region when necessary).
    pub fn into_values(self) -> Vec<f64> {
        self.data.into_vec()
    }
}

impl From<Vec<f64>> for Column {
    fn from(values: Vec<f64>) -> Self {
        Column::from_values(values)
    }
}

impl std::ops::Index<RowId> for Column {
    type Output = f64;

    fn index(&self, row: RowId) -> &f64 {
        &self.data.as_slice()[row as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let c = Column::new("dim0", vec![0.1, 0.2, 0.3]);
        assert_eq!(c.name(), "dim0");
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.value(1), 0.2);
        assert_eq!(c[2], 0.3);
        assert_eq!(c.get(0).unwrap(), 0.1);
        assert!(matches!(c.get(3), Err(VdError::RowOutOfBounds { row: 3, rows: 3 })));
        assert_eq!(c.backend(), StorageBackend::Heap);
    }

    #[test]
    fn push_set_and_mutation() {
        let mut c = Column::with_capacity("d", 4);
        assert!(c.is_empty());
        c.push(1.0);
        c.push(2.0);
        c.set(0, 5.0).unwrap();
        assert_eq!(c.values(), &[5.0, 2.0]);
        assert!(c.set(9, 1.0).is_err());
        c.values_mut()[1] = 7.0;
        assert_eq!(c.value(1), 7.0);
    }

    #[test]
    fn gather_is_positional() {
        let c = Column::from_values(vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(c.gather(&[3, 0, 0]), vec![40.0, 10.0, 10.0]);
        assert_eq!(c.gather(&[]), Vec::<f64>::new());
    }

    #[test]
    fn aggregates() {
        let c = Column::from_values(vec![2.0, -1.0, 4.0]);
        assert_eq!(c.min(), Some(-1.0));
        assert_eq!(c.max(), Some(4.0));
        assert!((c.mean().unwrap() - 5.0 / 3.0).abs() < 1e-12);
        let empty = Column::default();
        assert_eq!(empty.min(), None);
        assert_eq!(empty.mean(), None);
    }

    #[test]
    fn conversions() {
        let c: Column = vec![1.0, 2.0].into();
        assert_eq!(c.into_values(), vec![1.0, 2.0]);
        let mut c = Column::from_values(vec![0.0]);
        c.set_name("renamed");
        assert_eq!(c.name(), "renamed");
    }

    #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
    mod mapped {
        use super::*;

        fn mapped_column(values: &[f64]) -> (Column, std::path::PathBuf) {
            let path = std::env::temp_dir().join(format!(
                "vdstore_column_mapped_{}_{:p}",
                std::process::id(),
                values
            ));
            let mut bytes = Vec::new();
            for v in values {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            std::fs::write(&path, &bytes).unwrap();
            let region = MappedRegion::map_file(&path).unwrap();
            let checksum = {
                let mut bytes = Vec::new();
                for v in values {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
                crate::checksum::fnv1a(&bytes)
            };
            let data = ColumnData::mapped(region, 0, values.len(), Some(checksum), 0).unwrap();
            (Column::from_data("mapped", data), path)
        }

        #[test]
        fn mapped_columns_read_like_heap_columns() {
            let values = [0.25, -1.5, 3.75, 0.0];
            let (c, path) = mapped_column(&values);
            assert_eq!(c.backend(), StorageBackend::Mapped);
            assert_eq!(c.values(), &values);
            assert_eq!(c.len(), 4);
            assert_eq!(c.value(2), 3.75);
            assert_eq!(c.get(1).unwrap(), -1.5);
            assert!(c.get(4).is_err());
            assert_eq!(c.min(), Some(-1.5));
            assert_eq!(c.max(), Some(3.75));
            assert_eq!(c.gather(&[3, 0]), vec![0.0, 0.25]);
            // a heap column with the same values compares equal
            assert_eq!(c, Column::from_data("mapped", ColumnData::Heap(values.to_vec())));
            std::fs::remove_file(&path).unwrap();
        }

        #[test]
        fn mutation_promotes_to_heap_copy_on_write() {
            let (mut c, path) = mapped_column(&[1.0, 2.0, 3.0]);
            c.set(1, 9.0).unwrap();
            assert_eq!(c.backend(), StorageBackend::Heap);
            assert_eq!(c.values(), &[1.0, 9.0, 3.0]);
            let (mut c2, path2) = mapped_column(&[1.0]);
            c2.push(2.0);
            assert_eq!(c2.backend(), StorageBackend::Heap);
            assert_eq!(c2.into_values(), vec![1.0, 2.0]);
            // the file on disk is untouched by either mutation
            assert_eq!(std::fs::read(&path).unwrap().len(), 24);
            std::fs::remove_file(&path).unwrap();
            std::fs::remove_file(&path2).unwrap();
        }

        #[test]
        fn mapped_construction_validates_range() {
            let (c, path) = mapped_column(&[1.0, 2.0]);
            let ColumnData::Mapped { region, .. } = c.data else { panic!("mapped") };
            assert!(ColumnData::mapped(region.clone(), 0, 3, None, 0).is_err());
            assert!(ColumnData::mapped(region.clone(), 4, 1, None, 0).is_err());
            let ok = ColumnData::mapped(region, 8, 1, None, 0).unwrap();
            assert_eq!(ok.as_slice(), &[2.0]);
            std::fs::remove_file(&path).unwrap();
        }

        #[test]
        fn checksum_guards_copy_on_write_promotion() {
            let values = [1.0, 2.0, 3.0];
            let (c, path) = mapped_column(&values);
            // a matching checksum verifies and promotes cleanly
            c.verify_checksum().unwrap();
            let mut ok = c.clone();
            ok.set(0, 9.0).unwrap();
            assert_eq!(ok.backend(), StorageBackend::Heap);

            // a wrong persisted checksum surfaces as the typed error at
            // promotion time, and the column stays mapped (unpromoted)
            let ColumnData::Mapped { region, byte_offset, len, .. } = c.data else {
                panic!("mapped")
            };
            let bad = ColumnData::mapped(region, byte_offset, len, Some(0xDEAD), 0).unwrap();
            let mut corrupt = Column::from_data("dim_x", bad);
            let err = corrupt.set(0, 9.0).unwrap_err();
            assert!(
                matches!(err, VdError::ChecksumMismatch { ref column, expected: 0xDEAD, .. }
                    if column == "dim_x"),
                "{err}"
            );
            assert_eq!(corrupt.backend(), StorageBackend::Mapped);
            assert!(corrupt.verify_checksum().is_err());
            std::fs::remove_file(&path).unwrap();
        }

        #[test]
        fn a_non_finite_value_fails_promotion_with_its_row_and_dimension() {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let (c, path) = mapped_column(&[1.0, 2.0, bad, 4.0]);
                // reads see the bytes as stored
                assert_eq!(c.values()[2].to_bits(), bad.to_bits());
                let ColumnData::Mapped { region, byte_offset, len, checksum, .. } = c.data else {
                    panic!("mapped")
                };
                let data = ColumnData::mapped(region, byte_offset, len, checksum, 3).unwrap();
                let mut column = Column::from_data("dim_3", data);
                let err = column.set(0, 9.0).unwrap_err();
                assert_eq!(err, VdError::NonFinite { row: 2, dim: 3 });
                assert_eq!(column.backend(), StorageBackend::Mapped);
                std::fs::remove_file(&path).unwrap();
            }
        }
    }
}
