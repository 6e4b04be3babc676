//! The vertically decomposed table: one [`Column`] per dimension.
//!
//! This is the physical design the paper advocates: a collection of
//! `N`-dimensional feature vectors is fragmented into `N` binary relations,
//! one per dimension, all sharing the same dense row-id space. The table
//! also carries the tombstone bitmap of Section 6.2 (deleted rows are marked
//! until a periodic reorganisation) and knows how to hand out row-major
//! copies for the sequential-scan baselines.

use serde::{Deserialize, Serialize};

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::error::{Result, VdError};
use crate::mmap::StorageBackend;
use crate::rowmatrix::RowMatrix;
use crate::RowId;

/// A collection of feature vectors stored one column per dimension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecomposedTable {
    name: String,
    columns: Vec<Column>,
    rows: usize,
    /// Tombstones: a set bit means the row has been deleted but not yet
    /// reclaimed by reorganisation.
    deleted: Bitmap,
}

impl DecomposedTable {
    /// Builds a table from pre-decomposed columns.
    ///
    /// All columns must have the same length; an empty column set is
    /// rejected, and so is a NaN or infinite value
    /// ([`VdError::NonFinite`], the first one dimension by dimension).
    pub fn from_columns(name: impl Into<String>, columns: Vec<Column>) -> Result<Self> {
        let table = Self::from_columns_unchecked(name, columns)?;
        table.check_finite()?;
        Ok(table)
    }

    /// [`DecomposedTable::from_columns`] without the scan for non-finite
    /// values — for the store readers, which open what a checked table
    /// wrote and must not read every value to do it.
    pub(crate) fn from_columns_unchecked(
        name: impl Into<String>,
        columns: Vec<Column>,
    ) -> Result<Self> {
        let first = columns.first().ok_or(VdError::Empty("column set"))?;
        let rows = first.len();
        for c in &columns {
            if c.len() != rows {
                return Err(VdError::LengthMismatch { expected: rows, actual: c.len() });
            }
        }
        Ok(DecomposedTable { name: name.into(), columns, rows, deleted: Bitmap::new(rows) })
    }

    /// Builds a table from pre-decomposed columns plus an explicit tombstone
    /// bitmap, where the tombstones arrive wholesale instead of through
    /// per-row [`DecomposedTable::delete`] calls.
    ///
    /// The bitmap's length must equal the column length; values are
    /// checked as [`DecomposedTable::from_columns`] checks them.
    pub fn from_parts(
        name: impl Into<String>,
        columns: Vec<Column>,
        deleted: Bitmap,
    ) -> Result<Self> {
        let table = Self::from_parts_unchecked(name, columns, deleted)?;
        table.check_finite()?;
        Ok(table)
    }

    /// [`DecomposedTable::from_parts`] without the scan for non-finite
    /// values — the constructor a persisted-store reader uses (see
    /// [`DecomposedTable::from_columns_unchecked`]).
    pub(crate) fn from_parts_unchecked(
        name: impl Into<String>,
        columns: Vec<Column>,
        deleted: Bitmap,
    ) -> Result<Self> {
        let mut table = Self::from_columns_unchecked(name, columns)?;
        if deleted.len() != table.rows {
            return Err(VdError::LengthMismatch { expected: table.rows, actual: deleted.len() });
        }
        table.deleted = deleted;
        Ok(table)
    }

    /// The first NaN or infinite value, dimension by dimension, as an error.
    fn check_finite(&self) -> Result<()> {
        for (dim, column) in self.columns.iter().enumerate() {
            if let Some(row) = column.values().iter().position(|v| !v.is_finite()) {
                return Err(VdError::NonFinite { row: row as RowId, dim });
            }
        }
        Ok(())
    }

    /// Builds a table by vertically decomposing row-major vectors.
    ///
    /// Every vector must have the same dimensionality, and every value must
    /// be finite ([`VdError::NonFinite`] names the first one that is not,
    /// row by row).
    pub fn from_vectors(name: impl Into<String>, vectors: &[Vec<f64>]) -> Result<Self> {
        let first = vectors.first().ok_or(VdError::Empty("vector collection"))?;
        let dims = first.len();
        if dims == 0 {
            return Err(VdError::Empty("vector dimensionality"));
        }
        let mut columns: Vec<Column> =
            (0..dims).map(|d| Column::with_capacity(format!("dim_{d}"), vectors.len())).collect();
        for (i, v) in vectors.iter().enumerate() {
            if v.len() != dims {
                return Err(VdError::DimensionMismatch { expected: dims, actual: v.len() });
            }
            for (d, &x) in v.iter().enumerate() {
                if !x.is_finite() {
                    return Err(VdError::NonFinite { row: i as RowId, dim: d });
                }
                columns[d].push(x);
            }
            debug_assert_eq!(i + 1, columns[0].len());
        }
        let rows = vectors.len();
        Ok(DecomposedTable { name: name.into(), columns, rows, deleted: Bitmap::new(rows) })
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of dimensions (columns).
    pub fn dims(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows, including tombstoned ones.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of live (non-deleted) rows.
    pub fn live_rows(&self) -> usize {
        self.rows - self.deleted.count()
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Access the column of dimension `dim`.
    pub fn column(&self, dim: usize) -> Result<&Column> {
        self.columns.get(dim).ok_or(VdError::DimOutOfBounds { dim, dims: self.columns.len() })
    }

    /// All columns, in dimension order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The storage backend serving this table's columns:
    /// [`StorageBackend::Mapped`] when every column views a mapped store
    /// file, [`StorageBackend::Heap`] otherwise (including after a
    /// copy-on-write mutation promoted any column to the heap).
    pub fn backend(&self) -> StorageBackend {
        if !self.columns.is_empty()
            && self.columns.iter().all(|c| c.backend() == StorageBackend::Mapped)
        {
            StorageBackend::Mapped
        } else {
            StorageBackend::Heap
        }
    }

    /// Verifies every checksum-guarded mapped fragment against its
    /// persisted checksum (trivially `Ok` for heap tables). Note this
    /// faults in every data page of a mapped store — it is an explicit
    /// integrity sweep, not part of any open or search path.
    ///
    /// # Errors
    ///
    /// The first [`VdError::ChecksumMismatch`] encountered.
    pub fn verify_checksums(&self) -> Result<()> {
        self.columns.iter().try_for_each(Column::verify_checksum)
    }

    /// Reconstructs the full vector of a row (a positional "tuple
    /// reconstruction" join over all fragments).
    pub fn row(&self, row: RowId) -> Result<Vec<f64>> {
        if (row as usize) >= self.rows {
            return Err(VdError::RowOutOfBounds { row, rows: self.rows });
        }
        Ok(self.columns.iter().map(|c| c.value(row)).collect())
    }

    /// The value of dimension `dim` of row `row`.
    pub fn value(&self, row: RowId, dim: usize) -> Result<f64> {
        self.column(dim)?.get(row)
    }

    /// Appends a vector as a new row and returns its row id.
    ///
    /// Appending is the common update pattern for image collections
    /// (Section 6.2); each per-dimension fragment grows by one value. A NaN
    /// or infinite value is rejected ([`VdError::NonFinite`]) and the table
    /// left as it was; so is a mapped table whose fragments fail the
    /// verification of their copy-on-write promotion
    /// ([`VdError::ChecksumMismatch`], or [`VdError::NonFinite`] for a NaN
    /// or ±∞ stored in them).
    pub fn append(&mut self, vector: &[f64]) -> Result<RowId> {
        if vector.len() != self.columns.len() {
            return Err(VdError::DimensionMismatch {
                expected: self.columns.len(),
                actual: vector.len(),
            });
        }
        if let Some(dim) = vector.iter().position(|x| !x.is_finite()) {
            return Err(VdError::NonFinite { row: self.rows as RowId, dim });
        }
        // every column reaches the heap before any grows, so a fragment
        // that fails its promotion leaves every column's length as it was
        for c in &mut self.columns {
            c.make_owned()?;
        }
        for (c, &x) in self.columns.iter_mut().zip(vector) {
            c.push(x);
        }
        let id = self.rows as RowId;
        self.rows += 1;
        // grow the tombstone bitmap
        let mut deleted = Bitmap::new(self.rows);
        for r in self.deleted.iter() {
            deleted.set(r);
        }
        self.deleted = deleted;
        Ok(id)
    }

    /// Marks a row as deleted (tombstone); the physical data remains until
    /// [`DecomposedTable::reorganize`] runs.
    pub fn delete(&mut self, row: RowId) -> Result<()> {
        if (row as usize) >= self.rows {
            return Err(VdError::RowOutOfBounds { row, rows: self.rows });
        }
        self.deleted.set(row);
        Ok(())
    }

    /// Whether a row is tombstoned.
    pub fn is_deleted(&self, row: RowId) -> bool {
        self.deleted.get(row)
    }

    /// The tombstone bitmap: a set bit marks a deleted row.
    pub(crate) fn tombstones(&self) -> &Bitmap {
        &self.deleted
    }

    /// The bitmap of live rows (complement of the tombstones). This is the
    /// bitmap BOND starts its candidate set from, and the one a prior
    /// relational predicate would be intersected into.
    pub fn live_bitmap(&self) -> Bitmap {
        let mut live = self.deleted.clone();
        live.negate();
        live
    }

    /// Physically removes tombstoned rows and compacts the fragments
    /// ("periodic reorganization of the collection", Section 6.2).
    ///
    /// Returns the mapping from new row ids to old row ids.
    pub fn reorganize(&mut self) -> Vec<RowId> {
        let keep: Vec<RowId> = self.live_bitmap().to_rows();
        let mut new_columns = Vec::with_capacity(self.columns.len());
        for c in &self.columns {
            new_columns.push(Column::new(c.name(), c.gather(&keep)));
        }
        self.columns = new_columns;
        self.rows = keep.len();
        self.deleted = Bitmap::new(self.rows);
        keep
    }

    /// Copies the table into a row-major matrix (what the sequential-scan
    /// baselines SSH/SSE operate on).
    pub fn to_row_matrix(&self) -> RowMatrix {
        let dims = self.dims();
        let mut data = Vec::with_capacity(self.rows * dims);
        for r in 0..self.rows {
            for c in &self.columns {
                data.push(c.value(r as RowId));
            }
        }
        RowMatrix::new(dims, data).expect("table columns are rectangular")
    }

    /// Returns a new table containing only the given dimensions, in the
    /// given order (a subspace projection; rows are shared by value).
    pub fn project(&self, dims: &[usize]) -> Result<DecomposedTable> {
        let mut columns = Vec::with_capacity(dims.len());
        for &d in dims {
            columns.push(self.column(d)?.clone());
        }
        // the values are this table's, checked (or opened) already
        let mut t =
            DecomposedTable::from_columns_unchecked(format!("{}_proj", self.name), columns)?;
        t.deleted = self.deleted.clone();
        Ok(t)
    }

    /// Per-row sum of all dimensions, `T(x)` in the paper's notation. BOND's
    /// `Ev` criterion materialises this table once and updates it as
    /// dimensions are consumed.
    pub fn row_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.rows];
        for c in &self.columns {
            for (s, &v) in sums.iter_mut().zip(c.values()) {
                *s += v;
            }
        }
        sums
    }
}

/// Incremental builder that accepts vectors one at a time.
#[derive(Debug, Default)]
pub struct TableBuilder {
    name: String,
    dims: Option<usize>,
    vectors: Vec<Vec<f64>>,
}

impl TableBuilder {
    /// Creates a builder for a table with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TableBuilder { name: name.into(), dims: None, vectors: Vec::new() }
    }

    /// Adds one vector; all vectors must share the same dimensionality.
    pub fn push(&mut self, vector: Vec<f64>) -> Result<&mut Self> {
        match self.dims {
            None => self.dims = Some(vector.len()),
            Some(d) if d != vector.len() => {
                return Err(VdError::DimensionMismatch { expected: d, actual: vector.len() })
            }
            _ => {}
        }
        self.vectors.push(vector);
        Ok(self)
    }

    /// Number of vectors added so far.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether no vectors have been added.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Finishes the build, decomposing the collected vectors.
    pub fn build(self) -> Result<DecomposedTable> {
        DecomposedTable::from_vectors(self.name, &self.vectors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DecomposedTable {
        DecomposedTable::from_vectors(
            "h",
            &[vec![0.1, 0.2, 0.3, 0.4], vec![0.4, 0.3, 0.2, 0.1], vec![0.25, 0.25, 0.25, 0.25]],
        )
        .unwrap()
    }

    #[test]
    fn decomposition_is_columnar() {
        let t = sample();
        assert_eq!(t.dims(), 4);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.column(0).unwrap().values(), &[0.1, 0.4, 0.25]);
        assert_eq!(t.column(3).unwrap().values(), &[0.4, 0.1, 0.25]);
        assert_eq!(t.row(1).unwrap(), vec![0.4, 0.3, 0.2, 0.1]);
        assert_eq!(t.value(2, 1).unwrap(), 0.25);
        assert!(t.column(4).is_err());
        assert!(t.row(3).is_err());
    }

    #[test]
    fn from_columns_validates_lengths() {
        let err = DecomposedTable::from_columns(
            "bad",
            vec![Column::from_values(vec![1.0]), Column::from_values(vec![1.0, 2.0])],
        );
        assert!(matches!(err, Err(VdError::LengthMismatch { .. })));
        assert!(DecomposedTable::from_columns("empty", vec![]).is_err());
    }

    #[test]
    fn from_parts_installs_tombstones_wholesale() {
        let t = sample();
        let rebuilt =
            DecomposedTable::from_parts(t.name(), t.columns().to_vec(), Bitmap::from_rows(3, &[1]))
                .unwrap();
        assert_eq!(rebuilt.rows(), 3);
        assert!(rebuilt.is_deleted(1));
        assert_eq!(rebuilt.live_rows(), 2);
        // bitmap length must match the column length
        let err = DecomposedTable::from_parts("bad", t.columns().to_vec(), Bitmap::new(5));
        assert!(matches!(err, Err(VdError::LengthMismatch { expected: 3, actual: 5 })));
    }

    #[test]
    fn from_vectors_validates_dims() {
        let err = DecomposedTable::from_vectors("bad", &[vec![1.0, 2.0], vec![1.0]]);
        assert!(matches!(err, Err(VdError::DimensionMismatch { expected: 2, actual: 1 })));
        assert!(DecomposedTable::from_vectors("empty", &[]).is_err());
        assert!(DecomposedTable::from_vectors("zero-dim", &[vec![]]).is_err());
    }

    #[test]
    fn from_vectors_rejects_non_finite_values() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = DecomposedTable::from_vectors("bad", &[vec![0.5, 1.0], vec![2.0, bad]]);
            assert_eq!(err.unwrap_err(), VdError::NonFinite { row: 1, dim: 1 });
            // and so does the builder, which decomposes through it
            let mut b = TableBuilder::new("bad");
            b.push(vec![bad, 0.0]).unwrap();
            assert_eq!(b.build().unwrap_err(), VdError::NonFinite { row: 0, dim: 0 });
        }
    }

    #[test]
    fn from_columns_and_from_parts_reject_non_finite_values() {
        let columns = || {
            vec![
                Column::from_values(vec![1.0, 2.0, 3.0]),
                Column::from_values(vec![0.0, f64::NAN, 1.0]),
            ]
        };
        let err = DecomposedTable::from_columns("bad", columns()).unwrap_err();
        assert_eq!(err, VdError::NonFinite { row: 1, dim: 1 });
        let err = DecomposedTable::from_parts("bad", columns(), Bitmap::new(3)).unwrap_err();
        assert_eq!(err, VdError::NonFinite { row: 1, dim: 1 }, "a tombstone does not excuse it");
        // the store readers' constructors do not scan the values
        assert!(DecomposedTable::from_columns_unchecked("opened", columns()).is_ok());
        assert!(DecomposedTable::from_parts_unchecked("opened", columns(), Bitmap::new(3)).is_ok());
    }

    #[test]
    fn append_rejects_non_finite_values_and_leaves_the_table_as_it_was() {
        let mut t = sample();
        let err = t.append(&[0.1, f64::INFINITY, 0.3, 0.4]).unwrap_err();
        assert_eq!(err, VdError::NonFinite { row: 3, dim: 1 });
        assert_eq!(t, sample());
    }

    #[test]
    fn append_and_delete() {
        let mut t = sample();
        let id = t.append(&[0.0, 0.0, 0.0, 1.0]).unwrap();
        assert_eq!(id, 3);
        assert_eq!(t.rows(), 4);
        assert_eq!(t.row(3).unwrap(), vec![0.0, 0.0, 0.0, 1.0]);
        assert!(t.append(&[1.0]).is_err());

        t.delete(1).unwrap();
        assert!(t.is_deleted(1));
        assert_eq!(t.live_rows(), 3);
        assert_eq!(t.live_bitmap().to_rows(), vec![0, 2, 3]);
        assert!(t.delete(99).is_err());
    }

    #[test]
    fn reorganize_compacts() {
        let mut t = sample();
        t.delete(0).unwrap();
        let mapping = t.reorganize();
        assert_eq!(mapping, vec![1, 2]);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.live_rows(), 2);
        assert_eq!(t.row(0).unwrap(), vec![0.4, 0.3, 0.2, 0.1]);
    }

    #[test]
    fn row_matrix_round_trip() {
        let t = sample();
        let m = t.to_row_matrix();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.dims(), 4);
        assert_eq!(m.row(2), &[0.25, 0.25, 0.25, 0.25]);
    }

    #[test]
    fn projection_and_row_sums() {
        let t = sample();
        let p = t.project(&[3, 0]).unwrap();
        assert_eq!(p.dims(), 2);
        assert_eq!(p.row(0).unwrap(), vec![0.4, 0.1]);
        assert!(t.project(&[9]).is_err());

        let sums = t.row_sums();
        assert_eq!(sums.len(), 3);
        for s in sums {
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn builder() {
        let mut b = TableBuilder::new("built");
        assert!(b.is_empty());
        b.push(vec![1.0, 2.0]).unwrap();
        b.push(vec![3.0, 4.0]).unwrap();
        assert_eq!(b.len(), 2);
        assert!(b.push(vec![1.0]).is_err());
        let t = b.build().unwrap();
        assert_eq!(t.rows(), 2);
        assert_eq!(t.name(), "built");
    }
}
