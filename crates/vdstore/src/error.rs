//! Error type shared by the storage layer.

use std::fmt;

/// Errors produced by the vertically decomposed store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VdError {
    /// A vector with the wrong number of dimensions was supplied.
    DimensionMismatch {
        /// Number of dimensions the table stores.
        expected: usize,
        /// Number of dimensions of the offending vector.
        actual: usize,
    },
    /// Columns of unequal length were combined into one table.
    LengthMismatch {
        /// Length of the first column.
        expected: usize,
        /// Length of the offending column.
        actual: usize,
    },
    /// A row id outside the table was referenced.
    RowOutOfBounds {
        /// The offending row id.
        row: u32,
        /// Number of rows in the table.
        rows: usize,
    },
    /// A dimension index outside the table was referenced.
    DimOutOfBounds {
        /// The offending dimension index.
        dim: usize,
        /// Number of dimensions in the table.
        dims: usize,
    },
    /// An empty collection was supplied where at least one element is needed.
    Empty(&'static str),
    /// `k` larger than the collection, zero, or otherwise unusable.
    InvalidK {
        /// The requested k.
        k: usize,
        /// Number of rows available.
        rows: usize,
    },
    /// The persisted byte stream is malformed.
    Corrupt(String),
    /// An operating-system I/O or memory-mapping operation failed.
    Io(String),
    /// A persisted fragment's content no longer matches its stored
    /// checksum (bit rot, torn write, or out-of-band modification).
    ChecksumMismatch {
        /// Name of the affected column.
        column: String,
        /// The checksum recorded in the store footer.
        expected: u64,
        /// The checksum computed over the fragment's current bytes.
        actual: u64,
    },
    /// A persisted store was written by a format version this build does
    /// not read.
    UnsupportedVersion {
        /// Version number found in the file's magic.
        found: u32,
        /// Newest version this build supports.
        supported: u32,
    },
    /// Invalid quantization parameters (e.g. zero bits or more than 16).
    InvalidQuantization(String),
    /// Invalid argument with a human-readable description.
    InvalidArgument(String),
    /// A table was given a NaN or infinite value: no bound on it holds, so
    /// no search over it can prune soundly.
    NonFinite {
        /// The row holding the value.
        row: u32,
        /// Its dimension.
        dim: usize,
    },
}

impl fmt::Display for VdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VdError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: table has {expected} dims, vector has {actual}")
            }
            VdError::LengthMismatch { expected, actual } => {
                write!(f, "column length mismatch: expected {expected}, got {actual}")
            }
            VdError::RowOutOfBounds { row, rows } => {
                write!(f, "row {row} out of bounds (table has {rows} rows)")
            }
            VdError::DimOutOfBounds { dim, dims } => {
                write!(f, "dimension {dim} out of bounds (table has {dims} dims)")
            }
            VdError::Empty(what) => write!(f, "{what} must not be empty"),
            VdError::InvalidK { k, rows } => {
                write!(f, "invalid k = {k} for a collection of {rows} rows")
            }
            VdError::Corrupt(msg) => write!(f, "corrupt persisted table: {msg}"),
            VdError::ChecksumMismatch { column, expected, actual } => {
                write!(
                    f,
                    "fragment checksum mismatch in column {column:?}: \
                     stored {expected:#018x}, computed {actual:#018x}"
                )
            }
            VdError::Io(msg) => write!(f, "io error: {msg}"),
            VdError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported store format version {found} (this build reads up to {supported})"
                )
            }
            VdError::InvalidQuantization(msg) => write!(f, "invalid quantization: {msg}"),
            VdError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            VdError::NonFinite { row, dim } => {
                write!(f, "non-finite value at row {row}, dimension {dim}")
            }
        }
    }
}

impl std::error::Error for VdError {}

/// Convenience result alias for the storage layer.
pub type Result<T> = std::result::Result<T, VdError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = VdError::DimensionMismatch { expected: 166, actual: 64 };
        assert!(e.to_string().contains("166"));
        assert!(e.to_string().contains("64"));

        let e = VdError::RowOutOfBounds { row: 12, rows: 10 };
        assert!(e.to_string().contains("12"));

        let e = VdError::InvalidK { k: 0, rows: 5 };
        assert!(e.to_string().contains("k = 0"));

        let e = VdError::Corrupt("bad magic".into());
        assert!(e.to_string().contains("bad magic"));

        let e = VdError::Io("mmap failed".into());
        assert!(e.to_string().contains("mmap failed"));

        let e = VdError::ChecksumMismatch { column: "dim_3".into(), expected: 1, actual: 2 };
        assert!(e.to_string().contains("dim_3"));
        assert!(e.to_string().contains("checksum"));

        let e = VdError::UnsupportedVersion { found: 9, supported: 2 };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('2'));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_std_error(_e: &dyn std::error::Error) {}
        takes_std_error(&VdError::Empty("columns"));
    }
}
