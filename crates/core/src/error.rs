//! Error type for the BOND engine.

use std::fmt;

use vdstore::VdError;

/// Errors produced by BOND searches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BondError {
    /// The underlying storage layer reported an error.
    Storage(VdError),
    /// `k` is zero or exceeds the number of live rows.
    InvalidK {
        /// Requested k.
        k: usize,
        /// Live rows available.
        rows: usize,
    },
    /// The query's dimensionality does not match the table.
    QueryDimensionMismatch {
        /// Table dimensionality.
        expected: usize,
        /// Query dimensionality.
        actual: usize,
    },
    /// The weight vector's dimensionality does not match the table.
    WeightDimensionMismatch {
        /// Table dimensionality.
        expected: usize,
        /// Weight vector dimensionality.
        actual: usize,
    },
    /// A per-feature query of a multi-feature spec does not match its
    /// feature collection's dimensionality.
    FeatureDimensionMismatch {
        /// Index of the offending feature within the spec.
        feature: usize,
        /// The feature collection's dimensionality.
        expected: usize,
        /// The supplied query's dimensionality.
        actual: usize,
    },
    /// A query coordinate or a rule weight is NaN or infinite: no score,
    /// bound or dimension order is defined for it.
    NonFinite {
        /// What holds the value: `"query"`, `"weight"` or `"feature query"`.
        what: &'static str,
        /// The dimension it sits in.
        dim: usize,
    },
    /// An eligibility filter is unusable: its bitmap addresses a different
    /// row domain than the table, or it leaves no live row eligible. The
    /// message states which.
    InvalidFilter(String),
    /// Invalid parameter combination, described in the message.
    InvalidParams(String),
    /// A serving front-end could not complete the request (shut down, or
    /// its worker died before answering).
    ServiceUnavailable(String),
}

impl fmt::Display for BondError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BondError::Storage(e) => write!(f, "storage error: {e}"),
            BondError::InvalidK { k, rows } => {
                write!(f, "invalid k = {k} for a collection with {rows} live rows")
            }
            BondError::QueryDimensionMismatch { expected, actual } => {
                write!(f, "query has {actual} dimensions, table has {expected}")
            }
            BondError::WeightDimensionMismatch { expected, actual } => {
                write!(f, "weight vector has {actual} dimensions, table has {expected}")
            }
            BondError::FeatureDimensionMismatch { feature, expected, actual } => {
                write!(
                    f,
                    "feature {feature}: query has {actual} dimensions, collection has {expected}"
                )
            }
            BondError::NonFinite { what, dim } => {
                write!(f, "{what} value in dimension {dim} is not finite")
            }
            BondError::InvalidFilter(msg) => write!(f, "invalid filter: {msg}"),
            BondError::InvalidParams(msg) => write!(f, "invalid parameters: {msg}"),
            BondError::ServiceUnavailable(msg) => write!(f, "service unavailable: {msg}"),
        }
    }
}

impl std::error::Error for BondError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BondError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VdError> for BondError {
    fn from(e: VdError) -> Self {
        BondError::Storage(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, BondError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = BondError::InvalidK { k: 100, rows: 10 };
        assert!(e.to_string().contains("k = 100"));
        let e = BondError::QueryDimensionMismatch { expected: 166, actual: 64 };
        assert!(e.to_string().contains("166"));
        let e: BondError = VdError::Empty("columns").into();
        assert!(matches!(e, BondError::Storage(_)));
        assert!(std::error::Error::source(&e).is_some());
        let e = BondError::InvalidParams("bad".into());
        assert!(std::error::Error::source(&e).is_none());
        assert!(e.to_string().contains("bad"));
        let e = BondError::WeightDimensionMismatch { expected: 4, actual: 2 };
        assert!(e.to_string().contains("weight"));
        let e = BondError::ServiceUnavailable("shut down".into());
        assert!(e.to_string().contains("service unavailable"));
        assert!(std::error::Error::source(&e).is_none());
        let e = BondError::InvalidFilter("covers 9 rows, table has 10".into());
        assert!(e.to_string().contains("invalid filter"));
        let e = BondError::FeatureDimensionMismatch { feature: 1, expected: 8, actual: 3 };
        assert!(e.to_string().contains("feature 1"));
        assert!(e.to_string().contains('8'));
        let e = BondError::NonFinite { what: "query", dim: 3 };
        assert!(e.to_string().contains("query value in dimension 3 is not finite"));
    }
}
