//! Error type for max-plus operations.

use std::error::Error;
use std::fmt;

/// Errors raised by max-plus vector and matrix constructors and operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MpError {
    /// A matrix was constructed from rows of unequal length.
    RaggedRows {
        /// Length of the first row.
        expected: usize,
        /// Length of the offending row.
        found: usize,
        /// Index of the offending row.
        row: usize,
    },
    /// Operand dimensions do not agree.
    DimensionMismatch {
        /// Dimension expected by the operation.
        expected: usize,
        /// Dimension actually supplied.
        found: usize,
        /// Short description of the operation.
        op: &'static str,
    },
    /// An operation requiring a square matrix was given a rectangular one.
    NotSquare {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// A longest-path problem has a positive-weight cycle, so it has no
    /// finite potentials.
    PositiveCycle,
    /// A reduced edge weight or a potential does not fit in `i64`.
    Overflow,
}

impl fmt::Display for MpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpError::RaggedRows {
                expected,
                found,
                row,
            } => write!(
                f,
                "row {row} has {found} entries, expected {expected} (ragged matrix)"
            ),
            MpError::DimensionMismatch {
                expected,
                found,
                op,
            } => write!(
                f,
                "{op}: dimension mismatch, expected {expected}, found {found}"
            ),
            MpError::NotSquare { rows, cols } => {
                write!(f, "operation requires a square matrix, got {rows}x{cols}")
            }
            MpError::PositiveCycle => write!(f, "positive-weight cycle: no finite potentials"),
            MpError::Overflow => write!(f, "potential or reduced weight overflows i64"),
        }
    }
}

impl Error for MpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = MpError::RaggedRows {
            expected: 3,
            found: 2,
            row: 1,
        };
        assert!(e.to_string().contains("ragged"));
        let e = MpError::DimensionMismatch {
            expected: 4,
            found: 5,
            op: "apply",
        };
        assert!(e.to_string().contains("apply"));
        let e = MpError::NotSquare { rows: 2, cols: 3 };
        assert!(e.to_string().contains("2x3"));
        assert!(MpError::PositiveCycle.to_string().contains("positive"));
        assert!(MpError::Overflow.to_string().contains("overflow"));
    }
}
