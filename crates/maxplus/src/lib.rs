//! Max-plus algebra substrate for synchronous dataflow analysis.
//!
//! The max-plus semiring `(ℝ ∪ {−∞}, max, +)` is the algebraic backbone of
//! timed synchronous dataflow (SDF) analysis [Baccelli et al., *Synchronization
//! and Linearity*, 1992]. Token production times in a self-timed execution of
//! an SDF graph evolve as a linear max-plus recurrence `x(k+1) = A ⊗ x(k)`,
//! where `A` is a square matrix over the initial tokens of the graph. The
//! throughput of the graph is determined by the max-plus *eigenvalue* of `A`,
//! which equals the maximum cycle mean of the matrix's precedence graph.
//!
//! This crate provides exact integer-time max-plus arithmetic:
//!
//! - [`Mp`] — a semiring element, either `−∞` or a finite integer time,
//! - [`Rational`] — exact rational numbers for cycle means and throughput,
//! - [`MpVector`] — vectors of semiring elements with normalization,
//! - [`MpMatrix`] — dense matrices with `⊗` composition and vector application,
//! - [`precedence`] — the weighted precedence digraph of a matrix,
//! - [`eigen`] — the maximum cycle ratio (checked integer policy
//!   iteration) and, as its unit-token case, the max-plus eigenvalue,
//! - [`closure`] — sparse longest-path potentials, the critical graph, and
//!   the dense Kleene star `A*` with eigenvectors,
//! - [`recurrence`] — periodicity detection for `x(k+1) = A ⊗ x(k)`.
//!
//! All times are exact `i64` values, so vector comparison, hashing and
//! periodicity detection are exact — no floating-point tolerance anywhere.
//!
//! # Example
//!
//! ```
//! use sdfr_maxplus::{Mp, MpMatrix, Rational};
//!
//! // A graph whose single iteration moves two tokens with delays 3 and 5,
//! // cross-coupled: x1' = x2 + 3, x2' = max(x1 + 5, x2 + 4).
//! let a = MpMatrix::from_rows(vec![
//!     vec![Mp::NEG_INF, Mp::fin(3)],
//!     vec![Mp::fin(5), Mp::fin(4)],
//! ])?;
//! let lambda = a.eigenvalue()?.expect("matrix has a cycle");
//! assert_eq!(lambda, Rational::new(4, 1)); // max((3+5)/2, 4/1) = 4
//! # Ok::<(), sdfr_maxplus::MpError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod matrix;
mod rational;
mod value;
mod vector;

pub mod closure;
pub mod eigen;
pub mod flat;
pub mod precedence;
pub mod recurrence;

pub use error::MpError;
pub use flat::FlatVector;
pub use matrix::MpMatrix;
pub use rational::Rational;
pub use value::{Mp, Time};
pub use vector::MpVector;
