//! Dense max-plus matrices.

use std::fmt;

use crate::eigen;
use crate::precedence::PrecedenceGraph;
use crate::{Mp, MpError, MpVector, Rational};

/// A dense matrix over the max-plus semiring.
///
/// The matrix produced by symbolically executing one iteration of an SDF
/// graph (paper, Alg. 1) relates the time stamps of the initial tokens after
/// the iteration to those before it:
///
/// ```text
/// x'(k) = max_j ( A[k][j] + x(j) )      i.e.   x' = A ⊗ x
/// ```
///
/// Row `k` of the matrix is the symbolic time stamp of token `k` after one
/// iteration; entry `A[k][j] = −∞` means token `k` does not depend on token
/// `j`.
///
/// # Example
///
/// ```
/// use sdfr_maxplus::{Mp, MpMatrix, MpVector};
///
/// let a = MpMatrix::from_rows(vec![
///     vec![Mp::fin(2), Mp::NEG_INF],
///     vec![Mp::fin(1), Mp::fin(3)],
/// ])?;
/// let x = MpVector::zeros(2);
/// let x1 = a.apply(&x)?;
/// assert_eq!(x1.as_slice(), &[Mp::fin(2), Mp::fin(3)]);
/// # Ok::<(), sdfr_maxplus::MpError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MpMatrix {
    rows: usize,
    cols: usize,
    // Row-major storage.
    data: Vec<Mp>,
}

impl MpMatrix {
    /// Creates a `rows × cols` matrix filled with `−∞` (the semiring zero
    /// matrix).
    pub fn neg_inf(rows: usize, cols: usize) -> Self {
        MpMatrix {
            rows,
            cols,
            data: vec![Mp::NegInf; rows * cols],
        }
    }

    /// Creates the `n × n` max-plus identity: `0` on the diagonal, `−∞`
    /// elsewhere.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::neg_inf(n, n);
        for i in 0..n {
            m.set(i, i, Mp::ZERO);
        }
        m
    }

    /// Creates a matrix from row vectors.
    ///
    /// # Errors
    ///
    /// Returns [`MpError::RaggedRows`] if rows have different lengths.
    pub fn from_rows(rows: Vec<Vec<Mp>>) -> Result<Self, MpError> {
        let ncols = rows.first().map_or(0, Vec::len);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != ncols {
                return Err(MpError::RaggedRows {
                    expected: ncols,
                    found: r.len(),
                    row: i,
                });
            }
        }
        let nrows = rows.len();
        Ok(MpMatrix {
            rows: nrows,
            cols: ncols,
            data: rows.into_iter().flatten().collect(),
        })
    }

    /// Creates a matrix from [`MpVector`] rows.
    ///
    /// # Errors
    ///
    /// Returns [`MpError::RaggedRows`] if rows have different lengths.
    pub fn from_row_vectors(rows: Vec<MpVector>) -> Result<Self, MpError> {
        Self::from_rows(rows.into_iter().map(MpVector::into_entries).collect())
    }

    /// Creates a matrix from sentinel-encoded [`FlatVector`](crate::FlatVector)
    /// rows — the boundary conversion out of the flat kernel's hot loops.
    ///
    /// # Errors
    ///
    /// Returns [`MpError::RaggedRows`] if rows have different lengths.
    pub fn from_flat_rows(rows: Vec<crate::FlatVector>) -> Result<Self, MpError> {
        let ncols = rows.first().map_or(0, crate::FlatVector::len);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != ncols {
                return Err(MpError::RaggedRows {
                    expected: ncols,
                    found: r.len(),
                    row: i,
                });
            }
        }
        let nrows = rows.len();
        Ok(MpMatrix {
            rows: nrows,
            cols: ncols,
            data: rows
                .iter()
                .flat_map(|r| r.as_slice().iter().map(|&e| Mp::from_flat(e)))
                .collect(),
        })
    }

    /// The matrix in sentinel-encoded row-major form (see [`crate::flat`]):
    /// one contiguous `i64` buffer the flat kernels iterate directly.
    pub fn to_flat_row_major(&self) -> Vec<i64> {
        self.data.iter().map(|e| e.to_flat()).collect()
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// The entry at row `i`, column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Mp {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        self.data[i * self.cols + j]
    }

    /// Sets the entry at row `i`, column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: Mp) {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        self.data[i * self.cols + j] = v;
    }

    /// Row `i` as a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> MpVector {
        assert!(i < self.rows, "row index out of bounds");
        MpVector::from_entries(
            self.data[i * self.cols..(i + 1) * self.cols]
                .iter()
                .copied(),
        )
    }

    /// Column `j` as a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn column(&self, j: usize) -> MpVector {
        assert!(j < self.cols, "column index out of bounds");
        MpVector::from_entries((0..self.rows).map(|i| self.get(i, j)))
    }

    /// Applies the matrix to a vector: `(A ⊗ x)_i = max_j (A[i][j] + x_j)`.
    ///
    /// # Errors
    ///
    /// Returns [`MpError::DimensionMismatch`] if `x.len() != num_cols()`.
    pub fn apply(&self, x: &MpVector) -> Result<MpVector, MpError> {
        if x.len() != self.cols {
            return Err(MpError::DimensionMismatch {
                expected: self.cols,
                found: x.len(),
                op: "MpMatrix::apply",
            });
        }
        Ok(MpVector::from_entries((0..self.rows).map(|i| {
            (0..self.cols)
                .map(|j| self.get(i, j) + x[j])
                .max()
                .unwrap_or(Mp::NegInf)
        })))
    }

    /// Max-plus matrix product `self ⊗ rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`MpError::DimensionMismatch`] if the inner dimensions differ.
    pub fn matmul(&self, rhs: &MpMatrix) -> Result<MpMatrix, MpError> {
        if self.cols != rhs.rows {
            return Err(MpError::DimensionMismatch {
                expected: self.cols,
                found: rhs.rows,
                op: "MpMatrix::matmul",
            });
        }
        let mut out = MpMatrix::neg_inf(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.get(i, k);
                if aik.is_neg_inf() {
                    continue;
                }
                for j in 0..rhs.cols {
                    let v = aik + rhs.get(k, j);
                    if v > out.get(i, j) {
                        out.set(i, j, v);
                    }
                }
            }
        }
        Ok(out)
    }

    /// The `k`-th max-plus power of a square matrix (`A^0` is the identity).
    ///
    /// # Errors
    ///
    /// Returns [`MpError::NotSquare`] if the matrix is not square.
    pub fn pow(&self, k: u32) -> Result<MpMatrix, MpError> {
        if !self.is_square() {
            return Err(MpError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let mut result = MpMatrix::identity(self.rows);
        let mut base = self.clone();
        let mut k = k;
        while k > 0 {
            if k & 1 == 1 {
                result = result.matmul(&base)?;
            }
            k >>= 1;
            if k > 0 {
                base = base.matmul(&base)?;
            }
        }
        Ok(result)
    }

    /// The number of finite entries.
    ///
    /// The paper notes the matrix is "often quite sparse" in practice; the
    /// size of the HSDF graph built from it grows with this count.
    pub fn finite_count(&self) -> usize {
        self.data.iter().filter(|e| e.is_finite()).count()
    }

    /// The transpose of the matrix.
    pub fn transpose(&self) -> MpMatrix {
        let mut out = MpMatrix::neg_inf(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// The precedence graph of a square matrix: node `j → k` with weight
    /// `A[k][j]` for every finite entry.
    ///
    /// # Errors
    ///
    /// Returns [`MpError::NotSquare`] if the matrix is not square.
    pub fn precedence_graph(&self) -> Result<PrecedenceGraph, MpError> {
        PrecedenceGraph::of_matrix(self)
    }

    /// The max-plus eigenvalue: the maximum cycle mean of the precedence
    /// graph, or `None` if the precedence graph is acyclic (every entry of
    /// `A^n` eventually becomes `−∞`; the recurrence dies out).
    ///
    /// For the matrix of an SDF graph iteration this is the *iteration
    /// period* λ; the graph's throughput of actor `a` is `γ(a)/λ`.
    ///
    /// # Errors
    ///
    /// Returns [`MpError::NotSquare`] if the matrix is not square, and
    /// [`MpError::Overflow`] as [`eigen::maximum_cycle_ratio`].
    pub fn eigenvalue(&self) -> Result<Option<Rational>, MpError> {
        eigen::eigenvalue(self)
    }
}

impl fmt::Display for MpMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:>5}", self.get(i, j).to_string())?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: Vec<Vec<i64>>) -> MpMatrix {
        MpMatrix::from_rows(
            rows.into_iter()
                .map(|r| r.into_iter().map(Mp::fin).collect())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn construction_and_access() {
        let a = m(vec![vec![1, 2], vec![3, 4]]);
        assert_eq!(a.num_rows(), 2);
        assert_eq!(a.num_cols(), 2);
        assert!(a.is_square());
        assert_eq!(a.get(0, 1), Mp::fin(2));
        assert_eq!(a.row(1).as_slice(), &[Mp::fin(3), Mp::fin(4)]);
        assert_eq!(a.column(0).as_slice(), &[Mp::fin(1), Mp::fin(3)]);
        assert_eq!(a.finite_count(), 4);
    }

    #[test]
    fn ragged_rows_rejected() {
        let r = MpMatrix::from_rows(vec![vec![Mp::ZERO], vec![Mp::ZERO, Mp::ZERO]]);
        assert!(matches!(r, Err(MpError::RaggedRows { row: 1, .. })));
    }

    #[test]
    fn identity_is_neutral() {
        let a = m(vec![vec![1, 2], vec![3, 4]]);
        let i = MpMatrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn apply_matches_manual() {
        let a = MpMatrix::from_rows(vec![
            vec![Mp::fin(2), Mp::NegInf],
            vec![Mp::fin(1), Mp::fin(3)],
        ])
        .unwrap();
        let x = MpVector::from_entries([Mp::fin(10), Mp::fin(0)]);
        let y = a.apply(&x).unwrap();
        assert_eq!(y.as_slice(), &[Mp::fin(12), Mp::fin(11)]);
        assert!(a.apply(&MpVector::zeros(3)).is_err());
    }

    #[test]
    fn matmul_associative_on_example() {
        let a = m(vec![vec![1, 0], vec![2, -1]]);
        let b = m(vec![vec![0, 3], vec![1, 1]]);
        let c = m(vec![vec![2, 2], vec![0, 0]]);
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        assert_eq!(left, right);
    }

    #[test]
    fn matmul_dimension_check() {
        let a = MpMatrix::neg_inf(2, 3);
        let b = MpMatrix::neg_inf(2, 2);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let a = m(vec![vec![1, 0], vec![2, -1]]);
        let a3 = a.matmul(&a).unwrap().matmul(&a).unwrap();
        assert_eq!(a.pow(3).unwrap(), a3);
        assert_eq!(a.pow(0).unwrap(), MpMatrix::identity(2));
        assert!(MpMatrix::neg_inf(2, 3).pow(2).is_err());
    }

    #[test]
    fn power_application_consistency() {
        // (A^2) ⊗ x == A ⊗ (A ⊗ x)
        let a = m(vec![vec![1, 5], vec![0, 2]]);
        let x = MpVector::from_entries([Mp::fin(3), Mp::NegInf]);
        let lhs = a.pow(2).unwrap().apply(&x).unwrap();
        let rhs = a.apply(&a.apply(&x).unwrap()).unwrap();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn transpose() {
        let a = MpMatrix::from_rows(vec![
            vec![Mp::fin(1), Mp::NegInf, Mp::fin(3)],
            vec![Mp::fin(4), Mp::fin(5), Mp::NegInf],
        ])
        .unwrap();
        let t = a.transpose();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_cols(), 2);
        assert_eq!(t.get(2, 0), Mp::fin(3));
        assert_eq!(t.get(1, 1), Mp::fin(5));
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn display_contains_entries() {
        let a = m(vec![vec![1, 2]]);
        let s = a.to_string();
        assert!(s.contains('1') && s.contains('2'));
    }

    #[test]
    fn flat_roundtrip() {
        let a = MpMatrix::from_rows(vec![
            vec![Mp::fin(1), Mp::NegInf, Mp::fin(3)],
            vec![Mp::fin(4), Mp::fin(5), Mp::NegInf],
        ])
        .unwrap();
        let flat = a.to_flat_row_major();
        assert_eq!(flat[1], crate::flat::NEG_INF);
        assert_eq!(flat[3], 4);
        let rows = vec![
            crate::FlatVector::from_mp(&a.row(0)),
            crate::FlatVector::from_mp(&a.row(1)),
        ];
        assert_eq!(MpMatrix::from_flat_rows(rows).unwrap(), a);
        assert!(matches!(
            MpMatrix::from_flat_rows(vec![
                crate::FlatVector::neg_inf(1),
                crate::FlatVector::neg_inf(2)
            ]),
            Err(MpError::RaggedRows { row: 1, .. })
        ));
        assert_eq!(MpMatrix::from_flat_rows(vec![]).unwrap().num_rows(), 0);
    }
}

impl MpMatrix {
    /// The entrywise maximum (`⊕`) of two equally sized matrices.
    ///
    /// # Errors
    ///
    /// Returns [`MpError::DimensionMismatch`] when shapes differ.
    pub fn join(&self, other: &MpMatrix) -> Result<MpMatrix, MpError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(MpError::DimensionMismatch {
                expected: self.rows * self.cols,
                found: other.rows * other.cols,
                op: "MpMatrix::join",
            });
        }
        let mut out = MpMatrix::neg_inf(self.rows, self.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(i, j, self.get(i, j).max(other.get(i, j)));
            }
        }
        Ok(out)
    }

    /// Adds the scalar `delta` to every finite entry (`⊗` by a scalar).
    pub fn shift(&self, delta: crate::Time) -> MpMatrix {
        let mut out = MpMatrix::neg_inf(self.rows, self.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(i, j, self.get(i, j) + delta);
            }
        }
        out
    }

    /// The max-plus trace: the maximum diagonal entry of a square matrix
    /// (the best one-step cycle weight).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> Mp {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows)
            .map(|i| self.get(i, i))
            .max()
            .unwrap_or(Mp::NegInf)
    }

    /// Returns `true` if the precedence graph of a square matrix is
    /// strongly connected (the matrix is *irreducible*), in which case the
    /// max-plus cyclicity theorem guarantees a unique eigenvalue and an
    /// eventually periodic power sequence.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn is_irreducible(&self) -> bool {
        assert!(self.is_square(), "irreducibility requires a square matrix");
        if self.rows == 0 {
            return false;
        }
        let pg = self.precedence_graph().expect("square checked");
        pg.sccs().len() == 1
    }
}

#[cfg(test)]
mod ops_tests {
    use super::*;

    fn m(rows: Vec<Vec<i64>>) -> MpMatrix {
        MpMatrix::from_rows(
            rows.into_iter()
                .map(|r| r.into_iter().map(Mp::fin).collect())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn join_takes_entrywise_max() {
        let a = m(vec![vec![1, 5], vec![0, 2]]);
        let b = m(vec![vec![3, 4], vec![-1, 7]]);
        let j = a.join(&b).unwrap();
        assert_eq!(j.get(0, 0), Mp::fin(3));
        assert_eq!(j.get(0, 1), Mp::fin(5));
        assert_eq!(j.get(1, 1), Mp::fin(7));
        assert!(a.join(&MpMatrix::neg_inf(3, 2)).is_err());
    }

    #[test]
    fn join_distributes_over_apply() {
        // (A ⊕ B) ⊗ x = (A ⊗ x) ⊕ (B ⊗ x)
        let a = m(vec![vec![1, 5], vec![0, 2]]);
        let b = m(vec![vec![3, 4], vec![-1, 7]]);
        let x = crate::MpVector::from_entries([Mp::fin(2), Mp::fin(-1)]);
        let lhs = a.join(&b).unwrap().apply(&x).unwrap();
        let rhs = a.apply(&x).unwrap().join(&b.apply(&x).unwrap()).unwrap();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn shift_moves_eigenvalue() {
        let a = m(vec![vec![2, 8], vec![1, 3]]);
        let l = a.eigenvalue().unwrap().unwrap();
        let shifted = a.shift(5);
        assert_eq!(
            shifted.eigenvalue().unwrap().unwrap(),
            l + crate::Rational::from(5)
        );
        // −∞ entries stay −∞.
        let mut b = MpMatrix::neg_inf(1, 1);
        b = b.shift(10);
        assert!(b.get(0, 0).is_neg_inf());
    }

    #[test]
    fn trace_is_best_self_loop() {
        let a = m(vec![vec![2, 8], vec![1, 3]]);
        assert_eq!(a.trace(), Mp::fin(3));
        assert_eq!(MpMatrix::neg_inf(2, 2).trace(), Mp::NegInf);
    }

    #[test]
    fn irreducibility() {
        let a = m(vec![vec![2, 8], vec![1, 3]]);
        assert!(a.is_irreducible());
        let mut b = MpMatrix::neg_inf(2, 2);
        b.set(1, 0, Mp::fin(1));
        assert!(!b.is_irreducible());
        assert!(!MpMatrix::neg_inf(0, 0).is_irreducible());
    }
}
