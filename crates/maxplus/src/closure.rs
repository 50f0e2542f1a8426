//! Longest-path closures of max-plus precedence graphs.
//!
//! Two routes compute the same least fixpoints:
//!
//! - [`potentials`] — sparse Bellman–Ford relaxation from an all-zero
//!   start over an edge list at a ratio λ. It yields `B* ⊗ 0` for the
//!   reduced weights `B = s·A − num` (λ = num/s) without building `B*`,
//!   and the *tight* edges it leaves hold every cycle of ratio λ. Static
//!   schedules, [`critical_nodes`] and critical cycles run on it.
//! - [`star`] — the dense Kleene star `A* = I ⊕ A ⊕ A² ⊕ …`, the heaviest
//!   path weights between all node pairs, by O(n³) Floyd–Warshall. It
//!   exists iff no cycle has positive weight; with the normalized matrix
//!   `A_λ = A − λ` it always exists, and [`eigenmode`] reads an
//!   eigenvector off its critical columns. The property tests use it as
//!   the oracle for the sparse route.

use crate::precedence::PrecedenceGraph;
use crate::{Mp, MpError, MpMatrix, MpVector, Rational, Time};

/// The least non-negative longest-path potentials of a weighted digraph
/// at ratio `lambda = num / s`: the least `d ≥ 0` with
/// `d[to] ≥ d[from] + s·weight − num·tokens` on every edge
/// `(from, to, weight, tokens)`.
///
/// Bellman–Ford relaxation from an all-zero start: `O(n·m)` in the worst
/// case, and a few passes over the edge list in practice. When `lambda`
/// is at least the maximum cycle ratio, no cycle has positive reduced
/// weight and the fixpoint exists; the edges it holds with equality (the
/// *tight* edges) contain every cycle whose ratio equals `lambda`.
///
/// Reduced weights are formed in `i128` and rejected only when they, or a
/// potential, leave `i64`.
///
/// # Errors
///
/// - [`MpError::PositiveCycle`] if a cycle has positive reduced weight
///   (`lambda` is below the maximum cycle ratio, or a cycle with positive
///   weight carries no tokens),
/// - [`MpError::Overflow`] if a reduced weight or a potential leaves
///   `i64` (including a positive cycle that overflows before it is
///   detected).
///
/// # Panics
///
/// Panics if an edge endpoint is `>= n`.
///
/// # Example
///
/// ```
/// use sdfr_maxplus::{closure, Rational};
///
/// // A 2-cycle 0 -> 1 -> 0 with weights 2 and 3 and one token: ratio 5.
/// let edges = [(0, 1, 2, 0), (1, 0, 3, 1)];
/// let d = closure::potentials(2, edges, Rational::from(5))?;
/// assert_eq!(d, vec![0, 2]); // node 1 starts 2 after node 0
/// let slack = closure::potentials(2, edges, Rational::from(8))?;
/// assert_eq!(slack, vec![0, 2]);
/// assert!(closure::potentials(2, edges, Rational::from(4)).is_err());
/// # Ok::<(), sdfr_maxplus::MpError>(())
/// ```
pub fn potentials(
    n: usize,
    edges: impl IntoIterator<Item = (usize, usize, Time, u64)>,
    lambda: Rational,
) -> Result<Vec<Time>, MpError> {
    let (s, num) = (i128::from(lambda.denom()), i128::from(lambda.numer()));
    let reduced = edges
        .into_iter()
        .map(|(from, to, weight, tokens)| {
            assert!(from < n && to < n, "edge endpoint out of bounds");
            let w = s * i128::from(weight) - num * i128::from(tokens);
            Ok((from, to, Time::try_from(w).map_err(|_| MpError::Overflow)?))
        })
        .collect::<Result<Vec<_>, MpError>>()?;
    let mut d: Vec<Time> = vec![0; n];
    // A longest path has at most n − 1 edges, so a pass that still
    // changes something after n passes has found a positive cycle.
    for _ in 0..=n {
        let mut changed = false;
        for &(from, to, w) in &reduced {
            // Potentials are non-negative, so only an upward sum overflows.
            let cand = d[from].checked_add(w).ok_or(MpError::Overflow)?;
            if cand > d[to] {
                d[to] = cand;
                changed = true;
            }
        }
        if !changed {
            return Ok(d);
        }
    }
    Err(MpError::PositiveCycle)
}

/// The result of a Kleene-star computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Star {
    /// The closure `A* = I ⊕ A ⊕ A² ⊕ … ⊕ A^{n−1}`.
    Closure(MpMatrix),
    /// The graph has a positive-weight cycle, so powers grow unboundedly
    /// and the star diverges; the witness is a node on such a cycle.
    Diverges {
        /// A node on a positive cycle.
        node: usize,
    },
}

impl Star {
    /// The closure matrix, if it exists.
    pub fn closure(self) -> Option<MpMatrix> {
        match self {
            Star::Closure(m) => Some(m),
            Star::Diverges { .. } => None,
        }
    }
}

/// Computes the Kleene star of a square matrix by Floyd–Warshall-style
/// relaxation in the max-plus semiring.
///
/// # Errors
///
/// Returns [`MpError::NotSquare`] for rectangular input.
///
/// # Example
///
/// ```
/// use sdfr_maxplus::{closure, Mp, MpMatrix};
///
/// // A path graph 0 -> 1 -> 2 with weights 2 and 3.
/// let mut a = MpMatrix::neg_inf(3, 3);
/// a.set(1, 0, Mp::fin(2));
/// a.set(2, 1, Mp::fin(3));
/// let star = closure::star(&a)?.closure().expect("acyclic");
/// assert_eq!(star.get(2, 0), Mp::fin(5)); // heaviest path 0 -> 2
/// assert_eq!(star.get(0, 0), Mp::ZERO);   // identity on the diagonal
/// # Ok::<(), sdfr_maxplus::MpError>(())
/// ```
pub fn star(a: &MpMatrix) -> Result<Star, MpError> {
    if !a.is_square() {
        return Err(MpError::NotSquare {
            rows: a.num_rows(),
            cols: a.num_cols(),
        });
    }
    let n = a.num_rows();
    let mut d = a.clone();
    // Seed the diagonal with the identity (empty paths).
    for i in 0..n {
        if d.get(i, i) < Mp::ZERO {
            d.set(i, i, Mp::ZERO);
        }
    }
    for k in 0..n {
        // A positive diagonal entry is a positive cycle through k.
        if d.get(k, k) > Mp::ZERO {
            return Ok(Star::Diverges { node: k });
        }
        for i in 0..n {
            let dik = d.get(i, k);
            if dik.is_neg_inf() {
                continue;
            }
            for j in 0..n {
                let cand = dik + d.get(k, j);
                if cand > d.get(i, j) {
                    d.set(i, j, cand);
                }
            }
        }
    }
    // Re-check diagonals: relaxation may have exposed a positive cycle.
    for i in 0..n {
        if d.get(i, i) > Mp::ZERO {
            return Ok(Star::Diverges { node: i });
        }
    }
    Ok(Star::Closure(d))
}

/// A max-plus eigenvector certificate: `A ⊗ v = λ·s ⊗ v` in the scaled
/// sense described at [`eigenmode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eigenmode {
    /// The eigenvalue λ as a rational (cycle mean).
    pub lambda: Rational,
    /// Scaling used to make λ integral: the analysis runs on `s·A` whose
    /// eigenvalue is the integer `λ·s`.
    pub scale: i64,
    /// The eigenvector of `s·A` (entries `−∞` for nodes that cannot reach
    /// the critical graph).
    pub vector: MpVector,
}

/// Computes the eigenvalue and an eigenvector of an irreducible-or-better
/// matrix: nodes on (or reaching) the *critical graph* — the cycles whose
/// mean equals λ — receive finite potentials.
///
/// Because λ may be fractional while entries are integers, the computation
/// scales the matrix by the denominator `s` of λ: the returned vector `v`
/// satisfies `(s·A) ⊗ v = s·λ + v` on every coordinate reachable from the
/// critical graph, which is the standard integral form of the eigenproblem.
///
/// Returns `None` if the matrix has no cycle (no eigenvalue).
///
/// # Errors
///
/// Returns [`MpError::NotSquare`] for rectangular input.
pub fn eigenmode(a: &MpMatrix) -> Result<Option<Eigenmode>, MpError> {
    if !a.is_square() {
        return Err(MpError::NotSquare {
            rows: a.num_rows(),
            cols: a.num_cols(),
        });
    }
    let Some(lambda) = a.eigenvalue()? else {
        return Ok(None);
    };
    let n = a.num_rows();
    let scale = lambda.denom();
    let shift = lambda.numer(); // s·λ with s = denom
                                // B = s·A − s·λ entrywise: every cycle of B has weight <= 0 and the
                                // critical cycles have weight exactly 0, so B* exists.
    let mut b = MpMatrix::neg_inf(n, n);
    for i in 0..n {
        for j in 0..n {
            if let Mp::Fin(w) = a.get(i, j) {
                b.set(i, j, Mp::fin(w * scale - shift));
            }
        }
    }
    let bstar = match star(&b)? {
        Star::Closure(m) => m,
        Star::Diverges { .. } => {
            unreachable!("B has no positive cycles by construction of λ")
        }
    };
    // Critical nodes: on a zero-weight cycle of B, i.e. B⁺(i,i) = 0 where
    // B⁺ = B ⊗ B*. Columns of B* at critical nodes are eigenvectors; their
    // max-plus sum is one too.
    let bplus = b.matmul(&bstar)?;
    let mut v = MpVector::neg_inf(n);
    for c in 0..n {
        if bplus.get(c, c) == Mp::ZERO {
            v = v.join(&bstar.column(c))?;
        }
    }
    Ok(Some(Eigenmode {
        lambda,
        scale,
        vector: v,
    }))
}

/// The *critical nodes* of a square matrix with eigenvalue `lambda`:
/// nodes lying on a cycle whose mean equals `lambda` (the bottleneck of
/// the system).
///
/// These are the nodes on cycles of the tight subgraph that
/// [`potentials`] leaves at `lambda`: a cycle has reduced weight zero iff
/// every edge on it is tight. Returns an empty vector for acyclic
/// matrices.
///
/// # Errors
///
/// - [`MpError::NotSquare`] for rectangular input,
/// - [`MpError::PositiveCycle`] if `lambda` is below the eigenvalue,
/// - [`MpError::Overflow`] as [`potentials`].
pub fn critical_nodes(a: &MpMatrix, lambda: Rational) -> Result<Vec<usize>, MpError> {
    let pg = PrecedenceGraph::of_matrix(a)?;
    let n = pg.num_nodes();
    let edges = || (0..n).flat_map(|u| pg.successors(u).iter().map(move |&(v, w)| (u, v, w, 1)));
    let d = potentials(n, edges(), lambda)?;
    let (s, num) = (i128::from(lambda.denom()), i128::from(lambda.numer()));
    let tight = edges().filter(|&(u, v, w, _)| i128::from(d[v] - d[u]) == s * i128::from(w) - num);
    let on_cycles = crate::eigen::on_cycles(n, tight);
    Ok((0..n).filter(|&i| on_cycles[i].is_some()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(entries: &[&[Option<i64>]]) -> MpMatrix {
        MpMatrix::from_rows(
            entries
                .iter()
                .map(|r| r.iter().map(|e| e.map_or(Mp::NegInf, Mp::fin)).collect())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn star_of_acyclic_path() {
        let a = mat(&[
            &[None, None, None],
            &[Some(2), None, None],
            &[None, Some(3), None],
        ]);
        let s = star(&a).unwrap().closure().unwrap();
        assert_eq!(s.get(1, 0), Mp::fin(2));
        assert_eq!(s.get(2, 0), Mp::fin(5));
        assert_eq!(s.get(0, 2), Mp::NegInf);
        for i in 0..3 {
            assert_eq!(s.get(i, i), Mp::ZERO);
        }
    }

    #[test]
    fn star_prefers_heaviest_path() {
        // Two routes 0 -> 2: direct weight 1, via 1 weight 2+3.
        let a = mat(&[
            &[None, None, None],
            &[Some(2), None, None],
            &[Some(1), Some(3), None],
        ]);
        let s = star(&a).unwrap().closure().unwrap();
        assert_eq!(s.get(2, 0), Mp::fin(5));
    }

    #[test]
    fn star_diverges_on_positive_cycle() {
        let a = mat(&[&[None, Some(1)], &[Some(1), None]]);
        assert!(matches!(star(&a).unwrap(), Star::Diverges { .. }));
        let a = mat(&[&[Some(1)]]);
        assert!(matches!(star(&a).unwrap(), Star::Diverges { node: 0 }));
    }

    #[test]
    fn star_accepts_zero_and_negative_cycles() {
        let a = mat(&[&[None, Some(-1)], &[Some(1), None]]);
        let s = star(&a).unwrap().closure().unwrap();
        assert_eq!(s.get(0, 0), Mp::ZERO);
        assert_eq!(s.get(1, 0), Mp::fin(1));
    }

    #[test]
    fn star_rejects_rectangular() {
        assert!(star(&MpMatrix::neg_inf(2, 3)).is_err());
        assert!(eigenmode(&MpMatrix::neg_inf(2, 3)).is_err());
        assert!(critical_nodes(&MpMatrix::neg_inf(2, 3), Rational::ZERO).is_err());
    }

    #[test]
    fn eigenmode_of_two_cycle() {
        // Cycle 0 <-> 1 with weights 3 and 5: λ = 4.
        let a = mat(&[&[None, Some(3)], &[Some(5), None]]);
        let m = eigenmode(&a).unwrap().unwrap();
        assert_eq!(m.lambda, Rational::new(4, 1));
        assert_eq!(m.scale, 1);
        // Verify A ⊗ v = λ + v.
        let av = a.apply(&m.vector).unwrap();
        for i in 0..2 {
            assert_eq!(av[i], m.vector[i] + 4);
        }
    }

    #[test]
    fn eigenmode_with_fractional_lambda() {
        // 3-cycle of total weight 7: λ = 7/3, scale 3.
        let a = mat(&[
            &[None, None, Some(2)],
            &[Some(3), None, None],
            &[None, Some(2), None],
        ]);
        let m = eigenmode(&a).unwrap().unwrap();
        assert_eq!(m.lambda, Rational::new(7, 3));
        assert_eq!(m.scale, 3);
        // v is an eigenvector of 3·A with eigenvalue 7.
        let mut a3 = MpMatrix::neg_inf(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                if let Mp::Fin(w) = a.get(i, j) {
                    a3.set(i, j, Mp::fin(3 * w));
                }
            }
        }
        let av = a3.apply(&m.vector).unwrap();
        for i in 0..3 {
            assert_eq!(av[i], m.vector[i] + 7);
        }
    }

    #[test]
    fn eigenmode_none_for_acyclic() {
        let a = mat(&[&[None, None], &[Some(1), None]]);
        assert_eq!(eigenmode(&a).unwrap(), None);
        assert!(critical_nodes(&a, Rational::ZERO).unwrap().is_empty());
    }

    #[test]
    fn critical_nodes_identify_bottleneck_cycle() {
        // Self-loop of weight 5 at node 0 (critical) and a slower 2-cycle
        // of mean 2 on nodes 1, 2.
        let a = mat(&[
            &[Some(5), None, None],
            &[None, None, Some(2)],
            &[Some(1), Some(2), None],
        ]);
        assert_eq!(critical_nodes(&a, Rational::from(5)).unwrap(), vec![0]);
    }

    #[test]
    fn all_nodes_critical_in_uniform_cycle() {
        let a = mat(&[&[None, Some(4)], &[Some(4), None]]);
        assert_eq!(critical_nodes(&a, Rational::from(4)).unwrap(), vec![0, 1]);
    }

    #[test]
    fn critical_nodes_below_the_eigenvalue_is_an_error() {
        let a = mat(&[&[None, Some(4)], &[Some(4), None]]);
        assert_eq!(
            critical_nodes(&a, Rational::new(7, 2)),
            Err(MpError::PositiveCycle)
        );
    }

    #[test]
    fn potentials_are_least_and_fractional_ratios_scale() {
        // 3-cycle of weight 7 over 3 tokens (ratio 7/3) on a ×3 grid.
        let edges = [(0, 1, 3, 1), (1, 2, 2, 1), (2, 0, 2, 1)];
        let d = potentials(3, edges, Rational::new(7, 3)).unwrap();
        assert_eq!(d, vec![0, 2, 1]);
        // An edge-free graph and a graph with no nodes have zero potentials.
        assert_eq!(potentials(2, [], Rational::ONE).unwrap(), vec![0, 0]);
        assert_eq!(
            potentials(0, [], Rational::ONE).unwrap(),
            Vec::<Time>::new()
        );
    }

    #[test]
    fn potentials_report_positive_cycles_and_overflow() {
        // A zero-token cycle of positive weight has no finite potentials.
        let dead = [(0, 1, 1, 0), (1, 0, 1, 0)];
        assert_eq!(
            potentials(2, dead, Rational::from(100)),
            Err(MpError::PositiveCycle)
        );
        // The reduced weight 3·4e18 leaves i64 although the inputs fit.
        let big = [(0, 1, 4_000_000_000_000_000_000, 0)];
        assert_eq!(
            potentials(2, big, Rational::new(1, 3)),
            Err(MpError::Overflow)
        );
        // Each reduced weight fits, but the path sum does not.
        let chain = [(0, 1, i64::MAX, 0), (1, 2, 1, 0)];
        assert_eq!(potentials(3, chain, Rational::ONE), Err(MpError::Overflow));
        // A large negative weight is fine while the potentials fit.
        let low = [(0, 1, i64::MIN, 0), (0, 1, 1, 5)];
        assert_eq!(potentials(2, low, Rational::ONE).unwrap(), vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn potentials_reject_bad_endpoints() {
        let _ = potentials(1, [(0, 1, 0, 0)], Rational::ONE);
    }
}
