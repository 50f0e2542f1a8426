//! Property tests: the max-plus semiring laws and the consistency of the
//! spectral machinery, over randomly generated values and matrices.

use proptest::prelude::*;

use sdfr_maxplus::{closure, recurrence, Mp, MpError, MpMatrix, MpVector, Rational};

/// Strategy for semiring elements over a bounded range (keeps sums far
/// from overflow).
fn mp() -> impl Strategy<Value = Mp> {
    prop_oneof![
        3 => (-1_000i64..1_000).prop_map(Mp::fin),
        1 => Just(Mp::NEG_INF),
    ]
}

/// Strategy for square matrices of dimension 1..=5.
fn matrix() -> impl Strategy<Value = MpMatrix> {
    (1usize..=5)
        .prop_flat_map(|n| proptest::collection::vec(proptest::collection::vec(mp(), n), n))
        .prop_map(|rows| MpMatrix::from_rows(rows).expect("rows share length"))
}

/// The dense critical-node formula the sparse [`closure::critical_nodes`]
/// replaced, kept as its oracle: nodes `i` with `B⁺(i, i) = 0` for
/// `B = s·A − s·λ` and `B⁺ = B ⊗ B*`, where the eigenvalue comes from
/// [`closure::eigenmode`].
fn dense_critical_nodes(a: &MpMatrix) -> Result<Vec<usize>, MpError> {
    let Some(mode) = closure::eigenmode(a)? else {
        return Ok(Vec::new());
    };
    let n = a.num_rows();
    let scale = mode.scale;
    let shift = mode.lambda.numer();
    let mut b = MpMatrix::neg_inf(n, n);
    for i in 0..n {
        for j in 0..n {
            if let Mp::Fin(w) = a.get(i, j) {
                b.set(i, j, Mp::fin(w * scale - shift));
            }
        }
    }
    let bstar = closure::star(&b)?.closure().expect("no positive cycles");
    let bplus = b.matmul(&bstar)?;
    Ok((0..n).filter(|&i| bplus.get(i, i) == Mp::ZERO).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // --- semiring laws on Mp ---

    #[test]
    fn max_is_associative_commutative_idempotent(a in mp(), b in mp(), c in mp()) {
        prop_assert_eq!(a.max(b.max(c)), a.max(b).max(c));
        prop_assert_eq!(a.max(b), b.max(a));
        prop_assert_eq!(a.max(a), a);
    }

    #[test]
    fn add_is_associative_commutative(a in mp(), b in mp(), c in mp()) {
        prop_assert_eq!(a + (b + c), (a + b) + c);
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn add_distributes_over_max(a in mp(), b in mp(), c in mp()) {
        prop_assert_eq!(a + b.max(c), (a + b).max(a + c));
    }

    #[test]
    fn identities(a in mp()) {
        prop_assert_eq!(a.max(Mp::NEG_INF), a);
        prop_assert_eq!(a + Mp::ZERO, a);
        prop_assert_eq!(a + Mp::NEG_INF, Mp::NEG_INF);
    }

    // --- rational field laws ---

    #[test]
    fn rational_ring_laws(
        an in -100i64..100, ad in 1i64..20,
        bn in -100i64..100, bd in 1i64..20,
        cn in -100i64..100, cd in 1i64..20,
    ) {
        let (a, b, c) = (Rational::new(an, ad), Rational::new(bn, bd), Rational::new(cn, cd));
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a - a, Rational::ZERO);
        if b != Rational::ZERO {
            prop_assert_eq!((a / b) * b, a);
        }
    }

    #[test]
    fn rational_order_is_compatible_with_addition(
        an in -100i64..100, ad in 1i64..20,
        bn in -100i64..100, bd in 1i64..20,
        cn in -100i64..100, cd in 1i64..20,
    ) {
        let (a, b, c) = (Rational::new(an, ad), Rational::new(bn, bd), Rational::new(cn, cd));
        if a <= b {
            prop_assert!(a + c <= b + c);
        }
    }

    // --- matrix laws ---

    #[test]
    fn matmul_associative(a in matrix(), b in matrix(), c in matrix()) {
        // Make dimensions agree by truncating to the smallest n.
        let n = a.num_rows().min(b.num_rows()).min(c.num_rows());
        let t = |m: &MpMatrix| {
            let mut out = MpMatrix::neg_inf(n, n);
            for i in 0..n {
                for j in 0..n {
                    out.set(i, j, m.get(i, j));
                }
            }
            out
        };
        let (a, b, c) = (t(&a), t(&b), t(&c));
        prop_assert_eq!(
            a.matmul(&b).unwrap().matmul(&c).unwrap(),
            a.matmul(&b.matmul(&c).unwrap()).unwrap()
        );
    }

    #[test]
    fn apply_is_linear_in_join(a in matrix()) {
        // A ⊗ (x ⊕ y) = (A ⊗ x) ⊕ (A ⊗ y)
        let n = a.num_cols();
        let x = MpVector::from_entries((0..n).map(|i| Mp::fin(i as i64 * 3 - 5)));
        let y = MpVector::from_entries((0..n).map(|i| Mp::fin(10 - i as i64)));
        let lhs = a.apply(&x.join(&y).unwrap()).unwrap();
        let rhs = a.apply(&x).unwrap().join(&a.apply(&y).unwrap()).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn apply_commutes_with_shift(a in matrix(), delta in -50i64..50) {
        // A ⊗ (x + δ) = (A ⊗ x) + δ
        let n = a.num_cols();
        let x = MpVector::zeros(n);
        let lhs = a.apply(&x.shift(delta)).unwrap();
        let rhs = a.apply(&x).unwrap().shift(delta);
        prop_assert_eq!(lhs, rhs);
    }

    // --- spectral machinery ---

    #[test]
    fn eigenvalue_matches_recurrence_growth(a in matrix()) {
        // Project onto one SCC at a time to guarantee periodicity.
        let pg = a.precedence_graph().unwrap();
        let mut best: Option<Rational> = None;
        for scc in pg.sccs() {
            if scc.len() == 1 && a.get(scc[0], scc[0]).is_neg_inf() {
                continue;
            }
            let mut sub = MpMatrix::neg_inf(scc.len(), scc.len());
            for (i, &gi) in scc.iter().enumerate() {
                for (j, &gj) in scc.iter().enumerate() {
                    sub.set(i, j, a.get(gi, gj));
                }
            }
            let growth = recurrence::growth_rate(&sub, 50_000);
            prop_assert_eq!(growth, sub.eigenvalue());
            if let Some(g) = growth {
                best = Some(best.map_or(g, |b| b.max(g)));
            }
        }
        prop_assert_eq!(best, a.eigenvalue());
    }

    #[test]
    fn star_is_idempotent_when_it_exists(a in matrix()) {
        // Shift the matrix down so no positive cycles exist: subtract a
        // bound above the max entry from every finite entry.
        let n = a.num_rows();
        let max_entry = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter_map(|(i, j)| a.get(i, j).finite())
            .max()
            .unwrap_or(0)
            .max(0);
        let mut neg = MpMatrix::neg_inf(n, n);
        for i in 0..n {
            for j in 0..n {
                if let Mp::Fin(w) = a.get(i, j) {
                    neg.set(i, j, Mp::fin(w - max_entry - 1));
                }
            }
        }
        let star = closure::star(&neg)
            .unwrap()
            .closure()
            .expect("no positive cycles after shifting");
        // A* ⊗ A* = A* and (A*)* = A*.
        prop_assert_eq!(&star.matmul(&star).unwrap(), &star);
        prop_assert_eq!(
            closure::star(&star).unwrap().closure().expect("still none"),
            star
        );
    }

    #[test]
    fn eigenmode_certificate_holds(a in matrix()) {
        // Where an eigenmode exists, check (s·A) ⊗ v = s·λ + v on all
        // coordinates where the left side is finite.
        let Some(mode) = closure::eigenmode(&a).unwrap() else {
            return Ok(());
        };
        let n = a.num_rows();
        let mut scaled = MpMatrix::neg_inf(n, n);
        for i in 0..n {
            for j in 0..n {
                if let Mp::Fin(w) = a.get(i, j) {
                    scaled.set(i, j, Mp::fin(w * mode.scale));
                }
            }
        }
        let av = scaled.apply(&mode.vector).unwrap();
        let shift = mode.lambda.numer();
        for i in 0..n {
            // On the critical classes the equality is exact; elsewhere the
            // eigenvector inequality A ⊗ v ≤ λ + v holds.
            prop_assert!(av[i] <= mode.vector[i] + shift);
        }
        // At least one coordinate is tight (the critical graph is
        // non-empty whenever an eigenvalue exists).
        prop_assert!((0..n).any(|i| av[i] == mode.vector[i] + shift));
    }

    #[test]
    fn sparse_critical_nodes_match_the_dense_formula(a in matrix()) {
        let dense = dense_critical_nodes(&a).unwrap();
        // An acyclic matrix has no critical nodes at any λ.
        let lambda = a.eigenvalue().unwrap_or(Rational::ZERO);
        prop_assert_eq!(closure::critical_nodes(&a, lambda).unwrap(), dense);
    }

    #[test]
    fn potentials_are_the_star_applied_to_zero(a in matrix()) {
        // At the eigenvalue, B* ⊗ 0 over the reduced matrix is the least
        // fixpoint the sparse relaxation computes; entry A[i][j] is the
        // edge j → i with one token.
        let Some(lambda) = a.eigenvalue() else {
            return Ok(());
        };
        let n = a.num_rows();
        let (s, num) = (lambda.denom(), lambda.numer());
        let mut b = MpMatrix::neg_inf(n, n);
        let mut edges = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if let Mp::Fin(w) = a.get(i, j) {
                    b.set(i, j, Mp::fin(w * s - num));
                    edges.push((j, i, w, 1));
                }
            }
        }
        let star = closure::star(&b).unwrap().closure().expect("no positive cycles");
        let dense: Vec<i64> = star
            .apply(&MpVector::zeros(n))
            .unwrap()
            .iter()
            .map(|e| e.finite().expect("finite seed"))
            .collect();
        prop_assert_eq!(closure::potentials(n, edges.iter().copied(), lambda).unwrap(), dense);
        // Just below the eigenvalue a critical cycle turns positive.
        let below = lambda - Rational::new(1, 7);
        prop_assert_eq!(
            closure::potentials(n, edges, below),
            Err(MpError::PositiveCycle)
        );
    }
}
