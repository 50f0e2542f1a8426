//! Periodicity analysis of the linear max-plus recurrence `x(k+1) = A ⊗ x(k)`.
//!
//! Self-timed execution of an SDF graph corresponds to iterating the max-plus
//! matrix of one graph iteration on the vector of initial-token time stamps.
//! After a finite transient the sequence becomes periodic modulo a constant
//! growth: there are `K`, `c` and a rational `λ` with
//! `x(K + c) = x(K) + c·λ` (entrywise on finite entries). This module detects
//! that regime exactly — it is the state-space throughput method of
//! Ghamarian et al. (ACSD'06) expressed in max-plus form, which the paper's
//! Sec. 6 builds on.

use std::collections::HashMap;

use crate::{MpMatrix, MpVector, Rational};

/// The asymptotic behaviour of a max-plus recurrence from a given start
/// vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Behavior {
    /// The sequence reached a periodic regime.
    Periodic(Periodicity),
    /// Every entry became `−∞`: the recurrence died out (the matrix has no
    /// cycle reachable from the support of the start vector).
    DiesOut {
        /// First step at which the vector was entirely `−∞`.
        step: usize,
    },
    /// No repetition was found within the iteration budget. For integer
    /// irreducible matrices this cannot happen with a sufficient budget; for
    /// reducible matrices components may drift apart forever.
    NotDetected {
        /// The number of steps that were executed.
        steps: usize,
    },
}

/// A detected periodic regime of the recurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Periodicity {
    /// Length of the transient prefix (first step of the periodic regime).
    pub transient: usize,
    /// Period of the regime in iterations (the cyclicity).
    pub period: usize,
    /// Exact growth per iteration: `max(x(k+period)) − max(x(k))` over
    /// `period`, i.e. the iteration period λ of the SDF graph.
    pub growth: Rational,
}

/// Iterates `x(k+1) = A ⊗ x(k)` from `x0` until a normalized state repeats,
/// the vector dies out, or `max_steps` is exhausted.
///
/// # Example
///
/// ```
/// use sdfr_maxplus::{recurrence, Mp, MpMatrix, MpVector, Rational};
///
/// let a = MpMatrix::from_rows(vec![
///     vec![Mp::NEG_INF, Mp::fin(3)],
///     vec![Mp::fin(5), Mp::NEG_INF],
/// ])?;
/// let behavior = recurrence::analyze(&a, &MpVector::zeros(2), 100);
/// match behavior {
///     recurrence::Behavior::Periodic(p) => {
///         assert_eq!(p.growth, Rational::new(4, 1));
///         assert_eq!(p.period, 2);
///     }
///     other => panic!("expected periodic, got {other:?}"),
/// }
/// # Ok::<(), sdfr_maxplus::MpError>(())
/// ```
///
/// # Panics
///
/// Panics if the matrix is not square or `x0.len()` differs from the matrix
/// dimension.
pub fn analyze(a: &MpMatrix, x0: &MpVector, max_steps: usize) -> Behavior {
    assert!(a.is_square(), "recurrence requires a square matrix");
    assert_eq!(
        x0.len(),
        a.num_cols(),
        "start vector length must match the matrix dimension"
    );
    // seen: normalized vector -> (step, absolute offset at that step)
    let mut seen: HashMap<MpVector, (usize, i64)> = HashMap::new();
    let mut x = x0.clone();
    for step in 0..=max_steps {
        match x.normalize() {
            None => return Behavior::DiesOut { step },
            Some((norm, offset)) => {
                if let Some(&(prev_step, prev_offset)) = seen.get(&norm) {
                    let period = step - prev_step;
                    return Behavior::Periodic(Periodicity {
                        transient: prev_step,
                        period,
                        growth: Rational::new(offset - prev_offset, period as i64),
                    });
                }
                seen.insert(norm, (step, offset));
            }
        }
        x = a.apply(&x).expect("dimensions verified above");
    }
    Behavior::NotDetected { steps: max_steps }
}

/// Convenience wrapper returning only the growth rate λ from the all-zeros
/// start vector, or `None` if the recurrence dies out or is not detected
/// within `max_steps`.
///
/// For the matrix of an SDF iteration this growth rate is the iteration
/// period, equal to [`MpMatrix::eigenvalue`]; the two computations are
/// independent and serve as cross-checks of each other.
pub fn growth_rate(a: &MpMatrix, max_steps: usize) -> Option<Rational> {
    match analyze(a, &MpVector::zeros(a.num_cols()), max_steps) {
        Behavior::Periodic(p) => Some(p.growth),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mp;

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
    fn immediate_periodicity_of_self_loop() {
        let a = mat(&[&[Some(5)]]);
        match analyze(&a, &MpVector::zeros(1), 10) {
            Behavior::Periodic(p) => {
                assert_eq!(p.transient, 0);
                assert_eq!(p.period, 1);
                assert_eq!(p.growth, Rational::new(5, 1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cyclicity_two() {
        // Pure swap with asymmetric weights: alternates between two
        // normalized shapes, period 2, growth (3+5)/2 = 4.
        let a = mat(&[&[None, Some(3)], &[Some(5), None]]);
        match analyze(&a, &MpVector::zeros(2), 100) {
            Behavior::Periodic(p) => {
                assert_eq!(p.period, 2);
                assert_eq!(p.growth, Rational::new(4, 1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dies_out_on_nilpotent_matrix() {
        // Strictly triangular: x eventually all -inf from a unit vector.
        let a = mat(&[&[None, Some(1)], &[None, None]]);
        let x0 = MpVector::unit(2, 0);
        // x0 = (0, -inf); A x0 = (-inf, -inf).
        match analyze(&a, &x0, 10) {
            Behavior::DiesOut { step } => assert_eq!(step, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn growth_rate_matches_eigenvalue_on_examples() {
        let cases = vec![
            mat(&[&[Some(2), Some(8)], &[Some(1), Some(3)]]),
            mat(&[
                &[None, None, Some(2)],
                &[Some(3), None, None],
                &[None, Some(2), None],
            ]),
            mat(&[&[Some(7)]]),
        ];
        for a in cases {
            assert_eq!(growth_rate(&a, 10_000), a.eigenvalue().unwrap());
        }
    }

    #[test]
    fn not_detected_with_tiny_budget() {
        // Fractional growth 7/3 needs at least 3 steps beyond the transient.
        let a = mat(&[
            &[None, None, Some(2)],
            &[Some(3), None, None],
            &[None, Some(2), None],
        ]);
        assert!(matches!(
            analyze(&a, &MpVector::zeros(3), 1),
            Behavior::NotDetected { steps: 1 }
        ));
    }

    #[test]
    fn transient_before_periodic_regime() {
        // A matrix with a slow cycle fed by a fast transient path: the
        // normalized vector changes for a few steps before settling.
        let a = mat(&[
            &[None, Some(10), None],
            &[None, None, Some(1)],
            &[None, Some(1), None],
        ]);
        match analyze(&a, &MpVector::zeros(3), 100) {
            Behavior::Periodic(p) => {
                assert_eq!(p.growth, Rational::new(1, 1));
            }
            Behavior::DiesOut { .. } => panic!("cycle exists"),
            Behavior::NotDetected { .. } => panic!("budget sufficient"),
        }
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_panics() {
        let a = MpMatrix::neg_inf(2, 3);
        let _ = analyze(&a, &MpVector::zeros(3), 10);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn wrong_vector_length_panics() {
        let a = MpMatrix::identity(2);
        let _ = analyze(&a, &MpVector::zeros(3), 10);
    }
}
