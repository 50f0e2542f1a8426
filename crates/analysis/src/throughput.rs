//! Exact SDF throughput analysis.
//!
//! The throughput of an actor in a self-timed execution is the long-run
//! number of firings per time unit (paper, Sec. 3). With the max-plus matrix
//! `A` of one iteration (from [`crate::symbolic`]), the *iteration period*
//! λ is the max-plus eigenvalue of `A`, and actor `a` fires `γ(a)` times per
//! iteration, so its throughput is `γ(a)/λ`.
//!
//! Three independent routes to the same number are provided and
//! cross-checked in tests:
//!
//! 1. [`throughput`] — spectral: eigenvalue of `A` via Karp's algorithm,
//! 2. [`throughput_state_space`] — operational: iterate `x(k+1) = A ⊗ x(k)`
//!    until an exact periodic regime is detected (Ghamarian et al.'s
//!    state-space method in max-plus form),
//! 3. [`estimate_period_simulated`] — empirical: slope of iteration
//!    completion times in an event-driven simulation.

use sdfr_graph::budget::BudgetResource;
use sdfr_graph::execution::simulate_iterations;
use sdfr_graph::repetition::RepetitionVector;
use sdfr_graph::{ActorId, SdfError, SdfGraph};
use sdfr_maxplus::{recurrence, Rational};

use crate::mcm::{self, CycleRatio, CycleRatioGraph};
use crate::symbolic::symbolic_iteration;

/// The throughput of a consistent, deadlock-free SDF graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThroughputAnalysis {
    period: Option<Rational>,
    gamma: RepetitionVector,
}

impl ThroughputAnalysis {
    /// The iteration period λ: asymptotic time per graph iteration, or
    /// `None` if the graph has no recurrent timing constraint (its tokens
    /// impose no cycle, so iterations can overlap unboundedly).
    pub fn period(&self) -> Option<Rational> {
        self.period
    }

    /// The throughput of actor `a`: `γ(a)/λ` firings per time unit, or
    /// `None` when unbounded (see [`period`](Self::period)) .
    ///
    /// # Panics
    ///
    /// Panics if `a` does not belong to the analyzed graph.
    pub fn actor_throughput(&self, a: ActorId) -> Option<Rational> {
        let period = self.period?;
        if period == Rational::ZERO {
            // All cycles have zero execution time: infinitely fast.
            return None;
        }
        Some(Rational::from(self.gamma.get(a) as i64) / period)
    }

    /// The graph-level throughput `1/λ` (iterations per time unit), or
    /// `None` when unbounded.
    pub fn iteration_throughput(&self) -> Option<Rational> {
        let period = self.period?;
        if period == Rational::ZERO {
            return None;
        }
        Some(period.recip())
    }

    /// The repetition vector underlying the analysis.
    pub fn repetition_vector(&self) -> &RepetitionVector {
        &self.gamma
    }

    /// Assembles an analysis from an already-computed period and repetition
    /// vector (used by [`AnalysisSession`](crate::session::AnalysisSession)
    /// to answer from its cache without re-running the symbolic iteration).
    pub(crate) fn from_parts(period: Option<Rational>, gamma: RepetitionVector) -> Self {
        ThroughputAnalysis { period, gamma }
    }
}

/// Computes the throughput of `g` spectrally: symbolic iteration → max-plus
/// matrix → eigenvalue (maximum cycle mean via Karp per SCC).
///
/// This form runs uncapped. Under a resource
/// [`Budget`](sdfr_graph::budget::Budget), use
/// [`AnalysisSession::throughput`](crate::AnalysisSession::throughput) on
/// [`AnalysisSession::with_budget`](crate::AnalysisSession::with_budget): the
/// symbolic iteration with its `Σγ(a)` firings is charged to the budget, and
/// the eigenvalue runs after the size cap has admitted the `N×N` matrix.
///
/// # Errors
///
/// - [`SdfError::Inconsistent`] if `g` has no repetition vector,
/// - [`SdfError::Deadlock`] if an iteration cannot execute.
///
/// # Example
///
/// ```
/// use sdfr_analysis::throughput::throughput;
/// use sdfr_graph::SdfGraph;
/// use sdfr_maxplus::Rational;
///
/// let mut b = SdfGraph::builder("g");
/// let x = b.actor("x", 4);
/// let y = b.actor("y", 6);
/// b.channel(x, y, 1, 1, 0)?;
/// b.channel(y, x, 1, 1, 2)?;
/// let g = b.build()?;
/// // Cycle weight 10 over 2 tokens: period 5, throughput 1/5 per actor.
/// let t = throughput(&g)?;
/// assert_eq!(t.actor_throughput(x), Some(Rational::new(1, 5)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn throughput(g: &SdfGraph) -> Result<ThroughputAnalysis, SdfError> {
    crate::session::AnalysisSession::new(g.clone()).throughput()
}

/// Computes the throughput of `g` operationally: iterate the max-plus
/// recurrence until an exact periodic regime is found.
///
/// `max_steps` bounds the exploration (the periodic regime of an integer
/// max-plus system is always reached, but the transient can be long;
/// `1000 + 64·N` is a generous default for the graphs in this repository).
///
/// # Errors
///
/// Same as [`throughput`], plus [`SdfError::Exhausted`] (resource
/// [`BudgetResource::Firings`]) if no periodicity is found within
/// `max_steps` — the computation was abandoned, not wrong.
pub fn throughput_state_space(
    g: &SdfGraph,
    max_steps: usize,
) -> Result<ThroughputAnalysis, SdfError> {
    let sym = symbolic_iteration(g)?;
    let n = sym.matrix.num_rows();
    if n == 0 {
        return Ok(ThroughputAnalysis {
            period: None,
            gamma: sym.gamma,
        });
    }
    // Periodicity of x(k+1) = A ⊗ x(k) is only guaranteed for irreducible
    // matrices (the max-plus cyclicity theorem); a reducible matrix with
    // cycles of different means drifts apart forever. Decompose into
    // strongly connected components and analyse each recurrent class
    // separately — the slowest class governs the iteration period.
    let pg = sym
        .matrix
        .precedence_graph()
        .expect("iteration matrix is square");
    let mut period: Option<Rational> = None;
    for scc in pg.sccs() {
        // Skip trivial components (single node, no self-dependency).
        if scc.len() == 1 {
            let k = scc[0];
            if sym.matrix.get(k, k).is_neg_inf() {
                continue;
            }
        }
        let sub = submatrix(&sym.matrix, &scc);
        match recurrence::analyze(&sub, &sdfr_maxplus::MpVector::zeros(scc.len()), max_steps) {
            recurrence::Behavior::Periodic(p) => {
                period = Some(match period {
                    Some(best) if best >= p.growth => best,
                    _ => p.growth,
                });
            }
            recurrence::Behavior::DiesOut { .. } => {}
            recurrence::Behavior::NotDetected { .. } => {
                return Err(SdfError::Exhausted {
                    resource: BudgetResource::Firings,
                    spent: max_steps as u64,
                    limit: max_steps as u64,
                })
            }
        }
    }
    Ok(ThroughputAnalysis {
        period,
        gamma: sym.gamma,
    })
}

/// The principal submatrix of `a` on the given (sorted) index set.
fn submatrix(a: &sdfr_maxplus::MpMatrix, idx: &[usize]) -> sdfr_maxplus::MpMatrix {
    let mut sub = sdfr_maxplus::MpMatrix::neg_inf(idx.len(), idx.len());
    for (i, &gi) in idx.iter().enumerate() {
        for (j, &gj) in idx.iter().enumerate() {
            sub.set(i, j, a.get(gi, gj));
        }
    }
    sub
}

/// Estimates the iteration period empirically from an event-driven
/// simulation: the slope of iteration completion times between `warmup` and
/// `warmup + measure` iterations.
///
/// After the transient the slope is exact whenever `measure` is a multiple
/// of the cyclicity of the periodic regime; otherwise it is a close
/// rational approximation. Used as an independent cross-check of
/// [`throughput`].
///
/// # Errors
///
/// See [`simulate_iterations`].
///
/// # Panics
///
/// Panics if `measure == 0`.
pub fn estimate_period_simulated(
    g: &SdfGraph,
    warmup: u64,
    measure: u64,
) -> Result<Rational, SdfError> {
    assert!(measure > 0, "measurement window must be non-empty");
    let trace = simulate_iterations(g, warmup + measure)?;
    let t0 = trace.iteration_completion(warmup as usize - 1);
    let t1 = trace.iteration_completion((warmup + measure) as usize - 1);
    Ok(Rational::new(t1 - t0, measure as i64))
}

/// The iteration period of a *homogeneous* SDF graph computed directly as
/// its maximum cycle ratio — a third, matrix-free route to the period, used
/// to validate the HSDF graphs produced by the paper's conversions.
///
/// # Errors
///
/// - [`SdfError::NotHomogeneous`] if any rate differs from 1,
/// - [`SdfError::Overflow`] if Howard's exact arithmetic leaves `i64`.
pub fn hsdf_period(g: &SdfGraph) -> Result<CycleRatio, SdfError> {
    let crg = CycleRatioGraph::from_hsdf(g)?;
    mcm::howard::maximum_cycle_ratio_checked(&crg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalysisSession;
    use sdfr_graph::budget::Budget;

    fn cycle_graph() -> SdfGraph {
        let mut b = SdfGraph::builder("cycle");
        let x = b.actor("x", 2);
        let y = b.actor("y", 3);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn spectral_throughput_simple_cycle() {
        let g = cycle_graph();
        let t = throughput(&g).unwrap();
        assert_eq!(t.period(), Some(Rational::new(5, 1)));
        let x = g.actor_by_name("x").unwrap();
        assert_eq!(t.actor_throughput(x), Some(Rational::new(1, 5)));
        assert_eq!(t.iteration_throughput(), Some(Rational::new(1, 5)));
        assert_eq!(t.repetition_vector().iteration_length(), 2);
    }

    #[test]
    fn three_routes_agree() {
        let cases: Vec<SdfGraph> = vec![cycle_graph(), multirate_graph(), paper_fig3()];
        for g in cases {
            let spectral = throughput(&g).unwrap();
            let state_space = throughput_state_space(&g, 10_000).unwrap();
            assert_eq!(
                spectral.period(),
                state_space.period(),
                "graph {}",
                g.name()
            );
            if let Some(period) = spectral.period() {
                let simulated = estimate_period_simulated(&g, 30, 30).unwrap();
                assert_eq!(simulated, period, "graph {}", g.name());
            }
        }
    }

    fn multirate_graph() -> SdfGraph {
        let mut b = SdfGraph::builder("mr");
        let x = b.actor("x", 3);
        let y = b.actor("y", 2);
        b.channel(x, y, 2, 3, 0).unwrap();
        b.channel(y, x, 3, 2, 6).unwrap();
        b.build().unwrap()
    }

    fn paper_fig3() -> SdfGraph {
        let mut b = SdfGraph::builder("fig3");
        let l = b.actor("left", 3);
        let r = b.actor("right", 1);
        b.channel(l, r, 1, 2, 0).unwrap();
        b.channel(r, l, 2, 1, 2).unwrap();
        b.channel(l, l, 1, 1, 1).unwrap();
        b.channel(r, r, 1, 1, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn unbounded_throughput_without_cycles() {
        let mut b = SdfGraph::builder("open");
        let x = b.actor("x", 5);
        let y = b.actor("y", 5);
        b.channel(x, y, 1, 1, 0).unwrap();
        let g = b.build().unwrap();
        let t = throughput(&g).unwrap();
        assert_eq!(t.period(), None);
        assert_eq!(t.actor_throughput(x), None);
        assert_eq!(t.iteration_throughput(), None);
        let ss = throughput_state_space(&g, 100).unwrap();
        assert_eq!(ss.period(), None);
    }

    #[test]
    fn zero_execution_time_cycle_is_infinitely_fast() {
        let mut b = SdfGraph::builder("zero");
        let x = b.actor("x", 0);
        b.channel(x, x, 1, 1, 1).unwrap();
        let g = b.build().unwrap();
        let t = throughput(&g).unwrap();
        assert_eq!(t.period(), Some(Rational::ZERO));
        assert_eq!(t.actor_throughput(x), None);
    }

    #[test]
    fn deadlock_propagates() {
        let mut b = SdfGraph::builder("dead");
        let x = b.actor("x", 1);
        b.channel(x, x, 1, 1, 0).unwrap();
        let g = b.build().unwrap();
        assert!(matches!(throughput(&g), Err(SdfError::Deadlock { .. })));
    }

    #[test]
    fn budget_bounds_throughput_analysis() {
        let g = multirate_graph(); // iteration length 5
        let tight = Budget::unlimited().with_max_firings(3);
        assert!(matches!(
            AnalysisSession::with_budget(g.clone(), tight).throughput(),
            Err(SdfError::Exhausted {
                resource: BudgetResource::Firings,
                ..
            })
        ));
        let ample = Budget::unlimited().with_max_firings(1_000);
        let t = AnalysisSession::with_budget(g.clone(), ample)
            .throughput()
            .unwrap();
        assert_eq!(t.period(), throughput(&g).unwrap().period());
    }

    #[test]
    fn hsdf_period_agrees_with_spectral() {
        let g = cycle_graph();
        assert_eq!(
            hsdf_period(&g).unwrap().finite(),
            throughput(&g).unwrap().period()
        );
    }

    #[test]
    fn hsdf_period_rejects_multirate() {
        let g = multirate_graph();
        assert!(hsdf_period(&g).is_err());
    }

    #[test]
    fn multirate_actor_throughput_scales_with_gamma() {
        let g = multirate_graph();
        let t = throughput(&g).unwrap();
        let x = g.actor_by_name("x").unwrap();
        let y = g.actor_by_name("y").unwrap();
        let (tx, ty) = (
            t.actor_throughput(x).unwrap(),
            t.actor_throughput(y).unwrap(),
        );
        // γ(x)/γ(y) = 3/2.
        assert_eq!(tx / ty, Rational::new(3, 2));
    }
}
