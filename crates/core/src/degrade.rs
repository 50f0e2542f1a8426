//! Graceful degradation to conservative period bounds.
//!
//! Exact throughput analysis executes a full symbolic iteration — `Σγ(a)`
//! firings, potentially exponential in the graph description (paper,
//! Secs. 2 and 6). When a resource
//! [`Budget`](sdfr_graph::budget::Budget) is exhausted before the exact
//! answer is found, this module produces a *safe* answer instead of none:
//! an upper bound on the iteration period that the true period provably
//! does not exceed.
//!
//! Two bounds are available, tried in order of tightness:
//!
//! 1. **Abstraction bound** (paper, Thm. 1): for homogeneous graphs, derive
//!    an automatic abstraction ([`crate::auto`]), mechanically verify its
//!    conservativity premises ([`crate::conservativity`]), and return
//!    `n · λ(abstract)` — the throughput of the small abstract graph scaled
//!    by the cycle length. Polynomial in the actor count.
//! 2. **Serialization bound**: `Σ_a γ(a) · T(a)`, the makespan of one fully
//!    sequential iteration. A self-timed execution is at least as fast as
//!    the periodic schedule that runs one iteration to completion at a
//!    time, so the iteration period of a *live* graph never exceeds this
//!    sum. Computed with checked 128-bit arithmetic straight from the
//!    repetition vector — no iteration is ever executed.
//!
//! Both bounds are labelled with their [`FallbackMethod`] so callers (and
//! the CLI) can report *how* safe the number is. The serialization bound is
//! only meaningful for live graphs: a deadlocked graph has no period at
//! all, and a budget can be exhausted before deadlock would have been
//! detected. Degraded results therefore carry a liveness caveat, not a
//! liveness proof.

use sdfr_graph::repetition::repetition_vector;
use sdfr_graph::{SdfError, SdfGraph};
use sdfr_maxplus::Rational;

use crate::auto::auto_abstraction;
use crate::conservativity::{conservative_period_bound, verify_abstraction};
use crate::CoreError;

/// How a conservative period bound was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackMethod {
    /// The paper's Thm. 1 bound over a mechanically verified automatic
    /// abstraction (homogeneous graphs only).
    Abstraction,
    /// The serialization bound `Σ γ(a)·T(a)` — one sequential iteration.
    Serialization,
}

impl FallbackMethod {
    /// The stable machine-readable token used in `sdfr-api/1` payloads
    /// (`"abstraction"` / `"serialization"`). Unlike the `Display` label,
    /// which is free to grow human-facing annotations, this token is part
    /// of the wire schema and never changes within a major version.
    pub fn token(&self) -> &'static str {
        match self {
            FallbackMethod::Abstraction => "abstraction",
            FallbackMethod::Serialization => "serialization",
        }
    }
}

impl std::fmt::Display for FallbackMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FallbackMethod::Abstraction => "abstraction (Thm. 1)",
            FallbackMethod::Serialization => "serialization",
        })
    }
}

/// A safe upper bound on the iteration period, with its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConservativeBound {
    /// The bound: the true iteration period of a live graph is ≤ this.
    pub bound: Rational,
    /// How the bound was derived.
    pub method: FallbackMethod,
}

/// The outcome of a budgeted analysis: exact if the budget sufficed,
/// degraded-but-safe otherwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisOutcome {
    /// The exact iteration period (`None` = no recurrent constraint, the
    /// graph is unboundedly fast).
    Exact(Option<Rational>),
    /// The budget ran out; a conservative bound stands in for the exact
    /// period. Valid provided the graph is live — exhaustion may have
    /// preceded deadlock detection.
    Degraded {
        /// The exhaustion that interrupted the exact analysis.
        exhausted: SdfError,
        /// The safe stand-in bound.
        bound: ConservativeBound,
    },
}

impl AnalysisOutcome {
    /// The period to report: exact when available, the conservative bound
    /// otherwise.
    pub fn period_or_bound(&self) -> Option<Rational> {
        match self {
            AnalysisOutcome::Exact(p) => *p,
            AnalysisOutcome::Degraded { bound, .. } => Some(bound.bound),
        }
    }

    /// `true` if the result is exact.
    pub fn is_exact(&self) -> bool {
        matches!(self, AnalysisOutcome::Exact(_))
    }
}

/// Batch-level aggregation of budgeted-analysis outcomes.
///
/// A batch (many graphs, or one graph at many budget tiers) produces one
/// [`AnalysisOutcome`] — or an error — per unit of work; this accumulator
/// folds them into the summary the batch front-end reports: how many units
/// were exact, how many degraded (broken down by [`FallbackMethod`], so
/// operators can see whether the cheap Thm. 1 bound or the loose
/// serialization bound stood in), and how many failed outright.
///
/// Aggregates [`merge`](Self::merge) associatively, so per-worker partial
/// sums can be folded in any order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeAggregate {
    /// Units whose exact analysis finished within budget.
    pub exact: u64,
    /// Units that degraded to the Thm. 1 abstraction bound.
    pub degraded_abstraction: u64,
    /// Units that degraded to the serialization bound.
    pub degraded_serialization: u64,
    /// Units that produced no result at all (invalid graph, I/O failure,
    /// exhaustion with no safe fallback).
    pub errors: u64,
}

impl OutcomeAggregate {
    /// Folds one analysis outcome into the aggregate.
    pub fn record(&mut self, outcome: &AnalysisOutcome) {
        match outcome {
            AnalysisOutcome::Exact(_) => self.exact += 1,
            AnalysisOutcome::Degraded { bound, .. } => match bound.method {
                FallbackMethod::Abstraction => self.degraded_abstraction += 1,
                FallbackMethod::Serialization => self.degraded_serialization += 1,
            },
        }
    }

    /// Folds one failed unit (no outcome) into the aggregate.
    pub fn record_error(&mut self) {
        self.errors += 1;
    }

    /// Combines another aggregate into this one (associative, commutative).
    pub fn merge(&mut self, other: &OutcomeAggregate) {
        self.exact += other.exact;
        self.degraded_abstraction += other.degraded_abstraction;
        self.degraded_serialization += other.degraded_serialization;
        self.errors += other.errors;
    }

    /// Units that degraded to any conservative bound.
    pub fn degraded(&self) -> u64 {
        self.degraded_abstraction + self.degraded_serialization
    }

    /// Total units recorded.
    pub fn total(&self) -> u64 {
        self.exact + self.degraded() + self.errors
    }

    /// `true` if every recorded unit produced an exact answer.
    pub fn all_exact(&self) -> bool {
        self.degraded() == 0 && self.errors == 0
    }
}

/// Computes a conservative upper bound on the iteration period *without*
/// executing an iteration.
///
/// For homogeneous graphs, the Thm. 1 abstraction bound is tried first
/// (automatic grouping, mechanical conservativity check); whenever that
/// path is unavailable — multirate input, unverifiable abstraction, or an
/// acyclic abstract graph — the serialization bound `Σ γ(a)·T(a)` is
/// returned. Both are valid upper bounds for live graphs.
///
/// # Errors
///
/// - [`SdfError::Inconsistent`] (via [`CoreError::Graph`]) if `g` has no
///   repetition vector — no iteration, hence no period to bound,
/// - [`SdfError::Overflow`] if `Σ γ(a)·T(a)` exceeds the integer range.
pub fn conservative_period_fallback(g: &SdfGraph) -> Result<ConservativeBound, CoreError> {
    if g.is_homogeneous() {
        // Thm. 1 path: automatic abstraction, verified, then bounded. Any
        // failure along the way falls through to the serialization bound —
        // degradation must not introduce new failure modes.
        if let Ok(abs) = auto_abstraction(g) {
            if let Ok(Ok(())) = verify_abstraction(g, &abs) {
                if let Ok(Some(bound)) = conservative_period_bound(g, &abs) {
                    return Ok(ConservativeBound {
                        bound,
                        method: FallbackMethod::Abstraction,
                    });
                }
            }
        }
    }
    serialization_bound(g).map(|bound| ConservativeBound {
        bound,
        method: FallbackMethod::Serialization,
    })
}

/// The serialization bound `Σ_a γ(a) · T(a)` as a rational. Every entry of
/// a graph's symbolic max-plus matrix is bounded by it (a causal chain of
/// firings can never exceed the fully serialized iteration), which is what
/// makes it a valid per-scenario fallback for scenario-aware workloads.
///
/// # Errors
///
/// As [`conservative_period_fallback`]: inconsistency (no repetition
/// vector) or overflow of the checked sum.
pub fn serialization_period_bound(g: &SdfGraph) -> Result<Rational, CoreError> {
    serialization_bound(g)
}

/// The serialization bound `Σ_a γ(a) · T(a)` as a rational, with checked
/// arithmetic throughout.
fn serialization_bound(g: &SdfGraph) -> Result<Rational, CoreError> {
    let gamma = repetition_vector(g)?;
    let overflow = CoreError::Graph(SdfError::Overflow {
        what: "serialization bound (sum of gamma(a) * T(a))",
    });
    let mut total: i128 = 0;
    for (aid, a) in g.actors() {
        let firings = i128::from(gamma.get(aid));
        let t = i128::from(a.execution_time());
        let product = firings.checked_mul(t).ok_or_else(|| overflow.clone())?;
        total = total.checked_add(product).ok_or_else(|| overflow.clone())?;
    }
    let total = i64::try_from(total).map_err(|_| overflow)?;
    Ok(Rational::from(total))
}

/// Analyzes the throughput of the session's graph under the session budget,
/// degrading to a conservative bound when the budget is exhausted.
///
/// This is the library-level equivalent of `sdfr analyze --deadline …`:
/// the exact spectral analysis reuses (or populates) the session's cached
/// symbolic iteration with every step charged to the session budget; on
/// [`SdfError::Exhausted`] the cheap (iteration-free)
/// [`conservative_period_fallback`] stands in, and the exhaustion is
/// reported alongside the bound rather than swallowed. The fallback bound
/// is iteration-free, so it remains available even when the session budget
/// is already exhausted.
///
/// # Errors
///
/// Non-budget analysis errors (inconsistency, deadlock, overflow) propagate
/// unchanged; exhaustion only surfaces as an error if even the fallback is
/// impossible (e.g. an inconsistent graph, which has no period to bound).
///
/// # Example
///
/// ```
/// use sdfr_core::degrade::{analyze_with_session, AnalysisOutcome};
/// use sdfr_core::AnalysisSession;
/// use sdfr_graph::budget::Budget;
/// use sdfr_graph::SdfGraph;
///
/// // An iteration of this graph needs 1e9 + 1 firings; exact analysis is
/// // hopeless under a small budget, but the bound is instant.
/// let mut b = SdfGraph::builder("huge");
/// let x = b.actor("x", 1);
/// let y = b.actor("y", 1);
/// b.channel(x, y, 1_000_000_000, 1, 0)?;
/// let g = b.build()?;
/// let budget = Budget::unlimited().with_max_firings(1_000_000);
/// match analyze_with_session(&AnalysisSession::with_budget(g, budget))? {
///     AnalysisOutcome::Degraded { bound, .. } => {
///         assert_eq!(bound.bound, 1_000_000_001i64.into());
///     }
///     other => panic!("expected degradation, got {other:?}"),
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn analyze_with_session(
    session: &sdfr_analysis::AnalysisSession,
) -> Result<AnalysisOutcome, CoreError> {
    match session.throughput() {
        Ok(t) => Ok(AnalysisOutcome::Exact(t.period())),
        Err(exhausted @ SdfError::Exhausted { .. }) => {
            let bound = conservative_period_fallback(session.graph())?;
            Ok(AnalysisOutcome::Degraded { exhausted, bound })
        }
        Err(e) => Err(CoreError::Graph(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfr_analysis::throughput::throughput;
    use sdfr_analysis::AnalysisSession;
    use sdfr_graph::budget::Budget;
    use sdfr_graph::budget::BudgetResource;
    use std::time::{Duration, Instant};

    fn huge_multirate() -> SdfGraph {
        let mut b = SdfGraph::builder("huge");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 1_000_000_000, 1, 0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn degradation_is_fast_and_labelled() {
        let g = huge_multirate();
        let budget = Budget::unlimited()
            .with_max_firings(1_000_000)
            .with_deadline(Duration::from_secs(1));
        let t0 = Instant::now();
        let outcome = analyze_with_session(&AnalysisSession::with_budget(g, budget)).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(1), "must degrade fast");
        match &outcome {
            AnalysisOutcome::Degraded { exhausted, bound } => {
                assert!(matches!(exhausted, SdfError::Exhausted { .. }));
                assert_eq!(bound.method, FallbackMethod::Serialization);
                // γ = (1, 1e9), T = (1, 1): bound = 1e9 + 1.
                assert_eq!(bound.bound, Rational::from(1_000_000_001));
                assert_eq!(outcome.period_or_bound(), Some(bound.bound));
                assert!(!outcome.is_exact());
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
    }

    #[test]
    fn ample_budget_stays_exact() {
        let mut b = SdfGraph::builder("c");
        let x = b.actor("x", 2);
        let y = b.actor("y", 3);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 1).unwrap();
        let g = b.build().unwrap();
        let session = AnalysisSession::with_budget(g, Budget::unlimited().with_max_firings(1_000));
        let outcome = analyze_with_session(&session).unwrap();
        assert_eq!(outcome, AnalysisOutcome::Exact(Some(Rational::from(5))));
        assert!(outcome.is_exact());
    }

    #[test]
    fn bound_dominates_true_period() {
        // Multirate graph where the exact period is computable: the
        // serialization bound must never be below it.
        let mut b = SdfGraph::builder("mr");
        let x = b.actor("x", 3);
        let y = b.actor("y", 2);
        b.channel(x, y, 2, 3, 0).unwrap();
        b.channel(y, x, 3, 2, 6).unwrap();
        let g = b.build().unwrap();
        let exact = throughput(&g).unwrap().period().unwrap();
        let fallback = conservative_period_fallback(&g).unwrap();
        assert_eq!(fallback.method, FallbackMethod::Serialization);
        assert!(exact <= fallback.bound, "{exact} <= {}", fallback.bound);
    }

    #[test]
    fn homogeneous_graphs_use_the_abstraction_bound() {
        // A regular ladder in the naming convention auto_abstraction
        // expects: the Thm. 1 bound applies and dominates the true period.
        let mut b = SdfGraph::builder("chain");
        let n = 6;
        let actors: Vec<_> = (0..n).map(|i| b.actor(format!("A{}", i + 1), 2)).collect();
        for i in 0..n - 1 {
            b.channel(actors[i], actors[i + 1], 1, 1, 0).unwrap();
        }
        b.channel(actors[n - 1], actors[0], 1, 1, 1).unwrap();
        let g = b.build().unwrap();
        let fallback = conservative_period_fallback(&g).unwrap();
        assert_eq!(fallback.method, FallbackMethod::Abstraction);
        let exact = throughput(&g).unwrap().period().unwrap();
        assert!(exact <= fallback.bound, "{exact} <= {}", fallback.bound);
    }

    #[test]
    fn outcome_aggregate_counts_and_merges() {
        let exact = AnalysisOutcome::Exact(Some(Rational::from(5)));
        let degraded = AnalysisOutcome::Degraded {
            exhausted: SdfError::Exhausted {
                resource: BudgetResource::Firings,
                spent: 11,
                limit: 10,
            },
            bound: ConservativeBound {
                bound: Rational::from(42),
                method: FallbackMethod::Serialization,
            },
        };
        let mut a = OutcomeAggregate::default();
        a.record(&exact);
        a.record(&exact);
        a.record(&degraded);
        assert_eq!(a.exact, 2);
        assert_eq!(a.degraded(), 1);
        assert_eq!(a.degraded_serialization, 1);
        assert!(!a.all_exact());

        let mut b = OutcomeAggregate::default();
        b.record(&AnalysisOutcome::Degraded {
            exhausted: SdfError::Exhausted {
                resource: BudgetResource::WallClock,
                spent: 2,
                limit: 1,
            },
            bound: ConservativeBound {
                bound: Rational::from(7),
                method: FallbackMethod::Abstraction,
            },
        });
        b.record_error();
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.total(), 5);
        assert_eq!(merged.degraded(), 2);
        assert_eq!(merged.degraded_abstraction, 1);
        assert_eq!(merged.errors, 1);

        let mut only_exact = OutcomeAggregate::default();
        only_exact.record(&exact);
        assert!(only_exact.all_exact());
    }

    #[test]
    fn inconsistent_graphs_cannot_degrade() {
        let mut b = SdfGraph::builder("bad");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 2, 1, 0).unwrap();
        b.channel(x, y, 1, 1, 0).unwrap();
        let g = b.build().unwrap();
        assert!(conservative_period_fallback(&g).is_err());
        let budget = Budget::unlimited().with_max_firings(10);
        assert!(analyze_with_session(&AnalysisSession::with_budget(g, budget)).is_err());
    }

    #[test]
    fn cancellation_degrades_too() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let g = huge_multirate();
        let flag = Arc::new(AtomicBool::new(true)); // cancelled up front
        let budget = Budget::unlimited().with_cancel_flag(flag);
        match analyze_with_session(&AnalysisSession::with_budget(g, budget)).unwrap() {
            AnalysisOutcome::Degraded { exhausted, .. } => {
                assert!(matches!(
                    exhausted,
                    SdfError::Exhausted {
                        resource: BudgetResource::Cancelled,
                        ..
                    }
                ));
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        // Un-cancelled flags leave small analyses exact.
        let flag = Arc::new(AtomicBool::new(false));
        let _ = Ordering::Relaxed; // (import used above)
        let mut b = SdfGraph::builder("c");
        let x = b.actor("x", 1);
        b.channel(x, x, 1, 1, 1).unwrap();
        let g = b.build().unwrap();
        let session = AnalysisSession::with_budget(g, Budget::unlimited().with_cancel_flag(flag));
        let outcome = analyze_with_session(&session).unwrap();
        assert!(outcome.is_exact());
    }
}
