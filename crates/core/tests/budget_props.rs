//! Property and regression tests for the resource-budget layer.
//!
//! The contract under test (ISSUE acceptance criteria):
//!
//! - a random consistent graph analysed under a budget `B` either completes
//!   or returns a structured [`SdfError::Exhausted`] — it never panics and
//!   never does more than ~2×`B` units of work (the schedule and the firing
//!   loop each charge up to `Σγ`, so the meter legitimately reads ≤ 2×`B`);
//! - the pathological two-actor graph with repetition sum ≥ 10^9 returns
//!   `Exhausted` in well under a second for both a firing cap and a
//!   wall-clock deadline, and the degradation path still produces a
//!   conservative period bound instead of hanging, panicking or OOM-ing.

use std::time::{Duration, Instant};

use proptest::prelude::*;

use sdfr_analysis::throughput::throughput;
use sdfr_core::degrade::{analyze_with_session, AnalysisOutcome};
use sdfr_core::AnalysisSession;
use sdfr_graph::budget::{Budget, BudgetResource};
use sdfr_graph::{SdfError, SdfGraph};

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A randomly shaped but always-consistent graph: a ring of `n` actors
/// whose channel rates are derived from a per-actor firing count `q`, so
/// every balance equation `q(src)·prod = q(dst)·cons` holds by
/// construction. Deadlock is possible (tokens are random); inconsistency
/// is not.
#[derive(Debug, Clone)]
struct RandomGraph {
    exec: Vec<i64>,
    q: Vec<u64>,
    tokens: Vec<u64>,
}

impl RandomGraph {
    fn build(&self) -> SdfGraph {
        let n = self.q.len();
        let mut b = SdfGraph::builder("random");
        let ids: Vec<_> = (0..n)
            .map(|i| b.actor(format!("a{i}"), self.exec[i]))
            .collect();
        for i in 0..n {
            let j = (i + 1) % n;
            let g = gcd(self.q[i], self.q[j]);
            b.channel(ids[i], ids[j], self.q[j] / g, self.q[i] / g, self.tokens[i])
                .expect("rates derived from q are nonzero");
        }
        b.build().expect("ring graphs are well-formed")
    }
}

fn random_graph() -> impl Strategy<Value = RandomGraph> {
    (2usize..=5).prop_flat_map(|n| {
        (
            proptest::collection::vec(0i64..=10, n),
            proptest::collection::vec(1u64..=4, n),
            proptest::collection::vec(0u64..=6, n),
        )
            .prop_map(|(exec, q, tokens)| RandomGraph { exec, q, tokens })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Budgeted analysis of a consistent graph either completes or reports
    /// structured exhaustion/deadlock — and the meter never records more
    /// than ~2× the firing cap.
    #[test]
    fn budgeted_analysis_completes_or_exhausts(g in random_graph(), cap in 1u64..=40) {
        let g = g.build();
        let budget = Budget::unlimited().with_max_firings(cap);
        match AnalysisSession::with_budget(g, budget).throughput() {
            Ok(_) => {}
            Err(SdfError::Exhausted { resource, spent, limit }) => {
                prop_assert_eq!(resource, BudgetResource::Firings);
                prop_assert_eq!(limit, cap);
                // Schedule construction + symbolic firing each charge Σγ:
                // at most 2×cap units of work before the meter trips.
                prop_assert!(spent <= 2 * cap + 2, "spent {} under cap {}", spent, cap);
            }
            Err(SdfError::Deadlock { .. }) => {} // random tokens may deadlock
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
    }

    /// The degradation wrapper never panics and any bound it reports
    /// dominates the true period (whenever the exact period exists).
    #[test]
    fn degraded_bounds_are_sound(g in random_graph(), cap in 1u64..=20) {
        let g = g.build();
        let budget = Budget::unlimited().with_max_firings(cap);
        match analyze_with_session(&AnalysisSession::with_budget(g.clone(), budget)) {
            Ok(AnalysisOutcome::Exact(_)) => {}
            Ok(AnalysisOutcome::Degraded { exhausted, bound }) => {
                prop_assert!(matches!(exhausted, SdfError::Exhausted { .. }));
                // These graphs are small: the unlimited analysis is cheap
                // and gives the ground truth the bound must dominate.
                if let Ok(thr) = throughput(&g) {
                    if let Some(exact) = thr.period() {
                        prop_assert!(
                            exact <= bound.bound,
                            "exact {} must be <= bound {}", exact, bound.bound
                        );
                    }
                }
            }
            Err(e) => {
                let graph_level = matches!(
                    e,
                    sdfr_core::CoreError::Graph(
                        SdfError::Deadlock { .. } | SdfError::Inconsistent { .. }
                    )
                );
                prop_assert!(graph_level, "unexpected error: {e}");
            }
        }
    }

    /// A wall-clock deadline is honoured: tiny graphs finish (exactly or
    /// degraded) long before a generous deadline expires.
    #[test]
    fn deadlines_do_not_linger(g in random_graph()) {
        let g = g.build();
        let budget = Budget::unlimited().with_deadline(Duration::from_millis(200));
        let t0 = Instant::now();
        let _ = AnalysisSession::with_budget(g, budget).throughput();
        prop_assert!(t0.elapsed() < Duration::from_secs(2));
    }
}

/// Two actors, repetition sum 10^9 + 1 (`γ = (1, 10^9)`).
fn pathological() -> SdfGraph {
    let mut b = SdfGraph::builder("huge");
    let x = b.actor("x", 1);
    let y = b.actor("y", 1);
    b.channel(x, y, 1_000_000_000, 1, 0).unwrap();
    b.build().unwrap()
}

#[test]
fn pathological_graph_exhausts_firing_cap_quickly() {
    let g = pathological();
    let budget = Budget::unlimited().with_max_firings(1_000_000);
    let t0 = Instant::now();
    let err = AnalysisSession::with_budget(g, budget)
        .throughput()
        .unwrap_err();
    assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    assert!(
        matches!(
            err,
            SdfError::Exhausted {
                resource: BudgetResource::Firings,
                ..
            }
        ),
        "{err:?}"
    );
}

#[test]
fn pathological_graph_exhausts_deadline_quickly() {
    let g = pathological();
    let budget = Budget::unlimited().with_deadline(Duration::from_millis(100));
    let t0 = Instant::now();
    let err = AnalysisSession::with_budget(g, budget)
        .throughput()
        .unwrap_err();
    assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    assert!(
        matches!(
            err,
            SdfError::Exhausted {
                resource: BudgetResource::WallClock,
                ..
            }
        ),
        "{err:?}"
    );
}

#[test]
fn pathological_graph_still_gets_a_conservative_bound() {
    let g = pathological();
    let budget = Budget::unlimited()
        .with_max_firings(1_000_000)
        .with_deadline(Duration::from_secs(1));
    let t0 = Instant::now();
    let outcome = analyze_with_session(&AnalysisSession::with_budget(g, budget)).unwrap();
    assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    match outcome {
        AnalysisOutcome::Degraded { exhausted, bound } => {
            assert!(matches!(exhausted, SdfError::Exhausted { .. }));
            // γ = (1, 1e9), all execution times 1: Σ γ(a)·T(a) = 1e9 + 1.
            assert_eq!(bound.bound, 1_000_000_001i64.into());
        }
        other => panic!("expected Degraded, got {other:?}"),
    }
}
