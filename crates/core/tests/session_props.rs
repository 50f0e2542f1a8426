//! Property tests for [`AnalysisSession`]: the memoizing context must be
//! observationally identical to the free functions it wraps, and safe to
//! share across threads even when its budget is too tight to finish.
//!
//! The contract under test (ISSUE acceptance criteria):
//!
//! - for random consistent graphs, every session-cached artifact (period,
//!   iteration matrix, repetition vector, bottleneck, conversions) equals
//!   the result of the corresponding free function computed from scratch;
//! - a session shared across `std::thread::scope` workers under a tight
//!   budget never panics: every worker sees either a result or a structured
//!   error, all workers agree, and at most one symbolic iteration ran.

use proptest::prelude::*;

use sdfr_analysis::bottleneck::bottleneck;
use sdfr_analysis::symbolic::symbolic_iteration;
use sdfr_analysis::throughput::throughput;
use sdfr_analysis::AnalysisSession;
use sdfr_core::{novel, traditional};
use sdfr_graph::budget::Budget;
use sdfr_graph::repetition::repetition_vector;
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
/// every balance equation holds by construction (deadlock remains
/// possible; inconsistency is not).
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

/// Every artifact served from a session over `g` is identical to the
/// free-function result computed from scratch on the same graph.
fn session_matches_free_functions(g: &SdfGraph) -> Result<(), TestCaseError> {
    let s = AnalysisSession::new(g.clone());
    match (s.throughput(), throughput(g)) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(a.period(), b.period());
            // γ agrees too (free function recomputes it).
            prop_assert_eq!(
                s.repetition_vector().unwrap(),
                &repetition_vector(g).unwrap()
            );
            // The cached matrix is the matrix of a fresh iteration.
            let sym = symbolic_iteration(g).unwrap();
            prop_assert_eq!(&s.symbolic().unwrap().matrix, &sym.matrix);
            prop_assert_eq!(s.bottleneck().unwrap(), bottleneck(g).unwrap());
            // Conversions through the session build the free path's graphs.
            let nv_free = novel::convert(g).unwrap();
            let nv_sess = novel::convert_with_session(&s).unwrap();
            prop_assert_eq!(&nv_free.graph, &nv_sess.graph);
            let tr_free = traditional::convert(g).unwrap();
            let tr_sess = traditional::convert_with_session(&s).unwrap();
            prop_assert_eq!(tr_free.graph.num_actors(), tr_sess.graph.num_actors());
            // Everything above came out of one symbolic iteration.
            prop_assert_eq!(s.symbolic_iterations_computed(), 1);
        }
        (Err(SdfError::Deadlock { .. }), Err(SdfError::Deadlock { .. })) => {}
        (a, b) => prop_assert!(false, "session {a:?} vs free {b:?}"),
    }
    Ok(())
}

/// The session-versus-free contract on the Table-1 graphs.
#[test]
fn session_results_equal_free_functions_on_table1() {
    for case in sdfr_benchmarks::table1::all() {
        if let Err(e) = session_matches_free_functions(&case.graph) {
            panic!("{}: {e}", case.name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The session-versus-free contract on random graphs.
    #[test]
    fn session_results_equal_free_functions(g in random_graph()) {
        session_matches_free_functions(&g.build())?;
    }

    /// A session shared across scoped threads under a tight budget never
    /// panics; all workers observe the same outcome, and at most one
    /// symbolic iteration was ever executed.
    #[test]
    fn shared_session_survives_tight_budgets(g in random_graph(), cap in 1u64..=30) {
        let g = g.build();
        let budget = Budget::unlimited().with_max_firings(cap);
        let s = AnalysisSession::with_budget(g, budget);
        let outcomes = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let s = &s;
                    scope.spawn(move || match i % 2 {
                        0 => s.throughput().map(|t| t.period()),
                        _ => s.eigenvalue(),
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker must not panic"))
                .collect::<Vec<_>>()
        });
        // Both query styles resolve through the same cached slot, so all
        // four outcomes are identical.
        for pair in outcomes.windows(2) {
            prop_assert_eq!(&pair[0], &pair[1]);
        }
        match &outcomes[0] {
            Ok(_) | Err(SdfError::Exhausted { .. }) | Err(SdfError::Deadlock { .. }) => {}
            other => prop_assert!(false, "unexpected outcome: {other:?}"),
        }
        prop_assert!(s.symbolic_iterations_computed() <= 1);
        // The cumulative charge never exceeds ~2× the cap (schedule +
        // symbolic phases each charge at most cap before tripping).
        prop_assert!(s.spent() <= 2 * cap + 2);
    }
}
