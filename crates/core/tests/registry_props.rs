//! Differential test corpus for [`SessionRegistry`]: the cross-graph cache
//! must be *observationally invisible*. For any batch of graphs — with
//! duplicates, across threads, under tight budgets, through evictions —
//! registry-mediated results must be byte-identical to fresh-session
//! results, hit counts must equal duplicate counts, and the symbolic
//! iteration (paper, Alg. 1) must run at most once per distinct
//! (content, budget-caps) key.

use std::sync::Arc;

use proptest::prelude::*;

use sdfr_analysis::buffer::{
    minimize_capacities, throughput_buffer_tradeoff, throughput_buffer_tradeoff_serial,
};
use sdfr_analysis::registry::{Lookup, RegistryConfig, SessionRegistry};
use sdfr_analysis::AnalysisSession;
use sdfr_graph::budget::Budget;
use sdfr_graph::{SdfError, SdfGraph};

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A randomly shaped but always-consistent ring graph (same generator as
/// `session_props.rs`): balance equations hold by construction, deadlock
/// remains possible.
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

/// A batch: 1–3 distinct base graphs plus a duplication pattern selecting
/// which base each unit analyses (so duplicates are *rebuilt*, not cloned —
/// exactly what a file-per-unit batch front-end sees).
fn random_batch() -> impl Strategy<Value = (Vec<RandomGraph>, Vec<usize>)> {
    (1usize..=3).prop_flat_map(|bases| {
        (
            proptest::collection::vec(random_graph(), bases),
            proptest::collection::vec(0usize..bases, 2..=8),
        )
    })
}

/// Everything `sdfr analyze` reads, rendered to a byte-comparable string.
/// Errors are part of the observable behaviour and are rendered too.
fn observe(session: &AnalysisSession) -> String {
    let period = session.throughput().map(|t| t.period());
    let matrix = session.symbolic().map(|s| format!("{:?}", s.matrix));
    let bottleneck = session.bottleneck().map(|b| format!("{b:?}"));
    let makespan = session.iteration_makespan();
    format!("{period:?}|{matrix:?}|{bottleneck:?}|{makespan:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Registry-mediated results are byte-identical to fresh-session
    /// results across the whole batch, and hit counts equal duplicate
    /// counts.
    #[test]
    fn registry_results_equal_fresh_sessions((bases, picks) in random_batch()) {
        let registry = SessionRegistry::new();
        let mut seen = std::collections::HashSet::new();
        for &pick in &picks {
            let g = Arc::new(bases[pick].build());
            let fresh = AnalysisSession::new(SdfGraph::clone(&g));
            let (cached, lookup) = registry.lookup(&g, &Budget::unlimited());
            let expected_lookup = if seen.insert(g.fingerprint()) {
                Lookup::Miss
            } else {
                Lookup::Hit
            };
            prop_assert_eq!(lookup, expected_lookup);
            prop_assert_eq!(observe(&cached), observe(&fresh));
            prop_assert!(cached.symbolic_iterations_computed() <= 1);
        }
        let stats = registry.stats();
        let unique = seen.len() as u64;
        prop_assert_eq!(stats.misses, unique);
        prop_assert_eq!(stats.hits, picks.len() as u64 - unique);
        prop_assert_eq!(stats.entries, seen.len());
        prop_assert_eq!(stats.bypasses, 0);
        prop_assert_eq!(stats.collisions, 0);
        // K duplicates of one graph -> exactly one symbolic iteration per
        // distinct content (deadlocked graphs may have run none).
        prop_assert!(stats.symbolic_iterations <= unique);
    }

    /// The chunked parallel fan-outs — capacity minimization's probe ring
    /// and the Pareto sweep — are byte-identical to the serial oracle at
    /// every fan-out width 1..=8, on random graphs (deadlocking ones included:
    /// errors must match too). Chunking batches probes by the budget cost
    /// model, so this pins "coarser tasks" to "identical answers".
    #[test]
    fn chunked_sweeps_equal_serial_oracle_at_every_width(g in random_graph()) {
        let graph = g.build();
        let iterations = 3;
        let serial_curve = throughput_buffer_tradeoff_serial(&graph, iterations);
        let serial_caps = sdfr_pool::with_threads(1, || minimize_capacities(&graph, iterations));
        for width in 1..=8usize {
            let curve =
                sdfr_pool::with_threads(width, || throughput_buffer_tradeoff(&graph, iterations));
            prop_assert_eq!(
                &curve, &serial_curve,
                "Pareto sweep diverged from serial at width {}", width
            );
            let caps = sdfr_pool::with_threads(width, || minimize_capacities(&graph, iterations));
            prop_assert_eq!(
                &caps, &serial_caps,
                "capacity minimization diverged from 1-thread at width {}", width
            );
        }
    }

    /// The same differential guarantee under a shared *tight* budget: the
    /// cached session and a fresh session given the same cap observe the
    /// same exhaustion or the same results.
    #[test]
    fn registry_results_equal_fresh_sessions_under_caps(
        g in random_graph(),
        cap in 1u64..=40,
    ) {
        let registry = SessionRegistry::new();
        let budget = Budget::unlimited().with_max_firings(cap);
        let g1 = Arc::new(g.build());
        let fresh = AnalysisSession::with_budget(SdfGraph::clone(&g1), budget.clone());
        let (first, l1) = registry.lookup(&g1, &budget);
        prop_assert_eq!(l1, Lookup::Miss);
        prop_assert_eq!(observe(&first), observe(&fresh));
        // A duplicate under the same cap shares the session — and therefore
        // trivially observes identical bytes.
        let g2 = Arc::new(g.build());
        let (second, l2) = registry.lookup(&g2, &budget);
        prop_assert_eq!(l2, Lookup::Hit);
        prop_assert!(Arc::ptr_eq(&first, &second));
        // A different cap is a different key: isolated session.
        let (third, l3) = registry.lookup(&g1, &Budget::unlimited().with_max_firings(cap + 1));
        prop_assert_eq!(l3, Lookup::Miss);
        prop_assert!(!Arc::ptr_eq(&first, &third));
    }
}

/// N threads hammer one registry with overlapping fingerprints under tight
/// budgets: no panics, no double-compute of the symbolic iteration, and
/// all workers observe identical results per key.
#[test]
fn concurrent_hammering_never_double_computes() {
    let mut graphs = Vec::new();
    for i in 0..3u64 {
        let mut b = SdfGraph::builder(format!("hammer{i}"));
        let x = b.actor("x", 1 + i as i64);
        let y = b.actor("y", 2);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 1 + i).unwrap();
        graphs.push(Arc::new(b.build().unwrap()));
    }
    let registry = SessionRegistry::new();
    let budget = Budget::unlimited().with_max_firings(25);

    let outcomes: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let registry = &registry;
                let graphs = &graphs;
                let budget = &budget;
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    for round in 0..40 {
                        let g = &graphs[(t + round) % graphs.len()];
                        let session = registry.lookup(g, budget).0;
                        let period = format!("{:?}", session.throughput().map(|t| t.period()));
                        seen.push(format!("{}:{}", g.name(), period));
                    }
                    seen
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker must not panic"))
            .collect()
    });

    // Every observation of one graph agrees across all threads and rounds.
    let mut per_graph: std::collections::HashMap<&str, &str> = std::collections::HashMap::new();
    for worker in &outcomes {
        for obs in worker {
            let (name, result) = obs.split_once(':').unwrap();
            let prior = per_graph.entry(name).or_insert(result);
            assert_eq!(*prior, result, "threads disagree on {name}");
        }
    }

    let stats = registry.stats();
    assert_eq!(stats.entries, 3);
    assert_eq!(stats.misses, 3);
    assert_eq!(stats.hits, 8 * 40 - 3);
    assert_eq!(stats.evictions, 0);
    // The acceptance criterion: one symbolic iteration per distinct key,
    // no matter how many threads hammered it.
    assert!(stats.symbolic_iterations <= 3, "double-computed: {stats:?}");
    for g in &graphs {
        let session = registry.lookup(g, &budget).0;
        assert!(session.symbolic_iterations_computed() <= 1);
    }
}

/// Eviction under concurrency: a deliberately tiny registry thrashes while
/// workers hold and keep using their `Arc`s — evicted sessions must remain
/// fully usable and agree with fresh sessions.
#[test]
fn eviction_never_corrupts_in_flight_sessions() {
    let mut graphs = Vec::new();
    for i in 0..4u64 {
        let mut b = SdfGraph::builder(format!("evict{i}"));
        let x = b.actor("x", 2 + i as i64);
        let y = b.actor("y", 3);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 1).unwrap();
        graphs.push(Arc::new(b.build().unwrap()));
    }
    // Entry cap 1: almost every lookup evicts the previous entry.
    let registry = SessionRegistry::with_config(RegistryConfig {
        max_entries: 1,
        max_bytes: u64::MAX,
    });
    let expected: Vec<String> = graphs
        .iter()
        .map(|g| observe(&AnalysisSession::new(SdfGraph::clone(g))))
        .collect();

    std::thread::scope(|scope| {
        for t in 0..6 {
            let registry = &registry;
            let graphs = &graphs;
            let expected = &expected;
            scope.spawn(move || {
                for round in 0..25 {
                    let i = (t + round) % graphs.len();
                    // Hold the Arc across subsequent lookups (which evict
                    // this very entry) and only then drive the analysis.
                    let held = registry.session(&graphs[i]);
                    let _ = registry.session(&graphs[(i + 1) % graphs.len()]);
                    assert_eq!(observe(&held), expected[i], "graph {i} corrupted");
                }
            });
        }
    });

    let stats = registry.stats();
    assert!(stats.evictions > 0, "the tiny cap must have evicted");
    assert_eq!(stats.entries, 1);
    // Thrashing recomputes (each re-insert is a fresh session), but never
    // breaks: every recompute is still one run per session, and totals are
    // consistent with the miss count.
    assert!(stats.symbolic_iterations <= stats.misses);
}

/// Exhausted results are cached and shared like successes: a too-tight cap
/// produces the *same* structured error through the registry as through a
/// fresh session, including after eviction and re-entry.
#[test]
fn exhaustion_is_shared_and_stable() {
    let mut b = SdfGraph::builder("tight");
    let x = b.actor("x", 1);
    let y = b.actor("y", 1);
    b.channel(x, y, 50, 1, 0).unwrap();
    b.channel(y, x, 1, 50, 50).unwrap();
    let g = Arc::new(b.build().unwrap());
    let budget = Budget::unlimited().with_max_firings(3);

    let fresh = AnalysisSession::with_budget(SdfGraph::clone(&g), budget.clone());
    let fresh_err = fresh.throughput().unwrap_err();
    assert!(matches!(fresh_err, SdfError::Exhausted { .. }));

    let registry = SessionRegistry::new();
    for _ in 0..5 {
        let s = registry.lookup(&g, &budget).0;
        assert_eq!(s.throughput().unwrap_err(), fresh_err.clone());
    }
    let stats = registry.stats();
    assert_eq!((stats.misses, stats.hits), (1, 4));
    registry.clear();
    let s = registry.lookup(&g, &budget).0;
    assert_eq!(s.throughput().unwrap_err(), fresh_err);
}
