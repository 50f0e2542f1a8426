//! Differential tests of the CSDF symbolic iteration against the checked
//! phase loop it replaced.
//!
//! [`reference`] is that loop, kept verbatim as a test-only oracle: a
//! greedy phase-accurate schedule materialized as a `Vec`, then a replay
//! over checked `MpVector` stamps. The production path runs the same
//! greedy order on the flat, metered `SymbolicEngine`; on every random live
//! graph, and on perturbations that deadlock or lose consistency, the two
//! must agree exactly.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sdfr_benchmarks::random::{random_live_csdf, RandomSdfConfig};
use sdfr_csdf::{repetition_vector, symbolic_iteration, symbolic_iteration_capped, CsdfGraph};
use sdfr_graph::budget::Budget;
use sdfr_graph::SdfError;

/// The pre-engine checked CSDF loop.
mod reference {
    use std::collections::VecDeque;

    use sdfr_csdf::{repetition_vector, CsdfActorId, CsdfGraph, CsdfRepetition, CsdfSymbolic};
    use sdfr_graph::SdfError;
    use sdfr_maxplus::{MpMatrix, MpVector};

    /// One phase-accurate sequential schedule for an iteration.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CsdfSchedule {
        /// Firings in order: `(actor, phase)`.
        pub firings: Vec<(CsdfActorId, usize)>,
    }

    /// Constructs a phase-accurate PASS: fires enabled phases greedily until
    /// every actor completed `cycles(a)` full phase cycles.
    ///
    /// # Errors
    ///
    /// - [`SdfError::Inconsistent`] without a repetition vector,
    /// - [`SdfError::Deadlock`] if the iteration cannot complete.
    pub fn sequential_schedule(
        g: &CsdfGraph,
        rep: &CsdfRepetition,
    ) -> Result<CsdfSchedule, SdfError> {
        let n = g.num_actors();
        let mut tokens: Vec<u64> = g.channels().map(|(_, c)| c.initial_tokens()).collect();
        let mut phase = vec![0usize; n];
        let mut remaining: Vec<u64> = g
            .actors()
            .map(|(id, a)| rep.firings(id, a.num_phases()))
            .collect();
        let needed: u64 = remaining.iter().sum();
        let mut fired = 0u64;
        let mut firings = Vec::with_capacity(needed as usize);

        loop {
            let mut progress = false;
            for a in g.actor_ids() {
                // Fire as many consecutive phases of `a` as are enabled.
                while remaining[a.index()] > 0 && phase_enabled(g, a, phase[a.index()], &tokens) {
                    fire_phase(g, a, phase[a.index()], &mut tokens);
                    firings.push((a, phase[a.index()]));
                    phase[a.index()] = (phase[a.index()] + 1) % g.actor(a).num_phases();
                    remaining[a.index()] -= 1;
                    fired += 1;
                    progress = true;
                }
            }
            if remaining.iter().all(|&r| r == 0) {
                debug_assert!(phase.iter().all(|&p| p == 0), "cycles complete");
                return Ok(CsdfSchedule { firings });
            }
            if !progress {
                return Err(SdfError::Deadlock { fired, needed });
            }
        }
    }

    fn phase_enabled(g: &CsdfGraph, a: CsdfActorId, phase: usize, tokens: &[u64]) -> bool {
        g.incoming(a)
            .iter()
            .all(|&cid| tokens[cid.index()] >= g.channel(cid).consumption(phase))
    }

    fn fire_phase(g: &CsdfGraph, a: CsdfActorId, phase: usize, tokens: &mut [u64]) {
        for &cid in g.incoming(a) {
            tokens[cid.index()] -= g.channel(cid).consumption(phase);
        }
        for &cid in g.outgoing(a) {
            tokens[cid.index()] += g.channel(cid).production(phase);
        }
    }

    /// Executes one iteration symbolically (the paper's Algorithm 1, at phase
    /// granularity) and returns the max-plus matrix over the initial tokens.
    ///
    /// # Errors
    ///
    /// See [`sequential_schedule`].
    pub fn symbolic_iteration(g: &CsdfGraph) -> Result<CsdfSymbolic, SdfError> {
        let rep = repetition_vector(g)?;
        let schedule = sequential_schedule(g, &rep)?;

        let mut tokens = Vec::new();
        for (cid, ch) in g.channels() {
            for position in 0..ch.initial_tokens() {
                tokens.push((cid, position));
            }
        }
        let n = tokens.len();
        let mut queues: Vec<VecDeque<(MpVector, u64)>> =
            g.channels().map(|_| VecDeque::new()).collect();
        for (idx, &(cid, _)) in tokens.iter().enumerate() {
            queues[cid.index()].push_back((MpVector::unit(n, idx), 1));
        }

        for &(a, phase) in &schedule.firings {
            let mut start = MpVector::neg_inf(n);
            for &cid in g.incoming(a) {
                let mut need = g.channel(cid).consumption(phase);
                while need > 0 {
                    let (stamp, count) = queues[cid.index()]
                        .front_mut()
                        .expect("schedule guarantees availability");
                    start = start.join(stamp).expect("stamps share length");
                    if *count > need {
                        *count -= need;
                        need = 0;
                    } else {
                        need -= *count;
                        queues[cid.index()].pop_front();
                    }
                }
            }
            let end = start.shift(g.actor(a).phase_time(phase));
            for &cid in g.outgoing(a) {
                let produced = g.channel(cid).production(phase);
                if produced > 0 {
                    queues[cid.index()].push_back((end.clone(), produced));
                }
            }
        }

        let mut rows = Vec::with_capacity(n);
        for &(cid, position) in &tokens {
            let mut pos = position;
            let mut found = None;
            for (stamp, count) in &queues[cid.index()] {
                if pos < *count {
                    found = Some(stamp.clone());
                    break;
                }
                pos -= count;
            }
            rows.push(found.expect("iteration restores the token distribution"));
        }
        Ok(CsdfSymbolic {
            matrix: MpMatrix::from_row_vectors(rows).expect("rows share length"),
            tokens,
            repetition: rep,
        })
    }
}

fn config() -> RandomSdfConfig {
    RandomSdfConfig {
        min_actors: 2,
        max_actors: 5,
        max_gamma: 4,
        ..RandomSdfConfig::default()
    }
}

/// Rebuilds `g` with channel `target`'s patterns and tokens passed
/// through `edit(production, consumption, tokens)`.
fn perturbed(
    g: &CsdfGraph,
    target: usize,
    edit: impl Fn(&mut Vec<u64>, &mut Vec<u64>, &mut u64),
) -> CsdfGraph {
    let mut b = CsdfGraph::builder(g.name());
    let ids: Vec<_> = g
        .actors()
        .map(|(_, a)| b.actor(a.name(), (0..a.num_phases()).map(|p| a.phase_time(p))))
        .collect();
    for (cid, c) in g.channels() {
        let mut prod: Vec<u64> = (0..g.actor(c.source()).num_phases())
            .map(|p| c.production(p))
            .collect();
        let mut cons: Vec<u64> = (0..g.actor(c.target()).num_phases())
            .map(|p| c.consumption(p))
            .collect();
        let mut tokens = c.initial_tokens();
        if cid.index() == target {
            edit(&mut prod, &mut cons, &mut tokens);
        }
        b.channel(
            ids[c.source().index()],
            ids[c.target().index()],
            prod,
            cons,
            tokens,
        )
        .expect("edits keep every pattern non-zero");
    }
    b.build().expect("names unchanged")
}

/// The engine and the reference agree: the same matrix, token layout and
/// iteration length on success, the same error otherwise.
fn assert_agree(g: &CsdfGraph) -> Result<(), TestCaseError> {
    match (symbolic_iteration(g), reference::symbolic_iteration(g)) {
        (Ok(engine), Ok(reference)) => {
            prop_assert_eq!(&engine.matrix, &reference.matrix, "{}", g);
            prop_assert_eq!(&engine.tokens, &reference.tokens, "{}", g);
            prop_assert_eq!(
                engine.repetition.iteration_length(g),
                reference.repetition.iteration_length(g)
            );
        }
        (engine, reference) => prop_assert_eq!(
            engine.map(|_| ()).unwrap_err(),
            reference.map(|_| ()).unwrap_err(),
            "{}",
            g
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random live graphs (1–3 phases per actor, so zero-rate phases
    /// occur) and two perturbations of each: one channel stripped of its
    /// initial tokens (often a deadlock) and one channel producing an
    /// extra token in its first phase (often inconsistent).
    #[test]
    fn engine_matches_checked_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_live_csdf(&mut rng, &config());
        prop_assert!(symbolic_iteration(&g).is_ok(), "{}", g);
        assert_agree(&g)?;
        let target = rng.gen_range(0..g.num_channels());
        assert_agree(&perturbed(&g, target, |_, _, tokens| *tokens = 0))?;
        assert_agree(&perturbed(&g, target, |prod, _, _| prod[0] += 1))?;
    }
}

/// The canonical two-phase producer/consumer.
fn two_phase() -> CsdfGraph {
    let mut b = CsdfGraph::builder("tp");
    let p = b.actor("p", [1, 3]);
    let c = b.actor("c", [2]);
    b.channel(p, c, [2, 0], [1], 0).unwrap();
    b.channel(c, p, [1], [0, 2], 4).unwrap();
    b.channel(p, p, [1, 1], [1, 1], 1).unwrap();
    b.channel(c, c, [1], [1], 1).unwrap();
    b.build().unwrap()
}

#[test]
fn schedule_is_phase_accurate() {
    let g = two_phase();
    let rep = repetition_vector(&g).unwrap();
    let s = reference::sequential_schedule(&g, &rep).unwrap();
    assert_eq!(s.firings.len(), 4);
    // Phases of each actor appear in cyclic order.
    let p = g.actor_by_name("p").unwrap();
    let phases: Vec<usize> = s
        .firings
        .iter()
        .filter(|(a, _)| *a == p)
        .map(|&(_, ph)| ph)
        .collect();
    assert_eq!(phases, vec![0, 1]);

    // The engine fires the same 4 phases and reaches the same matrix.
    let cap = |n| Budget::unlimited().with_max_firings(n);
    let sym = symbolic_iteration_capped(&g, &cap(4)).unwrap();
    assert_eq!(
        sym.matrix,
        reference::symbolic_iteration(&g).unwrap().matrix
    );
    assert!(matches!(
        symbolic_iteration_capped(&g, &cap(3)),
        Err(SdfError::Exhausted { .. })
    ));
}
