//! Analysis of CSDF graphs through the max-plus machinery.

use std::sync::Arc;

use sdfr_core::{FiringSource, SymbolicEngine};
use sdfr_graph::budget::Budget;
use sdfr_graph::repetition::RepetitionVector;
use sdfr_graph::{ActorId, ChannelId, SdfError, SdfGraph, Time};
use sdfr_maxplus::{MpMatrix, Rational};

use crate::graph::{CsdfActorId, CsdfChannelId, CsdfGraph};

/// The cycle-level repetition vector of a CSDF graph: `cycles[a]` complete
/// phase cycles of each actor per iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsdfRepetition {
    cycles: RepetitionVector,
}

impl CsdfRepetition {
    /// Complete phase cycles of actor `a` per iteration.
    ///
    /// # Panics
    ///
    /// Panics if `a` does not belong to the analysed graph.
    pub fn cycles(&self, a: CsdfActorId) -> u64 {
        self.cycles.as_slice()[a.index()]
    }

    /// Phase-level firings of actor `a` per iteration
    /// (`cycles(a) · phases(a)`), given its phase count.
    pub fn firings(&self, a: CsdfActorId, phases: usize) -> u64 {
        self.cycles(a) * phases as u64
    }

    /// Total phase firings per iteration over all actors.
    pub fn iteration_length(&self, g: &CsdfGraph) -> u64 {
        g.actors()
            .map(|(id, a)| self.firings(id, a.num_phases()))
            .sum()
    }
}

/// Computes the cycle-level repetition vector: the smallest positive
/// integers with `cycles(a)·Σprod = cycles(b)·Σcons` per channel.
///
/// # Errors
///
/// Returns [`SdfError::Inconsistent`] when the balance equations have no
/// solution.
pub fn repetition_vector(g: &CsdfGraph) -> Result<CsdfRepetition, SdfError> {
    // Reuse the SDF solver on the cycle-level rate abstraction.
    let mut b = SdfGraph::builder(g.name().to_string());
    let ids: Vec<_> = g
        .actors()
        .map(|(_, a)| b.actor(a.name().to_string(), 0.max(a.phase_time(0))))
        .collect();
    for (_, c) in g.channels() {
        b.channel(
            ids[c.source().index()],
            ids[c.target().index()],
            c.production_per_cycle(),
            c.consumption_per_cycle(),
            c.initial_tokens(),
        )
        .expect("validated patterns");
    }
    let sdf = b.build().expect("names validated by the CSDF builder");
    Ok(CsdfRepetition {
        cycles: sdfr_graph::repetition::repetition_vector(&sdf)?,
    })
}

/// A CSDF graph as a firing source for the symbolic engine: ids map
/// one-to-one onto the engine's dense indices, and firing `k` of an actor
/// runs phase `k % phases`.
impl FiringSource for CsdfGraph {
    fn num_actors(&self) -> usize {
        CsdfGraph::num_actors(self)
    }

    fn num_channels(&self) -> usize {
        CsdfGraph::num_channels(self)
    }

    fn initial_tokens(&self, c: ChannelId) -> u64 {
        self.channels[c.index()].initial_tokens
    }

    fn phases(&self, a: ActorId) -> usize {
        self.actors[a.index()].times.len()
    }

    fn phase_time(&self, a: ActorId, phase: usize) -> Time {
        self.actors[a.index()].times[phase]
    }

    fn consumption(&self, a: ActorId, phase: usize) -> impl Iterator<Item = (ChannelId, u64)> {
        let rate = move |c: usize| {
            (
                ChannelId::from_index(c),
                self.channels[c].consumption[phase],
            )
        };
        self.incoming[a.index()].iter().map(move |c| rate(c.0))
    }

    fn production(&self, a: ActorId, phase: usize) -> impl Iterator<Item = (ChannelId, u64)> {
        let rate = move |c: usize| (ChannelId::from_index(c), self.channels[c].production[phase]);
        self.outgoing[a.index()].iter().map(move |c| rate(c.0))
    }
}

/// The symbolic max-plus iteration of a CSDF graph.
#[derive(Debug, Clone)]
pub struct CsdfSymbolic {
    /// The `N×N` matrix over the initial tokens.
    pub matrix: MpMatrix,
    /// `(channel, FIFO position)` of each token index.
    pub tokens: Vec<(CsdfChannelId, u64)>,
    /// The repetition vector used.
    pub repetition: CsdfRepetition,
}

/// Executes one iteration symbolically (the paper's Algorithm 1, at phase
/// granularity) and returns the max-plus matrix over the initial tokens.
/// Runs uncapped; [`symbolic_iteration_capped`] bounds it.
///
/// # Errors
///
/// See [`symbolic_iteration_capped`].
pub fn symbolic_iteration(g: &CsdfGraph) -> Result<CsdfSymbolic, SdfError> {
    symbolic_iteration_capped(g, &Budget::unlimited())
}

/// [`symbolic_iteration`] under `budget`: the size cap bounds the number
/// of initial tokens (the matrix dimension), the firing cap and deadline
/// bound the phase firings. The phase firings run greedily on the shared
/// [`SymbolicEngine`], which keeps no checkpoints and leaves no archive.
///
/// # Errors
///
/// [`SdfError::Inconsistent`] without a repetition vector,
/// [`SdfError::Deadlock`] if the iteration cannot complete,
/// [`SdfError::Overflow`] past the integer range, and
/// [`SdfError::Exhausted`] when `budget` runs out.
pub fn symbolic_iteration_capped(g: &CsdfGraph, budget: &Budget) -> Result<CsdfSymbolic, SdfError> {
    let repetition = repetition_vector(g)?;
    let mut meter = budget.meter();
    let mut engine =
        SymbolicEngine::new(Arc::new(g.clone()), &repetition.cycles, false, &mut meter)?;
    engine.run_greedy(&mut meter)?;
    let sym = engine.finish();
    Ok(CsdfSymbolic {
        matrix: sym.matrix,
        tokens: sym
            .tokens
            .iter()
            .map(|t| (CsdfChannelId(t.channel.index()), t.position))
            .collect(),
        repetition,
    })
}

/// The throughput of a CSDF graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsdfThroughput {
    /// The iteration period λ, or `None` when unbounded.
    pub period: Option<Rational>,
    /// The repetition vector (cycle level).
    pub repetition: CsdfRepetition,
}

impl CsdfThroughput {
    /// Firings of actor `a` per time unit (needs the actor's phase count),
    /// or `None` when unbounded.
    pub fn actor_throughput(&self, a: CsdfActorId, phases: usize) -> Option<Rational> {
        let period = self.period?;
        if period == Rational::ZERO {
            return None;
        }
        Some(Rational::from(self.repetition.firings(a, phases) as i64) / period)
    }
}

/// Computes the exact iteration period of a CSDF graph spectrally.
///
/// # Errors
///
/// See [`symbolic_iteration`]; [`SdfError::Overflow`] when the period
/// does not fit `i64`.
pub fn throughput(g: &CsdfGraph) -> Result<CsdfThroughput, SdfError> {
    let sym = symbolic_iteration(g)?;
    Ok(CsdfThroughput {
        period: period_from_symbolic(&sym)?,
        repetition: sym.repetition,
    })
}

/// The iteration period of an already-computed symbolic iteration: the
/// eigenvalue of its matrix, or `None` when unbounded.
///
/// # Errors
///
/// [`SdfError::Overflow`] when the period does not fit `i64`.
pub fn period_from_symbolic(sym: &CsdfSymbolic) -> Result<Option<Rational>, SdfError> {
    sym.matrix
        .eigenvalue()
        .map_err(SdfError::cycle_ratio_overflow)
}

/// The throughput analysis from an already-computed symbolic iteration —
/// lets one [`symbolic_iteration`] feed both the throughput and the HSDF
/// conversion ([`hsdf_from_symbolic`]).
///
/// # Panics
///
/// Panics when the period does not fit `i64` ([`throughput`] returns the
/// error instead).
pub fn throughput_from_symbolic(sym: &CsdfSymbolic) -> CsdfThroughput {
    CsdfThroughput {
        period: period_from_symbolic(sym).expect("the iteration period fits i64"),
        repetition: sym.repetition.clone(),
    }
}

/// Converts a CSDF graph into a compact throughput-equivalent HSDF graph —
/// the paper's novel conversion applied beyond plain SDF.
///
/// # Errors
///
/// See [`symbolic_iteration`].
pub fn to_hsdf(g: &CsdfGraph) -> Result<SdfGraph, SdfError> {
    Ok(hsdf_from_symbolic(&symbolic_iteration(g)?, g.name()))
}

/// [`to_hsdf`] from an already-computed symbolic iteration; `name` is the
/// source graph's name (the result is named `{name}^mp-hsdf`).
pub fn hsdf_from_symbolic(sym: &CsdfSymbolic, name: &str) -> SdfGraph {
    sdfr_core::novel::hsdf_from_matrix(&sym.matrix, &format!("{name}^mp-hsdf"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfr_analysis::throughput::hsdf_period;

    /// The canonical CSDF example: the producer emits only in its first
    /// phase and reads back-pressure credits only in its second; a
    /// one-token self-loop serializes its phases (standard CSDF modeling).
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
    fn repetition_cycle_level() {
        let g = two_phase();
        // (self-loops do not change the balance equations)
        let rep = repetition_vector(&g).unwrap();
        // Σprod = 2 per p-cycle, Σcons = 1 per c firing: c cycles twice.
        let p = g.actor_by_name("p").unwrap();
        let c = g.actor_by_name("c").unwrap();
        assert_eq!(rep.cycles(p), 1);
        assert_eq!(rep.cycles(c), 2);
        assert_eq!(rep.firings(p, 2), 2);
        assert_eq!(rep.iteration_length(&g), 4);
    }

    #[test]
    fn throughput_and_hsdf_agree() {
        let g = two_phase();
        let thr = throughput(&g).unwrap();
        let hsdf = to_hsdf(&g).unwrap();
        assert_eq!(hsdf_period(&hsdf).unwrap().finite(), thr.period);
        assert!(thr.period.is_some());
    }

    #[test]
    fn constant_patterns_match_plain_sdf() {
        // A CSDF whose patterns are constant must analyse exactly like the
        // corresponding SDF graph.
        let mut b = CsdfGraph::builder("c");
        let x = b.actor("x", [2]);
        let y = b.actor("y", [3]);
        b.channel(x, y, [1], [1], 0).unwrap();
        b.channel(y, x, [1], [1], 1).unwrap();
        let g = b.build().unwrap();
        let thr = throughput(&g).unwrap();
        assert_eq!(thr.period, Some(Rational::from(5)));
        let x_id = g.actor_by_name("x").unwrap();
        assert_eq!(thr.actor_throughput(x_id, 1), Some(Rational::new(1, 5)));
    }

    #[test]
    fn csdf_lives_where_sdf_deadlocks() {
        // Classic: a token-free loop where each actor's first phase needs
        // nothing. As SDF (aggregated rates) this deadlocks; as CSDF the
        // phase order makes an iteration executable.
        let mut b = CsdfGraph::builder("live");
        let x = b.actor("x", [1, 1]);
        let y = b.actor("y", [1, 1]);
        // x produces in phase 0, consumes from y in phase 1.
        b.channel(x, y, [1, 0], [1, 0], 0).unwrap();
        b.channel(y, x, [0, 1], [0, 1], 0).unwrap();
        let g = b.build().unwrap();
        let rep = repetition_vector(&g).unwrap();
        let cap = Budget::unlimited().with_max_firings(rep.iteration_length(&g));
        assert!(symbolic_iteration_capped(&g, &cap).is_ok());
        assert!(symbolic_iteration(&g).is_ok());

        // The aggregate SDF (rates 1:1 both ways, zero tokens) deadlocks.
        let mut b = SdfGraph::builder("agg");
        let xs = b.actor("x", 1);
        let ys = b.actor("y", 1);
        b.channel(xs, ys, 1, 1, 0).unwrap();
        b.channel(ys, xs, 1, 1, 0).unwrap();
        let agg = b.build().unwrap();
        assert!(sdfr_analysis::throughput::throughput(&agg).is_err());
    }

    #[test]
    fn deadlocked_csdf_detected() {
        let mut b = CsdfGraph::builder("dead");
        let x = b.actor("x", [1]);
        let y = b.actor("y", [1]);
        b.channel(x, y, [1], [1], 0).unwrap();
        b.channel(y, x, [1], [1], 0).unwrap();
        let g = b.build().unwrap();
        assert!(matches!(throughput(&g), Err(SdfError::Deadlock { .. })));
    }

    #[test]
    fn inconsistent_csdf_detected() {
        let mut b = CsdfGraph::builder("bad");
        let x = b.actor("x", [1]);
        let y = b.actor("y", [1]);
        b.channel(x, y, [2], [1], 0).unwrap();
        b.channel(y, x, [1], [1], 4).unwrap();
        let g = b.build().unwrap();
        assert!(matches!(
            repetition_vector(&g),
            Err(SdfError::Inconsistent { .. })
        ));
    }

    #[test]
    fn zero_rate_phases_move_no_stamps() {
        // A phase producing zero tokens must not enqueue empty runs.
        let g = two_phase();
        let sym = symbolic_iteration(&g).unwrap();
        // 4 credits + 2 serialization tokens.
        assert_eq!(sym.matrix.num_rows(), 6);
        assert_eq!(sym.tokens.len(), 6);
        assert!(sym.matrix.eigenvalue().unwrap().is_some());
    }

    #[test]
    fn caps_bound_tokens_and_phase_firings() {
        use sdfr_graph::budget::BudgetResource::{Firings, Size};
        // 6 initial tokens, 4 phase firings per iteration.
        let g = two_phase();
        let run = |budget: Budget| symbolic_iteration_capped(&g, &budget);
        let too_small = [
            (Budget::unlimited().with_max_size(5), Size),
            (Budget::unlimited().with_max_firings(3), Firings),
        ];
        for (budget, resource) in too_small {
            assert!(
                matches!(run(budget), Err(SdfError::Exhausted { resource: r, .. }) if r == resource)
            );
        }
        let sym = run(Budget::unlimited().with_max_size(6).with_max_firings(4)).unwrap();
        assert_eq!(sym.matrix, symbolic_iteration(&g).unwrap().matrix);
    }

    #[test]
    fn stamp_overflow_is_an_error() {
        // Two phases of 2^62 on a one-token self-loop: the second phase's
        // end stamp is 2^63, one past the time range.
        let mut b = CsdfGraph::builder("w");
        let w = b.actor("w", [1 << 62, 1 << 62]);
        b.channel(w, w, [1, 1], [1, 1], 1).unwrap();
        let g = b.build().unwrap();
        assert!(matches!(
            symbolic_iteration(&g),
            Err(SdfError::Overflow { .. })
        ));
    }

    #[test]
    fn period_matches_hand_computation() {
        // Serialized two-phase worker: phases 1 and 3 alternate on a
        // one-token self-loop: period per cycle = 4, one cycle per
        // iteration.
        let mut b = CsdfGraph::builder("w");
        let w = b.actor("w", [1, 3]);
        b.channel(w, w, [1, 1], [1, 1], 1).unwrap();
        let g = b.build().unwrap();
        let thr = throughput(&g).unwrap();
        assert_eq!(thr.period, Some(Rational::from(4)));
    }
}
