//! Periodic admissible sequential schedules (PASS).
//!
//! A consistent SDF graph is deadlock-free iff one full iteration (every
//! actor `a` fired `γ(a)` times) can be executed sequentially from the
//! initial token distribution (Lee & Messerschmitt's class-S algorithm).
//! The paper's Algorithm 1 executes such a schedule symbolically, and any
//! valid sequential schedule yields the same max-plus matrix because SDF
//! execution is determinate.

use crate::budget::{Budget, BudgetMeter};
use crate::repetition::RepetitionVector;
use crate::{ActorId, SdfError, SdfGraph};

/// A sequential schedule for one iteration of an SDF graph: a sequence of
/// actor firings that is admissible (every firing is enabled when reached)
/// and fires each actor `a` exactly `γ(a)` times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    firings: Vec<ActorId>,
}

impl Schedule {
    /// The firings in order.
    pub fn firings(&self) -> &[ActorId] {
        &self.firings
    }

    /// The number of firings (the iteration length).
    pub fn len(&self) -> usize {
        self.firings.len()
    }

    /// Returns `true` if the schedule has no firings (empty graph).
    pub fn is_empty(&self) -> bool {
        self.firings.is_empty()
    }

    /// Counts the firings of each actor; index by [`ActorId::index`].
    pub fn fire_counts(&self, num_actors: usize) -> Vec<u64> {
        let mut counts = vec![0u64; num_actors];
        for a in &self.firings {
            counts[a.index()] += 1;
        }
        counts
    }
}

/// Constructs a periodic admissible sequential schedule for one iteration.
///
/// The schedule greedily fires maximal batches of enabled actors until every
/// actor `a` has fired `γ(a)` times.
///
/// # Errors
///
/// Returns [`SdfError::Deadlock`] if no complete iteration can be executed
/// (the graph is not live).
///
/// # Example
///
/// ```
/// use sdfr_graph::SdfGraph;
/// use sdfr_graph::repetition::repetition_vector;
/// use sdfr_graph::schedule::sequential_schedule;
///
/// let mut b = SdfGraph::builder("g");
/// let x = b.actor("x", 1);
/// let y = b.actor("y", 1);
/// b.channel(x, y, 1, 2, 0)?;
/// let g = b.build()?;
/// let gamma = repetition_vector(&g)?;
/// let s = sequential_schedule(&g, &gamma)?;
/// assert_eq!(s.len(), 3); // x, x, y
/// # Ok::<(), sdfr_graph::SdfError>(())
/// ```
pub fn sequential_schedule(g: &SdfGraph, gamma: &RepetitionVector) -> Result<Schedule, SdfError> {
    sequential_schedule_metered(g, gamma, &mut Budget::unlimited().meter())
}

/// Upper bound on firings scheduled between budget checks. Splitting large
/// batches keeps deadline polling responsive and bounds the memory committed
/// past an expired budget; it does not change the resulting schedule beyond
/// batch granularity (any interleaving of maximal batches is admissible).
const BATCH_CHUNK: u64 = 1 << 16;

/// [`sequential_schedule`] charging an existing [`BudgetMeter`]; composite
/// analyses use this to account schedule construction and later phases
/// against one cumulative budget. For a single capped run, pass a fresh
/// [`Budget::meter`].
///
/// The iteration length `Σγ(a)` can be exponential in the graph description
/// (paper, Sec. 2); the firing cap is checked *before* the schedule buffer
/// is allocated, so a pathological graph fails fast instead of exhausting
/// memory.
///
/// # Errors
///
/// As [`sequential_schedule`], plus [`SdfError::Exhausted`] when the budget
/// runs out.
pub fn sequential_schedule_metered(
    g: &SdfGraph,
    gamma: &RepetitionVector,
    meter: &mut BudgetMeter<'_>,
) -> Result<Schedule, SdfError> {
    let n = g.num_actors();
    let mut tokens: Vec<u64> = g.channels().map(|(_, c)| c.initial_tokens()).collect();
    let mut remaining: Vec<u64> = (0..n).map(|i| gamma.get(ActorId::from_index(i))).collect();
    let needed = remaining
        .iter()
        .try_fold(0u64, |s, &r| s.checked_add(r))
        .ok_or(SdfError::Overflow {
            what: "iteration length (sum of repetition vector)",
        })?;
    meter.precheck(needed)?;
    let mut fired: u64 = 0;
    let mut firings = Vec::with_capacity(needed.min(BATCH_CHUNK) as usize);

    loop {
        let mut progress = false;
        for a in g.actor_ids() {
            let rem = remaining[a.index()];
            if rem == 0 {
                continue;
            }
            // The largest admissible sequential batch of firings of `a`: in
            // a *sequential* schedule each firing completes (produces) before
            // the next starts, so a consistent self-loop (p == c) only needs
            // tokens >= c once, while an ordinary input needs k*c tokens for
            // k firings.
            let mut batch = rem.min(BATCH_CHUNK);
            for &cid in g.incoming(a) {
                let ch = g.channel(cid);
                let avail = tokens[cid.index()];
                batch = if ch.is_self_loop() {
                    if avail >= ch.consumption() {
                        batch
                    } else {
                        0
                    }
                } else {
                    batch.min(avail / ch.consumption())
                };
                if batch == 0 {
                    break;
                }
            }
            if batch == 0 {
                continue;
            }
            for &cid in g.incoming(a) {
                let ch = g.channel(cid);
                if !ch.is_self_loop() {
                    tokens[cid.index()] -= batch * ch.consumption();
                }
            }
            for &cid in g.outgoing(a) {
                let ch = g.channel(cid);
                if !ch.is_self_loop() {
                    tokens[cid.index()] = tokens[cid.index()]
                        .checked_add(batch * ch.production())
                        .ok_or(SdfError::Overflow {
                            what: "token count during scheduling",
                        })?;
                }
            }
            remaining[a.index()] -= batch;
            fired += batch;
            meter.spend(batch)?;
            firings.extend(std::iter::repeat_n(a, batch as usize));
            progress = true;
        }
        if remaining.iter().all(|&r| r == 0) {
            return Ok(Schedule { firings });
        }
        if !progress {
            return Err(SdfError::Deadlock { fired, needed });
        }
    }
}

/// Checks that `schedule` is admissible for `g` and fires each actor exactly
/// its repetition-vector count, returning the final check result.
///
/// Used by tests and as a debugging aid.
pub fn is_valid_schedule(g: &SdfGraph, gamma: &RepetitionVector, schedule: &Schedule) -> bool {
    let mut tokens: Vec<i128> = g
        .channels()
        .map(|(_, c)| c.initial_tokens() as i128)
        .collect();
    for &a in schedule.firings() {
        for &cid in g.incoming(a) {
            let ch = g.channel(cid);
            tokens[cid.index()] -= ch.consumption() as i128;
        }
        for &cid in g.outgoing(a) {
            let ch = g.channel(cid);
            tokens[cid.index()] += ch.production() as i128;
        }
        if tokens.iter().any(|&t| t < 0) {
            return false;
        }
    }
    // Exactly gamma firings per actor, and tokens returned to initial state.
    let counts = schedule.fire_counts(g.num_actors());
    counts
        .iter()
        .enumerate()
        .all(|(i, &c)| c == gamma.get(ActorId::from_index(i)))
        && g.channels()
            .all(|(cid, c)| tokens[cid.index()] == c.initial_tokens() as i128)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repetition::repetition_vector;

    fn schedule_of(g: &SdfGraph) -> Result<Schedule, SdfError> {
        let gamma = repetition_vector(g)?;
        sequential_schedule(g, &gamma)
    }

    #[test]
    fn chain_schedule() {
        let mut b = SdfGraph::builder("chain");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        let z = b.actor("z", 1);
        b.channel(x, y, 2, 1, 0).unwrap();
        b.channel(y, z, 1, 2, 0).unwrap();
        let g = b.build().unwrap();
        let gamma = repetition_vector(&g).unwrap();
        let s = sequential_schedule(&g, &gamma).unwrap();
        assert_eq!(s.len(), 4); // γ = (1, 2, 1)
        assert!(is_valid_schedule(&g, &gamma, &s));
        assert_eq!(s.fire_counts(3), vec![1, 2, 1]);
    }

    #[test]
    fn deadlocked_cycle_detected() {
        // Token-free cycle: nothing can ever fire.
        let mut b = SdfGraph::builder("dead");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 0).unwrap();
        let g = b.build().unwrap();
        match schedule_of(&g) {
            Err(SdfError::Deadlock {
                fired: 0,
                needed: 2,
            }) => {}
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn partially_progressing_deadlock() {
        // x can fire once, then the cycle starves.
        let mut b = SdfGraph::builder("dead2");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 1, 2, 0).unwrap();
        b.channel(y, x, 2, 1, 1).unwrap();
        let g = b.build().unwrap();
        match schedule_of(&g) {
            Err(SdfError::Deadlock { fired, needed }) => {
                assert_eq!(fired, 1);
                assert_eq!(needed, 3);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn cycle_with_enough_tokens_is_live() {
        let mut b = SdfGraph::builder("live");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 1, 2, 1).unwrap();
        b.channel(y, x, 2, 1, 1).unwrap();
        let g = b.build().unwrap();
        let gamma = repetition_vector(&g).unwrap();
        let s = sequential_schedule(&g, &gamma).unwrap();
        assert!(is_valid_schedule(&g, &gamma, &s));
    }

    #[test]
    fn self_loop_serializes_but_completes() {
        let mut b = SdfGraph::builder("sl");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 1, 3, 0).unwrap();
        b.channel(x, x, 1, 1, 1).unwrap();
        let g = b.build().unwrap();
        let gamma = repetition_vector(&g).unwrap();
        assert_eq!(gamma[x], 3);
        let s = sequential_schedule(&g, &gamma).unwrap();
        assert!(is_valid_schedule(&g, &gamma, &s));
    }

    #[test]
    fn tokenless_self_loop_deadlocks() {
        let mut b = SdfGraph::builder("sl0");
        let x = b.actor("x", 1);
        b.channel(x, x, 1, 1, 0).unwrap();
        let g = b.build().unwrap();
        assert!(matches!(schedule_of(&g), Err(SdfError::Deadlock { .. })));
    }

    #[test]
    fn cd2dat_schedule_length() {
        let mut b = SdfGraph::builder("cd2dat");
        let ids: Vec<_> = (0..6).map(|i| b.actor(format!("a{i}"), 1)).collect();
        let rates = [(1, 1), (2, 3), (2, 7), (8, 7), (5, 1)];
        for (i, (p, c)) in rates.iter().enumerate() {
            b.channel(ids[i], ids[i + 1], *p, *c, 0).unwrap();
        }
        let g = b.build().unwrap();
        let gamma = repetition_vector(&g).unwrap();
        let s = sequential_schedule(&g, &gamma).unwrap();
        assert_eq!(s.len(), 612);
        assert!(is_valid_schedule(&g, &gamma, &s));
    }

    #[test]
    fn empty_graph_has_empty_schedule() {
        let g = SdfGraph::builder("e").build().unwrap();
        let gamma = repetition_vector(&g).unwrap();
        let s = sequential_schedule(&g, &gamma).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn invalid_schedule_rejected_by_checker() {
        let mut b = SdfGraph::builder("g");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 1, 1, 0).unwrap();
        let g = b.build().unwrap();
        let gamma = repetition_vector(&g).unwrap();
        // y before x is not admissible.
        let bad = Schedule {
            firings: vec![y, x],
        };
        assert!(!is_valid_schedule(&g, &gamma, &bad));
        // Wrong multiplicity.
        let bad = Schedule {
            firings: vec![x, x],
        };
        assert!(!is_valid_schedule(&g, &gamma, &bad));
    }
}
