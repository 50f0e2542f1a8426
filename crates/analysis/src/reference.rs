//! Checked reference implementation of Algorithm 1 — the kernel oracle.
//!
//! [`crate::engine`] runs the symbolic iteration on the branch-free flat
//! kernel ([`sdfr_maxplus::flat`]). This module keeps the *original*
//! datapath alive — run-length queues of [`MpVector`] stamps, allocating
//! [`MpVector::join`], per-element [`MpVector::checked_shift`] — as an
//! independently simple oracle:
//!
//! - the differential suites (`kernel_props`, `engine` tests) assert the
//!   production engine's matrix equals this one's, element for element, and
//!   that both fail with the same [`SdfError::Overflow`] on the same inputs;
//! - `kernel_bench` times it as the pre-flat baseline the measured kernel
//!   speedup is honest against.
//!
//! Correctness over speed: this code favours the obvious transcription of
//! the paper's Algorithm 1 and performs no scratch reuse, coalescing-free
//! shortcuts, or sentinel tricks.

use std::collections::VecDeque;
use std::sync::Arc;

use sdfr_graph::budget::Budget;
use sdfr_graph::repetition::repetition_vector;
use sdfr_graph::schedule::sequential_schedule_metered;
use sdfr_graph::{SdfError, SdfGraph};
use sdfr_maxplus::{MpMatrix, MpVector};

use crate::symbolic::{SymbolicIteration, TokenRef};

/// Symbolically executes one iteration of `g` with the checked [`MpVector`]
/// arithmetic and returns the same [`SymbolicIteration`] the production
/// engine produces.
///
/// # Errors
///
/// - [`SdfError::Inconsistent`] if `g` has no repetition vector,
/// - [`SdfError::Deadlock`] if no sequential schedule exists,
/// - [`SdfError::Overflow`] if a stamp shift leaves the integer range —
///   detected by [`MpVector::checked_shift`] on exactly the firing where
///   the flat kernel's hoisted bound check reports it.
pub fn symbolic_iteration_reference(g: &SdfGraph) -> Result<SymbolicIteration, SdfError> {
    let gamma = repetition_vector(g)?;
    let budget = Budget::unlimited();
    let mut meter = budget.meter();
    let schedule = sequential_schedule_metered(g, &gamma, &mut meter)?;

    // Token enumeration: channels in id order, FIFO position within —
    // identical to the engine's.
    let mut tokens = Vec::new();
    let mut avail = Vec::with_capacity(g.num_channels());
    for (cid, ch) in g.channels() {
        avail.push(ch.initial_tokens());
        for position in 0..ch.initial_tokens() {
            tokens.push(TokenRef {
                channel: cid,
                position,
            });
        }
    }
    let n = tokens.len();
    let mut queues: Vec<VecDeque<(MpVector, u64)>> =
        (0..g.num_channels()).map(|_| VecDeque::new()).collect();
    for (idx, t) in tokens.iter().enumerate() {
        queues[t.channel.index()].push_back((MpVector::unit(n, idx), 1));
    }

    for &actor in schedule.firings() {
        let mut start = MpVector::neg_inf(n);
        for &cid in g.incoming(actor) {
            let ch = g.channel(cid);
            let mut need = ch.consumption();
            while need > 0 {
                let (stamp, count) = queues[cid.index()]
                    .front_mut()
                    .expect("sequential schedule guarantees token availability");
                start = start.join(stamp).expect("stamps share length N");
                if *count > need {
                    *count -= need;
                    need = 0;
                } else {
                    need -= *count;
                    queues[cid.index()].pop_front();
                }
            }
            avail[cid.index()] -= ch.consumption();
        }
        let end =
            start
                .checked_shift(g.actor(actor).execution_time())
                .ok_or(SdfError::Overflow {
                    what: "symbolic time stamp (accumulated execution times)",
                })?;
        for &cid in g.outgoing(actor) {
            let ch = g.channel(cid);
            let q = &mut queues[cid.index()];
            match q.back_mut() {
                Some((stamp, count)) if *stamp == end => *count += ch.production(),
                _ => q.push_back((end.clone(), ch.production())),
            }
            avail[cid.index()] =
                avail[cid.index()]
                    .checked_add(ch.production())
                    .ok_or(SdfError::Overflow {
                        what: "token count during symbolic execution",
                    })?;
        }
    }

    let mut rows: Vec<MpVector> = Vec::with_capacity(n);
    for t in &tokens {
        let q = &queues[t.channel.index()];
        let mut pos = t.position;
        let mut found = None;
        for (stamp, count) in q {
            if pos < *count {
                found = Some(stamp.clone());
                break;
            }
            pos -= count;
        }
        rows.push(found.expect("iteration restores the token distribution"));
    }
    let matrix = MpMatrix::from_row_vectors(rows).expect("rows share length N");
    Ok(SymbolicIteration::from_parts(matrix, tokens, gamma, None))
}

/// The reference throughput: the eigenvalue of the reference matrix.
///
/// # Errors
///
/// See [`symbolic_iteration_reference`]; [`SdfError::Overflow`] when the
/// period does not fit `i64`.
pub fn reference_period(g: &SdfGraph) -> Result<Option<sdfr_maxplus::Rational>, SdfError> {
    symbolic_iteration_reference(g)?
        .matrix
        .eigenvalue()
        .map_err(SdfError::cycle_ratio_overflow)
}

/// Convenience wrapper: reference iteration of an `Arc`'d graph.
///
/// # Errors
///
/// See [`symbolic_iteration_reference`].
pub fn symbolic_iteration_reference_arc(g: &Arc<SdfGraph>) -> Result<SymbolicIteration, SdfError> {
    symbolic_iteration_reference(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::symbolic_iteration;

    fn fig3() -> SdfGraph {
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
    fn reference_matches_production_engine() {
        let g = fig3();
        let reference = symbolic_iteration_reference(&g).unwrap();
        let production = symbolic_iteration(&g).unwrap();
        assert_eq!(reference.matrix, production.matrix);
        assert_eq!(reference.tokens, production.tokens);
        assert_eq!(
            reference.matrix.eigenvalue(),
            production.matrix.eigenvalue()
        );
    }

    #[test]
    fn reference_overflows_where_production_does() {
        let mut b = SdfGraph::builder("big");
        let x = b.actor("x", i64::MAX / 2 + 1);
        let y = b.actor("y", i64::MAX / 2 + 1);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 1).unwrap();
        let g = b.build().unwrap();
        let r = symbolic_iteration_reference(&g).unwrap_err();
        let p = symbolic_iteration(&g).unwrap_err();
        assert_eq!(format!("{r:?}"), format!("{p:?}"));
        assert!(matches!(r, SdfError::Overflow { .. }));
    }
}
