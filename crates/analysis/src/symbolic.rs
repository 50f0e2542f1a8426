//! Symbolic max-plus execution of one SDF graph iteration.
//!
//! This is Algorithm 1 (lines 1–11) of the paper: execute an arbitrary
//! sequential schedule of one iteration, labelling every token with a
//! *symbolic time stamp* — a max-plus vector `ḡ` over the `N` initial tokens
//! meaning `t = max_i (t_i + g_i)`. When the iteration completes, the tokens
//! are back in their initial positions and their stamps form the `N×N`
//! max-plus matrix `A` of the graph: `x' = A ⊗ x`.
//!
//! Because SDF execution is determinate, the resulting matrix does not
//! depend on the particular sequential schedule.

use std::collections::HashMap;
use std::sync::Arc;

use sdfr_graph::repetition::RepetitionVector;
use sdfr_graph::{ChannelId, SdfError, SdfGraph};
use sdfr_maxplus::{MpMatrix, MpVector};

use crate::engine::SymbolicEngine;
use crate::session::AnalysisSession;

/// Identifies one initial token: the `position`-th token (FIFO order, 0 is
/// the head) on `channel`.
///
/// The global token index used by [`SymbolicIteration`] enumerates channels
/// in id order and positions within each channel in FIFO order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TokenRef {
    /// The channel holding the token.
    pub channel: ChannelId,
    /// FIFO position among the channel's initial tokens (0 = oldest).
    pub position: u64,
}

/// The result of symbolically executing one iteration of an SDF graph.
#[derive(Debug, Clone)]
pub struct SymbolicIteration {
    /// The `N×N` max-plus matrix: row `k` holds the symbolic time stamp of
    /// final token `k` in terms of the initial tokens.
    pub matrix: MpMatrix,
    /// Location of token `k` (identical before and after the iteration).
    pub tokens: Vec<TokenRef>,
    /// The repetition vector used for the iteration.
    pub gamma: RepetitionVector,
    /// Per-actor symbolic `(start, end)` stamps of every firing in the
    /// iteration, indexed `[actor][firing]`; recorded when requested via
    /// [`symbolic_iteration_with_stamps`].
    pub firing_stamps: Option<Vec<Vec<(MpVector, MpVector)>>>,
    /// Reverse map of `tokens`, built once at construction so that
    /// [`token_index`](Self::token_index) is O(1) — the bottleneck and
    /// observer paths look up many tokens against large matrices.
    token_lookup: HashMap<TokenRef, usize>,
}

impl SymbolicIteration {
    /// The number of initial tokens `N` (the matrix dimension).
    pub fn num_tokens(&self) -> usize {
        self.tokens.len()
    }

    /// The global index of the token at `reference`, if it exists. O(1).
    pub fn token_index(&self, reference: TokenRef) -> Option<usize> {
        self.token_lookup.get(&reference).copied()
    }

    /// Assembles an iteration result from its parts, building the O(1)
    /// token-lookup map. Used by [`crate::engine::SymbolicEngine::finish`].
    pub(crate) fn from_parts(
        matrix: MpMatrix,
        tokens: Vec<TokenRef>,
        gamma: RepetitionVector,
        firing_stamps: Option<Vec<Vec<(MpVector, MpVector)>>>,
    ) -> Self {
        let token_lookup = tokens
            .iter()
            .enumerate()
            .map(|(idx, t)| (*t, idx))
            .collect();
        SymbolicIteration {
            matrix,
            tokens,
            gamma,
            firing_stamps,
            token_lookup,
        }
    }
}

/// Symbolically executes one iteration of `g` and returns its max-plus
/// matrix (Algorithm 1, lines 1–11).
///
/// The execution fires `Σγ(a)` actors — potentially exponential in the
/// graph description (paper, Sec. 2) — and builds an `N×N` matrix over the
/// `N` initial tokens. This form runs uncapped; to bound either with a
/// [`Budget`](sdfr_graph::budget::Budget), use
/// [`AnalysisSession::symbolic`] on
/// [`AnalysisSession::with_budget`].
///
/// # Errors
///
/// - [`SdfError::Inconsistent`] if `g` has no repetition vector,
/// - [`SdfError::Deadlock`] if no sequential schedule exists,
/// - [`SdfError::Overflow`] if time stamps exceed the integer range.
///
/// # Example
///
/// ```
/// use sdfr_analysis::symbolic::symbolic_iteration;
/// use sdfr_graph::SdfGraph;
/// use sdfr_maxplus::Rational;
///
/// // The example of the paper's Fig. 3: left actor fires twice (3 time
/// // units each), right actor once (1 time unit), 4 initial tokens.
/// let mut b = SdfGraph::builder("fig3");
/// let l = b.actor("left", 3);
/// let r = b.actor("right", 1);
/// b.channel(l, r, 1, 2, 0)?;   // forward, no tokens
/// b.channel(r, l, 2, 1, 2)?;   // tokens t1, t3
/// b.channel(l, l, 1, 1, 1)?;   // self token t2-like
/// b.channel(r, r, 1, 1, 1)?;   // self token t4-like
/// let g = b.build()?;
///
/// let sym = symbolic_iteration(&g)?;
/// assert_eq!(sym.num_tokens(), 4);
/// assert!(sym.matrix.eigenvalue()?.is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn symbolic_iteration(g: &SdfGraph) -> Result<SymbolicIteration, SdfError> {
    cold_iteration(g, false)
}

/// Like [`symbolic_iteration`], additionally recording the symbolic
/// `(start, end)` stamp of every firing.
///
/// The extra stamps cost `O(Σγ(a) · N)` memory; use only when the firing
/// stamps are needed (e.g. to wire an observed output actor into the novel
/// HSDF conversion).
///
/// The capped form is [`AnalysisSession::symbolic_with_stamps`].
///
/// # Errors
///
/// See [`symbolic_iteration`].
pub fn symbolic_iteration_with_stamps(g: &SdfGraph) -> Result<SymbolicIteration, SdfError> {
    cold_iteration(g, true)
}

/// The uncapped iteration: the session's γ → size cap → schedule sequence
/// on a throwaway session, finished by a plain cold engine that records no
/// checkpoints and leaves no archive.
fn cold_iteration(g: &SdfGraph, record_stamps: bool) -> Result<SymbolicIteration, SdfError> {
    let session = AnalysisSession::new(g.clone());
    session.run_symbolic(|gamma, schedule, meter| {
        let mut engine =
            SymbolicEngine::new(Arc::clone(session.graph()), gamma, record_stamps, meter)?;
        engine.run_scheduled(schedule, meter)?;
        Ok(engine.finish())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfr_graph::budget::Budget;
    use sdfr_maxplus::{Mp, Rational};

    /// The running example of the paper's Fig. 3: two actors, the left one
    /// (execution time 3) fires twice, the right one (time 1) fires once.
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
    fn token_enumeration_is_stable() {
        let g = fig3();
        let sym = symbolic_iteration(&g).unwrap();
        assert_eq!(sym.num_tokens(), 4);
        // Channel 1 holds tokens 0 and 1; channels 2 and 3 one each.
        assert_eq!(sym.tokens[0].channel.index(), 1);
        assert_eq!(sym.tokens[0].position, 0);
        assert_eq!(sym.tokens[1].position, 1);
        assert_eq!(sym.tokens[2].channel.index(), 2);
        assert_eq!(sym.tokens[3].channel.index(), 3);
        assert_eq!(
            sym.token_index(TokenRef {
                channel: sym.tokens[1].channel,
                position: 1
            }),
            Some(1)
        );
    }

    #[test]
    fn matrix_is_square_of_token_count() {
        let g = fig3();
        let sym = symbolic_iteration(&g).unwrap();
        assert_eq!(sym.matrix.num_rows(), 4);
        assert_eq!(sym.matrix.num_cols(), 4);
    }

    #[test]
    fn eigenvalue_matches_simulated_period() {
        let g = fig3();
        let sym = symbolic_iteration(&g).unwrap();
        let lambda = sym.matrix.eigenvalue().unwrap().unwrap();
        // Simulate many iterations; the long-run completion-time slope must
        // equal the eigenvalue.
        let trace = sdfr_graph::execution::simulate_iterations(&g, 40).unwrap();
        let t0 = trace.iteration_completions[19];
        let t1 = trace.iteration_completions[39];
        assert_eq!(Rational::new(t1 - t0, 20), lambda);
    }

    #[test]
    fn simple_cycle_matrix_entries() {
        // x -> y -> x with one token on y->x: after one iteration the token's
        // stamp is t + T(x) + T(y).
        let mut b = SdfGraph::builder("c");
        let x = b.actor("x", 2);
        let y = b.actor("y", 3);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 1).unwrap();
        let g = b.build().unwrap();
        let sym = symbolic_iteration(&g).unwrap();
        assert_eq!(sym.matrix.get(0, 0), Mp::fin(5));
    }

    #[test]
    fn source_chain_token_gets_neg_inf_row() {
        // A source actor feeds a cycle-free token position: its stamp does
        // not depend on any initial token of the cycle.
        let mut b = SdfGraph::builder("src");
        let s = b.actor("s", 7);
        let t = b.actor("t", 1);
        b.channel(s, t, 1, 1, 0).unwrap();
        b.channel(t, t, 1, 1, 1).unwrap(); // self-loop token 0
        let g = b.build().unwrap();
        let sym = symbolic_iteration(&g).unwrap();
        assert_eq!(sym.num_tokens(), 1);
        // Token 0 is consumed by t together with the source token; the
        // source contributes no dependency, so the row is [T(t) + 0] from
        // the self-loop only.
        assert_eq!(sym.matrix.get(0, 0), Mp::fin(1));
    }

    #[test]
    fn tokenless_graph_yields_empty_matrix() {
        let mut b = SdfGraph::builder("acyclic");
        let s = b.actor("s", 1);
        let t = b.actor("t", 1);
        b.channel(s, t, 1, 1, 0).unwrap();
        let g = b.build().unwrap();
        let sym = symbolic_iteration(&g).unwrap();
        assert_eq!(sym.num_tokens(), 0);
        assert_eq!(sym.matrix.num_rows(), 0);
        assert_eq!(sym.matrix.eigenvalue(), Ok(None));
    }

    #[test]
    fn firing_stamps_recorded_on_request() {
        let g = fig3();
        let sym = symbolic_iteration(&g).unwrap();
        assert!(sym.firing_stamps.is_none());
        let sym = symbolic_iteration_with_stamps(&g).unwrap();
        let stamps = sym.firing_stamps.as_ref().unwrap();
        let l = g.actor_by_name("left").unwrap();
        let r = g.actor_by_name("right").unwrap();
        assert_eq!(stamps[l.index()].len(), 2);
        assert_eq!(stamps[r.index()].len(), 1);
        // Every end stamp is the start stamp shifted by the execution time.
        for (aid, per_actor) in stamps.iter().enumerate() {
            let t = g
                .actor(sdfr_graph::ActorId::from_index(aid))
                .execution_time();
            for (start, end) in per_actor {
                assert_eq!(&start.shift(t), end);
            }
        }
    }

    #[test]
    fn multirate_fifo_order_respected() {
        // Producer emits 2 tokens per firing consumed one at a time; the
        // stamps seen by consecutive consumer firings must be FIFO-ordered.
        let mut b = SdfGraph::builder("fifo");
        let p = b.actor("p", 1);
        let c = b.actor("c", 1);
        b.channel(p, c, 2, 1, 0).unwrap();
        b.channel(c, p, 1, 2, 4).unwrap();
        let g = b.build().unwrap();
        let sym = symbolic_iteration(&g).unwrap();
        assert_eq!(sym.num_tokens(), 4);
        let lambda = sym.matrix.eigenvalue().unwrap().unwrap();
        // One iteration: p fires once, c twice; cross-check via simulation.
        let trace = sdfr_graph::execution::simulate_iterations(&g, 30).unwrap();
        let t0 = trace.iteration_completions[9];
        let t1 = trace.iteration_completions[29];
        assert_eq!(Rational::new(t1 - t0, 20), lambda);
    }

    #[test]
    fn budget_caps_symbolic_firings() {
        let g = fig3(); // 3 firings per iteration
        let b = Budget::unlimited().with_max_firings(2);
        match AnalysisSession::with_budget(g.clone(), b).symbolic() {
            // The schedule precheck rejects the 3-firing iteration before
            // any work is done, so nothing has been spent yet.
            Err(SdfError::Exhausted { limit: 2, .. }) => {}
            other => panic!("expected Exhausted, got {other:?}"),
        }
        let b = Budget::unlimited().with_max_firings(100);
        assert!(AnalysisSession::with_budget(g.clone(), b)
            .symbolic()
            .is_ok());
    }

    #[test]
    fn size_cap_bounds_matrix_dimension() {
        let g = fig3(); // 4 initial tokens => 4x4 matrix
        let b = Budget::unlimited().with_max_size(3);
        assert!(matches!(
            AnalysisSession::with_budget(g.clone(), b).symbolic(),
            Err(SdfError::Exhausted { .. })
        ));
        let b = Budget::unlimited().with_max_size(4);
        assert!(AnalysisSession::with_budget(g.clone(), b)
            .symbolic()
            .is_ok());
    }

    #[test]
    fn huge_execution_times_overflow_cleanly() {
        // x -> y -> x cycle: the second firing shifts an already-huge stamp.
        let mut b = SdfGraph::builder("big");
        let x = b.actor("x", i64::MAX / 2 + 1);
        let y = b.actor("y", i64::MAX / 2 + 1);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 1).unwrap();
        let g = b.build().unwrap();
        assert!(matches!(
            symbolic_iteration(&g),
            Err(SdfError::Overflow { .. })
        ));
    }

    #[test]
    fn deadlocked_graph_errors() {
        let mut b = SdfGraph::builder("dead");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 0).unwrap();
        let g = b.build().unwrap();
        assert!(matches!(
            symbolic_iteration(&g),
            Err(SdfError::Deadlock { .. })
        ));
    }

    #[test]
    fn matrix_independent_of_schedule_determinacy() {
        // Build a diamond where several schedules exist; the matrix from our
        // greedy schedule must equal the matrix from simulating the graph's
        // recurrence (checked via eigenvalue and one application).
        let mut b = SdfGraph::builder("diamond");
        let s = b.actor("s", 1);
        let u = b.actor("u", 2);
        let v = b.actor("v", 3);
        let t = b.actor("t", 1);
        b.channel(s, u, 1, 1, 0).unwrap();
        b.channel(s, v, 1, 1, 0).unwrap();
        b.channel(u, t, 1, 1, 0).unwrap();
        b.channel(v, t, 1, 1, 0).unwrap();
        b.channel(t, s, 1, 1, 1).unwrap();
        let g = b.build().unwrap();
        let sym = symbolic_iteration(&g).unwrap();
        // Critical path s -> v -> t: 1 + 3 + 1 = 5.
        assert_eq!(sym.matrix.get(0, 0), Mp::fin(5));
    }
}
