//! The novel compact SDF→HSDF conversion (paper, Sec. 6, Alg. 1, Fig. 4).
//!
//! From the max-plus matrix `A` of one symbolic iteration
//! ([`sdfr_analysis::symbolic`]), build an HSDF graph over the `N` initial
//! tokens rather than over the `Σγ` firings:
//!
//! - for every finite entry `A[k][j]` a *coefficient actor* `m_{j,k}` with
//!   execution time `A[k][j]`, enforcing the minimum distance from the
//!   previous value of token `j` to the next value of token `k`;
//! - a *demultiplexor* `d_j` (execution time 0) fanning token `j` out to its
//!   coefficient actors — elided when the token has at most one consumer
//!   (the gray actors of Fig. 4);
//! - a *multiplexor* `u_k` (execution time 0) synchronising the coefficient
//!   actors producing token `k` — likewise elided for a single producer;
//! - one initial token per recirculation edge, closing the loop from the
//!   producer side of token `k` back to its consumer side.
//!
//! The result has at most `N(N+2)` actors, `N(2N+1)` edges and `N` tokens,
//! and its iteration period (maximum cycle ratio) equals the original
//! graph's — it is *throughput-equivalent* rather than firing-for-firing
//! equivalent like the traditional conversion. Specific firings of interest
//! (e.g. an output actor) can be re-attached with
//! [`convert_with_observers`].

use sdfr_analysis::symbolic::{symbolic_iteration, SymbolicIteration};
use sdfr_analysis::AnalysisSession;
use sdfr_graph::{ActorId, SdfError, SdfGraph};
use sdfr_maxplus::{Mp, MpMatrix};

/// Statistics of a conversion, for Table-1 style reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConversionStats {
    /// Number of actors of the produced HSDF graph.
    pub actors: usize,
    /// Number of channels.
    pub channels: usize,
    /// Number of initial tokens.
    pub tokens: u64,
}

/// The result of the novel conversion.
#[derive(Debug, Clone)]
pub struct NovelConversion {
    /// The homogeneous graph.
    pub graph: SdfGraph,
    /// The symbolic iteration (matrix and token table) it was built from.
    pub symbolic: SymbolicIteration,
    /// For every token `k`: the HSDF actors observing the original actor
    /// firings requested via [`convert_with_observers`], by
    /// `(original actor, firing index)`.
    pub observers: Vec<(ActorId, u64, ActorId)>,
}

impl NovelConversion {
    /// Size statistics of the produced graph.
    pub fn stats(&self) -> ConversionStats {
        ConversionStats {
            actors: self.graph.num_actors(),
            channels: self.graph.num_channels(),
            tokens: self.graph.total_initial_tokens(),
        }
    }

    /// The paper's worst-case actor bound `N(N+2)` for this instance.
    pub fn actor_bound(&self) -> usize {
        let n = self.symbolic.num_tokens();
        n * (n + 2)
    }

    /// The paper's worst-case edge bound `N(2N+1)` for this instance.
    pub fn edge_bound(&self) -> usize {
        let n = self.symbolic.num_tokens();
        n * (2 * n + 1)
    }
}

/// Converts `g` into a compact throughput-equivalent HSDF graph.
///
/// This form runs uncapped; the capped form is [`convert_with_session`] on
/// [`AnalysisSession::with_budget`].
///
/// # Errors
///
/// - [`SdfError::Inconsistent`] if `g` has no repetition vector,
/// - [`SdfError::Deadlock`] if an iteration cannot execute.
///
/// # Example
///
/// ```
/// use sdfr_core::novel::convert;
/// use sdfr_graph::SdfGraph;
///
/// let mut b = SdfGraph::builder("updown");
/// let x = b.actor("x", 1);
/// let y = b.actor("y", 2);
/// b.channel(x, y, 2, 3, 0)?;
/// b.channel(y, x, 3, 2, 6)?;
/// let g = b.build()?;
/// let conv = convert(&g)?;
/// assert!(conv.graph.is_homogeneous());
/// assert!(conv.graph.num_actors() <= conv.actor_bound());
/// assert!(conv.graph.num_channels() <= conv.edge_bound());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn convert(g: &SdfGraph) -> Result<NovelConversion, SdfError> {
    convert_with_session(&AnalysisSession::new(g.clone()))
}

/// [`convert`] on an [`AnalysisSession`], reusing its cached symbolic
/// iteration (and caching it for later analyses if absent) instead of
/// re-executing the graph.
///
/// Any budget attached to the session applies: the symbolic iteration
/// performs `Σγ(a)` firings (charged against the firing cap and deadline),
/// and the token count `N` — which determines the `O(N²)` output structure
/// — is validated against the size cap before the matrix is built.
///
/// # Errors
///
/// As [`convert`], plus [`SdfError::Exhausted`] when the budget runs out.
pub fn convert_with_session(session: &AnalysisSession) -> Result<NovelConversion, SdfError> {
    let sym = session.symbolic()?.clone();
    Ok(build(session.graph(), sym, &[], true))
}

/// [`convert`] without the mux/demux elision optimization: every token gets
/// both its multiplexor and demultiplexor, as in the unoptimized Fig. 4
/// structure (exactly `2N` (de)mux actors plus one coefficient actor per
/// finite matrix entry, plus sources). Used by the elision ablation bench;
/// the result is throughput-equivalent to [`convert`]'s.
///
/// # Errors
///
/// See [`convert`].
pub fn convert_without_elision(g: &SdfGraph) -> Result<NovelConversion, SdfError> {
    let sym = symbolic_iteration(g)?;
    Ok(build(g, sym, &[], false))
}

/// Converts `g`, additionally wiring one *observer actor* per requested
/// `(actor, firing)` pair: an HSDF actor with the original execution time
/// whose firing times in the converted graph reproduce the corresponding
/// firing of the original graph exactly (paper, Sec. 6: "straightforward to
/// include this information").
///
/// # Errors
///
/// See [`convert`]; additionally returns [`SdfError::UnknownActor`] for an
/// observer actor outside the graph and [`SdfError::FiringOutOfRange`] for
/// a firing index `≥ γ(actor)`.
pub fn convert_with_observers(
    g: &SdfGraph,
    observers: &[(ActorId, u64)],
) -> Result<NovelConversion, SdfError> {
    convert_with_observers_session(&AnalysisSession::new(g.clone()), observers)
}

/// [`convert_with_observers`] on an [`AnalysisSession`], reusing (or
/// caching) its stamp-recording symbolic iteration.
///
/// # Errors
///
/// See [`convert_with_observers`].
pub fn convert_with_observers_session(
    session: &AnalysisSession,
    observers: &[(ActorId, u64)],
) -> Result<NovelConversion, SdfError> {
    let g = session.graph();
    let gamma = session.repetition_vector()?;
    for &(actor, firing) in observers {
        if actor.index() >= g.num_actors() {
            return Err(SdfError::UnknownActor {
                actor,
                num_actors: g.num_actors(),
            });
        }
        let limit = gamma.get(actor);
        if firing >= limit {
            return Err(SdfError::FiringOutOfRange {
                actor,
                firing,
                gamma: limit,
            });
        }
    }
    let sym = session.symbolic_with_stamps()?.clone();
    Ok(build(g, sym, observers, true))
}

fn build(
    g: &SdfGraph,
    sym: SymbolicIteration,
    observers: &[(ActorId, u64)],
    elide: bool,
) -> NovelConversion {
    let a: &MpMatrix = &sym.matrix;
    let n = sym.num_tokens();
    let mut b = SdfGraph::builder(format!("{}^mp-hsdf", g.name()));

    // Fan-out (consumers of token j = finite entries in column j, plus
    // observers) and fan-in (producers of token k = finite entries in row k)
    // determine which (de)multiplexors are needed.
    let mut consumers: Vec<usize> = (0..n).map(|j| a.column(j).finite_count()).collect();
    let producers: Vec<usize> = (0..n).map(|k| a.row(k).finite_count()).collect();
    for &(actor, firing) in observers {
        // Invariant: callers passing observers use the stamp-recording
        // symbolic iteration (convert_with_observers validates indices).
        let stamps = sym
            .firing_stamps
            .as_ref()
            .expect("observer conversion records stamps");
        let (start, _) = &stamps[actor.index()][firing as usize];
        for j in 0..n {
            if start[j].is_finite() {
                consumers[j] += 1;
            }
        }
    }

    // Demultiplexors and multiplexors where fan-out / fan-in exceeds 1
    // (or unconditionally, when elision is disabled for the ablation).
    let need_demux = |j: usize| consumers[j] > 1 || (!elide && consumers[j] > 0);
    let need_mux = |k: usize| producers[k] > 1 || (!elide && producers[k] > 0);
    let demux: Vec<Option<ActorId>> = (0..n)
        .map(|j| need_demux(j).then(|| b.actor(format!("d{j}"), 0)))
        .collect();
    let mux: Vec<Option<ActorId>> = (0..n)
        .map(|k| need_mux(k).then(|| b.actor(format!("u{k}"), 0)))
        .collect();

    // Coefficient actors m_{j,k} for finite A[k][j].
    let mut coeff: Vec<Vec<Option<ActorId>>> = vec![vec![None; n]; n];
    for k in 0..n {
        for (j, row) in coeff.iter_mut().enumerate() {
            if let Mp::Fin(t) = a.get(k, j) {
                row[k] = Some(b.actor(format!("m{j}_{k}"), t));
            }
        }
    }

    // Sources for tokens nobody produces (all-−∞ rows with consumers):
    // their next value has no dependency, modelled by a free-running
    // zero-time source.
    let sources: Vec<Option<ActorId>> = (0..n)
        .map(|k| (producers[k] == 0 && consumers[k] > 0).then(|| b.actor(format!("s{k}"), 0)))
        .collect();

    // Wiring: d_j → m_{j,k} → u_k, with elision of single-purpose (de)muxes.
    for j in 0..n {
        for k in 0..n {
            let Some(m) = coeff[j][k] else { continue };
            if let Some(d) = demux[j] {
                b.homogeneous_channel(d, m, 0).expect("valid ids");
            }
            if let Some(u) = mux[k] {
                b.homogeneous_channel(m, u, 0).expect("valid ids");
            }
        }
    }

    // Recirculation edges carrying the N initial tokens: from the producer
    // side of token k to its consumer side.
    for k in 0..n {
        if consumers[k] == 0 {
            // The token is never consumed; it imposes no constraint.
            continue;
        }
        let producer_side: ActorId = match (mux[k], sources[k]) {
            (Some(u), _) => u,
            (None, Some(s)) => s,
            (None, None) => {
                // Exactly one producer coefficient actor in row k.
                let j = (0..n)
                    .find(|&j| coeff[j][k].is_some())
                    .expect("row k has exactly one finite entry");
                coeff[j][k].expect("just found")
            }
        };
        match demux[k] {
            Some(d) => {
                b.homogeneous_channel(producer_side, d, 1).expect("ids");
            }
            None => {
                // Exactly one consumer: the coefficient actor of column k.
                let kk = (0..n)
                    .find(|&kk| coeff[k][kk].is_some())
                    .expect("column k has exactly one finite entry");
                let m = coeff[k][kk].expect("just found");
                b.homogeneous_channel(producer_side, m, 1).expect("ids");
            }
        }
    }

    // Observer actors: consume (a copy of) every token their firing's start
    // stamp depends on, with the firing's execution time.
    let mut observer_ids = Vec::with_capacity(observers.len());
    for &(actor, firing) in observers {
        // Invariant: same as above — stamps exist whenever observers do.
        let stamps = sym
            .firing_stamps
            .as_ref()
            .expect("observer conversion records stamps");
        let (start, _) = &stamps[actor.index()][firing as usize];
        let name = format!("obs_{}_{}", g.actor(actor).name(), firing);
        let obs = b.actor(name, g.actor(actor).execution_time());
        for j in 0..n {
            if let Mp::Fin(t) = start[j] {
                // The observed firing starts at max_j (x_j + t_j); a
                // zero-time shaper actor delays token j's copy by the
                // coefficient before the observer synchronises on it.
                let feeder = if t == 0 {
                    None
                } else {
                    Some(b.actor(
                        format!("obs_{}_{}_in{}", g.actor(actor).name(), firing, j),
                        t,
                    ))
                };
                let d = demux[j].expect("observer consumers force a demux");
                match feeder {
                    None => {
                        b.homogeneous_channel(d, obs, 0).expect("ids");
                    }
                    Some(f) => {
                        b.homogeneous_channel(d, f, 0).expect("ids");
                        b.homogeneous_channel(f, obs, 0).expect("ids");
                    }
                }
            }
        }
        observer_ids.push((actor, firing, obs));
    }

    NovelConversion {
        graph: b.build().expect("construction is valid"),
        symbolic: sym,
        observers: observer_ids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfr_analysis::throughput::{hsdf_period, throughput};
    use sdfr_graph::budget::Budget;
    use sdfr_graph::execution::{simulate, SimulationOptions};
    use sdfr_maxplus::Rational;

    fn updown() -> SdfGraph {
        let mut b = SdfGraph::builder("updown");
        let x = b.actor("x", 1);
        let y = b.actor("y", 2);
        b.channel(x, y, 2, 3, 0).unwrap();
        b.channel(y, x, 3, 2, 6).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn size_bounds_hold() {
        let g = updown();
        let conv = convert(&g).unwrap();
        let n = conv.symbolic.num_tokens();
        assert_eq!(n, 6);
        assert!(conv.stats().actors <= conv.actor_bound());
        assert!(conv.stats().channels <= conv.edge_bound());
        assert_eq!(conv.stats().tokens, 6);
        assert!(conv.graph.is_homogeneous());
    }

    #[test]
    fn throughput_equivalent_to_original() {
        let g = updown();
        let conv = convert(&g).unwrap();
        assert_eq!(
            hsdf_period(&conv.graph).unwrap().finite(),
            throughput(&g).unwrap().period()
        );
    }

    #[test]
    fn simple_cycle_collapses_to_tiny_graph() {
        // Two actors, one token: N = 1, so the result is a single
        // coefficient actor with a one-token self-loop.
        let mut b = SdfGraph::builder("c");
        let x = b.actor("x", 2);
        let y = b.actor("y", 3);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 1).unwrap();
        let g = b.build().unwrap();
        let conv = convert(&g).unwrap();
        assert_eq!(conv.graph.num_actors(), 1);
        assert_eq!(conv.graph.num_channels(), 1);
        assert_eq!(
            hsdf_period(&conv.graph).unwrap().finite(),
            Some(Rational::new(5, 1))
        );
    }

    #[test]
    fn mux_demux_elision() {
        // A 2-token ring where each token has exactly one producer and one
        // consumer: no muxes or demuxes at all.
        let mut b = SdfGraph::builder("ring2");
        let x = b.actor("x", 2);
        let y = b.actor("y", 3);
        b.channel(x, y, 1, 1, 1).unwrap();
        b.channel(y, x, 1, 1, 1).unwrap();
        let g = b.build().unwrap();
        let conv = convert(&g).unwrap();
        for (_, a) in conv.graph.actors() {
            assert!(
                a.name().starts_with('m'),
                "only coefficient actors expected, found {}",
                a.name()
            );
        }
        assert_eq!(
            hsdf_period(&conv.graph).unwrap().finite(),
            throughput(&g).unwrap().period()
        );
    }

    #[test]
    fn dead_token_dropped() {
        // A token on a channel into a sink that never feeds back: consumed
        // and reproduced... here: a pure source token never consumed again.
        let mut b = SdfGraph::builder("g");
        let s = b.actor("s", 1);
        let t = b.actor("t", 2);
        b.channel(s, t, 1, 1, 0).unwrap();
        b.channel(t, t, 1, 1, 1).unwrap(); // serialize t
        let g = b.build().unwrap();
        let conv = convert(&g).unwrap();
        // N = 1; the self-loop token has one producer (itself) and one
        // consumer: a single coefficient actor with T(t) = 2.
        assert_eq!(conv.graph.num_actors(), 1);
        assert_eq!(
            hsdf_period(&conv.graph).unwrap().finite(),
            Some(Rational::new(2, 1))
        );
    }

    #[test]
    fn source_token_modelled_as_free_running() {
        // A token whose next value depends on no initial token (all-−∞
        // row) but which *is* consumed: the conversion needs a free-running
        // source actor on its producer side.
        let mut b = SdfGraph::builder("g");
        let src = b.actor("src", 4);
        let t = b.actor("t", 1);
        b.channel(src, t, 1, 1, 1).unwrap(); // token 0: reproduced by src
        b.channel(t, t, 1, 1, 1).unwrap(); // token 1: serializes t
        let g = b.build().unwrap();
        let conv = convert(&g).unwrap();
        assert!(conv.graph.actors().any(|(_, a)| a.name() == "s0"));
        // The only recurrent constraint is t's self-loop: period T(t) = 1.
        assert_eq!(
            hsdf_period(&conv.graph).unwrap().finite(),
            throughput(&g).unwrap().period()
        );
        assert_eq!(throughput(&g).unwrap().period(), Some(Rational::new(1, 1)));
    }

    #[test]
    fn observer_reproduces_firing_times() {
        // Compare the observed firing's completion times in the converted
        // graph against the original actor's firings in simulation.
        let g = updown();
        let y = g.actor_by_name("y").unwrap();
        let conv = convert_with_observers(&g, &[(y, 0), (y, 1)]).unwrap();
        assert_eq!(conv.observers.len(), 2);

        // Simulate both graphs and compare the completion times of the
        // observed firings over several iterations.
        let iters = 8u64;
        let orig = simulate(&g, &SimulationOptions::iterations(iters).with_firings()).unwrap();
        let orig_firings = &orig.firings.as_ref().unwrap()[y.index()];
        let conv_trace = simulate(
            &conv.graph,
            &SimulationOptions::iterations(iters).with_firings(),
        )
        .unwrap();
        let gamma_y = 2usize; // γ(y) = 2 in updown()
        for &(_, firing, obs) in &conv.observers {
            let obs_firings = &conv_trace.firings.as_ref().unwrap()[obs.index()];
            for it in 0..iters as usize {
                let original_end = orig_firings[it * gamma_y + firing as usize].1;
                let observed_end = obs_firings[it].1;
                assert_eq!(
                    observed_end, original_end,
                    "firing {firing} of iteration {it}"
                );
            }
        }
    }

    #[test]
    fn multirate_chain_with_back_edge() {
        let mut b = SdfGraph::builder("chain");
        let x = b.actor("x", 5);
        let y = b.actor("y", 3);
        let z = b.actor("z", 2);
        b.channel(x, y, 2, 1, 0).unwrap();
        b.channel(y, z, 1, 2, 0).unwrap();
        b.channel(z, x, 2, 2, 2).unwrap();
        let g = b.build().unwrap();
        let conv = convert(&g).unwrap();
        assert_eq!(
            hsdf_period(&conv.graph).unwrap().finite(),
            throughput(&g).unwrap().period()
        );
        assert!(conv.stats().actors <= conv.actor_bound());
    }

    #[test]
    fn elision_ablation_preserves_throughput() {
        for g in [updown(), {
            let mut b = SdfGraph::builder("ring2");
            let x = b.actor("x", 2);
            let y = b.actor("y", 3);
            b.channel(x, y, 1, 1, 1).unwrap();
            b.channel(y, x, 1, 1, 1).unwrap();
            b.build().unwrap()
        }] {
            let with = convert(&g).unwrap();
            let without = convert_without_elision(&g).unwrap();
            assert!(without.graph.num_actors() >= with.graph.num_actors());
            assert!(without.graph.num_actors() <= without.actor_bound());
            assert_eq!(
                hsdf_period(&with.graph).unwrap().finite(),
                hsdf_period(&without.graph).unwrap().finite(),
                "{}",
                g.name()
            );
        }
    }

    #[test]
    fn observer_indices_validated() {
        let g = updown();
        let y = g.actor_by_name("y").unwrap(); // γ(y) = 2
        assert!(matches!(
            convert_with_observers(&g, &[(y, 2)]),
            Err(SdfError::FiringOutOfRange {
                firing: 2,
                gamma: 2,
                ..
            })
        ));
        let ghost = ActorId::from_index(99);
        assert!(matches!(
            convert_with_observers(&g, &[(ghost, 0)]),
            Err(SdfError::UnknownActor { .. })
        ));
    }

    #[test]
    fn budget_bounds_novel_conversion() {
        let g = updown(); // Σγ = 3 + 2 = 5, N = 6
        let capped =
            |budget| convert_with_session(&AnalysisSession::with_budget(g.clone(), budget));
        let tight = Budget::unlimited().with_max_firings(2);
        assert!(matches!(capped(tight), Err(SdfError::Exhausted { .. })));
        let sized = Budget::unlimited().with_max_size(5); // N = 6 > 5
        assert!(matches!(capped(sized), Err(SdfError::Exhausted { .. })));
        let ample = Budget::unlimited().with_max_firings(100).with_max_size(6);
        let conv = capped(ample).unwrap();
        assert_eq!(
            conv.graph.num_actors(),
            convert(&g).unwrap().graph.num_actors()
        );
    }

    #[test]
    fn deadlock_propagates() {
        let mut b = SdfGraph::builder("dead");
        let x = b.actor("x", 1);
        b.channel(x, x, 1, 1, 0).unwrap();
        let g = b.build().unwrap();
        assert!(matches!(convert(&g), Err(SdfError::Deadlock { .. })));
    }

    #[test]
    fn compare_against_traditional_on_multirate() {
        // The headline effect: the novel conversion is much smaller when Σγ
        // is large but the graph carries few initial tokens (N = 2 here).
        let mut b = SdfGraph::builder("big");
        let x = b.actor("x", 10);
        let y = b.actor("y", 1);
        b.channel(x, y, 64, 1, 0).unwrap();
        b.channel(x, x, 1, 1, 1).unwrap();
        b.channel(y, y, 1, 1, 1).unwrap();
        let g = b.build().unwrap();
        let trad = crate::traditional::convert(&g).unwrap();
        let novel = convert(&g).unwrap();
        assert_eq!(trad.graph.num_actors(), 65); // γ = (1, 64)
        assert!(novel.graph.num_actors() <= 8); // ≤ N(N+2) with N = 2
        assert_eq!(
            hsdf_period(&novel.graph).unwrap().finite(),
            hsdf_period(&trad.graph).unwrap().finite()
        );
        assert_eq!(
            hsdf_period(&novel.graph).unwrap().finite(),
            Some(Rational::new(64, 1))
        );
    }
}

/// Builds the Fig. 4 HSDF structure directly from an arbitrary max-plus
/// matrix (with mux/demux elision), independent of any source SDF graph.
///
/// Row `k` of `matrix` is read as the symbolic time stamp of token `k`
/// after one iteration; the resulting homogeneous graph has one
/// recirculating token per consumed row and iteration period equal to the
/// matrix's eigenvalue. This is the entry point for other dataflow models
/// analysed through the same max-plus machinery (e.g. cyclo-static graphs).
///
/// # Panics
///
/// Panics if `matrix` is not square.
pub fn hsdf_from_matrix(matrix: &MpMatrix, name: &str) -> SdfGraph {
    assert!(matrix.is_square(), "iteration matrices are square");
    let n = matrix.num_rows();
    let mut b = SdfGraph::builder(name.to_string());

    let consumers: Vec<usize> = (0..n).map(|j| matrix.column(j).finite_count()).collect();
    let producers: Vec<usize> = (0..n).map(|k| matrix.row(k).finite_count()).collect();

    let demux: Vec<Option<ActorId>> = (0..n)
        .map(|j| (consumers[j] > 1).then(|| b.actor(format!("d{j}"), 0)))
        .collect();
    let mux: Vec<Option<ActorId>> = (0..n)
        .map(|k| (producers[k] > 1).then(|| b.actor(format!("u{k}"), 0)))
        .collect();
    let mut coeff: Vec<Vec<Option<ActorId>>> = vec![vec![None; n]; n];
    for k in 0..n {
        for (j, row) in coeff.iter_mut().enumerate() {
            if let Mp::Fin(t) = matrix.get(k, j) {
                row[k] = Some(b.actor(format!("m{j}_{k}"), t));
            }
        }
    }
    let sources: Vec<Option<ActorId>> = (0..n)
        .map(|k| (producers[k] == 0 && consumers[k] > 0).then(|| b.actor(format!("s{k}"), 0)))
        .collect();

    for j in 0..n {
        for k in 0..n {
            let Some(m) = coeff[j][k] else { continue };
            if let Some(d) = demux[j] {
                b.homogeneous_channel(d, m, 0).expect("valid ids");
            }
            if let Some(u) = mux[k] {
                b.homogeneous_channel(m, u, 0).expect("valid ids");
            }
        }
    }
    for k in 0..n {
        if consumers[k] == 0 {
            continue;
        }
        let producer_side = match (mux[k], sources[k]) {
            (Some(u), _) => u,
            (None, Some(s)) => s,
            (None, None) => {
                let j = (0..n)
                    .find(|&j| coeff[j][k].is_some())
                    .expect("row k has exactly one finite entry");
                coeff[j][k].expect("just found")
            }
        };
        match demux[k] {
            Some(d) => {
                b.homogeneous_channel(producer_side, d, 1).expect("ids");
            }
            None => {
                let kk = (0..n)
                    .find(|&kk| coeff[k][kk].is_some())
                    .expect("column k has exactly one finite entry");
                b.homogeneous_channel(producer_side, coeff[k][kk].expect("just found"), 1)
                    .expect("ids");
            }
        }
    }
    b.build().expect("construction is valid")
}

#[cfg(test)]
mod matrix_entry_tests {
    use super::*;
    use sdfr_analysis::throughput::hsdf_period;
    use sdfr_maxplus::Rational;

    #[test]
    fn matrix_realization_has_matrix_eigenvalue() {
        let m = MpMatrix::from_rows(vec![
            vec![Mp::fin(2), Mp::fin(8)],
            vec![Mp::fin(1), Mp::fin(3)],
        ])
        .unwrap();
        let g = hsdf_from_matrix(&m, "m");
        assert!(g.is_homogeneous());
        assert_eq!(hsdf_period(&g).unwrap().finite(), m.eigenvalue());
    }

    #[test]
    fn agrees_with_the_sdf_conversion_path() {
        let mut b = SdfGraph::builder("g");
        let x = b.actor("x", 1);
        let y = b.actor("y", 2);
        b.channel(x, y, 2, 3, 0).unwrap();
        b.channel(y, x, 3, 2, 6).unwrap();
        let g = b.build().unwrap();
        let conv = convert(&g).unwrap();
        let direct = hsdf_from_matrix(&conv.symbolic.matrix, "direct");
        assert_eq!(direct.num_actors(), conv.graph.num_actors());
        assert_eq!(
            hsdf_period(&direct).unwrap().finite(),
            hsdf_period(&conv.graph).unwrap().finite()
        );
    }

    #[test]
    fn eigenvalueless_matrix_realizes_acyclic() {
        let m = MpMatrix::from_rows(vec![
            vec![Mp::NEG_INF, Mp::NEG_INF],
            vec![Mp::fin(3), Mp::NEG_INF],
        ])
        .unwrap();
        let g = hsdf_from_matrix(&m, "m");
        assert_eq!(hsdf_period(&g).unwrap().finite(), None);
        assert_eq!(m.eigenvalue(), None);
    }

    #[test]
    fn fractional_eigenvalue() {
        let m = MpMatrix::from_rows(vec![
            vec![Mp::NEG_INF, Mp::NEG_INF, Mp::fin(2)],
            vec![Mp::fin(3), Mp::NEG_INF, Mp::NEG_INF],
            vec![Mp::NEG_INF, Mp::fin(2), Mp::NEG_INF],
        ])
        .unwrap();
        let g = hsdf_from_matrix(&m, "m");
        assert_eq!(hsdf_period(&g).unwrap().finite(), Some(Rational::new(7, 3)));
    }
}
