//! The classical SDF→HSDF conversion (Lee & Messerschmitt 1987; Sriram &
//! Bhattacharyya 2000).
//!
//! Every actor `a` is duplicated `γ(a)` times — one copy per firing in an
//! iteration — so the resulting homogeneous graph has exactly
//! `Σ_a γ(a)` actors (the "traditional conversion" column of the paper's
//! Table 1). Dependencies are derived token-by-token: the `k`-th token
//! consumed by firing `l` of `b` was produced by a specific firing of `a`
//! (possibly in an earlier iteration, contributing edge delay).
//!
//! Timing corresponds one-to-one: firing `n·γ(a) + k` of `a` in the
//! original graph is firing `n` of copy `a_k` in the conversion.

use std::collections::HashMap;

use sdfr_analysis::AnalysisSession;
use sdfr_graph::budget::{Budget, BudgetMeter};
use sdfr_graph::repetition::{repetition_vector, RepetitionVector};
use sdfr_graph::{ActorId, SdfError, SdfGraph};

/// The result of the classical conversion.
#[derive(Debug, Clone)]
pub struct TraditionalConversion {
    /// The homogeneous graph.
    pub graph: SdfGraph,
    /// `copies[a][k]` is the HSDF actor for firing `k` (within an
    /// iteration) of original actor `a`.
    pub copies: Vec<Vec<ActorId>>,
}

impl TraditionalConversion {
    /// The HSDF actor modelling firing `k` (0-based, within one iteration)
    /// of original actor `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not an actor of the original graph or `k ≥ γ(a)`.
    pub fn copy(&self, a: ActorId, k: u64) -> ActorId {
        self.copies[a.index()][k as usize]
    }
}

/// Converts `g` to an equivalent HSDF graph by actor duplication.
///
/// Parallel derived edges between the same pair of copies are merged,
/// keeping the smallest delay (the others are redundant constraints), so
/// the edge count stays manageable; the actor count is exactly `Σγ`.
///
/// This form runs uncapped; the capped form is [`convert_with_session`] on
/// [`AnalysisSession::with_budget`].
///
/// # Errors
///
/// - [`SdfError::Inconsistent`] if `g` has no repetition vector,
/// - [`SdfError::Overflow`] if `Σγ` exceeds practical bounds.
///
/// # Example
///
/// ```
/// use sdfr_core::traditional::convert;
/// use sdfr_graph::SdfGraph;
///
/// let mut b = SdfGraph::builder("updown");
/// let x = b.actor("x", 1);
/// let y = b.actor("y", 1);
/// b.channel(x, y, 2, 3, 0)?;
/// b.channel(y, x, 3, 2, 6)?;
/// let g = b.build()?;
/// let conv = convert(&g)?;
/// assert_eq!(conv.graph.num_actors(), 5); // γ = (3, 2)
/// assert!(conv.graph.is_homogeneous());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn convert(g: &SdfGraph) -> Result<TraditionalConversion, SdfError> {
    let gamma = repetition_vector(g)?;
    convert_with_gamma(g, &gamma, &mut Budget::unlimited().meter())
}

/// [`convert`] on an [`AnalysisSession`]: reuses the session's cached
/// repetition vector and charges the expansion to the session budget.
///
/// The conversion materialises `Σγ(a)` actors — potentially exponential in
/// the graph description — so the repetition-vector sum is validated against
/// both the firing cap and the size cap *before* any copy is allocated;
/// the derived-edge enumeration then charges one step per target firing.
///
/// # Errors
///
/// As [`convert`], plus [`SdfError::Exhausted`] when the budget refuses the
/// expansion or runs out mid-way.
pub fn convert_with_session(session: &AnalysisSession) -> Result<TraditionalConversion, SdfError> {
    let gamma = session.repetition_vector()?;
    session.with_meter(|m| convert_with_gamma(session.graph(), gamma, m))
}

/// [`convert`] with a precomputed repetition vector, charged to `meter`: the
/// shared backend of the free-function and session entry points.
fn convert_with_gamma(
    g: &SdfGraph,
    gamma: &RepetitionVector,
    meter: &mut BudgetMeter<'_>,
) -> Result<TraditionalConversion, SdfError> {
    let total = g
        .actor_ids()
        .try_fold(0u64, |s, a| s.checked_add(gamma.get(a)))
        .ok_or(SdfError::Overflow {
            what: "HSDF actor count (sum of repetition vector)",
        })?;
    // The expanded graph holds one actor per firing: the repetition sum is
    // both the work and the state size of this conversion.
    meter.check_size(total)?;
    meter.precheck(total)?;
    let mut b = SdfGraph::builder(format!("{}^hsdf", g.name()));

    let copies: Vec<Vec<ActorId>> = g
        .actors()
        .map(|(aid, a)| {
            (0..gamma.get(aid))
                .map(|k| b.actor(format!("{}#{}", a.name(), k), a.execution_time()))
                .collect()
        })
        .collect();

    // Derived edges, deduplicated per copy pair keeping the minimum delay.
    let mut derived: HashMap<(ActorId, ActorId), u64> = HashMap::new();
    let mut order: Vec<(ActorId, ActorId)> = Vec::new();
    for (_, ch) in g.channels() {
        let (p, c, d) = (
            ch.production() as i64,
            ch.consumption() as i64,
            ch.initial_tokens() as i64,
        );
        let gamma_src = gamma.get(ch.source()) as i64;
        let gamma_dst = gamma.get(ch.target());
        for l in 0..gamma_dst as i64 {
            // One derived-edge computation per target firing per channel.
            meter.spend(1)?;
            // Firing `l` of the target consumes the contiguous token range
            // [l·c − d, l·c + c − 1 − d]; the producing firings of the
            // source form the contiguous range below (negative = initial
            // token, produced by an earlier iteration). Iterating over
            // producing firings rather than tokens keeps the cost at
            // O(firings + tokens/p) instead of O(tokens).
            let f_lo = (l * c - d).div_euclid(p);
            let f_hi = (l * c + c - 1 - d).div_euclid(p);
            for f in f_lo..=f_hi {
                let j = f.rem_euclid(gamma_src);
                let m = f.div_euclid(gamma_src); // iteration offset (≤ 0 ok)
                let delay = u64::try_from(-m).map_err(|_| SdfError::Overflow {
                    what: "HSDF edge delay",
                })?;
                let src = copies[ch.source().index()][j as usize];
                let dst = copies[ch.target().index()][l as usize];
                match derived.get_mut(&(src, dst)) {
                    None => {
                        derived.insert((src, dst), delay);
                        order.push((src, dst));
                    }
                    Some(existing) => *existing = (*existing).min(delay),
                }
            }
        }
    }
    for key @ (src, dst) in order {
        b.channel(src, dst, 1, 1, derived[&key])
            .expect("copy ids are valid");
    }

    Ok(TraditionalConversion {
        graph: b.build().expect("construction is valid"),
        copies,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfr_analysis::throughput::{hsdf_period, throughput};

    #[test]
    fn homogeneous_graph_is_isomorphic() {
        let mut b = SdfGraph::builder("h");
        let x = b.actor("x", 2);
        let y = b.actor("y", 3);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 1).unwrap();
        let g = b.build().unwrap();
        let conv = convert(&g).unwrap();
        assert_eq!(conv.graph.num_actors(), 2);
        assert_eq!(conv.graph.num_channels(), 2);
        assert_eq!(
            hsdf_period(&conv.graph).unwrap().finite(),
            throughput(&g).unwrap().period()
        );
    }

    #[test]
    fn actor_count_is_repetition_sum() {
        // CD-to-DAT: γ = (147, 147, 98, 28, 32, 160), Σ = 612 — the
        // "sample rate conv." row of Table 1.
        let mut b = SdfGraph::builder("cd2dat");
        let ids: Vec<_> = (0..6).map(|i| b.actor(format!("a{i}"), 1)).collect();
        let rates = [(1, 1), (2, 3), (2, 7), (8, 7), (5, 1)];
        for (i, (p, c)) in rates.iter().enumerate() {
            b.channel(ids[i], ids[i + 1], *p, *c, 0).unwrap();
        }
        let g = b.build().unwrap();
        let conv = convert(&g).unwrap();
        assert_eq!(conv.graph.num_actors(), 612);
        assert!(conv.graph.is_homogeneous());
    }

    #[test]
    fn intra_iteration_dependencies() {
        // x produces 2, y consumes 1: y#0 and y#1 both read from x#0.
        let mut b = SdfGraph::builder("g");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 2, 1, 0).unwrap();
        let g = b.build().unwrap();
        let conv = convert(&g).unwrap();
        assert_eq!(conv.graph.num_actors(), 3);
        let x0 = conv.copy(x, 0);
        for k in 0..2 {
            let yk = conv.copy(y, k);
            assert!(conv
                .graph
                .outgoing(x0)
                .iter()
                .any(|&c| conv.graph.channel(c).target() == yk
                    && conv.graph.channel(c).initial_tokens() == 0));
        }
    }

    #[test]
    fn initial_tokens_become_inter_iteration_delays() {
        // One token on a homogeneous self-loop: copy depends on itself one
        // iteration earlier.
        let mut b = SdfGraph::builder("g");
        let x = b.actor("x", 1);
        b.channel(x, x, 1, 1, 1).unwrap();
        let g = b.build().unwrap();
        let conv = convert(&g).unwrap();
        let (_, ch) = conv.graph.channels().next().unwrap();
        assert_eq!(ch.initial_tokens(), 1);
        assert!(ch.is_self_loop());
    }

    #[test]
    fn multi_iteration_delays() {
        // d = 5 tokens, rates 1:1, γ = 1: firing n depends on firing n−5,
        // i.e. a self-edge with delay 5.
        let mut b = SdfGraph::builder("g");
        let x = b.actor("x", 1);
        b.channel(x, x, 1, 1, 5).unwrap();
        let g = b.build().unwrap();
        let conv = convert(&g).unwrap();
        let (_, ch) = conv.graph.channels().next().unwrap();
        assert_eq!(ch.initial_tokens(), 5);
    }

    #[test]
    fn multirate_throughput_preserved() {
        let mut b = SdfGraph::builder("g");
        let x = b.actor("x", 3);
        let y = b.actor("y", 2);
        b.channel(x, y, 2, 3, 0).unwrap();
        b.channel(y, x, 3, 2, 6).unwrap();
        let g = b.build().unwrap();
        let conv = convert(&g).unwrap();
        assert_eq!(conv.graph.num_actors(), 5);
        assert_eq!(
            hsdf_period(&conv.graph).unwrap().finite(),
            throughput(&g).unwrap().period()
        );
    }

    #[test]
    fn paper_fig3_conversion() {
        // Fig. 3 of the paper: left fires twice, right once: 3 HSDF actors.
        let mut b = SdfGraph::builder("fig3");
        let l = b.actor("left", 3);
        let r = b.actor("right", 1);
        b.channel(l, r, 1, 2, 0).unwrap();
        b.channel(r, l, 2, 1, 2).unwrap();
        b.channel(l, l, 1, 1, 1).unwrap();
        b.channel(r, r, 1, 1, 1).unwrap();
        let g = b.build().unwrap();
        let conv = convert(&g).unwrap();
        assert_eq!(conv.graph.num_actors(), 3);
        assert_eq!(
            hsdf_period(&conv.graph).unwrap().finite(),
            throughput(&g).unwrap().period()
        );
    }

    #[test]
    fn budget_refuses_exponential_expansion_before_allocating() {
        use std::time::Instant;
        // Σγ = 1e9 + 1: unbudgeted expansion would OOM; the budgeted one
        // must refuse instantly, before building any copies.
        let mut b = SdfGraph::builder("huge");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 1_000_000_000, 1, 0).unwrap();
        let g = b.build().unwrap();
        let budget = Budget::unlimited().with_max_size(1_000_000);
        let t0 = Instant::now();
        assert!(matches!(
            convert_with_session(&AnalysisSession::with_budget(g, budget)),
            Err(SdfError::Exhausted { .. })
        ));
        assert!(t0.elapsed().as_millis() < 1000, "must fail fast");
        // An adequate budget converts normally.
        let mut b = SdfGraph::builder("small");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 2, 1, 0).unwrap();
        let g = b.build().unwrap();
        let session = AnalysisSession::with_budget(g, Budget::unlimited().with_max_size(16));
        let conv = convert_with_session(&session).unwrap();
        assert_eq!(conv.graph.num_actors(), 3);
    }

    #[test]
    fn deadlock_free_conversion_of_live_graph_is_live() {
        let mut b = SdfGraph::builder("g");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 1, 2, 1).unwrap();
        b.channel(y, x, 2, 1, 1).unwrap();
        let g = b.build().unwrap();
        assert!(sdfr_graph::liveness::is_live(&g));
        let conv = convert(&g).unwrap();
        assert!(sdfr_graph::liveness::is_live(&conv.graph));
    }
}
