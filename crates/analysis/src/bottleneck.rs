//! Bottleneck identification: which tokens, channels and actors lie on the
//! critical cycle that determines the throughput.
//!
//! The max-plus matrix of one iteration makes this direct: the *critical
//! nodes* of the matrix (tokens on a cycle of mean λ) are the initial
//! tokens whose recurrent dependency limits the iteration period. Mapping
//! them back through the token table names the channels — and hence the
//! actors — a designer should optimise.

use sdfr_graph::{ActorId, ChannelId, SdfError, SdfGraph};
use sdfr_maxplus::{closure, Rational};

use crate::symbolic::{symbolic_iteration, SymbolicIteration, TokenRef};

/// The bottleneck report for a consistent, live SDF graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bottleneck {
    /// The iteration period λ.
    pub period: Rational,
    /// The critical initial tokens (on cycles of mean λ).
    pub tokens: Vec<TokenRef>,
    /// The channels holding critical tokens (deduplicated, in id order).
    pub channels: Vec<ChannelId>,
    /// The endpoint actors of the critical channels (deduplicated, in id
    /// order) — the firing chain that limits throughput.
    pub actors: Vec<ActorId>,
}

/// Identifies the throughput bottleneck of `g`, or `None` if the graph has
/// no recurrent timing constraint (unbounded throughput).
///
/// # Errors
///
/// - [`SdfError::Inconsistent`] if `g` has no repetition vector,
/// - [`SdfError::Deadlock`] if an iteration cannot execute,
/// - [`SdfError::Overflow`] as [`bottleneck_from_symbolic`].
///
/// # Example
///
/// ```
/// use sdfr_analysis::bottleneck::bottleneck;
/// use sdfr_graph::SdfGraph;
///
/// // A fast loop (x) and a slow loop (y): y's self-loop is the bottleneck.
/// let mut b = SdfGraph::builder("g");
/// let x = b.actor("x", 1);
/// let y = b.actor("y", 9);
/// b.channel(x, x, 1, 1, 1)?;
/// b.channel(y, y, 1, 1, 1)?;
/// let g = b.build()?;
///
/// let report = bottleneck(&g)?.expect("bounded");
/// assert_eq!(report.actors, vec![y]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn bottleneck(g: &SdfGraph) -> Result<Option<Bottleneck>, SdfError> {
    let sym = symbolic_iteration(g)?;
    bottleneck_from_symbolic(g, &sym)
}

/// Identifies the bottleneck from an already-computed symbolic iteration of
/// `g` (e.g. the one cached in an
/// [`AnalysisSession`](crate::session::AnalysisSession)), so callers that
/// need both the throughput and the bottleneck pay for one iteration only.
///
/// # Errors
///
/// [`SdfError::Overflow`] if the period or the critical-cycle potentials
/// at λ do not fit in `i64`.
pub fn bottleneck_from_symbolic(
    g: &SdfGraph,
    sym: &SymbolicIteration,
) -> Result<Option<Bottleneck>, SdfError> {
    if sym.num_tokens() == 0 {
        return Ok(None);
    }
    let Some(period) = sym
        .matrix
        .eigenvalue()
        .map_err(SdfError::cycle_ratio_overflow)?
    else {
        return Ok(None);
    };
    // λ is the eigenvalue of the square matrix: overflow is the only error.
    let critical =
        closure::critical_nodes(&sym.matrix, period).map_err(|_| SdfError::Overflow {
            what: "critical-cycle potentials",
        })?;
    let tokens: Vec<TokenRef> = critical.iter().map(|&i| sym.tokens[i]).collect();

    let mut channels: Vec<ChannelId> = tokens.iter().map(|t| t.channel).collect();
    channels.sort_unstable();
    channels.dedup();

    let mut actors: Vec<ActorId> = channels
        .iter()
        .flat_map(|&c| {
            let ch = g.channel(c);
            [ch.source(), ch.target()]
        })
        .collect();
    actors.sort_unstable();
    actors.dedup();

    Ok(Some(Bottleneck {
        period,
        tokens,
        channels,
        actors,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowest_cycle_wins() {
        let mut b = SdfGraph::builder("g");
        let x = b.actor("x", 2);
        let y = b.actor("y", 3);
        let z = b.actor("z", 50);
        b.channel(x, y, 1, 1, 0).unwrap();
        let xy = b.channel(y, x, 1, 1, 1).unwrap();
        let zz = b.channel(z, z, 1, 1, 1).unwrap();
        let g = b.build().unwrap();
        let r = bottleneck(&g).unwrap().unwrap();
        assert_eq!(r.period, Rational::from(50));
        assert_eq!(r.channels, vec![zz]);
        assert_eq!(r.actors, vec![z]);
        assert_ne!(r.channels, vec![xy]);
    }

    #[test]
    fn whole_cycle_reported() {
        let mut b = SdfGraph::builder("g");
        let x = b.actor("x", 2);
        let y = b.actor("y", 3);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 1).unwrap();
        let g = b.build().unwrap();
        let r = bottleneck(&g).unwrap().unwrap();
        assert_eq!(r.period, Rational::from(5));
        // The single token's channel and both its endpoint actors.
        assert_eq!(r.tokens.len(), 1);
        assert_eq!(r.actors, vec![x, y]);
    }

    #[test]
    fn unbounded_graph_has_no_bottleneck() {
        let mut b = SdfGraph::builder("g");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 1, 1, 0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(bottleneck(&g).unwrap(), None);
    }

    #[test]
    fn multirate_bottleneck() {
        // The serialized slow stage dominates.
        let mut b = SdfGraph::builder("g");
        let src = b.actor("src", 1);
        let slow = b.actor("slow", 10);
        b.channel(src, slow, 4, 1, 0).unwrap();
        b.channel(src, src, 1, 1, 1).unwrap();
        let slow_loop = b.channel(slow, slow, 1, 1, 1).unwrap();
        let g = b.build().unwrap();
        let r = bottleneck(&g).unwrap().unwrap();
        // slow fires 4 times per iteration, serialized: period 40.
        assert_eq!(r.period, Rational::from(40));
        assert_eq!(r.channels, vec![slow_loop]);
    }

    #[test]
    fn errors_propagate() {
        let mut b = SdfGraph::builder("dead");
        let x = b.actor("x", 1);
        b.channel(x, x, 1, 1, 0).unwrap();
        let g = b.build().unwrap();
        assert!(bottleneck(&g).is_err());
    }
}
