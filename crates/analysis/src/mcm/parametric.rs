//! Parametric cycle improvement (Burns-style) for the maximum cycle ratio.
//!
//! Maintain a candidate ratio λ (always the exact ratio of a real cycle);
//! as long as some cycle has positive reduced weight `Σ(w − λ·t) > 0`,
//! extract such a cycle with Bellman–Ford and adopt its (strictly larger)
//! ratio. Terminates with the maximum cycle ratio; every intermediate value
//! is an exact rational, so no floating-point tolerance is involved.

use sdfr_maxplus::Rational;

use super::{CycleRatio, CycleRatioGraph};

/// Computes the maximum cycle ratio of `g` by parametric cycle improvement.
pub fn maximum_cycle_ratio(g: &CycleRatioGraph) -> CycleRatio {
    if g.has_zero_token_cycle() {
        return CycleRatio::ZeroTokenCycle;
    }
    if !g.has_cycle() {
        return CycleRatio::Acyclic;
    }
    // Seed with a ratio below every cycle's: with all token sums >= 1 and
    // |cycle weight| <= Σ|w|, any cycle beats −(Σ|w| + 1).
    let wsum: i64 = g.edges().iter().map(|e| e.weight.abs()).sum();
    let mut lambda = Rational::from(-wsum - 1);
    // The first call must find a cycle (the graph is cyclic and every cycle
    // is positive at the seed); afterwards improve until no cycle is left.
    while let Some(better) = positive_cycle_ratio(g, lambda) {
        debug_assert!(better > lambda);
        lambda = better;
    }
    CycleRatio::Finite(lambda)
}

/// Finds a cycle with `Σ(w − λ·t) > 0` and returns its exact ratio, or
/// `None` if every cycle is non-positive at λ.
fn positive_cycle_ratio(g: &CycleRatioGraph, lambda: Rational) -> Option<Rational> {
    let n = g.num_nodes();
    if n == 0 {
        return None;
    }
    // Longest-walk Bellman–Ford from a virtual source connected to every
    // node with weight 0.
    let mut dist = vec![Rational::ZERO; n];
    let mut pred: Vec<Option<usize>> = vec![None; n];
    let reduced = |eid: usize| -> Rational {
        let e = g.edges()[eid];
        Rational::from(e.weight) - lambda * Rational::from(e.tokens as i64)
    };
    let mut changed_node = None;
    for round in 0..=n {
        let mut changed = None;
        for eid in 0..g.edges().len() {
            let e = g.edges()[eid];
            let cand = dist[e.from] + reduced(eid);
            if cand > dist[e.to] {
                dist[e.to] = cand;
                pred[e.to] = Some(eid);
                changed = Some(e.to);
            }
        }
        match changed {
            None => return None, // converged: no positive cycle
            Some(v) if round == n => {
                changed_node = Some(v);
            }
            Some(_) => {}
        }
    }
    // A relaxation happened in round n: walk predecessors n steps to land
    // inside a positive cycle, then extract it.
    let mut u = changed_node.expect("set when round n relaxed");
    for _ in 0..n {
        u = g.edges()[pred[u].expect("relaxed nodes have predecessors")].from;
    }
    let start = u;
    let (mut wsum, mut tsum) = (0i64, 0i64);
    loop {
        let eid = pred[u].expect("cycle nodes have predecessors");
        let e = g.edges()[eid];
        wsum += e.weight;
        tsum += e.tokens as i64;
        u = e.from;
        if u == start {
            break;
        }
    }
    debug_assert!(tsum > 0, "zero-token cycles are screened out earlier");
    Some(Rational::new(wsum, tsum))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_production_on_examples() {
        let mut g = CycleRatioGraph::new(3);
        g.add_edge(0, 0, 7, 2);
        g.add_edge(0, 1, 1, 0);
        g.add_edge(1, 2, 2, 0);
        g.add_edge(2, 0, 3, 1);
        assert_eq!(
            maximum_cycle_ratio(&g),
            super::super::maximum_cycle_ratio(&g)
        );
        assert_eq!(
            maximum_cycle_ratio(&g),
            CycleRatio::Finite(Rational::new(6, 1))
        );
    }

    #[test]
    fn zero_token_and_acyclic_cases() {
        let mut g = CycleRatioGraph::new(2);
        g.add_edge(0, 1, 1, 0);
        assert_eq!(maximum_cycle_ratio(&g), CycleRatio::Acyclic);
        g.add_edge(1, 0, 1, 0);
        assert_eq!(maximum_cycle_ratio(&g), CycleRatio::ZeroTokenCycle);
    }

    #[test]
    fn negative_weights() {
        let mut g = CycleRatioGraph::new(2);
        g.add_edge(0, 1, -3, 1);
        g.add_edge(1, 0, -5, 1);
        assert_eq!(
            maximum_cycle_ratio(&g),
            CycleRatio::Finite(Rational::new(-4, 1))
        );
    }

    #[test]
    fn fractional_ratio() {
        let mut g = CycleRatioGraph::new(2);
        g.add_edge(0, 1, 4, 2);
        g.add_edge(1, 0, 5, 5);
        assert_eq!(
            maximum_cycle_ratio(&g),
            CycleRatio::Finite(Rational::new(9, 7))
        );
    }
}
