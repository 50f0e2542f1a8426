//! Brute-force cycle enumeration: the test oracle for MCR algorithms.
//!
//! Enumerates every simple cycle by depth-first search and takes the maximum
//! ratio. Exponential in the worst case — intended for small graphs in tests
//! and for validating the production algorithms, not for production use.

use sdfr_maxplus::Rational;

use super::{CycleRatio, CycleRatioGraph};

/// Computes the maximum cycle ratio by enumerating all simple cycles.
///
/// Note that restricting to *simple* cycles is sufficient: any cycle's ratio
/// is a weighted average (by token count) of the simple cycles it decomposes
/// into, hence never exceeds their maximum.
///
/// # Panics
///
/// Panics if the graph has more than 24 nodes (a guard against accidental
/// exponential blow-up; use [`super::howard`] for real inputs).
pub fn maximum_cycle_ratio(g: &CycleRatioGraph) -> CycleRatio {
    assert!(
        g.num_nodes() <= 24,
        "cycle enumeration is an oracle for small graphs (n <= 24)"
    );
    let n = g.num_nodes();
    let mut best: Option<Rational> = None;
    let mut zero_token_cycle = false;
    let mut on_path = vec![false; n];

    // Enumerate each simple cycle once: only through nodes >= start, rooted
    // at its minimum node.
    for start in 0..n {
        dfs(
            g,
            start,
            start,
            0,
            0,
            &mut on_path,
            &mut best,
            &mut zero_token_cycle,
        );
    }
    if zero_token_cycle {
        CycleRatio::ZeroTokenCycle
    } else {
        match best {
            None => CycleRatio::Acyclic,
            Some(r) => CycleRatio::Finite(r),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    g: &CycleRatioGraph,
    start: usize,
    u: usize,
    wsum: i64,
    tsum: i64,
    on_path: &mut [bool],
    best: &mut Option<Rational>,
    zero_token_cycle: &mut bool,
) {
    on_path[u] = true;
    for &eid in g.out_edges(u) {
        let e = g.edges()[eid];
        if e.to < start {
            continue;
        }
        let w = wsum + e.weight;
        let t = tsum + e.tokens as i64;
        if e.to == start {
            if t == 0 {
                *zero_token_cycle = true;
            } else {
                let r = Rational::new(w, t);
                if best.is_none_or(|b| r > b) {
                    *best = Some(r);
                }
            }
        } else if !on_path[e.to] {
            dfs(g, start, e.to, w, t, on_path, best, zero_token_cycle);
        }
    }
    on_path[u] = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_all_cycles() {
        let mut g = CycleRatioGraph::new(3);
        g.add_edge(0, 1, 1, 1);
        g.add_edge(1, 0, 1, 1); // ratio 1
        g.add_edge(1, 2, 4, 1);
        g.add_edge(2, 1, 4, 1); // ratio 4
        g.add_edge(0, 0, 3, 1); // ratio 3
        assert_eq!(
            maximum_cycle_ratio(&g),
            CycleRatio::Finite(Rational::new(4, 1))
        );
    }

    #[test]
    fn agrees_with_production_algorithms_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..300 {
            let n = rng.gen_range(1..=7);
            let m = rng.gen_range(0..=12);
            let mut g = CycleRatioGraph::new(n);
            for _ in 0..m {
                g.add_edge(
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                    rng.gen_range(-10..=20),
                    rng.gen_range(0..=3),
                );
            }
            let oracle = maximum_cycle_ratio(&g);
            let howard = super::super::howard::maximum_cycle_ratio(&g);
            let parametric = super::super::parametric::maximum_cycle_ratio(&g);
            assert_eq!(oracle, howard, "howard disagrees on {g:?}");
            assert_eq!(oracle, parametric, "parametric disagrees on {g:?}");
            // Unit-token instances are max-plus precedence graphs: the
            // flat Karp DP of the eigenvalue path must agree too.
            if g.edges().iter().all(|e| e.tokens == 1) {
                let edges = g.edges().iter().map(|e| (e.from, e.to, e.weight));
                let pg = sdfr_maxplus::precedence::PrecedenceGraph::from_edges(n, edges);
                let karp = sdfr_maxplus::eigen::maximum_cycle_mean(&pg)
                    .map_or(CycleRatio::Acyclic, CycleRatio::Finite);
                assert_eq!(oracle, karp, "karp disagrees on {g:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "oracle for small graphs")]
    fn large_graph_guard() {
        let g = CycleRatioGraph::new(25);
        let _ = maximum_cycle_ratio(&g);
    }

    #[test]
    fn acyclic_and_zero_token() {
        let mut g = CycleRatioGraph::new(2);
        g.add_edge(0, 1, 1, 1);
        assert_eq!(maximum_cycle_ratio(&g), CycleRatio::Acyclic);
        g.add_edge(1, 0, 5, 0);
        // The 2-cycle has 1 token in total, so it is fine; add a true
        // zero-token cycle.
        assert_eq!(
            maximum_cycle_ratio(&g),
            CycleRatio::Finite(Rational::new(6, 1))
        );
        g.add_edge(1, 1, 2, 0);
        assert_eq!(maximum_cycle_ratio(&g), CycleRatio::ZeroTokenCycle);
    }
}
