//! Maximum cycle mean / maximum cycle ratio algorithms.
//!
//! The throughput of a homogeneous SDF graph is governed by its *maximum
//! cycle ratio* (MCR): over all cycles `C`, the maximum of
//! `Σ_{a ∈ C} T(a) / Σ_{e ∈ C} d(e)` — execution time per token (Dasdan,
//! Irani & Gupta, DAC'99). This module provides several algorithms with
//! different trade-offs, usable both as production solvers and as mutual
//! cross-checks:
//!
//! - [`howard`] — Howard's policy iteration for the general cycle-ratio
//!   problem, exact rational arithmetic,
//! - [`parametric`] — Burns-style parametric cycle improvement (repeatedly
//!   extract a cycle that beats the current ratio),
//! - [`enumerate`] — brute-force simple-cycle enumeration, the test oracle
//!   for small graphs.

use sdfr_graph::{SdfError, SdfGraph};
use sdfr_maxplus::{closure, Rational};

pub mod enumerate;
pub mod howard;
pub mod parametric;

/// The outcome of a maximum cycle ratio computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleRatio {
    /// The graph has no cycle: no recurrent constraint (for an HSDF graph,
    /// unbounded throughput).
    Acyclic,
    /// The graph has a cycle whose edges carry no tokens: the ratio is
    /// unbounded (for an HSDF graph, a deadlock).
    ZeroTokenCycle,
    /// The maximum cycle ratio.
    Finite(Rational),
}

impl CycleRatio {
    /// The finite ratio, if any.
    pub fn finite(self) -> Option<Rational> {
        match self {
            CycleRatio::Finite(r) => Some(r),
            _ => None,
        }
    }
}

/// A directed graph with edge weights and token counts, the input of the
/// cycle-ratio problem.
///
/// For an HSDF graph, nodes are actors, each channel `(a, b, d)` becomes an
/// edge with weight `T(a)` and `d` tokens; see
/// [`CycleRatioGraph::from_hsdf`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleRatioGraph {
    n: usize,
    edges: Vec<Edge>,
    out: Vec<Vec<usize>>,
}

/// One edge of a [`CycleRatioGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Source node.
    pub from: usize,
    /// Target node.
    pub to: usize,
    /// Edge weight (e.g. execution time of the source actor).
    pub weight: i64,
    /// Token count (the denominator contribution).
    pub tokens: u64,
}

impl CycleRatioGraph {
    /// Creates an empty graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        CycleRatioGraph {
            n,
            edges: Vec::new(),
            out: vec![Vec::new(); n],
        }
    }

    /// Adds an edge.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of bounds.
    pub fn add_edge(&mut self, from: usize, to: usize, weight: i64, tokens: u64) {
        assert!(from < self.n && to < self.n, "edge endpoint out of bounds");
        self.out[from].push(self.edges.len());
        self.edges.push(Edge {
            from,
            to,
            weight,
            tokens,
        });
    }

    /// The number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Indices into [`edges`](Self::edges) of the edges leaving `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of bounds.
    pub fn out_edges(&self, u: usize) -> &[usize] {
        &self.out[u]
    }

    /// Builds the cycle-ratio instance of a *homogeneous* SDF graph: one
    /// node per actor; every channel `(a, b, 1, 1, d)` becomes an edge
    /// `a → b` with weight `T(a)` and `d` tokens. The MCR of this instance
    /// is the self-timed iteration period of the HSDF graph.
    ///
    /// # Errors
    ///
    /// Returns [`SdfError::NotHomogeneous`] if any rate differs from 1.
    pub fn from_hsdf(g: &SdfGraph) -> Result<Self, SdfError> {
        for (cid, ch) in g.channels() {
            if !ch.is_homogeneous() {
                return Err(SdfError::NotHomogeneous { channel: cid });
            }
        }
        let mut crg = CycleRatioGraph::new(g.num_actors());
        for (_, ch) in g.channels() {
            crg.add_edge(
                ch.source().index(),
                ch.target().index(),
                g.actor(ch.source()).execution_time(),
                ch.initial_tokens(),
            );
        }
        Ok(crg)
    }

    /// Returns `true` if the graph contains a directed cycle at all.
    pub fn has_cycle(&self) -> bool {
        self.has_cycle_in_subgraph(|_| true)
    }

    /// Returns `true` if the subgraph of edges with zero tokens contains a
    /// cycle (an infeasible/deadlocked instance).
    pub fn has_zero_token_cycle(&self) -> bool {
        self.has_cycle_in_subgraph(|e| e.tokens == 0)
    }

    fn has_cycle_in_subgraph(&self, keep: impl Fn(&Edge) -> bool) -> bool {
        // Iterative DFS with colors.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color = vec![Color::White; self.n];
        for start in 0..self.n {
            if color[start] != Color::White {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            color[start] = Color::Gray;
            while let Some(&mut (u, ref mut i)) = stack.last_mut() {
                if *i < self.out[u].len() {
                    let e = &self.edges[self.out[u][*i]];
                    *i += 1;
                    if !keep(e) {
                        continue;
                    }
                    match color[e.to] {
                        Color::Gray => return true,
                        Color::White => {
                            color[e.to] = Color::Gray;
                            stack.push((e.to, 0));
                        }
                        Color::Black => {}
                    }
                } else {
                    color[u] = Color::Black;
                    stack.pop();
                }
            }
        }
        false
    }

    /// The sum of all token counts (bounds the denominator of the MCR).
    pub fn total_tokens(&self) -> u64 {
        self.edges.iter().map(|e| e.tokens).sum()
    }
}

/// Computes the maximum cycle ratio with the default production algorithm
/// (Howard's policy iteration).
pub fn maximum_cycle_ratio(g: &CycleRatioGraph) -> CycleRatio {
    howard::maximum_cycle_ratio(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let mut g = CycleRatioGraph::new(3);
        g.add_edge(0, 1, 5, 1);
        g.add_edge(1, 0, 3, 0);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.edges().len(), 2);
        assert_eq!(g.out_edges(0), &[0]);
        assert_eq!(g.total_tokens(), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_edge_panics() {
        let mut g = CycleRatioGraph::new(1);
        g.add_edge(0, 1, 0, 0);
    }

    #[test]
    fn cycle_detection() {
        let mut g = CycleRatioGraph::new(3);
        g.add_edge(0, 1, 1, 1);
        g.add_edge(1, 2, 1, 0);
        assert!(!g.has_cycle());
        assert!(!g.has_zero_token_cycle());
        g.add_edge(2, 0, 1, 0);
        assert!(g.has_cycle());
        assert!(!g.has_zero_token_cycle()); // 0->1 carries a token
        g.add_edge(1, 1, 1, 0);
        assert!(g.has_zero_token_cycle()); // zero-token self-loop
    }

    #[test]
    fn from_hsdf_builds_expected_instance() {
        let mut b = SdfGraph::builder("h");
        let x = b.actor("x", 2);
        let y = b.actor("y", 3);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 1).unwrap();
        let g = b.build().unwrap();
        let crg = CycleRatioGraph::from_hsdf(&g).unwrap();
        assert_eq!(crg.edges()[0].weight, 2);
        assert_eq!(crg.edges()[1].weight, 3);
        assert_eq!(crg.edges()[1].tokens, 1);
        assert_eq!(
            maximum_cycle_ratio(&crg),
            CycleRatio::Finite(Rational::new(5, 1))
        );
    }

    #[test]
    fn from_hsdf_rejects_multirate() {
        let mut b = SdfGraph::builder("m");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 2, 1, 0).unwrap();
        let g = b.build().unwrap();
        assert!(matches!(
            CycleRatioGraph::from_hsdf(&g),
            Err(SdfError::NotHomogeneous { .. })
        ));
    }

    #[test]
    fn cycle_ratio_finite_accessor() {
        assert_eq!(
            CycleRatio::Finite(Rational::ONE).finite(),
            Some(Rational::ONE)
        );
        assert_eq!(CycleRatio::Acyclic.finite(), None);
        assert_eq!(CycleRatio::ZeroTokenCycle.finite(), None);
    }
}

/// Extracts one *critical cycle* — a cycle whose ratio equals the maximum
/// cycle ratio — as a list of edge indices in traversal order, or `None`
/// if the graph is acyclic, has a zero-token cycle, or its potentials do
/// not fit in `i64`.
///
/// The construction takes the longest-path potentials at λ
/// ([`closure::potentials`]) and searches the subgraph of *tight* edges,
/// which necessarily contains a cycle of reduced weight zero.
pub fn critical_cycle(g: &CycleRatioGraph) -> Option<Vec<usize>> {
    let CycleRatio::Finite(lambda) = maximum_cycle_ratio(g) else {
        return None;
    };
    let n = g.num_nodes();
    let edges = g.edges().iter().map(|e| (e.from, e.to, e.weight, e.tokens));
    let dist = closure::potentials(n, edges, lambda).ok()?;
    let (s, num) = (i128::from(lambda.denom()), i128::from(lambda.numer()));
    // Tight subgraph: edges with dist[to] == dist[from] + reduced weight.
    let tight: Vec<Vec<usize>> = {
        let mut adj = vec![Vec::new(); n];
        for (eid, e) in g.edges().iter().enumerate() {
            let reduced = s * i128::from(e.weight) - num * i128::from(e.tokens);
            if i128::from(dist[e.to] - dist[e.from]) == reduced {
                adj[e.from].push(eid);
            }
        }
        adj
    };
    // DFS for a cycle in the tight subgraph, recording the edge path.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; n];
    let mut path_edges: Vec<usize> = Vec::new();
    let mut path_nodes: Vec<usize> = Vec::new();
    for start in 0..n {
        if color[start] != Color::White {
            continue;
        }
        // Iterative DFS with explicit edge-iteration state.
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = Color::Gray;
        path_nodes.push(start);
        while let Some(&mut (u, ref mut i)) = stack.last_mut() {
            if *i < tight[u].len() {
                let eid = tight[u][*i];
                *i += 1;
                let v = g.edges()[eid].to;
                match color[v] {
                    Color::Gray => {
                        // Found a cycle: the suffix of the path from v.
                        let pos = path_nodes
                            .iter()
                            .position(|&x| x == v)
                            .expect("gray node on path");
                        let mut cycle: Vec<usize> = path_edges[pos..].to_vec();
                        cycle.push(eid);
                        debug_assert!(!cycle.is_empty());
                        return Some(cycle);
                    }
                    Color::White => {
                        color[v] = Color::Gray;
                        stack.push((v, 0));
                        path_nodes.push(v);
                        path_edges.push(eid);
                    }
                    Color::Black => {}
                }
            } else {
                color[u] = Color::Black;
                stack.pop();
                path_nodes.pop();
                path_edges.pop();
            }
        }
        path_edges.clear();
        path_nodes.clear();
    }
    unreachable!("a finite maximum cycle ratio implies a tight cycle exists")
}

#[cfg(test)]
mod critical_tests {
    use super::*;
    use sdfr_maxplus::Rational;

    fn cycle_ratio_of(g: &CycleRatioGraph, edges: &[usize]) -> Rational {
        let (mut w, mut t) = (0i64, 0i64);
        for &eid in edges {
            let e = g.edges()[eid];
            w += e.weight;
            t += e.tokens as i64;
        }
        Rational::new(w, t)
    }

    #[test]
    fn finds_the_best_cycle() {
        let mut g = CycleRatioGraph::new(3);
        g.add_edge(0, 0, 3, 1); // ratio 3
        g.add_edge(1, 2, 4, 1);
        g.add_edge(2, 1, 6, 1); // ratio 5
        let c = critical_cycle(&g).unwrap();
        assert_eq!(cycle_ratio_of(&g, &c), Rational::from(5));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn fractional_ratio_cycle() {
        let mut g = CycleRatioGraph::new(2);
        g.add_edge(0, 1, 4, 2);
        g.add_edge(1, 0, 5, 5); // ratio 9/7
        g.add_edge(0, 0, 1, 1); // ratio 1 < 9/7
        let c = critical_cycle(&g).unwrap();
        assert_eq!(cycle_ratio_of(&g, &c), Rational::new(9, 7));
    }

    #[test]
    fn none_for_acyclic_or_infeasible() {
        let mut g = CycleRatioGraph::new(2);
        g.add_edge(0, 1, 1, 1);
        assert_eq!(critical_cycle(&g), None);
        g.add_edge(1, 0, 1, 0);
        g.add_edge(1, 1, 1, 0); // zero-token cycle
        assert_eq!(critical_cycle(&g), None);
    }

    #[test]
    fn cycle_is_well_formed() {
        // The returned edges must form a closed walk.
        let mut g = CycleRatioGraph::new(4);
        g.add_edge(0, 1, 2, 0);
        g.add_edge(1, 2, 3, 1);
        g.add_edge(2, 0, 4, 1);
        g.add_edge(2, 3, 100, 1);
        let c = critical_cycle(&g).unwrap();
        for w in 0..c.len() {
            let cur = g.edges()[c[w]];
            let next = g.edges()[c[(w + 1) % c.len()]];
            assert_eq!(cur.to, next.from);
        }
        assert_eq!(cycle_ratio_of(&g, &c), Rational::new(9, 2));
    }

    #[test]
    fn agrees_with_mcr_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let n = rng.gen_range(1..=6);
            let mut g = CycleRatioGraph::new(n);
            for _ in 0..rng.gen_range(0..=10) {
                g.add_edge(
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                    rng.gen_range(-5..=15),
                    rng.gen_range(1..=3),
                );
            }
            match (maximum_cycle_ratio(&g), critical_cycle(&g)) {
                (CycleRatio::Finite(r), Some(c)) => {
                    assert_eq!(cycle_ratio_of(&g, &c), r, "{g:?}");
                }
                (CycleRatio::Acyclic, None) => {}
                (outcome, cycle) => panic!("mismatch: {outcome:?} vs {cycle:?}"),
            }
        }
    }
}
