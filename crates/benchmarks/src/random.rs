//! Random consistent, live SDF graphs for property-based testing.
//!
//! Graphs are *correct by construction*: repetition-vector entries are
//! sampled first and edge rates derived from them (so the balance equations
//! hold), the base topology is a DAG (forward edges never deadlock), and
//! every back edge receives a full iteration's worth of tokens
//! (`d = c · γ(target)`), which guarantees liveness.

use rand::Rng;
use sdfr_graph::{SdfError, SdfGraph};

/// Parameters for the random graph generators.
#[derive(Debug, Clone)]
pub struct RandomSdfConfig {
    /// Minimum number of actors (inclusive).
    pub min_actors: usize,
    /// Maximum number of actors (inclusive).
    pub max_actors: usize,
    /// Maximum repetition-vector entry per actor.
    pub max_gamma: u64,
    /// Maximum execution time per actor.
    pub max_time: i64,
    /// Number of extra forward edges beyond the spanning chain.
    pub extra_forward_edges: usize,
    /// Number of token-carrying back edges (cycles).
    pub back_edges: usize,
    /// Probability (0–100) that an actor gets a serializing self-loop.
    pub self_loop_percent: u32,
    /// Maximum multiplier applied to the minimal balanced rates of an edge
    /// (1 keeps the smallest rates; homogeneous generation requires 1).
    pub max_rate_multiplier: u64,
}

impl Default for RandomSdfConfig {
    fn default() -> Self {
        RandomSdfConfig {
            min_actors: 2,
            max_actors: 8,
            max_gamma: 6,
            max_time: 20,
            extra_forward_edges: 3,
            back_edges: 2,
            self_loop_percent: 40,
            max_rate_multiplier: 2,
        }
    }
}

/// Generates a random consistent, live, possibly multirate SDF graph.
///
/// # Panics
///
/// Panics if the configuration is degenerate (`min_actors < 1` or
/// `min_actors > max_actors`).
pub fn random_live_sdf<R: Rng>(rng: &mut R, cfg: &RandomSdfConfig) -> SdfGraph {
    assert!(cfg.min_actors >= 1 && cfg.min_actors <= cfg.max_actors);
    let n = rng.gen_range(cfg.min_actors..=cfg.max_actors);
    let gamma: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=cfg.max_gamma)).collect();

    let mut b = SdfGraph::builder("random");
    let ids: Vec<_> = (0..n)
        .map(|i| b.actor(format!("r{i}"), rng.gen_range(0..=cfg.max_time)))
        .collect();

    let add_edge =
        |b: &mut sdfr_graph::SdfGraphBuilder, rng: &mut R, u: usize, v: usize, live: bool| {
            let g = gcd(gamma[u], gamma[v]);
            let m = rng.gen_range(1..=cfg.max_rate_multiplier);
            let (p, c) = (gamma[v] / g * m, gamma[u] / g * m);
            let d = if live {
                c * gamma[v] // a full iteration of buffering: never blocks
            } else {
                // Forward edges may carry a little extra pipelining.
                if rng.gen_bool(0.3) {
                    rng.gen_range(0..=2) * c
                } else {
                    0
                }
            };
            b.channel(ids[u], ids[v], p, c, d).expect("valid endpoints");
        };

    // Spanning chain (guarantees weak connectivity).
    for i in 0..n - 1 {
        add_edge(&mut b, rng, i, i + 1, false);
    }
    for _ in 0..cfg.extra_forward_edges {
        if n >= 2 {
            let u = rng.gen_range(0..n - 1);
            let v = rng.gen_range(u + 1..n);
            add_edge(&mut b, rng, u, v, false);
        }
    }
    for _ in 0..cfg.back_edges {
        if n >= 2 {
            let v = rng.gen_range(0..n - 1);
            let u = rng.gen_range(v + 1..n);
            add_edge(&mut b, rng, u, v, true);
        }
    }
    for &id in &ids {
        if rng.gen_range(0..100) < cfg.self_loop_percent {
            let c = rng.gen_range(1..=cfg.max_rate_multiplier.max(1));
            b.channel(id, id, c, c, c).expect("valid");
        }
    }
    b.build().expect("construction is valid")
}

/// Generates a random consistent, live *homogeneous* SDF graph (all rates
/// 1) — the input class of the abstraction machinery.
pub fn random_live_hsdf<R: Rng>(rng: &mut R, cfg: &RandomSdfConfig) -> SdfGraph {
    let mut unit = cfg.clone();
    unit.max_gamma = 1;
    unit.max_rate_multiplier = 1;
    random_live_sdf(rng, &unit)
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Checks the generator's guarantees on an instance (used by tests).
///
/// # Errors
///
/// Propagates analysis errors — which would indicate a generator bug.
pub fn validate(g: &SdfGraph) -> Result<(), SdfError> {
    sdfr_graph::liveness::check_live(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_graphs_are_consistent_and_live() {
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = RandomSdfConfig::default();
        for _ in 0..200 {
            let g = random_live_sdf(&mut rng, &cfg);
            validate(&g).unwrap_or_else(|e| panic!("{e}\n{g}"));
        }
    }

    #[test]
    fn homogeneous_generator_is_homogeneous() {
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = RandomSdfConfig::default();
        for _ in 0..100 {
            let g = random_live_hsdf(&mut rng, &cfg);
            assert!(g.is_homogeneous());
            validate(&g).unwrap();
        }
    }

    #[test]
    fn respects_size_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = RandomSdfConfig {
            min_actors: 4,
            max_actors: 5,
            ..RandomSdfConfig::default()
        };
        for _ in 0..50 {
            let g = random_live_sdf(&mut rng, &cfg);
            assert!((4..=5).contains(&g.num_actors()));
        }
    }
}

/// Generates a random consistent, live cyclo-static graph: a chain with
/// token-buffered back edges, cycle-level rates derived from sampled
/// repetition entries and split randomly across 1–3 phases per actor.
/// Every actor is serialized by a one-token self-loop so phase order is
/// respected.
pub fn random_live_csdf<R: Rng>(rng: &mut R, cfg: &RandomSdfConfig) -> sdfr_csdf::CsdfGraph {
    assert!(cfg.min_actors >= 1 && cfg.min_actors <= cfg.max_actors);
    let n = rng.gen_range(cfg.min_actors..=cfg.max_actors);
    let gamma: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=cfg.max_gamma)).collect();
    let phases: Vec<usize> = (0..n).map(|_| rng.gen_range(1..=3)).collect();

    let mut b = sdfr_csdf::CsdfGraph::builder("random-csdf");
    let ids: Vec<_> = (0..n)
        .map(|i| {
            let times: Vec<i64> = (0..phases[i])
                .map(|_| rng.gen_range(0..=cfg.max_time))
                .collect();
            b.actor(format!("r{i}"), times)
        })
        .collect();

    // Random split of `total` over `parts` non-negative summands with at
    // least one token somewhere.
    fn split<R: Rng>(rng: &mut R, total: u64, parts: usize) -> Vec<u64> {
        let mut out = vec![0u64; parts];
        for _ in 0..total {
            out[rng.gen_range(0..parts)] += 1;
        }
        out
    }

    let add_edge = |b: &mut sdfr_csdf::CsdfBuilder, rng: &mut R, u: usize, v: usize, live: bool| {
        let g = gcd(gamma[u], gamma[v]);
        // Per-cycle totals balancing γ(u)·P = γ(v)·C, kept at least 1.
        let (p_total, c_total) = (gamma[v] / g, gamma[u] / g);
        let d = if live { c_total * gamma[v] } else { 0 };
        let prod = split(rng, p_total, phases[u]);
        let cons = split(rng, c_total, phases[v]);
        b.channel(ids[u], ids[v], prod, cons, d)
            .expect("totals are at least 1");
    };

    for i in 0..n - 1 {
        add_edge(&mut b, rng, i, i + 1, false);
    }
    for _ in 0..cfg.back_edges {
        if n >= 2 {
            let v = rng.gen_range(0..n - 1);
            let u = rng.gen_range(v + 1..n);
            add_edge(&mut b, rng, u, v, true);
        }
    }
    for (i, &id) in ids.iter().enumerate() {
        let ones = vec![1u64; phases[i]];
        b.channel(id, id, ones.clone(), ones, 1)
            .expect("self-loop patterns are valid");
    }
    b.build().expect("construction is valid")
}

#[cfg(test)]
mod csdf_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn csdf_generator_is_consistent_and_live() {
        let mut rng = StdRng::seed_from_u64(21);
        let cfg = RandomSdfConfig::default();
        for _ in 0..100 {
            let g = random_live_csdf(&mut rng, &cfg);
            sdfr_csdf::repetition_vector(&g).unwrap_or_else(|e| panic!("inconsistent: {e}\n{g}"));
            sdfr_csdf::symbolic_iteration(&g).unwrap_or_else(|e| panic!("deadlock: {e}\n{g}"));
        }
    }
}
