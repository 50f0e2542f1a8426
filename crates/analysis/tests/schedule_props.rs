//! Differential property tests for static schedule synthesis: the sparse
//! longest-path potentials behind [`rate_optimal_schedule`] and
//! [`schedule_with_period`] must give exactly the start times of the dense
//! max-plus route `M* ⊗ 0`, where `M[b][a] = scale·T(a) − scaled_period·d`
//! is the constraint matrix and `M*` its Kleene star — at the rate-optimal
//! period λ, at slack periods μ > λ with fractional values, and with no
//! schedule at all below λ.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sdfr_analysis::mcm::CycleRatio;
use sdfr_analysis::static_schedule::{rate_optimal_schedule, schedule_with_period};
use sdfr_analysis::throughput::hsdf_period;
use sdfr_graph::{SdfError, SdfGraph};
use sdfr_maxplus::{closure, Mp, MpError, MpMatrix, MpVector, Rational};

/// A random HSDF graph: up to 8 actors, up to 16 channels with 0–3
/// initial tokens, so fractional periods, acyclic graphs and zero-token
/// cycles all occur.
fn random_hsdf(rng: &mut StdRng) -> SdfGraph {
    let n = rng.gen_range(1..=8);
    let mut b = SdfGraph::builder("h");
    let actors: Vec<_> = (0..n)
        .map(|i| b.actor(format!("a{i}"), rng.gen_range(0..=20)))
        .collect();
    for _ in 0..rng.gen_range(0..=16) {
        let (x, y) = (rng.gen_range(0..n), rng.gen_range(0..n));
        b.channel(actors[x], actors[y], 1, 1, rng.gen_range(0..=3))
            .unwrap();
    }
    b.build().unwrap()
}

/// The dense oracle: `M* ⊗ 0` at period `mu`, or `None` when the star
/// diverges (no admissible schedule).
fn dense_starts(g: &SdfGraph, mu: Rational) -> Option<Vec<i64>> {
    let n = g.num_actors();
    let (scale, scaled_period) = (mu.denom(), mu.numer());
    let mut m = MpMatrix::neg_inf(n, n);
    for (_, c) in g.channels() {
        let w = scale * g.actor(c.source()).execution_time()
            - scaled_period * c.initial_tokens() as i64;
        let (i, j) = (c.target().index(), c.source().index());
        if Mp::fin(w) > m.get(i, j) {
            m.set(i, j, Mp::fin(w));
        }
    }
    let star = closure::star(&m).unwrap().closure()?;
    let starts = star.apply(&MpVector::zeros(n)).unwrap();
    Some(
        starts
            .iter()
            .map(|e| e.finite().expect("finite seed"))
            .collect(),
    )
}

fn sparse_starts(g: &SdfGraph, mu: Rational) -> Result<Vec<i64>, SdfError> {
    let s = schedule_with_period(g, mu)?;
    Ok(g.actor_ids().map(|a| s.scaled_start(a)).collect())
}

/// A random positive slack with a fractional part.
fn slack(rng: &mut StdRng) -> Rational {
    Rational::new(rng.gen_range(1..=9), rng.gen_range(1..=5))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sparse_starts_match_the_dense_star(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_hsdf(&mut rng);
        match hsdf_period(&g).unwrap() {
            CycleRatio::Finite(lambda) => {
                let s = rate_optimal_schedule(&g).unwrap().expect("cyclic");
                prop_assert_eq!(s.period(), lambda);
                prop_assert!(s.is_admissible(&g));
                let starts: Vec<i64> = g.actor_ids().map(|a| s.scaled_start(a)).collect();
                prop_assert_eq!(Some(starts), dense_starts(&g, lambda), "{}", g);

                let mu = lambda + slack(&mut rng);
                let slow = sparse_starts(&g, mu).unwrap();
                prop_assert_eq!(Some(slow), dense_starts(&g, mu), "{} at {}", g, mu);

                // Below λ the critical cycle turns positive: neither route
                // has a schedule.
                let below = lambda - slack(&mut rng);
                prop_assert!(
                    matches!(sparse_starts(&g, below), Err(SdfError::Deadlock { .. })),
                    "{} at {}", g, below
                );
                prop_assert_eq!(dense_starts(&g, below), None);
                let edges = g.channels().map(|(_, c)| {
                    let t = g.actor(c.source()).execution_time();
                    (c.source().index(), c.target().index(), t, c.initial_tokens())
                });
                prop_assert_eq!(
                    closure::potentials(g.num_actors(), edges, below),
                    Err(MpError::PositiveCycle)
                );
            }
            CycleRatio::Acyclic => {
                prop_assert_eq!(rate_optimal_schedule(&g).unwrap(), None);
                let mu = slack(&mut rng);
                let starts = sparse_starts(&g, mu).unwrap();
                prop_assert_eq!(Some(starts), dense_starts(&g, mu), "{} at {}", g, mu);
            }
            CycleRatio::ZeroTokenCycle => {
                prop_assert!(matches!(
                    rate_optimal_schedule(&g),
                    Err(SdfError::Deadlock { .. })
                ));
            }
        }
    }
}
