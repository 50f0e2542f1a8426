//! Property tests of the graph substrate: schedule admissibility,
//! simulation invariants, and the interplay between them, on random
//! consistent, live graphs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sdfr_benchmarks::random::{random_live_sdf, RandomSdfConfig};
use sdfr_graph::execution::{simulate, SimulationOptions};
use sdfr_graph::repetition::repetition_vector;
use sdfr_graph::schedule::{is_valid_schedule, sequential_schedule};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Generated schedules are admissible and fire γ(a) times per actor.
    #[test]
    fn schedules_are_valid(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_live_sdf(&mut rng, &RandomSdfConfig::default());
        let gamma = repetition_vector(&g).unwrap();
        let s = sequential_schedule(&g, &gamma).unwrap();
        prop_assert!(is_valid_schedule(&g, &gamma, &s), "{}", g);
        prop_assert_eq!(s.len() as u64, gamma.iteration_length());
    }

    /// Self-timed simulation fires exactly `iterations · γ(a)` times, its
    /// iteration completion times are non-decreasing, and peaks dominate
    /// the initial token counts.
    #[test]
    fn simulation_invariants(seed in any::<u64>(), iters in 1u64..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_live_sdf(&mut rng, &RandomSdfConfig::default());
        let gamma = repetition_vector(&g).unwrap();
        let trace = simulate(&g, &SimulationOptions::iterations(iters)).unwrap();
        for (a, count) in gamma.iter() {
            prop_assert_eq!(trace.fire_counts[a.index()], count * iters);
        }
        prop_assert_eq!(trace.iteration_completions.len(), iters as usize);
        let mut prev = 0;
        for &t in &trace.iteration_completions {
            prop_assert!(t >= prev);
            prev = t;
        }
        prop_assert_eq!(trace.makespan, *trace.iteration_completions.last().unwrap());
        for (cid, c) in g.channels() {
            prop_assert!(trace.channel_peak_tokens[cid.index()] >= c.initial_tokens());
        }
    }

    /// Recorded firings are consistent: starts are non-decreasing per
    /// actor, every end = start + execution time, and counts match.
    #[test]
    fn firing_records_consistent(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_live_sdf(&mut rng, &RandomSdfConfig::default());
        let trace = simulate(&g, &SimulationOptions::iterations(2).with_firings()).unwrap();
        let firings = trace.firings.as_ref().unwrap();
        for (a, actor) in g.actors() {
            let fs = &firings[a.index()];
            prop_assert_eq!(fs.len() as u64, trace.fire_counts[a.index()]);
            let mut prev_start = 0;
            for &(start, end) in fs {
                prop_assert_eq!(end - start, actor.execution_time());
                prop_assert!(start >= prev_start);
                prev_start = start;
            }
        }
    }

    /// Scaling all execution times by a constant scales completion times.
    #[test]
    fn time_scaling(seed in any::<u64>(), k in 2i64..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_live_sdf(&mut rng, &RandomSdfConfig::default());
        // Rebuild with scaled times.
        let mut b = sdfr_graph::SdfGraph::builder("scaled");
        let ids: Vec<_> = g
            .actors()
            .map(|(_, a)| b.actor(a.name().to_string(), a.execution_time() * k))
            .collect();
        for (_, c) in g.channels() {
            b.channel(
                ids[c.source().index()],
                ids[c.target().index()],
                c.production(),
                c.consumption(),
                c.initial_tokens(),
            )
            .unwrap();
        }
        let scaled = b.build().unwrap();
        let t1 = simulate(&g, &SimulationOptions::iterations(3)).unwrap();
        let t2 = simulate(&scaled, &SimulationOptions::iterations(3)).unwrap();
        prop_assert_eq!(t2.makespan, t1.makespan * k);
        for (a, b) in t1
            .iteration_completions
            .iter()
            .zip(&t2.iteration_completions)
        {
            prop_assert_eq!(*b, a * k);
        }
    }
}
