//! Cross-crate property tests of the analysis stack on random graphs:
//! auto-concurrency monotonicity, schedule synthesis on converted graphs,
//! bottleneck sanity, and buffer minimization.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sdfr_analysis::bottleneck::bottleneck;
use sdfr_analysis::buffer::{minimize_capacities, period_with_capacities};
use sdfr_analysis::static_schedule::rate_optimal_schedule;
use sdfr_analysis::throughput::throughput;
use sdfr_benchmarks::random::{random_live_sdf, RandomSdfConfig};
use sdfr_core::novel;

fn config() -> RandomSdfConfig {
    RandomSdfConfig {
        min_actors: 2,
        max_actors: 6,
        max_gamma: 4,
        ..RandomSdfConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tightening auto-concurrency only slows a graph; loosening it only
    /// speeds it up (monotone in the bound).
    #[test]
    fn auto_concurrency_is_monotone(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_live_sdf(&mut rng, &config());
        let unbounded = throughput(&g).unwrap().period();
        let mut prev = None; // period at the previous (smaller) bound
        for bound in [1u64, 2, 4, 8] {
            let b = g.with_auto_concurrency(bound);
            let p = throughput(&b).unwrap().period();
            // Bounded is never faster than unbounded.
            if let (Some(pb), Some(pu)) = (p, unbounded) {
                prop_assert!(pb >= pu, "bound {bound}: {pb} >= {pu}\n{g}");
            }
            prop_assert!(p.is_some(), "a bounded graph has a finite period");
            // Larger bounds never slow it down.
            if let (Some(prev), Some(cur)) = (prev, p) {
                prop_assert!(cur <= prev, "bound {bound}: {cur} <= {prev}\n{g}");
            }
            prev = p;
        }
    }

    /// The novel conversion's HSDF admits a rate-optimal static schedule
    /// whose period equals the original graph's.
    #[test]
    fn converted_graphs_schedule_rate_optimally(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_live_sdf(&mut rng, &config());
        let original = throughput(&g).unwrap().period();
        let conv = novel::convert(&g).unwrap();
        match rate_optimal_schedule(&conv.graph).unwrap() {
            Some(s) => {
                prop_assert!(s.is_admissible(&conv.graph));
                prop_assert_eq!(Some(s.period()), original, "{}", g);
            }
            None => prop_assert_eq!(original, None, "{}", g),
        }
    }

    /// The bottleneck report names real channels/actors and its period
    /// matches the throughput analysis.
    #[test]
    fn bottleneck_is_sane(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_live_sdf(&mut rng, &config());
        let period = throughput(&g).unwrap().period();
        match bottleneck(&g).unwrap() {
            Some(report) => {
                prop_assert_eq!(Some(report.period), period);
                prop_assert!(!report.tokens.is_empty());
                for c in &report.channels {
                    prop_assert!(c.index() < g.num_channels());
                    // Critical channels carry initial tokens.
                    prop_assert!(g.channel(*c).initial_tokens() > 0);
                }
                for a in &report.actors {
                    prop_assert!(a.index() < g.num_actors());
                }
            }
            None => prop_assert_eq!(period, None),
        }
    }

    /// Minimized capacities stay feasible and throughput-preserving.
    #[test]
    fn minimized_capacities_preserve_period(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Keep instances small: each probe is a full spectral analysis.
        let g = random_live_sdf(&mut rng, &RandomSdfConfig {
            min_actors: 2,
            max_actors: 4,
            max_gamma: 3,
            extra_forward_edges: 1,
            back_edges: 1,
            ..RandomSdfConfig::default()
        });
        let target = throughput(&g).unwrap().period();
        let caps = minimize_capacities(&g, 8).unwrap();
        prop_assert_eq!(period_with_capacities(&g, &caps).unwrap(), target, "{}", g);
    }
}
