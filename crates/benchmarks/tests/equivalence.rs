//! Property tests: both SDF→HSDF conversions preserve the iteration period
//! on random consistent, live, multirate graphs, and the three throughput
//! analysis routes agree.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sdfr_analysis::throughput::{estimate_period_simulated, throughput, throughput_state_space};
use sdfr_benchmarks::random::{random_live_sdf, RandomSdfConfig};
use sdfr_core::equivalence::validate_conversions;

fn config() -> RandomSdfConfig {
    RandomSdfConfig {
        min_actors: 2,
        max_actors: 6,
        max_gamma: 4,
        ..RandomSdfConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline equivalence claim of Sec. 6, on random multirate graphs.
    #[test]
    fn conversions_preserve_period(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_live_sdf(&mut rng, &config());
        let outcome = validate_conversions(&g).unwrap();
        prop_assert!(outcome.is_ok(), "period mismatch on\n{}: {:?}", g, outcome);
    }

    /// Spectral and state-space throughput agree exactly.
    #[test]
    fn analysis_routes_agree(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_live_sdf(&mut rng, &config());
        let spectral = throughput(&g).unwrap();
        let state_space = throughput_state_space(&g, 100_000).unwrap();
        prop_assert_eq!(spectral.period(), state_space.period(), "{}", g);
    }

    /// The event-driven simulator converges to the spectral period.
    #[test]
    fn simulation_converges_to_spectral(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_live_sdf(&mut rng, &config());
        let Some(period) = throughput(&g).unwrap().period() else {
            return Ok(()); // unbounded: nothing to compare
        };
        // Measure over a window that is a multiple of any small cyclicity.
        let measured = estimate_period_simulated(&g, 48, 24).unwrap();
        prop_assert_eq!(measured, period, "{}", g);
    }
}
