//! Property tests for the cyclo-static extension: the compact HSDF
//! conversion preserves the iteration period, serialization round-trips,
//! and one iteration costs exactly its phase firings — on random live CSDF
//! graphs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sdf_reductions::analysis::throughput::hsdf_period;
use sdf_reductions::benchmarks::random::{random_live_csdf, RandomSdfConfig};
use sdf_reductions::csdf;
use sdf_reductions::graph::budget::Budget;
use sdf_reductions::graph::SdfError;
use sdf_reductions::io::csdf as csdf_io;

fn config() -> RandomSdfConfig {
    RandomSdfConfig {
        min_actors: 2,
        max_actors: 5,
        max_gamma: 4,
        ..RandomSdfConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The paper's conversion, applied to CSDF: the compact HSDF has the
    /// same iteration period.
    #[test]
    fn csdf_hsdf_conversion_preserves_period(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_live_csdf(&mut rng, &config());
        let thr = csdf::throughput(&g).unwrap();
        let hsdf = csdf::to_hsdf(&g).unwrap();
        prop_assert!(hsdf.is_homogeneous());
        prop_assert_eq!(hsdf_period(&hsdf).unwrap().finite(), thr.period, "{}", g);
    }

    /// Text and XML round-trips are exact for CSDF graphs.
    #[test]
    fn csdf_serialization_round_trips(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_live_csdf(&mut rng, &config());
        prop_assert_eq!(&csdf_io::from_text(&csdf_io::to_text(&g)).unwrap(), &g);
        prop_assert_eq!(&csdf_io::from_xml(&csdf_io::to_xml(&g)).unwrap(), &g);
    }

    /// One iteration is exactly the phase-level iteration length: it
    /// completes under that firing cap and exhausts one firing below it.
    #[test]
    fn csdf_schedule_covers_iteration(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_live_csdf(&mut rng, &config());
        let rep = csdf::repetition_vector(&g).unwrap();
        let len = rep.iteration_length(&g);
        let cap = |n| Budget::unlimited().with_max_firings(n);
        prop_assert!(csdf::symbolic_iteration_capped(&g, &cap(len)).is_ok(), "{}", g);
        let short = csdf::symbolic_iteration_capped(&g, &cap(len - 1));
        prop_assert!(matches!(short, Err(SdfError::Exhausted { .. })), "{}", g);
    }
}
