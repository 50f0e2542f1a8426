//! Property tests for the conservativity theorem (paper, Thm. 1) and the
//! unfolding correspondence (Prop. 2), over randomly generated graphs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sdfr_analysis::throughput::throughput;
use sdfr_benchmarks::random::{random_live_hsdf, RandomSdfConfig};
use sdfr_core::auto::auto_abstraction;
use sdfr_core::conservativity::{conservative_period_bound, verify_abstraction};
use sdfr_core::unfold::unfold;
use sdfr_core::CoreError;
use sdfr_maxplus::Rational;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every valid abstraction of every live HSDF graph passes the
    /// mechanical Prop. 1 premise check (the machinery the paper's proof is
    /// built on), and the resulting period bound is conservative.
    #[test]
    fn random_hsdf_abstractions_are_conservative(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = RandomSdfConfig {
            min_actors: 2,
            max_actors: 9,
            back_edges: 2,
            ..RandomSdfConfig::default()
        };
        let g = random_live_hsdf(&mut rng, &cfg);
        let abs = match auto_abstraction(&g) {
            Ok(abs) => abs,
            // The only legitimate failure is a zero-delay cycle, which the
            // generator never produces for live graphs.
            Err(e) => panic!("auto abstraction failed: {e}\n{g}"),
        };
        // Thm. 1's premises hold mechanically.
        prop_assert_eq!(verify_abstraction(&g, &abs).unwrap(), Ok(()));
        // And the throughput bound is conservative whenever the abstract
        // graph is analysable (a deadlocked abstract graph is the trivially
        // conservative "zero throughput" prediction).
        let actual = throughput(&g).unwrap().period();
        match conservative_period_bound(&g, &abs) {
            Ok(Some(bound)) => {
                if let Some(actual) = actual {
                    prop_assert!(
                        actual <= bound,
                        "period {} must be below bound {}\n{}",
                        actual,
                        bound,
                        g
                    );
                }
            }
            Ok(None) => {
                // No recurrent constraint in the abstract graph: only
                // conservative if the original also has none.
                prop_assert_eq!(actual, None);
            }
            Err(CoreError::Graph(_)) => {} // deadlocked abstract graph
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    /// Prop. 2: the N-fold unfolding has period N·λ per unfolded iteration.
    #[test]
    fn unfolding_scales_period(seed in any::<u64>(), n in 1u64..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = RandomSdfConfig {
            min_actors: 2,
            max_actors: 7,
            ..RandomSdfConfig::default()
        };
        let g = random_live_hsdf(&mut rng, &cfg);
        let u = unfold(&g, n);
        let p = throughput(&g).unwrap().period();
        let pu = throughput(&u).unwrap().period();
        prop_assert_eq!(pu, p.map(|p| p * Rational::from(n as i64)));
    }

    /// Grouping everything into a single abstract actor (the coarsest
    /// abstraction) still verifies and still bounds.
    #[test]
    fn coarsest_abstraction_is_conservative(seed in any::<u64>()) {
        use sdfr_core::auto::auto_abstraction_with;
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = RandomSdfConfig {
            min_actors: 2,
            max_actors: 6,
            ..RandomSdfConfig::default()
        };
        let g = random_live_hsdf(&mut rng, &cfg);
        let abs = auto_abstraction_with(&g, |_| "ALL".to_string()).unwrap();
        prop_assert_eq!(verify_abstraction(&g, &abs).unwrap(), Ok(()));
        let actual = throughput(&g).unwrap().period();
        if let (Some(actual), Ok(Some(bound))) =
            (actual, conservative_period_bound(&g, &abs))
        {
            prop_assert!(actual <= bound);
        }
    }
}
