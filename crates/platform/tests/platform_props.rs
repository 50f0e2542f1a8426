//! Property tests: platform transformations are conservative — binding,
//! arbitration and interconnect modelling never make a graph faster. This
//! is the Prop. 1 monotonicity argument exercised end to end.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sdfr_analysis::throughput::throughput;
use sdfr_benchmarks::random::{random_live_hsdf, random_live_sdf, RandomSdfConfig};
use sdfr_graph::{ChannelId, SdfError};
use sdfr_platform::noc::{insert_connection, ConnectionLatency};
use sdfr_platform::{apply_mapping, apply_tdm, Mapping, TdmSlot};

fn period_of(g: &sdfr_graph::SdfGraph) -> Result<Option<sdfr_maxplus::Rational>, SdfError> {
    Ok(throughput(g)?.period())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// TDM inflation never decreases the period.
    #[test]
    fn tdm_is_conservative(seed in any::<u64>(), slot in 1i64..5, extra in 0i64..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_live_sdf(&mut rng, &RandomSdfConfig::default());
        let base = period_of(&g).unwrap();
        let wheel = slot + extra;
        let slots: Vec<_> = g
            .actor_ids()
            .map(|a| (a, TdmSlot::new(slot, wheel)))
            .collect();
        let shared = apply_tdm(&g, &slots).unwrap();
        let inflated = period_of(&shared).unwrap();
        match (base, inflated) {
            (Some(b), Some(i)) => prop_assert!(i >= b, "{i} >= {b}\n{g}"),
            (None, _) => {} // unbounded stays unbounded or becomes bounded-free
            (Some(_), None) => prop_assert!(false, "inflation cannot unbound"),
        }
    }

    /// Binding any two actors of a live HSDF graph to one processor (in an
    /// order compatible with the token-free topology) never decreases the
    /// period.
    #[test]
    fn mapping_is_conservative(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_live_hsdf(&mut rng, &RandomSdfConfig {
            min_actors: 2,
            max_actors: 6,
            ..RandomSdfConfig::default()
        });
        let base = period_of(&g).unwrap();
        // Pick two distinct actors in topological-ish order (by id, which
        // the generator lays out along its spanning chain).
        let n = g.num_actors();
        let i = rng.gen_range(0..n - 1);
        let j = rng.gen_range(i + 1..n);
        let a = sdfr_graph::ActorId::from_index(i);
        let b = sdfr_graph::ActorId::from_index(j);
        let mut m = Mapping::new();
        m.processor([a, b]);
        let mapped = apply_mapping(&g, &m).unwrap();
        match (base, period_of(&mapped)) {
            (Some(base), Ok(Some(p))) => prop_assert!(p >= base, "{p} >= {base}\n{g}"),
            // The chosen static order may deadlock against existing
            // back-edges: a legitimate (infinitely slow) outcome.
            (_, Err(SdfError::Deadlock { .. })) => {}
            (None, Ok(_)) => {}
            (Some(_), Ok(None)) => prop_assert!(false, "mapping cannot unbound"),
            (_, Err(e)) => prop_assert!(false, "unexpected error {e}"),
        }
    }

    /// Inserting a NoC connection on any channel never decreases the
    /// period, and with zero latencies it preserves it for serialized
    /// stages.
    #[test]
    fn noc_is_conservative(seed in any::<u64>(), ca in 0i64..4, link in 0i64..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_live_sdf(&mut rng, &RandomSdfConfig::default());
        if g.num_channels() == 0 {
            return Ok(());
        }
        let target = ChannelId::from_index(rng.gen_range(0..g.num_channels()));
        // Self-loop channels keep their role; skip them as NoC targets.
        if g.channel(target).is_self_loop() {
            return Ok(());
        }
        let base = period_of(&g).unwrap();
        let noc = insert_connection(&g, target, ConnectionLatency::symmetric(ca, link)).unwrap();
        let with_noc = period_of(&noc).unwrap();
        match (base, with_noc) {
            (Some(b), Some(w)) => prop_assert!(w >= b, "{w} >= {b}\n{g}"),
            (None, _) => {}
            // The stage self-loops serialize transport: a previously
            // unbounded graph can become bounded, but never the converse.
            (Some(_), None) => prop_assert!(false, "noc cannot unbound"),
        }
    }
}
