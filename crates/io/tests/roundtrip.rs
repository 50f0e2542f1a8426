//! Property tests: serialization round-trips in both formats, for the
//! benchmark suite and for random graphs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sdfr_benchmarks::random::{random_live_sdf, RandomSdfConfig};
use sdfr_benchmarks::{regular, table1};
use sdfr_io::{text, xml};

#[test]
fn benchmarks_round_trip_in_both_formats() {
    for case in table1::all() {
        let t = text::to_text(&case.graph);
        assert_eq!(text::from_text(&t).unwrap(), case.graph, "{}", case.name);
        let x = xml::to_xml(&case.graph);
        assert_eq!(xml::from_xml(&x).unwrap(), case.graph, "{}", case.name);
    }
    let f = regular::Figure1::new(12).graph;
    assert_eq!(text::from_text(&text::to_text(&f)).unwrap(), f);
    assert_eq!(xml::from_xml(&xml::to_xml(&f)).unwrap(), f);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_graphs_round_trip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_live_sdf(&mut rng, &RandomSdfConfig::default());
        prop_assert_eq!(&text::from_text(&text::to_text(&g)).unwrap(), &g);
        prop_assert_eq!(&xml::from_xml(&xml::to_xml(&g)).unwrap(), &g);
    }

    /// Cross-format: text -> graph -> xml -> graph is the identity too.
    #[test]
    fn cross_format_composition(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_live_sdf(&mut rng, &RandomSdfConfig::default());
        let via_xml = xml::from_xml(&xml::to_xml(
            &text::from_text(&text::to_text(&g)).unwrap(),
        ))
        .unwrap();
        prop_assert_eq!(via_xml, g);
    }
}
