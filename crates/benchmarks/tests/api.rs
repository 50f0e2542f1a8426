//! Smoke test of the public API: a complete user workflow through the
//! graph, analysis, core, io and maxplus crates.

use sdfr_analysis::buffer::self_timed_buffer_bounds;
use sdfr_analysis::latency::iteration_makespan;
use sdfr_analysis::throughput::throughput;
use sdfr_core::auto::auto_abstraction;
use sdfr_core::conservativity::conservative_period_bound;
use sdfr_core::{abstract_graph, novel, traditional};
use sdfr_graph::repetition::repetition_vector;
use sdfr_graph::{dot, SdfGraph};
use sdfr_io::text;
use sdfr_maxplus::Rational;

#[test]
fn full_workflow() {
    // 1. Model: a two-stage pipeline with feedback, defined in text form.
    let g: SdfGraph = text::from_text(
        "graph demo\n\
         actor produce1 2\n\
         actor produce2 2\n\
         actor consume1 3\n\
         channel produce1 produce2 1 1 0\n\
         channel produce2 consume1 2 1 0\n\
         channel consume1 produce1 1 2 4\n",
    )
    .unwrap();

    // 2. Basic analyses.
    let gamma = repetition_vector(&g).unwrap();
    assert_eq!(gamma.iteration_length(), 4); // (1, 1, 2)
    let thr = throughput(&g).unwrap();
    let period = thr.period().unwrap();
    assert!(period > Rational::ZERO);
    assert!(iteration_makespan(&g).unwrap() >= 5);
    let buffers = self_timed_buffer_bounds(&g, 8).unwrap();
    assert_eq!(buffers.len(), g.num_channels());

    // 3. Conversions.
    let trad = traditional::convert(&g).unwrap();
    assert_eq!(trad.graph.num_actors(), 4);
    let new = novel::convert(&g).unwrap();
    assert!(new.graph.num_actors() <= new.actor_bound());

    // 4. Abstraction of the traditional HSDF expansion (the multirate
    //    pipeline of the paper: convert to HSDF first, then abstract).
    let abs = auto_abstraction(&trad.graph).unwrap();
    let small = abstract_graph(&trad.graph, &abs).unwrap();
    assert!(small.num_actors() <= trad.graph.num_actors());
    let bound = conservative_period_bound(&trad.graph, &abs)
        .unwrap()
        .unwrap();
    assert!(period <= bound);

    // 5. Export.
    assert!(dot::to_dot(&small).starts_with("digraph"));
}
