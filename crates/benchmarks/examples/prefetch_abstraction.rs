//! The paper's Fig. 5 case study as a library workflow: build the NoC
//! remote-memory prefetch model (1584 block computations per video frame),
//! derive its abstraction automatically, verify conservativity
//! mechanically, and compare throughput.
//!
//! Run with `cargo run --release --example prefetch_abstraction`.

use sdfr_analysis::throughput::throughput;
use sdfr_benchmarks::regular::prefetch_model;
use sdfr_core::abstract_graph;
use sdfr_core::auto::auto_abstraction;
use sdfr_core::conservativity::{conservative_period_bound, verify_abstraction};
use sdfr_graph::dot;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let blocks = 1584;
    let g = prefetch_model(blocks);
    println!(
        "original model: {} actors, {} channels ({} blocks per frame)",
        g.num_actors(),
        g.num_channels(),
        blocks
    );

    // Group actors by their name pattern (req*, ca_in*, mem*, ca_out*,
    // cmp*) and derive Def. 3 indices automatically.
    let abs = auto_abstraction(&g)?;
    println!(
        "abstraction: {} groups, cycle length N = {}",
        abs.num_groups(),
        abs.cycle_length()
    );

    // The abstract graph is the five-actor model on the right of Fig. 5.
    let small = abstract_graph(&g, &abs)?;
    println!(
        "abstract model: {} actors, {} channels",
        small.num_actors(),
        small.num_channels()
    );
    println!("\n{}", dot::to_dot(&small));

    // Mechanically check the premises of Prop. 1 (Sec. 5) for this
    // instance: the unfolded abstract graph refines the original.
    match verify_abstraction(&g, &abs)? {
        Ok(()) => println!("Prop. 1 premises verified: the abstraction is conservative"),
        Err(v) => {
            eprintln!("conservativity violated: {v}");
            std::process::exit(1);
        }
    }

    // Compare exact throughput with the conservative estimate.
    let exact = throughput(&g)?
        .period()
        .expect("model has a critical cycle");
    let bound = conservative_period_bound(&g, &abs)?.expect("abstract model too");
    println!("exact iteration period        : {exact}");
    println!("conservative estimate (N * l'): {bound}");
    if exact == bound {
        println!("the abstraction is exact for this model, as the paper reports");
    }
    Ok(())
}
