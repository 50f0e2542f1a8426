//! Design-space exploration with the analysis stack: sweep the capacity of
//! a backpressure loop and observe the throughput/buffer/latency trade-off
//! — the style of exploration the paper's reductions make cheap.
//!
//! Run with `cargo run --example buffer_latency`.

use sdfr_analysis::buffer::{
    minimize_capacities, self_timed_buffer_bounds, throughput_buffer_tradeoff,
};
use sdfr_analysis::latency::iteration_makespan;
use sdfr_analysis::throughput::throughput;
use sdfr_graph::SdfGraph;

/// A three-stage pipeline where the first and last stage are coupled by a
/// credit loop of `credits` tokens (a bounded output FIFO).
fn pipeline(credits: u64) -> SdfGraph {
    let mut b = SdfGraph::builder(format!("pipeline(credits={credits})"));
    let src = b.actor("src", 2);
    let mid = b.actor("mid", 5);
    let snk = b.actor("snk", 3);
    b.channel(src, mid, 1, 1, 0).expect("valid");
    b.channel(mid, snk, 1, 1, 0).expect("valid");
    b.channel(snk, src, 1, 1, credits).expect("valid");
    // Stages process one item at a time.
    for a in [src, mid, snk] {
        b.channel(a, a, 1, 1, 1).expect("valid");
    }
    b.build().expect("valid")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("credits  period  throughput  makespan  buffer(src->mid)  buffer(mid->snk)");
    println!("--------------------------------------------------------------------------");
    for credits in 1..=6 {
        let g = pipeline(credits);
        let thr = throughput(&g)?;
        let period = thr.period().expect("credit loop bounds the pipeline");
        let makespan = iteration_makespan(&g)?;
        let buffers = self_timed_buffer_bounds(&g, 16)?;
        println!(
            "{credits:>7}  {:>6}  {:>10}  {makespan:>8}  {:>16}  {:>16}",
            period.to_string(),
            thr.iteration_throughput()
                .map_or("inf".to_string(), |t| t.to_string()),
            buffers[0],
            buffers[1],
        );
    }
    println!(
        "\nThe period saturates at the bottleneck stage (5) once enough credits\n\
         decouple the loop; beyond that, extra credits only add buffering."
    );

    // The throughput/buffer trade-off curve of the 3-credit instance, in the
    // style of the exact exploration the paper cites (Stuijk et al.).
    let g = pipeline(3);
    println!("\nthroughput/buffer trade-off (credits = 3):");
    println!("total capacity  period");
    for point in throughput_buffer_tradeoff(&g, 16)? {
        println!(
            "{:>14}  {}",
            point.total,
            point
                .period
                .map_or("deadlock".to_string(), |p| p.to_string())
        );
    }
    let minimal = minimize_capacities(&g, 16)?;
    println!("minimal throughput-preserving capacities: {minimal:?}");
    Ok(())
}
