//! Quickstart: build a small multirate SDF graph, analyse it, and convert
//! it to a compact HSDF graph.
//!
//! Run with `cargo run --example quickstart`.

use sdfr_analysis::latency::iteration_makespan;
use sdfr_analysis::throughput::throughput;
use sdfr_core::{novel, traditional};
use sdfr_graph::repetition::repetition_vector;
use sdfr_graph::SdfGraph;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An MP3-ish decoder: a frame parser feeding a block pipeline, with a
    // feedback channel modelling a 6-slot output buffer.
    let mut b = SdfGraph::builder("quickstart");
    let parse = b.actor("parse", 4);
    let decode = b.actor("decode", 3);
    let render = b.actor("render", 2);
    b.channel(parse, decode, 2, 1, 0)?; // one parse yields 2 blocks
    b.channel(decode, render, 1, 3, 0)?; // render drains 3 blocks at once
    b.channel(render, parse, 3, 2, 6)?; // 6-token backpressure loop

    let g = b.build()?;
    println!("{g}");

    // Consistency and the repetition vector.
    let gamma = repetition_vector(&g)?;
    println!("repetition vector:");
    for (a, count) in gamma.iter() {
        println!(
            "  {} fires {} time(s) per iteration",
            g.actor(a).name(),
            count
        );
    }

    // Exact throughput (spectral, via the max-plus matrix of one iteration).
    let thr = throughput(&g)?;
    match thr.period() {
        Some(period) => {
            println!("iteration period: {period}");
            for (a, _) in g.actors() {
                println!(
                    "  throughput({}) = {} firings per time unit",
                    g.actor(a).name(),
                    thr.actor_throughput(a).expect("finite period")
                );
            }
        }
        None => println!("throughput is unbounded (no recurrent dependency)"),
    }
    println!("first-iteration makespan: {}", iteration_makespan(&g)?);

    // The two SDF -> HSDF conversions of the paper.
    let trad = traditional::convert(&g)?;
    let new = novel::convert(&g)?;
    println!(
        "traditional conversion: {} actors, {} channels",
        trad.graph.num_actors(),
        trad.graph.num_channels()
    );
    println!(
        "novel conversion:       {} actors, {} channels, {} tokens (bound: {} actors)",
        new.graph.num_actors(),
        new.graph.num_channels(),
        new.graph.total_initial_tokens(),
        new.actor_bound()
    );
    println!(
        "\nmax-plus matrix of one iteration:\n{}",
        new.symbolic.matrix
    );
    Ok(())
}
