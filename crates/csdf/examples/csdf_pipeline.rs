//! Cyclo-static dataflow: analyse a phase-accurate pipeline that plain SDF
//! cannot express, then reduce it with the paper's compact HSDF conversion.
//!
//! Run with `cargo run --example csdf_pipeline`.

use sdfr_analysis::throughput::hsdf_period;
use sdfr_csdf::CsdfGraph;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A deinterleaving receiver: the radio delivers a burst of 2 samples,
    // then idles a phase; the equalizer works sample by sample; the slicer
    // consumes one symbol per firing but only emits a decision every
    // second firing.
    let mut b = CsdfGraph::builder("receiver");
    let radio = b.actor("radio", [3, 1]);
    let eq = b.actor("eq", [2]);
    let slicer = b.actor("slicer", [1, 2]);
    b.channel(radio, eq, [2, 0], [1], 0)?;
    b.channel(eq, slicer, [1], [1, 1], 0)?;
    b.channel(slicer, radio, [0, 1], [1, 0], 2)?; // burst credits
    for (a, phases) in [(radio, 2), (eq, 1), (slicer, 2)] {
        // One-token self-loops serialize the phases of each component.
        let ones = vec![1u64; phases];
        b.channel(a, a, ones.clone(), ones, 1)?;
    }
    let g = b.build()?;
    println!("{g}");

    let rep = sdfr_csdf::repetition_vector(&g)?;
    println!("phase firings per iteration: {}", rep.iteration_length(&g));

    let thr = sdfr_csdf::throughput(&g)?;
    let period = thr.period.expect("credit loop bounds the receiver");
    println!("iteration period: {period}");
    println!(
        "radio firings per time unit: {}",
        thr.actor_throughput(radio, 2).expect("finite period")
    );

    // The paper's compact conversion applies unchanged: the max-plus
    // matrix of one phase-accurate iteration realises as a small HSDF.
    let hsdf = sdfr_csdf::to_hsdf(&g)?;
    println!(
        "compact HSDF: {} actors, {} channels, {} tokens",
        hsdf.num_actors(),
        hsdf.num_channels(),
        hsdf.total_initial_tokens()
    );
    assert_eq!(hsdf_period(&hsdf)?.finite(), Some(period));
    println!("HSDF iteration period matches: {period}");
    Ok(())
}
