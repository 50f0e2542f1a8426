//! End-to-end MPSoC flow, the paper's motivating use case: take an
//! application graph, map it onto a platform (shared processors, TDM
//! arbitration, a NoC connection), analyse the mapped model, and reduce it
//! with the paper's techniques.
//!
//! Run with `cargo run --example mpsoc_mapping`.

use sdfr_analysis::bottleneck::bottleneck;
use sdfr_analysis::throughput::throughput;
use sdfr_core::recommend::{best_conversion, predict_sizes};
use sdfr_graph::{ChannelId, SdfGraph};
use sdfr_platform::noc::{insert_connection, ConnectionLatency};
use sdfr_platform::{apply_mapping, apply_tdm, Mapping, TdmSlot};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The application: a four-stage video pipeline with a frame buffer.
    let mut b = SdfGraph::builder("video");
    let capture = b.actor("capture", 3);
    let filter = b.actor("filter", 8);
    let encode = b.actor("encode", 11);
    let output = b.actor("output", 2);
    let noc_channel: ChannelId = b.channel(filter, encode, 1, 1, 0)?;
    b.channel(capture, filter, 1, 1, 0)?;
    b.channel(encode, output, 1, 1, 0)?;
    b.channel(output, capture, 1, 1, 3)?; // triple buffering
    let app = b.build()?;
    let ideal = throughput(&app)?
        .period()
        .expect("frame buffer bounds the rate");
    println!("application period (ideal platform): {ideal}");

    // Platform step 1: filter and encode sit on different tiles; their
    // channel crosses the NoC through communication assists.
    let g = insert_connection(&app, noc_channel, ConnectionLatency::symmetric(1, 4))?;

    // Platform step 2: capture and output share a control processor.
    let capture = g.actor_by_name("capture").expect("kept by transform");
    let output = g.actor_by_name("output").expect("kept by transform");
    let mut m = Mapping::new();
    m.processor([capture, output]);
    let g = apply_mapping(&g, &m)?;

    // Platform step 3: the filter shares a DSP under TDM (3 of 6 slots).
    let filter = g.actor_by_name("filter").expect("kept by transform");
    let g = apply_tdm(&g, &[(filter, TdmSlot::new(3, 6))])?;

    println!(
        "mapped model: {} actors, {} channels",
        g.num_actors(),
        g.num_channels()
    );
    let mapped = throughput(&g)?.period().expect("platform bounds the rate");
    println!("mapped period (conservative): {mapped}");
    if let Some(report) = bottleneck(&g)? {
        let names: Vec<&str> = report.actors.iter().map(|&a| g.actor(a).name()).collect();
        println!("bottleneck: {}", names.join(" -> "));
    }

    // Reduction: pick the smaller HSDF conversion, as the paper advises.
    let p = predict_sizes(&g)?;
    println!(
        "conversion prediction: traditional = {}, novel <= {}",
        p.traditional_actors, p.novel_actor_bound
    );
    let (choice, reduced) = best_conversion(&g)?;
    println!(
        "{choice:?} conversion chosen: {} actors, {} channels",
        reduced.num_actors(),
        reduced.num_channels()
    );
    Ok(())
}
