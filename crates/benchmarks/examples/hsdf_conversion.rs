//! Compare the classical and the novel SDF → HSDF conversion on the
//! CD-to-DAT sample-rate converter, and export the results.
//!
//! Run with `cargo run --example hsdf_conversion [-- <output-dir>]`; when an
//! output directory is given, the graphs are written there as SDF3-style
//! XML and Graphviz DOT files.

use sdfr_analysis::throughput::{hsdf_period, throughput};
use sdfr_benchmarks::table1::samplerate;
use sdfr_core::{novel, traditional};
use sdfr_graph::dot;
use sdfr_io::xml;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = samplerate();
    println!("{g}");

    let original_period = throughput(&g)?.period();
    println!("original iteration period: {original_period:?}\n");

    let trad = traditional::convert(&g)?;
    println!(
        "traditional conversion: {:5} actors, {:5} channels, {:5} tokens",
        trad.graph.num_actors(),
        trad.graph.num_channels(),
        trad.graph.total_initial_tokens()
    );
    let new = novel::convert(&g)?;
    println!(
        "novel conversion:       {:5} actors, {:5} channels, {:5} tokens",
        new.graph.num_actors(),
        new.graph.num_channels(),
        new.graph.total_initial_tokens()
    );
    println!(
        "reduction ratio: {:.1}x fewer actors",
        trad.graph.num_actors() as f64 / new.graph.num_actors() as f64
    );

    // Both are throughput-equivalent to the original.
    assert_eq!(hsdf_period(&trad.graph)?.finite(), original_period);
    assert_eq!(hsdf_period(&new.graph)?.finite(), original_period);
    println!("both conversions preserve the iteration period: {original_period:?}");

    if let Some(dir) = std::env::args().nth(1) {
        let dir = std::path::Path::new(&dir);
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("samplerate.xml"), xml::to_xml(&g))?;
        std::fs::write(dir.join("samplerate_novel.xml"), xml::to_xml(&new.graph))?;
        std::fs::write(dir.join("samplerate_novel.dot"), dot::to_dot(&new.graph))?;
        println!("wrote XML/DOT files to {}", dir.display());
    }
    Ok(())
}
