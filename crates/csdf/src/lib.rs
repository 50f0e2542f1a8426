//! Cyclo-static dataflow (CSDF) graphs.
//!
//! CSDF (Bilsen et al.) generalizes SDF: an actor cycles through a fixed
//! sequence of *phases*, each with its own execution time and per-channel
//! rates (which may be zero in individual phases). CSDF models arbitration
//! and fine-grained pipelining that plain SDF cannot, and it is the model
//! class of the buffer-sizing work the paper cites (Stuijk et al., TC'08;
//! Wiggers et al., DAC'07).
//!
//! All analyses reuse the max-plus machinery of this repository, applied at
//! phase granularity:
//!
//! - [`CsdfGraph`] — the model and its validated construction,
//! - [`repetition_vector`] — cycle-level consistency,
//! - [`symbolic_iteration`] — the max-plus matrix of one iteration
//!   (Algorithm 1 at phase granularity, run on the shared
//!   [`SymbolicEngine`](sdfr_core::SymbolicEngine) with
//!   [`CsdfGraph`] as its firing source), capped by a
//!   [`Budget`](sdfr_graph::budget::Budget) in
//!   [`symbolic_iteration_capped`],
//! - [`throughput`] — the exact iteration period,
//! - [`to_hsdf`] — the paper's novel compact conversion, applied to CSDF.
//!
//! # Example
//!
//! ```
//! use sdfr_csdf::CsdfGraph;
//! use sdfr_maxplus::Rational;
//!
//! // A two-phase producer: sends 2 tokens in its first phase, none in the
//! // second; the consumer reads one token per firing. Self-loops
//! // serialize the phases.
//! let mut b = CsdfGraph::builder("pc");
//! let p = b.actor("p", [1, 3]);
//! let c = b.actor("c", [2]);
//! b.channel(p, c, [2, 0], [1], 0)?;
//! b.channel(c, p, [1], [0, 2], 4)?;
//! b.channel(p, p, [1, 1], [1, 1], 1)?;
//! b.channel(c, c, [1], [1], 1)?;
//! let g = b.build()?;
//!
//! let thr = sdfr_csdf::throughput(&g)?;
//! assert_eq!(thr.period, Some(Rational::new(4, 1)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analysis;
mod graph;

pub use analysis::{
    hsdf_from_symbolic, period_from_symbolic, repetition_vector, symbolic_iteration,
    symbolic_iteration_capped, throughput, throughput_from_symbolic, to_hsdf, CsdfRepetition,
    CsdfSymbolic, CsdfThroughput,
};
pub use graph::{CsdfActorId, CsdfBuilder, CsdfChannelId, CsdfGraph};
