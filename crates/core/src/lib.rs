//! Reduction techniques for synchronous dataflow graphs.
//!
//! This crate implements the two contributions of M. Geilen, *"Reduction
//! Techniques for Synchronous Dataflow Graphs"*, DAC 2009:
//!
//! 1. **Conservative abstraction** (paper Sec. 4): group the actors of a
//!    large, regular HSDF graph into a small abstract graph whose throughput
//!    conservatively bounds the original's ([`abstraction`], [`auto`]), with
//!    the soundness machinery of the paper — the `N`-fold unfolding
//!    ([`unfold`], Def. 5) and a mechanical checker of the refinement
//!    premises of Prop. 1 ([`conservativity`]).
//! 2. **A compact SDF→HSDF conversion** (paper Sec. 6, Alg. 1, Fig. 4):
//!    from the symbolic max-plus matrix of one iteration, build an HSDF
//!    graph with at most `N(N+2)` actors over the `N` initial tokens
//!    ([`novel`]), dramatically smaller than the classical expansion
//!    ([`traditional`]) whose size is the repetition-vector sum.
//!
//! Supporting transformations: redundant-edge pruning ([`prune`]),
//! throughput-equivalence validation between a graph and its conversions
//! ([`equivalence`]), and a-priori conversion selection ([`recommend`],
//! the paper's closing Sec. 7 remark).
//!
//! # Quickstart
//!
//! ```
//! use sdfr_analysis::throughput;
//! use sdfr_graph::SdfGraph;
//!
//! // Two actors exchanging tokens: a produces 2 per firing, b consumes 3.
//! let mut b = SdfGraph::builder("producer-consumer");
//! let a = b.actor("a", 2);
//! let c = b.actor("b", 3);
//! b.channel(a, c, 2, 3, 0)?;
//! b.channel(c, a, 3, 2, 6)?; // feedback with 6 initial tokens
//! let g = b.build()?;
//!
//! let thr = throughput(&g)?;
//! println!("iteration period: {:?}", thr.period());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Example: reproduce a Table-1 style comparison
//!
//! ```
//! use sdfr_core::{novel, traditional};
//! use sdfr_graph::SdfGraph;
//!
//! let mut b = SdfGraph::builder("updown");
//! let x = b.actor("x", 1);
//! let y = b.actor("y", 2);
//! b.channel(x, y, 2, 3, 0)?;
//! b.channel(y, x, 3, 2, 6)?;
//! let g = b.build()?;
//!
//! let trad = traditional::convert(&g)?;
//! let new = novel::convert(&g)?;
//! assert_eq!(trad.graph.num_actors(), 5);          // Σγ = 3 + 2
//! assert!(new.graph.num_actors() <= 6 * (6 + 2));  // N(N+2), N = 6 tokens
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;

pub mod abstraction;
pub mod auto;
pub mod conservativity;
pub mod degrade;
pub mod equivalence;
pub mod novel;
pub mod prune;
pub mod recommend;
pub mod traditional;
pub mod unfold;

pub use abstraction::{abstract_graph, Abstraction, AbstractionBuilder};
pub use degrade::{
    analyze_with_session, AnalysisOutcome, ConservativeBound, FallbackMethod, OutcomeAggregate,
};
pub use error::CoreError;
pub use novel::NovelConversion;
pub use sdfr_analysis::{AnalysisSession, FiringSource, SessionRegistry, SymbolicEngine};
pub use traditional::TraditionalConversion;
