//! Performance analysis for synchronous dataflow graphs.
//!
//! This crate provides the analysis substrate the DAC'09 reduction paper
//! builds on:
//!
//! - [`symbolic`] — symbolic max-plus execution of one graph iteration
//!   (Algorithm 1, lines 1–11 of the paper; derived from Ghamarian et al.'s
//!   throughput work), producing the `N×N` max-plus matrix over the `N`
//!   initial tokens,
//! - [`engine`] — the same algorithm as a resumable, checkpointable state
//!   machine ([`SymbolicEngine`]) that can be paused at firing boundaries,
//!   archived, and resumed or *forked* across a single-channel token delta
//!   so near-identical graphs re-execute only the invalidated suffix;
//!   generic over its [`FiringSource`], so cyclo-static phase firings run
//!   on it too,
//! - [`throughput`](mod@throughput) — exact throughput via the spectral
//!   (eigenvalue) method and via state-space periodicity detection, plus a
//!   purely operational estimate from event-driven simulation,
//! - [`mcm`] — maximum cycle ratio of HSDF graphs on the one routine in
//!   `sdfr_maxplus::eigen`, critical-cycle extraction, and two oracles
//!   (parametric cycle improvement, brute-force enumeration),
//! - [`latency`] — iteration makespan and related latency measures,
//! - [`bottleneck`] — the critical tokens/channels/actors limiting
//!   throughput,
//! - [`buffer`] — self-timed buffer occupancy bounds and minimal capacity
//!   search,
//! - [`static_schedule`] — rate-optimal static periodic schedule synthesis
//!   for HSDF graphs,
//! - [`session`] — [`AnalysisSession`], a memoizing, budget-aware per-graph
//!   context that computes each of the artifacts above at most once and
//!   shares them across analyses and threads,
//! - [`registry`] — [`SessionRegistry`], a thread-safe, capacity-bounded
//!   (LRU) cache mapping graph fingerprints to shared sessions, so sweeps
//!   over recurring graph content reuse symbolic iterations *across*
//!   sessions, not just within one.
//!
//! # Example
//!
//! ```
//! use sdfr_analysis::throughput::throughput;
//! use sdfr_graph::SdfGraph;
//! use sdfr_maxplus::Rational;
//!
//! let mut b = SdfGraph::builder("cycle");
//! let x = b.actor("x", 2);
//! let y = b.actor("y", 3);
//! b.channel(x, y, 1, 1, 0)?;
//! b.channel(y, x, 1, 1, 1)?;
//! let g = b.build()?;
//!
//! let t = throughput(&g)?;
//! assert_eq!(t.period(), Some(Rational::new(5, 1)));
//! assert_eq!(t.actor_throughput(x), Some(Rational::new(1, 5)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bottleneck;
pub mod buffer;
pub mod engine;
pub mod latency;
pub mod mcm;
pub mod reference;
pub mod registry;
pub mod session;
pub mod static_schedule;
pub mod symbolic;
pub mod throughput;

pub use engine::{EngineArchive, FiringSource, IncrementalSeed, SymbolicEngine};
pub use mcm::{CycleRatio, CycleRatioGraph};
pub use registry::{RegistryConfig, RegistryStats, SessionRegistry};
pub use session::{AnalysisSession, SessionArtifacts};
pub use symbolic::{SymbolicIteration, TokenRef};
pub use throughput::{throughput, ThroughputAnalysis};
