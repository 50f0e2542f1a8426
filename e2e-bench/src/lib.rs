//! End-to-end benchmark of `sdfr serve`.
//!
//! Four closed-loop workloads run against a real `sdfr serve` child
//! process; afterwards the same request sequence is replayed in-process,
//! layer by layer, for the per-layer split and for a byte-for-byte check
//! of every served record. See `README.md` for the workloads, the metrics
//! and the baseline.

pub mod client;
pub mod gen;
pub mod oracle;
pub mod replay;
pub mod run;
pub mod server;
pub mod stats;
pub mod trace;
