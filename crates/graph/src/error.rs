//! Errors for SDF graph construction and analysis.

use std::error::Error;
use std::fmt;

use crate::{ActorId, ChannelId};

/// Errors raised by graph construction and the analyses in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SdfError {
    /// An actor id does not belong to the graph under construction.
    UnknownActor {
        /// The offending id.
        actor: ActorId,
        /// Number of actors currently in the graph.
        num_actors: usize,
    },
    /// A channel rate was zero (rates must be at least 1, Def. 1).
    ZeroRate {
        /// Index of the offending channel (in insertion order).
        channel: usize,
    },
    /// An actor was given a negative execution time (`T : A → ℕ`, Def. 2).
    NegativeExecutionTime {
        /// Name of the offending actor.
        actor: String,
    },
    /// Two actors share a name.
    DuplicateActorName {
        /// The duplicated name.
        name: String,
    },
    /// An actor name is empty.
    EmptyActorName,
    /// The graph is inconsistent: the balance equations have no non-trivial
    /// solution, so no repetition vector exists (Sec. 3).
    Inconsistent {
        /// A channel witnessing the inconsistency.
        channel: ChannelId,
    },
    /// The graph deadlocks: no complete iteration can be executed.
    Deadlock {
        /// Firings completed before the deadlock.
        fired: u64,
        /// Firings required for a full iteration.
        needed: u64,
    },
    /// An operation required a homogeneous graph (all rates 1).
    NotHomogeneous {
        /// A channel with a rate different from 1.
        channel: ChannelId,
    },
    /// A numeric quantity (repetition vector entry, token count, …)
    /// overflowed its integer type.
    Overflow {
        /// Short description of the computation that overflowed.
        what: &'static str,
    },
    /// A firing index referenced a firing beyond an actor's repetition
    /// count (firings within one iteration are numbered `0..γ(a)`).
    FiringOutOfRange {
        /// The actor whose firing was referenced.
        actor: ActorId,
        /// The requested firing index.
        firing: u64,
        /// The actor's repetition-vector entry `γ(a)`.
        gamma: u64,
    },
    /// A per-channel capacity vector has the wrong number of entries.
    CapacityArityMismatch {
        /// The graph's channel count.
        expected: usize,
        /// The number of capacities supplied.
        found: usize,
    },
    /// A channel capacity is below the channel's initial token count, so
    /// the initial state already violates the bound.
    CapacityBelowTokens {
        /// The offending channel.
        channel: ChannelId,
        /// The supplied capacity.
        capacity: u64,
        /// The channel's initial token count.
        tokens: u64,
    },
    /// A resource budget ([`crate::budget::Budget`]) was exhausted before
    /// the computation finished. The computation is abandoned, not wrong:
    /// callers can retry with a larger budget or degrade to a conservative
    /// abstraction bound (see `sdfr-core`).
    Exhausted {
        /// Which limit ran out.
        resource: crate::budget::BudgetResource,
        /// Amount consumed when the computation gave up (same unit as
        /// `limit`; see [`crate::budget::BudgetResource`] for units).
        spent: u64,
        /// The configured limit.
        limit: u64,
    },
}

impl SdfError {
    /// The error of a maximum cycle ratio (or max-plus eigenvalue) that
    /// leaves the integer range: [`sdfr_maxplus::MpError::Overflow`], the
    /// one way `sdfr_maxplus::eigen::maximum_cycle_ratio` fails, and the
    /// one way the eigenvalue of a square matrix does.
    pub fn cycle_ratio_overflow(_: sdfr_maxplus::MpError) -> Self {
        SdfError::Overflow {
            what: "maximum cycle ratio",
        }
    }
}

impl fmt::Display for SdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdfError::UnknownActor { actor, num_actors } => write!(
                f,
                "actor id {actor} does not belong to this graph ({num_actors} actors)"
            ),
            SdfError::ZeroRate { channel } => {
                write!(f, "channel {channel} has a zero rate; rates must be >= 1")
            }
            SdfError::NegativeExecutionTime { actor } => {
                write!(f, "actor '{actor}' has a negative execution time")
            }
            SdfError::DuplicateActorName { name } => {
                write!(f, "duplicate actor name '{name}'")
            }
            SdfError::EmptyActorName => write!(f, "actor names must be non-empty"),
            SdfError::Inconsistent { channel } => write!(
                f,
                "graph is inconsistent: balance equation of channel {channel} has no solution"
            ),
            SdfError::Deadlock { fired, needed } => write!(
                f,
                "graph deadlocks after {fired} of {needed} firings of an iteration"
            ),
            SdfError::NotHomogeneous { channel } => write!(
                f,
                "operation requires a homogeneous graph, but channel {channel} has a rate != 1"
            ),
            SdfError::Overflow { what } => write!(f, "integer overflow while computing {what}"),
            SdfError::FiringOutOfRange {
                actor,
                firing,
                gamma,
            } => write!(
                f,
                "firing {firing} of actor {actor} is out of range (gamma = {gamma})"
            ),
            SdfError::CapacityArityMismatch { expected, found } => write!(
                f,
                "expected one capacity per channel ({expected}), got {found}"
            ),
            SdfError::CapacityBelowTokens {
                channel,
                capacity,
                tokens,
            } => write!(
                f,
                "capacity {capacity} of channel {channel} is below its {tokens} initial tokens"
            ),
            SdfError::Exhausted {
                resource,
                spent,
                limit,
            } => write!(
                f,
                "resource budget exhausted: {resource} used {spent} of limit {limit}"
            ),
        }
    }
}

impl Error for SdfError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let cases: Vec<(SdfError, &str)> = vec![
            (
                SdfError::UnknownActor {
                    actor: ActorId(7),
                    num_actors: 3,
                },
                "a7",
            ),
            (SdfError::ZeroRate { channel: 2 }, "zero rate"),
            (SdfError::NegativeExecutionTime { actor: "x".into() }, "'x'"),
            (
                SdfError::DuplicateActorName { name: "a".into() },
                "duplicate",
            ),
            (SdfError::EmptyActorName, "non-empty"),
            (
                SdfError::Inconsistent {
                    channel: ChannelId(0),
                },
                "inconsistent",
            ),
            (
                SdfError::Deadlock {
                    fired: 3,
                    needed: 10,
                },
                "3 of 10",
            ),
            (
                SdfError::NotHomogeneous {
                    channel: ChannelId(1),
                },
                "homogeneous",
            ),
            (
                SdfError::Overflow {
                    what: "repetition vector",
                },
                "overflow",
            ),
            (
                SdfError::FiringOutOfRange {
                    actor: ActorId(1),
                    firing: 5,
                    gamma: 3,
                },
                "out of range",
            ),
            (
                SdfError::CapacityArityMismatch {
                    expected: 3,
                    found: 2,
                },
                "one capacity per channel",
            ),
            (
                SdfError::CapacityBelowTokens {
                    channel: ChannelId(4),
                    capacity: 1,
                    tokens: 3,
                },
                "initial tokens",
            ),
            (
                SdfError::Exhausted {
                    resource: crate::budget::BudgetResource::Firings,
                    spent: 1_000_001,
                    limit: 1_000_000,
                },
                "exhausted",
            ),
        ];
        for (e, frag) in cases {
            assert!(
                e.to_string().contains(frag),
                "message {:?} should contain {:?}",
                e.to_string(),
                frag
            );
        }
    }
}
