//! Throughput-equivalence validation between a graph and its conversions.
//!
//! The paper's Sec. 6 claims the novel conversion "has the same throughput
//! and latency as the original graph". These helpers check the throughput
//! claim mechanically for concrete instances, using two *independent*
//! analysis routes: the original graph's period comes from the max-plus
//! eigenvalue of its symbolic iteration, the converted HSDF's period from
//! the maximum cycle ratio of its actor/channel structure. Both instances
//! go to the same cycle-ratio routine, whose own oracles are Karp's DP and
//! cycle enumeration.

use sdfr_analysis::throughput::{hsdf_period, throughput};
use sdfr_graph::{SdfError, SdfGraph};
use sdfr_maxplus::Rational;

/// The outcome of a throughput comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeriodComparison {
    /// Both graphs have the same (finite or absent) iteration period.
    Equal(Option<Rational>),
    /// The periods differ.
    Different {
        /// Iteration period of the original graph.
        original: Option<Rational>,
        /// Iteration period of the converted graph.
        converted: Option<Rational>,
    },
}

impl PeriodComparison {
    /// Returns `true` for [`PeriodComparison::Equal`].
    pub fn is_equal(self) -> bool {
        matches!(self, PeriodComparison::Equal(_))
    }
}

/// Compares the iteration period of `original` (any consistent SDF graph)
/// with that of `converted` (an HSDF graph produced by a conversion).
///
/// A deadlocked conversion (zero-token cycle) is reported as
/// `Different { converted: None, .. }` only when the original has a finite
/// period — a correct conversion of a live graph is always live.
///
/// # Errors
///
/// Propagates analysis errors ([`SdfError::Inconsistent`],
/// [`SdfError::Deadlock`] from the original, [`SdfError::NotHomogeneous`]
/// if `converted` is not an HSDF graph).
pub fn compare_periods(
    original: &SdfGraph,
    converted: &SdfGraph,
) -> Result<PeriodComparison, SdfError> {
    let orig = throughput(original)?.period();
    let conv = hsdf_period(converted)?.finite();
    Ok(if orig == conv {
        PeriodComparison::Equal(orig)
    } else {
        PeriodComparison::Different {
            original: orig,
            converted: conv,
        }
    })
}

/// Asserts throughput equivalence of both paper conversions for `g`;
/// returns the common period. Intended for tests and the experiment
/// harness.
///
/// # Errors
///
/// Propagates conversion/analysis errors; a period mismatch is not an error
/// but is returned as `Ok(Err(comparison))` for the caller to report.
pub fn validate_conversions(
    g: &SdfGraph,
) -> Result<Result<Option<Rational>, PeriodComparison>, SdfError> {
    let trad = crate::traditional::convert(g)?;
    let novel = crate::novel::convert(g)?;
    let c1 = compare_periods(g, &trad.graph)?;
    let c2 = compare_periods(g, &novel.graph)?;
    match (c1, c2) {
        (PeriodComparison::Equal(p1), PeriodComparison::Equal(p2)) if p1 == p2 => Ok(Ok(p1)),
        (PeriodComparison::Equal(_), d @ PeriodComparison::Different { .. }) => Ok(Err(d)),
        (d, _) => Ok(Err(d)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_and_different() {
        let mut b = SdfGraph::builder("g");
        let x = b.actor("x", 2);
        let y = b.actor("y", 3);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 1).unwrap();
        let g = b.build().unwrap();
        assert!(compare_periods(&g, &g).unwrap().is_equal());

        let mut b = SdfGraph::builder("slower");
        let x = b.actor("x", 5);
        let y = b.actor("y", 5);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 1).unwrap();
        let slower = b.build().unwrap();
        let cmp = compare_periods(&g, &slower).unwrap();
        assert!(!cmp.is_equal());
        match cmp {
            PeriodComparison::Different {
                original,
                converted,
            } => {
                assert_eq!(original, Some(Rational::new(5, 1)));
                assert_eq!(converted, Some(Rational::new(10, 1)));
            }
            PeriodComparison::Equal(_) => unreachable!(),
        }
    }

    #[test]
    fn validate_both_conversions_on_multirate() {
        let mut b = SdfGraph::builder("g");
        let x = b.actor("x", 3);
        let y = b.actor("y", 2);
        b.channel(x, y, 2, 3, 0).unwrap();
        b.channel(y, x, 3, 2, 6).unwrap();
        let g = b.build().unwrap();
        let result = validate_conversions(&g).unwrap();
        assert!(result.is_ok(), "{result:?}");
        assert!(result.unwrap().is_some());
    }

    #[test]
    fn validate_unbounded_case() {
        let mut b = SdfGraph::builder("open");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 1, 1, 4).unwrap();
        let g = b.build().unwrap();
        let result = validate_conversions(&g).unwrap();
        assert_eq!(result, Ok(None));
    }
}
