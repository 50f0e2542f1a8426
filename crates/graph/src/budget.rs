//! Resource budgets for graph execution and analysis.
//!
//! Everything that executes a full SDF iteration — scheduling, simulation,
//! symbolic analysis, SDF→HSDF conversion — scales with the repetition-vector
//! sum, which can be exponential in the size of the graph *description*
//! (paper, Secs. 2 and 6). A [`Budget`] bounds such computations by firings,
//! by state size, by wall-clock deadline, and/or by a cooperative
//! cancellation flag, turning a potential hang or OOM into a structured
//! [`SdfError::Exhausted`] that callers can degrade from gracefully (see
//! `sdfr-core`'s conservative fallback).
//!
//! A [`Budget`] is an immutable description of the limits; a [`BudgetMeter`]
//! is the cheap mutable cursor that loops thread through and charge. Wall
//! clock and cancellation are only polled every few hundred charges so that
//! metering stays out of the hot path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::SdfError;

/// The budgeted resource that ran out, reported in [`SdfError::Exhausted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum BudgetResource {
    /// Actor firings / algorithm steps ([`Budget::with_max_firings`]).
    Firings,
    /// State size: token count, matrix dimension, or HSDF actor count
    /// ([`Budget::with_max_size`]).
    Size,
    /// Wall-clock deadline ([`Budget::with_deadline`]); `spent`/`limit` are
    /// milliseconds.
    WallClock,
    /// The cooperative cancellation flag was raised
    /// ([`Budget::with_cancel_flag`]); `spent`/`limit` are both zero.
    Cancelled,
}

impl std::fmt::Display for BudgetResource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BudgetResource::Firings => "firings",
            BudgetResource::Size => "state size",
            BudgetResource::WallClock => "wall-clock time (ms)",
            BudgetResource::Cancelled => "cancellation",
        })
    }
}

/// Resource limits for an execution or analysis. All limits are optional and
/// independent; the default ([`Budget::unlimited`]) imposes none.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use sdfr_graph::budget::Budget;
/// use sdfr_graph::SdfError;
/// use sdfr_graph::repetition::repetition_vector;
/// use sdfr_graph::schedule::sequential_schedule_metered;
///
/// // A two-actor graph whose iteration needs 1e9 + 1 firings.
/// let mut b = sdfr_graph::SdfGraph::builder("huge");
/// let x = b.actor("x", 1);
/// let y = b.actor("y", 1);
/// b.channel(x, y, 1_000_000_000, 1, 0)?;
/// let g = b.build()?;
/// let gamma = repetition_vector(&g)?;
///
/// let budget = Budget::unlimited()
///     .with_max_firings(1_000_000)
///     .with_deadline(Duration::from_secs(1));
/// match sequential_schedule_metered(&g, &gamma, &mut budget.meter()) {
///     Err(SdfError::Exhausted { limit: 1_000_000, .. }) => {} // gave up early
///     other => panic!("expected exhaustion, got {other:?}"),
/// }
/// # Ok::<(), SdfError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Budget {
    max_firings: Option<u64>,
    max_size: Option<u64>,
    /// Absolute deadline plus the originally granted allowance (for
    /// reporting `limit` in milliseconds).
    deadline: Option<(Instant, Duration)>,
    cancel: Option<Arc<AtomicBool>>,
}

impl Budget {
    /// A budget with no limits: every check passes.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Caps the total number of actor firings (or, for non-firing loops,
    /// algorithm steps of comparable cost) charged to this budget.
    pub fn with_max_firings(mut self, limit: u64) -> Self {
        self.max_firings = Some(limit);
        self
    }

    /// Caps state sizes: initial-token counts (= max-plus matrix dimension),
    /// converted HSDF actor counts, and similar memory-proportional
    /// quantities.
    pub fn with_max_size(mut self, limit: u64) -> Self {
        self.max_size = Some(limit);
        self
    }

    /// Sets a wall-clock deadline `allowance` from now.
    pub fn with_deadline(mut self, allowance: Duration) -> Self {
        self.deadline = Some((Instant::now() + allowance, allowance));
        self
    }

    /// Installs a cooperative cancellation flag; raising it makes the next
    /// poll fail with [`BudgetResource::Cancelled`].
    pub fn with_cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// The firing cap, if any.
    pub fn max_firings(&self) -> Option<u64> {
        self.max_firings
    }

    /// The size cap, if any.
    pub fn max_size(&self) -> Option<u64> {
        self.max_size
    }

    /// Returns `true` if a wall-clock deadline is configured.
    pub fn has_deadline(&self) -> bool {
        self.deadline.is_some()
    }

    /// Returns `true` if a cooperative cancellation flag is installed.
    pub fn has_cancel_flag(&self) -> bool {
        self.cancel.is_some()
    }

    /// Returns `true` if this budget is described entirely by its *content*
    /// (the firing and size caps): two content-addressable budgets with equal
    /// caps are interchangeable, so work done under one is valid under the
    /// other. Deadlines are anchored to an absolute [`Instant`] and cancel
    /// flags have pointer identity, so budgets carrying either are *not*
    /// content-addressable — caches keyed on budget content (see
    /// `sdfr_analysis::registry`) must bypass them.
    pub fn is_content_addressable(&self) -> bool {
        self.deadline.is_none() && self.cancel.is_none()
    }

    /// Returns `true` if no limit is configured at all.
    pub fn is_unlimited(&self) -> bool {
        self.max_firings.is_none()
            && self.max_size.is_none()
            && self.deadline.is_none()
            && self.cancel.is_none()
    }

    /// Starts metering against this budget. Each top-level operation creates
    /// one meter and threads it through its loops; the firing count is
    /// cumulative across everything charged to the same meter.
    pub fn meter(&self) -> BudgetMeter<'_> {
        BudgetMeter {
            budget: self,
            spent: 0,
            until_poll: 0,
        }
    }

    /// Starts metering with `already_spent` firings pre-charged, so a
    /// multi-phase computation (e.g. an analysis session whose artifacts are
    /// computed lazily, one at a time) can account all phases against one
    /// cumulative firing cap even though each phase runs under its own
    /// short-lived meter. The first check polls the deadline and cancellation
    /// flag immediately.
    pub fn meter_resuming(&self, already_spent: u64) -> BudgetMeter<'_> {
        BudgetMeter {
            budget: self,
            spent: already_spent,
            until_poll: 0,
        }
    }
}

/// How many [`BudgetMeter::spend`] calls may elapse between wall-clock /
/// cancellation polls. Polling costs an `Instant::now()` and an atomic load;
/// at typical per-firing costs this bounds deadline overshoot well under a
/// millisecond.
const POLL_INTERVAL: u32 = 256;

/// Mutable metering state over a [`Budget`]. Created by [`Budget::meter`].
#[derive(Debug)]
pub struct BudgetMeter<'a> {
    budget: &'a Budget,
    spent: u64,
    until_poll: u32,
}

impl BudgetMeter<'_> {
    /// Charges `steps` firings (or equivalent algorithm steps).
    ///
    /// # Errors
    ///
    /// [`SdfError::Exhausted`] once the cumulative charge exceeds the firing
    /// cap, the deadline has passed, or cancellation was requested.
    #[inline]
    pub fn spend(&mut self, steps: u64) -> Result<(), SdfError> {
        self.spent = self.spent.saturating_add(steps);
        if let Some(limit) = self.budget.max_firings {
            if self.spent > limit {
                return Err(SdfError::Exhausted {
                    resource: BudgetResource::Firings,
                    spent: self.spent,
                    limit,
                });
            }
        }
        if self.until_poll == 0 {
            self.until_poll = POLL_INTERVAL;
            self.poll()
        } else {
            self.until_poll -= 1;
            Ok(())
        }
    }

    /// Fails fast if charging `upcoming` more firings is certain to exceed
    /// the firing cap. Call before allocating buffers proportional to the
    /// work, so exhaustion is reported *before* the memory is committed.
    pub fn precheck(&mut self, upcoming: u64) -> Result<(), SdfError> {
        if let Some(limit) = self.budget.max_firings {
            let projected = self.spent.saturating_add(upcoming);
            if projected > limit {
                return Err(SdfError::Exhausted {
                    resource: BudgetResource::Firings,
                    spent: self.spent,
                    limit,
                });
            }
        }
        self.poll()
    }

    /// Checks a state size (token count, matrix dimension, HSDF actor count)
    /// against the size cap.
    pub fn check_size(&self, size: u64) -> Result<(), SdfError> {
        if let Some(limit) = self.budget.max_size {
            if size > limit {
                return Err(SdfError::Exhausted {
                    resource: BudgetResource::Size,
                    spent: size,
                    limit,
                });
            }
        }
        Ok(())
    }

    /// Checks the deadline and cancellation flag immediately (no step
    /// charge). Use in loops whose iterations are too coarse or too slow for
    /// [`spend`](Self::spend)'s sampled polling.
    pub fn poll(&mut self) -> Result<(), SdfError> {
        if let Some(flag) = &self.budget.cancel {
            if flag.load(Ordering::Relaxed) {
                return Err(SdfError::Exhausted {
                    resource: BudgetResource::Cancelled,
                    spent: 0,
                    limit: 0,
                });
            }
        }
        if let Some((deadline, allowance)) = self.budget.deadline {
            let now = Instant::now();
            if now > deadline {
                let over = now - deadline;
                return Err(SdfError::Exhausted {
                    resource: BudgetResource::WallClock,
                    spent: (allowance + over).as_millis().min(u64::MAX as u128) as u64,
                    limit: allowance.as_millis().min(u64::MAX as u128) as u64,
                });
            }
        }
        Ok(())
    }

    /// Firings charged so far.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// The budget this meter charges against.
    pub fn budget(&self) -> &Budget {
        self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let b = Budget::unlimited();
        let mut m = b.meter();
        for _ in 0..10_000 {
            m.spend(1_000_000).unwrap();
        }
        m.check_size(u64::MAX).unwrap();
        assert!(b.is_unlimited());
    }

    #[test]
    fn firing_cap_enforced_cumulatively() {
        let b = Budget::unlimited().with_max_firings(100);
        let mut m = b.meter();
        m.spend(60).unwrap();
        m.spend(40).unwrap();
        let err = m.spend(1).unwrap_err();
        match err {
            SdfError::Exhausted {
                resource: BudgetResource::Firings,
                spent,
                limit,
            } => {
                assert_eq!(limit, 100);
                assert!(spent > limit);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn resuming_meter_continues_the_cumulative_charge() {
        let b = Budget::unlimited().with_max_firings(100);
        let mut m = b.meter();
        m.spend(60).unwrap();
        let carried = m.spent();
        let mut m2 = b.meter_resuming(carried);
        assert_eq!(m2.spent(), 60);
        m2.spend(40).unwrap();
        assert!(matches!(
            m2.spend(1),
            Err(SdfError::Exhausted {
                resource: BudgetResource::Firings,
                limit: 100,
                ..
            })
        ));
    }

    #[test]
    fn precheck_fails_before_work() {
        let b = Budget::unlimited().with_max_firings(10);
        let mut m = b.meter();
        m.spend(4).unwrap();
        assert!(m.precheck(6).is_ok());
        assert!(matches!(
            m.precheck(7),
            Err(SdfError::Exhausted {
                resource: BudgetResource::Firings,
                spent: 4,
                limit: 10,
            })
        ));
    }

    #[test]
    fn size_cap_enforced() {
        let b = Budget::unlimited().with_max_size(16);
        let m = b.meter();
        m.check_size(16).unwrap();
        assert!(matches!(
            m.check_size(17),
            Err(SdfError::Exhausted {
                resource: BudgetResource::Size,
                ..
            })
        ));
    }

    #[test]
    fn expired_deadline_reported_in_millis() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        let mut m = b.meter();
        match m.poll() {
            Err(SdfError::Exhausted {
                resource: BudgetResource::WallClock,
                spent,
                limit: 0,
            }) => assert!(spent >= 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn content_addressability_is_detected() {
        assert!(Budget::unlimited().is_content_addressable());
        let b = Budget::unlimited().with_max_firings(10).with_max_size(5);
        assert!(b.is_content_addressable());
        assert!(!b.has_deadline());
        assert!(!b.has_cancel_flag());
        let b = Budget::unlimited().with_deadline(Duration::from_secs(1));
        assert!(b.has_deadline());
        assert!(!b.is_content_addressable());
        let b = Budget::unlimited().with_cancel_flag(Arc::new(AtomicBool::new(false)));
        assert!(b.has_cancel_flag());
        assert!(!b.is_content_addressable());
    }

    #[test]
    fn cancellation_observed() {
        let flag = Arc::new(AtomicBool::new(false));
        let b = Budget::unlimited().with_cancel_flag(flag.clone());
        let mut m = b.meter();
        m.poll().unwrap();
        flag.store(true, Ordering::Relaxed);
        assert!(matches!(
            m.poll(),
            Err(SdfError::Exhausted {
                resource: BudgetResource::Cancelled,
                ..
            })
        ));
    }
}
