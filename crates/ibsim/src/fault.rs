//! Link-level fault state for injected failures.
//!
//! A [`LinkFaults`] handle carries the *current* fault condition of one
//! client↔server connection: added propagation latency, a bandwidth
//! multiplier, and counted budgets for message drops, completion-with-error
//! injection, delays and duplicates. The same handle is installed on
//! **both** queue pairs of a connection (see
//! [`crate::QueuePair::set_link_faults`]), so degradation is symmetric and
//! budgets are shared across directions, matching a single flaky cable
//! rather than two.
//!
//! Fault plans (the `simfault` crate) arm these handles with a
//! [`LinkFault`] from scheduled engine events; the QP engine consults them
//! on its hot path. A QP with no handle installed — the default — performs
//! **zero** extra arithmetic, so runs without fault plans are
//! byte-identical to builds that predate this module.

use simcore::SimDuration;
use simfault::LinkFault;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// A per-message budget: each armed unit applies to one message.
#[derive(Clone, Copy)]
pub(crate) enum Budget {
    /// The message vanishes in flight.
    Loss,
    /// The work request completes with an error instead of transferring.
    CompletionError,
    /// The message is delivered twice.
    Duplicate,
}

struct LinkFaultsInner {
    added_latency_ns: Cell<u64>,
    bandwidth_factor: Cell<f64>,
    /// Messages left to fault, indexed by [`Budget`].
    budgets: [Cell<u32>; 3],
    /// Armed delays in arming order: `(messages left, delay_ns)`.
    delays: RefCell<VecDeque<(u32, u64)>>,
}

/// Shared, interiorly-mutable fault state for one link. Clone freely;
/// clones share state.
#[derive(Clone)]
pub struct LinkFaults {
    inner: Rc<LinkFaultsInner>,
}

impl LinkFaults {
    /// A healthy link: no added latency, full bandwidth, nothing queued to
    /// drop or fail.
    pub fn new() -> LinkFaults {
        LinkFaults {
            inner: Rc::new(LinkFaultsInner {
                added_latency_ns: Cell::new(0),
                bandwidth_factor: Cell::new(1.0),
                budgets: Default::default(),
                delays: RefCell::default(),
            }),
        }
    }

    /// Arm `fault` on the link. A degrade replaces the link's latency and
    /// bandwidth (`(0, 1.0)` heals it); a counted fault adds to what is
    /// still pending, and each armed delay keeps its own length.
    ///
    /// # Panics
    /// Panics if a degrade's `bandwidth_factor` is not in `(0.0, 1.0]`.
    pub fn arm(&self, fault: &LinkFault) {
        let inner = &self.inner;
        let add = |budget: Budget, n: u32| {
            let left = &inner.budgets[budget as usize];
            left.set(left.get().saturating_add(n));
        };
        match *fault {
            LinkFault::Degrade {
                added_latency_ns,
                bandwidth_factor,
            } => {
                assert!(
                    bandwidth_factor > 0.0 && bandwidth_factor <= 1.0,
                    "bandwidth_factor must be in (0.0, 1.0]"
                );
                inner.added_latency_ns.set(added_latency_ns);
                inner.bandwidth_factor.set(bandwidth_factor);
            }
            LinkFault::Loss { count } => add(Budget::Loss, count),
            LinkFault::CompletionError { count } => add(Budget::CompletionError, count),
            LinkFault::Duplicate { count } => add(Budget::Duplicate, count),
            LinkFault::Delay { count, delay_ns } => {
                if count > 0 {
                    inner.delays.borrow_mut().push_back((count, delay_ns));
                }
            }
        }
    }

    /// Remaining armed delay + duplication budget not yet consumed by
    /// traffic. Test harnesses assert this has drained before phases that
    /// must not race a late or ghost delivery.
    pub fn pending_delay_dup(&self) -> u32 {
        self.inner.delays.borrow().iter().fold(
            self.inner.budgets[Budget::Duplicate as usize].get(),
            |sum, &(n, _)| sum.saturating_add(n),
        )
    }

    /// Consume one unit of `budget`, if any is left.
    pub(crate) fn take(&self, budget: Budget) -> bool {
        let left = &self.inner.budgets[budget as usize];
        let n = left.get();
        left.set(n.saturating_sub(1));
        n > 0
    }

    /// Consume one message of the oldest armed delay, if any, and return
    /// its length.
    pub(crate) fn take_delay(&self) -> Option<SimDuration> {
        let mut delays = self.inner.delays.borrow_mut();
        let (left, delay_ns) = delays.front_mut()?;
        let delay = SimDuration::from_nanos(*delay_ns);
        *left -= 1;
        if *left == 0 {
            delays.pop_front();
        }
        Some(delay)
    }

    /// Extra one-way propagation to add to every transfer. Zero when
    /// undegraded, so adding it is the identity.
    pub(crate) fn extra_latency(&self) -> SimDuration {
        SimDuration::from_nanos(self.inner.added_latency_ns.get())
    }

    /// Stretch a serialisation time by the bandwidth cut. Returns the input
    /// unchanged (no float arithmetic at all) at full bandwidth, keeping
    /// undegraded timings bit-identical.
    pub(crate) fn stretch(&self, wire: SimDuration) -> SimDuration {
        let factor = self.inner.bandwidth_factor.get();
        if factor == 1.0 {
            return wire;
        }
        SimDuration::from_nanos((wire.as_nanos() as f64 / factor).round() as u64)
    }
}

impl Default for LinkFaults {
    fn default() -> LinkFaults {
        LinkFaults::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_link_is_identity() {
        let f = LinkFaults::new();
        assert_eq!(f.extra_latency(), SimDuration::from_nanos(0));
        let w = SimDuration::from_nanos(12_345);
        assert_eq!(f.stretch(w), w);
        assert!(!f.take(Budget::Loss));
        assert!(!f.take(Budget::CompletionError));
        assert!(!f.take(Budget::Duplicate));
        assert!(f.take_delay().is_none());
    }

    #[test]
    fn degrade_stretches_and_delays() {
        let f = LinkFaults::new();
        let degrade = |added_latency_ns, bandwidth_factor| LinkFault::Degrade {
            added_latency_ns,
            bandwidth_factor,
        };
        f.arm(&degrade(5_000, 0.5));
        assert_eq!(f.extra_latency(), SimDuration::from_nanos(5_000));
        assert_eq!(
            f.stretch(SimDuration::from_nanos(1_000)),
            SimDuration::from_nanos(2_000)
        );
        // Restoring to (0, 1.0) heals the link.
        f.arm(&degrade(0, 1.0));
        assert_eq!(f.extra_latency(), SimDuration::from_nanos(0));
        let w = SimDuration::from_nanos(777);
        assert_eq!(f.stretch(w), w);
    }

    #[test]
    fn counted_budgets_are_one_shot_and_separate() {
        let f = LinkFaults::new();
        f.arm(&LinkFault::Loss { count: 2 });
        f.arm(&LinkFault::CompletionError { count: 1 });
        f.arm(&LinkFault::Duplicate { count: 1 });
        assert_eq!(f.pending_delay_dup(), 1);
        assert!(f.take(Budget::Loss));
        assert!(f.take(Budget::Loss));
        assert!(!f.take(Budget::Loss));
        assert!(f.take(Budget::CompletionError));
        assert!(!f.take(Budget::CompletionError));
        assert!(f.take(Budget::Duplicate));
        assert!(!f.take(Budget::Duplicate));
        assert_eq!(f.pending_delay_dup(), 0);
    }

    #[test]
    fn each_armed_delay_keeps_its_own_length() {
        let f = LinkFaults::new();
        f.arm(&LinkFault::Delay {
            count: 2,
            delay_ns: 7_500,
        });
        f.arm(&LinkFault::Delay {
            count: 1,
            delay_ns: 40_000,
        });
        f.arm(&LinkFault::Duplicate { count: 1 });
        assert_eq!(f.pending_delay_dup(), 4);
        assert_eq!(f.take_delay(), Some(SimDuration::from_nanos(7_500)));
        assert_eq!(f.take_delay(), Some(SimDuration::from_nanos(7_500)));
        assert_eq!(f.take_delay(), Some(SimDuration::from_nanos(40_000)));
        assert!(f.take_delay().is_none());
        assert_eq!(f.pending_delay_dup(), 1);
    }

    #[test]
    #[should_panic(expected = "bandwidth_factor")]
    fn degrade_validates_factor() {
        LinkFaults::new().arm(&LinkFault::Degrade {
            added_latency_ns: 0,
            bandwidth_factor: 1.5,
        });
    }
}
