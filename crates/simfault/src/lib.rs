#![warn(missing_docs)]

//! # simfault — deterministic fault plans for the simulated cluster
//!
//! The paper punts on reliability (§4.1: "these issues are out of the scope
//! of this paper"); this crate supplies the missing half of the story for
//! the reproduction. A [`FaultPlan`] is a *data-only* description of what
//! goes wrong and when, on the **virtual clock**: server crashes and
//! restarts, link degradation, message loss, InfiniBand
//! completion-with-error, and TCP connection resets for the NBD baseline.
//!
//! The plan itself schedules nothing and owns no clocks. Consumers —
//! `hpbd::ClusterBuilder` and `nbd`/`workloads` — walk [`FaultPlan::events`]
//! at build time and arm one engine event per entry. Two consequences:
//!
//! * **Determinism**: fault times are virtual-clock instants, so the same
//!   plan over the same workload produces the identical event sequence,
//!   byte-identical metrics, and byte-identical traces on every run.
//! * **Zero-cost when empty**: an empty plan arms no events, touches no
//!   queues, and registers no metrics — runs with `FaultPlan::default()`
//!   are byte-identical to runs built before this subsystem existed.

use std::fmt;

/// One injectable fault. Server-targeted variants index into the cluster's
/// server list (the same order `ClusterBuilder` creates them in).
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEvent {
    /// Memory server `server` fail-stops: its page store is dropped (the
    /// registered chunks are gone), in-flight RDMA is abandoned, and every
    /// later request to it goes unanswered until a restart.
    ServerCrash {
        /// Index of the victim server.
        server: usize,
    },
    /// Memory server `server` comes back empty: it re-registers its staging
    /// memory (paying the registration CPU cost) and resumes serving.
    /// Stored pages from before the crash are *not* recovered.
    ServerRestart {
        /// Index of the restarting server.
        server: usize,
    },
    /// A fault on the client↔server link of server `server`, armed on
    /// that connection's queue pairs unchanged.
    Link {
        /// Index of the server whose link misbehaves.
        server: usize,
        /// What the link does.
        fault: LinkFault,
    },
    /// Reset the TCP connection of the NBD baseline: both endpoints see
    /// the reset, buffered bytes are discarded, and pending reads fail.
    TcpReset,
}

/// What goes wrong on one client↔server link. Counted variants apply to
/// the next `count` messages in either direction: budgets, not
/// probabilities.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkFault {
    /// Every transfer gains `added_latency_ns` of propagation delay and the
    /// link bandwidth is multiplied by `bandwidth_factor` (1.0 = undegraded,
    /// 0.5 = half). `(0, 1.0)` heals the link.
    Degrade {
        /// Extra one-way propagation delay, in nanoseconds.
        added_latency_ns: u64,
        /// Multiplier on link bandwidth; must be in `(0.0, 1.0]`.
        bandwidth_factor: f64,
    },
    /// Silently drop the next `count` messages. The bytes vanish in
    /// flight: no completion error is surfaced — recovery relies on
    /// timeouts.
    Loss {
        /// How many sends to swallow.
        count: u32,
    },
    /// Complete the next `count` send-side work requests with an error
    /// status instead of transferring.
    CompletionError {
        /// How many work requests to fail.
        count: u32,
    },
    /// Hold the next `count` messages in flight for an extra `delay_ns`
    /// before delivery. The send still completes successfully (the RC ack
    /// follows the late arrival); only the in-flight time stretches — the
    /// classic reorder generator: a delayed request can outlive the
    /// timeout that gave up on it and land after the retry that replaced
    /// it.
    Delay {
        /// How many deliveries to delay.
        count: u32,
        /// Extra in-flight time per delayed message, in nanoseconds.
        delay_ns: u64,
    },
    /// Deliver the next `count` messages twice (a fabric-level ghost
    /// copy). The duplicate consumes a posted receive at the destination;
    /// the sender sees a single completion.
    Duplicate {
        /// How many deliveries to duplicate.
        count: u32,
    },
}

/// A fault bound to a virtual-clock instant.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedFault {
    /// Virtual time (nanoseconds) at which the fault fires.
    pub at_ns: u64,
    /// What happens.
    pub event: FaultEvent,
}

/// An ordered collection of timed faults: the full failure script for one
/// simulated run. Build with the fluent helpers, then hand to
/// `ClusterBuilder::fault_plan(..)` (or `ScenarioConfig::fault_plan`).
///
/// ```
/// use simfault::{FaultEvent, FaultPlan, LinkFault};
/// let plan = FaultPlan::new()
///     .server_crash(50_000_000, 1)
///     .server_restart(80_000_000, 1)
///     .link_degrade(10_000_000, 0, 5_000, 0.5);
/// assert_eq!(plan.len(), 3);
/// assert!(matches!(
///     plan.events()[0].event,
///     FaultEvent::Link { fault: LinkFault::Degrade { .. }, .. }
/// ));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<TimedFault>,
}

impl FaultPlan {
    /// An empty plan: nothing fails. Equivalent to `FaultPlan::default()`.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// True if the plan schedules no faults (the zero-cost case).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Add an arbitrary timed fault.
    pub fn push(&mut self, at_ns: u64, event: FaultEvent) {
        self.events.push(TimedFault { at_ns, event });
    }

    /// Fluent form of [`FaultPlan::push`].
    pub fn with(mut self, at_ns: u64, event: FaultEvent) -> FaultPlan {
        self.push(at_ns, event);
        self
    }

    /// Arm `fault` on `server`'s link at `at_ns`.
    fn link(self, at_ns: u64, server: usize, fault: LinkFault) -> FaultPlan {
        self.with(at_ns, FaultEvent::Link { server, fault })
    }

    /// Crash server `server` at `at_ns`.
    pub fn server_crash(self, at_ns: u64, server: usize) -> FaultPlan {
        self.with(at_ns, FaultEvent::ServerCrash { server })
    }

    /// Restart server `server` at `at_ns`.
    pub fn server_restart(self, at_ns: u64, server: usize) -> FaultPlan {
        self.with(at_ns, FaultEvent::ServerRestart { server })
    }

    /// Degrade the link to `server` at `at_ns`.
    ///
    /// # Panics
    /// Panics if `bandwidth_factor` is not in `(0.0, 1.0]`.
    pub fn link_degrade(
        self,
        at_ns: u64,
        server: usize,
        added_latency_ns: u64,
        bandwidth_factor: f64,
    ) -> FaultPlan {
        assert!(
            bandwidth_factor > 0.0 && bandwidth_factor <= 1.0,
            "bandwidth_factor must be in (0.0, 1.0]"
        );
        self.link(
            at_ns,
            server,
            LinkFault::Degrade {
                added_latency_ns,
                bandwidth_factor,
            },
        )
    }

    /// Drop the next `count` messages on `server`'s link starting at `at_ns`.
    pub fn message_loss(self, at_ns: u64, server: usize, count: u32) -> FaultPlan {
        self.link(at_ns, server, LinkFault::Loss { count })
    }

    /// Fail the next `count` send work requests on `server`'s QP with a
    /// completion error, starting at `at_ns`.
    pub fn completion_error(self, at_ns: u64, server: usize, count: u32) -> FaultPlan {
        self.link(at_ns, server, LinkFault::CompletionError { count })
    }

    /// Delay the next `count` deliveries on `server`'s link by `delay_ns`
    /// each, starting at `at_ns`.
    pub fn message_delay(self, at_ns: u64, server: usize, count: u32, delay_ns: u64) -> FaultPlan {
        self.link(at_ns, server, LinkFault::Delay { count, delay_ns })
    }

    /// Deliver the next `count` messages on `server`'s link twice,
    /// starting at `at_ns`.
    pub fn message_duplicate(self, at_ns: u64, server: usize, count: u32) -> FaultPlan {
        self.link(at_ns, server, LinkFault::Duplicate { count })
    }

    /// Reset the NBD baseline's TCP connection at `at_ns`.
    pub fn tcp_reset(self, at_ns: u64) -> FaultPlan {
        self.with(at_ns, FaultEvent::TcpReset)
    }

    /// The faults, sorted by fire time (stable: insertion order breaks
    /// ties, so arming them in iteration order is deterministic).
    pub fn events(&self) -> Vec<TimedFault> {
        let mut sorted = self.events.clone();
        sorted.sort_by_key(|f| f.at_ns);
        sorted
    }

    /// Largest server index referenced by any server-targeted fault, if any.
    /// Builders use this to validate the plan against the cluster size.
    pub fn max_server_index(&self) -> Option<usize> {
        self.events
            .iter()
            .filter_map(|f| match f.event {
                FaultEvent::ServerCrash { server }
                | FaultEvent::ServerRestart { server }
                | FaultEvent::Link { server, .. } => Some(server),
                FaultEvent::TcpReset => None,
            })
            .max()
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "fault plan: (empty)");
        }
        writeln!(f, "fault plan ({} events):", self.events.len())?;
        for ev in self.events() {
            writeln!(f, "  t={}ns {:?}", ev.at_ns, ev.event)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_default() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert_eq!(plan, FaultPlan::default());
        assert!(plan.events().is_empty());
        assert_eq!(plan.max_server_index(), None);
    }

    #[test]
    fn events_sorted_by_time_stable() {
        let plan = FaultPlan::new()
            .server_crash(500, 2)
            .tcp_reset(100)
            .message_loss(500, 0, 3);
        let evs = plan.events();
        assert_eq!(evs[0].at_ns, 100);
        // Ties keep insertion order: crash before loss.
        assert!(matches!(
            evs[1].event,
            FaultEvent::ServerCrash { server: 2 }
        ));
        assert!(matches!(
            evs[2].event,
            FaultEvent::Link {
                server: 0,
                fault: LinkFault::Loss { count: 3 }
            }
        ));
    }

    #[test]
    fn max_server_index_ignores_tcp() {
        let plan = FaultPlan::new().tcp_reset(5);
        assert_eq!(plan.max_server_index(), None);
        let plan = plan.server_restart(9, 7).link_degrade(1, 3, 10, 0.25);
        assert_eq!(plan.max_server_index(), Some(7));
    }

    #[test]
    fn delay_and_duplicate_are_server_targeted() {
        let plan = FaultPlan::new()
            .message_delay(10, 4, 2, 1_000_000)
            .message_duplicate(20, 6, 1);
        assert_eq!(plan.max_server_index(), Some(6));
        let evs = plan.events();
        assert!(matches!(
            evs[0].event,
            FaultEvent::Link {
                server: 4,
                fault: LinkFault::Delay {
                    count: 2,
                    delay_ns: 1_000_000
                }
            }
        ));
        assert!(matches!(
            evs[1].event,
            FaultEvent::Link {
                server: 6,
                fault: LinkFault::Duplicate { count: 1 }
            }
        ));
    }

    #[test]
    #[should_panic(expected = "bandwidth_factor")]
    fn degrade_factor_validated() {
        let _ = FaultPlan::new().link_degrade(0, 0, 0, 0.0);
    }
}
