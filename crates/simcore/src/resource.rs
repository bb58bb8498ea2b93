//! Serially-reusable timing resources.
//!
//! A [`Resource`] models hardware that serves one task at a time — a CPU
//! core doing memcpy, an HCA DMA engine, the wire of a network port, a disk
//! head. Reserving a span returns the FIFO-queued start and end instants;
//! callers then schedule their completion events at the returned end time.
//!
//! This "timestamp bumping" style models queueing delay and pipelining
//! without needing a process abstraction: the HPBD server's RDMA/memcpy
//! overlap (paper §4.2.1) emerges from reserving the DMA and CPU resources
//! independently, and the contention between two concurrent quicksort
//! instances in Figure 9 emerges from both reserving the same client CPU.

use crate::time::{SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

/// A single-server FIFO resource.
#[derive(Clone)]
pub struct Resource {
    name: &'static str,
    next_free: Rc<Cell<SimTime>>,
    busy_total: Rc<Cell<SimDuration>>,
}

impl Resource {
    /// A resource that is free from t = 0.
    pub fn new(name: &'static str) -> Resource {
        Resource {
            name,
            next_free: Rc::new(Cell::new(SimTime::ZERO)),
            busy_total: Rc::new(Cell::new(SimDuration::ZERO)),
        }
    }

    /// Reserve `dur` starting no earlier than `earliest`. Returns
    /// `(start, end)` after FIFO queueing behind earlier reservations.
    pub fn reserve(&self, earliest: SimTime, dur: SimDuration) -> (SimTime, SimTime) {
        let start = self.next_free.get().max(earliest);
        let end = start + dur;
        self.next_free.set(end);
        self.busy_total.set(self.busy_total.get() + dur);
        (start, end)
    }

    /// Total booked busy time (utilization numerator).
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total.get()
    }

    /// Diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl fmt::Debug for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Resource")
            .field("name", &self.name)
            .field("next_free", &self.next_free.get())
            .field("busy_total", &self.busy_total.get())
            .finish()
    }
}

/// A k-server resource (e.g. the dual-CPU node of the paper's testbed).
/// Each reservation is placed on the server that frees up first.
#[derive(Clone)]
pub struct MultiResource {
    name: &'static str,
    servers: Rc<RefCell<Vec<SimTime>>>,
    busy_total: Rc<Cell<SimDuration>>,
}

impl MultiResource {
    /// A pool of `k` identical servers, all free from t = 0.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(name: &'static str, k: usize) -> MultiResource {
        assert!(k > 0, "MultiResource needs at least one server");
        MultiResource {
            name,
            servers: Rc::new(RefCell::new(vec![SimTime::ZERO; k])),
            busy_total: Rc::new(Cell::new(SimDuration::ZERO)),
        }
    }

    /// Reserve `dur` on the earliest-available server, starting no earlier
    /// than `earliest`. Returns `(start, end)`.
    pub fn reserve(&self, earliest: SimTime, dur: SimDuration) -> (SimTime, SimTime) {
        let mut servers = self.servers.borrow_mut();
        // Earliest-free server; ties broken by index for determinism.
        let (idx, _) = servers
            .iter()
            .enumerate()
            .min_by_key(|&(i, t)| (*t, i))
            .expect("at least one server");
        let start = servers[idx].max(earliest);
        let end = start + dur;
        servers[idx] = end;
        self.busy_total.set(self.busy_total.get() + dur);
        (start, end)
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.servers.borrow().len()
    }

    /// Total booked busy time across all servers.
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total.get()
    }

    /// Diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl fmt::Debug for MultiResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiResource")
            .field("name", &self.name)
            .field("servers", &*self.servers.borrow())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_starts_immediately() {
        let r = Resource::new("cpu");
        let (s, e) = r.reserve(SimTime(100), SimDuration(50));
        assert_eq!((s, e), (SimTime(100), SimTime(150)));
    }

    #[test]
    fn busy_resource_queues_fifo() {
        let r = Resource::new("cpu");
        r.reserve(SimTime(0), SimDuration(100));
        let (s, e) = r.reserve(SimTime(10), SimDuration(20));
        assert_eq!((s, e), (SimTime(100), SimTime(120)));
    }

    #[test]
    fn gap_leaves_idle_time() {
        let r = Resource::new("cpu");
        r.reserve(SimTime(0), SimDuration(10));
        let (s, _) = r.reserve(SimTime(500), SimDuration(10));
        assert_eq!(s, SimTime(500));
        assert_eq!(r.busy_total(), SimDuration(20));
    }

    #[test]
    fn multi_resource_uses_both_servers() {
        let m = MultiResource::new("cpus", 2);
        let (s1, e1) = m.reserve(SimTime(0), SimDuration(100));
        let (s2, e2) = m.reserve(SimTime(0), SimDuration(100));
        // Both start immediately on distinct servers.
        assert_eq!((s1, s2), (SimTime(0), SimTime(0)));
        assert_eq!((e1, e2), (SimTime(100), SimTime(100)));
        // Third task queues behind the earlier-free server.
        let (s3, _) = m.reserve(SimTime(0), SimDuration(10));
        assert_eq!(s3, SimTime(100));
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_server_pool_panics() {
        MultiResource::new("none", 0);
    }
}
