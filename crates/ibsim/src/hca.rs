//! Host channel adapter model.
//!
//! Each node's [`Hca`] owns:
//!
//! * the registered-memory table (rkey → region) used to resolve incoming
//!   RDMA operations;
//! * a WQE-processing [`Resource`] — every work request passes through it,
//!   so a busy adapter queues work;
//! * a QP-context cache. The MT23108 keeps a limited number of QP contexts
//!   on-chip; once a node talks to more peers than fit (the paper observes
//!   this at 16 servers, Figure 10), each operation pays a context-reload
//!   penalty. Modeled as an LRU set over QP numbers.

use crate::mr::MemoryRegion;
use netmodel::HcaParams;
use simcore::{MetricsRegistry, Resource, SimDuration, SimTime};
use simtrace::LazyCounter;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

struct HcaInner {
    params: HcaParams,
    regions: BTreeMap<u32, MemoryRegion>,
    next_key: u32,
    /// LRU of recently-used QP numbers, most recent at the back.
    qp_lru: Vec<u32>,
    /// QPs created on this HCA (drives the multi-QP scheduling cost).
    connected_qps: usize,
    ctx_reloads: u64,
    ctx_hits: u64,
    /// `ibsim.qp_ctx_hits` and `ibsim.qp_ctx_reloads` in the shared metrics
    /// sink, installed by the fabric at node creation.
    ctx_ctrs: Option<[LazyCounter; 2]>,
}

/// Per-node host channel adapter.
#[derive(Clone)]
pub struct Hca {
    proc: Resource,
    inner: Rc<RefCell<HcaInner>>,
}

impl Hca {
    /// Create an HCA with the given calibrated parameters.
    pub fn new(params: HcaParams) -> Hca {
        Hca {
            proc: Resource::new("hca-proc"),
            inner: Rc::new(RefCell::new(HcaInner {
                params,
                regions: BTreeMap::new(),
                next_key: 1,
                qp_lru: Vec::new(),
                connected_qps: 0,
                ctx_reloads: 0,
                ctx_hits: 0,
                ctx_ctrs: None,
            })),
        }
    }

    /// Install the shared metrics registry so context-cache hits/misses
    /// are recorded (done by the fabric when the node is created).
    pub fn set_metrics(&self, metrics: MetricsRegistry) {
        self.inner.borrow_mut().ctx_ctrs = Some([
            metrics.lazy_counter("ibsim.qp_ctx_hits"),
            metrics.lazy_counter("ibsim.qp_ctx_reloads"),
        ]);
    }

    /// Calibrated parameters.
    pub fn params(&self) -> HcaParams {
        self.inner.borrow().params.clone()
    }

    /// Register a zeroed region of `len` bytes and return it. The *timing*
    /// cost of registration is charged by the caller against its CPU (see
    /// `netmodel::Calibration::registration_time`); this call only installs
    /// the translation entry.
    pub fn register(&self, len: usize) -> MemoryRegion {
        let mut inner = self.inner.borrow_mut();
        let lkey = inner.next_key;
        let rkey = inner.next_key + 1;
        inner.next_key += 2;
        let mr = MemoryRegion::new(len, lkey, rkey);
        inner.regions.insert(rkey, mr.clone());
        mr
    }

    /// Remove a region from the translation table. RDMA operations arriving
    /// afterwards fail with a remote access error, as on real hardware.
    pub fn deregister(&self, mr: &MemoryRegion) {
        self.inner.borrow_mut().regions.remove(&mr.rkey());
    }

    /// Resolve an rkey to its region, if still registered.
    pub fn lookup_rkey(&self, rkey: u32) -> Option<MemoryRegion> {
        self.inner.borrow().regions.get(&rkey).cloned()
    }

    /// Record a QP created on this HCA (called at connection setup).
    pub fn note_qp_connected(&self) {
        self.inner.borrow_mut().connected_qps += 1;
    }

    /// QPs created on this HCA.
    pub fn connected_qps(&self) -> usize {
        self.inner.borrow().connected_qps
    }

    /// Charge WQE processing for one operation on `qp_num`, starting no
    /// earlier than `earliest`. Returns the instant the HCA is done with it.
    /// Includes the QP-context penalty when the context misses the cache
    /// and the scheduling cost of handling a QP population beyond the
    /// cache capacity.
    pub fn process_wqe(&self, earliest: SimTime, qp_num: u32) -> SimTime {
        let cost = {
            let mut inner = self.inner.borrow_mut();
            let cache = inner.params.qp_cache_size;
            let excess = inner.connected_qps.saturating_sub(cache) as u64;
            let sched = excess * inner.params.qp_sched_ns_per_excess;
            let hit = if let Some(pos) = inner.qp_lru.iter().position(|&q| q == qp_num) {
                inner.qp_lru.remove(pos);
                inner.qp_lru.push(qp_num);
                true
            } else {
                inner.qp_lru.push(qp_num);
                if inner.qp_lru.len() > cache {
                    inner.qp_lru.remove(0);
                }
                false
            };
            if let Some([hits, reloads]) = &inner.ctx_ctrs {
                if hit { hits } else { reloads }.inc();
            }
            if hit {
                inner.ctx_hits += 1;
                inner.params.per_wqe_ns + sched
            } else {
                inner.ctx_reloads += 1;
                inner.params.per_wqe_ns + inner.params.qp_ctx_reload_ns + sched
            }
        };
        let (_, end) = self.proc.reserve(earliest, SimDuration::from_nanos(cost));
        end
    }

    /// QP context reloads so far (Figure 10 diagnostics).
    pub fn ctx_reloads(&self) -> u64 {
        self.inner.borrow().ctx_reloads
    }

    /// QP context cache hits so far.
    pub fn ctx_hits(&self) -> u64 {
        self.inner.borrow().ctx_hits
    }

    /// The WQE-processing resource (for utilization reporting).
    pub fn proc(&self) -> &Resource {
        &self.proc
    }
}

impl fmt::Debug for Hca {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Hca")
            .field("regions", &inner.regions.len())
            .field("ctx_reloads", &inner.ctx_reloads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::Calibration;

    fn hca() -> Hca {
        Hca::new(Calibration::cluster_2005().hca)
    }

    #[test]
    fn register_assigns_unique_keys() {
        let h = hca();
        let a = h.register(64);
        let b = h.register(64);
        assert_ne!(a.rkey(), b.rkey());
        assert_ne!(a.lkey(), a.rkey());
        assert!(h.lookup_rkey(a.rkey()).unwrap().same_region(&a));
    }

    #[test]
    fn deregister_revokes_rkey() {
        let h = hca();
        let a = h.register(64);
        h.deregister(&a);
        assert!(h.lookup_rkey(a.rkey()).is_none());
    }

    #[test]
    fn qp_cache_within_capacity_has_no_reloads_after_warmup() {
        let h = hca();
        let cache = h.params().qp_cache_size as u32;
        // Round-robin over exactly `cache` QPs: only cold misses.
        for round in 0..10 {
            for qp in 0..cache {
                h.process_wqe(SimTime::ZERO, qp);
                let _ = round;
            }
        }
        assert_eq!(h.ctx_reloads(), cache as u64, "only compulsory misses");
    }

    #[test]
    fn qp_cache_thrashes_beyond_capacity() {
        let h = hca();
        let cache = h.params().qp_cache_size as u32;
        // Round-robin over 2x the cache: with LRU every access misses.
        for _ in 0..5 {
            for qp in 0..(2 * cache) {
                h.process_wqe(SimTime::ZERO, qp);
            }
        }
        assert_eq!(h.ctx_hits(), 0, "LRU + round-robin over 2x cache = thrash");
    }

    #[test]
    fn wqe_cost_higher_on_miss() {
        let h = hca();
        let p = h.params();
        let t1 = h.process_wqe(SimTime::ZERO, 1); // miss
        let t2 = h.process_wqe(t1, 1); // hit
        assert_eq!(
            t1.as_nanos(),
            p.per_wqe_ns + p.qp_ctx_reload_ns,
            "miss pays reload"
        );
        assert_eq!(t2.as_nanos() - t1.as_nanos(), p.per_wqe_ns, "hit does not");
    }

    #[test]
    fn wqe_processing_is_serialized() {
        let h = hca();
        let a = h.process_wqe(SimTime::ZERO, 1);
        let b = h.process_wqe(SimTime::ZERO, 1);
        assert!(b > a, "second WQE queues behind the first");
    }
}
