//! Memory-path cost model shared by both nodes.
//!
//! [`MemoryModel`] wraps a [`Calibration`] and a node CPU
//! [`simcore::MultiResource`], charging memcpy/registration work against the
//! CPU so that staging copies contend with application compute — the "host
//! overhead" the paper identifies as the dominant cost once the network is
//! fast.

use crate::Calibration;
use simcore::{Engine, MultiResource, SimDuration, SimTime};
use std::rc::Rc;

/// Per-node memory cost model bound to that node's CPU resource.
#[derive(Clone)]
pub struct MemoryModel {
    cal: Rc<Calibration>,
    cpu: MultiResource,
    engine: Engine,
}

impl MemoryModel {
    /// Bind a calibration to a node CPU pool.
    pub fn new(engine: Engine, cal: Rc<Calibration>, cpu: MultiResource) -> MemoryModel {
        MemoryModel { cal, cpu, engine }
    }

    /// The node CPU pool (shared with other components on the node).
    pub fn cpu(&self) -> &MultiResource {
        &self.cpu
    }

    /// The calibration in effect.
    pub fn calibration(&self) -> &Calibration {
        &self.cal
    }

    /// Reserve CPU time for a memcpy of `len` bytes starting no earlier than
    /// `earliest`; returns the completion instant.
    pub fn memcpy_busy(&self, earliest: SimTime, len: u64) -> SimTime {
        let dur = self.cal.memcpy_time(len);
        let (_, end) = self.cpu.reserve(earliest, dur);
        end
    }

    /// Schedule a memcpy starting now; invokes `done` at its completion.
    pub fn memcpy_async(&self, len: u64, done: impl FnOnce() + 'static) {
        let end = self.memcpy_busy(self.engine.now(), len);
        self.engine.schedule_at(end, done);
    }

    /// memcpy duration without reserving CPU (pure model query).
    pub fn memcpy_time(&self, len: u64) -> SimDuration {
        self.cal.memcpy_time(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn setup() -> (Engine, MemoryModel) {
        let eng = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let cpu = MultiResource::new("cpu", 2);
        let mm = MemoryModel::new(eng.clone(), cal, cpu);
        (eng, mm)
    }

    #[test]
    fn memcpy_async_fires_after_cost() {
        let (eng, mm) = setup();
        let done_at = Rc::new(Cell::new(SimTime::ZERO));
        {
            let done_at = done_at.clone();
            let eng2 = eng.clone();
            mm.memcpy_async(4096, move || done_at.set(eng2.now()));
        }
        eng.run_until_idle();
        let expect = mm.memcpy_time(4096);
        assert_eq!(done_at.get(), SimTime::ZERO + expect);
    }

    #[test]
    fn copies_contend_beyond_cpu_count() {
        let (eng, mm) = setup();
        // Three copies on a 2-CPU node: the third queues.
        let t1 = mm.memcpy_busy(eng.now(), 65536);
        let t2 = mm.memcpy_busy(eng.now(), 65536);
        let t3 = mm.memcpy_busy(eng.now(), 65536);
        assert_eq!(t1, t2);
        assert!(t3 > t1);
    }
}
