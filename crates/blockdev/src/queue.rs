//! The merging request queue (the kernel I/O scheduler front-end).
//!
//! Swap I/O leaves the VM as page-sized bios; the block layer coalesces
//! adjacent ones into large transfers capped at 128 KiB (the Linux 2.4
//! single-request bound the paper cites in §4.2.5 and profiles in
//! Figure 6). [`RequestQueue`] stages bios while "plugged", then
//! [`RequestQueue::flush`] sorts them, merges exactly-adjacent same-op runs,
//! chunks at the cap, charges the kernel's per-request submission cost to
//! the node CPU, and dispatches to the device. Every dispatch is logged so
//! the Figure 6 harness can reconstruct the request-size profile.

use crate::device::BlockDevice;
use crate::request::{Bio, IoOp, IoRequest};
use netmodel::{Calibration, Node};
use simcore::{Engine, OnlineStats, SimDuration, SimTime};
use simtrace::{Counter, Histogram};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Maximum merged request size (Linux 2.4: 128 KiB).
pub const MAX_REQUEST_BYTES: u64 = 128 * 1024;

/// Default staged-bio count that forces a flush ("unplug") even without an
/// explicit [`RequestQueue::flush`], so a runaway producer cannot stage
/// unboundedly.
pub const DEFAULT_FLUSH_BACKSTOP: usize = 4096;

/// Cut `bios`, already in the caller's dispatch order, into runs of exactly
/// adjacent same-op bios of at most `max_bytes`, and hand each run to
/// `emit` in order. A bio larger than `max_bytes` goes alone.
pub fn for_each_run(
    bios: impl IntoIterator<Item = Bio>,
    max_bytes: u64,
    mut emit: impl FnMut(Vec<Bio>),
) {
    let mut run: Vec<Bio> = Vec::new();
    let mut run_len = 0;
    for bio in bios {
        if let Some(last) = run.last() {
            if last.op != bio.op || last.end() != bio.offset || run_len + bio.len() > max_bytes {
                emit(std::mem::take(&mut run));
                run_len = 0;
            }
        }
        run_len += bio.len();
        run.push(bio);
    }
    if !run.is_empty() {
        emit(run);
    }
}

/// One dispatched request, for instrumentation.
#[derive(Clone, Copy, Debug)]
pub struct DispatchRecord {
    /// Dispatch instant.
    pub at: SimTime,
    /// Read or write.
    pub op: IoOp,
    /// Extent offset on the device.
    pub offset: u64,
    /// Extent length.
    pub len: u64,
    /// Number of bios merged into the request.
    pub bios: usize,
}

/// A merging request queue in front of one block device.
pub struct RequestQueue {
    engine: Engine,
    cal: Rc<Calibration>,
    node: Node,
    device: Rc<dyn BlockDevice>,
    max_request: u64,
    flush_backstop: usize,
    staged: RefCell<Vec<Bio>>,
    /// Recycled batch buffer: `flush` swaps it with `staged` so the staging
    /// vector keeps its capacity across plug/unplug cycles.
    spare: Cell<Vec<Bio>>,
    log: Rc<RefCell<Vec<DispatchRecord>>>,
    /// Per-request service latency (dispatch → completion), microseconds,
    /// split by operation.
    read_latency: Rc<RefCell<OnlineStats>>,
    write_latency: Rc<RefCell<OnlineStats>>,
}

impl RequestQueue {
    /// Create a queue over `device` with the standard 128 KiB cap.
    pub fn new(
        engine: Engine,
        cal: Rc<Calibration>,
        node: Node,
        device: Rc<dyn BlockDevice>,
    ) -> RequestQueue {
        RequestQueue::with_limits(
            engine,
            cal,
            node,
            device,
            MAX_REQUEST_BYTES,
            DEFAULT_FLUSH_BACKSTOP,
        )
    }

    /// Create a queue with both batching limits explicit: the merge cap in
    /// bytes and the staged-bio backstop that forces an unplug.
    pub fn with_limits(
        engine: Engine,
        cal: Rc<Calibration>,
        node: Node,
        device: Rc<dyn BlockDevice>,
        max_request: u64,
        flush_backstop: usize,
    ) -> RequestQueue {
        assert!(max_request > 0);
        assert!(flush_backstop > 0);
        RequestQueue {
            engine,
            cal,
            node,
            device,
            max_request,
            flush_backstop,
            staged: RefCell::new(Vec::new()),
            spare: Cell::new(Vec::new()),
            log: Rc::new(RefCell::new(Vec::new())),
            read_latency: Rc::new(RefCell::new(OnlineStats::new())),
            write_latency: Rc::new(RefCell::new(OnlineStats::new())),
        }
    }

    /// Service-latency statistics for read (swap-in) requests, in µs.
    pub fn read_latency(&self) -> OnlineStats {
        self.read_latency.borrow().clone()
    }

    /// Service-latency statistics for write (swap-out) requests, in µs.
    pub fn write_latency(&self) -> OnlineStats {
        self.write_latency.borrow().clone()
    }

    /// The device behind the queue.
    pub fn device(&self) -> &Rc<dyn BlockDevice> {
        &self.device
    }

    /// Shared handle to the dispatch log (Figure 6 instrumentation).
    pub fn dispatch_log(&self) -> Rc<RefCell<Vec<DispatchRecord>>> {
        self.log.clone()
    }

    /// Stage a bio ("plugged" submission). Call [`RequestQueue::flush`] to
    /// dispatch — mirroring the kernel's plug/unplug batching that gives
    /// adjacent swap pages a chance to merge.
    pub fn submit(&self, bio: Bio) {
        assert!(!bio.is_empty(), "zero-length bio");
        self.staged.borrow_mut().push(bio);
        // Backstop so a runaway producer cannot stage unboundedly.
        if self.staged.borrow().len() >= self.flush_backstop {
            self.flush();
        }
    }

    /// Convenience: stage and immediately flush one bio.
    pub fn submit_now(&self, bio: Bio) {
        self.submit(bio);
        self.flush();
    }

    /// Sort, merge, chunk and dispatch everything staged.
    pub fn flush(&self) {
        let mut batch = {
            let mut staged = self.staged.borrow_mut();
            if staged.is_empty() {
                return;
            }
            std::mem::replace(&mut *staged, self.spare.take())
        };
        // Stable sort by offset keeps same-offset submission order.
        batch.sort_by_key(|b| b.offset);

        // Handles are resolved once per flush; counter/histogram entries are
        // created at the first non-empty flush, exactly when per-dispatch
        // `inc`/`observe` calls used to create them (rendered metrics stay
        // byte-identical).
        let metrics = self.engine.metrics();
        let requests_ctr = metrics.counter_handle("blockdev.requests");
        let bios_ctr = metrics.counter_handle("blockdev.bios");
        let bios_per_request = metrics.histogram_handle("blockdev.bios_per_request");

        let now = self.engine.now();
        for_each_run(batch.drain(..), self.max_request, |run| {
            self.dispatch(now, run, &requests_ctr, &bios_ctr, &bios_per_request)
        });
        self.spare.set(batch);
    }

    fn dispatch(
        &self,
        now: SimTime,
        run: Vec<Bio>,
        requests_ctr: &Counter,
        bios_ctr: &Counter,
        bios_per_request: &Histogram,
    ) {
        let req = IoRequest::from_bios(run);
        // Kernel block-layer work scales with the pages in the request
        // (swap-cache bookkeeping, bio setup, page table updates).
        let submit_cost =
            SimDuration::from_nanos(self.cal.compute.block_submit_ns * req.bio_count() as u64);
        let (_, t) = self.node.cpu().reserve(now, submit_cost);
        self.log.borrow_mut().push(DispatchRecord {
            at: t,
            op: req.op(),
            offset: req.offset(),
            len: req.len(),
            bios: req.bio_count(),
        });
        let device = self.device.clone();
        let stats = match req.op() {
            IoOp::Read => self.read_latency.clone(),
            IoOp::Write => self.write_latency.clone(),
        };
        let engine = self.engine.clone();
        let metrics = self.engine.metrics();
        requests_ctr.inc();
        bios_ctr.add(req.bio_count() as u64);
        bios_per_request.observe(req.bio_count() as f64);
        self.engine.schedule_at(t, move || {
            let dispatched = engine.now();
            let engine2 = engine.clone();
            let op = req.op();
            let bytes = req.len();
            let bios = req.bio_count() as u64;
            // Stamp the span context at the dispatch boundary: from here the
            // device stack appends phase marks, and the completion hook below
            // folds them — so [submit, end] is exactly the latency the
            // blockdev histograms record for the same request.
            let mut req = req;
            let lifecycle = engine.lifecycle().begin(
                device.name(),
                op == IoOp::Write,
                bytes,
                dispatched.as_nanos(),
            );
            if let Some(ctx) = &lifecycle {
                req.set_lifecycle(ctx.clone());
            }
            let req = req.on_complete(move |result| {
                let us = engine2.now().since(dispatched).as_micros_f64();
                stats.borrow_mut().record(us);
                let (name, hist) = match op {
                    IoOp::Read => ("read", "blockdev.swap_in_latency_us"),
                    IoOp::Write => ("write", "blockdev.swap_out_latency_us"),
                };
                metrics.observe(hist, us);
                engine2.span(
                    "blockdev",
                    name,
                    dispatched.as_nanos(),
                    engine2.now().as_nanos(),
                    &[("bytes", bytes), ("bios", bios)],
                );
                if let Some(ctx) = &lifecycle {
                    ctx.end(engine2.now().as_nanos(), result.is_ok());
                }
            });
            device.submit(req)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ramdisk::RamDiskDevice;
    use crate::request::{new_buffer, IoResult};
    use std::cell::Cell;

    struct Fixture {
        engine: Engine,
        queue: RequestQueue,
    }

    fn fixture() -> Fixture {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let node = Node::new("n", 0, 2);
        let dev = Rc::new(RamDiskDevice::new(
            engine.clone(),
            cal.clone(),
            node.clone(),
            64 << 20,
            "ram",
        ));
        let queue = RequestQueue::new(engine.clone(), cal, node, dev);
        Fixture { engine, queue }
    }

    fn bio(op: IoOp, offset: u64, len: usize, done: impl FnOnce(IoResult) + 'static) -> Bio {
        Bio::new(op, offset, new_buffer(len), done)
    }

    #[test]
    fn adjacent_pages_merge_into_one_request() {
        let f = fixture();
        let done = Rc::new(Cell::new(0));
        for i in 0..8u64 {
            let done = done.clone();
            f.queue.submit(bio(IoOp::Write, i * 4096, 4096, move |r| {
                assert!(r.is_ok());
                done.set(done.get() + 1);
            }));
        }
        f.queue.flush();
        f.engine.run_until_idle();
        assert_eq!(done.get(), 8);
        let log = f.queue.dispatch_log();
        let log = log.borrow();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].len, 8 * 4096);
        assert_eq!(log[0].bios, 8);
    }

    #[test]
    fn merge_respects_128k_cap() {
        let f = fixture();
        // 40 adjacent pages = 160K: must split into 128K + 32K.
        for i in 0..40u64 {
            f.queue.submit(bio(IoOp::Write, i * 4096, 4096, |_| {}));
        }
        f.queue.flush();
        f.engine.run_until_idle();
        let log = f.queue.dispatch_log();
        let log = log.borrow();
        let lens: Vec<u64> = log.iter().map(|r| r.len).collect();
        assert_eq!(lens, vec![128 * 1024, 32 * 1024]);
    }

    #[test]
    fn gap_splits_requests() {
        let f = fixture();
        f.queue.submit(bio(IoOp::Write, 0, 4096, |_| {}));
        f.queue.submit(bio(IoOp::Write, 8192, 4096, |_| {}));
        f.queue.flush();
        f.engine.run_until_idle();
        assert_eq!(f.queue.dispatch_log().borrow().len(), 2);
    }

    #[test]
    fn op_change_splits_requests() {
        let f = fixture();
        f.queue.submit(bio(IoOp::Write, 0, 4096, |_| {}));
        f.queue.submit(bio(IoOp::Read, 4096, 4096, |_| {}));
        f.queue.flush();
        f.engine.run_until_idle();
        assert_eq!(f.queue.dispatch_log().borrow().len(), 2);
    }

    #[test]
    fn out_of_order_submission_still_merges() {
        let f = fixture();
        for &i in &[3u64, 0, 2, 1] {
            f.queue.submit(bio(IoOp::Write, i * 4096, 4096, |_| {}));
        }
        f.queue.flush();
        f.engine.run_until_idle();
        let log = f.queue.dispatch_log();
        let log = log.borrow();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].len, 4 * 4096);
    }

    #[test]
    fn data_lands_correctly_after_merge() {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let node = Node::new("n", 0, 2);
        let dev = Rc::new(RamDiskDevice::new(
            engine.clone(),
            cal.clone(),
            node.clone(),
            1 << 20,
            "ram",
        ));
        let storage = dev.storage().clone();
        let queue = RequestQueue::new(engine.clone(), cal, node, dev);
        for i in 0..4u64 {
            let buf = new_buffer(4096);
            buf.borrow_mut().fill(i as u8 + 1);
            queue.submit(Bio::new(IoOp::Write, i * 4096, buf, |r| assert!(r.is_ok())));
        }
        queue.flush();
        engine.run_until_idle();
        for i in 0..4u64 {
            let mut page = vec![0u8; 4096];
            storage.read_at(i * 4096, &mut page);
            assert!(page.iter().all(|&b| b == i as u8 + 1), "page {i}");
        }
    }

    #[test]
    fn flush_of_empty_queue_is_noop() {
        let f = fixture();
        f.queue.flush();
        f.engine.run_until_idle();
        assert_eq!(f.queue.dispatch_log().borrow().len(), 0);
    }

    #[test]
    fn submission_charges_kernel_cpu_cost() {
        let f = fixture();
        f.queue.submit_now(bio(IoOp::Write, 0, 4096, |_| {}));
        f.engine.run_until_idle();
        let cal = Calibration::cluster_2005();
        let log = f.queue.dispatch_log();
        assert_eq!(
            log.borrow()[0].at.as_nanos(),
            cal.compute.block_submit_ns,
            "dispatch happens after the kernel submit cost"
        );
    }
}
