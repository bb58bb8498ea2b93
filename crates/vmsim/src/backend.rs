//! The vmsim↔storage boundary: [`SwapBackend`] and its two implementations.
//!
//! The VM core used to hard-wire the kernel block layer — every swap I/O
//! went through an `Rc<RequestQueue>` (bio staging, elevator merging,
//! plug/unplug). This module makes that one of two interchangeable paths
//! behind a per-page trait:
//!
//! * [`BlockBackend`] — the paper's kernel path. Pages become bios on the
//!   merging [`RequestQueue`]; [`SwapBackend::reap`] unplugs it. Every
//!   figure built on this adapter is byte-identical to the pre-trait code
//!   (`tests/block_backend_differential.rs` holds the blessed baseline).
//! * [`DirectBackend`] — a frontswap-style user-space path (Hermit /
//!   Fastswap, PAPERS.md): no elevator, no queue plug, no per-bio kernel
//!   submission charge. The demand page goes straight to the device,
//!   first and alone, and its completion is busy-polled with an adaptive
//!   poll→event fallback when the swap stream has gone idle; write-back
//!   bursts and readahead clusters are staged and [`SwapBackend::reap`]
//!   sends each run of adjacent pages as one request.
//!
//! The contract (DESIGN.md §16): `store`/`load` *submit* one page and may
//! defer I/O until [`SwapBackend::reap`]; completion callbacks fire from
//! engine events, never synchronously from the submission call.

use blockdev::{
    for_each_run, Bio, BlockDevice, IoBuffer, IoOp, IoRequest, IoResult, RamDiskDevice,
    RequestQueue,
};
use netmodel::{Calibration, Node};
use simcore::{Engine, OnlineStats, SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Completion callback for one page of swap I/O.
pub type PageDone = Box<dyn FnOnce(IoResult)>;

/// Why a page is being loaded — demand faults are latency-critical (a
/// task is blocked on them) and are the ones the direct path busy-polls;
/// readahead is opportunistic and always completes via events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadKind {
    /// A faulting task is waiting for this page.
    Demand,
    /// Speculative cluster readahead behind a demand fault.
    Readahead,
}

/// A swap storage path: per-page submission with an explicit
/// completion-reaping contract.
///
/// Submission (`store`, `load`) hands the backend one page-sized buffer
/// and a completion callback. A backend may stage submissions; `reap`
/// makes every staged page durable-in-flight (the block path's unplug).
/// Callbacks always fire from engine events — a backend must never
/// complete synchronously inside `store`/`load`/`reap`, because the VM
/// core holds its `RefCell` borrow across those calls.
pub trait SwapBackend {
    /// Usable swap bytes on this backend.
    fn capacity(&self) -> u64;

    /// Name of the underlying device (report labels, lifecycle spans).
    fn device_name(&self) -> &str;

    /// Submit a page-out write of `buf` at byte `offset`.
    fn store(&self, offset: u64, buf: IoBuffer, done: PageDone);

    /// Submit a page-in read into `buf` from byte `offset`.
    fn load(&self, offset: u64, kind: LoadKind, buf: IoBuffer, done: PageDone);

    /// Kick staged submissions toward the device. The VM calls this once
    /// per fault/reclaim batch so backends that merge (the block path)
    /// see whole bursts.
    fn reap(&self);

    /// Device-level requests dispatched so far.
    fn requests(&self) -> u64;

    /// Mean dispatched request size in bytes (0.0 when none).
    fn mean_request_bytes(&self) -> f64;

    /// Per-request read service latency (µs).
    fn read_latency(&self) -> OnlineStats;

    /// Per-request write service latency (µs).
    fn write_latency(&self) -> OnlineStats;
}

// -- the kernel block path ----------------------------------------------

/// Adapter over the merging [`RequestQueue`]: the paper's swap path,
/// bit-for-bit. Pages stage as bios, `reap` unplugs, adjacent pages merge
/// into up-to-128 KiB requests.
pub struct BlockBackend {
    queue: Rc<RequestQueue>,
}

impl BlockBackend {
    /// Wrap an existing request queue.
    pub fn new(queue: Rc<RequestQueue>) -> Rc<BlockBackend> {
        Rc::new(BlockBackend { queue })
    }

    /// The wrapped queue (figure harnesses read its dispatch log).
    pub fn queue(&self) -> &Rc<RequestQueue> {
        &self.queue
    }

    /// Convenience for tests and fixtures: a block path over a fresh
    /// RAM-disk of `capacity` bytes.
    pub fn over_ramdisk(
        engine: &Engine,
        cal: &Rc<Calibration>,
        node: &Node,
        capacity: u64,
        name: &str,
    ) -> Rc<BlockBackend> {
        let dev = Rc::new(RamDiskDevice::new(
            engine.clone(),
            cal.clone(),
            node.clone(),
            capacity,
            name,
        ));
        let queue = Rc::new(RequestQueue::new(
            engine.clone(),
            cal.clone(),
            node.clone(),
            dev,
        ));
        BlockBackend::new(queue)
    }
}

impl SwapBackend for BlockBackend {
    fn capacity(&self) -> u64 {
        self.queue.device().capacity()
    }

    fn device_name(&self) -> &str {
        self.queue.device().name()
    }

    fn store(&self, offset: u64, buf: IoBuffer, done: PageDone) {
        self.queue.submit(Bio::new(IoOp::Write, offset, buf, done));
    }

    fn load(&self, offset: u64, _kind: LoadKind, buf: IoBuffer, done: PageDone) {
        self.queue.submit(Bio::new(IoOp::Read, offset, buf, done));
    }

    fn reap(&self) {
        self.queue.flush();
    }

    fn requests(&self) -> u64 {
        self.queue.dispatch_log().borrow().len() as u64
    }

    fn mean_request_bytes(&self) -> f64 {
        let log = self.queue.dispatch_log();
        let log = log.borrow();
        if log.is_empty() {
            0.0
        } else {
            log.iter().map(|r| r.len as f64).sum::<f64>() / log.len() as f64
        }
    }

    fn read_latency(&self) -> OnlineStats {
        self.queue.read_latency()
    }

    fn write_latency(&self) -> OnlineStats {
        self.queue.write_latency()
    }
}

// -- the user-space direct path ------------------------------------------

/// Largest request [`DirectBackend::reap`] builds out of adjacent staged
/// pages: one default readahead cluster, 8 × 4 KiB. A constant, not an
/// option — the sweep that chose it (32 / 64 / 128 KiB against per-page
/// submission, EXPERIMENTS.md *Figure U*) found 32 KiB the only cap at
/// which every direct-path makespan beats per-page submission: it carries
/// a whole readahead in one message, and a demand page that lands behind a
/// neighbour's write-back run waits for 32 KiB, not 128.
pub const DIRECT_MAX_RUN_BYTES: u64 = 32 * 1024;

/// Tuning for the [`DirectBackend`].
#[derive(Clone, Debug)]
pub struct DirectConfig {
    /// CPU cost of one page submission (no bio allocation, no elevator
    /// pass — a store/load call plus a doorbell; cf. the block layer's
    /// 1500 ns per bio).
    pub submit_ns: u64,
    /// Busy-poll budget for a demand load. The faulting CPU spins this
    /// long before giving up and arming an event ("poll timeout").
    pub poll_budget_ns: u64,
    /// Adaptive fallback window: a demand load polls only if the last
    /// completion was at most this long ago, otherwise the stream is
    /// considered idle and the handler sleeps on the event immediately.
    pub idle_threshold_ns: u64,
}

impl Default for DirectConfig {
    fn default() -> DirectConfig {
        DirectConfig {
            submit_ns: 350,
            // A one-page HPBD round trip is 63–80 µs on the 2005
            // calibration, so this budget never covers one: measured,
            // every polled demand load times out (`poll_timeouts ==
            // polled` on every figU cell and on `zipf_direct`). What the
            // model charges is therefore 25 µs of CPU per hot fault, then
            // a sleep for the tail. Sizing or dropping the budget is
            // ROADMAP item 9C.
            poll_budget_ns: 25_000,
            idle_threshold_ns: 200_000,
        }
    }
}

/// Page and busy-poll bookkeeping of a [`DirectBackend`].
#[derive(Clone, Debug, Default)]
pub struct DirectStats {
    /// Page-out submissions.
    pub page_stores: u64,
    /// Demand page-in submissions.
    pub page_loads: u64,
    /// Readahead page-in submissions.
    pub readahead_loads: u64,
    /// Demand loads completed while the CPU was busy-polling.
    pub polled: u64,
    /// Of which the poll budget ran out first (tail slept on the event).
    pub poll_timeouts: u64,
    /// Demand loads that skipped polling (idle stream → event wait).
    pub event_waits: u64,
    /// CPU time burned polling, nanoseconds.
    pub poll_cpu_ns: u64,
}

struct DirectInner {
    stats: DirectStats,
    read_latency: OnlineStats,
    write_latency: OnlineStats,
    requests: u64,
    total_bytes: u64,
}

/// Frontswap-style user-space path: demand first and alone, everything
/// else coalesced at [`SwapBackend::reap`].
///
/// A demand load is one single-page request submitted straight to the
/// device at the call; its completion latency is charged to the faulting
/// CPU as busy-poll time (bounded by [`DirectConfig::poll_budget_ns`])
/// whenever the swap stream is hot. Stores and readahead loads are staged;
/// `reap` sorts them and sends every run of same-op, offset-adjacent pages
/// as one request of at most [`DIRECT_MAX_RUN_BYTES`] — a kswapd burst over
/// next-fit slots or a readahead cluster is one message, as it is below
/// the block layer's elevator. The merge sits here, above the device,
/// because this is the last place a page's [`LoadKind`] is known: merged
/// any lower, the demand page rides in its readahead's request and waits
/// for all of it.
pub struct DirectBackend {
    engine: Engine,
    node: Node,
    dev: Rc<dyn BlockDevice>,
    config: DirectConfig,
    inner: Rc<RefCell<DirectInner>>,
    /// Stores and readahead loads submitted since the last `reap`.
    staged: RefCell<Vec<Bio>>,
    /// Completion recency, for the poll-vs-event decision. `None` until
    /// the first completion.
    last_completion: Rc<Cell<Option<SimTime>>>,
}

impl DirectBackend {
    /// A direct path over `dev` with `config` tuning.
    pub fn new(
        engine: Engine,
        node: Node,
        dev: Rc<dyn BlockDevice>,
        config: DirectConfig,
    ) -> Rc<DirectBackend> {
        Rc::new(DirectBackend {
            engine,
            node,
            dev,
            config,
            inner: Rc::new(RefCell::new(DirectInner {
                stats: DirectStats::default(),
                read_latency: OnlineStats::new(),
                write_latency: OnlineStats::new(),
                requests: 0,
                total_bytes: 0,
            })),
            staged: RefCell::new(Vec::new()),
            last_completion: Rc::new(Cell::new(None)),
        })
    }

    /// Page and busy-poll bookkeeping so far.
    pub fn stats(&self) -> DirectStats {
        self.inner.borrow().stats.clone()
    }

    /// The device underneath.
    pub fn device(&self) -> &Rc<dyn BlockDevice> {
        &self.dev
    }

    /// Poll-vs-event decision for a demand load submitted now: poll while
    /// the stream is hot (a completion landed within the idle threshold),
    /// fall back to event waits once it has gone cold.
    fn should_poll(&self, now: SimTime) -> bool {
        match self.last_completion.get() {
            Some(t) => now.since(t).as_nanos() <= self.config.idle_threshold_ns,
            None => false,
        }
    }

    /// Per-page submission cost, paid at the `store`/`load` call whether
    /// the page goes out now or at `reap`: trivial next to the block
    /// layer's per-bio charge — that difference is most of the direct
    /// path's win.
    fn charge_submit(&self) {
        self.node.cpu().reserve(
            self.engine.now(),
            SimDuration::from_nanos(self.config.submit_ns),
        );
    }

    /// Send `bios` — same-op, sorted, adjacent — to the device as one
    /// request: one lifecycle context, one latency sample, one
    /// `requests()` count. Only a lone demand page is polled for.
    fn submit_run(&self, bios: Vec<Bio>, demand: bool) {
        let now = self.engine.now();
        let mut req = IoRequest::from_bios(bios);
        let op = req.op();
        let bytes = req.len();
        let polling = demand && self.should_poll(now);
        {
            let mut inner = self.inner.borrow_mut();
            inner.requests += 1;
            inner.total_bytes += bytes;
        }

        let lifecycle = self.engine.lifecycle().begin(
            self.dev.name(),
            op == IoOp::Write,
            bytes,
            now.as_nanos(),
        );
        if let Some(ctx) = &lifecycle {
            req.set_lifecycle(ctx.clone());
        }

        let engine = self.engine.clone();
        let node = self.node.clone();
        let inner = self.inner.clone();
        let last_completion = self.last_completion.clone();
        let metrics = self.engine.metrics();
        let poll_budget = self.config.poll_budget_ns;
        let req = req.on_complete(move |result| {
            let done_at = engine.now();
            let elapsed_ns = done_at.since(now).as_nanos();
            let us = done_at.since(now).as_micros_f64();
            last_completion.set(Some(done_at));
            {
                let mut inner = inner.borrow_mut();
                match op {
                    IoOp::Read => inner.read_latency.record(us),
                    IoOp::Write => inner.write_latency.record(us),
                }
                if polling {
                    // The faulting CPU spun from submission until the
                    // completion landed, bounded by the poll budget; past
                    // the budget it armed an event and slept the tail.
                    let charge = elapsed_ns.min(poll_budget);
                    node.cpu().reserve(now, SimDuration::from_nanos(charge));
                    inner.stats.polled += 1;
                    inner.stats.poll_cpu_ns += charge;
                    if elapsed_ns > poll_budget {
                        inner.stats.poll_timeouts += 1;
                    }
                } else if demand {
                    inner.stats.event_waits += 1;
                }
            }
            let (name, hist) = match op {
                IoOp::Read => ("read", "direct.swap_in_latency_us"),
                IoOp::Write => ("write", "direct.swap_out_latency_us"),
            };
            metrics.observe(hist, us);
            engine.span(
                "directswap",
                name,
                now.as_nanos(),
                done_at.as_nanos(),
                &[("bytes", bytes), ("polled", polling as u64)],
            );
            if let Some(ctx) = &lifecycle {
                ctx.end(done_at.as_nanos(), result.is_ok());
            }
        });
        self.dev.submit(req);
    }
}

impl Drop for DirectBackend {
    fn drop(&mut self) {
        // A page staged and never reaped is a `PageDone` that never fires
        // — a task asleep forever. Fail where the `reap` was forgotten.
        debug_assert!(
            self.staged.borrow().is_empty() || std::thread::panicking(),
            "DirectBackend dropped with {} staged pages never reaped",
            self.staged.borrow().len()
        );
    }
}

impl SwapBackend for DirectBackend {
    fn capacity(&self) -> u64 {
        self.dev.capacity()
    }

    fn device_name(&self) -> &str {
        self.dev.name()
    }

    fn store(&self, offset: u64, buf: IoBuffer, done: PageDone) {
        self.charge_submit();
        self.inner.borrow_mut().stats.page_stores += 1;
        self.staged
            .borrow_mut()
            .push(Bio::new(IoOp::Write, offset, buf, done));
    }

    fn load(&self, offset: u64, kind: LoadKind, buf: IoBuffer, done: PageDone) {
        self.charge_submit();
        let bio = Bio::new(IoOp::Read, offset, buf, done);
        match kind {
            LoadKind::Demand => {
                self.inner.borrow_mut().stats.page_loads += 1;
                self.submit_run(vec![bio], true);
            }
            LoadKind::Readahead => {
                self.inner.borrow_mut().stats.readahead_loads += 1;
                self.staged.borrow_mut().push(bio);
            }
        }
    }

    /// Submit everything staged since the last call: loads before stores,
    /// each by ascending offset, a run ending at a gap, at the op change
    /// or at [`DIRECT_MAX_RUN_BYTES`]. No engine event runs between a
    /// `store` and the VM's `reap`, so the bytes a run carries are the
    /// bytes at `store` time.
    fn reap(&self) {
        let mut staged = self.staged.take();
        staged.sort_by_key(|bio| (bio.op == IoOp::Write, bio.offset));
        for_each_run(staged, DIRECT_MAX_RUN_BYTES, |run| {
            self.submit_run(run, false)
        });
    }

    fn requests(&self) -> u64 {
        self.inner.borrow().requests
    }

    fn mean_request_bytes(&self) -> f64 {
        let inner = self.inner.borrow();
        if inner.requests == 0 {
            0.0
        } else {
            inner.total_bytes as f64 / inner.requests as f64
        }
    }

    fn read_latency(&self) -> OnlineStats {
        self.inner.borrow().read_latency.clone()
    }

    fn write_latency(&self) -> OnlineStats {
        self.inner.borrow().write_latency.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::new_buffer;

    fn fixture() -> (Engine, Rc<Calibration>, Node) {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let node = Node::new("client", 0, 2);
        (engine, cal, node)
    }

    #[test]
    fn block_backend_round_trips_a_page() {
        let (engine, cal, node) = fixture();
        let backend = BlockBackend::over_ramdisk(&engine, &cal, &node, 1 << 20, "ram");
        let buf = new_buffer(4096);
        buf.borrow_mut().fill(0xAB);
        let wrote = Rc::new(Cell::new(false));
        let w = wrote.clone();
        backend.store(8192, buf, Box::new(move |r| w.set(r.is_ok())));
        backend.reap();
        engine.run_until_idle();
        assert!(wrote.get());
        let out = new_buffer(4096);
        let read = Rc::new(Cell::new(false));
        let r2 = read.clone();
        backend.load(
            8192,
            LoadKind::Demand,
            out.clone(),
            Box::new(move |r| r2.set(r.is_ok())),
        );
        backend.reap();
        engine.run_until_idle();
        assert!(read.get());
        assert!(out.borrow().iter().all(|&b| b == 0xAB));
        assert_eq!(backend.requests(), 2);
    }

    #[test]
    fn block_backend_does_not_dispatch_until_reaped() {
        let (engine, cal, node) = fixture();
        let backend = BlockBackend::over_ramdisk(&engine, &cal, &node, 1 << 20, "ram");
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        backend.store(0, new_buffer(4096), Box::new(move |_| d.set(true)));
        engine.run_until_idle();
        assert!(!done.get(), "staged bio must wait for reap (queue plug)");
        backend.reap();
        engine.run_until_idle();
        assert!(done.get());
    }

    /// What the device saw: (op, first page, bios) per request, in
    /// submission order, logged before forwarding to a RAM disk.
    struct Recorder {
        dev: RamDiskDevice,
        log: RefCell<Vec<(IoOp, u64, usize)>>,
    }

    impl BlockDevice for Recorder {
        fn capacity(&self) -> u64 {
            self.dev.capacity()
        }
        fn name(&self) -> &str {
            self.dev.name()
        }
        fn submit(&self, req: IoRequest) {
            self.log
                .borrow_mut()
                .push((req.op(), req.offset() / PAGE, req.bio_count()));
            self.dev.submit(req);
        }
    }

    const PAGE: u64 = 4096;

    fn recorded_direct(
        engine: &Engine,
        cal: &Rc<Calibration>,
        node: &Node,
    ) -> (Rc<Recorder>, Rc<DirectBackend>) {
        let dev = Rc::new(Recorder {
            dev: RamDiskDevice::new(
                engine.clone(),
                cal.clone(),
                node.clone(),
                1 << 20,
                "ram-direct",
            ),
            log: RefCell::new(Vec::new()),
        });
        let backend = DirectBackend::new(
            engine.clone(),
            node.clone(),
            dev.clone(),
            DirectConfig::default(),
        );
        (dev, backend)
    }

    /// A page callback that checks the result and bumps `done`.
    fn counting(done: &Rc<Cell<u32>>) -> PageDone {
        let d = done.clone();
        Box::new(move |r| {
            r.unwrap();
            d.set(d.get() + 1);
        })
    }

    fn store_page(backend: &DirectBackend, page: u64, done: &Rc<Cell<u32>>) {
        backend.store(page * PAGE, new_buffer(PAGE as usize), counting(done));
    }

    fn load_page(backend: &DirectBackend, page: u64, kind: LoadKind, done: &Rc<Cell<u32>>) {
        backend.load(page * PAGE, kind, new_buffer(PAGE as usize), counting(done));
    }

    #[test]
    fn direct_stores_wait_for_reap_and_go_out_as_one_request() {
        let (engine, cal, node) = fixture();
        let (dev, backend) = recorded_direct(&engine, &cal, &node);
        let done = Rc::new(Cell::new(0u32));
        for page in 0..4 {
            store_page(&backend, page, &done);
        }
        engine.run_until_idle();
        assert!(dev.log.borrow().is_empty(), "staged stores wait for reap");
        assert_eq!((done.get(), backend.requests()), (0, 0));
        backend.reap();
        engine.run_until_idle();
        assert_eq!(*dev.log.borrow(), [(IoOp::Write, 0, 4)]);
        assert_eq!(done.get(), 4, "every page's callback fires");
        assert_eq!(backend.stats().page_stores, 4);
        assert_eq!(backend.requests(), 1);
        assert_eq!(backend.mean_request_bytes(), 16384.0);
        assert_eq!(backend.write_latency().count(), 1, "one sample per run");
    }

    #[test]
    fn reap_sorts_and_ends_a_run_at_a_gap_an_op_change_and_the_cap() {
        let (engine, cal, node) = fixture();
        let (dev, backend) = recorded_direct(&engine, &cal, &node);
        let done = Rc::new(Cell::new(0u32));
        // Staged out of order; pages 20..30 are one adjacent run longer
        // than the cap, loads 10..12 touch stores 12..14.
        for page in (20..30).rev() {
            store_page(&backend, page, &done);
        }
        for page in [13, 3, 12, 1, 0] {
            store_page(&backend, page, &done);
        }
        for page in [11, 10] {
            load_page(&backend, page, LoadKind::Readahead, &done);
        }
        backend.reap();
        let cap_pages = (DIRECT_MAX_RUN_BYTES / PAGE) as usize;
        assert_eq!(
            *dev.log.borrow(),
            [
                (IoOp::Read, 10, 2),
                (IoOp::Write, 0, 2),
                (IoOp::Write, 3, 1),
                (IoOp::Write, 12, 2),
                (IoOp::Write, 20, cap_pages),
                (IoOp::Write, 20 + cap_pages as u64, 10 - cap_pages),
            ]
        );
        engine.run_until_idle();
        assert_eq!(done.get(), 17);
        assert_eq!(backend.requests(), 6);
        let stats = backend.stats();
        assert_eq!((stats.page_stores, stats.readahead_loads), (15, 2));
    }

    #[test]
    fn direct_demand_load_goes_first_alone_and_is_the_only_one_polled() {
        let (engine, cal, node) = fixture();
        let (dev, backend) = recorded_direct(&engine, &cal, &node);
        let done = Rc::new(Cell::new(0u32));
        // Warm the recency window so the next demand load polls.
        load_page(&backend, 64, LoadKind::Demand, &done);
        engine.run_until_idle();
        dev.log.borrow_mut().clear();

        load_page(&backend, 1, LoadKind::Readahead, &done);
        load_page(&backend, 2, LoadKind::Readahead, &done);
        load_page(&backend, 0, LoadKind::Demand, &done);
        assert_eq!(
            *dev.log.borrow(),
            [(IoOp::Read, 0, 1)],
            "the demand page is on the device at the call, without its neighbours"
        );
        backend.reap();
        assert_eq!(*dev.log.borrow(), [(IoOp::Read, 0, 1), (IoOp::Read, 1, 2)]);
        engine.run_until_idle();
        assert_eq!(done.get(), 4);
        let stats = backend.stats();
        assert_eq!((stats.page_loads, stats.readahead_loads), (2, 2));
        assert_eq!(
            (stats.polled, stats.event_waits),
            (1, 1),
            "the readahead run is never polled for"
        );
    }

    #[test]
    fn direct_reap_on_an_empty_stage_is_a_no_op() {
        let (engine, cal, node) = fixture();
        let (dev, backend) = recorded_direct(&engine, &cal, &node);
        backend.reap();
        assert_eq!(engine.pending_events(), 0, "nothing was scheduled");
        assert!(dev.log.borrow().is_empty());
        assert_eq!(backend.requests(), 0);
    }

    /// A caller that forgets `reap` fails in debug builds instead of
    /// stranding the page's callback.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "never reaped")]
    fn direct_backend_dropped_with_staged_pages_panics() {
        let (engine, cal, node) = fixture();
        let (_, backend) = recorded_direct(&engine, &cal, &node);
        backend.store(0, new_buffer(4096), Box::new(|_| {}));
    }

    #[test]
    fn direct_demand_load_polls_only_when_stream_is_hot() {
        let (engine, cal, node) = fixture();
        let (_, backend) = recorded_direct(&engine, &cal, &node);
        // Cold start: the first demand load must take the event path.
        backend.load(0, LoadKind::Demand, new_buffer(4096), Box::new(|_| {}));
        engine.run_until_idle();
        let s = backend.stats();
        assert_eq!(s.event_waits, 1, "idle stream must not spin");
        assert_eq!(s.polled, 0);
        // Hot stream: a load right behind a completion busy-polls.
        backend.load(4096, LoadKind::Demand, new_buffer(4096), Box::new(|_| {}));
        engine.run_until_idle();
        let s = backend.stats();
        assert_eq!(s.polled, 1, "hot stream must poll");
        assert!(s.poll_cpu_ns > 0);
        // Readahead never polls regardless of recency.
        backend.load(
            8192,
            LoadKind::Readahead,
            new_buffer(4096),
            Box::new(|_| {}),
        );
        backend.reap();
        engine.run_until_idle();
        assert_eq!(backend.stats().polled, 1);
    }

    #[test]
    fn direct_poll_timeout_is_bounded_by_budget() {
        let (engine, cal, node) = fixture();
        let dev = Rc::new(RamDiskDevice::new(
            engine.clone(),
            cal.clone(),
            node.clone(),
            1 << 20,
            "ram-slow",
        ));
        let config = DirectConfig {
            poll_budget_ns: 1, // everything times out
            ..DirectConfig::default()
        };
        let backend = DirectBackend::new(engine.clone(), node.clone(), dev, config);
        // Warm the recency window so the second load chooses to poll.
        backend.load(0, LoadKind::Demand, new_buffer(4096), Box::new(|_| {}));
        engine.run_until_idle();
        backend.load(4096, LoadKind::Demand, new_buffer(4096), Box::new(|_| {}));
        engine.run_until_idle();
        let s = backend.stats();
        assert_eq!(s.polled, 1);
        assert_eq!(s.poll_timeouts, 1, "budget 1 ns must always time out");
        assert!(s.poll_cpu_ns <= 1, "charge capped at the budget");
    }
}
