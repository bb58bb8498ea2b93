//! The HPBD memory server daemon (paper §4.2.1, §5).
//!
//! A user-space program on a remote node exporting part of its memory as a
//! RamDisk-backed page store. The server *initiates all RDMA*: for a
//! swap-out request it RDMA-READs the page data out of the client's
//! registered pool into a local staging buffer, then memcpys it into the
//! store; for swap-in it memcpys store → staging and RDMA-WRITEs into the
//! client's buffer. The store is an unregistered [`MemoryRegion`], a row
//! of shared pages like every region, so a copy of whole pages between it
//! and staging hands over page references, not bytes (`ibsim::mr`); each
//! copy is charged when the model makes it. (The paper chooses
//! server-initiated RDMA because the RamDisk is behind a file interface
//! and because a future dynamic-memory server cannot pre-export
//! addresses.)
//!
//! Staging buffers come from a pre-registered pool, so multiple requests
//! can be in flight with the RDMA of one overlapping the memcpy of another
//! — "by allowing multiple outstanding RDMA operations, RDMA and memcpy
//! overlap is supported, which improves server side CPU utilization".
//!
//! Replies are sent with the solicited-event bit so the client's sleeping
//! receiver thread wakes (paper §5). The server itself sleeps after 200 µs
//! of idling and is woken by the completion event of the next request.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::channel::{self, Channel};
use crate::config::{HpbdConfig, REQUEST_PROC_NS, SERVER_IDLE_NS, SERVER_STAGING_SIZE};
use crate::pool::{PoolBuf, SimBufferPool};
use crate::proto::{
    ClientMessage, MergedRequest, PageOp, PageReply, PageRequest, ReplyStatus, RevokeNotice,
    MERGED_MAX_WIRE_SIZE,
};
use ibsim::{
    CompletionQueue, Fabric, IbNode, MemoryRegion, Opcode, QueuePair, RemoteSlice, WcStatus,
    WorkKind, WorkRequest,
};
use simcore::{Engine, SimDuration, SimTime};
use simtrace::{LazyCounter, MarkKind};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Where an accepted request is between its arrival and its reply (paper
/// §4.2.1). A job holds its staging span exactly in the last three. Only
/// [`HpbdServer::note`] moves it.
#[derive(Clone, Copy, Debug)]
enum State {
    /// Its parse is being charged on the server CPU.
    Parsing,
    /// For its staging span.
    PoolWait,
    /// Swap-in: the store → staging copy is being charged.
    StoreCopy(PoolBuf),
    /// Its one RDMA operation is on the wire.
    Rdma(PoolBuf),
    /// Swap-out: the staging → store copy is being charged.
    Apply(PoolBuf),
}

/// What moves a job to its next [`State`].
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Its parse is paid for and it is neither out of range nor fenced off.
    Parsed,
    /// The staging pool granted its span.
    Granted(PoolBuf),
    /// Swap-in: the store → staging copy is paid for.
    Copied,
    /// Swap-out: the RDMA READ placed the data in staging.
    Pulled,
}

/// An accepted request: one row of `ServerInner::jobs` from its arrival
/// until its reply is sent or a crash discards it. One wire message, one
/// staging span, one RDMA operation, one reply — possibly carrying several
/// independently write-fenced segments (a merged request).
struct Job {
    req_id: u64,
    op: PageOp,
    server_offset: u64,
    client_rkey: u32,
    client_offset: u64,
    /// Total transfer length (sum of segment lengths); the size of the
    /// staging span and of the single RDMA operation.
    len: u64,
    /// Per-segment `(server_offset, len, version)` in staging order;
    /// `None` for a plain single request, which is treated as one segment
    /// covering the whole span (and allocates nothing). Merged segments
    /// may leave gaps between their store extents — staging positions run
    /// back to back regardless.
    segs: Option<Vec<(u64, u64, u64)>>,
    /// Version echoed in the reply: the segment's own stamp for a plain
    /// request, the maximum across segments for a merged one.
    version: u64,
    /// The connection it arrived on and is answered on.
    conn: usize,
    /// Arrival instant (trace span start).
    started: SimTime,
    state: State,
}

impl Job {
    fn from_request(r: &PageRequest, conn: usize, started: SimTime) -> Job {
        Job {
            req_id: r.req_id(),
            op: r.op(),
            server_offset: r.server_offset(),
            client_rkey: r.client_rkey(),
            client_offset: r.client_offset(),
            len: r.len(),
            segs: None,
            version: r.version(),
            conn,
            started,
            state: State::Parsing,
        }
    }

    fn from_merged(m: &MergedRequest, conn: usize, started: SimTime) -> Job {
        Job {
            req_id: m.req_id(),
            op: m.op(),
            server_offset: m.server_offset(),
            client_rkey: m.client_rkey(),
            client_offset: m.client_offset(),
            len: m.total_len(),
            segs: Some(
                m.segs()
                    .iter()
                    .map(|s| (s.server_offset(), s.len(), s.version()))
                    .collect(),
            ),
            version: m.max_version(),
            conn,
            started,
            state: State::Parsing,
        }
    }

    /// Iterate the fencing spans as `(server_offset, len, version)` in
    /// staging order. Allocation-free either way.
    fn spans(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        let single = self
            .segs
            .is_none()
            .then_some((self.server_offset, self.len, self.version));
        let many = self.segs.as_deref().unwrap_or(&[]).iter().copied();
        single.into_iter().chain(many)
    }

    /// The staging span it holds, if granted one.
    fn staging(&self) -> Option<PoolBuf> {
        match self.state {
            State::StoreCopy(span) | State::Rdma(span) | State::Apply(span) => Some(span),
            State::Parsing | State::PoolWait => None,
        }
    }
}

/// Server statistics.
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    /// Requests served.
    pub requests: u64,
    /// RDMA READ operations issued (swap-out pulls).
    pub rdma_reads: u64,
    /// RDMA WRITE operations issued (swap-in pushes).
    pub rdma_writes: u64,
    /// Bytes stored (swap-out).
    pub bytes_in: u64,
    /// Bytes served (swap-in).
    pub bytes_out: u64,
    /// Times the server had been idle past the threshold when work arrived
    /// (it had yielded the CPU and paid a wakeup).
    pub wakeups: u64,
    /// Malformed control messages dropped.
    pub bad_messages: u64,
    /// Merged multi-extent requests served (client batching mode).
    pub merged_requests: u64,
}

/// Write-fencing granularity: versions are tracked per 4 KiB page, the
/// swap unit the client stamps.
const VERSION_PAGE: u64 = 4096;

/// The store pages a byte range touches.
fn page_range(offset: u64, len: u64) -> std::ops::RangeInclusive<u64> {
    // `validate` guarantees len > 0.
    let first = offset / VERSION_PAGE;
    let last = (offset + len - 1) / VERSION_PAGE;
    first..=last
}

struct ServerInner {
    engine: Engine,
    config: HpbdConfig,
    ibnode: IbNode,
    /// The exported page store: unregistered, so no RDMA reaches it.
    store: MemoryRegion,
    staging_mr: MemoryRegion,
    staging_pool: SimBufferPool,
    send_cq: CompletionQueue,
    recv_cq: CompletionQueue,
    conns: RefCell<Vec<Channel>>,
    /// Every job the live daemon accepted and has not answered, by the
    /// token drawn at its arrival (also the wr_id of its RDMA).
    jobs: RefCell<BTreeMap<u64, Job>>,
    /// Write fence: highest version applied per store page. A write whose
    /// version is not newer than what a page holds is dropped for that
    /// page — stale retries, failover reissues, and duplicate deliveries
    /// can never undo newer data. (BTreeMap for deterministic iteration.)
    versions: RefCell<BTreeMap<u64, u64>>,
    /// Receive buffers consumed while crashed (never re-posted by the dead
    /// daemon); a restart re-posts them. `(conn, wr_id)` pairs.
    lost_recvs: RefCell<Vec<(usize, u64)>>,
    next_token: Cell<u64>,
    last_activity: Cell<SimTime>,
    crashed: Cell<bool>,
    /// Storage generation (DESIGN.md §13): 1 at boot, bumped by every
    /// restart. Echoed in each reply so clients can detect an amnesiac
    /// restart that happened inside their timeout window.
    generation: Cell<u64>,
    stats: RefCell<ServerStats>,
    ctr_wakeups: LazyCounter,
    ctr_requests: LazyCounter,
}

/// One HPBD memory server. Clone shares the instance.
#[derive(Clone)]
pub struct HpbdServer {
    inner: Rc<ServerInner>,
}

impl HpbdServer {
    /// Create a server on a fresh fabric node exporting `capacity` bytes.
    pub fn new(fabric: &Fabric, name: &str, capacity: u64, config: HpbdConfig) -> HpbdServer {
        let engine = fabric.engine().clone();
        let ibnode = fabric.add_node(name.to_string());
        // Staging pool is registered once at startup; charge the one-time
        // registration against the server CPU.
        let reg_cost = fabric.calibration().registration_time(SERVER_STAGING_SIZE);
        ibnode.node().cpu().reserve(engine.now(), reg_cost);
        let staging_mr = ibnode.hca().register(SERVER_STAGING_SIZE as usize);
        let staging_pool = SimBufferPool::new(SERVER_STAGING_SIZE);
        let send_cq = ibnode.create_cq();
        let recv_cq = ibnode.create_cq();
        let server = HpbdServer {
            inner: Rc::new(ServerInner {
                ctr_wakeups: engine.metrics().lazy_counter("hpbd_server.wakeups"),
                ctr_requests: engine.metrics().lazy_counter("hpbd_server.requests"),
                engine,
                config,
                ibnode,
                store: MemoryRegion::unregistered(capacity as usize),
                staging_mr,
                staging_pool,
                send_cq,
                recv_cq,
                conns: RefCell::new(Vec::new()),
                jobs: RefCell::new(BTreeMap::new()),
                versions: RefCell::new(BTreeMap::new()),
                lost_recvs: RefCell::new(Vec::new()),
                next_token: Cell::new(1),
                last_activity: Cell::new(SimTime::ZERO),
                crashed: Cell::new(false),
                generation: Cell::new(1),
                stats: RefCell::new(ServerStats::default()),
            }),
        };
        server.install_handlers();
        server
    }

    /// The server's fabric node.
    pub fn ibnode(&self) -> &IbNode {
        &self.inner.ibnode
    }

    /// The receive CQ (the cluster builder wires QPs to it).
    pub fn recv_cq(&self) -> &CompletionQueue {
        &self.inner.recv_cq
    }

    /// The send CQ.
    pub fn send_cq(&self) -> &CompletionQueue {
        &self.inner.send_cq
    }

    /// Exported page-store capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.inner.store.len() as u64
    }

    /// Current storage generation: 1 at boot, +1 per restart. The cluster
    /// builder hands this to the client at connect time (the handshake's
    /// generation exchange), and every reply echoes it.
    pub fn generation(&self) -> u64 {
        self.inner.generation.get()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats.borrow().clone()
    }

    /// Dynamic memory (the paper's future work): reclaim
    /// `[offset, offset + len)` of the exported store. A revocation notice
    /// goes to every client, which must migrate the pages it keeps there
    /// to spare capacity on other servers and stop using the range. The
    /// reclaim is advisory until a chunk's move completes (reads continue
    /// to be served, and a chunk with nowhere to go stays), matching a
    /// cooperative host that wants its memory back but will not corrupt a
    /// tenant.
    pub fn revoke(&self, offset: u64, len: u64) {
        let inner = &self.inner;
        assert!(
            inner.store.contains(offset, len),
            "revoking a range outside the store"
        );
        let notice = RevokeNotice::new(offset, len);
        for conn in inner.conns.borrow().iter() {
            // Best-effort: a notice squeezed out by a full send queue is
            // dropped, not treated as fatal. Revoking again is safe: a
            // client moves each chunk once, however often it is named.
            let _ = conn.qp.post_send(WorkRequest {
                // Notices carry no request id.
                wr_id: u64::MAX,
                kind: WorkKind::Send {
                    payload: notice.encode(),
                },
                solicited: true,
            });
        }
    }

    /// Failure injection: the server process dies. Every request from now
    /// on is silently dropped (a dead daemon sends nothing). Every job it
    /// accepted leaves the job table, so none resumes, even if the daemon
    /// restarts before the job's next event: its in-flight RDMA data may
    /// still land, but nothing follows it. The stored chunks are GONE — the process's memory is reclaimed by its
    /// host — so a later [`HpbdServer::restart`] comes back empty, exactly
    /// why the client must mirror writes to survive a crash. The client's
    /// timeout/failover machinery (when configured) is what keeps the swap
    /// device alive.
    pub fn crash(&self) {
        if self.inner.crashed.replace(true) {
            return;
        }
        // The exported page store evaporates with the process — and with
        // it the write fence: a restarted server starts from version 0,
        // matching its empty store.
        let store = &self.inner.store;
        store.copy_from(0, &MemoryRegion::unregistered(store.len()), 0, store.len());
        self.inner.versions.borrow_mut().clear();
        // Staging returns to the pool (a restart would rebuild the pool;
        // freeing models that without a pool reset). A continuation that
        // finds its row gone stops, returning any span it was granted.
        let jobs = std::mem::take(&mut *self.inner.jobs.borrow_mut());
        for span in jobs.values().filter_map(Job::staging) {
            self.inner.staging_pool.free(span);
        }
        self.inner.engine.instant("hpbd_server", "crash", &[]);
    }

    /// Failure injection: the crashed daemon comes back up. The staging
    /// pool is re-registered (same CPU cost as boot), receive buffers the
    /// dead process consumed are re-posted, and service resumes — with an
    /// EMPTY store: pages swapped out before the crash are only
    /// recoverable from a mirror replica.
    pub fn restart(&self) {
        if !self.inner.crashed.get() {
            return;
        }
        let inner = &self.inner;
        // Drain anything that queued on the CQs while the daemon was down,
        // remembering which receives were consumed.
        self.reap_while_crashed();
        inner.send_cq.drain();
        // Boot cost: the staging pool must be pinned and registered again.
        let reg = inner
            .ibnode
            .calibration()
            .registration_time(SERVER_STAGING_SIZE);
        inner.ibnode.node().cpu().reserve(inner.engine.now(), reg);
        // Receives consumed by the dead process go back on the QPs.
        for (conn, slot) in inner.lost_recvs.take() {
            inner.conns.borrow()[conn].repost(slot);
        }
        // The store this process serves is a fresh, empty one: advertise a
        // new generation so clients can tell its replies come from after
        // the wipe, even if they never noticed the daemon was gone.
        inner.generation.set(inner.generation.get() + 1);
        inner.crashed.set(false);
        inner.last_activity.set(inner.engine.now());
        // Both CQs re-arm: a completion the dead daemon drained disarmed
        // its CQ, and a disarmed send CQ would strand every RDMA.
        inner.recv_cq.req_notify(true);
        inner.send_cq.req_notify(false);
        inner.engine.instant("hpbd_server", "restart", &[]);
    }

    /// Record the recv completions a dead daemon would have consumed, so a
    /// restart can re-post their buffers.
    fn reap_while_crashed(&self) {
        for completion in self.inner.recv_cq.drain() {
            let route = channel::route(&*self.inner.conns.borrow(), completion.qp_num);
            let Some(conn_idx) = route else {
                // A completion from a QP no connection claims: count it
                // and drop rather than poison the restart bookkeeping.
                self.inner.stats.borrow_mut().bad_messages += 1;
                continue;
            };
            self.inner
                .lost_recvs
                .borrow_mut()
                .push((conn_idx, completion.wr_id));
        }
    }

    /// Whether the server has been crashed by failure injection.
    pub fn is_crashed(&self) -> bool {
        self.inner.crashed.get()
    }

    /// Attach a client connection: pre-posts `credits` control-message
    /// receive buffers on `qp`. Called by the cluster builder after the QP
    /// exchange.
    pub fn attach_connection(&self, qp: QueuePair) {
        let (node, credits) = (&self.inner.ibnode, self.inner.config.credits);
        // Buffers are sized for the largest control message — a maximally
        // merged request — so plain and merged requests share the pool.
        let channel = Channel::open(node, qp, credits, MERGED_MAX_WIRE_SIZE);
        self.inner.conns.borrow_mut().push(channel);
    }

    /// Install the two CQ event handlers. The server owns its CQs, so each
    /// handler holds the server weakly: a strong capture would be a cycle
    /// that keeps the server alive after its last user lets go.
    fn install_handlers(&self) {
        let on_event = |body: fn(&HpbdServer)| {
            let weak = Rc::downgrade(&self.inner);
            move || {
                if let Some(inner) = weak.upgrade() {
                    body(&HpbdServer { inner });
                }
            }
        };
        // Receiver: woken by the solicited event of an incoming request,
        // drains every available request (bursty processing), re-arms.
        self.inner
            .recv_cq
            .set_event_handler(on_event(HpbdServer::on_recv_event));
        self.inner.recv_cq.req_notify(true);

        // Sender-side completions: RDMA finishes drive the protocol.
        self.inner
            .send_cq
            .set_event_handler(on_event(HpbdServer::on_send_event));
        self.inner.send_cq.req_notify(false);
    }

    fn note_activity(&self) {
        let now = self.inner.engine.now();
        let last = self.inner.last_activity.get();
        if now.since(last).as_nanos() > SERVER_IDLE_NS {
            // The server had yielded the CPU; this arrival paid a wakeup.
            self.inner.stats.borrow_mut().wakeups += 1;
            self.inner.ctr_wakeups.inc();
            self.inner.engine.instant(
                "hpbd_server",
                "wakeup",
                &[("idle_ns", now.since(last).as_nanos())],
            );
        }
        self.inner.last_activity.set(now);
    }

    fn on_recv_event(&self) {
        if self.inner.crashed.get() {
            // Dead daemon: drop everything silently, but remember which
            // receive buffers were consumed so a restart can re-post them.
            self.reap_while_crashed();
            return;
        }
        self.note_activity();
        while let Some(completion) = self.inner.recv_cq.poll() {
            assert_eq!(completion.opcode, Opcode::Recv);
            assert_eq!(completion.status, WcStatus::Success, "control recv failed");
            let route = channel::route(&*self.inner.conns.borrow(), completion.qp_num);
            let Some(conn_idx) = route else {
                // Unroutable completion (e.g. a connection torn down by
                // fault injection): count and drop, per the signature
                // validation discipline of paper §4.1.
                self.inner.stats.borrow_mut().bad_messages += 1;
                continue;
            };
            self.handle_request(conn_idx, completion.wr_id);
        }
        self.inner.recv_cq.req_notify(true);
    }

    fn handle_request(&self, conn_idx: usize, buf_idx: u64) {
        let inner = &self.inner;
        let decoded = inner.conns.borrow()[conn_idx].take(buf_idx, ClientMessage::decode_slice);
        let started = inner.engine.now();
        let job = match decoded {
            Ok(ClientMessage::Request(r)) => Job::from_request(&r, conn_idx, started),
            Ok(ClientMessage::Merged(m)) => {
                self.inner.stats.borrow_mut().merged_requests += 1;
                Job::from_merged(&m, conn_idx, started)
            }
            Err(_) => {
                inner.stats.borrow_mut().bad_messages += 1;
                return;
            }
        };
        inner.stats.borrow_mut().requests += 1;
        inner.ctr_requests.inc();
        // Route the mark back to the client-side span context by the
        // physical request id; a merged id fans out to every carried
        // part. Unknown ids (e.g. the context completed after a
        // timeout) are a silent no-op.
        self.mark(job.req_id, MarkKind::ServerReceived);
        // CPU cost of parsing + dispatching the message — paid once per
        // wire message, which is exactly the overhead merging amortises.
        let proc = SimDuration::from_nanos(REQUEST_PROC_NS);
        let (_, t_proc) = inner.ibnode.node().cpu().reserve(started, proc);
        let token = inner.next_token.get();
        inner.next_token.set(token + 1);
        inner.jobs.borrow_mut().insert(token, job);
        let this = self.clone();
        inner.engine.schedule_at(t_proc, move || this.parsed(token));
    }

    /// Mark physical request `req_id`'s client-side lifecycle context now.
    fn mark(&self, req_id: u64, kind: MarkKind) {
        let now_ns = self.inner.engine.now().as_nanos();
        self.inner
            .engine
            .lifecycle()
            .mark_phys(req_id, kind, now_ns);
    }

    /// Take job `token`'s row out to work on it; `None` if it died.
    fn take(&self, token: u64) -> Option<Job> {
        self.inner.jobs.borrow_mut().remove(&token)
    }

    /// Move `job` to its next [`State`] on `step` and put its row back.
    /// The `match` is the table of legal moves; any other (state, step)
    /// pair is a bug. A job leaves the table by `take` or with a crash.
    fn note(&self, token: u64, mut job: Job, step: Step) {
        job.state = match (job.state, step) {
            (State::Parsing, Step::Parsed) => State::PoolWait,
            (State::PoolWait, Step::Granted(span)) => match job.op {
                PageOp::Read => State::StoreCopy(span),
                PageOp::Write => State::Rdma(span),
            },
            (State::StoreCopy(span), Step::Copied) => State::Rdma(span),
            (State::Rdma(span), Step::Pulled) => State::Apply(span),
            (state, step) => unreachable!("job {}: {step:?} in {state:?}", job.req_id),
        };
        self.inner.jobs.borrow_mut().insert(token, job);
    }

    /// The parse is paid for: answer a job that is out of range, an
    /// unversioned write (the client stamps every write from 1) or fenced
    /// off, else queue it for staging.
    fn parsed(&self, token: u64) {
        let Some(job) = self.take(token) else {
            return;
        };
        let write = job.op == PageOp::Write;
        let valid = (1..=SERVER_STAGING_SIZE).contains(&job.len)
            && job.spans().all(|(offset, len, version)| {
                len > 0 && self.inner.store.contains(offset, len) && (version > 0 || !write)
            });
        if !valid {
            self.finish(job, ReplyStatus::OutOfRange);
        } else if self.write_fully_stale(&job) {
            // Fenced before staging: a newer write already covers every
            // page; skip the staging wait and the RDMA pull entirely.
            self.finish(job, ReplyStatus::StaleWrite);
        } else {
            let len = job.len;
            self.note(token, job, Step::Parsed);
            // Staging allocation may wait for in-flight requests to release
            // buffers (the staging pool is its own wait queue). One span
            // per message, merged or not.
            let this = self.clone();
            self.inner
                .staging_pool
                .alloc(len, move |span| this.granted(token, span));
        }
    }

    /// Fencing check: true when every page every segment covers already
    /// holds data from an equal-or-newer version, so applying the write
    /// could only undo newer data (or redundantly rewrite identical
    /// data). A merged write with ANY live segment must still be served;
    /// the apply-time fence then skips its stale segments page by page.
    fn write_fully_stale(&self, job: &Job) -> bool {
        if job.op != PageOp::Write {
            return false;
        }
        let versions = self.inner.versions.borrow();
        job.spans().all(|(offset, len, version)| {
            page_range(offset, len).all(|p| versions.get(&p).is_some_and(|&v| v >= version))
        })
    }

    /// Staging granted: pull into it (swap-out), or fill it from the store
    /// and charge that copy (swap-in).
    fn granted(&self, token: u64, span: PoolBuf) {
        let inner = &self.inner;
        let Some(job) = self.take(token) else {
            // The job died with its process while it waited.
            inner.staging_pool.free(span);
            return;
        };
        if self.write_fully_stale(&job) {
            // A newer write to every covered page landed while this one
            // waited for staging; fence it off before spending RDMA.
            inner.staging_pool.free(span);
            self.finish(job, ReplyStatus::StaleWrite);
            return;
        }
        let len = job.len;
        if job.op == PageOp::Write {
            self.note(token, job, Step::Granted(span));
            self.post_rdma(token);
            return;
        }
        // Swap-in gathers the store extents into the staging span in
        // staging order (merged segments may be scattered on the store),
        // now: the span is this job's alone while its row holds it, and
        // what the copy costs is charged below.
        let mut at = span.offset as usize;
        for (offset, seg_len, _) in job.spans() {
            let seg_len = seg_len as usize;
            inner
                .staging_mr
                .copy_from(at, &inner.store, offset as usize, seg_len);
            at += seg_len;
        }
        self.note(token, job, Step::Granted(span));
        self.charge_copy("store_to_staging", len, token, HpbdServer::copied);
    }

    /// Charge a `len`-byte memcpy on the server CPU as trace span `name`,
    /// overlapping any other job's RDMA, then run `next` on job `token`.
    fn charge_copy(&self, name: &'static str, len: u64, token: u64, next: fn(&Self, u64)) {
        let inner = &self.inner;
        let now = inner.engine.now();
        let copy = inner.ibnode.calibration().memcpy_time(len);
        let (_, t_copy) = inner.ibnode.node().cpu().reserve(now, copy);
        inner.engine.span(
            "hpbd_server",
            name,
            now.as_nanos(),
            t_copy.as_nanos(),
            &[("bytes", len)],
        );
        let this = self.clone();
        inner.engine.schedule_at(t_copy, move || next(&this, token));
    }

    /// Swap-in: the store → staging copy is paid for; push it.
    fn copied(&self, token: u64) {
        // A missing row died with its process, whose crash freed its span.
        if let Some(job) = self.take(token) {
            self.note(token, job, Step::Copied);
            self.post_rdma(token);
        }
    }

    /// Post job `token`'s one RDMA operation from its `Rdma` row: a READ
    /// pulling swap-out data from the client (one scatter-gather read for
    /// a whole merged span), or a WRITE pushing swap-in data to it.
    fn post_rdma(&self, token: u64) {
        let inner = &self.inner;
        let (conn, req_id, wr) = {
            let jobs = inner.jobs.borrow();
            let job = &jobs[&token];
            let State::Rdma(span) = job.state else {
                unreachable!("job {}: RDMA posted in {:?}", job.req_id, job.state)
            };
            let local = inner.staging_mr.slice(span.offset, job.len);
            let remote = RemoteSlice {
                rkey: job.client_rkey,
                offset: job.client_offset,
                len: job.len,
            };
            let kind = match job.op {
                PageOp::Write => WorkKind::RdmaRead { local, remote },
                PageOp::Read => WorkKind::RdmaWrite { local, remote },
            };
            let wr = WorkRequest {
                wr_id: token,
                kind,
                solicited: false,
            };
            (job.conn, job.req_id, wr)
        };
        match wr.kind {
            WorkKind::RdmaRead { .. } => inner.stats.borrow_mut().rdma_reads += 1,
            _ => inner.stats.borrow_mut().rdma_writes += 1,
        }
        self.mark(req_id, MarkKind::RdmaPosted);
        let posted = inner.conns.borrow()[conn].qp.post_send(wr);
        // Send-queue overflow: fail the request instead of wedging it. Its
        // staging returns to the pool and the client gets a typed
        // TransferError to drive its own retry machinery.
        if let Some(job) = posted.err().and_then(|_| self.take(token)) {
            self.finish(job, ReplyStatus::TransferError);
        }
    }

    fn on_send_event(&self) {
        if self.inner.crashed.get() {
            self.inner.send_cq.drain();
            return;
        }
        self.note_activity();
        while let Some(wc) = self.inner.send_cq.poll() {
            match wc.opcode {
                // A reply left the node; nothing further to do. An injected
                // link fault may have errored it — the client's timeout
                // machinery recovers, not us.
                Opcode::Send => {}
                Opcode::RdmaRead | Opcode::RdmaWrite => self.rdma_done(wc.wr_id, wc.status),
                Opcode::Recv => unreachable!("recv completion on send CQ"),
            }
        }
        self.inner.send_cq.req_notify(false);
    }

    /// Job `token`'s RDMA completed. A swap-in's data is placed in the
    /// client: answer. A swap-out's data is in staging: copy it into the
    /// store (overlapping any other job's RDMA), then answer.
    fn rdma_done(&self, token: u64, status: WcStatus) {
        // A missing row died with its process: a late completion.
        let Some(job) = self.take(token) else {
            return;
        };
        self.mark(job.req_id, MarkKind::RdmaDone);
        if status != WcStatus::Success {
            self.finish(job, ReplyStatus::TransferError);
        } else if job.op == PageOp::Read {
            self.finish(job, ReplyStatus::Ok);
        } else {
            let len = job.len;
            self.note(token, job, Step::Pulled);
            self.charge_copy("staging_to_store", len, token, HpbdServer::applied);
        }
    }

    /// Swap-out: the staging → store copy is paid for. The apply-time
    /// fence is the authoritative check: a newer write may have been
    /// applied while this pull was on the wire, so each page is re-checked
    /// at the moment it would be written.
    fn applied(&self, token: u64) {
        // A missing row died with its process, whose crash freed its span.
        let Some(job) = self.take(token) else {
            return;
        };
        let State::Apply(span) = job.state else {
            unreachable!("job {}: applied in {:?}", job.req_id, job.state)
        };
        // The span still holds what the pull placed: the row held it, and
        // the completed RDMA READ was its only writer.
        let status = self.apply_versioned(&job, span.offset);
        self.finish(job, status);
    }

    /// Apply pulled swap-out data, staged at `staging`, page-by-page under
    /// the write fence: a page is written only when the incoming version
    /// is newer than the version it holds. Each merged segment fences
    /// independently with its own version, so a merged message carrying
    /// one stale and one live write applies exactly the live one. Each run
    /// of applied pages is one copy. The reply is `Ok` when any page was
    /// applied, else `StaleWrite`.
    fn apply_versioned(&self, job: &Job, staging: u64) -> ReplyStatus {
        let inner = &self.inner;
        // Copy the staged bytes at `data` to store bytes `from..to`.
        let apply = |from: u64, to: u64, data: u64| {
            let len = (to - from) as usize;
            inner
                .store
                .copy_from(from as usize, &inner.staging_mr, data as usize, len);
        };
        let mut applied_any = false;
        let mut data_base = staging;
        for (offset, len, version) in job.spans() {
            let data = data_base;
            data_base += len;
            let mut versions = inner.versions.borrow_mut();
            // The store bytes `run` of consecutive applied pages covers.
            let mut run: Option<(u64, u64)> = None;
            for page in page_range(offset, len) {
                let stored = versions.get(&page).copied().unwrap_or(0);
                if stored >= version {
                    if let Some((from, to)) = run.take() {
                        apply(from, to, data + from - offset);
                    }
                    continue;
                }
                // Intersect the page with the span's byte range (the first
                // and last pages may be partially covered).
                let page_start = page * VERSION_PAGE;
                let start = offset.max(page_start);
                let end = (offset + len).min(page_start + VERSION_PAGE);
                run = Some((run.map_or(start, |(from, _)| from), end));
                versions.insert(page, version);
                applied_any = true;
            }
            if let Some((from, to)) = run {
                apply(from, to, data + from - offset);
            }
        }
        match applied_any {
            true => ReplyStatus::Ok,
            false => ReplyStatus::StaleWrite,
        }
    }

    /// Answer a job that has left the table. Its staging returns to the
    /// pool first (the free may grant a waiting job its span), then its
    /// arrival → reply trace span is emitted and the reply is sent.
    fn finish(&self, job: Job, status: ReplyStatus) {
        let inner = &self.inner;
        if let Some(span) = job.staging() {
            inner.staging_pool.free(span);
        }
        match (status, job.op) {
            (ReplyStatus::Ok, PageOp::Write) => inner.stats.borrow_mut().bytes_in += job.len,
            (ReplyStatus::Ok, PageOp::Read) => inner.stats.borrow_mut().bytes_out += job.len,
            _ => {}
        }
        if status != ReplyStatus::OutOfRange {
            let now_ns = inner.engine.now().as_nanos();
            inner.engine.span(
                "hpbd_server",
                match job.op {
                    PageOp::Write => "serve_write",
                    PageOp::Read => "serve_read",
                },
                job.started.as_nanos(),
                now_ns,
                &[
                    ("req", job.req_id),
                    ("bytes", job.len),
                    ("ok", (status != ReplyStatus::TransferError) as u64),
                ],
            );
        }
        self.mark(job.req_id, MarkKind::ReplyPosted);
        let reply = PageReply::new(job.req_id, status, job.version, inner.generation.get());
        let conns = inner.conns.borrow();
        // Best-effort: a reply squeezed out by a full send queue is
        // indistinguishable from a lost ack, and the client's timeout
        // machinery already recovers from that. Solicited so the client's
        // sleeping receiver thread wakes (paper §5: the server sets the
        // solicitation control field of the send descriptor).
        let _ = conns[job.conn].qp.post_send(WorkRequest {
            wr_id: job.req_id,
            kind: WorkKind::Send {
                payload: reply.encode(),
            },
            solicited: true,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterBuilder, HpbdCluster};
    use blockdev::{new_buffer, Bio, BlockDevice, IoOp, IoRequest};
    use netmodel::Calibration;

    const LEN: usize = 128 << 10;

    /// One server whose store starts with `LEN` bytes of 0x11, and a client
    /// pool that holds a `LEN` request and a whole-staging-pool one that
    /// are never answered beside a whole-staging-pool one that is.
    fn rig() -> (Engine, HpbdCluster) {
        let engine = Engine::new();
        let cluster = ClusterBuilder::new()
            .servers(1)
            .per_server_capacity(4 << 20)
            .config(HpbdConfig {
                pool_size: 2 * SERVER_STAGING_SIZE + LEN as u64,
                ..HpbdConfig::default()
            })
            .build(&engine, Rc::new(Calibration::cluster_2005()));
        cluster.servers[0].inner.store.write(0, &[0x11; LEN]);
        (engine, cluster)
    }

    fn submit(cluster: &HpbdCluster, op: IoOp, offset: u64, len: usize) {
        let buf = new_buffer(len);
        buf.borrow_mut().fill(0x22);
        cluster
            .client
            .submit(IoRequest::single(Bio::new(op, offset, buf, |_| {})));
    }

    /// Whether the server holds the `LEN`-byte job in `state`'s variant.
    fn job_in(server: &HpbdServer, state: State) -> bool {
        let jobs = server.inner.jobs.borrow();
        let mut job = jobs.values().filter(|j| j.len == LEN as u64);
        job.any(|j| std::mem::discriminant(&j.state) == std::mem::discriminant(&state))
    }

    /// RDMA operations the server has posted: `(reads, writes)`.
    fn posts(server: &HpbdServer) -> (u64, u64) {
        let stats = server.stats();
        (stats.rdma_reads, stats.rdma_writes)
    }

    /// The daemon dies, and with `restart` comes back in the same instant.
    fn kill(server: &HpbdServer, restart: bool) {
        server.crash();
        if restart {
            server.restart();
        }
    }

    /// The server was killed with RDMA posts `posted`: no job of the dead
    /// daemon posted another, applied a byte or replied; its staging is
    /// back in the pool; and a restart serves a request that needs the
    /// whole staging pool.
    fn assert_died_clean(engine: &Engine, cluster: &HpbdCluster, posted: (u64, u64), case: &str) {
        let server = &cluster.servers[0];
        engine.run_until_idle();
        assert_eq!(
            cluster.client.stats().replies,
            0,
            "{case}: a dead job replied"
        );
        assert_eq!(posts(server), posted, "{case}: a dead job posted an RDMA");
        let stats = server.stats();
        assert_eq!((stats.bytes_in, stats.bytes_out), (0, 0), "{case}");
        let store = server.inner.store.to_vec();
        assert!(
            store.iter().all(|&b| b == 0),
            "{case}: the wiped store was written"
        );
        assert!(server.inner.versions.borrow().is_empty(), "{case}");
        assert!(server.inner.jobs.borrow().is_empty(), "{case}");
        let pool = &server.inner.staging_pool;
        assert_eq!(
            pool.free_bytes(),
            SERVER_STAGING_SIZE,
            "{case}: staging leaked"
        );
        assert_eq!(pool.queued_waiters(), 0, "{case}");
        server.restart();
        submit(cluster, IoOp::Write, 0, SERVER_STAGING_SIZE as usize);
        engine.run_until_idle();
        assert_eq!(server.stats().bytes_in, SERVER_STAGING_SIZE, "{case}");
    }

    /// Whatever state a job dies in, and whether or not the daemon restarts
    /// in the same instant, the crash removes its row and nothing of it
    /// resumes.
    #[test]
    fn a_job_of_the_dead_daemon_never_resumes() {
        let span = PoolBuf { offset: 0, len: 0 };
        let (read, write) = (IoOp::Read, IoOp::Write);
        let cases = [
            (read, State::Parsing),
            (read, State::PoolWait),
            (read, State::StoreCopy(span)),
            (read, State::Rdma(span)),
            (write, State::Parsing),
            (write, State::PoolWait),
            (write, State::Rdma(span)),
            (write, State::Apply(span)),
        ];
        for (op, state) in cases {
            for restart in [false, true] {
                let case = format!("{op:?} in {state:?}, restart {restart}");
                let (engine, cluster) = rig();
                let server = &cluster.servers[0];
                if let State::PoolWait = state {
                    // A whole-pool read, which the client posts without a
                    // staging copy, holds the staging the job waits for.
                    let len = SERVER_STAGING_SIZE;
                    submit(&cluster, read, len, len as usize);
                }
                submit(&cluster, op, 0, LEN);
                while !job_in(server, state) {
                    assert!(engine.step_one(), "{case}: never reached");
                }
                let posted = posts(server);
                kill(server, restart);
                assert_died_clean(&engine, &cluster, posted, &case);
            }
        }
        // The fault scheduled ahead of the copy event, in its instant.
        for (op, state) in [(read, State::StoreCopy(span)), (write, State::Apply(span))] {
            for restart in [false, true] {
                let case = format!("{op:?} at the end of {state:?}, restart {restart}");
                // A dry run finds the instant of the copy event...
                let (engine, cluster) = rig();
                submit(&cluster, op, 0, LEN);
                while !job_in(&cluster.servers[0], state) {
                    engine.step_one();
                }
                while job_in(&cluster.servers[0], state) {
                    engine.step_one();
                }
                let t_copy = engine.now();
                // ...and the fault is scheduled there ahead of the job, so
                // of the two events of that instant it runs first.
                let (engine, cluster) = rig();
                let server = cluster.servers[0].clone();
                let posted = Rc::new(Cell::new((0, 0)));
                let at_kill = posted.clone();
                engine.schedule_at(t_copy, move || {
                    assert!(job_in(&server, state), "the copy event ran first");
                    at_kill.set(posts(&server));
                    kill(&server, restart);
                });
                submit(&cluster, op, 0, LEN);
                engine.run_until_idle();
                assert_died_clean(&engine, &cluster, posted.get(), &case);
            }
        }
    }

    /// A restart re-posts every receive the dead daemon consumed, so the
    /// client's whole credit window fits in the receive queue again.
    #[test]
    fn a_restart_reposts_the_receives_the_dead_daemon_consumed() {
        let (engine, cluster) = rig();
        let server = &cluster.servers[0];
        let credits = server.inner.config.credits;
        let depth = || server.inner.conns.borrow()[0].qp.recv_queue_depth();
        server.crash();
        for page in 0..credits as u64 {
            submit(&cluster, IoOp::Read, page * 4096, 4096);
        }
        engine.run_until_idle();
        assert_eq!(depth(), 0, "a request the dead daemon never received");
        server.restart();
        assert_eq!(depth(), credits);
    }

    /// A swap-in returns the store's bytes as they stood when its staging
    /// was granted, whatever the store goes through between that instant
    /// and the client's scatter: a rewrite of the page it reads, or a
    /// restart's wipe. The fault lands after each event of that window in
    /// turn. A job the wipe kills never answers (no timeouts are armed), so
    /// only reads answered before the wipe complete.
    #[test]
    fn a_swap_in_returns_the_bytes_of_its_grant_instant() {
        let granted = State::StoreCopy(PoolBuf { offset: 0, len: 0 });
        let read = |cluster: &HpbdCluster| {
            let buf = new_buffer(LEN);
            let done = Rc::new(Cell::new(None));
            let set = done.clone();
            let bio = Bio::new(IoOp::Read, 0, buf.clone(), move |r| set.set(Some(r)));
            cluster.client.submit(IoRequest::single(bio));
            (buf, done)
        };
        // The events from the grant to the read's completion, on a dry run.
        let window = {
            let (engine, cluster) = rig();
            let (_, done) = read(&cluster);
            while !job_in(&cluster.servers[0], granted) {
                assert!(engine.step_one());
            }
            let mut events = 0;
            while done.get().is_none() {
                assert!(engine.step_one());
                events += 1;
            }
            events
        };
        for wipe in [false, true] {
            let mut answered_then_wiped = 0;
            for k in 0..window {
                let case = format!("wipe {wipe}, fault after {k} events");
                let (engine, cluster) = rig();
                let server = &cluster.servers[0];
                let (buf, done) = read(&cluster);
                while !job_in(server, granted) {
                    engine.step_one();
                }
                for _ in 0..k {
                    engine.step_one();
                }
                if wipe {
                    let answered = server.stats().bytes_out > 0;
                    answered_then_wiped += (answered && done.get().is_none()) as u32;
                    kill(server, true);
                } else {
                    server.inner.store.write(0, &[0x33; 4096]);
                }
                engine.run_until_idle();
                match done.get() {
                    Some(Ok(())) => assert!(buf.borrow().iter().all(|&b| b == 0x11), "{case}"),
                    other => assert!(wipe && other.is_none(), "{case}: {other:?}"),
                }
            }
            assert!(!wipe || answered_then_wiped > 0, "no wipe after the reply");
        }
    }

    /// A write without a fence version is malformed: it is answered like
    /// an out-of-range request, before any staging, RDMA or store write.
    #[test]
    fn an_unversioned_write_is_refused_untouched() {
        let engine = Engine::new();
        let fabric = Fabric::new(engine.clone(), Rc::new(Calibration::cluster_2005()));
        let config = HpbdConfig::default();
        let server = HpbdServer::new(&fabric, "server", 1 << 20, config.clone());
        let node = fabric.add_node("client");
        let (send_cq, recv_cq) = (node.create_cq(), node.create_cq());
        let (qp, qp_s) = fabric.connect(
            &node,
            &send_cq,
            &recv_cq,
            server.ibnode(),
            server.send_cq(),
            server.recv_cq(),
        );
        server.attach_connection(qp_s);
        let pages = node.hca().register(4096);
        pages.write(0, &[0xAA; 4096]);
        let replies = node.hca().register(64);
        qp.post_recv(0, replies.slice(0, 64)).unwrap();
        let request = PageRequest::new(7, PageOp::Write, 0, 4096, pages.rkey(), 0, 0);
        qp.post_send(WorkRequest {
            wr_id: 7,
            kind: WorkKind::Send {
                payload: request.encode(),
            },
            solicited: true,
        })
        .unwrap();
        engine.run_until_idle();
        let reply = replies.read_with(0, 64, |b| PageReply::decode_slice(b).unwrap());
        assert_eq!(reply.status(), ReplyStatus::OutOfRange);
        assert_eq!(posts(&server), (0, 0), "the job got an RDMA");
        assert!(server.inner.store.to_vec().iter().all(|&b| b == 0));
        assert!(server.inner.versions.borrow().is_empty());
    }
}
