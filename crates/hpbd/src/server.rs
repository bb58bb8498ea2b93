//! The HPBD memory server daemon (paper §4.2.1, §5).
//!
//! A user-space program on a remote node exporting part of its memory as a
//! RamDisk-backed page store. The server *initiates all RDMA*: for a
//! swap-out request it RDMA-READs the page data out of the client's
//! registered pool into a local staging buffer, then memcpys it into the
//! store; for swap-in it memcpys store → staging and RDMA-WRITEs into the
//! client's buffer. (The paper chooses server-initiated RDMA because the
//! RamDisk is behind a file interface and because a future dynamic-memory
//! server cannot pre-export addresses.)
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

use crate::config::{HpbdConfig, REQUEST_PROC_NS, SERVER_IDLE_NS, SERVER_STAGING_SIZE};
use crate::pool::{PoolBuf, SimBufferPool};
use crate::proto::{
    ClientMessage, MergedRequest, PageOp, PageReply, PageRequest, ProtoError, ReplyStatus,
    RevokeNotice, MERGED_MAX_WIRE_SIZE,
};
use blockdev::Storage;
use ibsim::{
    CompletionQueue, Fabric, IbNode, MemoryRegion, Opcode, Qp, QueuePair, RemoteSlice, WcStatus,
    WorkKind, WorkRequest,
};
use simcore::{Engine, SimDuration, SimTime};
use simtrace::{intern, LazyCounter, MarkKind};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// A validated unit of service: one wire message, one staging span, one
/// RDMA operation, one reply — possibly carrying several independently
/// write-fenced segments (a merged request).
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
}

impl Job {
    fn from_request(r: &PageRequest) -> Job {
        Job {
            req_id: r.req_id(),
            op: r.op(),
            server_offset: r.server_offset(),
            client_rkey: r.client_rkey(),
            client_offset: r.client_offset(),
            len: r.len(),
            segs: None,
            version: r.version(),
        }
    }

    fn from_merged(m: &MergedRequest) -> Job {
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
}

/// Per-request state while its RDMA is in flight.
struct PendingRdma {
    job: Job,
    staging: PoolBuf,
    conn: usize,
    /// Request arrival instant (trace span start).
    started: SimTime,
}

struct Conn {
    qp: Qp,
    /// Control-message receive buffers (slices of one registration),
    /// indexed by recv wr_id.
    recv_region: MemoryRegion,
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
    /// Revocation notices sent (dynamic memory).
    pub revokes_sent: u64,
    /// Writes fenced off (every covered page already held an
    /// equal-or-newer version) and acknowledged with `StaleWrite`
    /// instead of being applied.
    pub stale_writes: u64,
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
    storage: Storage,
    staging_mr: MemoryRegion,
    staging_pool: SimBufferPool,
    send_cq: CompletionQueue,
    recv_cq: CompletionQueue,
    conns: RefCell<Vec<Conn>>,
    qp_to_conn: RefCell<BTreeMap<u32, usize>>,
    pending: RefCell<BTreeMap<u64, PendingRdma>>,
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
    name: String,
    /// High-water mark of concurrently pending RDMA operations, published
    /// as a per-server gauge at stats time (never on the hot path).
    peak_pending: Cell<usize>,
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
                storage: Storage::new(capacity),
                staging_mr,
                staging_pool,
                send_cq,
                recv_cq,
                conns: RefCell::new(Vec::new()),
                qp_to_conn: RefCell::new(BTreeMap::new()),
                pending: RefCell::new(BTreeMap::new()),
                versions: RefCell::new(BTreeMap::new()),
                lost_recvs: RefCell::new(Vec::new()),
                next_token: Cell::new(1),
                last_activity: Cell::new(SimTime::ZERO),
                crashed: Cell::new(false),
                generation: Cell::new(1),
                stats: RefCell::new(ServerStats::default()),
                name: name.to_string(),
                peak_pending: Cell::new(0),
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
        self.inner.storage.capacity()
    }

    /// Current storage generation: 1 at boot, +1 per restart. The cluster
    /// builder hands this to the client at connect time (the handshake's
    /// generation exchange), and every reply echoes it.
    pub fn generation(&self) -> u64 {
        self.inner.generation.get()
    }

    /// Statistics snapshot. Also publishes the peak pending-RDMA depth
    /// gauge (tracked in a cell on the hot path, registry-touched only
    /// here).
    pub fn stats(&self) -> ServerStats {
        self.inner.engine.metrics().set_gauge(
            intern(&format!(
                "hpbd_server.{}.peak_pending_rdma",
                self.inner.name
            )),
            self.inner.peak_pending.get() as f64,
        );
        self.inner.stats.borrow().clone()
    }

    /// Dynamic memory (the paper's future work): reclaim
    /// `[offset, offset + len)` of the exported store. A revocation notice
    /// goes to every client, which must migrate the pages it keeps there
    /// to spare capacity on other servers and stop using the range. The
    /// reclaim is advisory during the migration window (reads continue to
    /// be served), matching a cooperative host that wants its memory back
    /// but will not corrupt a tenant.
    pub fn revoke(&self, offset: u64, len: u64) {
        let inner = &self.inner;
        assert!(
            inner.storage.in_range(offset, len),
            "revoking a range outside the store"
        );
        inner.stats.borrow_mut().revokes_sent += 1;
        let notice = RevokeNotice::new(offset, len);
        let conns = inner.conns.borrow();
        for conn in conns.iter() {
            // Best-effort: a notice squeezed out by a full send queue is
            // re-issued by the next reclaim pass, so a failed post is
            // dropped rather than treated as fatal.
            let mut chain = conn.qp.chain();
            // Notices carry no request id.
            chain.send(u64::MAX, notice.encode(), true);
            let _ = chain.post();
        }
    }

    /// Failure injection: the server process dies. Every request from now
    /// on is silently dropped (a dead daemon sends nothing); in-flight
    /// RDMA data may still land, but no acknowledgement follows. The
    /// stored chunks are GONE — the process's memory is reclaimed by its
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
        self.inner.storage.wipe();
        self.inner.versions.borrow_mut().clear();
        // In-flight RDMA state machines die with the daemon. Their staging
        // buffers return to the pool wholesale (the restart would rebuild
        // the pool; freeing models that without a pool reset). Late wire
        // completions for these tokens are dropped in finish_pull/push.
        let pending: Vec<PendingRdma> = {
            let mut map = self.inner.pending.borrow_mut();
            std::mem::take(&mut *map).into_values().collect()
        };
        for p in pending {
            self.inner.staging_pool.free(p.staging);
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
            .memory_model()
            .calibration()
            .registration_time(SERVER_STAGING_SIZE);
        inner.ibnode.node().cpu().reserve(inner.engine.now(), reg);
        // Receives consumed by the dead process go back on the QPs.
        let wire = MERGED_MAX_WIRE_SIZE as u64;
        let lost: Vec<(usize, u64)> = inner.lost_recvs.borrow_mut().drain(..).collect();
        {
            let conns = inner.conns.borrow();
            for (conn_idx, buf_idx) in lost {
                let conn = &conns[conn_idx];
                #[expect(
                    clippy::expect_used,
                    reason = "restart re-posts only buffers the crash drained, so the fixed-size receive queue cannot overflow"
                )]
                conn.qp
                    .post_recv(buf_idx, conn.recv_region.slice(buf_idx * wire, wire))
                    .expect("re-posting receives at restart");
            }
        }
        // The store this process serves is a fresh, empty one: advertise a
        // new generation so clients can tell its replies come from after
        // the wipe, even if they never noticed the daemon was gone.
        inner.generation.set(inner.generation.get() + 1);
        inner.crashed.set(false);
        inner.last_activity.set(inner.engine.now());
        inner.recv_cq.req_notify(true);
        inner.engine.instant("hpbd_server", "restart", &[]);
    }

    /// Record the recv completions a dead daemon would have consumed, so a
    /// restart can re-post their buffers.
    fn reap_while_crashed(&self) {
        for completion in self.inner.recv_cq.drain() {
            let Some(conn_idx) = self
                .inner
                .qp_to_conn
                .borrow()
                .get(&completion.qp_num)
                .copied()
            else {
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
        let qp = Qp::from(qp);
        let inner = &self.inner;
        let credits = inner.config.credits;
        // Buffers are sized for the largest control message — a maximally
        // merged request — so plain and merged requests share the pool.
        let wire = MERGED_MAX_WIRE_SIZE as u64;
        let recv_region = inner
            .ibnode
            .hca()
            .register((credits as u64 * wire) as usize);
        for i in 0..credits {
            #[expect(
                clippy::expect_used,
                reason = "connection setup posts into an empty receive queue sized for exactly these buffers"
            )]
            qp.post_recv(i as u64, recv_region.slice(i as u64 * wire, wire))
                .expect("pre-posting control receives");
        }
        let idx = inner.conns.borrow().len();
        inner.qp_to_conn.borrow_mut().insert(qp.qp_num(), idx);
        inner.conns.borrow_mut().push(Conn { qp, recv_region });
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
            let Some(conn_idx) = self
                .inner
                .qp_to_conn
                .borrow()
                .get(&completion.qp_num)
                .copied()
            else {
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
        let wire = MERGED_MAX_WIRE_SIZE as u64;
        let decoded: Result<ClientMessage, ProtoError> = {
            let conns = inner.conns.borrow();
            let conn = &conns[conn_idx];
            conn.recv_region.read_with(
                (buf_idx * wire) as usize,
                wire as usize,
                ClientMessage::decode_slice,
            )
        };
        // Buffer consumed: re-post it for the next request.
        {
            let conns = inner.conns.borrow();
            let conn = &conns[conn_idx];
            #[expect(
                clippy::expect_used,
                reason = "re-posting the buffer just consumed cannot overflow the fixed-size receive queue"
            )]
            conn.qp
                .post_recv(buf_idx, conn.recv_region.slice(buf_idx * wire, wire))
                .expect("re-posting control receive");
        }
        let job = match decoded {
            Ok(ClientMessage::Request(r)) => Job::from_request(&r),
            Ok(ClientMessage::Merged(m)) => {
                self.inner.stats.borrow_mut().merged_requests += 1;
                Job::from_merged(&m)
            }
            Err(_) => {
                inner.stats.borrow_mut().bad_messages += 1;
                return;
            }
        };
        inner.stats.borrow_mut().requests += 1;
        inner.ctr_requests.inc();
        let started = inner.engine.now();
        // Route the mark back to the client-side span context by the
        // physical request id; a merged id fans out to every carried
        // part. Unknown ids (e.g. the context completed after a
        // timeout) are a silent no-op.
        inner.engine.lifecycle().mark_phys(
            job.req_id,
            MarkKind::ServerReceived,
            started.as_nanos(),
        );
        // CPU cost of parsing + dispatching the message — paid once per
        // wire message, which is exactly the overhead merging amortises.
        let proc = SimDuration::from_nanos(REQUEST_PROC_NS);
        let (_, t_proc) = inner.ibnode.node().cpu().reserve(started, proc);

        if !self.validate(&job) {
            let this = self.clone();
            inner.engine.schedule_at(t_proc, move || {
                this.send_reply(conn_idx, job.req_id, ReplyStatus::OutOfRange, job.version);
            });
            return;
        }

        let this = self.clone();
        inner.engine.schedule_at(t_proc, move || {
            this.serve(conn_idx, job, started);
        });
    }

    fn validate(&self, job: &Job) -> bool {
        job.len > 0
            && job.len <= SERVER_STAGING_SIZE
            && job
                .spans()
                .all(|(offset, len, _)| len > 0 && self.inner.storage.in_range(offset, len))
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
            version > 0
                && page_range(offset, len).all(|p| versions.get(&p).is_some_and(|&v| v >= version))
        })
    }

    /// A write lost the fence race: acknowledge with `StaleWrite` so the
    /// client can retire it, without touching the store (and, when caught
    /// before the pull, without spending any RDMA).
    fn drop_stale(&self, conn_idx: usize, job: &Job, started: SimTime) {
        self.inner.stats.borrow_mut().stale_writes += 1;
        self.serve_span(job, started, true);
        self.send_reply(conn_idx, job.req_id, ReplyStatus::StaleWrite, job.version);
    }

    /// Dispatch a validated request: allocate staging, then drive the
    /// server-initiated RDMA state machine.
    fn serve(&self, conn_idx: usize, job: Job, started: SimTime) {
        if self.write_fully_stale(&job) {
            // Fenced before staging: a newer write already covers every
            // page; skip the staging wait and the RDMA pull entirely.
            self.drop_stale(conn_idx, &job, started);
            return;
        }
        let this = self.clone();
        // Staging allocation may wait for in-flight requests to release
        // buffers (the staging pool is its own wait queue). One span per
        // message, merged or not.
        self.inner.staging_pool.alloc(job.len, move |staging| {
            this.serve_with_staging(conn_idx, job, staging, started);
        });
    }

    fn serve_with_staging(&self, conn_idx: usize, job: Job, staging: PoolBuf, started: SimTime) {
        let inner = &self.inner;
        if inner.crashed.get() {
            // The daemon died while this request waited for staging.
            inner.staging_pool.free(staging);
            return;
        }
        if self.write_fully_stale(&job) {
            // A newer write to every covered page landed while this one
            // waited for staging; fence it off before spending RDMA.
            inner.staging_pool.free(staging);
            self.drop_stale(conn_idx, &job, started);
            return;
        }
        let token = inner.next_token.get();
        inner.next_token.set(token + 1);
        let remote = RemoteSlice {
            rkey: job.client_rkey,
            offset: job.client_offset,
            len: job.len,
        };
        let local = inner.staging_mr.slice(staging.offset, job.len);
        let (req_id, op, len) = (job.req_id, job.op, job.len);
        if op == PageOp::Read {
            // Swap-in gathers the store extents into the staging span in
            // staging order (merged segments may be scattered on the store),
            // now: the span is this request's alone until its token leaves
            // `pending`, and what the copy costs is charged below.
            let fill = |mut span: &mut [u8]| {
                for (offset, seg_len, _) in job.spans() {
                    let (seg, rest) = span.split_at_mut(seg_len as usize);
                    inner.storage.read_at(offset, seg);
                    span = rest;
                }
            };
            inner
                .staging_mr
                .fill_with(staging.offset as usize, len as usize, fill);
        }
        {
            let mut pending = inner.pending.borrow_mut();
            pending.insert(
                token,
                PendingRdma {
                    job,
                    staging,
                    conn: conn_idx,
                    started,
                },
            );
            inner
                .peak_pending
                .set(inner.peak_pending.get().max(pending.len()));
        }
        match op {
            PageOp::Write => {
                // Swap-out: pull the page data from the client — ONE
                // scatter-gather read for the whole merged span.
                inner.stats.borrow_mut().rdma_reads += 1;
                inner.engine.lifecycle().mark_phys(
                    req_id,
                    MarkKind::RdmaPosted,
                    inner.engine.now().as_nanos(),
                );
                self.post_rdma(
                    conn_idx,
                    WorkRequest {
                        wr_id: token,
                        kind: WorkKind::RdmaRead { local, remote },
                        solicited: false,
                    },
                );
            }
            PageOp::Read => {
                // Swap-in: once the store -> staging copy is paid for, push
                // with RDMA WRITE.
                let copy = inner.ibnode.memory_model().memcpy_time(len);
                let (_, t_copy) = inner.ibnode.node().cpu().reserve(inner.engine.now(), copy);
                inner.engine.span(
                    "hpbd_server",
                    "store_to_staging",
                    inner.engine.now().as_nanos(),
                    t_copy.as_nanos(),
                    &[("bytes", len)],
                );
                let this = self.clone();
                inner.engine.schedule_at(t_copy, move || {
                    if this.inner.crashed.get() {
                        // Crash landed mid-copy; the staging buffer is in
                        // `pending`, which the crash already reclaimed.
                        return;
                    }
                    this.inner.stats.borrow_mut().rdma_writes += 1;
                    this.inner.engine.lifecycle().mark_phys(
                        req_id,
                        MarkKind::RdmaPosted,
                        this.inner.engine.now().as_nanos(),
                    );
                    this.post_rdma(
                        conn_idx,
                        WorkRequest {
                            wr_id: token,
                            kind: WorkKind::RdmaWrite {
                                local: this.inner.staging_mr.slice(staging.offset, len),
                                remote,
                            },
                            solicited: false,
                        },
                    );
                });
            }
        }
    }

    fn post_rdma(&self, conn_idx: usize, wr: WorkRequest) {
        let token = wr.wr_id;
        let posted = {
            let conns = self.inner.conns.borrow();
            let mut chain = conns[conn_idx].qp.chain();
            chain.push(wr);
            chain.post()
        };
        if posted.is_err() {
            // Send-queue overflow: fail the request instead of wedging it.
            // Its staging returns to the pool and the client gets a typed
            // TransferError to drive its own retry machinery.
            let dropped = self.inner.pending.borrow_mut().remove(&token);
            if let Some(p) = dropped {
                self.inner.staging_pool.free(p.staging);
                self.send_reply(
                    p.conn,
                    p.job.req_id,
                    ReplyStatus::TransferError,
                    p.job.version,
                );
            }
        }
    }

    fn on_send_event(&self) {
        if self.inner.crashed.get() {
            self.inner.send_cq.drain();
            return;
        }
        self.note_activity();
        while let Some(completion) = self.inner.send_cq.poll() {
            match completion.opcode {
                Opcode::Send => {
                    // A reply left the node; nothing further to do. An
                    // injected link fault may have errored it — the client's
                    // timeout machinery recovers, not us.
                }
                Opcode::RdmaRead => self.finish_pull(completion.wr_id, completion.status),
                Opcode::RdmaWrite => self.finish_push(completion.wr_id, completion.status),
                Opcode::Recv => unreachable!("recv completion on send CQ"),
            }
        }
        self.inner.send_cq.req_notify(false);
    }

    /// RDMA READ done: the swap-out data is in staging; memcpy it into the
    /// store (overlapping any other in-flight RDMA), then acknowledge.
    fn finish_pull(&self, token: u64, status: WcStatus) {
        let inner = &self.inner;
        let Some(PendingRdma {
            job,
            staging,
            conn,
            started,
        }) = inner.pending.borrow_mut().remove(&token)
        else {
            return; // state dropped by a crash between post and completion
        };
        inner.engine.lifecycle().mark_phys(
            job.req_id,
            MarkKind::RdmaDone,
            inner.engine.now().as_nanos(),
        );
        if status != WcStatus::Success {
            inner.staging_pool.free(staging);
            self.serve_span(&job, started, false);
            self.send_reply(conn, job.req_id, ReplyStatus::TransferError, job.version);
            return;
        }
        let copy = inner.ibnode.memory_model().memcpy_time(job.len);
        let (_, t_copy) = inner.ibnode.node().cpu().reserve(inner.engine.now(), copy);
        inner.engine.span(
            "hpbd_server",
            "staging_to_store",
            inner.engine.now().as_nanos(),
            t_copy.as_nanos(),
            &[("bytes", job.len)],
        );
        let this = self.clone();
        inner.engine.schedule_at(t_copy, move || {
            if this.inner.crashed.get() {
                // Crash landed mid-copy; this request already left
                // `pending`, so its staging buffer is ours to return.
                this.inner.staging_pool.free(staging);
                return;
            }
            // The apply-time fence: the authoritative check. A newer write
            // may have been applied while this pull was on the wire, so
            // each page is re-checked at the moment it would be written.
            // The span still holds what the pull placed: it is ours until
            // the `free` below, and the completed RDMA READ was its only
            // writer.
            let applied = this.inner.staging_mr.read_with(
                staging.offset as usize,
                job.len as usize,
                |data| this.apply_versioned(&job, data),
            );
            this.inner.staging_pool.free(staging);
            if applied {
                this.inner.stats.borrow_mut().bytes_in += job.len;
                this.serve_span(&job, started, true);
                this.send_reply(conn, job.req_id, ReplyStatus::Ok, job.version);
            } else {
                this.drop_stale(conn, &job, started);
            }
        });
    }

    /// Apply pulled swap-out data page-by-page under the write fence: a
    /// page is written only when the incoming version is newer than the
    /// version it holds. Each merged segment fences independently with its
    /// own version, so a merged message carrying one stale and one live
    /// write applies exactly the live one. Returns whether any page was
    /// applied.
    fn apply_versioned(&self, job: &Job, data: &[u8]) -> bool {
        let inner = &self.inner;
        let mut applied_any = false;
        let mut data_base = 0usize;
        for (offset, len, version) in job.spans() {
            let span_data = &data[data_base..data_base + len as usize];
            data_base += len as usize;
            if version == 0 {
                // Unversioned write (a client that opted out of fencing):
                // apply wholesale, as before versioning existed.
                inner.storage.write_at(offset, span_data);
                applied_any = true;
                continue;
            }
            let mut versions = inner.versions.borrow_mut();
            for page in page_range(offset, len) {
                let stored = versions.get(&page).copied().unwrap_or(0);
                if stored >= version {
                    continue;
                }
                // Intersect the page with the span's byte range (the first
                // and last pages may be partially covered).
                let page_start = page * VERSION_PAGE;
                let start = offset.max(page_start);
                let end = (offset + len).min(page_start + VERSION_PAGE);
                let src = (start - offset) as usize;
                inner
                    .storage
                    .write_at(start, &span_data[src..src + (end - start) as usize]);
                versions.insert(page, version);
                applied_any = true;
            }
        }
        applied_any
    }

    /// RDMA WRITE done: the swap-in data is placed in the client;
    /// acknowledge and release staging.
    fn finish_push(&self, token: u64, status: WcStatus) {
        let inner = &self.inner;
        let Some(PendingRdma {
            job,
            staging,
            conn,
            started,
        }) = inner.pending.borrow_mut().remove(&token)
        else {
            return; // state dropped by a crash between post and completion
        };
        inner.engine.lifecycle().mark_phys(
            job.req_id,
            MarkKind::RdmaDone,
            inner.engine.now().as_nanos(),
        );
        inner.staging_pool.free(staging);
        if status != WcStatus::Success {
            self.serve_span(&job, started, false);
            self.send_reply(conn, job.req_id, ReplyStatus::TransferError, job.version);
            return;
        }
        inner.stats.borrow_mut().bytes_out += job.len;
        self.serve_span(&job, started, true);
        self.send_reply(conn, job.req_id, ReplyStatus::Ok, job.version);
    }

    /// Emit the request-arrival -> reply trace span for one served request.
    fn serve_span(&self, job: &Job, started: SimTime, ok: bool) {
        let engine = &self.inner.engine;
        engine.span(
            "hpbd_server",
            match job.op {
                PageOp::Write => "serve_write",
                PageOp::Read => "serve_read",
            },
            started.as_nanos(),
            engine.now().as_nanos(),
            &[("req", job.req_id), ("bytes", job.len), ("ok", ok as u64)],
        );
    }

    fn send_reply(&self, conn_idx: usize, req_id: u64, status: ReplyStatus, version: u64) {
        if self.inner.crashed.get() {
            return; // a dead daemon sends nothing
        }
        self.inner.engine.lifecycle().mark_phys(
            req_id,
            MarkKind::ReplyPosted,
            self.inner.engine.now().as_nanos(),
        );
        let reply = PageReply::new(req_id, status, version, self.inner.generation.get());
        let conns = self.inner.conns.borrow();
        // Best-effort: a reply squeezed out by a full send queue is
        // indistinguishable from a lost ack, and the client's timeout
        // machinery already recovers from that. Solicited so the client's
        // sleeping receiver thread wakes (paper §5: the server sets the
        // solicitation control field of the send descriptor).
        let mut chain = conns[conn_idx].qp.chain();
        chain.send(req_id, reply.encode(), true);
        let _ = chain.post();
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
    /// pool that holds a whole-staging-pool request beside a `LEN` one that
    /// is never answered.
    fn rig() -> (Engine, HpbdCluster) {
        let engine = Engine::new();
        let cluster = ClusterBuilder::new()
            .servers(1)
            .per_server_capacity(4 << 20)
            .pool_size(SERVER_STAGING_SIZE + LEN as u64)
            .build(&engine, Rc::new(Calibration::cluster_2005()));
        cluster.servers[0].inner.storage.write_at(0, &[0x11; LEN]);
        (engine, cluster)
    }

    fn submit(cluster: &HpbdCluster, op: IoOp, len: usize) {
        let buf = new_buffer(len);
        buf.borrow_mut().fill(0x22);
        cluster
            .client
            .submit(IoRequest::single(Bio::new(op, 0, buf, |_| {})));
    }

    /// Whether the copy between store and staging is being paid for: the
    /// request is served (swap-in) or pulled (swap-out), and its `t_copy`
    /// event has not run.
    fn in_copy(server: &HpbdServer, op: IoOp) -> bool {
        let (pending, stats) = (server.inner.pending.borrow().len(), server.stats());
        match op {
            IoOp::Read => pending == 1 && stats.rdma_writes == 0,
            IoOp::Write => pending == 0 && stats.rdma_reads == 1 && stats.bytes_in == 0,
        }
    }

    /// The server died with a `LEN`-byte `op` inside its copy: nothing
    /// left it and nothing was applied afterwards, and a restart serves a
    /// request that needs the whole staging pool.
    fn assert_died_clean(engine: &Engine, cluster: &HpbdCluster) {
        let server = &cluster.servers[0];
        engine.run_until_idle();
        assert_eq!(cluster.client.stats().replies, 0, "a dead daemon replied");
        let stats = server.stats();
        assert_eq!((stats.rdma_writes, stats.bytes_in), (0, 0));
        let mut store = vec![0xFF; LEN];
        server.inner.storage.read_at(0, &mut store);
        assert!(store.iter().all(|&b| b == 0), "the wiped store was written");
        assert!(server.inner.versions.borrow().is_empty());
        assert!(server.inner.pending.borrow().is_empty());
        assert_eq!(server.inner.staging_pool.free_bytes(), SERVER_STAGING_SIZE);
        server.restart();
        submit(cluster, IoOp::Write, SERVER_STAGING_SIZE as usize);
        engine.run_until_idle();
        assert_eq!(server.stats().bytes_in, SERVER_STAGING_SIZE);
    }

    #[test]
    fn crash_inside_the_copy_applies_nothing_and_leaks_no_staging() {
        for op in [IoOp::Read, IoOp::Write] {
            let (engine, cluster) = rig();
            submit(&cluster, op, LEN);
            while !in_copy(&cluster.servers[0], op) {
                assert!(engine.step_one(), "{op:?} never reached its copy");
            }
            cluster.servers[0].crash();
            assert_died_clean(&engine, &cluster);
        }
    }

    #[test]
    fn crash_in_the_instant_of_the_copy_event_applies_nothing() {
        for op in [IoOp::Read, IoOp::Write] {
            // A dry run finds the instant of the `t_copy` event...
            let (engine, cluster) = rig();
            submit(&cluster, op, LEN);
            while !in_copy(&cluster.servers[0], op) {
                engine.step_one();
            }
            while in_copy(&cluster.servers[0], op) {
                engine.step_one();
            }
            let t_copy = engine.now();
            // ...and the crash is scheduled there ahead of the request, so
            // of the two events of that instant it runs first.
            let (engine, cluster) = rig();
            let server = cluster.servers[0].clone();
            engine.schedule_at(t_copy, move || {
                assert!(in_copy(&server, op), "the copy event ran first");
                server.crash()
            });
            submit(&cluster, op, LEN);
            assert_died_clean(&engine, &cluster);
        }
    }
}
