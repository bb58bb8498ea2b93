//! The HPBD client: a block device driver over InfiniBand verbs.
//!
//! Serves the VM's paging I/O by staging pages through the pre-registered
//! buffer pool and exchanging control messages with the memory servers
//! (paper §4.2). The asynchronous design follows §4.2.3: the *sender* path
//! issues requests as soon as the kernel submits them (subject to pool
//! space and flow-control credits); the *receiver* path sleeps until the
//! solicited completion event fires, then drains every available reply in
//! one burst before re-arming.
//!
//! Multi-server support (§4.2.5) distributes the swap area across servers
//! in a contiguous **blocking** (non-striped) pattern; a request crossing
//! an extent boundary splits into physical requests, and the parent I/O
//! completes when every physical part is acknowledged. One placement map
//! says where each device byte and its mirror copy live.
//!
//! Flow control (§4.2.4) is a per-server credit water-mark equal to the
//! pre-posted receive buffers at the server; requests over the water-mark
//! queue inside the driver.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::channel::{self, Channel};
use crate::config::{Distribution, HpbdConfig, StagingMode, REPLY_PROC_NS, SERVER_STAGING_SIZE};
use crate::pool::{PoolBuf, SimBufferPool};
use crate::proto::{
    MergedRequest, MergedSeg, PageOp, PageRequest, ReplyStatus, RevokeNotice, ServerMessage,
    MAX_MERGE_SEGMENTS, REPLY_WIRE_SIZE,
};
use blockdev::{new_buffer, Bio, BlockDevice, DeviceHealth, FaultKind, IoError, IoOp, IoRequest};
use ibsim::{
    CompletionQueue, IbNode, MemoryRegion, Opcode, QueuePair, WcStatus, WorkKind, WorkRequest,
};
use simcore::{Engine, EventId, SimDuration, SimTime};
use simtrace::{intern, Counter, Histogram, LazyCounter, MarkKind, RequestCtx};
use std::cell::{Cell, RefCell, RefMut};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

/// Client statistics.
#[derive(Clone, Debug, Default)]
pub struct ClientStats {
    /// Block-layer requests accepted.
    pub requests: u64,
    /// Physical (per-server) requests issued.
    pub phys_requests: u64,
    /// Requests that went out as more than one part: split across server
    /// extents, or cut to fit the staging pools.
    pub split_requests: u64,
    /// Times a physical request waited for pool space.
    pub pool_waits: u64,
    /// Times a physical request waited for flow-control credits.
    pub flow_stalls: u64,
    /// Payload bytes swapped out.
    pub bytes_out: u64,
    /// Payload bytes swapped in.
    pub bytes_in: u64,
    /// Replies processed.
    pub replies: u64,
    /// Corrupt or unroutable server messages dropped (paper §4.1:
    /// signature validation; recovery is the requester's timeout).
    pub bad_messages: u64,
    /// Receiver-thread wakeups (completion events).
    pub receiver_wakeups: u64,
    /// Mirror-replica physical requests issued (mirror mode only).
    pub mirrored_phys: u64,
    /// Requests that timed out (failover mode only).
    pub timeouts: u64,
    /// Timed-out or send-failed requests re-issued to the SAME server
    /// (transient-fault tolerance; bounded by `max_retries`).
    pub retries: u64,
    /// Requests re-routed to a buddy server's replica region.
    pub failovers: u64,
    /// Revocation notices received (dynamic memory).
    pub revocations: u64,
    /// Chunks migrated to spare capacity.
    pub migrations: u64,
    /// Block requests deferred behind an in-progress migration.
    pub deferred_requests: u64,
    /// Writes a server fenced off as stale (a newer version already
    /// covered every page); completed as success since the superseding
    /// write is the state the device must converge to.
    pub stale_drops: u64,
    /// Mirror replicas dropped because their home server was dead: the
    /// buddy's replica region belongs to a *different* extent, so
    /// re-routing there would alias two device pages onto one slot. The
    /// write keeps its primary copy and runs with degraded redundancy.
    pub mirror_drops: u64,
    /// Migration transfers re-enqueued after a failed read or write
    /// completion (the chunk stays deferred until a retry succeeds).
    pub migration_retries: u64,
    /// Control messages exchanged with the servers: requests posted plus
    /// replies/notices decoded. The per-page ratio (messages / pages
    /// swapped) is the overhead the ROADMAP's batching item attacks.
    pub messages: u64,
    /// Merged multi-extent messages posted (batching mode only).
    pub merged_requests: u64,
    /// Logical parts carried inside merged messages; the mean merge depth
    /// is `merged_segments / merged_requests`.
    pub merged_segments: u64,
    /// Replies whose storage generation differed from the one learned at
    /// connect time: the server restarted (wiping its store) inside our
    /// timeout window. The connection is retired and the request recovered
    /// from the mirror/buddy, exactly like a timeout — but *detected*, not
    /// waited for.
    pub epoch_wipes: u64,
}

impl ClientStats {
    /// Control messages per 4 KiB page swapped (0 when nothing moved).
    pub fn messages_per_page(&self) -> f64 {
        let pages = (self.bytes_in + self.bytes_out) / 4096;
        if pages == 0 {
            0.0
        } else {
            self.messages as f64 / pages as f64
        }
    }
}

/// Parent bookkeeping for a (possibly split) block request.
struct Parent {
    req: RefCell<Option<IoRequest>>,
    remaining: Cell<usize>,
    error: Cell<Option<IoError>>,
    /// Submission instant (trace span start).
    started: SimTime,
    /// Physical parts issued (including mirror replicas).
    parts: usize,
    /// Pre-resolved swap-in/out latency histogram for this op.
    latency_hist: Histogram,
    /// Lifecycle span context stamped at block-queue dispatch; the parts
    /// append phase marks through it. `None` when lifecycle tracing is off
    /// or the request bypassed the queue (migration traffic).
    ctx: Option<Rc<RequestCtx>>,
}

impl Parent {
    fn finish_part(&self, engine: &Engine) {
        let left = self.remaining.get() - 1;
        self.remaining.set(left);
        if left == 0 {
            #[expect(
                clippy::expect_used,
                reason = "`remaining` hitting zero exactly once is the Parent invariant; a second take means simulator corruption, not an I/O error"
            )]
            let req = self.req.borrow_mut().take().expect("completed twice");
            let result = self.error.get().map_or(Ok(()), Err);
            engine.span(
                "hpbd",
                match req.op() {
                    IoOp::Read => "request_read",
                    IoOp::Write => "request_write",
                },
                self.started.as_nanos(),
                engine.now().as_nanos(),
                &[
                    ("bytes", req.len()),
                    ("parts", self.parts as u64),
                    ("ok", result.is_ok() as u64),
                ],
            );
            self.latency_hist
                .observe(engine.now().since(self.started).as_micros_f64());
            req.complete(result);
        }
    }
}

/// Where a physical request's data is staged for RDMA.
enum Staging {
    /// A span of the pre-registered pool (the paper's design).
    Pool(PoolBuf),
    /// An ephemeral on-the-fly registration (ablation / zero-copy mode).
    Ephemeral(MemoryRegion),
}

/// One logical part (a slice of one block request) carried by a physical
/// wire message. An unmerged message carries exactly one; a merged message
/// carries several, packed back-to-back in one staging span but free to
/// address scattered extents of the server's store.
struct Segment {
    parent: Rc<Parent>,
    parent_off: u64,
    /// Store offset of this part inside the target server's swap area
    /// (failover remaps it into the buddy's replica region).
    server_offset: u64,
    len: u64,
    /// Write-fencing stamp (0 for reads). Retries and failover reissues
    /// keep the stamp they were born with: a reissue is the SAME logical
    /// write, and must lose to any newer write that overtook it.
    version: u64,
    /// Lifecycle part index within the parent context (0 when off).
    part: u16,
}

/// Segment storage for a physical request: the unmerged hot path keeps its
/// one segment inline, with no heap allocation per request. Everything
/// reads it as a `[Segment]`; only the wire-format choice in
/// `post_request` asks how many there are.
enum Segs {
    One(Segment),
    Many(Vec<Segment>),
}

impl Deref for Segs {
    type Target = [Segment];
    fn deref(&self) -> &[Segment] {
        match self {
            Segs::One(seg) => std::slice::from_ref(seg),
            Segs::Many(segs) => segs,
        }
    }
}

impl DerefMut for Segs {
    fn deref_mut(&mut self) -> &mut [Segment] {
        match self {
            Segs::One(seg) => std::slice::from_mut(seg),
            Segs::Many(segs) => segs,
        }
    }
}

impl FromIterator<Segment> for Segs {
    fn from_iter<I: IntoIterator<Item = Segment>>(iter: I) -> Segs {
        let mut iter = iter.into_iter();
        match (iter.next(), iter.next()) {
            (Some(only), None) => Segs::One(only),
            (first, second) => Segs::Many(first.into_iter().chain(second).chain(iter).collect()),
        }
    }
}

/// Where a physical request waits between `issue` and its reply (paper
/// §4.2.3–4.2.4). Only [`HpbdClient::note`] moves it.
#[derive(Clone, Copy, Debug)]
enum State {
    /// For its staging span (an ephemeral registration is granted at once).
    PoolWait,
    /// Inside the staging copy (or the ephemeral registration).
    Staging,
    /// At the credit water-mark, in its server's `queued`.
    CreditWait,
    /// For its reply, with the request timeout `timer` armed.
    Posted { timer: Option<EventId> },
    /// Its attempt was just lost. It is routed again before the losing
    /// event returns, so no other event sees this state.
    Lost,
}

/// One physical request: a row of `ClientInner::requests`.
struct Phys {
    req_id: u64,
    op: PageOp,
    server_idx: usize,
    state: State,
    /// The staging span; `None` only while in `PoolWait`.
    staging: Option<Staging>,
    /// Mirror copies do not scatter data back on reads and are counted
    /// separately in the stats.
    is_mirror: bool,
    /// Delivery attempts so far; drives the retry backoff.
    attempts: u32,
    /// Lifecycle attempt counter: bumped on retries AND failover
    /// reissues, so each delivery attempt gets a distinct mark key
    /// (unlike `attempts`, which failover deliberately does not bump —
    /// the reissue keeps its backoff budget). A merged message retries,
    /// fails over, and completes as a unit, so the counter lives here,
    /// not per segment.
    trace_attempt: u16,
    /// The logical parts this message carries.
    segs: Segs,
}

impl Phys {
    /// Total transfer length — the sum of the segment lengths (the size
    /// of the staging span and of the single RDMA operation).
    fn len(&self) -> u64 {
        self.segs.iter().map(|s| s.len).sum()
    }

    /// The fencing version the reply is expected to echo: the segment's
    /// own stamp for a plain request, the maximum across segments for a
    /// merged one (matching `MergedRequest::max_version`).
    fn reply_version(&self) -> u64 {
        self.segs.iter().map(|s| s.version).max().unwrap_or(0)
    }

    /// The lifecycle contexts of the carried parts that have one (none
    /// when lifecycle tracing is off or for migration traffic).
    fn ctxs(&self) -> impl Iterator<Item = &RequestCtx> {
        self.segs.iter().filter_map(|s| s.parent.ctx.as_deref())
    }

    /// Append a lifecycle mark for the current delivery attempt of every
    /// traced part: a merged message posts, times out and is answered as a
    /// unit.
    fn mark(&self, kind: MarkKind, now_ns: u64) {
        for seg in self.segs.iter() {
            if let Some(ctx) = &seg.parent.ctx {
                ctx.mark(seg.part, self.trace_attempt, kind, now_ns);
            }
        }
    }

    /// Every carried part's parent sees `error`.
    fn set_error(&self, error: IoError) {
        for seg in self.segs.iter() {
            seg.parent.error.set(Some(error));
        }
    }

    /// Complete every carried part towards its parent, appending the
    /// lifecycle `Done` marks at this instant (inside the completing
    /// event, so the context's mark log stays in execution order).
    fn finish_parts(&self, engine: &Engine) {
        let now_ns = engine.now().as_nanos();
        for seg in self.segs.iter() {
            if let Some(ctx) = &seg.parent.ctx {
                ctx.mark(seg.part, self.trace_attempt, MarkKind::Done, now_ns);
            }
            seg.parent.finish_part(engine);
        }
    }
}

/// What can happen to a physical request on its way through the driver.
/// Each is noted at exactly one protocol site; [`HpbdClient::note`] moves
/// the request's [`State`] and renders the event into the `ClientStats`
/// bump, the registry counter, the trace instant and the per-part
/// lifecycle marks that belong to it.
#[derive(Debug)]
enum Event {
    /// Its staging span was granted.
    PoolGranted,
    /// Hit the credit water-mark (§4.2.4).
    CreditStall,
    /// Its control message went to the send queue, with `timer` armed.
    Posted { timer: Option<EventId> },
    /// Its reply arrived.
    ReplyReceived,
    /// The server fenced the write off as stale.
    StaleDrop,
    /// Its reply exposed an in-window server restart.
    EpochWipe,
    /// The attempt is lost: timer expiry, failed send or wiped epoch.
    Timeout,
    /// The same server gets another attempt.
    Retry,
    /// Re-routed to `buddy`'s replica region. `reissue`: the lost attempt
    /// had reached the wire, so a new attempt is queued (a pre-post
    /// re-route keeps its attempt and its Queue attribution).
    Failover { buddy: usize, reissue: bool },
    /// A mirror replica lost its home server and was dropped.
    MirrorDropped,
}

/// A part parked in the per-server batch accumulator until its merge
/// window closes (batching mode). The store offset lives in the segment.
struct PendingPart {
    op: PageOp,
    is_mirror: bool,
    seg: Segment,
}

struct ServerConn {
    channel: Channel,
    credits: Cell<usize>,
    /// Requests in `CreditWait` on this server, by id, in FIFO order.
    queued: RefCell<VecDeque<u64>>,
    /// High-water mark of the credit-stall queue, published as the
    /// per-server queue-depth gauge at stats time (never on the hot path).
    peak_queued: Cell<usize>,
    /// Marked on the first request timeout; all traffic re-routes to the
    /// buddy afterwards.
    dead: Cell<bool>,
    /// The server storage generation learned in the connect handshake. A
    /// reply carrying a different generation exposes an amnesiac restart
    /// (the store was wiped inside our timeout window): its data must not
    /// be trusted, and the connection is retired like a timed-out one.
    generation: Cell<u64>,
    /// Merge accumulator: parts parked until the merge window closes
    /// (batching mode; idle otherwise).
    batch: RefCell<Vec<PendingPart>>,
    /// A flush event is already scheduled; dedups arming per window.
    batch_armed: Cell<bool>,
}

/// One entry of the placement map.
#[derive(Clone, Copy, Debug)]
struct Chunk {
    /// Device offset this chunk starts at.
    device_base: u64,
    /// Length (the last chunk of an extent may be short).
    len: u64,
    /// Current home: where the chunk's bytes are. A move repoints it
    /// only once the new home has acknowledged them.
    server: usize,
    /// Server-relative offset of the chunk's storage.
    server_offset: u64,
    /// `Some(failed rounds)` while the chunk is moving: I/O to it defers,
    /// and a revoke notice that names it again starts nothing.
    moving: Option<u32>,
}

/// Where every device byte lives (paper §4.2.5): the one map that
/// splitting, revocation and migration read, and from which mirroring
/// and failover derive the replica ([`HpbdClient::replica`]).
#[derive(Default)]
struct Placement {
    /// Each attached server's extent, in attach order.
    extents: Vec<u64>,
    /// Device chunks, sorted by `device_base` and tiling the device.
    chunks: Vec<Chunk>,
    /// Per-server free spare chunk offsets (migration targets).
    spares: Vec<Vec<u64>>,
}

impl Placement {
    /// The map of `extents`: blocking extents in `chunk_bytes` chunks, or
    /// stripe `k` on server `k % n` at `(k / n) * stripe`. Spare chunks
    /// follow each extent.
    fn new(config: &HpbdConfig, extents: Vec<u64>) -> Placement {
        let chunk = config.chunk_bytes.max(4096);
        let mut chunks = Vec::new();
        match config.distribution {
            Distribution::Blocking => {
                let mut base = 0;
                for (server, &extent) in extents.iter().enumerate() {
                    for at in (0..extent).step_by(chunk as usize) {
                        chunks.push(Chunk {
                            device_base: base + at,
                            len: chunk.min(extent - at),
                            server,
                            server_offset: at,
                            moving: None,
                        });
                    }
                    base += extent;
                }
            }
            Distribution::Striped { stripe_bytes } => {
                assert!(
                    stripe_bytes >= 4096 && stripe_bytes.is_multiple_of(4096),
                    "stripe must be page-multiple"
                );
                let n = extents.len();
                let capacity: u64 = extents.iter().sum();
                for (k, base) in (0..capacity).step_by(stripe_bytes as usize).enumerate() {
                    chunks.push(Chunk {
                        device_base: base,
                        len: stripe_bytes.min(capacity - base),
                        server: k % n,
                        server_offset: (k / n) as u64 * stripe_bytes,
                        moving: None,
                    });
                }
            }
        }
        let spares = 0..config.spare_chunks as u64;
        let spares = extents
            .iter()
            .map(|&extent| spares.clone().map(|i| extent + i * chunk).collect())
            .collect();
        Placement {
            extents,
            chunks,
            spares,
        }
    }

    /// Split a device extent into per-server physical parts
    /// `(server_idx, server_offset, parent_off, part_len)`, coalescing
    /// runs that stay contiguous on one server. `None` when the extent
    /// touches a moving chunk: its I/O waits for the move.
    fn split(&self, offset: u64, len: u64) -> Option<Vec<(usize, u64, u64, u64)>> {
        let mut parts: Vec<(usize, u64, u64, u64)> = Vec::new();
        let mut at = offset;
        let end = offset + len;
        let mut idx = self.chunks.partition_point(|c| c.device_base + c.len <= at);
        while at < end {
            let c = &self.chunks[idx];
            if c.moving.is_some() {
                return None;
            }
            let server_at = c.server_offset + (at - c.device_base);
            let part_end = end.min(c.device_base + c.len);
            let part_len = part_end - at;
            match parts.last_mut() {
                Some((srv, soff, _, plen)) if *srv == c.server && *soff + *plen == server_at => {
                    *plen += part_len;
                }
                _ => parts.push((c.server, server_at, at - offset, part_len)),
            }
            at = part_end;
            idx += 1;
        }
        Some(parts)
    }
}

struct ClientInner {
    engine: Engine,
    config: HpbdConfig,
    ibnode: IbNode,
    pool_mr: MemoryRegion,
    pool: SimBufferPool,
    send_cq: CompletionQueue,
    recv_cq: CompletionQueue,
    conns: RefCell<Vec<ServerConn>>,
    /// Every physical request from `issue` until its reply or failure
    /// takes it out, keyed (and so iterated) by request id.
    requests: RefCell<BTreeMap<u64, Phys>>,
    next_req_id: Cell<u64>,
    /// Write-fencing version source: one fresh stamp per block-layer
    /// write, shared by every physical part (primary and mirror replica)
    /// of that write. Monotonic, so later writes always win the fence.
    next_version: Cell<u64>,
    stats: RefCell<ClientStats>,
    placement: RefCell<Placement>,
    /// Block requests held back until their chunks finish moving, in
    /// submission order.
    deferred: RefCell<Vec<IoRequest>>,
    name: String,
    /// Set by [`BlockDevice::shutdown`]: new submissions fail cleanly.
    shut_down: Cell<bool>,
    /// Flush-scoped doorbell spool: `(conn index, work request)` pairs
    /// collected while a batch flush is on the stack, posted as chained
    /// WRs — one doorbell per server per flush — when it unwinds.
    /// `Some` exactly while a flush is on the stack.
    spool: RefCell<Option<Vec<(usize, WorkRequest)>>>,
    /// Pre-resolved handles for metrics that are registered at construction
    /// anyway; hot emit sites bump these without a registry lookup.
    ctr_credit_stalls: Counter,
    hist_swap_in: Histogram,
    hist_swap_out: Histogram,
    /// Lazily-resolved handles: the registry entry appears at the first
    /// increment, exactly like the string-keyed `inc` path they replace.
    ctr_requests: LazyCounter,
    ctr_phys_requests: LazyCounter,
    ctr_pool_waits: LazyCounter,
    ctr_receiver_wakeups: LazyCounter,
    ctr_messages: LazyCounter,
}

/// The HPBD block device. Clone shares the device instance.
#[derive(Clone)]
pub struct HpbdClient {
    inner: Rc<ClientInner>,
}

impl HpbdClient {
    /// Create the client driver on `ibnode`. Connections are added by the
    /// cluster builder via [`HpbdClient::attach_server`].
    pub fn new(engine: Engine, ibnode: IbNode, config: HpbdConfig) -> HpbdClient {
        // Pre-register the headline metrics so reports always show them,
        // even for runs where the condition never fires.
        let metrics = engine.metrics();
        let ctr_credit_stalls = metrics.counter_handle("hpbd.credit_stalls");
        metrics.add("hpbd.split_requests", 0);
        metrics.add("hpbd.failovers", 0);
        let hist_swap_in = metrics.histogram_handle("hpbd.swap_in_latency_us");
        let hist_swap_out = metrics.histogram_handle("hpbd.swap_out_latency_us");
        // The pool is registered once at device load time (paper §4.2.2);
        // charge the registration cost against the client CPU.
        let reg = ibnode
            .memory_model()
            .calibration()
            .registration_time(config.pool_size);
        ibnode.node().cpu().reserve(engine.now(), reg);
        let pool_mr = ibnode.hca().register(config.pool_size as usize);
        let pool = SimBufferPool::new(config.pool_size);
        let send_cq = ibnode.create_cq();
        let recv_cq = ibnode.create_cq();
        let client = HpbdClient {
            inner: Rc::new(ClientInner {
                engine,
                config,
                ibnode,
                pool_mr,
                pool,
                send_cq,
                recv_cq,
                conns: RefCell::new(Vec::new()),
                requests: RefCell::new(BTreeMap::new()),
                next_req_id: Cell::new(1),
                next_version: Cell::new(1),
                stats: RefCell::new(ClientStats::default()),
                placement: RefCell::default(),
                deferred: RefCell::new(Vec::new()),
                name: "hpbd0".to_string(),
                shut_down: Cell::new(false),
                spool: RefCell::new(None),
                ctr_credit_stalls,
                hist_swap_in,
                hist_swap_out,
                ctr_requests: metrics.lazy_counter("hpbd.requests"),
                ctr_phys_requests: metrics.lazy_counter("hpbd.phys_requests"),
                ctr_pool_waits: metrics.lazy_counter("hpbd.pool_waits"),
                ctr_receiver_wakeups: metrics.lazy_counter("hpbd.receiver_wakeups"),
                ctr_messages: metrics.lazy_counter("hpbd.messages"),
            }),
        };
        client.install_receiver();
        client
    }

    /// The client's fabric node (shared with the VM and applications).
    pub fn ibnode(&self) -> &IbNode {
        &self.inner.ibnode
    }

    /// CQs for the cluster builder to wire server QPs to:
    /// (send CQ, recv CQ) — shared among the QPs to all servers (paper §5).
    pub fn cqs(&self) -> (&CompletionQueue, &CompletionQueue) {
        (&self.inner.send_cq, &self.inner.recv_cq)
    }

    /// Number of attached servers.
    pub fn server_count(&self) -> usize {
        self.inner.conns.borrow().len()
    }

    /// Statistics snapshot. Also publishes the derived gauges
    /// (`hpbd.messages_per_page`, per-server peak queue depth) so they
    /// appear in metric snapshots taken afterwards — peaks are tracked in
    /// cells on the hot path and only hit the registry here.
    pub fn stats(&self) -> ClientStats {
        let stats = self.inner.stats.borrow().clone();
        let metrics = self.inner.engine.metrics();
        metrics.set_gauge("hpbd.messages_per_page", stats.messages_per_page());
        for (i, conn) in self.inner.conns.borrow().iter().enumerate() {
            metrics.set_gauge(
                intern(&format!("hpbd.server{i}.peak_queue_depth")),
                conn.peak_queued.get() as f64,
            );
        }
        stats
    }

    /// Attach a server exporting `extent_len` bytes of the swap area (in
    /// attach order under the blocking distribution, round-robin under
    /// striping), and lay the placement map out again over every attached
    /// extent. Pre-posts reply receive buffers on `qp`.
    /// `generation` is the server's storage generation from the connect
    /// handshake; replies carrying any other value reveal an in-window
    /// restart (see [`ClientStats::epoch_wipes`]).
    pub fn attach_server(&self, qp: QueuePair, extent_len: u64, generation: u64) {
        let inner = &self.inner;
        let credits = inner.config.credits;
        // Two extra receives beyond the credit window absorb
        // server-initiated notices (revocations).
        inner.conns.borrow_mut().push(ServerConn {
            channel: Channel::open(&inner.ibnode, qp, credits + 2, REPLY_WIRE_SIZE + 4),
            credits: Cell::new(credits),
            queued: RefCell::new(VecDeque::new()),
            peak_queued: Cell::new(0),
            dead: Cell::new(false),
            generation: Cell::new(generation),
            batch: RefCell::new(Vec::new()),
            batch_armed: Cell::new(false),
        });
        let mut placement = inner.placement.borrow_mut();
        let mut extents = std::mem::take(&mut placement.extents);
        extents.push(extent_len);
        *placement = Placement::new(&inner.config, extents);
    }

    // -- sender path ---------------------------------------------------------

    /// Where the other copy of `server`'s byte at `offset` lives: the next
    /// server's replica region, at the same offset past its primary
    /// region. `None` without mirrored writes, and when `offset` already
    /// lies in a replica region: the only other copy is on the dead home.
    fn replica(&self, server: usize, offset: u64) -> Option<(usize, u64)> {
        let config = &self.inner.config;
        let extents = &self.inner.placement.borrow().extents;
        let next = (server + 1) % extents.len();
        (config.mirror_writes && offset < config.primary_len(extents[server]))
            .then(|| (next, config.primary_len(extents[next]) + offset))
    }

    /// Move `phys` to its next [`State`] on `ev`, then render the event
    /// everywhere it is observed. The first `match` is the table of legal
    /// moves; any other (state, event) pair is a driver bug. The
    /// `ClientStats` field and its registry twin move together here and
    /// nowhere else. Every emit self-guards, so with observation off an
    /// event costs its counter bumps and a few not-taken branches.
    fn note(&self, phys: &mut Phys, ev: Event) {
        let inner = &self.inner;
        let engine = &inner.engine;
        phys.state = match (phys.state, &ev) {
            (State::PoolWait, Event::PoolGranted) => State::Staging,
            (State::Staging | State::CreditWait | State::Lost, Event::CreditStall) => {
                State::CreditWait
            }
            (State::Staging | State::CreditWait | State::Lost, &Event::Posted { timer }) => {
                State::Posted { timer }
            }
            (State::Posted { timer }, Event::ReplyReceived | Event::Timeout) => {
                if let Some(timer) = timer {
                    engine.cancel(timer);
                }
                match ev {
                    Event::Timeout => State::Lost,
                    // An answered request leaves the table as it is: a
                    // stale-write verdict may still be noted on it.
                    _ => State::Posted { timer: None },
                }
            }
            (state @ State::Posted { .. }, Event::StaleDrop | Event::EpochWipe) => state,
            (State::Lost, Event::Retry) => State::Lost,
            // A re-route keeps the state it routes from; a dropped mirror
            // leaves the table.
            (
                state @ (State::Staging | State::CreditWait | State::Lost),
                Event::Failover { .. } | Event::MirrorDropped,
            ) => state,
            (state, ev) => unreachable!("request {}: {ev:?} in {state:?}", phys.req_id),
        };
        let now_ns = engine.now().as_nanos();
        let mut stats = inner.stats.borrow_mut();
        // The recovery-path instants all name the request and one detail.
        let instant = |name, key, val| {
            engine.instant("hpbd", name, &[("req", phys.req_id), (key, val)]);
        };
        match ev {
            Event::PoolGranted => {}
            Event::CreditStall => {
                stats.flow_stalls += 1;
                inner.ctr_credit_stalls.inc();
                engine.instant(
                    "hpbd",
                    "credit_stall",
                    &[
                        ("server", phys.server_idx as u64),
                        ("req", phys.req_id),
                        ("bytes", phys.len()),
                    ],
                );
            }
            Event::Posted { .. } => {
                stats.phys_requests += 1;
                stats.messages += 1;
                inner.ctr_phys_requests.inc();
                inner.ctr_messages.inc();
                if phys.is_mirror {
                    stats.mirrored_phys += 1;
                }
                if phys.segs.len() > 1 {
                    stats.merged_requests += 1;
                    stats.merged_segments += phys.segs.len() as u64;
                }
                phys.mark(MarkKind::Posted, now_ns);
            }
            Event::ReplyReceived => {
                stats.replies += 1;
                phys.mark(MarkKind::ReplyReceived, now_ns);
                engine.lifecycle().unregister_phys(phys.req_id);
            }
            Event::StaleDrop => {
                stats.stale_drops += 1;
                engine.metrics().inc("hpbd.stale_drops");
                instant("stale_write_dropped", "version", phys.reply_version());
            }
            Event::EpochWipe => {
                stats.epoch_wipes += 1;
                engine.metrics().inc("hpbd.epoch_wipes");
                instant("epoch_wipe", "server", phys.server_idx as u64);
            }
            Event::Timeout => {
                stats.timeouts += 1;
                engine.metrics().inc("hpbd.timeouts");
                instant("timeout", "server", phys.server_idx as u64);
                // Dooms the attempt: the fold relabels its whole lifetime
                // (and the gap until the next attempt is queued) to
                // RetryOverhead.
                phys.mark(MarkKind::TimedOut, now_ns);
                engine.lifecycle().unregister_phys(phys.req_id);
            }
            Event::Retry => {
                stats.retries += 1;
                engine.metrics().inc("hpbd.retries");
                instant("retry", "attempt", phys.attempts as u64);
                phys.ctxs().for_each(RequestCtx::note_retry);
                phys.mark(MarkKind::Queued, now_ns);
            }
            Event::Failover { buddy, reissue } => {
                stats.failovers += 1;
                engine.metrics().inc("hpbd.failovers");
                instant("failover", "buddy", buddy as u64);
                phys.ctxs().for_each(RequestCtx::note_failover);
                if reissue {
                    phys.mark(MarkKind::Queued, now_ns);
                }
            }
            Event::MirrorDropped => {
                stats.mirror_drops += 1;
                engine.metrics().inc("hpbd.mirror_drops");
                instant("mirror_dropped", "server", phys.server_idx as u64);
            }
        }
    }

    /// Give one (possibly merged) group of parts a request id and a row in
    /// the table, then stage it. Serves batching off (one part), batching
    /// on (a flush group) and the register-on-the-fly ablation alike.
    fn issue(&self, server_idx: usize, op: PageOp, is_mirror: bool, segs: Segs) {
        let inner = &self.inner;
        let req_id = inner.next_req_id.replace(inner.next_req_id.get() + 1);
        let len: u64 = segs.iter().map(|s| s.len).sum();
        let phys = Phys {
            req_id,
            op,
            server_idx,
            state: State::PoolWait,
            staging: None,
            is_mirror,
            attempts: 0,
            trace_attempt: 0,
            segs,
        };
        inner.requests.borrow_mut().insert(req_id, phys);
        match inner.config.staging {
            StagingMode::CopyToPool => {
                if inner.pool.free_bytes() < len || inner.pool.queued_waiters() != 0 {
                    inner.stats.borrow_mut().pool_waits += 1;
                    inner.ctr_pool_waits.inc();
                    inner
                        .engine
                        .instant("hpbd", "pool_wait", &[("req", req_id), ("bytes", len)]);
                }
                let this = self.clone();
                inner
                    .pool
                    .alloc(len, move |buf| this.stage(req_id, Staging::Pool(buf)));
            }
            // The page buffers become an ephemeral MR — no staging copy,
            // but the registration cost sits on the critical path of every
            // request, which is exactly what Figure 3 says loses for
            // swap-sized transfers.
            StagingMode::RegisterOnFly => {
                let mr = inner.ibnode.hca().register(len as usize);
                self.stage(req_id, Staging::Ephemeral(mr));
            }
        }
    }

    /// The table row of a request that must be in it. Drop the borrow
    /// before calling anything that may free pool space (a freed span runs
    /// the pool's waiters, which look themselves up).
    fn request(&self, req_id: u64) -> RefMut<'_, Phys> {
        RefMut::map(self.inner.requests.borrow_mut(), |rows| {
            let row = rows.get_mut(&req_id);
            row.unwrap_or_else(|| unreachable!("request {req_id} is not in the table"))
        })
    }

    /// The registered region a request stages through, and where in it.
    fn staging_span<'a>(&'a self, phys: &'a Phys) -> (&'a MemoryRegion, u64) {
        match &phys.staging {
            Some(Staging::Pool(buf)) => (&self.inner.pool_mr, buf.offset),
            Some(Staging::Ephemeral(mr)) => (mr, 0),
            None => unreachable!("request {} has no staging span yet", phys.req_id),
        }
    }

    /// `span` is granted: fill it if the request is a write, charge what
    /// staging costs, then hand the request to the sender.
    fn stage(&self, req_id: u64, span: Staging) {
        let inner = &self.inner;
        let now = inner.engine.now();
        let mut phys = self.request(req_id);
        phys.staging = Some(span);
        self.note(&mut phys, Event::PoolGranted);
        let len = phys.len();
        if phys.op == PageOp::Write {
            // A merged request packs its segments back-to-back so the
            // server's single RDMA pull sees one contiguous span. (On the
            // fly the MR *is* the page memory: the bytes are mirrored into
            // the simulated region without a copy charge.)
            let (region, start) = self.staging_span(&phys);
            let mut at = start as usize;
            for seg in phys.segs.iter() {
                let parent = seg.parent.req.borrow();
                #[expect(
                    clippy::expect_used,
                    reason = "the Parent holds its request until the last part finishes; this part has not finished"
                )]
                let parent = parent.as_ref().expect("parent alive");
                region.fill_with(at, seg.len as usize, |pos, piece| {
                    parent.gather_range_into(seg.parent_off + pos as u64, piece)
                });
                at += seg.len as usize;
            }
        }
        let ready = match (&phys.staging, phys.op) {
            (Some(Staging::Ephemeral(_)), _) => {
                let model = inner.ibnode.memory_model();
                let reg = model.calibration().registration_time(len);
                inner.ibnode.node().cpu().reserve(now, reg).1
            }
            // A pool read has nothing to copy: straight to the sender.
            (_, PageOp::Read) => {
                drop(phys);
                return self.enqueue_send(req_id);
            }
            (_, PageOp::Write) => {
                // The paper's copy-instead-of-register decision.
                let copy = inner.ibnode.memory_model().memcpy_time(len);
                let (_, t_copy) = inner.ibnode.node().cpu().reserve(now, copy);
                inner.engine.span(
                    "hpbd",
                    "stage_copy",
                    now.as_nanos(),
                    t_copy.as_nanos(),
                    &[("req", req_id), ("bytes", len)],
                );
                t_copy
            }
        };
        let this = self.clone();
        inner
            .engine
            .schedule_at(ready, move || this.enqueue_send(req_id));
    }

    /// Route a request that has left staging, or is being routed again:
    /// post it if its server has a credit, else queue it at the water-mark.
    fn enqueue_send(&self, req_id: u64) {
        let mut phys = self.request(req_id);
        let conns = self.inner.conns.borrow();
        let conn = &conns[phys.server_idx];
        // A server known to be dead gets no traffic: re-target the buddy's
        // replica region up front (requires mirroring).
        if conn.dead.get() {
            drop((phys, conns));
            return self.fail_over(req_id, FaultKind::ServerDead);
        }
        if conn.credits.get() == 0 {
            // Water-mark reached: queue until credits return (§4.2.4).
            self.note(&mut phys, Event::CreditStall);
            let mut queued = conn.queued.borrow_mut();
            queued.push_back(req_id);
            conn.peak_queued
                .set(conn.peak_queued.get().max(queued.len()));
            return;
        }
        conn.credits.set(conn.credits.get() - 1);
        self.post_request(conn, &mut phys);
    }

    fn post_request(&self, conn: &ServerConn, phys: &mut Phys) {
        let req_id = phys.req_id;
        let (region, client_offset) = self.staging_span(phys);
        let client_rkey = region.rkey();
        // The one place the merge layer shows: a lone segment travels as
        // the paper's plain request, several as one merged message.
        let payload = if let [seg] = &*phys.segs {
            PageRequest::new(
                req_id,
                phys.op,
                seg.server_offset,
                seg.len,
                client_rkey,
                client_offset,
                seg.version,
            )
            .encode()
        } else {
            MergedRequest::new(
                req_id,
                phys.op,
                client_rkey,
                client_offset,
                phys.segs
                    .iter()
                    .map(|s| MergedSeg::new(s.server_offset, s.len, s.version))
                    .collect(),
            )
            .encode()
        };
        // Bind the message id to the lifecycle contexts of every part it
        // carries, so the netmodel wire/server marks fan out to each one.
        self.inner.engine.lifecycle().register_phys(
            req_id,
            phys.segs.iter().filter_map(|s| {
                let ctx = s.parent.ctx.clone()?;
                Some((ctx, s.part, phys.trace_attempt))
            }),
        );
        let wr = WorkRequest {
            wr_id: req_id,
            kind: WorkKind::Send { payload },
            // Solicited so the (possibly sleeping) server wakes.
            solicited: true,
        };
        let posted = if let Some(spool) = self.inner.spool.borrow_mut().as_mut() {
            // A batch flush is on the stack: spool the WR so the whole
            // flush rings one doorbell per server. Chain-post errors are
            // recovered per-WR when the spool drains.
            spool.push((phys.server_idx, wr));
            Ok(())
        } else {
            conn.channel.qp.post_send(wr)
        };
        if posted.is_err() {
            self.fail_sends_later(vec![req_id]);
        }
        let timer = self.inner.config.request_timeout_ns.map(|timeout_ns| {
            // Exponential backoff: each retry of this request waits twice
            // as long for its answer, capped at 8x the base timeout.
            let scaled = timeout_ns << phys.attempts.min(3);
            let this = self.clone();
            self.inner
                .engine
                .schedule_cancellable_in(SimDuration::from_nanos(scaled), move || {
                    this.retire(req_id);
                })
        });
        self.note(phys, Event::Posted { timer });
    }

    /// Request `req_id` targets a dead server: decide what becomes of it.
    /// `why` is the error it ends with if nothing can take it over:
    /// `ServerDead` for a pre-post re-route (it keeps its delivery
    /// attempt), `Timeout` when it had been posted and lost (a re-route is
    /// then a new attempt).
    fn fail_over(&self, req_id: u64, why: FaultKind) {
        let reissue = why == FaultKind::Timeout;
        {
            let mut phys = self.request(req_id);
            // Each carried segment's replica, all on one server; a segment
            // already on its replica has none.
            let replica = |seg: &Segment| self.replica(phys.server_idx, seg.server_offset);
            let replicas: Option<Vec<_>> = phys.segs.iter().map(replica).collect();
            let live = replicas.filter(|r| !self.inner.conns.borrow()[r[0].0].dead.get());
            if phys.is_mirror {
                // A mirror replica has nowhere to go: its home server is
                // dead and its only other copy is the primary. Drop the
                // copy: the write keeps its primary, and the device runs
                // with degraded redundancy until the server returns.
                self.note(&mut phys, Event::MirrorDropped);
            } else if let Some(replicas) = live {
                if reissue {
                    phys.trace_attempt += 1;
                }
                let buddy = replicas[0].0;
                self.note(&mut phys, Event::Failover { buddy, reissue });
                phys.server_idx = buddy;
                for (seg, (_, offset)) in phys.segs.iter_mut().zip(replicas) {
                    seg.server_offset = offset;
                }
                drop(phys);
                return self.enqueue_send(req_id);
            } else {
                // No live replica (no mirroring, a dead buddy, or already
                // on the replica): every carried part's parent sees it.
                phys.set_error(IoError::Fault(why));
                self.inner.engine.lifecycle().unregister_phys(req_id);
            }
        }
        let phys = self.inner.requests.borrow_mut().remove(&req_id);
        if let Some(phys) = phys {
            self.complete_at(phys, self.inner.engine.now());
        }
    }

    /// The attempt of `Posted` request `req_id` is lost: its timer expired,
    /// its send failed in the fabric (recovery starts at once: the server
    /// never saw it), its server failed the transfer, or its epoch was
    /// wiped. Retry with backoff while attempts remain, else presume the
    /// server dead and re-route to the replica or fail the I/O. A no-op if
    /// the request was answered or routed again in the meantime.
    fn retire(&self, req_id: u64) {
        let stranded = {
            let mut requests = self.inner.requests.borrow_mut();
            let Some(phys) = requests
                .get_mut(&req_id)
                .filter(|p| matches!(p.state, State::Posted { .. }))
            else {
                return;
            };
            self.note(phys, Event::Timeout);
            // The credit consumed by the lost request never returns via a
            // reply; restore it so accounting stays consistent.
            let conns = self.inner.conns.borrow();
            let conn = &conns[phys.server_idx];
            conn.credits.set(conn.credits.get() + 1);
            if phys.attempts < self.inner.config.max_retries {
                // Transient-fault tolerance: give the same server another
                // chance (with a backed-off timeout) before declaring it
                // dead.
                phys.attempts += 1;
                phys.trace_attempt += 1;
                self.note(phys, Event::Retry);
                None
            } else {
                conn.dead.set(true);
                // Requests still queued for the dead server will never get
                // credits back: pull them out for re-routing.
                Some(std::mem::take(&mut *conn.queued.borrow_mut()))
            }
        };
        let Some(stranded) = stranded else {
            return self.enqueue_send(req_id);
        };
        for queued in stranded {
            self.enqueue_send(queued);
        }
        self.fail_over(req_id, FaultKind::Timeout);
    }

    /// Return the staging resources now and schedule the parent
    /// completion of every carried part at `at`.
    fn complete_at(&self, phys: Phys, at: SimTime) {
        self.release_staging(&phys);
        let engine = self.inner.engine.clone();
        self.inner
            .engine
            .schedule_at(at, move || phys.finish_parts(&engine));
    }

    // -- receiver path --------------------------------------------------------

    /// Install the two CQ event handlers. The client owns its CQs, so each
    /// handler holds the client weakly: a strong capture would be a cycle
    /// that keeps the client alive after its last user lets go.
    fn install_receiver(&self) {
        let on_event = |body: fn(&HpbdClient)| {
            let weak = Rc::downgrade(&self.inner);
            move || {
                if let Some(inner) = weak.upgrade() {
                    body(&HpbdClient { inner });
                }
            }
        };
        self.inner
            .recv_cq
            .set_event_handler(on_event(HpbdClient::on_replies));
        self.inner.recv_cq.req_notify(true);

        // The send CQ is normally drained opportunistically from the reply
        // burst. Arm it solicited-only so ERROR completions — which always
        // qualify regardless of the solicited flag — wake the driver at
        // once; send successes are unsolicited and never trigger it, so a
        // healthy run schedules no extra events through this path.
        self.inner.send_cq.set_event_handler(on_event(|this| {
            this.drain_send_cq();
            this.inner.send_cq.req_notify(true);
        }));
        self.inner.send_cq.req_notify(true);
    }

    /// Drain send-side completions: successes carry no actions, but a
    /// failed request send must enter the recovery path (the server never
    /// saw the message, so no reply will ever come).
    fn drain_send_cq(&self) {
        while let Some(c) = self.inner.send_cq.poll() {
            match c.status {
                WcStatus::Success => {}
                WcStatus::RetryExceeded | WcStatus::RnrRetryExceeded => self.retire(c.wr_id),
                other => panic!("request send failed: {other:?}"),
            }
        }
    }

    /// The receiver thread body: drain all available replies in one burst,
    /// then re-arm and go back to sleep (paper §4.2.3).
    fn on_replies(&self) {
        let inner = &self.inner;
        inner.stats.borrow_mut().receiver_wakeups += 1;
        inner.ctr_receiver_wakeups.inc();
        while let Some(completion) = inner.recv_cq.poll() {
            assert_eq!(completion.opcode, Opcode::Recv);
            assert_eq!(completion.status, WcStatus::Success, "reply recv failed");
            let conns = inner.conns.borrow();
            let route = channel::route(conns.iter().map(|c| &c.channel), completion.qp_num);
            drop(conns);
            let Some(conn_idx) = route else {
                // A reply from a QP no connection claims (e.g. torn down
                // by fault injection): count it and drop.
                inner.stats.borrow_mut().bad_messages += 1;
                continue;
            };
            self.handle_reply(conn_idx, completion.wr_id);
        }
        self.drain_send_cq();
        inner.recv_cq.req_notify(true);
    }

    fn handle_reply(&self, conn_idx: usize, buf_idx: u64) {
        let inner = &self.inner;
        let decoded = inner.conns.borrow()[conn_idx]
            .channel
            .take(buf_idx, ServerMessage::decode_slice);
        let Ok(message) = decoded else {
            // Signature validation failed (paper §4.1): drop the
            // corrupt message; the requester's timeout recovers.
            inner.stats.borrow_mut().bad_messages += 1;
            return;
        };
        inner.stats.borrow_mut().messages += 1;
        inner.ctr_messages.inc();
        let reply = match message {
            ServerMessage::Reply(reply) => reply,
            ServerMessage::Revoke(notice) => {
                self.on_revoke(conn_idx, notice);
                return;
            }
        };
        // A reply is stale unless its request is `Posted` to this server:
        // it timed out and was re-routed or failed, or a failover reissue
        // awaits the buddy's answer. The timeout path restored the credit.
        // A fresh reply stamped with a generation other than the one
        // learned at connect time means the server restarted, losing every
        // page, inside this request's window (server epochs, DESIGN.md
        // §13). Adopt the new generation, so detection fires once.
        let req_id = reply.req_id();
        let posted_here =
            |p: &Phys| p.server_idx == conn_idx && matches!(p.state, State::Posted { .. });
        let (answered, wiped) = {
            let mut requests = inner.requests.borrow_mut();
            let Entry::Occupied(row) = requests.entry(req_id) else {
                return;
            };
            if !posted_here(row.get()) {
                return;
            }
            let expected = inner.conns.borrow()[conn_idx]
                .generation
                .replace(reply.generation());
            let wiped = expected != reply.generation();
            let lost = wiped || reply.status() == ReplyStatus::TransferError;
            ((!lost).then(|| row.remove()), wiped)
        };
        let Some(mut phys) = answered else {
            if !wiped {
                // The server's RDMA to or from our span failed on the wire:
                // a lost attempt, recovered like a timed-out one.
                return self.retire(req_id);
            }
            self.note(&mut self.request(req_id), Event::EpochWipe);
            // Every request posted to this conn is as doomed: its reply
            // would now pass the check and could hand back stale-empty
            // pages. Retire them all, this one included, in req-id order,
            // with the retry budget spent: the server is dead-marked and
            // the mirror serves the data, as if a timer had noticed.
            let doomed: Vec<u64> = inner
                .requests
                .borrow()
                .iter()
                .filter_map(|(&id, p)| posted_here(p).then_some(id))
                .collect();
            for req_id in doomed {
                self.request(req_id).attempts = inner.config.max_retries;
                self.retire(req_id);
            }
            return;
        };
        self.note(&mut phys, Event::ReplyReceived);
        // Receiver-thread CPU cost per reply.
        let proc = SimDuration::from_nanos(REPLY_PROC_NS);
        let (_, t_proc) = inner.ibnode.node().cpu().reserve(inner.engine.now(), proc);

        // Credit returns; queued requests for this server may now go.
        {
            let conns = inner.conns.borrow();
            let conn = &conns[conn_idx];
            conn.credits.set(conn.credits.get() + 1);
            let next = conn.queued.borrow_mut().pop_front();
            if let Some(next) = next {
                conn.credits.set(conn.credits.get() - 1);
                self.post_request(conn, &mut self.request(next));
            }
        }

        let len = phys.len();
        match (reply.status(), phys.op) {
            (ReplyStatus::Ok, PageOp::Write) => {
                debug_assert_eq!(reply.version(), phys.reply_version());
                inner.stats.borrow_mut().bytes_out += len;
            }
            (ReplyStatus::Ok, PageOp::Read) => {
                // Swap-in data was RDMA-WRITTEN into the staging span, as
                // the pages of the server's store as it stood at the grant:
                // this scatter is the page's one host copy. Scatter each
                // carried part out of it at its running offset, now: the bio
                // buffers are unobservable until the parts finish, and what
                // the copy costs is charged below. (On the fly the MR *is*
                // the page memory: no copy charge.)
                inner.stats.borrow_mut().bytes_in += len;
                let (region, start) = self.staging_span(&phys);
                let mut at = start as usize;
                for seg in phys.segs.iter() {
                    let parent = seg.parent.req.borrow();
                    #[expect(
                        clippy::expect_used,
                        reason = "the Parent holds its request until the last part finishes; this part has not finished"
                    )]
                    let parent = parent.as_ref().expect("parent alive");
                    region.read_chunks(at, seg.len as usize, |pos, piece| {
                        parent.scatter_range(seg.parent_off + pos as u64, piece)
                    });
                    at += seg.len as usize;
                }
                let t_data = match &phys.staging {
                    Some(Staging::Ephemeral(_)) => t_proc,
                    _ => {
                        let copy = inner.ibnode.memory_model().memcpy_time(len);
                        let (_, t_copy) = inner.ibnode.node().cpu().reserve(t_proc, copy);
                        inner.engine.span(
                            "hpbd",
                            "unstage_copy",
                            t_proc.as_nanos(),
                            t_copy.as_nanos(),
                            &[("req", phys.req_id), ("bytes", len)],
                        );
                        t_copy
                    }
                };
                let this = self.clone();
                inner.engine.schedule_at(t_data, move || {
                    this.release_staging(&phys);
                    phys.finish_parts(&this.inner.engine);
                });
                return;
            }
            (ReplyStatus::StaleWrite, _) => {
                // The server fenced this write: a newer version already covers
                // every page it touched. From the block layer's point of view
                // that is success — the superseding write is the state the
                // device must converge to, and applying this one could only
                // have undone it. Typical sources: a timed-out write whose
                // original delivery landed late, or a failover reissue racing
                // its own mirror copy.
                debug_assert_eq!(phys.op, PageOp::Write);
                debug_assert_eq!(reply.version(), phys.reply_version());
                self.note(&mut phys, Event::StaleDrop);
            }
            (ReplyStatus::TransferError, _) => unreachable!("a failed transfer is retired above"),
            (ReplyStatus::OutOfRange, _) => {
                phys.set_error(IoError::DeviceError("hpbd server error"));
            }
        }
        self.complete_at(phys, t_proc);
    }

    /// Return staging resources: pool spans back to the allocator (waking
    /// its wait queue), ephemeral MRs deregistered with the cost charged.
    fn release_staging(&self, phys: &Phys) {
        let inner = &self.inner;
        match &phys.staging {
            Some(Staging::Pool(buf)) => inner.pool.free(*buf),
            Some(Staging::Ephemeral(mr)) => {
                let model = inner.ibnode.memory_model();
                let dereg = model.calibration().deregistration_time(phys.len());
                inner.ibnode.node().cpu().reserve(inner.engine.now(), dereg);
                inner.ibnode.hca().deregister(mr);
            }
            None => unreachable!("request {} released before its pool grant", phys.req_id),
        }
    }

    // -- hot-path batching (RDMAbox-style request merging) --------------------

    /// Park a part in its target server's merge accumulator and arm the
    /// window flush. Window 0 flushes at the same virtual instant, after
    /// every already-queued event — so a same-tick burst coalesces without
    /// delaying an isolated demand fault.
    fn batch_part(&self, server_idx: usize, part: PendingPart) {
        let inner = &self.inner;
        let conns = inner.conns.borrow();
        let conn = &conns[server_idx];
        conn.batch.borrow_mut().push(part);
        if !conn.batch_armed.replace(true) {
            let this = self.clone();
            let window = SimDuration::from_nanos(inner.config.merge_window_ns);
            inner
                .engine
                .schedule_in(window, move || this.flush_batch(server_idx));
        }
    }

    /// Close a server's merge window: sort the parked parts, greedily merge
    /// non-overlapping extents, and issue each group as one physical
    /// request (scatter-gather: each segment keeps its own store offset). The
    /// whole flush posts through the doorbell spool, so every request that
    /// reaches the wire synchronously (reads with pool space) rides one
    /// chained doorbell per server.
    fn flush_batch(&self, server_idx: usize) {
        let inner = &self.inner;
        let mut parts = {
            let conns = inner.conns.borrow();
            let conn = &conns[server_idx];
            conn.batch_armed.set(false);
            let taken = std::mem::take(&mut *conn.batch.borrow_mut());
            taken
        };
        if parts.is_empty() {
            return;
        }
        // Stable sort: equal keys keep submission order, so duplicate
        // same-page writes stay in fence order (they overlap and therefore
        // never share a group).
        parts.sort_by_key(|p| (p.op == PageOp::Write, p.is_mirror, p.seg.server_offset));
        // A merged span must fit the client pool and the server staging
        // pool with room to spare, or merging would manufacture pool
        // stalls that separate requests never hit.
        let cap = (SERVER_STAGING_SIZE.min(inner.config.pool_size) / 2).max(4096);
        let keys: Vec<(bool, bool, u64, u64)> = parts
            .iter()
            .map(|p| {
                (
                    p.op == PageOp::Write,
                    p.is_mirror,
                    p.seg.server_offset,
                    p.seg.len,
                )
            })
            .collect();
        let ends = plan_merge(&keys, cap, MAX_MERGE_SEGMENTS);
        *inner.spool.borrow_mut() = Some(Vec::new());
        let mut rest = parts;
        let mut prev = 0;
        for end in ends {
            let tail = rest.split_off(end - prev);
            let group = std::mem::replace(&mut rest, tail);
            prev = end;
            let (op, is_mirror) = (group[0].op, group[0].is_mirror);
            let segs = group.into_iter().map(|p| p.seg).collect();
            self.issue(server_idx, op, is_mirror, segs);
        }
        self.drain_spool();
    }

    /// Post the spooled WRs, one chained doorbell per run of same-server
    /// entries. A rejected chain is all-or-nothing: every WR in it already
    /// belongs to a `Posted` request with its timer armed, so each one
    /// routes through the ordinary send-failure recovery.
    fn drain_spool(&self) {
        let entries = self.inner.spool.borrow_mut().take().unwrap_or_default();
        let conns = self.inner.conns.borrow();
        let mut iter = entries.into_iter().peekable();
        while let Some((conn_idx, wr)) = iter.next() {
            let mut chain = vec![wr];
            while let Some((_, wr)) = iter.next_if(|(idx, _)| *idx == conn_idx) {
                chain.push(wr);
            }
            let wr_ids = chain.iter().map(|wr| wr.wr_id).collect();
            if conns[conn_idx].channel.qp.post_send_many(chain).is_err() {
                self.fail_sends_later(wr_ids);
            }
        }
    }

    /// The send queue rejected these requests: treat them like lost sends.
    /// The recovery runs from the event loop, once each request is
    /// `Posted` with its timer armed, and enters the same timeout/retry
    /// path as a wire-level send failure.
    fn fail_sends_later(&self, req_ids: Vec<u64>) {
        let this = self.clone();
        self.inner
            .engine
            .schedule_in(SimDuration::from_nanos(0), move || {
                for req_id in req_ids {
                    this.retire(req_id);
                }
            });
    }
}

/// Greedy merge planner over a batch-sorted part list. `keys` holds
/// `(is_write, is_mirror, server_offset, len)` per part, already sorted by
/// exactly that tuple; returns the exclusive end index of each merged
/// group. Parts merge while they share the operation and mirror-ness, do
/// not overlap in server space (gaps are fine — the wire format carries a
/// store offset per segment), and keep the group within `cap_bytes` and
/// `max_segs`. Overlapping parts never merge: two versions of the same
/// page must stay separate messages so the server's write fence sees them
/// in order. The first part of a group is always accepted, so an oversized
/// single part still travels (unmerged).
fn plan_merge(keys: &[(bool, bool, u64, u64)], cap_bytes: u64, max_segs: usize) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut i = 0;
    while i < keys.len() {
        let (op, mirror, _, len0) = keys[i];
        let mut total = len0;
        let mut j = i + 1;
        while j < keys.len() && j - i < max_segs {
            let (op2, mirror2, off2, len2) = keys[j];
            let (_, _, prev_off, prev_len) = keys[j - 1];
            if op2 != op
                || mirror2 != mirror
                || off2 < prev_off + prev_len
                || total + len2 > cap_bytes
            {
                break;
            }
            total += len2;
            j += 1;
        }
        ends.push(j);
        i = j;
    }
    ends
}

impl HpbdClient {
    // -- dynamic memory (the paper's future work) -----------------------------

    /// A server is reclaiming memory: move every chunk mapped into the
    /// revoked range to spare capacity elsewhere, deferring application
    /// I/O to those chunks until their bytes have moved. A chunk already
    /// moving is left to its move, so a repeated or widened notice starts
    /// each chunk's move once.
    fn on_revoke(&self, server_idx: usize, notice: RevokeNotice) {
        self.inner.stats.borrow_mut().revocations += 1;
        self.inner.engine.metrics().inc("hpbd.revocations");
        self.inner.engine.instant(
            "hpbd",
            "revoke",
            &[
                ("server", server_idx as u64),
                ("offset", notice.offset()),
                ("len", notice.len()),
            ],
        );
        let (lo, hi) = (notice.offset(), notice.offset() + notice.len());
        let victims: Vec<usize> = (0..)
            .zip(&mut self.inner.placement.borrow_mut().chunks)
            .filter(|(_, c)| {
                c.moving.is_none()
                    && c.server == server_idx
                    && c.server_offset < hi
                    && lo < c.server_offset + c.len
            })
            .map(|(i, c)| {
                c.moving = Some(0);
                i
            })
            .collect();
        for idx in victims {
            self.migrate_when_quiesced(idx);
        }
    }

    /// Wait for in-flight traffic to the chunk to drain, then migrate.
    fn migrate_when_quiesced(&self, chunk_idx: usize) {
        let c = self.inner.placement.borrow().chunks[chunk_idx];
        let (server, lo, hi) = (c.server, c.server_offset, c.server_offset + c.len);
        // A part is live from `issue` until its reply or failure takes it
        // out of the table: waiting for pool space, inside its staging
        // copy, at the credit water-mark or on the wire, it reaches the old
        // location after a migration read issued now. So does a part parked
        // in the merge accumulator, once its window closes.
        let busy = {
            let requests = self.inner.requests.borrow();
            let conns = self.inner.conns.borrow();
            let batch = conns[server].batch.borrow();
            let mut live = requests
                .values()
                .filter(|p| p.server_idx == server)
                .flat_map(|p| p.segs.iter())
                .chain(batch.iter().map(|p| &p.seg));
            live.any(|s| s.server_offset < hi && lo < s.server_offset + s.len)
        };
        if busy {
            let this = self.clone();
            self.inner
                .engine
                .schedule_in(SimDuration::from_micros(100), move || {
                    this.migrate_when_quiesced(chunk_idx)
                });
            return;
        }
        self.migrate_chunk(chunk_idx);
    }

    /// One round of a move: read the chunk from its home, write it to a
    /// spare on another live server, and repoint the map once the write
    /// is acknowledged, so the map always names where the bytes are.
    fn migrate_chunk(&self, chunk_idx: usize) {
        let home = self.inner.placement.borrow().chunks[chunk_idx];
        // Pick a spare on any *other* live server (round-robin by fill).
        let spare = {
            let conns = self.inner.conns.borrow();
            let spares = &mut self.inner.placement.borrow_mut().spares;
            (0..spares.len())
                .filter(|&s| s != home.server && !conns[s].dead.get())
                .find_map(|s| Some((s, spares[s].pop()?)))
        };
        let Some(spare) = spare else {
            return self.end_move(chunk_idx, None);
        };
        let buf = new_buffer(home.len as usize);
        let this = self.clone();
        let read = Bio::new(IoOp::Read, home.device_base, buf.clone(), move |result| {
            if result.is_err() {
                return this.retry_migration(chunk_idx, spare);
            }
            let that = this.clone();
            let write = Bio::new(IoOp::Write, home.device_base, buf, move |r| match r {
                Ok(()) => that.end_move(chunk_idx, Some(spare)),
                Err(_) => that.retry_migration(chunk_idx, spare),
            });
            let at_spare = vec![(spare.0, spare.1, 0, home.len)];
            this.send(IoRequest::single(write), at_spare);
        });
        let at_home = vec![(home.server, home.server_offset, 0, home.len)];
        self.send(IoRequest::single(read), at_home);
    }

    /// A round of the chunk's move failed (typically a server died
    /// mid-move): return its spare and start another round after a short
    /// delay. The chunk stays moving meanwhile, so application I/O defers
    /// instead of racing a half-moved chunk. Once the retries are spent,
    /// the move ends with the chunk at its old home.
    fn retry_migration(&self, chunk_idx: usize, (server, offset): (usize, u64)) {
        const MAX_MIGRATION_ATTEMPTS: u32 = 10;
        let failed = {
            let mut placement = self.inner.placement.borrow_mut();
            placement.spares[server].push(offset);
            let failed = placement.chunks[chunk_idx].moving.get_or_insert(0);
            *failed += 1;
            *failed
        };
        if failed > MAX_MIGRATION_ATTEMPTS {
            return self.end_move(chunk_idx, None);
        }
        self.inner.stats.borrow_mut().migration_retries += 1;
        self.inner.engine.metrics().inc("hpbd.migration_retries");
        self.inner.engine.instant(
            "hpbd",
            "migration_retry",
            &[("chunk", chunk_idx as u64), ("attempt", failed as u64)],
        );
        let this = self.clone();
        self.inner
            .engine
            .schedule_in(SimDuration::from_micros(200), move || {
                this.migrate_when_quiesced(chunk_idx)
            });
    }

    /// The chunk's move is over: its bytes now live at `moved_to`, or with
    /// `None` it stays at its old home, because no live server has a spare
    /// or every round failed (the reclaim is advisory until a move
    /// completes; a home no server can reach fails its I/O typed). Either
    /// way the I/O it held back is released.
    fn end_move(&self, chunk_idx: usize, moved_to: Option<(usize, u64)>) {
        let inner = &self.inner;
        let failed = {
            let chunk = &mut inner.placement.borrow_mut().chunks[chunk_idx];
            if let Some(home) = moved_to {
                (chunk.server, chunk.server_offset) = home;
            }
            chunk.moving.take().unwrap_or(0)
        };
        let (name, key, val) = match moved_to {
            Some((server, _)) => {
                inner.stats.borrow_mut().migrations += 1;
                inner.engine.metrics().inc("hpbd.migrations");
                ("migration_done", "server", server as u64)
            }
            None => ("migration_abandoned", "failed", failed as u64),
        };
        let args = [("chunk", chunk_idx as u64), (key, val)];
        inner.engine.instant("hpbd", name, &args);
        self.release_deferred();
    }

    /// Send the deferred requests that no longer touch a moving chunk; the
    /// rest stay queued, in order.
    fn release_deferred(&self) {
        let held = std::mem::take(&mut *self.inner.deferred.borrow_mut());
        for req in held {
            let parts = self.inner.placement.borrow().split(req.offset(), req.len());
            match parts {
                Some(parts) => self.send(req, parts),
                None => self.inner.deferred.borrow_mut().push(req),
            }
        }
    }

    /// Stage and send the physical parts of one block request. `version`
    /// is the write-fencing stamp shared by every part (0 for reads).
    fn issue_parts(
        &self,
        req: IoRequest,
        op: PageOp,
        version: u64,
        parts: Vec<(usize, u64, u64, u64)>,
    ) {
        let inner = &self.inner;
        // Mirrored writes double the physical parts: every primary part
        // has a replica (see `replica`).
        let mirror = inner.config.mirror_writes && op == PageOp::Write;
        let count = if mirror { 2 * parts.len() } else { parts.len() };
        let parent = Rc::new(Parent {
            started: inner.engine.now(),
            parts: count,
            ctx: req.lifecycle().cloned(),
            req: RefCell::new(Some(req)),
            remaining: Cell::new(count),
            error: Cell::new(None),
            latency_hist: match op {
                PageOp::Read => inner.hist_swap_in.clone(),
                PageOp::Write => inner.hist_swap_out.clone(),
            },
        });
        for (server_idx, server_offset, parent_off, len) in parts {
            let primary = (server_idx, false, server_offset);
            // Note: both copies are staged independently; a real
            // implementation would share one staged buffer.
            let mirror_replica = mirror
                .then(|| self.replica(server_idx, server_offset))
                .flatten()
                .map(|(buddy, offset)| (buddy, true, offset));
            for (target, is_mirror, server_offset) in std::iter::once(primary).chain(mirror_replica)
            {
                let parent = parent.clone();
                // Part created: from here until it posts (pool wait, credit
                // stall) its time is Queue.
                let part = match &parent.ctx {
                    Some(ctx) => {
                        let p = ctx.alloc_part();
                        ctx.mark(p, 0, MarkKind::Queued, inner.engine.now().as_nanos());
                        p
                    }
                    None => 0,
                };
                let seg = Segment {
                    parent,
                    parent_off,
                    server_offset,
                    len,
                    version,
                    part,
                };
                // Batching parks the part in the per-server accumulator;
                // the merge-window flush issues whole (possibly merged)
                // groups. Only the pool path batches: on-the-fly
                // registration has no contiguous staging span to merge
                // into.
                if inner.config.batching && inner.config.staging == StagingMode::CopyToPool {
                    self.batch_part(target, PendingPart { op, is_mirror, seg });
                } else {
                    self.issue(target, op, is_mirror, Segs::One(seg));
                }
            }
        }
    }

    /// Send one request as `parts`, placed by the caller: from the
    /// placement map for the block layer, at an explicit location for a
    /// migration leg. Stamps the write's fence version and cuts the parts
    /// to the staging size.
    fn send(&self, req: IoRequest, parts: Vec<(usize, u64, u64, u64)>) {
        let inner = &self.inner;
        let engine = &inner.engine;
        inner.stats.borrow_mut().requests += 1;
        inner.ctr_requests.inc();
        let op = match req.op() {
            IoOp::Write => PageOp::Write,
            IoOp::Read => PageOp::Read,
        };
        // Stamp every write with a fresh fence version at SUBMISSION time:
        // the block layer serialises same-page writes (a page is rewritten
        // only after its previous write completed), so submission order is
        // the order the fence must enforce.
        let version = match op {
            PageOp::Write => inner.next_version.replace(inner.next_version.get() + 1),
            PageOp::Read => 0,
        };
        // Every part must fit the server's staging pool, and the client's
        // pool too when it stages through it: cut larger parts to fit.
        let cap = match inner.config.staging {
            StagingMode::CopyToPool => SERVER_STAGING_SIZE.min(inner.config.pool_size),
            StagingMode::RegisterOnFly => SERVER_STAGING_SIZE,
        };
        let parts: Vec<_> = parts
            .into_iter()
            .flat_map(|(server, server_off, parent_off, len)| {
                (0..len)
                    .step_by(cap as usize)
                    .map(move |at| (server, server_off + at, parent_off + at, cap.min(len - at)))
            })
            .collect();
        if parts.len() > 1 {
            inner.stats.borrow_mut().split_requests += 1;
            engine.metrics().inc("hpbd.split_requests");
            engine.instant(
                "hpbd",
                "request_split",
                &[("parts", parts.len() as u64), ("bytes", req.len())],
            );
        }
        self.issue_parts(req, op, version, parts);
    }
}

impl BlockDevice for HpbdClient {
    fn capacity(&self) -> u64 {
        self.inner.placement.borrow().extents.iter().sum()
    }

    fn name(&self) -> &str {
        &self.inner.name
    }

    /// The block-layer entry: a request to a moving chunk defers until the
    /// move ends; any other goes where the placement map says.
    fn submit(&self, req: IoRequest) {
        let inner = &self.inner;
        let engine = &inner.engine;
        if inner.shut_down.get() {
            engine.schedule_at(engine.now(), move || {
                req.complete(Err(IoError::Fault(FaultKind::ServerDead)))
            });
            return;
        }
        if req.offset() + req.len() > self.capacity() {
            engine.schedule_at(engine.now(), move || req.complete(Err(IoError::OutOfRange)));
            return;
        }
        let parts = inner.placement.borrow().split(req.offset(), req.len());
        match parts {
            Some(parts) => self.send(req, parts),
            None => {
                inner.stats.borrow_mut().deferred_requests += 1;
                inner.deferred.borrow_mut().push(req);
            }
        }
    }

    fn shutdown(&self) {
        self.inner.shut_down.set(true);
    }

    fn health(&self) -> DeviceHealth {
        if self.inner.shut_down.get() {
            return DeviceHealth::Failed;
        }
        let conns = self.inner.conns.borrow();
        let failed = conns.iter().filter(|c| c.dead.get()).count();
        if failed == 0 {
            DeviceHealth::Healthy
        } else if failed == conns.len() {
            DeviceHealth::Failed
        } else {
            DeviceHealth::Degraded {
                failed_servers: failed,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::plan_merge;

    const PAGE: u64 = 4096;

    /// Build keys for reads at the given page-granular offsets.
    fn read_pages(pages: &[u64]) -> Vec<(bool, bool, u64, u64)> {
        pages
            .iter()
            .map(|p| (false, false, p * PAGE, PAGE))
            .collect()
    }

    #[test]
    fn adjacent_parts_form_one_group() {
        let keys = read_pages(&[0, 1, 2, 3]);
        assert_eq!(plan_merge(&keys, u64::MAX, 32), vec![4]);
    }

    #[test]
    fn gaps_merge_within_group() {
        // Scatter-gather wire format: a hole in server space does not
        // split the group — each segment carries its own store offset.
        let keys = read_pages(&[0, 1, 3, 4]);
        assert_eq!(plan_merge(&keys, u64::MAX, 32), vec![4]);
    }

    #[test]
    fn op_boundary_splits_groups() {
        // Sorted order puts reads (false) before writes (true); the op
        // flip must break the group even though offsets stay adjacent.
        let keys = vec![
            (false, false, 0, PAGE),
            (false, false, PAGE, PAGE),
            (true, false, 2 * PAGE, PAGE),
            (true, false, 3 * PAGE, PAGE),
        ];
        assert_eq!(plan_merge(&keys, u64::MAX, 32), vec![2, 4]);
    }

    #[test]
    fn mirror_boundary_splits_groups() {
        let keys = vec![(true, false, 0, PAGE), (true, true, PAGE, PAGE)];
        assert_eq!(plan_merge(&keys, u64::MAX, 32), vec![1, 2]);
    }

    #[test]
    fn max_segments_bounds_group_size() {
        let keys = read_pages(&[0, 1, 2, 3, 4]);
        assert_eq!(plan_merge(&keys, u64::MAX, 2), vec![2, 4, 5]);
    }

    #[test]
    fn byte_cap_bounds_group_size() {
        let keys = read_pages(&[0, 1, 2]);
        // Two pages fit, the third would exceed the cap.
        assert_eq!(plan_merge(&keys, 2 * PAGE, 32), vec![2, 3]);
    }

    #[test]
    fn oversized_first_part_still_travels_alone() {
        // A single part larger than the cap must not be dropped: the cap
        // only bounds *merging*.
        let keys = vec![
            (false, false, 0, 10 * PAGE),
            (false, false, 10 * PAGE, PAGE),
        ];
        assert_eq!(plan_merge(&keys, PAGE, 32), vec![1, 2]);
    }

    #[test]
    fn duplicate_offsets_never_merge() {
        // Two writes to the same page overlap, so they stay separate
        // messages and fence ordering between them survives batching.
        let keys = vec![(true, false, 0, PAGE), (true, false, 0, PAGE)];
        assert_eq!(plan_merge(&keys, u64::MAX, 32), vec![1, 2]);
    }

    #[test]
    fn overlapping_retry_never_merges() {
        // An overlapping (but not identical) pair — e.g. a wide write and a
        // narrower retry inside it — must also stay separate.
        let keys = vec![(true, false, 0, 2 * PAGE), (true, false, PAGE, PAGE)];
        assert_eq!(plan_merge(&keys, u64::MAX, 32), vec![1, 2]);
    }

    #[test]
    fn groups_tile_the_input() {
        let keys = vec![
            (false, false, 0, PAGE),
            (false, false, PAGE, PAGE),
            (true, false, 5 * PAGE, PAGE),
            (true, false, 20 * PAGE, PAGE),
            (true, true, 21 * PAGE, PAGE),
        ];
        let ends = plan_merge(&keys, u64::MAX, 32);
        assert_eq!(*ends.last().unwrap() as usize, keys.len());
        assert!(ends.windows(2).all(|w| w[0] < w[1]));
    }

    /// A request queued at a server's credit water-mark when that server is
    /// written off fails over to its buddy, and waits again if the buddy is
    /// at its own water-mark: the (`CreditWait`, `CreditStall`) move, which
    /// the fault enumeration's 2 credits and 3 requests never reach.
    #[test]
    fn a_request_stranded_at_a_dead_servers_water_mark_waits_again_at_its_buddy() {
        use super::{HpbdClient, State};
        use crate::cluster::ClusterBuilder;
        use crate::config::HpbdConfig;
        use blockdev::{new_buffer, Bio, BlockDevice, IoOp, IoRequest};
        use netmodel::Calibration;
        use simcore::Engine;
        use std::rc::Rc;

        let engine = Engine::new();
        let cluster = ClusterBuilder::new()
            .servers(2)
            .per_server_capacity(1 << 20)
            .config(HpbdConfig {
                mirror_writes: true,
                credits: 1,
                request_timeout_ns: Some(1_000_000),
                max_retries: 0,
                ..HpbdConfig::default()
            })
            .build(&engine, Rc::new(Calibration::cluster_2005()));
        let dev: &HpbdClient = &cluster.client;
        let write = |offset: u64| {
            let buf = new_buffer(PAGE as usize);
            let bio = Bio::new(IoOp::Write, offset, buf, |r| r.unwrap());
            dev.submit(IoRequest::single(bio));
        };
        cluster.servers[0].crash();
        // Server 1's own pages hold its one credit past the timeout.
        for page in 0..64 {
            write((1 << 20) + page * PAGE);
        }
        // Two writes to server 0: one holds its credit, one waits for it.
        write(0);
        write(PAGE);
        engine.run_until(simcore::SimTime(500_000));
        let waits_at = |req_id: u64| {
            let requests = dev.inner.requests.borrow();
            let p = &requests[&req_id];
            matches!(p.state, State::CreditWait).then_some(p.server_idx)
        };
        let req_id = {
            let requests = dev.inner.requests.borrow();
            let mut primaries = requests.values().filter(|p| !p.is_mirror);
            let second = primaries.find(|p| p.segs[0].server_offset == PAGE);
            second.expect("the second write is in the table").req_id
        };
        assert_eq!(waits_at(req_id), Some(0), "it waits at server 0");
        while !dev.inner.conns.borrow()[0].dead.get() {
            assert!(engine.step_one(), "server 0 is never written off");
        }
        assert_eq!(waits_at(req_id), Some(1), "it waits again at server 1");
        engine.run_until_idle();
        assert_eq!(dev.stats().failovers, 2, "both writes to server 0 moved");
    }
}
