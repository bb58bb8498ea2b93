//! Causal request-lifecycle tracing: per-request phase attribution and a
//! bounded flight recorder.
//!
//! Flat spans (the [`Tracer`](crate::Tracer)) answer "how long did
//! operation X take in aggregate"; they cannot answer "where did *this*
//! page fault's 48 µs go". This module adds the missing causal layer:
//!
//! * A [`RequestCtx`] is stamped on every logical swap I/O at the
//!   block-queue dispatch boundary and propagated by reference through
//!   the device stack (hpbd client split/retry/failover, ibsim QP
//!   send completions, the server's pull/apply path, the reply).
//! * Every layer appends **marks** — `(time, part, attempt, kind)`
//!   tuples — to the context's log. Marks cost one `Vec` push; nothing
//!   else happens until the request completes.
//! * At completion the mark log is **folded** into six named phase
//!   durations that *tile* the closed interval `[submit, end]`: the sum
//!   of the phases equals the end-to-end latency exactly, in integer
//!   virtual nanoseconds, by construction — including requests that
//!   retried or failed over.
//! * Completed records land in a per-device [`DeviceFlight`]: a
//!   bounded ring of recent records with query helpers (`by_request`,
//!   `slowest`, `phase_percentile`) and a deterministic JSON dump,
//!   written automatically on the first fault/timeout when a dump
//!   directory is configured.
//!
//! ## Phase taxonomy and the fold
//!
//! A logical request splits into *parts* (extent/stripe splits, mirror
//! legs); each part advances through per-part states as marks arrive.
//! Between two consecutive marks the request as a whole is assigned
//! exactly one phase: the highest-precedence phase among the live
//! parts' states (`RetryOverhead > RdmaPull > ServerService > Wire >
//! Completion > Queue`), or `Queue` when no part is live. An attempt
//! that later times out is *relabelled* wholesale to `RetryOverhead` at
//! fold time — relabelling moves time between buckets but never changes
//! the total, so the tiling invariant survives every recovery path.
//!
//! Times are plain `u64` virtual nanoseconds (this crate sits below
//! `simcore`). Everything is deterministic: same seed, same marks, same
//! fold, byte-identical dumps.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::PathBuf;
use std::rc::Rc;

/// Number of attribution phases.
pub const NUM_PHASES: usize = 6;

/// Default flight-recorder ring capacity (records per device).
pub const DEFAULT_RING_CAP: usize = 512;

/// One of the six named phases a request's lifetime decomposes into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Phase {
    /// Waiting in a queue: block-layer dispatch, credit stalls, pool
    /// waits, the NBD one-at-a-time queue — and any interval with no
    /// live part (the default phase).
    Queue = 0,
    /// A request or reply message is on the wire (posted, not yet
    /// received by the peer).
    Wire = 1,
    /// The server is parsing, fencing, staging or applying the request
    /// (CPU + staging memcpy, both sides of the RDMA transfer).
    ServerService = 2,
    /// A server-initiated RDMA READ/WRITE is moving the page data.
    RdmaPull = 3,
    /// The client is processing the reply (unstage memcpy, scatter,
    /// completion bookkeeping).
    Completion = 4,
    /// Time burned by recovery: a timed-out attempt's whole lifetime
    /// plus the backoff gap until its retry or failover is re-queued.
    RetryOverhead = 5,
}

impl Phase {
    /// Every phase, in index order (pairs with [`Phase::NAMES`]).
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Queue,
        Phase::Wire,
        Phase::ServerService,
        Phase::RdmaPull,
        Phase::Completion,
        Phase::RetryOverhead,
    ];

    /// Stable lower-case names, in index order (used by dumps/tables).
    pub const NAMES: [&'static str; NUM_PHASES] = [
        "queue",
        "wire",
        "server_service",
        "rdma_pull",
        "completion",
        "retry_overhead",
    ];

    /// Precedence when several parts are concurrently live: the segment
    /// is charged to the highest-precedence phase. Recovery dominates
    /// (it is the cost being accounted), then the data path inner-to-
    /// outer, with `Queue` always losing.
    fn precedence(self) -> u8 {
        match self {
            Phase::Queue => 0,
            Phase::Completion => 1,
            Phase::Wire => 2,
            Phase::ServerService => 3,
            Phase::RdmaPull => 4,
            Phase::RetryOverhead => 5,
        }
    }
}

/// What a lifecycle mark records. Each kind drives the owning part's
/// state machine; `WireTx` is informational (the HCA finished the send;
/// the message is still in flight until the peer receives it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MarkKind {
    /// Part created / re-queued (retry or failover re-entry).
    Queued,
    /// Request message posted to the QP / socket.
    Posted,
    /// HCA send completion (informational; no state change).
    WireTx,
    /// Server received and started servicing the request.
    ServerReceived,
    /// Server posted the RDMA READ/WRITE for the page data.
    RdmaPosted,
    /// The RDMA transfer completed; the server is applying/replying.
    RdmaDone,
    /// Server posted the reply message.
    ReplyPosted,
    /// Client received the reply and is finishing the part.
    ReplyReceived,
    /// Part finished (success, clean failure, or mirror drop).
    Done,
    /// The attempt timed out: the attempt is relabelled
    /// `RetryOverhead` retroactively at fold time.
    TimedOut,
}

/// Per-part live state between marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PartState {
    Queued,
    Wire,
    Server,
    Rdma,
    ReplyWire,
    Completion,
    RetryPending,
    Done,
}

impl PartState {
    fn phase(self) -> Phase {
        match self {
            PartState::Queued => Phase::Queue,
            PartState::Wire | PartState::ReplyWire => Phase::Wire,
            PartState::Server => Phase::ServerService,
            PartState::Rdma => Phase::RdmaPull,
            PartState::Completion => Phase::Completion,
            PartState::RetryPending => Phase::RetryOverhead,
            // Done parts never contribute; callers filter them out.
            PartState::Done => Phase::Queue,
        }
    }
}

/// One mark in a request's log.
#[derive(Clone, Copy, Debug)]
struct Mark {
    ts_ns: u64,
    part: u16,
    attempt: u16,
    kind: MarkKind,
}

/// Fold a mark log into per-phase durations tiling `[submit, end]`.
///
/// The marks must be in append (execution) order; timestamps are
/// clamped into the interval and monotonized, so the tiling — and with
/// it `sum(phases) == end - submit` — holds unconditionally.
fn fold(marks: &[Mark], submit_ns: u64, end_ns: u64) -> [u64; NUM_PHASES] {
    // Attempts that timed out are relabelled wholesale.
    let doomed: BTreeSet<(u16, u16)> = marks
        .iter()
        .filter(|m| m.kind == MarkKind::TimedOut)
        .map(|m| (m.part, m.attempt))
        .collect();
    let mut states: BTreeMap<u16, (u16, PartState)> = BTreeMap::new();
    let current = |states: &BTreeMap<u16, (u16, PartState)>| -> Phase {
        let mut best = Phase::Queue;
        for (&part, &(attempt, state)) in states {
            if state == PartState::Done {
                continue;
            }
            let phase = if doomed.contains(&(part, attempt)) {
                Phase::RetryOverhead
            } else {
                state.phase()
            };
            if phase.precedence() > best.precedence() {
                best = phase;
            }
        }
        best
    };
    let mut phases = [0u64; NUM_PHASES];
    let mut prev = submit_ns;
    for m in marks {
        let ts = m.ts_ns.clamp(prev, end_ns);
        if ts > prev {
            phases[current(&states) as usize] += ts - prev;
            prev = ts;
        }
        let next = match m.kind {
            MarkKind::Queued => Some(PartState::Queued),
            MarkKind::Posted => Some(PartState::Wire),
            MarkKind::WireTx => None,
            MarkKind::ServerReceived => Some(PartState::Server),
            MarkKind::RdmaPosted => Some(PartState::Rdma),
            MarkKind::RdmaDone => Some(PartState::Server),
            MarkKind::ReplyPosted => Some(PartState::ReplyWire),
            MarkKind::ReplyReceived => Some(PartState::Completion),
            MarkKind::Done => Some(PartState::Done),
            MarkKind::TimedOut => Some(PartState::RetryPending),
        };
        if let Some(state) = next {
            states.insert(m.part, (m.attempt, state));
        }
    }
    if end_ns > prev {
        phases[current(&states) as usize] += end_ns - prev;
    }
    phases
}

/// One completed request, as stored in the flight recorder. Plain
/// `Send` data — the parallel sweep runner ships these across threads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestRecord {
    /// Logical request id (allocation order at the dispatch boundary).
    pub req: u64,
    /// Write (swap-out) or read (swap-in).
    pub write: bool,
    /// Payload bytes.
    pub bytes: u64,
    /// Dispatch instant, virtual ns.
    pub submit_ns: u64,
    /// Completion instant, virtual ns.
    pub end_ns: u64,
    /// Per-phase durations, indexed by [`Phase`]; sums to
    /// `end_ns - submit_ns` exactly.
    pub phase_ns: [u64; NUM_PHASES],
    /// Physical parts (splits + mirror legs).
    pub parts: u16,
    /// Marks recorded over the lifetime.
    pub marks: u32,
    /// Same-server retries.
    pub retries: u32,
    /// Re-routes to a replica.
    pub failovers: u32,
    /// Completed without error.
    pub ok: bool,
}

impl RequestRecord {
    /// End-to-end latency in virtual ns.
    pub fn e2e_ns(&self) -> u64 {
        self.end_ns - self.submit_ns
    }

    /// Did recovery machinery touch this request?
    pub fn anomalous(&self) -> bool {
        !self.ok || self.retries > 0 || self.failovers > 0
    }

    fn to_json(&self) -> String {
        let phases: Vec<String> = self.phase_ns.iter().map(|p| p.to_string()).collect();
        format!(
            "{{\"req\":{},\"op\":\"{}\",\"bytes\":{},\"submit_ns\":{},\"end_ns\":{},\"phase_ns\":[{}],\"parts\":{},\"marks\":{},\"retries\":{},\"failovers\":{},\"ok\":{}}}",
            self.req,
            if self.write { "write" } else { "read" },
            self.bytes,
            self.submit_ns,
            self.end_ns,
            phases.join(","),
            self.parts,
            self.marks,
            self.retries,
            self.failovers,
            self.ok
        )
    }
}

/// One device's flight recorder: a bounded ring of recent
/// [`RequestRecord`]s plus run-length aggregates for exact percentiles.
/// It is plain `Send` data, so a [`FlightSummary`] of clones can cross
/// the parallel sweep runner.
///
/// The ring is bounded; the per-phase sample vectors grow with the number
/// of completed requests (8 bytes per request per phase) so percentiles
/// are exact over the whole run, not just the ring window.
#[derive(Clone, Debug)]
pub struct DeviceFlight {
    /// Device label ("hpbd", "nbd", "hda", …).
    pub device: String,
    /// The most recent records, oldest first, at most `cap` of them.
    pub records: VecDeque<RequestRecord>,
    cap: usize,
    /// Per-phase duration samples over the whole run, in completion
    /// order, indexed by [`Phase`].
    pub phase_samples: [Vec<u64>; NUM_PHASES],
    /// End-to-end latency samples over the whole run, in completion order.
    pub e2e_samples: Vec<u64>,
    /// Requests completed over the run.
    pub total: u64,
    /// Requests that completed with an error.
    pub failed: u64,
    /// Total same-server retries.
    pub retries: u64,
    /// Total failovers to a replica.
    pub failovers: u64,
    /// Requests whose recorded phases did NOT sum exactly to their
    /// end-to-end latency — always 0 unless the fold has a bug. Counted
    /// over every request of the run, not just the ring window.
    pub sum_mismatches: u64,
}

impl DeviceFlight {
    /// An empty recorder for `device` holding at most `cap` recent records.
    fn new(device: &str, cap: usize) -> DeviceFlight {
        DeviceFlight {
            device: device.to_string(),
            records: VecDeque::new(),
            cap: cap.max(1),
            phase_samples: Default::default(),
            e2e_samples: Vec::new(),
            total: 0,
            failed: 0,
            retries: 0,
            failovers: 0,
            sum_mismatches: 0,
        }
    }

    /// Record a completed request.
    fn push(&mut self, record: RequestRecord) {
        self.total += 1;
        if !record.ok {
            self.failed += 1;
        }
        self.retries += record.retries as u64;
        self.failovers += record.failovers as u64;
        // The fold guarantees this by construction; counting (instead of
        // asserting) lets a dump of a live system surface a regression
        // without killing the run, and covers every request ever pushed —
        // not just the bounded ring window.
        if record.phase_ns.iter().sum::<u64>() != record.e2e_ns() {
            self.sum_mismatches += 1;
        }
        for (samples, &p) in self.phase_samples.iter_mut().zip(&record.phase_ns) {
            samples.push(p);
        }
        self.e2e_samples.push(record.e2e_ns());
        if self.records.len() == self.cap {
            self.records.pop_front();
        }
        self.records.push_back(record);
    }

    /// The ring record for logical request `req`, if still retained.
    pub fn by_request(&self, req: u64) -> Option<&RequestRecord> {
        self.records.iter().find(|r| r.req == req)
    }

    /// The `n` slowest requests in the ring, slowest first; ties break
    /// by request id for determinism.
    pub fn slowest(&self, n: usize) -> Vec<&RequestRecord> {
        let mut all: Vec<&RequestRecord> = self.records.iter().collect();
        all.sort_by_key(|r| (std::cmp::Reverse(r.e2e_ns()), r.req));
        all.truncate(n);
        all
    }

    /// Nearest-rank percentile of one phase's duration over the run, in ns.
    pub fn phase_percentile(&self, phase: Phase, pct: f64) -> u64 {
        percentile(&self.phase_samples[phase as usize], pct)
    }

    /// Nearest-rank percentile of the end-to-end latency over the run, in ns.
    pub fn e2e_percentile(&self, pct: f64) -> u64 {
        percentile(&self.e2e_samples, pct)
    }

    /// Sum of one phase across every request, in ns.
    pub fn phase_total_ns(&self, phase: Phase) -> u64 {
        self.phase_samples[phase as usize].iter().sum()
    }

    /// Deterministic JSON dump: run aggregates plus the ring contents.
    pub fn dump_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"hpbd-flight-recorder-v1\",\n");
        s.push_str(&format!("  \"device\": \"{}\",\n", self.device));
        s.push_str(&format!(
            "  \"total\": {}, \"failed\": {}, \"retries\": {}, \"failovers\": {}, \"sum_mismatches\": {},\n",
            self.total, self.failed, self.retries, self.failovers, self.sum_mismatches
        ));
        let names: Vec<String> = Phase::NAMES.iter().map(|n| format!("\"{n}\"")).collect();
        s.push_str(&format!("  \"phases\": [{}],\n", names.join(",")));
        let p99s: Vec<String> = Phase::ALL
            .iter()
            .map(|&p| self.phase_percentile(p, 99.0).to_string())
            .collect();
        s.push_str(&format!("  \"phase_p99_ns\": [{}],\n", p99s.join(",")));
        s.push_str("  \"records\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            s.push_str("    ");
            s.push_str(&r.to_json());
            if i + 1 < self.records.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Nearest-rank percentile of samples in any order; 0 for none.
fn percentile(samples: &[u64], pct: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    crate::metrics::nearest_rank(&sorted, pct)
}

/// Whole-run lifecycle snapshot: a clone of every device's flight
/// recorder plus the fault counters stamped by vmsim.
#[derive(Clone, Debug, Default)]
pub struct FlightSummary {
    /// Per-device recorders, in device-name order.
    pub devices: Vec<DeviceFlight>,
    /// Page faults observed at the vmsim boundary.
    pub faults: u64,
    /// Major faults among them (those that went to a swap device).
    pub major_faults: u64,
}

impl FlightSummary {
    /// The snapshot for `device`, if any requests completed on it.
    pub fn device(&self, device: &str) -> Option<&DeviceFlight> {
        self.devices.iter().find(|d| d.device == device)
    }
}

/// The per-request span context: identity, the mark log, and recovery
/// counters. Created at the dispatch boundary, shared by `Rc` through
/// the device stack, folded exactly once at completion.
pub struct RequestCtx {
    req: u64,
    device: &'static str,
    write: bool,
    bytes: u64,
    submit_ns: u64,
    marks: RefCell<Vec<Mark>>,
    parts: Cell<u16>,
    retries: Cell<u32>,
    failovers: Cell<u32>,
    done: Cell<bool>,
    hub: LifecycleHub,
}

impl RequestCtx {
    /// Logical request id.
    pub fn req(&self) -> u64 {
        self.req
    }

    /// Allocate the next part index (splits, mirror legs).
    pub fn alloc_part(&self) -> u16 {
        let p = self.parts.get();
        self.parts.set(p + 1);
        p
    }

    /// Append a mark for `(part, attempt)` at `ts_ns`. Silently ignored
    /// once the request has completed (late HCA completions).
    pub fn mark(&self, part: u16, attempt: u16, kind: MarkKind, ts_ns: u64) {
        if self.done.get() {
            return;
        }
        self.marks.borrow_mut().push(Mark {
            ts_ns,
            part,
            attempt,
            kind,
        });
    }

    /// Count a same-server retry.
    pub fn note_retry(&self) {
        self.retries.set(self.retries.get() + 1);
    }

    /// Count a failover to a replica.
    pub fn note_failover(&self) {
        self.failovers.set(self.failovers.get() + 1);
    }

    /// Complete the request: fold the mark log into phase durations and
    /// push the record into the device's flight recorder. Idempotent.
    pub fn end(&self, end_ns: u64, ok: bool) {
        if self.done.replace(true) {
            return;
        }
        let marks = self.marks.borrow();
        let end_ns = end_ns.max(self.submit_ns);
        let record = RequestRecord {
            req: self.req,
            write: self.write,
            bytes: self.bytes,
            submit_ns: self.submit_ns,
            end_ns,
            phase_ns: fold(&marks, self.submit_ns, end_ns),
            parts: self.parts.get(),
            marks: marks.len() as u32,
            retries: self.retries.get(),
            failovers: self.failovers.get(),
            ok,
        };
        drop(marks);
        self.hub.push_record(self.device, record);
    }
}

struct PhysEntry {
    ctx: Rc<RequestCtx>,
    part: u16,
    attempt: u16,
}

/// One physical request id can carry several logical parts at once when
/// the client merges adjacent extents into a single wire message, so the
/// registry maps each id to a *list* of bindings; a server-side mark for
/// the merged message fans out to every logical part it transported.
struct HubInner {
    ring_cap: usize,
    next_req: Cell<u64>,
    registry: RefCell<BTreeMap<u64, Vec<PhysEntry>>>,
    recorders: RefCell<BTreeMap<&'static str, DeviceFlight>>,
    faults: Cell<u64>,
    major_faults: Cell<u64>,
    dump_dir: RefCell<Option<PathBuf>>,
    dumped: Cell<bool>,
}

/// The engine-held lifecycle hub: allocates request contexts, routes
/// server-side marks back to them by physical request id, and owns the
/// per-device flight recorders.
///
/// A disabled hub (the default) is a no-op handle: every call is an
/// early-out branch, so instrumented code calls it unconditionally.
#[derive(Clone, Default)]
pub struct LifecycleHub {
    inner: Option<Rc<HubInner>>,
}

impl LifecycleHub {
    /// The no-op hub.
    pub fn disabled() -> LifecycleHub {
        LifecycleHub { inner: None }
    }

    /// An enabled hub with the default ring capacity.
    pub fn enabled() -> LifecycleHub {
        LifecycleHub::with_ring_cap(DEFAULT_RING_CAP)
    }

    /// An enabled hub retaining at most `cap` records per device.
    pub fn with_ring_cap(cap: usize) -> LifecycleHub {
        LifecycleHub {
            inner: Some(Rc::new(HubInner {
                ring_cap: cap.max(1),
                next_req: Cell::new(0),
                registry: RefCell::new(BTreeMap::new()),
                recorders: RefCell::new(BTreeMap::new()),
                faults: Cell::new(0),
                major_faults: Cell::new(0),
                dump_dir: RefCell::new(None),
                dumped: Cell::new(false),
            })),
        }
    }

    /// Is this hub recording?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Configure automatic dumping: the first anomalous record (fault,
    /// timeout, retry or failover) writes the affected device's ring to
    /// `dir/flight-<device>.json`.
    pub fn set_dump_dir(&self, dir: impl Into<PathBuf>) {
        if let Some(inner) = &self.inner {
            *inner.dump_dir.borrow_mut() = Some(dir.into());
        }
    }

    /// Start a request context for `device`. Returns `None` when the
    /// hub is disabled — before the device name is interned, so a
    /// disabled hub costs the caller one branch.
    pub fn begin(
        &self,
        device: &str,
        write: bool,
        bytes: u64,
        submit_ns: u64,
    ) -> Option<Rc<RequestCtx>> {
        let inner = self.inner.as_ref()?;
        let device = crate::intern(device);
        let req = inner.next_req.get();
        inner.next_req.set(req + 1);
        Some(Rc::new(RequestCtx {
            req,
            device,
            write,
            bytes,
            submit_ns,
            marks: RefCell::new(Vec::new()),
            parts: Cell::new(0),
            retries: Cell::new(0),
            failovers: Cell::new(0),
            done: Cell::new(false),
            hub: self.clone(),
        }))
    }

    /// Bind physical request id `phys` to the `(ctx, part, attempt)` of
    /// every logical part its wire message carries (one for a plain
    /// request, several for a merged one) so server-side and HCA marks can
    /// reach the contexts. Marks routed to `phys` fan out to every binding
    /// with the same timestamp, so each part's phase tiling stays exact.
    /// Re-registering (a retry with a bumped attempt) overwrites; an empty
    /// binding list (no part is traced) registers nothing.
    pub fn register_phys(
        &self,
        phys: u64,
        bindings: impl IntoIterator<Item = (Rc<RequestCtx>, u16, u16)>,
    ) {
        if let Some(inner) = &self.inner {
            let entries: Vec<PhysEntry> = bindings
                .into_iter()
                .map(|(ctx, part, attempt)| PhysEntry { ctx, part, attempt })
                .collect();
            if !entries.is_empty() {
                inner.registry.borrow_mut().insert(phys, entries);
            }
        }
    }

    /// Drop the binding for `phys` (reply consumed, part failed).
    pub fn unregister_phys(&self, phys: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.borrow_mut().remove(&phys);
        }
    }

    /// Mark the context bound to `phys`, if any — unknown ids are a
    /// silent no-op (late completions after crash/timeout cleanup).
    pub fn mark_phys(&self, phys: u64, kind: MarkKind, ts_ns: u64) {
        if let Some(inner) = &self.inner {
            let registry = inner.registry.borrow();
            if let Some(entries) = registry.get(&phys) {
                for e in entries {
                    e.ctx.mark(e.part, e.attempt, kind, ts_ns);
                }
            }
        }
    }

    /// Count a page fault at the vmsim boundary.
    pub fn note_fault(&self, major: bool) {
        if let Some(inner) = &self.inner {
            inner.faults.set(inner.faults.get() + 1);
            if major {
                inner.major_faults.set(inner.major_faults.get() + 1);
            }
        }
    }

    fn push_record(&self, device: &'static str, record: RequestRecord) {
        let Some(inner) = &self.inner else {
            return;
        };
        let anomalous = record.anomalous();
        {
            let mut recorders = inner.recorders.borrow_mut();
            recorders
                .entry(device)
                .or_insert_with(|| DeviceFlight::new(device, inner.ring_cap))
                .push(record);
        }
        if anomalous && !inner.dumped.get() {
            let dir = inner.dump_dir.borrow().clone();
            if let Some(dir) = dir {
                inner.dumped.set(true);
                let _ = self.dump_all(&dir);
            }
        }
    }

    /// The JSON dump for `device`, if it recorded anything.
    pub fn dump_json(&self, device: &str) -> Option<String> {
        let inner = self.inner.as_ref()?;
        let recorders = inner.recorders.borrow();
        recorders.get(device).map(DeviceFlight::dump_json)
    }

    /// Write every device's dump to `dir/flight-<device>.json`,
    /// creating the directory.
    pub fn dump_all(&self, dir: impl Into<PathBuf>) -> std::io::Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let recorders = inner.recorders.borrow();
        for (device, recorder) in recorders.iter() {
            let path = dir.join(format!("flight-{device}.json"));
            std::fs::write(path, recorder.dump_json())?;
        }
        Ok(())
    }

    /// Clone every device's recorder into plain `Send` data.
    pub fn summary(&self) -> FlightSummary {
        let Some(inner) = &self.inner else {
            return FlightSummary::default();
        };
        let recorders = inner.recorders.borrow();
        FlightSummary {
            devices: recorders.values().cloned().collect(),
            faults: inner.faults.get(),
            major_faults: inner.major_faults.get(),
        }
    }
}

impl std::fmt::Debug for LifecycleHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LifecycleHub")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(hub: &LifecycleHub) -> Rc<RequestCtx> {
        hub.begin("dev", true, 4096, 100).expect("enabled hub")
    }

    fn record(hub: &LifecycleHub, req: u64) -> RequestRecord {
        let summary = hub.summary();
        let dev = summary.device("dev").expect("recorder present");
        dev.by_request(req).cloned().expect("record present")
    }

    #[test]
    fn disabled_hub_is_inert() {
        let hub = LifecycleHub::disabled();
        assert!(!hub.is_enabled());
        assert!(hub.begin("dev", false, 0, 0).is_none());
        hub.mark_phys(7, MarkKind::Posted, 1);
        assert!(hub.summary().devices.is_empty());
        assert!(hub.dump_json("dev").is_none());
    }

    #[test]
    fn simple_request_tiles_exactly() {
        let hub = LifecycleHub::enabled();
        let c = ctx(&hub);
        let p = c.alloc_part();
        c.mark(p, 0, MarkKind::Queued, 100);
        c.mark(p, 0, MarkKind::Posted, 120);
        c.mark(p, 0, MarkKind::ServerReceived, 150);
        c.mark(p, 0, MarkKind::RdmaPosted, 160);
        c.mark(p, 0, MarkKind::RdmaDone, 200);
        c.mark(p, 0, MarkKind::ReplyPosted, 210);
        c.mark(p, 0, MarkKind::ReplyReceived, 240);
        c.mark(p, 0, MarkKind::Done, 250);
        c.end(250, true);
        let r = record(&hub, 0);
        assert_eq!(r.phase_ns.iter().sum::<u64>(), r.e2e_ns());
        assert_eq!(r.phase_ns[Phase::Queue as usize], 20);
        assert_eq!(r.phase_ns[Phase::Wire as usize], 30 + 30);
        assert_eq!(r.phase_ns[Phase::ServerService as usize], 10 + 10);
        assert_eq!(r.phase_ns[Phase::RdmaPull as usize], 40);
        assert_eq!(r.phase_ns[Phase::Completion as usize], 10);
        assert_eq!(r.phase_ns[Phase::RetryOverhead as usize], 0);
    }

    #[test]
    fn timed_out_attempt_relabels_to_retry_overhead() {
        let hub = LifecycleHub::enabled();
        let c = ctx(&hub);
        let p = c.alloc_part();
        c.mark(p, 0, MarkKind::Queued, 100);
        c.mark(p, 0, MarkKind::Posted, 110);
        // The server never answers; the attempt times out at 500.
        c.mark(p, 0, MarkKind::TimedOut, 500);
        c.note_retry();
        // Backoff, then attempt 1 runs cleanly.
        c.mark(p, 1, MarkKind::Queued, 600);
        c.mark(p, 1, MarkKind::Posted, 610);
        c.mark(p, 1, MarkKind::ReplyReceived, 700);
        c.mark(p, 1, MarkKind::Done, 710);
        c.end(710, true);
        let r = record(&hub, 0);
        assert_eq!(r.phase_ns.iter().sum::<u64>(), 610);
        // Attempt 0's whole lifetime (100..500 = 400, queue included via
        // relabel from the first mark at 100... the 10ns pre-post window
        // is attempt 0 too) plus the 100ns backoff gap.
        assert_eq!(r.phase_ns[Phase::RetryOverhead as usize], 400 + 100);
        assert_eq!(r.retries, 1);
    }

    #[test]
    fn concurrent_parts_use_precedence_and_still_tile() {
        let hub = LifecycleHub::enabled();
        let c = ctx(&hub);
        let a = c.alloc_part();
        let b = c.alloc_part();
        c.mark(a, 0, MarkKind::Queued, 100);
        c.mark(b, 0, MarkKind::Queued, 100);
        c.mark(a, 0, MarkKind::Posted, 110);
        c.mark(b, 0, MarkKind::Posted, 120);
        c.mark(a, 0, MarkKind::RdmaPosted, 130);
        // 130..150: part a in RdmaPull (precedence) while b is on the wire.
        c.mark(a, 0, MarkKind::Done, 150);
        c.mark(b, 0, MarkKind::ReplyReceived, 180);
        c.mark(b, 0, MarkKind::Done, 200);
        c.end(200, true);
        let r = record(&hub, 0);
        assert_eq!(r.phase_ns.iter().sum::<u64>(), 100);
        assert_eq!(r.phase_ns[Phase::Queue as usize], 10);
        assert_eq!(r.phase_ns[Phase::RdmaPull as usize], 20);
        // 110..120 one leg posted, 120..130 both, 150..180 b still out.
        assert_eq!(r.phase_ns[Phase::Wire as usize], 10 + 10 + 30);
        assert_eq!(r.phase_ns[Phase::Completion as usize], 20);
        assert_eq!(r.parts, 2);
    }

    #[test]
    fn marks_after_end_are_dropped_and_end_is_idempotent() {
        let hub = LifecycleHub::enabled();
        let c = ctx(&hub);
        let p = c.alloc_part();
        c.mark(p, 0, MarkKind::Queued, 100);
        c.end(200, true);
        c.mark(p, 0, MarkKind::WireTx, 300); // late HCA completion
        c.end(900, false); // double-complete must not re-record
        let r = record(&hub, 0);
        assert_eq!(r.end_ns, 200);
        assert!(r.ok);
        assert_eq!(hub.summary().device("dev").map(|d| d.total), Some(1));
    }

    #[test]
    fn phys_registry_routes_and_tolerates_unknown_ids() {
        let hub = LifecycleHub::enabled();
        let c = ctx(&hub);
        let p = c.alloc_part();
        c.mark(p, 0, MarkKind::Posted, 110);
        hub.register_phys(42, [(c.clone(), p, 0)]);
        hub.mark_phys(42, MarkKind::ServerReceived, 130);
        hub.mark_phys(999, MarkKind::ServerReceived, 140); // unknown: no-op
        hub.unregister_phys(42);
        hub.mark_phys(42, MarkKind::RdmaPosted, 150); // after unregister: no-op
        c.end(200, true);
        let r = record(&hub, 0);
        assert_eq!(r.marks, 2);
        assert_eq!(r.phase_ns[Phase::ServerService as usize], 70);
    }

    #[test]
    fn ring_is_bounded_but_aggregates_cover_the_run() {
        let hub = LifecycleHub::with_ring_cap(4);
        for i in 0..10u64 {
            let c = ctx(&hub);
            let p = c.alloc_part();
            c.mark(p, 0, MarkKind::Posted, 100);
            c.end(100 + (i + 1) * 10, true);
        }
        let summary = hub.summary();
        let r = summary.device("dev").expect("recorder exists");
        assert_eq!(r.records.len(), 4);
        assert_eq!(r.total, 10);
        assert!(r.by_request(0).is_none(), "oldest evicted");
        assert!(r.by_request(9).is_some());
        let slowest = r.slowest(2);
        assert_eq!(slowest[0].req, 9);
        assert_eq!(slowest[1].req, 8);
        // p50 over ALL 10 requests: e2e 10,20..100 → nearest-rank 50.
        assert_eq!(r.e2e_percentile(50.0), 50);
    }

    #[test]
    fn dump_is_valid_json_and_deterministic() {
        let run = || {
            let hub = LifecycleHub::enabled();
            let c = ctx(&hub);
            let p = c.alloc_part();
            c.mark(p, 0, MarkKind::Posted, 110);
            c.mark(p, 0, MarkKind::ReplyReceived, 150);
            c.end(160, true);
            hub.dump_json("dev").expect("dump")
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "same marks must dump byte-identically");
        let doc = crate::json::parse(&a).expect("well-formed dump");
        let root = doc.as_object().expect("object");
        assert_eq!(root["schema"].as_string(), Some("hpbd-flight-recorder-v1"));
        assert_eq!(root["records"].as_array().expect("records").len(), 1);
    }

    #[test]
    fn anomalous_record_triggers_one_auto_dump() {
        let dir = std::env::temp_dir().join(format!("hpbd-flight-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let hub = LifecycleHub::enabled();
        hub.set_dump_dir(&dir);
        let c = ctx(&hub);
        c.end(200, true); // healthy: no dump
        assert!(!dir.exists());
        let c = ctx(&hub);
        c.note_retry();
        c.end(300, true); // retried: dump fires once
        assert!(dir.join("flight-dev.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_is_plain_send_data() {
        fn assert_send<T: Send>(_: &T) {}
        let hub = LifecycleHub::enabled();
        let c = ctx(&hub);
        c.note_failover();
        c.end(500, false);
        hub.note_fault(true);
        let s = hub.summary();
        assert_send(&s);
        assert_eq!(s.faults, 1);
        assert_eq!(s.major_faults, 1);
        let d = s.device("dev").expect("device snapshot");
        assert_eq!(d.total, 1);
        assert_eq!(d.failed, 1);
        assert_eq!(d.failovers, 1);
        assert_eq!(d.e2e_percentile(50.0), 400);
    }
}
