//! The swap-consistency oracle, the one every fault test runs.
//!
//! A machine is a small mirrored HPBD cluster: `servers` servers of
//! [`EXTENT_PAGES`] pages, a request timeout, one retry, 2 credits and a
//! 4-page client staging pool, so requests wait in every state (pool
//! space, staging copy, credits, reply). The oracle writes [`SLOTS`] pages
//! in generations of at most [`OUTSTANDING`] requests at a time, then
//! reads every slot back, through the block device or through
//! [`DirectBackend`], with or without merging. A plan is a list of
//! [`Placement`]s: one fault at one instant against one server.
//!
//! Every plan must finish within an event budget and complete every I/O
//! (no hang), never panic (an illegal state/event pair is an
//! `unreachable!` in the client), tile every
//! request's lifecycle phases exactly, and read back only what the shadow
//! model allows. A single fault never loses data: each page lives on its
//! home server and the next one. A pair may write off both servers that
//! hold a page, and then I/O to it may fail with a typed error, but a read
//! that succeeds must still return the right bytes.
//!
//! Generations go on while a delay or dup budget is still armed, so it is
//! spent on writes: a late read push could land in a recycled staging span
//! (DESIGN.md §13). The oracle reads every slot each time the client's
//! move counters change, so reads race each move, and no revoke may move
//! more than the one chunk it names.

use hpbd_suite::blockdev::{new_buffer, Bio, BlockDevice, DeviceHealth, IoBuffer, IoOp, IoRequest};
use hpbd_suite::hpbd::{ClientStats, ClusterBuilder, HpbdCluster, HpbdConfig, HpbdServer};
use hpbd_suite::netmodel::{Calibration, Node};
use hpbd_suite::simcore::{Engine, SimTime, Tracer};
use hpbd_suite::simfault::FaultPlan;
use hpbd_suite::simtrace::LifecycleHub;
use hpbd_suite::vmsim::{DirectBackend, DirectConfig, LoadKind, SwapBackend};
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::rc::Rc;

const PAGE: u64 = 4096;
/// Pages the oracle writes and reads back.
const SLOTS: u64 = 6;
/// Pages each server exports.
const EXTENT_PAGES: u64 = 16;
/// Block requests in flight at once.
const OUTSTANDING: usize = 3;
const TIMEOUT_NS: u64 = 1_000_000;
/// Events one plan may run before it counts as hung.
const EVENT_BUDGET: u64 = 100_000;
/// Chunk size of a revocable machine: a revoke moves this much.
const CHUNK_BYTES: u64 = 4 * PAGE;

/// The machine a plan runs on.
#[derive(Clone, Copy, Debug)]
pub struct Machine {
    pub servers: usize,
    /// [`CHUNK_BYTES`] chunks with 2 spare chunks per server, for a
    /// revoked chunk to move to.
    pub revocable: bool,
    /// Swap through `DirectBackend` with default tuning instead of one
    /// block request per page: stores coalesce at `reap`, and half the
    /// slots sit across the boundary between servers 0 and 1, so a run
    /// must split. Read-back is a demand page, then readahead.
    pub direct: bool,
    /// Merge same-server parts within a 2 µs window.
    pub batching: bool,
}

/// The base machine: 2 servers, the block path, no merging, fixed chunks.
pub const TWO_SERVERS: Machine = Machine {
    servers: 2,
    revocable: false,
    direct: false,
    batching: false,
};

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    Crash,
    Restart,
    Loss,
    Delay,
    Dup,
    CompletionError,
    /// The server reclaims its first chunk (revocable machine only).
    Revoke,
    /// The server reclaims its first chunk once the client has written
    /// some server off (revocable machine only; the instant is unused).
    RevokeAfterWriteOff,
}

const FAULTS: [Fault; 6] = [
    Fault::Crash,
    Fault::Restart,
    Fault::Loss,
    Fault::Delay,
    Fault::Dup,
    Fault::CompletionError,
];

/// One fault at one instant against one server.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Placement {
    pub at_ns: u64,
    pub fault: Fault,
    pub server: usize,
}

impl Fault {
    pub fn is_revoke(self) -> bool {
        matches!(self, Fault::Revoke | Fault::RevokeAfterWriteOff)
    }
}

impl Placement {
    fn add_to(self, plan: FaultPlan) -> FaultPlan {
        let (at, server) = (self.at_ns, self.server);
        match self.fault {
            Fault::Crash => plan.server_crash(at, server),
            Fault::Restart => plan.server_restart(at, server),
            Fault::Loss => plan.message_loss(at, server, 1),
            // Longer than the timeout, so the late copy outlives the
            // attempt that gave up on it.
            Fault::Delay => plan.message_delay(at, server, 1, 2 * TIMEOUT_NS),
            Fault::Dup => plan.message_duplicate(at, server, 1),
            Fault::CompletionError => plan.completion_error(at, server, 1),
            // Not fault plan events: `Run` fires them.
            Fault::Revoke | Fault::RevokeAfterWriteOff => plan,
        }
    }
}

/// Fill byte for `slot` as written by generation `gen` (never zero, and
/// distinct across nearby generations, so stale data is detectable).
pub fn gen_fill(slot: u64, gen: u64) -> u8 {
    (slot
        .wrapping_mul(2654435761)
        .wrapping_add(gen.wrapping_mul(0x9E37_79B9))
        >> 16) as u8
        | 1
}

/// The counters that move when a request changes state without emitting
/// an `hpbd` trace record: a post, a credit stall, a reply.
fn state_counters(s: &ClientStats) -> [u64; 4] {
    [s.requests, s.phys_requests, s.flow_stalls, s.replies]
}

/// The counters that move when a chunk's move starts, ends or retries.
fn move_counters(s: &ClientStats) -> [u64; 3] {
    [s.revocations, s.migrations, s.migration_retries]
}

/// Servers the client has written off.
fn written_off(dev: &impl BlockDevice, servers: usize) -> usize {
    match dev.health() {
        DeviceHealth::Healthy => 0,
        DeviceHealth::Degraded { failed_servers } => failed_servers,
        DeviceHealth::Failed => servers,
    }
}

/// A read the oracle issued: what it may return, and what it returned.
struct Read {
    slot: u64,
    buf: IoBuffer,
    allowed: Vec<u8>,
    result: Rc<Cell<Option<bool>>>,
}

/// One oracle run: the machine, the shadow model, and (for the fault-free
/// run) the instants at which some request changed state.
struct Run {
    machine: Machine,
    engine: Engine,
    cluster: HpbdCluster,
    direct: Option<Rc<DirectBackend>>,
    tracer: Option<Tracer>,
    events: u64,
    instants: Vec<u64>,
    /// The fills each slot may hold: the last acked write, plus every
    /// write in flight or failed since (it may have landed on one replica).
    allowed: Rc<RefCell<Vec<Vec<u8>>>>,
    /// Slots whose I/O failed.
    failures: Rc<RefCell<Vec<u64>>>,
    /// Writes submitted and not yet completed.
    writing: Rc<Cell<u64>>,
    reads: Vec<Read>,
    /// Move counters as last seen: a change reads every slot.
    moves: [u64; 3],
    /// Servers written off as last seen, and the servers that revoke once
    /// that number grows.
    written_off: usize,
    revoke_on_write_off: Vec<usize>,
}

impl Run {
    fn new(placements: &[Placement], record: bool, machine: Machine, hub: LifecycleHub) -> Run {
        let engine = Engine::new();
        let tracer = record.then(Tracer::enabled);
        if let Some(tracer) = &tracer {
            engine.set_tracer(tracer.clone());
        }
        engine.set_lifecycle(hub);
        let mut config = HpbdConfig {
            mirror_writes: true,
            request_timeout_ns: Some(TIMEOUT_NS),
            max_retries: 1,
            credits: 2,
            pool_size: 4 * PAGE,
            batching: machine.batching,
            merge_window_ns: 2_000,
            ..HpbdConfig::default()
        };
        if machine.revocable {
            config.chunk_bytes = CHUNK_BYTES;
            config.spare_chunks = 2;
        }
        // Revokes listed before every plan fault are scheduled before the
        // cluster arms the plan, the rest after: at one instant, the
        // placements fire in their listed order.
        let servers: Rc<RefCell<Vec<HpbdServer>>> = Rc::default();
        let revoke = |p: &Placement| {
            let (servers, server) = (servers.clone(), p.server);
            engine.schedule_at(SimTime(p.at_ns), move || {
                servers.borrow()[server].revoke(0, CHUNK_BYTES)
            });
        };
        let is_revoke = |p: &&Placement| p.fault == Fault::Revoke;
        let lead = placements.iter().take_while(is_revoke).count();
        placements[..lead].iter().for_each(revoke);
        let plan = placements
            .iter()
            .fold(FaultPlan::new(), |plan, p| p.add_to(plan));
        let cluster = ClusterBuilder::new()
            .servers(machine.servers)
            .per_server_capacity(EXTENT_PAGES * PAGE)
            .config(config)
            .fault_plan(plan)
            .build(&engine, Rc::new(Calibration::cluster_2005()));
        *servers.borrow_mut() = cluster.servers.clone();
        placements[lead..].iter().filter(is_revoke).for_each(revoke);
        let direct = machine.direct.then(|| {
            let node = Node::new("client", 0, 2);
            let dev = Rc::new(cluster.client.clone());
            DirectBackend::new(engine.clone(), node, dev, DirectConfig::default())
        });
        let revoke_on_write_off = placements
            .iter()
            .filter(|p| p.fault == Fault::RevokeAfterWriteOff)
            .map(|p| p.server)
            .collect();
        Run {
            machine,
            engine,
            cluster,
            direct,
            tracer,
            events: 0,
            instants: Vec::new(),
            allowed: Rc::new(RefCell::new(vec![vec![0]; SLOTS as usize])),
            failures: Rc::default(),
            writing: Rc::default(),
            reads: Vec::new(),
            moves: [0; 3],
            written_off: 0,
            revoke_on_write_off,
        }
    }

    /// The device page `slot` lives at: strided over every extent on the
    /// block path; on the direct path, slots 0-2 at pages 0-2 and slots
    /// 3-5 at pages 14-16, across the boundary of servers 0 and 1.
    fn slot_page(&self, slot: u64) -> u64 {
        match (self.machine.direct, slot < SLOTS / 2) {
            (false, _) => slot * (self.cluster.client.capacity() / PAGE / SLOTS),
            (true, true) => slot,
            (true, false) => EXTENT_PAGES - 2 + slot - SLOTS / 2,
        }
    }

    /// Submit one page-sized request with a lifecycle context, as the
    /// block queue would stamp it at dispatch.
    fn submit(&self, op: IoOp, slot: u64, buf: IoBuffer, done: impl FnOnce(bool) + 'static) {
        let engine = self.engine.clone();
        let dev = &self.cluster.client;
        let ctx =
            engine
                .lifecycle()
                .begin(dev.name(), op == IoOp::Write, PAGE, engine.now().as_nanos());
        let mut req = IoRequest::single(Bio::new(op, self.slot_page(slot) * PAGE, buf, move |r| {
            done(r.is_ok())
        }));
        if let Some(ctx) = &ctx {
            req.set_lifecycle(ctx.clone());
        }
        let req = req.on_complete(move |r| {
            if let Some(ctx) = &ctx {
                ctx.end(engine.now().as_nanos(), r.is_ok());
            }
        });
        dev.submit(req);
    }

    /// Write `fill` to `slot`: it is allowed from now on, and alone once
    /// acknowledged.
    fn write(&mut self, slot: u64, fill: u8) {
        self.instants.push(self.engine.now().as_nanos());
        self.allowed.borrow_mut()[slot as usize].push(fill);
        let buf = new_buffer(PAGE as usize);
        buf.borrow_mut().fill(fill);
        let (allowed, failures) = (self.allowed.clone(), self.failures.clone());
        let writing = self.writing.clone();
        writing.set(writing.get() + 1);
        let done = move |ok: bool| {
            writing.set(writing.get() - 1);
            if ok {
                allowed.borrow_mut()[slot as usize] = vec![fill];
            } else {
                failures.borrow_mut().push(slot);
            }
        };
        match &self.direct {
            Some(direct) => {
                let offset = self.slot_page(slot) * PAGE;
                direct.store(offset, buf, Box::new(move |r| done(r.is_ok())));
            }
            None => self.submit(IoOp::Write, slot, buf, done),
        }
    }

    /// Read `slot`; it may return any fill allowed now. A readahead load
    /// waits for [`DirectBackend::reap`].
    fn read(&mut self, slot: u64, kind: LoadKind) {
        self.instants.push(self.engine.now().as_nanos());
        let buf = new_buffer(PAGE as usize);
        let result = Rc::new(Cell::new(None));
        let sink = result.clone();
        match &self.direct {
            Some(direct) => {
                let offset = self.slot_page(slot) * PAGE;
                let done = Box::new(move |r: Result<_, _>| sink.set(Some(r.is_ok())));
                direct.load(offset, kind, buf.clone(), done);
            }
            None => self.submit(IoOp::Read, slot, buf.clone(), move |ok| sink.set(Some(ok))),
        }
        let allowed = self.allowed.borrow()[slot as usize].clone();
        self.reads.push(Read {
            slot,
            buf,
            allowed,
            result,
        });
    }

    /// Send what the direct path staged.
    fn reap(&self) {
        if let Some(direct) = &self.direct {
            direct.reap();
        }
    }

    /// Run every pending event, recording the instants of those that moved
    /// a request when this is the recording run.
    fn settle(&mut self, label: &str) {
        loop {
            let before = self
                .tracer
                .as_ref()
                .map(|t| (state_counters(&self.cluster.client.stats()), t.len()));
            if !self.engine.step_one() {
                return;
            }
            self.events += 1;
            assert!(
                self.events < EVENT_BUDGET,
                "[{label}] no quiescence after {EVENT_BUDGET} events: hung"
            );
            self.react();
            let (Some((counters, seen)), Some(tracer)) = (before, &self.tracer) else {
                continue;
            };
            let moved = state_counters(&self.cluster.client.stats()) != counters
                || tracer
                    .events()
                    .is_some_and(|events| events[seen..].iter().any(|e| e.component == "hpbd"));
            if moved {
                self.instants.push(self.engine.now().as_nanos());
            }
        }
    }

    /// Between two events on a revocable machine: fire the revokes that
    /// wait for a write-off, and read every slot when a move starts, ends
    /// or retries.
    fn react(&mut self) {
        if !self.machine.revocable {
            return;
        }
        let dev = &self.cluster.client;
        let written_off = written_off(dev, self.machine.servers);
        if written_off > self.written_off {
            self.written_off = written_off;
            for server in std::mem::take(&mut self.revoke_on_write_off) {
                self.cluster.servers[server].revoke(0, CHUNK_BYTES);
            }
        }
        let moves = move_counters(&dev.stats());
        if moves != self.moves {
            self.moves = moves;
            for slot in 0..SLOTS {
                self.read(slot, LoadKind::Demand);
            }
        }
    }
}

/// What a run saw, for the coverage report and the next plans.
struct Outcome {
    stats: ClientStats,
    /// Demand loads the direct path busy-polled for.
    polled: u64,
    /// Sorted, distinct instants at which some request changed state
    /// (recording run only).
    instants: Vec<u64>,
    /// When the read-back phase began.
    read_start: u64,
}

/// The swap-consistency oracle over one plan on `machine`. Writes go in
/// generations of at most [`OUTSTANDING`] requests at a time; a page may
/// read back its last acknowledged fill, the fill of a write in flight, or
/// the fill of any write that failed after it.
fn run_oracle(
    label: &str,
    placements: &[Placement],
    record: bool,
    machine: Machine,
    may_lose_both: bool,
    hub: LifecycleHub,
) -> Outcome {
    let servers = machine.servers;
    let mut run = Run::new(placements, record, machine, hub);
    let mut gen = 0;
    // Generations 0 and 1, then more while a delay/dup budget is still
    // armed on some link, so it is spent on writes. A budget that three
    // full rewrites leave armed sits on a link the client no longer uses.
    while gen < 2
        || (gen < 5
            && run
                .cluster
                .links
                .iter()
                .any(|link| link.pending_delay_dup() > 0))
    {
        let slots: Vec<u64> = (0..SLOTS).filter(|s| gen != 1 || s % 3 != 0).collect();
        for batch in slots.chunks(OUTSTANDING) {
            for &slot in batch {
                run.write(slot, gen_fill(slot, gen));
            }
            run.reap();
            run.settle(label);
        }
        gen += 1;
    }

    let read_start = run.engine.now().as_nanos();
    for batch in (0..SLOTS).collect::<Vec<_>>().chunks(OUTSTANDING) {
        run.read(batch[0], LoadKind::Demand);
        for &slot in &batch[1..] {
            run.read(slot, LoadKind::Readahead);
        }
        run.reap();
        run.settle(label);
    }

    let writing = run.writing.get();
    assert_eq!(writing, 0, "[{label}] {writing} writes never completed");
    for read in &run.reads {
        let slot = read.slot;
        match read.result.get() {
            None => panic!("[{label}] read of slot {slot} never completed"),
            Some(false) => run.failures.borrow_mut().push(slot),
            Some(true) => {
                let buf = read.buf.borrow();
                assert!(
                    buf.iter().all(|&b| b == buf[0]) && read.allowed.contains(&buf[0]),
                    "[{label}] slot {slot}: read {:#04x}…, allowed {:02x?}",
                    buf[0],
                    read.allowed
                );
            }
        }
    }
    // A slot's I/O may fail only once both servers holding it, its home
    // and the next one, are written off. The client says how many it
    // wrote off, not which: there must be enough for every failed slot.
    let dev = &run.cluster.client;
    let written_off = written_off(dev, servers);
    let failed = run.failures.borrow();
    let needed: BTreeSet<usize> = failed
        .iter()
        .flat_map(|&slot| {
            let home = (run.slot_page(slot) / EXTENT_PAGES) as usize;
            [home, (home + 1) % servers]
        })
        .collect();
    assert!(
        failed.is_empty() || (may_lose_both && needed.len() <= written_off),
        "[{label}] I/O to slots {failed:?} failed: that needs servers {needed:?} \
         written off, and the client wrote off {written_off}"
    );
    // A revoke names one chunk, and a chunk moves once however often the
    // notice naming it arrives.
    let revokes = placements.iter().filter(|p| p.fault.is_revoke()).count() as u64;
    let moved = dev.stats().migrations;
    assert!(
        moved <= revokes,
        "[{label}] {moved} chunks moved for {revokes} revokes"
    );
    let summary = run.engine.lifecycle().summary();
    for flight in &summary.devices {
        assert_eq!(
            flight.sum_mismatches, 0,
            "[{label}] {} of {} requests broke the phase-sum invariant",
            flight.sum_mismatches, flight.total
        );
    }
    let mut instants = std::mem::take(&mut run.instants);
    instants.sort_unstable();
    instants.dedup();
    Outcome {
        stats: dev.stats(),
        polled: run.direct.as_ref().map_or(0, |d| d.stats().polled),
        instants,
        read_start,
    }
}

/// Run one plan on `machine` and return its counters.
pub fn check(placements: &[Placement], machine: Machine) -> ClientStats {
    guarded(placements, false, machine).stats
}

/// [`run_oracle`] over one plan, naming it if anything inside panics. A
/// single fault must lose nothing; a pair may write off both servers that
/// hold a slot. A plan that panics leaves every device's flight recorder
/// in [`dump_dir`] first.
fn guarded(placements: &[Placement], record: bool, machine: Machine) -> Outcome {
    let label = match placements {
        [] => "fault-free".to_string(),
        _ => format!("{placements:?}"),
    };
    let may_lose_both = placements.len() > 1;
    let hub = LifecycleHub::enabled();
    match catch_unwind(AssertUnwindSafe(|| {
        let hub = hub.clone();
        run_oracle(&label, placements, record, machine, may_lose_both, hub)
    })) {
        Ok(outcome) => outcome,
        Err(cause) => {
            let dir = dump_dir(machine, placements);
            let dumped = match hub.dump_all(&dir) {
                Ok(()) => format!("flight recorder in {}", dir.display()),
                Err(e) => format!("no flight recorder in {}: {e}", dir.display()),
            };
            let cause = cause
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| cause.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            panic!("plan {label} panicked ({dumped}): {cause}");
        }
    }
}

/// Where a red plan's flight-recorder dumps go: one directory per machine
/// and plan under `target/flight-recorder/`, so parallel tests never
/// share one.
fn dump_dir(machine: Machine, placements: &[Placement]) -> PathBuf {
    let mut name = format!("{}-servers", machine.servers);
    let flags = [
        (machine.revocable, "-revocable"),
        (machine.direct, "-direct"),
        (machine.batching, "-batching"),
    ];
    for (on, tag) in flags {
        if on {
            name.push_str(tag);
        }
    }
    for p in placements {
        name.push_str(&format!("+{:?}-s{}-{}ns", p.fault, p.server, p.at_ns));
    }
    PathBuf::from("target/flight-recorder").join(name)
}

/// Every single placement on `machine`, from the fault-free run's
/// state-change instants; revokes too on a revocable machine. The
/// fault-free run must exercise the machine's path and merging.
pub fn placements(machine: Machine) -> Vec<Placement> {
    let clean = guarded(&[], true, machine);
    if machine.direct {
        let stats = &clean.stats;
        assert!(
            stats.split_requests > 0 && clean.polled > 0,
            "a run must split at an extent and a demand load must poll: {stats:?}"
        );
    }
    if machine.batching {
        let stats = &clean.stats;
        assert!(stats.merged_requests > 0, "nothing merged: {stats:?}");
    }
    let revoke = machine.revocable.then_some(Fault::Revoke);
    let mut out = Vec::new();
    for &at_ns in &clean.instants {
        for fault in FAULTS.into_iter().chain(revoke) {
            let write_phase = at_ns < clean.read_start;
            if matches!(fault, Fault::Delay | Fault::Dup) && !write_phase {
                continue;
            }
            for server in 0..machine.servers {
                out.push(Placement {
                    at_ns,
                    fault,
                    server,
                });
            }
        }
    }
    if machine.revocable {
        out.extend((0..machine.servers).map(|server| Placement {
            at_ns: 0,
            fault: Fault::RevokeAfterWriteOff,
            server,
        }));
    }
    println!(
        "{} state-change instants ({} in write phases) -> {} single placements",
        clean.instants.len(),
        clean
            .instants
            .iter()
            .filter(|&&t| t < clean.read_start)
            .count(),
        out.len()
    );
    out
}

/// Run `plan`, an enumerated plan on `machine`, and return its counters.
/// Each placement must be one of [`placements`], so a row keeps naming a
/// plan the enumeration runs.
pub fn pinned(machine: Machine, plan: &[Placement]) -> ClientStats {
    let enumerated = placements(machine);
    for p in plan {
        assert!(
            enumerated.contains(p),
            "{p:?} is not an enumerated placement on {machine:?}: pick again"
        );
    }
    check(plan, machine)
}

/// A table of pinned plans, one test per row: `name: machine, plan,
/// counter;`. Each row's plan must move `counter`, the recovery path it
/// exists for; a row without one only keeps the oracle.
macro_rules! rows {
    ($($name:ident: $machine:expr, [$(($fault:ident, $server:expr, $at:expr)),+] $(, $counter:ident)?;)+) => {$(
        #[test]
        fn $name() {
            use $crate::oracle::{Fault::*, Placement};
            let plan = [$(Placement { at_ns: $at, fault: $fault, server: $server }),+];
            let _stats = $crate::oracle::pinned($machine, &plan);
            $(assert!(_stats.$counter > 0, "{} never moved: {_stats:?}", stringify!($counter));)?
        }
    )+};
}
pub(crate) use rows;
