//! Small-scope fault enumeration over the HPBD client's request states.
//!
//! The scope is a cut-down swap-consistency oracle: 2 servers, mirrored
//! writes, a request timeout, one retry, at most 3 block requests in flight,
//! and a client with 2 credits and a 4-page staging pool, so requests wait
//! in every state (pool space, staging copy, credits, reply). The fault-free
//! run yields the virtual instants at which some request changes state.
//! Every single fault from {crash, restart, loss, delay, dup, completion
//! error} × {server 0, server 1} is placed at each of them; ordered pairs of
//! those placements run too (a seeded sample of 200 here, all of them under
//! `--include-ignored`). Delay and dup are armed only in write phases: a
//! late read push could land in a recycled staging span (DESIGN.md §13).
//! A second seeded sample of 200 pairs runs the same scope on a ring of 3
//! servers, where a request already on its replica has a live third server
//! it must not be sent to. A third runs on the 2-server machine with 4-page
//! chunks and 2 spare chunks per server, pairing a revoke of one server's
//! first chunk, in either order, with every single placement (all of those
//! pairs under `--include-ignored`). A revoke never loses data, so the
//! oracle is the same.
//!
//! Every plan must finish within an event budget (no hang), never panic (an
//! illegal state/event pair is an `unreachable!` in the client), tile every
//! request's lifecycle phases exactly, and read back only what the shadow
//! model allows. A single fault never loses data: each page lives on its
//! home server and the next one. A pair may write off both servers that
//! hold a page, and then I/O to it may fail with a typed error, but a read
//! that succeeds must still return the right bytes.

use hpbd_suite::blockdev::{new_buffer, Bio, BlockDevice, DeviceHealth, IoBuffer, IoOp, IoRequest};
use hpbd_suite::hpbd::{ClientStats, ClusterBuilder, HpbdCluster, HpbdConfig, HpbdServer};
use hpbd_suite::netmodel::Calibration;
use hpbd_suite::simcore::{Engine, SimRng, SimTime, Tracer};
use hpbd_suite::simfault::FaultPlan;
use hpbd_suite::simtrace::LifecycleHub;
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

const PAGE: u64 = 4096;
/// Pages the oracle writes and reads back, strided over every extent.
const SLOTS: u64 = 6;
/// Pages each server exports.
const EXTENT_PAGES: u64 = 16;
/// Block requests in flight at once.
const OUTSTANDING: usize = 3;
const TIMEOUT_NS: u64 = 1_000_000;
/// Events one plan may run before it counts as hung.
const EVENT_BUDGET: u64 = 100_000;
/// Pairs the tier-1 sample runs.
const SAMPLED_PAIRS: usize = 200;
/// Chunk size of the revocable machine: a revoke moves this much.
const CHUNK_BYTES: u64 = 4 * PAGE;

/// The machine a plan runs on: `servers` servers, and when `revocable`,
/// [`CHUNK_BYTES`] chunks with 2 spare chunks per server for a revoked
/// chunk to move to.
#[derive(Clone, Copy, Debug)]
struct Machine {
    servers: usize,
    revocable: bool,
}

const TWO_SERVERS: Machine = Machine {
    servers: 2,
    revocable: false,
};
const THREE_SERVERS: Machine = Machine {
    servers: 3,
    revocable: false,
};
const REVOCABLE: Machine = Machine {
    servers: 2,
    revocable: true,
};

#[derive(Clone, Copy, Debug, PartialEq)]
enum Fault {
    Crash,
    Restart,
    Loss,
    Delay,
    Dup,
    CompletionError,
    /// The server reclaims its first chunk (revocable machine only).
    Revoke,
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
#[derive(Clone, Copy, Debug)]
struct Placement {
    at_ns: u64,
    fault: Fault,
    server: usize,
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
            // Not a fault plan event: `Run::new` schedules it.
            Fault::Revoke => plan,
        }
    }
}

/// Fill byte for `slot` as written by generation `gen` (never zero, and
/// distinct across nearby generations, so stale data is detectable).
fn gen_fill(slot: u64, gen: u64) -> u8 {
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

/// One oracle run: the machine, its event count, and (for the fault-free
/// run) the instants at which some request changed state.
struct Run {
    engine: Engine,
    cluster: HpbdCluster,
    tracer: Option<Tracer>,
    events: u64,
    instants: Vec<u64>,
}

impl Run {
    fn new(placements: &[Placement], record: bool, machine: Machine) -> Run {
        let engine = Engine::new();
        let tracer = record.then(Tracer::enabled);
        if let Some(tracer) = &tracer {
            engine.set_tracer(tracer.clone());
        }
        engine.set_lifecycle(LifecycleHub::enabled());
        let config = HpbdConfig {
            mirror_writes: true,
            request_timeout_ns: Some(TIMEOUT_NS),
            max_retries: 1,
            credits: 2,
            pool_size: 4 * PAGE,
            ..HpbdConfig::default()
        };
        let config = if machine.revocable {
            HpbdConfig {
                chunk_bytes: CHUNK_BYTES,
                spare_chunks: 2,
                ..config
            }
        } else {
            config
        };
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
        Run {
            engine,
            cluster,
            tracer,
            events: 0,
            instants: Vec::new(),
        }
    }

    /// Submit one page-sized request with a lifecycle context, as the
    /// block queue would stamp it at dispatch.
    fn submit(&mut self, op: IoOp, slot: u64, buf: IoBuffer, done: impl FnOnce(bool) + 'static) {
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
        self.instants.push(self.engine.now().as_nanos());
        dev.submit(req);
    }

    /// The device page `slot` lives at.
    fn slot_page(&self, slot: u64) -> u64 {
        slot * (self.cluster.client.capacity() / PAGE / SLOTS)
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
}

/// What a run saw, for the coverage report and the next plans.
struct Outcome {
    stats: ClientStats,
    /// Sorted, distinct instants at which some request changed state
    /// (recording run only).
    instants: Vec<u64>,
    /// When the read-back phase began.
    read_start: u64,
}

/// The swap-consistency oracle over one plan on `machine`. Writes
/// go in generations of at most [`OUTSTANDING`] requests at a time; a page
/// may read back its last acknowledged fill or the fill of any write that
/// failed after it.
fn run_oracle(
    label: &str,
    placements: &[Placement],
    record: bool,
    machine: Machine,
    may_lose_both: bool,
) -> Outcome {
    let servers = machine.servers;
    let mut run = Run::new(placements, record, machine);
    // The fills each slot may hold: the last acked write, plus every
    // failed write since (it may have landed on one replica).
    let allowed: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(vec![vec![0]; SLOTS as usize]));
    let failures = Rc::new(RefCell::new(Vec::new()));
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
                let fill = gen_fill(slot, gen);
                let buf = new_buffer(PAGE as usize);
                buf.borrow_mut().fill(fill);
                let (allowed, failures) = (allowed.clone(), failures.clone());
                run.submit(IoOp::Write, slot, buf, move |ok| {
                    let mut allowed = allowed.borrow_mut();
                    if ok {
                        allowed[slot as usize] = vec![fill];
                    } else {
                        failures.borrow_mut().push(slot);
                        allowed[slot as usize].push(fill);
                    }
                });
            }
            run.settle(label);
        }
        gen += 1;
    }

    let read_start = run.engine.now().as_nanos();
    let mut reads = Vec::new();
    for batch in (0..SLOTS).collect::<Vec<_>>().chunks(OUTSTANDING) {
        for &slot in batch {
            let buf = new_buffer(PAGE as usize);
            let result = Rc::new(Cell::new(None));
            let sink = result.clone();
            run.submit(IoOp::Read, slot, buf.clone(), move |ok| sink.set(Some(ok)));
            reads.push((slot, buf, result));
        }
        run.settle(label);
    }

    let dev = &run.cluster.client;
    let allowed = allowed.borrow();
    for (slot, buf, result) in &reads {
        match result.get() {
            None => panic!("[{label}] read of slot {slot} never completed"),
            Some(false) => failures.borrow_mut().push(*slot),
            Some(true) => {
                let buf = buf.borrow();
                assert!(
                    buf.iter().all(|&b| b == buf[0]) && allowed[*slot as usize].contains(&buf[0]),
                    "[{label}] slot {slot}: read {:#04x}…, allowed {:02x?}",
                    buf[0],
                    allowed[*slot as usize]
                );
            }
        }
    }
    // A slot's I/O may fail only once both servers holding it, its home
    // and the next one, are written off. The client says how many it
    // wrote off, not which: there must be enough for every failed slot.
    let written_off = match dev.health() {
        DeviceHealth::Healthy => 0,
        DeviceHealth::Degraded { failed_servers } => failed_servers,
        DeviceHealth::Failed => servers,
    };
    let failed = failures.borrow();
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
        instants,
        read_start,
    }
}

/// Run one plan on `machine`, naming it if anything inside panics. A
/// single fault must lose nothing; a pair may write off both servers that
/// hold a slot.
fn check(placements: &[Placement], machine: Machine) -> ClientStats {
    let label = format!("{placements:?}");
    let may_lose_both = placements.len() > 1;
    match catch_unwind(AssertUnwindSafe(|| {
        run_oracle(&label, placements, false, machine, may_lose_both)
    })) {
        Ok(outcome) => outcome.stats,
        Err(cause) => {
            let cause = cause
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| cause.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            panic!("plan {label} panicked: {cause}");
        }
    }
}

/// Every single placement on `machine`, from the fault-free run's
/// state-change instants; revokes too on the revocable machine.
fn placements(machine: Machine) -> Vec<Placement> {
    let clean = run_oracle("fault-free", &[], true, machine, false);
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

/// Which recovery events the explored plans reached, by client counter.
#[derive(Default)]
struct Coverage {
    plans: usize,
    reached: [u64; 8],
}

impl Coverage {
    const NAMES: [&'static str; 8] = [
        "pool_waits",
        "flow_stalls",
        "timeouts",
        "retries",
        "failovers",
        "mirror_drops",
        "stale_drops",
        "epoch_wipes",
    ];

    fn add(&mut self, s: &ClientStats) {
        self.plans += 1;
        let seen = [
            s.pool_waits,
            s.flow_stalls,
            s.timeouts,
            s.retries,
            s.failovers,
            s.mirror_drops,
            s.stale_drops,
            s.epoch_wipes,
        ];
        for (plans, n) in self.reached.iter_mut().zip(seen) {
            *plans += (n > 0) as u64;
        }
    }

    fn print(&self, what: &str) {
        println!("{what}: {} plans explored", self.plans);
        for (name, plans) in Self::NAMES.iter().zip(self.reached) {
            println!("  {name:<13} reached in {plans} plans");
        }
    }
}

#[test]
fn every_single_fault_at_every_state_change_keeps_the_oracle() {
    let mut coverage = Coverage::default();
    for p in placements(TWO_SERVERS) {
        coverage.add(&check(&[p], TWO_SERVERS));
    }
    coverage.print("single placements");
    // An epoch wipe takes two faults: a crash, then a restart.
    for (name, plans) in Coverage::NAMES.iter().zip(coverage.reached) {
        assert!(
            plans > 0 || *name == "epoch_wipes",
            "no single fault reached {name}"
        );
    }
}

/// [`SAMPLED_PAIRS`] ordered pairs of distinct placements on `machine`,
/// drawn with `seed`.
fn sample_pairs(machine: Machine, seed: u64) {
    let singles = placements(machine);
    let n = singles.len() as u64;
    let mut rng = SimRng::new(seed);
    let mut coverage = Coverage::default();
    for _ in 0..SAMPLED_PAIRS {
        let (i, j) = (rng.below(n) as usize, rng.below(n - 1) as usize);
        // Skip the diagonal: `j` indexes the placements other than `i`.
        let j = if j >= i { j + 1 } else { j };
        coverage.add(&check(&[singles[i], singles[j]], machine));
    }
    let servers = machine.servers;
    coverage.print(&format!("sampled ordered pairs on {servers} servers"));
}

#[test]
fn a_seeded_sample_of_fault_pairs_keeps_the_oracle() {
    sample_pairs(TWO_SERVERS, 31);
}

#[test]
fn a_seeded_sample_of_fault_pairs_on_three_servers_keeps_the_oracle() {
    sample_pairs(THREE_SERVERS, 47);
}

#[test]
#[ignore = "every ordered pair of placements: minutes in release (CI fault-smoke job)"]
fn every_ordered_pair_of_faults_keeps_the_oracle() {
    let singles = placements(TWO_SERVERS);
    let mut coverage = Coverage::default();
    for (i, &first) in singles.iter().enumerate() {
        for (j, &second) in singles.iter().enumerate() {
            if i != j {
                coverage.add(&check(&[first, second], TWO_SERVERS));
            }
        }
    }
    coverage.print("all ordered pairs");
    for (name, plans) in Coverage::NAMES.iter().zip(coverage.reached) {
        assert!(plans > 0, "no pair of faults reached {name}");
    }
}

/// Every revoke placement on the revocable machine paired, in either
/// order, with every other single placement.
fn revoke_pairs() -> Vec<[Placement; 2]> {
    let (revokes, faults): (Vec<_>, Vec<_>) = placements(REVOCABLE)
        .into_iter()
        .partition(|p| p.fault == Fault::Revoke);
    let pairs = revokes
        .iter()
        .flat_map(|&r| faults.iter().flat_map(move |&f| [[r, f], [f, r]]));
    pairs.collect()
}

/// Run `pairs` on the revocable machine; some plan must move a chunk.
fn check_revoke_pairs(pairs: &[[Placement; 2]], what: &str) {
    let mut coverage = Coverage::default();
    let (mut moved, mut retried) = (0, 0);
    for pair in pairs {
        let stats = check(pair, REVOCABLE);
        moved += (stats.migrations > 0) as u64;
        retried += (stats.migration_retries > 0) as u64;
        coverage.add(&stats);
    }
    coverage.print(what);
    println!("  migrations    reached in {moved} plans");
    println!("  migration_retries reached in {retried} plans");
    assert!(moved > 0, "no plan moved a chunk");
}

#[test]
fn a_seeded_sample_of_revoke_pairs_keeps_the_oracle() {
    let pairs = revoke_pairs();
    let mut rng = SimRng::new(53);
    let sample: Vec<_> = (0..SAMPLED_PAIRS)
        .map(|_| pairs[rng.below(pairs.len() as u64) as usize])
        .collect();
    check_revoke_pairs(&sample, "sampled revoke pairs");
}

#[test]
#[ignore = "every revoke pair: minutes in release (CI fault-smoke job)"]
fn every_revoke_pair_keeps_the_oracle() {
    let pairs = revoke_pairs();
    println!("{} revoke pairs", pairs.len());
    check_revoke_pairs(&pairs, "all revoke pairs");
}
