//! Fault-injection integration tests: the recovery subsystem exercised
//! through the public API, plus the zero-cost guarantee — an empty fault
//! plan must leave every observable of a run byte-identical.

use hpbd_suite::blockdev::{
    new_buffer, Bio, BlockDevice, DeviceHealth, FaultKind, IoError, IoOp, IoRequest,
};
use hpbd_suite::hpbd::config::Distribution;
use hpbd_suite::hpbd::{ClientStats, ClusterBuilder, HpbdClient, HpbdCluster, HpbdConfig};
use hpbd_suite::netmodel::Calibration;
use hpbd_suite::simcore::{Engine, SimDuration, SimTime, Tracer};
use hpbd_suite::simfault::FaultPlan;
use hpbd_suite::workloads::{Scenario, ScenarioConfig, SwapKind};
use std::cell::Cell;
use std::rc::Rc;

mod oracle;

use oracle::{Machine, TWO_SERVERS};

const MB: u64 = 1 << 20;
const PAGE: u64 = 4096;

/// Deterministic page fill derived from the page index.
fn pattern(page: u64) -> u8 {
    (page.wrapping_mul(2654435761) >> 16) as u8 | 1
}

fn checksum(buf: &[u8]) -> u64 {
    // FNV-1a, good enough to catch torn or stale pages.
    buf.iter().fold(0xcbf29ce484222325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// Kill a server while a stream of swap-outs is in flight; every page must
/// still read back with the checksum it was written with, served from the
/// mirror replicas.
#[test]
fn killing_a_server_mid_swap_preserves_every_checksum() {
    let engine = Engine::new();
    let cal = Rc::new(Calibration::cluster_2005());
    let cluster = ClusterBuilder::new()
        .servers(4)
        .per_server_capacity(2 * MB)
        .config(HpbdConfig {
            mirror_writes: true,
            request_timeout_ns: Some(2_000_000),
            max_retries: 1,
            ..HpbdConfig::default()
        })
        // The write stream below starts at t=0; 50µs in, server 0 dies
        // with requests on the wire.
        .fault_plan(FaultPlan::new().server_crash(50_000, 0))
        .build(&engine, cal);
    let dev = &cluster.client;
    let pages = (dev.capacity() / PAGE).min(512);

    let mut expected = Vec::with_capacity(pages as usize);
    let write_failures = Rc::new(Cell::new(0u32));
    for p in 0..pages {
        let buf = new_buffer(PAGE as usize);
        buf.borrow_mut().fill(pattern(p));
        expected.push(checksum(&buf.borrow()));
        let failures = write_failures.clone();
        dev.submit(IoRequest::single(Bio::new(
            IoOp::Write,
            p * PAGE,
            buf,
            move |r| {
                if r.is_err() {
                    failures.set(failures.get() + 1);
                }
            },
        )));
    }
    engine.run_until_idle();
    assert_eq!(
        write_failures.get(),
        0,
        "mirrored writes must survive the crash"
    );
    assert!(cluster.servers[0].is_crashed(), "the fault plan fired");
    assert_eq!(dev.health(), DeviceHealth::Degraded { failed_servers: 1 });

    // Read everything back and verify the checksums.
    let bufs: Vec<_> = (0..pages)
        .map(|p| {
            let buf = new_buffer(PAGE as usize);
            dev.submit(IoRequest::single(Bio::new(
                IoOp::Read,
                p * PAGE,
                buf.clone(),
                |r| r.unwrap(),
            )));
            buf
        })
        .collect();
    engine.run_until_idle();
    for (p, buf) in bufs.iter().enumerate() {
        assert_eq!(
            checksum(&buf.borrow()),
            expected[p],
            "page {p} corrupted by the crash/failover path"
        );
    }
    let stats = dev.stats();
    assert!(
        stats.failovers > 0,
        "reads of the dead server's extent must have failed over: {stats:?}"
    );
}

/// The same crash without mirroring: the affected I/O must fail cleanly
/// with a typed fault — never hang, never complete with wrong data.
#[test]
fn killing_a_server_without_mirroring_fails_cleanly() {
    let engine = Engine::new();
    let cal = Rc::new(Calibration::cluster_2005());
    let cluster = ClusterBuilder::new()
        .servers(2)
        .per_server_capacity(2 * MB)
        .config(HpbdConfig {
            request_timeout_ns: Some(1_000_000),
            ..HpbdConfig::default()
        })
        .fault_plan(FaultPlan::new().server_crash(10_000_000, 0))
        .build(&engine, cal);
    let dev = cluster.client.clone();
    // Let the crash fire, then touch the dead extent.
    engine.advance(SimDuration::from_nanos(20_000_000));
    let got = Rc::new(Cell::new(None));
    let sink = got.clone();
    dev.submit(IoRequest::single(Bio::new(
        IoOp::Read,
        0,
        new_buffer(PAGE as usize),
        move |r| sink.set(Some(r)),
    )));
    engine.run_until_idle();
    match got.get() {
        Some(Err(IoError::Fault(FaultKind::Timeout | FaultKind::ServerDead))) => {}
        other => panic!("expected a typed fault, got {other:?}"),
    }
}

/// The zero-cost guarantee of the fault subsystem: a run configured with an
/// explicitly-empty `FaultPlan` is byte-identical — virtual time, event
/// count, full metrics rendering, and the entire trace buffer — to a run
/// that never mentions fault plans at all.
#[test]
fn empty_fault_plan_is_byte_identical_to_no_fault_plan() {
    let run = |explicit_empty_plan: bool| {
        let mut config = ScenarioConfig::new(2 * MB, 16 * MB, SwapKind::Hpbd { servers: 2 });
        if explicit_empty_plan {
            config.fault_plan = FaultPlan::new();
        }
        let tracer = Tracer::enabled();
        config.tracer = Some(tracer.clone());
        let scenario = Scenario::build(&config);
        let report = scenario.run_qsort(512 * 1024, 1234);
        (
            report.elapsed,
            report.events,
            report.metrics.render_text(),
            tracer.snapshot(),
        )
    };
    let baseline = run(false);
    let explicit = run(true);
    assert_eq!(baseline.0, explicit.0, "virtual time must match");
    assert_eq!(baseline.1, explicit.1, "event count must match");
    assert_eq!(baseline.2, explicit.2, "metrics rendering must match");
    assert_eq!(
        baseline.3, explicit.3,
        "trace buffers must be byte-identical"
    );
}

// -- swap-consistency oracle: pinned enumerated plans -----------------------
//
// Each row runs one plan the fault enumeration generates
// (`tests/fault_enumeration.rs`) through the one oracle,
// `tests/oracle/mod.rs`, and catches a seeded mutation (EXPERIMENTS
// *Fault enumeration*): crashes, a failover that never happens; a
// restart inside the timeout, epoch detection off or a restart that does
// not re-arm its send CQ; a loss, a timer that is never armed; a
// completion error, no retry; a delay or a duplicate, a panic on a reply
// whose request is gone. The direct rows drive `DirectBackend`, with
// runs split across the extent boundary: a delay pair, the write fence
// off. A duplicate there moves no client counter (its ghost reply finds
// no request), so that row names none.

const DIRECT: Machine = Machine {
    direct: true,
    ..TWO_SERVERS
};

oracle::rows! {
    oracle_survives_server_crash: TWO_SERVERS, [(Crash, 0, 2760)], failovers;
    oracle_survives_crash_then_restart:
        TWO_SERVERS, [(Crash, 0, 0), (Restart, 0, 2760)], failovers;
    oracle_survives_in_window_crash_restart:
        TWO_SERVERS, [(Crash, 0, 124724), (Restart, 0, 138348)], epoch_wipes;
    oracle_survives_message_loss: TWO_SERVERS, [(Loss, 0, 2760)], timeouts;
    oracle_survives_completion_errors: TWO_SERVERS, [(CompletionError, 0, 2760)], retries;
    oracle_survives_delayed_deliveries: TWO_SERVERS, [(Delay, 0, 2760)], timeouts;
    oracle_survives_duplicated_deliveries: TWO_SERVERS, [(Dup, 0, 2760)], timeouts;
    oracle_survives_combined_fault_plan:
        TWO_SERVERS, [(Crash, 0, 0), (Delay, 1, 0)], failovers;
    direct_oracle_survives_server_crash: DIRECT, [(Crash, 0, 7880)], failovers;
    direct_oracle_survives_message_loss: DIRECT, [(Loss, 0, 7880)], timeouts;
    direct_oracle_survives_delayed_deliveries:
        DIRECT, [(Delay, 0, 86646), (Delay, 1, 173292)], timeouts;
    direct_oracle_survives_duplicated_deliveries: DIRECT, [(Dup, 0, 0)];
    direct_oracle_survives_combined_fault_plan:
        DIRECT, [(Crash, 0, 0), (Loss, 0, 0)], failovers;
}

/// Counter-test for the differential above: a *non-empty* plan must leave
/// visible fingerprints (the fault fires, recovery counters move), proving
/// the differential test would catch an armed plan leaking into the
/// baseline.
#[test]
fn non_empty_fault_plan_changes_the_run() {
    let run = |faulty: bool| {
        let mut config = ScenarioConfig::new(2 * MB, 16 * MB, SwapKind::Hpbd { servers: 2 });
        config.hpbd.mirror_writes = true;
        config.hpbd.request_timeout_ns = Some(2_000_000);
        if faulty {
            config.fault_plan = FaultPlan::new().server_crash(5_000_000, 0);
        }
        let scenario = Scenario::build(&config);
        let report = scenario.run_qsort(512 * 1024, 1234);
        let stats = report.hpbd_client.clone().unwrap();
        (report.elapsed, stats.failovers + stats.timeouts)
    };
    let (healthy_elapsed, healthy_faults) = run(false);
    let (faulty_elapsed, faulty_faults) = run(true);
    assert_eq!(healthy_faults, 0);
    assert!(
        faulty_faults > 0,
        "the crash must force timeouts or failovers"
    );
    assert_ne!(
        healthy_elapsed, faulty_elapsed,
        "losing a server must shift the virtual timeline"
    );
}

// -- placement: where a device byte and its replica live ---------------------

/// Submit a one-page write of `fill` at `offset`; it must succeed.
fn write_page(dev: &HpbdClient, offset: u64, fill: u8) {
    let buf = new_buffer(PAGE as usize);
    buf.borrow_mut().fill(fill);
    dev.submit(IoRequest::single(Bio::new(IoOp::Write, offset, buf, |r| {
        r.unwrap()
    })));
}

/// Submit a one-page read at `offset`: its buffer and, once it completes,
/// its result.
type PendingRead = (
    hpbd_suite::blockdev::IoBuffer,
    Rc<Cell<Option<Result<(), IoError>>>>,
);

fn read_page(dev: &HpbdClient, offset: u64) -> PendingRead {
    read_pages(dev, offset, 1)
}

/// Submit one read of `pages` pages at `offset`.
fn read_pages(dev: &HpbdClient, offset: u64, pages: u64) -> PendingRead {
    let buf = new_buffer((pages * PAGE) as usize);
    let result = Rc::new(Cell::new(None));
    let sink = result.clone();
    dev.submit(IoRequest::single(Bio::new(
        IoOp::Read,
        offset,
        buf.clone(),
        move |r| sink.set(Some(r)),
    )));
    (buf, result)
}

/// Read pages `0..pages` back and check each holds `pattern(page)`.
fn assert_pages_read_back(engine: &Engine, dev: &HpbdClient, pages: u64, what: &str) {
    let reads: Vec<_> = (0..pages).map(|p| read_page(dev, p * PAGE)).collect();
    engine.run_until_idle();
    for (p, (buf, result)) in reads.iter().enumerate() {
        assert_eq!(result.get(), Some(Ok(())), "{what}: read of page {p}");
        assert!(
            buf.borrow().iter().all(|&b| b == pattern(p as u64)),
            "{what}: page {p} read back other bytes than were written"
        );
    }
}

/// A read already re-routed to its replica has no third copy. When the
/// replica's server dies too, the read must fail with a typed fault, not
/// move on to the next server's replica region, which holds another
/// server's pages.
#[test]
fn a_read_on_its_replica_fails_when_the_replica_dies_too() {
    let engine = Engine::new();
    let cluster = ClusterBuilder::new()
        .servers(3)
        .per_server_capacity(MB)
        .config(HpbdConfig {
            mirror_writes: true,
            request_timeout_ns: Some(1_000_000),
            ..HpbdConfig::default()
        })
        .build(&engine, Rc::new(Calibration::cluster_2005()));
    let dev = &cluster.client;
    for (server, fill) in [0xA0, 0xB1, 0xC2].into_iter().enumerate() {
        write_page(dev, server as u64 * MB, fill);
    }
    engine.run_until_idle();
    cluster.servers[0].crash();
    let (buf, result) = read_page(dev, 0);
    while dev.stats().failovers == 0 {
        assert!(engine.step_one(), "the read must fail over to server 1");
    }
    cluster.servers[1].crash();
    engine.run_until_idle();
    assert_eq!(
        result.get(),
        Some(Err(IoError::Fault(FaultKind::Timeout))),
        "page 0 has no copy left; read back {:#04x}",
        buf.borrow()[0]
    );
    assert!(
        buf.borrow().iter().all(|&b| b == 0),
        "no bytes were scattered"
    );
}

/// Revocation under mirroring: the migrated chunk's mirror leg lands in its
/// new home's replica region on the next server, so the move finishes, and
/// the pages survive a crash of the new home.
#[test]
fn a_chunk_migrated_under_mirroring_keeps_its_replica() {
    let engine = Engine::new();
    let cluster = ClusterBuilder::new()
        .servers(3)
        .per_server_capacity(MB)
        .config(HpbdConfig {
            mirror_writes: true,
            chunk_bytes: 256 << 10,
            spare_chunks: 4,
            // Long enough for the migration's 256 KiB writes.
            request_timeout_ns: Some(5_000_000),
            ..HpbdConfig::default()
        })
        .build(&engine, Rc::new(Calibration::cluster_2005()));
    let dev = &cluster.client;
    const PAGES: u64 = 64;
    for p in 0..PAGES {
        write_page(dev, p * PAGE, pattern(p));
    }
    engine.run_until_idle();
    cluster.servers[0].revoke(0, 256 << 10);
    engine.run_until_idle();
    let stats = dev.stats();
    assert_eq!(stats.migrations, 1, "the revoked chunk moved");
    assert_eq!(stats.mirror_drops, 0, "with its replica");
    let served_before: Vec<u64> = cluster
        .servers
        .iter()
        .map(|s| s.stats().bytes_out)
        .collect();
    assert_pages_read_back(&engine, dev, PAGES, "after the migration");
    let served: Vec<usize> = (0..cluster.servers.len())
        .filter(|&i| cluster.servers[i].stats().bytes_out > served_before[i])
        .collect();
    let [home] = served[..] else {
        panic!("one new home serves the chunk, not {served:?}");
    };
    assert_ne!(home, 0, "the revoked range serves nothing");
    cluster.servers[home].crash();
    assert_pages_read_back(&engine, dev, PAGES, "after the new home crashed");
    assert!(dev.stats().failovers > 0, "the reads came from the replica");
}

/// Revocation under striping moves the stripes that live in the revoked
/// range: the map holds one chunk per stripe.
#[test]
fn striped_revocation_moves_every_stripe_in_the_range() {
    let engine = Engine::new();
    let cluster = ClusterBuilder::new()
        .servers(2)
        .per_server_capacity(MB)
        .config(HpbdConfig {
            distribution: Distribution::Striped {
                stripe_bytes: 64 << 10,
            },
            spare_chunks: 4,
            ..HpbdConfig::default()
        })
        .build(&engine, Rc::new(Calibration::cluster_2005()));
    let dev = &cluster.client;
    const PAGES: u64 = 128;
    for p in 0..PAGES {
        write_page(dev, p * PAGE, pattern(p));
    }
    engine.run_until_idle();
    cluster.servers[0].revoke(0, 256 << 10);
    engine.run_until_idle();
    assert_eq!(dev.stats().migrations, 4, "four 64 KiB stripes moved");
    let served_before = cluster.servers[0].stats().bytes_out;
    assert_pages_read_back(&engine, dev, PAGES, "after the migration");
    assert_eq!(
        cluster.servers[0].stats().bytes_out,
        served_before,
        "server 0 served none of its revoked range"
    );
}

/// Striping with mirrored writes: every stripe has a replica on the next
/// server, and a crash fails over to it.
#[test]
fn striped_mirrored_writes_survive_a_crash() {
    let engine = Engine::new();
    let cluster = ClusterBuilder::new()
        .servers(3)
        .per_server_capacity(MB)
        .config(HpbdConfig {
            distribution: Distribution::Striped {
                stripe_bytes: 16 << 10,
            },
            mirror_writes: true,
            request_timeout_ns: Some(1_000_000),
            ..HpbdConfig::default()
        })
        .build(&engine, Rc::new(Calibration::cluster_2005()));
    let dev = &cluster.client;
    const PAGES: u64 = 96;
    for p in 0..PAGES {
        write_page(dev, p * PAGE, pattern(p));
    }
    engine.run_until_idle();
    cluster.servers[1].crash();
    assert_pages_read_back(&engine, dev, PAGES, "after server 1 crashed");
    assert!(dev.stats().failovers > 0, "server 1's stripes failed over");
    assert_eq!(dev.health(), DeviceHealth::Degraded { failed_servers: 1 });
}

// -- dynamic memory: a chunk's move lives in its placement-map entry ---------

/// The revocation tests' machine: `servers` servers of 1 MiB, 256 KiB
/// chunks, 4 spare chunks each, `config` for the rest, and pages
/// `0..pages` written with `pattern`.
fn revocable_cluster(
    engine: &Engine,
    servers: usize,
    config: HpbdConfig,
    plan: FaultPlan,
    pages: u64,
) -> HpbdCluster {
    let cluster = ClusterBuilder::new()
        .servers(servers)
        .per_server_capacity(MB)
        .config(HpbdConfig {
            chunk_bytes: 256 << 10,
            spare_chunks: 4,
            ..config
        })
        .fault_plan(plan)
        .build(engine, Rc::new(Calibration::cluster_2005()));
    for p in 0..pages {
        write_page(&cluster.client, p * PAGE, pattern(p));
    }
    cluster
}

/// Step `engine` until `done` holds.
fn step_until(engine: &Engine, dev: &HpbdClient, done: impl Fn(&ClientStats) -> bool) {
    while !done(&dev.stats()) {
        assert!(engine.step_one(), "the engine went idle first");
    }
}

/// A revoke notice delivered twice moves its chunk once: the second copy
/// finds the chunk already moving. Two moves of one chunk used to race,
/// and reads after the first returned zeros with `Ok`.
#[test]
fn a_duplicated_revoke_notice_moves_the_chunk_once() {
    let engine = Engine::new();
    let plan = FaultPlan::new().message_duplicate(10_000_000, 0, 1);
    let cluster = revocable_cluster(&engine, 3, HpbdConfig::default(), plan, 64);
    let dev = &cluster.client;
    engine.run_until(SimTime(20_000_000));
    cluster.servers[0].revoke(0, 256 << 10);
    step_until(&engine, dev, |s| s.migrations >= 1);
    assert_pages_read_back(&engine, dev, 64, "after the move");
    let stats = dev.stats();
    assert_eq!(stats.revocations, 2, "the notice arrived twice");
    assert_eq!(stats.migrations, 1, "the chunk moved once");
}

/// A notice re-issued wider while the first move runs starts only the
/// chunks that are not moving yet.
#[test]
fn a_widened_revoke_notice_moves_each_chunk_once() {
    let engine = Engine::new();
    let cluster = revocable_cluster(&engine, 3, HpbdConfig::default(), FaultPlan::new(), 128);
    let dev = &cluster.client;
    cluster.servers[0].revoke(0, 256 << 10);
    engine.advance(SimDuration::from_micros(200));
    cluster.servers[0].revoke(0, 512 << 10);
    step_until(&engine, dev, |s| s.migrations >= 2);
    assert_pages_read_back(&engine, dev, 128, "after the moves");
    assert_eq!(dev.stats().migrations, 2, "two chunks, one move each");
}

/// With no live server left to take the chunk, the move ends with the
/// chunk at its old home: the reclaim is advisory until a move completes.
#[test]
fn a_move_with_nowhere_to_go_leaves_the_chunk_at_home() {
    let engine = Engine::new();
    let config = HpbdConfig {
        mirror_writes: true,
        request_timeout_ns: Some(1_000_000),
        ..HpbdConfig::default()
    };
    let cluster = revocable_cluster(&engine, 2, config, FaultPlan::new(), 64);
    let dev = &cluster.client;
    write_page(dev, MB, 0xB1);
    engine.run_until_idle();
    cluster.servers[1].crash();
    let (_, result) = read_page(dev, MB);
    engine.run_until_idle();
    assert_eq!(result.get(), Some(Ok(())), "served by the replica");
    assert_eq!(dev.health(), DeviceHealth::Degraded { failed_servers: 1 });
    cluster.servers[0].revoke(0, 256 << 10);
    engine.run_until_idle();
    assert_eq!(dev.stats().migrations, 0, "no spare on a live server");
    assert_pages_read_back(&engine, dev, 64, "from the old home");
}

/// A request deferred behind two moving chunks is deferred, and counted,
/// once: when the first move ends it stays queued for the second.
#[test]
fn a_request_is_deferred_once() {
    let engine = Engine::new();
    let cluster = revocable_cluster(&engine, 3, HpbdConfig::default(), FaultPlan::new(), 128);
    let dev = &cluster.client;
    cluster.servers[0].revoke(0, 512 << 10);
    step_until(&engine, dev, |s| s.revocations == 1);
    let first = (256 << 10) / PAGE - 1;
    let reads = [
        (first, read_pages(dev, first * PAGE, 2)),
        (0, read_page(dev, 0)),
    ];
    engine.run_until_idle();
    assert_eq!(dev.stats().deferred_requests, 2, "each read deferred once");
    for (page, (buf, result)) in reads {
        assert_eq!(result.get(), Some(Ok(())), "read at page {page}");
        for (i, bytes) in buf.borrow().chunks(PAGE as usize).enumerate() {
            let fill = pattern(page + i as u64);
            assert!(bytes.iter().all(|&b| b == fill), "page {}", page + i as u64);
        }
    }
}

/// A move whose home dies mid-move, with no copy elsewhere, fails every
/// round; once the retries are spent the move ends with the chunk at its
/// old home, and the I/O it held back fails with a typed error.
#[test]
fn a_move_that_keeps_failing_ends_and_its_io_fails_typed() {
    let engine = Engine::new();
    let config = HpbdConfig {
        request_timeout_ns: Some(1_000_000),
        ..HpbdConfig::default()
    };
    let cluster = revocable_cluster(&engine, 2, config, FaultPlan::new(), 64);
    let dev = &cluster.client;
    engine.run_until_idle();
    cluster.servers[0].revoke(0, 256 << 10);
    step_until(&engine, dev, |s| s.revocations == 1);
    cluster.servers[0].crash();
    let (_, result) = read_page(dev, 0);
    engine.run_until_idle();
    let stats = dev.stats();
    assert_eq!((stats.migrations, stats.migration_retries), (0, 10));
    assert!(
        matches!(result.get(), Some(Err(IoError::Fault(_)))),
        "the read fails typed: {:?}",
        result.get()
    );
}
