//! Cross-crate integration tests: the whole stack from application access
//! down to simulated RDMA, exercised through the public API.

use hpbd_suite::blockdev::{new_buffer, Bio, BlockDevice, IoOp, IoRequest};
use hpbd_suite::hpbd::ClusterBuilder;
use hpbd_suite::netmodel::{Calibration, Transport};
use hpbd_suite::simcore::Engine;
use hpbd_suite::vmsim::{AddressSpace, PagedVec};
use hpbd_suite::workloads::kvstore::KvParams;
use hpbd_suite::workloads::{Scenario, ScenarioConfig, SwapKind, SwapPath};
use std::cell::Cell;
use std::rc::Rc;

const MB: u64 = 1 << 20;

#[test]
fn paged_data_round_trips_through_remote_memory() {
    // An array 4x local memory, written and read back entirely, with the
    // backing store on simulated remote memory over simulated InfiniBand.
    let config = ScenarioConfig::new(2 * MB, 16 * MB, SwapKind::Hpbd { servers: 2 });
    let scenario = Scenario::build(&config);
    let space = AddressSpace::new(&scenario.vm);
    let n = 2 * 1024 * 1024; // 8 MiB of i32
    let v: PagedVec<i32> = PagedVec::new(&space, n);
    for i in (0..n).step_by(7) {
        v.set(i, (i as i32).wrapping_mul(2654435761u32 as i32));
    }
    for i in (0..n).step_by(7) {
        assert_eq!(
            v.get(i),
            (i as i32).wrapping_mul(2654435761u32 as i32),
            "element {i} corrupted through the HPBD path"
        );
    }
    let stats = scenario.vm.stats();
    assert!(
        stats.swap_outs > 1000,
        "pressure must have paged: {stats:?}"
    );
    let client = scenario.hpbd.as_ref().unwrap().client.stats();
    assert!(client.bytes_out > 4 * MB, "data went over the wire");
}

#[test]
fn every_swap_backend_preserves_quicksort_correctness() {
    for kind in [
        SwapKind::Hpbd { servers: 1 },
        SwapKind::Hpbd { servers: 3 },
        SwapKind::Nbd {
            transport: Transport::IpoIb,
        },
        SwapKind::Nbd {
            transport: Transport::GigE,
        },
        SwapKind::Disk,
    ] {
        let config = ScenarioConfig::new(MB, 8 * MB, kind.clone());
        let scenario = Scenario::build(&config);
        // run_qsort debug-asserts sortedness; in release, verify by stats:
        // it must at least have completed with sane counters.
        let report = scenario.run_qsort(512 * 1024, 99);
        assert!(report.vm.swap_outs > 0, "{kind:?} should page");
        assert!(report.elapsed.as_nanos() > 0);
    }
}

#[test]
fn determinism_same_seed_same_virtual_time() {
    let run = || {
        let config = ScenarioConfig::new(2 * MB, 16 * MB, SwapKind::Hpbd { servers: 2 });
        let scenario = Scenario::build(&config);
        let report = scenario.run_qsort(512 * 1024, 1234);
        (report.elapsed, report.vm.swap_outs, report.requests)
    };
    let a = run();
    let b = run();
    assert_eq!(
        a, b,
        "identical runs must produce identical virtual timings"
    );
}

#[test]
fn different_seeds_differ_in_detail_but_not_shape() {
    let run = |seed| {
        let config = ScenarioConfig::new(2 * MB, 16 * MB, SwapKind::Hpbd { servers: 1 });
        let scenario = Scenario::build(&config);
        scenario.run_qsort(512 * 1024, seed).elapsed.as_secs_f64()
    };
    let a = run(1);
    let b = run(2);
    // Same configuration: runtimes within 20% of each other.
    assert!(
        (a - b).abs() / a < 0.2,
        "seed variance too large: {a} vs {b}"
    );
}

#[test]
fn hpbd_device_handles_interleaved_read_write_bursts() {
    let engine = Engine::new();
    let cal = Rc::new(Calibration::cluster_2005());
    let cluster = ClusterBuilder::new()
        .servers(3)
        .per_server_capacity(4 * MB)
        .build(&engine, cal);
    let dev = &cluster.client;
    let done = Rc::new(Cell::new(0u32));
    // Interleave 128 writes and reads across the whole device.
    for i in 0..128u64 {
        let offset = (i * 97) % (dev.capacity() / 4096) * 4096;
        let buf = new_buffer(4096);
        buf.borrow_mut().fill((i % 251) as u8);
        let done2 = done.clone();
        dev.submit(IoRequest::single(Bio::new(
            IoOp::Write,
            offset,
            buf,
            move |r| {
                r.unwrap();
                done2.set(done2.get() + 1);
            },
        )));
        if i % 3 == 0 {
            let done2 = done.clone();
            dev.submit(IoRequest::single(Bio::new(
                IoOp::Read,
                offset,
                new_buffer(4096),
                move |r| {
                    r.unwrap();
                    done2.set(done2.get() + 1);
                },
            )));
        }
    }
    engine.run_until_idle();
    assert_eq!(done.get(), 128 + 43);
    // All three servers were exercised by the scattered offsets.
    assert!(cluster.servers.iter().all(|s| s.stats().requests > 0));
}

#[test]
fn nbd_and_hpbd_agree_on_stored_bytes() {
    // The same write/read sequence through both devices yields the same
    // data (they differ only in timing).
    let run = |kind: SwapKind| -> Vec<u8> {
        let config = ScenarioConfig::new(32 * MB, 8 * MB, kind);
        let scenario = Scenario::build(&config);
        let queue = scenario.swap_queue.clone().expect("swap device");
        let engine = scenario.engine.clone();
        for i in 0..16u64 {
            let buf = new_buffer(4096);
            buf.borrow_mut().fill(i as u8 + 1);
            queue.submit_now(Bio::new(IoOp::Write, i * 4096, buf, |r| r.unwrap()));
        }
        engine.run_until_idle();
        let out = new_buffer(16 * 4096);
        queue.submit_now(Bio::new(IoOp::Read, 0, out.clone(), |r| r.unwrap()));
        engine.run_until_idle();
        let v = out.borrow().clone();
        v
    };
    let hpbd = run(SwapKind::Hpbd { servers: 2 });
    let nbd = run(SwapKind::Nbd {
        transport: Transport::GigE,
    });
    assert_eq!(hpbd, nbd);
}

#[test]
fn two_processes_share_one_vm_without_aliasing() {
    let config = ScenarioConfig::new(2 * MB, 16 * MB, SwapKind::Hpbd { servers: 1 });
    let scenario = Scenario::build(&config);
    let s1 = AddressSpace::new(&scenario.vm);
    let s2 = AddressSpace::new(&scenario.vm);
    let a: PagedVec<u64> = PagedVec::new(&s1, 256 * 1024);
    let b: PagedVec<u64> = PagedVec::new(&s2, 256 * 1024);
    for i in 0..a.len() {
        a.set(i, i as u64);
        b.set(i, !(i as u64));
    }
    for i in (0..a.len()).step_by(13) {
        assert_eq!(a.get(i), i as u64);
        assert_eq!(b.get(i), !(i as u64));
    }
}

#[test]
fn quicksort_survives_memory_server_crash_with_mirroring() {
    use hpbd_suite::hpbd::HpbdConfig;
    use hpbd_suite::simcore::SimDuration;
    use hpbd_suite::vmsim::AddressSpace;
    use hpbd_suite::workloads::qsort::QsortTask;
    use hpbd_suite::workloads::Scheduler;

    let mut config = ScenarioConfig::new(MB, 16 * MB, SwapKind::Hpbd { servers: 3 });
    config.hpbd = HpbdConfig {
        mirror_writes: true,
        request_timeout_ns: Some(5_000_000),
        ..HpbdConfig::default()
    };
    let scenario = Scenario::build(&config);
    // One memory server dies 50ms into the run, mid-paging.
    let cluster = scenario.hpbd.as_ref().unwrap();
    let victim = cluster.servers[0].clone();
    scenario
        .engine
        .schedule_in(SimDuration::from_millis(50), move || victim.crash());

    let space = AddressSpace::new(&scenario.vm);
    let mut task = QsortTask::new(&space, 512 * 1024, 31, 4, "crash-qsort");
    Scheduler::new(scenario.engine.clone(), 2).run_one(&mut task);
    assert!(
        task.is_sorted(),
        "the sort must be correct despite losing a memory server"
    );
    let stats = cluster.client.stats();
    assert!(stats.timeouts >= 1, "the crash must have been detected");
    assert!(stats.failovers >= 1, "and survived via replicas");
    assert!(
        scenario.vm.stats().swap_ins > 0,
        "pages came back from swap (some from replicas)"
    );
}

#[test]
fn quicksort_survives_memory_revocation_mid_run() {
    use hpbd_suite::hpbd::HpbdConfig;
    use hpbd_suite::simcore::SimDuration;
    use hpbd_suite::vmsim::AddressSpace;
    use hpbd_suite::workloads::qsort::QsortTask;
    use hpbd_suite::workloads::Scheduler;

    let mut config = ScenarioConfig::new(MB, 12 * MB, SwapKind::Hpbd { servers: 3 });
    config.hpbd = HpbdConfig {
        chunk_bytes: 512 * 1024,
        spare_chunks: 6,
        ..HpbdConfig::default()
    };
    let scenario = Scenario::build(&config);
    let cluster = scenario.hpbd.as_ref().unwrap();
    // Server 0's host wants a quarter of its memory back, mid-run.
    let landlord = cluster.servers[0].clone();
    scenario
        .engine
        .schedule_in(SimDuration::from_millis(40), move || {
            landlord.revoke(0, 1 << 20)
        });

    let space = AddressSpace::new(&scenario.vm);
    let mut task = QsortTask::new(&space, 512 * 1024, 77, 4, "revoke-qsort");
    Scheduler::new(scenario.engine.clone(), 2).run_one(&mut task);
    assert!(task.is_sorted(), "sort correct across the revocation");
    let stats = cluster.client.stats();
    assert_eq!(stats.revocations, 1);
    assert_eq!(stats.migrations, 2, "two 512K chunks in the revoked 1MB");
}

/// A finished machine frees itself, whatever its swap device and path.
/// Everything that models a machine's costs holds the calibration (every
/// fabric node, the NBD server, the VM), so once the `Scenario` is dropped
/// a count of one means all it built is gone. HPBD's CQ handlers, NBD's
/// connection continuations and the VM's swap completions (a request still
/// in flight in the device the VM owns) used to capture their own owner,
/// and the event a run leaves queued held the client through the engine it
/// schedules on.
#[test]
fn machines_free_themselves_on_drop() {
    let kinds = [
        SwapKind::LocalOnly,
        SwapKind::Hpbd { servers: 2 },
        SwapKind::Nbd {
            transport: Transport::GigE,
        },
        SwapKind::Nbd {
            transport: Transport::IpoIb,
        },
        SwapKind::Disk,
    ];
    for kind in kinds {
        for path in [SwapPath::Block, SwapPath::Direct] {
            let cal = Rc::new(Calibration::cluster_2005());
            // Local-only must fit the workload in memory; the rest swap.
            let local = matches!(kind, SwapKind::LocalOnly);
            let mem = if local { 16 * MB } else { MB };
            let mut config = ScenarioConfig::new(mem, 8 * MB, kind.clone());
            config.swap_path = path;
            let scenario = Scenario::build_with(&config, cal.clone());
            scenario.run_kvstore(KvParams {
                records: 20_000,
                operations: 5_000,
                ..KvParams::default()
            });
            let swapped = scenario.vm.stats().swap_outs > 0;
            assert_eq!(swapped, !local, "{kind:?} on {path:?}");
            drop(scenario);
            assert_eq!(
                Rc::strong_count(&cal),
                1,
                "{kind:?} on {path:?}: a dropped machine must free everything it built"
            );
        }
    }
}
