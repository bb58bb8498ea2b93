//! Hot-path batching: merged scatter-gather requests must be invisible to
//! every correctness observable. Property tests drive shuffled, overlapping
//! and mirrored write orders through a batching cluster and check byte-exact
//! read-back; the swap-consistency oracle (`tests/oracle/mod.rs`) runs
//! enumerated fault plans with merging on; and differentials pin the
//! batching-off path to the default configuration byte for byte.

mod oracle;

use hpbd_suite::blockdev::{new_buffer, Bio, BlockDevice, IoOp, IoRequest};
use hpbd_suite::hpbd::{ClusterBuilder, HpbdCluster, HpbdConfig};
use hpbd_suite::netmodel::Calibration;
use hpbd_suite::simcore::{Engine, SimRng};
use hpbd_suite::simfault::FaultPlan;
use hpbd_suite::workloads::{Scenario, ScenarioConfig, SwapKind};
use oracle::gen_fill;
use std::cell::Cell;
use std::rc::Rc;

const MB: u64 = 1 << 20;
const PAGE: u64 = 4096;

/// Run `f` over `cases` generated inputs, each seeded reproducibly.
fn for_cases(cases: u64, mut f: impl FnMut(u64, &mut SimRng)) {
    for case in 0..cases {
        let mut rng = SimRng::new(0xBA_7C_4E ^ (case * 0x9E37_79B9));
        f(case, &mut rng);
    }
}

fn batching_cluster(engine: &Engine, window_ns: u64, mirror: bool) -> HpbdCluster {
    let cal = Rc::new(Calibration::cluster_2005());
    ClusterBuilder::new()
        .servers(4)
        .per_server_capacity(2 * MB)
        .config(HpbdConfig {
            mirror_writes: mirror,
            batching: true,
            merge_window_ns: window_ns,
            ..HpbdConfig::default()
        })
        .build(engine, cal)
}

/// Submit one page write and count failures into `failures`.
fn write_page(dev: &impl BlockDevice, page: u64, fill: u8, failures: &Rc<Cell<u32>>) {
    let buf = new_buffer(PAGE as usize);
    buf.borrow_mut().fill(fill);
    let failures = failures.clone();
    dev.submit(IoRequest::single(Bio::new(
        IoOp::Write,
        page * PAGE,
        buf,
        move |r| {
            if r.is_err() {
                failures.set(failures.get() + 1);
            }
        },
    )));
}

/// Read every page in `pages` back and assert its fill matches `want`.
fn verify_pages(engine: &Engine, dev: &impl BlockDevice, pages: &[(u64, u8)], tag: &str) {
    let bufs: Vec<_> = pages
        .iter()
        .map(|&(page, _)| {
            let buf = new_buffer(PAGE as usize);
            dev.submit(IoRequest::single(Bio::new(
                IoOp::Read,
                page * PAGE,
                buf.clone(),
                |r| r.unwrap(),
            )));
            buf
        })
        .collect();
    engine.run_until_idle();
    for (&(page, want), buf) in pages.iter().zip(&bufs) {
        let buf = buf.borrow();
        assert!(
            buf.iter().all(|&b| b == want),
            "[{tag}] page {page}: read {:#04x}… but wanted {want:#04x}",
            buf[0],
        );
    }
}

/// Shuffled same-tick writes across the whole device merge into
/// scatter-gather messages; every page must read back byte-exact.
#[test]
fn merged_writes_preserve_bytes_under_shuffled_order() {
    for_cases(8, |case, rng| {
        let engine = Engine::new();
        let cluster = batching_cluster(&engine, 2_000, false);
        let dev = &cluster.client;
        let total_pages = dev.capacity() / PAGE;

        // A shuffled subset of pages, all submitted in one tick so the
        // merge window sees the full burst.
        let count = 64 + rng.below(129);
        let mut pages: Vec<u64> = (0..count).map(|_| rng.below(total_pages)).collect();
        pages.sort_unstable();
        pages.dedup();
        for i in (1..pages.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            pages.swap(i, j);
        }
        let failures = Rc::new(Cell::new(0u32));
        let expected: Vec<(u64, u8)> = pages
            .iter()
            .map(|&p| {
                let fill = gen_fill(p, case);
                write_page(dev, p, fill, &failures);
                (p, fill)
            })
            .collect();
        engine.run_until_idle();
        assert_eq!(failures.get(), 0, "case {case}: writes must succeed");
        verify_pages(&engine, dev, &expected, &format!("shuffled case {case}"));

        let stats = dev.stats();
        assert!(
            stats.merged_requests > 0,
            "case {case}: a {count}-page same-tick burst must merge: {stats:?}"
        );
        assert!(
            stats.merged_segments >= 2 * stats.merged_requests,
            "case {case}: merged messages carry at least two segments each"
        );
    });
}

/// Same-tick rewrites of the same page (an overlapping-retry order): the
/// planner must keep the two versions in separate messages and the fence
/// must land the later write, merged neighbours notwithstanding.
#[test]
fn overlapping_rewrites_keep_fence_order_through_merging() {
    for_cases(8, |case, rng| {
        let engine = Engine::new();
        let cluster = batching_cluster(&engine, 2_000, false);
        let dev = &cluster.client;
        let total_pages = dev.capacity() / PAGE;

        let count = 32 + rng.below(65);
        let mut pages: Vec<u64> = (0..count).map(|_| rng.below(total_pages)).collect();
        pages.sort_unstable();
        pages.dedup();
        let failures = Rc::new(Cell::new(0u32));
        // First generation to every page, then an immediate same-tick
        // rewrite of a deterministic half — both land in one merge window.
        for &p in &pages {
            write_page(dev, p, gen_fill(p, 0), &failures);
        }
        let expected: Vec<(u64, u8)> = pages
            .iter()
            .map(|&p| {
                if p % 2 == case % 2 {
                    let fill = gen_fill(p, 1);
                    write_page(dev, p, fill, &failures);
                    (p, fill)
                } else {
                    (p, gen_fill(p, 0))
                }
            })
            .collect();
        engine.run_until_idle();
        assert_eq!(failures.get(), 0, "case {case}: writes must succeed");
        verify_pages(&engine, dev, &expected, &format!("overlap case {case}"));
    });
}

/// Mirrored writes split every part into primary and replica copies whose
/// batch keys differ; merging must keep the two orders apart, and after a
/// crash the replicas must serve byte-exact data.
#[test]
fn mirror_part_orders_survive_merging_and_failover() {
    let engine = Engine::new();
    let cal = Rc::new(Calibration::cluster_2005());
    let cluster = ClusterBuilder::new()
        .servers(4)
        .per_server_capacity(2 * MB)
        .config(HpbdConfig {
            mirror_writes: true,
            batching: true,
            merge_window_ns: 2_000,
            request_timeout_ns: Some(2_000_000),
            max_retries: 1,
            ..HpbdConfig::default()
        })
        .fault_plan(FaultPlan::new().server_crash(50_000, 0))
        .build(&engine, cal);
    let dev = &cluster.client;
    let total_pages = dev.capacity() / PAGE;
    let failures = Rc::new(Cell::new(0u32));
    let expected: Vec<(u64, u8)> = (0..total_pages.min(384))
        .map(|p| {
            let fill = gen_fill(p, 0);
            write_page(dev, p, fill, &failures);
            (p, fill)
        })
        .collect();
    engine.run_until_idle();
    assert_eq!(failures.get(), 0, "mirrored writes must survive the crash");
    assert!(cluster.servers[0].is_crashed(), "the fault plan fired");
    verify_pages(&engine, dev, &expected, "mirror+crash");
    let stats = dev.stats();
    assert!(stats.merged_requests > 0, "the burst must merge: {stats:?}");
    assert!(
        stats.failovers > 0,
        "reads of the dead extent must fail over: {stats:?}"
    );
}

// -- swap-consistency oracle, batching on: pinned enumerated plans ----------
//
// Rows of the table in `tests/fault_recovery.rs`, on the enumeration's
// merging machine: a crash, a failover that never happens; a pair of
// delays, the write fence off.

const BATCHED: oracle::Machine = oracle::Machine {
    batching: true,
    ..oracle::TWO_SERVERS
};

oracle::rows! {
    batched_oracle_survives_server_crash: BATCHED, [(Crash, 0, 2000)], failovers;
    batched_oracle_survives_delayed_deliveries:
        BATCHED, [(Delay, 0, 0), (Delay, 1, 2000)], timeouts;
    batched_oracle_survives_combined_fault_plan:
        BATCHED, [(Crash, 0, 0), (Delay, 1, 0)], failovers;
}

// -- batching-off differential --------------------------------------------

/// Batching off must be the pre-batching client byte for byte: a run with
/// `batching = false` spelled out is identical — virtual time, event count,
/// metrics rendering, trace buffer — to one using the defaults.
#[test]
fn batching_off_is_byte_identical_to_default_config() {
    let run = |explicit_off: bool| {
        let mut config = ScenarioConfig::new(2 * MB, 16 * MB, SwapKind::Hpbd { servers: 2 });
        if explicit_off {
            config.hpbd.batching = false;
            config.hpbd.merge_window_ns = 3_000; // ignored while batching is off
        }
        let tracer = hpbd_suite::simcore::Tracer::enabled();
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
    let default = run(false);
    let explicit = run(true);
    assert_eq!(default.0, explicit.0, "virtual time must match");
    assert_eq!(default.1, explicit.1, "event count must match");
    assert_eq!(default.2, explicit.2, "metrics rendering must match");
    assert_eq!(
        default.3, explicit.3,
        "trace buffers must be byte-identical"
    );
}

/// Batching on vs off over an identical burst workload: the on run must
/// actually merge and must spend fewer messages per page moved. Driven
/// through the block device directly (not the VM scenario) so the traffic
/// is identical in every build profile.
#[test]
fn batching_improves_messages_per_page() {
    let run = |batching: bool| {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let cluster = ClusterBuilder::new()
            .servers(4)
            .per_server_capacity(2 * MB)
            .config(HpbdConfig {
                batching,
                ..HpbdConfig::default()
            })
            .build(&engine, cal);
        let dev = &cluster.client;
        let total_pages = dev.capacity() / PAGE;
        let failures = Rc::new(Cell::new(0u32));
        let mut rng = SimRng::new(0xBA_7C_4E);
        let mut expected = Vec::new();
        // Several same-tick bursts of scattered page writes, then a
        // same-tick read-back sweep — the message pattern batching exists
        // to compress.
        for round in 0..4u64 {
            let mut pages: Vec<u64> = (0..96).map(|_| rng.below(total_pages)).collect();
            pages.sort_unstable();
            pages.dedup();
            for &p in &pages {
                let fill = gen_fill(p, round);
                write_page(dev, p, fill, &failures);
                expected.retain(|&(q, _)| q != p);
                expected.push((p, fill));
            }
            engine.run_until_idle();
        }
        verify_pages(&engine, dev, &expected, "msgs-per-page");
        assert_eq!(failures.get(), 0);
        dev.stats()
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(off.merged_requests, 0, "off path must never merge");
    assert!(on.merged_requests > 0, "on path must merge: {on:?}");
    assert!(
        on.messages_per_page() < off.messages_per_page(),
        "merging must reduce messages per page: {:.4} vs {:.4}",
        on.messages_per_page(),
        off.messages_per_page()
    );
}
