//! Request-lifecycle tracing properties.
//!
//! The central invariant: for every completed swap request, the six
//! recorded phase durations sum to its end-to-end latency **exactly**
//! (virtual clock, no tolerance) — on the healthy path, across NBD's
//! blocking transfers, and through HPBD timeouts, retries and failovers
//! under an armed fault plan. On top of that: the flight-recorder query
//! API answers consistently, dumps are byte-identical across reruns
//! (determinism), recorder state never leaks between runs, and an
//! anomalous request auto-dumps once into the configured directory.

use hpbd_suite::netmodel::Transport;
use hpbd_suite::simfault::FaultPlan;
use hpbd_suite::simtrace::{FlightSummary, Phase};
use hpbd_suite::workloads::{RunReport, Scenario, ScenarioConfig, SwapKind};

const MB: u64 = 1 << 20;

/// Every record still in the ring must tile its [submit, end] interval.
fn assert_exact_sums(summary: &FlightSummary, label: &str) -> u64 {
    let mut checked = 0;
    for dev in &summary.devices {
        assert_eq!(
            dev.sum_mismatches, 0,
            "{label}/{}: {} of {} requests violated the phase-sum invariant",
            dev.device, dev.sum_mismatches, dev.total
        );
        for r in &dev.records {
            let sum: u64 = r.phase_ns.iter().sum();
            assert_eq!(
                sum,
                r.e2e_ns(),
                "{label}/{}: request {} phases {:?} sum to {} != e2e {}",
                dev.device,
                r.req,
                r.phase_ns,
                sum,
                r.e2e_ns()
            );
            checked += 1;
        }
    }
    checked
}

fn hpbd_scenario(fault_plan: FaultPlan) -> ScenarioConfig {
    let mut config = ScenarioConfig::new(2 * MB, 16 * MB, SwapKind::Hpbd { servers: 4 });
    config.hpbd.mirror_writes = true;
    config.hpbd.request_timeout_ns = Some(2_000_000);
    config.hpbd.max_retries = 1;
    config.fault_plan = fault_plan;
    config.record_lifecycle = true;
    config
}

fn run_qsort(config: &ScenarioConfig, seed: u64) -> RunReport {
    let scenario = Scenario::build(config);
    scenario.run_qsort(512 * 1024, seed)
}

#[test]
fn healthy_hpbd_requests_tile_exactly() {
    let report = run_qsort(&hpbd_scenario(FaultPlan::new()), 11);
    let summary = report.lifecycle.expect("lifecycle was enabled");
    let dev = summary.device("hpbd0").expect("swap traffic on hpbd0");
    assert!(
        dev.total > 100,
        "workload must actually swap: {}",
        dev.total
    );
    assert_eq!(dev.failed, 0, "healthy run must not fail requests");
    let checked = assert_exact_sums(&summary, "healthy");
    assert!(checked > 0, "ring must retain records");
    // The data path must attribute time beyond Queue: the wire, the
    // server and the RDMA engine all really run.
    for phase in [Phase::Wire, Phase::ServerService, Phase::RdmaPull] {
        assert!(
            dev.phase_total_ns(phase) > 0,
            "phase {phase:?} never observed"
        );
    }
    assert_eq!(
        dev.phase_total_ns(Phase::RetryOverhead),
        0,
        "no recovery cost without faults"
    );
}

#[test]
fn crashed_server_requests_still_tile_exactly_including_failovers() {
    // Server 0 fail-stops mid-run: requests time out, retry, then fail
    // over to the mirror replica. Every affected request must still
    // account for every nanosecond, with the doomed attempts relabeled
    // to RetryOverhead.
    let report = run_qsort(
        &hpbd_scenario(FaultPlan::new().server_crash(10_000_000, 0)),
        11,
    );
    let stats = report.hpbd_client.clone().expect("hpbd scenario");
    let summary = report.lifecycle.expect("lifecycle was enabled");
    let dev = summary.device("hpbd0").expect("swap traffic on hpbd0");
    assert!(
        stats.failovers > 0,
        "the crash must force failovers (timeouts={})",
        stats.timeouts
    );
    assert_eq!(
        dev.retries + dev.failovers,
        stats.retries + stats.failovers,
        "recorder recovery counters must match client stats"
    );
    assert_exact_sums(&summary, "crash");
    assert!(
        dev.phase_total_ns(Phase::RetryOverhead) > 0,
        "timed-out attempts must be charged to retry_overhead"
    );
    // The recovery-affected records in the ring individually tile too —
    // dig one out and check its phases are not all boring.
    let recovered = dev
        .records
        .iter()
        .find(|r| r.failovers > 0)
        .expect("ring retains at least one failed-over request");
    assert!(recovered.phase_ns[Phase::RetryOverhead as usize] > 0);
    // Every client counter that has a registry twin moved with it.
    for (name, stat) in [
        ("hpbd.requests", stats.requests),
        ("hpbd.split_requests", stats.split_requests),
        ("hpbd.phys_requests", stats.phys_requests),
        ("hpbd.messages", stats.messages),
        ("hpbd.receiver_wakeups", stats.receiver_wakeups),
        ("hpbd.pool_waits", stats.pool_waits),
        ("hpbd.credit_stalls", stats.flow_stalls),
        ("hpbd.timeouts", stats.timeouts),
        ("hpbd.retries", stats.retries),
        ("hpbd.failovers", stats.failovers),
        ("hpbd.mirror_drops", stats.mirror_drops),
        ("hpbd.stale_drops", stats.stale_drops),
        ("hpbd.epoch_wipes", stats.epoch_wipes),
    ] {
        let twin = report.metrics.counters.get(name).copied().unwrap_or(0);
        assert_eq!(twin, stat, "{name} disagrees with ClientStats");
    }
}

#[test]
fn nbd_requests_tile_exactly() {
    let mut config = ScenarioConfig::new(
        MB,
        8 * MB,
        SwapKind::Nbd {
            transport: Transport::IpoIb,
        },
    );
    config.record_lifecycle = true;
    let report = run_qsort(&config, 11);
    let summary = report.lifecycle.expect("lifecycle was enabled");
    let dev = summary
        .device("nbd0-IPoIB")
        .expect("swap traffic on the NBD device");
    assert!(dev.total > 100);
    assert_exact_sums(&summary, "nbd");
    assert!(
        dev.phase_total_ns(Phase::Wire) > 0,
        "the blocking transfer must be visible as wire time"
    );
}

#[test]
fn flight_recorder_queries_are_consistent() {
    let config = hpbd_scenario(FaultPlan::new());
    let scenario = Scenario::build(&config);
    scenario.run_qsort(512 * 1024, 11);
    let summary = scenario.engine.lifecycle().summary();
    let rec = summary.device("hpbd0").expect("hpbd0 has a recorder");
    let slowest = rec.slowest(5);
    assert!(!slowest.is_empty());
    // Slowest-first ordering, ties broken by request id.
    for w in slowest.windows(2) {
        assert!(
            w[0].e2e_ns() > w[1].e2e_ns()
                || (w[0].e2e_ns() == w[1].e2e_ns() && w[0].req < w[1].req)
        );
    }
    // by_request finds exactly the ring's records.
    for r in &rec.records {
        let found = rec.by_request(r.req).expect("ring record is queryable");
        assert_eq!(found.req, r.req);
    }
    assert!(rec.by_request(u64::MAX).is_none());
    // Phase percentiles are monotone in the percentile.
    for phase in Phase::ALL {
        assert!(
            rec.phase_percentile(phase, 50.0) <= rec.phase_percentile(phase, 99.0),
            "percentiles must be monotone"
        );
    }
}

#[test]
fn flight_recorder_dumps_are_byte_identical_across_reruns() {
    let dump = || {
        let config = hpbd_scenario(FaultPlan::new().server_crash(10_000_000, 0));
        let scenario = Scenario::build(&config);
        scenario.run_qsort(512 * 1024, 11);
        scenario
            .engine
            .lifecycle()
            .dump_json("hpbd0")
            .expect("hpbd0 recorded traffic")
    };
    let first = dump();
    let second = dump();
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "flight-recorder dumps must be byte-identical for identical runs"
    );
    // And the dump is well-formed JSON with the expected schema tag.
    let doc = hpbd_suite::simtrace::json::parse(&first).expect("dump parses as JSON");
    let schema = doc
        .as_object()
        .and_then(|o| o.get("schema"))
        .and_then(|s| s.as_string())
        .expect("dump carries a schema field");
    assert_eq!(schema, "hpbd-flight-recorder-v1");
}

#[test]
fn anomalous_requests_auto_dump_once() {
    let dir = std::path::Path::new("target/flight-recorder/auto-dump-test");
    let _ = std::fs::remove_dir_all(dir);
    let config = hpbd_scenario(FaultPlan::new().server_crash(10_000_000, 0));
    let scenario = Scenario::build(&config);
    scenario.engine.lifecycle().set_dump_dir(dir);
    scenario.run_qsort(512 * 1024, 11);
    let dump = dir.join("flight-hpbd0.json");
    assert!(
        dump.is_file(),
        "first anomalous request must trigger the auto-dump"
    );
    let text = std::fs::read_to_string(&dump).expect("dump is readable");
    assert!(text.contains("\"schema\": \"hpbd-flight-recorder-v1\""));
}
