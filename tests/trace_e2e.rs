//! End-to-end observability tests: a quicksort-over-HPBD scenario traced
//! twice must export byte-identical Chrome trace files, the exported
//! document must be well-formed Chrome trace-event JSON with spans from
//! every instrumented layer, and turning the tracer or the lifecycle hub
//! on must not change what the simulation does.

use hpbd_suite::simcore::TraceSession;
use hpbd_suite::simfault::FaultPlan;
use hpbd_suite::simtrace::json;
use hpbd_suite::workloads::{Scenario, ScenarioConfig, SwapKind};
use std::collections::BTreeSet;

const MB: u64 = 1 << 20;

/// Run a small quicksort over a 2-server HPBD swap device with tracing on
/// and return the exported Chrome trace document plus the virtual elapsed
/// time.
fn traced_qsort_run(seed: u64) -> (String, u64) {
    let mut session = TraceSession::new(true);
    let mut config = ScenarioConfig::new(2 * MB, 32 * MB, SwapKind::Hpbd { servers: 2 });
    config.tracer = Some(session.tracer_for("HPBD-2"));
    let scenario = Scenario::build(&config);
    let report = scenario.run_qsort(1 << 20, seed);
    assert!(
        report.vm.swap_ins > 0,
        "workload must page to exercise the stack"
    );
    (session.to_chrome_json(), report.elapsed.as_nanos())
}

#[test]
fn same_seed_runs_export_identical_trace_files() {
    let (doc_a, elapsed_a) = traced_qsort_run(7);
    let (doc_b, elapsed_b) = traced_qsort_run(7);
    assert_eq!(elapsed_a, elapsed_b, "virtual time must be deterministic");

    // Round-trip through real files, as the bench binaries do.
    let dir = std::env::temp_dir();
    let pa = dir.join("hpbd-trace-e2e-a.json");
    let pb = dir.join("hpbd-trace-e2e-b.json");
    std::fs::write(&pa, &doc_a).unwrap();
    std::fs::write(&pb, &doc_b).unwrap();
    let bytes_a = std::fs::read(&pa).unwrap();
    let bytes_b = std::fs::read(&pb).unwrap();
    let _ = std::fs::remove_file(&pa);
    let _ = std::fs::remove_file(&pb);
    assert!(!bytes_a.is_empty());
    assert_eq!(
        bytes_a, bytes_b,
        "same-seed trace files must be byte-identical"
    );
}

#[test]
fn exported_trace_is_valid_chrome_trace_event_json() {
    let (doc, _) = traced_qsort_run(11);
    let value = json::parse(&doc).expect("trace must be well-formed JSON");
    let root = value.as_object().expect("root must be an object");
    let events = root["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());

    let mut components = BTreeSet::new();
    for event in events {
        let obj = event.as_object().expect("every event is an object");
        let ph = obj["ph"].as_string().expect("ph is a string");
        assert!(
            matches!(ph, "X" | "i" | "M"),
            "unexpected event phase {ph:?}"
        );
        assert!(obj.contains_key("pid"), "events carry a pid");
        match ph {
            "X" => {
                // Complete events: timestamp + duration, both present.
                assert!(obj["ts"].as_f64().is_some());
                assert!(obj["dur"].as_f64().expect("dur") >= 0.0);
            }
            "i" => {
                assert!(obj["ts"].as_f64().is_some());
                assert_eq!(obj["s"].as_string(), Some("t"), "instant scope");
            }
            "M" => {
                if obj["name"].as_string() == Some("thread_name") {
                    let args = obj["args"].as_object().expect("metadata args");
                    components.insert(args["name"].as_string().unwrap().to_string());
                }
            }
            _ => unreachable!(),
        }
    }
    // The quicksort scenario swaps over HPBD: client, server, verbs layer,
    // block layer and VM must all contribute spans.
    for component in ["hpbd", "hpbd_server", "ibsim", "blockdev", "vmsim"] {
        assert!(
            components.contains(component),
            "missing component {component:?}; got {components:?}"
        );
    }
    assert!(
        components.len() >= 4,
        "expected spans from at least 4 components, got {components:?}"
    );
}

/// Emit sites are unguarded: they call the tracer and the lifecycle hub
/// whether or not either records. So observation must be invisible — the
/// same seed, through message loss, retries, a server crash and failovers,
/// does the same thing with the tracer on, the lifecycle hub on, or both
/// off.
#[test]
fn observation_does_not_perturb_a_faulted_run() {
    let run = |traced: bool, lifecycle: bool| {
        let mut session = TraceSession::new(traced);
        let mut config = ScenarioConfig::new(2 * MB, 16 * MB, SwapKind::Hpbd { servers: 4 });
        config.hpbd.mirror_writes = true;
        config.hpbd.request_timeout_ns = Some(2_000_000);
        config.hpbd.max_retries = 1;
        config.fault_plan = FaultPlan::new()
            .message_loss(5_000_000, 1, 3)
            .server_crash(10_000_000, 0);
        config.tracer = Some(session.tracer_for("HPBD-4-mirror"));
        config.record_lifecycle = lifecycle;
        let report = Scenario::build(&config).run_qsort(512 * 1024, 11);
        let client = report.hpbd_client.expect("hpbd scenario");
        assert!(client.retries > 0, "the lost messages must force retries");
        assert!(client.failovers > 0, "the crash must force failovers");
        assert_eq!(report.lifecycle.is_some(), lifecycle);
        (
            report.elapsed,
            report.events,
            report.metrics,
            format!("{:?}", report.vm),
            format!("{client:?}"),
        )
    };
    let dark = run(false, false);
    assert_eq!(dark, run(true, false), "the tracer perturbed the run");
    assert_eq!(dark, run(false, true), "the hub perturbed the run");
}
