//! Figure R (reproduction extra): recovery from a memory-server failure.
//!
//! The paper punts on reliability (§4.1); this figure supplies the missing
//! measurement. Four cells, all deterministic on the virtual clock:
//!
//! 1. **HPBD-4 (mirror)** — the Figure 9 workload (two concurrent
//!    quicksorts) on 4 memory servers with mirrored writes, request
//!    timeouts and one retry. The healthy baseline.
//! 2. **HPBD-4 +crash** — the same machine, but server 0 fail-stops at
//!    40 % of the healthy makespan (its chunks are gone). The client times
//!    out, retries once, declares the server dead, and re-routes every
//!    affected request to the mirror replica. The workload completes;
//!    quicksort's own `is_sorted` check is the integrity proof.
//! 3. **NBD-IPoIB** — the same workload on the NBD baseline, healthy.
//! 4. **NBD-IPoIB +reset** — NBD's failure story: the TCP connection is
//!    reset at the same instant. Linux 2.4 NBD has no reconnect, so the
//!    device fails permanently; this cell drives a sequential probe stream
//!    directly at the device and counts the requests that fail *cleanly*
//!    (`IoError::Fault(Reset)`, never a hang) after the reset.
//!
//! Per cell the figure reports a recovery-latency CDF (latencies of every
//! request whose lifetime overlaps the outage window), the detection and
//! recovery latencies (crash → first timeout, and first timeout → first
//! successful completion after the failover), and a throughput timeline
//! (completed swap bytes per time bin) showing the degradation dip and
//! recovery.
//! Everything is computed post-hoc from the simtrace event buffer and
//! metrics snapshots — no extra events are scheduled into the runs.

use super::paper_sizes;
use crate::args::CommonArgs;
use blockdev::{new_buffer, Bio, BlockDevice, DeviceHealth, FaultKind, IoError, IoOp, IoRequest};
use netmodel::{Calibration, Node, Transport};
use simcore::{Engine, Tracer};
use simfault::FaultPlan;
use simtrace::{EventKind, HistogramSummary, TraceEvent};
use std::cell::Cell;
use std::rc::Rc;
use workloads::{Scenario, ScenarioConfig, SwapKind};

/// Request timeout armed on the HPBD cells: far above healthy request
/// latencies (microseconds to low milliseconds at every scale), far below
/// the makespan, so detection is fast without spurious timeouts.
pub const REQUEST_TIMEOUT_NS: u64 = 10_000_000;

/// Time bins in the throughput timeline.
pub const TIMELINE_BINS: usize = 48;

/// One completed-bytes-per-bin sample of the throughput timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ThroughputSample {
    /// Bin start, milliseconds of virtual time.
    pub t_ms: f64,
    /// Swap throughput over the bin, MiB/s.
    pub mib_per_s: f64,
}

/// One figR cell's outcome.
#[derive(Clone, Debug)]
pub struct FigRRow {
    /// Cell label.
    pub label: String,
    /// Did the workload (or probe stream) run to completion?
    pub completed: bool,
    /// Virtual makespan, seconds.
    pub elapsed_secs: f64,
    /// Injected fault instant, milliseconds (None: healthy cell).
    pub fault_ms: Option<f64>,
    /// Time from the fault until the client first *noticed* (first request
    /// timeout). Workload-dependent: the crash may sit unnoticed until the
    /// workload touches the dead extent.
    pub detection_ms: Option<f64>,
    /// Service-restoration latency: from the first timeout until the first
    /// successful completion after the first failover — the stall a swap
    /// request actually experiences across the outage (None: healthy, or
    /// the device never recovered — NBD).
    pub recovery_ms: Option<f64>,
    /// CDF of the latencies (ms) of successful requests whose lifetime
    /// overlaps the outage window: `(latency_ms, cumulative_fraction)`.
    pub recovery_cdf: Vec<(f64, f64)>,
    /// Swap-in latency summary over the whole run (from simtrace metrics).
    pub swap_in_latency_us: Option<HistogramSummary>,
    /// HPBD client timeouts / retries / failovers (0 for NBD cells).
    pub timeouts: u64,
    /// Same-server retries.
    pub retries: u64,
    /// Requests re-routed to a mirror replica.
    pub failovers: u64,
    /// Requests that failed *cleanly* with `IoError::Fault` (NBD reset
    /// cell: every post-reset probe; must be nonzero there and zero in
    /// recovering cells).
    pub clean_failures: u64,
    /// Requests completed OK before the fault (probe cell diagnostics).
    pub ok_requests: u64,
    /// Stale write reissues fenced off by server-side versioning (HPBD
    /// cells; always zero for NBD).
    pub stale_drops: u64,
    /// Chunk migrations re-enqueued after a failed read/write leg (HPBD
    /// cells; always zero for NBD).
    pub migration_retries: u64,
    /// Completed swap bytes per time bin over the run.
    pub timeline: Vec<ThroughputSample>,
    /// Engine events executed (printed per cell by `obsreport`).
    pub events: u64,
    /// Flight-recorder snapshot (only when the run was built with
    /// `--lifecycle`; the probe cell never records one).
    pub lifecycle: Option<simcore::FlightSummary>,
}

/// The full figure: four rows plus the fault instant shared by the two
/// faulted cells.
#[derive(Clone, Debug)]
pub struct FigR {
    /// Cell outcomes, in the order described in the module docs.
    pub rows: Vec<FigRRow>,
    /// Fault instant (ns of virtual time) used by the faulted cells.
    pub fault_at_ns: u64,
}

fn hpbd_config(local_mem: u64, total_swap: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::new(local_mem, total_swap, SwapKind::Hpbd { servers: 4 });
    config.hpbd.mirror_writes = true;
    config.hpbd.request_timeout_ns = Some(REQUEST_TIMEOUT_NS);
    config.hpbd.max_retries = 1;
    config
}

/// Run the four figR cells. The healthy HPBD cell runs first to fix the
/// fault instant (40 % of its makespan); the remaining cells then fan
/// across `args.threads` workers.
pub fn run(args: &CommonArgs) -> FigR {
    let elements = args.scaled_elems(paper_sizes::DATASET_ELEMS);
    let total_swap = args.scaled_bytes(512 << 20) * 4;
    let local_mem = args.scaled_bytes(1 << 30); // fig9's 50 % row

    // Cell 1 fixes the clock for the fault injection.
    let healthy = run_scenario_cell(
        "HPBD-4-mirror",
        hpbd_config(local_mem, total_swap),
        elements,
        args,
    );
    let fault_at_ns = ((healthy.elapsed_secs * 1e9) * 0.4) as u64;

    let cells: Vec<FigRRow> = args.runner().run_cells(3, |i| match i {
        0 => {
            let mut config = hpbd_config(local_mem, total_swap);
            config.fault_plan = FaultPlan::new().server_crash(fault_at_ns, 0);
            run_scenario_cell("HPBD-4-mirror+crash", config, elements, args)
        }
        1 => {
            let nbd = SwapKind::Nbd {
                transport: Transport::IpoIb,
            };
            let config = ScenarioConfig::new(local_mem, total_swap, nbd);
            run_scenario_cell("NBD-IPoIB", config, elements, args)
        }
        _ => run_nbd_reset_cell("NBD-IPoIB+reset", total_swap, fault_at_ns),
    });

    let mut rows = vec![healthy];
    rows.extend(cells);
    FigR { rows, fault_at_ns }
}

/// Run the fig9 workload on `config`, traced. A cell whose plan holds a
/// fault measures detection and recovery from the trace. An HPBD cell
/// reports its client's counters and swap-in histogram; an NBD cell has no
/// client, so its recovery counters read zero and its request count is
/// the run's dispatched requests.
fn run_scenario_cell(
    label: &str,
    mut config: ScenarioConfig,
    elements: usize,
    args: &CommonArgs,
) -> FigRRow {
    let faulted = !config.fault_plan.is_empty();
    let tracer = Tracer::enabled();
    config.tracer = Some(tracer.clone());
    config.record_lifecycle = args.lifecycle;
    let scenario = Scenario::build(&config);
    let (_, _, report) = scenario.run_qsort_pair(elements, args.seed);
    let events = tracer.snapshot();
    let elapsed_ns = report.elapsed.as_nanos();
    let (histogram, ok_requests) = match &report.hpbd_client {
        Some(stats) => ("hpbd.swap_in_latency_us", stats.requests),
        None => ("nbd.swap_in_latency_us", report.requests),
    };
    let stats = report.hpbd_client.clone().unwrap_or_default();

    let (fault_ms, detection_ms, recovery_ms, recovery_cdf) = if faulted {
        let t_crash = events
            .iter()
            .find(|e| e.component == "hpbd_server" && e.name == "crash")
            .map(|e| e.ts_ns)
            .expect("crash cell traces the crash instant");
        let (detection, recovery, cdf) = recovery_from_trace(&events, t_crash);
        (Some(t_crash as f64 / 1e6), detection, recovery, cdf)
    } else {
        (None, None, None, Vec::new())
    };

    FigRRow {
        label: label.to_string(),
        completed: true, // run_qsort_pair debug-asserts sortedness
        elapsed_secs: elapsed_ns as f64 / 1e9,
        fault_ms,
        detection_ms,
        recovery_ms,
        recovery_cdf,
        swap_in_latency_us: report.metrics.histograms.get(histogram).cloned(),
        timeouts: stats.timeouts,
        retries: stats.retries,
        failovers: stats.failovers,
        clean_failures: 0,
        ok_requests,
        stale_drops: stats.stale_drops,
        migration_retries: stats.migration_retries,
        timeline: timeline_from_spans(&events, "blockdev", elapsed_ns),
        events: report.events,
        lifecycle: report.lifecycle.clone(),
    }
}

/// The NBD reset cell: a sequential 64 KiB probe-write stream driven
/// directly at the device (the VM workload cannot survive a dead swap
/// device, which is exactly the point being measured). The stream runs
/// until 2.5× the fault instant; the reset at `fault_at_ns` must fail the
/// in-flight probe and every later one cleanly — a probe that neither
/// completes nor fails would hang `run_until_idle` forever, so mere
/// termination of this cell is part of the assertion.
fn run_nbd_reset_cell(label: &str, capacity: u64, fault_at_ns: u64) -> FigRRow {
    let engine = Engine::new();
    let tracer = Tracer::enabled();
    engine.set_tracer(tracer.clone());
    let cal = Rc::new(Calibration::cluster_2005());
    let node = Node::new("client", 0, 2);
    let plan = FaultPlan::new().tcp_reset(fault_at_ns);
    let dev = nbd::build_pair_with_faults(&engine, cal, Transport::IpoIb, &node, capacity, &plan);

    let probe_bytes: u64 = 64 * 1024;
    let budget_ns = fault_at_ns.saturating_mul(5) / 2;
    let ok = Rc::new(Cell::new(0u64));
    let clean = Rc::new(Cell::new(0u64));
    let offset = Rc::new(Cell::new(0u64));
    submit_probe(
        &engine,
        &dev,
        probe_bytes,
        capacity,
        budget_ns,
        &ok,
        &clean,
        &offset,
    );
    engine.run_until_idle();

    let events = tracer.snapshot();
    let elapsed_ns = engine.now().as_nanos();
    assert_eq!(
        dev.health(),
        DeviceHealth::Failed,
        "the reset must take the NBD device down for good"
    );
    FigRRow {
        label: label.to_string(),
        completed: false, // the device died; the stream could not finish
        elapsed_secs: elapsed_ns as f64 / 1e9,
        fault_ms: Some(fault_at_ns as f64 / 1e6),
        detection_ms: Some(0.0), // the reset is synchronous on the stream
        recovery_ms: None,       // NBD never recovers
        recovery_cdf: Vec::new(),
        swap_in_latency_us: None,
        timeouts: 0,
        retries: 0,
        failovers: 0,
        clean_failures: clean.get(),
        ok_requests: ok.get(),
        stale_drops: 0,
        migration_retries: 0,
        timeline: timeline_from_spans(&events, "nbd", elapsed_ns.max(1)),
        events: engine.events_executed(),
        lifecycle: None,
    }
}

#[expect(
    clippy::too_many_arguments,
    reason = "the re-arming probe carries its device, limits and shared counters from one call to the next"
)]
fn submit_probe(
    engine: &Engine,
    dev: &nbd::NbdClient,
    probe_bytes: u64,
    capacity: u64,
    budget_ns: u64,
    ok: &Rc<Cell<u64>>,
    clean: &Rc<Cell<u64>>,
    offset: &Rc<Cell<u64>>,
) {
    if engine.now().as_nanos() >= budget_ns {
        return;
    }
    let at = offset.get() % (capacity - probe_bytes);
    offset.set(offset.get() + probe_bytes);
    let engine2 = engine.clone();
    let dev2 = dev.clone();
    let (ok2, clean2, offset2) = (ok.clone(), clean.clone(), offset.clone());
    let (probe, cap, budget) = (probe_bytes, capacity, budget_ns);
    dev.submit(IoRequest::single(Bio::new(
        IoOp::Write,
        at,
        new_buffer(probe_bytes as usize),
        move |result| {
            match result {
                Ok(()) => {
                    ok2.set(ok2.get() + 1);
                    submit_probe(&engine2, &dev2, probe, cap, budget, &ok2, &clean2, &offset2);
                }
                Err(IoError::Fault(FaultKind::Reset)) => {
                    // Post-reset failures complete from the event loop at
                    // the same virtual instant (no time passes), so the
                    // time budget alone would never end the stream: probe
                    // a bounded burst to show the failures stay clean,
                    // then stop.
                    clean2.set(clean2.get() + 1);
                    if clean2.get() < 4 {
                        submit_probe(&engine2, &dev2, probe, cap, budget, &ok2, &clean2, &offset2);
                    }
                }
                Err(other) => panic!("probe failed uncleanly: {other:?}"),
            }
        },
    )));
}

/// Detection latency, recovery latency, and the outage-window latency CDF,
/// all from the trace.
///
/// * **Detection** — crash instant to the first request timeout: how long
///   the failure sat unnoticed (workload-dependent; the crash is silent
///   until the workload touches the dead extent).
/// * **Recovery** — first timeout to the first successful completion at or
///   after the first failover: the stall a swap request actually
///   experiences while the client times out, retries, declares the server
///   dead, and re-routes to the mirror replica.
/// * **CDF** — latencies of every successful request whose lifetime
///   overlaps the outage window `[t_crash, recovery end]`, mixing the
///   stalled re-routed requests with the concurrent traffic that kept
///   flowing to the healthy servers.
fn recovery_from_trace(
    events: &[TraceEvent],
    t_crash: u64,
) -> (Option<f64>, Option<f64>, Vec<(f64, f64)>) {
    let ok_spans = |e: &&TraceEvent| {
        e.component == "hpbd"
            && (e.name == "request_read" || e.name == "request_write")
            && e.args.iter().any(|&(k, v)| k == "ok" && v == 1)
    };
    let end_of = |e: &TraceEvent| match e.kind {
        EventKind::Span { dur_ns } => e.ts_ns + dur_ns,
        EventKind::Instant => e.ts_ns,
    };
    let first_instant = |name: &str| {
        events
            .iter()
            .find(|e| e.component == "hpbd" && e.name == name && e.ts_ns >= t_crash)
            .map(|e| e.ts_ns)
    };
    let t_detect = first_instant("timeout");
    let t_failover = first_instant("failover");
    let (detection_ms, recovery_end) = match (t_detect, t_failover) {
        (Some(td), Some(tf)) => {
            let end = events
                .iter()
                .filter(ok_spans)
                .map(&end_of)
                .filter(|&end| end >= tf)
                .min();
            (Some((td - t_crash) as f64 / 1e6), end.map(|e| (td, e)))
        }
        // The workload never hit the dead server (or mirroring absorbed it
        // without a timeout): fall back to "every request outstanding at
        // the crash instant completed".
        _ => {
            let end = events
                .iter()
                .filter(ok_spans)
                .filter(|e| e.ts_ns <= t_crash && end_of(e) > t_crash)
                .map(&end_of)
                .max();
            (None, end.map(|e| (t_crash, e)))
        }
    };
    let Some((from, end)) = recovery_end else {
        return (detection_ms, None, Vec::new());
    };
    let recovery_ms = Some((end - from) as f64 / 1e6);
    let mut lat_ms: Vec<f64> = events
        .iter()
        .filter(ok_spans)
        .filter(|e| end_of(e) > t_crash && e.ts_ns < end)
        .map(|e| (end_of(e) - e.ts_ns) as f64 / 1e6)
        .collect();
    lat_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let n = lat_ms.len();
    let cdf = lat_ms
        .iter()
        .enumerate()
        .map(|(i, &l)| (l, (i + 1) as f64 / n as f64))
        .collect();
    (detection_ms, recovery_ms, cdf)
}

/// Completed-bytes-per-bin timeline from `component`'s request spans.
fn timeline_from_spans(
    events: &[TraceEvent],
    component: &str,
    elapsed_ns: u64,
) -> Vec<ThroughputSample> {
    let bin_ns = (elapsed_ns / TIMELINE_BINS as u64).max(1);
    let mut bytes_per_bin = vec![0u64; TIMELINE_BINS];
    for e in events {
        let EventKind::Span { dur_ns } = e.kind else {
            continue;
        };
        if e.component != component
            || !(e.name == "request_read"
                || e.name == "request_write"
                || e.name == "read"
                || e.name == "write")
        {
            continue;
        }
        let bytes = e
            .args
            .iter()
            .find(|&&(k, _)| k == "bytes")
            .map_or(0, |&(_, v)| v);
        let bin = (((e.ts_ns + dur_ns) / bin_ns) as usize).min(TIMELINE_BINS - 1);
        bytes_per_bin[bin] += bytes;
    }
    let bin_s = bin_ns as f64 / 1e9;
    bytes_per_bin
        .iter()
        .enumerate()
        .map(|(i, &b)| ThroughputSample {
            t_ms: (i as u64 * bin_ns) as f64 / 1e6,
            mib_per_s: b as f64 / (1 << 20) as f64 / bin_s,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both tests inspect one shared small-scale run (plain-data result;
    /// the simulation itself is not Send, its outcome is).
    fn small_fig() -> &'static FigR {
        static FIG: std::sync::OnceLock<FigR> = std::sync::OnceLock::new();
        FIG.get_or_init(|| {
            run(&CommonArgs {
                scale: 256,
                seed: 3,
                ..CommonArgs::default()
            })
        })
    }

    #[test]
    fn figr_smoke_recovery_completes() {
        let fig = small_fig();
        assert_eq!(fig.rows.len(), 4);
        let healthy = &fig.rows[0];
        let crash = &fig.rows[1];
        let nbd = &fig.rows[2];
        let reset = &fig.rows[3];

        // Healthy cells: no fault machinery fired.
        assert!(healthy.completed && healthy.timeouts == 0 && healthy.failovers == 0);
        assert!(nbd.completed && nbd.clean_failures == 0);

        // The crash cell finished (integrity is debug-asserted inside the
        // workload) and recovered in finite time via the mirror replicas.
        assert!(crash.completed, "crash cell must complete");
        assert!(crash.failovers >= 1, "crash must force failovers");
        let recovery = crash.recovery_ms.expect("crash cell reports recovery");
        assert!(
            recovery.is_finite() && recovery > 0.0,
            "recovery latency must be finite and positive: {recovery}"
        );
        assert!(
            !crash.recovery_cdf.is_empty(),
            "outage window must contain completed requests"
        );
        let (_, last_frac) = *crash.recovery_cdf.last().unwrap();
        assert!((last_frac - 1.0).abs() < 1e-9, "CDF must reach 1.0");

        // The NBD reset cell fails cleanly and permanently: progress before
        // the reset, clean failures after, no recovery, and — because the
        // cell returned at all — no hang.
        assert!(reset.ok_requests > 0, "probes must succeed before reset");
        assert!(reset.clean_failures > 0, "post-reset probes fail cleanly");
        assert_eq!(reset.recovery_ms, None, "NBD never recovers");
        assert!(!reset.completed);
    }

    #[test]
    fn figr_crash_slows_but_does_not_stop_the_run() {
        let fig = small_fig();
        let healthy = fig.rows[0].elapsed_secs;
        let crashed = fig.rows[1].elapsed_secs;
        // Losing 1 of 4 servers costs something but the run still ends in
        // the same order of magnitude.
        assert!(
            crashed >= healthy * 0.99,
            "crash should not speed the run up: {crashed} vs {healthy}"
        );
        assert!(
            crashed < healthy * 10.0,
            "crash recovery must not blow up the makespan: {crashed} vs {healthy}"
        );
    }
}
