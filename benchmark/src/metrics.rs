//! The metric catalogue: every name the benchmark prints, with its unit,
//! its direction and — for end-to-end metrics — the share of the parent's
//! median by which it may get worse before a change counts as a
//! regression. `BENCHMARK.json` restates this table; a test holds the two
//! together.

use crate::assembly::SPAN_NAMES;
use crate::cells::{WHY, WORKLOADS};
use crate::micro;
use simtrace::lifecycle::Phase;
use std::fmt::Write as _;

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
    /// A virtual-time result or a count: for a given seed it must repeat
    /// exactly, across passes and between the plain and the traced pass.
    pub deterministic: bool,
}

fn metric(
    name: &str,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
    deterministic: bool,
) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        bound,
        deterministic,
    }
}

/// The end-to-end metrics, reported by `--trace 0` for every workload.
///
/// Acceptance runs use a different seed each time and require each
/// metric's inter-quartile spread over ten runs to stay within its bound,
/// so every bound is sized from the spread measured that way on the worst
/// workload (CHANGES.md has the table), not from taste: host times on the
/// shared reference box spread 3-13 % over ten runs, depending on the hour;
/// the quicksort cell's virtual-time results spread ~10 % over ten seeds.
pub fn end_to_end() -> Vec<Metric> {
    use Better::{Higher, Lower};
    vec![
        metric("setup_s", "s", Lower, Some(0.25), false),
        metric("wall_s", "s", Lower, Some(0.25), false),
        metric("cpu_s", "s", Lower, Some(0.25), false),
        metric("peak_rss_mb", "MB", Lower, Some(0.20), false),
        metric("sim_makespan_s", "virtual_s", Lower, Some(0.25), true),
        metric("sim_fault_mean_us", "virtual_us", Lower, Some(0.10), true),
        metric("sim_fault_p99_us", "virtual_us", Lower, Some(0.20), true),
        metric("sim_read_p99_us", "virtual_us", Lower, Some(0.20), true),
        metric("sim_write_p99_us", "virtual_us", Lower, Some(0.10), true),
        metric("sim_msgs_per_page", "msgs/page", Lower, Some(0.10), true),
        metric("sim_io_mb_per_s", "MB/virtual_s", Higher, Some(0.25), true),
    ]
}

/// Deterministic per-layer counts read off the finished machine
/// (`cells::observe`), with unit and direction.
const COUNTS: [(&str, &str, Better); 35] = [
    ("vmsim.fault_p50_us", "virtual_us", Better::Lower),
    ("vmsim.major_faults", "count", Better::Lower),
    ("vmsim.swap_ins", "count", Better::Lower),
    ("vmsim.swap_outs", "count", Better::Lower),
    ("vmsim.readaheads", "count", Better::Lower),
    ("vmsim.readahead_hit_ratio", "ratio", Better::Higher),
    ("vmsim.throttles", "count", Better::Lower),
    ("vmsim.frame_waits", "count", Better::Lower),
    ("vmsim.clean_evictions", "count", Better::Higher),
    ("vmsim.direct_polled", "count", Better::Higher),
    ("vmsim.direct_poll_timeouts", "count", Better::Lower),
    ("vmsim.direct_poll_cpu_ms", "virtual_ms", Better::Lower),
    ("blockdev.requests", "count", Better::Lower),
    ("blockdev.mean_request_bytes", "bytes", Better::Higher),
    ("blockdev.bios_per_request", "ratio", Better::Higher),
    ("hpbd.phys_requests", "count", Better::Lower),
    ("hpbd.messages", "count", Better::Lower),
    ("hpbd.merged_requests", "count", Better::Higher),
    ("hpbd.split_requests", "count", Better::Lower),
    ("hpbd.credit_stalls", "count", Better::Lower),
    ("hpbd.pool_waits", "count", Better::Lower),
    ("hpbd.receiver_wakeups", "count", Better::Lower),
    ("hpbd.timeouts", "count", Better::Lower),
    ("hpbd.retries", "count", Better::Lower),
    ("hpbd.failovers", "count", Better::Lower),
    ("hpbd_server.requests", "count", Better::Lower),
    ("hpbd_server.wakeups", "count", Better::Lower),
    ("ibsim.sends", "count", Better::Lower),
    ("ibsim.rdma_reads", "count", Better::Lower),
    ("ibsim.rdma_writes", "count", Better::Lower),
    ("ibsim.cq_events", "count", Better::Lower),
    ("ibsim.qp_ctx_reloads", "count", Better::Lower),
    ("simcore.events", "count", Better::Lower),
    ("simcore.max_pending_events", "count", Better::Lower),
    // Not from `observe` but just as exact: the lifecycle phase-sum oracle.
    ("phase.sum_mismatches", "count", Better::Lower),
];

/// `phase.<name>_share_pct` for one lifecycle phase.
pub fn phase_metric(phase: Phase) -> String {
    format!("phase.{}_share_pct", Phase::NAMES[phase as usize])
}

/// `span.<name>.self_s` for one span name.
pub fn span_metric(span: &str) -> String {
    format!("span.{span}.self_s")
}

/// The per-layer metrics, reported by `--trace 1` for every workload.
pub fn per_layer() -> Vec<Metric> {
    use Better::Lower;
    let mut out: Vec<Metric> = micro::ALL
        .iter()
        .map(|m| metric(m.name, "ns", Lower, None, false))
        .collect();
    out.extend(
        COUNTS
            .iter()
            .map(|&(name, unit, better)| metric(name, unit, better, None, true)),
    );
    out.extend(
        Phase::ALL
            .iter()
            .map(|&p| metric(&phase_metric(p), "pct", Lower, None, true)),
    );
    out.push(metric("host_us_per_fault", "us", Lower, None, false));
    out.push(metric(
        "simcore.host_ns_per_event",
        "ns",
        Lower,
        None,
        false,
    ));
    out.extend(
        SPAN_NAMES
            .iter()
            .map(|s| metric(&span_metric(s), "s", Lower, None, false)),
    );
    out.push(metric("span.engine_residual_s", "s", Lower, None, false));
    out.push(metric("trace_overhead_pct", "pct", Lower, None, false));
    out.push(metric("ctl.local_wall_s", "s", Lower, None, false));
    out.push(metric(
        "ctl.swap_stack_share_pct",
        "pct",
        Lower,
        None,
        false,
    ));
    out
}

/// Names of the metrics that must repeat exactly for one seed.
pub fn deterministic_names() -> Vec<String> {
    end_to_end()
        .into_iter()
        .chain(per_layer())
        .filter(|m| m.deterministic)
        .map(|m| m.name)
        .collect()
}

/// Seconds one `--trace 0` run measures for (`run_seconds`): as long as the
/// driver's cap on all 92 runs (3420 s, builds included) allows with a
/// margin, because the shared host's speed drifts over tens of seconds and
/// only a longer run averages that out.
pub const RUN_SECONDS: u64 = 30;

/// The text of `BENCHMARK.json`, from the catalogue above.
pub fn manifest_json() -> String {
    let mut out = String::from(
        "{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n",
    );
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let list = |out: &mut String, key: &str, rows: Vec<String>| {
        let _ = writeln!(
            out,
            "  \"{key}\": [\n    {}\n  ]{}",
            rows.join(",\n    "),
            if key == "per_layer" { "" } else { "," }
        );
    };
    let workloads = WORKLOADS
        .iter()
        .zip(WHY)
        .map(|(name, why)| format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    list(&mut out, "workloads", workloads);
    let row = |m: &Metric| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name,
            m.unit,
            m.better.as_str()
        )
    };
    list(
        &mut out,
        "end_to_end",
        end_to_end().iter().map(row).collect(),
    );
    list(&mut out, "per_layer", per_layer().iter().map(row).collect());
    out.push_str("}\n");
    out
}
