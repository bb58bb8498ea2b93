//! The four benchmark workloads and the numbers read off a finished run.
//!
//! Each workload is one figure-style cell: a [`ScenarioConfig`] plus the
//! work to run on it. Timed passes run the three VM cells through
//! `workloads::Scenario` exactly as the figure binaries do; the fourth
//! cell (`blk_stream_hpbd`) has no VM and is driven by
//! [`crate::blkstream`]. [`observe`] reads every deterministic metric off
//! the finished machine, whichever way it was assembled.

use crate::assembly::{assemble, qsort_pair, Machine};
use crate::blkstream::{self, StreamParams, StreamResult};
use crate::metrics::phase_metric;
use blockdev::RequestQueue;
use hpbd::HpbdCluster;
use simcore::{Engine, SimDuration};
use simtrace::lifecycle::Phase;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;
use vmsim::{DirectBackend, Vm};
use workloads::kvstore::KvParams;
use workloads::zipf::ZipfParams;
use workloads::{Scenario, ScenarioConfig, SwapKind, SwapPath};

/// Workload names, in report order.
pub const WORKLOADS: [&str; 4] = [
    "qsort_pair_hpbd",
    "kv_hpbd",
    "zipf_direct",
    "blk_stream_hpbd",
];

/// Why each workload exists, one line each (restated in `BENCHMARK.json`).
pub const WHY: [&str; 4] = [
    "Fig 9 HPBD-25% cell: compute-bound, >=95% of host time in workloads+PagedVec; a swap-stack win must not move it",
    "kvbench HPBD cell: fault-bound single-page reads through the block queue; ~97% of host time is the swap stack",
    "figU zipf cell on the direct path: same hpbd/ibsim layers with no blockdev queue, per-page submits, readahead on",
    "block-level stream, no VM: 128 KiB writes beside 4-128 KiB reads at queue depth 32 overrun the 1 MiB pool and 16 credits",
];

/// How large a cell is. One timed pass of a full cell takes 2–3 s on the
/// 2-core reference box, so a run of `--seconds 30` holds ten to thirteen
/// fresh-process passes; smoke cells finish in well under a second and
/// serve as warm-up, as the self-check size and as `--smoke`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// The warm-up / self-check size.
    Smoke,
}

/// The work a cell runs.
#[derive(Clone, Debug)]
pub enum Work {
    /// Two concurrent quicksorts (seeds `seed`, `seed + 1`).
    QsortPair {
        /// Elements per instance.
        elements: usize,
        /// Seed of the first instance.
        seed: u64,
    },
    /// The key-value transaction mix.
    Kv(KvParams),
    /// The Zipf page walker.
    Zipf(ZipfParams),
    /// The block-level stream (no VM).
    BlkStream(StreamParams),
}

/// One benchmark cell.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Workload name.
    pub name: &'static str,
    /// The machine.
    pub config: ScenarioConfig,
    /// The work.
    pub work: Work,
}

const MIB: u64 = 1 << 20;

/// Paper quantity divided by `scale`, page-aligned (the figure binaries'
/// `CommonArgs::scaled_bytes`).
fn scaled_bytes(paper_bytes: u64, scale: u64) -> u64 {
    ((paper_bytes / scale) / 4096).max(4) * 4096
}

/// The cell for `name` at `size`, with every generator seeded from `seed`.
pub fn cell(name: &str, size: Size, seed: u64) -> Option<Cell> {
    let full = size == Size::Full;
    let cell = match name {
        // Fig 9's HPBD-25 % cell: two quicksorts of (256 Mi / scale) i32
        // over (512 MiB / scale) local memory, 4 servers x (512 MiB /
        // scale), same-tick batching as fig9 ships it. The measured cell
        // keeps 1 024 frames and the smoke cell 128: below ~512 frames the
        // pair loses stores made through a stale `PagedVec` lookaside on
        // some seeds (README, "Known defect").
        "qsort_pair_hpbd" => {
            let scale = if full { 128 } else { 1024 };
            let mut config = ScenarioConfig::new(
                scaled_bytes(512 * MIB, scale),
                scaled_bytes(512 * MIB, scale) * 4,
                SwapKind::Hpbd { servers: 4 },
            );
            config.hpbd.batching = true;
            config.hpbd.merge_window_ns = 0;
            Cell {
                name: WORKLOADS[0],
                config,
                work: Work::QsortPair {
                    elements: ((256u64 << 20) / scale) as usize,
                    seed,
                },
            }
        }
        // kvbench's HPBD cell: table ~1.5x local memory, skewed, 80 %
        // reads, readahead off, one server, default HpbdConfig.
        "kv_hpbd" => {
            let scale = if full { 80 } else { 1024 };
            let records = (scaled_bytes(768 * MIB, scale) / 80) as usize;
            let mut config = ScenarioConfig::new(
                scaled_bytes(512 * MIB, scale),
                scaled_bytes(1024 * MIB, scale),
                SwapKind::Hpbd { servers: 1 },
            );
            config.readahead_pages = Some(1);
            Cell {
                name: WORKLOADS[1],
                config,
                work: Work::Kv(KvParams {
                    records,
                    operations: records * 2,
                    seed,
                    skewed: true,
                    ..KvParams::default()
                }),
            }
        }
        // figU's zipf cell on the direct path: array 2x local memory,
        // 4 servers, 24 accesses per page, 30 % writes, readahead 8.
        "zipf_direct" => {
            let scale = if full { 16 } else { 256 };
            let local = scaled_bytes(512 * MIB, scale);
            let pages = (2 * local / 4096) as usize;
            let mut config = ScenarioConfig::new(
                local,
                scaled_bytes(1024 * MIB, scale),
                SwapKind::Hpbd { servers: 4 },
            );
            config.swap_path = SwapPath::Direct;
            Cell {
                name: WORKLOADS[2],
                config,
                work: Work::Zipf(ZipfParams {
                    pages,
                    operations: pages * 24,
                    seed,
                    ..ZipfParams::default()
                }),
            }
        }
        // Block-level stream: 4 servers, default 1 MiB pool and 16
        // credits, queue depth 32. The per-server extent is an odd number
        // of 64 KiB units so 128 KiB requests straddle extent boundaries.
        "blk_stream_hpbd" => {
            let per_server = if full { 16 * MIB } else { MIB } + (64 << 10);
            let config = ScenarioConfig::new(0, per_server * 4, SwapKind::Hpbd { servers: 4 });
            Cell {
                name: WORKLOADS[3],
                config,
                work: Work::BlkStream(StreamParams {
                    rounds: if full { 5 } else { 2 },
                    reads_per_round: if full { 12_000 } else { 2_000 },
                    burst_reads: 1_024,
                    queue_depth: 32,
                    seed,
                    corrupt_read: None,
                }),
            }
        }
        _ => return None,
    };
    Some(cell)
}

/// The control for `cell`: the same work with no swap stack under it —
/// enough local memory for the VM cells, a RAM disk for the block stream.
/// `1 - local/hpbd` wall time is the swap stack's share of the workload.
pub fn local_control(cell: &Cell) -> Cell {
    let mut control = cell.clone();
    let footprint = match &cell.work {
        Work::QsortPair { elements, .. } => 2 * 4 * *elements as u64,
        // Table capacity is 2x records rounded up to a power of two, 8 B
        // keys + 32 B values per slot.
        Work::Kv(p) => (2 * p.records).next_power_of_two() as u64 * 40,
        Work::Zipf(p) => p.pages.next_power_of_two() as u64 * 4096,
        Work::BlkStream(_) => 0,
    };
    control.config.kind = SwapKind::LocalOnly;
    control.config.swap_path = SwapPath::Block;
    if footprint > 0 {
        control.config.local_mem = footprint + footprint / 8 + 4 * MIB;
    }
    control
}

/// What one pass of a cell produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Host wall time of the timed region, seconds.
    pub wall_s: f64,
    /// Process CPU time spent in the timed region, seconds.
    pub cpu_s: f64,
    /// Host time spent assembling the machine before the timed region.
    pub assembly_s: f64,
    /// Every deterministic metric (the `sim_*` end-to-end metrics and the
    /// per-layer counts), by name.
    pub observed: BTreeMap<String, f64>,
    /// Workload operations attempted.
    pub ops_attempted: u64,
    /// Workload operations that failed (errored request, data mismatch,
    /// unsorted output).
    pub ops_failed: u64,
    /// Samples behind the fault-latency percentiles.
    pub fault_samples: u64,
    /// Zipf cells: XOR-fold of every value read.
    pub checksum: Option<u64>,
}

/// Process CPU time so far, seconds: on-CPU nanoseconds from the
/// scheduler's accounting where the kernel exports it, else utime+stime
/// in clock ticks.
pub fn process_cpu_s() -> f64 {
    if let Ok(s) = std::fs::read_to_string("/proc/self/schedstat") {
        if let Some(ns) = s
            .split_whitespace()
            .next()
            .and_then(|f| f.parse::<u64>().ok())
        {
            if ns > 0 {
                return ns as f64 / 1e9;
            }
        }
    }
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, 100 ticks per second on Linux.
    let ticks: u64 = stat
        .rsplit_once(')')
        .map(|(_, rest)| {
            rest.split_whitespace()
                .skip(11)
                .take(2)
                .filter_map(|f| f.parse::<u64>().ok())
                .sum()
        })
        .unwrap_or(0);
    ticks as f64 / 100.0
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall and CPU clock over a timed region.
pub(crate) struct Stopwatch {
    started: Instant,
    cpu0: f64,
}

impl Stopwatch {
    pub(crate) fn start() -> Stopwatch {
        Stopwatch {
            cpu0: process_cpu_s(),
            started: Instant::now(),
        }
    }

    /// `(wall_s, cpu_s)` since the start.
    pub(crate) fn stop(&self) -> (f64, f64) {
        let wall = self.started.elapsed().as_secs_f64();
        (wall, process_cpu_s() - self.cpu0)
    }
}

/// One pass of `cell` the way the figure binaries run it: through
/// `Scenario`, tracing and lifecycle recording off. The block stream has
/// no `Scenario` form; it runs on a bare cluster with no decorators.
pub fn run_plain(cell: &Cell) -> Outcome {
    match &cell.work {
        Work::BlkStream(params) => {
            let t0 = Instant::now();
            let machine = assemble(&cell.config, None);
            let assembly_s = t0.elapsed().as_secs_f64();
            let watch = Stopwatch::start();
            let result = blkstream::run(&machine, params);
            let (wall_s, cpu_s) = watch.stop();
            stream_outcome(&machine, result, assembly_s, wall_s, cpu_s)
        }
        work => {
            let t0 = Instant::now();
            let scenario = Scenario::build(&cell.config);
            let assembly_s = t0.elapsed().as_secs_f64();
            let watch = Stopwatch::start();
            let (elapsed, checksum) = match work {
                Work::QsortPair { elements, seed } => {
                    (scenario.run_qsort_pair(*elements, *seed).2.elapsed, None)
                }
                Work::Kv(params) => (scenario.run_kvstore(params.clone()).elapsed, None),
                Work::Zipf(params) => {
                    let (report, checksum) = scenario.run_zipf(params.clone());
                    (report.elapsed, Some(checksum))
                }
                Work::BlkStream(_) => unreachable!("handled above"),
            };
            let (wall_s, cpu_s) = watch.stop();
            let (observed, fault_samples) = observe(&scenario_parts(&scenario), elapsed, None);
            Outcome {
                wall_s,
                cpu_s,
                assembly_s,
                observed,
                ops_attempted: work_ops(work),
                ops_failed: 0,
                fault_samples,
                checksum,
            }
        }
    }
}

/// The measured pass of `cell`: [`run_plain`], with the outputs checked.
/// The KV mix checks itself against its shadow model, the block stream
/// checks every read, and the zipf checksum is compared by the caller; the
/// quicksorts need their arrays, which `Scenario::run_qsort_pair` drops, so
/// its body runs here on the machine `Scenario::build` made and the arrays
/// are walked once the timed region and the report are closed.
pub fn run_measured(cell: &Cell) -> Outcome {
    let Work::QsortPair { elements, seed } = cell.work else {
        return run_plain(cell);
    };
    let t0 = Instant::now();
    let scenario = Scenario::build(&cell.config);
    let assembly_s = t0.elapsed().as_secs_f64();
    let watch = Stopwatch::start();
    let (elapsed, [a, b]) = qsort_pair(
        &scenario.engine,
        &scenario.node,
        &scenario.cal,
        &scenario.vm,
        (elements, seed),
        None,
    );
    // `Scenario` builds its report inside the timed region too.
    let (observed, fault_samples) = observe(&scenario_parts(&scenario), elapsed, None);
    let (wall_s, cpu_s) = watch.stop();
    let ops = work_ops(&cell.work);
    let sorted = a.is_sorted() && b.is_sorted();
    Outcome {
        wall_s,
        cpu_s,
        assembly_s,
        observed,
        ops_attempted: ops,
        ops_failed: if sorted { 0 } else { ops },
        fault_samples,
        checksum: None,
    }
}

fn scenario_parts(scenario: &Scenario) -> Parts<'_> {
    Parts {
        engine: &scenario.engine,
        vm: Some(&scenario.vm),
        cluster: scenario.hpbd.as_ref(),
        queue: scenario.swap_queue.as_ref(),
        direct: scenario.direct.as_ref(),
    }
}

/// Workload operations in one pass of `work`: elements sorted, KV
/// operations (load + transactions), zipf accesses, block requests.
pub fn work_ops(work: &Work) -> u64 {
    match work {
        Work::QsortPair { elements, .. } => 2 * *elements as u64,
        Work::Kv(p) => (p.records + p.operations) as u64,
        Work::Zipf(p) => p.operations as u64,
        Work::BlkStream(_) => 0, // counted by the driver itself
    }
}

pub(crate) fn stream_outcome(
    machine: &Machine,
    result: StreamResult,
    assembly_s: f64,
    wall_s: f64,
    cpu_s: f64,
) -> Outcome {
    let (observed, fault_samples) = observe(
        &machine.parts(),
        result.elapsed,
        Some(&result.read_latencies_us),
    );
    Outcome {
        wall_s,
        cpu_s,
        assembly_s,
        observed,
        ops_attempted: result.requests,
        ops_failed: result.failed,
        fault_samples,
        checksum: None,
    }
}

/// Borrowed handles to a finished machine, from either assembly.
pub struct Parts<'a> {
    /// The event engine.
    pub engine: &'a Engine,
    /// The VM (None for the block stream).
    pub vm: Option<&'a Vm>,
    /// The HPBD deployment (None for local controls).
    pub cluster: Option<&'a HpbdCluster>,
    /// The kernel request queue (block path only).
    pub queue: Option<&'a Rc<RequestQueue>>,
    /// The direct backend (direct path only).
    pub direct: Option<&'a Rc<DirectBackend>>,
}

/// Read every deterministic metric off a finished machine. `caller_lat_us`
/// replaces the VM's fault-latency histogram for the block stream, whose
/// caller-visible stall is the read latency its driver samples. Also
/// returns the sample count behind the fault-latency percentiles.
pub fn observe(
    parts: &Parts<'_>,
    elapsed: SimDuration,
    caller_lat_us: Option<&[f64]>,
) -> (BTreeMap<String, f64>, u64) {
    let metrics = parts.engine.metrics().snapshot();
    let counter = |name: &str| metrics.counters.get(name).copied().unwrap_or(0) as f64;
    let hist_p = |name: &str, pick: fn(&simtrace::HistogramSummary) -> f64| {
        metrics.histograms.get(name).map_or(0.0, pick)
    };
    let makespan_s = elapsed.as_secs_f64();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    m.insert("sim_makespan_s", makespan_s);
    let fault_samples = match caller_lat_us {
        Some(lat) => {
            m.insert(
                "sim_fault_mean_us",
                lat.iter().sum::<f64>() / lat.len().max(1) as f64,
            );
            m.insert("vmsim.fault_p50_us", crate::stats::nearest_rank(lat, 50.0));
            m.insert("sim_fault_p99_us", crate::stats::nearest_rank(lat, 99.0));
            lat.len() as u64
        }
        None => {
            let h = metrics.histograms.get("vmsim.fault_latency_us");
            m.insert("sim_fault_mean_us", h.map_or(0.0, |h| h.mean));
            m.insert("vmsim.fault_p50_us", h.map_or(0.0, |h| h.p50));
            m.insert("sim_fault_p99_us", h.map_or(0.0, |h| h.p99));
            h.map_or(0, |h| h.count)
        }
    };
    m.insert(
        "sim_read_p99_us",
        hist_p("hpbd.swap_in_latency_us", |h| h.p99),
    );
    m.insert(
        "sim_write_p99_us",
        hist_p("hpbd.swap_out_latency_us", |h| h.p99),
    );

    let client = parts.cluster.map(|c| c.client.stats()).unwrap_or_default();
    m.insert("sim_msgs_per_page", client.messages_per_page());
    let moved_mb = (client.bytes_in + client.bytes_out) as f64 / 1e6;
    m.insert(
        "sim_io_mb_per_s",
        if makespan_s > 0.0 {
            moved_mb / makespan_s
        } else {
            0.0
        },
    );

    let vm = parts.vm.map(|v| v.stats()).unwrap_or_default();
    m.insert("vmsim.major_faults", vm.major_faults as f64);
    m.insert("vmsim.swap_ins", vm.swap_ins as f64);
    m.insert("vmsim.swap_outs", vm.swap_outs as f64);
    m.insert("vmsim.readaheads", vm.readaheads as f64);
    m.insert(
        "vmsim.readahead_hit_ratio",
        if vm.readaheads == 0 {
            0.0
        } else {
            counter("vmsim.readahead_hits") / vm.readaheads as f64
        },
    );
    m.insert("vmsim.throttles", vm.throttles as f64);
    m.insert("vmsim.frame_waits", vm.frame_waits as f64);
    m.insert("vmsim.clean_evictions", vm.clean_evictions as f64);
    let direct = parts.direct.map(|d| d.stats()).unwrap_or_default();
    m.insert("vmsim.direct_polled", direct.polled as f64);
    m.insert("vmsim.direct_poll_timeouts", direct.poll_timeouts as f64);
    m.insert("vmsim.direct_poll_cpu_ms", direct.poll_cpu_ns as f64 / 1e6);

    let (requests, mean_bytes) = parts.queue.map_or((0.0, 0.0), |q| {
        let log = q.dispatch_log();
        let log = log.borrow();
        let n = log.len() as f64;
        let bytes: f64 = log.iter().map(|r| r.len as f64).sum();
        (n, if n > 0.0 { bytes / n } else { 0.0 })
    });
    m.insert("blockdev.requests", requests);
    m.insert("blockdev.mean_request_bytes", mean_bytes);
    m.insert(
        "blockdev.bios_per_request",
        hist_p("blockdev.bios_per_request", |h| h.mean),
    );

    m.insert("hpbd.phys_requests", client.phys_requests as f64);
    m.insert("hpbd.messages", client.messages as f64);
    m.insert("hpbd.merged_requests", client.merged_requests as f64);
    m.insert("hpbd.split_requests", client.split_requests as f64);
    m.insert("hpbd.credit_stalls", client.flow_stalls as f64);
    m.insert("hpbd.pool_waits", client.pool_waits as f64);
    m.insert("hpbd.receiver_wakeups", client.receiver_wakeups as f64);
    m.insert("hpbd.timeouts", client.timeouts as f64);
    m.insert("hpbd.retries", client.retries as f64);
    m.insert("hpbd.failovers", client.failovers as f64);
    let (srv_requests, srv_wakeups) = parts.cluster.map_or((0, 0), |c| {
        c.servers.iter().fold((0, 0), |(r, w), s| {
            let st = s.stats();
            (r + st.requests, w + st.wakeups)
        })
    });
    m.insert("hpbd_server.requests", srv_requests as f64);
    m.insert("hpbd_server.wakeups", srv_wakeups as f64);

    m.insert("ibsim.sends", counter("ibsim.sends"));
    m.insert("ibsim.rdma_reads", counter("ibsim.rdma_reads"));
    m.insert("ibsim.rdma_writes", counter("ibsim.rdma_writes"));
    m.insert("ibsim.cq_events", counter("ibsim.cq_events"));
    m.insert("ibsim.qp_ctx_reloads", counter("ibsim.qp_ctx_reloads"));

    m.insert("simcore.events", parts.engine.events_executed() as f64);
    m.insert(
        "simcore.max_pending_events",
        parts.engine.max_pending_events() as f64,
    );
    let mut observed: BTreeMap<String, f64> =
        m.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    observed.extend(phase_shares(parts.engine));
    (observed, fault_samples)
}

/// The flight recorder's virtual-time phase budget, when the machine
/// records lifecycles: each phase's share of the summed request
/// latencies, and the phase-sum oracle's mismatch count.
fn phase_shares(engine: &Engine) -> Vec<(String, f64)> {
    if !engine.lifecycle_enabled() {
        return Vec::new();
    }
    let summary = engine.lifecycle().summary();
    let total_of = |p: Phase| -> u64 { summary.devices.iter().map(|d| d.phase_total_ns(p)).sum() };
    let all: u64 = Phase::ALL.iter().map(|&p| total_of(p)).sum();
    let mut out: Vec<(String, f64)> = Phase::ALL
        .iter()
        .map(|&p| {
            let share = if all == 0 {
                0.0
            } else {
                100.0 * total_of(p) as f64 / all as f64
            };
            (phase_metric(p), share)
        })
        .collect();
    let mismatches: u64 = summary.devices.iter().map(|d| d.sum_mismatches).sum();
    out.push(("phase.sum_mismatches".to_string(), mismatches as f64));
    out
}
