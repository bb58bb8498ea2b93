//! Figure U (reproduction extra): kernel block path vs user-space direct
//! swap path.
//!
//! Every paper figure swaps through the kernel block layer: faults feed
//! bios into a plugged request queue, the elevator merges neighbors up to
//! 128 KiB, and the merged request goes to the device. Figure U asks what
//! the same machine does when vmsim bypasses all of that — the
//! frontswap-style [`DirectBackend`](vmsim::DirectBackend) submits the
//! demand page straight to the HPBD client, first and alone, and
//! busy-polls for its completion (with an adaptive fallback to event
//! waits when the fault stream goes idle); write-back bursts and
//! readahead clusters are coalesced at `reap` into requests of at most
//! 32 KiB. See DESIGN.md §16 for the contract.
//!
//! Four workload groups, each run on both [`SwapPath`]s:
//!
//! 1. **qsort-x2 / HPBD-4** — the Figure 9 workload (two concurrent
//!    quicksorts, 50 % local memory, 4 servers).
//! 2. **qsort / HPBD-1** and **qsort / HPBD-4** — the Figure 10 endpoints
//!    (one quicksort, 50 % local memory, 1 and 4 servers).
//! 3. **zipf / HPBD-4** — the skewed-access variant: Zipf(s=1) page
//!    popularity with hot pages scattered across the address range
//!    (see [`workloads::zipf`]); the pattern where a lone demand page
//!    should shine because merges rarely form around it anyway.
//!
//! Per cell the figure reports the makespan, the *fault-visible* swap-in
//! latency distribution (`vmsim.fault_latency_us` — what the faulting
//! process actually waits, the headline number), the device-level request
//! latency, request shapes (count, mean bytes), readahead traffic
//! (the direct path honors `readahead_pages` — a readahead cluster goes
//! out behind its demand page as one request and is never polled for),
//! the poll-model counters on direct cells, and the lifecycle phase-sum
//! oracle
//! (`sum_mismatches`, must be 0 on both paths). The zipf cells also carry
//! the task's data checksum: equal checksums across paths prove the two
//! swap paths return identical data.

use super::paper_sizes;
use crate::args::CommonArgs;
use simcore::FlightSummary;
use simtrace::HistogramSummary;
use vmsim::DirectStats;
use workloads::zipf::ZipfParams;
use workloads::{Scenario, ScenarioConfig, SwapKind, SwapPath};

/// One cell's outcome.
#[derive(Clone, Debug)]
pub struct FigURow {
    /// Workload group ("qsort-x2", "qsort", "zipf").
    pub workload: String,
    /// Cell label, e.g. "qsort-x2/HPBD-4".
    pub label: String,
    /// Which swap path the cell ran on.
    pub path: SwapPath,
    /// Virtual makespan, seconds.
    pub elapsed_secs: f64,
    /// `vmsim.fault_latency_us` — the stall the faulting process sees.
    pub fault_latency_us: Option<HistogramSummary>,
    /// Device-level swap-in latency (`hpbd.swap_in_latency_us`). On the
    /// block path a sample is a merged multi-page request; on the direct
    /// path it is a lone demand page or a readahead run — comparable only
    /// via the fault-visible histogram above.
    pub device_swap_in_us: Option<HistogramSummary>,
    /// Requests the backend sent to the device: merged requests on the
    /// block path; on the direct path one per demand page plus one per
    /// coalesced run of stores or readahead.
    pub requests: u64,
    /// Mean request size, bytes. On the direct path `requests` times this
    /// is exactly 4096 × the pages stored and loaded.
    pub mean_request_bytes: f64,
    /// HPBD wire messages per 4 KiB page moved.
    pub messages_per_page: f64,
    /// Major faults taken by the VM.
    pub major_faults: u64,
    /// Readahead pages pulled in (both paths honor the same
    /// `readahead_pages` window; the direct path sends a cluster as one
    /// request behind its demand page).
    pub readaheads: u64,
    /// The readahead window in effect (pages; the 2.4 default is 8).
    pub readahead_pages: usize,
    /// Poll-model counters (direct cells only).
    pub direct: Option<DirectStats>,
    /// Lifecycle phase-sum oracle: requests whose phase durations did not
    /// tile `[submit, end]` exactly. Must be 0 on both paths.
    pub phase_mismatches: u64,
    /// Flight-recorder snapshot (phase percentiles).
    pub lifecycle: Option<FlightSummary>,
    /// Zipf cells: XOR-fold of every value read. Equal across paths ⇒
    /// both swap paths returned identical data.
    pub checksum: Option<u64>,
    /// Engine events executed (printed per cell by `obsreport`).
    pub events: u64,
}

/// The full figure: rows in (workload, path) order — Block before Direct
/// within each group.
#[derive(Clone, Debug)]
pub struct FigU {
    /// Cell outcomes.
    pub rows: Vec<FigURow>,
}

impl FigU {
    /// The (block, direct) row pair for a workload label.
    pub fn pair(&self, label: &str) -> (&FigURow, &FigURow) {
        let find = |path| {
            self.rows
                .iter()
                .find(|r| r.label == label && r.path == path)
                .unwrap_or_else(|| panic!("figU has no {label} {path:?} row"))
        };
        (find(SwapPath::Block), find(SwapPath::Direct))
    }
}

/// The workload half of a cell.
#[derive(Clone, Copy)]
enum Work {
    QsortPair { servers: usize },
    Qsort { servers: usize },
    Zipf { servers: usize },
}

impl Work {
    fn label(&self) -> String {
        match self {
            Work::QsortPair { servers } => format!("qsort-x2/HPBD-{servers}"),
            Work::Qsort { servers } => format!("qsort/HPBD-{servers}"),
            Work::Zipf { servers } => format!("zipf/HPBD-{servers}"),
        }
    }
}

/// The four workload groups, in display order.
fn works() -> Vec<Work> {
    vec![
        Work::QsortPair { servers: 4 },
        Work::Qsort { servers: 1 },
        Work::Qsort { servers: 4 },
        Work::Zipf { servers: 4 },
    ]
}

/// Run all cells, fanned across `args.threads` workers; rows come back in
/// sweep order.
pub fn run(args: &CommonArgs) -> FigU {
    // The phase-sum oracle is part of the figure: attribution marks only
    // cost host time, never virtual time, so recording is always on here.
    let mut args = args.clone();
    args.lifecycle = true;
    let works = works();
    let cells = works.len() * 2;
    let rows = args.runner().run_cells(cells, |i| {
        let work = works[i / 2];
        let path = if i % 2 == 0 {
            SwapPath::Block
        } else {
            SwapPath::Direct
        };
        run_cell(work, path, &args)
    });
    FigU { rows }
}

fn run_cell(work: Work, path: SwapPath, args: &CommonArgs) -> FigURow {
    let local = args.scaled_bytes(paper_sizes::LOCAL_MEM);
    let mut config = match work {
        // Figure 9's 50 % row: two 1 GiB datasets against 1 GiB of local
        // memory, swap split over the servers.
        Work::QsortPair { servers } => ScenarioConfig::new(
            args.scaled_bytes(1 << 30),
            args.scaled_bytes(512 << 20) * 4,
            SwapKind::Hpbd { servers },
        ),
        // Figure 10's setup: one 1 GiB dataset against 512 MiB local.
        Work::Qsort { servers } => ScenarioConfig::new(
            local,
            args.scaled_bytes(paper_sizes::DATASET_BYTES + (128 << 20)),
            SwapKind::Hpbd { servers },
        ),
        // Zipf array at 2× local memory; constant skewed paging.
        Work::Zipf { servers } => ScenarioConfig::new(
            local,
            args.scaled_bytes(paper_sizes::DATASET_BYTES),
            SwapKind::Hpbd { servers },
        ),
    };
    config.swap_path = path;
    config.record_lifecycle = args.lifecycle;
    let scenario = Scenario::build(&config);

    let elements = args.scaled_elems(paper_sizes::DATASET_ELEMS);
    let (workload, report, checksum) = match work {
        Work::QsortPair { .. } => {
            let (_, _, report) = scenario.run_qsort_pair(elements, args.seed);
            ("qsort-x2", report, None)
        }
        Work::Qsort { .. } => ("qsort", scenario.run_qsort(elements, args.seed), None),
        Work::Zipf { .. } => {
            let pages = (2 * local / 4096) as usize;
            let (report, checksum) = scenario.run_zipf(ZipfParams {
                pages,
                operations: pages * 24,
                seed: args.seed,
                ..ZipfParams::default()
            });
            ("zipf", report, Some(checksum))
        }
    };

    let lifecycle = report.lifecycle.clone();
    let phase_mismatches = lifecycle
        .as_ref()
        .map(|s| s.devices.iter().map(|d| d.sum_mismatches).sum())
        .unwrap_or(0);
    FigURow {
        workload: workload.to_string(),
        label: work.label(),
        path,
        elapsed_secs: report.elapsed.as_secs_f64(),
        fault_latency_us: report
            .metrics
            .histograms
            .get("vmsim.fault_latency_us")
            .cloned(),
        device_swap_in_us: report
            .metrics
            .histograms
            .get("hpbd.swap_in_latency_us")
            .cloned(),
        requests: report.requests,
        mean_request_bytes: report.mean_request_bytes,
        messages_per_page: report
            .hpbd_client
            .as_ref()
            .map(|c| c.messages_per_page())
            .unwrap_or(0.0),
        major_faults: report.vm.major_faults,
        readaheads: report.vm.readaheads,
        readahead_pages: config.readahead_pages.unwrap_or(8),
        direct: report.direct.clone(),
        phase_mismatches,
        lifecycle,
        checksum,
        events: report.events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fig() -> &'static FigU {
        static FIG: std::sync::OnceLock<FigU> = std::sync::OnceLock::new();
        FIG.get_or_init(|| {
            run(&CommonArgs {
                scale: 256,
                seed: 7,
                ..CommonArgs::default()
            })
        })
    }

    #[test]
    fn figu_runs_both_paths_and_the_oracle_is_clean() {
        let fig = small_fig();
        assert_eq!(fig.rows.len(), 8);
        for row in &fig.rows {
            assert!(row.major_faults > 0, "{} must page", row.label);
            assert!(
                row.lifecycle.is_some(),
                "{}: figU always records the flight recorder",
                row.label
            );
            assert_eq!(
                row.phase_mismatches, 0,
                "{} {:?}: phase tiling must be exact",
                row.label, row.path
            );
            match row.path {
                SwapPath::Block => assert!(row.direct.is_none()),
                SwapPath::Direct => {
                    let stats = row.direct.as_ref().expect("direct cell has poll stats");
                    let pages = stats.page_loads + stats.readahead_loads + stats.page_stores;
                    let request_bytes = row.requests as f64 * row.mean_request_bytes;
                    assert_eq!(
                        pages,
                        (request_bytes / 4096.0).round() as u64,
                        "{}: every page is in exactly one request",
                        row.label
                    );
                    assert!(
                        row.requests < pages,
                        "{}: {} requests for {pages} pages",
                        row.label,
                        row.requests
                    );
                    assert_eq!(
                        stats.page_loads, row.major_faults,
                        "{}: one demand load per major fault",
                        row.label
                    );
                    assert!(
                        stats.polled + stats.event_waits == stats.page_loads,
                        "{}: every demand load either polled or event-waited",
                        row.label
                    );
                }
            }
        }
    }

    #[test]
    fn figu_direct_path_coalesces() {
        for row in small_fig()
            .rows
            .iter()
            .filter(|r| r.path == SwapPath::Direct)
        {
            assert!(
                row.messages_per_page < 1.2,
                "{}: {} wire messages per page; write-back bursts and readahead \
                 clusters must go out coalesced",
                row.label,
                row.messages_per_page
            );
        }
    }

    /// The direct path's claim is the stall the faulting task sees. On the
    /// two-task cell a demand read can queue behind the other task's
    /// multi-page run, so at this scale its tail is chaotic (the p99
    /// comparison is held at scale 64 below); its median is not.
    #[test]
    fn figu_direct_path_improves_fault_latency() {
        let fig = small_fig();
        let faults = |row: &FigURow| row.fault_latency_us.clone().expect("cell faults");
        let (block, direct) = fig.pair("qsort-x2/HPBD-4");
        let (bp50, dp50) = (faults(block).p50, faults(direct).p50);
        assert!(
            dp50 < bp50,
            "qsort-x2/HPBD-4: direct fault p50 must beat block: {dp50}us vs {bp50}us"
        );
        for label in ["qsort/HPBD-1", "qsort/HPBD-4", "zipf/HPBD-4"] {
            let (block, direct) = fig.pair(label);
            let (bp99, dp99) = (faults(block).p99, faults(direct).p99);
            assert!(
                dp99 < bp99,
                "{label}: direct fault p99 must beat block: {dp99}us vs {bp99}us"
            );
        }
    }

    #[test]
    #[ignore = "scale 64, ~10 s in release: run by the figu-smoke CI job"]
    fn figu_direct_path_improves_fault_p99_on_the_fig9_workload() {
        let args = CommonArgs {
            scale: 64,
            seed: 7,
            ..CommonArgs::default()
        };
        let p99 = |path| {
            run_cell(Work::QsortPair { servers: 4 }, path, &args)
                .fault_latency_us
                .expect("pair cell faults")
                .p99
        };
        let (bp99, dp99) = (p99(SwapPath::Block), p99(SwapPath::Direct));
        assert!(
            dp99 < bp99,
            "direct swap-in p99 must beat block: {dp99}us vs {bp99}us"
        );
    }

    #[test]
    fn figu_zipf_checksums_agree_across_paths() {
        let (block, direct) = small_fig().pair("zipf/HPBD-4");
        assert_eq!(
            block.checksum.expect("zipf block checksum"),
            direct.checksum.expect("zipf direct checksum"),
            "the two swap paths must return identical data"
        );
    }

    #[test]
    fn figu_readahead_is_honored_on_both_paths() {
        let (block, direct) = small_fig().pair("qsort/HPBD-4");
        assert!(block.readaheads > 0, "block path reads ahead");
        assert!(direct.readaheads > 0, "direct path honors readahead too");
        let stats = direct.direct.as_ref().unwrap();
        assert_eq!(stats.readahead_loads, direct.readaheads);
    }
}
