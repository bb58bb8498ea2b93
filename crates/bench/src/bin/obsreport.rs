//! obsreport — phase-latency attribution over the paper's figures.
//!
//! Re-runs the swap-heavy figures (5, 9, 10, the recovery figure R and
//! the swap-path figure U — the latter covering the user-space direct
//! path's collapsed-queue phase tiling on every cell)
//! with the request-lifecycle flight recorder enabled and post-processes
//! each cell into a phase-attribution table: per-phase p50/p95/p99, the
//! share of total swap time each phase consumed, retry/failover cost
//! accounting, and the protocol's messages-per-page overhead, followed by
//! the cell's engine event count and device swap-in p99.
//!
//! ```text
//! obsreport [--scale N] [--seed N] [--threads N] [--skip-figr]
//! ```
//!
//! Every printed number is virtual-clock deterministic, at any `--threads`.
//! The stdout at `--scale 256 --seed 42` is the golden file of
//! `crates/bench/tests/obsreport_golden.rs`.
//!
//! Every cell is also an oracle run: the binary exits 1 if any completed
//! request's recorded phases do not sum *exactly* to its end-to-end
//! latency (virtual clock, no tolerance) — including requests that
//! retried or failed over. The check covers every request of the run via
//! the recorder's aggregate mismatch counter, not just the bounded ring.

use bench::figures::{fig10, fig5, fig9, figr, figu};
use bench::CommonArgs;
use simcore::{FlightSummary, TraceSession};
use simtrace::{DeviceFlight, HistogramSummary, Phase};
use workloads::{RunReport, SwapPath};

fn main() {
    let mut common = CommonArgs::default();
    let mut skip_figr = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> u64 {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{name} requires an integer value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--scale" => common.scale = take("--scale").max(1),
            "--seed" => common.seed = take("--seed"),
            "--threads" => common.threads = take("--threads") as usize,
            "--skip-figr" => skip_figr = true,
            "--help" | "-h" => {
                eprintln!("usage: obsreport [--scale N] [--seed N] [--threads N] [--skip-figr]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                std::process::exit(2);
            }
        }
    }
    common.lifecycle = true;

    println!(
        "obsreport — phase-latency attribution (scale 1/{}, seed {})",
        common.scale, common.seed
    );

    let mut verified: u64 = 0;
    let mut violations: u64 = 0;

    println!("\n=== fig5: testswap across swap devices ===");
    for report in fig5::run(&common, &mut TraceSession::disabled()) {
        print_cell(
            Cell::of_report(&report.label, &report),
            &mut verified,
            &mut violations,
        );
    }

    println!("\n=== fig9: two concurrent quicksorts ===");
    for run in fig9::run(&common, &mut TraceSession::disabled()) {
        print_cell(
            Cell::of_report(&run.label, &run.report),
            &mut verified,
            &mut violations,
        );
    }

    println!("\n=== fig10: quicksort vs memory-server count ===");
    for point in fig10::run(&common, &mut TraceSession::disabled()) {
        print_cell(
            Cell::of_report(&format!("HPBD-{}", point.servers), &point.report),
            &mut verified,
            &mut violations,
        );
    }

    println!("\n=== figU: kernel block path vs user-space direct path ===");
    for row in figu::run(&common).rows {
        let path = match row.path {
            SwapPath::Block => "block",
            SwapPath::Direct => "direct",
        };
        print_cell(
            Cell {
                label: &format!("{} {path}", row.label),
                events: row.events,
                swap_in: row.device_swap_in_us.as_ref(),
                lifecycle: row.lifecycle.as_ref(),
                msgs_per_page: Some(row.messages_per_page),
            },
            &mut verified,
            &mut violations,
        );
    }

    if !skip_figr {
        println!("\n=== figR: recovery from a memory-server crash ===");
        for row in figr::run(&common).rows {
            print_cell(
                Cell {
                    label: &row.label,
                    events: row.events,
                    swap_in: row.swap_in_latency_us.as_ref(),
                    lifecycle: row.lifecycle.as_ref(),
                    msgs_per_page: None,
                },
                &mut verified,
                &mut violations,
            );
        }
    }

    println!("\nphase-sum oracle: {verified} requests verified, {violations} violations");
    if violations > 0 {
        eprintln!("FAIL: some requests' phases do not sum to their end-to-end latency");
        std::process::exit(1);
    }
}

/// What one figure cell contributes to the report.
struct Cell<'a> {
    label: &'a str,
    /// Engine events the cell executed.
    events: u64,
    /// The swap device's swap-in latency histogram (request level, µs).
    swap_in: Option<&'a HistogramSummary>,
    lifecycle: Option<&'a FlightSummary>,
    msgs_per_page: Option<f64>,
}

impl<'a> Cell<'a> {
    fn of_report(label: &'a str, report: &'a RunReport) -> Cell<'a> {
        Cell {
            label,
            events: report.events,
            swap_in: report.metrics.histograms.get("hpbd.swap_in_latency_us"),
            lifecycle: report.lifecycle.as_ref(),
            msgs_per_page: report.hpbd_client.as_ref().map(|c| c.messages_per_page()),
        }
    }
}

/// Print one cell's attribution tables, then its event count and swap-in
/// p99, and fold its oracle counts into the run totals.
fn print_cell(cell: Cell, verified: &mut u64, violations: &mut u64) {
    let label = cell.label;
    match cell.lifecycle {
        None => println!("\n[{label}] no flight recorder (lifecycle disabled for this cell)"),
        Some(summary) if summary.devices.is_empty() => {
            println!("\n[{label}] no swap traffic recorded")
        }
        Some(summary) => {
            for dev in &summary.devices {
                *verified += dev.total;
                *violations += dev.sum_mismatches;
                print_device(label, dev, cell.msgs_per_page);
            }
        }
    }
    match cell.swap_in.filter(|h| h.count > 0) {
        Some(h) => println!(
            "  cell: {} engine events, swap-in p99 {:.1} us",
            cell.events, h.p99
        ),
        None => println!("  cell: {} engine events", cell.events),
    }
}

fn print_device(label: &str, dev: &DeviceFlight, msgs_per_page: Option<f64>) {
    let us = |ns: u64| ns as f64 / 1e3;
    println!(
        "\n[{label}] device {}: {} requests ({} failed, {} retries, {} failovers)",
        dev.device, dev.total, dev.failed, dev.retries, dev.failovers
    );
    if let Some(mpp) = msgs_per_page {
        println!("  protocol cost: {mpp:.2} messages per 4 KiB page");
    }
    let e2e_total: u64 = dev.e2e_samples.iter().sum();
    println!(
        "  {:<16} {:>10} {:>10} {:>10} {:>8}",
        "phase", "p50 us", "p95 us", "p99 us", "share"
    );
    for (i, phase) in Phase::ALL.iter().enumerate() {
        let share = if e2e_total > 0 {
            dev.phase_total_ns(*phase) as f64 * 100.0 / e2e_total as f64
        } else {
            0.0
        };
        println!(
            "  {:<16} {:>10.1} {:>10.1} {:>10.1} {:>7.1}%",
            Phase::NAMES[i],
            us(dev.phase_percentile(*phase, 50.0)),
            us(dev.phase_percentile(*phase, 95.0)),
            us(dev.phase_percentile(*phase, 99.0)),
            share
        );
    }
    println!(
        "  {:<16} {:>10.1} {:>10.1} {:>10.1} {:>7.1}%",
        "end-to-end",
        us(dev.e2e_percentile(50.0)),
        us(dev.e2e_percentile(95.0)),
        us(dev.e2e_percentile(99.0)),
        100.0
    );
    let recovery_ns = dev.phase_total_ns(Phase::RetryOverhead);
    if dev.retries + dev.failovers > 0 || recovery_ns > 0 {
        println!(
            "  recovery cost: {:.1} us total retry-overhead ({:.2}% of swap time) across {} retries + {} failovers",
            us(recovery_ns),
            if e2e_total > 0 {
                recovery_ns as f64 * 100.0 / e2e_total as f64
            } else {
                0.0
            },
            dev.retries,
            dev.failovers
        );
    }
    if dev.sum_mismatches > 0 {
        println!(
            "  !! {} requests violated the phase-sum invariant",
            dev.sum_mismatches
        );
    }
}
