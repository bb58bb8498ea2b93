//! Figure U (reproduction extra): kernel block path vs user-space direct
//! swap path across the fig9/fig10 workloads plus a zipfian-access variant.
use bench::figures::figu;
use bench::report::{print_paper_note, ratio};
use bench::{CommonArgs, Flag};
use workloads::SwapPath;

fn main() {
    let args = CommonArgs::parse(&[Flag::Lifecycle, Flag::Threads]);
    println!(
        "Figure U — Kernel Block Path vs User-Space Direct Path (scale 1/{})",
        args.scale
    );
    let fig = figu::run(&args);

    println!(
        "\n{:<18} {:<7} {:>9} {:>10} {:>10} {:>8} {:>9} {:>9} {:>6}",
        "workload", "path", "makespan", "fault_p50", "fault_p99", "reqs", "mean_B", "msgs/pg", "ra"
    );
    for r in &fig.rows {
        let path = match r.path {
            SwapPath::Block => "block",
            SwapPath::Direct => "direct",
        };
        let (p50, p99) = r
            .fault_latency_us
            .as_ref()
            .map(|h| (h.p50, h.p99))
            .unwrap_or((0.0, 0.0));
        println!(
            "{:<18} {:<7} {:>8.3}s {:>9.1}u {:>9.1}u {:>8} {:>9.0} {:>9.2} {:>6}",
            r.label,
            path,
            r.elapsed_secs,
            p50,
            p99,
            r.requests,
            r.mean_request_bytes,
            r.messages_per_page,
            r.readaheads
        );
    }

    println!("\nper-pair deltas (direct vs block):");
    for label in fig
        .rows
        .iter()
        .filter(|r| r.path == SwapPath::Block)
        .map(|r| r.label.clone())
        .collect::<Vec<_>>()
    {
        let (block, direct) = fig.pair(&label);
        let bp = block
            .fault_latency_us
            .as_ref()
            .map(|h| h.p99)
            .unwrap_or(0.0);
        let dp = direct
            .fault_latency_us
            .as_ref()
            .map(|h| h.p99)
            .unwrap_or(0.0);
        let stats = direct.direct.as_ref().expect("direct row has poll stats");
        println!(
            "  {:<18} makespan {:+6.1}%  fault_p99 {:+6.1}%  polled={} ({} timeouts) \
             event_waits={} poll_cpu={:.1}ms",
            label,
            (direct.elapsed_secs / block.elapsed_secs - 1.0) * 100.0,
            if bp > 0.0 {
                (dp / bp - 1.0) * 100.0
            } else {
                0.0
            },
            stats.polled,
            stats.poll_timeouts,
            stats.event_waits,
            stats.poll_cpu_ns as f64 / 1e6
        );
    }

    let mismatches: u64 = fig.rows.iter().map(|r| r.phase_mismatches).sum();
    println!(
        "\nlifecycle phase-sum oracle: {} violations across {} cells",
        mismatches,
        fig.rows.len()
    );
    println!(
        "readahead: window of {} pages honored on both paths (direct sends the \
         demand page first and alone, its readahead cluster behind it as one \
         request, and never polls for that)",
        fig.rows.first().map(|r| r.readahead_pages).unwrap_or(8)
    );
    let (polled, timeouts) = fig
        .rows
        .iter()
        .filter_map(|r| r.direct.as_ref())
        .fold((0u64, 0u64), |(p, t), s| {
            (p + s.polled, t + s.poll_timeouts)
        });
    println!(
        "busy-poll: {timeouts} of {polled} polled demand loads ({:.1}%) outlived the \
         poll budget — the fault paid the budget in CPU, then slept the tail",
        ratio(polled as f64, timeouts as f64) * 100.0
    );
    if let Some(direct_zipf) = fig
        .rows
        .iter()
        .find(|r| r.workload == "zipf" && r.path == SwapPath::Direct)
    {
        let (block_zipf, _) = fig.pair(&direct_zipf.label);
        let agree = block_zipf.checksum == direct_zipf.checksum;
        println!(
            "zipf data checksum across paths: {}",
            if agree { "identical" } else { "DIVERGED" }
        );
    }

    println!();
    print_paper_note(&[
        "the paper swaps through the kernel block device (nbd/hpbd); this figure",
        "measures the reproduction's frontswap-style alternative: the demand page",
        "goes straight to the HPBD client, alone, with busy-poll completion, and",
        "write-back bursts and readahead clusters follow as coalesced requests.",
        "Demand faults skip the elevator's merge batching, so the faulting",
        "process stops paying for its neighbors' pages in the swap-in tail.",
    ]);
}
