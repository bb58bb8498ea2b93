//! Figure R (reproduction extra): recovery from a memory-server crash,
//! HPBD (mirrored writes, timeout + failover) vs the NBD baseline.
use bench::figures::figr;
use bench::report::{print_paper_note, print_rows, Row};
use bench::{CommonArgs, Flag};

fn main() {
    let args = CommonArgs::parse(&[Flag::Lifecycle, Flag::Threads]);
    println!(
        "Figure R — Recovery From a Memory-Server Failure (scale 1/{})",
        args.scale
    );
    let fig = figr::run(&args);
    println!(
        "fault injected at t={:.1}ms (virtual)\n",
        fig.fault_at_ns as f64 / 1e6
    );

    let rows: Vec<Row> = fig
        .rows
        .iter()
        .map(|r| {
            let recovery = match r.recovery_ms {
                Some(ms) => match r.detection_ms {
                    Some(d) => format!("detect={d:.2}ms recovery={ms:.2}ms"),
                    None => format!("recovery={ms:.2}ms"),
                },
                None if r.fault_ms.is_some() => "recovery=never".to_string(),
                None => "healthy".to_string(),
            };
            Row::new(
                r.label.clone(),
                r.elapsed_secs,
                format!(
                    "{recovery} timeouts={} retries={} failovers={} clean_failures={} \
                     stale_drops={} migration_retries={}",
                    r.timeouts,
                    r.retries,
                    r.failovers,
                    r.clean_failures,
                    r.stale_drops,
                    r.migration_retries
                ),
            )
        })
        .collect();
    print_rows("makespan", "seconds", &rows);

    let crash = &fig.rows[1];
    if !crash.recovery_cdf.is_empty() {
        println!(
            "\nrecovery-latency CDF ({}, requests overlapping the outage):",
            crash.label
        );
        println!("  {:>12} {:>8}", "latency_ms", "cumfrac");
        for &(ms, frac) in sparse(&crash.recovery_cdf, 16) {
            println!("  {ms:>12.3} {frac:>8.3}");
        }
    }

    println!(
        "\ndegraded-throughput timeline (MiB/s per {}-bin):",
        figr::TIMELINE_BINS
    );
    println!(
        "  {:>10} {:>14} {:>14} {:>14}",
        "t_ms", &fig.rows[0].label, &fig.rows[1].label, &fig.rows[3].label
    );
    for i in 0..figr::TIMELINE_BINS {
        let t = fig.rows[1].timeline[i].t_ms;
        let h = fig.rows[0].timeline.get(i).map_or(0.0, |s| s.mib_per_s);
        let c = fig.rows[1].timeline[i].mib_per_s;
        let n = fig.rows[3].timeline.get(i).map_or(0.0, |s| s.mib_per_s);
        println!("  {t:>10.1} {h:>14.1} {c:>14.1} {n:>14.1}");
    }

    println!();
    print_paper_note(&[
        "the paper leaves reliability out of scope (§4.1); this figure measures",
        "the reproduction's recovery story: HPBD with mirrored writes rides out",
        "a 1-of-4 server crash (finite recovery, workload completes), while the",
        "NBD baseline dies permanently — but cleanly — on a TCP reset.",
    ]);
}

/// At most `n` evenly spaced points of a CDF (always keeping the last).
fn sparse(cdf: &[(f64, f64)], n: usize) -> impl Iterator<Item = &(f64, f64)> {
    let step = (cdf.len() / n).max(1);
    cdf.iter()
        .enumerate()
        .filter(move |(i, _)| i % step == 0 || *i == cdf.len() - 1)
        .map(|(_, p)| p)
}
