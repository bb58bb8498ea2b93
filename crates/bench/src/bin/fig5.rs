//! Figure 5: testswap execution time across swap devices.
use bench::figures::fig5;
use bench::report::{hpbd_note, print_metrics, print_paper_note, print_rows, write_trace, Row};
use bench::{CommonArgs, Flag};
use simcore::TraceSession;

fn main() {
    let args = CommonArgs::parse(Flag::ALL);
    let mut session = TraceSession::new(args.trace.is_some());
    println!(
        "Figure 5 — Testswap Execution Time (scale 1/{}: {} MiB dataset, {} MiB local)",
        args.scale,
        (1 << 30) / args.scale / (1 << 20),
        (512 << 20) / args.scale / (1 << 20)
    );
    let reports = fig5::run(&args, &mut session);
    let rows: Vec<Row> = reports
        .iter()
        .map(|r| {
            Row::new(
                r.label.clone(),
                r.elapsed.as_secs_f64(),
                format!(
                    "outs={} ins={} throttles={} mean-req={:.0}B{}",
                    r.vm.swap_outs,
                    r.vm.swap_ins,
                    r.vm.throttles,
                    r.mean_request_bytes,
                    hpbd_note(r)
                ),
            )
        })
        .collect();
    print_rows("testswap execution time", "seconds", &rows);
    println!();
    print_paper_note(&[
        "local 5.8s, HPBD 8.4s (local 1.45x faster than HPBD);",
        "HPBD 2.2x faster than disk, 1.45x faster than NBD-GigE, 1.29x faster than NBD-IPoIB.",
    ]);
    if args.metrics {
        print_metrics(reports.iter().map(|r| (r.label.as_str(), &r.metrics)));
    }
    write_trace(&args, &session);
}
