//! Figure 7: quicksort execution time across swap devices.
use bench::figures::fig7;
use bench::report::{print_metrics, print_paper_note, print_rows, write_trace, Row};
use bench::{CommonArgs, Flag};
use simcore::TraceSession;

fn main() {
    let args = CommonArgs::parse(Flag::ALL);
    let mut session = TraceSession::new(args.trace.is_some());
    println!(
        "Figure 7 — Quick Sort Execution Time (scale 1/{}: {} Mi elements)",
        args.scale,
        (256 << 20) / args.scale / (1 << 20)
    );
    let reports = fig7::run(&args, &mut session);
    let rows: Vec<Row> = reports
        .iter()
        .map(|r| {
            Row::new(
                r.label.clone(),
                r.elapsed.as_secs_f64(),
                format!(
                    "outs={} ins={} faults={} throttles={}",
                    r.vm.swap_outs, r.vm.swap_ins, r.vm.major_faults, r.vm.throttles
                ),
            )
        })
        .collect();
    print_rows("quicksort execution time", "seconds", &rows);
    println!();
    print_paper_note(&[
        "local 94s, HPBD 138s (memory 1.47x faster than HPBD);",
        "HPBD 4.5x faster than local disk, 1.36x faster than NBD-GigE, 1.13x than NBD-IPoIB.",
    ]);
    if args.metrics {
        print_metrics(reports.iter().map(|r| (r.label.as_str(), &r.metrics)));
    }
    write_trace(&args, &session);
}
