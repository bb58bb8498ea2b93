//! Figure 8: Barnes execution time across swap devices.
use bench::figures::fig8;
use bench::report::{print_metrics, print_paper_note, print_rows, write_trace, Row};
use bench::{CommonArgs, Flag};
use simcore::TraceSession;

fn main() {
    let args = CommonArgs::parse(Flag::ALL);
    let mut session = TraceSession::new(args.trace.is_some());
    println!(
        "Figure 8 — Barnes Execution Time (scale 1/{}: {} bodies)",
        args.scale,
        (2_097_152u64 / args.scale).max(2048)
    );
    let reports = fig8::run(&args, &mut session);
    let rows: Vec<Row> = reports
        .iter()
        .map(|r| {
            Row::new(
                r.label.clone(),
                r.elapsed.as_secs_f64(),
                format!(
                    "outs={} ins={} faults={}",
                    r.vm.swap_outs, r.vm.swap_ins, r.vm.major_faults
                ),
            )
        })
        .collect();
    print_rows("Barnes execution time", "seconds", &rows);
    println!();
    print_paper_note(&[
        "similar trends to quicksort; since Barnes does not perform intensive",
        "swapping (peak 516MB vs 512MB local), the improvement is less evident.",
    ]);
    if args.metrics {
        print_metrics(reports.iter().map(|r| (r.label.as_str(), &r.metrics)));
    }
    write_trace(&args, &session);
}
