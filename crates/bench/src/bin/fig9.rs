//! Figure 9: two concurrent quicksort instances, multi-server HPBD.
use bench::figures::fig9;
use bench::report::{hpbd_note, print_metrics, print_paper_note, print_rows, write_trace, Row};
use bench::{CommonArgs, Flag};
use simcore::TraceSession;

fn main() {
    let args = CommonArgs::parse(Flag::ALL);
    let mut session = TraceSession::new(args.trace.is_some());
    println!(
        "Figure 9 — Quick Sort Execution Time, Two Concurrent Instances (scale 1/{})",
        args.scale
    );
    let runs = fig9::run(&args, &mut session);
    let rows: Vec<Row> = runs
        .iter()
        .map(|r| {
            Row::new(
                r.label.clone(),
                r.makespan_secs,
                format!(
                    "A={:.2}s B={:.2}s outs={}{}",
                    r.a_secs,
                    r.b_secs,
                    r.swap_outs,
                    hpbd_note(&r.report)
                ),
            )
        })
        .collect();
    print_rows("two-instance makespan", "seconds", &rows);
    println!();
    print_paper_note(&[
        "with 50% of local memory HPBD is 1.7x slower than the 2GB local case,",
        "with 25% it is 2.5x slower; disk paging is ~36x slower",
        "(whence the abstract's 'up to 21 times faster than local disk').",
    ]);
    if args.metrics {
        print_metrics(runs.iter().map(|r| (r.label.as_str(), &r.report.metrics)));
    }
    write_trace(&args, &session);
}
