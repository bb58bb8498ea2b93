//! Figure 10: quicksort execution time with 1-16 memory servers.
use bench::figures::fig10;
use bench::report::{hpbd_note, print_metrics, print_paper_note, print_rows, write_trace, Row};
use bench::{CommonArgs, Flag};
use simcore::TraceSession;

fn main() {
    let args = CommonArgs::parse(Flag::ALL);
    let mut session = TraceSession::new(args.trace.is_some());
    println!(
        "Figure 10 — Quick Sort Execution Time with Multiple Servers (scale 1/{})",
        args.scale
    );
    let points = fig10::run(&args, &mut session);
    let rows: Vec<Row> = points
        .iter()
        .map(|p| {
            Row::new(
                format!("{} server(s)", p.servers),
                p.seconds,
                format!("qp-ctx-reloads={}{}", p.ctx_reloads, hpbd_note(&p.report)),
            )
        })
        .collect();
    print_rows("quicksort vs memory servers", "seconds", &rows);
    println!();
    print_paper_note(&[
        "HPBD performs similarly up to 8 servers; for 16 servers there is some",
        "degradation, due to the HCA design for multiple queue pair processing.",
    ]);
    if args.metrics {
        print_metrics(
            points
                .iter()
                .map(|p| (p.report.label.as_str(), &p.report.metrics)),
        );
    }
    write_trace(&args, &session);
}
