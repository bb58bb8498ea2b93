//! Figure 6: testswap average request size for each request cluster.
use bench::figures::fig6;
use bench::report::print_paper_note;
use bench::CommonArgs;

fn main() {
    let args = CommonArgs::parse(&[]);
    println!(
        "Figure 6 — Testswap Average Request Size per Request Cluster (scale 1/{})",
        args.scale
    );
    let profile = fig6::run(&args);
    println!(
        "\n{:>8} {:>10} {:>14}",
        "cluster", "requests", "avg size (B)"
    );
    // Print a representative sample if there are many clusters.
    let step = (profile.clusters.len() / 40).max(1);
    for c in profile.clusters.iter().step_by(step) {
        println!("{:>8} {:>10} {:>14.0}", c.index, c.requests, c.mean_bytes);
    }
    println!(
        "\nclusters: {}   total requests: {}   overall mean: {:.0} B   write mean: {:.0} B",
        profile.clusters.len(),
        profile.total_requests,
        profile.overall_mean,
        profile.write_mean
    );
    println!();
    print_paper_note(&[
        "testswap involves mostly messages around 120K (merged swap-out clusters",
        "bounded by the 128K single-request limit of Linux 2.4).",
    ]);
}
