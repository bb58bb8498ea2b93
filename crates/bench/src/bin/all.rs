//! Run every figure at the given scale and print a compact paper-vs-measured
//! summary (the source of EXPERIMENTS.md numbers).
use bench::figures::{fig1, fig10, fig3, fig5, fig6, fig7, fig8, fig9};
use bench::{CommonArgs, Flag};
use simcore::TraceSession;

fn ratios(label: &str, secs: &[f64], names: &[&str]) {
    println!("\n### {label}");
    for (n, s) in names.iter().zip(secs) {
        println!("  {:<12} {:>9.3}s  ({:.2}x of first)", n, s, s / secs[0]);
    }
}

fn main() {
    let args = CommonArgs::parse(&[Flag::Threads]);
    println!(
        "# HPBD reproduction — full experiment sweep (scale 1/{})",
        args.scale
    );

    println!("\n## Figure 1 (latency, us)");
    for p in fig1::run() {
        println!(
            "  {:>7}B memcpy={:<9.2} rdma={:<9.2} ipoib={:<9.2} gige={:.2}",
            p.size, p.memcpy_us, p.rdma_write_us, p.ipoib_us, p.gige_us
        );
    }

    println!("\n## Figure 3 (registration vs memcpy, us)");
    for p in fig3::run() {
        println!(
            "  {:>8}B reg={:<10.2} memcpy={:<10.2} dereg={:.2}",
            p.size, p.registration_us, p.memcpy_us, p.deregistration_us
        );
    }

    let names = ["local", "HPBD", "NBD-IPoIB", "NBD-GigE", "disk"];

    let f5: Vec<f64> = fig5::run(&args, &mut TraceSession::disabled())
        .iter()
        .map(|r| r.elapsed.as_secs_f64())
        .collect();
    ratios("Figure 5: testswap", &f5, &names);

    let profile = fig6::run(&args);
    println!("\n### Figure 6: testswap request profile");
    println!(
        "  clusters={} requests={} overall-mean={:.0}B write-mean={:.0}B",
        profile.clusters.len(),
        profile.total_requests,
        profile.overall_mean,
        profile.write_mean
    );

    let f7: Vec<f64> = fig7::run(&args, &mut TraceSession::disabled())
        .iter()
        .map(|r| r.elapsed.as_secs_f64())
        .collect();
    ratios("Figure 7: quicksort", &f7, &names);

    let f8: Vec<f64> = fig8::run(&args, &mut TraceSession::disabled())
        .iter()
        .map(|r| r.elapsed.as_secs_f64())
        .collect();
    ratios("Figure 8: Barnes", &f8, &names);

    println!("\n### Figure 9: two concurrent quicksorts");
    let f9 = fig9::run(&args, &mut TraceSession::disabled());
    for r in &f9 {
        println!(
            "  {:<10} makespan={:>8.3}s ({:.2}x of local)  A={:.3}s B={:.3}s",
            r.label,
            r.makespan_secs,
            r.makespan_secs / f9[0].makespan_secs,
            r.a_secs,
            r.b_secs
        );
    }

    println!("\n### Figure 10: quicksort vs server count");
    let f10 = fig10::run(&args, &mut TraceSession::disabled());
    for p in &f10 {
        println!(
            "  {:>2} servers {:>8.3}s ({:.3}x of 1)  ctx-reloads={}",
            p.servers,
            p.seconds,
            p.seconds / f10[0].seconds,
            p.ctx_reloads
        );
    }
}
