//! Ablation study: the design alternatives the paper discusses but rejects
//! (§4.1 registration-on-the-fly, §4.2.5 striping), the flow-control
//! water-mark, and the RRMP-style mirroring it defers to future work.
//!
//! Run: `cargo run --release -p bench --bin ablation [--scale N]`
use bench::report::{print_rows, Row};
use bench::CommonArgs;
use hpbd::config::{Distribution, StagingMode};
use hpbd::HpbdConfig;
use workloads::{Scenario, ScenarioConfig, SwapKind};

fn run_one(args: &CommonArgs, label: &str, hpbd: HpbdConfig, servers: usize) -> Row {
    let local = args.scaled_bytes(512 << 20);
    let swap = args.scaled_bytes(1 << 30);
    let elements = args.scaled_elems(256 << 20);
    let mut config = ScenarioConfig::new(local, swap, SwapKind::Hpbd { servers });
    config.hpbd = hpbd;
    let scenario = Scenario::build(&config);
    let report = scenario.run_qsort(elements, args.seed);
    Row::new(
        label,
        report.elapsed.as_secs_f64(),
        format!("outs={} ins={}", report.vm.swap_outs, report.vm.swap_ins),
    )
}

fn main() {
    let args = CommonArgs::parse(&[]);
    println!(
        "Ablation study — quicksort over HPBD variants (scale 1/{})",
        args.scale
    );

    // 1. Staging: copy-through-pool (paper) vs register-on-the-fly.
    let mut rows = vec![run_one(&args, "copy-to-pool", HpbdConfig::default(), 1)];
    let on_fly = HpbdConfig {
        staging: StagingMode::RegisterOnFly,
        ..HpbdConfig::default()
    };
    rows.push(run_one(&args, "register-fly", on_fly, 1));
    print_rows(
        "staging strategy (paper §4.1: copying wins for 4K-127K requests)",
        "seconds",
        &rows,
    );

    // 2. Distribution: blocking (paper) vs striped, 4 servers.
    let mut rows = vec![run_one(&args, "blocking", HpbdConfig::default(), 4)];
    for stripe_pages in [4u64, 8, 16] {
        let c = HpbdConfig {
            distribution: Distribution::Striped {
                stripe_bytes: stripe_pages * 4096,
            },
            ..HpbdConfig::default()
        };
        rows.push(run_one(
            &args,
            &format!("striped-{}K", stripe_pages * 4),
            c,
            4,
        ));
    }
    print_rows(
        "swap-area distribution over 4 servers (paper §4.2.5: non-striping chosen)",
        "seconds",
        &rows,
    );

    // 3. Flow-control water-mark sweep.
    let mut rows = Vec::new();
    for credits in [1usize, 2, 4, 16, 64] {
        let c = HpbdConfig {
            credits,
            ..HpbdConfig::default()
        };
        rows.push(run_one(&args, &format!("credits-{credits}"), c, 1));
    }
    print_rows("flow-control water-mark (paper §4.2.4)", "seconds", &rows);

    // 4. Registered pool size.
    let mut rows = Vec::new();
    for pool_kb in [128u64, 256, 1024, 4096] {
        let c = HpbdConfig {
            pool_size: pool_kb * 1024,
            ..HpbdConfig::default()
        };
        rows.push(run_one(&args, &format!("pool-{pool_kb}K"), c, 1));
    }
    print_rows(
        "registered buffer pool size (paper §4.2.2: 1MB default)",
        "seconds",
        &rows,
    );

    // 5. Mirrored writes (future-work reliability).
    let mut rows = vec![run_one(&args, "no-mirror", HpbdConfig::default(), 2)];
    let mirrored = HpbdConfig {
        mirror_writes: true,
        ..HpbdConfig::default()
    };
    rows.push(run_one(&args, "mirrored", mirrored, 2));
    print_rows(
        "RRMP-style write mirroring (paper §4.1 points to [6],[13])",
        "seconds",
        &rows,
    );
}
