//! Extra experiment (beyond the paper): a database-like key-value
//! transaction mix across the five swap configurations — the workload the
//! paper's introduction motivates ("modern databases typically maintain
//! millions of records"). Random single-page faults defeat readahead, so
//! the device latency gap shows up harder than in the paper's figures.
use bench::figures::standard_configs;
use bench::report::{print_rows, Row};
use bench::CommonArgs;
use workloads::kvstore::KvParams;
use workloads::Scenario;

fn main() {
    let args = CommonArgs::parse(&[]);
    // The table is 2.5x local memory: `next_power_of_two` rounds its
    // 2x-records slot count up (10 MiB against 4 MiB at scale 1/128). The
    // popularity is skewed, but Fibonacci hashing scatters the hot keys
    // over every page of the table, so nothing hot stays resident: about
    // 1.85 major faults per operation at every scale — the out-of-core
    // database regime.
    let records = (args.scaled_bytes(768 << 20) / 80) as usize; // ~40B/slot at 50% load
    let operations = records * 2;
    println!(
        "KV transaction mix (scale 1/{}: {} records, {} ops, 80% reads, skewed)",
        args.scale, records, operations
    );
    let run = |config: &workloads::ScenarioConfig| {
        let scenario = Scenario::build(config);
        scenario.run_kvstore(KvParams {
            records,
            operations,
            seed: args.seed,
            skewed: true,
            ..KvParams::default()
        })
    };
    let rows: Vec<Row> = standard_configs(&args)
        .into_iter()
        .map(|(label, mut config)| {
            // Random single-page faults: swap-in readahead only pollutes
            // memory here, so the tuned configuration disables it (see the
            // ablation below).
            config.readahead_pages = Some(1);
            let report = run(&config);
            Row::new(
                label,
                report.elapsed.as_secs_f64(),
                format!(
                    "outs={} ins={} faults={}",
                    report.vm.swap_outs, report.vm.swap_ins, report.vm.major_faults
                ),
            )
        })
        .collect();
    print_rows("KV store transaction mix (readahead off)", "seconds", &rows);

    // Readahead ablation on the HPBD row: the 2.4 default of 8 pages vs off.
    let mut rows = Vec::new();
    for (label, ra) in [
        ("readahead-8 (2.4 default)", None),
        ("readahead-off", Some(1)),
    ] {
        let (_, mut config) = standard_configs(&args).into_iter().nth(1).expect("HPBD");
        config.readahead_pages = ra;
        let report = run(&config);
        rows.push(Row::new(
            label,
            report.elapsed.as_secs_f64(),
            format!(
                "ins={} readaheads={} faults={}",
                report.vm.swap_ins, report.vm.readaheads, report.vm.major_faults
            ),
        ));
    }
    print_rows(
        "swap-in readahead under random faults (HPBD)",
        "seconds",
        &rows,
    );
    println!("\n(sequential workloads love the 8-page window — Figure 6; random ones pay for it)");
}
