//! Command line of the benchmark. `run.sh` builds this and passes its
//! arguments through.
//!
//! ```text
//! hpbd-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! hpbd-benchmark [--seed N] [--reps N] [--smoke]          (the whole suite)
//! hpbd-benchmark compare A.json B.json
//! hpbd-benchmark manifest                    (the text of BENCHMARK.json)
//! hpbd-benchmark child pass|traced|phases|control|micro ...      (internal)
//! ```

use hpbd_benchmark::cells::{Size, WORKLOADS};
use hpbd_benchmark::passes::{control_pass, phase_pass, plain_pass, traced_pass, PassResult};
use hpbd_benchmark::suite::{render_flat, results_dir, run_one, run_suite, Spec};
use hpbd_benchmark::{compare, micro};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  run.sh [--seed <n>] [--reps <n>] [--smoke]
  run.sh compare <parent.json> <change.json>
  run.sh --check
workloads: qsort_pair_hpbd kv_hpbd zipf_direct blk_stream_hpbd";

/// `--flag value` options and bare flags, checked against what is known.
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: usize,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 42,
        seconds: hpbd_benchmark::metrics::RUN_SECONDS as f64,
        trace: false,
        reps: 5,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => o.workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--reps" => o.reps = value.parse().ok().filter(|n| *n > 0).ok_or_else(bad)?,
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(o)
}

fn child(kind: &str, o: &Options, started: Instant) -> Result<PassResult, String> {
    let size = if o.smoke { Size::Smoke } else { Size::Full };
    if kind == "micro" {
        let flat = micro::run_all()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        return Ok(PassResult {
            flat,
            problems: Vec::new(),
        });
    }
    let name = o.workload.as_deref().ok_or("child needs --workload")?;
    let result = match kind {
        "pass" => plain_pass(name, size, o.seed, started),
        "traced" => {
            let path = results_dir().join(format!("trace-{name}.json"));
            traced_pass(name, size, o.seed, Some(&path))
        }
        "phases" => phase_pass(name, size, o.seed),
        "control" => control_pass(name, size, o.seed),
        _ => return Err(format!("unknown child kind {kind}")),
    };
    result.ok_or_else(|| format!("unknown workload {name}"))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome: Result<bool, String> = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => {
            let read = |p: &String| {
                std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))
            };
            read(&args[1]).and_then(|a| read(&args[2]).and_then(|b| compare::compare(&a, &b)))
        }
        Some("compare") => Err("compare takes two result files".into()),
        Some("manifest") => {
            print!("{}", hpbd_benchmark::metrics::manifest_json());
            Ok(true)
        }
        Some("child") if args.len() >= 2 => parse(&args[2..]).and_then(|o| {
            let result = child(&args[1], &o, started)?;
            result
                .problems
                .iter()
                .for_each(|p| eprintln!("PROBLEM: {p}"));
            println!("{}", render_flat(&result.flat));
            Ok(true)
        }),
        _ => parse(&args).map(|o| {
            let size = if o.smoke { Size::Smoke } else { Size::Full };
            match &o.workload {
                // The result line carries `correct`; a printed result exits 0.
                Some(workload) => {
                    run_one(
                        Spec {
                            workload,
                            seed: o.seed,
                            size,
                        },
                        o.seconds,
                        o.trace,
                    );
                    true
                }
                None => run_suite(o.seed, o.reps, size),
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
