//! The parent side: run children one after another, fold their results,
//! check that what must repeat exactly does, print and persist.
//!
//! Two entry points share everything below them. [`run_one`] is the
//! per-run contract (`--workload W --seed N --seconds S --trace 0|1`): it
//! measures one workload for `S` seconds' worth of fresh-process passes and
//! prints one JSON object as its last line. [`run_suite`] is the whole
//! benchmark in one command: every workload `reps` times, one traced pass
//! and one control each, the microbenches once, the Fig 5 ordering smoke,
//! all written to `results/latest.json`.

use crate::cells::{Size, WORKLOADS};
use crate::metrics::{deterministic_names, end_to_end, per_layer, Metric};
use crate::passes::{differing, fig5_ordering, Flat};
use crate::stats::{highest_supported_percentile, median, quartiles};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Fewest passes a timed run takes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// When to stop taking timed passes.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After this many passes.
    Reps(usize),
    /// Before a pass of average length would run past this many seconds
    /// (and after at least [`MIN_PASSES`]).
    Seconds(f64),
}

/// What the children of one measurement are told.
#[derive(Clone, Copy, Debug)]
pub struct Spec<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Seed of every generator.
    pub seed: u64,
    /// Cell size.
    pub size: Size,
}

/// Run one child of this executable and parse the flat JSON object on its
/// last stdout line. The child's stderr passes through.
fn child(kind: &str, spec: Option<Spec<'_>>) -> Result<Flat, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child").arg(kind);
    if let Some(spec) = spec {
        cmd.args([
            "--workload",
            spec.workload,
            "--seed",
            &spec.seed.to_string(),
        ]);
        if spec.size == Size::Smoke {
            cmd.arg("--smoke");
        }
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child {kind}: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {kind} ended with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    parse_flat(last).ok_or_else(|| format!("child {kind} printed no result: {last:?}"))
}

/// Parse `{"name": number, ...}`.
pub fn parse_flat(line: &str) -> Option<Flat> {
    let value = simtrace::json::parse(line).ok()?;
    value
        .as_object()?
        .iter()
        .map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
        .collect()
}

/// Render `{"name": number, ...}` with every digit of every number.
pub fn render_flat(flat: &Flat) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in flat.iter().enumerate() {
        let _ = write!(out, "{}\"{k}\":{v}", if i == 0 { "" } else { "," });
    }
    out.push('}');
    out
}

/// Median, quartiles, minimum and count of one metric over the passes.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// The samples, in pass order.
    pub values: Vec<f64>,
}

impl Summary {
    fn of(values: Vec<f64>) -> Summary {
        let (q1, q3) = quartiles(&values);
        Summary {
            median: median(&values),
            q1,
            q3,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            values,
        }
    }
}

/// The timed passes of one workload, folded.
pub struct Timed {
    /// Per end-to-end metric, over the passes that ran.
    pub summaries: BTreeMap<String, Summary>,
    /// The deterministic metrics (identical in every pass, or a problem).
    pub exact: Flat,
    /// Ops attempted, over all passes.
    pub attempted: u64,
    /// Ops failed, over all passes; a child that died fails the ops of a
    /// whole pass.
    pub failed: u64,
    /// What went wrong, if anything.
    pub problems: Vec<String>,
}

/// Take timed passes of one workload until `stop`.
pub fn timed_passes(spec: Spec<'_>, stop: Stop) -> Timed {
    let started = Instant::now();
    let mut passes: Vec<Flat> = Vec::new();
    let mut problems = Vec::new();
    let mut dead = 0u64;
    loop {
        let taken = passes.len() + dead as usize;
        let enough = match stop {
            Stop::Reps(n) => taken >= n,
            Stop::Seconds(s) => {
                let elapsed = started.elapsed().as_secs_f64();
                taken >= MIN_PASSES && elapsed + elapsed / taken as f64 > s
            }
        };
        if enough || dead >= 2 {
            break;
        }
        match child("pass", Some(spec)) {
            Ok(flat) => passes.push(flat),
            Err(e) => {
                problems.push(e);
                dead += 1;
            }
        }
    }

    let exact_names = deterministic_names();
    let exact: Flat = passes.first().map_or_else(Flat::new, |first| {
        first
            .iter()
            .filter(|(k, _)| exact_names.contains(k))
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    });
    for (i, pass) in passes.iter().enumerate().skip(1) {
        for d in differing(&exact, pass) {
            problems.push(format!("pass {i} differs from pass 0 on {d}"));
        }
    }

    // The end-to-end metrics, and the one host metric of the per-layer
    // table that comes from the timed passes.
    let summaries = end_to_end()
        .iter()
        .map(|m| m.name.as_str())
        .chain(["host_us_per_fault"])
        .filter_map(|name| {
            let values: Vec<f64> = passes.iter().filter_map(|p| p.get(name).copied()).collect();
            (!values.is_empty()).then(|| (name.to_string(), Summary::of(values)))
        })
        .collect();
    let sum = |key: &str| {
        passes
            .iter()
            .map(|p| p.get(key).copied().unwrap_or(0.0) as u64)
            .sum::<u64>()
    };
    let per_pass = passes.first().map_or(1, |p| p["ops_attempted"] as u64);
    let (attempted, failed) = (
        sum("ops_attempted") + dead * per_pass,
        sum("ops_failed") + dead * per_pass,
    );
    if failed > 0 && problems.is_empty() {
        problems.push(format!("{failed} of {attempted} ops failed"));
    }
    // The p99 metrics are only meaningful with ten samples beyond them.
    if spec.size == Size::Full {
        let samples = passes
            .first()
            .and_then(|p| p.get("fault_samples"))
            .copied()
            .unwrap_or(0.0) as u64;
        if highest_supported_percentile(samples).is_none_or(|p| p < 99.0) {
            problems.push(format!(
                "{samples} fault-latency samples cannot support a p99"
            ));
        }
    }
    Timed {
        summaries,
        exact,
        attempted,
        failed,
        problems,
    }
}

/// The per-layer side of one workload, folded from its children.
pub struct Layers {
    /// Per-layer metric values (microbenches excluded: they come from their own child).
    pub values: Flat,
    /// Ops attempted / failed in the traced pass.
    pub attempted: u64,
    /// See above.
    pub failed: u64,
    /// What went wrong, if anything.
    pub problems: Vec<String>,
}

/// One traced, one phase and one control pass of a workload, set against
/// the timed passes `plain` (their median wall time, and the deterministic
/// metrics the other passes have to reproduce exactly).
pub fn layer_passes(spec: Spec<'_>, plain: &Timed) -> Layers {
    let median_of = |name: &str| plain.summaries.get(name).map_or(f64::NAN, |s| s.median);
    let (plain_wall_s, plain_exact) = (median_of("wall_s"), &plain.exact);
    let mut problems = Vec::new();
    let mut values = Flat::new();
    values.insert("host_us_per_fault".into(), median_of("host_us_per_fault"));
    let (mut attempted, mut failed) = (1, 1);
    match child("traced", Some(spec)) {
        Ok(traced) => {
            attempted = traced["ops_attempted"] as u64;
            failed = traced["ops_failed"] as u64;
            for d in differing(plain_exact, &traced) {
                problems.push(format!("traced pass differs from the plain pass on {d}"));
            }
            if failed > 0 {
                problems.push(format!(
                    "{failed} of {attempted} ops failed in the traced pass"
                ));
            }
            let traced_wall = traced["traced_wall_s"];
            values.insert(
                "trace_overhead_pct".into(),
                100.0 * (traced_wall / plain_wall_s - 1.0),
            );
            if traced["span.engine_residual_s"] < 0.0 {
                problems.push("root spans cover more than the traced wall time".into());
            }
            values.extend(traced);
        }
        Err(e) => problems.push(e),
    }
    match child("phases", Some(spec)) {
        Ok(phases) => {
            for d in differing(plain_exact, &phases) {
                problems.push(format!("phase pass differs from the plain pass on {d}"));
            }
            if phases["ops_failed"] > 0.0 {
                problems.push("the phase-sum oracle failed".into());
                failed += phases["ops_failed"] as u64;
            }
            values.extend(phases.into_iter().filter(|(k, _)| k.starts_with("phase.")));
        }
        Err(e) => problems.push(e),
    }
    match child("control", Some(spec)) {
        Ok(control) => {
            let local = control["ctl.local_wall_s"];
            values.insert(
                "ctl.swap_stack_share_pct".into(),
                100.0 * (1.0 - local / plain_wall_s),
            );
            values.extend(control);
        }
        Err(e) => problems.push(e),
    }
    let events = plain_exact
        .get("simcore.events")
        .copied()
        .unwrap_or(0.0)
        .max(1.0);
    values.insert(
        "simcore.host_ns_per_event".into(),
        plain_wall_s * 1e9 / events,
    );
    Layers {
        values,
        attempted,
        failed,
        problems,
    }
}

fn print_metric(workload: &str, m: &Metric, value: f64, note: &str) {
    println!("{workload} {} {value} {}{note}", m.name, m.unit);
}

fn metrics_object(catalogue: &[Metric], values: &Flat) -> String {
    let mut out = String::from("{");
    for (i, m) in catalogue.iter().enumerate() {
        let v = values.get(&m.name).copied().unwrap_or(0.0);
        let _ = write!(
            out,
            "{}\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}",
            if i == 0 { "" } else { "," },
            m.name,
            m.unit
        );
    }
    out.push('}');
    out
}

/// Print one run: a line per metric of `catalogue`, the problems, and the
/// result object as the last line.
fn report_run(
    workload: &str,
    catalogue: &[Metric],
    values: &Flat,
    note: &str,
    (attempted, failed): (u64, u64),
    problems: &[String],
) {
    for m in catalogue {
        let value = values.get(&m.name).copied().unwrap_or(0.0);
        print_metric(workload, m, value, note);
    }
    for p in problems {
        eprintln!("PROBLEM {workload}: {p}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        problems.is_empty(),
        attempted.max(1),
        metrics_object(catalogue, values)
    );
}

/// The per-run contract: measure one workload and print the result object
/// as the last line. `trace` off: timed passes for `seconds`, end-to-end
/// metrics. `trace` on: one plain, one traced, one phase and one control
/// pass plus the microbenches, per-layer metrics.
pub fn run_one(spec: Spec<'_>, seconds: f64, trace: bool) {
    if !trace {
        let mut timed = timed_passes(spec, Stop::Seconds(seconds));
        let n = timed.summaries.get("wall_s").map_or(0, |s| s.values.len());
        if n == 0 {
            timed.problems.push("no timed pass completed".into());
        }
        let mut medians: Flat = timed
            .summaries
            .iter()
            .map(|(k, s)| (k.clone(), s.median))
            .collect();
        medians.extend(timed.exact);
        let note = format!(" (median of {n} passes)");
        let ops = (timed.attempted, timed.failed);
        report_run(
            spec.workload,
            &end_to_end(),
            &medians,
            &note,
            ops,
            &timed.problems,
        );
        return;
    }
    let plain = timed_passes(spec, Stop::Reps(1));
    let mut layers = layer_passes(spec, &plain);
    layers.problems.extend(plain.problems);
    match child("micro", None) {
        Ok(table) => layers.values.extend(table),
        Err(e) => layers.problems.push(e),
    }
    let ops = (layers.attempted, layers.failed);
    report_run(
        spec.workload,
        &per_layer(),
        &layers.values,
        "",
        ops,
        &layers.problems,
    );
}

/// Where results go: `results/` beside the package's sources when run
/// from a checkout (the current directory holds `benchmark/`), else the
/// current directory's `results/`.
pub fn results_dir() -> PathBuf {
    let nested = Path::new("benchmark");
    if nested.join("Cargo.toml").is_file() {
        nested.join("results")
    } else {
        PathBuf::from("results")
    }
}

/// The whole benchmark in one command. Returns whether all was correct.
pub fn run_suite(seed: u64, reps: usize, size: Size) -> bool {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# hpbd-benchmark suite: seed {seed}, {reps} reps, {size:?} size, {nproc} CPUs, children run one at a time");
    let mut ok = true;
    let mut doc = format!(
        "{{\"seed\":{seed},\"reps\":{reps},\"size\":\"{}\",\"nproc\":{nproc},\"workloads\":{{",
        if size == Size::Full { "full" } else { "smoke" }
    );
    let (e2e, layers_catalogue) = (end_to_end(), per_layer());

    for (w, workload) in WORKLOADS.iter().enumerate() {
        let spec = Spec {
            workload,
            seed,
            size,
        };
        let timed = timed_passes(spec, Stop::Reps(reps));
        let layers = layer_passes(spec, &timed);

        let _ = write!(
            doc,
            "{}\"{workload}\":{{\"end_to_end\":{{",
            if w == 0 { "" } else { "," }
        );
        for (i, m) in e2e.iter().enumerate() {
            let Some(s) = timed.summaries.get(&m.name) else {
                continue;
            };
            print_metric(
                workload,
                m,
                s.median,
                &format!(
                    " (q1 {} q3 {} min {} n {})",
                    s.q1,
                    s.q3,
                    s.min,
                    s.values.len()
                ),
            );
            let values: Vec<String> = s.values.iter().map(f64::to_string).collect();
            let _ = write!(
                doc,
                "{}\"{}\":{{\"median\":{},\"q1\":{},\"q3\":{},\"min\":{},\"n\":{},\"values\":[{}]}}",
                if i == 0 { "" } else { "," },
                m.name,
                s.median,
                s.q1,
                s.q3,
                s.min,
                s.values.len(),
                values.join(",")
            );
        }
        let layer_values: Flat = layers_catalogue
            .iter()
            .filter_map(|m| layers.values.get(&m.name).map(|v| (m.name.clone(), *v)))
            .collect();
        for m in layers_catalogue
            .iter()
            .filter(|m| layer_values.contains_key(&m.name))
        {
            print_metric(workload, m, layer_values[&m.name], "");
        }
        let _ = write!(
            doc,
            "}},\"per_layer\":{},\"ops_attempted\":{},\"ops_failed\":{}}}",
            render_flat(&layer_values),
            timed.attempted + layers.attempted,
            timed.failed + layers.failed
        );
        println!(
            "{workload} ops_attempted {} count",
            timed.attempted + layers.attempted
        );
        println!(
            "{workload} ops_failed {} count",
            timed.failed + layers.failed
        );
        for p in timed.problems.iter().chain(&layers.problems) {
            eprintln!("PROBLEM {workload}: {p}");
            ok = false;
        }
    }

    doc.push_str("},\"micro\":");
    match child("micro", None) {
        Ok(table) => {
            for m in layers_catalogue
                .iter()
                .filter(|m| table.contains_key(&m.name))
            {
                print_metric("micro", m, table[&m.name], "");
            }
            doc.push_str(&render_flat(&table));
        }
        Err(e) => {
            eprintln!("PROBLEM micro: {e}");
            doc.push_str("{}");
            ok = false;
        }
    }
    match fig5_ordering() {
        Ok(ratio) => {
            println!("fig5 hpbd_over_local {ratio} ratio (paper: 1.45; ordering local < HPBD < NBD-IPoIB < NBD-GigE < disk holds)");
            let _ = write!(doc, ",\"fig5_hpbd_over_local\":{ratio}");
        }
        Err(e) => {
            eprintln!("PROBLEM fig5: {e}");
            ok = false;
        }
    }
    let _ = write!(doc, ",\"correct\":{ok}}}");
    doc.push('\n');

    let dir = results_dir();
    let path = dir.join("latest.json");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => println!("# wrote {}", path.display()),
        Err(e) => {
            eprintln!("PROBLEM cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    ok
}
