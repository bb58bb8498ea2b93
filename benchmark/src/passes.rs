//! What each child process does. Every measurement runs in a fresh child
//! so that it owns its peak RSS, starts from the same heap, and cannot be
//! skewed by what ran before it; the parent (`crate::suite`) runs children
//! strictly one after another and folds their flat results.

use crate::assembly::{run_decorated, SPAN_NAMES};
use crate::cells::{
    cell, local_control, peak_rss_mb, run_measured, run_plain, Cell, Outcome, Size, Work,
};
use crate::metrics::span_metric;
use crate::spans::Recorder;
use netmodel::Transport;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use workloads::{Scenario, ScenarioConfig, SwapKind};

/// A child's result: metric name to value.
pub type Flat = BTreeMap<String, f64>;

/// A child's result plus what its self-checks found wrong (empty: clean).
pub struct PassResult {
    /// The numbers.
    pub flat: Flat,
    /// Human-readable findings; any finding fails every op of the pass.
    pub problems: Vec<String>,
}

fn finish(mut flat: Flat, outcome: &Outcome, problems: Vec<String>) -> PassResult {
    let failed = if problems.is_empty() {
        outcome.ops_failed
    } else {
        outcome.ops_attempted
    };
    flat.insert("ops_attempted".into(), outcome.ops_attempted as f64);
    flat.insert("ops_failed".into(), failed as f64);
    flat.extend(outcome.observed.clone());
    PassResult { flat, problems }
}

/// Names on which two sets of deterministic metrics differ.
pub fn differing(a: &Flat, b: &Flat) -> Vec<String> {
    a.iter()
        .filter_map(|(k, va)| match b.get(k) {
            Some(vb) if va.to_bits() != vb.to_bits() => Some(format!("{k}: {va} vs {vb}")),
            _ => None,
        })
        .collect()
}

/// The timed pass: warm up at smoke size, assemble the machine, run the
/// workload once the way the figure binaries do, then — outside both the
/// set-up and the timed region — check the outputs of that run.
///
/// `started` is the instant the process began; `setup_s` runs from there
/// to the start of the timed region, so it covers the warm-up run and the
/// machine assembly.
pub fn plain_pass(name: &str, size: Size, seed: u64, started: Instant) -> Option<PassResult> {
    let full = cell(name, size, seed)?;
    let smoke = cell(name, Size::Smoke, seed)?;
    let warm = run_plain(&smoke);
    let before_s = started.elapsed().as_secs_f64();
    let outcome = run_measured(&full);
    let rss_mb = peak_rss_mb();

    let mut flat = Flat::new();
    flat.insert("setup_s".into(), before_s + outcome.assembly_s);
    flat.insert("wall_s".into(), outcome.wall_s);
    flat.insert("cpu_s".into(), outcome.cpu_s);
    flat.insert("peak_rss_mb".into(), rss_mb);
    flat.insert("fault_samples".into(), outcome.fault_samples as f64);
    // Per major fault on the VM cells, per request on the block stream.
    let faults = match full.work {
        Work::BlkStream(_) => outcome.ops_attempted as f64,
        _ => outcome.observed["vmsim.major_faults"],
    };
    flat.insert(
        "host_us_per_fault".into(),
        outcome.wall_s * 1e6 / faults.max(1.0),
    );

    let mut problems = assembly_check(&smoke, &warm);
    problems.extend(data_check(&full, &outcome));
    Some(finish(flat, &outcome, problems))
}

/// Self-check (b): at smoke size the benchmark's own decorated assembly
/// must return exactly what `Scenario` returned (elapsed, VM counters,
/// events — every deterministic metric) and the same data checksum.
///
/// The warm-up's outputs are not the measured run's, so a wrong one is
/// reported and does not fail the pass. That matters for the quicksort
/// pair alone: `vmsim::PagedVec`'s lookaside survives its page going under
/// writeback (`Vm::reclaim` leaves the epoch alone there), so writes made
/// through it are neither re-dirtied nor written out, and with the other
/// task's reclaim running in the same scheduler wave the 128-frame warm-up
/// cell loses elements on about one seed in 200 (README, "Known defect").
fn assembly_check(smoke: &Cell, via_scenario: &Outcome) -> Vec<String> {
    let own = run_decorated(smoke, &Recorder::enabled(&SPAN_NAMES));
    let mut problems: Vec<String> = differing(&via_scenario.observed, &own.observed)
        .into_iter()
        .map(|d| format!("own assembly differs from Scenario at smoke size: {d}"))
        .collect();
    if own.checksum != via_scenario.checksum {
        problems.push("data checksum differs between Scenario and own assembly".into());
    }
    if own.ops_failed > 0 {
        eprintln!(
            "NOTE: the smoke-size warm-up of {} failed its output check (not counted)",
            smoke.name
        );
    }
    problems
}

/// Output check on the measured pass itself, where one exists: the zipf
/// walker's checksum must equal that of a run that never paged.
fn data_check(full: &Cell, outcome: &Outcome) -> Vec<String> {
    match (&full.work, outcome.checksum) {
        (Work::Zipf(_), Some(sum)) => {
            let local = run_plain(&local_control(full));
            if local.checksum == Some(sum) {
                Vec::new()
            } else {
                vec![format!(
                    "zipf checksum {sum:#x} differs from the local-memory run's {:?}",
                    local.checksum
                )]
            }
        }
        _ => Vec::new(),
    }
}

/// The traced pass: the same cell on the benchmark's own assembly with
/// the span decorators recording. Yields the deterministic metrics again
/// (they must equal the plain pass's), per-span self times and what the
/// decorators could not see. The spans go to `trace_path` as a Chrome
/// trace.
pub fn traced_pass(
    name: &str,
    size: Size,
    seed: u64,
    trace_path: Option<&Path>,
) -> Option<PassResult> {
    let full = cell(name, size, seed)?;
    let rec = Recorder::enabled(&SPAN_NAMES);
    let outcome = run_decorated(&full, &rec);

    let mut flat = Flat::new();
    flat.insert("traced_wall_s".into(), outcome.wall_s);
    for (span, totals) in rec.totals() {
        flat.insert(span_metric(span), totals.self_ns as f64 / 1e9);
    }
    // Event handlers of the server, ibsim, netmodel and the scheduler run
    // from the engine loop, which nothing outside the program can wrap.
    flat.insert(
        "span.engine_residual_s".into(),
        outcome.wall_s - rec.root_ns() as f64 / 1e9,
    );

    let mut problems = Vec::new();
    if let Some(path) = trace_path {
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, rec.chrome_json(name)));
        if let Err(e) = written {
            problems.push(format!("cannot write {}: {e}", path.display()));
        }
    }
    Some(finish(flat, &outcome, problems))
}

/// The phase pass: the plain pass again with the program's own flight
/// recorder on (`record_lifecycle`), for the virtual-time phase budget.
/// It is a pass of its own because recording costs about a fifth more host
/// time, which would otherwise be booked as span overhead.
pub fn phase_pass(name: &str, size: Size, seed: u64) -> Option<PassResult> {
    let mut full = cell(name, size, seed)?;
    full.config.record_lifecycle = true;
    let outcome = run_plain(&full);
    let mut problems = Vec::new();
    if outcome.observed.get("phase.sum_mismatches") != Some(&0.0) {
        problems.push("lifecycle phases do not tile the request latency".into());
    }
    Some(finish(Flat::new(), &outcome, problems))
}

/// The control pass: the same work with no swap stack under it.
pub fn control_pass(name: &str, size: Size, seed: u64) -> Option<PassResult> {
    let control = local_control(&cell(name, size, seed)?);
    let outcome = run_plain(&control);
    let mut flat = Flat::new();
    flat.insert("ctl.local_wall_s".into(), outcome.wall_s);
    Some(PassResult {
        flat,
        problems: Vec::new(),
    })
}

/// The Fig 5 ordering smoke at scale 64: testswap must order local < HPBD
/// < NBD-IPoIB < NBD-GigE < disk. Returns the HPBD/local ratio, the one
/// model-fidelity figure this benchmark states (the paper measured 1.45).
pub fn fig5_ordering() -> Result<f64, String> {
    const SCALE: u64 = 64;
    let local_mem = (512 << 20) / SCALE;
    let swap = (1 << 30) / SCALE;
    let elements = ((256u64 << 20) / SCALE) as usize;
    let configs = [
        ("local", (2 << 30) / SCALE, SwapKind::LocalOnly),
        ("HPBD", local_mem, SwapKind::Hpbd { servers: 1 }),
        (
            "NBD-IPoIB",
            local_mem,
            SwapKind::Nbd {
                transport: Transport::IpoIb,
            },
        ),
        (
            "NBD-GigE",
            local_mem,
            SwapKind::Nbd {
                transport: Transport::GigE,
            },
        ),
        ("disk", local_mem, SwapKind::Disk),
    ];
    let times: Vec<(&str, f64)> = configs
        .into_iter()
        .map(|(label, mem, kind)| {
            let scenario = Scenario::build(&ScenarioConfig::new(mem, swap, kind));
            (label, scenario.run_testswap(elements).elapsed.as_secs_f64())
        })
        .collect();
    for pair in times.windows(2) {
        if pair[0].1 >= pair[1].1 {
            return Err(format!(
                "Fig 5 ordering broken: {} {:.4} s is not below {} {:.4} s",
                pair[0].0, pair[0].1, pair[1].0, pair[1].1
            ));
        }
    }
    Ok(times[1].1 / times[0].1)
}
