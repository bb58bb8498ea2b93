//! Tests of the harness itself: names, order statistics, span arithmetic,
//! seeding, failure counting, the manifest, `compare`, and the smoke suite.

use hpbd_benchmark::assembly::{assemble, SPAN_NAMES};
use hpbd_benchmark::blkstream;
use hpbd_benchmark::cells::{cell, run_measured, run_plain, Size, Work, WORKLOADS};
use hpbd_benchmark::compare::{judge, Verdict};
use hpbd_benchmark::metrics::{end_to_end, manifest_json, per_layer, Better};
use hpbd_benchmark::spans::Recorder;
use hpbd_benchmark::stats::{
    highest_supported_percentile, iqr_share, median, nearest_rank, quartiles,
};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.chars().next().unwrap().is_ascii_alphanumeric()
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn names_and_units_are_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    for w in WORKLOADS {
        assert!(is_name(w), "workload {w}");
        assert!(seen.insert(w.to_string()), "duplicate {w}");
    }
    let (e2e, layers) = (end_to_end(), per_layer());
    assert!((1..=16).contains(&e2e.len()) && (1..=128).contains(&layers.len()));
    for m in e2e.iter().chain(&layers) {
        assert!(is_name(&m.name), "metric {}", m.name);
        assert!(is_unit(m.unit), "unit {} of {}", m.unit, m.name);
        assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
    }
    for m in &e2e {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
    }
    let setup = e2e
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    assert!(
        e2e.iter().all(|m| m.bound <= setup.bound),
        "set-up carries the largest bound"
    );
}

#[test]
fn manifest_matches_benchmark_json() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        on_disk,
        manifest_json(),
        "regenerate with `benchmark/run.sh manifest > BENCHMARK.json`"
    );
    let doc = simtrace::json::parse(&on_disk).expect("valid JSON");
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
}

#[test]
fn median_and_quartiles_match_python_statistics() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 8.25));
    // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
    assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: extrapolated.
    assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
    assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
    assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), 0.0);
}

#[test]
fn percentile_support_needs_ten_samples_beyond() {
    assert_eq!(highest_supported_percentile(19), None);
    assert_eq!(highest_supported_percentile(20), Some(50.0));
    assert_eq!(highest_supported_percentile(100), Some(90.0));
    assert_eq!(highest_supported_percentile(999), Some(95.0));
    assert_eq!(highest_supported_percentile(1_000), Some(99.0));
    assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    assert_eq!(highest_supported_percentile(1_000_000), Some(99.99));
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(nearest_rank(&hundred, 50.0), 50.0);
    assert_eq!(nearest_rank(&hundred, 99.0), 99.0);
    assert_eq!(nearest_rank(&[], 99.0), 0.0);
}

fn spin(iters: u64) {
    let mut x = 0u64;
    for i in 0..iters {
        x = std::hint::black_box(x.wrapping_add(i));
    }
}

#[test]
fn span_self_time_is_parent_minus_children() {
    let rec = Recorder::enabled(&SPAN_NAMES);
    let t0 = std::time::Instant::now();
    for _ in 0..50 {
        rec.span(0, 0, || {
            spin(2_000);
            rec.span(1, 8192, || {
                spin(1_000);
                rec.span(2, 8192, || spin(1_000));
            });
            rec.span(1, 4096, || spin(500));
        });
        rec.span(3, 0, || spin(100)); // a second root
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let totals = rec.totals();
    let by = |name: &str| totals.iter().find(|(n, _)| *n == name).unwrap().1;
    let (outer, mid, inner, other) = (
        by("workloads"),
        by("vmsim.backend"),
        by("hpbd.submit"),
        by("completion"),
    );
    assert_eq!(
        (outer.count, mid.count, inner.count, other.count),
        (50, 100, 50, 50)
    );
    // A parent's self time is its duration minus its direct children's.
    assert_eq!(outer.self_ns, outer.total_ns - mid.total_ns);
    assert_eq!(mid.self_ns, mid.total_ns - inner.total_ns);
    assert_eq!(inner.self_ns, inner.total_ns);
    // Only parentless spans are roots; self times tile the roots exactly.
    assert_eq!((mid.root_ns, inner.root_ns), (0, 0));
    assert_eq!(rec.root_ns(), outer.total_ns + other.total_ns);
    let self_sum: u64 = totals.iter().map(|(_, t)| t.self_ns).sum();
    assert_eq!(self_sum, rec.root_ns());
    // What the spans did not cover (the residual) is never negative.
    assert!(
        rec.root_ns() <= wall_ns,
        "roots {} exceed wall {wall_ns}",
        rec.root_ns()
    );

    let records = rec.records();
    assert_eq!(records.len(), 250);
    let nested = records.iter().find(|r| r.name == 2).unwrap();
    let parent = records
        .iter()
        .find(|r| Some(r.id) == nested.parent)
        .unwrap();
    assert_eq!(
        (parent.name, parent.request, nested.request),
        (1, 8192, 8192)
    );
    assert!(parent.start_ns <= nested.start_ns && nested.end_ns <= parent.end_ns);
    let json = rec.chrome_json("unit");
    simtrace::json::parse(&json).expect("the Chrome trace is valid JSON");
    assert!(Recorder::disabled().totals().is_empty());
}

#[test]
fn the_seed_reaches_every_generator() {
    for w in WORKLOADS {
        let run = |seed| run_plain(&cell(w, Size::Smoke, seed).unwrap());
        let (a, again, b) = (run(1), run(1), run(2));
        assert_eq!(a.observed, again.observed, "{w}: one seed, one result");
        assert_ne!(
            a.observed["sim_makespan_s"], b.observed["sim_makespan_s"],
            "{w}: seed ignored"
        );
        assert_eq!(a.ops_failed + b.ops_failed, 0, "{w}");
        assert!(
            a.ops_attempted > 0 && a.observed["sim_makespan_s"] > 0.0,
            "{w}"
        );
    }
    assert!(cell("no_such_workload", Size::Smoke, 1).is_none());
}

#[test]
fn the_measured_qsort_pass_is_scenarios_run_with_the_arrays_kept() {
    let smoke = cell("qsort_pair_hpbd", Size::Smoke, 1).unwrap();
    let (via_scenario, measured) = (run_plain(&smoke), run_measured(&smoke));
    assert_eq!(via_scenario.observed, measured.observed);
    assert_eq!(measured.ops_attempted, via_scenario.ops_attempted);
    assert_eq!(measured.ops_failed, 0, "arrays sorted");
}

#[test]
fn a_corrupted_read_is_counted_as_failed() {
    let smoke = cell("blk_stream_hpbd", Size::Smoke, 3).unwrap();
    let Work::BlkStream(mut params) = smoke.work.clone() else {
        panic!("block stream cell")
    };
    let clean = blkstream::run(&assemble(&smoke.config, None), &params);
    assert_eq!(clean.failed, 0);
    params.corrupt_read = Some(17);
    let dirty = blkstream::run(&assemble(&smoke.config, None), &params);
    assert_eq!((dirty.failed, dirty.requests), (1, clean.requests));
    assert_eq!(
        dirty.elapsed, clean.elapsed,
        "corruption is the harness's, not the device's"
    );
}

#[test]
fn compare_verdicts_follow_the_bounds() {
    let parent = [10.0, 10.1, 9.9, 10.05, 9.95];
    let lower = |b: &[f64], bound| judge(&parent, b, Better::Lower, bound);
    assert_eq!(
        lower(&[10.2, 10.3, 10.1, 10.25, 10.15], 0.10),
        Verdict::Unchanged
    );
    assert_eq!(
        lower(&[11.5, 11.6, 11.4, 11.5, 11.5], 0.10),
        Verdict::Regressed
    );
    assert_eq!(lower(&[9.0, 9.1, 8.9, 9.0, 9.0], 0.10), Verdict::Improved);
    // A parent whose own quartiles are further apart than the bound cannot
    // vouch for "unchanged" ...
    let noisy = [8.0, 12.0, 9.0, 11.0, 10.0];
    assert_eq!(
        judge(&noisy, &[10.2; 5], Better::Lower, 0.10),
        Verdict::Unresolved
    );
    // ... unless every run of the change beats every run of the parent.
    assert_eq!(
        judge(&noisy, &[7.0; 5], Better::Lower, 0.10),
        Verdict::Improved
    );
    assert_eq!(
        judge(&parent, &[8.0; 5], Better::Higher, 0.10),
        Verdict::Regressed
    );
    assert_eq!(
        judge(&parent, &[12.0; 5], Better::Higher, 0.10),
        Verdict::Improved
    );
}

/// `--smoke` runs the whole command quickly and prints every metric name
/// the full run does; `compare` accepts a result file against itself.
#[test]
fn smoke_suite_emits_every_metric_and_compares_clean() {
    let bin = env!("CARGO_BIN_EXE_hpbd-benchmark");
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-suite");
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(bin)
        .args(["--smoke", "--reps", "2", "--seed", "43"])
        .current_dir(&dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "suite failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let printed: BTreeSet<(&str, &str)> = stdout
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some((f.next()?, f.next()?))
        })
        .collect();
    let micro: BTreeSet<&str> = hpbd_benchmark::micro::ALL.iter().map(|m| m.name).collect();
    for w in WORKLOADS {
        for m in end_to_end().iter().chain(&per_layer()) {
            let scope = if micro.contains(m.name.as_str()) {
                "micro"
            } else {
                w
            };
            assert!(
                printed.contains(&(scope, m.name.as_str())),
                "{scope} {} was not printed",
                m.name
            );
        }
        assert!(printed.contains(&(w, "ops_failed")), "{w} ops_failed");
        assert!(
            dir.join(format!("results/trace-{w}.json")).is_file(),
            "{w} trace file"
        );
    }

    let latest = dir.join("results/latest.json");
    let same = Command::new(bin)
        .arg("compare")
        .arg(&latest)
        .arg(&latest)
        .output()
        .unwrap();
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );
    let bad = Command::new(bin)
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .unwrap();
    assert_eq!(
        bad.status.code(),
        Some(2),
        "unknown workloads are a usage error"
    );
}
