//! Fan-out differential oracle: spreading a figure's cells over the sweep
//! pool's worker threads must be *observationally invisible*. For fig5,
//! fig9, and figR (fault plans included) every observable — the full
//! debug-formatted reports (metrics snapshots, event counts, flight-recorder
//! dumps) and the byte-exact Chrome trace export with its FNV fingerprint —
//! must be identical between the inline run (`--threads 1`, no worker is
//! spawned) and `--threads` at 2, 4, and 8.

use bench::figures::{fig5, fig9, figr};
use bench::CommonArgs;
use simcore::TraceSession;

/// FNV-1a over a rendered export: a compact fingerprint that pins every
/// byte (the kind CI uploads next to the figure artifacts).
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// Small-scale figure args with the flight recorder on, so the differential
/// also covers the lifecycle dumps embedded in each report.
fn args(scale: u64, seed: u64, threads: usize) -> CommonArgs {
    CommonArgs {
        scale,
        seed,
        threads,
        lifecycle: true,
        ..CommonArgs::default()
    }
}

fn fig5_under(threads: usize) -> (String, String) {
    let mut session = TraceSession::new(true);
    let reports = fig5::run(&args(256, 7, threads), &mut session);
    (format!("{reports:#?}"), session.to_chrome_json())
}

fn fig9_under(threads: usize) -> (String, String) {
    // Scale 1024 keeps the five-way sweep fast; byte-identity is the
    // oracle here, and it is scale-invariant.
    let mut session = TraceSession::new(true);
    let reports = fig9::run(&args(1024, 3, threads), &mut session);
    (format!("{reports:#?}"), session.to_chrome_json())
}

fn figr_under(threads: usize) -> String {
    format!("{:#?}", figr::run(&args(1024, 3, threads)))
}

const THREADS: [usize; 3] = [2, 4, 8];

/// Run a traced figure inline and at every thread count; reports, trace
/// fingerprint and trace bytes must all match.
/// Returns the reference reports for figure-specific sanity checks.
fn assert_thread_count_is_invisible(fig: &str, under: fn(usize) -> (String, String)) -> String {
    let (want_reports, want_trace) = under(1);
    assert!(
        want_trace.len() > 10_000,
        "{fig} trace must be non-trivial for the comparison to mean anything"
    );
    let want_fnv = fnv(want_trace.as_bytes());
    for t in THREADS {
        let (reports, trace) = under(t);
        assert_eq!(
            reports, want_reports,
            "{fig} reports diverged at {t} threads"
        );
        assert_eq!(
            fnv(trace.as_bytes()),
            want_fnv,
            "{fig} trace fingerprint diverged at {t} threads"
        );
        assert_eq!(
            trace, want_trace,
            "{fig} trace bytes diverged at {t} threads"
        );
    }
    want_reports
}

#[test]
fn fig5_is_byte_identical_at_any_thread_count() {
    let reports = assert_thread_count_is_invisible("fig5", fig5_under);
    assert!(
        reports.contains("FlightSummary"),
        "reports must embed the flight-recorder dumps"
    );
}

#[test]
fn fig9_is_byte_identical_at_any_thread_count() {
    assert_thread_count_is_invisible("fig9", fig9_under);
}

#[test]
fn figr_with_fault_plans_is_byte_identical_at_any_thread_count() {
    let want = figr_under(1);
    assert!(
        want.contains("fault_ms: Some"),
        "the crash cell must actually have faulted"
    );
    for t in THREADS {
        let got = figr_under(t);
        assert_eq!(got, want, "figR diverged at {t} threads");
    }
}
