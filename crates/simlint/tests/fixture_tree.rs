//! Materializes a fixture tree containing one violation per rule and
//! asserts the workspace linter finds every one of them (i.e. a run over
//! that tree would exit nonzero), plus a clean tree stays clean.

use simlint::config::Config;
use simlint::lint_workspace;
use std::collections::BTreeSet;
use std::path::Path;

fn write(base: &Path, rel: &str, src: &str) {
    let path = base.join(rel);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, src).unwrap();
}

#[test]
fn fixture_tree_with_one_violation_per_rule_fails() {
    let base = std::env::temp_dir().join("simlint-fixture-tree");
    let _ = std::fs::remove_dir_all(&base);

    // One file per rule, each violating exactly that rule. Every file is a
    // crate root candidate only where I003 is the point; the others carry
    // the forbid attribute so I003 stays quiet for them.
    write(
        &base,
        "crates/d001/src/wallclock.rs",
        "use std::time::Instant;\n",
    );
    write(
        &base,
        "crates/d002/src/hashed.rs",
        "use std::collections::BTreeMap;\nstruct S { m: std::collections::HashMap<u32, u32> }\n",
    );
    write(
        &base,
        "crates/d003/src/random.rs",
        "fn f() { let r = rand::thread_rng(); }\n",
    );
    write(
        &base,
        "crates/d004/src/threads.rs",
        "fn f() { std::thread::spawn(|| {}); }\n",
    );
    write(
        &base,
        "crates/i001/src/unwraps.rs",
        "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    write(&base, "crates/i003/src/lib.rs", "//! no forbid here\n");
    write(
        &base,
        "crates/a002/src/proto.rs",
        "pub struct Wire { pub magic: u32 }\n",
    );
    write(
        &base,
        "crates/w000/src/waived.rs",
        "// simlint: allow(D003)\nfn f() { let r = rand::thread_rng(); }\n",
    );
    write(
        &base,
        "crates/w001/src/stale.rs",
        "// simlint: allow(D001): nothing here reads the clock\nfn f() { fine(); }\n",
    );
    write(
        &base,
        "crates/w002/src/typo.rs",
        "// simlint: allow(I0O1): misremembered the rule id\nfn f() { fine(); }\n",
    );
    // Linked rules: the violation needs workspace-wide evidence, so these
    // fixtures span two files where it matters.
    write(
        &base,
        "crates/d005/src/timeouts.rs",
        "pub fn linger() { wait(std::time::Duration::from_millis(20)); }\n",
    );
    write(
        &base,
        "crates/d005/src/sim.rs",
        "pub fn arm(e: &mut Engine) { e.schedule_in(t, ev); }\n",
    );
    write(
        &base,
        "crates/a005/src/knobs.rs",
        "#[derive(Clone, Debug)]\npub struct RetryConfig { pub max_retries: u32 }\n",
    );
    write(
        &base,
        "crates/x001/src/wire.rs",
        "struct Frame { a: u32 }\n\nimpl Frame {\n    pub fn encode(&self) -> Vec<u8> { Vec::new() }\n}\n",
    );
    write(
        &base,
        "crates/x002/src/submit.rs",
        "fn push(backend: &mut B, s: Slot) { backend.store(s, 0, 4096); }\n",
    );
    write(
        &base,
        "crates/x003/src/metrics.rs",
        "fn setup(m: &mut Metrics) { let ctr = m.counter_handle(\"x.acks\"); }\n",
    );

    let report = lint_workspace(&base, &Config::builtin()).unwrap();
    let fired: BTreeSet<&str> = report.denied().map(|f| f.rule).collect();
    for rule in [
        "D001", "D002", "D003", "D004", "I001", "A002", "W000", "W001", "W002", "D005", "A005",
        "X001", "X002", "X003",
    ] {
        assert!(fired.contains(rule), "rule {rule} did not fire: {fired:?}");
    }
    // I003 fires on every crate root in the tree that lacks the forbid —
    // at minimum the dedicated one.
    assert!(fired.contains("I003"), "I003 did not fire");
    assert!(report.denied().count() >= 15);

    let _ = std::fs::remove_dir_all(&base);
}

/// Count findings for one rule over a freshly materialized tree.
fn count_rule(base_name: &str, files: &[(&str, &str)], rule: &str) -> usize {
    let base = std::env::temp_dir().join(base_name);
    let _ = std::fs::remove_dir_all(&base);
    for (rel, src) in files {
        write(&base, rel, src);
    }
    let report = lint_workspace(&base, &Config::builtin()).unwrap();
    let n = report.denied().filter(|f| f.rule == rule).count();
    let _ = std::fs::remove_dir_all(&base);
    n
}

/// Every linked rule must change its verdict when the *other* file of the
/// pair disappears — the finding (or its exoneration) lives in a file the
/// per-file pass never opens, so this is the linking pass at work.
#[test]
fn linked_findings_depend_on_the_second_file() {
    // D005: the Duration file is only wrong because a sibling file drives
    // the virtual clock.
    let duration = (
        "crates/pair/src/timeouts.rs",
        "pub fn linger() { wait(std::time::Duration::from_millis(20)); }\n",
    );
    let clock = (
        "crates/pair/src/sim.rs",
        "pub fn arm(e: &mut Engine) { e.schedule_in(t, ev); }\n",
    );
    assert_eq!(
        count_rule("simlint-pair-d005", &[duration, clock], "D005"),
        1
    );
    assert_eq!(count_rule("simlint-pair-d005", &[duration], "D005"), 0);

    // A005: the knob is only dead until some other file reads it.
    let knobs = (
        "crates/pair/src/knobs.rs",
        "#[derive(Clone, Debug)]\npub struct RetryConfig { pub max_retries: u32 }\n",
    );
    let reader = (
        "crates/pair/src/reader.rs",
        "pub fn budget(c: &RetryConfig) -> u32 { c.max_retries * 2 }\n",
    );
    assert_eq!(count_rule("simlint-pair-a005", &[knobs], "A005"), 1);
    assert_eq!(count_rule("simlint-pair-a005", &[knobs, reader], "A005"), 0);

    // X001: the encode side is only untested until a test file (anywhere
    // in the workspace) decodes the type.
    let wire = (
        "crates/pair/src/wire.rs",
        "struct Frame { a: u32 }\n\nimpl Frame {\n    pub fn encode(&self) -> Vec<u8> { Vec::new() }\n}\n",
    );
    let roundtrip = (
        "crates/pair/tests/roundtrip.rs",
        "#[test]\nfn rt() { let f = Frame::decode(&raw); check(f); }\n",
    );
    assert_eq!(count_rule("simlint-pair-x001", &[wire], "X001"), 1);
    assert_eq!(
        count_rule("simlint-pair-x001", &[wire, roundtrip], "X001"),
        0
    );

    // X002: the submission leaks only while no file in the crate reaps.
    let submit = (
        "crates/pair/src/submit.rs",
        "fn push(backend: &mut B, s: Slot) { backend.store(s, 0, 4096); }\n",
    );
    let reaper = (
        "crates/pair/src/drain.rs",
        "fn drain(backend: &mut B) { while backend.reap() > 0 { step(); } }\n",
    );
    assert_eq!(count_rule("simlint-pair-x002", &[submit], "X002"), 1);
    assert_eq!(
        count_rule("simlint-pair-x002", &[submit, reaper], "X002"),
        0
    );

    // X003: the metric is only dead until another file emits through its
    // handle.
    let registry = (
        "crates/pair/src/metrics.rs",
        "fn setup(m: &mut Metrics) { let ctr = m.counter_handle(\"x.acks\"); }\n",
    );
    let emitter = (
        "crates/pair/src/hot.rs",
        "fn ack(s: &S) { s.ctr.inc(1); }\n",
    );
    assert_eq!(count_rule("simlint-pair-x003", &[registry], "X003"), 1);
    assert_eq!(
        count_rule("simlint-pair-x003", &[registry, emitter], "X003"),
        0
    );
}

#[test]
fn clean_tree_passes() {
    let base = std::env::temp_dir().join("simlint-clean-tree");
    let _ = std::fs::remove_dir_all(&base);
    write(
        &base,
        "crates/ok/src/lib.rs",
        "//! A clean crate.\n#![forbid(unsafe_code)]\npub mod good;\n",
    );
    write(
        &base,
        "crates/ok/src/good.rs",
        "use std::collections::BTreeMap;\n\npub fn f(e: &Engine) -> u32 {\n    e.instant(\"c\", \"n\", &[]);\n    let m: BTreeMap<u32, u32> = BTreeMap::new();\n    m.get(&1).copied().unwrap_or(0)\n}\n",
    );
    // A justified waiver that is actually used: no W000/W001.
    write(
        &base,
        "crates/ok/src/waived.rs",
        "pub fn g(x: Option<u32>) -> u32 {\n    // simlint: allow(I001): boot-time invariant, x is always set by new()\n    x.unwrap()\n}\n",
    );
    let report = lint_workspace(&base, &Config::builtin()).unwrap();
    let denied: Vec<_> = report.denied().collect();
    assert!(denied.is_empty(), "unexpected findings: {denied:?}");
    assert_eq!(report.waived().count(), 1);
    let _ = std::fs::remove_dir_all(&base);
}
