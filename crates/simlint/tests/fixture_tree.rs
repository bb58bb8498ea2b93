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
    write(
        &base,
        "crates/x001/src/wire.rs",
        "struct Frame { a: u32 }\n\nimpl Frame {\n    pub fn encode(&self) -> Vec<u8> { Vec::new() }\n}\n",
    );

    let report = lint_workspace(&base, &Config::builtin()).unwrap();
    let fired: BTreeSet<&str> = report.denied().map(|f| f.rule).collect();
    for rule in [
        "D001", "D002", "D003", "D004", "I001", "A002", "X001", "W000", "W001", "W002",
    ] {
        assert!(fired.contains(rule), "rule {rule} did not fire: {fired:?}");
    }
    // I003 fires on every crate root in the tree that lacks the forbid —
    // at minimum the dedicated one.
    assert!(fired.contains("I003"), "I003 did not fire");
    assert!(report.denied().count() >= 11);

    let _ = std::fs::remove_dir_all(&base);
}

/// X001 is file-local: a decode call in a test of *another* file does
/// not exonerate an encode side; one in the same file does.
#[test]
fn x001_wants_the_roundtrip_test_next_to_the_format() {
    let base = std::env::temp_dir().join("simlint-x001-tree");
    let _ = std::fs::remove_dir_all(&base);
    let wire = "struct Frame { a: u32 }\n\nimpl Frame {\n    pub fn encode(&self) -> Vec<u8> { Vec::new() }\n}\n";
    let roundtrip = "#[test]\nfn rt() { let f = Frame::decode(&raw); check(f); }\n";
    write(&base, "crates/far/src/wire.rs", wire);
    write(&base, "crates/far/tests/roundtrip.rs", roundtrip);
    write(
        &base,
        "crates/near/src/wire.rs",
        &format!("{wire}#[cfg(test)]\nmod tests {{\n{roundtrip}}}\n"),
    );
    let report = lint_workspace(&base, &Config::builtin()).unwrap();
    let fired: Vec<&str> = report
        .denied()
        .filter(|f| f.rule == "X001")
        .map(|f| f.path.as_str())
        .collect();
    assert_eq!(fired, ["crates/far/src/wire.rs"]);
    let _ = std::fs::remove_dir_all(&base);
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
