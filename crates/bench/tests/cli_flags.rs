//! A figure binary honours every flag it accepts and refuses the rest:
//! `fig7 --trace --threads` used to parse both and act on neither.

use std::path::Path;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("run binary")
}

#[test]
fn fig7_writes_its_trace_and_fans_out_invisibly() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fig7-trace.json");
    let path = path.to_str().expect("UTF-8 temp path");
    let under = |threads: &str| {
        let _ = std::fs::remove_file(path);
        let out = run(
            env!("CARGO_BIN_EXE_fig7"),
            &["--scale", "256", "--trace", path, "--threads", threads],
        );
        assert!(out.status.success(), "fig7 --threads {threads} failed");
        let trace = std::fs::read(path).expect("fig7 --trace wrote no file");
        (out.stdout, trace)
    };
    let (table, trace) = under("1");
    assert!(trace.len() > 10_000, "the trace holds the five runs");
    assert!(under("2") == (table, trace), "--threads 2 moved a byte");
}

#[test]
fn a_flag_the_binary_would_ignore_exits_2() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_kvbench"), &["--trace", "t.json"][..]),
        (env!("CARGO_BIN_EXE_fig6"), &["--threads", "2"]),
        (env!("CARGO_BIN_EXE_ablation"), &["--lifecycle"]),
        (env!("CARGO_BIN_EXE_all"), &["--metrics"]),
        (env!("CARGO_BIN_EXE_figr"), &["--metrics"]),
        (env!("CARGO_BIN_EXE_figu"), &["--trace", "t.json"]),
        (
            env!("CARGO_BIN_EXE_trace"),
            &["record", "t.trace", "--sacle", "64"],
        ),
    ] {
        let out = run(bin, args);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran before refusing");
        let hint = String::from_utf8_lossy(&out.stderr);
        assert!(hint.contains("--help"), "{bin} {args:?}: {hint}");
    }
}
