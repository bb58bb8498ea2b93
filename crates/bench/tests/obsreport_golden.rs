//! Golden-file test for `obsreport`: the built binary's full stdout at
//! `--scale 256 --seed 42` must equal the checked-in file byte for byte.
//!
//! The file pins, per cell of fig5/fig9/fig10/figU/figR, the engine event
//! count, the device swap-in p99, messages per page and the whole
//! phase-attribution table — every deterministic number this repo tracks
//! for a figure. A change that moves one on purpose re-blesses the file and
//! shows the moved lines in its diff:
//!
//! ```text
//! cargo run --release -p bench --bin obsreport -- --scale 256 \
//!     > crates/bench/tests/data/obsreport-scale256-seed42.txt
//! ```

use std::process::Command;

#[test]
fn obsreport_stdout_matches_the_golden_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_obsreport"))
        .args(["--scale", "256", "--seed", "42"])
        .output()
        .expect("run obsreport");
    assert!(
        out.status.success(),
        "obsreport exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("obsreport prints UTF-8");
    let want = include_str!("data/obsreport-scale256-seed42.txt");
    if got != want {
        let same = got
            .lines()
            .zip(want.lines())
            .take_while(|(g, w)| g == w)
            .count();
        panic!(
            "obsreport differs from the golden file at line {}:\n  got:    {}\n  golden: {}",
            same + 1,
            got.lines().nth(same).unwrap_or("<end of output>"),
            want.lines().nth(same).unwrap_or("<end of file>")
        );
    }
}
