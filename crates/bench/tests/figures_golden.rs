//! Golden-file test for every figure binary: each one's full stdout at
//! `--scale 256 --seed 42` must equal its file in `data/figures/` byte for
//! byte. The files hold the whole text, not a digest, so a change that
//! moves a number on purpose re-blesses them and shows the moved numbers
//! in its diff. After `cargo build --release -p bench`:
//!
//! ```text
//! for b in fig1 fig3 fig5 fig6 fig7 fig8 fig9 fig10 figr figu table1 kvbench ablation; do target/release/$b --scale 256 --seed 42 > crates/bench/tests/data/figures/$b.txt; done
//! ```

use std::process::Command;

fn assert_stdout_matches(bin: &str, exe: &str, want: &str) {
    let out = Command::new(exe)
        .args(["--scale", "256", "--seed", "42"])
        .output()
        .unwrap_or_else(|e| panic!("run {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("figures print UTF-8");
    if got != want {
        let same = got
            .lines()
            .zip(want.lines())
            .take_while(|(g, w)| g == w)
            .count();
        panic!(
            "{bin} differs from its golden file at line {}:\n  got:    {}\n  golden: {}",
            same + 1,
            got.lines().nth(same).unwrap_or("<end of output>"),
            want.lines().nth(same).unwrap_or("<end of file>")
        );
    }
}

macro_rules! golden {
    ($($bin:ident),* $(,)?) => {$(
        #[test]
        fn $bin() {
            assert_stdout_matches(
                stringify!($bin),
                env!(concat!("CARGO_BIN_EXE_", stringify!($bin))),
                include_str!(concat!("data/figures/", stringify!($bin), ".txt")),
            );
        }
    )*};
}

golden!(fig1, fig3, fig5, fig6, fig7, fig8, fig9, fig10, figr, figu, table1, kvbench, ablation);
