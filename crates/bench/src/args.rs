//! Command-line arguments shared by the figure binaries.

use std::path::PathBuf;

/// Parsed common arguments.
#[derive(Clone, Debug)]
pub struct CommonArgs {
    /// Scale divisor applied to the paper's sizes (default 16:
    /// 64 MiB dataset against 32 MiB of local memory).
    pub scale: u64,
    /// Workload RNG seed.
    pub seed: u64,
    /// Write a Chrome trace-event file here (`--trace PATH`).
    pub trace: Option<PathBuf>,
    /// Print per-configuration metrics summaries (`--metrics`).
    pub metrics: bool,
    /// Record per-request lifecycle phases into the flight recorder
    /// (`--lifecycle`). Off by default: attribution marks cost wall time,
    /// so timed comparisons stay unchanged unless asked for.
    pub lifecycle: bool,
    /// Worker threads for figure sweeps (`--threads N`, 0 = one per
    /// core). Results are assembled in cell order, so the output is
    /// byte-identical at any thread count; the default of 1 runs inline.
    pub threads: usize,
}

impl Default for CommonArgs {
    fn default() -> CommonArgs {
        CommonArgs {
            scale: 16,
            seed: 42,
            trace: None,
            metrics: false,
            lifecycle: false,
            threads: 1,
        }
    }
}

/// The flags beyond `--scale` and `--seed`, which every binary takes: each
/// binary names the ones it honours, and the parser refuses the rest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flag {
    /// `--trace PATH`
    Trace,
    /// `--metrics`
    Metrics,
    /// `--lifecycle`
    Lifecycle,
    /// `--threads N`
    Threads,
}

impl Flag {
    /// Every flag: the figures that run their cells through a
    /// `TraceSession` and the sweep runner honour them all.
    pub const ALL: &'static [Flag] = &[Flag::Trace, Flag::Metrics, Flag::Lifecycle, Flag::Threads];

    /// `(usage, description)` for `--help`.
    fn help(self) -> (&'static str, &'static str) {
        match self {
            Flag::Trace => (
                "--trace PATH",
                "write a Chrome trace-event JSON (load in Perfetto)",
            ),
            Flag::Metrics => ("--metrics", "print per-configuration metrics summaries"),
            Flag::Lifecycle => (
                "--lifecycle",
                "record per-request phase attribution (flight recorder)",
            ),
            Flag::Threads => (
                "--threads N",
                "sweep worker threads (0 = one per core, default 1)",
            ),
        }
    }
}

impl CommonArgs {
    /// Parse the process arguments: `--scale N`, `--seed N` and the
    /// `honoured` flags. Anything else — a flag this binary would ignore
    /// included — or a missing or malformed value exits 2 with a pointer
    /// to `--help`.
    pub fn parse(honoured: &[Flag]) -> CommonArgs {
        CommonArgs::parse_from(std::env::args().skip(1), honoured)
    }

    /// [`CommonArgs::parse`] over `args` (a binary that takes positional
    /// arguments first hands over the rest).
    pub fn parse_from(args: impl IntoIterator<Item = String>, honoured: &[Flag]) -> CommonArgs {
        let mut out = CommonArgs::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut take = |name: &str| -> u64 {
                args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("{name} requires an integer value");
                    std::process::exit(2);
                })
            };
            let flag = match arg.as_str() {
                "--trace" => Some(Flag::Trace),
                "--metrics" => Some(Flag::Metrics),
                "--lifecycle" => Some(Flag::Lifecycle),
                "--threads" => Some(Flag::Threads),
                _ => None,
            };
            match (arg.as_str(), flag) {
                ("--scale", _) => out.scale = take("--scale").max(1),
                ("--seed", _) => out.seed = take("--seed"),
                ("--help" | "-h", _) => {
                    let usage: String = honoured
                        .iter()
                        .map(|f| format!(" [{}]", f.help().0))
                        .collect();
                    eprintln!("usage: [--scale N] [--seed N]{usage}");
                    eprintln!("  --scale N    divide the paper's sizes by N (default 16)");
                    eprintln!("  --seed N     workload RNG seed (default 42)");
                    for (usage, what) in honoured.iter().map(|f| f.help()) {
                        eprintln!("  {usage:<12} {what}");
                    }
                    std::process::exit(0);
                }
                (_, Some(flag)) if honoured.contains(&flag) => match flag {
                    Flag::Trace => {
                        let path = args.next().unwrap_or_else(|| {
                            eprintln!("--trace requires a file path");
                            std::process::exit(2);
                        });
                        out.trace = Some(PathBuf::from(path));
                    }
                    Flag::Metrics => out.metrics = true,
                    Flag::Lifecycle => out.lifecycle = true,
                    Flag::Threads => out.threads = take("--threads") as usize,
                },
                (other, Some(_)) => {
                    eprintln!("{other} has no effect on this binary (try --help)");
                    std::process::exit(2);
                }
                (other, None) => {
                    eprintln!("unknown argument: {other} (try --help)");
                    std::process::exit(2);
                }
            }
        }
        out
    }

    /// The sweep runner selected by `--threads`.
    pub fn runner(&self) -> crate::runner::Runner {
        crate::runner::Runner::with_threads(self.threads)
    }

    /// The paper's quantity divided by the scale, page-aligned.
    pub fn scaled_bytes(&self, paper_bytes: u64) -> u64 {
        ((paper_bytes / self.scale) / 4096).max(4) * 4096
    }

    /// The paper's element count divided by the scale.
    pub fn scaled_elems(&self, paper_elems: u64) -> usize {
        (paper_elems / self.scale).max(1024) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_page_aligned() {
        let a = CommonArgs {
            scale: 16,
            seed: 1,
            ..CommonArgs::default()
        };
        assert_eq!(a.scaled_bytes(1 << 30) % 4096, 0);
        assert_eq!(a.scaled_bytes(1 << 30), 64 << 20);
        assert_eq!(a.scaled_elems(256 << 20), 16 << 20);
    }

    #[test]
    fn tiny_scales_clamp() {
        let a = CommonArgs {
            scale: 1 << 40,
            seed: 1,
            ..CommonArgs::default()
        };
        assert!(a.scaled_bytes(1 << 30) >= 4 * 4096);
        assert!(a.scaled_elems(256 << 20) >= 1024);
    }
}
