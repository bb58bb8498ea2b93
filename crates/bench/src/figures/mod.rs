//! Regeneration functions for every figure in the paper's evaluation.
//!
//! Each module returns structured results so both the CLI binaries and the
//! integration tests can consume them; printing lives in the binaries.

pub mod fig1;
pub mod fig10;
pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod figr;
pub mod figu;

use crate::args::CommonArgs;
use simcore::{TraceSession, Tracer};
use workloads::{RunReport, Scenario, ScenarioConfig, SwapKind};

/// The paper's dataset and memory sizes (scale = 1).
pub mod paper_sizes {
    /// testswap / quicksort dataset: 1 GiB (256 Mi i32).
    pub const DATASET_BYTES: u64 = 1 << 30;
    /// Elements in the 1 GiB dataset.
    pub const DATASET_ELEMS: u64 = 256 << 20;
    /// Local memory for the swapping scenarios: 512 MiB.
    pub const LOCAL_MEM: u64 = 512 << 20;
    /// Local memory for the "enough memory" baseline: 2 GiB.
    pub const BASELINE_MEM: u64 = 2 << 30;
    /// Remote swap area for the single-server scenario: 1 GiB.
    pub const SWAP_AREA: u64 = 1 << 30;
    /// Barnes body count.
    pub const BARNES_BODIES: u64 = 2_097_152;
}

/// The five swap configurations of Figures 5, 7 and 8, in the paper's
/// order: local memory, HPBD (1 server), NBD-IPoIB, NBD-GigE, local disk.
pub fn standard_configs(args: &CommonArgs) -> Vec<(String, ScenarioConfig)> {
    let local = args.scaled_bytes(paper_sizes::LOCAL_MEM);
    let baseline = args.scaled_bytes(paper_sizes::BASELINE_MEM);
    let swap = args.scaled_bytes(paper_sizes::SWAP_AREA);
    vec![
        (
            "local".into(),
            ScenarioConfig::new(baseline, swap, SwapKind::LocalOnly),
        ),
        (
            "HPBD".into(),
            ScenarioConfig::new(local, swap, SwapKind::Hpbd { servers: 1 }),
        ),
        (
            "NBD-IPoIB".into(),
            ScenarioConfig::new(
                local,
                swap,
                SwapKind::Nbd {
                    transport: netmodel::Transport::IpoIb,
                },
            ),
        ),
        (
            "NBD-GigE".into(),
            ScenarioConfig::new(
                local,
                swap,
                SwapKind::Nbd {
                    transport: netmodel::Transport::GigE,
                },
            ),
        ),
        (
            "disk".into(),
            ScenarioConfig::new(local, swap, SwapKind::Disk),
        ),
    ]
}

/// Run `workload` on each of the [`standard_configs`] through
/// [`run_traced`]; each report carries its configuration's label.
pub fn run_standard(
    args: &CommonArgs,
    session: &mut TraceSession,
    workload: impl Fn(&Scenario) -> RunReport + Sync,
) -> Vec<RunReport> {
    let cells = standard_configs(args).len();
    run_traced(
        args,
        session,
        cells,
        |i| standard_configs(args).swap_remove(i),
        |label, scenario| RunReport {
            label: label.to_string(),
            ..workload(scenario)
        },
    )
}

/// Run `cells` cells fanned across `args.threads` workers. Cell `i` is the
/// `(label, config)` that `cell(i)` returns, built inside its worker (a
/// `ScenarioConfig` is not `Send`) with the tracer on when `session` is
/// enabled and `record_lifecycle` from the args; `work` runs on the built
/// [`Scenario`]. Results come back in cell order and each cell's events go
/// into `session` under its label (one Chrome-trace process per cell), so
/// the output is byte-identical at any thread count.
pub fn run_traced<T: Send>(
    args: &CommonArgs,
    session: &mut TraceSession,
    cells: usize,
    cell: impl Fn(usize) -> (String, ScenarioConfig) + Sync,
    work: impl Fn(&str, &Scenario) -> T + Sync,
) -> Vec<T> {
    let traced = session.is_enabled();
    let results = args.runner().run_cells(cells, |i| {
        let (label, mut config) = cell(i);
        let tracer = if traced {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        config.tracer = Some(tracer.clone());
        config.record_lifecycle = args.lifecycle;
        let scenario = Scenario::build(&config);
        let out = work(&label, &scenario);
        (label, out, tracer.snapshot())
    });
    results
        .into_iter()
        .map(|(label, out, events)| {
            session.push_run(&label, events);
            out
        })
        .collect()
}
