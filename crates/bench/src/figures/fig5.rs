//! Figure 5: testswap execution time across swap devices.
//!
//! Paper (scale 1): local ≈ 5.8 s, HPBD ≈ 8.4 s (local 1.45× faster), HPBD
//! 2.2× faster than disk, 1.45× faster than NBD-GigE, 1.29× faster than
//! NBD-IPoIB.

use super::{paper_sizes, standard_configs};
use crate::args::CommonArgs;
use simcore::{TraceSession, Tracer};
use workloads::{RunReport, Scenario};

/// Run all five configurations, fanned across `args.threads` workers,
/// collecting each configuration's events into `session` (one
/// Chrome-trace process per configuration; pass
/// [`TraceSession::disabled`] for none). Each cell builds its machine
/// inside the worker; reports and trace buffers are reassembled in the
/// paper's order, so the output is byte-identical at any thread count.
pub fn run(args: &CommonArgs, session: &mut TraceSession) -> Vec<RunReport> {
    let elements = args.scaled_elems(paper_sizes::DATASET_ELEMS);
    let traced = session.is_enabled();
    let cells = standard_configs(args).len();
    let results = args.runner().run_cells(cells, |i| {
        let (label, mut config) = standard_configs(args).swap_remove(i);
        let tracer = if traced {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        config.tracer = Some(tracer.clone());
        config.record_lifecycle = args.lifecycle;
        let scenario = Scenario::build(&config);
        let mut report = scenario.run_testswap(elements);
        report.label = label;
        (report, tracer.snapshot())
    });
    results
        .into_iter()
        .map(|(report, events)| {
            session.push_run(&report.label, events);
            report
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_ordering() {
        // Small scale for test speed; ordering is scale-invariant.
        let args = CommonArgs {
            scale: 128,
            seed: 7,
            ..CommonArgs::default()
        };
        let rows = run(&args, &mut TraceSession::disabled());
        let t: Vec<f64> = rows.iter().map(|r| r.elapsed.as_secs_f64()).collect();
        assert!(t[0] < t[1], "local < HPBD");
        assert!(t[1] < t[2], "HPBD < NBD-IPoIB");
        assert!(t[2] < t[3], "NBD-IPoIB < NBD-GigE");
        assert!(t[3] < t[4], "NBD-GigE < disk");
        // Rough factor check: disk within [1.5x, 4x] of HPBD (paper: 2.2x).
        let disk_vs_hpbd = t[4] / t[1];
        assert!(
            (1.5..4.0).contains(&disk_vs_hpbd),
            "disk/HPBD = {disk_vs_hpbd}"
        );
    }
}
