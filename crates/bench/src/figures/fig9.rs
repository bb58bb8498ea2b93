//! Figure 9: two concurrent quicksort instances on one dual-CPU node.
//!
//! Paper setup (§6.1, §6.3.2): each instance sorts 256 Mi integers (1 GiB);
//! the baseline has 2 GiB local memory; the HPBD rows reduce local memory
//! to 50 % (1 GiB) and 25 % (512 MiB), with each memory server exporting a
//! 512 MiB swap area. Results: HPBD 1.7× slower than local at 50 %, 2.5×
//! at 25 %; disk paging ≈ 36× (whence the abstract's "up to 21× faster
//! than disk").

use super::paper_sizes;
use crate::args::CommonArgs;
use simcore::{SimDuration, TraceSession, Tracer};
use workloads::{RunReport, Scenario, ScenarioConfig, SwapKind};

/// One Figure 9 configuration's outcome.
#[derive(Clone, Debug)]
pub struct PairRun {
    /// Configuration label.
    pub label: String,
    /// Instance A completion time (seconds).
    pub a_secs: f64,
    /// Instance B completion time (seconds).
    pub b_secs: f64,
    /// Makespan (seconds) — the figure's bar.
    pub makespan_secs: f64,
    /// Swap-outs observed (diagnostics).
    pub swap_outs: u64,
    /// Full run report (HPBD counters, metrics snapshot).
    pub report: RunReport,
}

/// The four cell descriptors: label, local memory bytes, swap kind.
/// `ScenarioConfig` itself is built inside the worker (it is not `Send`).
fn cell_specs(args: &CommonArgs) -> Vec<(&'static str, u64, SwapKind)> {
    // Two 1 GiB datasets: give the baseline a little slack above 2 GiB so
    // "enough memory" truly holds, as on the testbed where the kernel's own
    // footprint was not swapped.
    let baseline_mem = args.scaled_bytes((2 << 30) + (256 << 20));
    let mem_50 = args.scaled_bytes(1 << 30);
    let mem_25 = args.scaled_bytes(512 << 20);
    vec![
        ("local-2GB", baseline_mem, SwapKind::LocalOnly),
        ("HPBD-50%", mem_50, SwapKind::Hpbd { servers: 4 }),
        ("HPBD-25%", mem_25, SwapKind::Hpbd { servers: 4 }),
        ("disk-50%", mem_50, SwapKind::Disk),
    ]
}

/// Run the four Figure 9 configurations: local 2 GiB, HPBD at 50 % and
/// 25 % local memory (4 servers × 512 MiB), and disk at 50 %, fanned
/// across `args.threads` workers. Each configuration's events go into
/// `session`; results come back in the figure's order.
pub fn run(args: &CommonArgs, session: &mut TraceSession) -> Vec<PairRun> {
    let elements = args.scaled_elems(paper_sizes::DATASET_ELEMS);
    // "each memory server is configured with 512MB swap area"; four servers
    // cover the two datasets.
    let total_swap = args.scaled_bytes(512 << 20) * 4;
    let specs = cell_specs(args);
    let traced = session.is_enabled();
    let results = args.runner().run_cells(specs.len(), |i| {
        let (label, local_mem, kind) = specs[i].clone();
        let mut config = ScenarioConfig::new(local_mem, total_swap, kind);
        let tracer = if traced {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        config.tracer = Some(tracer.clone());
        config.record_lifecycle = args.lifecycle;
        // Hot-path batching: coalesce same-tick extents per server into
        // merged scatter-gather messages. Window 0 (same virtual instant)
        // tuned on this cell: positive windows delay demand faults and
        // measure worse on both swap p99 and host events/sec.
        config.hpbd.batching = true;
        config.hpbd.merge_window_ns = 0;
        let scenario = Scenario::build(&config);
        let (a, b, report) = scenario.run_qsort_pair(elements, args.seed);
        let to_s = |d: SimDuration| d.as_secs_f64();
        (
            PairRun {
                label: label.to_string(),
                a_secs: to_s(a),
                b_secs: to_s(b),
                makespan_secs: to_s(report.elapsed),
                swap_outs: report.vm.swap_outs,
                report,
            },
            tracer.snapshot(),
        )
    });
    results
        .into_iter()
        .map(|(pair, events)| {
            session.push_run(&pair.label, events);
            pair
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure9_shape() {
        let args = CommonArgs {
            scale: 256,
            seed: 3,
            ..CommonArgs::default()
        };
        let rows = run(&args, &mut TraceSession::disabled());
        let local = rows[0].makespan_secs;
        let hpbd50 = rows[1].makespan_secs;
        let hpbd25 = rows[2].makespan_secs;
        let disk = rows[3].makespan_secs;
        assert!(local < hpbd50, "local beats HPBD-50%");
        assert!(
            hpbd50 < hpbd25,
            "less local memory hurts: {hpbd50} !< {hpbd25}"
        );
        assert!(hpbd25 < disk, "HPBD beats disk paging");
        // Paper: disk/local = 36x, HPBD-50%/local = 1.7x => HPBD beats disk
        // by an order of magnitude.
        assert!(
            disk / hpbd50 > 5.0,
            "disk should be dramatically slower: {}",
            disk / hpbd50
        );
    }

    #[test]
    fn both_instances_finish_close_together() {
        let args = CommonArgs {
            scale: 256,
            seed: 3,
            ..CommonArgs::default()
        };
        let rows = run(&args, &mut TraceSession::disabled());
        for r in &rows {
            let spread = (r.a_secs - r.b_secs).abs() / r.makespan_secs;
            assert!(
                spread < 0.35,
                "{}: instances diverged by {:.0}%",
                r.label,
                spread * 100.0
            );
        }
    }
}
