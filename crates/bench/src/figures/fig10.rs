//! Figure 10: quicksort execution time with 1–16 memory servers.
//!
//! The paper distributes the swap area evenly over k servers (blocking
//! pattern) and finds performance flat up to 8 servers with some
//! degradation at 16, attributed to the HCA's multiple-queue-pair
//! processing — our model reproduces it through the MT23108 QP-context
//! cache (8 contexts; 16 active QPs thrash it).

use super::paper_sizes;
use crate::args::CommonArgs;
use simcore::{TraceSession, Tracer};
use workloads::{RunReport, Scenario, ScenarioConfig, SwapKind};

/// Result for one server count.
#[derive(Clone, Debug)]
pub struct ServerPoint {
    /// Number of memory servers.
    pub servers: usize,
    /// Execution time in seconds.
    pub seconds: f64,
    /// QP-context reloads at the client HCA (the cause of the droop).
    pub ctx_reloads: u64,
    /// Full run report.
    pub report: RunReport,
}

/// Server counts the paper sweeps.
pub fn server_counts() -> Vec<usize> {
    vec![1, 2, 4, 8, 16]
}

/// Run quicksort for each server count, fanned across `args.threads`
/// workers. Each server count's events go into `session`; results come
/// back in sweep order.
pub fn run(args: &CommonArgs, session: &mut TraceSession) -> Vec<ServerPoint> {
    let elements = args.scaled_elems(paper_sizes::DATASET_ELEMS);
    let local = args.scaled_bytes(paper_sizes::LOCAL_MEM);
    // The swap area must hold the whole dataset (swap-cache slots persist
    // while pages are resident-clean); split evenly across servers.
    let swap = args.scaled_bytes(paper_sizes::DATASET_BYTES + (128 << 20));
    let counts = server_counts();
    let traced = session.is_enabled();
    let results = args.runner().run_cells(counts.len(), |i| {
        let servers = counts[i];
        let mut config = ScenarioConfig::new(local, swap, SwapKind::Hpbd { servers });
        let tracer = if traced {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        config.tracer = Some(tracer.clone());
        config.record_lifecycle = args.lifecycle;
        // Same merged-message batching as fig9's HPBD cells (window 0 =
        // same-tick coalescing, see fig9).
        config.hpbd.batching = true;
        config.hpbd.merge_window_ns = 0;
        let scenario = Scenario::build(&config);
        let report = scenario.run_qsort(elements, args.seed);
        let ctx_reloads = scenario
            .hpbd
            .as_ref()
            .expect("HPBD scenario")
            .client
            .ibnode()
            .hca()
            .ctx_reloads();
        (
            ServerPoint {
                servers,
                seconds: report.elapsed.as_secs_f64(),
                ctx_reloads,
                report,
            },
            tracer.snapshot(),
        )
    });
    results
        .into_iter()
        .map(|(point, events)| {
            session.push_run(&format!("HPBD-{}", point.servers), events);
            point
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_to_eight_then_droop() {
        let args = CommonArgs {
            scale: 256,
            seed: 13,
            ..CommonArgs::default()
        };
        let points = run(&args, &mut TraceSession::disabled());
        let one = points[0].seconds;
        let eight = points[3].seconds;
        let sixteen = points[4].seconds;
        // Flat through 8 servers (within 15%).
        assert!(
            (eight - one).abs() / one < 0.15,
            "1 server {one}s vs 8 servers {eight}s"
        );
        // Visible degradation at 16.
        assert!(
            sixteen > eight * 1.01,
            "16 servers ({sixteen}s) should degrade vs 8 ({eight}s)"
        );
        // ...with the client HCA handling a QP population beyond its
        // context cache (reloads appear only in the 16-server run).
        assert!(
            points[4].ctx_reloads > points[3].ctx_reloads,
            "16-server run should stress the QP cache: {} vs {}",
            points[4].ctx_reloads,
            points[3].ctx_reloads
        );
    }
}
