//! Figure 8: Barnes execution time across swap devices.
//!
//! The paper simulates 2,097,152 bodies (≈516 MB peak, growing
//! incrementally), against 512 MiB of local memory — so Barnes pages, but
//! far less intensively than quicksort, and the gaps between devices are
//! correspondingly smaller ("the improvement is less evident").

use super::{paper_sizes, run_standard};
use crate::args::CommonArgs;
use simcore::TraceSession;
use workloads::barnes::BarnesParams;
use workloads::RunReport;

/// Run all five configurations (see [`run_standard`]); reports in the
/// paper's order.
pub fn run(args: &CommonArgs, session: &mut TraceSession) -> Vec<RunReport> {
    let bodies = (paper_sizes::BARNES_BODIES / args.scale).max(2048) as usize;
    run_standard(args, session, |scenario| {
        scenario.run_barnes(BarnesParams {
            bodies,
            iterations: 2,
            seed: args.seed,
            ..BarnesParams::default()
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure8_ordering_and_mild_gaps() {
        let args = CommonArgs {
            scale: 256,
            seed: 5,
            ..CommonArgs::default()
        };
        let rows = run(&args, &mut TraceSession::disabled());
        let t: Vec<f64> = rows.iter().map(|r| r.elapsed.as_secs_f64()).collect();
        // Same winner ordering as the other figures...
        assert!(t[0] <= t[1], "local <= HPBD");
        assert!(t[1] < t[4], "HPBD < disk");
        assert!(t[2] <= t[3], "IPoIB <= GigE");
        // HPBD must page at all for the comparison to be meaningful — the
        // paper's point is that Barnes pages lightly, not that it doesn't
        // page. (The disk-vs-HPBD gap narrows at realistic scale, where
        // compute dominates; see EXPERIMENTS.md at scale 16.)
        assert!(
            rows[1].vm.swap_outs > 0,
            "Barnes must page under 512MB-scaled"
        );
        let disk_vs_hpbd = t[4] / t[1];
        assert!(disk_vs_hpbd > 1.0, "disk slower than HPBD: {disk_vs_hpbd}");
    }
}
