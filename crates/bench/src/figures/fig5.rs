//! Figure 5: testswap execution time across swap devices.
//!
//! Paper (scale 1): local ≈ 5.8 s, HPBD ≈ 8.4 s (local 1.45× faster), HPBD
//! 2.2× faster than disk, 1.45× faster than NBD-GigE, 1.29× faster than
//! NBD-IPoIB.

use super::{paper_sizes, run_standard};
use crate::args::CommonArgs;
use simcore::TraceSession;
use workloads::RunReport;

/// Run all five configurations (see [`run_standard`]); reports in the
/// paper's order.
pub fn run(args: &CommonArgs, session: &mut TraceSession) -> Vec<RunReport> {
    let elements = args.scaled_elems(paper_sizes::DATASET_ELEMS);
    run_standard(args, session, |scenario| scenario.run_testswap(elements))
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
