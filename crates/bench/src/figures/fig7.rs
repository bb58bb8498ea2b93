//! Figure 7: quicksort execution time across swap devices (single server).
//!
//! Paper (scale 1): local ≈ 94 s, HPBD ≈ 138 s (memory 1.47× faster), HPBD
//! 4.5× faster than local disk, 1.36× faster than NBD-GigE and 1.13×
//! faster than NBD-IPoIB.

use super::{paper_sizes, run_standard};
use crate::args::CommonArgs;
use simcore::TraceSession;
use workloads::RunReport;

/// Run all five configurations (see [`run_standard`]); reports in the
/// paper's order.
pub fn run(args: &CommonArgs, session: &mut TraceSession) -> Vec<RunReport> {
    let elements = args.scaled_elems(paper_sizes::DATASET_ELEMS);
    run_standard(args, session, |scenario| {
        scenario.run_qsort(elements, args.seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure7_ordering() {
        let args = CommonArgs {
            scale: 256,
            seed: 11,
            ..CommonArgs::default()
        };
        let rows = run(&args, &mut TraceSession::disabled());
        let t: Vec<f64> = rows.iter().map(|r| r.elapsed.as_secs_f64()).collect();
        assert!(t[0] < t[1], "local < HPBD");
        assert!(t[1] < t[2], "HPBD < NBD-IPoIB");
        assert!(t[2] < t[3], "NBD-IPoIB < NBD-GigE");
        assert!(t[3] < t[4], "NBD-GigE < disk");
        // Paper: disk 4.5x slower than HPBD; accept a broad band at tiny
        // scale.
        let disk_vs_hpbd = t[4] / t[1];
        assert!(disk_vs_hpbd > 2.0, "disk/HPBD = {disk_vs_hpbd}");
    }
}
