//! The single source of truth for every timing constant in the simulation.
//!
//! All constants are grouped into one [`Calibration`] struct so that an
//! experiment can be re-run under a different hardware assumption by editing
//! exactly one value, and so DESIGN.md can point at one place for the
//! calibration story.

use crate::transport::TransportModel;
use simcore::SimDuration;

/// HCA (host channel adapter) behaviour beyond raw wire speed.
#[derive(Clone, Debug)]
pub struct HcaParams {
    /// CPU cost of building + posting one work request descriptor
    /// (`VAPI_post_sr` analogue). For a chained post this is paid once,
    /// by the head of the chain — the doorbell cost.
    pub post_ns: u64,
    /// CPU cost of each work request after the first in a chained post:
    /// descriptor build only, no doorbell MMIO. Amortizing the doorbell
    /// across a chain is the point of posting linked WQE lists.
    pub chained_post_ns: u64,
    /// Latency from a completion entering the CQ to the solicited-event
    /// handler running (interrupt + handler dispatch). The paper's client
    /// receiver thread and the server's idle wakeup both pay this.
    pub completion_event_ns: u64,
    /// Number of QP contexts the HCA can hold in its on-chip cache. The
    /// MT23108 degrades once the working set of active QPs exceeds this —
    /// the cause of Figure 10's 16-server droop.
    pub qp_cache_size: usize,
    /// Extra per-operation cost when the QP context has to be reloaded from
    /// host memory.
    pub qp_ctx_reload_ns: u64,
    /// HCA processing cost per work request, independent of size (doorbell,
    /// WQE fetch, scheduling).
    pub per_wqe_ns: u64,
    /// Payload bandwidth of RDMA READ responses in bytes/ns. The MT23108
    /// (Tavor) serves RDMA READ at roughly half its write bandwidth — a
    /// well-known limitation of the part, and it sits on HPBD's swap-out
    /// path because the server pulls page data with READs.
    pub rdma_read_bytes_per_ns: f64,
    /// Extra per-WQE scheduling/arbitration cost for every connected QP
    /// beyond the context-cache capacity. The paper attributes the
    /// 16-server degradation of Figure 10 to "the HCA design for multiple
    /// queue pair processing"; this models that cost growing once the QP
    /// population exceeds what the HCA handles natively.
    pub qp_sched_ns_per_excess: u64,
}

/// Seek/rotation/transfer model for the local ATA disk baseline
/// (ST340014A: 7200 rpm Barracuda-class, ~50 MB/s media rate).
#[derive(Clone, Debug)]
pub struct DiskParams {
    /// Average seek time for a non-adjacent access.
    pub avg_seek_ns: u64,
    /// Average rotational delay (half a revolution at 7200 rpm).
    pub avg_rotational_ns: u64,
    /// Media transfer rate in bytes per nanosecond.
    pub bytes_per_ns: f64,
    /// Fixed per-command controller overhead.
    pub command_overhead_ns: u64,
}

impl DiskParams {
    /// Pure transfer time for `len` bytes.
    pub fn transfer_time(&self, len: u64) -> SimDuration {
        SimDuration::from_nanos((len as f64 / self.bytes_per_ns).round() as u64)
    }

    /// Positioning time: zero for a sequential successor access, otherwise
    /// seek + rotational delay.
    pub fn positioning_time(&self, sequential: bool) -> SimDuration {
        if sequential {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.avg_seek_ns + self.avg_rotational_ns)
        }
    }

    /// Full service time for one request.
    pub fn service_time(&self, len: u64, sequential: bool) -> SimDuration {
        SimDuration::from_nanos(self.command_overhead_ns)
            + self.positioning_time(sequential)
            + self.transfer_time(len)
    }
}

/// Per-operation compute costs used by the workloads to advance the virtual
/// clock. Chosen so the "enough local memory" runs land near the paper's
/// absolute numbers at scale = 1 (testswap ≈ 5.8 s, quicksort ≈ 94 s on
/// 256 Mi elements, Barnes ≈ its reported runtime band).
#[derive(Clone, Debug)]
pub struct ComputeParams {
    /// Cost of one sequential array write in testswap (includes the
    /// amortised cost the 2.66 GHz Xeon paid per int store + loop).
    pub testswap_ns_per_write: u64,
    /// Cost of one quicksort "operation" (comparison + swap amortised).
    pub qsort_ns_per_op: u64,
    /// Cost of one body-body (or body-cell) interaction in Barnes-Hut.
    pub barnes_ns_per_interaction: u64,
    /// Kernel path cost of taking a page fault (trap, VM lookup) before any
    /// I/O happens.
    pub fault_ns: u64,
    /// Kernel block-layer cost per submitted physical I/O request.
    pub block_submit_ns: u64,
}

/// Every constant in the simulation, with the 2005 testbed as the preset.
#[derive(Clone, Debug)]
pub struct Calibration {
    // -- memory subsystem ---------------------------------------------------
    /// Fixed memcpy startup cost.
    pub memcpy_base_ns: u64,
    /// memcpy throughput, bytes/ns (2005 Xeon: ≈1.6 GB/s).
    pub memcpy_bytes_per_ns: f64,
    /// Fixed cost of registering a memory region with the HCA (syscall,
    /// pinning setup, HCA table update).
    pub reg_base_ns: u64,
    /// Additional registration cost per 4 KiB page pinned.
    pub reg_per_page_ns: u64,
    /// Cost of deregistering a region.
    pub dereg_base_ns: u64,
    /// Page size used throughout (IA-32: 4 KiB).
    pub page_size: u64,

    // -- transports ---------------------------------------------------------
    /// Native InfiniBand 4x through the MT23108 (PCI-X-limited).
    pub ib: TransportModel,
    /// IP-over-IB emulation on the same fabric.
    pub ipoib: TransportModel,
    /// Gigabit Ethernet.
    pub gige: TransportModel,

    // -- HCA ------------------------------------------------------------------
    /// Host channel adapter behaviour (WQE costs, QP-context cache).
    pub hca: HcaParams,

    // -- disk -----------------------------------------------------------------
    /// The local ATA disk baseline's mechanics.
    pub disk: DiskParams,

    // -- compute ---------------------------------------------------------------
    /// Per-operation application/kernel compute costs.
    pub compute: ComputeParams,
}

impl Calibration {
    /// The paper's testbed: dual Xeon 2.66 GHz, PCI-X 133, MT23108 4x IB,
    /// GigE, ST340014A ATA disk, Linux 2.4 (RedHat 9).
    pub fn cluster_2005() -> Calibration {
        Calibration {
            memcpy_base_ns: 200,
            memcpy_bytes_per_ns: 1.6, // ≈1.6 GB/s
            reg_base_ns: 85_000,      // ≈85 us fixed pin+table cost
            reg_per_page_ns: 350,
            dereg_base_ns: 30_000,
            page_size: 4096,
            ib: TransportModel {
                name: "IB-RDMA",
                base_latency_ns: 6_000, // ≈6 us small-message RDMA write
                bytes_per_ns: 0.84,     // ≈840 MB/s PCI-X-limited payload
                mtu: 2048,
                per_segment_host_ns: 0, // offloaded: no per-packet host work
                per_byte_host_ns: 0.0,
            },
            ipoib: TransportModel {
                name: "IPoIB",
                base_latency_ns: 28_000, // TCP/IP stack both ends
                bytes_per_ns: 0.24,      // ≈240 MB/s effective
                mtu: 2044,
                per_segment_host_ns: 1_500, // per-packet stack processing
                per_byte_host_ns: 0.35,     // checksum + copies
            },
            gige: TransportModel {
                name: "GigE",
                base_latency_ns: 48_000,
                bytes_per_ns: 0.110, // ≈110 MB/s
                mtu: 1500,
                per_segment_host_ns: 1_800,
                per_byte_host_ns: 0.35,
            },
            hca: HcaParams {
                post_ns: 300,
                chained_post_ns: 120,
                completion_event_ns: 4_000,
                qp_cache_size: 8,
                qp_ctx_reload_ns: 2_500,
                per_wqe_ns: 500,
                rdma_read_bytes_per_ns: 0.5, // Tavor READ ~500 MB/s
                qp_sched_ns_per_excess: 1_500,
            },
            disk: DiskParams {
                avg_seek_ns: 8_500_000,
                avg_rotational_ns: 4_160_000,
                bytes_per_ns: 0.050, // ≈50 MB/s media rate
                command_overhead_ns: 200_000,
            },
            compute: ComputeParams {
                testswap_ns_per_write: 22,
                qsort_ns_per_op: 4,
                barnes_ns_per_interaction: 55,
                fault_ns: 2_500,
                block_submit_ns: 1_500,
            },
        }
    }

    /// memcpy cost for `len` bytes (Figure 3's lower curve and the cost the
    /// HPBD client/server pay to stage pages through registered buffers).
    pub fn memcpy_time(&self, len: u64) -> SimDuration {
        SimDuration::from_nanos(
            self.memcpy_base_ns + (len as f64 / self.memcpy_bytes_per_ns).round() as u64,
        )
    }

    /// Memory-registration cost for a region of `len` bytes (Figure 3's
    /// upper curve): fixed cost plus a per-pinned-page charge.
    pub fn registration_time(&self, len: u64) -> SimDuration {
        let pages = len.div_ceil(self.page_size).max(1);
        SimDuration::from_nanos(self.reg_base_ns + pages * self.reg_per_page_ns)
    }

    /// Deregistration cost.
    pub fn deregistration_time(&self, len: u64) -> SimDuration {
        let pages = len.div_ceil(self.page_size).max(1);
        SimDuration::from_nanos(self.dereg_base_ns + pages * (self.reg_per_page_ns / 4))
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::cluster_2005()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal() -> Calibration {
        Calibration::cluster_2005()
    }

    #[test]
    fn memcpy_scales_linearly() {
        let c = cal();
        let t4k = c.memcpy_time(4096).as_nanos();
        let t128k = c.memcpy_time(128 * 1024).as_nanos();
        // 32x the bytes should be ~32x the variable cost.
        let var4k = t4k - c.memcpy_base_ns;
        let var128k = t128k - c.memcpy_base_ns;
        let ratio = var128k as f64 / var4k as f64;
        assert!((ratio - 32.0).abs() < 0.5, "ratio was {ratio}");
    }

    #[test]
    fn registration_dwarfs_memcpy_in_swap_range() {
        // Figure 3: for 4K..127K requests, registering on the fly is far
        // costlier than copying through a pre-registered pool.
        let c = cal();
        for len in [4096u64, 16 * 1024, 64 * 1024, 127 * 1024] {
            let reg = c.registration_time(len).as_nanos();
            let cpy = c.memcpy_time(len).as_nanos();
            assert!(
                reg > cpy,
                "registration ({reg}ns) should exceed memcpy ({cpy}ns) at {len}B"
            );
        }
        // ...and the gap is large at page size.
        assert!(c.registration_time(4096).as_nanos() > 10 * c.memcpy_time(4096).as_nanos());
    }

    #[test]
    fn registration_crossover_is_beyond_swap_range() {
        // Eventually copying costs more than registering (that is why MPI
        // implementations register large buffers); the crossover must sit
        // above the 128K max swap request.
        let c = cal();
        let mut crossover = None;
        for i in 1..=4096u64 {
            let len = i * 4096;
            if c.memcpy_time(len) > c.registration_time(len) {
                crossover = Some(len);
                break;
            }
        }
        let x = crossover.expect("memcpy should eventually exceed registration");
        assert!(x > 127 * 1024, "crossover at {x} inside swap range");
    }

    #[test]
    fn disk_sequential_vs_random() {
        let d = cal().disk;
        let seq = d.service_time(128 * 1024, true);
        let rnd = d.service_time(128 * 1024, false);
        assert!(rnd.as_nanos() > 4 * seq.as_nanos());
        // Random 4K read ≈ 12.7 ms positioning + transfer.
        let r4k = d.service_time(4096, false);
        assert!(r4k.as_nanos() > 12_000_000 && r4k.as_nanos() < 14_000_000);
    }

    #[test]
    fn registration_rounds_up_pages() {
        let c = cal();
        // 1 byte still pins one page.
        assert_eq!(c.registration_time(1), c.registration_time(4096));
        assert!(c.registration_time(4097) > c.registration_time(4096));
    }
}
