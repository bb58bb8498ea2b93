//! Linear latency/bandwidth/host-overhead transport models.
//!
//! Each transport is modeled as `T(s) = α + s/B` on the wire plus explicit
//! *host* costs: per-segment stack processing and per-byte checksum/copy
//! work. Separating wire time from host time matters because the paper's
//! central claim is that once the wire is fast (IB), host overhead dominates
//! remote paging: the wire component is charged against link resources
//! (allowing overlap), while the host component is charged against node CPU
//! resources (stealing cycles from the application).

use simcore::SimDuration;

/// Which calibrated transport a channel uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Native InfiniBand verbs (RDMA / send-recv on the 4x fabric).
    IbRdma,
    /// TCP over IP-over-InfiniBand emulation.
    IpoIb,
    /// TCP over Gigabit Ethernet.
    GigE,
}

impl Transport {
    /// Short display name matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Transport::IbRdma => "IB-RDMA",
            Transport::IpoIb => "IPoIB",
            Transport::GigE => "GigE",
        }
    }
}

/// Parameters of one transport.
#[derive(Clone, Debug)]
pub struct TransportModel {
    /// Display name.
    pub name: &'static str,
    /// One-way zero-byte latency (α): propagation, switching, and the fixed
    /// protocol turnaround.
    pub base_latency_ns: u64,
    /// Payload bandwidth in bytes per nanosecond (B).
    pub bytes_per_ns: f64,
    /// Maximum transmission unit — messages are cut into `ceil(s / mtu)`
    /// segments for host-overhead purposes.
    pub mtu: u64,
    /// Host CPU cost per segment (interrupts, skb handling, TCP/IP code
    /// path). Zero for RDMA: segmentation is offloaded to the HCA.
    pub per_segment_host_ns: u64,
    /// Host CPU cost per byte (checksums and copies on the stack path).
    pub per_byte_host_ns: f64,
}

impl TransportModel {
    /// Number of MTU-sized segments a message of `len` bytes occupies.
    pub fn segments(&self, len: u64) -> u64 {
        if len == 0 {
            1
        } else {
            len.div_ceil(self.mtu)
        }
    }

    /// Pure wire occupancy for `len` bytes (serialisation time).
    pub fn wire_time(&self, len: u64) -> SimDuration {
        SimDuration::from_nanos((len as f64 / self.bytes_per_ns).round() as u64)
    }

    /// One-way propagation (independent of size).
    pub fn propagation(&self) -> SimDuration {
        SimDuration::from_nanos(self.base_latency_ns)
    }

    /// Host CPU work to push `len` bytes through the stack on ONE side.
    pub fn host_side_time(&self, len: u64) -> SimDuration {
        let per_seg = self.segments(len) * self.per_segment_host_ns;
        let per_byte = (len as f64 * self.per_byte_host_ns).round() as u64;
        SimDuration::from_nanos(per_seg + per_byte)
    }

    /// Stack-processing time for the FIRST segment on one side — the
    /// pipeline startup cost before the wire can start (or after the last
    /// bits land).
    pub fn segment_startup(&self, len: u64) -> SimDuration {
        let first = len.min(self.mtu);
        SimDuration::from_nanos(
            self.per_segment_host_ns + (first as f64 * self.per_byte_host_ns).round() as u64,
        )
    }

    /// End-to-end one-way latency for a message of `len` bytes, as a
    /// ping-pong microbenchmark would report it. Segment processing on the
    /// hosts PIPELINES with the wire (real TCP overlaps checksum/copy of
    /// segment k with transmission of segment k-1), so the total is
    /// startup + propagation + the bottleneck stage, with the wire the
    /// bottleneck at these calibrations. This is the quantity plotted in
    /// Figure 1.
    pub fn one_way_latency(&self, len: u64) -> SimDuration {
        let bottleneck = self.wire_time(len).max(self.host_side_time(len));
        self.segment_startup(len) + self.propagation() + bottleneck + self.segment_startup(len)
    }

    /// A copy of this model describing a degraded link: `added_latency_ns`
    /// extra one-way latency and bandwidth multiplied by `bandwidth_factor`.
    /// Fault plans use this to model cable/switch trouble without touching
    /// the calibrated baseline.
    ///
    /// # Panics
    /// Panics if `bandwidth_factor` is not in `(0.0, 1.0]`.
    pub fn degraded(&self, added_latency_ns: u64, bandwidth_factor: f64) -> TransportModel {
        assert!(
            bandwidth_factor > 0.0 && bandwidth_factor <= 1.0,
            "bandwidth_factor must be in (0.0, 1.0]"
        );
        TransportModel {
            base_latency_ns: self.base_latency_ns + added_latency_ns,
            bytes_per_ns: self.bytes_per_ns * bandwidth_factor,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Calibration;

    #[test]
    fn figure1_ordering_small_messages() {
        // Figure 1 at small sizes: memcpy < RDMA < IPoIB < GigE.
        let c = Calibration::cluster_2005();
        let len = 64;
        let memcpy = c.memcpy_time(len);
        let rdma = c.ib.one_way_latency(len);
        let ipoib = c.ipoib.one_way_latency(len);
        let gige = c.gige.one_way_latency(len);
        assert!(memcpy < rdma, "{memcpy} !< {rdma}");
        assert!(rdma < ipoib, "{rdma} !< {ipoib}");
        assert!(ipoib < gige, "{ipoib} !< {gige}");
    }

    #[test]
    fn figure1_ordering_large_messages() {
        // ...and at 128K the same ordering holds, with RDMA staying within a
        // small factor of memcpy ("quite comparable") while the TCP
        // transports are many times slower.
        let c = Calibration::cluster_2005();
        let len = 128 * 1024;
        let memcpy = c.memcpy_time(len).as_nanos() as f64;
        let rdma = c.ib.one_way_latency(len).as_nanos() as f64;
        let ipoib = c.ipoib.one_way_latency(len).as_nanos() as f64;
        let gige = c.gige.one_way_latency(len).as_nanos() as f64;
        assert!(rdma / memcpy < 2.5, "RDMA should be comparable to memcpy");
        assert!(ipoib / rdma > 3.0, "IPoIB should be several times slower");
        assert!(gige / ipoib > 1.5, "GigE should be slowest");
    }

    #[test]
    fn rdma_has_no_host_overhead() {
        let c = Calibration::cluster_2005();
        assert!(c.ib.host_side_time(128 * 1024).is_zero());
        assert!(!c.ipoib.host_side_time(128 * 1024).is_zero());
    }

    #[test]
    fn segment_count() {
        let c = Calibration::cluster_2005();
        assert_eq!(c.gige.segments(0), 1);
        assert_eq!(c.gige.segments(1500), 1);
        assert_eq!(c.gige.segments(1501), 2);
        assert_eq!(c.gige.segments(128 * 1024), 88);
    }

    #[test]
    fn small_rdma_latency_is_microseconds() {
        // The paper quotes a few microseconds for small RDMA writes.
        let c = Calibration::cluster_2005();
        let lat = c.ib.one_way_latency(8).as_nanos();
        assert!((4_000..12_000).contains(&lat), "got {lat}ns");
    }

    #[test]
    fn degraded_link_is_slower() {
        let c = Calibration::cluster_2005();
        let bad = c.ib.degraded(10_000, 0.25);
        assert_eq!(bad.base_latency_ns, c.ib.base_latency_ns + 10_000);
        assert!(bad.wire_time(1 << 20) > c.ib.wire_time(1 << 20));
        // The identity degradation changes nothing.
        let same = c.ib.degraded(0, 1.0);
        assert_eq!(same.base_latency_ns, c.ib.base_latency_ns);
        assert_eq!(same.wire_time(1 << 20), c.ib.wire_time(1 << 20));
    }

    #[test]
    #[should_panic(expected = "bandwidth_factor")]
    fn degraded_validates_factor() {
        let _ = Calibration::cluster_2005().ib.degraded(0, 2.0);
    }

    #[test]
    fn propagation_lower_bounds_every_latency() {
        // Every other latency component scales with message size (and
        // host-side work only adds), so no message beats propagation.
        let c = Calibration::cluster_2005();
        for t in [&c.ib, &c.ipoib, &c.gige] {
            assert!(!t.propagation().is_zero(), "{}: zero propagation", t.name);
            for len in [0u64, 1, 64, 4096, 128 * 1024] {
                assert!(
                    t.propagation() <= t.one_way_latency(len),
                    "{}: propagation {} exceeds latency {} at {len}B",
                    t.name,
                    t.propagation(),
                    t.one_way_latency(len)
                );
            }
        }
        // Degrading a link only raises its latency floor.
        let bad = c.ib.degraded(10_000, 0.5);
        assert!(bad.propagation() >= c.ib.propagation());
    }
}
