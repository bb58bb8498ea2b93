//! HPBD tuning parameters.

/// How the swap area maps onto the memory servers (paper §4.2.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Distribution {
    /// The paper's choice: contiguous per-server extents, requests split
    /// only at extent boundaries.
    Blocking,
    /// The alternative the paper argues against: round-robin stripes, so
    /// one request fans out across servers. Implemented for the ablation
    /// study.
    Striped {
        /// Stripe unit in bytes (page-multiple).
        stripe_bytes: u64,
    },
}

/// How the client stages page data for RDMA (paper §4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StagingMode {
    /// The paper's choice: memcpy pages through the pre-registered pool.
    CopyToPool,
    /// The alternative Figure 3 rules out: register the page buffers with
    /// the HCA on the fly for each request (zero-copy, but the
    /// registration cost lands on the critical path). Implemented for the
    /// ablation study and as the hook for the paper's zero-copy future
    /// work.
    RegisterOnFly,
}

/// Server staging buffer pool size.
pub const SERVER_STAGING_SIZE: u64 = 1 << 20;
/// Server idle time before it yields the CPU and sleeps (paper §4.2.3:
/// 200 µs).
pub const SERVER_IDLE_NS: u64 = 200_000;
/// Client CPU cost to process one reply in the receiver thread.
pub const REPLY_PROC_NS: u64 = 600;
/// Server CPU cost to parse and dispatch one request.
pub const REQUEST_PROC_NS: u64 = 800;

/// Configuration of the HPBD client and servers.
#[derive(Clone, Debug)]
pub struct HpbdConfig {
    /// Client registered buffer pool size (paper default: 1 MiB,
    /// initialised at device load time).
    pub pool_size: u64,
    /// Flow-control water-mark: maximum outstanding requests per server
    /// (equals the receive buffers pre-posted at each end).
    pub credits: usize,
    /// Swap-area-to-server mapping.
    pub distribution: Distribution,
    /// Data staging strategy.
    pub staging: StagingMode,
    /// Mirror every write to a second server (RRMP-style reliability,
    /// paper §4.1's pointer to \[6\]/\[13\]): a write completes only when both
    /// copies are acknowledged; reads come from the primary.
    pub mirror_writes: bool,
    /// Remapping granularity for dynamic memory, in bytes: the swap area
    /// maps to server storage in chunks of this size, and revocation /
    /// migration moves whole chunks. Page-multiple.
    pub chunk_bytes: u64,
    /// Spare chunks each server exports beyond its extent, used as
    /// migration targets when another server revokes memory (the dynamic
    /// cooperative mode; 0 disables).
    pub spare_chunks: usize,
    /// Request timeout for failover, in ns. `Some(t)`: a request
    /// unanswered after `t` marks its server dead and re-routes to the
    /// buddy's replica region (requires `mirror_writes`). `None` (default):
    /// no timeouts are armed — a lost server stalls I/O forever, matching
    /// the paper's scope ("these issues are out of the scope of this
    /// paper").
    pub request_timeout_ns: Option<u64>,
    /// How many times a timed-out or link-failed request is retried on the
    /// SAME server before the server is declared dead, with exponential
    /// backoff (timeout doubles per attempt, capped at 8x). 0 (default):
    /// the first timeout declares the server dead, matching the pre-fault
    /// behaviour. Only meaningful with `request_timeout_ns`.
    pub max_retries: u32,
    /// Coalesce per-server request bursts into merged multi-extent wire
    /// messages served by one scatter-gather RDMA each, and ring one
    /// doorbell per burst (RDMAbox-style batching). `false` (default):
    /// one control message per split part, matching the paper exactly.
    pub batching: bool,
    /// How long a batched part may wait for mergeable neighbours, in ns.
    /// 0 (default): same-tick coalescing only — parts staged at the same
    /// virtual instant merge, an isolated demand fault is never delayed.
    /// Larger windows trade first-part latency for bigger merges. Only
    /// meaningful with `batching`. A merged message carries at most the
    /// wire format's `proto::MAX_MERGE_SEGMENTS` parts.
    pub merge_window_ns: u64,
}

impl HpbdConfig {
    /// A server's primary region: its `extent`, then its spare chunks.
    pub(crate) fn primary_len(&self, extent: u64) -> u64 {
        extent + self.spare_chunks as u64 * self.chunk_bytes.max(4096)
    }

    /// A server's store: its primary region, then with `mirror_writes` a
    /// replica region as long, holding the previous server's.
    pub(crate) fn store_len(&self, extent: u64) -> u64 {
        self.primary_len(extent) << self.mirror_writes as u32
    }
}

impl Default for HpbdConfig {
    fn default() -> HpbdConfig {
        HpbdConfig {
            pool_size: 1 << 20,
            credits: 16,
            distribution: Distribution::Blocking,
            staging: StagingMode::CopyToPool,
            mirror_writes: false,
            chunk_bytes: 1 << 20,
            spare_chunks: 0,
            request_timeout_ns: None,
            max_retries: 0,
            batching: false,
            merge_window_ns: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = HpbdConfig::default();
        assert_eq!(c.pool_size, 1 << 20, "1MB default pool (paper §4.2.2)");
        assert_eq!(SERVER_IDLE_NS, 200_000, "200us idle sleep (paper §4.2.3)");
        assert!(c.credits > 0);
        assert_eq!(
            c.distribution,
            Distribution::Blocking,
            "non-striping (§4.2.5)"
        );
        assert_eq!(
            c.staging,
            StagingMode::CopyToPool,
            "copy beats register (§4.1)"
        );
        assert!(!c.mirror_writes, "mirroring is out of the paper's scope");
        assert!(!c.batching, "batching is a post-paper optimisation");
        assert_eq!(c.merge_window_ns, 0, "same-tick coalescing by default");
    }
}
