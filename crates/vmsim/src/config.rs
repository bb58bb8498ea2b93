//! VM tuning parameters.

/// Configuration of the simulated VM subsystem.
#[derive(Clone, Debug)]
pub struct VmConfig {
    /// Page size in bytes (IA-32: 4096).
    pub page_size: u64,
    /// Physical frames available to applications (local memory size /
    /// page size, minus what the kernel keeps for itself).
    pub total_frames: usize,
    /// `kswapd` wakes when free frames drop below this.
    pub low_watermark: usize,
    /// `kswapd` reclaims until free frames reach this.
    pub high_watermark: usize,
    /// Pages read per swap-in cluster (Linux 2.4 `page_cluster = 3` ⇒ 8).
    pub readahead_pages: usize,
    /// Maximum page-outs issued per synchronous (direct) reclaim pass.
    pub reclaim_batch: usize,
    /// Maximum page-outs per background kswapd pass. Kept small, as in the
    /// 2.4 kernel where the allocating task did most of the reclaim work
    /// itself under streaming write loads.
    pub kswapd_batch: usize,
    /// Virtual-time gap between kswapd passes while it is awake, in ns.
    pub kswapd_interval_ns: u64,
}

impl VmConfig {
    /// A configuration for `local_mem_bytes` of application-visible memory,
    /// with watermarks scaled the way the 2.4 kernel scales `pages_min`/
    /// `pages_high`.
    pub fn for_memory(local_mem_bytes: u64) -> VmConfig {
        let page_size = 4096;
        let total_frames = (local_mem_bytes / page_size).max(16) as usize;
        let low = (total_frames / 64).clamp(4, 256);
        let high = (low * 3).min(total_frames / 2);
        VmConfig {
            page_size,
            total_frames,
            low_watermark: low,
            high_watermark: high,
            readahead_pages: 8,
            reclaim_batch: 32,
            kswapd_batch: 8,
            kswapd_interval_ns: 1_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermarks_are_sane() {
        for mb in [1u64, 8, 64, 512, 2048] {
            let c = VmConfig::for_memory(mb << 20);
            assert!(c.low_watermark < c.high_watermark, "{mb}MB");
            assert!(c.high_watermark <= c.total_frames / 2, "{mb}MB");
            assert!(c.low_watermark >= 4);
        }
    }

    #[test]
    fn memory_roundtrip() {
        let c = VmConfig::for_memory(512 << 20);
        assert_eq!(c.total_frames, 131072);
    }

    #[test]
    fn tiny_memory_clamps_to_minimum_frames() {
        let c = VmConfig::for_memory(1024);
        assert_eq!(c.total_frames, 16);
    }
}
