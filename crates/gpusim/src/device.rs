//! Device configurations. Two A100 variants mirror the paper's testbeds:
//! the PCIE-40GB part (Figs. 2–4) and the SXM4-80GB part (Figs. 5–6) with
//! 1.31× higher memory bandwidth.

/// A GPU device model. Numbers follow the NVIDIA A100 whitepaper and
/// published microbenchmark latencies (Jia et al.).
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// Marketing name of the modeled part.
    pub name: &'static str,
    /// Streaming multiprocessors.
    pub num_sms: u32,
    /// FP64 lanes per SM (A100: 32).
    pub fp64_per_sm: u32,
    /// Warp schedulers per SM.
    pub schedulers: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident thread blocks per SM.
    pub max_blocks_per_sm: u32,
    /// 32-bit registers per SM.
    pub regs_per_sm: u32,
    /// Hard cap on registers per thread.
    pub max_regs_per_thread: u32,
    /// Global-memory bandwidth in GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Global-memory load latency in cycles.
    pub mem_latency: u32,
    /// Arithmetic pipeline latency in cycles.
    pub alu_latency: u32,
    /// Divide/special-function latency in cycles.
    pub special_latency: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Threads per warp.
    pub warp_size: u32,
}

impl Device {
    /// NVIDIA A100-PCIE-40GB (1555 GB/s) — the paper's primary testbed.
    pub fn a100_pcie_40gb() -> Device {
        Device {
            name: "A100-PCIE-40GB",
            num_sms: 108,
            fp64_per_sm: 32,
            schedulers: 4,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            regs_per_sm: 65536,
            max_regs_per_thread: 255,
            mem_bandwidth_gbs: 1555.0,
            mem_latency: 480,
            alu_latency: 4,
            special_latency: 32,
            clock_ghz: 1.41,
            warp_size: 32,
        }
    }

    /// NVIDIA A100-SXM4-80GB (2039 GB/s, 1.31× the PCIE part) — Figs. 5–6.
    pub fn a100_sxm4_80gb() -> Device {
        Device { name: "A100-SXM4-80GB", mem_bandwidth_gbs: 2039.0, ..Device::a100_pcie_40gb() }
    }

    /// Per-SM share of DRAM bandwidth, in bytes per core cycle.
    pub(crate) fn bytes_per_cycle_per_sm(&self) -> f64 {
        self.mem_bandwidth_gbs * 1e9 / (self.num_sms as f64) / (self.clock_ghz * 1e9)
    }

    /// Maximum resident warps per SM.
    pub(crate) fn max_warps_per_sm(&self) -> u32 {
        self.max_threads_per_sm / self.warp_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sxm_is_only_faster_in_bandwidth() {
        let p = Device::a100_pcie_40gb();
        let s = Device::a100_sxm4_80gb();
        assert!(s.mem_bandwidth_gbs / p.mem_bandwidth_gbs > 1.30);
        assert_eq!(p.num_sms, s.num_sms);
        assert_eq!(p.clock_ghz, s.clock_ghz);
    }

    #[test]
    fn bandwidth_share_is_sane() {
        let d = Device::a100_pcie_40gb();
        // 1555e9 / 108 SMs / 1.41e9 cyc/s ≈ 10.2 bytes/cycle/SM
        let b = d.bytes_per_cycle_per_sm();
        assert!((9.0..12.0).contains(&b), "got {b}");
    }

    #[test]
    fn warp_capacity() {
        assert_eq!(Device::a100_pcie_40gb().max_warps_per_sm(), 64);
    }
}
