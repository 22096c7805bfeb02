//! Grid-level metrics: occupancy, launch scaling, and the Table IV columns.

use crate::device::Device;
use crate::scoreboard::{simulate, SimResult};
use crate::trace::Trace;

/// A kernel launch configuration, as decided by a compiler model.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// Thread blocks in the grid.
    pub grid_blocks: u64,
    /// Warps per thread block.
    pub warps_per_block: u32,
    /// Allocated registers per thread.
    pub regs_per_thread: u32,
    /// Times each thread executes the trace (work distribution of
    /// enclosing worker/gang loops).
    pub reps_per_thread: f64,
}

/// Resident blocks per SM given register pressure and block size.
pub(crate) fn resident_blocks(dev: &Device, cfg: &LaunchConfig) -> u32 {
    let threads_per_block = cfg.warps_per_block * dev.warp_size;
    if threads_per_block == 0 {
        return 0;
    }
    let by_threads = dev.max_threads_per_sm / threads_per_block;
    let regs_per_block = (cfg.regs_per_thread.max(1)) * threads_per_block;
    let by_regs = dev.regs_per_sm / regs_per_block.max(1);
    by_threads.min(by_regs).min(dev.max_blocks_per_sm)
}

/// SM occupancy: resident warps / maximum warps.
pub fn occupancy(dev: &Device, cfg: &LaunchConfig) -> f64 {
    let blocks = resident_blocks(dev, cfg);
    let warps = blocks * cfg.warps_per_block;
    (warps.min(dev.max_warps_per_sm()) as f64) / dev.max_warps_per_sm() as f64
}

/// The per-kernel measurement record — the columns of Table IV.
#[derive(Debug, Clone)]
pub struct KernelMetrics {
    /// Average execution time per launch, milliseconds.
    pub time_ms: f64,
    /// Executed warp-instructions across the grid (× 10⁶ when displayed).
    pub instructions: f64,
    /// Memory utilization: achieved DRAM throughput / peak bandwidth.
    pub mem_util: f64,
    /// Registers per thread.
    pub regs_per_thread: u32,
    /// SM occupancy (0–1).
    pub occupancy: f64,
    /// Achieved DRAM throughput, GB/s.
    pub bandwidth_gbs: f64,
    /// Raw per-block simulation result.
    pub sim: SimResult,
}

/// Simulate a full kernel launch: run one block's warps on the scoreboard,
/// then scale by grid waves.
pub fn run_kernel(trace: &Trace, cfg: &LaunchConfig, dev: &Device) -> KernelMetrics {
    let warps = cfg.warps_per_block.max(1);
    let sim = simulate(trace, warps, dev);

    let blocks_per_sm = resident_blocks(dev, cfg).max(1) as u64;
    let concurrent = blocks_per_sm * dev.num_sms as u64;
    let waves = (cfg.grid_blocks + concurrent - 1) / concurrent.max(1);
    // blocks actually co-resident in one wave (a small grid does not fill
    // the device — the GCC `kernels` baselines live in this regime)
    let blocks_per_wave = cfg.grid_blocks.min(concurrent).max(1);
    let per_sm_blocks = blocks_per_wave.div_ceil(dev.num_sms as u64);

    // multiple resident blocks interleave: issue slots are shared, so a wave
    // of B blocks takes ~B× the single-block instruction-throughput time but
    // overlaps latency; approximate by charging the max of (B × issue time,
    // single-block latency time).
    let block_cycles = sim.cycles as f64 * cfg.reps_per_thread;
    let issue_cycles = sim.issued as f64 * cfg.reps_per_thread / dev.schedulers as f64;
    let wave_cycles = (issue_cycles * per_sm_blocks as f64).max(block_cycles);
    // DRAM bandwidth cap across the whole device
    let wave_bytes = sim.dram_bytes as f64 * cfg.reps_per_thread * blocks_per_wave as f64;
    let bw_cycles = wave_bytes / (dev.mem_bandwidth_gbs * 1e9) * (dev.clock_ghz * 1e9);
    let wave_cycles = wave_cycles.max(bw_cycles);

    let total_cycles = wave_cycles * waves as f64;
    let time_s = total_cycles / (dev.clock_ghz * 1e9);
    let total_bytes = sim.dram_bytes as f64 * cfg.reps_per_thread * cfg.grid_blocks as f64;
    let bandwidth = if time_s > 0.0 { total_bytes / time_s / 1e9 } else { 0.0 };

    KernelMetrics {
        time_ms: time_s * 1e3,
        instructions: sim.issued as f64 * cfg.reps_per_thread * cfg.grid_blocks as f64,
        mem_util: (bandwidth / dev.mem_bandwidth_gbs).min(1.0),
        regs_per_thread: cfg.regs_per_thread,
        occupancy: occupancy(dev, cfg),
        bandwidth_gbs: bandwidth,
        sim,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Coalescing, SimInst, SimOp};

    fn mem_trace(n: u32) -> Trace {
        let insts: Vec<SimInst> = (0..n)
            .map(|i| SimInst {
                op: SimOp::Load { coalescing: Coalescing::Full, key: i as u64, base: 0 },
                srcs: vec![],
                dst: Some(i),
            })
            .collect();
        Trace { insts, num_regs: n, work_scale: 1.0 }
    }

    fn cfg(blocks: u64, warps: u32, regs: u32) -> LaunchConfig {
        LaunchConfig {
            grid_blocks: blocks,
            warps_per_block: warps,
            regs_per_thread: regs,
            reps_per_thread: 1.0,
        }
    }

    #[test]
    fn occupancy_limited_by_registers() {
        let dev = Device::a100_pcie_40gb();
        let low = occupancy(&dev, &cfg(1000, 8, 32));
        let high_regs = occupancy(&dev, &cfg(1000, 8, 200));
        assert!(high_regs < low, "{high_regs} vs {low}");
    }

    #[test]
    fn occupancy_full_with_light_usage() {
        let dev = Device::a100_pcie_40gb();
        // 8 warps/block, 32 regs → by_regs = 65536/(32*256)=8 blocks,
        // by_threads = 2048/256 = 8 → 64 warps = 100%
        let o = occupancy(&dev, &cfg(10_000, 8, 32));
        assert!((o - 1.0).abs() < 1e-9, "o = {o}");
    }

    #[test]
    fn more_blocks_take_longer() {
        let dev = Device::a100_pcie_40gb();
        let t = mem_trace(16);
        let small = run_kernel(&t, &cfg(108, 8, 64), &dev);
        let large = run_kernel(&t, &cfg(108 * 64, 8, 64), &dev);
        assert!(large.time_ms > small.time_ms);
    }

    #[test]
    fn memory_bound_kernel_saturates_bandwidth() {
        let dev = Device::a100_pcie_40gb();
        let t = mem_trace(64);
        let m = run_kernel(&t, &cfg(108 * 256, 8, 64), &dev);
        assert!(m.mem_util > 0.5, "util = {}", m.mem_util);
        assert!(m.bandwidth_gbs <= dev.mem_bandwidth_gbs * 1.001);
    }

    #[test]
    fn sxm_bandwidth_speeds_up_memory_bound() {
        let pcie = Device::a100_pcie_40gb();
        let sxm = Device::a100_sxm4_80gb();
        let t = mem_trace(64);
        let c = cfg(108 * 256, 8, 64);
        let mp = run_kernel(&t, &c, &pcie);
        let ms = run_kernel(&t, &c, &sxm);
        assert!(
            ms.time_ms < mp.time_ms,
            "SXM ({}) must beat PCIE ({}) on memory-bound work",
            ms.time_ms,
            mp.time_ms
        );
    }

    #[test]
    fn reps_scale_time_and_instructions() {
        let dev = Device::a100_pcie_40gb();
        let t = mem_trace(16);
        let mut c = cfg(108, 8, 64);
        let base = run_kernel(&t, &c, &dev);
        c.reps_per_thread = 4.0;
        let scaled = run_kernel(&t, &c, &dev);
        assert!((scaled.instructions / base.instructions - 4.0).abs() < 1e-9);
        assert!(scaled.time_ms > base.time_ms * 3.0);
    }
}
