//! `accsat-gpusim` — a warp-scoreboard GPU performance simulator.
//!
//! The paper evaluates on NVIDIA A100 hardware; this crate is the synthetic
//! substitute. It models exactly the mechanisms ACC Saturator's
//! optimizations act on:
//!
//! * **in-order warp issue with a register scoreboard** — dependent
//!   instructions stall on their operands, so reordering loads to the front
//!   (bulk load) overlaps their latencies (memory-level parallelism), while
//!   reducing instruction count (CSE/FMA) shortens the critical path;
//! * **global-memory latency and bandwidth** — loads have a ~500-cycle
//!   latency and draw from a per-SM bandwidth budget, with the transaction
//!   size determined by a static coalescing analysis of each access's index
//!   expressions (the "order of memory accesses" effect of §II-A);
//! * **occupancy from register pressure** — more live values per thread
//!   means fewer resident warps per SM, reducing the latency-hiding pool
//!   (the register-spill effects discussed for Table IV).
//!
//! Kernel ASTs are lowered to per-thread instruction traces
//! ([`trace::lower_body`]); [`simulate`] runs one thread block's
//! warps cycle-by-cycle; [`run_kernel`] scales to the full grid and reports the
//! Table IV metrics (time/launch, instructions, memory utilization,
//! registers/thread, SM occupancy).

#![warn(missing_docs)]

mod device;
mod metrics;
mod scoreboard;
pub mod trace;

pub use device::Device;
pub use metrics::{occupancy, run_kernel, KernelMetrics, LaunchConfig};
pub use scoreboard::{simulate, SimResult};
pub use trace::{lower_body, LowerCtx, SimInst, SimOp, Trace};

#[cfg(test)]
mod tests {
    use super::*;
    use accsat_ir::parse_program;
    use std::collections::HashMap;

    fn trace_of(src: &str, vector_var: &str) -> Trace {
        let prog = parse_program(src).unwrap();
        let f = &prog.functions[0];
        let loops = accsat_ir::innermost_parallel_loops(f);
        let ctx = LowerCtx {
            vector_var: vector_var.to_string(),
            bindings: HashMap::new(),
            max_unroll: 64,
        };
        lower_body(&loops[0].body, &ctx)
    }

    #[test]
    fn bulk_order_beats_interleaved_on_latency() {
        // Two code shapes with identical work: loads interleaved with
        // dependent math vs all loads first. The scoreboard must reward
        // the bulk shape with fewer cycles (MLP).
        let interleaved = trace_of(
            r#"
void k(double a[64], double b[64], double c[64], double d[64], double out[64]) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 64; i++) {
    double t0 = a[i] * 2.0;
    double t1 = b[i] * t0;
    double t2 = c[i] * t1;
    double t3 = d[i] * t2;
    out[i] = t3;
  }
}
"#,
            "i",
        );
        let bulk = trace_of(
            r#"
void k(double a[64], double b[64], double c[64], double d[64], double out[64]) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 64; i++) {
    double v0 = a[i];
    double v1 = b[i];
    double v2 = c[i];
    double v3 = d[i];
    double t0 = v0 * 2.0;
    double t1 = v1 * t0;
    double t2 = v2 * t1;
    double t3 = v3 * t2;
    out[i] = t3;
  }
}
"#,
            "i",
        );
        let dev = Device::a100_pcie_40gb();
        // few warps: latency-bound regime where MLP matters most
        let r1 = simulate(&interleaved, 2, &dev);
        let r2 = simulate(&bulk, 2, &dev);
        assert!(
            r2.cycles < r1.cycles,
            "bulk ({}) must beat interleaved ({})",
            r2.cycles,
            r1.cycles
        );
    }

    #[test]
    fn more_warps_hide_latency() {
        let t = trace_of(
            r#"
void k(double a[64], double out[64]) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 64; i++) {
    out[i] = a[i] * 2.0 + 1.0;
  }
}
"#,
            "i",
        );
        let dev = Device::a100_pcie_40gb();
        let r1 = simulate(&t, 1, &dev);
        let r16 = simulate(&t, 16, &dev);
        // 16 warps do 16x the work; throughput per warp must improve
        assert!(
            (r16.cycles as f64) < 16.0 * r1.cycles as f64 * 0.5,
            "16 warps ({}) should overlap far better than 16 × 1 warp ({})",
            r16.cycles,
            r1.cycles
        );
    }

    #[test]
    fn coalesced_faster_than_strided() {
        let coalesced = trace_of(
            r#"
void k(double a[64][64], double out[64][64], int j) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 64; i++) {
    out[j][i] = a[j][i] * 2.0;
  }
}
"#,
            "i",
        );
        let strided = trace_of(
            r#"
void k(double a[64][64], double out[64][64], int j) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 64; i++) {
    out[i][j] = a[i][j] * 2.0;
  }
}
"#,
            "i",
        );
        let dev = Device::a100_pcie_40gb();
        let rc = simulate(&coalesced, 32, &dev);
        let rs = simulate(&strided, 32, &dev);
        assert!(rc.dram_bytes < rs.dram_bytes, "strided access moves more sectors");
        assert!(rc.cycles <= rs.cycles);
    }
}
