//! Helpers shared by the integration tests that walk the suite kernel by
//! kernel (each test binary compiles its own copy: `mod common;`).

pub mod counting;

use accsat_ir::{parse_program, Block};
use accsat_ssa::SsaKernel;

/// Every suite kernel body — `"<benchmark> <function>"` and the body of
/// the innermost parallel loop — in suite order (19).
pub fn suite_bodies() -> Vec<(String, Block)> {
    let mut out = Vec::new();
    for b in accsat_benchmarks::all_benchmarks() {
        let prog = parse_program(&b.acc_source).unwrap();
        for f in &prog.functions {
            for l in accsat_ir::innermost_parallel_loops(f) {
                out.push((format!("{} {}", b.name, f.name), l.body.clone()));
            }
        }
    }
    out
}

/// Every suite kernel as the pipeline sees it — `"<benchmark> <function>"`
/// and the SSA-built, not yet saturated, kernel — in suite order (19).
pub fn suite_kernels() -> Vec<(String, SsaKernel)> {
    let bodies = suite_bodies().into_iter();
    bodies.map(|(name, body)| (name, accsat_ssa::build_kernel(&body))).collect()
}
