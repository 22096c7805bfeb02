//! `accsat` — ACC Saturator: automatic kernel optimization for
//! directive-based GPU code through equality saturation.
//!
//! This is the top-level crate of the reproduction of *"ACC Saturator:
//! Automatic Kernel Optimization for Directive-Based GPU Code"* (SC 2024).
//! It wires the substrate crates into the paper's pipeline (Fig. 1):
//!
//! ```text
//!  OpenACC/OpenMP C ──parse──▶ AST ──SSA──▶ e-graph ──saturate──▶ e-graph*
//!       ▲                                                            │
//!       └────────────── codegen (temps + bulk load) ◀── extract ─────┘
//! ```
//!
//! # Quick start
//!
//! ```
//! use accsat::{optimize_program, Variant};
//!
//! let src = r#"
//! void axpy(double x[64], double y[64], double a) {
//!   #pragma acc parallel loop gang vector_length(64)
//!   for (int i = 0; i < 64; i++) {
//!     y[i] = a * x[i] + y[i];
//!   }
//! }
//! "#;
//! let prog = accsat_ir::parse_program(src).unwrap();
//! let (optimized, stats) = optimize_program(&prog, Variant::AccSat).unwrap();
//! let text = accsat_ir::print_program(&optimized);
//! assert!(text.contains("#pragma acc parallel loop"), "directives preserved");
//! assert_eq!(stats.len(), 1);
//! ```
//!
//! The four generated-code variants of the evaluation (§VIII) are
//! [`Variant::Cse`], [`Variant::CseSat`], [`Variant::CseBulk`] and
//! [`Variant::AccSat`]; [`Variant::Original`] passes code through untouched.

pub mod batch;
pub mod cache;
mod evaluate;
pub mod fuzz;
pub mod metrics;
mod pipeline;
pub mod report;
pub mod serve;

pub use batch::{optimize_suite, tune_suite, BatchReport, ParallelConfig};
pub use cache::{sat_stage_key, sel_stage_key, CacheLevel, SatEntry, SelEntry, StageCache};
pub use evaluate::{evaluate_benchmark, speedup, BenchmarkResult, KernelResult};
pub use fuzz::{check_kernel, check_seeded, minimize_function, run_campaign, run_case, FuzzConfig};
pub use metrics::add_opt_stats;
pub use pipeline::{
    optimize_program, optimize_program_with, tune_function, OptStats, SaturatorConfig, Variant,
};
pub use report::{format_speedup_row, render_table};
pub use serve::{optimize_source, run_session, ServeConfig};

// Re-export the substrate crates so downstream users need a single
// dependency.
pub use accsat_autotune as autotune;
pub use accsat_benchmarks as benchmarks;
pub use accsat_codegen as codegen;
pub use accsat_compilers as compilers;
pub use accsat_egraph as egraph;
pub use accsat_extract as extract;
pub use accsat_gpusim as gpusim;
pub use accsat_interp as interp;
pub use accsat_ir as ir;
pub use accsat_obs as obs;
pub use accsat_ssa as ssa;

#[cfg(test)]
mod tests {
    use super::*;
    use accsat_ir::{parse_program, print_program};

    const MATMUL: &str = r#"
void mm(double a[16][16], double b[16][16], double c[16][16], double r[16][16],
        double alpha, double beta) {
  #pragma acc kernels loop independent
  for (int i = 0; i < 16; i++) {
    #pragma acc loop independent gang(16) vector(256)
    for (int j = 0; j < 16; j++) {
      double tmp = 0.0;
      for (int l = 0; l < 16; l++) {
        tmp += a[i][l] * b[l][j];
      }
      r[i][j] = alpha * tmp + beta * c[i][j];
    }
  }
}
"#;

    #[test]
    fn listing1_pipeline_all_variants() {
        let prog = parse_program(MATMUL).unwrap();
        for v in [Variant::Cse, Variant::CseSat, Variant::CseBulk, Variant::AccSat] {
            let (opt, stats) = optimize_program(&prog, v).unwrap();
            let text = print_program(&opt);
            assert!(text.contains("gang(16) vector(256)"), "{v:?}: directives kept");
            assert_eq!(stats.len(), 1, "{v:?}: one kernel optimized");
            assert!(stats[0].egraph_nodes > 0);
        }
    }

    #[test]
    fn original_variant_is_identity() {
        let prog = parse_program(MATMUL).unwrap();
        let (opt, stats) = optimize_program(&prog, Variant::Original).unwrap();
        assert_eq!(opt, prog);
        assert!(stats.is_empty());
    }

    #[test]
    fn saturation_runs_only_for_sat_variants() {
        let prog = parse_program(MATMUL).unwrap();
        let (_, cse) = optimize_program(&prog, Variant::Cse).unwrap();
        let (_, sat) = optimize_program(&prog, Variant::AccSat).unwrap();
        assert_eq!(cse[0].saturation_iters, 0);
        assert!(sat[0].saturation_iters > 0);
        assert!(sat[0].egraph_nodes >= cse[0].egraph_nodes);
    }
}
