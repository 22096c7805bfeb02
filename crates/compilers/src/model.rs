//! The compiler models: directive interpretation, launch configuration,
//! back-end load elimination, and register allocation.

use crate::nest::{analyze_nest, LoopNest};
use crate::vn::eliminate_redundant_loads;
use accsat_gpusim::{
    lower_body,
    trace::{fuse_fma, schedule_loads},
    LaunchConfig, LowerCtx, Trace,
};
use accsat_ir::{DirectiveKind, Function, Model};
use std::collections::HashMap;

/// The three compilers of the paper's evaluation (§VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Compiler {
    /// NVHPC 22.9, `-O3 -gpu=fastmath -Msafeptr`.
    Nvhpc,
    /// GCC 12.2.0, `-O3 -ffast-math`.
    Gcc,
    /// Clang 15.0.3, `-O3 -ffast-math -fopenmp` (OpenMP only).
    Clang,
}

impl Compiler {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Compiler::Nvhpc => "NVHPC",
            Compiler::Gcc => "GCC",
            Compiler::Clang => "Clang",
        }
    }
}

/// A (compiler, programming model) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompilerModel {
    pub compiler: Compiler,
    pub model: Model,
}

impl CompilerModel {
    /// Construct; panics on the unsupported Clang+OpenACC combination.
    pub fn new(compiler: Compiler, model: Model) -> CompilerModel {
        assert!(
            !(compiler == Compiler::Clang && model == Model::OpenAcc),
            "Clang has no OpenACC support (paper §VII)"
        );
        CompilerModel { compiler, model }
    }

    /// Default vector length when no clause specifies one.
    fn default_vector(&self) -> u32 {
        match (self.compiler, self.model) {
            (Compiler::Nvhpc, _) => 128,
            (Compiler::Gcc, Model::OpenAcc) => 32,
            (Compiler::Gcc, Model::OpenMp) => 64,
            (Compiler::Clang, _) => 128,
        }
    }

    /// Value-numbering window (instructions) of the back end.
    fn vn_window(&self) -> usize {
        match self.compiler {
            Compiler::Nvhpc => usize::MAX,
            Compiler::Gcc => 2,
            Compiler::Clang => 24,
        }
    }

    /// Basic-block load-scheduling window (slots a load may be hoisted).
    fn sched_window(&self) -> usize {
        match self.compiler {
            Compiler::Nvhpc => 10,
            Compiler::Gcc => 2,
            Compiler::Clang => 6,
        }
    }

    /// Register-allocation model: `regs = base + factor × peak_live`.
    fn reg_model(&self) -> (u32, f64) {
        match (self.compiler, self.model) {
            (Compiler::Nvhpc, _) => (16, 1.0),
            // GCC OpenACC allocates few registers (paper Table IV: 130 vs
            // NVHPC's 152) but leaves parallelism on the table instead
            (Compiler::Gcc, Model::OpenAcc) => (10, 0.85),
            // GCC OpenMP: "high register pressure" (§VIII)
            (Compiler::Gcc, Model::OpenMp) => (24, 1.4),
            (Compiler::Clang, _) => (16, 1.1),
        }
    }
}

/// A compiled kernel: the per-thread trace and the launch configuration.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    pub trace: Trace,
    pub launch: LaunchConfig,
    pub vector_var: String,
}

/// Compile the first kernel of `f` under the model, with problem-size
/// `bindings` for trip counts.
pub fn compile_kernel(
    f: &Function,
    cm: &CompilerModel,
    bindings: &HashMap<String, i64>,
) -> Result<CompiledKernel, String> {
    let nest = analyze_nest(f, 0, bindings)
        .ok_or_else(|| format!("function `{}` has no directive loop", f.name))?;
    Ok(compile_nest(&nest, cm, bindings))
}

/// Compile an analyzed nest under the model: launch geometry from its
/// levels, the trace from its body.
pub fn compile_nest(
    nest: &LoopNest,
    cm: &CompilerModel,
    bindings: &HashMap<String, i64>,
) -> CompiledKernel {
    let head_kind = nest.levels.first().map(|l| l.kind);
    let gcc_kernels =
        cm.compiler == Compiler::Gcc && head_kind == Some(DirectiveKind::AccKernelsLoop);

    // --- launch geometry ------------------------------------------------
    let (vector_len, workers) = if gcc_kernels {
        // immature kernels support: 32-thread blocks, worker clauses ignored
        (32u32, 1u32)
    } else {
        let v = nest.vector_length().unwrap_or_else(|| cm.default_vector());
        let w = nest.num_workers().unwrap_or(1);
        (v.max(32), w.max(1))
    };

    let gang_trip = nest.gang_trip() as u64;
    let grid_blocks = match nest.num_gangs() {
        Some(g) if !gcc_kernels => g as u64,
        _ => gang_trip.max(1),
    };
    // iterations each thread performs beyond one trace execution
    let gang_reps = (gang_trip as f64 / grid_blocks as f64).max(1.0);
    let worker_trip = nest.worker_trip() as f64;
    let worker_reps = (worker_trip / workers as f64).max(1.0);
    let vector_trip = nest.vector_trip() as f64;
    let vector_reps = (vector_trip / vector_len as f64).max(1.0);
    let reps = gang_reps * worker_reps * vector_reps * nest.seq_mult;

    // --- trace ----------------------------------------------------------
    let ctx = LowerCtx {
        vector_var: nest.vector_var.clone(),
        bindings: bindings.clone(),
        max_unroll: 64,
    };
    let raw = lower_body(&nest.body, &ctx);
    // the back ends' pass order: CSE, FMA selection, block scheduling
    let trace = schedule_loads(
        &fuse_fma(&eliminate_redundant_loads(&raw, cm.vn_window())),
        cm.sched_window(),
    );

    // --- registers ------------------------------------------------------
    let (base, factor) = cm.reg_model();
    let peak = trace.peak_live_regs() as f64;
    let regs = (base as f64 + factor * peak).round() as u32;
    let regs = regs.clamp(16, 255);

    let warps_per_block = ((workers * vector_len) / 32).max(1);
    CompiledKernel {
        trace,
        launch: LaunchConfig {
            grid_blocks,
            warps_per_block,
            regs_per_thread: regs,
            reps_per_thread: reps,
        },
        vector_var: nest.vector_var.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accsat_ir::parse_program;

    #[test]
    #[should_panic(expected = "Clang has no OpenACC")]
    fn clang_acc_panics() {
        let _ = CompilerModel::new(Compiler::Clang, Model::OpenAcc);
    }

    #[test]
    fn default_vector_lengths() {
        assert_eq!(CompilerModel::new(Compiler::Nvhpc, Model::OpenAcc).default_vector(), 128);
        assert_eq!(CompilerModel::new(Compiler::Gcc, Model::OpenAcc).default_vector(), 32);
    }

    #[test]
    fn single_gang_vector_loop_blocks() {
        let src = r#"
void k(double a[4096]) {
  #pragma acc parallel loop gang vector_length(128)
  for (int i = 0; i < 4096; i++) {
    a[i] = 1.0;
  }
}
"#;
        let prog = parse_program(src).unwrap();
        let cm = CompilerModel::new(Compiler::Nvhpc, Model::OpenAcc);
        let k = compile_kernel(&prog.functions[0], &cm, &HashMap::new()).unwrap();
        assert_eq!(k.launch.grid_blocks, 4096, "one gang per iteration");
        assert_eq!(k.launch.warps_per_block, 4);
    }

    #[test]
    fn missing_directive_is_error() {
        let prog = parse_program("void f() { }").unwrap();
        let cm = CompilerModel::new(Compiler::Nvhpc, Model::OpenAcc);
        assert!(compile_kernel(&prog.functions[0], &cm, &HashMap::new()).is_err());
    }

    #[test]
    fn registers_clamped() {
        let src = r#"
void k(double a[64]) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 64; i++) {
    a[i] = 1.0;
  }
}
"#;
        let prog = parse_program(src).unwrap();
        for c in [Compiler::Nvhpc, Compiler::Gcc] {
            let cm = CompilerModel::new(c, Model::OpenAcc);
            let k = compile_kernel(&prog.functions[0], &cm, &HashMap::new()).unwrap();
            assert!(k.launch.regs_per_thread >= 16);
            assert!(k.launch.regs_per_thread <= 255);
        }
    }
}
