//! Benchmark evaluation: optimize → compile (per compiler model) →
//! simulate → aggregate, producing the numbers behind every figure/table.

use crate::pipeline::{optimize_program_with, SaturatorConfig, Variant};
use accsat_compilers::{compile_kernel, CompilerModel};
use accsat_gpusim::{run_kernel, Device, KernelMetrics};
use accsat_ir::{parse_program, Model, Program};

/// Simulated result of one kernel under one variant.
#[derive(Debug, Clone)]
pub struct KernelResult {
    pub function: String,
    pub metrics: KernelMetrics,
}

/// Simulated result of one benchmark run.
#[derive(Debug, Clone)]
pub struct BenchmarkResult {
    pub benchmark: String,
    pub variant: Variant,
    pub compiler: CompilerModel,
    pub kernels: Vec<KernelResult>,
    /// Total kernel time for the whole run (launches × per-launch time), s.
    pub total_time_s: f64,
}

/// Evaluate one benchmark under (variant, compiler model, device).
pub fn evaluate_benchmark(
    bench: &accsat_benchmarks::Benchmark,
    variant: Variant,
    cm: &CompilerModel,
    dev: &Device,
) -> Result<BenchmarkResult, String> {
    let src = match cm.model {
        Model::OpenAcc => bench.acc_source.clone(),
        Model::OpenMp => bench.omp_source(),
    };
    let prog = parse_program(&src).map_err(|e| format!("{}: {e}", bench.name))?;
    let config = SaturatorConfig::default();
    let (optimized, _) = optimize_program_with(&prog, variant, &config)?;
    evaluate_program(&optimized, bench, variant, cm, dev)
}

/// Simulate an already-optimized program.
pub(crate) fn evaluate_program(
    prog: &Program,
    bench: &accsat_benchmarks::Benchmark,
    variant: Variant,
    cm: &CompilerModel,
    dev: &Device,
) -> Result<BenchmarkResult, String> {
    let bindings = bench.bindings_map();
    let mut kernels = Vec::new();
    let mut total_ms = 0.0;
    for f in &prog.functions {
        let compiled = compile_kernel(f, cm, &bindings)?;
        let metrics = run_kernel(&compiled.trace, &compiled.launch, dev);
        total_ms += metrics.time_ms * bench.launches as f64;
        kernels.push(KernelResult { function: f.name.clone(), metrics });
    }
    Ok(BenchmarkResult {
        benchmark: bench.name.to_string(),
        variant,
        compiler: *cm,
        kernels,
        total_time_s: total_ms / 1e3,
    })
}

/// Speedup of `variant` over `original` (total benchmark time ratio).
pub fn speedup(original: &BenchmarkResult, variant: &BenchmarkResult) -> f64 {
    if variant.total_time_s <= 0.0 {
        return 1.0;
    }
    original.total_time_s / variant.total_time_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use accsat_compilers::Compiler;

    fn nvhpc_acc() -> CompilerModel {
        CompilerModel::new(Compiler::Nvhpc, Model::OpenAcc)
    }

    fn gcc_acc() -> CompilerModel {
        CompilerModel::new(Compiler::Gcc, Model::OpenAcc)
    }

    #[test]
    fn npb_bt_all_variants_run() {
        let bt = accsat_benchmarks::npb_benchmarks().remove(0);
        let dev = Device::a100_pcie_40gb();
        let orig = evaluate_benchmark(&bt, Variant::Original, &nvhpc_acc(), &dev).unwrap();
        assert!(orig.total_time_s > 0.0);
        for v in Variant::all() {
            let r = evaluate_benchmark(&bt, v, &nvhpc_acc(), &dev).unwrap();
            assert!(r.total_time_s > 0.0, "{v:?}");
            let s = speedup(&orig, &r);
            assert!(s > 0.5 && s < 10.0, "{v:?} speedup {s} out of plausible range");
        }
    }

    #[test]
    fn bulk_load_helps_gcc_bt_most() {
        // the paper's headline: GCC + kernels directive + bulk load ≫ 1
        let bt = accsat_benchmarks::spec_benchmarks().pop().unwrap(); // SPEC bt
        let dev = Device::a100_pcie_40gb();
        let orig = evaluate_benchmark(&bt, Variant::Original, &gcc_acc(), &dev).unwrap();
        let bulk = evaluate_benchmark(&bt, Variant::CseBulk, &gcc_acc(), &dev).unwrap();
        let s = speedup(&orig, &bulk);
        assert!(s > 1.2, "GCC bt CSE+BULK speedup {s} must be well above 1");
    }

    #[test]
    fn accsat_never_hurts_much() {
        // "ACCSAT does not degrade the original performance" (§VIII)
        let dev = Device::a100_pcie_40gb();
        for bench in accsat_benchmarks::npb_benchmarks() {
            let orig = evaluate_benchmark(&bench, Variant::Original, &nvhpc_acc(), &dev).unwrap();
            let acc = evaluate_benchmark(&bench, Variant::AccSat, &nvhpc_acc(), &dev).unwrap();
            let s = speedup(&orig, &acc);
            assert!(s > 0.85, "{}: ACCSAT speedup {s} degrades too much", bench.name);
        }
    }
}
