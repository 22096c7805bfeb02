//! Untimed correctness checks and the quality of the generated code.
//!
//! The reference for every output is the interpreter (`accsat::interp`)
//! run on the *original* source with seeded inputs — never the optimizer.
//! The GPU simulator supplies the paper's headline (run time of the
//! generated code), so "more optimization" is always reported beside what
//! it cost to compile.

use crate::inputs;
use crate::json::Json;
use crate::replay::{Counts, SourceOutcome, VARIANT};
use crate::spans::Recorder;
use accsat::benchmarks::{Benchmark, GeneratedKernel, SplitMix64};
use accsat::compilers::{compile_kernel, Compiler, CompilerModel};
use accsat::gpusim::{run_kernel, Device};
use accsat::interp::{compare_arrays, compare_arrays_with, run_function, try_run_function, Env};
use accsat::ir::{parse_program, Function, Model, Program};
use accsat::{check_kernel, FuzzConfig, SaturatorConfig};
use std::collections::BTreeMap;

/// Everything the untimed phase produces.
pub struct Report {
    /// Checks made and failed, on top of the operations of the timed passes.
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, printed with the result.
    pub notes: Vec<String>,
    /// Deterministic results: code quality and simulated run time.
    pub exact: BTreeMap<&'static str, f64>,
    /// One row per suite benchmark.
    pub rows: Vec<Json>,
    /// Spans and counters of the verification layers (`interp`,
    /// `compilers`, `gpusim`).
    pub rec: Recorder,
    pub counts: Counts,
}

impl Report {
    pub fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            exact: BTreeMap::new(),
            rows: Vec::new(),
            rec: Recorder::new(),
            counts: Counts::default(),
        }
    }

    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(note());
            }
        }
    }

    fn differential(&mut self, what: &str, outcome: Result<(), String>) {
        self.counts.add("interp.kernels_checked", 1);
        if outcome.is_err() {
            self.counts.add("interp.mismatches", 1);
        }
        self.check(outcome.is_ok(), || format!("{what}: {}", outcome.unwrap_err()));
    }
}

/// The generated-kernel tolerance of `accsat fuzz`: saturation
/// reassociates under fast-math semantics, a miscompile is an O(1) error.
const GEN_TOL: f64 = 1e-5;
const GEN_FUEL: u64 = 100_000;

fn single_function(text: &str) -> Result<Function, String> {
    let mut prog = parse_program(text).map_err(|e| format!("output does not parse: {e}"))?;
    if prog.functions.len() != 1 {
        return Err(format!("expected one function, found {}", prog.functions.len()));
    }
    Ok(prog.functions.remove(0))
}

fn run_generated(f: &Function, env: &Env) -> Result<Env, String> {
    let mut env = env.clone();
    try_run_function(f, &mut env, GEN_FUEL).map_err(|e| e.to_string())?;
    Ok(env)
}

/// Interpreter differential of one generated kernel: the optimized text
/// against its original, on inputs drawn from `rng`.
pub fn generated(report: &mut Report, k: &GeneratedKernel, optimized: &str, rng: &mut SplitMix64) {
    let env = inputs::kernel_env(k, rng);
    let outcome = report.rec.leaf("interp.verify", || -> Result<(), String> {
        let original = single_function(&k.source)?;
        let want = run_generated(&original, &env).map_err(|e| format!("original run: {e}"))?;
        let got = run_generated(&single_function(optimized)?, &env)
            .map_err(|e| format!("optimized run: {e}"))?;
        match compare_arrays_with(&want, &got, GEN_TOL, GEN_TOL) {
            Some((arr, i, x, y)) => Err(format!("{arr}[{i}]: original {x:?}, optimized {y:?}")),
            None => Ok(()),
        }
    });
    report.differential(&format!("seed {:#x} ({})", k.seed, k.flavor), outcome);
}

/// `fuzz::check_kernel` on one generated kernel under the default
/// pipeline configuration: structural invariants (cost recomputes, bound
/// below cost, total acyclic selection, printer fixpoint) plus its own
/// differential.
pub fn fuzz_oracles(report: &mut Report, k: &GeneratedKernel, rng: &mut SplitMix64) {
    let fc = FuzzConfig { saturator: SaturatorConfig::default(), ..FuzzConfig::default() };
    let env = inputs::kernel_env(k, rng);
    let outcome =
        single_function(&k.source).and_then(|f| check_kernel(&f, &env, &fc, Some(VARIANT)));
    let note = || match &outcome {
        Ok(findings) => {
            let f = &findings[0];
            format!("seed {:#x}: {} — {}", k.seed, f.invariant, f.detail)
        }
        Err(e) => format!("seed {:#x}: {e}", k.seed),
    };
    report.check(matches!(&outcome, Ok(f) if f.is_empty()), note);
}

fn run_program(prog: &Program, env: &Env) -> Result<Env, String> {
    let mut env = env.clone();
    for f in &prog.functions {
        run_function(f, &mut env).map_err(|e| format!("{}: {e}", f.name))?;
    }
    Ok(env)
}

/// Simulated whole-run time of a program in seconds under the NVHPC
/// OpenACC compiler model on the A100 device model, plus the dynamic
/// instruction count; compile and simulation are spanned separately.
fn simulate(prog: &Program, bench: &Benchmark, rec: &mut Recorder) -> Result<(f64, f64), String> {
    let cm = CompilerModel::new(Compiler::Nvhpc, Model::OpenAcc);
    let dev = Device::a100_pcie_40gb();
    let bindings = bench.bindings_map();
    let (mut total_ms, mut insts) = (0.0, 0.0);
    for f in &prog.functions {
        let compiled = rec.leaf("compilers.compile", || compile_kernel(f, &cm, &bindings))?;
        let m = rec.leaf("gpusim.run", || run_kernel(&compiled.trace, &compiled.launch, &dev));
        total_ms += m.time_ms * bench.launches as f64;
        insts += m.instructions;
    }
    Ok((total_ms / 1e3, insts))
}

/// Check and score one pass over the evaluation suite: interpreter
/// differential per benchmark, §V-B static cost and certified bound gap,
/// and the simulated Original/AccSat speedup with its geometric mean.
pub fn suite(report: &mut Report, suite: &[Benchmark], outputs: &[SourceOutcome], seed: u64) {
    let mut rng = inputs::stream(seed, "suite-env");
    let (mut cost, mut gap, mut kernels, mut proven) = (0, 0, 0, 0);
    let (mut log_sum, mut ms_orig, mut ms_acc, mut insts_acc) = (0.0, 0.0, 0.0, 0.0);
    for (bench, out) in suite.iter().zip(outputs) {
        let original = parse_program(&bench.acc_source).expect("suite sources parse");
        let optimized = match parse_program(&out.text) {
            Ok(p) => p,
            Err(e) => {
                report.check(false, || format!("{}: output does not parse: {e}", bench.name));
                continue;
            }
        };
        let env = inputs::suite_env(&original, bench, &mut rng);
        let outcome = report.rec.leaf("interp.verify", || -> Result<(), String> {
            let want = run_program(&original, &env).map_err(|e| format!("original run: {e}"))?;
            let got = run_program(&optimized, &env).map_err(|e| format!("optimized run: {e}"))?;
            match compare_arrays(&want, &got, 1e-6) {
                Some((arr, i, x, y)) => Err(format!("{arr}[{i}]: original {x}, optimized {y}")),
                None => Ok(()),
            }
        });
        report.differential(bench.name, outcome);

        let b_cost: u64 = out.kernels.iter().map(|k| k.cost).sum();
        let b_gap: u64 = out.kernels.iter().map(|k| k.cost.saturating_sub(k.lower_bound)).sum();
        let b_proven = out.kernels.iter().filter(|k| k.proven).count();
        cost += b_cost;
        gap += b_gap;
        kernels += out.kernels.len();
        proven += b_proven;

        let sim = simulate(&original, bench, &mut report.rec)
            .and_then(|o| Ok((o, simulate(&optimized, bench, &mut report.rec)?)));
        let Ok(((t_orig, _), (t_acc, insts))) = sim else {
            report.check(false, || {
                format!("{}: simulation failed: {}", bench.name, sim.unwrap_err())
            });
            continue;
        };
        let speedup = t_orig / t_acc;
        log_sum += speedup.ln();
        ms_orig += t_orig * 1e3;
        ms_acc += t_acc * 1e3;
        insts_acc += insts;
        report.rows.push(Json::obj(vec![
            ("benchmark", Json::str(bench.name)),
            ("kernels", Json::Num(out.kernels.len() as f64)),
            ("proven", Json::Num(b_proven as f64)),
            ("static_cost", Json::Num(b_cost as f64)),
            ("bound_gap", Json::Num(b_gap as f64)),
            ("sim_original_s", Json::Num(t_orig)),
            ("sim_accsat_s", Json::Num(t_acc)),
            ("sim_speedup", Json::Num(speedup)),
        ]));
    }
    report.exact.insert("static_cost", cost as f64);
    report.exact.insert("bound_gap", gap as f64);
    report.exact.insert("kernels", kernels as f64);
    report.exact.insert("proven", proven as f64);
    report.exact.insert("sim_speedup_geomean", (log_sum / suite.len() as f64).exp());
    report.exact.insert("gpusim.time_ms_original", ms_orig);
    report.exact.insert("gpusim.time_ms_accsat", ms_acc);
    report.exact.insert("gpusim.insts_accsat", insts_acc);
}

/// Static cost over generated kernels' outcomes.
pub fn static_cost(report: &mut Report, outputs: &[SourceOutcome]) {
    let cost: u64 = outputs.iter().flat_map(|o| &o.kernels).map(|k| k.cost).sum();
    report.exact.insert("static_cost", cost as f64);
}
