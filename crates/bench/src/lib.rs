//! `accsat-bench` — the paper's evaluation, reproduced: one function per
//! figure or table of §VII, each returning the text its bin (`src/bin/`,
//! same name) prints.
//!
//! Absolute numbers come from the GPU simulator, so they differ from the
//! paper's A100 wall-clock — the *shape* (which variant wins where, by
//! roughly what factor) is the reproduction target, recorded in
//! EXPERIMENTS.md. Every artifact is deterministic and pinned by
//! `tests/paper_goldens.rs` against `tests/golden/paper/<name>.txt`, so an
//! optimizer change shows up as a diff in the paper's tables. Wall-clock
//! timing of the optimizer itself lives in `perf/`.

use accsat::benchmarks::{all_benchmarks, npb_benchmarks, spec_benchmarks, Benchmark};
use accsat::compilers::{Compiler, CompilerModel};
use accsat::gpusim::Device;
use accsat::ir::{parse_program, Model};
use accsat::report::mean;
use accsat::{
    evaluate_benchmark, format_speedup_row, optimize_program, render_table, speedup, Variant,
};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// One artifact: the full text its bin prints.
pub type Artifact = fn() -> String;

/// Every artifact by bin name, in the paper's order.
pub const ARTIFACTS: [(&str, Artifact); 9] = [
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("stats", stats),
];

/// Run a writer into a fresh `String`.
fn render(write: impl FnOnce(&mut String) -> fmt::Result) -> String {
    let mut out = String::new();
    write(&mut out).expect("writing to a String cannot fail");
    out
}

/// Figure 2: NPB speedups on the A100-PCIE-40GB for CSE, CSE+SAT, CSE+BULK
/// and ACCSAT, under NVHPC and GCC.
pub fn fig2() -> String {
    let panels = [("Figure 2: NPB speedups", Model::OpenAcc, "")];
    speedup_figure(&Device::a100_pcie_40gb(), &npb_benchmarks(), &panels)
}

/// Figure 3: per-kernel speedups of NPB-BT for each variant, with each
/// kernel's share of the original time (the background of the paper's
/// Fig. 3).
pub fn fig3() -> String {
    let dev = Device::a100_pcie_40gb();
    let bt = npb_benchmarks().remove(0);
    render(|out| {
        for compiler in [Compiler::Nvhpc, Compiler::Gcc] {
            let cm = CompilerModel::new(compiler, Model::OpenAcc);
            writeln!(out, "== Figure 3: NPB-BT per-kernel speedups — {} ==", compiler.name())?;
            let orig = evaluate_benchmark(&bt, Variant::Original, &cm, &dev)
                .expect("NPB-BT parses and simulates");
            let total: f64 = orig.kernels.iter().map(|k| k.metrics.time_ms).sum();
            for v in Variant::all() {
                let r = evaluate_benchmark(&bt, v, &cm, &dev).expect("NPB-BT optimizes");
                write!(out, "{:>9}: ", v.label())?;
                for (ko, kv) in orig.kernels.iter().zip(&r.kernels) {
                    let s = ko.metrics.time_ms / kv.metrics.time_ms.max(1e-12);
                    let share = ko.metrics.time_ms / total * 100.0;
                    write!(out, "{}={:.2}x ({:.0}% of time)  ", ko.function, s, share)?;
                }
                writeln!(out)?;
            }
        }
        Ok(())
    })
}

/// Figure 4: SPEC ACCEL speedups on the A100-PCIE-40GB — OpenACC under
/// NVHPC/GCC and OpenMP ("p"-prefixed) under NVHPC/GCC/Clang.
pub fn fig4() -> String {
    let panels = [
        ("Figure 4: SPEC ACCEL (OpenACC)", Model::OpenAcc, ""),
        ("Figure 4: SPEC ACCEL (OpenMP)", Model::OpenMp, "p"),
    ];
    speedup_figure(&Device::a100_pcie_40gb(), &spec_benchmarks(), &panels)
}

/// Figure 5: NPB speedups on the A100-SXM4-80GB (1.31x memory bandwidth).
pub fn fig5() -> String {
    let panels = [("Figure 5: NPB speedups (SXM4)", Model::OpenAcc, "")];
    speedup_figure(&Device::a100_sxm4_80gb(), &npb_benchmarks(), &panels)
}

/// Figure 6: SPEC ACCEL speedups on the A100-SXM4-80GB.
pub fn fig6() -> String {
    let panels = [
        ("Figure 6: SPEC ACCEL (OpenACC, SXM4)", Model::OpenAcc, ""),
        ("Figure 6: SPEC ACCEL (OpenMP, SXM4)", Model::OpenMp, "p"),
    ];
    speedup_figure(&Device::a100_sxm4_80gb(), &spec_benchmarks(), &panels)
}

/// Table II: NPB inventory and original (un-optimized) times under NVHPC
/// and GCC.
pub fn table2() -> String {
    let models = [
        CompilerModel::new(Compiler::Nvhpc, Model::OpenAcc),
        CompilerModel::new(Compiler::Gcc, Model::OpenAcc),
    ];
    let rows = inventory(&npb_benchmarks(), &models);
    let head = ["Name", "Compute", "Access", "Num. Kernels", "NVHPC", "GCC"];
    render(|out| {
        writeln!(out, "Table II: NAS Parallel Benchmarks (simulated original times)")?;
        writeln!(out, "{}", render_table(&head, &rows))
    })
}

/// Table III: SPEC ACCEL inventory and original times for both the OpenACC
/// (NVHPC, GCC) and OpenMP (NVHPC, GCC, Clang) versions.
pub fn table3() -> String {
    let models = [
        CompilerModel::new(Compiler::Nvhpc, Model::OpenAcc),
        CompilerModel::new(Compiler::Gcc, Model::OpenAcc),
        CompilerModel::new(Compiler::Nvhpc, Model::OpenMp),
        CompilerModel::new(Compiler::Gcc, Model::OpenMp),
        CompilerModel::new(Compiler::Clang, Model::OpenMp),
    ];
    let rows = inventory(&spec_benchmarks(), &models);
    let head = [
        "Name",
        "Compute",
        "Access",
        "Kernels",
        "ACC NVHPC",
        "ACC GCC",
        "OMP NVHPC",
        "OMP GCC",
        "OMP Clang",
    ];
    render(|out| {
        writeln!(out, "Table III: SPEC ACCEL (simulated original times)")?;
        writeln!(out, "{}", render_table(&head, &rows))
    })
}

/// Table IV: per-kernel breakdown of NPB-BT — time per launch, executed
/// instructions, memory utilization, registers per thread and SM occupancy
/// for the original and each generated-code variant.
pub fn table4() -> String {
    let dev = Device::a100_pcie_40gb();
    let bt = npb_benchmarks().remove(0);
    let variants: Vec<Variant> = std::iter::once(Variant::Original).chain(Variant::all()).collect();
    let mut header = vec!["Kernel".to_string()];
    for v in &variants {
        for column in ["t/launch", "Minstr", "mem%", "regs", "occ%"] {
            header.push(format!("{} {column}", v.label()));
        }
    }
    let head: Vec<&str> = header.iter().map(String::as_str).collect();
    render(|out| {
        for compiler in [Compiler::Nvhpc, Compiler::Gcc] {
            let cm = CompilerModel::new(compiler, Model::OpenAcc);
            writeln!(out, "Table IV: NPB-BT kernel breakdown — {}", compiler.name())?;
            let mut rows: Vec<Vec<String>> = Vec::new();
            let mut totals = Vec::new();
            for &v in &variants {
                let r = evaluate_benchmark(&bt, v, &cm, &dev).expect("NPB-BT optimizes");
                totals.push(format!("{}={:.2}s", v.label(), r.total_time_s));
                for (i, k) in r.kernels.iter().enumerate() {
                    if rows.len() <= i {
                        rows.push(vec![k.function.clone()]);
                    }
                    let m = &k.metrics;
                    rows[i].extend([
                        format!("{:.4}ms", m.time_ms),
                        format!("{:.2}", m.instructions / 1e6),
                        format!("{:.1}%", m.mem_util * 100.0),
                        format!("{}", m.regs_per_thread),
                        format!("{:.0}%", m.occupancy * 100.0),
                    ]);
                }
            }
            writeln!(out, "{}", render_table(&head, &rows))?;
            writeln!(out, "totals: {}\n", totals.join("  "))?;
        }
        Ok(())
    })
}

/// §VII statistics, the deterministic part: e-graph size and saturation
/// iterations per kernel, the mean e-graph size, and the per-rule match,
/// apply and ban totals of the saturation runner. The two wall-clock means
/// §VII also reports are the `pipeline` spans of this run, which the
/// `stats` bin traces.
pub fn stats() -> String {
    let mut nodes = Vec::new();
    // rule name → (matches, applied, times_banned) across all kernels
    let mut rules: BTreeMap<std::sync::Arc<str>, (usize, usize, usize)> = BTreeMap::new();
    render(|out| {
        writeln!(out, "{:<12} {:>22} {:>10} {:>8}", "benchmark", "kernel", "e-nodes", "iters")?;
        for b in all_benchmarks() {
            let prog = parse_program(&b.acc_source).expect("suite sources parse");
            let (_, stats) =
                optimize_program(&prog, Variant::AccSat).expect("suite kernels optimize");
            for s in &stats {
                let (function, n, iters) = (&s.function, s.egraph_nodes, s.saturation_iters);
                writeln!(out, "{:<12} {function:>22} {n:>10} {iters:>8}", b.name)?;
                nodes.push(n as f64);
                for r in &s.rule_stats {
                    let e = rules.entry(r.name.clone()).or_default();
                    e.0 += r.matches;
                    e.1 += r.applied;
                    e.2 += r.times_banned;
                }
            }
        }
        writeln!(out, "\ne-graph size:           mean {:.0} nodes (limit 10000)", mean(&nodes))?;
        writeln!(out, "\nper-rule totals (all kernels, compiled e-matching engine):")?;
        writeln!(out, "{:<12} {:>10} {:>10} {:>8}", "rule", "matches", "applied", "banned")?;
        for (name, (matches, applied, banned)) in &rules {
            writeln!(out, "{name:<12} {matches:>10} {applied:>10} {banned:>8}")?;
        }
        Ok(())
    })
}

/// One inventory row per benchmark: name, compute and access pattern, the
/// paper's kernel count, then the original time under each compiler model.
fn inventory(benches: &[Benchmark], models: &[CompilerModel]) -> Vec<Vec<String>> {
    let dev = Device::a100_pcie_40gb();
    let mut rows = Vec::new();
    for b in benches {
        let mut row = vec![
            b.name.to_string(),
            b.compute.to_string(),
            b.access.to_string(),
            b.paper_num_kernels.to_string(),
        ];
        for cm in models {
            let t = evaluate_benchmark(b, Variant::Original, cm, &dev)
                .map(|r| format!("{:.2}s", r.total_time_s))
                .unwrap_or_else(|e| e);
            row.push(t);
        }
        rows.push(row);
    }
    rows
}

/// A speedup figure: per panel `(title, model, name prefix)` and per
/// compiler the paper evaluates that model under (§VII), one row of
/// variant speedups over the original per benchmark, then the average.
fn speedup_figure(dev: &Device, benches: &[Benchmark], panels: &[(&str, Model, &str)]) -> String {
    render(|out| {
        for &(title, model, prefix) in panels {
            let compilers: &[Compiler] = match model {
                Model::OpenAcc => &[Compiler::Nvhpc, Compiler::Gcc],
                Model::OpenMp => &[Compiler::Nvhpc, Compiler::Gcc, Compiler::Clang],
            };
            writeln!(out, "== {title} ==  (device: {})", dev.name)?;
            for &compiler in compilers {
                let cm = CompilerModel::new(compiler, model);
                writeln!(out, "-- {} ({model}) --", compiler.name())?;
                let mut per_variant: [Vec<f64>; 4] = Default::default();
                for b in benches {
                    match variant_speedups(b, &cm, dev) {
                        Ok(speedups) => {
                            let name = format!("{prefix}{}", b.name);
                            writeln!(out, "{}", format_speedup_row(&name, &speedups))?;
                            for (acc, (_, s)) in per_variant.iter_mut().zip(speedups) {
                                acc.push(s);
                            }
                        }
                        Err(e) => writeln!(out, "{:>10}: ERROR {e}", b.name)?,
                    }
                }
                let avgs: Vec<String> = Variant::all()
                    .iter()
                    .zip(&per_variant)
                    .map(|(v, s)| format!("{}={:.2}x", v.label(), mean(s)))
                    .collect();
                writeln!(out, "{:>10}:  {}", "average", avgs.join("  "))?;
            }
        }
        Ok(())
    })
}

/// Every variant's speedup over the original for one benchmark.
fn variant_speedups(
    bench: &Benchmark,
    cm: &CompilerModel,
    dev: &Device,
) -> Result<Vec<(&'static str, f64)>, String> {
    let original = evaluate_benchmark(bench, Variant::Original, cm, dev)?;
    Variant::all()
        .into_iter()
        .map(|v| Ok((v.label(), speedup(&original, &evaluate_benchmark(bench, v, cm, dev)?))))
        .collect()
}
