//! Ablation benches for the design choices DESIGN.md calls out:
//! extraction algorithm (greedy vs branch-and-bound), rule sets
//! (FMA-only vs COMM/ASSOC-only vs full Table I), cost-model
//! sensitivity (memory cost 10/100/1000), the backoff scheduler, the
//! incumbent refinement stage on the three suite kernels that are
//! sensitive to it, and the e-graph core (saturate / serialize /
//! deserialize) on the three heaviest.

use accsat_egraph::{all_rules, assoc_rules, comm_rules, fma_rules, EGraph, Runner, RunnerLimits};
use accsat_extract::{
    climb, extract_exact, extract_greedy, extract_portfolio, marginal_greedy, CostModel,
    PortfolioConfig, SearchContext,
};
use accsat_ir::parse_program;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

/// One suite kernel, saturated as the pipeline saturates it (full Table I
/// rule set, default limits).
fn saturated_kernel(
    bench: &str,
    function: &str,
) -> (accsat_egraph::EGraph, Vec<accsat_egraph::Id>) {
    let b = accsat_benchmarks::all_benchmarks().into_iter().find(|b| b.name == bench).unwrap();
    let prog = parse_program(&b.acc_source).unwrap();
    let f = prog.function(function).unwrap();
    let body = accsat_ir::innermost_parallel_loops(f)[0].body.clone();
    let mut k = accsat_ssa::build_kernel(&body);
    Runner::new(all_rules()).run(&mut k.egraph);
    let roots = k.extraction_roots();
    (k.egraph, roots)
}

fn saturated_bt() -> (accsat_egraph::EGraph, Vec<accsat_egraph::Id>) {
    saturated_kernel("BT", "bt_zsolve")
}

fn ablation_extract(c: &mut Criterion) {
    let (eg, roots) = saturated_bt();
    let cm = CostModel::paper();
    let mut group = c.benchmark_group("ablation_extract");
    group.sample_size(10);
    group.bench_function("greedy", |b| b.iter(|| extract_greedy(&eg, &roots, &cm)));
    group.bench_function("branch_and_bound_100ms", |b| {
        b.iter(|| extract_exact(&eg, &roots, &cm, Duration::from_millis(100)))
    });
    group.finish();

    // report the cost gap once (printed in bench output)
    let g = extract_greedy(&eg, &roots, &cm).dag_cost(&eg, &cm, &roots);
    let e = extract_exact(&eg, &roots, &cm, Duration::from_millis(100));
    println!("ablation_extract cost: greedy={g} bnb={} optimal={}", e.cost, e.proven_optimal);
}

fn ablation_rules(c: &mut Criterion) {
    let bt = accsat_benchmarks::npb_benchmarks().remove(0);
    let prog = parse_program(&bt.acc_source).unwrap();
    let f = &prog.functions[0];
    let body = accsat_ir::innermost_parallel_loops(f)[0].body.clone();
    let mut group = c.benchmark_group("ablation_rules");
    group.sample_size(10);
    for (name, rules) in [
        ("fma_only", fma_rules()),
        ("comm_assoc_only", {
            let mut r = comm_rules();
            r.extend(assoc_rules());
            r
        }),
        ("full_table1", all_rules()),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &rules, |b, rules| {
            b.iter(|| {
                let mut k = accsat_ssa::build_kernel(&body);
                let limits = RunnerLimits { iter_limit: 6, ..Default::default() };
                Runner::new(rules.clone()).with_limits(limits).run(&mut k.egraph)
            })
        });
    }
    group.finish();
}

fn ablation_cost_model(c: &mut Criterion) {
    let (eg, roots) = saturated_bt();
    let mut group = c.benchmark_group("ablation_cost_model");
    group.sample_size(10);
    for heavy in [10u64, 100, 1000] {
        let cm = CostModel::with_heavy(heavy);
        group.bench_with_input(BenchmarkId::from_parameter(heavy), &cm, |b, cm| {
            b.iter(|| extract_greedy(&eg, &roots, cm))
        });
    }
    group.finish();
}

fn ablation_match_engine(c: &mut Criterion) {
    // the backoff scheduler on and off, saturating the NPB-BT z_solve
    // kernel shape
    let bt = accsat_benchmarks::npb_benchmarks().remove(0);
    let prog = parse_program(&bt.acc_source).unwrap();
    let f = &prog.functions[0];
    let body = accsat_ir::innermost_parallel_loops(f)[0].body.clone();
    let limits = RunnerLimits { iter_limit: 4, ..Default::default() };
    let mut group = c.benchmark_group("ablation_match_engine");
    group.sample_size(10);
    for (name, backoff) in [("compiled_backoff", true), ("compiled_no_backoff", false)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut k = accsat_ssa::build_kernel(&body);
                let mut runner = Runner::new(all_rules()).with_limits(limits);
                if !backoff {
                    runner = runner.with_backoff(None);
                }
                runner.run(&mut k.egraph)
            })
        });
    }
    group.finish();
}

fn refine(c: &mut Criterion) {
    // the refinement layer in isolation — hill climbing from the greedy
    // incumbent, the sequential marginal greedy — and one whole portfolio
    // (greedy → refine → the two-strategy race at the pipeline's 60 k
    // node budget) per kernel, so the share refinement takes of an
    // extraction can be read off one group
    let cm = CostModel::paper();
    let cfg = PortfolioConfig { threads: 2, node_budget: 60_000, ..PortfolioConfig::default() };
    let mut group = c.benchmark_group("refine");
    group.sample_size(10);
    for (bench, function) in [("BT", "bt_zsolve"), ("LU", "lu_jacld"), ("olbm", "lbm_stream")] {
        let (eg, roots) = saturated_kernel(bench, function);
        let cx = SearchContext::build(&eg, &cm);
        let greedy = extract_greedy(&eg, &roots, &cm);
        group.bench_function(BenchmarkId::new("climb", function), |b| {
            b.iter(|| climb(&eg, &cx, &cm, &roots, greedy.clone()))
        });
        group.bench_function(BenchmarkId::new("marginal_greedy", function), |b| {
            b.iter(|| marginal_greedy(&eg, &cx, &cm, &roots))
        });
        group.bench_function(BenchmarkId::new("portfolio", function), |b| {
            b.iter(|| extract_portfolio(&eg, &roots, &cm, &cfg))
        });
    }
    group.finish();
}

fn egraph_core(c: &mut Criterion) {
    // the e-graph's own three operations on the heavy-tail kernels: a
    // saturation run from the SSA-built graph (clone included, as the
    // arena is part of what a clone copies), a snapshot of the saturated
    // graph, and reading it back
    let mut group = c.benchmark_group("egraph_core");
    group.sample_size(10);
    for (bench, function) in [("BT", "bt_zsolve"), ("LU", "lu_jacld"), ("MG", "mg_resid")] {
        let b = accsat_benchmarks::all_benchmarks().into_iter().find(|b| b.name == bench).unwrap();
        let prog = parse_program(&b.acc_source).unwrap();
        let f = prog.function(function).unwrap();
        let fresh = accsat_ssa::build_kernel(&accsat_ir::innermost_parallel_loops(f)[0].body);
        let runner = Runner::new(all_rules());
        group.bench_function(BenchmarkId::new("saturate", function), |b| {
            b.iter(|| {
                let mut eg = fresh.egraph.clone();
                runner.run(&mut eg);
                eg
            })
        });
        let (saturated, _) = saturated_kernel(bench, function);
        group.bench_function(BenchmarkId::new("serialize", function), |b| {
            b.iter(|| saturated.serialize())
        });
        let text = saturated.serialize();
        group.bench_function(BenchmarkId::new("deserialize", function), |b| {
            b.iter(|| EGraph::deserialize(&text).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    egraph_core,
    refine,
    ablation_extract,
    ablation_rules,
    ablation_cost_model,
    ablation_match_engine
);
criterion_main!(benches);
