//! Criterion benches of the ACC Saturator pipeline itself — the §VII cost
//! numbers (SSA+codegen ms per kernel, saturation time) measured on every
//! benchmark kernel, one group per evaluation table — plus the saturation
//! throughput of the e-matching engine on the NPB-BT z_solve shape.

use accsat::{optimize_program, Variant};
use accsat_egraph::RunnerLimits;
use accsat_ir::parse_program;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    for bench in accsat_benchmarks::all_benchmarks() {
        let prog = parse_program(&bench.acc_source).unwrap();
        for variant in [Variant::Cse, Variant::AccSat] {
            group.bench_with_input(
                BenchmarkId::new(variant.label(), bench.name),
                &prog,
                |b, prog| b.iter(|| optimize_program(prog, variant).unwrap()),
            );
        }
    }
    group.finish();
}

fn bench_phases(c: &mut Criterion) {
    // phase-by-phase timing on the paper's Listing 2 shape (NPB-BT z_solve)
    let bt = accsat_benchmarks::npb_benchmarks().remove(0);
    let prog = parse_program(&bt.acc_source).unwrap();
    let f = &prog.functions[0];
    let body = accsat_ir::innermost_parallel_loops(f)[0].body.clone();

    let mut group = c.benchmark_group("phases_bt_zsolve");
    group.sample_size(10);
    group.bench_function("ssa_build", |b| b.iter(|| accsat_ssa::build_kernel(&body)));
    group.bench_function("saturation", |b| {
        b.iter(|| {
            let mut k = accsat_ssa::build_kernel(&body);
            accsat_egraph::Runner::new(accsat_egraph::all_rules()).run(&mut k.egraph)
        })
    });
    group.bench_function("extraction", |b| {
        let mut k = accsat_ssa::build_kernel(&body);
        accsat_egraph::Runner::new(accsat_egraph::all_rules()).run(&mut k.egraph);
        let roots = k.extraction_roots();
        let cm = accsat_extract::CostModel::paper();
        b.iter(|| {
            accsat_extract::extract(&k.egraph, &roots, &cm, std::time::Duration::from_millis(500))
        })
    });
    group.finish();
}

fn bench_matcher_engines(c: &mut Criterion) {
    // saturation throughput of the compiled pattern VM (+ op index,
    // dirty-class search, dedup) on the NPB-BT z_solve shape at a fixed
    // iteration budget; divide the reported median by the iteration count
    // for the per-iteration cost. (The seed's tree-walk runner this group
    // once compared against is gone; EXPERIMENTS.md keeps its 2.25×.)
    let bt = accsat_benchmarks::npb_benchmarks().remove(0);
    let prog = parse_program(&bt.acc_source).unwrap();
    let f = &prog.functions[0];
    let body = accsat_ir::innermost_parallel_loops(f)[0].body.clone();
    let limits = RunnerLimits { iter_limit: 4, ..Default::default() };

    let kernel = accsat_ssa::build_kernel(&body);

    let mut group = c.benchmark_group("saturation_engine_bt_zsolve");
    group.sample_size(10);
    group.bench_function("compiled", |b| {
        b.iter(|| {
            // clone the pre-built e-graph so only saturation is timed
            let mut eg = kernel.egraph.clone();
            let report = accsat_egraph::Runner::new(accsat_egraph::all_rules())
                .with_limits(limits)
                .run(&mut eg);
            assert!(!report.iterations.is_empty());
            report
        })
    });
    group.finish();
}

fn bench_saturation_threads(c: &mut Criterion) {
    // scaling of the parallel rule search inside one saturation run, on
    // the NPB-BT z_solve shape. Output is byte-identical at every width
    // (asserted by tests/property_saturation.rs and
    // tests/sat_threads_identity.rs); this group measures the wall-clock
    // side of that contract. On a single-core container the widths tie —
    // record whatever the host shows honestly in EXPERIMENTS.md.
    let bt = accsat_benchmarks::npb_benchmarks().remove(0);
    let prog = parse_program(&bt.acc_source).unwrap();
    let f = &prog.functions[0];
    let body = accsat_ir::innermost_parallel_loops(f)[0].body.clone();
    let limits = RunnerLimits { iter_limit: 4, ..Default::default() };

    let kernel = accsat_ssa::build_kernel(&body);

    let mut group = c.benchmark_group("saturation_threads_bt_zsolve");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &threads| {
            b.iter(|| {
                let mut eg = kernel.egraph.clone();
                let report = accsat_egraph::Runner::new(accsat_egraph::all_rules())
                    .with_limits(limits)
                    .with_sat_threads(threads)
                    .run(&mut eg);
                assert!(!report.iterations.is_empty());
                report
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pipeline,
    bench_phases,
    bench_matcher_engines,
    bench_saturation_threads
);
criterion_main!(benches);
