//! End-to-end byte identity across `--sat-threads`: the full pipeline —
//! parse, SSA, saturation, extraction, codegen, printing — must render
//! exactly the same source and stable report whether the saturation
//! search runs serially, fanned out over 8 threads, or leased down to one
//! thread by an exhausted batch budget. This is the integration-level
//! companion to the runner-level `tests/property_saturation.rs`.

use accsat::batch::{optimize_suite, ParallelConfig};
use accsat::pipeline::{optimize_program_with, SaturatorConfig, Variant};
use accsat::Variant::AccSat;
use accsat_benchmarks::{generate_kernel, npb_benchmarks, GenConfig};
use accsat_egraph::{RunnerLimits, ThreadBudget};
use accsat_ir::{parse_program, print_program};
use std::sync::Arc;
use std::time::Duration;

/// Fast-but-real limits: big enough that saturation iterates and the
/// portfolio searches, small enough for debug-mode CI.
fn fast_config(sat_threads: usize) -> SaturatorConfig {
    SaturatorConfig {
        limits: RunnerLimits { node_limit: 2000, ..Default::default() },
        extraction_node_budget: 10_000,
        extraction_budget: Duration::from_secs(60),
        sat_threads,
        ..Default::default()
    }
}

/// Optimize one source with the given config; return the printed program
/// plus the deterministic halves of the per-kernel stats.
fn run(
    src: &str,
    variant: Variant,
    config: &SaturatorConfig,
) -> (String, Vec<(usize, usize, u64)>) {
    let prog = parse_program(src).expect("source parses");
    let (opt, stats) = optimize_program_with(&prog, variant, config).expect("pipeline runs");
    let fingerprint =
        stats.iter().map(|s| (s.egraph_nodes, s.saturation_iters, s.extracted_cost)).collect();
    (print_program(&opt), fingerprint)
}

/// Single-kernel pipeline: generated kernels of every flavor, optimized
/// at `--sat-threads` 1 and 8, must print byte-identical programs — and
/// attaching a zero-spare thread budget (the worst case the batch pool
/// can inflict) must not move a byte either.
#[test]
fn single_kernel_output_is_byte_identical_across_sat_threads() {
    // seeds chosen to cover the generator's flavors, including the opaque
    // `while_loop` and array-condition shapes
    for seed in [1u64, 2, 3, 11, 42, 77, 123] {
        let gk = generate_kernel(seed, &GenConfig::default());
        let serial = run(&gk.source, AccSat, &fast_config(1));
        let wide = run(&gk.source, AccSat, &fast_config(8));
        assert_eq!(serial, wide, "seed {seed} ({}) diverged at sat-threads 8", gk.flavor);
        let starved = SaturatorConfig {
            thread_budget: Some(Arc::new(ThreadBudget::new(0))),
            ..fast_config(8)
        };
        let budgeted = run(&gk.source, AccSat, &starved);
        assert_eq!(serial, budgeted, "seed {seed} ({}) diverged under a zero budget", gk.flavor);
    }
}

/// Batch pipeline: the CG + EP suite through `optimize_suite` with the
/// full two-level pool (8 workers, 8-way saturation search) renders the
/// same stable JSON and the same optimized sources as the one-thread,
/// serial-search run.
#[test]
fn batch_output_is_byte_identical_across_sat_threads() {
    let suite: Vec<_> =
        npb_benchmarks().into_iter().filter(|b| b.name == "CG" || b.name == "EP").collect();
    let serial = optimize_suite(
        &suite,
        AccSat,
        &fast_config(1),
        &ParallelConfig { threads: 1, kernel_deadline: None, shard: None },
    )
    .expect("serial batch");
    let wide = optimize_suite(
        &suite,
        AccSat,
        &fast_config(8),
        &ParallelConfig { threads: 8, kernel_deadline: None, shard: None },
    )
    .expect("wide batch");
    assert_eq!(serial.to_stable_json(), wide.to_stable_json());
    for (a, b) in serial.benchmarks.iter().zip(&wide.benchmarks) {
        assert_eq!(a.optimized_source, b.optimized_source, "{}", a.benchmark);
    }
}
