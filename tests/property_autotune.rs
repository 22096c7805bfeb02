//! Property-based tests for the simulation-guided autotuner: the tuned
//! winner must never lose the simulation it won, the static winner must
//! be the static-cost argmin, and the whole tuning report must be
//! byte-identical at any thread count — the same determinism contract the
//! batch driver keeps.
//!
//! Failing seeds persist to `proptest-regressions/property_autotune.txt`
//! and re-run first on every execution.

use accsat::autotune::TuneConfig;
use accsat::batch::{tune_suite, ParallelConfig};
use accsat::fuzz::check_seeded;
use accsat::{tune_function, FuzzConfig, SaturatorConfig, Variant};
use accsat_benchmarks::genkern::{generate_kernel, GenConfig};
use accsat_egraph::RunnerLimits;
use accsat_ir::parse_program;
use proptest::prelude::*;
use std::collections::HashMap;
use std::time::Duration;

/// The kernels under test: the fuzzer's seeded generator, every flavor
/// (stencils, φ-joins, sequential and `while` loops, 2-D nests).
fn generated_function(seed: u64) -> accsat_ir::Function {
    let gk = generate_kernel(seed, &GenConfig::default());
    parse_program(&gk.source).unwrap().functions.remove(0)
}

/// Small, fully deterministic limits so debug-build property runs stay
/// fast: the node budget binds, never the wall clock.
fn fast_config() -> SaturatorConfig {
    SaturatorConfig {
        limits: RunnerLimits { node_limit: 1500, iter_limit: 3, ..Default::default() },
        extraction_node_budget: 10_000,
        extraction_budget: Duration::from_secs(60),
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tuner's core contract: the winner has minimal simulated cycles
    /// over every simulated candidate — including the static-cost winner
    /// — with the documented deterministic tie-break, and the reported
    /// static winner really is the static-cost argmin.
    #[test]
    fn winner_minimizes_simulated_cycles(seed in 0u64..u64::MAX) {
        let (_, stats) = tune_function(
            &generated_function(seed),
            Variant::AccSat,
            &fast_config(),
            &TuneConfig::default(),
            &HashMap::new(),
        ).unwrap();
        prop_assert!(stats.len() == 1);
        let t = stats[0].tuning.as_ref().expect("tuning recorded");
        prop_assert!(t.winner < t.candidates.len());
        prop_assert!(t.static_winner < t.candidates.len());
        let win = t.winning();
        for (ci, c) in t.candidates.iter().enumerate() {
            prop_assert!(win.cycles <= c.cycles,
                "winner {} cycles {} lost to `{}` with {}",
                win.label, win.cycles, c.label, c.cycles);
            // the tie-break is (cycles, static_cost, index): nothing with
            // equal cycles may beat the winner on static cost
            if ci != t.winner && c.cycles == win.cycles {
                prop_assert!(
                    (win.static_cost, t.winner) < (c.static_cost, ci),
                    "tie-break violated: `{}` ({}, {}) vs winner `{}` ({}, {})",
                    c.label, c.cycles, c.static_cost, win.label, win.cycles, win.static_cost);
            }
            prop_assert!(t.static_winning().static_cost <= c.static_cost);
        }
        // content hashes are pairwise distinct after dedup
        for i in 0..t.candidates.len() {
            for j in i + 1..t.candidates.len() {
                prop_assert!(t.candidates[i].content_hash != t.candidates[j].content_hash);
            }
        }
    }

    /// Thread counts must never leak into the result: the winning body,
    /// every candidate row, and both verdict indices are identical
    /// whether candidates are simulated sequentially or on 8 workers.
    #[test]
    fn tuning_is_thread_count_invariant(seed in 0u64..u64::MAX) {
        let f = generated_function(seed);
        let cfg = fast_config();
        let run = |threads: usize| {
            let tcfg = TuneConfig { threads, ..TuneConfig::default() };
            tune_function(&f, Variant::AccSat, &cfg, &tcfg, &HashMap::new()).unwrap()
        };
        let (f1, s1) = run(1);
        for threads in [2usize, 8] {
            let (fn_, sn) = run(threads);
            prop_assert!(
                accsat_ir::print_program(&accsat_ir::Program { functions: vec![fn_.clone()] })
                    == accsat_ir::print_program(&accsat_ir::Program { functions: vec![f1.clone()] }),
                "threads={} produced a different tuned function", threads);
            let (t1, tn) = (s1[0].tuning.as_ref().unwrap(), sn[0].tuning.as_ref().unwrap());
            prop_assert!(t1.winner == tn.winner && t1.static_winner == tn.static_winner);
            prop_assert!(t1.candidates.len() == tn.candidates.len());
            for (a, b) in t1.candidates.iter().zip(&tn.candidates) {
                prop_assert!(a.label == b.label);
                prop_assert!(a.cycles == b.cycles);
                prop_assert!(a.static_cost == b.static_cost);
                prop_assert!(a.content_hash == b.content_hash);
            }
        }
    }
}

/// Case seeds of campaign seed 7 that miscompiled before the
/// conditional-store φ fix in `accsat_ssa::builder` (cases 4, 26, 120,
/// 188) — pinned so every property run re-checks them alongside fresh
/// random seeds.
fn fuzz_seed_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0xb4a0472e578069ae_u64),
        Just(0x373decca84a1ebd4_u64),
        Just(0x8bf61c3e4e43959c_u64),
        Just(0x87232a5b0144f7bb_u64),
        1u64..u64::MAX,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every generated kernel must clear all fuzz oracles — the
    /// interpreter differential across the four variants plus the
    /// structural extraction invariants — on the regression seeds and on
    /// arbitrary ones.
    #[test]
    fn fuzz_oracles_hold_on_seeded_kernels(seed in fuzz_seed_strategy()) {
        let outcome = check_seeded(0, seed, &FuzzConfig::default());
        prop_assert!(outcome.skipped.is_none(),
            "seed {seed:#018x} skipped: {:?}", outcome.skipped);
        prop_assert!(outcome.findings.is_empty(),
            "seed {seed:#018x} failed: {:?}", outcome.findings);
    }
}

/// The batch-level mirror of `parallel_equals_sequential_byte_for_byte`:
/// a tuned suite renders byte-identical tables, JSON and sources at any
/// thread count.
#[test]
fn tuned_suite_is_byte_identical_across_thread_counts() {
    let suite: Vec<_> = accsat_benchmarks::npb_benchmarks()
        .into_iter()
        .filter(|b| b.name == "SP" || b.name == "MG")
        .collect();
    let cfg = fast_config();
    let tcfg = TuneConfig::default();
    let run = |threads| {
        tune_suite(
            &suite,
            Variant::AccSat,
            &cfg,
            &tcfg,
            &ParallelConfig { threads, kernel_deadline: None, shard: None },
        )
        .unwrap()
    };
    let base = run(1);
    for threads in [2, 8] {
        let other = run(threads);
        assert_eq!(base.render_tuning_table(), other.render_tuning_table(), "threads={threads}");
        assert_eq!(base.to_stable_json(), other.to_stable_json(), "threads={threads}");
        for (a, b) in base.benchmarks.iter().zip(&other.benchmarks) {
            assert_eq!(a.optimized_source, b.optimized_source, "{}", a.benchmark);
        }
    }
}
