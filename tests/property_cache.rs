//! Property tests for the content-addressed stage cache and the e-graph
//! snapshot format behind it: a saturated e-graph serialized to text,
//! deserialized, and saturated *again* must be indistinguishable from one
//! that never left memory, and a warm (cache-resumed) pipeline run must
//! render byte-identical output at the `selected` stage level.
//!
//! Kernels come from the fuzzer's [`accsat_benchmarks::genkern`]
//! generator, so the properties range over every flavor the differential
//! campaigns exercise — loop nests, φ-inducing conditionals, opaque
//! `while` loops — not just straight-line stencils.
//!
//! Failing seeds persist to `proptest-regressions/property_cache.txt` and
//! re-run first on every test execution.

mod common;

use accsat::{optimize_source, CacheLevel, SaturatorConfig, StageCache, Variant};
use accsat_benchmarks::genkern::{generate_kernel, GenConfig, SplitMix64};
use accsat_egraph::{all_rules, EGraph, Node, Runner, RunnerLimits};
use accsat_ir::parse_program;
use accsat_ssa::build_kernel;
use proptest::prelude::*;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// The fuzzer's scaled-down limits: big enough to rewrite, small enough
/// to keep hundreds of property cases fast.
fn small_limits() -> RunnerLimits {
    RunnerLimits { node_limit: 1500, iter_limit: 3, ..RunnerLimits::default() }
}

/// A pipeline config with the same scaled-down limits, optionally caching.
fn small_config(cache: Option<Arc<StageCache>>) -> SaturatorConfig {
    SaturatorConfig {
        limits: small_limits(),
        extraction_node_budget: 10_000,
        extraction_budget: Duration::from_secs(60),
        cache,
        ..SaturatorConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Serialize → deserialize → re-saturate: the snapshot format is the
    /// resume mechanism of the stage cache, so a deserialized e-graph must
    /// (a) be state-equal to the original, (b) re-serialize to the same
    /// bytes (the format is a fixpoint, not merely an inverse), and
    /// (c) saturate onward to exactly the bytes the in-memory graph
    /// reaches — resuming from a snapshot is indistinguishable from never
    /// having paused.
    #[test]
    fn saturated_egraph_roundtrips_and_resaturates(seed in 0u64..u64::MAX) {
        let gk = generate_kernel(seed, &GenConfig::default());
        let prog = parse_program(&gk.source).unwrap();
        let mut kernel = build_kernel(&prog.functions[0].body);
        let runner = Runner::new(all_rules()).with_limits(small_limits());
        runner.run(&mut kernel.egraph);

        let snapshot = kernel.egraph.serialize();
        let mut resumed = EGraph::deserialize(&snapshot)
            .map_err(|e| TestCaseError::fail(format!("deserialize failed: {e}")))?;
        prop_assert!(resumed.state_eq(&kernel.egraph), "snapshot is not state-equal");
        prop_assert_eq!(resumed.serialize(), snapshot);

        // resume saturation on both graphs with a fresh budget each
        runner.run(&mut kernel.egraph);
        runner.run(&mut resumed);
        // resumed saturation must not diverge from the in-memory graph
        prop_assert_eq!(resumed.serialize(), kernel.egraph.serialize());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cold run without a cache, cold run that *fills* a cache, and warm
    /// run that *hits* it must all print the same bytes — and the warm
    /// run must report the `selected` level, i.e. actually skip
    /// saturation and extraction rather than silently recompute.
    #[test]
    fn warm_pipeline_run_is_byte_identical_and_selected(seed in 0u64..u64::MAX) {
        let gk = generate_kernel(seed, &GenConfig::default());
        let uncached = optimize_source(&gk.source, Variant::AccSat, &small_config(None));
        let cfg = small_config(Some(Arc::new(StageCache::in_memory())));
        let cold = optimize_source(&gk.source, Variant::AccSat, &cfg);
        let warm = optimize_source(&gk.source, Variant::AccSat, &cfg);
        match (uncached, cold, warm) {
            (Ok((plain, _, _)), Ok((cold_out, _, _)), Ok((warm_out, stats, level))) => {
                prop_assert_eq!(&cold_out, &plain);
                prop_assert_eq!(&warm_out, &plain);
                prop_assert_eq!(level, CacheLevel::Selected);
                for s in &stats {
                    prop_assert_eq!(s.cache_level, CacheLevel::Selected);
                }
            }
            // a kernel the pipeline rejects must be rejected identically
            // cold and warm (and never differently with a cache attached)
            (Err(a), Err(b), Err(c)) => {
                prop_assert_eq!(&a, &b);
                prop_assert_eq!(&a, &c);
            }
            (u, c, w) => {
                return Err(TestCaseError::fail(format!(
                    "cache changed success: uncached {:?} cold {:?} warm {:?}",
                    u.is_ok(), c.is_ok(), w.is_ok()
                )));
            }
        }
    }
}

/// The saturated snapshot of every suite kernel (paper limits).
fn suite_snapshots() -> Vec<(String, String)> {
    let saturated = |(name, mut kernel): (String, accsat_ssa::SsaKernel)| {
        Runner::new(all_rules()).run(&mut kernel.egraph);
        (name, kernel.egraph.serialize())
    };
    common::suite_kernels().into_iter().map(saturated).collect()
}

/// One seeded corruption of `text`: a truncation, a flipped bit (kept
/// inside ASCII so the result is still a `&str`), or a run of digits
/// spliced over a random position — the last is what turns a count or an
/// id into a different, often enormous, number.
fn mutate(text: &str, rng: &mut SplitMix64) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let at = rng.below(bytes.len() as u64) as usize;
    match rng.below(3) {
        0 => bytes.truncate(at),
        1 => bytes[at] ^= 1 << rng.below(7),
        _ => {
            let digits: Vec<u8> =
                (0..1 + rng.below(20)).map(|_| b'0' + rng.below(10) as u8).collect();
            let end = (at + rng.below(3) as usize).min(bytes.len());
            bytes.splice(at..end, digits);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A cache directory is outside input: whatever happens to a snapshot on
/// disk, reading it back is an `Err` (a cache miss) or a graph the engine
/// can run on — never a panic, an abort on a giant allocation, or a
/// `find` that does not return. Three kinds of seeded damage over the
/// real snapshots of all 19 suite kernels.
#[test]
fn corrupted_suite_snapshots_are_errors_or_valid_graphs() {
    let snapshots = suite_snapshots();
    assert_eq!(snapshots.len(), 19);
    let mut rng = SplitMix64::new(0x5eed_cafe);
    let (mut rejected, mut accepted) = (0, 0);
    for (name, text) in &snapshots {
        let intact = EGraph::deserialize(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        intact.check_invariants();
        for _ in 0..120 {
            let mutant = mutate(text, &mut rng);
            match EGraph::deserialize(&mutant) {
                Err(_) => rejected += 1,
                Ok(mut eg) => {
                    // (a mutant that is merely *dirty* is repaired first,
                    // as any user of a snapshot with work pending would)
                    eg.rebuild();
                    eg.check_invariants();
                    let _ = eg.serialize();
                    accepted += 1;
                }
            }
        }
    }
    // most damage is detectable; some lands where any value is a valid one
    // (a child id swapped for another live id, a counter's digits)
    assert!(rejected > 10 * accepted.max(1), "rejected {rejected}, accepted {accepted}");
}

/// Reading a snapshot costs time in proportion to its size, however wide
/// its classes are. N distinct symbol leaves unioned into one class is a
/// legitimate graph whose one class holds N operators; the reader's
/// invariant check once scanned that run for every node, so restoring it
/// was O(N²) — at N = 200 000 over a minute in a debug build. A watchdog
/// thread turns a regression into a failure instead of a stalled suite.
#[test]
fn a_class_of_many_distinct_leaves_restores_within_the_watchdog() {
    const N: usize = 200_000;
    let mut eg = EGraph::new();
    let first = eg.add(Node::sym("v0"));
    for i in 1..N {
        let leaf = eg.add(Node::sym(&format!("v{i}")));
        eg.union(first, leaf);
    }
    eg.rebuild();
    assert_eq!(eg.num_classes(), 1);
    let text = eg.serialize();
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let restored = EGraph::deserialize(&text).map(|g| g.num_classes());
        let _ = done.send(());
        restored
    });
    let waited = finished.recv_timeout(Duration::from_secs(60));
    assert!(waited != Err(RecvTimeoutError::Timeout), "restore outlived the 60 s watchdog");
    assert_eq!(worker.join().expect("restore thread panicked"), Ok(1));
}
