//! Differential cold/warm identity: the stage cache must be a wall-clock
//! optimization and nothing else. Every suite kernel and every corpus
//! repro is optimized three ways — no cache, cold cache (filling), warm
//! cache (hitting, through a *fresh* process-like cache instance over the
//! same directory) — and the printed output and stable batch JSON must be
//! byte-for-byte identical. A second family of checks pins the stage
//! *levels*: which config edits degrade a warm hit from `selected` to
//! `saturated` to `parsed`, and which (comment edits, sibling variants)
//! deliberately do not.

use accsat::batch::{optimize_suite, ParallelConfig};
use accsat::{optimize_source, CacheLevel, SaturatorConfig, StageCache, Variant};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Scaled-down limits (the fuzzer's): the identity property holds at any
/// budget, so the test buys coverage of all 19 kernels, not search depth.
fn fast_config(cache: Option<Arc<StageCache>>) -> SaturatorConfig {
    let mut cfg = SaturatorConfig {
        extraction_node_budget: 10_000,
        extraction_budget: Duration::from_secs(600),
        cache,
        ..SaturatorConfig::default()
    };
    cfg.limits.node_limit = 1500;
    cfg.limits.iter_limit = 3;
    cfg.limits.time_limit = Duration::from_secs(600);
    cfg
}

/// A unique scratch directory for an on-disk cache.
fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("accsat-cache-identity-{tag}-{}", std::process::id()))
}

/// All 19 suite kernels through the batch driver: the stable JSON (the CI
/// artifact) must not notice the cache — not when filling it, not when
/// hitting it from a second cache instance reading the same directory —
/// and the warm pass must hit `selected` on every kernel.
#[test]
fn suite_stable_json_is_identical_without_cold_and_warm_cache() {
    let benches = accsat_benchmarks::all_benchmarks();
    let par = ParallelConfig { threads: 1, kernel_deadline: None, shard: None };
    let dir = scratch_dir("suite");

    let plain = optimize_suite(&benches, Variant::AccSat, &fast_config(None), &par).unwrap();

    let cache = Arc::new(StageCache::with_dir(&dir).unwrap());
    let cold = optimize_suite(&benches, Variant::AccSat, &fast_config(Some(cache)), &par).unwrap();

    // a fresh instance over the same directory: everything it knows, it
    // knows from disk — this is the `accsat serve` restart story
    let reopened = Arc::new(StageCache::with_dir(&dir).unwrap());
    let warm =
        optimize_suite(&benches, Variant::AccSat, &fast_config(Some(reopened)), &par).unwrap();

    assert_eq!(plain.to_stable_json(), cold.to_stable_json(), "filling the cache moved the JSON");
    assert_eq!(plain.to_stable_json(), warm.to_stable_json(), "hitting the cache moved the JSON");
    for b in &warm.benchmarks {
        for f in &b.functions {
            for s in &f.stats {
                assert_eq!(
                    s.cache_level,
                    CacheLevel::Selected,
                    "{} {} did not resume from disk",
                    b.benchmark,
                    f.function
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Format migration: a `--cache-dir` filled before the snapshot format was
/// bumped holds `accsat-egraph v1` snapshots. Each must read as a clean
/// miss — not an error, not a guess at the old grammar — be recomputed and
/// overwritten, and leave the stable JSON exactly a cold run's.
#[test]
fn v1_snapshots_in_the_cache_dir_are_misses_recomputed_and_overwritten() {
    let benches = accsat_benchmarks::all_benchmarks();
    let par = ParallelConfig { threads: 1, kernel_deadline: None, shard: None };
    let dir = scratch_dir("v1-migration");
    let run = |dir: &PathBuf| {
        let cache = Arc::new(StageCache::with_dir(dir).unwrap());
        optimize_suite(&benches, Variant::AccSat, &fast_config(Some(cache)), &par).unwrap()
    };
    let levels = |report: &accsat::batch::BatchReport| -> Vec<CacheLevel> {
        let stats = report.benchmarks.iter().flat_map(|b| b.kernel_stats());
        stats.map(|s| s.cache_level).collect()
    };
    let cold = run(&dir);

    // age every saturated entry: same bytes under the previous header
    let mut aged = 0;
    for entry in std::fs::read_dir(dir.join("sat")).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|s| s.to_str()) != Some("entry") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\naccsat-egraph v2\n"), "{}", path.display());
        std::fs::write(&path, text.replacen("\naccsat-egraph v2\n", "\naccsat-egraph v1\n", 1))
            .unwrap();
        aged += 1;
    }
    assert_eq!(aged, 13, "the 19 suite kernels dedupe to 13 distinct bodies");

    let migrated = run(&dir);
    assert_eq!(cold.to_stable_json(), migrated.to_stable_json(), "a v1 cache moved the JSON");
    // the first kernel of each distinct body recomputes from scratch (no
    // `saturated`, no `selected` level off a v1 snapshot); its duplicates
    // then hit the entries it just rewrote
    assert_eq!(levels(&migrated), levels(&cold), "a v1 cache must behave like an empty one");
    assert!(levels(&migrated).contains(&CacheLevel::Miss));

    let warm = run(&dir);
    assert_eq!(cold.to_stable_json(), warm.to_stable_json());
    assert!(levels(&warm).iter().all(|&l| l == CacheLevel::Selected), "entries were overwritten");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fuzzer's minimized corpus repros — kernels that historically broke
/// the pipeline — must print identical bytes cold and warm and resume at
/// the `selected` level.
#[test]
fn corpus_repros_are_identical_cold_and_warm() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    entries.sort();
    let mut checked = 0;
    for path in entries {
        if path.extension().and_then(|s| s.to_str()) != Some("sat") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let cfg = fast_config(Some(Arc::new(StageCache::in_memory())));
        let (cold, _, _) = optimize_source(&src, Variant::AccSat, &cfg)
            .unwrap_or_else(|e| panic!("{}: cold run failed: {e}", path.display()));
        let (warm, _, level) = optimize_source(&src, Variant::AccSat, &cfg)
            .unwrap_or_else(|e| panic!("{}: warm run failed: {e}", path.display()));
        assert_eq!(cold, warm, "{}: warm output drifted", path.display());
        assert_eq!(level, CacheLevel::Selected, "{}: warm run did not resume", path.display());
        checked += 1;
    }
    assert_eq!(checked, 5, "all five corpus repros must be present and checked");
}

/// Stage levels under config edits, pinned on one real kernel: the key
/// schema decides which knobs force recomputation of which stages, and
/// this test is the executable form of that decision table.
#[test]
fn stage_levels_degrade_predictably_under_config_edits() {
    let src = accsat_benchmarks::all_benchmarks()
        .iter()
        .find(|b| b.name == "CG")
        .expect("CG benchmark exists")
        .acc_source
        .clone();
    let cache = Arc::new(StageCache::in_memory());
    let base = fast_config(Some(cache.clone()));

    let (cold_out, _, cold_level) = optimize_source(&src, Variant::AccSat, &base).unwrap();
    assert_eq!(cold_level, CacheLevel::Miss, "first contact must be a miss");

    // identical resubmission: full resume
    let (warm_out, _, warm_level) = optimize_source(&src, Variant::AccSat, &base).unwrap();
    assert_eq!(warm_level, CacheLevel::Selected);
    assert_eq!(cold_out, warm_out);

    // a cost-irrelevant comment edit: the raw bytes miss the parse cache,
    // but the kernel fingerprint is taken over canonical printed IR, so
    // both stage caches still hit — and the output is unchanged
    let commented = format!("/* reviewed 2026-08-08 */\n{src}");
    let (edited_out, _, edited_level) =
        optimize_source(&commented, Variant::AccSat, &base).unwrap();
    assert_eq!(edited_level, CacheLevel::Selected, "comment edits must not evict");
    assert_eq!(cold_out, edited_out);

    // an extraction-only knob: saturation keys unchanged (stage hit), the
    // selection key moves (stage miss) — the run resumes from `saturated`
    let mut sel_moved = base.clone();
    sel_moved.extraction_node_budget = 20_000;
    let (_, _, sel_level) = optimize_source(&src, Variant::AccSat, &sel_moved).unwrap();
    assert_eq!(sel_level, CacheLevel::Saturated);

    // a saturation knob: both stage keys move; only the parse cache (same
    // raw bytes) still hits
    let mut sat_moved = base.clone();
    sat_moved.limits.iter_limit = 2;
    let (_, _, sat_level) = optimize_source(&src, Variant::AccSat, &sat_moved).unwrap();
    assert_eq!(sat_level, CacheLevel::Parsed);

    // sibling variant: CSE+SAT saturates with the same rules and extracts
    // with the same objective — only code generation differs, and codegen
    // is deliberately outside both stage keys, so the warm run resumes at
    // `selected` even though it prints different (bulk-load-free) output
    let (_, _, sibling_level) = optimize_source(&src, Variant::CseSat, &base).unwrap();
    assert_eq!(sibling_level, CacheLevel::Selected, "sibling variants must share stages");
}

/// A well-formed `selected` entry that does not fit its e-graph — what a
/// 64-bit key collision, the name-only rule-set key or a mixed-up
/// `--cache-dir` delivers — must be a clean miss. The two kernels below
/// build e-graphs with the same class ids, so B's selection walks A's
/// e-graph, recomputes to its own claimed cost, and used to lower A's sums
/// of products to B's sums of quotients (level `selected`, no error); only
/// class membership tells them apart. Now A re-extracts from its
/// `saturated` snapshot, prints a cold run's bytes and overwrites the bad
/// entry, in memory and through the entry files of a `--cache-dir`.
#[test]
fn a_selected_entry_of_another_kernel_is_a_miss_and_overwritten() {
    let config = |cache| SaturatorConfig { cache, ..SaturatorConfig::default() };
    let kernel = |stmt: &str| {
        format!(
            "void k(double a[32], double out[32], double c) {{\n  \
             #pragma acc parallel loop gang vector\n  \
             for (int i = 1; i < 31; i++) {{\n    {stmt}\n  }}\n}}\n"
        )
    };
    let a = kernel("out[i] = c * a[i - 1] + c * a[i] + c * a[i + 1];");
    let b = kernel("out[i] = c / a[i - 1] + c / a[i] + c / a[i + 1];");
    let body = |src: &str| {
        let f = accsat_ir::parse_program(src).unwrap().functions.remove(0);
        accsat_ir::innermost_parallel_loops(&f)[0].body.clone()
    };
    let (key_a, key_b) = {
        let cfg = config(None);
        let key = |src: &str| accsat::sel_stage_key(&body(src), Variant::AccSat, &cfg);
        (key(&a), key(&b))
    };
    let (cold, _, _) = optimize_source(&a, Variant::AccSat, &config(None)).unwrap();
    let check = |cfg: &SaturatorConfig, how: &str| {
        let (swapped, _, level) = optimize_source(&a, Variant::AccSat, cfg).unwrap();
        assert_eq!(swapped, cold, "{how}: a foreign selection reached codegen");
        assert_eq!(level, CacheLevel::Saturated, "{how}: only the snapshot may be reused");
        let (again, _, level) = optimize_source(&a, Variant::AccSat, cfg).unwrap();
        assert_eq!(again, cold);
        assert_eq!(level, CacheLevel::Selected, "{how}: the bad entry must be overwritten");
    };

    let cache = Arc::new(StageCache::in_memory());
    let cfg = config(Some(cache.clone()));
    for src in [&a, &b] {
        optimize_source(src, Variant::AccSat, &cfg).unwrap();
    }
    cache.put_sel(key_a, &cache.get_sel(key_b).unwrap());
    check(&cfg, "in memory");

    let dir = scratch_dir("swap");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = config(Some(Arc::new(StageCache::with_dir(&dir).unwrap())));
    for src in [&a, &b] {
        optimize_source(src, Variant::AccSat, &cfg).unwrap();
    }
    let entry = |key: u64| dir.join("sel").join(format!("{key:016x}.entry"));
    std::fs::copy(entry(key_b), entry(key_a)).unwrap();
    // a fresh instance: everything it knows about A's selection is the file
    check(&config(Some(Arc::new(StageCache::with_dir(&dir).unwrap()))), "--cache-dir");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The kernel the tamper tests below fill a cache with, and its output
/// from a run without a cache.
fn tamper_kernel() -> (&'static str, String) {
    let src = "void k(double a[32], double out[32], double c) {\n  \
               #pragma acc parallel loop gang vector\n  \
               for (int i = 1; i < 31; i++) {\n    \
               out[i] = c * a[i - 1] + c * a[i] + c * a[i + 1];\n  }\n}\n";
    let (cold, _, _) = optimize_source(src, Variant::AccSat, &fast_config(None)).unwrap();
    (src, cold)
}

/// `src` through a fresh cache instance over `dir`: its output and level.
fn run_fresh(dir: &std::path::Path, src: &str) -> (String, CacheLevel) {
    let cfg = fast_config(Some(Arc::new(StageCache::with_dir(dir).unwrap())));
    let (out, _, level) = optimize_source(src, Variant::AccSat, &cfg).unwrap();
    (out, level)
}

/// The one `.entry` file of a level directory.
fn only_entry(dir: &std::path::Path, level: &str) -> PathBuf {
    let files: Vec<PathBuf> =
        std::fs::read_dir(dir.join(level)).unwrap().map(|e| e.unwrap().path()).collect();
    assert_eq!(files.len(), 1, "{level}/ holds one entry");
    files.into_iter().next().unwrap()
}

/// One byte flipped in a `saturated` entry's snapshot, anywhere outside
/// its `uf` line, must not reach the output: each flip below turns a
/// section word or the end marker into text the snapshot reader rejects,
/// so a run through a fresh cache instance resumes below `selected`,
/// prints the cold bytes, and overwrites both entries.
#[test]
fn a_flipped_byte_in_a_snapshot_outside_its_uf_line_is_a_lower_level_resume() {
    let (src, cold) = tamper_kernel();
    let dir = scratch_dir("flip");
    let run = || run_fresh(&dir, src);
    for (from, to) in
        [("\narena ", "\narenA "), ("\nclasses ", "\nclasseS "), ("\nend\n", "\nenD\n")]
    {
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(run(), (cold.clone(), CacheLevel::Miss));
        assert_eq!(run(), (cold.clone(), CacheLevel::Selected));
        let path = only_entry(&dir, "sat");
        let text = std::fs::read_to_string(&path).unwrap();
        let uf = text.find("\nuf ").unwrap() + 1;
        let at = text.rfind(from).unwrap();
        assert!(at >= uf + text[uf..].find('\n').unwrap(), "{to:?} is outside the uf line");
        std::fs::write(&path, format!("{}{to}{}", &text[..at], &text[at + from.len()..])).unwrap();
        let (out, level) = run();
        assert_eq!(out, cold, "{to:?}: a flipped snapshot moved the output");
        assert!(level < CacheLevel::Selected, "{to:?}: resumed at {level:?}");
        assert_eq!(run(), (cold.clone(), CacheLevel::Selected), "{to:?}: entries not overwritten");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `selected` hit reports what the cold run measured: every statistic
/// but the cache level — `egraph_nodes` included — on all 19 suite
/// kernels, resumed from the entry files through a fresh cache instance.
#[test]
fn a_selected_hit_reports_the_cold_statistics() {
    let dir = scratch_dir("hit-stats");
    let _ = std::fs::remove_dir_all(&dir);
    let masked = |stats: &[accsat::OptStats]| -> Vec<String> {
        let mask =
            |s: &accsat::OptStats| accsat::OptStats { cache_level: CacheLevel::Miss, ..s.clone() };
        stats.iter().map(|s| format!("{:?}", mask(s))).collect()
    };
    let mut kernels = 0;
    for b in accsat_benchmarks::all_benchmarks() {
        let src = &b.acc_source;
        let (cold, cold_stats, _) =
            optimize_source(src, Variant::AccSat, &fast_config(None)).unwrap();
        let fill = fast_config(Some(Arc::new(StageCache::with_dir(&dir).unwrap())));
        optimize_source(src, Variant::AccSat, &fill).unwrap();
        let warm_cfg = fast_config(Some(Arc::new(StageCache::with_dir(&dir).unwrap())));
        let (warm, warm_stats, level) = optimize_source(src, Variant::AccSat, &warm_cfg).unwrap();
        assert_eq!((warm, level), (cold, CacheLevel::Selected), "{}", b.name);
        assert_eq!(masked(&warm_stats), masked(&cold_stats), "{}", b.name);
        let nodes = |s: &[accsat::OptStats]| s.iter().map(|s| s.egraph_nodes).collect::<Vec<_>>();
        assert_eq!(nodes(&warm_stats), nodes(&cold_stats), "{}", b.name);
        kernels += warm_stats.len();
    }
    assert_eq!(kernels, 19);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A selection without a seal (`accsat-selection v1`, what every entry
/// held before selections were sealed) cannot vouch for its snapshot: it
/// is a miss, the run re-extracts from the `saturated` level, prints the
/// cold bytes and overwrites the entry with a sealed one.
#[test]
fn an_unsealed_selection_is_a_miss_and_overwritten() {
    let (src, cold) = tamper_kernel();
    let dir = scratch_dir("unsealed");
    let _ = std::fs::remove_dir_all(&dir);
    let run = || run_fresh(&dir, src);
    assert_eq!(run(), (cold.clone(), CacheLevel::Miss));
    let path = only_entry(&dir, "sel");
    let text = std::fs::read_to_string(&path).unwrap();
    let (head, selection) = text.split_once("selection\n").unwrap();
    let unsealed = accsat::extract::Selection::deserialize(selection).unwrap().serialize();
    assert!(unsealed.starts_with("accsat-selection v1 "), "{unsealed}");
    std::fs::write(&path, format!("{head}selection\n{unsealed}")).unwrap();
    assert_eq!(run(), (cold.clone(), CacheLevel::Saturated), "an unsealed selection was trusted");
    assert!(std::fs::read_to_string(&path).unwrap().contains("\naccsat-selection v2 "));
    assert_eq!(run(), (cold, CacheLevel::Selected), "the entry was not overwritten");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot whose `nodes` line was edited is well formed and restores,
/// and the selection still walks it: the walk alone cannot tell. The seal
/// can — the selection was sealed to other bytes — so the hit is refused
/// and the kernel re-extracts from the `saturated` level.
#[test]
fn a_well_formed_edit_of_the_snapshot_breaks_the_seal() {
    let (src, cold) = tamper_kernel();
    let dir = scratch_dir("reseal");
    let _ = std::fs::remove_dir_all(&dir);
    let run = || run_fresh(&dir, src);
    assert_eq!(run(), (cold.clone(), CacheLevel::Miss));
    let path = only_entry(&dir, "sat");
    let text = std::fs::read_to_string(&path).unwrap();
    let at = text.find("\nnodes ").unwrap() + "\nnodes ".len();
    let digit = match text.as_bytes()[at] {
        b'9' => '8',
        d => char::from(d + 1),
    };
    std::fs::write(&path, format!("{}{digit}{}", &text[..at], &text[at + 1..])).unwrap();
    let (out, level) = run();
    assert_eq!((out, level), (cold, CacheLevel::Saturated), "the edited snapshot was trusted");
    let _ = std::fs::remove_dir_all(&dir);
}
