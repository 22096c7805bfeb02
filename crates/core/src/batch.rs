//! Parallel batch optimization driver: the full pipeline over every kernel
//! of a benchmark suite, fanned out over worker threads.
//!
//! The paper's evaluation (§VIII) sweeps every NPB and SPEC ACCEL kernel,
//! yet the pipeline itself optimizes one kernel at a time. This module
//! closes that gap: [`optimize_suite`] parses every benchmark, flattens the
//! suite into per-function work items, and drains them from a shared queue
//! with one [`accsat_egraph::pool::map_slots`] fan-out. The compiled
//! rewrite rules live in one `Arc` ([`SaturatorConfig::rules`]) shared by
//! every worker — rules are compiled once per batch, not once per kernel.
//! The batch runs `min(threads, items)` workers; each kernel's saturation,
//! extraction and tuning run on the worker that took it.
//!
//! # Determinism
//!
//! A batch run's report depends only on the inputs and the configuration,
//! not on scheduling: work items come back in item order (never in
//! completion order), every kernel is optimized by the exact same code
//! path a sequential run uses, and the per-kernel extraction portfolio is
//! deterministic by construction (see [`accsat_extract::PortfolioResult`]). So
//! `threads = 8` and `threads = 1` produce byte-identical optimized
//! sources, selections and costs — parallelism only changes the wall
//! clock. (The wall-clock safety valves — saturation time limit,
//! extraction deadline, per-kernel deadline — are generous defaults that
//! do not bind at benchmark sizes; a run that does hit one falls back to
//! sound-but-unproven results.)

use crate::metrics::add_opt_stats;
use crate::pipeline::{
    optimize_function, panic_message, tune_function, OptStats, SaturatorConfig, Variant,
};
use accsat_autotune::TuneConfig;
use accsat_benchmarks::Benchmark;
use accsat_ir::{parse_program, print_program, Program};
use accsat_obs::{escape_json, trace, MetricsRegistry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Thread-pool configuration for a batch run.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Worker threads draining the kernel queue. `1` runs the suite
    /// sequentially on the calling thread (same results, more wall clock).
    pub threads: usize,
    /// Optional per-kernel wall-clock deadline. Split between saturation
    /// and extraction in the paper's 10 s : 30 s proportion; clamps the
    /// corresponding limits in the per-kernel [`SaturatorConfig`].
    pub kernel_deadline: Option<Duration>,
    /// Deterministic multi-process sharding: `Some((i, n))` makes this run
    /// process only the work items (functions) whose suite-order index is
    /// ≡ i (mod n). Independent processes running shards `0/n … (n-1)/n`
    /// together cover the suite exactly once, and because per-kernel
    /// results depend only on inputs and configuration, their JSON reports
    /// merge by simple concatenation of the per-benchmark kernel lists.
    pub shard: Option<(usize, usize)>,
}

impl Default for ParallelConfig {
    fn default() -> ParallelConfig {
        // one thread per core: each kernel is saturated, extracted and
        // tuned on the worker that took it, so no fan-out runs inside
        // another and a full-width pool never oversubscribes the machine
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        ParallelConfig { threads: cores, kernel_deadline: None, shard: None }
    }
}

/// Outcome of one optimized function (one work item of the batch).
#[derive(Debug, Clone)]
pub struct FunctionRecord {
    /// Benchmark the function belongs to.
    pub benchmark: String,
    /// Function name.
    pub function: String,
    /// Per-kernel-loop optimizer statistics (one entry per innermost
    /// parallel loop in the function).
    pub stats: Vec<OptStats>,
}

/// Everything the batch produced for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkRecord {
    /// Benchmark name (Table II/III).
    pub benchmark: String,
    /// The optimized source, printed back to C.
    pub optimized_source: String,
    /// Per-function outcomes, in source order.
    pub functions: Vec<FunctionRecord>,
}

impl BenchmarkRecord {
    /// Sum of extracted DAG costs over all kernels.
    pub fn total_cost(&self) -> u64 {
        self.kernel_stats().map(|s| s.extracted_cost).sum()
    }

    /// Iterate over every kernel-loop stat of the benchmark.
    pub fn kernel_stats(&self) -> impl Iterator<Item = &OptStats> {
        self.functions.iter().flat_map(|f| f.stats.iter())
    }
}

/// Aggregated result of a batch run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// The generated-code variant the batch ran.
    pub variant: Variant,
    /// Worker threads used.
    pub threads: usize,
    /// Per-benchmark results, in suite order.
    pub benchmarks: Vec<BenchmarkRecord>,
    /// Was the simulation-guided tuner the objective ([`tune_suite`])?
    pub tuned: bool,
    /// The shard this run covered, when sharded.
    pub shard: Option<(usize, usize)>,
}

impl BatchReport {
    /// Sum of extracted DAG costs over the whole suite.
    pub fn total_cost(&self) -> u64 {
        self.benchmarks.iter().map(|b| b.total_cost()).sum()
    }

    /// Total kernel count across the suite.
    pub fn total_kernels(&self) -> usize {
        self.benchmarks.iter().map(|b| b.kernel_stats().count()).sum()
    }

    /// Kernels whose extraction was proven DAG-optimal.
    pub fn proven_kernels(&self) -> usize {
        self.benchmarks
            .iter()
            .map(|b| b.kernel_stats().filter(|s| s.extraction_proven).count())
            .sum()
    }

    /// Sum of per-kernel bound gaps ([`OptStats::bound_gap`]) — `0` when
    /// every kernel of a plain batch is certified optimal. (In tune mode
    /// the gap also counts static cost the simulator deliberately spent,
    /// so it can be positive on proven kernels — see
    /// [`OptStats::extraction_lower_bound`].)
    pub fn total_bound_gap(&self) -> u64 {
        self.benchmarks.iter().flat_map(|b| b.kernel_stats()).map(|s| s.bound_gap()).sum()
    }

    /// Fold every kernel's deterministic counters into one registry, in
    /// suite order. Registry merging is commutative, so the rendered
    /// report is byte-identical at any `--threads` — the `--metrics`
    /// file can be diffed across thread counts and cache states
    /// (modulo `cache.request.*`, which legitimately warms up).
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.add("benchmarks", self.benchmarks.len() as u64);
        for b in &self.benchmarks {
            for s in b.kernel_stats() {
                add_opt_stats(&mut reg, s);
            }
        }
        reg
    }

    /// Render the per-benchmark summary as an ASCII table. Results only,
    /// so it is byte-identical at any thread count and cache state.
    pub fn render_table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .benchmarks
            .iter()
            .map(|b| {
                let kernels = b.kernel_stats().count();
                let nodes: usize = b.kernel_stats().map(|s| s.egraph_nodes).sum();
                let proven = b.kernel_stats().filter(|s| s.extraction_proven).count();
                let gap: u64 = b.kernel_stats().map(|s| s.bound_gap()).sum();
                vec![
                    b.benchmark.clone(),
                    kernels.to_string(),
                    nodes.to_string(),
                    b.total_cost().to_string(),
                    format!("{proven}/{kernels}"),
                    gap.to_string(),
                ]
            })
            .collect();
        crate::report::render_table(
            &["Benchmark", "Kernels", "E-nodes", "Cost", "Optimal", "Gap"],
            &rows,
        )
    }

    /// Render the per-candidate tuning table: one row per simulated
    /// candidate of every tuned kernel, Table IV metrics included. Fully
    /// deterministic (no wall-clock columns), so the output is
    /// byte-identical at any thread count.
    pub fn render_tuning_table(&self) -> String {
        let mut rows: Vec<Vec<String>> = Vec::new();
        for b in &self.benchmarks {
            for f in &b.functions {
                for s in &f.stats {
                    let Some(t) = &s.tuning else { continue };
                    for (ci, c) in t.candidates.iter().enumerate() {
                        let verdict = match (ci == t.winner, ci == t.static_winner) {
                            (true, true) => "sim+static",
                            (true, false) => "sim",
                            (false, true) => "static",
                            (false, false) => "",
                        };
                        rows.push(vec![
                            b.benchmark.clone(),
                            f.function.clone(),
                            c.label.clone(),
                            c.static_cost.to_string(),
                            c.cycles.to_string(),
                            format!("{:.3}", c.metrics.time_ms * 1e3),
                            format!("{:.0}", c.metrics.instructions),
                            c.metrics.regs_per_thread.to_string(),
                            format!("{:.2}", c.metrics.occupancy),
                            format!("{:.2}", c.metrics.mem_util),
                            verdict.to_string(),
                        ]);
                    }
                }
            }
        }
        crate::report::render_table(
            &[
                "Benchmark",
                "Kernel",
                "Candidate",
                "Static",
                "Cycles",
                "Time us",
                "Instr",
                "Regs",
                "Occ",
                "MemUtil",
                "Winner",
            ],
            &rows,
        )
    }

    /// Serialize the report as JSON (hand-rolled — the environment has no
    /// serde; names are simple identifiers but are escaped anyway). The
    /// report holds results only, so the output is **byte-identical** for
    /// a fixed suite and configuration at any thread count, cache state
    /// and across processes — this is what `accsat batch --json` and
    /// `accsat tune --json` write, and what sharded runs merge.
    pub fn to_stable_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"variant\": \"{}\",\n", self.variant.label()));
        out.push_str(&format!("  \"tuned\": {},\n", self.tuned));
        if let Some((i, n)) = self.shard {
            out.push_str(&format!("  \"shard\": \"{i}/{n}\",\n"));
        }
        out.push_str(&format!("  \"total_cost\": {},\n", self.total_cost()));
        out.push_str("  \"benchmarks\": [\n");
        for (bi, b) in self.benchmarks.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"total_cost\": {}, \"kernels\": [\n",
                escape_json(&b.benchmark),
                b.total_cost()
            ));
            let stats: Vec<(&str, &OptStats)> = b
                .functions
                .iter()
                .flat_map(|f| f.stats.iter().map(move |s| (f.function.as_str(), s)))
                .collect();
            for (ki, (func, s)) in stats.iter().enumerate() {
                out.push_str(&format!(
                    "      {{\"function\": \"{}\", \"egraph_nodes\": {}, \
                     \"iterations\": {}, \"cost\": {}, \"proven_optimal\": {}, \
                     \"lower_bound\": {}, \"bound_gap\": {}, \
                     \"winner\": \"{}\", \"explored\": {}",
                    escape_json(func),
                    s.egraph_nodes,
                    s.saturation_iters,
                    s.extracted_cost,
                    s.extraction_proven,
                    s.extraction_lower_bound,
                    s.bound_gap(),
                    s.extraction_winner,
                    s.extraction_explored,
                ));
                if let Some(t) = &s.tuning {
                    out.push_str(&format!(
                        ", \"tuning\": {{\"harvested\": {}, \"winner\": \"{}\", \
                         \"static_winner\": \"{}\", \"divergent\": {}, \"candidates\": [",
                        t.harvested,
                        escape_json(&t.winning().label),
                        escape_json(&t.static_winning().label),
                        t.divergent(),
                    ));
                    for (ci, c) in t.candidates.iter().enumerate() {
                        out.push_str(&format!(
                            "{}{{\"label\": \"{}\", \"static_cost\": {}, \"cycles\": {}, \
                             \"time_us\": {:.3}, \"instructions\": {:.0}, \"regs\": {}, \
                             \"occupancy\": {:.4}, \"mem_util\": {:.4}}}",
                            if ci > 0 { ", " } else { "" },
                            escape_json(&c.label),
                            c.static_cost,
                            c.cycles,
                            c.metrics.time_ms * 1e3,
                            c.metrics.instructions,
                            c.metrics.regs_per_thread,
                            c.metrics.occupancy,
                            c.metrics.mem_util,
                        ));
                    }
                    out.push_str("]}");
                }
                out.push_str(&format!("}}{}\n", if ki + 1 < stats.len() { "," } else { "" }));
            }
            out.push_str(&format!(
                "    ]}}{}\n",
                if bi + 1 < self.benchmarks.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Derive the per-kernel configuration: clamp saturation and extraction
/// wall budgets to the kernel deadline (25% saturation, 75% extraction —
/// the paper's 10 s : 30 s split).
fn kernel_config(base: &SaturatorConfig, deadline: Option<Duration>) -> SaturatorConfig {
    let mut cfg = base.clone();
    if let Some(d) = deadline {
        cfg.limits.time_limit = cfg.limits.time_limit.min(d.mul_f64(0.25));
        cfg.extraction_budget = cfg.extraction_budget.min(d.mul_f64(0.75));
    }
    cfg
}

/// Run the full pipeline over every kernel of `benches` on a scoped
/// thread pool. Results are identical to a sequential run; only the wall
/// clock changes with `par.threads`.
pub fn optimize_suite(
    benches: &[Benchmark],
    variant: Variant,
    config: &SaturatorConfig,
    par: &ParallelConfig,
) -> Result<BatchReport, String> {
    run_suite(benches, variant, config, par, None)
}

/// Run the **simulation-guided tuner** over every kernel of `benches`:
/// the same pool-driven batch as [`optimize_suite`], but each kernel's
/// code is chosen by simulated cycles over a harvested candidate set
/// instead of by the static cost model. Per-kernel [`OptStats::tuning`]
/// carries every candidate's static cost and Table IV metrics.
pub fn tune_suite(
    benches: &[Benchmark],
    variant: Variant,
    config: &SaturatorConfig,
    tcfg: &TuneConfig,
    par: &ParallelConfig,
) -> Result<BatchReport, String> {
    run_suite(benches, variant, config, par, Some(tcfg))
}

fn run_suite(
    benches: &[Benchmark],
    variant: Variant,
    config: &SaturatorConfig,
    par: &ParallelConfig,
    tune: Option<&TuneConfig>,
) -> Result<BatchReport, String> {
    let cfg = kernel_config(config, par.kernel_deadline);
    if let Some((i, n)) = par.shard {
        if n == 0 || i >= n {
            return Err(format!("invalid shard {i}/{n}: need 0 <= i < n"));
        }
    }

    // parse up-front (cheap, sequential, deterministic), then flatten the
    // suite into (benchmark, function) work items
    let mut programs: Vec<Program> = Vec::with_capacity(benches.len());
    {
        let _parse_span = trace::span("batch", "parse");
        for b in benches {
            programs.push(parse_program(&b.acc_source).map_err(|e| format!("{}: {e}", b.name))?);
        }
    }
    let bindings: Vec<std::collections::HashMap<String, i64>> =
        benches.iter().map(|b| b.bindings_map()).collect();
    let items: Vec<(usize, usize)> = programs
        .iter()
        .enumerate()
        .flat_map(|(bi, p)| (0..p.functions.len()).map(move |fi| (bi, fi)))
        .enumerate()
        // deterministic sharding: suite-order index mod n picks the shard,
        // so shards 0/n … (n-1)/n partition the suite exactly
        .filter(|(idx, _)| par.shard.is_none_or(|(i, n)| idx % n == i))
        .map(|(_, it)| it)
        .collect();

    let workers = par.threads.clamp(1, items.len().max(1));

    // results come back in item order, so the aggregation below never
    // depends on completion order
    let results = accsat_egraph::pool::map_slots(workers, items.len(), |i| {
        let (bi, fi) = items[i];
        let f = &programs[bi].functions[fi];
        let _item_span = trace::span_named("batch", || format!("{} {}", benches[bi].name, f.name));
        // `map_slots` would re-raise a panic here on the caller; caught,
        // it is this item's error and the run ends through `fail`
        catch_unwind(AssertUnwindSafe(|| match tune {
            Some(tcfg) => tune_function(f, variant, &cfg, tcfg, &bindings[bi]),
            None => optimize_function(f, variant, &cfg),
        }))
        .unwrap_or_else(|p| {
            Err(format!("{} {}: panicked: {}", benches[bi].name, f.name, panic_message(&*p)))
        })
    });

    // reassemble per benchmark, in suite order
    let mut records: Vec<BenchmarkRecord> = benches
        .iter()
        .map(|b| BenchmarkRecord {
            benchmark: b.name.to_string(),
            optimized_source: String::new(),
            functions: Vec::new(),
        })
        .collect();
    for (&(bi, fi), result) in items.iter().zip(results) {
        let (nf, stats) = result?;
        records[bi].functions.push(FunctionRecord {
            benchmark: benches[bi].name.to_string(),
            function: nf.name.clone(),
            stats,
        });
        programs[bi].functions[fi] = nf;
    }
    for (bi, rec) in records.iter_mut().enumerate() {
        rec.optimized_source = print_program(&programs[bi]);
    }
    if par.shard.is_some() {
        // a shard only reports benchmarks it actually touched, so the
        // shards' reports concatenate into exactly one full suite
        let mut touched = vec![false; benches.len()];
        for &(bi, _) in &items {
            touched[bi] = true;
        }
        let mut bi = 0;
        records.retain(|_| {
            bi += 1;
            touched[bi - 1]
        });
    }

    Ok(BatchReport {
        variant,
        threads: workers,
        benchmarks: records,
        tuned: tune.is_some(),
        shard: par.shard,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use accsat_egraph::RunnerLimits;
    use std::sync::Arc;

    /// A small two-benchmark suite so tests stay fast in debug builds.
    fn mini_suite() -> Vec<Benchmark> {
        accsat_benchmarks::npb_benchmarks()
            .into_iter()
            .filter(|b| b.name == "CG" || b.name == "EP")
            .collect()
    }

    fn fast_config() -> SaturatorConfig {
        SaturatorConfig {
            limits: RunnerLimits { node_limit: 2000, ..Default::default() },
            extraction_node_budget: 10_000,
            extraction_budget: Duration::from_secs(60),
            ..Default::default()
        }
    }

    #[test]
    fn batch_runs_and_aggregates() {
        let suite = mini_suite();
        let cfg = fast_config();
        let par = ParallelConfig { threads: 2, kernel_deadline: None, shard: None };
        let report = optimize_suite(&suite, Variant::AccSat, &cfg, &par).unwrap();
        assert_eq!(report.benchmarks.len(), 2);
        assert!(report.total_kernels() >= 2);
        assert!(report.total_cost() > 0);
        for b in &report.benchmarks {
            assert!(!b.optimized_source.is_empty());
            assert!(b.optimized_source.contains("#pragma acc"), "directives preserved");
        }
        let table = report.render_table();
        assert!(table.contains("CG") && table.contains("EP"));
        let json = report.to_stable_json();
        assert!(json.contains("\"variant\": \"ACCSAT\""));
        assert!(json.contains("\"proven_optimal\""));
    }

    #[test]
    fn parallel_equals_sequential_byte_for_byte() {
        let suite = mini_suite();
        let cfg = fast_config();
        let seq = optimize_suite(
            &suite,
            Variant::AccSat,
            &cfg,
            &ParallelConfig { threads: 1, kernel_deadline: None, shard: None },
        )
        .unwrap();
        let par = optimize_suite(
            &suite,
            Variant::AccSat,
            &cfg,
            &ParallelConfig { threads: 4, kernel_deadline: None, shard: None },
        )
        .unwrap();
        assert_eq!(seq.total_cost(), par.total_cost());
        for (a, b) in seq.benchmarks.iter().zip(&par.benchmarks) {
            assert_eq!(
                a.optimized_source, b.optimized_source,
                "{}: sources must be byte-identical",
                a.benchmark
            );
            let ca: Vec<u64> = a.kernel_stats().map(|s| s.extracted_cost).collect();
            let cb: Vec<u64> = b.kernel_stats().map(|s| s.extracted_cost).collect();
            assert_eq!(ca, cb, "{}: per-kernel costs must match", a.benchmark);
        }
        // more workers than items: the stable report must not move a byte
        let wide = optimize_suite(
            &suite,
            Variant::AccSat,
            &cfg,
            &ParallelConfig { threads: 8, kernel_deadline: None, shard: None },
        )
        .unwrap();
        assert_eq!(seq.to_stable_json(), wide.to_stable_json());
        assert_eq!(seq.render_table(), wide.render_table());
    }

    #[test]
    fn shared_rules_are_not_recompiled() {
        // the Arc in the config is what every worker clones: after a batch
        // run the strong count must be back to 1 (no leaked clones) and
        // the batch must have used the same allocation throughout
        let cfg = fast_config();
        let rules = Arc::clone(&cfg.rules);
        let suite = mini_suite();
        let _ = optimize_suite(
            &suite,
            Variant::AccSat,
            &cfg,
            &ParallelConfig { threads: 2, kernel_deadline: None, shard: None },
        )
        .unwrap();
        assert_eq!(Arc::strong_count(&rules), 2, "config + test handle only");
    }

    #[test]
    fn sharding_partitions_the_suite_exactly() {
        let suite = mini_suite();
        let cfg = fast_config();
        let full = optimize_suite(
            &suite,
            Variant::AccSat,
            &cfg,
            &ParallelConfig { threads: 1, kernel_deadline: None, shard: None },
        )
        .unwrap();
        let shards: Vec<BatchReport> = (0..2)
            .map(|i| {
                optimize_suite(
                    &suite,
                    Variant::AccSat,
                    &cfg,
                    &ParallelConfig { threads: 1, kernel_deadline: None, shard: Some((i, 2)) },
                )
                .unwrap()
            })
            .collect();
        // shards cover the suite exactly once…
        let count: usize = shards.iter().map(|r| r.total_kernels()).sum();
        assert_eq!(count, full.total_kernels());
        let cost: u64 = shards.iter().map(|r| r.total_cost()).sum();
        assert_eq!(cost, full.total_cost());
        // …and every sharded kernel matches the full run byte-for-byte
        let full_stats: Vec<(String, u64)> = full
            .benchmarks
            .iter()
            .flat_map(|b| {
                b.functions.iter().flat_map(|f| {
                    f.stats.iter().map(move |s| (f.function.clone(), s.extracted_cost))
                })
            })
            .collect();
        let mut shard_stats: Vec<(String, u64)> = shards
            .iter()
            .flat_map(|r| r.benchmarks.iter())
            .flat_map(|b| {
                b.functions.iter().flat_map(|f| {
                    f.stats.iter().map(move |s| (f.function.clone(), s.extracted_cost))
                })
            })
            .collect();
        shard_stats.sort();
        let mut sorted_full = full_stats;
        sorted_full.sort();
        assert_eq!(shard_stats, sorted_full);
        // the shard is recorded in the stable JSON
        assert!(shards[0].to_stable_json().contains("\"shard\": \"0/2\""));
    }

    #[test]
    fn a_panicking_kernel_is_an_error_not_a_backtrace() {
        // a rule whose side condition panics on its first match: every
        // saturating kernel of the suite blows up inside a pool worker
        let boom = accsat_egraph::Rewrite::new("BOOM", "(+ ?a ?b)", "(+ ?b ?a)")
            .with_condition(|_, _| panic!("injected"));
        let cfg = SaturatorConfig { rules: Arc::new(vec![boom]), ..fast_config() };
        for threads in [1, 2] {
            let par = ParallelConfig { threads, kernel_deadline: None, shard: None };
            let err = optimize_suite(&mini_suite(), Variant::AccSat, &cfg, &par).unwrap_err();
            // the first failing item in suite order, at any worker count
            assert_eq!(err, "CG cg_spmv: panicked: injected", "{threads} threads");
        }
    }

    #[test]
    fn invalid_shard_is_rejected() {
        let suite = mini_suite();
        let cfg = fast_config();
        let par = ParallelConfig { threads: 1, kernel_deadline: None, shard: Some((2, 2)) };
        assert!(optimize_suite(&suite, Variant::AccSat, &cfg, &par).is_err());
    }

    #[test]
    fn tune_suite_is_byte_identical_across_thread_counts() {
        let suite = mini_suite();
        let cfg = fast_config();
        let tcfg = TuneConfig::default();
        let runs: Vec<BatchReport> = [1, 4]
            .iter()
            .map(|&threads| {
                tune_suite(
                    &suite,
                    Variant::AccSat,
                    &cfg,
                    &tcfg,
                    &ParallelConfig { threads, kernel_deadline: None, shard: None },
                )
                .unwrap()
            })
            .collect();
        assert!(runs[0].tuned);
        assert_eq!(runs[0].render_tuning_table(), runs[1].render_tuning_table());
        assert_eq!(runs[0].to_stable_json(), runs[1].to_stable_json());
        for (a, b) in runs[0].benchmarks.iter().zip(&runs[1].benchmarks) {
            assert_eq!(a.optimized_source, b.optimized_source, "{}", a.benchmark);
        }
        // every tuned kernel carries candidate reports and a sane winner
        for b in &runs[0].benchmarks {
            for s in b.kernel_stats() {
                let t = s.tuning.as_ref().expect("tune mode populates tuning");
                assert!(!t.candidates.is_empty());
                assert!(t.winner < t.candidates.len());
                let min = t.candidates.iter().map(|c| c.cycles).min().unwrap();
                assert_eq!(t.winning().cycles, min);
                assert_eq!(s.extraction_winner, "tune");
            }
        }
        let json = runs[0].to_stable_json();
        assert!(json.contains("\"tuning\""));
        assert!(json.contains("\"candidates\""));
        assert!(!json.contains("wall_ms"), "stable JSON must carry no wall clocks");
    }

    #[test]
    fn kernel_deadline_clamps_budgets() {
        let base = SaturatorConfig::default();
        let cfg = kernel_config(&base, Some(Duration::from_secs(4)));
        assert_eq!(cfg.limits.time_limit, Duration::from_secs(1));
        assert_eq!(cfg.extraction_budget, Duration::from_secs(3));
        let cfg2 = kernel_config(&base, Some(Duration::from_millis(400)));
        assert_eq!(cfg2.extraction_budget, Duration::from_millis(300));
        // no deadline: the base budgets pass through untouched
        let cfg3 = kernel_config(&base, None);
        assert_eq!(cfg3.limits.time_limit, base.limits.time_limit);
        assert_eq!(cfg3.extraction_budget, base.extraction_budget);
    }
}
