//! The pipeline, stage by stage, timed from outside.
//!
//! `accsat::optimize_source` is the façade the end-to-end numbers time.
//! The traced pass cannot see inside it without adding spans to the
//! program, so it calls the same public stage functions itself, in
//! pipeline order and with the same cache protocol, wrapping each call in
//! a benchmark-owned span. [`source`] mirrors `serve::optimize_source` →
//! `pipeline::optimize_kernel_body` → `portfolio::extract_portfolio_budgeted`
//! for the saturating, bulk-loading `Variant::AccSat`.
//!
//! A mirror can drift from the original, so it is never trusted: every
//! traced pass compares its output bytes, cost, winner and explored count
//! per kernel with the façade's, and the run fails on any difference. The
//! layer table may only describe the program the end-to-end numbers timed.

use crate::spans::Recorder;
use accsat::cache::{CacheLevel, SatEntry, SelEntry, StageCache};
use accsat::codegen::{generate, CodegenOptions, TypeMap};
use accsat::egraph::pool::fanout_width;
use accsat::egraph::{EGraph, Id, Runner, RunnerReport, StopReason};
use accsat::extract::{
    climb, extract_exact_in, extract_greedy, intern_strategy, marginal_greedy, ClassOrder,
    CostModel, ExactResult, SearchContext, SearchOptions, Selection,
};
use accsat::ir::{
    fingerprint_block, fnv1a, innermost_parallel_loops_mut, parse_program, print_program, Block,
    Program,
};
use accsat::ssa::{build_kernel, SsaKernel};
use accsat::{sat_stage_key, sel_stage_key, OptStats, SaturatorConfig, Variant};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The one variant the benchmark drives: the full tool.
pub const VARIANT: Variant = Variant::AccSat;

/// The portfolio's strategy table (`extract::portfolio::STRATEGIES`, which
/// is private): a portfolio of width `n` races the first `n`.
const STRATEGIES: [(&str, ClassOrder, bool); 4] = [
    ("bnb-bestfirst", ClassOrder::BestFirst, false),
    ("bnb-heaviest", ClassOrder::HeaviestFirst, false),
    ("bnb-bestfirst-shared", ClassOrder::BestFirst, true),
    ("bnb-lifo", ClassOrder::Lifo, false),
];

/// Exact work counters of a traced pass, keyed by per-layer metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts(pub BTreeMap<&'static str, u64>);

impl Counts {
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.0.entry(name).or_insert(0) += n;
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}

/// What one kernel's optimization reported — the fields the fidelity
/// check compares between façade and replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelOutcome {
    pub cost: u64,
    pub winner: String,
    pub explored: u64,
    pub proven: bool,
    pub lower_bound: u64,
    pub level: CacheLevel,
}

impl From<&OptStats> for KernelOutcome {
    fn from(s: &OptStats) -> KernelOutcome {
        KernelOutcome {
            cost: s.extracted_cost,
            winner: s.extraction_winner.to_string(),
            explored: s.extraction_explored,
            proven: s.extraction_proven,
            lower_bound: s.extraction_lower_bound,
            level: s.cache_level,
        }
    }
}

/// Optimized text and per-kernel outcomes of one source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceOutcome {
    pub text: String,
    pub kernels: Vec<KernelOutcome>,
}

/// The façade: one `optimize_source` call, reduced to what is compared.
pub fn facade(src: &str, cfg: &SaturatorConfig) -> Result<SourceOutcome, String> {
    let (text, stats, _) = accsat::optimize_source(src, VARIANT, cfg)?;
    Ok(SourceOutcome { text, kernels: stats.iter().map(KernelOutcome::from).collect() })
}

/// Replay of `serve::optimize_source`.
pub fn source(
    src: &str,
    cfg: &SaturatorConfig,
    rec: &mut Recorder,
    counts: &mut Counts,
) -> Result<SourceOutcome, String> {
    rec.span("pipeline.source", |rec| {
        let cache = cfg.cache.as_deref();
        let src_hash = fnv1a(src.as_bytes());
        counts.add("ir.src_bytes", src.len() as u64);
        let cached = cache.and_then(|c| rec.leaf("cache.get", || c.get_parsed(src_hash)));
        let prog: Arc<Program> = match cached {
            Some(p) => p,
            None => {
                let parsed = rec.leaf("ir.parse", || parse_program(src));
                let p = Arc::new(parsed.map_err(|e| format!("parse error: {e}"))?);
                if let Some(c) = cache {
                    rec.leaf("cache.put", || c.put_parsed(src_hash, p.clone()));
                }
                p
            }
        };
        counts.add("ir.functions", prog.functions.len() as u64);
        let mut functions = Vec::with_capacity(prog.functions.len());
        let mut kernels = Vec::new();
        for f in &prog.functions {
            let mut out = f.clone();
            let tm = TypeMap::from_function(f);
            // `pipeline::optimize_block` visits kernels in this order
            for l in innermost_parallel_loops_mut(&mut out) {
                let (body, outcome) = kernel(&l.body, cfg, &tm, rec, counts);
                l.body = body;
                kernels.push(outcome);
            }
            functions.push(out);
        }
        let text = rec.leaf("ir.print", || print_program(&Program { functions }));
        counts.add("codegen.out_bytes", text.len() as u64);
        Ok(SourceOutcome { text, kernels })
    })
}

/// SSA construction, counted.
fn ssa(body: &Block, rec: &mut Recorder, counts: &mut Counts) -> SsaKernel {
    let k = rec.leaf("ssa.build", || build_kernel(body));
    counts.add("ssa.kernels", 1);
    counts.add("ssa.initial_nodes", k.egraph.total_nodes() as u64);
    k
}

/// An e-graph the pass materialized, by saturation or from a snapshot.
fn count_egraph(eg: &EGraph, counts: &mut Counts) {
    counts.add("egraph.nodes", eg.total_nodes() as u64);
    counts.add("egraph.classes", eg.num_classes() as u64);
}

fn restore(text: &str, rec: &mut Recorder, counts: &mut Counts) -> Option<EGraph> {
    let eg = rec.leaf("egraph.deserialize", || EGraph::deserialize(text)).ok()?;
    counts.add("egraph.snapshot_bytes", text.len() as u64);
    count_egraph(&eg, counts);
    Some(eg)
}

fn count_report(report: &RunnerReport, counts: &mut Counts) {
    counts.add("egraph.iterations", report.iterations.len() as u64);
    counts.add("egraph.matches", report.total_matches() as u64);
    counts.add("egraph.applied", report.total_applied() as u64);
    let banned: usize = report.rule_stats.iter().map(|r| r.times_banned).sum();
    counts.add("egraph.times_banned", banned as u64);
    counts.add("egraph.search_ns", report.search_time().as_nanos() as u64);
    counts.add("egraph.apply_ns", report.apply_time().as_nanos() as u64);
    counts.add("egraph.rebuild_ns", report.rebuild_time().as_nanos() as u64);
    match report.stop_reason {
        StopReason::Saturated => counts.add("egraph.stop_saturated", 1),
        StopReason::IterLimit => counts.add("egraph.stop_iter_limit", 1),
        StopReason::NodeLimit => counts.add("egraph.stop_node_limit", 1),
        // the wall-clock valve: never binds at these sizes, and a run in
        // which it did would not repeat — the repeat check would show it
        StopReason::TimeLimit => counts.add("egraph.stop_time_limit", 1),
    }
}

/// Replay of `pipeline::saturate_body` for a saturating variant.
pub fn saturate(
    body: &Block,
    cfg: &SaturatorConfig,
    rec: &mut Recorder,
    counts: &mut Counts,
) -> (SsaKernel, RunnerReport) {
    let mut kernel = ssa(body, rec, counts);
    let runner = Runner::from_shared(cfg.rules.clone())
        .with_limits(cfg.limits)
        .with_sat_threads(cfg.sat_threads)
        .with_budget(cfg.thread_budget.clone());
    let report = rec.leaf("egraph.saturate", || runner.run(&mut kernel.egraph));
    count_report(&report, counts);
    count_egraph(&kernel.egraph, counts);
    (kernel, report)
}

/// `EGraph::serialize`, counted.
pub fn snapshot(eg: &EGraph, rec: &mut Recorder, counts: &mut Counts) -> String {
    let text = rec.leaf("egraph.serialize", || eg.serialize());
    counts.add("egraph.snapshot_bytes", text.len() as u64);
    text
}

/// Replay of `pipeline::saturate_stage`.
fn saturate_stage(
    body: &Block,
    cfg: &SaturatorConfig,
    rec: &mut Recorder,
    counts: &mut Counts,
) -> (SsaKernel, CacheLevel) {
    let Some(cache) = cfg.cache.as_deref() else {
        return (saturate(body, cfg, rec, counts).0, CacheLevel::Miss);
    };
    let key = rec.leaf("cache.key", || sat_stage_key(body, VARIANT, cfg));
    if let Some(entry) = rec.leaf("cache.get", || cache.get_sat(key)) {
        if let Some(eg) = restore(&entry.egraph, rec, counts) {
            let mut kernel = ssa(body, rec, counts);
            kernel.egraph = eg;
            return (kernel, CacheLevel::Saturated);
        }
    }
    let (kernel, report) = saturate(body, cfg, rec, counts);
    let egraph = snapshot(&kernel.egraph, rec, counts);
    rec.leaf("cache.put", || {
        cache.put_sat(
            key,
            &SatEntry {
                egraph,
                iters: report.iterations.len(),
                stop: Some(report.stop_reason),
                rule_stats: report.rule_stats.clone(),
                iter_counts: report.iteration_counts(),
            },
        )
    });
    (kernel, CacheLevel::Miss)
}

/// Replay of `pipeline::try_selected_hit`.
fn selected_hit(
    body: &Block,
    cache: &StageCache,
    tm: &TypeMap,
    (sat_key, sel_key): (u64, u64),
    rec: &mut Recorder,
    counts: &mut Counts,
) -> Option<(Block, KernelOutcome)> {
    let sel_entry = rec.leaf("cache.get", || cache.get_sel(sel_key))?;
    let sat_entry = rec.leaf("cache.get", || cache.get_sat(sat_key))?;
    let eg = restore(&sat_entry.egraph, rec, counts)?;
    // decoding the stored selection is part of reading the entry
    let selection = rec.leaf("cache.get", || Selection::deserialize(&sel_entry.selection)).ok()?;
    let winner = intern_strategy(&sel_entry.winner)?;
    let mut kernel = ssa(body, rec, counts);
    kernel.egraph = eg;
    let opts = CodegenOptions { bulk_load: VARIANT.bulk_loads() };
    let new_body = rec.leaf("codegen.generate", || generate(&kernel, &selection, tm, &opts));
    let outcome = KernelOutcome {
        cost: sel_entry.cost,
        winner: winner.to_string(),
        explored: sel_entry.explored,
        proven: sel_entry.proven,
        lower_bound: sel_entry.lower_bound,
        level: CacheLevel::Selected,
    };
    Some((new_body, outcome))
}

/// What the extraction portfolio decided for one kernel.
struct Extraction {
    selection: Selection,
    cost: u64,
    proven: bool,
    winner: &'static str,
    explored: u64,
    lower_bound: u64,
    pruned: [usize; 3],
}

/// Replay of `portfolio::run_portfolio` + `extract_portfolio_budgeted`.
fn extract(
    eg: &EGraph,
    roots: &[Id],
    cfg: &SaturatorConfig,
    rec: &mut Recorder,
    counts: &mut Counts,
) -> Extraction {
    let ex = rec.span("extract", |rec| portfolio(eg, roots, cfg, rec, counts));
    counts.add("extract.kernels", 1);
    counts.add("extract.explored", ex.explored);
    counts.add("extract.final_cost", ex.cost);
    counts.add("extract.lower_bound", ex.lower_bound);
    counts.add("extract.proven", u64::from(ex.proven));
    counts.add("extract.budget_stops", u64::from(!ex.proven));
    counts.add("extract.pruned_orbit", ex.pruned[0] as u64);
    counts.add("extract.pruned_dominance", ex.pruned[1] as u64);
    counts.add("extract.pruned_closure", ex.pruned[2] as u64);
    ex
}

fn portfolio(
    eg: &EGraph,
    roots: &[Id],
    cfg: &SaturatorConfig,
    rec: &mut Recorder,
    counts: &mut Counts,
) -> Extraction {
    let cm: &CostModel = &cfg.cost_model;
    let greedy = rec.leaf("extract.greedy", || extract_greedy(eg, roots, cm));
    let greedy_cost = greedy.dag_cost(eg, cm, roots);
    counts.add("extract.greedy_cost", greedy_cost);
    let cx = rec.leaf("extract.context", || SearchContext::build(eg, cm));
    let pruned = [cx.orbit_pruned(), cx.dominance_pruned(), cx.closure_pruned()];
    let root_bound = cx.root_lower_bound(roots);
    let short_circuit = |selection, cost, winner, counts: &mut Counts| {
        counts.add("extract.short_circuits", 1);
        counts.add("extract.refined_cost", cost);
        Extraction { selection, cost, proven: true, winner, explored: 0, lower_bound: cost, pruned }
    };
    if greedy_cost <= root_bound {
        return short_circuit(greedy, greedy_cost, "greedy", counts);
    }

    let climbed = rec.leaf("extract.climb", || climb(eg, &cx, cm, roots, greedy.clone()));
    let climbed_cost = climbed.dag_cost(eg, cm, roots);
    let marginal =
        rec.leaf("extract.marginal", || marginal_greedy(eg, &cx, cm, roots)).map(|mut m| {
            m.fill_from(&greedy);
            let m = rec.leaf("extract.climb", || climb(eg, &cx, cm, roots, m));
            let c = m.dag_cost(eg, cm, roots);
            (m, c)
        });
    let marginal_cost = marginal.as_ref().map_or(u64::MAX, |&(_, c)| c);
    let (incumbent, incumbent_cost, incumbent_name) =
        if climbed_cost < greedy_cost && climbed_cost <= marginal_cost {
            (climbed, climbed_cost, "refine")
        } else if marginal_cost < greedy_cost {
            let (m, c) = marginal.expect("cost came from Some");
            (m, c, "refine")
        } else {
            (greedy, greedy_cost, "greedy")
        };
    if incumbent_cost <= root_bound {
        return short_circuit(incumbent, incumbent_cost, incumbent_name, counts);
    }
    counts.add("extract.refined_cost", incumbent_cost);

    let want = cfg.extraction_threads.clamp(1, STRATEGIES.len());
    let opts: Vec<(&'static str, SearchOptions)> = STRATEGIES[..want]
        .iter()
        .map(|&(name, order, prefer_shared)| {
            let o = SearchOptions {
                order,
                prefer_shared,
                node_budget: cfg.extraction_node_budget,
                deadline: cfg.extraction_budget,
                ..SearchOptions::default()
            };
            (name, o)
        })
        .collect();
    let results = rec
        .span("extract.bnb", |rec| race(&cx, roots, &incumbent, incumbent_cost, &opts, cfg, rec));

    let proven = results.iter().any(|r| r.proven_optimal);
    let explored = results.iter().map(|r| r.explored).sum();
    let win = (0..results.len())
        .min_by_key(|&i| (results[i].cost, i))
        .expect("portfolio has at least one member");
    let (selection, cost, winner) = if results[win].cost < incumbent_cost {
        (results[win].selection.clone(), results[win].cost, opts[win].0)
    } else {
        (incumbent, incumbent_cost, incumbent_name)
    };
    let lower_bound = if proven { cost } else { root_bound };
    Extraction { selection, cost, proven, winner, explored, lower_bound, pruned }
}

/// The branch-and-bound race: the strategies are drained from an atomic
/// cursor by as many threads as the façade would use (two standalone, one
/// under `serve`'s empty thread budget); each search becomes a child span
/// read off the recorder's clock on its own thread.
fn race(
    cx: &SearchContext<'_>,
    roots: &[Id],
    incumbent: &Selection,
    incumbent_cost: u64,
    opts: &[(&'static str, SearchOptions)],
    cfg: &SaturatorConfig,
    rec: &mut Recorder,
) -> Vec<ExactResult> {
    let (width, _lease) = fanout_width(cfg.thread_budget.as_deref(), opts.len(), opts.len());
    let clock = rec.clock();
    let slots: Vec<Mutex<Option<(u64, u64, ExactResult)>>> =
        opts.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let drain = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some((_, o)) = opts.get(i) else { break };
        let start = clock();
        let r = extract_exact_in(cx, roots, incumbent, incumbent_cost, o);
        *slots[i].lock().expect("strategy slot") = Some((start, clock(), r));
    };
    std::thread::scope(|scope| {
        for _ in 1..width {
            scope.spawn(drain);
        }
        drain();
    });
    slots
        .into_iter()
        .map(|slot| {
            let (start, end, r) =
                slot.into_inner().expect("strategy slot").expect("strategy drained");
            rec.add_child("extract.bnb.search", start, end);
            r
        })
        .collect()
}

/// Replay of `pipeline::optimize_kernel_body`.
fn kernel(
    body: &Block,
    cfg: &SaturatorConfig,
    tm: &TypeMap,
    rec: &mut Recorder,
    counts: &mut Counts,
) -> (Block, KernelOutcome) {
    rec.span("pipeline.kernel", |rec| {
        let cache = cfg.cache.as_deref();
        let keys = cache.map(|_| {
            rec.leaf("cache.key", || {
                (sat_stage_key(body, VARIANT, cfg), sel_stage_key(body, VARIANT, cfg))
            })
        });
        let _flight = match (cache, keys) {
            (Some(c), Some((_, sel_key))) => Some(c.single_flight(sel_key)),
            _ => None,
        };
        if let (Some(c), Some(keys)) = (cache, keys) {
            if let Some(hit) = selected_hit(body, c, tm, keys, rec, counts) {
                return hit;
            }
        }

        let (kernel, level) = saturate_stage(body, cfg, rec, counts);
        let roots = kernel.extraction_roots();
        let ex = extract(&kernel.egraph, &roots, cfg, rec, counts);
        if let (Some(c), Some((_, sel_key))) = (cache, keys) {
            rec.leaf("cache.put", || {
                c.put_sel(
                    sel_key,
                    &SelEntry {
                        selection: ex.selection.serialize(),
                        cost: ex.cost,
                        proven: ex.proven,
                        winner: ex.winner.to_string(),
                        explored: ex.explored,
                        lower_bound: ex.lower_bound,
                        pruned: ex.pruned,
                    },
                )
            });
        }
        let opts = CodegenOptions { bulk_load: VARIANT.bulk_loads() };
        let new_body = rec.leaf("codegen.generate", || generate(&kernel, &ex.selection, tm, &opts));
        let outcome = KernelOutcome {
            cost: ex.cost,
            winner: ex.winner.to_string(),
            explored: ex.explored,
            proven: ex.proven,
            lower_bound: ex.lower_bound,
            level,
        };
        (new_body, outcome)
    })
}

/// One canonical print-and-hash of a kernel body: what each stage key
/// pays per call (the pipeline computes three keys per cached kernel).
/// Timed apart from the replayed pass, because from outside the
/// fingerprint cannot be separated from the key function that calls it.
pub fn fingerprint_probe(src: &str, rec: &mut Recorder) -> Result<(), String> {
    let prog = parse_program(src).map_err(|e| format!("parse error: {e}"))?;
    for f in &prog.functions {
        for l in accsat::ir::innermost_parallel_loops(f) {
            std::hint::black_box(rec.leaf("ir.fingerprint", || fingerprint_block(&l.body)));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use accsat::benchmarks::GenConfig;

    fn assert_replay_matches(src: &str, name: &str, cached: bool) {
        let config = || {
            let mut cfg = SaturatorConfig::default();
            if cached {
                cfg.cache = Some(Arc::new(StageCache::in_memory()));
            }
            cfg
        };
        let (cfg_f, cfg_r) = (config(), config());
        let mut rec = Recorder::new();
        let mut counts = Counts::default();
        // twice: with a cache the second call takes the `selected` path
        for round in 0..2 {
            let want = facade(src, &cfg_f).unwrap();
            let got = source(src, &cfg_r, &mut rec, &mut counts).unwrap();
            assert_eq!(got, want, "{name}: replay differs from façade (round {round})");
        }
        if cached {
            let (f, r) = (cfg_f.cache.unwrap().stats(), cfg_r.cache.unwrap().stats());
            assert_eq!(f, r, "{name}: replay must probe and fill the cache like the façade");
            assert!(r.sel_hits > 0);
        }
    }

    #[test]
    fn replay_is_byte_identical_on_all_19_suite_kernels() {
        let mut kernels = 0;
        for s in inputs::suite_sources(&accsat::benchmarks::all_benchmarks()) {
            assert_replay_matches(&s.text, &s.name, false);
            assert_replay_matches(&s.text, &s.name, true);
            kernels += facade(&s.text, &SaturatorConfig::default()).unwrap().kernels.len();
        }
        assert_eq!(kernels, 19);
    }

    #[test]
    fn replay_is_byte_identical_on_seeded_generated_kernels() {
        let mut rng = inputs::stream(11, "replay-test");
        let small = inputs::draw_kernels(&mut rng, &GenConfig { max_stmts: 2, max_depth: 2 }, 40);
        let default = inputs::draw_kernels(&mut rng, &GenConfig::default(), 12);
        for (i, k) in small.iter().chain(&default).enumerate() {
            assert_replay_matches(&k.source, &format!("gen{i}"), i % 2 == 0);
        }
    }
}
