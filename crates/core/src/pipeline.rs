//! The ACC Saturator pipeline: SSA → e-graph → saturation → extraction →
//! code generation, per innermost parallel loop. Every stage runs under
//! `timed`, which is where both the `OptStats` durations and the
//! `pipeline` trace spans come from.

use crate::cache::{sat_stage_key, sel_key_from, CacheLevel, SatEntry, SelEntry, StageCache};
use accsat_autotune::{tune_kernel, KernelTuning, TuneConfig, TunedKernel};
use accsat_codegen::{generate, CodegenOptions, TypeMap};
use accsat_egraph::{
    all_rules, EGraph, IterCounts, Rewrite, RuleStats, Runner, RunnerLimits, StopReason,
    ThreadBudget,
};
use accsat_extract::{extract_portfolio, intern_strategy, CostModel, PortfolioConfig, Selection};
use accsat_ir::{Block, Function, Program};
use accsat_obs::trace;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The generated-code variants of the evaluation (§VIII).
///
/// * `Cse` — e-graph round-trip without rewriting: hash-consing alone
///   eliminates redundant loads and expressions.
/// * `CseSat` — plus equality saturation (Table I rules + constant folding).
/// * `CseBulk` — CSE plus bulk load reordering.
/// * `AccSat` — the full tool: CSE + saturation + bulk load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    Original,
    Cse,
    CseSat,
    CseBulk,
    AccSat,
}

impl Variant {
    /// All evaluated variants, in the paper's plotting order.
    pub fn all() -> [Variant; 4] {
        [Variant::Cse, Variant::CseSat, Variant::CseBulk, Variant::AccSat]
    }

    /// Does this variant run equality saturation?
    pub fn saturates(&self) -> bool {
        matches!(self, Variant::CseSat | Variant::AccSat)
    }

    /// Does this variant reorder loads (bulk load)?
    pub fn bulk_loads(&self) -> bool {
        matches!(self, Variant::CseBulk | Variant::AccSat)
    }

    /// Display label used in figures.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Original => "Original",
            Variant::Cse => "CSE",
            Variant::CseSat => "CSE+SAT",
            Variant::CseBulk => "CSE+BULK",
            Variant::AccSat => "ACCSAT",
        }
    }

    /// The variant a request, flag or report names: its [`label`](Self::label)
    /// in any case, with `-` accepted for `+`.
    pub fn parse(s: &str) -> Option<Variant> {
        let s = s.replace('-', "+");
        let mut known = [Variant::Original].into_iter().chain(Variant::all());
        known.find(|v| v.label().eq_ignore_ascii_case(&s))
    }
}

/// Saturation / extraction configuration. Defaults mirror §VII: 10 000
/// e-nodes, 10 iterations, 10 s saturation, 30 s extraction (scaled down for
/// the in-repo benchmarks, which are far smaller than full NPB kernels).
#[derive(Debug, Clone)]
pub struct SaturatorConfig {
    /// Saturation limits (e-nodes / iterations / wall clock).
    pub limits: RunnerLimits,
    /// Wall-clock safety cap per extraction (the paper's 30 s limit,
    /// scaled down). The deterministic budget is `extraction_node_budget`.
    pub extraction_budget: Duration,
    /// Width of the extraction portfolio: how many branch-and-bound
    /// strategies race per kernel. `1` (the default) runs one search,
    /// best-first, on the calling thread; a wider race adds strategies
    /// from the portfolio's table (`tune` harvests all of them).
    pub extraction_threads: usize,
    /// Deterministic per-strategy search budget in explored nodes; this,
    /// not the wall clock, is what normally ends a hard extraction, so
    /// results are reproducible run to run.
    pub extraction_node_budget: u64,
    /// Op-cost model for extraction (paper §V-B values by default).
    pub cost_model: CostModel,
    /// Compiled rewrite rules. Shared (`Arc`) so batch drivers compile the
    /// rule set once per process instead of once per kernel.
    pub rules: Arc<Vec<Rewrite>>,
    /// Width of the saturation runner's parallel rule search. `1` (the
    /// default) searches on the calling thread; higher values fan the
    /// per-iteration rule searches out over scoped threads. Output is
    /// byte-identical at any value.
    pub sat_threads: usize,
    /// Shared thread budget of the two-level batch pool. When set, the
    /// saturation search and the extraction portfolio lease their extra
    /// threads from here instead of spawning unconditionally; `None`
    /// (standalone runs) spawns up to the configured widths outright.
    pub thread_budget: Option<Arc<ThreadBudget>>,
    /// Content-addressed stage cache (see [`crate::cache`]). When set,
    /// the pipeline consults it before saturation and extraction and
    /// populates it after; `None` (the default) runs every stage cold.
    /// Cached and cold runs produce byte-identical output — the cache is
    /// a wall-clock optimization, never an observable one.
    pub cache: Option<Arc<StageCache>>,
}

impl Default for SaturatorConfig {
    fn default() -> SaturatorConfig {
        SaturatorConfig {
            limits: RunnerLimits::default(),
            // the *node* budget is sized to finish well inside the wall
            // valve (6–7 ms for the one 60 k-node search in release on BT
            // `z_solve`, the largest in-repo search, on a 2-core x86-64
            // host), so runs are reproducible: the deterministic limit
            // binds, the clock does not
            extraction_budget: Duration::from_secs(5),
            // one search: a second strategy, `bnb-heaviest`, returns the
            // same selection and explores the same nodes on every pinned
            // kernel (`extract_identity`)
            extraction_threads: 1,
            extraction_node_budget: 60_000,
            cost_model: CostModel::paper(),
            rules: Arc::new(all_rules()),
            sat_threads: 1,
            thread_budget: None,
            cache: None,
        }
    }
}

/// Per-kernel optimization statistics (the §VII timing numbers).
#[derive(Debug, Clone)]
pub struct OptStats {
    pub function: String,
    /// SSA construction + code generation time.
    pub ssa_codegen: Duration,
    /// Equality saturation time.
    pub saturation: Duration,
    /// Extraction time.
    pub extraction: Duration,
    /// Total e-nodes in the kernel's e-graph after processing.
    pub egraph_nodes: usize,
    /// Saturation iterations performed.
    pub saturation_iters: usize,
    /// Why saturation stopped.
    pub stop_reason: Option<StopReason>,
    /// Per-rule match/apply/ban statistics from the saturation runner
    /// (empty for variants that do not saturate).
    pub rule_stats: Vec<RuleStats>,
    /// Deterministic per-iteration counters (matches, applied, nodes,
    /// classes) of the saturation run, in iteration order. Persisted by
    /// the stage cache, so warm runs report the same growth curve the
    /// original run measured.
    pub iteration_counts: Vec<IterCounts>,
    /// Total extracted DAG cost under the paper cost model.
    pub extracted_cost: u64,
    /// Did the extraction portfolio prove its selection optimal?
    pub extraction_proven: bool,
    /// Which portfolio member produced the winning selection (`"tune"`
    /// when the simulation-guided tuner chose it — see `tuning`).
    pub extraction_winner: &'static str,
    /// Branch-and-bound nodes explored across all portfolio members
    /// (0 in tune mode, where exploration is spread over the harvest).
    pub extraction_explored: u64,
    /// The strongest certified lower bound on the kernel's optimal DAG
    /// cost. For plain extraction this equals `extracted_cost` whenever
    /// `extraction_proven`. In tune mode the proven flag describes the
    /// *winning candidate's own search* (possibly under a sweep cost
    /// model) while this bound stays the base-model bound, so a proven
    /// tune winner can still report a positive [`OptStats::bound_gap`] —
    /// the static cost the simulator deliberately spent. See
    /// [`OptStats::bound_gap`].
    pub extraction_lower_bound: u64,
    /// Candidates removed per extraction pruning layer (orbit, dominance,
    /// closure — in that order) while building the shared search context.
    /// Zero in tune mode and for non-extracting cache hits.
    pub extraction_pruned: [usize; 3],
    /// Per-candidate simulation report when the kernel was optimized by
    /// the simulation-guided tuner ([`tune_function`]); `None` for plain
    /// static-cost extraction.
    pub tuning: Option<KernelTuning>,
    /// How much of this kernel's pipeline came from the stage cache
    /// (`Miss` when no cache is configured). Deliberately excluded from
    /// the stable batch report: warm and cold runs must stay
    /// byte-identical there.
    pub cache_level: CacheLevel,
}

impl OptStats {
    /// How far the shipped cost sits above the certified lower bound:
    /// `0` for proven-optimal extractions; for budget-stopped kernels the
    /// honest distance the branch-and-bound could not close (and in tune
    /// mode, additionally the static cost the simulator chose to spend).
    pub fn bound_gap(&self) -> u64 {
        self.extracted_cost.saturating_sub(self.extraction_lower_bound)
    }

    /// The deterministic part of the statistics, rendered for comparison:
    /// every field but the three wall-clock `Duration`s and `cache_level`,
    /// which describe how this run got its result, not the result. Masked
    /// on a copy rather than listed, so a field added later is compared
    /// unless it is exempted here.
    pub(crate) fn deterministic(&self) -> String {
        let mut s = self.clone();
        (s.ssa_codegen, s.saturation, s.extraction) = Default::default();
        s.cache_level = CacheLevel::Miss;
        format!("{s:?}")
    }
}

/// Optimize every kernel (innermost parallel loop) of a function.
pub(crate) fn optimize_function(
    f: &Function,
    variant: Variant,
    config: &SaturatorConfig,
) -> Result<(Function, Vec<OptStats>), String> {
    for_each_kernel(f, variant, config, |job, _| {
        // claim the kernel's selection key first so concurrent identical
        // requests coalesce (the first computes, the rest wait and hit),
        // then resume from the deepest cached level
        let _flight = job.cache.map(|(cache, _, sel_key)| cache.single_flight(sel_key));
        let (sat, chosen) = job.resume_selected().unwrap_or_else(|| {
            let sat = job.saturate();
            let chosen = job.select(&sat);
            (sat, chosen)
        });
        let body = job.lower(&sat, &chosen);
        Ok(job.finish(sat, chosen, body))
    })
}

/// Optimize every kernel of a function with the **simulation-guided
/// tuner**: instead of shipping the static-cost extraction winner, a
/// harvest of structurally distinct candidates is lowered through codegen,
/// simulated on `tcfg.device` under `tcfg.compiler`, and the candidate
/// with the fewest simulated whole-launch cycles wins (ties broken by
/// static cost, then candidate index). `bindings` supplies problem-size
/// constants for trip counts, exactly as in benchmark evaluation.
pub fn tune_function(
    f: &Function,
    variant: Variant,
    config: &SaturatorConfig,
    tcfg: &TuneConfig,
    bindings: &HashMap<String, i64>,
) -> Result<(Function, Vec<OptStats>), String> {
    // tune mode ranks by *simulated cycles*, an objective the stage cache
    // does not key — it always runs cold
    let config = &SaturatorConfig { cache: None, ..config.clone() };
    for_each_kernel(f, variant, config, |job, kernel_index| {
        let sat = job.saturate();
        let copts = CodegenOptions { bulk_load: variant.bulk_loads() };
        // harvest at full portfolio width: every strategy's selection is a
        // candidate, regardless of how narrow the static extraction races.
        // The tune path keeps its own unbudgeted fan-out: the tuner's
        // lower-and-simulate stage dominates its wall time, not the race.
        let mut pcfg = job.portfolio_config();
        pcfg.threads = pcfg.threads.max(accsat_extract::STRATEGY_COUNT);
        let cm = &config.cost_model;
        let (tuned, time) = timed("tune", || {
            tune_kernel(f, kernel_index, &sat.kernel, job.tm, cm, &pcfg, &copts, bindings, tcfg)
        });
        let TunedKernel { tuning, body } = tuned?;
        let chosen = Chosen {
            // the tuner lowered its own winner; there is nothing left to lower
            selection: Selection::new(),
            cost: tuning.winning().static_cost,
            proven: tuning.winning().proven_optimal,
            winner: "tune",
            explored: 0,
            lower_bound: tuning.lower_bound,
            pruned: [0; 3],
            tuning: Some(tuning),
            time,
        };
        Ok(job.finish(sat, chosen, (body, Duration::ZERO)))
    })
}

/// Run `walk` on every kernel of `f` — the innermost parallel loops, in
/// [`accsat_ir::innermost_parallel_loops`] order — and splice each returned
/// body back in place. Every driver (optimize, tune, the fuzzer's checked
/// walk) is this loop around a different walk of the [`KernelJob`] stages.
pub(crate) fn for_each_kernel(
    f: &Function,
    variant: Variant,
    config: &SaturatorConfig,
    mut walk: impl FnMut(&KernelJob<'_>, usize) -> Result<(Block, OptStats), String>,
) -> Result<(Function, Vec<OptStats>), String> {
    let mut out = f.clone();
    let mut stats = Vec::new();
    if variant == Variant::Original {
        return Ok((out, stats));
    }
    let tm = TypeMap::from_function(f);
    for (index, l) in accsat_ir::innermost_parallel_loops_mut(&mut out).into_iter().enumerate() {
        let _kernel_span = trace::span_named("pipeline", || format!("kernel {}", f.name));
        let cache = config.cache.as_deref().map(|cache| {
            let sat_key = sat_stage_key(&l.body, variant, config);
            (cache, sat_key, sel_key_from(sat_key, config))
        });
        let job = KernelJob { body: &l.body, variant, config, tm: &tm, function: &f.name, cache };
        let (body, st) = walk(&job, index)?;
        l.body = body;
        stats.push(st);
    }
    Ok((out, stats))
}

/// Run one stage under a `pipeline` span and on the clock: the span goes
/// to the trace, the returned `Duration` into [`OptStats`], so the §VII
/// timing columns and a profile of the same run cannot disagree.
fn timed<T>(stage: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    let _span = trace::span("pipeline", stage);
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// One kernel's trip through the pipeline: the immutable inputs every
/// stage reads. The stages below each take the previous stage's product
/// and return the next — [`Saturated`], [`Chosen`], the lowered [`Block`] —
/// and a driver is a *walk*: the order in which it calls them.
pub(crate) struct KernelJob<'a> {
    pub(crate) body: &'a Block,
    variant: Variant,
    config: &'a SaturatorConfig,
    tm: &'a TypeMap,
    function: &'a str,
    /// The configured stage cache with this kernel's `(saturated, selected)`
    /// keys, computed once per job.
    cache: Option<(&'a StageCache, u64, u64)>,
}

/// Product of steps ① and ② — everything before an objective picks the
/// code: the SSA kernel with its saturated e-graph, run by the rules or
/// restored from a `saturated` snapshot (`level` says which).
pub(crate) struct Saturated {
    pub(crate) kernel: accsat_ssa::SsaKernel,
    iters: usize,
    stop: Option<StopReason>,
    rule_stats: Vec<RuleStats>,
    iter_counts: Vec<IterCounts>,
    level: CacheLevel,
    ssa_time: Duration,
    sat_time: Duration,
}

/// Product of step ② part II: the selection an objective picked and what
/// it certified about it — from the portfolio, a decoded `selected` entry,
/// or the tuner.
pub(crate) struct Chosen {
    selection: Selection,
    cost: u64,
    proven: bool,
    winner: &'static str,
    explored: u64,
    lower_bound: u64,
    pruned: [usize; 3],
    tuning: Option<KernelTuning>,
    time: Duration,
}

impl Chosen {
    /// The extraction invariants, checked against the e-graph this choice
    /// claims to select from; the first violation as `(invariant key,
    /// detail)` — the fuzzer's finding keys. The selection must walk from
    /// the extraction roots through member nodes only
    /// ([`Selection::checked_cost`]), the claimed cost must be the
    /// recomputed DAG cost, and the certified bound must not exceed it.
    /// `Ok` for every sound choice, wherever it came from; a `selected`
    /// entry that is not is a miss.
    pub(crate) fn check(
        &self,
        kernel: &accsat_ssa::SsaKernel,
        cm: &CostModel,
    ) -> Result<(), (&'static str, String)> {
        let Chosen { selection, winner, cost, lower_bound, .. } = self;
        let recomputed = selection
            .checked_cost(&kernel.egraph, cm, &kernel.extraction_roots())
            .map_err(|e| ("selection-walk", format!("winner `{winner}`: {e}")))?;
        if recomputed != *cost {
            let claim = format!("winner `{winner}` claimed cost {cost}");
            return Err((
                "cost-mismatch",
                format!("{claim} but the selection recomputes to {recomputed}"),
            ));
        }
        if lower_bound > cost {
            let detail =
                format!("certified lower bound {lower_bound} exceeds achieved cost {cost}");
            return Err(("lower-bound", detail));
        }
        Ok(())
    }
}

impl KernelJob<'_> {
    /// The extraction portfolio configuration of this job.
    fn portfolio_config(&self) -> PortfolioConfig {
        PortfolioConfig {
            threads: self.config.extraction_threads,
            node_budget: self.config.extraction_node_budget,
            deadline: self.config.extraction_budget,
        }
    }

    /// Step ①, SSA construction. It runs on every walk, resumed ones
    /// included: it is deterministic and cheap, and it rebuilds the
    /// structure tree no cache level stores.
    fn ssa(&self) -> (accsat_ssa::SsaKernel, Duration) {
        timed("ssa", || accsat_ssa::build_kernel(self.body))
    }

    /// Step ②, equality saturation — restored from the `saturated` cache
    /// level when a cache is configured and holds an intact snapshot,
    /// otherwise run (and the level filled).
    pub(crate) fn saturate(&self) -> Saturated {
        if let Some((cache, sat_key, _)) = self.cache {
            let hit = cache.get_sat(sat_key);
            // a corrupt snapshot falls through and is overwritten below
            if let Some(sat) = hit.and_then(|e| self.restore(e, CacheLevel::Saturated)) {
                return sat;
            }
        }
        let (mut kernel, ssa_time) = self.ssa();
        let (report, sat_time) = timed("saturate", || {
            if !self.variant.saturates() {
                kernel.egraph.rebuild();
                return None;
            }
            let runner = Runner::from_shared(self.config.rules.clone())
                .with_limits(self.config.limits)
                .with_sat_threads(self.config.sat_threads)
                .with_budget(self.config.thread_budget.clone());
            Some(runner.run(&mut kernel.egraph))
        });
        let (iters, stop, iter_counts, rule_stats) = report.map_or_else(Default::default, |r| {
            (r.iterations.len(), Some(r.stop_reason), r.iteration_counts(), r.rule_stats)
        });
        if let Some((cache, sat_key, _)) = self.cache {
            let egraph = kernel.egraph.serialize();
            let (rule_stats, iter_counts) = (rule_stats.clone(), iter_counts.clone());
            cache.put_sat(sat_key, &SatEntry { egraph, iters, stop, rule_stats, iter_counts });
        }
        let level = CacheLevel::Miss;
        Saturated { kernel, iters, stop, rule_stats, iter_counts, level, ssa_time, sat_time }
    }

    /// A [`Saturated`] from a cached entry: the restored e-graph is swapped
    /// in over the fresh SSA kernel's (the class ids of the assignment
    /// roots are identical by construction: the snapshot was taken from an
    /// e-graph built by the very same SSA walk). `None` on a corrupt
    /// snapshot.
    fn restore(&self, entry: SatEntry, level: CacheLevel) -> Option<Saturated> {
        let (egraph, sat_time) = timed("restore", || EGraph::deserialize(&entry.egraph));
        let egraph = egraph.ok()?;
        let (mut kernel, ssa_time) = self.ssa();
        kernel.egraph = egraph;
        let SatEntry { iters, stop, rule_stats, iter_counts, .. } = entry;
        Some(Saturated { kernel, iters, stop, rule_stats, iter_counts, level, ssa_time, sat_time })
    }

    /// Resume from the `selected` cache level: both the saturated e-graph
    /// snapshot and the selection must be present and intact (a selection
    /// without its e-graph cannot be lowered), and the selection must be a
    /// sound, correctly priced choice *for that e-graph* — the entry is
    /// bytes from outside the program, and a key collision or a mixed-up
    /// cache directory delivers a well-formed selection of another kernel.
    /// Anything less is a miss: the walk falls back to the lower levels
    /// and overwrites the entry.
    fn resume_selected(&self) -> Option<(Saturated, Chosen)> {
        let (cache, sat_key, sel_key) = self.cache?;
        let entry = cache.get_sel(sel_key)?;
        let sat = self.restore(cache.get_sat(sat_key)?, CacheLevel::Selected)?;
        let chosen = Chosen {
            selection: Selection::deserialize(&entry.selection).ok()?,
            cost: entry.cost,
            proven: entry.proven,
            // winner names are interned `&'static str`s in the live
            // pipeline; an unknown name means a stale/corrupt entry
            winner: intern_strategy(&entry.winner)?,
            explored: entry.explored,
            lower_bound: entry.lower_bound,
            pruned: entry.pruned,
            tuning: None,
            time: Duration::ZERO,
        };
        chosen.check(&sat.kernel, &self.config.cost_model).ok().map(|()| (sat, chosen))
    }

    /// Step ② part II, extraction (the LP objective): a portfolio of
    /// branch-and-bound strategies racing under a deterministic budget.
    /// Fills the `selected` cache level.
    pub(crate) fn select(&self, sat: &Saturated) -> Chosen {
        let (ex, time) = timed("extract", || {
            extract_portfolio(
                &sat.kernel.egraph,
                &sat.kernel.extraction_roots(),
                &self.config.cost_model,
                &self.portfolio_config(),
                self.config.thread_budget.as_deref(),
            )
        });
        let explored = ex.members.iter().map(|(_, m)| m.explored).sum();
        let (cost, proven, lower_bound, pruned) =
            (ex.winning().1.cost, ex.proven_optimal, ex.lower_bound, ex.pruned);
        let (winner, selection) = ex.into_winner();
        if let Some((cache, _, sel_key)) = self.cache {
            let (selection, winner) = (selection.serialize(), winner.to_string());
            let entry = SelEntry { selection, cost, proven, winner, explored, lower_bound, pruned };
            cache.put_sel(sel_key, &entry);
        }
        Chosen {
            selection,
            cost,
            proven,
            winner,
            explored,
            lower_bound,
            pruned,
            tuning: None,
            time,
        }
    }

    /// Step ③, code generation from the chosen selection.
    pub(crate) fn lower(&self, sat: &Saturated, chosen: &Chosen) -> (Block, Duration) {
        let opts = CodegenOptions { bulk_load: self.variant.bulk_loads() };
        timed("codegen", || generate(&sat.kernel, &chosen.selection, self.tm, &opts))
    }

    /// Close a walk: pair the lowered body with the kernel's statistics.
    /// The only place an [`OptStats`] is built.
    pub(crate) fn finish(
        &self,
        sat: Saturated,
        chosen: Chosen,
        (body, codegen_time): (Block, Duration),
    ) -> (Block, OptStats) {
        let stats = OptStats {
            function: self.function.to_string(),
            ssa_codegen: sat.ssa_time + codegen_time,
            saturation: sat.sat_time,
            extraction: chosen.time,
            egraph_nodes: sat.kernel.egraph.total_nodes(),
            saturation_iters: sat.iters,
            stop_reason: sat.stop,
            rule_stats: sat.rule_stats,
            iteration_counts: sat.iter_counts,
            extracted_cost: chosen.cost,
            extraction_proven: chosen.proven,
            extraction_winner: chosen.winner,
            extraction_explored: chosen.explored,
            extraction_lower_bound: chosen.lower_bound,
            extraction_pruned: chosen.pruned,
            tuning: chosen.tuning,
            cache_level: sat.level,
        };
        (body, stats)
    }
}

/// Optimize every function of a program.
pub fn optimize_program(
    prog: &Program,
    variant: Variant,
) -> Result<(Program, Vec<OptStats>), String> {
    optimize_program_with(prog, variant, &SaturatorConfig::default())
}

/// Optimize with an explicit configuration.
pub fn optimize_program_with(
    prog: &Program,
    variant: Variant,
    config: &SaturatorConfig,
) -> Result<(Program, Vec<OptStats>), String> {
    let mut functions = Vec::with_capacity(prog.functions.len());
    let mut stats = Vec::new();
    for f in &prog.functions {
        let (nf, st) = optimize_function(f, variant, config)?;
        functions.push(nf);
        stats.extend(st);
    }
    Ok((Program { functions }, stats))
}

/// The message of a caught panic, for the drivers that isolate one: the
/// fuzzer's findings, `batch`'s error exit and the `serve` worker's reply.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    let text = payload.downcast_ref::<String>().map(String::as_str);
    text.or_else(|| payload.downcast_ref::<&str>().copied()).unwrap_or("<non-string panic>")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_spellings_have_one_table() {
        for v in [Variant::Original].into_iter().chain(Variant::all()) {
            assert_eq!(Variant::parse(v.label()), Some(v));
            assert_eq!(Variant::parse(&v.label().to_lowercase().replace('+', "-")), Some(v));
        }
        assert_eq!(Variant::parse("cse+bulk"), Some(Variant::CseBulk));
        assert_eq!(Variant::parse("nope"), None);
        assert_eq!(Variant::parse(""), None);
    }
    use accsat_ir::parse_program;

    #[test]
    fn variant_properties() {
        assert!(!Variant::Cse.saturates());
        assert!(!Variant::Cse.bulk_loads());
        assert!(Variant::CseSat.saturates());
        assert!(!Variant::CseSat.bulk_loads());
        assert!(!Variant::CseBulk.saturates());
        assert!(Variant::CseBulk.bulk_loads());
        assert!(Variant::AccSat.saturates());
        assert!(Variant::AccSat.bulk_loads());
    }

    #[test]
    fn stats_are_populated() {
        let src = r#"
void k(double a[32], double out[32], double c) {
  #pragma acc parallel loop gang vector
  for (int i = 1; i < 31; i++) {
    out[i] = c * a[i - 1] + c * a[i] + c * a[i + 1];
  }
}
"#;
        let prog = parse_program(src).unwrap();
        let (_, stats) = optimize_program(&prog, Variant::AccSat).unwrap();
        assert_eq!(stats.len(), 1);
        let s = &stats[0];
        assert_eq!(s.function, "k");
        assert!(s.egraph_nodes > 10);
        assert!(s.extracted_cost > 0);
        assert!(s.stop_reason.is_some());
        assert!(!s.rule_stats.is_empty(), "saturating variants report per-rule stats");
        assert!(s.rule_stats.iter().any(|r| r.matches > 0));
    }

    #[test]
    fn non_saturating_variants_have_no_rule_stats() {
        let src = r#"
void k(double a[8], double out[8]) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 8; i++) {
    out[i] = a[i] + a[i];
  }
}
"#;
        let prog = parse_program(src).unwrap();
        let (_, stats) = optimize_program(&prog, Variant::Cse).unwrap();
        assert!(stats.iter().all(|s| s.rule_stats.is_empty()));
    }

    #[test]
    fn tune_function_simulated_winner_beats_all_candidates() {
        let src = r#"
void k(double a[256], double out[256], double c) {
  #pragma acc parallel loop gang vector
  for (int i = 1; i < 255; i++) {
    out[i] = c * a[i - 1] + c * a[i] + c * a[i + 1] + a[i] / c;
  }
}
"#;
        let prog = parse_program(src).unwrap();
        let config = SaturatorConfig::default();
        let tcfg = TuneConfig::default();
        let (tuned, stats) =
            tune_function(&prog.functions[0], Variant::AccSat, &config, &tcfg, &HashMap::new())
                .unwrap();
        assert_eq!(stats.len(), 1);
        let t = stats[0].tuning.as_ref().expect("tune mode records tuning");
        assert!(!t.candidates.is_empty());
        for c in &t.candidates {
            assert!(t.winning().cycles <= c.cycles, "winner must have minimal cycles");
        }
        assert_eq!(stats[0].extracted_cost, t.winning().static_cost);
        assert_eq!(stats[0].extraction_winner, "tune");
        // the tuned function still carries its directive and parses back
        let text = accsat_ir::print_program(&accsat_ir::Program { functions: vec![tuned] });
        assert!(text.contains("#pragma acc parallel loop"));
        assert!(parse_program(&text).is_ok());
    }

    /// Cold, `saturated` resume, `selected` resume and the fuzzer's checked
    /// walk are four orders of the same stages: same body, same
    /// deterministic statistics, on every suite kernel. The tune walk
    /// picks by another objective but shares the saturation half.
    #[test]
    fn the_four_walks_agree_on_all_19_suite_kernels() {
        let fast = |cache| {
            let limits = RunnerLimits { node_limit: 1500, iter_limit: 3, ..Default::default() };
            SaturatorConfig { limits, extraction_node_budget: 10_000, cache, ..Default::default() }
        };
        let v = Variant::AccSat;
        let mut kernels = 0;
        for b in accsat_benchmarks::all_benchmarks() {
            for f in &parse_program(&b.acc_source).unwrap().functions {
                let (cold_f, cold) = optimize_function(f, v, &fast(None)).unwrap();
                let agrees = |walk: &str, level, (got_f, got): (Function, Vec<OptStats>)| {
                    assert_eq!(got_f, cold_f, "{} {}: {walk} walk body", b.name, f.name);
                    let (got_d, cold_d): (Vec<_>, Vec<_>) = got
                        .iter()
                        .zip(&cold)
                        .map(|(g, c)| (g.deterministic(), c.deterministic()))
                        .unzip();
                    assert_eq!(got_d, cold_d, "{} {}: {walk} walk stats", b.name, f.name);
                    assert!(got.iter().all(|s| s.cache_level == level), "{walk} walk level");
                };

                let filled = Arc::new(StageCache::in_memory());
                let cfg = fast(Some(filled.clone()));
                agrees("filling", CacheLevel::Miss, optimize_function(f, v, &cfg).unwrap());
                agrees("selected", CacheLevel::Selected, optimize_function(f, v, &cfg).unwrap());

                // a cache that holds the snapshots and nothing else
                let snapshots = Arc::new(StageCache::in_memory());
                for l in accsat_ir::innermost_parallel_loops(f) {
                    let key = sat_stage_key(&l.body, v, &cfg);
                    snapshots.put_sat(key, &filled.get_sat(key).expect("filled above"));
                }
                let resumed = optimize_function(f, v, &fast(Some(snapshots))).unwrap();
                agrees("saturated", CacheLevel::Saturated, resumed);

                let fc = crate::FuzzConfig { saturator: fast(None), ..Default::default() };
                let (checked_f, findings) = crate::fuzz::optimize_checked(f, v, &fc).unwrap();
                assert_eq!(checked_f, cold_f, "{} {}: checked walk body", b.name, f.name);
                assert_eq!(findings, Vec::new());

                let (tcfg, before) = (TuneConfig::default(), filled.stats());
                let (_, tuned) = tune_function(f, v, &cfg, &tcfg, &b.bindings_map()).unwrap();
                assert_eq!(filled.stats(), before, "tune never probes or fills the cache");
                for (t, c) in tuned.iter().zip(&cold) {
                    assert_eq!(
                        (t.egraph_nodes, t.saturation_iters, t.stop_reason),
                        (c.egraph_nodes, c.saturation_iters, c.stop_reason)
                    );
                    assert_eq!(
                        (&t.rule_stats, &t.iteration_counts),
                        (&c.rule_stats, &c.iteration_counts)
                    );
                    assert_eq!((t.cache_level, t.extraction_winner), (CacheLevel::Miss, "tune"));
                }
                assert_eq!(tuned.len(), cold.len());
                kernels += cold.len();
            }
        }
        assert_eq!(kernels, 19);
    }

    /// A `selected` entry with text appended after its selection's end
    /// marker is corrupt: the walk falls back to the `saturated` snapshot,
    /// prints the cold bytes and overwrites the entry.
    #[test]
    fn an_appended_to_selected_entry_is_a_miss_and_overwritten() {
        let src = r#"
void k(double a[32], double out[32], double c) {
  #pragma acc parallel loop gang vector
  for (int i = 1; i < 31; i++) {
    out[i] = c * a[i - 1] + c * a[i] + c * a[i + 1];
  }
}
"#;
        let cache = std::sync::Arc::new(crate::cache::StageCache::in_memory());
        let cfg = SaturatorConfig { cache: Some(cache.clone()), ..SaturatorConfig::default() };
        let (cold, _, _) = crate::optimize_source(src, Variant::AccSat, &cfg).unwrap();
        let prog = parse_program(src).unwrap();
        let body = &accsat_ir::innermost_parallel_loops(&prog.functions[0])[0].body;
        let key = crate::sel_stage_key(body, Variant::AccSat, &cfg);
        let mut entry = cache.get_sel(key).unwrap();
        entry.selection.push_str("0 s:a 0\n");
        cache.put_sel(key, &entry);
        let (out, _, level) = crate::optimize_source(src, Variant::AccSat, &cfg).unwrap();
        assert_eq!((out.as_str(), level), (cold.as_str(), CacheLevel::Saturated));
        let (out, _, level) = crate::optimize_source(src, Variant::AccSat, &cfg).unwrap();
        assert_eq!((out.as_str(), level), (cold.as_str(), CacheLevel::Selected));
    }

    #[test]
    fn multiple_kernels_in_one_function() {
        let src = r#"
void two(double a[32], double b[32]) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 32; i++) {
    a[i] = a[i] * 2.0;
  }
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 32; i++) {
    b[i] = b[i] + 1.0;
  }
}
"#;
        let prog = parse_program(src).unwrap();
        let (_, stats) = optimize_program(&prog, Variant::Cse).unwrap();
        assert_eq!(stats.len(), 2);
    }
}
