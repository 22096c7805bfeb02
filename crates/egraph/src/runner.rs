//! The saturation runner: applies a rule set until saturation or until the
//! paper's limits are hit (10 000 e-nodes, 10 iterations, 10 seconds).
//!
//! Matching is the compiled pattern VM ([`crate::machine`]) with
//! operator-indexed candidate lookup, incremental dirty-class search after
//! the first iteration, per-rule match/apply statistics, and a backoff
//! scheduler that temporarily benches rules whose match counts explode
//! (commutativity/associativity on large graphs).

use crate::dense::ClassSet;
use crate::egraph::EGraph;
use crate::fxhash::FxHashSet;
use crate::machine::VarSubst;
use crate::node::Id;
use crate::pool::ThreadBudget;
use crate::rewrite::{Rewrite, RuleMatch};
use accsat_obs::trace;
use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why the runner stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// No rule produced a change: the e-graph is saturated.
    Saturated,
    /// The e-node budget was exhausted.
    NodeLimit,
    /// The iteration budget was exhausted.
    IterLimit,
    /// The wall-clock budget was exhausted.
    TimeLimit,
}

/// Runner limits. Defaults mirror the paper's §VII configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunnerLimits {
    /// Stop once the e-graph holds this many e-nodes (paper: 10 000).
    pub node_limit: usize,
    /// Maximum saturation iterations (paper: 10).
    pub iter_limit: usize,
    /// Wall-clock budget for the whole run (paper: 10 s).
    pub time_limit: Duration,
}

impl Default for RunnerLimits {
    fn default() -> RunnerLimits {
        RunnerLimits { node_limit: 10_000, iter_limit: 10, time_limit: Duration::from_secs(10) }
    }
}

/// Backoff-scheduler configuration: a rule matching more than
/// `match_limit` substitutions in one iteration is banned for `ban_length`
/// iterations; each subsequent ban doubles both numbers (as in egg's
/// `BackoffScheduler`).
#[derive(Debug, Clone, Copy)]
pub struct BackoffConfig {
    /// Matches per iteration above which a rule is banned.
    pub match_limit: usize,
    /// Iterations a first ban lasts (doubles per subsequent ban).
    pub ban_length: usize,
}

impl Default for BackoffConfig {
    fn default() -> BackoffConfig {
        BackoffConfig { match_limit: 1000, ban_length: 5 }
    }
}

/// Per-iteration statistics: the deterministic counters plus the wall
/// time of each phase.
#[derive(Debug, Clone, Default)]
pub struct IterationStats {
    /// The iteration's deterministic counters.
    pub counts: IterCounts,
    /// Wall time of the search phase (dirty-set snapshot, rule matching,
    /// backoff accounting). Observability only — wall-clock fields never
    /// reach the stable JSON reports.
    pub search_time: Duration,
    /// Wall time of the serial apply phase (dedup + rule instantiation).
    pub apply_time: Duration,
    /// Wall time of the single congruence rebuild closing the iteration.
    pub rebuild_time: Duration,
}

/// The deterministic counters of one iteration — [`IterationStats`] with
/// the wall-clock fields stripped. This is what the metrics registry
/// aggregates and the stage cache persists, so a cache hit replays the
/// exact same metrics the original run produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IterCounts {
    /// Substitutions found by the search phase (before dedup).
    pub matches: usize,
    /// Rule applications that changed the e-graph (deduplicated,
    /// canonicalized — each counted union is real work).
    pub applied: usize,
    /// E-nodes ever added, as of the end of the iteration.
    pub total_nodes: usize,
    /// Live e-classes at the end of the iteration.
    pub num_classes: usize,
}

/// Cumulative per-rule statistics over a saturation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleStats {
    /// Rule name.
    pub name: String,
    /// Substitutions yielded by search.
    pub matches: usize,
    /// Applications that changed the e-graph.
    pub applied: usize,
    /// How many times the backoff scheduler banned the rule.
    pub times_banned: usize,
    /// Iterations spent banned.
    pub banned_iters: usize,
}

/// Result of a saturation run.
#[derive(Debug, Clone)]
pub struct RunnerReport {
    /// Why the run stopped.
    pub stop_reason: StopReason,
    /// Per-iteration statistics, in order.
    pub iterations: Vec<IterationStats>,
    /// Cumulative per-rule statistics, in rule order.
    pub rule_stats: Vec<RuleStats>,
    /// Total wall-clock time of the run.
    pub elapsed: Duration,
}

impl RunnerReport {
    /// Total number of rule applications across all iterations.
    pub fn total_applied(&self) -> usize {
        self.iterations.iter().map(|i| i.counts.applied).sum()
    }

    /// Total number of substitutions found across all iterations.
    pub fn total_matches(&self) -> usize {
        self.iterations.iter().map(|i| i.counts.matches).sum()
    }

    /// Cumulative wall time of the search phases.
    pub fn search_time(&self) -> Duration {
        self.iterations.iter().map(|i| i.search_time).sum()
    }

    /// Cumulative wall time of the apply phases.
    pub fn apply_time(&self) -> Duration {
        self.iterations.iter().map(|i| i.apply_time).sum()
    }

    /// Cumulative wall time of the rebuild phases.
    pub fn rebuild_time(&self) -> Duration {
        self.iterations.iter().map(|i| i.rebuild_time).sum()
    }

    /// The wall-clock-free per-iteration counters, in iteration order.
    pub fn iteration_counts(&self) -> Vec<IterCounts> {
        self.iterations.iter().map(|i| i.counts).collect()
    }
}

/// Classes a benched rule still owes a search over, accumulated while the
/// ban is active and consumed (together with the current dirty set) when it
/// lifts.
#[derive(Debug, Clone, Default)]
enum Pending {
    /// Nothing deferred.
    #[default]
    Empty,
    /// These classes must be re-searched.
    Classes(ClassSet),
    /// A whole-graph search is owed.
    Full,
}

impl Pending {
    fn merge_dirty(&mut self, dirty: Option<&ClassSet>) {
        match (std::mem::take(self), dirty) {
            (_, None) | (Pending::Full, _) => *self = Pending::Full,
            (Pending::Empty, Some(d)) => {
                if !d.is_empty() {
                    *self = Pending::Classes(d.clone());
                }
            }
            (Pending::Classes(mut p), Some(d)) => {
                p.union_with(d);
                *self = Pending::Classes(p);
            }
        }
    }
}

#[derive(Debug, Clone, Default)]
struct RuleState {
    /// First iteration index at which the rule may run again.
    banned_until: usize,
    times_banned: usize,
    pending: Pending,
}

/// The equality-saturation runner.
pub struct Runner {
    /// Node / iteration / wall-clock limits (defaults mirror §VII).
    pub limits: RunnerLimits,
    /// The compiled rule set. Behind an [`Arc`] so a batch driver can
    /// compile the rules once and share them across every kernel and
    /// worker thread ([`Runner::from_shared`]).
    pub rules: Arc<Vec<Rewrite>>,
    /// `None` disables the backoff scheduler (every rule runs every
    /// iteration, as in the seed).
    pub backoff: Option<BackoffConfig>,
}

impl Runner {
    /// New runner with the given rules, default (paper) limits and the
    /// default backoff scheduler.
    pub fn new(rules: Vec<Rewrite>) -> Runner {
        Runner::from_shared(Arc::new(rules))
    }

    /// New runner over an already-compiled shared rule set. Cloning the
    /// `Arc` is free — this is the constructor the parallel batch driver
    /// uses so rules are compiled once per process, not once per kernel.
    pub fn from_shared(rules: Arc<Vec<Rewrite>>) -> Runner {
        Runner { limits: RunnerLimits::default(), rules, backoff: Some(BackoffConfig::default()) }
    }

    /// Override the limits.
    pub fn with_limits(mut self, limits: RunnerLimits) -> Runner {
        self.limits = limits;
        self
    }

    /// Override (or disable, with `None`) the backoff scheduler.
    pub fn with_backoff(mut self, backoff: Option<BackoffConfig>) -> Runner {
        self.backoff = backoff;
        self
    }

    /// Does nothing and returns `self`; kept for the `perf` replay, which
    /// still calls it. The search runs on the calling thread.
    pub fn with_sat_threads(self, _threads: usize) -> Runner {
        self
    }

    /// Does nothing and returns `self`; kept for the `perf` replay, which
    /// still calls it. Saturation leases no threads.
    pub fn with_budget(self, _budget: Option<Arc<ThreadBudget>>) -> Runner {
        self
    }

    /// Run saturation on `eg` until a stop condition is reached.
    pub fn run(&self, eg: &mut EGraph) -> RunnerReport {
        let _run_span =
            trace::span_args("sat", "runner.run", || vec![("rules", self.rules.len().into())]);
        let start = Instant::now();
        let mut iterations = Vec::new();
        let mut rule_stats: Vec<RuleStats> = self
            .rules
            .iter()
            .map(|r| RuleStats { name: r.name.clone(), ..Default::default() })
            .collect();
        let mut states: Vec<RuleState> = vec![RuleState::default(); self.rules.len()];
        // (rule, root, subst) triples already applied, persisted across
        // iterations: re-finding an identical canonical match later (the
        // dirty-class search re-yields every match in a touched class, and
        // commutative rules report one instantiation from several e-nodes)
        // is a guaranteed no-op union, so it is skipped before the apply
        // phase rather than re-instantiated.
        let mut seen: FxHashSet<(usize, Id, VarSubst)> = FxHashSet::default();

        let stop_reason = loop {
            let it = iterations.len();
            let _iter_span = trace::span_args("sat", "iteration", || {
                vec![("iter", it.into()), ("nodes", eg.total_nodes().into())]
            });
            if it >= self.limits.iter_limit {
                break StopReason::IterLimit;
            }
            // wall-clock safety valve, checked at iteration boundaries
            // only, so a run it stops still ends on a whole iteration. The
            // node and iteration budgets are what normally stop a run.
            if start.elapsed() >= self.limits.time_limit {
                break StopReason::TimeLimit;
            }
            if eg.total_nodes() >= self.limits.node_limit {
                break StopReason::NodeLimit;
            }

            // 1. search. The first iteration scans every op-index candidate;
            // later iterations re-search only classes touched since the
            // previous rebuild (closed over parents), plus whatever benched
            // rules still owe. Every rule searches the same frozen graph, in
            // rule order; a rule over its match limit is benched and its
            // matches dropped, the rest are applied after every rule has
            // searched.
            let t_search = Instant::now();
            let search_span = trace::span("sat", "search");
            let dirty: Option<ClassSet> = if it == 0 {
                eg.clear_search_dirty();
                None
            } else {
                Some(eg.take_search_dirty())
            };
            let mut to_apply: Vec<(usize, Vec<RuleMatch>)> = Vec::with_capacity(self.rules.len());
            let mut found = 0usize;
            for ri in 0..self.rules.len() {
                if states[ri].banned_until > it {
                    rule_stats[ri].banned_iters += 1;
                    states[ri].pending.merge_dirty(dirty.as_ref());
                    continue;
                }
                // `None` searches the whole graph (first iteration, or a
                // deferred full search); otherwise the shared dirty set, or
                // the deferred classes merged with it
                let restrict: Option<Cow<ClassSet>> =
                    match (std::mem::take(&mut states[ri].pending), dirty.as_ref()) {
                        (Pending::Full, _) | (_, None) => None,
                        (Pending::Empty, Some(d)) => Some(Cow::Borrowed(d)),
                        (Pending::Classes(mut p), Some(d)) => {
                            p.union_with(d);
                            Some(Cow::Owned(p))
                        }
                    };
                let matches = {
                    let _rule_span =
                        trace::span_named("sat.rule", || format!("search {}", self.rules[ri].name));
                    self.rules[ri].search_filtered(eg, restrict.as_deref())
                };
                found += matches.len();
                rule_stats[ri].matches += matches.len();
                if let Some(cfg) = self.backoff {
                    let shift = states[ri].times_banned.min(16) as u32;
                    if matches.len() > cfg.match_limit << shift {
                        // bench the rule and queue the searched classes for
                        // re-search when the ban lifts
                        states[ri].banned_until = it + 1 + (cfg.ban_length << shift);
                        states[ri].times_banned += 1;
                        rule_stats[ri].times_banned += 1;
                        states[ri].pending = match restrict {
                            None => Pending::Full,
                            Some(set) => Pending::Classes(set.into_owned()),
                        };
                        continue;
                    }
                }
                to_apply.push((ri, matches));
            }
            let search_time = t_search.elapsed();
            drop(search_span);

            // 2. apply every distinct match, then restore congruence once.
            // Match roots and substitutions are canonical as of the search
            // (the VM canonicalizes while matching), so the dedup key needs
            // no extra `find` calls; `apply_match` canonicalizes internally
            // and `applied` counts only unions that changed the graph. One
            // insert-probe per match both filters repeats and records the
            // key: applying never reads `seen`, so recording a key before
            // its application leaves the set and every skip as they would
            // be recorded after it.
            let t_apply = Instant::now();
            let apply_span = trace::span("sat", "apply");
            let mut applied = 0usize;
            seen.reserve(to_apply.iter().map(|(_, m)| m.len()).sum());
            'apply: for (ri, matches) in to_apply {
                for RuleMatch { class, subst } in matches {
                    if eg.total_nodes() >= self.limits.node_limit {
                        break 'apply;
                    }
                    if !seen.insert((ri, class, subst.clone())) {
                        continue;
                    }
                    if self.rules[ri].apply_match(eg, class, &subst) {
                        applied += 1;
                        rule_stats[ri].applied += 1;
                    }
                }
            }
            let apply_time = t_apply.elapsed();
            drop(apply_span);
            let t_rebuild = Instant::now();
            {
                let _rebuild_span = trace::span("sat", "rebuild");
                eg.rebuild();
            }
            let rebuild_time = t_rebuild.elapsed();
            trace::counter("sat", "egraph.nodes", eg.total_nodes() as u64);
            trace::counter("sat", "egraph.classes", eg.num_classes() as u64);

            iterations.push(IterationStats {
                counts: IterCounts {
                    matches: found,
                    applied,
                    total_nodes: eg.total_nodes(),
                    num_classes: eg.num_classes(),
                },
                search_time,
                apply_time,
                rebuild_time,
            });

            // saturated only when nothing changed AND no benched rule still
            // owes a deferred search
            let owes = states.iter().any(|s| !matches!(s.pending, Pending::Empty));
            if applied == 0 && !owes {
                break StopReason::Saturated;
            }
        };
        RunnerReport { stop_reason, iterations, rule_stats, elapsed: start.elapsed() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Node, Op};
    use crate::rules::all_rules;

    fn chain_add(eg: &mut EGraph, names: &[&str]) -> Vec<crate::node::Id> {
        names.iter().map(|n| eg.add(Node::sym(n))).collect()
    }

    #[test]
    fn saturates_small_graph() {
        let mut eg = EGraph::new();
        let ids = chain_add(&mut eg, &["a", "b"]);
        let _sum = eg.add(Node::new(Op::Add, vec![ids[0], ids[1]]));
        let runner = Runner::new(vec![Rewrite::new("comm-add", "(+ ?a ?b)", "(+ ?b ?a)")]);
        let report = runner.run(&mut eg);
        assert_eq!(report.stop_reason, StopReason::Saturated);
        assert!(report.iterations.len() <= 3);
    }

    #[test]
    fn comm_assoc_proves_reassociation() {
        // (a + b) + c  ==  a + (b + c) under assoc rules
        let mut eg = EGraph::new();
        let ids = chain_add(&mut eg, &["a", "b", "c"]);
        let ab = eg.add(Node::new(Op::Add, vec![ids[0], ids[1]]));
        let abc1 = eg.add(Node::new(Op::Add, vec![ab, ids[2]]));
        let bc = eg.add(Node::new(Op::Add, vec![ids[1], ids[2]]));
        let abc2 = eg.add(Node::new(Op::Add, vec![ids[0], bc]));
        assert!(!eg.same(abc1, abc2));
        let runner = Runner::new(all_rules());
        let report = runner.run(&mut eg);
        assert!(eg.same(abc1, abc2), "associativity must merge the two sums");
        assert!(matches!(report.stop_reason, StopReason::Saturated | StopReason::IterLimit));
    }

    #[test]
    fn fma_discovered_through_commutativity() {
        // b * c + a  —  needs COMM-ADD then FMA1 (paper Fig. 1 step II)
        let mut eg = EGraph::new();
        let ids = chain_add(&mut eg, &["a", "b", "c"]);
        let bc = eg.add(Node::new(Op::Mul, vec![ids[1], ids[2]]));
        let sum = eg.add(Node::new(Op::Add, vec![bc, ids[0]]));
        let runner = Runner::new(all_rules());
        runner.run(&mut eg);
        assert!(eg.nodes(sum).any(|n| *n.op == Op::Fma), "FMA must appear in the sum's class");
    }

    #[test]
    fn node_limit_stops_growth() {
        let mut eg = EGraph::new();
        // big associative sum: saturation would explode; the limit must bite
        let leaves: Vec<_> = (0..12).map(|i| eg.add(Node::sym(&format!("x{i}")))).collect();
        let mut acc = leaves[0];
        for &l in &leaves[1..] {
            acc = eg.add(Node::new(Op::Add, vec![acc, l]));
        }
        let limits = RunnerLimits { node_limit: 200, ..Default::default() };
        let runner = Runner::new(all_rules()).with_limits(limits);
        let report = runner.run(&mut eg);
        assert_eq!(report.stop_reason, StopReason::NodeLimit);
        // the budget can be overshot only by the last iteration's additions
        assert!(eg.total_nodes() < 200 * 20);
    }

    #[test]
    fn iter_limit_respected() {
        let mut eg = EGraph::new();
        let leaves: Vec<_> = (0..8).map(|i| eg.add(Node::sym(&format!("x{i}")))).collect();
        let mut acc = leaves[0];
        for &l in &leaves[1..] {
            acc = eg.add(Node::new(Op::Mul, vec![acc, l]));
        }
        let limits = RunnerLimits { iter_limit: 2, node_limit: usize::MAX, ..Default::default() };
        let runner = Runner::new(all_rules()).with_limits(limits);
        let report = runner.run(&mut eg);
        assert!(report.iterations.len() <= 2);
    }

    #[test]
    fn constant_folding_composes_with_rules() {
        // (x + 1) + 2 → x + (1 + 2) → x + 3 via assoc + folding
        let mut eg = EGraph::new();
        let x = eg.add(Node::sym("x"));
        let one = eg.add(Node::int(1));
        let two = eg.add(Node::int(2));
        let x1 = eg.add(Node::new(Op::Add, vec![x, one]));
        let x12 = eg.add(Node::new(Op::Add, vec![x1, two]));
        let runner = Runner::new(all_rules());
        runner.run(&mut eg);
        let three = eg.add(Node::int(3));
        let x3 = eg.add(Node::new(Op::Add, vec![x, three]));
        assert!(eg.same(x12, x3), "folding must discover x + 3");
    }

    #[test]
    fn dedup_counts_each_union_once() {
        // (+ a b) with COMM-ADD: once (+ b a) exists, the rule matches both
        // node orders but instantiates the same classes — the dedup must
        // collapse them, so the second iteration applies nothing.
        let mut eg = EGraph::new();
        let ids = chain_add(&mut eg, &["a", "b"]);
        let _sum = eg.add(Node::new(Op::Add, vec![ids[0], ids[1]]));
        let runner = Runner::new(vec![Rewrite::new("comm-add", "(+ ?a ?b)", "(+ ?b ?a)")]);
        let report = runner.run(&mut eg);
        assert_eq!(report.stop_reason, StopReason::Saturated);
        let total: usize = report.iterations.iter().map(|i| i.counts.applied).sum();
        assert_eq!(total, 1, "one real union: {:?}", report.iterations);
    }

    #[test]
    fn per_rule_stats_accumulate() {
        let mut eg = EGraph::new();
        let ids = chain_add(&mut eg, &["a", "b", "c"]);
        let bc = eg.add(Node::new(Op::Mul, vec![ids[1], ids[2]]));
        let _sum = eg.add(Node::new(Op::Add, vec![bc, ids[0]]));
        let report = Runner::new(all_rules()).run(&mut eg);
        assert_eq!(report.rule_stats.len(), all_rules().len());
        let comm = report.rule_stats.iter().find(|s| s.name == "COMM-ADD").unwrap();
        assert!(comm.matches > 0);
        assert!(comm.applied > 0);
        let fma = report.rule_stats.iter().find(|s| s.name == "FMA1").unwrap();
        assert!(fma.applied > 0, "FMA1 must fire after COMM-ADD: {:?}", report.rule_stats);
        assert_eq!(
            report.total_matches(),
            report.iterations.iter().map(|i| i.counts.matches).sum()
        );
    }

    #[test]
    fn backoff_benches_exploding_rule() {
        // an 8-leaf multiplication chain explodes under comm+assoc; with a
        // tiny match limit the scheduler must ban and record it
        let mut eg = EGraph::new();
        let leaves: Vec<_> = (0..8).map(|i| eg.add(Node::sym(&format!("x{i}")))).collect();
        let mut acc = leaves[0];
        for &l in &leaves[1..] {
            acc = eg.add(Node::new(Op::Mul, vec![acc, l]));
        }
        let backoff = BackoffConfig { match_limit: 8, ban_length: 1 };
        let limits = RunnerLimits { iter_limit: 6, node_limit: 4000, ..Default::default() };
        let runner = Runner::new(all_rules()).with_limits(limits).with_backoff(Some(backoff));
        let report = runner.run(&mut eg);
        let banned: usize = report.rule_stats.iter().map(|s| s.times_banned).sum();
        assert!(banned > 0, "scheduler must bench at least one rule: {:?}", report.rule_stats);
        // the run must not be reported as saturated while work is benched
        if report.stop_reason == StopReason::Saturated {
            let last = report.iterations.last().unwrap();
            assert_eq!(last.counts.applied, 0);
        }
    }

    /// Phase timings are recorded for every iteration and sum into the
    /// report accessors.
    #[test]
    fn phase_timings_populated() {
        let mut eg = EGraph::new();
        let ids = chain_add(&mut eg, &["a", "b", "c"]);
        let bc = eg.add(Node::new(Op::Mul, vec![ids[1], ids[2]]));
        let _sum = eg.add(Node::new(Op::Add, vec![bc, ids[0]]));
        let report = Runner::new(all_rules()).run(&mut eg);
        assert!(!report.iterations.is_empty());
        let total = report.search_time() + report.apply_time() + report.rebuild_time();
        assert!(total <= report.elapsed, "phases cannot exceed the whole run");
        let per_iter: Duration =
            report.iterations.iter().map(|i| i.search_time + i.apply_time + i.rebuild_time).sum();
        assert_eq!(per_iter, total);
    }

    #[test]
    fn backoff_ban_lifts_and_work_completes() {
        // with a ban in the middle, the final equalities must still appear
        // once the ban lifts (deferred classes are re-searched)
        let mut eg = EGraph::new();
        let ids = chain_add(&mut eg, &["a", "b", "c"]);
        let ab = eg.add(Node::new(Op::Add, vec![ids[0], ids[1]]));
        let abc1 = eg.add(Node::new(Op::Add, vec![ab, ids[2]]));
        let bc = eg.add(Node::new(Op::Add, vec![ids[1], ids[2]]));
        let abc2 = eg.add(Node::new(Op::Add, vec![ids[0], bc]));
        let backoff = BackoffConfig { match_limit: 2, ban_length: 1 };
        let runner = Runner::new(all_rules()).with_backoff(Some(backoff));
        runner.run(&mut eg);
        assert!(eg.same(abc1, abc2), "deferred searches must complete after bans lift");
    }
}
