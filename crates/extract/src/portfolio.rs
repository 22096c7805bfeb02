//! Deadline-aware extraction portfolio: diversified branch-and-bound
//! searches racing on worker threads.
//!
//! The paper gives extraction a 30-second budget and falls back to the
//! incumbent when the LP solver runs out of time (§VII). This module
//! spends such a budget better than one search can: several
//! branch-and-bound configurations — different class orderings and
//! candidate orderings ([`SearchOptions`]) — explore *different* search
//! trees over the same e-graph, each seeded with the greedy incumbent,
//! and the best result wins.
//!
//! # Determinism
//!
//! Batch runs must be reproducible, so the portfolio is engineered to
//! return byte-identical selections for a fixed [`PortfolioConfig`]:
//!
//! * every worker's budget is a deterministic *explored-node count*, not a
//!   wall-clock slice (the wall-clock deadline exists as a safety valve
//!   and is generous enough that the node budget binds first);
//! * workers never exchange incumbents mid-search (sharing would make
//!   pruning timing-dependent), and no worker cancels another;
//! * the winner is chosen after **all** workers finish, by lowest cost
//!   with ties broken by the fixed strategy order — never by completion
//!   order.
//!
//! Consequently the result depends only on the e-graph, the cost model
//! and the config — not on thread scheduling — and a portfolio of width
//! `n` returns the same selection whether its workers run concurrently or
//! one after another.

use crate::bnb::{extract_exact_in, ClassOrder, SearchContext, SearchOptions};
use crate::cost::CostModel;
use crate::greedy::extract_greedy;
use crate::selection::Selection;
use accsat_egraph::{EGraph, Id, ThreadBudget};
use accsat_obs::trace;
use std::time::Duration;

/// The fixed strategy table the portfolio draws from, in priority order.
/// A portfolio of width `n` runs the first `n` entries.
const STRATEGIES: &[(&str, ClassOrder, bool)] = &[
    ("bnb-bestfirst", ClassOrder::BestFirst, false),
    ("bnb-heaviest", ClassOrder::HeaviestFirst, false),
    ("bnb-bestfirst-shared", ClassOrder::BestFirst, true),
    ("bnb-lifo", ClassOrder::Lifo, false),
];

/// Size of the fixed strategy table: the maximum useful portfolio width.
/// The autotuner harvests at this width so every strategy's selection
/// becomes a candidate.
pub const STRATEGY_COUNT: usize = STRATEGIES.len();

/// Map a strategy name (e.g. read back from a serialized cache entry) to
/// the interned `&'static str` the portfolio reports. `None` for unknown
/// names — the cache layer treats that as a corrupt entry and re-extracts.
pub fn intern_strategy(name: &str) -> Option<&'static str> {
    ["greedy", "refine"]
        .into_iter()
        .chain(STRATEGIES.iter().map(|&(n, _, _)| n))
        .find(|&n| n == name)
}

/// Portfolio configuration.
#[derive(Debug, Clone, Copy)]
pub struct PortfolioConfig {
    /// Number of racing branch-and-bound workers (clamped to the strategy
    /// table size). `1` runs the default strategy on the calling thread.
    pub threads: usize,
    /// Deterministic per-worker exploration budget (search-tree nodes).
    pub node_budget: u64,
    /// Wall-clock safety valve per worker, on top of the node budget.
    pub deadline: Duration,
}

impl Default for PortfolioConfig {
    fn default() -> PortfolioConfig {
        PortfolioConfig {
            threads: 2,
            node_budget: SearchOptions::default().node_budget,
            deadline: SearchOptions::default().deadline,
        }
    }
}

/// What one portfolio member reported.
#[derive(Debug, Clone)]
pub struct WorkerOutcome {
    /// Strategy name: from the fixed portfolio table, or `"greedy"` /
    /// `"refine"` for the shared incumbent member (always listed first;
    /// also the sole member when the bound check short-circuits).
    pub strategy: &'static str,
    /// DAG cost of the worker's best selection.
    pub cost: u64,
    /// Did the worker prove its selection optimal?
    pub proven_optimal: bool,
    /// Search-tree nodes the worker explored.
    pub explored: u64,
}

/// Result of a portfolio extraction.
#[derive(Debug, Clone)]
pub struct PortfolioResult {
    /// The winning selection.
    pub selection: Selection,
    /// DAG cost of the winning selection.
    pub cost: u64,
    /// `true` when some member proved optimality (the winner then has the
    /// optimal cost).
    pub proven_optimal: bool,
    /// Strategy name of the winning member.
    pub winner: &'static str,
    /// Per-member outcomes, in strategy order.
    pub workers: Vec<WorkerOutcome>,
    /// The strongest certified lower bound on the optimal DAG cost: the
    /// winning cost when `proven_optimal`, otherwise the static
    /// LP-relaxation root bound shared by every member.
    /// `cost - lower_bound` is the kernel's reported *bound gap*.
    pub lower_bound: u64,
    /// Candidates removed per pruning layer while building the shared
    /// [`SearchContext`] (deterministic — a function of the e-graph and
    /// cost model only). In layer order: orbit, dominance, closure.
    pub pruned: [usize; 3],
}

/// One member of a [`PortfolioHarvest`]: a complete selection with its
/// provenance, kept for downstream consumers (the autotuner) instead of
/// being discarded when it loses the static-cost race.
#[derive(Debug, Clone)]
pub struct HarvestedSelection {
    /// Strategy that produced this selection: `"greedy"` for the
    /// incumbent, `"refine"` for the DAG-aware refinement stage, or a
    /// branch-and-bound strategy name.
    pub strategy: &'static str,
    /// The selection itself.
    pub selection: Selection,
    /// DAG cost under the cost model the portfolio ran with.
    pub cost: u64,
    /// Did this member prove its selection optimal?
    pub proven_optimal: bool,
    /// Search-tree nodes explored (0 for the greedy incumbent).
    pub explored: u64,
}

/// Everything the portfolio found, not just the winner — the keep-K API.
///
/// `members[0]` is always the greedy incumbent; a `"refine"` member
/// follows whenever the refinement stage strictly improved on greedy;
/// the racing branch-and-bound strategies come after, in fixed strategy
/// order. Look members up by `strategy` name, not by position. The list
/// is deterministic for a fixed e-graph, cost model and config.
#[derive(Debug, Clone)]
pub struct PortfolioHarvest {
    /// All member selections: greedy, then the refined incumbent when it
    /// improves, then strategy order.
    pub members: Vec<HarvestedSelection>,
    /// Index of the winning member: lowest cost, ties broken toward the
    /// earlier member (matching [`extract_portfolio`] — a search only
    /// beats the incumbent it was seeded with by strictly improving).
    pub winner: usize,
    /// The strongest certified lower bound on the optimal DAG cost under
    /// the portfolio's cost model (see [`PortfolioResult::lower_bound`]).
    pub lower_bound: u64,
}

/// What the shared portfolio core produced.
struct PortfolioCore {
    /// The greedy incumbent (always computed, always a total cover).
    greedy: Selection,
    /// DAG cost of the greedy incumbent.
    greedy_cost: u64,
    /// The refined incumbent the searches were seeded with ("greedy" when
    /// refinement found nothing strictly better).
    incumbent: Selection,
    /// DAG cost of the refined incumbent.
    incumbent_cost: u64,
    /// Name of the incumbent member: `"greedy"` or `"refine"`.
    incumbent_name: &'static str,
    /// The incumbent met the LP root bound: provably optimal, no search.
    short_circuit: bool,
    /// The LP-relaxation root lower bound.
    root_bound: u64,
    /// Candidates removed by the orbit / dominance / closure pruning
    /// layers of the shared search context.
    pruned: [usize; 3],
    /// Per-strategy search results (empty on short circuit).
    results: Vec<(&'static str, crate::bnb::ExactResult)>,
}

/// Shared portfolio core: greedy incumbent, DAG-aware refinement
/// ([`crate::refine`]), then — unless some incumbent already meets the LP
/// root bound — the racing branch-and-bound strategies, every one seeded
/// with the best refined incumbent.
fn run_portfolio(
    eg: &EGraph,
    roots: &[Id],
    cm: &CostModel,
    config: &PortfolioConfig,
    budget: Option<&ThreadBudget>,
) -> PortfolioCore {
    let greedy = {
        let _span = trace::span("extract", "greedy");
        extract_greedy(eg, roots, cm)
    };
    let greedy_cost = greedy.dag_cost(eg, cm, roots);
    // built once, shared by every worker (the context is immutable and
    // Sync, candidate visit orders included)
    let cx = {
        let mut span = trace::span("extract", "context.build");
        let cx = SearchContext::build(eg, cm);
        span.record(|| {
            vec![
                ("ids", cx.ids().into()),
                ("slots", cx.slots().into()),
                ("lp_words", cx.lp().row_words().into()),
                ("rounds", cx.closure_rounds().into()),
            ]
        });
        cx
    };
    let pruned = [cx.orbit_pruned(), cx.dominance_pruned(), cx.closure_pruned()];
    let root_bound = cx.root_lower_bound(roots);
    if greedy_cost <= root_bound {
        // the incumbent meets the admissible bound: provably optimal
        // without any branching (and with no refinement wall cost)
        return PortfolioCore {
            incumbent: greedy.clone(),
            incumbent_cost: greedy_cost,
            incumbent_name: "greedy",
            greedy,
            greedy_cost,
            short_circuit: true,
            root_bound,
            pruned,
            results: Vec::new(),
        };
    }

    let refine_span = trace::span("extract", "refine");
    // DAG-aware refinement: hill-climb the greedy incumbent, and run the
    // sequential marginal greedy (completed from the greedy cover) with a
    // climb on top; the cheapest deterministic result seeds every search.
    // Ties prefer the plain greedy so unimprovable kernels keep their
    // previous selections byte-for-byte.
    let climbed = crate::refine::climb(eg, &cx, cm, roots, greedy.clone());
    let climbed_cost = climbed.dag_cost(eg, cm, roots);
    let marginal = crate::refine::marginal_greedy(eg, &cx, cm, roots).map(|mut m| {
        m.fill_from(&greedy);
        let m = crate::refine::climb(eg, &cx, cm, roots, m);
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
            (greedy.clone(), greedy_cost, "greedy")
        };
    drop(refine_span);
    if incumbent_cost <= root_bound {
        // the refined incumbent meets the bound: proven without search
        return PortfolioCore {
            greedy,
            greedy_cost,
            incumbent,
            incumbent_cost,
            incumbent_name,
            short_circuit: true,
            root_bound,
            pruned,
            results: Vec::new(),
        };
    }

    // `config.threads` fixes WHICH strategies run (the first `want` table
    // entries) and therefore the result set; how many OS threads actually
    // drain them is a separate, output-invisible question answered by the
    // shared budget when one is installed (two-level pool) or by `want`
    // itself when running standalone.
    let want = config.threads.clamp(1, STRATEGIES.len());
    let opts: Vec<(&'static str, SearchOptions)> = STRATEGIES[..want]
        .iter()
        .map(|&(name, order, prefer_shared)| {
            (
                name,
                SearchOptions {
                    order,
                    prefer_shared,
                    node_budget: config.node_budget,
                    deadline: config.deadline,
                    ..SearchOptions::default()
                },
            )
        })
        .collect();

    // results land indexed by strategy — never by completion order — so
    // the winner selection downstream is deterministic at any width
    let (width, _lease) = accsat_egraph::pool::fanout_width(budget, want, opts.len());
    let results = accsat_egraph::pool::map_slots(
        width,
        opts.len(),
        || (),
        |i| {
            let (name, o) = &opts[i];
            let _span = trace::span_named("extract.bnb", || name.to_string());
            (*name, extract_exact_in(&cx, roots, &incumbent, incumbent_cost, o))
        },
    );
    PortfolioCore {
        greedy,
        greedy_cost,
        incumbent,
        incumbent_cost,
        incumbent_name,
        short_circuit: false,
        root_bound,
        pruned,
        results,
    }
}

/// Run the extraction portfolio over `roots`.
///
/// The greedy incumbent is computed first; if its cost already meets the
/// admissible LP root bound it is returned immediately as provably
/// optimal. Otherwise the DAG-aware refinement heuristics
/// ([`crate::refine`]) improve the incumbent (re-checking the bound),
/// then `config.threads` branch-and-bound workers race from the refined
/// incumbent and the best deterministic result wins.
pub fn extract_portfolio(
    eg: &EGraph,
    roots: &[Id],
    cm: &CostModel,
    config: &PortfolioConfig,
) -> PortfolioResult {
    extract_portfolio_budgeted(eg, roots, cm, config, None)
}

/// [`extract_portfolio`] wired into a shared [`ThreadBudget`]: the racing
/// strategies (still the first `config.threads` table entries, so the
/// result is identical) are drained by the calling thread plus however
/// many spare permits the budget grants for the duration of the race.
/// `None` behaves exactly like the plain entry point.
pub fn extract_portfolio_budgeted(
    eg: &EGraph,
    roots: &[Id],
    cm: &CostModel,
    config: &PortfolioConfig,
    budget: Option<&ThreadBudget>,
) -> PortfolioResult {
    let core = run_portfolio(eg, roots, cm, config, budget);
    if core.short_circuit {
        return PortfolioResult {
            selection: core.incumbent,
            cost: core.incumbent_cost,
            proven_optimal: true,
            winner: core.incumbent_name,
            workers: vec![WorkerOutcome {
                strategy: core.incumbent_name,
                cost: core.incumbent_cost,
                proven_optimal: true,
                explored: 0,
            }],
            lower_bound: core.incumbent_cost,
            pruned: core.pruned,
        };
    }

    let mut workers: Vec<WorkerOutcome> = vec![WorkerOutcome {
        strategy: core.incumbent_name,
        cost: core.incumbent_cost,
        proven_optimal: false,
        explored: 0,
    }];
    workers.extend(core.results.iter().map(|(name, r)| WorkerOutcome {
        strategy: name,
        cost: r.cost,
        proven_optimal: r.proven_optimal,
        explored: r.explored,
    }));
    // winner: lowest cost, ties broken by member order (the refined
    // incumbent first, then strategies) — completion order never matters.
    // Searches are seeded with the incumbent, so a strategy only wins by
    // strictly improving on it.
    let proven = core.results.iter().any(|(_, r)| r.proven_optimal);
    let win = (0..core.results.len())
        .min_by_key(|&i| (core.results[i].1.cost, i))
        .expect("portfolio has at least one member");
    let (winner, best) = &core.results[win];
    let (selection, cost, winner) = if best.cost < core.incumbent_cost {
        (best.selection.clone(), best.cost, *winner)
    } else {
        (core.incumbent, core.incumbent_cost, core.incumbent_name)
    };
    PortfolioResult {
        selection,
        cost,
        proven_optimal: proven,
        winner,
        workers,
        lower_bound: if proven { cost } else { core.root_bound },
        pruned: core.pruned,
    }
}

/// Keep-K extraction: run the portfolio and return **every** member's
/// selection instead of only the winner's.
///
/// This is the candidate harvest of the autotuning loop: the greedy
/// incumbent and each branch-and-bound strategy's best selection are all
/// structurally interesting points of the selection space (tree-optimal
/// duplication vs. DAG-optimal sharing vs. alternate shapes found by
/// different search orders), and a simulator — not the static cost model —
/// gets the final say between them.
///
/// When the greedy incumbent is proven optimal outright the harvest
/// contains just that one member, exactly as [`extract_portfolio`]
/// short-circuits. Members are *not* deduplicated here; callers that care
/// (the autotuner) dedup by [`Selection::content_hash`].
pub fn extract_portfolio_k(
    eg: &EGraph,
    roots: &[Id],
    cm: &CostModel,
    config: &PortfolioConfig,
) -> PortfolioHarvest {
    let core = run_portfolio(eg, roots, cm, config, None);
    let mut members = vec![HarvestedSelection {
        strategy: "greedy",
        selection: core.greedy,
        cost: core.greedy_cost,
        proven_optimal: core.short_circuit && core.incumbent_name == "greedy",
        explored: 0,
    }];
    if core.incumbent_name != "greedy" {
        members.push(HarvestedSelection {
            strategy: core.incumbent_name,
            selection: core.incumbent,
            cost: core.incumbent_cost,
            proven_optimal: core.short_circuit,
            explored: 0,
        });
    }
    if core.short_circuit {
        // the proven member is the last pushed (greedy or refine)
        let winner = members.len() - 1;
        return PortfolioHarvest { members, winner, lower_bound: core.incumbent_cost };
    }
    for (name, r) in core.results {
        members.push(HarvestedSelection {
            strategy: name,
            selection: r.selection,
            cost: r.cost,
            proven_optimal: r.proven_optimal,
            explored: r.explored,
        });
    }
    // same winner the plain portfolio reports: lowest cost with ties
    // toward the earlier member (refined incumbent before the strategies,
    // which only beat their own seed by strictly improving on it; the
    // plain greedy at index 0 only wins when nothing improved on it)
    let winner = (0..members.len())
        .min_by_key(|&i| (members[i].cost, i))
        .expect("harvest always contains the greedy incumbent");
    let proven = members.iter().any(|m| m.proven_optimal);
    let lower_bound = if proven { members[winner].cost } else { core.root_bound };
    PortfolioHarvest { members, winner, lower_bound }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accsat_egraph::{all_rules, Node, Op, Runner};

    fn sharing_graph() -> (EGraph, Vec<Id>) {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let h = eg.add(Node::new(Op::Div, vec![a, b]));
        let r1 = eg.add(Node::new(Op::Add, vec![h, a]));
        let r2 = eg.add(Node::new(Op::Mul, vec![h, b]));
        Runner::new(all_rules()).run(&mut eg);
        let roots = vec![eg.find(r1), eg.find(r2)];
        (eg, roots)
    }

    #[test]
    fn portfolio_matches_exact() {
        let (eg, roots) = sharing_graph();
        let cm = CostModel::paper();
        let exact = crate::bnb::extract_exact(&eg, &roots, &cm, std::time::Duration::from_secs(2));
        for threads in [1, 2, 4] {
            let cfg = PortfolioConfig { threads, ..PortfolioConfig::default() };
            let res = extract_portfolio(&eg, &roots, &cm, &cfg);
            assert_eq!(res.cost, exact.cost, "threads={threads}");
            assert!(res.proven_optimal, "threads={threads}");
        }
    }

    #[test]
    fn portfolio_is_deterministic_across_runs() {
        let (eg, roots) = sharing_graph();
        let cm = CostModel::paper();
        let cfg = PortfolioConfig { threads: 4, ..PortfolioConfig::default() };
        let first = extract_portfolio(&eg, &roots, &cm, &cfg);
        for _ in 0..3 {
            let again = extract_portfolio(&eg, &roots, &cm, &cfg);
            assert_eq!(again.cost, first.cost);
            assert_eq!(again.winner, first.winner);
            for r in &roots {
                assert_eq!(
                    again.selection.term_string(&eg, *r),
                    first.selection.term_string(&eg, *r),
                    "selections must be byte-identical run to run"
                );
            }
        }
    }

    #[test]
    fn budgeted_portfolio_is_identical_to_plain() {
        // an empty budget (race runs on the calling thread alone) and a
        // flush one (full fan-out) both reproduce the plain portfolio
        let (eg, roots) = sharing_graph();
        let cm = CostModel::paper();
        let cfg = PortfolioConfig { threads: 4, ..PortfolioConfig::default() };
        let plain = extract_portfolio(&eg, &roots, &cm, &cfg);
        for spare in [0, 8] {
            let budget = ThreadBudget::new(spare);
            let res = extract_portfolio_budgeted(&eg, &roots, &cm, &cfg, Some(&budget));
            assert_eq!(res.cost, plain.cost, "spare={spare}");
            assert_eq!(res.winner, plain.winner, "spare={spare}");
            for &r in &roots {
                assert_eq!(res.selection.term_string(&eg, r), plain.selection.term_string(&eg, r));
            }
            assert_eq!(budget.spare(), spare, "race must return every leased permit");
        }
    }

    #[test]
    fn greedy_short_circuit_on_trees() {
        // a pure tree: the greedy incumbent meets the root lower bound and
        // wins without spawning any search
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let ab = eg.add(Node::new(Op::Add, vec![a, b]));
        let r = eg.add(Node::new(Op::Mul, vec![ab, a]));
        let cm = CostModel::paper();
        let res = extract_portfolio(&eg, &[r], &cm, &PortfolioConfig::default());
        assert_eq!(res.winner, "greedy");
        assert!(res.proven_optimal);
        assert_eq!(res.workers.len(), 1);
        assert_eq!(res.workers[0].explored, 0);
    }

    #[test]
    fn refined_incumbent_meets_bound_and_short_circuits() {
        // root 1's class holds add(u, u) (heavy u, shared) and add(v1, v2)
        // (two cheap muls); root 2 forces u to be selected anyway. Greedy
        // is tree-optimal and picks the muls (DAG 143); reusing u is the
        // DAG optimum (122). The refinement stage finds the switch, the
        // LP root bound certifies it, and the portfolio proves optimality
        // without spawning a single search — even at a one-node budget.
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let c = eg.add(Node::sym("c"));
        let u = eg.add(Node::new(Op::Div, vec![a, b]));
        let uu = eg.add(Node::new(Op::Add, vec![u, u]));
        let v1 = eg.add(Node::new(Op::Mul, vec![a, b]));
        let v2 = eg.add(Node::new(Op::Mul, vec![b, c]));
        let vv = eg.add(Node::new(Op::Add, vec![v1, v2]));
        eg.union(uu, vv);
        eg.rebuild();
        let r2 = eg.add(Node::new(Op::Neg, vec![u]));
        let roots = vec![eg.find(uu), eg.find(r2)];
        let cm = CostModel::paper();
        let g = extract_greedy(&eg, &roots, &cm).dag_cost(&eg, &cm, &roots);
        let cfg = PortfolioConfig { threads: 2, node_budget: 1, ..PortfolioConfig::default() };
        let res = extract_portfolio(&eg, &roots, &cm, &cfg);
        assert!(res.proven_optimal, "refine + LP bound must certify without search");
        assert_eq!(res.winner, "refine");
        assert!(res.cost < g, "refined {} must beat greedy {}", res.cost, g);
        assert_eq!(res.cost, 122);
        assert_eq!(res.lower_bound, 122);
        assert_eq!(res.workers.len(), 1);
        assert_eq!(res.workers[0].explored, 0);
        // a full-budget run agrees byte-for-byte
        let res2 = extract_portfolio(&eg, &roots, &cm, &PortfolioConfig::default());
        assert_eq!(res2.cost, res.cost);
        assert!(res2.proven_optimal);
        for &r in &roots {
            assert_eq!(res2.selection.term_string(&eg, r), res.selection.term_string(&eg, r));
        }
    }

    #[test]
    fn harvest_keeps_greedy_and_all_strategies() {
        let (eg, roots) = sharing_graph();
        let cm = CostModel::paper();
        let cfg = PortfolioConfig { threads: 3, ..PortfolioConfig::default() };
        let harvest = extract_portfolio_k(&eg, &roots, &cm, &cfg);
        let plain = extract_portfolio(&eg, &roots, &cm, &cfg);
        assert_eq!(harvest.members[0].strategy, "greedy");
        if harvest.members.len() > 1 {
            // keep-K must agree with the plain portfolio on the winner
            assert_eq!(harvest.members.len(), 4, "greedy + 3 strategies");
            let w = &harvest.members[harvest.winner];
            assert_eq!(w.cost, plain.cost);
            assert_eq!(w.strategy, plain.winner);
            for r in &roots {
                assert_eq!(w.selection.term_string(&eg, *r), plain.selection.term_string(&eg, *r));
            }
        }
        // every member is a complete, costable selection
        for m in &harvest.members {
            assert_eq!(m.selection.dag_cost(&eg, &cm, &roots), m.cost);
        }
    }

    #[test]
    fn harvest_includes_refined_member_when_it_improves() {
        // the uu/vv trade-off: refinement strictly beats greedy, so the
        // harvest carries both — greedy first, refine second — and the
        // winner agrees with the plain portfolio
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let c = eg.add(Node::sym("c"));
        let u = eg.add(Node::new(Op::Div, vec![a, b]));
        let uu = eg.add(Node::new(Op::Add, vec![u, u]));
        let v1 = eg.add(Node::new(Op::Mul, vec![a, b]));
        let v2 = eg.add(Node::new(Op::Mul, vec![b, c]));
        let vv = eg.add(Node::new(Op::Add, vec![v1, v2]));
        eg.union(uu, vv);
        eg.rebuild();
        let r2 = eg.add(Node::new(Op::Neg, vec![u]));
        let roots = vec![eg.find(uu), eg.find(r2)];
        let cm = CostModel::paper();
        let cfg = PortfolioConfig::default();
        let harvest = extract_portfolio_k(&eg, &roots, &cm, &cfg);
        let plain = extract_portfolio(&eg, &roots, &cm, &cfg);
        assert_eq!(harvest.members[0].strategy, "greedy");
        assert_eq!(harvest.members[1].strategy, "refine");
        assert!(harvest.members[1].cost < harvest.members[0].cost);
        let w = &harvest.members[harvest.winner];
        assert_eq!(w.strategy, plain.winner);
        assert_eq!(w.cost, plain.cost);
        assert_eq!(harvest.lower_bound, plain.lower_bound);
        // every member is a complete, costable selection
        for m in &harvest.members {
            assert_eq!(m.selection.dag_cost(&eg, &cm, &roots), m.cost);
        }
    }

    #[test]
    fn harvest_short_circuit_is_single_member() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let ab = eg.add(Node::new(Op::Add, vec![a, b]));
        let r = eg.add(Node::new(Op::Mul, vec![ab, a]));
        let cm = CostModel::paper();
        let harvest = extract_portfolio_k(&eg, &[r], &cm, &PortfolioConfig::default());
        assert_eq!(harvest.members.len(), 1);
        assert_eq!(harvest.winner, 0);
        assert!(harvest.members[0].proven_optimal);
    }

    #[test]
    fn harvest_members_hash_dedup() {
        // on the zero-budget graph every strategy returns the greedy
        // incumbent, so all member hashes collapse to one
        let (eg, roots) = sharing_graph();
        let cm = CostModel::paper();
        let cfg = PortfolioConfig { threads: 4, node_budget: 1, ..PortfolioConfig::default() };
        let harvest = extract_portfolio_k(&eg, &roots, &cm, &cfg);
        let h0 = harvest.members[0].selection.content_hash(&eg, &roots);
        for m in &harvest.members {
            if m.cost == harvest.members[0].cost {
                assert_eq!(m.selection.content_hash(&eg, &roots), h0);
            }
        }
    }
}
