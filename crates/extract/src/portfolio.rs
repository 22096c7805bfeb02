//! Deadline-aware extraction portfolio: a greedy incumbent, its DAG-aware
//! refinement, then branch-and-bound searches from it.
//!
//! The paper gives extraction a 30-second budget and falls back to the
//! incumbent when the LP solver runs out of time (§VII). Like the paper's
//! one solver run, the default portfolio runs one search (width 1,
//! `bnb-bestfirst`). A wider portfolio races further branch-and-bound
//! configurations from a fixed table — different class orderings and
//! candidate orderings ([`SearchOptions`]) — each seeded with the same
//! incumbent, and the best result wins. The autotuner harvests all of
//! them; on every kernel the repo pins, the second entry,
//! `bnb-heaviest`, repeats the first search node for node, which is why
//! the default does not race it.
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
//!   with ties broken by the fixed member order — never by completion
//!   order.
//!
//! Consequently the result depends only on the e-graph, the cost model
//! and the config — not on thread scheduling — and a portfolio of width
//! `n` returns the same selection whether its workers run concurrently or
//! one after another.

use crate::bnb::{
    extract_exact_hooked, ClassOrder, ContextOptions, ExactResult, SearchContext, SearchOptions,
};
use crate::cost::CostModel;
use crate::greedy::{class_costs, greedy_from};
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

/// How many strategies a portfolio of width `threads` races: the first
/// `threads` table entries, at least one and at most the whole table.
/// Widths that clamp alike return the same result.
pub fn race_width(threads: usize) -> usize {
    threads.clamp(1, STRATEGY_COUNT)
}

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
    /// Number of racing branch-and-bound strategies, the first entries of
    /// the strategy table (clamped to `1..=`[`STRATEGY_COUNT`]). `1`, the
    /// default, runs `bnb-bestfirst` alone on the calling thread.
    pub threads: usize,
    /// Deterministic per-worker exploration budget (search-tree nodes).
    pub node_budget: u64,
    /// Wall-clock safety valve per worker, on top of the node budget.
    pub deadline: Duration,
}

impl Default for PortfolioConfig {
    fn default() -> PortfolioConfig {
        PortfolioConfig {
            threads: 1,
            node_budget: SearchOptions::default().node_budget,
            deadline: SearchOptions::default().deadline,
        }
    }
}

/// Result of a portfolio extraction: every member, and which one won.
#[derive(Debug, Clone)]
pub struct PortfolioResult {
    /// Every member's name and result, in a fixed order: the greedy
    /// incumbent (`"greedy"`), then `"refine"` when refinement strictly
    /// improved on greedy, then the racing strategies in table order —
    /// none when an incumbent met the LP root bound. The incumbent members
    /// explored 0 nodes. Members are *not* deduplicated; the autotuner
    /// dedups by [`Selection::content_hash`].
    pub members: Vec<(&'static str, ExactResult)>,
    /// Index of the winning member: lowest cost, ties broken toward the
    /// earlier member. The searches are seeded with the last incumbent, so
    /// a strategy only wins by strictly improving on it.
    pub winner: usize,
    /// `true` when some member proved optimality (the winner then has the
    /// optimal cost).
    pub proven_optimal: bool,
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

impl PortfolioResult {
    /// The winning member's name and result.
    pub fn winning(&self) -> &(&'static str, ExactResult) {
        &self.members[self.winner]
    }

    /// Take the winning member's name and selection, dropping the rest.
    pub fn into_winner(mut self) -> (&'static str, Selection) {
        let (name, best) = self.members.swap_remove(self.winner);
        (name, best.selection)
    }
}

/// Run the extraction portfolio over `roots`.
///
/// The greedy incumbent is computed first; if its cost already meets the
/// admissible LP root bound it is the only member, provably optimal.
/// Otherwise the DAG-aware refinement heuristics ([`climb`](crate::climb), [`marginal_greedy`](crate::marginal_greedy))
/// improve the incumbent (re-checking the bound), then `config.threads`
/// branch-and-bound workers race from the refined incumbent.
///
/// The race starts on the calling thread alone. A search that reaches 256
/// explored nodes asks for helper threads, up to `config.threads − 1`;
/// with a shared [`ThreadBudget`] there are only as many as the spare
/// permits it leased when the race began, and at width 1 it leases none.
/// Which strategies run, and so the result, depends on `config.threads`
/// only, never on how many threads drained them.
pub fn extract_portfolio(
    eg: &EGraph,
    roots: &[Id],
    cm: &CostModel,
    config: &PortfolioConfig,
    budget: Option<&ThreadBudget>,
) -> PortfolioResult {
    // one tree-cost fixpoint for the greedy incumbent and the context
    let (greedy, tree_costs) = {
        let _span = trace::span("extract", "greedy");
        let tree_costs = class_costs(eg, cm);
        (greedy_from(eg, roots, cm, &tree_costs), tree_costs)
    };
    let greedy_cost = greedy.dag_cost(eg, cm, roots);
    // built once, shared by every worker (the context is immutable and
    // Sync, candidate visit orders included)
    let cx = {
        let mut span = trace::span("extract", "context.build");
        let cx = SearchContext::build_from(eg, cm, &ContextOptions::default(), &tree_costs);
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
    // an incumbent that meets the admissible bound is provably optimal and
    // ends the portfolio (greedy: with no refinement wall cost)
    let incumbent = |name, selection, cost| {
        let proven_optimal = cost <= root_bound;
        let lower_bound = if proven_optimal { cost } else { root_bound };
        (name, ExactResult { selection, cost, proven_optimal, explored: 0, lower_bound })
    };
    let mut members = vec![incumbent("greedy", greedy, greedy_cost)];
    if !members[0].1.proven_optimal {
        if let Some((selection, cost)) = refine(eg, &cx, cm, roots, &members[0].1) {
            members.push(incumbent("refine", selection, cost));
        }
        let (_, seed) = members.last().expect("greedy is a member");
        if !seed.proven_optimal {
            let raced = race(&cx, roots, seed, config, budget);
            members.extend(raced);
        }
    }
    let winner =
        (0..members.len()).min_by_key(|&i| (members[i].1.cost, i)).expect("greedy is a member");
    let proven_optimal = members.iter().any(|(_, m)| m.proven_optimal);
    let lower_bound = if proven_optimal { members[winner].1.cost } else { root_bound };
    PortfolioResult { members, winner, proven_optimal, lower_bound, pruned }
}

/// DAG-aware refinement of the greedy incumbent: a hill climb, and the
/// sequential marginal greedy (completed from the greedy cover) with a
/// climb on top. Returns the cheaper of the two when it strictly beats
/// greedy, preferring the plain climb on ties; `None` keeps greedy, so
/// unimprovable kernels keep their previous selections byte-for-byte.
fn refine(
    eg: &EGraph,
    cx: &SearchContext<'_>,
    cm: &CostModel,
    roots: &[Id],
    greedy: &ExactResult,
) -> Option<(Selection, u64)> {
    let _span = trace::span("extract", "refine");
    let climbed = crate::refine::climb(eg, cx, cm, roots, greedy.selection.clone());
    let climbed_cost = climbed.dag_cost(eg, cm, roots);
    let marginal = crate::refine::marginal_greedy(eg, cx, cm, roots).map(|mut m| {
        m.fill_from(&greedy.selection);
        let m = crate::refine::climb(eg, cx, cm, roots, m);
        let c = m.dag_cost(eg, cm, roots);
        (m, c)
    });
    let marginal_cost = marginal.as_ref().map_or(u64::MAX, |&(_, c)| c);
    if climbed_cost < greedy.cost && climbed_cost <= marginal_cost {
        Some((climbed, climbed_cost))
    } else {
        marginal.filter(|&(_, c)| c < greedy.cost)
    }
}

/// The race: the first `config.threads` table strategies, each seeded with
/// `seed`, results in table order.
fn race(
    cx: &SearchContext<'_>,
    roots: &[Id],
    seed: &ExactResult,
    config: &PortfolioConfig,
    budget: Option<&ThreadBudget>,
) -> Vec<(&'static str, ExactResult)> {
    // `config.threads` fixes WHICH strategies run (the first `want` table
    // entries) and therefore the result set; how many OS threads actually
    // drain them is a separate, output-invisible question answered by the
    // shared budget when one is installed (two-level pool) or by `want`
    // itself when running standalone.
    let want = race_width(config.threads);
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
    // the winner is deterministic at any width. A search asks for the
    // helper threads once it has explored 256 nodes: a race of short
    // searches never leaves the calling thread
    let (width, _lease) = accsat_egraph::pool::fanout_width(budget, want, opts.len());
    accsat_egraph::pool::map_slots(
        width,
        opts.len(),
        || (),
        |i, helpers| {
            let (name, o) = &opts[i];
            let _span = trace::span_named("extract.bnb", || name.to_string());
            let long = || helpers.request();
            (*name, extract_exact_hooked(cx, roots, &seed.selection, seed.cost, o, &long))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb::extract_exact_with;
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

    /// Root 1's class holds add(u, u) (heavy u, shared) and add(v1, v2)
    /// (two cheap muls); root 2 forces u to be selected anyway. Greedy is
    /// tree-optimal and picks the muls (DAG 143); reusing u is the DAG
    /// optimum (122).
    fn tradeoff_graph() -> (EGraph, Vec<Id>) {
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
        (eg, roots)
    }

    fn names(res: &PortfolioResult) -> Vec<&'static str> {
        res.members.iter().map(|&(n, _)| n).collect()
    }

    #[test]
    fn portfolio_matches_exact() {
        let (eg, roots) = sharing_graph();
        let cm = CostModel::paper();
        let opts = SearchOptions { deadline: Duration::from_secs(2), ..SearchOptions::default() };
        let exact = extract_exact_with(&eg, &roots, &cm, &opts);
        for threads in [1, 2, 4] {
            let cfg = PortfolioConfig { threads, ..PortfolioConfig::default() };
            let res = extract_portfolio(&eg, &roots, &cm, &cfg, None);
            assert_eq!(res.winning().1.cost, exact.cost, "threads={threads}");
            assert!(res.proven_optimal, "threads={threads}");
        }
    }

    #[test]
    fn portfolio_is_deterministic_across_runs_and_budgets() {
        // repeated runs, an empty budget (the race runs on the calling
        // thread alone) and a flush one (full fan-out) all agree
        let (eg, roots) = sharing_graph();
        let cm = CostModel::paper();
        let cfg = PortfolioConfig { threads: 4, ..PortfolioConfig::default() };
        let first = extract_portfolio(&eg, &roots, &cm, &cfg, None);
        let budgets = [ThreadBudget::new(0), ThreadBudget::new(8)];
        for budget in [None, None, Some(&budgets[0]), Some(&budgets[1])] {
            let again = extract_portfolio(&eg, &roots, &cm, &cfg, budget);
            assert_eq!(names(&again), names(&first));
            assert_eq!(again.winner, first.winner);
            for ((_, a), (_, b)) in again.members.iter().zip(&first.members) {
                let facts = |m: &ExactResult| (m.cost, m.proven_optimal, m.explored);
                assert_eq!(facts(a), facts(b));
                for &r in &roots {
                    assert_eq!(
                        a.selection.term_string(&eg, r),
                        b.selection.term_string(&eg, r),
                        "selections must be byte-identical run to run"
                    );
                }
            }
        }
        let spare = (budgets[0].spare(), budgets[1].spare());
        assert_eq!(spare, (0, 8), "race must return every leased permit");
    }

    #[test]
    fn members_are_greedy_then_table_strategies() {
        let (eg, roots) = sharing_graph();
        let cm = CostModel::paper();
        let cfg = PortfolioConfig { threads: 3, ..PortfolioConfig::default() };
        let res = extract_portfolio(&eg, &roots, &cm, &cfg, None);
        let names = names(&res);
        assert_eq!(names[0], "greedy");
        if names.len() > 1 {
            assert_eq!(names, ["greedy", "bnb-bestfirst", "bnb-heaviest", "bnb-bestfirst-shared"]);
        }
        // every member is a complete, costable selection, and the winner
        // is the cost argmin, ties toward the earlier member
        for (i, (_, m)) in res.members.iter().enumerate() {
            assert_eq!(m.selection.dag_cost(&eg, &cm, &roots), m.cost);
            assert!((res.winning().1.cost, res.winner) <= (m.cost, i));
        }
    }

    #[test]
    fn greedy_short_circuit_on_trees() {
        // a pure tree: the greedy incumbent meets the root lower bound and
        // is the only member, without any search
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let ab = eg.add(Node::new(Op::Add, vec![a, b]));
        let r = eg.add(Node::new(Op::Mul, vec![ab, a]));
        let cm = CostModel::paper();
        let res = extract_portfolio(&eg, &[r], &cm, &PortfolioConfig::default(), None);
        assert_eq!(names(&res), ["greedy"]);
        assert_eq!(res.winner, 0);
        assert!(res.proven_optimal && res.members[0].1.proven_optimal);
        assert_eq!(res.members[0].1.explored, 0);
        assert_eq!(res.lower_bound, res.members[0].1.cost);
    }

    #[test]
    fn refined_incumbent_meets_bound_and_short_circuits() {
        // on the trade-off graph the refinement stage finds the switch, the
        // LP root bound certifies it, and the portfolio proves optimality
        // without a single search — even at a one-node budget. Greedy stays
        // a member, first and unproven.
        let (eg, roots) = tradeoff_graph();
        let cm = CostModel::paper();
        let cfg = PortfolioConfig { threads: 2, node_budget: 1, ..PortfolioConfig::default() };
        let res = extract_portfolio(&eg, &roots, &cm, &cfg, None);
        assert_eq!(names(&res), ["greedy", "refine"]);
        let (greedy, refine) = (&res.members[0].1, &res.members[1].1);
        assert!(!greedy.proven_optimal && refine.proven_optimal);
        assert_eq!((greedy.cost, refine.cost), (143, 122));
        assert_eq!((greedy.explored, refine.explored), (0, 0));
        assert_eq!(res.winner, 1);
        assert!(res.proven_optimal, "refine + LP bound must certify without search");
        assert_eq!(res.lower_bound, 122);
        for (_, m) in &res.members {
            assert_eq!(m.selection.dag_cost(&eg, &cm, &roots), m.cost);
        }
        // a full-budget run agrees byte-for-byte
        let res2 = extract_portfolio(&eg, &roots, &cm, &PortfolioConfig::default(), None);
        assert_eq!(names(&res2), names(&res));
        let (w1, w2) = (res.into_winner(), res2.into_winner());
        assert_eq!((w1.0, w2.0), ("refine", "refine"));
        for &r in &roots {
            assert_eq!(w2.1.term_string(&eg, r), w1.1.term_string(&eg, r));
        }
    }

    #[test]
    fn member_hashes_collapse_when_no_search_improves() {
        // at a one-node budget every strategy returns the greedy incumbent
        // it was seeded with, so all equal-cost member hashes agree
        let (eg, roots) = sharing_graph();
        let cm = CostModel::paper();
        let cfg = PortfolioConfig { threads: 4, node_budget: 1, ..PortfolioConfig::default() };
        let res = extract_portfolio(&eg, &roots, &cm, &cfg, None);
        let first = &res.members[0].1;
        let h0 = first.selection.content_hash(&eg, &roots);
        for (_, m) in &res.members {
            if m.cost == first.cost {
                assert_eq!(m.selection.content_hash(&eg, &roots), h0);
            }
        }
    }
}
