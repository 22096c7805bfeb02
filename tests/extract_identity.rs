//! "Identical by construction", checked for extraction: `accsat-extract`
//! may change how its class tables are sized and indexed, but never which
//! candidates it prunes, what it bounds, which node a tie-break picks or
//! how many nodes a search explores. The table below was recorded at
//! `b2bf575`, the last commit whose tables were indexed by raw e-class id;
//! a layout change that moves any column has changed behaviour.
//!
//! `suite_certification` pins costs and proofs but not `explored`, and the
//! default portfolio width 2 never runs `bnb-bestfirst-shared` or
//! `bnb-lifo` (only `tune` does) — so all **four** strategies run here, on
//! every kernel (also the ones the portfolio short-circuits), each seeded
//! with the portfolio's refined incumbent at the default 60 k-node budget.
//! A second table pins what each pruning layer of the search is worth, and
//! a third how the portfolio combines its members into one result.

mod common;

use accsat_egraph::{all_rules, Runner};
use accsat_extract::{
    extract_exact_in, extract_greedy, extract_portfolio, ClassOrder, ContextOptions, CostModel,
    PortfolioConfig, SearchContext, SearchOptions,
};
use std::time::Duration;

/// The portfolio's strategy table (`extract::portfolio::STRATEGIES`).
const STRATEGIES: [(ClassOrder, bool); 4] = [
    (ClassOrder::BestFirst, false),
    (ClassOrder::HeaviestFirst, false),
    (ClassOrder::BestFirst, true),
    (ClassOrder::Lifo, false),
];

/// Per suite kernel: candidates pruned by orbit / dominance / closure, the
/// LP root lower bound, the refined incumbent's name and cost, then per
/// strategy (table order) cost, proven?, explored nodes and the content
/// hash of the returned selection.
const EXPECTED: &str = "\
BT bt_zsolve | 387 0 0 | 3081 | greedy 3391 | 3391 unproven 60000 c7dffc043fd0530c | 3391 unproven 60000 c7dffc043fd0530c | 3391 unproven 60000 c7dffc043fd0530c | 3391 unproven 60000 c7dffc043fd0530c
BT bt_rhs | 10 1 0 | 1516 | greedy 1546 | 1526 proven 40 a7b313cb5d157a0e | 1526 proven 40 a7b313cb5d157a0e | 1526 proven 43 a7b313cb5d157a0e | 1526 proven 40 a7b313cb5d157a0e
CG cg_spmv | 3 0 1 | 318 | greedy 318 | 318 proven 1 cc104eeba48d1a16 | 318 proven 1 cc104eeba48d1a16 | 318 proven 1 cc104eeba48d1a16 | 318 proven 1 cc104eeba48d1a16
CG cg_axpy | 5 0 2 | 325 | greedy 325 | 325 proven 1 dfafa4288a551b7d | 325 proven 1 dfafa4288a551b7d | 325 proven 1 dfafa4288a551b7d | 325 proven 1 dfafa4288a551b7d
EP ep_gauss | 23 2 6 | 442 | greedy 462 | 462 proven 15 67e9c3765e3764f1 | 462 proven 15 67e9c3765e3764f1 | 462 proven 15 67e9c3765e3764f1 | 462 proven 15 67e9c3765e3764f1
FT ft_butterfly | 11 0 1 | 676 | greedy 706 | 706 proven 11 c1dfd60efa3f953f | 706 proven 11 c1dfd60efa3f953f | 706 proven 11 c1dfd60efa3f953f | 706 proven 11 c1dfd60efa3f953f
FT ft_evolve | 8 0 1 | 425 | greedy 455 | 455 proven 11 6256d615b856f2c3 | 455 proven 11 6256d615b856f2c3 | 455 proven 11 6256d615b856f2c3 | 455 proven 11 6256d615b856f2c3
LU lu_jacld | 1060 0 16 | 570 | refine 720 | 720 unproven 60000 970c6ab143955c39 | 720 unproven 60000 970c6ab143955c39 | 720 unproven 60000 970c6ab143955c39 | 720 unproven 60000 970c6ab143955c39
MG mg_resid | 427 0 0 | 1118 | greedy 1198 | 1198 proven 24745 213679e184688d79 | 1198 proven 24745 213679e184688d79 | 1198 proven 24745 213679e184688d79 | 1198 unproven 60000 213679e184688d79
SP sp_lhs | 79 0 2 | 618 | greedy 678 | 668 proven 738 4cfdfffd55e26eb6 | 668 proven 738 4cfdfffd55e26eb6 | 668 proven 765 4cfdfffd55e26eb6 | 668 proven 1753 4cfdfffd55e26eb6
ostencil stencil_jacobi | 293 0 0 | 786 | greedy 846 | 846 proven 4633 4f26c13e5d12c68d | 846 proven 4633 4f26c13e5d12c68d | 846 proven 4633 4f26c13e5d12c68d | 846 proven 4633 4f26c13e5d12c68d
olbm lbm_stream | 758 5 13 | 1643 | refine 1973 | 1973 unproven 60000 dd0a3901166e653f | 1973 unproven 60000 dd0a3901166e653f | 1973 unproven 60000 dd0a3901166e653f | 1973 unproven 60000 dd0a3901166e653f
omriq mriq_computeq | 37 0 12 | 1065 | greedy 1105 | 1105 proven 82 ad682c4f64320bc5 | 1105 proven 82 ad682c4f64320bc5 | 1105 proven 82 ad682c4f64320bc5 | 1105 proven 90 ad682c4f64320bc5
ep ep_gauss | 23 2 6 | 442 | greedy 462 | 462 proven 15 67e9c3765e3764f1 | 462 proven 15 67e9c3765e3764f1 | 462 proven 15 67e9c3765e3764f1 | 462 proven 15 67e9c3765e3764f1
cg cg_spmv | 3 0 1 | 318 | greedy 318 | 318 proven 1 cc104eeba48d1a16 | 318 proven 1 cc104eeba48d1a16 | 318 proven 1 cc104eeba48d1a16 | 318 proven 1 cc104eeba48d1a16
cg cg_axpy | 5 0 2 | 325 | greedy 325 | 325 proven 1 dfafa4288a551b7d | 325 proven 1 dfafa4288a551b7d | 325 proven 1 dfafa4288a551b7d | 325 proven 1 dfafa4288a551b7d
csp sp_lhs | 79 0 2 | 618 | greedy 678 | 668 proven 738 4cfdfffd55e26eb6 | 668 proven 738 4cfdfffd55e26eb6 | 668 proven 765 4cfdfffd55e26eb6 | 668 proven 1753 4cfdfffd55e26eb6
bt bt_zsolve | 387 0 0 | 3081 | greedy 3391 | 3391 unproven 60000 c7dffc043fd0530c | 3391 unproven 60000 c7dffc043fd0530c | 3391 unproven 60000 c7dffc043fd0530c | 3391 unproven 60000 c7dffc043fd0530c
bt bt_rhs | 10 1 0 | 1516 | greedy 1546 | 1526 proven 40 a7b313cb5d157a0e | 1526 proven 40 a7b313cb5d157a0e | 1526 proven 43 a7b313cb5d157a0e | 1526 proven 40 a7b313cb5d157a0e
";

#[test]
fn every_strategy_on_all_19_suite_kernels_is_pinned() {
    let cm = CostModel::paper();
    // the wall-clock valves are raised so a debug build cannot trip them:
    // only the deterministic node budget ends a search
    let deadline = Duration::from_secs(600);
    let mut table = String::new();
    for (name, mut kernel) in common::suite_kernels() {
        Runner::new(all_rules()).run(&mut kernel.egraph);
        let (eg, roots) = (&kernel.egraph, kernel.extraction_roots());
        let cx = SearchContext::build(eg, &cm);
        // greedy + refinement only: a one-node budget ends every search
        // before it improves on its seed
        let seed_cfg = PortfolioConfig { threads: 1, node_budget: 1, deadline };
        let seeded = extract_portfolio(eg, &roots, &cm, &seed_cfg, None);
        let (strategy, incumbent) =
            seeded.members.iter().rfind(|(n, _)| matches!(*n, "greedy" | "refine")).unwrap();
        table.push_str(&format!(
            "{name} | {} {} {} | {} | {strategy} {}",
            cx.orbit_pruned(),
            cx.dominance_pruned(),
            cx.closure_pruned(),
            cx.root_lower_bound(&roots),
            incumbent.cost,
        ));
        for (order, prefer_shared) in STRATEGIES {
            let opts = SearchOptions {
                order,
                prefer_shared,
                node_budget: 60_000,
                deadline,
                ..SearchOptions::default()
            };
            let r = extract_exact_in(&cx, &roots, &incumbent.selection, incumbent.cost, &opts);
            assert_eq!(r.selection.dag_cost(eg, &cm, &roots), r.cost, "{name} {order:?}");
            table.push_str(&format!(
                " | {} {} {} {:016x}",
                r.cost,
                if r.proven_optimal { "proven" } else { "unproven" },
                r.explored,
                r.selection.content_hash(eg, &roots),
            ));
        }
        table.push('\n');
    }
    assert_eq!(table, EXPECTED, "extraction moved; got:\n{table}");
}

/// The bound ablation: per suite kernel, the greedy incumbent's cost, then
/// cost, proven? and explored nodes of one default-order search under each
/// cumulative pruning configuration — `forced-bound` (dominance pruning and
/// the forced-children bound, every class branched), `+lp-bound` (the
/// LP-relaxation required-set bound), `+chain-closure` (single-candidate
/// classes decided without branching), `+closure-dom` (closure-subset
/// dominance and orbit collapse: the default context the portfolio ships).
/// The last column is the cost-model sensitivity: the content hash and
/// paper-model cost of the greedy selection when memory costs 10, 100 and
/// 1000.
const BOUND_ABLATION: &str = "\
BT bt_zsolve | 3391 | 3391 unproven 60000 | 3391 unproven 60000 | 3391 unproven 60000 | 3391 unproven 60000 | c7dffc043fd0530c 3391 c7dffc043fd0530c 3391 c7dffc043fd0530c 3391
BT bt_rhs | 1546 | 1526 proven 2723 | 1526 proven 102 | 1526 proven 40 | 1526 proven 40 | b412fe5234a2e837 1546 b412fe5234a2e837 1546 b412fe5234a2e837 1546
CG cg_spmv | 318 | 318 proven 7 | 318 proven 1 | 318 proven 1 | 318 proven 1 | cc104eeba48d1a16 318 cc104eeba48d1a16 318 cc104eeba48d1a16 318
CG cg_axpy | 325 | 325 proven 4 | 325 proven 1 | 325 proven 1 | 325 proven 1 | dfafa4288a551b7d 325 dfafa4288a551b7d 325 dfafa4288a551b7d 325
EP ep_gauss | 462 | 462 proven 240 | 462 proven 131 | 462 proven 70 | 462 proven 15 | 67e9c3765e3764f1 462 67e9c3765e3764f1 462 67e9c3765e3764f1 462
FT ft_butterfly | 706 | 706 proven 41 | 706 proven 41 | 706 proven 16 | 706 proven 11 | c1dfd60efa3f953f 706 c1dfd60efa3f953f 706 c1dfd60efa3f953f 706
FT ft_evolve | 455 | 455 proven 37 | 455 proven 37 | 455 proven 16 | 455 proven 11 | 6256d615b856f2c3 455 6256d615b856f2c3 455 6256d615b856f2c3 455
LU lu_jacld | 790 | 790 unproven 60000 | 790 unproven 60000 | 790 unproven 60000 | 790 unproven 60000 | b6892132eae8ed7e 790 b6892132eae8ed7e 790 b6892132eae8ed7e 790
MG mg_resid | 1198 | 1198 proven 40054 | 1198 proven 40054 | 1198 proven 24745 | 1198 proven 24745 | 213679e184688d79 1198 213679e184688d79 1198 213679e184688d79 1198
SP sp_lhs | 678 | 668 proven 2320 | 668 proven 2320 | 668 proven 1812 | 668 proven 738 | 943585fab217d9e7 678 943585fab217d9e7 678 943585fab217d9e7 678
ostencil stencil_jacobi | 846 | 846 proven 8532 | 846 proven 8532 | 846 proven 4633 | 846 proven 4633 | 4f26c13e5d12c68d 846 4f26c13e5d12c68d 846 4f26c13e5d12c68d 846
olbm lbm_stream | 1983 | 1983 unproven 60000 | 1983 unproven 60000 | 1983 unproven 60000 | 1983 unproven 60000 | 4279bd2edd9152d5 1983 4279bd2edd9152d5 1983 4279bd2edd9152d5 1983
omriq mriq_computeq | 1105 | 1105 proven 2842 | 1105 proven 460 | 1105 proven 328 | 1105 proven 82 | ad682c4f64320bc5 1105 ad682c4f64320bc5 1105 ad682c4f64320bc5 1105
ep ep_gauss | 462 | 462 proven 240 | 462 proven 131 | 462 proven 70 | 462 proven 15 | 67e9c3765e3764f1 462 67e9c3765e3764f1 462 67e9c3765e3764f1 462
cg cg_spmv | 318 | 318 proven 7 | 318 proven 1 | 318 proven 1 | 318 proven 1 | cc104eeba48d1a16 318 cc104eeba48d1a16 318 cc104eeba48d1a16 318
cg cg_axpy | 325 | 325 proven 4 | 325 proven 1 | 325 proven 1 | 325 proven 1 | dfafa4288a551b7d 325 dfafa4288a551b7d 325 dfafa4288a551b7d 325
csp sp_lhs | 678 | 668 proven 2320 | 668 proven 2320 | 668 proven 1812 | 668 proven 738 | 943585fab217d9e7 678 943585fab217d9e7 678 943585fab217d9e7 678
bt bt_zsolve | 3391 | 3391 unproven 60000 | 3391 unproven 60000 | 3391 unproven 60000 | 3391 unproven 60000 | c7dffc043fd0530c 3391 c7dffc043fd0530c 3391 c7dffc043fd0530c 3391
bt bt_rhs | 1546 | 1526 proven 2723 | 1526 proven 102 | 1526 proven 40 | 1526 proven 40 | b412fe5234a2e837 1546 b412fe5234a2e837 1546 b412fe5234a2e837 1546
";

#[test]
fn bound_ablation_on_all_19_suite_kernels_is_pinned() {
    let cm = CostModel::paper();
    let base = SearchOptions {
        node_budget: 60_000,
        deadline: Duration::from_secs(600),
        ..SearchOptions::default()
    };
    let legacy = ContextOptions { orbit: false, dominance: true, closure_dominance: false };
    let configs = [
        (legacy, SearchOptions { lp_bound: false, chain_closure: false, ..base }),
        (legacy, SearchOptions { chain_closure: false, ..base }),
        (legacy, base),
        (ContextOptions::default(), base),
    ];
    let mut table = String::new();
    for (name, mut kernel) in common::suite_kernels() {
        Runner::new(all_rules()).run(&mut kernel.egraph);
        let (eg, roots) = (&kernel.egraph, kernel.extraction_roots());
        let greedy = extract_greedy(eg, &roots, &cm);
        let greedy_cost = greedy.dag_cost(eg, &cm, &roots);
        table.push_str(&format!("{name} | {greedy_cost}"));
        for (cx_opts, opts) in &configs {
            let cx = SearchContext::build_with(eg, &cm, cx_opts);
            let r = extract_exact_in(&cx, &roots, &greedy, greedy_cost, opts);
            let proven = if r.proven_optimal { "proven" } else { "unproven" };
            table.push_str(&format!(" | {} {proven} {}", r.cost, r.explored));
        }
        table.push_str(" |");
        for heavy in [10, 100, 1000] {
            let sel = extract_greedy(eg, &roots, &CostModel::with_heavy(heavy));
            let hash = sel.content_hash(eg, &roots);
            table.push_str(&format!(" {hash:016x} {}", sel.dag_cost(eg, &cm, &roots)));
        }
        table.push('\n');
    }
    assert_eq!(table, BOUND_ABLATION, "bound ablation moved; got:\n{table}");
}

/// The portfolio's assembly: per suite kernel and width (`t1`, `t2`, `t4`
/// strategies racing at the pipeline's 60 k-node budget), every member in
/// order — name, cost, proven?, explored nodes, content hash — then the
/// winner's name, the portfolio-level proof and the certified lower bound.
/// This pins the tie-break toward the incumbent, the short-circuit member
/// lists and how the members' proofs and bounds combine.
const ASSEMBLY: &str = "\
BT bt_zsolve t1 | greedy 3391 unproven 0 c7dffc043fd0530c | bnb-bestfirst 3391 unproven 60000 c7dffc043fd0530c || greedy unproven lb 3081
BT bt_zsolve t2 | greedy 3391 unproven 0 c7dffc043fd0530c | bnb-bestfirst 3391 unproven 60000 c7dffc043fd0530c | bnb-heaviest 3391 unproven 60000 c7dffc043fd0530c || greedy unproven lb 3081
BT bt_zsolve t4 | greedy 3391 unproven 0 c7dffc043fd0530c | bnb-bestfirst 3391 unproven 60000 c7dffc043fd0530c | bnb-heaviest 3391 unproven 60000 c7dffc043fd0530c | bnb-bestfirst-shared 3391 unproven 60000 c7dffc043fd0530c | bnb-lifo 3391 unproven 60000 c7dffc043fd0530c || greedy unproven lb 3081
BT bt_rhs t1 | greedy 1546 unproven 0 b412fe5234a2e837 | bnb-bestfirst 1526 proven 40 a7b313cb5d157a0e || bnb-bestfirst proven lb 1526
BT bt_rhs t2 | greedy 1546 unproven 0 b412fe5234a2e837 | bnb-bestfirst 1526 proven 40 a7b313cb5d157a0e | bnb-heaviest 1526 proven 40 a7b313cb5d157a0e || bnb-bestfirst proven lb 1526
BT bt_rhs t4 | greedy 1546 unproven 0 b412fe5234a2e837 | bnb-bestfirst 1526 proven 40 a7b313cb5d157a0e | bnb-heaviest 1526 proven 40 a7b313cb5d157a0e | bnb-bestfirst-shared 1526 proven 43 a7b313cb5d157a0e | bnb-lifo 1526 proven 40 a7b313cb5d157a0e || bnb-bestfirst proven lb 1526
CG cg_spmv t1 | greedy 318 proven 0 cc104eeba48d1a16 || greedy proven lb 318
CG cg_spmv t2 | greedy 318 proven 0 cc104eeba48d1a16 || greedy proven lb 318
CG cg_spmv t4 | greedy 318 proven 0 cc104eeba48d1a16 || greedy proven lb 318
CG cg_axpy t1 | greedy 325 proven 0 dfafa4288a551b7d || greedy proven lb 325
CG cg_axpy t2 | greedy 325 proven 0 dfafa4288a551b7d || greedy proven lb 325
CG cg_axpy t4 | greedy 325 proven 0 dfafa4288a551b7d || greedy proven lb 325
EP ep_gauss t1 | greedy 462 unproven 0 67e9c3765e3764f1 | bnb-bestfirst 462 proven 15 67e9c3765e3764f1 || greedy proven lb 462
EP ep_gauss t2 | greedy 462 unproven 0 67e9c3765e3764f1 | bnb-bestfirst 462 proven 15 67e9c3765e3764f1 | bnb-heaviest 462 proven 15 67e9c3765e3764f1 || greedy proven lb 462
EP ep_gauss t4 | greedy 462 unproven 0 67e9c3765e3764f1 | bnb-bestfirst 462 proven 15 67e9c3765e3764f1 | bnb-heaviest 462 proven 15 67e9c3765e3764f1 | bnb-bestfirst-shared 462 proven 15 67e9c3765e3764f1 | bnb-lifo 462 proven 15 67e9c3765e3764f1 || greedy proven lb 462
FT ft_butterfly t1 | greedy 706 unproven 0 c1dfd60efa3f953f | bnb-bestfirst 706 proven 11 c1dfd60efa3f953f || greedy proven lb 706
FT ft_butterfly t2 | greedy 706 unproven 0 c1dfd60efa3f953f | bnb-bestfirst 706 proven 11 c1dfd60efa3f953f | bnb-heaviest 706 proven 11 c1dfd60efa3f953f || greedy proven lb 706
FT ft_butterfly t4 | greedy 706 unproven 0 c1dfd60efa3f953f | bnb-bestfirst 706 proven 11 c1dfd60efa3f953f | bnb-heaviest 706 proven 11 c1dfd60efa3f953f | bnb-bestfirst-shared 706 proven 11 c1dfd60efa3f953f | bnb-lifo 706 proven 11 c1dfd60efa3f953f || greedy proven lb 706
FT ft_evolve t1 | greedy 455 unproven 0 6256d615b856f2c3 | bnb-bestfirst 455 proven 11 6256d615b856f2c3 || greedy proven lb 455
FT ft_evolve t2 | greedy 455 unproven 0 6256d615b856f2c3 | bnb-bestfirst 455 proven 11 6256d615b856f2c3 | bnb-heaviest 455 proven 11 6256d615b856f2c3 || greedy proven lb 455
FT ft_evolve t4 | greedy 455 unproven 0 6256d615b856f2c3 | bnb-bestfirst 455 proven 11 6256d615b856f2c3 | bnb-heaviest 455 proven 11 6256d615b856f2c3 | bnb-bestfirst-shared 455 proven 11 6256d615b856f2c3 | bnb-lifo 455 proven 11 6256d615b856f2c3 || greedy proven lb 455
LU lu_jacld t1 | greedy 790 unproven 0 b6892132eae8ed7e | refine 720 unproven 0 970c6ab143955c39 | bnb-bestfirst 720 unproven 60000 970c6ab143955c39 || refine unproven lb 570
LU lu_jacld t2 | greedy 790 unproven 0 b6892132eae8ed7e | refine 720 unproven 0 970c6ab143955c39 | bnb-bestfirst 720 unproven 60000 970c6ab143955c39 | bnb-heaviest 720 unproven 60000 970c6ab143955c39 || refine unproven lb 570
LU lu_jacld t4 | greedy 790 unproven 0 b6892132eae8ed7e | refine 720 unproven 0 970c6ab143955c39 | bnb-bestfirst 720 unproven 60000 970c6ab143955c39 | bnb-heaviest 720 unproven 60000 970c6ab143955c39 | bnb-bestfirst-shared 720 unproven 60000 970c6ab143955c39 | bnb-lifo 720 unproven 60000 970c6ab143955c39 || refine unproven lb 570
MG mg_resid t1 | greedy 1198 unproven 0 213679e184688d79 | bnb-bestfirst 1198 proven 24745 213679e184688d79 || greedy proven lb 1198
MG mg_resid t2 | greedy 1198 unproven 0 213679e184688d79 | bnb-bestfirst 1198 proven 24745 213679e184688d79 | bnb-heaviest 1198 proven 24745 213679e184688d79 || greedy proven lb 1198
MG mg_resid t4 | greedy 1198 unproven 0 213679e184688d79 | bnb-bestfirst 1198 proven 24745 213679e184688d79 | bnb-heaviest 1198 proven 24745 213679e184688d79 | bnb-bestfirst-shared 1198 proven 24745 213679e184688d79 | bnb-lifo 1198 unproven 60000 213679e184688d79 || greedy proven lb 1198
SP sp_lhs t1 | greedy 678 unproven 0 943585fab217d9e7 | bnb-bestfirst 668 proven 738 4cfdfffd55e26eb6 || bnb-bestfirst proven lb 668
SP sp_lhs t2 | greedy 678 unproven 0 943585fab217d9e7 | bnb-bestfirst 668 proven 738 4cfdfffd55e26eb6 | bnb-heaviest 668 proven 738 4cfdfffd55e26eb6 || bnb-bestfirst proven lb 668
SP sp_lhs t4 | greedy 678 unproven 0 943585fab217d9e7 | bnb-bestfirst 668 proven 738 4cfdfffd55e26eb6 | bnb-heaviest 668 proven 738 4cfdfffd55e26eb6 | bnb-bestfirst-shared 668 proven 765 4cfdfffd55e26eb6 | bnb-lifo 668 proven 1753 4cfdfffd55e26eb6 || bnb-bestfirst proven lb 668
ostencil stencil_jacobi t1 | greedy 846 unproven 0 4f26c13e5d12c68d | bnb-bestfirst 846 proven 4633 4f26c13e5d12c68d || greedy proven lb 846
ostencil stencil_jacobi t2 | greedy 846 unproven 0 4f26c13e5d12c68d | bnb-bestfirst 846 proven 4633 4f26c13e5d12c68d | bnb-heaviest 846 proven 4633 4f26c13e5d12c68d || greedy proven lb 846
ostencil stencil_jacobi t4 | greedy 846 unproven 0 4f26c13e5d12c68d | bnb-bestfirst 846 proven 4633 4f26c13e5d12c68d | bnb-heaviest 846 proven 4633 4f26c13e5d12c68d | bnb-bestfirst-shared 846 proven 4633 4f26c13e5d12c68d | bnb-lifo 846 proven 4633 4f26c13e5d12c68d || greedy proven lb 846
olbm lbm_stream t1 | greedy 1983 unproven 0 4279bd2edd9152d5 | refine 1973 unproven 0 dd0a3901166e653f | bnb-bestfirst 1973 unproven 60000 dd0a3901166e653f || refine unproven lb 1643
olbm lbm_stream t2 | greedy 1983 unproven 0 4279bd2edd9152d5 | refine 1973 unproven 0 dd0a3901166e653f | bnb-bestfirst 1973 unproven 60000 dd0a3901166e653f | bnb-heaviest 1973 unproven 60000 dd0a3901166e653f || refine unproven lb 1643
olbm lbm_stream t4 | greedy 1983 unproven 0 4279bd2edd9152d5 | refine 1973 unproven 0 dd0a3901166e653f | bnb-bestfirst 1973 unproven 60000 dd0a3901166e653f | bnb-heaviest 1973 unproven 60000 dd0a3901166e653f | bnb-bestfirst-shared 1973 unproven 60000 dd0a3901166e653f | bnb-lifo 1973 unproven 60000 dd0a3901166e653f || refine unproven lb 1643
omriq mriq_computeq t1 | greedy 1105 unproven 0 ad682c4f64320bc5 | bnb-bestfirst 1105 proven 82 ad682c4f64320bc5 || greedy proven lb 1105
omriq mriq_computeq t2 | greedy 1105 unproven 0 ad682c4f64320bc5 | bnb-bestfirst 1105 proven 82 ad682c4f64320bc5 | bnb-heaviest 1105 proven 82 ad682c4f64320bc5 || greedy proven lb 1105
omriq mriq_computeq t4 | greedy 1105 unproven 0 ad682c4f64320bc5 | bnb-bestfirst 1105 proven 82 ad682c4f64320bc5 | bnb-heaviest 1105 proven 82 ad682c4f64320bc5 | bnb-bestfirst-shared 1105 proven 82 ad682c4f64320bc5 | bnb-lifo 1105 proven 90 ad682c4f64320bc5 || greedy proven lb 1105
ep ep_gauss t1 | greedy 462 unproven 0 67e9c3765e3764f1 | bnb-bestfirst 462 proven 15 67e9c3765e3764f1 || greedy proven lb 462
ep ep_gauss t2 | greedy 462 unproven 0 67e9c3765e3764f1 | bnb-bestfirst 462 proven 15 67e9c3765e3764f1 | bnb-heaviest 462 proven 15 67e9c3765e3764f1 || greedy proven lb 462
ep ep_gauss t4 | greedy 462 unproven 0 67e9c3765e3764f1 | bnb-bestfirst 462 proven 15 67e9c3765e3764f1 | bnb-heaviest 462 proven 15 67e9c3765e3764f1 | bnb-bestfirst-shared 462 proven 15 67e9c3765e3764f1 | bnb-lifo 462 proven 15 67e9c3765e3764f1 || greedy proven lb 462
cg cg_spmv t1 | greedy 318 proven 0 cc104eeba48d1a16 || greedy proven lb 318
cg cg_spmv t2 | greedy 318 proven 0 cc104eeba48d1a16 || greedy proven lb 318
cg cg_spmv t4 | greedy 318 proven 0 cc104eeba48d1a16 || greedy proven lb 318
cg cg_axpy t1 | greedy 325 proven 0 dfafa4288a551b7d || greedy proven lb 325
cg cg_axpy t2 | greedy 325 proven 0 dfafa4288a551b7d || greedy proven lb 325
cg cg_axpy t4 | greedy 325 proven 0 dfafa4288a551b7d || greedy proven lb 325
csp sp_lhs t1 | greedy 678 unproven 0 943585fab217d9e7 | bnb-bestfirst 668 proven 738 4cfdfffd55e26eb6 || bnb-bestfirst proven lb 668
csp sp_lhs t2 | greedy 678 unproven 0 943585fab217d9e7 | bnb-bestfirst 668 proven 738 4cfdfffd55e26eb6 | bnb-heaviest 668 proven 738 4cfdfffd55e26eb6 || bnb-bestfirst proven lb 668
csp sp_lhs t4 | greedy 678 unproven 0 943585fab217d9e7 | bnb-bestfirst 668 proven 738 4cfdfffd55e26eb6 | bnb-heaviest 668 proven 738 4cfdfffd55e26eb6 | bnb-bestfirst-shared 668 proven 765 4cfdfffd55e26eb6 | bnb-lifo 668 proven 1753 4cfdfffd55e26eb6 || bnb-bestfirst proven lb 668
bt bt_zsolve t1 | greedy 3391 unproven 0 c7dffc043fd0530c | bnb-bestfirst 3391 unproven 60000 c7dffc043fd0530c || greedy unproven lb 3081
bt bt_zsolve t2 | greedy 3391 unproven 0 c7dffc043fd0530c | bnb-bestfirst 3391 unproven 60000 c7dffc043fd0530c | bnb-heaviest 3391 unproven 60000 c7dffc043fd0530c || greedy unproven lb 3081
bt bt_zsolve t4 | greedy 3391 unproven 0 c7dffc043fd0530c | bnb-bestfirst 3391 unproven 60000 c7dffc043fd0530c | bnb-heaviest 3391 unproven 60000 c7dffc043fd0530c | bnb-bestfirst-shared 3391 unproven 60000 c7dffc043fd0530c | bnb-lifo 3391 unproven 60000 c7dffc043fd0530c || greedy unproven lb 3081
bt bt_rhs t1 | greedy 1546 unproven 0 b412fe5234a2e837 | bnb-bestfirst 1526 proven 40 a7b313cb5d157a0e || bnb-bestfirst proven lb 1526
bt bt_rhs t2 | greedy 1546 unproven 0 b412fe5234a2e837 | bnb-bestfirst 1526 proven 40 a7b313cb5d157a0e | bnb-heaviest 1526 proven 40 a7b313cb5d157a0e || bnb-bestfirst proven lb 1526
bt bt_rhs t4 | greedy 1546 unproven 0 b412fe5234a2e837 | bnb-bestfirst 1526 proven 40 a7b313cb5d157a0e | bnb-heaviest 1526 proven 40 a7b313cb5d157a0e | bnb-bestfirst-shared 1526 proven 43 a7b313cb5d157a0e | bnb-lifo 1526 proven 40 a7b313cb5d157a0e || bnb-bestfirst proven lb 1526
";

#[test]
fn portfolio_assembly_on_all_19_suite_kernels_is_pinned() {
    let cm = CostModel::paper();
    let mut table = String::new();
    for (name, mut kernel) in common::suite_kernels() {
        Runner::new(all_rules()).run(&mut kernel.egraph);
        let (eg, roots) = (&kernel.egraph, kernel.extraction_roots());
        for threads in [1, 2, 4] {
            let cfg = PortfolioConfig {
                threads,
                node_budget: 60_000,
                deadline: Duration::from_secs(600),
            };
            let res = extract_portfolio(eg, &roots, &cm, &cfg, None);
            table.push_str(&format!("{name} t{threads}"));
            for (strategy, m) in &res.members {
                table.push_str(&format!(
                    " | {strategy} {} {} {} {:016x}",
                    m.cost,
                    if m.proven_optimal { "proven" } else { "unproven" },
                    m.explored,
                    m.selection.content_hash(eg, &roots),
                ));
            }
            table.push_str(&format!(
                " || {} {} lb {}\n",
                res.winning().0,
                if res.proven_optimal { "proven" } else { "unproven" },
                res.lower_bound,
            ));
        }
    }
    assert_eq!(table, ASSEMBLY, "portfolio assembly moved; got:\n{table}");
}
