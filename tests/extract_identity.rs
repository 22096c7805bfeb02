//! "Identical by construction", checked for extraction: `accsat-extract`
//! may change how its class tables are sized and indexed, but never which
//! candidates it prunes, what it bounds, which node a tie-break picks or
//! how many nodes a search explores. The table below was recorded at
//! `b2bf575`, the last commit whose tables were indexed by raw e-class id;
//! a layout change that moves any column has changed behaviour.
//!
//! `suite_certification` pins costs and proofs but not `explored`, and the
//! default portfolio (width 1) runs `bnb-bestfirst` alone (only `tune`
//! runs the other three) — so all **four** strategies run here, on every
//! kernel (also the ones the portfolio short-circuits), each seeded with
//! the portfolio's refined incumbent at the default 60 k-node budget.
//! The same row is pinned for 64 seeded genkern kernels of two shapes,
//! recorded at `2f83943`: the suite alone leaves small and generated
//! kernels' `explored` counts free. A second table pins what each pruning
//! layer of the search is worth, a third how the portfolio combines its
//! members into one result, and a last test that widening the race from
//! one strategy to two changes nothing but the explored-node sum.

mod common;

use accsat_benchmarks::genkern::{generate_kernel, GenConfig};
use accsat_egraph::{all_rules, EGraph, Id, Runner};
use accsat_extract::{
    extract_exact_in, extract_greedy, extract_portfolio, ClassOrder, ContextOptions, CostModel,
    PortfolioConfig, PortfolioResult, SearchContext, SearchOptions,
};
use accsat_ir::{innermost_parallel_loops, parse_program};
use accsat_ssa::{build_kernel, SsaKernel};
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
    let mut table = String::new();
    for (name, mut kernel) in common::suite_kernels() {
        Runner::new(all_rules()).run(&mut kernel.egraph);
        table.push_str(&strategy_row(&name, &kernel.egraph, &kernel.extraction_roots()));
    }
    assert_eq!(table, EXPECTED, "extraction moved; got:\n{table}");
}

/// The same row for 64 seeded genkern kernels: seeds 0–31 at
/// `GenConfig::default()`, then seeds 0–31 at the small
/// `{ max_stmts: 2, max_depth: 2 }` shape of the `gen_fill` workload.
const GENERATED: &str = "\
gen default 0 deep_nest | 32 1 2 | 2636 | greedy 2656 | 2656 proven 25 65773ea1553ba974 | 2656 proven 25 65773ea1553ba974 | 2656 proven 25 65773ea1553ba974 | 2656 proven 25 65773ea1553ba974
gen default 1 phi_if | 62 0 5 | 4261 | greedy 4311 | 4311 proven 369 1de51e66e43e5b7b | 4311 proven 369 1de51e66e43e5b7b | 4311 proven 369 1de51e66e43e5b7b | 4311 proven 425 1de51e66e43e5b7b
gen default 2 while_loop | 37 0 1 | 1517 | greedy 1547 | 1547 proven 61 74a474959731b462 | 1547 proven 61 74a474959731b462 | 1547 proven 61 74a474959731b462 | 1547 proven 65 74a474959731b462
gen default 3 arr_cond | 37 2 1 | 4483 | greedy 4533 | 4533 proven 199 5a0a48eb2064911f | 4533 proven 199 5a0a48eb2064911f | 4533 proven 199 5a0a48eb2064911f | 4533 proven 107 5a0a48eb2064911f
gen default 4 seq_loop | 4 0 0 | 979 | greedy 979 | 979 proven 1 a270aaedfa1d9d5d | 979 proven 1 a270aaedfa1d9d5d | 979 proven 1 a270aaedfa1d9d5d | 979 proven 1 a270aaedfa1d9d5d
gen default 5 seq_loop | 62 1 7 | 1596 | greedy 1636 | 1636 proven 305 e61f1db4a78783df | 1636 proven 305 e61f1db4a78783df | 1636 proven 305 e61f1db4a78783df | 1636 proven 305 e61f1db4a78783df
gen default 6 stencil1d | 20 0 0 | 897 | greedy 927 | 927 proven 53 ecefe07c105b989b | 927 proven 53 ecefe07c105b989b | 927 proven 53 ecefe07c105b989b | 927 proven 53 ecefe07c105b989b
gen default 7 deep_nest | 3 0 0 | 644 | greedy 644 | 644 proven 1 aa40b0d012472626 | 644 proven 1 aa40b0d012472626 | 644 proven 1 aa40b0d012472626 | 644 proven 1 aa40b0d012472626
gen default 8 while_loop | 35 0 0 | 1680 | greedy 1720 | 1720 proven 184 5c83ade307dfa861 | 1720 proven 184 5c83ade307dfa861 | 1720 proven 184 5c83ade307dfa861 | 1720 proven 184 5c83ade307dfa861
gen default 9 spec_mix | 20 0 1 | 2552 | greedy 2562 | 2562 proven 3 6f3b8f8d6116f7c2 | 2562 proven 3 6f3b8f8d6116f7c2 | 2562 proven 3 6f3b8f8d6116f7c2 | 2562 proven 3 6f3b8f8d6116f7c2
gen default 10 seq_loop | 104 0 0 | 2523 | greedy 2563 | 2563 proven 424 1d626feef391c4c5 | 2563 proven 424 1d626feef391c4c5 | 2563 proven 424 1d626feef391c4c5 | 2563 proven 424 1d626feef391c4c5
gen default 11 arr_cond | 47 1 0 | 1719 | greedy 1759 | 1759 proven 229 e987b74f8e8e16ca | 1759 proven 229 e987b74f8e8e16ca | 1759 proven 229 e987b74f8e8e16ca | 1759 proven 265 e987b74f8e8e16ca
gen default 12 twod | 41 2 1 | 3922 | greedy 3972 | 3972 proven 369 771d02f11d3339a3 | 3972 proven 369 771d02f11d3339a3 | 3972 proven 369 771d02f11d3339a3 | 3972 proven 401 771d02f11d3339a3
gen default 13 deep_nest | 26 1 1 | 1579 | greedy 1609 | 1609 proven 49 f5b14daa491d8420 | 1609 proven 49 f5b14daa491d8420 | 1609 proven 49 f5b14daa491d8420 | 1609 proven 49 f5b14daa491d8420
gen default 14 while_loop | 36 0 1 | 1359 | greedy 1399 | 1389 proven 73 2f42c8d352c23f7a | 1389 proven 73 2f42c8d352c23f7a | 1389 proven 73 2f42c8d352c23f7a | 1389 proven 66 2f42c8d352c23f7a
gen default 15 arr_cond | 51 1 7 | 1849 | greedy 1879 | 1879 proven 203 74cf7ba1e956037a | 1879 proven 203 74cf7ba1e956037a | 1879 proven 203 74cf7ba1e956037a | 1879 proven 125 74cf7ba1e956037a
gen default 16 deep_nest | 25 0 3 | 3824 | greedy 3824 | 3824 proven 1 7ba81ce9fe90e55d | 3824 proven 1 7ba81ce9fe90e55d | 3824 proven 1 7ba81ce9fe90e55d | 3824 proven 1 7ba81ce9fe90e55d
gen default 17 twod | 46 1 4 | 5466 | greedy 5516 | 5516 proven 517 1c7a2e84cb181298 | 5516 proven 517 1c7a2e84cb181298 | 5516 proven 517 1c7a2e84cb181298 | 5516 proven 619 1c7a2e84cb181298
gen default 18 seq_loop | 17 2 0 | 1000 | greedy 1020 | 1020 proven 13 e0c8fcee7b70adaa | 1020 proven 13 e0c8fcee7b70adaa | 1020 proven 13 e0c8fcee7b70adaa | 1020 proven 13 e0c8fcee7b70adaa
gen default 19 spec_mix | 10 0 0 | 938 | greedy 948 | 948 proven 4 04ae3293d76f921e | 948 proven 4 04ae3293d76f921e | 948 proven 4 04ae3293d76f921e | 948 proven 4 04ae3293d76f921e
gen default 20 spec_mix | 47 0 14 | 586 | greedy 606 | 606 proven 20 ea22c15dce878db6 | 606 proven 20 ea22c15dce878db6 | 606 proven 20 ea22c15dce878db6 | 606 proven 20 ea22c15dce878db6
gen default 21 deep_nest | 88 1 1 | 3645 | greedy 3695 | 3695 proven 675 f91c09cf8fb8a445 | 3695 proven 675 f91c09cf8fb8a445 | 3695 proven 675 f91c09cf8fb8a445 | 3695 proven 783 f91c09cf8fb8a445
gen default 22 seq_loop | 110 1 15 | 1300 | greedy 1330 | 1330 proven 141 fe9ed7633acf5ce9 | 1330 proven 141 fe9ed7633acf5ce9 | 1330 proven 141 fe9ed7633acf5ce9 | 1330 proven 141 fe9ed7633acf5ce9
gen default 23 while_loop | 21 0 0 | 2258 | greedy 2268 | 2268 proven 6 6b472a57fe564136 | 2268 proven 6 6b472a57fe564136 | 2268 proven 6 6b472a57fe564136 | 2268 proven 6 6b472a57fe564136
gen default 24 spec_mix | 8 2 1 | 1627 | greedy 1627 | 1627 proven 1 1f69971541152363 | 1627 proven 1 1f69971541152363 | 1627 proven 1 1f69971541152363 | 1627 proven 1 1f69971541152363
gen default 25 phi_if | 13 0 1 | 1539 | greedy 1549 | 1549 proven 4 1419b1fe713789ab | 1549 proven 4 1419b1fe713789ab | 1549 proven 4 1419b1fe713789ab | 1549 proven 4 1419b1fe713789ab
gen default 26 seq_loop | 53 1 1 | 2830 | greedy 2870 | 2870 proven 259 36b3c0ef93c42a81 | 2870 proven 259 36b3c0ef93c42a81 | 2870 proven 259 36b3c0ef93c42a81 | 2870 proven 245 36b3c0ef93c42a81
gen default 27 seq_loop | 50 0 1 | 4505 | greedy 4545 | 4545 proven 139 61b89bad9a6cf922 | 4545 proven 139 61b89bad9a6cf922 | 4545 proven 139 61b89bad9a6cf922 | 4545 proven 159 61b89bad9a6cf922
gen default 28 spec_mix | 285 3 9 | 4030 | greedy 4160 | 4160 unproven 60000 ee1d042705a4b21e | 4160 unproven 60000 ee1d042705a4b21e | 4160 unproven 60000 ee1d042705a4b21e | 4160 unproven 60000 ee1d042705a4b21e
gen default 29 stencil1d | 7 0 0 | 2137 | greedy 2147 | 2147 proven 3 8e0f0dbde6c1ded4 | 2147 proven 3 8e0f0dbde6c1ded4 | 2147 proven 3 8e0f0dbde6c1ded4 | 2147 proven 3 8e0f0dbde6c1ded4
gen default 30 while_loop | 7 0 0 | 1148 | greedy 1148 | 1148 proven 1 4d05bc99a1892c39 | 1148 proven 1 4d05bc99a1892c39 | 1148 proven 1 4d05bc99a1892c39 | 1148 proven 1 4d05bc99a1892c39
gen default 31 seq_loop | 30 0 0 | 1436 | greedy 1456 | 1456 proven 20 746ac5f6b6890217 | 1456 proven 20 746ac5f6b6890217 | 1456 proven 20 746ac5f6b6890217 | 1456 proven 20 746ac5f6b6890217
gen small 0 deep_nest | 11 0 1 | 1450 | greedy 1450 | 1450 proven 1 df33eb3acadfafe0 | 1450 proven 1 df33eb3acadfafe0 | 1450 proven 1 df33eb3acadfafe0 | 1450 proven 1 df33eb3acadfafe0
gen small 1 phi_if | 10 0 0 | 674 | greedy 674 | 674 proven 1 9a3c9c0e02b47456 | 674 proven 1 9a3c9c0e02b47456 | 674 proven 1 9a3c9c0e02b47456 | 674 proven 1 9a3c9c0e02b47456
gen small 2 while_loop | 2 0 0 | 367 | greedy 367 | 367 proven 1 cdd6126fa11de4ad | 367 proven 1 cdd6126fa11de4ad | 367 proven 1 cdd6126fa11de4ad | 367 proven 1 cdd6126fa11de4ad
gen small 3 arr_cond | 4 0 0 | 1939 | greedy 1939 | 1939 proven 1 0b43780213903c0e | 1939 proven 1 0b43780213903c0e | 1939 proven 1 0b43780213903c0e | 1939 proven 1 0b43780213903c0e
gen small 4 seq_loop | 4 0 0 | 979 | greedy 979 | 979 proven 1 a270aaedfa1d9d5d | 979 proven 1 a270aaedfa1d9d5d | 979 proven 1 a270aaedfa1d9d5d | 979 proven 1 a270aaedfa1d9d5d
gen small 5 seq_loop | 4 0 0 | 1195 | greedy 1195 | 1195 proven 1 8cdf8f8f627632e1 | 1195 proven 1 8cdf8f8f627632e1 | 1195 proven 1 8cdf8f8f627632e1 | 1195 proven 1 8cdf8f8f627632e1
gen small 6 stencil1d | 9 0 0 | 565 | greedy 575 | 575 proven 4 d0f9a3bc7feb4b68 | 575 proven 4 d0f9a3bc7feb4b68 | 575 proven 4 d0f9a3bc7feb4b68 | 575 proven 4 d0f9a3bc7feb4b68
gen small 7 deep_nest | 3 0 0 | 644 | greedy 644 | 644 proven 1 aa40b0d012472626 | 644 proven 1 aa40b0d012472626 | 644 proven 1 aa40b0d012472626 | 644 proven 1 aa40b0d012472626
gen small 8 while_loop | 9 0 0 | 806 | greedy 806 | 806 proven 1 14ab380bc6b79439 | 806 proven 1 14ab380bc6b79439 | 806 proven 1 14ab380bc6b79439 | 806 proven 1 14ab380bc6b79439
gen small 9 spec_mix | 2 0 0 | 455 | greedy 455 | 455 proven 1 b91fe22c97d8f076 | 455 proven 1 b91fe22c97d8f076 | 455 proven 1 b91fe22c97d8f076 | 455 proven 1 b91fe22c97d8f076
gen small 10 seq_loop | 9 0 1 | 1100 | greedy 1110 | 1110 proven 3 5f0757195dc982eb | 1110 proven 3 5f0757195dc982eb | 1110 proven 3 5f0757195dc982eb | 1110 proven 3 5f0757195dc982eb
gen small 11 arr_cond | 38 0 0 | 4396 | greedy 4426 | 4426 proven 61 3dd73864a435312f | 4426 proven 61 3dd73864a435312f | 4426 proven 61 3dd73864a435312f | 4426 proven 65 3dd73864a435312f
gen small 12 twod | 22 3 2 | 2002 | greedy 2022 | 2022 proven 9 0367172d7f55984b | 2022 proven 9 0367172d7f55984b | 2022 proven 9 0367172d7f55984b | 2022 proven 10 0367172d7f55984b
gen small 13 deep_nest | 24 0 3 | 2176 | greedy 2196 | 2196 proven 13 6f3f0c9d1401e014 | 2196 proven 13 6f3f0c9d1401e014 | 2196 proven 13 6f3f0c9d1401e014 | 2196 proven 13 6f3f0c9d1401e014
gen small 14 while_loop | 3 0 0 | 674 | greedy 674 | 674 proven 1 9586bf45fbc4269d | 674 proven 1 9586bf45fbc4269d | 674 proven 1 9586bf45fbc4269d | 674 proven 1 9586bf45fbc4269d
gen small 15 arr_cond | 11 0 3 | 676 | greedy 686 | 686 proven 4 5e2135817c09e78b | 686 proven 4 5e2135817c09e78b | 686 proven 4 5e2135817c09e78b | 686 proven 4 5e2135817c09e78b
gen small 16 deep_nest | 9 0 0 | 2485 | greedy 2485 | 2485 proven 1 a3473a99ffef4727 | 2485 proven 1 a3473a99ffef4727 | 2485 proven 1 a3473a99ffef4727 | 2485 proven 1 a3473a99ffef4727
gen small 17 twod | 13 1 1 | 1929 | greedy 1949 | 1949 proven 13 48514abdb8cf18a8 | 1949 proven 13 48514abdb8cf18a8 | 1949 proven 13 48514abdb8cf18a8 | 1949 proven 13 48514abdb8cf18a8
gen small 18 seq_loop | 10 0 0 | 679 | greedy 689 | 689 proven 4 7b7ebc1e36056d72 | 689 proven 4 7b7ebc1e36056d72 | 689 proven 4 7b7ebc1e36056d72 | 689 proven 4 7b7ebc1e36056d72
gen small 19 spec_mix | 2 1 0 | 223 | greedy 223 | 223 proven 1 c03874ad810f8649 | 223 proven 1 c03874ad810f8649 | 223 proven 1 c03874ad810f8649 | 223 proven 1 c03874ad810f8649
gen small 20 spec_mix | 3 0 0 | 142 | greedy 142 | 142 proven 1 013cf889c3cc3eb5 | 142 proven 1 013cf889c3cc3eb5 | 142 proven 1 013cf889c3cc3eb5 | 142 proven 1 013cf889c3cc3eb5
gen small 21 deep_nest | 26 0 1 | 2298 | greedy 2318 | 2318 proven 13 caeab0df0014acd5 | 2318 proven 13 caeab0df0014acd5 | 2318 proven 13 caeab0df0014acd5 | 2318 proven 13 caeab0df0014acd5
gen small 22 seq_loop | 7 1 0 | 562 | greedy 572 | 572 proven 3 b4b41c66d54de92e | 572 proven 3 b4b41c66d54de92e | 572 proven 3 b4b41c66d54de92e | 572 proven 6 b4b41c66d54de92e
gen small 23 while_loop | 10 0 0 | 1408 | greedy 1428 | 1428 proven 8 3217b124b4dce045 | 1428 proven 8 3217b124b4dce045 | 1428 proven 8 3217b124b4dce045 | 1428 proven 8 3217b124b4dce045
gen small 24 spec_mix | 18 0 0 | 566 | greedy 586 | 586 proven 13 a1f4dc8d35f258ae | 586 proven 13 a1f4dc8d35f258ae | 586 proven 13 a1f4dc8d35f258ae | 586 proven 13 a1f4dc8d35f258ae
gen small 25 phi_if | 9 0 0 | 888 | greedy 898 | 898 proven 4 b92b5723ca0ff65e | 898 proven 4 b92b5723ca0ff65e | 898 proven 4 b92b5723ca0ff65e | 898 proven 4 b92b5723ca0ff65e
gen small 26 seq_loop | 15 0 0 | 1110 | greedy 1120 | 1120 proven 5 636359b1a167824e | 1120 proven 5 636359b1a167824e | 1120 proven 5 636359b1a167824e | 1120 proven 5 636359b1a167824e
gen small 27 seq_loop | 11 0 0 | 1403 | greedy 1413 | 1413 proven 4 9671870d3307d48d | 1413 proven 4 9671870d3307d48d | 1413 proven 4 9671870d3307d48d | 1413 proven 4 9671870d3307d48d
gen small 28 spec_mix | 32 3 0 | 1228 | greedy 1258 | 1258 proven 112 012bc45d84c61953 | 1258 proven 112 012bc45d84c61953 | 1258 proven 112 012bc45d84c61953 | 1258 proven 112 012bc45d84c61953
gen small 29 stencil1d | 6 0 0 | 1207 | greedy 1207 | 1207 proven 1 68568fee20c4051e | 1207 proven 1 68568fee20c4051e | 1207 proven 1 68568fee20c4051e | 1207 proven 1 68568fee20c4051e
gen small 30 while_loop | 3 0 0 | 375 | greedy 375 | 375 proven 1 a8d566d94c081a9a | 375 proven 1 a8d566d94c081a9a | 375 proven 1 a8d566d94c081a9a | 375 proven 1 a8d566d94c081a9a
gen small 31 seq_loop | 7 4 0 | 665 | greedy 665 | 665 proven 1 d507e5b8293a2b98 | 665 proven 1 d507e5b8293a2b98 | 665 proven 1 d507e5b8293a2b98 | 665 proven 1 d507e5b8293a2b98
";

#[test]
fn every_strategy_on_64_generated_kernels_is_pinned() {
    let mut table = String::new();
    for (name, kernel) in generated_kernels() {
        table.push_str(&strategy_row(&name, &kernel.egraph, &kernel.extraction_roots()));
    }
    assert_eq!(table, GENERATED, "extraction moved; got:\n{table}");
}

/// The 64 genkern kernels of [`GENERATED`], named as its rows, saturated.
fn generated_kernels() -> Vec<(String, SsaKernel)> {
    let small = GenConfig { max_stmts: 2, max_depth: 2 };
    let mut out = Vec::new();
    for (shape, cfg) in [("default", GenConfig::default()), ("small", small)] {
        for seed in 0..32 {
            let gk = generate_kernel(seed, &cfg);
            let prog = parse_program(&gk.source).unwrap();
            for f in &prog.functions {
                for l in innermost_parallel_loops(f) {
                    let mut kernel = build_kernel(&l.body);
                    Runner::new(all_rules()).run(&mut kernel.egraph);
                    out.push((format!("gen {shape} {seed} {}", gk.flavor), kernel));
                }
            }
        }
    }
    out
}

/// One row of the strategy tables: the pruned counts, the root bound and
/// the refined incumbent, then every strategy's search from it.
fn strategy_row(name: &str, eg: &EGraph, roots: &[Id]) -> String {
    let cm = CostModel::paper();
    // the wall-clock valves are raised so a debug build cannot trip them:
    // only the deterministic node budget ends a search
    let deadline = Duration::from_secs(600);
    let cx = SearchContext::build(eg, &cm);
    // greedy + refinement only: a one-node budget ends every search
    // before it improves on its seed
    let seed_cfg = PortfolioConfig { threads: 1, node_budget: 1, deadline };
    let seeded = extract_portfolio(eg, roots, &cm, &seed_cfg, None);
    let (strategy, incumbent) =
        seeded.members.iter().rfind(|(n, _)| matches!(*n, "greedy" | "refine")).unwrap();
    let mut row = format!(
        "{name} | {} {} {} | {} | {strategy} {}",
        cx.orbit_pruned(),
        cx.dominance_pruned(),
        cx.closure_pruned(),
        cx.root_lower_bound(roots),
        incumbent.cost,
    );
    for (order, prefer_shared) in STRATEGIES {
        let opts = SearchOptions {
            order,
            prefer_shared,
            node_budget: 60_000,
            deadline,
            ..SearchOptions::default()
        };
        let r = extract_exact_in(&cx, roots, &incumbent.selection, incumbent.cost, &opts);
        assert_eq!(r.selection.dag_cost(eg, &cm, roots), r.cost, "{name} {order:?}");
        row.push_str(&format!(
            " | {} {} {} {:016x}",
            r.cost,
            if r.proven_optimal { "proven" } else { "unproven" },
            r.explored,
            r.selection.content_hash(eg, roots),
        ));
    }
    row.push('\n');
    row
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

/// Racing `bnb-heaviest` next to `bnb-bestfirst` buys nothing: over the 19
/// suite and 64 genkern kernels, the portfolio at widths 1 and 2 returns the
/// same winner, cost, proof, lower bound, pruned counts and selection, and
/// wherever a race ran the second search explored exactly as many nodes as
/// the first. (`bnb-heaviest` orders pending classes by their cheapest
/// candidate's cost first; at every pick with two or more pending classes
/// in these graphs that cost is the same, so the key falls through to the
/// candidate count, `bnb-bestfirst`'s own first key, and both strategies
/// branch on the same class.)
#[test]
fn width_two_repeats_width_one_on_all_83_kernels() {
    let cm = CostModel::paper();
    let mut kernels = common::suite_kernels();
    for (_, kernel) in &mut kernels {
        Runner::new(all_rules()).run(&mut kernel.egraph);
    }
    kernels.extend(generated_kernels());
    let mut raced = 0;
    for (name, kernel) in &kernels {
        let (eg, roots) = (&kernel.egraph, kernel.extraction_roots());
        let at = |threads| {
            let deadline = Duration::from_secs(600);
            let cfg = PortfolioConfig { threads, node_budget: 60_000, deadline };
            extract_portfolio(eg, &roots, &cm, &cfg, None)
        };
        let (one, two) = (at(1), at(2));
        let facts = |r: &PortfolioResult| {
            let (winner, m) = r.winning();
            let hash = m.selection.content_hash(eg, &roots);
            (*winner, m.cost, r.proven_optimal, r.lower_bound, r.pruned, hash)
        };
        assert_eq!(facts(&one), facts(&two), "{name}");
        let explored = |r: &PortfolioResult| r.members.iter().map(|(_, m)| m.explored).sum::<u64>();
        let searched = |r: &PortfolioResult| r.members.iter().any(|(n, _)| n.starts_with("bnb-"));
        assert_eq!(searched(&one), searched(&two), "{name}");
        if searched(&one) {
            raced += 1;
            assert_eq!(explored(&two), 2 * explored(&one), "{name}");
        } else {
            assert_eq!((explored(&one), explored(&two)), (0, 0), "{name}");
        }
    }
    // 58 kernels' refined incumbent misses the LP root bound, so they race
    assert_eq!((kernels.len(), raced), (83, 58), "kernels, and kernels that raced");
}
