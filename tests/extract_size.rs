//! A deterministic size gate on extraction: its tables are sized by the
//! classes that exist, not by every id saturation ever created.
//!
//! The union-find never reuses an id, so after saturation 75–90 % of the
//! ids of a heavy kernel are dead (`lu_jacld`: 2 588 ids, 383 classes). A
//! table indexed by id pays for them all — the LP bound matrix
//! quadratically, and it is rebuilt once per closure-dominance round. This
//! binary installs the counting allocator (its own test binary, one
//! `#[test]`) and gates what `extract_portfolio` requests over the 19 suite
//! kernels. At `b2bf575` every table was indexed by id (LP words per row,
//! allocations, bytes; the other six kernels repeat rows above):
//!
//! ```text
//! BT bt_zsolve              1184 ids  262 classes  16 words   7693  1271772
//! BT bt_rhs                   72 ids   50 classes   2 words   1103   139000
//! CG cg_spmv                  22 ids   18 classes   1 word     233    23933
//! CG cg_axpy                  20 ids   13 classes   1 word     205    16959
//! EP ep_gauss                119 ids   86 classes   2 words   1479   178709
//! FT ft_butterfly             48 ids   32 classes   1 word     691    82229
//! FT ft_evolve                33 ids   20 classes   1 word     481    48929
//! LU lu_jacld               2588 ids  383 classes  30 words  13415  2924840
//! MG mg_resid               1020 ids  210 classes  11 words   6079   867007
//! SP sp_lhs                  227 ids   69 classes   4 words   1883   297430
//! ostencil stencil_jacobi    951 ids   94 classes  13 words   4108   693459
//! olbm lbm_stream           1940 ids  457 classes  23 words  12217  2441062
//! omriq mriq_computeq        125 ids   62 classes   2 words   1316   176461
//! all 19                                                     63499 11089593
//! ```
//!
//! (Rows there were as wide as the largest live id, not `id_bound`.) Slot
//! tables halved that; a context built without an allocation per candidate
//! brought it to 3.79 M bytes in a race of two searches. One search per
//! kernel, on the calling thread, requests 3 453 675 bytes in 10 987
//! allocations, the same on every run, and the gate sits 2 % above that.
//! A run prints the same table for the tree under test.
//!
//! The same binary counts the allocations of `SearchContext::build` alone,
//! the fixed cost every extraction pays once per kernel: over the 19 suite
//! kernels and over 64 tiny generated kernels (`GenConfig { max_stmts: 2,
//! max_depth: 2 }`, the shape of the benchmark's many-small-kernels fill).
//! With one candidate list, one child-slot pool and reused scratch it is
//! 941 and 2 560, gated at a quarter of the per-candidate build's counts.

mod common;

use accsat_benchmarks::genkern::{generate_kernel, GenConfig};
use accsat_egraph::{all_rules, Runner};
use accsat_extract::{extract_portfolio, CostModel, PortfolioConfig, SearchContext};
use common::counting::counted;
use std::time::Duration;

#[global_allocator]
static GLOBAL: common::counting::Counting = common::counting::Counting;

/// Bytes the 19 extractions requested at `b2bf575` (table above).
const PARENT_BYTES: u64 = 11_089_593;

/// The byte gate: 3 453 675 bytes measured, plus 2 %.
const GATE_BYTES: u64 = 3_523_000;

/// Allocations of `SearchContext::build` over the 19 suite kernels and over
/// the 64 generated kernels when every candidate and class owned its vectors
/// (`edabc1e`).
const PARENT_CONTEXT_ALLOCATIONS: [u64; 2] = [37_158, 24_696];

/// The 64 generated kernels, saturated.
fn generated_kernels() -> Vec<accsat_ssa::SsaKernel> {
    let cfg = GenConfig { max_stmts: 2, max_depth: 2 };
    let mut out = Vec::new();
    for seed in 0..64 {
        let prog = accsat_ir::parse_program(&generate_kernel(seed, &cfg).source).unwrap();
        for f in &prog.functions {
            for l in accsat_ir::innermost_parallel_loops(f) {
                let mut kernel = accsat_ssa::build_kernel(&l.body);
                Runner::new(all_rules()).run(&mut kernel.egraph);
                out.push(kernel);
            }
        }
    }
    out
}

#[test]
fn extraction_tables_are_sized_by_live_classes() {
    let cm = CostModel::paper();
    // the product's portfolio (the pipeline's 60 k nodes); the wall-clock
    // valve is raised so that only the node budget ends a search
    let deadline = Duration::from_secs(600);
    let cfg = PortfolioConfig { node_budget: 60_000, deadline };
    let mut total = [0u64; 2];
    let mut context = [0u64; 2];
    for (name, mut kernel) in common::suite_kernels() {
        Runner::new(all_rules()).run(&mut kernel.egraph);
        let (eg, roots) = (&kernel.egraph, kernel.extraction_roots());
        let (cx, built) = counted(|| SearchContext::build(eg, &cm));
        assert_eq!(cx.slots(), eg.num_classes(), "{name}: one slot per live class");
        assert_eq!(cx.lp().len(), cx.slots(), "{name}: one LP row per slot");
        let lp_words = cx.lp().len().div_ceil(64);
        drop(cx);
        let (_, n) = counted(|| extract_portfolio(eg, &roots, &cm, &cfg));
        println!(
            "{name}: {} ids, {} classes, {lp_words} LP words per row, {} allocations, {} bytes \
             ({} to build the context)",
            eg.id_bound(),
            eg.num_classes(),
            n[0],
            n[1],
            built[0],
        );
        total = [total[0] + n[0], total[1] + n[1]];
        context[0] += built[0];
    }
    let generated = generated_kernels();
    for kernel in &generated {
        let (_, built) = counted(|| SearchContext::build(&kernel.egraph, &cm));
        context[1] += built[0];
    }
    println!(
        "all 19: {} allocations, {} bytes (b2bf575: {PARENT_BYTES} bytes)",
        total[0], total[1]
    );
    println!(
        "context build: {} allocations over the 19 suite kernels, {} over {} generated kernels \
         (edabc1e: {PARENT_CONTEXT_ALLOCATIONS:?})",
        context[0],
        context[1],
        generated.len()
    );
    assert!(
        total[1] <= GATE_BYTES,
        "extraction requested {} bytes, more than the gate's {GATE_BYTES}",
        total[1]
    );
    assert!(
        context[0] * 4 <= PARENT_CONTEXT_ALLOCATIONS[0]
            && context[1] * 4 <= PARENT_CONTEXT_ALLOCATIONS[1],
        "building the search context allocated {context:?} times, more than a quarter of \
         {PARENT_CONTEXT_ALLOCATIONS:?}"
    );
}
