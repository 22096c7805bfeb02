//! A deterministic size gate on extraction: its tables are sized by the
//! classes that exist, not by every id saturation ever created.
//!
//! The union-find never reuses an id, so after saturation 75–90 % of the
//! ids of a heavy kernel are dead (`lu_jacld`: 2 588 ids, 383 classes). A
//! table indexed by id pays for them all — the LP bound matrix
//! quadratically, and it is rebuilt once per closure-dominance round. This
//! binary installs the counting allocator (its own test binary, one
//! `#[test]`) and gates what `extract_portfolio` requests over the 19 suite
//! kernels at half of what it requested at `b2bf575`, where every table was
//! indexed by id (LP words per row, allocations, bytes; the other six
//! kernels repeat rows above):
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
//! (Rows there were as wide as the largest live id, not `id_bound`.) A run
//! prints the same table for the tree under test; the total moves by a few
//! allocations of ~400 bytes with how the racing worker threads start.

mod common;

use accsat_egraph::{all_rules, Runner};
use accsat_extract::{extract_portfolio, CostModel, PortfolioConfig, SearchContext};
use common::counting::counted;
use std::time::Duration;

#[global_allocator]
static GLOBAL: common::counting::Counting = common::counting::Counting;

/// Bytes the 19 extractions requested at `b2bf575` (table above).
const PARENT_BYTES: u64 = 11_089_593;

#[test]
fn extraction_tables_are_sized_by_live_classes() {
    let cm = CostModel::paper();
    // the product's portfolio (width 2, 60 k nodes); the wall-clock valve
    // is raised so that only the node budget ends a search
    let cfg =
        PortfolioConfig { threads: 2, node_budget: 60_000, deadline: Duration::from_secs(600) };
    let mut total = [0u64; 2];
    for (name, mut kernel) in common::suite_kernels() {
        Runner::new(all_rules()).run(&mut kernel.egraph);
        let (eg, roots) = (&kernel.egraph, kernel.extraction_roots());
        let cx = SearchContext::build(eg, &cm);
        assert_eq!(cx.slots(), eg.num_classes(), "{name}: one slot per live class");
        assert_eq!(cx.lp().len(), cx.slots(), "{name}: one LP row per slot");
        let lp_words = cx.lp().len().div_ceil(64);
        drop(cx);
        let (_, n) = counted(|| extract_portfolio(eg, &roots, &cm, &cfg));
        println!(
            "{name}: {} ids, {} classes, {lp_words} LP words per row, {} allocations, {} bytes",
            eg.id_bound(),
            eg.num_classes(),
            n[0],
            n[1],
        );
        total = [total[0] + n[0], total[1] + n[1]];
    }
    println!(
        "all 19: {} allocations, {} bytes (b2bf575: {PARENT_BYTES} bytes)",
        total[0], total[1]
    );
    assert!(
        total[1] * 2 <= PARENT_BYTES,
        "extraction requested {} bytes, more than half of the id-indexed {PARENT_BYTES}",
        total[1]
    );
}
