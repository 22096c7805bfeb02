//! A deterministic allocation gate on the e-graph core.
//!
//! Wall-clock gates flake on a noisy host; allocation counts do not. This
//! binary installs a counting global allocator (its own test binary, one
//! `#[test]`, so nothing else allocates while a count is taken) and asserts
//! the two budgets the interned e-node arena is there to keep: saturating
//! the 19 suite kernels costs at most 1.5 heap allocations per final
//! e-node (15.3 when every e-node was an owned `Node` cloned into its
//! class, each child's parent list and the memo; 1.98 while every applied
//! match built a one-node class and merged it away), and restoring their
//! snapshots at most 2 per e-node (12.8 with the v1 line-and-token reader).
//! Building the 19 kernels' SSA form, whose cost every cache hit pays
//! again, may take at most half the 7 809 allocations it took while every
//! e-node was an owned `Node` and every `if` cloned the environment.

mod common;

use accsat_egraph::{all_rules, EGraph, Runner};
use accsat_ssa::build_kernel;
use common::counting::counted;

#[global_allocator]
static GLOBAL: common::counting::Counting = common::counting::Counting;

#[test]
fn saturation_and_restore_stay_within_their_allocation_budgets() {
    let runner = Runner::new(all_rules());
    let (mut nodes, mut saturate, mut restore) = (0u64, [0u64; 2], [0u64; 2]);
    let add = |total: &mut [u64; 2], n: [u64; 2]| *total = [total[0] + n[0], total[1] + n[1]];
    let kernels = common::suite_kernels();
    assert_eq!(kernels.len(), 19);
    for (_, mut kernel) in kernels {
        add(&mut saturate, counted(|| runner.run(&mut kernel.egraph)).1);
        let text = kernel.egraph.serialize();
        let (restored, n) = counted(|| EGraph::deserialize(&text));
        assert!(restored.unwrap().state_eq(&kernel.egraph));
        add(&mut restore, n);
        nodes += kernel.egraph.total_nodes() as u64;
    }
    let per_node = |n: u64| n as f64 / nodes as f64;
    println!(
        "{nodes} e-nodes: saturate {:.2} allocations and {:.0} bytes per e-node, \
         deserialize {:.2} and {:.0}",
        per_node(saturate[0]),
        per_node(saturate[1]),
        per_node(restore[0]),
        per_node(restore[1]),
    );
    assert!(2 * saturate[0] <= 3 * nodes, "saturation: {:.2} per e-node", per_node(saturate[0]));
    assert!(restore[0] <= 2 * nodes, "deserialize: {:.2} per e-node", per_node(restore[0]));

    let (mut ssa, mut initial_nodes) = ([0u64; 2], 0u64);
    for (name, body) in common::suite_bodies() {
        let (kernel, n) = counted(|| build_kernel(&body));
        println!("{name}: SSA {} allocations, {} bytes", n[0], n[1]);
        add(&mut ssa, n);
        initial_nodes += kernel.egraph.total_nodes() as u64;
    }
    println!(
        "SSA of {initial_nodes} initial e-nodes: {} allocations ({:.2} per e-node), {} bytes",
        ssa[0],
        ssa[0] as f64 / initial_nodes as f64,
        ssa[1],
    );
    assert!(2 * ssa[0] <= 7_809, "SSA construction: {} allocations", ssa[0]);
}
