//! A deterministic allocation gate on the e-graph core.
//!
//! Wall-clock gates flake on a noisy host; allocation counts do not. This
//! binary installs a counting global allocator (its own test binary, one
//! `#[test]`, so nothing else allocates while a count is taken) and asserts
//! the two budgets the interned e-node arena is there to keep: saturating
//! the 19 suite kernels costs at most 4 heap allocations per final e-node
//! (15.3 when every e-node was an owned `Node` cloned into its class, each
//! child's parent list and the memo), and restoring their snapshots at most
//! 2 per e-node (12.8 with the v1 line-and-token reader).

mod common;

use accsat_egraph::{all_rules, EGraph, Runner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested alongside (reported, not gated).
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every request for new or resized memory.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed atomic that
// publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made, and bytes requested, while `f` runs.
fn counted<T>(f: impl FnOnce() -> T) -> (T, [u64; 2]) {
    let read = || [ALLOCATIONS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed)];
    let before = read();
    let out = f();
    let after = read();
    (out, [after[0] - before[0], after[1] - before[1]])
}

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
    assert!(saturate[0] <= 4 * nodes, "saturation: {:.2} per e-node", per_node(saturate[0]));
    assert!(restore[0] <= 2 * nodes, "deserialize: {:.2} per e-node", per_node(restore[0]));
}
