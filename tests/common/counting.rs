//! A counting global allocator for the deterministic size gates: wall-clock
//! gates flake on a noisy host, allocation counts and requested bytes do
//! not. A gate is its own test binary with one `#[test]` (so nothing else
//! allocates while a count is taken) and installs the allocator itself:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: common::counting::Counting = common::counting::Counting;
//! ```
// the other binaries that share `tests/common` compile this file unused
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every request for new or resized memory.
pub struct Counting;

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

/// `[allocations made, bytes requested]` while `f` runs, on any thread.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, [u64; 2]) {
    let read = || [ALLOCATIONS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed)];
    let before = read();
    let out = f();
    let after = read();
    (out, [after[0] - before[0], after[1] - before[1]])
}
