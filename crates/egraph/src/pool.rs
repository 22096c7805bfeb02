//! The one worker fan-out ([`map_slots`]).
//!
//! # The fan-out
//!
//! Every parallel stage of the optimizer has the same shape: `n`
//! independent tasks over shared read-only state, whose results the
//! caller consumes in task order. [`map_slots`] is that shape, written
//! once. Its three callers are the autotuner's candidate simulations, the
//! fuzz campaign's cases and the batch driver's kernel queue; each
//! computes a width and makes one call, which starts its helper threads
//! at once. Saturation and extraction are not callers: each runs on the
//! thread that optimizes the kernel.
//!
//! **Determinism.** Results are indexed by task, never by completion: the
//! returned vector holds `f(0), f(1), …, f(n - 1)` in that order whichever
//! thread ran which task and whenever it finished. A caller that reduces
//! the vector serially (report assembly, the tuner's pick) is therefore
//! byte-identical at any width, as long as each `f(i)` depends only on
//! `i` and the shared state — which is why workers never exchange
//! intermediate results and no task is ever cancelled.
//!
//! **Panics.** A panicking task takes down only the worker that ran it;
//! the other workers drain the remaining tasks, every worker is joined,
//! and then the task's own payload is re-raised on the calling thread — a
//! `catch_unwind` around the fan-out sees the real message, not a generic
//! "a scoped thread panicked". At width 1 the panic simply propagates.
//!
//! # The lease pool, kept for `perf`
//!
//! [`ThreadBudget`], [`Lease`] and [`fanout_width`] are kept only because
//! `perf/` still compiles against them; nothing in the workspace leases a
//! thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use accsat_obs::trace;

/// A counted pool of spare worker-thread permits. Kept for `perf/`;
/// nothing in the workspace creates one.
#[derive(Debug)]
pub struct ThreadBudget {
    spare: Mutex<usize>,
}

impl ThreadBudget {
    /// New budget with `spare` free permits; more arrive through
    /// [`ThreadBudget::release`].
    pub fn new(spare: usize) -> ThreadBudget {
        ThreadBudget { spare: Mutex::new(spare) }
    }

    /// Return `n` permits to the pool (a lease being dropped).
    pub fn release(&self, n: usize) {
        if n > 0 {
            *self.spare.lock().expect("thread budget") += n;
        }
    }

    /// Take up to `want` permits without blocking. The caller's own thread
    /// never needs a permit, so a lease of `0` still makes progress — it
    /// just runs the fan-out serially.
    pub(crate) fn lease(&self, want: usize) -> Lease<'_> {
        if want == 0 {
            return Lease { budget: self, taken: 0 };
        }
        let mut spare = self.spare.lock().expect("thread budget");
        let taken = want.min(*spare);
        *spare -= taken;
        Lease { budget: self, taken }
    }

    /// Currently free permits (diagnostic only; racy by nature).
    pub fn spare(&self) -> usize {
        *self.spare.lock().expect("thread budget")
    }
}

/// Permits leased from a [`ThreadBudget`]; returned on drop. Kept for the
/// `perf` replay.
#[derive(Debug)]
pub struct Lease<'a> {
    budget: &'a ThreadBudget,
    taken: usize,
}

impl Lease<'_> {
    /// How many extra threads (beyond the calling thread) the lease grants.
    pub fn extra(&self) -> usize {
        self.taken
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        self.budget.release(self.taken);
    }
}

/// Run `f(0), f(1), …, f(n - 1)` on up to `width` threads, **of which the
/// calling thread is one**, and return the results in index order (see
/// the module docs for the determinism and panic rules).
///
/// The fan-out starts its `min(width − 1, n − 1)` helpers at entry: a
/// helper that could find no task left is never started. Indices are
/// handed out one at a time from a shared cursor. At `width <= 1` this is
/// a plain loop on the calling thread: no atomic, no lock, no spawn.
pub fn map_slots<T: Send>(width: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if width <= 1 {
        return (0..n).map(f).collect();
    }
    // Relaxed: the cursor publishes nothing but itself; results travel
    // through the join handles
    let cursor = AtomicUsize::new(0);
    let drain = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            done.push((i, f(i)));
        }
        done
    };
    let helpers = (width - 1).min(n.saturating_sub(1));
    let mut pairs = std::thread::scope(|scope| {
        let spawned: Vec<_> = (0..helpers).map(|_| scope.spawn(drain)).collect();
        let mut pairs = drain();
        for worker in spawned {
            // a panic here (or in `drain` above) unwinds out of the scope,
            // which first joins whatever is still running
            pairs.extend(worker.join().unwrap_or_else(|task| std::panic::resume_unwind(task)));
        }
        pairs
    });
    debug_assert_eq!(pairs.len(), n, "every index is handed out exactly once");
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, t)| t).collect()
}

/// The host's available hardware parallelism, queried once and cached.
/// Falls back to 1 when the runtime cannot tell (e.g. a restricted
/// container).
pub(crate) fn hardware_parallelism() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Effective width of a fan-out of `tasks` independent tasks: the calling
/// thread plus either a budget lease (shared-pool mode) or the requested
/// width outright (standalone mode, `budget = None`). Returns the lease so
/// the permits survive until the fan-out joins. Kept for the `perf`
/// replay; no workspace fan-out calls it.
///
/// The width is additionally clamped to the host's parallelism: asking
/// for 16 search threads on a 4-core host spawns 4. Threads beyond the
/// core count cannot help a CPU-bound fan-out, and the outputs are
/// thread-count-invariant by construction, so the clamp changes wall
/// clock only.
pub fn fanout_width<'a>(
    budget: Option<&'a ThreadBudget>,
    want: usize,
    tasks: usize,
) -> (usize, Option<Lease<'a>>) {
    fanout_width_capped(budget, want, tasks, hardware_parallelism())
}

/// [`fanout_width`] with an explicit hardware cap instead of the host's
/// (exposed so tests can pin the cap and stay host-independent).
pub(crate) fn fanout_width_capped<'a>(
    budget: Option<&'a ThreadBudget>,
    want: usize,
    tasks: usize,
    cap: usize,
) -> (usize, Option<Lease<'a>>) {
    let want = want.min(cap.max(1)).clamp(1, tasks.max(1));
    match budget {
        None => (want, None),
        Some(b) => {
            let lease = b.lease(want - 1);
            let width = 1 + lease.extra();
            trace::instant("pool", "lease", || {
                vec![
                    ("want", (want - 1).into()),
                    ("taken", lease.extra().into()),
                    ("width", width.into()),
                    ("tasks", tasks.into()),
                ]
            });
            (width, Some(lease))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_returns_on_drop() {
        let b = ThreadBudget::new(3);
        {
            let l = b.lease(2);
            assert_eq!(l.extra(), 2);
            assert_eq!(b.spare(), 1);
            let l2 = b.lease(5);
            assert_eq!(l2.extra(), 1, "lease never blocks; it takes what is free");
            assert_eq!(b.spare(), 0);
        }
        assert_eq!(b.spare(), 3, "both leases returned");
    }

    #[test]
    fn release_grows_the_pool() {
        let b = ThreadBudget::new(0);
        assert_eq!(b.lease(4).extra(), 0);
        b.release(2);
        let l = b.lease(4);
        assert_eq!(l.extra(), 2);
    }

    #[test]
    fn fanout_width_modes() {
        // standalone: the requested width, clamped to the task count
        let (w, l) = fanout_width_capped(None, 8, 3, 64);
        assert_eq!(w, 3);
        assert!(l.is_none());
        let b = ThreadBudget::new(1);
        // pooled: own thread plus whatever the budget spares
        let (w, l) = fanout_width_capped(Some(&b), 8, 16, 64);
        assert_eq!(w, 2);
        drop(l);
        assert_eq!(b.spare(), 1);
        // a single task never leases anything
        let (w, _l) = fanout_width_capped(Some(&b), 8, 1, 64);
        assert_eq!(w, 1);
        assert_eq!(b.spare(), 1);
    }

    #[test]
    fn fanout_width_clamps_to_hardware_cap() {
        // requesting 16 threads on a 4-way host fans out 4 wide
        let (w, _) = fanout_width_capped(None, 16, 32, 4);
        assert_eq!(w, 4);
        // a pooled fan-out leases at most cap-1 extra permits
        let b = ThreadBudget::new(16);
        let (w, l) = fanout_width_capped(Some(&b), 16, 32, 4);
        assert_eq!(w, 4);
        drop(l);
        assert_eq!(b.spare(), 16);
        // a degenerate cap of 0 still runs the fan-out serially
        let (w, _) = fanout_width_capped(None, 16, 32, 0);
        assert_eq!(w, 1);
        // the real entry point agrees with the capped one at the host cap
        let (w_real, _) = fanout_width(None, 2, 4);
        let (w_capped, _) = fanout_width_capped(None, 2, 4, hardware_parallelism());
        assert_eq!(w_real, w_capped);
        assert!(hardware_parallelism() >= 1);
    }

    #[test]
    fn map_slots_returns_index_order_whatever_the_completion_order() {
        use std::sync::{Condvar, Mutex};
        // a task that leaves another worker free to drain the rest
        // (`i + 1 < width`) may only finish after every later task has, so
        // completion order is forced away from index order — fully
        // reversed once every task has a worker of its own
        let n = 6;
        for width in [1, 2, 8] {
            let finished = (Mutex::new(Vec::new()), Condvar::new());
            let out = map_slots(width, n, |i| {
                let (order, changed) = &finished;
                let mut order = order.lock().unwrap();
                while i + 1 < width && !(i + 1..n).all(|later| order.contains(&later)) {
                    order = changed.wait(order).unwrap();
                }
                order.push(i);
                changed.notify_all();
                i * 10
            });
            assert_eq!(out, vec![0, 10, 20, 30, 40, 50], "width {width}");
            let order = finished.0.into_inner().unwrap();
            match width {
                1 => assert_eq!(order, vec![0, 1, 2, 3, 4, 5]),
                2 => assert_eq!(order, vec![1, 2, 3, 4, 5, 0]),
                _ => assert_eq!(order, vec![5, 4, 3, 2, 1, 0]),
            }
        }
        assert_eq!(map_slots(4, 0, |i| i), Vec::<usize>::new(), "n = 0");
        assert_eq!(map_slots(8, 3, |i| i + 1), vec![1, 2, 3], "width > n");
    }

    #[test]
    fn map_slots_width_one_stays_on_the_calling_thread() {
        let me = std::thread::current().id();
        let ids = map_slots(1, 5, |_| std::thread::current().id());
        assert_eq!(ids, vec![me; 5]);
        // and the caller is one of the workers at any width: with a
        // barrier holding both workers inside a task, one of them is us
        let barrier = std::sync::Barrier::new(2);
        let ids = map_slots(2, 2, |_| {
            barrier.wait();
            std::thread::current().id()
        });
        assert!(ids.contains(&me), "caller drains too");
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn a_fan_out_starts_no_helper_it_has_no_task_for() {
        // width 8 over 3 tasks starts at most 2 helpers
        for (width, n) in [(2, 16), (8, 3), (8, 1)] {
            let ids = map_slots(width, n, |i| (i, std::thread::current().id()));
            let mut threads: Vec<_> = ids.iter().map(|&(_, t)| t).collect();
            threads.sort_unstable_by_key(|t| format!("{t:?}"));
            threads.dedup();
            assert!(threads.len() <= width.min(n), "width {width}: {} threads", threads.len());
            assert_eq!(ids.iter().map(|&(i, _)| i).collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_slots_reraises_the_tasks_own_panic_after_the_rest_ran() {
        let ran = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map_slots(2, 8, |i| {
                if i == 3 {
                    panic!("boom {i}");
                }
                ran.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let payload = caught.expect_err("the task's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("boom 3"));
        assert_eq!(ran.load(Ordering::SeqCst), 7, "the surviving worker drained the rest");
    }

    #[test]
    fn a_panic_on_the_calling_thread_reraises_its_own_payload() {
        // tasks 0 and 1 meet at a barrier, so each of the two workers runs
        // one of them; the caller's panics, and the helper still drains
        // the other six
        let me = std::thread::current().id();
        let barrier = std::sync::Barrier::new(2);
        let ran = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map_slots(2, 8, |i| {
                if i < 2 {
                    barrier.wait();
                    if std::thread::current().id() == me {
                        panic!("boom {i}");
                    }
                }
                ran.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let payload = caught.expect_err("the task's panic reaches the caller");
        let message = payload.downcast_ref::<String>().map(String::as_str);
        assert!(matches!(message, Some("boom 0" | "boom 1")), "{message:?}");
        assert_eq!(ran.load(Ordering::SeqCst), 7, "the helper drained the rest");
    }
}
