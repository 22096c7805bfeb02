//! The one worker fan-out ([`map_slots`]) and the shared lease pool
//! ([`ThreadBudget`]) that decides how wide each fan-out runs.
//!
//! # The fan-out
//!
//! Every parallel stage of the optimizer has the same shape: `n`
//! independent tasks over shared read-only state (egg's read-only search
//! ahead of a serial commit), whose results the caller consumes in task
//! order. [`map_slots`] is that shape, written once. Its five callers are
//! the saturation runner's per-rule search, the extraction portfolio's
//! racing branch-and-bound strategies, the autotuner's candidate
//! simulations, the fuzz campaign's cases and the batch driver's kernel
//! queue; each computes a width and makes one call.
//!
//! **Growth on demand.** A fan-out starts on the calling thread alone and
//! spawns its helpers only when one of its tasks asks
//! ([`Helpers::request`]). The runner, tuner, fuzz and batch tasks ask
//! first thing. A branch-and-bound search asks once it has explored 256
//! nodes, so a race whose searches are all short — the usual case for a
//! small kernel — never pays for a thread it could not use.
//!
//! **Determinism.** Results are indexed by task, never by completion: the
//! returned vector holds `f(0), f(1), …, f(n - 1)` in that order whichever
//! thread ran which task and whenever it finished. A caller that reduces
//! the vector serially (backoff decisions, winner selection, report
//! assembly) is therefore byte-identical at any width, as long as each
//! `f(i)` depends only on `i` and the shared state — which is why workers
//! never exchange intermediate results and no task is ever cancelled.
//!
//! **Panics.** A panicking task takes down only the worker that ran it;
//! the other workers, if the fan-out has grown, drain the remaining
//! tasks, every worker is joined,
//! and then the task's own payload is re-raised on the calling thread — a
//! `catch_unwind` around the fan-out sees the real message, not a generic
//! "a scoped thread panicked". At width 1 the panic simply propagates.
//!
//! # The budget
//!
//! The batch driver (`accsat::batch`) hands whole kernels to a fixed set
//! of workers. Inside a kernel, the rule search and the portfolio race
//! want threads of their own. Spawning those unconditionally would
//! oversubscribe the machine (every in-flight kernel multiplying the
//! worker count), so a batch shares one [`ThreadBudget`]: a counted pool
//! of *spare* thread permits. A kernel-internal fan-out leases as many
//! permits as are free at that moment ([`fanout_width`]) — never blocking,
//! never below its own calling thread — and returns them when the fan-out
//! joins. The batch seeds the budget with the `threads − workers` permits
//! its worker pool does not use, and each of its workers (the caller
//! included) retires its own permit into the budget — [`map_slots`]'s
//! `retire` hook — when it finds the kernel queue dry, so the tail of a
//! suite (the few heaviest kernels) widens automatically instead of
//! leaving the retired workers' cores idle; once the batch returns the
//! budget holds all `threads` permits. Leasing only ever changes *how
//! many threads* run a fan-out, so by the determinism argument above the
//! budget affects wall clock only.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use accsat_obs::trace;

/// A counted pool of spare worker-thread permits shared by one batch run.
#[derive(Debug)]
pub struct ThreadBudget {
    spare: Mutex<usize>,
}

impl ThreadBudget {
    /// New budget with `spare` free permits. A batch driver whose queue is
    /// narrower than its thread count starts the surplus here; otherwise
    /// permits arrive as workers retire ([`ThreadBudget::release`]).
    pub fn new(spare: usize) -> ThreadBudget {
        ThreadBudget { spare: Mutex::new(spare) }
    }

    /// Return `n` permits to the pool (a worker retiring from the kernel
    /// queue, or a lease being dropped).
    pub fn release(&self, n: usize) {
        if n > 0 {
            *self.spare.lock().expect("thread budget") += n;
        }
    }

    /// Take up to `want` permits without blocking. The caller's own thread
    /// never needs a permit, so a lease of `0` still makes progress — it
    /// just runs the fan-out serially.
    pub fn lease(&self, want: usize) -> Lease<'_> {
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

/// Permits leased from a [`ThreadBudget`]; returned on drop.
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

/// A task's handle on the fan-out running it: [`Helpers::request`] starts
/// the fan-out's helper threads. Copy it freely; it cannot leave the task.
#[derive(Clone, Copy)]
pub struct Helpers<'a>(Option<&'a dyn Fn()>);

impl Helpers<'_> {
    /// Start the fan-out's helpers, if they have not started yet: up to
    /// `width − 1` threads, never more than the tasks no worker has
    /// claimed. A task that wants company from its first instruction asks
    /// first thing; one that is usually short asks once it has proved
    /// long. A request from a helper thread, a second request and a
    /// request at width 1 do nothing.
    pub fn request(self) {
        if let Some(grow) = self.0 {
            grow();
        }
    }
}

/// Run `f(0, ·), f(1, ·), …, f(n - 1, ·)` on up to `width` threads, **of
/// which the calling thread is one**, and return the results in index
/// order (see the module docs for the determinism and panic rules).
///
/// Every fan-out starts on the calling thread alone. Its `width − 1`
/// helpers are spawned together, and only when a task calls
/// [`Helpers::request`] on the handle it is given; a fan-out whose tasks
/// never ask is a plain loop on the calling thread, however wide.
/// Indices are handed out one at a time from a shared cursor. Each worker
/// calls `retire` once, when it finds the cursor past `n`, and the calling
/// thread calls it once more for every helper that was never spawned —
/// the batch driver returns a worker's permit to its [`ThreadBudget`]
/// there; every other caller passes `|| ()`. At `width <= 1` this is a
/// plain loop on the calling thread: no atomic, no lock, no spawn.
pub fn map_slots<T: Send>(
    width: usize,
    n: usize,
    retire: impl Fn() + Sync,
    f: impl Fn(usize, Helpers<'_>) -> T + Sync,
) -> Vec<T> {
    if width <= 1 {
        let out = (0..n).map(|i| f(i, Helpers(None))).collect();
        retire();
        return out;
    }
    // Relaxed: the cursor publishes nothing but itself; results travel
    // through the join handles
    let cursor = AtomicUsize::new(0);
    let drain = |helpers: Helpers<'_>| {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            done.push((i, f(i, helpers)));
        }
        retire();
        done
    };
    let mut pairs = std::thread::scope(|scope| {
        // only the calling thread's tasks can grow the fan-out: helpers
        // exist only once it has grown, and it grows once
        let spawned = std::cell::OnceCell::new();
        let grow = || {
            spawned.get_or_init(|| {
                let unclaimed = n.saturating_sub(cursor.load(Ordering::Relaxed));
                let helpers = (width - 1).min(unclaimed);
                (helpers..width - 1).for_each(|_| retire());
                (0..helpers).map(|_| scope.spawn(|| drain(Helpers(None)))).collect::<Vec<_>>()
            });
        };
        let mut pairs = drain(Helpers(Some(&grow)));
        let Some(spawned) = spawned.into_inner() else {
            (1..width).for_each(|_| retire());
            return pairs;
        };
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
pub fn hardware_parallelism() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Effective width of a fan-out of `tasks` independent tasks: the calling
/// thread plus either a budget lease (shared-pool mode) or the requested
/// width outright (standalone mode, `budget = None`). Returns the lease so
/// the permits survive until the fan-out joins.
///
/// The width is additionally clamped to [`hardware_parallelism`]: asking
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
pub fn fanout_width_capped<'a>(
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
            let out = map_slots(
                width,
                n,
                || (),
                |i, helpers| {
                    helpers.request();
                    let (order, changed) = &finished;
                    let mut order = order.lock().unwrap();
                    while i + 1 < width && !(i + 1..n).all(|later| order.contains(&later)) {
                        order = changed.wait(order).unwrap();
                    }
                    order.push(i);
                    changed.notify_all();
                    i * 10
                },
            );
            assert_eq!(out, vec![0, 10, 20, 30, 40, 50], "width {width}");
            let order = finished.0.into_inner().unwrap();
            match width {
                1 => assert_eq!(order, vec![0, 1, 2, 3, 4, 5]),
                2 => assert_eq!(order, vec![1, 2, 3, 4, 5, 0]),
                _ => assert_eq!(order, vec![5, 4, 3, 2, 1, 0]),
            }
        }
        assert_eq!(map_slots(4, 0, || (), |i, _| i), Vec::<usize>::new(), "n = 0");
        assert_eq!(map_slots(8, 3, || (), |i, _| i + 1), vec![1, 2, 3], "width > n");
    }

    #[test]
    fn map_slots_width_one_stays_on_the_calling_thread() {
        let me = std::thread::current().id();
        let ids = map_slots(
            1,
            5,
            || (),
            |_, helpers| {
                helpers.request();
                std::thread::current().id()
            },
        );
        assert_eq!(ids, vec![me; 5]);
        // and the caller is one of the workers at any width: with a
        // barrier holding both workers inside a task, one of them is us
        let barrier = std::sync::Barrier::new(2);
        let ids = map_slots(
            2,
            2,
            || (),
            |_, helpers| {
                helpers.request();
                barrier.wait();
                std::thread::current().id()
            },
        );
        assert!(ids.contains(&me), "caller drains too");
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn a_fan_out_whose_tasks_never_ask_stays_on_the_calling_thread() {
        let me = std::thread::current().id();
        let retired = AtomicUsize::new(0);
        let ids = map_slots(
            8,
            20,
            || {
                retired.fetch_add(1, Ordering::SeqCst);
            },
            |_, _| std::thread::current().id(),
        );
        assert_eq!(ids, vec![me; 20]);
        assert_eq!(retired.load(Ordering::SeqCst), 8, "one retire per worker, spawned or not");
    }

    #[test]
    fn a_request_partway_hands_the_unclaimed_tasks_to_helpers() {
        // task 1 asks, then waits for two more workers at the barrier:
        // only helpers spawned by its request can bring them, with tasks 2
        // and 3 — task 0 ran before anyone asked, on the calling thread
        let me = std::thread::current().id();
        let barrier = std::sync::Barrier::new(3);
        let ids = map_slots(
            3,
            5,
            || (),
            |i, helpers| {
                if i == 1 {
                    helpers.request();
                }
                if (1..4).contains(&i) {
                    barrier.wait();
                }
                std::thread::current().id()
            },
        );
        assert_eq!(&ids[..2], &[me, me]);
        assert!(ids[2] != me && ids[3] != me && ids[2] != ids[3], "{ids:?}");
    }

    #[test]
    fn requests_from_helpers_and_repeated_requests_change_nothing() {
        // every task asks, on every thread, twice; the fan-out still grows
        // once, by no more helpers than tasks were left: width 8 over 3
        // tasks spawns 2 helpers and retires the 5 it never spawned
        for (width, n) in [(2, 16), (8, 3)] {
            let retired = AtomicUsize::new(0);
            let ids = map_slots(
                width,
                n,
                || {
                    retired.fetch_add(1, Ordering::SeqCst);
                },
                |i, helpers| {
                    helpers.request();
                    helpers.request();
                    (i, std::thread::current().id())
                },
            );
            let mut threads: Vec<_> = ids.iter().map(|&(_, t)| t).collect();
            threads.sort_unstable_by_key(|t| format!("{t:?}"));
            threads.dedup();
            assert!(threads.len() <= width.min(n), "width {width}: {} threads", threads.len());
            assert_eq!(ids.iter().map(|&(i, _)| i).collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
            assert_eq!(retired.load(Ordering::SeqCst), width, "width {width}");
        }
    }

    #[test]
    fn map_slots_reraises_the_tasks_own_panic_after_the_rest_ran() {
        let ran = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map_slots(
                2,
                8,
                || (),
                |i, helpers| {
                    helpers.request();
                    if i == 3 {
                        panic!("boom {i}");
                    }
                    ran.fetch_add(1, Ordering::SeqCst);
                },
            )
        }));
        let payload = caught.expect_err("the task's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("boom 3"));
        assert_eq!(ran.load(Ordering::SeqCst), 7, "the surviving worker drained the rest");
    }

    #[test]
    fn a_panic_on_the_calling_thread_after_growth_reraises_its_own_payload() {
        // task 0 always runs on the calling thread; it grows the fan-out
        // and panics, and the helper still drains the other seven
        let ran = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map_slots(
                2,
                8,
                || (),
                |i, helpers| {
                    if i == 0 {
                        helpers.request();
                        panic!("boom {i}");
                    }
                    ran.fetch_add(1, Ordering::SeqCst);
                },
            )
        }));
        let payload = caught.expect_err("the task's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("boom 0"));
        assert_eq!(ran.load(Ordering::SeqCst), 7, "the helper drained the rest");
    }

    #[test]
    fn retiring_workers_hand_every_permit_back() {
        // the batch driver's accounting: `t` threads over `n` items start
        // `w = min(t, n)` workers and bank `t - w`; each worker retires one
        for (t, n) in [(1, 0), (1, 5), (4, 2), (4, 9), (8, 8)] {
            let w = t.clamp(1, n.max(1));
            let budget = ThreadBudget::new(t - w);
            let out = map_slots(w, n, || budget.release(1), |i, _| i);
            assert_eq!(out.len(), n);
            assert_eq!(budget.spare(), t, "threads {t}, items {n}");
        }
    }
}
