//! `accsat-autotune` — simulation-guided candidate tuning.
//!
//! The pipeline's extraction minimizes the paper's *static* §V-B cost
//! model, but the paper's end goal is wall-clock kernel speedup on real
//! hardware (Table IV). Those two objectives usually agree — and sometimes
//! do not: duplicating a cheap multiply can shorten the scoreboard's
//! critical path even though it raises the static cost, and trading a
//! register-hungry shared form for recomputation can buy back occupancy.
//!
//! This crate closes the loop. Equality saturation's core promise is that
//! every rewrite stays available until a global objective picks the winner;
//! here that objective becomes the warp-scoreboard simulator in
//! `accsat-gpusim` rather than a static formula:
//!
//! 1. **Harvest** (`harvest_candidates`) — instead of discarding all but
//!    the extraction portfolio's winner, keep the top-K structurally
//!    distinct selections: the greedy (tree-optimal) incumbent, the
//!    refined incumbent and the branch-and-bound search's best, and the
//!    winners of a cost-model sweep (`heavy ∈ {10, 100, 1000}` by
//!    default) that deliberately warps
//!    the memory/compute trade-off to reach different corners of the
//!    selection space. Candidates are deduplicated by
//!    [`Selection::content_hash`] so identical selections never burn
//!    simulation budget twice.
//! 2. **Lower** — each candidate runs through the existing codegen path
//!    ([`accsat_codegen::generate`]) and, swapped into the kernel's nest
//!    ([`accsat_compilers::analyze_nest`], once per kernel), through the
//!    compiler model ([`accsat_compilers::compile_nest`]) to a gpusim trace.
//! 3. **Simulate** — every trace runs on a configurable [`Device`] under
//!    the chosen [`CompilerModel`], as one `accsat_egraph::pool::map_slots`
//!    fan-out with results in candidate order.
//! 4. **Rank** ([`tune_kernel`]) — candidates are ordered by simulated
//!    whole-launch cycles with a fully deterministic tie-break
//!    `(cycles, static cost, candidate index)`, so the output is
//!    byte-identical at any thread count.
//!
//! [`Selection::content_hash`]: accsat_extract::Selection::content_hash

#![warn(missing_docs)]

mod harvest;
mod tuner;

pub use harvest::Candidate;
pub use tuner::{tune_kernel, CandidateReport, KernelTuning, TuneConfig, TunedKernel};

use accsat_compilers::CompilerModel;
use accsat_gpusim::Device;

// The tuner simulates candidates on scoped worker threads; everything it
// sends across must be thread-safe.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Candidate>();
    assert_send_sync::<CandidateReport>();
    assert_send_sync::<KernelTuning>();
    assert_send_sync::<Device>();
    assert_send_sync::<CompilerModel>();
};
