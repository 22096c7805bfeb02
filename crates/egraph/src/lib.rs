//! `accsat-egraph` — a from-scratch e-graph and equality-saturation engine.
//!
//! This crate is the substrate the paper obtains from the `egg` library
//! (Willsey et al., POPL 2021): a congruence-closure data structure over a
//! term language, e-matching of rewrite patterns, and a saturation runner
//! with node/iteration/time limits. It is purpose-built for ACC Saturator's
//! SSA term language (arithmetic, FMA, loads/stores, φ nodes, calls) rather
//! than generic over a user language, which keeps the code direct while
//! exercising the same algorithms:
//!
//! * `UnionFind` — path-halving union-find over e-class ids.
//! * [`EGraph`] — hash-consed e-nodes grouped into e-classes, with deferred
//!   congruence restoration ([`EGraph::rebuild`], the egg "rebuilding"
//!   algorithm) and an attached constant-folding analysis. E-nodes are
//!   stored once, as `u32` [`Form`]s of a flat arena; id sets are dense
//!   tables ([`Visited`]).
//! * `Pattern` — s-expression rewrite patterns with `?x` variables and a
//!   backtracking e-matcher (kept as the differential-testing oracle,
//!   [`Rewrite::search_legacy`]).
//! * `machine` — the production matcher ([`Rewrite::search`]): patterns
//!   compiled once into linear programs for a register-based pattern VM,
//!   with interned
//!   `u32` variables and small-vec substitutions ([`VarSubst`]), driven
//!   through an operator → e-class index.
//! * [`Rewrite`] / [`Runner`] — rule application until saturation or limits,
//!   mirroring the paper's bounds (10 000 e-nodes, 10 iterations, 10 s),
//!   with per-rule statistics and a backoff scheduler benching rules whose
//!   match counts explode.
//! * [`all_rules`] — Table I of the paper: FMA introduction, commutativity,
//!   associativity, plus constant folding.

#![warn(missing_docs)]

mod analysis;
mod arena;
mod dense;
mod egraph;
mod fxhash;
mod list;
mod machine;
mod node;
mod pattern;
pub mod pool;
mod rewrite;
mod rules;
mod runner;
mod serialize;
mod unionfind;

pub use arena::Form;
pub use dense::Visited;
pub use egraph::{EClass, EGraph};
pub use fxhash::FxHashMap;
pub use machine::VarSubst;
pub use node::{Id, Node, NodeRef, Op};
// kept for `perf/`, which still names it here (ROADMAP item 1)
pub use pool::ThreadBudget;
pub use rewrite::{Rewrite, RuleMatch};
pub use rules::{all_rules, assoc_rules, comm_rules, fma_rules, reorder_rules};
pub use runner::{
    BackoffConfig, IterCounts, IterationStats, RuleStats, Runner, RunnerLimits, RunnerReport,
    StopReason,
};
pub use serialize::{op_token, parse_op_token, SnapshotHead};
pub use unionfind::Canonical;

// Compile-time guarantee that saturation state crosses threads: the batch
// driver moves e-graphs onto worker threads and shares one compiled rule
// set (`Arc<Vec<Rewrite>>`) between them. A field gaining interior
// mutability or a non-Send payload fails here, not at a distant spawn site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EGraph>();
    assert_send_sync::<Rewrite>();
    assert_send_sync::<Runner>();
    assert_send_sync::<RunnerReport>();
};
