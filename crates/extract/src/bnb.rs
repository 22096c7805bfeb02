//! Exact DAG-cost extraction via branch-and-bound — the from-scratch
//! replacement for the paper's CBC linear-programming extraction.
//!
//! Objective (paper §IV-B): select one node per required e-class such that
//! the sum of op costs over *distinct* selected classes is minimal. The
//! search branches on the node choice of one undecided class at a time.
//!
//! Beyond the textbook search, six strengthenings keep the explored tree
//! small (they are what lets the portfolio in [`crate::portfolio`] prove
//! optimality on benchmark kernels within a deterministic budget):
//!
//! * **Symmetry breaking** ([`ContextOptions::orbit`]) — commuted
//!   candidates (same operator, same canonical child multiset, e.g.
//!   `add(a, b)` and `add(b, a)` after the commutativity rule fired) form
//!   an orbit with identical DAG cost under every completion; only the
//!   canonically least representative survives, so the search explores one
//!   member per orbit.
//! * **Dominated-node pruning** ([`ContextOptions::dominance`]) — inside
//!   one e-class, a node whose operator cost and *set* of child classes
//!   are both no better than another node's can never appear in an optimal
//!   DAG selection (DAG cost counts each class once, so child multiplicity
//!   is irrelevant); such nodes are dropped before the search starts.
//! * **Closure-subset dominance** ([`ContextOptions::closure_dominance`])
//!   — the deep generalization of the child-set rule: a candidate dies
//!   when an equal-or-cheaper classmate's *LP required-set closure* is
//!   contained in its own (plus the class's forced set), because
//!   everything the classmate forces is already paid wherever the victim
//!   was chosen. Iterated with the LP fixpoint until stable; gated on the
//!   candidate graph being acyclic, where the switch cannot close a
//!   cycle.
//! * **Fractional lower bounds** ([`SearchOptions::lp_bound`]) — the
//!   in-crate LP-relaxation stand-in of [`crate::lp`]: per-class required
//!   *sets* computed as a least fixpoint with shared-subterm credit,
//!   charged incrementally against the branch's bitset of already-counted
//!   classes. Strictly subsumes the forced-children closure bound, which
//!   is kept as the `lp_bound: false` fallback and for ablation.
//! * **φ-chain forced closures** ([`SearchOptions::chain_closure`]) — a
//!   required class with a single surviving candidate (after pruning) has
//!   no decision to make: it is chosen immediately and its children are
//!   required transitively, so whole φ/select/load chains with one live
//!   choice are charged as a forced closure instead of being re-branched
//!   one class per search level. Forced chains consume no explored-node
//!   budget.
//! * **Best-first class ordering** — the next class to branch on is chosen
//!   by a deterministic heuristic ([`ClassOrder`]) rather than stack
//!   order; most-constrained-first collapses large parts of the search
//!   into forced moves.
//!
//! The greedy extraction provides the initial incumbent, so even an
//! immediate stop returns a sound selection — mirroring the paper's 30 s
//! extraction time limit. The search budget is primarily a *node count*
//! ([`SearchOptions::node_budget`]), which makes results reproducible
//! run-to-run; the wall-clock deadline is a safety valve on top.

use crate::cost::CostModel;
use crate::greedy::{class_costs, greedy_from};
use crate::lp::{bits, LpBound};
use crate::selection::Selection;
use accsat_egraph::{EGraph, Id, Node, NodeRef, Visited};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Strategy for picking the next undecided e-class to branch on. All
/// orders are deterministic: ties fall back to op cost and then to the
/// class id, never to hash or timing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassOrder {
    /// Most-constrained first: fewest surviving candidate nodes, breaking
    /// ties toward the larger minimum op cost, then the smaller id.
    BestFirst,
    /// Largest minimum op cost first (decide expensive classes early so
    /// the bound tightens fast), ties toward fewer candidates, smaller id.
    HeaviestFirst,
    /// Plain stack order — the classic DFS; kept as a portfolio member
    /// and as the behavior of earlier revisions.
    Lifo,
}

/// Tunables of one branch-and-bound search. The extraction portfolio
/// diversifies over these; [`SearchOptions::default`] orders like its
/// first strategy: best-first classes, cheapest-tree-first candidates.
#[derive(Debug, Clone, Copy)]
pub struct SearchOptions {
    /// How to pick the next class to branch on.
    pub order: ClassOrder,
    /// Candidate-node ordering inside a class: `false` tries cheapest tree
    /// cost first (good incumbents early), `true` tries nodes with the
    /// fewest distinct children first (maximizes sharing).
    pub prefer_shared: bool,
    /// Maximum number of search-tree nodes to explore. This is the
    /// *deterministic* budget: two runs with the same budget explore the
    /// same tree and return byte-identical selections.
    pub node_budget: u64,
    /// Wall-clock safety valve on top of `node_budget`. Generous by
    /// default so that, at benchmark sizes, only the node budget binds.
    pub deadline: Duration,
    /// Bound every branch with the LP-relaxation required-set bound
    /// ([`crate::lp::LpBound`]) instead of the weaker forced-children
    /// closure. On by default; `false` is the ablation/differential
    /// configuration.
    pub lp_bound: bool,
    /// Decide single-candidate classes immediately (φ-chain forced
    /// closures) instead of branching on them. On by default; forced
    /// chains then consume no explored-node budget.
    pub chain_closure: bool,
}

impl Default for SearchOptions {
    fn default() -> SearchOptions {
        SearchOptions {
            order: ClassOrder::BestFirst,
            prefer_shared: false,
            node_budget: 2_000_000,
            deadline: Duration::from_secs(30),
            lp_bound: true,
            chain_closure: true,
        }
    }
}

/// Which candidate-pruning passes [`SearchContext::build_with`] runs.
/// Production uses [`ContextOptions::default`] (everything on); the
/// all-off configuration is the *unpruned* reference the differential
/// property tests compare against.
#[derive(Debug, Clone, Copy)]
pub struct ContextOptions {
    /// Collapse commuted-candidate orbits (same op, same canonical child
    /// multiset) to their canonically least representative.
    pub orbit: bool,
    /// Drop candidates dominated at ≤ op cost by a ⊆ child set.
    pub dominance: bool,
    /// On acyclic candidate graphs, additionally drop candidates whose
    /// *LP required-set closure* is a superset of an equal-or-cheaper
    /// survivor's (closure-subset dominance) — iterated with the LP
    /// fixpoint until stable. Automatically inert on cyclic graphs, where
    /// the replacement argument does not hold.
    pub closure_dominance: bool,
}

impl Default for ContextOptions {
    fn default() -> ContextOptions {
        ContextOptions { orbit: true, dominance: true, closure_dominance: true }
    }
}

/// Result of exact extraction.
#[derive(Debug, Clone)]
pub struct ExactResult {
    /// The best selection found (the greedy incumbent when the budget
    /// expired before any improvement).
    pub selection: Selection,
    /// Total DAG cost of the returned selection.
    pub cost: u64,
    /// `true` when the search completed (the result is provably optimal);
    /// `false` when a budget expired and the incumbent is returned.
    pub proven_optimal: bool,
    /// Number of branch-and-bound nodes explored. Forced-chain decisions
    /// are free: only real branch points count against the budget.
    pub explored: u64,
    /// The strongest certified lower bound on the optimal DAG cost: the
    /// cost itself when `proven_optimal`, otherwise the static
    /// LP-relaxation root bound ([`SearchContext::root_lower_bound`]).
    /// `cost - lower_bound` is the *bound gap* reported per kernel.
    pub lower_bound: u64,
}

/// Exact DAG-cost extraction with explicit [`SearchOptions`], seeded with
/// the greedy incumbent over a freshly built [`SearchContext`].
pub fn extract_exact_with(
    eg: &EGraph,
    roots: &[Id],
    cm: &CostModel,
    opts: &SearchOptions,
) -> ExactResult {
    let tree_costs = class_costs(eg, cm);
    let incumbent = greedy_from(eg, roots, cm, &tree_costs);
    let incumbent_cost = incumbent.dag_cost(eg, cm, roots);
    let cx = SearchContext::build_from(eg, cm, &ContextOptions::default(), &tree_costs);
    extract_exact_in(&cx, roots, &incumbent, incumbent_cost, opts)
}

/// The *unpruned* exact search: no symmetry breaking, no dominance
/// pruning, no LP bound, no chain closures — only the finite-cost filter
/// (required for soundness) and the plain forced-children bound. This is
/// the reference oracle the differential property tests compare the
/// strengthened search against; it explores far more nodes, so give it a
/// generous `node_budget` and only call it on small e-graphs.
pub fn extract_unpruned(
    eg: &EGraph,
    roots: &[Id],
    cm: &CostModel,
    node_budget: u64,
) -> ExactResult {
    let tree_costs = class_costs(eg, cm);
    let incumbent = greedy_from(eg, roots, cm, &tree_costs);
    let incumbent_cost = incumbent.dag_cost(eg, cm, roots);
    let cx = SearchContext::build_from(
        eg,
        cm,
        &ContextOptions { orbit: false, dominance: false, closure_dominance: false },
        &tree_costs,
    );
    let opts = SearchOptions {
        node_budget,
        lp_bound: false,
        chain_closure: false,
        ..SearchOptions::default()
    };
    extract_exact_in(&cx, roots, &incumbent, incumbent_cost, &opts)
}

/// Exact DAG-cost extraction over a prebuilt [`SearchContext`] and greedy
/// incumbent — the portfolio's entry point: the context and incumbent are
/// computed once and shared by every racing worker.
pub fn extract_exact_in(
    cx: &SearchContext<'_>,
    roots: &[Id],
    incumbent: &Selection,
    incumbent_cost: u64,
    opts: &SearchOptions,
) -> ExactResult {
    extract_exact_hooked(cx, roots, incumbent, incumbent_cost, opts, &|| ())
}

/// The search explores this many nodes between two looks at the clock;
/// its first look is also when it reports itself long.
const VALVE_EVERY: u64 = 256;

/// [`extract_exact_in`] that calls `long` once, when the search explores
/// its [`VALVE_EVERY`]th node — the portfolio's race asks for its helper
/// threads there, so a race of short searches stays on one thread.
pub(crate) fn extract_exact_hooked(
    cx: &SearchContext<'_>,
    roots: &[Id],
    incumbent: &Selection,
    incumbent_cost: u64,
    opts: &SearchOptions,
    long: &dyn Fn(),
) -> ExactResult {
    let n = cx.slots();
    let mut search = Search {
        cx,
        long,
        opts: *opts,
        best: None,
        best_cost: incumbent_cost,
        deadline: Instant::now().checked_add(opts.deadline),
        explored: 0,
        stopped: false,
        charged: vec![0u64; n.div_ceil(64)],
        queued: vec![false; n],
        chosen: vec![UNDECIDED; n],
        pending: Vec::new(),
        q_trail: Vec::new(),
        d_trail: Vec::new(),
        c_trail: Vec::new(),
        stack: Vec::new(),
        seen: Visited::new(if cx.acyclic { 0 } else { n }),
    };

    // seed the required set with the roots: charge their closures and
    // auto-decide forced chains before the first branch
    let mut cost = 0u64;
    let mut extra = 0u64;
    // a root whose forced closure is cyclic cannot be covered by any
    // selection — fall back to the incumbent, unproven
    let feasible = roots.iter().all(|&r| search.require(cx.slot(r) as u32, &mut cost, &mut extra));
    if feasible {
        search.dfs(cost, extra);
    } else {
        search.stopped = true;
    }

    let proven = !search.stopped;
    let best_cost = search.best_cost;
    let explored = search.explored;
    let lower_bound = if proven { best_cost } else { cx.root_lower_bound(roots) };
    // complete the minimal search selection to a total cover: classes
    // outside the roots' closure keep the greedy choice (cost-neutral for
    // the roots, and consumers materialize such classes too)
    let selection = match search.best {
        Some(mut best) => {
            best.fill_from(incumbent);
            best
        }
        None => incumbent.clone(),
    };
    ExactResult { selection, cost: best_cost, proven_optimal: proven, explored, lower_bound }
}

/// Immutable per-extraction tables shared by every search of a portfolio:
/// pruned candidate lists, per-class minimum op costs, the forced children
/// of the legacy memo bound, and the LP-relaxation required sets. Public
/// so tests and tools can inspect what the pruning and bounding phases
/// computed.
///
/// Every table is indexed by **slot**: the live canonical classes of the
/// e-graph numbered `0..slots()` in ascending id order. The union-find
/// never reuses an id, so after saturation most ids are dead; a slot table
/// is sized by the classes that exist. The numbering is monotone, so every
/// sorted child set, subset test and "then the smaller id" tie-break
/// compares exactly as it would on ids (DESIGN.md, "Extraction tables").
/// Ids are translated at the boundary only: roots in, [`Selection`]s out.
pub struct SearchContext<'a> {
    eg: &'a EGraph,
    /// Id → slot, [`NO_SLOT`] for an id that is not a canonical class;
    /// shared with [`LpBound`], whose public queries take ids too.
    slot_of: Arc<[u32]>,
    /// Slot → canonical class id, ascending.
    class_at: Vec<Id>,
    /// Cheapest op cost over the *surviving* candidates of each class.
    min_op: Vec<u64>,
    /// Candidate nodes per class after the finite-cost filter, orbit
    /// collapse and dominated-node pruning, in a deterministic order.
    cands: Cands<'a>,
    /// Classes that are a child of *every* surviving candidate of a class:
    /// required whenever the class is required (the legacy memo bound,
    /// kept as the `lp_bound: false` fallback and for ablation). Class `c`
    /// owns `forced[forced_start[c]..forced_start[c + 1]]`.
    forced: Vec<u32>,
    forced_start: Vec<u32>,
    /// LP-relaxation required sets and per-class fractional bounds.
    lp: LpBound,
    /// How often closure dominance pruned and the LP sets were rebuilt.
    closure_rounds: usize,
    /// Reverse edges of the candidate graph.
    parents: Parents,
    /// Candidate visit orders of the search, one permutation of a class's
    /// candidate indices per class, flattened: class `c` owns
    /// `order_start[c]..order_start[c + 1]`. `[0]` tries the cheapest tree
    /// cost first, `[1]` the fewest distinct children
    /// ([`SearchOptions::prefer_shared`]). The keys read only the context,
    /// so every search of a race shares them.
    orders: [Vec<u32>; 2],
    /// Offsets into `orders`, one per class plus the end.
    order_start: Vec<u32>,
    /// Is the surviving-candidate graph acyclic? (True for the benchmark
    /// kernels; enables closure dominance and skips cycle checks.)
    acyclic: bool,
    /// Commuted candidates removed by symmetry breaking.
    orbit_pruned: usize,
    /// Candidates removed by dominated-node pruning.
    dominance_pruned: usize,
    /// Candidates removed by closure-subset dominance.
    closure_pruned: usize,
}

/// One surviving candidate: the node, borrowed from the e-graph, plus its
/// precomputed op cost, tree cost and where its child set lies in the
/// slot pool ([`Cands::kids`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cand<'a> {
    pub(crate) node: NodeRef<'a>,
    pub(crate) op_cost: u64,
    pub(crate) tree_cost: u64,
    /// `Cands::pool[kids.0..kids.1]`.
    kids: (u32, u32),
}

impl Cand<'_> {
    /// How many distinct child classes the candidate has.
    fn width(&self) -> usize {
        (self.kids.1 - self.kids.0) as usize
    }
}

/// Every class's candidates in one list, and every candidate's child set in
/// one slot pool: building a context allocates per table, not per class or
/// candidate. Class `c` owns `list[start[c]..start[c + 1]]`.
pub(crate) struct Cands<'a> {
    list: Vec<Cand<'a>>,
    start: Vec<u32>,
    /// The child sets: the slots of a candidate's child classes, sorted and
    /// deduplicated. Pruned candidates leave their sets behind.
    pool: Vec<u32>,
}

impl<'a> Cands<'a> {
    /// The candidates of the class in slot `c`.
    pub(crate) fn of(&self, c: usize) -> &[Cand<'a>] {
        &self.list[self.start[c] as usize..self.start[c + 1] as usize]
    }

    /// How many candidates the class in slot `c` has.
    fn count(&self, c: usize) -> usize {
        (self.start[c + 1] - self.start[c]) as usize
    }

    /// The child set of `cand`.
    pub(crate) fn kids(&self, cand: &Cand<'_>) -> &[u32] {
        &self.pool[cand.kids.0 as usize..cand.kids.1 as usize]
    }

    /// Number of classes.
    pub(crate) fn classes(&self) -> usize {
        self.start.len() - 1
    }

    /// Every (class, child class) edge of the candidate graph, once per
    /// candidate that has it, in class and candidate order.
    fn edges(&self) -> impl DoubleEndedIterator<Item = (usize, usize)> + '_ {
        (0..self.classes()).flat_map(move |c| {
            self.of(c)
                .iter()
                .flat_map(move |k| self.kids(k).iter().map(move |&ch| (c, ch as usize)))
        })
    }
}

/// `slot_of` entry of an id that is not a canonical class.
const NO_SLOT: u32 = u32::MAX;

/// The slot index of `eg`: id → slot and slot → id over its live canonical
/// classes, in ascending id order (the one place sized by every id).
fn slot_index(eg: &EGraph) -> (Arc<[u32]>, Vec<Id>) {
    let mut class_at = Vec::with_capacity(eg.num_classes());
    class_at.extend(eg.classes().map(|(id, _)| id));
    let mut next = 0;
    let slot_of = (0..eg.id_bound())
        .map(|i| {
            if class_at.get(next).is_some_and(|id| id.index() == i) {
                next += 1;
                next as u32 - 1
            } else {
                NO_SLOT
            }
        })
        .collect();
    (slot_of, class_at)
}

/// Reverse edges of the candidate graph, flat: class → the classes with a
/// candidate that has it as a child — the classes to re-evaluate when a
/// fixpoint value of that class changes ([`LpBound`], the marginal costs
/// of [`crate::refine`]). A parent is listed once per such candidate, and
/// parents that lost the candidate to later pruning stay listed; a
/// worklist re-evaluates them for nothing, which changes no fixpoint.
pub(crate) struct Parents {
    /// Class `c` owns `list[start[c]..start[c + 1]]`.
    start: Vec<u32>,
    list: Vec<u32>,
}

impl Parents {
    fn build(cands: &Cands<'_>) -> Parents {
        let n = cands.classes();
        // count, then place the edges from the back: each `start[ch]` ends
        // where its list begins, with the parents in edge order
        let mut start = vec![0u32; n + 1];
        for (_, ch) in cands.edges() {
            start[ch + 1] += 1;
        }
        for c in 0..n {
            start[c + 1] += start[c];
        }
        let mut list = vec![0u32; start[n] as usize];
        for (c, ch) in cands.edges().rev() {
            start[ch + 1] -= 1;
            list[start[ch + 1] as usize] = c as u32;
        }
        // `start[ch + 1]` now holds where ch's list begins: shift down
        start.copy_within(1.., 0);
        start[n] = list.len() as u32;
        Parents { start, list }
    }

    /// The parents of the class in slot `c`.
    pub(crate) fn of(&self, c: usize) -> &[u32] {
        &self.list[self.start[c] as usize..self.start[c + 1] as usize]
    }
}

impl<'a> SearchContext<'a> {
    /// Precompute the candidate lists and bounds for `eg` with the default
    /// pruning passes (orbit collapse + dominance) enabled.
    pub fn build(eg: &'a EGraph, cm: &'a CostModel) -> SearchContext<'a> {
        SearchContext::build_with(eg, cm, &ContextOptions::default())
    }

    /// Precompute the candidate lists (finite-cost filter + the pruning
    /// passes selected by `opts`), per-class minimum op costs, forced
    /// children and LP required sets for `eg`.
    pub fn build_with(
        eg: &'a EGraph,
        cm: &'a CostModel,
        opts: &ContextOptions,
    ) -> SearchContext<'a> {
        SearchContext::build_from(eg, cm, opts, &class_costs(eg, cm))
    }

    /// [`SearchContext::build_with`] over the greedy tree costs
    /// ([`class_costs`]) the caller has already computed.
    pub(crate) fn build_from(
        eg: &'a EGraph,
        cm: &'a CostModel,
        opts: &ContextOptions,
        tree_costs: &[Option<u64>],
    ) -> SearchContext<'a> {
        let (slot_of, class_at) = slot_index(eg);
        let n = class_at.len();
        let (nodes, children) = class_at
            .iter()
            .flat_map(|&id| eg.nodes(id))
            .fold((0, 0), |(nodes, children), node| (nodes + 1, children + node.children.len()));
        let mut cands = Cands {
            list: Vec::with_capacity(nodes),
            start: Vec::with_capacity(n + 1),
            pool: Vec::with_capacity(children),
        };
        let mut min_op = Vec::with_capacity(n);
        let mut orbit_pruned = 0usize;
        let mut dominance_pruned = 0usize;
        // the canonical child multisets of a class's orbit representatives,
        // back to back (scratch, reused for every class)
        let mut multisets: Vec<Id> = Vec::new();
        let mut orbit_at: Vec<u32> = Vec::new();

        for &id in &class_at {
            let base = cands.list.len();
            cands.start.push(base as u32);
            let Cands { list, pool, .. } = &mut cands;
            // finite-cost filter: a node whose child has no finite tree
            // cost can never appear in a well-founded selection
            for node in eg.nodes(id) {
                let Some(tree) = node.children.iter().try_fold(cm.op_cost(node.op), |t, &c| {
                    Some(t.saturating_add(tree_costs[eg.find(c).index()]?))
                }) else {
                    continue;
                };
                let at = pool.len();
                pool.extend(node.children.iter().map(|&c| slot_of[eg.find(c).index()]));
                pool[at..].sort_unstable();
                let mut end = at;
                for i in at..pool.len() {
                    if end == at || pool[i] != pool[end - 1] {
                        pool[end] = pool[i];
                        end += 1;
                    }
                }
                pool.truncate(end);
                list.push(Cand {
                    node,
                    op_cost: cm.op_cost(node.op),
                    tree_cost: tree,
                    kids: (at as u32, end as u32),
                });
            }
            let list = &mut list[base..];
            // deterministic base order: cheap ops first, few children, Node
            // (the node is part of the key, so equal keys are equal
            // candidates and the sort needs no stability)
            list.sort_unstable_by(|a, b| {
                (a.op_cost, a.width(), a.node).cmp(&(b.op_cost, b.width(), b.node))
            });
            let mut kept = list.len();
            // symmetry breaking: commuted candidates — same operator, same
            // canonical child *multiset* — have identical DAG cost under
            // every completion of the selection, so the search only needs
            // the canonically least member of each orbit. (A special case
            // of dominance, split out so the orbit count is observable and
            // the quadratic dominance scan sees fewer candidates.)
            if opts.orbit {
                multisets.clear();
                orbit_at.clear();
                let before = kept;
                kept = prune_in_place(list, |kept, c| {
                    let at = multisets.len();
                    multisets.extend(c.node.children.iter().map(|&k| eg.find(k)));
                    multisets[at..].sort_unstable();
                    let (earlier, multiset) = multisets.split_at(at);
                    let is_dup = kept.iter().zip(&orbit_at).any(|(k, &from)| {
                        let from = from as usize;
                        k.node.op == c.node.op
                            && earlier[from..from + k.node.children.len()] == *multiset
                    });
                    if is_dup {
                        multisets.truncate(at);
                    } else {
                        orbit_at.push(at as u32);
                    }
                    is_dup
                });
                orbit_pruned += before - kept;
            }
            // dominated-node pruning: drop a candidate if an earlier
            // survivor has op cost ≤ and a child set that is a subset of
            // its own — the survivor can replace it in any selection
            // without raising the DAG cost or losing feasibility.
            if opts.dominance {
                let pool = &*pool;
                let kids = |k: &Cand<'_>| &pool[k.kids.0 as usize..k.kids.1 as usize];
                let before = kept;
                kept = prune_in_place(&mut list[..kept], |kept, c| {
                    kept.iter().any(|s| s.op_cost <= c.op_cost && subset(kids(s), kids(c)))
                });
                dominance_pruned += before - kept;
            }
            min_op.push(list[..kept].iter().map(|c| c.op_cost).min().unwrap_or(0));
            cands.list.truncate(base + kept);
        }
        cands.start.push(cands.list.len() as u32);

        // is the surviving-candidate graph acyclic? (The benchmark kernel
        // e-graphs are; random saturated graphs need not be.) Closure
        // dominance is gated on this: its replacement argument grafts a
        // survivor's forced closure onto an arbitrary selection, which on
        // a cyclic graph could close a cycle.
        let parents = Parents::build(&cands);
        let acyclic = candidate_graph_is_acyclic(&cands, &parents);

        // closure-subset dominance, iterated with the LP fixpoint: a
        // candidate `n` dies when an equal-or-cheaper survivor `m` forces
        // no more than `n` does — closure(m) ⊆ closure(n) ∪ S(class),
        // where closure(x) = ⋃ S(child) over x's children. Every class
        // `m`'s choice forces is then already paid in any selection that
        // chose `n`, so switching to `m` never costs more (and cannot
        // close a cycle on an acyclic graph). Each pruned candidate can
        // only grow the forced intersections, so the LP sets are rebuilt
        // and the pass repeats until stable.
        let mut closure_pruned = 0usize;
        let mut closure_rounds = 0usize;
        let mut lp = LpBound::build(&cands, &min_op, &parents, &slot_of);
        if opts.closure_dominance && acyclic {
            let words = lp.row_words();
            let mut rows = vec![0u64; 3 * words];
            loop {
                let (self_row, rest) = rows.split_at_mut(words);
                let (m_row, n_row) = rest.split_at_mut(words);
                let mut changed = false;
                let Cands { list, start, pool } = &mut cands;
                let closure = |cand: &Cand<'_>, out: &mut [u64]| {
                    out.fill(0);
                    for &ch in &pool[cand.kids.0 as usize..cand.kids.1 as usize] {
                        lp.union_into(ch as usize, out);
                    }
                };
                // the survivors of each class move down to `write`, in
                // the order they survive
                let mut write = 0;
                for c in 0..n {
                    let (lo, hi) = (start[c] as usize, start[c + 1] as usize);
                    start[c] = write as u32;
                    if hi - lo < 2 {
                        list.copy_within(lo..hi, write);
                        write += hi - lo;
                        continue;
                    }
                    self_row.fill(0);
                    lp.union_into(c, self_row);
                    // survivors of the class so far: `list[write..write + kept]`
                    let mut kept = 0;
                    // `dominates(m, n)`: switching a selection from n to m
                    // is free — m is no costlier and forces nothing that
                    // choosing n (with the class's own closure) does not
                    // already pay for
                    'cand: for i in lo..hi {
                        let cand = list[i];
                        closure(&cand, n_row);
                        for m in &list[write..write + kept] {
                            if m.op_cost > cand.op_cost {
                                continue;
                            }
                            closure(m, m_row);
                            let contained = m_row
                                .iter()
                                .zip(n_row.iter().zip(&*self_row))
                                .all(|(&mw, (&nw, &sw))| mw & !(nw | sw) == 0);
                            if contained {
                                closure_pruned += 1;
                                changed = true;
                                continue 'cand;
                            }
                        }
                        // the new candidate may dominate earlier survivors
                        // (closure size does not follow the sort order:
                        // an fma with three children can force less than
                        // an add whose form needs an extra intermediate)
                        let mut still = 0;
                        for j in write..write + kept {
                            let k = list[j];
                            if cand.op_cost <= k.op_cost {
                                closure(&k, m_row);
                                let contained = n_row
                                    .iter()
                                    .zip(m_row.iter().zip(&*self_row))
                                    .all(|(&nw, (&kw, &sw))| nw & !(kw | sw) == 0);
                                if contained {
                                    closure_pruned += 1;
                                    changed = true;
                                    continue;
                                }
                            }
                            list[write + still] = k;
                            still += 1;
                        }
                        list[write + still] = cand;
                        kept = still + 1;
                    }
                    write += kept;
                }
                start[n] = write as u32;
                list.truncate(write);
                if !changed {
                    break;
                }
                closure_rounds += 1;
                lp = LpBound::build(&cands, &min_op, &parents, &slot_of);
            }
        }

        // forced children: in the intersection of every candidate's child
        // set, hence selected under any choice for this class (computed
        // after all pruning — fewer candidates force more)
        let mut forced = Vec::new();
        let mut forced_start = Vec::with_capacity(n + 1);
        for c in 0..n {
            forced_start.push(forced.len() as u32);
            if let Some((first, rest)) = cands.of(c).split_first() {
                for &ch in cands.kids(first) {
                    if rest.iter().all(|k| cands.kids(k).binary_search(&ch).is_ok()) {
                        forced.push(ch);
                    }
                }
            }
        }
        forced_start.push(forced.len() as u32);

        // the search's two candidate visit orders, sorted here once
        // instead of once per racing strategy
        let mut order_start = Vec::with_capacity(n + 1);
        let mut orders =
            [Vec::with_capacity(cands.list.len()), Vec::with_capacity(cands.list.len())];
        for c in 0..n {
            let list = cands.of(c);
            order_start.push(orders[0].len() as u32);
            let at = orders[0].len();
            for order in &mut orders {
                order.extend(0..list.len() as u32);
            }
            orders[0][at..].sort_by_key(|&i| (list[i as usize].tree_cost, i));
            orders[1][at..].sort_by_key(|&i| {
                let c = &list[i as usize];
                (c.width(), c.tree_cost, i)
            });
        }
        order_start.push(orders[0].len() as u32);

        SearchContext {
            eg,
            slot_of,
            class_at,
            min_op,
            cands,
            forced,
            forced_start,
            lp,
            closure_rounds,
            parents,
            orders,
            order_start,
            acyclic,
            orbit_pruned,
            dominance_pruned,
            closure_pruned,
        }
    }

    /// The surviving candidates of a class, in the deterministic base
    /// order (test hook for the pruning logic).
    pub fn candidates(&self, id: Id) -> Vec<Node> {
        self.cands.of(self.slot(id)).iter().map(|c| c.node.to_node()).collect()
    }

    /// The slot of the class of (any) `id`.
    pub(crate) fn slot(&self, id: Id) -> usize {
        self.slot_of[self.eg.find(id).index()] as usize
    }

    /// The canonical class id in slot `slot`.
    pub(crate) fn class_at(&self, slot: usize) -> Id {
        self.class_at[slot]
    }

    /// The surviving candidates of the class in slot `slot`, borrowed.
    pub(crate) fn cands(&self, slot: usize) -> &[Cand<'a>] {
        self.cands.of(slot)
    }

    /// The child set of a candidate of this context: the slots of its child
    /// classes, sorted and deduplicated.
    pub(crate) fn kids(&self, cand: &Cand<'_>) -> &[u32] {
        self.cands.kids(cand)
    }

    /// Reverse edges of the candidate graph.
    pub(crate) fn parents(&self) -> &Parents {
        &self.parents
    }

    /// Number of class slots — the live canonical classes of the e-graph
    /// ([`EGraph::num_classes`]); every table of the context has this many
    /// entries, however many ids saturation created.
    pub fn slots(&self) -> usize {
        self.class_at.len()
    }

    /// Number of ids the e-graph ever created ([`EGraph::id_bound`]).
    pub(crate) fn ids(&self) -> usize {
        self.slot_of.len()
    }

    /// How often closure dominance pruned and the LP sets were rebuilt.
    pub(crate) fn closure_rounds(&self) -> usize {
        self.closure_rounds
    }

    /// How many commuted candidates symmetry breaking removed.
    pub fn orbit_pruned(&self) -> usize {
        self.orbit_pruned
    }

    /// How many candidates dominated-node pruning removed.
    pub fn dominance_pruned(&self) -> usize {
        self.dominance_pruned
    }

    /// How many candidates closure-subset dominance removed (0 on cyclic
    /// graphs, where the pass is inert).
    pub fn closure_pruned(&self) -> usize {
        self.closure_pruned
    }

    /// Is the surviving-candidate graph acyclic?
    pub fn is_acyclic(&self) -> bool {
        self.acyclic
    }

    /// The LP-relaxation tables (test/diagnostic hook).
    pub fn lp(&self) -> &LpBound {
        &self.lp
    }

    /// The fractional (LP-relaxation) lower bound of one class: admissible
    /// for the DAG cost of any selection covering it.
    pub fn fractional_bound(&self, id: Id) -> u64 {
        self.lp.class_bound(self.eg.find(id).index())
    }

    /// Admissible lower bound on the cost of any selection covering
    /// `roots`: the min-op mass of the union of the roots' LP required
    /// sets (shared classes counted once, like the LP objective).
    pub fn root_lower_bound(&self, roots: &[Id]) -> u64 {
        let mut acc = vec![0u64; self.lp.row_words()];
        for &r in roots {
            self.lp.union_into(self.slot(r), &mut acc);
        }
        acc.iter().enumerate().flat_map(|(wi, &w)| bits(wi, w)).map(|d| self.min_op[d]).sum()
    }

    /// The forced children of the class in slot `c`.
    fn forced(&self, c: usize) -> &[u32] {
        &self.forced[self.forced_start[c] as usize..self.forced_start[c + 1] as usize]
    }

    /// The legacy forced-children closure bound over `roots` — the bottom
    /// of the bound lattice (see DESIGN.md), kept for ablation and for the
    /// lattice-ordering property tests.
    pub fn forced_lower_bound(&self, roots: &[Id]) -> u64 {
        let mut seen = Visited::new(self.slots());
        let mut bound = 0u64;
        let mut stack: Vec<u32> = roots.iter().map(|&r| self.slot(r) as u32).collect();
        while let Some(c) = stack.pop() {
            if !seen.insert(c as usize) {
                continue;
            }
            bound += self.min_op[c as usize];
            stack.extend_from_slice(self.forced(c as usize));
        }
        bound
    }
}

/// Kahn's algorithm over the class graph induced by the surviving
/// candidates (an edge per class → candidate child class): retire classes
/// whose every edge leads to a retired class; the graph is acyclic iff
/// every class retires.
fn candidate_graph_is_acyclic(cands: &Cands<'_>, parents: &Parents) -> bool {
    let n = cands.classes();
    let mut out: Vec<u32> = Vec::with_capacity(n);
    out.extend((0..n).map(|c| cands.of(c).iter().map(|k| k.width() as u32).sum::<u32>()));
    let mut ready: Vec<u32> = Vec::with_capacity(n);
    ready.extend((0..n as u32).filter(|&c| out[c as usize] == 0));
    let mut retired = 0;
    while let Some(c) = ready.pop() {
        retired += 1;
        for &p in parents.of(c as usize) {
            out[p as usize] -= 1;
            if out[p as usize] == 0 {
                ready.push(p);
            }
        }
    }
    retired == n
}

/// Move to the front of `list`, in order, every element for which
/// `pruned(survivors so far, element)` is false; returns how many survived.
fn prune_in_place<'a>(
    list: &mut [Cand<'a>],
    mut pruned: impl FnMut(&[Cand<'a>], &Cand<'a>) -> bool,
) -> usize {
    let mut kept = 0;
    for i in 0..list.len() {
        if !pruned(&list[..kept], &list[i]) {
            list.swap(kept, i);
            kept += 1;
        }
    }
    kept
}

/// Is sorted `a` a subset of sorted `b`?
fn subset(a: &[u32], b: &[u32]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    let mut it = b.iter();
    'outer: for x in a {
        for y in it.by_ref() {
            match y.cmp(x) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// `Search::chosen` entry of a class no branch has decided.
const UNDECIDED: u32 = u32::MAX;

struct Search<'a, 'b> {
    cx: &'b SearchContext<'a>,
    /// Called once, at the [`VALVE_EVERY`]th explored node.
    long: &'b dyn Fn(),
    opts: SearchOptions,
    /// The best complete selection found so far; `None` while nothing has
    /// beaten the incumbent the search was seeded with.
    best: Option<Selection>,
    best_cost: u64,
    /// When the wall-clock valve closes; `None` when `opts.deadline` is
    /// beyond what an `Instant` can represent — then only the node budget
    /// binds.
    deadline: Option<Instant>,
    explored: u64,
    stopped: bool,
    /// Bitset of classes whose minimum op cost is already in the bound
    /// (required-closure membership). Like every class table and class
    /// list of the search, by slot.
    charged: Vec<u64>,
    /// Classes on `pending` or auto-decided on the current branch
    /// (branched classes stay marked while their subtree is explored).
    queued: Vec<bool>,
    /// The current branch's decisions: the index into `cx.cands(c)` of the
    /// candidate chosen for class `c`, or [`UNDECIDED`].
    chosen: Vec<u32>,
    /// Required-but-undecided classes of the current branch.
    pending: Vec<u32>,
    /// Undo logs of the current branch — classes queued on `pending`,
    /// classes decided by a forced chain, and `charged` bits set. One
    /// stack each for the whole search: a branch remembers the three
    /// lengths it started from and unwinds to them.
    q_trail: Vec<u32>,
    d_trail: Vec<u32>,
    c_trail: Vec<u32>,
    /// Scratch stack of the closure walks (`require`, `charge`,
    /// `would_cycle`), which nest: each walk works above the length it
    /// found and restores it.
    stack: Vec<u32>,
    /// Visited set of `would_cycle` (empty on acyclic candidate graphs,
    /// where the check never runs).
    seen: Visited,
}

impl<'a, 'b> Search<'a, 'b> {
    /// Charge class `c`'s closure into the bound: the LP required set when
    /// `lp_bound` is on, else the forced-children closure. Newly charged
    /// classes are recorded in `c_trail` for backtracking. Returns the
    /// bound increase. Idempotent per class.
    fn charge(&mut self, c: u32) -> u64 {
        let mut added = 0u64;
        if self.opts.lp_bound {
            for &(wi, held) in self.cx.lp.row(c as usize) {
                let new = held & !self.charged[wi as usize];
                self.charged[wi as usize] |= new;
                for idx in bits(wi as usize, new) {
                    added += self.cx.min_op[idx];
                    self.c_trail.push(idx as u32);
                }
            }
        } else {
            let base = self.stack.len();
            self.stack.push(c);
            while self.stack.len() > base {
                let di = self.stack.pop().expect("stack above base") as usize;
                let (wi, bit) = (di / 64, 1u64 << (di % 64));
                if self.charged[wi] & bit != 0 {
                    continue;
                }
                self.charged[wi] |= bit;
                self.c_trail.push(di as u32);
                added += self.cx.min_op[di];
                self.stack.extend_from_slice(self.cx.forced(di));
            }
        }
        added
    }

    /// Make `c` required: charge its closure and either queue it for
    /// branching or — when it has a single surviving candidate and
    /// `chain_closure` is on — decide it immediately and require its
    /// children transitively (the φ-chain forced closure). Returns `false`
    /// when a forced decision closes a cycle through `chosen`, which makes
    /// the whole current branch infeasible (the forced class has no
    /// alternative candidate).
    fn require(&mut self, c: u32, cost: &mut u64, extra: &mut u64) -> bool {
        let cx = self.cx;
        let base = self.stack.len();
        self.stack.push(c);
        while self.stack.len() > base {
            let c = self.stack.pop().expect("stack above base");
            *extra += self.charge(c);
            let slot = c as usize;
            if self.queued[slot] {
                continue;
            }
            let cands = cx.cands(slot);
            if self.opts.chain_closure && cands.len() == 1 {
                let cand = &cands[0];
                if !cx.acyclic && self.would_cycle(c, cand) {
                    self.stack.truncate(base);
                    return false;
                }
                self.queued[slot] = true;
                self.d_trail.push(c);
                self.chosen[slot] = 0;
                *cost += cand.op_cost;
                *extra -= cx.min_op[slot];
                self.stack.extend_from_slice(cx.kids(cand));
            } else {
                self.queued[slot] = true;
                self.q_trail.push(c);
                self.pending.push(c);
            }
        }
        true
    }

    /// Would choosing `cand` for class `target` close a cycle through the
    /// current branch's decisions?
    fn would_cycle(&mut self, target: u32, cand: &Cand<'_>) -> bool {
        let cx = self.cx;
        // fast path: a cycle must route through an already-chosen child or
        // hit the target directly — fresh children are walk frontiers
        if cx.kids(cand).iter().all(|&c| c != target && self.chosen[c as usize] == UNDECIDED) {
            return false;
        }
        self.seen.clear();
        let base = self.stack.len();
        self.stack.extend_from_slice(cx.kids(cand));
        let mut cycle = false;
        while self.stack.len() > base {
            let c = self.stack.pop().expect("stack above base");
            if c == target {
                cycle = true;
                break;
            }
            if !self.seen.insert(c as usize) {
                continue;
            }
            let ci = self.chosen[c as usize];
            if ci != UNDECIDED {
                self.stack.extend_from_slice(cx.kids(&cx.cands(c as usize)[ci as usize]));
            }
        }
        self.stack.truncate(base);
        cycle
    }

    /// Pick the index in `pending` of the next class to branch on.
    fn pick(&self) -> usize {
        let pending = &self.pending;
        match self.opts.order {
            ClassOrder::Lifo => pending.len() - 1,
            ClassOrder::BestFirst => {
                let key = |c: u32| {
                    (self.cx.cands.count(c as usize), u64::MAX - self.cx.min_op[c as usize], c)
                };
                (0..pending.len()).min_by_key(|&i| key(pending[i])).expect("pending non-empty")
            }
            ClassOrder::HeaviestFirst => {
                let key = |c: u32| {
                    (u64::MAX - self.cx.min_op[c as usize], self.cx.cands.count(c as usize), c)
                };
                (0..pending.len()).min_by_key(|&i| key(pending[i])).expect("pending non-empty")
            }
        }
    }

    /// `cost`: op costs of decided classes (branched and chain-closed).
    /// `bound_extra`: Σ min_op over charged-but-undecided classes.
    fn dfs(&mut self, cost: u64, bound_extra: u64) {
        self.explored += 1;
        if self.explored.is_multiple_of(VALVE_EVERY) {
            if self.explored == VALVE_EVERY {
                (self.long)();
            }
            if self.deadline.is_some_and(|d| Instant::now() >= d) {
                self.stopped = true;
            }
        }
        if self.explored >= self.opts.node_budget {
            self.stopped = true;
        }
        if self.stopped || cost + bound_extra >= self.best_cost {
            return;
        }
        let cx = self.cx;
        if self.pending.is_empty() {
            // complete selection: record as new incumbent
            if cost < self.best_cost {
                self.best_cost = cost;
                let mut sel = Selection::new();
                for (c, &ci) in self.chosen.iter().enumerate() {
                    if ci != UNDECIDED {
                        sel.choose(cx.eg, cx.class_at[c], cx.cands(c)[ci as usize].node.to_node());
                    }
                }
                self.best = Some(sel);
            }
            return;
        }
        let ix = self.pick();
        let id = self.pending.swap_remove(ix);
        let slot = id as usize;
        let bound_extra = bound_extra - cx.min_op[slot];

        // candidate order: precomputed per class (cheapest tree first by
        // default, or fewest distinct children first to maximize sharing)
        let range = cx.order_start[slot] as usize..cx.order_start[slot + 1] as usize;
        for &ci in &cx.orders[usize::from(self.opts.prefer_shared)][range] {
            let cand = &cx.cands(slot)[ci as usize];
            // acyclicity: a selected DAG must be well-founded (free when
            // the whole candidate graph is acyclic)
            if !cx.acyclic && self.would_cycle(id, cand) {
                continue;
            }
            // require the children (queueing or chain-closing them) and
            // charge newly required closures into the bound
            let marks = (self.q_trail.len(), self.d_trail.len(), self.c_trail.len());
            let mut branch_cost = cost + cand.op_cost;
            let mut extra = bound_extra;
            self.chosen[slot] = ci;
            let feasible =
                cx.kids(cand).iter().all(|&ch| self.require(ch, &mut branch_cost, &mut extra));
            if feasible {
                self.dfs(branch_cost, extra);
            }
            // a recursive call preserves pending as a *set* but may permute
            // it (classes are picked by swap_remove and re-pushed at frame
            // end), so the children must be removed by value — truncating
            // to the old length would drop arbitrary survivors instead
            for q in self.q_trail.drain(marks.0..) {
                let pos =
                    self.pending.iter().rposition(|&x| x == q).expect("queued child still pending");
                self.pending.swap_remove(pos);
                self.queued[q as usize] = false;
            }
            for d in self.d_trail.drain(marks.1..) {
                self.chosen[d as usize] = UNDECIDED;
                self.queued[d as usize] = false;
            }
            for b in self.c_trail.drain(marks.2..) {
                self.charged[b as usize / 64] &= !(1u64 << (b as usize % 64));
            }
            self.chosen[slot] = UNDECIDED;
            if self.stopped {
                break;
            }
        }
        self.pending.push(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::extract_greedy;
    use accsat_egraph::{all_rules, Op, Runner};

    #[test]
    fn exact_finds_sharing_optimum() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let h = eg.add(Node::new(Op::Div, vec![a, b]));
        let r1 = eg.add(Node::new(Op::Add, vec![h, a]));
        let r2 = eg.add(Node::new(Op::Mul, vec![h, b]));
        let cm = CostModel::paper();
        let res = extract_exact_with(&eg, &[r1, r2], &cm, &SearchOptions::default());
        assert!(res.proven_optimal);
        // classes: a 1, b 1, h 100, r1 10, r2 10 = 122
        assert_eq!(res.cost, 122);
        assert_eq!(res.lower_bound, res.cost, "proven results certify their own cost");
    }

    #[test]
    fn exact_prefers_shared_expensive_over_distinct_cheap() {
        // class R = { add(h, h), add(m1, m2) } where h = a/b shared,
        // m1 = a*b, m2 = b*a distinct muls. With operation=200, heavy=10
        // the shared-div route wins as a DAG though it loses as a tree.
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let h = eg.add(Node::new(Op::Div, vec![a, b])); // heavy op
        let hh = eg.add(Node::new(Op::Add, vec![h, h]));
        let m1 = eg.add(Node::new(Op::Mul, vec![a, b]));
        let m2 = eg.add(Node::new(Op::Mul, vec![b, a]));
        let mm = eg.add(Node::new(Op::Add, vec![m1, m2]));
        eg.union(hh, mm);
        eg.rebuild();
        let cm = CostModel { constant: 0, variable: 1, operation: 200, heavy: 10 };
        let res = extract_exact_with(&eg, &[hh], &cm, &SearchOptions::default());
        assert!(res.proven_optimal);
        // shared div route: add 200 + div 10 + a 1 + b 1 = 212
        // two-muls route:   add 200 + 2×mul 400 + 2 = 602
        assert_eq!(res.cost, 212);
        assert!(res.selection.node(&eg, hh).children.len() == 2);
    }

    #[test]
    fn exact_matches_greedy_on_trees() {
        // with no sharing opportunities, exact == greedy
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let c = eg.add(Node::sym("c"));
        let bc = eg.add(Node::new(Op::Mul, vec![b, c]));
        let sum = eg.add(Node::new(Op::Add, vec![a, bc]));
        Runner::new(all_rules()).run(&mut eg);
        let cm = CostModel::paper();
        let g = extract_greedy(&eg, &[sum], &cm);
        let e = extract_exact_with(&eg, &[sum], &cm, &SearchOptions::default());
        assert_eq!(e.cost, g.dag_cost(&eg, &cm, &[sum]));
        assert!(e.proven_optimal);
    }

    #[test]
    fn budget_exhaustion_returns_incumbent() {
        // a zero-node budget stops before any complete selection: the
        // greedy incumbent must come back, unproven, with the static root
        // bound as the certified lower bound
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let s = eg.add(Node::new(Op::Add, vec![a, b]));
        Runner::new(all_rules()).run(&mut eg);
        let cm = CostModel::paper();
        let opts = SearchOptions { node_budget: 1, ..SearchOptions::default() };
        let res = extract_exact_with(&eg, &[s], &cm, &opts);
        assert!(!res.proven_optimal);
        assert!(res.selection.get(&eg, s).is_some());
        let g = extract_greedy(&eg, &[s], &cm);
        assert_eq!(res.cost, g.dag_cost(&eg, &cm, &[s]));
        assert!(res.lower_bound <= res.cost, "static bound stays admissible");
    }

    #[test]
    fn an_unrepresentable_deadline_means_no_wall_clock_valve() {
        // `Instant::now() + Duration::MAX` overflows; the same value can
        // arrive through `SaturatorConfig::extraction_budget`. It must mean
        // "no wall-clock valve" (the node budget still binds), not a panic
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let r = eg.add(Node::new(Op::Add, vec![a, b]));
        let cm = CostModel::paper();
        let opts = SearchOptions { deadline: Duration::MAX, ..Default::default() };
        let res = extract_exact_with(&eg, &[r], &cm, &opts);
        assert!(res.proven_optimal);
        assert_eq!(res.cost, 12);
        let opts = SearchOptions { node_budget: 1, ..opts };
        assert!(!extract_exact_with(&eg, &[r], &cm, &opts).proven_optimal);
    }

    #[test]
    fn saturated_matmul_statement_extracts_fast() {
        // alpha * tmp + beta * c  — the Listing 1 statement after saturation
        let mut eg = EGraph::new();
        let alpha = eg.add(Node::sym("alpha"));
        let tmp = eg.add(Node::sym("tmp"));
        let beta = eg.add(Node::sym("beta"));
        let cc = eg.add(Node::sym("c"));
        let at = eg.add(Node::new(Op::Mul, vec![alpha, tmp]));
        let bc = eg.add(Node::new(Op::Mul, vec![beta, cc]));
        let sum = eg.add(Node::new(Op::Add, vec![at, bc]));
        Runner::new(all_rules()).run(&mut eg);
        let cm = CostModel::paper();
        let res = extract_exact_with(&eg, &[sum], &cm, &SearchOptions::default());
        // fma(a*t, beta, c) = fma 10 + mul 10 + 4 syms = 24 beats
        // add+2mul = 30+4 = 34
        assert!(res.cost <= 24, "expected an FMA extraction, got {}", res.cost);
        assert!(res.proven_optimal);
    }

    #[test]
    fn all_orders_agree_on_optimum() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let h = eg.add(Node::new(Op::Div, vec![a, b]));
        let r1 = eg.add(Node::new(Op::Add, vec![h, a]));
        let r2 = eg.add(Node::new(Op::Mul, vec![h, b]));
        Runner::new(all_rules()).run(&mut eg);
        let cm = CostModel::paper();
        let mut costs = Vec::new();
        for order in [ClassOrder::BestFirst, ClassOrder::HeaviestFirst, ClassOrder::Lifo] {
            for prefer_shared in [false, true] {
                let opts = SearchOptions { order, prefer_shared, ..SearchOptions::default() };
                let res = extract_exact_with(&eg, &[r1, r2], &cm, &opts);
                assert!(res.proven_optimal, "{order:?}/{prefer_shared} must finish");
                costs.push(res.cost);
            }
        }
        assert!(costs.windows(2).all(|w| w[0] == w[1]), "orders disagree: {costs:?}");
    }

    #[test]
    fn dominated_nodes_are_pruned() {
        // class { add(x, x), mul(x, y) }: add's child set {x} is a subset
        // of mul's {x, y} at equal op cost — mul must be pruned.
        let mut eg = EGraph::new();
        let x = eg.add(Node::sym("x"));
        let y = eg.add(Node::sym("y"));
        let ax = eg.add(Node::new(Op::Add, vec![x, x]));
        let mxy = eg.add(Node::new(Op::Mul, vec![x, y]));
        eg.union(ax, mxy);
        eg.rebuild();
        let cm = CostModel::paper();
        let cx = SearchContext::build(&eg, &cm);
        let cands = cx.candidates(ax);
        assert_eq!(cands.len(), 1, "dominated mul must be pruned: {cands:?}");
        assert_eq!(cands[0].op, Op::Add);
        assert!(cx.dominance_pruned() >= 1);
    }

    #[test]
    fn domination_respects_cost_and_subset_direction() {
        // div(x) vs neg(x): same child set {x} but div is heavier — only
        // the cheap node survives. neg(x) vs sub(x, y): neg's set is the
        // subset at equal-or-lower cost, sub is pruned; the reverse
        // (superset at lower cost) must NOT prune.
        let mut eg = EGraph::new();
        let x = eg.add(Node::sym("x"));
        let y = eg.add(Node::sym("y"));
        let n = eg.add(Node::new(Op::Neg, vec![x]));
        let s = eg.add(Node::new(Op::Sub, vec![x, y]));
        eg.union(n, s);
        eg.rebuild();
        let cm = CostModel::paper();
        let cx = SearchContext::build(&eg, &cm);
        assert_eq!(cx.candidates(n).len(), 1);
        assert_eq!(cx.candidates(n)[0].op, Op::Neg);

        // heavy single-child node vs cheap two-child node: no domination
        // either way (cost and subset point in opposite directions)
        let mut eg2 = EGraph::new();
        let x2 = eg2.add(Node::sym("x"));
        let y2 = eg2.add(Node::sym("y"));
        let d = eg2.add(Node::new(Op::Div, vec![x2, x2]));
        let m = eg2.add(Node::new(Op::Mul, vec![x2, y2]));
        eg2.union(d, m);
        eg2.rebuild();
        let cx2 = SearchContext::build(&eg2, &cm);
        assert_eq!(cx2.candidates(d).len(), 2, "neither node dominates the other");
    }

    #[test]
    fn root_lower_bound_is_admissible_and_reaches_tree_bound() {
        // on a pure tree the forced closure covers the whole term, so
        // both the legacy and the LP bound equal the exact cost
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let ab = eg.add(Node::new(Op::Add, vec![a, b]));
        let r = eg.add(Node::new(Op::Mul, vec![ab, a]));
        let cm = CostModel::paper();
        let cx = SearchContext::build(&eg, &cm);
        let res = extract_exact_with(&eg, &[r], &cm, &SearchOptions::default());
        assert_eq!(cx.root_lower_bound(&[r]), res.cost, "LP bound is tight on trees");
        assert_eq!(cx.forced_lower_bound(&[r]), res.cost, "forced bound is tight on trees");
    }

    #[test]
    fn orbit_collapse_prunes_commuted_candidates_without_dominance() {
        // add(a, b) and add(b, a): same op, same child multiset — one
        // orbit. With dominance disabled, only symmetry breaking can
        // collapse it.
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let ab = eg.add(Node::new(Op::Add, vec![a, b]));
        let ba = eg.add(Node::new(Op::Add, vec![b, a]));
        eg.union(ab, ba);
        eg.rebuild();
        let cm = CostModel::paper();
        let cx = SearchContext::build_with(
            &eg,
            &cm,
            &ContextOptions { orbit: true, dominance: false, closure_dominance: false },
        );
        assert_eq!(cx.candidates(ab).len(), 1, "one representative per orbit");
        assert_eq!(cx.orbit_pruned(), 1);
        // the unpruned context keeps both commuted nodes
        let raw = SearchContext::build_with(
            &eg,
            &cm,
            &ContextOptions { orbit: false, dominance: false, closure_dominance: false },
        );
        assert_eq!(raw.candidates(ab).len(), 2);
        assert_eq!(raw.orbit_pruned(), 0);
    }

    #[test]
    fn orbit_keeps_distinct_child_multisets() {
        // add(a, a) and add(a, b) share the op but not the multiset:
        // different orbits, both survive symmetry breaking.
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let aa = eg.add(Node::new(Op::Add, vec![a, a]));
        let ab = eg.add(Node::new(Op::Add, vec![a, b]));
        eg.union(aa, ab);
        eg.rebuild();
        let cm = CostModel::paper();
        let cx = SearchContext::build_with(
            &eg,
            &cm,
            &ContextOptions { orbit: true, dominance: false, closure_dominance: false },
        );
        assert_eq!(cx.candidates(aa).len(), 2, "distinct multisets are not an orbit");
    }

    #[test]
    fn chain_closure_decides_singleton_chains_for_free() {
        // a pure chain of single-candidate classes is fully decided at
        // seed time: the search explores exactly one node
        let mut eg = EGraph::new();
        let mut cur = eg.add(Node::sym("x"));
        for _ in 0..40 {
            cur = eg.add(Node::new(Op::Neg, vec![cur]));
        }
        let cm = CostModel::paper();
        let with = extract_exact_with(&eg, &[cur], &cm, &SearchOptions::default());
        assert!(with.proven_optimal);
        assert_eq!(with.explored, 1, "forced chains must consume no branch budget");

        // now hang the chain off a sharing trade-off where the greedy
        // incumbent is suboptimal: the improving path must decide every
        // chain class, so the unclosed search pays per link while the
        // chain closure keeps the tree collapsed
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let c = eg.add(Node::sym("c"));
        let u = eg.add(Node::new(Op::Div, vec![a, b]));
        let uu = eg.add(Node::new(Op::Add, vec![u, u]));
        let v1 = eg.add(Node::new(Op::Mul, vec![a, b]));
        let v2 = eg.add(Node::new(Op::Mul, vec![b, c]));
        let vv = eg.add(Node::new(Op::Add, vec![v1, v2]));
        eg.union(uu, vv);
        eg.rebuild();
        let mut chain = u;
        for _ in 0..40 {
            chain = eg.add(Node::new(Op::Neg, vec![chain]));
        }
        let roots = [eg.find(uu), eg.find(chain)];
        let with = extract_exact_with(&eg, &roots, &cm, &SearchOptions::default());
        let without = extract_exact_with(
            &eg,
            &roots,
            &cm,
            &SearchOptions { chain_closure: false, ..SearchOptions::default() },
        );
        assert!(with.proven_optimal && without.proven_optimal);
        assert_eq!(with.cost, without.cost);
        assert!(with.cost < extract_greedy(&eg, &roots, &cm).dag_cost(&eg, &cm, &roots));
        assert!(without.explored > 40, "the unclosed search pays per chain link");
        assert!(with.explored < 10, "chain closure collapses the chain: {}", with.explored);
    }

    #[test]
    fn lp_bound_dominates_forced_bound_on_converging_candidates() {
        // root class R = { neg(p), neg(q) } where p = a/b + a and
        // q = a/b * b both require the heavy division: the forced bound
        // sees no common *direct* child and stops at min-op(R), while the
        // LP required-set fixpoint charges the division both candidates
        // converge on.
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let h = eg.add(Node::new(Op::Div, vec![a, b]));
        let p = eg.add(Node::new(Op::Add, vec![h, a]));
        let q = eg.add(Node::new(Op::Mul, vec![h, b]));
        let np = eg.add(Node::new(Op::Neg, vec![p]));
        let nq = eg.add(Node::new(Op::Neg, vec![q]));
        eg.union(np, nq);
        eg.rebuild();
        let cm = CostModel::paper();
        let cx = SearchContext::build(&eg, &cm);
        let root = eg.find(np);
        let forced = cx.forced_lower_bound(&[root]);
        let lp = cx.root_lower_bound(&[root]);
        assert!(lp > forced, "LP ({lp}) must beat forced ({forced}) here");
        // the forced bound sees no shared direct child: just neg 10
        assert_eq!(forced, 10);
        // the LP bound charges the deep convergence — the division and
        // its operands — but not p/q themselves (they are alternatives):
        // neg 10 + div 100 + a 1 + b 1 = 112
        assert_eq!(lp, 112);
        let res = extract_exact_with(&eg, &[root], &cm, &SearchOptions::default());
        assert!(res.proven_optimal);
        assert!(lp <= res.cost, "bound stays admissible");
    }

    #[test]
    fn the_long_hook_fires_once_at_the_256th_explored_node() {
        // the unpruned search over a saturated sum of squares explores far
        // more than 256 nodes; the pruned one proves the optimum in fewer
        let mut eg = EGraph::new();
        let mut root = eg.add(Node::sym("s"));
        for name in ["a", "b", "c", "d"] {
            let x = eg.add(Node::sym(name));
            let xx = eg.add(Node::new(Op::Mul, vec![x, x]));
            root = eg.add(Node::new(Op::Add, vec![root, xx]));
        }
        Runner::new(all_rules()).run(&mut eg);
        let roots = [eg.find(root)];
        let cm = CostModel::paper();
        let incumbent = extract_greedy(&eg, &roots, &cm);
        let cost = incumbent.dag_cost(&eg, &cm, &roots);
        let unpruned = SearchContext::build_with(
            &eg,
            &cm,
            &ContextOptions { orbit: false, dominance: false, closure_dominance: false },
        );
        let plain = SearchOptions { lp_bound: false, chain_closure: false, ..Default::default() };
        let pruned = SearchContext::build(&eg, &cm);
        let calls = std::cell::Cell::new(0);
        let long = || calls.set(calls.get() + 1);
        for (cx, budget, fired) in [
            (&unpruned, 255, 0),
            (&unpruned, 256, 1),
            (&unpruned, 1_000_000, 1),
            (&pruned, 1_000_000, 0),
        ] {
            calls.set(0);
            let opts = SearchOptions {
                node_budget: budget,
                ..if cx.orbit_pruned() == 0 { plain } else { SearchOptions::default() }
            };
            let res = extract_exact_hooked(cx, &roots, &incumbent, cost, &opts, &long);
            assert_eq!(calls.get(), fired, "budget {budget}, explored {}", res.explored);
            assert_eq!(res.explored >= 256, fired == 1, "explored {}", res.explored);
        }
    }

    #[test]
    fn unpruned_search_agrees_with_strengthened_search() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let h = eg.add(Node::new(Op::Div, vec![a, b]));
        let r1 = eg.add(Node::new(Op::Add, vec![h, a]));
        let r2 = eg.add(Node::new(Op::Mul, vec![h, b]));
        Runner::new(all_rules()).run(&mut eg);
        let roots = [eg.find(r1), eg.find(r2)];
        let cm = CostModel::paper();
        let fast = extract_exact_with(&eg, &roots, &cm, &SearchOptions::default());
        let slow = extract_unpruned(&eg, &roots, &cm, 50_000_000);
        assert!(fast.proven_optimal && slow.proven_optimal);
        assert_eq!(fast.cost, slow.cost, "pruning must not change the optimum");
        assert!(fast.explored <= slow.explored, "pruning must not grow the tree");
    }
}
