//! DAG-aware incumbent refinement: deterministic primal heuristics that
//! improve a selection's *DAG* cost before branch-and-bound ever runs.
//!
//! The greedy extraction ([`crate::greedy`]) is tree-optimal per class and
//! therefore blind to sharing: it duplicates work whenever duplication is
//! cheaper *per use*. The exact search fixes that in principle, but on the
//! hardest suite kernels the optimal alignment of choices hides hundreds
//! of millions of branch nodes deep. These two heuristics find much of
//! that alignment in milliseconds:
//!
//! * [`climb`] — best-improvement hill climbing over single-class
//!   candidate switches, each priced by its DAG delta (the sub-DAG it
//!   adds minus the sub-DAG it drops, on reference counts of the
//!   selection), repeated to a fixpoint. Finds improvements where one
//!   class's choice should redirect onto subterms the rest of the
//!   selection already pays for (LU `jacld`: 790 → 720, beating a
//!   100 M-node search's best of 770).
//! * [`marginal_greedy`] — a second greedy that commits classes one at a
//!   time (deterministic smallest-id order from the roots) and scores
//!   every candidate with *already-committed classes free*, repairing
//!   the marginal-cost fixpoint after each commit. Where the plain greedy
//!   asks "what is cheapest in isolation", this asks "what is cheapest
//!   given what the selection already contains" (olbm `lbm_stream`:
//!   1983 → 1973).
//!
//! Neither heuristic can certify anything — the portfolio re-checks the
//! refined incumbent against the LP root bound and otherwise hands it to
//! the branch-and-bound search, which can only benefit from the tighter
//! upper bound. Both are fully deterministic: fixed iteration orders,
//! cost-then-candidate-order tie-breaking, no clocks.

use crate::bnb::{Cand, SearchContext};
use crate::cost::CostModel;
use crate::selection::{Selection, SelectionError};
use accsat_egraph::{EGraph, Id, NodeRef, Visited};
use std::collections::{BTreeSet, VecDeque};

/// A selection as a table of borrowed nodes indexed by the context's class
/// slots ([`SearchContext::slots`]), with the scratch state of its graph
/// walks. The refinement loops score thousands of one-class variations of
/// one selection; on this view a walk allocates nothing. Classes are slots
/// throughout this module; ids appear where a [`Selection`] or a root comes
/// in or goes out.
struct View<'s> {
    cx: &'s SearchContext<'s>,
    /// The chosen node per class slot.
    node: Vec<Option<NodeRef<'s>>>,
    seen: Visited,
    stack: Vec<usize>,
}

impl<'s> View<'s> {
    fn new(cx: &'s SearchContext<'s>) -> View<'s> {
        let slots = cx.slots();
        View { cx, node: vec![None; slots], seen: Visited::new(slots), stack: Vec::new() }
    }

    /// The chosen node of class `c`; panics on a class without one, like
    /// [`Selection::reachable`].
    fn chosen(&self, c: usize) -> NodeRef<'s> {
        self.node[c].unwrap_or_else(|| panic!("{}", SelectionError::Missing(self.cx.class_at(c))))
    }

    /// Add one reference (`up`) or drop one (`!up`) to each class on
    /// `stack`, following the chosen node of every class that becomes
    /// reachable or unreachable; returns the op cost of those classes.
    fn recount(&mut self, refs: &mut [u32], cm: &CostModel, up: bool) -> u64 {
        let mut moved = 0;
        while let Some(c) = self.stack.pop() {
            if up {
                refs[c] += 1;
            } else {
                refs[c] -= 1;
            }
            if refs[c] == u32::from(up) {
                let node = self.chosen(c);
                moved += cm.op_cost(node.op);
                self.stack.extend(node.children.iter().map(|&k| self.cx.slot(k)));
            }
        }
        moved
    }

    /// Switch a reachable class from node `old` to node `new` in the
    /// reference counts `refs` and return the DAG cost over the roots, given
    /// `cost` before: the sub-DAG `new` adds minus the sub-DAG `old` drops.
    /// Adding first keeps a subterm both reach from being dropped and
    /// re-added. The class's entry in `node` is the caller's to update;
    /// switching back restores the counts.
    fn switch(
        &mut self,
        refs: &mut [u32],
        cm: &CostModel,
        cost: u64,
        old: NodeRef<'_>,
        new: NodeRef<'_>,
    ) -> u64 {
        debug_assert!(self.stack.is_empty(), "a walk left classes behind");
        self.stack.extend(new.children.iter().map(|&k| self.cx.slot(k)));
        let added = cm.op_cost(new.op) + self.recount(refs, cm, true);
        self.stack.extend(old.children.iter().map(|&k| self.cx.slot(k)));
        let dropped = cm.op_cost(old.op) + self.recount(refs, cm, false);
        cost + added - dropped
    }

    /// Would choosing `node` for class `target` close a cycle through the
    /// chosen nodes ([`Selection::would_cycle`])? Classes without a node
    /// are dead ends. Leaves `stack` empty, as [`View::recount`] expects.
    fn would_cycle(&mut self, target: usize, node: NodeRef<'_>) -> bool {
        self.seen.clear();
        self.stack.extend(node.children.iter().map(|&c| self.cx.slot(c)));
        while let Some(c) = self.stack.pop() {
            if c == target {
                self.stack.clear();
                return true;
            }
            if !self.seen.insert(c) {
                continue;
            }
            if let Some(n) = self.node[c] {
                self.stack.extend(n.children.iter().map(|&k| self.cx.slot(k)));
            }
        }
        false
    }
}

/// Best-improvement hill climbing over single-class candidate switches.
///
/// `sel` must be an acyclic *total* cover (every finite-cost class chosen
/// — what [`crate::extract_greedy`] returns and what `fill_from`
/// restores); the result is again one. Each pass visits the root-reachable
/// classes in ascending id order and applies the cheapest strictly
/// improving switch per class (ties keep the current node, then the
/// earlier candidate); passes repeat until a fixpoint. Terminates because
/// every accepted switch strictly lowers the DAG cost. A trial switch is
/// priced by its delta on reference counts of the selection DAG and then
/// switched back; the price equals the DAG cost a full walk from the roots
/// would give.
pub fn climb(
    eg: &EGraph,
    cx: &SearchContext<'_>,
    cm: &CostModel,
    roots: &[Id],
    mut sel: Selection,
) -> Selection {
    // the view borrows `sel`, so accepted switches are logged as
    // (class, candidate index) and replayed onto it afterwards
    let mut switches: Vec<(usize, usize)> = Vec::new();
    {
        let mut view = View::new(cx);
        for (id, node) in sel.iter() {
            view.node[cx.slot(id)] = Some(node.as_ref());
        }
        // how often a root or a child edge of a reachable class's chosen
        // node names each class: on an acyclic selection a class is
        // reachable iff its count is positive
        let mut refs = vec![0u32; cx.slots()];
        view.stack.extend(roots.iter().map(|&r| cx.slot(r)));
        let mut cur_cost = view.recount(&mut refs, cm, true);
        let mut classes: Vec<usize> = Vec::new();
        loop {
            let mut improved = false;
            classes.clear();
            classes.extend((0..cx.slots()).filter(|&c| refs[c] > 0));
            for &id in &classes {
                // an earlier switch of this pass cut the class off: every
                // switch of it leaves the DAG cost at `cur_cost`
                if refs[id] == 0 {
                    continue;
                }
                let cur_node = view.chosen(id);
                let mut best: (u64, Option<usize>) = (cur_cost, None);
                for (ci, cand) in cx.cands(id).iter().enumerate() {
                    if cand.node == cur_node || view.would_cycle(id, cand.node) {
                        continue;
                    }
                    let c = view.switch(&mut refs, cm, cur_cost, cur_node, cand.node);
                    view.switch(&mut refs, cm, c, cand.node, cur_node);
                    if c < best.0 {
                        best = (c, Some(ci));
                    }
                }
                if let (c, Some(ci)) = best {
                    let node = cx.cands(id)[ci].node;
                    view.switch(&mut refs, cm, cur_cost, cur_node, node);
                    view.node[id] = Some(node);
                    switches.push((id, ci));
                    cur_cost = c;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
    }
    for (id, ci) in switches {
        sel.choose(eg, cx.class_at(id), cx.cands(id)[ci].node.to_node());
    }
    sel
}

/// Marginal tree cost of one candidate under `costs`: its op cost plus
/// its children's costs, per use.
fn marginal_cost(
    cx: &SearchContext<'_>,
    cm: &CostModel,
    cand: &Cand<'_>,
    costs: &[Option<u64>],
) -> Option<u64> {
    let mut total = cm.op_cost(cand.node.op);
    for &ch in cand.node.children {
        total = total.saturating_add(costs[cx.slot(ch)]?);
    }
    Some(total)
}

/// The marginal-cost fixpoint, maintained incrementally.
///
/// With `None` as +∞, `costs` is the greatest fixpoint of
/// `F(x)[c] = 0` for an included class and
/// `min over candidates (op + Σ x[child])` otherwise. Including one more
/// class only lowers `F`, so the fixpoint before the inclusion is still
/// above `F` of itself, and lowering from *it* — re-evaluating only the
/// parents ([`crate::bnb::Parents`]) of classes whose cost fell —
/// descends to the same greatest fixpoint a from-scratch iteration from
/// +∞ reaches (DESIGN.md, "Extraction tables").
struct Marginal<'c> {
    cx: &'c SearchContext<'c>,
    cm: &'c CostModel,
    costs: Vec<Option<u64>>,
    included: Vec<bool>,
    /// Classes to re-evaluate, each at most once at a time.
    queue: VecDeque<u32>,
    queued: Vec<bool>,
}

impl<'c> Marginal<'c> {
    /// The fixpoint with no class included.
    fn new(cx: &'c SearchContext<'c>, cm: &'c CostModel) -> Marginal<'c> {
        let n = cx.slots();
        let mut m = Marginal {
            cx,
            cm,
            costs: vec![None; n],
            included: vec![false; n],
            queue: (0..n as u32).collect(),
            queued: vec![true; n],
        };
        m.settle();
        m
    }

    /// Re-evaluate queued classes until none is left.
    fn settle(&mut self) {
        while let Some(c) = self.queue.pop_front() {
            let c = c as usize;
            self.queued[c] = false;
            if self.included[c] {
                continue;
            }
            let mut best = self.costs[c];
            for cand in self.cx.cands(c) {
                if let Some(t) = marginal_cost(self.cx, self.cm, cand, &self.costs) {
                    if best.is_none_or(|b| t < b) {
                        best = Some(t);
                    }
                }
            }
            if best != self.costs[c] {
                self.costs[c] = best;
                self.lowered(c);
            }
        }
    }

    /// Class `c`'s cost fell: its parents are due.
    fn lowered(&mut self, c: usize) {
        for &p in self.cx.parents().of(c) {
            if !self.queued[p as usize] {
                self.queued[p as usize] = true;
                self.queue.push_back(p);
            }
        }
    }

    /// Count class `c` as free from now on.
    fn include(&mut self, c: usize) {
        self.included[c] = true;
        if self.costs[c] != Some(0) {
            self.costs[c] = Some(0);
            self.lowered(c);
            self.settle();
        }
    }
}

/// Sequential marginal greedy: commit one class at a time (smallest
/// pending id first, starting from the roots), scoring each candidate by
/// op cost plus the marginal tree cost of its children with everything
/// already committed counted as free. The returned selection covers the
/// committed closure only — complete it with [`Selection::fill_from`]
/// before cost comparisons or codegen.
///
/// The marginal scorer counts an included class as free regardless of
/// well-foundedness, so on cyclic e-graphs a top-scoring candidate can
/// close a cycle through earlier commits; such candidates are skipped,
/// and if a class retains no acyclic candidate at all the heuristic gives
/// up and returns `None` (the caller keeps its previous incumbent).
pub fn marginal_greedy(
    eg: &EGraph,
    cx: &SearchContext<'_>,
    cm: &CostModel,
    roots: &[Id],
) -> Option<Selection> {
    let mut marginal = Marginal::new(cx, cm);
    let mut view = View::new(cx);
    let mut committed: Vec<(usize, &Cand<'_>)> = Vec::new();
    let mut queue: BTreeSet<usize> = roots.iter().map(|&r| cx.slot(r)).collect();
    while let Some(c) = queue.pop_first() {
        if marginal.included[c] {
            continue;
        }
        marginal.include(c);
        let mut best: Option<(u64, &Cand<'_>)> = None;
        for cand in cx.cands(c) {
            // every commit is a candidate, so only a cyclic candidate
            // graph can close a cycle
            if !cx.is_acyclic() && view.would_cycle(c, cand.node) {
                continue;
            }
            if let Some(t) = marginal_cost(cx, cm, cand, &marginal.costs) {
                if best.is_none_or(|(b, _)| t < b) {
                    best = Some((t, cand));
                }
            }
        }
        let (_, cand) = best?;
        queue.extend(
            cx.kids(cand).iter().map(|&ch| ch as usize).filter(|&ch| !marginal.included[ch]),
        );
        view.node[c] = Some(cand.node);
        committed.push((c, cand));
    }
    let mut sel = Selection::new();
    for (c, cand) in committed {
        sel.choose(eg, cx.class_at(c), cand.node.to_node());
    }
    Some(sel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::extract_greedy;
    use accsat_egraph::{Node, Op};

    /// The sharing trade-off where greedy is DAG-suboptimal: root 1's
    /// class holds `add(u, u)` (heavy shared u) and `add(v1, v2)` (two
    /// cheap muls); root 2 forces u anyway.
    fn tradeoff() -> (EGraph, Vec<Id>) {
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
        let r2 = eg.add(Node::new(Op::Neg, vec![u]));
        let roots = vec![eg.find(uu), eg.find(r2)];
        (eg, roots)
    }

    #[test]
    fn climb_finds_the_sharing_switch() {
        let (eg, roots) = tradeoff();
        let cm = CostModel::paper();
        let cx = SearchContext::build(&eg, &cm);
        let greedy = extract_greedy(&eg, &roots, &cm);
        let g = greedy.dag_cost(&eg, &cm, &roots);
        let refined = climb(&eg, &cx, &cm, &roots, greedy);
        let r = refined.dag_cost(&eg, &cm, &roots);
        assert!(r < g, "climb must find the shared-u switch: {r} !< {g}");
        assert_eq!(r, 122); // add 10 + div 100 + a 1 + b 1 + neg 10
    }

    #[test]
    fn climb_is_deterministic_and_never_worse() {
        let (eg, roots) = tradeoff();
        let cm = CostModel::paper();
        let cx = SearchContext::build(&eg, &cm);
        let greedy = extract_greedy(&eg, &roots, &cm);
        let a = climb(&eg, &cx, &cm, &roots, greedy.clone());
        let b = climb(&eg, &cx, &cm, &roots, greedy.clone());
        for &r in &roots {
            assert_eq!(a.term_string(&eg, r), b.term_string(&eg, r));
        }
        assert!(a.dag_cost(&eg, &cm, &roots) <= greedy.dag_cost(&eg, &cm, &roots));
    }

    #[test]
    fn marginal_greedy_covers_roots_and_is_costable() {
        let (eg, roots) = tradeoff();
        let cm = CostModel::paper();
        let cx = SearchContext::build(&eg, &cm);
        let mut sel = marginal_greedy(&eg, &cx, &cm, &roots).expect("acyclic graph");
        sel.fill_from(&extract_greedy(&eg, &roots, &cm));
        let c = sel.dag_cost(&eg, &cm, &roots);
        // the marginal scorer sees u as free once root 2 commits it
        assert!(c <= 143, "marginal greedy must not be worse than plain greedy: {c}");
    }
}
