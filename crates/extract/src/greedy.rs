//! Greedy fixpoint extraction (egg's default bottom-up extractor).
//!
//! Computes, for every e-class, the minimum *tree* cost over its nodes
//! (`cost(node) = op_cost + Σ cost(child)`) by iterating to a fixpoint, then
//! selects the argmin node per class. Tree-optimal, DAG-suboptimal; used as
//! the branch-and-bound incumbent and the timeout fallback.

use crate::cost::CostModel;
use crate::selection::Selection;
use accsat_egraph::{EGraph, Id, NodeRef};

/// Extract the tree-cost-minimal selection covering everything reachable
/// from `roots` (in fact, the fixpoint covers all finite-cost classes).
pub fn extract_greedy(eg: &EGraph, roots: &[Id], cm: &CostModel) -> Selection {
    greedy_from(eg, roots, cm, &class_costs(eg, cm))
}

/// [`extract_greedy`] over the tree costs ([`class_costs`]) the caller has
/// already computed — the portfolio shares them with its search context.
pub(crate) fn greedy_from(
    eg: &EGraph,
    roots: &[Id],
    cm: &CostModel,
    costs: &[Option<u64>],
) -> Selection {
    let mut sel = Selection::new();
    for (id, _) in eg.classes() {
        let mut best: Option<(u64, NodeRef<'_>)> = None;
        for node in eg.nodes(id) {
            if let Some(c) = node_cost(eg, cm, node, costs) {
                if best.is_none_or(|(bc, _)| c < bc) {
                    best = Some((c, node));
                }
            }
        }
        if let Some((_, node)) = best {
            sel.choose(eg, id, node.to_node());
        }
    }
    // every root must have been covered
    for &r in roots {
        assert!(
            sel.get(eg, r).is_some(),
            "root {r} has infinite cost (cyclic class with no leaf escape?)"
        );
    }
    sel
}

/// Fixpoint tree cost per canonical class (`None` = unreachable/infinite).
pub(crate) fn class_costs(eg: &EGraph, cm: &CostModel) -> Vec<Option<u64>> {
    let n = eg.classes().map(|(id, _)| id.index() + 1).max().unwrap_or(0);
    let mut costs: Vec<Option<u64>> = vec![None; n];
    let mut changed = true;
    while changed {
        changed = false;
        for (id, _) in eg.classes() {
            let cur = costs[id.index()];
            let mut best = cur;
            for node in eg.nodes(id) {
                let c = node_cost(eg, cm, node, &costs);
                if let Some(c) = c {
                    if best.is_none_or(|b| c < b) {
                        best = Some(c);
                    }
                }
            }
            if best != cur {
                costs[id.index()] = best;
                changed = true;
            }
        }
    }
    costs
}

fn node_cost(eg: &EGraph, cm: &CostModel, node: NodeRef<'_>, costs: &[Option<u64>]) -> Option<u64> {
    let mut total = cm.op_cost(node.op);
    for &c in node.children {
        total = total.saturating_add(costs[eg.find(c).index()]?);
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use accsat_egraph::{Node, Op};

    #[test]
    fn picks_cheapest_node_per_class() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let div = eg.add(Node::new(Op::Div, vec![a, b]));
        let mul = eg.add(Node::new(Op::Mul, vec![a, b]));
        eg.union(div, mul);
        eg.rebuild();
        let cm = CostModel::paper();
        let sel = extract_greedy(&eg, &[div], &cm);
        assert_eq!(sel.node(&eg, div).op, Op::Mul, "mul (10) beats div (100)");
    }

    #[test]
    fn costs_propagate_through_depth() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let n1 = eg.add(Node::new(Op::Neg, vec![a]));
        let n2 = eg.add(Node::new(Op::Neg, vec![n1]));
        let n3 = eg.add(Node::new(Op::Neg, vec![n2]));
        let cm = CostModel::paper();
        let costs = class_costs(&eg, &cm);
        assert_eq!(costs[eg.find(a).index()], Some(1));
        assert_eq!(costs[eg.find(n3).index()], Some(31));
    }

    #[test]
    fn selection_is_acyclic_by_construction() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let ab = eg.add(Node::new(Op::Add, vec![a, b]));
        let r = eg.add(Node::new(Op::Mul, vec![ab, ab]));
        let cm = CostModel::paper();
        let sel = extract_greedy(&eg, &[r], &cm);
        // reachable() panics on cycles; this must not panic
        let order = sel.reachable(&eg, &[r]);
        assert_eq!(order.len(), 4);
    }
}
