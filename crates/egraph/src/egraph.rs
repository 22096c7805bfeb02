//! The e-graph: hash-consed e-nodes grouped into e-classes with deferred
//! congruence restoration (the "rebuilding" algorithm of egg).

use crate::analysis::{eval_node, merge_const, ConstValue};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::node::{Id, Node, Op};
use crate::unionfind::UnionFind;

/// An e-class: a set of equal e-nodes plus analysis data and parent
/// back-references used by congruence restoration.
#[derive(Debug, Clone, Default)]
pub struct EClass {
    /// E-nodes in this class (children canonical as of the last rebuild).
    pub nodes: Vec<Node>,
    /// (parent node, parent class) pairs for congruence repair.
    pub parents: Vec<(Node, Id)>,
    /// Constant-folding analysis data: `Some` if every term in this class
    /// evaluates to this compile-time constant.
    pub constant: Option<ConstValue>,
}

/// The e-graph.
#[derive(Debug, Clone, Default)]
pub struct EGraph {
    // Fields are `pub(crate)` (not `pub`) so the serializer in
    // `crate::serialize` can dump and restore the exact internal state —
    // external code still goes through the method API.
    pub(crate) unionfind: UnionFind,
    /// Canonical-node → class memo (hash-consing).
    pub(crate) memo: FxHashMap<Node, Id>,
    /// Class storage, indexed by canonical id; `None` after being merged away.
    pub(crate) classes: Vec<Option<EClass>>,
    /// Classes whose parents must be reprocessed by `rebuild`.
    pub(crate) dirty: Vec<Id>,
    /// Operator → classes containing an e-node with that head operator.
    /// Maintained incrementally by `add`; entries may go stale after unions
    /// (resolved through `find` on query) and are compacted by `rebuild`.
    pub(crate) op_index: FxHashMap<Op, Vec<Id>>,
    /// Classes touched since the last [`EGraph::take_search_dirty`]: newly
    /// created, target of a union, or given a materialized constant leaf.
    /// The saturation runner uses this (closed over parents) to re-search
    /// only the part of the graph that can hold new matches.
    pub(crate) search_dirty: Vec<Id>,
    /// Total number of e-nodes ever added (the paper's 10 000-node budget is
    /// measured against this).
    pub(crate) num_nodes: usize,
    /// Whether constant folding is enabled (on by default; the plain `CSE`
    /// variant of the paper also folds nothing because it runs no rules and
    /// no analysis-driven unions happen without `fold_constants`).
    pub fold_constants: bool,
}

impl EGraph {
    /// New empty e-graph with constant folding enabled.
    pub fn new() -> EGraph {
        EGraph { fold_constants: true, ..Default::default() }
    }

    /// New e-graph with constant folding disabled.
    pub fn without_constant_folding() -> EGraph {
        EGraph { fold_constants: false, ..Default::default() }
    }

    /// Number of live e-classes.
    pub fn num_classes(&self) -> usize {
        self.classes.iter().filter(|c| c.is_some()).count()
    }

    /// Number of ids ever created: every [`Id`] of this e-graph, canonical
    /// or not, has an index below it — the size of a class-indexed table.
    pub fn id_bound(&self) -> usize {
        self.unionfind.len()
    }

    /// Total number of e-nodes ever added (monotone; the saturation budget).
    pub fn total_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of distinct canonical e-nodes currently in the memo.
    pub fn num_memo_nodes(&self) -> usize {
        self.memo.len()
    }

    /// Canonical id of `id`.
    pub fn find(&self, id: Id) -> Id {
        self.unionfind.find(id)
    }

    /// Are `a` and `b` known equal?
    pub fn same(&self, a: Id, b: Id) -> bool {
        self.unionfind.same(a, b)
    }

    /// Borrow an e-class by (any) id.
    pub fn class(&self, id: Id) -> &EClass {
        let id = self.find(id);
        self.classes[id.index()].as_ref().expect("canonical class must exist")
    }

    /// Iterate over `(canonical id, class)` pairs.
    pub fn classes(&self) -> impl Iterator<Item = (Id, &EClass)> {
        self.classes.iter().enumerate().filter_map(|(i, c)| c.as_ref().map(|c| (Id::from(i), c)))
    }

    /// The constant value of a class, if the analysis proved one.
    pub fn constant(&self, id: Id) -> Option<ConstValue> {
        self.class(id).constant
    }

    /// Canonical ids of the live classes containing an e-node whose head
    /// operator is `op` — the compiled matcher's candidate lookup. Stale
    /// index entries are resolved through `find` and deduplicated.
    pub fn classes_with_op(&self, op: &Op) -> Vec<Id> {
        let Some(ids) = self.op_index.get(op) else {
            return Vec::new();
        };
        let mut seen = FxHashSet::default();
        seen.reserve(ids.len());
        let mut out = Vec::with_capacity(ids.len());
        for &id in ids {
            let id = self.find(id);
            if self.classes[id.index()].is_some() && seen.insert(id) {
                out.push(id);
            }
        }
        out
    }

    /// Take the set of classes touched since the previous call, closed
    /// transitively over parent classes: any class that could root a *new*
    /// pattern match (new e-node, union changing a non-linear equality, or
    /// a match reaching a changed class through any chain of children) is in
    /// the returned set. Ids are canonical; dead classes are dropped.
    pub fn take_search_dirty(&mut self) -> FxHashSet<Id> {
        let raw = std::mem::take(&mut self.search_dirty);
        let mut set = FxHashSet::default();
        set.reserve(raw.len());
        let mut stack: Vec<Id> = Vec::with_capacity(raw.len());
        for id in raw {
            let id = self.find(id);
            if self.classes[id.index()].is_some() {
                stack.push(id);
            }
        }
        while let Some(id) = stack.pop() {
            if !set.insert(id) {
                continue;
            }
            let class = self.classes[id.index()].as_ref().expect("live class");
            for &(_, parent) in &class.parents {
                let parent = self.find(parent);
                if self.classes[parent.index()].is_some() && !set.contains(&parent) {
                    stack.push(parent);
                }
            }
        }
        set
    }

    /// Discard accumulated search-dirty marks (used before a full search,
    /// which covers everything anyway).
    pub fn clear_search_dirty(&mut self) {
        self.search_dirty.clear();
    }

    fn canonicalize(&mut self, node: &Node) -> Node {
        let mut n = node.clone();
        for c in &mut n.children {
            *c = self.unionfind.find_mut(*c);
        }
        n
    }

    /// Look up a node without inserting. Returns the canonical class if the
    /// (canonicalized) node already exists.
    pub fn lookup(&mut self, node: &Node) -> Option<Id> {
        let n = self.canonicalize(node);
        self.memo.get(&n).map(|&id| self.unionfind.find_mut(id))
    }

    /// Add a node, returning its e-class (existing or fresh).
    pub fn add(&mut self, mut node: Node) -> Id {
        // canonicalize in place — `add` owns the node, no clone needed
        for c in &mut node.children {
            *c = self.unionfind.find_mut(*c);
        }
        if let Some(&id) = self.memo.get(&node) {
            return self.unionfind.find_mut(id);
        }
        let id = self.unionfind.make_set();
        debug_assert_eq!(id.index(), self.classes.len());
        let constant =
            if self.fold_constants { eval_node(&node, |c| self.constant(c)) } else { None };
        self.classes.push(Some(EClass {
            nodes: vec![node.clone()],
            parents: Vec::new(),
            constant,
        }));
        self.num_nodes += 1;
        self.op_index.entry(node.op.clone()).or_default().push(id);
        self.search_dirty.push(id);
        for &child in &node.children {
            let child = self.unionfind.find_mut(child);
            self.classes[child.index()]
                .as_mut()
                .expect("child class")
                .parents
                .push((node.clone(), id));
        }
        self.memo.insert(node, id);
        // analysis `modify`: materialize proven constants as leaf nodes so
        // extraction can pick them at zero cost
        if let Some(c) = self.classes[id.index()].as_ref().unwrap().constant {
            self.add_constant_leaf(id, c);
        }
        id
    }

    fn add_constant_leaf(&mut self, id: Id, c: ConstValue) {
        let leaf = match c {
            ConstValue::Int(v) => Node::int(v),
            ConstValue::Float(v) => Node::float(v),
        };
        if self.memo.contains_key(&leaf) {
            let leaf_id = self.memo[&leaf];
            self.union(id, leaf_id);
        } else {
            let cls = self.unionfind.find_mut(id);
            self.memo.insert(leaf.clone(), cls);
            self.op_index.entry(leaf.op.clone()).or_default().push(cls);
            self.classes[cls.index()].as_mut().unwrap().nodes.push(leaf);
            self.num_nodes += 1;
            self.search_dirty.push(cls);
        }
    }

    /// Add a whole term (tree of nodes), returning the root class.
    pub fn add_expr(&mut self, op: Op, children: Vec<Id>) -> Id {
        self.add(Node::new(op, children))
    }

    /// Union two e-classes. Returns the canonical id and whether anything
    /// changed. Congruence is restored lazily by [`EGraph::rebuild`].
    pub fn union(&mut self, a: Id, b: Id) -> (Id, bool) {
        let a = self.unionfind.find_mut(a);
        let b = self.unionfind.find_mut(b);
        if a == b {
            return (a, false);
        }
        // keep the class with more parents as root (fewer parent moves)
        let (to, from) = {
            let pa = self.classes[a.index()].as_ref().unwrap().parents.len();
            let pb = self.classes[b.index()].as_ref().unwrap().parents.len();
            if pa >= pb {
                (a, b)
            } else {
                (b, a)
            }
        };
        self.unionfind.union(to, from);
        let from_class = self.classes[from.index()].take().expect("from class");
        let to_class = self.classes[to.index()].as_mut().expect("to class");
        to_class.nodes.extend(from_class.nodes);
        to_class.parents.extend(from_class.parents);
        let merged = merge_const(to_class.constant, from_class.constant);
        let new_constant_appeared = merged.is_some() && to_class.constant.is_none();
        to_class.constant = merged;
        self.dirty.push(to);
        self.search_dirty.push(to);
        if new_constant_appeared {
            if let Some(c) = merged {
                self.add_constant_leaf(to, c);
            }
        }
        (to, true)
    }

    /// Restore the congruence invariant after unions (egg's deferred
    /// rebuilding). Must be called before e-matching.
    pub fn rebuild(&mut self) {
        // Only unions make memo keys stale, and every union marks a class
        // dirty — a completed rebuild leaves the memo fully canonical, so
        // with nothing dirty there is nothing to repair or sweep.
        if self.dirty.is_empty() {
            return;
        }
        loop {
            self.process_dirty();
            // A congruence node appears in every child's parents list, each
            // holding the node form current when that entry was created. A
            // repair pass re-canonicalizes only the form it holds, so a
            // second child merged later removes a key the first repair
            // already replaced — leaving its half-canonical replacement
            // stranded in the memo. Sweep such keys up to a fixpoint; the
            // collisions this surfaces are congruences, merged like any
            // other.
            let mut stale: Vec<Node> = self
                .memo
                .keys()
                .filter(|n| n.children.iter().any(|&c| self.unionfind.find(c) != c))
                .cloned()
                .collect();
            if stale.is_empty() {
                break;
            }
            // Sweep in node order, not memo-iteration order: hash-map order
            // depends on the map's insertion history, which differs between
            // a graph built live and the same graph restored from a
            // serialized snapshot. Sorting makes every downstream union
            // (and thus root choice) a function of graph *content* only, so
            // a deserialized e-graph re-saturates byte-identically.
            stale.sort_unstable();
            for old in stale {
                let id = self.memo.remove(&old).expect("stale key present");
                let canon = self.canonicalize(&old);
                let id = self.unionfind.find_mut(id);
                match self.memo.get(&canon) {
                    Some(&other) => {
                        let other = self.unionfind.find_mut(other);
                        if other != id {
                            let (merged, _) = self.union(other, id);
                            self.memo.insert(canon, merged);
                        }
                    }
                    None => {
                        self.memo.insert(canon, id);
                    }
                }
            }
            if self.dirty.is_empty() {
                break;
            }
        }
        debug_assert!(self.dirty.is_empty());
        self.compact_op_index();
    }

    /// Drop dead / stale entries from the op → class index so lookup cost
    /// stays proportional to the live graph. Run once per rebuild.
    fn compact_op_index(&mut self) {
        for ids in self.op_index.values_mut() {
            let mut seen = FxHashSet::default();
            seen.reserve(ids.len());
            let mut out = Vec::with_capacity(ids.len());
            for &id in ids.iter() {
                let id = self.unionfind.find(id);
                if self.classes[id.index()].is_some() && seen.insert(id) {
                    out.push(id);
                }
            }
            *ids = out;
        }
    }

    fn process_dirty(&mut self) {
        while !self.dirty.is_empty() {
            // drain the worklist in deduplicated batches: a class unioned
            // several times since the last pass is repaired once, not once
            // per union (its parents list would be reprocessed in full each
            // time otherwise)
            let raw = std::mem::take(&mut self.dirty);
            let mut batch_seen = FxHashSet::default();
            batch_seen.reserve(raw.len());
            for dirty_id in raw {
                let id = self.unionfind.find_mut(dirty_id);
                if batch_seen.insert(id) {
                    self.repair(id);
                }
            }
            if self.dirty.is_empty() {
                // analysis propagation: unions may have given children
                // constant data that now folds their parents (egg's
                // analysis worklist, run to fixpoint)
                self.propagate_constants();
            }
        }
    }

    /// Re-canonicalize one dirty class's parents, restoring hash-cons and
    /// congruence invariants for them (the egg `repair`).
    fn repair(&mut self, id: Id) {
        let id = self.unionfind.find_mut(id);
        if self.classes[id.index()].is_none() {
            return;
        }
        {
            let parents = std::mem::take(
                &mut self.classes[id.index()].as_mut().expect("dirty class").parents,
            );
            // canon form → index into `new_parents`: congruent parents are
            // merged, and duplicate entries (the same parent reached through
            // several merged children) collapse to one — parents lists stay
            // proportional to distinct parent nodes instead of growing with
            // every union that touches the class.
            let mut seen: FxHashMap<Node, usize> = FxHashMap::default();
            seen.reserve(parents.len());
            let mut new_parents: Vec<(Node, Id)> = Vec::with_capacity(parents.len());
            for (node, parent_id) in parents {
                // remove the stale memo entry, re-canonicalize, re-insert
                self.memo.remove(&node);
                let canon = self.canonicalize(&node);
                let mut parent_id = self.unionfind.find_mut(parent_id);
                if let Some(&ix) = seen.get(&canon) {
                    // congruence (or duplicate entry): same canonical form
                    let prev = self.unionfind.find_mut(new_parents[ix].1);
                    if prev != parent_id {
                        let (merged, _) = self.union(prev, parent_id);
                        parent_id = merged;
                    }
                    new_parents[ix].1 = parent_id;
                    self.memo.insert(canon, parent_id);
                } else {
                    match self.memo.get(&canon) {
                        Some(&existing) => {
                            let existing = self.unionfind.find_mut(existing);
                            if existing != parent_id {
                                let (merged, _) = self.union(existing, parent_id);
                                parent_id = merged;
                            }
                            self.memo.insert(canon.clone(), parent_id);
                        }
                        None => {
                            self.memo.insert(canon.clone(), parent_id);
                        }
                    }
                    seen.insert(canon.clone(), new_parents.len());
                    new_parents.push((canon, parent_id));
                }
            }
            let id = self.unionfind.find_mut(id);
            if let Some(cls) = self.classes[id.index()].as_mut() {
                cls.parents.extend(new_parents);
            }
            // refresh stored nodes to canonical form and dedupe
            let id2 = id;
            let nodes = std::mem::take(&mut self.classes[id2.index()].as_mut().unwrap().nodes);
            let mut node_set: FxHashSet<Node> = FxHashSet::default();
            node_set.reserve(nodes.len());
            let mut canon_nodes: Vec<Node> = Vec::with_capacity(nodes.len());
            for n in nodes {
                let c = self.canonicalize(&n);
                if node_set.insert(c.clone()) {
                    canon_nodes.push(c);
                }
            }
            if let Some(cls) = self.classes[id2.index()].as_mut() {
                cls.nodes = canon_nodes;
            }
        }
    }

    /// Re-evaluate constant data for classes whose children gained
    /// constants after unions; materialize newly proven constants (which
    /// may trigger further unions handled by the enclosing rebuild loop).
    fn propagate_constants(&mut self) {
        if !self.fold_constants {
            return;
        }
        let mut changed = true;
        while changed {
            // phase 1: scan immutably — no node clones; `constant()`
            // resolves children through `find`, so the stored (possibly
            // stale-child) node forms evaluate correctly as they are
            let mut proven: Vec<(Id, ConstValue)> = Vec::new();
            for (id, class) in self.classes() {
                if class.constant.is_some() {
                    continue;
                }
                for n in &class.nodes {
                    if let Some(v) = eval_node(n, |c| self.constant(c)) {
                        proven.push((id, v));
                        break;
                    }
                }
            }
            // phase 2: record the new constants and materialize leaves
            // (which may union and re-dirty — handled by the enclosing
            // rebuild loop)
            changed = !proven.is_empty();
            for (id, v) in proven {
                let id = self.unionfind.find_mut(id);
                if let Some(cls) = self.classes[id.index()].as_mut() {
                    if cls.constant.is_none() {
                        cls.constant = Some(v);
                        self.add_constant_leaf(id, v);
                    }
                }
            }
        }
    }

    /// Check the congruence + hashcons invariants (test helper; O(nodes)).
    pub fn check_invariants(&self) {
        for (id, class) in self.classes() {
            for node in &class.nodes {
                for &c in &node.children {
                    assert!(
                        self.classes[self.find(c).index()].is_some(),
                        "child {c} of node in {id} must resolve to a live class"
                    );
                }
            }
        }
        // every memo entry must map a canonical node to its class
        for (node, &id) in &self.memo {
            let canon = node.canonicalized(|c| self.find(c));
            assert_eq!(&canon, node, "memo key must be canonical: {node}");
            assert!(self.classes[self.find(id).index()].is_some(), "memo value {id} must be live");
        }
        // the op index must cover every live e-node's head operator
        for (id, class) in self.classes() {
            for node in &class.nodes {
                assert!(
                    self.classes_with_op(&node.op).contains(&id),
                    "op index must list {id} under {:?}",
                    node.op
                );
            }
        }
    }

    /// Extract *some* concrete term from a class (smallest by node count),
    /// used in tests and debugging. Panics on cyclic-only classes.
    pub fn term_string(&self, id: Id) -> String {
        fn go(eg: &EGraph, id: Id, depth: usize) -> String {
            if depth > 64 {
                return "…".into();
            }
            let class = eg.class(id);
            // prefer leaves for brevity
            let node = class
                .nodes
                .iter()
                .min_by_key(|n| n.children.len())
                .expect("class has at least one node");
            if node.children.is_empty() {
                node.op.name()
            } else {
                let kids: Vec<String> =
                    node.children.iter().map(|&c| go(eg, c, depth + 1)).collect();
                format!("({} {})", node.op.name(), kids.join(" "))
            }
        }
        go(self, id, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(eg: &mut EGraph, name: &str) -> Id {
        eg.add(Node::sym(name))
    }

    #[test]
    fn hashcons_dedupes() {
        let mut eg = EGraph::new();
        let a = leaf(&mut eg, "a");
        let b = leaf(&mut eg, "b");
        let s1 = eg.add(Node::new(Op::Add, vec![a, b]));
        let s2 = eg.add(Node::new(Op::Add, vec![a, b]));
        assert_eq!(s1, s2);
        assert_eq!(eg.num_classes(), 3);
    }

    #[test]
    fn union_merges_classes() {
        let mut eg = EGraph::new();
        let a = leaf(&mut eg, "a");
        let b = leaf(&mut eg, "b");
        assert!(!eg.same(a, b));
        eg.union(a, b);
        eg.rebuild();
        assert!(eg.same(a, b));
        assert_eq!(eg.num_classes(), 1);
    }

    #[test]
    fn congruence_after_rebuild() {
        // f(a), f(b): union(a, b) must make f(a) == f(b) after rebuild
        let mut eg = EGraph::new();
        let a = leaf(&mut eg, "a");
        let b = leaf(&mut eg, "b");
        let fa = eg.add(Node::new(Op::Neg, vec![a]));
        let fb = eg.add(Node::new(Op::Neg, vec![b]));
        assert!(!eg.same(fa, fb));
        eg.union(a, b);
        eg.rebuild();
        assert!(eg.same(fa, fb), "congruence must merge f(a) and f(b)");
        eg.check_invariants();
    }

    #[test]
    fn congruence_cascades() {
        // g(f(a)), g(f(b)): one union at the leaves cascades two levels up
        let mut eg = EGraph::new();
        let a = leaf(&mut eg, "a");
        let b = leaf(&mut eg, "b");
        let fa = eg.add(Node::new(Op::Neg, vec![a]));
        let fb = eg.add(Node::new(Op::Neg, vec![b]));
        let gfa = eg.add(Node::new(Op::Not, vec![fa]));
        let gfb = eg.add(Node::new(Op::Not, vec![fb]));
        eg.union(a, b);
        eg.rebuild();
        assert!(eg.same(gfa, gfb));
        eg.check_invariants();
    }

    #[test]
    fn constant_folding_on_add() {
        let mut eg = EGraph::new();
        let two = eg.add(Node::int(2));
        let three = eg.add(Node::int(3));
        let sum = eg.add(Node::new(Op::Add, vec![two, three]));
        assert_eq!(eg.constant(sum), Some(ConstValue::Int(5)));
        // the class must also contain the literal 5 so extraction is free
        let five = eg.add(Node::int(5));
        assert!(eg.same(sum, five));
    }

    #[test]
    fn float_folding() {
        let mut eg = EGraph::new();
        let half = eg.add(Node::float(0.5));
        let two = eg.add(Node::float(2.0));
        let prod = eg.add(Node::new(Op::Mul, vec![half, two]));
        assert_eq!(eg.constant(prod), Some(ConstValue::Float(1.0)));
    }

    #[test]
    fn no_folding_when_disabled() {
        let mut eg = EGraph::without_constant_folding();
        let two = eg.add(Node::int(2));
        let three = eg.add(Node::int(3));
        let sum = eg.add(Node::new(Op::Add, vec![two, three]));
        assert_eq!(eg.constant(sum), None);
    }

    #[test]
    fn union_propagates_constants() {
        let mut eg = EGraph::new();
        let x = leaf(&mut eg, "x");
        let four = eg.add(Node::int(4));
        // assert x == 4, then x + 1 should fold to 5 via congruence
        let one = eg.add(Node::int(1));
        let xp1 = eg.add(Node::new(Op::Add, vec![x, one]));
        eg.union(x, four);
        eg.rebuild();
        // xp1's class now contains (+ 4 1); adding it again folds
        let again = eg.add(Node::new(Op::Add, vec![x, one]));
        assert!(eg.same(xp1, again));
        eg.check_invariants();
    }

    #[test]
    fn lookup_does_not_insert() {
        let mut eg = EGraph::new();
        let a = leaf(&mut eg, "a");
        let n = Node::new(Op::Neg, vec![a]);
        assert_eq!(eg.lookup(&n), None);
        let id = eg.add(n.clone());
        assert_eq!(eg.lookup(&n), Some(id));
    }

    #[test]
    fn total_nodes_is_monotone() {
        let mut eg = EGraph::new();
        let a = leaf(&mut eg, "a");
        let before = eg.total_nodes();
        let _ = eg.add(Node::new(Op::Neg, vec![a]));
        assert!(eg.total_nodes() > before);
        let same = eg.add(Node::new(Op::Neg, vec![a]));
        let _ = same;
        // re-adding an existing node does not grow the count
        assert_eq!(eg.total_nodes(), before + 1);
    }

    #[test]
    fn term_string_renders() {
        let mut eg = EGraph::new();
        let a = leaf(&mut eg, "a");
        let b = leaf(&mut eg, "b");
        let s = eg.add(Node::new(Op::Mul, vec![a, b]));
        assert_eq!(eg.term_string(s), "(* a b)");
    }

    #[test]
    fn rebuild_purges_half_canonical_memo_keys() {
        // m = (* a b) lives in the parents lists of BOTH a and b, each
        // holding the node form current when the entry was created. Merging
        // b away rewrites m's memo key to (* a b2); merging a away later
        // removes by the original form (* a b), which misses — the
        // intermediate key (* a b2) must be swept by rebuild, not left
        // half-canonical. (Found by proptest seed 0x129038e447bd52ca.)
        let mut eg = EGraph::new();
        let a = leaf(&mut eg, "a");
        let b = leaf(&mut eg, "b");
        let m = eg.add(Node::new(Op::Mul, vec![a, b]));
        let a2 = leaf(&mut eg, "a2");
        let b2 = leaf(&mut eg, "b2");
        // give the replacements parents so they survive as union roots
        eg.add(Node::new(Op::Neg, vec![a2]));
        eg.add(Node::new(Op::Neg, vec![b2]));
        eg.union(b2, b);
        eg.rebuild();
        eg.union(a2, a);
        eg.rebuild();
        eg.check_invariants();
        let relooked = eg.lookup(&Node::new(Op::Mul, vec![a2, b2])).expect("congruent node");
        assert!(eg.same(m, relooked));
    }

    #[test]
    fn op_index_tracks_adds_and_unions() {
        let mut eg = EGraph::new();
        let a = leaf(&mut eg, "a");
        let b = leaf(&mut eg, "b");
        let m1 = eg.add(Node::new(Op::Mul, vec![a, b]));
        let m2 = eg.add(Node::new(Op::Mul, vec![b, a]));
        let s = eg.add(Node::new(Op::Add, vec![a, b]));
        assert_eq!(eg.classes_with_op(&Op::Mul).len(), 2);
        assert_eq!(eg.classes_with_op(&Op::Add), vec![s]);
        assert!(eg.classes_with_op(&Op::Div).is_empty());
        // merging the two Mul classes collapses the index entry
        eg.union(m1, m2);
        eg.rebuild();
        assert_eq!(eg.classes_with_op(&Op::Mul).len(), 1);
        assert_eq!(eg.classes_with_op(&Op::Mul)[0], eg.find(m1));
    }

    #[test]
    fn search_dirty_closes_over_parents() {
        let mut eg = EGraph::new();
        let a = leaf(&mut eg, "a");
        let b = leaf(&mut eg, "b");
        let m = eg.add(Node::new(Op::Mul, vec![a, b]));
        let root = eg.add(Node::new(Op::Add, vec![m, a]));
        // drain construction-time marks
        let initial = eg.take_search_dirty();
        assert!(initial.contains(&eg.find(root)));
        assert!(eg.take_search_dirty().is_empty());
        // a union deep in the graph must dirty every ancestor
        let c = leaf(&mut eg, "c");
        eg.union(a, c);
        eg.rebuild();
        let dirty = eg.take_search_dirty();
        assert!(dirty.contains(&eg.find(a)));
        assert!(dirty.contains(&eg.find(m)), "parent of merged class is dirty");
        assert!(dirty.contains(&eg.find(root)), "grandparent is dirty");
    }

    #[test]
    fn stress_random_unions_hold_invariants() {
        // deterministic pseudo-random unions over a pool of nodes
        let mut eg = EGraph::new();
        let leaves: Vec<Id> = (0..10).map(|i| eg.add(Node::sym(&format!("v{i}")))).collect();
        let mut ids = leaves.clone();
        let mut state = 0x12345678u64;
        let mut rand = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for _ in 0..200 {
            let a = ids[rand() % ids.len()];
            let b = ids[rand() % ids.len()];
            let op = match rand() % 3 {
                0 => Op::Add,
                1 => Op::Mul,
                _ => Op::Sub,
            };
            let id = eg.add(Node::new(op, vec![a, b]));
            ids.push(id);
            if rand() % 4 == 0 {
                let x = ids[rand() % ids.len()];
                let y = ids[rand() % ids.len()];
                eg.union(x, y);
            }
        }
        eg.rebuild();
        eg.check_invariants();
    }
}
