//! The e-graph: hash-consed e-nodes grouped into e-classes with deferred
//! congruence restoration (the "rebuilding" algorithm of egg).
//!
//! E-nodes live once, as interned [`Form`]s in the [`Arena`]; classes,
//! parent lists and the memo hold the `u32` form numbers. DESIGN.md's
//! "E-graph memory layout" chapter has the layout and the argument that
//! it leaves every id and every order of the value-typed storage intact.

use crate::analysis::{eval_node, merge_const, ConstValue};
use crate::arena::{Arena, Form};
use crate::dense::{ClassSet, Visited};
use crate::list::{List, Parent};
use crate::node::{Id, Node, NodeRef, Op};
use crate::unionfind::UnionFind;
use std::borrow::Cow;

/// An e-class: a set of equal e-nodes plus analysis data and parent
/// back-references used by congruence restoration. Nodes are [`Form`]s of
/// the owning graph's arena — read them through [`EGraph::nodes`]. Both
/// lists read through the owning graph's pools (see `List`).
#[derive(Debug, Clone, Default)]
pub struct EClass {
    /// E-nodes in this class (children canonical as of the last rebuild).
    pub(crate) nodes: List<Form>,
    /// (parent node, parent class) pairs for congruence repair. The form
    /// is the one current when the entry was made and never changes under
    /// it; one entry per child occurrence.
    pub(crate) parents: List<Parent>,
    /// Constant-folding analysis data: `Some` if every term in this class
    /// evaluates to this compile-time constant.
    pub(crate) constant: Option<ConstValue>,
}

/// "No class": the memo's marker for a form that is not a memo key.
pub(crate) const NO_CLASS: Id = Id(u32::MAX);

/// Buffers the mutating operations reuse so that the steady state of a
/// saturation run allocates for new e-nodes only. Never part of the
/// graph's state: not serialized, not compared, and a clone starts with
/// empty ones.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Canonical children of the node being added or re-canonicalized.
    children: Vec<Id>,
    /// Operand stack of [`EGraph::add_with`]'s callers (rule instantiation).
    stack: Vec<Id>,
    /// Class-indexed marks: `process_dirty`'s batch, `compact_op_index`.
    ids: Visited,
    /// Form-indexed marks of `repair`'s two dedupe passes …
    forms: Visited,
    /// … and, for a marked parent form, its index in the rebuilt list.
    form_slot: Vec<u32>,
}

/// The canonical ids of `children`, in the scratch buffer — which the
/// caller puts back in `scratch.children` when done with it.
fn canonical_ids(uf: &mut UnionFind, children: &[Id], scratch: &mut Scratch) -> Vec<Id> {
    let mut kids = std::mem::take(&mut scratch.children);
    kids.clear();
    kids.extend(children.iter().map(|&c| uf.find_mut(c)));
    kids
}

impl Clone for Scratch {
    fn clone(&self) -> Scratch {
        Scratch::default()
    }
}

/// The e-graph.
#[derive(Debug, Clone, Default)]
pub struct EGraph {
    // Fields are `pub(crate)` (not `pub`) so the serializer in
    // `crate::serialize` can dump and restore the exact internal state —
    // external code still goes through the method API.
    pub(crate) unionfind: UnionFind,
    /// Every e-node form ever seen, interned.
    pub(crate) arena: Arena,
    /// Canonical-node → class memo (hash-consing), indexed by form:
    /// [`NO_CLASS`] where the form is not a key. As long as the arena.
    pub(crate) memo: Vec<Id>,
    /// Number of memo keys.
    pub(crate) memo_len: usize,
    /// Class storage, indexed by canonical id; `None` after being merged away.
    pub(crate) classes: Vec<Option<EClass>>,
    /// The pools a restored graph's lists of two or more items are runs
    /// of, until a list changes: class nodes, parents lists, op-index
    /// entries (see `List`). Empty in a graph built by `add`.
    pub(crate) node_pool: Vec<Form>,
    pub(crate) parent_pool: Vec<Parent>,
    pub(crate) class_pool: Vec<Id>,
    /// Number of `Some` slots in `classes`.
    pub(crate) live_classes: usize,
    /// Classes whose parents must be reprocessed by `rebuild`.
    pub(crate) dirty: Vec<Id>,
    /// Op number → classes containing an e-node with that head operator.
    /// Maintained incrementally by `add`; entries may go stale after unions
    /// and are compacted by `rebuild`, so with nothing dirty every list
    /// holds live canonical ids, each once.
    pub(crate) op_index: Vec<List<Id>>,
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
    pub(crate) scratch: Scratch,
}

impl EGraph {
    /// New empty e-graph with constant folding enabled.
    pub fn new() -> EGraph {
        EGraph { fold_constants: true, ..Default::default() }
    }

    /// [`EGraph::new`] sized for `nodes` e-nodes: until it holds that many,
    /// an `add` grows no table — no rehash of the arena's, no reallocation
    /// of the memo, the union-find, the class slots or the work lists.
    pub fn with_capacity(nodes: usize) -> EGraph {
        EGraph {
            unionfind: UnionFind { parents: Vec::with_capacity(nodes) },
            arena: Arena::with_capacity(nodes, nodes, 2 * nodes),
            memo: Vec::with_capacity(nodes),
            classes: Vec::with_capacity(nodes),
            op_index: Vec::with_capacity(nodes),
            search_dirty: Vec::with_capacity(nodes),
            ..EGraph::new()
        }
    }

    /// New e-graph with constant folding disabled.
    pub fn without_constant_folding() -> EGraph {
        EGraph { fold_constants: false, ..Default::default() }
    }

    /// Number of live e-classes.
    pub fn num_classes(&self) -> usize {
        self.live_classes
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

    /// Canonical id of `id`.
    pub fn find(&self, id: Id) -> Id {
        self.unionfind.find(id)
    }

    /// Are `a` and `b` known equal?
    pub fn same(&self, a: Id, b: Id) -> bool {
        self.unionfind.same(a, b)
    }

    /// Borrow an e-class by (any) id.
    pub(crate) fn class(&self, id: Id) -> &EClass {
        let id = self.find(id);
        self.classes[id.index()].as_ref().expect("canonical class must exist")
    }

    /// Iterate over `(canonical id, class)` pairs.
    pub fn classes(&self) -> impl Iterator<Item = (Id, &EClass)> {
        self.classes.iter().enumerate().filter_map(|(i, c)| c.as_ref().map(|c| (Id::from(i), c)))
    }

    /// The e-node a form of this graph stands for.
    pub fn node(&self, form: Form) -> NodeRef<'_> {
        self.arena.node(form)
    }

    /// The e-nodes of the class of (any) `id`, in stored order.
    pub fn nodes(&self, id: Id) -> impl ExactSizeIterator<Item = NodeRef<'_>> + Clone {
        self.class(id).nodes.as_slice(&self.node_pool).iter().map(|&f| self.arena.node(f))
    }

    /// The constant value of a class, if the analysis proved one.
    pub(crate) fn constant(&self, id: Id) -> Option<ConstValue> {
        self.class(id).constant
    }

    /// Canonical ids of the live classes containing an e-node whose head
    /// operator is `op`, each once — the compiled matcher's candidate
    /// lookup. On a rebuilt graph this is a slice of the index
    /// [`EGraph::rebuild`] compacts; with unions pending (a kernel fresh
    /// from SSA construction, whose constant folding merged classes) the
    /// stale entries are resolved through `find` and deduplicated into an
    /// owned list, in the same order.
    pub fn classes_with_op(&self, op: &Op) -> Cow<'_, [Id]> {
        match self.arena.op_number(op) {
            Some(op_no) => self.classes_with_op_no(op_no),
            None => Cow::Borrowed(&[]),
        }
    }

    /// The op index's entry for op number `op_no`, as stored.
    pub(crate) fn op_index_entry(&self, op_no: usize) -> &[Id] {
        self.op_index.get(op_no).map_or(&[], |ids| ids.as_slice(&self.class_pool))
    }

    /// [`EGraph::classes_with_op`] for an operator known by op number.
    pub(crate) fn classes_with_op_no(&self, op_no: u32) -> Cow<'_, [Id]> {
        let ids = self.op_index_entry(op_no as usize);
        if self.dirty.is_empty() {
            return Cow::Borrowed(ids);
        }
        let mut seen = ClassSet::with_bound(self.id_bound());
        Cow::Owned(ids.iter().map(|&id| self.find(id)).filter(|&id| seen.insert(id)).collect())
    }

    /// Take the set of classes touched since the previous call, closed
    /// transitively over parent classes: any class that could root a *new*
    /// pattern match (new e-node, union changing a non-linear equality, or
    /// a match reaching a changed class through any chain of children) is in
    /// the returned set. Ids are canonical; dead classes are dropped.
    pub(crate) fn take_search_dirty(&mut self) -> ClassSet {
        let mut set = ClassSet::with_bound(self.id_bound());
        let mut stack = std::mem::take(&mut self.search_dirty);
        stack.retain_mut(|id| {
            *id = self.unionfind.find(*id);
            self.classes[id.index()].is_some()
        });
        while let Some(id) = stack.pop() {
            if !set.insert(id) {
                continue;
            }
            let class = self.classes[id.index()].as_ref().expect("live class");
            for &(_, parent) in class.parents.as_slice(&self.parent_pool) {
                let parent = self.find(parent);
                if self.classes[parent.index()].is_some() && !set.contains(parent) {
                    stack.push(parent);
                }
            }
        }
        stack.clear();
        self.search_dirty = stack;
        set
    }

    /// Discard accumulated search-dirty marks (used before a full search,
    /// which covers everything anyway).
    pub(crate) fn clear_search_dirty(&mut self) {
        self.search_dirty.clear();
    }

    /// Intern, keeping the memo as long as the arena.
    fn intern(&mut self, op_no: u32, children: &[Id]) -> Form {
        let form = self.arena.intern_numbered(op_no, children);
        if self.memo.len() < self.arena.len() {
            self.memo.resize(self.arena.len(), NO_CLASS);
        }
        form
    }

    fn memo_set(&mut self, form: Form, id: Id) {
        let slot = &mut self.memo[form.index()];
        self.memo_len += usize::from(*slot == NO_CLASS);
        *slot = id;
    }

    fn memo_remove(&mut self, form: Form) -> Id {
        let id = std::mem::replace(&mut self.memo[form.index()], NO_CLASS);
        self.memo_len -= usize::from(id != NO_CLASS);
        id
    }

    /// The form of `form`'s operator over the canonical ids of its
    /// children — `form` itself when they already are.
    fn canonical_form(&mut self, form: Form) -> Form {
        if self.arena.children(form).iter().all(|&c| self.unionfind.is_root(c)) {
            return form;
        }
        let kids = canonical_ids(&mut self.unionfind, self.arena.children(form), &mut self.scratch);
        let canon = self.intern(self.arena.op_no(form), &kids);
        self.scratch.children = kids;
        canon
    }

    /// Add a node, returning its e-class (existing or fresh).
    pub fn add(&mut self, node: Node) -> Id {
        self.add_with(&node.op, &node.children)
    }

    /// [`EGraph::add`] from borrowed parts: nothing is allocated when the
    /// node already exists.
    pub fn add_with(&mut self, op: &Op, children: &[Id]) -> Id {
        let kids = canonical_ids(&mut self.unionfind, children, &mut self.scratch);
        let op_no = self.arena.intern_op(op);
        let form = self.intern(op_no, &kids);
        let id = match self.memo[form.index()] {
            NO_CLASS => self.add_class(op_no, form, &kids, self.fold(form)),
            id => self.unionfind.find_mut(id),
        };
        self.scratch.children = kids;
        id
    }

    /// [`EGraph::add_with`] followed by `union(class, _)`: the rule
    /// applier's one call per match. Returns what that union returns — the
    /// canonical id and whether anything changed — and leaves the graph in
    /// exactly the state the two calls would.
    ///
    /// A new form whose constant does not fold goes straight into `class`
    /// without the one-node class the two calls would build and merge
    /// away. That is the same union: a fresh class has no parents (its
    /// children exist before it does), so `union` keeps `class` as the
    /// root whatever `class` holds, appends the one form to its nodes and
    /// nothing to its parents, and leaves its constant as it was.
    pub fn add_into(&mut self, op: &Op, children: &[Id], class: Id) -> (Id, bool) {
        let kids = canonical_ids(&mut self.unionfind, children, &mut self.scratch);
        let op_no = self.arena.intern_op(op);
        let form = self.intern(op_no, &kids);
        let id = match self.memo[form.index()] {
            NO_CLASS => match self.fold(form) {
                None => {
                    let root = self.unionfind.find_mut(class);
                    let id = self.unionfind.make_set();
                    debug_assert_eq!(id.index(), self.classes.len());
                    self.classes.push(None);
                    self.register_node(op_no, form, &kids, id);
                    self.scratch.children = kids;
                    self.unionfind.union(root, id);
                    let cls = self.classes[root.index()].as_mut().expect("matched class");
                    cls.nodes.push(form, &self.node_pool);
                    self.dirty.push(root);
                    self.search_dirty.push(root);
                    return (root, true);
                }
                constant => self.add_class(op_no, form, &kids, constant),
            },
            id => self.unionfind.find_mut(id),
        };
        self.scratch.children = kids;
        self.union(class, id)
    }

    /// The constant `form` folds to, when folding is on.
    fn fold(&self, form: Form) -> Option<ConstValue> {
        if self.fold_constants {
            eval_node(self.arena.node(form), |c| self.constant(c))
        } else {
            None
        }
    }

    /// A fresh class for the new canonical node `form`, whose folded
    /// constant the caller has evaluated.
    fn add_class(
        &mut self,
        op_no: u32,
        form: Form,
        children: &[Id],
        constant: Option<ConstValue>,
    ) -> Id {
        let id = self.unionfind.make_set();
        debug_assert_eq!(id.index(), self.classes.len());
        self.classes.push(Some(EClass {
            nodes: List::one(form),
            parents: List::default(),
            constant,
        }));
        self.live_classes += 1;
        self.register_node(op_no, form, children, id);
        // analysis `modify`: materialize proven constants as leaf nodes so
        // extraction can pick them at zero cost
        if let Some(c) = constant {
            self.add_constant_leaf(id, c);
        }
        id
    }

    /// Book the new node `form` under the fresh id `id`: node count, op
    /// index, search-dirty mark, its children's parents lists and the memo.
    fn register_node(&mut self, op_no: u32, form: Form, children: &[Id], id: Id) {
        self.num_nodes += 1;
        self.index_op(op_no, id);
        self.search_dirty.push(id);
        for &child in children {
            let child = self.classes[child.index()].as_mut().expect("child class");
            child.parents.push((form, id), &self.parent_pool);
        }
        self.memo_set(form, id);
    }

    fn index_op(&mut self, op_no: u32, id: Id) {
        if self.op_index.len() <= op_no as usize {
            self.op_index.resize_with(op_no as usize + 1, List::default);
        }
        self.op_index[op_no as usize].push(id, &self.class_pool);
    }

    fn add_constant_leaf(&mut self, id: Id, c: ConstValue) {
        let leaf = match c {
            ConstValue::Int(v) => Op::Int(v),
            ConstValue::Float(v) => Op::float(v),
        };
        let op_no = self.arena.intern_op(&leaf);
        let form = self.intern(op_no, &[]);
        match self.memo[form.index()] {
            NO_CLASS => {
                let cls = self.unionfind.find_mut(id);
                self.memo_set(form, cls);
                self.index_op(op_no, cls);
                let class = self.classes[cls.index()].as_mut().expect("canonical class");
                class.nodes.push(form, &self.node_pool);
                self.num_nodes += 1;
                self.search_dirty.push(cls);
            }
            leaf_id => {
                self.union(id, leaf_id);
            }
        }
    }

    /// Lend out the operand stack rule instantiation builds children on
    /// (so applying a match allocates nothing); give it back with
    /// [`EGraph::return_stack`].
    pub(crate) fn take_stack(&mut self) -> Vec<Id> {
        std::mem::take(&mut self.scratch.stack)
    }

    /// Return the buffer lent by [`EGraph::take_stack`].
    pub(crate) fn return_stack(&mut self, stack: Vec<Id>) {
        self.scratch.stack = stack;
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
        self.live_classes -= 1;
        let to_class = self.classes[to.index()].as_mut().expect("to class");
        let (nodes, parents) = (&self.node_pool, &self.parent_pool);
        to_class.nodes.extend_from_slice(from_class.nodes.as_slice(nodes), nodes);
        to_class.parents.extend_from_slice(from_class.parents.as_slice(parents), parents);
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
            let mut stale: Vec<Form> = (0..self.arena.len())
                .map(Form::from_index)
                .filter(|&f| {
                    self.memo[f.index()] != NO_CLASS
                        && self.arena.children(f).iter().any(|&c| !self.unionfind.is_root(c))
                })
                .collect();
            if stale.is_empty() {
                break;
            }
            // Sweep in node-content order, never form-number order: form
            // numbers record interning history, which differs between a
            // graph built live and the same graph restored from a
            // serialized snapshot. Sorting by content makes every
            // downstream union (and thus root choice) a function of graph
            // *content* only, so a deserialized e-graph re-saturates
            // byte-identically.
            stale.sort_unstable_by(|&a, &b| self.arena.node(a).cmp(&self.arena.node(b)));
            for old in stale {
                let id = self.memo_remove(old);
                debug_assert!(id != NO_CLASS, "stale key present");
                let canon = self.canonical_form(old);
                let id = self.unionfind.find_mut(id);
                match self.memo[canon.index()] {
                    NO_CLASS => self.memo_set(canon, id),
                    other => {
                        let other = self.unionfind.find_mut(other);
                        if other != id {
                            let (merged, _) = self.union(other, id);
                            self.memo_set(canon, merged);
                        }
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
        let seen = &mut self.scratch.ids;
        seen.grow(self.classes.len());
        for ids in &mut self.op_index {
            seen.clear();
            ids.unpool(&self.class_pool);
            ids.retain_mut(|id| {
                *id = self.unionfind.find(*id);
                self.classes[id.index()].is_some() && seen.insert(id.index())
            });
        }
    }

    fn process_dirty(&mut self) {
        let mut batch = Vec::new();
        while !self.dirty.is_empty() {
            // drain the worklist in deduplicated batches: a class unioned
            // several times since the last pass is repaired once, not once
            // per union (its parents list would be reprocessed in full each
            // time otherwise)
            std::mem::swap(&mut batch, &mut self.dirty);
            self.scratch.ids.grow(self.classes.len());
            self.scratch.ids.clear();
            for dirty_id in batch.drain(..) {
                let id = self.unionfind.find_mut(dirty_id);
                if self.scratch.ids.insert(id.index()) {
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

    /// Start a dedupe pass over forms: clear the marks and make room for
    /// every form interned so far.
    fn begin_form_pass(&mut self) {
        self.scratch.forms.clear();
        self.grow_form_marks();
    }

    /// Forms interned during a pass need marks too.
    fn grow_form_marks(&mut self) {
        let n = self.arena.len();
        self.scratch.forms.grow(n);
        if self.scratch.form_slot.len() < n {
            self.scratch.form_slot.resize(n, 0);
        }
    }

    /// Re-canonicalize one dirty class's parents, restoring hash-cons and
    /// congruence invariants for them (the egg `repair`).
    fn repair(&mut self, id: Id) {
        let id = self.unionfind.find_mut(id);
        if self.classes[id.index()].is_none() {
            return;
        }
        // Rebuilt in place, reading ahead of the write cursor `kept`:
        // congruent parents are merged, and duplicate entries (the same
        // parent reached through several merged children) collapse to one
        // — parents lists stay proportional to distinct parent nodes
        // instead of growing with every union that touches the class. The
        // marks map a canonical form to its index among the kept entries.
        let cls = self.classes[id.index()].as_mut().expect("dirty class");
        let mut parents = cls.parents.take(&self.parent_pool);
        self.begin_form_pass();
        let mut kept = 0usize;
        for read in 0..parents.len() {
            let (form, parent_id) = parents[read];
            // remove the stale memo entry, re-canonicalize, re-insert
            self.memo_remove(form);
            let canon = self.canonical_form(form);
            self.grow_form_marks();
            let mut parent_id = self.unionfind.find_mut(parent_id);
            if self.scratch.forms.contains(canon.index()) {
                // congruence (or duplicate entry): same canonical form
                let ix = self.scratch.form_slot[canon.index()] as usize;
                let prev = self.unionfind.find_mut(parents[ix].1);
                if prev != parent_id {
                    parent_id = self.union(prev, parent_id).0;
                }
                parents[ix].1 = parent_id;
            } else {
                match self.memo[canon.index()] {
                    NO_CLASS => {}
                    existing => {
                        let existing = self.unionfind.find_mut(existing);
                        if existing != parent_id {
                            parent_id = self.union(existing, parent_id).0;
                        }
                    }
                }
                self.scratch.forms.insert(canon.index());
                self.scratch.form_slot[canon.index()] = kept as u32;
                parents[kept] = (canon, parent_id);
                kept += 1;
            }
            self.memo_set(canon, parent_id);
        }
        parents.truncate(kept);
        // the unions above may have moved parents into this class (or
        // merged it away): the rebuilt list goes after whatever arrived
        let id = self.unionfind.find_mut(id);
        let cls = self.classes[id.index()].as_mut().expect("canonical class");
        if cls.parents.len() == 0 {
            cls.parents = List::Heap(parents);
        } else {
            cls.parents.extend_from_slice(&parents, &self.parent_pool);
        }
        // refresh stored nodes to canonical form and dedupe
        let mut nodes = std::mem::take(&mut cls.nodes);
        nodes.unpool(&self.node_pool);
        self.begin_form_pass();
        nodes.retain_mut(|form| {
            *form = self.canonical_form(*form);
            self.grow_form_marks();
            self.scratch.forms.insert(form.index())
        });
        self.classes[id.index()].as_mut().expect("canonical class").nodes = nodes;
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
            // phase 1: scan immutably — `constant()` resolves children
            // through `find`, so the stored (possibly stale-child) node
            // forms evaluate correctly as they are
            let mut proven: Vec<(Id, ConstValue)> = Vec::new();
            for (id, class) in self.classes() {
                if class.constant.is_some() {
                    continue;
                }
                for &f in class.nodes.as_slice(&self.node_pool) {
                    if let Some(v) = eval_node(self.arena.node(f), |c| self.constant(c)) {
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

    /// Check the congruence + hashcons invariants of a rebuilt graph,
    /// panicking on the first violation (test helper; O(nodes)).
    pub fn check_invariants(&self) {
        if let Err(what) = self.invariants() {
            panic!("{what}");
        }
    }

    /// The first violated structural invariant, if any — what
    /// [`EGraph::check_invariants`] asserts and what the snapshot reader
    /// requires before it hands a graph out, stated once. Assumes ids and
    /// form numbers are in range and the union-find is a forest (true of
    /// any graph built through the API; the reader checks both as it
    /// reads). With unions pending, memo keys may be stale and the op
    /// index uncompacted; once nothing is dirty they may not, because the
    /// matcher then reads the index as it is.
    pub(crate) fn invariants(&self) -> Result<(), String> {
        let clean = self.dirty.is_empty();
        let check = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_string()) };
        check(self.classes.len() == self.unionfind.len(), "one class slot per id")?;
        check(self.memo.len() == self.arena.len(), "memo covers the arena")?;

        // a class is stored exactly at the ids that are their own root, so
        // every id (a node's child, a memo value) resolves to a live class
        let mut live = 0;
        for (i, slot) in self.classes.iter().enumerate() {
            let id = Id::from(i);
            if slot.is_some() != self.unionfind.is_root(id) {
                return Err(format!("{id}: live classes and union-find roots differ"));
            }
            if slot.as_ref().is_some_and(|c| c.nodes.len() == 0) {
                return Err(format!("class {id} has no node"));
            }
            live += usize::from(slot.is_some());
        }
        check(self.live_classes == live, "live-class counter")?;
        let mut keys = 0;
        for (f, &id) in self.memo.iter().enumerate() {
            if id == NO_CLASS {
                continue;
            }
            keys += 1;
            let node = self.arena.node(Form::from_index(f));
            if clean && node.children.iter().any(|&c| !self.unionfind.is_root(c)) {
                return Err(format!("memo key must be canonical: {node}"));
            }
        }
        check(self.memo_len == keys, "memo-key counter")?;

        // The op index must list every class under each of its nodes'
        // operators. Bucket the operators it lists by class (a counting
        // sort: walked in op order, each bucket comes out ascending) and
        // look each node's operator up in its class's bucket by binary
        // search — a scan per node would make reading a class of N
        // distinct leaves O(N²).
        let listed_ids = || (0..self.op_index.len()).map(|op_no| self.op_index_entry(op_no));
        check(
            !clean || listed_ids().flatten().all(|&id| self.unionfind.is_root(id)),
            "merged id in the op index of a clean graph",
        )?;
        let mut end = vec![0u32; self.classes.len() + 1];
        for &id in listed_ids().flatten() {
            end[self.find(id).index() + 1] += 1;
        }
        for c in 1..end.len() {
            end[c] += end[c - 1];
        }
        let mut listed = vec![0u32; end[self.classes.len()] as usize];
        for (op_no, ids) in listed_ids().enumerate() {
            for &id in ids {
                let at = &mut end[self.find(id).index()];
                listed[*at as usize] = op_no as u32;
                *at += 1;
            }
        }
        // now class `c`'s operators are `listed[end[c - 1]..end[c]]`
        let ops_of =
            |c: usize| &listed[if c == 0 { 0 } else { end[c - 1] as usize }..end[c] as usize];
        check(
            !clean || (0..self.classes.len()).all(|c| ops_of(c).windows(2).all(|w| w[0] != w[1])),
            "class listed twice in the op index of a clean graph",
        )?;
        for (id, cls) in self.classes() {
            let ops = ops_of(id.index());
            for &f in cls.nodes.as_slice(&self.node_pool) {
                if ops.binary_search(&self.arena.op_no(f)).is_err() {
                    return Err(format!("op index misses {id} under {:?}", self.arena.op(f)));
                }
            }
        }
        Ok(())
    }

    /// Extract *some* concrete term from a class (smallest by node count),
    /// used in tests and debugging. Panics on cyclic-only classes.
    pub fn term_string(&self, id: Id) -> String {
        fn go(eg: &EGraph, id: Id, depth: usize) -> String {
            if depth > 64 {
                return "…".into();
            }
            // prefer leaves for brevity
            let node =
                eg.nodes(id).min_by_key(|n| n.children.len()).expect("class has at least one node");
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
        let classes = eg.num_classes();
        let relooked = eg.add(Node::new(Op::Mul, vec![a2, b2]));
        assert_eq!(eg.num_classes(), classes, "the congruent node is already there");
        assert!(eg.same(m, relooked));
    }

    #[test]
    fn add_into_puts_a_new_form_straight_into_the_class() {
        let mut eg = EGraph::new();
        let a = leaf(&mut eg, "a");
        let b = leaf(&mut eg, "b");
        let ab = eg.add(Node::new(Op::Add, vec![a, b]));
        let classes = eg.num_classes();
        assert_eq!(eg.add_into(&Op::Add, &[b, a], ab), (ab, true));
        assert_eq!(eg.num_classes(), classes, "no class survives the fused add");
        assert_eq!(eg.nodes(ab).len(), 2);
        // an existing form is a plain union, here a no-op
        assert_eq!(eg.add_into(&Op::Add, &[a, b], ab), (ab, false));
        eg.rebuild();
        eg.check_invariants();
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
        assert_eq!(eg.classes_with_op(&Op::Add)[..], [s]);
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
        assert!(initial.contains(eg.find(root)));
        assert!(eg.take_search_dirty().is_empty());
        // a union deep in the graph must dirty every ancestor
        let c = leaf(&mut eg, "c");
        eg.union(a, c);
        eg.rebuild();
        let dirty = eg.take_search_dirty();
        assert!(dirty.contains(eg.find(a)));
        assert!(dirty.contains(eg.find(m)), "parent of merged class is dirty");
        assert!(dirty.contains(eg.find(root)), "grandparent is dirty");
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
