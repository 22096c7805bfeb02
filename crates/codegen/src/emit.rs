//! The code emitter: walks the SSA structure tree, materializing extracted
//! e-graph solutions into C statements with `_vN` temporaries and optional
//! bulk-load scheduling.
//!
//! Everything the emitter knows about an e-class lives in a `Vec` indexed by
//! *slot* (`Tables`): the classes the SSA tree names and everything their
//! chosen nodes reach, numbered in ascending class id. The chosen node is
//! borrowed from the selection, a temporary is its index, an `if`/`for`
//! scope is a mark in an undo log, and bulk load compares index terms
//! without rendering them (`TermOrder`). DESIGN.md, "The kernel text
//! path", has the argument that none of this changes an output byte.

use crate::types::{promote, TypeMap};
use accsat_egraph::{Canonical, FxHashMap, Id, Node, Op, Visited};
use accsat_extract::Selection;
use accsat_ir::ast::ForLoop;
use accsat_ir::{AssignOp, BinOp, Block, Expr, LValue, Stmt, Type, UnOp};
use accsat_ssa::{SsaKernel, SsaNode, Target};
use std::cmp::Ordering;
use std::fmt::Write;

/// Code generation options.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodegenOptions {
    /// Enable bulk load (§VI-B): hoist each load to the earliest point in
    /// its declaration scope where its dependencies are resolved, sorting
    /// simultaneous loads by array and static index.
    pub bulk_load: bool,
}

/// Generate a new kernel body from the SSA tree and the extracted selection.
pub fn generate(kernel: &SsaKernel, sel: &Selection, tm: &TypeMap, opts: &CodegenOptions) -> Block {
    generate_with(kernel, &kernel.egraph, sel, tm, opts)
}

/// [`generate`] with the selection's ids canonicalized by `canon` instead
/// of the kernel's own e-graph. Lowering reads canonical ids and nothing
/// else, so a selection restored from the stage cache lowers through the
/// union-find of its snapshot's head: `kernel` is then the SSA build's,
/// whose tree names the same class ids the snapshot's e-graph was grown
/// from.
pub fn generate_with(
    kernel: &SsaKernel,
    canon: &dyn Canonical,
    sel: &Selection,
    tm: &TypeMap,
    opts: &CodegenOptions,
) -> Block {
    let mut seeds: Vec<Id> = kernel.initial_values.iter().map(|(_, c)| *c).collect();
    named_classes(&kernel.nodes, &mut seeds);
    let t = Tables::new(canon, sel, &seeds);
    let plan = Plan::new(&t, &kernel.nodes);
    let mut em = Emitter::new(&t, &plan, tm, opts.bulk_load);
    // initial availability: parameters/outer values by name; arrays by state
    for (name, class) in &kernel.initial_values {
        let s = t.slot(*class);
        if kernel.array_names.contains(name) {
            let a = em.array_of(name);
            em.set_state(a, s);
        } else {
            em.set_avail(s, Avail::Var(name));
        }
    }
    Block::new(em.emit_block(&kernel.nodes, ROOT))
}

/// Every class the SSA tree names that the emitter looks up: assignment
/// values and stored states, φs, loop entries and havocs.
fn named_classes(nodes: &[SsaNode], out: &mut Vec<Id>) {
    for n in nodes {
        match n {
            SsaNode::Assign { class, state_class, .. } => {
                out.push(*class);
                out.extend(*state_class);
            }
            SsaNode::If { then, els, phis, .. } => {
                out.extend(phis.iter().map(|(_, c)| *c));
                named_classes(then, out);
                named_classes(els, out);
            }
            SsaNode::Loop { body, phis, .. } => {
                out.extend(phis.iter().flat_map(|&(_, entry, phi, _)| [entry, phi]));
                named_classes(body, out);
            }
            SsaNode::Opaque { havocs, .. } => out.extend(havocs.iter().map(|(_, c)| *c)),
            SsaNode::Decl { .. } => {}
        }
    }
}

// ------------------------------------------------------------------ tables

/// An id no slot was given.
const NONE: u32 = u32::MAX;

/// The classes one kernel's code generation can touch, numbered `0..n` in
/// ascending class id, each with the node the selection chose for it and
/// that node's children as slots. Built once per kernel; read-only after.
pub(crate) struct Tables<'a> {
    canon: &'a dyn Canonical,
    /// Slot → canonical class id, ascending.
    class: Vec<Id>,
    /// Class id → slot (`NONE` outside the tables).
    slot_of: Vec<u32>,
    /// Slot → chosen node (`None` when the selection has none).
    node: Vec<Option<&'a Node>>,
    /// The chosen node's children as slots: `kids[start[s]..start[s + 1]]`.
    kids: Vec<usize>,
    start: Vec<usize>,
}

impl<'a> Tables<'a> {
    /// The closure of `seeds` under the selection's chosen children.
    pub(crate) fn new(canon: &'a dyn Canonical, sel: &'a Selection, seeds: &[Id]) -> Tables<'a> {
        let mut slot_of = vec![NONE; canon.id_bound()];
        let mut found: Vec<(Id, Option<&'a Node>)> = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        let mut visit = |id: Id, found: &mut Vec<_>, stack: &mut Vec<_>| {
            let id = canon.find(id);
            if slot_of[id.index()] == NONE {
                slot_of[id.index()] = 0;
                found.push((id, sel.get(canon, id)));
                stack.push(found.len() - 1);
            }
        };
        for &id in seeds {
            visit(id, &mut found, &mut stack);
            while let Some(i) = stack.pop() {
                for &c in found[i].1.map_or(&[][..], |n| &n.children) {
                    visit(c, &mut found, &mut stack);
                }
            }
        }
        found.sort_unstable_by_key(|&(id, _)| id);
        for (s, &(id, _)) in found.iter().enumerate() {
            slot_of[id.index()] = s as u32;
        }
        let (mut kids, mut start) = (Vec::new(), Vec::with_capacity(found.len() + 1));
        start.push(0);
        for &(_, node) in &found {
            let children = node.map_or(&[][..], |n| &n.children);
            kids.extend(children.iter().map(|&c| slot_of[canon.find(c).index()] as usize));
            start.push(kids.len());
        }
        let (class, node) = found.into_iter().unzip();
        Tables { canon, class, slot_of, node, kids, start }
    }

    fn len(&self) -> usize {
        self.class.len()
    }

    /// The slot of a class the SSA tree names.
    fn slot(&self, id: Id) -> usize {
        self.slot_of[self.canon.find(id).index()] as usize
    }

    fn kids(&self, s: usize) -> &[usize] {
        &self.kids[self.start[s]..self.start[s + 1]]
    }

    /// The chosen node of a class that must have one.
    fn node(&self, s: usize) -> &'a Node {
        self.node[s].unwrap_or_else(|| panic!("class {} has no selected node", self.class[s]))
    }
}

// ---------------------------------------------------------------- analysis

/// The root block of the kernel body. Every other block is numbered in the
/// order the analysis walk enters it — `then` before `else`, each `if`
/// giving both even when the `else` is empty — which is also the order the
/// emitter enters them.
const ROOT: usize = 0;

/// The block tree: block → (enclosing block, index of the item holding it).
struct Blocks {
    parent: Vec<usize>,
    item: Vec<usize>,
    depth: Vec<usize>,
}

impl Blocks {
    fn new() -> Blocks {
        Blocks { parent: vec![ROOT], item: vec![0], depth: vec![0] }
    }

    fn child(&mut self, parent: usize, item: usize) -> usize {
        self.parent.push(parent);
        self.item.push(item);
        self.depth.push(self.depth[parent] + 1);
        self.parent.len() - 1
    }

    fn lca(&self, mut a: usize, mut b: usize) -> usize {
        while self.depth[a] > self.depth[b] {
            a = self.parent[a];
        }
        while self.depth[b] > self.depth[a] {
            b = self.parent[b];
        }
        while a != b {
            (a, b) = (self.parent[a], self.parent[b]);
        }
        a
    }

    /// The item of `ancestor` that leads to a use at `(block, item)`.
    fn item_within(&self, mut block: usize, ancestor: usize, item: usize) -> usize {
        if block == ancestor {
            return item;
        }
        while self.parent[block] != ancestor {
            block = self.parent[block];
        }
        self.item[block]
    }

    /// The declaration site covering two uses: their common block, and the
    /// first item in it before which both are computed.
    fn join(&self, (b1, i1): (usize, usize), (b2, i2): (usize, usize)) -> (usize, usize) {
        let lca = self.lca(b1, b2);
        (lca, self.item_within(b1, lca, i1).min(self.item_within(b2, lca, i2)))
    }
}

/// What the analysis walk decides before anything is emitted.
struct Plan {
    /// Reference edges per slot.
    uses: Vec<u32>,
    /// φ values, materialized through their variable names.
    named_phi: Vec<bool>,
    /// Classes that receive a scheduled temporary.
    temp: Vec<bool>,
    /// Scheduled temporaries `(item, slot)` by declaration block, each
    /// block's sorted: block `b` owns `sched[sched_start[b]..sched_start[b + 1]]`.
    sched: Vec<(usize, usize)>,
    sched_start: Vec<usize>,
}

impl Plan {
    fn new(t: &Tables, nodes: &[SsaNode]) -> Plan {
        let n = t.len();
        let mut named_phi = vec![false; n];
        mark_phis(t, nodes, &mut named_phi);
        let mut walk = Walk {
            t,
            named_phi: &named_phi,
            uses: vec![0; n],
            site: vec![None; n],
            seen: Visited::new(n),
            blocks: Blocks::new(),
        };
        walk.walk(nodes, ROOT);

        // temp-worthy classes: multi-use, loads, or calls
        let mut temp = vec![false; n];
        let mut sched = Vec::new();
        for (s, site) in walk.site.iter().enumerate() {
            let (Some((block, item)), Some(node)) = (*site, t.node[s]) else { continue };
            let multi = walk.uses[s] > 1;
            let is_heavy = matches!(node.op, Op::Load | Op::Call(_));
            let leaf = matches!(node.op, Op::Sym(_) | Op::Int(_) | Op::Float(_) | Op::LoopCond(_));
            // leaves are never temped
            if !named_phi[s] && (multi || is_heavy) && !leaf {
                temp[s] = true;
                sched.push((block, item, s));
            }
        }
        // two temps due at the same item are emitted in class order
        sched.sort_unstable();
        let mut sched_start = vec![0; walk.blocks.parent.len() + 1];
        for &(block, _, _) in &sched {
            sched_start[block + 1] += 1;
        }
        for b in 1..sched_start.len() {
            sched_start[b] += sched_start[b - 1];
        }
        let sched = sched.into_iter().map(|(_, item, s)| (item, s)).collect();
        Plan { uses: walk.uses, named_phi, temp, sched, sched_start }
    }
}

fn mark_phis(t: &Tables, nodes: &[SsaNode], out: &mut [bool]) {
    for n in nodes {
        match n {
            SsaNode::If { then, els, phis, .. } => {
                for (_, c) in phis {
                    out[t.slot(*c)] = true;
                }
                mark_phis(t, then, out);
                mark_phis(t, els, out);
            }
            SsaNode::Loop { body, phis, .. } => {
                for (_, entry, phi, _) in phis {
                    out[t.slot(*entry)] = true;
                    out[t.slot(*phi)] = true;
                }
                mark_phis(t, body, out);
            }
            _ => {}
        }
    }
}

struct Walk<'w> {
    t: &'w Tables<'w>,
    named_phi: &'w [bool],
    uses: Vec<u32>,
    /// Declaration site so far: the join of every use site.
    site: Vec<Option<(usize, usize)>>,
    /// Classes whose children this statement already traversed.
    seen: Visited,
    blocks: Blocks,
}

impl Walk<'_> {
    fn walk(&mut self, nodes: &[SsaNode], block: usize) {
        for (i, n) in nodes.iter().enumerate() {
            match n {
                SsaNode::Assign { class, .. } => {
                    self.seen.clear();
                    self.reference(self.t.slot(*class), block, i);
                }
                SsaNode::If { then, els, .. } => {
                    let b = self.blocks.child(block, i);
                    self.walk(then, b);
                    let b = self.blocks.child(block, i);
                    self.walk(els, b);
                }
                SsaNode::Loop { body, .. } => {
                    let b = self.blocks.child(block, i);
                    self.walk(body, b);
                }
                _ => {}
            }
        }
    }

    /// Record a reference edge to `s` from a use at (block, item).
    fn reference(&mut self, s: usize, block: usize, item: usize) {
        self.uses[s] += 1;
        self.site[s] = Some(match self.site[s] {
            None => (block, item),
            Some(site) => self.blocks.join(site, (block, item)),
        });
        if !self.seen.insert(s) {
            return; // children already traversed for this statement
        }
        if self.named_phi[s] {
            return; // φs materialize through their variable, not children
        }
        let Some(node) = self.t.node[s] else { return };
        let kids = self.t.kids(s);
        let kids = match node.op {
            // children[0] is the array state — never materialized
            Op::Load => &kids[1..],
            Op::Store | Op::PhiLoop => &[], // states/φ: no expression children
            _ => kids,
        };
        for &k in kids {
            self.reference(k, block, item);
        }
    }
}

// ---------------------------------------------------------------- emission

/// How the current scope can name a class's value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Avail<'a> {
    No,
    /// The temporary `_v{n}` (stable once declared).
    Temp(u32),
    /// A program variable — invalidated when the variable is reassigned.
    Var(&'a str),
}

/// One overwritten scoped entry, to put back when the scope closes.
enum Undo<'a> {
    Avail(usize, Avail<'a>),
    StateName(usize, Option<usize>),
    Current(usize, Option<usize>),
}

struct Emitter<'a, 't> {
    t: &'t Tables<'a>,
    plan: &'t Plan,
    tm: &'a TypeMap,
    /// Types declared inside the kernel so far, over `tm`.
    local_types: FxHashMap<&'a str, Type>,
    bulk_load: bool,
    /// Uses not yet emitted, per slot.
    remaining: Vec<u32>,
    avail: Vec<Avail<'a>>,
    /// Every slot ever made available through a variable (capture candidates).
    var_avail: Vec<usize>,
    /// State class → the array (index into `arrays`) it is a state of.
    state_name: Vec<Option<usize>>,
    /// Array → its current state class.
    current: Vec<Option<usize>>,
    arrays: Vec<&'a str>,
    array_index: FxHashMap<&'a str, usize>,
    /// Scoped writes to `avail`, `state_name` and `current`; an `if`/`for`
    /// scope is a mark in it, rewound when the scope closes.
    undo: Vec<Undo<'a>>,
    ty: Vec<Option<Type>>,
    temp_counter: u32,
    next_block: usize,
    /// Scheduled temps a flush has consumed.
    taken: Vec<bool>,
    /// The one visited set of every bulk-load readiness check.
    seen: Visited,
    order: TermOrder,
    // scratch lists, reused across flushes and captures
    due: Vec<usize>,
    loads: Vec<(&'a str, usize)>,
    endangered: Vec<(&'a str, usize)>,
}

fn temp_name(n: u32) -> String {
    format!("_v{n}")
}

impl<'a, 't> Emitter<'a, 't> {
    fn new(t: &'t Tables<'a>, plan: &'t Plan, tm: &'a TypeMap, bulk_load: bool) -> Self {
        let n = t.len();
        Emitter {
            t,
            plan,
            tm,
            local_types: FxHashMap::default(),
            bulk_load,
            remaining: plan.uses.clone(),
            avail: vec![Avail::No; n],
            var_avail: Vec::new(),
            state_name: vec![None; n],
            current: Vec::new(),
            arrays: Vec::new(),
            array_index: FxHashMap::default(),
            undo: Vec::new(),
            ty: vec![None; n],
            temp_counter: 0,
            next_block: ROOT + 1,
            taken: vec![false; n],
            seen: Visited::new(n),
            order: TermOrder::default(),
            due: Vec::new(),
            loads: Vec::new(),
            endangered: Vec::new(),
        }
    }

    fn fresh_temp(&mut self) -> u32 {
        self.temp_counter += 1;
        self.temp_counter - 1
    }

    // ------------------------------------------------------------ scoping

    fn set_avail(&mut self, s: usize, v: Avail<'a>) {
        self.undo.push(Undo::Avail(s, self.avail[s]));
        self.avail[s] = v;
        if let Avail::Var(_) = v {
            self.var_avail.push(s);
        }
    }

    /// Array `a`'s current state is now class `s`.
    fn set_state(&mut self, a: usize, s: usize) {
        self.undo.push(Undo::Current(a, self.current[a]));
        self.current[a] = Some(s);
        self.undo.push(Undo::StateName(s, self.state_name[s]));
        self.state_name[s] = Some(a);
    }

    /// Close a scope opened at undo length `mark`.
    fn rewind(&mut self, mark: usize) {
        for undo in self.undo.drain(mark..).rev() {
            match undo {
                Undo::Avail(s, v) => self.avail[s] = v,
                Undo::StateName(s, a) => self.state_name[s] = a,
                Undo::Current(a, s) => self.current[a] = s,
            }
        }
    }

    fn array_of(&mut self, name: &'a str) -> usize {
        *self.array_index.entry(name).or_insert_with(|| {
            self.arrays.push(name);
            self.current.push(None);
            self.arrays.len() - 1
        })
    }

    /// Does `name` currently hold an array state?
    fn is_array(&self, name: &str) -> bool {
        self.array_index.get(name).is_some_and(|&a| self.current[a].is_some())
    }

    fn enter_block(&mut self) -> usize {
        self.next_block += 1;
        self.next_block - 1
    }

    // ------------------------------------------------------------ values

    /// Register a reference: decrement the remaining-use counter and
    /// materialize.
    fn reference(&mut self, s: usize, out: &mut Vec<Stmt>) -> Expr {
        self.remaining[s] = self.remaining[s].saturating_sub(1);
        self.materialize(s, out)
    }

    /// Produce an expression for slot `s`, emitting temp declarations into
    /// `out` as needed.
    fn materialize(&mut self, s: usize, out: &mut Vec<Stmt>) -> Expr {
        match self.avail[s] {
            Avail::Temp(n) => return Expr::Var(temp_name(n)),
            Avail::Var(v) => return Expr::Var(v.to_string()),
            Avail::No => {}
        }
        let expr = self.node_expr(s, out);
        // scheduled temps and loads/calls always land in temporaries
        if self.plan.temp[s] || matches!(self.t.node(s).op, Op::Load | Op::Call(_)) {
            let n = self.fresh_temp();
            let ty = self.class_type(s);
            out.push(Stmt::Decl { ty, name: temp_name(n), init: Some(expr) });
            self.set_avail(s, Avail::Temp(n));
            Expr::Var(temp_name(n))
        } else {
            expr
        }
    }

    fn node_expr(&mut self, s: usize, out: &mut Vec<Stmt>) -> Expr {
        let t = self.t;
        let (node, kids) = (t.node(s), t.kids(s));
        let mut arg = |em: &mut Self, i: usize| Box::new(em.reference(kids[i], out));
        match &node.op {
            Op::Int(v) => Expr::Int(*v),
            Op::Float(bits) => Expr::Float(f64::from_bits(*bits)),
            Op::Sym(name) => {
                // entry symbols `x@L0` refer to variable x inside the loop
                Expr::Var(name.split('@').next().unwrap_or(name).to_string())
            }
            Op::LoopCond(l) => {
                panic!("loop condition {l} must never be materialized")
            }
            Op::PhiLoop => {
                panic!("loop φ must be available as a variable; it cannot be recomputed")
            }
            Op::Load => {
                let state = kids[0];
                let Some(a) = self.state_name[state] else {
                    panic!("load of a non-current array state {}", t.class[state])
                };
                debug_assert_eq!(
                    self.current[a],
                    Some(state),
                    "load must read the current state of `{}`",
                    self.arrays[a]
                );
                let base = self.arrays[a].to_string();
                let indices = (1..kids.len()).map(|i| *arg(self, i)).collect();
                Expr::Index { base, indices }
            }
            Op::Store => panic!("array states are never materialized as expressions"),
            Op::Select => {
                let (cond, then) = (arg(self, 0), arg(self, 1));
                Expr::Ternary { cond, then, els: arg(self, 2) }
            }
            Op::Call(name) => {
                let args = (0..kids.len()).map(|i| *arg(self, i)).collect();
                Expr::Call { name: name.clone(), args }
            }
            Op::Neg => Expr::Unary { op: UnOp::Neg, operand: arg(self, 0) },
            Op::Not => Expr::Unary { op: UnOp::Not, operand: arg(self, 0) },
            Op::Fma => {
                // fma(a, b, c) = a + b * c — emitted as the open form; the
                // compilers (and our compiler models) fuse it back, exactly
                // as NVHPC/GCC do under fastmath (paper Listing 3).
                let (a, b) = (arg(self, 0), arg(self, 1));
                let product = Expr::Binary { op: BinOp::Mul, lhs: b, rhs: arg(self, 2) };
                Expr::Binary { op: BinOp::Add, lhs: a, rhs: Box::new(product) }
            }
            Op::CastInt => Expr::Cast { ty: Type::Int, expr: arg(self, 0) },
            Op::CastFloat => Expr::Cast { ty: Type::Double, expr: arg(self, 0) },
            op => {
                let lhs = arg(self, 0);
                Expr::Binary { op: op_to_binop(op), lhs, rhs: arg(self, 1) }
            }
        }
    }

    /// Type of `name` as declared so far. Entry symbols (`x@L0`) resolve to
    /// the type of `x`.
    fn type_of(&self, name: &str) -> Type {
        let base = name.split('@').next().unwrap_or(name);
        match self.local_types.get(base) {
            Some(ty) => ty.clone(),
            None => self.tm.type_of(name),
        }
    }

    /// Inferred C type of a class (via its selected node).
    fn class_type(&mut self, s: usize) -> Type {
        if let Some(ty) = &self.ty[s] {
            return ty.clone();
        }
        // a provisional value cuts (impossible) cycles
        self.ty[s] = Some(Type::Double);
        let t = self.t;
        let kids = t.kids(s);
        let ty = match &t.node(s).op {
            Op::Int(_) => Type::Int,
            Op::Float(_) => Type::Double,
            Op::Sym(name) | Op::LoopCond(name) => self.type_of(name),
            Op::Load => match self.state_name[kids[0]] {
                Some(a) => self.type_of(self.arrays[a]),
                None => Type::Double,
            },
            Op::Store => Type::Void,
            Op::Call(_) => Type::Double,
            Op::CastInt => Type::Int,
            Op::CastFloat => Type::Double,
            Op::Lt | Op::Le | Op::Gt | Op::Ge | Op::Eq | Op::Ne | Op::And | Op::Or | Op::Not => {
                Type::Int
            }
            Op::Neg => self.class_type(kids[0]),
            Op::Select | Op::PhiLoop => {
                let a = self.class_type(kids[1]);
                let b = self.class_type(kids[2]);
                promote(&a, &b)
            }
            Op::Fma => Type::Double,
            _ => {
                let a = self.class_type(kids[0]);
                let b = self.class_type(kids[1]);
                promote(&a, &b)
            }
        };
        self.ty[s] = Some(ty.clone());
        ty
    }

    // ------------------------------------------------------------ blocks

    fn emit_block(&mut self, nodes: &'a [SsaNode], block: usize) -> Vec<Stmt> {
        let plan = self.plan;
        // temps whose declaration scope is this block, by (item, class)
        let sched = &plan.sched[plan.sched_start[block]..plan.sched_start[block + 1]];
        let mut out = Vec::new();
        let mut cursor = 0;
        for (i, node) in nodes.iter().enumerate() {
            cursor = self.flush_scheduled(sched, cursor, i, &mut out);
            self.emit_item(node, &mut out);
        }
        self.flush_scheduled(sched, cursor, usize::MAX, &mut out);
        out
    }

    /// Emit scheduled temps due before item `next_item` — `sched[cursor..]`
    /// are the ones not yet due. In bulk mode, also emit any load temp whose
    /// dependencies are already resolved, sorted by (array, static index) —
    /// the bulk-load transformation. Returns the new cursor.
    fn flush_scheduled(
        &mut self,
        sched: &[(usize, usize)],
        mut cursor: usize,
        next_item: usize,
        out: &mut Vec<Stmt>,
    ) -> usize {
        let (mut due, mut loads) = (std::mem::take(&mut self.due), std::mem::take(&mut self.loads));
        due.clear();
        loads.clear();
        // 1. everything that is due now
        while let Some(&(item, s)) = sched.get(cursor) {
            if item > next_item {
                break;
            }
            cursor += 1;
            if !self.taken[s] && self.avail[s] == Avail::No {
                due.push(s);
            }
        }
        if self.bulk_load {
            // 2. bulk: eagerly take ready loads scheduled for later
            for &(_, s) in &sched[cursor..] {
                if self.taken[s] {
                    continue;
                }
                if self.avail[s] != Avail::No {
                    self.taken[s] = true;
                } else if self.t.node(s).op == Op::Load && self.ready(s) {
                    self.taken[s] = true;
                    loads.push((self.load_array(s), s));
                }
            }
            // the due loads join them, and the whole bulk region is sorted
            // by (array, static index text), class as the tie-break
            let t = self.t;
            let is_load = |s: usize| t.node(s).op == Op::Load;
            for &s in &due {
                if is_load(s) {
                    loads.push((self.load_array(s), s));
                }
            }
            due.retain(|&s| !is_load(s));
            let order = &mut self.order;
            loads.sort_by(|x, y| order.cmp_loads(t, x, y));
            due.extend(loads.iter().map(|&(_, s)| s));
        }
        for &s in &due {
            if self.avail[s] == Avail::No {
                self.materialize(s, out);
            }
        }
        (self.due, self.loads) = (due, loads);
        cursor
    }

    /// The array a load reads, by its state (`""` if none is current).
    fn load_array(&self, s: usize) -> &'a str {
        self.state_name[self.t.kids(s)[0]].map_or("", |a| self.arrays[a])
    }

    /// Can slot `s` be computed right now (states current, φs available)?
    fn ready(&mut self, s: usize) -> bool {
        let mut seen = std::mem::take(&mut self.seen);
        seen.clear();
        let ready = self.deps_ready(s, &mut seen);
        self.seen = seen;
        ready
    }

    fn deps_ready(&self, s: usize, seen: &mut Visited) -> bool {
        if self.avail[s] != Avail::No {
            return true;
        }
        if !seen.insert(s) {
            return true;
        }
        if self.plan.named_phi[s] {
            return false; // wait until the φ variable exists
        }
        let Some(node) = self.t.node[s] else { return false };
        let kids = self.t.kids(s);
        match &node.op {
            Op::PhiLoop | Op::LoopCond(_) | Op::Store => false,
            Op::Sym(name) => !name.contains('@'), // entry syms need avail
            Op::Load => match self.state_name[kids[0]] {
                Some(a) => {
                    self.current[a] == Some(kids[0])
                        && kids[1..].iter().all(|&k| self.deps_ready(k, seen))
                }
                None => false,
            },
            _ => kids.iter().all(|&k| self.deps_ready(k, seen)),
        }
    }

    // ------------------------------------------------------------ items

    fn emit_item(&mut self, node: &'a SsaNode, out: &mut Vec<Stmt>) {
        match node {
            SsaNode::Decl { name, ty } => {
                self.local_types.insert(name, ty.clone());
                out.push(Stmt::Decl { ty: ty.clone(), name: name.clone(), init: None });
            }
            SsaNode::Assign { target, class, state_class } => {
                self.emit_assign(target, *class, *state_class, out);
            }
            SsaNode::If { cond, then, els, has_else, phis, .. } => {
                // capture values endangered by branch assignments
                self.capture_endangered(|v| phis.iter().any(|(n, _)| n == v), out);
                let scope = self.undo.len();
                let block = self.enter_block();
                let then_stmts = self.emit_block(then, block);
                self.rewind(scope);
                let block = self.enter_block();
                let els_stmts = if *has_else || !els.is_empty() {
                    let s = self.emit_block(els, block);
                    self.rewind(scope);
                    Some(Block::new(s))
                } else {
                    None
                };
                out.push(Stmt::If {
                    cond: cond.clone(),
                    then: Block::new(then_stmts),
                    els: els_stmts,
                });
                // φ values are now available through their variables
                for (name, phi) in phis {
                    self.bind_phi(name, *phi);
                }
            }
            SsaNode::Loop { header, body, phis } => {
                self.capture_endangered(|v| phis.iter().any(|(n, ..)| n == v), out);
                let scope = self.undo.len();
                // inside the body, each φ'd name holds its entry value
                for (name, entry, _, _) in phis {
                    self.bind_entry(name, *entry);
                }
                let block = self.enter_block();
                let body = self.emit_block(body, block);
                self.rewind(scope);
                out.push(Stmt::For(ForLoop {
                    var: header.var.clone(),
                    declares_var: header.declares_var,
                    init: header.init.clone(),
                    cond: header.cond.clone(),
                    step: header.step.clone(),
                    body: Block::new(body),
                    directive: header.directive.clone(),
                }));
                for (name, _, phi, _) in phis {
                    if name == &header.var && header.declares_var {
                        continue; // scoped induction variable dies here
                    }
                    self.bind_phi(name, *phi);
                }
            }
            SsaNode::Opaque { stmt, havocs } => {
                // the statement may overwrite these names out of the
                // e-graph's sight: capture any live value still flowing
                // through them, emit verbatim, then rebind each name to
                // its havoc class — loads of the old array states are no
                // longer current, so nothing is reused or hoisted across
                self.capture_endangered(|v| havocs.iter().any(|(n, _)| n == v), out);
                out.push(stmt.clone());
                for (name, havoc) in havocs {
                    self.bind_phi(name, *havoc);
                }
            }
        }
    }

    fn emit_assign(
        &mut self,
        target: &'a Target,
        class: Id,
        state_class: Option<Id>,
        out: &mut Vec<Stmt>,
    ) {
        let s = self.t.slot(class);
        match target {
            Target::Scalar { name, decl_ty } => {
                self.capture_endangered(|v| v == name, out);
                let rhs = self.reference(s, out);
                match decl_ty {
                    Some(ty) => {
                        self.local_types.insert(name, ty.clone());
                        out.push(Stmt::Decl {
                            ty: ty.clone(),
                            name: name.clone(),
                            init: Some(rhs),
                        });
                    }
                    None => out.push(Stmt::Assign {
                        lhs: LValue::Var(name.clone()),
                        op: AssignOp::Assign,
                        rhs,
                    }),
                }
                if self.avail[s] == Avail::No {
                    self.set_avail(s, Avail::Var(name));
                }
            }
            Target::Store { base, index_exprs, .. } => {
                let rhs = self.reference(s, out);
                out.push(Stmt::Assign {
                    lhs: LValue::Index { base: base.clone(), indices: index_exprs.clone() },
                    op: AssignOp::Assign,
                    rhs,
                });
                let state = self.t.slot(state_class.expect("store has a state class"));
                let a = self.array_of(base);
                self.set_state(a, state);
            }
        }
    }

    /// Before the variables `assigned` accepts are overwritten: any class
    /// whose current availability is a plain reference to one of them, and
    /// which is still needed later, gets captured into a temp.
    fn capture_endangered(&mut self, assigned: impl Fn(&str) -> bool, out: &mut Vec<Stmt>) {
        let mut endangered = std::mem::take(&mut self.endangered);
        endangered.clear();
        for &s in &self.var_avail {
            if let Avail::Var(v) = self.avail[s] {
                if assigned(v) && self.remaining[s] > 0 {
                    endangered.push((v, s));
                }
            }
        }
        // capture temps are emitted by variable name, then class (a slot
        // is listed once per time it was bound to a variable)
        endangered.sort_unstable();
        endangered.dedup();
        for &(var, s) in &endangered {
            let n = self.fresh_temp();
            let ty = self.class_type(s);
            out.push(Stmt::Decl { ty, name: temp_name(n), init: Some(Expr::Var(var.to_string())) });
            self.set_avail(s, Avail::Temp(n));
        }
        self.endangered = endangered;
    }

    fn bind_phi(&mut self, name: &'a str, phi: Id) {
        let s = self.t.slot(phi);
        if self.is_array(name) || self.state_name[s].is_some() {
            // array φ: the array's current state after the merge
            let a = self.array_of(name);
            self.set_state(a, s);
            return;
        }
        // scalar φ — but names can also be arrays seen for the first time
        if self.type_of(name) != Type::Void && self.avail[s] == Avail::No {
            self.set_avail(s, Avail::Var(name));
        }
    }

    fn bind_entry(&mut self, name: &'a str, entry: Id) {
        let s = self.t.slot(entry);
        if self.is_array(name) {
            let a = self.array_of(name);
            self.set_state(a, s);
        } else if self.avail[s] == Avail::No {
            self.set_avail(s, Avail::Var(name));
        }
    }
}

fn op_to_binop(op: &Op) -> BinOp {
    match op {
        Op::Add => BinOp::Add,
        Op::Sub => BinOp::Sub,
        Op::Mul => BinOp::Mul,
        Op::Div => BinOp::Div,
        Op::Mod => BinOp::Mod,
        Op::Lt => BinOp::Lt,
        Op::Le => BinOp::Le,
        Op::Gt => BinOp::Gt,
        Op::Ge => BinOp::Ge,
        Op::Eq => BinOp::Eq,
        Op::Ne => BinOp::Ne,
        Op::And => BinOp::And,
        Op::Or => BinOp::Or,
        other => panic!("`{}` is not a binary operator", other.name()),
    }
}

// ------------------------------------------------------------ term order

/// How the text of one term compares with another's.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cmp {
    /// The texts differ at a byte both have.
    Differ(Ordering),
    Equal,
    /// The left text is a proper prefix of the right, which goes on with
    /// this byte.
    LeftShort(u8),
    /// The right text is a proper prefix of the left, which goes on with
    /// this byte.
    RightShort(u8),
}

/// Byte order of two texts.
fn cmp_bytes(a: &[u8], b: &[u8]) -> Cmp {
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => Cmp::Differ(a[i].cmp(&b[i])),
        None => match a.len().cmp(&b.len()) {
            Ordering::Equal => Cmp::Equal,
            Ordering::Less => Cmp::LeftShort(b[a.len()]),
            Ordering::Greater => Cmp::RightShort(a[b.len()]),
        },
    }
}

/// The order of two texts when the left one is followed by `fa` and the
/// right one by `fb` (`None`: the text ends); `None` when both go on alike.
fn resolve(c: Cmp, fa: Option<u8>, fb: Option<u8>) -> Option<Ordering> {
    match c {
        Cmp::Differ(o) => Some(o),
        Cmp::Equal => (fa != fb).then(|| fa.cmp(&fb)),
        // a tie here would need an operator name holding a separator
        Cmp::LeftShort(b) => Some(fa.cmp(&Some(b)).then(Ordering::Less)),
        Cmp::RightShort(a) => Some(Some(a).cmp(&fb).then(Ordering::Greater)),
    }
}

/// Orders selected terms exactly as their s-expression texts would sort —
/// a leaf is its operator name, anything else `(name child child …)`, as
/// the selection's debugging rendering writes them — without rendering
/// them: the text of a chain of `n` shared `x + x` terms has 2ⁿ leaves.
///
/// A term's text is self-delimiting once it starts with `(`, so two
/// compound terms compare by name, then child by child, each child's text
/// followed by ` ` or by the closing `)`. Only two leaf names can be a
/// proper prefix of one another (`x1`, `x10`); the byte after the shorter
/// one — ` `, `)` or the end of the text — decides. That is exact while no
/// operator name contains a space or a parenthesis: names are C
/// identifiers, numbers, and their `@`/`:` qualifiers. Results are memoized
/// per pair of classes, so a comparison costs the pairs it meets, once.
#[derive(Default)]
pub(crate) struct TermOrder {
    memo: FxHashMap<(usize, usize), Cmp>,
    names: [String; 2],
}

impl TermOrder {
    /// Two loads by (array, index term texts), then by class.
    fn cmp_loads(&mut self, t: &Tables, x: &(&str, usize), y: &(&str, usize)) -> Ordering {
        x.0.cmp(y.0)
            .then_with(|| self.cmp_lists(t, &t.kids(x.1)[1..], &t.kids(y.1)[1..]))
            .then(x.1.cmp(&y.1))
    }

    /// Two lists of terms as lists of their texts.
    fn cmp_lists(&mut self, t: &Tables, a: &[usize], b: &[usize]) -> Ordering {
        for (&x, &y) in a.iter().zip(b) {
            if let Some(o) = resolve(self.cmp_terms(t, x, y), None, None) {
                return o;
            }
        }
        a.len().cmp(&b.len())
    }

    fn cmp_terms(&mut self, t: &Tables, a: usize, b: usize) -> Cmp {
        if a == b {
            return Cmp::Equal;
        }
        if let Some(&c) = self.memo.get(&(a, b)) {
            return c;
        }
        let (ka, kb) = (t.kids(a), t.kids(b));
        for (name, s) in self.names.iter_mut().zip([a, b]) {
            name.clear();
            let _ = write!(name, "{}", t.node(s).op); // a String takes every write
        }
        let names = cmp_bytes(self.names[0].as_bytes(), self.names[1].as_bytes());
        let c = match (ka.is_empty(), kb.is_empty()) {
            (true, true) => names,
            // a leaf against `(…`: names never start with a parenthesis
            (true, false) => cmp_bytes(self.names[0].as_bytes(), b"("),
            (false, true) => cmp_bytes(b"(", self.names[1].as_bytes()),
            (false, false) => match resolve(names, Some(b' '), Some(b' ')) {
                Some(o) => Cmp::Differ(o),
                None => self.cmp_children(t, ka, kb),
            },
        };
        self.memo.insert((a, b), c);
        c
    }

    /// Two compound terms with equal names, from their first child on.
    fn cmp_children(&mut self, t: &Tables, ka: &[usize], kb: &[usize]) -> Cmp {
        for i in 0..ka.len().min(kb.len()) {
            let after = |k: &[usize]| if i + 1 < k.len() { b' ' } else { b')' };
            let c = self.cmp_terms(t, ka[i], kb[i]);
            if let Some(o) = resolve(c, Some(after(ka)), Some(after(kb))) {
                return Cmp::Differ(o);
            }
        }
        // both closed after the same number of equal children
        Cmp::Equal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accsat_egraph::{all_rules, EGraph, Runner};
    use accsat_extract::{extract_greedy, CostModel};
    use proptest::prelude::*;

    /// The order the rendered texts of two term lists sort in.
    fn text_order(eg: &EGraph, sel: &Selection, a: &[Id], b: &[Id]) -> Ordering {
        let text = |ids: &[Id]| ids.iter().map(|&c| sel.term_string(eg, c)).collect::<Vec<_>>();
        text(a).cmp(&text(b))
    }

    /// A term DAG from a script of `(operator, child, child, child)` picks.
    /// Its names include proper prefixes of one another (`x1`/`x10`/`x1@L0`,
    /// `1`/`10`, `call:f`/`call:fg`) — where texts that agree so far are
    /// decided by the byte after the shorter name.
    fn dag(script: &[(u32, u32, u32, u32)]) -> (EGraph, Selection) {
        const SYMS: [&str; 6] = ["x1", "x10", "x", "x1@L0", "a", "ab"];
        let mut eg = EGraph::without_constant_folding();
        let mut ids: Vec<Id> = Vec::new();
        for &(pick, p, q, r) in script {
            let kid = |k: u32| ids[k as usize % ids.len()];
            let node = match if ids.is_empty() { pick % 3 } else { pick % 13 } {
                0 | 1 => Node::sym(SYMS[p as usize % SYMS.len()]),
                2 => Node::int([1, 10, -1, 0][p as usize % 4]),
                3 => Node::float([0.5, 2.5, 10.0][p as usize % 3]),
                4 => Node::new(Op::Add, vec![kid(p), kid(q)]),
                5 => Node::new(Op::Sub, vec![kid(p), kid(q)]),
                6 => Node::new(Op::Neg, vec![kid(p)]),
                7 => Node::new(Op::Fma, vec![kid(p), kid(q), kid(r)]),
                8 => Node::new(Op::Load, vec![kid(p), kid(q)]),
                9 => Node::new(Op::Load, vec![kid(p), kid(q), kid(r)]),
                10 => Node::new(Op::Mul, vec![kid(p), kid(p)]),
                call => {
                    let name = if call == 11 { "f" } else { "fg" };
                    Node::new(Op::Call(name.into()), [kid(p), kid(q)][..r as usize % 3].to_vec())
                }
            };
            ids.push(eg.add(node));
        }
        let mut sel = Selection::new();
        for (id, _) in eg.classes() {
            sel.choose(&eg, id, eg.nodes(id).next().unwrap().to_node());
        }
        (eg, sel)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn term_order_is_the_rendered_text_order_on_random_dags(
            script in proptest::collection::vec((0u32..64, 0u32..64, 0u32..64, 0u32..64), 1..16),
            lists in proptest::collection::vec((0usize..64, 0usize..4, 0usize..64, 0usize..4), 8),
        ) {
            let (eg, sel) = dag(&script);
            let ids: Vec<Id> = eg.classes().map(|(id, _)| id).collect();
            let t = Tables::new(&eg, &sel, &ids);
            let mut order = TermOrder::default();
            for a in 0..t.len() {
                for b in 0..t.len() {
                    let (ta, tb) = (sel.term_string(&eg, t.class[a]), sel.term_string(&eg, t.class[b]));
                    prop_assert!(
                        order.cmp_lists(&t, &[a], &[b]) == ta.cmp(&tb),
                        "{ta} vs {tb}"
                    );
                }
            }
            // lists compare element by element, then by length
            let n = t.len();
            for &(i, k, j, l) in &lists {
                let a: Vec<usize> = (0..k).map(|x| (i + 5 * x) % n).collect();
                let b: Vec<usize> = (0..l).map(|x| (j + 3 * x) % n).collect();
                let ids = |s: &[usize]| s.iter().map(|&s| t.class[s]).collect::<Vec<_>>();
                prop_assert_eq!(order.cmp_lists(&t, &a, &b), text_order(&eg, &sel, &ids(&a), &ids(&b)));
            }
        }
    }

    #[test]
    fn term_order_is_the_rendered_text_order_on_every_suite_load() {
        let mut pairs = 0;
        for b in accsat_benchmarks::all_benchmarks() {
            for f in &accsat_ir::parse_program(&b.acc_source).unwrap().functions {
                for l in accsat_ir::innermost_parallel_loops(f) {
                    let mut kernel = accsat_ssa::build_kernel(&l.body);
                    Runner::new(all_rules()).run(&mut kernel.egraph);
                    let eg = &kernel.egraph;
                    let sel = extract_greedy(eg, &kernel.extraction_roots(), &CostModel::paper());
                    let mut seeds = Vec::new();
                    named_classes(&kernel.nodes, &mut seeds);
                    let t = Tables::new(eg, &sel, &seeds);
                    let loads: Vec<usize> = (0..t.len())
                        .filter(|&s| t.node[s].is_some_and(|n| n.op == Op::Load))
                        .collect();
                    let mut order = TermOrder::default();
                    for &x in &loads {
                        for &y in &loads {
                            let (nx, ny) = (t.node(x), t.node(y));
                            assert_eq!(
                                order.cmp_lists(&t, &t.kids(x)[1..], &t.kids(y)[1..]),
                                text_order(eg, &sel, &nx.children[1..], &ny.children[1..]),
                                "{} {}: {nx} vs {ny}",
                                b.name,
                                f.name
                            );
                            pairs += 1;
                        }
                    }
                }
            }
        }
        assert!(pairs > 1000, "only {pairs} load pairs compared");
    }
}
