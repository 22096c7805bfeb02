//! The SSA builder: converts a kernel body into e-graph classes plus a
//! structure tree that code generation later re-walks.
//!
//! Every cache hit builds its kernel again, so the walk allocates only
//! what it returns and what the e-graph keeps. Nodes are added from
//! borrowed parts, their children on one reused operand stack; names are
//! borrowed from the body; an `if` records the bindings its branches
//! change on an undo trail instead of cloning the environment; and the
//! names each loop carries come from one walk of the body made before
//! the build starts.

use accsat_egraph::{EGraph, FxHashMap, Id, Op};
use accsat_ir::ast::ForLoop;
use accsat_ir::{BinOp, Block, Expr, LValue, Stmt, Type, UnOp};
use std::fmt::{self, Write as _};

/// The target of an SSA assignment.
#[derive(Debug, Clone)]
pub enum Target {
    /// Scalar variable; `decl_ty` is `Some` when the original statement was a
    /// declaration (`double t = …`).
    Scalar { name: String, decl_ty: Option<Type> },
    /// Array store: `base[index_exprs…] = value`. `index_classes` are the
    /// e-classes of the index expressions; `index_exprs` the original text.
    Store { base: String, index_exprs: Vec<Expr>, index_classes: Vec<Id> },
}

impl Target {
    /// Variable or array name assigned by this target.
    pub fn base(&self) -> &str {
        match self {
            Target::Scalar { name, .. } => name,
            Target::Store { base, .. } => base,
        }
    }
}

/// A node of the SSA structure tree. Mirrors the original control structure;
/// code generation walks it to rebuild the kernel.
#[derive(Debug, Clone)]
pub enum SsaNode {
    /// An assignment; `class` is the e-class of the right-hand value and
    /// `state_class` (stores only) the e-class of the produced array state.
    Assign { target: Target, class: Id, state_class: Option<Id> },
    /// Bare declaration with no initializer (re-emitted verbatim).
    Decl { name: String, ty: Type },
    /// An `if`; conditions are re-emitted from the original expression.
    If {
        cond: Expr,
        cond_class: Id,
        then: Vec<SsaNode>,
        els: Vec<SsaNode>,
        has_else: bool,
        /// (variable, φ class after the if) — for availability tracking.
        phis: Vec<(String, Id)>,
    },
    /// A sequential `for` inside the kernel body.
    Loop {
        /// Original loop header (body replaced by the SSA nodes below).
        header: accsat_ir::ast::ForLoop,
        body: Vec<SsaNode>,
        /// (variable, entry symbol class, post-loop φ class, init class).
        phis: Vec<(String, Id, Id, Id)>,
    },
    /// Any other statement (function-call statement, `while`) re-emitted
    /// verbatim. Every name the statement may write is *havocked*: rebound
    /// to a fresh opaque symbol (`name@H0`, `name@H1`, …) that nothing
    /// else can alias, so CSE cannot reuse — and bulk load cannot hoist —
    /// a value read across the statement's stores.
    Opaque {
        /// The original statement, re-emitted verbatim.
        stmt: Stmt,
        /// (name, havoc symbol class) for every name the statement may
        /// write, sorted by name. Codegen binds each name to its havoc
        /// class after emitting the statement.
        havocs: Vec<(String, Id)>,
    },
}

/// Result of SSA construction for one kernel body.
#[derive(Debug, Clone)]
pub struct SsaKernel {
    pub egraph: EGraph,
    pub nodes: Vec<SsaNode>,
    /// Initial value class of every name referenced before assignment
    /// (`x → Sym(x)` class). Used by codegen availability tracking.
    pub initial_values: Vec<(String, Id)>,
    /// Names used as arrays (indexed or stored to) anywhere in the body.
    pub array_names: Vec<String>,
    /// Number of sequential loops encountered (labels `L0…`).
    pub num_loops: usize,
}

impl SsaKernel {
    /// All extraction roots: assignment values plus store index classes.
    pub fn extraction_roots(&self) -> Vec<Id> {
        let mut out = Vec::new();
        collect_roots(&self.nodes, &mut out);
        out
    }
}

fn collect_roots(nodes: &[SsaNode], out: &mut Vec<Id>) {
    for n in nodes {
        match n {
            SsaNode::Assign { class, target, .. } => {
                out.push(*class);
                if let Target::Store { index_classes, .. } = target {
                    out.extend(index_classes.iter().copied());
                }
            }
            SsaNode::If { then, els, .. } => {
                collect_roots(then, out);
                collect_roots(els, out);
            }
            SsaNode::Loop { body, .. } => collect_roots(body, out),
            _ => {}
        }
    }
}

/// Build the SSA form + e-graph for one kernel body (the body of an
/// innermost parallel loop).
pub fn build_kernel(body: &Block) -> SsaKernel {
    let mut names = NameWalk::default();
    let nodes = names.walk(&body.stmts, true);
    let mut b = Builder {
        eg: EGraph::with_capacity(nodes),
        names: FxHashMap::default(),
        trail: Vec::new(),
        branch_depth: 0,
        merge: Vec::new(),
        operands: Vec::new(),
        spare: String::new(),
        walk: names,
        carried: Vec::new(),
        initial: Vec::new(),
        arrays: Vec::new(),
        loop_counter: 0,
        havoc_counter: 0,
    };
    let nodes = b.block(body);
    SsaKernel {
        egraph: b.eg,
        nodes,
        initial_values: b.initial,
        array_names: b.arrays,
        num_loops: b.loop_counter,
    }
}

/// What the builder knows about one name of the body.
#[derive(Debug, Default, Clone, Copy)]
struct Name {
    /// Current SSA value (scalar or array state), if bound.
    value: Option<Id>,
    /// Declared inside the kernel. Every other name (parameters,
    /// outer-scope variables, array states) has an ambient value that
    /// exists before any branch executes.
    declared: bool,
    /// Its ambient value is in `initial_values`.
    initial: bool,
    /// It is in `array_names`.
    array: bool,
}

struct Builder<'a> {
    eg: EGraph,
    names: FxHashMap<&'a str, Name>,
    /// Inside an `if`: the binding each [`Builder::bind`] replaced, oldest
    /// first, so a branch can be undone.
    trail: Vec<(&'a str, Option<Id>)>,
    /// Number of `if`s being built around the current statement.
    branch_depth: usize,
    /// The bindings the branches of the `if`s being merged end with:
    /// (name, else branch?, binding).
    merge: Vec<(&'a str, bool, Option<Id>)>,
    /// Children of the nodes being added, innermost last.
    operands: Vec<Id>,
    /// The name buffer of the last payload operator added.
    spare: String,
    /// The loops' carried names, and scratch for an opaque statement's.
    walk: NameWalk<'a>,
    /// (name, init class, entry class) of the loops being built,
    /// innermost last.
    carried: Vec<(&'a str, Id, Id)>,
    initial: Vec<(String, Id)>,
    arrays: Vec<String>,
    loop_counter: usize,
    /// Fresh-symbol counter for opaque-statement havocs (`x@H0`, …).
    havoc_counter: usize,
}

/// Add the payload operator `wrap(name)` over `children`, writing the
/// name into a reused buffer: interning an operator the graph already
/// holds allocates nothing.
fn add_named(
    eg: &mut EGraph,
    spare: &mut String,
    wrap: fn(String) -> Op,
    name: fmt::Arguments<'_>,
    children: &[Id],
) -> Id {
    let mut text = std::mem::take(spare);
    text.clear();
    let _ = text.write_fmt(name);
    let op = wrap(text);
    let id = eg.add_with(&op, children);
    if let Op::Sym(text) | Op::Call(text) | Op::LoopCond(text) = op {
        *spare = text;
    }
    id
}

impl<'a> Builder<'a> {
    fn note_array(&mut self, name: &'a str) {
        let n = self.names.entry(name).or_default();
        if !n.array {
            n.array = true;
            self.arrays.push(name.to_string());
        }
    }

    /// Rebind a name (`None` unbinds it), on the trail when inside an `if`.
    fn bind(&mut self, name: &'a str, value: Option<Id>) {
        let old = std::mem::replace(&mut self.names.entry(name).or_default().value, value);
        if self.branch_depth > 0 {
            self.trail.push((name, old));
        }
    }

    /// Current class of a name, creating the initial `Sym` on first read.
    fn value_of(&mut self, name: &'a str) -> Id {
        if let Some(id) = self.names.get(name).and_then(|n| n.value) {
            return id;
        }
        let id = self.ambient(name);
        self.bind(name, Some(id));
        id
    }

    /// The initial (pre-kernel) value of a name: the incoming array state or
    /// outer-scope variable. Hash-consing guarantees this is the same class
    /// regardless of where the name is first touched, so a branch-local read
    /// and a later kernel-level read of an untouched name agree.
    fn ambient(&mut self, name: &'a str) -> Id {
        let id = add_named(&mut self.eg, &mut self.spare, Op::Sym, format_args!("{name}"), &[]);
        let n = self.names.entry(name).or_default();
        if !n.initial {
            n.initial = true;
            self.initial.push((name.to_string(), id));
        }
        id
    }

    fn expr(&mut self, e: &'a Expr) -> Id {
        match e {
            Expr::Int(v) => self.eg.add_with(&Op::Int(*v), &[]),
            Expr::Float(v) => self.eg.add_with(&Op::float(*v), &[]),
            Expr::Var(n) => self.value_of(n),
            Expr::Index { base, indices } => {
                self.note_array(base);
                let at = self.array_operands(base, indices);
                self.add_operands(&Op::Load, at)
            }
            Expr::Unary { op, operand } => {
                let c = self.expr(operand);
                let op = match op {
                    UnOp::Neg => Op::Neg,
                    UnOp::Not => Op::Not,
                };
                self.eg.add_with(&op, &[c])
            }
            Expr::Binary { op, lhs, rhs } => {
                let l = self.expr(lhs);
                let r = self.expr(rhs);
                self.eg.add_with(&binop_to_op(*op), &[l, r])
            }
            Expr::Call { name, args } => {
                let at = self.operands.len();
                for a in args {
                    let c = self.expr(a);
                    self.operands.push(c);
                }
                let children = &self.operands[at..];
                let id = add_named(
                    &mut self.eg,
                    &mut self.spare,
                    Op::Call,
                    format_args!("{name}"),
                    children,
                );
                self.operands.truncate(at);
                id
            }
            Expr::Ternary { cond, then, els } => {
                let c = self.expr(cond);
                let t = self.expr(then);
                let e2 = self.expr(els);
                self.eg.add_with(&Op::Select, &[c, t, e2])
            }
            Expr::Cast { ty, expr } => {
                let c = self.expr(expr);
                let op = match ty {
                    Type::Int => Op::CastInt,
                    _ => Op::CastFloat,
                };
                self.eg.add_with(&op, &[c])
            }
        }
    }

    /// Push the array state of `base` and the classes of `indices` — read
    /// in that order: indices first — as operands; returns where they
    /// start.
    fn array_operands(&mut self, base: &'a str, indices: &'a [Expr]) -> usize {
        let at = self.operands.len();
        self.operands.push(Id::new(0));
        for i in indices {
            let c = self.expr(i);
            self.operands.push(c);
        }
        self.operands[at] = self.value_of(base);
        at
    }

    /// Add `op` over the operands from `at` on, and pop them.
    fn add_operands(&mut self, op: &Op, at: usize) -> Id {
        let id = self.eg.add_with(op, &self.operands[at..]);
        self.operands.truncate(at);
        id
    }

    fn block(&mut self, b: &'a Block) -> Vec<SsaNode> {
        let mut out = Vec::with_capacity(b.stmts.len());
        for s in &b.stmts {
            out.push(self.stmt(s));
        }
        out
    }

    fn stmt(&mut self, s: &'a Stmt) -> SsaNode {
        match s {
            Stmt::Decl { ty, name, init } => {
                self.names.entry(name).or_default().declared = true;
                match init {
                    Some(e) => {
                        let class = self.expr(e);
                        self.bind(name, Some(class));
                        SsaNode::Assign {
                            target: Target::Scalar {
                                name: name.clone(),
                                decl_ty: Some(ty.clone()),
                            },
                            class,
                            state_class: None,
                        }
                    }
                    None => SsaNode::Decl { name: name.clone(), ty: ty.clone() },
                }
            }
            Stmt::Assign { lhs, op, rhs } => {
                let rhs_class = self.expr(rhs);
                let value_class = match op.binop() {
                    None => rhs_class,
                    Some(bop) => {
                        let old = match lhs {
                            LValue::Var(n) => self.value_of(n),
                            LValue::Index { base, indices } => {
                                self.note_array(base);
                                let at = self.array_operands(base, indices);
                                self.add_operands(&Op::Load, at)
                            }
                        };
                        self.eg.add_with(&binop_to_op(bop), &[old, rhs_class])
                    }
                };
                match lhs {
                    LValue::Var(n) => {
                        self.bind(n, Some(value_class));
                        SsaNode::Assign {
                            target: Target::Scalar { name: n.clone(), decl_ty: None },
                            class: value_class,
                            state_class: None,
                        }
                    }
                    LValue::Index { base, indices } => {
                        self.note_array(base);
                        let at = self.array_operands(base, indices);
                        let index_classes = self.operands[at + 1..].to_vec();
                        self.operands.push(value_class);
                        let new_state = self.add_operands(&Op::Store, at);
                        self.bind(base, Some(new_state));
                        SsaNode::Assign {
                            target: Target::Store {
                                base: base.clone(),
                                index_exprs: indices.clone(),
                                index_classes,
                            },
                            class: value_class,
                            state_class: Some(new_state),
                        }
                    }
                }
            }
            Stmt::If { cond, then, els } => {
                let cond_class = self.expr(cond);
                let mark = self.trail.len();
                self.branch_depth += 1;
                let then_nodes = self.block(then);
                let merge_at = self.merge.len();
                self.undo_branch(mark, false);
                let els_nodes = match els {
                    Some(e) => self.block(e),
                    None => Vec::new(),
                };
                self.undo_branch(mark, true);
                self.branch_depth -= 1;
                let phis = self.merge_branches(merge_at, cond_class);
                SsaNode::If {
                    cond: cond.clone(),
                    cond_class,
                    then: then_nodes,
                    els: els_nodes,
                    has_else: els.is_some(),
                    phis,
                }
            }
            Stmt::For(l) => self.for_loop(l),
            other => self.opaque(other),
        }
    }

    /// Record the bindings a branch ends with (see [`Builder::merge`]),
    /// then restore the ones from before it.
    fn undo_branch(&mut self, mark: usize, els: bool) {
        for &(name, _) in &self.trail[mark..] {
            self.merge.push((name, els, self.names[name].value));
        }
        for (name, old) in self.trail.drain(mark..).rev() {
            if let Some(n) = self.names.get_mut(name) {
                n.value = old;
            }
        }
    }

    /// The φ of an `if` for every name whose value differs between the
    /// branches, in name order, from the bindings [`Builder::undo_branch`]
    /// recorded from `at` on. Only a name some branch rebound can differ.
    fn merge_branches(&mut self, at: usize, cond_class: Id) -> Vec<(String, Id)> {
        self.merge[at..].sort_unstable_by_key(|&(name, els, _)| (name, els));
        let mut phis = Vec::new();
        let mut i = at;
        while i < self.merge.len() {
            let name = self.merge[i].0;
            let Name { value: before, declared, .. } = self.names[name];
            let (mut t, mut e) = (before, before);
            while let Some(&(_, els, value)) = self.merge.get(i).filter(|m| m.0 == name) {
                *(if els { &mut e } else { &mut t }) = value;
                i += 1;
            }
            // unbound after both branches: in neither branch's scope
            if t.is_none() && e.is_none() {
                continue;
            }
            let pre = match before {
                Some(id) => Some(id),
                // Not bound before the branch, but not declared inside the
                // kernel either: the name has an ambient pre-branch value
                // (incoming array state, parameter, outer-scope variable).
                // A store under `if` must φ against it, or a later read
                // would alias the pre-store state and license stale-load
                // reuse.
                None if !declared => Some(self.ambient(name)),
                None => None,
            };
            let (Some(t), Some(e)) = (t.or(pre), e.or(pre)) else {
                // declared in only one branch and nowhere before: reading
                // it after the if is out of scope; skip the φ
                continue;
            };
            if self.eg.find(t) == self.eg.find(e) {
                self.bind(name, Some(t));
                continue;
            }
            let phi = self.eg.add_with(&Op::Select, &[cond_class, t, e]);
            self.bind(name, Some(phi));
            phis.push((name.to_string(), phi));
        }
        self.merge.truncate(at);
        phis
    }

    fn for_loop(&mut self, l: &'a ForLoop) -> SsaNode {
        let label = self.loop_counter;
        self.loop_counter += 1;
        // record init values, then bind entry symbols for the body
        let at = self.carried.len();
        for i in self.walk.loop_names(label) {
            let m = self.walk.carried[i];
            let init = self.value_of(m);
            let entry = add_named(
                &mut self.eg,
                &mut self.spare,
                Op::Sym,
                format_args!("{m}@L{label}"),
                &[],
            );
            self.bind(m, Some(entry));
            self.carried.push((m, init, entry));
        }
        let body = self.block(&l.body);
        // post-loop φ
        let loop_cond =
            add_named(&mut self.eg, &mut self.spare, Op::LoopCond, format_args!("L{label}"), &[]);
        let mut phis = Vec::with_capacity(self.carried.len() - at);
        for i in at..self.carried.len() {
            let (m, init, entry) = self.carried[i];
            let body_val = self.names[m].value.expect("a carried name is bound after its loop");
            let phi = self.eg.add_with(&Op::PhiLoop, &[loop_cond, body_val, init]);
            // a scoped induction variable disappears after the loop
            let scoped = m == l.var && l.declares_var;
            self.bind(m, (!scoped).then_some(phi));
            phis.push((m.to_string(), entry, phi, init));
        }
        self.carried.truncate(at);
        let header = ForLoop {
            var: l.var.clone(),
            declares_var: l.declares_var,
            init: l.init.clone(),
            cond: l.cond.clone(),
            step: l.step.clone(),
            body: Block::default(),
            directive: l.directive.clone(),
        };
        SsaNode::Loop { header, body, phis }
    }

    /// Havoc every name the statement may write (it executes out of the
    /// e-graph's sight): reading its pre-value first records ambient
    /// initial values so codegen tracks array states from kernel entry,
    /// then each name is rebound to a fresh opaque symbol no other
    /// expression can alias. Names the statement declares itself die
    /// with its scope and are not havocked.
    fn opaque(&mut self, s: &'a Stmt) -> SsaNode {
        self.note_arrays_in(s);
        let written = self.walk.written_by(s);
        let mut havocs = Vec::with_capacity(written.len());
        for i in written {
            let name = self.walk.assigned[i];
            self.value_of(name);
            let n = self.havoc_counter;
            self.havoc_counter += 1;
            let id =
                add_named(&mut self.eg, &mut self.spare, Op::Sym, format_args!("{name}@H{n}"), &[]);
            self.bind(name, Some(id));
            havocs.push((name.to_string(), id));
        }
        SsaNode::Opaque { stmt: s.clone(), havocs }
    }

    /// Record every name used as an array anywhere inside `s` (opaque
    /// statements are not lowered, so [`Builder::expr`] never sees their
    /// index expressions).
    fn note_arrays_in(&mut self, s: &'a Stmt) {
        fn expr<'a>(b: &mut Builder<'a>, e: &'a Expr) {
            match e {
                Expr::Index { base, indices } => {
                    b.note_array(base);
                    for i in indices {
                        expr(b, i);
                    }
                }
                Expr::Unary { operand, .. } => expr(b, operand),
                Expr::Binary { lhs, rhs, .. } => {
                    expr(b, lhs);
                    expr(b, rhs);
                }
                Expr::Call { args, .. } => {
                    for a in args {
                        expr(b, a);
                    }
                }
                Expr::Ternary { cond, then, els } => {
                    expr(b, cond);
                    expr(b, then);
                    expr(b, els);
                }
                Expr::Cast { expr: inner, .. } => expr(b, inner),
                Expr::Int(_) | Expr::Float(_) | Expr::Var(_) => {}
            }
        }
        match s {
            Stmt::Decl { init, .. } => {
                if let Some(e) = init {
                    expr(self, e);
                }
            }
            Stmt::Assign { lhs, rhs, .. } => {
                if let LValue::Index { base, indices } = lhs {
                    self.note_array(base);
                    for i in indices {
                        expr(self, i);
                    }
                }
                expr(self, rhs);
            }
            Stmt::If { cond, then, els } => {
                expr(self, cond);
                for s in &then.stmts {
                    self.note_arrays_in(s);
                }
                if let Some(e) = els {
                    for s in &e.stmts {
                        self.note_arrays_in(s);
                    }
                }
            }
            Stmt::For(l) => {
                expr(self, &l.init);
                expr(self, &l.cond);
                expr(self, &l.step);
                for s in &l.body.stmts {
                    self.note_arrays_in(s);
                }
            }
            Stmt::While { cond, body } => {
                expr(self, cond);
                for s in &body.stmts {
                    self.note_arrays_in(s);
                }
            }
            Stmt::Block(b) => {
                for s in &b.stmts {
                    self.note_arrays_in(s);
                }
            }
            Stmt::Expr(e) => expr(self, e),
            Stmt::Return(e) => {
                if let Some(e) = e {
                    expr(self, e);
                }
            }
        }
    }
}

/// The names statements assign and scope, gathered by one walk.
///
/// Walked over a kernel body before the build, it gives every loop the
/// builder labels (one reached through `if`s and `for`s only — the loops
/// inside an opaque statement are not lowered) the names it carries:
/// those assigned anywhere in its body, and its induction variable, less
/// the induction variables of scoped loops nested in it — each dies with
/// its own loop (its handler unbinds it), so it takes no φ and no entry
/// symbol at this level.
#[derive(Default)]
struct NameWalk<'a> {
    /// Names assigned or declared, each time.
    assigned: Vec<&'a str>,
    /// Induction variables of scoped loops (`for (int i = …`).
    scoped: Vec<&'a str>,
    /// Names declared.
    declared: Vec<&'a str>,
    /// Per labelled loop, in label order: its range of `carried`.
    loops: Vec<(usize, usize)>,
    /// The carried names of every labelled loop, each loop's sorted.
    carried: Vec<&'a str>,
}

impl<'a> NameWalk<'a> {
    /// Walk `stmts`, labelling their loops if `labelled`; returns a bound
    /// on the e-nodes building them adds.
    fn walk(&mut self, stmts: &'a [Stmt], labelled: bool) -> usize {
        let mut nodes = 0;
        for s in stmts {
            nodes += match s {
                Stmt::Decl { name, init, .. } => {
                    self.assigned.push(name);
                    self.declared.push(name);
                    1 + init.as_ref().map_or(0, Expr::size)
                }
                Stmt::Assign { lhs, rhs, .. } => {
                    self.assigned.push(lhs.base());
                    let indices = match lhs {
                        LValue::Index { indices, .. } => indices.iter().map(Expr::size).sum(),
                        LValue::Var(_) => 0,
                    };
                    3 + indices + rhs.size()
                }
                Stmt::If { cond, then, els } => {
                    let assigned = self.assigned.len();
                    let mut n = cond.size() + self.walk(&then.stmts, labelled);
                    if let Some(e) = els {
                        n += self.walk(&e.stmts, labelled);
                    }
                    // a φ, perhaps over an ambient value, per name merged
                    n + 2 * (self.assigned.len() - assigned)
                }
                Stmt::For(l) => self.for_loop(l, labelled),
                Stmt::While { body, .. } | Stmt::Block(body) => {
                    let assigned = self.assigned.len();
                    self.walk(&body.stmts, false);
                    // a havoc symbol, perhaps over an ambient value, per name
                    2 * (self.assigned.len() - assigned)
                }
                Stmt::Expr(_) | Stmt::Return(_) => 0,
            };
        }
        nodes
    }

    fn for_loop(&mut self, l: &'a ForLoop, labelled: bool) -> usize {
        let slot = self.loops.len();
        if labelled {
            self.loops.push((0, 0));
        }
        let (assigned, scoped) = (self.assigned.len(), self.scoped.len());
        let nodes = self.walk(&l.body.stmts, labelled);
        if labelled {
            let start = self.carried.len();
            self.carried.push(&l.var);
            for &m in &self.assigned[assigned..] {
                if m == l.var || !self.scoped[scoped..].contains(&m) {
                    self.carried.push(m);
                }
            }
            self.carried[start..].sort_unstable();
            let end = start + dedup_sorted(&mut self.carried[start..]);
            self.carried.truncate(end);
            self.loops[slot] = (start, end);
        }
        self.assigned.push(&l.var);
        if l.declares_var {
            self.scoped.push(&l.var);
        }
        // per carried name an init, an entry symbol and a φ, plus the
        // loop condition
        nodes + 3 * (self.assigned.len() - assigned) + 1
    }

    /// Indices into `carried` of the names loop `label` carries.
    fn loop_names(&self, label: usize) -> std::ops::Range<usize> {
        let (start, end) = self.loops[label];
        start..end
    }

    /// The names the opaque statement `s` may write, less the ones it
    /// declares itself: sorted, as indices into `assigned`.
    fn written_by(&mut self, s: &'a Stmt) -> std::ops::Range<usize> {
        self.assigned.clear();
        self.scoped.clear();
        self.declared.clear();
        self.walk(std::slice::from_ref(s), false);
        self.declared.extend_from_slice(&self.scoped);
        self.declared.sort_unstable();
        let local = &self.declared;
        self.assigned.retain(|n| local.binary_search(n).is_err());
        self.assigned.sort_unstable();
        let n = dedup_sorted(&mut self.assigned);
        self.assigned.truncate(n);
        0..n
    }
}

/// Move the distinct values of a sorted slice to its front; returns how
/// many there are.
fn dedup_sorted<T: PartialEq + Copy>(v: &mut [T]) -> usize {
    let mut kept = 0;
    for i in 0..v.len() {
        if kept == 0 || v[i] != v[kept - 1] {
            v[kept] = v[i];
            kept += 1;
        }
    }
    kept
}

fn binop_to_op(op: BinOp) -> Op {
    match op {
        BinOp::Add => Op::Add,
        BinOp::Sub => Op::Sub,
        BinOp::Mul => Op::Mul,
        BinOp::Div => Op::Div,
        BinOp::Mod => Op::Mod,
        BinOp::Lt => Op::Lt,
        BinOp::Le => Op::Le,
        BinOp::Gt => Op::Gt,
        BinOp::Ge => Op::Ge,
        BinOp::Eq => Op::Eq,
        BinOp::Ne => Op::Ne,
        BinOp::And => Op::And,
        BinOp::Or => Op::Or,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accsat_ir::parse_program;

    #[test]
    fn name_walk_finds_assigned_and_carried_names() {
        let src = r#"
void f(double a[4], double b) {
  double t = 1.0;
  a[0] = t;
  if (b > 0.0) {
    t = 2.0;
  }
  for (int l = 0; l < 4; l++) {
    b = b + 1.0;
    for (int m = 0; m < 2; m++) {
      a[m] = b;
    }
  }
}
"#;
        let prog = parse_program(src).unwrap();
        let mut walk = NameWalk::default();
        walk.walk(&prog.functions[0].body.stmts, true);
        for n in ["t", "a", "l", "b", "m"] {
            assert!(walk.assigned.contains(&n), "missing {n}");
        }
        // labels in pre-order; the inner loop's scoped `m` dies with it
        assert_eq!(walk.carried[walk.loop_names(0)], ["a", "b", "l"]);
        assert_eq!(walk.carried[walk.loop_names(1)], ["a", "m"]);
    }

    #[test]
    fn initial_values_recorded() {
        let src = r#"
void f(double out[4], double x, double y) {
  out[0] = x + y;
}
"#;
        let prog = parse_program(src).unwrap();
        let k = build_kernel(&prog.functions[0].body);
        let names: Vec<&str> = k.initial_values.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"x"));
        assert!(names.contains(&"y"));
        assert!(names.contains(&"out"));
    }

    #[test]
    fn extraction_roots_include_store_indices() {
        let src = r#"
void f(double out[8], int base) {
  out[base + 1] = 2.0;
}
"#;
        let prog = parse_program(src).unwrap();
        let k = build_kernel(&prog.functions[0].body);
        let roots = k.extraction_roots();
        // value class + one index class
        assert_eq!(roots.len(), 2);
    }

    #[test]
    fn nested_scoped_loops_build_without_phi_for_inner_vars() {
        // The inner loop's scoped induction variable dies with the inner
        // loop; the outer loop must not demand a φ for it (this used to
        // panic with "no entry found for key").
        let src = r#"
void f(double a[8], double out[8]) {
  #pragma acc parallel loop gang vector
  for (int i = 1; i < 7; i++) {
    double s = a[i];
    for (int l1 = 0; l1 < 3; l1++) {
      for (int l2 = 0; l2 < 2; l2++) {
        s = s + a[i - 1];
      }
    }
    out[i] = s;
  }
}
"#;
        let prog = parse_program(src).unwrap();
        let k = build_kernel(&prog.functions[0].body);
        let outer = k
            .nodes
            .iter()
            .find_map(|n| match n {
                SsaNode::Loop { header, phis, .. } if header.var == "i" => Some(phis),
                _ => None,
            })
            .expect("outer loop lowers to a Loop node");
        let phi_names: Vec<&str> = outer.iter().map(|(n, _, _, _)| n.as_str()).collect();
        assert!(!phi_names.contains(&"l1"), "inner loop var must not φ at the outer level");
        assert!(!phi_names.contains(&"l2"), "inner loop var must not φ at the outer level");
        assert!(phi_names.contains(&"s"), "the accumulator threads through the outer φ");
    }

    #[test]
    fn while_statement_havocs_modified_names() {
        let src = r#"
void f(double a[8], double out[8], double c) {
  double s = a[2] + c;
  int w = 0;
  while (w < 3) {
    a[2] = a[2] + s;
    w = w + 1;
  }
  out[0] = s + a[2];
}
"#;
        let prog = parse_program(src).unwrap();
        let k = build_kernel(&prog.functions[0].body);
        let havocs = k
            .nodes
            .iter()
            .find_map(|n| match n {
                SsaNode::Opaque { havocs, .. } => Some(havocs),
                _ => None,
            })
            .expect("while lowers to an opaque node");
        let names: Vec<&str> = havocs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "w"], "modified names, sorted");
        assert!(k.array_names.iter().any(|a| a == "a"), "arrays inside the while are noted");
        // the store after the while must write through the havocked array
        // state, never the pre-while one: its value class reads a fresh
        // `a@H…` symbol somewhere below
        let last = k.nodes.last().expect("kernel has nodes");
        let SsaNode::Assign { class, .. } = last else { panic!("expected final store") };
        let mut stack = vec![*class];
        let mut seen = std::collections::HashSet::new();
        let mut found_havoc = false;
        while let Some(c) = stack.pop() {
            let c = k.egraph.find(c);
            if !seen.insert(c) {
                continue;
            }
            for n in k.egraph.nodes(c) {
                if let Op::Sym(s) = n.op {
                    found_havoc |= s.contains("@H");
                }
                stack.extend(n.children.iter().copied());
            }
        }
        assert!(found_havoc, "post-while load must read a havoc symbol state");
    }

    #[test]
    fn locally_declared_names_are_not_havocked() {
        let src = r#"
void f(double a[8], double b) {
  while (b < 4.0) {
    double t = a[0] + 1.0;
    a[0] = t;
    b = b + t;
  }
}
"#;
        let prog = parse_program(src).unwrap();
        let k = build_kernel(&prog.functions[0].body);
        let SsaNode::Opaque { havocs, .. } = &k.nodes[0] else { panic!("expected opaque") };
        let names: Vec<&str> = havocs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b"], "`t` dies with the while body and is not havocked");
    }

    #[test]
    fn no_spurious_phi_when_branches_agree() {
        let src = r#"
void f(double out[4], double x) {
  double t = x;
  if (x > 0.0) {
    out[0] = 1.0;
  }
  out[1] = t;
}
"#;
        let prog = parse_program(src).unwrap();
        let k = build_kernel(&prog.functions[0].body);
        // `t` is not modified in the branch: no φ for it
        if let SsaNode::If { phis, .. } = &k.nodes[1] {
            assert!(phis.iter().all(|(n, _)| n != "t"));
        } else {
            panic!("expected If node");
        }
    }
}
