//! The SSA builder: converts a kernel body into e-graph classes plus a
//! structure tree that code generation later re-walks.

use accsat_egraph::{EGraph, Id, Node, Op};
use accsat_ir::{BinOp, Block, Expr, LValue, Stmt, Type, UnOp};
use std::collections::{HashMap, HashSet};

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
    /// E-classes of all assignment right-hand sides, in program order —
    /// the extraction roots.
    pub fn assignment_classes(&self) -> Vec<Id> {
        let mut out = Vec::new();
        collect_assign_classes(&self.nodes, &mut out);
        out
    }

    /// All extraction roots: assignment values plus store index classes.
    pub fn extraction_roots(&self) -> Vec<Id> {
        let mut out = Vec::new();
        collect_roots(&self.nodes, &mut out);
        out
    }
}

fn collect_assign_classes(nodes: &[SsaNode], out: &mut Vec<Id>) {
    for n in nodes {
        match n {
            SsaNode::Assign { class, .. } => out.push(*class),
            SsaNode::If { then, els, .. } => {
                collect_assign_classes(then, out);
                collect_assign_classes(els, out);
            }
            SsaNode::Loop { body, .. } => collect_assign_classes(body, out),
            _ => {}
        }
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
    let mut b = Builder {
        eg: EGraph::new(),
        env: HashMap::new(),
        initial: Vec::new(),
        arrays: Vec::new(),
        declared: HashSet::new(),
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

struct Builder {
    eg: EGraph,
    /// Current SSA value of each name (scalars and array states).
    env: HashMap<String, Id>,
    initial: Vec<(String, Id)>,
    arrays: Vec<String>,
    /// Names introduced by declarations inside the kernel. Everything else
    /// (parameters, outer-scope variables, array states) has an ambient
    /// value that exists before any branch executes.
    declared: HashSet<String>,
    loop_counter: usize,
    /// Fresh-symbol counter for opaque-statement havocs (`x@H0`, …).
    havoc_counter: usize,
}

impl Builder {
    fn note_array(&mut self, name: &str) {
        if !self.arrays.iter().any(|a| a == name) {
            self.arrays.push(name.to_string());
        }
    }

    /// Current class of a name, creating the initial `Sym` on first read.
    fn value_of(&mut self, name: &str) -> Id {
        if let Some(&id) = self.env.get(name) {
            return id;
        }
        let id = self.ambient(name);
        self.env.insert(name.to_string(), id);
        id
    }

    /// The initial (pre-kernel) value of a name: the incoming array state or
    /// outer-scope variable. Hash-consing guarantees this is the same class
    /// regardless of where the name is first touched, so a branch-local read
    /// and a later kernel-level read of an untouched name agree.
    fn ambient(&mut self, name: &str) -> Id {
        let id = self.eg.add(Node::sym(name));
        if !self.initial.iter().any(|(n, _)| n == name) {
            self.initial.push((name.to_string(), id));
        }
        id
    }

    fn expr(&mut self, e: &Expr) -> Id {
        match e {
            Expr::Int(v) => self.eg.add(Node::int(*v)),
            Expr::Float(v) => self.eg.add(Node::float(*v)),
            Expr::Var(n) => self.value_of(n),
            Expr::Index { base, indices } => {
                self.note_array(base);
                let idx: Vec<Id> = indices.iter().map(|i| self.expr(i)).collect();
                let state = self.value_of(base);
                let mut children = vec![state];
                children.extend(idx);
                self.eg.add(Node::new(Op::Load, children))
            }
            Expr::Unary { op, operand } => {
                let c = self.expr(operand);
                let op = match op {
                    UnOp::Neg => Op::Neg,
                    UnOp::Not => Op::Not,
                };
                self.eg.add(Node::new(op, vec![c]))
            }
            Expr::Binary { op, lhs, rhs } => {
                let l = self.expr(lhs);
                let r = self.expr(rhs);
                self.eg.add(Node::new(binop_to_op(*op), vec![l, r]))
            }
            Expr::Call { name, args } => {
                let a: Vec<Id> = args.iter().map(|x| self.expr(x)).collect();
                self.eg.add(Node::new(Op::Call(name.clone()), a))
            }
            Expr::Ternary { cond, then, els } => {
                let c = self.expr(cond);
                let t = self.expr(then);
                let e2 = self.expr(els);
                self.eg.add(Node::new(Op::Select, vec![c, t, e2]))
            }
            Expr::Cast { ty, expr } => {
                let c = self.expr(expr);
                let op = match ty {
                    Type::Int => Op::CastInt,
                    _ => Op::CastFloat,
                };
                self.eg.add(Node::new(op, vec![c]))
            }
        }
    }

    fn block(&mut self, b: &Block) -> Vec<SsaNode> {
        let mut out = Vec::new();
        for s in &b.stmts {
            self.stmt(s, &mut out);
        }
        out
    }

    fn stmt(&mut self, s: &Stmt, out: &mut Vec<SsaNode>) {
        match s {
            Stmt::Decl { ty, name, init } => match init {
                Some(e) => {
                    let class = self.expr(e);
                    self.declared.insert(name.clone());
                    self.env.insert(name.clone(), class);
                    out.push(SsaNode::Assign {
                        target: Target::Scalar { name: name.clone(), decl_ty: Some(ty.clone()) },
                        class,
                        state_class: None,
                    });
                }
                None => {
                    self.declared.insert(name.clone());
                    out.push(SsaNode::Decl { name: name.clone(), ty: ty.clone() });
                }
            },
            Stmt::Assign { lhs, op, rhs } => {
                let rhs_class = self.expr(rhs);
                let value_class = match op.binop() {
                    None => rhs_class,
                    Some(bop) => {
                        let old = match lhs {
                            LValue::Var(n) => self.value_of(n),
                            LValue::Index { base, indices } => {
                                self.note_array(base);
                                let idx: Vec<Id> = indices.iter().map(|i| self.expr(i)).collect();
                                let state = self.value_of(base);
                                let mut children = vec![state];
                                children.extend(idx);
                                self.eg.add(Node::new(Op::Load, children))
                            }
                        };
                        self.eg.add(Node::new(binop_to_op(bop), vec![old, rhs_class]))
                    }
                };
                match lhs {
                    LValue::Var(n) => {
                        self.env.insert(n.clone(), value_class);
                        out.push(SsaNode::Assign {
                            target: Target::Scalar { name: n.clone(), decl_ty: None },
                            class: value_class,
                            state_class: None,
                        });
                    }
                    LValue::Index { base, indices } => {
                        self.note_array(base);
                        let index_classes: Vec<Id> = indices.iter().map(|i| self.expr(i)).collect();
                        let state = self.value_of(base);
                        let mut children = vec![state];
                        children.extend(index_classes.iter().copied());
                        children.push(value_class);
                        let new_state = self.eg.add(Node::new(Op::Store, children));
                        self.env.insert(base.clone(), new_state);
                        out.push(SsaNode::Assign {
                            target: Target::Store {
                                base: base.clone(),
                                index_exprs: indices.clone(),
                                index_classes,
                            },
                            class: value_class,
                            state_class: Some(new_state),
                        });
                    }
                }
            }
            Stmt::If { cond, then, els } => {
                let cond_class = self.expr(cond);
                let before = self.env.clone();
                let then_nodes = self.block(then);
                let then_env = std::mem::replace(&mut self.env, before.clone());
                let els_nodes = match els {
                    Some(e) => self.block(e),
                    None => Vec::new(),
                };
                let els_env = std::mem::replace(&mut self.env, before.clone());
                // φ for every name whose value differs between the branches
                let mut phis = Vec::new();
                let mut names: Vec<&String> = then_env.keys().chain(els_env.keys()).collect();
                names.sort();
                names.dedup();
                for name in names {
                    let pre = match before.get(name) {
                        Some(&id) => Some(id),
                        // Not bound before the branch, but not declared
                        // inside the kernel either: the name has an ambient
                        // pre-branch value (incoming array state, parameter,
                        // outer-scope variable). A store under `if` must φ
                        // against it, or a later read would alias the
                        // pre-store state and license stale-load reuse.
                        None if !self.declared.contains(name.as_str()) => Some(self.ambient(name)),
                        None => None,
                    };
                    let t = then_env.get(name).copied().or(pre);
                    let e = els_env.get(name).copied().or(pre);
                    let (t, e) = match (t, e) {
                        (Some(t), Some(e)) => (t, e),
                        // declared in only one branch and nowhere before:
                        // reading it after the if is out of scope; skip the φ
                        _ => continue,
                    };
                    if self.eg.find(t) == self.eg.find(e) {
                        self.env.insert(name.clone(), t);
                        continue;
                    }
                    let phi = self.eg.add(Node::new(Op::Select, vec![cond_class, t, e]));
                    self.env.insert(name.clone(), phi);
                    phis.push((name.clone(), phi));
                }
                out.push(SsaNode::If {
                    cond: cond.clone(),
                    cond_class,
                    then: then_nodes,
                    els: els_nodes,
                    has_else: els.is_some(),
                    phis,
                });
            }
            Stmt::For(l) => {
                let label = format!("L{}", self.loop_counter);
                self.loop_counter += 1;
                // variables (and arrays) modified inside the loop
                let mut modified = modified_names(&l.body);
                if !modified.contains(&l.var) {
                    modified.push(l.var.clone());
                }
                // induction variables of nested scoped loops die with
                // their own loop (their handler removes them from the
                // environment), so they take no φ — and no entry symbol —
                // at this level
                let nested_scoped = scoped_loop_vars(&l.body);
                modified.retain(|m| *m == l.var || !nested_scoped.contains(m));
                modified.sort();
                // record init values, then bind entry symbols for the body
                let mut inits = Vec::new();
                for m in &modified {
                    let init = self.value_of(m);
                    inits.push((m.clone(), init));
                    let entry = self.eg.add(Node::sym(&format!("{m}@{label}")));
                    self.env.insert(m.clone(), entry);
                }
                let entry_classes: HashMap<String, Id> =
                    modified.iter().map(|m| (m.clone(), self.env[m])).collect();
                let body_nodes = self.block(&l.body);
                // post-loop φ
                let loop_cond = self.eg.add(Node::leaf(Op::LoopCond(label)));
                let mut phis = Vec::new();
                for (m, init) in &inits {
                    let body_val = self.env[m];
                    let phi = self.eg.add(Node::new(Op::PhiLoop, vec![loop_cond, body_val, *init]));
                    if *m == l.var && l.declares_var {
                        // scoped induction variable disappears after the loop
                        self.env.remove(m);
                    } else {
                        self.env.insert(m.clone(), phi);
                    }
                    phis.push((m.clone(), entry_classes[m], phi, *init));
                }
                let mut header = l.clone();
                header.body = Block::default();
                out.push(SsaNode::Loop { header, body: body_nodes, phis });
            }
            other => {
                // havoc every name the statement may write (it executes
                // out of the e-graph's sight): reading its pre-value first
                // records ambient initial values so codegen tracks array
                // states from kernel entry, then each name is rebound to a
                // fresh opaque symbol no other expression can alias.
                // Names the statement declares itself die with its scope
                // and are not havocked.
                self.note_arrays_in(other);
                let local = locally_declared(other);
                let mut names = modified_names(&Block::new(vec![other.clone()]));
                names.retain(|n| !local.contains(n));
                names.sort();
                let mut havocs = Vec::new();
                for name in names {
                    self.value_of(&name);
                    let sym = format!("{name}@H{}", self.havoc_counter);
                    self.havoc_counter += 1;
                    let id = self.eg.add(Node::sym(&sym));
                    self.env.insert(name.clone(), id);
                    havocs.push((name, id));
                }
                out.push(SsaNode::Opaque { stmt: other.clone(), havocs });
            }
        }
    }

    /// Record every name used as an array anywhere inside `s` (opaque
    /// statements are not lowered, so [`Builder::expr`] never sees their
    /// index expressions).
    fn note_arrays_in(&mut self, s: &Stmt) {
        fn expr(b: &mut Builder, e: &Expr) {
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

/// Induction variables of scoped `for` loops (`declares_var`) anywhere
/// inside `b`: each dies with its own loop, so an enclosing loop must not
/// treat it as a loop-carried name.
fn scoped_loop_vars(b: &Block) -> Vec<String> {
    let mut out = Vec::new();
    fn go(s: &Stmt, out: &mut Vec<String>) {
        match s {
            Stmt::For(l) => {
                if l.declares_var {
                    out.push(l.var.clone());
                }
                for s in &l.body.stmts {
                    go(s, out);
                }
            }
            Stmt::If { then, els, .. } => {
                for s in &then.stmts {
                    go(s, out);
                }
                if let Some(e) = els {
                    for s in &e.stmts {
                        go(s, out);
                    }
                }
            }
            Stmt::While { body, .. } => {
                for s in &body.stmts {
                    go(s, out);
                }
            }
            Stmt::Block(b) => {
                for s in &b.stmts {
                    go(s, out);
                }
            }
            _ => {}
        }
    }
    for s in &b.stmts {
        go(s, &mut out);
    }
    out
}

/// Names declared *inside* `s` (block-scoped: they die with the statement
/// and must not be havocked at the enclosing scope).
fn locally_declared(s: &Stmt) -> Vec<String> {
    let mut out = Vec::new();
    fn go(s: &Stmt, out: &mut Vec<String>) {
        match s {
            Stmt::Decl { name, .. } => out.push(name.clone()),
            Stmt::If { then, els, .. } => {
                for s in &then.stmts {
                    go(s, out);
                }
                if let Some(e) = els {
                    for s in &e.stmts {
                        go(s, out);
                    }
                }
            }
            Stmt::For(l) => {
                if l.declares_var {
                    out.push(l.var.clone());
                }
                for s in &l.body.stmts {
                    go(s, out);
                }
            }
            Stmt::While { body, .. } => {
                for s in &body.stmts {
                    go(s, out);
                }
            }
            Stmt::Block(b) => {
                for s in &b.stmts {
                    go(s, out);
                }
            }
            _ => {}
        }
    }
    go(s, &mut out);
    out
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

/// Names (scalars and arrays) assigned anywhere in a block.
pub fn modified_names(b: &Block) -> Vec<String> {
    let mut out = Vec::new();
    fn go(s: &Stmt, out: &mut Vec<String>) {
        let mut push = |n: &str| {
            if !out.iter().any(|x| x == n) {
                out.push(n.to_string());
            }
        };
        match s {
            Stmt::Decl { name, .. } => push(name),
            Stmt::Assign { lhs, .. } => push(lhs.base()),
            Stmt::If { then, els, .. } => {
                for s in &then.stmts {
                    go(s, out);
                }
                if let Some(e) = els {
                    for s in &e.stmts {
                        go(s, out);
                    }
                }
            }
            Stmt::For(l) => {
                push(&l.var);
                for s in &l.body.stmts {
                    go(s, out);
                }
            }
            Stmt::While { body, .. } => {
                for s in &body.stmts {
                    go(s, out);
                }
            }
            Stmt::Block(b) => {
                for s in &b.stmts {
                    go(s, out);
                }
            }
            _ => {}
        }
    }
    for s in &b.stmts {
        go(s, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use accsat_ir::parse_program;

    #[test]
    fn modified_names_finds_all() {
        let src = r#"
void f(double a[4], double b) {
  double t = 1.0;
  a[0] = t;
  if (b > 0.0) {
    t = 2.0;
  }
  for (int l = 0; l < 4; l++) {
    b = b + 1.0;
  }
}
"#;
        let prog = parse_program(src).unwrap();
        let names = modified_names(&prog.functions[0].body);
        for n in ["t", "a", "l", "b"] {
            assert!(names.iter().any(|x| x == n), "missing {n}");
        }
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
