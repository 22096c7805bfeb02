//! The compiled e-matching engine: patterns compiled once into linear
//! instruction programs executed against registers of e-class ids.
//!
//! The interpretive matcher in [`crate::pattern`] walks the pattern tree for
//! every candidate e-node and clones a `HashMap<String, Id>` per partial
//! match. This module is the production path: [`Program::compile`] turns a
//! [`Pattern`] into a flat sequence of [`Inst`]ructions over a register
//! file, pattern variables are interned to `u32` indices into a per-pattern
//! var table, and substitutions are [`VarSubst`] — a small-vec of ids
//! indexed by variable, allocated only when a complete match is yielded.
//! Backtracking happens by re-entering the instruction at the choice point
//! (a `Bind` over a class's e-nodes), never by cloning bindings. Each
//! search first resolves every `Bind`'s operator to the searched graph's
//! op number, so matching compares `u32`s, never `Op`s.
//!
//! The legacy tree-walk matcher is kept as the differential-testing oracle
//! (`tests/property_matcher.rs` proves the two produce identical
//! substitution sets on random e-graphs and patterns).

use crate::dense::ClassSet;
use crate::egraph::EGraph;
use crate::node::{Id, Op};
use crate::pattern::{Pattern, PatternNode};

/// Interned pattern-variable index into a program's var table.
pub(crate) type VarId = u32;

/// A virtual register holding an e-class id during execution.
pub(crate) type Reg = u32;

/// How many variable bindings a [`VarSubst`] stores inline before spilling
/// to the heap. Every Table I pattern has at most three variables.
pub(crate) const SUBST_INLINE: usize = 4;

/// A substitution produced by the compiled matcher: variable index →
/// e-class id, stored small-vec-style (inline up to four bindings).
#[derive(Debug, Clone)]
pub enum VarSubst {
    /// Up to four bindings stored inline.
    Inline {
        /// Number of live bindings in `buf`.
        len: u8,
        /// Binding storage, `buf[..len]` valid.
        buf: [Id; SUBST_INLINE],
    },
    /// Spilled storage for patterns with many variables.
    Heap(Vec<Id>),
}

impl VarSubst {
    /// Gather the bindings out of the register file without an intermediate
    /// allocation (the VM's yield path).
    fn from_regs(subst_regs: &[Reg], regs: &[Id]) -> VarSubst {
        if subst_regs.len() <= SUBST_INLINE {
            let mut buf = [Id::from(0usize); SUBST_INLINE];
            for (i, &r) in subst_regs.iter().enumerate() {
                buf[i] = regs[r as usize];
            }
            VarSubst::Inline { len: subst_regs.len() as u8, buf }
        } else {
            VarSubst::Heap(subst_regs.iter().map(|&r| regs[r as usize]).collect())
        }
    }

    /// The bound ids, indexed by the rule's variable table.
    pub fn as_slice(&self) -> &[Id] {
        match self {
            VarSubst::Inline { len, buf } => &buf[..*len as usize],
            VarSubst::Heap(v) => v,
        }
    }

    /// Binding of variable `v`.
    pub fn get(&self, v: VarId) -> Id {
        self.as_slice()[v as usize]
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the pattern binds no variables (ground pattern).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PartialEq for VarSubst {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for VarSubst {}

impl std::hash::Hash for VarSubst {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialOrd for VarSubst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for VarSubst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

/// One instruction of a compiled pattern program.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Inst {
    /// Enumerate the e-nodes of the class in `reg` whose operator is `op`
    /// with `arity` children; for each, write the (canonical) children into
    /// registers `out .. out + arity` and continue. This is the backtracking
    /// choice point.
    Bind {
        /// Register holding the class to enumerate.
        reg: Reg,
        /// Required head operator.
        op: Op,
        /// Required child count.
        arity: u32,
        /// First output register for the children.
        out: Reg,
    },
    /// Require the classes in registers `a` and `b` to be equal (a repeated
    /// — non-linear — pattern variable).
    Compare {
        /// Left register.
        a: Reg,
        /// Right register.
        b: Reg,
    },
}

/// A pattern compiled to a linear program plus its variable table.
#[derive(Debug, Clone)]
pub(crate) struct Program {
    insts: Vec<Inst>,
    /// Variable index → register holding its binding at yield time.
    subst_regs: Vec<Reg>,
    /// Interned variable names, indexed by [`VarId`].
    vars: Vec<String>,
    /// Total registers used.
    n_regs: u32,
}

impl Program {
    /// Compile a pattern. Registers are assigned in pattern pre-order:
    /// register 0 is the root class, a `Bind` writes its children into a
    /// fresh contiguous block.
    pub(crate) fn compile(pattern: &Pattern) -> Program {
        let mut prog =
            Program { insts: Vec::new(), subst_regs: Vec::new(), vars: Vec::new(), n_regs: 1 };
        prog.compile_node(&pattern.root, 0);
        prog
    }

    fn compile_node(&mut self, node: &PatternNode, reg: Reg) {
        match node {
            PatternNode::Var(name) => {
                match self.vars.iter().position(|v| v == name) {
                    // repeated variable: emit an equality check
                    Some(i) => self.insts.push(Inst::Compare { a: self.subst_regs[i], b: reg }),
                    None => {
                        self.vars.push(name.clone());
                        self.subst_regs.push(reg);
                    }
                }
            }
            PatternNode::Apply { op, children } => {
                let out = self.n_regs;
                self.n_regs += children.len() as u32;
                self.insts.push(Inst::Bind {
                    reg,
                    op: op.clone(),
                    arity: children.len() as u32,
                    out,
                });
                for (i, child) in children.iter().enumerate() {
                    self.compile_node(child, out + i as u32);
                }
            }
        }
    }

    /// Interned variable names, indexed by [`VarId`].
    pub(crate) fn vars(&self) -> &[String] {
        &self.vars
    }

    /// Variable index of `name`, if the pattern binds it.
    pub(crate) fn var_id(&self, name: &str) -> Option<VarId> {
        self.vars.iter().position(|v| v == name).map(|i| i as VarId)
    }

    /// Search the e-graph through the op → e-class index — only classes
    /// whose node set contains the root operator are visited — optionally
    /// restricted to a candidate class set (canonical ids; the runner's
    /// incremental dirty-class search). Each match, root class and
    /// substitution in search order, goes to `emit`, so a caller collects
    /// them straight into its own buffer.
    pub(crate) fn search_into(
        &self,
        eg: &EGraph,
        restrict: Option<&ClassSet>,
        mut emit: impl FnMut(Id, VarSubst),
    ) {
        self.with_op_numbers(eg, |vm| {
            let mut regs = vec![Id::from(0usize); self.n_regs as usize];
            let mut visit = |id: Id| {
                if restrict.is_none_or(|set| set.contains(id)) {
                    vm.run(id, &mut regs, &mut emit);
                }
            };
            // the root's `Bind` comes first; a bare-variable root compiles
            // to no instruction and matches every class
            match vm.op_nos.first() {
                Some(&op_no) => eg.classes_with_op_no(op_no).iter().for_each(|&id| visit(id)),
                None => eg.classes().for_each(|(id, _)| visit(id)),
            }
        });
    }

    /// Resolve every `Bind`'s operator to `eg`'s op number and run `body`
    /// on the resolved program. An operator the arena never interned heads
    /// no e-node, so a program that binds one matches nothing and `body`
    /// is not run at all.
    fn with_op_numbers(&self, eg: &EGraph, body: impl FnOnce(&Vm<'_>)) {
        const INLINE: usize = 8;
        let mut inline = [0u32; INLINE];
        let mut spilled = Vec::new();
        let op_nos = if self.insts.len() <= INLINE {
            &mut inline[..self.insts.len()]
        } else {
            spilled.resize(self.insts.len(), 0);
            &mut spilled[..]
        };
        for (slot, inst) in op_nos.iter_mut().zip(&self.insts) {
            if let Inst::Bind { op, .. } = inst {
                match eg.arena.op_number(op) {
                    Some(op_no) => *slot = op_no,
                    None => return,
                }
            }
        }
        body(&Vm { prog: self, eg, op_nos })
    }
}

/// A [`Program`] bound to one e-graph: its `Bind` operators resolved to
/// that graph's op numbers (indexed by instruction), so matching compares
/// `u32`s and reads forms straight out of the classes and the arena.
struct Vm<'a> {
    prog: &'a Program,
    eg: &'a EGraph,
    /// Op number of instruction `pc`'s operator (unused for a `Compare`).
    op_nos: &'a [u32],
}

impl Vm<'_> {
    /// Match against the class of `root` with the register file `regs`,
    /// handing `emit` each complete match.
    fn run(&self, root: Id, regs: &mut [Id], emit: &mut impl FnMut(Id, VarSubst)) {
        regs[0] = self.eg.find(root);
        self.step(0, regs, &mut |regs| {
            emit(root, VarSubst::from_regs(&self.prog.subst_regs, regs))
        });
    }

    fn step(&self, pc: usize, regs: &mut [Id], yield_fn: &mut impl FnMut(&[Id])) {
        let eg = self.eg;
        let Some(inst) = self.prog.insts.get(pc) else {
            yield_fn(regs);
            return;
        };
        match inst {
            Inst::Compare { a, b } => {
                if eg.find(regs[*a as usize]) == eg.find(regs[*b as usize]) {
                    self.step(pc + 1, regs, yield_fn);
                }
            }
            Inst::Bind { reg, arity, out, .. } => {
                let op_no = self.op_nos[pc];
                // registers hold canonical ids, so the class is live
                let class = eg.classes[regs[*reg as usize].index()].as_ref().expect("live class");
                for &f in class.nodes.as_slice(&eg.node_pool) {
                    let children = eg.arena.children(f);
                    if eg.arena.op_no(f) != op_no || children.len() != *arity as usize {
                        continue;
                    }
                    for (i, &c) in children.iter().enumerate() {
                        regs[*out as usize + i] = eg.find(c);
                    }
                    self.step(pc + 1, regs, yield_fn);
                }
            }
        }
    }
}

/// A right-hand-side template with variables resolved to [`VarId`]s at rule
/// construction, so instantiation never does a string lookup.
#[derive(Debug, Clone)]
pub(crate) enum RhsNode {
    /// A variable of the left-hand side, inserted by binding.
    Var(VarId),
    /// An operator applied to instantiated children.
    Apply {
        /// Head operator of the node to insert.
        op: Op,
        /// Templates for the child classes.
        children: Vec<RhsNode>,
    },
}

impl RhsNode {
    /// Resolve a pattern's variables against `lhs`'s var table. Panics on
    /// unbound variables — rules are compile-time constants of the tool.
    pub(crate) fn compile(rhs: &PatternNode, lhs: &Program, rule: &str) -> RhsNode {
        match rhs {
            PatternNode::Var(v) => RhsNode::Var(
                lhs.var_id(v)
                    .unwrap_or_else(|| panic!("rule {rule}: rhs variable ?{v} not bound by lhs")),
            ),
            PatternNode::Apply { op, children } => RhsNode::Apply {
                op: op.clone(),
                children: children.iter().map(|c| RhsNode::compile(c, lhs, rule)).collect(),
            },
        }
    }

    /// Instantiate under `subst` and union the result with `class`, adding
    /// the root straight into `class` ([`EGraph::add_into`]). Returns
    /// whether the e-graph changed. Children are built on an operand stack
    /// the e-graph lends out, so a match whose right-hand side already
    /// exists allocates nothing.
    pub(crate) fn instantiate_into(&self, eg: &mut EGraph, subst: &VarSubst, class: Id) -> bool {
        match self {
            RhsNode::Var(v) => eg.union(class, subst.get(*v)).1,
            RhsNode::Apply { op, children } => {
                let mut stack = eg.take_stack();
                for c in children {
                    let id = c.build(eg, subst, &mut stack);
                    stack.push(id);
                }
                let changed = eg.add_into(op, &stack, class).1;
                stack.clear();
                eg.return_stack(stack);
                changed
            }
        }
    }

    fn build(&self, eg: &mut EGraph, subst: &VarSubst, stack: &mut Vec<Id>) -> Id {
        match self {
            RhsNode::Var(v) => subst.get(*v),
            RhsNode::Apply { op, children } => {
                let base = stack.len();
                for c in children {
                    let id = c.build(eg, subst, stack);
                    stack.push(id);
                }
                let id = eg.add_with(op, &stack[base..]);
                stack.truncate(base);
                id
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;
    use crate::pattern::parse_pattern;

    fn compile(src: &str) -> Program {
        Program::compile(&parse_pattern(src).unwrap())
    }

    /// The substitutions of every match rooted at `root`, in search order.
    fn matches_at(p: &Program, eg: &EGraph, root: Id) -> Vec<VarSubst> {
        let mut out = Vec::new();
        p.search_into(eg, None, |id, s| {
            if id == root {
                out.push(s);
            }
        });
        out
    }

    #[test]
    fn compiles_fma_pattern() {
        let p = compile("(+ ?a (* ?b ?c))");
        assert_eq!(p.vars(), &["a", "b", "c"]);
        // the root's Bind comes first; a second one for the nested *
        assert!(matches!(&p.insts[0], Inst::Bind { op: Op::Add, .. }));
        let binds = p.insts.iter().filter(|i| matches!(i, Inst::Bind { .. })).count();
        assert_eq!(binds, 2);
    }

    #[test]
    fn nonlinear_pattern_emits_compare() {
        let p = compile("(+ ?x ?x)");
        assert_eq!(p.vars(), &["x"]);
        assert!(p.insts.iter().any(|i| matches!(i, Inst::Compare { .. })));
    }

    #[test]
    fn vm_matches_simple_term() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let c = eg.add(Node::sym("c"));
        let bc = eg.add(Node::new(Op::Mul, vec![b, c]));
        let root = eg.add(Node::new(Op::Add, vec![a, bc]));
        let p = compile("(+ ?x (* ?y ?z))");
        let out = matches_at(&p, &eg, root);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0), eg.find(a));
        assert_eq!(out[0].get(1), eg.find(b));
        assert_eq!(out[0].get(2), eg.find(c));
    }

    #[test]
    fn vm_nonlinear_requires_equality() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let ab = eg.add(Node::new(Op::Add, vec![a, b]));
        let aa = eg.add(Node::new(Op::Add, vec![a, a]));
        let p = compile("(+ ?x ?x)");
        assert!(matches_at(&p, &eg, ab).is_empty(), "a+b must not match (+ ?x ?x)");
        assert_eq!(matches_at(&p, &eg, aa).len(), 1);
        // after union(a, b) the non-linear match appears
        eg.union(a, b);
        eg.rebuild();
        assert_eq!(matches_at(&p, &eg, eg.find(ab)).len(), 1);
    }

    #[test]
    fn vm_search_uses_op_index() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let _m = eg.add(Node::new(Op::Mul, vec![a, b]));
        let _s = eg.add(Node::new(Op::Add, vec![a, b]));
        let p = compile("(* ?x ?y)");
        let mut found = 0;
        p.search_into(&eg, None, |_, _| found += 1);
        assert_eq!(found, 1);
    }

    #[test]
    fn var_subst_inline_and_heap() {
        let ids: Vec<Id> = (0..6).map(Id::from).collect();
        let regs: Vec<Reg> = (0..6).rev().collect();
        let small = VarSubst::from_regs(&regs[3..], &ids);
        let big = VarSubst::from_regs(&regs, &ids);
        assert!(matches!(small, VarSubst::Inline { .. }));
        assert!(matches!(big, VarSubst::Heap(_)));
        assert_eq!(small.as_slice(), &[ids[2], ids[1], ids[0]]);
        assert_eq!(big.as_slice(), &ids.iter().rev().copied().collect::<Vec<_>>()[..]);
        assert_eq!(small, VarSubst::from_regs(&regs[3..], &ids));
    }

    #[test]
    fn rhs_template_instantiates_into_the_matched_class() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let c = eg.add(Node::sym("c"));
        let bc = eg.add(Node::new(Op::Mul, vec![b, c]));
        let sum = eg.add(Node::new(Op::Add, vec![a, bc]));
        let lhs = compile("(+ ?a (* ?b ?c))");
        let rhs = parse_pattern("(+ (* ?c ?b) ?a)").unwrap();
        let template = RhsNode::compile(&rhs.root, &lhs, "swap");
        let subst = VarSubst::from_regs(&[0, 1, 2], &[a, b, c]);
        assert!(template.instantiate_into(&mut eg, &subst, sum));
        assert!(!template.instantiate_into(&mut eg, &subst, sum), "the term is there now");
        let is_cb = |id: Id| eg.nodes(id).any(|n| *n.op == Op::Mul && n.children == [c, b]);
        assert!(eg
            .nodes(sum)
            .any(|n| *n.op == Op::Add && n.children[1] == a && is_cb(n.children[0])));
    }
}
