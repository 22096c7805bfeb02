//! The e-node term language for ACC Saturator's SSA form.
//!
//! Every SSA value in a kernel body becomes an e-node: constants, input
//! symbols, arithmetic, FMA (the target of Table I's rewrite rules), array
//! `Load`/`Store` in SSA style (a store yields a *new array value*, paper
//! §IV-A), branch φ (`Select`), loop φ (`PhiLoop`), and opaque function
//! calls.

use std::fmt;

/// An e-class id. Internally an index into the union-find.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Id(pub(crate) u32);

impl Id {
    /// The id with this index. Cannot fail, unlike `Id::from(usize)` —
    /// what a reader of untrusted text converts a checked `u32` with.
    pub const fn new(index: u32) -> Id {
        Id(index)
    }

    /// The index this id wraps.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for Id {
    fn from(v: usize) -> Id {
        Id(u32::try_from(v).expect("e-graph exceeded u32 ids"))
    }
}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Operator of an e-node. Payload-carrying variants are leaves or carry
/// identity beyond their children (symbols, constants, call names).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    /// Integer constant.
    Int(i64),
    /// Floating constant, stored as bits so `Op: Eq + Hash`. NaNs are
    /// canonicalized on construction.
    Float(u64),
    /// Input symbol: a kernel parameter, loop index, or initial variable
    /// value. Also used for the abstract initial state of an array.
    Sym(String),
    /// Abstract loop condition symbol for φ-for nodes (paper Fig. 1:
    /// `Φ(for-cond, for-x, x0)`); carries the loop's stable label.
    LoopCond(String),

    // -- arithmetic (children in node.children) --
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (a heavy op in the cost model).
    Div,
    /// Modulo (a heavy op in the cost model).
    Mod,
    /// Arithmetic negation.
    Neg,
    /// Fused multiply-add: `Fma(a, b, c) = a + b * c` (paper Table I).
    Fma,

    // -- comparisons / logic (appear in conditions feeding φ nodes) --
    /// Less-than comparison.
    Lt,
    /// Less-or-equal comparison.
    Le,
    /// Greater-than comparison.
    Gt,
    /// Greater-or-equal comparison.
    Ge,
    /// Equality comparison.
    Eq,
    /// Inequality comparison.
    Ne,
    /// Logical and.
    And,
    /// Logical or.
    Or,
    /// Logical not.
    Not,

    /// Branch φ / ternary: `Select(cond, then, else)`.
    Select,
    /// Loop-carried φ: `PhiLoop(cond, body_value, init_value)`.
    PhiLoop,
    /// Array load: `Load(array_value, idx0, idx1, …)`.
    Load,
    /// Array store producing a new array value:
    /// `Store(array_value, idx0, …, value)`.
    Store,
    /// Opaque function call by name: `Call(args…)`.
    Call(String),
    /// Cast to integer (a cost-free register move in the model).
    CastInt,
    /// Cast to floating point (cost-free, like [`Op::CastInt`]).
    CastFloat,
}

impl Op {
    /// Make a float op with canonical NaN bits.
    pub fn float(v: f64) -> Op {
        let v = if v.is_nan() { f64::NAN } else { v };
        Op::Float(v.to_bits())
    }

    /// Read back a float constant.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Op::Float(bits) => Some(f64::from_bits(*bits)),
            _ => None,
        }
    }

    /// Read back an integer constant.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Op::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Is this op a leaf (never has children)?
    pub fn is_leaf(&self) -> bool {
        matches!(self, Op::Int(_) | Op::Float(_) | Op::Sym(_) | Op::LoopCond(_))
    }

    /// Display name used by pattern syntax and debugging.
    pub fn name(&self) -> String {
        match self {
            Op::Int(v) => v.to_string(),
            Op::Float(b) => format!("{}", f64::from_bits(*b)),
            Op::Sym(s) => s.clone(),
            Op::LoopCond(l) => format!("loopcond:{l}"),
            Op::Add => "+".into(),
            Op::Sub => "-".into(),
            Op::Mul => "*".into(),
            Op::Div => "/".into(),
            Op::Mod => "%".into(),
            Op::Neg => "neg".into(),
            Op::Fma => "fma".into(),
            Op::Lt => "<".into(),
            Op::Le => "<=".into(),
            Op::Gt => ">".into(),
            Op::Ge => ">=".into(),
            Op::Eq => "==".into(),
            Op::Ne => "!=".into(),
            Op::And => "&&".into(),
            Op::Or => "||".into(),
            Op::Not => "!".into(),
            Op::Select => "select".into(),
            Op::PhiLoop => "phi-loop".into(),
            Op::Load => "load".into(),
            Op::Store => "store".into(),
            Op::Call(n) => format!("call:{n}"),
            Op::CastInt => "cast-int".into(),
            Op::CastFloat => "cast-float".into(),
        }
    }

    /// Parse an operator name as used in pattern syntax. Returns `None` for
    /// pattern variables and unknown words (treated as symbols by the
    /// pattern parser).
    pub fn from_name(name: &str) -> Option<Op> {
        Some(match name {
            "+" => Op::Add,
            "-" => Op::Sub,
            "*" => Op::Mul,
            "/" => Op::Div,
            "%" => Op::Mod,
            "neg" => Op::Neg,
            "fma" => Op::Fma,
            "<" => Op::Lt,
            "<=" => Op::Le,
            ">" => Op::Gt,
            ">=" => Op::Ge,
            "==" => Op::Eq,
            "!=" => Op::Ne,
            "&&" => Op::And,
            "||" => Op::Or,
            "!" => Op::Not,
            "select" => Op::Select,
            "phi-loop" => Op::PhiLoop,
            "load" => Op::Load,
            "store" => Op::Store,
            "cast-int" => Op::CastInt,
            "cast-float" => Op::CastFloat,
            _ => {
                if let Some(rest) = name.strip_prefix("call:") {
                    Op::Call(rest.to_string())
                } else if let Ok(v) = name.parse::<i64>() {
                    Op::Int(v)
                } else if let Ok(v) = name.parse::<f64>() {
                    Op::float(v)
                } else {
                    return None;
                }
            }
        })
    }
}

/// An e-node: an operator applied to e-class children.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Node {
    /// Head operator.
    pub op: Op,
    /// Child e-classes, in operator order.
    pub children: Vec<Id>,
}

impl Node {
    /// Construct a node.
    pub fn new(op: Op, children: Vec<Id>) -> Node {
        debug_assert!(!op.is_leaf() || children.is_empty(), "leaf op with children: {op:?}");
        Node { op, children }
    }

    /// Leaf constructor.
    pub fn leaf(op: Op) -> Node {
        Node::new(op, Vec::new())
    }

    /// Integer constant node.
    pub fn int(v: i64) -> Node {
        Node::leaf(Op::Int(v))
    }

    /// Float constant node.
    pub fn float(v: f64) -> Node {
        Node::leaf(Op::float(v))
    }

    /// Symbol node.
    pub fn sym(name: &str) -> Node {
        Node::leaf(Op::Sym(name.to_string()))
    }

    /// Borrow as the view type the e-graph hands out for stored e-nodes.
    pub fn as_ref(&self) -> NodeRef<'_> {
        NodeRef { op: &self.op, children: &self.children }
    }
}

/// A borrowed e-node: how the e-graph shows the forms it stores (see
/// [`crate::arena`]). Orders and compares exactly like the owned [`Node`]
/// with the same operator and children.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef<'a> {
    /// Head operator.
    pub op: &'a Op,
    /// Child e-classes, in operator order.
    pub children: &'a [Id],
}

impl NodeRef<'_> {
    /// An owned copy — the boundary type of `add`, patterns and selections.
    pub fn to_node(self) -> Node {
        Node { op: self.op.clone(), children: self.children.to_vec() }
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_ref().fmt(f)
    }
}

impl fmt::Display for NodeRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.children.is_empty() {
            write!(f, "{}", self.op.name())
        } else {
            write!(f, "({}", self.op.name())?;
            for c in self.children {
                write!(f, " {c}")?;
            }
            write!(f, ")")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_bits_roundtrip() {
        let op = Op::float(0.25);
        assert_eq!(op.as_float(), Some(0.25));
        // equal constants hash-cons to the same op
        assert_eq!(Op::float(1.5), Op::float(1.5));
    }

    #[test]
    fn nan_is_canonical() {
        assert_eq!(Op::float(f64::NAN), Op::float(-f64::NAN));
    }

    #[test]
    fn op_name_roundtrip() {
        for op in [
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::Div,
            Op::Mod,
            Op::Neg,
            Op::Fma,
            Op::Lt,
            Op::Le,
            Op::Gt,
            Op::Ge,
            Op::Eq,
            Op::Ne,
            Op::And,
            Op::Or,
            Op::Not,
            Op::Select,
            Op::PhiLoop,
            Op::Load,
            Op::Store,
            Op::Int(42),
            Op::float(2.5),
            Op::Call("sqrt".into()),
        ] {
            assert_eq!(Op::from_name(&op.name()), Some(op.clone()), "op {op:?}");
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert_eq!(Op::from_name("someident"), None);
    }

    #[test]
    fn display_sexp() {
        let n = Node::new(Op::Add, vec![Id::from(0), Id::from(1)]);
        assert_eq!(n.to_string(), "(+ e0 e1)");
        assert_eq!(Node::int(3).to_string(), "3");
    }
}
