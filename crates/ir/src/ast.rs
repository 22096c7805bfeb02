//! Abstract syntax tree for the C subset ACC Saturator optimizes.

use crate::directive::Directive;
use crate::Ident;

/// Scalar and array types of the C subset.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// `int` (also used for `long`, which the optimizer treats identically).
    Int,
    /// `float` — single precision.
    Float,
    /// `double` — the dominant type in the HPC kernels of the evaluation.
    Double,
    /// `void` — function return type only.
    Void,
}

impl Type {
    /// C spelling of this type.
    pub fn c_name(&self) -> &'static str {
        match self {
            Type::Int => "int",
            Type::Float => "float",
            Type::Double => "double",
            Type::Void => "void",
        }
    }
}

/// Binary operators. Comparison and logical operators appear in loop and
/// branch conditions; arithmetic operators in kernel bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
}

impl BinOp {
    /// C spelling of the operator.
    pub fn c_name(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-x`.
    Neg,
    /// Logical not `!x`.
    Not,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Floating literal (parsed as `f64`).
    Float(f64),
    /// Scalar variable reference.
    Var(Ident),
    /// Multi-dimensional array reference `base[i0][i1]…`.
    Index { base: Ident, indices: Vec<Expr> },
    /// Unary operation.
    Unary { op: UnOp, operand: Box<Expr> },
    /// Binary operation.
    Binary { op: BinOp, lhs: Box<Expr>, rhs: Box<Expr> },
    /// Function call, e.g. `sqrt(x)`.
    Call { name: Ident, args: Vec<Expr> },
    /// Ternary conditional `c ? t : e`.
    Ternary { cond: Box<Expr>, then: Box<Expr>, els: Box<Expr> },
    /// C cast `(double)x` — kept for fidelity; the optimizer treats it as a
    /// unit-cost conversion.
    Cast { ty: Type, expr: Box<Expr> },
}

impl Expr {
    /// Convenience constructor for binary expressions.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    /// Convenience constructor for `-x`.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(e: Expr) -> Expr {
        Expr::Unary { op: UnOp::Neg, operand: Box::new(e) }
    }

    /// Convenience constructor for a variable reference.
    pub fn var(name: &str) -> Expr {
        Expr::Var(name.to_string())
    }

    /// Number of nodes in this expression tree (used in size heuristics and
    /// tests).
    pub fn size(&self) -> usize {
        match self {
            Expr::Int(_) | Expr::Float(_) | Expr::Var(_) => 1,
            Expr::Index { indices, .. } => 1 + indices.iter().map(Expr::size).sum::<usize>(),
            Expr::Unary { operand, .. } => 1 + operand.size(),
            Expr::Binary { lhs, rhs, .. } => 1 + lhs.size() + rhs.size(),
            Expr::Call { args, .. } => 1 + args.iter().map(Expr::size).sum::<usize>(),
            Expr::Ternary { cond, then, els } => 1 + cond.size() + then.size() + els.size(),
            Expr::Cast { expr, .. } => 1 + expr.size(),
        }
    }
}

/// Assignment targets: either a scalar or an array element.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// Scalar assignment target.
    Var(Ident),
    /// Array element assignment target.
    Index { base: Ident, indices: Vec<Expr> },
}

impl LValue {
    /// Name of the variable or array being assigned.
    pub fn base(&self) -> &str {
        match self {
            LValue::Var(n) => n,
            LValue::Index { base, .. } => base,
        }
    }
}

/// Assignment operators. Compound assignments are desugared by the SSA
/// builder (`a += b` behaves as `a = a + b`) but preserved in the AST so the
/// printer can round-trip user code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    Assign,
    AddAssign,
    SubAssign,
    MulAssign,
    DivAssign,
}

impl AssignOp {
    /// The binary operator a compound assignment desugars to.
    pub fn binop(&self) -> Option<BinOp> {
        match self {
            AssignOp::Assign => None,
            AssignOp::AddAssign => Some(BinOp::Add),
            AssignOp::SubAssign => Some(BinOp::Sub),
            AssignOp::MulAssign => Some(BinOp::Mul),
            AssignOp::DivAssign => Some(BinOp::Div),
        }
    }

    /// C spelling.
    pub fn c_name(&self) -> &'static str {
        match self {
            AssignOp::Assign => "=",
            AssignOp::AddAssign => "+=",
            AssignOp::SubAssign => "-=",
            AssignOp::MulAssign => "*=",
            AssignOp::DivAssign => "/=",
        }
    }
}

/// A `for` loop, possibly carrying an OpenACC/OpenMP directive.
///
/// Loops are normalized to the canonical `for (init; cond; step)` shape with
/// a single induction variable, matching the loops that directive-based GPU
/// codes offload.
#[derive(Debug, Clone, PartialEq)]
pub struct ForLoop {
    /// Induction variable name.
    pub var: Ident,
    /// Whether the loop declares its induction variable (`for (int i = …`).
    pub declares_var: bool,
    /// Initial value expression.
    pub init: Expr,
    /// Loop condition (evaluated before each iteration).
    pub cond: Expr,
    /// Step expression: the value added to `var` each iteration
    /// (`i++` ⇒ `1`, `i += 4` ⇒ `4`).
    pub step: Expr,
    /// Loop body.
    pub body: Block,
    /// Attached parallelism directive, if any.
    pub directive: Option<Directive>,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Scalar declaration with optional initializer.
    Decl { ty: Type, name: Ident, init: Option<Expr> },
    /// Assignment (simple or compound).
    Assign { lhs: LValue, op: AssignOp, rhs: Expr },
    /// `if`/`else`.
    If { cond: Expr, then: Block, els: Option<Block> },
    /// `for` loop.
    For(ForLoop),
    /// `while` loop (rare in kernels; not rewritten, only round-tripped).
    While { cond: Expr, body: Block },
    /// Nested block.
    Block(Block),
    /// Expression statement (function call for effect).
    Expr(Expr),
    /// `return;` or `return e;`.
    Return(Option<Expr>),
}

/// A brace-delimited statement sequence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

impl Block {
    /// Create a block from statements.
    pub fn new(stmts: Vec<Stmt>) -> Block {
        Block { stmts }
    }

    /// Total number of statements in this block, recursively.
    pub fn stmt_count(&self) -> usize {
        self.stmts
            .iter()
            .map(|s| match s {
                Stmt::If { then, els, .. } => {
                    1 + then.stmt_count() + els.as_ref().map_or(0, Block::stmt_count)
                }
                Stmt::For(l) => 1 + l.body.stmt_count(),
                Stmt::While { body, .. } => 1 + body.stmt_count(),
                Stmt::Block(b) => b.stmt_count(),
                _ => 1,
            })
            .sum()
    }
}

/// A function parameter. Array parameters carry their declared dimensions so
/// the interpreter and simulator can allocate and bound-check storage.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    pub name: Ident,
    pub ty: Type,
    /// Empty for scalars; `[d0, d1, …]` for array parameters.
    pub dims: Vec<usize>,
}

impl Param {
    /// Scalar parameter constructor.
    pub fn scalar(name: &str, ty: Type) -> Param {
        Param { name: name.to_string(), ty, dims: Vec::new() }
    }

    /// Array parameter constructor.
    pub fn array(name: &str, ty: Type, dims: &[usize]) -> Param {
        Param { name: name.to_string(), ty, dims: dims.to_vec() }
    }

    /// Is this parameter an array?
    pub fn is_array(&self) -> bool {
        !self.dims.is_empty()
    }

    /// Total number of elements of an array parameter (1 for scalars).
    pub fn len(&self) -> usize {
        self.dims.iter().product::<usize>().max(1)
    }

    /// True if an array parameter has a zero-sized dimension.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    pub name: Ident,
    pub ret: Type,
    pub params: Vec<Param>,
    pub body: Block,
}

/// A translation unit: an ordered list of function definitions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    pub functions: Vec<Function>,
}

impl Program {
    /// Look up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_size_counts_nodes() {
        // a[i] + 2.0 * b  has nodes: +, a[i], i, *, 2.0, b  = 6
        let e = Expr::bin(
            BinOp::Add,
            Expr::Index { base: "a".into(), indices: vec![Expr::var("i")] },
            Expr::bin(BinOp::Mul, Expr::Float(2.0), Expr::var("b")),
        );
        assert_eq!(e.size(), 6);
    }

    #[test]
    fn compound_assign_desugars() {
        assert_eq!(AssignOp::AddAssign.binop(), Some(BinOp::Add));
        assert_eq!(AssignOp::Assign.binop(), None);
    }

    #[test]
    fn block_stmt_count_recurses() {
        let inner = Block::new(vec![
            Stmt::Assign { lhs: LValue::Var("x".into()), op: AssignOp::Assign, rhs: Expr::Int(1) },
            Stmt::Assign { lhs: LValue::Var("y".into()), op: AssignOp::Assign, rhs: Expr::Int(2) },
        ]);
        let b = Block::new(vec![Stmt::If { cond: Expr::var("c"), then: inner, els: None }]);
        assert_eq!(b.stmt_count(), 3);
    }

    #[test]
    fn param_helpers() {
        let p = Param::array("a", Type::Double, &[4, 8]);
        assert!(p.is_array());
        assert_eq!(p.len(), 32);
        let s = Param::scalar("x", Type::Int);
        assert!(!s.is_array());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn type_properties() {
        assert_eq!(Type::Float.c_name(), "float");
    }
}
