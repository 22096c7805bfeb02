//! Traversal utilities over the AST.

use crate::ast::*;

/// Visitor over expressions. `visit` is called for every node, parents first.
pub trait ExprVisitor {
    fn visit(&mut self, e: &Expr);
}

impl<F: FnMut(&Expr)> ExprVisitor for F {
    fn visit(&mut self, e: &Expr) {
        self(e)
    }
}

/// Walk an expression tree, calling the visitor on every node (pre-order).
pub fn walk_expr<V: ExprVisitor>(e: &Expr, v: &mut V) {
    v.visit(e);
    match e {
        Expr::Int(_) | Expr::Float(_) | Expr::Var(_) => {}
        Expr::Index { indices, .. } => {
            for i in indices {
                walk_expr(i, v);
            }
        }
        Expr::Unary { operand, .. } => walk_expr(operand, v),
        Expr::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, v);
            walk_expr(rhs, v);
        }
        Expr::Call { args, .. } => {
            for a in args {
                walk_expr(a, v);
            }
        }
        Expr::Ternary { cond, then, els } => {
            walk_expr(cond, v);
            walk_expr(then, v);
            walk_expr(els, v);
        }
        Expr::Cast { expr, .. } => walk_expr(expr, v),
    }
}

/// Count loads (array reads) and arithmetic operations in a block — a quick
/// static profile used by tests and the compiler models.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StaticProfile {
    pub loads: usize,
    pub stores: usize,
    pub flops: usize,
    pub calls: usize,
    pub divs: usize,
}

/// Compute a [`StaticProfile`] for a block.
pub fn static_profile(block: &Block) -> StaticProfile {
    let mut p = StaticProfile::default();
    fn go_expr(e: &Expr, p: &mut StaticProfile) {
        match e {
            Expr::Index { indices, .. } => {
                p.loads += 1;
                for i in indices {
                    go_expr(i, p);
                }
            }
            Expr::Unary { operand, .. } => {
                p.flops += 1;
                go_expr(operand, p);
            }
            Expr::Binary { op, lhs, rhs } => {
                match op {
                    BinOp::Div | BinOp::Mod => p.divs += 1,
                    _ => p.flops += 1,
                }
                go_expr(lhs, p);
                go_expr(rhs, p);
            }
            Expr::Call { args, .. } => {
                p.calls += 1;
                for a in args {
                    go_expr(a, p);
                }
            }
            Expr::Ternary { cond, then, els } => {
                p.flops += 1;
                go_expr(cond, p);
                go_expr(then, p);
                go_expr(els, p);
            }
            Expr::Cast { expr, .. } => go_expr(expr, p),
            _ => {}
        }
    }
    fn go_stmt(s: &Stmt, p: &mut StaticProfile) {
        match s {
            Stmt::Decl { init, .. } => {
                if let Some(e) = init {
                    go_expr(e, p);
                }
            }
            Stmt::Assign { lhs, op, rhs } => {
                if let LValue::Index { indices, .. } = lhs {
                    p.stores += 1;
                    for i in indices {
                        go_expr(i, p);
                    }
                    // compound assignment also loads the old value
                    if op.binop().is_some() {
                        p.loads += 1;
                    }
                }
                if op.binop().is_some() {
                    p.flops += 1;
                }
                go_expr(rhs, p);
            }
            Stmt::If { cond, then, els } => {
                go_expr(cond, p);
                for s in &then.stmts {
                    go_stmt(s, p);
                }
                if let Some(e) = els {
                    for s in &e.stmts {
                        go_stmt(s, p);
                    }
                }
            }
            Stmt::For(l) => {
                go_expr(&l.cond, p);
                for s in &l.body.stmts {
                    go_stmt(s, p);
                }
            }
            Stmt::While { cond, body } => {
                go_expr(cond, p);
                for s in &body.stmts {
                    go_stmt(s, p);
                }
            }
            Stmt::Block(b) => {
                for s in &b.stmts {
                    go_stmt(s, p);
                }
            }
            Stmt::Expr(e) => go_expr(e, p),
            Stmt::Return(Some(e)) => go_expr(e, p),
            Stmt::Return(None) => {}
        }
    }
    for s in &block.stmts {
        go_stmt(s, &mut p);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn body_of(src: &str) -> Block {
        parse_program(src).unwrap().functions[0].body.clone()
    }

    #[test]
    fn static_profile_counts() {
        let b = body_of("void f(double a[4], double b[4]) { b[0] = a[0] * a[1] + a[2] / a[3]; }");
        let p = static_profile(&b);
        assert_eq!(p.loads, 4);
        assert_eq!(p.stores, 1);
        assert_eq!(p.flops, 2); // * and +
        assert_eq!(p.divs, 1);
    }

    #[test]
    fn compound_assign_counts_extra_load() {
        let b = body_of("void f(double a[4]) { a[0] += 1.0; }");
        let p = static_profile(&b);
        assert_eq!(p.loads, 1);
        assert_eq!(p.stores, 1);
        assert_eq!(p.flops, 1);
    }
}
