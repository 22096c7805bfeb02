//! C pretty-printer: regenerates compilable C (with the original pragmas)
//! from the AST. ACC Saturator's output "is compatible with NVHPC, GCC and
//! Clang" (paper §III) — the printer is what makes the optimized AST a valid
//! drop-in replacement for the user's source.
//!
//! Every statement and expression is written into one output buffer: the
//! recursion builds no `String` of its own, so printing a kernel (and
//! fingerprinting it — the stage cache hashes this text) costs one growing
//! buffer. The four `-> String` functions below are the public wrappers.

use crate::ast::*;
use std::fmt::Write;

/// Print a whole translation unit.
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    for (i, f) in p.functions.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        print_function(f, &mut out);
    }
    out
}

/// Print a single function definition.
pub(crate) fn print_function(f: &Function, out: &mut String) {
    write!(out, "{} {}(", f.ret.c_name(), f.name).unwrap();
    for (i, p) in f.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "{} {}", p.ty.c_name(), p.name).unwrap();
        for d in &p.dims {
            if *d == 0 {
                out.push_str("[]");
            } else {
                write!(out, "[{d}]").unwrap();
            }
        }
    }
    out.push_str(") ");
    write_block(&f.body, 0, out);
    out.push('\n');
}

fn indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

/// Print a block (braces included) at indentation level 0.
///
/// This is the *canonical form* the stage cache hashes: comments and
/// incidental whitespace are gone after parsing, so two sources differing
/// only cosmetically print — and therefore hash — identically.
pub(crate) fn print_block_string(b: &Block) -> String {
    let mut out = String::new();
    write_block(b, 0, &mut out);
    out
}

fn write_block(b: &Block, level: usize, out: &mut String) {
    out.push_str("{\n");
    for s in &b.stmts {
        write_stmt(s, level + 1, out);
    }
    indent(level, out);
    out.push('}');
}

/// Print a statement at indentation level 0 (for tests and snippets).
pub fn print_stmt(s: &Stmt) -> String {
    let mut out = String::new();
    write_stmt(s, 0, &mut out);
    out
}

fn write_stmt(s: &Stmt, level: usize, out: &mut String) {
    indent(level, out);
    match s {
        Stmt::Decl { ty, name, init } => {
            write!(out, "{} {name}", ty.c_name()).unwrap();
            if let Some(e) = init {
                out.push_str(" = ");
                write_expr(e, 0, out);
            }
            out.push_str(";\n");
        }
        Stmt::Assign { lhs, op, rhs } => {
            match lhs {
                LValue::Var(n) => out.push_str(n),
                LValue::Index { base, indices } => write_index(base, indices, out),
            }
            write!(out, " {} ", op.c_name()).unwrap();
            write_expr(rhs, 0, out);
            out.push_str(";\n");
        }
        Stmt::If { cond, then, els } => {
            out.push_str("if (");
            write_expr(cond, 0, out);
            out.push_str(") ");
            write_block(then, level, out);
            if let Some(e) = els {
                out.push_str(" else ");
                write_block(e, level, out);
            }
            out.push('\n');
        }
        Stmt::For(l) => {
            if let Some(d) = &l.directive {
                writeln!(out, "#pragma {d}").unwrap();
                indent(level, out);
            }
            let decl = if l.declares_var { "int " } else { "" };
            write!(out, "for ({decl}{} = ", l.var).unwrap();
            write_expr(&l.init, 0, out);
            out.push_str("; ");
            write_expr(&l.cond, 0, out);
            write!(out, "; {}", l.var).unwrap();
            match &l.step {
                Expr::Int(1) => out.push_str("++"),
                Expr::Int(-1) => out.push_str("--"),
                e => {
                    out.push_str(" += ");
                    write_expr(e, 0, out);
                }
            }
            out.push_str(") ");
            write_block(&l.body, level, out);
            out.push('\n');
        }
        Stmt::While { cond, body } => {
            out.push_str("while (");
            write_expr(cond, 0, out);
            out.push_str(") ");
            write_block(body, level, out);
            out.push('\n');
        }
        Stmt::Block(b) => {
            write_block(b, level, out);
            out.push('\n');
        }
        Stmt::Expr(e) => {
            write_expr(e, 0, out);
            out.push_str(";\n");
        }
        Stmt::Return(e) => match e {
            Some(e) => {
                out.push_str("return ");
                write_expr(e, 0, out);
                out.push_str(";\n");
            }
            None => out.push_str("return;\n"),
        },
    }
}

fn prec(e: &Expr) -> u8 {
    match e {
        Expr::Ternary { .. } => 1,
        Expr::Binary { op, .. } => match op {
            BinOp::Or => 2,
            BinOp::And => 3,
            BinOp::Eq | BinOp::Ne => 4,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 5,
            BinOp::Add | BinOp::Sub => 6,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 7,
        },
        Expr::Unary { .. } | Expr::Cast { .. } => 8,
        _ => 9,
    }
}

fn write_index(base: &str, indices: &[Expr], out: &mut String) {
    out.push_str(base);
    for i in indices {
        out.push('[');
        write_expr(i, 0, out);
        out.push(']');
    }
}

/// Write `e`, parenthesized when it binds looser than `min`.
fn write_expr(e: &Expr, min: u8, out: &mut String) {
    let p = prec(e);
    if p < min {
        out.push('(');
    }
    match e {
        Expr::Int(v) => write!(out, "{v}").unwrap(),
        Expr::Float(v) => {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                write!(out, "{v:.1}").unwrap()
            } else {
                write!(out, "{v}").unwrap()
            }
        }
        Expr::Var(n) => out.push_str(n),
        Expr::Index { base, indices } => write_index(base, indices, out),
        Expr::Unary { op, operand } => {
            out.push(match op {
                UnOp::Neg => '-',
                UnOp::Not => '!',
            });
            write_expr(operand, p + 1, out);
        }
        Expr::Binary { op, lhs, rhs } => {
            // left-associative: rhs needs strictly higher precedence
            write_expr(lhs, p, out);
            write!(out, " {} ", op.c_name()).unwrap();
            write_expr(rhs, p + 1, out);
        }
        Expr::Call { name, args } => {
            out.push_str(name);
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(a, 0, out);
            }
            out.push(')');
        }
        Expr::Ternary { cond, then, els } => {
            write_expr(cond, p + 1, out);
            out.push_str(" ? ");
            write_expr(then, 0, out);
            out.push_str(" : ");
            write_expr(els, p, out);
        }
        Expr::Cast { ty, expr } => {
            write!(out, "({})", ty.c_name()).unwrap();
            write_expr(expr, p, out);
        }
    }
    if p < min {
        out.push(')');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_program};

    /// Round-trip: parse → print → parse must be a fixpoint on the AST.
    fn roundtrip_expr(src: &str) {
        let e1 = parse_expr(src).unwrap();
        let mut printed = String::new();
        write_expr(&e1, 0, &mut printed);
        let e2 = parse_expr(&printed).unwrap_or_else(|err| {
            panic!("reparse of `{printed}` failed: {err}");
        });
        assert_eq!(e1, e2, "round-trip mismatch: `{src}` → `{printed}`");
    }

    #[test]
    fn expr_roundtrips() {
        for src in [
            "a + b * c",
            "(a + b) * c",
            "a - (b - c)",
            "a / b / c",
            "-a * -b",
            "a[i][j] + b[j][i]",
            "f(x, y + 1)",
            "a < b ? a : b",
            "x % 4 == 0 && y != 2",
            "alpha * tmp + beta * c[i][j]",
            "-(a + b)",
            "(double)n / 2.0",
        ] {
            roundtrip_expr(src);
        }
    }

    #[test]
    fn program_roundtrips() {
        let src = r#"
void k(double a[16][16], double b[16][16], int n) {
  #pragma acc parallel loop gang num_gangs(8) vector_length(32)
  for (int i = 0; i < n; i++) {
    #pragma acc loop vector
    for (int j = 0; j < n; j++) {
      double t = a[i][j];
      if (t < 0.0) {
        t = -t;
      }
      b[i][j] = t * 2.0 + 1.0;
    }
  }
}
"#;
        let p1 = parse_program(src).unwrap();
        let printed = print_program(&p1);
        let p2 = parse_program(&printed).unwrap();
        assert_eq!(p1, p2, "program round-trip failed:\n{printed}");
        assert!(printed.contains("#pragma acc parallel loop gang num_gangs(8)"));
    }

    #[test]
    fn negative_step_prints() {
        let src = "void f() { for (int i = 10; i > 0; i--) { } }";
        let p = parse_program(src).unwrap();
        let printed = print_program(&p);
        assert!(printed.contains("i--"), "{printed}");
    }

    #[test]
    fn float_formatting_stays_float() {
        // 2.0 must not print as `2` (integer division hazards in C)
        let e = parse_expr("x / 2.0").unwrap();
        let mut printed = String::new();
        write_expr(&e, 0, &mut printed);
        assert_eq!(printed, "x / 2.0");
    }
}
