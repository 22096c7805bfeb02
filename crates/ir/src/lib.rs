//! `accsat-ir` — the source-level intermediate representation for ACC Saturator.
//!
//! The paper's tool parses OpenACC/OpenMP C sources through XcodeML; this
//! crate provides the equivalent substrate: a C-subset abstract syntax tree
//! with `#pragma acc` / `#pragma omp` directive attachments, a hand-written
//! lexer and recursive-descent parser, a pretty-printer that regenerates
//! compilable C, and traversal utilities used by the SSA builder and the
//! compiler models.
//!
//! The subset covers everything the optimizer touches: scalar and array
//! declarations, assignments (including compound assignments), `if`/`else`,
//! `for` and `while` loops, function calls, ternary expressions, and
//! multi-dimensional array references — i.e. the sequential bodies of
//! innermost parallel loops that ACC Saturator rewrites.

pub mod ast;
mod directive;
mod fingerprint;
mod lexer;
mod parser;
mod printer;
pub mod visit;

pub use ast::{AssignOp, BinOp, Block, Expr, Function, LValue, Param, Program, Stmt, Type, UnOp};
pub use directive::{Directive, DirectiveKind, Model};
pub use fingerprint::{fingerprint_block, fnv1a, fnv1a_mix};
pub use parser::{parse_expr, parse_program, ParseError};
pub use printer::{print_program, print_stmt};
pub use visit::walk_expr;

/// Identifier type used throughout the IR. Kernel sources are small, so a
/// plain `String` keeps the API simple; hot paths intern on their own side.
pub type Ident = String;

/// Locate every innermost parallel loop in a function body.
///
/// ACC Saturator creates one e-graph per innermost *parallel* loop
/// (paper §IV-A): the deepest directive-annotated loop such that no loop in
/// its body carries another parallelism directive. Sequential `for` loops
/// inside the body are part of the optimized region (they become φ nodes).
pub fn innermost_parallel_loops(f: &Function) -> Vec<&ast::ForLoop> {
    let mut out = Vec::new();
    collect_innermost(&f.body, &mut out);
    out
}

fn collect_innermost<'a>(block: &'a Block, out: &mut Vec<&'a ast::ForLoop>) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::For(l) => {
                if l.directive.is_some() {
                    if has_directive_loop(&l.body) {
                        collect_innermost(&l.body, out);
                    } else {
                        out.push(l);
                    }
                } else {
                    collect_innermost(&l.body, out);
                }
            }
            Stmt::If { then, els, .. } => {
                collect_innermost(then, out);
                if let Some(e) = els {
                    collect_innermost(e, out);
                }
            }
            Stmt::While { body, .. } => collect_innermost(body, out),
            Stmt::Block(b) => collect_innermost(b, out),
            _ => {}
        }
    }
}

/// Mutable variant of [`innermost_parallel_loops`]: the same loops, in the
/// same program order, borrowed mutably. The autotuner uses this to splice
/// a tuned candidate body back into a cloned function.
pub fn innermost_parallel_loops_mut(f: &mut Function) -> Vec<&mut ast::ForLoop> {
    let mut out = Vec::new();
    collect_innermost_mut(&mut f.body, &mut out);
    out
}

fn collect_innermost_mut<'a>(block: &'a mut Block, out: &mut Vec<&'a mut ast::ForLoop>) {
    for stmt in &mut block.stmts {
        match stmt {
            Stmt::For(l) => {
                if l.directive.is_some() {
                    if has_directive_loop(&l.body) {
                        collect_innermost_mut(&mut l.body, out);
                    } else {
                        out.push(l);
                    }
                } else {
                    collect_innermost_mut(&mut l.body, out);
                }
            }
            Stmt::If { then, els, .. } => {
                collect_innermost_mut(then, out);
                if let Some(e) = els {
                    collect_innermost_mut(e, out);
                }
            }
            Stmt::While { body, .. } => collect_innermost_mut(body, out),
            Stmt::Block(b) => collect_innermost_mut(b, out),
            _ => {}
        }
    }
}

/// Does the block contain a loop that carries a parallelism directive?
pub fn has_directive_loop(block: &Block) -> bool {
    block.stmts.iter().any(|s| match s {
        Stmt::For(l) => l.directive.is_some() || has_directive_loop(&l.body),
        Stmt::If { then, els, .. } => {
            has_directive_loop(then) || els.as_ref().is_some_and(has_directive_loop)
        }
        Stmt::While { body, .. } => has_directive_loop(body),
        Stmt::Block(b) => has_directive_loop(b),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn innermost_detection_matmul() {
        let src = r#"
void matmul(double a[512][512], double b[512][512], double c[512][512],
            double r[512][512], double alpha, double beta) {
  #pragma acc kernels loop independent
  for (int i = 0; i < 512; i++) {
    #pragma acc loop independent gang(16) vector(256)
    for (int j = 0; j < 512; j++) {
      double tmp = 0.0;
      for (int l = 0; l < 512; l++) {
        tmp = tmp + a[i][l] * b[l][j];
      }
      r[i][j] = alpha * tmp + beta * c[i][j];
    }
  }
}
"#;
        let prog = parse_program(src).expect("parse");
        let loops = innermost_parallel_loops(&prog.functions[0]);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].var, "j");
        // the sequential l-loop stays inside the optimized region
        assert!(loops[0]
            .body
            .stmts
            .iter()
            .any(|s| matches!(s, Stmt::For(l) if l.var == "l" && l.directive.is_none())));
    }

    #[test]
    fn innermost_detection_single_loop() {
        let src = r#"
void axpy(double x[1024], double y[1024], double a) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 1024; i++) {
    y[i] = a * x[i] + y[i];
  }
}
"#;
        let prog = parse_program(src).unwrap();
        let loops = innermost_parallel_loops(&prog.functions[0]);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].var, "i");
    }
}
