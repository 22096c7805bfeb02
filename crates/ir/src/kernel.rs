//! What a kernel is and how long its loops run — decided once, here, for
//! the optimizer, the compiler models, the simulator and the tuner.
//!
//! A *kernel* is a directive loop with no directive loop inside (paper
//! §IV-A: ACC Saturator creates one e-graph per innermost *parallel* loop).
//! Kernels are found through every statement that holds a block — `for`,
//! `if`/`else`, `while` and bare blocks — and numbered in program order.
//! Sequential `for` loops inside a kernel are part of its body (they become
//! φ nodes).

use crate::ast::{BinOp, Block, Expr, ForLoop, Function, Stmt, UnOp};

/// Is `l` a kernel: a directive loop with no directive loop inside?
fn is_kernel(l: &ForLoop) -> bool {
    l.directive.is_some() && !has_directive_loop(&l.body)
}

/// Does the block contain a loop that carries a parallelism directive?
fn has_directive_loop(block: &Block) -> bool {
    block.stmts.iter().any(|s| {
        matches!(s, Stmt::For(l) if l.directive.is_some()) || blocks(s).any(has_directive_loop)
    })
}

/// The blocks nested directly in `s`, in program order.
fn blocks(s: &Stmt) -> impl Iterator<Item = &Block> {
    let (first, second) = match s {
        Stmt::If { then, els, .. } => (Some(then), els.as_ref()),
        Stmt::For(ForLoop { body, .. }) | Stmt::While { body, .. } | Stmt::Block(body) => {
            (Some(body), None)
        }
        _ => (None, None),
    };
    first.into_iter().chain(second)
}

/// [`blocks`], borrowed mutably.
fn blocks_mut(s: &mut Stmt) -> impl Iterator<Item = &mut Block> {
    let (first, second) = match s {
        Stmt::If { then, els, .. } => (Some(then), els.as_mut()),
        Stmt::For(ForLoop { body, .. }) | Stmt::While { body, .. } | Stmt::Block(body) => {
            (Some(body), None)
        }
        _ => (None, None),
    };
    first.into_iter().chain(second)
}

/// Every kernel of a function, in program order.
pub fn innermost_parallel_loops(f: &Function) -> Vec<&ForLoop> {
    fn collect<'a>(block: &'a Block, out: &mut Vec<&'a ForLoop>) {
        for s in &block.stmts {
            match s {
                Stmt::For(l) => {
                    if is_kernel(l) {
                        out.push(l)
                    } else {
                        collect(&l.body, out)
                    }
                }
                s => blocks(s).for_each(|b| collect(b, out)),
            }
        }
    }
    let mut out = Vec::new();
    collect(&f.body, &mut out);
    out
}

/// [`innermost_parallel_loops`], borrowed mutably: the pipeline swaps each
/// kernel's optimized body in through it.
pub fn innermost_parallel_loops_mut(f: &mut Function) -> Vec<&mut ForLoop> {
    fn collect<'a>(block: &'a mut Block, out: &mut Vec<&'a mut ForLoop>) {
        for s in &mut block.stmts {
            match s {
                Stmt::For(l) => {
                    if is_kernel(l) {
                        out.push(l)
                    } else {
                        collect(&mut l.body, out)
                    }
                }
                s => blocks_mut(s).for_each(|b| collect(b, out)),
            }
        }
    }
    let mut out = Vec::new();
    collect(&mut f.body, &mut out);
    out
}

/// The `for` loops enclosing kernel `k` (its index in
/// [`innermost_parallel_loops`]), outermost first and ending with the
/// kernel itself. `if`, `while` and block wrappers are stepped through and
/// left out; sibling statements are not on the chain. `None` if `f` has no
/// kernel `k`.
pub fn kernel_nest(f: &Function, k: usize) -> Option<Vec<&ForLoop>> {
    fn walk<'a>(block: &'a Block, k: &mut usize, chain: &mut Vec<&'a ForLoop>) -> bool {
        block.stmts.iter().any(|s| match s {
            Stmt::For(l) if is_kernel(l) => {
                if *k == 0 {
                    chain.push(l);
                    return true;
                }
                *k -= 1;
                false
            }
            Stmt::For(l) => {
                chain.push(l);
                let found = walk(&l.body, k, chain);
                if !found {
                    chain.pop();
                }
                found
            }
            s => blocks(s).any(|b| walk(b, k, chain)),
        })
    }
    let (mut k, mut chain) = (k, Vec::new());
    walk(&f.body, &mut k, &mut chain).then_some(chain)
}

/// Evaluate an integer expression, reading variables through `lookup`.
/// `None` if a variable is unknown, the expression is not integral, or any
/// step overflows or divides by zero. Comparisons and `&&`/`||` give 0 or 1.
pub fn const_eval(e: &Expr, lookup: &dyn Fn(&str) -> Option<i64>) -> Option<i64> {
    match e {
        Expr::Int(v) => Some(*v),
        Expr::Float(v) if v.fract() == 0.0 => Some(*v as i64),
        Expr::Var(n) => lookup(n),
        Expr::Unary { op: UnOp::Neg, operand } => const_eval(operand, lookup)?.checked_neg(),
        Expr::Binary { op, lhs, rhs } => {
            let (a, b) = (const_eval(lhs, lookup)?, const_eval(rhs, lookup)?);
            match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                BinOp::Div => a.checked_div(b),
                BinOp::Mod => a.checked_rem(b),
                BinOp::Lt => Some((a < b) as i64),
                BinOp::Le => Some((a <= b) as i64),
                BinOp::Gt => Some((a > b) as i64),
                BinOp::Ge => Some((a >= b) as i64),
                BinOp::Eq => Some((a == b) as i64),
                BinOp::Ne => Some((a != b) as i64),
                BinOp::And => Some((a != 0 && b != 0) as i64),
                BinOp::Or => Some((a != 0 || b != 0) as i64),
            }
        }
        Expr::Cast { expr, .. } => const_eval(expr, lookup),
        _ => None,
    }
}

/// Trip count of a canonical loop whose condition compares its variable
/// with a bound, on either side (`i < n` or `n > i`). `None` if the
/// condition has another shape, a value is unknown, the step is zero, or
/// the count overflows.
pub fn trip_count(l: &ForLoop, lookup: &dyn Fn(&str) -> Option<i64>) -> Option<i64> {
    let init = const_eval(&l.init, lookup)?;
    let step = const_eval(&l.step, lookup)?;
    let Expr::Binary { op, lhs, rhs } = &l.cond else { return None };
    // `bound OP i` is `i OP' bound` with the comparison mirrored
    let (op, bound) = match (lhs.as_ref(), rhs.as_ref()) {
        (Expr::Var(v), bound) if *v == l.var => (*op, bound),
        (bound, Expr::Var(v)) if *v == l.var => match op {
            BinOp::Lt => (BinOp::Gt, bound),
            BinOp::Le => (BinOp::Ge, bound),
            BinOp::Gt => (BinOp::Lt, bound),
            BinOp::Ge => (BinOp::Le, bound),
            _ => return None,
        },
        _ => return None,
    };
    let bound = const_eval(bound, lookup)?;
    // count the steps from `from` towards `to`, a descending loop mirrored
    let (from, to, step) = match op {
        BinOp::Lt | BinOp::Le => (init, bound, step),
        BinOp::Gt | BinOp::Ge => (bound, init, step.checked_neg()?),
        _ => return None,
    };
    let span = to.checked_sub(from)?.checked_add(step)?;
    let span = if matches!(op, BinOp::Lt | BinOp::Gt) { span.checked_sub(1)? } else { span };
    Some(span.checked_div_euclid(step)?.max(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;
    use std::collections::HashMap;

    fn function(src: &str) -> Function {
        parse_program(src).expect("parse").functions.remove(0)
    }

    fn vars(chain: &[&ForLoop]) -> Vec<String> {
        chain.iter().map(|l| l.var.clone()).collect()
    }

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
        let f = function(src);
        let loops = innermost_parallel_loops(&f);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].var, "j");
        // the sequential l-loop stays inside the optimized region
        assert!(loops[0]
            .body
            .stmts
            .iter()
            .any(|s| matches!(s, Stmt::For(l) if l.var == "l" && l.directive.is_none())));
        assert_eq!(vars(&kernel_nest(&f, 0).unwrap()), ["i", "j"]);
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
        let f = function(src);
        let loops = innermost_parallel_loops(&f);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].var, "i");
    }

    #[test]
    fn kernels_are_found_through_every_wrapper_and_the_mut_walk_agrees() {
        let src = r#"
void k(double a[64], int n) {
  while (n > 0) {
    #pragma acc parallel loop gang vector
    for (int i = 0; i < 64; i++) { a[i] = 1.0; }
    n = n - 1;
  }
  for (int t = 0; t < 4; t++) {
    #pragma acc parallel loop gang
    for (int j = 0; j < 64; j++) {
      if (n > 0) {
        #pragma acc loop vector
        for (int i = 0; i < 64; i++) { a[i] = 2.0; }
      } else {
        {
          #pragma acc loop vector
          for (int m = 0; m < 64; m++) { a[m] = 3.0; }
        }
      }
    }
  }
}
"#;
        let mut f = function(src);
        let kernels: Vec<ForLoop> = innermost_parallel_loops(&f).into_iter().cloned().collect();
        assert_eq!(kernels.iter().map(|l| l.var.as_str()).collect::<Vec<_>>(), ["i", "i", "m"]);
        assert_eq!(vars(&kernel_nest(&f, 0).unwrap()), ["i"]);
        assert_eq!(vars(&kernel_nest(&f, 1).unwrap()), ["t", "j", "i"]);
        assert_eq!(vars(&kernel_nest(&f, 2).unwrap()), ["t", "j", "m"]);
        assert!(kernel_nest(&f, 3).is_none());
        for (k, kernel) in kernels.iter().enumerate() {
            assert_eq!(*kernel_nest(&f, k).unwrap().last().unwrap(), kernel);
        }
        let mutable: Vec<ForLoop> =
            innermost_parallel_loops_mut(&mut f).into_iter().map(|l| l.clone()).collect();
        assert_eq!(mutable, kernels);
    }

    /// The first loop of `void f() { <loop> }`.
    fn first_loop(loop_src: &str) -> ForLoop {
        match function(&format!("void f() {{ {loop_src} }}")).body.stmts.remove(0) {
            Stmt::For(l) => l,
            s => panic!("not a loop: {s:?}"),
        }
    }

    fn trip(loop_src: &str, bindings: &[(&str, i64)]) -> Option<i64> {
        let b: HashMap<String, i64> = bindings.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        trip_count(&first_loop(loop_src), &|n| b.get(n).copied())
    }

    #[test]
    fn trip_counts_from_bindings() {
        assert_eq!(trip("for (int i = 0; i < n; i += 2) { }", &[("n", 10)]), Some(5));
        assert_eq!(trip("for (int j = n; j > 0; j--) { }", &[("n", 10)]), Some(10));
        assert_eq!(trip("for (int j = 0; j < m; j++) { }", &[("n", 10)]), None);
        assert_eq!(trip("for (int j = 0; j < 8; j += 0) { }", &[]), None);
        assert_eq!(trip("for (int j = 0; j != 8; j++) { }", &[]), None);
    }

    #[test]
    fn a_bound_on_the_left_mirrors_the_comparison() {
        // each pair is the same loop written `i OP bound` and `bound OP' i`
        let pairs = [
            ("for (int i = 0; i < 10; i++) { }", "for (int i = 0; 10 > i; i++) { }", 10),
            ("for (int i = 0; i <= 10; i++) { }", "for (int i = 0; 10 >= i; i++) { }", 11),
            ("for (int i = 10; i > 0; i--) { }", "for (int i = 10; 0 < i; i--) { }", 10),
            ("for (int i = 10; i >= 0; i--) { }", "for (int i = 10; 0 <= i; i--) { }", 11),
            ("for (int i = 1; i < 10; i += 3) { }", "for (int i = 1; 10 > i; i += 3) { }", 3),
            ("for (int i = 9; i >= 1; i -= 4) { }", "for (int i = 9; 1 <= i; i -= 4) { }", 3),
        ];
        for (var_first, bound_first, want) in pairs {
            assert_eq!(trip(var_first, &[]), Some(want), "{var_first}");
            assert_eq!(trip(bound_first, &[]), Some(want), "{bound_first}");
        }
    }

    #[test]
    fn overflow_is_an_unknown_value_not_a_panic() {
        let none = |n: &str| -> Option<i64> { panic!("no variable expected, read `{n}`") };
        let eval = |src: &str| const_eval(&crate::parse_expr(src).unwrap(), &none);
        assert_eq!(eval("9223372036854775807 + 1"), None);
        assert_eq!(eval("0 - 9223372036854775807 - 2"), None);
        assert_eq!(eval("4611686018427387904 * 2"), None);
        assert_eq!(eval("-(0 - 9223372036854775807 - 1)"), None);
        assert_eq!(eval("(0 - 9223372036854775807 - 1) / -1"), None);
        assert_eq!(eval("7 / 0"), None);
        assert_eq!(eval("2 * (3 + 4) - 10 / 3 % 2"), Some(13));
        assert_eq!(eval("(3 < 4) && (5 != 5)"), Some(0));
        assert_eq!(trip("for (int i = 0; i <= 9223372036854775807; i++) { }", &[]), None);
        assert_eq!(trip("for (int i = -9; i < 9223372036854775807; i += 4) { }", &[]), None);
        assert_eq!(trip("for (int i = 0; i > -9223372036854775807; i--) { }", &[]), None);
    }
}
