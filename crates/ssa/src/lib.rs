//! `accsat-ssa` — static single-assignment construction into the e-graph.
//!
//! This implements §IV of the paper. For each innermost parallel loop body:
//!
//! 1. conditional φ nodes represent `if` (`Select(cond, then, else)`) and
//!    sequential `for` (`PhiLoop(loop-cond, body-value, init-value)`) control
//!    structures, merging data flows;
//! 2. every variable/array assignment (and every φ) receives an ID — here,
//!    an e-class id;
//! 3. every variable/array load refers to the latest ID along its data flow;
//! 4. each (ID, expression) pair lands in one e-class.
//!
//! Array accesses are SSA values too (paper Fig. 1):
//! `A[i] = A[i] + 1` becomes `A1 = Store(A0, i, Load(A0, i) + 1)` — a store
//! produces a *new array value*, so load/store ordering is encoded as data
//! dependence and bulk load can never float a read across a conflicting
//! write.
//!
//! Loop-carried values enter the body as fresh *entry symbols*
//! (`x@L0`, the φ at the loop header) which keeps the e-graph acyclic; the
//! post-loop value is a `PhiLoop` node. Code generation re-emits the original
//! control structure, so these φs are never materialized — they only keep
//! data flows of different iterations distinct during rewriting.

mod builder;

pub use builder::{build_kernel, SsaKernel, SsaNode, Target};

#[cfg(test)]
mod tests {
    use super::*;
    use accsat_egraph::{Id, Op};
    use accsat_ir::parse_program;

    fn kernel_of(src: &str) -> SsaKernel {
        let prog = parse_program(src).unwrap();
        let f = &prog.functions[0];
        let loops = accsat_ir::innermost_parallel_loops(f);
        assert_eq!(loops.len(), 1, "test source must have exactly one kernel loop");
        build_kernel(&loops[0].body)
    }

    /// The value classes of the kernel body's top-level assignments, in
    /// program order.
    fn assigned(k: &SsaKernel) -> Vec<Id> {
        let class = |n: &SsaNode| match n {
            SsaNode::Assign { class, .. } => Some(*class),
            _ => None,
        };
        k.nodes.iter().filter_map(class).collect()
    }

    #[test]
    fn straight_line_cse_shares_classes() {
        let k = kernel_of(
            r#"
void f(double out[4], double D, double E) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 4; i++) {
    out[0] = D + E;
    out[1] = D + E;
  }
}
"#,
        );
        let roots = assigned(&k);
        assert_eq!(roots.len(), 2);
        // identical syntax hash-conses to the same class immediately
        assert_eq!(k.egraph.find(roots[0]), k.egraph.find(roots[1]));
    }

    #[test]
    fn store_load_ssa_chain() {
        // A[i] = A[i] + 1; then reading A[i] must see the *new* array value.
        let k = kernel_of(
            r#"
void f(double A[16], double out[16]) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 16; i++) {
    A[i] = A[i] + 1.0;
    out[i] = A[i];
  }
}
"#,
        );
        let classes = assigned(&k);
        let out_class = classes[1];
        let load = k.egraph.nodes(out_class).find(|n| *n.op == Op::Load).expect("load node");
        let state = load.children[0];
        assert!(
            k.egraph.nodes(state).any(|n| *n.op == Op::Store),
            "load of A after the store must read the Store state"
        );
    }

    #[test]
    fn if_phi_created() {
        let k = kernel_of(
            r#"
void f(double out[4], double x) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 4; i++) {
    double b = x;
    if (b == 0.0) {
      b = 1.0;
    }
    out[i] = b;
  }
}
"#,
        );
        let classes = assigned(&k);
        let out_class = *classes.last().unwrap();
        assert!(
            k.egraph.nodes(out_class).any(|n| *n.op == Op::Select),
            "if-modified variable must flow through a Select φ"
        );
    }

    #[test]
    fn loop_phi_created() {
        let k = kernel_of(
            r#"
void f(double out[4], double x) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 4; i++) {
    double acc = 0.0;
    for (int l = 0; l < 8; l++) {
      acc = acc + x;
    }
    out[i] = acc;
  }
}
"#,
        );
        let classes = assigned(&k);
        let out_class = *classes.last().unwrap();
        assert!(
            k.egraph.nodes(out_class).any(|n| *n.op == Op::PhiLoop),
            "loop-modified variable must flow through a PhiLoop φ"
        );
    }

    #[test]
    fn loop_body_uses_entry_symbol_not_init() {
        let k = kernel_of(
            r#"
void f(double out[4], double x) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 4; i++) {
    double acc = 0.0;
    for (int l = 0; l < 8; l++) {
      acc = acc + x;
    }
    out[i] = acc;
  }
}
"#,
        );
        let mut found_entry_add = false;
        for (id, _) in k.egraph.classes() {
            for n in k.egraph.nodes(id) {
                if *n.op == Op::Add {
                    let mut lhs = k.egraph.nodes(n.children[0]);
                    if lhs.any(|m| matches!(m.op, Op::Sym(s) if s.contains('@'))) {
                        found_entry_add = true;
                    }
                }
            }
        }
        assert!(found_entry_add, "loop body must read the φ entry symbol");
    }

    #[test]
    fn redundant_loads_share_one_class() {
        let k = kernel_of(
            r#"
void f(double a[16], double out[16])  {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 16; i++) {
    out[i] = a[i] * a[i];
  }
}
"#,
        );
        let classes = assigned(&k);
        let mul = k.egraph.nodes(classes[0]).find(|n| *n.op == Op::Mul).unwrap();
        assert_eq!(
            k.egraph.find(mul.children[0]),
            k.egraph.find(mul.children[1]),
            "a[i] * a[i] must share one load class"
        );
    }

    #[test]
    fn compound_assignment_desugars() {
        let k = kernel_of(
            r#"
void f(double a[16]) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 16; i++) {
    a[i] += 2.0;
  }
}
"#,
        );
        let classes = assigned(&k);
        assert!(k.egraph.nodes(classes[0]).any(|n| *n.op == Op::Add));
    }

    #[test]
    fn else_branch_phi_merges_both_sides() {
        let k = kernel_of(
            r#"
void f(double out[4], double x) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 4; i++) {
    double b;
    if (x > 0.0) {
      b = x;
    } else {
      b = -x;
    }
    out[i] = b * 2.0;
  }
}
"#,
        );
        let classes = assigned(&k);
        let out_class = *classes.last().unwrap();
        let mul = k.egraph.nodes(out_class).find(|n| *n.op == Op::Mul).unwrap();
        assert!(k.egraph.nodes(mul.children[0]).any(|n| *n.op == Op::Select));
    }

    #[test]
    fn stores_to_different_arrays_are_independent() {
        let k = kernel_of(
            r#"
void f(double a[8], double b[8], double c[8]) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 8; i++) {
    a[i] = c[i] + 1.0;
    b[i] = c[i] + 1.0;
  }
}
"#,
        );
        // both RHS expressions hash-cons to the same class — a store to `a`
        // must not invalidate loads of `c`
        let classes = assigned(&k);
        assert_eq!(k.egraph.find(classes[0]), k.egraph.find(classes[1]));
    }
}
