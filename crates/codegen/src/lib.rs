//! `accsat-codegen` — regenerating kernel code from extracted e-graph
//! solutions (paper §VI).
//!
//! Two mechanisms, exactly as the paper describes:
//!
//! * **Temporary-variable insertion** (§VI-A): every selected e-node that is
//!   referenced more than once — plus every load and call — receives a
//!   `_vN` temporary, declared in the innermost scope common to all its
//!   uses and assigned immediately before its first use. Single-use
//!   arithmetic stays inline. Assignments then reference temporaries, which
//!   removes duplicate computation while preserving ILP.
//!
//! * **Bulk load** (§VI-B): every memory load is relocated to the first
//!   point in its declaration scope where its dependencies are resolved —
//!   the array state it reads is current and its index operands are
//!   computable. Loads that become ready together are sorted by array name
//!   and static index expression, exactly the "sorted loads first" shape of
//!   Listing 3. Because array states are SSA values, a load can never be
//!   hoisted across a conflicting store.
//!
//! The original control structure and all directives are preserved: codegen
//! re-walks the [`accsat_ssa::SsaNode`] tree and re-emits `if`/`for`
//! headers verbatim,
//! substituting only the computation.

mod emit;
mod types;

pub use emit::{generate, generate_with, CodegenOptions};
pub use types::TypeMap;

#[cfg(test)]
mod tests {
    use super::*;
    use accsat_egraph::{all_rules, Runner};
    use accsat_extract::{extract_exact_with, CostModel, SearchOptions};
    use accsat_interp::{compare_arrays, run_function, ArrayData, Env};
    use accsat_ir::{parse_program, print_program, Function, Program};
    use std::time::Duration;

    /// Full mini-pipeline for tests: parse → SSA → (saturate) → extract →
    /// codegen → swap body back into the function.
    fn optimize(src: &str, saturate: bool, bulk: bool) -> (Program, Program) {
        let prog = parse_program(src).unwrap();
        let f = prog.functions[0].clone();
        let mut kernel_loops = accsat_ir::innermost_parallel_loops(&f);
        assert!(!kernel_loops.is_empty());
        let body = kernel_loops.remove(0).body.clone();
        let mut kernel = accsat_ssa::build_kernel(&body);
        if saturate {
            Runner::new(all_rules()).run(&mut kernel.egraph);
        } else {
            kernel.egraph.rebuild();
        }
        let cm = CostModel::paper();
        let roots = kernel.extraction_roots();
        let opts = SearchOptions { deadline: Duration::from_millis(300), ..Default::default() };
        let sel = extract_exact_with(&kernel.egraph, &roots, &cm, &opts).selection;
        let tm = TypeMap::from_function(&f);
        let new_body = generate(&kernel, &sel, &tm, &CodegenOptions { bulk_load: bulk });
        let mut new_f = f.clone();
        replace_innermost_body(&mut new_f, new_body);
        (prog, Program { functions: vec![new_f] })
    }

    fn replace_innermost_body(f: &mut Function, new_body: accsat_ir::Block) {
        accsat_ir::innermost_parallel_loops_mut(f)[0].body = new_body;
    }

    fn check_equivalent(src: &str, setup: impl Fn(&mut Env) + Copy) {
        for (saturate, bulk) in [(false, false), (false, true), (true, false), (true, true)] {
            let (orig, opt) = optimize(src, saturate, bulk);
            let mut env1 = Env::new();
            setup(&mut env1);
            let mut env2 = env1.clone();
            run_function(&orig.functions[0], &mut env1).expect("original runs");
            run_function(&opt.functions[0], &mut env2).unwrap_or_else(|e| {
                panic!(
                    "optimized (sat={saturate}, bulk={bulk}) failed: {e}\n{}",
                    print_program(&opt)
                )
            });
            if let Some((arr, i, a, b)) = compare_arrays(&env1, &env2, 1e-9) {
                panic!(
                    "mismatch (sat={saturate}, bulk={bulk}) in {arr}[{i}]: {a} vs {b}\n{}",
                    print_program(&opt)
                );
            }
        }
    }

    #[test]
    fn matmul_preserved() {
        let src = r#"
void mm(double a[8][8], double b[8][8], double c[8][8], double r[8][8],
        double alpha, double beta) {
  #pragma acc kernels loop independent
  for (int i = 0; i < 8; i++) {
    #pragma acc loop independent gang(4) vector(8)
    for (int j = 0; j < 8; j++) {
      double tmp = 0.0;
      for (int l = 0; l < 8; l++) {
        tmp += a[i][l] * b[l][j];
      }
      r[i][j] = alpha * tmp + beta * c[i][j];
    }
  }
}
"#;
        check_equivalent(src, |env| {
            env.set_f64("alpha", 1.5);
            env.set_f64("beta", -0.5);
            for name in ["a", "b", "c"] {
                let data: Vec<f64> = (0..64).map(|i| ((i * 37 + 11) % 17) as f64 * 0.25).collect();
                env.set_array(name, ArrayData::from_f64(&[8, 8], data));
            }
            env.set_array("r", ArrayData::zeros_f64(&[8, 8]));
        });
    }

    #[test]
    fn cse_across_statements_preserved() {
        let src = r#"
void k(double a[16], double out[16], double dt, double tz1, double tz2) {
  #pragma acc parallel loop gang vector
  for (int i = 1; i < 15; i++) {
    double temp1 = dt * tz1;
    double temp2 = dt * tz2;
    out[i] = temp1 * a[i - 1] + temp2 * a[i + 1] + dt * tz1 * a[i];
  }
}
"#;
        check_equivalent(src, |env| {
            env.set_f64("dt", 0.01);
            env.set_f64("tz1", 3.0);
            env.set_f64("tz2", 4.0);
            env.set_array("a", ArrayData::from_f64(&[16], (0..16).map(|i| i as f64).collect()));
            env.set_array("out", ArrayData::zeros_f64(&[16]));
        });
    }

    #[test]
    fn store_then_load_preserved() {
        let src = r#"
void k(double a[16], double out[16]) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 16; i++) {
    a[i] = a[i] * 2.0;
    out[i] = a[i] + 1.0;
  }
}
"#;
        check_equivalent(src, |env| {
            env.set_array("a", ArrayData::from_f64(&[16], (0..16).map(|i| i as f64).collect()));
            env.set_array("out", ArrayData::zeros_f64(&[16]));
        });
    }

    #[test]
    fn branches_preserved() {
        let src = r#"
void k(double x[16], double out[16]) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 16; i++) {
    double v = x[i];
    if (v < 0.0) {
      v = -v;
    } else {
      v = v * 2.0;
    }
    out[i] = v + x[i];
  }
}
"#;
        check_equivalent(src, |env| {
            env.set_array(
                "x",
                ArrayData::from_f64(&[16], (0..16).map(|i| i as f64 - 8.0).collect()),
            );
            env.set_array("out", ArrayData::zeros_f64(&[16]));
        });
    }

    #[test]
    fn sequential_loop_with_accumulator_preserved() {
        let src = r#"
void k(double a[8][8], double out[8]) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 8; i++) {
    double s = 0.0;
    for (int j = 0; j < 8; j++) {
      s = s + a[i][j] * a[i][j];
    }
    out[i] = sqrt(s);
  }
}
"#;
        check_equivalent(src, |env| {
            env.set_array(
                "a",
                ArrayData::from_f64(&[8, 8], (0..64).map(|i| (i % 9) as f64 * 0.5).collect()),
            );
            env.set_array("out", ArrayData::zeros_f64(&[8]));
        });
    }

    #[test]
    fn a_value_bound_inside_a_branch_does_not_leak_out_of_it() {
        // inside the branch `2.0` is available as `t`; after it, `t` may
        // hold something else, so the branch's bindings must be undone
        let src = r#"
void k(double x[16], double out[16]) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 16; i++) {
    double t = x[i];
    if (t > 0.0) {
      t = 2.0;
    }
    out[i] = t + 2.0;
  }
}
"#;
        check_equivalent(src, |env| {
            env.set_array(
                "x",
                ArrayData::from_f64(&[16], (0..16).map(|i| i as f64 - 8.0).collect()),
            );
            env.set_array("out", ArrayData::zeros_f64(&[16]));
        });
    }

    #[test]
    fn scalar_reuse_after_overwrite_preserved() {
        // t is read by a later statement *after* being overwritten — the
        // capture mechanism must save the old value in a temp
        let src = r#"
void k(double out[8], double x) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 8; i++) {
    double t = x * 2.0;
    out[0] = t;
    t = x * 3.0;
    out[1] = t;
    out[2] = x * 2.0;
  }
}
"#;
        check_equivalent(src, |env| {
            env.set_f64("x", 7.0);
            env.set_array("out", ArrayData::zeros_f64(&[8]));
        });
    }

    #[test]
    fn integer_index_arithmetic_preserved() {
        let src = r#"
void k(double a[32], double out[32], int n) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 8; i++) {
    int base = i * 4;
    out[base] = a[base + 1] * 2.0;
    out[base + 1] = a[base + 1] * 3.0;
    out[base + 2] = a[base / 2] + 1.0;
  }
}
"#;
        check_equivalent(src, |env| {
            env.set_i64("n", 8);
            env.set_array("a", ArrayData::from_f64(&[32], (0..32).map(|i| i as f64).collect()));
            env.set_array("out", ArrayData::zeros_f64(&[32]));
        });
    }

    #[test]
    fn bulk_load_hoists_loads_before_first_store() {
        let src = r#"
void k(double a[16], double b[16], double out[16]) {
  #pragma acc parallel loop gang vector
  for (int i = 1; i < 15; i++) {
    out[i] = a[i - 1] + b[i];
    out[i] = out[i] + a[i + 1] * b[i - 1];
  }
}
"#;
        let (_, opt) = optimize(src, true, true);
        let text = print_program(&opt);
        // all loads of a and b must appear before the first store to out
        let first_store = text.find("out[i] =").expect("store present");
        for pat in ["a[", "b["] {
            let last_load = text.rfind(pat).unwrap_or(0);
            // find the last temp-assignment load of this array
            let _ = last_load;
            let mut last = 0;
            let mut idx = 0;
            while let Some(p) = text[idx..].find(&format!("= {pat}")) {
                last = idx + p;
                idx += p + 1;
            }
            assert!(
                last < first_store,
                "bulk load must hoist `{pat}` loads before the first store:\n{text}"
            );
        }
    }

    /// `x1 = x0 + x0; …; xN = x(N-1) + x(N-1)` indexing two loads: a chain
    /// of `N` shared classes whose term, written out, has 2^N leaves.
    fn shared_index_chain(n: usize) -> String {
        let mut body = String::from("    int x0 = i;\n");
        for k in 1..=n {
            body.push_str(&format!("    int x{k} = x{p} + x{p};\n", p = k - 1));
        }
        format!(
            "void k(double a[64], double out[64]) {{\n  #pragma acc parallel loop gang vector\n  \
             for (int i = 0; i < 64; i++) {{\n{body}    out[i] = a[x{n} % 64] + a[x{n} % 32];\n  }}\n}}\n"
        )
    }

    #[test]
    fn bulk_load_orders_loads_on_shared_index_terms_without_expanding_them() {
        // sorting the two loads by their index text used to render each
        // index once per comparison — 2^40 leaves here, which never
        // finishes; compared on the shared terms, it is instant
        let src = shared_index_chain(40);
        let (done, finished) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || done.send(optimize(&src, true, true)));
        let (_, opt) = finished
            .recv_timeout(Duration::from_secs(120))
            .expect("bulk load did not finish on a 40-deep shared index chain");
        worker.join().unwrap().unwrap();
        let text = print_program(&opt);
        // "(% x 32)" sorts before "(% x 64)"
        let (at32, at64) = (text.find("% 32]").unwrap(), text.find("% 64]").unwrap());
        assert!(at32 < at64, "loads out of index order:\n{text}");
    }

    #[test]
    fn generated_code_reparses() {
        let src = r#"
void k(double a[16], double out[16], double c) {
  #pragma acc parallel loop gang vector
  for (int i = 1; i < 15; i++) {
    out[i] = c * a[i] + c * a[i - 1] + c * a[i + 1];
  }
}
"#;
        let (_, opt) = optimize(src, true, true);
        let text = print_program(&opt);
        let re = parse_program(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        assert_eq!(re.functions.len(), 1);
    }
}
