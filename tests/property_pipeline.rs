//! Property-based tests over the optimizer core: random expressions and
//! random straight-line kernels must survive saturation, extraction and
//! code generation with semantics intact, and extraction must never
//! increase cost.

use acc_saturator::{optimize_program, Variant};
use accsat_egraph::{all_rules, EGraph, Id, Node, Op, Runner, RunnerLimits};
use accsat_extract::{extract_exact_with, extract_greedy, CostModel, SearchOptions, Selection};
use accsat_interp::{approx_eq, compare_arrays, run_function, ArrayData, Env};
use accsat_ir::parse_program;
use proptest::prelude::*;
use std::collections::HashMap;
use std::time::Duration;

// ---------------------------------------------------------------- exprs

/// A random arithmetic term over three variables, as both an e-graph
/// builder and an evaluator.
#[derive(Debug, Clone)]
enum T {
    Var(usize),
    Const(i8),
    Add(Box<T>, Box<T>),
    Sub(Box<T>, Box<T>),
    Mul(Box<T>, Box<T>),
    Neg(Box<T>),
}

fn term_strategy() -> impl Strategy<Value = T> {
    let leaf = prop_oneof![(0usize..3).prop_map(T::Var), (-3i8..4).prop_map(T::Const),];
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| T::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| T::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| T::Mul(Box::new(a), Box::new(b))),
            inner.prop_map(|a| T::Neg(Box::new(a))),
        ]
    })
}

fn add_term(eg: &mut EGraph, t: &T) -> Id {
    match t {
        T::Var(i) => eg.add(Node::sym(&format!("x{i}"))),
        T::Const(c) => eg.add(Node::float(*c as f64)),
        T::Add(a, b) => {
            let (a, b) = (add_term(eg, a), add_term(eg, b));
            eg.add(Node::new(Op::Add, vec![a, b]))
        }
        T::Sub(a, b) => {
            let (a, b) = (add_term(eg, a), add_term(eg, b));
            eg.add(Node::new(Op::Sub, vec![a, b]))
        }
        T::Mul(a, b) => {
            let (a, b) = (add_term(eg, a), add_term(eg, b));
            eg.add(Node::new(Op::Mul, vec![a, b]))
        }
        T::Neg(a) => {
            let a = add_term(eg, a);
            eg.add(Node::new(Op::Neg, vec![a]))
        }
    }
}

fn eval_term(t: &T, xs: &[f64; 3]) -> f64 {
    match t {
        T::Var(i) => xs[*i],
        T::Const(c) => *c as f64,
        T::Add(a, b) => eval_term(a, xs) + eval_term(b, xs),
        T::Sub(a, b) => eval_term(a, xs) - eval_term(b, xs),
        T::Mul(a, b) => eval_term(a, xs) * eval_term(b, xs),
        T::Neg(a) => -eval_term(a, xs),
    }
}

/// Evaluate an extracted selection term.
fn eval_selection(
    eg: &EGraph,
    sel: &accsat_extract::Selection,
    id: Id,
    xs: &[f64; 3],
    memo: &mut HashMap<Id, f64>,
) -> f64 {
    let id = eg.find(id);
    if let Some(&v) = memo.get(&id) {
        return v;
    }
    let node = sel.node(eg, id).clone();
    let kid =
        |i: usize, memo: &mut HashMap<Id, f64>| eval_selection(eg, sel, node.children[i], xs, memo);
    let v = match &node.op {
        Op::Sym(s) => {
            let i: usize = s.trim_start_matches('x').parse().unwrap();
            xs[i]
        }
        Op::Int(v) => *v as f64,
        Op::Float(b) => f64::from_bits(*b),
        Op::Add => kid(0, memo) + kid(1, memo),
        Op::Sub => kid(0, memo) - kid(1, memo),
        Op::Mul => kid(0, memo) * kid(1, memo),
        Op::Neg => -kid(0, memo),
        Op::Fma => kid(0, memo) + kid(1, memo) * kid(2, memo),
        other => panic!("unexpected op in extracted term: {other:?}"),
    };
    memo.insert(id, v);
    v
}

/// Exact extraction, seeded with the greedy incumbent, under a 50 ms
/// wall-clock valve.
fn exact(eg: &EGraph, roots: &[Id], cm: &CostModel) -> Selection {
    let opts = SearchOptions { deadline: Duration::from_millis(50), ..Default::default() };
    extract_exact_with(eg, roots, cm, &opts).selection
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Saturation + extraction preserves the value of random terms.
    #[test]
    fn saturation_preserves_value(t in term_strategy(), x0 in -3.0f64..3.0, x1 in -3.0f64..3.0, x2 in -3.0f64..3.0) {
        let mut eg = EGraph::new();
        let root = add_term(&mut eg, &t);
        let limits = RunnerLimits { node_limit: 3000, iter_limit: 6, ..Default::default() };
        Runner::new(all_rules()).with_limits(limits).run(&mut eg);
        let cm = CostModel::paper();
        let sel = exact(&eg, &[root], &cm);
        let xs = [x0, x1, x2];
        let want = eval_term(&t, &xs);
        let got = eval_selection(&eg, &sel, root, &xs, &mut HashMap::new());
        prop_assert!(
            approx_eq(want, got, 1e-9, 1e-9),
            "value changed: {want} vs {got}"
        );
    }

    /// Exact extraction never costs more than greedy extraction.
    #[test]
    fn exact_never_beats_greedy_backwards(t in term_strategy()) {
        let mut eg = EGraph::new();
        let root = add_term(&mut eg, &t);
        let limits = RunnerLimits { node_limit: 2000, iter_limit: 4, ..Default::default() };
        Runner::new(all_rules()).with_limits(limits).run(&mut eg);
        let cm = CostModel::paper();
        let g = extract_greedy(&eg, &[root], &cm);
        let e = exact(&eg, &[root], &cm);
        prop_assert!(
            e.dag_cost(&eg, &cm, &[root]) <= g.dag_cost(&eg, &cm, &[root])
        );
    }

    /// E-graph invariants hold after saturation of random terms.
    #[test]
    fn egraph_invariants_hold(t in term_strategy()) {
        let mut eg = EGraph::new();
        let _root = add_term(&mut eg, &t);
        let limits = RunnerLimits { node_limit: 1500, iter_limit: 4, ..Default::default() };
        Runner::new(all_rules()).with_limits(limits).run(&mut eg);
        eg.check_invariants();
    }
}

// ---------------------------------------------------------------- kernels

/// Random straight-line kernels: a few statements mixing loads, stores and
/// arithmetic over two arrays; all variants must preserve interpreter
/// results.
fn kernel_strategy() -> impl Strategy<Value = String> {
    let stmt = prop_oneof![
        // out[i] = a[i] <op> a[i +/- 1] * c
        (0usize..3, 0usize..3, prop_oneof![Just("+"), Just("-"), Just("*")]).prop_map(
            |(x, y, op)| { format!("out[i] = a[i] {op} a[(i + {x}) % 16] * (c + {y}.0);") }
        ),
        // t accumulation
        (1usize..4).prop_map(|k| format!("t = t + a[(i + {k}) % 16] * c;")),
        // array update
        (0usize..2).prop_map(|k| format!("a[i] = a[i] * 0.5 + {k}.0;")),
        // out via t
        Just("out[i] = t * 2.0 - c;".to_string()),
    ];
    proptest::collection::vec(stmt, 1..6).prop_map(|stmts| {
        format!(
            "void k(double a[16], double out[16], double c) {{\n\
             #pragma acc parallel loop gang vector\n\
             for (int i = 0; i < 16; i++) {{\n  double t = 0.0;\n  {}\n}}\n}}",
            stmts.join("\n  ")
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_kernels_preserve_semantics(src in kernel_strategy(), seed in 0u64..1000) {
        let prog = parse_program(&src).unwrap();
        let mut base = Env::new();
        base.set_f64("c", (seed % 7) as f64 * 0.25 + 0.5);
        let data: Vec<f64> = (0..16).map(|i| ((i as u64 * 2654435761 + seed) % 97) as f64 * 0.125).collect();
        base.set_array("a", ArrayData::from_f64(&[16], data));
        base.set_array("out", ArrayData::zeros_f64(&[16]));

        let mut env_orig = base.clone();
        run_function(&prog.functions[0], &mut env_orig).unwrap();

        for variant in Variant::all() {
            let (opt, _) = optimize_program(&prog, variant).unwrap();
            let mut env_opt = base.clone();
            run_function(&opt.functions[0], &mut env_opt)
                .map_err(|e| TestCaseError::fail(format!("{variant:?}: {e}\n{src}")))?;
            if let Some((arr, i, x, y)) = compare_arrays(&env_orig, &env_opt, 1e-9) {
                return Err(TestCaseError::fail(format!(
                    "{variant:?}: {arr}[{i}]: {x} vs {y}\nsource:\n{src}\ngenerated:\n{}",
                    accsat_ir::print_program(&opt)
                )));
            }
        }
    }
}
