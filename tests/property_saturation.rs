//! Property-based tests of the parallel saturation search: on random
//! generated kernels, the runner's parallel search phase must be an
//! invisible implementation detail. Matches are collected into per-rule
//! slots and concatenated in rule-index order, so every observable — the
//! per-iteration match/application counts (the match multiset, aggregated
//! per rule and per iteration), backoff bans, node/class trajectory, stop
//! reason, and the final e-graph shape — must be identical at any
//! `sat_threads` value, with or without a shared thread budget attached.
//!
//! A second property checks the congruence closure itself against an
//! independent oracle: random add/union/rebuild scripts must leave the
//! e-graph with exactly the partition a naive fixpoint over all node pairs
//! computes.
//!
//! A third pins the rule applier's fused call: on random scripts,
//! `EGraph::add_into` must leave exactly the state `add_with` followed by
//! `union` leaves, constant folding included.

use accsat_benchmarks::{generate_kernel, GenConfig};
use accsat_egraph::{
    all_rules, BackoffConfig, EGraph, Id, Node, Op, Runner, RunnerLimits, RunnerReport,
    ThreadBudget,
};
use accsat_ir::{innermost_parallel_loops, parse_program};
use accsat_ssa::build_kernel;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Everything a saturation run reports except wall-clock time: stop
/// reason, the per-iteration (matches, applied, nodes, classes) sequence,
/// and the cumulative per-rule statistics including backoff decisions.
type Fingerprint =
    (String, Vec<(usize, usize, usize, usize)>, Vec<(String, usize, usize, usize, usize)>);

fn fingerprint(r: &RunnerReport) -> Fingerprint {
    (
        format!("{:?}", r.stop_reason),
        r.iterations.iter().map(|i| (i.matches, i.applied, i.total_nodes, i.num_classes)).collect(),
        r.rule_stats
            .iter()
            .map(|s| (s.name.clone(), s.matches, s.applied, s.times_banned, s.banned_iters))
            .collect(),
    )
}

/// Build the kernel's e-graph from source and saturate it. Tight limits
/// and an aggressive backoff keep debug-mode runs fast while still
/// exercising banning, pending-class deferral and the dirty-set search.
fn saturate(
    src: &str,
    threads: usize,
    budget: Option<Arc<ThreadBudget>>,
) -> (Fingerprint, usize, usize) {
    let prog = parse_program(src).expect("generated kernel parses");
    // the first kernel's body — the block the pipeline hands to SSA
    // construction (outer nest loops stay outside the e-graph)
    let loops = innermost_parallel_loops(&prog.functions[0]);
    let kernel = build_kernel(&loops.first().expect("generated kernel has a parallel loop").body);
    let mut eg = kernel.egraph;
    let report = Runner::new(all_rules())
        .with_limits(RunnerLimits {
            node_limit: 1500,
            iter_limit: 4,
            time_limit: Duration::from_secs(30),
        })
        .with_backoff(Some(BackoffConfig { match_limit: 64, ban_length: 2 }))
        .with_sat_threads(threads)
        .with_budget(budget)
        .run(&mut eg);
    (fingerprint(&report), eg.total_nodes(), eg.num_classes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Serial search, wide parallel search, and parallel search starved
    /// down to one thread by an empty budget all produce the same report
    /// and the same e-graph.
    #[test]
    fn parallel_search_equals_serial_on_random_kernels(
        seed in (0u64..u64::MAX),
        threads in (2usize..9),
    ) {
        let gk = generate_kernel(seed, &GenConfig::default());
        let serial = saturate(&gk.source, 1, None);
        let wide = saturate(&gk.source, threads, None);
        prop_assert!(
            serial == wide,
            "seed {seed} ({}): {threads}-thread search diverged from serial\n{serial:?}\n{wide:?}",
            gk.flavor
        );
        let starved = saturate(&gk.source, threads, Some(Arc::new(ThreadBudget::new(0))));
        prop_assert!(
            serial == starved,
            "seed {seed} ({}): budget-starved search diverged from serial",
            gk.flavor
        );
    }
}

// ------------------------------------------------- congruence oracle

/// One step of a random e-graph script. Operands index the elements added
/// so far (modulo their number), so every script is well-formed.
#[derive(Debug, Clone)]
enum Step {
    Leaf(u8),
    Apply(u8, Vec<usize>),
    Union(usize, usize),
    Rebuild,
}

fn script_strategy() -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        (0u8..5).prop_map(Step::Leaf),
        (0u8..4, proptest::collection::vec(0usize..1000, 1..4))
            .prop_map(|(op, kids)| Step::Apply(op, kids)),
        (0u8..4, proptest::collection::vec(0usize..1000, 1..4))
            .prop_map(|(op, kids)| Step::Apply(op, kids)),
        (0usize..1000, 0usize..1000).prop_map(|(a, b)| Step::Union(a, b)),
        Just(Step::Rebuild),
    ];
    proptest::collection::vec(step, 1..60)
}

/// Congruence closure the slow, obvious way: every `add` is an element of
/// its own, asserted equalities are merged, and then any two elements with
/// the same operator and pairwise-equal operands are merged until nothing
/// changes. No hash-consing, no parents lists, no deferred repair — it
/// shares nothing with the engine but the definition.
struct NaiveClosure {
    terms: Vec<(String, Vec<usize>)>,
    set: Vec<usize>,
}

impl NaiveClosure {
    fn find(&self, mut i: usize) -> usize {
        while self.set[i] != i {
            i = self.set[i];
        }
        i
    }

    fn add(&mut self, op: String, kids: Vec<usize>) -> usize {
        self.terms.push((op, kids));
        self.set.push(self.set.len());
        self.set.len() - 1
    }

    fn union(&mut self, a: usize, b: usize) {
        let (a, b) = (self.find(a), self.find(b));
        self.set[a] = b;
    }

    fn close(&mut self) {
        let congruent = |s: &NaiveClosure, i: usize, j: usize| {
            let ((op_i, kids_i), (op_j, kids_j)) = (&s.terms[i], &s.terms[j]);
            op_i == op_j
                && kids_i.len() == kids_j.len()
                && kids_i.iter().zip(kids_j).all(|(&a, &b)| s.find(a) == s.find(b))
        };
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..self.terms.len() {
                for j in 0..i {
                    if self.find(i) != self.find(j) && congruent(self, i, j) {
                        self.union(i, j);
                        changed = true;
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The engine's partition after a random script equals the oracle's,
    /// and the hash-cons / op-index invariants hold on the way.
    #[test]
    fn congruence_closure_matches_naive_oracle(script in script_strategy()) {
        const OPS: [Op; 4] = [Op::Add, Op::Mul, Op::Neg, Op::Load];
        // folding is off: the unions are arbitrary equality assertions
        let mut eg = EGraph::without_constant_folding();
        let mut oracle = NaiveClosure { terms: Vec::new(), set: Vec::new() };
        let mut ids: Vec<Id> = Vec::new();
        for step in &script {
            match step {
                Step::Leaf(v) => {
                    ids.push(eg.add(Node::sym(&format!("v{v}"))));
                    oracle.add(format!("v{v}"), Vec::new());
                }
                Step::Apply(op, kids) if !ids.is_empty() => {
                    let kids: Vec<usize> = kids.iter().map(|k| k % ids.len()).collect();
                    let op = &OPS[*op as usize];
                    ids.push(eg.add(Node::new(op.clone(), kids.iter().map(|&k| ids[k]).collect())));
                    oracle.add(op.name(), kids);
                }
                Step::Union(a, b) if !ids.is_empty() => {
                    let (a, b) = (a % ids.len(), b % ids.len());
                    eg.union(ids[a], ids[b]);
                    oracle.union(a, b);
                }
                Step::Rebuild => {
                    eg.rebuild();
                    eg.check_invariants();
                }
                _ => {}
            }
        }
        eg.rebuild();
        eg.check_invariants();
        oracle.close();
        for i in 0..ids.len() {
            for j in 0..i {
                prop_assert!(
                    eg.same(ids[i], ids[j]) == (oracle.find(i) == oracle.find(j)),
                    "elements {} and {} ({:?} / {:?})", i, j, oracle.terms[i], oracle.terms[j]
                );
            }
        }
    }
}

// ------------------------------------------------- add_into ≡ add + union

/// One step of a random script for the rule applier's fused call.
/// Operands index the elements added so far (modulo their number).
#[derive(Debug, Clone)]
enum IntoStep {
    Sym(u8),
    Int(u8),
    Apply(u8, Vec<usize>),
    /// Add the node, then make it equal to an element — through
    /// `add_into` in one graph, `add_with` + `union` in the other.
    Into(u8, Vec<usize>, usize),
    Union(usize, usize),
    Rebuild,
}

fn into_script_strategy() -> impl Strategy<Value = Vec<IntoStep>> {
    let kids = || proptest::collection::vec(0usize..1000, 1..4);
    let step = prop_oneof![
        (0u8..4).prop_map(IntoStep::Sym),
        (0u8..4).prop_map(IntoStep::Int),
        (0u8..4, kids()).prop_map(|(op, kids)| IntoStep::Apply(op, kids)),
        (0u8..4, kids(), 0usize..1000).prop_map(|(op, kids, c)| IntoStep::Into(op, kids, c)),
        (0u8..4, kids(), 0usize..1000).prop_map(|(op, kids, c)| IntoStep::Into(op, kids, c)),
        (0usize..1000, 0usize..1000).prop_map(|(a, b)| IntoStep::Union(a, b)),
        Just(IntoStep::Rebuild),
    ];
    proptest::collection::vec(step, 1..60)
}

/// The value of a node in a fixed model of the script's terms: the three
/// folding operators compute in wrapping `i64` (equal to the e-graph's
/// checked folding wherever that succeeds), any other operator or arity is
/// an uninterpreted function with a small range. Merging only elements of
/// equal value keeps every assertion true in the model, so constant
/// folding never meets two contradictory constants.
fn model_value(op: &Op, kids: &[i64]) -> i64 {
    match (op, kids) {
        (Op::Add, [a, b]) => a.wrapping_add(*b),
        (Op::Mul, [a, b]) => a.wrapping_mul(*b),
        (Op::Neg, [a]) => a.wrapping_neg(),
        _ => kids.iter().fold(op.name().len() as i64, |h, &k| h.wrapping_mul(31) ^ k).rem_euclid(3),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `add_into(op, kids, c)` returns what `add_with(op, kids)` followed
    /// by `union(c, _)` returns and leaves a `state_eq` graph — for a new
    /// form, a form that already exists, and a form whose constant folds
    /// (integer leaves make `+`, `*` and `-` fold).
    #[test]
    fn add_into_equals_add_then_union(script in into_script_strategy()) {
        const OPS: [Op; 4] = [Op::Add, Op::Mul, Op::Neg, Op::Load];
        let (mut fused, mut split) = (EGraph::new(), EGraph::new());
        let (mut ids, mut values): (Vec<Id>, Vec<i64>) = (Vec::new(), Vec::new());
        for step in &script {
            match step {
                IntoStep::Sym(v) | IntoStep::Int(v) => {
                    let (node, value) = match step {
                        IntoStep::Sym(_) => (Node::sym(&format!("v{v}")), i64::from(*v % 3)),
                        _ => (Node::int(i64::from(*v)), i64::from(*v)),
                    };
                    let id = fused.add(node.clone());
                    prop_assert_eq!(id, split.add(node));
                    ids.push(id);
                    values.push(value);
                }
                IntoStep::Apply(op, kids) | IntoStep::Into(op, kids, _) if !ids.is_empty() => {
                    let kids: Vec<usize> = kids.iter().map(|k| k % ids.len()).collect();
                    let op = &OPS[*op as usize];
                    let kid_values: Vec<i64> = kids.iter().map(|&k| values[k]).collect();
                    let value = model_value(op, &kid_values);
                    let children: Vec<Id> = kids.iter().map(|&k| ids[k]).collect();
                    let target = match step {
                        IntoStep::Into(_, _, c) => Some(c % ids.len()),
                        _ => None,
                    };
                    let id = match target.filter(|&c| values[c] == value) {
                        Some(c) => {
                            let got = fused.add_into(op, &children, ids[c]);
                            let new = split.add_with(op, &children);
                            prop_assert_eq!(got, split.union(ids[c], new));
                            got.0
                        }
                        None => {
                            let id = fused.add_with(op, &children);
                            prop_assert_eq!(id, split.add_with(op, &children));
                            id
                        }
                    };
                    ids.push(id);
                    values.push(value);
                }
                IntoStep::Union(a, b) if !ids.is_empty() => {
                    let (a, b) = (a % ids.len(), b % ids.len());
                    if values[a] == values[b] {
                        prop_assert_eq!(fused.union(ids[a], ids[b]), split.union(ids[a], ids[b]));
                    }
                }
                IntoStep::Rebuild => {
                    fused.rebuild();
                    split.rebuild();
                }
                _ => {}
            }
            prop_assert!(fused.state_eq(&split), "graphs differ after {:?}", step);
        }
        fused.rebuild();
        split.rebuild();
        fused.check_invariants();
        prop_assert!(fused.state_eq(&split));
        prop_assert_eq!(fused.serialize(), split.serialize());
    }
}
