//! Property-based tests for the extraction layer: the strengthened
//! branch-and-bound and the portfolio must agree with each other, their
//! reported costs must match recomputation, the memoized lower bound must
//! stay admissible, and dominated-node pruning must never lose the
//! optimum.
//!
//! Failing seeds persist to `proptest-regressions/property_extract.txt`
//! and re-run first on every execution.

use accsat_egraph::{all_rules, EGraph, Id, Node, Op, Runner, RunnerLimits};
use accsat_extract::{
    extract_exact_with, extract_greedy, extract_portfolio, ClassOrder, CostModel, PortfolioConfig,
    SearchContext, SearchOptions,
};
use proptest::prelude::*;

/// A random arithmetic term over three variables.
#[derive(Debug, Clone)]
enum T {
    Var(usize),
    Const(i8),
    Add(Box<T>, Box<T>),
    Sub(Box<T>, Box<T>),
    Mul(Box<T>, Box<T>),
    Div(Box<T>, Box<T>),
    Neg(Box<T>),
}

fn term_strategy() -> impl Strategy<Value = T> {
    let leaf = prop_oneof![(0usize..3).prop_map(T::Var), (-3i8..4).prop_map(T::Const),];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| T::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| T::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| T::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| T::Div(Box::new(a), Box::new(b))),
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
        T::Div(a, b) => {
            let (a, b) = (add_term(eg, a), add_term(eg, b));
            eg.add(Node::new(Op::Div, vec![a, b]))
        }
        T::Neg(a) => {
            let a = add_term(eg, a);
            eg.add(Node::new(Op::Neg, vec![a]))
        }
    }
}

/// Saturate two random terms as two extraction roots: the rewrites give
/// classes several candidate nodes and the shared subterms across roots
/// are what exercises pruning, bounding and the DAG-cost search.
fn saturated_graph(a: &T, b: &T) -> (EGraph, Vec<Id>) {
    let mut eg = EGraph::new();
    let ra = add_term(&mut eg, a);
    let rb = add_term(&mut eg, b);
    let limits = RunnerLimits { node_limit: 1200, iter_limit: 3, ..Default::default() };
    Runner::new(all_rules()).with_limits(limits).run(&mut eg);
    let mut roots = vec![eg.find(ra), eg.find(rb)];
    roots.dedup();
    (eg, roots)
}

/// A search configuration generous enough to prove optimality on these
/// small graphs, with the wall valve never binding.
fn proving_opts(order: ClassOrder) -> SearchOptions {
    SearchOptions {
        order,
        node_budget: 5_000_000,
        deadline: std::time::Duration::from_secs(60),
        ..SearchOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The portfolio returns exactly the sequential `extract_exact_with`
    /// result: same cost, and a selection whose recomputed DAG cost
    /// matches the claim. (The batch driver's byte-determinism rests on
    /// this equivalence.)
    #[test]
    fn portfolio_equals_sequential_exact(a in term_strategy(), b in term_strategy()) {
        let (eg, roots) = saturated_graph(&a, &b);
        let cm = CostModel::paper();
        let exact = extract_exact_with(&eg, &roots, &cm, &proving_opts(ClassOrder::BestFirst));
        if !exact.proven_optimal { return Ok(()); }
        let cfg = PortfolioConfig {
            node_budget: 5_000_000,
            deadline: std::time::Duration::from_secs(60),
        };
        let res = extract_portfolio(&eg, &roots, &cm, &cfg);
        prop_assert!(res.proven_optimal);
        let (_, win) = res.winning();
        prop_assert!(win.cost == exact.cost, "{} != {}", win.cost, exact.cost);
        prop_assert!(win.selection.dag_cost(&eg, &cm, &roots) == win.cost,
            "claimed cost must match recomputation");
    }

    /// Every class order proves the same optimum, and each one's claimed
    /// cost equals the recomputed DAG cost of its selection — the
    /// accounting invariant that caught a pending-restore bug (seed
    /// 0xf4a32d7c8d17f197 in property_pipeline).
    #[test]
    fn orders_agree_and_costs_recompute(a in term_strategy(), b in term_strategy()) {
        let (eg, roots) = saturated_graph(&a, &b);
        let cm = CostModel::paper();
        let mut costs = Vec::new();
        for order in [ClassOrder::BestFirst, ClassOrder::HeaviestFirst, ClassOrder::Lifo] {
            let res = extract_exact_with(&eg, &roots, &cm, &proving_opts(order));
            if !res.proven_optimal { return Ok(()); }
            prop_assert!(res.selection.dag_cost(&eg, &cm, &roots) == res.cost,
                "{:?}: claimed vs recomputed", order);
            costs.push(res.cost);
        }
        prop_assert!(costs.windows(2).all(|w| w[0] == w[1]), "orders disagree: {costs:?}");
    }

    /// Admissibility: the memoized root lower bound never exceeds the
    /// proven optimal cost, and the greedy incumbent never beats it the
    /// other way (bound ≤ optimum ≤ greedy).
    #[test]
    fn lower_bound_is_admissible(a in term_strategy(), b in term_strategy()) {
        let (eg, roots) = saturated_graph(&a, &b);
        let cm = CostModel::paper();
        let res = extract_exact_with(&eg, &roots, &cm, &proving_opts(ClassOrder::BestFirst));
        if !res.proven_optimal { return Ok(()); }
        let cx = SearchContext::build(&eg, &cm);
        let bound = cx.root_lower_bound(&roots);
        prop_assert!(bound <= res.cost, "bound {} exceeds optimum {}", bound, res.cost);
        let g = extract_greedy(&eg, &roots, &cm);
        prop_assert!(res.cost <= g.dag_cost(&eg, &cm, &roots));
    }

    /// Dominated-node pruning keeps at least one candidate per coverable
    /// class and never removes the last cheapest option: the proven
    /// optimum over pruned candidates must still be reachable (checked
    /// transitively by the exactness properties above; here we pin the
    /// structural invariants the proof rests on).
    #[test]
    fn pruning_keeps_classes_coverable(a in term_strategy(), b in term_strategy()) {
        let (eg, roots) = saturated_graph(&a, &b);
        let cm = CostModel::paper();
        let cx = SearchContext::build(&eg, &cm);
        let g = extract_greedy(&eg, &roots, &cm);
        // every class the greedy cover reaches must keep ≥ 1 candidate
        for id in g.reachable(&eg, &roots) {
            let cands = cx.candidates(id);
            prop_assert!(!cands.is_empty(), "class {} lost all candidates", id);
            // and the surviving set must include one whose op cost equals
            // the class minimum (pruning only removes nodes that another
            // survivor dominates at ≤ op cost)
            let min_all = eg.nodes(id).map(|n| cm.op_cost(n.op)).min().unwrap();
            let min_kept = cands.iter().map(|n| cm.op_cost(&n.op)).min().unwrap();
            prop_assert!(min_kept >= min_all, "survivors cannot get cheaper than the class");
        }
    }
}

// ---------------------------------------------------------------------------
// Small adversarial e-graphs (≤ ~12 classes) built from explicit node and
// union lists — unlike the saturated term graphs above, these can contain
// cycles, uncoverable classes and equal-cost orbits, which is exactly what
// the LP-relaxation bound and the pruning passes must stay sound on.
// ---------------------------------------------------------------------------

use accsat_extract::{climb, extract_unpruned, marginal_greedy};

/// Recipe for a small random e-graph: three symbol leaves, then ops over
/// earlier nodes (indices mod current length), then random unions.
fn small_graph(ops: &[(u8, usize, usize)], unions: &[(usize, usize)]) -> EGraph {
    let mut eg = EGraph::new();
    let mut nodes = vec![eg.add(Node::sym("a")), eg.add(Node::sym("b")), eg.add(Node::sym("c"))];
    for &(k, i, j) in ops {
        let x = nodes[i % nodes.len()];
        let y = nodes[j % nodes.len()];
        let n = match k % 5 {
            0 => Node::new(Op::Add, vec![x, y]),
            1 => Node::new(Op::Mul, vec![x, y]),
            2 => Node::new(Op::Div, vec![x, y]),
            3 => Node::new(Op::Neg, vec![x]),
            _ => Node::new(Op::Fma, vec![x, y, x]),
        };
        nodes.push(eg.add(n));
    }
    for &(i, j) in unions {
        let x = nodes[i % nodes.len()];
        let y = nodes[j % nodes.len()];
        eg.union(x, y);
    }
    eg.rebuild();
    eg
}

/// Node recipe list: `(op selector, child index, child index)`.
type OpList = Vec<(u8, usize, usize)>;
/// Union recipe list: pairs of node indices to merge.
type UnionList = Vec<(usize, usize)>;

fn small_graph_strategy() -> impl Strategy<Value = (OpList, UnionList)> {
    (
        proptest::collection::vec((0u8..5, 0usize..16, 0usize..16), 1..9),
        proptest::collection::vec((0usize..16, 0usize..16), 0..4),
    )
}

/// Every class of the e-graph that survives the finite-cost filter, as a
/// canonical root list (deduplicated).
fn coverable_classes(eg: &EGraph, cx: &SearchContext) -> Vec<Id> {
    let mut ids: Vec<Id> =
        eg.classes().map(|(id, _)| id).filter(|&id| !cx.candidates(id).is_empty()).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// LP-relaxation admissibility (the satellite's core claim): for every
    /// coverable class of a small random e-graph, `fractional_bound(c)`
    /// never exceeds the exhaustive exact optimum of covering `{c}`,
    /// computed by the fully unpruned reference search.
    #[test]
    fn fractional_bound_is_admissible_vs_exhaustive(
        (ops, unions) in small_graph_strategy()
    ) {
        let eg = small_graph(&ops, &unions);
        let cm = CostModel::paper();
        let cx = SearchContext::build(&eg, &cm);
        for id in coverable_classes(&eg, &cx) {
            let oracle = extract_unpruned(&eg, &[id], &cm, 2_000_000);
            if !oracle.proven_optimal { continue; }
            prop_assert!(
                cx.fractional_bound(id) <= oracle.cost,
                "class {}: fractional bound {} exceeds exhaustive optimum {}",
                id, cx.fractional_bound(id), oracle.cost
            );
            // and the multi-root bound specializes to the same value
            prop_assert!(cx.root_lower_bound(&[id]) <= oracle.cost);
        }
    }

    /// Differential oracle (the satellite's second claim): the fully
    /// strengthened search — symmetry breaking, dominance, closure
    /// dominance, LP bound, φ-chain closures — returns the same optimal
    /// cost as the unpruned exact search, on the same small random graphs.
    #[test]
    fn strengthened_search_equals_unpruned_oracle(
        (ops, unions) in small_graph_strategy()
    ) {
        let eg = small_graph(&ops, &unions);
        let cm = CostModel::paper();
        let cx = SearchContext::build(&eg, &cm);
        let roots = coverable_classes(&eg, &cx);
        if roots.is_empty() { return Ok(()); }
        let oracle = extract_unpruned(&eg, &roots, &cm, 2_000_000);
        if !oracle.proven_optimal { return Ok(()); }
        let fast = extract_exact_with(
            &eg, &roots, &cm, &proving_opts(ClassOrder::BestFirst));
        prop_assert!(fast.proven_optimal, "strengthened search must also finish");
        prop_assert!(
            fast.cost == oracle.cost,
            "pruning changed the optimum: {} != {}", fast.cost, oracle.cost
        );
        prop_assert!(fast.explored <= oracle.explored,
            "pruning must not grow the tree");
        prop_assert!(fast.selection.dag_cost(&eg, &cm, &roots) == fast.cost);
        // the portfolio (refinement included) agrees too
        let cfg = PortfolioConfig {
            node_budget: 5_000_000,
            deadline: std::time::Duration::from_secs(60),
        };
        let p = extract_portfolio(&eg, &roots, &cm, &cfg);
        prop_assert!(p.proven_optimal);
        let cost = p.winning().1.cost;
        prop_assert!(cost == oracle.cost, "portfolio: {} != {}", cost, oracle.cost);
        prop_assert!(p.lower_bound == cost, "proven ⇒ bound gap 0");
    }

    /// The bound lattice: forced-children closure ⊑ LP relaxation ⊑ true
    /// optimum, on saturated term graphs (the production shape).
    #[test]
    fn bound_lattice_is_ordered(a in term_strategy(), b in term_strategy()) {
        let (eg, roots) = saturated_graph(&a, &b);
        let cm = CostModel::paper();
        let res = extract_exact_with(&eg, &roots, &cm, &proving_opts(ClassOrder::BestFirst));
        if !res.proven_optimal { return Ok(()); }
        let cx = SearchContext::build(&eg, &cm);
        let forced = cx.forced_lower_bound(&roots);
        let lp = cx.root_lower_bound(&roots);
        prop_assert!(forced <= lp, "forced {} above LP {}", forced, lp);
        prop_assert!(lp <= res.cost, "LP {} above optimum {}", lp, res.cost);
    }

    /// Refinement is sound: hill climbing and the marginal greedy never
    /// worsen the incumbent, report exactly their recomputed DAG cost, and
    /// never drop below the proven optimum.
    #[test]
    fn refinement_is_sound(a in term_strategy(), b in term_strategy()) {
        let (eg, roots) = saturated_graph(&a, &b);
        let cm = CostModel::paper();
        let cx = SearchContext::build(&eg, &cm);
        let greedy = extract_greedy(&eg, &roots, &cm);
        let g = greedy.dag_cost(&eg, &cm, &roots);
        let climbed = climb(&eg, &cx, &cm, &roots, greedy.clone());
        let c = climbed.dag_cost(&eg, &cm, &roots);
        prop_assert!(c <= g, "climb worsened the incumbent: {} > {}", c, g);
        if let Some(mut m) = marginal_greedy(&eg, &cx, &cm, &roots) {
            m.fill_from(&greedy);
            let mc = m.dag_cost(&eg, &cm, &roots); // must not panic (acyclic cover)
            let exact = extract_exact_with(
                &eg, &roots, &cm, &proving_opts(ClassOrder::BestFirst));
            if exact.proven_optimal {
                prop_assert!(mc >= exact.cost, "refined below the optimum?!");
                prop_assert!(c >= exact.cost);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The refinement heuristics against their naive reference. `refine.rs`
// scores trials on class-indexed tables and repairs the marginal fixpoint
// from a worklist; `naive` below is the implementation it replaced, kept
// verbatim as the oracle: clone the selection and re-walk the DAG per
// candidate, re-run the whole fixpoint per commit. The two must agree on
// every class of every selection, not just on cost.
// ---------------------------------------------------------------------------

mod naive {
    use accsat_egraph::{EGraph, Id, Node};
    use accsat_extract::{CostModel, SearchContext, Selection};
    use std::collections::BTreeSet;

    pub fn climb(
        eg: &EGraph,
        cx: &SearchContext<'_>,
        cm: &CostModel,
        roots: &[Id],
        mut sel: Selection,
    ) -> Selection {
        let mut cur_cost = sel.dag_cost(eg, cm, roots);
        loop {
            let mut improved = false;
            let mut classes = sel.reachable(eg, roots);
            classes.sort_unstable();
            for id in classes {
                let cur_node = sel.node(eg, id).clone();
                let mut best: (u64, Option<Node>) = (cur_cost, None);
                for cand in cx.candidates(id) {
                    if cand == cur_node || sel.would_cycle(eg, id, &cand) {
                        continue;
                    }
                    let mut trial = sel.clone();
                    trial.choose(eg, id, cand.clone());
                    let c = trial.dag_cost(eg, cm, roots);
                    if c < best.0 {
                        best = (c, Some(cand));
                    }
                }
                if let (c, Some(node)) = best {
                    sel.choose(eg, id, node);
                    cur_cost = c;
                    improved = true;
                }
            }
            if !improved {
                return sel;
            }
        }
    }

    /// Fixpoint marginal tree costs with the `included` classes free.
    fn marginal_costs(
        eg: &EGraph,
        cx: &SearchContext<'_>,
        cm: &CostModel,
        included: &[bool],
    ) -> Vec<Option<u64>> {
        let n = included.len();
        let mut costs: Vec<Option<u64>> = vec![None; n];
        for (c, &inc) in included.iter().enumerate() {
            if inc {
                costs[c] = Some(0);
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for c in 0..n {
                if included[c] {
                    continue;
                }
                let mut best = costs[c];
                for cand in cx.candidates(Id::from(c)) {
                    let mut total = Some(cm.op_cost(&cand.op));
                    for &ch in &cand.children {
                        total = match (total, costs[eg.find(ch).index()]) {
                            (Some(a), Some(b)) => Some(a.saturating_add(b)),
                            _ => None,
                        };
                    }
                    if let Some(t) = total {
                        if best.is_none_or(|b| t < b) {
                            best = Some(t);
                        }
                    }
                }
                if best != costs[c] {
                    costs[c] = best;
                    changed = true;
                }
            }
        }
        costs
    }

    pub fn marginal_greedy(
        eg: &EGraph,
        cx: &SearchContext<'_>,
        cm: &CostModel,
        roots: &[Id],
    ) -> Option<Selection> {
        let n = eg.classes().map(|(id, _)| id.index() + 1).max().unwrap_or(0);
        let mut included = vec![false; n];
        let mut sel = Selection::new();
        let mut queue: BTreeSet<usize> = roots.iter().map(|&r| eg.find(r).index()).collect();
        while let Some(&c) = queue.iter().next() {
            queue.remove(&c);
            if included[c] {
                continue;
            }
            included[c] = true;
            let costs = marginal_costs(eg, cx, cm, &included);
            let mut best: Option<(u64, Node)> = None;
            for cand in cx.candidates(Id::from(c)) {
                if sel.would_cycle(eg, Id::from(c), &cand) {
                    continue;
                }
                let mut total = Some(cm.op_cost(&cand.op));
                for &ch in &cand.children {
                    total = match (total, costs[eg.find(ch).index()]) {
                        (Some(a), Some(b)) => Some(a.saturating_add(b)),
                        _ => None,
                    };
                }
                if let Some(t) = total {
                    if best.as_ref().is_none_or(|(b, _)| t < *b) {
                        best = Some((t, cand));
                    }
                }
            }
            let (_, node) = best?;
            for &ch in &node.children {
                let chi = eg.find(ch).index();
                if !included[chi] {
                    queue.insert(chi);
                }
            }
            sel.choose(eg, Id::from(c), node);
        }
        Some(sel)
    }
}

use accsat_extract::Selection;

/// The first class two selections disagree on, if any.
fn first_difference(eg: &EGraph, a: &Selection, b: &Selection) -> Option<Id> {
    if a.len() != b.len() {
        return Some(Id::from(0usize));
    }
    eg.classes().map(|(id, _)| id).find(|&id| a.get(eg, id) != b.get(eg, id))
}

/// Run both refinement paths of the portfolio — climb from greedy, and
/// marginal greedy completed from greedy with a climb on top — through
/// the production code and the naive reference, and compare every
/// selection class by class and by cost.
fn refine_matches_naive(eg: &EGraph, roots: &[Id]) -> Result<(), String> {
    let cm = CostModel::paper();
    let cx = SearchContext::build(eg, &cm);
    let greedy = extract_greedy(eg, roots, &cm);
    let same = |what: &str, new: &Selection, old: &Selection| {
        if let Some(id) = first_difference(eg, new, old) {
            return Err(format!("{what}: selections differ at class {id}"));
        }
        let (n, o) = (new.dag_cost(eg, &cm, roots), old.dag_cost(eg, &cm, roots));
        if n != o {
            return Err(format!("{what}: cost {n} != reference {o}"));
        }
        Ok(())
    };
    same(
        "climb",
        &climb(eg, &cx, &cm, roots, greedy.clone()),
        &naive::climb(eg, &cx, &cm, roots, greedy.clone()),
    )?;
    match (marginal_greedy(eg, &cx, &cm, roots), naive::marginal_greedy(eg, &cx, &cm, roots)) {
        (None, None) => Ok(()),
        (Some(mut new), Some(mut old)) => {
            if let Some(id) = first_difference(eg, &new, &old) {
                return Err(format!("marginal greedy: selections differ at class {id}"));
            }
            new.fill_from(&greedy);
            old.fill_from(&greedy);
            same(
                "climb over marginal greedy",
                &climb(eg, &cx, &cm, roots, new),
                &naive::climb(eg, &cx, &cm, roots, old),
            )
        }
        (new, old) => Err(format!(
            "marginal greedy gave up differently: new {:?}, reference {:?}",
            new.map(|s| s.len()),
            old.map(|s| s.len())
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Saturated term graphs: the production shape (about one in ten is
    /// cyclic).
    #[test]
    fn refine_equals_naive_on_saturated_graphs(a in term_strategy(), b in term_strategy()) {
        let (eg, roots) = saturated_graph(&a, &b);
        if let Err(e) = refine_matches_naive(&eg, &roots) {
            prop_assert!(false, "{}", e);
        }
    }

    /// Adversarial graphs of up to ~50 nodes with up to a dozen random
    /// unions, covered from a few late classes: about six in ten have a
    /// cyclic candidate graph (`!cx.is_acyclic()`), three in ten make the
    /// marginal greedy skip a cycle-closing candidate, and now and then a
    /// class keeps no acyclic candidate at all and it must give up —
    /// `None`, exactly as before (seeds for both are pinned in
    /// `proptest-regressions/property_extract.txt`).
    #[test]
    fn refine_equals_naive_on_cyclic_graphs((ops, unions, picks) in (
        proptest::collection::vec((0u8..5, 0usize..64, 0usize..64), 10..48),
        proptest::collection::vec((0usize..64, 0usize..64), 2..12),
        proptest::collection::vec(0usize..64, 1..4),
    )) {
        let eg = small_graph(&ops, &unions);
        let cm = CostModel::paper();
        let coverable = coverable_classes(&eg, &SearchContext::build(&eg, &cm));
        if coverable.is_empty() { return Ok(()); }
        let mut roots: Vec<Id> = picks
            .iter()
            .map(|&i| coverable[coverable.len() - 1 - i % coverable.len().min(8)])
            .collect();
        roots.sort_unstable();
        roots.dedup();
        if let Err(e) = refine_matches_naive(&eg, &roots) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// The three suite kernels whose incumbent the refinement stage improves
/// (LU `jacld`, olbm `lbm_stream`) or must leave alone (BT `z_solve`),
/// saturated as the pipeline saturates them.
#[test]
fn refine_equals_naive_on_refine_sensitive_suite_kernels() {
    let cfg = accsat::SaturatorConfig::default();
    for (bench, function) in [("LU", "lu_jacld"), ("olbm", "lbm_stream"), ("BT", "bt_zsolve")] {
        let b = accsat_benchmarks::all_benchmarks()
            .into_iter()
            .find(|b| b.name == bench)
            .expect("suite benchmark");
        let prog = accsat_ir::parse_program(&b.acc_source).expect("suite source parses");
        let f = prog.function(function).expect("suite kernel");
        let body = &accsat_ir::innermost_parallel_loops(f)[0].body;
        let mut kernel = accsat_ssa::build_kernel(body);
        Runner::from_shared(cfg.rules.clone()).with_limits(cfg.limits).run(&mut kernel.egraph);
        let roots = kernel.extraction_roots();
        if let Err(e) = refine_matches_naive(&kernel.egraph, &roots) {
            panic!("{function}: {e}");
        }
    }
}
