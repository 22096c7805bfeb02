//! Candidate harvest: keep the top-K structurally distinct selections the
//! extraction machinery can produce, instead of only the static winner.

use accsat_egraph::{EGraph, Id};
use accsat_extract::{extract_portfolio, CostModel, PortfolioConfig, Selection};

/// One harvested extraction candidate.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Where the candidate came from: a portfolio member name
    /// (`"greedy"`, `"refine"`, `"bnb-bestfirst"`) or a cost-sweep point
    /// (`"heavy=10"`).
    pub label: String,
    /// The candidate selection (a total cover, ready for codegen).
    pub selection: Selection,
    /// DAG cost under the *base* cost model — the §V-B objective every
    /// candidate is compared on, regardless of which model produced it.
    pub static_cost: u64,
    /// Did the producing search prove this selection optimal *under its
    /// own cost model*? (For sweep candidates that model is not the base
    /// one, so this flag is provenance, not a base-cost optimality claim.)
    pub proven_optimal: bool,
    /// [`Selection::content_hash`] over the extraction roots — the dedup
    /// key.
    pub content_hash: u64,
}

/// The harvested candidate set for one kernel.
#[derive(Debug, Clone)]
pub(crate) struct Harvest {
    /// Structurally distinct candidates, in deterministic harvest order:
    /// base-portfolio members first (greedy, then the refined incumbent
    /// when it improves, then the search's best), then cost-sweep winners in
    /// sweep order, deduplicated by content hash and truncated to the
    /// keep-K cap.
    pub candidates: Vec<Candidate>,
    /// Candidates produced before deduplication and truncation.
    pub harvested: usize,
    /// Index of the static winner among `candidates`: lowest base-model
    /// cost, ties toward the earlier candidate.
    pub static_winner: usize,
    /// The strongest certified lower bound on the optimal base-model DAG
    /// cost, from the base portfolio (the static winner's proven cost, or
    /// the LP-relaxation root bound when no member proved optimality).
    pub lower_bound: u64,
}

/// Harvest up to `keep` structurally distinct candidates from the
/// extraction portfolio plus a cost-model sweep.
///
/// `sweep` lists `heavy` values (the §V-B memory/div/call cost) to re-run
/// extraction under; values equal to `base_cm.heavy` are skipped because
/// the base portfolio already covers them. Everything is deterministic:
/// candidate order depends only on the e-graph, the cost models and the
/// portfolio config.
pub(crate) fn harvest_candidates(
    eg: &EGraph,
    roots: &[Id],
    base_cm: &CostModel,
    pcfg: &PortfolioConfig,
    sweep: &[u64],
    keep: usize,
) -> Harvest {
    let mut raw: Vec<Candidate> = Vec::new();

    // 1. the base portfolio, kept whole: the greedy incumbent, then the
    //    refined one and the search's best, when they ran
    let base = extract_portfolio(eg, roots, base_cm, pcfg);
    let lower_bound = base.lower_bound;
    for (strategy, m) in base.members {
        let content_hash = m.selection.content_hash(eg, roots);
        raw.push(Candidate {
            label: strategy.to_string(),
            static_cost: m.cost,
            selection: m.selection,
            proven_optimal: m.proven_optimal,
            content_hash,
        });
    }

    // 2. the cost-model sweep: re-extract under warped memory costs and
    //    keep each sweep point's winner
    for &heavy in sweep {
        if heavy == base_cm.heavy {
            continue;
        }
        let cm = CostModel { heavy, ..*base_cm };
        let res = extract_portfolio(eg, roots, &cm, pcfg);
        let proven_optimal = res.proven_optimal;
        let (_, selection) = res.into_winner();
        let static_cost = selection.dag_cost(eg, base_cm, roots);
        let content_hash = selection.content_hash(eg, roots);
        raw.push(Candidate {
            label: format!("heavy={heavy}"),
            selection,
            static_cost,
            proven_optimal,
            content_hash,
        });
    }

    let harvested = raw.len();

    // 3. dedup by content hash (first occurrence wins, so the base
    //    portfolio's provenance labels take precedence), then keep-K
    let mut candidates: Vec<Candidate> = Vec::with_capacity(raw.len());
    for c in raw {
        if candidates.iter().any(|k| k.content_hash == c.content_hash) {
            continue;
        }
        candidates.push(c);
    }
    candidates.truncate(keep.max(1));

    let static_winner = (0..candidates.len())
        .min_by_key(|&i| (candidates[i].static_cost, i))
        .expect("harvest always contains the greedy incumbent");

    Harvest { candidates, harvested, static_winner, lower_bound }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accsat_egraph::{all_rules, Node, Op, Runner};

    /// An e-graph where sharing and duplication genuinely trade off, so
    /// the base portfolio and the sweep produce distinct selections.
    fn tradeoff_graph() -> (EGraph, Vec<Id>) {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let c = eg.add(Node::sym("c"));
        let u = eg.add(Node::new(Op::Div, vec![a, b]));
        let uu = eg.add(Node::new(Op::Add, vec![u, u]));
        let v1 = eg.add(Node::new(Op::Mul, vec![a, b]));
        let v2 = eg.add(Node::new(Op::Mul, vec![b, c]));
        let vv = eg.add(Node::new(Op::Add, vec![v1, v2]));
        eg.union(uu, vv);
        eg.rebuild();
        let r2 = eg.add(Node::new(Op::Neg, vec![u]));
        let roots = vec![eg.find(uu), eg.find(r2)];
        (eg, roots)
    }

    #[test]
    fn harvest_is_deduplicated_and_deterministic() {
        let (eg, roots) = tradeoff_graph();
        let cm = CostModel::paper();
        let pcfg = PortfolioConfig::default();
        let h1 = harvest_candidates(&eg, &roots, &cm, &pcfg, &[10, 100, 1000], 8);
        let h2 = harvest_candidates(&eg, &roots, &cm, &pcfg, &[10, 100, 1000], 8);
        assert!(!h1.candidates.is_empty());
        assert!(h1.harvested >= h1.candidates.len());
        let labels1: Vec<&str> = h1.candidates.iter().map(|c| c.label.as_str()).collect();
        let labels2: Vec<&str> = h2.candidates.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels1, labels2);
        // hashes pairwise distinct after dedup
        for i in 0..h1.candidates.len() {
            for j in i + 1..h1.candidates.len() {
                assert_ne!(h1.candidates[i].content_hash, h1.candidates[j].content_hash);
            }
        }
        // the static winner really is the base-cost argmin
        let min = h1.candidates.iter().map(|c| c.static_cost).min().unwrap();
        assert_eq!(h1.candidates[h1.static_winner].static_cost, min);
    }

    #[test]
    fn sweep_skips_base_heavy_value() {
        let (eg, roots) = tradeoff_graph();
        let cm = CostModel::paper();
        let pcfg = PortfolioConfig::default();
        let with_dup = harvest_candidates(&eg, &roots, &cm, &pcfg, &[100], 8);
        let without = harvest_candidates(&eg, &roots, &cm, &pcfg, &[], 8);
        assert_eq!(with_dup.harvested, without.harvested, "heavy=100 is the base model");
    }

    #[test]
    fn keep_cap_truncates() {
        let (eg, roots) = tradeoff_graph();
        let cm = CostModel::paper();
        let pcfg = PortfolioConfig::default();
        let h = harvest_candidates(&eg, &roots, &cm, &pcfg, &[1, 10, 1000], 1);
        assert_eq!(h.candidates.len(), 1);
        assert_eq!(h.static_winner, 0);
    }

    #[test]
    fn saturated_graph_harvest_covers_roots() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let ab = eg.add(Node::new(Op::Mul, vec![a, b]));
        let s = eg.add(Node::new(Op::Add, vec![ab, a]));
        Runner::new(all_rules()).run(&mut eg);
        let roots = vec![eg.find(s)];
        let cm = CostModel::paper();
        let h = harvest_candidates(&eg, &roots, &cm, &PortfolioConfig::default(), &[10], 4);
        for c in &h.candidates {
            assert_eq!(c.selection.dag_cost(&eg, &cm, &roots), c.static_cost);
        }
    }
}
