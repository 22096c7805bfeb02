//! Using the e-graph engine directly: define custom rewrite rules, run
//! saturation, and extract — the extension point §V-A leaves open ("an
//! arbitrary set of rewriting rules").
//!
//! Run with: `cargo run --release --example custom_rules`

use accsat_egraph::{all_rules, reorder_rules, EGraph, Node, Op, Rewrite, Runner};
use accsat_extract::{extract_portfolio, CostModel, PortfolioConfig};

fn main() {
    // Build (a - b*c) + (b*c - a) by hand.
    let mut eg = EGraph::new();
    let a = eg.add(Node::sym("a"));
    let b = eg.add(Node::sym("b"));
    let c = eg.add(Node::sym("c"));
    let bc = eg.add(Node::new(Op::Mul, vec![b, c]));
    let l = eg.add(Node::new(Op::Sub, vec![a, bc]));
    let r = eg.add(Node::new(Op::Sub, vec![bc, a]));
    let sum = eg.add(Node::new(Op::Add, vec![l, r]));

    println!("before: {} ({} classes)", eg.term_string(sum), eg.num_classes());

    // Table I rules + the optional reorder set + a user rule: x + (-x) → 0.
    let mut rules = all_rules();
    rules.extend(reorder_rules());
    rules.push(Rewrite::new("CANCEL-ADD", "(+ ?x (neg ?x))", "0"));

    let report = Runner::new(rules).run(&mut eg);
    println!(
        "saturation: {:?} after {} iterations, {} rule applications, {} e-nodes",
        report.stop_reason,
        report.iterations.len(),
        report.total_applied(),
        eg.total_nodes()
    );

    let cm = CostModel::paper();
    let (_, sel) = extract_portfolio(&eg, &[sum], &cm, &PortfolioConfig::default()).into_winner();
    println!("extracted: {} (cost {})", sel.term_string(&eg, sum), sel.dag_cost(&eg, &cm, &[sum]));
    // (a - bc) + (bc - a) = 0 — the custom cancellation rule plus the
    // reorder set proves it, so extraction returns the free constant.
}
