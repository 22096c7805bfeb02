//! ACC Saturator's rewrite rules — Table I of the paper, verbatim:
//!
//! | Name       | Pattern         | Result          |
//! |------------|-----------------|-----------------|
//! | FMA1       | A + B * C       | FMA(A, B, C)    |
//! | FMA2       | A - B * C       | FMA(A, -B, C)   |
//! | FMA3       | B * C - A       | FMA(-A, B, C)   |
//! | COMM-ADD   | A + B           | B + A           |
//! | COMM-MUL   | A * B           | B * A           |
//! | ASSOC-ADD1 | A + (B + C)     | (A + B) + C     |
//! | ASSOC-ADD2 | (A + B) + C     | A + (B + C)     |
//! | ASSOC-MUL1 | A * (B * C)     | (A * B) * C     |
//! | ASSOC-MUL2 | (A * B) * C     | A * (B * C)     |
//!
//! `FMA(a, b, c) = a + b * c`. Constant folding is an e-class analysis
//! (see [`crate::analysis`]), not a rule. The paper deliberately excludes
//! rules for subtraction, division, memory-access order, conditionals and
//! iteration, to keep e-graphs small (§V-A) — we follow suit; the optional
//! [`reorder_rules`] set is for custom rule sets (`examples/custom_rules.rs`).

use crate::rewrite::Rewrite;

/// FMA-introduction rules (Table I, first block).
pub fn fma_rules() -> Vec<Rewrite> {
    vec![
        Rewrite::new("FMA1", "(+ ?a (* ?b ?c))", "(fma ?a ?b ?c)"),
        Rewrite::new("FMA2", "(- ?a (* ?b ?c))", "(fma ?a (neg ?b) ?c)"),
        Rewrite::new("FMA3", "(- (* ?b ?c) ?a)", "(fma (neg ?a) ?b ?c)"),
    ]
}

/// Commutativity rules (Table I, second block).
pub fn comm_rules() -> Vec<Rewrite> {
    vec![
        Rewrite::new("COMM-ADD", "(+ ?a ?b)", "(+ ?b ?a)"),
        Rewrite::new("COMM-MUL", "(* ?a ?b)", "(* ?b ?a)"),
    ]
}

/// Associativity rules (Table I, third block).
pub fn assoc_rules() -> Vec<Rewrite> {
    vec![
        Rewrite::new("ASSOC-ADD1", "(+ ?a (+ ?b ?c))", "(+ (+ ?a ?b) ?c)"),
        Rewrite::new("ASSOC-ADD2", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))"),
        Rewrite::new("ASSOC-MUL1", "(* ?a (* ?b ?c))", "(* (* ?a ?b) ?c)"),
        Rewrite::new("ASSOC-MUL2", "(* (* ?a ?b) ?c)", "(* ?a (* ?b ?c))"),
    ]
}

/// The full default rule set of ACC Saturator (Table I).
pub fn all_rules() -> Vec<Rewrite> {
    let mut rules = fma_rules();
    rules.extend(comm_rules());
    rules.extend(assoc_rules());
    rules
}

/// Extra rules the paper mentions as *possible* but disabled by default
/// ("ACC Saturator can rewrite subtraction, division, … these rules can
/// increase the size of e-graphs", §V-A), for custom rule sets.
pub fn reorder_rules() -> Vec<Rewrite> {
    vec![
        Rewrite::new("SUB-AS-ADD", "(- ?a ?b)", "(+ ?a (neg ?b))"),
        Rewrite::new("ADD-NEG-AS-SUB", "(+ ?a (neg ?b))", "(- ?a ?b)"),
        Rewrite::new("NEG-NEG", "(neg (neg ?a))", "?a"),
        Rewrite::new("NEG-MUL-L", "(* (neg ?a) ?b)", "(neg (* ?a ?b))"),
        Rewrite::new("MUL-NEG-OUT", "(neg (* ?a ?b))", "(* (neg ?a) ?b)"),
        Rewrite::new("DIV-AS-MUL", "(/ (/ ?a ?b) ?c)", "(/ ?a (* ?b ?c))"),
    ]
}

/// Look up a default rule by name (tests, examples, custom rule sets).
pub fn rule_by_name(name: &str) -> Option<Rewrite> {
    all_rules().into_iter().chain(reorder_rules()).find(|r| r.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::egraph::EGraph;
    use crate::node::{Node, Op};
    use crate::runner::Runner;

    #[test]
    fn table1_is_complete() {
        let names: Vec<String> = all_rules().into_iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            vec![
                "FMA1",
                "FMA2",
                "FMA3",
                "COMM-ADD",
                "COMM-MUL",
                "ASSOC-ADD1",
                "ASSOC-ADD2",
                "ASSOC-MUL1",
                "ASSOC-MUL2",
            ]
        );
    }

    #[test]
    fn rule_by_name_finds() {
        assert!(rule_by_name("FMA2").is_some());
        assert!(rule_by_name("NEG-NEG").is_some());
        assert!(rule_by_name("NOPE").is_none());
    }

    /// The paper's Fig. 1 example: `B = D + E` and `C = E + D` must be
    /// proven equal (COMM-ADD), enabling CSE.
    #[test]
    fn fig1_comm_cse() {
        let mut eg = EGraph::new();
        let d = eg.add(Node::sym("D"));
        let e = eg.add(Node::sym("E"));
        let b = eg.add(Node::new(Op::Add, vec![d, e]));
        let c = eg.add(Node::new(Op::Add, vec![e, d]));
        Runner::new(comm_rules()).run(&mut eg);
        assert!(eg.same(b, c));
    }

    /// FMA2: a - b*c must gain FMA(a, -b, c).
    #[test]
    fn fma2_applies() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let c = eg.add(Node::sym("c"));
        let bc = eg.add(Node::new(Op::Mul, vec![b, c]));
        let diff = eg.add(Node::new(Op::Sub, vec![a, bc]));
        Runner::new(fma_rules()).run(&mut eg);
        assert!(eg.nodes(diff).any(|n| *n.op == Op::Fma));
    }

    /// FMA3: b*c - a must gain FMA(-a, b, c).
    #[test]
    fn fma3_applies() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let c = eg.add(Node::sym("c"));
        let bc = eg.add(Node::new(Op::Mul, vec![b, c]));
        let diff = eg.add(Node::new(Op::Sub, vec![bc, a]));
        Runner::new(fma_rules()).run(&mut eg);
        assert!(eg.nodes(diff).any(|n| *n.op == Op::Fma));
    }

    /// Reassociation enables CSE across statements:
    /// `t1 = (a + b) + c` and `t2 = a + (b + c)` become one class.
    #[test]
    fn assoc_enables_cross_statement_cse() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let c = eg.add(Node::sym("c"));
        let ab = eg.add(Node::new(Op::Add, vec![a, b]));
        let t1 = eg.add(Node::new(Op::Add, vec![ab, c]));
        let bc = eg.add(Node::new(Op::Add, vec![b, c]));
        let t2 = eg.add(Node::new(Op::Add, vec![a, bc]));
        Runner::new(assoc_rules()).run(&mut eg);
        assert!(eg.same(t1, t2));
    }

    #[test]
    fn neg_neg_cancels() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let na = eg.add(Node::new(Op::Neg, vec![a]));
        let nna = eg.add(Node::new(Op::Neg, vec![na]));
        Runner::new(reorder_rules()).run(&mut eg);
        assert!(eg.same(a, nna));
    }
}
