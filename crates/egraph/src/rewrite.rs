//! Rewrite rules: a named left-hand pattern, right-hand pattern, and an
//! optional side condition on the matched substitution.
//!
//! Rules are compiled once at construction: the left-hand side becomes a
//! [`Program`] for the pattern VM (see [`crate::machine`]), the right-hand
//! side an index-resolved [`RhsNode`] template, so the saturation hot loop
//! never touches pattern variable names. The interpretive tree-walk matcher
//! ([`Pattern::search`]) remains available as `search_legacy` — it is the
//! differential-testing oracle for the compiled engine.

use crate::dense::ClassSet;
use crate::egraph::EGraph;
use crate::machine::{Program, RhsNode, VarSubst};
use crate::node::Id;
use crate::pattern::{parse_pattern, Pattern, Subst};
use std::sync::Arc;

/// Side condition evaluated on every match before application. Receives the
/// substitution as a name → id map (the legacy form) — conditions are rare,
/// so the map is materialized only when one is attached.
pub(crate) type Condition = fn(&EGraph, &Subst) -> bool;

/// One match of a rule's left-hand side: the root e-class and the variable
/// bindings (indexed by the rule's var table).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RuleMatch {
    /// The e-class the pattern root matched.
    pub class: Id,
    /// Variable bindings, indexed by the rule's var table.
    pub subst: VarSubst,
}

/// A rewrite rule `lhs → rhs`, with both sides compiled.
#[derive(Clone)]
pub struct Rewrite {
    /// Rule name (Table I naming, e.g. `FMA1`, `COMM-ADD`), shared with
    /// every [`RuleStats`](crate::RuleStats) that reports on the rule.
    pub name: Arc<str>,
    /// Left-hand side — the pattern the legacy matcher searches for.
    lhs: Pattern,
    /// Optional side condition filtering matches before application.
    pub condition: Option<Condition>,
    /// Compiled left-hand side (pattern VM program + interned vars).
    program: Program,
    /// Compiled right-hand side (variables resolved to var-table indices).
    rhs_template: RhsNode,
}

impl std::fmt::Debug for Rewrite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rewrite")
            .field("name", &self.name)
            .field("conditional", &self.condition.is_some())
            .finish()
    }
}

impl Rewrite {
    /// Build a rule from pattern strings, compiling both sides. Panics on
    /// malformed patterns — rules are compile-time constants of the tool.
    pub fn new(name: &str, lhs: &str, rhs: &str) -> Rewrite {
        let lhs_p = parse_pattern(lhs).unwrap_or_else(|e| panic!("rule {name}: bad lhs: {e}"));
        let rhs_p = parse_pattern(rhs).unwrap_or_else(|e| panic!("rule {name}: bad rhs: {e}"));
        let program = Program::compile(&lhs_p);
        // every rhs variable must be bound by the lhs (RhsNode::compile
        // panics with a per-variable message otherwise)
        let rhs_template = RhsNode::compile(&rhs_p.root, &program, name);
        Rewrite { name: name.into(), lhs: lhs_p, condition: None, program, rhs_template }
    }

    /// Attach a side condition.
    pub fn with_condition(mut self, cond: Condition) -> Rewrite {
        self.condition = Some(cond);
        self
    }

    /// Materialize a name → id map from a compiled substitution (side
    /// conditions, tests, debugging).
    pub fn subst_map(&self, subst: &VarSubst) -> Subst {
        self.program
            .vars()
            .iter()
            .zip(subst.as_slice())
            .map(|(name, &id)| (name.clone(), id))
            .collect()
    }

    /// Search the e-graph for matches of `lhs` with the compiled VM,
    /// restricted to candidate classes when `restrict` is given (the
    /// runner's dirty-class search).
    pub(crate) fn search_filtered(
        &self,
        eg: &EGraph,
        restrict: Option<&ClassSet>,
    ) -> Vec<RuleMatch> {
        let mut matches = Vec::new();
        self.program
            .search_into(eg, restrict, |class, subst| matches.push(RuleMatch { class, subst }));
        if let Some(cond) = self.condition {
            matches.retain(|m| cond(eg, &self.subst_map(&m.subst)));
        }
        matches
    }

    /// Search the whole e-graph for matches of `lhs` (compiled engine).
    pub fn search(&self, eg: &EGraph) -> Vec<RuleMatch> {
        self.search_filtered(eg, None)
    }

    /// Search with the legacy backtracking tree-walk matcher — the oracle
    /// the compiled engine is differentially tested against.
    pub fn search_legacy(&self, eg: &EGraph) -> Vec<(Id, Subst)> {
        let mut matches = self.lhs.search(eg);
        if let Some(cond) = self.condition {
            matches.retain(|(_, s)| cond(eg, s));
        }
        matches
    }

    /// Apply one match: instantiate `rhs` and union with the matched class.
    /// Returns `true` if the e-graph changed.
    pub(crate) fn apply_match(&self, eg: &mut EGraph, class: Id, subst: &VarSubst) -> bool {
        self.rhs_template.instantiate_into(eg, subst, class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Node, Op};

    #[test]
    fn apply_comm_add() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let ab = eg.add(Node::new(Op::Add, vec![a, b]));
        let ba = eg.add(Node::new(Op::Add, vec![b, a]));
        assert!(!eg.same(ab, ba));

        let rule = Rewrite::new("comm-add", "(+ ?a ?b)", "(+ ?b ?a)");
        for m in rule.search(&eg) {
            rule.apply_match(&mut eg, m.class, &m.subst);
        }
        eg.rebuild();
        assert!(eg.same(ab, ba));
    }

    #[test]
    fn fma_rule_adds_node_to_class() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let c = eg.add(Node::sym("c"));
        let bc = eg.add(Node::new(Op::Mul, vec![b, c]));
        let sum = eg.add(Node::new(Op::Add, vec![a, bc]));

        let rule = Rewrite::new("fma1", "(+ ?a (* ?b ?c))", "(fma ?a ?b ?c)");
        let matches = rule.search(&eg);
        assert_eq!(matches.len(), 1);
        let map = rule.subst_map(&matches[0].subst);
        assert_eq!(map["a"], eg.find(a));
        assert_eq!(map["b"], eg.find(b));
        assert_eq!(map["c"], eg.find(c));
        for m in matches {
            rule.apply_match(&mut eg, m.class, &m.subst);
        }
        eg.rebuild();
        // the sum's class must now contain an Fma node
        assert!(eg.nodes(sum).any(|n| *n.op == Op::Fma));
    }

    #[test]
    fn conditional_rule_filters() {
        fn never(_: &EGraph, _: &Subst) -> bool {
            false
        }
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let _ab = eg.add(Node::new(Op::Add, vec![a, b]));
        let rule = Rewrite::new("nope", "(+ ?a ?b)", "(+ ?b ?a)").with_condition(never);
        assert!(rule.search(&eg).is_empty());
        assert!(rule.search_legacy(&eg).is_empty());
    }

    #[test]
    fn compiled_and_legacy_agree_on_small_graph() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let c = eg.add(Node::sym("c"));
        let bc = eg.add(Node::new(Op::Mul, vec![b, c]));
        let _s1 = eg.add(Node::new(Op::Add, vec![a, bc]));
        let _s2 = eg.add(Node::new(Op::Add, vec![bc, a]));
        for rule in crate::rules::all_rules() {
            let mut compiled: Vec<(Id, Vec<(String, Id)>)> = rule
                .search(&eg)
                .iter()
                .map(|m| {
                    let mut s: Vec<_> = rule.subst_map(&m.subst).into_iter().collect();
                    s.sort();
                    (eg.find(m.class), s)
                })
                .collect();
            let mut legacy: Vec<(Id, Vec<(String, Id)>)> = rule
                .search_legacy(&eg)
                .into_iter()
                .map(|(class, s)| {
                    let mut s: Vec<_> = s.into_iter().collect();
                    s.sort();
                    (eg.find(class), s)
                })
                .collect();
            compiled.sort();
            legacy.sort();
            assert_eq!(compiled, legacy, "rule {}", rule.name);
        }
    }

    #[test]
    #[should_panic(expected = "not bound by lhs")]
    fn unbound_rhs_variable_panics() {
        let _ = Rewrite::new("bad", "(+ ?a ?b)", "(+ ?a ?c)");
    }
}
