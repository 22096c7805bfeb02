//! Rewrite patterns and the e-matcher.
//!
//! Patterns are written as s-expressions with `?x` variables, e.g. the FMA1
//! rule of Table I is `(+ ?a (* ?b ?c)) → (fma ?a ?b ?c)`. Matching walks
//! the e-graph with backtracking, producing one substitution per way the
//! pattern embeds into an e-class.

use crate::egraph::EGraph;
use crate::node::{Id, Op};
use std::collections::HashMap;

/// One node of a pattern tree.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternNode {
    /// `?x` — matches any e-class, bound in the substitution.
    Var(String),
    /// Concrete operator applied to sub-patterns.
    Apply {
        /// The operator that must head the matched e-node.
        op: Op,
        /// Sub-patterns matched against the e-node's children.
        children: Vec<PatternNode>,
    },
}

/// A rewrite pattern (tree of [`PatternNode`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Pattern {
    /// Root node of the pattern tree.
    pub root: PatternNode,
}

/// A substitution from pattern variables to e-class ids.
pub type Subst = HashMap<String, Id>;

impl Pattern {
    /// Variables referenced by this pattern.
    pub fn vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        fn go(p: &PatternNode, out: &mut Vec<String>) {
            match p {
                PatternNode::Var(v) => {
                    if !out.contains(v) {
                        out.push(v.clone());
                    }
                }
                PatternNode::Apply { children, .. } => {
                    for c in children {
                        go(c, out);
                    }
                }
            }
        }
        go(&self.root, &mut out);
        out
    }

    /// Match this pattern against e-class `id`, appending substitutions.
    pub fn match_class(&self, eg: &EGraph, id: Id, out: &mut Vec<Subst>) {
        let mut subst = Subst::new();
        match_node(eg, &self.root, id, &mut subst, out);
    }

    /// Match this pattern against every e-class, returning `(class, subst)`
    /// pairs.
    pub fn search(&self, eg: &EGraph) -> Vec<(Id, Subst)> {
        let mut results = Vec::new();
        for (id, _) in eg.classes() {
            let mut substs = Vec::new();
            self.match_class(eg, id, &mut substs);
            results.extend(substs.into_iter().map(|s| (id, s)));
        }
        results
    }
}

fn match_node(eg: &EGraph, pattern: &PatternNode, id: Id, subst: &mut Subst, out: &mut Vec<Subst>) {
    match pattern {
        PatternNode::Var(v) => {
            let id = eg.find(id);
            match subst.get(v) {
                Some(&bound) if eg.find(bound) != id => {} // non-linear mismatch
                Some(_) => out.push(subst.clone()),
                None => {
                    subst.insert(v.clone(), id);
                    out.push(subst.clone());
                    subst.remove(v);
                }
            }
        }
        PatternNode::Apply { op, children } => {
            for node in eg.nodes(id) {
                if node.op != op || node.children.len() != children.len() {
                    continue;
                }
                // match children left-to-right with backtracking
                match_children(eg, children, node.children, 0, subst, out);
            }
        }
    }
}

fn match_children(
    eg: &EGraph,
    patterns: &[PatternNode],
    ids: &[Id],
    i: usize,
    subst: &mut Subst,
    out: &mut Vec<Subst>,
) {
    if i == patterns.len() {
        out.push(subst.clone());
        return;
    }
    // collect partial matches of child i, then extend each to the rest
    let mut partials = Vec::new();
    match_node(eg, &patterns[i], ids[i], subst, &mut partials);
    for partial in partials {
        let mut s = partial;
        match_children(eg, patterns, ids, i + 1, &mut s, out);
    }
}

// --------------------------------------------------------------- parsing

/// Parse an s-expression pattern: `(+ ?a (* ?b ?c))`, `(fma ?a ?b ?c)`,
/// `(neg ?x)`, numbers, symbols. Unknown bare words become [`Op::Sym`]
/// leaves, so ground terms can be written directly.
pub fn parse_pattern(src: &str) -> Result<Pattern, String> {
    let tokens = sexp_tokens(src);
    let mut pos = 0usize;
    let root = parse_node(&tokens, &mut pos)?;
    if pos != tokens.len() {
        return Err(format!("trailing tokens in pattern: {:?}", &tokens[pos..]));
    }
    Ok(Pattern { root })
}

fn sexp_tokens(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in src.chars() {
        match c {
            '(' | ')' => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
                out.push(c.to_string());
            }
            c if c.is_whitespace() => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

fn parse_node(tokens: &[String], pos: &mut usize) -> Result<PatternNode, String> {
    let tok = tokens.get(*pos).ok_or("unexpected end of pattern")?.clone();
    *pos += 1;
    if tok == "(" {
        let head = tokens.get(*pos).ok_or("missing operator after `(`")?.clone();
        *pos += 1;
        let op = Op::from_name(&head).ok_or(format!("unknown operator `{head}`"))?;
        let mut children = Vec::new();
        while tokens.get(*pos).map(String::as_str) != Some(")") {
            if *pos >= tokens.len() {
                return Err("unterminated pattern".into());
            }
            children.push(parse_node(tokens, pos)?);
        }
        *pos += 1; // eat `)`
        Ok(PatternNode::Apply { op, children })
    } else if tok == ")" {
        Err("unexpected `)`".into())
    } else if let Some(v) = tok.strip_prefix('?') {
        Ok(PatternNode::Var(v.to_string()))
    } else if let Some(op) = Op::from_name(&tok) {
        Ok(PatternNode::Apply { op, children: Vec::new() })
    } else {
        // bare word: a ground symbol leaf
        Ok(PatternNode::Apply { op: Op::Sym(tok), children: Vec::new() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;

    #[test]
    fn parse_fma_pattern() {
        let p = parse_pattern("(+ ?a (* ?b ?c))").unwrap();
        assert_eq!(p.vars(), vec!["a", "b", "c"]);
        match &p.root {
            PatternNode::Apply { op: Op::Add, children } => {
                assert!(matches!(children[0], PatternNode::Var(ref v) if v == "a"));
                assert!(matches!(children[1], PatternNode::Apply { op: Op::Mul, .. }));
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn parse_literals_and_symbols() {
        let p = parse_pattern("(* 2 x)").unwrap();
        match &p.root {
            PatternNode::Apply { op: Op::Mul, children } => {
                assert!(matches!(children[0], PatternNode::Apply { op: Op::Int(2), .. }));
                assert!(
                    matches!(children[1], PatternNode::Apply { op: Op::Sym(ref s), .. } if s == "x")
                );
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse_pattern("(+ ?a").is_err());
        assert!(parse_pattern(")").is_err());
        assert!(parse_pattern("(+ ?a ?b) extra").is_err());
    }

    #[test]
    fn simple_match() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let c = eg.add(Node::sym("c"));
        let bc = eg.add(Node::new(Op::Mul, vec![b, c]));
        let root = eg.add(Node::new(Op::Add, vec![a, bc]));
        let p = parse_pattern("(+ ?x (* ?y ?z))").unwrap();
        let mut substs = Vec::new();
        p.match_class(&eg, root, &mut substs);
        assert_eq!(substs.len(), 1);
        assert_eq!(substs[0]["x"], eg.find(a));
        assert_eq!(substs[0]["y"], eg.find(b));
        assert_eq!(substs[0]["z"], eg.find(c));
    }

    #[test]
    fn nonlinear_pattern_requires_equality() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let ab = eg.add(Node::new(Op::Add, vec![a, b]));
        let aa = eg.add(Node::new(Op::Add, vec![a, a]));
        let p = parse_pattern("(+ ?x ?x)").unwrap();
        let mut substs = Vec::new();
        p.match_class(&eg, ab, &mut substs);
        assert!(substs.is_empty(), "a+b must not match (+ ?x ?x)");
        substs.clear();
        p.match_class(&eg, aa, &mut substs);
        assert_eq!(substs.len(), 1);
    }

    #[test]
    fn nonlinear_matches_after_union() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let ab = eg.add(Node::new(Op::Add, vec![a, b]));
        eg.union(a, b);
        eg.rebuild();
        let p = parse_pattern("(+ ?x ?x)").unwrap();
        let mut substs = Vec::new();
        p.match_class(&eg, ab, &mut substs);
        assert_eq!(substs.len(), 1, "after union(a,b), a+b matches (+ ?x ?x)");
    }

    #[test]
    fn search_finds_all_classes() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let _s1 = eg.add(Node::new(Op::Mul, vec![a, b]));
        let _s2 = eg.add(Node::new(Op::Mul, vec![b, a]));
        let p = parse_pattern("(* ?x ?y)").unwrap();
        let found = p.search(&eg);
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn multiple_matches_in_one_class() {
        // class containing both (* a b) and (* b a): two matches of (* ?x ?y)
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let s1 = eg.add(Node::new(Op::Mul, vec![a, b]));
        let s2 = eg.add(Node::new(Op::Mul, vec![b, a]));
        eg.union(s1, s2);
        eg.rebuild();
        let p = parse_pattern("(* ?x ?y)").unwrap();
        let mut substs = Vec::new();
        p.match_class(&eg, s1, &mut substs);
        assert_eq!(substs.len(), 2);
    }
}
