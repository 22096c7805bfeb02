//! A selection: one chosen e-node per (reachable) e-class.

use crate::cost::CostModel;
use accsat_egraph::{op_token, parse_op_token, EGraph, Id, Node};
use std::collections::HashMap;

/// Why a selection could not be walked from its roots.
///
/// Extractor-produced selections are acyclic and total over the roots'
/// closure by construction; the fuzz harness and the stage cache re-check
/// that contract with [`Selection::checked_cost`] instead of trusting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionError {
    /// The chosen nodes form a cycle through this class.
    Cyclic(Id),
    /// A reachable class has no selected node.
    Missing(Id),
    /// An id the e-graph never created.
    OutOfRange(Id),
    /// The node chosen for this class is not one of the class's e-nodes.
    NotMember(Id),
}

impl std::fmt::Display for SelectionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectionError::Cyclic(id) => write!(f, "cyclic selection at {id}"),
            SelectionError::Missing(id) => write!(f, "class {id} has no selected node"),
            SelectionError::OutOfRange(id) => write!(f, "id {id} is not in the e-graph"),
            SelectionError::NotMember(id) => write!(f, "chosen node is not in class {id}"),
        }
    }
}

impl std::error::Error for SelectionError {}

/// One chosen representative node per canonical e-class.
#[derive(Debug, Clone, Default)]
pub struct Selection {
    choice: HashMap<Id, Node>,
}

impl Selection {
    /// Empty selection.
    pub fn new() -> Selection {
        Selection::default()
    }

    /// Record the chosen node for a class (id may be non-canonical).
    pub fn choose(&mut self, eg: &EGraph, id: Id, node: Node) {
        self.choice.insert(eg.find(id), node);
    }

    /// Chosen node for a class. Panics if the class was not selected —
    /// selections returned by the extractors always cover all reachable
    /// classes.
    pub fn node(&self, eg: &EGraph, id: Id) -> &Node {
        self.choice.get(&eg.find(id)).unwrap_or_else(|| panic!("class {id} has no selected node"))
    }

    /// Chosen node, if any.
    pub fn get(&self, eg: &EGraph, id: Id) -> Option<&Node> {
        self.choice.get(&eg.find(id))
    }

    /// Every `(class, chosen node)` pair, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Id, &Node)> {
        self.choice.iter().map(|(&id, node)| (id, node))
    }

    /// Number of selected classes.
    pub fn len(&self) -> usize {
        self.choice.len()
    }

    /// Is the selection empty?
    pub fn is_empty(&self) -> bool {
        self.choice.is_empty()
    }

    /// Adopt `other`'s choice for every class this selection does not
    /// cover. Used to complete a minimal branch-and-bound selection (roots
    /// closure only) to the total cover the code generator expects —
    /// consumers also materialize classes that are not extraction roots,
    /// such as loop and branch conditions. Filling cannot create a cycle:
    /// the minimal selection is closed under children, so no path through
    /// it can return to a filled class.
    pub fn fill_from(&mut self, other: &Selection) {
        for (id, node) in &other.choice {
            self.choice.entry(*id).or_insert_with(|| node.clone());
        }
    }

    /// All classes reachable from `roots` through the selection, in
    /// children-before-parents (topological) order. Panics on a cyclic or
    /// incomplete selection — [`Selection::checked_cost`] reports those
    /// as a [`SelectionError`] instead.
    pub fn reachable(&self, eg: &EGraph, roots: &[Id]) -> Vec<Id> {
        match self.try_reachable(eg, roots) {
            Ok(order) => order,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Selection::reachable`] that reports a cyclic or incomplete
    /// selection (or one naming an id `eg` never created) as an error
    /// instead of panicking — the walk under [`Selection::checked_cost`].
    pub(crate) fn try_reachable(
        &self,
        eg: &EGraph,
        roots: &[Id],
    ) -> Result<Vec<Id>, SelectionError> {
        const VISITING: u8 = 1;
        const DONE: u8 = 2;
        let mut order = Vec::new();
        let mut state = vec![0u8; eg.id_bound()];
        fn go(
            sel: &Selection,
            eg: &EGraph,
            id: Id,
            state: &mut [u8],
            order: &mut Vec<Id>,
        ) -> Result<(), SelectionError> {
            // ids may come from outside the program (a cached selection)
            if id.index() >= state.len() {
                return Err(SelectionError::OutOfRange(id));
            }
            let id = eg.find(id);
            match state[id.index()] {
                DONE => return Ok(()),
                VISITING => return Err(SelectionError::Cyclic(id)),
                _ => {}
            }
            state[id.index()] = VISITING;
            let node = sel.choice.get(&id).ok_or(SelectionError::Missing(id))?;
            for &c in &node.children {
                go(sel, eg, c, state, order)?;
            }
            state[id.index()] = DONE;
            order.push(id);
            Ok(())
        }
        for &r in roots {
            go(self, eg, r, &mut state, &mut order)?;
        }
        Ok(order)
    }

    /// True DAG cost: each reachable class's chosen op counted exactly once
    /// (the paper's LP objective).
    pub fn dag_cost(&self, eg: &EGraph, cm: &CostModel, roots: &[Id]) -> u64 {
        self.reachable(eg, roots).iter().map(|&id| cm.op_cost(&self.node(eg, id).op)).sum()
    }

    /// [`Selection::dag_cost`] of a selection that is not trusted to fit
    /// `eg` — one decoded from a cache entry, or an extractor's under test.
    /// Every id the walk meets must exist in `eg`, the selection must be
    /// total and acyclic over the roots' closure,
    /// and every chosen node must be a member of its class — same operator,
    /// same canonical children — which is exactly what makes lowering a
    /// selection sound, wherever it came from.
    pub fn checked_cost(
        &self,
        eg: &EGraph,
        cm: &CostModel,
        roots: &[Id],
    ) -> Result<u64, SelectionError> {
        let mut cost = 0;
        for id in self.try_reachable(eg, roots)? {
            let node = &self.choice[&id];
            let find = |c: &Id| eg.find(*c);
            let member = |n: accsat_egraph::NodeRef<'_>| {
                n.op == &node.op && n.children.iter().map(find).eq(node.children.iter().map(find))
            };
            if !eg.nodes(id).any(member) {
                return Err(SelectionError::NotMember(id));
            }
            cost += cm.op_cost(&node.op);
        }
        Ok(cost)
    }

    /// Would selecting `node` for class `id` close a cycle through the
    /// currently selected choices?
    pub fn would_cycle(&self, eg: &EGraph, id: Id, node: &Node) -> bool {
        let target = eg.find(id);
        let mut stack: Vec<Id> = node.children.iter().map(|&c| eg.find(c)).collect();
        let mut seen = std::collections::HashSet::new();
        while let Some(c) = stack.pop() {
            if c == target {
                return true;
            }
            if !seen.insert(c) {
                continue;
            }
            if let Some(n) = self.choice.get(&c) {
                stack.extend(n.children.iter().map(|&k| eg.find(k)));
            }
        }
        false
    }

    /// Content hash of the selection as seen from `roots`: a stable 64-bit
    /// FNV-1a digest over the chosen node of every reachable class, in
    /// deterministic children-before-parents order. Two selections hash
    /// equal exactly when they choose the same node for every class
    /// reachable from `roots` — the autotuner uses this to drop
    /// structurally identical candidates before spending simulation budget
    /// on them.
    ///
    /// **Invariant — root-reachable choices only.** Classes outside the
    /// roots' reachable closure never influence the generated kernel's
    /// computation, so they are excluded *on purpose*: a minimal
    /// branch-and-bound selection completed with [`Selection::fill_from`]
    /// hashes identically to the same selection completed from a
    /// different donor (or not completed at all), and the autotuner's
    /// dedup therefore collapses candidates that differ only in the
    /// cost-irrelevant filler. Hash the printed kernel instead if filler
    /// classes ever become observable.
    pub fn content_hash(&self, eg: &EGraph, roots: &[Id]) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        for id in self.reachable(eg, roots) {
            let node = self.node(eg, id);
            mix(&(id.index() as u64).to_le_bytes());
            mix(node.op.name().as_bytes());
            mix(&(node.children.len() as u64).to_le_bytes());
            for &c in &node.children {
                mix(&(eg.find(c).index() as u64).to_le_bytes());
            }
        }
        h
    }

    /// Serialize the selection to the versioned line format used by the
    /// stage cache (`accsat-selection v1`). Entries are written sorted by
    /// class id, so equal selections serialize to equal bytes. Ids are the
    /// canonical ids of the e-graph the selection was extracted from — a
    /// cached selection is only meaningful against the *same* serialized
    /// e-graph snapshot, which is why the cache keys the selection level
    /// on a superset of the saturation key.
    pub fn serialize(&self) -> String {
        use std::fmt::Write as _;
        let mut entries: Vec<(&Id, &Node)> = self.choice.iter().collect();
        entries.sort_unstable();
        let mut out = String::new();
        let _ = writeln!(out, "accsat-selection v1 {}", entries.len());
        for (id, node) in entries {
            let _ = write!(out, "{} {} {}", id.index(), op_token(&node.op), node.children.len());
            for c in &node.children {
                let _ = write!(out, " {}", c.index());
            }
            out.push('\n');
        }
        out.push_str("end\n");
        out
    }

    /// Restore a selection from [`Selection::serialize`] output. Errors on
    /// version mismatch or corruption (the cache maps errors to misses):
    /// like the snapshot reader, it accepts exactly the bytes `serialize`
    /// writes — single spaces, no token past a line's arity, nothing after
    /// the `end` line.
    pub fn deserialize(text: &str) -> Result<Selection, String> {
        let mut lines = text.split('\n');
        let header = lines.next().unwrap_or("");
        let count = header
            .strip_prefix("accsat-selection v1 ")
            .ok_or_else(|| format!("unsupported selection format {header:?}"))?;
        let count: usize = count.parse().map_err(|e| format!("bad selection count: {e}"))?;
        // every entry is a line of its own: a count the text cannot back
        // is corruption, caught before anything is reserved for it
        if count > text.len() {
            return Err(format!("selection count {count} exceeds the input"));
        }
        let mut choice = HashMap::with_capacity(count);
        for _ in 0..count {
            let line = lines.next().ok_or("truncated selection input")?;
            let mut toks = line.split(' ');
            let mut next = || toks.next().ok_or_else(|| format!("truncated line {line:?}"));
            // ids are `u32`s; parsing them as such rejects what `Id` cannot hold
            let id: u32 = next()?.parse().map_err(|e| format!("bad id in {line:?}: {e}"))?;
            let op = parse_op_token(next()?)?;
            let k: usize = next()?.parse().map_err(|e| format!("bad arity in {line:?}: {e}"))?;
            if k > line.len() {
                return Err(format!("arity {k} exceeds the line {line:?}"));
            }
            let mut children = Vec::with_capacity(k);
            for _ in 0..k {
                let c: u32 = next()?.parse().map_err(|e| format!("bad child: {e}"))?;
                children.push(Id::new(c));
            }
            if toks.next().is_some() {
                return Err(format!("text after the arity's children in {line:?}"));
            }
            if choice.insert(Id::new(id), Node { op, children }).is_some() {
                return Err(format!("duplicate selection entry for class {id}"));
            }
        }
        if lines.next() != Some("end") {
            return Err("missing selection end marker".into());
        }
        if (lines.next(), lines.next()) != (Some(""), None) {
            return Err("text after the end marker".into());
        }
        Ok(Selection { choice })
    }

    /// Render the selected term for a root as an s-expression (debugging).
    pub fn term_string(&self, eg: &EGraph, id: Id) -> String {
        let node = self.node(eg, id);
        if node.children.is_empty() {
            node.op.name()
        } else {
            let kids: Vec<String> =
                node.children.iter().map(|&c| self.term_string(eg, c)).collect();
            format!("({} {})", node.op.name(), kids.join(" "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accsat_egraph::{Node, Op};

    #[test]
    fn serialize_round_trips_and_is_sorted_stable() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let m = eg.add(Node::new(Op::Mul, vec![a, b]));
        let mut sel = Selection::new();
        sel.choose(&eg, m, Node::new(Op::Mul, vec![a, b]));
        sel.choose(&eg, a, Node::sym("a"));
        sel.choose(&eg, b, Node::sym("b"));
        let text = sel.serialize();
        let back = Selection::deserialize(&text).expect("round trip");
        assert_eq!(back.serialize(), text, "re-serialization must be byte-identical");
        assert_eq!(back.len(), sel.len());
        assert_eq!(back.node(&eg, m), sel.node(&eg, m));
        assert_eq!(back.dag_cost(&eg, &CostModel::paper(), &[m]), {
            sel.dag_cost(&eg, &CostModel::paper(), &[m])
        });
        // corruption and version mismatches are errors, not panics
        assert!(Selection::deserialize("accsat-selection v999 0\nend\n").is_err());
        assert!(Selection::deserialize(&text[..text.len() / 2]).is_err());
        // an id `Id` cannot hold used to panic; a count or arity the text
        // cannot back used to abort in `with_capacity`
        for hostile in [
            "accsat-selection v1 1\n99999999999 s:a 0\nend\n",
            "accsat-selection v1 1\n0 + 1 99999999999\nend\n",
            "accsat-selection v1 1152921504606846975\n0 s:a 0\nend\n",
            "accsat-selection v1 1\n0 + 1152921504606846975 1\nend\n",
        ] {
            assert!(Selection::deserialize(hostile).is_err(), "{hostile:?}");
        }
    }

    #[test]
    fn appended_text_and_extra_tokens_are_rejected() {
        // like the snapshot reader's "text after the end marker": a cache
        // entry something appended to is corrupt, not a hit
        let text = "accsat-selection v1 2\n0 s:a 0\n1 neg 1 0\nend\n";
        assert!(Selection::deserialize(text).is_ok());
        for hostile in [
            format!("{text}end\n"),
            format!("{text}# a comment\n"),
            format!("{text}\n"),
            text.replace("end\n", "end"),
            text.replace("end\n", "end extra\n"),
            text.replace("v1 2\n", "v1 2 9\n"),
            text.replace("0 s:a 0\n", "0 s:a 0 7\n"),
            text.replace("1 neg 1 0\n", "1 neg 1 0 0\n"),
            text.replace("1 neg 1 0\n", "1 neg 1 0 \n"),
            text.replace("1 neg 1 0\n", "1  neg 1 0\n"),
        ] {
            assert!(Selection::deserialize(&hostile).is_err(), "{hostile:?}");
        }
    }

    #[test]
    fn reachable_is_topo_ordered() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let ab = eg.add(Node::new(Op::Add, vec![a, b]));
        let r = eg.add(Node::new(Op::Mul, vec![ab, a]));
        let mut sel = Selection::new();
        for &(id, ref n) in &[
            (a, Node::sym("a")),
            (b, Node::sym("b")),
            (ab, Node::new(Op::Add, vec![a, b])),
            (r, Node::new(Op::Mul, vec![ab, a])),
        ] {
            sel.choose(&eg, id, n.clone());
        }
        let order = sel.reachable(&eg, &[r]);
        let pos = |x: Id| order.iter().position(|&y| y == eg.find(x)).unwrap();
        assert!(pos(a) < pos(ab));
        assert!(pos(b) < pos(ab));
        assert!(pos(ab) < pos(r));
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn dag_cost_counts_each_shared_class_once() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let ab = eg.add(Node::new(Op::Add, vec![a, a]));
        let r = eg.add(Node::new(Op::Mul, vec![ab, ab]));
        let mut sel = Selection::new();
        sel.choose(&eg, a, Node::sym("a"));
        sel.choose(&eg, ab, Node::new(Op::Add, vec![a, a]));
        sel.choose(&eg, r, Node::new(Op::Mul, vec![ab, ab]));
        let cm = CostModel::paper();
        // a(1) + add(10) + mul(10) = 21, not the tree's 10 + 2 * (10 + 2 * 1) = 34
        assert_eq!(sel.dag_cost(&eg, &cm, &[r]), 21);
    }

    #[test]
    fn content_hash_distinguishes_choices() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let div = eg.add(Node::new(Op::Div, vec![a, b]));
        let mul = eg.add(Node::new(Op::Mul, vec![a, b]));
        eg.union(div, mul);
        eg.rebuild();
        let mut s1 = Selection::new();
        s1.choose(&eg, a, Node::sym("a"));
        s1.choose(&eg, b, Node::sym("b"));
        s1.choose(&eg, div, Node::new(Op::Div, vec![a, b]));
        let mut s2 = s1.clone();
        s2.choose(&eg, div, Node::new(Op::Mul, vec![a, b]));
        let roots = [div];
        // same selection hashes equal, different node choice hashes apart
        assert_eq!(s1.content_hash(&eg, &roots), s1.clone().content_hash(&eg, &roots));
        assert_ne!(s1.content_hash(&eg, &roots), s2.content_hash(&eg, &roots));
        // classes outside the reachable closure do not affect the hash
        let mut s3 = s2.clone();
        let c = eg.add(Node::sym("c"));
        s3.choose(&eg, c, Node::sym("c"));
        assert_eq!(s2.content_hash(&eg, &roots), s3.content_hash(&eg, &roots));
    }

    #[test]
    fn content_hash_ignores_fill_from_filler() {
        // a minimal selection covering only the root's closure, completed
        // by fill_from with two different donors: the donors differ in a
        // non-root class, so both completions (and the minimal selection
        // itself) must dedup to one content hash
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let root = eg.add(Node::new(Op::Add, vec![a, a]));
        let side = eg.add(Node::new(Op::Div, vec![a, b]));
        let side_alt = eg.add(Node::new(Op::Mul, vec![a, b]));
        eg.union(side, side_alt);
        eg.rebuild();
        let roots = [eg.find(root)];

        let mut minimal = Selection::new();
        minimal.choose(&eg, a, Node::sym("a"));
        minimal.choose(&eg, root, Node::new(Op::Add, vec![a, a]));
        let h_min = minimal.content_hash(&eg, &roots);

        let mut donor_div = minimal.clone();
        donor_div.choose(&eg, b, Node::sym("b"));
        donor_div.choose(&eg, side, Node::new(Op::Div, vec![a, b]));
        let mut donor_mul = minimal.clone();
        donor_mul.choose(&eg, b, Node::sym("b"));
        donor_mul.choose(&eg, side, Node::new(Op::Mul, vec![a, b]));

        let mut filled_div = minimal.clone();
        filled_div.fill_from(&donor_div);
        let mut filled_mul = minimal.clone();
        filled_mul.fill_from(&donor_mul);
        assert_ne!(
            filled_div.node(&eg, side),
            filled_mul.node(&eg, side),
            "the fillers really differ outside the root closure"
        );
        assert_eq!(filled_div.content_hash(&eg, &roots), h_min);
        assert_eq!(filled_mul.content_hash(&eg, &roots), h_min);
        // …and a genuinely different root-reachable choice still changes it
        let mut other = filled_div.clone();
        other.choose(&eg, a, Node::sym("b"));
        assert_ne!(other.content_hash(&eg, &roots), h_min);
    }

    #[test]
    fn checked_cost_accepts_members_only() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let ab = eg.add(Node::new(Op::Add, vec![a, b]));
        let cm = CostModel::paper();
        let with_root = |node: Node| {
            let mut sel = Selection::new();
            sel.choose(&eg, a, Node::sym("a"));
            sel.choose(&eg, b, Node::sym("b"));
            sel.choose(&eg, ab, node);
            sel.checked_cost(&eg, &cm, &[ab])
        };
        let sound = with_root(Node::new(Op::Add, vec![a, b]));
        assert_eq!(sound, Ok(12), "a(1) + b(1) + add(10)");
        // walks, prices the same, but `a * b` is not in the class of `a + b`
        assert_eq!(with_root(Node::new(Op::Mul, vec![a, b])), Err(SelectionError::NotMember(ab)));
        assert_eq!(with_root(Node::new(Op::Add, vec![a, a])), Err(SelectionError::NotMember(ab)));
        // ids the e-graph never created are errors, not index panics
        let ghost = Id::new(99);
        assert_eq!(
            with_root(Node::new(Op::Add, vec![a, ghost])),
            Err(SelectionError::OutOfRange(ghost))
        );
        assert_eq!(
            Selection::new().checked_cost(&eg, &cm, &[ghost]),
            Err(SelectionError::OutOfRange(ghost))
        );
    }

    #[test]
    fn cycle_detection() {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let na = eg.add(Node::new(Op::Neg, vec![a]));
        let mut sel = Selection::new();
        // if `a`'s class chose a node pointing at `na`, na→a→na would cycle
        sel.choose(&eg, a, Node::new(Op::Neg, vec![na]));
        assert!(sel.would_cycle(&eg, na, &Node::new(Op::Neg, vec![a])));
        let b = eg.add(Node::sym("b"));
        assert!(!sel.would_cycle(&eg, na, &Node::new(Op::Neg, vec![b])));
    }
}
