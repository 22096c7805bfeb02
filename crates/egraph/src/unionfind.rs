//! Union-find (disjoint set) over e-class ids, with path halving.

use crate::node::Id;

/// What lowering a finished selection asks of an e-graph: canonical ids.
/// A live [`EGraph`](crate::EGraph) is one; so is the union-find a
/// snapshot's head holds ([`SnapshotHead`](crate::SnapshotHead)), which is
/// all a cached selection needs to be walked and lowered.
pub trait Canonical {
    /// The canonical id of `id`, which must be below [`id_bound`].
    ///
    /// [`id_bound`]: Canonical::id_bound
    fn find(&self, id: Id) -> Id;

    /// Number of ids ever created: every id, canonical or not, is below it.
    fn id_bound(&self) -> usize;
}

/// Disjoint-set forest keyed by [`Id`]. `find` uses path halving; `union` is
/// union-by-instruction-order (the caller decides the surviving root, which
/// the e-graph uses to keep the analysis data on the canonical class).
#[derive(Debug, Clone, Default)]
pub(crate) struct UnionFind {
    pub(crate) parents: Vec<Id>,
}

impl UnionFind {
    /// Number of ids ever created (not the number of sets).
    pub(crate) fn len(&self) -> usize {
        self.parents.len()
    }

    /// Create a fresh singleton set and return its id.
    pub(crate) fn make_set(&mut self) -> Id {
        let id = Id::from(self.parents.len());
        self.parents.push(id);
        id
    }

    /// Is `id` its own representative?
    pub(crate) fn is_root(&self, id: Id) -> bool {
        self.parents[id.index()] == id
    }

    /// Find the canonical representative of `id` without mutation.
    pub(crate) fn find(&self, mut id: Id) -> Id {
        while self.parents[id.index()] != id {
            id = self.parents[id.index()];
        }
        id
    }

    /// Find with path halving (amortized near-constant).
    pub(crate) fn find_mut(&mut self, mut id: Id) -> Id {
        while self.parents[id.index()] != id {
            let grandparent = self.parents[self.parents[id.index()].index()];
            self.parents[id.index()] = grandparent;
            id = grandparent;
        }
        id
    }

    /// Merge the set containing `from` into the set containing `to`.
    /// Returns the canonical id (`to`'s root). `to` survives.
    pub(crate) fn union(&mut self, to: Id, from: Id) -> Id {
        let to = self.find_mut(to);
        let from = self.find_mut(from);
        self.parents[from.index()] = to;
        to
    }

    /// Are two ids in the same set?
    pub(crate) fn same(&self, a: Id, b: Id) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_are_their_own_roots() {
        let mut uf = UnionFind::default();
        let ids: Vec<Id> = (0..8).map(|_| uf.make_set()).collect();
        for &id in &ids {
            assert_eq!(uf.find(id), id);
        }
    }

    #[test]
    fn union_merges_and_to_survives() {
        let mut uf = UnionFind::default();
        let a = uf.make_set();
        let b = uf.make_set();
        let c = uf.make_set();
        let root = uf.union(a, b);
        assert_eq!(root, a);
        assert!(uf.same(a, b));
        assert!(!uf.same(a, c) && !uf.same(b, c));
    }

    #[test]
    fn transitive_union() {
        let mut uf = UnionFind::default();
        let ids: Vec<Id> = (0..10).map(|_| uf.make_set()).collect();
        // chain 0←1, 1←2, …
        for w in ids.windows(2) {
            uf.union(w[0], w[1]);
        }
        for &id in &ids {
            assert_eq!(uf.find_mut(id), ids[0]);
        }
    }

    #[test]
    fn path_halving_preserves_roots() {
        let mut uf = UnionFind::default();
        let ids: Vec<Id> = (0..64).map(|_| uf.make_set()).collect();
        for &id in &ids[1..] {
            uf.union(ids[0], id);
        }
        // find_mut compresses but the root never changes
        for &id in &ids {
            assert_eq!(uf.find_mut(id), ids[0]);
            assert_eq!(uf.find(id), ids[0]);
        }
    }

    #[test]
    fn union_idempotent() {
        let mut uf = UnionFind::default();
        let a = uf.make_set();
        let b = uf.make_set();
        uf.union(a, b);
        let r = uf.union(a, b);
        assert_eq!(r, a);
        assert!(uf.same(a, b) && uf.find(b) == a);
    }

    /// Naive reference partition: `labels[i]` is the set label of id `i`,
    /// merged by full relabel on every union.
    struct Reference {
        labels: Vec<usize>,
    }

    impl Reference {
        fn new(n: usize) -> Reference {
            Reference { labels: (0..n).collect() }
        }
        fn union(&mut self, to: usize, from: usize) {
            let (keep, gone) = (self.labels[to], self.labels[from]);
            for l in &mut self.labels {
                if *l == gone {
                    *l = keep;
                }
            }
        }
        fn same(&self, a: usize, b: usize) -> bool {
            self.labels[a] == self.labels[b]
        }
    }

    #[test]
    fn random_unions_match_reference_partition() {
        // Deterministic LCG so failures reproduce.
        let mut state = 0x2545f491_4f6cdd1du64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        const N: usize = 100;
        let mut uf = UnionFind::default();
        let ids: Vec<Id> = (0..N).map(|_| uf.make_set()).collect();
        let mut reference = Reference::new(N);

        for step in 0..400 {
            let (a, b) = (rng() % N, rng() % N);
            let root = uf.union(ids[a], ids[b]);
            reference.union(a, b);
            // the surviving root is `to`'s representative
            assert_eq!(root, uf.find(ids[a]), "step {step}: union did not keep `to`'s root");
            // the partitions agree on every pair sampled this round
            for _ in 0..16 {
                let (x, y) = (rng() % N, rng() % N);
                assert_eq!(
                    uf.same(ids[x], ids[y]),
                    reference.same(x, y),
                    "step {step}: partition disagrees on ({x}, {y})"
                );
            }
            // and every ten steps on every pair
            if step % 10 == 0 {
                for x in 0..N {
                    for y in 0..N {
                        assert_eq!(uf.same(ids[x], ids[y]), reference.same(x, y), "step {step}");
                    }
                }
            }
        }
    }

    #[test]
    fn find_is_idempotent_and_consistent_with_find_mut() {
        let mut uf = UnionFind::default();
        let ids: Vec<Id> = (0..32).map(|_| uf.make_set()).collect();
        for i in (0..32).step_by(2) {
            uf.union(ids[i], ids[(i + 7) % 32]);
        }
        for &id in &ids {
            let r = uf.find(id);
            assert_eq!(uf.find(r), r, "find(find(x)) must equal find(x)");
            assert_eq!(uf.find_mut(id), r, "find_mut must agree with find");
            // and path halving must not have changed any representative
            assert_eq!(uf.find(id), r);
        }
    }

    #[test]
    fn congruence_closure_style_merges() {
        // The e-graph's congruence restoration unions classes whose nodes
        // become equal after canonicalization; the union-find must support
        // the resulting cascades: union chains built in both directions
        // still produce one set with a stable representative.
        let mut uf = UnionFind::default();
        let ids: Vec<Id> = (0..16).map(|_| uf.make_set()).collect();
        // f(a)=f(b) merges, pairwise from both ends
        for i in 0..8 {
            uf.union(ids[i], ids[15 - i]);
        }
        // then collapse the pairs left-to-right, as rebuild's worklist would
        for i in 0..7 {
            uf.union(ids[i], ids[i + 1]);
        }
        let root = uf.find(ids[0]);
        assert_eq!(root, ids[0], "first `to` of the final cascade survives");
        for &id in &ids {
            assert_eq!(uf.find_mut(id), root);
        }
        assert_eq!(uf.len(), 16, "len counts ids ever created, not sets");
    }
}
