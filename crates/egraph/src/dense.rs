//! Dense sets over small integer keys (class indices, form numbers).
//!
//! The e-graph's ids are dense `u32`s, so every "have I seen this one"
//! question on the iteration path is a table lookup, not a hash probe.

use crate::node::Id;

/// A visited set whose [`Visited::clear`] is O(1): a key is in the set
/// when its stamp equals the current epoch, so a graph walk run thousands
/// of times reuses one allocation instead of building a hash set per walk.
#[derive(Debug, Clone)]
pub struct Visited {
    stamp: Vec<u32>,
    epoch: u32,
}

impl Default for Visited {
    /// The empty set over no keys ([`Visited::grow`] it before use).
    fn default() -> Visited {
        Visited::new(0)
    }
}

impl Visited {
    /// An empty set over keys `< n`.
    pub fn new(n: usize) -> Visited {
        Visited { stamp: vec![0; n], epoch: 1 }
    }

    /// Make room for keys `< n` (never shrinks; members are kept).
    pub fn grow(&mut self, n: usize) {
        if n > self.stamp.len() {
            self.stamp.resize(n, 0);
        }
    }

    /// Forget every member.
    pub fn clear(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Add key `c`; `false` when it was already a member.
    pub fn insert(&mut self, c: usize) -> bool {
        let fresh = self.stamp[c] != self.epoch;
        self.stamp[c] = self.epoch;
        fresh
    }

    /// Is key `c` a member?
    pub fn contains(&self, c: usize) -> bool {
        self.stamp[c] == self.epoch
    }
}

/// An owned set of e-class ids as a bit table: what
/// [`crate::EGraph::take_search_dirty`] returns and the runner keeps per
/// benched rule. Membership is one shift and mask; merging is a word-wise
/// or. An id beyond the table is simply not a member.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassSet {
    words: Vec<u64>,
}

impl ClassSet {
    /// An empty set with room for ids `< n`.
    pub fn with_bound(n: usize) -> ClassSet {
        ClassSet { words: vec![0; n.div_ceil(64)] }
    }

    /// Add `id`; `false` when it was already a member.
    pub fn insert(&mut self, id: Id) -> bool {
        let (w, bit) = (id.index() / 64, 1u64 << (id.index() % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        fresh
    }

    /// Is `id` a member?
    pub fn contains(&self, id: Id) -> bool {
        self.words.get(id.index() / 64).is_some_and(|w| w & (1u64 << (id.index() % 64)) != 0)
    }

    /// Add every member of `other`.
    pub fn union_with(&mut self, other: &ClassSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Has the set no members?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visited_clears_in_constant_time_and_survives_epoch_wrap() {
        let mut v = Visited::new(4);
        assert!(v.insert(2));
        assert!(!v.insert(2));
        assert!(v.contains(2) && !v.contains(1));
        v.clear();
        assert!(!v.contains(2));
        v.epoch = u32::MAX;
        v.insert(3);
        v.clear();
        assert!(!v.contains(3), "a wrapped epoch must not resurrect old stamps");
        v.grow(9);
        assert!(v.insert(8));
    }

    #[test]
    fn class_set_inserts_merges_and_ignores_out_of_range_probes() {
        let mut a = ClassSet::with_bound(10);
        assert!(a.is_empty());
        assert!(a.insert(Id::new(3)));
        assert!(!a.insert(Id::new(3)));
        assert!(a.insert(Id::new(200)), "insert grows the table");
        assert!(!a.contains(Id::new(5000)));
        let mut b = ClassSet::with_bound(2);
        b.insert(Id::new(1));
        b.union_with(&a);
        assert!(b.contains(Id::new(200)) && b.contains(Id::new(3)) && b.contains(Id::new(1)));
        assert!(!b.contains(Id::new(2)) && !b.is_empty());
    }
}
