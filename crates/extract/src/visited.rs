//! Epoch-stamped visited set over canonical class indices.

/// A visited set whose [`Visited::clear`] is O(1): a class is in the set
/// when its stamp equals the current epoch, so the graph walks of the
/// refinement and search inner loops reuse one allocation per extraction
/// instead of building a hash set per walk.
pub(crate) struct Visited {
    stamp: Vec<u32>,
    epoch: u32,
}

impl Visited {
    /// An empty set over class indices `< n`.
    pub(crate) fn new(n: usize) -> Visited {
        Visited { stamp: vec![0; n], epoch: 1 }
    }

    /// Forget every member.
    pub(crate) fn clear(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Add class `c`; `false` when it was already a member.
    pub(crate) fn insert(&mut self, c: usize) -> bool {
        let fresh = self.stamp[c] != self.epoch;
        self.stamp[c] = self.epoch;
        fresh
    }
}
