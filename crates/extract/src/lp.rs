//! LP-relaxation-style fractional lower bounds for DAG-cost extraction.
//!
//! The paper hands its §IV-B objective to the CBC LP solver; the classic
//! way to make branch-and-bound prove optimality fast is to bound every
//! subproblem with the *relaxation* of that integer program. This module
//! is the in-crate, dependency-free stand-in for that relaxation: an
//! iterative min-cost propagation over e-classes that credits shared
//! subterms, computed once per e-graph and queried in O(words) during the
//! search.
//!
//! # The relaxation
//!
//! The exact objective selects one node per required class and pays each
//! selected class's op cost once. Its hard part is *consistency*: sibling
//! subterms must agree on the choices of the classes they share. The
//! relaxation drops every constraint except requiredness itself and asks:
//! which classes does covering class `c` force, no matter which candidate
//! each class picks? That is the least fixpoint of
//!
//! ```text
//! S(c) = {c} ∪ ⋂ over candidates n of c ( ⋃ over children c' of n S(c') )
//! ```
//!
//! and the bound charges every forced class its cheapest surviving op:
//!
//! ```text
//! fractional_bound(c) = Σ over d ∈ S(c) of min_op(d)
//! ```
//!
//! The union inside gives *shared-subterm credit* — a class forced along
//! two sibling paths is counted once, exactly like the LP objective — and
//! the intersection keeps the bound admissible: a class is charged only
//! when **every** candidate forces it. Taking the least fixpoint (start
//! from `S(c) = {c}`, grow monotonically) under-approximates the true
//! forced set on cyclic e-graphs, which again errs on the admissible side.
//!
//! This strictly subsumes the forced-children closure of earlier
//! revisions: a direct forced child (in every candidate's child set) is in
//! every candidate's `⋃ S(child)` term, and the closure walk is the
//! transitive part of the fixpoint. What the fixpoint adds is
//! *convergence*: candidates with disjoint immediate children often agree
//! deeper down (every way to compute a stencil value loads the same
//! arrays), and those deep agreements are exactly what the big benchmark
//! kernels need charged to close their bound gaps.
//!
//! # Determinism and cost
//!
//! Classes are the *slots* of the owning [`crate::bnb::SearchContext`] —
//! the live canonical classes numbered `0..m` in ascending id order — so a
//! bitset row is `⌈m/64⌉` words however many ids saturation created (6
//! words for the largest in-repo kernel, 383 live classes of 2 588 ids).
//! The fixpoint is a worklist iteration over dense rows (`m²/8` bytes,
//! 18 KB there) whose *result* is the unique least fixpoint — processing
//! order, and the numbering of the classes, affect only the wall clock.
//! What is kept afterwards is each row's non-zero words: a required set is
//! a sliver of the graph, and the search charges a row once per required
//! child of every branch, so walking a row must cost what the row holds.

use crate::bnb::{Cands, Parents};
use std::sync::Arc;

/// Precomputed fractional lower bounds: per-class required sets and their
/// min-op mass. Built once per [`crate::bnb::SearchContext`]; the search
/// charges rows incrementally against its own `charged` bitset.
#[derive(Debug, Clone)]
pub struct LpBound {
    /// Id → slot of the [`crate::bnb::SearchContext`] the rows belong to:
    /// rows, bits and `bounds` are by slot, the public queries take the
    /// canonical e-graph index of a class.
    slot_of: Arc<[u32]>,
    /// Words per bitset row: `⌈slots/64⌉`.
    words: usize,
    /// The required-set bitsets, one row per class, holding only the
    /// non-zero words of a row as `(word index, bits)` in ascending word
    /// order: class `c` owns `sets[start[c]..start[c + 1]]`.
    start: Vec<u32>,
    sets: Vec<(u32, u64)>,
    /// Per-class bound: Σ `min_op` over the class's required set.
    bounds: Vec<u64>,
}

impl LpBound {
    /// Compute the least-fixpoint required sets and their bounds from the
    /// surviving candidate lists and per-class minimum op costs.
    pub(crate) fn build(
        cands: &Cands<'_>,
        min_op: &[u64],
        parents: &Parents,
        slot_of: &Arc<[u32]>,
    ) -> LpBound {
        let n = cands.classes();
        let words = n.div_ceil(64);
        let mut sets = vec![0u64; n * words];
        for (c, row) in sets.chunks_mut(words.max(1)).enumerate() {
            if words > 0 {
                row[c / 64] |= 1u64 << (c % 64);
            }
        }

        // chaotic worklist iteration to the least fixpoint; rows only grow
        let mut queue: std::collections::VecDeque<u32> = (0..n as u32).collect();
        let mut in_queue = vec![true; n];
        let mut union_row = vec![0u64; words];
        let mut inter_row = vec![0u64; words];
        while let Some(c) = queue.pop_front() {
            let c = c as usize;
            in_queue[c] = false;
            let list = cands.of(c);
            if list.is_empty() || words == 0 {
                continue;
            }
            inter_row.fill(!0u64);
            for cand in list {
                union_row.fill(0);
                for &child in cands.kids(cand) {
                    let row = &sets[child as usize * words..(child as usize + 1) * words];
                    for (u, &w) in union_row.iter_mut().zip(row) {
                        *u |= w;
                    }
                }
                for (i, &u) in inter_row.iter_mut().zip(union_row.iter()) {
                    *i &= u;
                }
            }
            inter_row[c / 64] |= 1u64 << (c % 64);
            let row = &mut sets[c * words..(c + 1) * words];
            let mut grew = false;
            for (w, &add) in row.iter_mut().zip(inter_row.iter()) {
                let new = *w | add;
                if new != *w {
                    *w = new;
                    grew = true;
                }
            }
            if grew {
                // the classes that re-evaluate when this one grows
                for &p in parents.of(c) {
                    if !in_queue[p as usize] {
                        in_queue[p as usize] = true;
                        queue.push_back(p);
                    }
                }
            }
        }

        // keep what the rows hold: their non-zero words
        let mut start = Vec::with_capacity(n + 1);
        let mut held = Vec::new();
        let mut bounds = Vec::with_capacity(n);
        for c in 0..n {
            start.push(held.len() as u32);
            let mut total = 0u64;
            for (wi, &w) in sets[c * words..(c + 1) * words].iter().enumerate() {
                if w != 0 {
                    held.push((wi as u32, w));
                    total += bits(wi, w).map(|d| min_op[d]).sum::<u64>();
                }
            }
            bounds.push(total);
        }
        start.push(held.len() as u32);

        LpBound { slot_of: slot_of.clone(), words, start, sets: held, bounds }
    }

    /// Number of class slots the bound was built over: one per live
    /// canonical class of the e-graph.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// Is the bound empty (zero classes)?
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// Words per bitset row (`⌈len/64⌉`).
    pub(crate) fn row_words(&self) -> usize {
        self.words
    }

    /// The required set of the class in slot `slot`: the non-zero words of
    /// its bitset row as `(word index, bits)`, ascending.
    pub(crate) fn row(&self, slot: usize) -> &[(u32, u64)] {
        &self.sets[self.start[slot] as usize..self.start[slot + 1] as usize]
    }

    /// OR the required set of the class in slot `slot` into the dense
    /// bitset `acc` ([`LpBound::row_words`] words).
    pub(crate) fn union_into(&self, slot: usize, acc: &mut [u64]) {
        for &(wi, w) in self.row(slot) {
            acc[wi as usize] |= w;
        }
    }

    /// The fractional lower bound of one class (by canonical e-graph
    /// index): the min-op mass of its required set. Admissible for the DAG
    /// cost of any selection covering the class.
    pub(crate) fn class_bound(&self, idx: usize) -> u64 {
        self.bounds[self.slot_of[idx] as usize]
    }

    /// Does class `a`'s required set contain class `b` (canonical e-graph
    /// indices)? Test/diagnostic hook.
    pub fn requires(&self, a: usize, b: usize) -> bool {
        let (a, b) = (self.slot_of[a] as usize, self.slot_of[b] as usize);
        self.row(a).iter().any(|&(wi, w)| wi as usize == b / 64 && w & (1u64 << (b % 64)) != 0)
    }
}

/// The slots of the set bits of word `wi` of a bitset, ascending.
pub(crate) fn bits(wi: usize, mut w: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (w != 0).then(|| {
            let b = w.trailing_zeros() as usize;
            w &= w - 1;
            wi * 64 + b
        })
    })
}
