//! The e-graph's per-class and per-operator lists, kept so that they cost
//! no allocation of their own where they usually need none.
//!
//! Most e-classes hold one e-node, most operators head one class, and in
//! a kernel fresh from SSA construction most classes have one parent, so
//! a [`List`] keeps one item inline and allocates only for a second. A
//! restored graph — a stage-cache hit — mostly never changes its lists,
//! so the snapshot reader lays every longer list out in one shared pool
//! per kind (`EGraph::node_pool`, `parent_pool`, `class_pool`), and a
//! list stays a run of its pool until a change copies it out.

use crate::arena::Form;
use crate::node::Id;

/// One (parent node, parent class) entry of a class's parents list.
pub(crate) type Parent = (Form, Id);

/// A list of `Copy` items. Read it with [`List::as_slice`], handing it the
/// pool of its kind in the graph that owns it; equal lists are equal
/// slices, whatever their storage.
#[derive(Debug, Clone)]
pub(crate) enum List<T> {
    /// No item, or one.
    Inline(Option<T>),
    /// `pool[start..start + len]`, as restored.
    Pooled { start: u32, len: u32 },
    /// The list's own storage.
    Heap(Vec<T>),
}

impl<T> Default for List<T> {
    fn default() -> List<T> {
        List::Inline(None)
    }
}

impl<T: Copy> List<T> {
    /// The list holding `item`.
    pub(crate) fn one(item: T) -> List<T> {
        List::Inline(Some(item))
    }

    /// The items `pool` holds from `start` on, as the list they were read
    /// for: an item alone moves inline and leaves the pool. `None` when
    /// the pool outgrows a `u32` index.
    pub(crate) fn from_run(pool: &mut Vec<T>, start: usize) -> Option<List<T>> {
        Some(match pool.len() - start {
            0 => List::default(),
            1 => List::Inline(pool.pop()),
            len => {
                List::Pooled { start: u32::try_from(start).ok()?, len: u32::try_from(len).ok()? }
            }
        })
    }

    /// The items, in order; `pool` is the owning graph's pool of this kind.
    pub(crate) fn as_slice<'a>(&'a self, pool: &'a [T]) -> &'a [T] {
        match self {
            List::Inline(slot) => slot.as_slice(),
            &List::Pooled { start, len } => &pool[start as usize..][..len as usize],
            List::Heap(items) => items,
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            List::Inline(slot) => usize::from(slot.is_some()),
            List::Pooled { len, .. } => *len as usize,
            List::Heap(items) => items.len(),
        }
    }

    /// The list as a `Vec` to change: copied out of `pool` when pooled,
    /// moved into one when inline.
    fn to_mut(&mut self, pool: &[T]) -> &mut Vec<T> {
        if !matches!(self, List::Heap(_)) {
            let mut items = Vec::with_capacity(self.len().max(2) * 2);
            items.extend_from_slice(self.as_slice(pool));
            *self = List::Heap(items);
        }
        match self {
            List::Heap(items) => items,
            _ => unreachable!("moved to the heap above"),
        }
    }

    /// Append `item`.
    pub(crate) fn push(&mut self, item: T, pool: &[T]) {
        match self {
            List::Inline(slot @ None) => *slot = Some(item),
            _ => self.to_mut(pool).push(item),
        }
    }

    /// Append `items`.
    pub(crate) fn extend_from_slice(&mut self, items: &[T], pool: &[T]) {
        match items {
            [] => {}
            &[item] => self.push(item, pool),
            _ => self.to_mut(pool).extend_from_slice(items),
        }
    }

    /// Copy a pooled list out of `pool`, so that it can change without it.
    pub(crate) fn unpool(&mut self, pool: &[T]) {
        if let List::Pooled { .. } = self {
            self.to_mut(pool);
        }
    }

    /// Keep the items `keep` accepts, in order; it may edit them. The list
    /// must not be pooled ([`List::unpool`] it first).
    pub(crate) fn retain_mut(&mut self, mut keep: impl FnMut(&mut T) -> bool) {
        match self {
            List::Inline(slot) => {
                if slot.as_mut().is_some_and(|item| !keep(item)) {
                    *slot = None;
                }
            }
            List::Pooled { .. } => unreachable!("retain_mut on a pooled list"),
            List::Heap(items) => items.retain_mut(keep),
        }
    }

    /// Move the items out, leaving the list empty.
    pub(crate) fn take(&mut self, pool: &[T]) -> Vec<T> {
        match std::mem::take(self) {
            List::Heap(items) => items,
            other => other.as_slice(pool).to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_like_the_vec_it_replaces_whatever_the_storage() {
        let mut list = List::default();
        let mut vec = Vec::new();
        for i in 0..6u32 {
            assert_eq!(list.as_slice(&[]), &vec[..]);
            assert_eq!(list.len(), vec.len());
            list.push(i, &[]);
            vec.push(i);
        }
        assert!(matches!(list, List::Heap(_)));
        list.retain_mut(|x| {
            *x *= 10;
            *x % 20 == 0
        });
        assert_eq!(list.as_slice(&[]), [0, 20, 40]);
        let mut one = List::one(7u32);
        one.retain_mut(|_| false);
        assert_eq!(one.len(), 0);
        one.extend_from_slice(&[1], &[]);
        assert!(matches!(one, List::Inline(Some(1))), "one item stays inline");
        one.extend_from_slice(&[2, 3], &[]);
        assert_eq!(one.take(&[]), [1, 2, 3]);
        assert_eq!(one.len(), 0);
    }

    #[test]
    fn runs_of_a_pool_read_in_place_and_copy_out_on_change() {
        let mut pool: Vec<u32> = vec![0, 1, 2, 3, 4];
        let run = List::from_run(&mut pool, 2).unwrap();
        assert!(matches!(run, List::Pooled { start: 2, len: 3 }));
        pool.push(9);
        let alone = List::from_run(&mut pool, 5).unwrap();
        assert!(matches!(alone, List::Inline(Some(9))) && pool.len() == 5);
        assert!(matches!(List::from_run(&mut pool, 5), Some(List::Inline(None))));
        let mut grown = run.clone();
        assert_eq!(run.as_slice(&pool), [2, 3, 4]);
        grown.push(5, &pool);
        assert!(matches!(grown, List::Heap(_)));
        assert_eq!(grown.as_slice(&[]), [2, 3, 4, 5]);
        let mut kept = run.clone();
        kept.unpool(&pool);
        kept.retain_mut(|x| *x != 3);
        assert_eq!(kept.as_slice(&[]), [2, 4]);
        assert_eq!(run.clone().take(&pool), [2, 3, 4]);
    }
}
