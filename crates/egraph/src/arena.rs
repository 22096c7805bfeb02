//! The e-node arena: every e-node *form* `(op, children)` stored once, in
//! flat tables, and named by a `u32` [`Form`].
//!
//! Classes, parent lists, the memo and the snapshot all hold `Form`s; the
//! content behind one is hashed exactly once, when [`Arena::intern`] first
//! sees it, and a hit allocates nothing. Forms are **immutable**: making a
//! node canonical interns the canonical content as a (possibly new) form
//! and leaves the old one in place, so a `Form` held anywhere keeps
//! denoting exactly the content it was created with.
//!
//! Form numbers record interning history, which differs between a graph
//! built live and the same graph restored from a snapshot. Nothing
//! observable may therefore *order* by form number — forms are compared
//! for equality only, and sorted by content ([`Arena::node`]) where an
//! order is needed.

use crate::fxhash::FxHasher;
use crate::node::{Id, NodeRef, Op};
use std::hash::{Hash, Hasher};

/// An interned e-node form: an index into the arena it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Form(u32);

impl Form {
    /// The index this form wraps.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) fn from_index(i: usize) -> Form {
        Form(u32::try_from(i).expect("e-node arena exceeded u32 forms"))
    }
}

const EMPTY: u32 = u32::MAX;
const MIN_SLOTS: usize = 16;

/// The flat e-node store. Operators are interned too (an *op number* per
/// distinct [`Op`]), so a form is two `u32`s plus its children in one
/// shared pool, and the e-graph can index per-operator tables densely.
#[derive(Debug, Clone)]
pub(crate) struct Arena {
    /// Distinct operators, by op number.
    ops: Vec<Op>,
    /// Open-addressed table of op numbers, keyed by operator content.
    op_slots: Vec<u32>,
    /// Op number of each form.
    form_op: Vec<u32>,
    /// `pool[form_start[f]..form_start[f + 1]]` are form `f`'s children.
    form_start: Vec<u32>,
    /// Every form's children, back to back.
    pool: Vec<Id>,
    /// Open-addressed table of form numbers, keyed by form content.
    slots: Vec<u32>,
}

impl Default for Arena {
    fn default() -> Arena {
        Arena::with_capacity(0, 0, 0)
    }
}

fn hash_op(op: &Op) -> u64 {
    let mut h = FxHasher::default();
    op.hash(&mut h);
    h.finish()
}

fn hash_form(op_no: u32, children: &[Id]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u32(op_no);
    for c in children {
        h.write_u32(c.index() as u32);
    }
    h.finish()
}

/// Linear probe of a power-of-two table from the hash's top bits (Fx ends
/// in a multiply, so those are the well-mixed ones): the entry `is`
/// accepts, or the empty slot where it belongs.
fn probe(slots: &[u32], hash: u64, is: impl Fn(u32) -> bool) -> Result<u32, usize> {
    let mask = slots.len() - 1;
    let mut i = (hash >> (64 - slots.len().trailing_zeros())) as usize;
    loop {
        match slots[i] {
            EMPTY => return Err(i),
            e if is(e) => return Ok(e),
            _ => i = (i + 1) & mask,
        }
    }
}

/// Keep a table at most half full: double it and re-place entries
/// `0..entries` by `hash_of`.
fn reserve_slot(slots: &mut Vec<u32>, entries: usize, hash_of: impl Fn(u32) -> u64) {
    if (entries + 1) * 2 <= slots.len() {
        return;
    }
    *slots = vec![EMPTY; slots.len() * 2];
    for e in 0..entries as u32 {
        let at = probe(slots, hash_of(e), |_| false).expect_err("fresh table has no match");
        slots[at] = e;
    }
}

impl Arena {
    /// An empty arena sized for this many operators, forms and children
    /// (the snapshot reader knows all three up front).
    pub(crate) fn with_capacity(ops: usize, forms: usize, children: usize) -> Arena {
        let slots = |n: usize| vec![EMPTY; (n * 2).next_power_of_two().max(MIN_SLOTS)];
        let mut form_start = Vec::with_capacity(forms + 1);
        form_start.push(0);
        Arena {
            ops: Vec::with_capacity(ops),
            op_slots: slots(ops),
            form_op: Vec::with_capacity(forms),
            form_start,
            pool: Vec::with_capacity(children),
            slots: slots(forms),
        }
    }

    /// Number of forms ever interned.
    pub(crate) fn len(&self) -> usize {
        self.form_op.len()
    }

    /// Number of distinct operators ever interned.
    pub(crate) fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// The operator with op number `op_no`.
    pub(crate) fn op_by_number(&self, op_no: u32) -> &Op {
        &self.ops[op_no as usize]
    }

    /// Op number of `op`, if any form was ever interned with it.
    pub(crate) fn op_number(&self, op: &Op) -> Option<u32> {
        probe(&self.op_slots, hash_op(op), |e| self.ops[e as usize] == *op).ok()
    }

    pub(crate) fn intern_op(&mut self, op: &Op) -> u32 {
        let hash = hash_op(op);
        if let Ok(e) = probe(&self.op_slots, hash, |e| self.ops[e as usize] == *op) {
            return e;
        }
        let ops = &self.ops;
        reserve_slot(&mut self.op_slots, ops.len(), |e| hash_op(&ops[e as usize]));
        let at = probe(&self.op_slots, hash, |_| false).expect_err("op is new");
        let op_no = u32::try_from(self.ops.len()).expect("e-node arena exceeded u32 ops");
        self.op_slots[at] = op_no;
        self.ops.push(op.clone());
        op_no
    }

    /// Op number of form `f`.
    pub(crate) fn op_no(&self, f: Form) -> u32 {
        self.form_op[f.index()]
    }

    /// Operator of form `f`.
    pub(crate) fn op(&self, f: Form) -> &Op {
        &self.ops[self.form_op[f.index()] as usize]
    }

    /// Children of form `f`, as interned.
    pub(crate) fn children(&self, f: Form) -> &[Id] {
        let i = f.index();
        &self.pool[self.form_start[i] as usize..self.form_start[i + 1] as usize]
    }

    /// Form `f` as a borrowed e-node.
    pub(crate) fn node(&self, f: Form) -> NodeRef<'_> {
        NodeRef { op: self.op(f), children: self.children(f) }
    }

    fn is_form(&self, e: u32, op_no: u32, children: &[Id]) -> bool {
        self.form_op[e as usize] == op_no && self.children(Form(e)) == children
    }

    /// The form with this content, if it was ever interned.
    pub(crate) fn lookup(&self, op: &Op, children: &[Id]) -> Option<Form> {
        let op_no = self.op_number(op)?;
        probe(&self.slots, hash_form(op_no, children), |e| self.is_form(e, op_no, children))
            .ok()
            .map(Form)
    }

    /// The form of operator number `op_no` (see [`Arena::intern_op`]) over
    /// `children`, interning it on first sight; a hit allocates nothing.
    /// Taking the operator by number lets the canonicalisation path
    /// re-intern a stored form's operator over new children without
    /// touching the operator itself.
    pub(crate) fn intern_numbered(&mut self, op_no: u32, children: &[Id]) -> Form {
        let hash = hash_form(op_no, children);
        if let Ok(e) = probe(&self.slots, hash, |e| self.is_form(e, op_no, children)) {
            return Form(e);
        }
        let (form_op, form_start, pool) = (&self.form_op, &self.form_start, &self.pool);
        reserve_slot(&mut self.slots, form_op.len(), |e| {
            let i = e as usize;
            hash_form(form_op[i], &pool[form_start[i] as usize..form_start[i + 1] as usize])
        });
        let at = probe(&self.slots, hash, |_| false).expect_err("form is new");
        let form = Form::from_index(self.form_op.len());
        self.slots[at] = form.0;
        self.form_op.push(op_no);
        self.pool.extend_from_slice(children);
        self.form_start
            .push(u32::try_from(self.pool.len()).expect("e-node arena exceeded u32 children"));
        form
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<Id> {
        v.iter().map(|&i| Id::new(i)).collect()
    }

    #[test]
    fn equal_content_interns_to_one_form() {
        let mut a = Arena::default();
        let (add, mul) = (a.intern_op(&Op::Add), a.intern_op(&Op::Mul));
        let f1 = a.intern_numbered(add, &ids(&[1, 2]));
        let f2 = a.intern_numbered(add, &ids(&[1, 2]));
        let g = a.intern_numbered(add, &ids(&[2, 1]));
        let h = a.intern_numbered(mul, &ids(&[1, 2]));
        assert_eq!(f1, f2);
        assert!(f1 != g && f1 != h && g != h);
        assert_eq!(a.len(), 3);
        assert_eq!(a.num_ops(), 2);
        assert_eq!(a.node(g), NodeRef { op: &Op::Add, children: &ids(&[2, 1]) });
        assert_eq!(a.lookup(&Op::Add, &ids(&[2, 1])), Some(g));
        assert_eq!(a.lookup(&Op::Add, &ids(&[2, 2])), None);
        assert_eq!(a.lookup(&Op::Div, &ids(&[1, 2])), None, "lookup never interns");
        assert_eq!(a.num_ops(), 2);
    }

    #[test]
    fn payload_operators_and_arity_are_part_of_the_content() {
        let mut a = Arena::default();
        let mut intern = |op: Op, children: &[Id]| {
            let op_no = a.intern_op(&op);
            a.intern_numbered(op_no, children)
        };
        let x = intern(Op::Sym("x".into()), &[]);
        let y = intern(Op::Sym("y".into()), &[]);
        let load = intern(Op::Sym("load".into()), &[]);
        let one = intern(Op::Load, &ids(&[0]));
        let two = intern(Op::Load, &ids(&[0, 0]));
        assert!(x != y && x != load && one != two);
        assert_eq!(a.op(load), &Op::Sym("load".into()));
        assert_eq!(a.children(two).len(), 2);
    }

    #[test]
    fn tables_grow_and_keep_every_form_findable() {
        let mut a = Arena::default();
        let op_of = |i: u32| if i.is_multiple_of(3) { Op::Add } else { Op::Mul };
        let forms: Vec<Form> = (0..5000u32)
            .map(|i| {
                let op_no = a.intern_op(&op_of(i));
                a.intern_numbered(op_no, &ids(&[i, i / 7]))
            })
            .collect();
        for i in 0..200i64 {
            let op_no = a.intern_op(&Op::Int(i));
            a.intern_numbered(op_no, &[]);
        }
        assert_eq!(a.len(), 5200);
        assert_eq!(a.num_ops(), 202);
        for (i, &f) in forms.iter().enumerate() {
            let i = i as u32;
            assert_eq!(a.lookup(&op_of(i), &ids(&[i, i / 7])), Some(f));
            assert_eq!(a.intern_numbered(a.op_number(&op_of(i)).unwrap(), &ids(&[i, i / 7])), f);
        }
        assert_eq!(a.len(), 5200, "re-interning adds nothing");
    }
}
