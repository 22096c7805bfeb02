//! Hand-rolled, versioned text serialization of the full [`EGraph`] state.
//!
//! This is the persistence layer behind content-addressed stage caching
//! (`accsat serve`, `--cache-dir`): a saturated e-graph is dumped after
//! `rebuild`, stored under its kernel hash, and restored in a later process
//! so extraction (or even further saturation) can resume without redoing
//! the work. Three properties drive the design:
//!
//! * **Full fidelity.** Every field that can influence later behavior is
//!   serialized exactly: the union-find forest (raw parent vector, so
//!   path-halving history is preserved), class storage including dead
//!   slots, per-class node and parent lists *in stored order* (the match
//!   stream of a resumed saturation walks them in order), the hash-cons
//!   memo, the operator index (per-op id vectors in order), both dirty
//!   work lists, the monotone node counter and the folding flag. A
//!   restored graph is operationally indistinguishable from the original:
//!   re-running the saturation runner on it produces byte-identical
//!   reports (pinned by `tests/property_cache.rs`).
//! * **Each e-node once.** Classes, parent lists and the memo refer to
//!   e-node forms by number; the form table spells each live form out one
//!   time, and the operator table each operator.
//! * **Deterministic bytes, numbered by content.** A live graph's form and
//!   op numbers record the order things were interned in, which a restored
//!   graph never saw (it holds the live forms only). The snapshot
//!   therefore renumbers: forms in order of first reference walking the
//!   classes by id (nodes, then parents), then memo keys referenced from
//!   no class in node-content order; operators in order of first use by
//!   the form table. The numbering is a function of what the graph holds,
//!   never of how it got there, so equal graphs serialize to equal bytes
//!   and `serialize(deserialize(t)) == t`.
//!
//! # Grammar (`accsat-egraph v2`)
//!
//! Line-oriented text, single spaces, decimal integers, `\n` endings:
//!
//! ```text
//! accsat-egraph v2
//! fold <0|1>
//! nodes <total e-nodes ever added>
//! uf <N> <parent of id 0> … <parent of id N-1>
//! arena <K> <F> <total children of the F forms>
//! <op token>                                    × K   (op numbers 0..K)
//! <op#> <memo class | -> <child id> …           × F   (form numbers 0..F)
//! classes <N>
//! x                                             a dead slot, or
//! <const | -> <n> <p> <form>×n <form id>×p      a live class      × N
//! opix <J>
//! <op#> <count> <id> …                          × J   (ascending op#)
//! dirty <n> <id> …
//! sdirty <n> <id> …
//! end
//! ```
//!
//! Operators use a tagged token codec ([`op_token`] / [`parse_op_token`])
//! because [`Op::name`] is not injective (a symbol named `load` would
//! collide) and float display is lossy (tokens carry the exact bits).
//!
//! # Reading untrusted bytes
//!
//! A cache directory is outside input. The reader never panics, aborts or
//! loops on it: every count is bounded by the bytes that remain before
//! anything is allocated for it, every id and number is range-checked as
//! it is read, the union-find must be a forest, and the result must pass
//! the same invariant check [`EGraph::check_invariants`] panics on (roots
//! are exactly the live classes, memo and op index consistent). Anything
//! else is an `Err`, which the cache treats as a miss.

use crate::analysis::ConstValue;
use crate::arena::{Arena, Form};
use crate::egraph::{EClass, EGraph, NO_CLASS};
use crate::list::{List, Parent};
use crate::node::{Id, Op};
use crate::unionfind::{Canonical, UnionFind};

/// Magic + version line every serialized e-graph starts with. Bump the
/// version whenever the format (or anything that changes the meaning of
/// the bytes) changes; readers reject mismatches and the cache treats the
/// entry as a miss.
pub(crate) const EGRAPH_FORMAT_HEADER: &str = "accsat-egraph v2";

fn push_op_token(out: &mut String, op: &Op) {
    use std::fmt::Write as _;
    let start = out.len();
    let _ = match op {
        Op::Int(v) => write!(out, "i:{v}"),
        Op::Float(bits) => write!(out, "f:{bits:x}"),
        Op::Sym(s) => write!(out, "s:{s}"),
        Op::LoopCond(l) => write!(out, "lc:{l}"),
        Op::Call(n) => write!(out, "call:{n}"),
        other => write!(out, "{other}"),
    };
    debug_assert!(
        !out[start..].chars().any(char::is_whitespace),
        "op token must be atomic: {:?}",
        &out[start..]
    );
}

/// Encode an operator as a whitespace-free token.
///
/// Payload-carrying variants are tagged (`i:`, `f:`, `s:`, `lc:`,
/// `call:`); fixed operators use their [`Op::name`], which never contains
/// a colon — so decoding is unambiguous. Floats are written as exact bits
/// in hex. Panics if a symbol/call payload contains whitespace (no such
/// name can come out of the C parser or the SSA builder).
pub fn op_token(op: &Op) -> String {
    let mut tok = String::new();
    push_op_token(&mut tok, op);
    tok
}

/// Decode a token produced by [`op_token`].
pub fn parse_op_token(tok: &str) -> Result<Op, String> {
    if let Some(v) = tok.strip_prefix("i:") {
        return v.parse::<i64>().map(Op::Int).map_err(|e| format!("bad int op {tok:?}: {e}"));
    }
    if let Some(v) = tok.strip_prefix("f:") {
        return u64::from_str_radix(v, 16)
            .map(Op::Float)
            .map_err(|e| format!("bad float op {tok:?}: {e}"));
    }
    if let Some(v) = tok.strip_prefix("s:") {
        return Ok(Op::Sym(v.to_string()));
    }
    if let Some(v) = tok.strip_prefix("lc:") {
        return Ok(Op::LoopCond(v.to_string()));
    }
    if let Some(v) = tok.strip_prefix("call:") {
        return Ok(Op::Call(v.to_string()));
    }
    match Op::from_name(tok) {
        Some(op) if !matches!(op, Op::Int(_) | Op::Float(_) | Op::Sym(_) | Op::LoopCond(_)) => {
            Ok(op)
        }
        _ => Err(format!("unknown op token {tok:?}")),
    }
}

fn push_const_token(out: &mut String, c: Option<ConstValue>) {
    use std::fmt::Write as _;
    let _ = match c {
        None => write!(out, "-"),
        Some(ConstValue::Int(v)) => write!(out, "ci:{v}"),
        Some(ConstValue::Float(v)) => write!(out, "cf:{:x}", v.to_bits()),
    };
}

fn parse_const_token(tok: &str) -> Result<Option<ConstValue>, &'static str> {
    if tok == "-" {
        return Ok(None);
    }
    if let Some(v) = tok.strip_prefix("ci:") {
        return v.parse::<i64>().map(|v| Some(ConstValue::Int(v))).map_err(|_| "bad int constant");
    }
    if let Some(v) = tok.strip_prefix("cf:") {
        return u64::from_str_radix(v, 16)
            .map(|b| Some(ConstValue::Float(f64::from_bits(b))))
            .map_err(|_| "bad float constant");
    }
    Err("unknown constant token")
}

/// Append `n` in decimal, one digit byte at a time — the snapshot is
/// mostly integers, and `core::fmt` (or a `push_str` per integer) spends
/// more on one than this does on a line.
fn push_num(out: &mut String, mut n: usize) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &d in &buf[at..] {
        out.push(char::from(d));
    }
}

/// Number of decimal digits of `n`.
fn decimal_len(n: usize) -> usize {
    n.checked_ilog10().map_or(1, |l| l as usize + 1)
}

/// `" <n>"`.
fn push_sp_num(out: &mut String, n: usize) {
    out.push(' ');
    push_num(out, n);
}

/// `"<name> <len> <id> …\n"` — the union-find and work-list lines.
fn push_id_line(out: &mut String, name: &str, ids: &[Id]) {
    out.push_str(name);
    push_sp_num(out, ids.len());
    for id in ids {
        push_sp_num(out, id.index());
    }
    out.push('\n');
}

const UNNUMBERED: u32 = u32::MAX;

/// Old number → snapshot number, handed out in order of first [`visit`].
///
/// [`visit`]: Renumbering::visit
struct Renumbering {
    new: Vec<u32>,
    /// Old numbers in snapshot order.
    order: Vec<u32>,
}

impl Renumbering {
    fn new(n: usize) -> Renumbering {
        Renumbering { new: vec![UNNUMBERED; n], order: Vec::new() }
    }

    fn visit(&mut self, old: usize) {
        if self.new[old] == UNNUMBERED {
            self.new[old] = self.order.len() as u32;
            self.order.push(old as u32);
        }
    }

    fn of(&self, old: usize) -> usize {
        self.new[old] as usize
    }
}

/// A byte cursor over the serialized form. Errors are static strings —
/// nothing is formatted unless a read fails.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

type Read<T> = Result<T, &'static str>;

impl<'a> Reader<'a> {
    /// A reader past the version line of `text`, which must be this
    /// format's.
    fn open(text: &'a str) -> Result<Reader<'a>, String> {
        let mut r = Reader { buf: text.as_bytes(), pos: 0 };
        if r.lit(EGRAPH_FORMAT_HEADER).and_then(|()| r.eol()).is_err() {
            let header = text.lines().next().unwrap_or("");
            return Err(format!(
                "unsupported e-graph format {header:?} (expected {EGRAPH_FORMAT_HEADER:?})"
            ));
        }
        Ok(r)
    }

    /// The error of a read that failed here.
    fn corrupt(&self, what: &str) -> String {
        format!("corrupt e-graph snapshot: {what} at byte {}", self.pos)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume exactly `lit`.
    fn lit(&mut self, lit: &str) -> Read<()> {
        if self.buf[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err("unexpected text")
        }
    }

    /// Consume the byte `b`: [`Reader::lit`] of one byte, the separator
    /// before every integer.
    fn byte(&mut self, b: u8) -> Read<()> {
        if self.buf.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err("unexpected text")
        }
    }

    fn eol(&mut self) -> Read<()> {
        self.byte(b'\n')
    }

    /// A decimal integer, its digits scanned as a bare scan would: 19
    /// cannot overflow a `u64`, and only a longer run (leading zeros, or
    /// a number too big) is read again with checked arithmetic.
    fn num(&mut self) -> Read<usize> {
        let (buf, start) = (self.buf, self.pos);
        let mut pos = start;
        let mut n = 0u64;
        while let Some(d) = buf.get(pos).map(|b| b.wrapping_sub(b'0')).filter(|&d| d < 10) {
            n = n.wrapping_mul(10).wrapping_add(u64::from(d));
            pos += 1;
        }
        self.pos = pos;
        let n = match pos - start {
            0 => return Err("expected a number"),
            1..=19 => Some(n),
            _ => (buf[start..pos].iter())
                .try_fold(0u64, |n, &b| n.checked_mul(10)?.checked_add(u64::from(b - b'0'))),
        };
        n.and_then(|n| usize::try_from(n).ok()).ok_or("number too big")
    }

    /// A space, then a decimal integer.
    fn sp_num(&mut self) -> Read<usize> {
        self.byte(b' ')?;
        self.num()
    }

    /// `" <n>"` where n items of at least two bytes each must follow: a
    /// count the input cannot back is rejected before anything is
    /// allocated for it.
    fn sp_count(&mut self) -> Read<usize> {
        let n = self.sp_num()?;
        if n > self.remaining() / 2 {
            return Err("count exceeds the input");
        }
        Ok(n)
    }

    /// `" <id>"` with `id < bound`.
    fn sp_id(&mut self, bound: usize) -> Read<Id> {
        let n = self.sp_num()?;
        if n >= bound {
            return Err("id out of range");
        }
        Ok(Id::new(n as u32))
    }

    /// `" <n>"` repeated to the end of the line, each `n < bound`, handed
    /// to `each`; consumes the line end and returns how many there were.
    /// Where the grammar fixes the count the caller checks it: a line
    /// with an item missing or one too many is rejected, as when read
    /// item by item.
    fn sp_nums_to_eol(&mut self, bound: usize, mut each: impl FnMut(u32)) -> Read<usize> {
        let mut count = 0;
        loop {
            match self.buf.get(self.pos) {
                Some(b' ') => self.pos += 1,
                Some(b'\n') => {
                    self.pos += 1;
                    return Ok(count);
                }
                _ => return Err("unexpected text"),
            }
            let n = self.num()?;
            if n >= bound {
                return Err("id out of range");
            }
            each(n as u32);
            count += 1;
        }
    }

    /// `" <id>"` × `n` and the line end, each `id < bound`.
    fn ids_to_eol(&mut self, n: usize, bound: usize) -> Read<Vec<Id>> {
        let mut ids = Vec::with_capacity(n);
        if self.sp_nums_to_eol(bound, |id| ids.push(Id::new(id)))? != n {
            return Err("id count differs from the line's");
        }
        Ok(ids)
    }

    /// `"<name> <len> <id> …\n"`.
    fn id_line(&mut self, name: &str, bound: usize) -> Read<Vec<Id>> {
        self.lit(name)?;
        let n = self.sp_count()?;
        self.ids_to_eol(n, bound)
    }

    /// The bytes up to the next space or line end, as text.
    fn token(&mut self) -> Read<&'a str> {
        let rest = &self.buf[self.pos..];
        let len = rest.iter().position(|&b| b == b' ' || b == b'\n').unwrap_or(rest.len());
        if len == 0 {
            return Err("expected a token");
        }
        self.pos += len;
        std::str::from_utf8(&rest[..len]).map_err(|_| "token is not utf-8")
    }
}

impl EGraph {
    /// Serialize the complete e-graph state to the versioned text format.
    ///
    /// Output bytes are a pure function of the graph state (see the module
    /// docs for the numbering rule), so equal graphs serialize equal.
    pub fn serialize(&self) -> String {
        // number the live forms, then the operators they use
        let mut forms = Renumbering::new(self.arena.len());
        // integers and other bytes of the class lines, for sizing the output
        let (mut class_ints, mut class_text) = (0usize, 2 * self.classes.len());
        for (_, cls) in self.classes() {
            for &f in cls.nodes.as_slice(&self.node_pool) {
                forms.visit(f.index());
            }
            for &(f, _) in cls.parents.as_slice(&self.parent_pool) {
                forms.visit(f.index());
            }
            class_ints += 2 + cls.nodes.len() + 2 * cls.parents.len();
            class_text += if cls.constant.is_some() { 24 } else { 1 };
        }
        let mut loose: Vec<Form> = (0..self.arena.len())
            .filter(|&f| self.memo[f] != NO_CLASS && forms.new[f] == UNNUMBERED)
            .map(Form::from_index)
            .collect();
        loose.sort_unstable_by(|&a, &b| self.arena.node(a).cmp(&self.arena.node(b)));
        for f in loose {
            forms.visit(f.index());
        }
        let mut ops = Renumbering::new(self.arena.num_ops());
        let mut n_children = 0usize;
        for &f in &forms.order {
            let f = Form::from_index(f as usize);
            ops.visit(self.arena.op_no(f) as usize);
            n_children += self.arena.children(f).len();
        }

        // Size the buffer from the counts in hand: an id, form number, op
        // number or count takes at most `width` bytes with its separator;
        // a constant token at most 23 and an op token rarely more.
        let width = 1 + decimal_len(self.classes.len().max(forms.order.len()));
        let ints = self.unionfind.len()
            + 2 * forms.order.len()
            + n_children
            + class_ints
            + self.op_index.iter().map(|ids| 2 + ids.len()).sum::<usize>()
            + self.dirty.len()
            + self.search_dirty.len()
            + 16;
        let mut out = String::with_capacity(64 + width * ints + class_text + 24 * ops.order.len());
        out.push_str(EGRAPH_FORMAT_HEADER);
        out.push_str("\nfold");
        push_sp_num(&mut out, usize::from(self.fold_constants));
        out.push_str("\nnodes");
        push_sp_num(&mut out, self.num_nodes);
        out.push('\n');
        push_id_line(&mut out, "uf", &self.unionfind.parents);

        out.push_str("arena");
        push_sp_num(&mut out, ops.order.len());
        push_sp_num(&mut out, forms.order.len());
        push_sp_num(&mut out, n_children);
        out.push('\n');
        for &op_no in &ops.order {
            push_op_token(&mut out, self.arena.op_by_number(op_no));
            out.push('\n');
        }
        for &f in &forms.order {
            let form = Form::from_index(f as usize);
            push_num(&mut out, ops.of(self.arena.op_no(form) as usize));
            match self.memo[f as usize] {
                NO_CLASS => out.push_str(" -"),
                id => push_sp_num(&mut out, id.index()),
            }
            for c in self.arena.children(form) {
                push_sp_num(&mut out, c.index());
            }
            out.push('\n');
        }

        out.push_str("classes");
        push_sp_num(&mut out, self.classes.len());
        out.push('\n');
        for slot in &self.classes {
            let Some(cls) = slot else {
                out.push_str("x\n");
                continue;
            };
            push_const_token(&mut out, cls.constant);
            push_sp_num(&mut out, cls.nodes.len());
            push_sp_num(&mut out, cls.parents.len());
            for f in cls.nodes.as_slice(&self.node_pool) {
                push_sp_num(&mut out, forms.of(f.index()));
            }
            for (f, pid) in cls.parents.as_slice(&self.parent_pool) {
                push_sp_num(&mut out, forms.of(f.index()));
                push_sp_num(&mut out, pid.index());
            }
            out.push('\n');
        }

        // the op index, by snapshot op number (an indexed operator heads a
        // class node, so it is in the table)
        let mut indexed: Vec<(usize, &[Id])> = (0..self.op_index.len())
            .map(|op_no| (op_no, self.op_index_entry(op_no)))
            .filter(|(_, ids)| !ids.is_empty())
            .map(|(op_no, ids)| (ops.of(op_no), ids))
            .collect();
        indexed.sort_unstable_by_key(|&(op_no, _)| op_no);
        out.push_str("opix");
        push_sp_num(&mut out, indexed.len());
        out.push('\n');
        for (op_no, ids) in indexed {
            push_num(&mut out, op_no);
            push_sp_num(&mut out, ids.len());
            for id in ids {
                push_sp_num(&mut out, id.index());
            }
            out.push('\n');
        }

        push_id_line(&mut out, "dirty", &self.dirty);
        push_id_line(&mut out, "sdirty", &self.search_dirty);
        out.push_str("end\n");
        out
    }

    /// Restore an e-graph from [`EGraph::serialize`] output. Rejects
    /// unknown format versions and corrupt input with an error naming the
    /// byte it stopped at (the cache layer maps any error to a miss) —
    /// see the module docs for what "corrupt" covers.
    pub fn deserialize(text: &str) -> Result<EGraph, String> {
        let mut r = Reader::open(text)?;
        let eg = read_body(&mut r).map_err(|what| r.corrupt(what))?;
        // well-formed; now the graph it describes must be one
        eg.invariants().map_err(|what| format!("corrupt e-graph snapshot: {what}"))?;
        Ok(eg)
    }

    /// Deep structural equality of the *serializable* state — equal exactly
    /// when `serialize()` outputs are equal bytes, but without building the
    /// strings: forms are compared by the content they stand for, never by
    /// number. Test helper for round-trip properties.
    pub fn state_eq(&self, other: &EGraph) -> bool {
        if self.fold_constants != other.fold_constants
            || self.num_nodes != other.num_nodes
            || self.unionfind.parents != other.unionfind.parents
            || self.dirty != other.dirty
            || self.search_dirty != other.search_dirty
            || self.classes.len() != other.classes.len()
            || self.memo_len != other.memo_len
        {
            return false;
        }
        let form_eq = |a: Form, b: Form| self.arena.node(a) == other.arena.node(b);
        let class_eq = |a: &Option<EClass>, b: &Option<EClass>| match (a, b) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                a.constant == b.constant
                    && a.nodes.len() == b.nodes.len()
                    && a.parents.len() == b.parents.len()
                    && (a.nodes.as_slice(&self.node_pool).iter())
                        .zip(b.nodes.as_slice(&other.node_pool))
                        .all(|(&x, &y)| form_eq(x, y))
                    && (a.parents.as_slice(&self.parent_pool).iter())
                        .zip(b.parents.as_slice(&other.parent_pool))
                        .all(|(&(x, p), &(y, q))| p == q && form_eq(x, y))
            }
            _ => false,
        };
        if !self.classes.iter().zip(&other.classes).all(|(a, b)| class_eq(a, b)) {
            return false;
        }
        // equal key counts, so one direction of inclusion is equality
        let memo_eq =
            self.memo.iter().enumerate().filter(|(_, &id)| id != NO_CLASS).all(|(f, id)| {
                let node = self.arena.node(Form::from_index(f));
                (other.arena.lookup(node.op, node.children))
                    .is_some_and(|g| other.memo[g.index()] == *id)
            });
        let indexed = |eg: &EGraph| {
            (0..eg.op_index.len()).filter(|&n| !eg.op_index_entry(n).is_empty()).count()
        };
        memo_eq
            && indexed(self) == indexed(other)
            && (0..self.op_index.len()).all(|op_no| {
                let ids = self.op_index_entry(op_no);
                ids.is_empty() || {
                    let theirs = other.arena.op_number(self.arena.op_by_number(op_no as u32));
                    theirs.is_some_and(|n| other.op_index_entry(n as usize) == ids)
                }
            })
    }
}

/// The head of a snapshot: its `fold`, `nodes` and `uf` lines, the first
/// three after the version. It is everything lowering a finished
/// selection needs, because lowering reads canonical ids and nothing else:
/// [`SnapshotHead::read`] stops after the `uf` line, where
/// [`EGraph::deserialize`] goes on to restore and check the whole graph.
#[derive(Debug, Clone)]
pub struct SnapshotHead {
    /// Does the graph fold constants?
    fold: bool,
    /// Total e-nodes ever added ([`EGraph::total_nodes`]).
    pub nodes: usize,
    uf: UnionFind,
}

impl SnapshotHead {
    /// Read the head of [`EGraph::serialize`] output: the version line, then
    /// the three head lines, range-checked, with the union-find a forest.
    /// Nothing after the `uf` line is read, so nothing there is checked —
    /// a caller that trusts the rest must know the bytes are intact.
    pub fn read(text: &str) -> Result<SnapshotHead, String> {
        let mut r = Reader::open(text)?;
        read_head(&mut r).map_err(|what| r.corrupt(what))
    }
}

impl Canonical for SnapshotHead {
    fn find(&self, id: Id) -> Id {
        self.uf.find(id)
    }

    fn id_bound(&self) -> usize {
        self.uf.len()
    }
}

/// The `fold`, `nodes` and `uf` lines.
fn read_head(r: &mut Reader<'_>) -> Read<SnapshotHead> {
    r.lit("fold")?;
    let fold = match r.sp_num()? {
        0 => false,
        1 => true,
        _ => return Err("bad fold flag"),
    };
    r.eol()?;
    r.lit("nodes")?;
    let nodes = r.sp_num()?;
    r.eol()?;
    r.lit("uf")?;
    let n_ids = small(r.sp_count()?)?;
    let parents = r.ids_to_eol(n_ids, n_ids)?;
    check_forest(&parents)?;
    Ok(SnapshotHead { fold, nodes, uf: UnionFind { parents } })
}

/// Ids and form numbers are `u32`s (the top id is "no class"); counts are
/// already bounded by the input, so this bites on a >8 GB text only.
fn small(n: usize) -> Read<usize> {
    if n < u32::MAX as usize {
        Ok(n)
    } else {
        Err("count exceeds u32")
    }
}

/// Everything after the version line: the head, then each section read
/// and range-checked. What the sections must add up to is
/// [`EGraph::invariants`]'s business.
fn read_body(r: &mut Reader<'_>) -> Read<EGraph> {
    let SnapshotHead { fold: fold_constants, nodes: num_nodes, uf: unionfind } = read_head(r)?;
    let n_ids = unionfind.len();

    r.lit("arena")?;
    let (n_ops, n_forms, n_children) = (r.sp_count()?, small(r.sp_count()?)?, r.sp_count()?);
    r.eol()?;
    let mut arena = Arena::with_capacity(n_ops, n_forms, n_children);
    for op_no in 0..n_ops {
        let op = parse_op_token(r.token()?).map_err(|_| "bad op token")?;
        r.eol()?;
        if arena.insert_op(op) != Some(op_no as u32) {
            return Err("operator listed twice");
        }
    }
    let mut memo = Vec::with_capacity(n_forms);
    let mut children = Vec::new();
    for f in 0..n_forms {
        let op_no = r.num()?;
        if op_no >= n_ops {
            return Err("op number out of range");
        }
        memo.push(if r.lit(" -").is_ok() { NO_CLASS } else { r.sp_id(n_ids)? });
        children.clear();
        r.sp_nums_to_eol(n_ids, |c| children.push(Id::new(c)))?;
        if arena.intern_numbered(op_no as u32, &children).index() != f {
            return Err("form listed twice");
        }
    }
    let memo_len = memo.iter().filter(|&&id| id != NO_CLASS).count();

    r.lit("classes")?;
    if r.sp_num()? != n_ids {
        return Err("class count differs from the union-find's");
    }
    r.eol()?;
    let mut classes: Vec<Option<EClass>> = Vec::with_capacity(n_ids);
    // every list of two or more items goes to its kind's pool: about a
    // class node per form, and a parents entry per child of one
    let mut pools = (Vec::with_capacity(n_forms), Vec::with_capacity(n_children));
    let mut line = Vec::new();
    for _ in 0..n_ids {
        classes.push(if r.byte(b'x').is_ok() {
            r.eol()?;
            None
        } else {
            Some(read_class(r, (n_forms, n_ids), &mut line, &mut pools)?)
        });
    }
    let (node_pool, parent_pool) = pools;
    let live_classes = classes.iter().flatten().count();

    r.lit("opix")?;
    let n_indexed = r.sp_count()?;
    r.eol()?;
    let mut op_index: Vec<List<Id>> = vec![List::default(); n_ops];
    let mut class_pool = Vec::new();
    let mut next_op = 0;
    for _ in 0..n_indexed {
        let op_no = r.num()?;
        if !(next_op..n_ops).contains(&op_no) {
            return Err("op index entries out of order or range");
        }
        next_op = op_no + 1;
        let n = r.sp_count()?;
        if n == 0 {
            return Err("empty op index entry");
        }
        let start = class_pool.len();
        if r.sp_nums_to_eol(n_ids, |id| class_pool.push(Id::new(id)))? != n {
            return Err("id count differs from the line's");
        }
        op_index[op_no] = List::from_run(&mut class_pool, start).ok_or("count exceeds u32")?;
    }

    let dirty = r.id_line("dirty", n_ids)?;
    let search_dirty = r.id_line("sdirty", n_ids)?;
    r.lit("end\n")?;
    if r.remaining() != 0 {
        return Err("text after the end marker");
    }

    Ok(EGraph {
        unionfind,
        arena,
        memo,
        memo_len,
        classes,
        node_pool,
        parent_pool,
        class_pool,
        live_classes,
        dirty,
        op_index,
        search_dirty,
        num_nodes,
        fold_constants,
        scratch: Default::default(),
    })
}

/// `<const | -> <n> <p> <form>×n <form id>×p` and its line end — one live
/// class, whose node and parents lists go to the two `pools`. The
/// integers are read into `line` first, in one pass.
fn read_class(
    r: &mut Reader<'_>,
    (n_forms, n_ids): (usize, usize),
    line: &mut Vec<u32>,
    (node_pool, parent_pool): &mut (Vec<Form>, Vec<Parent>),
) -> Read<EClass> {
    // most classes fold to no constant: `-`, then a space
    let constant = if r.buf[r.pos..].starts_with(b"- ") {
        r.pos += 1;
        None
    } else {
        parse_const_token(r.token()?)?
    };
    line.clear();
    r.sp_nums_to_eol(u32::MAX as usize, |n| line.push(n))?;
    let [n_nodes, n_parents, ref items @ ..] = line[..] else {
        return Err("expected a number");
    };
    if items.len() as u64 != u64::from(n_nodes) + 2 * u64::from(n_parents) {
        return Err("item count differs from the line's");
    }
    let (node_items, parent_items) = items.split_at(n_nodes as usize);
    let form = |f: u32| match f as usize {
        f if f < n_forms => Ok(Form::from_index(f)),
        _ => Err("form number out of range"),
    };
    let start = node_pool.len();
    for &f in node_items {
        node_pool.push(form(f)?);
    }
    let nodes = List::from_run(node_pool, start).ok_or("count exceeds u32")?;
    let start = parent_pool.len();
    for pair in parent_items.chunks_exact(2) {
        if pair[1] as usize >= n_ids {
            return Err("id out of range");
        }
        parent_pool.push((form(pair[0])?, Id::new(pair[1])));
    }
    let parents = List::from_run(parent_pool, start).ok_or("count exceeds u32")?;
    Ok(EClass { nodes, parents, constant })
}

/// Every chain of union-find parents must end in a self-parented root:
/// `find` on a cycle never returns.
fn check_forest(parents: &[Id]) -> Read<()> {
    const ON_PATH: u8 = 1;
    const CHECKED: u8 = 2;
    let mut state = vec![0u8; parents.len()];
    for start in 0..parents.len() {
        let mut i = start;
        loop {
            match state[i] {
                CHECKED => break,
                ON_PATH => return Err("cyclic union-find"),
                _ => state[i] = ON_PATH,
            }
            if parents[i].index() == i {
                break;
            }
            i = parents[i].index();
        }
        let mut i = start;
        while state[i] == ON_PATH {
            state[i] = CHECKED;
            i = parents[i].index();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;
    use crate::rules::all_rules;
    use crate::runner::Runner;

    fn sample_graph() -> EGraph {
        let mut eg = EGraph::new();
        let a = eg.add(Node::sym("a"));
        let b = eg.add(Node::sym("b"));
        let two = eg.add(Node::int(2));
        let half = eg.add(Node::float(0.5));
        let m = eg.add(Node::new(Op::Mul, vec![a, b]));
        let s = eg.add(Node::new(Op::Add, vec![m, two]));
        let d = eg.add(Node::new(Op::Div, vec![s, half]));
        let ld = eg.add(Node::new(Op::Load, vec![a, two]));
        let _c = eg.add(Node::new(Op::Call("fmin".into()), vec![d, ld]));
        let _lc = eg.add(Node::leaf(Op::LoopCond("L0".into())));
        eg.union(m, s);
        eg.rebuild();
        eg
    }

    #[test]
    fn round_trip_preserves_state_and_bytes() {
        let eg = sample_graph();
        let text = eg.serialize();
        let back = EGraph::deserialize(&text).expect("round trip");
        assert!(eg.state_eq(&back), "deserialized state must equal the original");
        assert_eq!(back.serialize(), text, "re-serialization must be byte-identical");
        back.check_invariants();
    }

    #[test]
    fn op_tokens_round_trip_payload_variants() {
        let ops = [
            Op::Int(-42),
            Op::float(0.1),
            Op::float(f64::NAN),
            Op::Sym("load".into()), // must NOT collide with the Load operator
            Op::Sym("x0".into()),
            Op::LoopCond("L3".into()),
            Op::Call("sqrt".into()),
            Op::Add,
            Op::Fma,
            Op::CastFloat,
            Op::PhiLoop,
        ];
        for op in ops {
            let tok = op_token(&op);
            let back = parse_op_token(&tok).unwrap_or_else(|e| panic!("{tok}: {e}"));
            assert_eq!(back, op, "token {tok} must round-trip");
        }
        assert_eq!(parse_op_token("s:load").unwrap(), Op::Sym("load".into()));
        assert_eq!(parse_op_token("load").unwrap(), Op::Load);
    }

    #[test]
    fn version_and_corruption_are_rejected() {
        let eg = sample_graph();
        let text = eg.serialize();
        let wrong = text.replacen("v2", "v999", 1);
        assert!(EGraph::deserialize(&wrong).is_err(), "version mismatch must be rejected");
        let v1 = text.replacen("v2", "v1", 1);
        assert!(EGraph::deserialize(&v1).is_err(), "a v1 snapshot is a miss, not a guess");
        let truncated = &text[..text.len() / 2];
        assert!(EGraph::deserialize(truncated).is_err(), "truncation must be rejected");
        // out-of-range id in the union-find line
        let corrupt = text.replacen("uf ", "uf 999 ", 1);
        assert!(EGraph::deserialize(&corrupt).is_err());
        assert!(EGraph::deserialize(&format!("{text}trailing\n")).is_err());
    }

    /// The snapshot with its `uf` line replaced.
    fn with_uf_line(text: &str, uf: &str) -> String {
        let start = text.find("uf ").unwrap();
        let end = start + text[start..].find('\n').unwrap();
        format!("{}{uf}{}", &text[..start], &text[end..])
    }

    #[test]
    fn hostile_counts_ids_and_cycles_are_errors_not_panics() {
        let text = sample_graph().serialize();
        // an id above u32::MAX used to panic in `Id::from(usize)`
        assert!(EGraph::deserialize(&with_uf_line(&text, "uf 3 0 1 99999999999")).is_err());
        // a count the input cannot back used to abort in `with_capacity`
        let huge = with_uf_line(&text, "uf 1152921504606846975 0 1 2");
        assert!(EGraph::deserialize(&huge).is_err());
        assert!(EGraph::deserialize(&with_uf_line(&text, "uf 18446744073709551616 0")).is_err());
        // a cyclic union-find used to pass the range check and hang `find`
        for cyclic in ["uf 3 1 0 2", "uf 3 1 2 0", "uf 4 0 2 3 2"] {
            let n = cyclic.split(' ').count() - 2;
            let body: String = (0..n).map(|_| "x\n").collect();
            let t = format!(
                "{EGRAPH_FORMAT_HEADER}\nfold 1\nnodes 0\n{cyclic}\narena 0 0 0\nclasses {n}\n\
                 {body}opix 0\ndirty 0\nsdirty 0\nend\n"
            );
            let err = EGraph::deserialize(&t).expect_err(cyclic);
            assert!(err.contains("cyclic"), "{cyclic}: {err}");
        }
        // huge per-section counts further in
        for (from, to) in [("arena ", "arena 999999999999 "), ("opix ", "opix 77777777777 ")] {
            assert!(EGraph::deserialize(&text.replacen(from, to, 1)).is_err(), "{to}");
        }
    }

    #[test]
    fn the_head_canonicalizes_as_the_graph_and_reads_nothing_past_the_uf_line() {
        let eg = sample_graph();
        let text = eg.serialize();
        let head = SnapshotHead::read(&text).unwrap();
        assert_eq!((head.fold, head.nodes), (true, eg.total_nodes()));
        assert_eq!(Canonical::id_bound(&head), eg.id_bound());
        for i in 0..eg.id_bound() {
            assert_eq!(Canonical::find(&head, Id::new(i as u32)), eg.find(Id::new(i as u32)));
        }
        // the body is not read: a torn snapshot still has its head …
        let arena = text.find("\narena ").unwrap() + 1;
        assert!(EGraph::deserialize(&text[..arena]).is_err());
        assert_eq!(SnapshotHead::read(&text[..arena]).unwrap().nodes, eg.total_nodes());
        // … but the head itself is checked as the full read checks it
        assert!(SnapshotHead::read(&text.replacen("v2", "v1", 1)).is_err());
        assert!(SnapshotHead::read(&text.replacen("fold 1", "fold 2", 1)).is_err());
        assert!(SnapshotHead::read(&with_uf_line(&text, "uf 3 1 0 2")).is_err(), "cyclic");
        assert!(SnapshotHead::read(&with_uf_line(&text, "uf 2 0 2")).is_err(), "out of range");
        assert!(SnapshotHead::read(&with_uf_line(&text, "uf 2 0 1 1")).is_err(), "count");
    }

    #[test]
    fn accepted_snapshots_satisfy_the_invariants() {
        // each edit keeps the text well-formed but breaks one invariant the
        // matcher or `check_invariants` relies on
        let eg = sample_graph();
        let text = eg.serialize();
        let lines: Vec<&str> = text.lines().collect();
        let edit = |at: usize, new: &str| {
            let mut l: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
            l[at] = new.to_string();
            l.join("\n") + "\n"
        };
        let at = |prefix: &str| lines.iter().position(|l| l.starts_with(prefix)).unwrap();
        // a dead slot where the union-find has a root, and the reverse
        let classes = at("classes ");
        let dead = (classes + 1..).find(|&i| lines[i] == "x").unwrap();
        let live = (classes + 1..).find(|&i| lines[i] != "x").unwrap();
        assert!(EGraph::deserialize(&edit(live, "x")).is_err());
        assert!(EGraph::deserialize(&edit(dead, lines[live])).is_err());
        // an op index that drops its first entry
        let opix = at("opix ");
        let n: usize = lines[opix][5..].parse().unwrap();
        let mut dropped: Vec<&str> = lines.clone();
        dropped.remove(opix + 1);
        let header = format!("opix {}", n - 1);
        dropped[opix] = &header;
        let err = EGraph::deserialize(&(dropped.join("\n") + "\n")).unwrap_err();
        assert!(err.contains("op index misses"), "{err}");
        // the untouched text still reads, and the result holds up
        EGraph::deserialize(&text).unwrap().check_invariants();
    }

    #[test]
    fn snapshot_numbering_ignores_interning_history() {
        // the same graph reached with extra forms interned along the way
        // (failed lookups never intern; dead canonicalisation leftovers do)
        let mut plain = sample_graph();
        let mut noisy = sample_graph();
        let a = noisy.add(Node::sym("a"));
        let (fma, never) = (Op::Fma, Op::Sym("never-added".into()));
        for (op, children) in [(&fma, &[a, a, a][..]), (&never, &[])] {
            let op_no = noisy.arena.intern_op(op);
            noisy.arena.intern_numbered(op_no, children);
        }
        noisy.memo.resize(noisy.arena.len(), NO_CLASS);
        assert!(plain.state_eq(&noisy) && noisy.state_eq(&plain));
        assert_eq!(plain.serialize(), noisy.serialize());
        // and both keep behaving alike
        for eg in [&mut plain, &mut noisy] {
            let b = eg.add(Node::sym("b"));
            let a = eg.add(Node::sym("a"));
            eg.union(a, b);
            eg.rebuild();
        }
        assert_eq!(plain.serialize(), noisy.serialize());
    }

    #[test]
    fn saturation_resumes_identically_after_round_trip() {
        // The contract the stage cache stands on: running the saturation
        // runner on a restored graph must produce the same report and the
        // same final state as running it on the original.
        let build = || {
            let mut eg = EGraph::new();
            let a = eg.add(Node::sym("a"));
            let b = eg.add(Node::sym("b"));
            let c = eg.add(Node::sym("c"));
            let bc = eg.add(Node::new(Op::Mul, vec![b, c]));
            let sum = eg.add(Node::new(Op::Add, vec![bc, a]));
            let two = eg.add(Node::int(2));
            let _r = eg.add(Node::new(Op::Div, vec![sum, two]));
            eg.rebuild();
            eg
        };
        let mut original = build();
        let mut restored = EGraph::deserialize(&build().serialize()).expect("round trip");
        let runner = Runner::new(all_rules());
        let r1 = runner.run(&mut original);
        let r2 = runner.run(&mut restored);
        assert_eq!(r1.stop_reason, r2.stop_reason);
        assert_eq!(r1.iteration_counts(), r2.iteration_counts());
        assert!(original.state_eq(&restored), "post-saturation state must be identical");
        assert_eq!(original.serialize(), restored.serialize());
    }
}
