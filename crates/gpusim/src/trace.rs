//! Lowering kernel ASTs to per-thread instruction traces.
//!
//! One trace describes the instruction stream of a single representative
//! thread of the innermost parallel loop body. Loops with statically known
//! bounds are unrolled (capped; the remainder scales the final timing), the
//! taken branch of an `if` is lowered, and every array access is classified
//! by a static coalescing analysis against the vector (thread) index
//! variable.

use accsat_ir::{BinOp, Block, Expr, LValue, Stmt, UnOp};
use std::collections::HashMap;

/// Virtual register id.
pub type Reg = u32;

/// Memory transaction size of one warp-wide access, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coalescing {
    /// Consecutive threads touch consecutive elements: 256 B per warp.
    Full,
    /// Partially strided: 512 B per warp.
    Partial,
    /// Fully strided (e.g. transposed access): one 32 B sector per thread.
    Strided,
    /// All threads read the same element: a single 32 B sector.
    Broadcast,
}

impl Coalescing {
    /// DRAM bytes moved by one warp-wide f64 access.
    pub(crate) fn bytes_per_warp(self) -> u32 {
        match self {
            Coalescing::Full => 256,
            Coalescing::Partial => 512,
            Coalescing::Strided => 1024,
            Coalescing::Broadcast => 32,
        }
    }
}

/// Simulator operations. Loads and stores carry a static address key
/// (hash of base array + index expressions) and a base-array key so the
/// compiler models can perform redundant-load elimination with store
/// clobbering.
#[derive(Debug, Clone, PartialEq)]
pub enum SimOp {
    /// FP64 add/mul/fma (one pipe slot each — that is the FMA advantage).
    Flop {
        /// Operation identifier for the compiler models' value numbering
        /// (0=add, 1=sub, 2=mul, 3=fma, 4=neg, 5=select, 6=other).
        kind: u8,
    },
    /// FP64 divide / math call (long-latency special pipe).
    Special,
    /// Integer/logic op.
    IAlu,
    /// Global-memory load.
    Load {
        /// Warp-wide transaction size class from the coalescing analysis.
        coalescing: Coalescing,
        /// Static address key (hash of base array + index expressions).
        key: u64,
        /// Base-array key, for store clobbering in load elimination.
        base: u64,
    },
    /// Global-memory store.
    Store {
        /// Warp-wide transaction size class from the coalescing analysis.
        coalescing: Coalescing,
        /// Static address key (hash of base array + index expressions).
        key: u64,
        /// Base-array key, for store clobbering in load elimination.
        base: u64,
    },
}

/// One instruction: op, source registers, optional destination.
#[derive(Debug, Clone, PartialEq)]
pub struct SimInst {
    /// The simulated operation.
    pub op: SimOp,
    /// Source registers read by the instruction.
    pub srcs: Vec<Reg>,
    /// Destination register written, if any.
    pub dst: Option<Reg>,
}

/// A per-thread instruction trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The instruction stream of one representative thread.
    pub insts: Vec<SimInst>,
    /// Number of virtual registers used.
    pub num_regs: u32,
    /// Work multiplier for loop iterations beyond the unroll cap.
    pub work_scale: f64,
}

impl Trace {
    /// Count instructions by category: (flops, specials, ialu, loads, stores).
    pub fn op_counts(&self) -> (usize, usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0, 0);
        for i in &self.insts {
            match i.op {
                SimOp::Flop { .. } => c.0 += 1,
                SimOp::Special => c.1 += 1,
                SimOp::IAlu => c.2 += 1,
                SimOp::Load { .. } => c.3 += 1,
                SimOp::Store { .. } => c.4 += 1,
            }
        }
        c
    }

    /// Peak number of simultaneously live registers (linear-scan liveness) —
    /// the compiler models turn this into a register count.
    pub fn peak_live_regs(&self) -> u32 {
        let mut last_use: HashMap<Reg, usize> = HashMap::new();
        for (i, inst) in self.insts.iter().enumerate() {
            for &s in &inst.srcs {
                last_use.insert(s, i);
            }
            if let Some(d) = inst.dst {
                last_use.entry(d).or_insert(i);
            }
        }
        let mut birth: HashMap<Reg, usize> = HashMap::new();
        for (i, inst) in self.insts.iter().enumerate() {
            if let Some(d) = inst.dst {
                birth.entry(d).or_insert(i);
            }
            for &s in &inst.srcs {
                birth.entry(s).or_insert(0); // inputs live from the start
            }
        }
        let n = self.insts.len();
        let mut delta = vec![0i64; n + 2];
        for (&r, &b) in &birth {
            let e = last_use.get(&r).copied().unwrap_or(b);
            delta[b] += 1;
            delta[e + 1] -= 1;
        }
        let mut live = 0i64;
        let mut peak = 0i64;
        for d in delta {
            live += d;
            peak = peak.max(live);
        }
        peak.max(0) as u32
    }
}

/// Lowering context.
#[derive(Debug, Clone)]
pub struct LowerCtx {
    /// The thread-parallel (vector) loop variable; consecutive threads hold
    /// consecutive values of it.
    pub vector_var: String,
    /// Known compile-time constants (problem sizes) for trip counts.
    pub bindings: HashMap<String, i64>,
    /// Cap on unrolled iterations per sequential loop.
    pub max_unroll: usize,
}

impl Default for LowerCtx {
    fn default() -> LowerCtx {
        LowerCtx { vector_var: String::new(), bindings: HashMap::new(), max_unroll: 64 }
    }
}

/// Lower a kernel body to a trace.
pub fn lower_body(body: &Block, ctx: &LowerCtx) -> Trace {
    let mut l = Lowerer {
        ctx: ctx.clone(),
        trace: Trace { insts: Vec::new(), num_regs: 0, work_scale: 1.0 },
        scalars: HashMap::new(),
        consts: HashMap::new(),
        const_regs: HashMap::new(),
    };
    l.block(body);
    l.trace.num_regs = l.trace.num_regs.max(1);
    l.trace
}

struct Lowerer {
    ctx: LowerCtx,
    trace: Trace,
    /// Scalar name → register currently holding it.
    scalars: HashMap<String, Reg>,
    /// Constant-valued integer scalars (loop unrolling bookkeeping).
    consts: HashMap<String, i64>,
    /// Literal constant → register, so repeated literals share one register
    /// and value numbering can see through them.
    const_regs: HashMap<u64, Reg>,
}

impl Lowerer {
    fn fresh(&mut self) -> Reg {
        let r = self.trace.num_regs;
        self.trace.num_regs += 1;
        r
    }

    fn emit(&mut self, op: SimOp, srcs: Vec<Reg>) -> Reg {
        let dst = self.fresh();
        self.trace.insts.push(SimInst { op, srcs, dst: Some(dst) });
        dst
    }

    fn reg_of(&mut self, name: &str) -> Reg {
        if let Some(&r) = self.scalars.get(name) {
            return r;
        }
        let r = self.fresh();
        self.scalars.insert(name.to_string(), r);
        r
    }

    /// Try to evaluate an integer expression from known bindings.
    fn const_eval(&self, e: &Expr) -> Option<i64> {
        match e {
            Expr::Int(v) => Some(*v),
            Expr::Float(v) if v.fract() == 0.0 => Some(*v as i64),
            Expr::Var(n) => {
                self.consts.get(n).copied().or_else(|| self.ctx.bindings.get(n).copied())
            }
            Expr::Unary { op: UnOp::Neg, operand } => Some(-self.const_eval(operand)?),
            Expr::Binary { op, lhs, rhs } => {
                let (a, b) = (self.const_eval(lhs)?, self.const_eval(rhs)?);
                Some(match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a.checked_div(b)?,
                    BinOp::Mod => a.checked_rem(b)?,
                    BinOp::Lt => (a < b) as i64,
                    BinOp::Le => (a <= b) as i64,
                    BinOp::Gt => (a > b) as i64,
                    BinOp::Ge => (a >= b) as i64,
                    BinOp::Eq => (a == b) as i64,
                    BinOp::Ne => (a != b) as i64,
                    BinOp::And => ((a != 0) && (b != 0)) as i64,
                    BinOp::Or => ((a != 0) || (b != 0)) as i64,
                })
            }
            Expr::Cast { expr, .. } => self.const_eval(expr),
            _ => None,
        }
    }

    /// Linear coefficient of `var` in `e` (0 = absent, None = nonlinear).
    fn linear_coeff(&self, e: &Expr, var: &str) -> Option<i64> {
        match e {
            Expr::Int(_) | Expr::Float(_) => Some(0),
            Expr::Var(n) => Some(if n == var { 1 } else { 0 }),
            Expr::Unary { op: UnOp::Neg, operand } => Some(-self.linear_coeff(operand, var)?),
            Expr::Binary { op: BinOp::Add, lhs, rhs } => {
                Some(self.linear_coeff(lhs, var)? + self.linear_coeff(rhs, var)?)
            }
            Expr::Binary { op: BinOp::Sub, lhs, rhs } => {
                Some(self.linear_coeff(lhs, var)? - self.linear_coeff(rhs, var)?)
            }
            Expr::Binary { op: BinOp::Mul, lhs, rhs } => {
                let (cl, cr) = (self.linear_coeff(lhs, var)?, self.linear_coeff(rhs, var)?);
                if cl == 0 {
                    let k = self.const_eval(lhs)?;
                    Some(k * cr)
                } else if cr == 0 {
                    let k = self.const_eval(rhs)?;
                    Some(cl * k)
                } else {
                    None
                }
            }
            Expr::Cast { expr, .. } => self.linear_coeff(expr, var),
            _ => {
                // conservatively nonlinear if the var appears at all
                let mut appears = false;
                accsat_ir::walk_expr(e, &mut |x: &Expr| {
                    if let Expr::Var(n) = x {
                        if n == var {
                            appears = true;
                        }
                    }
                });
                if appears {
                    None
                } else {
                    Some(0)
                }
            }
        }
    }

    /// Static address identity of an access: `(full key, base key)`.
    /// Index expressions are printed with known constants substituted, so
    /// distinct unrolled iterations get distinct keys while the same access
    /// repeated in one iteration shares a key.
    fn addr_keys(&self, base: &str, indices: &[Expr]) -> (u64, u64) {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        base.hash(&mut h);
        let base_key = h.finish();
        for i in indices {
            self.subst_print(i).hash(&mut h);
        }
        (h.finish(), base_key)
    }

    /// Print an index expression with known integer constants substituted.
    fn subst_print(&self, e: &Expr) -> String {
        if let Some(v) = self.const_eval(e) {
            return v.to_string();
        }
        match e {
            Expr::Var(n) => n.clone(),
            Expr::Int(v) => v.to_string(),
            Expr::Float(v) => v.to_string(),
            Expr::Unary { op, operand } => {
                let inner = self.subst_print(operand);
                match op {
                    UnOp::Neg => format!("-({inner})"),
                    UnOp::Not => format!("!({inner})"),
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                format!("({}{}{})", self.subst_print(lhs), op.c_name(), self.subst_print(rhs))
            }
            Expr::Index { base, indices } => {
                let idx: Vec<String> = indices.iter().map(|i| self.subst_print(i)).collect();
                format!("{base}[{}]", idx.join("]["))
            }
            Expr::Call { name, args } => {
                let a: Vec<String> = args.iter().map(|x| self.subst_print(x)).collect();
                format!("{name}({})", a.join(","))
            }
            Expr::Ternary { cond, then, els } => format!(
                "({}?{}:{})",
                self.subst_print(cond),
                self.subst_print(then),
                self.subst_print(els)
            ),
            Expr::Cast { expr, .. } => self.subst_print(expr),
        }
    }

    /// Coalescing classification for an access `base[indices…]`.
    fn classify(&self, indices: &[Expr]) -> Coalescing {
        let v = &self.ctx.vector_var;
        if v.is_empty() {
            return Coalescing::Full;
        }
        let last = match indices.last() {
            Some(l) => l,
            None => return Coalescing::Full,
        };
        match self.linear_coeff(last, v) {
            Some(0) => {
                // vector var absent from the fastest dimension
                let in_outer =
                    indices[..indices.len() - 1].iter().any(|i| self.linear_coeff(i, v) != Some(0));
                if in_outer {
                    Coalescing::Strided
                } else {
                    Coalescing::Broadcast
                }
            }
            Some(1) | Some(-1) => Coalescing::Full,
            Some(_) => Coalescing::Partial,
            None => Coalescing::Strided,
        }
    }

    fn const_reg(&mut self, bits: u64) -> Reg {
        if let Some(&r) = self.const_regs.get(&bits) {
            return r;
        }
        let r = self.fresh();
        self.const_regs.insert(bits, r);
        r
    }

    fn expr(&mut self, e: &Expr) -> Reg {
        match e {
            Expr::Int(v) => self.const_reg(*v as u64 ^ 0x5555_5555_0000_0000),
            Expr::Float(v) => self.const_reg(v.to_bits()),
            Expr::Var(n) => self.reg_of(n),
            Expr::Index { base, indices } => {
                let coalescing = self.classify(indices);
                let (key, base_key) = self.addr_keys(base, indices);
                // affine indices fold into addressing; only data-dependent
                // indices (gathers like p[colidx[k]]) create operand deps
                let mut srcs = Vec::new();
                for i in indices {
                    if expr_has_memory(i) {
                        srcs.push(self.expr(i));
                    }
                }
                self.emit(SimOp::Load { coalescing, key, base: base_key }, srcs)
            }
            Expr::Unary { operand, .. } => {
                let r = self.expr(operand);
                self.emit(SimOp::Flop { kind: 4 }, vec![r])
            }
            Expr::Binary { op, lhs, rhs } => {
                // note: a + b*c is NOT fused here — FMA selection belongs to
                // the compiler models (fuse_fma), after value numbering,
                // exactly as real back ends fuse at instruction selection
                let l = self.expr(lhs);
                let r = self.expr(rhs);
                let op = match op {
                    BinOp::Div | BinOp::Mod => SimOp::Special,
                    BinOp::Lt
                    | BinOp::Le
                    | BinOp::Gt
                    | BinOp::Ge
                    | BinOp::Eq
                    | BinOp::Ne
                    | BinOp::And
                    | BinOp::Or => SimOp::IAlu,
                    BinOp::Add => SimOp::Flop { kind: 0 },
                    BinOp::Sub => SimOp::Flop { kind: 1 },
                    BinOp::Mul => SimOp::Flop { kind: 2 },
                };
                self.emit(op, vec![l, r])
            }
            Expr::Call { args, .. } => {
                let srcs: Vec<Reg> = args.iter().map(|a| self.expr(a)).collect();
                self.emit(SimOp::Special, srcs)
            }
            Expr::Ternary { cond, then, els } => {
                let c = self.expr(cond);
                let t = self.expr(then);
                let e2 = self.expr(els);
                self.emit(SimOp::IAlu, vec![c, t, e2]) // select
            }
            Expr::Cast { expr, .. } => self.expr(expr),
        }
    }

    fn block(&mut self, b: &Block) {
        for s in &b.stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Decl { name, init, .. } => {
                if let Some(e) = init {
                    if let Some(v) = self.const_eval(e) {
                        self.consts.insert(name.clone(), v);
                    } else {
                        self.consts.remove(name);
                    }
                    let r = self.expr(e);
                    self.scalars.insert(name.clone(), r);
                } else {
                    let r = self.fresh();
                    self.scalars.insert(name.clone(), r);
                }
            }
            Stmt::Assign { lhs, op, rhs } => {
                let mut val = self.expr(rhs);
                if let Some(bop) = op.binop() {
                    let old = match lhs {
                        LValue::Var(n) => self.reg_of(n),
                        LValue::Index { base, indices } => {
                            let c = self.classify(indices);
                            let (key, base_key) = self.addr_keys(base, indices);
                            self.emit(SimOp::Load { coalescing: c, key, base: base_key }, vec![])
                        }
                    };
                    let simop = match bop {
                        BinOp::Div => SimOp::Special,
                        BinOp::Add => SimOp::Flop { kind: 0 },
                        BinOp::Sub => SimOp::Flop { kind: 1 },
                        BinOp::Mul => SimOp::Flop { kind: 2 },
                        _ => SimOp::Flop { kind: 6 },
                    };
                    val = self.emit(simop, vec![old, val]);
                }
                match lhs {
                    LValue::Var(n) => {
                        if let Some(v) = self.const_eval(rhs) {
                            if op.binop().is_none() {
                                self.consts.insert(n.clone(), v);
                            } else {
                                self.consts.remove(n);
                            }
                        } else {
                            self.consts.remove(n);
                        }
                        self.scalars.insert(n.clone(), val);
                    }
                    LValue::Index { base, indices } => {
                        let coalescing = self.classify(indices);
                        let (key, base_key) = self.addr_keys(base, indices);
                        let mut srcs = vec![val];
                        for i in indices {
                            if expr_has_memory(i) {
                                srcs.push(self.expr(i));
                            }
                        }
                        self.trace.insts.push(SimInst {
                            op: SimOp::Store { coalescing, key, base: base_key },
                            srcs,
                            dst: None,
                        });
                    }
                }
            }
            Stmt::If { cond, then, els } => {
                let c = self.expr(cond);
                // branch condition consumes an IAlu slot
                self.trace.insts.push(SimInst { op: SimOp::IAlu, srcs: vec![c], dst: None });
                // lower the statically taken branch if decidable, else `then`
                match self.const_eval(cond) {
                    Some(0) => {
                        if let Some(e) = els {
                            self.block(e);
                        }
                    }
                    _ => self.block(then),
                }
            }
            Stmt::For(l) => {
                let trip = self.trip_count(l).unwrap_or(8);
                let emit_iters = trip.min(self.ctx.max_unroll as i64).max(0) as usize;
                if trip > emit_iters as i64 && emit_iters > 0 {
                    self.trace.work_scale *= trip as f64 / emit_iters as f64;
                }
                // induction variable register (updated each iteration)
                let ivar = self.reg_of(&l.var);
                let init_known = self.const_eval(&l.init);
                let step_known = self.const_eval(&l.step);
                for it in 0..emit_iters {
                    // track constant induction values for nested trip counts
                    if let (Some(i0), Some(st)) = (init_known, step_known) {
                        self.consts.insert(l.var.clone(), i0 + st * it as i64);
                    } else {
                        self.consts.remove(&l.var);
                    }
                    self.block(&l.body);
                    // i += step and loop-back compare
                    let nv = self.emit(SimOp::IAlu, vec![ivar]);
                    self.scalars.insert(l.var.clone(), nv);
                }
                self.consts.remove(&l.var);
            }
            Stmt::While { cond, body } => {
                // rare in kernels: lower one iteration with the condition
                let c = self.expr(cond);
                self.trace.insts.push(SimInst { op: SimOp::IAlu, srcs: vec![c], dst: None });
                self.block(body);
            }
            Stmt::Block(b) => self.block(b),
            Stmt::Expr(e) => {
                let _ = self.expr(e);
            }
            Stmt::Return(_) => {}
        }
    }

    fn trip_count(&self, l: &accsat_ir::ast::ForLoop) -> Option<i64> {
        let init = self.const_eval(&l.init)?;
        let step = self.const_eval(&l.step)?;
        if step == 0 {
            return None;
        }
        // cond forms: var < bound, var <= bound, var > bound, var >= bound
        if let Expr::Binary { op, lhs, rhs } = &l.cond {
            let bound_expr = match (lhs.as_ref(), rhs.as_ref()) {
                (Expr::Var(v), b) if *v == l.var => b,
                (b, Expr::Var(v)) if *v == l.var => b,
                _ => return None,
            };
            let bound = self.const_eval(bound_expr)?;
            let n = match op {
                BinOp::Lt => (bound - init + step - 1).div_euclid(step),
                BinOp::Le => (bound - init + step).div_euclid(step),
                BinOp::Gt => (init - bound - step - 1).div_euclid(-step),
                BinOp::Ge => (init - bound - step).div_euclid(-step),
                _ => return None,
            };
            Some(n.max(0))
        } else {
            None
        }
    }
}

/// Does an expression read memory (or call a function)? Such indices form
/// real operand dependencies; purely affine indices fold into addressing.
fn expr_has_memory(e: &Expr) -> bool {
    let mut found = false;
    accsat_ir::walk_expr(e, &mut |x: &Expr| {
        if matches!(x, Expr::Index { .. } | Expr::Call { .. }) {
            found = true;
        }
    });
    found
}

/// Fuse `add/sub(a, mul(b, c))` pairs into single FMA slots when the
/// multiply has exactly one use — the instruction-selection step of the
/// fastmath back ends (`-gpu=fastmath`, `-ffast-math`). Run *after* value
/// numbering so shared multiplies stay shared instead of being folded into
/// several FMAs.
pub fn fuse_fma(trace: &Trace) -> Trace {
    // count uses of each register
    let mut uses: HashMap<Reg, usize> = HashMap::new();
    for inst in &trace.insts {
        for &s in &inst.srcs {
            *uses.entry(s).or_insert(0) += 1;
        }
    }
    // dst reg → index of the single-use mul defining it
    let mut mul_def: HashMap<Reg, usize> = HashMap::new();
    for (i, inst) in trace.insts.iter().enumerate() {
        if inst.op == (SimOp::Flop { kind: 2 }) && inst.srcs.len() == 2 {
            if let Some(d) = inst.dst {
                if uses.get(&d).copied() == Some(1) {
                    mul_def.insert(d, i);
                }
            }
        }
    }
    // phase 1: decide fusions
    let n = trace.insts.len();
    let mut dead = vec![false; n];
    let mut fused_ops: Vec<Option<SimInst>> = vec![None; n];
    for (i, inst) in trace.insts.iter().enumerate() {
        if let SimOp::Flop { kind } = inst.op {
            if (kind == 0 || kind == 1) && inst.srcs.len() == 2 {
                // a + b*c (either side) or a - b*c (rhs only)
                let candidates: &[Reg] =
                    if kind == 0 { &[inst.srcs[1], inst.srcs[0]] } else { &inst.srcs[1..2] };
                for &r in candidates {
                    if let Some(&mi) = mul_def.get(&r) {
                        if !dead[mi] && mi < i {
                            let other = if inst.srcs[0] == r { inst.srcs[1] } else { inst.srcs[0] };
                            let b = trace.insts[mi].srcs[0];
                            let c = trace.insts[mi].srcs[1];
                            dead[mi] = true;
                            fused_ops[i] = Some(SimInst {
                                op: SimOp::Flop { kind: 3 },
                                srcs: vec![other, b, c],
                                dst: inst.dst,
                            });
                            break;
                        }
                    }
                }
            }
        }
    }
    // phase 2: emit, skipping fused-away muls
    let mut out = Vec::with_capacity(n);
    for (i, inst) in trace.insts.iter().enumerate() {
        if dead[i] {
            continue;
        }
        match fused_ops[i].take() {
            Some(f) => out.push(f),
            None => out.push(inst.clone()),
        }
    }
    Trace { insts: out, num_regs: trace.num_regs, work_scale: trace.work_scale }
}

/// Local list scheduling: hoist each load as early as its operands (and
/// store ordering) allow, limited to `window` slots of motion — the back
/// ends' basic-block scheduler. NVHPC schedules within a moderate window;
/// GCC barely moves anything. Source-level bulk load hoists loads across
/// the *whole kernel* (beyond any scheduler window) with "intentional high
/// memory pressure" (paper §VI-B), which is why it still wins after this
/// pass also runs on its output.
pub fn schedule_loads(trace: &Trace, window: usize) -> Trace {
    let mut insts: Vec<SimInst> = trace.insts.clone();
    let mut i = 0usize;
    while i < insts.len() {
        if !matches!(insts[i].op, SimOp::Load { .. }) {
            i += 1;
            continue;
        }
        let load = insts[i].clone();
        let load_base = match load.op {
            SimOp::Load { base, .. } => base,
            _ => unreachable!(),
        };
        // earliest legal slot: after the defs of its operands, after any
        // store to the same array, and at most `window` slots earlier
        let mut target = i.saturating_sub(window);
        for j in (target..i).rev() {
            let inst = &insts[j];
            let defines_src = inst.dst.is_some_and(|d| load.srcs.contains(&d));
            let conflicting_store =
                matches!(inst.op, SimOp::Store { base, .. } if base == load_base);
            if defines_src || conflicting_store {
                target = j + 1;
                break;
            }
        }
        if target < i {
            let inst = insts.remove(i);
            insts.insert(target, inst);
        }
        i += 1;
    }
    Trace { insts, num_regs: trace.num_regs, work_scale: trace.work_scale }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accsat_ir::parse_program;

    fn lower(src: &str, vector_var: &str, bindings: &[(&str, i64)]) -> Trace {
        let prog = parse_program(src).unwrap();
        let f = &prog.functions[0];
        let loops = accsat_ir::innermost_parallel_loops(f);
        let ctx = LowerCtx {
            vector_var: vector_var.to_string(),
            bindings: bindings.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            max_unroll: 64,
        };
        lower_body(&loops[0].body, &ctx)
    }

    const AXPY: &str = r#"
void axpy(double x[64], double y[64], double a) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 64; i++) {
    y[i] = a * x[i] + y[i];
  }
}
"#;

    #[test]
    fn axpy_lowers_then_fuses_to_fma() {
        let t = lower(AXPY, "i", &[]);
        let (flops, _, _, loads, stores) = t.op_counts();
        assert_eq!(loads, 2);
        assert_eq!(stores, 1);
        assert_eq!(flops, 2, "unfused: one mul + one add");
        let f = fuse_fma(&t);
        let (flops, _, _, loads, stores) = f.op_counts();
        assert_eq!((loads, stores), (2, 1));
        assert_eq!(flops, 1, "a*x + y must fuse into one FMA slot");
        assert!(f.insts.iter().any(|i| i.op == SimOp::Flop { kind: 3 }));
    }

    #[test]
    fn shared_mul_is_not_fused() {
        // t = b*c used twice: u = a + t; v = d + t — the mul must survive
        let t = lower(
            r#"
void k(double a[64], double d[64], double o[64], double b, double c) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 64; i++) {
    double t = b * c;
    o[i] = (a[i] + t) * (d[i] + t);
  }
}
"#,
            "i",
            &[],
        );
        let f = fuse_fma(&t);
        assert!(
            f.insts.iter().any(|i| i.op == SimOp::Flop { kind: 2 }),
            "the shared multiply must not be duplicated into FMAs"
        );
    }

    #[test]
    fn coalescing_classification() {
        let t = lower(
            r#"
void k(double a[64][64], double out[64][64], int j) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 64; i++) {
    out[j][i] = a[i][j] + a[j][i] + a[j][j] + a[j][2 * i];
  }
}
"#,
            "i",
            &[],
        );
        let cs: Vec<Coalescing> = t
            .insts
            .iter()
            .filter_map(|ins| match ins.op {
                SimOp::Load { coalescing, .. } => Some(coalescing),
                _ => None,
            })
            .collect();
        assert_eq!(
            cs,
            vec![
                Coalescing::Strided,   // a[i][j]
                Coalescing::Full,      // a[j][i]
                Coalescing::Broadcast, // a[j][j]
                Coalescing::Partial,   // a[j][2*i]
            ]
        );
    }

    #[test]
    fn loop_unrolls_with_known_trip() {
        let t = lower(
            r#"
void k(double a[64][8], double out[64]) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 64; i++) {
    double s = 0.0;
    for (int l = 0; l < 8; l++) {
      s = s + a[i][l];
    }
    out[i] = s;
  }
}
"#,
            "i",
            &[],
        );
        let (_, _, _, loads, _) = t.op_counts();
        assert_eq!(loads, 8, "8 iterations fully unrolled");
        assert_eq!(t.work_scale, 1.0);
    }

    #[test]
    fn long_loop_scales_work() {
        let t = lower(
            r#"
void k(double a[100000], double out[64], int n) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 64; i++) {
    double s = 0.0;
    for (int l = 0; l < n; l++) {
      s = s + a[l];
    }
    out[i] = s;
  }
}
"#,
            "i",
            &[("n", 1000)],
        );
        let (_, _, _, loads, _) = t.op_counts();
        assert_eq!(loads, 64, "capped at max_unroll");
        assert!((t.work_scale - 1000.0 / 64.0).abs() < 1e-9);
    }

    #[test]
    fn trip_count_from_bindings() {
        let t = lower(
            r#"
void k(double a[64][16], double out[64], int gp) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 64; i++) {
    double s = 0.0;
    for (int l = 1; l <= gp; l++) {
      s = s + a[i][l - 1];
    }
    out[i] = s;
  }
}
"#,
            "i",
            &[("gp", 12)],
        );
        let (_, _, _, loads, _) = t.op_counts();
        assert_eq!(loads, 12);
    }

    #[test]
    fn peak_live_registers_reflect_bulk_style() {
        // bulk style holds 4 loads live at once; chained style holds ~2
        let bulk = lower(
            r#"
void k(double a[64], double b[64], double c[64], double d[64], double o[64]) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 64; i++) {
    double v0 = a[i];
    double v1 = b[i];
    double v2 = c[i];
    double v3 = d[i];
    o[i] = ((v0 + v1) + v2) + v3;
  }
}
"#,
            "i",
            &[],
        );
        let chained = lower(
            r#"
void k(double a[64], double b[64], double c[64], double d[64], double o[64]) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 64; i++) {
    double s = a[i];
    s = s + b[i];
    s = s + c[i];
    s = s + d[i];
    o[i] = s;
  }
}
"#,
            "i",
            &[],
        );
        assert!(
            bulk.peak_live_regs() >= chained.peak_live_regs(),
            "bulk ({}) must hold at least as many live values as chained ({})",
            bulk.peak_live_regs(),
            chained.peak_live_regs()
        );
    }
}
