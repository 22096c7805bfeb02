//! Random kernel generation for the differential fuzzer (`accsat fuzz`).
//!
//! This module is the reusable home of the stencil-flavored generators that
//! previously lived inside `tests/property_autotune.rs`, widened into a
//! grammar that covers the shapes the pipeline actually has to survive:
//! multi-statement loop nests, φ-inducing conditionals (`if`/`else` over
//! initialized locals), sequential inner accumulation loops (loop φs, with
//! optional stores so array states thread through `PhiLoop`), 2-D nests
//! whose halo loads are bulk-load-eligible, SPEC-ACCEL-shaped mixes of
//! math calls, ternaries, casts and compound assignments, conditionals
//! whose branch conditions compare array loads (including the mutable
//! arrays, so condition loads must stay coherent with stores), bounded
//! `while` loops (opaque to SSA — every name they modify is havocked, so
//! nothing may be CSE'd or hoisted across them), and depth-2 sequential
//! accumulator nests (an outer loop φ whose body re-initializes and runs
//! a full inner accumulation loop, so loop φs stack).
//!
//! Everything is driven by a [`SplitMix64`] stream, so one `u64` seed fully
//! determines a kernel: the fuzz driver derives per-case seeds from the
//! campaign seed and the case index, which makes campaigns reproducible and
//! independent of worker-thread scheduling.
//!
//! # Safety discipline (why generated kernels never trap)
//!
//! The interpreter is the fuzzer's semantic oracle, so a generated kernel
//! must run cleanly on the *original* source — then any optimized-run error
//! or output divergence is the optimizer's fault, not the generator's:
//!
//! * **In-bounds by construction.** Loads and stores index `i` (and `j`,
//!   `l`, or an int local) with offsets that stay inside the declared halo.
//! * **Safe denominators.** Division denominators come only from the
//!   read-only arrays `a`/`b`/`c`, the scalar parameters, and positive
//!   constants — all bound to values in `[0.5, 2.5]` by the driver — so a
//!   denominator is ≥ 0.25 and reassociation cannot push it near zero.
//! * **Clamped scratch stores.** Values stored to the scratch array `t`
//!   are clamped into `[0.25, 4.0]`, keeping later reads (and the rounding
//!   noise fast-math rewrites introduce) bounded.
//! * **Atomic branch conditions.** `if`/ternary conditions compare single
//!   loads/scalars/constants, which saturation never recombines, so the
//!   original and optimized kernels take the same branches.

/// Sebastiano Vigna's SplitMix64: the canonical seed-expander, here the
/// sole entropy source of the kernel generator. One `u64` of state, one
/// multiply-xorshift avalanche per draw, and — unlike `HashMap` iteration
/// or thread scheduling — completely deterministic.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Start a stream at `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `percent`/100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit_f64() * (hi - lo)
    }
}

/// Knobs for the kernel generator.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Maximum top-level statements per kernel body (at least 2 are
    /// always generated, one of which stores to `out`).
    pub max_stmts: usize,
    /// Maximum expression depth (binary-tree height of generated RHSs).
    pub max_depth: usize,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig { max_stmts: 5, max_depth: 4 }
    }
}

/// 1-D array extent; the parallel loop runs `i` over `HALO..N1-HALO`.
pub const N1: usize = 24;
/// 1-D halo width: generated offsets keep every access in bounds.
pub const HALO: usize = 3;
/// 2-D array extent per dimension; loops run `1..D2-1`.
pub const D2: usize = 10;

/// A generated kernel: C source plus the parameter shapes the driver needs
/// to bind an interpreter environment.
#[derive(Debug, Clone)]
pub struct GeneratedKernel {
    /// The seed that produced this kernel (and names it).
    pub seed: u64,
    /// Which generator flavor produced it (`stencil1d`, `phi_if`,
    /// `seq_loop`, `twod`, `spec_mix`, `arr_cond`, `while_loop`,
    /// `deep_nest`).
    pub flavor: &'static str,
    /// Full C translation unit: one `void fz(...)` function with an
    /// OpenACC parallel loop.
    pub source: String,
    /// Double array parameters as `(name, dims)`.
    pub arrays: Vec<(&'static str, Vec<usize>)>,
    /// Double scalar parameters.
    pub scalars: Vec<&'static str>,
}

/// The read-only arrays: never stored to, so loads from them are safe as
/// division denominators even after saturation reassociates.
const PRISTINE: &[&str] = &["a", "b", "c"];
/// Positive float constants usable anywhere, including denominators.
const POS_CONSTS: &[&str] = &["0.5", "1.5", "2.0", "2.5", "0.25", "3.0"];
/// Scalar double parameters (driver binds them in `[0.5, 2.5]`).
const SCALARS: &[&str] = &["c0", "c1", "c2"];
/// Comparison operators for atomic conditions.
const CMP_OPS: &[&str] = &["<", "<=", ">", ">=", "==", "!="];

/// Whether the kernel is a 1-D or a 2-D loop nest.
#[derive(Clone, Copy, PartialEq)]
enum Dims {
    One,
    Two,
}

/// A float-typed local currently in scope.
#[derive(Clone)]
struct Local {
    name: String,
}

/// An int-typed index local: `name = i + shift`, so the generator knows
/// which load offsets stay in bounds.
#[derive(Clone)]
struct IdxLocal {
    name: String,
    shift: i64,
}

struct Gen {
    rng: SplitMix64,
    cfg: GenConfig,
    dims: Dims,
    /// Float locals readable as expression leaves.
    locals: Vec<Local>,
    /// Int index locals (1-D only).
    idx_locals: Vec<IdxLocal>,
    /// Loop variables of sequential inner loops currently in scope
    /// (usable as small non-negative index offsets).
    seq_vars: Vec<String>,
    /// Has `t` been stored to yet? (Reads before the first store see the
    /// pristine positive data; after it, only clamped values.)
    wrote_t: bool,
    /// Bias `condition()` toward array-load comparisons (the `arr_cond`
    /// flavor): both sides become loads, including from the mutable
    /// arrays, so condition loads must stay coherent with stores.
    array_conds: bool,
    /// Counter for fresh local names.
    fresh: usize,
    body: String,
    indent: usize,
}

impl Gen {
    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.body.push_str("  ");
        }
        self.body.push_str(s);
        self.body.push('\n');
    }

    fn fresh_name(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}{}", self.fresh)
    }

    // ---- index expressions -------------------------------------------

    /// A safe index expression for a 1-D array of extent [`N1`].
    fn index1(&mut self) -> String {
        // loop var with halo offset, an index local, or a seq-loop var
        let n_choices = 2 + !self.idx_locals.is_empty() as u64 + !self.seq_vars.is_empty() as u64;
        match self.rng.below(n_choices) {
            0 | 1 => {
                let off = self.rng.below(5) as i64 - 2; // -2..=2, |off| < HALO
                offset_index("i", off)
            }
            2 if !self.idx_locals.is_empty() => {
                let k =
                    self.idx_locals[self.rng.below(self.idx_locals.len() as u64) as usize].clone();
                // k = i + shift; i ∈ [HALO, N1-HALO), so any offset with
                // |shift + off| ≤ HALO-1 keeps k + off within [1, N1-2]
                debug_assert!(k.shift.abs() <= 1);
                let off = self.rng.below(3) as i64 - 1;
                offset_index(&k.name, off)
            }
            _ => {
                // seq var l in 0..K (K ≤ 4): use it directly or as i - l
                let l = self.seq_vars[self.rng.below(self.seq_vars.len() as u64) as usize].clone();
                if self.rng.chance(50) {
                    l
                } else {
                    format!("i - {l}")
                }
            }
        }
    }

    /// A safe pair of index expressions for a 2-D array of extent
    /// [`D2`]×[`D2`] — or, occasionally, a single flattened index, which
    /// the interpreter accepts and the bulk-loader must group correctly.
    fn index2(&mut self) -> String {
        if self.rng.chance(10) {
            // flat view of the 2-D array: i*D2 + j ≤ (D2-2)*D2 + D2-2 < D2²
            return format!("[i * {D2} + j]");
        }
        let oi = self.rng.below(3) as i64 - 1;
        let oj = self.rng.below(3) as i64 - 1;
        format!("[{}][{}]", offset_index("i", oi), offset_index("j", oj))
    }

    fn load(&mut self, arr: &str) -> String {
        match self.dims {
            Dims::One => {
                let idx = self.index1();
                format!("{arr}[{idx}]")
            }
            Dims::Two => {
                let idx = self.index2();
                format!("{arr}{idx}")
            }
        }
    }

    // ---- leaves ------------------------------------------------------

    /// Any readable leaf: pristine load, scratch/out load, scalar, local,
    /// positive constant, or a cast of an index variable.
    fn leaf(&mut self) -> String {
        match self.rng.below(10) {
            0..=3 => {
                let arr = PRISTINE[self.rng.below(PRISTINE.len() as u64) as usize];
                self.load(arr)
            }
            4 => {
                let arr = if self.rng.chance(50) { "t" } else { "out" };
                self.load(arr)
            }
            5 | 6 => SCALARS[self.rng.below(SCALARS.len() as u64) as usize].to_string(),
            7 => {
                if self.locals.is_empty() {
                    POS_CONSTS[self.rng.below(POS_CONSTS.len() as u64) as usize].to_string()
                } else {
                    self.locals[self.rng.below(self.locals.len() as u64) as usize].name.clone()
                }
            }
            8 => POS_CONSTS[self.rng.below(POS_CONSTS.len() as u64) as usize].to_string(),
            _ => {
                // cast leaf: (double) of an in-scope integer variable
                let v = match self.dims {
                    Dims::Two => if self.rng.chance(50) { "i" } else { "j" }.to_string(),
                    Dims::One => match self.idx_locals.last() {
                        Some(k) if self.rng.chance(50) => k.name.clone(),
                        _ => "i".to_string(),
                    },
                };
                format!("(double){v}")
            }
        }
    }

    /// A leaf guaranteed positive *under any evaluation order*: pristine
    /// loads, scalar parameters, positive constants.
    fn positive_leaf(&mut self) -> String {
        match self.rng.below(4) {
            0 | 1 => {
                let arr = PRISTINE[self.rng.below(PRISTINE.len() as u64) as usize];
                self.load(arr)
            }
            2 => SCALARS[self.rng.below(SCALARS.len() as u64) as usize].to_string(),
            _ => POS_CONSTS[self.rng.below(POS_CONSTS.len() as u64) as usize].to_string(),
        }
    }

    /// A denominator that stays ≥ 0.25 however the optimizer reassociates:
    /// a positive atom, or a sum/product of two of them.
    fn denominator(&mut self) -> String {
        match self.rng.below(3) {
            0 => self.positive_leaf(),
            1 => {
                let (x, y) = (self.positive_leaf(), self.positive_leaf());
                format!("({x} + {y})")
            }
            _ => {
                let (x, y) = (self.positive_leaf(), self.positive_leaf());
                format!("({x} * {y})")
            }
        }
    }

    /// Any readable array, pristine or mutable.
    fn any_array(&mut self) -> &'static str {
        match self.rng.below(5) {
            0..=2 => PRISTINE[self.rng.below(PRISTINE.len() as u64) as usize],
            3 => "t",
            _ => "out",
        }
    }

    /// An atomic condition: two leaves compared — saturation never rewrites
    /// across a comparison, so both the original and the optimized kernel
    /// branch identically.
    fn condition(&mut self) -> String {
        if self.array_conds && self.rng.chance(60) {
            // both sides array loads, mutable arrays included: the
            // condition's loads must observe every store before it, and
            // CSE must not reuse them across stores after it
            let la = self.any_array();
            let lhs = self.load(la);
            let ra = self.any_array();
            let rhs = self.load(ra);
            let op = CMP_OPS[self.rng.below(CMP_OPS.len() as u64) as usize];
            return format!("{lhs} {op} {rhs}");
        }
        let lhs = self.leaf();
        let rhs = if self.rng.chance(50) {
            self.leaf()
        } else {
            POS_CONSTS[self.rng.below(POS_CONSTS.len() as u64) as usize].to_string()
        };
        let op = CMP_OPS[self.rng.below(CMP_OPS.len() as u64) as usize];
        format!("{lhs} {op} {rhs}")
    }

    // ---- expressions -------------------------------------------------

    fn expr(&mut self, depth: usize) -> String {
        if depth == 0 || self.rng.chance(25) {
            return self.leaf();
        }
        match self.rng.below(20) {
            0..=4 => {
                let (l, r) = (self.expr(depth - 1), self.expr(depth - 1));
                format!("({l} + {r})")
            }
            5..=8 => {
                let (l, r) = (self.expr(depth - 1), self.expr(depth - 1));
                format!("({l} - {r})")
            }
            9..=12 => {
                let (l, r) = (self.expr(depth - 1), self.expr(depth - 1));
                format!("({l} * {r})")
            }
            13 | 14 => {
                let n = self.expr(depth - 1);
                let d = self.denominator();
                format!("({n} / {d})")
            }
            15 => {
                let x = self.expr(depth - 1);
                if self.rng.chance(50) {
                    format!("sqrt(fabs({x}))")
                } else {
                    format!("fabs({x})")
                }
            }
            16 => {
                let (l, r) = (self.expr(depth - 1), self.expr(depth - 1));
                let f = if self.rng.chance(50) { "fmin" } else { "fmax" };
                format!("{f}({l}, {r})")
            }
            17 => {
                let (x, y, z) = (self.expr(depth - 1), self.expr(depth - 1), self.expr(depth - 1));
                format!("fma({x}, {y}, {z})")
            }
            18 => {
                let c = self.condition();
                let (l, r) = (self.expr(depth - 1), self.expr(depth - 1));
                format!("({c} ? {l} : {r})")
            }
            _ => {
                // parenthesize: `-` followed by a negated operand would
                // otherwise lex as `--`
                let x = self.expr(depth - 1);
                format!("-({x})")
            }
        }
    }

    /// An expression clamped into `[0.25, 4.0]` — the only thing allowed
    /// into the scratch array `t`, so reads of `t` stay bounded and the
    /// fast-math tolerance holds however many statements chain through it.
    fn clamped_expr(&mut self, depth: usize) -> String {
        let e = self.expr(depth);
        format!("fmin(fmax({e}, 0.25), 4.0)")
    }

    // ---- statements --------------------------------------------------

    /// Emit a store to `out` (simple or compound assignment).
    fn store_out(&mut self) {
        let idx = match self.dims {
            Dims::One => {
                let i = self.index1();
                format!("[{i}]")
            }
            Dims::Two => self.index2(),
        };
        let depth = self.cfg.max_depth;
        let e = self.expr(depth);
        let op = match self.rng.below(5) {
            0 => "+=",
            1 => "-=",
            _ => "=",
        };
        self.line(&format!("out{idx} {op} {e};"));
    }

    /// Emit a store of a clamped value to the scratch array `t`.
    fn store_t(&mut self) {
        let idx = match self.dims {
            Dims::One => {
                let i = self.index1();
                format!("[{i}]")
            }
            Dims::Two => self.index2(),
        };
        let depth = self.cfg.max_depth;
        let e = self.clamped_expr(depth);
        self.line(&format!("t{idx} = {e};"));
        self.wrote_t = true;
    }

    /// Declare a float local (always initialized — reading a local that
    /// only one branch of an `if` defined is UB, which SSA construction
    /// deliberately refuses to model).
    fn decl_local(&mut self) {
        let name = self.fresh_name("v");
        let depth = self.cfg.max_depth.saturating_sub(1);
        let e = self.expr(depth);
        self.line(&format!("double {name} = {e};"));
        self.locals.push(Local { name });
    }

    /// Reassign an existing float local (plain or compound).
    fn assign_local(&mut self) {
        if self.locals.is_empty() {
            return self.decl_local();
        }
        let name = self.locals[self.rng.below(self.locals.len() as u64) as usize].name.clone();
        let depth = self.cfg.max_depth.saturating_sub(1);
        let e = self.expr(depth);
        let op = match self.rng.below(4) {
            0 => "+=",
            1 => "*=",
            _ => "=",
        };
        // multiplicative growth through a local chain is bounded by
        // clamping the factor
        if op == "*=" {
            let c = self.clamped_expr(depth.min(2));
            self.line(&format!("{name} {op} {c};"));
        } else {
            self.line(&format!("{name} {op} {e};"));
        }
    }

    /// Declare an int index local `k = i + shift` (1-D only).
    fn decl_idx_local(&mut self) {
        if self.dims == Dims::Two {
            return self.decl_local();
        }
        let name = self.fresh_name("k");
        let shift = self.rng.below(3) as i64 - 1;
        self.line(&format!("int {name} = {};", offset_index("i", shift)));
        self.idx_locals.push(IdxLocal { name, shift });
    }

    /// Emit an `if` (optionally `if`/`else`) whose branches mutate locals
    /// and arrays — the φ-inducing shape (`Select` nodes in SSA).
    fn if_stmt(&mut self, nesting: usize) {
        let cond = self.condition();
        self.line(&format!("if ({cond}) {{"));
        self.indent += 1;
        let n = 1 + self.rng.below(2);
        for _ in 0..n {
            self.branch_stmt(nesting);
        }
        self.indent -= 1;
        if self.rng.chance(55) {
            self.line("} else {");
            self.indent += 1;
            let n = 1 + self.rng.below(2);
            for _ in 0..n {
                self.branch_stmt(nesting);
            }
            self.indent -= 1;
        }
        self.line("}");
    }

    /// A statement allowed inside an `if` branch: no declarations (scope
    /// hazards), optionally one level of nested `if`.
    fn branch_stmt(&mut self, nesting: usize) {
        match self.rng.below(6) {
            0 | 1 => self.store_out(),
            2 => self.store_t(),
            // never *declare* inside a branch — a local visible after the
            // `if` but defined on only one path is the UB shape SSA
            // construction refuses to model
            3 | 4 if !self.locals.is_empty() => self.assign_local(),
            _ if nesting > 0 => self.if_stmt(nesting - 1),
            _ => self.store_out(),
        }
    }

    /// Emit a sequential accumulation loop: `double s = …; for (l …) { s =
    /// s ⊕ …; }` — the `PhiLoop`-inducing shape, optionally with stores in
    /// the loop body so array states thread through the loop φ as well.
    fn seq_loop(&mut self) {
        let acc = self.fresh_name("s");
        let init = self.expr(2);
        self.line(&format!("double {acc} = {init};"));
        let l = self.fresh_name("l");
        let k = 2 + self.rng.below(3); // 2..=4 iterations
        self.line(&format!("for (int {l} = 0; {l} < {k}; {l}++) {{"));
        self.indent += 1;
        self.seq_vars.push(l.clone());
        self.locals.push(Local { name: acc.clone() });
        let step = self.expr(2);
        if self.rng.chance(70) {
            self.line(&format!("{acc} = {acc} + {step};"));
        } else {
            let c = self.clamped_expr(2);
            self.line(&format!("{acc} = {acc} * {c};"));
        }
        if self.rng.chance(35) {
            self.store_t();
        }
        self.seq_vars.pop();
        self.indent -= 1;
        self.line("}");
        // acc stays in scope as a readable local
    }

    /// Emit a depth-2 sequential accumulation nest: an outer accumulator
    /// loop whose body re-initializes an inner accumulator, runs a full
    /// inner accumulation loop over it, and folds the inner total into
    /// the outer one. Both accumulators are declared *before* the outer
    /// loop (reassignment inside loop bodies is the construct SSA already
    /// models; declarations scoped to a loop body are not), so loop φs
    /// stack two deep and the inner φ's init operand is itself rewritten
    /// every outer iteration.
    fn deep_loop(&mut self) {
        let outer_acc = self.fresh_name("s");
        let init = self.expr(2);
        self.line(&format!("double {outer_acc} = {init};"));
        let inner_acc = self.fresh_name("s");
        self.line(&format!("double {inner_acc} = 0.0;"));
        let lo = self.fresh_name("l");
        let ko = 2 + self.rng.below(2); // 2..=3 outer iterations
        self.line(&format!("for (int {lo} = 0; {lo} < {ko}; {lo}++) {{"));
        self.indent += 1;
        self.seq_vars.push(lo.clone());
        self.locals.push(Local { name: outer_acc.clone() });
        // re-seed the inner accumulator each outer iteration so the
        // inner loop φ's init operand is loop-variant
        let reseed = self.expr(1);
        self.line(&format!("{inner_acc} = {reseed};"));
        self.locals.push(Local { name: inner_acc.clone() });
        let li = self.fresh_name("l");
        let ki = 2 + self.rng.below(2); // 2..=3 inner iterations
        self.line(&format!("for (int {li} = 0; {li} < {ki}; {li}++) {{"));
        self.indent += 1;
        self.seq_vars.push(li.clone());
        let step = self.expr(2);
        self.line(&format!("{inner_acc} = {inner_acc} + {step};"));
        if self.rng.chance(30) {
            self.store_t();
        }
        self.seq_vars.pop();
        self.indent -= 1;
        self.line("}");
        // fold the inner total into the outer accumulator; a clamped
        // factor keeps multiplicative growth bounded like assign_local
        if self.rng.chance(70) {
            self.line(&format!("{outer_acc} = {outer_acc} + {inner_acc};"));
        } else {
            let c = self.clamped_expr(1);
            self.line(&format!("{outer_acc} = {outer_acc} + {inner_acc} * {c};"));
        }
        self.seq_vars.pop();
        self.indent -= 1;
        self.line("}");
        // both accumulators stay in scope as readable locals
    }

    /// Emit a bounded `while` loop: `int w = 0; while (w < K) { …; w = w +
    /// 1; }`. SSA treats the whole `while` as opaque and havocs every name
    /// it modifies, so loads cached before the loop must be invalidated
    /// and nothing may be hoisted across it — the statements inside are
    /// emitted verbatim, never rewritten.
    fn while_stmt(&mut self) {
        let w = self.fresh_name("w");
        let k = 2 + self.rng.below(3); // 2..=4 iterations
        self.line(&format!("int {w} = 0;"));
        self.line(&format!("while ({w} < {k}) {{"));
        self.indent += 1;
        let n = 1 + self.rng.below(2);
        for _ in 0..n {
            match self.rng.below(4) {
                0 => self.store_t(),
                1 if !self.locals.is_empty() => self.assign_local(),
                _ => self.store_out(),
            }
        }
        self.line(&format!("{w} = {w} + 1;"));
        self.indent -= 1;
        self.line("}");
    }

    /// One top-level kernel statement, flavor-weighted.
    fn toplevel_stmt(&mut self, weights: &[(u64, StmtKind)]) {
        let total: u64 = weights.iter().map(|(w, _)| w).sum();
        let mut pick = self.rng.below(total);
        for (w, kind) in weights {
            if pick < *w {
                match kind {
                    StmtKind::StoreOut => self.store_out(),
                    StmtKind::StoreT => self.store_t(),
                    StmtKind::DeclLocal => self.decl_local(),
                    StmtKind::AssignLocal => self.assign_local(),
                    StmtKind::DeclIdx => self.decl_idx_local(),
                    StmtKind::If => self.if_stmt(1),
                    StmtKind::SeqLoop => self.seq_loop(),
                    StmtKind::DeepLoop => self.deep_loop(),
                    StmtKind::While => self.while_stmt(),
                }
                return;
            }
            pick -= w;
        }
    }
}

#[derive(Clone, Copy)]
enum StmtKind {
    StoreOut,
    StoreT,
    DeclLocal,
    AssignLocal,
    DeclIdx,
    If,
    SeqLoop,
    DeepLoop,
    While,
}

/// Render `base + off` / `base - off` / `base` as a C index expression.
fn offset_index(base: &str, off: i64) -> String {
    match off.cmp(&0) {
        std::cmp::Ordering::Equal => base.to_string(),
        std::cmp::Ordering::Greater => format!("{base} + {off}"),
        std::cmp::Ordering::Less => format!("{base} - {}", -off),
    }
}

/// Generate one kernel from `seed`. The same seed always produces the
/// same kernel, byte for byte.
pub fn generate_kernel(seed: u64, cfg: &GenConfig) -> GeneratedKernel {
    let mut rng = SplitMix64::new(seed);
    let flavor_pick = rng.below(8);
    let dims = if flavor_pick == 3 { Dims::Two } else { Dims::One };
    let mut g = Gen {
        rng,
        cfg: cfg.clone(),
        dims,
        locals: Vec::new(),
        idx_locals: Vec::new(),
        seq_vars: Vec::new(),
        wrote_t: false,
        array_conds: flavor_pick == 5,
        fresh: 0,
        body: String::new(),
        indent: 2,
    };

    use StmtKind::*;
    let (flavor, weights): (&'static str, Vec<(u64, StmtKind)>) = match flavor_pick {
        0 => ("stencil1d", vec![(4, StoreOut), (2, StoreT), (2, DeclLocal), (1, AssignLocal)]),
        1 => {
            ("phi_if", vec![(2, StoreOut), (1, StoreT), (3, DeclLocal), (2, AssignLocal), (4, If)])
        }
        2 => ("seq_loop", vec![(2, StoreOut), (1, StoreT), (1, DeclLocal), (3, SeqLoop)]),
        3 => ("twod", vec![(4, StoreOut), (2, StoreT), (2, DeclLocal), (1, If)]),
        4 => (
            "spec_mix",
            vec![
                (3, StoreOut),
                (1, StoreT),
                (2, DeclLocal),
                (1, AssignLocal),
                (2, DeclIdx),
                (1, If),
                (1, SeqLoop),
                (1, While),
            ],
        ),
        5 => (
            // conditions biased toward array-load comparisons (see
            // `Gen::array_conds`)
            "arr_cond",
            vec![(2, StoreOut), (1, StoreT), (2, DeclLocal), (2, AssignLocal), (4, If)],
        ),
        6 => (
            "while_loop",
            vec![(3, StoreOut), (1, StoreT), (2, DeclLocal), (1, AssignLocal), (3, While)],
        ),
        _ => (
            // depth-2 loop nests: stacked loop φs (see `Gen::deep_loop`)
            "deep_nest",
            vec![(2, StoreOut), (1, StoreT), (1, DeclLocal), (1, SeqLoop), (3, DeepLoop)],
        ),
    };

    let n_stmts = 2 + g.rng.below(cfg.max_stmts.max(3) as u64 - 1);
    for _ in 0..n_stmts {
        g.toplevel_stmt(&weights);
    }
    // every kernel observes at least one store to `out`
    g.store_out();

    let body = std::mem::take(&mut g.body);
    let (arrays, source) = match dims {
        Dims::One => {
            let arrays: Vec<(&'static str, Vec<usize>)> =
                [PRISTINE, &["t", "out"]].concat().iter().map(|&a| (a, vec![N1])).collect();
            let params = arrays
                .iter()
                .map(|(a, _)| format!("double {a}[{N1}]"))
                .chain(SCALARS.iter().map(|s| format!("double {s}")))
                .collect::<Vec<_>>()
                .join(", ");
            let lo = HALO;
            let hi = N1 - HALO;
            let source = format!(
                "void fz({params}) {{\n\
                 #pragma acc parallel loop gang vector\n  \
                 for (int i = {lo}; i < {hi}; i++) {{\n\
                 {body}  }}\n}}\n"
            );
            (arrays, source)
        }
        Dims::Two => {
            let arrays: Vec<(&'static str, Vec<usize>)> =
                [PRISTINE, &["t", "out"]].concat().iter().map(|&a| (a, vec![D2, D2])).collect();
            let params = arrays
                .iter()
                .map(|(a, _)| format!("double {a}[{D2}][{D2}]"))
                .chain(SCALARS.iter().map(|s| format!("double {s}")))
                .collect::<Vec<_>>()
                .join(", ");
            let hi = D2 - 1;
            let source = format!(
                "void fz({params}) {{\n\
                 #pragma acc parallel loop gang\n  \
                 for (int i = 1; i < {hi}; i++) {{\n    \
                 #pragma acc loop vector\n    \
                 for (int j = 1; j < {hi}; j++) {{\n\
                 {body}    }}\n  }}\n}}\n"
            );
            (arrays, source)
        }
    };

    GeneratedKernel { seed, flavor, source, arrays, scalars: SCALARS.to_vec() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accsat_ir::{parse_program, print_program};

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        // distinct draws (avalanche) and a sane unit range
        assert_eq!(xs.iter().collect::<std::collections::HashSet<_>>().len(), 8);
        let mut c = SplitMix64::new(1);
        for _ in 0..100 {
            let u = c.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn generated_kernels_parse_and_roundtrip() {
        let cfg = GenConfig::default();
        let mut flavors = std::collections::HashSet::new();
        for seed in 0..200u64 {
            let gk = generate_kernel(seed, &cfg);
            flavors.insert(gk.flavor);
            let p1 = parse_program(&gk.source)
                .unwrap_or_else(|e| panic!("seed {seed}: parse failed: {e}\n{}", gk.source));
            let s1 = print_program(&p1);
            let p2 = parse_program(&s1)
                .unwrap_or_else(|e| panic!("seed {seed}: reparse failed: {e}\n{s1}"));
            assert_eq!(p1, p2, "seed {seed}: printer round-trip changed the AST");
            assert!(gk.source.contains("out"), "every kernel stores to out");
        }
        assert_eq!(flavors.len(), 8, "200 seeds must cover all eight flavors: {flavors:?}");
    }

    #[test]
    fn same_seed_same_kernel() {
        let cfg = GenConfig::default();
        for seed in [0u64, 7, 0xDEADBEEF] {
            assert_eq!(generate_kernel(seed, &cfg).source, generate_kernel(seed, &cfg).source);
        }
    }
}
