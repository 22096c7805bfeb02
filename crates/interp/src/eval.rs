//! The evaluator: executes functions/statements over an [`Env`].

use crate::env::{Env, Value};
use accsat_ir::{BinOp, Block, Expr, Function, LValue, Stmt, Type, UnOp};

/// What went wrong, machine-readably. The differential fuzzer relies on
/// this taxonomy to distinguish a real miscompile (an optimized kernel
/// trapping where the original ran clean) from an interpreter limitation
/// ([`EvalErrorKind::Unsupported`], [`EvalErrorKind::FuelExhausted`])
/// without string-matching messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvalErrorKind {
    /// A scalar was read (or required as a parameter) without a binding.
    UnboundVariable,
    /// An array was accessed (or required as a parameter) without a binding.
    UnboundArray,
    /// An index list whose arity matches neither the array's declared
    /// dimensions nor the flat single-index view.
    ShapeMismatch,
    /// A well-shaped index outside the declared extents.
    OutOfBounds,
    /// Integer `/` or `%` by zero.
    DivisionByZero,
    /// The loop-iteration fuel budget ran out (runaway loop).
    FuelExhausted,
    /// A call to a function the interpreter does not model, or with the
    /// wrong arity.
    BadCall,
    /// A construct outside the modeled C subset (e.g. float `%`).
    Unsupported,
}

impl EvalErrorKind {
    /// Short stable label (used in fuzz reports).
    pub fn label(&self) -> &'static str {
        match self {
            EvalErrorKind::UnboundVariable => "unbound-variable",
            EvalErrorKind::UnboundArray => "unbound-array",
            EvalErrorKind::ShapeMismatch => "shape-mismatch",
            EvalErrorKind::OutOfBounds => "out-of-bounds",
            EvalErrorKind::DivisionByZero => "division-by-zero",
            EvalErrorKind::FuelExhausted => "fuel-exhausted",
            EvalErrorKind::BadCall => "bad-call",
            EvalErrorKind::Unsupported => "unsupported",
        }
    }
}

/// Evaluation errors (unbound names, out-of-bounds accesses, runaway
/// loops), carrying a typed [`EvalErrorKind`] plus a human-readable
/// message.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalError {
    /// Machine-readable classification.
    pub kind: EvalErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "evaluation error: {}", self.message)
    }
}

impl std::error::Error for EvalError {}

fn err<T>(kind: EvalErrorKind, msg: impl Into<String>) -> Result<T, EvalError> {
    Err(EvalError { kind, message: msg.into() })
}

type EResult<T> = Result<T, EvalError>;

/// The interpreter. Holds a loop-iteration fuel budget to guarantee
/// termination on adversarial inputs (property tests generate arbitrary
/// loop bounds).
pub(crate) struct Interpreter {
    /// Remaining loop iterations before aborting.
    pub fuel: u64,
}

impl Default for Interpreter {
    fn default() -> Self {
        Interpreter { fuel: 100_000_000 }
    }
}

/// Run `f` with parameters already bound in `env` (scalars by name; arrays
/// by name in `env.arrays`). Returns the function's return value, if any.
///
/// Thin wrapper over [`try_run_function`] with the default fuel budget —
/// kept with this exact signature for every existing caller.
pub fn run_function(f: &Function, env: &mut Env) -> EResult<Option<Value>> {
    try_run_function(f, env, Interpreter::default().fuel)
}

/// Run `f` under an explicit loop-iteration `fuel` budget.
///
/// Identical to [`run_function`] otherwise: parameters must already be
/// bound in `env`, and every failure mode comes back as a typed
/// [`EvalError`] instead of a panic — unbound names, shape mismatches,
/// out-of-bounds indices, division by zero, exhausted fuel.
pub fn try_run_function(f: &Function, env: &mut Env, fuel: u64) -> EResult<Option<Value>> {
    let mut interp = Interpreter { fuel };
    // check all params are bound
    for p in &f.params {
        if p.is_array() {
            if env.array(&p.name).is_none() {
                return err(
                    EvalErrorKind::UnboundArray,
                    format!("array parameter `{}` not bound", p.name),
                );
            }
        } else if env.scalar(&p.name).is_none() {
            return err(
                EvalErrorKind::UnboundVariable,
                format!("scalar parameter `{}` not bound", p.name),
            );
        }
    }
    interp.block(&f.body, env)
}

/// Classify a failed index: wrong arity is a shape mismatch, right arity
/// out of range is out-of-bounds.
fn index_error(base: &str, idx: &[i64], dims: &[usize]) -> EvalError {
    let kind = if idx.len() != dims.len() && idx.len() != 1 {
        EvalErrorKind::ShapeMismatch
    } else {
        EvalErrorKind::OutOfBounds
    };
    EvalError { kind, message: format!("index {idx:?} out of bounds for `{base}` {dims:?}") }
}

impl Interpreter {
    /// Execute a block; `Some(v)` means a `return` was executed.
    pub(crate) fn block(&mut self, b: &Block, env: &mut Env) -> EResult<Option<Value>> {
        for s in &b.stmts {
            if let Some(ret) = self.stmt(s, env)? {
                return Ok(Some(ret));
            }
        }
        Ok(None)
    }

    fn burn(&mut self) -> EResult<()> {
        if self.fuel == 0 {
            return err(
                EvalErrorKind::FuelExhausted,
                "loop fuel exhausted (non-terminating kernel?)",
            );
        }
        self.fuel -= 1;
        Ok(())
    }

    /// Execute one statement.
    pub(crate) fn stmt(&mut self, s: &Stmt, env: &mut Env) -> EResult<Option<Value>> {
        match s {
            Stmt::Decl { ty, name, init } => {
                let v = match init {
                    Some(e) => coerce(self.expr(e, env)?, ty),
                    None => match ty {
                        Type::Int => Value::Int(0),
                        _ => Value::Float(0.0),
                    },
                };
                env.set_scalar(name, v);
                Ok(None)
            }
            Stmt::Assign { lhs, op, rhs } => {
                let rhs_v = self.expr(rhs, env)?;
                let new_v = match op.binop() {
                    None => rhs_v,
                    Some(bop) => {
                        let old = self.lvalue_read(lhs, env)?;
                        apply_bin(bop, old, rhs_v)?
                    }
                };
                self.lvalue_write(lhs, new_v, env)
            }
            Stmt::If { cond, then, els } => {
                if self.expr(cond, env)?.truthy() {
                    self.block(then, env)
                } else if let Some(e) = els {
                    self.block(e, env)
                } else {
                    Ok(None)
                }
            }
            Stmt::For(l) => {
                let init_v = self.expr(&l.init, env)?;
                // the induction variable shadows any outer binding if declared
                let saved = if l.declares_var { env.remove_scalar(&l.var) } else { None };
                env.set_scalar(&l.var, Value::Int(init_v.as_i64()));
                loop {
                    self.burn()?;
                    if !self.expr(&l.cond, env)?.truthy() {
                        break;
                    }
                    if let Some(ret) = self.block(&l.body, env)? {
                        return Ok(Some(ret));
                    }
                    let step = self.expr(&l.step, env)?;
                    let cur = env.scalar(&l.var).ok_or_else(|| EvalError {
                        kind: EvalErrorKind::UnboundVariable,
                        message: format!("induction variable `{}` vanished", l.var),
                    })?;
                    env.set_scalar(&l.var, Value::Int(cur.as_i64() + step.as_i64()));
                }
                if l.declares_var {
                    env.remove_scalar(&l.var);
                    if let Some(v) = saved {
                        env.set_scalar(&l.var, v);
                    }
                }
                Ok(None)
            }
            Stmt::While { cond, body } => {
                loop {
                    self.burn()?;
                    if !self.expr(cond, env)?.truthy() {
                        break;
                    }
                    if let Some(ret) = self.block(body, env)? {
                        return Ok(Some(ret));
                    }
                }
                Ok(None)
            }
            Stmt::Block(b) => self.block(b, env),
            Stmt::Expr(e) => {
                self.expr(e, env)?;
                Ok(None)
            }
            Stmt::Return(e) => match e {
                Some(e) => Ok(Some(self.expr(e, env)?)),
                None => Ok(Some(Value::Int(0))),
            },
        }
    }

    fn lvalue_read(&mut self, lv: &LValue, env: &mut Env) -> EResult<Value> {
        match lv {
            LValue::Var(n) => env.scalar(n).ok_or_else(|| EvalError {
                kind: EvalErrorKind::UnboundVariable,
                message: format!("unbound variable `{n}`"),
            }),
            LValue::Index { base, indices } => {
                let idx = self.indices(indices, env)?;
                let arr = env.array(base).ok_or_else(|| EvalError {
                    kind: EvalErrorKind::UnboundArray,
                    message: format!("unbound array `{base}`"),
                })?;
                let flat = arr.flatten(&idx).ok_or_else(|| index_error(base, &idx, arr.dims()))?;
                arr.try_get(flat).ok_or_else(|| index_error(base, &idx, arr.dims()))
            }
        }
    }

    fn lvalue_write(&mut self, lv: &LValue, v: Value, env: &mut Env) -> EResult<Option<Value>> {
        match lv {
            LValue::Var(n) => {
                // preserve declared int-ness of existing bindings
                let v = match env.scalar(n) {
                    Some(Value::Int(_)) => Value::Int(v.as_i64()),
                    _ => v,
                };
                env.set_scalar(n, v);
                Ok(None)
            }
            LValue::Index { base, indices } => {
                let idx = self.indices(indices, env)?;
                let arr = env.array_mut(base).ok_or_else(|| EvalError {
                    kind: EvalErrorKind::UnboundArray,
                    message: format!("unbound array `{base}`"),
                })?;
                let flat = arr.flatten(&idx).ok_or_else(|| index_error(base, &idx, arr.dims()))?;
                if !arr.try_set(flat, v) {
                    let dims = arr.dims().to_vec();
                    return Err(index_error(base, &idx, &dims));
                }
                Ok(None)
            }
        }
    }

    fn indices(&mut self, indices: &[Expr], env: &mut Env) -> EResult<Vec<i64>> {
        indices.iter().map(|e| Ok(self.expr(e, env)?.as_i64())).collect()
    }

    /// Evaluate an expression.
    pub(crate) fn expr(&mut self, e: &Expr, env: &mut Env) -> EResult<Value> {
        match e {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Float(v) => Ok(Value::Float(*v)),
            Expr::Var(n) => env.scalar(n).ok_or_else(|| EvalError {
                kind: EvalErrorKind::UnboundVariable,
                message: format!("unbound variable `{n}`"),
            }),
            Expr::Index { base, indices } => {
                let idx = self.indices(indices, env)?;
                let arr = env.array(base).ok_or_else(|| EvalError {
                    kind: EvalErrorKind::UnboundArray,
                    message: format!("unbound array `{base}`"),
                })?;
                let flat = arr.flatten(&idx).ok_or_else(|| index_error(base, &idx, arr.dims()))?;
                arr.try_get(flat).ok_or_else(|| index_error(base, &idx, arr.dims()))
            }
            Expr::Unary { op, operand } => {
                let v = self.expr(operand, env)?;
                Ok(match op {
                    UnOp::Neg => match v {
                        Value::Int(i) => Value::Int(i.wrapping_neg()),
                        Value::Float(f) => Value::Float(-f),
                    },
                    UnOp::Not => Value::Int(!v.truthy() as i64),
                })
            }
            Expr::Binary { op, lhs, rhs } => {
                // short-circuit for && and ||
                match op {
                    BinOp::And => {
                        let l = self.expr(lhs, env)?;
                        if !l.truthy() {
                            return Ok(Value::Int(0));
                        }
                        return Ok(Value::Int(self.expr(rhs, env)?.truthy() as i64));
                    }
                    BinOp::Or => {
                        let l = self.expr(lhs, env)?;
                        if l.truthy() {
                            return Ok(Value::Int(1));
                        }
                        return Ok(Value::Int(self.expr(rhs, env)?.truthy() as i64));
                    }
                    _ => {}
                }
                let l = self.expr(lhs, env)?;
                let r = self.expr(rhs, env)?;
                apply_bin(*op, l, r)
            }
            Expr::Call { name, args } => {
                let vals: EResult<Vec<Value>> = args.iter().map(|a| self.expr(a, env)).collect();
                builtin_call(name, &vals?)
            }
            Expr::Ternary { cond, then, els } => {
                if self.expr(cond, env)?.truthy() {
                    self.expr(then, env)
                } else {
                    self.expr(els, env)
                }
            }
            Expr::Cast { ty, expr } => Ok(coerce(self.expr(expr, env)?, ty)),
        }
    }
}

fn coerce(v: Value, ty: &Type) -> Value {
    match ty {
        Type::Int => Value::Int(v.as_i64()),
        Type::Float | Type::Double => Value::Float(v.as_f64()),
        Type::Void => v,
    }
}

fn apply_bin(op: BinOp, l: Value, r: Value) -> EResult<Value> {
    use BinOp::*;
    // integer op only when both sides are ints (C promotion)
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        let v = match op {
            Add => a.wrapping_add(b),
            Sub => a.wrapping_sub(b),
            Mul => a.wrapping_mul(b),
            Div => {
                if b == 0 {
                    return err(EvalErrorKind::DivisionByZero, "integer division by zero");
                }
                a.wrapping_div(b)
            }
            Mod => {
                if b == 0 {
                    return err(EvalErrorKind::DivisionByZero, "integer modulo by zero");
                }
                a.wrapping_rem(b)
            }
            Lt => (a < b) as i64,
            Le => (a <= b) as i64,
            Gt => (a > b) as i64,
            Ge => (a >= b) as i64,
            Eq => (a == b) as i64,
            Ne => (a != b) as i64,
            And => ((a != 0) && (b != 0)) as i64,
            Or => ((a != 0) || (b != 0)) as i64,
        };
        return Ok(Value::Int(v));
    }
    let (a, b) = (l.as_f64(), r.as_f64());
    Ok(match op {
        Add => Value::Float(a + b),
        Sub => Value::Float(a - b),
        Mul => Value::Float(a * b),
        Div => Value::Float(a / b),
        Mod => return err(EvalErrorKind::Unsupported, "floating modulo is not in the C subset"),
        Lt => Value::Int((a < b) as i64),
        Le => Value::Int((a <= b) as i64),
        Gt => Value::Int((a > b) as i64),
        Ge => Value::Int((a >= b) as i64),
        Eq => Value::Int((a == b) as i64),
        Ne => Value::Int((a != b) as i64),
        And => Value::Int((a != 0.0 && b != 0.0) as i64),
        Or => Value::Int((a != 0.0 || b != 0.0) as i64),
    })
}

/// The math builtins the benchmark kernels use.
fn builtin_call(name: &str, args: &[Value]) -> EResult<Value> {
    let f1 = |f: fn(f64) -> f64| -> EResult<Value> {
        if args.len() != 1 {
            return err(EvalErrorKind::BadCall, format!("{name} expects 1 argument"));
        }
        Ok(Value::Float(f(args[0].as_f64())))
    };
    let f2 = |f: fn(f64, f64) -> f64| -> EResult<Value> {
        if args.len() != 2 {
            return err(EvalErrorKind::BadCall, format!("{name} expects 2 arguments"));
        }
        Ok(Value::Float(f(args[0].as_f64(), args[1].as_f64())))
    };
    match name {
        "sqrt" | "sqrtf" => f1(f64::sqrt),
        "fabs" | "fabsf" | "abs" => f1(f64::abs),
        "exp" | "expf" => f1(f64::exp),
        "log" | "logf" => f1(f64::ln),
        "sin" | "sinf" => f1(f64::sin),
        "cos" | "cosf" => f1(f64::cos),
        "tan" => f1(f64::tan),
        "floor" => f1(f64::floor),
        "ceil" => f1(f64::ceil),
        "pow" | "powf" => f2(f64::powf),
        "fmax" | "max" => f2(f64::max),
        "fmin" | "min" => f2(f64::min),
        "atan2" => f2(f64::atan2),
        "fma" => {
            if args.len() != 3 {
                return err(EvalErrorKind::BadCall, "fma expects 3 arguments");
            }
            // the paper's FMA semantics: fma(a, b, c) = a + b * c
            Ok(Value::Float(args[0].as_f64() + args[1].as_f64() * args[2].as_f64()))
        }
        _ => err(EvalErrorKind::BadCall, format!("unknown function `{name}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::ArrayData;
    use accsat_ir::parse_program;

    fn run(src: &str, setup: impl FnOnce(&mut Env)) -> Env {
        let prog = parse_program(src).unwrap();
        let mut env = Env::new();
        setup(&mut env);
        run_function(&prog.functions[0], &mut env).unwrap();
        env
    }

    #[test]
    fn axpy_runs() {
        let env = run(
            r#"
void axpy(double x[8], double y[8], double a) {
  for (int i = 0; i < 8; i++) {
    y[i] = a * x[i] + y[i];
  }
}
"#,
            |env| {
                env.set_f64("a", 2.0);
                env.set_array("x", ArrayData::from_f64(&[8], (0..8).map(|i| i as f64).collect()));
                env.set_array("y", ArrayData::from_f64(&[8], vec![1.0; 8]));
            },
        );
        let y = env.array("y").unwrap().as_f64_vec();
        assert_eq!(y, vec![1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0]);
    }

    #[test]
    fn matmul_matches_reference() {
        let n = 4usize;
        let a: Vec<f64> = (0..n * n).map(|i| (i % 7) as f64 * 0.5).collect();
        let b: Vec<f64> = (0..n * n).map(|i| (i % 5) as f64 - 2.0).collect();
        let env = run(
            r#"
void mm(double a[4][4], double b[4][4], double r[4][4]) {
  for (int i = 0; i < 4; i++) {
    for (int j = 0; j < 4; j++) {
      double tmp = 0.0;
      for (int l = 0; l < 4; l++) {
        tmp += a[i][l] * b[l][j];
      }
      r[i][j] = tmp;
    }
  }
}
"#,
            |env| {
                env.set_array("a", ArrayData::from_f64(&[n, n], a.clone()));
                env.set_array("b", ArrayData::from_f64(&[n, n], b.clone()));
                env.set_array("r", ArrayData::zeros_f64(&[n, n]));
            },
        );
        let r = env.array("r").unwrap().as_f64_vec();
        for i in 0..n {
            for j in 0..n {
                let want: f64 = (0..n).map(|l| a[i * n + l] * b[l * n + j]).sum();
                assert!((r[i * n + j] - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn if_else_and_ternary() {
        let env = run(
            r#"
void f(double out[2], double x) {
  if (x > 0.0) {
    out[0] = x;
  } else {
    out[0] = -x;
  }
  out[1] = x > 1.0 ? 1.0 : 0.0;
}
"#,
            |env| {
                env.set_f64("x", -3.0);
                env.set_array("out", ArrayData::zeros_f64(&[2]));
            },
        );
        let out = env.array("out").unwrap().as_f64_vec();
        assert_eq!(out, vec![3.0, 0.0]);
    }

    #[test]
    fn while_and_return() {
        let src = r#"
int f(int n) {
  int s = 0;
  int i = 0;
  while (i < n) {
    s = s + i;
    i = i + 1;
  }
  return s;
}
"#;
        let prog = parse_program(src).unwrap();
        let mut env = Env::new();
        env.set_i64("n", 5);
        let ret = run_function(&prog.functions[0], &mut env).unwrap();
        assert_eq!(ret, Some(Value::Int(10)));
    }

    #[test]
    fn builtins_work() {
        let env = run(
            r#"
void f(double out[4], double x) {
  out[0] = sqrt(x);
  out[1] = fabs(-x);
  out[2] = pow(x, 2.0);
  out[3] = fmax(x, 10.0);
}
"#,
            |env| {
                env.set_f64("x", 4.0);
                env.set_array("out", ArrayData::zeros_f64(&[4]));
            },
        );
        let out = env.array("out").unwrap().as_f64_vec();
        assert_eq!(out, vec![2.0, 4.0, 16.0, 10.0]);
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let prog = parse_program("void f(double a[2]) { a[5] = 1.0; }").unwrap();
        let mut env = Env::new();
        env.set_array("a", ArrayData::zeros_f64(&[2]));
        assert!(run_function(&prog.functions[0], &mut env).is_err());
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let prog = parse_program("void f() { double x = y + 1.0; }").unwrap();
        let mut env = Env::new();
        assert!(run_function(&prog.functions[0], &mut env).is_err());
    }

    #[test]
    fn integer_semantics() {
        let src = r#"
void f(int out[3], int a, int b) {
  out[0] = a / b;
  out[1] = a % b;
  out[2] = a / b * b + a % b;
}
"#;
        let env = {
            let prog = parse_program(src).unwrap();
            let mut env = Env::new();
            env.set_i64("a", 17);
            env.set_i64("b", 5);
            env.set_array("out", ArrayData::from_i64(&[3], vec![0; 3]));
            run_function(&prog.functions[0], &mut env).unwrap();
            env
        };
        let out = env.array("out").unwrap().as_f64_vec();
        assert_eq!(out, vec![3.0, 2.0, 17.0]);
    }

    #[test]
    fn short_circuit_avoids_division_by_zero() {
        let env = run(
            r#"
void f(double out[1], int d) {
  if (d != 0 && 10 / d > 1) {
    out[0] = 1.0;
  } else {
    out[0] = 2.0;
  }
}
"#,
            |env| {
                env.set_i64("d", 0);
                env.set_array("out", ArrayData::zeros_f64(&[1]));
            },
        );
        assert_eq!(env.array("out").unwrap().as_f64_vec(), vec![2.0]);
    }

    #[test]
    fn fuel_terminates_infinite_loop() {
        let prog = parse_program("void f() { while (1) { } }").unwrap();
        let mut env = Env::new();
        let mut interp = Interpreter { fuel: 1000 };
        let r = interp.block(&prog.functions[0].body, &mut env);
        assert!(r.is_err());
    }

    #[test]
    fn loop_var_scoping_restores_outer() {
        let src = r#"
void f(double out[1]) {
  int i = 99;
  for (int i = 0; i < 3; i++) { }
  out[0] = (double)i;
}
"#;
        let env = run(src, |env| {
            env.set_array("out", ArrayData::zeros_f64(&[1]));
        });
        assert_eq!(env.array("out").unwrap().as_f64_vec(), vec![99.0]);
    }
}
