//! Loop-nest analysis: find the gang/worker/vector loops of a kernel region
//! and their trip counts.

use accsat_ir::{ast::ForLoop, BinOp, Block, Expr, Function, Stmt, UnOp};
use std::collections::HashMap;

/// One level of the parallel loop nest.
#[derive(Debug, Clone)]
pub struct NestLevel {
    pub var: String,
    pub trip: i64,
    pub has_gang: bool,
    pub has_worker: bool,
    pub has_vector: bool,
    pub num_gangs: Option<u32>,
    pub num_workers: Option<u32>,
    pub vector_length: Option<u32>,
    /// The directive kind at this level, if any.
    pub kind: Option<accsat_ir::DirectiveKind>,
}

/// The analyzed parallel nest of one kernel region.
#[derive(Debug, Clone)]
pub struct LoopNest {
    pub levels: Vec<NestLevel>,
    /// Body of the innermost parallel loop.
    pub body: Block,
    /// Induction variable of the innermost parallel loop (vector axis).
    pub vector_var: String,
    /// Iteration multiplier from sequential loops *between* parallel levels
    /// (e.g. the worker loop of an OpenACC kernel that OpenMP runs
    /// sequentially per team, §II-B).
    pub seq_mult: f64,
}

impl LoopNest {
    /// Requested gang count across levels (`num_gangs`/`gang(n)`/`num_teams`).
    pub fn num_gangs(&self) -> Option<u32> {
        self.levels.iter().find_map(|l| l.num_gangs)
    }

    /// Requested worker count.
    pub fn num_workers(&self) -> Option<u32> {
        self.levels.iter().find_map(|l| l.num_workers)
    }

    /// Requested vector length.
    pub fn vector_length(&self) -> Option<u32> {
        self.levels.iter().find_map(|l| l.vector_length)
    }

    /// Trip count of the levels with gang parallelism (product).
    pub(crate) fn gang_trip(&self) -> i64 {
        let t: i64 = self
            .levels
            .iter()
            .filter(|l| l.has_gang || (!l.has_worker && !l.has_vector))
            .map(|l| l.trip.max(1))
            .product();
        t.max(1)
    }

    /// Trip count of worker levels.
    pub(crate) fn worker_trip(&self) -> i64 {
        self.levels
            .iter()
            .filter(|l| l.has_worker && !l.has_gang)
            .map(|l| l.trip.max(1))
            .product::<i64>()
            .max(1)
    }

    /// Trip count of the vector level.
    pub(crate) fn vector_trip(&self) -> i64 {
        self.levels.last().map(|l| l.trip.max(1)).unwrap_or(1)
    }
}

/// Evaluate an integer expression from bindings.
pub(crate) fn const_eval(e: &Expr, bindings: &HashMap<String, i64>) -> Option<i64> {
    match e {
        Expr::Int(v) => Some(*v),
        Expr::Float(v) if v.fract() == 0.0 => Some(*v as i64),
        Expr::Var(n) => bindings.get(n).copied(),
        Expr::Unary { op: UnOp::Neg, operand } => Some(-const_eval(operand, bindings)?),
        Expr::Binary { op, lhs, rhs } => {
            let (a, b) = (const_eval(lhs, bindings)?, const_eval(rhs, bindings)?);
            Some(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a.checked_div(b)?,
                BinOp::Mod => a.checked_rem(b)?,
                _ => return None,
            })
        }
        Expr::Cast { expr, .. } => const_eval(expr, bindings),
        _ => None,
    }
}

/// Trip count of a canonical loop.
pub(crate) fn trip_count(l: &ForLoop, bindings: &HashMap<String, i64>) -> Option<i64> {
    let init = const_eval(&l.init, bindings)?;
    let step = const_eval(&l.step, bindings)?;
    if step == 0 {
        return None;
    }
    if let Expr::Binary { op, lhs, rhs } = &l.cond {
        let bound = match (lhs.as_ref(), rhs.as_ref()) {
            (Expr::Var(v), b) if *v == l.var => const_eval(b, bindings)?,
            (b, Expr::Var(v)) if *v == l.var => const_eval(b, bindings)?,
            _ => return None,
        };
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

/// Analyze the first kernel region of a function: the chain of
/// directive-annotated loops from the region head down to the innermost
/// parallel loop.
pub fn analyze_nest(f: &Function, bindings: &HashMap<String, i64>) -> Option<LoopNest> {
    let head = find_head(&f.body)?;
    let mut levels = Vec::new();
    let mut seq_mult = 1.0f64;
    let mut cur = head;
    loop {
        let d = cur.directive.as_ref();
        levels.push(NestLevel {
            var: cur.var.clone(),
            trip: trip_count(cur, bindings).unwrap_or(64),
            has_gang: d.is_some_and(|d| d.has_gang()),
            has_worker: d.is_some_and(|d| d.has_worker()),
            has_vector: d.is_some_and(|d| d.has_vector()),
            num_gangs: d.and_then(|d| d.num_gangs()),
            num_workers: d.and_then(|d| d.num_workers()),
            vector_length: d.and_then(|d| d.vector_length()),
            kind: d.map(|d| d.kind),
        });
        match next_level(&cur.body, bindings) {
            Some((mult, next)) => {
                seq_mult *= mult;
                cur = next;
            }
            None => break,
        }
    }
    Some(LoopNest { body: cur.body.clone(), vector_var: cur.var.clone(), levels, seq_mult })
}

/// Find the next directive loop below `b`, multiplying the trip counts of
/// intervening sequential loops.
fn next_level<'a>(b: &'a Block, bindings: &HashMap<String, i64>) -> Option<(f64, &'a ForLoop)> {
    for s in &b.stmts {
        match s {
            Stmt::For(l) if l.directive.is_some() => return Some((1.0, l)),
            Stmt::For(l) => {
                if let Some((m, x)) = next_level(&l.body, bindings) {
                    let trip = trip_count(l, bindings).unwrap_or(8).max(1) as f64;
                    return Some((m * trip, x));
                }
            }
            _ => {}
        }
    }
    None
}

fn find_head(b: &Block) -> Option<&ForLoop> {
    for s in &b.stmts {
        match s {
            Stmt::For(l) => {
                if l.directive.is_some() {
                    return Some(l);
                }
                if let Some(h) = find_head(&l.body) {
                    return Some(h);
                }
            }
            Stmt::If { then, els, .. } => {
                if let Some(h) = find_head(then) {
                    return Some(h);
                }
                if let Some(e) = els {
                    if let Some(h) = find_head(e) {
                        return Some(h);
                    }
                }
            }
            Stmt::Block(b) => {
                if let Some(h) = find_head(b) {
                    return Some(h);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use accsat_ir::parse_program;

    #[test]
    fn three_level_nest() {
        let src = r#"
void k(double a[64][8][8], int gp) {
  #pragma acc parallel loop gang num_gangs(63) num_workers(4) vector_length(32)
  for (int k = 1; k <= 63; k++) {
    #pragma acc loop worker
    for (int i = 1; i <= gp; i++) {
      #pragma acc loop vector
      for (int j = 1; j <= gp; j++) {
        a[k][i][j] = 0.0;
      }
    }
  }
}
"#;
        let prog = parse_program(src).unwrap();
        let b: HashMap<String, i64> = [("gp".to_string(), 6)].into();
        let nest = analyze_nest(&prog.functions[0], &b).unwrap();
        assert_eq!(nest.levels.len(), 3);
        assert_eq!(nest.vector_var, "j");
        assert_eq!(nest.levels[0].trip, 63);
        assert_eq!(nest.levels[1].trip, 6);
        assert_eq!(nest.num_gangs(), Some(63));
        assert_eq!(nest.num_workers(), Some(4));
        assert_eq!(nest.vector_length(), Some(32));
    }

    #[test]
    fn single_loop_nest() {
        let src = r#"
void k(double a[1000]) {
  #pragma acc parallel loop gang vector
  for (int i = 0; i < 1000; i++) {
    a[i] = 1.0;
  }
}
"#;
        let prog = parse_program(src).unwrap();
        let nest = analyze_nest(&prog.functions[0], &HashMap::new()).unwrap();
        assert_eq!(nest.levels.len(), 1);
        assert_eq!(nest.vector_trip(), 1000);
    }

    #[test]
    fn trip_counts() {
        let b: HashMap<String, i64> = [("n".to_string(), 10)].into();
        let prog = parse_program(
            "void f() { for (int i = 0; i < n; i += 2) { } for (int j = n; j > 0; j--) { } }",
        )
        .unwrap();
        let loops: Vec<&ForLoop> = prog.functions[0]
            .body
            .stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::For(l) => Some(l),
                _ => None,
            })
            .collect();
        assert_eq!(trip_count(loops[0], &b), Some(5));
        assert_eq!(trip_count(loops[1], &b), Some(10));
    }

    #[test]
    fn no_directive_returns_none() {
        let prog =
            parse_program("void f(double a[4]) { for (int i = 0; i < 4; i++) { a[i] = 0.0; } }")
                .unwrap();
        assert!(analyze_nest(&prog.functions[0], &HashMap::new()).is_none());
    }
}
