//! Loop-nest analysis: find the gang/worker/vector loops of a kernel region
//! and their trip counts.

use accsat_ir::{trip_count, Block, Function};
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
    /// The directive kind at this level.
    pub kind: accsat_ir::DirectiveKind,
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

/// Analyze kernel `k` of `f` (its index in
/// [`accsat_ir::innermost_parallel_loops`]): the directive loops of its
/// nest, from the region head down to the kernel, with the trip counts of
/// the sequential loops between them folded into `seq_mult`. Sequential
/// loops above the region head are not part of the launch.
pub fn analyze_nest(f: &Function, k: usize, bindings: &HashMap<String, i64>) -> Option<LoopNest> {
    let chain = accsat_ir::kernel_nest(f, k)?;
    let lookup = |n: &str| bindings.get(n).copied();
    let head = chain.iter().position(|l| l.directive.is_some())?;
    let mut levels = Vec::new();
    let mut seq_mult = 1.0f64;
    for l in &chain[head..] {
        let Some(d) = &l.directive else {
            seq_mult *= trip_count(l, &lookup).unwrap_or(8).max(1) as f64;
            continue;
        };
        levels.push(NestLevel {
            var: l.var.clone(),
            trip: trip_count(l, &lookup).unwrap_or(64),
            has_gang: d.has_gang(),
            has_worker: d.has_worker(),
            has_vector: d.has_vector(),
            num_gangs: d.num_gangs(),
            num_workers: d.num_workers(),
            vector_length: d.vector_length(),
            kind: d.kind,
        });
    }
    let kernel = chain.last()?;
    Some(LoopNest { body: kernel.body.clone(), vector_var: kernel.var.clone(), levels, seq_mult })
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
        let nest = analyze_nest(&prog.functions[0], 0, &b).unwrap();
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
        let nest = analyze_nest(&prog.functions[0], 0, &HashMap::new()).unwrap();
        assert_eq!(nest.levels.len(), 1);
        assert_eq!(nest.vector_trip(), 1000);
    }

    #[test]
    fn no_directive_returns_none() {
        let prog =
            parse_program("void f(double a[4]) { for (int i = 0; i < 4; i++) { a[i] = 0.0; } }")
                .unwrap();
        assert!(analyze_nest(&prog.functions[0], 0, &HashMap::new()).is_none());
    }
}
