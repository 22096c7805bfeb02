//! Workload inputs: the evaluation suite, the generated kernel pools, and
//! the seeded orders, edits and interpreter inputs.
//!
//! `--seed` decides the order in which a workload submits its sources,
//! every comment edit, and every interpreter input; each purpose has its
//! own `SplitMix64` stream. It does not decide *which* kernels are
//! generated: a kernel's cost is heavy-tailed (most extract in under a
//! millisecond, a few take a thousand times that), so pools drawn per seed
//! differ in total work by far more than a regression bound — measured
//! here, 200 medium kernels moved `sat_stage`'s pass by 14 % (quartile
//! distance over ten seeds), 1000 tiny ones the cold pipeline by 8–16 %.
//! The pools therefore come from one fixed stream, [`POOL_SEED`]: a run
//! on another seed does the same work in another order, and a difference
//! between two runs is the program's, not the dice's.

use accsat::benchmarks::{generate_kernel, Benchmark};
use accsat::benchmarks::{GenConfig, GeneratedKernel, SplitMix64};
use accsat::interp::{ArrayData, Env, Value};
use accsat::ir::{Program, Type};

/// One translation unit handed to the optimizer.
#[derive(Debug, Clone)]
pub struct Source {
    pub name: String,
    pub text: String,
}

/// The OpenACC sources of the evaluation suite (`all_benchmarks()`: 14
/// NPB + SPEC ACCEL benchmarks, 19 kernels), in suite order.
pub fn suite_sources(suite: &[Benchmark]) -> Vec<Source> {
    suite.iter().map(|b| Source { name: b.name.to_string(), text: b.acc_source.clone() }).collect()
}

/// The stream seed every generated-kernel pool is drawn from.
pub const POOL_SEED: u64 = 0xACC5_A700;

/// An independent stream for one purpose (`salt`) of one run (`seed`).
pub fn stream(seed: u64, salt: &str) -> SplitMix64 {
    SplitMix64::new(seed ^ accsat::ir::fnv1a(salt.as_bytes()))
}

/// Draw `n` generated kernels; each kernel's own generator seed comes
/// from the stream.
pub fn draw_kernels(rng: &mut SplitMix64, cfg: &GenConfig, n: usize) -> Vec<GeneratedKernel> {
    (0..n).map(|_| generate_kernel(rng.next_u64(), cfg)).collect()
}

/// The fixed pool of `n` kernels for one purpose: the same on every seed.
pub fn pool_kernels(salt: &str, cfg: &GenConfig, n: usize) -> Vec<GeneratedKernel> {
    draw_kernels(&mut stream(POOL_SEED, salt), cfg, n)
}

pub fn kernel_sources(prefix: &str, kernels: &[GeneratedKernel]) -> Vec<Source> {
    kernels
        .iter()
        .enumerate()
        .map(|(i, k)| Source { name: format!("{prefix}{i}"), text: k.source.clone() })
        .collect()
}

/// A cosmetic edit: a comment and some blank space inserted at a line
/// boundary. The bytes (and so the source hash) change; the parsed IR,
/// and with it every kernel fingerprint, does not.
pub fn comment_edit(src: &str, rng: &mut SplitMix64) -> String {
    let breaks: Vec<usize> = src.match_indices('\n').map(|(i, _)| i + 1).collect();
    let at = breaks[rng.below(breaks.len() as u64) as usize];
    let pad = " ".repeat(1 + rng.below(4) as usize);
    let note = match rng.below(3) {
        0 => format!("{pad}/* edit {:08x} */\n", rng.next_u64() as u32),
        1 => format!("{pad}// edit {:08x}\n", rng.next_u64() as u32),
        _ => format!("\n{pad}/* edit\n{pad} * {:08x} */\n", rng.next_u64() as u32),
    };
    format!("{}{note}{}", &src[..at], &src[at..])
}

/// Fisher–Yates shuffle driven by the stream.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Interpreter inputs for a generated kernel: every array cell and scalar
/// in `[0.5, 2.5]`, the range the generator's safety discipline assumes.
pub fn kernel_env(k: &GeneratedKernel, rng: &mut SplitMix64) -> Env {
    let mut env = Env::new();
    for (name, dims) in &k.arrays {
        let len: usize = dims.iter().product();
        let data: Vec<f64> = (0..len).map(|_| rng.range_f64(0.5, 2.5)).collect();
        env.set_array(name, ArrayData::from_f64(dims, data));
    }
    for s in &k.scalars {
        env.set_f64(s, rng.range_f64(0.5, 2.5));
    }
    env
}

/// Interpreter inputs for a suite benchmark, binding every parameter of
/// every function: float arrays get seeded data in `[0.5, 2.5)`, CSR index
/// arrays stay in bounds, scalars come from the benchmark's problem-size
/// bindings (the shapes `tests/semantic_preservation.rs` uses).
pub fn suite_env(prog: &Program, bench: &Benchmark, rng: &mut SplitMix64) -> Env {
    let mut env = Env::new();
    let bindings = bench.bindings_map();
    for p in prog.functions.iter().flat_map(|f| &f.params) {
        if p.is_array() {
            let n = p.len();
            let data = if p.name.contains("rowstr") {
                // CSR row offsets: increasing, ~8 non-zeros per row
                ArrayData::from_i64(&p.dims, (0..n as i64).map(|i| i * 8).collect())
            } else if p.name.contains("colidx") {
                // column indices into the 4096-long vectors of the CG kernels
                ArrayData::from_i64(&p.dims, (0..n).map(|_| rng.below(4096) as i64).collect())
            } else if p.ty == Type::Int {
                ArrayData::from_i64(&p.dims, (0..n).map(|_| rng.below(7) as i64).collect())
            } else {
                ArrayData::from_f64(&p.dims, (0..n).map(|_| rng.range_f64(0.5, 2.5)).collect())
            };
            env.set_array(&p.name, data);
        } else if let Some(&v) = bindings.get(&p.name) {
            env.set_scalar(&p.name, Value::Int(v));
        } else if p.ty == Type::Int {
            env.set_scalar(&p.name, Value::Int(4));
        } else {
            env.set_f64(&p.name, rng.range_f64(1.0, 2.0));
        }
    }
    env
}

#[cfg(test)]
mod tests {
    use super::*;
    use accsat::ir::parse_program;

    #[test]
    fn comment_edits_change_bytes_but_not_the_parsed_program() {
        let src = &suite_sources(&accsat::benchmarks::all_benchmarks())[0].text;
        let mut rng = stream(11, "edit-test");
        let prog = parse_program(src).unwrap();
        for _ in 0..20 {
            let edited = comment_edit(src, &mut rng);
            assert_ne!(&edited, src);
            assert_eq!(parse_program(&edited).unwrap(), prog);
        }
    }

    #[test]
    fn streams_are_reproducible_and_separated() {
        let draw = |seed, salt| stream(seed, salt).next_u64();
        assert_eq!(draw(11, "a"), draw(11, "a"));
        assert_ne!(draw(11, "a"), draw(12, "a"));
        assert_ne!(draw(11, "a"), draw(11, "b"));
        let cfg = GenConfig { max_stmts: 2, max_depth: 2 };
        let a = draw_kernels(&mut stream(11, "k"), &cfg, 5);
        let b = draw_kernels(&mut stream(11, "k"), &cfg, 5);
        assert!(a.iter().zip(&b).all(|(x, y)| x.source == y.source));
        let mut v: Vec<u32> = (0..50).collect();
        shuffle(&mut v, &mut stream(11, "s"));
        assert_ne!(v, (0..50).collect::<Vec<u32>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<u32>>());
    }
}
