//! `accsat-benchmarks` — the evaluation workloads.
//!
//! Substitutes for the paper's NAS Parallel Benchmarks (OpenACC/C,
//! Table II) and SPEC ACCEL (OpenACC + OpenMP C, Table III). Each benchmark
//! here carries kernels written in the `accsat-ir` C subset that reproduce
//! the *computation and access pattern* the paper's tables list — 3-D halo
//! CFD solves (BT/LU/SP/csp/bt), irregular eigenvalue SpMV (CG/cg),
//! embarrassingly parallel random numbers (EP/ep), all-to-all FFT stages
//! (FT), long+short-distance Poisson stencils (MG), Jacobi stencils
//! (ostencil), lattice-Boltzmann streaming (olbm), and structure-of-arrays
//! MRI reconstruction (omriq) — because those patterns are what determine
//! how much redundancy, FMA opportunity, and memory-level parallelism ACC
//! Saturator can unlock in each code.
//!
//! OpenMP variants are derived mechanically from the OpenACC sources with
//! [`Benchmark::omp_source`], mirroring how the paper's suites pair the two models.

pub mod genkern;
mod npb;
pub mod spec;

pub use genkern::{generate_kernel, GenConfig, GeneratedKernel, SplitMix64};
pub use npb::npb_benchmarks;
pub use spec::spec_benchmarks;

/// Which suite a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    Npb,
    Spec,
}

/// One benchmark: kernels + launch metadata.
#[derive(Debug, Clone)]
pub struct Benchmark {
    pub name: &'static str,
    pub suite: Suite,
    /// Table II/III "Compute" column.
    pub compute: &'static str,
    /// Table II/III "Access" column.
    pub access: &'static str,
    /// Kernel count the paper reports for the full benchmark.
    pub paper_num_kernels: u32,
    /// OpenACC source (one function per kernel).
    pub acc_source: String,
    /// Whether the paper evaluates an OpenMP version of this benchmark.
    pub has_omp: bool,
    /// Problem-size constants used for trip counts and simulation.
    pub bindings: Vec<(&'static str, i64)>,
    /// Kernel launches per benchmark run (scales per-launch time to the
    /// whole-run seconds the tables report).
    pub launches: u64,
}

impl Benchmark {
    /// Bindings as a map.
    pub fn bindings_map(&self) -> std::collections::HashMap<String, i64> {
        self.bindings.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    /// The OpenMP source derived from the OpenACC source.
    pub fn omp_source(&self) -> String {
        acc_to_omp(&self.acc_source)
    }
}

/// Mechanical OpenACC → OpenMP translation of pragma lines, mirroring the
/// commented equivalences in the paper's Listing 1:
///
/// * `acc parallel/kernels loop …` → `omp target teams distribute`
///   (carrying `num_gangs` → `num_teams`);
/// * `acc loop vector…` → `omp parallel for simd`;
/// * `acc loop worker…` → removed (OpenMP cannot reuse parallelism across
///   nested loops, §II-B — the loop runs sequentially per team);
/// * reduction clauses are preserved.
pub(crate) fn acc_to_omp(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    for line in src.lines() {
        let trimmed = line.trim_start();
        if let Some(rest) = trimmed.strip_prefix("#pragma acc ") {
            let indent = &line[..line.len() - trimmed.len()];
            let reduction = rest
                .split_whitespace()
                .find(|w| w.starts_with("reduction("))
                .map(|w| format!(" {w}"))
                .unwrap_or_default();
            if rest.starts_with("parallel loop") || rest.starts_with("kernels loop") {
                let teams = extract_clause(rest, "num_gangs")
                    .map(|n| format!(" num_teams({n})"))
                    .unwrap_or_default();
                out.push_str(&format!(
                    "{indent}#pragma omp target teams distribute{teams}{reduction}\n"
                ));
            } else if rest.starts_with("loop") && rest.contains("vector") {
                out.push_str(&format!("{indent}#pragma omp parallel for simd{reduction}\n"));
            } else if rest.starts_with("loop") && rest.contains("worker") {
                // dropped: the loop executes sequentially within each team
            } else {
                // `acc loop independent` etc. → plain sequential loop
            }
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

fn extract_clause(text: &str, clause: &str) -> Option<String> {
    let start = text.find(clause)?;
    let rest = &text[start + clause.len()..];
    let open = rest.find('(')?;
    let close = rest.find(')')?;
    Some(rest[open + 1..close].trim().to_string())
}

/// All benchmarks of both suites.
pub fn all_benchmarks() -> Vec<Benchmark> {
    let mut v = npb_benchmarks();
    v.extend(spec_benchmarks());
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use accsat_ir::parse_program;

    #[test]
    fn all_acc_sources_parse() {
        for b in all_benchmarks() {
            let prog = parse_program(&b.acc_source)
                .unwrap_or_else(|e| panic!("{}: parse failed: {e}", b.name));
            assert!(!prog.functions.is_empty(), "{} has no kernels", b.name);
            for f in &prog.functions {
                assert!(
                    !accsat_ir::innermost_parallel_loops(f).is_empty(),
                    "{}::{} has no parallel loop",
                    b.name,
                    f.name
                );
            }
        }
    }

    #[test]
    fn omp_translations_parse() {
        for b in all_benchmarks().into_iter().filter(|b| b.has_omp) {
            let src = b.omp_source();
            let prog = parse_program(&src)
                .unwrap_or_else(|e| panic!("{}: OMP parse failed: {e}\n{src}", b.name));
            for f in &prog.functions {
                assert!(
                    !accsat_ir::innermost_parallel_loops(f).is_empty(),
                    "{}::{} (OMP) has no parallel loop",
                    b.name,
                    f.name
                );
            }
        }
    }

    #[test]
    fn acc_to_omp_translates_head_and_vector() {
        let src = "#pragma acc parallel loop gang num_gangs(63) vector_length(32)\nfor (int k = 0; k < 8; k++) {\n  #pragma acc loop worker\n  for (int i = 0; i < 8; i++) {\n    #pragma acc loop vector\n    for (int j = 0; j < 8; j++) {\n    }\n  }\n}\n";
        let omp = acc_to_omp(src);
        assert!(omp.contains("#pragma omp target teams distribute num_teams(63)"));
        assert!(omp.contains("#pragma omp parallel for simd"));
        assert!(!omp.contains("worker"));
    }

    #[test]
    fn suites_match_paper_inventory() {
        let npb: Vec<&str> = npb_benchmarks().iter().map(|b| b.name).collect();
        assert_eq!(npb, vec!["BT", "CG", "EP", "FT", "LU", "MG", "SP"]);
        let spec: Vec<&str> = spec_benchmarks().iter().map(|b| b.name).collect();
        assert_eq!(spec, vec!["ostencil", "olbm", "omriq", "ep", "cg", "csp", "bt"]);
    }

    #[test]
    fn bindings_cover_loop_bounds() {
        // every benchmark must compile a nest with its own bindings
        for b in all_benchmarks() {
            let prog = parse_program(&b.acc_source).unwrap();
            let bind = b.bindings_map();
            for f in &prog.functions {
                let nest = accsat_compilers::analyze_nest(f, &bind);
                assert!(nest.is_some(), "{}::{} nest analysis failed", b.name, f.name);
            }
        }
    }
}
