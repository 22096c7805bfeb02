//! `accsat fuzz` — the differential kernel fuzzer.
//!
//! Every e-graph optimization must preserve semantics (paper §IV). The
//! property tests check that claim on hand-picked shapes; this module
//! checks it *at scale*: a seeded stream of random kernels (from
//! [`accsat_benchmarks::genkern`]) runs through the full saturate →
//! extract → codegen pipeline under every [`Variant`], and each result is
//! validated against two oracles:
//!
//! 1. **Differential oracle** — the interpreter executes the original and
//!    the optimized kernel on identical inputs; outputs must agree within
//!    a fast-math tolerance ([`accsat_interp::compare_arrays_with`]).
//! 2. **Structural invariants** — the portfolio's claimed cost must equal
//!    the selection's recomputed DAG cost, the certified lower bound must
//!    not exceed the cost, the selection must be acyclic, total over the
//!    extraction roots and made of member nodes
//!    ([`Selection::checked_cost`]), and the optimized source must survive
//!    a printer round-trip.
//! 3. **Cache oracle** (opt-in, [`FuzzConfig::cache_check`] / `--cache`) —
//!    the pipeline runs cold then warm through a content-addressed stage
//!    cache; the warm run must be byte-identical and hit the `selected`
//!    level (`cache-divergence` / `cache-level` findings otherwise).
//!
//! Campaigns are deterministic: per-case seeds derive from the campaign
//! seed and the case index alone, outcomes are aggregated in case order
//! ([`accsat_egraph::pool::map_slots`]), and the report contains no
//! wall-clock fields — so `--threads 1` and `--threads 8` produce
//! byte-identical stdout and JSON, which CI diffs.
//!
//! When a case fails, a greedy AST minimizer ([`minimize_function`])
//! shrinks it while the *same* invariant keeps failing, and the shrunk
//! repro can be written to a corpus directory as a standalone `.sat` file.
//!
//! [`Selection::checked_cost`]: accsat_extract::Selection::checked_cost

use crate::pipeline::{for_each_kernel, panic_message, OptStats, SaturatorConfig, Variant};
use accsat_benchmarks::genkern::{generate_kernel, GenConfig, GeneratedKernel, SplitMix64};
use accsat_egraph::RunnerLimits;
use accsat_interp::{compare_arrays_with, try_run_function, ArrayData, Env, EvalErrorKind};
use accsat_ir::{parse_program, print_program, Block, Expr, Function, Program, Stmt};
use accsat_obs::escape_json;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of kernels to generate and check.
    pub cases: u64,
    /// Campaign seed: together with a case's index it fully determines
    /// that case (kernel, inputs, and verdict).
    pub seed: u64,
    /// Worker threads. Never affects results, only wall clock.
    pub threads: usize,
    /// Kernel-generator knobs.
    pub gen: GenConfig,
    /// Pipeline configuration. Defaults to small, fully deterministic
    /// limits (the node budget binds, never the wall clock) so debug-build
    /// campaigns stay fast.
    pub saturator: SaturatorConfig,
    /// Relative tolerance of the differential oracle.
    pub rel_tol: f64,
    /// Absolute floor of the differential oracle. Raised well above the
    /// default 1e-12 because saturation reassociates under fast-math
    /// semantics: catastrophic cancellation near zero is rounding noise,
    /// while real miscompiles produce O(1) errors.
    pub abs_tol: f64,
    /// Interpreter loop fuel per run (generated kernels execute a few
    /// hundred iterations; anything beyond this is a runaway loop).
    pub fuel: u64,
    /// Cap on minimizer pipeline re-runs per failing case.
    pub max_shrink_attempts: usize,
    /// Run the **cache oracle**: each variant additionally goes through
    /// the pipeline twice with a stage cache — cold populating, warm
    /// reading — and any byte difference between the two outputs (or a
    /// warm run that fails to reach the `selected` level) is a finding
    /// (`cache-divergence` / `cache-level`). Off by default: it triples
    /// per-case pipeline work.
    pub cache_check: bool,
    /// Directory for the cache oracle's store. `None` (default) gives
    /// every case a fresh in-memory cache, which keeps findings
    /// independent of case execution order; a directory additionally
    /// exercises the disk round-trip, sharing entries across cases.
    pub cache_dir: Option<std::path::PathBuf>,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            cases: 200,
            seed: 7,
            threads: 1,
            gen: GenConfig::default(),
            saturator: SaturatorConfig {
                limits: RunnerLimits { node_limit: 1500, iter_limit: 3, ..Default::default() },
                extraction_node_budget: 10_000,
                extraction_budget: Duration::from_secs(60),
                ..Default::default()
            },
            rel_tol: 1e-5,
            abs_tol: 1e-5,
            fuel: 100_000,
            max_shrink_attempts: 300,
            cache_check: false,
            cache_dir: None,
        }
    }
}

/// One violated invariant on one case.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Variant label (`"-"` for variant-independent findings such as a
    /// generator parse failure).
    pub variant: &'static str,
    /// Stable invariant key (`differential`, `cost-mismatch`, …): the
    /// minimizer shrinks while this exact key keeps failing.
    pub invariant: &'static str,
    /// Human-readable specifics (mismatching values, error text).
    pub detail: String,
}

/// A shrunk reproduction of a failing case.
#[derive(Debug, Clone)]
pub struct MinimizedRepro {
    /// The shrunk kernel source (still failing the same invariant).
    pub source: String,
    /// Statement count before / after shrinking.
    pub stmts_before: usize,
    pub stmts_after: usize,
}

/// Verdict for one generated case.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    pub index: u64,
    pub seed: u64,
    pub flavor: &'static str,
    /// `Some(reason)` when the *original* kernel failed to run — an
    /// interpreter limitation or generator gap, not an optimizer bug; the
    /// case is skipped rather than failed.
    pub skipped: Option<String>,
    /// All violated invariants (empty = pass).
    pub findings: Vec<Finding>,
    /// Shrunk repro for the first finding, when the minimizer applies.
    pub minimized: Option<MinimizedRepro>,
}

/// Campaign report. Contains no wall-clock or thread-count fields: two
/// runs with the same `--cases/--seed` render byte-identical summaries
/// and JSON at any thread count.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    pub cases: u64,
    pub seed: u64,
    /// Generated-flavor histogram (sorted by flavor name).
    pub flavors: Vec<(String, u64)>,
    pub passed: u64,
    pub skipped: u64,
    /// Failing cases in index order, each carrying its outcome.
    pub failures: Vec<CaseOutcome>,
}

/// Derive the seed of case `index` from the campaign seed. Pure function
/// of `(campaign, index)`, so results are independent of which worker
/// claims the case.
fn case_seed(campaign: u64, index: u64) -> u64 {
    SplitMix64::new(campaign ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Build the input environment for a generated kernel: every array cell
/// and scalar parameter drawn from `[0.5, 2.5]` — positive and away from
/// zero, which the generator's safety discipline relies on.
fn build_env(gk: &GeneratedKernel, seed: u64) -> Env {
    let mut rng = SplitMix64::new(seed ^ 0xC0FF_EE00_D15E_A5E5);
    let mut env = Env::new();
    for (name, dims) in &gk.arrays {
        let len: usize = dims.iter().product();
        let data: Vec<f64> = (0..len).map(|_| rng.range_f64(0.5, 2.5)).collect();
        env.set_array(name, ArrayData::from_f64(dims, data));
    }
    for s in &gk.scalars {
        env.set_f64(s, rng.range_f64(0.5, 2.5));
    }
    env
}

/// Stable invariant key for an optimized-run interpreter error: the
/// optimizer turned a clean kernel into one that traps, and the typed
/// [`EvalErrorKind`] says how.
fn run_invariant(kind: EvalErrorKind) -> &'static str {
    match kind {
        EvalErrorKind::UnboundVariable => "opt-run:unbound-variable",
        EvalErrorKind::UnboundArray => "opt-run:unbound-array",
        EvalErrorKind::ShapeMismatch => "opt-run:shape-mismatch",
        EvalErrorKind::OutOfBounds => "opt-run:out-of-bounds",
        EvalErrorKind::DivisionByZero => "opt-run:division-by-zero",
        EvalErrorKind::FuelExhausted => "opt-run:fuel-exhausted",
        EvalErrorKind::BadCall => "opt-run:bad-call",
        EvalErrorKind::Unsupported => "opt-run:unsupported",
    }
}

/// The pipeline's cold walk (saturate → select → lower, through the same
/// stage functions and cache wiring `optimize_function` uses) on every
/// kernel of `f` under `variant`, with the extraction invariants checked
/// on the choice between `select` and `lower`. Returns the optimized
/// function plus any structural findings.
pub(crate) fn optimize_checked(
    f: &Function,
    variant: Variant,
    fc: &FuzzConfig,
) -> Result<(Function, Vec<Finding>), String> {
    let mut findings = Vec::new();
    let (out, stats) = for_each_kernel(f, variant, &fc.saturator, |job, _| {
        let sat = job.saturate();
        let chosen = job.select(&sat);
        let checked = chosen.check(&sat.kernel, &fc.saturator.cost_model);
        // a selection that cannot be walked cannot be lowered: the kernel
        // keeps its original body
        let body = match checked {
            Err(("selection-walk", _)) => (job.body.clone(), Duration::ZERO),
            _ => job.lower(&sat, &chosen),
        };
        let finding = |(invariant, detail)| Finding { variant: variant.label(), invariant, detail };
        findings.extend(checked.err().map(finding));
        Ok(job.finish(sat, chosen, body))
    })?;
    if stats.is_empty() {
        return Err("no parallel kernel".into());
    }
    Ok((out, findings))
}

/// Run every oracle on one parsed kernel function against the inputs in
/// `env0`: the four-variant pipeline with structural invariants, the
/// printer round-trip, and the interpreter differential. `only` restricts
/// the sweep to a single variant (the minimizer's fast path). Returns
/// `Err` when the *original* kernel fails to run (a skip, not a bug).
pub fn check_kernel(
    f: &Function,
    env0: &Env,
    fc: &FuzzConfig,
    only: Option<Variant>,
) -> Result<Vec<Finding>, String> {
    let mut env_orig = env0.clone();
    if let Err(e) = try_run_function(f, &mut env_orig, fc.fuel) {
        return Err(format!("original run failed ({}): {e}", e.kind.label()));
    }
    let mut findings = Vec::new();
    for variant in Variant::all() {
        if only.is_some_and(|v| v != variant) {
            continue;
        }
        // adversarial inputs may panic deep in saturate/extract/codegen;
        // record the panic as a finding instead of aborting the campaign
        let optimized = match catch_unwind(AssertUnwindSafe(|| optimize_checked(f, variant, fc))) {
            Ok(Ok((opt, fs))) => {
                findings.extend(fs);
                opt
            }
            Ok(Err(e)) => {
                findings.push(Finding {
                    variant: variant.label(),
                    invariant: "pipeline-error",
                    detail: e,
                });
                continue;
            }
            Err(payload) => {
                findings.push(Finding {
                    variant: variant.label(),
                    invariant: "panic",
                    detail: panic_message(&*payload).to_string(),
                });
                continue;
            }
        };
        // printer round-trip on the optimized source
        let text = print_program(&Program { functions: vec![optimized.clone()] });
        match parse_program(&text) {
            Err(e) => {
                findings.push(Finding {
                    variant: variant.label(),
                    invariant: "opt-reparse",
                    detail: format!("{e}"),
                });
                continue;
            }
            Ok(p2) => {
                let text2 = print_program(&p2);
                if text2 != text {
                    findings.push(Finding {
                        variant: variant.label(),
                        invariant: "opt-roundtrip",
                        detail: "printed optimized source is not a print-parse fixpoint".into(),
                    });
                }
            }
        }
        // differential oracle
        let mut env_opt = env0.clone();
        match try_run_function(&optimized, &mut env_opt, fc.fuel) {
            Err(e) => {
                findings.push(Finding {
                    variant: variant.label(),
                    invariant: run_invariant(e.kind),
                    detail: format!("{e}"),
                });
            }
            Ok(_) => {
                if let Some((name, i, x, y)) =
                    compare_arrays_with(&env_orig, &env_opt, fc.rel_tol, fc.abs_tol)
                {
                    findings.push(Finding {
                        variant: variant.label(),
                        invariant: "differential",
                        detail: format!("{name}[{i}]: original {x:?} vs optimized {y:?}"),
                    });
                }
            }
        }
        // cache oracle: cold vs warm through the stage cache
        if fc.cache_check {
            findings.extend(check_cache(f, variant, fc));
        }
    }
    Ok(findings)
}

/// The cache oracle: run the *real* pipeline (`pipeline::optimize_function`,
/// not the fuzz-internal staged checker) twice through a stage cache. The
/// cold run populates every level; the warm run must (a) print
/// byte-identically, (b) agree on every stable statistic, and (c) hit the
/// `selected` level on every kernel. Any violation is a new failure kind
/// in the invariant taxonomy: `cache-divergence` for output/stat drift,
/// `cache-level` for a warm run that recomputed a stage it should have
/// reused.
fn check_cache(f: &Function, variant: Variant, fc: &FuzzConfig) -> Vec<Finding> {
    use crate::cache::{CacheLevel, StageCache};
    use crate::pipeline::optimize_function;

    let mut findings = Vec::new();
    let mut diverged = |invariant: &'static str, detail: String| {
        findings.push(Finding { variant: variant.label(), invariant, detail });
    };
    let cache = match &fc.cache_dir {
        Some(dir) => match StageCache::with_dir(dir) {
            Ok(c) => std::sync::Arc::new(c),
            Err(e) => {
                diverged("cache-divergence", format!("cannot open cache dir: {e}"));
                return findings;
            }
        },
        None => std::sync::Arc::new(StageCache::in_memory()),
    };
    let mut cfg = fc.saturator.clone();
    cfg.cache = Some(cache);
    let runs = (optimize_function(f, variant, &cfg), optimize_function(f, variant, &cfg));
    let ((cold_f, cold_s), (warm_f, warm_s)) = match runs {
        (Ok(c), Ok(w)) => (c, w),
        (Err(e), _) => {
            diverged("cache-divergence", format!("cold pipeline error: {e}"));
            return findings;
        }
        (_, Err(e)) => {
            diverged("cache-divergence", format!("warm pipeline error: {e}"));
            return findings;
        }
    };
    let cold_text = print_program(&Program { functions: vec![cold_f] });
    let warm_text = print_program(&Program { functions: vec![warm_f] });
    if cold_text != warm_text {
        diverged("cache-divergence", "warm output is not byte-identical to cold".into());
    }
    // every deterministic (non-wall-clock) statistic must agree
    if cold_s.iter().map(OptStats::deterministic).ne(warm_s.iter().map(OptStats::deterministic)) {
        diverged("cache-divergence", "warm statistics differ from cold".into());
    }
    for (i, s) in warm_s.iter().enumerate() {
        if s.cache_level != CacheLevel::Selected {
            diverged(
                "cache-level",
                format!("warm kernel {i} reused only `{}`, expected `selected`", {
                    s.cache_level.label()
                }),
            );
        }
    }
    findings
}

/// Check case `index` of the campaign end to end: regenerate the kernel
/// from the pure `(campaign seed, index)` derivation, then run every
/// oracle and shrink the first finding. Public so regression tests can
/// pin previously-failing indices of a known campaign.
pub fn run_case(index: u64, fc: &FuzzConfig) -> CaseOutcome {
    check_seeded(index, case_seed(fc.seed, index), fc)
}

/// Check one generated kernel by its *case seed* directly, bypassing the
/// campaign derivation — the entry point for property tests that pin a
/// known-bad seed (or explore arbitrary ones) without a campaign around
/// them.
pub fn check_seeded(index: u64, seed: u64, fc: &FuzzConfig) -> CaseOutcome {
    let gk = generate_kernel(seed, &fc.gen);
    let mut outcome = CaseOutcome {
        index,
        seed,
        flavor: gk.flavor,
        skipped: None,
        findings: Vec::new(),
        minimized: None,
    };
    let prog = match parse_program(&gk.source) {
        Ok(p) => p,
        Err(e) => {
            outcome.findings.push(Finding {
                variant: "-",
                invariant: "gen-parse",
                detail: format!("{e}"),
            });
            return outcome;
        }
    };
    // printer round-trip on the generated source
    let printed = print_program(&prog);
    match parse_program(&printed) {
        Err(e) => outcome.findings.push(Finding {
            variant: "-",
            invariant: "src-reparse",
            detail: format!("{e}"),
        }),
        Ok(p2) => {
            if p2 != prog {
                outcome.findings.push(Finding {
                    variant: "-",
                    invariant: "src-roundtrip",
                    detail: "print-parse round-trip changed the AST".into(),
                });
            }
        }
    }
    let f = &prog.functions[0];
    let env0 = build_env(&gk, seed);
    match check_kernel(f, &env0, fc, None) {
        Err(reason) => outcome.skipped = Some(reason),
        Ok(fs) => outcome.findings.extend(fs),
    }
    // shrink the first pipeline-level finding while it keeps reproducing
    if let Some(first) = outcome.findings.first().cloned() {
        if let Some(v) = Variant::parse(first.variant) {
            let key = first.invariant;
            let reproduces = |cand: &Function| {
                catch_unwind(AssertUnwindSafe(|| check_kernel(cand, &env0, fc, Some(v))))
                    .map(|r| match r {
                        Ok(fs) => fs.iter().any(|x| x.invariant == key),
                        Err(_) => false,
                    })
                    .unwrap_or(false)
            };
            let before = f.body.stmt_count();
            let (shrunk, _) = minimize_function(f, &reproduces, fc.max_shrink_attempts);
            outcome.minimized = Some(MinimizedRepro {
                source: print_program(&Program { functions: vec![shrunk.clone()] }),
                stmts_before: before,
                stmts_after: shrunk.body.stmt_count(),
            });
        }
    }
    outcome
}

/// Run a campaign: `fc.cases` independent cases on `fc.threads` workers,
/// aggregated in case order so the report never depends on completion
/// order.
pub fn run_campaign(fc: &FuzzConfig) -> FuzzReport {
    let cases = fc.cases as usize;
    let workers = fc.threads.clamp(1, cases.max(1));
    let outcomes = accsat_egraph::pool::map_slots(workers, cases, |i| run_case(i as u64, fc));

    let mut flavors: BTreeMap<String, u64> = BTreeMap::new();
    let (mut passed, mut skipped) = (0u64, 0u64);
    let mut failures = Vec::new();
    for outcome in outcomes {
        *flavors.entry(outcome.flavor.to_string()).or_insert(0) += 1;
        if !outcome.findings.is_empty() {
            failures.push(outcome);
        } else if outcome.skipped.is_some() {
            skipped += 1;
        } else {
            passed += 1;
        }
    }
    FuzzReport {
        cases: fc.cases,
        seed: fc.seed,
        flavors: flavors.into_iter().collect(),
        passed,
        skipped,
        failures,
    }
}

impl FuzzReport {
    /// Human-readable summary: deterministic, no wall-clock content.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("fuzz: {} cases from seed {}\n", self.cases, self.seed));
        let fl =
            self.flavors.iter().map(|(n, c)| format!("{n} {c}")).collect::<Vec<_>>().join(", ");
        out.push_str(&format!("  flavors: {fl}\n"));
        out.push_str(
            "  oracles: interpreter differential (4 variants), claimed-vs-recomputed cost, \
             lower bound, selection walk, printer round-trip\n",
        );
        out.push_str(&format!(
            "  passed {}, skipped {}, failed {}\n",
            self.passed,
            self.skipped,
            self.failures.len()
        ));
        for c in &self.failures {
            for fd in &c.findings {
                out.push_str(&format!(
                    "  FAIL case {} seed {:#018x} flavor {} variant {} invariant {}: {}\n",
                    c.index, c.seed, c.flavor, fd.variant, fd.invariant, fd.detail
                ));
            }
            if let Some(m) = &c.minimized {
                out.push_str(&format!(
                    "       shrunk {} -> {} statements\n",
                    m.stmts_before, m.stmts_after
                ));
            }
        }
        out
    }

    /// Stable JSON: key order fixed, no wall-clock or thread-count fields,
    /// so reports from different thread counts diff empty.
    pub fn to_stable_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"cases\": {},\n", self.cases));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str("  \"flavors\": {");
        let fl = self
            .flavors
            .iter()
            .map(|(n, c)| format!("\"{}\": {c}", escape_json(n)))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&fl);
        out.push_str("},\n");
        out.push_str(&format!("  \"passed\": {},\n", self.passed));
        out.push_str(&format!("  \"skipped\": {},\n", self.skipped));
        out.push_str("  \"failures\": [\n");
        for (ci, c) in self.failures.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"index\": {},\n", c.index));
            out.push_str(&format!("      \"seed\": {},\n", c.seed));
            out.push_str(&format!("      \"flavor\": \"{}\",\n", escape_json(c.flavor)));
            out.push_str("      \"findings\": [\n");
            for (fi, fd) in c.findings.iter().enumerate() {
                out.push_str(&format!(
                    "        {{\"variant\": \"{}\", \"invariant\": \"{}\", \"detail\": \"{}\"}}{}\n",
                    escape_json(fd.variant),
                    escape_json(fd.invariant),
                    escape_json(&fd.detail),
                    if fi + 1 < c.findings.len() { "," } else { "" }
                ));
            }
            out.push_str("      ]");
            if let Some(m) = &c.minimized {
                out.push_str(&format!(
                    ",\n      \"shrunk\": {{\"before\": {}, \"after\": {}}}\n",
                    m.stmts_before, m.stmts_after
                ));
            } else {
                out.push('\n');
            }
            out.push_str(&format!(
                "    }}{}\n",
                if ci + 1 < self.failures.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write one `.sat` repro file per failing case into `dir` (created if
    /// missing): a `//`-comment header (the lexer skips comments) plus the
    /// minimized source when available, the generated source otherwise.
    /// Returns the written paths in case order.
    pub fn write_corpus(
        &self,
        dir: &std::path::Path,
        fc: &FuzzConfig,
    ) -> std::io::Result<Vec<std::path::PathBuf>> {
        if self.failures.is_empty() {
            return Ok(Vec::new());
        }
        std::fs::create_dir_all(dir)?;
        let mut paths = Vec::new();
        for c in &self.failures {
            let first = &c.findings[0];
            let mut body = String::new();
            body.push_str(&format!(
                "// accsat fuzz repro: campaign seed {}, case {} (case seed {:#018x})\n",
                self.seed, c.index, c.seed
            ));
            body.push_str(&format!("// flavor: {}\n", c.flavor));
            for fd in &c.findings {
                body.push_str(&format!(
                    "// failing invariant: {} [variant {}] {}\n",
                    fd.invariant, fd.variant, fd.detail
                ));
            }
            match &c.minimized {
                Some(m) => {
                    body.push_str(&format!(
                        "// minimized: {} -> {} statements\n",
                        m.stmts_before, m.stmts_after
                    ));
                    body.push_str(&m.source);
                }
                None => body.push_str(&generate_kernel(c.seed, &fc.gen).source),
            }
            let key: String = first
                .invariant
                .chars()
                .map(|ch| if ch.is_ascii_alphanumeric() { ch } else { '-' })
                .collect();
            let path = dir.join(format!("case-{:05}-{key}.sat", c.index));
            std::fs::write(&path, body)?;
            paths.push(path);
        }
        Ok(paths)
    }
}

// ---------------------------------------------------------------------
// Greedy AST minimizer
// ---------------------------------------------------------------------

/// Walk state: every candidate mutation site gets one index; the walk
/// applies the mutation whose index equals `target` and stops.
struct MutState {
    next: usize,
    target: usize,
    applied: bool,
}

impl MutState {
    fn counting() -> MutState {
        MutState { next: 0, target: usize::MAX, applied: false }
    }

    fn targeting(k: usize) -> MutState {
        MutState { next: 0, target: k, applied: false }
    }

    /// Claim the next site index; true exactly when it is the target.
    fn hit(&mut self) -> bool {
        let h = !self.applied && self.next == self.target;
        self.next += 1;
        if h {
            self.applied = true;
        }
        h
    }
}

/// Shape of a statement, peeked before mutation to keep borrows disjoint.
enum Peek {
    If { has_else: bool },
    PlainFor,
    NestedBlock,
    Other,
}

fn walk_block(b: &mut Block, st: &mut MutState) {
    let mut i = 0;
    while i < b.stmts.len() {
        // candidate: delete this statement outright — except the directive
        // loop, which *is* the kernel
        let deletable = !matches!(&b.stmts[i], Stmt::For(l) if l.directive.is_some());
        if deletable && st.hit() {
            b.stmts.remove(i);
            return;
        }
        let peek = match &b.stmts[i] {
            Stmt::If { els, .. } => Peek::If { has_else: els.is_some() },
            Stmt::For(l) if l.directive.is_none() => Peek::PlainFor,
            Stmt::Block(_) => Peek::NestedBlock,
            _ => Peek::Other,
        };
        match peek {
            Peek::If { has_else } => {
                if st.hit() {
                    // replace the `if` by its then-branch statements
                    if let Stmt::If { then, .. } = b.stmts.remove(i) {
                        splice_at(b, i, then.stmts);
                    }
                    return;
                }
                if has_else && st.hit() {
                    // replace the `if` by its else-branch statements
                    if let Stmt::If { els: Some(e), .. } = b.stmts.remove(i) {
                        splice_at(b, i, e.stmts);
                    }
                    return;
                }
                if has_else && st.hit() {
                    if let Stmt::If { els, .. } = &mut b.stmts[i] {
                        *els = None;
                    }
                    return;
                }
            }
            Peek::PlainFor => {
                if st.hit() {
                    // unwrap the loop: keep a single copy of its body
                    if let Stmt::For(l) = b.stmts.remove(i) {
                        splice_at(b, i, l.body.stmts);
                    }
                    return;
                }
            }
            Peek::NestedBlock => {
                if st.hit() {
                    // flatten the braces
                    if let Stmt::Block(inner) = b.stmts.remove(i) {
                        splice_at(b, i, inner.stmts);
                    }
                    return;
                }
            }
            Peek::Other => {}
        }
        // recurse into the statement's expressions and sub-blocks
        match &mut b.stmts[i] {
            Stmt::Decl { init: Some(e), .. } => walk_expr(e, st),
            Stmt::Assign { rhs, .. } => walk_expr(rhs, st),
            Stmt::Expr(e) => walk_expr(e, st),
            Stmt::If { cond, then, els } => {
                walk_expr(cond, st);
                if !st.applied {
                    walk_block(then, st);
                }
                if !st.applied {
                    if let Some(e) = els {
                        walk_block(e, st);
                    }
                }
            }
            // loop headers are left alone: mutating bounds turns a
            // terminating loop into a runaway one far more often than it
            // shrinks a repro
            Stmt::For(l) => walk_block(&mut l.body, st),
            Stmt::While { body, .. } => walk_block(body, st),
            _ => {}
        }
        if st.applied {
            return;
        }
        i += 1;
    }
}

fn splice_at(b: &mut Block, i: usize, stmts: Vec<Stmt>) {
    let tail = b.stmts.split_off(i);
    b.stmts.extend(stmts);
    b.stmts.extend(tail);
}

fn walk_expr(e: &mut Expr, st: &mut MutState) {
    // candidate replacements by a subterm (hoisting shrinks the tree)
    let replacement: Option<Expr> = match e {
        Expr::Binary { lhs, rhs, .. } => {
            if st.hit() {
                Some((**lhs).clone())
            } else if st.hit() {
                Some((**rhs).clone())
            } else {
                None
            }
        }
        Expr::Unary { operand, .. } => {
            if st.hit() {
                Some((**operand).clone())
            } else {
                None
            }
        }
        Expr::Ternary { then, els, .. } => {
            if st.hit() {
                Some((**then).clone())
            } else if st.hit() {
                Some((**els).clone())
            } else {
                None
            }
        }
        Expr::Call { args, .. } if !args.is_empty() => {
            if st.hit() {
                Some(args[0].clone())
            } else {
                None
            }
        }
        Expr::Cast { expr, .. } => {
            if st.hit() {
                Some((**expr).clone())
            } else {
                None
            }
        }
        _ => None,
    };
    if let Some(r) = replacement {
        *e = r;
        return;
    }
    match e {
        Expr::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, st);
            if !st.applied {
                walk_expr(rhs, st);
            }
        }
        Expr::Unary { operand, .. } => walk_expr(operand, st),
        Expr::Ternary { cond, then, els } => {
            walk_expr(cond, st);
            if !st.applied {
                walk_expr(then, st);
            }
            if !st.applied {
                walk_expr(els, st);
            }
        }
        Expr::Call { args, .. } => {
            for a in args {
                walk_expr(a, st);
                if st.applied {
                    return;
                }
            }
        }
        Expr::Cast { expr, .. } => walk_expr(expr, st),
        Expr::Index { indices, .. } => {
            for ix in indices {
                walk_expr(ix, st);
                if st.applied {
                    return;
                }
            }
        }
        _ => {}
    }
}

/// Greedily shrink `f` while `reproduces` stays true: statement deletion,
/// branch flattening, loop unwrapping, and subterm hoisting, restarting
/// from the front after every accepted edit. `max_attempts` bounds the
/// number of candidate evaluations. Returns the shrunk function and the
/// number of attempts spent.
pub fn minimize_function(
    f: &Function,
    reproduces: &dyn Fn(&Function) -> bool,
    max_attempts: usize,
) -> (Function, usize) {
    let mut cur = f.clone();
    let mut attempts = 0usize;
    'outer: loop {
        let total = {
            let mut st = MutState::counting();
            walk_block(&mut cur.body, &mut st);
            st.next
        };
        for k in 0..total {
            if attempts >= max_attempts {
                break 'outer;
            }
            let mut cand = cur.clone();
            let mut st = MutState::targeting(k);
            walk_block(&mut cand.body, &mut st);
            if !st.applied {
                continue;
            }
            attempts += 1;
            if reproduces(&cand) {
                cur = cand;
                continue 'outer;
            }
        }
        break;
    }
    (cur, attempts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(cases: u64, seed: u64, threads: usize) -> FuzzConfig {
        FuzzConfig { cases, seed, threads, ..FuzzConfig::default() }
    }

    #[test]
    fn case_seed_is_pure_and_spreads() {
        assert_eq!(case_seed(7, 3), case_seed(7, 3));
        let seeds: std::collections::HashSet<u64> = (0..64).map(|i| case_seed(7, i)).collect();
        assert_eq!(seeds.len(), 64);
    }

    #[test]
    fn small_campaign_passes_and_is_thread_invariant() {
        let r1 = run_campaign(&tiny_config(12, 0xFA22, 1));
        let r8 = run_campaign(&tiny_config(12, 0xFA22, 8));
        assert_eq!(r1.render_summary(), r8.render_summary());
        assert_eq!(r1.to_stable_json(), r8.to_stable_json());
        assert_eq!(r1.passed + r1.skipped + r1.failures.len() as u64, 12);
        assert!(r1.failures.is_empty(), "{}", r1.render_summary());
    }

    #[test]
    fn minimizer_shrinks_while_predicate_holds() {
        // synthetic bug: "the kernel still contains a division" — the
        // minimizer must keep a division while deleting everything else
        let src = r#"
void fz(double a[8], double out[8], double c0) {
  #pragma acc parallel loop gang vector
  for (int i = 1; i < 7; i++) {
    double v1 = a[i] + c0;
    out[i] = a[i - 1] * 2.0;
    if (a[i] < c0) {
      out[i] = v1 + a[i + 1];
    }
    out[i] += a[i] / (c0 + 0.5);
  }
}
"#;
        let f = parse_program(src).unwrap().functions.remove(0);
        fn has_div(e: &Expr) -> bool {
            match e {
                Expr::Binary { op, lhs, rhs } => {
                    *op == accsat_ir::BinOp::Div || has_div(lhs) || has_div(rhs)
                }
                Expr::Unary { operand, .. } => has_div(operand),
                Expr::Ternary { cond, then, els } => has_div(cond) || has_div(then) || has_div(els),
                Expr::Call { args, .. } => args.iter().any(has_div),
                Expr::Cast { expr, .. } => has_div(expr),
                Expr::Index { indices, .. } => indices.iter().any(has_div),
                _ => false,
            }
        }
        fn block_has_div(b: &Block) -> bool {
            b.stmts.iter().any(|s| match s {
                Stmt::Decl { init: Some(e), .. } => has_div(e),
                Stmt::Assign { rhs, .. } => has_div(rhs),
                Stmt::If { cond, then, els } => {
                    has_div(cond) || block_has_div(then) || els.as_ref().is_some_and(block_has_div)
                }
                Stmt::For(l) => block_has_div(&l.body),
                Stmt::While { body, .. } => block_has_div(body),
                Stmt::Block(b) => block_has_div(b),
                Stmt::Expr(e) => has_div(e),
                _ => false,
            })
        }
        let pred = |cand: &Function| block_has_div(&cand.body);
        assert!(pred(&f));
        let before = f.body.stmt_count();
        let (shrunk, attempts) = minimize_function(&f, &pred, 500);
        assert!(pred(&shrunk), "shrunk repro must still fail the same predicate");
        assert!(attempts > 0);
        assert!(
            shrunk.body.stmt_count() < before,
            "minimizer should delete the unrelated statements: {} vs {}",
            shrunk.body.stmt_count(),
            before
        );
        // the shrunk kernel is just the loop plus the dividing statement
        assert!(shrunk.body.stmt_count() <= 2, "{:#?}", shrunk.body);
    }

    #[test]
    fn corpus_files_are_reparseable() {
        // force a "failure" artificially by writing a corpus from a report
        // with a fabricated failing case
        let fc = tiny_config(1, 3, 1);
        let gk = generate_kernel(case_seed(3, 0), &fc.gen);
        let report = FuzzReport {
            cases: 1,
            seed: 3,
            flavors: vec![(gk.flavor.to_string(), 1)],
            passed: 0,
            skipped: 0,
            failures: vec![CaseOutcome {
                index: 0,
                seed: gk.seed,
                flavor: gk.flavor,
                skipped: None,
                findings: vec![Finding {
                    variant: "ACCSAT",
                    invariant: "differential",
                    detail: "synthetic".into(),
                }],
                minimized: None,
            }],
        };
        let dir = std::env::temp_dir().join(format!("accsat-fuzz-corpus-{}", std::process::id()));
        let paths = report.write_corpus(&dir, &fc).unwrap();
        assert_eq!(paths.len(), 1);
        let text = std::fs::read_to_string(&paths[0]).unwrap();
        assert!(text.starts_with("// accsat fuzz repro"));
        // comment headers are skipped by the lexer: the repro reparses
        assert!(parse_program(&text).is_ok(), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
