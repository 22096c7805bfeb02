//! The five workloads. Each is set up from `--seed`, then asked for timed
//! passes through the program's façade, traced passes through the stage
//! replay, and an untimed verification of what the passes produced.
//!
//! All load comes from one process with at most two threads runnable: the
//! kernels are driven one after another under `SaturatorConfig::default()`
//! (extraction portfolio of width 2, one saturation thread), `serve_edit`
//! runs `ServeConfig { threads: 2 }` against one closed-loop client.

use crate::host;
use crate::inputs::{self, Source};
use crate::json::Json;
use crate::replay::{self, Counts, KernelOutcome, SourceOutcome, VARIANT};
use crate::spans::Recorder;
use crate::verify::{self, Report};
use accsat::benchmarks::{all_benchmarks, Benchmark, GenConfig, GeneratedKernel};
use accsat::cache::{CacheLevel, StageCache};
use accsat::egraph::{EGraph, ThreadBudget};
use accsat::ir::{fnv1a, fnv1a_mix, innermost_parallel_loops, parse_program};
use accsat::{run_session, sat_stage_key, sel_stage_key, SaturatorConfig, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Every workload [`setup`] knows, in run order. `BENCHMARK.json` carries
/// the same list; a test keeps the two equal.
#[cfg(test)]
pub const WORKLOADS: [&str; 5] =
    ["suite_cold", "sat_stage", "suite_warm", "gen_fill", "serve_edit"];

/// Generated kernels per `sat_stage` pass (medium: ten statements, depth
/// six — large enough that most runs hit the iteration or node limit).
const SAT_STAGE_KERNELS: usize = 200;
/// Generated kernels per `gen_fill` pass (tiny: two statements, depth two).
const GEN_FILL_KERNELS: usize = 1000;
/// Generated kernels in the `serve_edit` pool, beside the 14 suite sources.
const SERVE_POOL_KERNELS: usize = 256;
/// First-seen kernels per `serve_edit` session: a tenth of the requests.
const SERVE_NEW_KERNELS: usize = 60;

/// One measured pass.
#[derive(Debug, Default)]
pub struct PassOut {
    pub wall_s: f64,
    /// CPU time of the pass, quantized to 10 ms ticks: only sums over a
    /// whole phase are meaningful.
    pub cpu_s: f64,
    /// Latency of every request: one source through the workload's entry
    /// point, or one serve request from send to full response line.
    pub latencies_ms: Vec<f64>,
    /// Operations attempted and failed: kernel compiles or serve requests.
    pub ops: u64,
    pub failed: u64,
    /// Hash of everything the pass produced; equal on every pass.
    pub digest: u64,
    /// Per-layer times only this workload has (traced passes).
    pub extras: Vec<(&'static str, f64)>,
}

pub trait Workload {
    /// One timed pass through the façade.
    fn pass(&mut self) -> PassOut;
    /// The same pass through the stage replay, spans recorded; fails an
    /// operation wherever the replay and the last façade pass disagree.
    fn traced(&mut self, rec: &mut Recorder, counts: &mut Counts) -> PassOut;
    /// Untimed: check the last pass's outputs and score them.
    fn verify(&self, report: &mut Report);
    /// The sources one pass submits, in order.
    fn sources(&self) -> &[Source];
    /// Files and bytes the workload's cache directory holds after a pass.
    fn disk_usage(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Set up a workload from the seed. Everything the first timed pass needs
/// happens here: input generation, rule compilation, cache pre-fill.
pub fn setup(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "suite_cold" => Box::new(SuiteCold::new(seed)),
        "sat_stage" => Box::new(SatStage::new(seed)),
        "suite_warm" => Box::new(SuiteWarm::new(seed)),
        "gen_fill" => Box::new(GenFill::new(seed)),
        "serve_edit" => Box::new(ServeEdit::new(seed)),
        _ => return None,
    })
}

struct Timer {
    wall: Instant,
    cpu: f64,
}

impl Timer {
    fn start() -> Timer {
        Timer { cpu: host::cpu_seconds(), wall: Instant::now() }
    }

    fn stop(self, out: &mut PassOut) {
        out.wall_s = self.wall.elapsed().as_secs_f64();
        out.cpu_s = host::cpu_seconds() - self.cpu;
    }
}

fn digest_outcome(digest: u64, o: &SourceOutcome) -> u64 {
    let d = fnv1a_mix(digest, fnv1a(o.text.as_bytes()));
    o.kernels.iter().fold(d, |d, k| fnv1a_mix(fnv1a_mix(d, k.cost), k.explored))
}

/// Drive `sources` through `run` one after another, timing each request.
/// `open` builds the pass's configuration inside the timed region (a
/// cache opened per pass is part of the pass).
fn drive(
    sources: &[Source],
    open: impl FnOnce() -> SaturatorConfig,
    mut run: impl FnMut(&Source, &SaturatorConfig) -> Result<SourceOutcome, String>,
) -> (PassOut, Vec<SourceOutcome>, SaturatorConfig) {
    let mut out = PassOut::default();
    let mut outcomes = Vec::with_capacity(sources.len());
    let timer = Timer::start();
    let cfg = open();
    for s in sources {
        let t = Instant::now();
        let result = run(s, &cfg);
        out.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok(o) => {
                out.ops += o.kernels.len() as u64;
                out.digest = digest_outcome(out.digest, &o);
                outcomes.push(o);
            }
            Err(e) => {
                eprintln!("FAILED {}: {e}", s.name);
                out.ops += 1;
                out.failed += 1;
                outcomes.push(SourceOutcome { text: String::new(), kernels: Vec::new() });
            }
        }
    }
    timer.stop(&mut out);
    (out, outcomes, cfg)
}

fn facade_pass(
    sources: &[Source],
    open: impl FnOnce() -> SaturatorConfig,
) -> (PassOut, Vec<SourceOutcome>) {
    let (out, outcomes, _) = drive(sources, open, |s, cfg| replay::facade(&s.text, cfg));
    (out, outcomes)
}

/// The replayed pass; every source whose replay differs from `reference`
/// (the façade's outcome from the same cache state) is a failed operation.
/// The pass's cache counters join the layer counts.
fn replay_pass(
    sources: &[Source],
    open: impl FnOnce() -> SaturatorConfig,
    reference: &[SourceOutcome],
    rec: &mut Recorder,
    counts: &mut Counts,
) -> PassOut {
    assert_eq!(reference.len(), sources.len(), "a façade pass precedes every traced pass");
    let mut op = 0;
    let (mut out, outcomes, cfg) = drive(sources, open, |s, cfg| {
        rec.set_op(op);
        op += 1;
        replay::source(&s.text, cfg, rec, counts)
    });
    if let Some(cache) = &cfg.cache {
        let st = cache.stats();
        counts.add("cache.hits_parsed", st.parsed_hits);
        counts.add("cache.hits_sat", st.sat_hits);
        counts.add("cache.hits_sel", st.sel_hits);
        counts.add("cache.misses_parsed", st.parsed_misses);
        counts.add("cache.misses_sat", st.sat_misses);
        counts.add("cache.misses_sel", st.sel_misses);
        counts.add("cache.evictions", st.evictions);
    }
    for ((s, got), want) in sources.iter().zip(&outcomes).zip(reference) {
        if got != want {
            eprintln!("FAILED {}: the stage replay differs from optimize_source", s.name);
            out.failed += 1;
        }
    }
    out
}

/// A scratch directory under `perf/out`, removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(label: &str) -> ScratchDir {
        let dir = host::out_dir().join(format!("cache-{label}-{}", std::process::id()));
        // a killed run of the same process id may have left one behind
        match std::fs::remove_dir_all(&dir) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => panic!("remove {}: {e}", dir.display()),
        }
        ScratchDir(dir)
    }

    /// Every regular file below the directory, with its size.
    fn files(&self) -> Vec<(PathBuf, u64)> {
        fn walk(dir: &Path, out: &mut Vec<(PathBuf, u64)>) {
            for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
                match entry.metadata() {
                    Ok(m) if m.is_dir() => walk(&entry.path(), out),
                    Ok(m) => out.push((entry.path(), m.len())),
                    Err(_) => {}
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.0, &mut out);
        out
    }

    fn usage(&self) -> (u64, u64) {
        let files = self.files();
        (files.len() as u64, files.iter().map(|f| f.1).sum())
    }

    /// Write the directory's files back to disk now, so the kernel's
    /// write-back of a fresh fill does not overlap the passes that read
    /// it. A resumed `--cache-dir` is normally long written.
    fn settle(&self) {
        for (path, _) in self.files() {
            if let Ok(f) = std::fs::File::open(&path) {
                let _ = f.sync_all();
            }
        }
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn with_disk_cache(dir: &Path) -> SaturatorConfig {
    let cache = StageCache::with_dir(dir).expect("open cache directory");
    SaturatorConfig { cache: Some(Arc::new(cache)), ..SaturatorConfig::default() }
}

// ---------------------------------------------------------------------
// suite_cold: the evaluation suite, no cache
// ---------------------------------------------------------------------

struct SuiteCold {
    seed: u64,
    suite: Vec<Benchmark>,
    sources: Vec<Source>,
    cfg: SaturatorConfig,
    last: Vec<SourceOutcome>,
}

impl SuiteCold {
    fn new(seed: u64) -> SuiteCold {
        let suite = all_benchmarks();
        let sources = inputs::suite_sources(&suite);
        SuiteCold { seed, suite, sources, cfg: SaturatorConfig::default(), last: Vec::new() }
    }
}

impl Workload for SuiteCold {
    fn sources(&self) -> &[Source] {
        &self.sources
    }

    fn pass(&mut self) -> PassOut {
        let (out, outcomes) = facade_pass(&self.sources, || self.cfg.clone());
        self.last = outcomes;
        out
    }

    fn traced(&mut self, rec: &mut Recorder, counts: &mut Counts) -> PassOut {
        replay_pass(&self.sources, || self.cfg.clone(), &self.last, rec, counts)
    }

    fn verify(&self, report: &mut Report) {
        verify::suite(report, &self.suite, &self.last, self.seed);
    }
}

// ---------------------------------------------------------------------
// suite_warm: the same sources resumed from a filled --cache-dir
// ---------------------------------------------------------------------

struct SuiteWarm {
    seed: u64,
    suite: Vec<Benchmark>,
    sources: Vec<Source>,
    dir: ScratchDir,
    /// What the cold, cache-filling pass of set-up produced.
    cold: Vec<SourceOutcome>,
    last: Vec<SourceOutcome>,
}

impl SuiteWarm {
    fn new(seed: u64) -> SuiteWarm {
        let suite = all_benchmarks();
        let sources = inputs::suite_sources(&suite);
        let dir = ScratchDir::new("suite_warm");
        let (fill, cold) = facade_pass(&sources, || with_disk_cache(&dir.0));
        assert_eq!(fill.failed, 0, "the cache-filling pass failed");
        dir.settle();
        SuiteWarm { seed, suite, sources, dir, cold, last: Vec::new() }
    }
}

impl Workload for SuiteWarm {
    fn sources(&self) -> &[Source] {
        &self.sources
    }

    fn pass(&mut self) -> PassOut {
        // a fresh cache object over the filled directory: the
        // `batch --cache-dir` resume, every entry read from disk
        let (out, outcomes) = facade_pass(&self.sources, || with_disk_cache(&self.dir.0));
        self.last = outcomes;
        out
    }

    fn traced(&mut self, rec: &mut Recorder, counts: &mut Counts) -> PassOut {
        replay_pass(&self.sources, || with_disk_cache(&self.dir.0), &self.last, rec, counts)
    }

    fn verify(&self, report: &mut Report) {
        for ((s, warm), cold) in self.sources.iter().zip(&self.last).zip(&self.cold) {
            // the cold pass's outcome, had every kernel been a `selected` hit
            let hit =
                |c: &KernelOutcome| KernelOutcome { level: CacheLevel::Selected, ..c.clone() };
            let expected: Vec<KernelOutcome> = cold.kernels.iter().map(hit).collect();
            let same = warm.text == cold.text && warm.kernels == expected;
            report.check(same, || format!("{}: warm result differs from the cold one", s.name));
        }
        verify::suite(report, &self.suite, &self.last, self.seed);
    }

    fn disk_usage(&self) -> (u64, u64) {
        self.dir.usage()
    }
}

// ---------------------------------------------------------------------
// gen_fill: many tiny kernels into an empty cache
// ---------------------------------------------------------------------

/// The fill goes to a fresh **in-memory** cache each pass. Filling a
/// `--cache-dir` was measured with this harness and is not a timed
/// workload: the same 1000 kernels took 1.8 s a pass, then 2.4 s, then
/// 4.8 s within two hours, `cpu_s` within a tenth of `wall_s` throughout
/// — kernel time in the host's ext4 block allocator, which depends on the
/// file system's history, not on the program (quartile spread over ten
/// runs: 22 %). README.md has the numbers.
struct GenFill {
    seed: u64,
    kernels: Vec<GeneratedKernel>,
    sources: Vec<Source>,
    last: Vec<SourceOutcome>,
}

fn with_fresh_memory_cache() -> SaturatorConfig {
    SaturatorConfig { cache: Some(Arc::new(StageCache::in_memory())), ..SaturatorConfig::default() }
}

impl GenFill {
    fn new(seed: u64) -> GenFill {
        let cfg = GenConfig { max_stmts: 2, max_depth: 2 };
        let mut kernels = inputs::pool_kernels("gen_fill", &cfg, GEN_FILL_KERNELS);
        inputs::shuffle(&mut kernels, &mut inputs::stream(seed, "gen_fill-order"));
        let sources = inputs::kernel_sources("fill", &kernels);
        GenFill { seed, kernels, sources, last: Vec::new() }
    }
}

impl Workload for GenFill {
    fn sources(&self) -> &[Source] {
        &self.sources
    }

    fn pass(&mut self) -> PassOut {
        let (out, outcomes) = facade_pass(&self.sources, with_fresh_memory_cache);
        self.last = outcomes;
        out
    }

    fn traced(&mut self, rec: &mut Recorder, counts: &mut Counts) -> PassOut {
        replay_pass(&self.sources, with_fresh_memory_cache, &self.last, rec, counts)
    }

    fn verify(&self, report: &mut Report) {
        let mut rng = inputs::stream(self.seed, "gen_fill-env");
        for (k, out) in self.kernels.iter().zip(&self.last) {
            verify::generated(report, k, &out.text, &mut rng);
            verify::fuzz_oracles(report, k, &mut rng);
        }
        verify::static_cost(report, &self.last);
    }
}

// ---------------------------------------------------------------------
// sat_stage: parse → SSA → saturate → snapshot, no extraction
// ---------------------------------------------------------------------

struct SatStage {
    seed: u64,
    /// The 14 suite sources and the generated kernels, in seeded order.
    sources: Vec<Source>,
    /// For each source, the generated kernel it came from (`None` for a
    /// suite source).
    generated: Vec<Option<GeneratedKernel>>,
    cfg: SaturatorConfig,
}

/// Exactly the work of a `saturated`-level cache fill for one source.
/// Returns the kernel count and a digest of the snapshots' sizes (hashing
/// their bytes would cost a fifth of the stage it times; `verify` compares
/// the bytes).
fn sat_stage_source(
    src: &str,
    cfg: &SaturatorConfig,
    rec: &mut Recorder,
    counts: &mut Counts,
) -> Result<(u64, u64), String> {
    rec.span("pipeline.source", |rec| {
        counts.add("ir.src_bytes", src.len() as u64);
        let prog = rec.leaf("ir.parse", || parse_program(src)).map_err(|e| e.to_string())?;
        counts.add("ir.functions", prog.functions.len() as u64);
        let (mut kernels, mut digest) = (0, 0);
        for l in prog.functions.iter().flat_map(innermost_parallel_loops) {
            let (kernel, _) = replay::saturate(&l.body, cfg, rec, counts);
            let text = replay::snapshot(&kernel.egraph, rec, counts);
            digest =
                fnv1a_mix(fnv1a_mix(digest, text.len() as u64), kernel.egraph.total_nodes() as u64);
            kernels += 1;
        }
        Ok((kernels, digest))
    })
}

impl SatStage {
    fn new(seed: u64) -> SatStage {
        let cfg = GenConfig { max_stmts: 10, max_depth: 6 };
        let kernels = inputs::pool_kernels("sat_stage", &cfg, SAT_STAGE_KERNELS);
        let mut all: Vec<(Source, Option<GeneratedKernel>)> =
            inputs::suite_sources(&all_benchmarks()).into_iter().map(|s| (s, None)).collect();
        all.extend(
            inputs::kernel_sources("sat", &kernels).into_iter().zip(kernels.into_iter().map(Some)),
        );
        inputs::shuffle(&mut all, &mut inputs::stream(seed, "sat_stage-order"));
        let (sources, generated) = all.into_iter().unzip();
        SatStage { seed, sources, generated, cfg: SaturatorConfig::default() }
    }

    fn run(&self, rec: &mut Recorder, counts: &mut Counts) -> PassOut {
        let mut out = PassOut::default();
        let timer = Timer::start();
        for (op, s) in self.sources.iter().enumerate() {
            rec.set_op(op as u32);
            let t = Instant::now();
            let result = sat_stage_source(&s.text, &self.cfg, rec, counts);
            out.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            match result {
                Ok((kernels, digest)) => {
                    out.ops += kernels;
                    out.digest = fnv1a_mix(out.digest, digest);
                }
                Err(e) => {
                    eprintln!("FAILED {}: {e}", s.name);
                    out.ops += 1;
                    out.failed += 1;
                }
            }
        }
        timer.stop(&mut out);
        out
    }
}

impl Workload for SatStage {
    fn sources(&self) -> &[Source] {
        &self.sources
    }

    fn pass(&mut self) -> PassOut {
        // there is no façade for a bare stage: the timed pass is the same
        // sequence of public calls, with the recorder switched off
        self.run(&mut Recorder::disabled(), &mut Counts::default())
    }

    fn traced(&mut self, rec: &mut Recorder, counts: &mut Counts) -> PassOut {
        self.run(rec, counts)
    }

    /// A saturated e-graph is correct when every term it holds for a root
    /// computes the root's value, so any extraction from it must pass the
    /// interpreter differential: the cheap greedy one is used. Snapshots
    /// must restore to an equal e-graph and repeat byte for byte.
    fn verify(&self, report: &mut Report) {
        use accsat::codegen::{generate, CodegenOptions, TypeMap};
        use accsat::ir::{innermost_parallel_loops_mut, print_program, Program};
        let (mut rec, mut counts) = (Recorder::disabled(), Counts::default());
        let mut rng = inputs::stream(self.seed, "sat_stage-env");
        for (s, generated) in self.sources.iter().zip(&self.generated) {
            let prog = parse_program(&s.text).expect("parsed in every pass");
            let mut functions = Vec::new();
            for f in &prog.functions {
                let tm = TypeMap::from_function(f);
                let mut out = f.clone();
                for l in innermost_parallel_loops_mut(&mut out) {
                    let (kernel, _) = replay::saturate(&l.body, &self.cfg, &mut rec, &mut counts);
                    let (again, _) = replay::saturate(&l.body, &self.cfg, &mut rec, &mut counts);
                    let text = kernel.egraph.serialize();
                    let restored = EGraph::deserialize(&text);
                    let faithful = text == again.egraph.serialize()
                        && restored.is_ok_and(|eg| eg.state_eq(&kernel.egraph));
                    report.check(faithful, || format!("{}: snapshot does not repeat", s.name));
                    let roots = kernel.extraction_roots();
                    let sel = accsat::extract::extract_greedy(
                        &kernel.egraph,
                        &roots,
                        &self.cfg.cost_model,
                    );
                    let opts = CodegenOptions { bulk_load: VARIANT.bulk_loads() };
                    l.body = generate(&kernel, &sel, &tm, &opts);
                }
                functions.push(out);
            }
            // the suite's (large) inputs are interpreted by `suite_cold`
            if let Some(k) = generated {
                let text = print_program(&Program { functions });
                verify::generated(report, k, &text, &mut rng);
            }
        }
    }
}

// ---------------------------------------------------------------------
// serve_edit: the daemon as an editor or build loop sees it
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Byte-identical resubmit of a pool source.
    Same,
    /// Comment/whitespace edit of a pool source: the parse level misses,
    /// the IR fingerprint still hits `selected`.
    Edited,
    /// A kernel the cache has never seen: miss and in-memory fill.
    New,
}

struct Request {
    kind: Kind,
    /// Index into the pool (`Same`, `Edited`) or the new kernels (`New`).
    index: usize,
    /// Protocol bytes: header line and payload.
    wire: Vec<u8>,
}

struct ServeEdit {
    seed: u64,
    suite_len: usize,
    pool_kernels: Vec<GeneratedKernel>,
    new_kernels: Vec<GeneratedKernel>,
    /// The warmed cache every session starts from a copy of, and what
    /// warming it produced: direct `optimize_source` results for the 14
    /// suite sources, then the generated pool kernels.
    template: StageCache,
    pool_outcomes: Vec<SourceOutcome>,
    /// Parsed-level and stage-level keys of the pool, in fill order.
    pool_keys: Vec<(u64, Vec<(u64, u64)>)>,
    /// One session: what each request is, and the source it carries.
    script: Vec<Request>,
    requests: Vec<Source>,
    /// Response lines and wall time of the last session.
    last: Vec<String>,
    last_wall_s: f64,
    last_digest: u64,
}

impl ServeEdit {
    fn new(seed: u64) -> ServeEdit {
        let suite = all_benchmarks();
        let mut rng = inputs::stream(seed, "serve_edit");
        let tiny = GenConfig { max_stmts: 2, max_depth: 2 };
        let pool_kernels = inputs::pool_kernels("serve_edit-pool", &tiny, SERVE_POOL_KERNELS);
        let new_kernels = inputs::pool_kernels("serve_edit-new", &tiny, SERVE_NEW_KERNELS);
        let mut pool = inputs::suite_sources(&suite);
        pool.extend(inputs::kernel_sources("pool", &pool_kernels));

        // every pool source submitted once: the daemon's warm state
        let cfg = with_fresh_memory_cache();
        let (fill, pool_outcomes) = facade_pass(&pool, || cfg.clone());
        assert_eq!(fill.failed, 0, "warming the serve cache failed");
        let pool_keys = pool
            .iter()
            .map(|s| {
                let prog = parse_program(&s.text).expect("pool sources parse");
                let keys = prog
                    .functions
                    .iter()
                    .flat_map(innermost_parallel_loops)
                    .map(|l| {
                        (
                            sat_stage_key(&l.body, VARIANT, &cfg),
                            sel_stage_key(&l.body, VARIANT, &cfg),
                        )
                    })
                    .collect();
                (fnv1a(s.text.as_bytes()), keys)
            })
            .collect();
        let template = Arc::into_inner(cfg.cache.expect("set above")).expect("sole owner");

        // one session: every pool source once unchanged and once edited,
        // plus the new kernels — 45 % / 45 % / 10 % — in seeded order
        let mut script = Vec::new();
        for (index, s) in pool.iter().enumerate() {
            script.push((Kind::Same, index, s.text.clone()));
            script.push((Kind::Edited, index, inputs::comment_edit(&s.text, &mut rng)));
        }
        for (index, k) in new_kernels.iter().enumerate() {
            script.push((Kind::New, index, k.source.clone()));
        }
        inputs::shuffle(&mut script, &mut rng);
        let (script, requests) = script
            .into_iter()
            .enumerate()
            .map(|(i, (kind, index, text))| {
                let name = format!("r{i}");
                let mut wire = format!("optimize id={name} variant=accsat bytes={}\n", text.len())
                    .into_bytes();
                wire.extend_from_slice(text.as_bytes());
                (Request { kind, index, wire }, Source { name, text })
            })
            .unzip();
        ServeEdit {
            seed,
            suite_len: suite.len(),
            pool_kernels,
            new_kernels,
            template,
            pool_outcomes,
            pool_keys,
            script,
            requests,
            last: Vec::new(),
            last_wall_s: 0.0,
            last_digest: 0,
        }
    }

    /// A fresh in-memory cache holding exactly the warmed pool, so every
    /// session (and every replay of it) starts from the same state and the
    /// new kernels are new each time. Untimed.
    fn warmed_cache(&self) -> Arc<StageCache> {
        let fresh = StageCache::in_memory();
        for (src_hash, keys) in &self.pool_keys {
            if let Some(p) = self.template.get_parsed(*src_hash) {
                fresh.put_parsed(*src_hash, p);
            }
            for &(sat_key, sel_key) in keys {
                if let Some(e) = self.template.get_sat(sat_key) {
                    fresh.put_sat(sat_key, &e);
                }
                if let Some(e) = self.template.get_sel(sel_key) {
                    fresh.put_sel(sel_key, &e);
                }
            }
        }
        Arc::new(fresh)
    }

    /// The pipeline configuration `run_session` derives for its workers:
    /// the shared cache and an empty thread budget.
    fn direct_config(&self) -> SaturatorConfig {
        SaturatorConfig {
            cache: Some(self.warmed_cache()),
            thread_budget: Some(Arc::new(ThreadBudget::new(0))),
            ..SaturatorConfig::default()
        }
    }

    /// The optimized text every response must carry: the warm-up's direct
    /// `optimize_source` result for pool sources (an edit changes no IR),
    /// a direct uncached call for new kernels.
    fn expected(&self) -> Vec<String> {
        let cfg = SaturatorConfig::default();
        let new: Vec<String> = self
            .new_kernels
            .iter()
            .map(|k| replay::facade(&k.source, &cfg).map(|o| o.text).unwrap_or_default())
            .collect();
        self.script
            .iter()
            .map(|r| match r.kind {
                Kind::Same | Kind::Edited => self.pool_outcomes[r.index].text.clone(),
                Kind::New => new[r.index].clone(),
            })
            .collect()
    }
}

impl Workload for ServeEdit {
    fn sources(&self) -> &[Source] {
        &self.requests
    }

    /// One session over in-process pipes: one client, one outstanding
    /// request, latency from first byte sent to full response line read.
    fn pass(&mut self) -> PassOut {
        let config = ServeConfig {
            threads: 2,
            saturator: SaturatorConfig {
                cache: Some(self.warmed_cache()),
                ..SaturatorConfig::default()
            },
        };
        let mut out = PassOut::default();
        let mut lines = Vec::with_capacity(self.script.len());
        let timer = Timer::start();
        let (req_rx, mut req_tx) = std::io::pipe().expect("request pipe");
        let (resp_rx, resp_tx) = std::io::pipe().expect("response pipe");
        std::thread::scope(|scope| {
            let server = scope.spawn(|| run_session(BufReader::new(req_rx), resp_tx, &config));
            let mut responses = BufReader::new(resp_rx);
            for r in &self.script {
                let t = Instant::now();
                let mut line = String::new();
                let sent = req_tx.write_all(&r.wire).and_then(|()| responses.read_line(&mut line));
                out.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if sent.is_err() {
                    line.clear();
                }
                lines.push(line);
            }
            let _ = req_tx.write_all(b"quit\n");
            drop(req_tx);
            let ended = server.join().expect("serve session must not panic");
            if let Err(e) = ended {
                eprintln!("FAILED session: {e}");
                out.failed += 1;
            }
        });
        timer.stop(&mut out);
        out.ops = lines.len() as u64;
        for (i, line) in lines.iter().enumerate() {
            // a missing or `error` reply is a failed request; the bodies
            // are compared in `verify`
            if !line.contains("\"status\":\"ok\"") {
                eprintln!("FAILED r{i}: {}", line.trim_end());
                out.failed += 1;
            }
            out.digest = fnv1a_mix(out.digest, fnv1a(line.as_bytes()));
        }
        self.last = lines;
        self.last_wall_s = out.wall_s;
        self.last_digest = out.digest;
        out
    }

    /// Two replays of the session's requests on identically warmed
    /// caches: straight through `optimize_source` (what the session cost
    /// beyond that is `serve.overhead_s`), then through the stage replay.
    fn traced(&mut self, rec: &mut Recorder, counts: &mut Counts) -> PassOut {
        let sources = &self.requests;
        let (direct, outcomes) = facade_pass(sources, || self.direct_config());
        let mut out = replay_pass(sources, || self.direct_config(), &outcomes, rec, counts);
        out.failed += direct.failed;
        // the replay yields outcomes, the session response lines: each
        // body is compared below, so the session's digest stands
        out.digest = self.last_digest;
        out.extras.push(("serve.overhead_s", self.last_wall_s - direct.wall_s));
        counts.add("serve.requests", sources.len() as u64);
        for (line, o) in self.last.iter().zip(&outcomes) {
            counts.add("serve.resp_bytes", line.len() as u64);
            for (label, name) in [
                ("miss", "serve.level_miss"),
                ("parsed", "serve.level_parsed"),
                ("selected", "serve.level_selected"),
            ] {
                counts.add(name, u64::from(line.contains(&format!("\"cache\":\"{label}\""))));
            }
            if !line.contains(&Json::str(&o.text).render()) {
                eprintln!("FAILED: a response body differs from optimize_source");
                out.failed += 1;
            }
        }
        out
    }

    fn verify(&self, report: &mut Report) {
        let expected = self.expected();
        for ((r, line), want) in self.script.iter().zip(&self.last).zip(&expected) {
            let reply = Json::parse(line.trim_end()).unwrap_or(Json::Null);
            let body = reply.get("source").and_then(Json::as_str);
            let level = reply.get("cache").and_then(Json::as_str);
            let want_level = if r.kind == Kind::New { "miss" } else { "selected" };
            report.check(body == Some(want.as_str()) && level == Some(want_level), || {
                format!(
                    "{:?} request of source {}: body or cache level {level:?} wrong",
                    r.kind, r.index
                )
            });
        }
        // the bodies are the pool's and the new kernels' outputs: check
        // each distinct generated one against the interpreter (the suite's
        // 14, equal to direct `optimize_source` results above, are
        // interpreted by `suite_cold`)
        let mut rng = inputs::stream(self.seed, "serve_edit-env");
        let suite_len = self.suite_len;
        let new_texts = self.script.iter().zip(&expected).filter(|(r, _)| r.kind == Kind::New);
        let pool =
            self.pool_kernels.iter().zip(self.pool_outcomes[suite_len..].iter().map(|o| &o.text));
        let new = new_texts.map(|(r, text)| (&self.new_kernels[r.index], text));
        for (k, text) in pool.chain(new) {
            verify::generated(report, k, text, &mut rng);
            verify::fuzz_oracles(report, k, &mut rng);
        }
    }
}
