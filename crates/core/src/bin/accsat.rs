//! `accsat` — the command-line tool of the paper (§III): "a convenient
//! command-line tool that wraps normal C-compiler invocation and replaces
//! the original inputs with saturated codes".
//!
//! Without a real compiler to wrap, this binary reads an OpenACC/OpenMP C
//! source, optimizes every kernel, and writes the saturated C — the part of
//! `% accsat nvc …` that ACC Saturator itself performs.
//!
//! Usage:
//! ```text
//! accsat [--variant cse|cse+sat|cse+bulk|accsat] [--sat-threads N]
//!        [--metrics OUT.txt] [--trace-out OUT.json] [-o OUT.c] INPUT.c
//! accsat --stats INPUT.c            # print per-kernel optimizer stats
//! accsat batch [--suite npb|spec|all] [--threads N] [--sat-threads N]
//!              [--variant V] [--deadline-ms D] [--extract-budget NODES]
//!              [--json OUT.json] [--shard I/N] [--tune]
//!              [--metrics OUT.txt] [--trace-out OUT.json]
//!              # full pipeline over a whole benchmark suite, in parallel
//! accsat tune  [--suite npb|spec|all] [--threads N] [--sat-threads N]
//!              [--device pcie|sxm] [--compiler nvhpc|gcc] [--sweep H1,H2,…]
//!              [--keep K] [--shard I/N] [--json OUT.json]
//!              # simulation-guided autotuning: pick each kernel's code by
//!              # simulated cycles over a harvested candidate set; output
//!              # is byte-identical at any thread count
//! accsat fuzz  [--cases N] [--seed S] [--threads T] [--sat-threads N]
//!              [--json OUT.json] [--corpus DIR] [--cache] [--cache-dir DIR]
//!              # differential kernel fuzzing: random kernels through every
//!              # variant, interpreter-checked against the original; fails
//!              # on any divergence and writes minimized repros to --corpus;
//!              # --cache additionally runs every case cold *and* warm
//!              # through the stage cache and reports any divergence
//! accsat serve [--threads N] [--cache-dir DIR] [--cache-cap N]
//!              [--socket PATH] [--trace-out OUT.json]
//!              # persistent optimization service: line-delimited requests
//!              # on stdin (or a Unix socket), one JSON response per line,
//!              # whole pipeline stages amortized across requests through
//!              # the content-addressed cache (see DESIGN.md)
//! accsat trace-check TRACE.json
//!              # validate a --trace-out file: JSON well-formedness, event
//!              # fields, per-thread span nesting; prints a summary line
//! ```
//!
//! `--metrics` writes the deterministic counter/histogram report of
//! `accsat-obs` — byte-identical at any thread count. `--trace-out`
//! arms the hierarchical tracer and writes a Chrome trace event file
//! (load it at `ui.perfetto.dev`); traces contain wall-clock timings
//! and are *not* deterministic. See DESIGN.md §Observability.
//!
//! `--sat-threads` controls the *parallel rule search inside saturation*
//! (distinct from `--threads`, the worker pool over kernels or fuzz
//! cases). All output is byte-identical at any `--sat-threads` value; in
//! `batch`/`tune` it defaults to `--threads` so idle workers widen into
//! the heavy kernels, elsewhere it defaults to 1.
//!
//! `batch` also accepts `--cache-dir DIR` (reuse saturated e-graphs and
//! selections across runs) and `--stable-json OUT.json` (the
//! timing-free report CI diffs between warm and cold runs).

use accsat::batch::{optimize_suite, tune_suite, ParallelConfig};
use accsat::cache::{StageCache, DEFAULT_DISK_CAPACITY, DEFAULT_MEM_CAPACITY};
use accsat::fuzz::{run_campaign, FuzzConfig};
use accsat::serve::{run_session, ServeConfig};
use accsat::{optimize_program_with, SaturatorConfig, Variant};
use accsat_autotune::TuneConfig;
use accsat_compilers::{Compiler, CompilerModel};
use accsat_gpusim::Device;
use accsat_ir::{parse_program, print_program, Model};
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

/// How a subcommand ends: `Err` carries the exit code, its message
/// already on stderr (2 usage, 1 I/O or pipeline failure).
type Exit = Result<(), ExitCode>;

fn usage() -> ExitCode {
    eprintln!(
        "usage: accsat [--variant cse|cse+sat|cse+bulk|accsat] [--sat-threads N] [--stats]\n\
         \x20            [--metrics OUT.txt] [--trace-out OUT.json] [-o OUT.c] INPUT.c\n\
                accsat batch [--suite npb|spec|all] [--threads N] [--sat-threads N]\n\
         \x20            [--variant V] [--deadline-ms D] [--extract-budget NODES]\n\
         \x20            [--json OUT.json] [--stable-json OUT.json] [--shard I/N]\n\
         \x20            [--cache-dir DIR] [--tune] [--metrics OUT.txt]\n\
         \x20            [--trace-out OUT.json]\n\
                accsat tune [--suite npb|spec|all] [--threads N] [--sat-threads N]\n\
         \x20            [--device pcie|sxm] [--compiler nvhpc|gcc] [--sweep H1,H2,...]\n\
         \x20            [--keep K] [--shard I/N] [--json OUT.json]\n\
                accsat fuzz [--cases N] [--seed S] [--threads T] [--sat-threads N]\n\
         \x20            [--json OUT.json] [--corpus DIR] [--cache] [--cache-dir DIR]\n\
         \x20            [--trace-out OUT.json]\n\
                accsat serve [--threads N] [--cache-dir DIR] [--cache-cap N]\n\
         \x20            [--socket PATH] [--trace-out OUT.json]\n\
                accsat trace-check TRACE.json"
    );
    ExitCode::from(2)
}

/// A usage error: `msg` (when there is one) and the usage text on stderr.
fn usage_error(msg: String) -> ExitCode {
    if !msg.is_empty() {
        eprintln!("{msg}");
    }
    usage()
}

/// An I/O or pipeline failure: `msg` on stderr, exit code 1.
fn fail(msg: String) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::FAILURE
}

fn write_file(tool: &str, path: &str, body: &str) -> Exit {
    std::fs::write(path, body).map_err(|e| fail(format!("{tool}: cannot write {path}: {e}")))
}

/// Disarm the tracer and write the rendered Chrome trace to `path`, when
/// `--trace-out` armed it.
fn write_trace(path: Option<&str>, tool: &str) -> Exit {
    let Some(path) = path else { return Ok(()) };
    let json = accsat::obs::trace::finish().expect("tracer armed by --trace-out");
    std::fs::write(path, json)
        .map_err(|e| fail(format!("{tool}: cannot write trace {path}: {e}")))?;
    eprintln!("{tool}: trace written to {path} (load at ui.perfetto.dev)");
    Ok(())
}

/// The words of one command line, read left to right. A flag that does
/// not get the operand it needs is a usage error, `"{flag} needs {what}"`.
struct Operands(std::vec::IntoIter<String>);

impl Operands {
    fn next(&mut self) -> Option<String> {
        self.0.next()
    }

    /// The next word, whatever it is.
    fn text(&mut self, flag: &str, what: &str) -> Result<String, String> {
        self.next().ok_or_else(|| format!("{flag} needs {what}"))
    }

    /// The next word through `parse`; `None` rejects it.
    fn parsed<T>(
        &mut self,
        flag: &str,
        what: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, String> {
        self.next().as_deref().and_then(parse).ok_or_else(|| format!("{flag} needs {what}"))
    }

    /// The next word as an integer.
    fn integer<T: FromStr>(&mut self, flag: &str, what: &str) -> Result<T, String> {
        self.parsed(flag, what, |s| s.parse().ok())
    }

    /// The next word as an integer above zero.
    fn positive<T: FromStr + PartialOrd + Default>(
        &mut self,
        flag: &str,
        what: &str,
    ) -> Result<T, String> {
        self.parsed(flag, what, |s| s.parse().ok().filter(|n| *n > T::default()))
    }
}

/// `accsat trace-check`: validate a `--trace-out` file — JSON
/// well-formedness, per-event required fields, per-thread span nesting —
/// and print a one-line summary. CI runs this on its smoke traces.
fn trace_check_main(args: Vec<String>) -> Exit {
    let [path] = args.as_slice() else {
        eprintln!("usage: accsat trace-check TRACE.json");
        return Err(ExitCode::from(2));
    };
    let src = std::fs::read_to_string(path)
        .map_err(|e| fail(format!("accsat trace-check: cannot read {path}: {e}")))?;
    let s = accsat::obs::validate::validate_trace(&src)
        .map_err(|e| fail(format!("accsat trace-check: {path}: {e}")))?;
    println!(
        "trace ok: {} events ({} spans, {} instants, {} counter samples) \
         on {} thread{}, {:.1} ms, categories: {}",
        s.events,
        s.spans,
        s.instants,
        s.counters,
        s.threads,
        if s.threads == 1 { "" } else { "s" },
        s.span_end_us as f64 / 1e3,
        s.categories.join(","),
    );
    Ok(())
}

/// Parse a `--shard I/N` operand.
fn parse_shard(s: &str) -> Option<(usize, usize)> {
    let (i, n) = s.split_once('/')?;
    let (i, n) = (i.parse::<usize>().ok()?, n.parse::<usize>().ok()?);
    (n > 0 && i < n).then_some((i, n))
}

fn parse_variant(v: Option<&str>) -> Result<Variant, String> {
    // `original` is a spelling the service accepts; the CLI has nothing to do for it
    v.and_then(Variant::parse).filter(|v| *v != Variant::Original).ok_or("unknown variant".into())
}

/// What `accsat batch` / `accsat tune` were asked to do.
struct BatchOpts {
    tune_mode: bool,
    suite: String,
    variant: Variant,
    par: ParallelConfig,
    json: Option<String>,
    stable_json: Option<String>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    cache_dir: Option<String>,
    extract_budget: Option<u64>,
    sat_threads: Option<usize>,
    tcfg: TuneConfig,
}

fn parse_batch(args: Vec<String>, tune_mode: bool) -> Result<BatchOpts, String> {
    let mut o = BatchOpts {
        tune_mode,
        suite: "npb".to_string(),
        variant: Variant::AccSat,
        par: ParallelConfig::default(),
        json: None,
        stable_json: None,
        metrics_out: None,
        trace_out: None,
        cache_dir: None,
        extract_budget: None,
        sat_threads: None,
        tcfg: TuneConfig::default(),
    };
    // tuner-only flags seen while parsing: a plain batch must reject
    // them instead of silently ignoring the user's tuning intent
    let mut tune_flags: Vec<&'static str> = Vec::new();

    let mut ops = Operands(args.into_iter());
    while let Some(arg) = ops.next() {
        match arg.as_str() {
            "--suite" => match ops.next().as_deref() {
                Some(s @ ("npb" | "spec" | "all")) => o.suite = s.to_string(),
                other => return Err(format!("unknown suite: {other:?}")),
            },
            "--variant" => o.variant = parse_variant(ops.next().as_deref())?,
            "--threads" => o.par.threads = ops.positive(&arg, "a positive integer")?,
            "--deadline-ms" => {
                o.par.kernel_deadline =
                    Some(Duration::from_millis(ops.integer(&arg, "an integer")?))
            }
            "--extract-budget" => {
                o.extract_budget = Some(ops.positive(&arg, "a positive node count")?)
            }
            "--sat-threads" => o.sat_threads = Some(ops.positive(&arg, "a positive integer")?),
            "--json" => o.json = Some(ops.text(&arg, "an output path")?),
            "--stable-json" => o.stable_json = Some(ops.text(&arg, "an output path")?),
            "--metrics" => o.metrics_out = Some(ops.text(&arg, "an output path")?),
            "--trace-out" => o.trace_out = Some(ops.text(&arg, "an output path")?),
            "--cache-dir" => o.cache_dir = Some(ops.text(&arg, "a directory")?),
            "--shard" => {
                o.par.shard = Some(ops.parsed(&arg, "I/N with 0 <= I < N", parse_shard)?)
            }
            "--tune" => o.tune_mode = true,
            "--device" => {
                tune_flags.push("--device");
                o.tcfg.device = match ops.next().as_deref() {
                    Some("pcie" | "a100-40g") => Device::a100_pcie_40gb(),
                    Some("sxm" | "a100-80g") => Device::a100_sxm4_80gb(),
                    other => return Err(format!("unknown device: {other:?} (pcie|sxm)")),
                }
            }
            "--compiler" => {
                tune_flags.push("--compiler");
                let compiler = match ops.next().as_deref() {
                    Some("nvhpc") => Compiler::Nvhpc,
                    Some("gcc") => Compiler::Gcc,
                    other => return Err(format!("unknown compiler: {other:?} (nvhpc|gcc)")),
                };
                o.tcfg.compiler = CompilerModel::new(compiler, Model::OpenAcc);
            }
            "--sweep" => {
                tune_flags.push("--sweep");
                o.tcfg.sweep = ops.parsed(&arg, "a comma-separated list of heavy costs", |s| {
                    s.split(',').map(|v| v.trim().parse().ok()).collect()
                })?;
            }
            "--keep" => {
                tune_flags.push("--keep");
                o.tcfg.keep = ops.positive(&arg, "a positive integer")?;
            }
            _ => return Err(format!("unknown batch flag: {arg}")),
        }
    }

    if !o.tune_mode && !tune_flags.is_empty() {
        return Err(format!(
            "accsat batch: {} only take{} effect with --tune (or `accsat tune`)",
            tune_flags.join(", "),
            if tune_flags.len() == 1 { "s" } else { "" },
        ));
    }
    Ok(o)
}

/// `accsat batch` / `accsat tune`: the parallel drivers over a benchmark
/// suite. `tune_mode` switches the per-kernel objective from the static
/// cost model to simulated cycles, and makes all output deterministic
/// (byte-identical at any `--threads`).
fn batch_main(args: Vec<String>, tune_mode: bool) -> Exit {
    let o = parse_batch(args, tune_mode).map_err(usage_error)?;
    let tune_mode = o.tune_mode;
    let benches = match o.suite.as_str() {
        "npb" => accsat_benchmarks::npb_benchmarks(),
        "spec" => accsat_benchmarks::spec_benchmarks(),
        _ => accsat_benchmarks::all_benchmarks(),
    };
    let mut config = SaturatorConfig::default();
    if let Some(n) = o.extract_budget {
        config.extraction_node_budget = n;
    }
    // rule search defaults to the pool width: the two-level budget only
    // grants extra threads when workers are idle, and the output is
    // byte-identical at any width either way
    config.sat_threads = o.sat_threads.unwrap_or(o.par.threads);
    if let Some(dir) = &o.cache_dir {
        let cache = StageCache::with_dir(Path::new(dir))
            .map_err(|e| fail(format!("accsat batch: cannot open cache dir {dir}: {e}")))?;
        config.cache = Some(Arc::new(cache));
    }
    if o.trace_out.is_some() {
        accsat::obs::trace::start();
    }
    let report = if tune_mode {
        tune_suite(&benches, o.variant, &config, &o.tcfg, &o.par)
    } else {
        optimize_suite(&benches, o.variant, &config, &o.par)
    }
    .map_err(|e| fail(format!("accsat batch: {e}")))?;

    if tune_mode {
        // everything printed here is deterministic: simulated metrics
        // only, never wall-clock measurements
        print!("{}", report.render_tuning_table());
        let kernels = report.total_kernels();
        let (mut simulated, mut divergent) = (0usize, 0usize);
        for b in &report.benchmarks {
            for s in b.kernel_stats() {
                if let Some(t) = &s.tuning {
                    simulated += t.candidates.len();
                    divergent += t.divergent() as usize;
                }
            }
        }
        println!(
            "{kernels} kernels tuned, {simulated} candidates simulated, \
             {divergent} divergent, total static cost {}",
            report.total_cost(),
        );
    } else {
        print!("{}", report.render_table());
        let wall = report.wall.as_secs_f64();
        let work = report.sequential_work().as_secs_f64();
        println!(
            "{} kernels ({} proven optimal, bound gap {}), total cost {}, \
             wall {:.2} s on {} threads (Σ kernel time {:.2} s, {:.2}x)",
            report.total_kernels(),
            report.proven_kernels(),
            report.total_bound_gap(),
            report.total_cost(),
            wall,
            report.threads,
            work,
            if wall > 0.0 { work / wall } else { 1.0 },
        );
    }
    if let Some(path) = &o.json {
        let body = if tune_mode { report.to_stable_json() } else { report.to_json() };
        write_file("accsat batch", path, &body)?;
        if !tune_mode {
            // (suppressed in tune mode to keep stdout byte-identical
            // regardless of whether --json is passed)
            println!("report written to {path}");
        }
    }
    if let Some(path) = &o.stable_json {
        // the timing-free report: byte-identical warm vs cold and at any
        // thread count — CI diffs this file across cache states
        write_file("accsat batch", path, &report.to_stable_json())?;
    }
    if let Some(path) = &o.metrics_out {
        // the deterministic counter/histogram report: byte-identical at
        // any --threads — CI diffs this file across thread counts
        let mut reg = report.metrics();
        if let Some(cache) = &config.cache {
            cache.stats().add_to(&mut reg);
        }
        write_file("accsat batch", path, &reg.to_text())?;
    }
    write_trace(o.trace_out.as_deref(), "accsat batch")
}

/// What `accsat fuzz` was asked to do.
struct FuzzOpts {
    fc: FuzzConfig,
    json: Option<String>,
    corpus: Option<String>,
    trace_out: Option<String>,
}

fn parse_fuzz(args: Vec<String>) -> Result<FuzzOpts, String> {
    let mut o = FuzzOpts { fc: FuzzConfig::default(), json: None, corpus: None, trace_out: None };
    let mut ops = Operands(args.into_iter());
    while let Some(arg) = ops.next() {
        match arg.as_str() {
            "--cases" => o.fc.cases = ops.positive(&arg, "a positive integer")?,
            "--seed" => o.fc.seed = ops.integer(&arg, "an integer")?,
            "--threads" => o.fc.threads = ops.positive(&arg, "a positive integer")?,
            "--sat-threads" => {
                o.fc.saturator.sat_threads = ops.positive(&arg, "a positive integer")?
            }
            "--json" => o.json = Some(ops.text(&arg, "an output path")?),
            "--corpus" => o.corpus = Some(ops.text(&arg, "a directory")?),
            "--cache" => o.fc.cache_check = true,
            "--cache-dir" => {
                o.fc.cache_dir = Some(ops.text(&arg, "a directory")?.into());
                o.fc.cache_check = true;
            }
            "--trace-out" => o.trace_out = Some(ops.text(&arg, "an output path")?),
            _ => return Err(format!("unknown fuzz flag: {arg}")),
        }
    }
    Ok(o)
}

/// `accsat fuzz`: the differential kernel fuzzer. Stdout and the JSON
/// report are deterministic functions of `--cases`/`--seed` alone — CI
/// diffs them across thread counts; timing goes to stderr only.
fn fuzz_main(args: Vec<String>) -> Exit {
    let FuzzOpts { fc, json, corpus, trace_out } = parse_fuzz(args).map_err(usage_error)?;
    if trace_out.is_some() {
        accsat::obs::trace::start();
    }
    let t = std::time::Instant::now();
    let report = run_campaign(&fc);
    let wall = t.elapsed().as_secs_f64();
    eprintln!(
        "accsat fuzz: {} cases in {:.2} s ({:.0} cases/s) on {} thread{}",
        fc.cases,
        wall,
        if wall > 0.0 { fc.cases as f64 / wall } else { 0.0 },
        fc.threads,
        if fc.threads == 1 { "" } else { "s" },
    );
    print!("{}", report.render_summary());
    if let Some(path) = &json {
        write_file("accsat fuzz", path, &report.to_stable_json())?;
    }
    if let Some(dir) = &corpus {
        let paths = report
            .write_corpus(Path::new(dir), &fc)
            .map_err(|e| fail(format!("accsat fuzz: cannot write corpus to {dir}: {e}")))?;
        if !paths.is_empty() {
            eprintln!("accsat fuzz: {} repro(s) written to {dir}", paths.len());
        }
    }
    write_trace(trace_out.as_deref(), "accsat fuzz")?;
    if report.failures.is_empty() {
        Ok(())
    } else {
        Err(ExitCode::FAILURE)
    }
}

/// What `accsat serve` was asked to do.
struct ServeOpts {
    cfg: ServeConfig,
    cache_dir: Option<String>,
    cache_cap: Option<usize>,
    socket: Option<String>,
    trace_out: Option<String>,
}

fn parse_serve(args: Vec<String>) -> Result<ServeOpts, String> {
    let mut o = ServeOpts {
        cfg: ServeConfig::default(),
        cache_dir: None,
        cache_cap: None,
        socket: None,
        trace_out: None,
    };
    let mut ops = Operands(args.into_iter());
    while let Some(arg) = ops.next() {
        match arg.as_str() {
            "--threads" => o.cfg.threads = ops.positive(&arg, "a positive integer")?,
            "--cache-dir" => o.cache_dir = Some(ops.text(&arg, "a directory")?),
            "--cache-cap" => o.cache_cap = Some(ops.positive(&arg, "a positive entry count")?),
            "--socket" => o.socket = Some(ops.text(&arg, "a path")?),
            "--trace-out" => o.trace_out = Some(ops.text(&arg, "an output path")?),
            _ => return Err(format!("unknown serve flag: {arg}")),
        }
    }
    Ok(o)
}

/// `accsat serve`: the persistent optimization service. Compiles the rule
/// set once, then answers line-delimited requests on stdin/stdout (or a
/// Unix socket) with one JSON object per line, amortizing pipeline stages
/// across requests through the content-addressed cache.
fn serve_main(args: Vec<String>) -> Exit {
    let ServeOpts { mut cfg, cache_dir, cache_cap, socket, trace_out } =
        parse_serve(args).map_err(usage_error)?;
    let cache = StageCache::new(
        cache_dir.as_deref().map(Path::new),
        cache_cap.unwrap_or(DEFAULT_MEM_CAPACITY),
        cache_cap.unwrap_or(DEFAULT_DISK_CAPACITY),
    )
    .map_err(|e| {
        let dir = cache_dir.as_deref().unwrap_or_default();
        fail(format!("accsat serve: cannot open cache dir {dir}: {e}"))
    })?;
    cfg.saturator.cache = Some(Arc::new(cache));

    if trace_out.is_some() {
        accsat::obs::trace::start();
    }
    let result = match socket {
        Some(path) => {
            #[cfg(unix)]
            {
                eprintln!("accsat serve: listening on {path}");
                accsat::serve::serve_unix_socket(Path::new(&path), &cfg)
            }
            #[cfg(not(unix))]
            {
                return Err(fail(format!(
                    "accsat serve: --socket {path} requires a Unix platform"
                )));
            }
        }
        // `Stdout` (not `StdoutLock`) — the session's writer thread needs
        // a `Send` sink, and the lock guard is thread-bound
        None => run_session(std::io::stdin().lock(), std::io::stdout(), &cfg),
    };
    write_trace(trace_out.as_deref(), "accsat serve")?;
    result.map_err(|e| fail(format!("accsat serve: {e}")))
}

/// What the single-file mode was asked to do.
struct SingleOpts {
    variant: Variant,
    sat_threads: Option<usize>,
    stats: bool,
    input: String,
    output: Option<String>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
}

fn parse_single(args: Vec<String>) -> Result<SingleOpts, String> {
    let mut variant = Variant::AccSat;
    let (mut sat_threads, mut stats, mut input) = (None, false, None);
    let (mut output, mut metrics_out, mut trace_out) = (None, None, None);
    let mut ops = Operands(args.into_iter());
    while let Some(arg) = ops.next() {
        match arg.as_str() {
            "--variant" => variant = parse_variant(ops.next().as_deref())?,
            "--sat-threads" => sat_threads = Some(ops.positive(&arg, "a positive integer")?),
            "--stats" => stats = true,
            "--metrics" => metrics_out = Some(ops.text(&arg, "an output path")?),
            "--trace-out" => trace_out = Some(ops.text(&arg, "an output path")?),
            "-o" => output = Some(ops.text(&arg, "an output path")?),
            // no message: the usage text is the answer
            "-h" | "--help" => return Err(String::new()),
            other if !other.starts_with('-') => {
                if let Some(first) = input.replace(arg.clone()) {
                    return Err(format!("more than one input file: {first} and {arg}"));
                }
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    let input = input.ok_or_else(String::new)?;
    Ok(SingleOpts { variant, sat_threads, stats, input, output, metrics_out, trace_out })
}

/// `accsat [flags] INPUT.c`: optimize every kernel of one source file.
fn single_main(args: Vec<String>) -> Exit {
    let o = parse_single(args).map_err(usage_error)?;
    let input = &o.input;
    let mut config = SaturatorConfig::default();
    if let Some(n) = o.sat_threads {
        config.sat_threads = n;
    }
    if o.trace_out.is_some() {
        accsat::obs::trace::start();
    }
    let src = std::fs::read_to_string(input)
        .map_err(|e| fail(format!("accsat: cannot read {input}: {e}")))?;
    let prog = parse_program(&src).map_err(|e| fail(format!("accsat: {input}: {e}")))?;
    let (optimized, kernel_stats) = optimize_program_with(&prog, o.variant, &config)
        .map_err(|e| fail(format!("accsat: optimization failed: {e}")))?;
    if o.stats {
        for s in &kernel_stats {
            eprintln!(
                "accsat: kernel `{}`: {} e-nodes, {} iterations ({:?}), \
                 cost {}, ssa+codegen {:.1} ms, saturation {:.1} ms, extraction {:.1} ms",
                s.function,
                s.egraph_nodes,
                s.saturation_iters,
                s.stop_reason,
                s.extracted_cost,
                s.ssa_codegen.as_secs_f64() * 1e3,
                s.saturation.as_secs_f64() * 1e3,
                s.extraction.as_secs_f64() * 1e3,
            );
        }
    }
    let text = print_program(&optimized);
    match &o.output {
        Some(path) => write_file("accsat", path, &text)?,
        None => print!("{text}"),
    }
    if let Some(path) = &o.metrics_out {
        let mut reg = accsat::obs::MetricsRegistry::new();
        for s in &kernel_stats {
            accsat::metrics::add_opt_stats(&mut reg, s);
        }
        write_file("accsat", path, &reg.to_text())?;
    }
    write_trace(o.trace_out.as_deref(), "accsat")
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let run = match args.first().map(String::as_str) {
        Some("batch") => batch_main(args.split_off(1), false),
        Some("tune") => batch_main(args.split_off(1), true),
        Some("fuzz") => fuzz_main(args.split_off(1)),
        Some("serve") => serve_main(args.split_off(1)),
        Some("trace-check") => trace_check_main(args.split_off(1)),
        _ => single_main(args),
    };
    run.map_or_else(|code| code, |()| ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(ws: &[&str]) -> Vec<String> {
        ws.iter().map(|w| w.to_string()).collect()
    }

    /// Every value-taking flag of every subcommand: a good operand is
    /// accepted; a missing or malformed one is the flag's usage message.
    #[test]
    fn value_flags_accept_good_operands_and_name_themselves_otherwise() {
        type Parse = fn(Vec<String>) -> Result<(), String>;
        let batch: Parse = |a| parse_batch(a, false).map(drop);
        let tune: Parse = |a| parse_batch(a, true).map(drop);
        let fuzz: Parse = |a| parse_fuzz(a).map(drop);
        let serve: Parse = |a| parse_serve(a).map(drop);
        // the input file goes first so that a flag at the end lacks its operand
        let single: Parse = |mut a| {
            a.insert(0, "in.c".to_string());
            parse_single(a).map(drop)
        };
        const INT: &str = "a positive integer";
        const PATH: &str = "an output path";
        const DIR: &str = "a directory";
        // (parser, flag, good operand, malformed operand, what the flag needs)
        let table: &[(Parse, &str, &str, Option<&str>, &str)] = &[
            (batch, "--threads", "4", Some("0"), INT),
            (batch, "--deadline-ms", "250", Some("soon"), "an integer"),
            (batch, "--extract-budget", "60000", Some("0"), "a positive node count"),
            (batch, "--sat-threads", "2", Some("-1"), INT),
            (batch, "--json", "o.json", None, PATH),
            (batch, "--stable-json", "o.json", None, PATH),
            (batch, "--metrics", "m.txt", None, PATH),
            (batch, "--trace-out", "t.json", None, PATH),
            (batch, "--cache-dir", "cache", None, DIR),
            (batch, "--shard", "1/2", Some("2/2"), "I/N with 0 <= I < N"),
            (tune, "--sweep", "10, 100", Some("10,x"), "a comma-separated list of heavy costs"),
            (tune, "--keep", "3", Some("0"), INT),
            (tune, "--threads", "8", Some("many"), INT),
            (fuzz, "--cases", "50", Some("0"), INT),
            (fuzz, "--seed", "0", Some("-7"), "an integer"),
            (fuzz, "--threads", "4", Some("0"), INT),
            (fuzz, "--sat-threads", "2", Some("two"), INT),
            (fuzz, "--json", "o.json", None, PATH),
            (fuzz, "--corpus", "corpus", None, DIR),
            (fuzz, "--cache-dir", "cache", None, DIR),
            (fuzz, "--trace-out", "t.json", None, PATH),
            (serve, "--threads", "2", Some("0"), INT),
            (serve, "--cache-dir", "cache", None, DIR),
            (serve, "--cache-cap", "16", Some("0"), "a positive entry count"),
            (serve, "--socket", "/tmp/s", None, "a path"),
            (serve, "--trace-out", "t.json", None, PATH),
            (single, "--sat-threads", "2", Some("0"), INT),
            (single, "--metrics", "m.txt", None, PATH),
            (single, "--trace-out", "t.json", None, PATH),
            (single, "-o", "out.c", None, PATH),
        ];
        for &(parse, flag, good, malformed, what) in table {
            let message = Err(format!("{flag} needs {what}"));
            assert_eq!(parse(words(&[flag, good])), Ok(()), "{flag} {good}");
            assert_eq!(parse(words(&[flag])), message, "{flag} without an operand");
            if let Some(bad) = malformed {
                assert_eq!(parse(words(&[flag, bad])), message, "{flag} {bad}");
            }
        }
    }

    #[test]
    fn enumerated_flags_keep_their_messages() {
        let batch = |ws: &[&str]| parse_batch(words(ws), true).err();
        assert_eq!(batch(&["--suite", "nas"]).unwrap(), "unknown suite: Some(\"nas\")");
        assert_eq!(batch(&["--variant"]).unwrap(), "unknown variant");
        assert_eq!(
            batch(&["--device", "h100"]).unwrap(),
            "unknown device: Some(\"h100\") (pcie|sxm)"
        );
        assert_eq!(batch(&["--compiler"]).unwrap(), "unknown compiler: None (nvhpc|gcc)");
        assert_eq!(batch(&["--fast"]).unwrap(), "unknown batch flag: --fast");
        assert_eq!(batch(&["--device", "sxm", "--compiler", "gcc", "--suite", "all"]), None);
        assert_eq!(
            parse_batch(words(&["--keep", "2", "--sweep", "10"]), false).err().unwrap(),
            "accsat batch: --keep, --sweep only take effect with --tune (or `accsat tune`)"
        );
        assert_eq!(parse_fuzz(words(&["--quick"])).err().unwrap(), "unknown fuzz flag: --quick");
        assert_eq!(parse_serve(words(&["--port"])).err().unwrap(), "unknown serve flag: --port");
        assert_eq!(parse_single(words(&["-x", "in.c"])).err().unwrap(), "unknown flag: -x");
        // bare usage, no message: no input at all, or a request for help
        assert_eq!(parse_single(words(&["--stats"])).err().unwrap(), "");
        assert_eq!(parse_single(words(&["in.c", "--help"])).err().unwrap(), "");
    }

    /// `accsat in.c -o` used to print to stdout and exit 0.
    #[test]
    fn dash_o_without_a_path_is_a_usage_error() {
        let err = parse_single(words(&["in.c", "-o"])).err();
        assert_eq!(err.unwrap(), "-o needs an output path");
        let o = parse_single(words(&["-o", "out.c", "in.c"])).ok().unwrap();
        assert_eq!((o.input.as_str(), o.output.as_deref()), ("in.c", Some("out.c")));
    }

    /// `accsat a.c b.c` used to optimize only `b.c`, silently.
    #[test]
    fn a_second_input_file_is_a_usage_error() {
        let err = parse_single(words(&["a.c", "--stats", "b.c"])).err();
        assert_eq!(err.unwrap(), "more than one input file: a.c and b.c");
    }
}
