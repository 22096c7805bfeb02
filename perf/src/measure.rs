//! Running a workload and turning what it did into named metrics.
//!
//! A run of one workload lives in one process: set-up (several times, for
//! a median), then either the timed passes through the façade with
//! tracing off (`--trace 0`: the end-to-end metrics) or cycles of façade
//! pass / stage-replay pass / pass with the program's own tracer armed
//! (`--trace 1`: the per-layer metrics), then the untimed verification.

use crate::host;
use crate::json::Json;
use crate::replay::{self, Counts};
use crate::spans::{NameTotal, Recorder};
use crate::spec::{MetricDecl, Spec, EXACT};
use crate::stats::{self, Summary};
use crate::verify::Report;
use crate::workloads::{self, PassOut, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Per-layer times read off the replay's spans: `(metric, span, inclusive)`.
/// Leaves have no children, so their self time is their duration; the two
/// inclusive ones report a whole phase (`extract.bnb` is the wall time of
/// the race, its searches overlapping on two threads).
const SPAN_TIMES: [(&str, &str, bool); 17] = [
    ("ir.parse_s", "ir.parse", false),
    ("ir.print_s", "ir.print", false),
    ("ssa.build_s", "ssa.build", false),
    ("egraph.saturate_s", "egraph.saturate", false),
    ("egraph.serialize_s", "egraph.serialize", false),
    ("egraph.deserialize_s", "egraph.deserialize", false),
    ("extract.total_s", "extract", true),
    ("extract.greedy_s", "extract.greedy", false),
    ("extract.context_s", "extract.context", false),
    ("extract.climb_s", "extract.climb", false),
    ("extract.marginal_s", "extract.marginal", false),
    ("extract.bnb_s", "extract.bnb", true),
    ("codegen.generate_s", "codegen.generate", false),
    ("cache.key_s", "cache.key", false),
    ("cache.get_s", "cache.get", false),
    ("cache.put_s", "cache.put", false),
    ("ir.fingerprint_s", "ir.fingerprint", false),
];

/// Saturation phase times, which the runner reports itself
/// (`RunnerReport`); the replay carries them as nanosecond counters.
const REPORT_TIMES: [(&str, &str); 3] = [
    ("egraph.search_s", "egraph.search_ns"),
    ("egraph.apply_s", "egraph.apply_ns"),
    ("egraph.rebuild_s", "egraph.rebuild_ns"),
];

/// Times of the verification layers, from the verification's own spans.
const VERIFY_TIMES: [(&str, &str); 3] = [
    ("compilers.compile_s", "compilers.compile"),
    ("gpusim.run_s", "gpusim.run"),
    ("interp.verify_s", "interp.verify"),
];

/// Exact work counters: the replay's and the verification's `Counts`
/// entries reported under their own names. They must repeat bit for bit.
const COUNTERS: [&str; 38] = [
    "ir.src_bytes",
    "ir.functions",
    "ssa.kernels",
    "ssa.initial_nodes",
    "egraph.iterations",
    "egraph.matches",
    "egraph.applied",
    "egraph.times_banned",
    "egraph.nodes",
    "egraph.classes",
    "egraph.stop_saturated",
    "egraph.stop_iter_limit",
    "egraph.stop_node_limit",
    "egraph.snapshot_bytes",
    "extract.explored",
    "extract.short_circuits",
    "extract.budget_stops",
    "extract.pruned_orbit",
    "extract.pruned_dominance",
    "extract.pruned_closure",
    "extract.greedy_cost",
    "extract.refined_cost",
    "extract.final_cost",
    "extract.lower_bound",
    "extract.proven",
    "codegen.out_bytes",
    "cache.hits_parsed",
    "cache.hits_sat",
    "cache.hits_sel",
    "cache.misses_sat",
    "cache.misses_sel",
    "cache.evictions",
    "serve.requests",
    "serve.resp_bytes",
    "serve.level_miss",
    "serve.level_parsed",
    "serve.level_selected",
    "interp.kernels_checked",
];

/// The remaining per-layer metrics, each computed by name below.
#[cfg(test)]
const DERIVED: [&str; 14] = [
    "egraph.apply_ratio",
    "extract.proven_ratio",
    "cache.hit_ratio",
    "cache.disk_files",
    "cache.disk_bytes",
    "serve.overhead_s",
    "pipeline.glue_s",
    "gpusim.time_ms_original",
    "gpusim.time_ms_accsat",
    "gpusim.insts_accsat",
    "interp.mismatches",
    "obs.trace_overhead_ratio",
    "obs.trace_events",
    "perf.replay_overhead_ratio",
];

/// Every per-layer metric this file computes.
#[cfg(test)]
fn layer_metric_names() -> Vec<&'static str> {
    SPAN_TIMES
        .iter()
        .map(|t| t.0)
        .chain(REPORT_TIMES.iter().map(|t| t.0))
        .chain(VERIFY_TIMES.iter().map(|t| t.0))
        .chain(COUNTERS)
        .chain(DERIVED)
        .collect()
}

/// Every end-to-end metric this file computes on every workload.
#[cfg(test)]
const END_TO_END: [&str; 6] =
    ["setup_s", "wall_s", "cpu_s", "peak_rss_mb", "req_p50_ms", "req_p99_ms"];

/// One metric as measured.
#[derive(Debug, Clone)]
pub struct Measured {
    pub decl: MetricDecl,
    pub summary: Summary,
    /// `false` when the sample count does not support the statistic (a
    /// percentile with fewer than ten samples beyond it).
    pub supported: bool,
}

#[derive(Debug)]
pub struct WorkloadResult {
    pub name: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// The declared metrics of this mode, in declaration order.
    pub metrics: Vec<Measured>,
    /// `(name, unit, value)` of the exact results defined on this workload.
    pub exact: Vec<(&'static str, &'static str, f64)>,
    pub rows: Vec<Json>,
    /// Share of the replayed pass each layer's spans account for.
    pub shares: Vec<(String, f64)>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn values_to_metrics(
    decls: &[MetricDecl],
    values: &BTreeMap<&'static str, (Summary, bool)>,
) -> Vec<Measured> {
    decls
        .iter()
        .map(|d| {
            let (summary, supported) = *values
                .get(d.name.as_str())
                .unwrap_or_else(|| panic!("declared metric {} is not computed", d.name));
            Measured { decl: d.clone(), summary, supported }
        })
        .collect()
}

pub fn run_workload(
    spec: &Spec,
    name: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<WorkloadResult, String> {
    if spec.why(name).is_none() {
        let known: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        return Err(format!("unknown workload {name:?}; expected one of {known:?}"));
    }
    let mut result = WorkloadResult {
        name: name.to_string(),
        seed,
        seconds,
        trace,
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
        metrics: Vec::new(),
        exact: Vec::new(),
        rows: Vec::new(),
        shares: Vec::new(),
    };
    // The run is split over several freshly set-up instances: that gives
    // `setup_s` its samples, and it keeps one instance's luck — where its
    // heap and its cache files happened to land — from biasing the run.
    let reps = if seconds == 0 { 1 } else { SETUP_REPS };
    let slice_s = seconds as f64 / reps as f64;
    let mut setup_s = Vec::with_capacity(reps);
    let mut digest = None;
    let (mut timed, mut traced) = (Timed::default(), Traced::default());
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..reps {
        // the old instance goes first: set-ups share a scratch directory
        drop(workload.take());
        let t = Instant::now();
        let mut w = workloads::setup(name, seed)
            .ok_or(format!("workload {name:?} is declared but not implemented"))?;
        // the first pass of a fresh instance pays for page faults,
        // allocator growth and cold caches: it belongs to set-up, not to
        // the steady state the timed passes measure
        let warm_up = w.pass();
        setup_s.push(t.elapsed().as_secs_f64());
        account(&warm_up, &mut digest, &mut result);
        if trace {
            traced.cycles(w.as_mut(), slice_s, &mut digest, &mut result);
        } else {
            timed.passes(w.as_mut(), slice_s, &mut digest, &mut result);
        }
        workload = Some(w);
    }
    let w = workload.as_deref_mut().expect("at least one set-up ran");
    if trace {
        traced.finish(spec, w, seconds > 0, &mut result);
    } else {
        timed.finish(spec, w, &setup_s, &mut result);
    }
    Ok(result)
}

/// Fold one pass into the run's totals; every pass must produce what the
/// first one did.
fn account(out: &PassOut, first_digest: &mut Option<u64>, result: &mut WorkloadResult) {
    result.attempted += out.ops;
    result.failed += out.failed;
    if *first_digest.get_or_insert(out.digest) != out.digest {
        result.failed += 1;
        result.notes.push("a pass produced different output than the first pass".to_string());
    }
}

fn finish(report: Report, result: &mut WorkloadResult) {
    result.attempted += report.attempted;
    result.failed += report.failed;
    result.notes.extend(report.notes);
    result.rows = report.rows;
}

/// CPU time is read in 10 ms ticks: passes are batched until a batch
/// holds at least this much of it, and a sample is a batch's CPU time per
/// pass.
const CPU_BATCH_S: f64 = 1.0;

/// The timed passes of a `--trace 0` run.
#[derive(Default)]
struct Timed {
    walls: Vec<f64>,
    /// Median and 99th-percentile request latency of every pass.
    pass_p50_ms: Vec<f64>,
    pass_p99_ms: Vec<f64>,
    requests: usize,
    /// CPU seconds per pass, one sample per batch of passes.
    cpu_s: Vec<f64>,
    cpu_batch: (f64, usize),
}

impl Timed {
    /// Façade passes on one instance until `budget_s` of them are timed.
    fn passes(
        &mut self,
        w: &mut dyn Workload,
        budget_s: f64,
        digest: &mut Option<u64>,
        result: &mut WorkloadResult,
    ) {
        let mut spent = 0.0;
        loop {
            let mut out = w.pass();
            account(&out, digest, result);
            spent += out.wall_s;
            self.walls.push(out.wall_s);
            out.latencies_ms.sort_by(f64::total_cmp);
            self.pass_p50_ms.push(stats::median_sorted(&out.latencies_ms));
            self.pass_p99_ms.push(stats::percentile_sorted(&out.latencies_ms, 99.0));
            self.requests += out.latencies_ms.len();
            self.cpu_batch = (self.cpu_batch.0 + out.cpu_s, self.cpu_batch.1 + 1);
            if self.cpu_batch.0 >= CPU_BATCH_S {
                self.cpu_s.push(self.cpu_batch.0 / self.cpu_batch.1 as f64);
                self.cpu_batch = (0.0, 0);
            }
            if spent >= budget_s {
                break;
            }
        }
    }

    fn finish(
        mut self,
        spec: &Spec,
        w: &dyn Workload,
        setup_s: &[f64],
        result: &mut WorkloadResult,
    ) {
        // before verification, whose interpreter inputs are not the program's
        let peak_rss = host::peak_rss_mib();
        let mut report = Report::new();
        w.verify(&mut report);

        if self.cpu_s.is_empty() {
            // a run too short for one full batch (`--quick`)
            self.cpu_s.push(self.cpu_batch.0 / self.cpu_batch.1 as f64);
        }
        // every timing repeats the same work, so each is reported by its
        // fastest decile (see `Summary::undisturbed`)
        let mut values: BTreeMap<&'static str, (Summary, bool)> = BTreeMap::new();
        values.insert("setup_s", (Summary::undisturbed(setup_s), true));
        values.insert("wall_s", (Summary::undisturbed(&self.walls), true));
        values.insert("cpu_s", (Summary::undisturbed(&self.cpu_s), true));
        values.insert("peak_rss_mb", (Summary::exact(peak_rss), true));
        // per pass, the median and the 99th percentile of its requests;
        // whether the run as a whole has the samples for a tail is judged
        // on all its requests
        let p50 = Summary { n: self.requests, ..Summary::undisturbed(&self.pass_p50_ms) };
        let p99 = Summary { n: self.requests, ..Summary::undisturbed(&self.pass_p99_ms) };
        values.insert("req_p50_ms", (p50, stats::percentile_supported(self.requests, 50.0)));
        values.insert("req_p99_ms", (p99, stats::percentile_supported(self.requests, 99.0)));
        result.metrics = values_to_metrics(&spec.end_to_end, &values);

        let ops_failed = result.failed + report.failed;
        let ops_attempted = result.attempted + report.attempted;
        report.exact.insert("error_rate", ops_failed as f64 / ops_attempted as f64);
        for e in EXACT.iter().filter(|e| e.on.contains(&result.name.as_str())) {
            match report.exact.get(e.name) {
                Some(&v) => result.exact.push((e.name, e.unit, v)),
                None => {
                    result.failed += 1;
                    result.notes.push(format!("{} was not computed", e.name));
                }
            }
        }
        finish(report, result);
    }
}

fn seconds_of(totals: &BTreeMap<&'static str, NameTotal>, span: &str, inclusive: bool) -> f64 {
    let t = totals.get(span).copied().unwrap_or_default();
    (if inclusive { t.total_ns } else { t.self_ns }) as f64 / 1e9
}

/// The traced cycles of a `--trace 1` run.
struct Traced {
    /// Per-cycle samples of every timed per-layer metric.
    times: BTreeMap<&'static str, Vec<f64>>,
    /// Counts and spans of the first traced pass; later passes must count
    /// the same.
    first: Option<(Counts, Recorder)>,
    trace_events: usize,
    /// Did every replayed pass so far take under 95 % of the façade pass
    /// beside it?
    always_faster: bool,
}

impl Default for Traced {
    fn default() -> Traced {
        Traced { times: BTreeMap::new(), first: None, trace_events: 0, always_faster: true }
    }
}

impl Traced {
    /// Cycles of façade pass, replayed pass and façade pass under the
    /// program's own tracer, until `budget_s` of them are timed.
    fn cycles(
        &mut self,
        w: &mut dyn Workload,
        budget_s: f64,
        digest: &mut Option<u64>,
        result: &mut WorkloadResult,
    ) {
        let mut spent = 0.0;
        loop {
            let facade = w.pass();
            account(&facade, digest, result);

            let (mut rec, mut counts) = (Recorder::new(), Counts::default());
            let replayed = w.traced(&mut rec, &mut counts);
            account(&replayed, digest, result);

            accsat::obs::trace::start();
            let observed = w.pass();
            let events = accsat::obs::trace::finish().unwrap_or_default();
            account(&observed, digest, result);
            self.trace_events = events.matches("\"ph\":").count();
            spent += facade.wall_s + replayed.wall_s + observed.wall_s;

            let mut probe = Recorder::new();
            for source in w.sources() {
                let _ = replay::fingerprint_probe(&source.text, &mut probe);
            }
            let mut totals = rec.totals();
            totals.extend(probe.totals());
            let mut push = |name: &'static str, v: f64| self.times.entry(name).or_default().push(v);
            for (metric, span, inclusive) in SPAN_TIMES {
                push(metric, seconds_of(&totals, span, inclusive));
            }
            for (metric, counter) in REPORT_TIMES {
                push(metric, counts.get(counter) as f64 / 1e9);
            }
            // what the façade pass took beyond the stages the replay timed:
            // the wrapper spans' own time stands in for it inside the replay
            let wrappers = seconds_of(&totals, "pipeline.source", false)
                + seconds_of(&totals, "pipeline.kernel", false);
            let stages = rec.root_ns() as f64 / 1e9 - wrappers;
            // a serve session is compared with its direct replay, the rest
            // of the session being `serve.overhead_s`
            let overhead: f64 =
                replayed.extras.iter().filter(|e| e.0 == "serve.overhead_s").map(|e| e.1).sum();
            let direct_s = facade.wall_s - overhead;
            push("wall_s", direct_s);
            push("stages_s", stages);
            push("replayed_s", replayed.wall_s);
            push("session_s", facade.wall_s);
            push("observed_s", observed.wall_s);
            for &(name, v) in &replayed.extras {
                push(name, v);
            }
            // a replay that skips a stage is faster than its façade pass
            // every time, not now and then
            self.always_faster &= replayed.wall_s < 0.95 * direct_s;

            counts.0.retain(|name, _| !name.ends_with("_ns"));
            match &self.first {
                None => self.first = Some((counts, rec)),
                Some((first, _)) if *first != counts => {
                    result.failed += 1;
                    result.notes.push("the layer counts of two traced passes differ".to_string());
                }
                Some(_) => {}
            }
            if spent >= budget_s {
                break;
            }
        }
    }

    fn finish(
        self,
        spec: &Spec,
        w: &dyn Workload,
        check_replay: bool,
        result: &mut WorkloadResult,
    ) {
        let (counts, trace) = self.first.expect("at least one cycle ran");
        let trace_path = host::out_dir().join(format!("trace-{}.json", result.name));
        if let Err(e) = std::fs::write(&trace_path, trace.to_json().render()) {
            result.notes.push(format!("could not write {}: {e}", trace_path.display()));
        }

        let mut report = Report::new();
        w.verify(&mut report);
        let verify_totals = report.rec.totals();

        let mut values: BTreeMap<&'static str, (Summary, bool)> = BTreeMap::new();
        let mut exact = |name: &'static str, v: f64| values.insert(name, (Summary::exact(v), true));
        for name in COUNTERS {
            exact(name, (counts.get(name) + report.counts.get(name)) as f64);
        }
        let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
        exact(
            "egraph.apply_ratio",
            ratio(counts.get("egraph.applied"), counts.get("egraph.matches")),
        );
        exact(
            "extract.proven_ratio",
            ratio(counts.get("extract.proven"), counts.get("extract.kernels")),
        );
        let hits = ["cache.hits_parsed", "cache.hits_sat", "cache.hits_sel"];
        let misses = ["cache.misses_parsed", "cache.misses_sat", "cache.misses_sel"];
        let hits: u64 = hits.iter().map(|n| counts.get(n)).sum();
        let probes = hits + misses.iter().map(|n| counts.get(n)).sum::<u64>();
        exact("cache.hit_ratio", ratio(hits, probes));
        let (files, bytes) = w.disk_usage();
        exact("cache.disk_files", files as f64);
        exact("cache.disk_bytes", bytes as f64);
        for name in ["gpusim.time_ms_original", "gpusim.time_ms_accsat", "gpusim.insts_accsat"] {
            exact(name, report.exact.get(name).copied().unwrap_or(0.0));
        }
        exact("interp.mismatches", report.counts.get("interp.mismatches") as f64);
        exact("obs.trace_events", self.trace_events as f64);
        for (metric, span) in VERIFY_TIMES {
            exact(metric, seconds_of(&verify_totals, span, false));
        }
        exact("serve.overhead_s", 0.0); // overwritten below where a session ran
        for (name, samples) in &self.times {
            // the same work every cycle: the fastest decile, as for the
            // end-to-end timings
            values.insert(name, (Summary::undisturbed(samples), true));
        }
        let time = |name: &str| values[name].0.value;
        // what the façade pass costs beyond the stages: clones, type maps,
        // source hashes, flight claims, opening the cache
        let glue = Summary::exact(time("wall_s") - time("stages_s"));
        let replay_ratio = Summary::exact(time("replayed_s") / time("wall_s"));
        let trace_ratio = Summary::exact(time("observed_s") / time("session_s"));
        values.insert("pipeline.glue_s", (glue, true));
        values.insert("perf.replay_overhead_ratio", (replay_ratio, true));
        values.insert("obs.trace_overhead_ratio", (trace_ratio, true));
        result.metrics = values_to_metrics(&spec.per_layer, &values);

        // where the replayed pass went, layer by layer (README's predictions)
        let stages_s = values["stages_s"].0.value;
        let share =
            |names: &[&str]| names.iter().map(|n| values[n].0.value).sum::<f64>() / stages_s;
        result.shares = [
            ("extract", share(&["extract.total_s"])),
            ("extract.climb+marginal", share(&["extract.climb_s", "extract.marginal_s"])),
            ("extract.bnb", share(&["extract.bnb_s"])),
            (
                "egraph.search+apply+rebuild",
                share(&["egraph.search_s", "egraph.apply_s", "egraph.rebuild_s"]),
            ),
            ("egraph.serialize", share(&["egraph.serialize_s"])),
            ("egraph.deserialize", share(&["egraph.deserialize_s"])),
            ("cache.put", share(&["cache.put_s"])),
            ("cache.get+key", share(&["cache.get_s", "cache.key_s"])),
            ("ssa+codegen", share(&["ssa.build_s", "codegen.generate_s"])),
            ("ir.parse+print", share(&["ir.parse_s", "ir.print_s"])),
        ]
        .into_iter()
        .map(|(layer, share)| (layer.to_string(), share))
        .collect();
        // one cycle (`--quick`) is a cold first pass against a warm second
        // one: the check needs several
        if check_replay && self.always_faster {
            result.failed += 1;
            result.notes.push(
                "every replayed pass took under 95 % of its façade pass: the replay is missing a stage"
                    .to_string(),
            );
        }
        finish(report, result);
    }
}

// ---------------------------------------------------------------------
// printing
// ---------------------------------------------------------------------

fn summary_json(m: &Measured) -> Json {
    let s = m.summary;
    let mut fields = vec![
        ("value", Json::Num(s.value)),
        ("unit", Json::str(&m.decl.unit)),
        ("n", Json::Num(s.n as f64)),
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
    ];
    if !m.supported {
        fields.push(("supported", Json::Bool(false)));
    }
    Json::obj(fields)
}

/// Everything one run of one workload measured.
pub fn result_json(r: &WorkloadResult) -> Json {
    Json::obj(vec![
        ("workload", Json::str(&r.name)),
        ("seed", Json::Num(r.seed as f64)),
        ("seconds", Json::Num(r.seconds as f64)),
        ("trace", Json::Bool(r.trace)),
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("notes", Json::Arr(r.notes.iter().map(|n| Json::str(n)).collect())),
        (
            "metrics",
            Json::Obj(r.metrics.iter().map(|m| (m.decl.name.clone(), summary_json(m))).collect()),
        ),
        (
            "exact",
            Json::Obj(
                r.exact
                    .iter()
                    .map(|&(name, unit, v)| {
                        (
                            name.to_string(),
                            Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str(unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("rows", Json::Arr(r.rows.clone())),
        ("shares", Json::Obj(r.shares.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect())),
    ])
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric with its value as measured and its unit.
pub fn contract_json(r: &WorkloadResult) -> Json {
    let metrics = r
        .metrics
        .iter()
        .map(|m| {
            let v = Json::obj(vec![
                ("value", Json::Num(m.summary.value)),
                ("unit", Json::str(&m.decl.unit)),
            ]);
            (m.decl.name.clone(), v)
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.attempted.max(1) as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

pub fn print_result(spec: &Spec, r: &WorkloadResult) {
    let mode = if r.trace {
        "per-layer metrics (traced passes)"
    } else {
        "end-to-end metrics (tracing off)"
    };
    println!("workload {} seed {} seconds {}: {mode}", r.name, r.seed, r.seconds);
    println!("  why: {}", spec.why(&r.name).unwrap_or(""));
    for m in &r.metrics {
        let s = m.summary;
        let better = if m.decl.lower_is_better { "lower" } else { "higher" };
        let bound = m.decl.bound.map_or(String::new(), |b| format!(", bound {:.0} %", b * 100.0));
        let spread = if s.n > 1 {
            format!(" median {:.6} q1 {:.6} q3 {:.6}", s.median, s.q1, s.q3)
        } else {
            String::new()
        };
        let weak =
            if m.supported { "" } else { "  [fewer than 10 samples beyond this percentile]" };
        println!(
            "  {:<28} {:>16.6} {:<6} n={}{spread} ({better} is better{bound}){weak}",
            m.decl.name, s.value, m.decl.unit, s.n
        );
    }
    for (name, unit, v) in &r.exact {
        println!("  {name:<28} {v:>16.6} {unit:<6} exact");
    }
    for row in &r.rows {
        println!("  row {}", row.render());
    }
    for (layer, share) in &r.shares {
        println!("  share {layer:<30} {:>6.1} % of the replayed pass", share * 100.0);
    }
    for note in &r.notes {
        println!("  FAILED {note}");
    }
    println!("report {}", result_json(r).render());
    println!("{}", contract_json(r).render());
}

// ---------------------------------------------------------------------
// the whole benchmark: one child process per workload and mode
// ---------------------------------------------------------------------

fn run_child(name: &str, seed: u64, seconds: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut report = None;
    for line in stdout.lines() {
        match line.strip_prefix("report ") {
            Some(json) => report = Some(Json::parse(json)?),
            // the table, not the machine-readable last line
            None if !line.starts_with('{') => println!("{line}"),
            None => {}
        }
    }
    report.ok_or(format!(
        "{name} (trace {}) printed no report; exit {}",
        u8::from(trace),
        output.status
    ))
}

/// Run every workload, tracing off then on, each in its own process of
/// this binary, so peak memory and cache state are per workload.
pub fn run_all(spec: &Spec, seed: u64, seconds: u64) -> Result<Json, String> {
    let started = Instant::now();
    let mut workloads = Vec::new();
    for (name, why) in &spec.workloads {
        let timed = run_child(name, seed, seconds, false)?;
        let traced = run_child(name, seed, seconds, true)?;
        let number = |r: &Json, k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let notes: Vec<Json> = [&timed, &traced]
            .iter()
            .flat_map(|r| r.get("notes").map(Json::as_arr).unwrap_or(&[]).to_vec())
            .collect();
        let failed = number(&timed, "failed") + number(&traced, "failed");
        workloads.push(Json::obj(vec![
            ("name", Json::str(name)),
            ("why", Json::str(why)),
            ("correct", Json::Bool(failed == 0.0)),
            ("attempted", Json::Num(number(&timed, "attempted") + number(&traced, "attempted"))),
            ("failed", Json::Num(failed)),
            ("notes", Json::Arr(notes)),
            ("end_to_end", timed.get("metrics").cloned().unwrap_or(Json::Null)),
            ("exact", timed.get("exact").cloned().unwrap_or(Json::Null)),
            ("per_layer", traced.get("metrics").cloned().unwrap_or(Json::Null)),
            ("shares", traced.get("shares").cloned().unwrap_or(Json::Null)),
            ("rows", timed.get("rows").cloned().unwrap_or(Json::Null)),
        ]));
    }
    Ok(Json::obj(vec![
        ("schema", Json::str("accsat-perf/1")),
        (
            "host",
            Json::obj(vec![
                ("nproc", Json::Num(host::nproc() as f64)),
                ("rustc", Json::str(&host::command_line("rustc", &["--version"]))),
                ("profile", Json::str(if cfg!(debug_assertions) { "debug" } else { "release" })),
                ("commit", Json::str(&host::command_line("git", &["rev-parse", "HEAD"]))),
                ("seed", Json::Num(seed as f64)),
                ("seconds", Json::Num(seconds as f64)),
                ("total_s", Json::Num(started.elapsed().as_secs_f64())),
            ]),
        ),
        ("workloads", Json::Arr(workloads)),
        ("claim", Json::Null),
    ]))
}

pub fn all_correct(results: &Json) -> bool {
    let workloads = results.get("workloads").map(Json::as_arr).unwrap_or(&[]);
    !workloads.is_empty() && workloads.iter().all(|w| w.get("correct") == Some(&Json::Bool(true)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computed_metric_names_equal_the_declared_ones() {
        let spec = Spec::embedded();
        let mut declared: Vec<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        let mut computed = layer_metric_names();
        declared.sort_unstable();
        computed.sort_unstable();
        assert_eq!(computed, declared, "per-layer metrics: code and BENCHMARK.json differ");
        let declared: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(declared, END_TO_END, "end-to-end metrics: code and BENCHMARK.json differ");
    }

    /// `perf run --quick`, in process: one pass per workload and mode.
    /// Every workload must print exactly the declared metrics, verify
    /// clean, and keep the replay within the glue budget.
    #[test]
    fn quick_run_prints_every_declared_metric_for_every_workload() {
        let spec = Spec::embedded();
        for (name, _) in &spec.workloads {
            for trace in [false, true] {
                let r = run_workload(&spec, name, 11, 0, trace).unwrap();
                assert!(r.correct(), "{name} trace {trace}: {:?}", r.notes);
                assert!(r.attempted > 0);
                let decls = if trace { &spec.per_layer } else { &spec.end_to_end };
                let printed: Vec<&str> = r.metrics.iter().map(|m| m.decl.name.as_str()).collect();
                let declared: Vec<&str> = decls.iter().map(|m| m.name.as_str()).collect();
                assert_eq!(printed, declared, "{name} trace {trace}");
                let line = contract_json(&r).render();
                let parsed = Json::parse(&line).unwrap();
                let keys: Vec<&str> = parsed.fields().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(parsed.get("metrics").unwrap().fields().len(), declared.len());
                if !trace {
                    // (a single 17 ms pass may use no whole 10 ms tick of CPU)
                    let zero = |m: &&Measured| m.summary.value <= 0.0 && m.decl.name != "cpu_s";
                    assert!(r.metrics.iter().find(zero).is_none(), "{name}: a zero metric");
                    let exact: Vec<&str> = r.exact.iter().map(|e| e.0).collect();
                    let want: Vec<&str> = EXACT
                        .iter()
                        .filter(|e| e.on.contains(&name.as_str()))
                        .map(|e| e.name)
                        .collect();
                    assert_eq!(exact, want, "{name}");
                    assert_eq!(r.exact.last().unwrap().2, 0.0, "{name}: error_rate");
                }
                if name == "suite_cold" && !trace {
                    // today's deterministic suite results
                    let get = |n: &str| r.exact.iter().find(|e| e.0 == n).unwrap().2;
                    assert_eq!((get("static_cost"), get("bound_gap")), (20383.0, 1100.0));
                    assert_eq!(r.rows.len(), 14);
                }
            }
        }
    }
}
