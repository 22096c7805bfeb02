//! `accsat serve` — a persistent optimization service.
//!
//! The batch driver pays rule compilation and process startup on every
//! invocation; the service pays them once and then amortizes whole
//! pipeline stages across requests through the content-addressed
//! [`StageCache`]. A build system (or an editor
//! integration) keeps one `accsat serve` process alive and streams kernels
//! at it; re-submitted kernels come back at the `selected` cache level
//! without re-running saturation or extraction.
//!
//! # Protocol
//!
//! Line-delimited requests on the input stream, one JSON object per
//! response on the output stream, **in request order** (responses to slow
//! requests are buffered so a fast later request never overtakes them):
//!
//! ```text
//! ping                                        → {"status":"ok","event":"pong"}
//! stats                                       → cache counters + cumulative
//!                                               requests-by-verb (after a barrier:
//!                                               all in-flight requests drain first)
//! metrics                                     → full deterministic metrics
//!                                               registry (same barrier as stats):
//!                                               saturation/extraction/rule/cache
//!                                               counters merged over all requests
//! optimize id=<id> variant=<v> bytes=<N>      → <N> bytes of C source follow the
//!                                               newline; response carries the
//!                                               optimized source and cache level
//! optimize-file id=<id> variant=<v> path=<p>  → same, reading the source from <p>
//! quit                                        → {"status":"ok","event":"bye"}, end
//! ```
//!
//! `<v>` is one of `original`, `cse`, `cse+sat`, `cse+bulk`, `accsat`
//! (case-insensitive; `-` accepted for `+`). Responses never contain wall
//! times — they are byte-deterministic for a given request sequence, so
//! session transcripts can be diffed (CI does exactly that).
//!
//! Requests run concurrently on a worker pool; identical concurrent
//! kernels coalesce through the cache's single-flight claim, so cache
//! levels in the responses are deterministic too.

use crate::cache::{CacheLevel, CacheStats, StageCache};
use crate::metrics::add_opt_stats;
use crate::pipeline::{optimize_program_with, panic_message, OptStats, SaturatorConfig, Variant};
use accsat_ir::{fnv1a, parse_program, print_program, Program};
use accsat_obs::{escape_json, trace, MetricsRegistry};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Concurrent request workers.
    pub threads: usize,
    /// Pipeline configuration shared by every request. If its `cache` is
    /// unset, [`run_session`] installs a per-session in-memory cache; set
    /// it explicitly (e.g. from `--cache-dir`) to share across sessions.
    pub saturator: SaturatorConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig { threads: 2, saturator: SaturatorConfig::default() }
    }
}

/// Optimize a source string through the cached pipeline.
///
/// Returns the optimized program text, the per-kernel statistics, and the
/// request-level [`CacheLevel`]: the *minimum* stage level over the
/// kernels (a request is only as warm as its coldest kernel), floored at
/// `Parsed` when the raw source bytes hit the parse cache. A kernel with
/// an edited comment therefore still reports `selected`: the parse level
/// misses but the kernel fingerprint — taken over canonical printed IR —
/// is unchanged.
pub fn optimize_source(
    src: &str,
    variant: Variant,
    config: &SaturatorConfig,
) -> Result<(String, Vec<OptStats>, CacheLevel), String> {
    let cache = config.cache.as_deref();
    let src_hash = fnv1a(src.as_bytes());
    let mut parsed_floor = CacheLevel::Miss;
    let prog: Arc<Program> = match cache.and_then(|c| c.get_parsed(src_hash)) {
        Some(p) => {
            parsed_floor = CacheLevel::Parsed;
            p
        }
        None => {
            let p = Arc::new(parse_program(src).map_err(|e| format!("parse error: {e}"))?);
            if let Some(c) = cache {
                c.put_parsed(src_hash, p.clone());
            }
            p
        }
    };
    let (optimized, stats) = optimize_program_with(&prog, variant, config)?;
    let kernel_level = stats.iter().map(|s| s.cache_level).min().unwrap_or(parsed_floor);
    let level = parsed_floor.max(kernel_level);
    Ok((print_program(&optimized), stats, level))
}

/// Largest `bytes=` payload an `optimize` request may announce. The
/// count comes straight off the wire and sizes a buffer, so it is bounded
/// before anything is allocated.
const MAX_PAYLOAD_BYTES: usize = 16 << 20;

/// Longest request header line (the longest legal one carries a path): a
/// client that never sends `\n` must not grow the line buffer forever.
const MAX_HEADER_BYTES: usize = 64 << 10;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Job {
    id: String,
    variant: Variant,
    source: String,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Request {
    /// The reader already has the reply: `ping`, `quit`, anything malformed.
    Ready(String),
    Job(Job),
    Barrier,
}

enum Event {
    Submitted(&'static str, Request),
    /// A job is done: reply line and counters, or (the handler panicked) an `error` line.
    Finished(u64, Result<(String, MetricsRegistry), String>),
    /// The report an [`Action::AnswerBarrier`] asked for.
    Reply(u64, String),
    Eof,
    OutputFailed,
}

enum Action {
    Dispatch(u64, Job),
    /// Write this line next; issued strictly in request order.
    Emit(String),
    /// Nothing is in flight: render this barrier's report, feed it back.
    AnswerBarrier(u64, &'static str),
    Close,
}

/// Everything a session decides — what may start, which line is written
/// next, when a barrier answers, when it is over — with no thread, lock,
/// stream or clock, so `tests::every_schedule_keeps_the_promises` can fork
/// it down every interleaving. DESIGN.md (Layer 4) has the event table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Sequencer {
    admitted: u64, // sequence numbers count a session's requests from 0
    emitted: u64,
    /// Not yet admitted: a barrier waits at the front for every running job,
    /// and all behind it wait too, so its report covers exactly what precedes it.
    held: VecDeque<(&'static str, Request)>,
    ready: BTreeMap<u64, String>,
    in_flight: usize,
    /// `AnswerBarrier` is out; its `Reply` resumes admission.
    answering: bool,
    verbs: BTreeMap<&'static str, u64>,
    metrics: MetricsRegistry,
    eof: bool,
    closed: bool,
}

impl Sequencer {
    fn step(&mut self, event: Event) -> Vec<Action> {
        let mut actions = Vec::new();
        match event {
            _ if self.closed => return actions, // jobs outliving a failed output
            Event::Submitted(verb, request) => self.held.push_back((verb, request)),
            Event::Finished(seq, outcome) => {
                self.in_flight -= 1;
                match &outcome {
                    Ok((_, counters)) => self.metrics.merge(counters),
                    Err(_) => self.metrics.add("serve.responses.panic", 1),
                }
                self.ready.insert(seq, outcome.map_or_else(|line| line, |ok| ok.0));
            }
            Event::Reply(seq, line) => {
                self.answering = false;
                self.ready.insert(seq, line);
            }
            Event::Eof => self.eof = true,
            Event::OutputFailed => {
                self.closed = true;
                return vec![Action::Close];
            }
        }
        while !(self.answering
            || self.in_flight > 0 && matches!(self.held.front(), Some((_, Request::Barrier))))
        {
            let Some((verb, request)) = self.held.pop_front() else { break };
            let seq = self.admitted;
            self.admitted += 1;
            *self.verbs.entry(verb).or_insert(0) += 1;
            match request {
                Request::Ready(line) => drop(self.ready.insert(seq, line)),
                Request::Job(job) => {
                    self.in_flight += 1;
                    actions.push(Action::Dispatch(seq, job));
                }
                Request::Barrier => {
                    self.answering = true;
                    actions.push(Action::AnswerBarrier(seq, verb));
                }
            }
        }
        while let Some(line) = self.ready.remove(&self.emitted) {
            self.emitted += 1;
            actions.push(Action::Emit(line));
        }
        if self.eof && self.held.is_empty() && self.emitted == self.admitted {
            self.closed = true;
            actions.push(Action::Close);
        }
        actions
    }

    /// A barrier's reply. Every earlier request is tallied, no later one has
    /// started, counters merge commutatively: a function of the request sequence.
    fn report(&self, verb: &str, cache: CacheStats) -> String {
        if verb == "stats" {
            let tally: Vec<_> = self.verbs.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            let (cache, requests) = (cache.to_json(), tally.join(","));
            return format!(
                "{{\"status\":\"ok\",\"event\":\"stats\",\"cache\":{cache},\"requests\":{{{requests}}}}}"
            );
        }
        let mut reg = self.metrics.clone();
        cache.add_to(&mut reg);
        for (k, v) in &self.verbs {
            reg.add(&format!("serve.request.{k}"), *v);
        }
        format!("{{\"status\":\"ok\",\"event\":\"metrics\",\"metrics\":{}}}", reg.to_json())
    }
}

fn error_line(id: Option<&str>, msg: &str) -> String {
    let id = id.map(|id| format!("\"id\":\"{}\",", escape_json(id))).unwrap_or_default();
    format!("{{{id}\"status\":\"error\",\"error\":\"{}\"}}", escape_json(msg))
}

fn handle_optimize(job: &Job, config: &SaturatorConfig) -> (String, MetricsRegistry) {
    let _span = trace::span_named("serve", || format!("request {}", job.id));
    let mut counters = MetricsRegistry::new();
    let line = match optimize_source(&job.source, job.variant, config) {
        Ok((text, stats, level)) => {
            for s in &stats {
                add_opt_stats(&mut counters, s);
            }
            counters.add("serve.responses.ok", 1);
            let cost: u64 = stats.iter().map(|s| s.extracted_cost).sum();
            let proven = stats.iter().all(|s| s.extraction_proven);
            format!(
                concat!(
                    "{{\"id\":\"{}\",\"status\":\"ok\",\"variant\":\"{}\",\"cache\":\"{}\",",
                    "\"kernels\":{},\"cost\":{},\"proven\":{},\"source\":\"{}\"}}"
                ),
                escape_json(&job.id),
                job.variant.label(),
                level.label(),
                stats.len(),
                cost,
                proven,
                escape_json(&text)
            )
        }
        Err(e) => {
            counters.add("serve.responses.error", 1);
            error_line(Some(&job.id), &e)
        }
    };
    (line, counters)
}

/// Parse the request whose header is `line`. `true`: none can follow — `quit`,
/// or a header or payload refused unread, which leaves the stream out of step.
fn read_request(line: &str, input: &mut impl BufRead) -> (&'static str, Request, bool) {
    let ready = |reply: &str| Request::Ready(reply.to_string());
    let refuse = |why: String| Request::Ready(error_line(None, &why));
    if line.len() > MAX_HEADER_BYTES && !line.ends_with('\n') {
        let why = format!("request header exceeds the {MAX_HEADER_BYTES}-byte limit");
        return ("unknown", refuse(why), true);
    }
    let mut toks = line.split_whitespace();
    let cmd = toks.next().expect("non-empty line has a token");
    let verb = match cmd {
        "ping" => return ("ping", ready("{\"status\":\"ok\",\"event\":\"pong\"}"), false),
        "quit" => return ("quit", ready("{\"status\":\"ok\",\"event\":\"bye\"}"), true),
        "stats" => return ("stats", Request::Barrier, false),
        "metrics" => return ("metrics", Request::Barrier, false),
        "optimize" => "optimize",
        "optimize-file" => "optimize-file",
        other => return ("unknown", refuse(format!("unknown request {other:?}")), false),
    };
    let mut oversize = false;
    let job = (|| -> Result<Job, String> {
        let fields = toks
            .map(|tok| match tok.split_once('=') {
                Some((k, v)) if ["id", "variant", "bytes", "path"].contains(&k) => Ok((k, v)),
                Some((k, _)) => Err(format!("unknown field {k:?}")),
                None => Err(format!("malformed field {tok:?}")),
            })
            .collect::<Result<BTreeMap<_, _>, String>>()?;
        let field = |k: &str| fields.get(k).copied().ok_or_else(|| format!("missing {k}="));
        let id = field("id")?.to_string();
        let variant = Variant::parse(field("variant")?).ok_or("unknown variant")?;
        let source = if cmd == "optimize" {
            let n: usize = field("bytes")?.parse().map_err(|e| format!("bad bytes=: {e}"))?;
            if n > MAX_PAYLOAD_BYTES {
                oversize = true;
                return Err(format!("bytes={n} exceeds the {MAX_PAYLOAD_BYTES}-byte limit"));
            }
            let mut buf = vec![0u8; n];
            input.read_exact(&mut buf).map_err(|e| format!("short payload: {e}"))?;
            String::from_utf8(buf).map_err(|_| "payload is not UTF-8".to_string())?
        } else {
            let path = field("path")?;
            std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?
        };
        Ok(Job { id, variant, source })
    })();
    match job {
        Ok(job) => (verb, Request::Job(job), false),
        Err(why) => (verb, refuse(why), oversize),
    }
}

/// Run one service session over arbitrary streams until `quit` or EOF.
///
/// This is the whole daemon: `accsat serve` calls it on locked
/// stdin/stdout, the Unix-socket listener calls it per connection, and
/// tests call it on in-memory buffers to diff golden transcripts.
///
/// The reader (this thread), the workers and the writer feed `Sequencer`
/// events and perform its actions under one lock, which orders `Emit`s; actions
/// only push onto unbounded queues (the writer writes unlocked), so a client
/// may pipeline any number of requests before reading a reply.
pub fn run_session<R: BufRead, W: Write + Send>(
    mut input: R,
    output: W,
    config: &ServeConfig,
) -> std::io::Result<()> {
    let mut saturator = config.saturator.clone();
    let cache = saturator.cache.get_or_insert_with(|| Arc::new(StageCache::in_memory())).clone();
    let (job_tx, job_rx) = mpsc::channel::<(u64, Job)>();
    let job_rx = Mutex::new(job_rx);
    let (line_tx, line_rx) = mpsc::channel::<String>();
    // the two queues drop at `Close`, which ends the workers and the writer
    let shell = Mutex::new((Sequencer::default(), Some((job_tx, line_tx))));
    let feed = |event: Event| -> bool {
        let mut guard = shell.lock().expect("nothing panics under the session lock");
        let (seq, queues) = &mut *guard;
        if let Event::Finished(..) = event {
            trace::counter("serve", "queue.depth", seq.in_flight.saturating_sub(1) as u64);
        }
        // a queue, not recursion: a thousand pipelined `stats` answer in a row
        let mut actions = VecDeque::from(seq.step(event));
        while let Some(action) = actions.pop_front() {
            let (jobs, lines) = queues.as_ref().expect("`Close` is the last action");
            match action {
                Action::Dispatch(n, job) => {
                    trace::counter("serve", "queue.depth", seq.in_flight as u64);
                    let _ = jobs.send((n, job));
                }
                Action::Emit(line) => drop(lines.send(line)),
                Action::AnswerBarrier(n, verb) => {
                    let reply = Event::Reply(n, seq.report(verb, cache.stats()));
                    actions.extend(seq.step(reply));
                }
                Action::Close => *queues = None,
            }
        }
        queues.is_some() // `false`: the session is closed
    };
    std::thread::scope(|scope| -> std::io::Result<()> {
        let writer = scope.spawn(|| {
            let mut output = output;
            let mut write = |line| writeln!(output, "{line}").and_then(|()| output.flush());
            let written = line_rx.into_iter().try_for_each(&mut write);
            written.inspect_err(|_| _ = feed(Event::OutputFailed))
        });
        for _ in 0..config.threads.max(1) {
            scope.spawn(|| loop {
                let next = job_rx.lock().expect("job queue lock").recv();
                let Ok((seq, job)) = next else { break };
                // a panic is this job's reply, not the end of the worker
                let outcome = catch_unwind(AssertUnwindSafe(|| handle_optimize(&job, &saturator)))
                    .map_err(|p| format!("internal: panicked: {}", panic_message(&*p)));
                feed(Event::Finished(seq, outcome.map_err(|e| error_line(Some(&job.id), &e))));
            });
        }
        let mut line = String::new();
        let read = loop {
            line.clear();
            match input.by_ref().take(MAX_HEADER_BYTES as u64 + 1).read_line(&mut line) {
                Ok(0) => break Ok(()),
                Err(e) => break Err(e),
                Ok(_) if line.trim().is_empty() => continue,
                Ok(_) => {}
            }
            let (verb, request, last) = read_request(&line, &mut input);
            if !feed(Event::Submitted(verb, request)) || last {
                break Ok(());
            }
        };
        feed(Event::Eof); // on a read error too: only the sequencer closes the queues
        read.and(writer.join().expect("writer thread must not panic"))
    })
}

/// Serve sessions on a Unix-domain socket, one thread per connection,
/// until the process is killed. All connections share `config` —
/// including its stage cache, when one is set.
#[cfg(unix)]
pub fn serve_unix_socket(path: &std::path::Path, config: &ServeConfig) -> std::io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            scope.spawn(move || {
                let Ok(reader) = stream.try_clone() else { return };
                let _ = run_session(std::io::BufReader::new(reader), stream, config);
            });
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    const KERNEL: &str = r#"void k(double a[32], double out[32], double c) {
  #pragma acc parallel loop gang vector
  for (int i = 1; i < 31; i++) {
    out[i] = c * a[i - 1] + c * a[i] + c * a[i + 1];
  }
}
"#;

    fn session(requests: &str, config: &ServeConfig) -> Vec<String> {
        let mut out = Vec::new();
        run_session(requests.as_bytes(), &mut out, config).expect("session runs");
        String::from_utf8(out).unwrap().lines().map(str::to_string).collect()
    }

    fn optimize_request(id: &str, variant: &str, src: &str) -> String {
        format!("optimize id={id} variant={variant} bytes={}\n{src}", src.len())
    }

    #[test]
    fn responses_arrive_in_request_order_and_reuse_stages() {
        let config = ServeConfig { threads: 4, ..ServeConfig::default() };
        let mut script = String::from("ping\n");
        script.push_str(&optimize_request("cold", "accsat", KERNEL));
        // `stats` is a barrier: the cold request completes before `warm`
        // is read, so the cache levels in the transcript are deterministic
        // even with four workers
        script.push_str("stats\n");
        script.push_str(&optimize_request("warm", "accsat", KERNEL));
        script.push_str("stats\nmetrics\nquit\n");
        let lines = session(&script, &config);
        assert_eq!(lines.len(), 7);
        assert_eq!(lines[0], "{\"status\":\"ok\",\"event\":\"pong\"}");
        assert!(lines[1].starts_with("{\"id\":\"cold\""));
        assert!(lines[1].contains("\"cache\":\"miss\""), "cold request: {}", lines[1]);
        assert_eq!(
            lines[2],
            "{\"status\":\"ok\",\"event\":\"stats\",\"cache\":{\"parsed_hits\":0,\
             \"parsed_misses\":1,\"sat_hits\":0,\"sat_misses\":1,\"sel_hits\":0,\
             \"sel_misses\":1,\"evictions\":0,\"coalesced\":0},\
             \"requests\":{\"optimize\":1,\"ping\":1,\"stats\":1}}"
        );
        assert!(lines[3].starts_with("{\"id\":\"warm\""));
        assert!(lines[3].contains("\"cache\":\"selected\""), "warm request: {}", lines[3]);
        assert!(lines[4].contains("\"sel_hits\":1"), "{}", lines[4]);
        assert!(lines[4].contains("\"requests\":{\"optimize\":2,\"ping\":1,\"stats\":2}"));
        // the metrics reply merges worker registries + the cache snapshot
        let m = &lines[5];
        assert!(
            m.starts_with("{\"status\":\"ok\",\"event\":\"metrics\",\"metrics\":{\"counters\":{")
        );
        for needle in [
            "\"kernels\":2",
            "\"serve.responses.ok\":2",
            "\"cache.sel.hits\":1",
            "\"cache.sel.misses\":1",
            "\"serve.request.optimize\":2",
            "\"serve.request.metrics\":1",
        ] {
            assert!(m.contains(needle), "metrics reply missing {needle}: {m}");
        }
        assert!(lines[6].contains("\"event\":\"bye\""));
        // warm and cold agree on everything but the cache level
        assert_eq!(
            lines[1].replace("\"id\":\"cold\"", "").replace("\"cache\":\"miss\"", ""),
            lines[3].replace("\"id\":\"warm\"", "").replace("\"cache\":\"selected\"", ""),
        );
    }

    #[test]
    fn comment_edits_still_hit_the_selected_level() {
        // one worker: requests process strictly in order, so the second
        // is guaranteed to find the first's cache entries
        let config = ServeConfig { threads: 1, ..ServeConfig::default() };
        let edited = KERNEL.replace("out[i] =", "/* stencil write */ out[i] =");
        assert_ne!(edited, KERNEL);
        let mut script = optimize_request("a", "accsat", KERNEL);
        script.push_str(&optimize_request("b", "accsat", &edited));
        script.push_str("quit\n");
        let lines = session(&script, &config);
        // source bytes differ (parse-level miss) but the kernel fingerprint
        // is over canonical printed IR, so both cached stages hit
        assert!(lines[1].contains("\"cache\":\"selected\""), "comment edit: {}", lines[1]);
        // and the optimized output is byte-identical
        let src = |l: &str| l.split("\"source\":").nth(1).unwrap().to_string();
        assert_eq!(src(&lines[0]), src(&lines[1]));
    }

    #[test]
    fn malformed_requests_get_error_responses_in_order() {
        let config = ServeConfig::default();
        let lines = session("bogus\noptimize id=x variant=nope bytes=0\nping\nquit\n", &config);
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"status\":\"error\""));
        assert!(lines[1].contains("unknown variant"));
        assert_eq!(lines[2], "{\"status\":\"ok\",\"event\":\"pong\"}");
    }

    #[test]
    fn parse_errors_are_reported_not_fatal() {
        let config = ServeConfig::default();
        let bad = "void k( {\n";
        let mut script = format!("optimize id=bad variant=cse bytes={}\n{bad}", bad.len());
        script.push_str("quit\n");
        let lines = session(&script, &config);
        assert!(lines[0].contains("\"status\":\"error\""), "{}", lines[0]);
        assert!(lines[0].contains("parse error"));
    }

    #[test]
    fn oversize_payload_header_is_an_error_and_ends_the_session() {
        // `bytes=` sizes the read buffer; usize::MAX used to abort the
        // reader thread with "capacity overflow"
        let config = ServeConfig { threads: 2, ..ServeConfig::default() };
        let mut script = String::from("ping\n");
        script.push_str(&optimize_request("k", "accsat", KERNEL));
        script.push_str(&format!("optimize id=a variant=accsat bytes={}\n", usize::MAX));
        script.push_str("ping\n");
        let lines = session(&script, &config);
        // what was queued before is still answered, in order; nothing after
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert_eq!(lines[0], "{\"status\":\"ok\",\"event\":\"pong\"}");
        assert!(lines[1].starts_with("{\"id\":\"k\",\"status\":\"ok\""), "{}", lines[1]);
        assert_eq!(
            lines[2],
            format!(
                "{{\"status\":\"error\",\"error\":\"bytes={} exceeds the 16777216-byte limit\"}}",
                usize::MAX
            )
        );
        // one byte over is refused, the limit itself is only short of payload
        let over = format!("optimize id=a variant=accsat bytes={}\nping\n", MAX_PAYLOAD_BYTES + 1);
        assert_eq!(session(&over, &config).len(), 1);
        let at = format!("optimize id=a variant=accsat bytes={MAX_PAYLOAD_BYTES}\nping\n");
        let lines = session(&at, &config);
        assert!(lines[0].contains("short payload"), "{}", lines[0]);
    }
    #[test]
    fn overlong_header_is_an_error_and_ends_the_session() {
        // a client that never sends `\n` used to grow the line buffer without
        // bound; now the header is refused at the cap, in sequence order
        let config = ServeConfig::default();
        let mut script = String::from("ping\n");
        script.push_str(&optimize_request("k", "accsat", KERNEL));
        script.push_str(&"x".repeat(MAX_HEADER_BYTES + 1));
        script.push_str("\nping\n");
        let lines = session(&script, &config);
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[1].starts_with("{\"id\":\"k\",\"status\":\"ok\""), "{}", lines[1]);
        assert_eq!(
            lines[2],
            "{\"status\":\"error\",\"error\":\"request header exceeds the 65536-byte limit\"}"
        );
        // the cap itself is a legal (if unknown) request: the session goes on
        let at = format!("{}\nping\n", "x".repeat(MAX_HEADER_BYTES));
        let lines = session(&at, &config);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("unknown request"), "{}", &lines[0][..80]);
    }

    /// `body` as the statement of a one-loop kernel over `a`, `out` and a
    /// scalar `boom`.
    fn kernel_with(body: &str) -> String {
        format!(
            "void k(double a[32], double out[32], double boom) {{\n  \
             #pragma acc parallel loop gang vector\n  \
             for (int i = 1; i < 31; i++) {{\n    {body}\n  }}\n}}\n"
        )
    }

    /// A session in which optimizing any kernel that mentions the symbol
    /// `boom` panics inside saturation with the message `injected`: the stock
    /// rules plus one whose side condition blows up. No seam in the product
    /// code is needed — `SaturatorConfig::rules` is the extension point
    /// `examples/custom_rules.rs` documents.
    fn booby_trapped(threads: usize) -> ServeConfig {
        use accsat_egraph::{all_rules, Op, Rewrite};
        let mut rules = all_rules();
        rules.push(Rewrite::new("BOOM", "(+ ?a ?b)", "(+ ?b ?a)").with_condition(|eg, _| {
            assert!(eg.classes_with_op(&Op::Sym("boom".into())).is_empty(), "injected");
            false
        }));
        let saturator = SaturatorConfig { rules: Arc::new(rules), ..SaturatorConfig::default() };
        ServeConfig { threads, saturator }
    }

    #[test]
    fn a_panicking_request_is_one_error_line_and_the_session_goes_on() {
        // at the parent commit these printed nothing / only `a` / hung forever
        let boom = optimize_request("boom", "accsat", &kernel_with("out[i] = a[i] + boom;"));
        let a = optimize_request("a", "accsat", &kernel_with("out[i] = a[i] + a[i - 1];"));
        let b = optimize_request("b", "accsat", &kernel_with("out[i] = a[i] * a[i + 1];"));
        let boom_line =
            "{\"id\":\"boom\",\"status\":\"error\",\"error\":\"internal: panicked: injected\"}";
        let scripts = [
            format!("{boom}ping\nquit\n"),
            format!("{a}{boom}{b}quit\n"),
            format!("{boom}stats\nmetrics\nquit\n"),
        ];
        for (script, requests, boom_at) in
            [(&scripts[0], 3, 0), (&scripts[1], 4, 1), (&scripts[2], 4, 0)]
        {
            let golden = session(script, &booby_trapped(1));
            assert_eq!(golden.len(), requests, "one line per request: {golden:?}");
            assert_eq!(golden[boom_at], boom_line);
            assert_eq!(golden[requests - 1], "{\"status\":\"ok\",\"event\":\"bye\"}");
            for threads in [2, 8] {
                assert_eq!(session(script, &booby_trapped(threads)), golden, "{threads} workers");
            }
        }
        let lines = session(&scripts[1], &booby_trapped(2));
        assert!(lines[0].starts_with("{\"id\":\"a\",\"status\":\"ok\""), "{}", lines[0]);
        assert!(lines[2].starts_with("{\"id\":\"b\",\"status\":\"ok\""), "{}", lines[2]);
        // the barriers return, and the panic is counted where `metrics` can see it
        let lines = session(&scripts[2], &booby_trapped(2));
        assert!(lines[1].contains("\"requests\":{\"optimize\":1,\"stats\":1}"), "{}", lines[1]);
        assert!(lines[2].contains("\"serve.responses.panic\":1"), "{}", lines[2]);
        // a session without a panic never mentions the key (no golden moves)
        let clean = session(&format!("{a}metrics\nquit\n"), &booby_trapped(2));
        assert!(!clean[1].contains("serve.responses.panic"), "{}", clean[1]);
    }

    #[test]
    fn a_client_may_pipeline_600_requests_before_reading_a_reply() {
        // both pipes fill long before the 600th request is written; the
        // session must keep reading (the writer blocks alone, off the lock)
        let config = ServeConfig { threads: 2, ..ServeConfig::default() };
        let (req_rx, mut req_tx) = std::io::pipe().expect("request pipe");
        let (resp_rx, resp_tx) = std::io::pipe().expect("response pipe");
        std::thread::scope(|scope| {
            let server =
                scope.spawn(|| run_session(std::io::BufReader::new(req_rx), resp_tx, &config));
            for i in 0..600 {
                let request = optimize_request(&format!("r{i}"), "accsat", KERNEL);
                req_tx.write_all(request.as_bytes()).expect("the session keeps reading");
            }
            req_tx.write_all(b"quit\n").unwrap();
            drop(req_tx);
            let replies: Vec<String> =
                std::io::BufReader::new(resp_rx).lines().map(Result::unwrap).collect();
            assert_eq!(replies.len(), 601);
            for (i, line) in replies[..600].iter().enumerate() {
                assert!(
                    line.starts_with(&format!("{{\"id\":\"r{i}\",\"status\":\"ok\"")),
                    "{line}"
                );
            }
            assert_eq!(replies[600], "{\"status\":\"ok\",\"event\":\"bye\"}");
            server.join().unwrap().expect("session ends cleanly");
        });
    }

    #[test]
    fn a_failing_output_ends_the_session_with_its_error() {
        /// Accepts one line, then fails like a closed pipe.
        struct OneLine(usize);
        impl Write for OneLine {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0 += buf.iter().filter(|b| **b == b'\n').count();
                if self.0 > 1 {
                    return Err(std::io::ErrorKind::BrokenPipe.into());
                }
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut script = String::from("ping\nping\n");
        for i in 0..20 {
            script.push_str(&optimize_request(&format!("r{i}"), "accsat", KERNEL));
        }
        script.push_str("stats\nquit\n");
        for threads in [1, 2, 8] {
            let config = ServeConfig { threads, ..ServeConfig::default() };
            let err = run_session(script.as_bytes(), OneLine(0), &config).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe, "{threads} workers");
        }
    }

    #[test]
    fn nesting_at_the_parser_limit_survives_a_worker_stack() {
        // the deepest kernel of each shape the parser accepts goes parse →
        // print → fingerprint → SSA → saturate → extract → codegen on a stack
        // the size of a `serve` worker's (2 MiB, this debug build included);
        // one level deeper is an ordinary parse error
        type Shape = (&'static str, fn(usize) -> String);
        let shapes: [Shape; 6] = [
            ("parens", |k| format!("out[i] = {}a[i]{};", "(".repeat(k), ")".repeat(k))),
            ("negations", |k| format!("out[i] = {}a[i];", "- ".repeat(k))),
            ("chain", |k| format!("out[i] = a[i]{};", " + a[i]".repeat(k))),
            ("calls", |k| format!("out[i] = {}a[i]{};", "sqrt(".repeat(k), ")".repeat(k))),
            ("ternaries", |k| format!("out[i] = {}a[i];", "a[i] < boom ? boom : ".repeat(k))),
            ("blocks", |k| format!("{}out[i] = a[i];{}", "{ ".repeat(k), " }".repeat(k))),
        ];
        for (shape, body) in shapes {
            let accepted = |k: usize| accsat_ir::parse_program(&kernel_with(&body(k))).is_ok();
            let mut k = 1;
            while accepted(k + 1) {
                k += 1;
            }
            assert!((100..200).contains(&k), "{shape}: deepest accepted nesting {k}");
            let err = accsat_ir::parse_program(&kernel_with(&body(k + 1))).unwrap_err();
            assert!(err.message.starts_with("nesting deeper than "), "{shape}: {err}");
            let src = kernel_with(&body(k));
            let worker = std::thread::Builder::new().stack_size(2 << 20).spawn(move || {
                optimize_source(&src, Variant::AccSat, &SaturatorConfig::default()).map(|r| r.0)
            });
            let out = worker.unwrap().join().expect("no panic").expect("optimizes");
            assert!(out.contains("#pragma acc parallel loop"), "{shape}: {out}");
        }
    }

    // ---- the sequencer, model-checked -----------------------------------

    /// The request kinds of the model: an `optimize` that succeeds, fails or
    /// panics, `ping`, and `stats` (`metrics` takes the same path).
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Kind {
        Good,
        Bad,
        Panic,
        Ping,
        Stats,
    }
    const KINDS: [Kind; 5] = [Kind::Good, Kind::Bad, Kind::Panic, Kind::Ping, Kind::Stats];

    fn model_request(kind: Kind, i: usize) -> (&'static str, Request) {
        let job = |id: String| Job { id, variant: Variant::AccSat, source: String::new() };
        match kind {
            Kind::Ping => ("ping", Request::Ready(format!("pong {i}"))),
            Kind::Stats => ("stats", Request::Barrier),
            _ => ("optimize", Request::Job(job(format!("{kind:?} {i}")))),
        }
    }

    /// What a worker reports for a job: a function of the job alone.
    fn model_outcome(job: &Job) -> Result<(String, MetricsRegistry), String> {
        let mut counters = MetricsRegistry::new();
        match job.id.split(' ').next() {
            Some("Good") => counters.add("good", 1 + job.id.len() as u64),
            Some("Bad") => counters.add("bad", 1),
            _ => return Err(format!("panicked {}", job.id)),
        }
        Ok((format!("done {}", job.id), counters))
    }

    /// The model's barrier report: everything the real one reads off the
    /// sequencer (the cache snapshot is the shell's business).
    fn model_report(seq: &Sequencer) -> String {
        format!("stats {:?} {}", seq.verbs, seq.metrics.to_json())
    }

    /// One run of the search: a script, how it ends, how many workers, and
    /// what a strictly serial session answers to it.
    struct Run<'a> {
        script: &'a [Kind],
        quit: bool,
        workers: usize,
        oracle: &'a (Vec<String>, Sequencer),
    }

    /// One point of the search: the sequencer plus the world around it.
    #[derive(Clone, Default, PartialEq, Eq)]
    struct World {
        seq: Sequencer,
        /// Requests the reader has submitted.
        read: usize,
        eof: bool,
        /// Dispatched and unfinished, in dispatch order; with `w` workers the
        /// first `w` are running and any of them may finish next.
        queue: VecDeque<(u64, Job)>,
        /// An `AnswerBarrier` the shell performed and has yet to feed back.
        reply: Option<(u64, String)>,
        /// Barriers submitted and not yet replied to.
        open_barriers: Vec<u64>,
        /// Lines emitted, each checked against the oracle as it came.
        emitted: usize,
        closed: bool,
    }

    /// A cheap digest for the table of visited states; `Eq` compares it all.
    impl std::hash::Hash for World {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            (self.read, self.eof, self.emitted, self.seq.admitted, self.reply.is_some())
                .hash(state);
            self.queue.iter().for_each(|(n, _)| n.hash(state));
        }
    }

    impl World {
        fn feed(&mut self, event: Event, run: &Run) {
            let was_closed = self.closed;
            for action in self.seq.step(event) {
                assert!(!was_closed, "an action after `Close`");
                match action {
                    Action::Dispatch(n, job) => {
                        assert!(
                            self.open_barriers.iter().all(|b| *b > n),
                            "job {n} dispatched past unanswered barriers {:?}",
                            self.open_barriers
                        );
                        self.queue.push_back((n, job));
                    }
                    Action::Emit(line) => {
                        // one line per request, in order, the serial session's bytes
                        assert_eq!(Some(&line), run.oracle.0.get(self.emitted), "{:?}", run.script);
                        self.emitted += 1;
                    }
                    Action::AnswerBarrier(n, verb) => {
                        assert_eq!(verb, "stats");
                        assert!(self.queue.is_empty(), "barrier {n} answered with jobs in flight");
                        assert_eq!(self.open_barriers.first(), Some(&n), "answered once, in order");
                        assert!(self.reply.is_none());
                        self.reply = Some((n, model_report(&self.seq)));
                    }
                    Action::Close => {
                        assert!(!self.closed, "closed twice");
                        self.closed = true;
                    }
                }
            }
        }
    }

    /// Depth-first over every order in which the ready events can fire;
    /// returns the number of complete schedules from `world` on. Schedules
    /// that meet in the same state share its subtree: `seen` holds the count
    /// for every state already explored (and checked).
    fn explore(world: World, run: &Run, seen: &mut HashMap<World, u64>) -> u64 {
        if let Some(schedules) = seen.get(&world) {
            return *schedules;
        }
        // whatever the state, losing the output closes the session at once
        // and the jobs still running are then ignored
        if !world.closed {
            let mut lost = world.clone();
            lost.feed(Event::OutputFailed, run);
            assert!(lost.closed);
            for (n, job) in lost.queue.clone() {
                lost.feed(Event::Finished(n, model_outcome(&job)), run);
            }
        }
        let mut schedules = 0;
        let mut fork = |event: Event, update: &dyn Fn(&mut World)| {
            let mut next = world.clone();
            update(&mut next);
            next.feed(event, run);
            schedules += explore(next, run, seen);
        };
        // the reader: the next request, then `quit`, then end of input
        if world.read < run.script.len() {
            let (verb, request) = model_request(run.script[world.read], world.read);
            let barrier = matches!(request, Request::Barrier).then_some(world.read as u64);
            fork(Event::Submitted(verb, request), &|w| {
                w.read += 1;
                w.open_barriers.extend(barrier);
            });
        } else if run.quit && world.read == run.script.len() {
            fork(Event::Submitted("quit", Request::Ready("bye".into())), &|w| w.read += 1);
        } else if !world.eof {
            fork(Event::Eof, &|w| w.eof = true);
        }
        // a worker: any running job finishes
        for i in 0..world.queue.len().min(run.workers) {
            let (n, job) = &world.queue[i];
            fork(Event::Finished(*n, model_outcome(job)), &|w| drop(w.queue.remove(i)));
        }
        // the shell: the report it rendered goes back in
        if let Some((n, line)) = &world.reply {
            fork(Event::Reply(*n, line.clone()), &|w| {
                w.reply = None;
                w.open_barriers.remove(0);
            });
        }
        if schedules == 0 {
            // nothing left to happen: the session must be over, every request
            // answered, and what it tallied a function of the script alone
            assert!(world.closed, "stuck before `Close`: {:?}", world.seq);
            assert!(world.eof && world.queue.is_empty() && world.reply.is_none());
            assert_eq!(world.emitted, run.oracle.0.len(), "{:?}", run.script);
            assert_eq!(world.seq.verbs, run.oracle.1.verbs);
            assert_eq!(world.seq.metrics, run.oracle.1.metrics);
            schedules = 1;
        }
        seen.insert(world, schedules);
        schedules
    }

    /// What a strictly serial session answers: the oracle every schedule must match.
    fn serial_transcript(script: &[Kind], quit: bool) -> (Vec<String>, Sequencer) {
        let mut seq = Sequencer::default();
        let mut lines = Vec::new();
        for (i, kind) in script.iter().enumerate() {
            let (verb, request) = model_request(*kind, i);
            *seq.verbs.entry(verb).or_insert(0) += 1;
            lines.push(match request {
                Request::Ready(line) => line,
                Request::Barrier => model_report(&seq),
                Request::Job(job) => match model_outcome(&job) {
                    Ok((line, counters)) => {
                        seq.metrics.merge(&counters);
                        line
                    }
                    Err(line) => {
                        seq.metrics.add("serve.responses.panic", 1);
                        line
                    }
                },
            });
        }
        if quit {
            *seq.verbs.entry("quit").or_insert(0) += 1;
            lines.push("bye".into());
        }
        (lines, seq)
    }

    #[test]
    fn every_schedule_keeps_the_promises() {
        // every script of up to four requests, ended by `quit` or by end of
        // input, on one to three workers, under every interleaving of the
        // reader, the workers and the barrier replies
        let mut scripts: Vec<Vec<Kind>> = vec![vec![]];
        for len in 0..4 {
            let longer: Vec<Vec<Kind>> = scripts
                .iter()
                .filter(|s| s.len() == len)
                .flat_map(|s| KINDS.iter().map(move |k| [s.as_slice(), &[*k]].concat()))
                .collect();
            scripts.extend(longer);
        }
        assert_eq!(scripts.len(), 1 + 5 + 25 + 125 + 625);
        let (mut schedules, mut states) = (0, 0);
        for script in &scripts {
            for quit in [false, true] {
                let oracle = serial_transcript(script, quit);
                for workers in 1..=3 {
                    let mut seen = HashMap::new();
                    let run = Run { script, quit, workers, oracle: &oracle };
                    schedules += explore(World::default(), &run, &mut seen);
                    states += seen.len();
                }
            }
        }
        println!("{schedules} schedules through {states} states of {} scripts", scripts.len());
        assert!((10_000..10_000_000).contains(&schedules), "{schedules}");
    }
}
