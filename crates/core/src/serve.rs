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

use crate::cache::{CacheLevel, StageCache};
use crate::metrics::add_opt_stats;
use crate::pipeline::{optimize_program_with, OptStats, SaturatorConfig, Variant};
use accsat_egraph::ThreadBudget;
use accsat_ir::{fnv1a, parse_program, print_program, Program};
use accsat_obs::{escape_json, trace, MetricsRegistry};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::sync::{mpsc, Arc, Condvar, Mutex};

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

fn parse_variant(s: &str) -> Option<Variant> {
    match s.to_ascii_lowercase().replace('-', "+").as_str() {
        "original" => Some(Variant::Original),
        "cse" => Some(Variant::Cse),
        "cse+sat" | "csesat" => Some(Variant::CseSat),
        "cse+bulk" | "csebulk" => Some(Variant::CseBulk),
        "accsat" => Some(Variant::AccSat),
        _ => None,
    }
}

struct Job {
    seq: u64,
    id: String,
    variant: Variant,
    source: String,
}

fn error_line(id: Option<&str>, msg: &str) -> String {
    match id {
        Some(id) => format!(
            "{{\"id\":\"{}\",\"status\":\"error\",\"error\":\"{}\"}}",
            escape_json(id),
            escape_json(msg)
        ),
        None => format!("{{\"status\":\"error\",\"error\":\"{}\"}}", escape_json(msg)),
    }
}

fn handle_optimize(
    job: &Job,
    config: &SaturatorConfig,
    metrics: &Mutex<MetricsRegistry>,
) -> String {
    let _span = trace::span_named("serve", || format!("request {}", job.id));
    match optimize_source(&job.source, job.variant, config) {
        Ok((text, stats, level)) => {
            // fold this request's deterministic counters into the session
            // registry off to the side; the merge is commutative, so the
            // worker interleaving never shows in a `metrics` reply
            let mut local = MetricsRegistry::new();
            for s in &stats {
                add_opt_stats(&mut local, s);
            }
            local.add("serve.responses.ok", 1);
            metrics.lock().expect("metrics lock").merge(&local);
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
            metrics.lock().expect("metrics lock").add("serve.responses.error", 1);
            error_line(Some(&job.id), &e)
        }
    }
}

/// Key=value fields of a request header line.
struct Fields<'a> {
    id: Option<&'a str>,
    variant: Option<&'a str>,
    bytes: Option<&'a str>,
    path: Option<&'a str>,
}

fn parse_fields<'a>(toks: impl Iterator<Item = &'a str>) -> Result<Fields<'a>, String> {
    let mut f = Fields { id: None, variant: None, bytes: None, path: None };
    for tok in toks {
        let (k, v) = tok.split_once('=').ok_or_else(|| format!("malformed field {tok:?}"))?;
        match k {
            "id" => f.id = Some(v),
            "variant" => f.variant = Some(v),
            "bytes" => f.bytes = Some(v),
            "path" => f.path = Some(v),
            _ => return Err(format!("unknown field {k:?}")),
        }
    }
    Ok(f)
}

/// Run one service session over arbitrary streams until `quit` or EOF.
///
/// This is the whole daemon: `accsat serve` calls it on locked
/// stdin/stdout, the Unix-socket listener calls it per connection, and
/// tests call it on in-memory buffers to diff golden transcripts.
pub fn run_session<R: BufRead, W: Write + Send>(
    mut input: R,
    output: W,
    config: &ServeConfig,
) -> std::io::Result<()> {
    let mut saturator = config.saturator.clone();
    if saturator.cache.is_none() {
        saturator.cache = Some(Arc::new(StageCache::in_memory()));
    }
    if saturator.thread_budget.is_none() {
        // request workers are the outer level of the two-level pool; with
        // no spare budget each request's saturation/extraction stays
        // single-threaded and concurrency comes from request fan-out,
        // mirroring the batch driver's fully-loaded configuration
        saturator.thread_budget = Some(Arc::new(ThreadBudget::new(0)));
    }
    let cache = saturator.cache.clone().expect("cache installed above");
    let workers = config.threads.max(1);
    // in-flight request count, for the `stats`/`metrics` barrier
    let outstanding = Arc::new((Mutex::new(0usize), Condvar::new()));
    // session-cumulative deterministic counters, merged in by workers
    let metrics = Arc::new(Mutex::new(MetricsRegistry::new()));
    // requests seen, keyed by verb; only the (serial) reader touches this
    let mut verbs: BTreeMap<&'static str, u64> = BTreeMap::new();

    std::thread::scope(|scope| -> std::io::Result<()> {
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (res_tx, res_rx) = mpsc::channel::<(u64, String)>();

        // writer: reorder completions into request order
        let writer = scope.spawn(move || -> std::io::Result<()> {
            let mut output = output;
            let mut next = 0u64;
            let mut pending: BTreeMap<u64, String> = BTreeMap::new();
            while let Ok((seq, line)) = res_rx.recv() {
                pending.insert(seq, line);
                while let Some(line) = pending.remove(&next) {
                    writeln!(output, "{line}")?;
                    output.flush()?;
                    next += 1;
                }
            }
            Ok(())
        });

        for _ in 0..workers {
            let job_rx = Arc::clone(&job_rx);
            let res_tx = res_tx.clone();
            let saturator = saturator.clone();
            let outstanding = Arc::clone(&outstanding);
            let metrics = Arc::clone(&metrics);
            scope.spawn(move || loop {
                let job = job_rx.lock().expect("job queue lock").recv();
                let Ok(job) = job else { break };
                let line = handle_optimize(&job, &saturator, &metrics);
                let _ = res_tx.send((job.seq, line));
                let (count, done) = &*outstanding;
                let depth = {
                    let mut n = count.lock().expect("outstanding lock");
                    *n -= 1;
                    *n
                };
                trace::counter("serve", "queue.depth", depth as u64);
                done.notify_all();
            });
        }

        let enqueue = |job: Job| {
            let depth = {
                let mut n = outstanding.0.lock().expect("outstanding lock");
                *n += 1;
                *n
            };
            trace::counter("serve", "queue.depth", depth as u64);
            job_tx.send(job).expect("workers outlive the reader");
        };

        // drain every in-flight request so counters are deterministic
        let barrier = || {
            let (count, done) = &*outstanding;
            let mut n = count.lock().expect("outstanding lock");
            while *n > 0 {
                n = done.wait(n).expect("outstanding wait");
            }
        };

        let mut seq = 0u64;
        let mut line = String::new();
        loop {
            line.clear();
            if input.read_line(&mut line)? == 0 {
                break;
            }
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let this_seq = seq;
            seq += 1;
            let mut toks = trimmed.split_whitespace();
            let cmd = toks.next().expect("non-empty line has a token");
            let verb: &'static str = match cmd {
                "ping" => "ping",
                "quit" => "quit",
                "stats" => "stats",
                "metrics" => "metrics",
                "optimize" => "optimize",
                "optimize-file" => "optimize-file",
                _ => "unknown",
            };
            *verbs.entry(verb).or_insert(0) += 1;
            match cmd {
                "ping" => {
                    let _ =
                        res_tx.send((this_seq, "{\"status\":\"ok\",\"event\":\"pong\"}".into()));
                }
                "quit" => {
                    let _ = res_tx.send((this_seq, "{\"status\":\"ok\",\"event\":\"bye\"}".into()));
                    break;
                }
                "stats" => {
                    // barrier: every earlier request completes (and counts)
                    // before the snapshot, so the counters are deterministic
                    barrier();
                    let requests: Vec<String> =
                        verbs.iter().map(|(k, v)| format!("\"{}\":{v}", escape_json(k))).collect();
                    let _ = res_tx.send((
                        this_seq,
                        format!(
                            "{{\"status\":\"ok\",\"event\":\"stats\",\"cache\":{},\
                             \"requests\":{{{}}}}}",
                            cache.stats().to_json(),
                            requests.join(","),
                        ),
                    ));
                }
                "metrics" => {
                    // same barrier; the reply is the full deterministic
                    // registry — per-request counters merged by the workers,
                    // plus the cache snapshot and requests-by-verb, all
                    // independent of worker count and interleaving
                    barrier();
                    let mut reg = metrics.lock().expect("metrics lock").clone();
                    cache.stats().add_to(&mut reg);
                    for (k, v) in &verbs {
                        reg.add(&format!("serve.request.{k}"), *v);
                    }
                    let _ = res_tx.send((
                        this_seq,
                        format!(
                            "{{\"status\":\"ok\",\"event\":\"metrics\",\"metrics\":{}}}",
                            reg.to_json()
                        ),
                    ));
                }
                "optimize" | "optimize-file" => {
                    let mut oversize = false;
                    let response = (|| -> Result<Job, String> {
                        let f = parse_fields(toks)?;
                        let id = f.id.ok_or("missing id=")?.to_string();
                        let variant = parse_variant(f.variant.ok_or("missing variant=")?)
                            .ok_or("unknown variant")?;
                        let source = if cmd == "optimize" {
                            let n: usize = f
                                .bytes
                                .ok_or("missing bytes=")?
                                .parse()
                                .map_err(|e| format!("bad bytes=: {e}"))?;
                            if n > MAX_PAYLOAD_BYTES {
                                oversize = true;
                                return Err(format!(
                                    "bytes={n} exceeds the {MAX_PAYLOAD_BYTES}-byte limit"
                                ));
                            }
                            let mut buf = vec![0u8; n];
                            std::io::Read::read_exact(&mut input, &mut buf)
                                .map_err(|e| format!("short payload: {e}"))?;
                            String::from_utf8(buf)
                                .map_err(|_| "payload is not UTF-8".to_string())?
                        } else {
                            let path = f.path.ok_or("missing path=")?;
                            std::fs::read_to_string(path)
                                .map_err(|e| format!("read {path}: {e}"))?
                        };
                        Ok(Job { seq: this_seq, id, variant, source })
                    })();
                    match response {
                        Ok(job) => enqueue(job),
                        Err(e) => {
                            let _ = res_tx.send((this_seq, error_line(None, &e)));
                        }
                    }
                    if oversize {
                        // the payload was not read, so the stream cannot
                        // be resynchronised: the session ends here
                        break;
                    }
                }
                other => {
                    let _ = res_tx
                        .send((this_seq, error_line(None, &format!("unknown request {other:?}"))));
                }
            }
        }

        drop(job_tx); // workers drain the queue, then hang up their res_tx clones
        drop(res_tx);
        writer.join().expect("writer thread must not panic")
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
                let reader = match stream.try_clone() {
                    Ok(s) => std::io::BufReader::new(s),
                    Err(_) => return,
                };
                let _ = run_session(reader, stream, config);
            });
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
