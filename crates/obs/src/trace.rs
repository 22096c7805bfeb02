//! The hierarchical span tracer: Chrome-trace-event collection with a
//! zero-overhead-when-disabled static handle.
//!
//! # Model
//!
//! One process-global collector, guarded by an [`AtomicBool`]. Span sites
//! call [`span`] (or [`span_args`] / [`instant`] / [`counter`]); when
//! tracing is disabled each site costs one relaxed atomic load and
//! returns an inert guard — no allocation, no lock, no clock read. When
//! enabled, the guard records a monotonic start timestamp and, on drop,
//! appends one Chrome *complete* event (`"ph":"X"`) with the span's
//! duration. Threads are numbered in first-use order by a thread-local
//! id, so scoped worker threads of the saturation search and the
//! extraction portfolio appear as separate rows in Perfetto.
//!
//! # Lifecycle
//!
//! [`start`] arms the collector (resetting any previous buffer);
//! [`finish`] disarms it and renders the buffered events as a Chrome
//! trace JSON object (`{"traceEvents":[…]}`). The driver owning the
//! `--trace-out` flag brackets the run with these two calls and writes
//! the returned string to disk. Spans still open at `finish` time are
//! simply not recorded — the validator treats that as fine, because every
//! recorded event was complete by construction.
//!
//! # Determinism discipline
//!
//! Trace files contain wall-clock timestamps and thread ids: they are
//! **diagnostic output only** and must never be diffed or fed into the
//! deterministic reports. The repo-wide rule "all wall clock lives only
//! in the trace sink" is enforced by construction: the metrics registry
//! ([`crate::metrics`]) has no API that accepts a duration.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: Mutex<Option<Collector>> = Mutex::new(None);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// One buffered trace event (rendered lazily by [`finish`]).
struct Event {
    name: Cow<'static, str>,
    cat: &'static str,
    /// Chrome phase: `'X'` complete, `'i'` instant, `'C'` counter.
    ph: char,
    /// Microseconds since [`start`].
    ts: u64,
    /// Duration in microseconds (complete events only).
    dur: Option<u64>,
    tid: u64,
    args: Vec<(&'static str, ArgVal)>,
}

struct Collector {
    epoch: Instant,
    events: Vec<Event>,
}

/// A trace-event argument value (rendered into the event's `args` map).
#[derive(Debug, Clone)]
pub enum ArgVal {
    /// Unsigned integer argument.
    U64(u64),
    /// Signed integer argument.
    I64(i64),
    /// String argument (escaped on render).
    Str(String),
}

impl From<u64> for ArgVal {
    fn from(v: u64) -> ArgVal {
        ArgVal::U64(v)
    }
}

impl From<usize> for ArgVal {
    fn from(v: usize) -> ArgVal {
        ArgVal::U64(v as u64)
    }
}

impl From<i64> for ArgVal {
    fn from(v: i64) -> ArgVal {
        ArgVal::I64(v)
    }
}

impl From<&str> for ArgVal {
    fn from(v: &str) -> ArgVal {
        ArgVal::Str(v.to_string())
    }
}

impl From<String> for ArgVal {
    fn from(v: String) -> ArgVal {
        ArgVal::Str(v)
    }
}

/// Is tracing currently enabled? One relaxed atomic load — this is the
/// whole cost of a span site in a disabled run.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Arm the tracer: reset the event buffer and start the clock. Callers
/// bracket a run with `start()` … [`finish`]`()` and write the returned
/// JSON to the `--trace-out` path.
pub fn start() {
    let mut guard = COLLECTOR.lock().expect("trace collector");
    *guard = Some(Collector { epoch: Instant::now(), events: Vec::with_capacity(4096) });
    drop(guard);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disarm the tracer and render everything collected since [`start`] as a
/// Chrome trace JSON object. `None` when the tracer was never started.
pub fn finish() -> Option<String> {
    ENABLED.store(false, Ordering::Relaxed);
    let collector = COLLECTOR.lock().expect("trace collector").take()?;
    Some(render(&collector.events))
}

/// RAII span guard: records one Chrome complete event on drop (inert when
/// tracing was disabled at construction).
pub struct Span {
    armed: Option<SpanData>,
}

struct SpanData {
    cat: &'static str,
    name: Cow<'static, str>,
    args: Vec<(&'static str, ArgVal)>,
    t0: Instant,
}

impl Span {
    /// Add arguments that are only known once the spanned work has run
    /// (sizes, round counts). Like [`span_args`], the closure runs only
    /// when the span is armed.
    pub fn record(&mut self, args: impl FnOnce() -> Vec<(&'static str, ArgVal)>) {
        if let Some(data) = &mut self.armed {
            data.args.extend(args());
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(data) = self.armed.take() else { return };
        let now = Instant::now();
        let mut guard = COLLECTOR.lock().expect("trace collector");
        let Some(collector) = guard.as_mut() else { return };
        // saturating: the span can predate a racing re-`start()`.
        // Both endpoints truncate against the epoch — never compute the
        // duration first: `floor(start) + floor(end - start)` is not
        // monotone in the real end time, and the ±1 µs it loses is enough
        // to render a child span outliving its parent.
        let ts = data.t0.saturating_duration_since(collector.epoch).as_micros() as u64;
        let end = now.saturating_duration_since(collector.epoch).as_micros() as u64;
        let dur = end.saturating_sub(ts);
        let tid = TID.with(|t| *t);
        collector.events.push(Event {
            name: data.name,
            cat: data.cat,
            ph: 'X',
            ts,
            dur: Some(dur),
            tid,
            args: data.args,
        });
    }
}

/// Open a span. The guard records the span as one complete event when it
/// drops; when tracing is disabled this is a no-op costing one atomic
/// load.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Span {
    if !enabled() {
        return Span { armed: None };
    }
    Span {
        armed: Some(SpanData {
            cat,
            name: Cow::Borrowed(name),
            args: Vec::new(),
            t0: Instant::now(),
        }),
    }
}

/// Open a span with arguments. The closure runs only when tracing is
/// enabled, so argument construction (formatting, cloning names) costs
/// nothing in a disabled run.
#[inline]
pub fn span_args(
    cat: &'static str,
    name: &'static str,
    args: impl FnOnce() -> Vec<(&'static str, ArgVal)>,
) -> Span {
    if !enabled() {
        return Span { armed: None };
    }
    Span {
        armed: Some(SpanData { cat, name: Cow::Borrowed(name), args: args(), t0: Instant::now() }),
    }
}

/// Open a span whose name is computed at runtime (e.g. a rewrite-rule
/// name). The closure runs only when tracing is enabled.
#[inline]
pub fn span_named(cat: &'static str, name: impl FnOnce() -> String) -> Span {
    if !enabled() {
        return Span { armed: None };
    }
    Span {
        armed: Some(SpanData {
            cat,
            name: Cow::Owned(name()),
            args: Vec::new(),
            t0: Instant::now(),
        }),
    }
}

/// Record an instant event (a point in time, rendered as a marker). The
/// argument closure runs only when tracing is enabled.
#[inline]
pub fn instant(
    cat: &'static str,
    name: &'static str,
    args: impl FnOnce() -> Vec<(&'static str, ArgVal)>,
) {
    if !enabled() {
        return;
    }
    push_point(cat, name, 'i', args());
}

/// Record a counter sample (rendered as a stacked counter track in
/// Perfetto — e.g. the serve daemon's queue depth over time).
#[inline]
pub fn counter(cat: &'static str, name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    push_point(cat, name, 'C', vec![("value", ArgVal::U64(value))]);
}

fn push_point(cat: &'static str, name: &'static str, ph: char, args: Vec<(&'static str, ArgVal)>) {
    let mut guard = COLLECTOR.lock().expect("trace collector");
    let Some(collector) = guard.as_mut() else { return };
    let ts = collector.epoch.elapsed().as_micros() as u64;
    let tid = TID.with(|t| *t);
    collector.events.push(Event { name: Cow::Borrowed(name), cat, ph, ts, dur: None, tid, args });
}

fn render(events: &[Event]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}",
            crate::escape_json(&e.name),
            e.cat,
            e.ph,
            e.ts,
            e.tid
        );
        if let Some(dur) = e.dur {
            let _ = write!(out, ",\"dur\":{dur}");
        }
        if e.ph == 'i' {
            // instant scope: thread-local marker
            out.push_str(",\"s\":\"t\"");
        }
        if !e.args.is_empty() {
            out.push_str(",\"args\":{");
            for (ai, (k, v)) in e.args.iter().enumerate() {
                if ai > 0 {
                    out.push(',');
                }
                match v {
                    ArgVal::U64(n) => {
                        let _ = write!(out, "\"{k}\":{n}");
                    }
                    ArgVal::I64(n) => {
                        let _ = write!(out, "\"{k}\":{n}");
                    }
                    ArgVal::Str(s) => {
                        let _ = write!(out, "\"{k}\":\"{}\"", crate::escape_json(s));
                    }
                }
            }
            out.push('}');
        }
        out.push('}');
        out.push_str(if i + 1 < events.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tracer is a process-global; every lifecycle assertion lives in
    /// this one test so concurrent test threads cannot interleave
    /// `start`/`finish` calls.
    #[test]
    fn lifecycle_spans_and_rendering() {
        assert!(!enabled());
        // disabled spans are inert
        {
            let _s = span("test", "ignored");
            instant("test", "ignored", Vec::new);
            counter("test", "ignored", 1);
        }
        assert!(finish().is_none(), "never started: nothing to render");

        start();
        assert!(enabled());
        {
            let _outer = span("test", "outer");
            {
                let _inner = span_args("test", "inner", || vec![("k", ArgVal::U64(7))]);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let _named = span_named("test", || "dyn\"name".to_string());
            instant("test", "mark", || vec![("s", ArgVal::Str("x\n".into()))]);
            counter("test", "depth", 3);
        }
        let json = finish().expect("started tracer renders");
        assert!(!enabled());
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"outer\""));
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"args\":{\"k\":7}"));
        assert!(json.contains("dyn\\\"name"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"C\""));
        // the emitted trace passes its own validator
        let summary = crate::validate::validate_trace(&json).expect("valid trace");
        assert_eq!(summary.spans, 3);
        assert!(summary.events >= 5);

        // spans opened before finish() but dropped after are not recorded
        start();
        let late = span("test", "late");
        let json = finish().unwrap();
        drop(late);
        assert!(!json.contains("late"));
    }
}
