//! `accsat-obs` — the observability substrate of the ACC Saturator
//! reproduction: a lightweight hierarchical span tracer and a
//! deterministic counter/histogram metrics registry.
//!
//! The two halves serve two different questions and obey two different
//! disciplines:
//!
//! * [`trace`] answers *"where did the wall clock go"*: hierarchical spans
//!   (parse → SSA → saturation iterations → per-rule search → extraction
//!   stages → codegen → cache probes) recorded into a process-global
//!   collector and rendered as a Chrome-trace-event JSON file, loadable in
//!   Perfetto or `chrome://tracing`. Tracing is **off by default** and the
//!   disabled path is a single relaxed atomic load per span site, so the
//!   instrumentation can stay in release builds. Trace output carries wall
//!   clock and is therefore *not* deterministic — it never feeds any
//!   report the repo diffs.
//! * [`MetricsRegistry`] answers *"what did the run do"*: counter-valued metrics
//!   (e-graph growth, rule matches, branch-and-bound explored/pruned,
//!   cache hits by level) assembled explicitly from per-run statistics
//!   into a [`MetricsRegistry`] and rendered as deterministic
//!   text/JSON. No wall clock ever enters a registry, registries merge
//!   commutatively, and rendering iterates sorted maps — so a metrics
//!   report is byte-identical at any thread count, exactly like the
//!   repo's stable JSON reports.
//!
//! [`validate`] closes the loop for CI: a dependency-free JSON parser and
//! a span-nesting checker so `accsat trace-check` can assert that an
//! emitted trace file is well-formed without any external tooling.

#![warn(missing_docs)]

mod metrics;
pub mod trace;
pub mod validate;

pub use metrics::{Histogram, MetricsRegistry};
pub use trace::{span, span_args, Span};

/// Escape `s` for the inside of a JSON string literal (the caller writes
/// the surrounding quotes): `"`, `\\` and every control character
/// U+0000–U+001F. The one escaper behind every hand-rolled JSON writer in
/// the workspace — trace files, metrics, batch/fuzz reports and `serve`
/// replies.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_covers_control_characters() {
        assert_eq!(escape_json("a\"b\\c\nd\te\r\u{1}"), "a\\\"b\\\\c\\nd\\te\\r\\u0001");
        // every escaped ASCII string reads back as itself
        for c in (0u8..=0x7f).map(char::from) {
            let s = format!("x{c}y{c}");
            let parsed = validate::parse_json(&format!("\"{}\"", escape_json(&s)));
            assert_eq!(parsed, Ok(validate::Json::Str(s)), "char {:#04x}", c as u32);
        }
    }
}
