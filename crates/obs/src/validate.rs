//! Trace-file validation: a dependency-free JSON parser plus structural
//! checks over Chrome trace events, used by the `accsat trace-check`
//! subcommand and by CI's trace smoke step.
//!
//! The checks are structural, not temporal-semantic: the file must parse
//! as JSON, expose a `traceEvents` array, every event must carry the
//! required fields for its phase, and within each thread the recorded
//! complete spans (`"ph":"X"`) must be properly nested — any two spans on
//! one thread are either disjoint or one contains the other. That is
//! exactly the invariant the RAII [`crate::trace::Span`] guard guarantees
//! by construction, so a violation means a corrupted or hand-edited file.

use std::collections::BTreeMap;

/// Deepest nesting of arrays and objects a document may have: the parser
/// recurses once per level, so this bound keeps a hostile file off the end
/// of the stack. The same 128 the kernel parser allows.
const MAX_NESTING: usize = 128;

/// Summary of a validated trace file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total number of trace events.
    pub events: usize,
    /// Number of complete spans (`"ph":"X"`).
    pub spans: usize,
    /// Number of instant events (`"ph":"i"`).
    pub instants: usize,
    /// Number of counter samples (`"ph":"C"`).
    pub counters: usize,
    /// Number of distinct thread ids seen.
    pub threads: usize,
    /// Maximum span end timestamp in microseconds (0 when no spans).
    pub span_end_us: u64,
    /// Distinct categories seen, sorted.
    pub categories: Vec<String>,
    /// Complete spans per `cat/name`, sorted by key: how many there are
    /// and their summed durations. A nested span counts in its own name
    /// and in its parent's duration.
    pub span_totals: BTreeMap<String, SpanTotal>,
    /// Instant events per `cat/name`, sorted by key: how many there are
    /// (the stage cache's `cache/sat.hit` … `cache/sel.miss`, `coalesce`).
    pub instant_totals: BTreeMap<String, usize>,
}

/// Count and summed duration of the complete spans of one `cat/name`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotal {
    /// Number of spans.
    pub count: usize,
    /// Sum of their durations, in microseconds.
    pub total_us: u64,
}

/// A minimal JSON value — just enough to hold a Chrome trace file.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, kept as f64.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Insertion order is irrelevant for validation.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field lookup; `None` for non-objects.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse a JSON document. Rejects trailing garbage and nesting deeper than
/// [`MAX_NESTING`].
pub(crate) fn parse_json(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse the value at `pos`, inside `depth` open arrays and objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_NESTING => {
            Err(format!("nesting deeper than {MAX_NESTING}"))
        }
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        // surrogate pairs are not emitted by our tracer;
                        // map lone surrogates to the replacement char
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // consume one UTF-8 scalar
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos, depth)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// The `cat/name` key an event is totalled under.
fn key(cat: Option<&str>, name: &str) -> String {
    format!("{}/{name}", cat.unwrap_or_default())
}

/// Validate a Chrome trace JSON document and summarise it.
///
/// Checks: the document parses, has a `traceEvents` array, every event has
/// `name`/`ph`/`ts`/`pid`/`tid` with a known phase, complete events carry
/// `dur`, and within each thread the complete spans are properly nested
/// (pairwise disjoint or contained).
pub fn validate_trace(src: &str) -> Result<TraceSummary, String> {
    let doc = parse_json(src)?;
    let events = doc.get("traceEvents").ok_or("missing traceEvents")?;
    let Json::Arr(events) = events else {
        return Err("traceEvents is not an array".to_string());
    };

    let mut summary = TraceSummary { events: events.len(), ..TraceSummary::default() };
    let mut cats: Vec<String> = Vec::new();
    // per-tid list of (start, end) for nesting checks
    let mut per_tid: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();

    for (i, e) in events.iter().enumerate() {
        let ph =
            e.get("ph").and_then(Json::as_str).ok_or_else(|| format!("event {i}: missing ph"))?;
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        let ts =
            e.get("ts").and_then(Json::as_u64).ok_or_else(|| format!("event {i}: missing ts"))?;
        e.get("pid").and_then(Json::as_u64).ok_or_else(|| format!("event {i}: missing pid"))?;
        let tid =
            e.get("tid").and_then(Json::as_u64).ok_or_else(|| format!("event {i}: missing tid"))?;
        let cat = e.get("cat").and_then(Json::as_str);
        if let Some(cat) = cat {
            if !cats.iter().any(|c| c == cat) {
                cats.push(cat.to_string());
            }
        }
        match ph {
            "X" => {
                let dur = e
                    .get("dur")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("event {i}: complete event without dur"))?;
                summary.spans += 1;
                let end = ts.saturating_add(dur);
                summary.span_end_us = summary.span_end_us.max(end);
                per_tid.entry(tid).or_default().push((ts, end));
                let total = summary.span_totals.entry(key(cat, name)).or_default();
                total.count += 1;
                total.total_us += dur;
            }
            "i" => {
                summary.instants += 1;
                *summary.instant_totals.entry(key(cat, name)).or_default() += 1;
            }
            "C" => summary.counters += 1,
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
    }

    // collect distinct tids across all phases
    let mut tids: Vec<u64> = Vec::new();
    for e in events {
        if let Some(t) = e.get("tid").and_then(Json::as_u64) {
            if !tids.contains(&t) {
                tids.push(t);
            }
        }
    }
    summary.threads = tids.len();

    // nesting check: on each thread, sorted by (start, -len), every span
    // must nest inside the enclosing open span or start after it ends
    for (tid, spans) in per_tid.iter_mut() {
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut stack: Vec<(u64, u64)> = Vec::new();
        for &(start, end) in spans.iter() {
            while let Some(&(_, open_end)) = stack.last() {
                if start >= open_end {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(_, open_end)) = stack.last() {
                if end > open_end {
                    return Err(format!(
                        "tid {tid}: span [{start},{end}) overlaps enclosing span ending at {open_end}"
                    ));
                }
            }
            stack.push((start, end));
        }
    }

    cats.sort();
    summary.categories = cats;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_round_trips_values() {
        let doc = parse_json(r#"{"a":[1,2.5,-3],"b":"x\n\"y\\","c":true,"d":null,"e":{},"u":"A"}"#)
            .unwrap();
        assert_eq!(
            doc.get("a"),
            Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-3.0)]))
        );
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("x\n\"y\\"));
        assert_eq!(doc.get("c"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("d"), Some(&Json::Null));
        assert_eq!(doc.get("u").and_then(Json::as_str), Some("A"));
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("{\"k\":}").is_err());
        assert!(parse_json("[1,]").is_err());
    }

    /// A hostile document nested 200 000 levels deep — bare, and as the
    /// value of `traceEvents` — is a nesting error, even on a small stack;
    /// [`MAX_NESTING`] levels still parse.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let err = Err(format!("nesting deeper than {MAX_NESTING}"));
        let deep = nested(200_000);
        let in_trace = format!("{{\"traceEvents\":{deep}}}");
        let results = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || (parse_json(&deep).map(drop), validate_trace(&in_trace).map(drop)))
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(results, (err.clone(), err.clone()));
        assert!(parse_json(&nested(MAX_NESTING)).is_ok());
        assert_eq!(parse_json(&nested(MAX_NESTING + 1)).map(drop), err);
        let objects =
            format!("{}1{}", "{\"k\":".repeat(MAX_NESTING + 1), "}".repeat(MAX_NESTING + 1));
        assert_eq!(parse_json(&objects).map(drop), err);
    }

    fn ev(name: &str, ph: &str, ts: u64, dur: Option<u64>, tid: u64) -> String {
        let dur = dur.map(|d| format!(",\"dur\":{d}")).unwrap_or_default();
        format!(
            "{{\"name\":\"{name}\",\"cat\":\"t\",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":1,\"tid\":{tid}{dur}}}"
        )
    }

    #[test]
    fn validates_nested_spans() {
        let json = format!(
            "{{\"traceEvents\":[{},{},{},{}]}}",
            ev("outer", "X", 0, Some(100), 1),
            ev("inner", "X", 10, Some(20), 1),
            ev("sibling", "X", 40, Some(60), 1),
            ev("other-thread", "X", 5, Some(500), 2),
        );
        let s = validate_trace(&json).unwrap();
        assert_eq!(s.events, 4);
        assert_eq!(s.spans, 4);
        assert_eq!(s.threads, 2);
        assert_eq!(s.span_end_us, 505);
        assert_eq!(s.categories, vec!["t".to_string()]);
    }

    /// Totals are per `cat/name` over all threads: a nested span counts in
    /// its own name, a name seen on two threads sums both, and a named
    /// span is keyed by its runtime name.
    #[test]
    fn span_totals_are_per_name_across_threads() {
        let stage = |name: &str, ts, dur, tid| ev(name, "X", ts, Some(dur), tid);
        let json = format!(
            "{{\"traceEvents\":[{},{},{},{},{}]}}",
            stage("kernel k", 0, 100, 1),
            stage("ssa", 10, 20, 1),
            stage("ssa", 40, 30, 1),
            stage("ssa", 5, 7, 2),
            ev("mark", "i", 3, None, 2),
        );
        let totals = validate_trace(&json).unwrap().span_totals;
        let got: Vec<(&str, usize, u64)> =
            totals.iter().map(|(k, t)| (k.as_str(), t.count, t.total_us)).collect();
        assert_eq!(got, [("t/kernel k", 1, 100), ("t/ssa", 3, 57)]);
    }

    /// Instants are counted per `cat/name` over all threads, apart from
    /// the spans: a span and an instant of one name are two keys.
    #[test]
    fn instant_totals_are_per_name_across_threads() {
        let instant = |cat: &str, name: &str, tid| {
            format!(
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"ts\":1,\"pid\":1,\"tid\":{tid}}}"
            )
        };
        let json = format!(
            "{{\"traceEvents\":[{},{},{},{},{},{}]}}",
            instant("cache", "sel.hit", 1),
            instant("cache", "sat.hit", 2),
            instant("cache", "sel.hit", 2),
            instant("cache", "coalesce", 1),
            ev("sel.hit", "X", 0, Some(5), 1),
            ev("sel.hit", "i", 3, None, 1),
        );
        let s = validate_trace(&json).unwrap();
        let got: Vec<(&str, usize)> =
            s.instant_totals.iter().map(|(k, &n)| (k.as_str(), n)).collect();
        let want =
            [("cache/coalesce", 1), ("cache/sat.hit", 1), ("cache/sel.hit", 2), ("t/sel.hit", 1)];
        assert_eq!(got, want);
        assert_eq!(s.instants, 5);
        assert_eq!(s.span_totals.keys().collect::<Vec<_>>(), ["t/sel.hit"]);
    }

    #[test]
    fn rejects_overlapping_spans_on_one_thread() {
        let json = format!(
            "{{\"traceEvents\":[{},{}]}}",
            ev("a", "X", 0, Some(50), 1),
            ev("b", "X", 25, Some(50), 1),
        );
        let err = validate_trace(&json).unwrap_err();
        assert!(err.contains("overlaps"), "got: {err}");
    }

    #[test]
    fn rejects_malformed_events() {
        assert!(validate_trace("{\"traceEvents\":{}}").is_err());
        assert!(validate_trace("{}").is_err());
        let no_dur = format!("{{\"traceEvents\":[{}]}}", ev("a", "X", 0, None, 1));
        assert!(validate_trace(&no_dur).unwrap_err().contains("without dur"));
        let bad_ph = format!("{{\"traceEvents\":[{}]}}", ev("a", "Z", 0, None, 1));
        assert!(validate_trace(&bad_ph).unwrap_err().contains("unknown phase"));
    }
}
