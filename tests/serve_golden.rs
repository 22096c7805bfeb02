//! Golden-transcript test for `accsat serve`: a recorded session — ping,
//! a cold optimize, a stats barrier, the same kernel warm, stats, a full
//! `metrics` report, quit — must replay byte-for-byte at any
//! worker-thread count. CI replays the same two files through the release
//! binary (`tests/golden/`), so the recorded transcript is simultaneously
//! the unit pin and the smoke-test oracle. A second, hostile pair pins the
//! daemon's resource limits the same way.
//!
//! The `stats` and `metrics` requests double as barriers: each drains all
//! in-flight work before answering, so the cache counters, the
//! requests-by-verb tallies, and the merged metrics registry — and which
//! request gets the miss — are deterministic even with concurrent
//! workers. The registry merge is commutative, so the `metrics` line is
//! byte-identical no matter which worker ran which request.

use accsat::{run_session, ServeConfig};
use std::path::Path;

/// Replay `tests/golden/<session>` at 1, 2 and 8 workers against `<golden>`.
fn replays(session: &str, golden: &str) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let input = std::fs::read_to_string(dir.join(session)).unwrap();
    let golden = std::fs::read_to_string(dir.join(golden)).unwrap();
    for threads in [1usize, 2, 8] {
        let mut out = Vec::new();
        let cfg = ServeConfig { threads, ..ServeConfig::default() };
        run_session(input.as_bytes(), &mut out, &cfg).unwrap();
        let got = String::from_utf8(out).unwrap();
        assert_eq!(got, golden, "{session}: transcript drifted at {threads} worker threads");
    }
}

#[test]
fn recorded_session_replays_byte_identically_at_any_thread_count() {
    replays("serve_session.txt", "serve_transcript.golden");
}

/// The hostile session — a kernel nested 2 000 parentheses deep, a
/// 20 000-term `a[i] + a[i] + …` chain, then a valid kernel, `stats`,
/// `quit`. Either of the first two used to overflow a worker's stack and
/// abort the whole daemon; each is now one `error` line and the session
/// carries on.
#[test]
fn hostile_session_gets_five_lines_at_any_thread_count() {
    replays("serve_hostile_session.txt", "serve_hostile_transcript.golden");
}
