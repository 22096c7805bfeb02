//! What the benchmark reads about its own process and host (Linux
//! `/proc`; the sandbox and CI are Linux).

use std::path::PathBuf;

/// `USER_HZ`: the unit of the CPU-time fields of `/proc/<pid>/stat`. It is
/// 100 on every Linux ABI, whatever the kernel's internal tick rate.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU time of this process so far, all threads, in
/// seconds. Resolution is one tick (10 ms), so callers difference it over
/// a whole timed phase, never over one short pass.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // the command name (field 2) may contain spaces; the numeric fields
    // start after its closing parenthesis, `state` being field 3
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i - 3].parse::<f64>().expect("numeric stat field");
    (ticks(14) + ticks(15)) / TICKS_PER_SECOND
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The benchmark's own directory: scratch cache directories, traces and
/// result files go under `out/` here, inside the checkout.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create perf/out");
    dir
}

/// First line of a command's standard output, or `"unknown"`.
pub fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mib() > 0.5);
        assert!(nproc() >= 1);
    }
}
