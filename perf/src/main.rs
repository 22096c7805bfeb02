//! `perf` — the accsat benchmark. See README.md.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1   one workload, one process
//! perf run [--seed N] [--seconds S] [--quick] [--out FILE]   all five, a child each
//! perf compare BASE.json NEW.json                      verdict per (metric, workload)
//! perf repeat [--seed N] [--seconds S] [--quick]       run twice, require agreement
//! ```

mod compare;
mod host;
mod inputs;
mod json;
mod measure;
mod replay;
mod spans;
mod spec;
mod stats;
mod verify;
mod workloads;

use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  perf --workload NAME --seed N --seconds S --trace 0|1
  perf run [--seed N] [--seconds S] [--quick] [--out FILE]
  perf compare BASE.json NEW.json
  perf repeat [--seed N] [--seconds S] [--quick]";

/// Flags of every subcommand, parsed once.
#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<u64>,
    quick: bool,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        let number = |s: &String| {
            s.parse::<u64>().map_err(|_| format!("{arg}: {s:?} is not a whole number"))
        };
        match arg.as_str() {
            "--workload" => flags.workload = Some(value("a name")?.clone()),
            "--seed" => flags.seed = Some(number(value("a number")?)?),
            "--seconds" => flags.seconds = Some(number(value("a number")?)?),
            "--trace" => flags.trace = Some(number(value("0 or 1")?)?),
            "--out" => flags.out = Some(PathBuf::from(value("a path")?)),
            "--quick" => flags.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => flags.positional.push(arg.clone()),
        }
    }
    Ok(flags)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "compare" | "repeat")) => (c, &args[1..]),
        Some(first) if first.starts_with("--") => ("workload", &args[..]),
        _ => return Err(USAGE.to_string()),
    };
    let flags = parse_flags(rest)?;
    let spec = spec::Spec::embedded();
    // `--quick`: no timed duration, so every phase runs exactly once
    let seconds = if flags.quick { 0 } else { flags.seconds.unwrap_or(spec.run_seconds) };
    let seed = flags.seed.unwrap_or(11);
    match command {
        "workload" => {
            let name = flags.workload.as_deref().ok_or("--workload is required")?;
            let trace = match flags.trace {
                Some(0) | None => false,
                Some(1) => true,
                Some(t) => return Err(format!("--trace {t}: expected 0 or 1")),
            };
            let result = measure::run_workload(&spec, name, seed, seconds, trace)?;
            measure::print_result(&spec, &result);
            // the printed result carries `correct`; a non-zero exit means
            // no result at all
            Ok(true)
        }
        "run" => {
            let results = measure::run_all(&spec, seed, seconds)?;
            let path = flags
                .out
                .unwrap_or_else(|| host::out_dir().join(format!("result-seed{seed}.json")));
            std::fs::write(&path, results.render_pretty())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            let correct = measure::all_correct(&results);
            println!("wrote {} (correct: {correct}, claim: null)", path.display());
            Ok(correct)
        }
        "compare" => {
            let [base, new] = flags.positional.as_slice() else {
                return Err("compare needs BASE.json and NEW.json".into());
            };
            let load = |p: &String| -> Result<Json, String> {
                let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
                Json::parse(&text).map_err(|e| format!("{p}: {e}"))
            };
            let rows = compare::compare(&spec, &load(base)?, &load(new)?);
            print!("{}", compare::render(&rows));
            Ok(!rows.iter().any(|r| r.verdict == compare::Verdict::Regressed))
        }
        "repeat" => {
            let first = measure::run_all(&spec, seed, seconds)?;
            let second = measure::run_all(&spec, seed, seconds)?;
            let rows = compare::compare(&spec, &first, &second);
            print!("{}", compare::render(&rows));
            let disagreements = compare::repeat_disagreements(&spec, &first, &second);
            for d in &disagreements {
                println!("DISAGREE {d}");
            }
            println!(
                "repeat: {} disagreement(s) between two runs of the same build and seed",
                disagreements.len()
            );
            Ok(disagreements.is_empty()
                && measure::all_correct(&first)
                && measure::all_correct(&second))
        }
        _ => unreachable!("matched above"),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
