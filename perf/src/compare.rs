//! `perf compare` and the agreement check of `perf repeat`.
//!
//! A verdict per (metric, workload): timed metrics compare their reported
//! values against the bound `BENCHMARK.json` fixes, and are *unresolved* —
//! not unchanged — when either run's own quartile spread is wider than
//! that bound; exact metrics compare for equality. Each workload has its own
//! rows, and every ratio is printed with its base.

use crate::json::Json;
use crate::spec::{Spec, EXACT};
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Unresolved,
    Regressed,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub base: f64,
    pub new: f64,
    pub verdict: Verdict,
}

/// One sampled metric of a result file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub value: f64,
    /// Distance between the run's quartiles as a share of its value.
    pub spread: f64,
}

/// Verdict on a timed metric. `worse` is how much worse the new value is,
/// as a share of the base (negative when it is better).
pub fn timed_verdict(base: Sample, new: Sample, lower_is_better: bool, bound: f64) -> Verdict {
    let change = (new.value - base.value) / base.value.abs();
    let worse = if lower_is_better { change } else { -change };
    if base.spread.max(new.spread) > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Verdict on an exact metric: any difference is a finding.
pub fn exact_verdict(base: f64, new: f64, lower_is_better: bool) -> Verdict {
    if new == base {
        Verdict::Unchanged
    } else if (new < base) == lower_is_better {
        Verdict::Improved
    } else {
        Verdict::Regressed
    }
}

fn workload<'a>(results: &'a Json, name: &str) -> Option<&'a Json> {
    let list = results.get("workloads").map(Json::as_arr).unwrap_or(&[]);
    list.iter().find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn sample(w: &Json, section: &str, metric: &str) -> Option<Sample> {
    let m = w.get(section)?.get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let quartile = |k| m.get(k).and_then(Json::as_f64).unwrap_or(value);
    let spread = if value == 0.0 { 0.0 } else { (quartile("q3") - quartile("q1")) / value.abs() };
    Some(Sample { value, spread })
}

/// Compare two result files of `perf run`.
pub fn compare(spec: &Spec, base: &Json, new: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, _) in &spec.workloads {
        let (Some(b), Some(n)) = (workload(base, name), workload(new, name)) else { continue };
        for m in &spec.end_to_end {
            let (Some(bs), Some(ns)) =
                (sample(b, "end_to_end", &m.name), sample(n, "end_to_end", &m.name))
            else {
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            rows.push(Row {
                workload: name.clone(),
                metric: m.name.clone(),
                unit: m.unit.clone(),
                base: bs.value,
                new: ns.value,
                verdict: timed_verdict(bs, ns, m.lower_is_better, bound),
            });
        }
        for e in EXACT {
            let (Some(bs), Some(ns)) = (sample(b, "exact", e.name), sample(n, "exact", e.name))
            else {
                continue;
            };
            rows.push(Row {
                workload: name.clone(),
                metric: e.name.to_string(),
                unit: e.unit.to_string(),
                base: bs.value,
                new: ns.value,
                verdict: exact_verdict(bs.value, ns.value, e.lower_is_better),
            });
        }
    }
    rows
}

pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let mut current = "";
    for r in rows {
        if r.workload != current {
            current = &r.workload;
            let _ = writeln!(out, "{current}");
        }
        let ratio = if r.base == 0.0 { "-".to_string() } else { format!("{:.3}x", r.new / r.base) };
        let _ = writeln!(
            out,
            "  {:<22} {:>14.6} -> {:>14.6} {:<16} {ratio:>8} of base {:.6}  {}",
            r.metric,
            r.base,
            r.new,
            r.unit,
            r.base,
            r.verdict.label()
        );
    }
    out
}

/// What two runs of the same build and seed may not differ in: every
/// timed end-to-end metric within its bound, every exact metric and every
/// layer count identical.
pub fn repeat_disagreements(spec: &Spec, first: &Json, second: &Json) -> Vec<String> {
    let mut out: Vec<String> = compare(spec, first, second)
        .into_iter()
        .filter(|r| matches!(r.verdict, Verdict::Regressed | Verdict::Improved))
        .map(|r| format!("{} {}: {} then {} {}", r.workload, r.metric, r.base, r.new, r.unit))
        .collect();
    for (name, _) in &spec.workloads {
        let (Some(a), Some(b)) = (workload(first, name), workload(second, name)) else {
            out.push(format!("{name}: missing from a run"));
            continue;
        };
        // a layer metric that is not a time or a ratio of times is a count
        for m in spec.per_layer.iter().filter(|m| !matches!(m.unit.as_str(), "s" | "ratio")) {
            let (x, y) = (sample(a, "per_layer", &m.name), sample(b, "per_layer", &m.name));
            if x.map(|s| s.value) != y.map(|s| s.value) || x.is_none() {
                out.push(format!(
                    "{name} {}: {:?} then {:?}",
                    m.name,
                    x.map(|s| s.value),
                    y.map(|s| s.value)
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEADY: f64 = 0.01;

    fn s(value: f64, spread: f64) -> Sample {
        Sample { value, spread }
    }

    #[test]
    fn timed_verdicts_follow_the_bound_and_the_spread() {
        let v = |b, n| timed_verdict(s(b, STEADY), s(n, STEADY), true, 0.10);
        assert_eq!(v(1.0, 1.05), Verdict::Unchanged);
        assert_eq!(v(1.0, 0.95), Verdict::Unchanged);
        assert_eq!(v(1.0, 1.11), Verdict::Regressed);
        assert_eq!(v(1.0, 0.89), Verdict::Improved);
        // higher-is-better flips the direction
        assert_eq!(timed_verdict(s(1.0, STEADY), s(1.2, STEADY), false, 0.10), Verdict::Improved);
        assert_eq!(timed_verdict(s(1.0, STEADY), s(0.8, STEADY), false, 0.10), Verdict::Regressed);
        // a run noisier than the bound resolves nothing, whichever side
        assert_eq!(timed_verdict(s(1.0, 0.2), s(1.5, STEADY), true, 0.10), Verdict::Unresolved);
        assert_eq!(timed_verdict(s(1.0, STEADY), s(1.0, 0.2), true, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn exact_verdicts_flag_any_change() {
        assert_eq!(exact_verdict(20383.0, 20383.0, true), Verdict::Unchanged);
        assert_eq!(exact_verdict(20383.0, 20382.0, true), Verdict::Improved);
        assert_eq!(exact_verdict(20383.0, 20384.0, true), Verdict::Regressed);
        assert_eq!(exact_verdict(1.0787, 1.08, false), Verdict::Improved);
        assert_eq!(exact_verdict(0.0, 0.001, true), Verdict::Regressed);
    }

    fn run(wall: f64, cost: f64, nodes: f64) -> Json {
        let metric = |v: f64| {
            Json::obj(vec![
                ("value", Json::Num(v)),
                ("q1", Json::Num(v * 0.99)),
                ("q3", Json::Num(v * 1.01)),
            ])
        };
        let spec = Spec::embedded();
        let workloads = spec
            .workloads
            .iter()
            .map(|(name, _)| {
                Json::obj(vec![
                    ("name", Json::str(name)),
                    ("end_to_end", Json::obj(vec![("wall_s", metric(wall))])),
                    ("exact", Json::obj(vec![("static_cost", metric(cost))])),
                    (
                        "per_layer",
                        Json::Obj(
                            spec.per_layer
                                .iter()
                                .map(|m| (m.name.clone(), metric(nodes)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![("workloads", Json::Arr(workloads))])
    }

    #[test]
    fn result_files_compare_row_by_row() {
        let spec = Spec::embedded();
        let rows = compare(&spec, &run(1.0, 100.0, 7.0), &run(1.3, 99.0, 7.0));
        assert_eq!(rows.len(), 2 * spec.workloads.len());
        assert!(rows
            .iter()
            .filter(|r| r.metric == "wall_s")
            .all(|r| r.verdict == Verdict::Regressed));
        assert!(rows
            .iter()
            .filter(|r| r.metric == "static_cost")
            .all(|r| r.verdict == Verdict::Improved));
        let text = render(&rows);
        assert!(text.contains("suite_cold\n") && text.contains("1.300x of base 1.000000"));

        assert!(
            repeat_disagreements(&spec, &run(1.0, 100.0, 7.0), &run(1.04, 100.0, 7.0)).is_empty()
        );
        let moved = repeat_disagreements(&spec, &run(1.0, 100.0, 7.0), &run(1.0, 100.0, 8.0));
        assert!(moved.iter().any(|d| d.contains("egraph.nodes")), "{moved:?}");
        assert!(!moved.iter().any(|d| d.contains("ssa.build_s")), "times are not counts");
        assert!(
            !repeat_disagreements(&spec, &run(1.0, 100.0, 7.0), &run(1.0, 101.0, 7.0)).is_empty()
        );
    }
}
