//! What the benchmark declares: `BENCHMARK.json` (compiled in, so the
//! binary and the declaration cannot drift apart) and the results that
//! file's format has no place for.

use crate::json::Json;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the base median by which an end-to-end metric may worsen
    /// before it counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    /// `(name, why)` in run order.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

/// A deterministic result of a workload, compared for equality. The
/// `BENCHMARK.json` format wants every end-to-end metric measured on every
/// workload, never zero, with a bound that is a share of the median; these
/// are defined on some workloads only, may be zero (that is the goal for
/// `bound_gap` and `error_rate`), and any change at all is a finding. So
/// they are declared here, printed and compared by `perf` itself.
#[derive(Debug, Clone, Copy)]
pub struct ExactDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Workloads the metric is defined on.
    pub on: &'static [&'static str],
}

pub const EXACT: [ExactDecl; 4] = [
    ExactDecl {
        name: "static_cost",
        unit: "cost",
        lower_is_better: true,
        on: &["suite_cold", "suite_warm", "gen_fill"],
    },
    ExactDecl {
        name: "bound_gap",
        unit: "cost",
        lower_is_better: true,
        on: &["suite_cold", "suite_warm"],
    },
    ExactDecl {
        name: "sim_speedup_geomean",
        unit: "ratio",
        lower_is_better: false,
        on: &["suite_cold", "suite_warm"],
    },
    ExactDecl {
        name: "error_rate",
        unit: "failed/attempted",
        lower_is_better: true,
        on: &["suite_cold", "sat_stage", "suite_warm", "gen_fill", "serve_edit"],
    },
];

impl Spec {
    /// The `BENCHMARK.json` this binary was built beside.
    pub fn embedded() -> Spec {
        Spec::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well-formed")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| doc.get(key).map(Json::as_arr).ok_or(format!("missing {key}"));
        let string = |v: &Json, key: &str| {
            v.get(key).and_then(Json::as_str).map(str::to_string).ok_or(format!("missing {key}"))
        };
        let metric = |v: &Json| -> Result<MetricDecl, String> {
            Ok(MetricDecl {
                name: string(v, "name")?,
                unit: string(v, "unit")?,
                lower_is_better: match string(v, "better")?.as_str() {
                    "lower" => true,
                    "higher" => false,
                    other => return Err(format!("better: {other:?}")),
                },
                bound: v.get("bound").and_then(Json::as_f64),
            })
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("missing run_seconds")? as u64,
            workloads: list("workloads")?
                .iter()
                .map(|w| Ok((string(w, "name")?, string(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: list("end_to_end")?.iter().map(metric).collect::<Result<_, _>>()?,
            per_layer: list("per_layer")?.iter().map(metric).collect::<Result<_, _>>()?,
        })
    }

    pub fn why(&self, workload: &str) -> Option<&str> {
        self.workloads.iter().find(|(n, _)| n == workload).map(|(_, w)| w.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_declaration_meets_the_contract_limits() {
        let spec = Spec::embedded();
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let names: Vec<&str> = spec
            .workloads
            .iter()
            .map(|(n, _)| n.as_str())
            .chain(spec.end_to_end.iter().chain(&spec.per_layer).map(|m| m.name.as_str()))
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()), "{n}");
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}: unit {:?}", m.name, m.unit);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for (n, why) in &spec.workloads {
            assert!(why.chars().count() <= 200 && !why.contains('\n'), "{n}: why too long");
        }
        for m in &spec.end_to_end {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}: bound", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(setup.unit == "s" && setup.lower_is_better);
        let widest = spec.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(Some(widest), setup.bound, "set-up time gets the largest bound");
        // the workloads declared are the workloads implemented, in order
        let declared: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(declared, crate::workloads::WORKLOADS);
        for e in EXACT {
            assert!(e.on.iter().all(|w| declared.contains(w)), "{}", e.name);
        }
    }
}
