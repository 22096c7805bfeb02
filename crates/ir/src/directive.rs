//! OpenACC / OpenMP directive model.
//!
//! Directives are attached to `for` loops in the AST. ACC Saturator never
//! rewrites directives (paper §IV: "compilers are limited to respect users'
//! decisions"), but the compiler models interpret them to derive launch
//! configurations, so the clause set below covers everything the NPB and
//! SPEC ACCEL kernels use.

use crate::Ident;
use std::fmt;

/// The programming model a pragma belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    /// `#pragma acc …`
    OpenAcc,
    /// `#pragma omp …`
    OpenMp,
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Model::OpenAcc => write!(f, "acc"),
            Model::OpenMp => write!(f, "omp"),
        }
    }
}

/// Directive kinds recognized by the front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirectiveKind {
    /// OpenACC `parallel loop` — single explicit kernel region.
    AccParallelLoop,
    /// OpenACC `kernels loop` — compiler-discovered kernels region.
    AccKernelsLoop,
    /// OpenACC `loop` — nested loop annotation inside a region.
    AccLoop,
    /// OpenMP `target teams distribute` (optionally `parallel for [simd]`).
    OmpTargetTeamsDistribute,
    /// OpenMP `parallel for` (optionally `simd`) inside a target region.
    OmpParallelFor,
}

impl DirectiveKind {
    /// Does this directive open an offloaded (kernel) region?
    pub(crate) fn is_region_head(&self) -> bool {
        matches!(
            self,
            DirectiveKind::AccParallelLoop
                | DirectiveKind::AccKernelsLoop
                | DirectiveKind::OmpTargetTeamsDistribute
        )
    }

    /// Which model the directive belongs to.
    pub fn model(&self) -> Model {
        match self {
            DirectiveKind::AccParallelLoop
            | DirectiveKind::AccKernelsLoop
            | DirectiveKind::AccLoop => Model::OpenAcc,
            _ => Model::OpenMp,
        }
    }
}

/// Reduction operators supported in `reduction(op: var)` clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ReductionOp {
    Add,
    Mul,
    Max,
    Min,
}

impl ReductionOp {
    /// Clause spelling (`+`, `*`, `max`, `min`).
    pub(crate) fn c_name(&self) -> &'static str {
        match self {
            ReductionOp::Add => "+",
            ReductionOp::Mul => "*",
            ReductionOp::Max => "max",
            ReductionOp::Min => "min",
        }
    }
}

/// Directive clauses.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Clause {
    /// `gang` / `gang(n)` — coarse OpenACC parallelism (thread blocks).
    Gang(Option<u32>),
    /// `worker` / `worker(n)` — intermediate OpenACC parallelism.
    Worker(Option<u32>),
    /// `vector` / `vector(n)` — fine OpenACC parallelism (threads).
    Vector(Option<u32>),
    /// `num_gangs(n)`.
    NumGangs(u32),
    /// `num_workers(n)`.
    NumWorkers(u32),
    /// `vector_length(n)`.
    VectorLength(u32),
    /// `independent` — asserts no loop-carried dependences.
    Independent,
    /// `collapse(n)` — fuse `n` perfectly nested loops.
    Collapse(u32),
    /// `reduction(op: vars…)`.
    Reduction(ReductionOp, Vec<Ident>),
    /// `private(vars…)`.
    Private(Vec<Ident>),
    /// `simd` (OpenMP).
    Simd,
    /// `num_teams(n)` (OpenMP).
    NumTeams(u32),
    /// `thread_limit(n)` (OpenMP).
    ThreadLimit(u32),
}

/// A parsed directive: model, kind, and clause list, in source order.
#[derive(Debug, Clone, PartialEq)]
pub struct Directive {
    pub kind: DirectiveKind,
    pub(crate) clauses: Vec<Clause>,
}

impl Directive {
    /// New directive with no clauses.
    pub fn new(kind: DirectiveKind) -> Directive {
        Directive { kind, clauses: Vec::new() }
    }

    /// Look up the requested gang count: `num_gangs(n)` or `gang(n)`.
    pub fn num_gangs(&self) -> Option<u32> {
        self.clauses.iter().find_map(|c| match c {
            Clause::NumGangs(n) => Some(*n),
            Clause::Gang(Some(n)) => Some(*n),
            Clause::NumTeams(n) => Some(*n),
            _ => None,
        })
    }

    /// Look up the requested worker count.
    pub fn num_workers(&self) -> Option<u32> {
        self.clauses.iter().find_map(|c| match c {
            Clause::NumWorkers(n) => Some(*n),
            Clause::Worker(Some(n)) => Some(*n),
            _ => None,
        })
    }

    /// Look up the requested vector length.
    pub fn vector_length(&self) -> Option<u32> {
        self.clauses.iter().find_map(|c| match c {
            Clause::VectorLength(n) => Some(*n),
            Clause::Vector(Some(n)) => Some(*n),
            _ => None,
        })
    }

    /// Does the directive expose gang-level parallelism?
    pub fn has_gang(&self) -> bool {
        self.kind.is_region_head()
            || self
                .clauses
                .iter()
                .any(|c| matches!(c, Clause::Gang(_) | Clause::NumGangs(_) | Clause::NumTeams(_)))
    }

    /// Does the directive expose worker-level parallelism?
    pub fn has_worker(&self) -> bool {
        self.clauses.iter().any(|c| matches!(c, Clause::Worker(_) | Clause::NumWorkers(_)))
    }

    /// Does the directive expose vector-level parallelism?
    pub fn has_vector(&self) -> bool {
        self.clauses
            .iter()
            .any(|c| matches!(c, Clause::Vector(_) | Clause::VectorLength(_) | Clause::Simd))
    }

    /// Render the directive back to pragma text (without `#pragma `).
    pub fn render(&self) -> String {
        self.to_string()
    }
}

/// The pragma text of a directive (without `#pragma `), as [`Directive::render`]
/// returns it; the printer writes it straight into its output buffer.
impl fmt::Display for Directive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self.kind {
            DirectiveKind::AccParallelLoop => "acc parallel loop",
            DirectiveKind::AccKernelsLoop => "acc kernels loop",
            DirectiveKind::AccLoop => "acc loop",
            DirectiveKind::OmpTargetTeamsDistribute => "omp target teams distribute",
            DirectiveKind::OmpParallelFor => "omp parallel for",
        })?;
        for c in &self.clauses {
            match c {
                Clause::Gang(None) => f.write_str(" gang"),
                Clause::Gang(Some(n)) => write!(f, " gang({n})"),
                Clause::Worker(None) => f.write_str(" worker"),
                Clause::Worker(Some(n)) => write!(f, " worker({n})"),
                Clause::Vector(None) => f.write_str(" vector"),
                Clause::Vector(Some(n)) => write!(f, " vector({n})"),
                Clause::NumGangs(n) => write!(f, " num_gangs({n})"),
                Clause::NumWorkers(n) => write!(f, " num_workers({n})"),
                Clause::VectorLength(n) => write!(f, " vector_length({n})"),
                Clause::Independent => f.write_str(" independent"),
                Clause::Collapse(n) => write!(f, " collapse({n})"),
                Clause::Reduction(op, vars) => {
                    write!(f, " reduction({}:", op.c_name())?;
                    write_list(f, vars)?;
                    f.write_str(")")
                }
                Clause::Private(vars) => {
                    f.write_str(" private(")?;
                    write_list(f, vars)?;
                    f.write_str(")")
                }
                Clause::Simd => f.write_str(" simd"),
                Clause::NumTeams(n) => write!(f, " num_teams({n})"),
                Clause::ThreadLimit(n) => write!(f, " thread_limit({n})"),
            }?;
        }
        Ok(())
    }
}

/// `a,b,c` — a clause's variable list, as written in the pragma.
fn write_list(f: &mut fmt::Formatter<'_>, vars: &[String]) -> fmt::Result {
    for (i, v) in vars.iter().enumerate() {
        if i > 0 {
            f.write_str(",")?;
        }
        f.write_str(v)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_round_trip_text() {
        let d = Directive {
            kind: DirectiveKind::AccParallelLoop,
            clauses: vec![
                Clause::Gang(None),
                Clause::NumGangs(63),
                Clause::NumWorkers(4),
                Clause::VectorLength(32),
            ],
        };
        assert_eq!(
            d.render(),
            "acc parallel loop gang num_gangs(63) num_workers(4) vector_length(32)"
        );
    }

    #[test]
    fn parallelism_queries() {
        let d = Directive {
            kind: DirectiveKind::AccLoop,
            clauses: vec![Clause::Independent, Clause::Gang(Some(16)), Clause::Vector(Some(256))],
        };
        assert!(d.has_gang());
        assert!(d.has_vector());
        assert!(!d.has_worker());
        assert_eq!(d.num_gangs(), Some(16));
        assert_eq!(d.vector_length(), Some(256));
    }

    #[test]
    fn region_head_classification() {
        assert!(DirectiveKind::AccParallelLoop.is_region_head());
        assert!(DirectiveKind::AccKernelsLoop.is_region_head());
        assert!(DirectiveKind::OmpTargetTeamsDistribute.is_region_head());
        assert!(!DirectiveKind::AccLoop.is_region_head());
    }

    #[test]
    fn reduction_rendering() {
        let d = Directive {
            kind: DirectiveKind::AccParallelLoop,
            clauses: vec![Clause::Reduction(ReductionOp::Add, vec!["sum".into()])],
        };
        assert_eq!(d.render(), "acc parallel loop reduction(+:sum)");
    }

    #[test]
    fn model_classification() {
        assert_eq!(DirectiveKind::AccLoop.model(), Model::OpenAcc);
        assert_eq!(DirectiveKind::OmpParallelFor.model(), Model::OpenMp);
        assert_eq!(Model::OpenAcc.to_string(), "acc");
    }
}
