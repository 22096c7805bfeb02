//! Assembling the deterministic metrics report from per-run statistics.
//!
//! This module is the bridge between the pipeline's per-kernel
//! [`OptStats`] / the cache's [`CacheStats`] and the passive
//! [`MetricsRegistry`] of `accsat-obs`: drivers (batch, serve, the
//! single-file CLI) call [`add_opt_stats`] once per optimized kernel and
//! [`CacheStats::add_to`] once per cache snapshot, then render the merged
//! registry with `to_text` (the `--metrics` file) or `to_json` (the serve
//! protocol's `metrics` reply).
//!
//! Everything folded in here is a deterministic counter: rule match
//! counts, per-iteration e-graph growth, branch-and-bound explored and
//! pruned totals, winner and stop-reason tallies. No wall clock —
//! durations stay in [`OptStats`] for the human tables and in the trace
//! sink for profiles, both written by the pipeline's one `timed` helper —
//! so the rendered report is byte-identical at any thread count and any
//! worker interleaving (registries merge commutatively).
//!
//! [`CacheStats`]: crate::cache::CacheStats
//! [`CacheStats::add_to`]: crate::cache::CacheStats::add_to

use crate::cache::stop_token;
use crate::pipeline::OptStats;
use accsat_obs::MetricsRegistry;

/// Fold one kernel's [`OptStats`] into a registry. Every value added is a
/// deterministic counter; merging per-kernel registries in any order
/// yields the same totals.
pub fn add_opt_stats(reg: &mut MetricsRegistry, s: &OptStats) {
    reg.add("kernels", 1);
    reg.add(&format!("cache.request.{}", s.cache_level.label()), 1);
    reg.add(&format!("stop.{}", stop_token(s.stop_reason)), 1);

    reg.add("saturation.iterations", s.saturation_iters as u64);
    reg.add("egraph.nodes", s.egraph_nodes as u64);
    reg.observe("kernel.egraph_nodes", s.egraph_nodes as u64);
    for it in &s.iteration_counts {
        reg.add("saturation.matches", it.matches as u64);
        reg.add("saturation.applied", it.applied as u64);
        reg.observe("saturation.nodes_per_iter", it.total_nodes as u64);
        reg.observe("saturation.classes_per_iter", it.num_classes as u64);
    }
    for r in &s.rule_stats {
        if r.matches > 0 || r.applied > 0 {
            reg.add(&format!("rule.{}.matches", r.name), r.matches as u64);
            reg.add(&format!("rule.{}.applied", r.name), r.applied as u64);
        }
        if r.times_banned > 0 {
            reg.add(&format!("rule.{}.banned", r.name), r.times_banned as u64);
        }
    }

    reg.add("extraction.cost", s.extracted_cost);
    reg.add("extraction.explored", s.extraction_explored);
    reg.add("extraction.prune.orbit", s.extraction_pruned[0] as u64);
    reg.add("extraction.prune.dominance", s.extraction_pruned[1] as u64);
    reg.add("extraction.prune.closure", s.extraction_pruned[2] as u64);
    reg.add(&format!("extraction.winner.{}", s.extraction_winner), 1);
    if s.extraction_proven {
        reg.add("extraction.proven", 1);
    }
    reg.add("extraction.bound_gap", s.bound_gap());
    reg.observe("kernel.cost", s.extracted_cost);
    reg.observe("kernel.explored", s.extraction_explored);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::StageCache;
    use crate::pipeline::{optimize_program, SaturatorConfig, Variant};
    use accsat_ir::parse_program;
    use std::sync::Arc;

    const KERNEL: &str = r#"
void k(double a[32], double out[32], double c) {
  #pragma acc parallel loop gang vector
  for (int i = 1; i < 31; i++) {
    out[i] = c * a[i - 1] + c * a[i] + c * a[i + 1];
  }
}
"#;

    #[test]
    fn registry_reflects_a_real_run() {
        let prog = parse_program(KERNEL).unwrap();
        let (_, stats) = optimize_program(&prog, Variant::AccSat).unwrap();
        let mut reg = MetricsRegistry::new();
        for s in &stats {
            add_opt_stats(&mut reg, s);
        }
        assert_eq!(reg.counter("kernels"), 1);
        assert_eq!(reg.counter("cache.request.miss"), 1);
        assert!(reg.counter("saturation.iterations") > 0);
        assert!(reg.counter("saturation.matches") > 0);
        assert!(reg.counter("egraph.nodes") > 10);
        assert!(reg.counter("extraction.cost") > 0);
        assert_eq!(reg.counter(&format!("extraction.winner.{}", stats[0].extraction_winner)), 1);
        assert_eq!(reg.histogram("kernel.cost").unwrap().count, 1);
        // per-iteration growth histogram has one sample per iteration
        assert_eq!(
            reg.histogram("saturation.nodes_per_iter").unwrap().count as usize,
            stats[0].saturation_iters
        );
        // rendering is reproducible
        assert_eq!(reg.to_text(), {
            let mut again = MetricsRegistry::new();
            for s in &stats {
                add_opt_stats(&mut again, s);
            }
            again.to_text()
        });
    }

    #[test]
    fn warm_cache_hit_replays_cold_metrics() {
        // a selected-level hit must fold in the same saturation counters
        // the original run measured (cache.request.* differs, by design)
        let prog = parse_program(KERNEL).unwrap();
        let cache = Arc::new(StageCache::in_memory());
        let config = SaturatorConfig { cache: Some(cache), ..SaturatorConfig::default() };
        let run = |config: &SaturatorConfig| {
            let (_, stats) =
                crate::pipeline::optimize_program_with(&prog, Variant::AccSat, config).unwrap();
            let mut reg = MetricsRegistry::new();
            for s in &stats {
                add_opt_stats(&mut reg, s);
            }
            reg
        };
        let cold = run(&config);
        let warm = run(&config);
        assert_eq!(cold.counter("cache.request.miss"), 1);
        assert_eq!(warm.counter("cache.request.selected"), 1);
        for key in [
            "saturation.iterations",
            "saturation.matches",
            "saturation.applied",
            "egraph.nodes",
            "extraction.cost",
            "extraction.explored",
        ] {
            assert_eq!(cold.counter(key), warm.counter(key), "{key} must replay");
        }
        assert_eq!(
            cold.histogram("saturation.nodes_per_iter"),
            warm.histogram("saturation.nodes_per_iter")
        );
        // the warm run re-claims the cold run's flight key → one
        // deterministic coalesce in the cache counters
        assert_eq!(config.cache.as_ref().unwrap().stats().coalesced, 1);
    }
}
