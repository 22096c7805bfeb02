//! Phase attribution for saturation on the NPB-BT z_solve shape: how the
//! time splits between search, apply and rebuild.
//!
//! This hand-replays `Runner::run`'s loop WITHOUT the backoff scheduler or
//! node/time limits (no rule is banned on this workload within the
//! 4-iteration budget, so the totals line up with the
//! `saturation_engine_bt_zsolve` bench in `crates/bench/benches/
//! optimizer.rs`) — it exists to show the loop in forty lines; the runner
//! reports the same three phases per iteration in `IterationStats`. If the
//! runner's loop changes shape, update this replay to match.

use accsat_egraph::{all_rules, EGraph, FxHashSet, Id, VarSubst};
use accsat_ir::parse_program;
use std::time::{Duration, Instant};

fn main() {
    let bt = accsat_benchmarks::npb_benchmarks().remove(0);
    let prog = parse_program(&bt.acc_source).unwrap();
    let f = &prog.functions[0];
    let body = accsat_ir::innermost_parallel_loops(f)[0].body.clone();
    let rules = all_rules();
    let kernel = accsat_ssa::build_kernel(&body);

    let mut eg: EGraph = kernel.egraph.clone();
    let mut t_search = Duration::ZERO;
    let mut t_apply = Duration::ZERO;
    let mut t_rebuild = Duration::ZERO;
    let mut seen: FxHashSet<(usize, Id, VarSubst)> = FxHashSet::default();
    for it in 0..4 {
        let t0 = Instant::now();
        let dirty = if it == 0 {
            eg.clear_search_dirty();
            None
        } else {
            Some(eg.take_search_dirty())
        };
        let mut all = Vec::new();
        for (ri, r) in rules.iter().enumerate() {
            for m in r.search_filtered(&eg, dirty.as_ref()) {
                all.push((ri, m));
            }
        }
        t_search += t0.elapsed();
        let t1 = Instant::now();
        for (ri, m) in all {
            if !seen.insert((ri, m.class, m.subst.clone())) {
                continue;
            }
            rules[ri].apply_match(&mut eg, m.class, &m.subst);
        }
        t_apply += t1.elapsed();
        let t2 = Instant::now();
        eg.rebuild();
        t_rebuild += t2.elapsed();
    }
    println!(
        "search={t_search:?} apply={t_apply:?} rebuild={t_rebuild:?} nodes={} classes={} forms={}",
        eg.total_nodes(),
        eg.num_classes(),
        eg.num_forms(),
    );
}
