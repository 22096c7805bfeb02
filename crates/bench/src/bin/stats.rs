//! Prints [`accsat_bench::stats`], pinned by `tests/golden/paper/stats.txt`,
//! then the two wall-clock means §VII compares against the paper, read
//! from the run's `pipeline` trace spans — on stderr, so stdout stays the
//! golden and regenerates it.

use accsat::obs::{trace, validate::validate_trace};

fn main() {
    trace::start();
    let artifact = accsat_bench::stats();
    let events = trace::finish().expect("tracer armed above");
    let totals = validate_trace(&events).expect("the tracer writes valid traces").span_totals;
    let stage = |name: &str| totals.get(&format!("pipeline/{name}")).copied().unwrap_or_default();
    let (ssa, codegen, saturate) = (stage("ssa"), stage("codegen"), stage("saturate"));
    // one saturate span per kernel: every kernel of the run is cold
    let kernels = saturate.count.max(1) as f64;
    print!("{artifact}");
    eprint!(
        "\nSSA+codegen per kernel: mean {:.1} ms (paper: 91.8 ms on full-size kernels)\n\
         saturation per kernel:  mean {:.3} s (paper: 0.63 s)\n",
        (ssa.total_us + codegen.total_us) as f64 / kernels / 1e3,
        saturate.total_us as f64 / kernels / 1e6,
    );
}
