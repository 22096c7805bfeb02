//! The simulation-guided tuner, pinned: `accsat tune --suite all` at
//! default settings over the 14 suite sources (19 kernels) must render
//! exactly `tests/golden/tune_suite.txt` (the tuning table) and
//! `tests/golden/tune_suite.json` (the stable JSON report). These pin the
//! candidate harvest — its order, labels, deduplication and static winner —
//! and the simulated verdicts, which the thread-count diffs elsewhere only
//! compare against each other. If a change moves them on purpose,
//! regenerate both files with the command the failure prints.

use accsat::autotune::TuneConfig;
use accsat::batch::{tune_suite, ParallelConfig};
use accsat::{SaturatorConfig, Variant};
use std::path::Path;

#[test]
fn tuned_suite_matches_its_golden() {
    let report = tune_suite(
        &accsat_benchmarks::all_benchmarks(),
        Variant::AccSat,
        &SaturatorConfig::default(),
        &TuneConfig::default(),
        &ParallelConfig { threads: 2, kernel_deadline: None, shard: None },
    )
    .unwrap();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for (file, got) in [
        ("tune_suite.txt", report.render_tuning_table()),
        ("tune_suite.json", report.to_stable_json()),
    ] {
        let path = dir.join(file);
        let golden =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            got == golden,
            "{file} moved; got:\n{got}\nregenerate with: \
             cargo run -q --release -p accsat --bin accsat -- tune --suite all \
             --json tests/golden/tune_suite.json | sed '$d' > tests/golden/tune_suite.txt"
        );
    }
}
