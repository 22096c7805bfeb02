//! The paper's evaluation, pinned: every figure and table `accsat-bench`
//! reproduces (Figs. 2–6, Tables II–IV, the §VII statistics) must print
//! exactly its file under `tests/golden/paper/`. An optimizer change that
//! moves a speedup, a kernel metric or a rule count shows up here as a
//! diff in the paper's own tables. If the change is intended, regenerate
//! the file with the command the failure prints and commit it.

use std::path::Path;

#[test]
fn every_paper_artifact_matches_its_golden() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/paper");
    let mut failures = Vec::new();
    for (name, artifact) in accsat_bench::ARTIFACTS {
        let path = dir.join(format!("{name}.txt"));
        let golden =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let got = artifact();
        if got != golden {
            failures.push(format!(
                "{name} moved; got:\n{got}\nregenerate with: \
                 cargo run -q --release -p accsat-bench --bin {name} > tests/golden/paper/{name}.txt"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}
