//! Prints [`accsat_bench::stats`], pinned by `tests/golden/paper/stats.txt`,
//! then the two wall-clock means §VII compares against the paper — on
//! stderr, so stdout stays the golden and regenerates it.

fn main() {
    let (artifact, timing) = accsat_bench::stats_and_timing();
    print!("{artifact}");
    eprint!("{timing}");
}
