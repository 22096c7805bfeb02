//! Prints [`accsat_bench::fig3`]; pinned by `tests/golden/paper/fig3.txt`.

fn main() {
    print!("{}", accsat_bench::fig3());
}
