//! Prints [`accsat_bench::fig5`]; pinned by `tests/golden/paper/fig5.txt`.

fn main() {
    print!("{}", accsat_bench::fig5());
}
