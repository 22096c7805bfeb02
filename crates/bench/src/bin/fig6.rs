//! Prints [`accsat_bench::fig6`]; pinned by `tests/golden/paper/fig6.txt`.

fn main() {
    print!("{}", accsat_bench::fig6());
}
