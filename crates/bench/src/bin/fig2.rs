//! Prints [`accsat_bench::fig2`]; pinned by `tests/golden/paper/fig2.txt`.

fn main() {
    print!("{}", accsat_bench::fig2());
}
