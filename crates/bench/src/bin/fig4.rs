//! Prints [`accsat_bench::fig4`]; pinned by `tests/golden/paper/fig4.txt`.

fn main() {
    print!("{}", accsat_bench::fig4());
}
