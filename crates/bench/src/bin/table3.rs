//! Prints [`accsat_bench::table3`]; pinned by `tests/golden/paper/table3.txt`.

fn main() {
    print!("{}", accsat_bench::table3());
}
