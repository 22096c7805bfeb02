//! Prints [`accsat_bench::table4`]; pinned by `tests/golden/paper/table4.txt`.

fn main() {
    print!("{}", accsat_bench::table4());
}
