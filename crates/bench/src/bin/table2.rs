//! Prints [`accsat_bench::table2`]; pinned by `tests/golden/paper/table2.txt`.

fn main() {
    print!("{}", accsat_bench::table2());
}
