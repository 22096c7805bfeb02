//! A deterministic allocation gate on the kernel text path: the parser,
//! the printer (and the fingerprint that hashes its output) and the code
//! generator. Wall-clock gates flake on a noisy host; allocation counts do
//! not, and on this path the allocations were the cost — a token cloned per
//! `bump`, a `String` per printed sub-expression, a `Node` cloned per
//! reference and five maps cloned per `if`/`for` in the emitter.
//!
//! This binary installs the counting allocator (its own test binary, one
//! `#[test]`) and counts three things over the paper's suite:
//!
//! * **parse** — `parse_program` on the 14 suite sources;
//! * **print** — `print_program` on each parsed program plus
//!   `fingerprint_block` on each of the 19 kernel bodies;
//! * **generate** — `generate` with bulk load on for the 19 kernels,
//!   saturated and extracted as the `accsat` variant does.
//!
//! Figures at `b210d69`, before the text path was rebuilt:
//!
//! ```text
//!            allocations      bytes
//! parse             6731    1210802   (the parsed trees themselves: 3466)
//! print             8344     193424
//! generate         22897    1411373
//! ```
//!
//! Print and generate must stay at or under half of those allocations. A
//! parser cannot allocate less than the tree it returns, and the 3466 heap
//! objects of the 14 trees (counted here as the allocations of a clone) are
//! 51 % of the parent's 6731, so for parse the gate is on what the parser
//! allocates *beyond* the tree (3265 at the parent) and on bytes.

#[path = "common/counting.rs"]
mod counting;

use accsat_codegen::{generate, CodegenOptions, TypeMap};
use accsat_egraph::{all_rules, Runner};
use accsat_extract::{extract_portfolio, CostModel, PortfolioConfig};
use accsat_ir::{fingerprint_block, parse_program, print_program};
use counting::counted;
use std::time::Duration;

#[global_allocator]
static GLOBAL: counting::Counting = counting::Counting;

/// `[allocations, bytes]` each measure made at `b210d69` (table above).
const PARENT_PARSE: [u64; 2] = [6731, 1_210_802];
const PARENT_PRINT: [u64; 2] = [8344, 193_424];
const PARENT_GENERATE: [u64; 2] = [22_897, 1_411_373];
/// Allocations of the 14 parsed trees' own heap objects.
const TREES: u64 = 3466;

#[test]
fn text_path_allocates_at_most_half_of_its_parent() {
    let sources: Vec<String> =
        accsat_benchmarks::all_benchmarks().into_iter().map(|b| b.acc_source).collect();

    let (programs, parse) =
        counted(|| sources.iter().map(|s| parse_program(s).unwrap()).collect::<Vec<_>>());
    let (_, trees) = counted(|| programs.clone());
    assert_eq!(trees[0], TREES, "the parsed trees changed shape");

    let (printed, print) = counted(|| {
        let mut bytes = 0usize;
        for p in &programs {
            bytes += print_program(p).len();
            for f in &p.functions {
                for l in accsat_ir::innermost_parallel_loops(f) {
                    bytes += (fingerprint_block(&l.body) & 1) as usize;
                }
            }
        }
        bytes
    });
    assert!(printed > 0);

    let cm = CostModel::paper();
    let cfg = PortfolioConfig { node_budget: 60_000, deadline: Duration::from_secs(600) };
    let opts = CodegenOptions { bulk_load: true };
    let mut generated = [0u64; 2];
    let mut kernels = 0;
    for p in &programs {
        for f in &p.functions {
            let tm = TypeMap::from_function(f);
            for l in accsat_ir::innermost_parallel_loops(f) {
                let mut kernel = accsat_ssa::build_kernel(&l.body);
                Runner::new(all_rules()).run(&mut kernel.egraph);
                let roots = kernel.extraction_roots();
                let (_, sel) = extract_portfolio(&kernel.egraph, &roots, &cm, &cfg).into_winner();
                let (body, n) = counted(|| generate(&kernel, &sel, &tm, &opts));
                assert!(!body.stmts.is_empty(), "{}: empty body", f.name);
                println!("generate {}: {} allocations, {} bytes", f.name, n[0], n[1]);
                generated = [generated[0] + n[0], generated[1] + n[1]];
                kernels += 1;
            }
        }
    }
    assert_eq!(kernels, 19);

    for (name, now, parent) in [
        ("parse", parse, PARENT_PARSE),
        ("print", print, PARENT_PRINT),
        ("generate", generated, PARENT_GENERATE),
    ] {
        println!(
            "{name:<9} {:>6} allocations {:>8} bytes (b210d69: {} / {})",
            now[0], now[1], parent[0], parent[1]
        );
    }
    let beyond = parse[0] - TREES;
    assert!(
        beyond * 2 <= PARENT_PARSE[0] - TREES,
        "parse: {beyond} allocations beyond the trees, more than half of the parent's {}",
        PARENT_PARSE[0] - TREES
    );
    assert!(parse[1] * 2 <= PARENT_PARSE[1], "parse: {} bytes, over half", parse[1]);
    assert!(print[0] * 2 <= PARENT_PRINT[0], "print: {} allocations, over half", print[0]);
    assert!(
        generated[0] * 2 <= PARENT_GENERATE[0],
        "generate: {} allocations, over half",
        generated[0]
    );
}
