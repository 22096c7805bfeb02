//! `accsat-ir` — the source-level intermediate representation for ACC Saturator.
//!
//! The paper's tool parses OpenACC/OpenMP C sources through XcodeML; this
//! crate provides the equivalent substrate: a C-subset abstract syntax tree
//! with `#pragma acc` / `#pragma omp` directive attachments, a hand-written
//! lexer and recursive-descent parser, a pretty-printer that regenerates
//! compilable C, and traversal utilities used by the SSA builder and the
//! compiler models.
//!
//! The subset covers everything the optimizer touches: scalar and array
//! declarations, assignments (including compound assignments), `if`/`else`,
//! `for` and `while` loops, function calls, ternary expressions, and
//! multi-dimensional array references — i.e. the sequential bodies of
//! innermost parallel loops that ACC Saturator rewrites.

pub mod ast;
mod directive;
mod fingerprint;
mod kernel;
mod lexer;
mod parser;
mod printer;
pub mod visit;

pub use ast::{AssignOp, BinOp, Block, Expr, Function, LValue, Param, Program, Stmt, Type, UnOp};
pub use directive::{Directive, DirectiveKind, Model};
pub use fingerprint::{fingerprint_block, fnv1a, fnv1a_mix};
pub use kernel::{
    const_eval, innermost_parallel_loops, innermost_parallel_loops_mut, kernel_nest, trip_count,
};
pub use parser::{parse_expr, parse_program, ParseError};
pub use printer::{print_program, print_stmt};
pub use visit::walk_expr;

/// Identifier type used throughout the IR. Kernel sources are small, so a
/// plain `String` keeps the API simple; hot paths intern on their own side.
pub type Ident = String;
