//! Quickstart: optimize one OpenACC kernel end-to-end and print the
//! generated code — the `% accsat nvc …` flow of the paper's Fig. 1.
//!
//! Run with: `cargo run --release --example quickstart`

use acc_saturator::{optimize_program, Variant};
use accsat_ir::{parse_program, print_program};

fn main() {
    // Listing 1 of the paper: matrix multiplication with OpenACC directives.
    let src = r#"
void matmul(double a[64][64], double b[64][64], double c[64][64],
            double r[64][64], double alpha, double beta, int cy, int cx, int ax) {
  #pragma acc kernels loop independent
  for (int i = 0; i < cy; i++) {
    #pragma acc loop independent gang(16) vector(256)
    for (int j = 0; j < cx; j++) {
      double tmp = 0.0;
      for (int l = 0; l < ax; l++) {
        tmp += a[i][l] * b[l][j];
      }
      r[i][j] = alpha * tmp + beta * c[i][j];
    }
  }
}
"#;
    let prog = parse_program(src).expect("valid OpenACC C");

    println!("=== original ===\n{}", print_program(&prog));

    for variant in [Variant::Cse, Variant::AccSat] {
        let (optimized, stats) = optimize_program(&prog, variant).expect("pipeline");
        println!("=== {} ===\n{}", variant.label(), print_program(&optimized));
        for s in &stats {
            println!(
                "// kernel `{}`: {} e-nodes, {} saturation iterations, extracted cost {}",
                s.function, s.egraph_nodes, s.saturation_iters, s.extracted_cost
            );
        }
    }
}
