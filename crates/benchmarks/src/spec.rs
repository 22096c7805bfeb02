//! SPEC ACCEL benchmarks (OpenACC + OpenMP C) — Table III of the paper.
//!
//! SPEC's OpenACC codes use the `kernels` directive (the paper: "the
//! implementation of NPB is based on OpenACC's parallel directive while
//! that of SPEC's OpenACC benchmarks is on the kernels directive") — which
//! is exactly what degrades GCC's parallelism and makes bulk load shine
//! there. ep/cg/csp/bt share their computation with NPB's EP/CG/SP/BT.

use crate::{npb, Benchmark, Suite};

/// 3-D Jacobi 7-point stencil (ostencil / "stencil" in SPEC ACCEL).
pub fn ostencil_source() -> String {
    r#"
void stencil_jacobi(double a0[258][10][10], double anext[258][10][10],
                    double c0, double c1, int nx, int gp) {
  #pragma acc kernels loop independent
  for (int i = 1; i <= nx; i++) {
    #pragma acc loop independent vector(64)
    for (int j = 1; j <= gp; j++) {
      for (int k = 1; k <= gp; k++) {
        anext[i][j][k] = c1
          * (a0[i][j][k - 1] + a0[i][j][k + 1]
           + a0[i][j - 1][k] + a0[i][j + 1][k]
           + a0[i - 1][j][k] + a0[i + 1][j][k])
          - a0[i][j][k] * c0;
      }
    }
  }
}
"#
    .to_string()
}

/// Lattice-Boltzmann collision-streaming with 9 distributions
/// (olbm; CFD halo with massive per-cell expression reuse — the paper
/// reports CSE removes ~55% of its loads).
pub(crate) fn olbm_source() -> String {
    r#"
void lbm_stream(double src[9][16384], double dst[9][16384], double omega,
                int ncells) {
  #pragma acc kernels loop independent vector(128)
  for (int i = 1; i < ncells; i++) {
    double f0 = src[0][i];
    double f1 = src[1][i];
    double f2 = src[2][i];
    double f3 = src[3][i];
    double f4 = src[4][i];
    double f5 = src[5][i];
    double f6 = src[6][i];
    double f7 = src[7][i];
    double f8 = src[8][i];
    double rho = f0 + f1 + f2 + f3 + f4 + f5 + f6 + f7 + f8;
    double ux = (f1 - f2 + f5 - f6 + f7 - f8) / rho;
    double uy = (f3 - f4 + f5 - f6 - f7 + f8) / rho;
    double usqr = 1.5 * (ux * ux + uy * uy);
    dst[0][i] = f0 - omega * (f0 - 0.444444 * rho * (1.0 - usqr));
    dst[1][i] = f1 - omega * (f1 - 0.111111 * rho
      * (1.0 + 3.0 * ux + 4.5 * ux * ux - usqr));
    dst[2][i] = f2 - omega * (f2 - 0.111111 * rho
      * (1.0 - 3.0 * ux + 4.5 * ux * ux - usqr));
    dst[3][i] = f3 - omega * (f3 - 0.111111 * rho
      * (1.0 + 3.0 * uy + 4.5 * uy * uy - usqr));
    dst[4][i] = f4 - omega * (f4 - 0.111111 * rho
      * (1.0 - 3.0 * uy + 4.5 * uy * uy - usqr));
    dst[5][i] = f5 - omega * (f5 - 0.027777 * rho
      * (1.0 + 3.0 * (ux + uy) + 4.5 * (ux + uy) * (ux + uy) - usqr));
    dst[6][i] = f6 - omega * (f6 - 0.027777 * rho
      * (1.0 - 3.0 * (ux + uy) + 4.5 * (ux + uy) * (ux + uy) - usqr));
    dst[7][i] = f7 - omega * (f7 - 0.027777 * rho
      * (1.0 + 3.0 * (ux - uy) + 4.5 * (ux - uy) * (ux - uy) - usqr));
    dst[8][i] = f8 - omega * (f8 - 0.027777 * rho
      * (1.0 - 3.0 * (ux - uy) + 4.5 * (ux - uy) * (ux - uy) - usqr));
  }
}
"#
    .to_string()
}

/// MRI-Q reconstruction: structure-of-arrays Q computation with sin/cos
/// (omriq).
pub(crate) fn omriq_source() -> String {
    r#"
void mriq_computeq(double x[8192], double y[8192], double z[8192],
                   double kx[64], double ky[64], double kz[64],
                   double phiR[64], double phiI[64],
                   double Qr[8192], double Qi[8192], int numx, int numk) {
  #pragma acc kernels loop independent vector(128)
  for (int i = 0; i < numx; i++) {
    double xl = x[i];
    double yl = y[i];
    double zl = z[i];
    double qr = 0.0;
    double qi = 0.0;
    for (int k = 0; k < numk; k++) {
      double expArg = 6.2831853 * (kx[k] * xl + ky[k] * yl + kz[k] * zl);
      double cosArg = cos(expArg);
      double sinArg = sin(expArg);
      qr = qr + phiR[k] * cosArg - phiI[k] * sinArg;
      qi = qi + phiI[k] * cosArg + phiR[k] * sinArg;
    }
    Qr[i] = qr;
    Qi[i] = qi;
  }
}
"#
    .to_string()
}

/// Rewrite an NPB source to SPEC's `kernels`-directive style.
fn to_kernels_style(src: &str) -> String {
    src.replace("#pragma acc parallel loop", "#pragma acc kernels loop")
}

/// The seven SPEC ACCEL benchmarks of Table III, in table order.
pub fn spec_benchmarks() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "ostencil",
            suite: Suite::Spec,
            compute: "Jacobi",
            access: "Halo (3D)",
            paper_num_kernels: 1,
            acc_source: ostencil_source(),
            has_omp: true,
            bindings: vec![("nx", 256), ("gp", 8)],
            launches: 229563,
        },
        Benchmark {
            name: "olbm",
            suite: Suite::Spec,
            compute: "CFD",
            access: "Halo (3D)",
            paper_num_kernels: 3,
            acc_source: olbm_source(),
            has_omp: true,
            bindings: vec![("ncells", 16384)],
            launches: 278,
        },
        Benchmark {
            name: "omriq",
            suite: Suite::Spec,
            compute: "MRI",
            access: "Structure-of-arrays",
            paper_num_kernels: 2,
            acc_source: omriq_source(),
            has_omp: true,
            bindings: vec![("numx", 8192), ("numk", 48)],
            launches: 1117,
        },
        Benchmark {
            name: "ep",
            suite: Suite::Spec,
            compute: "Random Num",
            access: "Parallel",
            paper_num_kernels: 5,
            acc_source: to_kernels_style(&npb::ep_source()),
            has_omp: true,
            bindings: vec![("nk", 16)],
            launches: 36608,
        },
        Benchmark {
            name: "cg",
            suite: Suite::Spec,
            compute: "Eigenvalue",
            access: "Irregular",
            paper_num_kernels: 16,
            acc_source: to_kernels_style(&npb::cg_source()),
            has_omp: true,
            bindings: vec![("nrows", 4096)],
            launches: 4609,
        },
        Benchmark {
            name: "csp",
            suite: Suite::Spec,
            compute: "CFD",
            access: "Halo (3D)",
            paper_num_kernels: 68,
            acc_source: to_kernels_style(&npb::sp_source()),
            has_omp: true,
            bindings: vec![("ksize", 128), ("gp02", 6), ("gp12", 6)],
            launches: 4736863,
        },
        Benchmark {
            name: "bt",
            suite: Suite::Spec,
            compute: "CFD",
            access: "Halo (3D)",
            paper_num_kernels: 50,
            acc_source: to_kernels_style(&npb::bt_source()),
            has_omp: true,
            bindings: vec![("ksize", 128), ("gp02", 6), ("gp12", 6)],
            launches: 402943,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use accsat_ir::{parse_program, DirectiveKind, Stmt};

    #[test]
    fn spec_acc_uses_kernels_directive() {
        for b in spec_benchmarks() {
            let p = parse_program(&b.acc_source).unwrap();
            let head = p.functions[0]
                .body
                .stmts
                .iter()
                .find_map(|s| match s {
                    Stmt::For(l) => l.directive.as_ref(),
                    _ => None,
                })
                .expect("head directive");
            assert_eq!(
                head.kind,
                DirectiveKind::AccKernelsLoop,
                "{} must use the kernels directive",
                b.name
            );
        }
    }

    #[test]
    fn olbm_is_load_heavy_with_reuse() {
        let p = parse_program(&olbm_source()).unwrap();
        let prof = accsat_ir::visit::static_profile(&p.functions[0].body);
        assert_eq!(prof.loads, 9);
        assert_eq!(prof.stores, 9);
        assert!(prof.flops > 60, "heavy expression reuse: {}", prof.flops);
    }

    #[test]
    fn omriq_uses_trig_calls() {
        let p = parse_program(&omriq_source()).unwrap();
        let prof = accsat_ir::visit::static_profile(&p.functions[0].body);
        assert_eq!(prof.calls, 2);
    }

    #[test]
    fn all_spec_have_omp() {
        assert!(spec_benchmarks().iter().all(|b| b.has_omp));
    }
}
