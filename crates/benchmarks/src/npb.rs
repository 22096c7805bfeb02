//! NAS Parallel Benchmarks (OpenACC/C) — Table II of the paper.
//!
//! NPB codes use the `parallel` directive (the paper notes SPEC's OpenACC
//! versions use `kernels` instead). Kernels reproduce the dominant patterns:
//! BT/LU/SP are 3-D halo CFD solves with dense 5×5 block math, CG is an
//! irregular sparse matrix-vector product, EP is compute-only random-number
//! generation, FT is an FFT butterfly stage, MG mixes long- and
//! short-distance stencil accesses.

use crate::{Benchmark, Suite};

/// NPB BT's dominant kernel shape — Listing 2 of the paper (z_solve):
/// dense 5×5 Jacobian blocks with shared `dt·tz` factors and heavy
/// FMA-friendly chains, plus a compute_rhs halo stencil.
pub(crate) fn bt_source() -> String {
    r#"
void bt_zsolve(double lhsZ[3][3][3][130][8][8], double fjacZ[3][3][130][8][8],
               double njacZ[3][3][130][8][8], double dt, double tz1, double tz2,
               double dz1, double dz2, double dz3, int ksize, int gp02, int gp12) {
  #pragma acc parallel loop gang num_gangs(128) num_workers(4) vector_length(32)
  for (int k = 1; k <= ksize; k++) {
    #pragma acc loop worker
    for (int i = 1; i <= gp02; i++) {
      #pragma acc loop vector
      for (int j = 1; j <= gp12; j++) {
        double temp1 = dt * tz1;
        double temp2 = dt * tz2;
        lhsZ[0][0][0][k][i][j] = -temp2 * fjacZ[0][0][k - 1][i][j]
          - temp1 * njacZ[0][0][k - 1][i][j] - temp1 * dz1;
        lhsZ[0][1][0][k][i][j] = -temp2 * fjacZ[0][1][k - 1][i][j]
          - temp1 * njacZ[0][1][k - 1][i][j];
        lhsZ[0][2][0][k][i][j] = -temp2 * fjacZ[0][2][k - 1][i][j]
          - temp1 * njacZ[0][2][k - 1][i][j];
        lhsZ[1][0][0][k][i][j] = -temp2 * fjacZ[1][0][k - 1][i][j]
          - temp1 * njacZ[1][0][k - 1][i][j];
        lhsZ[1][1][0][k][i][j] = -temp2 * fjacZ[1][1][k - 1][i][j]
          - temp1 * njacZ[1][1][k - 1][i][j] - temp1 * dz2;
        lhsZ[1][2][0][k][i][j] = -temp2 * fjacZ[1][2][k - 1][i][j]
          - temp1 * njacZ[1][2][k - 1][i][j];
        lhsZ[2][0][0][k][i][j] = -temp2 * fjacZ[2][0][k - 1][i][j]
          - temp1 * njacZ[2][0][k - 1][i][j];
        lhsZ[2][1][0][k][i][j] = -temp2 * fjacZ[2][1][k - 1][i][j]
          - temp1 * njacZ[2][1][k - 1][i][j];
        lhsZ[2][2][0][k][i][j] = -temp2 * fjacZ[2][2][k - 1][i][j]
          - temp1 * njacZ[2][2][k - 1][i][j] - temp1 * dz3;
        lhsZ[0][0][1][k][i][j] = 1.0 + temp1 * 2.0 * njacZ[0][0][k][i][j]
          + temp1 * 2.0 * dz1;
        lhsZ[0][1][1][k][i][j] = temp1 * 2.0 * njacZ[0][1][k][i][j];
        lhsZ[1][1][1][k][i][j] = 1.0 + temp1 * 2.0 * njacZ[1][1][k][i][j]
          + temp1 * 2.0 * dz2;
        lhsZ[2][2][1][k][i][j] = 1.0 + temp1 * 2.0 * njacZ[2][2][k][i][j]
          + temp1 * 2.0 * dz3;
        lhsZ[0][0][2][k][i][j] = temp2 * fjacZ[0][0][k + 1][i][j]
          - temp1 * njacZ[0][0][k + 1][i][j] - temp1 * dz1;
        lhsZ[1][1][2][k][i][j] = temp2 * fjacZ[1][1][k + 1][i][j]
          - temp1 * njacZ[1][1][k + 1][i][j] - temp1 * dz2;
        lhsZ[2][2][2][k][i][j] = temp2 * fjacZ[2][2][k + 1][i][j]
          - temp1 * njacZ[2][2][k + 1][i][j] - temp1 * dz3;
      }
    }
  }
}

void bt_rhs(double rhs[3][130][8][8], double u[3][130][8][8], double dssp,
            int ksize, int gp02, int gp12) {
  #pragma acc parallel loop gang num_gangs(128) num_workers(4) vector_length(32)
  for (int k = 1; k <= ksize; k++) {
    #pragma acc loop worker
    for (int i = 1; i <= gp02; i++) {
      #pragma acc loop vector
      for (int j = 1; j <= gp12; j++) {
        rhs[0][k][i][j] = rhs[0][k][i][j] - dssp * (u[0][k - 1][i][j]
          - 2.0 * u[0][k][i][j] + u[0][k + 1][i][j]);
        rhs[1][k][i][j] = rhs[1][k][i][j] - dssp * (u[1][k - 1][i][j]
          - 2.0 * u[1][k][i][j] + u[1][k + 1][i][j]);
        rhs[2][k][i][j] = rhs[2][k][i][j] - dssp * (u[2][k - 1][i][j]
          - 2.0 * u[2][k][i][j] + u[2][k + 1][i][j]);
      }
    }
  }
}
"#
    .to_string()
}

/// NPB CG: irregular sparse matrix-vector product (eigenvalue solver core).
pub(crate) fn cg_source() -> String {
    r#"
void cg_spmv(double a[65536], int colidx[65536], int rowstr[4097],
             double p[4096], double q[4096], int nrows) {
  #pragma acc parallel loop gang vector_length(64)
  for (int j = 0; j < nrows; j++) {
    double sum = 0.0;
    for (int k = rowstr[j]; k < rowstr[j + 1]; k++) {
      sum = sum + a[k] * p[colidx[k]];
    }
    q[j] = sum;
  }
}

void cg_axpy(double p[4096], double r[4096], double z[4096], double beta,
             int nrows) {
  #pragma acc parallel loop gang vector_length(64)
  for (int j = 0; j < nrows; j++) {
    z[j] = z[j] + beta * p[j];
    p[j] = r[j] + beta * p[j];
  }
}
"#
    .to_string()
}

/// NPB EP: embarrassingly parallel pseudo-random Gaussian pairs
/// (compute-only; the paper notes FMA discovery is what helps here).
pub(crate) fn ep_source() -> String {
    r#"
void ep_gauss(double sx[8192], double sy[8192], double seed, int nk) {
  #pragma acc parallel loop gang vector_length(128)
  for (int i = 0; i < 8192; i++) {
    double t1 = seed + (double)i * 1220703.125;
    double ax = 0.0;
    double ay = 0.0;
    for (int k = 0; k < nk; k++) {
      double a = t1 * 0.000001 + (double)k * 0.618033;
      double f = a - (double)((int)a);
      double x1 = 2.0 * f - 1.0;
      double b = a * 2.718281 + 0.5;
      double g = b - (double)((int)b);
      double x2 = 2.0 * g - 1.0;
      double t = x1 * x1 + x2 * x2;
      if (t <= 1.0) {
        if (t > 0.0) {
          double w = sqrt(-2.0 * log(t) / t);
          ax = ax + x1 * w;
          ay = ay + x2 * w;
        }
      }
    }
    sx[i] = ax;
    sy[i] = ay;
  }
}
"#
    .to_string()
}

/// NPB FT: one radix-2 FFT butterfly stage with twiddle factors
/// (all-to-all access pattern).
pub(crate) fn ft_source() -> String {
    r#"
void ft_butterfly(double xre[16384], double xim[16384], double ure[8192],
                  double uim[8192], double yre[16384], double yim[16384], int n2) {
  #pragma acc parallel loop gang vector_length(128)
  for (int i = 0; i < n2; i++) {
    double ar = xre[i];
    double ai = xim[i];
    double br = xre[i + n2];
    double bi = xim[i + n2];
    double wr = ure[i];
    double wi = uim[i];
    yre[i] = ar + br;
    yim[i] = ai + bi;
    yre[i + n2] = wr * (ar - br) - wi * (ai - bi);
    yim[i + n2] = wr * (ai - bi) + wi * (ar - br);
  }
}

void ft_evolve(double ure[16384], double uim[16384], double twre[16384],
               double twim[16384], int n) {
  #pragma acc parallel loop gang vector_length(128)
  for (int i = 0; i < n; i++) {
    double r = ure[i];
    double m = uim[i];
    ure[i] = r * twre[i] - m * twim[i];
    uim[i] = r * twim[i] + m * twre[i];
  }
}
"#
    .to_string()
}

/// NPB LU: SSOR lower-triangular solve sweep (jacld-like) — dense
/// coefficient construction with shared factors and divisions.
pub(crate) fn lu_source() -> String {
    r#"
void lu_jacld(double d[3][3][130][8][8], double u[3][130][8][8], double dt,
              double tx1, double ty1, double tz1, double r43, double c1345,
              int ksize, int gp02, int gp12) {
  #pragma acc parallel loop gang num_gangs(128) num_workers(4) vector_length(32)
  for (int k = 1; k <= ksize; k++) {
    #pragma acc loop worker
    for (int i = 1; i <= gp02; i++) {
      #pragma acc loop vector
      for (int j = 1; j <= gp12; j++) {
        double tmp1 = 1.0 / u[0][k][i][j];
        double tmp2 = tmp1 * tmp1;
        double tmp3 = tmp1 * tmp2;
        d[0][0][k][i][j] = 1.0 + dt * 2.0 * (tx1 + ty1 + tz1);
        d[0][1][k][i][j] = 0.0;
        d[0][2][k][i][j] = dt * 2.0 * (tx1 * r43 + ty1 + tz1)
          * (-tmp2 * u[1][k][i][j]) * c1345;
        d[1][0][k][i][j] = dt * 2.0 * (tx1 + ty1 * r43 + tz1)
          * (-tmp2 * u[2][k][i][j]) * c1345;
        d[1][1][k][i][j] = 1.0 + dt * 2.0 * c1345 * tmp1 * (tx1 + ty1 + tz1);
        d[1][2][k][i][j] = dt * 2.0 * (-tmp2 * u[1][k][i][j] * u[2][k][i][j])
          * tmp3 * c1345;
        d[2][0][k][i][j] = dt * 2.0 * (tx1 + ty1 + tz1 * r43)
          * (-tmp2 * u[1][k][i][j]);
        d[2][1][k][i][j] = dt * 2.0 * tmp1 * (tx1 + ty1 + tz1 * r43) * c1345;
        d[2][2][k][i][j] = 1.0 + dt * 2.0 * (tx1 * r43 + ty1 * r43 + tz1 * r43)
          * tmp1 * c1345;
      }
    }
  }
}
"#
    .to_string()
}

/// NPB MG: one V-cycle residual with long- and short-distance accesses.
pub(crate) fn mg_source() -> String {
    r#"
void mg_resid(double u[258][10][10], double v[258][10][10], double r[258][10][10],
              double a0, double a1, double a2, double a3, int n1, int gp) {
  #pragma acc parallel loop gang num_gangs(256) vector_length(64)
  for (int i = 1; i <= n1; i++) {
    #pragma acc loop vector
    for (int k = 1; k <= gp; k++) {
      double u1 = u[i][1][k - 1] + u[i][1][k + 1] + u[i - 1][1][k]
        + u[i + 1][1][k];
      double u2 = u[i - 1][1][k - 1] + u[i - 1][1][k + 1]
        + u[i + 1][1][k - 1] + u[i + 1][1][k + 1];
      r[i][1][k] = v[i][1][k] - a0 * u[i][1][k] - a1 * u1 - a2 * u2
        - a3 * (u1 + u2);
    }
  }
}
"#
    .to_string()
}

/// NPB SP: scalar penta-diagonal solve coefficient setup (halo CFD).
pub(crate) fn sp_source() -> String {
    r#"
void sp_lhs(double lhs[5][130][8][8], double rho[130][8][8], double speed[130][8][8],
            double dttz1, double dttz2, double c2dttz1, int ksize,
            int gp02, int gp12) {
  #pragma acc parallel loop gang num_gangs(128) num_workers(4) vector_length(32)
  for (int k = 1; k <= ksize; k++) {
    #pragma acc loop worker
    for (int i = 1; i <= gp02; i++) {
      #pragma acc loop vector
      for (int j = 1; j <= gp12; j++) {
        double ru1 = c2dttz1 * rho[k - 1][i][j];
        double ru2 = c2dttz1 * rho[k][i][j];
        double ru3 = c2dttz1 * rho[k + 1][i][j];
        lhs[0][k][i][j] = -dttz2 * speed[k - 1][i][j] - dttz1 * ru1;
        lhs[1][k][i][j] = 1.0 + c2dttz1 * ru2 + dttz1 * 2.0 * ru2;
        lhs[2][k][i][j] = dttz2 * speed[k + 1][i][j] - dttz1 * ru3;
        lhs[3][k][i][j] = -dttz2 * speed[k - 1][i][j] - dttz1 * ru1
          + c2dttz1 * rho[k - 1][i][j];
        lhs[4][k][i][j] = dttz2 * speed[k + 1][i][j] - dttz1 * ru3
          + c2dttz1 * rho[k + 1][i][j];
      }
    }
  }
}
"#
    .to_string()
}

/// The seven NPB benchmarks of Table II, in table order.
pub fn npb_benchmarks() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "BT",
            suite: Suite::Npb,
            compute: "CFD",
            access: "Halo (3D)",
            paper_num_kernels: 46,
            acc_source: bt_source(),
            has_omp: false,
            bindings: vec![("ksize", 128), ("gp02", 6), ("gp12", 6)],
            launches: 1846821,
        },
        Benchmark {
            name: "CG",
            suite: Suite::Npb,
            compute: "Eigenvalue",
            access: "Irregular",
            paper_num_kernels: 16,
            acc_source: cg_source(),
            has_omp: false,
            bindings: vec![("nrows", 4096)],
            launches: 1368,
        },
        Benchmark {
            name: "EP",
            suite: Suite::Npb,
            compute: "Random Num",
            access: "Parallel",
            paper_num_kernels: 4,
            acc_source: ep_source(),
            has_omp: false,
            bindings: vec![("nk", 16)],
            launches: 2140,
        },
        Benchmark {
            name: "FT",
            suite: Suite::Npb,
            compute: "FFT",
            access: "All-to-All",
            paper_num_kernels: 12,
            acc_source: ft_source(),
            has_omp: false,
            bindings: vec![("n2", 8192), ("n", 16384)],
            launches: 247,
        },
        Benchmark {
            name: "LU",
            suite: Suite::Npb,
            compute: "CFD",
            access: "Halo (3D)",
            paper_num_kernels: 59,
            acc_source: lu_source(),
            has_omp: false,
            bindings: vec![("ksize", 128), ("gp02", 6), ("gp12", 6)],
            launches: 9511462,
        },
        Benchmark {
            name: "MG",
            suite: Suite::Npb,
            compute: "Poisson Eq",
            access: "Long & Short",
            paper_num_kernels: 16,
            acc_source: mg_source(),
            has_omp: false,
            bindings: vec![("n1", 256), ("gp", 8)],
            launches: 852030,
        },
        Benchmark {
            name: "SP",
            suite: Suite::Npb,
            compute: "CFD",
            access: "Halo (3D)",
            paper_num_kernels: 65,
            acc_source: sp_source(),
            has_omp: false,
            bindings: vec![("ksize", 128), ("gp02", 6), ("gp12", 6)],
            launches: 6143791,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use accsat_ir::parse_program;

    #[test]
    fn bt_has_two_kernels() {
        let p = parse_program(&bt_source()).unwrap();
        assert_eq!(p.functions.len(), 2);
    }

    #[test]
    fn bt_zsolve_has_shared_temps() {
        // the Listing 2 pattern: temp1/temp2 shared across many statements
        let p = parse_program(&bt_source()).unwrap();
        let f = p.function("bt_zsolve").unwrap();
        let profile = accsat_ir::visit::static_profile(&f.body);
        assert!(profile.loads > 20, "z_solve is load-heavy: {}", profile.loads);
        assert!(profile.stores >= 16);
    }

    #[test]
    fn cg_inner_loop_is_irregular() {
        let p = parse_program(&cg_source()).unwrap();
        let f = p.function("cg_spmv").unwrap();
        let loops = accsat_ir::innermost_parallel_loops(f);
        assert_eq!(loops.len(), 1);
        // the body contains a sequential loop with data-dependent bounds
        assert!(loops[0]
            .body
            .stmts
            .iter()
            .any(|s| matches!(s, accsat_ir::Stmt::For(l) if l.directive.is_none())));
    }

    #[test]
    fn launch_counts_positive() {
        for b in npb_benchmarks() {
            assert!(b.launches > 0);
        }
    }
}
