//! `accsat-interp` — a sequential interpreter for the `accsat-ir` C subset.
//!
//! ACC Saturator must preserve program semantics (paper §IV). The paper's
//! authors validate against benchmark-provided verification; this crate is
//! our equivalent substrate: it executes original and optimized kernels on
//! concrete inputs so tests can assert output equality. Floating-point
//! comparisons use a relative tolerance because both the paper's compilers
//! (`-ffast-math`, `-gpu=fastmath`) and our reassociation rules permit
//! rounding differences.
//!
//! Directives are ignored: a parallel loop with `independent` iterations
//! produces the same result executed sequentially, which is exactly the
//! property the directive asserts.

mod env;
mod eval;

pub use env::{ArrayData, Env, Value};
pub use eval::{run_function, try_run_function, EvalError, EvalErrorKind};

/// Compare two floats with relative tolerance `rel` (and absolute floor
/// `abs` for values near zero).
pub fn approx_eq(a: f64, b: f64, rel: f64, abs: f64) -> bool {
    if a == b {
        return true;
    }
    if a.is_nan() && b.is_nan() {
        return true;
    }
    let diff = (a - b).abs();
    if diff <= abs {
        return true;
    }
    diff <= rel * a.abs().max(b.abs())
}

/// Compare two environments' arrays with tolerance; returns the first
/// mismatch as `(array, flat index, lhs, rhs)`.
pub fn compare_arrays(a: &Env, b: &Env, rel: f64) -> Option<(String, usize, f64, f64)> {
    compare_arrays_with(a, b, rel, 1e-12)
}

/// [`compare_arrays`] with an explicit absolute floor. The fuzzer raises
/// `abs` above the default 1e-12 because reassociation under fast-math
/// semantics can cancel catastrophically near zero without being a
/// miscompile; real miscompiles produce O(1) errors.
pub fn compare_arrays_with(
    a: &Env,
    b: &Env,
    rel: f64,
    abs: f64,
) -> Option<(String, usize, f64, f64)> {
    for (name, arr_a) in a.arrays() {
        let arr_b = match b.array(name) {
            Some(x) => x,
            None => continue,
        };
        let (fa, fb) = (arr_a.as_f64_vec(), arr_b.as_f64_vec());
        for (i, (&x, &y)) in fa.iter().zip(fb.iter()).enumerate() {
            if !approx_eq(x, y, rel, abs) {
                return Some((name.to_string(), i, x, y));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basics() {
        assert!(approx_eq(1.0, 1.0, 0.0, 0.0));
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9, 0.0));
        assert!(!approx_eq(1.0, 1.1, 1e-9, 0.0));
        assert!(approx_eq(0.0, 1e-13, 1e-9, 1e-12));
        assert!(approx_eq(f64::NAN, f64::NAN, 0.0, 0.0));
    }
}
