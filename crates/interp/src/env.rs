//! Runtime values and the execution environment.

use std::collections::HashMap;

/// A runtime scalar value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    Int(i64),
    Float(f64),
}

impl Value {
    /// Coerce to `f64` (C's usual arithmetic conversions).
    pub fn as_f64(self) -> f64 {
        match self {
            Value::Int(v) => v as f64,
            Value::Float(v) => v,
        }
    }

    /// Coerce to `i64` (C truncation for floats).
    pub(crate) fn as_i64(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Float(v) => v as i64,
        }
    }

    /// C truthiness.
    pub(crate) fn truthy(self) -> bool {
        match self {
            Value::Int(v) => v != 0,
            Value::Float(v) => v != 0.0,
        }
    }
}

/// Array storage: element type follows the declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayData {
    F64 { dims: Vec<usize>, data: Vec<f64> },
    I64 { dims: Vec<usize>, data: Vec<i64> },
}

impl ArrayData {
    /// Zero-filled double array.
    pub fn zeros_f64(dims: &[usize]) -> ArrayData {
        ArrayData::F64 { dims: dims.to_vec(), data: vec![0.0; dims.iter().product()] }
    }

    /// Double array from data (dims must multiply to `data.len()`).
    pub fn from_f64(dims: &[usize], data: Vec<f64>) -> ArrayData {
        assert_eq!(dims.iter().product::<usize>(), data.len());
        ArrayData::F64 { dims: dims.to_vec(), data }
    }

    /// Integer array from data.
    pub fn from_i64(dims: &[usize], data: Vec<i64>) -> ArrayData {
        assert_eq!(dims.iter().product::<usize>(), data.len());
        ArrayData::I64 { dims: dims.to_vec(), data }
    }

    /// Declared dimensions.
    pub fn dims(&self) -> &[usize] {
        match self {
            ArrayData::F64 { dims, .. } | ArrayData::I64 { dims, .. } => dims,
        }
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        match self {
            ArrayData::F64 { data, .. } => data.len(),
            ArrayData::I64 { data, .. } => data.len(),
        }
    }

    /// Is the array empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flatten a multi-dimensional index (row-major). Returns `None` if any
    /// index is out of bounds.
    pub fn flatten(&self, indices: &[i64]) -> Option<usize> {
        let dims = self.dims();
        if indices.len() != dims.len() {
            // C allows treating T[N][M] as T[N*M] via a single index (the
            // benchmarks use both styles); accept a single flat index.
            if indices.len() == 1 {
                let i = indices[0];
                if i >= 0 && (i as usize) < self.len() {
                    return Some(i as usize);
                }
            }
            return None;
        }
        let mut flat = 0usize;
        for (&i, &d) in indices.iter().zip(dims.iter()) {
            if i < 0 || i as usize >= d {
                return None;
            }
            flat = flat * d + i as usize;
        }
        Some(flat)
    }

    /// Read an element.
    pub fn get(&self, flat: usize) -> Value {
        match self {
            ArrayData::F64 { data, .. } => Value::Float(data[flat]),
            ArrayData::I64 { data, .. } => Value::Int(data[flat]),
        }
    }

    /// Write an element, coercing to the element type.
    pub fn set(&mut self, flat: usize, v: Value) {
        match self {
            ArrayData::F64 { data, .. } => data[flat] = v.as_f64(),
            ArrayData::I64 { data, .. } => data[flat] = v.as_i64(),
        }
    }

    /// Read an element, returning `None` instead of panicking when `flat`
    /// is past the end (defense-in-depth for adversarial fuzz inputs).
    pub(crate) fn try_get(&self, flat: usize) -> Option<Value> {
        match self {
            ArrayData::F64 { data, .. } => data.get(flat).map(|&v| Value::Float(v)),
            ArrayData::I64 { data, .. } => data.get(flat).map(|&v| Value::Int(v)),
        }
    }

    /// Write an element if `flat` is in bounds; reports success.
    pub(crate) fn try_set(&mut self, flat: usize, v: Value) -> bool {
        match self {
            ArrayData::F64 { data, .. } => match data.get_mut(flat) {
                Some(slot) => {
                    *slot = v.as_f64();
                    true
                }
                None => false,
            },
            ArrayData::I64 { data, .. } => match data.get_mut(flat) {
                Some(slot) => {
                    *slot = v.as_i64();
                    true
                }
                None => false,
            },
        }
    }

    /// Copy out as `f64` for tolerant comparison.
    pub(crate) fn as_f64_vec(&self) -> Vec<f64> {
        match self {
            ArrayData::F64 { data, .. } => data.clone(),
            ArrayData::I64 { data, .. } => data.iter().map(|&v| v as f64).collect(),
        }
    }
}

/// The execution environment: scalar bindings and array storage.
#[derive(Debug, Clone, Default)]
pub struct Env {
    scalars: HashMap<String, Value>,
    arrays: HashMap<String, ArrayData>,
}

impl Env {
    /// Empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// Bind a scalar.
    pub fn set_scalar(&mut self, name: &str, v: Value) {
        self.scalars.insert(name.to_string(), v);
    }

    /// Convenience: bind an `f64` scalar.
    pub fn set_f64(&mut self, name: &str, v: f64) {
        self.set_scalar(name, Value::Float(v));
    }

    /// Convenience: bind an `i64` scalar.
    pub fn set_i64(&mut self, name: &str, v: i64) {
        self.set_scalar(name, Value::Int(v));
    }

    /// Read a scalar.
    pub fn scalar(&self, name: &str) -> Option<Value> {
        self.scalars.get(name).copied()
    }

    /// Insert an array.
    pub fn set_array(&mut self, name: &str, a: ArrayData) {
        self.arrays.insert(name.to_string(), a);
    }

    /// Borrow an array.
    pub fn array(&self, name: &str) -> Option<&ArrayData> {
        self.arrays.get(name)
    }

    /// Mutably borrow an array.
    pub(crate) fn array_mut(&mut self, name: &str) -> Option<&mut ArrayData> {
        self.arrays.get_mut(name)
    }

    /// Iterate over all arrays.
    pub fn arrays(&self) -> impl Iterator<Item = (&str, &ArrayData)> {
        self.arrays.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Remove a scalar (scoping helper for the evaluator).
    pub(crate) fn remove_scalar(&mut self, name: &str) -> Option<Value> {
        self.scalars.remove(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_row_major() {
        let a = ArrayData::zeros_f64(&[3, 4]);
        assert_eq!(a.flatten(&[0, 0]), Some(0));
        assert_eq!(a.flatten(&[1, 0]), Some(4));
        assert_eq!(a.flatten(&[2, 3]), Some(11));
        assert_eq!(a.flatten(&[3, 0]), None);
        assert_eq!(a.flatten(&[0, 4]), None);
        assert_eq!(a.flatten(&[-1, 0]), None);
    }

    #[test]
    fn flat_indexing_of_multidim() {
        let a = ArrayData::zeros_f64(&[3, 4]);
        assert_eq!(a.flatten(&[11]), Some(11));
        assert_eq!(a.flatten(&[12]), None);
    }

    #[test]
    fn value_coercions() {
        assert_eq!(Value::Int(3).as_f64(), 3.0);
        assert_eq!(Value::Float(2.7).as_i64(), 2);
        assert!(Value::Int(1).truthy());
        assert!(!Value::Float(0.0).truthy());
    }

    #[test]
    fn int_array_set_coerces() {
        let mut a = ArrayData::from_i64(&[2], vec![0; 2]);
        a.set(0, Value::Float(3.9));
        assert_eq!(a.get(0), Value::Int(3));
    }

    #[test]
    fn env_scalars_and_arrays() {
        let mut env = Env::new();
        env.set_f64("x", 1.5);
        env.set_array("a", ArrayData::zeros_f64(&[4]));
        assert_eq!(env.scalar("x"), Some(Value::Float(1.5)));
        env.array_mut("a").unwrap().set(2, Value::Float(9.0));
        assert_eq!(env.array("a").unwrap().get(2), Value::Float(9.0));
    }
}
