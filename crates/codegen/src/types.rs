//! Type inference for temporaries.
//!
//! Generated `_vN` temporaries need C types. Scalar/array types come from
//! the function signature and local declarations; class types are derived
//! from the selected nodes (integer arithmetic stays `int` so that index
//! expressions keep C integer-division semantics).

use accsat_ir::{Block, Function, Stmt, Type};
use std::collections::HashMap;

/// Name → type map. For arrays the type is the *element* type.
#[derive(Debug, Clone, Default)]
pub struct TypeMap {
    map: HashMap<String, Type>,
}

impl TypeMap {
    /// Empty map (every unknown name defaults to `double`).
    pub fn new() -> TypeMap {
        TypeMap::default()
    }

    /// Collect types from a function: parameters and local declarations.
    /// Loop induction variables are `int`.
    pub fn from_function(f: &Function) -> TypeMap {
        let mut tm = TypeMap::new();
        for p in &f.params {
            tm.map.insert(p.name.clone(), p.ty.clone());
        }
        tm.collect_block(&f.body);
        tm
    }

    fn collect_block(&mut self, b: &Block) {
        for s in &b.stmts {
            match s {
                Stmt::Decl { ty, name, .. } => {
                    self.map.insert(name.clone(), ty.clone());
                }
                Stmt::If { then, els, .. } => {
                    self.collect_block(then);
                    if let Some(e) = els {
                        self.collect_block(e);
                    }
                }
                Stmt::For(l) => {
                    self.map.insert(l.var.clone(), Type::Int);
                    self.collect_block(&l.body);
                }
                Stmt::While { body, .. } => self.collect_block(body),
                Stmt::Block(b) => self.collect_block(b),
                _ => {}
            }
        }
    }

    /// Insert a binding.
    pub fn insert(&mut self, name: &str, ty: Type) {
        self.map.insert(name.to_string(), ty);
    }

    /// Type of a name. Entry symbols (`x@L0`) resolve to the type of `x`.
    /// Unknown names default to `double`, the dominant kernel type.
    pub(crate) fn type_of(&self, name: &str) -> Type {
        let base = name.split('@').next().unwrap_or(name);
        self.map.get(base).cloned().unwrap_or(Type::Double)
    }
}

/// Promote two operand types (C usual arithmetic conversions, restricted to
/// the subset).
pub(crate) fn promote(a: &Type, b: &Type) -> Type {
    match (a, b) {
        (Type::Double, _) | (_, Type::Double) => Type::Double,
        (Type::Float, _) | (_, Type::Float) => Type::Float,
        _ => Type::Int,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accsat_ir::parse_program;

    #[test]
    fn collects_params_decls_and_loop_vars() {
        let src = r#"
void f(double a[8], int n, float s) {
  double t = 0.0;
  for (int i = 0; i < n; i++) {
    int k = i * 2;
    t = t + a[k];
  }
}
"#;
        let prog = parse_program(src).unwrap();
        let tm = TypeMap::from_function(&prog.functions[0]);
        assert_eq!(tm.type_of("a"), Type::Double);
        assert_eq!(tm.type_of("n"), Type::Int);
        assert_eq!(tm.type_of("s"), Type::Float);
        assert_eq!(tm.type_of("t"), Type::Double);
        assert_eq!(tm.type_of("i"), Type::Int);
        assert_eq!(tm.type_of("k"), Type::Int);
    }

    #[test]
    fn entry_symbols_resolve_to_base() {
        let mut tm = TypeMap::new();
        tm.insert("acc", Type::Float);
        assert_eq!(tm.type_of("acc@L0"), Type::Float);
    }

    #[test]
    fn unknown_defaults_to_double() {
        let tm = TypeMap::new();
        assert_eq!(tm.type_of("mystery"), Type::Double);
    }

    #[test]
    fn promotion_rules() {
        assert_eq!(promote(&Type::Int, &Type::Int), Type::Int);
        assert_eq!(promote(&Type::Int, &Type::Double), Type::Double);
        assert_eq!(promote(&Type::Float, &Type::Int), Type::Float);
        assert_eq!(promote(&Type::Float, &Type::Double), Type::Double);
    }
}
