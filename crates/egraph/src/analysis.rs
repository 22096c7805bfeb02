//! Constant-folding e-class analysis (paper §V-A: "We also incorporate
//! constant folding of arithmetic operations with integer and floating-point
//! numbers").
//!
//! This mirrors egg's `Analysis` with `make`/`merge`/`modify`: every e-class
//! optionally carries a proven compile-time constant; adding a node computes
//! its value from child data; unions must agree (in debug builds) and keep
//! whichever side knows more; classes that gain a constant also gain the
//! corresponding literal leaf so extraction can select it at zero cost.

use crate::node::{Id, NodeRef, Op};

/// A compile-time constant value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ConstValue {
    /// An integer constant.
    Int(i64),
    /// A floating-point constant.
    Float(f64),
}

impl ConstValue {
    /// Numeric value as `f64` (ints convert exactly up to 2^53).
    pub(crate) fn as_f64(self) -> f64 {
        match self {
            ConstValue::Int(v) => v as f64,
            ConstValue::Float(v) => v,
        }
    }

    /// Is this numerically zero?
    pub(crate) fn is_zero(self) -> bool {
        match self {
            ConstValue::Int(v) => v == 0,
            ConstValue::Float(v) => v == 0.0,
        }
    }
}

/// Fold two ints (checked; arithmetic overflow aborts folding rather than
/// miscompiling).
fn int2(op: &Op, a: i64, b: i64) -> Option<ConstValue> {
    let v = match op {
        Op::Add => a.checked_add(b)?,
        Op::Sub => a.checked_sub(b)?,
        Op::Mul => a.checked_mul(b)?,
        Op::Div => {
            if b == 0 {
                return None;
            }
            a.checked_div(b)?
        }
        Op::Mod => {
            if b == 0 {
                return None;
            }
            a.checked_rem(b)?
        }
        Op::Lt => (a < b) as i64,
        Op::Le => (a <= b) as i64,
        Op::Gt => (a > b) as i64,
        Op::Ge => (a >= b) as i64,
        Op::Eq => (a == b) as i64,
        Op::Ne => (a != b) as i64,
        Op::And => ((a != 0) && (b != 0)) as i64,
        Op::Or => ((a != 0) || (b != 0)) as i64,
        _ => return None,
    };
    Some(ConstValue::Int(v))
}

/// Fold two floats. Comparisons yield `Int` (C semantics). Division by zero
/// folds to ±inf as `-ffast-math` compilers do not trap.
fn float2(op: &Op, a: f64, b: f64) -> Option<ConstValue> {
    let v = match op {
        Op::Add => a + b,
        Op::Sub => a - b,
        Op::Mul => a * b,
        Op::Div => a / b,
        Op::Lt => return Some(ConstValue::Int((a < b) as i64)),
        Op::Le => return Some(ConstValue::Int((a <= b) as i64)),
        Op::Gt => return Some(ConstValue::Int((a > b) as i64)),
        Op::Ge => return Some(ConstValue::Int((a >= b) as i64)),
        Op::Eq => return Some(ConstValue::Int((a == b) as i64)),
        Op::Ne => return Some(ConstValue::Int((a != b) as i64)),
        _ => return None,
    };
    if v.is_nan() {
        None
    } else {
        Some(ConstValue::Float(v))
    }
}

/// Compute the constant value of `node` given a child-constant oracle.
/// Returns `None` when any child is unknown or the op is not foldable.
pub(crate) fn eval_node(
    node: NodeRef<'_>,
    child_const: impl Fn(Id) -> Option<ConstValue>,
) -> Option<ConstValue> {
    match node.op {
        Op::Int(v) => return Some(ConstValue::Int(*v)),
        Op::Float(bits) => return Some(ConstValue::Float(f64::from_bits(*bits))),
        Op::Sym(_) | Op::LoopCond(_) => return None,
        // memory, φ and calls are never folded — their value depends on state
        Op::Load | Op::Store | Op::PhiLoop | Op::Call(_) => return None,
        _ => {}
    }
    // no foldable operator takes more than three operands
    let mut kids = [ConstValue::Int(0); 3];
    let kids = kids.get_mut(..node.children.len())?;
    for (k, &c) in kids.iter_mut().zip(node.children) {
        *k = child_const(c)?;
    }
    match (node.op, &*kids) {
        (Op::Neg, [a]) => Some(match a {
            ConstValue::Int(v) => ConstValue::Int(v.checked_neg()?),
            ConstValue::Float(v) => ConstValue::Float(-v),
        }),
        (Op::Not, [a]) => Some(ConstValue::Int(a.is_zero() as i64)),
        (Op::CastInt, [a]) => Some(ConstValue::Int(match a {
            ConstValue::Int(v) => *v,
            ConstValue::Float(v) => *v as i64,
        })),
        (Op::CastFloat, [a]) => Some(ConstValue::Float(a.as_f64())),
        (Op::Fma, [a, b, c]) => {
            // fma(a, b, c) = a + b * c, folded in the wider domain
            match (a, b, c) {
                (ConstValue::Int(a), ConstValue::Int(b), ConstValue::Int(c)) => {
                    Some(ConstValue::Int(a.checked_add(b.checked_mul(*c)?)?))
                }
                _ => {
                    let v = a.as_f64() + b.as_f64() * c.as_f64();
                    if v.is_nan() {
                        None
                    } else {
                        Some(ConstValue::Float(v))
                    }
                }
            }
        }
        (Op::Select, [c, t, e]) => Some(if !c.is_zero() { *t } else { *e }),
        (op, [a, b]) => match (a, b) {
            (ConstValue::Int(x), ConstValue::Int(y)) => int2(op, *x, *y),
            _ => float2(op, a.as_f64(), b.as_f64()),
        },
        _ => None,
    }
}

/// Merge analysis data on union. Both sides proven ⇒ they must agree (checked
/// in debug builds; in release the left side wins, matching egg's behaviour
/// for a semilattice where both are already canonical).
pub(crate) fn merge_const(a: Option<ConstValue>, b: Option<ConstValue>) -> Option<ConstValue> {
    match (a, b) {
        (Some(x), Some(y)) => {
            debug_assert!(
                const_eq(x, y),
                "union of classes with contradictory constants: {x:?} vs {y:?}"
            );
            Some(x)
        }
        (Some(x), None) | (None, Some(x)) => Some(x),
        (None, None) => None,
    }
}

fn const_eq(a: ConstValue, b: ConstValue) -> bool {
    match (a, b) {
        (ConstValue::Int(x), ConstValue::Int(y)) => x == y,
        _ => a.as_f64() == b.as_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;

    fn no_children(_: Id) -> Option<ConstValue> {
        None
    }

    #[test]
    fn literals_fold_to_themselves() {
        assert_eq!(eval_node(Node::int(7).as_ref(), no_children), Some(ConstValue::Int(7)));
        assert_eq!(eval_node(Node::float(2.5).as_ref(), no_children), Some(ConstValue::Float(2.5)));
        assert_eq!(eval_node(Node::sym("x").as_ref(), no_children), None);
    }

    #[test]
    fn binary_int_folding() {
        let table = |op: Op, want: i64| {
            let n = Node::new(op, vec![Id::from(0), Id::from(1)]);
            let v = eval_node(n.as_ref(), |id| {
                Some(ConstValue::Int(if id.index() == 0 { 6 } else { 3 }))
            });
            assert_eq!(v, Some(ConstValue::Int(want)));
        };
        table(Op::Add, 9);
        table(Op::Sub, 3);
        table(Op::Mul, 18);
        table(Op::Div, 2);
        table(Op::Mod, 0);
        table(Op::Lt, 0);
        table(Op::Ge, 1);
    }

    #[test]
    fn mixed_promotes_to_float() {
        let n = Node::new(Op::Add, vec![Id::from(0), Id::from(1)]);
        let v = eval_node(n.as_ref(), |id| {
            Some(if id.index() == 0 { ConstValue::Int(1) } else { ConstValue::Float(0.5) })
        });
        assert_eq!(v, Some(ConstValue::Float(1.5)));
    }

    #[test]
    fn division_by_zero_int_does_not_fold() {
        let n = Node::new(Op::Div, vec![Id::from(0), Id::from(1)]);
        let v =
            eval_node(n.as_ref(), |id| Some(ConstValue::Int(if id.index() == 0 { 1 } else { 0 })));
        assert_eq!(v, None);
    }

    #[test]
    fn overflow_does_not_fold() {
        let n = Node::new(Op::Mul, vec![Id::from(0), Id::from(1)]);
        let v = eval_node(n.as_ref(), |_| Some(ConstValue::Int(i64::MAX)));
        assert_eq!(v, None);
    }

    #[test]
    fn fma_folds_like_a_plus_b_times_c() {
        let n = Node::new(Op::Fma, vec![Id::from(0), Id::from(1), Id::from(2)]);
        let v = eval_node(n.as_ref(), |id| Some(ConstValue::Float((id.index() + 1) as f64)));
        // 1 + 2*3 = 7
        assert_eq!(v, Some(ConstValue::Float(7.0)));
    }

    #[test]
    fn select_folds_on_constant_condition() {
        let n = Node::new(Op::Select, vec![Id::from(0), Id::from(1), Id::from(2)]);
        let v = eval_node(n.as_ref(), |id| {
            Some(ConstValue::Int(match id.index() {
                0 => 1,
                1 => 10,
                _ => 20,
            }))
        });
        assert_eq!(v, Some(ConstValue::Int(10)));
    }

    #[test]
    fn loads_never_fold() {
        let n = Node::new(Op::Load, vec![Id::from(0), Id::from(1)]);
        let v = eval_node(n.as_ref(), |_| Some(ConstValue::Int(1)));
        assert_eq!(v, None);
    }

    #[test]
    fn merge_prefers_known() {
        assert_eq!(merge_const(None, Some(ConstValue::Int(4))), Some(ConstValue::Int(4)));
        assert_eq!(merge_const(Some(ConstValue::Int(4)), None), Some(ConstValue::Int(4)));
        assert_eq!(merge_const(None, None), None);
    }
}
