//! Symbolic simplification of index terms.
//!
//! Normalization performs constant folding and unit-law simplification so
//! that (a) constraints are smaller before they reach the solver and (b)
//! syntactic type equivalence (`list[1 + 2]^α τ ≡ list[3]^α τ`) succeeds in
//! the common cases without consulting the solver at all.
//!
//! Normalization is *sound*: it preserves the value of the term under every
//! environment (checked by the property tests in this module).

use crate::rational::Extended;
use crate::term::Idx;

/// Returns a simplified term denoting the same function of its free variables.
///
/// A plain tree walk: a per-thread memo costs more than the fold it saves
/// (DESIGN.md §4.3).
pub fn normalize(idx: &Idx) -> Idx {
    match idx {
        Idx::Var(_) | Idx::Const(_) | Idx::Infty => idx.clone(),
        Idx::Add(a, b) => fold_add(normalize(a), normalize(b)),
        Idx::Sub(a, b) => fold_sub(normalize(a), normalize(b)),
        Idx::Mul(a, b) => fold_mul(normalize(a), normalize(b)),
        Idx::Div(a, b) => fold_div(normalize(a), normalize(b)),
        Idx::Ceil(a) => fold_ceil(normalize(a)),
        Idx::Floor(a) => fold_floor(normalize(a)),
        Idx::Min(a, b) => fold_min(normalize(a), normalize(b)),
        Idx::Max(a, b) => fold_max(normalize(a), normalize(b)),
        Idx::Log2(a) => fold_unary_const(normalize(a), Idx::Log2, Extended::log2_total),
        Idx::Pow2(a) => fold_unary_const(normalize(a), Idx::Pow2, Extended::pow2_total),
        Idx::Sum { var, lo, hi, body } => Idx::Sum {
            var: var.clone(),
            lo: Box::new(normalize(lo)),
            hi: Box::new(normalize(hi)),
            body: Box::new(normalize(body)),
        },
    }
}

fn lift(e: Extended) -> Idx {
    match e {
        Extended::Finite(q) => Idx::Const(q),
        Extended::Infinity => Idx::Infty,
    }
}

fn fold_add(a: Idx, b: Idx) -> Idx {
    match (a.as_const(), b.as_const()) {
        (Some(x), Some(y)) => lift(x + y),
        (Some(x), None) if x.is_zero() => b,
        (None, Some(y)) if y.is_zero() => a,
        _ => Idx::Add(Box::new(a), Box::new(b)),
    }
}

fn fold_sub(a: Idx, b: Idx) -> Idx {
    if a == b {
        return Idx::zero();
    }
    match (a.as_const(), b.as_const()) {
        (Some(x), Some(y)) => lift(x - y),
        (None, Some(y)) if y.is_zero() => a,
        _ => Idx::Sub(Box::new(a), Box::new(b)),
    }
}

fn fold_mul(a: Idx, b: Idx) -> Idx {
    match (a.as_const(), b.as_const()) {
        (Some(x), Some(y)) => lift(x * y),
        (Some(x), _) if x.is_zero() => Idx::zero(),
        (_, Some(y)) if y.is_zero() => Idx::zero(),
        (Some(x), None) if x == Extended::ONE => b,
        (None, Some(y)) if y == Extended::ONE => a,
        _ => Idx::Mul(Box::new(a), Box::new(b)),
    }
}

fn fold_div(a: Idx, b: Idx) -> Idx {
    match (a.as_const(), b.as_const()) {
        (Some(x), Some(y)) if !y.is_zero() => lift(x / y),
        (Some(x), _) if x.is_zero() => Idx::zero(),
        (None, Some(y)) if y == Extended::ONE => a,
        _ => Idx::Div(Box::new(a), Box::new(b)),
    }
}

fn fold_ceil(a: Idx) -> Idx {
    if let Some(x) = a.as_const() {
        return lift(x.ceil());
    }
    // ⌈⌈e⌉⌉ = ⌈e⌉ and ceilings of syntactic naturals are redundant only for
    // constants, which the branch above already covers.
    if let Idx::Ceil(_) | Idx::Floor(_) = a {
        return a;
    }
    Idx::Ceil(Box::new(a))
}

fn fold_floor(a: Idx) -> Idx {
    if let Some(x) = a.as_const() {
        return lift(x.floor());
    }
    if let Idx::Ceil(_) | Idx::Floor(_) = a {
        return a;
    }
    Idx::Floor(Box::new(a))
}

fn fold_min(a: Idx, b: Idx) -> Idx {
    if a == b {
        return a;
    }
    match (a.as_const(), b.as_const()) {
        (Some(x), Some(y)) => lift(x.min(y)),
        (Some(Extended::Infinity), _) => b,
        (_, Some(Extended::Infinity)) => a,
        _ => Idx::Min(Box::new(a), Box::new(b)),
    }
}

fn fold_max(a: Idx, b: Idx) -> Idx {
    if a == b {
        return a;
    }
    match (a.as_const(), b.as_const()) {
        (Some(x), Some(y)) => lift(x.max(y)),
        (Some(Extended::Infinity), _) | (_, Some(Extended::Infinity)) => Idx::Infty,
        (Some(x), None) if x.is_zero() => b,
        (None, Some(y)) if y.is_zero() => a,
        _ => Idx::Max(Box::new(a), Box::new(b)),
    }
}

fn fold_unary_const(a: Idx, rebuild: fn(Box<Idx>) -> Idx, op: fn(Extended) -> Extended) -> Idx {
    match a.as_const() {
        Some(x) => lift(op(x)),
        None => rebuild(Box::new(a)),
    }
}

/// Returns `true` when the two terms are syntactically equal after
/// normalization — a cheap sufficient condition for semantic equality used by
/// algorithmic type equivalence before falling back to the solver.
pub fn definitely_equal(a: &Idx, b: &Idx) -> bool {
    normalize(a) == normalize(b)
}

/// Convenience: `normalize` to a constant if the term is ground.
pub fn const_value(idx: &Idx) -> Option<Extended> {
    normalize(idx).as_const()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::IdxEnv;
    use crate::rational::Rational;
    use proptest::prelude::*;

    #[test]
    fn constant_folding() {
        let i = Idx::nat(1) + Idx::nat(2);
        assert_eq!(normalize(&i), Idx::nat(3));
        let i = Idx::nat(3) * Idx::nat(4) - Idx::nat(2);
        assert_eq!(normalize(&i), Idx::nat(10));
        let i = Idx::ceil(Idx::nat(7) / Idx::nat(2));
        assert_eq!(normalize(&i), Idx::nat(4));
    }

    #[test]
    fn unit_laws() {
        let n = Idx::var("n");
        assert_eq!(normalize(&(n.clone() + Idx::zero())), n);
        assert_eq!(normalize(&(Idx::zero() + n.clone())), n);
        assert_eq!(normalize(&(n.clone() * Idx::one())), n);
        assert_eq!(normalize(&(n.clone() * Idx::zero())), Idx::zero());
        assert_eq!(normalize(&(n.clone() - n.clone())), Idx::zero());
        assert_eq!(normalize(&Idx::min(n.clone(), n.clone())), n);
    }

    #[test]
    fn infinity_laws() {
        let n = Idx::var("n");
        assert_eq!(normalize(&Idx::min(Idx::infty(), n.clone())), n);
        assert_eq!(normalize(&Idx::max(Idx::infty(), n)), Idx::infty());
    }

    #[test]
    fn definitely_equal_sees_through_arithmetic() {
        assert!(definitely_equal(&(Idx::nat(1) + Idx::nat(2)), &Idx::nat(3)));
        assert!(!definitely_equal(&Idx::var("n"), &Idx::var("m")));
    }

    #[test]
    fn const_value_on_ground_terms() {
        assert_eq!(
            const_value(&(Idx::nat(6) / Idx::nat(4))),
            Some(Extended::Finite(Rational::new(3, 2)))
        );
        assert_eq!(const_value(&Idx::var("n")), None);
    }

    // ---- property tests: normalization preserves meaning ----

    fn arb_idx() -> impl Strategy<Value = Idx> {
        let leaf = prop_oneof![
            (0u64..6).prop_map(Idx::nat),
            Just(Idx::var("n")),
            Just(Idx::var("a")),
            Just(Idx::var("b")),
        ];
        leaf.prop_recursive(3, 24, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a * b),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Idx::min(a, b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Idx::max(a, b)),
                inner.clone().prop_map(Idx::ceil),
                inner.clone().prop_map(Idx::floor),
                inner.clone().prop_map(|a| a / Idx::nat(2)),
                // Σ exercises the binder path (its shadowed variable shares
                // a name with a free leaf on purpose).
                (inner.clone(), inner.clone()).prop_map(|(hi, body)| {
                    Idx::sum("a", Idx::zero(), Idx::min(hi, Idx::nat(6)), body)
                }),
            ]
        })
    }

    proptest! {
        #[test]
        fn normalize_preserves_evaluation(idx in arb_idx(), n in 0i64..12, a in 0i64..12, b in 0i64..12) {
            let env = IdxEnv::from_pairs([("n", Extended::from(n)), ("a", Extended::from(a)), ("b", Extended::from(b))]);
            let before = idx.eval(&env).unwrap();
            let after = normalize(&idx).eval(&env).unwrap();
            prop_assert_eq!(before, after);
        }

        #[test]
        fn normalize_is_idempotent(idx in arb_idx()) {
            let once = normalize(&idx);
            let twice = normalize(&once);
            prop_assert_eq!(once, twice);
        }

        #[test]
        fn normalize_never_grows_terms(idx in arb_idx()) {
            prop_assert!(normalize(&idx).size() <= idx.size());
        }
    }
}
