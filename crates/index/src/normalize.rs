//! Symbolic simplification of index terms.
//!
//! Normalization performs constant folding and unit-law simplification so
//! that (a) constraints are smaller before they reach the solver and (b)
//! syntactic type equivalence (`list[1 + 2]^α τ ≡ list[3]^α τ`) succeeds in
//! the common cases without consulting the solver at all.
//!
//! Normalization is *sound*: it preserves the value of the term under every
//! environment (checked by the property tests in this module).

use std::sync::Arc;

use crate::rational::Extended;
use crate::term::Idx;

/// Returns a simplified term denoting the same function of its free variables.
///
/// Copy-on-write: a subtree that is already normal comes back as the input's
/// own allocation, so re-normalizing a normal term allocates nothing.
pub fn normalize(idx: &Idx) -> Idx {
    normalize_changed(idx).unwrap_or_else(|| idx.clone())
}

/// [`normalize`], or `None` when the term is already normal.
pub fn normalize_changed(idx: &Idx) -> Option<Idx> {
    match idx {
        Idx::Add(a, b) => binary(a, b, Idx::Add, fold_add),
        Idx::Sub(a, b) => binary(a, b, Idx::Sub, fold_sub),
        Idx::Mul(a, b) => binary(a, b, Idx::Mul, fold_mul),
        Idx::Div(a, b) => binary(a, b, Idx::Div, fold_div),
        Idx::Min(a, b) => binary(a, b, Idx::Min, fold_min),
        Idx::Max(a, b) => binary(a, b, Idx::Max, fold_max),
        Idx::Ceil(a) => unary(a, Idx::Ceil, fold_ceil),
        Idx::Floor(a) => unary(a, Idx::Floor, fold_floor),
        Idx::Log2(a) => unary(a, Idx::Log2, |a| fold_unary_const(a, Extended::log2_total)),
        Idx::Pow2(a) => unary(a, Idx::Pow2, |a| fold_unary_const(a, Extended::pow2_total)),
        Idx::Var(_) | Idx::Const(_) | Idx::Infty | Idx::Sum { .. } => {
            idx.map_children(normalize_changed)
        }
    }
}

/// Normalizes both children, then folds; when no rule fires the node is
/// rebuilt only if a child changed.
fn binary(
    a: &Arc<Idx>,
    b: &Arc<Idx>,
    node: fn(Arc<Idx>, Arc<Idx>) -> Idx,
    fold: fn(&Arc<Idx>, &Arc<Idx>) -> Option<Idx>,
) -> Option<Idx> {
    let na = normalize_changed(a).map(Arc::new);
    let nb = normalize_changed(b).map(Arc::new);
    if let Some(folded) = fold(na.as_ref().unwrap_or(a), nb.as_ref().unwrap_or(b)) {
        return Some(folded);
    }
    if na.is_none() && nb.is_none() {
        return None;
    }
    Some(node(
        na.unwrap_or_else(|| Arc::clone(a)),
        nb.unwrap_or_else(|| Arc::clone(b)),
    ))
}

/// [`binary`] for one child.
fn unary(
    a: &Arc<Idx>,
    node: fn(Arc<Idx>) -> Idx,
    fold: fn(&Arc<Idx>) -> Option<Idx>,
) -> Option<Idx> {
    match normalize_changed(a).map(Arc::new) {
        None => fold(a),
        Some(na) => fold(&na).or_else(|| Some(node(na))),
    }
}

fn lift(e: Extended) -> Idx {
    match e {
        Extended::Finite(q) => Idx::Const(q),
        Extended::Infinity => Idx::Infty,
    }
}

// Each fold takes normal children and returns the simplified node, or
// `None` when no rule applies to it.

fn fold_add(a: &Arc<Idx>, b: &Arc<Idx>) -> Option<Idx> {
    match (a.as_const(), b.as_const()) {
        (Some(x), Some(y)) => Some(lift(x + y)),
        (Some(x), None) if x.is_zero() => Some(Idx::clone(b)),
        (None, Some(y)) if y.is_zero() => Some(Idx::clone(a)),
        _ => None,
    }
}

fn fold_sub(a: &Arc<Idx>, b: &Arc<Idx>) -> Option<Idx> {
    if a == b {
        return Some(Idx::zero());
    }
    match (a.as_const(), b.as_const()) {
        (Some(x), Some(y)) => Some(lift(x - y)),
        (None, Some(y)) if y.is_zero() => Some(Idx::clone(a)),
        _ => None,
    }
}

fn fold_mul(a: &Arc<Idx>, b: &Arc<Idx>) -> Option<Idx> {
    match (a.as_const(), b.as_const()) {
        (Some(x), Some(y)) => Some(lift(x * y)),
        (Some(x), _) if x.is_zero() => Some(Idx::zero()),
        (_, Some(y)) if y.is_zero() => Some(Idx::zero()),
        (Some(x), None) if x == Extended::ONE => Some(Idx::clone(b)),
        (None, Some(y)) if y == Extended::ONE => Some(Idx::clone(a)),
        _ => None,
    }
}

fn fold_div(a: &Arc<Idx>, b: &Arc<Idx>) -> Option<Idx> {
    match (a.as_const(), b.as_const()) {
        (Some(x), Some(y)) if !y.is_zero() => Some(lift(x / y)),
        (Some(x), _) if x.is_zero() => Some(Idx::zero()),
        (None, Some(y)) if y == Extended::ONE => Some(Idx::clone(a)),
        _ => None,
    }
}

fn fold_ceil(a: &Arc<Idx>) -> Option<Idx> {
    if let Some(x) = a.as_const() {
        return Some(lift(x.ceil()));
    }
    // ⌈⌈e⌉⌉ = ⌈e⌉ and ceilings of syntactic naturals are redundant only for
    // constants, which the branch above already covers.
    matches!(**a, Idx::Ceil(_) | Idx::Floor(_)).then(|| Idx::clone(a))
}

fn fold_floor(a: &Arc<Idx>) -> Option<Idx> {
    if let Some(x) = a.as_const() {
        return Some(lift(x.floor()));
    }
    matches!(**a, Idx::Ceil(_) | Idx::Floor(_)).then(|| Idx::clone(a))
}

fn fold_min(a: &Arc<Idx>, b: &Arc<Idx>) -> Option<Idx> {
    if a == b {
        return Some(Idx::clone(a));
    }
    match (a.as_const(), b.as_const()) {
        (Some(x), Some(y)) => Some(lift(x.min(y))),
        (Some(Extended::Infinity), _) => Some(Idx::clone(b)),
        (_, Some(Extended::Infinity)) => Some(Idx::clone(a)),
        _ => None,
    }
}

fn fold_max(a: &Arc<Idx>, b: &Arc<Idx>) -> Option<Idx> {
    if a == b {
        return Some(Idx::clone(a));
    }
    match (a.as_const(), b.as_const()) {
        (Some(x), Some(y)) => Some(lift(x.max(y))),
        (Some(Extended::Infinity), _) | (_, Some(Extended::Infinity)) => Some(Idx::Infty),
        (Some(x), None) if x.is_zero() => Some(Idx::clone(b)),
        (None, Some(y)) if y.is_zero() => Some(Idx::clone(a)),
        _ => None,
    }
}

fn fold_unary_const(a: &Arc<Idx>, op: fn(Extended) -> Extended) -> Option<Idx> {
    a.as_const().map(|x| lift(op(x)))
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

    #[test]
    fn normal_compound_terms_come_back_shared() {
        let n = Idx::var("n");
        let term = Idx::min(n.clone() + Idx::var("a"), Idx::ceil(n / Idx::nat(2)));
        assert_eq!(deep_normalize(&term), term, "the input is already normal");
        let (Idx::Min(a, b), Idx::Min(na, nb)) = (&term, &normalize(&term)) else {
            panic!("normalize changed a normal term's head");
        };
        assert!(Arc::ptr_eq(a, na) && Arc::ptr_eq(b, nb));
        // A rewrite below one child rebuilds that spine only.
        let term = Idx::max(Idx::var("a") * Idx::var("b"), Idx::var("n") + Idx::zero());
        let (Idx::Max(a, _), Idx::Max(na, nb)) = (&term, &normalize(&term)) else {
            panic!("normalize changed the head");
        };
        assert!(Arc::ptr_eq(a, na));
        assert_eq!(**nb, Idx::var("n"));
    }

    /// The normalizer this module had before terms shared subtrees: a deep
    /// walk that rebuilds every node.  The sharing [`normalize`] must agree
    /// with it exactly.
    fn deep_normalize(idx: &Idx) -> Idx {
        match idx {
            Idx::Var(_) | Idx::Const(_) | Idx::Infty => idx.clone(),
            Idx::Add(a, b) => deep_fold_add(deep_normalize(a), deep_normalize(b)),
            Idx::Sub(a, b) => deep_fold_sub(deep_normalize(a), deep_normalize(b)),
            Idx::Mul(a, b) => deep_fold_mul(deep_normalize(a), deep_normalize(b)),
            Idx::Div(a, b) => deep_fold_div(deep_normalize(a), deep_normalize(b)),
            Idx::Ceil(a) => deep_fold_ceil(deep_normalize(a)),
            Idx::Floor(a) => deep_fold_floor(deep_normalize(a)),
            Idx::Min(a, b) => deep_fold_min(deep_normalize(a), deep_normalize(b)),
            Idx::Max(a, b) => deep_fold_max(deep_normalize(a), deep_normalize(b)),
            Idx::Log2(a) => {
                deep_fold_unary_const(deep_normalize(a), Idx::Log2, Extended::log2_total)
            }
            Idx::Pow2(a) => {
                deep_fold_unary_const(deep_normalize(a), Idx::Pow2, Extended::pow2_total)
            }
            Idx::Sum { var, lo, hi, body } => Idx::Sum {
                var: var.clone(),
                lo: Arc::new(deep_normalize(lo)),
                hi: Arc::new(deep_normalize(hi)),
                body: Arc::new(deep_normalize(body)),
            },
        }
    }

    fn deep_fold_add(a: Idx, b: Idx) -> Idx {
        match (a.as_const(), b.as_const()) {
            (Some(x), Some(y)) => lift(x + y),
            (Some(x), None) if x.is_zero() => b,
            (None, Some(y)) if y.is_zero() => a,
            _ => Idx::Add(Arc::new(a), Arc::new(b)),
        }
    }

    fn deep_fold_sub(a: Idx, b: Idx) -> Idx {
        if a == b {
            return Idx::zero();
        }
        match (a.as_const(), b.as_const()) {
            (Some(x), Some(y)) => lift(x - y),
            (None, Some(y)) if y.is_zero() => a,
            _ => Idx::Sub(Arc::new(a), Arc::new(b)),
        }
    }

    fn deep_fold_mul(a: Idx, b: Idx) -> Idx {
        match (a.as_const(), b.as_const()) {
            (Some(x), Some(y)) => lift(x * y),
            (Some(x), _) if x.is_zero() => Idx::zero(),
            (_, Some(y)) if y.is_zero() => Idx::zero(),
            (Some(x), None) if x == Extended::ONE => b,
            (None, Some(y)) if y == Extended::ONE => a,
            _ => Idx::Mul(Arc::new(a), Arc::new(b)),
        }
    }

    fn deep_fold_div(a: Idx, b: Idx) -> Idx {
        match (a.as_const(), b.as_const()) {
            (Some(x), Some(y)) if !y.is_zero() => lift(x / y),
            (Some(x), _) if x.is_zero() => Idx::zero(),
            (None, Some(y)) if y == Extended::ONE => a,
            _ => Idx::Div(Arc::new(a), Arc::new(b)),
        }
    }

    fn deep_fold_ceil(a: Idx) -> Idx {
        if let Some(x) = a.as_const() {
            return lift(x.ceil());
        }
        // ⌈⌈e⌉⌉ = ⌈e⌉ and ceilings of syntactic naturals are redundant only for
        // constants, which the branch above already covers.
        if let Idx::Ceil(_) | Idx::Floor(_) = a {
            return a;
        }
        Idx::Ceil(Arc::new(a))
    }

    fn deep_fold_floor(a: Idx) -> Idx {
        if let Some(x) = a.as_const() {
            return lift(x.floor());
        }
        if let Idx::Ceil(_) | Idx::Floor(_) = a {
            return a;
        }
        Idx::Floor(Arc::new(a))
    }

    fn deep_fold_min(a: Idx, b: Idx) -> Idx {
        if a == b {
            return a;
        }
        match (a.as_const(), b.as_const()) {
            (Some(x), Some(y)) => lift(x.min(y)),
            (Some(Extended::Infinity), _) => b,
            (_, Some(Extended::Infinity)) => a,
            _ => Idx::Min(Arc::new(a), Arc::new(b)),
        }
    }

    fn deep_fold_max(a: Idx, b: Idx) -> Idx {
        if a == b {
            return a;
        }
        match (a.as_const(), b.as_const()) {
            (Some(x), Some(y)) => lift(x.max(y)),
            (Some(Extended::Infinity), _) | (_, Some(Extended::Infinity)) => Idx::Infty,
            (Some(x), None) if x.is_zero() => b,
            (None, Some(y)) if y.is_zero() => a,
            _ => Idx::Max(Arc::new(a), Arc::new(b)),
        }
    }

    fn deep_fold_unary_const(
        a: Idx,
        rebuild: fn(Arc<Idx>) -> Idx,
        op: fn(Extended) -> Extended,
    ) -> Idx {
        match a.as_const() {
            Some(x) => lift(op(x)),
            None => rebuild(Arc::new(a)),
        }
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
        fn sharing_normalize_agrees_with_the_deep_walk(idx in arb_idx()) {
            prop_assert_eq!(normalize(&idx), deep_normalize(&idx));
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
