//! Algorithmic unary subtyping.
//!
//! Unary subtyping `∆; Φₐ ⊨ A₁ ⊑ A₂` is the standard DML-style relation:
//! structural, contravariant in argument positions, and constraint-dependent
//! for refinements (list lengths must be provably equal, `exec` intervals
//! must widen).  The algorithmic version generates the arithmetic side
//! conditions as a [`Constr`] instead of consulting the solver eagerly, in
//! line with the paper's design where all constraints are collected first and
//! solved at the end.

use rel_constraint::Constr;
use rel_index::Idx;
use rel_syntax::{pretty, UnaryType};

use crate::error::TypeError;

/// Computes the constraint under which `sub ⊑ sup` holds.
///
/// # Errors
///
/// Returns [`TypeError::NotASubtype`] when the two types are structurally
/// incompatible (no constraint could make the relation hold).
pub fn unary_subtype(sub: &UnaryType, sup: &UnaryType) -> Result<Constr, TypeError> {
    use UnaryType::*;
    match (sub, sup) {
        (Unit, Unit) | (Bool, Bool) | (Int, Int) => Ok(Constr::Top),
        (TVar(a), TVar(b)) if a == b => Ok(Constr::Top),
        (Arrow(a1, c1, b1), Arrow(a2, c2, b2)) => {
            // Contravariant domain, covariant codomain; the exec interval of
            // the supertype must contain the subtype's: k₂ ≤ k₁ and t₁ ≤ t₂.
            let dom = unary_subtype(a2, a1)?;
            let cod = unary_subtype(b1, b2)?;
            Ok(dom
                .and(cod)
                .and(Constr::leq(c2.lo.clone(), c1.lo.clone()))
                .and(Constr::leq(c1.hi.clone(), c2.hi.clone())))
        }
        (List(n1, a1), List(n2, a2)) => {
            let elem = unary_subtype(a1, a2)?;
            Ok(elem.and(Constr::eq(n1.clone(), n2.clone())))
        }
        (Prod(a1, b1), Prod(a2, b2)) => Ok(unary_subtype(a1, a2)?.and(unary_subtype(b1, b2)?)),
        (Forall(i1, s1, a1), Forall(i2, s2, a2)) if s1 == s2 => {
            // α-rename the right binder to the left one.
            let a2 = a2.subst_idx(i2, &Idx::Var(i1.clone()));
            unary_subtype(a1, &a2)
        }
        (Exists(i1, s1, a1), Exists(i2, s2, a2)) if s1 == s2 => {
            let a2 = a2.subst_idx(i2, &Idx::Var(i1.clone()));
            unary_subtype(a1, &a2)
        }
        (CAnd(c1, a1), CAnd(c2, a2)) => {
            let inner = unary_subtype(a1, a2)?;
            Ok(c1.clone().implies(c2.clone().and(inner)))
        }
        (CAnd(c1, a1), _) => {
            // The constraint is known to hold on the left, so it may be
            // assumed while establishing the rest.
            let inner = unary_subtype(a1, sup)?;
            Ok(c1.clone().implies(inner))
        }
        (_, CAnd(c2, a2)) => {
            let inner = unary_subtype(sub, a2)?;
            Ok(c2.clone().and(inner))
        }
        (CImpl(c1, a1), CImpl(c2, a2)) => {
            let inner = unary_subtype(a1, a2)?;
            Ok(c2.clone().implies(c1.clone().and(inner)))
        }
        (CImpl(c1, a1), _) => {
            // Using a conditional type requires discharging its condition.
            let inner = unary_subtype(a1, sup)?;
            Ok(c1.clone().and(inner))
        }
        (_, CImpl(c2, a2)) => {
            let inner = unary_subtype(sub, a2)?;
            Ok(c2.clone().implies(inner))
        }
        _ => Err(TypeError::NotASubtype {
            sub: pretty::unary_type(sub),
            sup: pretty::unary_type(sup),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rel_index::{IdxVar, Sort};
    use rel_syntax::CostBounds;

    #[test]
    fn base_types_are_reflexive() {
        for t in [UnaryType::Unit, UnaryType::Bool, UnaryType::Int] {
            assert_eq!(unary_subtype(&t, &t).unwrap(), Constr::Top);
        }
        assert!(unary_subtype(&UnaryType::Bool, &UnaryType::Int).is_err());
    }

    #[test]
    fn list_subtyping_requires_equal_lengths() {
        let a = UnaryType::list(Idx::var("n"), UnaryType::Int);
        let b = UnaryType::list(Idx::var("m"), UnaryType::Int);
        let c = unary_subtype(&a, &b).unwrap();
        assert_eq!(c, Constr::eq(Idx::var("n"), Idx::var("m")));
    }

    #[test]
    fn arrow_exec_intervals_widen() {
        let sub = UnaryType::arrow(
            UnaryType::Int,
            CostBounds::new(Idx::nat(2), Idx::nat(3)),
            UnaryType::Int,
        );
        let sup = UnaryType::arrow(
            UnaryType::Int,
            CostBounds::new(Idx::nat(1), Idx::nat(5)),
            UnaryType::Int,
        );
        let c = unary_subtype(&sub, &sup).unwrap();
        // 1 ≤ 2 and 3 ≤ 5: both constraints present.
        assert_eq!(c.atom_count(), 2);
        assert!(c.eval_bounded(&rel_index::IdxEnv::new(), 4));
        // The reverse direction produces an unsatisfiable constraint.
        let c = unary_subtype(&sup, &sub).unwrap();
        assert!(!c.eval_bounded(&rel_index::IdxEnv::new(), 4));
    }

    #[test]
    fn quantifiers_alpha_rename() {
        let a = UnaryType::forall(
            "i",
            Sort::Nat,
            UnaryType::list(Idx::var("i"), UnaryType::Int),
        );
        let b = UnaryType::forall(
            "j",
            Sort::Nat,
            UnaryType::list(Idx::var("j"), UnaryType::Int),
        );
        let c = unary_subtype(&a, &b).unwrap();
        assert_eq!(c, Constr::eq(Idx::var("i"), Idx::var("i")));
    }

    #[test]
    fn constraint_types_produce_implications() {
        let guarded = UnaryType::CAnd(
            Constr::leq(Idx::var("b"), Idx::var("a")),
            std::sync::Arc::new(UnaryType::Int),
        );
        // Forgetting a `C &` wrapper is unconditionally allowed (the inner
        // subtyping is trivial, so the implication simplifies to `tt`).
        let c = unary_subtype(&guarded, &UnaryType::Int).unwrap();
        assert!(c.is_top());
        // In the other direction the constraint itself must be established.
        let c = unary_subtype(&UnaryType::Int, &guarded).unwrap();
        assert_eq!(c, Constr::leq(Idx::var("b"), Idx::var("a")));
    }

    #[test]
    fn contravariance_of_arrow_domains() {
        // (list[n] int -> int)  ⊑  (list[m] int -> int) requires m = n
        // (the equation is generated with the supertype's index on the left).
        let sub = UnaryType::arrow(
            UnaryType::list(Idx::var("n"), UnaryType::Int),
            CostBounds::unbounded(),
            UnaryType::Int,
        );
        let sup = UnaryType::arrow(
            UnaryType::list(Idx::var("m"), UnaryType::Int),
            CostBounds::unbounded(),
            UnaryType::Int,
        );
        let c = unary_subtype(&sub, &sup).unwrap();
        assert!(c.mentions(&IdxVar::new("n")) && c.mentions(&IdxVar::new("m")));
    }
}
