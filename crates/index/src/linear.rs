//! Linear normal forms for index terms.
//!
//! The symbolic layer of the constraint solver decides the (large) fragment
//! of constraints that are linear inequalities over *atoms* — where an atom
//! is either an index variable or an opaque non-linear subterm such as
//! `⌈n/2⌉`, `min(α, 2^i)` or a whole `Σ`.  A [`LinExpr`] is a constant plus a
//! linear combination of atoms with rational coefficients; two constraints
//! whose difference normalizes to a known-sign constant can then be decided
//! without any numeric search.

use std::collections::BTreeMap;
use std::fmt;

use crate::normalize::normalize;
use crate::rational::{Extended, Rational};
use crate::term::Idx;

/// An opaque atom of a linear expression: any index term that is not itself a
/// sum, difference, constant multiple or constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom(pub Idx);

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A linear expression `c + Σ qᵢ · atomᵢ`, possibly with an infinite constant.
///
/// The decomposition is *exact*: converting an [`Idx`] to a `LinExpr` and
/// reading it back denotes the same function of the free variables (checked
/// by property tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinExpr {
    /// The additive constant.
    pub constant: Extended,
    /// Coefficients of the atoms; zero coefficients are never stored.
    pub coeffs: BTreeMap<Atom, Rational>,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> LinExpr {
        LinExpr {
            constant: Extended::ZERO,
            coeffs: BTreeMap::new(),
        }
    }

    /// A constant expression.
    pub fn constant(c: Extended) -> LinExpr {
        LinExpr {
            constant: c,
            coeffs: BTreeMap::new(),
        }
    }

    /// A single atom with coefficient one.
    pub fn atom(a: Atom) -> LinExpr {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(a, Rational::ONE);
        LinExpr {
            constant: Extended::ZERO,
            coeffs,
        }
    }

    /// Converts an index term into linear normal form.
    ///
    /// Non-linear structure (products of non-constants, `min`, `max`, `⌈·⌉`,
    /// `Σ`, …) is kept as opaque atoms whose *children* have been normalized,
    /// so equal non-linear subterms are shared as the same atom.
    pub fn of_idx(idx: &Idx) -> LinExpr {
        Self::of_normalized(&normalize(idx))
    }

    fn of_normalized(idx: &Idx) -> LinExpr {
        match idx {
            Idx::Const(q) => LinExpr::constant(Extended::Finite(*q)),
            Idx::Infty => LinExpr::constant(Extended::Infinity),
            Idx::Add(a, b) => Self::of_normalized(a).add(&Self::of_normalized(b)),
            Idx::Sub(a, b) => Self::of_normalized(a).sub(&Self::of_normalized(b)),
            Idx::Mul(a, b) => {
                let la = Self::of_normalized(a);
                let lb = Self::of_normalized(b);
                if let Some(q) = la.as_finite_constant() {
                    lb.scale(q)
                } else if let Some(q) = lb.as_finite_constant() {
                    la.scale(q)
                } else if let Some((atom, q)) = la.single_scaled_atom() {
                    // Distribute an atomic factor over a linear combination:
                    // `t · (β + 1)` and `t · β + t` must decompose to the
                    // *same* atoms, or the linear layers cannot relate a cost
                    // bound to its unrolling (the `map` benchmark's
                    // obligations are exactly this shape).
                    Self::distribute(&atom, &lb, true)
                        .map(|d| d.scale(q))
                        .unwrap_or_else(|| LinExpr::atom(Atom(idx.clone())))
                } else if let Some((atom, q)) = lb.single_scaled_atom() {
                    Self::distribute(&atom, &la, false)
                        .map(|d| d.scale(q))
                        .unwrap_or_else(|| LinExpr::atom(Atom(idx.clone())))
                } else {
                    LinExpr::atom(Atom(idx.clone()))
                }
            }
            Idx::Div(a, b) => {
                let lb = Self::of_normalized(b);
                match lb.as_finite_constant() {
                    Some(q) if !q.is_zero() => Self::of_normalized(a).scale(q.recip()),
                    _ => LinExpr::atom(Atom(idx.clone())),
                }
            }
            // Everything else is an opaque atom.
            Idx::Var(_)
            | Idx::Ceil(_)
            | Idx::Floor(_)
            | Idx::Min(_, _)
            | Idx::Max(_, _)
            | Idx::Log2(_)
            | Idx::Pow2(_)
            | Idx::Sum { .. } => LinExpr::atom(Atom(idx.clone())),
        }
    }

    /// Returns the expression's sole atom and its coefficient when it is
    /// `q · atom` with no constant part.
    fn single_scaled_atom(&self) -> Option<(Atom, Rational)> {
        if self.constant != Extended::ZERO || self.coeffs.len() != 1 {
            return None;
        }
        let (a, q) = self.coeffs.iter().next().expect("length checked");
        Some((a.clone(), *q))
    }

    /// `atom · lin` expanded term by term: each atom β of `lin` becomes the
    /// product atom `atom · β` (normalized, factor order preserved so the
    /// expansion unifies with source-level products), and the constant part
    /// becomes a multiple of `atom` itself.  `None` when the constant is
    /// `∞` (distribution over `∞` is not value-preserving for zero
    /// factors).
    fn distribute(atom: &Atom, lin: &LinExpr, atom_left: bool) -> Option<LinExpr> {
        let c = lin.constant.finite()?;
        let mut acc = LinExpr::constant(Extended::ZERO);
        for (b, q) in &lin.coeffs {
            let (x, y) = if atom_left {
                (atom.0.clone(), b.0.clone())
            } else {
                (b.0.clone(), atom.0.clone())
            };
            let prod = normalize(&(x * y));
            acc = acc.add(&LinExpr::atom(Atom(prod)).scale(*q));
        }
        if !c.is_zero() {
            acc = acc.add(&LinExpr::atom(atom.clone()).scale(c));
        }
        Some(acc)
    }

    /// Returns `Some(q)` if the expression is a finite constant.
    pub fn as_finite_constant(&self) -> Option<Rational> {
        if self.coeffs.is_empty() {
            self.constant.finite()
        } else {
            None
        }
    }

    /// Returns the constant if the expression has no atoms (may be `∞`).
    pub fn as_constant(&self) -> Option<Extended> {
        if self.coeffs.is_empty() {
            Some(self.constant)
        } else {
            None
        }
    }

    /// Pointwise sum.
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        let mut coeffs = self.coeffs.clone();
        for (a, q) in &other.coeffs {
            let entry = coeffs.entry(a.clone()).or_insert(Rational::ZERO);
            *entry = *entry + *q;
        }
        coeffs.retain(|_, q| !q.is_zero());
        LinExpr {
            constant: self.constant + other.constant,
            coeffs,
        }
    }

    /// Pointwise difference.
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        self.add(&other.scale(Rational::from_int(-1)))
    }

    /// `self + q · other` in one pass — the inner loop of Fourier–Motzkin
    /// elimination combines a positive- and a negative-bound row with one
    /// multiplier each, and going through `add(&other.scale(q))` would
    /// allocate the scaled map just to merge and drop it.
    pub fn add_scaled(&self, other: &LinExpr, q: Rational) -> LinExpr {
        if q.is_zero() {
            return self.clone();
        }
        let mut coeffs = self.coeffs.clone();
        for (a, c) in &other.coeffs {
            let entry = coeffs.entry(a.clone()).or_insert(Rational::ZERO);
            *entry = *entry + *c * q;
        }
        coeffs.retain(|_, c| !c.is_zero());
        let scaled = match other.constant {
            Extended::Finite(c) => Extended::Finite(c * q),
            // Mirror `scale`'s saturation rule for negative multiples of ∞.
            Extended::Infinity => {
                if q.is_negative() {
                    Extended::ZERO
                } else {
                    Extended::Infinity
                }
            }
        };
        LinExpr {
            constant: self.constant + scaled,
            coeffs,
        }
    }

    /// The coefficient of an atom (zero when absent).
    pub fn coeff(&self, atom: &Atom) -> Rational {
        self.coeffs.get(atom).copied().unwrap_or(Rational::ZERO)
    }

    /// Removes an atom, returning its previous coefficient (zero when
    /// absent) — variable elimination drops the pivot column this way.
    pub fn remove_atom(&mut self, atom: &Atom) -> Rational {
        self.coeffs.remove(atom).unwrap_or(Rational::ZERO)
    }

    /// Multiplication by a finite rational scalar.
    pub fn scale(&self, q: Rational) -> LinExpr {
        if q.is_zero() {
            return LinExpr::zero();
        }
        let coeffs = self
            .coeffs
            .iter()
            .map(|(a, c)| (a.clone(), *c * q))
            .collect();
        let constant = match self.constant {
            Extended::Finite(c) => Extended::Finite(c * q),
            Extended::Infinity => {
                if q.is_negative() {
                    // -∞ is not representable; callers never scale infinite
                    // constants negatively (costs are non-negative), but keep
                    // the operation total by saturating at 0.
                    Extended::ZERO
                } else {
                    Extended::Infinity
                }
            }
        };
        LinExpr { constant, coeffs }
    }

    /// Converts the linear expression back into an index term.
    pub fn to_idx(&self) -> Idx {
        let mut acc = match self.constant {
            Extended::Finite(q) if q.is_zero() && !self.coeffs.is_empty() => None,
            Extended::Finite(q) => Some(Idx::Const(q)),
            Extended::Infinity => Some(Idx::Infty),
        };
        for (atom, coeff) in &self.coeffs {
            let term = if *coeff == Rational::ONE {
                atom.0.clone()
            } else {
                Idx::Const(*coeff) * atom.0.clone()
            };
            acc = Some(match acc {
                None => term,
                Some(prev) => prev + term,
            });
        }
        acc.unwrap_or_else(Idx::zero)
    }

    /// Iterates over the atoms of the expression.
    pub fn atoms(&self) -> impl Iterator<Item = &Atom> {
        self.coeffs.keys()
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_idx())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::IdxEnv;
    use proptest::prelude::*;

    #[test]
    fn linear_decomposition_of_simple_terms() {
        // 2*n + 3 - n  =>  n + 3
        let idx = Idx::nat(2) * Idx::var("n") + Idx::nat(3) - Idx::var("n");
        let lin = LinExpr::of_idx(&idx);
        assert_eq!(lin.constant, Extended::from(3));
        assert_eq!(lin.coeffs.len(), 1);
        assert_eq!(
            lin.coeffs.get(&Atom(Idx::var("n"))).copied(),
            Some(Rational::ONE)
        );
    }

    #[test]
    fn cancellation_to_zero() {
        let idx = Idx::var("n") + Idx::var("a") - (Idx::var("a") + Idx::var("n"));
        let lin = LinExpr::of_idx(&idx);
        assert_eq!(lin, LinExpr::zero());
    }

    #[test]
    fn nonlinear_subterms_become_shared_atoms() {
        let idx = Idx::half_ceil(Idx::var("n")) + Idx::half_ceil(Idx::var("n"));
        let lin = LinExpr::of_idx(&idx);
        assert_eq!(lin.coeffs.len(), 1);
        let coeff = lin.coeffs.values().next().copied().unwrap();
        assert_eq!(coeff, Rational::from_int(2));
    }

    #[test]
    fn division_by_constant_scales() {
        let idx = (Idx::var("n") + Idx::nat(4)) / Idx::nat(2);
        let lin = LinExpr::of_idx(&idx);
        assert_eq!(lin.constant, Extended::from(2));
        assert_eq!(
            lin.coeffs.get(&Atom(Idx::var("n"))).copied(),
            Some(Rational::new(1, 2))
        );
    }

    #[test]
    fn products_distribute_over_linear_combinations() {
        // t · (b + 1) and t·b + t decompose to the same atoms.
        let t = || Idx::var("t");
        let b = || Idx::var("b");
        let folded = LinExpr::of_idx(&(t() * (b() + Idx::one())));
        let unrolled = LinExpr::of_idx(&(t() * b() + t()));
        assert_eq!(folded, unrolled);
        assert_eq!(folded.sub(&unrolled), LinExpr::zero());
        // Factor order is preserved: (b + 1) · t expands to b·t + t.
        let swapped = LinExpr::of_idx(&((b() + Idx::one()) * t()));
        assert_eq!(swapped, LinExpr::of_idx(&(b() * t() + t())));
        // A scaled atomic factor distributes too: 2t · (b − 3) = 2·(t·b) − 6t.
        let scaled = LinExpr::of_idx(&(Idx::nat(2) * t() * (b() - Idx::nat(3))));
        assert_eq!(
            scaled,
            LinExpr::of_idx(&(Idx::nat(2) * (t() * b()) - Idx::nat(6) * t()))
        );
        // Value preservation at a few points.
        for (tv, bv) in [(0i64, 0i64), (3, 5), (7, 1)] {
            let env = IdxEnv::from_pairs([("t", Extended::from(tv)), ("b", Extended::from(bv))]);
            let direct = (t() * (b() + Idx::one())).eval(&env).unwrap();
            assert_eq!(folded.to_idx().eval(&env).unwrap(), direct);
        }
    }

    #[test]
    fn add_scaled_matches_add_of_scale() {
        let x = LinExpr::of_idx(&(Idx::var("n") + Idx::nat(3)));
        let y = LinExpr::of_idx(&(Idx::var("n") - Idx::var("a") + Idx::nat(1)));
        let q = Rational::new(-3, 2);
        assert_eq!(x.add_scaled(&y, q), x.add(&y.scale(q)));
        assert_eq!(x.add_scaled(&y, Rational::ZERO), x);
        assert_eq!(y.coeff(&Atom(Idx::var("a"))), Rational::from_int(-1));
        assert_eq!(y.coeff(&Atom(Idx::var("zzz"))), Rational::ZERO);
        let mut z = y.clone();
        assert_eq!(z.remove_atom(&Atom(Idx::var("a"))), Rational::from_int(-1));
        assert_eq!(z.remove_atom(&Atom(Idx::var("a"))), Rational::ZERO);
    }

    fn arb_idx() -> impl Strategy<Value = Idx> {
        let leaf = prop_oneof![
            (0u64..5).prop_map(Idx::nat),
            Just(Idx::var("n")),
            Just(Idx::var("a")),
        ];
        leaf.prop_recursive(3, 20, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
                (inner.clone(), (1u64..4)).prop_map(|(a, k)| a * Idx::nat(k)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Idx::min(a, b)),
                inner.clone().prop_map(Idx::ceil),
                inner.clone().prop_map(|a| a / Idx::nat(2)),
            ]
        })
    }

    proptest! {
        #[test]
        fn roundtrip_preserves_evaluation(idx in arb_idx(), n in 0i64..10, a in 0i64..10) {
            let env = IdxEnv::from_pairs([("n", Extended::from(n)), ("a", Extended::from(a))]);
            let direct = idx.eval(&env).unwrap();
            let via_linear = LinExpr::of_idx(&idx).to_idx().eval(&env).unwrap();
            prop_assert_eq!(direct, via_linear);
        }

        #[test]
        fn add_then_sub_is_identity(x in arb_idx(), y in arb_idx(), n in 0i64..10, a in 0i64..10) {
            let env = IdxEnv::from_pairs([("n", Extended::from(n)), ("a", Extended::from(a))]);
            let lx = LinExpr::of_idx(&x);
            let ly = LinExpr::of_idx(&y);
            let roundtrip = lx.add(&ly).sub(&ly);
            prop_assert_eq!(roundtrip.to_idx().eval(&env).unwrap(), lx.to_idx().eval(&env).unwrap());
        }
    }
}
