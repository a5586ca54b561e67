//! The index-term AST.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};
use std::sync::Arc;

use crate::rational::{Extended, Rational};
use crate::var::IdxVar;

/// An index term `I` of the paper: the static-level arithmetic language in
/// which list sizes `n`, difference bounds `α` and costs `t` are expressed.
///
/// ```text
/// I, n, α, t ::= i | q | ∞ | I + I | I - I | I * I | I / I
///              | ⌈I⌉ | ⌊I⌋ | min(I, I) | max(I, I) | log2 I | 2^I
///              | Σ_{i = I}^{I} I
/// ```
///
/// Children sit behind [`Arc`], so a clone is a reference-count bump and
/// the rewriting walks ([`Idx::subst`], [`Idx::subst_all`],
/// [`normalize`](crate::normalize())) hand back the input's own allocation
/// for every subtree they leave unchanged.  `Arc` rather than `Rc`: engines,
/// caches and the terms inside them are shared across worker threads.
///
/// Construction goes through the helper constructors ([`Idx::var`],
/// [`Idx::nat`], [`Idx::min`], …) or the overloaded arithmetic operators.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Idx {
    /// An index variable.
    Var(IdxVar),
    /// A rational literal (naturals are integer-valued rationals).
    Const(Rational),
    /// Positive infinity (the trivial cost bound).
    Infty,
    /// Addition `I1 + I2`.
    Add(Arc<Idx>, Arc<Idx>),
    /// Subtraction `I1 - I2`.
    Sub(Arc<Idx>, Arc<Idx>),
    /// Multiplication `I1 · I2`.
    Mul(Arc<Idx>, Arc<Idx>),
    /// Division `I1 / I2`.
    Div(Arc<Idx>, Arc<Idx>),
    /// Ceiling `⌈I⌉`.
    Ceil(Arc<Idx>),
    /// Floor `⌊I⌋`.
    Floor(Arc<Idx>),
    /// Binary minimum `min(I1, I2)`.
    Min(Arc<Idx>, Arc<Idx>),
    /// Binary maximum `max(I1, I2)`.
    Max(Arc<Idx>, Arc<Idx>),
    /// Base-2 logarithm `log2 I` (totalized as `log2(max(I, 1))`).
    Log2(Arc<Idx>),
    /// Power of two `2^I`.
    Pow2(Arc<Idx>),
    /// Bounded iterated sum `Σ_{var = lo}^{hi} body` (inclusive bounds), used
    /// by divide-and-conquer cost recurrences such as `Q(n, α)` for merge sort.
    Sum {
        /// The bound summation variable.
        var: IdxVar,
        /// Lower bound (inclusive).
        lo: Arc<Idx>,
        /// Upper bound (inclusive).
        hi: Arc<Idx>,
        /// Summand, may mention `var`.
        body: Arc<Idx>,
    },
}

// Terms cross threads inside shared engines and caches: a swap to `Rc`
// must fail the build.
const _: () = {
    const fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<Idx>();
};

impl Idx {
    /// An index variable.
    pub fn var(name: impl Into<IdxVar>) -> Idx {
        Idx::Var(name.into())
    }

    /// A natural-number literal.
    pub fn nat(n: u64) -> Idx {
        Idx::Const(Rational::from(n))
    }

    /// A rational literal.
    pub fn rat(num: i64, den: i64) -> Idx {
        Idx::Const(Rational::new(num, den))
    }

    /// The literal zero.
    pub fn zero() -> Idx {
        Idx::Const(Rational::ZERO)
    }

    /// The literal one.
    pub fn one() -> Idx {
        Idx::Const(Rational::ONE)
    }

    /// Positive infinity.
    pub fn infty() -> Idx {
        Idx::Infty
    }

    /// `min(a, b)`.
    pub fn min(a: Idx, b: Idx) -> Idx {
        Idx::Min(Arc::new(a), Arc::new(b))
    }

    /// `max(a, b)`.
    pub fn max(a: Idx, b: Idx) -> Idx {
        Idx::Max(Arc::new(a), Arc::new(b))
    }

    /// `⌈a⌉`.
    pub fn ceil(a: Idx) -> Idx {
        Idx::Ceil(Arc::new(a))
    }

    /// `⌊a⌋`.
    pub fn floor(a: Idx) -> Idx {
        Idx::Floor(Arc::new(a))
    }

    /// `log2 a`.
    pub fn log2(a: Idx) -> Idx {
        Idx::Log2(Arc::new(a))
    }

    /// `2^a`.
    pub fn pow2(a: Idx) -> Idx {
        Idx::Pow2(Arc::new(a))
    }

    /// `Σ_{var = lo}^{hi} body`.
    pub fn sum(var: impl Into<IdxVar>, lo: Idx, hi: Idx, body: Idx) -> Idx {
        Idx::Sum {
            var: var.into(),
            lo: Arc::new(lo),
            hi: Arc::new(hi),
            body: Arc::new(body),
        }
    }

    /// `⌈a / 2⌉` — pervasive in divide-and-conquer refinements.
    pub fn half_ceil(a: Idx) -> Idx {
        Idx::ceil(a / Idx::nat(2))
    }

    /// `⌊a / 2⌋`.
    pub fn half_floor(a: Idx) -> Idx {
        Idx::floor(a / Idx::nat(2))
    }

    /// Returns `Some(q)` if the term is a literal constant.
    pub fn as_const(&self) -> Option<Extended> {
        match self {
            Idx::Const(q) => Some(Extended::Finite(*q)),
            Idx::Infty => Some(Extended::Infinity),
            _ => None,
        }
    }

    /// Returns `true` if the term is the literal `0`.
    pub fn is_zero(&self) -> bool {
        matches!(self, Idx::Const(q) if q.is_zero())
    }

    /// Returns `true` if the term is syntactically `∞`.
    pub fn is_infty(&self) -> bool {
        matches!(self, Idx::Infty)
    }

    /// The set of free index variables.
    pub fn free_vars(&self) -> BTreeSet<IdxVar> {
        let mut acc = BTreeSet::new();
        self.collect_free_vars(&mut acc);
        acc
    }

    fn collect_free_vars(&self, acc: &mut BTreeSet<IdxVar>) {
        match self {
            Idx::Var(v) => {
                acc.insert(v.clone());
            }
            Idx::Const(_) | Idx::Infty => {}
            Idx::Add(a, b)
            | Idx::Sub(a, b)
            | Idx::Mul(a, b)
            | Idx::Div(a, b)
            | Idx::Min(a, b)
            | Idx::Max(a, b) => {
                a.collect_free_vars(acc);
                b.collect_free_vars(acc);
            }
            Idx::Ceil(a) | Idx::Floor(a) | Idx::Log2(a) | Idx::Pow2(a) => a.collect_free_vars(acc),
            Idx::Sum { var, lo, hi, body } => {
                lo.collect_free_vars(acc);
                hi.collect_free_vars(acc);
                let mut inner = BTreeSet::new();
                body.collect_free_vars(&mut inner);
                inner.remove(var);
                acc.extend(inner);
            }
        }
    }

    /// Returns `true` if `v` occurs free in the term.
    pub fn mentions(&self, v: &IdxVar) -> bool {
        match self {
            Idx::Var(w) => w == v,
            Idx::Const(_) | Idx::Infty => false,
            Idx::Add(a, b)
            | Idx::Sub(a, b)
            | Idx::Mul(a, b)
            | Idx::Div(a, b)
            | Idx::Min(a, b)
            | Idx::Max(a, b) => a.mentions(v) || b.mentions(v),
            Idx::Ceil(a) | Idx::Floor(a) | Idx::Log2(a) | Idx::Pow2(a) => a.mentions(v),
            Idx::Sum { var, lo, hi, body } => {
                lo.mentions(v) || hi.mentions(v) || (var != v && body.mentions(v))
            }
        }
    }

    /// Capture-avoiding substitution of `replacement` for `var`.
    ///
    /// Summation binders shadow the substituted variable; substitution under a
    /// binder whose bound variable occurs free in `replacement` renames the
    /// binder (the generated name is derived from the original).  Every
    /// subtree the substitution leaves unchanged comes back as the input's
    /// own allocation.
    pub fn subst(&self, var: &IdxVar, replacement: &Idx) -> Idx {
        self.subst_changed(var, replacement)
            .unwrap_or_else(|| self.clone())
    }

    /// [`Idx::subst`], or `None` when it would return the term unchanged.
    pub fn subst_changed(&self, var: &IdxVar, replacement: &Idx) -> Option<Idx> {
        match self {
            Idx::Var(v) => (v == var).then(|| replacement.clone()),
            Idx::Sum {
                var: b,
                lo,
                hi,
                body,
            } if b == var || replacement.mentions(b) => {
                let (new_lo, new_hi) = (
                    lo.subst_changed(var, replacement),
                    hi.subst_changed(var, replacement),
                );
                if b == var {
                    // Bound occurrence shadows the substitution.
                    if new_lo.is_none() && new_hi.is_none() {
                        return None;
                    }
                    return Some(Idx::Sum {
                        var: b.clone(),
                        lo: share(new_lo, lo),
                        hi: share(new_hi, hi),
                        body: Arc::clone(body),
                    });
                }
                // Rename the binder to avoid capture.
                let fresh = IdxVar::new(format!("{}'", b.name()));
                let renamed_body = body.subst(b, &Idx::Var(fresh.clone()));
                Some(Idx::Sum {
                    var: fresh,
                    lo: share(new_lo, lo),
                    hi: share(new_hi, hi),
                    body: Arc::new(renamed_body.subst(var, replacement)),
                })
            }
            _ => self.map_children(|c| c.subst_changed(var, replacement)),
        }
    }

    /// Simultaneous substitution given by a map from variables to terms, in
    /// **one traversal** (the sequential fold over [`Idx::subst`] cloned the
    /// whole tree once per variable).
    ///
    /// Requires that no replacement mentions a substituted variable (the
    /// form produced by the solver's existential elimination, which resolves
    /// mutual references first); under that precondition simultaneous and
    /// sequential application agree, which is also how the rare
    /// binder-capture case is handled.  Callers substituting into many
    /// terms with one map should validate the map once themselves (as
    /// `Constr::subst_all` does) — this entry point does not re-check it.
    /// Shares unchanged subtrees like [`Idx::subst`].
    pub fn subst_all(&self, map: &BTreeMap<IdxVar, Idx>) -> Idx {
        self.subst_all_changed(map).unwrap_or_else(|| self.clone())
    }

    /// [`Idx::subst_all`], or `None` when it would return the term unchanged
    /// (same precondition).
    pub fn subst_all_changed(&self, map: &BTreeMap<IdxVar, Idx>) -> Option<Idx> {
        if map.is_empty() {
            return None;
        }
        match self {
            Idx::Var(v) => map.get(v).cloned(),
            Idx::Sum { var, .. }
                if map.contains_key(var) || map.values().any(|r| r.mentions(var)) =>
            {
                // Shadowing or capture risk at this binder: fall back to the
                // capture-avoiding single substitution, pairwise (equivalent
                // under the documented precondition).
                map.iter().fold(None, |acc: Option<Idx>, (v, i)| {
                    acc.as_ref().unwrap_or(self).subst_changed(v, i).or(acc)
                })
            }
            _ => self.map_children(|c| c.subst_all_changed(map)),
        }
    }

    /// Applies `f` to each child (the bounds and the body alike for a sum)
    /// and rebuilds the node around the results, sharing every child for
    /// which `f` returns `None`.  `None` when `f` changed no child.
    pub(crate) fn map_children(&self, mut f: impl FnMut(&Idx) -> Option<Idx>) -> Option<Idx> {
        match self {
            Idx::Var(_) | Idx::Const(_) | Idx::Infty => None,
            Idx::Add(a, b) => rebuild2(a, b, Idx::Add, f),
            Idx::Sub(a, b) => rebuild2(a, b, Idx::Sub, f),
            Idx::Mul(a, b) => rebuild2(a, b, Idx::Mul, f),
            Idx::Div(a, b) => rebuild2(a, b, Idx::Div, f),
            Idx::Min(a, b) => rebuild2(a, b, Idx::Min, f),
            Idx::Max(a, b) => rebuild2(a, b, Idx::Max, f),
            Idx::Ceil(a) => f(a).map(|a| Idx::Ceil(Arc::new(a))),
            Idx::Floor(a) => f(a).map(|a| Idx::Floor(Arc::new(a))),
            Idx::Log2(a) => f(a).map(|a| Idx::Log2(Arc::new(a))),
            Idx::Pow2(a) => f(a).map(|a| Idx::Pow2(Arc::new(a))),
            Idx::Sum { var, lo, hi, body } => {
                let (new_lo, new_hi, new_body) = (f(lo), f(hi), f(body));
                if new_lo.is_none() && new_hi.is_none() && new_body.is_none() {
                    return None;
                }
                Some(Idx::Sum {
                    var: var.clone(),
                    lo: share(new_lo, lo),
                    hi: share(new_hi, hi),
                    body: share(new_body, body),
                })
            }
        }
    }

    /// Number of AST nodes — used for diagnostics and as a proptest size hint.
    pub fn size(&self) -> usize {
        match self {
            Idx::Var(_) | Idx::Const(_) | Idx::Infty => 1,
            Idx::Add(a, b)
            | Idx::Sub(a, b)
            | Idx::Mul(a, b)
            | Idx::Div(a, b)
            | Idx::Min(a, b)
            | Idx::Max(a, b) => 1 + a.size() + b.size(),
            Idx::Ceil(a) | Idx::Floor(a) | Idx::Log2(a) | Idx::Pow2(a) => 1 + a.size(),
            Idx::Sum { lo, hi, body, .. } => 1 + lo.size() + hi.size() + body.size(),
        }
    }
}

/// The rewritten child, or the input's own allocation when the rewrite
/// left it unchanged (`new` is `None`).
fn share(new: Option<Idx>, old: &Arc<Idx>) -> Arc<Idx> {
    new.map_or_else(|| Arc::clone(old), Arc::new)
}

/// Rebuilds a binary node when `f` changes either child.
fn rebuild2(
    a: &Arc<Idx>,
    b: &Arc<Idx>,
    node: fn(Arc<Idx>, Arc<Idx>) -> Idx,
    mut f: impl FnMut(&Idx) -> Option<Idx>,
) -> Option<Idx> {
    let (new_a, new_b) = (f(a), f(b));
    if new_a.is_none() && new_b.is_none() {
        return None;
    }
    Some(node(share(new_a, a), share(new_b, b)))
}

impl Add for Idx {
    type Output = Idx;
    fn add(self, rhs: Idx) -> Idx {
        Idx::Add(Arc::new(self), Arc::new(rhs))
    }
}

impl Sub for Idx {
    type Output = Idx;
    fn sub(self, rhs: Idx) -> Idx {
        Idx::Sub(Arc::new(self), Arc::new(rhs))
    }
}

impl Mul for Idx {
    type Output = Idx;
    fn mul(self, rhs: Idx) -> Idx {
        Idx::Mul(Arc::new(self), Arc::new(rhs))
    }
}

impl Div for Idx {
    type Output = Idx;
    fn div(self, rhs: Idx) -> Idx {
        Idx::Div(Arc::new(self), Arc::new(rhs))
    }
}

impl From<u64> for Idx {
    fn from(n: u64) -> Self {
        Idx::nat(n)
    }
}

impl From<IdxVar> for Idx {
    fn from(v: IdxVar) -> Self {
        Idx::Var(v)
    }
}

impl fmt::Display for Idx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Idx::Var(v) => write!(f, "{v}"),
            Idx::Const(q) => write!(f, "{q}"),
            Idx::Infty => write!(f, "inf"),
            Idx::Add(a, b) => write!(f, "({a} + {b})"),
            Idx::Sub(a, b) => write!(f, "({a} - {b})"),
            Idx::Mul(a, b) => write!(f, "({a} * {b})"),
            Idx::Div(a, b) => write!(f, "({a} / {b})"),
            Idx::Ceil(a) => write!(f, "ceil({a})"),
            Idx::Floor(a) => write!(f, "floor({a})"),
            Idx::Min(a, b) => write!(f, "min({a}, {b})"),
            Idx::Max(a, b) => write!(f, "max({a}, {b})"),
            Idx::Log2(a) => write!(f, "log2({a})"),
            Idx::Pow2(a) => write!(f, "pow2({a})"),
            Idx::Sum { var, lo, hi, body } => {
                write!(f, "sum({var} = {lo} to {hi}, {body})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_operators_build_the_expected_tree() {
        let i = Idx::var("n") + Idx::nat(1);
        assert_eq!(
            i,
            Idx::Add(Arc::new(Idx::Var(IdxVar::new("n"))), Arc::new(Idx::nat(1)))
        );
        assert_eq!(i.size(), 3);
    }

    #[test]
    fn free_vars_ignores_bound_summation_variable() {
        let s = Idx::sum(
            "i",
            Idx::zero(),
            Idx::var("h"),
            Idx::var("i") * Idx::var("alpha"),
        );
        let fv = s.free_vars();
        assert!(fv.contains(&IdxVar::new("h")));
        assert!(fv.contains(&IdxVar::new("alpha")));
        assert!(!fv.contains(&IdxVar::new("i")));
    }

    #[test]
    fn subst_replaces_free_occurrences_only() {
        let s = Idx::sum(
            "i",
            Idx::zero(),
            Idx::var("n"),
            Idx::var("i") + Idx::var("n"),
        );
        let replaced = s.subst(&IdxVar::new("n"), &Idx::nat(5));
        match replaced {
            Idx::Sum { hi, body, .. } => {
                assert_eq!(*hi, Idx::nat(5));
                assert_eq!(*body, Idx::var("i") + Idx::nat(5));
            }
            other => panic!("expected a sum, got {other:?}"),
        }
    }

    #[test]
    fn subst_shadowed_binder_is_untouched() {
        let s = Idx::sum("i", Idx::zero(), Idx::nat(3), Idx::var("i"));
        let replaced = s.subst(&IdxVar::new("i"), &Idx::nat(99));
        assert_eq!(replaced, s);
    }

    #[test]
    fn subst_avoids_capture_by_renaming() {
        // substituting  n := i  under a binder for i must not capture.
        let s = Idx::sum("i", Idx::zero(), Idx::nat(3), Idx::var("n"));
        let replaced = s.subst(&IdxVar::new("n"), &Idx::var("i"));
        match replaced {
            Idx::Sum { var, body, .. } => {
                assert_ne!(var, IdxVar::new("i"));
                assert_eq!(*body, Idx::var("i"));
            }
            other => panic!("expected a sum, got {other:?}"),
        }
    }

    #[test]
    fn subst_of_an_absent_variable_shares_every_child() {
        let term = Idx::min(Idx::var("n") + Idx::nat(1), Idx::log2(Idx::var("a")));
        let absent = IdxVar::new("z");
        let (Idx::Min(a, b), Idx::Min(sa, sb)) = (&term, &term.subst(&absent, &Idx::nat(3))) else {
            panic!("subst changed the head");
        };
        assert!(Arc::ptr_eq(a, sa) && Arc::ptr_eq(b, sb));
        let map = BTreeMap::from([(absent, Idx::nat(3))]);
        let Idx::Min(ma, mb) = &term.subst_all(&map) else {
            panic!("subst_all changed the head");
        };
        assert!(Arc::ptr_eq(a, ma) && Arc::ptr_eq(b, mb));
        // Substituting under one child shares the other.
        let Idx::Min(na, nb) = &term.subst(&IdxVar::new("n"), &Idx::nat(3)) else {
            panic!("subst changed the head");
        };
        assert!(!Arc::ptr_eq(a, na) && Arc::ptr_eq(b, nb));
    }

    #[test]
    fn mentions_agrees_with_free_vars() {
        let i = Idx::min(Idx::var("a"), Idx::var("b")) - Idx::log2(Idx::var("c"));
        for v in ["a", "b", "c"] {
            assert!(i.mentions(&IdxVar::new(v)));
            assert!(i.free_vars().contains(&IdxVar::new(v)));
        }
        assert!(!i.mentions(&IdxVar::new("d")));
    }

    #[test]
    fn display_is_reasonable() {
        let i = Idx::half_ceil(Idx::var("n"));
        assert_eq!(i.to_string(), "ceil((n / 2))");
    }
}
