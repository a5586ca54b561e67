//! Unary and relational types.
//!
//! The type grammar follows §3–§5 of the paper.  Unary types `A` classify a
//! single expression (DML-style refinements with `exec(k, t)` cost effects on
//! arrows); relational types `τ` classify a *pair* of expressions and carry
//! `diff(t)` relative-cost effects, relational list refinements
//! `list[n]^α τ`, the comonadic `□ τ` (syntactic equality of the two related
//! values) and the `U (A₁, A₂)` type that injects unary typing into
//! relational typing.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use rel_constraint::Constr;
use rel_index::{Idx, IdxVar, Sort};

/// Which type system of the paper a term should be checked in.
///
/// RelCost conservatively extends the others (the paper's §6 notes that the
/// implementation "can also be used for RelRef and RelRefU"); the engine uses
/// this level to reject constructs that a smaller system does not have and to
/// ignore costs below [`SystemLevel::RelCost`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum SystemLevel {
    /// §2: the relational simply-typed lambda calculus (booleans + arrows).
    RelStlc,
    /// §3: adds relational list refinements, `□`, index quantification and
    /// constraint types.
    RelRef,
    /// §4: adds the unary fallback (`U (A₁, A₂)` and the `switch` rule).
    RelRefU,
    /// §5: adds unary `exec(k, t)` and relational `diff(t)` cost effects.
    #[default]
    RelCost,
}

impl SystemLevel {
    /// Returns `true` if `self` includes all features of `other`.
    pub fn includes(self, other: SystemLevel) -> bool {
        self >= other
    }

    /// Returns `true` if cost effects are tracked at this level.
    pub fn tracks_cost(self) -> bool {
        self == SystemLevel::RelCost
    }
}

impl fmt::Display for SystemLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemLevel::RelStlc => write!(f, "relSTLC"),
            SystemLevel::RelRef => write!(f, "RelRef"),
            SystemLevel::RelRefU => write!(f, "RelRefU"),
            SystemLevel::RelCost => write!(f, "RelCost"),
        }
    }
}

/// The `exec(k, t)` effect of a unary arrow: `k` is a lower bound and `t` an
/// upper bound on the evaluation cost of the function body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CostBounds {
    /// Lower bound `k`.
    pub lo: Idx,
    /// Upper bound `t`.
    pub hi: Idx,
}

impl CostBounds {
    /// Creates an `exec(lo, hi)` annotation.
    pub fn new(lo: Idx, hi: Idx) -> CostBounds {
        CostBounds { lo, hi }
    }

    /// The uninformative bound `exec(0, ∞)` used when costs are not tracked.
    pub fn unbounded() -> CostBounds {
        CostBounds {
            lo: Idx::zero(),
            hi: Idx::infty(),
        }
    }

    /// The exact bound `exec(c, c)`.
    pub fn exactly(c: Idx) -> CostBounds {
        CostBounds {
            lo: c.clone(),
            hi: c,
        }
    }

    /// Substitutes an index term for an index variable in both bounds.
    pub fn subst(&self, var: &IdxVar, replacement: &Idx) -> CostBounds {
        self.subst_changed(var, replacement)
            .unwrap_or_else(|| self.clone())
    }

    /// [`CostBounds::subst`], or `None` when neither bound mentions `var`.
    fn subst_changed(&self, var: &IdxVar, replacement: &Idx) -> Option<CostBounds> {
        let (lo, hi) = either(
            (
                self.lo.subst_changed(var, replacement),
                self.hi.subst_changed(var, replacement),
            ),
            (&self.lo, &self.hi),
        )?;
        Some(CostBounds { lo, hi })
    }

    /// Free index variables of both bounds.
    pub fn free_idx_vars(&self) -> BTreeSet<IdxVar> {
        let mut s = self.lo.free_vars();
        s.extend(self.hi.free_vars());
        s
    }
}

impl fmt::Display for CostBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "exec({}, {})", self.lo, self.hi)
    }
}

// Types cross threads inside shared engines and definition indexes: a swap
// to `Rc` must fail the build.
const _: () = {
    const fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<UnaryType>();
    shared_across_threads::<RelType>();
};

/// Both parts of a node a rewrite touched, each either rewritten or taken
/// from `old`; `None` when the rewrite changed neither.
fn either<A: Clone, B: Clone>(new: (Option<A>, Option<B>), old: (&A, &B)) -> Option<(A, B)> {
    match new {
        (None, None) => None,
        (a, b) => Some((
            a.unwrap_or_else(|| old.0.clone()),
            b.unwrap_or_else(|| old.1.clone()),
        )),
    }
}

/// A unary (single-execution) type `A`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum UnaryType {
    /// The unit type.
    Unit,
    /// Booleans.
    Bool,
    /// Integers.
    Int,
    /// An opaque type variable (used to state polymorphic example types such
    /// as `map`'s; type variables are not quantified in the formal systems).
    TVar(String),
    /// `A₁ →^exec(k,t) A₂`.
    Arrow(Arc<UnaryType>, CostBounds, Arc<UnaryType>),
    /// `list[n] A` — lists of length exactly `n`.
    List(Idx, Arc<UnaryType>),
    /// Products `A₁ × A₂`.
    Prod(Arc<UnaryType>, Arc<UnaryType>),
    /// `∀ i :: S. A`.
    Forall(IdxVar, Sort, Arc<UnaryType>),
    /// `∃ i :: S. A`.
    Exists(IdxVar, Sort, Arc<UnaryType>),
    /// `C & A` — the constraint holds and the value has type `A`.
    CAnd(Constr, Arc<UnaryType>),
    /// `C ⊃ A` — if the constraint holds then the value has type `A`.
    CImpl(Constr, Arc<UnaryType>),
}

impl UnaryType {
    /// `A₁ →^exec(k,t) A₂`.
    pub fn arrow(a: UnaryType, cost: CostBounds, b: UnaryType) -> UnaryType {
        UnaryType::Arrow(Arc::new(a), cost, Arc::new(b))
    }

    /// `list[n] A`.
    pub fn list(n: Idx, a: UnaryType) -> UnaryType {
        UnaryType::List(n, Arc::new(a))
    }

    /// `A₁ × A₂`.
    pub fn prod(a: UnaryType, b: UnaryType) -> UnaryType {
        UnaryType::Prod(Arc::new(a), Arc::new(b))
    }

    /// `∀ i :: S. A`.
    pub fn forall(i: impl Into<IdxVar>, s: Sort, a: UnaryType) -> UnaryType {
        UnaryType::Forall(i.into(), s, Arc::new(a))
    }

    /// `∃ i :: S. A`.
    pub fn exists(i: impl Into<IdxVar>, s: Sort, a: UnaryType) -> UnaryType {
        UnaryType::Exists(i.into(), s, Arc::new(a))
    }

    /// Capture-avoiding substitution of an index term for an index variable.
    /// Every part the substitution leaves unchanged is shared with `self`.
    pub fn subst_idx(&self, var: &IdxVar, replacement: &Idx) -> UnaryType {
        self.subst_idx_changed(var, replacement)
            .unwrap_or_else(|| self.clone())
    }

    /// [`UnaryType::subst_idx`], or `None` when it would return `self`.
    fn subst_idx_changed(&self, var: &IdxVar, replacement: &Idx) -> Option<UnaryType> {
        let ty = |a: &Arc<UnaryType>| a.subst_idx_changed(var, replacement).map(Arc::new);
        match self {
            UnaryType::Unit | UnaryType::Bool | UnaryType::Int | UnaryType::TVar(_) => None,
            UnaryType::Arrow(a, c, b) => {
                let (na, nc, nb) = (ty(a), c.subst_changed(var, replacement), ty(b));
                if na.is_none() && nc.is_none() && nb.is_none() {
                    return None;
                }
                Some(UnaryType::Arrow(
                    na.unwrap_or_else(|| Arc::clone(a)),
                    nc.unwrap_or_else(|| c.clone()),
                    nb.unwrap_or_else(|| Arc::clone(b)),
                ))
            }
            UnaryType::List(n, a) => {
                let (n, a) = either((n.subst_changed(var, replacement), ty(a)), (n, a))?;
                Some(UnaryType::List(n, a))
            }
            UnaryType::Prod(a, b) => {
                let (a, b) = either((ty(a), ty(b)), (a, b))?;
                Some(UnaryType::Prod(a, b))
            }
            UnaryType::Forall(i, _, _) | UnaryType::Exists(i, _, _) if i == var => None,
            UnaryType::Forall(i, s, a) => Some(UnaryType::Forall(i.clone(), *s, ty(a)?)),
            UnaryType::Exists(i, s, a) => Some(UnaryType::Exists(i.clone(), *s, ty(a)?)),
            UnaryType::CAnd(c, a) => {
                let (c, a) = either((c.subst_changed(var, replacement), ty(a)), (c, a))?;
                Some(UnaryType::CAnd(c, a))
            }
            UnaryType::CImpl(c, a) => {
                let (c, a) = either((c.subst_changed(var, replacement), ty(a)), (c, a))?;
                Some(UnaryType::CImpl(c, a))
            }
        }
    }

    /// Free index variables of the type.
    pub fn free_idx_vars(&self) -> BTreeSet<IdxVar> {
        match self {
            UnaryType::Unit | UnaryType::Bool | UnaryType::Int | UnaryType::TVar(_) => {
                BTreeSet::new()
            }
            UnaryType::Arrow(a, c, b) => {
                let mut s = a.free_idx_vars();
                s.extend(c.free_idx_vars());
                s.extend(b.free_idx_vars());
                s
            }
            UnaryType::List(n, a) => {
                let mut s = n.free_vars();
                s.extend(a.free_idx_vars());
                s
            }
            UnaryType::Prod(a, b) => {
                let mut s = a.free_idx_vars();
                s.extend(b.free_idx_vars());
                s
            }
            UnaryType::Forall(i, _, a) | UnaryType::Exists(i, _, a) => {
                let mut s = a.free_idx_vars();
                s.remove(i);
                s
            }
            UnaryType::CAnd(c, a) | UnaryType::CImpl(c, a) => {
                let mut s = c.free_vars();
                s.extend(a.free_idx_vars());
                s
            }
        }
    }

    /// Structural size (number of constructors).
    pub fn size(&self) -> usize {
        match self {
            UnaryType::Unit | UnaryType::Bool | UnaryType::Int | UnaryType::TVar(_) => 1,
            UnaryType::Arrow(a, _, b) | UnaryType::Prod(a, b) => 1 + a.size() + b.size(),
            UnaryType::List(_, a)
            | UnaryType::Forall(_, _, a)
            | UnaryType::Exists(_, _, a)
            | UnaryType::CAnd(_, a)
            | UnaryType::CImpl(_, a) => 1 + a.size(),
        }
    }
}

/// A relational type `τ`, classifying a pair of expressions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RelType {
    /// `unitᵣ`: both runs produce the unit value.
    UnitR,
    /// `boolᵣ`: both runs produce the *same* boolean (the diagonal relation).
    BoolR,
    /// `intᵣ`: both runs produce the same integer.
    IntR,
    /// An opaque relational type variable.
    TVar(String),
    /// `τ₁ →^diff(t) τ₂`: related functions whose bodies' relative cost is at
    /// most `t`.
    Arrow(Arc<RelType>, Idx, Arc<RelType>),
    /// `list[n]^α τ`: two lists of length `n` differing pointwise in at most
    /// `α` positions.
    List {
        /// Common length `n`.
        len: Idx,
        /// Maximum number of differing positions `α`.
        diff: Idx,
        /// Element relation.
        elem: Arc<RelType>,
    },
    /// Products.
    Prod(Arc<RelType>, Arc<RelType>),
    /// `□ τ`: the two related values are equal (diagonal of `τ`).
    Boxed(Arc<RelType>),
    /// `U (A₁, A₂)`: any two expressions whose unary types are `A₁` and `A₂`.
    U(Arc<UnaryType>, Arc<UnaryType>),
    /// `∀ i :: S. τ`.
    Forall(IdxVar, Sort, Arc<RelType>),
    /// `∃ i :: S. τ`.
    Exists(IdxVar, Sort, Arc<RelType>),
    /// `C & τ`.
    CAnd(Constr, Arc<RelType>),
    /// `C ⊃ τ`.
    CImpl(Constr, Arc<RelType>),
}

impl RelType {
    /// `τ₁ →^diff(t) τ₂`.
    pub fn arrow(a: RelType, diff_cost: Idx, b: RelType) -> RelType {
        RelType::Arrow(Arc::new(a), diff_cost, Arc::new(b))
    }

    /// An arrow with zero relative cost (the only arrow available below
    /// RelCost).
    pub fn arrow0(a: RelType, b: RelType) -> RelType {
        RelType::arrow(a, Idx::zero(), b)
    }

    /// `list[n]^α τ`.
    pub fn list(len: Idx, diff: Idx, elem: RelType) -> RelType {
        RelType::List {
            len,
            diff,
            elem: Arc::new(elem),
        }
    }

    /// `□ τ`.
    pub fn boxed(t: RelType) -> RelType {
        RelType::Boxed(Arc::new(t))
    }

    /// `τ₁ × τ₂`.
    pub fn prod(a: RelType, b: RelType) -> RelType {
        RelType::Prod(Arc::new(a), Arc::new(b))
    }

    /// `U (A₁, A₂)`.
    pub fn u(a: UnaryType, b: UnaryType) -> RelType {
        RelType::U(Arc::new(a), Arc::new(b))
    }

    /// `U (A, A)` — the common case of relating two runs at the same unary type.
    pub fn u_same(a: UnaryType) -> RelType {
        RelType::u(a.clone(), a)
    }

    /// The relSTLC type `boolᵤ` of arbitrary (unrelated) boolean pairs,
    /// definable as `U (bool, bool)`.
    pub fn bool_u() -> RelType {
        RelType::u_same(UnaryType::Bool)
    }

    /// `∀ i :: S. τ`.
    pub fn forall(i: impl Into<IdxVar>, s: Sort, t: RelType) -> RelType {
        RelType::Forall(i.into(), s, Arc::new(t))
    }

    /// `∃ i :: S. τ`.
    pub fn exists(i: impl Into<IdxVar>, s: Sort, t: RelType) -> RelType {
        RelType::Exists(i.into(), s, Arc::new(t))
    }

    /// `C & τ`.
    pub fn cand(c: Constr, t: RelType) -> RelType {
        RelType::CAnd(c, Arc::new(t))
    }

    /// `C ⊃ τ`.
    pub fn cimpl(c: Constr, t: RelType) -> RelType {
        RelType::CImpl(c, Arc::new(t))
    }

    /// Capture-avoiding substitution of an index term for an index variable.
    /// Every part the substitution leaves unchanged is shared with `self`.
    pub fn subst_idx(&self, var: &IdxVar, replacement: &Idx) -> RelType {
        self.subst_idx_changed(var, replacement)
            .unwrap_or_else(|| self.clone())
    }

    /// [`RelType::subst_idx`], or `None` when it would return `self`.
    fn subst_idx_changed(&self, var: &IdxVar, replacement: &Idx) -> Option<RelType> {
        let ty = |t: &Arc<RelType>| t.subst_idx_changed(var, replacement).map(Arc::new);
        let unary = |a: &Arc<UnaryType>| a.subst_idx_changed(var, replacement).map(Arc::new);
        let idx = |i: &Idx| i.subst_changed(var, replacement);
        match self {
            RelType::UnitR | RelType::BoolR | RelType::IntR | RelType::TVar(_) => None,
            RelType::Arrow(a, t, b) => {
                let (na, nt, nb) = (ty(a), idx(t), ty(b));
                if na.is_none() && nt.is_none() && nb.is_none() {
                    return None;
                }
                Some(RelType::Arrow(
                    na.unwrap_or_else(|| Arc::clone(a)),
                    nt.unwrap_or_else(|| t.clone()),
                    nb.unwrap_or_else(|| Arc::clone(b)),
                ))
            }
            RelType::List { len, diff, elem } => {
                let (nl, nd, ne) = (idx(len), idx(diff), ty(elem));
                if nl.is_none() && nd.is_none() && ne.is_none() {
                    return None;
                }
                Some(RelType::List {
                    len: nl.unwrap_or_else(|| len.clone()),
                    diff: nd.unwrap_or_else(|| diff.clone()),
                    elem: ne.unwrap_or_else(|| Arc::clone(elem)),
                })
            }
            RelType::Prod(a, b) => {
                let (a, b) = either((ty(a), ty(b)), (a, b))?;
                Some(RelType::Prod(a, b))
            }
            RelType::Boxed(t) => Some(RelType::Boxed(ty(t)?)),
            RelType::U(a, b) => {
                let (a, b) = either((unary(a), unary(b)), (a, b))?;
                Some(RelType::U(a, b))
            }
            RelType::Forall(i, _, _) | RelType::Exists(i, _, _) if i == var => None,
            RelType::Forall(i, s, t) => Some(RelType::Forall(i.clone(), *s, ty(t)?)),
            RelType::Exists(i, s, t) => Some(RelType::Exists(i.clone(), *s, ty(t)?)),
            RelType::CAnd(c, t) => {
                let (c, t) = either((c.subst_changed(var, replacement), ty(t)), (c, t))?;
                Some(RelType::CAnd(c, t))
            }
            RelType::CImpl(c, t) => {
                let (c, t) = either((c.subst_changed(var, replacement), ty(t)), (c, t))?;
                Some(RelType::CImpl(c, t))
            }
        }
    }

    /// Free index variables of the type.
    pub fn free_idx_vars(&self) -> BTreeSet<IdxVar> {
        match self {
            RelType::UnitR | RelType::BoolR | RelType::IntR | RelType::TVar(_) => BTreeSet::new(),
            RelType::Arrow(a, t, b) => {
                let mut s = a.free_idx_vars();
                s.extend(t.free_vars());
                s.extend(b.free_idx_vars());
                s
            }
            RelType::List { len, diff, elem } => {
                let mut s = len.free_vars();
                s.extend(diff.free_vars());
                s.extend(elem.free_idx_vars());
                s
            }
            RelType::Prod(a, b) => {
                let mut s = a.free_idx_vars();
                s.extend(b.free_idx_vars());
                s
            }
            RelType::Boxed(t) => t.free_idx_vars(),
            RelType::U(a, b) => {
                let mut s = a.free_idx_vars();
                s.extend(b.free_idx_vars());
                s
            }
            RelType::Forall(i, _, t) | RelType::Exists(i, _, t) => {
                let mut s = t.free_idx_vars();
                s.remove(i);
                s
            }
            RelType::CAnd(c, t) | RelType::CImpl(c, t) => {
                let mut s = c.free_vars();
                s.extend(t.free_idx_vars());
                s
            }
        }
    }

    /// Structural size (number of constructors).
    pub fn size(&self) -> usize {
        match self {
            RelType::UnitR | RelType::BoolR | RelType::IntR | RelType::TVar(_) => 1,
            RelType::Arrow(a, _, b) | RelType::Prod(a, b) => 1 + a.size() + b.size(),
            RelType::List { elem, .. } => 1 + elem.size(),
            RelType::Boxed(t)
            | RelType::Forall(_, _, t)
            | RelType::Exists(_, _, t)
            | RelType::CAnd(_, t)
            | RelType::CImpl(_, t) => 1 + t.size(),
            RelType::U(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// The left (`i = 1`) or right (`i = 2`) unary projection `|τ|ᵢ` of the
    /// paper (§4): forgets relational refinements so the component can be
    /// typed by the unary system.
    ///
    /// # Panics
    ///
    /// Panics if `side` is not 1 or 2.
    pub fn project(&self, side: u8) -> UnaryType {
        assert!(side == 1 || side == 2, "projection side must be 1 or 2");
        match self {
            RelType::UnitR => UnaryType::Unit,
            RelType::BoolR => UnaryType::Bool,
            RelType::IntR => UnaryType::Int,
            RelType::TVar(s) => UnaryType::TVar(s.clone()),
            RelType::Arrow(a, _, b) => UnaryType::Arrow(
                Arc::new(a.project(side)),
                CostBounds::unbounded(),
                Arc::new(b.project(side)),
            ),
            RelType::List { len, elem, .. } => {
                UnaryType::List(len.clone(), Arc::new(elem.project(side)))
            }
            RelType::Prod(a, b) => {
                UnaryType::Prod(Arc::new(a.project(side)), Arc::new(b.project(side)))
            }
            RelType::Boxed(t) => t.project(side),
            RelType::U(a, b) => {
                if side == 1 {
                    (**a).clone()
                } else {
                    (**b).clone()
                }
            }
            RelType::Forall(i, s, t) => UnaryType::Forall(i.clone(), *s, Arc::new(t.project(side))),
            RelType::Exists(i, s, t) => UnaryType::Exists(i.clone(), *s, Arc::new(t.project(side))),
            RelType::CAnd(c, t) => UnaryType::CAnd(c.clone(), Arc::new(t.project(side))),
            RelType::CImpl(c, t) => UnaryType::CImpl(c.clone(), Arc::new(t.project(side))),
        }
    }

    /// Strips any outer `□` constructors.
    pub fn strip_boxes(&self) -> &RelType {
        match self {
            RelType::Boxed(t) => t.strip_boxes(),
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_list_type() -> RelType {
        RelType::list(Idx::var("n"), Idx::var("a"), RelType::IntR)
    }

    #[test]
    fn system_levels_are_ordered() {
        assert!(SystemLevel::RelCost.includes(SystemLevel::RelStlc));
        assert!(SystemLevel::RelRefU.includes(SystemLevel::RelRef));
        assert!(!SystemLevel::RelRef.includes(SystemLevel::RelRefU));
        assert!(SystemLevel::RelCost.tracks_cost());
        assert!(!SystemLevel::RelRefU.tracks_cost());
    }

    #[test]
    fn subst_idx_replaces_refinements() {
        let t = sample_list_type();
        let t2 = t.subst_idx(&IdxVar::new("n"), &Idx::nat(5));
        match t2 {
            RelType::List { len, diff, .. } => {
                assert_eq!(len, Idx::nat(5));
                assert_eq!(diff, Idx::var("a"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn subst_idx_respects_binders() {
        let t = RelType::forall("n", Sort::Nat, sample_list_type());
        let t2 = t.subst_idx(&IdxVar::new("n"), &Idx::nat(5));
        assert_eq!(t, t2);
        // But a different variable is substituted under the binder.
        let t3 = t.subst_idx(&IdxVar::new("a"), &Idx::nat(2));
        assert_ne!(t, t3);
    }

    #[test]
    fn free_idx_vars_of_quantified_types() {
        let t = RelType::forall("n", Sort::Nat, sample_list_type());
        let fv = t.free_idx_vars();
        assert!(fv.contains(&IdxVar::new("a")));
        assert!(!fv.contains(&IdxVar::new("n")));
    }

    #[test]
    fn projection_forgets_relational_refinements() {
        // |list[n]^α intr|₁ = list[n] int
        let t = sample_list_type();
        assert_eq!(t.project(1), UnaryType::list(Idx::var("n"), UnaryType::Int));
        // |U (bool, int)|₂ = int
        let t = RelType::u(UnaryType::Bool, UnaryType::Int);
        assert_eq!(t.project(1), UnaryType::Bool);
        assert_eq!(t.project(2), UnaryType::Int);
        // Boxes are transparent to projection.
        let t = RelType::boxed(RelType::BoolR);
        assert_eq!(t.project(2), UnaryType::Bool);
    }

    #[test]
    fn projection_of_arrows_forgets_costs() {
        let t = RelType::arrow(RelType::IntR, Idx::var("t"), RelType::IntR);
        match t.project(1) {
            UnaryType::Arrow(_, cost, _) => assert_eq!(cost, CostBounds::unbounded()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn strip_boxes_removes_all_outer_boxes() {
        let t = RelType::boxed(RelType::boxed(RelType::BoolR));
        assert_eq!(t.strip_boxes(), &RelType::BoolR);
    }

    #[test]
    fn bool_u_is_unrelated_booleans() {
        assert_eq!(
            RelType::bool_u(),
            RelType::u(UnaryType::Bool, UnaryType::Bool)
        );
    }

    #[test]
    fn sizes_count_constructors() {
        assert_eq!(RelType::BoolR.size(), 1);
        assert_eq!(sample_list_type().size(), 2);
        assert_eq!(RelType::arrow0(RelType::BoolR, RelType::BoolR).size(), 3);
    }
}
