//! The constraint language `Φ` / `C`.
//!
//! Constraints are first-order arithmetic formulas over index terms.  They
//! appear in three roles in the paper:
//!
//! * as *assumptions* `Φₐ` collected by rules such as `rr-caseL` and
//!   `rr-split`,
//! * inside types, as `C & τ` and `C ⊃ τ`,
//! * as the *output* of the bidirectional judgments, including the
//!   existential quantifications introduced for fresh size/cost variables.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use rel_index::{Extended, Idx, IdxEnv, IdxVar, Sort};

/// Cap on bounded existential search during numeric evaluation: witnesses in
/// practice are small, and nested existentials would otherwise make
/// evaluation exponential.  Shared with the bytecode evaluator of
/// [`crate::compile`] — the two evaluators must agree on it exactly.
pub const EXISTS_SEARCH_CAP: u64 = 8;

/// A quantified variable (existential or universal) with its sort.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Quantified {
    /// The bound variable.
    pub var: IdxVar,
    /// Its sort.
    pub sort: Sort,
}

impl Quantified {
    /// Creates a quantified-variable descriptor.
    pub fn new(var: impl Into<IdxVar>, sort: Sort) -> Quantified {
        Quantified {
            var: var.into(),
            sort,
        }
    }
}

/// A first-order arithmetic constraint over index terms.
///
/// Subconstraints sit behind [`Arc`] (index terms share theirs the same
/// way), so a clone copies at most the top-level conjunction vector, and
/// [`Constr::subst`]/[`Constr::subst_all`] hand back the input's own
/// allocation for every part they leave unchanged.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Constr {
    /// The trivially true constraint.
    Top,
    /// The trivially false constraint.
    Bot,
    /// Equality of index terms `I₁ = I₂`.
    Eq(Idx, Idx),
    /// Non-strict inequality `I₁ ≤ I₂`.
    Leq(Idx, Idx),
    /// Strict inequality `I₁ < I₂`.
    Lt(Idx, Idx),
    /// Conjunction.
    And(Vec<Constr>),
    /// Disjunction (used by heuristic 1: cons rules joined with ∨).
    Or(Vec<Constr>),
    /// Negation.
    Not(Arc<Constr>),
    /// Implication `Φ₁ → Φ₂` (e.g. from `alg-r-split↓`).
    Implies(Arc<Constr>, Arc<Constr>),
    /// Universal quantification over an index variable.
    Forall(Quantified, Arc<Constr>),
    /// Existential quantification over an algorithmically introduced variable.
    Exists(Quantified, Arc<Constr>),
}

// Constraints cross threads inside shared engines and caches: a swap to
// `Rc` must fail the build.
const _: () = {
    const fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<Constr>();
};

impl Constr {
    /// `I₁ = I₂`.
    pub fn eq(a: Idx, b: Idx) -> Constr {
        Constr::Eq(a, b)
    }

    /// `I₁ ≤ I₂`.
    pub fn leq(a: Idx, b: Idx) -> Constr {
        Constr::Leq(a, b)
    }

    /// `I₁ < I₂`.
    pub fn lt(a: Idx, b: Idx) -> Constr {
        Constr::Lt(a, b)
    }

    /// `I₁ ≥ I₂`.
    pub fn geq(a: Idx, b: Idx) -> Constr {
        Constr::Leq(b, a)
    }

    /// `I₁ > I₂`.
    pub fn gt(a: Idx, b: Idx) -> Constr {
        Constr::Lt(b, a)
    }

    /// Conjunction of two constraints, flattening nested conjunctions and
    /// dropping `Top` units.
    pub fn and(self, other: Constr) -> Constr {
        match (self, other) {
            (Constr::Top, c) | (c, Constr::Top) => c,
            (Constr::Bot, _) | (_, Constr::Bot) => Constr::Bot,
            (Constr::And(mut xs), Constr::And(ys)) => {
                xs.extend(ys);
                Constr::And(xs)
            }
            (Constr::And(mut xs), c) => {
                xs.push(c);
                Constr::And(xs)
            }
            (c, Constr::And(mut ys)) => {
                ys.insert(0, c);
                Constr::And(ys)
            }
            (a, b) => Constr::And(vec![a, b]),
        }
    }

    /// Conjunction of an iterator of constraints.
    pub fn conj(items: impl IntoIterator<Item = Constr>) -> Constr {
        items.into_iter().fold(Constr::Top, Constr::and)
    }

    /// Disjunction of two constraints, flattening and simplifying units.
    pub fn or(self, other: Constr) -> Constr {
        match (self, other) {
            (Constr::Bot, c) | (c, Constr::Bot) => c,
            (Constr::Top, _) | (_, Constr::Top) => Constr::Top,
            (Constr::Or(mut xs), Constr::Or(ys)) => {
                xs.extend(ys);
                Constr::Or(xs)
            }
            (Constr::Or(mut xs), c) => {
                xs.push(c);
                Constr::Or(xs)
            }
            (c, Constr::Or(mut ys)) => {
                ys.insert(0, c);
                Constr::Or(ys)
            }
            (a, b) => Constr::Or(vec![a, b]),
        }
    }

    /// Disjunction of an iterator of constraints.
    pub fn disj(items: impl IntoIterator<Item = Constr>) -> Constr {
        items.into_iter().fold(Constr::Bot, Constr::or)
    }

    /// Logical negation.
    pub fn negate(self) -> Constr {
        match self {
            Constr::Top => Constr::Bot,
            Constr::Bot => Constr::Top,
            Constr::Not(c) => Arc::unwrap_or_clone(c),
            Constr::Leq(a, b) => Constr::Lt(b, a),
            Constr::Lt(a, b) => Constr::Leq(b, a),
            c => Constr::Not(Arc::new(c)),
        }
    }

    /// Implication `self → other`, simplifying trivial cases.
    pub fn implies(self, other: Constr) -> Constr {
        match (self, other) {
            (Constr::Top, c) => c,
            (Constr::Bot, _) => Constr::Top,
            (_, Constr::Top) => Constr::Top,
            (a, b) => Constr::Implies(Arc::new(a), Arc::new(b)),
        }
    }

    /// Existential quantification `∃ var :: sort. self`, dropped when the
    /// variable does not occur.
    pub fn exists(var: impl Into<IdxVar>, sort: Sort, body: Constr) -> Constr {
        let var = var.into();
        if body.mentions(&var) {
            Constr::Exists(Quantified::new(var, sort), Arc::new(body))
        } else {
            body
        }
    }

    /// Universal quantification `∀ var :: sort. self`, dropped when the
    /// variable does not occur.
    pub fn forall(var: impl Into<IdxVar>, sort: Sort, body: Constr) -> Constr {
        let var = var.into();
        if body.mentions(&var) {
            Constr::Forall(Quantified::new(var, sort), Arc::new(body))
        } else {
            body
        }
    }

    /// Returns `true` if the constraint is syntactically `Top`.
    pub fn is_top(&self) -> bool {
        matches!(self, Constr::Top)
    }

    /// Returns `true` if the constraint is syntactically `Bot`.
    pub fn is_bot(&self) -> bool {
        matches!(self, Constr::Bot)
    }

    /// The set of free index variables.
    pub fn free_vars(&self) -> BTreeSet<IdxVar> {
        let mut acc = BTreeSet::new();
        self.collect_free_vars(&mut acc);
        acc
    }

    fn collect_free_vars(&self, acc: &mut BTreeSet<IdxVar>) {
        match self {
            Constr::Top | Constr::Bot => {}
            Constr::Eq(a, b) | Constr::Leq(a, b) | Constr::Lt(a, b) => {
                acc.extend(a.free_vars());
                acc.extend(b.free_vars());
            }
            Constr::And(cs) | Constr::Or(cs) => {
                for c in cs {
                    c.collect_free_vars(acc);
                }
            }
            Constr::Not(c) => c.collect_free_vars(acc),
            Constr::Implies(a, b) => {
                a.collect_free_vars(acc);
                b.collect_free_vars(acc);
            }
            Constr::Forall(q, c) | Constr::Exists(q, c) => {
                let mut inner = BTreeSet::new();
                c.collect_free_vars(&mut inner);
                inner.remove(&q.var);
                acc.extend(inner);
            }
        }
    }

    /// Returns `true` if the variable occurs free in the constraint.
    pub fn mentions(&self, v: &IdxVar) -> bool {
        match self {
            Constr::Top | Constr::Bot => false,
            Constr::Eq(a, b) | Constr::Leq(a, b) | Constr::Lt(a, b) => {
                a.mentions(v) || b.mentions(v)
            }
            Constr::And(cs) | Constr::Or(cs) => cs.iter().any(|c| c.mentions(v)),
            Constr::Not(c) => c.mentions(v),
            Constr::Implies(a, b) => a.mentions(v) || b.mentions(v),
            Constr::Forall(q, c) | Constr::Exists(q, c) => q.var != *v && c.mentions(v),
        }
    }

    /// Capture-avoiding substitution of an index term for a free variable.
    /// Every subterm the substitution leaves unchanged comes back as the
    /// input's own allocation.
    pub fn subst(&self, var: &IdxVar, replacement: &Idx) -> Constr {
        self.subst_changed(var, replacement)
            .unwrap_or_else(|| self.clone())
    }

    /// [`Constr::subst`], or `None` when it would return the input unchanged.
    pub fn subst_changed(&self, var: &IdxVar, replacement: &Idx) -> Option<Constr> {
        match self {
            Constr::Forall(q, _) | Constr::Exists(q, _) if q.var == *var => None,
            Constr::Forall(q, c) | Constr::Exists(q, c) if replacement.mentions(&q.var) => {
                let fresh = IdxVar::new(format!("{}'", q.var.name()));
                let renamed = c.subst(&q.var, &Idx::Var(fresh.clone()));
                let body = Arc::new(renamed.subst(var, replacement));
                let q = Quantified::new(fresh, q.sort);
                Some(match self {
                    Constr::Forall(..) => Constr::Forall(q, body),
                    _ => Constr::Exists(q, body),
                })
            }
            _ => self.map_parts(
                |i| i.subst_changed(var, replacement),
                |c| c.subst_changed(var, replacement),
            ),
        }
    }

    /// Simultaneous substitution of several variables in **one traversal**
    /// (existential elimination used to clone the whole matrix once per
    /// eliminated variable).  Same precondition as [`Idx::subst_all`]: no
    /// replacement may mention a substituted variable — validated once
    /// here, for the whole constraint, in debug builds.  Shares unchanged
    /// subterms like [`Constr::subst`].
    pub fn subst_all(&self, map: &std::collections::BTreeMap<IdxVar, Idx>) -> Constr {
        debug_assert!(
            map.values().all(|r| map.keys().all(|k| !r.mentions(k))),
            "subst_all replacements must not mention substituted variables"
        );
        if map.is_empty() {
            return self.clone();
        }
        self.subst_all_changed(map).unwrap_or_else(|| self.clone())
    }

    fn subst_all_changed(&self, map: &std::collections::BTreeMap<IdxVar, Idx>) -> Option<Constr> {
        match self {
            Constr::Forall(q, _) | Constr::Exists(q, _)
                if map.contains_key(&q.var) || map.values().any(|r| r.mentions(&q.var)) =>
            {
                // Shadowing or capture risk: defer to the capture-avoiding
                // single substitution, pairwise (equivalent under the
                // precondition).
                map.iter().fold(None, |acc: Option<Constr>, (v, i)| {
                    acc.as_ref().unwrap_or(self).subst_changed(v, i).or(acc)
                })
            }
            _ => self.map_parts(|i| i.subst_all_changed(map), |c| c.subst_all_changed(map)),
        }
    }

    /// Rebuilds the constraint with `term` applied to the index terms of its
    /// atoms and `sub` to its immediate subconstraints (under binders too),
    /// sharing every part for which they return `None`.  `None` when no part
    /// changed.
    fn map_parts(
        &self,
        mut term: impl FnMut(&Idx) -> Option<Idx>,
        mut sub: impl FnMut(&Constr) -> Option<Constr>,
    ) -> Option<Constr> {
        let mut atom = |a: &Idx, b: &Idx, node: fn(Idx, Idx) -> Constr| {
            let (na, nb) = (term(a), term(b));
            if na.is_none() && nb.is_none() {
                return None;
            }
            Some(node(
                na.unwrap_or_else(|| a.clone()),
                nb.unwrap_or_else(|| b.clone()),
            ))
        };
        let mut arc = |c: &Arc<Constr>| sub(c).map(Arc::new);
        match self {
            Constr::Top | Constr::Bot => None,
            Constr::Eq(a, b) => atom(a, b, Constr::Eq),
            Constr::Leq(a, b) => atom(a, b, Constr::Leq),
            Constr::Lt(a, b) => atom(a, b, Constr::Lt),
            Constr::And(cs) => map_vec(cs, sub).map(Constr::And),
            Constr::Or(cs) => map_vec(cs, sub).map(Constr::Or),
            Constr::Not(c) => arc(c).map(Constr::Not),
            Constr::Implies(a, b) => {
                let (na, nb) = (arc(a), arc(b));
                if na.is_none() && nb.is_none() {
                    return None;
                }
                Some(Constr::Implies(
                    na.unwrap_or_else(|| Arc::clone(a)),
                    nb.unwrap_or_else(|| Arc::clone(b)),
                ))
            }
            Constr::Forall(q, c) => arc(c).map(|c| Constr::Forall(q.clone(), c)),
            Constr::Exists(q, c) => arc(c).map(|c| Constr::Exists(q.clone(), c)),
        }
    }

    /// Evaluates the constraint to a boolean under a ground environment.
    ///
    /// Quantifiers are evaluated over the *bounded* domain `0..=bound`
    /// (naturals) or the same grid of integer-valued reals; this is exactly
    /// what the numeric layer of the solver needs and is never used to claim
    /// unbounded validity on its own.
    pub fn eval_bounded(&self, env: &IdxEnv, bound: u64) -> bool {
        match self {
            Constr::Top => true,
            Constr::Bot => false,
            Constr::Eq(a, b) => match (a.eval(env), b.eval(env)) {
                (Ok(x), Ok(y)) => x == y,
                _ => false,
            },
            Constr::Leq(a, b) => match (a.eval(env), b.eval(env)) {
                (Ok(x), Ok(y)) => x <= y,
                _ => false,
            },
            Constr::Lt(a, b) => match (a.eval(env), b.eval(env)) {
                (Ok(x), Ok(y)) => x < y,
                _ => false,
            },
            Constr::And(cs) => cs.iter().all(|c| c.eval_bounded(env, bound)),
            Constr::Or(cs) => cs.iter().any(|c| c.eval_bounded(env, bound)),
            Constr::Not(c) => !c.eval_bounded(env, bound),
            Constr::Implies(a, b) => !a.eval_bounded(env, bound) || b.eval_bounded(env, bound),
            Constr::Forall(q, c) => (0..=bound).all(|k| {
                let mut inner = env.clone();
                inner.bind(q.var.clone(), Extended::from(k));
                c.eval_bounded(&inner, bound)
            }),
            Constr::Exists(q, c) => {
                // Existential search is capped more tightly than universal
                // enumeration, see [`EXISTS_SEARCH_CAP`].
                let cap = bound.min(EXISTS_SEARCH_CAP);
                (0..=cap).any(|k| {
                    let mut inner = env.clone();
                    inner.bind(q.var.clone(), Extended::from(k));
                    c.eval_bounded(&inner, bound)
                })
            }
        }
    }

    /// The number of atomic comparisons in the constraint (a size measure
    /// reported by the engine's statistics).
    pub fn atom_count(&self) -> usize {
        match self {
            Constr::Top | Constr::Bot => 0,
            Constr::Eq(_, _) | Constr::Leq(_, _) | Constr::Lt(_, _) => 1,
            Constr::And(cs) | Constr::Or(cs) => cs.iter().map(Constr::atom_count).sum(),
            Constr::Not(c) => c.atom_count(),
            Constr::Implies(a, b) => a.atom_count() + b.atom_count(),
            Constr::Forall(_, c) | Constr::Exists(_, c) => c.atom_count(),
        }
    }

    /// Collects the existentially quantified variables appearing anywhere in
    /// the constraint (in prefix order).
    pub fn existential_vars(&self) -> Vec<Quantified> {
        let mut acc = Vec::new();
        self.collect_existentials(&mut acc);
        acc
    }

    fn collect_existentials(&self, acc: &mut Vec<Quantified>) {
        match self {
            Constr::Top | Constr::Bot | Constr::Eq(..) | Constr::Leq(..) | Constr::Lt(..) => {}
            Constr::And(cs) | Constr::Or(cs) => {
                for c in cs {
                    c.collect_existentials(acc);
                }
            }
            Constr::Not(c) => c.collect_existentials(acc),
            Constr::Implies(a, b) => {
                a.collect_existentials(acc);
                b.collect_existentials(acc);
            }
            Constr::Forall(_, c) => c.collect_existentials(acc),
            Constr::Exists(q, c) => {
                acc.push(q.clone());
                c.collect_existentials(acc);
            }
        }
    }
}

/// `f` applied to every element, or `None` when it changes none.
pub(crate) fn map_vec(
    cs: &[Constr],
    mut f: impl FnMut(&Constr) -> Option<Constr>,
) -> Option<Vec<Constr>> {
    let mut out: Option<Vec<Constr>> = None;
    for (k, c) in cs.iter().enumerate() {
        match (f(c), &mut out) {
            (new, Some(out)) => out.push(new.unwrap_or_else(|| c.clone())),
            (Some(new), None) => {
                let mut v = Vec::with_capacity(cs.len());
                v.extend_from_slice(&cs[..k]);
                v.push(new);
                out = Some(v);
            }
            (None, None) => {}
        }
    }
    out
}

impl Default for Constr {
    /// The default constraint is the trivially true `Top`.
    fn default() -> Self {
        Constr::Top
    }
}

impl fmt::Display for Constr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constr::Top => write!(f, "tt"),
            Constr::Bot => write!(f, "ff"),
            Constr::Eq(a, b) => write!(f, "{a} = {b}"),
            Constr::Leq(a, b) => write!(f, "{a} <= {b}"),
            Constr::Lt(a, b) => write!(f, "{a} < {b}"),
            Constr::And(cs) => {
                write!(f, "(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " and ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            Constr::Or(cs) => {
                write!(f, "(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " or ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            Constr::Not(c) => write!(f, "not ({c})"),
            Constr::Implies(a, b) => write!(f, "({a} -> {b})"),
            Constr::Forall(q, c) => write!(f, "(forall {} :: {}. {c})", q.var, q.sort),
            Constr::Exists(q, c) => write!(f, "(exists {} :: {}. {c})", q.var, q.sort),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn n(v: &str) -> Idx {
        Idx::var(v)
    }

    #[test]
    fn and_flattens_and_simplifies_units() {
        let c = Constr::Top
            .and(Constr::eq(n("a"), Idx::nat(1)))
            .and(Constr::leq(n("b"), Idx::nat(2)))
            .and(Constr::Top);
        assert_eq!(c.atom_count(), 2);
        assert!(matches!(c, Constr::And(ref v) if v.len() == 2));
        assert!(Constr::Top.and(Constr::Bot).is_bot());
    }

    #[test]
    fn or_simplifies_units() {
        assert!(Constr::Bot.or(Constr::Top).is_top());
        let c = Constr::eq(n("a"), Idx::nat(1)).or(Constr::Bot);
        assert_eq!(c, Constr::eq(n("a"), Idx::nat(1)));
    }

    #[test]
    fn negation_of_inequalities_flips_them() {
        assert_eq!(
            Constr::leq(n("a"), n("b")).negate(),
            Constr::lt(n("b"), n("a"))
        );
        assert_eq!(Constr::Top.negate(), Constr::Bot);
        let c = Constr::eq(n("a"), n("b"));
        assert_eq!(c.clone().negate().negate(), c);
    }

    #[test]
    fn exists_is_dropped_when_variable_unused() {
        let c = Constr::eq(n("a"), Idx::nat(1));
        assert_eq!(Constr::exists("z", Sort::Nat, c.clone()), c);
        let used = Constr::eq(n("z"), Idx::nat(1));
        assert!(matches!(
            Constr::exists("z", Sort::Nat, used),
            Constr::Exists(_, _)
        ));
    }

    #[test]
    fn free_vars_respect_binders() {
        let c = Constr::exists(
            "b",
            Sort::Nat,
            Constr::eq(n("b"), n("a") + Idx::nat(1)).and(Constr::leq(n("c"), n("b"))),
        );
        let fv = c.free_vars();
        assert!(fv.contains(&IdxVar::new("a")));
        assert!(fv.contains(&IdxVar::new("c")));
        assert!(!fv.contains(&IdxVar::new("b")));
    }

    #[test]
    fn subst_only_replaces_free_occurrences() {
        let c = Constr::exists("b", Sort::Nat, Constr::eq(n("b"), n("a")));
        let s = c.subst(&IdxVar::new("a"), &Idx::nat(7));
        assert_eq!(
            s,
            Constr::exists("b", Sort::Nat, Constr::eq(n("b"), Idx::nat(7)))
        );
        let shadowed = c.subst(&IdxVar::new("b"), &Idx::nat(7));
        assert_eq!(shadowed, c);
    }

    #[test]
    fn subst_all_handles_quantifier_shadowing_like_pairwise_subst() {
        let pairwise = |c: &Constr, map: &BTreeMap<IdxVar, Idx>| -> Constr {
            map.iter().fold(c.clone(), |acc, (v, i)| acc.subst(v, i))
        };
        let inner = Constr::exists(
            "b",
            Sort::Nat,
            Constr::eq(n("b"), n("a")).and(Constr::leq(n("c"), n("b"))),
        );
        let c = Constr::leq(n("c"), n("a")).and(inner.clone());
        // A binder of the same name as a substituted variable: its bound
        // occurrences stay untouched.
        let shadow: BTreeMap<IdxVar, Idx> = [
            (IdxVar::new("b"), Idx::nat(7)),
            (IdxVar::new("c"), Idx::one()),
        ]
        .into();
        let out = c.subst_all(&shadow);
        assert_eq!(out, pairwise(&c, &shadow));
        assert!(!out.mentions(&IdxVar::new("c")));
        // A replacement mentioning the bound variable: the binder is renamed
        // instead of capturing it.
        let capture: BTreeMap<IdxVar, Idx> = [(IdxVar::new("a"), n("b") + Idx::one())].into();
        let out = c.subst_all(&capture);
        assert_eq!(out, pairwise(&c, &capture));
        let out = inner.subst_all(&capture);
        assert_eq!(out, pairwise(&inner, &capture));
        assert!(out.free_vars().contains(&IdxVar::new("b")));
    }

    #[test]
    fn subst_all_shares_what_it_leaves_unchanged() {
        let hyp = Arc::new(Constr::lt(Idx::zero(), n("n")));
        let body = Constr::leq(n("n"), n("m") + Idx::one());
        let concl = Arc::new(Constr::forall("m", Sort::Nat, body));
        let c = Constr::Implies(Arc::clone(&hyp), Arc::clone(&concl));
        let absent: BTreeMap<IdxVar, Idx> = [(IdxVar::new("z"), Idx::nat(3))].into();
        let Constr::Implies(a, b) = &c.subst_all(&absent) else {
            panic!("subst_all changed the head");
        };
        assert!(Arc::ptr_eq(&hyp, a) && Arc::ptr_eq(&concl, b));
        // Substituting under the binder rebuilds that side only.
        let k_to_3: BTreeMap<IdxVar, Idx> = [(IdxVar::new("k"), Idx::nat(3))].into();
        let c = Constr::Implies(Arc::clone(&hyp), Arc::new(Constr::leq(n("n"), n("k"))));
        let Constr::Implies(a, b) = &c.subst_all(&k_to_3) else {
            panic!("subst_all changed the head");
        };
        assert!(Arc::ptr_eq(&hyp, a));
        assert_eq!(**b, Constr::leq(n("n"), Idx::nat(3)));
    }

    #[test]
    fn bounded_evaluation() {
        let env = IdxEnv::from_pairs([("n", Extended::from(5))]);
        let c = Constr::leq(n("n"), Idx::nat(10));
        assert!(c.eval_bounded(&env, 8));
        let c = Constr::forall("i", Sort::Nat, Constr::leq(n("i"), Idx::nat(8)));
        assert!(c.eval_bounded(&env, 8));
        let c = Constr::exists("i", Sort::Nat, Constr::eq(n("i"), Idx::nat(20)));
        assert!(!c.eval_bounded(&env, 8));
    }

    #[test]
    fn existential_vars_are_collected_in_prefix_order() {
        let c = Constr::exists(
            "x",
            Sort::Nat,
            Constr::eq(n("x"), Idx::nat(0)).and(Constr::exists(
                "y",
                Sort::Real,
                Constr::leq(n("y"), n("x")),
            )),
        );
        let vars: Vec<_> = c.existential_vars().into_iter().map(|q| q.var).collect();
        assert_eq!(vars, vec![IdxVar::new("x"), IdxVar::new("y")]);
    }

    #[test]
    fn display_round_trips_visually() {
        let c = Constr::eq(n("n"), Idx::nat(3)).and(Constr::lt(Idx::zero(), n("a")));
        assert_eq!(c.to_string(), "(n = 3 and 0 < a)");
    }
}
