//! BiRelCost: the bidirectional relational checker.
//!
//! This module implements the algorithmic relational judgments of §5–§6:
//!
//! * checking — `∆; ψₐ; Φₐ; Γ ⊢ e₁ ⊖ e₂ ↓ τ, t ⇒ Φ`
//! * inference — `∆; ψₐ; Φₐ; Γ ⊢ e₁ ⊖ e₂ ↑ τ ⇒ [ψ], t, Φ`
//!
//! working directly on the *surface* terms of RelCost (no `consC`/`consNC`,
//! `split`, `NC` or `switch` markers), resolving the nondeterminism of the
//! declarative system with the five heuristics of §6 (see
//! [`crate::heuristics::Heuristics`]).  The judgments emit constraints; the
//! engine hands them to the constraint pipeline of `rel-constraint`.

use std::sync::Arc;

use rel_constraint::{Constr, Quantified, Solver};
use rel_index::{Idx, Sort};
use rel_syntax::{Expr, RelType, UnaryType, Var};
use rel_unary::bidir::UnaryChecker;
use rel_unary::{CostModel, FreshVars, RelCtx, TypeError, UnaryCtx};

use crate::heuristics::Heuristics;
use crate::subtype::{push_box, rel_subtype};

/// Mutable state threaded through one checking run: the fresh-variable
/// generator and a solver instance used at the (few) heuristic decision
/// points that need to know whether a candidate derivation's constraints are
/// satisfiable before committing to it (heuristic 4).
#[derive(Debug, Default)]
pub struct Session {
    /// Generator for the existential variables `ψ`.
    pub fresh: FreshVars,
    /// Solver used for heuristic decisions during checking (the final
    /// constraint is still solved by the engine).
    pub solver: Solver,
}

impl Session {
    /// Creates a fresh session.
    pub fn new() -> Session {
        Session::default()
    }
}

/// The result of relational type inference.
#[derive(Debug, Clone)]
pub struct RelInference {
    /// The inferred relational type.
    pub ty: RelType,
    /// The inferred upper bound on the relative cost.
    pub cost: Idx,
    /// Constraints that must hold.
    pub constr: Constr,
    /// Existential variables introduced by the rules.
    pub existentials: Vec<Quantified>,
}

impl RelInference {
    fn value(ty: RelType) -> RelInference {
        RelInference {
            ty,
            cost: Idx::zero(),
            constr: Constr::Top,
            existentials: Vec::new(),
        }
    }
}

/// The bidirectional relational checker (BiRelCost).
#[derive(Debug, Clone, Default)]
pub struct RelChecker {
    /// Evaluation-cost constants (shared with the unary checker and the
    /// evaluator).
    pub cost_model: CostModel,
    /// The §6 heuristics configuration.
    pub heuristics: Heuristics,
}

impl RelChecker {
    /// Creates a checker with the standard cost model and all heuristics.
    pub fn new() -> RelChecker {
        RelChecker::default()
    }

    /// Creates a checker with an explicit heuristics configuration.
    pub fn with_heuristics(heuristics: Heuristics) -> RelChecker {
        RelChecker {
            cost_model: CostModel::standard(),
            heuristics,
        }
    }

    fn unary(&self) -> UnaryChecker {
        UnaryChecker::with_cost_model(self.cost_model)
    }

    // ==================================================================
    // Checking mode
    // ==================================================================

    /// Checks the pair `e₁ ⊖ e₂` against relational type `ty` and relative
    /// cost bound `cost`, returning the constraint that must hold.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] when no rule applies structurally.
    pub fn check(
        &self,
        sess: &mut Session,
        ctx: &RelCtx,
        e1: &Expr,
        e2: &Expr,
        ty: &RelType,
        cost: &Idx,
    ) -> Result<Constr, TypeError> {
        // ---- type-directed rules -------------------------------------
        match ty {
            RelType::CAnd(c, inner) => {
                let body = self.check(sess, ctx, e1, e2, inner, cost)?;
                return Ok(body.and(c.clone()));
            }
            RelType::CImpl(c, inner) => {
                let ctx = ctx.assume(c.clone());
                let body = self.check(sess, &ctx, e1, e2, inner, cost)?;
                return Ok(c.clone().implies(body));
            }
            RelType::Forall(i, s, inner) => {
                let (b1, b2) = match (e1, e2) {
                    (Expr::ILam(b1), Expr::ILam(b2)) => (b1.as_ref(), b2.as_ref()),
                    _ => (e1, e2),
                };
                let ctx = ctx.bind_idx(i.clone(), *s);
                let body = self.check(sess, &ctx, b1, b2, inner, cost)?;
                return Ok(Constr::forall(i.clone(), *s, body));
            }
            RelType::Exists(i, s, inner) => {
                if let (Expr::Pack(p1), Expr::Pack(p2)) = (e1, e2) {
                    let witness = sess.fresh.size("w");
                    let instantiated = inner.subst_idx(i, &Idx::Var(witness.clone()));
                    let body = self.check(sess, ctx, p1, p2, &instantiated, cost)?;
                    return Ok(Constr::exists(witness, *s, body));
                }
                // otherwise fall through to ↑↓ below
            }
            RelType::Boxed(inner) => {
                return self.check_boxed(sess, ctx, e1, e2, inner, ty, cost);
            }
            RelType::U(a1, a2)
                // Prefer the relational route when the two sides have the
                // same shape; switch to unary typing otherwise or when the
                // relational route is structurally impossible (heuristic 5).
                if self.heuristics.unary_fallback
                    && (e1.head_constructor() != e2.head_constructor()
                        || matches!(e1, Expr::Lam(_, _) | Expr::Fix(_, _, _) | Expr::If(_, _, _)))
                => {
                    if let Ok(c) = self.switch_check(sess, ctx, e1, e2, a1, a2, cost) {
                        return Ok(c);
                    }
                }
                // fall through: term-directed / ↑↓ handling below, with a
                // final unary fallback on structural failure.
            _ => {}
        }

        // ---- term-directed rules -------------------------------------
        let structural = self.check_structural(sess, ctx, e1, e2, ty, cost);
        match structural {
            Ok(c) => Ok(c),
            Err(err) => {
                // Heuristic 5(c): unary fallback when the relational rules do
                // not apply and the goal type embeds unary typing.
                if self.heuristics.unary_fallback {
                    if let RelType::U(a1, a2) = ty {
                        return self.switch_check(sess, ctx, e1, e2, a1, a2, cost);
                    }
                }
                Err(err)
            }
        }
    }

    /// The expression-directed checking rules (plus the ↑↓ fallback).
    #[allow(clippy::too_many_lines)]
    fn check_structural(
        &self,
        sess: &mut Session,
        ctx: &RelCtx,
        e1: &Expr,
        e2: &Expr,
        ty: &RelType,
        cost: &Idx,
    ) -> Result<Constr, TypeError> {
        match (e1, e2) {
            (Expr::Lam(x1, b1), Expr::Lam(x2, b2)) => {
                let (dom, te, cod) = expect_arrow(ty)?;
                self.check_binder(sess, ctx, (x1, b1), (x2, b2), &dom, &te, &cod, cost)
            }
            (Expr::Fix(f1, x1, b1), Expr::Fix(f2, x2, b2)) => {
                let (dom, te, cod) = expect_arrow(ty)?;
                if f1 != f2 {
                    return Err(TypeError::other(format!(
                        "related recursive functions must use the same name (`{f1}` vs `{f2}`)"
                    )));
                }
                let ctx = ctx.bind_var(f1.clone(), ty.clone());
                self.check_binder(sess, &ctx, (x1, b1), (x2, b2), &dom, &te, &cod, cost)
            }
            (Expr::Nil, Expr::Nil) => {
                let (n, _, _) = expect_list(ty)?;
                Ok(Constr::eq(n, Idx::zero()).and(Constr::leq(Idx::zero(), cost.clone())))
            }
            (Expr::Cons(h1, t1), Expr::Cons(h2, t2)) => {
                let (n, alpha, elem) = expect_list(ty)?;
                let mut paths = Vec::new();
                // consNC: the heads are equal (□τ) and the difference bound is
                // unchanged.
                {
                    let i = sess.fresh.size("i");
                    let th = sess.fresh.cost("th");
                    let tt = sess.fresh.cost("tt");
                    let boxed_elem = RelType::boxed(elem.clone());
                    if let (Ok(ch), Ok(ct)) = (
                        self.check(sess, ctx, h1, h2, &boxed_elem, &Idx::Var(th.clone())),
                        self.check(
                            sess,
                            ctx,
                            t1,
                            t2,
                            &RelType::list(Idx::Var(i.clone()), alpha.clone(), elem.clone()),
                            &Idx::Var(tt.clone()),
                        ),
                    ) {
                        let c = ch
                            .and(ct)
                            .and(Constr::eq(n.clone(), Idx::Var(i.clone()) + Idx::one()))
                            .and(Constr::leq(
                                Idx::Var(th.clone()) + Idx::Var(tt.clone()),
                                cost.clone(),
                            ));
                        paths.push(wrap_exists(
                            c,
                            [(i, Sort::Nat), (th, Sort::Real), (tt, Sort::Real)],
                        ));
                    }
                }
                // consC: the heads may differ and the difference bound drops
                // by one on the tail.
                if self.heuristics.both_cons_rules || paths.is_empty() {
                    let i = sess.fresh.size("i");
                    let beta = sess.fresh.size("b");
                    let th = sess.fresh.cost("th");
                    let tt = sess.fresh.cost("tt");
                    if let (Ok(ch), Ok(ct)) = (
                        self.check(sess, ctx, h1, h2, &elem, &Idx::Var(th.clone())),
                        self.check(
                            sess,
                            ctx,
                            t1,
                            t2,
                            &RelType::list(
                                Idx::Var(i.clone()),
                                Idx::Var(beta.clone()),
                                elem.clone(),
                            ),
                            &Idx::Var(tt.clone()),
                        ),
                    ) {
                        let c = ch
                            .and(ct)
                            .and(Constr::eq(n.clone(), Idx::Var(i.clone()) + Idx::one()))
                            .and(Constr::eq(
                                alpha.clone(),
                                Idx::Var(beta.clone()) + Idx::one(),
                            ))
                            .and(Constr::leq(
                                Idx::Var(th.clone()) + Idx::Var(tt.clone()),
                                cost.clone(),
                            ));
                        paths.push(wrap_exists(
                            c,
                            [
                                (i, Sort::Nat),
                                (beta, Sort::Nat),
                                (th, Sort::Real),
                                (tt, Sort::Real),
                            ],
                        ));
                    }
                }
                if paths.is_empty() {
                    Err(TypeError::other(
                        "neither cons rule applies to the constructed lists",
                    ))
                } else {
                    Ok(Constr::disj(paths))
                }
            }
            (Expr::Pair(a1, b1), Expr::Pair(a2, b2)) => {
                let (tl, tr) = match ty {
                    RelType::Prod(a, b) => ((**a).clone(), (**b).clone()),
                    _ => {
                        return Err(TypeError::CheckMismatch {
                            term: "pair".into(),
                            ty: rel_syntax::pretty::rel_type(ty),
                        })
                    }
                };
                let ta = sess.fresh.cost("tp");
                let tb = sess.fresh.cost("tq");
                let ca = self.check(sess, ctx, a1, a2, &tl, &Idx::Var(ta.clone()))?;
                let cb = self.check(sess, ctx, b1, b2, &tr, &Idx::Var(tb.clone()))?;
                let c = ca.and(cb).and(Constr::leq(
                    Idx::Var(ta.clone()) + Idx::Var(tb.clone()),
                    cost.clone(),
                ));
                Ok(wrap_exists(c, [(ta, Sort::Real), (tb, Sort::Real)]))
            }
            (Expr::If(c1, t1, f1), Expr::If(c2, t2, f2)) => {
                let scrut = self.infer(sess, ctx, c1, c2)?;
                if !is_diagonal_bool(&scrut.ty) {
                    return Err(TypeError::shape(
                        "a diagonal boolean (boolr) condition for relational if",
                        rel_syntax::pretty::rel_type(&scrut.ty),
                    ));
                }
                let budget = cost.clone() - scrut.cost.clone();
                let ct = self.check(sess, ctx, t1, t2, ty, &budget)?;
                let cf = self.check(sess, ctx, f1, f2, ty, &budget)?;
                Ok(wrap_exists(
                    scrut.constr.and(ct).and(cf),
                    scrut.existentials.into_iter().map(|q| (q.var, q.sort)),
                ))
            }
            (
                Expr::CaseList {
                    scrut: s1,
                    nil_branch: n1,
                    head: h1,
                    tail: tl1,
                    cons_branch: c1,
                },
                Expr::CaseList {
                    scrut: s2,
                    nil_branch: n2,
                    head: h2,
                    tail: tl2,
                    cons_branch: c2,
                },
            ) => {
                if h1 != h2 || tl1 != tl2 {
                    return Err(TypeError::other(
                        "related case branches must bind the same names",
                    ));
                }
                let scrut = self.infer(sess, ctx, s1, s2)?;
                let (n, alpha, elem) = expect_list(&expose(&scrut.ty))?;
                let budget = cost.clone() - scrut.cost.clone();
                // nil / nil branch under n = 0.
                let nil_ctx = ctx.assume(Constr::eq(n.clone(), Idx::zero()));
                let cnil = self.check(sess, &nil_ctx, n1, n2, ty, &budget)?;
                // cons branch, heads equal (□) — fresh universal i, same α.
                let i = sess.fresh.size("cu");
                let guard_nc = Constr::eq(n.clone(), Idx::Var(i.clone()) + Idx::one());
                let ctx_nc = ctx
                    .bind_idx(i.clone(), Sort::Nat)
                    .assume(guard_nc.clone())
                    .bind_var(h1.clone(), RelType::boxed(elem.clone()))
                    .bind_var(
                        tl1.clone(),
                        RelType::list(Idx::Var(i.clone()), alpha.clone(), elem.clone()),
                    );
                let cnc = self.check(sess, &ctx_nc, c1, c2, ty, &budget)?;
                // cons branch, heads may differ — fresh universals i, β with
                // α = β + 1.
                let i2 = sess.fresh.size("cu");
                let beta = sess.fresh.size("cb");
                let guard_c = Constr::eq(n.clone(), Idx::Var(i2.clone()) + Idx::one()).and(
                    Constr::eq(alpha.clone(), Idx::Var(beta.clone()) + Idx::one()),
                );
                let ctx_c = ctx
                    .bind_idx(i2.clone(), Sort::Nat)
                    .bind_idx(beta.clone(), Sort::Nat)
                    .assume(guard_c.clone())
                    .bind_var(h1.clone(), elem.clone())
                    .bind_var(
                        tl1.clone(),
                        RelType::list(Idx::Var(i2.clone()), Idx::Var(beta.clone()), elem.clone()),
                    );
                let cc = self.check(sess, &ctx_c, c1, c2, ty, &budget)?;
                let branches = Constr::eq(n.clone(), Idx::zero())
                    .implies(cnil)
                    .and(Constr::forall(i, Sort::Nat, guard_nc.implies(cnc)))
                    .and(Constr::forall(
                        i2,
                        Sort::Nat,
                        Constr::forall(beta, Sort::Nat, guard_c.implies(cc)),
                    ));
                Ok(wrap_exists(
                    scrut.constr.and(branches),
                    scrut.existentials.into_iter().map(|q| (q.var, q.sort)),
                ))
            }
            (Expr::Let(x1, b1, k1), Expr::Let(x2, b2, k2)) => {
                if x1 != x2 {
                    return Err(TypeError::other(
                        "related let bindings must bind the same name",
                    ));
                }
                let bound = self.infer(sess, ctx, b1, b2)?;
                let ctx = ctx.bind_var(x1.clone(), bound.ty.clone());
                let budget = cost.clone() - bound.cost.clone();
                let body = self.check(sess, &ctx, k1, k2, ty, &budget)?;
                Ok(wrap_exists(
                    bound.constr.and(body),
                    bound.existentials.into_iter().map(|q| (q.var, q.sort)),
                ))
            }
            (Expr::Unpack(p1, x1, k1), Expr::Unpack(p2, x2, k2)) => {
                if x1 != x2 {
                    return Err(TypeError::other("related unpacks must bind the same name"));
                }
                let packed = self.infer(sess, ctx, p1, p2)?;
                let (i, s, inner) = match expose(&packed.ty) {
                    RelType::Exists(i, s, inner) => (i, s, Arc::unwrap_or_clone(inner)),
                    other => {
                        return Err(TypeError::shape(
                            "an existential type for unpack",
                            rel_syntax::pretty::rel_type(&other),
                        ))
                    }
                };
                let skolem = sess.fresh.size("sk");
                let inner = inner.subst_idx(&i, &Idx::Var(skolem.clone()));
                let ctx = ctx.bind_idx(skolem.clone(), s).bind_var(x1.clone(), inner);
                let budget = cost.clone() - packed.cost.clone();
                let body = self.check(sess, &ctx, k1, k2, ty, &budget)?;
                Ok(wrap_exists(
                    packed.constr.and(Constr::forall(skolem, s, body)),
                    packed.existentials.into_iter().map(|q| (q.var, q.sort)),
                ))
            }
            (Expr::CLet(g1, x1, k1), Expr::CLet(g2, x2, k2)) => {
                if x1 != x2 {
                    return Err(TypeError::other("related clets must bind the same name"));
                }
                let guarded = self.infer(sess, ctx, g1, g2)?;
                let (cond, inner) = match expose(&guarded.ty) {
                    RelType::CAnd(c, inner) => (c, Arc::unwrap_or_clone(inner)),
                    other => {
                        return Err(TypeError::shape(
                            "a constrained type (C & τ) for clet",
                            rel_syntax::pretty::rel_type(&other),
                        ))
                    }
                };
                let ctx = ctx.assume(cond.clone()).bind_var(x1.clone(), inner);
                let budget = cost.clone() - guarded.cost.clone();
                let body = self.check(sess, &ctx, k1, k2, ty, &budget)?;
                Ok(wrap_exists(
                    guarded.constr.and(cond.implies(body)),
                    guarded.existentials.into_iter().map(|q| (q.var, q.sort)),
                ))
            }
            // Everything else: switch to inference mode (alg-r-↑↓).
            _ => {
                let inf = self.infer(sess, ctx, e1, e2)?;
                let sub = rel_subtype(&inf.ty, ty)?;
                let c = inf
                    .constr
                    .and(sub)
                    .and(Constr::leq(inf.cost.clone(), cost.clone()));
                Ok(wrap_exists(
                    c,
                    inf.existentials.into_iter().map(|q| (q.var, q.sort)),
                ))
            }
        }
    }

    /// Shared code of the λ/fix checking rules, including heuristic 2
    /// (split on the difference refinement of a list-typed argument).
    #[allow(clippy::too_many_arguments)]
    fn check_binder(
        &self,
        sess: &mut Session,
        ctx: &RelCtx,
        (x1, b1): (&Var, &Expr),
        (x2, b2): (&Var, &Expr),
        dom: &RelType,
        te: &Idx,
        cod: &RelType,
        cost: &Idx,
    ) -> Result<Constr, TypeError> {
        if x1 != x2 {
            return Err(TypeError::other(format!(
                "related functions must bind the same parameter name (`{x1}` vs `{x2}`)"
            )));
        }
        let ctx = ctx.bind_var(x1.clone(), dom.clone());
        let zero_le_cost = Constr::leq(Idx::zero(), cost.clone());

        // Heuristic 2: split on α ≐ 0 when the bound argument is a list whose
        // difference refinement is not already a literal constant.
        let split_alpha = match dom {
            RelType::List { diff, .. }
                if self.heuristics.split_on_list_argument && diff.as_const().is_none() =>
            {
                Some(diff.clone())
            }
            _ => None,
        };

        let body = match split_alpha {
            None => self.check(sess, &ctx, b1, b2, cod, te)?,
            Some(alpha) => {
                let zero_guard = Constr::eq(alpha.clone(), Idx::zero());
                let pos_guard = Constr::leq(Idx::one(), alpha.clone());
                // α ≐ 0 branch: try nochange first (heuristic 2 continued).
                let ctx0 = ctx.assume(zero_guard.clone());
                let zero_branch = if self.heuristics.nochange_first_when_equal {
                    match self.try_nochange(sess, &ctx0, b1, b2, cod, te) {
                        Some(c) => c,
                        None => self.check(sess, &ctx0, b1, b2, cod, te)?,
                    }
                } else {
                    self.check(sess, &ctx0, b1, b2, cod, te)?
                };
                // α ≥ 1 branch: ordinary structural checking.
                let ctx1 = ctx.assume(pos_guard.clone());
                let pos_branch = self.check(sess, &ctx1, b1, b2, cod, te)?;
                zero_guard
                    .implies(zero_branch)
                    .and(pos_guard.implies(pos_branch))
            }
        };
        Ok(body.and(zero_le_cost))
    }

    /// Checking against `□ τ`: the `nochange` rule, with the ↑↓ route as a
    /// fallback/alternative.
    #[allow(clippy::too_many_arguments)]
    fn check_boxed(
        &self,
        sess: &mut Session,
        ctx: &RelCtx,
        e1: &Expr,
        e2: &Expr,
        inner: &RelType,
        boxed_ty: &RelType,
        cost: &Idx,
    ) -> Result<Constr, TypeError> {
        let mut paths = Vec::new();
        if let Some(c) = self.try_nochange(sess, ctx, e1, e2, inner, cost) {
            paths.push(c);
        }
        // ↑↓: infer and subtype against the boxed type.
        if let Ok(inf) = self.infer(sess, ctx, e1, e2) {
            if let Ok(sub) = rel_subtype(&inf.ty, boxed_ty) {
                let c = inf
                    .constr
                    .and(sub)
                    .and(Constr::leq(inf.cost.clone(), cost.clone()));
                paths.push(wrap_exists(
                    c,
                    inf.existentials.into_iter().map(|q| (q.var, q.sort)),
                ));
            }
        }
        if paths.is_empty() {
            Err(TypeError::CheckMismatch {
                term: e1.head_constructor().into(),
                ty: rel_syntax::pretty::rel_type(boxed_ty),
            })
        } else {
            Ok(Constr::disj(paths))
        }
    }

    /// The `nochange` rule: `e` related to itself at `□ τ` with relative cost
    /// zero, provided every free variable's type is itself boxable.
    fn try_nochange(
        &self,
        sess: &mut Session,
        ctx: &RelCtx,
        e1: &Expr,
        e2: &Expr,
        inner: &RelType,
        cost: &Idx,
    ) -> Option<Constr> {
        if e1 != e2 {
            return None;
        }
        let mut var_constraints = Constr::Top;
        for x in e1.free_vars() {
            let ty = ctx.lookup(&x).ok()?;
            let c = rel_subtype(ty, &RelType::boxed(ty.clone())).ok()?;
            var_constraints = var_constraints.and(c);
        }
        let t_inner = sess.fresh.cost("nc");
        let body = self
            .check(sess, ctx, e1, e2, inner, &Idx::Var(t_inner.clone()))
            .ok()?;
        Some(
            var_constraints
                .and(Constr::leq(Idx::zero(), cost.clone()))
                .and(Constr::exists(t_inner, Sort::Real, body)),
        )
    }

    /// The `switch` rule in checking mode: type each side with the unary
    /// checker; the relative cost is bounded by `t₁ − k₂`.
    #[allow(clippy::too_many_arguments)]
    fn switch_check(
        &self,
        sess: &mut Session,
        ctx: &RelCtx,
        e1: &Expr,
        e2: &Expr,
        a1: &UnaryType,
        a2: &UnaryType,
        cost: &Idx,
    ) -> Result<Constr, TypeError> {
        let unary = self.unary();
        let t1 = sess.fresh.cost("sw");
        let k2 = sess.fresh.cost("sw");
        let left: UnaryCtx = ctx.project(1);
        let right: UnaryCtx = ctx.project(2);
        let c1 = unary.check(
            &mut sess.fresh,
            &left,
            e1,
            a1,
            &Idx::zero(),
            &Idx::Var(t1.clone()),
        )?;
        let c2 = unary.check(
            &mut sess.fresh,
            &right,
            e2,
            a2,
            &Idx::Var(k2.clone()),
            &Idx::infty(),
        )?;
        let c = c1.and(c2).and(Constr::leq(
            Idx::Var(t1.clone()) - Idx::Var(k2.clone()),
            cost.clone(),
        ));
        Ok(wrap_exists(c, [(t1, Sort::Real), (k2, Sort::Real)]))
    }

    // ==================================================================
    // Inference mode
    // ==================================================================

    /// Infers a relational type and relative-cost bound for the pair
    /// `e₁ ⊖ e₂`.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] for introduction forms without annotations and
    /// structurally dissimilar pairs.
    pub fn infer(
        &self,
        sess: &mut Session,
        ctx: &RelCtx,
        e1: &Expr,
        e2: &Expr,
    ) -> Result<RelInference, TypeError> {
        match (e1, e2) {
            (Expr::Var(x), Expr::Var(y)) if x == y => {
                Ok(RelInference::value(ctx.lookup(x)?.clone()))
            }
            (Expr::Unit, Expr::Unit) => Ok(RelInference::value(RelType::UnitR)),
            (Expr::Bool(a), Expr::Bool(b)) => Ok(RelInference::value(if a == b {
                RelType::BoolR
            } else {
                RelType::bool_u()
            })),
            (Expr::Int(a), Expr::Int(b)) => Ok(RelInference::value(if a == b {
                RelType::IntR
            } else {
                RelType::u_same(UnaryType::Int)
            })),
            (Expr::Prim(op1, args1), Expr::Prim(op2, args2))
                if op1 == op2 && args1.len() == args2.len() =>
            {
                let mut constr = Constr::Top;
                let mut existentials = Vec::new();
                let mut cost = Idx::zero();
                let mut all_diagonal = true;
                for (a1, a2) in args1.iter().zip(args2) {
                    let ia = self.infer(sess, ctx, a1, a2)?;
                    all_diagonal &= is_diagonal(&ia.ty);
                    constr = constr.and(ia.constr);
                    existentials.extend(ia.existentials);
                    cost = cost + ia.cost;
                }
                let ty = if all_diagonal {
                    if op1.returns_bool() {
                        RelType::BoolR
                    } else {
                        RelType::IntR
                    }
                } else if op1.returns_bool() {
                    RelType::bool_u()
                } else {
                    RelType::u_same(UnaryType::Int)
                };
                Ok(RelInference {
                    ty,
                    cost,
                    constr,
                    existentials,
                })
            }
            (Expr::Pair(a1, b1), Expr::Pair(a2, b2)) => {
                let ia = self.infer(sess, ctx, a1, a2)?;
                let ib = self.infer(sess, ctx, b1, b2)?;
                let mut existentials = ia.existentials;
                existentials.extend(ib.existentials);
                Ok(RelInference {
                    ty: RelType::prod(ia.ty, ib.ty),
                    cost: ia.cost + ib.cost,
                    constr: ia.constr.and(ib.constr),
                    existentials,
                })
            }
            (Expr::App(f1, a1), Expr::App(f2, a2)) => {
                let fun = self.infer(sess, ctx, f1, f2)?;
                self.infer_app(sess, ctx, fun, a1, a2)
            }
            (Expr::IApp(g1), Expr::IApp(g2)) => {
                let inner = self.infer(sess, ctx, g1, g2)?;
                let exposed = expose(&inner.ty);
                match exposed {
                    RelType::Forall(i, s, body) => {
                        let witness = sess.fresh.size("inst");
                        let ty = body.subst_idx(&i, &Idx::Var(witness.clone()));
                        let mut existentials = inner.existentials;
                        existentials.push(Quantified::new(witness, s));
                        Ok(RelInference {
                            ty,
                            cost: inner.cost,
                            constr: inner.constr,
                            existentials,
                        })
                    }
                    RelType::U(a1, a2) => {
                        // Instantiate both unary quantifiers with the same
                        // fresh witness.
                        match (Arc::unwrap_or_clone(a1), Arc::unwrap_or_clone(a2)) {
                            (UnaryType::Forall(i1, s1, b1), UnaryType::Forall(i2, _, b2)) => {
                                let witness = sess.fresh.size("inst");
                                let ty = RelType::u(
                                    b1.subst_idx(&i1, &Idx::Var(witness.clone())),
                                    b2.subst_idx(&i2, &Idx::Var(witness.clone())),
                                );
                                let mut existentials = inner.existentials;
                                existentials.push(Quantified::new(witness, s1));
                                Ok(RelInference {
                                    ty,
                                    cost: inner.cost,
                                    constr: inner.constr,
                                    existentials,
                                })
                            }
                            (a1, a2) => Err(TypeError::shape(
                                "universally quantified unary types for index application",
                                rel_syntax::pretty::rel_type(&RelType::u(a1, a2)),
                            )),
                        }
                    }
                    other => Err(TypeError::shape(
                        "a universally quantified type for index application",
                        rel_syntax::pretty::rel_type(&other),
                    )),
                }
            }
            (Expr::Fst(p1), Expr::Fst(p2)) | (Expr::Snd(p1), Expr::Snd(p2)) => {
                let inner = self.infer(sess, ctx, p1, p2)?;
                let (a, b) = match expose(&inner.ty) {
                    RelType::Prod(a, b) => (a, b),
                    other => {
                        return Err(TypeError::shape(
                            "a product type for projection",
                            rel_syntax::pretty::rel_type(&other),
                        ))
                    }
                };
                let ty = if matches!(e1, Expr::Fst(_)) {
                    Arc::unwrap_or_clone(a)
                } else {
                    Arc::unwrap_or_clone(b)
                };
                Ok(RelInference {
                    ty,
                    cost: inner.cost,
                    constr: inner.constr,
                    existentials: inner.existentials,
                })
            }
            (Expr::CElim(g1), Expr::CElim(g2)) => {
                let inner = self.infer(sess, ctx, g1, g2)?;
                match expose(&inner.ty) {
                    RelType::CImpl(cond, body) => Ok(RelInference {
                        ty: Arc::unwrap_or_clone(body),
                        cost: inner.cost,
                        constr: inner.constr.and(cond),
                        existentials: inner.existentials,
                    }),
                    other => Err(TypeError::shape(
                        "a conditional type (C ⊃ τ) for celim",
                        rel_syntax::pretty::rel_type(&other),
                    )),
                }
            }
            (Expr::Let(x1, b1, k1), Expr::Let(x2, b2, k2)) if x1 == x2 => {
                let bound = self.infer(sess, ctx, b1, b2)?;
                let ctx2 = ctx.bind_var(x1.clone(), bound.ty.clone());
                let body = self.infer(sess, &ctx2, k1, k2)?;
                let mut existentials = bound.existentials;
                existentials.extend(body.existentials);
                Ok(RelInference {
                    ty: body.ty,
                    cost: bound.cost + body.cost,
                    constr: bound.constr.and(body.constr),
                    existentials,
                })
            }
            (Expr::Anno(inner1, ty1, cost1), Expr::Anno(inner2, ty2, _)) => {
                if ty1 != ty2 {
                    return Err(TypeError::other(
                        "related annotated expressions must carry the same type annotation",
                    ));
                }
                let (cost, extra_ex) = match cost1 {
                    Some(c) => (c.clone(), None),
                    None => {
                        let t = sess.fresh.cost("an");
                        (Idx::Var(t.clone()), Some(t))
                    }
                };
                let c = self.check(sess, ctx, inner1, inner2, ty1, &cost)?;
                let mut existentials = Vec::new();
                if let Some(t) = extra_ex {
                    existentials.push(Quantified::new(t, Sort::Real));
                }
                Ok(RelInference {
                    ty: ty1.clone(),
                    cost,
                    constr: c,
                    existentials,
                })
            }
            _ => {
                if e1.head_constructor() != e2.head_constructor() {
                    Err(TypeError::StructurallyDissimilar {
                        left: e1.head_constructor().into(),
                        right: e2.head_constructor().into(),
                    })
                } else {
                    Err(TypeError::CannotInfer(format!(
                        "a pair of `{}` expressions",
                        e1.head_constructor()
                    )))
                }
            }
        }
    }

    /// Application inference, including heuristic 4 (lazy `□` elimination at
    /// the applied position) and the `U`-arrow conversion.
    fn infer_app(
        &self,
        sess: &mut Session,
        ctx: &RelCtx,
        fun: RelInference,
        a1: &Expr,
        a2: &Expr,
    ) -> Result<RelInference, TypeError> {
        let exposed = expose_keep_box_arrow(&fun.ty);
        // Candidate (domain, latent relative cost, codomain) triples, tried
        // in order (heuristic 4: box-preserving first).
        let mut candidates: Vec<(RelType, Idx, RelType)> = Vec::new();
        match &exposed {
            RelType::Boxed(inner) => match inner.as_ref() {
                RelType::Arrow(d, t, c) => {
                    if self.heuristics.lazy_box_elimination {
                        candidates.push((
                            RelType::boxed((**d).clone()),
                            Idx::zero(),
                            RelType::boxed((**c).clone()),
                        ));
                    }
                    candidates.push(((**d).clone(), t.clone(), (**c).clone()));
                }
                // `□τ ⊑ τ`: drop the box, then convert the unary arrows.
                RelType::U(ua, ub) => candidates.extend(u_arrow(ua, ub)),
                _ => {}
            },
            RelType::Arrow(d, t, c) => {
                candidates.push(((**d).clone(), t.clone(), (**c).clone()));
            }
            RelType::U(ua, ub) => candidates.extend(u_arrow(ua, ub)),
            _ => {}
        }
        if candidates.is_empty() {
            return Err(TypeError::shape(
                "a function type in application position",
                rel_syntax::pretty::rel_type(&fun.ty),
            ));
        }
        let multiple = candidates.len() > 1;
        // A value argument (a variable or `()` on both sides) is checked at
        // relative cost 0 instead of a fresh `ta`.  No solution is lost:
        // every rule that checks a value bounds its cost only from below, by
        // 0 (`0 ≤ ta` via ↑↓ and nochange; `t₁ − k₂ ≤ ta` with `t₁ ≥ 0 ≥ k₂`
        // via switch), and `ta` occurs elsewhere only as a summand of the
        // application's cost, an upper bound, where smaller is easier.  So
        // whenever some `ta` works, `ta := 0` does too.
        let value_arg = is_value(a1) && is_value(a2);
        let mut last_err = None;
        for (dom, te, cod) in candidates {
            let targ = (!value_arg).then(|| sess.fresh.cost("ta"));
            let arg_cost = targ.clone().map_or_else(Idx::zero, Idx::Var);
            match self.check(sess, ctx, a1, a2, &dom, &arg_cost) {
                Ok(carg) => {
                    let constr = fun.constr.clone().and(carg);
                    // When several candidates exist (the boxed-arrow case),
                    // commit to this one only if its constraints are
                    // satisfiable in the current context ("try to complete the
                    // typing", heuristic 4); otherwise fall through.
                    if multiple {
                        let closed = wrap_exists(
                            constr.clone(),
                            fun.existentials
                                .iter()
                                .map(|q| (q.var.clone(), q.sort))
                                .chain(targ.iter().map(|t| (t.clone(), Sort::Real))),
                        );
                        if !sess
                            .solver
                            .entails(&ctx.universals(), &ctx.assumptions, &closed)
                            .is_valid()
                        {
                            last_err = Some(TypeError::other(
                                "argument does not fit this elimination of the boxed function type",
                            ));
                            continue;
                        }
                    }
                    let mut existentials = fun.existentials.clone();
                    let cost = match targ {
                        Some(targ) => {
                            existentials.push(Quantified::new(targ.clone(), Sort::Real));
                            fun.cost.clone() + Idx::Var(targ) + te
                        }
                        None => fun.cost.clone() + te,
                    };
                    return Ok(RelInference {
                        ty: cod,
                        cost,
                        constr,
                        existentials,
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| TypeError::other("no applicable application rule")))
    }
}

// ----------------------------------------------------------------------
// Helpers
// ----------------------------------------------------------------------

/// Converts a pair of unary arrows into a relational arrow whose latent
/// relative cost is the exec-interval gap `c1.hi − c2.lo`.
fn u_arrow(ua: &UnaryType, ub: &UnaryType) -> Option<(RelType, Idx, RelType)> {
    match (ua, ub) {
        (UnaryType::Arrow(d1, c1, r1), UnaryType::Arrow(d2, c2, r2)) => Some((
            RelType::u((**d1).clone(), (**d2).clone()),
            c1.hi.clone() - c2.lo.clone(),
            RelType::u((**r1).clone(), (**r2).clone()),
        )),
        _ => None,
    }
}

fn expect_arrow(ty: &RelType) -> Result<(RelType, Idx, RelType), TypeError> {
    match ty {
        RelType::Arrow(a, t, b) => Ok(((**a).clone(), t.clone(), (**b).clone())),
        other => Err(TypeError::CheckMismatch {
            term: "function".into(),
            ty: rel_syntax::pretty::rel_type(other),
        }),
    }
}

fn expect_list(ty: &RelType) -> Result<(Idx, Idx, RelType), TypeError> {
    match ty {
        RelType::List { len, diff, elem } => Ok((len.clone(), diff.clone(), (**elem).clone())),
        other => Err(TypeError::CheckMismatch {
            term: "list".into(),
            ty: rel_syntax::pretty::rel_type(other),
        }),
    }
}

/// Pushes boxes inward until the head constructor is something an elimination
/// rule can dispatch on.
fn expose(ty: &RelType) -> RelType {
    let mut cur = ty.clone();
    for _ in 0..8 {
        match &cur {
            RelType::Boxed(_) => match push_box(&cur) {
                Some(next) => cur = next,
                None => match &cur {
                    RelType::Boxed(inner) => cur = (**inner).clone(),
                    _ => unreachable!("guarded by the outer match"),
                },
            },
            _ => break,
        }
    }
    cur
}

/// Like [`expose`] but keeps a `□(τ₁ → τ₂)` intact so the application rule
/// can apply heuristic 4 itself.
fn expose_keep_box_arrow(ty: &RelType) -> RelType {
    match ty {
        RelType::Boxed(inner) => match inner.as_ref() {
            RelType::Arrow(_, _, _) | RelType::U(_, _) => ty.clone(),
            _ => match push_box(ty) {
                Some(next) => expose_keep_box_arrow(&next),
                None => match ty {
                    RelType::Boxed(inner) => expose_keep_box_arrow(inner),
                    _ => ty.clone(),
                },
            },
        },
        RelType::U(a, b) => {
            // Strip matching boxes... U of arrows needs no exposure; leave as is.
            RelType::u((**a).clone(), (**b).clone())
        }
        _ => ty.clone(),
    }
}

/// A syntactic value the application rules check at cost 0: a variable or
/// `()`.
fn is_value(e: &Expr) -> bool {
    matches!(e, Expr::Var(_) | Expr::Unit)
}

fn is_diagonal(ty: &RelType) -> bool {
    matches!(
        ty,
        RelType::BoolR | RelType::IntR | RelType::UnitR | RelType::Boxed(_)
    )
}

fn is_diagonal_bool(ty: &RelType) -> bool {
    match ty {
        RelType::BoolR => true,
        RelType::Boxed(inner) => matches!(
            inner.as_ref(),
            RelType::BoolR | RelType::U(_, _) | RelType::TVar(_)
        ),
        _ => false,
    }
}

fn wrap_exists(c: Constr, vars: impl IntoIterator<Item = (rel_index::IdxVar, Sort)>) -> Constr {
    let mut out = c;
    for (v, s) in vars {
        out = Constr::exists(v, s, out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rel_syntax::{parse_expr, parse_rel_type};

    fn check_program(expr_src: &str, ty_src: &str) -> bool {
        let e = parse_expr(expr_src).unwrap();
        let ty = parse_rel_type(ty_src).unwrap();
        let checker = RelChecker::new();
        let mut sess = Session::new();
        let ctx = RelCtx::new();
        match checker.check(&mut sess, &ctx, &e, &e, &ty, &Idx::zero()) {
            Ok(c) => {
                let mut solver = Solver::new();
                solver
                    .entails(&ctx.universals(), &ctx.assumptions, &c)
                    .is_valid()
            }
            Err(_) => false,
        }
    }

    #[test]
    fn booleans_relate_diagonally() {
        assert!(check_program("true", "boolr"));
        assert!(check_program("true", "UU bool"));
        assert!(check_program("3", "intr"));
        assert!(!check_program("true", "intr"));
    }

    #[test]
    fn different_booleans_relate_only_at_bool_u() {
        let checker = RelChecker::new();
        let mut sess = Session::new();
        let ctx = RelCtx::new();
        let t = parse_expr("true").unwrap();
        let f = parse_expr("false").unwrap();
        let boolu = parse_rel_type("UU bool").unwrap();
        let c = checker
            .check(&mut sess, &ctx, &t, &f, &boolu, &Idx::zero())
            .unwrap();
        let mut solver = Solver::new();
        assert!(solver.entails(&[], &Constr::Top, &c).is_valid());
        // But not at boolr.
        let boolr = parse_rel_type("boolr").unwrap();
        let c = checker.check(&mut sess, &ctx, &t, &f, &boolr, &Idx::zero());
        if let Ok(c) = c {
            let mut solver = Solver::new();
            assert!(!solver.entails(&[], &Constr::Top, &c).is_valid());
        }
    }

    #[test]
    fn identity_function_checks_at_relational_arrow() {
        assert!(check_program("lam x. x", "boolr -> boolr"));
        assert!(check_program("lam x. x", "UU bool -> UU bool"));
    }

    #[test]
    fn constant_lists_check_with_exact_refinements() {
        assert!(check_program("cons(1, cons(2, nil))", "list[2; 0] intr"));
        assert!(check_program("cons(1, cons(2, nil))", "list[2; 2] intr"));
        assert!(!check_program("cons(1, cons(2, nil))", "list[3; 0] intr"));
    }

    #[test]
    fn the_map_example_checks_with_its_paper_type() {
        // map from §3/§5 of the paper, with the relative cost t·α.
        let src = "Lam. fix map(f). Lam. Lam. lam l. \
                   case l of nil -> nil | h :: tl -> cons(f h, map f [] [] tl)";
        let ty = "forall t :: real. box(tv a ->[t] tv b) -> \
                  forall n :: nat. forall al :: nat. \
                  list[n; al] tv a ->[t * al] list[n; al] tv b";
        assert!(check_program(src, ty));
    }

    #[test]
    fn map_with_an_unsound_cost_bound_is_rejected() {
        let src = "Lam. fix map(f). Lam. Lam. lam l. \
                   case l of nil -> nil | h :: tl -> cons(f h, map f [] [] tl)";
        // Claiming zero relative cost regardless of α is unsound.
        let ty = "forall t :: real. box(tv a ->[t] tv b) -> \
                  forall n :: nat. forall al :: nat. \
                  list[n; al] tv a ->[0] list[n; al] tv b";
        assert!(!check_program(src, ty));
    }

    #[test]
    fn boxed_functions_apply_with_zero_relative_cost() {
        // λf. λx. f x  :  □(intr →[t] intr) → □intr →[0] □intr
        let src = "lam f. lam x. f x";
        let ty = "forall t :: real. box(intr ->[t] intr) -> box intr -> box intr";
        assert!(check_program(src, ty));
    }

    #[test]
    fn boxed_unary_arrows_apply_with_their_exec_interval_gap() {
        // □U(int →[1,3] int, int →[1,3] int): the box is dropped (□τ ⊑ τ)
        // and the U-arrow conversion charges the gap 3 − 1 = 2.  The result
        // is diagonal, so the application must be inferred relationally
        // (a `U` result would let the checker switch to unary mode).
        let src = "lam f. lam x. let y = f x in 3";
        let ty = |cost: u32| format!("box(UU (int ->[1, 3] int)) -> UU int ->[{cost}] intr");
        assert!(check_program(src, &ty(2)));
        assert!(!check_program(src, &ty(1)));
    }

    /// Checks the pair `src ⊖ src` against `intr` at relative cost `cost`
    /// in a context binding `f : intr →[1] intr`, `g : unitr →[1] intr`
    /// and `x : intr`.  Returns whether the constraint is valid, and the
    /// names of the existentials it binds.
    fn check_app(src: &str, cost: u64) -> (bool, Vec<String>) {
        let ctx = RelCtx::new()
            .bind_var(Var::new("f"), parse_rel_type("intr ->[1] intr").unwrap())
            .bind_var(Var::new("g"), parse_rel_type("unitr ->[1] intr").unwrap())
            .bind_var(Var::new("x"), RelType::IntR);
        let e = parse_expr(src).unwrap();
        let c = RelChecker::new()
            .check(
                &mut Session::new(),
                &ctx,
                &e,
                &e,
                &RelType::IntR,
                &Idx::nat(cost),
            )
            .unwrap();
        let valid = Solver::new()
            .entails(&ctx.universals(), &ctx.assumptions, &c)
            .is_valid();
        let names = c
            .existential_vars()
            .into_iter()
            .map(|q| q.var.to_string())
            .collect();
        (valid, names)
    }

    #[test]
    fn value_arguments_are_checked_at_cost_zero() {
        // A variable or `()` argument gets no `%ta` existential; the same
        // argument behind an annotation (not a value) still does.  Both
        // check at the same verdicts: the arrow's cost 1 fits a budget of
        // 1 or more, and not 0.
        for (value, annotated) in [("f x", "f (x : intr)"), ("g ()", "g (() : unitr)")] {
            let (_, names) = check_app(value, 1);
            assert!(
                !names.iter().any(|n| n.starts_with("%ta")),
                "{value}: {names:?}"
            );
            let (_, names) = check_app(annotated, 1);
            assert!(
                names.iter().any(|n| n.starts_with("%ta")),
                "{annotated}: {names:?}"
            );
            for cost in 0..3 {
                let verdict = check_app(value, cost).0;
                assert_eq!(verdict, cost >= 1, "{value} at cost {cost}");
                assert_eq!(
                    verdict,
                    check_app(annotated, cost).0,
                    "{annotated} at cost {cost}"
                );
            }
        }
    }

    #[test]
    fn unary_switch_handles_structurally_dissimilar_programs() {
        let checker = RelChecker::new();
        let mut sess = Session::new();
        let ctx = RelCtx::new();
        // `1 + 2` vs `3`: different shapes, related at U(int,int) with
        // relative cost 1 (left costs one primitive step, right costs zero).
        let left = parse_expr("1 + 2").unwrap();
        let right = parse_expr("3").unwrap();
        let ty = parse_rel_type("UU int").unwrap();
        let c = checker
            .check(&mut sess, &ctx, &left, &right, &ty, &Idx::one())
            .unwrap();
        let mut solver = Solver::new();
        assert!(solver.entails(&[], &Constr::Top, &c).is_valid());
        // With a relative-cost budget of 0 the same pair must be rejected.
        let c = checker
            .check(&mut sess, &ctx, &left, &right, &ty, &Idx::zero())
            .unwrap();
        assert!(!solver.entails(&[], &Constr::Top, &c).is_valid());
    }
}
