//! The bidirectional unary checker.
//!
//! This is the unary half of BiRelCost: the algorithmic version of the DML-
//! style judgment `∆; Φₐ; Ω ⊢ᵗₖ e : A`.  As in the paper, the *checking* mode
//! takes the type and both cost bounds as inputs, while the *inference* mode
//! outputs the type, the cost bounds, and a set `ψ` of freshly generated
//! existential index variables that the constraint pipeline must instantiate.
//!
//! The mode of the effect mirrors the mode of the type (one of the summary
//! observations of §5): checking checks both, inference infers both.

use std::sync::Arc;

use rel_constraint::{Constr, Quantified};
use rel_index::{Idx, IdxVar, Sort};
use rel_syntax::{Expr, UnaryType};

use crate::cost_model::CostModel;
use crate::ctx::{FreshVars, UnaryCtx};
use crate::error::TypeError;
use crate::subtype::unary_subtype;

/// The result of unary type inference.
#[derive(Debug, Clone)]
pub struct UnaryInference {
    /// The inferred unary type.
    pub ty: UnaryType,
    /// Inferred lower bound on the evaluation cost.
    pub lo: Idx,
    /// Inferred upper bound on the evaluation cost.
    pub hi: Idx,
    /// Constraints that must hold for the inference to be valid.
    pub constr: Constr,
    /// Existential variables introduced by the rules (the set `ψ`).
    pub existentials: Vec<Quantified>,
}

impl UnaryInference {
    fn value(ty: UnaryType) -> UnaryInference {
        UnaryInference {
            ty,
            lo: Idx::zero(),
            hi: Idx::zero(),
            constr: Constr::Top,
            existentials: Vec::new(),
        }
    }
}

/// The bidirectional unary checker.
#[derive(Debug, Clone, Default)]
pub struct UnaryChecker {
    /// The cost model charged by elimination forms.
    pub cost_model: CostModel,
}

impl UnaryChecker {
    /// Creates a checker with the standard cost model.
    pub fn new() -> UnaryChecker {
        UnaryChecker::default()
    }

    /// Creates a checker with an explicit cost model.
    pub fn with_cost_model(cost_model: CostModel) -> UnaryChecker {
        UnaryChecker { cost_model }
    }

    // ------------------------------------------------------------------
    // Checking mode: ∆; ψ; Φₐ; Ω ⊢ e ↓ A, [k, t] ⇒ Φ
    // ------------------------------------------------------------------

    /// Checks `e` against type `ty` with cost bounds `[lo, hi]`, returning
    /// the constraint that must hold.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] when no typing rule applies structurally.
    pub fn check(
        &self,
        fresh: &mut FreshVars,
        ctx: &UnaryCtx,
        e: &Expr,
        ty: &UnaryType,
        lo: &Idx,
        hi: &Idx,
    ) -> Result<Constr, TypeError> {
        // Type-directed rules first: the type connectives that have no
        // corresponding term-level syntax (or whose syntax we auto-descend).
        match ty {
            UnaryType::Forall(i, s, body) => {
                let inner = match e {
                    Expr::ILam(b) => b.as_ref(),
                    _ => e,
                };
                let ctx = ctx.bind_idx(i.clone(), *s);
                // The body of an index abstraction is a value; its latent cost
                // is charged at instantiation sites.
                let c = self.check(fresh, &ctx, inner, body, &Idx::zero(), &Idx::zero())?;
                // Close the emitted constraint over the bound index variable so
                // callers can solve it in *their* context.
                return Ok(Constr::forall(i.clone(), *s, c)
                    .and(Constr::leq(lo.clone(), Idx::zero()))
                    .and(Constr::leq(Idx::zero(), hi.clone())));
            }
            UnaryType::Exists(i, s, body) => {
                if let Expr::Pack(inner) = e {
                    let witness = fresh.size("w");
                    let instantiated = body.subst_idx(i, &Idx::Var(witness.clone()));
                    let c = self.check(fresh, ctx, inner, &instantiated, lo, hi)?;
                    return Ok(Constr::exists(witness, *s, c));
                }
                // Fall through to ↑↓ below for non-pack expressions.
            }
            UnaryType::CAnd(cond, body) => {
                let c = self.check(fresh, ctx, e, body, lo, hi)?;
                return Ok(c.and(cond.clone()));
            }
            UnaryType::CImpl(cond, body) => {
                let ctx = ctx.assume(cond.clone());
                let c = self.check(fresh, &ctx, e, body, lo, hi)?;
                return Ok(cond.clone().implies(c));
            }
            _ => {}
        }

        match (e, ty) {
            (Expr::Lam(x, body), UnaryType::Arrow(a1, cost, a2)) => {
                let ctx = ctx.bind_var(x.clone(), (**a1).clone());
                let c = self.check(fresh, &ctx, body, a2, &cost.lo, &cost.hi)?;
                Ok(c.and(self.value_cost(lo, hi)))
            }
            (Expr::Fix(f, x, body), UnaryType::Arrow(a1, _, a2)) => {
                let ctx = ctx
                    .bind_var(f.clone(), ty.clone())
                    .bind_var(x.clone(), (**a1).clone());
                let cost = match ty {
                    UnaryType::Arrow(_, c, _) => c.clone(),
                    _ => unreachable!("matched an arrow above"),
                };
                let c = self.check(fresh, &ctx, body, a2, &cost.lo, &cost.hi)?;
                Ok(c.and(self.value_cost(lo, hi)))
            }
            (Expr::Nil, UnaryType::List(n, _)) => {
                Ok(Constr::eq(n.clone(), Idx::zero()).and(self.value_cost(lo, hi)))
            }
            (Expr::Cons(h, t), UnaryType::List(n, elem)) => {
                // The head gets an existential share of the upper budget; the
                // whole lower budget flows into the tail (sound, since costs
                // are non-negative).  This keeps the number of existentials
                // small while still letting lower bounds propagate through the
                // cons spine of recursive functions such as `merge`.
                let i = fresh.size("i");
                let th = fresh.cost("th");
                let ch = self.check(fresh, ctx, h, elem, &Idx::zero(), &Idx::Var(th.clone()))?;
                let tail_ty = UnaryType::List(Idx::Var(i.clone()), elem.clone());
                let ct = self.check(
                    fresh,
                    ctx,
                    t,
                    &tail_ty,
                    lo,
                    &(hi.clone() - Idx::Var(th.clone())),
                )?;
                let total = ch
                    .and(ct)
                    .and(Constr::eq(n.clone(), Idx::Var(i.clone()) + Idx::one()))
                    .and(Constr::leq(Idx::zero(), Idx::Var(th.clone())));
                Ok(wrap_existentials(total, [(i, Sort::Nat), (th, Sort::Real)]))
            }
            (Expr::Pair(a, b), UnaryType::Prod(ta, tb)) => {
                // Symmetrically to cons: the second component gets an
                // existential share of the upper budget, the lower budget
                // flows into the first component.
                let tbb = fresh.cost("tq");
                let ca =
                    self.check(fresh, ctx, a, ta, lo, &(hi.clone() - Idx::Var(tbb.clone())))?;
                let cb = self.check(fresh, ctx, b, tb, &Idx::zero(), &Idx::Var(tbb.clone()))?;
                let total = ca
                    .and(cb)
                    .and(Constr::leq(Idx::zero(), Idx::Var(tbb.clone())));
                Ok(wrap_existentials(total, [(tbb, Sort::Real)]))
            }
            (Expr::If(cond, then_branch, else_branch), _) => {
                let c = self.infer(fresh, ctx, cond)?;
                let step = self.cost_model.if_idx();
                let blo = lo.clone() - c.lo.clone() - step.clone();
                let bhi = hi.clone() - c.hi.clone() - step;
                let ct = self.check(fresh, ctx, then_branch, ty, &blo, &bhi)?;
                let ce = self.check(fresh, ctx, else_branch, ty, &blo, &bhi)?;
                Ok(wrap_existentials(
                    c.constr.and(ct).and(ce),
                    c.existentials.into_iter().map(|q| (q.var, q.sort)),
                ))
            }
            (
                Expr::CaseList {
                    scrut,
                    nil_branch,
                    head,
                    tail,
                    cons_branch,
                },
                _,
            ) => {
                let s = self.infer(fresh, ctx, scrut)?;
                let (n, elem) = match strip_quantifier_free(&s.ty) {
                    UnaryType::List(n, elem) => (n.clone(), elem.clone()),
                    other => {
                        return Err(TypeError::shape(
                            "a list type for the case scrutinee",
                            rel_syntax::pretty::unary_type(&other),
                        ))
                    }
                };
                let step = self.cost_model.case_idx();
                let blo = lo.clone() - s.lo.clone() - step.clone();
                let bhi = hi.clone() - s.hi.clone() - step;
                // nil branch under n = 0.
                let nil_ctx = ctx.assume(Constr::eq(n.clone(), Idx::zero()));
                let cnil = self.check(fresh, &nil_ctx, nil_branch, ty, &blo, &bhi)?;
                // cons branch under n = i + 1 for a fresh universal i.
                let i = fresh.size("cu");
                let guard = Constr::eq(n.clone(), Idx::Var(i.clone()) + Idx::one());
                let cons_ctx = ctx
                    .bind_idx(i.clone(), Sort::Nat)
                    .assume(guard.clone())
                    .bind_var(head.clone(), (*elem).clone())
                    .bind_var(
                        tail.clone(),
                        UnaryType::List(Idx::Var(i.clone()), elem.clone()),
                    );
                let ccons = self.check(fresh, &cons_ctx, cons_branch, ty, &blo, &bhi)?;
                let branches = Constr::eq(n.clone(), Idx::zero())
                    .implies(cnil)
                    .and(Constr::forall(i, Sort::Nat, guard.implies(ccons)));
                Ok(wrap_existentials(
                    s.constr.and(branches),
                    s.existentials.into_iter().map(|q| (q.var, q.sort)),
                ))
            }
            (Expr::Let(x, bound, body), _) => {
                let b = self.infer(fresh, ctx, bound)?;
                let step = self.cost_model.let_idx();
                let blo = lo.clone() - b.lo.clone() - step.clone();
                let bhi = hi.clone() - b.hi.clone() - step;
                let ctx = ctx.bind_var(x.clone(), b.ty.clone());
                let c = self.check(fresh, &ctx, body, ty, &blo, &bhi)?;
                Ok(wrap_existentials(
                    b.constr.and(c),
                    b.existentials.into_iter().map(|q| (q.var, q.sort)),
                ))
            }
            (Expr::Unpack(packed, x, body), _) => {
                let p = self.infer(fresh, ctx, packed)?;
                let (i, s, inner) = match strip_quantifier_free(&p.ty) {
                    UnaryType::Exists(i, s, inner) => (i, s, inner),
                    other => {
                        return Err(TypeError::shape(
                            "an existential type for unpack",
                            rel_syntax::pretty::unary_type(&other),
                        ))
                    }
                };
                let skolem = fresh.size("sk");
                let inner = inner.subst_idx(&i, &Idx::Var(skolem.clone()));
                let ctx = ctx.bind_idx(skolem.clone(), s).bind_var(x.clone(), inner);
                let blo = lo.clone() - p.lo.clone();
                let bhi = hi.clone() - p.hi.clone();
                let c = self.check(fresh, &ctx, body, ty, &blo, &bhi)?;
                Ok(wrap_existentials(
                    p.constr.and(Constr::forall(skolem, s, c)),
                    p.existentials.into_iter().map(|q| (q.var, q.sort)),
                ))
            }
            (Expr::CLet(guarded, x, body), _) => {
                let g = self.infer(fresh, ctx, guarded)?;
                let (cond, inner) = match strip_quantifier_free(&g.ty) {
                    UnaryType::CAnd(c, inner) => (c, inner),
                    other => {
                        return Err(TypeError::shape(
                            "a constrained type (C & A) for clet",
                            rel_syntax::pretty::unary_type(&other),
                        ))
                    }
                };
                let ctx = ctx
                    .assume(cond.clone())
                    .bind_var(x.clone(), (*inner).clone());
                let blo = lo.clone() - g.lo.clone();
                let bhi = hi.clone() - g.hi.clone();
                let c = self.check(fresh, &ctx, body, ty, &blo, &bhi)?;
                Ok(wrap_existentials(
                    g.constr.and(cond.implies(c)),
                    g.existentials.into_iter().map(|q| (q.var, q.sort)),
                ))
            }
            // Fallback: switch to inference mode and use subtyping (alg-↑↓).
            _ => {
                let inf = self.infer(fresh, ctx, e)?;
                let sub = unary_subtype(&inf.ty, ty)?;
                let total = inf
                    .constr
                    .and(sub)
                    .and(Constr::leq(lo.clone(), inf.lo.clone()))
                    .and(Constr::leq(inf.hi.clone(), hi.clone()));
                Ok(wrap_existentials(
                    total,
                    inf.existentials.into_iter().map(|q| (q.var, q.sort)),
                ))
            }
        }
    }

    // ------------------------------------------------------------------
    // Inference mode: ∆; ψ; Φₐ; Ω ⊢ e ↑ A ⇒ [ψ], k, t, Φ
    // ------------------------------------------------------------------

    /// Infers a type and cost bounds for `e`.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] for introduction forms without annotations and
    /// for structurally ill-formed eliminations.
    pub fn infer(
        &self,
        fresh: &mut FreshVars,
        ctx: &UnaryCtx,
        e: &Expr,
    ) -> Result<UnaryInference, TypeError> {
        match e {
            Expr::Var(x) => Ok(UnaryInference::value(ctx.lookup(x)?.clone())),
            Expr::Unit => Ok(UnaryInference::value(UnaryType::Unit)),
            Expr::Bool(_) => Ok(UnaryInference::value(UnaryType::Bool)),
            Expr::Int(_) => Ok(UnaryInference::value(UnaryType::Int)),
            Expr::Nil => Ok(UnaryInference::value(UnaryType::List(
                Idx::zero(),
                Arc::new(UnaryType::Int),
            ))),
            Expr::Prim(op, args) => {
                let mut constr = Constr::Top;
                let mut existentials = Vec::new();
                let mut lo = self.cost_model.prim_idx();
                let mut hi = self.cost_model.prim_idx();
                for a in args {
                    let ia = self.infer(fresh, ctx, a)?;
                    constr = constr.and(ia.constr);
                    existentials.extend(ia.existentials);
                    lo = lo + ia.lo;
                    hi = hi + ia.hi;
                }
                let ty = if op.returns_bool() {
                    UnaryType::Bool
                } else {
                    UnaryType::Int
                };
                Ok(UnaryInference {
                    ty,
                    lo,
                    hi,
                    constr,
                    existentials,
                })
            }
            Expr::App(f, a) => {
                let fi = self.infer(fresh, ctx, f)?;
                let (a1, cost, a2) = match strip_quantifier_free(&fi.ty) {
                    UnaryType::Arrow(a1, cost, a2) => (a1, cost, a2),
                    other => {
                        return Err(TypeError::shape(
                            "a function type",
                            rel_syntax::pretty::unary_type(&other),
                        ))
                    }
                };
                let step = self.cost_model.app_idx();
                let mut existentials = fi.existentials;
                let mut lo = fi.lo;
                let mut hi = fi.hi;
                let ca = if matches!(**a, Expr::Var(_) | Expr::Unit) {
                    // A value argument costs exactly 0, so it is checked at
                    // `ka = ta = 0` with no `∃`.  No solution is lost: the
                    // check bounds `ka` above and `ta` below by the value's
                    // cost 0 (`ka ≤ 0 ≤ ta`), and they occur elsewhere only
                    // as summands of the application's lower and upper
                    // bounds, where a larger `ka` and a smaller `ta` are
                    // easier.  So whenever some `ka`, `ta` work, 0 does too.
                    self.check(fresh, ctx, a, &a1, &Idx::zero(), &Idx::zero())?
                } else {
                    let (ka, ta) = (fresh.cost("ka"), fresh.cost("ta"));
                    let ca = self.check(
                        fresh,
                        ctx,
                        a,
                        &a1,
                        &Idx::Var(ka.clone()),
                        &Idx::Var(ta.clone()),
                    )?;
                    lo = lo + Idx::Var(ka.clone());
                    hi = hi + Idx::Var(ta.clone());
                    existentials.push(Quantified::new(ka, Sort::Real));
                    existentials.push(Quantified::new(ta, Sort::Real));
                    ca
                };
                Ok(UnaryInference {
                    ty: (*a2).clone(),
                    lo: lo + cost.lo.clone() + step.clone(),
                    hi: hi + cost.hi.clone() + step,
                    constr: fi.constr.and(ca),
                    existentials,
                })
            }
            Expr::IApp(inner) => {
                let ii = self.infer(fresh, ctx, inner)?;
                match strip_quantifier_free(&ii.ty) {
                    UnaryType::Forall(i, s, body) => {
                        let witness = fresh.size("inst");
                        let ty = body.subst_idx(&i, &Idx::Var(witness.clone()));
                        let mut existentials = ii.existentials;
                        existentials.push(Quantified::new(witness, s));
                        Ok(UnaryInference {
                            ty,
                            lo: ii.lo,
                            hi: ii.hi,
                            constr: ii.constr,
                            existentials,
                        })
                    }
                    other => Err(TypeError::shape(
                        "a universally quantified type",
                        rel_syntax::pretty::unary_type(&other),
                    )),
                }
            }
            Expr::Fst(inner) | Expr::Snd(inner) => {
                let ii = self.infer(fresh, ctx, inner)?;
                let (a, b) = match strip_quantifier_free(&ii.ty) {
                    UnaryType::Prod(a, b) => (a, b),
                    other => {
                        return Err(TypeError::shape(
                            "a product type",
                            rel_syntax::pretty::unary_type(&other),
                        ))
                    }
                };
                let ty = if matches!(e, Expr::Fst(_)) {
                    Arc::unwrap_or_clone(a)
                } else {
                    Arc::unwrap_or_clone(b)
                };
                let step = self.cost_model.proj_idx();
                Ok(UnaryInference {
                    ty,
                    lo: ii.lo + step.clone(),
                    hi: ii.hi + step,
                    constr: ii.constr,
                    existentials: ii.existentials,
                })
            }
            Expr::CElim(inner) => {
                let ii = self.infer(fresh, ctx, inner)?;
                match strip_quantifier_free(&ii.ty) {
                    UnaryType::CImpl(cond, body) => Ok(UnaryInference {
                        ty: Arc::unwrap_or_clone(body),
                        lo: ii.lo,
                        hi: ii.hi,
                        constr: ii.constr.and(cond),
                        existentials: ii.existentials,
                    }),
                    other => Err(TypeError::shape(
                        "a conditional type (C => A) for celim",
                        rel_syntax::pretty::unary_type(&other),
                    )),
                }
            }
            Expr::Let(x, bound, body) => {
                let b = self.infer(fresh, ctx, bound)?;
                let ctx2 = ctx.bind_var(x.clone(), b.ty.clone());
                let i = self.infer(fresh, &ctx2, body)?;
                let step = self.cost_model.let_idx();
                let mut existentials = b.existentials;
                existentials.extend(i.existentials);
                Ok(UnaryInference {
                    ty: i.ty,
                    lo: b.lo + i.lo + step.clone(),
                    hi: b.hi + i.hi + step,
                    constr: b.constr.and(i.constr),
                    existentials,
                })
            }
            Expr::Anno(inner, rel_ty, _) => {
                let ty = rel_ty.project(ctx.side);
                let (k, t) = (fresh.cost("ak"), fresh.cost("at"));
                let c = self.check(
                    fresh,
                    ctx,
                    inner,
                    &ty,
                    &Idx::Var(k.clone()),
                    &Idx::Var(t.clone()),
                )?;
                Ok(UnaryInference {
                    ty,
                    lo: Idx::Var(k.clone()),
                    hi: Idx::Var(t.clone()),
                    constr: c,
                    existentials: vec![
                        Quantified::new(k, Sort::Real),
                        Quantified::new(t, Sort::Real),
                    ],
                })
            }
            Expr::Lam(_, _) | Expr::Fix(_, _, _) | Expr::ILam(_) | Expr::Pack(_) => Err(
                TypeError::CannotInfer(format!("the {} introduction form", e.head_constructor())),
            ),
            other => Err(TypeError::CannotInfer(format!(
                "a `{}` expression in unary inference mode",
                other.head_constructor()
            ))),
        }
    }

    /// The cost constraint of a value: `lo ≤ 0 ∧ 0 ≤ hi`.
    fn value_cost(&self, lo: &Idx, hi: &Idx) -> Constr {
        Constr::leq(lo.clone(), Idx::zero()).and(Constr::leq(Idx::zero(), hi.clone()))
    }
}

/// Strips `CAnd`/`CImpl` wrappers that merely decorate an inferred type when
/// looking for a structural head (the constraints are re-imposed by the
/// callers where needed).
fn strip_quantifier_free(ty: &UnaryType) -> UnaryType {
    match ty {
        UnaryType::CAnd(_, inner) => strip_quantifier_free(inner),
        other => other.clone(),
    }
}

/// Wraps a constraint in existential quantifiers for the given variables.
pub(crate) fn wrap_existentials(
    c: Constr,
    vars: impl IntoIterator<Item = (IdxVar, Sort)>,
) -> Constr {
    let mut out = c;
    for (v, s) in vars {
        out = Constr::exists(v, s, out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rel_constraint::Solver;
    use rel_syntax::{parse_expr, CostBounds, Var};

    fn solve(ctx: &UnaryCtx, c: &Constr) -> bool {
        let mut s = Solver::new();
        s.entails(&ctx.universals(), &ctx.assumptions, c).is_valid()
    }

    fn check_ok(src: &str, ty: UnaryType, lo: u64, hi: u64) -> bool {
        let e = parse_expr(src).unwrap();
        let checker = UnaryChecker::new();
        let mut fresh = FreshVars::new();
        let ctx = UnaryCtx::new();
        match checker.check(&mut fresh, &ctx, &e, &ty, &Idx::nat(lo), &Idx::nat(hi)) {
            Ok(c) => solve(&ctx, &c),
            Err(_) => false,
        }
    }

    #[test]
    fn literals_are_values() {
        assert!(check_ok("3", UnaryType::Int, 0, 0));
        assert!(check_ok("true", UnaryType::Bool, 0, 0));
        assert!(check_ok("()", UnaryType::Unit, 0, 5));
        // A literal cannot have a positive lower bound.
        assert!(!check_ok("3", UnaryType::Int, 1, 5));
    }

    #[test]
    fn primitive_operations_cost_one_each() {
        // 1 + 2 costs exactly one primitive step.
        assert!(check_ok("1 + 2", UnaryType::Int, 1, 1));
        assert!(!check_ok("1 + 2", UnaryType::Int, 2, 2));
        // Nested: (1 + 2) + 3 costs two.
        assert!(check_ok("(1 + 2) + 3", UnaryType::Int, 2, 2));
    }

    #[test]
    fn lambdas_check_against_arrow_types_with_exec_bounds() {
        // λx. x + 1 : int →[1,1] int
        let ty = UnaryType::arrow(
            UnaryType::Int,
            CostBounds::new(Idx::one(), Idx::one()),
            UnaryType::Int,
        );
        assert!(check_ok("lam x. x + 1", ty.clone(), 0, 0));
        // With too-tight bounds the constraint fails.
        let bad = UnaryType::arrow(
            UnaryType::Int,
            CostBounds::new(Idx::zero(), Idx::zero()),
            UnaryType::Int,
        );
        assert!(!check_ok("lam x. x + 1", bad, 0, 0));
    }

    #[test]
    fn application_charges_the_arrow_cost() {
        // (λx. x + 1) 2 : one app + one prim = 2.
        let src = "(lam x. x + 1 : UU (int ->[1, 1] int)) 2";
        assert!(check_ok(src, UnaryType::Int, 2, 2));
        assert!(!check_ok(src, UnaryType::Int, 3, 3));
    }

    /// Checks `src` against `int` with exec bounds `[lo, hi]` in a context
    /// binding `f : int →[1, 2] int`, `g : unit →[1, 2] int` and `x : int`.
    /// Returns whether the constraint is valid, and the names of the
    /// existentials it binds.
    fn check_app(src: &str, lo: u64, hi: u64) -> (bool, Vec<String>) {
        let arrow = |dom| {
            UnaryType::arrow(
                dom,
                CostBounds::new(Idx::one(), Idx::nat(2)),
                UnaryType::Int,
            )
        };
        let ctx = UnaryCtx::new()
            .bind_var(Var::new("f"), arrow(UnaryType::Int))
            .bind_var(Var::new("g"), arrow(UnaryType::Unit))
            .bind_var(Var::new("x"), UnaryType::Int);
        let e = parse_expr(src).unwrap();
        let c = UnaryChecker::new()
            .check(
                &mut FreshVars::new(),
                &ctx,
                &e,
                &UnaryType::Int,
                &Idx::nat(lo),
                &Idx::nat(hi),
            )
            .unwrap();
        let names = c
            .existential_vars()
            .into_iter()
            .map(|q| q.var.to_string())
            .collect();
        (solve(&ctx, &c), names)
    }

    #[test]
    fn value_arguments_are_checked_at_cost_zero() {
        // A variable or `()` argument gets no `%ka`/`%ta` existential; the
        // same argument behind an annotation (not a value) still does.  Both
        // check at the same verdicts: one app step plus the arrow's [1, 2]
        // cost exactly fit [2, 3].
        for (value, annotated) in [("f x", "f (x : UU int)"), ("g ()", "g (() : UU unit)")] {
            let (_, names) = check_app(value, 2, 3);
            assert!(
                !names
                    .iter()
                    .any(|n| n.starts_with("%ka") || n.starts_with("%ta")),
                "{value}: {names:?}"
            );
            let (_, names) = check_app(annotated, 2, 3);
            assert!(
                names.iter().any(|n| n.starts_with("%ka")),
                "{annotated}: {names:?}"
            );
            for (lo, hi) in [(2, 3), (0, 5), (3, 3), (2, 2)] {
                let verdict = check_app(value, lo, hi).0;
                assert_eq!(verdict, lo <= 2 && hi >= 3, "{value} at [{lo}, {hi}]");
                assert_eq!(
                    verdict,
                    check_app(annotated, lo, hi).0,
                    "{annotated} at [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn lists_track_their_length() {
        let ty = UnaryType::list(Idx::nat(2), UnaryType::Int);
        assert!(check_ok("cons(1, cons(2, nil))", ty.clone(), 0, 0));
        let wrong = UnaryType::list(Idx::nat(3), UnaryType::Int);
        assert!(!check_ok("cons(1, cons(2, nil))", wrong, 0, 0));
    }

    #[test]
    fn case_analysis_is_exhaustive_over_lengths() {
        // λl. case l of nil → 0 | h :: tl → h   at   list[n] int →[?] int
        // costs exactly one case step.
        let n = Idx::var("n");
        let ty = UnaryType::forall(
            "n",
            Sort::Nat,
            UnaryType::arrow(
                UnaryType::list(n, UnaryType::Int),
                CostBounds::new(Idx::one(), Idx::one()),
                UnaryType::Int,
            ),
        );
        assert!(check_ok(
            "Lam. lam l. case l of nil -> 0 | h :: tl -> h",
            ty,
            0,
            0
        ));
    }

    #[test]
    fn fixpoints_check_recursive_list_functions() {
        // length : ∀n. list[n] int →[n+1 steps?] int  — each element costs one
        // case + one app + one prim; bound it loosely by 3n + 1.
        let n = Idx::var("n");
        let ty = UnaryType::forall(
            "n",
            Sort::Nat,
            UnaryType::arrow(
                UnaryType::list(n.clone(), UnaryType::Int),
                CostBounds::new(Idx::zero(), Idx::nat(3) * n + Idx::one()),
                UnaryType::Int,
            ),
        );
        let src = "Lam. fix len(l). case l of nil -> 0 | h :: tl -> 1 + len tl";
        // The recursive call instantiates the Forall implicitly?  No: `len`
        // is bound at the arrow type inside the Forall, so the recursion is
        // monomorphic in n — this is exactly how the paper's examples are
        // structured (the quantifier is outside the fix).
        // However the tail has length i with n = i + 1, so checking the
        // recursive call against list[?] relies on the arrow's domain index n,
        // which no longer matches.  The example therefore quantifies inside:
        // we instead write the standard DML-style `fix len(l)` under `Lam`,
        // where the recursive occurrence is used at the same n — the body
        // then only checks because the domain of `len` mentions n, and the
        // tail call is at length n - 1, which fails.  This test documents the
        // expected failure of the monomorphic variant…
        assert!(!check_ok(src, ty.clone(), 0, 0));
        // …and the success of the polymorphic-recursion variant, where the
        // Forall is inside the fix argument annotation (as in the benchmark
        // suite's real programs, which take unit and return a ∀-type).
        let poly_ty = UnaryType::arrow(
            UnaryType::Unit,
            CostBounds::new(Idx::zero(), Idx::zero()),
            UnaryType::forall(
                "n",
                Sort::Nat,
                UnaryType::arrow(
                    UnaryType::list(Idx::var("n"), UnaryType::Int),
                    CostBounds::new(Idx::zero(), Idx::nat(4) * Idx::var("n") + Idx::one()),
                    UnaryType::Int,
                ),
            ),
        );
        let poly_src = "fix len(u). Lam. lam l. case l of nil -> 0 | h :: tl -> 1 + len () [] tl";
        assert!(check_ok(poly_src, poly_ty, 0, 0));
    }

    #[test]
    fn annotations_enable_inference_of_redexes() {
        let e = parse_expr("(lam x. x : UU (bool ->[0, 0] bool)) true").unwrap();
        let checker = UnaryChecker::new();
        let mut fresh = FreshVars::new();
        let ctx = UnaryCtx::new();
        let inf = checker.infer(&mut fresh, &ctx, &e).unwrap();
        assert_eq!(inf.ty, UnaryType::Bool);
        assert!(!inf.existentials.is_empty());
    }

    #[test]
    fn unbound_variables_are_reported() {
        let e = parse_expr("mystery").unwrap();
        let checker = UnaryChecker::new();
        let mut fresh = FreshVars::new();
        let err = checker.infer(&mut fresh, &UnaryCtx::new(), &e).unwrap_err();
        assert!(matches!(err, TypeError::UnboundVariable(_)));
    }

    #[test]
    fn lambdas_cannot_be_inferred_without_annotations() {
        let e = parse_expr("lam x. x").unwrap();
        let checker = UnaryChecker::new();
        let mut fresh = FreshVars::new();
        let err = checker.infer(&mut fresh, &UnaryCtx::new(), &e).unwrap_err();
        assert!(matches!(err, TypeError::CannotInfer(_)));
    }
}
