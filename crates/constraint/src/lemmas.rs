//! Saturation lemmas for the symbolic solver layer.
//!
//! The paper's implementation relies on Why3's lemma libraries for
//! exponentiation, logarithms and iterated sums, plus one explicitly provided
//! recurrence lemma for divide-and-conquer cost functions.  Our native solver
//! plays the same trick at a smaller scale: given the set of non-linear atoms
//! occurring in a constraint, [`saturate`] produces arithmetic facts about
//! those atoms (`⌈n/2⌉ + ⌊n/2⌋ = n`, `min(a,b) ≤ a`, …) which are added to the
//! hypotheses before linear reasoning.  The hypothesis's atoms are saturated
//! once per prepared hypothesis, and each goal saturates only the atoms the
//! hypothesis lacks.
//!
//! Two rules keep the table small and sound.  A lemma that holds only for
//! integer arguments (`⌈n/2⌉ ≤ n`, `⌈n/2⌉ + ⌊n/2⌋ = n`, `2^x ≥ x + 1`) is
//! emitted only when its argument is [`integer_valued`] — over ℝ-sorted `t`
//! each fails at `t = 1/2`.  And no lemma restates `0 ≤ atom`: the
//! Fourier–Motzkin layer adds that row for every atom of its system.
//!
//! Whatever the lemma table cannot discharge falls through to the
//! bounded-numeric layer (see [`crate::solver`]), which plays the role of
//! the explicitly-added recurrence axiom of the paper.

use std::collections::BTreeSet;

use rel_index::{Atom, Idx, IdxVar, LinExpr};

use crate::constr::Constr;

/// Collects every atom (in the [`LinExpr`] sense) occurring in a constraint.
pub fn atoms_of_constr(c: &Constr) -> BTreeSet<Atom> {
    let mut acc = BTreeSet::new();
    collect(c, &mut acc);
    acc
}

fn collect(c: &Constr, acc: &mut BTreeSet<Atom>) {
    match c {
        Constr::Top | Constr::Bot => {}
        Constr::Eq(a, b) | Constr::Leq(a, b) | Constr::Lt(a, b) => {
            collect_idx(a, acc);
            collect_idx(b, acc);
        }
        Constr::And(cs) | Constr::Or(cs) => {
            for c in cs {
                collect(c, acc);
            }
        }
        Constr::Not(c) => collect(c, acc),
        Constr::Implies(a, b) => {
            collect(a, acc);
            collect(b, acc);
        }
        Constr::Forall(_, c) | Constr::Exists(_, c) => collect(c, acc),
    }
}

fn collect_idx(i: &Idx, acc: &mut BTreeSet<Atom>) {
    for atom in LinExpr::of_idx(i).atoms() {
        acc.insert(atom.clone());
        // Also look inside the atom for nested non-linear structure
        // (e.g. `min(α, 2^(H - i))` contains the atom `2^(H - i)`).
        match &atom.0 {
            Idx::Ceil(x) | Idx::Floor(x) | Idx::Log2(x) | Idx::Pow2(x) => collect_idx(x, acc),
            Idx::Min(a, b) | Idx::Max(a, b) | Idx::Mul(a, b) | Idx::Div(a, b) => {
                collect_idx(a, acc);
                collect_idx(b, acc);
            }
            Idx::Sum { lo, hi, body, .. } => {
                collect_idx(lo, acc);
                collect_idx(hi, acc);
                collect_idx(body, acc);
            }
            _ => {}
        }
    }
}

/// Whether an index term takes integer values at every point: ℕ-sorted
/// variables, integer constants and `⌈·⌉`/`⌊·⌋`, closed under `+ − ·
/// min max`.  The lemmas that hold only for integer arguments are gated on
/// it.
pub fn integer_valued(i: &Idx, nat_vars: &BTreeSet<IdxVar>) -> bool {
    match i {
        Idx::Var(v) => nat_vars.contains(v),
        Idx::Const(q) => q.is_integer(),
        Idx::Ceil(_) | Idx::Floor(_) => true,
        Idx::Add(a, b) | Idx::Sub(a, b) | Idx::Mul(a, b) | Idx::Min(a, b) | Idx::Max(a, b) => {
            integer_valued(a, nat_vars) && integer_valued(b, nat_vars)
        }
        Idx::Infty | Idx::Div(..) | Idx::Log2(_) | Idx::Pow2(_) | Idx::Sum { .. } => false,
    }
}

/// Whether a constraint holds a node some lemma is about (`⌈·⌉`, `⌊·⌋`,
/// `min`, `max`, `log₂`, `2^·`).  A constraint without one contributes no
/// lemma instance, so the atom scan can be skipped; the walk allocates
/// nothing.
pub fn has_lemma_atoms(c: &Constr) -> bool {
    fn idx(i: &Idx) -> bool {
        match i {
            Idx::Var(_) | Idx::Const(_) | Idx::Infty => false,
            Idx::Ceil(_)
            | Idx::Floor(_)
            | Idx::Min(..)
            | Idx::Max(..)
            | Idx::Log2(_)
            | Idx::Pow2(_) => true,
            Idx::Add(a, b) | Idx::Sub(a, b) | Idx::Mul(a, b) | Idx::Div(a, b) => idx(a) || idx(b),
            Idx::Sum { lo, hi, body, .. } => idx(lo) || idx(hi) || idx(body),
        }
    }
    match c {
        Constr::Top | Constr::Bot => false,
        Constr::Eq(a, b) | Constr::Leq(a, b) | Constr::Lt(a, b) => idx(a) || idx(b),
        Constr::And(cs) | Constr::Or(cs) => cs.iter().any(has_lemma_atoms),
        Constr::Not(c) | Constr::Forall(_, c) | Constr::Exists(_, c) => has_lemma_atoms(c),
        Constr::Implies(a, b) => has_lemma_atoms(a) || has_lemma_atoms(b),
    }
}

/// Appends to `out` the saturation facts about those of `atoms` that are
/// not in `known` (the atoms an earlier call already saturated: the
/// hypothesis's, when `atoms` are a goal's).
///
/// All facts hold for the non-negative interpretations of index terms used
/// by RelCost (sizes and difference counts are naturals, costs are
/// non-negative reals); they are consumed only by the best-effort symbolic
/// layer.  Three hold only for integer arguments — `⌈n/2⌉ ≤ n`,
/// `⌈n/2⌉ + ⌊n/2⌋ = n` and `2^x ≥ x + 1` — and are emitted only when the
/// argument is [`integer_valued`] under `nat_vars`.  No fact restates an
/// atom's non-negativity: Fourier–Motzkin adds `0 ≤ atom` for every atom of
/// its system itself.
///
/// The `⌈n/2⌉`/`⌊n/2⌋` twin facts are emitted once, for whichever twin is
/// saturated last: by `⌈n/2⌉` when `⌊n/2⌋` is in `known` or `atoms`, and by
/// `⌊n/2⌋` when `⌈n/2⌉` is in `known`.
pub fn saturate(
    known: &BTreeSet<Atom>,
    atoms: &BTreeSet<Atom>,
    nat_vars: &BTreeSet<IdxVar>,
    out: &mut Vec<Constr>,
) {
    let present = |i: &Idx| {
        let atom = Atom(i.clone());
        known.contains(&atom) || atoms.contains(&atom)
    };
    for atom in atoms.iter().filter(|a| !known.contains(a)) {
        let c = &atom.0;
        match &atom.0 {
            Idx::Ceil(inner) => {
                // ⌈x⌉ ≥ x  and  ⌈x⌉ ≤ x + 1.
                out.push(Constr::leq((**inner).clone(), c.clone()));
                out.push(Constr::leq(c.clone(), (**inner).clone() + Idx::one()));
                if let Some(num) = halved(inner) {
                    let twin = Idx::floor((**inner).clone());
                    if present(&twin) {
                        twin_facts(c, twin, num, nat_vars, out);
                    }
                    // ⌈n/2⌉ ≤ n (for integers n).
                    if integer_valued(num, nat_vars) {
                        out.push(Constr::leq(c.clone(), num.clone()));
                    }
                }
            }
            Idx::Floor(inner) => {
                // ⌊x⌋ ≤ x  and  x ≤ ⌊x⌋ + 1.
                out.push(Constr::leq(c.clone(), (**inner).clone()));
                out.push(Constr::leq((**inner).clone(), c.clone() + Idx::one()));
                if let Some(num) = halved(inner) {
                    let ceil = Idx::ceil((**inner).clone());
                    if known.contains(&Atom(ceil.clone())) {
                        twin_facts(&ceil, c.clone(), num, nat_vars, out);
                    }
                }
            }
            Idx::Min(a, b) => {
                out.push(Constr::leq(c.clone(), (**a).clone()));
                out.push(Constr::leq(c.clone(), (**b).clone()));
            }
            Idx::Max(a, b) => {
                out.push(Constr::leq((**a).clone(), c.clone()));
                out.push(Constr::leq((**b).clone(), c.clone()));
                // max(a,b) ≤ a + b for non-negative operands.
                out.push(Constr::leq(c.clone(), (**a).clone() + (**b).clone()));
            }
            Idx::Log2(inner) => {
                // log2 is totalized at 1: log2(x) ≤ x (for x ≥ 0).
                out.push(Constr::leq(
                    c.clone(),
                    Idx::max((**inner).clone(), Idx::one()),
                ));
            }
            Idx::Pow2(inner) => {
                // 2^x ≥ 1, and 2^x ≥ x + 1 for integers x.
                out.push(Constr::leq(Idx::one(), c.clone()));
                if integer_valued(inner, nat_vars) {
                    out.push(Constr::leq((**inner).clone() + Idx::one(), c.clone()));
                }
            }
            _ => {}
        }
    }
}

/// The numerator `n` of a halving `n / 2`.
fn halved(i: &Idx) -> Option<&Idx> {
    match i {
        Idx::Div(num, den) if den.as_const() == Idx::nat(2).as_const() => Some(num),
        _ => None,
    }
}

/// `⌈n/2⌉ + ⌊n/2⌋ = n` (for integers `n`) and `⌊n/2⌋ ≤ ⌈n/2⌉`.
fn twin_facts(
    ceil: &Idx,
    floor: Idx,
    num: &Idx,
    nat_vars: &BTreeSet<IdxVar>,
    out: &mut Vec<Constr>,
) {
    if integer_valued(num, nat_vars) {
        out.push(Constr::eq(ceil.clone() + floor.clone(), num.clone()));
    }
    out.push(Constr::leq(floor, ceil.clone()));
}

/// The divide-and-conquer recurrence of the merge-sort example, provided as a
/// reusable closed lemma (the paper supplies it as an axiom to Why3; our
/// numeric layer can also discharge it directly).
///
/// `Q(n, α) = Σ_{i=0}^{H} ⌈2^i / 2⌉ · min(α, 2^{H−i})` with `H = ⌈log2 n⌉` and
/// the linear-cost function `h(m) = m`.  The lemma states
/// `h(⌈n/2⌉) + Q(⌈n/2⌉, β) + Q(⌊n/2⌋, α − β) ≤ Q(n, α)` for `1 ≤ α`, `β ≤ α`,
/// `α ≤ n` and `2 ≤ n`.
pub fn msort_recurrence_lemma() -> Constr {
    use rel_index::Sort;
    let n = Idx::var("n");
    let alpha = Idx::var("alpha");
    let beta = Idx::var("beta");
    let hyp = Constr::leq(Idx::one(), alpha.clone())
        .and(Constr::leq(beta.clone(), alpha.clone()))
        .and(Constr::leq(alpha.clone(), n.clone()))
        .and(Constr::leq(Idx::nat(2), n.clone()));
    let lhs = Idx::half_ceil(n.clone())
        + big_q(Idx::half_ceil(n.clone()), beta.clone())
        + big_q(Idx::half_floor(n.clone()), alpha.clone() - beta.clone());
    let goal = Constr::leq(lhs, big_q(n, alpha));
    Constr::forall(
        "n",
        Sort::Nat,
        Constr::forall(
            "alpha",
            Sort::Nat,
            Constr::forall("beta", Sort::Nat, hyp.implies(goal)),
        ),
    )
}

/// The merge-sort relative-cost bound `Q(n, α)` from §6 of the paper with the
/// linear per-level cost `h(m) = m`.
pub fn big_q(n: Idx, alpha: Idx) -> Idx {
    let h = Idx::ceil(Idx::log2(n));
    Idx::sum(
        "qi",
        Idx::zero(),
        h.clone(),
        Idx::ceil(Idx::pow2(Idx::var("qi")) / Idx::nat(2))
            * Idx::min(alpha, Idx::pow2(h - Idx::var("qi"))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rel_index::{Extended, IdxEnv};

    #[test]
    fn atoms_are_collected_transitively() {
        let c = Constr::leq(
            Idx::half_ceil(Idx::var("n")) + Idx::min(Idx::var("a"), Idx::pow2(Idx::var("i"))),
            Idx::var("n"),
        );
        let atoms = atoms_of_constr(&c);
        assert!(atoms.contains(&Atom(Idx::half_ceil(Idx::var("n")))));
        assert!(atoms.iter().any(|a| matches!(a.0, Idx::Min(_, _))));
        assert!(atoms.contains(&Atom(Idx::pow2(Idx::var("i")))));
        assert!(atoms.contains(&Atom(Idx::var("n"))));
    }

    #[test]
    fn saturation_facts_hold_numerically() {
        let c = Constr::leq(
            Idx::half_ceil(Idx::var("n")) + Idx::half_floor(Idx::var("n")),
            Idx::var("n") + Idx::min(Idx::var("n"), Idx::var("a")),
        );
        let atoms = atoms_of_constr(&c);
        let nat = BTreeSet::from([IdxVar::new("n"), IdxVar::new("a")]);
        let mut facts = Vec::new();
        saturate(&BTreeSet::new(), &atoms, &nat, &mut facts);
        assert!(!facts.is_empty());
        for n in 0..20i64 {
            for a in 0..10i64 {
                let env = IdxEnv::from_pairs([("n", Extended::from(n)), ("a", Extended::from(a))]);
                for fact in &facts {
                    assert!(
                        fact.eval_bounded(&env, 8),
                        "saturation fact {fact} fails at n={n}, a={a}"
                    );
                }
            }
        }
    }

    #[test]
    fn integer_only_lemmas_need_integer_arguments() {
        // ⌈t/2⌉ ≤ t, ⌈t/2⌉ + ⌊t/2⌋ = t and t + 1 ≤ 2^t fail at t = 1/2: they
        // are emitted for an ℕ-sorted argument only.
        let t = Idx::var("t");
        let c = Constr::leq(
            Idx::half_ceil(t.clone()) + Idx::half_floor(t.clone()),
            Idx::pow2(t.clone()),
        );
        let atoms = atoms_of_constr(&c);
        let saturated = |nat: &BTreeSet<IdxVar>| {
            let mut facts = Vec::new();
            saturate(&BTreeSet::new(), &atoms, nat, &mut facts);
            facts
        };
        let real = saturated(&BTreeSet::new());
        let half = IdxEnv::from_pairs([("t", Extended::Finite(rel_index::Rational::new(1, 2)))]);
        for fact in &real {
            assert!(fact.eval_bounded(&half, 8), "{fact} fails at t = 1/2");
        }
        let nat = saturated(&BTreeSet::from([IdxVar::new("t")]));
        assert_eq!(nat.len(), real.len() + 3, "{nat:?}");
    }

    #[test]
    fn twin_facts_are_emitted_once_across_hypothesis_and_goal() {
        // ⌈n/2⌉ in the hypothesis, ⌊n/2⌋ only in the goal: the goal's pass
        // emits the twin facts, exactly as one pass over both would.
        let n = Idx::var("n");
        let nat = BTreeSet::from([IdxVar::new("n")]);
        let hyp = atoms_of_constr(&Constr::leq(Idx::half_ceil(n.clone()), Idx::nat(3)));
        let goal = atoms_of_constr(&Constr::leq(Idx::half_floor(n.clone()), Idx::nat(3)));
        let mut split = Vec::new();
        saturate(&BTreeSet::new(), &hyp, &nat, &mut split);
        saturate(&hyp, &goal, &nat, &mut split);
        let union: BTreeSet<Atom> = hyp.union(&goal).cloned().collect();
        let mut whole = Vec::new();
        saturate(&BTreeSet::new(), &union, &nat, &mut whole);
        let twin = Constr::eq(
            Idx::half_ceil(n.clone()) + Idx::half_floor(n.clone()),
            n.clone(),
        );
        assert_eq!(split.iter().filter(|f| **f == twin).count(), 1);
        let sorted = |mut v: Vec<Constr>| {
            v.sort_by_key(|c| c.to_string());
            v
        };
        assert_eq!(sorted(split), sorted(whole));
    }

    #[test]
    fn linear_constraints_have_no_lemma_atoms() {
        let n = Idx::var("n");
        assert!(!has_lemma_atoms(&Constr::leq(
            n.clone() * Idx::var("a") + Idx::sum("i", Idx::zero(), n.clone(), Idx::var("i")),
            n.clone() - Idx::nat(2),
        )));
        assert!(has_lemma_atoms(&Constr::leq(
            Idx::sum("i", Idx::zero(), n.clone(), Idx::pow2(Idx::var("i"))),
            n,
        )));
    }

    #[test]
    fn msort_recurrence_lemma_holds_on_a_grid() {
        let lemma = msort_recurrence_lemma();
        // The lemma is closed (all variables bound); evaluate with the bound
        // acting as the quantifier domain.
        assert!(lemma.eval_bounded(&IdxEnv::new(), 12));
    }

    #[test]
    fn big_q_matches_hand_computation() {
        // Q(8, 2) = 12 (same hand computation as in rel-index's tests).
        let q = big_q(Idx::nat(8), Idx::nat(2));
        assert_eq!(q.eval(&IdxEnv::new()).unwrap(), Extended::from(12));
        // Q(n, 0) = 0? No: min(0, ·) = 0 so every summand is 0.
        let q0 = big_q(Idx::nat(16), Idx::nat(0));
        assert_eq!(q0.eval(&IdxEnv::new()).unwrap(), Extended::from(0));
    }
}
