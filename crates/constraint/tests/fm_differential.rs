//! Differential tests of the Fourier–Motzkin layer against the grid.
//!
//! On randomly generated *linear* queries (the fragment FM claims to
//! decide):
//!
//! * an FM `Proved` verdict is never contradicted by a grid counterexample
//!   — the bounded sweep of the tree evaluator agrees at every point;
//! * an FM-witnessed refutation's counterexample genuinely falsifies the
//!   implication under the tree evaluator (the same property the grid's
//!   counterexamples have);
//! * the full solver pipeline reaches the same accept/reject verdict with
//!   the FM layer on and off — FM changes *provenance* and cost, never the
//!   boolean outcome the type checker sees;
//! * a query replayed from the whole-query memo is the cold outcome,
//!   verdict, elimination order and witness alike.

use std::sync::Arc;

use proptest::prelude::*;

use rel_constraint::fm::{self, FmLimits, FmVerdict};
use rel_constraint::{Constr, SolveConfig, Solver, Validity};
use rel_index::{Extended, Idx, IdxEnv, IdxVar, Sort};

fn universals() -> Vec<(IdxVar, Sort)> {
    vec![
        (IdxVar::new("n"), Sort::Nat),
        (IdxVar::new("a"), Sort::Nat),
        (IdxVar::new("b"), Sort::Nat),
    ]
}

/// Random *linear* index terms: variables, small constants, sums,
/// differences and constant multiples — exactly the fragment the FM layer
/// decides completely.
fn arb_linear_idx() -> BoxedStrategy<Idx> {
    let leaf = prop_oneof![
        (0u64..8).prop_map(Idx::nat),
        Just(Idx::var("n")),
        Just(Idx::var("a")),
        Just(Idx::var("b")),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| x + y),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| x - y),
            (inner.clone(), (1u64..4)).prop_map(|(x, k)| x * Idx::nat(k)),
        ]
    })
    .boxed()
}

/// Random quantifier-free constraints over linear atoms.
fn arb_linear_constr() -> BoxedStrategy<Constr> {
    let atom = prop_oneof![
        Just(Constr::Top),
        Just(Constr::Bot),
        (arb_linear_idx(), arb_linear_idx()).prop_map(|(x, y)| Constr::eq(x, y)),
        (arb_linear_idx(), arb_linear_idx()).prop_map(|(x, y)| Constr::leq(x, y)),
        (arb_linear_idx(), arb_linear_idx()).prop_map(|(x, y)| Constr::lt(x, y)),
    ];
    atom.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Constr::And(vec![x, y])),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Constr::Or(vec![x, y])),
            (inner.clone(), inner.clone())
                .prop_map(|(x, y)| Constr::Implies(Arc::new(x), Arc::new(y))),
            inner.clone().prop_map(|x| Constr::Not(Arc::new(x))),
        ]
    })
    .boxed()
}

/// Exhaustive check of `hyp ⟹ goal` over the small grid `0..=max` per
/// variable, with the tree evaluator — the ground truth FM must agree with.
fn grid_counterexample(hyp: &Constr, goal: &Constr, max: u64) -> Option<IdxEnv> {
    let u = universals();
    let formula = hyp.clone().implies(goal.clone());
    let mut coords = vec![0u64; u.len()];
    loop {
        let env = IdxEnv::from_pairs(
            u.iter()
                .zip(&coords)
                .map(|((v, _), c)| (v.clone(), Extended::from(*c))),
        );
        if !formula.eval_bounded(&env, 6) {
            return Some(env);
        }
        let mut i = 0;
        loop {
            if i == coords.len() {
                return None;
            }
            coords[i] += 1;
            if coords[i] <= max {
                break;
            }
            coords[i] = 0;
            i += 1;
        }
    }
}

proptest! {
    // FM soundness: `Proved` can never be contradicted by any grid point.
    #[test]
    fn fm_proofs_are_never_contradicted_by_the_grid(
        hyp in arb_linear_constr(),
        goal in arb_linear_constr(),
    ) {
        let facts: Vec<&Constr> = vec![&hyp];
        let out = fm::prove(
            &universals(),
            &facts,
            &goal,
            &FmLimits::default(),
            &mut fm::FmMemo::default(),
        );
        if out.verdict == FmVerdict::Proved {
            if let Some(env) = grid_counterexample(&hyp, &goal, 6) {
                prop_assert!(
                    false,
                    "FM proved an entailment the grid refutes at {env:?}: \
                     hyp = {hyp}, goal = {goal}"
                );
            }
        }
    }

    // FM witnesses are genuine counterexamples under the tree evaluator.
    #[test]
    fn fm_witnesses_falsify_the_implication(
        hyp in arb_linear_constr(),
        goal in arb_linear_constr(),
    ) {
        let facts: Vec<&Constr> = vec![&hyp];
        let out = fm::prove(
            &universals(),
            &facts,
            &goal,
            &FmLimits::default(),
            &mut fm::FmMemo::default(),
        );
        if out.verdict == FmVerdict::CandidateRefuted {
            if let Some(witness) = out.witness {
                let mut env = IdxEnv::new();
                for (v, _) in universals() {
                    env.bind(v, Extended::ZERO);
                }
                let mut nat_ok = true;
                for (v, q) in witness {
                    nat_ok &= q.is_integer() && !q.is_negative();
                    env.bind(v, Extended::Finite(q));
                }
                // All three universals are ℕ-sorted, so concretization must
                // have produced natural values…
                prop_assert!(nat_ok, "non-natural witness for ℕ variables");
                // …and when the *hypothesis side* holds at the witness, the
                // goal must fail there (this is what the solver re-verifies
                // before trusting the point; a witness that misses the full
                // hypothesis is discarded there, not a soundness issue).
                if hyp.eval_bounded(&env, 6) {
                    prop_assert!(
                        !goal.eval_bounded(&env, 6),
                        "FM witness does not falsify the goal: hyp = {hyp}, \
                         goal = {goal}, env = {env:?}"
                    );
                }
            }
        }
    }

    // Memo replay: the second call through a shared memo is one hit and
    // reproduces the outcome a fresh memo computes.  The generator's goals
    // have at most four comparisons, so their negated DNF stays within the
    // branch cap and every query is memoized.
    #[test]
    fn memo_replays_equal_cold_outcomes(
        hyp in arb_linear_constr(),
        goal in arb_linear_constr(),
    ) {
        let u = universals();
        let facts: Vec<&Constr> = vec![&hyp];
        let limits = FmLimits::default();
        let cold = fm::prove(&u, &facts, &goal, &limits, &mut fm::FmMemo::default());
        let mut memo = fm::FmMemo::default();
        let first = fm::prove(&u, &facts, &goal, &limits, &mut memo);
        let replay = fm::prove(&u, &facts, &goal, &limits, &mut memo);
        prop_assert_eq!(first.memo_hits, 0);
        prop_assert_eq!(replay.memo_hits, 1, "hyp = {}, goal = {}", hyp, goal);
        prop_assert_eq!(replay.memo_misses, 0);
        for out in [&first, &replay] {
            prop_assert_eq!(out.verdict, cold.verdict);
            prop_assert_eq!(&out.eliminated, &cold.eliminated);
            prop_assert_eq!(&out.witness, &cold.witness);
        }
    }

    // Pipeline equivalence: the FM layer changes provenance, never the
    // boolean verdict — and both refutation styles produce genuine
    // counterexamples.
    #[test]
    fn solver_verdicts_agree_with_fm_on_and_off(
        hyp in arb_linear_constr(),
        goal in arb_linear_constr(),
    ) {
        let small = SolveConfig {
            nat_grid_max: 6,
            max_grid_points: 343,
            random_points: 8,
            inner_quantifier_bound: 3,
            ..SolveConfig::default()
        };
        let no_fm = SolveConfig { use_fm: false, ..small.clone() };
        let u = universals();
        let mut with_fm = Solver::with_config(small);
        let mut without_fm = Solver::with_config(no_fm);
        let v_fm = with_fm.entails(&u, &hyp, &goal);
        let v_grid = without_fm.entails(&u, &hyp, &goal);
        // One direction is a theorem: whatever the grid refutes, the FM
        // pipeline refutes too (an FM proof of a grid-refutable entailment
        // would be unsound, and FM non-proofs fall through to the same
        // grid).  The converse is deliberately *not* asserted: the bounded
        // decisive sweep can wrongly accept an entailment whose smallest
        // counterexample lies beyond the grid, and there FM's verified
        // witness is the more truthful verdict.
        if !v_grid.is_valid() {
            prop_assert!(
                !v_fm.is_valid(),
                "grid refutes but FM accepts: hyp = {}, goal = {} ({:?} vs {:?})",
                hyp, goal, v_fm, v_grid
            );
        }
        // Whatever counterexample either path reports must falsify the
        // implication under the tree evaluator.
        for v in [&v_fm, &v_grid] {
            if let Validity::Invalid(Some(env)) = v {
                let formula = hyp.clone().implies(goal.clone());
                prop_assert!(
                    !formula.eval_bounded(env, 3),
                    "reported counterexample does not falsify: hyp = {}, \
                     goal = {}, env = {:?}", hyp, goal, env
                );
            }
        }
    }
}
