//! Differential tests: the bytecode evaluator of `rel_constraint::compile`
//! against the tree evaluator `Constr::eval_bounded`, and the solver's
//! compiled sweep against the tree-walking oracle (`with_tree_eval`, from
//! the `reference-eval` feature this crate's dev-dependency enables).
//!
//! The two must agree *bit for bit* — same booleans per point, same
//! verdicts, same counterexample environments, same `points_evaluated`
//! counts — which is what lets the solver ship the compiled sweep alone.

use std::sync::Arc;

use proptest::prelude::*;

use rel_constraint::{compile_query, with_tree_eval, Constr, SolveConfig, Solver, Val};
use rel_index::{Extended, Idx, IdxEnv, IdxVar, Sort};

fn universals() -> Vec<(IdxVar, Sort)> {
    vec![
        (IdxVar::new("n"), Sort::Nat),
        (IdxVar::new("a"), Sort::Nat),
        (IdxVar::new("b"), Sort::Nat),
    ]
}

/// Random index terms over `n`, `a`, `b` with every operator the grammar
/// has, including division (exact-rational fallback) and summation.
fn arb_idx() -> BoxedStrategy<Idx> {
    let leaf = prop_oneof![
        (0u64..6).prop_map(Idx::nat),
        Just(Idx::infty()),
        Just(Idx::var("n")),
        Just(Idx::var("a")),
        Just(Idx::var("b")),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| x + y),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| x - y),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| x * y),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| x / y),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Idx::min(x, y)),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Idx::max(x, y)),
            inner.clone().prop_map(Idx::ceil),
            inner.clone().prop_map(Idx::floor),
            inner.clone().prop_map(Idx::log2),
            // Keep exponents small so pow2 stays meaningful on the grid.
            inner
                .clone()
                .prop_map(|x| Idx::pow2(Idx::min(x, Idx::nat(6)))),
            (inner.clone(), inner.clone()).prop_map(|(hi, body)| Idx::sum(
                "s",
                Idx::zero(),
                Idx::min(hi, Idx::nat(8)),
                body
            )),
        ]
    })
    .boxed()
}

/// Random constraints: atoms over [`arb_idx`], all connectives, and bounded
/// quantifiers (including an existential, exercising the `min(bound, 8)`
/// cap).
fn arb_constr() -> BoxedStrategy<Constr> {
    let atom = prop_oneof![
        Just(Constr::Top),
        Just(Constr::Bot),
        (arb_idx(), arb_idx()).prop_map(|(x, y)| Constr::eq(x, y)),
        (arb_idx(), arb_idx()).prop_map(|(x, y)| Constr::leq(x, y)),
        (arb_idx(), arb_idx()).prop_map(|(x, y)| Constr::lt(x, y)),
    ];
    atom.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Constr::And(vec![x, y])),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Constr::Or(vec![x, y])),
            (inner.clone(), inner.clone())
                .prop_map(|(x, y)| Constr::Implies(Arc::new(x), Arc::new(y))),
            inner.clone().prop_map(|x| Constr::Not(Arc::new(x))),
            inner.clone().prop_map(|x| Constr::Forall(
                rel_constraint::Quantified::new("q", Sort::Nat),
                Arc::new(x)
            )),
            inner.clone().prop_map(|x| Constr::Exists(
                rel_constraint::Quantified::new("w", Sort::Nat),
                Arc::new(x)
            )),
        ]
    })
    .boxed()
}

proptest! {
    // Point-for-point agreement of the two evaluators on random formulas
    // and random ground environments.
    #[test]
    fn bytecode_and_tree_evaluators_agree(
        hyp in arb_constr(),
        goal in arb_constr(),
        n in 0i64..12,
        a in 0i64..12,
        b in 0i64..12,
        bound in 0u64..6,
    ) {
        let u = universals();
        let program = compile_query(&u, &hyp, &goal);
        let mut frame = program.new_frame();
        let compiled = program.eval_point(
            &mut frame,
            &[Val::int(n), Val::int(a), Val::int(b)],
            bound,
        );
        let env = IdxEnv::from_pairs([
            ("n", Extended::from(n)),
            ("a", Extended::from(a)),
            ("b", Extended::from(b)),
        ]);
        let tree = hyp.clone().implies(goal.clone()).eval_bounded(&env, bound);
        prop_assert_eq!(compiled, tree, "hyp = {}, goal = {}", hyp, goal);
    }

    // Verdict-level agreement of the two solver paths, including the
    // counterexample environment and the `points_evaluated` count.  The
    // grid is shrunk so 256 random solver runs stay fast.
    #[test]
    fn solver_verdicts_agree_between_compiled_and_tree(
        hyp in arb_constr(),
        goal in arb_constr(),
    ) {
        let small = SolveConfig {
            nat_grid_max: 4,
            max_grid_points: 125,
            random_points: 8,
            inner_quantifier_bound: 3,
            ..SolveConfig::default()
        };
        let u = universals();
        let mut s_compiled = Solver::with_config(small.clone());
        let mut s_tree = Solver::with_config(small);
        let v_compiled = s_compiled.entails(&u, &hyp, &goal);
        let v_tree = with_tree_eval(|| s_tree.entails(&u, &hyp, &goal));
        prop_assert_eq!(
            v_compiled,
            v_tree,
            "solver paths diverge: hyp = {}, goal = {}",
            hyp,
            goal
        );
        prop_assert_eq!(
            s_compiled.stats().points_evaluated,
            s_tree.stats().points_evaluated,
            "point counts diverge: hyp = {}, goal = {}",
            hyp,
            goal
        );
        // The oracle swept by tree walking: it never compiles.
        prop_assert_eq!(s_tree.stats().programs_compiled, 0);
    }
}
