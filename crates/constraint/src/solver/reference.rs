//! Differential oracles of the solver's fast paths:
//!
//! * the tree-walking numeric sweep, kept as the oracle of the compiled
//!   one;
//! * the per-goal fact preparation, kept as the oracle of the prepared
//!   hypothesis ([`super::PreparedHyp`]): every goal re-derives the
//!   hypothesis's facts and runs [`fm::prove_facts`] over the whole fact
//!   system.
//!
//! Compiled in only by the `reference-eval` feature, which only
//! dev-dependencies enable: release builds carry the fast paths alone.
//! Each oracle is selected per thread ([`with_tree_eval`],
//! [`with_fm_oracle`]), so whole-engine comparisons (an engine checks a
//! program on the calling thread) need no configuration field and share
//! fingerprints with the production path.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rel_index::{Extended, Idx, IdxEnv, IdxVar, Sort};

use super::{
    apply_rewrites, conjuncts, draw_random_point, split_rewrites, CexSource, Constr, Solver,
    Validity,
};
use crate::fm::{self, FmLimits, FmMemo, FmOutcome};
use crate::lemmas;

thread_local! {
    static TREE_EVAL: Cell<bool> = const { Cell::new(false) };
    /// `Some(n)` inside [`with_fm_oracle`]: the FM runs compared so far.
    static FM_ORACLE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Runs `f` with every Fourier–Motzkin run on this thread re-decided by the
/// per-goal oracle on a fresh memo; panics on the first run whose verdict,
/// witness or elimination order differs.  Returns `f`'s result and the
/// number of runs compared.
pub fn with_fm_oracle<R>(f: impl FnOnce() -> R) -> (R, usize) {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FM_ORACLE.with(|cell| cell.set(self.0));
        }
    }
    let _restore = Restore(FM_ORACLE.with(|cell| cell.replace(Some(0))));
    let out = f();
    (out, FM_ORACLE.with(Cell::get).unwrap_or(0))
}

/// The FM outcome of `hyp ⟹ goal` with the facts prepared for this goal
/// alone: conjuncts, lemma instances over the atoms of hypothesis and goal
/// together, rewrites, and one [`fm::prove_facts`] over all of it.
pub(super) fn per_goal_fm(
    universals: &[(IdxVar, Sort)],
    hyp: &Constr,
    goal: &Constr,
    limits: &FmLimits,
    memo: &mut FmMemo,
) -> FmOutcome {
    let mut atoms = lemmas::atoms_of_constr(hyp);
    atoms.extend(lemmas::atoms_of_constr(goal));
    let mut lemma_facts = Vec::new();
    let nat_vars = fm::nat_var_set(universals);
    lemmas::saturate(&BTreeSet::new(), &atoms, &nat_vars, &mut lemma_facts);
    let mut facts = conjuncts(hyp);
    facts.extend(lemma_facts.iter());
    let (rewrites, rest) = split_rewrites(&facts);
    let nonneg: Vec<Constr> = rewrites
        .iter()
        .map(|(x, _)| Constr::leq(Idx::zero(), Idx::Var(x.clone())))
        .collect();
    let rewritten: Vec<Cow<'_, Constr>> = rest
        .iter()
        .copied()
        .chain(&nonneg)
        .map(|c| apply_rewrites(c, &rewrites))
        .collect();
    let refs: Vec<&Constr> = rewritten.iter().map(|c| c.as_ref()).collect();
    let goal = apply_rewrites(goal, &rewrites);
    fm::prove_facts(universals, &refs, &goal, limits, memo)
}

/// Inside [`with_fm_oracle`], re-decides one FM run with [`per_goal_fm`]
/// and panics when it disagrees with `outcome`.
pub(super) fn check_fm_oracle(
    universals: &[(IdxVar, Sort)],
    hyp: &Constr,
    goal: &Constr,
    limits: &FmLimits,
    outcome: &FmOutcome,
) {
    let Some(compared) = FM_ORACLE.with(Cell::get) else {
        return;
    };
    let oracle = per_goal_fm(universals, hyp, goal, limits, &mut FmMemo::default());
    assert!(
        oracle.verdict == outcome.verdict
            && oracle.witness == outcome.witness
            && oracle.eliminated == outcome.eliminated,
        "prepared FM run disagrees with the per-goal oracle on {hyp} ⟹ {goal}: \
         {outcome:?} against {oracle:?}"
    );
    FM_ORACLE.with(|cell| cell.set(Some(compared + 1)));
}

/// Runs `f` with every numeric check on this thread swept by the
/// tree-walking oracle instead of the compiled bytecode.  Verdicts,
/// counterexamples and `points_evaluated` are identical either way; the
/// oracle compiles no programs, so the program-memo counters stay at zero.
pub fn with_tree_eval<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            TREE_EVAL.with(|flag| flag.set(self.0));
        }
    }
    let _restore = Restore(TREE_EVAL.with(|flag| flag.replace(true)));
    f()
}

/// Whether the calling thread is inside [`with_tree_eval`].
pub(super) fn tree_eval_selected() -> bool {
    TREE_EVAL.with(Cell::get)
}

impl Solver {
    /// The tree-walking sweep: same verdicts as the compiled one, one
    /// `Box`-tree interpretation per point.  One environment is reused
    /// across all points (rebinding in place) instead of a fresh `IdxEnv`
    /// per point.
    pub(super) fn numeric_check_tree(
        &mut self,
        universals: &[(IdxVar, Sort)],
        hyp: &Constr,
        goal: &Constr,
    ) -> Validity {
        let bound = self.config.inner_quantifier_bound;
        let formula = hyp.clone().implies(goal.clone());
        let vars = universals;

        if vars.is_empty() {
            self.stats.points_evaluated += 1;
            return if formula.eval_bounded(&IdxEnv::new(), bound) {
                self.numeric_accept()
            } else {
                let env = IdxEnv::new();
                self.note_counterexample(CexSource::GridSweep, &env);
                Validity::Invalid(Some(env))
            };
        }

        let per_var = self.per_var_grid(vars.len());
        let mut env = IdxEnv::new();
        let mut grid_env = vec![0u64; vars.len()];
        'grid: loop {
            for ((v, _), n) in vars.iter().zip(&grid_env) {
                env.bind(v.clone(), Extended::from(*n));
            }
            self.stats.points_evaluated += 1;
            if !formula.eval_bounded(&env, bound) {
                self.note_counterexample(CexSource::GridSweep, &env);
                return Validity::Invalid(Some(env));
            }
            // Advance the odometer.
            let mut i = 0;
            loop {
                if i == grid_env.len() {
                    break 'grid;
                }
                grid_env[i] += 1;
                if grid_env[i] < per_var {
                    break;
                }
                grid_env[i] = 0;
                i += 1;
            }
        }

        if self.config.random_points > 0 {
            let mut rng = StdRng::seed_from_u64(self.config.rng_seed);
            let mut sample = vec![Extended::ZERO; vars.len()];
            for _ in 0..self.config.random_points {
                // Grid-coincident samples were already evaluated exhaustively.
                if draw_random_point(&mut rng, vars, per_var, &mut sample) {
                    continue;
                }
                for ((v, _), e) in vars.iter().zip(&sample) {
                    env.bind(v.clone(), *e);
                }
                self.stats.points_evaluated += 1;
                if !formula.eval_bounded(&env, bound) {
                    self.note_counterexample(CexSource::RandomSample, &env);
                    return Validity::Invalid(Some(env));
                }
            }
        }

        self.numeric_accept()
    }
}
