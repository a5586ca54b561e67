//! The tree-walking numeric sweep, kept as a differential oracle for the
//! compiled one.
//!
//! Compiled in only by the `reference-eval` feature, which only
//! dev-dependencies enable: release builds carry the compiled sweep alone.
//! The oracle is selected per thread with [`with_tree_eval`], so
//! whole-engine comparisons (an engine checks a program on the calling
//! thread) need no configuration field and share fingerprints with the
//! compiled path.

use std::cell::Cell;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rel_index::{Extended, IdxEnv, IdxVar, Sort};

use super::{draw_random_point, CexSource, Constr, Solver, Validity};

thread_local! {
    static TREE_EVAL: Cell<bool> = const { Cell::new(false) };
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
