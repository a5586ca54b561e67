//! Constraint language, existential elimination and validity checking for
//! BiRelCost.
//!
//! The bidirectional typing judgments of the paper *output* constraints `Φ`
//! over index terms: arithmetic facts relating list sizes, difference bounds
//! and costs of subterms, possibly existentially quantified over
//! algorithmically introduced variables (the set `ψ`).  Type checking
//! succeeds iff the hypothesis constraints `Φₐ` entail `Φ` for all values of
//! the universally quantified index variables in `∆`.
//!
//! The pipeline implemented here mirrors §6 of the paper:
//!
//! 1. [`exelim`] — a pre-processing pass that finds *candidate substitutions*
//!    for existentially quantified variables by scanning the constraint for
//!    atomic facts `v = I` and `v ≤ I`, and tries them lazily;
//! 2. [`solver`] — a validity checker for the resulting existential-free
//!    constraints.  The paper delegates this step to Why3 + Alt-Ergo; this
//!    reproduction ships a native three-layer checker (symbolic linear
//!    arithmetic over exact rationals, a lemma table mirroring the Why3 lemma
//!    libraries and the divide-and-conquer recurrence axiom, and a
//!    bounded-numeric fallback).  See DESIGN.md §4 for the substitution
//!    rationale.

pub mod cache;
pub mod compile;
pub mod constr;
pub mod exelim;
pub mod fm;
pub mod lemmas;
pub mod solver;

pub use cache::{CacheStats, Fnv1a, QueryKey, QueryRef, ShardedValidityCache};
pub use compile::{compile_query, CompiledQuery, EvalFrame, Val};
pub use constr::{Constr, Quantified};
pub use exelim::{eliminate_existentials, ExElimOutcome, ExElimStats};
pub use fm::{FmLimits, FmMemo, FmOutcome, FmVerdict};
#[cfg(feature = "reference-eval")]
pub use solver::with_tree_eval;
pub use solver::{
    CexSource, ProgramCacheStats, Provenance, RefutationInfo, SearchExhaustedReason,
    SharedProgramCache, SolveConfig, SolveStats, Solver, Validity,
};
