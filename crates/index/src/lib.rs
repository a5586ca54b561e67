//! Index-term algebra for the BiRelCost relational type checker.
//!
//! Relational refinement types in RelRef/RelCost are indexed by *index terms*
//! (the grammar `I, n, α, t` of the paper): natural numbers describing list
//! lengths and element-wise differences, and real numbers describing execution
//! costs.  Index terms are built from variables, literals and the arithmetic
//! operations used throughout the paper's examples:
//!
//! ```text
//! I ::= i | 0 | I + 1 | I1 + I2 | I1 - I2 | I1 / I2 | I1 * I2
//!     | ⌈I⌉ | ⌊I⌋ | min(I1, I2) | max(I1, I2) | log2 I | 2^I | Σ_{i=I1}^{I2} I
//! ```
//!
//! This crate provides:
//!
//! * [`Rational`] — exact rational arithmetic (no floating-point drift in the
//!   constraint solver),
//! * [`Extended`] — rationals extended with `+∞` (used for the trivial cost
//!   bound that embeds RelRef/RelRefU into RelCost),
//! * [`Sort`] — the two index sorts `ℕ` and `ℝ`,
//! * [`IdxVar`] / [`IdxVarGen`] — index variables and fresh-name generation,
//! * [`Idx`] — the index-term AST with substitution and free-variable support,
//! * [`IdxEnv`] / evaluation — numeric evaluation of index terms,
//! * [`normalize`] — symbolic simplification (constant folding, unit laws),
//! * [`LinExpr`] — linear normal forms over opaque atoms, the workhorse of the
//!   constraint solver's symbolic layer.
//!
//! # Example
//!
//! ```
//! use rel_index::{Idx, IdxEnv, Extended};
//!
//! // Q(n, α)-style expression:  n + 2 * min(α, 4)
//! let i = Idx::var("n") + Idx::nat(2) * Idx::min(Idx::var("alpha"), Idx::nat(4));
//! let mut env = IdxEnv::new();
//! env.bind("n", Extended::from(10));
//! env.bind("alpha", Extended::from(7));
//! assert_eq!(i.eval(&env).unwrap(), Extended::from(18));
//! ```

pub mod eval;
pub mod linear;
pub mod normalize;
pub mod rational;
pub mod sort;
pub mod term;
pub mod var;

pub use eval::{EvalError, IdxEnv, MAX_SUM_TERMS};
pub use linear::{Atom, LinExpr};
pub use normalize::normalize;
pub use rational::{Extended, Rational};
pub use sort::Sort;
pub use term::Idx;
pub use var::{IdxVar, IdxVarGen};
