//! Numeric evaluation of index terms under an environment.
//!
//! Evaluation is used in two places: by the constraint solver's
//! bounded-numeric layer (to decide ground instances of universally
//! quantified constraints) and by the test suite (to compare typed cost
//! bounds against measured relative costs).

use std::collections::BTreeMap;
use std::fmt;

use crate::rational::Extended;
use crate::term::Idx;
use crate::var::IdxVar;

/// An assignment of numeric values to index variables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdxEnv {
    bindings: BTreeMap<IdxVar, Extended>,
}

impl IdxEnv {
    /// An empty environment.
    pub fn new() -> IdxEnv {
        IdxEnv::default()
    }

    /// Binds (or rebinds) a variable.
    pub fn bind(&mut self, var: impl Into<IdxVar>, value: impl Into<Extended>) -> &mut Self {
        self.bindings.insert(var.into(), value.into());
        self
    }

    /// Returns the value bound to `var`, if any.
    pub fn lookup(&self, var: &IdxVar) -> Option<Extended> {
        self.bindings.get(var).copied()
    }

    /// Returns an iterator over the bindings.
    pub fn iter(&self) -> impl Iterator<Item = (&IdxVar, &Extended)> {
        self.bindings.iter()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// Returns `true` if the environment has no bindings.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Builds an environment from an iterator of pairs.
    pub fn from_pairs<V, E>(pairs: impl IntoIterator<Item = (V, E)>) -> IdxEnv
    where
        V: Into<IdxVar>,
        E: Into<Extended>,
    {
        let mut env = IdxEnv::new();
        for (v, e) in pairs {
            env.bind(v, e);
        }
        env
    }
}

/// Errors produced by index-term evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A free variable had no binding in the environment.
    UnboundVariable(IdxVar),
    /// A summation's bounds were infinite.
    InfiniteSumBound,
    /// A summation range was too large to iterate (guards against runaway
    /// numeric checks; the solver keeps domains small).
    SumRangeTooLarge(u64),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable(v) => write!(f, "unbound index variable `{v}`"),
            EvalError::InfiniteSumBound => write!(f, "summation bound evaluated to infinity"),
            EvalError::SumRangeTooLarge(n) => {
                write!(
                    f,
                    "summation range of {n} terms exceeds the evaluation limit"
                )
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Upper bound on the number of terms a `Σ` may expand to during evaluation.
///
/// Public because every evaluator of index terms — this tree walker and
/// downstream bytecode evaluators — must agree on it exactly: evaluators
/// are required to be verdict-identical and diverging caps would silently
/// break that.
pub const MAX_SUM_TERMS: u64 = 1_000_000;

impl Idx {
    /// Evaluates the index term under `env`.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::UnboundVariable`] if a free variable is missing
    /// from the environment, and the summation errors documented on
    /// [`EvalError`].
    pub fn eval(&self, env: &IdxEnv) -> Result<Extended, EvalError> {
        match self {
            Idx::Var(v) => env
                .lookup(v)
                .ok_or_else(|| EvalError::UnboundVariable(v.clone())),
            Idx::Const(q) => Ok(Extended::Finite(*q)),
            Idx::Infty => Ok(Extended::Infinity),
            Idx::Add(a, b) => Ok(a.eval(env)? + b.eval(env)?),
            Idx::Sub(a, b) => Ok(a.eval(env)? - b.eval(env)?),
            Idx::Mul(a, b) => Ok(a.eval(env)? * b.eval(env)?),
            Idx::Div(a, b) => Ok(a.eval(env)? / b.eval(env)?),
            Idx::Ceil(a) => Ok(a.eval(env)?.ceil()),
            Idx::Floor(a) => Ok(a.eval(env)?.floor()),
            Idx::Min(a, b) => Ok(a.eval(env)?.min(b.eval(env)?)),
            Idx::Max(a, b) => Ok(a.eval(env)?.max(b.eval(env)?)),
            Idx::Log2(a) => Ok(a.eval(env)?.log2_total()),
            Idx::Pow2(a) => Ok(a.eval(env)?.pow2_total()),
            Idx::Sum { var, lo, hi, body } => {
                let lo = lo.eval(env)?;
                let hi = hi.eval(env)?;
                let (lo, hi) = match (lo.finite(), hi.finite()) {
                    (Some(l), Some(h)) => (l, h),
                    _ => return Err(EvalError::InfiniteSumBound),
                };
                // Inclusive integer range from ceil(lo) to floor(hi).
                let lo = lo.ceil().numerator();
                let hi = hi.floor().numerator();
                if hi < lo {
                    return Ok(Extended::ZERO);
                }
                let count = (hi - lo + 1) as u64;
                if count > MAX_SUM_TERMS {
                    return Err(EvalError::SumRangeTooLarge(count));
                }
                let mut acc = Extended::ZERO;
                let mut inner = env.clone();
                for k in lo..=hi {
                    inner.bind(var.clone(), Extended::from(k));
                    acc = acc + body.eval(&inner)?;
                }
                Ok(acc)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::Rational;

    fn env(pairs: &[(&str, i64)]) -> IdxEnv {
        IdxEnv::from_pairs(pairs.iter().map(|(v, n)| (*v, Extended::from(*n))))
    }

    #[test]
    fn arithmetic_evaluation() {
        let e = env(&[("n", 10), ("a", 3)]);
        let i = (Idx::var("n") - Idx::var("a")) * Idx::nat(2);
        assert_eq!(i.eval(&e).unwrap(), Extended::from(14));
    }

    #[test]
    fn ceil_floor_and_halves() {
        let e = env(&[("n", 7)]);
        assert_eq!(
            Idx::half_ceil(Idx::var("n")).eval(&e).unwrap(),
            Extended::from(4)
        );
        assert_eq!(
            Idx::half_floor(Idx::var("n")).eval(&e).unwrap(),
            Extended::from(3)
        );
    }

    #[test]
    fn min_max_log_pow() {
        let e = env(&[("a", 5), ("b", 9)]);
        assert_eq!(
            Idx::min(Idx::var("a"), Idx::var("b")).eval(&e).unwrap(),
            Extended::from(5)
        );
        assert_eq!(
            Idx::max(Idx::var("a"), Idx::var("b")).eval(&e).unwrap(),
            Extended::from(9)
        );
        assert_eq!(Idx::pow2(Idx::nat(5)).eval(&e).unwrap(), Extended::from(32));
        assert_eq!(Idx::log2(Idx::nat(32)).eval(&e).unwrap(), Extended::from(5));
        // log2 is totalized at 0.
        assert_eq!(Idx::log2(Idx::nat(0)).eval(&e).unwrap(), Extended::from(0));
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let e = IdxEnv::new();
        assert_eq!(
            Idx::var("missing").eval(&e),
            Err(EvalError::UnboundVariable(IdxVar::new("missing")))
        );
    }

    #[test]
    fn summation_evaluates_inclusively_and_empty_ranges_are_zero() {
        let e = env(&[("n", 4)]);
        // Σ_{i=0}^{4} i = 10
        let s = Idx::sum("i", Idx::zero(), Idx::var("n"), Idx::var("i"));
        assert_eq!(s.eval(&e).unwrap(), Extended::from(10));
        // Empty range.
        let s = Idx::sum("i", Idx::nat(3), Idx::nat(2), Idx::var("i"));
        assert_eq!(s.eval(&e).unwrap(), Extended::ZERO);
    }

    #[test]
    fn merge_sort_recurrence_shape_evaluates() {
        // Q(n, α) = Σ_{i=0}^{H} ceil(2^i / 2) * min(α, 2^(H - i)), H = ceil(log2 n).
        let h = Idx::ceil(Idx::log2(Idx::var("n")));
        let q = Idx::sum(
            "i",
            Idx::zero(),
            h.clone(),
            Idx::ceil(Idx::pow2(Idx::var("i")) / Idx::nat(2))
                * Idx::min(Idx::var("alpha"), Idx::pow2(h.clone() - Idx::var("i"))),
        );
        let e = env(&[("n", 8), ("alpha", 2)]);
        // H = 3; terms: i=0: ceil(1/2)*min(2,8)=1*2=2 ; i=1: 1*2=2 ; i=2: 2*2=4 ; i=3: 4*1=4 → 12
        assert_eq!(q.eval(&e).unwrap(), Extended::from(12));
    }

    #[test]
    fn division_by_zero_is_unbounded() {
        let e = IdxEnv::new();
        assert_eq!(
            (Idx::nat(1) / Idx::zero()).eval(&e).unwrap(),
            Extended::Infinity
        );
    }

    #[test]
    fn rational_results_are_exact() {
        let e = IdxEnv::new();
        let i = Idx::nat(1) / Idx::nat(3) + Idx::nat(2) / Idx::nat(3);
        assert_eq!(i.eval(&e).unwrap(), Extended::Finite(Rational::ONE));
    }
}
