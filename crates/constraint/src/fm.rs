//! A complete decision procedure for linear rational arithmetic over atoms:
//! Fourier–Motzkin variable elimination with integer tightening — the
//! solver's one symbolic prover, run before the numeric grid.
//!
//! An entailment `facts ⟹ goal` is decided by refutation: the negation of
//! the goal is put in disjunctive normal form over atomic comparisons, each
//! branch is conjoined with the linear facts (plus non-negativity of every
//! atom — sizes, difference counts and costs are all non-negative in
//! RelCost), and Fourier–Motzkin elimination drives the system to a ground
//! contradiction or a witness:
//!
//! * **every branch infeasible** → the entailment holds over the reals, and
//!   therefore over the naturals — the verdict is a *proof*, no grid point
//!   is ever evaluated;
//! * **some branch feasible** → the elimination's witness assigns values to
//!   *atoms*, which are free variables of the abstraction only: `⌈n/2⌉` and
//!   `n` are distinct atoms the abstraction can set inconsistently.  A
//!   feasible branch is therefore only a **candidate** counterexample and
//!   the query falls through to the numeric layer unchanged;
//! * **limits exceeded** (atom count, row count, branch fan-out, coefficient
//!   growth) → the procedure abstains, again falling through.
//!
//! **Ground rows.**  `∞` never enters a system, but two shapes that mention
//! it are decided outright: a comparison whose larger side is `∞` at every
//! point, against an `∞`-free side, is the trivial row `0 ≥ 0` (its negation
//! the infeasible row `0 > 0`), and an `ff` fact is the infeasible row.
//!
//! **Integer tightening.**  ℕ-sorted variables and `⌈·⌉`/`⌊·⌋` atoms take
//! integer values.  A row whose atoms are all integer-valued is scaled to
//! integer coefficients, divided by their gcd, and its constant floored
//! (`Σ ≥ -c  ⟺  Σ ≥ ⌈-c⌉` for integer `Σ`); strict rows become non-strict
//! (`Σ > -c  ⟺  Σ ≥ ⌊-c⌋ + 1`).  Tightening only shrinks the feasible set
//! of the *abstraction* towards assignments every concrete model already
//! satisfies, so refutations stay sound — and it is what lets FM decide
//! `3 ≤ n ⟹ 1 < n`-style strict obligations without a grid.
//!
//! The same elimination core implements exact `∃`-projection over the
//! non-negative reals ([`project_reals`]), which `exelim` uses to discharge
//! leftover real-sorted (cost) existentials that candidate substitution
//! missed.
//!
//! **Interning and memoization.**  Rows are vectors of `(AtomId, Rational)`
//! pairs over a per-solver atom table ([`FmMemo`]): structural atom
//! equality, hashing, sorting and pivot bookkeeping are integer operations,
//! and every per-atom property elimination consults (`∞`-freeness,
//! integrality, product factors) is computed once at interning time.  Next
//! to the table sit two memos, verified by the dual-hash scheme of the
//! engine's `DefIndex`: per-fact row conversion, and whole-query outcomes —
//! the memo the solver's `fm_memo_hits`/`fm_memo_misses` counters report,
//! one lookup per [`prove`] call.  The sub-goals one definition decomposes
//! into repeat heavily, so a repeated query is answered without conversion
//! or elimination.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

use rel_index::{Atom, Extended, Idx, IdxVar, LinExpr, Rational, Sort};

use crate::cache::{Fnv1a, ShardedMap};
use crate::constr::Constr;
use crate::solver::SearchExhaustedReason;

/// Resource limits of one FM run.  All three exist to bound the
/// worst-case double-exponential blow-up of elimination; hitting any of
/// them abstains (falls through to the numeric layer) rather than erring.
#[derive(Debug, Clone)]
pub struct FmLimits {
    /// Maximum distinct atoms in the system (elimination is per-atom).
    pub max_atoms: usize,
    /// Maximum rows alive at any point of the elimination.
    pub max_rows: usize,
    /// Maximum DNF branches of the negated goal.
    pub max_branches: usize,
}

impl Default for FmLimits {
    fn default() -> Self {
        FmLimits {
            max_atoms: 32,
            max_rows: 1_024,
            max_branches: 16,
        }
    }
}

/// Coefficient-magnitude cap (numerator and denominator).  All elimination
/// and witness arithmetic goes through the checked helpers below
/// ([`checked_rat`] and friends): `i128` intermediates for in-bounds
/// operands cannot overflow, and any *reduced* result past the cap makes
/// the run abstain instead of reaching `Rational`'s panicking operators.
const MAX_MAGNITUDE: i64 = 1 << 30;

/// The verdict of one FM entailment attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FmVerdict {
    /// Every branch of the negated goal is infeasible: the entailment is
    /// proved (sound — no grid evaluation needed).
    Proved,
    /// Some branch is feasible in the linear abstraction.  Over opaque
    /// atoms this is only a *candidate* counterexample; the caller must
    /// fall through to the numeric layer.
    CandidateRefuted,
    /// The query is outside the fragment or exceeded the limits.
    Abstained,
}

/// The outcome of an FM run: verdict plus the elimination order actually
/// used (surfaced in failure diagnostics).
#[derive(Debug, Clone)]
pub struct FmOutcome {
    /// The verdict.
    pub verdict: FmVerdict,
    /// Display names of the atoms eliminated, in elimination order, for the
    /// decisive branch (the feasible one on `CandidateRefuted`, the last
    /// one on `Proved`).
    pub eliminated: Vec<String>,
    /// On `CandidateRefuted`, a satisfying assignment of the feasible
    /// branch *when every atom of the system is a plain index variable*
    /// (back-substituted through the elimination, integer values for
    /// ℕ-sorted variables).  With only plain variables there is no
    /// abstraction gap left — the caller still re-verifies the point by
    /// direct evaluation before trusting it, which is what keeps a
    /// witness-backed `Invalid` exactly as sound as a grid counterexample.
    pub witness: Option<Vec<(IdxVar, Rational)>>,
    /// 1 when the whole-query memo answered this call, else 0.
    pub memo_hits: usize,
    /// 1 when this call missed the whole-query memo and was decided, else 0.
    pub memo_misses: usize,
}

impl FmOutcome {
    /// An outcome decided on a whole-query memo miss.
    fn decided(
        verdict: FmVerdict,
        eliminated: Vec<String>,
        witness: Option<Vec<(IdxVar, Rational)>>,
    ) -> FmOutcome {
        FmOutcome {
            verdict,
            eliminated,
            witness,
            memo_hits: 0,
            memo_misses: 1,
        }
    }
}

// ---------------------------------------------------------------------------
// Interned atoms
// ---------------------------------------------------------------------------

/// Handle of an interned atom in a solver's [`FmMemo`] table.
type AtomId = u32;

/// One interned atom with every property the elimination core consults —
/// computed once at interning time instead of re-inspecting the atom's tree
/// per row, per branch, per query.  Rows carry `u32` ids, so structural
/// equality, hashing, sorting and pivot bookkeeping are integer operations;
/// the tree form is only touched again for diagnostics and witness
/// concretization.
#[derive(Debug)]
struct AtomInfo {
    /// The atom itself (diagnostics, deterministic tie-breaking, witness
    /// concretization).
    atom: Atom,
    /// `∞` occurs somewhere inside: outside the finite-linear fragment, any
    /// row mentioning it is unusable.
    infinite: bool,
    /// Integer-valued regardless of variable sorts (`⌈·⌉`/`⌊·⌋` results).
    always_integer: bool,
    /// The variable, when the atom is a plain `Idx::Var`.
    var: Option<IdxVar>,
    /// For product atoms `x · y`, the interned ids of the two factors.
    factors: Option<(AtomId, AtomId)>,
}

// ---------------------------------------------------------------------------
// Memo
// ---------------------------------------------------------------------------

/// Entry cap of each memo map; a full map is wholesale-cleared (epoch
/// eviction, like every other memo of the solver).
const FM_MEMO_MAX_ENTRIES: usize = 8_192;

/// Salt separating the verify-hash stream from the primary one (an
/// arbitrary odd constant, 2⁶⁴/φ — the same scheme as the engine's
/// `DefIndex`).
const FM_VERIFY_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Per-solver Fourier–Motzkin working memory: the interned atom table plus
/// two memos keyed by the dual-hash scheme of the engine's `DefIndex` — the
/// primary hash of the inputs selects the bucket and an independently
/// seeded verify hash over the same stream is the key.  The full inputs
/// are deliberately not stored, so an accidental primary-hash collision is
/// a miss, never a wrong replay (~2⁻⁶⁴ at birthday scale for any feasible
/// memo size) — and a replayed refutation is re-checked by the caller
/// anyway before an `Invalid` is trusted.
#[derive(Debug)]
pub struct FmMemo {
    /// Interned atoms (`AtomId` indexes this table).
    atoms: Vec<AtomInfo>,
    /// Dedup index for interning.
    atom_ids: HashMap<Atom, AtomId>,
    /// Per-fact row conversion: one hypothesis fact re-enters `prove` with
    /// every sub-goal of its definition, and its `LinExpr` decomposition is
    /// identical each time.
    fact_rows: ShardedMap<u64, Vec<Row>>,
    /// Whole-query outcomes: `(facts, ℕ-sorted variables, goal) →
    /// FmOutcome`, stored with `memo_hits = 1` so a hit returns the entry
    /// as is.  The ℕ-sorted variables are part of the key because integer
    /// tightening and the witness's sort check depend on them.
    queries: ShardedMap<u64, FmOutcome>,
}

impl Default for FmMemo {
    fn default() -> Self {
        FmMemo {
            atoms: Vec::new(),
            atom_ids: HashMap::new(),
            fact_rows: ShardedMap::new(1, FM_MEMO_MAX_ENTRIES),
            queries: ShardedMap::new(1, FM_MEMO_MAX_ENTRIES),
        }
    }
}

impl FmMemo {
    /// Interns an atom (and, for products, its factors), computing its
    /// elimination-relevant properties once.
    fn intern(&mut self, atom: &Atom) -> AtomId {
        if let Some(&id) = self.atom_ids.get(atom) {
            return id;
        }
        let factors = if let Idx::Mul(x, y) = &atom.0 {
            let fx = self.intern(&Atom((**x).clone()));
            let fy = self.intern(&Atom((**y).clone()));
            Some((fx, fy))
        } else {
            None
        };
        let id = u32::try_from(self.atoms.len()).expect("FM atom table overflow");
        self.atoms.push(AtomInfo {
            atom: atom.clone(),
            infinite: mentions_infty(&atom.0),
            always_integer: matches!(atom.0, Idx::Ceil(_) | Idx::Floor(_)),
            var: match &atom.0 {
                Idx::Var(v) => Some(v.clone()),
                _ => None,
            },
            factors,
        });
        self.atom_ids.insert(atom.clone(), id);
        id
    }

    /// Converts a linear expression to a row, rejecting `∞` (in the
    /// constant or buried inside an atom).
    fn lin_row(&mut self, lin: &LinExpr, strict: bool) -> Option<Row> {
        let constant = lin.constant.finite()?;
        let mut coeffs = Vec::with_capacity(lin.coeffs.len());
        for (atom, q) in &lin.coeffs {
            let id = self.intern(atom);
            if self.atoms[id as usize].infinite {
                return None;
            }
            coeffs.push((id, *q));
        }
        coeffs.sort_unstable_by_key(|(id, _)| *id);
        Some(Row {
            coeffs,
            constant,
            strict,
        })
    }

    /// The row for `pos − neg {≥,>} 0`; `None` when either side leaves the
    /// finite-linear fragment.  A side that is `∞` at every point, against
    /// an `∞`-free side, settles the comparison: true when it is `pos`,
    /// false when it is `neg`.
    fn row_of(&mut self, pos: &Idx, neg: &Idx, strict: bool) -> Option<Row> {
        if always_infinite(pos) && !mentions_infty(neg) {
            return Some(ground_row(false));
        }
        if always_infinite(neg) && !mentions_infty(pos) {
            return Some(ground_row(true));
        }
        let lp = LinExpr::of_idx(pos);
        lp.constant.finite()?;
        let ln = LinExpr::of_idx(neg);
        ln.constant.finite()?;
        self.lin_row(&lp.sub(&ln), strict)
    }

    /// Converts one hypothesis fact into its rows (memoized): `Eq`
    /// contributes both directions, `Leq`/`Lt` one row each, `ff` the
    /// infeasible row; anything else (including facts that mention `∞`
    /// outside the ground shapes of [`FmMemo::row_of`]) contributes nothing
    /// — proving from fewer hypotheses is always sound.
    fn fact_rows_cached(&mut self, fact: &Constr, hash: u64, verify: u64) -> Vec<Row> {
        if let Some(rows) = self.fact_rows.get(hash, |&v| v == verify) {
            return rows;
        }
        let mut rows = Vec::new();
        match fact {
            Constr::Leq(a, b) => {
                if let Some(r) = self.row_of(b, a, false) {
                    rows.push(r);
                }
            }
            Constr::Lt(a, b) => {
                if let Some(r) = self.row_of(b, a, true) {
                    rows.push(r);
                }
            }
            Constr::Eq(a, b) => {
                if let (Some(r1), Some(r2)) = (self.row_of(b, a, false), self.row_of(a, b, false)) {
                    rows.push(r1);
                    rows.push(r2);
                }
            }
            Constr::Bot => rows.push(ground_row(true)),
            _ => {}
        }
        self.fact_rows.insert(hash, verify, rows.clone());
        rows
    }
}

// ---------------------------------------------------------------------------
// Rows
// ---------------------------------------------------------------------------

/// One constraint row `Σ qᵢ·atomᵢ + c ≥ 0` (or `> 0` when `strict`), over
/// interned atom ids.  Coefficients are sorted by id and zero-free; the
/// constant is always finite — `∞` never enters a system.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Row {
    /// `(atom, coefficient)` pairs, sorted by atom id.
    coeffs: Vec<(AtomId, Rational)>,
    /// The additive constant.
    constant: Rational,
    /// `true` for a strict bound.
    strict: bool,
}

impl Row {
    /// `true` while every coefficient and the constant stay within
    /// [`MAX_MAGNITUDE`].
    fn in_bounds(&self) -> bool {
        rat_in_bounds(self.constant) && self.coeffs.iter().all(|(_, q)| rat_in_bounds(*q))
    }

    /// Removes an atom's column, returning its previous coefficient (zero
    /// when absent).
    fn remove_atom(&mut self, id: AtomId) -> Rational {
        match self.coeffs.binary_search_by_key(&id, |(i, _)| *i) {
            Ok(pos) => self.coeffs.remove(pos).1,
            Err(_) => Rational::ZERO,
        }
    }

    /// Evaluates the row's expression under a (total, for this row's atoms)
    /// assignment; `None` on unassigned atoms or overflow.
    fn eval(&self, assignment: &BTreeMap<AtomId, Rational>) -> Option<Rational> {
        let mut acc = self.constant;
        for (id, q) in &self.coeffs {
            acc = rat_add(acc, rat_mul(*q, *assignment.get(id)?)?)?;
        }
        Some(acc)
    }
}

// ---------------------------------------------------------------------------
// Checked rational arithmetic
// ---------------------------------------------------------------------------
//
// `Rational`'s operators panic when a *reduced* result overflows `i64`.
// Bounded inputs do not make reduced outputs bounded (the gcd can be 1), so
// every arithmetic step of elimination and witness extraction goes through
// these checked helpers instead: `None` makes the run abstain (falling
// through to the numeric layer) where the raw operators would abort the
// process.  All intermediates are `i128`, far from overflow for in-bounds
// operands.

fn rat_in_bounds(q: Rational) -> bool {
    q.numerator().abs() <= MAX_MAGNITUDE && q.denominator() <= MAX_MAGNITUDE
}

/// Builds a reduced rational, requiring the result within [`MAX_MAGNITUDE`].
fn checked_rat(num: i128, den: i128) -> Option<Rational> {
    debug_assert!(den != 0);
    let sign = if den < 0 { -1 } else { 1 };
    let g = gcd_i128(num, den).max(1);
    let num = sign * num / g;
    let den = sign * den / g;
    if num.abs() > MAX_MAGNITUDE as i128 || den > MAX_MAGNITUDE as i128 {
        return None;
    }
    Some(Rational::new(num as i64, den as i64))
}

fn rat_mul(a: Rational, b: Rational) -> Option<Rational> {
    checked_rat(
        a.numerator() as i128 * b.numerator() as i128,
        a.denominator() as i128 * b.denominator() as i128,
    )
}

fn rat_add(a: Rational, b: Rational) -> Option<Rational> {
    checked_rat(
        a.numerator() as i128 * b.denominator() as i128
            + b.numerator() as i128 * a.denominator() as i128,
        a.denominator() as i128 * b.denominator() as i128,
    )
}

fn rat_div(a: Rational, b: Rational) -> Option<Rational> {
    if b.is_zero() {
        return None;
    }
    checked_rat(
        a.numerator() as i128 * b.denominator() as i128,
        a.denominator() as i128 * b.numerator() as i128,
    )
}

/// `lo/a + up/(-b)` over whole residual rows: the Fourier–Motzkin
/// combination of a lower-bound row (`a > 0`) and an upper-bound row
/// (`b < 0`) after the pivot column was removed.  The two sorted coefficient
/// vectors merge in one pass.  `None` on any overflow of the magnitude cap.
fn combine_rows(lo: &Row, a: Rational, up: &Row, b: Rational) -> Option<Row> {
    let inv_a = rat_div(Rational::ONE, a)?;
    let inv_nb = rat_div(Rational::ONE, Rational::ZERO - b)?;
    let mut coeffs = Vec::with_capacity(lo.coeffs.len() + up.coeffs.len());
    let (mut i, mut j) = (0, 0);
    while i < lo.coeffs.len() || j < up.coeffs.len() {
        let take_lo = match (lo.coeffs.get(i), up.coeffs.get(j)) {
            (Some((li, _)), Some((uj, _))) => {
                if li == uj {
                    let q = rat_add(
                        rat_mul(lo.coeffs[i].1, inv_a)?,
                        rat_mul(up.coeffs[j].1, inv_nb)?,
                    )?;
                    if !q.is_zero() {
                        coeffs.push((*li, q));
                    }
                    i += 1;
                    j += 1;
                    continue;
                }
                li < uj
            }
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => unreachable!("loop condition"),
        };
        if take_lo {
            let (id, q) = lo.coeffs[i];
            let q = rat_mul(q, inv_a)?;
            if !q.is_zero() {
                coeffs.push((id, q));
            }
            i += 1;
        } else {
            let (id, q) = up.coeffs[j];
            let q = rat_mul(q, inv_nb)?;
            if !q.is_zero() {
                coeffs.push((id, q));
            }
            j += 1;
        }
    }
    let constant = rat_add(rat_mul(lo.constant, inv_a)?, rat_mul(up.constant, inv_nb)?)?;
    Some(Row {
        coeffs,
        constant,
        strict: lo.strict || up.strict,
    })
}

/// Does the index term mention `∞` anywhere?  Such atoms are outside the
/// finite-linear fragment (checked once per atom, at interning time).
fn mentions_infty(idx: &Idx) -> bool {
    match idx {
        Idx::Infty => true,
        Idx::Var(_) | Idx::Const(_) => false,
        Idx::Add(a, b)
        | Idx::Sub(a, b)
        | Idx::Mul(a, b)
        | Idx::Div(a, b)
        | Idx::Min(a, b)
        | Idx::Max(a, b) => mentions_infty(a) || mentions_infty(b),
        Idx::Ceil(a) | Idx::Floor(a) | Idx::Log2(a) | Idx::Pow2(a) => mentions_infty(a),
        Idx::Sum { lo, hi, body, .. } => {
            mentions_infty(lo) || mentions_infty(hi) || mentions_infty(body)
        }
    }
}

/// Is the index term `∞` at every point?  Conservative: `∞` itself, a sum
/// or maximum with such an operand, a minimum of two, or such a term minus
/// an `∞`-free one.
fn always_infinite(idx: &Idx) -> bool {
    match idx {
        Idx::Infty => true,
        Idx::Add(a, b) | Idx::Max(a, b) => always_infinite(a) || always_infinite(b),
        Idx::Min(a, b) => always_infinite(a) && always_infinite(b),
        Idx::Sub(a, b) => always_infinite(a) && !mentions_infty(b),
        _ => false,
    }
}

/// The row without atoms `0 ≥ 0` (trivially satisfied) or, when `strict`,
/// `0 > 0` (infeasible).
fn ground_row(strict: bool) -> Row {
    Row {
        coeffs: Vec::new(),
        constant: Rational::ZERO,
        strict,
    }
}

// ---------------------------------------------------------------------------
// DNF of goals and their negations
// ---------------------------------------------------------------------------

type Branches = Vec<Vec<Row>>;

fn cross(a: Branches, b: Branches, cap: usize) -> Option<Branches> {
    if a.len().checked_mul(b.len())? > cap {
        return None;
    }
    let mut out = Vec::with_capacity(a.len() * b.len());
    for x in &a {
        for y in &b {
            let mut branch = x.clone();
            branch.extend(y.iter().cloned());
            out.push(branch);
        }
    }
    Some(out)
}

fn union(a: Branches, b: Branches, cap: usize) -> Option<Branches> {
    if a.len() + b.len() > cap {
        return None;
    }
    let mut out = a;
    out.extend(b);
    Some(out)
}

/// DNF of `c` itself, as branches of conjoined rows.  `None` when `c` is
/// outside the quantifier-free comparison fragment.
fn pos_branches(c: &Constr, cap: usize, memo: &mut FmMemo) -> Option<Branches> {
    match c {
        Constr::Top => Some(vec![vec![]]),
        Constr::Bot => Some(vec![]),
        Constr::Eq(a, b) => Some(vec![vec![
            memo.row_of(b, a, false)?,
            memo.row_of(a, b, false)?,
        ]]),
        Constr::Leq(a, b) => Some(vec![vec![memo.row_of(b, a, false)?]]),
        Constr::Lt(a, b) => Some(vec![vec![memo.row_of(b, a, true)?]]),
        Constr::And(cs) => {
            let mut acc = vec![vec![]];
            for c in cs {
                acc = cross(acc, pos_branches(c, cap, memo)?, cap)?;
            }
            Some(acc)
        }
        Constr::Or(cs) => {
            let mut acc = vec![];
            for c in cs {
                acc = union(acc, pos_branches(c, cap, memo)?, cap)?;
            }
            Some(acc)
        }
        Constr::Not(c) => neg_branches(c, cap, memo),
        Constr::Implies(a, b) => union(
            neg_branches(a, cap, memo)?,
            pos_branches(b, cap, memo)?,
            cap,
        ),
        Constr::Forall(_, _) | Constr::Exists(_, _) => None,
    }
}

/// DNF of `¬c`.
fn neg_branches(c: &Constr, cap: usize, memo: &mut FmMemo) -> Option<Branches> {
    match c {
        Constr::Top => Some(vec![]),
        Constr::Bot => Some(vec![vec![]]),
        // ¬(a = b) splits: a > b or b > a.
        Constr::Eq(a, b) => Some(vec![
            vec![memo.row_of(a, b, true)?],
            vec![memo.row_of(b, a, true)?],
        ]),
        Constr::Leq(a, b) => Some(vec![vec![memo.row_of(a, b, true)?]]),
        Constr::Lt(a, b) => Some(vec![vec![memo.row_of(a, b, false)?]]),
        Constr::And(cs) => {
            let mut acc = vec![];
            for c in cs {
                acc = union(acc, neg_branches(c, cap, memo)?, cap)?;
            }
            Some(acc)
        }
        Constr::Or(cs) => {
            let mut acc = vec![vec![]];
            for c in cs {
                acc = cross(acc, neg_branches(c, cap, memo)?, cap)?;
            }
            Some(acc)
        }
        Constr::Not(c) => pos_branches(c, cap, memo),
        Constr::Implies(a, b) => cross(
            pos_branches(a, cap, memo)?,
            neg_branches(b, cap, memo)?,
            cap,
        ),
        Constr::Forall(_, _) | Constr::Exists(_, _) => None,
    }
}

// ---------------------------------------------------------------------------
// Normalization and integer tightening
// ---------------------------------------------------------------------------

/// Is the atom integer-valued?  ℕ-sorted variables and `⌈·⌉`/`⌊·⌋` atoms
/// are; everything else is treated as real (`2^x`/`log₂ x` would also
/// qualify for natural arguments, but their arguments' sorts are not
/// tracked per-atom, so they stay untightened — sound, merely weaker).
fn is_integer_atom(table: &[AtomInfo], nat_vars: &BTreeSet<IdxVar>, id: AtomId) -> bool {
    let info = &table[id as usize];
    info.always_integer || info.var.as_ref().is_some_and(|v| nat_vars.contains(v))
}

fn gcd_i128(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Scales a row whose atoms are all integer-valued to coprime integer
/// coefficients and rounds the constant: the floor-based bound tightening
/// that makes strict ℕ-bounds decidable without a grid.  Leaves the row
/// untouched (still sound) when scaling would exceed the magnitude cap.
fn tighten_integer_row(row: &mut Row, table: &[AtomInfo], nat_vars: &BTreeSet<IdxVar>) {
    if row.coeffs.is_empty() {
        return;
    }
    // Precondition for the panic-free scaling below: in-bounds operands.
    // (Out-of-bounds rows are rejected by `normalize_system` right after.)
    if !row.in_bounds() {
        return;
    }
    if !row
        .coeffs
        .iter()
        .all(|(id, _)| is_integer_atom(table, nat_vars, *id))
    {
        return;
    }
    // lcm of the coefficient denominators.
    let mut lcm: i128 = 1;
    for (_, q) in &row.coeffs {
        let den = q.denominator() as i128;
        lcm = lcm / gcd_i128(lcm, den) * den;
        if lcm > MAX_MAGNITUDE as i128 {
            return;
        }
    }
    let scale = Rational::from_int(lcm as i64);
    let mut coeffs = Vec::with_capacity(row.coeffs.len());
    for (id, q) in &row.coeffs {
        match rat_mul(*q, scale) {
            Some(scaled) => coeffs.push((*id, scaled)),
            None => return,
        }
    }
    let Some(mut constant) = rat_mul(row.constant, scale) else {
        return;
    };
    // Divide through by the gcd of the (now integral) coefficients.
    let mut g: i128 = 0;
    for (_, q) in &coeffs {
        debug_assert!(q.is_integer());
        g = gcd_i128(g, q.numerator() as i128);
    }
    if g > 1 && g <= MAX_MAGNITUDE as i128 {
        let shrink = Rational::new(1, g as i64);
        for (_, q) in coeffs.iter_mut() {
            match rat_mul(*q, shrink) {
                Some(v) => *q = v,
                None => return,
            }
        }
        constant = match rat_mul(constant, shrink) {
            Some(v) => v,
            None => return,
        };
    }
    // Σ + c > 0  ⟺  Σ ≥ ⌊-c⌋ + 1;  Σ + c ≥ 0  ⟺  Σ ≥ ⌈-c⌉  (Σ integral).
    let tightened = if row.strict {
        Rational::ZERO - ((Rational::ZERO - constant).floor() + Rational::ONE)
    } else {
        constant.floor()
    };
    let candidate = Row {
        coeffs,
        constant: tightened,
        strict: false,
    };
    if candidate.in_bounds() {
        *row = candidate;
    }
}

enum RowStatus {
    /// Trivially satisfied — drop.
    Trivial,
    /// Ground contradiction — the whole branch is infeasible.
    Contradiction,
    /// Keep (possibly tightened).
    Keep,
}

fn classify(row: &mut Row, table: &[AtomInfo], nat_vars: &BTreeSet<IdxVar>) -> RowStatus {
    tighten_integer_row(row, table, nat_vars);
    if row.coeffs.is_empty() {
        let c = row.constant;
        let sat = if row.strict {
            !c.is_negative() && !c.is_zero()
        } else {
            !c.is_negative()
        };
        return if sat {
            RowStatus::Trivial
        } else {
            RowStatus::Contradiction
        };
    }
    RowStatus::Keep
}

/// Normalizes a system into canonical form: tightens and classifies every
/// row, detects ground contradictions, sorts the rows, and keeps only the
/// tightest bound per coefficient vector (base facts recur in every branch,
/// and combination steps produce duplicates; over id vectors the dedup is
/// cheap enough to run unconditionally).  `Ok(None)` means a ground
/// contradiction (the branch is infeasible); `Err(())` means a magnitude
/// blow-up (abstain).
fn normalize_system(
    rows: Vec<Row>,
    table: &[AtomInfo],
    nat_vars: &BTreeSet<IdxVar>,
) -> Result<Option<Vec<Row>>, ()> {
    let mut kept: Vec<Row> = Vec::with_capacity(rows.len());
    for mut row in rows {
        match classify(&mut row, table, nat_vars) {
            RowStatus::Trivial => continue,
            RowStatus::Contradiction => return Ok(None),
            RowStatus::Keep => {}
        }
        if !row.in_bounds() {
            return Err(());
        }
        kept.push(row);
    }
    canonical_merge(&mut kept);
    Ok(Some(kept))
}

/// Sorts rows into canonical order — by coefficient vector, then tightest
/// first (smaller constant is tighter; at equal constants strict is
/// tighter) — and keeps only the tightest bound per coefficient vector (a
/// looser bound over the same coefficients is implied by it).
fn canonical_merge(rows: &mut Vec<Row>) {
    rows.sort_unstable_by(|a, b| {
        a.coeffs
            .cmp(&b.coeffs)
            .then_with(|| a.constant.cmp(&b.constant))
            .then_with(|| b.strict.cmp(&a.strict))
    });
    rows.dedup_by(|a, b| a.coeffs == b.coeffs);
}

// ---------------------------------------------------------------------------
// Elimination
// ---------------------------------------------------------------------------

enum ElimResult {
    /// The system is infeasible.
    Unsat,
    /// All atoms eliminated without contradiction: feasible (in the
    /// abstraction).
    Sat,
    /// Limits exceeded; the payload names the cap that fired (row/magnitude
    /// overflows map to `RowCap`, the distinct-atom ceiling to `BranchCap`).
    Abstain(SearchExhaustedReason),
}

/// The bound rows a pivot was eliminated under, kept for witness
/// back-substitution: each entry is the row with the pivot's column removed,
/// paired with the pivot coefficient.
struct ElimStep {
    atom: AtomId,
    /// Rows with a positive pivot coefficient: `pivot ≥ -eval(row)/a`.
    lower: Vec<(Row, Rational)>,
    /// Rows with a negative pivot coefficient: `pivot ≤ eval(row)/(-b)`.
    upper: Vec<(Row, Rational)>,
}

/// Runs the full elimination, recording the order atoms were projected and
/// (for witness extraction) the bound rows each pivot was eliminated under.
fn eliminate(
    mut rows: Vec<Row>,
    table: &[AtomInfo],
    nat_vars: &BTreeSet<IdxVar>,
    limits: &FmLimits,
    order: &mut Vec<String>,
    steps: &mut Vec<ElimStep>,
) -> ElimResult {
    // The input system arrives normalized; inside the loop only freshly
    // *combined* rows need
    // tightening and classification — everything else is already in normal
    // form, so re-normalizing the whole system per round would triple the
    // elimination cost for nothing.
    let mut fresh_from = rows.len();
    loop {
        let mut kept: Vec<Row> = Vec::with_capacity(rows.len());
        for (i, row) in rows.into_iter().enumerate() {
            let mut row = row;
            if i >= fresh_from {
                match classify(&mut row, table, nat_vars) {
                    RowStatus::Trivial => continue,
                    RowStatus::Contradiction => return ElimResult::Unsat,
                    RowStatus::Keep => {}
                }
                if !row.in_bounds() {
                    return ElimResult::Abstain(SearchExhaustedReason::RowCap);
                }
            }
            kept.push(row);
        }
        rows = kept;
        // Combination grows systems quadratically; prune implied duplicates
        // once a system gets large (on small systems the sort costs more
        // than the duplicates it removes).
        if rows.len() > 48 {
            canonical_merge(&mut rows);
        }
        if rows.len() > limits.max_rows {
            return ElimResult::Abstain(SearchExhaustedReason::RowCap);
        }
        // Count atom occurrences, split by sign, to pick the cheapest pivot.
        let mut signs: BTreeMap<AtomId, (usize, usize)> = BTreeMap::new();
        for row in &rows {
            for (id, q) in &row.coeffs {
                let entry = signs.entry(*id).or_insert((0, 0));
                if q.is_negative() {
                    entry.1 += 1;
                } else {
                    entry.0 += 1;
                }
            }
        }
        if signs.is_empty() {
            return ElimResult::Sat;
        }
        if signs.len() > limits.max_atoms {
            return ElimResult::Abstain(SearchExhaustedReason::BranchCap);
        }
        // Cheapest pivot by (p·n, p+n); ties broken by the atoms'
        // *structural* order, so the elimination order is independent of
        // the id-assignment history of the solver's atom table.
        let pivot = signs
            .iter()
            .map(|(id, &(p, n))| (*id, (p * n, p + n)))
            .min_by(|(ia, ka), (ib, kb)| {
                ka.cmp(kb)
                    .then_with(|| table[*ia as usize].atom.cmp(&table[*ib as usize].atom))
            })
            .map(|(id, _)| id)
            .expect("non-empty sign map");
        order.push(table[pivot as usize].atom.to_string());

        let mut kept = Vec::new();
        let mut lower = Vec::new(); // positive coefficient: pivot bounded below
        let mut upper = Vec::new(); // negative coefficient: pivot bounded above
        for mut row in rows {
            let c = row.remove_atom(pivot);
            if c.is_zero() {
                kept.push(row);
            } else if c.is_negative() {
                upper.push((row, c));
            } else {
                lower.push((row, c));
            }
        }
        // Fresh rows start where the carried-over (pivot-free, already
        // normalized) rows end.
        let carried = kept.len();
        // One-sided bounds project away with their rows.
        if !lower.is_empty() && !upper.is_empty() {
            if carried + lower.len() * upper.len() > limits.max_rows {
                return ElimResult::Abstain(SearchExhaustedReason::RowCap);
            }
            for (lo, a) in &lower {
                for (up, b) in &upper {
                    // lo: a·x + e ≥ 0 (a > 0) gives x ≥ -e/a;
                    // up: b·x + f ≥ 0 (b < 0) gives x ≤ -f/b.
                    // Feasible together iff  -e/a ≤ -f/b, i.e. e/a + f/(-b) ≥ 0.
                    let Some(combined) = combine_rows(lo, *a, up, *b) else {
                        return ElimResult::Abstain(SearchExhaustedReason::RowCap);
                    };
                    kept.push(combined);
                }
            }
        }
        steps.push(ElimStep {
            atom: pivot,
            lower,
            upper,
        });
        fresh_from = carried;
        rows = kept;
    }
}

/// Back-substitutes a satisfying assignment through the elimination steps.
/// ℕ-sorted variables (and `⌈·⌉`/`⌊·⌋` atoms) get integer values; when no
/// integer fits the interval, extraction gives up (`None`) — the refutation
/// stays a candidate and the caller falls through to the grid.
///
/// `prefer_positive` lists atoms that occur as *factors* of product atoms:
/// within its interval, such an atom is nudged to ≥ 1, which is what lets
/// the concretizer later solve `P = x·y` for the remaining factor (a zero
/// factor makes the product inseparable).
fn extract_witness(
    steps: &[ElimStep],
    table: &[AtomInfo],
    nat_vars: &BTreeSet<IdxVar>,
    prefer_positive: &BTreeSet<AtomId>,
) -> Option<BTreeMap<AtomId, Rational>> {
    let mut assignment: BTreeMap<AtomId, Rational> = BTreeMap::new();
    for step in steps.iter().rev() {
        // Tightest bounds under the values chosen so far.
        let mut lo: Option<(Rational, bool)> = None;
        for (row, a) in &step.lower {
            let v = rat_div(Rational::ZERO - row.eval(&assignment)?, *a)?;
            let replace = match &lo {
                None => true,
                Some((cur, cur_strict)) => v > *cur || (v == *cur && row.strict && !*cur_strict),
            };
            if replace {
                lo = Some((v, row.strict));
            }
        }
        let mut hi: Option<(Rational, bool)> = None;
        for (row, b) in &step.upper {
            let v = rat_div(row.eval(&assignment)?, Rational::ZERO - *b)?;
            let replace = match &hi {
                None => true,
                Some((cur, cur_strict)) => v < *cur || (v == *cur && row.strict && !*cur_strict),
            };
            if replace {
                hi = Some((v, row.strict));
            }
        }
        let integral = is_integer_atom(table, nat_vars, step.atom);
        let mut value = match (lo, hi) {
            (None, None) => Rational::ZERO,
            (Some((l, l_strict)), None) => {
                if integral {
                    let c = l.ceil();
                    if l_strict && c == l {
                        rat_add(c, Rational::ONE)?
                    } else {
                        c
                    }
                } else if l_strict {
                    rat_add(l, Rational::ONE)?
                } else {
                    l
                }
            }
            (None, Some((h, h_strict))) => {
                // Every atom carries a non-negativity lower bound while it is
                // still in the system, but a pivot can lose it to earlier
                // eliminations; clamp at zero.
                let base = Rational::ZERO.min(h);
                if h_strict && base == h {
                    return None;
                }
                base
            }
            (Some((l, l_strict)), Some((h, h_strict))) => {
                if integral {
                    let mut c = l.ceil();
                    if l_strict && c == l {
                        c = rat_add(c, Rational::ONE)?;
                    }
                    if c > h || (h_strict && c == h) {
                        return None;
                    }
                    c
                } else if l_strict || h_strict {
                    if l >= h {
                        return None;
                    }
                    rat_div(rat_add(l, h)?, Rational::from_int(2))?
                } else {
                    if l > h {
                        return None;
                    }
                    l
                }
            }
        };
        // Nudge product factors off zero when the interval allows: the
        // bounds only constrain the abstraction, but a strictly positive
        // factor is what makes `P = x·y` solvable for the other factor.
        if value < Rational::ONE && prefer_positive.contains(&step.atom) {
            let one_fits = match hi {
                None => true,
                Some((h, h_strict)) => Rational::ONE < h || (Rational::ONE == h && !h_strict),
            };
            if one_fits {
                value = Rational::ONE;
            }
        }
        // Defensive re-check against every bound row of this step.
        for (row, a) in &step.lower {
            let bound = rat_div(Rational::ZERO - row.eval(&assignment)?, *a)?;
            if value < bound || (row.strict && value == bound) {
                return None;
            }
        }
        for (row, b) in &step.upper {
            let bound = rat_div(row.eval(&assignment)?, Rational::ZERO - *b)?;
            if value > bound || (row.strict && value == bound) {
                return None;
            }
        }
        assignment.insert(step.atom, value);
    }
    Some(assignment)
}

// ---------------------------------------------------------------------------
// Entailment
// ---------------------------------------------------------------------------

/// The `atom ≥ 0` side row: RelCost index terms (sizes, difference counts,
/// costs and every operation over them) denote non-negative quantities.
fn nonneg_row(id: AtomId) -> Row {
    Row {
        coeffs: vec![(id, Rational::ONE)],
        constant: Rational::ZERO,
        strict: false,
    }
}

/// Turns an *atom* assignment into a *variable* assignment: plain-variable
/// atoms bind directly, and product atoms `P = x · y` are solved for a
/// still-unbound variable factor by dividing `P`'s value by the other
/// factor (iterated to a fixed point, so chains of products resolve).
/// Remaining compound atoms are simply dropped — the caller re-verifies the
/// point by direct evaluation, which is the actual soundness gate; a
/// dropped constraint can only make that verification fail (falling back
/// to the grid), never let a wrong counterexample through.
///
/// Gives up (`None`) when a binding would violate its variable's sort —
/// a fractional or negative value for an ℕ-sorted variable is not a point
/// of the concrete domain, so "refuting" there would wrongly reject
/// obligations that hold over the naturals.
fn concretize(
    assignment: &BTreeMap<AtomId, Rational>,
    table: &[AtomInfo],
    universals: &[(IdxVar, Sort)],
) -> Option<Vec<(IdxVar, Rational)>> {
    let mut vars: BTreeMap<IdxVar, Rational> = BTreeMap::new();
    for (id, value) in assignment {
        if let Some(v) = &table[*id as usize].var {
            vars.insert(v.clone(), *value);
        }
    }
    loop {
        let mut changed = false;
        for (id, value) in assignment {
            let Some((fx, fy)) = table[*id as usize].factors else {
                continue;
            };
            for (target, other) in [(fx, fy), (fy, fx)] {
                let Some(v) = &table[target as usize].var else {
                    continue;
                };
                if vars.contains_key(v) {
                    continue;
                }
                let env = rel_index::IdxEnv::from_pairs(
                    vars.iter().map(|(w, q)| (w.clone(), Extended::Finite(*q))),
                );
                let Ok(Extended::Finite(q)) = table[other as usize].atom.0.eval(&env) else {
                    continue;
                };
                if q.is_zero() {
                    continue;
                }
                let Some(solved) = rat_div(*value, q) else {
                    continue;
                };
                vars.insert(v.clone(), solved);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Sort check: every bound universal must hold a point of its domain.
    for (v, sort) in universals {
        if let Some(q) = vars.get(v) {
            if q.is_negative() || (*sort == Sort::Nat && !q.is_integer()) {
                return None;
            }
        }
    }
    if vars.values().any(|q| q.is_negative()) {
        return None;
    }
    Some(vars.into_iter().collect())
}

fn nat_var_set(universals: &[(IdxVar, Sort)]) -> BTreeSet<IdxVar> {
    universals
        .iter()
        .filter(|(_, s)| *s == Sort::Nat)
        .map(|(v, _)| v.clone())
        .collect()
}

/// Decides `facts ⟹ goal` by refuting `facts ∧ ¬goal`, branch by branch.
///
/// `Proved` is sound unconditionally.  `CandidateRefuted` and `Abstained`
/// are inconclusive: the caller falls through to the numeric layer.
///
/// Each call is one lookup in the memo's whole-query map; a miss decides
/// the query and stores its outcome.  The one outcome not stored is a goal
/// whose negated DNF exceeds the branch cap, so its `fm.abstain.branch-cap`
/// event fires on every call.
pub fn prove(
    universals: &[(IdxVar, Sort)],
    facts: &[&Constr],
    goal: &Constr,
    limits: &FmLimits,
    memo: &mut FmMemo,
) -> FmOutcome {
    let nat_vars = nat_var_set(universals);
    // Each fact is hashed once into two independently seeded streams; the
    // per-fact pairs key the fact-row cache, and their combination with the
    // sorts and the goal keys the query memo.
    let mut primary = Fnv1a::default();
    let mut verify = Fnv1a::default();
    verify.write_u64(FM_VERIFY_SALT);
    let hashed_facts: Vec<(&Constr, u64, u64)> = facts
        .iter()
        .map(|fact| {
            let mut h1 = Fnv1a::default();
            fact.hash(&mut h1);
            let mut h2 = Fnv1a::default();
            h2.write_u64(FM_VERIFY_SALT);
            fact.hash(&mut h2);
            let (fh, fv) = (h1.finish(), h2.finish());
            primary.write_u64(fh);
            verify.write_u64(fv);
            (*fact, fh, fv)
        })
        .collect();
    nat_vars.hash(&mut primary);
    nat_vars.hash(&mut verify);
    goal.hash(&mut primary);
    goal.hash(&mut verify);
    let (query_hash, query_verify) = (primary.finish(), verify.finish());
    if let Some(hit) = memo.queries.get(query_hash, |&v| v == query_verify) {
        return hit;
    }
    let Some(branches) = neg_branches(goal, limits.max_branches, memo) else {
        rel_obs::event_with(
            SearchExhaustedReason::BranchCap.fm_event_name(),
            limits.max_branches as u64,
        );
        return FmOutcome::decided(FmVerdict::Abstained, Vec::new(), None);
    };
    let out = decide(universals, &hashed_facts, branches, &nat_vars, limits, memo);
    memo.queries.insert(
        query_hash,
        query_verify,
        FmOutcome {
            memo_hits: 1,
            memo_misses: 0,
            ..out.clone()
        },
    );
    out
}

/// Refutes `facts ∧ branch` for every branch of the negated goal.  The
/// base system (the facts' rows and the
/// non-negativity rows of their atoms) is branch-invariant, so it is
/// normalized once, outside the branch loop; each branch normalizes only
/// its own rows on top (tightening is row-local, so normalizing the parts
/// equals normalizing the whole).
fn decide(
    universals: &[(IdxVar, Sort)],
    facts: &[(&Constr, u64, u64)],
    branches: Branches,
    nat_vars: &BTreeSet<IdxVar>,
    limits: &FmLimits,
    memo: &mut FmMemo,
) -> FmOutcome {
    let mut base: Vec<Row> = Vec::new();
    for (fact, hash, verify) in facts {
        base.extend(memo.fact_rows_cached(fact, *hash, *verify));
    }
    let mut base_atoms: BTreeSet<AtomId> = BTreeSet::new();
    for row in &base {
        base_atoms.extend(row.coeffs.iter().map(|(id, _)| *id));
    }
    base.extend(base_atoms.iter().map(|&id| nonneg_row(id)));
    let base = match normalize_system(base, &memo.atoms, nat_vars) {
        Ok(Some(rows)) => rows,
        // Contradictory hypotheses: every branch is infeasible outright.
        Ok(None) => return FmOutcome::decided(FmVerdict::Proved, Vec::new(), None),
        Err(()) => return FmOutcome::decided(FmVerdict::Abstained, Vec::new(), None),
    };
    let mut eliminated = Vec::new();
    for mut branch in branches {
        // Side rows for the branch's own atoms (those outside the base set).
        let mut branch_atoms: BTreeSet<AtomId> = BTreeSet::new();
        for row in &branch {
            branch_atoms.extend(row.coeffs.iter().map(|(id, _)| *id));
        }
        for id in branch_atoms {
            if !base_atoms.contains(&id) {
                branch.push(nonneg_row(id));
            }
        }
        let rows = match normalize_system(branch, &memo.atoms, nat_vars) {
            Err(()) => return FmOutcome::decided(FmVerdict::Abstained, Vec::new(), None),
            // A ground contradiction closes the branch without elimination.
            Ok(None) => {
                eliminated = Vec::new();
                continue;
            }
            Ok(Some(mut rows)) => {
                rows.extend(base.iter().cloned());
                canonical_merge(&mut rows);
                rows
            }
        };
        // Atoms occurring as factors of product atoms in this system: steer
        // them positive so the concretizer can divide the product value back
        // out.
        let mut prefer_positive: BTreeSet<AtomId> = BTreeSet::new();
        for row in &rows {
            for (id, _) in &row.coeffs {
                if let Some((fx, fy)) = memo.atoms[*id as usize].factors {
                    prefer_positive.insert(fx);
                    prefer_positive.insert(fy);
                }
            }
        }
        let mut order = Vec::new();
        let mut steps = Vec::new();
        match eliminate(rows, &memo.atoms, nat_vars, limits, &mut order, &mut steps) {
            ElimResult::Unsat => eliminated = order,
            ElimResult::Sat => {
                let witness = extract_witness(&steps, &memo.atoms, nat_vars, &prefer_positive)
                    .and_then(|assignment| concretize(&assignment, &memo.atoms, universals));
                return FmOutcome::decided(FmVerdict::CandidateRefuted, order, witness);
            }
            ElimResult::Abstain(cause) => {
                rel_obs::event(cause.fm_event_name());
                return FmOutcome::decided(FmVerdict::Abstained, order, None);
            }
        }
    }
    FmOutcome::decided(FmVerdict::Proved, eliminated, None)
}

// ---------------------------------------------------------------------------
// ∃-projection (exelim reuse)
// ---------------------------------------------------------------------------

/// Rebuilds the index-term form of a row's expression (projection output).
fn row_to_idx(row: &Row, table: &[AtomInfo]) -> Idx {
    let mut lin = LinExpr::constant(Extended::Finite(row.constant));
    for (id, q) in &row.coeffs {
        lin = lin.add(&LinExpr::atom(table[*id as usize].atom.clone()).scale(*q));
    }
    lin.to_idx()
}

/// Projects real-sorted existential variables out of a *conjunctive* matrix
/// by Fourier–Motzkin elimination, returning an equivalent ∃-free
/// constraint over the remaining atoms.
///
/// Exactness: over ℝ, `∃v. conjunction-of-linear-rows` is *equivalent* to
/// the projected system (this is the textbook property of FM projection),
/// so replacing the goal `∃v. M` by the projection neither weakens nor
/// strengthens it.  The variables' sort bound is respected by adding
/// `v ≥ 0` before projecting (RelCost's ℝ sort is the non-negative reals —
/// costs).  ℕ-sorted variables are **not** projected this way: rational
/// projection over-approximates integer satisfiability (the Omega test's
/// dark shadow would be needed), and an over-approximated goal would be
/// unsound to prove.
///
/// Returns `None` when the matrix is not a conjunction of finite-linear
/// comparisons, a variable occurs inside an opaque atom, or limits are
/// exceeded.
pub fn project_reals(matrix: &Constr, vars: &[IdxVar], limits: &FmLimits) -> Option<Constr> {
    let mut abort = None;
    project_reals_with(matrix, vars, limits, &mut abort)
}

/// [`project_reals`] with cap attribution: when the projection fails on a
/// *limit* (rather than a fragment mismatch), `abort` is set to the cap
/// that fired and its configured value, so exelim can report why its last
/// complete move died instead of a generic "no candidate worked".
pub fn project_reals_with(
    matrix: &Constr,
    vars: &[IdxVar],
    limits: &FmLimits,
    abort: &mut Option<(SearchExhaustedReason, u64)>,
) -> Option<Constr> {
    // A throwaway atom table: projection is the cold path (once per failed
    // candidate search over an all-ℝ component).
    let mut memo = FmMemo::default();
    // The matrix must be one conjunctive branch of comparisons.
    let mut branches = pos_branches(matrix, limits.max_branches, &mut memo)?;
    if branches.len() != 1 {
        return None;
    }
    let mut rows = branches.pop().expect("length checked");
    if rows.len() > limits.max_rows {
        *abort = Some((SearchExhaustedReason::RowCap, limits.max_rows as u64));
        return None;
    }
    let nat_vars = BTreeSet::new(); // no integer tightening during projection
    for v in vars {
        let vid = memo.intern(&Atom(Idx::Var(v.clone())));
        // The variable must occur only as its own plain atom.
        if rows.iter().any(|r| {
            r.coeffs
                .iter()
                .any(|(id, _)| *id != vid && memo.atoms[*id as usize].atom.0.mentions(v))
        }) {
            return None;
        }
        // Domain bound of the ℝ (cost) sort.
        rows.push(nonneg_row(vid));
        rows = match normalize_system(rows, &memo.atoms, &nat_vars) {
            Err(()) => return None,
            // Infeasible matrix: ∃v. M is equivalent to ff.
            Ok(None) => return Some(Constr::Bot),
            Ok(Some(rows)) => rows,
        };
        let mut kept = Vec::new();
        let mut lower = Vec::new();
        let mut upper = Vec::new();
        for mut row in rows {
            let c = row.remove_atom(vid);
            if c.is_zero() {
                kept.push(row);
            } else if c.is_negative() {
                upper.push((row, c));
            } else {
                lower.push((row, c));
            }
        }
        if !lower.is_empty() && !upper.is_empty() {
            if kept.len() + lower.len() * upper.len() > limits.max_rows {
                *abort = Some((SearchExhaustedReason::RowCap, limits.max_rows as u64));
                return None;
            }
            for (lo, a) in &lower {
                for (up, b) in &upper {
                    let Some(combined) = combine_rows(lo, *a, up, *b) else {
                        // Coefficient magnitude overflow: same cap family.
                        *abort = Some((SearchExhaustedReason::RowCap, limits.max_rows as u64));
                        return None;
                    };
                    kept.push(combined);
                }
            }
        }
        rows = kept;
    }
    let rows = match normalize_system(rows, &memo.atoms, &nat_vars) {
        Err(()) => return None,
        Ok(None) => return Some(Constr::Bot),
        Ok(Some(rows)) => rows,
    };
    Some(Constr::conj(rows.into_iter().map(|row| {
        let idx = row_to_idx(&row, &memo.atoms);
        if row.strict {
            Constr::Lt(Idx::zero(), idx)
        } else {
            Constr::Leq(Idx::zero(), idx)
        }
    })))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nats(names: &[&str]) -> Vec<(IdxVar, Sort)> {
        names.iter().map(|n| (IdxVar::new(*n), Sort::Nat)).collect()
    }

    fn prove_default(universals: &[(IdxVar, Sort)], facts: &[&Constr], goal: &Constr) -> FmVerdict {
        prove(
            universals,
            facts,
            goal,
            &FmLimits::default(),
            &mut FmMemo::default(),
        )
        .verdict
    }

    #[test]
    fn transitivity_chains_are_proved() {
        // a ≤ b ∧ b ≤ c ∧ c ≤ d  ⟹  a ≤ d
        let u = nats(&["a", "b", "c", "d"]);
        let f1 = Constr::leq(Idx::var("a"), Idx::var("b"));
        let f2 = Constr::leq(Idx::var("b"), Idx::var("c"));
        let f3 = Constr::leq(Idx::var("c"), Idx::var("d"));
        let goal = Constr::leq(Idx::var("a"), Idx::var("d"));
        assert_eq!(
            prove_default(&u, &[&f1, &f2, &f3], &goal),
            FmVerdict::Proved
        );
    }

    #[test]
    fn upper_bounds_on_goal_atoms_are_used() {
        // Proving a + b ≤ 20 from a ≤ 10 ∧ b ≤ 10 needs *upper* bounds on
        // the goal's positive atoms.
        let u = nats(&["a", "b"]);
        let f1 = Constr::leq(Idx::var("a"), Idx::nat(10));
        let f2 = Constr::leq(Idx::var("b"), Idx::nat(10));
        let goal = Constr::leq(Idx::var("a") + Idx::var("b"), Idx::nat(20));
        assert_eq!(prove_default(&u, &[&f1, &f2], &goal), FmVerdict::Proved);
        // And the bound is exact: 19 is refutable in the abstraction.
        let goal = Constr::leq(Idx::var("a") + Idx::var("b"), Idx::nat(19));
        assert_eq!(
            prove_default(&u, &[&f1, &f2], &goal),
            FmVerdict::CandidateRefuted
        );
    }

    #[test]
    fn strict_nat_bounds_need_integer_tightening() {
        // 3 ≤ n ⟹ 1 < n holds over ℕ by rounding; over ℝ it already holds,
        // but 0 < 2n − 1 for a *real* n ≥ 1/2 shows rational reasoning alone
        // cannot tighten n ≥ 1/2 to n ≥ 1:
        let u = nats(&["n"]);
        let hyp = Constr::leq(Idx::nat(3), Idx::var("n"));
        let goal = Constr::lt(Idx::one(), Idx::var("n"));
        assert_eq!(prove_default(&u, &[&hyp], &goal), FmVerdict::Proved);
        // 2n ≥ 1 ⟹ n ≥ 1 — true over ℕ only via the floor rounding.
        let hyp = Constr::leq(Idx::one(), Idx::nat(2) * Idx::var("n"));
        let goal = Constr::leq(Idx::one(), Idx::var("n"));
        assert_eq!(prove_default(&u, &[&hyp], &goal), FmVerdict::Proved);
    }

    #[test]
    fn pointwise_disjunctions_are_proved_by_case_split() {
        // n ≤ 8 ∨ n ≥ 5 — neither disjunct is valid alone; the negation
        // n > 8 ∧ n < 5 is a ground contradiction after one elimination.
        let u = nats(&["n"]);
        let goal =
            Constr::leq(Idx::var("n"), Idx::nat(8)).or(Constr::geq(Idx::var("n"), Idx::nat(5)));
        assert_eq!(prove_default(&u, &[], &goal), FmVerdict::Proved);
    }

    #[test]
    fn contradictory_facts_prove_bot() {
        let u = nats(&["n"]);
        let hyp = Constr::leq(Idx::var("n") + Idx::one(), Idx::var("n"));
        assert_eq!(prove_default(&u, &[&hyp], &Constr::Bot), FmVerdict::Proved);
        // An `ff` fact is the infeasible row: it proves `ff` and anything else.
        assert_eq!(
            prove_default(&u, &[&Constr::Bot], &Constr::Bot),
            FmVerdict::Proved
        );
        let goal = Constr::leq(Idx::var("n"), Idx::nat(3));
        assert_eq!(prove_default(&u, &[&Constr::Bot], &goal), FmVerdict::Proved);
        // And consistent facts cannot prove Bot.
        let hyp = Constr::leq(Idx::var("n"), Idx::var("n") + Idx::one());
        assert_eq!(
            prove_default(&u, &[&hyp], &Constr::Bot),
            FmVerdict::CandidateRefuted
        );
    }

    #[test]
    fn opaque_atom_refutations_are_only_candidates() {
        // ⌈n/2⌉ ≤ n is true (lemma facts supply it) but *without* those
        // facts the abstraction can set ⌈n/2⌉ and n independently: FM must
        // answer CandidateRefuted, never Proved and never a hard Invalid.
        let u = nats(&["n"]);
        let goal = Constr::leq(Idx::half_ceil(Idx::var("n")), Idx::var("n"));
        assert_eq!(prove_default(&u, &[], &goal), FmVerdict::CandidateRefuted);
    }

    #[test]
    fn infinity_is_decided_when_ground_and_abstains_otherwise() {
        let u = nats(&["n"]);
        // ∞ on the larger side of the goal: trivially true.
        let goal = Constr::lt(Idx::var("n"), Idx::var("n") + Idx::infty());
        assert_eq!(prove_default(&u, &[], &goal), FmVerdict::Proved);
        // ∞ on the smaller side: false at every point.
        let goal = Constr::leq(Idx::infty(), Idx::var("n"));
        assert_eq!(prove_default(&u, &[], &goal), FmVerdict::CandidateRefuted);
        // n · ∞ is 0 at n = 0: outside the fragment.
        let goal = Constr::leq(Idx::var("n") * Idx::infty(), Idx::var("n"));
        assert_eq!(prove_default(&u, &[], &goal), FmVerdict::Abstained);
        // A trivially true fact contributes nothing; the rest still proves.
        let f1 = Constr::leq(Idx::var("n"), Idx::infty());
        let f2 = Constr::leq(Idx::var("n"), Idx::nat(3));
        let goal = Constr::leq(Idx::var("n"), Idx::nat(4));
        assert_eq!(prove_default(&u, &[&f1, &f2], &goal), FmVerdict::Proved);
    }

    #[test]
    fn equality_goals_split_into_two_branches() {
        // a = b ∧ b = c ⟹ a = c.
        let u = nats(&["a", "b", "c"]);
        let f1 = Constr::eq(Idx::var("a"), Idx::var("b"));
        let f2 = Constr::eq(Idx::var("b"), Idx::var("c"));
        let goal = Constr::eq(Idx::var("a"), Idx::var("c"));
        assert_eq!(prove_default(&u, &[&f1, &f2], &goal), FmVerdict::Proved);
    }

    #[test]
    fn coefficient_blowups_abstain_instead_of_panicking() {
        // Coefficients near the magnitude cap with coprime denominators:
        // combining rows multiplies them, and the *reduced* result exceeds
        // what `Rational`'s panicking operators accept.  The checked
        // arithmetic must abstain (fall through to the grid) instead of
        // aborting the process.  Any verdict is acceptable; the property
        // under test is "returns".
        let u = nats(&["x", "y", "z"]);
        let big = (1i64 << 29) + 1;
        let c = |n: i64, d: i64| Idx::Const(Rational::new(n, d));
        let f1 = Constr::leq(
            c(big, big - 2) * Idx::var("x"),
            c(big - 4, big - 6) * Idx::var("y"),
        );
        let f2 = Constr::leq(
            c(big - 8, big - 10) * Idx::var("y"),
            c(big - 12, big - 14) * Idx::var("z"),
        );
        let goal = Constr::leq(c(big - 16, big - 18) * Idx::var("x"), Idx::var("z"));
        let _ = prove(
            &u,
            &[&f1, &f2],
            &goal,
            &FmLimits::default(),
            &mut FmMemo::default(),
        );
    }

    #[test]
    fn elimination_order_is_reported() {
        let u = nats(&["a", "b"]);
        let f = Constr::leq(Idx::var("a"), Idx::var("b"));
        let goal = Constr::leq(Idx::var("a"), Idx::var("b") + Idx::one());
        let out = prove(
            &u,
            &[&f],
            &goal,
            &FmLimits::default(),
            &mut FmMemo::default(),
        );
        assert_eq!(out.verdict, FmVerdict::Proved);
        assert!(!out.eliminated.is_empty());
    }

    #[test]
    fn repeated_queries_hit_the_memo() {
        // The cold call decides the query (one miss); re-proving the same
        // query is answered by the whole-query memo (one hit, zero
        // eliminations).
        let u = nats(&["a", "b", "c"]);
        let f1 = Constr::eq(Idx::var("a"), Idx::var("b"));
        let f2 = Constr::eq(Idx::var("b"), Idx::var("c"));
        let goal = Constr::eq(Idx::var("a"), Idx::var("c"));
        let mut memo = FmMemo::default();
        let cold = prove(&u, &[&f1, &f2], &goal, &FmLimits::default(), &mut memo);
        assert_eq!(cold.verdict, FmVerdict::Proved);
        assert_eq!(cold.memo_hits, 0);
        assert_eq!(cold.memo_misses, 1);
        let warm = prove(&u, &[&f1, &f2], &goal, &FmLimits::default(), &mut memo);
        assert_eq!(warm.verdict, FmVerdict::Proved);
        assert_eq!(warm.memo_misses, 0);
        assert_eq!(warm.memo_hits, 1, "whole-query memo answers the repeat");
        // Memoization must not change the verdict on a feasible branch
        // either (witness included).
        let refutable = Constr::leq(Idx::var("a") + Idx::one(), Idx::var("c"));
        let mut memo = FmMemo::default();
        let first = prove(&u, &[&f1, &f2], &refutable, &FmLimits::default(), &mut memo);
        let second = prove(&u, &[&f1, &f2], &refutable, &FmLimits::default(), &mut memo);
        assert_eq!(first.verdict, FmVerdict::CandidateRefuted);
        assert_eq!(second.verdict, first.verdict);
        assert_eq!(second.witness, first.witness);
        assert_eq!(second.memo_hits, 1);
    }

    #[test]
    fn query_memo_never_replays_witnesses_across_sort_flips() {
        // `t` occurs only as a *factor* of the product atom t·a — never as
        // a row atom — so the systems under t::Real and t::Nat are
        // canonically identical.  A memo replay across the sort flip would
        // smuggle the Real run's fractional witness past `concretize`'s
        // ℕ-domain check; the query key includes the ℕ-sorted variables to
        // keep the two outcomes apart.
        let hyp = Constr::leq(Idx::one(), Idx::var("a"));
        let goal = Constr::leq(Idx::nat(2) * (Idx::var("t") * Idx::var("a")), Idx::one());
        let mut memo = FmMemo::default();
        let real = vec![
            (IdxVar::new("t"), Sort::Real),
            (IdxVar::new("a"), Sort::Nat),
        ];
        let first = prove(&real, &[&hyp], &goal, &FmLimits::default(), &mut memo);
        assert_eq!(first.verdict, FmVerdict::CandidateRefuted);
        let fractional = first.witness.as_ref().is_some_and(|w| {
            w.iter()
                .any(|(v, q)| v == &IdxVar::new("t") && !q.is_integer())
        });
        assert!(fractional, "the Real run should pick a fractional t");
        let nat = vec![(IdxVar::new("t"), Sort::Nat), (IdxVar::new("a"), Sort::Nat)];
        let second = prove(&nat, &[&hyp], &goal, &FmLimits::default(), &mut memo);
        if let Some(w) = &second.witness {
            for (v, q) in w {
                assert!(
                    q.is_integer(),
                    "ℕ-sorted {v} got non-integral witness value {q} via memo replay"
                );
            }
        }
    }

    #[test]
    fn projection_of_real_costs_is_exact() {
        // ∃t. c ≤ t ∧ t + 1 ≤ d  projects to  c + 1 ≤ d (plus c, d ≥ 0 noise
        // that normalization keeps only if non-trivial).
        let t = IdxVar::new("t");
        let matrix = Constr::leq(Idx::var("c"), Idx::var("t"))
            .and(Constr::leq(Idx::var("t") + Idx::one(), Idx::var("d")));
        let projected = project_reals(&matrix, &[t], &FmLimits::default()).expect("projectable");
        // The projection must be implied by c + 1 ≤ d and imply it: check a
        // few ground points on both sides.
        for (c, d, expect) in [(0, 1, true), (2, 3, true), (3, 3, false), (5, 2, false)] {
            let env =
                rel_index::IdxEnv::from_pairs([("c", Extended::from(c)), ("d", Extended::from(d))]);
            assert_eq!(
                projected.eval_bounded(&env, 8),
                expect,
                "projection wrong at c={c}, d={d}: {projected}"
            );
        }
    }

    #[test]
    fn projection_refuses_nonlinear_occurrences() {
        let t = IdxVar::new("t");
        let matrix = Constr::leq(Idx::half_ceil(Idx::var("t")), Idx::var("n"));
        assert!(project_reals(&matrix, &[t], &FmLimits::default()).is_none());
    }

    #[test]
    fn infeasible_matrices_project_to_bot() {
        let t = IdxVar::new("t");
        let matrix = Constr::leq(Idx::var("t") + Idx::one(), Idx::var("t"));
        assert_eq!(
            project_reals(&matrix, &[t], &FmLimits::default()),
            Some(Constr::Bot)
        );
    }
}
