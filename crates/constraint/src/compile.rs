//! Compilation of numeric queries to a flat stack bytecode.
//!
//! The solver's numeric layer evaluates one implication `Φₐ ⟹ Φ` at up to
//! `max_grid_points + random_points` ground points.  Interpreting the
//! `Box`-tree [`Constr`]/[`Idx`] AST per point re-walks the heap-scattered
//! tree and pays a `BTreeMap` lookup per variable occurrence.  This module
//! lowers the query **once** into a [`CompiledQuery`]:
//!
//! * a flat `Vec<Op>` stack program (cache-friendly, no pointer chasing),
//! * **slot-indexed variables** — the evaluation frame is a `Vec<Val>`
//!   indexed by compile-time slot numbers instead of a name-keyed map,
//! * **short-circuit jumps** for `∧` / `∨` / `⟹` / quantifier loops,
//! * an **`i64` fast path** for arithmetic that falls back to exact
//!   [`Rational`]/[`Extended`] values on overflow, non-integer division or
//!   `∞`, so results are bit-identical to the tree evaluator.
//!
//! Semantics are *exactly* [`Constr::eval_bounded`] (including the treatment
//! of evaluation errors — an atomic comparison whose operand fails to
//! evaluate is `false` — the `bound.min(8)` cap on existential search, and
//! the summation guards of [`rel_index::EvalError`]).  The differential
//! property tests in `tests/compile_differential.rs` pin the two evaluators
//! together.

use std::collections::HashMap;

use rel_index::{Extended, Idx, IdxEnv, IdxVar, Rational, Sort, MAX_SUM_TERMS};

use crate::constr::{Constr, EXISTS_SEARCH_CAP};

/// A numeric value on the evaluation stack: a flat 16-byte normalized
/// rational with sentinel denominators.
///
/// * `den > 0` — the finite value `num / den` in lowest terms (so `den == 1`
///   is the integer fast path);
/// * `den == 0` — `+∞`;
/// * `den < 0` — the poison value standing in for the tree evaluator's
///   `Result::Err`: it propagates through arithmetic and makes the enclosing
///   comparison evaluate to `false`.
///
/// The flat layout (vs a `Val(Extended)` enum nest) halves stack traffic in
/// the interpreter loop and turns the integer fast-path check into a single
/// compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Val {
    num: i64,
    den: i64,
}

impl Val {
    /// The poison value.
    pub const ERR: Val = Val { num: 0, den: -1 };
    /// Positive infinity.
    pub const INFINITY: Val = Val { num: 0, den: 0 };

    /// An integer value (the fast path).
    #[inline]
    pub fn int(n: i64) -> Val {
        Val { num: n, den: 1 }
    }

    /// `true` for the poison value.
    #[inline]
    pub fn is_err(self) -> bool {
        self.den < 0
    }

    #[inline]
    fn is_int(self) -> bool {
        self.den == 1
    }

    /// The integer value; only meaningful when [`Val::is_int`] holds.
    #[inline]
    fn int_value(self) -> i64 {
        debug_assert!(self.is_int());
        self.num
    }

    /// Wraps an [`Extended`] (integers land on the fast path by virtue of
    /// `Rational`'s normalized representation).
    pub fn from_ext(e: Extended) -> Val {
        match e {
            Extended::Finite(q) => Val {
                num: q.numerator(),
                den: q.denominator(),
            },
            Extended::Infinity => Val::INFINITY,
        }
    }

    /// The exact value, or `None` for the poison value.
    pub fn to_ext(self) -> Option<Extended> {
        if self.den > 0 {
            // The invariant keeps `num/den` normalized, so `Rational::new`
            // only re-runs a trivial gcd.
            Some(Extended::Finite(Rational::new(self.num, self.den)))
        } else if self.den == 0 {
            Some(Extended::Infinity)
        } else {
            None
        }
    }
}

macro_rules! ext_binop {
    ($a:expr, $b:expr, $op:expr) => {
        match ($a.to_ext(), $b.to_ext()) {
            (Some(x), Some(y)) => Val::from_ext($op(x, y)),
            _ => Val::ERR,
        }
    };
}

#[inline]
fn val_add(a: Val, b: Val) -> Val {
    if a.is_int() && b.is_int() {
        if let Some(z) = a.num.checked_add(b.num) {
            return Val::int(z);
        }
    }
    ext_binop!(a, b, |x: Extended, y| x + y)
}

#[inline]
fn val_sub(a: Val, b: Val) -> Val {
    if a.is_int() && b.is_int() {
        if let Some(z) = a.num.checked_sub(b.num) {
            return Val::int(z);
        }
    }
    ext_binop!(a, b, |x: Extended, y| x - y)
}

#[inline]
fn val_mul(a: Val, b: Val) -> Val {
    if a.is_int() && b.is_int() {
        if let Some(z) = a.num.checked_mul(b.num) {
            return Val::int(z);
        }
    }
    ext_binop!(a, b, |x: Extended, y| x * y)
}

#[inline]
fn val_div(a: Val, b: Val) -> Val {
    // Exact integer division stays on the fast path; everything else
    // (remainders, zero divisors, ∞) goes through `Extended::div`, which
    // defines division by zero as ∞.
    if a.is_int() && b.is_int() {
        let (x, y) = (a.num, b.num);
        if y != 0 && x % y == 0 && !(x == i64::MIN && y == -1) {
            return Val::int(x / y);
        }
    }
    ext_binop!(a, b, |x: Extended, y| x / y)
}

#[inline]
fn val_min(a: Val, b: Val) -> Val {
    match val_cmp(a, b) {
        Some(std::cmp::Ordering::Greater) => b,
        Some(_) => a,
        None => Val::ERR,
    }
}

#[inline]
fn val_max(a: Val, b: Val) -> Val {
    match val_cmp(a, b) {
        Some(std::cmp::Ordering::Less) => b,
        Some(_) => a,
        None => Val::ERR,
    }
}

fn val_unary(a: Val, op: fn(Extended) -> Extended) -> Val {
    match a.to_ext() {
        Some(x) => Val::from_ext(op(x)),
        None => Val::ERR,
    }
}

#[inline]
fn val_ceil(a: Val) -> Val {
    if a.is_int() {
        return a;
    }
    val_unary(a, Extended::ceil)
}

#[inline]
fn val_floor(a: Val) -> Val {
    if a.is_int() {
        return a;
    }
    val_unary(a, Extended::floor)
}

#[inline]
fn val_pow2(a: Val) -> Val {
    // The branch `pow2_total` takes for integer exponents in 0..62, without
    // the round-trip through `Rational`.
    if a.is_int() && (0..62).contains(&a.num) {
        return Val::int(1i64 << a.num);
    }
    val_unary(a, Extended::pow2_total)
}

/// Three-way comparison; `None` when either side is the poison value (the
/// enclosing comparison is then `false`, as in `eval_bounded`).
#[inline]
fn val_cmp(a: Val, b: Val) -> Option<std::cmp::Ordering> {
    if a.is_int() && b.is_int() {
        return Some(a.num.cmp(&b.num));
    }
    if a.is_err() || b.is_err() {
        return None;
    }
    match (a.den == 0, b.den == 0) {
        (true, true) => return Some(std::cmp::Ordering::Equal),
        (true, false) => return Some(std::cmp::Ordering::Greater),
        (false, true) => return Some(std::cmp::Ordering::Less),
        (false, false) => {}
    }
    // Finite rationals with positive denominators: cross-multiply exactly.
    let lhs = a.num as i128 * b.den as i128;
    let rhs = b.num as i128 * a.den as i128;
    Some(lhs.cmp(&rhs))
}

/// Binary arithmetic selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluKind {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// Unary arithmetic selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnKind {
    /// Ceiling.
    Ceil,
    /// Floor.
    Floor,
    /// Totalized base-2 logarithm.
    Log2,
    /// Totalized power of two.
    Pow2,
}

/// Comparison selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpKind {
    /// Equality.
    Eq,
    /// Non-strict inequality.
    Leq,
    /// Strict inequality.
    Lt,
}

/// An encoded leaf operand: the top two bits select frame slot (`0`),
/// constant-pool index (`1`) or the poison value (`2`); the rest is the
/// index.  Leaf operands let the compiler fuse `Load/Load/op` triples into
/// one instruction — interpreter dispatch is the dominant cost of the inner
/// loop, so halving the instruction count per atom is a direct win.
pub type Operand = u32;

const OPERAND_TAG_SHIFT: u32 = 30;
const OPERAND_INDEX_MASK: u32 = (1 << OPERAND_TAG_SHIFT) - 1;
const OPERAND_SLOT: u32 = 0;
const OPERAND_CONST: u32 = 1;
const OPERAND_ERR: u32 = 2;

/// One bytecode instruction.  Jump operands are absolute instruction
/// indices; `body` operands point back to the first instruction of a loop
/// body.  `SS`/`SP`/`PS` suffixes name the operand sources: encoded leaf
/// (`S`) or popped from the value stack (`P`), left-to-right.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Push an encoded operand.
    Push(Operand),
    /// Pop 2 (rhs first), push the result.
    Alu(AluKind),
    /// Both operands encoded: push `kind(lhs, rhs)`.
    AluSS(AluKind, Operand, Operand),
    /// Left operand encoded, right popped.
    AluSP(AluKind, Operand),
    /// Left popped, right operand encoded.
    AluPS(AluKind, Operand),
    /// Pop 1, push the unary result.
    Un(UnKind),
    /// Unary on an encoded operand.
    UnS(UnKind, Operand),
    /// Pop 2 (rhs first), set the flag to the comparison result.
    Cmp(CmpKind),
    /// Both comparison operands encoded.
    CmpSS(CmpKind, Operand, Operand),
    /// Left operand encoded, right popped.
    CmpSP(CmpKind, Operand),
    /// Left popped, right operand encoded.
    CmpPS(CmpKind, Operand),
    /// Invert the flag.
    NotFlag,
    /// Set the flag to a constant.
    SetFlag(bool),
    /// Unconditional jump.
    Jmp(u32),
    /// Jump when the flag is `false`.
    JmpIfFalse(u32),
    /// Jump when the flag is `true`.
    JmpIfTrue(u32),
    /// Open a bounded quantifier loop over `frame[slot] = 0, 1, …`.
    QuantInit {
        /// Frame slot of the bound variable.
        slot: u32,
        /// Existential (`any`, capped at 8) or universal (`all`).
        exists: bool,
    },
    /// Close a quantifier loop: consume the flag, advance or exit.
    QuantStep {
        /// Frame slot of the bound variable.
        slot: u32,
        /// Existential or universal.
        exists: bool,
        /// First instruction of the loop body.
        body: u32,
    },
    /// Open a summation loop: pops `hi` then `lo`, validates the range.
    SumInit {
        /// Frame slot of the summation variable.
        slot: u32,
        /// Instruction just past the matching [`Op::SumStep`].
        end: u32,
    },
    /// Close a summation loop: pops the body value, accumulates.
    SumStep {
        /// Frame slot of the summation variable.
        slot: u32,
        /// First instruction of the loop body.
        body: u32,
    },
}

#[inline]
fn alu(kind: AluKind, a: Val, b: Val) -> Val {
    match kind {
        AluKind::Add => val_add(a, b),
        AluKind::Sub => val_sub(a, b),
        AluKind::Mul => val_mul(a, b),
        AluKind::Div => val_div(a, b),
        AluKind::Min => val_min(a, b),
        AluKind::Max => val_max(a, b),
    }
}

#[inline]
fn unary(kind: UnKind, a: Val) -> Val {
    match kind {
        UnKind::Ceil => val_ceil(a),
        UnKind::Floor => val_floor(a),
        UnKind::Log2 => val_unary(a, Extended::log2_total),
        UnKind::Pow2 => val_pow2(a),
    }
}

#[inline]
fn compare(kind: CmpKind, a: Val, b: Val) -> bool {
    match kind {
        CmpKind::Eq => val_cmp(a, b) == Some(std::cmp::Ordering::Equal),
        CmpKind::Leq => matches!(
            val_cmp(a, b),
            Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
        ),
        CmpKind::Lt => val_cmp(a, b) == Some(std::cmp::Ordering::Less),
    }
}

/// An active loop record on the evaluation frame.
#[derive(Debug, Clone, Copy)]
enum LoopRec {
    Quant { k: u64, cap: u64 },
    Sum { k: i64, hi: i64, acc: Val },
}

/// A numeric query compiled to bytecode.
///
/// Immutable and `Sync`: one compiled program can be shared across grid
/// chunks evaluated by different worker threads, each with its own
/// [`EvalFrame`].
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    ops: Vec<Op>,
    /// Literal pool, pre-narrowed to [`Val`] so `Op::Const` is a plain copy.
    consts: Vec<Val>,
    /// Slot → variable (universals first, then binders), for diagnostics and
    /// counterexample reconstruction.
    slots: Vec<IdxVar>,
    /// For each entry of the `universals` list passed to [`compile_query`],
    /// the frame slot it binds.  Duplicate names share a slot; writing
    /// point coordinates in list order reproduces the tree evaluator's
    /// last-binding-wins environment semantics.
    universal_slots: Vec<u32>,
    /// `true` for the entry that owns its slot (the *last* entry of each
    /// name).  Incremental sweeps may skip writes for non-owners: their
    /// values are shadowed and semantically dead.
    universal_owner: Vec<bool>,
}

impl CompiledQuery {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the program is empty (never produced by the compiler).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of variable slots in the evaluation frame.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The frame slot bound by the `i`-th entry of the universals list.
    pub fn universal_slot(&self, i: usize) -> u32 {
        self.universal_slots[i]
    }

    /// Whether the `i`-th universal entry owns its slot (is not shadowed by
    /// a later entry of the same name).
    pub fn universal_owner(&self, i: usize) -> bool {
        self.universal_owner[i]
    }

    /// A fresh evaluation frame sized for this program.
    pub fn new_frame(&self) -> EvalFrame {
        EvalFrame {
            vals: vec![Val::ERR; self.slots.len()],
            stack: Vec::with_capacity(16),
            loops: Vec::with_capacity(4),
        }
    }

    /// Decodes a leaf operand against the current frame.
    #[inline]
    fn operand(&self, frame: &EvalFrame, enc: Operand) -> Val {
        let index = (enc & OPERAND_INDEX_MASK) as usize;
        match enc >> OPERAND_TAG_SHIFT {
            OPERAND_SLOT => frame.vals[index],
            OPERAND_CONST => self.consts[index],
            _ => Val::ERR,
        }
    }

    /// Evaluates the program in `frame` (universal slots must have been set
    /// by the caller) with quantifier bound `bound`.
    pub fn eval(&self, frame: &mut EvalFrame, bound: u64) -> bool {
        frame.stack.clear();
        frame.loops.clear();
        let mut flag = false;
        let mut ip = 0usize;
        let ops = &self.ops;
        while let Some(&op) = ops.get(ip) {
            match op {
                Op::Push(x) => {
                    let v = self.operand(frame, x);
                    frame.stack.push(v);
                }
                Op::Alu(k) => {
                    let (a, b) = frame.pop2();
                    frame.stack.push(alu(k, a, b));
                }
                Op::AluSS(k, x, y) => {
                    let v = alu(k, self.operand(frame, x), self.operand(frame, y));
                    frame.stack.push(v);
                }
                Op::AluSP(k, x) => {
                    let b = frame.pop1();
                    let v = alu(k, self.operand(frame, x), b);
                    frame.stack.push(v);
                }
                Op::AluPS(k, y) => {
                    let a = frame.pop1();
                    let v = alu(k, a, self.operand(frame, y));
                    frame.stack.push(v);
                }
                Op::Un(k) => {
                    let a = frame.pop1();
                    frame.stack.push(unary(k, a));
                }
                Op::UnS(k, x) => {
                    let v = unary(k, self.operand(frame, x));
                    frame.stack.push(v);
                }
                Op::Cmp(k) => {
                    let (a, b) = frame.pop2();
                    flag = compare(k, a, b);
                }
                Op::CmpSS(k, x, y) => {
                    flag = compare(k, self.operand(frame, x), self.operand(frame, y));
                }
                Op::CmpSP(k, x) => {
                    let b = frame.pop1();
                    flag = compare(k, self.operand(frame, x), b);
                }
                Op::CmpPS(k, y) => {
                    let a = frame.pop1();
                    flag = compare(k, a, self.operand(frame, y));
                }
                Op::NotFlag => flag = !flag,
                Op::SetFlag(v) => flag = v,
                Op::Jmp(t) => {
                    ip = t as usize;
                    continue;
                }
                Op::JmpIfFalse(t) => {
                    if !flag {
                        ip = t as usize;
                        continue;
                    }
                }
                Op::JmpIfTrue(t) => {
                    if flag {
                        ip = t as usize;
                        continue;
                    }
                }
                Op::QuantInit { slot, exists } => {
                    let cap = if exists {
                        bound.min(EXISTS_SEARCH_CAP)
                    } else {
                        bound
                    };
                    frame.loops.push(LoopRec::Quant { k: 0, cap });
                    frame.vals[slot as usize] = Val::int(0);
                }
                Op::QuantStep { slot, exists, body } => {
                    let Some(LoopRec::Quant { k, cap }) = frame.loops.last_mut() else {
                        unreachable!("QuantStep without a matching QuantInit");
                    };
                    // `any` exits on the first true, `all` on the first false.
                    let done = if exists { flag } else { !flag };
                    if done || *k == *cap {
                        // Exhausting an `all` loop means every instance held.
                        flag = if exists { done } else { !done };
                        frame.loops.pop();
                    } else {
                        *k += 1;
                        frame.vals[slot as usize] = Val::int(*k as i64);
                        ip = body as usize;
                        continue;
                    }
                }
                Op::SumInit { slot, end } => {
                    let (lo, hi) = frame.pop2();
                    match sum_range(lo, hi) {
                        SumRange::Err => {
                            frame.stack.push(Val::ERR);
                            ip = end as usize;
                            continue;
                        }
                        SumRange::Empty => {
                            frame.stack.push(Val::int(0));
                            ip = end as usize;
                            continue;
                        }
                        SumRange::Run { lo, hi } => {
                            frame.loops.push(LoopRec::Sum {
                                k: lo,
                                hi,
                                acc: Val::int(0),
                            });
                            frame.vals[slot as usize] = Val::int(lo);
                        }
                    }
                }
                Op::SumStep { slot, body } => {
                    let v = frame.stack.pop().expect("sum body left no value");
                    let Some(LoopRec::Sum { k, hi, acc }) = frame.loops.last_mut() else {
                        unreachable!("SumStep without a matching SumInit");
                    };
                    if v.is_err() {
                        frame.loops.pop();
                        frame.stack.push(Val::ERR);
                    } else {
                        *acc = val_add(*acc, v);
                        if *k == *hi {
                            let acc = *acc;
                            frame.loops.pop();
                            frame.stack.push(acc);
                        } else {
                            *k += 1;
                            frame.vals[slot as usize] = Val::int(*k);
                            ip = body as usize;
                            continue;
                        }
                    }
                }
            }
            ip += 1;
        }
        debug_assert!(frame.stack.is_empty(), "value stack not consumed");
        flag
    }

    /// Evaluates with universal slots taken from `point` (one value per
    /// entry of the original universals list, in list order).
    pub fn eval_point(&self, frame: &mut EvalFrame, point: &[Val], bound: u64) -> bool {
        debug_assert_eq!(point.len(), self.universal_slots.len());
        for (slot, v) in self.universal_slots.iter().zip(point) {
            frame.vals[*slot as usize] = *v;
        }
        self.eval(frame, bound)
    }

    /// Reconstructs the (universals-only) environment of a point, for
    /// counterexample reporting.
    pub fn point_env(&self, universals: &[(IdxVar, Sort)], point: &[Val]) -> IdxEnv {
        IdxEnv::from_pairs(
            universals
                .iter()
                .zip(point)
                .filter_map(|((v, _), val)| val.to_ext().map(|e| (v.clone(), e))),
        )
    }
}

enum SumRange {
    Err,
    Empty,
    Run { lo: i64, hi: i64 },
}

/// Validates summation bounds exactly as the tree evaluator does: infinite
/// or erroneous bounds poison the sum, the inclusive integer range runs from
/// `⌈lo⌉` to `⌊hi⌋`, and over-long ranges are rejected.
fn sum_range(lo: Val, hi: Val) -> SumRange {
    if lo.is_int() && hi.is_int() {
        // Integer bounds skip the ceil/floor round-trip.
        let (lo, hi) = (lo.int_value(), hi.int_value());
        if hi < lo {
            return SumRange::Empty;
        }
        if (hi - lo + 1) as u64 > MAX_SUM_TERMS {
            return SumRange::Err;
        }
        return SumRange::Run { lo, hi };
    }
    let (Some(lo), Some(hi)) = (lo.to_ext(), hi.to_ext()) else {
        return SumRange::Err;
    };
    let (Some(lo), Some(hi)) = (lo.finite(), hi.finite()) else {
        return SumRange::Err;
    };
    let lo = lo.ceil().numerator();
    let hi = hi.floor().numerator();
    if hi < lo {
        return SumRange::Empty;
    }
    let count = (hi - lo + 1) as u64;
    if count > MAX_SUM_TERMS {
        return SumRange::Err;
    }
    SumRange::Run { lo, hi }
}

/// A reusable evaluation frame: variable slots, the value stack and the loop
/// stack.  One frame serves every grid point of a query (and is reused
/// across queries of the same shape), so the steady-state inner loop
/// allocates nothing.
#[derive(Debug, Clone)]
pub struct EvalFrame {
    vals: Vec<Val>,
    stack: Vec<Val>,
    loops: Vec<LoopRec>,
}

impl EvalFrame {
    /// Writes a slot directly (used by tests; production goes through
    /// [`CompiledQuery::eval_point`]).
    pub fn set_slot(&mut self, slot: u32, v: Val) {
        self.vals[slot as usize] = v;
    }

    #[inline]
    fn pop1(&mut self) -> Val {
        self.stack.pop().expect("stack underflow")
    }

    #[inline]
    fn pop2(&mut self) -> (Val, Val) {
        let b = self.stack.pop().expect("stack underflow");
        let a = self.stack.pop().expect("stack underflow");
        (a, b)
    }
}

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

struct Compiler {
    ops: Vec<Op>,
    consts: Vec<Val>,
    const_ids: HashMap<Extended, u32>,
    slots: Vec<IdxVar>,
    /// Universal bindings by name (later entries of the list overwrite
    /// earlier ones, mirroring the tree evaluator's environment).
    universal_by_name: HashMap<IdxVar, u32>,
    /// Scoped binders (quantifiers, summation variables), innermost last.
    scope: Vec<(IdxVar, u32)>,
}

impl Compiler {
    fn alloc_slot(&mut self, var: &IdxVar) -> u32 {
        let slot = u32::try_from(self.slots.len()).expect("slot overflow");
        self.slots.push(var.clone());
        slot
    }

    fn const_id(&mut self, e: Extended) -> u32 {
        if let Some(&i) = self.const_ids.get(&e) {
            return i;
        }
        let i = u32::try_from(self.consts.len()).expect("constant-pool overflow");
        self.consts.push(Val::from_ext(e));
        self.const_ids.insert(e, i);
        i
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    /// Emits a jump with a dummy target, returning its index for patching.
    fn emit_jump(&mut self, op: fn(u32) -> Op) -> usize {
        self.ops.push(op(u32::MAX));
        self.ops.len() - 1
    }

    fn patch(&mut self, at: usize) {
        let target = self.here();
        match &mut self.ops[at] {
            Op::Jmp(t) | Op::JmpIfFalse(t) | Op::JmpIfTrue(t) => *t = target,
            Op::SumInit { end, .. } => *end = target,
            other => unreachable!("patching a non-jump op {other:?}"),
        }
    }

    fn lookup_slot(&self, v: &IdxVar) -> Option<u32> {
        self.scope
            .iter()
            .rev()
            .find(|(w, _)| w == v)
            .map(|(_, s)| *s)
            .or_else(|| self.universal_by_name.get(v).copied())
    }

    /// Encodes a leaf term as an operand, enabling fused instructions.
    fn leaf_operand(&mut self, idx: &Idx) -> Option<Operand> {
        match idx {
            Idx::Var(v) => Some(match self.lookup_slot(v) {
                Some(slot) => (OPERAND_SLOT << OPERAND_TAG_SHIFT) | slot,
                // A variable bound nowhere: the tree evaluator fails the
                // enclosing comparison; the poison operand does the same.
                None => OPERAND_ERR << OPERAND_TAG_SHIFT,
            }),
            Idx::Const(q) => {
                let i = self.const_id(Extended::Finite(*q));
                Some((OPERAND_CONST << OPERAND_TAG_SHIFT) | i)
            }
            Idx::Infty => {
                let i = self.const_id(Extended::Infinity);
                Some((OPERAND_CONST << OPERAND_TAG_SHIFT) | i)
            }
            _ => None,
        }
    }

    fn compile_idx(&mut self, idx: &Idx) {
        if let Some(x) = self.leaf_operand(idx) {
            self.ops.push(Op::Push(x));
            return;
        }
        match idx {
            Idx::Var(_) | Idx::Const(_) | Idx::Infty => unreachable!("leaves handled above"),
            Idx::Add(a, b) => self.binary(a, b, AluKind::Add),
            Idx::Sub(a, b) => self.binary(a, b, AluKind::Sub),
            Idx::Mul(a, b) => self.binary(a, b, AluKind::Mul),
            Idx::Div(a, b) => self.binary(a, b, AluKind::Div),
            Idx::Min(a, b) => self.binary(a, b, AluKind::Min),
            Idx::Max(a, b) => self.binary(a, b, AluKind::Max),
            Idx::Ceil(a) => self.unary(a, UnKind::Ceil),
            Idx::Floor(a) => self.unary(a, UnKind::Floor),
            Idx::Log2(a) => self.unary(a, UnKind::Log2),
            Idx::Pow2(a) => self.unary(a, UnKind::Pow2),
            Idx::Sum { var, lo, hi, body } => {
                self.compile_idx(lo);
                self.compile_idx(hi);
                let slot = self.alloc_slot(var);
                let init = self.ops.len();
                self.ops.push(Op::SumInit {
                    slot,
                    end: u32::MAX,
                });
                let body_pc = self.here();
                self.scope.push((var.clone(), slot));
                self.compile_idx(body);
                self.scope.pop();
                self.ops.push(Op::SumStep {
                    slot,
                    body: body_pc,
                });
                self.patch(init);
            }
        }
    }

    fn binary(&mut self, a: &Idx, b: &Idx, kind: AluKind) {
        match (self.leaf_operand(a), self.leaf_operand(b)) {
            (Some(x), Some(y)) => self.ops.push(Op::AluSS(kind, x, y)),
            (Some(x), None) => {
                self.compile_idx(b);
                self.ops.push(Op::AluSP(kind, x));
            }
            (None, Some(y)) => {
                self.compile_idx(a);
                self.ops.push(Op::AluPS(kind, y));
            }
            (None, None) => {
                self.compile_idx(a);
                self.compile_idx(b);
                self.ops.push(Op::Alu(kind));
            }
        }
    }

    fn unary(&mut self, a: &Idx, kind: UnKind) {
        match self.leaf_operand(a) {
            Some(x) => self.ops.push(Op::UnS(kind, x)),
            None => {
                self.compile_idx(a);
                self.ops.push(Op::Un(kind));
            }
        }
    }

    fn compile_constr(&mut self, c: &Constr) {
        match c {
            Constr::Top => self.ops.push(Op::SetFlag(true)),
            Constr::Bot => self.ops.push(Op::SetFlag(false)),
            Constr::Eq(a, b) => self.comparison(a, b, CmpKind::Eq),
            Constr::Leq(a, b) => self.comparison(a, b, CmpKind::Leq),
            Constr::Lt(a, b) => self.comparison(a, b, CmpKind::Lt),
            Constr::And(cs) => {
                if cs.is_empty() {
                    self.ops.push(Op::SetFlag(true));
                    return;
                }
                let mut exits = Vec::with_capacity(cs.len() - 1);
                for (i, c) in cs.iter().enumerate() {
                    self.compile_constr(c);
                    if i + 1 < cs.len() {
                        exits.push(self.emit_jump(Op::JmpIfFalse));
                    }
                }
                for at in exits {
                    self.patch(at);
                }
            }
            Constr::Or(cs) => {
                if cs.is_empty() {
                    self.ops.push(Op::SetFlag(false));
                    return;
                }
                let mut exits = Vec::with_capacity(cs.len() - 1);
                for (i, c) in cs.iter().enumerate() {
                    self.compile_constr(c);
                    if i + 1 < cs.len() {
                        exits.push(self.emit_jump(Op::JmpIfTrue));
                    }
                }
                for at in exits {
                    self.patch(at);
                }
            }
            Constr::Not(c) => {
                self.compile_constr(c);
                self.ops.push(Op::NotFlag);
            }
            Constr::Implies(a, b) => {
                self.compile_constr(a);
                let vacuous = self.emit_jump(Op::JmpIfFalse);
                self.compile_constr(b);
                let done = self.emit_jump(Op::Jmp);
                self.patch(vacuous);
                self.ops.push(Op::SetFlag(true));
                self.patch(done);
            }
            Constr::Forall(q, c) => self.quantifier(&q.var, c, false),
            Constr::Exists(q, c) => self.quantifier(&q.var, c, true),
        }
    }

    fn quantifier(&mut self, var: &IdxVar, body: &Constr, exists: bool) {
        let slot = self.alloc_slot(var);
        self.ops.push(Op::QuantInit { slot, exists });
        let body_pc = self.here();
        self.scope.push((var.clone(), slot));
        self.compile_constr(body);
        self.scope.pop();
        self.ops.push(Op::QuantStep {
            slot,
            exists,
            body: body_pc,
        });
    }

    fn comparison(&mut self, a: &Idx, b: &Idx, kind: CmpKind) {
        match (self.leaf_operand(a), self.leaf_operand(b)) {
            (Some(x), Some(y)) => self.ops.push(Op::CmpSS(kind, x, y)),
            (Some(x), None) => {
                self.compile_idx(b);
                self.ops.push(Op::CmpSP(kind, x));
            }
            (None, Some(y)) => {
                self.compile_idx(a);
                self.ops.push(Op::CmpPS(kind, y));
            }
            (None, None) => {
                self.compile_idx(a);
                self.compile_idx(b);
                self.ops.push(Op::Cmp(kind));
            }
        }
    }
}

/// Compiles the implication `hyp ⟹ goal` under the given universally
/// quantified prefix.  The hypothesis short-circuits: points where it fails
/// never evaluate the goal.
pub fn compile_query(universals: &[(IdxVar, Sort)], hyp: &Constr, goal: &Constr) -> CompiledQuery {
    let mut c = Compiler {
        ops: Vec::new(),
        consts: Vec::new(),
        const_ids: HashMap::new(),
        slots: Vec::new(),
        universal_by_name: HashMap::new(),
        scope: Vec::new(),
    };
    // One slot per distinct universal name; duplicate names share a slot so
    // writing the point vector in list order is last-binding-wins.
    let mut universal_slots = Vec::with_capacity(universals.len());
    for (v, _) in universals {
        let slot = match c.universal_by_name.get(v) {
            Some(&slot) => slot,
            None => {
                let slot = c.alloc_slot(v);
                c.universal_by_name.insert(v.clone(), slot);
                slot
            }
        };
        universal_slots.push(slot);
    }
    let universal_owner: Vec<bool> = universal_slots
        .iter()
        .enumerate()
        .map(|(i, slot)| !universal_slots[i + 1..].contains(slot))
        .collect();

    if hyp.is_top() {
        c.compile_constr(goal);
    } else {
        c.compile_constr(hyp);
        let vacuous = c.emit_jump(Op::JmpIfFalse);
        c.compile_constr(goal);
        let done = c.emit_jump(Op::Jmp);
        c.patch(vacuous);
        c.ops.push(Op::SetFlag(true));
        c.patch(done);
    }

    CompiledQuery {
        ops: c.ops,
        consts: c.consts,
        slots: c.slots,
        universal_slots,
        universal_owner,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rel_index::Idx;
    use std::sync::Arc;

    fn nat_universals(names: &[&str]) -> Vec<(IdxVar, Sort)> {
        names.iter().map(|n| (IdxVar::new(*n), Sort::Nat)).collect()
    }

    /// Evaluates a compiled query at integer-valued universals and checks it
    /// against the tree evaluator at the same point.
    fn check_parity(
        universals: &[(IdxVar, Sort)],
        hyp: &Constr,
        goal: &Constr,
        point: &[i64],
        bound: u64,
    ) -> bool {
        let q = compile_query(universals, hyp, goal);
        let mut frame = q.new_frame();
        let vals: Vec<Val> = point.iter().map(|n| Val::int(*n)).collect();
        let compiled = q.eval_point(&mut frame, &vals, bound);
        let env = IdxEnv::from_pairs(
            universals
                .iter()
                .zip(point)
                .map(|((v, _), n)| (v.clone(), Extended::from(*n))),
        );
        let tree = hyp.clone().implies(goal.clone()).eval_bounded(&env, bound);
        assert_eq!(compiled, tree, "divergence at point {point:?}");
        compiled
    }

    #[test]
    fn atomic_comparisons() {
        let u = nat_universals(&["n", "a"]);
        let goal = Constr::leq(Idx::var("n"), Idx::var("a") + Idx::nat(2));
        assert!(check_parity(&u, &Constr::Top, &goal, &[5, 3], 8));
        assert!(!check_parity(&u, &Constr::Top, &goal, &[6, 3], 8));
        let goal = Constr::eq(Idx::var("n") * Idx::var("a"), Idx::nat(12));
        assert!(check_parity(&u, &Constr::Top, &goal, &[3, 4], 8));
        assert!(!check_parity(&u, &Constr::Top, &goal, &[3, 5], 8));
        let goal = Constr::lt(Idx::var("n"), Idx::var("n"));
        assert!(!check_parity(&u, &Constr::Top, &goal, &[3, 0], 8));
    }

    #[test]
    fn hypothesis_short_circuits() {
        let u = nat_universals(&["n"]);
        let hyp = Constr::leq(Idx::nat(5), Idx::var("n"));
        let goal = Constr::leq(Idx::nat(1), Idx::var("n"));
        // Vacuous at n = 0, real at n = 7.
        assert!(check_parity(&u, &hyp, &goal, &[0], 8));
        assert!(check_parity(&u, &hyp, &goal, &[7], 8));
    }

    #[test]
    fn connectives_and_quantifiers() {
        let u = nat_universals(&["n"]);
        let goal = Constr::leq(Idx::var("n"), Idx::nat(3))
            .or(Constr::geq(Idx::var("n"), Idx::nat(2)))
            .and(Constr::forall(
                "m",
                Sort::Nat,
                Constr::leq(Idx::var("m"), Idx::var("m") + Idx::var("n")),
            ));
        for n in 0..6 {
            assert!(check_parity(&u, &Constr::Top, &goal, &[n], 6));
        }
        let exists = Constr::exists(
            "i",
            Sort::Nat,
            Constr::eq(Idx::var("i"), Idx::var("n") + Idx::one()),
        );
        // Witness exists only while n + 1 ≤ min(bound, 8).
        for n in 0..12 {
            check_parity(&u, &Constr::Top, &exists, &[n], 20);
        }
    }

    #[test]
    fn nested_negation_and_implication() {
        let u = nat_universals(&["n"]);
        let goal = Constr::Not(Arc::new(
            Constr::leq(Idx::var("n"), Idx::nat(4)).implies(Constr::lt(Idx::var("n"), Idx::nat(2))),
        ));
        for n in 0..8 {
            check_parity(&u, &Constr::Top, &goal, &[n], 8);
        }
    }

    #[test]
    fn summations_match_the_tree_evaluator() {
        let u = nat_universals(&["n", "a"]);
        // Σ_{i=0}^{n} min(a, 2^i) with the msort-style shape.
        let s = Idx::sum(
            "i",
            Idx::zero(),
            Idx::var("n"),
            Idx::min(Idx::var("a"), Idx::pow2(Idx::var("i"))),
        );
        let goal = Constr::leq(s, Idx::var("n") * Idx::var("a") + Idx::nat(1));
        for n in 0..6 {
            for a in 0..4 {
                check_parity(&u, &Constr::Top, &goal, &[n, a], 8);
            }
        }
        // Empty range sums to zero.
        let empty = Idx::sum("i", Idx::nat(3), Idx::nat(2), Idx::var("i"));
        let goal = Constr::eq(empty, Idx::zero());
        assert!(check_parity(&u, &Constr::Top, &goal, &[0, 0], 8));
        // Infinite bound poisons the comparison (false), like the tree's Err.
        let bad = Idx::sum("i", Idx::zero(), Idx::infty(), Idx::var("i"));
        let goal = Constr::eq(bad.clone(), bad);
        assert!(!check_parity(&u, &Constr::Top, &goal, &[0, 0], 8));
    }

    #[test]
    fn unbound_variables_poison_their_comparison() {
        let u = nat_universals(&["n"]);
        let goal = Constr::leq(Idx::var("mystery"), Idx::nat(100));
        assert!(!check_parity(&u, &Constr::Top, &goal, &[0], 8));
        // …and Not flips it, exactly like eval_bounded.
        let goal = Constr::Not(Arc::new(Constr::leq(Idx::var("mystery"), Idx::nat(100))));
        assert!(check_parity(&u, &Constr::Top, &goal, &[0], 8));
    }

    #[test]
    fn rationals_and_infinity() {
        let u = nat_universals(&["n"]);
        // n / 2 exercises the exact fallback at odd n, the fast path at even.
        let goal = Constr::leq(Idx::var("n") / Idx::nat(2), Idx::half_ceil(Idx::var("n")));
        for n in 0..8 {
            assert!(check_parity(&u, &Constr::Top, &goal, &[n], 8));
        }
        // Division by zero is ∞.
        let goal = Constr::eq(Idx::var("n") / Idx::zero(), Idx::infty());
        assert!(check_parity(&u, &Constr::Top, &goal, &[1], 8));
        // log2/pow2 parity, including the dyadic approximation path.
        let goal = Constr::leq(
            Idx::log2(Idx::var("n") + Idx::nat(3)),
            Idx::pow2(Idx::var("n")),
        );
        for n in 0..6 {
            check_parity(&u, &Constr::Top, &goal, &[n], 8);
        }
    }

    #[test]
    fn exact_fallback_for_non_integer_arithmetic() {
        // Thirds never hit the i64 fast path; the Rational fallback is exact.
        let goal = Constr::eq(
            Idx::nat(1) / Idx::nat(3) + Idx::nat(2) / Idx::nat(3),
            Idx::one(),
        );
        assert!(check_parity(&[], &Constr::Top, &goal, &[], 8));
        // pow2 saturates to ∞ outside 0..62, matching pow2_total.
        let goal = Constr::eq(Idx::pow2(Idx::nat(62)), Idx::infty());
        assert!(check_parity(&[], &Constr::Top, &goal, &[], 8));
        // ∞ is absorbing through the fallback, and large powers stay on the
        // fast path right up to the i64 edge.
        let goal = Constr::leq(
            Idx::pow2(Idx::nat(61)) + Idx::pow2(Idx::nat(61)),
            Idx::infty(),
        );
        assert!(check_parity(&[], &Constr::Top, &goal, &[], 8));
    }

    #[test]
    fn duplicate_universals_are_last_binding_wins() {
        let u = vec![(IdxVar::new("n"), Sort::Nat), (IdxVar::new("n"), Sort::Nat)];
        let goal = Constr::eq(Idx::var("n"), Idx::nat(7));
        // The tree env binds in list order, so the second value wins.
        assert!(check_parity(&u, &Constr::Top, &goal, &[3, 7], 8));
        assert!(!check_parity(&u, &Constr::Top, &goal, &[7, 3], 8));
    }

    #[test]
    fn frame_reuse_is_clean_across_points() {
        let u = nat_universals(&["n"]);
        let goal = Constr::exists(
            "i",
            Sort::Nat,
            Constr::eq(
                Idx::var("i") + Idx::sum("j", Idx::zero(), Idx::var("n"), Idx::var("j")),
                Idx::var("n") * Idx::nat(2),
            ),
        );
        let q = compile_query(&u, &Constr::Top, &goal);
        let mut frame = q.new_frame();
        let env_result = |n: i64| {
            let env = IdxEnv::from_pairs([("n", Extended::from(n))]);
            goal.eval_bounded(&env, 8)
        };
        for n in 0..8 {
            let got = q.eval_point(&mut frame, &[Val::int(n)], 8);
            assert_eq!(got, env_result(n), "n = {n}");
        }
        // And in reverse order, exercising stale-state hazards.
        for n in (0..8).rev() {
            let got = q.eval_point(&mut frame, &[Val::int(n)], 8);
            assert_eq!(got, env_result(n), "n = {n} (reverse)");
        }
    }
}
