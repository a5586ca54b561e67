//! The sixteen benchmark programs of Table 1.
//!
//! Types and relative-cost bounds follow the RelCost paper's statements,
//! adapted to this reproduction's concrete syntax and cost model (one unit
//! per application, case, conditional, primitive, let and projection — see
//! `rel_unary::CostModel::standard`).  Constant factors therefore differ from
//! the paper (whose abstract cost model charges only selected steps), but the
//! *shape* of each bound — which quantities it depends on and how — is the
//! same.

/// How far this reproduction's checker gets on a benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerificationStatus {
    /// The program checks against the stated relational type and bound, and
    /// the test suite asserts it.
    Verified,
    /// The program parses and exercises the checker end to end, but the
    /// stated bound is not (yet) discharged by the native constraint solver;
    /// EXPERIMENTS.md records the gap.
    Unverified,
}

/// One benchmark of Table 1.
#[derive(Debug, Clone, Copy)]
pub struct Benchmark {
    /// The name used in Table 1.
    pub name: &'static str,
    /// Concrete-syntax source (a whole program: helper defs + the benchmark).
    pub source: &'static str,
    /// One-line description (mirrors §6's description of the examples).
    pub description: &'static str,
    /// Whether the stated bound is machine-checked in this reproduction.
    pub status: VerificationStatus,
    /// Whether the checker *proves* every definition (symbolically, with no
    /// grid sweep); a `Verified` benchmark without it is grid-checked.
    pub proved: bool,
    /// Name of the definition whose report should be read as "the benchmark".
    pub main_def: &'static str,
}

/// `map` — §3's motivating example: equal mapping functions, lists differing
/// in at most α positions, relative cost t·α.
pub const MAP: &str = r#"
def map : forall t :: real. box(tv a ->[t] tv b) ->
          forall n :: nat. forall al :: nat.
          list[n; al] tv a ->[t * al] list[n; al] tv b
= Lam. fix map(f). Lam. Lam. lam l.
    case l of
      nil -> nil
    | h :: tl -> cons(f h, map f [] [] tl);
"#;

/// `append` — structure-preserving concatenation; zero relative cost.
pub const APPEND: &str = r#"
def append : unitr -> forall n :: nat. forall a :: nat.
             list[n; a] (UU int) ->
             forall m :: nat. forall b :: nat.
             list[m; b] (UU int) ->[0] list[n + m; a + b] (UU int)
= fix append(u). Lam. Lam. lam l1. Lam. Lam. lam l2.
    case l1 of
      nil -> l2
    | h :: t -> cons(h, append () [] [] t [] [] l2);
"#;

/// `rev` — naive (append-based) reversal; zero relative cost.
pub const REV: &str = r#"
def append : unitr -> forall n :: nat. forall a :: nat.
             list[n; a] (UU int) ->
             forall m :: nat. forall b :: nat.
             list[m; b] (UU int) ->[0] list[n + m; a + b] (UU int)
= fix append(u). Lam. Lam. lam l1. Lam. Lam. lam l2.
    case l1 of
      nil -> l2
    | h :: t -> cons(h, append () [] [] t [] [] l2);

def rev : unitr -> forall n :: nat. forall a :: nat.
          list[n; a] (UU int) ->[0] list[n; a] (UU int)
= fix rev(u). Lam. Lam. lam l.
    case l of
      nil -> nil
    | h :: t -> append () [] [] (rev () [] [] t) [] [] cons(h, nil);
"#;

/// `zip` — pairing two lists position-wise; zero relative cost, differences
/// add.
pub const ZIP: &str = r#"
def zip : unitr -> forall n :: nat. forall a :: nat. forall b :: nat.
          list[n; a] (UU int) ->[0] list[n; b] (UU int) ->[0]
          list[n; a + b] (UU int * UU int)
= fix zip(u). Lam. Lam. Lam. lam l1. lam l2.
    case l1 of
      nil -> nil
    | h1 :: t1 ->
        case l2 of
          nil -> nil
        | h2 :: t2 -> cons((h1, h2), zip () [] [] [] t1 t2);
"#;

/// `appSum` — sum of an appended list; zero relative cost (values differ, the
/// traversal does not).
pub const APP_SUM: &str = r#"
def append : unitr -> forall n :: nat. forall a :: nat.
             list[n; a] (UU int) ->
             forall m :: nat. forall b :: nat.
             list[m; b] (UU int) ->[0] list[n + m; a + b] (UU int)
= fix append(u). Lam. Lam. lam l1. Lam. Lam. lam l2.
    case l1 of
      nil -> l2
    | h :: t -> cons(h, append () [] [] t [] [] l2);

def suml : unitr -> forall n :: nat. forall a :: nat.
           list[n; a] (UU int) ->[0] UU int
= fix suml(u). Lam. Lam. lam l.
    case l of
      nil -> 0
    | h :: t -> h + suml () [] [] t;

def appSum : unitr -> forall n :: nat. forall a :: nat.
             list[n; a] (UU int) ->
             forall m :: nat. forall b :: nat.
             list[m; b] (UU int) ->[0] UU int
= fix appSum(u). Lam. Lam. lam l1. Lam. Lam. lam l2.
    suml () [] [] (append () [] [] l1 [] [] l2);
"#;

/// `comp` — constant-time comparison of two bit lists (passwords): the two
/// runs always have exactly the same cost, so the relative cost is zero.
/// The statement is made through exact unary `exec` bounds, as in the paper.
pub const COMP: &str = r#"
def comp : UU (unit ->[0, 0] forall n :: nat.
               list[n] int ->[0, 0] list[n] int ->[8 * n + 1, 8 * n + 1] bool)
= fix comp(u). Lam. lam l1. lam l2.
    case l1 of
      nil -> true
    | h1 :: t1 ->
        case l2 of
          nil -> true
        | h2 :: t2 ->
            let r = comp () [] t1 t2 in
            if h1 == h2 then r else false;
"#;

/// `sam` — square-and-multiply exponentiation over a list of bits, written in
/// the constant-time style (both branches of the key-dependent conditional do
/// the same work); exact unary bounds, zero relative cost.
pub const SAM: &str = r#"
def sam : UU (unit ->[0, 0] forall n :: nat.
              list[n] int ->[0, 0] int ->[11 * n + 1, 11 * n + 1] int)
= fix sam(u). Lam. lam bits. lam x.
    case bits of
      nil -> 1
    | b :: rest ->
        let r = sam () [] rest x in
        let s = r * r in
        let m = s * x in
        if b == 1 then m else s;
"#;

/// `find` — two different programs: a head-to-tail scan and a tail-to-head
/// scan; related through their unary exec intervals.
pub const FIND: &str = r#"
def find : U(unit ->[0, 0] forall n :: nat.
             list[n] int ->[0, 0] int ->[7 * n + 1, 7 * n + 1] bool,
             unit ->[0, 0] forall n :: nat.
             list[n] int ->[0, 0] int ->[6 * n + 1, 7 * n + 1] bool)
= fix findA(u). Lam. lam l. lam x.
    case l of
      nil -> false
    | h :: t ->
        let r = findA () [] t x in
        if h == x then true else r
~ fix findB(u). Lam. lam l. lam x.
    case l of
      nil -> false
    | h :: t ->
        let r = findB () [] t x in
        if r then r else h == x;
"#;

/// `2Dcount` — counts the rows of a matrix (list of rows) that contain a key,
/// scanning every row completely; exact unary bounds, zero relative cost.
pub const TWO_D_COUNT: &str = r#"
def has : UU (unit ->[0, 0] forall c :: nat.
              list[c] int ->[0, 0] int ->[7 * c + 1, 7 * c + 1] bool)
= fix has(u). Lam. lam row. lam x.
    case row of
      nil -> false
    | h :: t ->
        let r = has () [] t x in
        if h == x then true else r;

def twoDcount : UU (unit ->[0, 0] forall r :: nat. forall c :: nat.
                    list[r] (list[c] int) ->[0, 0] int ->
                    [(7 * c + 13) * r + 1, (7 * c + 13) * r + 1] int)
= fix cnt(u). Lam. Lam. lam m. lam x.
    case m of
      nil -> 0
    | row :: rest ->
        let r = cnt () [] [] rest x in
        let b = has () [] row x in
        let inc = r + 1 in
        if b then inc else r;
"#;

/// `bsplit` — splits a list into two nearly equal halves (the helper of the
/// divide-and-conquer examples); zero relative cost, halves' sizes and
/// difference counts tracked exactly.
pub const BSPLIT: &str = r#"
def bsplit : box(unitr -> forall n :: nat. forall a :: nat.
              list[n; a] (UU int) ->[0]
              exists b :: nat. {b <= a} &
                (list[ceil(n / 2); b] (UU int) * list[floor(n / 2); a - b] (UU int)))
= fix bsplit(u). Lam. Lam. lam l.
    case l of
      nil -> pack (nil, nil)
    | h1 :: tl1 ->
        case tl1 of
          nil -> pack (cons(h1, nil), nil)
        | h2 :: tl2 ->
            unpack bsplit () [] [] tl2 as r in
            clet r as z in
            pack (cons(h1, fst z), cons(h2, snd z));
"#;

/// `merge` — merging two sorted lists, stated through unary exec bounds
/// (lower bound `min(n, m)`-shaped, upper bound `(n + m)`-shaped), exactly the
/// form the msort walk-through of §6 consumes.
pub const MERGE: &str = r#"
def merge : UU (unit ->[0, 0] forall n :: nat. forall m :: nat.
                (list[n] int * list[m] int)
                ->[11 * min(n, m) + 4, 11 * (n + m) + 6] list[n + m] int)
= fix merge(u). Lam. Lam. lam p.
    let l1 = fst p in
    let l2 = snd p in
    case l1 of
      nil -> l2
    | h1 :: t1 ->
        case l2 of
          nil -> l1
        | h2 :: t2 ->
            if h1 <= h2
            then cons(h1, merge () [] [] (t1, l2))
            else cons(h2, merge () [] [] (l1, t2));
"#;

/// `msort` — merge sort, the paper's worked example: the relative cost of two
/// runs on lists differing in at most α positions is bounded by the
/// divide-and-conquer recurrence `Q(n, α)` (here with the constants of our
/// cost model).
pub const MSORT: &str = r#"
def bsplit : box(unitr -> forall n :: nat. forall a :: nat.
              list[n; a] (UU int) ->[0]
              exists b :: nat. {b <= a} &
                (list[ceil(n / 2); b] (UU int) * list[floor(n / 2); a - b] (UU int)))
= fix bsplit(u). Lam. Lam. lam l.
    case l of
      nil -> pack (nil, nil)
    | h1 :: tl1 ->
        case tl1 of
          nil -> pack (cons(h1, nil), nil)
        | h2 :: tl2 ->
            unpack bsplit () [] [] tl2 as r in
            clet r as z in
            pack (cons(h1, fst z), cons(h2, snd z));

def merge : box(UU (unit ->[0, 0] forall n :: nat. forall m :: nat.
                (list[n] int * list[m] int)
                ->[11 * min(n, m) + 4, 11 * (n + m) + 6] list[n + m] int))
= fix merge(u). Lam. Lam. lam p.
    let l1 = fst p in
    let l2 = snd p in
    case l1 of
      nil -> l2
    | h1 :: t1 ->
        case l2 of
          nil -> l1
        | h2 :: t2 ->
            if h1 <= h2
            then cons(h1, merge () [] [] (t1, l2))
            else cons(h2, merge () [] [] (l1, t2));

def msort : box(unitr -> forall n :: nat. forall al :: nat.
             list[n; al] (UU int)
             ->[sum(i = 0 to ceil(log2(n)),
                    (16 * ceil(pow2(i) / 2) + 32) * min(al, pow2(ceil(log2(n)) - i)))]
             UU (list[n] int))
= fix msort(u). Lam. Lam. lam l.
    case l of
      nil -> nil
    | h1 :: tl1 ->
        case tl1 of
          nil -> cons(h1, nil)
        | h2 :: tl2 ->
            let r = bsplit () [] [] l in
            unpack r as r' in
            clet r' as z in
            merge () [] [] (msort () [] [] (fst z), msort () [] [] (snd z));
"#;

/// `filter` — keeps the elements satisfying a predicate; the output length is
/// existentially quantified and the relative cost is proportional to the
/// number of differing positions.
pub const FILTER: &str = r#"
def filter : box(UU (int ->[1, 1] bool)) ->
             forall n :: nat. forall a :: nat.
             list[n; a] (UU int) ->[3 * a]
             exists m :: nat. {m <= n} & UU (list[m] int)
= lam p. fix filter(l).
    case l of
      nil -> pack nil
    | h :: t ->
        unpack filter t as r in
        clet r as kept in
        if p h then pack (cons(h, kept)) else pack kept;
"#;

/// `ssort` — selection sort stated through unary exec bounds (quadratic).
pub const SSORT: &str = r#"
def smallest : UU (unit ->[0, 0] forall n :: nat.
                   list[n] int ->[0, 0] int ->[7 * n + 1, 7 * n + 1] int)
= fix smallest(u). Lam. lam l. lam acc.
    case l of
      nil -> acc
    | h :: t ->
        let m = smallest () [] t acc in
        if h <= m then h else m;

def ssort : UU (unit ->[0, 0] forall n :: nat.
                list[n] int ->[0, 8 * n * n + 12 * n + 1] list[n] int)
= fix ssort(u). Lam. lam l.
    case l of
      nil -> nil
    | h :: t ->
        let m = smallest () [] t h in
        cons(m, ssort () [] t);
"#;

/// `flatten` — concatenates the rows of a matrix; zero relative cost, the
/// output difference count is the product of the row difference counts.
pub const FLATTEN: &str = r#"
def append : unitr -> forall n :: nat. forall a :: nat.
             list[n; a] (UU int) ->
             forall m :: nat. forall b :: nat.
             list[m; b] (UU int) ->[0] list[n + m; a + b] (UU int)
= fix append(u). Lam. Lam. lam l1. Lam. Lam. lam l2.
    case l1 of
      nil -> l2
    | h :: t -> cons(h, append () [] [] t [] [] l2);

def flatten : unitr -> forall r :: nat. forall c :: nat. forall a :: nat.
              list[r; a] (list[c; c] (UU int)) ->[0] list[r * c; a * c] (UU int)
= fix flatten(u). Lam. Lam. Lam. lam m.
    case m of
      nil -> nil
    | row :: rest -> append () [] [] row [] [] (flatten () [] [] [] rest);
"#;

/// `bfold` — a balanced fold (divide-and-conquer sum) over a list, using
/// `bsplit`; the relative cost follows the same recurrence shape as `msort`.
pub const BFOLD: &str = r#"
def bsplit : box(unitr -> forall n :: nat. forall a :: nat.
              list[n; a] (UU int) ->[0]
              exists b :: nat. {b <= a} &
                (list[ceil(n / 2); b] (UU int) * list[floor(n / 2); a - b] (UU int)))
= fix bsplit(u). Lam. Lam. lam l.
    case l of
      nil -> pack (nil, nil)
    | h1 :: tl1 ->
        case tl1 of
          nil -> pack (cons(h1, nil), nil)
        | h2 :: tl2 ->
            unpack bsplit () [] [] tl2 as r in
            clet r as z in
            pack (cons(h1, fst z), cons(h2, snd z));

def bfold : box(unitr -> forall n :: nat. forall al :: nat.
             list[n; al] (UU int)
             ->[sum(i = 0 to ceil(log2(n)),
                    16 * min(al, pow2(ceil(log2(n)) - i)))]
             UU int)
= fix bfold(u). Lam. Lam. lam l.
    case l of
      nil -> 0
    | h1 :: tl1 ->
        case tl1 of
          nil -> h1
        | h2 :: tl2 ->
            let r = bsplit () [] [] l in
            unpack r as r' in
            clet r' as z in
            bfold () [] [] (fst z) + bfold () [] [] (snd z);
"#;

/// All sixteen benchmarks of Table 1, in the paper's row order.
pub fn all_benchmarks() -> Vec<Benchmark> {
    use VerificationStatus::{Unverified, Verified};
    vec![
        Benchmark {
            name: "filter",
            source: FILTER,
            description: "keep the elements satisfying a predicate",
            status: Unverified,
            proved: false,
            main_def: "filter",
        },
        Benchmark {
            name: "append",
            source: APPEND,
            description: "list concatenation (zero relative cost)",
            status: Verified,
            proved: true,
            main_def: "append",
        },
        Benchmark {
            name: "rev",
            source: REV,
            description: "append-based list reversal (zero relative cost)",
            status: Verified,
            proved: true,
            main_def: "rev",
        },
        Benchmark {
            name: "map",
            source: MAP,
            description: "the §3 map example (relative cost t·α)",
            status: Verified,
            proved: true,
            main_def: "map",
        },
        Benchmark {
            name: "comp",
            source: COMP,
            description: "constant-time password comparison",
            status: Verified,
            proved: true,
            main_def: "comp",
        },
        Benchmark {
            name: "sam",
            source: SAM,
            description: "constant-time square-and-multiply",
            status: Verified,
            proved: true,
            main_def: "sam",
        },
        Benchmark {
            name: "find",
            source: FIND,
            description: "head-to-tail vs tail-to-head scan (two programs)",
            status: Verified,
            proved: true,
            main_def: "find",
        },
        Benchmark {
            name: "2Dcount",
            source: TWO_D_COUNT,
            description: "count matrix rows containing a key",
            status: Verified,
            proved: false,
            main_def: "twoDcount",
        },
        Benchmark {
            name: "ssort",
            source: SSORT,
            description: "selection sort (unary quadratic bounds)",
            status: Verified,
            proved: false,
            main_def: "ssort",
        },
        Benchmark {
            name: "bsplit",
            source: BSPLIT,
            description: "split a list into two nearly equal halves",
            status: Verified,
            proved: false,
            main_def: "bsplit",
        },
        Benchmark {
            name: "flatten",
            source: FLATTEN,
            description: "concatenate the rows of a matrix",
            // Promoted to Verified when the Fourier–Motzkin layer landed:
            // its obligations (products of row counts and widths against
            // the flattened totals) are decided symbolically — zero grid
            // points — once products distribute over linear combinations.
            status: Verified,
            proved: true,
            main_def: "flatten",
        },
        Benchmark {
            name: "appSum",
            source: APP_SUM,
            description: "sum of an appended list (zero relative cost)",
            status: Verified,
            proved: true,
            main_def: "appSum",
        },
        Benchmark {
            name: "merge",
            source: MERGE,
            description: "merge two sorted lists (unary interval bounds)",
            status: Unverified,
            proved: false,
            main_def: "merge",
        },
        Benchmark {
            name: "zip",
            source: ZIP,
            description: "position-wise pairing (zero relative cost)",
            status: Verified,
            proved: true,
            main_def: "zip",
        },
        Benchmark {
            name: "msort",
            source: MSORT,
            description: "merge sort and its divide-and-conquer recurrence",
            status: Unverified,
            proved: false,
            main_def: "msort",
        },
        Benchmark {
            name: "bfold",
            source: BFOLD,
            description: "balanced fold over a list",
            status: Verified,
            proved: false,
            main_def: "bfold",
        },
    ]
}

/// Looks up a benchmark by its Table-1 name.
pub fn benchmark(name: &str) -> Option<Benchmark> {
    all_benchmarks().into_iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        assert!(benchmark("msort").is_some());
        assert!(benchmark("map").is_some());
        assert!(benchmark("quicksort").is_none());
    }

    #[test]
    fn sources_mention_their_main_definition() {
        for b in all_benchmarks() {
            assert!(
                b.source.contains(&format!("def {}", b.main_def)),
                "{} does not define {}",
                b.name,
                b.main_def
            );
        }
    }
}
