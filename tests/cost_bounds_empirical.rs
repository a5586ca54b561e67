//! Experiment E4: the measured relative cost of two runs never exceeds the
//! typed bound, on randomized workloads (lists of length ≤ 64 differing in at
//! most α positions).

use rel_eval::{eval, Env, Value};
use rel_suite::benchmark;
use rel_suite::generators::{apply_spine, list_literal, random_int_list, Workload};
use rel_syntax::{parse_program, Expr, Program};

#[test]
fn structure_synchronous_functions_have_zero_relative_cost() {
    // suml, append and rev traverse the spine only: two runs on lists
    // differing in value (not length) cost exactly the same — the typed
    // bound 0.  rev calls append, so every call runs against its program's
    // definitions.
    for (bench_name, def_name) in [("appSum", "suml"), ("rev", "append"), ("rev", "rev")] {
        let program = parse_program(benchmark(bench_name).unwrap().source).unwrap();
        let env = program_env(&program);
        let body = program.def(def_name).unwrap().left.clone();
        let run = |items: &[i64]| {
            let call = if def_name == "append" {
                // append () [] [] l1 [] [] l2 on the list's two halves.
                let (l1, l2) = items.split_at(items.len() / 2);
                apply_spine(body.clone(), 2, list_literal(l1))
                    .iapp()
                    .iapp()
                    .app(list_literal(l2))
            } else {
                apply_spine(body.clone(), 2, list_literal(items))
            };
            cost_in(&env, &call)
        };
        for seed in 0..5u64 {
            let w = Workload::generate(24, 6, seed);
            let (left, right) = (run(&w.left), run(&w.right));
            assert!(left > 0, "{bench_name}/{def_name} seed {seed}: no cost");
            assert_eq!(left, right, "{bench_name}/{def_name} seed {seed}");
        }
    }
}

#[test]
fn constant_time_comparison_is_constant_time() {
    let program = parse_program(benchmark("comp").unwrap().source).unwrap();
    let comp = program.def("comp").unwrap();
    for seed in 0..8u64 {
        let w = Workload::generate(16, 16, seed);
        let secret = list_literal(&w.left);
        let cost = |guess: &[i64]| {
            let call = apply_spine(comp.left.clone(), 1, secret.clone()).app(list_literal(guess));
            eval(&call, &Env::new()).unwrap().cost
        };
        assert_eq!(cost(&w.left), cost(&w.right), "seed {seed}");
    }
}

#[test]
fn map_relative_cost_is_bounded_by_alpha_times_per_element_cost() {
    // Apply map with an (equal) mapping function λx. x + 1 to lists differing
    // in α positions: the two runs cost exactly the same (the relative cost
    // bound t·α is an upper bound; equal functions make the actual difference
    // zero in this cost model).
    let program = parse_program(benchmark("map").unwrap().source).unwrap();
    let map = program.def("map").unwrap();
    let f = rel_syntax::parse_expr("lam x. x + 1").unwrap();
    for seed in 0..5u64 {
        let w = Workload::generate(20, 7, seed);
        let run = |items: &[i64]| {
            let call = map
                .left
                .clone()
                .iapp()
                .app(f.clone())
                .iapp()
                .iapp()
                .app(list_literal(items));
            eval(&call, &Env::new()).unwrap().cost as i64
        };
        let diff = (run(&w.left) - run(&w.right)).abs();
        let bound = 3 * (w.differing as i64); // per-element cost of f is ≤ 3
        assert!(diff <= bound, "seed {seed}: {diff} > {bound}");
    }
}

#[test]
fn find_variants_differ_by_at_most_their_exec_interval_gap() {
    let program = parse_program(benchmark("find").unwrap().source).unwrap();
    let def = program.def("find").unwrap();
    let left = def.left.clone();
    let right = def.right.clone().unwrap();
    for seed in 0..5u64 {
        let w = Workload::generate(16, 4, seed);
        let run = |body: &rel_syntax::Expr, items: &[i64]| {
            let call =
                apply_spine(body.clone(), 1, list_literal(items)).app(rel_syntax::Expr::Int(3));
            eval(&call, &Env::new()).unwrap().cost as i64
        };
        let n = 16i64;
        // Typed intervals: left [7n+1, 7n+1], right [6n+1, 7n+1]; the relative
        // cost in either direction is bounded by the interval gap n.
        let diff = (run(&left, &w.left) - run(&right, &w.right)).abs();
        assert!(diff <= n + 1, "seed {seed}: {diff}");
    }
}

// ----------------------------------------------------------------------
// Evaluator oracle for the exec-bound and relational benchmarks
// ----------------------------------------------------------------------

/// Input sizes the oracle walks, small to large.
const SIZES: [usize; 9] = [0, 1, 2, 3, 5, 8, 13, 21, 34];

/// Evaluates a program's definitions in order and binds each by name, so a
/// benchmark's main function can call its helpers.
fn program_env(program: &Program) -> Env {
    program.defs.iter().fold(Env::new(), |env, d| {
        let value = eval(&d.left, &env).unwrap().value;
        env.bind(d.name.clone(), value)
    })
}

/// Cost of running `call` against the definitions of `program`.
fn cost_in(env: &Env, call: &Expr) -> i64 {
    eval(call, env).unwrap().cost as i64
}

/// Checks measured costs against a stated unary exec interval `[lo, hi]`,
/// each sample given as `(sizes, cost)`.  The constant and the growth are
/// checked apart: the cost at size zero may exceed `hi` at zero only by
/// `spine` — the applications of the call spine (unit and index arguments,
/// leading list arguments), which the type gives cost 0 and the evaluator
/// charges one each — and the growth from there may never exceed `hi`'s
/// growth.  A bound with the right total but the wrong slope fails the
/// second check at large sizes even if the first passes.
fn assert_exec_interval(
    name: &str,
    samples: &[(Vec<i64>, i64)],
    lo: impl Fn(&[i64]) -> i64,
    hi: impl Fn(&[i64]) -> i64,
    spine: i64,
) {
    let (zero, base) = samples
        .iter()
        .find(|(sizes, _)| sizes.iter().all(|&s| s == 0))
        .unwrap_or_else(|| panic!("{name}: no size-zero sample"));
    assert!(
        *base <= hi(zero) + spine,
        "{name}: constant {base} exceeds the stated {} plus {spine} spine applications",
        hi(zero)
    );
    for (sizes, cost) in samples {
        assert!(
            cost - base <= hi(sizes) - hi(zero),
            "{name} at {sizes:?}: growth {} exceeds the stated growth {}",
            cost - base,
            hi(sizes) - hi(zero)
        );
        assert!(
            *cost >= lo(sizes),
            "{name} at {sizes:?}: cost {cost} is under the stated lower bound {}",
            lo(sizes)
        );
    }
}

/// The linear exec-bound functions, called `f () [] l x`: comp (`x` a
/// second list of the same length), sam, both find programs, has and
/// smallest (`x` an integer).  Each states `[k·n + 1, k·n + 1]` on its last
/// arrow (find's right program `[6n + 1, 7n + 1]`); the spine `()`, `[]`,
/// `l` adds 3.
#[test]
fn linear_exec_bounds_hold_with_their_spine_constant() {
    // (benchmark, definition, right program?, list second argument?,
    //  lower and upper slope)
    let cases = [
        ("comp", "comp", false, true, 8, 8),
        ("sam", "sam", false, false, 11, 11),
        ("find", "find", false, false, 7, 7),
        ("find", "find", true, false, 6, 7),
        ("2Dcount", "has", false, false, 7, 7),
        ("ssort", "smallest", false, false, 7, 7),
    ];
    for (bench, def_name, right, list_arg, lo, hi) in cases {
        let program = parse_program(benchmark(bench).unwrap().source).unwrap();
        let env = program_env(&program);
        let def = program.def(def_name).unwrap();
        let body = if right {
            def.right.clone().unwrap()
        } else {
            def.left.clone()
        };
        let mut samples = Vec::new();
        for n in SIZES {
            for seed in 0..3u64 {
                let w = Workload::generate(n, n, seed);
                let spine = apply_spine(body.clone(), 1, list_literal(&w.left));
                let x = if list_arg {
                    list_literal(&w.right)
                } else if bench == "sam" {
                    // Bases whose powers cannot overflow.
                    Expr::Int([0, 1, -1][seed as usize])
                } else {
                    // A key that is present, then absent, then below all.
                    Expr::Int([w.left.first().copied().unwrap_or(0), 1000, -1][seed as usize])
                };
                samples.push((vec![n as i64], cost_in(&env, &spine.app(x))));
            }
        }
        let name = format!("{bench}::{def_name}{}", if right { " (right)" } else { "" });
        assert_exec_interval(&name, &samples, |s| lo * s[0] + 1, |s| hi * s[0] + 1, 3);
    }
}

/// twoDcount states `(7c + 13)·r + 1` exactly for an `r × c` matrix; its
/// spine `()`, `[]`, `[]`, `m` adds 4.  Rows and columns grow separately,
/// so each dimension's slope is checked.
#[test]
fn two_d_count_exec_bound_holds_in_both_dimensions() {
    let program = parse_program(benchmark("2Dcount").unwrap().source).unwrap();
    let env = program_env(&program);
    let body = program.def("twoDcount").unwrap().left.clone();
    let bound = |s: &[i64]| (7 * s[1] + 13) * s[0] + 1;
    let mut samples = Vec::new();
    for r in [0usize, 1, 2, 5, 8] {
        for c in [0usize, 1, 3, 8, 13] {
            let rows: Vec<Vec<i64>> = (0..r as u64).map(|i| random_int_list(c, i)).collect();
            let matrix = rows
                .iter()
                .rev()
                .fold(Expr::Nil, |acc, row| Expr::cons(list_literal(row), acc));
            let key = rows
                .first()
                .and_then(|row| row.first())
                .copied()
                .unwrap_or(0);
            let call = apply_spine(body.clone(), 2, matrix).app(Expr::Int(key));
            samples.push((vec![r as i64, c as i64], cost_in(&env, &call)));
        }
    }
    assert_exec_interval("2Dcount::twoDcount", &samples, bound, bound, 4);
}

/// ssort states `[0, 8n² + 12n + 1]`; its spine `()`, `[]` adds 2.  Sorted,
/// reversed and random inputs take different paths through `smallest`.
#[test]
fn ssort_quadratic_bound_holds() {
    let program = parse_program(benchmark("ssort").unwrap().source).unwrap();
    let env = program_env(&program);
    let body = program.def("ssort").unwrap().left.clone();
    let mut samples = Vec::new();
    for n in SIZES {
        let random = random_int_list(n, n as u64);
        let mut sorted = random.clone();
        sorted.sort();
        let reversed: Vec<i64> = sorted.iter().rev().copied().collect();
        for input in [random, sorted, reversed] {
            let call = apply_spine(body.clone(), 1, list_literal(&input));
            samples.push((vec![n as i64], cost_in(&env, &call)));
        }
    }
    assert_exec_interval(
        "ssort::ssort",
        &samples,
        |_| 0,
        |s| 8 * s[0] * s[0] + 12 * s[0] + 1,
        2,
    );
}

/// bsplit relates two lists of length `n` differing in `a` positions: zero
/// relative cost, halves of lengths `⌈n/2⌉` and `⌊n/2⌋`, and the halves'
/// difference counts `b` and `a − b` for some `b ≤ a`.
#[test]
fn bsplit_halves_and_zero_relative_cost_hold() {
    let program = parse_program(benchmark("bsplit").unwrap().source).unwrap();
    let env = program_env(&program);
    let body = program.def("bsplit").unwrap().left.clone();
    let split = |items: &[i64]| {
        let out = eval(&apply_spine(body.clone(), 2, list_literal(items)), &env).unwrap();
        match out.value {
            Value::Pair(a, b) => (
                out.cost as i64,
                a.as_int_list().unwrap(),
                b.as_int_list().unwrap(),
            ),
            other => panic!("bsplit returned {other}"),
        }
    };
    let differing = |x: &[i64], y: &[i64]| x.iter().zip(y).filter(|(p, q)| p != q).count();
    for n in SIZES {
        for alpha in [0, n / 2, n] {
            let w = Workload::generate(n, alpha, n as u64);
            let (cost_l, l1, l2) = split(&w.left);
            let (cost_r, r1, r2) = split(&w.right);
            assert_eq!(cost_l, cost_r, "n = {n}, α = {alpha}: relative cost");
            assert_eq!((l1.len(), l2.len()), (n.div_ceil(2), n / 2), "n = {n}");
            assert_eq!((r1.len(), r2.len()), (n.div_ceil(2), n / 2), "n = {n}");
            assert!(
                differing(&l1, &r1) + differing(&l2, &r2) <= w.differing,
                "n = {n}, α = {alpha}: the halves differ in more than a positions"
            );
        }
    }
}

/// bfold states the relative cost `Σ_{i=0}^{⌈log₂ n⌉} 16·min(α, 2^{⌈log₂ n⌉−i})`
/// for lists of length `n` differing in `α` positions.
#[test]
fn bfold_relative_cost_is_within_its_recurrence() {
    let program = parse_program(benchmark("bfold").unwrap().source).unwrap();
    let env = program_env(&program);
    let body = program.def("bfold").unwrap().left.clone();
    let run = |items: &[i64]| cost_in(&env, &apply_spine(body.clone(), 2, list_literal(items)));
    for n in SIZES {
        let depth = (n.max(1) as f64).log2().ceil() as u32;
        for alpha in [0, 1, n / 2, n] {
            let w = Workload::generate(n, alpha, alpha as u64);
            let a = w.differing as i64;
            let bound: i64 = (0..=depth).map(|i| 16 * a.min(1 << (depth - i))).sum();
            let diff = run(&w.left) - run(&w.right);
            assert!(diff.abs() <= bound, "n = {n}, α = {a}: {diff} > {bound}");
        }
    }
}

/// Runs `check` on a thread with a 64 MiB stack: the tree-walking evaluator
/// recurses once per list element and per call, which exceeds a test
/// thread's default stack on the longest inputs of an unoptimized build.
fn on_large_stack(check: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(check)
        .unwrap()
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
}

/// Number of positions at which two lists of values differ (lengths must
/// agree).
fn differing_positions(left: &Value, right: &Value) -> usize {
    match (left, right) {
        (Value::List(l), Value::List(r)) => {
            assert_eq!(l.len(), r.len(), "the two runs' outputs differ in length");
            l.iter().zip(r).filter(|(x, y)| x != y).count()
        }
        other => panic!("expected two lists, got {other:?}"),
    }
}

/// zip relates `list[n; a]` and `list[n; b]` inputs at relative cost 0 and
/// produces `list[n; a + b]`: on value-only pairs (equal spines) the two
/// runs cost the same and the zipped lists differ in at most `a + b`
/// positions.
#[test]
fn zip_relative_cost_is_zero_and_output_differs_in_at_most_a_plus_b() {
    on_large_stack(|| {
        let program = parse_program(benchmark("zip").unwrap().source).unwrap();
        let env = program_env(&program);
        let body = program.def("zip").unwrap().left.clone();
        let run = |l1: &[i64], l2: &[i64]| {
            let call = apply_spine(body.clone(), 3, list_literal(l1)).app(list_literal(l2));
            eval(&call, &env).unwrap()
        };
        for n in SIZES {
            for (alpha, beta) in [(0, 0), (1, n / 2), (n / 2, n / 3), (n, n)] {
                let firsts = Workload::generate(n, alpha, n as u64);
                let seconds = Workload::generate(n, beta, n as u64 + 1);
                let left = run(&firsts.left, &seconds.left);
                let right = run(&firsts.right, &seconds.right);
                assert_eq!(
                    left.cost, right.cost,
                    "n = {n}, α = {alpha}, β = {beta}: relative cost"
                );
                let bound = firsts.differing + seconds.differing;
                let diff = differing_positions(&left.value, &right.value);
                assert!(
                    diff <= bound,
                    "n = {n}: the pairs differ in {diff} > a + b = {bound} positions"
                );
            }
        }
    });
}

/// flatten relates `list[r; a] (list[c; c] _)` matrices at relative cost 0
/// and produces `list[r·c; a·c]`: on value-only pairs whose rows differ in
/// at most `a` rows (anywhere within a row) the two runs cost the same and
/// the flattened lists differ in at most `a·c` positions.
#[test]
fn flatten_relative_cost_is_zero_and_output_differs_in_at_most_a_times_c() {
    on_large_stack(|| {
        let program = parse_program(benchmark("flatten").unwrap().source).unwrap();
        let env = program_env(&program);
        let body = program.def("flatten").unwrap().left.clone();
        let matrix = |rows: &[Vec<i64>]| {
            rows.iter()
                .rev()
                .fold(Expr::Nil, |acc, row| Expr::cons(list_literal(row), acc))
        };
        let run =
            |rows: &[Vec<i64>]| eval(&apply_spine(body.clone(), 3, matrix(rows)), &env).unwrap();
        for r in [0, 1, 2, 5, 8] {
            for c in [0, 1, 3, 6] {
                for a in [0, 1, r / 2, r] {
                    // The first `a` rows of the right matrix may differ anywhere.
                    let seed = (r * 64 + c * 8 + a) as u64;
                    let (left, right): (Vec<_>, Vec<_>) = (0..r)
                        .map(|i| {
                            let row =
                                Workload::generate(c, if i < a { c } else { 0 }, seed + i as u64);
                            (row.left, row.right)
                        })
                        .unzip();
                    let (out_l, out_r) = (run(&left), run(&right));
                    assert_eq!(
                        out_l.cost, out_r.cost,
                        "r = {r}, c = {c}, a = {a}: relative cost"
                    );
                    assert_eq!(out_l.value.as_int_list().unwrap().len(), r * c);
                    let diff = differing_positions(&out_l.value, &out_r.value);
                    assert!(
                        diff <= a * c,
                        "r = {r}, c = {c}: {diff} > a·c = {} positions",
                        a * c
                    );
                }
            }
        }
    });
}

/// appSum states relative cost 0 for two appended lists of lengths `n` and
/// `m`: on value-only pairs the two runs cost exactly the same.
#[test]
fn app_sum_relative_cost_is_zero() {
    on_large_stack(|| {
        let program = parse_program(benchmark("appSum").unwrap().source).unwrap();
        let env = program_env(&program);
        let body = program.def("appSum").unwrap().left.clone();
        let run = |l1: &[i64], l2: &[i64]| {
            let call = apply_spine(body.clone(), 2, list_literal(l1))
                .iapp()
                .iapp()
                .app(list_literal(l2));
            cost_in(&env, &call)
        };
        for n in SIZES {
            for m in [0, 1, n / 2, n] {
                for alpha in [0, n / 2, n] {
                    let firsts = Workload::generate(n, alpha, n as u64);
                    let seconds = Workload::generate(m, m.min(alpha), m as u64 + 7);
                    let left = run(&firsts.left, &seconds.left);
                    assert!(left > 0, "n = {n}, m = {m}: no cost");
                    assert_eq!(
                        left,
                        run(&firsts.right, &seconds.right),
                        "n = {n}, m = {m}, α = {alpha}: relative cost"
                    );
                }
            }
        }
    });
}
