//! Numeric-layer grid checking: tree evaluation vs the compiled bytecode.
//!
//! The workload is two numeric-heavy entailments the symbolic layer cannot
//! discharge, with the two constraint shapes that dominate the suite's
//! numeric checks:
//!
//! * a merge-sort-style recurrence bound whose goal compares an opaque
//!   summation (`Σ min(a, 2^i)`) against a non-linear bound, and
//! * a pointwise disjunction (the shape heuristic 1 produces when it joins
//!   the consC/consNC derivations with ∨).
//!
//! Each check sweeps the full 3-variable grid (31³ = 29 791 points, the
//! regime the unverified-suite checks live in) plus the randomized phase,
//! through the tree-walking oracle (`with_tree_eval`, from the
//! `reference-eval` feature this crate's dev-dependency enables; release
//! builds do not carry it) and through the solver's compiled sweep.  Besides the
//! criterion-style report, the bench writes a machine-readable summary to
//! `BENCH_numeric.json` at the workspace root so the perf trajectory can be
//! tracked across PRs, and asserts the ≥5× acceptance bar for the compiled
//! layer.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use birelcost::Engine;
use rel_constraint::{with_tree_eval, Constr, SolveConfig, Solver};
use rel_index::{Idx, IdxVar, Sort};
use rel_suite::{all_benchmarks, VerificationStatus};
use rel_syntax::parse_program;

fn universals() -> Vec<(IdxVar, Sort)> {
    vec![
        (IdxVar::new("n"), Sort::Nat),
        (IdxVar::new("a"), Sort::Nat),
        (IdxVar::new("b"), Sort::Nat),
    ]
}

/// The two queries of the workload, as (hypothesis, goal) pairs.  Both are
/// valid, and only the numeric layer can see that.
fn queries() -> Vec<(Constr, Constr)> {
    // Σ_{i=0}^{b} min(a, 2^i)  ≤  n·a + n + 1   when b ≤ a ≤ n
    // (the sum is at most (b+1)·a ≤ (n+1)·a ≤ n·a + n).
    let hyp =
        Constr::leq(Idx::var("a"), Idx::var("n")).and(Constr::leq(Idx::var("b"), Idx::var("a")));
    let sum = Idx::sum(
        "i",
        Idx::zero(),
        Idx::var("b"),
        Idx::min(Idx::var("a"), Idx::pow2(Idx::var("i"))),
    );
    let recurrence = Constr::leq(
        sum,
        Idx::var("n") * Idx::var("a") + Idx::var("n") + Idx::one(),
    );
    // n ≤ 20  ∨  n + a ≥ 15 — valid pointwise only.
    let disjunction = Constr::leq(Idx::var("n"), Idx::nat(20))
        .or(Constr::geq(Idx::var("n") + Idx::var("a"), Idx::nat(15)));
    vec![(hyp, recurrence), (Constr::Top, disjunction)]
}

/// An enlarged grid (31³ = 29 791 points): the regime the unverified-suite
/// checks live in, where per-check fixed costs (the symbolic attempt, lemma
/// saturation — identical on both paths) are noise and the per-point
/// evaluator dominates.  The FM layer is pinned *off* here, which leaves a
/// pure grid — this series measures the numeric evaluators against each
/// other, and FM would decide the disjunction query without evaluating a
/// single point.
fn grid_config() -> SolveConfig {
    SolveConfig {
        nat_grid_max: 30,
        max_grid_points: 29_791,
        use_fm: false,
        ..SolveConfig::default()
    }
}

/// One full pass over the workload from a fresh solver (compile + sweep for
/// the compiled path, pure interpretation inside `with_tree_eval`).
fn run_workload(config: &SolveConfig) -> usize {
    let mut solver = Solver::with_config(config.clone());
    let u = universals();
    for (hyp, goal) in &queries() {
        assert!(
            solver.entails(&u, hyp, goal).is_valid(),
            "the bench workload must be valid"
        );
    }
    assert!(
        solver.stats().numeric_checks >= 2,
        "the bench workload must reach the numeric layer"
    );
    solver.stats().points_evaluated
}

/// [`run_workload`] swept by the tree-walking oracle.
fn run_tree_workload(config: &SolveConfig) -> usize {
    with_tree_eval(|| run_workload(config))
}

/// Mean nanoseconds per pass of `workload` over `samples` runs.
fn measure(workload: fn(&SolveConfig) -> usize, samples: u32) -> f64 {
    let config = grid_config();
    workload(&config); // warm-up (and correctness assertion)
    let start = Instant::now();
    for _ in 0..samples {
        workload(&config);
    }
    start.elapsed().as_nanos() as f64 / samples as f64
}

fn solver_grid(c: &mut Criterion) {
    let points = run_workload(&grid_config());
    println!("\nsolver_grid workload: {points} grid+random points per pass");

    c.bench_function("solver_grid/tree_eval", |b| {
        let config = grid_config();
        b.iter(|| run_tree_workload(&config));
    });
    c.bench_function("solver_grid/compiled_eval", |b| {
        let config = grid_config();
        b.iter(|| run_workload(&config));
    });
    // A warm program cache (the serving steady state: the bytecode is
    // memoized, every check is sweep-only).
    c.bench_function("solver_grid/compiled_eval_warm_program", |b| {
        let mut solver = Solver::with_config(grid_config());
        let u = universals();
        let queries = queries();
        b.iter(|| {
            for (hyp, goal) in &queries {
                assert!(solver.entails(&u, hyp, goal).is_valid());
            }
        });
    });

    // ----------------------------------------------------------------
    // fm_vs_grid: the proved suite's obligation corpus (the verified
    // benchmarks the checker proves, `Benchmark::proved`) through the full
    // engine, with the Fourier–Motzkin layer on (default) vs off.  FM is
    // the only symbolic prover, so the FM-off control arm is a pure grid:
    // every atomic obligation it meets is swept.  The FM side must decide
    // every obligation symbolically — zero grid or random points — which
    // is the layer's acceptance gate.
    //
    // The headline `speedup` compares the **decision layers** on the
    // identical obligation stream: the wall clock spent inside
    // Fourier–Motzkin (`DefReport::fm_time`, proving) against the wall
    // clock spent inside the numeric layer (`DefReport::numeric_time`,
    // compiling + sweeping) when FM is off.  Everything around them —
    // constraint generation, the candidate-substitution search, fact
    // preparation — is configuration-independent by construction and
    // reported separately as the end-to-end `engine_*` series (where the
    // decision layers are ~10% of the pipeline at the default grid caps,
    // so even an infinitely fast prover could not move that ratio far
    // from 1).
    // ----------------------------------------------------------------
    let samples = 10;
    let mut fm = SuiteRun::default();
    let mut grid = SuiteRun::default();
    run_proved_suite(true); // warm-up
    run_proved_suite(false);
    for _ in 0..samples {
        fm.add(run_proved_suite(true));
        grid.add(run_proved_suite(false));
    }
    let fm_speedup = grid.decision_ns / fm.decision_ns;
    let engine_speedup = grid.engine_ns / fm.engine_ns;
    println!(
        "fm_vs_grid: proving {:.2} ms / sweeping {:.2} ms per pass ({fm_speedup:.2}x); \
         engine {:.2} ms vs {:.2} ms ({engine_speedup:.2}x); \
         {} vs {} points",
        fm.decision_ns / 1e6,
        grid.decision_ns / 1e6,
        fm.engine_ns / 1e6,
        grid.engine_ns / 1e6,
        fm.points,
        grid.points,
    );
    c.bench_function("solver_grid/fm_proved_suite", |b| {
        b.iter(|| run_proved_suite(true))
    });

    // ----------------------------------------------------------------
    // exelim: merge and msort end-to-end, the median of `samples` cold
    // passes.  Their residual existential searches used to run for
    // *minutes* (they were excluded from every suite); the indexed
    // component search holds them to seconds.  The stated bounds are still
    // not discharged (`ok = false` is the documented verdict — see
    // rel-suite), so the gate here is the time ceiling, not the verdict.
    // ----------------------------------------------------------------
    let (merge_ms, merge_ok) = run_benchmark("merge", samples);
    let (msort_ms, msort_ok) = run_benchmark("msort", samples);
    println!(
        "exelim: merge {merge_ms:.0} ms (ok={merge_ok}), msort {msort_ms:.0} ms (ok={msort_ok})"
    );

    // Per-phase wall-clock breakdown of a default-configuration pass over
    // the verified suite — where a checking second actually goes — as the
    // per-phase median of `samples` cold passes (one pass moves by more
    // than the effects it is cited for).  The same quantities `check
    // --metrics-out` exports as histograms, kept in the bench summary so
    // phase-level regressions show up in the perf trajectory, not just
    // end-to-end totals.
    let phases = suite_phase_breakdown(samples);
    println!(
        "phases (verified suite): typecheck {:.1} ms, exelim {:.1} ms, solving {:.1} ms, \
         fm {:.1} ms, numeric {:.1} ms",
        phases.typecheck_ms, phases.exelim_ms, phases.solving_ms, phases.fm_ms, phases.numeric_ms
    );

    // Machine-readable summary for the perf trajectory.
    let tree_ns = measure(run_tree_workload, samples);
    let compiled_ns = measure(run_workload, samples);
    let speedup = tree_ns / compiled_ns;
    let json = format!(
        "{{\n  \"bench\": \"solver_grid\",\n  \"points_per_pass\": {points},\n  \
         \"samples\": {samples},\n  \"tree_ns_per_pass\": {tree_ns:.0},\n  \
         \"compiled_ns_per_pass\": {compiled_ns:.0},\n  \"speedup\": {speedup:.2},\n  \
         \"fm_vs_grid\": {{\n    \"corpus\": \"proved suite\",\n    \
         \"series\": \"decision layer: fm_time (proving) vs numeric_time (sweeping)\",\n    \
         \"fm_points\": {fm_points},\n    \"grid_points\": {grid_points},\n    \
         \"fm_ns\": {fm_decision_ns:.0},\n    \"grid_ns\": {grid_decision_ns:.0},\n    \
         \"speedup\": {fm_speedup:.2},\n    \
         \"engine_fm_ns\": {engine_fm_ns:.0},\n    \"engine_grid_ns\": {engine_grid_ns:.0},\n    \
         \"engine_speedup\": {engine_speedup:.2}\n  }},\n  \
         \"phases\": {{\n    \"corpus\": \"verified suite\",\n    \
         \"statistic\": \"per-phase median of {samples} cold passes\",\n    \
         \"typecheck_ms\": {typecheck_ms:.1},\n    \"exelim_ms\": {exelim_ms:.1},\n    \
         \"solving_ms\": {solving_ms:.1},\n    \"fm_ms\": {fm_ms:.1},\n    \
         \"numeric_ms\": {numeric_ms:.1}\n  }},\n  \
         \"exelim\": {{\n    \"statistic\": \"median of {samples} cold passes\",\n    \
         \"merge_ms\": {merge_ms:.0},\n    \"merge_ok\": {merge_ok},\n    \
         \"msort_ms\": {msort_ms:.0},\n    \"msort_ok\": {msort_ok}\n  }}\n}}\n",
        typecheck_ms = phases.typecheck_ms,
        exelim_ms = phases.exelim_ms,
        solving_ms = phases.solving_ms,
        fm_ms = phases.fm_ms,
        numeric_ms = phases.numeric_ms,
        fm_points = fm.points,
        grid_points = grid.points,
        fm_decision_ns = fm.decision_ns / samples as f64,
        grid_decision_ns = grid.decision_ns / samples as f64,
        engine_fm_ns = fm.engine_ns / samples as f64,
        engine_grid_ns = grid.engine_ns / samples as f64,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_numeric.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}:\n{json}"),
        Err(e) => eprintln!("could not write {path}: {e}\n{json}"),
    }
    assert!(
        speedup >= 5.0,
        "compiled numeric layer must be >= 5x the tree evaluator, got {speedup:.2}x"
    );
    assert_eq!(
        fm.points, 0,
        "the FM layer must decide the proved suite's obligation corpus with zero grid points"
    );
    assert!(
        grid.points > 0,
        "the FM-off control must actually exercise the grid (otherwise the series is vacuous)"
    );
    assert!(
        fm_speedup >= 1.2,
        "proving regressed below the sweeping it replaces: {fm_speedup:.2}x < 1.2x"
    );
    assert!(
        merge_ms < 10_000.0 && msort_ms < 60_000.0,
        "the indexed existential search stopped holding merge/msort to seconds: \
         merge {merge_ms:.0} ms, msort {msort_ms:.0} ms"
    );
}

/// Accumulated measurements of repeated proved-suite passes.
#[derive(Default)]
struct SuiteRun {
    points: usize,
    engine_ns: f64,
    decision_ns: f64,
}

impl SuiteRun {
    fn add(&mut self, (points, engine_ns, decision_ns): (usize, f64, f64)) {
        self.points = points;
        self.engine_ns += engine_ns;
        self.decision_ns += decision_ns;
    }
}

/// Checks every proved benchmark through a fresh engine; returns the
/// total numeric points evaluated, the end-to-end wall time, and the
/// decision-layer wall time (FM when `use_fm`, the numeric layer
/// otherwise) in nanoseconds.
fn run_proved_suite(use_fm: bool) -> (usize, f64, f64) {
    let engine = Engine::new().with_solve_config(SolveConfig {
        use_fm,
        ..SolveConfig::default()
    });
    let start = Instant::now();
    let mut points = 0;
    let mut decision = std::time::Duration::ZERO;
    for b in all_benchmarks() {
        if b.status != VerificationStatus::Verified || !b.proved {
            continue;
        }
        let program = parse_program(b.source).expect("suite sources parse");
        let report = engine.check_program(&program);
        assert!(report.all_ok(), "{} must check in the bench corpus", b.name);
        let stats = report.solve_stats();
        points += stats.points_evaluated;
        decision += if use_fm {
            stats.fm_time
        } else {
            stats.numeric_time
        };
    }
    (
        points,
        start.elapsed().as_nanos() as f64,
        decision.as_nanos() as f64,
    )
}

/// Per-phase wall clock of a verified-suite pass, in milliseconds.
struct PhaseBreakdown {
    typecheck_ms: f64,
    exelim_ms: f64,
    solving_ms: f64,
    fm_ms: f64,
    numeric_ms: f64,
}

/// The median of `values` (the upper one for an even count).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Checks the verified suite `samples` times, each pass cold on a fresh
/// default engine, summing each phase across every definition report of a
/// pass; returns each phase's median over the passes.
fn suite_phase_breakdown(samples: u32) -> PhaseBreakdown {
    let passes: Vec<[f64; 5]> = (0..samples).map(|_| suite_phase_pass()).collect();
    let phase = |i: usize| median(passes.iter().map(|p| p[i]).collect());
    PhaseBreakdown {
        typecheck_ms: phase(0),
        exelim_ms: phase(1),
        solving_ms: phase(2),
        fm_ms: phase(3),
        numeric_ms: phase(4),
    }
}

/// One cold verified-suite pass: typecheck, exelim, solving, FM and numeric
/// milliseconds, in that order.
fn suite_phase_pass() -> [f64; 5] {
    let engine = Engine::new();
    let mut typecheck = std::time::Duration::ZERO;
    let mut exelim = std::time::Duration::ZERO;
    let mut solving = std::time::Duration::ZERO;
    let mut fm = std::time::Duration::ZERO;
    let mut numeric = std::time::Duration::ZERO;
    for b in all_benchmarks() {
        if b.status != VerificationStatus::Verified {
            continue;
        }
        let program = parse_program(b.source).expect("suite sources parse");
        let report = engine.check_program(&program);
        for def in &report.defs {
            typecheck += def.timings.typecheck;
            exelim += def.timings.existential_elim;
            solving += def.timings.solving;
        }
        let stats = report.solve_stats();
        fm += stats.fm_time;
        numeric += stats.numeric_time;
    }
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    [ms(typecheck), ms(exelim), ms(solving), ms(fm), ms(numeric)]
}

/// Checks one named benchmark end-to-end `samples` times, each cold on a
/// fresh engine; returns (median milliseconds, all_ok).
fn run_benchmark(name: &str, samples: u32) -> (f64, bool) {
    let b = rel_suite::benchmark(name).expect("known benchmark");
    let program = parse_program(b.source).expect("suite sources parse");
    let mut times = Vec::new();
    let mut ok = None;
    for _ in 0..samples {
        let engine = Engine::new();
        let start = Instant::now();
        let report = engine.check_program(&program);
        times.push(start.elapsed().as_secs_f64() * 1e3);
        let pass_ok = report.all_ok();
        assert_eq!(
            *ok.get_or_insert(pass_ok),
            pass_ok,
            "{name}'s verdict changed between passes"
        );
    }
    (median(times), ok.unwrap_or(false))
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(8)).warm_up_time(std::time::Duration::from_millis(300));
    targets = solver_grid
}
criterion_main!(benches);
