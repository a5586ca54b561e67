//! The `table1` workload: the sixteen bundled Table-1 programs, each parsed
//! and checked cold by a fresh `Engine` on a fresh thread, in a seeded order.
//!
//! A fresh thread per check matters: the solver's thread-local memos make a
//! same-thread repeat faster than a `birelcost check` process ever is.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use birelcost::{Engine, ProgramReport, Session};
use rel_constraint::{Provenance, SolveConfig, Solver};
use rel_index::Idx;
use rel_suite::{all_benchmarks, Benchmark, VerificationStatus};
use rel_syntax::{parse_program, Program};
use rel_unary::{FreshVars, RelCtx};

use crate::stats::{median, ratio, thread_cpu_ms, Rng};
use crate::trace::Recorder;
use crate::Report;

/// Per-definition verdicts of one program: `(checked, proved)`.
pub type Verdicts = Vec<(bool, bool)>;

/// Stack of each checker thread: the 8 MiB a `birelcost check` main thread
/// gets.
const CHECK_STACK: usize = 8 << 20;

fn verdicts(report: &ProgramReport) -> Verdicts {
    report.defs.iter().map(|d| (d.ok, d.ok && d.proved)).collect()
}

/// Runs `f` on a fresh thread and returns its result, or the panic message.
fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Result<T, String> {
    std::thread::Builder::new()
        .stack_size(CHECK_STACK)
        .spawn(f)
        .map_err(|e| format!("spawn failed: {e}"))?
        .join()
        .map_err(|panic| {
            panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "checker panicked".to_string())
        })
}

/// One cold check — parse plus `Engine::new().check_program` — timed inside
/// its thread, so the spawn is not billed to the check. Returns its wall
/// time, its CPU time in ms (the check is single-threaded) and the report.
pub fn cold_check(source: &'static str) -> Result<(Duration, f64, ProgramReport), String> {
    on_fresh_thread(move || {
        let (start, cpu_start) = (Instant::now(), thread_cpu_ms());
        let program = parse_program(source).map_err(|e| format!("parse error: {e}"))?;
        let report = Engine::new().check_program(&program);
        Ok((start.elapsed(), thread_cpu_ms() - cpu_start, report))
    })?
}

/// A solver configured like the ones `engine` creates (default
/// configuration, sharing the engine's caches if it has any).
fn solver_like(engine: &Engine) -> Solver {
    let mut solver = Solver::with_config(SolveConfig::default());
    if let Some(cache) = engine.cache() {
        solver = solver.with_cache(Arc::clone(cache));
    }
    if let Some(programs) = engine.program_cache() {
        solver = solver.with_program_cache(Arc::clone(programs));
    }
    solver
}

/// Replays `Engine::check_program` step by step from outside the engine —
/// per definition: axioms into the context, a `Session`, the bidirectional
/// check, a fresh `Solver::entails` — with a span around each layer call.
/// Returns the per-definition verdicts, which callers compare with the
/// engine's so this copy cannot drift unnoticed.
pub fn replay(rec: &mut Recorder, owner: u64, engine: &Engine, program: &Program) -> Verdicts {
    let mut ctx = RelCtx::new();
    let mut out = Verdicts::new();
    for def in program.iter() {
        let verdict = rec.span("engine.def", owner, |rec| {
            let mut def_ctx = ctx.clone();
            for axiom in &def.axioms {
                def_ctx = def_ctx.assume(axiom.clone());
            }
            let cost = if engine.level().tracks_cost() {
                def.cost.clone()
            } else {
                Idx::infty()
            };
            let mut sess = Session {
                fresh: FreshVars::new(),
                solver: solver_like(engine),
            };
            let generated = rec.span("bidir.typecheck", owner, |_| {
                let right = def.right_or_left();
                engine.checker().check(&mut sess, &def_ctx, &def.left, right, &def.ty, &cost)
            });
            let Ok(constraint) = generated else {
                return (false, false);
            };
            let universals = def_ctx.universals();
            let mut solver = solver_like(engine);
            let verdict = rec.span("solver.entails", owner, |_| {
                solver.entails(&universals, &def_ctx.assumptions, &constraint)
            });
            let ok = verdict.is_valid();
            (ok, ok && verdict.provenance() == Some(Provenance::Proved))
        });
        out.push(verdict);
        ctx = ctx.bind_var(def.name.clone(), def.ty.clone());
    }
    out
}

/// Parse plus [`replay`] with a fresh engine on a fresh thread, with the
/// recorder on or off. Returns the recorder, the replayed verdicts and the
/// replay's wall time in ms (timed inside the thread, like [`cold_check`]).
fn replay_cold(owner: u64, source: &'static str, traced: bool) -> Result<(Recorder, Verdicts, f64), String> {
    on_fresh_thread(move || {
        let mut rec = Recorder::new(traced);
        let start = Instant::now();
        let verdicts = rec.span("engine.program", owner, |rec| {
            let program = rec
                .span("syntax.parse", owner, |_| parse_program(source))
                .map_err(|e| format!("parse error: {e}"))?;
            Ok::<_, String>(replay(rec, owner, &Engine::new(), &program))
        })?;
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        Ok((rec, verdicts, wall_ms))
    })?
}

/// Everything measured for one program across a run.
#[derive(Default)]
struct ProgramSamples {
    wall_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
    /// Traced runs only: layer self times per traced replay, `layer → samples`.
    layers_ms: BTreeMap<&'static str, Vec<f64>>,
    traced_wall_ms: Vec<f64>,
    untraced_replay_ms: Vec<f64>,
    verdicts: Option<Verdicts>,
    first_report: Option<ProgramReport>,
}

/// Layer names of the traced decomposition, and the spans whose self time
/// each sums. `engine.other_ms` is the replay's own glue: context, session
/// and solver set-up around the three layer calls.
const LAYERS: [(&str, &[&str]); 4] = [
    ("syntax.parse_ms", &["syntax.parse"]),
    ("bidir.typecheck_ms", &["bidir.typecheck"]),
    ("solver.entails_ms", &["solver.entails"]),
    ("engine.other_ms", &["engine.program", "engine.def"]),
];

/// How far (in percent of the suite's cold check time) the four layer
/// totals may be from `Engine::check_program`'s untraced wall time before
/// the traced run fails: past it, the layer split no longer describes the
/// engine. It covers the tracing overhead and the spread of the largest
/// program (msort), whose single cold checks differ by up to ~15% and which
/// a traced run checks and replays only once or twice.
pub const RESIDUAL_TOLERANCE_PCT: f64 = 25.0;

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 101;

/// Cold checks of one program per pass go on until they add up to this
/// many ms, or to [`PROGRAM_MAX_CHECKS`] checks.
const PROGRAM_MIN_MS: f64 = 300.0;
const PROGRAM_MAX_CHECKS: usize = 40;

/// Parses every input once: the preparation outside the timed checks.
/// The checker threads' spawns are outside the timed checks too but not
/// counted here: between runs their cost flips between two levels (0.4 and
/// 0.75 ms for sixteen spawns on a 2-core VM), which would swamp a set-up
/// of under a millisecond.
fn prepare(benchmarks: &[Benchmark]) -> Result<(), String> {
    for b in benchmarks {
        parse_program(b.source).map_err(|e| format!("{} does not parse: {e}", b.name))?;
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report) -> Result<Recorder, String> {
    let benchmarks = all_benchmarks();
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let start = thread_cpu_ms();
        prepare(&benchmarks)?;
        setups.push((thread_cpu_ms() - start) / 1e3);
    }
    report.put("setup_s", median(&setups), "s");

    let mut rng = Rng::new(seed);
    let mut samples: Vec<ProgramSamples> = benchmarks.iter().map(|_| ProgramSamples::default()).collect();
    let mut recorder = Recorder::new(traced);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut order: Vec<usize> = (0..benchmarks.len()).collect();
    // Whole passes only, so every program is sampled alike: a pass that
    // starts before the deadline runs to its end.
    while Instant::now() < deadline {
        rng.shuffle(&mut order);
        for &p in &order {
            let b = &benchmarks[p];
            let s = &mut samples[p];
            // A quick program is checked again (cold each time) until the
            // pass has spent `PROGRAM_MIN_MS` on it, so its median rests on
            // more than one or two checks.
            let mut spent_ms = 0.0;
            for _ in 0..PROGRAM_MAX_CHECKS {
                report.attempted += 1;
                let (wall, cpu_ms, program_report) = match cold_check(b.source) {
                    Ok(r) => r,
                    Err(e) => {
                        report.fail(format!("{}: {e}", b.name));
                        break;
                    }
                };
                let got = verdicts(&program_report);
                if b.status == VerificationStatus::Verified && !program_report.all_ok() {
                    report.fail(format!("{} is Verified but did not check", b.name));
                }
                if s.verdicts.as_ref().is_some_and(|v| *v != got) {
                    report.fail(format!("{}: verdicts differ between checks", b.name));
                }
                let wall_ms = wall.as_secs_f64() * 1e3;
                s.wall_ms.push(wall_ms);
                s.cpu_ms.push(cpu_ms);
                s.verdicts = Some(got);
                s.first_report.get_or_insert(program_report);
                spent_ms += cpu_ms;
                if spent_ms >= PROGRAM_MIN_MS {
                    break;
                }
            }
            let Some(got) = s.verdicts.clone() else { continue };
            if traced {
                // The same replay twice, recorder off then on: the first is
                // the baseline of the tracing overhead, the second gives the
                // layer split.
                let owner = p as u64;
                for on in [false, true] {
                    let (rec, replayed, wall_ms) = match replay_cold(owner, b.source, on) {
                        Ok(r) => r,
                        Err(e) => {
                            report.fail(format!("{}: replay: {e}", b.name));
                            break;
                        }
                    };
                    if replayed != got {
                        report.fail(format!(
                            "{}: replayed verdicts {replayed:?} differ from the engine's {got:?}",
                            b.name
                        ));
                    }
                    if !on {
                        s.untraced_replay_ms.push(wall_ms);
                        continue;
                    }
                    let by_name = rec.self_time_by_owner();
                    for (layer, spans) in LAYERS {
                        let ns: u64 = spans
                            .iter()
                            .filter_map(|span| by_name.get(span).and_then(|m| m.get(&owner)))
                            .sum();
                        s.layers_ms.entry(layer).or_default().push(ns as f64 / 1e6);
                    }
                    s.traced_wall_ms.push(wall_ms);
                    recorder.absorb(rec);
                }
            }
        }
    }

    // Each program's time to a verdict is the median of its cold checks: in
    // CPU time for the end-to-end metric, in wall time for the traced split.
    let medians: Vec<f64> = samples.iter().map(|s| median(&s.wall_ms)).collect();
    let checked = |s: &ProgramSamples| s.verdicts.as_ref().is_some_and(|v| v.iter().all(|d| d.0));
    let verified = samples.iter().filter(|s| checked(s)).count();
    let proved = samples
        .iter()
        .filter(|s| checked(s) && s.verdicts.as_ref().is_some_and(|v| v.iter().all(|d| d.1)))
        .count();
    let suite_ms: f64 = medians.iter().sum();
    let cpu_medians: Vec<f64> = samples.iter().map(|s| median(&s.cpu_ms)).collect();
    report.put("cpu_ms_per_op", cpu_medians.iter().sum::<f64>() / cpu_medians.len() as f64, "ms");
    report.put("verified", verified as f64, "count");
    report.put("proved", proved as f64, "count");

    if traced {
        report.put("suite_wall_s", suite_ms / 1e3, "s");
        for (b, s) in benchmarks.iter().zip(&samples) {
            report.put(format!("check_ms.{}", b.name), median(&s.wall_ms), "ms");
        }
        let suite_median = |pick: fn(&ProgramSamples) -> &[f64]| -> f64 { samples.iter().map(|s| median(pick(s))).sum() };
        let mut layers_ms = 0.0;
        for (layer, _) in LAYERS {
            let total: f64 = samples
                .iter()
                .map(|s| median(s.layers_ms.get(layer).map_or(&[][..], Vec::as_slice)))
                .sum();
            report.put(layer, total, "ms");
            layers_ms += total;
        }
        // The four layers against the untraced `check_program` wall time
        // of `suite_wall_s`: what they leave unexplained (negative when they
        // over-explain it), as a share of that wall time.
        let residual_pct = (suite_ms - layers_ms) / suite_ms * 100.0;
        report.put("trace.residual_pct", residual_pct, "%");
        if residual_pct.abs() > RESIDUAL_TOLERANCE_PCT {
            report.fail(format!(
                "the layers add up to {layers_ms:.0} ms against check_program's {suite_ms:.0} ms: \
                 residual {residual_pct:.1}% is past {RESIDUAL_TOLERANCE_PCT}%"
            ));
        }
        let untraced_ms = suite_median(|s| &s.untraced_replay_ms);
        let traced_ms = suite_median(|s| &s.traced_wall_ms);
        report.put("trace.overhead_pct", (traced_ms - untraced_ms) / untraced_ms * 100.0, "%");
        put_solver_counts(&samples, report);
    }
    Ok(recorder)
}

/// Suite totals of the solver's and checker's counters, from each
/// program's first cold check (they repeat exactly between checks).
fn put_solver_counts(samples: &[ProgramSamples], report: &mut Report) {
    let reports: Vec<&ProgramReport> = samples.iter().filter_map(|s| s.first_report.as_ref()).collect();
    let mut st = rel_constraint::SolveStats::default();
    for r in &reports {
        st.merge(&r.solve_stats());
    }
    let count = |n: usize| n as f64;
    report.put("solver.queries", count(st.queries), "count");
    report.put("exelim.attempts", count(st.exelim_attempts), "count");
    report.put("exelim.pruned", count(st.exelim_candidates_pruned), "count");
    report.put("fm.proved", count(st.fm_proved), "count");
    report.put("fm.refuted", count(st.fm_refuted), "count");
    report.put("fm.projections", count(st.fm_projections), "count");
    report.put(
        "fm.memo_hit_ratio",
        ratio(st.fm_memo_hits as u64, st.fm_memo_misses as u64),
        "ratio",
    );
    report.put("fm.memo_lookups", count(st.fm_memo_hits + st.fm_memo_misses), "count");
    report.put("grid.numeric_checks", count(st.numeric_checks), "count");
    report.put("grid.points", count(st.points_evaluated), "count");
    report.put("grid.programs_compiled", count(st.programs_compiled), "count");
    report.put("grid.accepted", count(st.grid_accepted), "count");
    let defs = reports.iter().flat_map(|r| r.defs.iter());
    let (atoms, exists) = defs.fold((0, 0), |(a, e), d| (a + d.constraint_atoms, e + d.existential_vars));
    report.put("bidir.constraint_atoms", atoms as f64, "count");
    report.put("bidir.existential_vars", exists as f64, "count");
}
