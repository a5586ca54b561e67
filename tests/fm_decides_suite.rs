//! The Table-1 provenance gates.
//!
//! 1. Every *proved* Table-1 benchmark (`Benchmark::proved`) is decided
//!    entirely symbolically: `points_evaluated == 0` — no grid sweep, no
//!    random sampling — and every definition's verdict carries `proved`
//!    provenance.
//! 2. Every benchmark's provenance may only improve on its table row
//!    (`Fail` < `Grid` < `Proved`), within the row's ceilings on the work it
//!    does, and a failing benchmark explains why.

use birelcost::{Engine, ProgramReport};
use rel_suite::{all_benchmarks, benchmark, VerificationStatus};
use rel_syntax::parse_program;

/// How a benchmark is decided, worst first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Prov {
    /// Some definition does not check.
    Fail,
    /// Every definition checks, some only by grid sweep.
    Grid,
    /// Every definition is proved.
    Proved,
}

impl Prov {
    fn of(report: &ProgramReport) -> Prov {
        if !report.all_ok() {
            Prov::Fail
        } else if report.proved_defs() == report.defs.len() {
            Prov::Proved
        } else {
            Prov::Grid
        }
    }
}

/// Per benchmark: the provenance floor, then ceilings on existential
/// candidate attempts, solver queries and grid points, taken at the state
/// the table was last raised at.  A row may only move up (better
/// provenance, lower ceilings).  filter stops in the type checker (it needs
/// the switch-to-unary rule for non-diagonal conditionals); merge and msort
/// need integer-aware projection for their ℕ-sorted existentials.
const TABLE: [(&str, Prov, usize, usize, usize); 16] = [
    ("filter", Prov::Fail, 0, 0, 0),
    ("append", Prov::Proved, 32, 67, 0),
    ("rev", Prov::Proved, 76, 110, 0),
    ("map", Prov::Proved, 25, 45, 0),
    ("comp", Prov::Proved, 3, 1, 0),
    ("sam", Prov::Proved, 3, 1, 0),
    ("find", Prov::Proved, 3, 1, 0),
    ("2Dcount", Prov::Grid, 6, 2, 11_160),
    ("ssort", Prov::Grid, 6, 2, 366),
    ("bsplit", Prov::Grid, 137, 55, 21_223),
    ("flatten", Prov::Proved, 69, 93, 0),
    ("appSum", Prov::Proved, 63, 107, 0),
    ("merge", Prov::Fail, 128, 1, 0),
    ("zip", Prov::Proved, 54, 128, 0),
    ("msort", Prov::Fail, 584, 143, 21_328),
    ("bfold", Prov::Grid, 398, 142, 31_439),
];

fn row(name: &str) -> (Prov, usize, usize, usize) {
    let &(_, prov, attempts, queries, points) = TABLE
        .iter()
        .find(|r| r.0 == name)
        .unwrap_or_else(|| panic!("{name} has no provenance row"));
    (prov, attempts, queries, points)
}

#[test]
fn verified_suite_is_decided_with_zero_grid_points() {
    let engine = Engine::new();
    for b in all_benchmarks() {
        if b.status != VerificationStatus::Verified || !b.proved {
            continue;
        }
        let program = parse_program(b.source).unwrap();
        let report = engine.check_program(&program);
        assert!(report.all_ok(), "{} failed: {report:?}", b.name);
        let stats = report.solve_stats();
        assert_eq!(
            stats.points_evaluated, 0,
            "{}: {} grid/random points evaluated — an obligation fell \
             through the symbolic/FM layers",
            b.name, stats.points_evaluated
        );
        assert_eq!(
            stats.grid_accepted, 0,
            "{}: an obligation was accepted by grid sweep instead of proof",
            b.name
        );
        for d in &report.defs {
            assert!(
                d.proved,
                "{}::{}: verdict is grid-checked, expected proved",
                b.name, d.name
            );
        }
    }
}

#[test]
fn flatten_is_promoted_and_proved() {
    // The promotion itself: flatten's obligations (row/width products
    // against flattened totals) needed a 169 185-point grid sweep before
    // the FM layer and product distribution; now they are proved outright.
    let b = benchmark("flatten").unwrap();
    assert_eq!(b.status, VerificationStatus::Verified);
    let report = Engine::new().check_program(&parse_program(b.source).unwrap());
    assert!(report.all_ok());
    let stats = report.solve_stats();
    assert_eq!(stats.points_evaluated, 0);
    assert!(stats.fm_proved > 0, "FM must carry some of the proof");
}

/// Every Table-1 benchmark against its provenance row: the verdict may
/// only improve, the suite's `status`/`proved` must match the row, the work
/// stays under the row's ceilings (the same counts on every host, unlike a
/// wall-clock bound), and a failing benchmark's diagnostic names a
/// refutation source.
#[test]
fn table1_provenance_only_improves() {
    let engine = Engine::new();
    assert_eq!(TABLE.len(), all_benchmarks().len());
    for b in all_benchmarks() {
        let (floor, max_attempts, max_queries, max_points) = row(b.name);
        let name = b.name;
        assert_eq!(
            (b.status == VerificationStatus::Verified, b.proved),
            (floor >= Prov::Grid, floor == Prov::Proved),
            "{name}: the status must say whether and how the row checks"
        );
        let report = engine.check_program(&parse_program(b.source).unwrap());
        let got = Prov::of(&report);
        assert!(
            got >= floor,
            "{name}: provenance fell from {floor:?} to {got:?}: {report:?}"
        );
        let stats = report.solve_stats();
        assert!(
            stats.exelim_attempts <= max_attempts
                && stats.queries <= max_queries
                && stats.points_evaluated <= max_points,
            "{name}: {} exelim attempts, {} queries, {} points — over the \
             ceilings {max_attempts}, {max_queries}, {max_points}",
            stats.exelim_attempts,
            stats.queries,
            stats.points_evaluated
        );
        if name == "bsplit" {
            // bsplit's sub-goals repeat: each solver's own verdict memo
            // answers the repeats (that memo is what keeps its grid points
            // under the ceiling), and counts them with no cache attached.
            assert!(
                stats.cache_hits > 0,
                "{name}: {} verdict-memo hits over {} lookups",
                stats.cache_hits,
                stats.cache_hits + stats.cache_misses
            );
        }
        // Failure diagnostics must say *why*: a counterexample source or an
        // exhausted search (reported as "no numeric counterexample"), not
        // just "not valid".  (filter fails in the type checker, before any
        // constraint reaches the solver.)
        for d in report
            .defs
            .iter()
            .filter(|d| !d.ok && d.constraint_atoms > 0)
        {
            let err = d.error.as_deref().unwrap_or("");
            assert!(
                err.contains("counterexample"),
                "{name}::{}: diagnostic lacks a refutation source: {err}",
                d.name
            );
        }
    }
}

/// The phase timers are self times: a nested elimination (exelim → `Or`
/// arm → exelim, or an `∃` eliminated under its binder) bills its own span
/// and not its parent's again, so the Table-1 phase columns, summed over a
/// program's definitions, stay within the wall clock of checking it.
#[test]
fn phase_timings_stay_within_the_wall_clock() {
    let engine = Engine::new();
    for b in all_benchmarks() {
        let program = parse_program(b.source).unwrap();
        let start = std::time::Instant::now();
        let report = engine.check_program(&program);
        let wall = start.elapsed();
        assert!(
            report.total_time() <= wall,
            "{}: phases sum to {:?}, over the {wall:?} wall clock",
            b.name,
            report.total_time()
        );
    }
}
