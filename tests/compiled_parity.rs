//! Whole-suite parity of the compiled numeric layer.
//!
//! Runs every *verified* Table-1 benchmark through two identically
//! configured engines, one of them inside `with_tree_eval` (the
//! tree-walking oracle of `rel-constraint`'s `reference-eval` feature, which
//! this package's dev-dependency enables), and asserts that the compiled
//! bytecode sweep is observationally identical to the oracle: same
//! per-definition verdicts, same validity-cache hit/miss counters, same
//! numeric point counts, and identical warm-cache behaviour.

use std::sync::Arc;

use birelcost::Engine;
use rel_constraint::{with_tree_eval, ShardedValidityCache, SolveConfig, ValidityCache};
use rel_suite::{all_benchmarks, VerificationStatus};

#[test]
fn compiled_and_tree_solvers_agree_across_the_verified_suite() {
    // Both engines run with the Fourier–Motzkin layer *off*: with it on,
    // the verified suite is decided entirely symbolically (zero numeric
    // points — asserted by tests/fm_decides_suite.rs) and this comparison
    // of the two numeric evaluators would be vacuous.
    let compiled_cache = Arc::new(ShardedValidityCache::new());
    let tree_cache = Arc::new(ShardedValidityCache::new());
    let no_fm = SolveConfig {
        use_fm: false,
        ..SolveConfig::default()
    };
    let compiled = Engine::new()
        .with_solve_config(no_fm.clone())
        .with_cache(compiled_cache.clone());
    let tree = Engine::new()
        .with_solve_config(no_fm)
        .with_cache(tree_cache.clone());

    for b in all_benchmarks() {
        if b.status != VerificationStatus::Verified {
            // Same exclusion as the seed's suite test: the unverified
            // benchmarks take the numeric solver minutes.
            continue;
        }
        let program = rel_syntax::parse_program(b.source).unwrap();
        let rc = compiled.check_program(&program);
        // The engine checks on the calling thread, so the thread-scoped
        // selector routes every numeric check of this program to the oracle.
        let rt = with_tree_eval(|| tree.check_program(&program));
        assert_eq!(
            rc.defs.len(),
            rt.defs.len(),
            "{}: def counts differ",
            b.name
        );
        for (dc, dt) in rc.defs.iter().zip(&rt.defs) {
            assert_eq!(
                dc.ok, dt.ok,
                "{}::{}: compiled and tree verdicts diverge",
                b.name, dc.name
            );
            assert_eq!(
                (dc.stats.cache_hits, dc.stats.cache_misses),
                (dt.stats.cache_hits, dt.stats.cache_misses),
                "{}::{}: validity-cache counters diverge",
                b.name,
                dc.name
            );
            assert_eq!(
                dc.stats.points_evaluated, dt.stats.points_evaluated,
                "{}::{}: numeric point counts diverge",
                b.name, dc.name
            );
            assert_eq!(
                dt.stats.programs_compiled, 0,
                "{}::{}: the oracle must sweep without compiling",
                b.name, dc.name
            );
        }
    }

    // The caches must have warmed identically: every query sequence, hit and
    // stored verdict matched between the two solver paths.
    let (sc, st) = (compiled_cache.stats(), tree_cache.stats());
    assert_eq!(sc.hits, st.hits, "cache hit totals diverge");
    assert_eq!(sc.misses, st.misses, "cache miss totals diverge");
    assert_eq!(sc.entries, st.entries, "cache entry totals diverge");
    assert!(sc.entries > 0, "the suite should populate the cache");
}

#[test]
fn compiled_layer_actually_compiles_on_the_suite() {
    // Sanity check that the suite exercises the bytecode path at all: at
    // least one verified benchmark must reach the numeric layer *when the
    // FM layer is off* (with it on, none does — that is the FM layer's
    // acceptance gate, not this test's).
    let engine = Engine::new().with_solve_config(SolveConfig {
        use_fm: false,
        ..SolveConfig::default()
    });
    let mut programs = 0;
    for b in all_benchmarks() {
        if b.status != VerificationStatus::Verified {
            continue;
        }
        let program = rel_syntax::parse_program(b.source).unwrap();
        programs += engine
            .check_program(&program)
            .solve_stats()
            .programs_compiled;
    }
    assert!(
        programs > 0,
        "no verified benchmark reached the compiled numeric layer"
    );
}
