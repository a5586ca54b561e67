//! The `serve_edit` request generator: over several seeds, every variant is
//! new, parses, shares no definition name with its base program, and checks
//! with exactly its base program's per-definition verdicts.

use std::collections::HashSet;

use birelcost::{Engine, ProgramReport};
use perfbench::rename::{def_names, VariantGen};
use perfbench::serve::BASES;
use rel_syntax::parse_program;

fn verdicts(report: &ProgramReport) -> Vec<(bool, bool)> {
    report.defs.iter().map(|d| (d.ok, d.ok && d.proved)).collect()
}

fn check(source: &str) -> Vec<(bool, bool)> {
    let program = parse_program(source).unwrap_or_else(|e| panic!("does not parse: {e}\n{source}"));
    verdicts(&Engine::new().check_program(&program))
}

#[test]
fn variants_are_unique_parse_and_keep_their_base_verdicts() {
    let sources: Vec<&str> = BASES
        .iter()
        .map(|name| rel_suite::benchmark(name).expect("bundled base program").source)
        .collect();
    let expected: Vec<_> = sources.iter().map(|s| check(s)).collect();
    let base_names: Vec<HashSet<String>> = sources
        .iter()
        .map(|s| def_names(s).unwrap().into_iter().collect())
        .collect();

    let mut seen = HashSet::new();
    let mut bases_covered = HashSet::new();
    for seed in [1, 2, 3, 42] {
        let mut variants = VariantGen::new(seed, &sources).unwrap();
        for _ in 0..8 {
            let (base, variant) = variants.next_variant();
            assert!(seen.insert(variant.clone()), "seed {seed}: variant issued twice:\n{variant}");
            let names = def_names(&variant).unwrap();
            assert_eq!(names.len(), base_names[base].len());
            assert!(
                names.iter().all(|n| !base_names[base].contains(n)),
                "seed {seed}: {names:?} keeps a name of {}",
                BASES[base]
            );
            assert_eq!(check(&variant), expected[base], "seed {seed}: {} variant:\n{variant}", BASES[base]);
            bases_covered.insert(base);
        }
    }
    assert!(bases_covered.len() >= 4, "only bases {bases_covered:?} were drawn");
}

#[test]
fn the_same_seed_gives_the_same_variants() {
    let sources: Vec<&str> = BASES
        .iter()
        .map(|name| rel_suite::benchmark(name).unwrap().source)
        .collect();
    let run = |seed| {
        let mut variants = VariantGen::new(seed, &sources).unwrap();
        (0..6).map(|_| variants.next_variant()).collect::<Vec<_>>()
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}
