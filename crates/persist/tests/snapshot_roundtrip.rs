//! Compacted-image round trips: property-based encode/replay identity over
//! randomized cache contents, and the fingerprint gate across the one
//! verdict-changing solver knob.  Corruption of every kind (truncation,
//! byte flips, bad headers, foreign frames) is covered by the matrices in
//! `wal_crashsafety.rs`, which walk the same frames.

use std::path::Path;
use std::sync::Arc;

use proptest::prelude::*;

use birelcost::{DefIndex, StoredDef};
use rel_constraint::{Constr, QueryKey, ShardedValidityCache, Validity};
use rel_index::{Extended, Idx, IdxEnv, IdxVar, Rational, Sort};
use rel_persist::{compacted_image, replay, validate_header, FaultyFs, HeaderError, WalRecord};

const FP: u64 = 0xF00D_CAFE;
const CACHE: &str = "/d/cache";

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

fn arb_var() -> BoxedStrategy<IdxVar> {
    prop_oneof![
        Just(IdxVar::new("n")),
        Just(IdxVar::new("a")),
        Just(IdxVar::new("α")),
        Just(IdxVar::new("%e0")),
    ]
}

fn arb_sort() -> BoxedStrategy<Sort> {
    prop_oneof![Just(Sort::Nat), Just(Sort::Real)]
}

fn arb_leaf() -> BoxedStrategy<Idx> {
    prop_oneof![
        arb_var().prop_map(Idx::Var),
        (0u64..40).prop_map(Idx::nat),
        ((-9i64..9), (1i64..5)).prop_map(|(n, d)| Idx::Const(Rational::new(n, d))),
        Just(Idx::Infty),
    ]
}

fn arb_idx() -> BoxedStrategy<Idx> {
    // One level of structure over the leaves, one deeper arm (a sum whose
    // body is itself structured): covers every constructor, including
    // nesting, without a recursive strategy.
    let level1 = prop_oneof![
        (arb_leaf(), arb_leaf()).prop_map(|(a, b)| a + b),
        (arb_leaf(), arb_leaf()).prop_map(|(a, b)| a - b),
        (arb_leaf(), arb_leaf()).prop_map(|(a, b)| a * b),
        (arb_leaf(), arb_leaf()).prop_map(|(a, b)| a / b),
        (arb_leaf(), arb_leaf()).prop_map(|(a, b)| Idx::min(a, b)),
        (arb_leaf(), arb_leaf()).prop_map(|(a, b)| Idx::max(a, b)),
        arb_leaf().prop_map(Idx::ceil),
        arb_leaf().prop_map(Idx::floor),
        arb_leaf().prop_map(Idx::log2),
        arb_leaf().prop_map(Idx::pow2),
        arb_leaf(),
    ];
    prop_oneof![
        level1.clone(),
        (level1, arb_leaf(), arb_var()).prop_map(|(body, hi, v)| Idx::sum(
            v,
            Idx::zero(),
            hi,
            body
        )),
    ]
}

fn arb_atom() -> BoxedStrategy<Constr> {
    prop_oneof![
        (arb_idx(), arb_idx()).prop_map(|(a, b)| Constr::eq(a, b)),
        (arb_idx(), arb_idx()).prop_map(|(a, b)| Constr::leq(a, b)),
        (arb_idx(), arb_idx()).prop_map(|(a, b)| Constr::lt(a, b)),
        Just(Constr::Top),
        Just(Constr::Bot),
    ]
}

fn arb_constr() -> BoxedStrategy<Constr> {
    prop_oneof![
        arb_atom(),
        (arb_atom(), arb_atom()).prop_map(|(a, b)| Constr::And(vec![a, b])),
        (arb_atom(), arb_atom()).prop_map(|(a, b)| Constr::Or(vec![a, b])),
        arb_atom().prop_map(|a| Constr::Not(Arc::new(a))),
        (arb_atom(), arb_atom()).prop_map(|(a, b)| Constr::Implies(Arc::new(a), Arc::new(b))),
        (arb_var(), arb_sort(), arb_atom()).prop_map(|(v, s, c)| Constr::forall(v.name(), s, c)),
        (arb_var(), arb_sort(), arb_atom()).prop_map(|(v, s, c)| Constr::exists(v.name(), s, c)),
    ]
}

fn arb_universals() -> BoxedStrategy<Vec<(IdxVar, Sort)>> {
    prop_oneof![
        Just(vec![]),
        (arb_var(), arb_sort()).prop_map(|(v, s)| vec![(v, s)]),
        (arb_var(), arb_sort(), arb_sort())
            .prop_map(|(v, s1, s2)| { vec![(v.clone(), s1), (IdxVar::new("m"), s2)] }),
    ]
}

fn arb_validity() -> BoxedStrategy<Validity> {
    prop_oneof![
        Just(Validity::proved()),
        Just(Validity::grid_checked()),
        Just(Validity::Invalid(None)),
        (arb_var(), 0u64..50).prop_map(|(v, n)| {
            let mut env = IdxEnv::new();
            env.bind(v, Extended::from(n));
            Validity::Invalid(Some(env))
        }),
    ]
}

/// One warm state: a verdict list and a def list.
type State = (Vec<(QueryKey, Validity)>, Vec<(u64, u64, StoredDef)>);

fn arb_state() -> BoxedStrategy<State> {
    (
        (arb_universals(), arb_constr(), arb_constr(), arb_validity()),
        (arb_universals(), arb_constr(), arb_constr(), arb_validity()),
        (0u64..u64::MAX, arb_var()),
    )
        .prop_map(|((u1, h1, g1, v1), (u2, h2, g2, v2), (hash, var))| {
            let verdicts = vec![
                (QueryKey::new(FP, &u1, &h1, &g1), v1),
                (QueryKey::new(FP, &u2, &h2, &g2), v2),
            ];
            let defs = vec![(
                hash,
                hash.rotate_left(17) ^ 0xD1F7,
                StoredDef {
                    name: var.name().to_string(),
                    ok: hash.is_multiple_of(2),
                    proved: hash.is_multiple_of(4),
                    error: if hash.is_multiple_of(2) {
                        None
                    } else {
                        Some("previous failure".to_string())
                    },
                },
            )];
            (verdicts, defs)
        })
        .boxed()
}

/// Replays `image` as a cache file and splits the records back into a
/// verdict list and a def list.
fn replay_image(image: Vec<u8>, fingerprint: u64) -> (State, Vec<WalRecord>) {
    let fs = FaultyFs::new();
    fs.plant(Path::new(CACHE), image);
    let recovery = replay(&fs, Path::new(CACHE), fingerprint);
    assert!(recovery.warnings.is_empty(), "{:?}", recovery.warnings);
    assert_eq!(recovery.stats.anomalies(), 0);
    let (mut verdicts, mut defs) = (Vec::new(), Vec::new());
    for record in &recovery.records {
        match record.clone() {
            WalRecord::Verdict(k, v) => verdicts.push((k, v)),
            WalRecord::Def {
                input_hash,
                verify_hash,
                def,
            } => defs.push((input_hash, verify_hash, def)),
            WalRecord::Compaction { .. } => {}
        }
    }
    ((verdicts, defs), recovery.records)
}

// ---------------------------------------------------------------------------
// Round-trip properties
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn compacted_image_replays_to_the_identical_state(state in arb_state()) {
        let (verdicts, defs) = &state;
        let image = compacted_image(FP, verdicts, defs);
        let (back, records) = replay_image(image.clone(), FP);
        prop_assert_eq!(&back, &state);
        // The image ends in its marker, which counts the frames before it.
        prop_assert_eq!(
            records.last(),
            Some(&WalRecord::Compaction { folded: (verdicts.len() + defs.len()) as u64 })
        );
        // And encoding is deterministic.
        prop_assert_eq!(compacted_image(FP, &back.0, &back.1), image);
    }

    #[test]
    fn restored_caches_reproduce_contents_and_verdicts(state in arb_state()) {
        let ((verdicts, defs), _) = replay_image(compacted_image(FP, &state.0, &state.1), FP);
        let cache = ShardedValidityCache::new();
        let index = DefIndex::new();
        for (key, verdict) in verdicts {
            cache.store_key(key, verdict);
        }
        for (hash, verify, def) in defs {
            index.insert(hash, verify, def);
        }

        // Exporting the live caches yields the same logical contents:
        // identical verdict set, identical def entries.
        // (A later store under an equal key overwrites an earlier one.)
        let mut want: Vec<(QueryKey, Validity)> = Vec::new();
        for (key, verdict) in state.0.clone() {
            match want.iter_mut().find(|(k, _)| *k == key) {
                Some(entry) => entry.1 = verdict,
                None => want.push((key, verdict)),
            }
        }
        want.sort_by_key(|(k, _)| k.stable_hash());
        let mut got = cache.export_entries();
        got.sort_by_key(|(k, _)| k.stable_hash());
        prop_assert_eq!(got, want);
        prop_assert_eq!(index.export(), state.1.clone());
    }
}

// ---------------------------------------------------------------------------
// The fingerprint gate
// ---------------------------------------------------------------------------

#[test]
fn fm_knob_is_fingerprinted_and_invalidates_cache_files() {
    // `use_fm` changes verdicts (grid-checked → proved): a cache file
    // recorded with the FM layer on must never warm-start a solver running
    // with it off, and vice versa.
    use birelcost::Engine;
    use rel_constraint::SolveConfig;

    let fm_on = Engine::new();
    let fm_off = Engine::new().with_solve_config(SolveConfig {
        use_fm: false,
        ..SolveConfig::default()
    });
    assert_ne!(
        fm_on.fingerprint(),
        fm_off.fingerprint(),
        "the FM knob must be part of the engine fingerprint"
    );

    let universals = vec![(IdxVar::new("n"), Sort::Nat)];
    let hyp = Constr::leq(Idx::var("n"), Idx::nat(8));
    let goal = Constr::leq(Idx::var("n"), Idx::nat(9));
    let verdicts = vec![(
        QueryKey::new(fm_on.fingerprint(), &universals, &hyp, &goal),
        Validity::proved(),
    )];
    let image = compacted_image(fm_on.fingerprint(), &verdicts, &[]);
    assert_eq!(validate_header(&image, fm_on.fingerprint()), Ok(16));
    assert_eq!(
        validate_header(&image, fm_off.fingerprint()),
        Err(HeaderError::Foreign(fm_on.fingerprint())),
        "a cache file must not cross the FM knob"
    );
    let fs = FaultyFs::new();
    fs.plant(Path::new(CACHE), image);
    let recovery = replay(&fs, Path::new(CACHE), fm_off.fingerprint());
    assert!(recovery.header_rejected);
    assert!(recovery.records.is_empty());
}
