//! Snapshot format tests: property-based round-trips over randomized cache
//! contents, and corruption tests asserting that every malformed file is
//! rejected cleanly (cold start, no panic).

use proptest::prelude::*;

use birelcost::{DefIndex, StoredDef};
use rel_constraint::{
    Constr, ProgramKey, QueryKey, ShardedValidityCache, SharedProgramCache, Validity,
};
use rel_index::{Extended, Idx, IdxEnv, IdxVar, Rational, Sort};
use rel_persist::{Snapshot, SnapshotError, FORMAT_VERSION, MAGIC};

const FP: u64 = 0xF00D_CAFE;

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
        arb_atom().prop_map(|a| Constr::Not(Box::new(a))),
        (arb_atom(), arb_atom()).prop_map(|(a, b)| Constr::Implies(Box::new(a), Box::new(b))),
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

fn arb_snapshot() -> BoxedStrategy<Snapshot> {
    (
        (arb_universals(), arb_constr(), arb_constr(), arb_validity()),
        (arb_universals(), arb_constr(), arb_constr()),
        (0u64..u64::MAX, arb_var()),
    )
        .prop_map(|((u1, h1, g1, v1), (u2, h2, g2), (hash, var))| Snapshot {
            fingerprint: FP,
            verdicts: vec![(QueryKey::new(FP, &u1, &h1, &g1), v1)],
            defs: vec![(
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
            )],
            programs: vec![ProgramKey {
                universals: u2,
                hyp: h2,
                goal: g2,
            }],
        })
        .boxed()
}

// ---------------------------------------------------------------------------
// Round-trip properties
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn serialize_deserialize_is_identity(snapshot in arb_snapshot()) {
        let bytes = snapshot.to_bytes();
        let back = Snapshot::from_bytes(&bytes, FP).expect("well-formed snapshot must load");
        prop_assert_eq!(&back, &snapshot);
        // And serialization is deterministic.
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn restored_caches_reproduce_contents_and_verdicts(snapshot in arb_snapshot()) {
        let bytes = snapshot.to_bytes();
        let back = Snapshot::from_bytes(&bytes, FP).unwrap();

        let cache = ShardedValidityCache::new();
        let programs = SharedProgramCache::new();
        let defs = DefIndex::new();
        back.restore(&cache, &programs, &defs);

        // Re-capturing yields the same logical contents: identical verdict
        // set, identical def entries, identical program keys.
        let recaptured = Snapshot::capture(FP, &cache, &programs, &defs);
        let mut want = snapshot.verdicts.clone();
        want.sort_by_key(|(k, _)| k.stable_hash());
        let mut got = recaptured.verdicts.clone();
        got.sort_by_key(|(k, _)| k.stable_hash());
        prop_assert_eq!(got, want);
        prop_assert_eq!(recaptured.defs, snapshot.defs);
        prop_assert_eq!(recaptured.programs.len(), snapshot.programs.len());
    }
}

// ---------------------------------------------------------------------------
// Corruption tests
// ---------------------------------------------------------------------------

fn sample_snapshot() -> Snapshot {
    let universals = vec![(IdxVar::new("n"), Sort::Nat)];
    let hyp = Constr::leq(Idx::var("n"), Idx::nat(8));
    let goal = Constr::leq(Idx::var("n"), Idx::nat(9));
    Snapshot {
        fingerprint: FP,
        verdicts: vec![(
            QueryKey::new(FP, &universals, &hyp, &goal),
            Validity::proved(),
        )],
        defs: vec![(
            42,
            43,
            StoredDef {
                name: "id".to_string(),
                ok: true,
                proved: true,
                error: None,
            },
        )],
        programs: vec![ProgramKey {
            universals,
            hyp,
            goal,
        }],
    }
}

#[test]
fn truncated_files_are_rejected_at_every_length() {
    let bytes = sample_snapshot().to_bytes();
    for cut in 0..bytes.len() {
        assert!(
            Snapshot::from_bytes(&bytes[..cut], FP).is_err(),
            "truncation to {cut} bytes must be rejected"
        );
    }
}

#[test]
fn every_single_byte_flip_is_rejected() {
    // The checksum covers the payload and the header fields are each
    // verified, so no single-byte corruption anywhere in the file may load.
    let bytes = sample_snapshot().to_bytes();
    for i in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x01;
        assert!(
            Snapshot::from_bytes(&corrupt, FP).is_err(),
            "flipping byte {i} must be rejected"
        );
    }
}

#[test]
fn fm_knob_is_fingerprinted_and_invalidates_snapshots() {
    // `use_fm` changes verdicts (grid-checked → proved), unlike the
    // verdict-neutral compiled-eval knob: a snapshot recorded with the
    // FM layer on must never warm-start a solver running with it off, and
    // vice versa.
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
    // Sanity: the evaluator knob stays verdict-neutral and does *not*
    // split fingerprints.
    let compiled_off = Engine::new().with_solve_config(SolveConfig {
        use_compiled_eval: false,
        ..SolveConfig::default()
    });
    assert_eq!(fm_on.fingerprint(), compiled_off.fingerprint());

    let snapshot = Snapshot {
        fingerprint: fm_on.fingerprint(),
        ..sample_snapshot()
    };
    let bytes = snapshot.to_bytes();
    assert!(Snapshot::from_bytes(&bytes, fm_on.fingerprint()).is_ok());
    match Snapshot::from_bytes(&bytes, fm_off.fingerprint()) {
        Err(SnapshotError::FingerprintMismatch { found, expected }) => {
            assert_eq!(found, fm_on.fingerprint());
            assert_eq!(expected, fm_off.fingerprint());
        }
        other => panic!("expected FingerprintMismatch across the FM knob, got {other:?}"),
    }
}

#[test]
fn format_version_1_snapshots_are_rejected() {
    // Version 2 added verdict provenance; a version-1 file cannot express
    // it and must cold-start rather than load with guessed provenance.
    let mut bytes = sample_snapshot().to_bytes();
    bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
    assert!(matches!(
        Snapshot::from_bytes(&bytes, FP),
        Err(SnapshotError::UnsupportedVersion(1))
    ));
}

#[test]
fn wrong_fingerprint_is_rejected_with_the_specific_error() {
    let bytes = sample_snapshot().to_bytes();
    match Snapshot::from_bytes(&bytes, FP + 1) {
        Err(SnapshotError::FingerprintMismatch { found, expected }) => {
            assert_eq!(found, FP);
            assert_eq!(expected, FP + 1);
        }
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
}

#[test]
fn bad_magic_and_future_versions_are_rejected() {
    let bytes = sample_snapshot().to_bytes();

    let mut bad_magic = bytes.clone();
    bad_magic[0] = b'X';
    assert!(matches!(
        Snapshot::from_bytes(&bad_magic, FP),
        Err(SnapshotError::BadMagic)
    ));

    let mut future = bytes.clone();
    future[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    assert!(matches!(
        Snapshot::from_bytes(&future, FP),
        Err(SnapshotError::UnsupportedVersion(v)) if v == FORMAT_VERSION + 1
    ));

    assert!(
        matches!(
            Snapshot::from_bytes(&MAGIC, FP),
            Err(SnapshotError::BadMagic),
        ),
        "a bare magic prefix is too short to be a snapshot"
    );
}

#[test]
fn trailing_garbage_is_rejected() {
    // Appending bytes after a valid payload changes the checksum; fixing the
    // checksum up still trips the every-byte-consumed check.
    let snapshot = sample_snapshot();
    let mut bytes = snapshot.to_bytes();
    bytes.push(0);
    assert!(Snapshot::from_bytes(&bytes, FP).is_err());
}

#[test]
fn missing_file_is_a_clean_cold_start_and_save_load_roundtrips() {
    let dir = std::env::temp_dir().join(format!("rel-persist-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.birelcost");

    assert!(matches!(Snapshot::load(&path, FP), Ok(None)));

    let snapshot = sample_snapshot();
    snapshot.save(&path).unwrap();
    let back = Snapshot::load(&path, FP).unwrap().expect("file exists now");
    assert_eq!(back, snapshot);

    // A garbage file at the path is an error, not a panic (and not Ok).
    std::fs::write(&path, b"not a snapshot at all").unwrap();
    assert!(Snapshot::load(&path, FP).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}
