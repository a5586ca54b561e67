//! Persisted-surface stability: the default engine fingerprint and the
//! byte encoding of a query key are pinned with **golden values**.
//!
//! The FM subproblem memo and the indexed existential search are in-memory
//! acceleration layers: neither may move the persisted surface.  The fingerprint is the value the
//! pre-interning build (commit `3f49f5e`) reported for `Engine::new()`, and
//! the verdict frame below embeds, byte for byte, the query-key encoding
//! that build wrote.  The current build must
//!
//! 1. report the identical default-engine fingerprint (a drift here would
//!    cold-start every existing cache file),
//! 2. encode the same verdict to the identical frame bytes (`QueryKey`
//!    canonicalization and the codec are untouched by interning), and
//! 3. validate and replay the golden frame into a live cache.
//!
//! If a *deliberate* format or fingerprint change ever lands, regenerate
//! the constants below and bump `WAL_VERSION` per DESIGN.md §6.

use birelcost::Engine;
use rel_constraint::{Constr, QueryKey, ShardedValidityCache, Validity};
use rel_index::{Idx, IdxVar, Sort};
use rel_persist::{encode_frame, validate_frame, WalRecord};

/// `Engine::new().fingerprint()` as reported by the pre-interning build.
const GOLDEN_FINGERPRINT: u64 = 0x3b00_3972_1823_44c0;

/// The frame `golden_record()` encodes to under `GOLDEN_FINGERPRINT`: a
/// 20-byte frame header, the verdict tag `00`, the query key exactly as the
/// pre-interning build serialized it, and the proved-verdict tag `00`.
const GOLDEN_FRAME_HEX: &str = "27000000be4bd8cf3dd6b0b9c04423187239003b00edbd0102016e000174010300016e0300016e01020103070600016e0104010a00017401020100";

fn decode_hex(hex: &str) -> Vec<u8> {
    assert!(hex.len().is_multiple_of(2));
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("valid hex"))
        .collect()
}

/// The fixed verdict the golden frame encodes.
fn golden_record() -> WalRecord {
    let key = QueryKey::new(
        0x5EED,
        &[
            (IdxVar::new("n"), Sort::Nat),
            (IdxVar::new("t"), Sort::Real),
        ],
        &Constr::leq(Idx::var("n"), Idx::var("n") + Idx::one()),
        &Constr::leq(
            Idx::half_ceil(Idx::var("n")),
            Idx::max(Idx::var("t"), Idx::one()),
        ),
    );
    WalRecord::Verdict(key, Validity::proved())
}

#[test]
fn default_engine_fingerprint_is_unchanged_by_interning() {
    assert_eq!(
        Engine::new().fingerprint(),
        GOLDEN_FINGERPRINT,
        "the default engine fingerprint drifted: every existing cache file \
         would cold-start (if the change is deliberate, regenerate the \
         golden constants and review DESIGN.md §6)"
    );
}

#[test]
fn query_key_byte_encoding_is_unchanged_by_interning() {
    let bytes = encode_frame(GOLDEN_FINGERPRINT, &golden_record());
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        hex, GOLDEN_FRAME_HEX,
        "verdict frame encoding drifted from the pinned bytes"
    );
}

#[test]
fn golden_frame_validates_and_replays_into_a_live_cache() {
    let bytes = decode_hex(GOLDEN_FRAME_HEX);
    let (record, used) =
        validate_frame(&bytes, GOLDEN_FINGERPRINT).expect("golden frame must validate");
    assert_eq!(used, bytes.len());
    assert_eq!(record, golden_record());

    let WalRecord::Verdict(key, verdict) = record else {
        unreachable!("checked equal above")
    };
    let cache = ShardedValidityCache::new();
    cache.store_key(key.clone(), verdict);
    assert_eq!(cache.stats().entries, 1);
    assert_eq!(cache.export_entries(), vec![(key, Validity::proved())]);
}
