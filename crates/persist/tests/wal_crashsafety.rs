//! Crash-safety tests for the `rel-wal` layer (DESIGN.md §9.2).
//!
//! The harness runs a deterministic store/compact workload against the
//! in-memory [`FaultyFs`], then kills it at *every* operation index under
//! several torn-write survival policies, reopens whatever survived, and
//! asserts the recovery invariant:
//!
//! > recovered state ⊆ everything ever applied, and ⊇ everything whose
//! > append (or fold) was acknowledged — never a panic, never a verdict
//! > that was not written.
//!
//! On top of the kill matrix: truncation at every byte offset, a
//! single-byte-flip corruption matrix, foreign-fingerprint rejection, and
//! non-crash fault schedules (ENOSPC, short writes, failing fsyncs).

use std::path::Path;
use std::sync::Arc;

use proptest::prelude::*;
use rel_constraint::{Constr, QueryKey, Validity};
use rel_index::Idx;
use rel_persist::{
    replay, Fault, FaultScript, FaultyFs, UnsyncedSurvival, WalLimits, WalRecord, WalStore,
};

const FP: u64 = 0x5EED_BEEF;
const CACHE: &str = "/d/cache";

fn no_limits() -> WalLimits {
    WalLimits {
        max_bytes: u64::MAX,
        max_records: u64::MAX,
    }
}

fn key(i: u64) -> QueryKey {
    QueryKey::from_parts(
        FP,
        Vec::new(),
        Constr::Top,
        Constr::eq(Idx::nat(i), Idx::nat(i + 1)),
    )
}

fn verdict(i: u64) -> Validity {
    match i % 3 {
        0 => Validity::proved(),
        1 => Validity::Invalid(None),
        _ => Validity::grid_checked(),
    }
}

/// One verdict set: what a run acked (durable by contract) or applied (the
/// ceiling recovery may reach).
type Verdicts = Vec<(QueryKey, Validity)>;

/// The deterministic workload: 12 verdict appends with a compaction after
/// the 5th and the 10th.  Returns `(acked, applied)`: the pairs whose write
/// was acknowledged (durable by contract) and everything the in-memory
/// state held (the ceiling recovery may reach).
fn run_workload(fs: &FaultyFs) -> (Verdicts, Verdicts) {
    let (mut store, _recovery) =
        WalStore::open(Arc::new(fs.clone()), Path::new(CACHE), FP, no_limits());
    let mut acked = Vec::new();
    let mut applied = Vec::new();
    for i in 0..12u64 {
        let (k, v) = (key(i), verdict(i));
        applied.push((k.clone(), v.clone()));
        if store.append_verdict(&k, &v).is_ok() {
            acked.push((k, v));
        }
        if i == 4 || i == 9 {
            // The fold mirrors the service: the image carries the whole
            // in-memory state, acknowledged or not.
            if store.compact(&applied, &[]).is_ok() {
                acked = applied.clone();
            }
        }
    }
    (acked, applied)
}

/// Reopens the store over `fs` and flattens image + replayed suffix into
/// one verdict list.
fn recover(fs: FaultyFs) -> Verdicts {
    let (_store, recovery) = WalStore::open(Arc::new(fs), Path::new(CACHE), FP, no_limits());
    recovery
        .records
        .into_iter()
        .filter_map(|record| match record {
            WalRecord::Verdict(k, v) => Some((k, v)),
            _ => None,
        })
        .collect()
}

fn contains(set: &[(QueryKey, Validity)], pair: &(QueryKey, Validity)) -> bool {
    set.iter().any(|(k, v)| k == &pair.0 && v == &pair.1)
}

/// `acked ⊆ recovered ⊆ applied`, with verdicts matching exactly.
fn assert_invariant(
    context: &str,
    acked: &[(QueryKey, Validity)],
    applied: &[(QueryKey, Validity)],
    recovered: &[(QueryKey, Validity)],
) {
    for pair in acked {
        assert!(
            contains(recovered, pair),
            "{context}: acknowledged verdict lost: {pair:?}"
        );
    }
    for pair in recovered {
        assert!(
            contains(applied, pair),
            "{context}: recovered a verdict that was never written: {pair:?}"
        );
    }
}

#[test]
fn clean_shutdown_recovers_exactly_what_was_applied() {
    let fs = FaultyFs::new();
    let (acked, applied) = run_workload(&fs);
    assert_eq!(acked.len(), applied.len(), "fault-free run acks everything");
    let recovered = recover(fs.surviving());
    assert_invariant("clean shutdown", &acked, &applied, &recovered);
    for pair in &applied {
        assert!(contains(&recovered, pair), "clean shutdown lost {pair:?}");
    }
}

#[test]
fn roundtrip_replays_verdicts_defs_and_markers() {
    let fs = FaultyFs::new();
    let (mut store, _) = WalStore::open(Arc::new(fs.clone()), Path::new(CACHE), FP, no_limits());
    for i in 0..6u64 {
        store.append_verdict(&key(i), &verdict(i)).unwrap();
    }
    let def = birelcost::StoredDef {
        name: "fib".to_string(),
        ok: true,
        proved: true,
        error: None,
    };
    store.append_def(7, 11, &def).unwrap();
    drop(store);

    let (reopened, recovery) =
        WalStore::open(Arc::new(fs.surviving()), Path::new(CACHE), FP, no_limits());
    assert_eq!(recovery.stats.replayed, 7);
    assert_eq!(recovery.stats.anomalies(), 0);
    assert!(recovery.warnings.is_empty(), "{:?}", recovery.warnings);
    assert_eq!(recovery.records.len(), 7);
    assert_eq!(
        recovery.records[6],
        WalRecord::Def {
            input_hash: 7,
            verify_hash: 11,
            def
        }
    );
    let stats = reopened.stats();
    assert_eq!(stats.replayed, 7);
    assert_eq!(stats.records, 7);
    assert!(stats.bytes > 0);
}

#[test]
fn kill_at_every_crash_point_never_loses_an_acknowledged_verdict() {
    // Pass 1: count the operations of a fault-free run.
    let probe = FaultyFs::new();
    run_workload(&probe);
    let total_ops = probe.op_count();
    assert!(total_ops > 20, "workload too small to be interesting");

    let policies = [
        UnsyncedSurvival::None,
        UnsyncedSurvival::All,
        UnsyncedSurvival::Prefix(1),
        UnsyncedSurvival::Prefix(7),
        UnsyncedSurvival::Prefix(19),
    ];
    for op in 0..total_ops {
        for policy in policies {
            let fs = FaultyFs::with_script(FaultScript::crash_at(op, policy));
            let (acked, applied) = run_workload(&fs);
            assert!(fs.crashed(), "op {op} never ran");
            let recovered = recover(fs.surviving());
            assert_invariant(
                &format!("crash at op {op} with {policy:?}"),
                &acked,
                &applied,
                &recovered,
            );
        }
    }
}

#[test]
fn enospc_short_writes_and_failing_fsyncs_degrade_without_loss() {
    let probe = FaultyFs::new();
    run_workload(&probe);
    let total_ops = probe.op_count();

    let faults = [Fault::Enospc, Fault::ShortWrite(3), Fault::SyncFail];
    for op in 0..total_ops {
        for fault in faults {
            let fs = FaultyFs::with_script(FaultScript::fault_at(op, fault));
            let (acked, applied) = run_workload(&fs);
            let recovered = recover(fs.surviving());
            assert_invariant(
                &format!("{fault:?} at op {op}"),
                &acked,
                &applied,
                &recovered,
            );
        }
    }
}

/// Builds a clean multi-record WAL image (no compactions) and the records
/// it replays to.
fn wal_image() -> (Vec<u8>, Vec<WalRecord>) {
    let fs = FaultyFs::new();
    let (mut store, _) = WalStore::open(Arc::new(fs.clone()), Path::new(CACHE), FP, no_limits());
    for i in 0..8u64 {
        store.append_verdict(&key(i), &verdict(i)).unwrap();
    }
    let log = Path::new(CACHE);
    let bytes = fs.bytes_of(log).expect("wal written");
    let full = replay(&fs.surviving(), log, FP);
    assert_eq!(full.stats.replayed, 8);
    (bytes, full.records)
}

/// Byte offsets at which the file ends on a whole frame (header included):
/// truncating there yields a *valid shorter log*, not a detectable tear.
fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut at = 16; // header
    let mut out = vec![at];
    while at + 20 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        at += 20 + len;
        out.push(at);
    }
    out
}

#[test]
fn truncation_at_every_offset_replays_a_clean_prefix() {
    let (bytes, full) = wal_image();
    let log = Path::new(CACHE);
    let boundaries = frame_boundaries(&bytes);
    assert_eq!(*boundaries.last().unwrap(), bytes.len());
    for cut in 0..bytes.len() {
        let fs = FaultyFs::new();
        fs.plant(log, bytes[..cut].to_vec());
        let rep = replay(&fs, log, FP);
        assert!(
            full.starts_with(&rep.records),
            "cut at {cut}: replayed records are not a prefix (got {})",
            rep.records.len()
        );
        assert!(
            rep.records.len() < full.len(),
            "cut at {cut} kept every record from a shorter file"
        );
        if let Some(whole) = boundaries.iter().position(|&b| b == cut) {
            // The file ends exactly on a frame: a clean shorter log.
            assert_eq!(rep.records.len(), whole, "cut at boundary {cut}");
            assert_eq!(rep.stats.anomalies(), 0, "boundary cut {cut} flagged");
        } else {
            // Mid-frame (or mid-header): the tear must be noticed.
            assert!(
                rep.stats.truncated_tail > 0 || rep.header_rejected || cut == 0,
                "cut at {cut}: a torn file replayed without an anomaly"
            );
        }
    }
}

#[test]
fn single_byte_flips_reject_frames_and_never_fabricate_records() {
    let (bytes, full) = wal_image();
    let log = Path::new(CACHE);
    for offset in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[offset] ^= 0xFF;
        let fs = FaultyFs::new();
        fs.plant(log, corrupt);
        let rep = replay(&fs, log, FP);
        if offset < 16 {
            assert!(
                rep.header_rejected,
                "flip at header offset {offset} was not rejected"
            );
            assert!(rep.records.is_empty());
            continue;
        }
        for record in &rep.records {
            assert!(
                full.contains(record),
                "flip at {offset} fabricated a record: {record:?}"
            );
        }
        assert!(
            rep.records.len() < full.len(),
            "flip at {offset} left every record intact"
        );
        assert!(
            rep.stats.anomalies() > 0,
            "flip at {offset} replayed without an anomaly"
        );
    }
}

#[test]
fn a_torn_tail_refuses_appends_until_a_compaction() {
    // Garbage after the last whole frame would hide every later append from
    // replay, so a store opened over a torn tail must not append behind it.
    let (bytes, full) = wal_image();
    let log = Path::new(CACHE);
    let fs = FaultyFs::new();
    fs.plant(log, bytes[..bytes.len() - 3].to_vec());
    let (mut store, recovery) = WalStore::open(Arc::new(fs.clone()), log, FP, no_limits());
    assert_eq!(recovery.stats.truncated_tail, 1);
    assert!(recovery.should_compact());
    assert!(
        store.needs_compaction(),
        "a torn tail is due for compaction"
    );
    assert!(store.append_verdict(&key(50), &verdict(50)).is_err());

    let kept: Vec<_> = recovery
        .records
        .iter()
        .filter_map(|r| match r {
            WalRecord::Verdict(k, v) => Some((k.clone(), v.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(kept.len(), full.len() - 1);
    store.compact(&kept, &[]).unwrap();
    store.append_verdict(&key(50), &verdict(50)).unwrap();
    drop(store);
    let rep = replay(&fs.surviving(), log, FP);
    assert_eq!(rep.stats.anomalies(), 0);
    assert_eq!(rep.suffix(), &[WalRecord::Verdict(key(50), verdict(50))]);
}

#[test]
fn frames_from_a_foreign_engine_are_rejected_not_replayed() {
    let fs = FaultyFs::new();
    let (mut store, _) = WalStore::open(Arc::new(fs.clone()), Path::new(CACHE), FP, no_limits());
    store.append_verdict(&key(0), &verdict(0)).unwrap();
    store.append_verdict(&key(1), &verdict(1)).unwrap();
    drop(store);

    // Splice in a frame some other engine configuration wrote.  Its
    // checksum is self-consistent, so only the fingerprint check stands
    // between it and the cache.
    let log = Path::new(CACHE);
    let mut bytes = fs.bytes_of(log).unwrap();
    let foreign = rel_persist::encode_frame(FP ^ 1, &WalRecord::Verdict(key(99), verdict(0)));
    bytes.extend_from_slice(&foreign);
    let fs = FaultyFs::new();
    fs.plant(log, bytes);

    let rep = replay(&fs, log, FP);
    assert_eq!(rep.stats.replayed, 2);
    assert_eq!(rep.stats.fingerprint_rejected, 1);
    assert!(rep
        .records
        .iter()
        .all(|r| !matches!(r, WalRecord::Verdict(k, _) if *k == key(99))));

    // A whole log under a foreign fingerprint is rejected at the header.
    let rep = replay(&fs, log, FP ^ 2);
    assert!(rep.header_rejected);
    assert!(rep.records.is_empty());
}

#[test]
fn stale_tmp_files_are_reaped_at_open() {
    let fs = FaultyFs::new();
    fs.plant(Path::new("/d/cache.tmp.123.0"), b"half an image".to_vec());
    fs.plant(Path::new("/d/cache.tmp.77.4"), b"another".to_vec());
    fs.plant(Path::new("/d/unrelated"), b"keep me".to_vec());
    let (_store, recovery) =
        WalStore::open(Arc::new(fs.clone()), Path::new(CACHE), FP, no_limits());
    assert_eq!(recovery.reaped_tmp, 2);
    assert!(fs.bytes_of(Path::new("/d/cache.tmp.123.0")).is_none());
    assert!(fs.bytes_of(Path::new("/d/cache.tmp.77.4")).is_none());
    assert!(fs.bytes_of(Path::new("/d/unrelated")).is_some());
}

#[test]
fn compaction_threshold_and_marker_counting() {
    let fs = FaultyFs::new();
    let limits = WalLimits {
        max_bytes: u64::MAX,
        max_records: 3,
    };
    let (mut store, _) = WalStore::open(Arc::new(fs.clone()), Path::new(CACHE), FP, limits);
    for i in 0..4u64 {
        store.append_verdict(&key(i), &verdict(i)).unwrap();
    }
    assert!(store.needs_compaction());
    let folded: Vec<_> = (0..4).map(|i| (key(i), verdict(i))).collect();
    store.compact(&folded, &[]).unwrap();
    assert!(!store.needs_compaction());
    assert_eq!(store.stats().compactions, 1);
    assert_eq!(store.stats().records, 0, "the suffix is empty");
    drop(store);

    // The folded state now lives in the image, closed by its marker.
    let (mut store, recovery) =
        WalStore::open(Arc::new(fs.surviving()), Path::new(CACHE), FP, limits);
    assert_eq!(recovery.suffix_start, 5, "four verdicts and the marker");
    assert!(recovery.suffix().is_empty());
    assert_eq!(recovery.stats.replayed, 4);
    assert_eq!(recovery.stats.compaction_markers, 1);
    assert_eq!(
        recovery.records[4],
        WalRecord::Compaction { folded: 4 },
        "the marker counts the image's frames"
    );
    assert!(!recovery.should_compact(), "a bare image is already tight");

    // The limits count the suffix, not the image: four folded records do
    // not make a store over a three-record limit due.
    assert!(!store.needs_compaction());
    for i in 4..7u64 {
        store.append_verdict(&key(i), &verdict(i)).unwrap();
        assert!(!store.needs_compaction(), "suffix of {} record(s)", i - 3);
    }
    store.append_verdict(&key(7), &verdict(7)).unwrap();
    assert!(store.needs_compaction());
}

// ---------------------------------------------------------------------------
// Property: random interleavings of stores, compactions and a crash point
// ---------------------------------------------------------------------------

/// Expands a seed into a deterministic op tape (splitmix64, same generator
/// as the proptest shim).
fn tape(seed: u64, len: usize) -> Vec<u64> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// Replays `ops` against a store: even values append a verdict, every 5th
/// compacts.  Same ack/applied bookkeeping as the fixed workload.
fn run_tape(fs: &FaultyFs, ops: &[u64]) -> (Verdicts, Verdicts) {
    let (mut store, _) = WalStore::open(Arc::new(fs.clone()), Path::new(CACHE), FP, no_limits());
    let mut acked = Vec::new();
    let mut applied = Vec::new();
    for (n, op) in ops.iter().enumerate() {
        if n % 5 == 4 {
            if store.compact(&applied, &[]).is_ok() {
                acked = applied.clone();
            }
        } else {
            let i = op % 32;
            let (k, v) = (key(i), verdict(i));
            if !contains(&applied, &(k.clone(), v.clone())) {
                applied.push((k.clone(), v.clone()));
            }
            if store.append_verdict(&k, &v).is_ok() && !contains(&acked, &(k.clone(), v.clone())) {
                acked.push((k, v));
            }
        }
    }
    (acked, applied)
}

proptest! {
    #[test]
    fn any_interleaving_with_any_crash_point_recovers_the_acked_state(
        seed in 0u64..u64::MAX,
        len in 4usize..24,
        crash_frac in 0u64..1_000,
        keep in 0usize..24,
    ) {
        let ops = tape(seed, len);

        // Bound the crash point by a probe run's op count.
        let probe = FaultyFs::new();
        run_tape(&probe, &ops);
        let total = probe.op_count();
        let crash_op = crash_frac % total.max(1);

        let fs = FaultyFs::with_script(FaultScript::crash_at(
            crash_op,
            UnsyncedSurvival::Prefix(keep),
        ));
        let (acked, applied) = run_tape(&fs, &ops);
        let recovered = recover(fs.surviving());
        assert_invariant(
            &format!("seed {seed} len {len} crash {crash_op} keep {keep}"),
            &acked,
            &applied,
            &recovered,
        );

        // And the same tape with a clean shutdown loses nothing at all.
        let fs = FaultyFs::new();
        let (_, applied) = run_tape(&fs, &ops);
        let recovered = recover(fs.surviving());
        for pair in &applied {
            assert!(contains(&recovered, pair), "clean shutdown lost {pair:?}");
        }
    }
}
