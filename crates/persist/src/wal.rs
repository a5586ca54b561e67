//! `rel-wal` — an append-only verdict log layered under the v2 snapshot.
//!
//! The snapshot alone is a write-the-world file flushed on a timer: a crash
//! loses everything memoized since the last flush.  The WAL closes that
//! window.  Every cache store appends one self-validating frame, so the
//! durable state is always `snapshot + WAL suffix`; recovery replays the
//! suffix on top of the snapshot, and a size/record-count threshold folds
//! the log back into a fresh snapshot (compaction) through the same atomic
//! temp+rename save the snapshot layer has always used.
//!
//! ## File format
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"BRCW"
//! 4       4     WAL format version (u32 LE)
//! 8       8     engine fingerprint (u64 LE)
//! 16      …     frames
//! ```
//!
//! Each frame is length-prefixed, checksummed and fingerprinted, so
//! recovery can *verify* a record rather than trust it:
//!
//! ```text
//! [payload len: u32 LE][FNV-1a of fingerprint+payload: u64 LE]
//! [engine fingerprint: u64 LE][payload]
//! ```
//!
//! The payload is a tagged [`WalRecord`]: a verdict insert, a def-index
//! update, or a compaction marker.
//!
//! ## Recovery policy (DESIGN.md §9.2)
//!
//! * A **torn tail** — fewer bytes than one frame header claims — is the
//!   *expected* state after a crash mid-append, never an error: replay
//!   stops there and counts `truncated_tail`.
//! * A frame whose **checksum** fails is counted, skipped by its recorded
//!   length, and replay continues — a single flipped bit rejects exactly
//!   one record, not the log.
//! * A frame carrying a different **engine fingerprint** is counted and
//!   skipped: verdicts from another configuration must never replay.
//! * Replay **never panics** and never applies a record it could not fully
//!   validate.  The invariant: recovered state ⊆ pre-crash state, and ⊇
//!   the state at the last completed compaction.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use birelcost::StoredDef;
use rel_constraint::{QueryKey, Validity};

use crate::codec::{Reader, Writer};
use crate::faultfs::{AppendFile, FaultFs};
use crate::snapshot::{
    read_query_key, read_validity, write_query_key, write_validity, Snapshot, SnapshotError,
};

/// The four magic bytes opening every WAL file.
pub const WAL_MAGIC: [u8; 4] = *b"BRCW";

/// The current WAL format version.  Bump on any change to the frame or
/// payload encoding.
pub const WAL_VERSION: u32 = 1;

/// Bytes of the file header (magic + version + fingerprint).
const WAL_HEADER_LEN: usize = 16;

/// Bytes of one frame header (length + checksum + fingerprint).
const FRAME_HEADER_LEN: usize = 4 + 8 + 8;

/// Ceiling on one record's payload: anything larger is corruption (real
/// records are a few hundred bytes), and bounding it keeps a corrupt length
/// from directing replay to skip gigabytes.
pub const MAX_RECORD_LEN: u32 = 1 << 26;

/// One durable event in the log.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A validity-cache store: one memoized entailment verdict.
    Verdict(QueryKey, Validity),
    /// A def-index update: one definition's 128-bit input digest and its
    /// stored verdict.
    Def {
        /// Primary input hash.
        input_hash: u64,
        /// Independently seeded verify hash.
        verify_hash: u64,
        /// The recorded verdict.
        def: StoredDef,
    },
    /// A compaction marker: everything before this frame has been folded
    /// into the snapshot.  Written as the first frame of a fresh log so a
    /// recovered process can count completed compactions.
    Compaction {
        /// Records folded into the snapshot by this compaction.
        folded: u64,
    },
}

/// Counters describing one replay pass (all monotone within the pass).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Fully validated records applied (verdicts + def updates).
    pub replayed: u64,
    /// Compaction markers seen.
    pub compaction_markers: u64,
    /// Frames rejected by checksum or payload decode and skipped.
    pub corrupt_skipped: u64,
    /// Frames rejected because they carry a different engine fingerprint.
    pub fingerprint_rejected: u64,
    /// 1 when replay stopped at a torn tail (a partial final frame — the
    /// expected state after a crash mid-append).
    pub truncated_tail: u64,
}

impl ReplayStats {
    /// Whether the log deviated from a clean record stream in any way.
    pub fn anomalies(&self) -> u64 {
        self.corrupt_skipped + self.fingerprint_rejected + self.truncated_tail
    }
}

/// Encodes one record's payload (without the frame header).
fn encode_payload(record: &WalRecord) -> Vec<u8> {
    let mut w = Writer::new();
    match record {
        WalRecord::Verdict(key, verdict) => {
            w.u8(0);
            write_query_key(&mut w, key);
            write_validity(&mut w, verdict);
        }
        WalRecord::Def {
            input_hash,
            verify_hash,
            def,
        } => {
            w.u8(1);
            w.varint(*input_hash);
            w.varint(*verify_hash);
            w.str(&def.name);
            w.u8(def.ok as u8);
            w.u8(def.proved as u8);
            match &def.error {
                Some(e) => {
                    w.u8(1);
                    w.str(e);
                }
                None => w.u8(0),
            }
        }
        WalRecord::Compaction { folded } => {
            w.u8(2);
            w.varint(*folded);
        }
    }
    w.into_bytes()
}

/// Decodes one record payload; any malformation is an error, never a panic.
fn decode_payload(payload: &[u8]) -> Result<WalRecord, SnapshotError> {
    let mut r = Reader::new(payload);
    let record = match r.u8()? {
        0 => {
            let key = read_query_key(&mut r)?;
            let verdict = read_validity(&mut r)?;
            WalRecord::Verdict(key, verdict)
        }
        1 => {
            let input_hash = r.varint()?;
            let verify_hash = r.varint()?;
            let name = r.str()?;
            let ok = match r.u8()? {
                0 => false,
                1 => true,
                b => return Err(SnapshotError::Corrupt(format!("bad bool byte {b}"))),
            };
            let proved = match r.u8()? {
                0 => false,
                1 => true,
                b => return Err(SnapshotError::Corrupt(format!("bad bool byte {b}"))),
            };
            let error = match r.u8()? {
                0 => None,
                1 => Some(r.str()?),
                b => return Err(SnapshotError::Corrupt(format!("bad option byte {b}"))),
            };
            WalRecord::Def {
                input_hash,
                verify_hash,
                def: StoredDef {
                    name,
                    ok,
                    proved,
                    error,
                },
            }
        }
        2 => WalRecord::Compaction {
            folded: r.varint()?,
        },
        b => return Err(SnapshotError::Corrupt(format!("bad wal record tag {b}"))),
    };
    if !r.is_exhausted() {
        return Err(SnapshotError::Corrupt(
            "trailing bytes after wal record".to_string(),
        ));
    }
    Ok(record)
}

/// Why one frame failed validation.  `skip` variants carry the byte count a
/// sequential reader should hop to reach the next frame boundary; the
/// boundary-less variants (`Torn`, `Absurd`) end the walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes remain than one frame requires — the expected state at a
    /// torn tail, and a hard error for a frame received over the wire.
    Torn,
    /// The length field exceeds [`MAX_RECORD_LEN`]: corruption, and nothing
    /// after it can be framed.
    Absurd(u32),
    /// The stored checksum disagrees with the recomputed one.
    Checksum {
        /// Bytes to skip to the claimed next frame.
        skip: usize,
    },
    /// The frame validates but was written under a different engine
    /// fingerprint: it must never be applied.
    Foreign {
        /// The foreign fingerprint the frame carries.
        fingerprint: u64,
        /// Bytes to skip to the next frame.
        skip: usize,
    },
    /// Checksum and fingerprint pass but the payload will not decode.
    Undecodable {
        /// What the decoder rejected.
        reason: String,
        /// Bytes to skip to the next frame.
        skip: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Torn => write!(f, "torn frame"),
            FrameError::Absurd(len) => write!(f, "absurd frame length {len}"),
            FrameError::Checksum { .. } => write!(f, "frame checksum mismatch"),
            FrameError::Foreign { fingerprint, .. } => {
                write!(f, "foreign engine fingerprint {fingerprint:016x}")
            }
            FrameError::Undecodable { reason, .. } => {
                write!(f, "undecodable frame payload: {reason}")
            }
        }
    }
}

/// Validates the frame at the head of `bytes` against `fingerprint`,
/// returning the decoded record and the bytes consumed.  This is the single
/// validation path for both recovery ([`replay`]) and replication inbound:
/// a frame is applied only if its length is sane, its checksum matches, its
/// engine fingerprint is ours, and its payload decodes — otherwise it is
/// rejected with a reason, never partially trusted.
pub fn validate_frame(bytes: &[u8], fingerprint: u64) -> Result<(WalRecord, usize), FrameError> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(FrameError::Torn);
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().unwrap());
    if len > MAX_RECORD_LEN {
        return Err(FrameError::Absurd(len));
    }
    let len = len as usize;
    if bytes.len() < FRAME_HEADER_LEN + len {
        return Err(FrameError::Torn);
    }
    let skip = FRAME_HEADER_LEN + len;
    let stored_checksum = u64::from_le_bytes(bytes[4..12].try_into().unwrap());
    let frame_fp = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let payload = &bytes[FRAME_HEADER_LEN..skip];
    if frame_checksum(frame_fp, payload) != stored_checksum {
        return Err(FrameError::Checksum { skip });
    }
    if frame_fp != fingerprint {
        return Err(FrameError::Foreign {
            fingerprint: frame_fp,
            skip,
        });
    }
    match decode_payload(payload) {
        Ok(record) => Ok((record, skip)),
        Err(e) => Err(FrameError::Undecodable {
            reason: e.to_string(),
            skip,
        }),
    }
}

/// Encodes one full frame: header + payload.
pub fn encode_frame(fingerprint: u64, record: &WalRecord) -> Vec<u8> {
    let payload = encode_payload(record);
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame_checksum(fingerprint, &payload).to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// FNV-1a over the fingerprint bytes followed by the payload: flipping
/// either rejects the frame.
fn frame_checksum(fingerprint: u64, payload: &[u8]) -> u64 {
    use std::hash::Hasher as _;
    let mut h = rel_constraint::Fnv1a::default();
    h.write(&fingerprint.to_le_bytes());
    h.write(payload);
    h.finish()
}

/// The WAL file header for `fingerprint`.
fn encode_header(fingerprint: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(WAL_HEADER_LEN);
    out.extend_from_slice(&WAL_MAGIC);
    out.extend_from_slice(&WAL_VERSION.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out
}

/// The outcome of replaying one WAL file.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Fully validated records, in append order (markers included).
    pub records: Vec<WalRecord>,
    /// What replay saw along the way.
    pub stats: ReplayStats,
    /// Human-readable reasons the log (or parts of it) was rejected.
    pub warnings: Vec<String>,
    /// Whether the whole log was rejected (bad header: not a WAL, wrong
    /// version, or a different engine's fingerprint).  The caller starts
    /// from the snapshot alone and resets the log.
    pub header_rejected: bool,
}

/// Replays the WAL at `path`, tolerating a torn tail and skipping — never
/// replaying — frames that fail checksum, fingerprint or decode validation.
/// A missing file is an empty log.
pub fn replay(fs: &dyn FaultFs, path: &Path, fingerprint: u64) -> WalReplay {
    let _span = rel_obs::span("persist.wal.replay");
    let mut out = WalReplay::default();
    let bytes = match fs.read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return out,
        Err(e) => {
            out.warnings.push(format!("cannot read wal: {e}"));
            out.header_rejected = true;
            return out;
        }
    };
    if bytes.is_empty() {
        return out; // freshly created, header not yet written
    }
    if bytes.len() < WAL_HEADER_LEN {
        // A crash during the very first header write: treat as empty.
        out.stats.truncated_tail = 1;
        out.warnings
            .push("torn wal header; starting fresh".to_string());
        return out;
    }
    if bytes[..4] != WAL_MAGIC {
        out.warnings.push("not a wal file (bad magic)".to_string());
        out.header_rejected = true;
        return out;
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != WAL_VERSION {
        out.warnings
            .push(format!("unsupported wal version {version}"));
        out.header_rejected = true;
        return out;
    }
    let header_fp = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    if header_fp != fingerprint {
        out.warnings.push(format!(
            "wal was written under engine fingerprint {header_fp:016x}, this engine is \
             {fingerprint:016x}"
        ));
        out.header_rejected = true;
        return out;
    }

    let mut pos = WAL_HEADER_LEN;
    while pos < bytes.len() {
        match validate_frame(&bytes[pos..], fingerprint) {
            Ok((WalRecord::Compaction { folded }, used)) => {
                out.stats.compaction_markers += 1;
                out.records.push(WalRecord::Compaction { folded });
                pos += used;
            }
            Ok((record, used)) => {
                out.stats.replayed += 1;
                out.records.push(record);
                pos += used;
            }
            Err(FrameError::Torn) => {
                let remaining = bytes.len() - pos;
                out.stats.truncated_tail = 1;
                out.warnings.push(format!(
                    "torn wal tail at offset {pos}: {remaining} byte(s) dropped"
                ));
                break;
            }
            Err(FrameError::Absurd(len)) => {
                // A corrupt length is indistinguishable from garbage: nothing
                // after it can be framed, so the rest of the log is dropped.
                out.stats.corrupt_skipped += 1;
                out.warnings.push(format!(
                    "absurd frame length {len} at offset {pos}; tail dropped"
                ));
                break;
            }
            Err(FrameError::Checksum { skip }) => {
                out.stats.corrupt_skipped += 1;
                pos += skip;
            }
            Err(FrameError::Foreign { skip, .. }) => {
                out.stats.fingerprint_rejected += 1;
                pos += skip;
            }
            Err(FrameError::Undecodable { reason, skip }) => {
                out.stats.corrupt_skipped += 1;
                out.warnings
                    .push(format!("undecodable wal record: {reason}"));
                pos += skip;
            }
        }
    }

    rel_obs::counter!("wal.replayed").add(out.stats.replayed);
    rel_obs::counter!("wal.truncated_tails").add(out.stats.truncated_tail);
    rel_obs::counter!("wal.corrupt_skipped").add(out.stats.corrupt_skipped);
    rel_obs::counter!("wal.fingerprint_rejected").add(out.stats.fingerprint_rejected);
    out
}

/// An open, appendable WAL.
pub struct Wal {
    fs: Arc<dyn FaultFs>,
    path: PathBuf,
    fingerprint: u64,
    /// Lazily opened append handle; dropped (and reopened) across resets,
    /// because a reset replaces the file under any existing handle.
    file: Option<Box<dyn AppendFile>>,
    /// Current file size in bytes (header included once written).
    bytes: u64,
    /// Records currently in the log (replayed + appended this session).
    records: u64,
    /// Session append counter.
    appends: u64,
    /// Appends that failed (the verdict stayed in memory; durability for it
    /// waits for the next compaction).
    append_errors: u64,
    /// Set when an append failed: the file may end in a torn frame, and a
    /// frame appended after that garbage would be unreachable to replay
    /// (framing stops at the tear).  Refuse appends until [`Wal::reset`]
    /// rewrites the file whole.
    tail_poisoned: bool,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("bytes", &self.bytes)
            .field("records", &self.records)
            .field("appends", &self.appends)
            .finish()
    }
}

impl Wal {
    /// Opens the log for appending after a [`replay`] pass.  `records` and
    /// `bytes` describe what the replay found (so thresholds account for
    /// the existing suffix).
    fn resume(fs: Arc<dyn FaultFs>, path: PathBuf, fingerprint: u64, records: u64) -> Wal {
        let bytes = fs.read(&path).map(|b| b.len() as u64).unwrap_or(0);
        Wal {
            fs,
            path,
            fingerprint,
            file: None,
            bytes,
            records,
            appends: 0,
            append_errors: 0,
            tail_poisoned: false,
        }
    }

    fn ensure_open(&mut self) -> io::Result<&mut Box<dyn AppendFile>> {
        if self.file.is_none() {
            let mut file = self.fs.open_append(&self.path)?;
            if self.bytes == 0 {
                let header = encode_header(self.fingerprint);
                file.append(&header)?;
                file.sync()?;
                self.bytes = header.len() as u64;
            }
            self.file = Some(file);
        }
        Ok(self.file.as_mut().expect("opened above"))
    }

    /// Appends one record durably (write + fsync).  On failure the frame
    /// may sit torn at the tail; replay truncates it, and the log refuses
    /// further appends (`tail_poisoned`) until the next compaction rewrites
    /// the file — a frame written after torn garbage would be unreachable,
    /// which reads as durable but is not.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        if self.tail_poisoned {
            self.append_errors += 1;
            rel_obs::counter!("wal.append_errors").incr();
            return Err(io::Error::other(
                "wal tail is torn by an earlier failed append; awaiting compaction",
            ));
        }
        let frame = encode_frame(self.fingerprint, record);
        let result = (|| {
            let file = self.ensure_open()?;
            file.append(&frame)?;
            file.sync()
        })();
        match result {
            Ok(()) => {
                self.bytes += frame.len() as u64;
                self.records += 1;
                self.appends += 1;
                rel_obs::counter!("wal.appends").incr();
                Ok(())
            }
            Err(e) => {
                self.append_errors += 1;
                self.tail_poisoned = true;
                self.file = None;
                rel_obs::counter!("wal.append_errors").incr();
                Err(e)
            }
        }
    }

    /// Truncates the log to a fresh header plus one compaction marker,
    /// atomically (temp + rename).  Called after the state has been folded
    /// into a snapshot; a crash before the rename leaves the full log —
    /// replaying it on top of the new snapshot is idempotent.
    pub fn reset(&mut self, folded: u64) -> io::Result<()> {
        let mut content = encode_header(self.fingerprint);
        content.extend_from_slice(&encode_frame(
            self.fingerprint,
            &WalRecord::Compaction { folded },
        ));
        self.fs.write_atomic(&self.path, &content)?;
        self.file = None; // stale handle points at the replaced file
        self.bytes = content.len() as u64;
        self.records = 1; // the marker
        self.tail_poisoned = false; // the file is whole again
        Ok(())
    }
}

/// Compaction thresholds: when the log outgrows either bound, the next
/// check folds it into the snapshot.
#[derive(Debug, Clone, Copy)]
pub struct WalLimits {
    /// Compact when the log exceeds this many bytes.
    pub max_bytes: u64,
    /// Compact when the log holds this many records.
    pub max_records: u64,
}

impl Default for WalLimits {
    fn default() -> WalLimits {
        WalLimits {
            max_bytes: 4 << 20,
            max_records: 8_192,
        }
    }
}

/// A point-in-time summary of one [`WalStore`] (surfaced by the daemon's
/// `{"cache": "stats"}` under `"wal"`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended this session.
    pub appends: u64,
    /// Appends that failed (state stays in memory until compaction).
    pub append_errors: u64,
    /// Records currently in the log.
    pub records: u64,
    /// Current log size in bytes.
    pub bytes: u64,
    /// Compactions completed this session.
    pub compactions: u64,
    /// Records replayed at startup.
    pub replayed: u64,
    /// Torn tails truncated at startup (0 or 1).
    pub truncated_tails: u64,
    /// Frames skipped at startup for checksum/decode failures.
    pub corrupt_skipped: u64,
    /// Frames skipped at startup for a foreign engine fingerprint.
    pub fingerprint_rejected: u64,
    /// Stale `*.tmp.*` files reaped at startup.
    pub tmp_reaped: u64,
    /// 1 when the tail is poisoned by a failed append: the log refuses
    /// further appends until the next compaction rewrites it whole.
    pub poisoned: u64,
}

/// What [`WalStore::open`] recovered from disk.
#[derive(Debug, Default)]
pub struct Recovery {
    /// The snapshot, when one loaded cleanly.
    pub snapshot: Option<Snapshot>,
    /// Validated WAL records to replay on top of it, in append order.
    pub records: Vec<WalRecord>,
    /// Replay counters.
    pub stats: ReplayStats,
    /// Why anything was rejected (the caller surfaces these and proceeds).
    pub warnings: Vec<String>,
    /// Stale temp files swept from the snapshot directory.
    pub reaped_tmp: u64,
}

impl Recovery {
    /// Whether the caller should fold the recovered state into a fresh
    /// snapshot right away: there are live suffix records (bounding the
    /// next replay) or the log had anomalies (rewriting drops a torn or
    /// corrupt tail so later appends are never shadowed by garbage).
    pub fn should_compact(&self) -> bool {
        self.stats.replayed > 0 || self.stats.anomalies() > 0
    }
}

/// The snapshot + WAL pair under one cache path: `<path>` is the snapshot,
/// `<path>.wal` the log.
#[derive(Debug)]
pub struct WalStore {
    fs: Arc<dyn FaultFs>,
    snapshot_path: PathBuf,
    wal: Wal,
    limits: WalLimits,
    compactions: u64,
    replay: ReplayStats,
    reaped_tmp: u64,
}

/// The log path for a snapshot path: `cache.birelcost` → `cache.birelcost.wal`.
pub fn wal_path(snapshot_path: &Path) -> PathBuf {
    let mut name = snapshot_path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".wal");
    snapshot_path.with_file_name(name)
}

/// Sweeps stale `<name>.tmp.<pid>.<seq>` siblings left by a crash mid-save.
/// Returns how many were reaped (errors are ignored: the sweep is hygiene,
/// not correctness — a tmp file is never read by recovery).
pub fn sweep_stale_tmp(fs: &dyn FaultFs, target: &Path) -> u64 {
    let Some(name) = target.file_name().and_then(|n| n.to_str()) else {
        return 0;
    };
    let dir = match target.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let prefix = format!("{name}.tmp.");
    let mut reaped = 0;
    if let Ok(entries) = fs.list_dir(&dir) {
        for entry in entries {
            if entry.starts_with(&prefix) && fs.remove_file(&dir.join(&entry)).is_ok() {
                reaped += 1;
            }
        }
    }
    rel_obs::counter!("persist.tmp_reaped").add(reaped);
    reaped
}

impl WalStore {
    /// Opens (or creates) the snapshot + WAL pair and recovers whatever
    /// validates: stale temp files are swept, the snapshot is loaded if it
    /// verifies, and the log suffix is replayed with torn-tail truncation.
    /// Nothing here fails the caller — every rejection degrades to a
    /// warning and less recovered state, because a bad cache can slow a
    /// process down but must never stop it.
    pub fn open(
        fs: Arc<dyn FaultFs>,
        snapshot_path: impl Into<PathBuf>,
        fingerprint: u64,
        limits: WalLimits,
    ) -> (WalStore, Recovery) {
        let snapshot_path = snapshot_path.into();
        let log_path = wal_path(&snapshot_path);
        let mut recovery = Recovery {
            reaped_tmp: sweep_stale_tmp(fs.as_ref(), &snapshot_path)
                + sweep_stale_tmp(fs.as_ref(), &log_path),
            ..Recovery::default()
        };

        match Snapshot::load_with(fs.as_ref(), &snapshot_path, fingerprint) {
            Ok(snapshot) => recovery.snapshot = snapshot,
            Err(e) => recovery.warnings.push(format!(
                "ignoring cache file {}: {e}",
                snapshot_path.display()
            )),
        }

        let mut replayed = replay(fs.as_ref(), &log_path, fingerprint);
        recovery.records = std::mem::take(&mut replayed.records);
        recovery.stats = replayed.stats;
        recovery
            .warnings
            .extend(replayed.warnings.iter().map(|w| format!("wal: {w}")));

        let records = if replayed.header_rejected {
            0
        } else {
            recovery.stats.replayed + recovery.stats.compaction_markers
        };
        let mut wal = Wal::resume(Arc::clone(&fs), log_path, fingerprint, records);
        if replayed.header_rejected {
            // A foreign or garbled log can never be appended to; replace it
            // with a fresh header so this session's appends are replayable.
            wal.bytes = 0;
            if let Err(e) = wal.reset(0) {
                recovery
                    .warnings
                    .push(format!("cannot reset rejected wal: {e}"));
            } else {
                wal.records = 1;
            }
        }

        let store = WalStore {
            fs,
            snapshot_path,
            wal,
            limits,
            compactions: 0,
            replay: recovery.stats,
            reaped_tmp: recovery.reaped_tmp,
        };
        (store, recovery)
    }

    /// Appends one verdict insert.
    pub fn append_verdict(&mut self, key: &QueryKey, verdict: &Validity) -> io::Result<()> {
        self.wal
            .append(&WalRecord::Verdict(key.clone(), verdict.clone()))
    }

    /// Appends one def-index update.
    pub fn append_def(
        &mut self,
        input_hash: u64,
        verify_hash: u64,
        def: &StoredDef,
    ) -> io::Result<()> {
        self.wal.append(&WalRecord::Def {
            input_hash,
            verify_hash,
            def: def.clone(),
        })
    }

    /// Whether the log has outgrown its compaction thresholds, or can no
    /// longer accept appends (torn tail after a failed one) — either way
    /// the caller should compact soon.
    pub fn needs_compaction(&self) -> bool {
        self.wal.bytes > self.limits.max_bytes
            || self.wal.records > self.limits.max_records
            || self.wal.tail_poisoned
    }

    /// Folds the log into `snapshot`: saves it atomically, then truncates
    /// the log to a fresh header + compaction marker.  Crash-ordering: the
    /// snapshot lands *before* the truncation, so a crash between the two
    /// replays the old suffix on top of the new snapshot — a no-op by
    /// idempotence, never a loss.
    pub fn compact(&mut self, snapshot: &Snapshot) -> io::Result<()> {
        let _span = rel_obs::span_with("persist.wal.compact", self.wal.records);
        let folded = self.wal.records;
        snapshot.save_with(self.fs.as_ref(), &self.snapshot_path)?;
        self.wal.reset(folded)?;
        self.compactions += 1;
        rel_obs::counter!("wal.compactions").incr();
        Ok(())
    }

    /// The snapshot file this store compacts into.
    pub fn snapshot_path(&self) -> &Path {
        &self.snapshot_path
    }

    /// Current counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            appends: self.wal.appends,
            append_errors: self.wal.append_errors,
            records: self.wal.records,
            bytes: self.wal.bytes,
            compactions: self.compactions,
            replayed: self.replay.replayed,
            truncated_tails: self.replay.truncated_tail,
            corrupt_skipped: self.replay.corrupt_skipped,
            fingerprint_rejected: self.replay.fingerprint_rejected,
            tmp_reaped: self.reaped_tmp,
            poisoned: self.wal.tail_poisoned as u64,
        }
    }
}
