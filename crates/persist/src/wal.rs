//! `rel-wal` — the cache file: one append-only, self-validating verdict
//! log whose head is a compacted image of the warm state.
//!
//! Every cache store appends one frame, so a verdict is durable the moment
//! it is memoized.  A compaction rewrites the whole file atomically (one
//! temp+rename) as a header, one frame per live verdict and def, and a
//! compaction marker; later appends land after the marker.  Recovery is
//! one [`replay`] of one file.  A copy of a compacted file warms a new
//! process exactly as the original does.
//!
//! ## File format
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"BRCW"
//! 4       4     format version (u32 LE)
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
//! update, or a compaction marker.  Payloads use the varint codec of
//! [`crate::codec`]; the domain encoders for index terms, constraints,
//! query keys and verdicts sit at the end of this module.
//!
//! ## Recovery policy (DESIGN.md §9.1)
//!
//! * A **torn tail** — fewer bytes than one frame header claims — is the
//!   *expected* state after a crash mid-append, never an error: replay
//!   stops there and counts `truncated_tail`.
//! * A frame whose **checksum** fails is counted, skipped by its recorded
//!   length, and replay continues — a single flipped bit rejects exactly
//!   one record, not the log.
//! * A frame carrying a different **engine fingerprint** is counted and
//!   skipped: verdicts from another configuration must never replay.
//! * A file whose **header** fails (not a cache file, another format
//!   version, another engine) is rejected whole and replaced by an empty
//!   image: the caller starts cold.
//! * Replay **never panics** and never applies a record it could not fully
//!   validate.  The invariant: recovered state ⊆ pre-crash state, and ⊇
//!   the state at the last completed compaction.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use birelcost::StoredDef;
use rel_constraint::{Constr, Provenance, Quantified, QueryKey, Validity};
use rel_index::{Extended, Idx, IdxEnv, IdxVar, Rational, Sort};

use crate::codec::{DecodeError, Reader, Writer};
use crate::faultfs::{AppendFile, FaultFs};

/// The four magic bytes opening every cache file.
pub const WAL_MAGIC: [u8; 4] = *b"BRCW";

/// The current format version.  Bump on any change to the frame or payload
/// encoding *or* to checking semantics that the engine fingerprint does not
/// capture (the fingerprint covers configuration, not code).
///
/// Version history:
/// * 1 — a log beside a separate snapshot file.
/// * 2 — the cache file itself: a compacted image followed by appends.
///   Also retires every verdict recorded before existentials were
///   eliminated in the scope of their binders (version-1 logs can replay
///   stale failures for programs that now check).
pub const WAL_VERSION: u32 = 2;

/// Bytes of the file header (magic + version + fingerprint).
const WAL_HEADER_LEN: usize = 16;

/// Bytes of one frame header (length + checksum + fingerprint).
const FRAME_HEADER_LEN: usize = 4 + 8 + 8;

/// Ceiling on one record's payload: anything larger is corruption (real
/// records are a few hundred bytes), and bounding it keeps a corrupt length
/// from directing replay to skip gigabytes.
pub const MAX_RECORD_LEN: u32 = 1 << 26;

/// Nesting cap while decoding recursive terms: deeper input is corrupt (or
/// adversarial) — real constraints nest a few dozen levels at most, and the
/// cap turns a stack overflow into a clean decode error.
const MAX_DEPTH: u32 = 1_000;

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
    /// A compaction marker: the end of a compacted image.
    Compaction {
        /// Frames in the image ahead of this marker.
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

// --------------------------------------------------------------------------
// Frames and headers
// --------------------------------------------------------------------------

fn write_record(w: &mut Writer, record: &WalRecord) {
    match record {
        WalRecord::Verdict(key, verdict) => write_verdict(w, key, verdict),
        WalRecord::Def {
            input_hash,
            verify_hash,
            def,
        } => write_def(w, *input_hash, *verify_hash, def),
        WalRecord::Compaction { folded } => {
            w.u8(2);
            w.varint(*folded);
        }
    }
}

fn write_verdict(w: &mut Writer, key: &QueryKey, verdict: &Validity) {
    w.u8(0);
    write_query_key(w, key);
    write_validity(w, verdict);
}

fn write_def(w: &mut Writer, input_hash: u64, verify_hash: u64, def: &StoredDef) {
    w.u8(1);
    w.varint(input_hash);
    w.varint(verify_hash);
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

fn read_bool(r: &mut Reader<'_>) -> Result<bool, DecodeError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        b => Err(DecodeError(format!("bad bool byte {b}"))),
    }
}

/// Decodes one record payload; any malformation is an error, never a panic.
fn decode_payload(payload: &[u8]) -> Result<WalRecord, DecodeError> {
    let mut r = Reader::new(payload);
    let record = match r.u8()? {
        0 => {
            let key = read_query_key(&mut r)?;
            let verdict = read_validity(&mut r)?;
            WalRecord::Verdict(key, verdict)
        }
        1 => WalRecord::Def {
            input_hash: r.varint()?,
            verify_hash: r.varint()?,
            def: StoredDef {
                name: r.str()?,
                ok: read_bool(&mut r)?,
                proved: read_bool(&mut r)?,
                error: match r.u8()? {
                    0 => None,
                    1 => Some(r.str()?),
                    b => return Err(DecodeError(format!("bad option byte {b}"))),
                },
            },
        },
        2 => WalRecord::Compaction {
            folded: r.varint()?,
        },
        b => return Err(DecodeError(format!("bad wal record tag {b}"))),
    };
    if !r.is_exhausted() {
        return Err(DecodeError("trailing bytes after wal record".to_string()));
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
/// validation path for recovery ([`replay`]): a frame is applied only if its
/// length is sane, its checksum matches, its engine fingerprint is ours,
/// and its payload decodes — otherwise it is rejected with a reason, never
/// partially trusted.
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

/// Appends one frame to `w`: a header placeholder, the payload `body`
/// writes, then the header patched with the payload's length and checksum.
fn write_frame(w: &mut Writer, fingerprint: u64, body: impl FnOnce(&mut Writer)) {
    let start = w.buf.len();
    w.buf.resize(start + FRAME_HEADER_LEN, 0);
    body(w);
    let payload = &w.buf[start + FRAME_HEADER_LEN..];
    let len = payload.len() as u32;
    let checksum = frame_checksum(fingerprint, payload);
    let header = &mut w.buf[start..start + FRAME_HEADER_LEN];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..12].copy_from_slice(&checksum.to_le_bytes());
    header[12..].copy_from_slice(&fingerprint.to_le_bytes());
}

/// Encodes one full frame: header + payload.
pub fn encode_frame(fingerprint: u64, record: &WalRecord) -> Vec<u8> {
    let mut w = Writer::new();
    write_frame(&mut w, fingerprint, |w| write_record(w, record));
    w.into_bytes()
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

fn write_header(w: &mut Writer, fingerprint: u64) {
    w.buf.extend_from_slice(&WAL_MAGIC);
    w.buf.extend_from_slice(&WAL_VERSION.to_le_bytes());
    w.buf.extend_from_slice(&fingerprint.to_le_bytes());
}

/// Why a file header was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeaderError {
    /// Shorter than a header: a crash during the very first header write.
    Torn,
    /// The file does not start with [`WAL_MAGIC`].
    BadMagic,
    /// The format version is not [`WAL_VERSION`].
    Version(u32),
    /// The file was written under another engine fingerprint.
    Foreign(u64),
}

impl std::fmt::Display for HeaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeaderError::Torn => write!(f, "torn header"),
            HeaderError::BadMagic => write!(f, "not a cache file (bad magic)"),
            HeaderError::Version(v) => {
                write!(f, "unsupported format version {v} (expected {WAL_VERSION})")
            }
            HeaderError::Foreign(fp) => {
                write!(f, "written under another engine fingerprint {fp:016x}")
            }
        }
    }
}

/// Validates the file header at the start of `bytes`, returning the offset
/// of the first frame.
pub fn validate_header(bytes: &[u8], fingerprint: u64) -> Result<usize, HeaderError> {
    if bytes.len() < WAL_HEADER_LEN {
        return Err(HeaderError::Torn);
    }
    if bytes[..4] != WAL_MAGIC {
        return Err(HeaderError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != WAL_VERSION {
        return Err(HeaderError::Version(version));
    }
    let header_fp = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    if header_fp != fingerprint {
        return Err(HeaderError::Foreign(header_fp));
    }
    Ok(WAL_HEADER_LEN)
}

/// The compacted image of a warm state: header, one frame per verdict and
/// def, then a [`WalRecord::Compaction`] marker counting those frames.  A
/// compaction writes exactly these bytes.
pub fn compacted_image(
    fingerprint: u64,
    verdicts: &[(QueryKey, Validity)],
    defs: &[(u64, u64, StoredDef)],
) -> Vec<u8> {
    let mut w = Writer::new();
    write_header(&mut w, fingerprint);
    for (key, verdict) in verdicts {
        write_frame(&mut w, fingerprint, |w| write_verdict(w, key, verdict));
    }
    for (input_hash, verify_hash, def) in defs {
        write_frame(&mut w, fingerprint, |w| {
            write_def(w, *input_hash, *verify_hash, def)
        });
    }
    let folded = (verdicts.len() + defs.len()) as u64;
    write_frame(&mut w, fingerprint, |w| {
        write_record(w, &WalRecord::Compaction { folded })
    });
    w.into_bytes()
}

// --------------------------------------------------------------------------
// Replay
// --------------------------------------------------------------------------

/// What one replay of the cache file recovered.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Fully validated records, in file order (markers included).
    pub records: Vec<WalRecord>,
    /// Index into `records` where the live suffix starts: everything before
    /// it belongs to a compacted image (through its marker).
    pub suffix_start: usize,
    /// Replay counters.
    pub stats: ReplayStats,
    /// Why anything was rejected (the caller surfaces these and proceeds).
    pub warnings: Vec<String>,
    /// Whether the whole file was rejected (bad header: not a cache file,
    /// wrong version, or a different engine's fingerprint).  The caller
    /// starts cold and the file is replaced.
    pub header_rejected: bool,
    /// Stale temp files swept from the cache directory.
    pub reaped_tmp: u64,
    /// Bytes in the file.
    file_len: u64,
    /// Bytes the walk framed; less than `file_len` when it stopped at a
    /// torn or unframeable tail.
    framed_len: u64,
    /// Bytes after the last compaction marker.
    suffix_bytes: u64,
}

impl Recovery {
    /// The records appended after the last compaction.
    pub fn suffix(&self) -> &[WalRecord] {
        &self.records[self.suffix_start..]
    }

    /// Whether the caller should compact right away: the file carries
    /// appends after its image (folding them bounds the next replay) or had
    /// anomalies (rewriting drops a torn or corrupt tail so later appends
    /// are never shadowed by garbage).
    pub fn should_compact(&self) -> bool {
        !self.suffix().is_empty() || self.stats.anomalies() > 0
    }
}

/// Replays the cache file at `path`, tolerating a torn tail and skipping —
/// never replaying — frames that fail checksum, fingerprint or decode
/// validation.  A missing file is an empty log.
pub fn replay(fs: &dyn FaultFs, path: &Path, fingerprint: u64) -> Recovery {
    let _span = rel_obs::span("persist.wal.replay");
    let mut out = Recovery::default();
    let bytes = match fs.read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return out,
        Err(e) => {
            out.warnings
                .push(format!("cannot read cache file {}: {e}", path.display()));
            out.header_rejected = true;
            return out;
        }
    };
    out.file_len = bytes.len() as u64;
    if bytes.is_empty() {
        return out; // freshly created, header not yet written
    }
    let mut pos = match validate_header(&bytes, fingerprint) {
        Ok(first_frame) => first_frame,
        Err(HeaderError::Torn) => {
            out.stats.truncated_tail = 1;
            out.warnings
                .push("torn wal header; starting fresh".to_string());
            return out;
        }
        Err(e) => {
            out.warnings
                .push(format!("ignoring cache file {}: {e}", path.display()));
            out.header_rejected = true;
            return out;
        }
    };

    let mut suffix_from = pos;
    while pos < bytes.len() {
        match validate_frame(&bytes[pos..], fingerprint) {
            Ok((record, used)) => {
                pos += used;
                let marker = matches!(record, WalRecord::Compaction { .. });
                out.records.push(record);
                if marker {
                    out.stats.compaction_markers += 1;
                    out.suffix_start = out.records.len();
                    suffix_from = pos;
                } else {
                    out.stats.replayed += 1;
                }
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
                    "absurd wal frame length {len} at offset {pos}; tail dropped"
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
    out.framed_len = pos as u64;
    out.suffix_bytes = (bytes.len() - suffix_from) as u64;

    rel_obs::counter!("wal.replayed").add(out.stats.replayed);
    rel_obs::counter!("wal.truncated_tails").add(out.stats.truncated_tail);
    rel_obs::counter!("wal.corrupt_skipped").add(out.stats.corrupt_skipped);
    rel_obs::counter!("wal.fingerprint_rejected").add(out.stats.fingerprint_rejected);
    out
}

// --------------------------------------------------------------------------
// The store
// --------------------------------------------------------------------------

/// Compaction thresholds over the suffix appended since the last
/// compaction: when it outgrows either bound, the next check compacts.
#[derive(Debug, Clone, Copy)]
pub struct WalLimits {
    /// Compact when the suffix exceeds this many bytes.
    pub max_bytes: u64,
    /// Compact when the suffix holds more than this many records.
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
    /// Records appended after the last compaction.
    pub records: u64,
    /// Current file size in bytes, compacted image included.
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

/// The open cache file: appends frames, compacts, and counts.
pub struct WalStore {
    fs: Arc<dyn FaultFs>,
    path: PathBuf,
    fingerprint: u64,
    limits: WalLimits,
    /// Lazily opened append handle; dropped (and reopened) across
    /// compactions, because a compaction replaces the file under it.
    file: Option<Box<dyn AppendFile>>,
    /// Current file size in bytes (0 until a header is written).
    bytes: u64,
    /// Records and bytes after the last compaction marker: what the
    /// [`WalLimits`] bound.
    suffix_records: u64,
    suffix_bytes: u64,
    /// Session append counter.
    appends: u64,
    /// Appends that failed (the verdict stayed in memory; durability for it
    /// waits for the next compaction).
    append_errors: u64,
    /// Set when the file may end in a torn frame — an append failed, or
    /// replay stopped before the end of the file.  A frame appended after
    /// that garbage would be unreachable to replay (framing stops at the
    /// tear), so appends are refused until a compaction rewrites the file.
    tail_poisoned: bool,
    compactions: u64,
    replay: ReplayStats,
    reaped_tmp: u64,
}

impl std::fmt::Debug for WalStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalStore")
            .field("path", &self.path)
            .field("bytes", &self.bytes)
            .field("suffix_records", &self.suffix_records)
            .field("appends", &self.appends)
            .finish()
    }
}

impl WalStore {
    /// Opens (or creates) the cache file and recovers whatever validates:
    /// stale temp files are swept and the file is replayed with torn-tail
    /// truncation.  Nothing here fails the caller — every rejection
    /// degrades to a warning and less recovered state, because a bad cache
    /// can slow a process down but must never stop it.
    pub fn open(
        fs: Arc<dyn FaultFs>,
        path: impl Into<PathBuf>,
        fingerprint: u64,
        limits: WalLimits,
    ) -> (WalStore, Recovery) {
        let path = path.into();
        let reaped_tmp = sweep_stale_tmp(fs.as_ref(), &path);
        let mut recovery = replay(fs.as_ref(), &path, fingerprint);
        recovery.reaped_tmp = reaped_tmp;
        let mut store = WalStore {
            fs,
            path,
            fingerprint,
            limits,
            file: None,
            bytes: recovery.file_len,
            suffix_records: recovery.suffix().len() as u64,
            suffix_bytes: recovery.suffix_bytes,
            appends: 0,
            append_errors: 0,
            tail_poisoned: recovery.framed_len < recovery.file_len,
            compactions: 0,
            replay: recovery.stats,
            reaped_tmp,
        };
        if recovery.header_rejected {
            // A foreign or garbled file can never be appended to; replace it
            // with an empty image so this session's appends are replayable.
            if let Err(e) = store.write_image(&compacted_image(fingerprint, &[], &[])) {
                recovery
                    .warnings
                    .push(format!("cannot reset rejected cache file: {e}"));
                store.tail_poisoned = true;
            }
        }
        (store, recovery)
    }

    /// Appends one verdict insert.
    pub fn append_verdict(&mut self, key: &QueryKey, verdict: &Validity) -> io::Result<()> {
        self.append(|w| write_verdict(w, key, verdict))
    }

    /// Appends one def-index update.
    pub fn append_def(
        &mut self,
        input_hash: u64,
        verify_hash: u64,
        def: &StoredDef,
    ) -> io::Result<()> {
        self.append(|w| write_def(w, input_hash, verify_hash, def))
    }

    /// Appends one record durably (write + fsync), writing the header first
    /// into a fresh file.  On failure the frame may sit torn at the tail;
    /// replay truncates it, and the store refuses further appends until the
    /// next compaction rewrites the file — a frame written after torn
    /// garbage would be unreachable, which reads as durable but is not.
    fn append(&mut self, payload: impl FnOnce(&mut Writer)) -> io::Result<()> {
        if self.tail_poisoned {
            self.append_errors += 1;
            rel_obs::counter!("wal.append_errors").incr();
            return Err(io::Error::other(
                "wal tail is torn by an earlier failed append; awaiting compaction",
            ));
        }
        let mut w = Writer::new();
        if self.bytes == 0 {
            write_header(&mut w, self.fingerprint);
        }
        let header_len = w.buf.len() as u64;
        write_frame(&mut w, self.fingerprint, payload);
        let bytes = w.into_bytes();
        let result = (|| {
            if self.file.is_none() {
                self.file = Some(self.fs.open_append(&self.path)?);
            }
            let file = self.file.as_mut().expect("opened above");
            file.append(&bytes)?;
            file.sync()
        })();
        match result {
            Ok(()) => {
                self.bytes += bytes.len() as u64;
                self.suffix_bytes += bytes.len() as u64 - header_len;
                self.suffix_records += 1;
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

    /// Whether the suffix has outgrown its compaction thresholds, or the
    /// file can no longer accept appends (torn tail) — either way the
    /// caller should compact soon.
    pub fn needs_compaction(&self) -> bool {
        self.suffix_bytes > self.limits.max_bytes
            || self.suffix_records > self.limits.max_records
            || self.tail_poisoned
    }

    /// Rewrites the file as the compacted image of `verdicts` and `defs`, in
    /// one atomic replace: a crash leaves either the old file (image +
    /// suffix) or the new image, never a mixture, and both replay to a
    /// superset of the state at the previous compaction.
    pub fn compact(
        &mut self,
        verdicts: &[(QueryKey, Validity)],
        defs: &[(u64, u64, StoredDef)],
    ) -> io::Result<()> {
        let _span = rel_obs::span_with("persist.wal.compact", self.suffix_records);
        self.write_image(&compacted_image(self.fingerprint, verdicts, defs))?;
        self.compactions += 1;
        rel_obs::counter!("wal.compactions").incr();
        Ok(())
    }

    fn write_image(&mut self, image: &[u8]) -> io::Result<()> {
        self.fs.write_atomic(&self.path, image)?;
        self.file = None; // stale handle points at the replaced file
        self.bytes = image.len() as u64;
        self.suffix_records = 0;
        self.suffix_bytes = 0;
        self.tail_poisoned = false; // the file is whole again
        Ok(())
    }

    /// The cache file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            appends: self.appends,
            append_errors: self.append_errors,
            records: self.suffix_records,
            bytes: self.bytes,
            compactions: self.compactions,
            replayed: self.replay.replayed,
            truncated_tails: self.replay.truncated_tail,
            corrupt_skipped: self.replay.corrupt_skipped,
            fingerprint_rejected: self.replay.fingerprint_rejected,
            tmp_reaped: self.reaped_tmp,
            poisoned: self.tail_poisoned as u64,
        }
    }
}

// --------------------------------------------------------------------------
// Domain-type encoders/decoders
// --------------------------------------------------------------------------

fn sort_tag(sort: Sort) -> u8 {
    match sort {
        Sort::Nat => 0,
        Sort::Real => 1,
    }
}

fn read_sort(r: &mut Reader<'_>) -> Result<Sort, DecodeError> {
    match r.u8()? {
        0 => Ok(Sort::Nat),
        1 => Ok(Sort::Real),
        b => Err(DecodeError(format!("bad sort tag {b}"))),
    }
}

fn write_universals(w: &mut Writer, universals: &[(IdxVar, Sort)]) {
    w.write_len(universals.len());
    for (v, s) in universals {
        w.str(v.name());
        w.u8(sort_tag(*s));
    }
}

fn read_universals(r: &mut Reader<'_>) -> Result<Vec<(IdxVar, Sort)>, DecodeError> {
    let mut out = Vec::new();
    for _ in 0..r.read_len()? {
        let name = r.str()?;
        let sort = read_sort(r)?;
        out.push((IdxVar::new(name), sort));
    }
    Ok(out)
}

fn write_rational(w: &mut Writer, q: Rational) {
    w.zigzag(q.numerator());
    w.varint(q.denominator() as u64);
}

fn read_rational(r: &mut Reader<'_>) -> Result<Rational, DecodeError> {
    let num = r.zigzag()?;
    let den = r.varint()?;
    let den = i64::try_from(den)
        .ok()
        .filter(|d| *d > 0)
        .ok_or_else(|| DecodeError(format!("bad rational denominator {den}")))?;
    Ok(Rational::new(num, den))
}

fn write_extended(w: &mut Writer, e: Extended) {
    match e {
        Extended::Finite(q) => {
            w.u8(0);
            write_rational(w, q);
        }
        Extended::Infinity => w.u8(1),
    }
}

fn read_extended(r: &mut Reader<'_>) -> Result<Extended, DecodeError> {
    match r.u8()? {
        0 => Ok(Extended::Finite(read_rational(r)?)),
        1 => Ok(Extended::Infinity),
        b => Err(DecodeError(format!("bad extended tag {b}"))),
    }
}

fn write_idx(w: &mut Writer, idx: &Idx) {
    match idx {
        Idx::Var(v) => {
            w.u8(0);
            w.str(v.name());
        }
        Idx::Const(q) => {
            w.u8(1);
            write_rational(w, *q);
        }
        Idx::Infty => w.u8(2),
        Idx::Add(a, b) => write_idx2(w, 3, a, b),
        Idx::Sub(a, b) => write_idx2(w, 4, a, b),
        Idx::Mul(a, b) => write_idx2(w, 5, a, b),
        Idx::Div(a, b) => write_idx2(w, 6, a, b),
        Idx::Ceil(a) => write_idx1(w, 7, a),
        Idx::Floor(a) => write_idx1(w, 8, a),
        Idx::Min(a, b) => write_idx2(w, 9, a, b),
        Idx::Max(a, b) => write_idx2(w, 10, a, b),
        Idx::Log2(a) => write_idx1(w, 11, a),
        Idx::Pow2(a) => write_idx1(w, 12, a),
        Idx::Sum { var, lo, hi, body } => {
            w.u8(13);
            w.str(var.name());
            write_idx(w, lo);
            write_idx(w, hi);
            write_idx(w, body);
        }
    }
}

fn write_idx1(w: &mut Writer, tag: u8, a: &Idx) {
    w.u8(tag);
    write_idx(w, a);
}

fn write_idx2(w: &mut Writer, tag: u8, a: &Idx, b: &Idx) {
    w.u8(tag);
    write_idx(w, a);
    write_idx(w, b);
}

fn read_idx(r: &mut Reader<'_>, depth: u32) -> Result<Idx, DecodeError> {
    if depth == 0 {
        return Err(DecodeError("index term nests too deeply".to_string()));
    }
    let d = depth - 1;
    Ok(match r.u8()? {
        0 => Idx::Var(IdxVar::new(r.str()?)),
        1 => Idx::Const(read_rational(r)?),
        2 => Idx::Infty,
        3 => Idx::Add(read_bidx(r, d)?, read_bidx(r, d)?),
        4 => Idx::Sub(read_bidx(r, d)?, read_bidx(r, d)?),
        5 => Idx::Mul(read_bidx(r, d)?, read_bidx(r, d)?),
        6 => Idx::Div(read_bidx(r, d)?, read_bidx(r, d)?),
        7 => Idx::Ceil(read_bidx(r, d)?),
        8 => Idx::Floor(read_bidx(r, d)?),
        9 => Idx::Min(read_bidx(r, d)?, read_bidx(r, d)?),
        10 => Idx::Max(read_bidx(r, d)?, read_bidx(r, d)?),
        11 => Idx::Log2(read_bidx(r, d)?),
        12 => Idx::Pow2(read_bidx(r, d)?),
        13 => {
            let var = IdxVar::new(r.str()?);
            let lo = read_bidx(r, d)?;
            let hi = read_bidx(r, d)?;
            let body = read_bidx(r, d)?;
            Idx::Sum { var, lo, hi, body }
        }
        b => return Err(DecodeError(format!("bad index tag {b}"))),
    })
}

fn read_bidx(r: &mut Reader<'_>, depth: u32) -> Result<Arc<Idx>, DecodeError> {
    read_idx(r, depth).map(Arc::new)
}

fn write_constr(w: &mut Writer, c: &Constr) {
    match c {
        Constr::Top => w.u8(0),
        Constr::Bot => w.u8(1),
        Constr::Eq(a, b) => write_cmp(w, 2, a, b),
        Constr::Leq(a, b) => write_cmp(w, 3, a, b),
        Constr::Lt(a, b) => write_cmp(w, 4, a, b),
        Constr::And(cs) => write_conn(w, 5, cs),
        Constr::Or(cs) => write_conn(w, 6, cs),
        Constr::Not(c) => {
            w.u8(7);
            write_constr(w, c);
        }
        Constr::Implies(a, b) => {
            w.u8(8);
            write_constr(w, a);
            write_constr(w, b);
        }
        Constr::Forall(q, c) => write_quant(w, 9, q, c),
        Constr::Exists(q, c) => write_quant(w, 10, q, c),
    }
}

fn write_cmp(w: &mut Writer, tag: u8, a: &Idx, b: &Idx) {
    w.u8(tag);
    write_idx(w, a);
    write_idx(w, b);
}

fn write_conn(w: &mut Writer, tag: u8, cs: &[Constr]) {
    w.u8(tag);
    w.write_len(cs.len());
    for c in cs {
        write_constr(w, c);
    }
}

fn write_quant(w: &mut Writer, tag: u8, q: &Quantified, c: &Constr) {
    w.u8(tag);
    w.str(q.var.name());
    w.u8(sort_tag(q.sort));
    write_constr(w, c);
}

fn read_constr(r: &mut Reader<'_>, depth: u32) -> Result<Constr, DecodeError> {
    if depth == 0 {
        return Err(DecodeError("constraint nests too deeply".to_string()));
    }
    let d = depth - 1;
    Ok(match r.u8()? {
        0 => Constr::Top,
        1 => Constr::Bot,
        2 => Constr::Eq(read_idx(r, d)?, read_idx(r, d)?),
        3 => Constr::Leq(read_idx(r, d)?, read_idx(r, d)?),
        4 => Constr::Lt(read_idx(r, d)?, read_idx(r, d)?),
        5 => Constr::And(read_constr_vec(r, d)?),
        6 => Constr::Or(read_constr_vec(r, d)?),
        7 => Constr::Not(Arc::new(read_constr(r, d)?)),
        8 => Constr::Implies(Arc::new(read_constr(r, d)?), Arc::new(read_constr(r, d)?)),
        9 => {
            let q = read_quantified(r)?;
            Constr::Forall(q, Arc::new(read_constr(r, d)?))
        }
        10 => {
            let q = read_quantified(r)?;
            Constr::Exists(q, Arc::new(read_constr(r, d)?))
        }
        b => return Err(DecodeError(format!("bad constraint tag {b}"))),
    })
}

fn read_constr_vec(r: &mut Reader<'_>, depth: u32) -> Result<Vec<Constr>, DecodeError> {
    let mut out = Vec::new();
    for _ in 0..r.read_len()? {
        out.push(read_constr(r, depth)?);
    }
    Ok(out)
}

fn read_quantified(r: &mut Reader<'_>) -> Result<Quantified, DecodeError> {
    let var = r.str()?;
    let sort = read_sort(r)?;
    Ok(Quantified::new(var, sort))
}

fn write_query_key(w: &mut Writer, key: &QueryKey) {
    w.varint(key.config_fingerprint());
    write_universals(w, key.universals());
    write_constr(w, key.hyp());
    write_constr(w, key.goal());
}

fn read_query_key(r: &mut Reader<'_>) -> Result<QueryKey, DecodeError> {
    let config_fingerprint = r.varint()?;
    let universals = read_universals(r)?;
    let hyp = read_constr(r, MAX_DEPTH)?;
    let goal = read_constr(r, MAX_DEPTH)?;
    Ok(QueryKey::from_parts(
        config_fingerprint,
        universals,
        hyp,
        goal,
    ))
}

fn write_validity(w: &mut Writer, v: &Validity) {
    match v {
        // Tag 0 is "proved Valid" and grid-checked Valid takes tag 4, so the
        // verdict round-trips provenance exactly.  Tag 3 belonged to a
        // retired "undecided" verdict that no configuration produced; it is
        // never reused.
        Validity::Valid(Provenance::Proved) => w.u8(0),
        Validity::Invalid(None) => w.u8(1),
        Validity::Invalid(Some(env)) => {
            w.u8(2);
            w.write_len(env.len());
            for (var, value) in env.iter() {
                w.str(var.name());
                write_extended(w, *value);
            }
        }
        Validity::Valid(Provenance::GridChecked) => w.u8(4),
    }
}

fn read_validity(r: &mut Reader<'_>) -> Result<Validity, DecodeError> {
    Ok(match r.u8()? {
        0 => Validity::proved(),
        1 => Validity::Invalid(None),
        2 => {
            let mut env = IdxEnv::new();
            for _ in 0..r.read_len()? {
                let var = r.str()?;
                let value = read_extended(r)?;
                env.bind(var, value);
            }
            Validity::Invalid(Some(env))
        }
        4 => Validity::grid_checked(),
        b => return Err(DecodeError(format!("bad validity tag {b}"))),
    })
}
