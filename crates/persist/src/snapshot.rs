//! The snapshot format: one file carrying the warm state of a checking
//! process.
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"BRCS"
//! 4       4     format version (u32 LE)
//! 8       8     engine fingerprint (u64 LE) — Engine::fingerprint()
//! 16      8     FNV-1a checksum of the payload (u64 LE)
//! 24      …     payload (codec.rs varint encoding)
//! ```
//!
//! The payload is three length-prefixed sections: validity-cache verdicts
//! (full [`QueryKey`] + [`Validity`]), definition input hashes with their
//! stored verdicts (the [`DefIndex`]), and compiled-program keys (the
//! bytecode itself is *not* stored — compilation is deterministic and cheap,
//! so loading recompiles each key into the shared program memo).
//!
//! Loading is strict: wrong magic, unsupported version, mismatched
//! fingerprint, bad checksum or any payload decode failure rejects the whole
//! file with a [`SnapshotError`].  Callers treat every rejection the same
//! way — warn and start cold.  See DESIGN.md §6.

use std::fmt;
use std::hash::Hasher;
use std::io;
use std::path::Path;

use birelcost::{DefIndex, StoredDef};
use rel_constraint::{
    Constr, Fnv1a, ProgramKey, Provenance, Quantified, QueryKey, ShardedValidityCache,
    SharedProgramCache, Validity,
};
use rel_index::{Extended, Idx, IdxEnv, IdxVar, Rational, Sort};

use crate::codec::{DecodeError, Reader, Writer};

/// The four magic bytes opening every snapshot file.
pub const MAGIC: [u8; 4] = *b"BRCS";

/// The current snapshot format version.  Bump on any change to the payload
/// encoding *or* to checking semantics that the engine fingerprint does not
/// capture (the fingerprint covers configuration, not code).
///
/// Version history:
/// * 1 — initial format.
/// * 2 — verdict provenance: `Valid` carries proved vs grid-checked
///   ([`Provenance`]), and [`StoredDef`] records whether the definition's
///   verdict was proved.  Version-1 snapshots cannot express the
///   distinction, so they are rejected (cold start) rather than loaded
///   with guessed provenance.
pub const FORMAT_VERSION: u32 = 2;

/// Nesting cap while decoding recursive terms: deeper input is corrupt (or
/// adversarial) — real constraints nest a few dozen levels at most, and the
/// cap turns a stack overflow into a clean decode error.
pub(crate) const MAX_DEPTH: u32 = 1_000;

/// Why a snapshot file was rejected.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The format version is not [`FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The snapshot was produced under a different engine configuration.
    FingerprintMismatch {
        /// The fingerprint recorded in the file.
        found: u64,
        /// The fingerprint of the loading engine.
        expected: u64,
    },
    /// The payload checksum does not match (truncation or bit rot).
    ChecksumMismatch,
    /// The payload itself is malformed.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot format version {v} (expected {FORMAT_VERSION})"
                )
            }
            SnapshotError::FingerprintMismatch { found, expected } => write!(
                f,
                "snapshot was produced under engine fingerprint {found:016x}, \
                 this engine is {expected:016x}"
            ),
            SnapshotError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt payload: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> SnapshotError {
        SnapshotError::Corrupt(e.0)
    }
}

/// The warm state of one checking process, as written to / read from disk.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// The engine fingerprint the state was recorded under.
    pub fingerprint: u64,
    /// Memoized entailment verdicts (the validity cache).
    pub verdicts: Vec<(QueryKey, Validity)>,
    /// Definition input digests `(input_hash, verify_hash)` and their
    /// stored verdicts (the def index).
    pub defs: Vec<(u64, u64, StoredDef)>,
    /// Keys of compiled numeric queries (the program memo).
    pub programs: Vec<ProgramKey>,
}

impl Snapshot {
    /// Captures the current warm state of a cache / program-memo / def-index
    /// triple.
    pub fn capture(
        fingerprint: u64,
        cache: &ShardedValidityCache,
        programs: &SharedProgramCache,
        defs: &DefIndex,
    ) -> Snapshot {
        Snapshot {
            fingerprint,
            verdicts: cache.export_entries(),
            defs: defs.export(),
            programs: programs.export_keys(),
        }
    }

    /// Replays the snapshot into live caches: verdicts are stored, program
    /// keys recompiled into the memo, def hashes inserted.
    pub fn restore(
        &self,
        cache: &ShardedValidityCache,
        programs: &SharedProgramCache,
        defs: &DefIndex,
    ) {
        for (key, verdict) in &self.verdicts {
            cache.store_key(key.clone(), verdict.clone());
        }
        for key in &self.programs {
            programs.warm(key);
        }
        for (hash, verify, def) in &self.defs {
            defs.insert(*hash, *verify, def.clone());
        }
    }

    /// Serializes the snapshot (header + checksummed payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Writer::new();
        payload.write_len(self.verdicts.len());
        for (key, verdict) in &self.verdicts {
            write_query_key(&mut payload, key);
            write_validity(&mut payload, verdict);
        }
        payload.write_len(self.defs.len());
        for (hash, verify, def) in &self.defs {
            payload.varint(*hash);
            payload.varint(*verify);
            payload.str(&def.name);
            payload.u8(def.ok as u8);
            payload.u8(def.proved as u8);
            match &def.error {
                Some(e) => {
                    payload.u8(1);
                    payload.str(e);
                }
                None => payload.u8(0),
            }
        }
        payload.write_len(self.programs.len());
        for key in &self.programs {
            write_universals(&mut payload, &key.universals);
            write_constr(&mut payload, &key.hyp);
            write_constr(&mut payload, &key.goal);
        }
        let payload = payload.into_bytes();

        let mut out = Vec::with_capacity(24 + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        out.extend_from_slice(&checksum(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Deserializes a snapshot, verifying magic, version, fingerprint and
    /// checksum before touching the payload.
    pub fn from_bytes(bytes: &[u8], expected_fingerprint: u64) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < 24 || bytes[..4] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let fingerprint = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        if fingerprint != expected_fingerprint {
            return Err(SnapshotError::FingerprintMismatch {
                found: fingerprint,
                expected: expected_fingerprint,
            });
        }
        let stored_checksum = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let payload = &bytes[24..];
        if checksum(payload) != stored_checksum {
            return Err(SnapshotError::ChecksumMismatch);
        }

        let mut r = Reader::new(payload);
        let mut verdicts = Vec::new();
        for _ in 0..r.read_len()? {
            let key = read_query_key(&mut r)?;
            let verdict = read_validity(&mut r)?;
            verdicts.push((key, verdict));
        }
        let mut defs = Vec::new();
        for _ in 0..r.read_len()? {
            let hash = r.varint()?;
            let verify = r.varint()?;
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
            defs.push((
                hash,
                verify,
                StoredDef {
                    name,
                    ok,
                    proved,
                    error,
                },
            ));
        }
        let mut programs = Vec::new();
        for _ in 0..r.read_len()? {
            let universals = read_universals(&mut r)?;
            let hyp = read_constr(&mut r, MAX_DEPTH)?;
            let goal = read_constr(&mut r, MAX_DEPTH)?;
            programs.push(ProgramKey {
                universals,
                hyp,
                goal,
            });
        }
        if !r.is_exhausted() {
            return Err(SnapshotError::Corrupt(
                "trailing bytes after the last section".to_string(),
            ));
        }
        Ok(Snapshot {
            fingerprint,
            verdicts,
            defs,
            programs,
        })
    }

    /// Writes the snapshot atomically: a temporary sibling file is written
    /// in full, then renamed over `path`, so a crash mid-save can never
    /// leave a torn snapshot where a good one was.  The temporary name is
    /// unique per process and save (pid + counter), so concurrent savers —
    /// two threads of one daemon, or two `check --cache-file` processes
    /// sharing a path — never interleave writes into one tmp file; the last
    /// rename wins with a *whole* snapshot.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        self.save_with(&crate::faultfs::RealFs, path)
    }

    /// [`Snapshot::save`] through an explicit [`FaultFs`] — the seam the
    /// fault-injection harness drives (and the path WAL compaction uses).
    ///
    /// [`FaultFs`]: crate::faultfs::FaultFs
    pub fn save_with(&self, fs: &dyn crate::faultfs::FaultFs, path: &Path) -> io::Result<()> {
        let _span = rel_obs::span_with("persist.save", self.verdicts.len() as u64);
        fs.write_atomic(path, &self.to_bytes())?;
        rel_obs::counter!("persist.saves").incr();
        Ok(())
    }

    /// Reads and verifies a snapshot file.  `Ok(None)` means the file does
    /// not exist (a legitimate cold start); every other failure is an error
    /// the caller should surface before starting cold.
    pub fn load(path: &Path, expected_fingerprint: u64) -> Result<Option<Snapshot>, SnapshotError> {
        Snapshot::load_with(&crate::faultfs::RealFs, path, expected_fingerprint)
    }

    /// [`Snapshot::load`] through an explicit [`FaultFs`].
    ///
    /// [`FaultFs`]: crate::faultfs::FaultFs
    pub fn load_with(
        fs: &dyn crate::faultfs::FaultFs,
        path: &Path,
        expected_fingerprint: u64,
    ) -> Result<Option<Snapshot>, SnapshotError> {
        let _span = rel_obs::span("persist.load");
        let bytes = match fs.read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(SnapshotError::Io(e)),
        };
        let snapshot = Snapshot::from_bytes(&bytes, expected_fingerprint)?;
        rel_obs::counter!("persist.loads").incr();
        Ok(Some(snapshot))
    }
}

/// FNV-1a over a byte slice (matches `rel_constraint::Fnv1a`).
fn checksum(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
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

fn read_sort(r: &mut Reader<'_>) -> Result<Sort, SnapshotError> {
    match r.u8()? {
        0 => Ok(Sort::Nat),
        1 => Ok(Sort::Real),
        b => Err(SnapshotError::Corrupt(format!("bad sort tag {b}"))),
    }
}

fn write_universals(w: &mut Writer, universals: &[(IdxVar, Sort)]) {
    w.write_len(universals.len());
    for (v, s) in universals {
        w.str(v.name());
        w.u8(sort_tag(*s));
    }
}

fn read_universals(r: &mut Reader<'_>) -> Result<Vec<(IdxVar, Sort)>, SnapshotError> {
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

fn read_rational(r: &mut Reader<'_>) -> Result<Rational, SnapshotError> {
    let num = r.zigzag()?;
    let den = r.varint()?;
    let den = i64::try_from(den)
        .ok()
        .filter(|d| *d > 0)
        .ok_or_else(|| SnapshotError::Corrupt(format!("bad rational denominator {den}")))?;
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

fn read_extended(r: &mut Reader<'_>) -> Result<Extended, SnapshotError> {
    match r.u8()? {
        0 => Ok(Extended::Finite(read_rational(r)?)),
        1 => Ok(Extended::Infinity),
        b => Err(SnapshotError::Corrupt(format!("bad extended tag {b}"))),
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

fn read_idx(r: &mut Reader<'_>, depth: u32) -> Result<Idx, SnapshotError> {
    if depth == 0 {
        return Err(SnapshotError::Corrupt(
            "index term nests too deeply".to_string(),
        ));
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
        b => return Err(SnapshotError::Corrupt(format!("bad index tag {b}"))),
    })
}

fn read_bidx(r: &mut Reader<'_>, depth: u32) -> Result<Box<Idx>, SnapshotError> {
    read_idx(r, depth).map(Box::new)
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

fn read_constr(r: &mut Reader<'_>, depth: u32) -> Result<Constr, SnapshotError> {
    if depth == 0 {
        return Err(SnapshotError::Corrupt(
            "constraint nests too deeply".to_string(),
        ));
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
        7 => Constr::Not(Box::new(read_constr(r, d)?)),
        8 => Constr::Implies(Box::new(read_constr(r, d)?), Box::new(read_constr(r, d)?)),
        9 => {
            let q = read_quantified(r)?;
            Constr::Forall(q, Box::new(read_constr(r, d)?))
        }
        10 => {
            let q = read_quantified(r)?;
            Constr::Exists(q, Box::new(read_constr(r, d)?))
        }
        b => return Err(SnapshotError::Corrupt(format!("bad constraint tag {b}"))),
    })
}

fn read_constr_vec(r: &mut Reader<'_>, depth: u32) -> Result<Vec<Constr>, SnapshotError> {
    let mut out = Vec::new();
    for _ in 0..r.read_len()? {
        out.push(read_constr(r, depth)?);
    }
    Ok(out)
}

fn read_quantified(r: &mut Reader<'_>) -> Result<Quantified, SnapshotError> {
    let var = r.str()?;
    let sort = read_sort(r)?;
    Ok(Quantified::new(var, sort))
}

pub(crate) fn write_query_key(w: &mut Writer, key: &QueryKey) {
    w.varint(key.config_fingerprint());
    write_universals(w, key.universals());
    write_constr(w, key.hyp());
    write_constr(w, key.goal());
}

pub(crate) fn read_query_key(r: &mut Reader<'_>) -> Result<QueryKey, SnapshotError> {
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

pub(crate) fn write_validity(w: &mut Writer, v: &Validity) {
    match v {
        // Tag 0 stays "proved Valid" (the format-1 meaning of Valid was
        // untagged; the version bump rules out cross-reading anyway) and
        // grid-checked Valid takes a fresh tag, so the verdict index
        // round-trips provenance exactly.  Tag 3 belonged to a retired
        // "undecided" verdict that no configuration produced; it is never
        // reused.
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

pub(crate) fn read_validity(r: &mut Reader<'_>) -> Result<Validity, SnapshotError> {
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
        b => return Err(SnapshotError::Corrupt(format!("bad validity tag {b}"))),
    })
}
