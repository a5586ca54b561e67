//! `rel-persist` — warm-start persistence for the BiRelCost pipeline.
//!
//! The validity cache and the definition index make *warm* checks
//! dramatically cheaper than cold ones, but both live in process memory.
//! This crate makes that state survive the process, the way modular
//! relational verifiers reuse previously discharged obligations across
//! runs.  The state lives in one file, a verdict log ([`wal`]): every cache
//! store appends a checksummed, engine-fingerprinted frame the moment it is
//! memoized, and a compaction rewrites the file atomically as a compacted
//! image of the live state followed by a marker.  Recovery is one replay of
//! that file with torn-tail truncation.  Frames use an in-tree
//! binary codec ([`codec`]; the workspace is offline — no serde).  All disk
//! traffic goes through the [`faultfs::FaultFs`] seam — `std::fs` in
//! production, an in-memory fault-injecting implementation in the
//! crash-safety tests (the dev-only `fault-injection` feature).
//!
//! Soundness is inherited from the caches being persisted: verdicts are pure
//! functions of the query and the solver configuration (the fingerprint in
//! the header, in every frame and in every [`rel_constraint::QueryKey`]), so
//! replaying them into a same-configuration process is exactly as sound as
//! the in-memory memoization.  A file whose header fails validation is
//! rejected whole — the caller warns and starts cold; a stale or corrupt
//! cache file can slow a run down but never change a verdict.

pub mod codec;
pub mod faultfs;
pub mod wal;

pub use codec::{DecodeError, Reader, Writer};
pub use faultfs::{AppendFile, FaultFs, RealFs};
#[cfg(feature = "fault-injection")]
pub use faultfs::{Fault, FaultScript, FaultyFs, UnsyncedSurvival};
pub use wal::{
    compacted_image, encode_frame, replay, sweep_stale_tmp, validate_frame, validate_header,
    FrameError, HeaderError, Recovery, ReplayStats, WalLimits, WalRecord, WalStats, WalStore,
    MAX_RECORD_LEN, WAL_MAGIC, WAL_VERSION,
};
