//! `FaultFs` — the file-system seam of the persistence layer.
//!
//! Everything `rel-persist` does to disk (cache-file reads, atomic
//! temp+rename compactions, appends and fsyncs, stale-tmp sweeps) goes
//! through this trait.  Production uses [`RealFs`], a thin passthrough to
//! `std::fs`.  Tests use `FaultyFs`, an in-memory file system that
//! injects the failures a real disk produces at the worst moments: short
//! writes, `ENOSPC`, failing fsyncs, and — the important one — a simulated
//! process kill at *every single operation* of a schedule, after which the
//! test reopens the surviving bytes and asserts recovery holds the
//! invariant (DESIGN.md §9.2).
//!
//! The faulty implementation models durability honestly: appended bytes are
//! *volatile* until the file is synced, and a crash drops an arbitrary
//! suffix of the unsynced bytes (the caller chooses how much survives, so a
//! harness can sweep every torn-write boundary).  Renames are atomic, but
//! the renamed file keeps its own synced/unsynced split — exactly the
//! semantics that make "write, fsync, *then* rename" the only safe order.
//! `FaultyFs` and its schedules live in the `inject` submodule, built only
//! with the dev-only `fault-injection` feature.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// An open append-only file handle.
pub trait AppendFile: Send {
    /// Appends bytes at the end of the file.  On failure, any prefix may
    /// have been written (a short write) — callers must treat the file as
    /// having a torn tail until the next successful replay.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Forces everything appended so far to durable storage.
    fn sync(&mut self) -> io::Result<()>;
}

/// The file operations the persistence layer needs, made injectable.
pub trait FaultFs: Send + Sync + fmt::Debug {
    /// Reads a whole file.  `ErrorKind::NotFound` means the file does not
    /// exist (a legitimate cold start).
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Opens (creating if missing) a file for appending.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn AppendFile>>;
    /// Replaces `path` atomically: write a temporary sibling in full, sync
    /// it, rename it over `path`.  A crash at any point leaves either the
    /// old content or the new content at `path`, never a mixture (it may
    /// leave a stray `*.tmp.*` sibling — see [`sweep_stale_tmp`]).
    ///
    /// [`sweep_stale_tmp`]: crate::wal::sweep_stale_tmp
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Removes a file (`NotFound` is an error, callers ignore it when the
    /// file is optional).
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// The file names (not paths) in a directory.
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>>;
}

// --------------------------------------------------------------------------
// Production passthrough
// --------------------------------------------------------------------------

/// The production [`FaultFs`]: `std::fs`, with an atomic temp+rename
/// replace for compactions.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealFs;

struct RealAppend(std::fs::File);

impl AppendFile for RealAppend {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        self.0.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl FaultFs for RealFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn AppendFile>> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Box::new(RealAppend(file)))
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let tmp = tmp_sibling(path, SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed))?;
        let result = (|| {
            // Write + fsync *before* the rename: without the sync, a power
            // loss shortly after the rename can surface the new name with
            // truncated content on common filesystems.
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(bytes)?;
            file.sync_all()?;
            drop(file);
            std::fs::rename(&tmp, path)?;
            // Best-effort directory sync so the rename itself is durable.
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                if let Ok(dir) = std::fs::File::open(dir) {
                    let _ = dir.sync_all();
                }
            }
            Ok(())
        })();
        if result.is_err() {
            // Best-effort cleanup: never leave a stray tmp behind a failure.
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            if let Some(name) = entry?.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        Ok(names)
    }
}

/// The `<file>.tmp.<pid>.<seq>` sibling name used by every atomic replace
/// (and therefore the shape [`sweep_stale_tmp`] reaps).
///
/// [`sweep_stale_tmp`]: crate::wal::sweep_stale_tmp
pub fn tmp_sibling(path: &Path, seq: u64) -> io::Result<PathBuf> {
    match path.file_name() {
        Some(name) => {
            let mut tmp_name = name.to_os_string();
            tmp_name.push(format!(".tmp.{}.{seq}", std::process::id()));
            Ok(path.with_file_name(tmp_name))
        }
        None => Err(io::Error::other("path has no file name")),
    }
}

#[cfg(feature = "fault-injection")]
mod inject;
#[cfg(feature = "fault-injection")]
pub use inject::{Fault, FaultScript, FaultyFs, UnsyncedSurvival};
