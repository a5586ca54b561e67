//! The fault-injecting [`FaultFs`]: an in-memory file system that fails on
//! a scripted operation.  Built only with the `fault-injection` feature,
//! which only dev-dependencies enable, so it never ships in a binary.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use super::{tmp_sibling, AppendFile, FaultFs};

/// One injected failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The process dies at this operation: it fails, every later operation
    /// fails, and unsynced bytes are dropped per [`UnsyncedSurvival`].
    Crash,
    /// The write applies only the first `n` bytes, then errors (a short
    /// write / torn append).
    ShortWrite(usize),
    /// The operation fails with an out-of-space error, writing nothing.
    Enospc,
    /// The fsync fails; the bytes stay volatile.
    SyncFail,
}

/// How much of a file's *unsynced* suffix survives a [`Fault::Crash`].
/// Sweeping `Prefix(k)` over every k is what drives recovery through every
/// torn-write boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnsyncedSurvival {
    /// Everything unsynced is lost (the conservative disk).
    #[default]
    None,
    /// Everything unsynced happens to survive (the lucky disk).
    All,
    /// The first `k` unsynced bytes survive per file (a torn write).
    Prefix(usize),
}

/// A fault schedule: which numbered operation fails, and how.  Operations
/// are counted across the whole [`FaultyFs`] in call order, so "crash at
/// op N for every N" enumerates every crash point of a deterministic run.
#[derive(Debug, Clone, Default)]
pub struct FaultScript {
    /// Faults keyed by operation index (0-based).
    pub at_op: BTreeMap<u64, Fault>,
    /// Crash semantics for unsynced bytes.
    pub unsynced: UnsyncedSurvival,
}

impl FaultScript {
    /// No faults (used to count a run's operations).
    pub fn none() -> FaultScript {
        FaultScript::default()
    }

    /// Crash at operation `op`, with the given unsynced-survival policy.
    pub fn crash_at(op: u64, unsynced: UnsyncedSurvival) -> FaultScript {
        let mut s = FaultScript {
            unsynced,
            ..FaultScript::default()
        };
        s.at_op.insert(op, Fault::Crash);
        s
    }

    /// A single non-crash fault at operation `op`.
    pub fn fault_at(op: u64, fault: Fault) -> FaultScript {
        let mut s = FaultScript::default();
        s.at_op.insert(op, fault);
        s
    }
}

#[derive(Debug, Clone, Default)]
struct MemFile {
    data: Vec<u8>,
    /// Bytes `[0, synced_len)` are durable; the rest is volatile.
    synced_len: usize,
}

#[derive(Debug, Default)]
struct FaultState {
    files: BTreeMap<PathBuf, MemFile>,
    script: FaultScript,
    ops: u64,
    crashed: bool,
}

impl FaultState {
    /// Charges one operation against the script.  Returns the fault to
    /// apply, if any; after a crash every operation fails.
    fn charge(&mut self) -> Result<Option<Fault>, io::Error> {
        if self.crashed {
            return Err(io::Error::other("simulated crash: process is dead"));
        }
        let op = self.ops;
        self.ops += 1;
        match self.script.at_op.get(&op).copied() {
            Some(Fault::Crash) => {
                self.crash();
                Err(io::Error::other("simulated crash (injected)"))
            }
            other => Ok(other),
        }
    }

    fn crash(&mut self) {
        self.crashed = true;
        for file in self.files.values_mut() {
            let keep = match self.script.unsynced {
                UnsyncedSurvival::None => file.synced_len,
                UnsyncedSurvival::All => file.data.len(),
                UnsyncedSurvival::Prefix(k) => (file.synced_len + k).min(file.data.len()),
            };
            file.data.truncate(keep);
            file.synced_len = file.data.len();
        }
    }
}

/// An in-memory [`FaultFs`] driven by a [`FaultScript`].  Cheap to clone
/// (shared state): clones handed to the code under test and kept by the
/// harness observe the same files.
#[derive(Debug, Clone, Default)]
pub struct FaultyFs {
    state: Arc<Mutex<FaultState>>,
}

impl FaultyFs {
    /// An empty, fault-free file system.
    pub fn new() -> FaultyFs {
        FaultyFs::default()
    }

    /// An empty file system with a fault schedule.
    pub fn with_script(script: FaultScript) -> FaultyFs {
        let fs = FaultyFs::new();
        fs.state.lock().unwrap().script = script;
        fs
    }

    /// Operations performed so far (the bound for a crash-point sweep).
    pub fn op_count(&self) -> u64 {
        self.state.lock().unwrap().ops
    }

    /// Whether a [`Fault::Crash`] has fired.
    pub fn crashed(&self) -> bool {
        self.state.lock().unwrap().crashed
    }

    /// The bytes currently visible for a file (tests inspecting state).
    pub fn bytes_of(&self, path: &Path) -> Option<Vec<u8>> {
        self.state
            .lock()
            .unwrap()
            .files
            .get(path)
            .map(|f| f.data.clone())
    }

    /// Overwrites a file's bytes directly, fully synced (tests planting
    /// corrupt input without charging script operations).
    pub fn plant(&self, path: &Path, bytes: Vec<u8>) {
        let mut s = self.state.lock().unwrap();
        let len = bytes.len();
        s.files.insert(
            path.to_path_buf(),
            MemFile {
                data: bytes,
                synced_len: len,
            },
        );
    }

    /// The disk as a fresh, fault-free [`FaultyFs`] holding what survived —
    /// what a restarted process would find.  Usable after a crash or at any
    /// quiescent point.
    pub fn surviving(&self) -> FaultyFs {
        let mut state = self.state.lock().unwrap();
        if !state.crashed {
            // A kill outside any schedule still drops unsynced bytes.
            let script = std::mem::take(&mut state.script);
            let keep_script = script.clone();
            state.script = keep_script;
            let unsynced = script.unsynced;
            for file in state.files.values_mut() {
                let keep = match unsynced {
                    UnsyncedSurvival::None => file.synced_len,
                    UnsyncedSurvival::All => file.data.len(),
                    UnsyncedSurvival::Prefix(k) => (file.synced_len + k).min(file.data.len()),
                };
                file.data.truncate(keep);
                file.synced_len = file.data.len();
            }
        }
        let survivor = FaultyFs::new();
        survivor.state.lock().unwrap().files = state.files.clone();
        survivor
    }
}

struct FaultyAppend {
    fs: FaultyFs,
    path: PathBuf,
}

impl AppendFile for FaultyAppend {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut s = self.fs.state.lock().unwrap();
        if s.crashed {
            return Err(io::Error::other("simulated crash: process is dead"));
        }
        // A crash *during* an append first puts the in-flight bytes into the
        // unsynced tail — the survival policy then decides how much of that
        // tail a restarted process finds (the torn-write boundary sweep).
        let op = s.ops;
        if s.script.at_op.get(&op).copied() == Some(Fault::Crash) {
            s.ops += 1;
            let file = s.files.entry(self.path.clone()).or_default();
            file.data.extend_from_slice(bytes);
            s.crash();
            return Err(io::Error::other("simulated crash (injected)"));
        }
        let fault = s.charge()?;
        let file = s.files.entry(self.path.clone()).or_default();
        match fault {
            None => {
                file.data.extend_from_slice(bytes);
                Ok(())
            }
            Some(Fault::ShortWrite(n)) => {
                file.data.extend_from_slice(&bytes[..n.min(bytes.len())]);
                Err(io::Error::other("short write (injected)"))
            }
            Some(Fault::Enospc) => Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "no space left on device (injected)",
            )),
            Some(Fault::SyncFail) | Some(Fault::Crash) => {
                // SyncFail on a write degrades to a plain failure; Crash was
                // already handled by charge().
                Err(io::Error::other("write failed (injected)"))
            }
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut s = self.fs.state.lock().unwrap();
        match s.charge()? {
            Some(_) => Err(io::Error::other("fsync failed (injected)")),
            None => {
                if let Some(file) = s.files.get_mut(&self.path) {
                    file.synced_len = file.data.len();
                }
                Ok(())
            }
        }
    }
}

impl FaultFs for FaultyFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut s = self.state.lock().unwrap();
        if let Some(fault) = s.charge()? {
            return Err(io::Error::other(format!(
                "read failed (injected {fault:?})"
            )));
        }
        match s.files.get(path) {
            Some(f) => Ok(f.data.clone()),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn AppendFile>> {
        let mut s = self.state.lock().unwrap();
        if let Some(fault) = s.charge()? {
            return Err(io::Error::other(format!(
                "open failed (injected {fault:?})"
            )));
        }
        s.files.entry(path.to_path_buf()).or_default();
        Ok(Box::new(FaultyAppend {
            fs: self.clone(),
            path: path.to_path_buf(),
        }))
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        // Decomposed into the same crash-point-addressable steps the real
        // dance performs: write the tmp, sync it, rename it.  A crash after
        // the write but before the rename leaves the stale tmp behind —
        // exactly what the startup sweep exists to reap.
        let mut s = self.state.lock().unwrap();
        let seq = s.ops; // unique enough per run
        let tmp = tmp_sibling(path, seq)?;

        // Step 1: create + write the tmp file.
        let fault = s.charge()?;
        match fault {
            None => {
                s.files.insert(
                    tmp.clone(),
                    MemFile {
                        data: bytes.to_vec(),
                        synced_len: 0,
                    },
                );
            }
            Some(Fault::ShortWrite(n)) => {
                s.files.insert(
                    tmp.clone(),
                    MemFile {
                        data: bytes[..n.min(bytes.len())].to_vec(),
                        synced_len: 0,
                    },
                );
                s.files.remove(&tmp);
                return Err(io::Error::other("short write (injected)"));
            }
            Some(Fault::Enospc) => {
                return Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    "no space left on device (injected)",
                ));
            }
            Some(_) => return Err(io::Error::other("write failed (injected)")),
        }

        // Step 2: fsync the tmp.
        if let Err(e) = s.charge().and_then(|fault| match fault {
            None => Ok(()),
            Some(_) => Err(io::Error::other("fsync failed (injected)")),
        }) {
            if !s.crashed {
                s.files.remove(&tmp); // cleanup path of the real dance
            }
            return Err(e);
        }
        if let Some(f) = s.files.get_mut(&tmp) {
            f.synced_len = f.data.len();
        }

        // Step 3: rename over the destination (atomic).
        if let Err(e) = s.charge().and_then(|fault| match fault {
            None => Ok(()),
            Some(_) => Err(io::Error::other("rename failed (injected)")),
        }) {
            if !s.crashed {
                s.files.remove(&tmp);
            }
            return Err(e);
        }
        let file = s.files.remove(&tmp).expect("tmp written above");
        s.files.insert(path.to_path_buf(), file);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut s = self.state.lock().unwrap();
        if let Some(fault) = s.charge()? {
            return Err(io::Error::other(format!(
                "remove failed (injected {fault:?})"
            )));
        }
        match s.files.remove(path) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut s = self.state.lock().unwrap();
        if let Some(fault) = s.charge()? {
            return Err(io::Error::other(format!(
                "list failed (injected {fault:?})"
            )));
        }
        Ok(s.files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name().and_then(|n| n.to_str()))
            .map(str::to_string)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appends_survive_only_when_synced() {
        let fs = FaultyFs::new();
        let path = Path::new("/d/wal");
        let mut f = fs.open_append(path).unwrap();
        f.append(b"durable").unwrap();
        f.sync().unwrap();
        f.append(b" volatile").unwrap();
        // No sync: a kill now keeps only the synced prefix.
        let survivor = fs.surviving();
        assert_eq!(survivor.read(path).unwrap(), b"durable");
    }

    #[test]
    fn crash_keeps_a_chosen_prefix_of_unsynced_bytes() {
        for keep in 0..=4usize {
            let fs =
                FaultyFs::with_script(FaultScript::crash_at(3, UnsyncedSurvival::Prefix(keep)));
            let path = Path::new("/d/wal");
            let mut f = fs.open_append(path).unwrap(); // op 0
            f.append(b"ok").unwrap(); // op 1
            f.sync().unwrap(); // op 2
            assert!(f.append(b"torn").is_err()); // op 3: crash
            let survivor = fs.surviving();
            let bytes = survivor.read(path).unwrap();
            assert_eq!(bytes, [b"ok".as_slice(), &b"torn"[..keep]].concat());
        }
    }

    #[test]
    fn short_write_applies_a_prefix_then_errors() {
        let fs = FaultyFs::with_script(FaultScript::fault_at(1, Fault::ShortWrite(2)));
        let path = Path::new("/d/wal");
        let mut f = fs.open_append(path).unwrap();
        assert!(f.append(b"abcdef").is_err());
        assert_eq!(fs.bytes_of(path).unwrap(), b"ab");
        // The file system survives the fault: later ops succeed.
        f.append(b"xy").unwrap();
        assert_eq!(fs.bytes_of(path).unwrap(), b"abxy");
    }

    #[test]
    fn write_atomic_crash_mid_dance_leaves_old_content_and_a_stale_tmp() {
        let path = Path::new("/d/snap");
        // Ops: 0 open, 1 append, 2 sync, then write_atomic = 3 write-tmp,
        // 4 sync-tmp, 5 rename.  Crash at the sync-tmp step.
        let fs = FaultyFs::with_script(FaultScript::crash_at(4, UnsyncedSurvival::None));
        let mut f = fs.open_append(path).unwrap();
        f.append(b"old").unwrap();
        f.sync().unwrap();
        assert!(fs.write_atomic(path, b"new-content").is_err());
        let survivor = fs.surviving();
        assert_eq!(survivor.read(path).unwrap(), b"old", "rename never ran");
        let names = survivor.list_dir(Path::new("/d")).unwrap();
        assert!(
            names.iter().any(|n| n.starts_with("snap.tmp.")),
            "stale tmp must be visible to the startup sweep: {names:?}"
        );
    }

    #[test]
    fn write_atomic_completed_rename_is_durable() {
        let fs = FaultyFs::new();
        let path = Path::new("/d/snap");
        fs.write_atomic(path, b"v2").unwrap();
        let survivor = fs.surviving();
        assert_eq!(survivor.read(path).unwrap(), b"v2");
        assert_eq!(survivor.list_dir(Path::new("/d")).unwrap(), vec!["snap"]);
    }

    #[test]
    fn enospc_and_sync_failures_are_reported_not_panics() {
        let fs = FaultyFs::with_script(FaultScript::fault_at(1, Fault::Enospc));
        let mut f = fs.open_append(Path::new("/d/wal")).unwrap();
        let e = f.append(b"x").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::StorageFull);

        let fs = FaultyFs::with_script(FaultScript::fault_at(2, Fault::SyncFail));
        let mut f = fs.open_append(Path::new("/d/wal")).unwrap();
        f.append(b"x").unwrap();
        assert!(f.sync().is_err());
        // Unsynced bytes are then lost on a kill.
        assert_eq!(fs.surviving().read(Path::new("/d/wal")).unwrap(), b"");
    }
}
