//! Pluggable durability backends for the registry log.
//!
//! [`Storage`] is deliberately byte-oriented: the persistence layer
//! ([`crate::persist`]) frames records with the ledger codec and hands
//! this trait opaque bytes. That split is what makes fault injection
//! honest — [`FaultyStorage`] can cut an append mid-frame, exactly like
//! a power loss, and the recovery path has to cope with the resulting
//! torn tail.
//!
//! Implementations:
//!
//! * [`InMemoryStorage`] — shared-buffer backend; clones view the same
//!   data, so a test can "restart" an engine by reopening a clone.
//! * [`DiskLog`] — a data-dir with an append-only `registry.log`
//!   (fsync per append) and an atomically-replaced `snapshot.reg`
//!   (write-temp → fsync → rename → fsync dir).
//! * [`FaultyStorage`] — wraps any backend with a byte budget and
//!   kills writes after it is spent.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Storage failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An I/O error from the backing medium.
    Io(String),
    /// A fault-injection wrapper cut this operation short.
    Injected,
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Injected => write!(f, "injected storage fault"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

pub type StorageResult<T> = Result<T, StorageError>;

/// Streams a snapshot's bytes into the given sink, in order.
pub type SnapshotWriter<'a> = dyn FnMut(&mut dyn Write) -> std::io::Result<()> + 'a;

/// A place the registry's event log and snapshots live.
///
/// Contract: `append_log` is durable when it returns `Ok` (a crash
/// immediately after must not lose the bytes); `install_snapshot`
/// replaces the snapshot atomically — after a crash the reader sees
/// either the old snapshot or the new one, never a mixture — and then
/// truncates the log (compaction). A crash between snapshot install
/// and log truncation is benign: events carry sequence numbers and
/// replay skips those the snapshot already covers.
pub trait Storage: Send + Sync {
    /// Whether writes actually persist anywhere. A sink like
    /// [`NullStorage`] returns `false`, letting the persistence layer
    /// skip record encoding entirely for volatile deployments.
    fn is_durable(&self) -> bool {
        true
    }
    /// Durably appends raw bytes to the log.
    fn append_log(&mut self, bytes: &[u8]) -> StorageResult<()>;
    /// Reads the entire log image.
    fn read_log(&mut self) -> StorageResult<Vec<u8>>;
    /// Durably truncates the log to `len` bytes — recovery's torn-tail
    /// repair, so later appends continue from a clean record boundary.
    fn truncate_log(&mut self, len: u64) -> StorageResult<()>;
    /// Atomically replaces the snapshot, then truncates the log.
    fn install_snapshot(&mut self, snapshot: &[u8]) -> StorageResult<()>;
    /// [`Storage::install_snapshot`] for a snapshot that `write`
    /// streams out in pieces. The default collects the pieces first; a
    /// file-backed store writes them straight to disk, so compaction
    /// never holds a registry-sized buffer.
    fn install_snapshot_from(&mut self, write: &mut SnapshotWriter<'_>) -> StorageResult<()> {
        let mut buf = Vec::new();
        write(&mut buf)?;
        self.install_snapshot(&buf)
    }
    /// Reads the current snapshot, if one was ever installed.
    fn read_snapshot(&mut self) -> StorageResult<Option<Vec<u8>>>;
}

// ---- volatile sink ------------------------------------------------------

/// Discards everything: the backend for engines that never asked for
/// durability. `is_durable() == false` lets the persistence layer skip
/// encoding work on the mutation path entirely.
#[derive(Clone, Copy, Default)]
pub struct NullStorage;

impl Storage for NullStorage {
    fn is_durable(&self) -> bool {
        false
    }
    fn append_log(&mut self, _bytes: &[u8]) -> StorageResult<()> {
        Ok(())
    }
    fn read_log(&mut self) -> StorageResult<Vec<u8>> {
        Ok(Vec::new())
    }
    fn truncate_log(&mut self, _len: u64) -> StorageResult<()> {
        Ok(())
    }
    fn install_snapshot(&mut self, _snapshot: &[u8]) -> StorageResult<()> {
        Ok(())
    }
    fn read_snapshot(&mut self) -> StorageResult<Option<Vec<u8>>> {
        Ok(None)
    }
}

// ---- in-memory ----------------------------------------------------------

#[derive(Default)]
struct MemInner {
    log: Vec<u8>,
    snapshot: Option<Vec<u8>>,
}

/// Heap-backed storage. Clones share the same buffers, so dropping an
/// engine and reopening a clone models a process restart without disk.
#[derive(Clone, Default)]
pub struct InMemoryStorage {
    inner: Arc<Mutex<MemInner>>,
}

impl InMemoryStorage {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current log size in bytes (test instrumentation).
    pub fn log_len(&self) -> usize {
        self.inner.lock().expect("storage lock").log.len()
    }

    /// Whether a snapshot has been installed (test instrumentation).
    pub fn has_snapshot(&self) -> bool {
        self.inner.lock().expect("storage lock").snapshot.is_some()
    }
}

impl Storage for InMemoryStorage {
    fn append_log(&mut self, bytes: &[u8]) -> StorageResult<()> {
        self.inner
            .lock()
            .expect("storage lock")
            .log
            .extend_from_slice(bytes);
        Ok(())
    }

    fn read_log(&mut self) -> StorageResult<Vec<u8>> {
        Ok(self.inner.lock().expect("storage lock").log.clone())
    }

    fn truncate_log(&mut self, len: u64) -> StorageResult<()> {
        self.inner
            .lock()
            .expect("storage lock")
            .log
            .truncate(len as usize);
        Ok(())
    }

    fn install_snapshot(&mut self, snapshot: &[u8]) -> StorageResult<()> {
        let mut inner = self.inner.lock().expect("storage lock");
        inner.snapshot = Some(snapshot.to_vec());
        inner.log.clear();
        Ok(())
    }

    fn read_snapshot(&mut self) -> StorageResult<Option<Vec<u8>>> {
        Ok(self.inner.lock().expect("storage lock").snapshot.clone())
    }
}

// ---- on-disk ------------------------------------------------------------

/// Log file name inside a data-dir.
pub const LOG_FILE: &str = "registry.log";
/// Snapshot file name inside a data-dir.
pub const SNAPSHOT_FILE: &str = "snapshot.reg";
const SNAPSHOT_TMP: &str = "snapshot.reg.tmp";

/// A data-dir on a real filesystem.
pub struct DiskLog {
    dir: PathBuf,
    log: File,
}

impl DiskLog {
    /// Opens (creating if needed) a data-dir.
    pub fn open(dir: impl AsRef<Path>) -> StorageResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        // A half-written snapshot from a crashed install is garbage by
        // definition (the rename never happened) — clear it.
        let _ = std::fs::remove_file(dir.join(SNAPSHOT_TMP));
        let log_path = dir.join(LOG_FILE);
        let created = !log_path.exists();
        let log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(log_path)?;
        let this = DiskLog { dir, log };
        if created {
            // Persist the directory entry for the fresh log file; a
            // per-append fsync is useless if a power loss can drop the
            // file itself.
            this.sync_dir()?;
        }
        Ok(this)
    }

    /// Opens an *existing* data-dir without touching it: no directory
    /// or file creation, no tmp-file cleanup, and a read-only log
    /// handle so even a buggy caller cannot append or truncate. The
    /// audit path (`freqywm ledger verify`) — a typo'd path must error
    /// rather than report an empty ledger as OK, and a live `serve`
    /// process on the same dir must not be disturbed.
    pub fn open_read_only(dir: impl AsRef<Path>) -> StorageResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        if !dir.is_dir() {
            return Err(StorageError::Io(format!(
                "data-dir {} does not exist",
                dir.display()
            )));
        }
        let log_path = dir.join(LOG_FILE);
        if !log_path.exists() {
            return Err(StorageError::Io(format!(
                "{} holds no {LOG_FILE}",
                dir.display()
            )));
        }
        let log = OpenOptions::new().read(true).open(log_path)?;
        Ok(DiskLog { dir, log })
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn sync_dir(&self) -> StorageResult<()> {
        // Directory fsync so the rename/creation itself is durable.
        File::open(&self.dir)?.sync_all()?;
        Ok(())
    }
}

impl Storage for DiskLog {
    fn append_log(&mut self, bytes: &[u8]) -> StorageResult<()> {
        self.log.write_all(bytes)?;
        self.log.sync_data()?;
        Ok(())
    }

    fn read_log(&mut self) -> StorageResult<Vec<u8>> {
        Ok(std::fs::read(self.dir.join(LOG_FILE))?)
    }

    fn truncate_log(&mut self, len: u64) -> StorageResult<()> {
        self.log.set_len(len)?;
        self.log.sync_data()?;
        Ok(())
    }

    fn install_snapshot(&mut self, snapshot: &[u8]) -> StorageResult<()> {
        self.install_snapshot_from(&mut |w| w.write_all(snapshot))
    }

    fn install_snapshot_from(&mut self, write: &mut SnapshotWriter<'_>) -> StorageResult<()> {
        let tmp = self.dir.join(SNAPSHOT_TMP);
        {
            let mut f = BufWriter::new(File::create(&tmp)?);
            write(&mut f)?;
            f.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        }
        std::fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        self.sync_dir()?;
        // Compaction: everything in the log is now covered by the
        // snapshot (sequence numbers make the crash window safe).
        self.log.set_len(0)?;
        self.log.sync_data()?;
        Ok(())
    }

    fn read_snapshot(&mut self) -> StorageResult<Option<Vec<u8>>> {
        match std::fs::read(self.dir.join(SNAPSHOT_FILE)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

// ---- fault injection ----------------------------------------------------

/// Wraps a backend and kills writes after a byte budget is spent: the
/// append that crosses the budget is written *partially* (a torn
/// frame, as a power loss would leave) and fails; every later write
/// fails outright. Reads pass through, so recovery code can be pointed
/// at the wreckage.
pub struct FaultyStorage<S> {
    inner: S,
    budget: usize,
}

impl<S: Storage> FaultyStorage<S> {
    /// Allows `budget` bytes of appends/snapshots before the "crash".
    pub fn new(inner: S, budget: usize) -> Self {
        FaultyStorage { inner, budget }
    }

    /// Remaining write budget in bytes.
    pub fn remaining(&self) -> usize {
        self.budget
    }
}

impl<S: Storage> Storage for FaultyStorage<S> {
    fn append_log(&mut self, bytes: &[u8]) -> StorageResult<()> {
        if bytes.len() <= self.budget {
            self.budget -= bytes.len();
            return self.inner.append_log(bytes);
        }
        let cut = self.budget;
        self.budget = 0;
        if cut > 0 {
            self.inner.append_log(&bytes[..cut])?;
        }
        Err(StorageError::Injected)
    }

    fn read_log(&mut self) -> StorageResult<Vec<u8>> {
        self.inner.read_log()
    }

    fn truncate_log(&mut self, len: u64) -> StorageResult<()> {
        // Repair discards bytes, so it costs no budget — but once the
        // budget is spent the "process" is dead and repairs nothing.
        if self.budget == 0 {
            return Err(StorageError::Injected);
        }
        self.inner.truncate_log(len)
    }

    fn install_snapshot(&mut self, snapshot: &[u8]) -> StorageResult<()> {
        // Snapshot installation is atomic, so a budget overrun drops
        // the whole install instead of writing a prefix.
        if snapshot.len() <= self.budget {
            self.budget -= snapshot.len();
            return self.inner.install_snapshot(snapshot);
        }
        self.budget = 0;
        Err(StorageError::Injected)
    }

    fn read_snapshot(&mut self) -> StorageResult<Option<Vec<u8>>> {
        self.inner.read_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_memory_clones_share_state() {
        let mut a = InMemoryStorage::new();
        let mut b = a.clone();
        a.append_log(b"hello").unwrap();
        assert_eq!(b.read_log().unwrap(), b"hello");
        b.install_snapshot(b"snap").unwrap();
        assert_eq!(a.read_snapshot().unwrap().as_deref(), Some(&b"snap"[..]));
        assert!(a.read_log().unwrap().is_empty(), "snapshot compacts log");
    }

    #[test]
    fn disk_log_round_trip_and_compaction() {
        let dir = std::env::temp_dir().join(format!("freqywm-disklog-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut d = DiskLog::open(&dir).unwrap();
            d.append_log(b"one").unwrap();
            d.append_log(b"two").unwrap();
            assert_eq!(d.read_log().unwrap(), b"onetwo");
            assert_eq!(d.read_snapshot().unwrap(), None);
            d.install_snapshot(b"snap-v1").unwrap();
            assert!(d.read_log().unwrap().is_empty());
            d.append_log(b"tail").unwrap();
        }
        // Reopen: everything persisted.
        let mut d = DiskLog::open(&dir).unwrap();
        assert_eq!(d.read_snapshot().unwrap().as_deref(), Some(&b"snap-v1"[..]));
        assert_eq!(d.read_log().unwrap(), b"tail");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_storage_tears_the_crossing_write() {
        let base = InMemoryStorage::new();
        let mut f = FaultyStorage::new(base.clone(), 5);
        f.append_log(b"abc").unwrap();
        assert_eq!(f.remaining(), 2);
        assert_eq!(f.append_log(b"defg"), Err(StorageError::Injected));
        // The torn prefix landed; nothing more ever will.
        assert_eq!(base.clone().read_log().unwrap(), b"abcde");
        assert_eq!(f.append_log(b"x"), Err(StorageError::Injected));
        assert_eq!(base.clone().read_log().unwrap(), b"abcde");
    }

    #[test]
    fn faulty_storage_drops_snapshot_atomically() {
        let base = InMemoryStorage::new();
        let mut f = FaultyStorage::new(base.clone(), 3);
        assert_eq!(f.install_snapshot(b"too-big"), Err(StorageError::Injected));
        assert!(!base.has_snapshot(), "partial snapshot must not install");
    }
}
