//! A counting [`Vfs`] over [`DiskVfs`]: every `read_at`, `write_at`,
//! `sync` and `truncate` is timed and tallied per file name (`wal`,
//! `data`, `sums`, ...), so the device layer's work is measured from
//! outside the storage crate.

use cdpd_storage::{DiskVfs, Vfs, VfsFile};
use cdpd_types::Result;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Calls, bytes and busy time of one file.
#[derive(Clone, Debug, Default)]
pub struct FileCounts {
    pub reads: u64,
    pub bytes_read: u64,
    pub writes: u64,
    pub bytes_written: u64,
    pub syncs: u64,
    pub truncates: u64,
    /// Wall time spent inside the file's calls.
    pub busy_ns: u64,
}

#[derive(Default)]
struct Ledger {
    files: BTreeMap<String, FileCounts>,
    /// Every sync's latency, for percentiles.
    sync_ns: Vec<u64>,
}

/// What the counting VFS has seen so far.
#[derive(Clone, Debug, Default)]
pub struct VfsSnapshot {
    pub files: BTreeMap<String, FileCounts>,
    pub sync_ns: Vec<u64>,
}

impl VfsSnapshot {
    /// Bytes written across every file.
    pub fn bytes_written(&self) -> u64 {
        self.files.values().map(|f| f.bytes_written).sum()
    }

    /// Busy time across every file.
    pub fn busy_ns(&self) -> u64 {
        self.files.values().map(|f| f.busy_ns).sum()
    }

    /// `self - earlier`, per file; sync samples past `earlier`'s.
    pub fn since(&self, earlier: &VfsSnapshot) -> VfsSnapshot {
        let files = self
            .files
            .iter()
            .map(|(name, now)| {
                let was = earlier.files.get(name).cloned().unwrap_or_default();
                let d = FileCounts {
                    reads: now.reads - was.reads,
                    bytes_read: now.bytes_read - was.bytes_read,
                    writes: now.writes - was.writes,
                    bytes_written: now.bytes_written - was.bytes_written,
                    syncs: now.syncs - was.syncs,
                    truncates: now.truncates - was.truncates,
                    busy_ns: now.busy_ns - was.busy_ns,
                };
                (name.clone(), d)
            })
            .collect();
        VfsSnapshot {
            files,
            sync_ns: self.sync_ns[earlier.sync_ns.len().min(self.sync_ns.len())..].to_vec(),
        }
    }
}

/// [`DiskVfs`] with a shared ledger of per-file counts.
pub struct CountingVfs {
    inner: DiskVfs,
    ledger: Arc<Mutex<Ledger>>,
}

impl CountingVfs {
    pub fn new(inner: DiskVfs) -> CountingVfs {
        CountingVfs {
            inner,
            ledger: Arc::new(Mutex::new(Ledger::default())),
        }
    }

    pub fn snapshot(&self) -> VfsSnapshot {
        let l = self.ledger.lock().expect("vfs ledger poisoned");
        VfsSnapshot {
            files: l.files.clone(),
            sync_ns: l.sync_ns.clone(),
        }
    }
}

impl Vfs for CountingVfs {
    fn open(&self, name: &str) -> Result<Box<dyn VfsFile>> {
        let file = self.inner.open(name)?;
        self.ledger
            .lock()
            .expect("vfs ledger poisoned")
            .files
            .entry(name.to_string())
            .or_default();
        Ok(Box::new(CountingFile {
            name: name.to_string(),
            inner: file,
            ledger: self.ledger.clone(),
        }))
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.inner.delete(name)
    }
}

struct CountingFile {
    name: String,
    inner: Box<dyn VfsFile>,
    ledger: Arc<Mutex<Ledger>>,
}

impl CountingFile {
    fn note(&self, start: Instant, f: impl FnOnce(&mut FileCounts, &mut Vec<u64>, u64)) {
        let ns = start.elapsed().as_nanos() as u64;
        let mut l = self.ledger.lock().expect("vfs ledger poisoned");
        let Ledger { files, sync_ns } = &mut *l;
        let counts = files.entry(self.name.clone()).or_default();
        counts.busy_ns += ns;
        f(counts, sync_ns, ns);
    }
}

impl VfsFile for CountingFile {
    fn read_at(&self, off: u64, buf: &mut [u8]) -> Result<usize> {
        let start = Instant::now();
        let n = self.inner.read_at(off, buf)?;
        self.note(start, |c, _, _| {
            c.reads += 1;
            c.bytes_read += n as u64;
        });
        Ok(n)
    }

    fn write_at(&self, off: u64, data: &[u8]) -> Result<()> {
        let start = Instant::now();
        self.inner.write_at(off, data)?;
        self.note(start, |c, _, _| {
            c.writes += 1;
            c.bytes_written += data.len() as u64;
        });
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        let start = Instant::now();
        self.inner.sync()?;
        self.note(start, |c, samples, ns| {
            c.syncs += 1;
            samples.push(ns);
        });
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        self.inner.len()
    }

    fn truncate(&self, len: u64) -> Result<()> {
        let start = Instant::now();
        self.inner.truncate(len)?;
        self.note(start, |c, _, _| c.truncates += 1);
        Ok(())
    }
}
