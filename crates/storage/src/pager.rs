use crate::durable::{
    encode_header, encode_meta, recover_base, Committed, CommittedMeta, Durable, DurableOpen,
    DurableOptions, DurableStats, FILE_DATA, FILE_HDR, FILE_SUMS, FILE_WAL,
};
use crate::vfs::Vfs;
use crate::wal::WalWriter;
use cdpd_types::{Error, PageId, Result};
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Size of a page in bytes. 8 KiB matches the SQL Server page size used
/// in the paper's experiments, so page-count arithmetic (≈200 rows per
/// heap page at 2.5 M rows ⇒ ≈12.5 k heap pages) lines up with the
/// magnitudes the paper's cost ratios imply.
pub const PAGE_SIZE: usize = 8192;

/// Number of lock stripes in the page table (power of two). Page `p`
/// lives in stripe `p mod SHARDS`, so sequentially allocated pages —
/// a heap chain, a bulk-loaded index — spread round-robin across
/// stripes and concurrent scans/seeks on different pages almost never
/// contend on the same lock.
pub const PAGER_SHARDS: usize = 16;
const SHARD_MASK: u32 = (PAGER_SHARDS as u32) - 1;
const SHARD_BITS: u32 = PAGER_SHARDS.trailing_zeros();

#[inline]
fn shard_of(id: PageId) -> usize {
    (id.raw() & SHARD_MASK) as usize
}

#[inline]
fn slot_of(id: PageId) -> usize {
    (id.raw() >> SHARD_BITS) as usize
}

#[inline]
fn id_of(shard: usize, slot: usize) -> PageId {
    PageId(((slot as u32) << SHARD_BITS) | shard as u32)
}

/// An immutable snapshot of one page's bytes.
///
/// Pages are shared via `Arc`, so "reading" a page is a refcount bump and
/// mutation is copy-on-write through [`Pager::update`]. This gives the
/// executor cheap, lock-free access to page contents while keeping the
/// pager the single point where I/O is counted.
pub type Page = Arc<[u8; PAGE_SIZE]>;

fn blank_page() -> Page {
    Arc::new([0u8; PAGE_SIZE])
}

/// Cumulative I/O counters, readable at any time.
///
/// `reads`/`writes` are *logical* page accesses — the quantity the
/// paper's cost model predicts and the quantity we report in the
/// Figure 3 reproduction. They are identical whether the pager is
/// in-memory or file-backed (cache misses, WAL appends, and writebacks
/// live in the separate *physical* ledger, [`DurableStats`]).
/// Subtracting two snapshots ([`IoStats::delta`]) scopes the counters
/// to one query or one index build — but only while a single thread is
/// driving the pager. Under concurrent execution use a
/// [`ThreadIoScope`], which counts exactly the accesses performed by
/// the current thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct IoStats {
    /// Logical page reads.
    pub reads: u64,
    /// Logical page writes.
    pub writes: u64,
    /// Pages allocated.
    pub allocs: u64,
}

impl IoStats {
    /// Process-wide totals, summed over every pager instance, read from
    /// the `cdpd-obs` metrics registry (counters `storage.pager.reads`
    /// / `.writes` / `.allocs`). Per-instance [`Pager::stats`] remains
    /// the scoped view; this is the registry view of the same ledger.
    pub fn global() -> IoStats {
        let r = cdpd_obs::registry();
        IoStats {
            reads: r.counter_value("storage.pager.reads"),
            writes: r.counter_value("storage.pager.writes"),
            allocs: r.counter_value("storage.pager.allocs"),
        }
    }

    /// Counter increase from `earlier` to `self`.
    pub fn delta(self, earlier: IoStats) -> IoStats {
        IoStats {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            allocs: self.allocs - earlier.allocs,
        }
    }

    /// Total page accesses (reads + writes).
    pub fn total(self) -> u64 {
        self.reads + self.writes
    }
}

thread_local! {
    /// Per-thread logical-I/O ledger, incremented in lockstep with every
    /// pager's atomic counters. One statement executes entirely on one
    /// thread, so a [`ThreadIoScope`] around it measures exactly that
    /// statement's I/O even while sibling threads hammer the same pager.
    static THREAD_IO: Cell<IoStats> = const {
        Cell::new(IoStats {
            reads: 0,
            writes: 0,
            allocs: 0,
        })
    };
}

#[inline]
fn note_thread_io(reads: u64, writes: u64, allocs: u64) {
    THREAD_IO.with(|c| {
        let mut v = c.get();
        v.reads += reads;
        v.writes += writes;
        v.allocs += allocs;
        c.set(v);
    });
}

/// Measures the logical I/O performed **by the current thread** between
/// [`ThreadIoScope::start`] and [`ThreadIoScope::delta`].
///
/// This is the concurrency-safe replacement for diffing a pager's
/// global [`Pager::stats`] around a statement: global deltas conflate
/// the work of every concurrently executing thread, while the
/// thread-local ledger attributes each access to the thread that made
/// it. Per-pager atomics, the `cdpd-obs` tracked counters, and the
/// thread-local ledger are all incremented at the same call sites, so
/// summing per-thread deltas over a partition of the work reproduces
/// the global ledger exactly.
///
/// Scopes cover *all* pager instances touched by the thread; execution
/// paths that interleave two pagers within one scope see the sum.
#[derive(Clone, Copy, Debug)]
pub struct ThreadIoScope {
    start: IoStats,
}

impl ThreadIoScope {
    /// Begin measuring at the thread's current ledger position.
    pub fn start() -> ThreadIoScope {
        ThreadIoScope {
            start: THREAD_IO.with(Cell::get),
        }
    }

    /// I/O performed by this thread since [`ThreadIoScope::start`].
    pub fn delta(&self) -> IoStats {
        THREAD_IO.with(Cell::get).delta(self.start)
    }
}

/// One cache frame: the page image (absent when evicted to the file
/// backend), its durable-tier dirty bits, and a clock-LRU stamp.
///
/// `dirty_log` — modified since the last [`Pager::commit`]; the next
/// commit appends the image to the WAL and clears it.
/// `dirty_page` — modified since the last [`Pager::checkpoint`]; the
/// next checkpoint writes the image back to the data file and clears
/// it. `dirty_log ⊆ dirty_page` always, and dirty frames are pinned
/// (never evicted), so an evicted frame can always be refetched from
/// the data file.
struct Frame {
    page: Option<Page>,
    dirty_log: bool,
    dirty_page: bool,
    stamp: AtomicU64,
}

impl Frame {
    fn empty() -> Frame {
        Frame {
            page: None,
            dirty_log: false,
            dirty_page: false,
            stamp: AtomicU64::new(0),
        }
    }
}

/// One lock stripe of the page table: a slice of the frame array plus
/// the stripe's free list. Stripe `s` holds pages `s, s+16, s+32, …` at
/// slots `0, 1, 2, …`.
struct PageShard {
    frames: RwLock<Vec<Frame>>,
    free: Mutex<Vec<PageId>>,
    /// Clock for LRU stamps (durable mode only).
    clock: AtomicU64,
    /// Resident (cached) frames in this stripe; maintained under the
    /// frame write lock.
    resident: AtomicUsize,
}

impl PageShard {
    fn new() -> PageShard {
        PageShard {
            frames: RwLock::new(Vec::new()),
            free: Mutex::new(Vec::new()),
            clock: AtomicU64::new(0),
            resident: AtomicUsize::new(0),
        }
    }
}

/// The page store: allocates, reads, and writes fixed-size pages, and
/// counts every access.
///
/// All methods take `&self`. The page table is **lock-striped**:
/// [`PAGER_SHARDS`] stripes each guard `1/SHARDS` of the pages behind
/// their own `RwLock`, with per-stripe free lists, so concurrent reads
/// of different pages proceed in parallel (reads of pages in the same
/// stripe still share a read lock, which `RwLock` grants concurrently).
/// The I/O ledger is kept in atomics and stays *exact* under any
/// interleaving; a `Pager` can be shared (`Arc<Pager>`) between a
/// table's heap file and all of its indexes — mirroring one database
/// file holding many objects, with one ledger.
///
/// Page ids are dense (`0, 1, 2, …` in allocation order) regardless of
/// striping; [`Pager::free`] returns pages to their stripe's free list
/// and [`Pager::allocate`] reuses free pages (scanning stripes in index
/// order) before growing the table, so repeated index build/drop cycles
/// keep a bounded footprint.
///
/// # Storage backends
///
/// [`Pager::new`] is the in-memory pager every existing test and
/// experiment uses: all pages stay resident and nothing persists.
/// [`Pager::open_durable`] opens (or recovers) a **file-backed** pager
/// on a [`Vfs`]: the frame table becomes a cache in front of a
/// checksummed data file, mutations are redo-logged by
/// [`Pager::commit`] into a write-ahead log, and [`Pager::checkpoint`]
/// writes dirty pages back and truncates the log. The *logical* I/O
/// ledger is identical across backends; the durable tier keeps its own
/// physical ledger ([`Pager::durable_stats`]).
pub struct Pager {
    shards: [PageShard; PAGER_SHARDS],
    /// Next fresh page id; also the dense page count.
    next: AtomicU32,
    /// Total pages on all free lists (fast-path gate for reuse).
    free_len: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    allocs: AtomicU64,
    /// File-backed state; `None` for the in-memory pager.
    durable: Option<Durable>,
}

impl Default for Pager {
    fn default() -> Self {
        Self::new()
    }
}

impl Pager {
    /// An empty in-memory pager.
    pub fn new() -> Pager {
        Pager::build(None)
    }

    fn build(durable: Option<Durable>) -> Pager {
        Pager {
            shards: std::array::from_fn(|_| PageShard::new()),
            next: AtomicU32::new(0),
            free_len: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            durable,
        }
    }

    /// Open (or recover) a file-backed pager inside `vfs`.
    ///
    /// A blank namespace initializes a fresh database (and immediately
    /// makes an empty checkpoint header durable). Otherwise recovery
    /// runs: the newest valid ping-pong header is adopted, the WAL is
    /// scanned, every committed transaction newer than the header is
    /// replayed into the cache (its pages pinned dirty until the next
    /// checkpoint), and any torn tail past the last valid commit frame
    /// is truncated. Headers, WAL frames, and data pages are all
    /// checksummed, so torn or corrupted state is detected and reported
    /// as [`Error::Corrupt`] — never silently adopted.
    pub fn open_durable(vfs: Arc<dyn Vfs>, opts: DurableOptions) -> Result<DurableOpen> {
        let _span = cdpd_obs::span!("storage.recover");
        let base = recover_base(&*vfs)?;
        let fresh = base.is_none();
        let hdr0 = vfs.open(FILE_HDR[0])?;
        let hdr1 = vfs.open(FILE_HDR[1])?;
        let data = vfs.open(FILE_DATA)?;
        let sums = vfs.open(FILE_SUMS)?;
        let wal_file = vfs.open(FILE_WAL)?;

        let (mut meta, hdr_seq, ckpt_no) = match base {
            Some(h) => (h.meta, h.seq, h.ckpt_no),
            None => (
                CommittedMeta {
                    next: 0,
                    free: vec![Vec::new(); PAGER_SHARDS],
                    app_meta: Vec::new(),
                },
                0,
                0,
            ),
        };

        // Replay the committed WAL suffix on top of the header state.
        // Transactions at or below the header's sequence predate the
        // checkpoint that wrote it (the crash hit between header fsync
        // and WAL truncation) and are skipped: the header's image
        // already holds them, and applying a record twice is wrong.
        let (txns, valid_len) = crate::wal::scan(&*wal_file)?;
        let app_image = std::mem::take(&mut meta.app_meta);
        let mut app_records = Vec::new();
        let mut seq = hdr_seq;
        let mut overlay: std::collections::HashMap<u32, Page> = std::collections::HashMap::new();
        for txn in txns {
            if txn.seq <= hdr_seq {
                continue;
            }
            for (id, page) in txn.pages {
                overlay.insert(id.raw(), page);
            }
            let txn_meta = crate::durable::decode_meta(&txn.meta)?;
            meta.next = txn_meta.next;
            meta.free = txn_meta.free;
            app_records.push(txn_meta.app_meta);
            seq = txn.seq;
        }
        let replayed = app_records.len() as u64;

        if fresh {
            // Make the empty state durable so a later open can always
            // find a valid header once transactions start committing.
            let bytes = encode_header(0, 0, meta.next, &meta.free, &[]);
            hdr0.write_at(0, &bytes)?;
            hdr0.truncate(bytes.len() as u64)?;
            hdr0.sync()?;
        }

        let durable = Durable {
            data,
            sums,
            hdr: [hdr0, hdr1],
            wal: Mutex::new(WalWriter::new(wal_file, valid_len)?),
            opts,
            seq: AtomicU64::new(seq),
            ckpt_no: AtomicU64::new(ckpt_no),
            committed: Mutex::new(Committed {
                next: meta.next,
                free: meta.free.clone(),
            }),
            wal_appends: AtomicU64::new(0),
            wal_commits: AtomicU64::new(0),
            wal_fsyncs: AtomicU64::new(0),
            writeback_pages: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            backend_fetches: AtomicU64::new(0),
        };
        let pager = Pager::build(Some(durable));
        pager.next.store(meta.next, Ordering::Relaxed);
        let mut free_total = 0u64;
        for (s, list) in meta.free.iter().enumerate() {
            free_total += list.len() as u64;
            *pager.shards[s].free.lock().expect("pager lock poisoned") = list.clone();
        }
        pager.free_len.store(free_total, Ordering::Release);

        // Install replayed page images, pinned dirty: they are durable
        // in the WAL but not yet in the data file, so they must survive
        // in cache until the next checkpoint writes them back.
        for (raw, page) in overlay {
            let id = PageId(raw);
            let shard = &pager.shards[shard_of(id)];
            let mut frames = shard.frames.write().expect("pager lock poisoned");
            let slot = slot_of(id);
            if frames.len() <= slot {
                frames.resize_with(slot + 1, Frame::empty);
            }
            let frame = &mut frames[slot];
            frame.page = Some(page);
            frame.dirty_page = true;
            shard.resident.fetch_add(1, Ordering::Relaxed);
        }

        cdpd_obs::counter!("storage.recovery.opens").inc();
        cdpd_obs::counter!("storage.recovery.replayed_txns").add(replayed);
        Ok(DurableOpen {
            app_image,
            app_records,
            committed_seq: seq,
            pager,
        })
    }

    /// Whether this pager has a file backend.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Snapshot of the durable tier's physical ledger (all zeros for an
    /// in-memory pager).
    pub fn durable_stats(&self) -> DurableStats {
        match &self.durable {
            None => DurableStats::default(),
            Some(d) => DurableStats {
                wal_appends: d.wal_appends.load(Ordering::Relaxed),
                wal_commits: d.wal_commits.load(Ordering::Relaxed),
                wal_fsyncs: d.wal_fsyncs.load(Ordering::Relaxed),
                writeback_pages: d.writeback_pages.load(Ordering::Relaxed),
                checkpoints: d.checkpoints.load(Ordering::Relaxed),
                backend_fetches: d.backend_fetches.load(Ordering::Relaxed),
            },
        }
    }

    /// Sequence number of the newest committed transaction (0 for an
    /// in-memory pager or a fresh database).
    pub fn committed_seq(&self) -> u64 {
        self.durable
            .as_ref()
            .map_or(0, |d| d.seq.load(Ordering::Relaxed))
    }

    /// Current WAL length in bytes (0 for an in-memory pager).
    pub fn wal_bytes(&self) -> u64 {
        self.durable
            .as_ref()
            .map_or(0, |d| d.wal.lock().expect("pager lock poisoned").len())
    }

    /// Pages currently resident in the cache (for an in-memory pager,
    /// every allocated page is resident).
    pub fn resident_pages(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.resident.load(Ordering::Relaxed))
            .sum()
    }

    /// Allocate a zeroed page and return its id, reusing a freed page
    /// when one is available (stripes are scanned in index order, each
    /// stripe's list popped LIFO).
    pub fn allocate(&self) -> PageId {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        note_thread_io(0, 0, 1);
        cdpd_obs::tracked_counter!("storage.pager.allocs").inc();
        if self.free_len.load(Ordering::Acquire) > 0 {
            for shard in &self.shards {
                let popped = shard.free.lock().expect("pager lock poisoned").pop();
                if let Some(id) = popped {
                    self.free_len.fetch_sub(1, Ordering::Release);
                    let mut frames = shard.frames.write().expect("pager lock poisoned");
                    let slot = slot_of(id);
                    if frames.len() <= slot {
                        // A recovered free-list page may predate any
                        // frame this process has materialized.
                        frames.resize_with(slot + 1, Frame::empty);
                    }
                    self.install(shard, &mut frames, slot, blank_page());
                    return id;
                }
            }
        }
        let raw = self.next.fetch_add(1, Ordering::Relaxed);
        assert!(raw != u32::MAX, "page count exceeds u32");
        let id = PageId(raw);
        let shard = &self.shards[shard_of(id)];
        let mut frames = shard.frames.write().expect("pager lock poisoned");
        let slot = slot_of(id);
        if frames.len() <= slot {
            frames.resize_with(slot + 1, Frame::empty);
        }
        self.install(shard, &mut frames, slot, blank_page());
        id
    }

    /// Put `page` into a frame, marking it dirty in durable mode and
    /// keeping the stripe's resident count exact.
    fn install(&self, shard: &PageShard, frames: &mut [Frame], slot: usize, page: Page) {
        let frame = &mut frames[slot];
        if frame.page.is_none() {
            shard.resident.fetch_add(1, Ordering::Relaxed);
        }
        frame.page = Some(page);
        if self.durable.is_some() {
            frame.dirty_log = true;
            frame.dirty_page = true;
            frame.stamp.store(
                shard.clock.fetch_add(1, Ordering::Relaxed) + 1,
                Ordering::Relaxed,
            );
        }
    }

    /// Return pages to the allocator (e.g. after `DROP INDEX`). The
    /// caller must guarantee nothing references them any more; the
    /// bytes are zeroed on reuse, not on free.
    pub fn free(&self, ids: &[PageId]) {
        let page_count = self.next.load(Ordering::Relaxed);
        for &id in ids {
            debug_assert!(id.raw() < page_count, "freeing unallocated page {id}");
            let mut free = self.shards[shard_of(id)]
                .free
                .lock()
                .expect("pager lock poisoned");
            debug_assert!(!free.contains(&id), "double free of page {id}");
            free.push(id);
            self.free_len.fetch_add(1, Ordering::Release);
        }
    }

    /// Number of pages currently on the free lists.
    pub fn free_count(&self) -> u64 {
        self.free_len.load(Ordering::Acquire)
    }

    fn out_of_range(id: PageId) -> Error {
        Error::Corrupt(format!("page {id} out of range"))
    }

    /// Read a page (counted as one logical read).
    ///
    /// On a durable pager a cache miss fetches (and checksum-verifies)
    /// the page from the data file, counted in the physical ledger; the
    /// logical cost is one read either way.
    pub fn read(&self, id: PageId) -> Result<Page> {
        let shard = &self.shards[shard_of(id)];
        let cached = {
            let frames = shard.frames.read().expect("pager lock poisoned");
            frames.get(slot_of(id)).and_then(|f| {
                let page = f.page.clone()?;
                if self.durable.is_some() {
                    f.stamp.store(
                        shard.clock.fetch_add(1, Ordering::Relaxed) + 1,
                        Ordering::Relaxed,
                    );
                }
                Some(page)
            })
        };
        let page = match cached {
            Some(page) => {
                if id.raw() >= self.next.load(Ordering::Relaxed) {
                    return Err(Self::out_of_range(id));
                }
                page
            }
            None => {
                if id.raw() >= self.next.load(Ordering::Relaxed) {
                    return Err(Self::out_of_range(id));
                }
                let Some(d) = &self.durable else {
                    return Err(Self::out_of_range(id));
                };
                self.load_miss(d, id)?
            }
        };
        self.reads.fetch_add(1, Ordering::Relaxed);
        note_thread_io(1, 0, 0);
        cdpd_obs::tracked_counter!("storage.pager.reads").inc();
        Ok(page)
    }

    /// Fetch an evicted (or never-resident) page from the file backend
    /// and cache it clean, evicting a clean LRU frame if the stripe is
    /// over budget.
    fn load_miss(&self, d: &Durable, id: PageId) -> Result<Page> {
        let page = d.fetch(id)?;
        d.backend_fetches.fetch_add(1, Ordering::Relaxed);
        cdpd_obs::tracked_counter!("storage.backend.fetches").inc();
        let shard = &self.shards[shard_of(id)];
        let mut frames = shard.frames.write().expect("pager lock poisoned");
        let slot = slot_of(id);
        if frames.len() <= slot {
            frames.resize_with(slot + 1, Frame::empty);
        }
        if let Some(raced) = frames[slot].page.clone() {
            // Another thread cached it while we fetched.
            return Ok(raced);
        }
        Self::evict_over_budget(shard, &mut frames, d.stripe_capacity(), 1);
        let frame = &mut frames[slot];
        frame.page = Some(page.clone());
        frame.stamp.store(
            shard.clock.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        shard.resident.fetch_add(1, Ordering::Relaxed);
        Ok(page)
    }

    /// Drop clean least-recently-stamped frames until the stripe has
    /// room for `reserve` more residents within its budget. Dirty
    /// frames are pinned; if nothing is evictable the stripe
    /// temporarily exceeds its budget.
    fn evict_over_budget(shard: &PageShard, frames: &mut [Frame], capacity: usize, reserve: usize) {
        while shard.resident.load(Ordering::Relaxed) + reserve > capacity.max(1) {
            let victim = frames
                .iter_mut()
                .enumerate()
                .filter(|(_, f)| f.page.is_some() && !f.dirty_page && !f.dirty_log)
                .min_by_key(|(_, f)| f.stamp.load(Ordering::Relaxed))
                .map(|(i, _)| i);
            let Some(i) = victim else { break };
            frames[i].page = None;
            shard.resident.fetch_sub(1, Ordering::Relaxed);
            cdpd_obs::counter!("storage.pager.evictions").inc();
        }
    }

    /// Replace a page's contents (counted as one logical write).
    pub fn write(&self, id: PageId, page: Page) -> Result<()> {
        if id.raw() >= self.next.load(Ordering::Relaxed) {
            return Err(Self::out_of_range(id));
        }
        let shard = &self.shards[shard_of(id)];
        let mut frames = shard.frames.write().expect("pager lock poisoned");
        let slot = slot_of(id);
        if frames.get(slot).is_none() {
            if self.durable.is_some() {
                frames.resize_with(slot + 1, Frame::empty);
            } else {
                return Err(Self::out_of_range(id));
            }
        }
        self.install(shard, &mut frames, slot, page);
        self.writes.fetch_add(1, Ordering::Relaxed);
        note_thread_io(0, 1, 0);
        cdpd_obs::tracked_counter!("storage.pager.writes").inc();
        Ok(())
    }

    /// Read-modify-write a page in place (one read + one write).
    ///
    /// Copy-on-write: if the page is shared with readers the buffer is
    /// cloned before mutation, so outstanding [`Page`] handles never see
    /// torn updates.
    pub fn update<R>(&self, id: PageId, f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R) -> Result<R> {
        if id.raw() >= self.next.load(Ordering::Relaxed) {
            return Err(Self::out_of_range(id));
        }
        let shard = &self.shards[shard_of(id)];
        let mut frames = shard.frames.write().expect("pager lock poisoned");
        let slot = slot_of(id);
        if frames.get(slot).is_none() {
            if self.durable.is_some() {
                frames.resize_with(slot + 1, Frame::empty);
            } else {
                return Err(Self::out_of_range(id));
            }
        }
        if frames[slot].page.is_none() {
            // Evicted: refetch before mutating. The frame write lock is
            // held across the fetch, which is fine for the single-writer
            // workloads that mutate through `update`.
            let Some(d) = &self.durable else {
                return Err(Self::out_of_range(id));
            };
            let page = d.fetch(id)?;
            d.backend_fetches.fetch_add(1, Ordering::Relaxed);
            cdpd_obs::tracked_counter!("storage.backend.fetches").inc();
            let frame = &mut frames[slot];
            frame.page = Some(page);
            shard.resident.fetch_add(1, Ordering::Relaxed);
        }
        let frame = &mut frames[slot];
        let buf = Arc::make_mut(frame.page.as_mut().expect("frame resident"));
        let r = f(buf);
        if self.durable.is_some() {
            frame.dirty_log = true;
            frame.dirty_page = true;
            frame.stamp.store(
                shard.clock.fetch_add(1, Ordering::Relaxed) + 1,
                Ordering::Relaxed,
            );
        }
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.writes.fetch_add(1, Ordering::Relaxed);
        note_thread_io(1, 1, 0);
        cdpd_obs::tracked_counter!("storage.pager.reads").inc();
        cdpd_obs::tracked_counter!("storage.pager.writes").inc();
        Ok(r)
    }

    /// Commit every mutation since the last commit: append the dirty
    /// page images plus a commit frame carrying the allocation state
    /// and `record` to the WAL, fsyncing per the group-commit policy.
    /// `record` is the application's record of the transaction — a
    /// full image of its state, or a delta on the previous commit;
    /// recovery hands every record past the checkpoint header back in
    /// order ([`DurableOpen::app_records`]). When this commit crosses
    /// the auto-checkpoint threshold the pager calls `image` for the
    /// full application state as of this commit and headers it, so the
    /// caller must still hold whatever keeps that state from moving (a
    /// caller whose record is a full image passes `|| record.to_vec()`).
    /// Returns the commit's sequence number. No-op (returning 0) on an
    /// in-memory pager.
    ///
    /// Commits are serialized internally (racing callers queue on the
    /// committed-state mutex), and readers may run concurrently — but a
    /// commit snapshots *every* page dirtied since the last commit, so
    /// the caller must ensure no mutation is mid-flight when it commits
    /// (the engine holds its commit-phase lock exclusively here, and
    /// shared during statement mutation, for exactly this reason).
    ///
    /// # Errors
    /// An I/O error may come after the commit frame reached the log (a
    /// failed fsync, or a failed auto-checkpoint): the commit may then
    /// survive a crash, so a caller logging deltas must not log this
    /// one's change again. When the WAL append fails, the pages stay
    /// dirty and the next commit logs them again.
    pub fn commit(&self, record: &[u8], image: impl FnOnce() -> Vec<u8>) -> Result<u64> {
        let Some(d) = &self.durable else {
            return Ok(0);
        };
        let mut committed = d.committed.lock().expect("pager lock poisoned");
        let _span = cdpd_obs::span!("storage.commit");
        let mut dirty: Vec<(PageId, Page)> = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            let mut frames = shard.frames.write().expect("pager lock poisoned");
            for (slot, frame) in frames.iter_mut().enumerate() {
                if frame.dirty_log {
                    let page = frame.page.clone().expect("dirty frame is pinned resident");
                    dirty.push((id_of(s, slot), page));
                    frame.dirty_log = false;
                }
            }
        }
        dirty.sort_by_key(|(id, _)| id.raw());

        let next = self.next.load(Ordering::Relaxed);
        let free: Vec<Vec<PageId>> = self
            .shards
            .iter()
            .map(|s| s.free.lock().expect("pager lock poisoned").clone())
            .collect();
        let encoded = encode_meta(next, &free, record);
        let seq = d.seq.load(Ordering::Relaxed) + 1;
        let wal_len = match Self::append_txn(d, &dirty, seq, &encoded) {
            Ok(len) => len,
            Err(e) => {
                // Some of these page frames may not have reached the
                // log: keep them dirty so the next commit logs them.
                for (id, _) in &dirty {
                    let mut frames = self.shards[shard_of(*id)]
                        .frames
                        .write()
                        .expect("pager lock poisoned");
                    frames[slot_of(*id)].dirty_log = true;
                }
                return Err(e);
            }
        };
        d.seq.store(seq, Ordering::Relaxed);
        committed.next = next;
        committed.free = free;

        if d.opts.checkpoint_wal_bytes > 0 && wal_len > d.opts.checkpoint_wal_bytes {
            // Best effort: pages an online index build wrote since the
            // commit above are not in the log yet, so writing them back
            // would break the write-ahead rule — leave the checkpoint to
            // a later commit rather than fail this one, which is durable.
            if !self.has_uncommitted() {
                self.checkpoint_locked(d, &committed, &image())?;
            }
        }
        Ok(seq)
    }

    /// Append one transaction — `dirty`'s page frames and a commit
    /// frame carrying `meta` — to the WAL, returning the log's length.
    fn append_txn(d: &Durable, dirty: &[(PageId, Page)], seq: u64, meta: &[u8]) -> Result<u64> {
        let mut wal = d.wal.lock().expect("pager lock poisoned");
        for (id, page) in dirty {
            wal.append_page(*id, page)?;
            d.wal_appends.fetch_add(1, Ordering::Relaxed);
            cdpd_obs::tracked_counter!("storage.wal.appends").inc();
        }
        let synced = wal.append_commit(seq, meta, d.opts.group_commit)?;
        d.wal_commits.fetch_add(1, Ordering::Relaxed);
        cdpd_obs::tracked_counter!("storage.wal.commits").inc();
        if synced {
            d.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
            cdpd_obs::tracked_counter!("storage.wal.fsyncs").inc();
        }
        Ok(wal.len())
    }

    /// Whether any page was mutated since the last commit.
    fn has_uncommitted(&self) -> bool {
        self.shards.iter().any(|shard| {
            let frames = shard.frames.read().expect("pager lock poisoned");
            frames.iter().any(|f| f.dirty_log)
        })
    }

    /// Flush every dirty page to the checksummed data file, make the
    /// committed state durable in a ping-pong header holding `image`,
    /// and truncate the WAL. `image` must be the full application state
    /// as of the newest commit (the caller holds whatever keeps commits
    /// from landing between building it and this call): recovery
    /// applies only the records committed after the header to it. No-op
    /// on an in-memory pager.
    ///
    /// # Errors
    /// [`Error::InvalidArgument`] if uncommitted mutations exist —
    /// writing them back would bypass the write-ahead rule; call
    /// [`Pager::commit`] first.
    pub fn checkpoint(&self, image: &[u8]) -> Result<()> {
        let Some(d) = &self.durable else {
            return Ok(());
        };
        let committed = d.committed.lock().expect("pager lock poisoned");
        if self.has_uncommitted() {
            return Err(Error::InvalidArgument(
                "checkpoint with uncommitted pages — commit first".into(),
            ));
        }
        self.checkpoint_locked(d, &committed, image)
    }

    /// The checkpoint proper, with the committed-state lock held (so no
    /// commit lands between the header's sequence number and its
    /// contents) and the log known to cover every dirty page.
    fn checkpoint_locked(&self, d: &Durable, committed: &Committed, image: &[u8]) -> Result<()> {
        let _span = cdpd_obs::span!("storage.checkpoint");
        let started = std::time::Instant::now();

        // The write-ahead rule requires every page we are about to
        // write back to be durable in the log first: sync any
        // group-commit debt.
        {
            let mut wal = d.wal.lock().expect("pager lock poisoned");
            wal.sync()?;
            d.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
            cdpd_obs::tracked_counter!("storage.wal.fsyncs").inc();
        }

        let mut written = 0u64;
        for (s, shard) in self.shards.iter().enumerate() {
            let mut frames = shard.frames.write().expect("pager lock poisoned");
            for (slot, frame) in frames.iter_mut().enumerate() {
                if frame.dirty_page {
                    let page = frame.page.as_ref().expect("dirty frame is pinned resident");
                    d.write_back(id_of(s, slot), page)?;
                    frame.dirty_page = false;
                    written += 1;
                }
            }
            Self::evict_over_budget(shard, &mut frames, d.stripe_capacity(), 0);
        }
        d.data.sync()?;
        d.sums.sync()?;

        let ckpt_no = d.ckpt_no.load(Ordering::Relaxed) + 1;
        let seq = d.seq.load(Ordering::Relaxed);
        let bytes = encode_header(ckpt_no, seq, committed.next, &committed.free, image);
        let slot = (ckpt_no % 2) as usize;
        d.hdr[slot].write_at(0, &bytes)?;
        d.hdr[slot].truncate(bytes.len() as u64)?;
        d.hdr[slot].sync()?;
        d.ckpt_no.store(ckpt_no, Ordering::Relaxed);

        d.wal.lock().expect("pager lock poisoned").reset()?;

        d.writeback_pages.fetch_add(written, Ordering::Relaxed);
        cdpd_obs::tracked_counter!("storage.writeback.pages").add(written);
        d.checkpoints.fetch_add(1, Ordering::Relaxed);
        cdpd_obs::tracked_counter!("storage.checkpoint.completed").inc();
        cdpd_obs::histogram!("storage.checkpoint.nanos")
            .record(started.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Number of allocated pages (live + free-listed; ids are dense).
    pub fn page_count(&self) -> u64 {
        self.next.load(Ordering::Relaxed) as u64
    }

    /// Snapshot of the I/O counters.
    pub fn stats(&self) -> IoStats {
        IoStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    #[test]
    fn allocate_read_write_roundtrip() {
        let pager = Pager::new();
        let id = pager.allocate();
        let mut buf = [0u8; PAGE_SIZE];
        buf[0] = 0xAB;
        pager.write(id, Arc::new(buf)).unwrap();
        let page = pager.read(id).unwrap();
        assert_eq!(page[0], 0xAB);
    }

    #[test]
    fn counters_track_each_access() {
        let pager = Pager::new();
        let id = pager.allocate();
        let before = pager.stats();
        pager.read(id).unwrap();
        pager.read(id).unwrap();
        pager.update(id, |b| b[1] = 7).unwrap();
        let d = pager.stats().delta(before);
        assert_eq!(
            d,
            IoStats {
                reads: 3,
                writes: 1,
                allocs: 0
            }
        );
        assert_eq!(d.total(), 4);
    }

    #[test]
    fn thread_scope_tracks_this_thread_only() {
        let pager = Arc::new(Pager::new());
        let id = pager.allocate();
        let scope = ThreadIoScope::start();
        pager.read(id).unwrap();
        pager.update(id, |b| b[0] = 1).unwrap();
        // A sibling thread's I/O must not leak into this scope.
        let sibling = pager.clone();
        std::thread::spawn(move || {
            for _ in 0..100 {
                sibling.read(id).unwrap();
            }
        })
        .join()
        .unwrap();
        assert_eq!(
            scope.delta(),
            IoStats {
                reads: 2,
                writes: 1,
                allocs: 0
            }
        );
    }

    #[test]
    fn update_is_copy_on_write() {
        let pager = Pager::new();
        let id = pager.allocate();
        let held = pager.read(id).unwrap();
        pager.update(id, |b| b[0] = 9).unwrap();
        assert_eq!(held[0], 0, "outstanding handle must not see the update");
        assert_eq!(pager.read(id).unwrap()[0], 9);
    }

    #[test]
    fn out_of_range_is_corruption_error() {
        let pager = Pager::new();
        assert!(pager.read(PageId(3)).is_err());
        assert!(pager.write(PageId(0), blank_page()).is_err());
        assert!(pager.update(PageId(1), |_| ()).is_err());
    }

    #[test]
    fn page_ids_are_dense() {
        let pager = Pager::new();
        assert_eq!(pager.allocate(), PageId(0));
        assert_eq!(pager.allocate(), PageId(1));
        assert_eq!(pager.page_count(), 2);
    }

    #[test]
    fn freed_pages_are_reused_zeroed() {
        let pager = Pager::new();
        let a = pager.allocate();
        let b = pager.allocate();
        pager.update(a, |buf| buf[0] = 0xEE).unwrap();
        pager.free(&[a]);
        assert_eq!(pager.free_count(), 1);
        let c = pager.allocate();
        assert_eq!(c, a, "free list is reused first");
        assert_eq!(pager.read(c).unwrap()[0], 0, "reused page is zeroed");
        assert_eq!(pager.free_count(), 0);
        assert_eq!(pager.page_count(), 2);
        let _ = b;
    }

    #[test]
    fn cross_stripe_frees_all_reused_before_growth() {
        let pager = Pager::new();
        // Allocate enough pages to populate several stripes.
        let ids: Vec<PageId> = (0..PAGER_SHARDS as u32 * 3)
            .map(|_| pager.allocate())
            .collect();
        let grown = pager.page_count();
        // Free a scattering of pages across stripes, then re-allocate
        // exactly that many: every one must come from a free list.
        let victims: Vec<PageId> = ids.iter().copied().step_by(5).collect();
        pager.free(&victims);
        assert_eq!(pager.free_count(), victims.len() as u64);
        for _ in &victims {
            pager.allocate();
        }
        assert_eq!(pager.free_count(), 0);
        assert_eq!(pager.page_count(), grown, "no growth while pages are free");
    }

    #[test]
    fn concurrent_reads_and_allocs_keep_exact_ledger() {
        let pager = Arc::new(Pager::new());
        let seed: Vec<PageId> = (0..64).map(|_| pager.allocate()).collect();
        let before = pager.stats();
        const THREADS: u64 = 8;
        const READS: u64 = 500;
        const ALLOCS: u64 = 50;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let pager = &pager;
                let seed = &seed;
                s.spawn(move || {
                    let scope = ThreadIoScope::start();
                    for i in 0..READS {
                        pager.read(seed[((t * 31 + i) % 64) as usize]).unwrap();
                    }
                    for _ in 0..ALLOCS {
                        pager.allocate();
                    }
                    let d = scope.delta();
                    assert_eq!(d.reads, READS);
                    assert_eq!(d.allocs, ALLOCS);
                });
            }
        });
        let d = pager.stats().delta(before);
        assert_eq!(d.reads, THREADS * READS, "no read lost or double-counted");
        assert_eq!(d.allocs, THREADS * ALLOCS);
        assert_eq!(pager.page_count(), 64 + THREADS * ALLOCS);
    }

    // ------------------------------------------------------------------
    // Durable tier

    fn open(vfs: &MemVfs, opts: DurableOptions) -> DurableOpen {
        Pager::open_durable(Arc::new(vfs.clone()), opts).unwrap()
    }

    #[test]
    fn durable_commit_survives_reopen() {
        let vfs = MemVfs::new();
        let opened = open(&vfs, DurableOptions::default());
        let pager = opened.pager;
        let a = pager.allocate();
        let b = pager.allocate();
        pager.update(a, |p| p[0] = 0x11).unwrap();
        pager.update(b, |p| p[0] = 0x22).unwrap();
        let seq = pager
            .commit(b"app state", || b"app state".to_vec())
            .unwrap();
        assert_eq!(seq, 1);
        drop(pager); // "crash" — nothing checkpointed, only the WAL holds state

        let reopened = open(&vfs, DurableOptions::default());
        assert_eq!(reopened.committed_seq, 1);
        assert_eq!(reopened.app_records, vec![b"app state".to_vec()]);
        assert_eq!(reopened.pager.page_count(), 2);
        assert_eq!(reopened.pager.read(a).unwrap()[0], 0x11);
        assert_eq!(reopened.pager.read(b).unwrap()[0], 0x22);
    }

    #[test]
    fn uncommitted_mutations_do_not_survive() {
        let vfs = MemVfs::new();
        let pager = open(&vfs, DurableOptions::default()).pager;
        let a = pager.allocate();
        pager.update(a, |p| p[0] = 1).unwrap();
        pager.commit(b"v1", || b"v1".to_vec()).unwrap();
        pager.update(a, |p| p[0] = 2).unwrap(); // never committed
        drop(pager);

        let reopened = open(&vfs, DurableOptions::default());
        assert_eq!(reopened.app_records, vec![b"v1".to_vec()]);
        assert_eq!(
            reopened.pager.read(a).unwrap()[0],
            1,
            "uncommitted write must roll back"
        );
    }

    #[test]
    fn checkpoint_truncates_wal_and_survives() {
        let vfs = MemVfs::new();
        let pager = open(&vfs, DurableOptions::default()).pager;
        let ids: Vec<PageId> = (0..40).map(|_| pager.allocate()).collect();
        for (i, &id) in ids.iter().enumerate() {
            pager.update(id, |p| p[0] = i as u8).unwrap();
        }
        pager.commit(b"loaded", || b"loaded".to_vec()).unwrap();
        assert!(pager.wal_bytes() > 0);
        pager.checkpoint(b"loaded").unwrap();
        assert_eq!(pager.wal_bytes(), 0, "checkpoint truncates the log");
        let stats = pager.durable_stats();
        assert_eq!(stats.checkpoints, 1);
        assert_eq!(stats.writeback_pages, 40);
        drop(pager);

        let reopened = open(&vfs, DurableOptions::default()).pager;
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(reopened.pager_read_byte(id), i as u8);
        }
        assert_eq!(reopened.page_count(), 40);
    }

    impl Pager {
        fn pager_read_byte(&self, id: PageId) -> u8 {
            self.read(id).unwrap()[0]
        }
    }

    #[test]
    fn checkpoint_requires_commit_first() {
        let vfs = MemVfs::new();
        let pager = open(&vfs, DurableOptions::default()).pager;
        let a = pager.allocate();
        pager.update(a, |p| p[0] = 1).unwrap();
        let err = pager.checkpoint(b"").unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)), "{err}");
        pager.commit(b"", || b"".to_vec()).unwrap();
        pager.checkpoint(b"").unwrap();
    }

    #[test]
    fn free_lists_survive_reopen() {
        let vfs = MemVfs::new();
        let pager = open(&vfs, DurableOptions::default()).pager;
        let ids: Vec<PageId> = (0..10).map(|_| pager.allocate()).collect();
        pager.free(&ids[2..5]);
        pager.commit(b"", || b"".to_vec()).unwrap();
        drop(pager);

        let pager = open(&vfs, DurableOptions::default()).pager;
        assert_eq!(pager.free_count(), 3);
        assert_eq!(pager.page_count(), 10);
        // Reuse drains the recovered free lists before growing.
        for _ in 0..3 {
            let id = pager.allocate();
            assert!(id.raw() < 10);
        }
        assert_eq!(pager.page_count(), 10);
    }

    #[test]
    fn cache_evicts_clean_pages_and_refetches() {
        let vfs = MemVfs::new();
        let opts = DurableOptions {
            cache_pages: PAGER_SHARDS, // one resident page per stripe
            ..DurableOptions::default()
        };
        let pager = open(&vfs, opts.clone()).pager;
        let n = 4 * PAGER_SHARDS as u32;
        let ids: Vec<PageId> = (0..n).map(|_| pager.allocate()).collect();
        for &id in &ids {
            pager.update(id, |p| p[0] = id.raw() as u8).unwrap();
        }
        pager.commit(b"", || b"".to_vec()).unwrap();
        pager.checkpoint(b"").unwrap(); // pages become clean ⇒ evictable
        assert!(
            pager.resident_pages() <= PAGER_SHARDS,
            "checkpoint enforces the budget ({} resident)",
            pager.resident_pages()
        );
        let logical_before = pager.stats();
        let physical_before = pager.durable_stats();
        for &id in &ids {
            assert_eq!(pager.read(id).unwrap()[0], id.raw() as u8);
        }
        let logical = pager.stats().delta(logical_before);
        let physical = pager.durable_stats().delta(physical_before);
        assert_eq!(logical.reads, n as u64, "logical ledger unchanged by cache");
        assert!(
            physical.backend_fetches > 0,
            "a 1-page-per-stripe cache must miss"
        );
        assert!(pager.resident_pages() <= 2 * PAGER_SHARDS);
    }

    #[test]
    fn auto_checkpoint_bounds_wal_growth() {
        let vfs = MemVfs::new();
        let opts = DurableOptions {
            checkpoint_wal_bytes: 64 * 1024,
            ..DurableOptions::default()
        };
        let pager = open(&vfs, opts).pager;
        let id = pager.allocate();
        for i in 0..40u8 {
            pager.update(id, |p| p[0] = i).unwrap();
            pager.commit(b"", || b"".to_vec()).unwrap();
        }
        assert!(
            pager.durable_stats().checkpoints > 0,
            "WAL growth must trigger checkpoints"
        );
        assert!(pager.wal_bytes() <= 64 * 1024 + 9000);
    }

    #[test]
    fn corrupt_data_page_is_detected_not_ub() {
        let vfs = MemVfs::new();
        let pager = open(&vfs, DurableOptions::default()).pager;
        let id = pager.allocate();
        pager.update(id, |p| p[0] = 7).unwrap();
        pager.commit(b"", || b"".to_vec()).unwrap();
        pager.checkpoint(b"").unwrap();
        drop(pager);

        let mut data = vfs.snapshot(FILE_DATA).unwrap();
        data[100] ^= 0xFF;
        vfs.overwrite(FILE_DATA, data);

        // Recovery itself succeeds (pages load lazily); the read of the
        // corrupted page fails with a clean checksum error.
        let pager = open(&vfs, DurableOptions::default()).pager;
        let err = pager.read(id).unwrap_err();
        assert!(
            err.to_string().contains("checksum"),
            "expected checksum error, got {err}"
        );
    }

    #[test]
    fn corrupt_headers_fail_closed() {
        let vfs = MemVfs::new();
        let pager = open(&vfs, DurableOptions::default()).pager;
        let id = pager.allocate();
        pager.update(id, |p| p[0] = 1).unwrap();
        pager.commit(b"", || b"".to_vec()).unwrap();
        pager.checkpoint(b"").unwrap();
        drop(pager);

        for name in FILE_HDR {
            if let Some(mut bytes) = vfs.snapshot(name) {
                if !bytes.is_empty() {
                    bytes[0] ^= 0xFF;
                    vfs.overwrite(name, bytes);
                }
            }
        }
        let err = match Pager::open_durable(Arc::new(vfs), DurableOptions::default()) {
            Err(e) => e,
            Ok(_) => panic!("open must fail closed on corrupt headers"),
        };
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
    }

    #[test]
    fn stale_wal_transactions_are_skipped_after_checkpoint() {
        // Simulate a crash between header fsync and WAL truncation: the
        // WAL still holds transactions the header already covers.
        let vfs = MemVfs::new();
        let pager = open(&vfs, DurableOptions::default()).pager;
        let id = pager.allocate();
        pager.update(id, |p| p[0] = 5).unwrap();
        pager.commit(b"v1", || b"v1".to_vec()).unwrap();
        let wal_before_ckpt = vfs.snapshot(FILE_WAL).unwrap();
        pager.checkpoint(b"v1").unwrap();
        drop(pager);
        // Put the pre-checkpoint WAL back (as if truncation never hit disk).
        vfs.overwrite(FILE_WAL, wal_before_ckpt);

        let reopened = open(&vfs, DurableOptions::default());
        assert_eq!(reopened.committed_seq, 1, "stale txn must not double-apply");
        assert_eq!(reopened.app_image, b"v1");
        assert!(reopened.app_records.is_empty());
        assert_eq!(reopened.pager.read(id).unwrap()[0], 5);
        // And committing again continues the sequence.
        assert_eq!(reopened.pager.commit(b"v2", || b"v2".to_vec()).unwrap(), 2);
    }

    #[test]
    fn records_replay_in_order_over_the_header_image() {
        let vfs = MemVfs::new();
        let pager = open(&vfs, DurableOptions::default()).pager;
        let id = pager.allocate();
        pager.update(id, |p| p[0] = 1).unwrap();
        pager.commit(b"image-1", || b"image-1".to_vec()).unwrap();
        pager.checkpoint(b"image-1").unwrap();
        pager.update(id, |p| p[0] = 2).unwrap();
        let no_image = || -> Vec<u8> { panic!("no auto-checkpoint is due") };
        pager.commit(b"delta-2", no_image).unwrap();
        pager.commit(b"delta-3", no_image).unwrap();
        drop(pager);

        let reopened = open(&vfs, DurableOptions::default());
        assert_eq!(reopened.committed_seq, 3);
        assert_eq!(reopened.app_image, b"image-1");
        assert_eq!(
            reopened.app_records,
            vec![b"delta-2".to_vec(), b"delta-3".to_vec()]
        );
        assert_eq!(reopened.pager.read(id).unwrap()[0], 2);
        reopened.pager.checkpoint(b"image-3").unwrap();
        drop(reopened);

        let again = open(&vfs, DurableOptions::default());
        assert_eq!(again.committed_seq, 3);
        assert_eq!(again.app_image, b"image-3");
        assert!(again.app_records.is_empty(), "the header covers seq 3");
        assert_eq!(again.pager.read(id).unwrap()[0], 2);
    }

    #[test]
    fn auto_checkpoint_headers_the_callers_image() {
        let vfs = MemVfs::new();
        let opts = DurableOptions {
            checkpoint_wal_bytes: 1, // every commit checkpoints
            ..DurableOptions::default()
        };
        let pager = open(&vfs, opts.clone()).pager;
        let id = pager.allocate();
        pager.update(id, |p| p[0] = 1).unwrap();
        pager.commit(b"image-1", || b"image-1".to_vec()).unwrap();
        pager.update(id, |p| p[0] = 2).unwrap();
        pager.commit(b"delta-2", || b"image-2".to_vec()).unwrap();
        assert_eq!(pager.durable_stats().checkpoints, 2);
        assert_eq!(pager.wal_bytes(), 0);
        drop(pager);

        let reopened = open(&vfs, opts);
        assert_eq!(reopened.committed_seq, 2);
        assert_eq!(reopened.app_image, b"image-2");
        assert!(reopened.app_records.is_empty());
        assert_eq!(reopened.pager.read(id).unwrap()[0], 2);
    }

    #[test]
    fn in_memory_pager_reports_no_durable_state() {
        let pager = Pager::new();
        assert!(!pager.is_durable());
        assert_eq!(pager.commit(b"ignored", || b"ignored".to_vec()).unwrap(), 0);
        pager.checkpoint(b"").unwrap();
        assert_eq!(pager.durable_stats(), DurableStats::default());
        assert_eq!(pager.wal_bytes(), 0);
        assert_eq!(pager.committed_seq(), 0);
    }
}
