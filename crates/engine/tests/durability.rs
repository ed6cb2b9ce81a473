//! Durable `Database` round-trips: open → mutate → reopen must restore
//! the catalog, data, indexes, and statistics exactly.
//!
//! The kill-at-any-point crash suite lives in the facade crate
//! (`tests/recovery_prop.rs`); these tests pin the clean-shutdown
//! contract the crash suite builds on.

use cdpd_engine::{Database, IndexSpec};
use cdpd_storage::{DurableOptions, MemVfs, Vfs, VfsFile};
use cdpd_types::{ColumnDef, Schema, Value};
use std::sync::atomic::{AtomicU32, Ordering::SeqCst};
use std::sync::Arc;

fn iv(i: i64) -> Value {
    Value::Int(i)
}

fn open_mem(vfs: &MemVfs) -> Database {
    Database::open_with_vfs(Arc::new(vfs.clone()), DurableOptions::default()).unwrap()
}

fn abcd_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::int("a"),
        ColumnDef::int("b"),
        ColumnDef::int("c"),
        ColumnDef::text("d"),
    ])
}

fn load(db: &mut Database, rows: i64) {
    db.create_table("t", abcd_schema()).unwrap();
    let rows: Vec<Vec<Value>> = (0..rows)
        .map(|i| vec![iv(i), iv(i % 10), iv(i % 97), Value::Str(format!("row{i}"))])
        .collect();
    db.insert_many("t", rows.iter().map(Vec::as_slice)).unwrap();
    db.analyze("t").unwrap();
}

/// Observable logical state: every row of `t` in scan order, plus the
/// plan and count for a representative query.
fn digest(db: &Database) -> (Vec<Vec<Value>>, String, u64) {
    let q = cdpd_sql::parse("SELECT * FROM t WHERE b = 3").unwrap();
    let cdpd_sql::Statement::Select(sel) = q else {
        panic!("not a select")
    };
    let r = db.query(&sel).unwrap();
    let all = cdpd_sql::parse("SELECT * FROM t").unwrap();
    let cdpd_sql::Statement::Select(all) = all else {
        panic!("not a select")
    };
    let rows = db.query(&all).unwrap().rows.unwrap();
    (rows, r.plan, r.count)
}

#[test]
fn reopen_restores_rows_indexes_and_stats() {
    let vfs = MemVfs::new();
    let before = {
        let mut db = open_mem(&vfs);
        load(&mut db, 500);
        db.create_index(&IndexSpec::new("t", &["b"])).unwrap();
        db.execute_sql("UPDATE t SET c = 5 WHERE a < 50").unwrap();
        db.execute_sql("DELETE FROM t WHERE a = 499").unwrap();
        digest(&db)
    };
    let db = open_mem(&vfs);
    assert!(db.is_durable());
    assert_eq!(digest(&db), before);
    assert!(db.has_index(&IndexSpec::new("t", &["b"])));
    // Statistics survived field-exactly: same rows/pages and the same
    // folded (unrefreshed) snapshot the planner saw before shutdown.
    let stats = db.stats("t").unwrap().unwrap();
    assert_eq!(stats.row_count, 500);
}

#[test]
fn reopen_resumes_table_id_allocation_and_ddl() {
    let vfs = MemVfs::new();
    {
        let mut db = open_mem(&vfs);
        load(&mut db, 50);
        db.create_table("u", abcd_schema()).unwrap();
    }
    let db = open_mem(&vfs);
    // New DDL keeps working against the recovered pager and catalog.
    db.create_table("v", abcd_schema()).unwrap();
    db.insert("v", &[iv(1), iv(2), iv(3), Value::Str("x".into())])
        .unwrap();
    db.create_index(&IndexSpec::new("t", &["c"])).unwrap();
    db.execute_sql("DELETE FROM t WHERE b = 7").unwrap();
    let db2 = open_mem(&vfs);
    assert_eq!(digest(&db2), digest(&db));
}

#[test]
fn stale_stats_snapshot_survives_reopen() {
    // DML folded into the maintainer but NOT refreshed: the planner
    // must see the stale snapshot after reopen, and a refresh must
    // then report exactly the pending changes.
    let vfs = MemVfs::new();
    {
        let mut db = open_mem(&vfs);
        load(&mut db, 200);
        db.execute_sql("UPDATE t SET b = 11 WHERE a < 20").unwrap();
    }
    let mut control = Database::new();
    load(&mut control, 200);
    control
        .execute_sql("UPDATE t SET b = 11 WHERE a < 20")
        .unwrap();

    let db = open_mem(&vfs);
    let stats = db.stats("t").unwrap().unwrap();
    let cstats = control.stats("t").unwrap().unwrap();
    assert_eq!(stats.row_count, cstats.row_count);
    assert_eq!(stats.columns[1].distinct, cstats.columns[1].distinct);
    let r = db.refresh_stats("t").unwrap();
    let c = control.refresh_stats("t").unwrap();
    assert_eq!(r, c, "pending dirty flags survive recovery");
    assert_eq!(
        db.stats("t").unwrap().unwrap().columns[1].distinct,
        control.stats("t").unwrap().unwrap().columns[1].distinct
    );
}

#[test]
fn app_state_round_trips() {
    let vfs = MemVfs::new();
    {
        let db = open_mem(&vfs);
        db.set_app_state(b"advisor state v1".to_vec()).unwrap();
    }
    let db = open_mem(&vfs);
    assert_eq!(db.app_state(), b"advisor state v1");
    // In-memory databases accept but do not persist app state.
    let mem = Database::new();
    assert!(!mem.is_durable());
    mem.set_app_state(b"x".to_vec()).unwrap();
    assert_eq!(mem.app_state(), b"x");
}

#[test]
fn checkpoint_then_reopen_matches_wal_replay() {
    let vfs = MemVfs::new();
    let before = {
        let mut db = open_mem(&vfs);
        load(&mut db, 300);
        db.create_index(&IndexSpec::new("t", &["b", "c"])).unwrap();
        db.checkpoint().unwrap();
        // More work after the checkpoint: recovered partly from the
        // data file, partly from WAL replay.
        db.execute_sql("UPDATE t SET d = 'post' WHERE b = 1")
            .unwrap();
        digest(&db)
    };
    let db = open_mem(&vfs);
    assert_eq!(digest(&db), before);
}

#[test]
fn bounded_cache_database_round_trips() {
    let vfs = MemVfs::new();
    let opts = DurableOptions {
        cache_pages: 32,
        ..DurableOptions::default()
    };
    let before = {
        let mut db = Database::open_with_vfs(Arc::new(vfs.clone()), opts.clone()).unwrap();
        load(&mut db, 800);
        db.create_index(&IndexSpec::new("t", &["a"])).unwrap();
        db.checkpoint().unwrap();
        db.execute_sql("DELETE FROM t WHERE c = 13").unwrap();
        digest(&db)
    };
    let db = Database::open_with_vfs(Arc::new(vfs.clone()), opts).unwrap();
    assert_eq!(digest(&db), before);
}

/// Complements the `execute_script` statement-index tests in `db.rs`
/// (which already pin the parse- and execution-error tags): commit
/// granularity is per statement, so when a script dies at statement N,
/// exactly statements `0..N` survive a restart — the tagged index
/// tells the operator precisely where a replayed script must resume.
#[test]
fn failed_script_keeps_its_committed_prefix_across_restart() {
    let vfs = MemVfs::new();
    {
        let db = open_mem(&vfs);
        db.execute_script("CREATE TABLE s (x INT, y INT); INSERT INTO s VALUES (1, 10);")
            .unwrap();
        db.analyze("s").unwrap();
        let err = db
            .execute_script(
                "INSERT INTO s VALUES (2, 20); INSERT INTO s VALUES (3); \
                 INSERT INTO s VALUES (4, 40);",
            )
            .unwrap_err();
        assert!(
            matches!(&err, cdpd_types::Error::TypeMismatch(m) if m.starts_with("statement 1:")),
            "{err}"
        );
    }
    let db = open_mem(&vfs);
    let rows = db.execute_sql("SELECT x FROM s WHERE x >= 0").unwrap();
    // Statement 0 of the failed script committed; statement 1 failed
    // before touching anything; statement 2 never ran.
    assert_eq!(rows.count, 2);
    assert_eq!(
        db.execute_sql("SELECT MAX(x) FROM s").unwrap().aggregate,
        Some(Value::Int(2))
    );
}

#[test]
fn disk_backed_database_round_trips() {
    let dir = std::env::temp_dir().join(format!(
        "cdpd-durability-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let before = {
        let mut db = Database::open(&dir).unwrap();
        load(&mut db, 120);
        db.create_index(&IndexSpec::new("t", &["b"])).unwrap();
        digest(&db)
    };
    let db = Database::open(&dir).unwrap();
    let after = digest(&db);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(after, before);
}

/// A byte-for-byte copy of every file in `vfs`: what a crash right now
/// would leave behind, reopenable while the live database runs on.
fn frozen_copy(vfs: &MemVfs) -> MemVfs {
    let frozen = MemVfs::new();
    for name in ["data", "sums", "wal", "hdr.0", "hdr.1"] {
        if let Some(bytes) = vfs.snapshot(name) {
            frozen.overwrite(name, bytes);
        }
    }
    frozen
}

/// Rows, the statistics snapshot, and the statistics a refresh then
/// rebuilds from the maintainer — so a lost distinct value, sample
/// entry, or sampling-clock tick shows up even while the snapshot
/// still hides it.
fn stats_digest(db: &Database) -> (Vec<Vec<Value>>, String, String) {
    let rows = digest(db).0;
    let stats = format!("{:?}", db.stats("t").unwrap());
    db.refresh_stats("t").unwrap();
    let refreshed = format!("{:?}", db.stats("t").unwrap());
    (rows, stats, refreshed)
}

/// A single-row `UPDATE` on a large analyzed table commits a delta
/// catalog record, so its WAL cost follows the change, not the table:
/// re-logging every column's distinct set and sample (the full image)
/// costs ~1.2 MB per commit at this size.
#[test]
fn single_row_updates_log_delta_records_and_replay_exactly() {
    const ROWS: i64 = 20_000;
    const UPDATES: i64 = 500;
    let vfs = MemVfs::new();
    let opts = DurableOptions {
        checkpoint_wal_bytes: 0, // only the explicit checkpoint below
        ..DurableOptions::default()
    };
    let mut db = Database::open_with_vfs(Arc::new(vfs.clone()), opts.clone()).unwrap();
    load(&mut db, ROWS);
    db.create_index(&IndexSpec::new("t", &["a"])).unwrap();
    for k in 0..UPDATES {
        let before = db.pager().wal_bytes();
        // A value `c` never held: a new distinct value and (at this
        // table's sampling stride) a new sample entry every time.
        db.execute_sql(&format!(
            "UPDATE t SET c = {} WHERE a = {}",
            ROWS + k,
            k * 37 % ROWS
        ))
        .unwrap();
        let grew = db.pager().wal_bytes() - before;
        assert!(grew < 64 * 1024, "update {k} logged {grew} WAL bytes");
        if k == UPDATES / 2 {
            db.checkpoint().unwrap();
        }
    }
    let recovered = Database::open_with_vfs(Arc::new(frozen_copy(&vfs)), opts).unwrap();
    assert_eq!(stats_digest(&recovered), stats_digest(&db));
}

/// Which operation [`FlakyVfs`] fails.
#[derive(Clone, Copy, PartialEq)]
enum Fail {
    Write,
    Sync,
}

/// A [`MemVfs`] whose writes or fsyncs of one file fail while `failing`
/// is positive: each failure decrements it. A failed write stores
/// nothing; the bytes written before a failed fsync stay visible, as
/// they may on a real disk.
struct FlakyVfs {
    inner: MemVfs,
    file: &'static str,
    fail: Fail,
    failing: Arc<AtomicU32>,
}

struct FlakyFile {
    inner: Box<dyn VfsFile>,
    fail: Fail,
    failing: Option<Arc<AtomicU32>>,
}

impl FlakyFile {
    fn inject(&self, op: Fail) -> cdpd_types::Result<()> {
        let failing = self.failing.as_ref().filter(|_| op == self.fail);
        if failing.is_some_and(|f| f.fetch_update(SeqCst, SeqCst, |n| n.checked_sub(1)).is_ok()) {
            return Err(cdpd_types::Error::Io(std::io::Error::other(
                "injected I/O failure",
            )));
        }
        Ok(())
    }
}

impl Vfs for FlakyVfs {
    fn open(&self, name: &str) -> cdpd_types::Result<Box<dyn VfsFile>> {
        Ok(Box::new(FlakyFile {
            inner: self.inner.open(name)?,
            fail: self.fail,
            failing: (name == self.file).then(|| self.failing.clone()),
        }))
    }
    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
    fn delete(&self, name: &str) -> cdpd_types::Result<()> {
        self.inner.delete(name)
    }
}

impl VfsFile for FlakyFile {
    fn read_at(&self, off: u64, buf: &mut [u8]) -> cdpd_types::Result<usize> {
        self.inner.read_at(off, buf)
    }
    fn write_at(&self, off: u64, data: &[u8]) -> cdpd_types::Result<()> {
        self.inject(Fail::Write)?;
        self.inner.write_at(off, data)
    }
    fn sync(&self) -> cdpd_types::Result<()> {
        self.inject(Fail::Sync)?;
        self.inner.sync()
    }
    fn len(&self) -> cdpd_types::Result<u64> {
        self.inner.len()
    }
    fn truncate(&self, len: u64) -> cdpd_types::Result<()> {
        self.inner.truncate(len)
    }
}

/// Run eight single-row `UPDATE`s (each giving `c` a new distinct
/// value, on rows spread over the heap), the last two with `failures`
/// `fail` operations on `file` failing, then reopen a frozen copy and
/// compare it with the live database. A failed commit fails its
/// statement, but part or all of it may already be in the log: a later
/// commit must neither log the same catalog change again (replay
/// refuses a repeated delta, and the database could not open) nor leave
/// out a page the failed commit did not log.
fn updates_survive_failed_io(file: &'static str, fail: Fail, failures: u32, opts: DurableOptions) {
    let vfs = MemVfs::new();
    let failing = Arc::new(AtomicU32::new(0));
    let flaky = FlakyVfs {
        inner: vfs.clone(),
        file,
        fail,
        failing: failing.clone(),
    };
    let mut db = Database::open_with_vfs(Arc::new(flaky), opts.clone()).unwrap();
    load(&mut db, 500);
    db.checkpoint().unwrap();
    let mut failed = 0;
    for k in 0..8 {
        if k == 6 {
            failing.store(failures, SeqCst);
        }
        let sql = format!("UPDATE t SET c = {} WHERE a = {}", 1000 + k, k * 131 % 500);
        if db.execute_sql(&sql).is_err() {
            failed += 1;
        }
    }
    assert_eq!(
        failed, failures,
        "every injected failure fails its statement"
    );
    assert_eq!(failing.load(SeqCst), 0);
    let recovered = Database::open_with_vfs(Arc::new(frozen_copy(&vfs)), opts).unwrap();
    assert_eq!(stats_digest(&recovered), stats_digest(&db));
}

fn no_auto_checkpoint() -> DurableOptions {
    DurableOptions {
        checkpoint_wal_bytes: 0,
        ..DurableOptions::default()
    }
}

#[test]
fn a_failed_wal_fsync_does_not_make_the_log_unreplayable() {
    updates_survive_failed_io("wal", Fail::Sync, 1, no_auto_checkpoint());
}

#[test]
fn a_failed_wal_write_does_not_lose_the_commits_pages() {
    updates_survive_failed_io("wal", Fail::Write, 1, no_auto_checkpoint());
}

#[test]
fn a_failed_auto_checkpoint_does_not_make_the_log_unreplayable() {
    // Every commit crosses the threshold; the last two auto-checkpoints
    // fail on the data file's fsync after their commits are in the log,
    // so both records are replayed on reopen.
    updates_survive_failed_io(
        "data",
        Fail::Sync,
        2,
        DurableOptions {
            checkpoint_wal_bytes: 1,
            ..DurableOptions::default()
        },
    );
}
