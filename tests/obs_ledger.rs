//! Obs/ledger reconciliation under concurrency (companion to
//! `tests/obs_prop.rs`): the per-pager atomic counters and the
//! `cdpd-obs` global tracked counters (`storage.pager.reads` /
//! `.writes` / `.allocs`, surfaced as [`IoStats::global`]) are
//! incremented at the same call sites, so when **multiple pagers race
//! on multiple threads** the sum of per-pager deltas must equal the
//! registry delta *exactly* — not eventually, not approximately.
//!
//! The durable tier gets the same treatment: `storage.wal.*`,
//! `storage.writeback.pages`, `storage.checkpoint.completed`, and
//! `storage.backend.fetches` are tracked counters mirrored by each
//! pager's [`DurableStats`], so summed per-pager deltas must equal the
//! registry deltas exactly while durable pagers race.
//!
//! These tests own their binary, but cargo still runs them on sibling
//! threads — and durable pager traffic bumps `storage.pager.*` too, so
//! every registry measurement serializes on [`REGISTRY_LOCK`].

use cdpd::engine::{Database, IndexSpec};
use cdpd::storage::{DurableOptions, IoStats, MemVfs, Pager, ThreadIoScope, PAGE_SIZE};
use cdpd::types::{ColumnDef, PageId, Schema, Value};
use cdpd_testkit::Prng;
use std::sync::{Arc, Mutex};

/// Serializes registry-delta measurements across tests in this binary.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn racing_pagers_reconcile_with_global_tracked_counters() {
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    const PAGERS: usize = 3;
    const THREADS_PER_PAGER: u64 = 4;
    const OPS: u64 = 400;

    let pagers: Vec<Arc<Pager>> = (0..PAGERS).map(|_| Arc::new(Pager::new())).collect();
    for pager in &pagers {
        for _ in 0..32 {
            pager.allocate();
        }
    }

    let global_before = IoStats::global();
    let before: Vec<IoStats> = pagers.iter().map(|p| p.stats()).collect();

    std::thread::scope(|s| {
        for (pi, pager) in pagers.iter().enumerate() {
            for t in 0..THREADS_PER_PAGER {
                let pager = Arc::clone(pager);
                s.spawn(move || {
                    let scope = ThreadIoScope::start();
                    let mut expected = IoStats::default();
                    for i in 0..OPS {
                        let id = PageId(((pi as u64 * 7 + t * 13 + i) % 32) as u32);
                        match i % 4 {
                            0 | 1 => {
                                pager.read(id).unwrap();
                                expected.reads += 1;
                            }
                            2 => {
                                pager.write(id, Arc::new([t as u8; PAGE_SIZE])).unwrap();
                                expected.writes += 1;
                            }
                            _ => {
                                pager.update(id, |b| b[0] = b[0].wrapping_add(1)).unwrap();
                                expected.reads += 1;
                                expected.writes += 1;
                            }
                        }
                    }
                    // Thread-local scopes attribute exactly this
                    // thread's accesses, even while 11 sibling threads
                    // hammer the same counters.
                    assert_eq!(scope.delta(), expected);
                });
            }
        }
    });

    let global_delta = IoStats::global().delta(global_before);
    let mut summed = IoStats::default();
    for (pager, b) in pagers.iter().zip(&before) {
        let d = pager.stats().delta(*b);
        summed.reads += d.reads;
        summed.writes += d.writes;
        summed.allocs += d.allocs;
    }

    assert_eq!(
        summed, global_delta,
        "per-pager ledgers and the obs registry must agree exactly"
    );
    // Cross-check the absolute volumes so a double-count on both sides
    // cannot cancel out.
    let total_threads = PAGERS as u64 * THREADS_PER_PAGER;
    assert_eq!(
        summed.reads,
        total_threads * OPS / 2 + total_threads * OPS / 4
    );
    assert_eq!(summed.writes, total_threads * OPS / 2);
    assert_eq!(summed.allocs, 0);
}

/// Statement-level attribution through the whole engine under racing
/// *mutators*: writer threads (inserts / updates / deletes) race an
/// online index build, every thread metering itself with a
/// [`ThreadIoScope`]. The summed per-thread deltas must equal both the
/// pager's own ledger delta and the obs-registry delta **exactly** —
/// the catch-up work a build does for concurrent writers is charged to
/// the building thread, never dropped and never double-counted.
#[test]
fn racing_mutators_and_online_builds_reconcile_attribution() {
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    const WRITERS: usize = 4;
    const OPS_PER_WRITER: usize = 150;
    const ROWS: i64 = 1_500;
    const DOMAIN: i64 = 300;

    let db = Database::new();
    db.create_table(
        "t",
        Schema::new(vec![
            ColumnDef::int("a"),
            ColumnDef::int("b"),
            ColumnDef::int("c"),
            ColumnDef::int("d"),
        ]),
    )
    .expect("fresh table");
    let mut rng = Prng::seed_from_u64(99);
    for _ in 0..ROWS {
        let row: Vec<Value> = (0..4)
            .map(|_| Value::Int(rng.gen_range(0..DOMAIN)))
            .collect();
        db.insert("t", &row).expect("row matches schema");
    }
    db.analyze("t").expect("table exists");

    let global_before = IoStats::global();
    let pager_before = db.pager().stats();

    let deltas: Vec<IoStats> = std::thread::scope(|s| {
        let mut handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let db = &db;
                s.spawn(move || {
                    let scope = ThreadIoScope::start();
                    let mut rng = Prng::seed_from_u64(0xAB ^ w as u64);
                    for _ in 0..OPS_PER_WRITER {
                        let v = rng.gen_range(0..DOMAIN);
                        match rng.gen_range(0..4i64) {
                            0 => {
                                db.execute_sql(&format!(
                                    "UPDATE t SET c = {} WHERE a = {v}",
                                    rng.gen_range(0..DOMAIN)
                                ))
                                .expect("racing update");
                            }
                            1 => {
                                db.execute_sql(&format!("DELETE FROM t WHERE b = {v} AND c = {v}"))
                                    .expect("racing delete");
                            }
                            _ => {
                                let row: Vec<Value> = (0..4)
                                    .map(|_| Value::Int(rng.gen_range(0..DOMAIN)))
                                    .collect();
                                db.insert("t", &row).expect("racing insert");
                            }
                        }
                    }
                    scope.delta()
                })
            })
            .collect();
        // The builder races the writers: base scan from a pinned
        // snapshot, then catch-up from the delta log at install.
        handles.push(s.spawn(|| {
            let scope = ThreadIoScope::start();
            db.create_index(&IndexSpec::new("t", &["a", "b"]))
                .expect("online build");
            db.create_index(&IndexSpec::new("t", &["d"]))
                .expect("online build");
            db.drop_index(&IndexSpec::new("t", &["d"])).expect("drop");
            scope.delta()
        }));
        handles
            .into_iter()
            .map(|h| h.join().expect("thread"))
            .collect()
    });

    let mut summed = IoStats::default();
    for d in &deltas {
        summed.reads += d.reads;
        summed.writes += d.writes;
        summed.allocs += d.allocs;
    }
    assert_eq!(
        summed,
        db.pager().stats().delta(pager_before),
        "summed per-thread scopes must equal the pager ledger delta"
    );
    assert_eq!(
        summed,
        IoStats::global().delta(global_before),
        "summed per-thread scopes must equal the obs-registry delta"
    );
    assert!(
        deltas.last().expect("builder ran").total() > 0,
        "the build thread's scope must charge the build + catch-up I/O"
    );
}

/// The six durable tracked counters, in [`cdpd::storage::DurableStats`]
/// field order.
const DURABLE_COUNTERS: [&str; 6] = [
    "storage.wal.appends",
    "storage.wal.commits",
    "storage.wal.fsyncs",
    "storage.writeback.pages",
    "storage.checkpoint.completed",
    "storage.backend.fetches",
];

fn durable_registry_snapshot() -> [u64; 6] {
    DURABLE_COUNTERS.map(|name| cdpd::obs::registry().counter_value(name))
}

fn stats_as_array(s: cdpd::storage::DurableStats) -> [u64; 6] {
    [
        s.wal_appends,
        s.wal_commits,
        s.wal_fsyncs,
        s.writeback_pages,
        s.checkpoints,
        s.backend_fetches,
    ]
}

#[test]
fn racing_durable_pagers_reconcile_wal_counters() {
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    const PAGERS: usize = 3;
    const THREADS_PER_PAGER: u64 = 4;
    const PAGES: u32 = 64;

    // Different group-commit factors per pager so the fsync batching
    // path is exercised: commits and fsyncs must diverge and still
    // reconcile counter-by-counter.
    let pagers: Vec<Arc<Pager>> = (0..PAGERS)
        .map(|pi| {
            let opts = DurableOptions {
                cache_pages: 8,
                group_commit: pi + 1,
                checkpoint_wal_bytes: 0,
            };
            let open = Pager::open_durable(Arc::new(MemVfs::new()), opts).unwrap();
            Arc::new(open.pager)
        })
        .collect();
    for pager in &pagers {
        for _ in 0..PAGES {
            pager.allocate();
        }
    }

    let registry_before = durable_registry_snapshot();
    let before: Vec<_> = pagers.iter().map(|p| p.durable_stats()).collect();

    // Phase A: racing mutators on every pager at once (writes and
    // updates dirty frames; no WAL traffic yet — commits are the
    // single-writer main thread's job).
    std::thread::scope(|s| {
        for pager in &pagers {
            for t in 0..THREADS_PER_PAGER {
                let pager = Arc::clone(pager);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let id = PageId(((t * 17 + i) % PAGES as u64) as u32);
                        if i % 3 == 0 {
                            pager.update(id, |b| b[0] = b[0].wrapping_add(1)).unwrap();
                        } else {
                            pager.write(id, Arc::new([t as u8; PAGE_SIZE])).unwrap();
                        }
                    }
                });
            }
        }
    });
    for pager in &pagers {
        pager.commit(b"phase-a", || b"phase-a".to_vec()).unwrap();
        pager.checkpoint(b"phase-a").unwrap();
    }

    // Phase B: a second generation of pages. Installing them pushes
    // the 8-page cache over budget, so the now-clean phase-A pages get
    // evicted — which is what makes phase C's reads miss.
    for pager in &pagers {
        for _ in 0..PAGES {
            let id = pager.allocate();
            pager.write(id, Arc::new([0xB; PAGE_SIZE])).unwrap();
        }
        pager.commit(b"phase-b", || b"phase-b".to_vec()).unwrap();
        pager.checkpoint(b"phase-b").unwrap();
    }

    // Phase C: racing readers sweep both generations, faulting evicted
    // pages back in from the file backend.
    std::thread::scope(|s| {
        for pager in &pagers {
            for t in 0..THREADS_PER_PAGER {
                let pager = Arc::clone(pager);
                s.spawn(move || {
                    for i in 0..(2 * PAGES as u64) {
                        let id = PageId(((t * 31 + i) % (2 * PAGES as u64)) as u32);
                        pager.read(id).unwrap();
                    }
                });
            }
        }
    });

    let registry_delta: Vec<u64> = durable_registry_snapshot()
        .iter()
        .zip(registry_before)
        .map(|(now, b)| now - b)
        .collect();
    let mut summed = [0u64; 6];
    for (pager, b) in pagers.iter().zip(&before) {
        let d = stats_as_array(pager.durable_stats().delta(*b));
        for (acc, v) in summed.iter_mut().zip(d) {
            *acc += v;
        }
    }

    for (i, name) in DURABLE_COUNTERS.iter().enumerate() {
        assert_eq!(
            summed[i], registry_delta[i],
            "{name}: per-pager durable ledgers and the obs registry must agree exactly"
        );
        assert!(summed[i] > 0, "{name}: test never exercised this counter");
    }
    // Shape checks on the absolute volumes: two explicit checkpoints
    // and two commits per pager, and every dirty page written back at
    // least once per generation.
    assert_eq!(summed[4], 2 * PAGERS as u64);
    assert_eq!(summed[1], 2 * PAGERS as u64);
    assert!(summed[3] >= 2 * PAGERS as u64 * PAGES as u64);
}
