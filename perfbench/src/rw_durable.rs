//! `rw_durable`: writes beside reads on a durable database.
//!
//! The database is opened over a counting VFS on a real directory with
//! an fsync on every commit (`group_commit = 1`) and a page cache
//! several times smaller than the table. The client alternates a read phase
//! (point selects on `a` and `c`) with ETL windows in which about one
//! statement in five is `UPDATE t SET b = … WHERE a = …`, over TCP with
//! the in-loop advisor on. After the run the database is dropped and
//! the directory reopened; the recovered table must equal the table as
//! it was before shutdown.

use crate::layers;
use crate::report::{median, Metrics};
use crate::table;
use crate::vfs::CountingVfs;
use crate::wire::{self, end_to_end, Mode, Running, Stmt};
use crate::{Args, Outcome};
use cdpd::{AdvisorOptions, OnlineAdvisor, OnlineOptions};
use cdpd_engine::Database;
use cdpd_sql::Statement;
use cdpd_storage::{DiskVfs, DurableOptions, Vfs};
use cdpd_testkit::Prng;
use cdpd_types::{Error, Result, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: i64 = 20_000;
/// Page-cache budget: a fraction of the table's pages.
const CACHE_PAGES: usize = 64;
const GROUP_COMMIT: usize = 1;
const SETUPS: usize = 6;
/// Statements per advisor window.
const WINDOW: usize = 100;
/// Sealed windows the advisor keeps.
const HORIZON: usize = 10;
/// Point reads on `a`/`c` per read phase.
const READ_PHASE: usize = 200;
/// Statements per ETL window, of which about `UPDATE_SHARE` update.
const ETL_WINDOW: usize = 200;
const UPDATE_SHARE: f64 = 0.2;
/// Read phase + ETL window pairs in the generated stream.
const CYCLES: usize = 20;

fn options() -> DurableOptions {
    DurableOptions {
        cache_pages: CACHE_PAGES,
        group_commit: GROUP_COMMIT,
        ..DurableOptions::default()
    }
}

/// A fresh durable database in `dir`: the table, I(a) and I(c).
fn setup(dir: &Path, seed: u64) -> Result<(Database, Arc<CountingVfs>)> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let vfs = Arc::new(CountingVfs::new(DiskVfs::new(dir)?));
    let db = Database::open_with_vfs(vfs.clone() as Arc<dyn Vfs>, options())?;
    table::load(&db, &table::scale(ROWS, WINDOW, seed))?;
    db.create_index(&table::index("a"))?;
    db.create_index(&table::index("c"))?;
    db.analyze("t")?;
    Ok((db, vfs))
}

/// Read phases alternating with ETL windows, from the seed.
fn inputs(seed: u64) -> Result<Vec<Stmt>> {
    let domain = table::scale(ROWS, WINDOW, seed).domain();
    let mut rng = Prng::seed_from_u64(seed ^ 0x57AB_1E5E);
    let point = |rng: &mut Prng| {
        let column = if rng.gen_bool(0.5) { "a" } else { "c" };
        Stmt::read(format!(
            "SELECT * FROM t WHERE {column} = {}",
            rng.gen_range(0..domain)
        ))
    };
    let mut stmts = Vec::new();
    for _ in 0..CYCLES {
        for _ in 0..READ_PHASE {
            stmts.push(point(&mut rng)?);
        }
        for _ in 0..ETL_WINDOW {
            stmts.push(if rng.gen_bool(UPDATE_SHARE) {
                Stmt::update_b(rng.gen_range(0..domain), rng.gen_range(0..domain))?
            } else {
                point(&mut rng)?
            });
        }
    }
    Ok(stmts)
}

fn advisor(db: &Database) -> Result<OnlineAdvisor> {
    OnlineAdvisor::new(
        db,
        "t",
        OnlineOptions {
            advisor: AdvisorOptions {
                k: Some(2),
                window_len: WINDOW,
                structures: Some(table::paper_structures()),
                max_structures_per_config: Some(2),
                ..AdvisorOptions::default()
            },
            // A serving advisor keeps a bounded horizon, so every seal
            // costs about the same however long the run.
            max_windows: Some(HORIZON),
            ..OnlineOptions::default()
        },
    )
}

/// Row count and an order-independent digest of every row of `t`.
fn digest(db: &Database) -> Result<(u64, u64)> {
    let all = match cdpd_sql::parse("SELECT * FROM t")? {
        Statement::Select(s) => s,
        _ => unreachable!("a SELECT parses as one"),
    };
    let rows = db
        .query(&all)?
        .rows
        .ok_or_else(|| Error::Corrupt("SELECT returned no rows".into()))?;
    let mut sum = 0u64;
    for row in &rows {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in row {
            let x = match v {
                Value::Int(i) => *i as u64,
                other => return Err(Error::Corrupt(format!("unexpected value {other:?}"))),
            };
            h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        }
        sum = sum.wrapping_add(h);
    }
    Ok((rows.len() as u64, sum))
}

/// The run's scratch directory inside the working directory.
fn data_dir() -> PathBuf {
    PathBuf::from(".perfbench-data").join(format!("rw_durable-{}", std::process::id()))
}

pub fn run(args: &Args) -> std::result::Result<Outcome, String> {
    let dir = data_dir();
    let outcome = run_in(args, &dir).map_err(|e| e.to_string());
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(parent) = dir.parent() {
        // Only removes the parent when no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    outcome
}

fn run_in(args: &Args, dir: &Path) -> Result<Outcome> {
    // Half the set-ups before the load and half after it, so their
    // median does not hang on one moment of a host whose speed drifts.
    let mut setup_s = Vec::new();
    let timed_setup = |setup_s: &mut Vec<f64>| {
        let start = Instant::now();
        let opened = setup(dir, args.seed);
        setup_s.push(start.elapsed().as_secs_f64());
        opened
    };
    for _ in 1..SETUPS / 2 {
        timed_setup(&mut setup_s)?;
    }
    let (db, vfs) = timed_setup(&mut setup_s)?;
    let table_pages = db.page_count();
    let db = Arc::new(db);
    let stmts = inputs(args.seed)?;
    let server = Running::start(&db, Some((advisor(&db)?, Duration::from_secs(1))))?;
    let addr = server.addr();
    let aborted_before = cdpd_obs::registry().counter_value("server.sessions.aborted");

    let mut m = Metrics::default();
    let all_runs = if args.trace {
        layers::traced_wire(&mut m, &db, addr, &stmts, args.budget(), Some(&vfs))?
    } else {
        let (runs, _) = wire::load(addr, &stmts, args.budget(), Mode::Plain)?;
        end_to_end(&mut m, &runs);
        runs
    };
    let report = server.stop()?;
    let aborted = cdpd_obs::registry().counter_value("server.sessions.aborted") - aborted_before;
    if !args.trace {
        m.put("peak_rss_mib", crate::report::peak_rss_mib(), "MiB");
    }

    // Output checks: every wire count against an in-process count
    // (updates only touch `b`, so counts on `a` and `c` are stable),
    // then recovery of exactly the pre-shutdown table.
    let mismatches = wire::check_counts(&db, &stmts, &all_runs)?;
    let before_drop = digest(&db)?;
    drop(report);
    let db = Arc::try_unwrap(db).map_err(|_| Error::Corrupt("database still shared".into()))?;
    drop(db);
    let reopened = Database::open_with_vfs(Arc::new(DiskVfs::new(dir)?), options())?;
    let after_reopen = digest(&reopened)?;
    drop(reopened);
    if after_reopen != before_drop {
        eprintln!("recovered table {after_reopen:?} differs from pre-shutdown {before_drop:?}");
    }
    if !args.trace {
        for _ in 0..SETUPS / 2 {
            timed_setup(&mut setup_s)?;
        }
        m.put("setup_s", median(&setup_s), "s");
    }

    Ok(Outcome {
        correct: mismatches == 0 && after_reopen == before_drop,
        attempted: all_runs.iter().map(|r| r.attempted).sum(),
        failed: all_runs.iter().map(|r| r.errors).sum::<u64>() + aborted,
        metrics: m,
        context: vec![
            ("rows", ROWS.to_string()),
            ("table_pages", table_pages.to_string()),
            ("cache_pages", CACHE_PAGES.to_string()),
            (
                "fsync",
                format!("\"every commit (group_commit = {GROUP_COMMIT})\""),
            ),
            ("clients", wire::CLIENTS.to_string()),
            ("advisor_window", WINDOW.to_string()),
            ("setups", setup_s.len().to_string()),
        ],
    })
}
