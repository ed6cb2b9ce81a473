//! Closed-loop wire load: a server on loopback, and client sessions
//! that each keep one request outstanding (the blocking
//! `cdpd_server::Client`) until a deadline.
//!
//! A measured load is cut into `SLICES` equal time slices. Each slice
//! keeps its own completion count and latency histograms, and figures
//! are reported as the median over slices, so a stall in part of a run
//! moves them less than it moves whole-run figures.

use crate::hist::Histogram;
use crate::report::{median, ratio, Metrics};
use crate::spans::layer;
use cdpd::OnlineAdvisor;
use cdpd_engine::Database;
use cdpd_server::{Client, Server, ServerHandle, ServerReport};
use cdpd_sql::{SelectStmt, Statement};
use cdpd_types::{Error, Result};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client sessions of a wire load, one thread each. One: with two, two
/// client and two session threads share a 2-vCPU host's cores and the
/// median latency follows the scheduler more than the program.
pub const CLIENTS: usize = 1;
/// Unrecorded load before each measured one.
const WARMUP: Duration = Duration::from_millis(500);
/// Time slices of a measured load.
const SLICES: usize = 10;

/// One workload statement, with the read whose row count the wire
/// result must equal.
pub struct Stmt {
    pub sql: String,
    pub write: bool,
    pub check: SelectStmt,
}

fn select(sql: &str) -> Result<SelectStmt> {
    match cdpd_sql::parse(sql)? {
        Statement::Select(s) => Ok(s),
        other => Err(Error::InvalidArgument(format!("not a SELECT: {other}"))),
    }
}

impl Stmt {
    /// A point `SELECT`: it checks itself.
    pub fn read(sql: String) -> Result<Stmt> {
        let check = select(&sql)?;
        Ok(Stmt {
            sql,
            write: false,
            check,
        })
    }

    /// `UPDATE t SET b = value WHERE a = key`: it affects exactly the
    /// rows of `SELECT * FROM t WHERE a = key`.
    pub fn update_b(key: i64, value: i64) -> Result<Stmt> {
        Ok(Stmt {
            sql: format!("UPDATE t SET b = {value} WHERE a = {key}"),
            write: true,
            check: select(&format!("SELECT * FROM t WHERE a = {key}"))?,
        })
    }
}

/// A server serving `db` on an ephemeral loopback port.
pub struct Running {
    handle: ServerHandle,
    join: JoinHandle<Result<ServerReport>>,
}

impl Running {
    pub fn start(
        db: &Arc<Database>,
        advisor: Option<(OnlineAdvisor, Duration)>,
    ) -> Result<Running> {
        let mut server = Server::bind(db.clone(), "127.0.0.1:0")?;
        if let Some((online, tick)) = advisor {
            server = server.with_advisor(online, tick, 1);
        }
        let handle = server.handle()?;
        let join = std::thread::spawn(move || server.run());
        Ok(Running { handle, join })
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Stop accepting, join every session (and the advisor loop).
    pub fn stop(self) -> Result<ServerReport> {
        self.handle.shutdown();
        self.join
            .join()
            .map_err(|_| Error::Corrupt("server thread panicked".into()))?
    }
}

/// How a client drives each statement.
#[derive(Clone, Copy)]
pub enum Mode<'a> {
    /// The wire call only.
    Plain,
    /// The wire call inside a benchmark span.
    Spans,
    /// The wire call, then the same statement in process, layer by
    /// layer, each timed (and spanned): parse, plan, execute.
    Probe(&'a Database),
}

/// In-process layer timings of one probed statement.
#[derive(Clone, Copy, Default)]
pub struct Probe {
    pub write: bool,
    pub rtt_ns: u64,
    pub parse_ns: u64,
    pub plan_ns: u64,
    pub exec_ns: u64,
    pub pages: u64,
    pub rows: u64,
}

/// Completions, latencies and server-side page I/O of one time slice.
#[derive(Clone, Default)]
struct Slice {
    done: u64,
    writes: u64,
    pages: u64,
    latency: Histogram,
}

/// What one client session recorded.
pub struct ClientRun {
    slices: Vec<Slice>,
    slice_ns: u64,
    /// Row count each statement returned, by statement index.
    counts: Vec<Option<u64>>,
    /// Statements that returned a different count than on an earlier run.
    unstable: u64,
    pub probes: Vec<Probe>,
    pub errors: u64,
    pub attempted: u64,
}

impl ClientRun {
    /// Statements completed.
    pub fn completed(&self) -> u64 {
        self.slices.iter().map(|s| s.done).sum()
    }
}

/// Drive `stmts` round-robin from `offset` over `client`'s connection
/// from `origin` until `deadline`; `record` off runs the loop as
/// warm-up only.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    addr: SocketAddr,
    mut client: Client,
    stmts: &[Stmt],
    offset: usize,
    origin: Instant,
    deadline: Instant,
    mode: Mode<'_>,
    record: bool,
) -> ClientRun {
    let slice_ns = ((deadline - origin).as_nanos() as u64 / SLICES as u64).max(1);
    let mut run = ClientRun {
        slices: vec![Slice::default(); SLICES],
        slice_ns,
        counts: vec![None; stmts.len()],
        unstable: 0,
        probes: Vec::new(),
        errors: 0,
        attempted: 0,
    };
    let mut i = offset % stmts.len();
    while Instant::now() < deadline {
        let stmt = &stmts[i];
        let start = Instant::now();
        let result = {
            let _span = match mode {
                Mode::Plain => None,
                _ => Some(layer("wire.exec")),
            };
            client.exec(&stmt.sql)
        };
        let ns = start.elapsed().as_nanos() as u64;
        if record {
            run.attempted += 1;
        }
        match result {
            Ok(r) if record => {
                let at = (origin.elapsed().as_nanos() as u64 / slice_ns) as usize;
                let slice = &mut run.slices[at.min(SLICES - 1)];
                slice.done += 1;
                slice.writes += u64::from(stmt.write);
                slice.pages += r.io.total();
                slice.latency.record(ns);
                match run.counts[i] {
                    Some(c) if c != r.count => run.unstable += 1,
                    _ => run.counts[i] = Some(r.count),
                }
                if let Mode::Probe(db) = mode {
                    match probe_in_process(db, stmt, ns) {
                        Ok(p) => run.probes.push(p),
                        Err(_) => run.errors += 1,
                    }
                }
            }
            Ok(_) => {}
            Err(e) => {
                if record {
                    run.errors += 1;
                }
                if matches!(e, Error::Io(_)) {
                    // The session is gone; open a new one.
                    match Client::connect(addr) {
                        Ok(c) => client = c,
                        Err(_) => return run,
                    }
                }
            }
        }
        i = (i + 1) % stmts.len();
    }
    run
}

/// Run `stmt` again in process, one layer at a time. Writes are the
/// idempotent `SET b = v WHERE a = k`, so repeating one changes nothing
/// but costs a second commit, which is the write being measured.
pub fn probe_in_process(db: &Database, stmt: &Stmt, rtt_ns: u64) -> Result<Probe> {
    let mut p = Probe {
        write: stmt.write,
        rtt_ns,
        ..Probe::default()
    };
    let t = Instant::now();
    let parsed = {
        let _span = layer("sql.parse");
        cdpd_sql::parse(&stmt.sql)?
    };
    p.parse_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let r = match parsed {
        Statement::Select(s) => {
            {
                let _span = layer("engine.plan");
                db.explain(&s)?;
            }
            p.plan_ns = t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            let r = {
                let _span = layer("engine.exec");
                db.query_count(&s)?
            };
            p.exec_ns = t.elapsed().as_nanos() as u64;
            r
        }
        other => {
            let r = {
                let _span = layer("engine.write");
                db.execute_statement(other)?
            };
            p.exec_ns = t.elapsed().as_nanos() as u64;
            r
        }
    };
    p.pages = r.io.total();
    p.rows = r.count;
    Ok(p)
}

/// Unrecorded warm-up, then `measure` recorded. Returns each client's
/// run and the wall time of the recorded part.
pub fn load(
    addr: SocketAddr,
    stmts: &[Stmt],
    measure: Duration,
    mode: Mode<'_>,
) -> Result<(Vec<ClientRun>, f64)> {
    warm_up(addr, stmts)?;
    measured(addr, stmts, measure, mode)
}

/// Unrecorded closed loops, so caches fill before timing.
pub fn warm_up(addr: SocketAddr, stmts: &[Stmt]) -> Result<()> {
    run_clients(addr, stmts, 0, WARMUP, Mode::Plain, false)?;
    Ok(())
}

/// Recorded closed loops for `measure`; each client starts half a
/// share past where its warm-up did.
pub fn measured(
    addr: SocketAddr,
    stmts: &[Stmt],
    measure: Duration,
    mode: Mode<'_>,
) -> Result<(Vec<ClientRun>, f64)> {
    let start = Instant::now();
    let half = stmts.len() / CLIENTS / 2;
    let runs = run_clients(addr, stmts, half, measure, mode, true)?;
    Ok((runs, start.elapsed().as_secs_f64()))
}

/// One thread per client session, all released at once.
fn run_clients(
    addr: SocketAddr,
    stmts: &[Stmt],
    skew: usize,
    length: Duration,
    mode: Mode<'_>,
    record: bool,
) -> Result<Vec<ClientRun>> {
    let share = stmts.len() / CLIENTS;
    let connected = (0..CLIENTS)
        .map(|_| Client::connect(addr))
        .collect::<Result<Vec<_>>>()?;
    let origin = Instant::now();
    let deadline = origin + length;
    Ok(std::thread::scope(|scope| {
        let joins: Vec<_> = connected
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let offset = c * share + skew;
                scope.spawn(move || {
                    closed_loop(addr, client, stmts, offset, origin, deadline, mode, record)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread"))
            .collect()
    }))
}

/// Check every wire result against an in-process count of the same
/// statement's rows. Returns the number of mismatches.
pub fn check_counts(db: &Database, stmts: &[Stmt], runs: &[ClientRun]) -> Result<u64> {
    let mut expected: Vec<Option<u64>> = vec![None; stmts.len()];
    let mut mismatches = runs.iter().map(|r| r.unstable).sum();
    for run in runs {
        for (i, got) in run.counts.iter().enumerate() {
            let Some(got) = *got else { continue };
            let want = match expected[i] {
                Some(w) => w,
                None => *expected[i].insert(db.query_count(&stmts[i].check)?.count),
            };
            if got != want {
                if mismatches < 5 {
                    eprintln!(
                        "mismatch: `{}` returned {got} rows over the wire, {want} in process",
                        stmts[i].sql
                    );
                }
                mismatches += 1;
            }
        }
    }
    Ok(mismatches)
}

/// Statement latencies of a measured load, reads and writes together,
/// per time slice.
pub struct Latencies {
    slices: Vec<Histogram>,
}

impl Latencies {
    pub fn of(runs: &[ClientRun]) -> Latencies {
        let mut slices = vec![Histogram::default(); SLICES];
        for run in runs {
            for (k, s) in run.slices.iter().enumerate() {
                slices[k].merge(&s.latency);
            }
        }
        Latencies { slices }
    }

    pub fn us(&self, q: f64) -> f64 {
        sliced_quantile(&self.slices, q) / 1e3
    }
}

/// Writes completed in a measured load.
pub fn writes(runs: &[ClientRun]) -> u64 {
    runs.iter().flat_map(|r| &r.slices).map(|s| s.writes).sum()
}

/// Server-side logical page I/O per completed statement, as each
/// reply reports it.
pub fn pages_per_stmt(runs: &[ClientRun]) -> f64 {
    let pages: u64 = runs.iter().flat_map(|r| &r.slices).map(|s| s.pages).sum();
    let done: u64 = runs.iter().map(ClientRun::completed).sum();
    ratio(pages as f64, done as f64)
}

/// Quantile `q` per group of adjacent slices, median over groups. The
/// slices are grouped as finely as leaves each group, on average, ten
/// samples beyond the quantile.
fn sliced_quantile(slices: &[Histogram], q: f64) -> f64 {
    let total: u64 = slices.iter().map(Histogram::len).sum();
    let wanted = ((total as f64 * (1.0 - q) / 10.0) as usize).clamp(1, SLICES);
    let groups = (1..=wanted)
        .rev()
        .find(|&g| SLICES.is_multiple_of(g))
        .unwrap_or(1);
    let quantiles: Vec<f64> = slices
        .chunks(SLICES / groups)
        .filter_map(|chunk| {
            let mut h = Histogram::default();
            chunk.iter().for_each(|s| h.merge(s));
            (h.len() > 0).then(|| h.quantile(q) as f64)
        })
        .collect();
    median(&quantiles)
}

/// The end-to-end metrics of a measured wire load: all but `setup_s`
/// and `peak_rss_mib`, which the caller reads last.
pub fn end_to_end(m: &mut Metrics, runs: &[ClientRun]) {
    let latency = Latencies::of(runs);
    m.put("stmts_per_s", throughput(runs), "1/s");
    m.put("latency_p50_us", latency.us(0.50), "us");
    m.put("latency_p95_us", latency.us(0.95), "us");
    m.put("io_pages_per_stmt", pages_per_stmt(runs), "pages");
}

/// Statements completed per second: the median over time slices.
pub fn throughput(runs: &[ClientRun]) -> f64 {
    let Some(slice_ns) = runs.first().map(|r| r.slice_ns) else {
        return 0.0;
    };
    let rates: Vec<f64> = (0..SLICES)
        .map(|k| {
            runs.iter().map(|r| r.slices[k].done).sum::<u64>() as f64 / (slice_ns as f64 / 1e9)
        })
        .collect();
    median(&rates)
}
