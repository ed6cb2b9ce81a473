//! `advise_replay`: the offline DBA loop, in process, in two timed
//! phases per cycle.
//!
//! * Advise: `Advisor::recommend` on W1 (paper regime: k = 2, the §6.1
//!   structures, at most one per configuration) and on W4 and W5
//!   (derived candidates, at most two per configuration), then
//!   `OnlineAdvisor::ingest` over W4 and W5 at two seeds each. W1 and W4
//!   are not mixed into one stream: a W1 seal takes ~0.1 ms against
//!   ~8 ms for W4, and a mix would make the seal median bimodal.
//! * Replay: `replay_recommendation` of W1's schedule at the default
//!   thread count — mostly full scans.
//!
//! A run draws `INSTANCES` sets of traces from its seed and cycles over
//! them until the measured time is spent, at least once each, so one
//! unlucky trace moves the medians little.

use crate::layers;
use crate::report::{median, quantile, ratio, sorted, Metrics};
use crate::spans::{layer, Collector};
use crate::table;
use crate::wire::{self, Mode, Running, Stmt};
use crate::{Args, Outcome};
use cdpd::replay::{replay_recommendation, ReplayReport};
use cdpd::{
    candidate_indexes, Advisor, AdvisorOptions, OnlineAdvisor, OnlineOptions, Recommendation,
};
use cdpd_engine::Database;
use cdpd_obs::MetricsSnapshot;
use cdpd_sql::Dml;
use cdpd_types::{Error, Result};
use cdpd_workload::{generate, paper, summarize, Trace};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: i64 = 20_000;
const WINDOW: usize = 500;
const K: usize = 2;
/// Trace sets drawn from one seed.
const INSTANCES: u64 = 4;

/// One set of traces.
struct Inputs {
    w1: Trace,
    w4: Trace,
    w5: Trace,
    /// W4 and W5 at two seeds each, for the online ingest.
    online: Vec<Trace>,
}

impl Inputs {
    fn new(seed: u64, instance: u64) -> Inputs {
        let params = table::scale(ROWS, WINDOW, seed).params();
        let (w4, w5) = (paper::w4_with(&params), paper::w5_with(&params));
        let first = seed.wrapping_mul(INSTANCES).wrapping_add(instance);
        let second = first ^ (1 << 40);
        Inputs {
            w1: generate(&paper::w1_with(&params), first),
            w4: generate(&w4, first),
            w5: generate(&w5, first),
            online: vec![
                generate(&w4, first),
                generate(&w4, second),
                generate(&w5, first),
                generate(&w5, second),
            ],
        }
    }

    /// Statements a cycle over these traces replays or ingests.
    fn statements(&self) -> u64 {
        (self.w1.len() + self.online.iter().map(Trace::len).sum::<usize>()) as u64
    }
}

fn setup(seed: u64) -> Result<Database> {
    let db = Database::new();
    table::load(&db, &table::scale(ROWS, WINDOW, seed))?;
    db.analyze("t")?;
    Ok(db)
}

fn paper_regime() -> AdvisorOptions {
    AdvisorOptions {
        k: Some(K),
        window_len: WINDOW,
        structures: Some(table::paper_structures()),
        max_structures_per_config: Some(1),
        ..AdvisorOptions::default()
    }
}

fn derived() -> AdvisorOptions {
    AdvisorOptions {
        k: Some(K),
        window_len: WINDOW,
        max_structures_per_config: Some(2),
        ..AdvisorOptions::default()
    }
}

/// What one advise-and-replay cycle measured.
struct Cycle {
    instance: usize,
    /// Statements replayed or ingested.
    statements: u64,
    advise_s: f64,
    /// Latency of each `OnlineAdvisor::ingest` call that sealed a window.
    seal_ns: Vec<u64>,
    rec_w1: Recommendation,
    replay: ReplayReport,
    /// Registry delta over the replay phase alone.
    replay_metrics: MetricsSnapshot,
}

impl Cycle {
    fn wall_s(&self) -> f64 {
        self.advise_s + self.replay.wall.as_secs_f64()
    }
}

/// `setup`, timed into `setup_s`. Each cycle sets up afresh, so the
/// set-ups spread over the run and their median does not hang on one
/// moment of a host whose speed drifts.
fn timed_setup(seed: u64, setup_s: &mut Vec<f64>) -> Result<Database> {
    let start = Instant::now();
    let db = setup(seed)?;
    setup_s.push(start.elapsed().as_secs_f64());
    Ok(db)
}

/// Advise on `inputs` and replay W1's schedule, starting from the bare
/// table.
fn cycle(db: &Database, inputs: &Inputs, instance: usize) -> Result<Cycle> {
    let advise_start = Instant::now();

    {
        let _span = layer("advisor.candidates");
        let schema = db.schema("t")?;
        for trace in [&inputs.w4, &inputs.w5] {
            candidate_indexes(&schema, &summarize(trace, WINDOW)?)?;
        }
    }

    let mut recs = Vec::new();
    for (trace, options) in [
        (&inputs.w1, paper_regime()),
        (&inputs.w4, derived()),
        (&inputs.w5, derived()),
    ] {
        let _span = layer("advisor.recommend_call");
        recs.push(Advisor::new(db, "t").options(options).recommend(trace)?);
    }
    let rec_w1 = recs.swap_remove(0);

    let mut seal_ns = Vec::new();
    for trace in &inputs.online {
        let options = OnlineOptions {
            advisor: derived(),
            ..OnlineOptions::default()
        };
        let mut online = OnlineAdvisor::new(db, "t", options)?;
        for stmt in trace.statements() {
            let t = Instant::now();
            let decision = {
                let _span = layer("online.ingest_call");
                online.ingest(db, stmt)?
            };
            if decision.is_some() {
                seal_ns.push(t.elapsed().as_nanos() as u64);
            }
        }
    }
    let advise_s = advise_start.elapsed().as_secs_f64();

    let before = cdpd_obs::registry().snapshot();
    let replay = {
        let _span = layer("replay.call");
        replay_recommendation(db, &inputs.w1, &rec_w1)?
    };
    let replay_metrics = cdpd_obs::registry().snapshot().delta(&before);
    Ok(Cycle {
        instance,
        statements: inputs.statements(),
        advise_s,
        seal_ns,
        rec_w1,
        replay,
        replay_metrics,
    })
}

/// Output checks of a cycle: the schedule keeps the change budget, and
/// the replay's row total equals the trace's row total counted in
/// process under a different index set (all four single-column
/// indexes). Leaves those indexes in place.
fn check(db: &Database, inputs: &Inputs, c: &Cycle) -> Result<bool> {
    let mut ok = true;
    if c.rec_w1.schedule.changes > K {
        eprintln!(
            "W1 schedule uses {} changes, budget {K}",
            c.rec_w1.schedule.changes
        );
        ok = false;
    }
    let all: Vec<_> = ["a", "b", "c", "d"].into_iter().map(table::index).collect();
    db.apply_configuration("t", &all)?;
    let mut rows = 0u64;
    for stmt in inputs.w1.statements() {
        match stmt {
            Dml::Select(s) => rows += db.query_count(s)?.count,
            other => return Err(Error::InvalidArgument(format!("W1 holds a write: {other}"))),
        }
    }
    if rows != c.replay.row_checksum {
        eprintln!(
            "replay counted {} rows, in-process count under I(a..d) is {rows}",
            c.replay.row_checksum
        );
        ok = false;
    }
    Ok(ok)
}

pub fn run(args: &Args) -> std::result::Result<Outcome, String> {
    run_inner(args).map_err(|e| e.to_string())
}

fn run_inner(args: &Args) -> Result<Outcome> {
    let mut setup_s = Vec::new();
    let mut m = Metrics::default();
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut correct = true;
    if !args.trace {
        let start = Instant::now();
        let sets = INSTANCES as usize;
        while cycles.len() < sets || start.elapsed() < args.budget() {
            let i = cycles.len() % sets;
            // Regenerated each cycle: the traces of every set together
            // would dominate the process's peak memory.
            let inputs = Inputs::new(args.seed, i as u64);
            let db = timed_setup(args.seed, &mut setup_s)?;
            let c = cycle(&db, &inputs, i)?;
            if cycles.len() < sets {
                correct &= check(&db, &inputs, &c)?;
            }
            cycles.push(c);
        }
        // Each trace set weighs the same, however many cycles it got.
        let per_set = |f: &dyn Fn(&[&Cycle]) -> f64| {
            let values: Vec<f64> = (0..sets)
                .map(|i| {
                    let of_set: Vec<&Cycle> = cycles.iter().filter(|c| c.instance == i).collect();
                    f(&of_set)
                })
                .collect();
            values.iter().sum::<f64>() / values.len() as f64
        };
        // Seal costs are multimodal by trace phase: pool a set's seals
        // over its cycles rather than take each cycle's percentile.
        let seal_us = |q: f64| {
            per_set(&|cs| {
                let seals: Vec<u64> = cs.iter().flat_map(|c| c.seal_ns.iter().copied()).collect();
                quantile(&sorted(&seals), q) as f64 / 1e3
            })
        };
        m.put("setup_s", median(&setup_s), "s");
        m.put(
            "stmts_per_s",
            per_set(&|cs| {
                median(
                    &cs.iter()
                        .map(|c| c.statements as f64 / c.wall_s())
                        .collect::<Vec<_>>(),
                )
            }),
            "1/s",
        );
        m.put("latency_p50_us", seal_us(0.50), "us");
        m.put("latency_p95_us", seal_us(0.95), "us");
        // Every cycle over a set replays the same I/O (checked below).
        m.put(
            "io_pages_per_stmt",
            per_set(&|cs| {
                ratio(
                    cs[0].replay.total_io() as f64,
                    cs[0].replay.statements as f64,
                )
            }),
            "pages",
        );
        m.put("peak_rss_mib", crate::report::peak_rss_mib(), "MiB");
    } else {
        layers::all_zero(&mut m);
        let start = Instant::now();
        let inputs = &Inputs::new(args.seed, 0);
        let db = Arc::new(timed_setup(args.seed, &mut setup_s)?);
        let plain = cycle(&db, inputs, 0)?;
        correct &= check(&db, inputs, &plain)?;
        db.apply_configuration("t", &[])?;
        let collector = Collector::start();
        let before = cdpd_obs::registry().snapshot();
        let traced = cycle(&db, inputs, 0)?;
        let after = cdpd_obs::registry().snapshot();
        // Self time covers the traced cycle alone: the workload sends
        // nothing over a wire, and the probes below would swamp it.
        let totals = collector.finish();
        let probe_for = args
            .budget()
            .saturating_sub(start.elapsed())
            .max(args.budget() / 6);
        correct &= probe_w1(&mut m, &db, inputs, probe_for)?;

        layers::registry(
            &mut m,
            &MetricsSnapshot::default(),
            &traced.replay_metrics,
            traced.replay.statements,
        );
        layers::advisor_registry(&mut m, &before, &after);
        layers::self_time(&mut m, &totals);
        layers::overhead(
            &mut m,
            ratio(inputs.statements() as f64, plain.wall_s()),
            ratio(inputs.statements() as f64, traced.wall_s()),
        );
        m.put("replay.exec_pages", traced.replay.exec_io() as f64, "pages");
        m.put(
            "replay.trans_pages",
            traced.replay.trans_io() as f64,
            "pages",
        );
        cycles.push(plain);
        cycles.push(traced);
    }
    // Cycles over the same traces replay the same schedule, so their
    // I/O must repeat exactly.
    for c in &cycles {
        let first = &cycles[c.instance];
        if c.replay.total_io() != first.replay.total_io() {
            eprintln!(
                "replayed I/O differs between cycles over trace set {}",
                c.instance
            );
            correct = false;
        }
    }
    let attempted: u64 = cycles.iter().map(|c| c.statements).sum();
    Ok(Outcome {
        correct,
        attempted,
        failed: 0,
        metrics: m,
        context: vec![
            ("rows", ROWS.to_string()),
            ("cache_pages", "0".into()),
            ("fsync", "\"none (in-memory)\"".into()),
            ("window_len", WINDOW.to_string()),
            ("k", K.to_string()),
            ("replay_threads", cdpd_engine::default_threads().to_string()),
            ("trace_sets", INSTANCES.to_string()),
            ("cycles", cycles.len().to_string()),
            ("setups", setup_s.len().to_string()),
        ],
    })
}

/// W1's statements served over the wire for `length`, each reply
/// followed by the same statement in process, one layer at a time,
/// against the design the replay left in place. Fills the wire and
/// probe metrics; returns whether every wire count matched.
fn probe_w1(
    m: &mut Metrics,
    db: &Arc<Database>,
    inputs: &Inputs,
    length: Duration,
) -> Result<bool> {
    let stmts = inputs
        .w1
        .statements()
        .iter()
        .map(|s| Stmt::read(s.to_string()))
        .collect::<Result<Vec<_>>>()?;
    let server = Running::start(db, None)?;
    let before = cdpd_obs::registry().snapshot();
    let (runs, _) = wire::measured(server.addr(), &stmts, length, Mode::Probe(db))?;
    let after = cdpd_obs::registry().snapshot();
    server.stop()?;
    layers::wire_registry(m, &before, &after);
    layers::probes(m, &layers::probed_of(&runs));
    Ok(wire::check_counts(db, &stmts, &runs)? == 0)
}
