//! `seek_wire`: the paper's point mixes (W1/W2/W3 traces) over TCP
//! against a 100k-row table with I(a), I(b), I(c), I(d) built in
//! set-up, advisor off. Every statement is a few-page B+-tree seek, so
//! time goes to the frame codec, parse, plan and the session loop.

use crate::layers;
use crate::report::{median, Metrics};
use crate::table;
use crate::wire::{self, end_to_end, Mode, Running, Stmt};
use crate::{Args, Outcome};
use cdpd_engine::Database;
use cdpd_types::Result;
use cdpd_workload::{generate, paper};
use std::sync::Arc;
use std::time::Instant;

const ROWS: i64 = 100_000;
/// Statements per paper window (Table 2 granularity).
const WINDOW: usize = 500;
const SETUPS: usize = 6;

fn setup(seed: u64) -> Result<Database> {
    let db = Database::new();
    table::load(&db, &table::scale(ROWS, WINDOW, seed))?;
    for c in ["a", "b", "c", "d"] {
        db.create_index(&table::index(c))?;
    }
    db.analyze("t")?;
    Ok(db)
}

/// W1, W2 and W3 at this scale, one after another, as SQL text.
fn inputs(seed: u64) -> Result<Vec<Stmt>> {
    let params = table::scale(ROWS, WINDOW, seed).params();
    let mut stmts = Vec::new();
    for (i, spec) in [
        paper::w1_with(&params),
        paper::w2_with(&params),
        paper::w3_with(&params),
    ]
    .iter()
    .enumerate()
    {
        for s in generate(spec, seed.wrapping_add(i as u64)).statements() {
            stmts.push(Stmt::read(s.to_string())?);
        }
    }
    Ok(stmts)
}

pub fn run(args: &Args) -> std::result::Result<Outcome, String> {
    run_inner(args).map_err(|e| e.to_string())
}

fn run_inner(args: &Args) -> Result<Outcome> {
    // Half the set-ups before the load and half after it, so their
    // median does not hang on one moment of a host whose speed drifts.
    let mut setup_s = Vec::new();
    let timed_setup = |setup_s: &mut Vec<f64>| {
        let start = Instant::now();
        let db = setup(args.seed);
        setup_s.push(start.elapsed().as_secs_f64());
        db
    };
    for _ in 1..SETUPS / 2 {
        timed_setup(&mut setup_s)?;
    }
    let db = Arc::new(timed_setup(&mut setup_s)?);
    let stmts = inputs(args.seed)?;
    let server = Running::start(&db, None)?;
    let addr = server.addr();
    let aborted_before = cdpd_obs::registry().counter_value("server.sessions.aborted");

    let mut m = Metrics::default();
    let all_runs = if args.trace {
        layers::traced_wire(&mut m, &db, addr, &stmts, args.budget(), None)?
    } else {
        let (runs, _) = wire::load(addr, &stmts, args.budget(), Mode::Plain)?;
        end_to_end(&mut m, &runs);
        runs
    };
    let report = server.stop()?;
    let aborted = cdpd_obs::registry().counter_value("server.sessions.aborted") - aborted_before;
    let mismatches = wire::check_counts(&db, &stmts, &all_runs)?;
    if !args.trace {
        m.put("peak_rss_mib", crate::report::peak_rss_mib(), "MiB");
        for _ in 0..SETUPS / 2 {
            timed_setup(&mut setup_s)?;
        }
        m.put("setup_s", median(&setup_s), "s");
    }

    Ok(Outcome {
        correct: mismatches == 0 && report.sessions as usize >= wire::CLIENTS,
        attempted: all_runs.iter().map(|r| r.attempted).sum(),
        failed: all_runs.iter().map(|r| r.errors).sum::<u64>() + aborted,
        metrics: m,
        context: vec![
            ("rows", ROWS.to_string()),
            ("cache_pages", "0".into()),
            ("fsync", "\"none (in-memory)\"".into()),
            ("clients", wire::CLIENTS.to_string()),
            ("setups", setup_s.len().to_string()),
        ],
    })
}
