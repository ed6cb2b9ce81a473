//! cdpd end-to-end benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload seek_wire --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each exists and which
//! layer metric moves which end-to-end metric):
//!
//! * `seek_wire` — paper point mixes over TCP against an indexed table;
//! * `advise_replay` — the offline DBA loop: advise, then replay;
//! * `rw_durable` — reads beside durable writes, advisor in the loop.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` is the separate traced run: it measures the same loop
//! untraced and traced (the difference is the tracing overhead), then
//! splits the work into its layers and prints the per-layer metrics.
//! The last stdout line is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod advise_replay;
mod hist;
mod layers;
mod report;
mod rw_durable;
mod seek_wire;
mod spans;
mod table;
mod vfs;
mod wire;

use report::{json_str, Metrics};
use std::process::ExitCode;
use std::time::Duration;

/// Command-line settings of one run.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back to be printed.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Statements (or operations) attempted in the measured phases.
    pub attempted: u64,
    /// Of those, client errors plus aborted sessions.
    pub failed: u64,
    pub metrics: Metrics,
    /// Run facts printed with the result: rows, cache pages, fsync
    /// policy (`main` adds the host `nproc` and the seed).
    pub context: Vec<(&'static str, String)>,
}

impl Args {
    /// The measured duration.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload seek_wire|advise_replay|rw_durable --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "seek_wire" => seek_wire::run(&args),
        "advise_replay" => advise_replay::run(&args),
        "rw_durable" => rw_durable::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let mut context = vec![
        ("workload", json_str(&args.workload)),
        ("nproc", report::nproc().to_string()),
        ("seed", args.seed.to_string()),
    ];
    context.extend(outcome.context);
    context.push(("trace", u8::from(args.trace).to_string()));
    let context: Vec<String> = context
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!(
        "{} ({}), correct={} attempted={} failed={}",
        args.workload,
        if args.trace { "traced" } else { "untraced" },
        outcome.correct,
        outcome.attempted,
        outcome.failed
    );
    print!("{}", outcome.metrics.render_lines());
    println!("context {{{}}}", context.join(", "));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.to_json()
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
