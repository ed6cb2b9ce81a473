//! The [`OnlineAdvisor`] as a serving-loop citizen.
//!
//! `replay::drive` owns the whole world: it executes statements,
//! refreshes statistics, ingests, and applies decisions, all serially.
//! In a server none of that holds — statements execute on session
//! threads, concurrently, and the advisor only *observes*. This loop
//! is the bridge: it drains the statement channel the sessions feed,
//! seals windows on the advisor's statement-count boundary (via
//! [`OnlineAdvisor::ingest`]) **or** on a wall-clock tick when traffic
//! goes quiet (via [`OnlineAdvisor::seal_now`]), and applies each
//! changed decision's DDL through [`Database::apply_configuration_with`]
//! — an *online* build that interleaves with the foreground sessions
//! instead of stalling them.
//!
//! Advisor failures (an infeasible solve, a statement on the wrong
//! table) are counted and skipped: an advisory subsystem must never
//! take serving down with it.

use cdpd::{OnlineAdvisor, OnlineDecision};
use cdpd_engine::{Database, DdlReport};
use cdpd_sql::Dml;
use cdpd_types::Result;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::Duration;

/// The advisor's state and audit trail after the serving loop ends.
pub struct AdvisorReport {
    /// The advisor, with its full decision log
    /// ([`OnlineAdvisor::decisions`]) — ready for
    /// [`OnlineAdvisor::finish`] or state persistence.
    pub advisor: OnlineAdvisor,
    /// Design changes actually applied (decisions with
    /// [`OnlineDecision::changed`]), in application order.
    pub applied: Vec<DdlReport>,
    /// Advisor errors skipped to keep the serving loop alive.
    pub errors: u64,
}

/// Run the advisor loop until every sender is gone and the queue is
/// drained, then force-seal the tail window so the last partial window
/// still produces a decision. Called on a dedicated thread by
/// [`crate::Server::run`].
pub(crate) fn run(
    db: &Database,
    mut advisor: OnlineAdvisor,
    rx: &Receiver<Dml>,
    tick: Duration,
    threads: usize,
) -> AdvisorReport {
    let mut applied = Vec::new();
    let mut errors = 0u64;
    loop {
        match rx.recv_timeout(tick) {
            Ok(stmt) => {
                let decision = advisor.ingest(db, &stmt);
                note(
                    db,
                    &mut advisor,
                    decision,
                    threads,
                    &mut applied,
                    &mut errors,
                );
            }
            Err(RecvTimeoutError::Timeout) => {
                // Quiet wire: seal whatever the open window holds so
                // the design keeps adapting at wall-clock cadence.
                let decision = advisor.seal_now(db);
                note(
                    db,
                    &mut advisor,
                    decision,
                    threads,
                    &mut applied,
                    &mut errors,
                );
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Tail: the server is draining; decide on the final partial window.
    let decision = advisor.seal_now(db);
    note(
        db,
        &mut advisor,
        decision,
        threads,
        &mut applied,
        &mut errors,
    );
    AdvisorReport {
        advisor,
        applied,
        errors,
    }
}

/// Fold one ingest/seal outcome into the loop state: apply a changed
/// decision's DDL (concurrently with foreground sessions), count
/// failures, never propagate.
fn note(
    db: &Database,
    advisor: &mut OnlineAdvisor,
    decision: Result<Option<OnlineDecision>>,
    threads: usize,
    applied: &mut Vec<DdlReport>,
    errors: &mut u64,
) {
    let decision = match decision {
        Ok(Some(d)) => d,
        Ok(None) => return,
        Err(e) => {
            *errors += 1;
            cdpd_obs::counter!("server.advisor.errors").inc();
            cdpd_obs::event!("server advisor: ingest/seal failed: {e}");
            return;
        }
    };
    cdpd_obs::counter!("server.advisor.decisions").inc();
    if !decision.changed {
        return;
    }
    let table = advisor.table().to_owned();
    match db.apply_configuration_with(&table, &decision.specs, threads) {
        Ok(report) => {
            cdpd_obs::counter!("server.advisor.applied").inc();
            // Keep the oracle priced against the post-DDL statistics.
            if let Ok(refresh) = db.refresh_stats(&table) {
                let _ = advisor.note_stats_refresh(db, &refresh);
            }
            applied.push(report);
        }
        Err(e) => {
            *errors += 1;
            cdpd_obs::counter!("server.advisor.errors").inc();
            cdpd_obs::event!("server advisor: applying the {table} design failed: {e}");
        }
    }
}
