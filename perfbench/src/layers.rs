//! Per-layer metrics of the traced run, from three sources measured
//! outside the program: in-process probes of each layer's public
//! functions, `cdpd-obs` registry deltas, and benchmark span self time.
//!
//! Every traced run reports the whole list. Timings are measured on
//! every workload; a count, share or size of a layer a workload does not
//! exercise reads 0 there (see `perfbench/README.md`).

use crate::report::{delta, quantile, ratio, sorted, Metrics};
use crate::spans::{Collector, Totals};
use crate::vfs::{CountingVfs, VfsSnapshot};
use crate::wire::{self, ClientRun, Mode, Probe, Stmt};
use cdpd_engine::Database;
use cdpd_obs::MetricsSnapshot;
use cdpd_types::Result;
use std::net::SocketAddr;
use std::time::Duration;

/// The traced run of a wire workload, in three equal phases: the loop
/// untraced, the same loop traced (spans on; registry and VFS deltas
/// taken), then every statement probed again in process, layer by
/// layer. Fills the per-layer metrics and returns every client run for
/// the output checks.
pub fn traced_wire(
    m: &mut Metrics,
    db: &Database,
    addr: SocketAddr,
    stmts: &[Stmt],
    budget: Duration,
    vfs: Option<&CountingVfs>,
) -> Result<Vec<ClientRun>> {
    let third = budget / 3;
    all_zero(m);
    let (plain, _) = wire::load(addr, stmts, third, Mode::Plain)?;
    let collector = Collector::start();
    wire::warm_up(addr, stmts)?;
    let before = cdpd_obs::registry().snapshot();
    let vfs_before = vfs.map(CountingVfs::snapshot);
    let (traced, wall) = wire::measured(addr, stmts, third, Mode::Spans)?;
    let after = cdpd_obs::registry().snapshot();
    if let (Some(vfs), Some(vfs_before)) = (vfs, vfs_before) {
        let commits = delta(&after, &before, "storage.wal.commits");
        device(
            m,
            &vfs.snapshot().since(&vfs_before),
            commits,
            wire::writes(&traced),
            wall,
        );
    }
    // The probe phase stays traced: its parse, plan and execute spans
    // split the time the server spends inside `server.session`.
    let (probed, _) = wire::load(addr, stmts, third, Mode::Probe(db))?;
    let totals = collector.finish();

    let completed = |runs: &[ClientRun]| runs.iter().map(ClientRun::completed).sum::<u64>();
    registry(m, &before, &after, completed(&traced));
    wire_registry(m, &before, &after);
    advisor_registry(m, &before, &after);
    probes(m, &probed_of(&probed));
    self_time(m, &totals);
    overhead(m, wire::throughput(&plain), wire::throughput(&traced));
    Ok(plain.into_iter().chain(traced).chain(probed).collect())
}

/// Every probe the client runs recorded.
pub fn probed_of(runs: &[ClientRun]) -> Vec<Probe> {
    runs.iter().flat_map(|r| r.probes.iter().copied()).collect()
}

/// Planner access paths counted as `engine.planner.pick.<path>`.
const PICKS: [&str; 7] = [
    "seq_scan",
    "index_seek",
    "index_range",
    "index_only_scan",
    "index_and",
    "index_or",
    "index_extremum",
];

/// Span-name prefix → the layer its self time is charged to: the
/// benchmark's own spans and the program's (solver, what-if and stream
/// spans nest inside the advisor and online calls).
const LAYERS: [(&str, &str); 16] = [
    ("wire.", "client"),
    ("server.", "server"),
    ("sql.", "sql"),
    ("engine.", "engine"),
    ("ddl.", "engine"),
    ("btree.", "engine"),
    ("storage.", "storage"),
    ("advisor.", "advisor"),
    ("oracle.", "advisor"),
    ("whatif.", "advisor"),
    ("solve.", "advisor"),
    ("kselect.", "advisor"),
    ("online.", "online"),
    ("stream.", "online"),
    ("replay.", "replay"),
    ("alerter.", "advisor"),
];

/// Layer names of the `self_frac.<layer>` metrics.
const LAYER_NAMES: [&str; 8] = [
    "client", "server", "sql", "engine", "storage", "advisor", "online", "replay",
];

/// Registry-delta metrics of one traced phase that ran `statements`
/// statements.
pub fn registry(
    m: &mut Metrics,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    statements: u64,
) {
    let d = |name: &str| delta(after, before, name) as f64;
    let stmts = statements as f64;

    let picks: Vec<f64> = PICKS
        .iter()
        .map(|p| d(&format!("engine.planner.pick.{p}")))
        .collect();
    let total_picks: f64 = picks.iter().sum();
    for (p, n) in PICKS.iter().zip(&picks) {
        m.put(format!("engine.pick.{p}"), ratio(*n, total_picks), "frac");
    }

    let reads = d("storage.pager.reads");
    let fetches = d("storage.backend.fetches");
    m.put("storage.pager.reads_per_stmt", ratio(reads, stmts), "pages");
    // The durable pager's page cache is the pool the engine reads
    // through: a hit is a read that needed no backend fetch.
    m.put(
        "storage.pool.hit_rate",
        if reads > 0.0 {
            1.0 - fetches / reads
        } else {
            0.0
        },
        "frac",
    );
    m.put(
        "storage.pool.evictions",
        d("storage.pager.evictions"),
        "count",
    );
    m.put(
        "storage.backend.fetches_per_stmt",
        ratio(fetches, stmts),
        "pages",
    );
    m.put("storage.wal.commits", d("storage.wal.commits"), "count");
    m.put(
        "storage.checkpoint.completed",
        d("storage.checkpoint.completed"),
        "count",
    );
    m.put(
        "server.advisor.decisions",
        d("server.advisor.decisions"),
        "count",
    );
    m.put(
        "server.advisor.applied",
        d("server.advisor.applied"),
        "count",
    );
}

/// Frame bytes per statement over a phase that served statements.
pub fn wire_registry(m: &mut Metrics, before: &MetricsSnapshot, after: &MetricsSnapshot) {
    let d = |name: &str| delta(after, before, name) as f64;
    m.put(
        "server.bytes_per_stmt",
        ratio(
            d("server.bytes_in") + d("server.bytes_out"),
            d("server.statements"),
        ),
        "B",
    );
}

/// Registry-delta metrics of the advisory layer (what-if oracle and
/// online re-solves) over one traced phase.
pub fn advisor_registry(m: &mut Metrics, before: &MetricsSnapshot, after: &MetricsSnapshot) {
    let d = |name: &str| delta(after, before, name) as f64;
    m.put("oracle.whatif_calls", d("oracle.whatif_calls"), "count");
    m.put(
        "oracle.hit_ratio",
        ratio(d("oracle.projected_hits"), d("oracle.exec_requests")),
        "frac",
    );
    m.put("online.resolves", d("online.resolves"), "count");
    m.put("online.rebuilds", d("online.rebuilds"), "count");
}

/// Layer timings from in-process probes of wire statements.
pub fn probes(m: &mut Metrics, probes: &[Probe]) {
    let reads: Vec<&Probe> = probes.iter().filter(|p| !p.write).collect();
    let wire: Vec<u64> = probes
        .iter()
        .map(|p| p.rtt_ns.saturating_sub(p.parse_ns + p.exec_ns))
        .collect();
    let parse: Vec<u64> = probes.iter().map(|p| p.parse_ns).collect();
    let plan: Vec<u64> = reads.iter().map(|p| p.plan_ns).collect();
    let query = sorted(&reads.iter().map(|p| p.exec_ns).collect::<Vec<_>>());
    let pages: u64 = reads.iter().map(|p| p.pages).sum();

    m.put(
        "server.wire_us_p50",
        quantile(&sorted(&wire), 0.5) as f64 / 1e3,
        "us",
    );
    m.put(
        "sql.parse_ns_p50",
        quantile(&sorted(&parse), 0.5) as f64,
        "ns",
    );
    m.put(
        "engine.plan_ns_p50",
        quantile(&sorted(&plan), 0.5) as f64,
        "ns",
    );
    m.put("engine.query_ns_p50", quantile(&query, 0.5) as f64, "ns");
    m.put("engine.query_ns_p99", quantile(&query, 0.99) as f64, "ns");
    m.put(
        "engine.pages_per_stmt",
        ratio(pages as f64, reads.len() as f64),
        "pages",
    );
}

/// Device-layer metrics from the counting VFS over a phase that
/// completed `writes` wire writes.
pub fn device(m: &mut Metrics, vfs: &VfsSnapshot, wal_commits: u64, writes: u64, wall: f64) {
    let wal = vfs.files.get("wal").map(|f| f.bytes_written).unwrap_or(0);
    let syncs: u64 = vfs.files.values().map(|f| f.syncs).sum();
    m.put(
        "vfs.bytes_per_write",
        ratio(vfs.bytes_written() as f64, writes as f64),
        "B",
    );
    m.put(
        "vfs.wal.bytes_per_commit",
        ratio(wal as f64, wal_commits as f64),
        "B",
    );
    m.put(
        "vfs.syncs_per_write",
        ratio(syncs as f64, writes as f64),
        "count",
    );
    m.put(
        "vfs.busy_frac",
        ratio(vfs.busy_ns() as f64 / 1e9, wall),
        "frac",
    );
}

/// Each layer's share of the span self time in `totals`, plus the
/// spans recorded.
pub fn self_time(m: &mut Metrics, totals: &Totals) {
    let by_name = totals.self_ns_by_name();
    let of_layer = |layer: &str| -> u64 {
        by_name
            .iter()
            .filter(|(name, _)| {
                LAYERS
                    .iter()
                    .any(|(prefix, l)| *l == layer && name.starts_with(prefix))
            })
            .map(|(_, ns)| *ns)
            .sum()
    };
    let all: u64 = LAYER_NAMES.iter().map(|l| of_layer(l)).sum();
    for layer in LAYER_NAMES {
        m.put(
            format!("self_frac.{layer}"),
            ratio(of_layer(layer) as f64, all as f64),
            "frac",
        );
    }
    m.put("obs.spans", totals.spans() as f64, "count");
}

/// Tracing overhead: the traced phase's throughput against the
/// untraced phase's, as a share of the untraced.
pub fn overhead(m: &mut Metrics, untraced_per_s: f64, traced_per_s: f64) {
    m.put(
        "obs.trace_overhead_frac",
        if untraced_per_s > 0.0 {
            1.0 - traced_per_s / untraced_per_s
        } else {
            0.0
        },
        "frac",
    );
}

/// Placeholders for every per-layer metric, so a traced run prints the
/// full list in one order whatever its workload exercises. Every
/// workload overwrites the timings; a count, share or size of a layer
/// the workload does not exercise stays 0.
pub fn all_zero(m: &mut Metrics) {
    let empty = MetricsSnapshot::default();
    probes(m, &[]);
    wire_registry(m, &empty, &empty);
    registry(m, &empty, &empty, 0);
    advisor_registry(m, &empty, &empty);
    device(m, &VfsSnapshot::default(), 0, 0, 0.0);
    m.put("replay.exec_pages", 0.0, "pages");
    m.put("replay.trans_pages", 0.0, "pages");
    self_time(m, &Totals::default());
    overhead(m, 0.0, 0.0);
}
