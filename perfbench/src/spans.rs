//! The traced run's span side: benchmark-owned spans around each layer
//! call, a collector that drains the `cdpd-obs` ring while the run goes
//! on (the ring is bounded), and per-layer self time from the result.

use cdpd_obs::Span;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Open span `name` around a layer call when tracing is on.
pub fn layer(name: &'static str) -> Span {
    if cdpd_obs::trace::enabled() {
        Span::enter(name, Vec::new())
    } else {
        Span::disabled()
    }
}

/// Per-path call count and total time, summed over every drained span.
#[derive(Default)]
pub struct Totals {
    by_path: BTreeMap<String, (u64, u64)>,
}

impl Totals {
    fn fold(&mut self, records: Vec<cdpd_obs::SpanRecord>) {
        for r in records {
            let ns = r.dur_ns();
            let e = self.by_path.entry(r.path).or_default();
            e.0 += 1;
            e.1 += ns;
        }
    }

    /// Self time (total minus direct children) summed per span name.
    pub fn self_ns_by_name(&self) -> BTreeMap<String, u64> {
        let mut children: BTreeMap<&str, u64> = BTreeMap::new();
        for (path, (_, total)) in &self.by_path {
            if let Some((parent, _)) = path.rsplit_once('/') {
                *children.entry(parent).or_default() += total;
            }
        }
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for (path, (_, total)) in &self.by_path {
            let name = path.rsplit('/').next().unwrap_or(path);
            let own = total.saturating_sub(children.get(path.as_str()).copied().unwrap_or(0));
            *out.entry(name.to_string()).or_default() += own;
        }
        out
    }

    /// Spans recorded in all.
    pub fn spans(&self) -> u64 {
        self.by_path.values().map(|(n, _)| n).sum()
    }
}

/// Tracing switched on, with a thread folding the ring into [`Totals`].
pub struct Collector {
    stop: Arc<AtomicBool>,
    join: JoinHandle<Totals>,
}

impl Collector {
    pub fn start() -> Collector {
        cdpd_obs::trace::set_enabled(true);
        let _ = cdpd_obs::trace::drain();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let join = std::thread::spawn(move || {
            let mut totals = Totals::default();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(10));
                totals.fold(cdpd_obs::trace::drain());
            }
            totals
        });
        Collector { stop, join }
    }

    /// Switch tracing off and return everything recorded.
    pub fn finish(self) -> Totals {
        cdpd_obs::trace::set_enabled(false);
        self.stop.store(true, Ordering::Relaxed);
        let mut totals = self.join.join().expect("span collector");
        totals.fold(cdpd_obs::trace::drain());
        totals
    }
}
