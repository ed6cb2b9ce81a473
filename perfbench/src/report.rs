//! Result plumbing shared by every workload: latency summaries, the
//! metric list a run prints, registry deltas, and host facts.

use cdpd_obs::MetricsSnapshot;
use std::fmt::Write as _;

/// Sorted copy of `samples`, ready for [`quantile`].
pub fn sorted(samples: &[u64]) -> Vec<u64> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    v
}

/// Nearest-rank quantile `q` of an ascending slice (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a list of floats (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Registry counter delta between two snapshots.
pub fn delta(after: &MetricsSnapshot, before: &MetricsSnapshot, name: &str) -> u64 {
    after.counter(name).saturating_sub(before.counter(name))
}

/// Named metrics in the order a run reports them.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Record `name = value unit` (a later record of the same name
    /// replaces the earlier one).
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        match self.entries.iter_mut().find(|(n, _, _)| *n == name) {
            Some(e) => {
                e.1 = value;
                e.2 = unit;
            }
            None => self.entries.push((name, value, unit)),
        }
    }

    /// Human-readable `name value unit` lines.
    pub fn render_lines(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.entries {
            let _ = writeln!(out, "  {name:<40} {value:>16.6} {unit}");
        }
        out
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    cdpd_obs::trace::json_string(s)
}

/// A JSON number with every digit the value has.
pub fn json_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:?}")
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
