//! Log-linear latency histogram: fixed memory whatever the sample
//! count (so the harness does not grow with throughput and skew
//! `peak_rss_mib`), each value kept to within 1/128 of itself.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = SUB * (64 - SUB_BITS as usize + 1);

#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Histogram {
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        (shift as usize + 1) * SUB + (v >> shift) as usize - SUB
    }

    /// The midpoint of bucket `i`.
    fn value(i: usize) -> u64 {
        if i < SUB {
            return i as u64;
        }
        let shift = i / SUB - 1;
        (((i % SUB + SUB) as u64) << shift) + ((1u64 << shift) >> 1)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// Nearest-rank quantile `q` (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            seen += n as u64;
            if seen >= rank {
                return Self::value(i);
            }
        }
        Self::value(BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_within_a_bucket() {
        for v in [
            0,
            1,
            127,
            128,
            255,
            256,
            1_000,
            33_333,
            20_000_000,
            u64::MAX / 3,
        ] {
            let back = Histogram::value(Histogram::index(v));
            assert!(back.abs_diff(v) <= v / 128, "{v} came back as {back}");
        }
        assert!(Histogram::index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_follow_ranks() {
        let mut h = Histogram::default();
        for v in 1..=1_000u64 {
            h.record(v * 1_000);
        }
        assert_eq!(h.len(), 1_000);
        let p50 = h.quantile(0.5);
        assert!(p50.abs_diff(500_000) <= 500_000 / 128, "{p50}");
        let p99 = h.quantile(0.99);
        assert!(p99.abs_diff(990_000) <= 990_000 / 128, "{p99}");
    }
}
