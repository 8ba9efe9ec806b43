//! Small measurement helpers: a latency histogram, quantiles, obs
//! histogram deltas and the process's peak RSS.

use ddc_core::obs::{self, HistogramSnapshot};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since a process-wide epoch, so spans taken on different
/// threads share one clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;

/// A log-linear latency histogram: 128 linear sub-buckets per power of
/// two (relative error under 1 %), so memory stays fixed however many
/// requests a run completes.
pub struct LatHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatHist {
    fn default() -> Self {
        Self {
            counts: vec![0; (64 - SUB_BITS as usize + 1) * SUB],
            total: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let shift = e - SUB_BITS;
    (shift as usize + 1) * SUB + ((v >> shift) as usize - SUB)
}

/// The `[lo, hi)` value range of bucket `b`.
fn bucket_range(b: usize) -> (f64, f64) {
    if b < SUB {
        return (b as f64, b as f64 + 1.0);
    }
    let shift = (b / SUB - 1) as u32;
    let lo = ((b % SUB + SUB) as u64) << shift;
    (lo as f64, (lo + (1u64 << shift)) as f64)
}

impl LatHist {
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &LatHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile, interpolated linearly inside its bucket; 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q * self.total as f64).clamp(1.0, self.total as f64);
        let mut seen = 0u64;
        for (b, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (seen + n) as f64 >= rank {
                let (lo, hi) = bucket_range(b);
                return lo + (rank - seen as f64) / n as f64 * (hi - lo);
            }
            seen += n;
        }
        0.0
    }
}

/// Median and quartiles of a sample, as `statistics.quantiles(n=4)`
/// computes them (the "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |i: usize| -> f64 {
        let m = (n + 1) as f64 * i as f64 / 4.0;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// The median of a sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A registry histogram's state, to diff across a measured window.
pub fn obs_snapshot(name: &'static str) -> HistogramSnapshot {
    obs::histogram(name).snapshot()
}

/// The observations recorded into `name` since `before`.
pub fn obs_delta(name: &'static str, before: &HistogramSnapshot) -> HistogramSnapshot {
    let after = obs_snapshot(name);
    let mut d = after.clone();
    d.count = after.count - before.count;
    d.sum = after.sum - before.sum;
    for (a, b) in d.buckets.iter_mut().zip(before.buckets.iter()) {
        *a -= b;
    }
    d
}

/// Median of an obs histogram delta in microseconds (0 when empty).
pub fn p50_us(d: &HistogramSnapshot) -> f64 {
    if d.count == 0 {
        0.0
    } else {
        d.quantile(0.5) as f64 / 1e3
    }
}

/// `VmHWM` (peak resident set) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_values_in_order() {
        let mut prev = 0;
        for v in (0..5000u64).chain([1 << 20, (1 << 20) + 12345, (1 << 40) + 777]) {
            let b = bucket_of(v);
            assert!(b >= prev || v > 4999);
            let (lo, hi) = bucket_range(b);
            assert!(lo <= v as f64 && (v as f64) < hi, "{v} in [{lo}, {hi})");
            prev = b;
        }
    }

    #[test]
    fn quantiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn histogram_median_is_close() {
        let mut h = LatHist::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let m = h.quantile(0.5);
        assert!((m - 50_000.0).abs() < 500.0, "{m}");
    }
}
