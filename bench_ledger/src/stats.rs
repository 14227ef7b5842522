//! Exact statistics over raw samples.
//!
//! Latencies are kept as raw microsecond samples in a preallocated
//! `Vec<u32>` and read with the nearest-rank rule, so a reported p99 is a
//! latency some request actually had — not the upper edge of a log2
//! bucket. Across runs, [`quartiles`] follows Python's
//! `statistics.quantiles(values, n=4)` (the default `exclusive` method),
//! which is what the regression bounds in `BENCHMARK.json` are judged by.

use std::time::Duration;

/// Samples a reported percentile must leave beyond it before it counts.
pub const MIN_BEYOND: usize = 10;

/// Raw latency samples in microseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    us: Vec<u32>,
}

impl Samples {
    /// Room for `n` samples, so recording does not allocate while timing.
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            us: Vec::with_capacity(n),
        }
    }

    /// Record one duration (saturating at `u32::MAX` µs, about 71 minutes).
    pub fn push(&mut self, d: Duration) {
        self.us
            .push(u32::try_from(d.as_micros()).unwrap_or(u32::MAX));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.us.len()
    }

    /// The nearest-rank `p`th percentile in milliseconds, if any sample
    /// was recorded.
    pub fn percentile_ms(&self, p: f64) -> Option<f64> {
        let mut sorted = self.us.clone();
        sorted.sort_unstable();
        nearest_rank(&sorted, p).map(|us| f64::from(us) / 1e3)
    }

    /// Whether the `p`th percentile leaves at least [`MIN_BEYOND`]
    /// samples above it.
    pub fn tail_ok(&self, p: f64) -> bool {
        beyond(self.us.len(), p) >= MIN_BEYOND
    }
}

/// 1-based nearest rank of the `p`th percentile among `n` samples:
/// the smallest rank whose share of samples at or below it is `p`%.
pub fn rank(n: usize, p: f64) -> usize {
    let r = (p * n as f64 / 100.0).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// The nearest-rank `p`th percentile of an ascending slice.
pub fn nearest_rank<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Samples strictly beyond the nearest-rank `p`th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` computes them. Fewer than two
/// values give that value (or NaN) three times.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let m = ld + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (v[(j - 1) as usize] * (4.0 - delta) + v[j as usize] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// `BENCHMARK.json`'s bounds are judged against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, _, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Mean of `values`; NaN when there are none.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Operation times of one run by layout, read as means.
///
/// A shared host runs a process at one of a few speeds for seconds at a
/// time, so one kind of call lands in two clusters about 1.45× apart, and
/// a service call also falls in two by whether its volume was resident. A
/// median jumps from one cluster to the other when their shares cross one
/// half; a low quantile finds the quick cluster only in runs that caught a
/// quick spell. The mean moves in proportion to the shares, so it keeps
/// the smallest spread across runs.
#[derive(Debug, Clone, Default)]
pub struct LayoutMeans {
    sum: [f64; 4],
    count: [u64; 4],
}

impl LayoutMeans {
    /// Record one time of an operation on layout `l` (an index into
    /// `LayoutChoice::ALL`).
    pub fn push(&mut self, l: usize, value: f64) {
        self.sum[l] += value;
        self.count[l] += 1;
    }

    /// Mean over layout `l`'s operations; NaN when there are none.
    pub fn layout(&self, l: usize) -> f64 {
        self.sum[l] / self.count[l] as f64
    }

    /// Mean over every operation; NaN when there are none.
    pub fn all(&self) -> f64 {
        self.sum.iter().sum::<f64>() / self.count.iter().sum::<u64>() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(us: impl IntoIterator<Item = u32>) -> Samples {
        let mut s = Samples::with_capacity(16);
        for v in us {
            s.push(Duration::from_micros(u64::from(v)));
        }
        s
    }

    #[test]
    fn nearest_rank_picks_a_real_sample() {
        let s = samples(1..=100);
        assert_eq!(s.percentile_ms(50.0), Some(0.050));
        assert_eq!(s.percentile_ms(99.0), Some(0.099));
        assert_eq!(s.percentile_ms(100.0), Some(0.100));
        // Order of recording does not matter.
        let r = samples((1..=100).rev());
        assert_eq!(r.percentile_ms(99.0), Some(0.099));
        // A value between two ranks rounds up to the next real sample.
        let odd = samples([10, 20, 30]);
        assert_eq!(odd.percentile_ms(50.0), Some(0.020));
        assert_eq!(odd.percentile_ms(34.0), Some(0.020));
        assert_eq!(odd.percentile_ms(33.0), Some(0.010));
        assert_eq!(Samples::default().percentile_ms(50.0), None);
    }

    #[test]
    fn tail_check_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten lie beyond it.
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(samples(0..1000).tail_ok(99.0));
        // One short: rank 990 of 999 leaves nine.
        assert_eq!(beyond(999, 99.0), 9);
        assert!(!samples(0..999).tail_ok(99.0));
        // Too few samples for any tail.
        assert!(!samples(0..5).tail_ok(50.0));
        assert_eq!(beyond(0, 99.0), 0);
        // The median of 21 samples has ten beyond it.
        assert!(samples(0..21).tail_ok(50.0));
    }

    #[test]
    fn saturates_instead_of_wrapping() {
        let mut s = Samples::with_capacity(1);
        s.push(Duration::from_secs(1 << 40));
        assert_eq!(s.percentile_ms(50.0), Some(f64::from(u32::MAX) / 1e3));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // Reference values from Python 3.11 `statistics.quantiles(v, n=4)`.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[5.0, 1.0, 4.0]), (1.0, 4.0, 5.0));
        assert_eq!(quartiles(&[2.0, 8.0]), (0.5, 5.0, 9.5));
        assert_eq!(quartiles(&[3.5, 1.25, 9.0, 2.0, 7.75]), (1.625, 3.5, 8.375));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert!(quartiles(&[]).0.is_nan());
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0; 10]), 0.0);
    }

    #[test]
    fn layout_means_average_each_layout_and_all_of_them() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert!(mean(&[]).is_nan());
        let mut m = LayoutMeans::default();
        for v in [1.0, 2.0, 6.0] {
            m.push(0, v);
        }
        m.push(3, 11.0);
        assert_eq!(m.layout(0), 3.0);
        assert_eq!(m.layout(3), 11.0);
        assert!(m.layout(1).is_nan());
        // Every operation weighs the same, whatever its layout.
        assert_eq!(m.all(), 20.0 / 4.0);
        assert!(LayoutMeans::default().all().is_nan());
    }
}
