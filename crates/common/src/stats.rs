//! Lightweight statistics primitives used by every timing model.
//!
//! All hardware models in the workspace expose their observable behaviour
//! through these types: hit/miss [`Counter`]s, latency [`RunningStats`] and
//! coarse [`Histogram`]s. They are intentionally plain data so experiment
//! code can snapshot, diff and print them without locking conventions.

use core::fmt;

use crate::cycles::Cycles;

/// A monotonically increasing event counter (e.g. cache hits).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter starting at zero.
    pub const fn new() -> Self {
        Self(0)
    }

    /// Increments the counter by one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Increments the counter by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Resets the counter to zero.
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Hit/miss pair with convenience ratios, used by TLBs and caches.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct HitMiss {
    /// Number of hits observed.
    pub hits: u64,
    /// Number of misses observed.
    pub misses: u64,
}

impl HitMiss {
    /// Creates an empty hit/miss record.
    pub const fn new() -> Self {
        Self { hits: 0, misses: 0 }
    }

    /// Records a hit.
    pub fn hit(&mut self) {
        self.hits += 1;
    }

    /// Records a miss.
    pub fn miss(&mut self) {
        self.misses += 1;
    }

    /// Total number of accesses.
    pub const fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; 0.0 when no accesses were recorded.
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }

    /// Resets both counters.
    pub fn reset(&mut self) {
        *self = Self::new();
    }
}

impl fmt::Display for HitMiss {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate)",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0
        )
    }
}

/// Streaming mean/min/max/sum over observed samples, used for per-event
/// latencies such as the IOMMU page-table-walk time of Figure 5.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RunningStats {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub const fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records one sample given as [`Cycles`].
    pub fn record_cycles(&mut self, value: Cycles) {
        self.record(value.raw());
    }

    /// Number of recorded samples.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub const fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of the samples, or 0.0 if none were recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample, or `None` if none were recorded.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` if none were recorded.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Resets the accumulator.
    pub fn reset(&mut self) {
        *self = Self::new();
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for RunningStats {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for RunningStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            write!(f, "no samples")
        } else {
            write!(
                f,
                "n={} mean={:.1} min={} max={}",
                self.count,
                self.mean(),
                self.min,
                self.max
            )
        }
    }
}

/// A histogram with fixed-width buckets plus an overflow bucket, used for
/// latency distributions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    bucket_width: u64,
    buckets: Vec<u64>,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `num_buckets` buckets of `bucket_width` each.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is zero or `num_buckets` is zero.
    pub fn new(bucket_width: u64, num_buckets: usize) -> Self {
        assert!(bucket_width > 0, "bucket width must be non-zero");
        assert!(num_buckets > 0, "histogram needs at least one bucket");
        Self {
            bucket_width,
            buckets: vec![0; num_buckets],
            overflow: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = (value / self.bucket_width) as usize;
        if idx < self.buckets.len() {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.overflow
    }

    /// Number of samples that exceeded the highest bucket.
    pub const fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Iterates over `(bucket_lower_bound, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .map(move |(i, &c)| (i as u64 * self.bucket_width, c))
    }

    /// Approximate `q`-quantile (`q` in `[0, 1]`), resolved to the lower
    /// bound of the bucket holding the rank-`⌈q·n⌉` sample; samples in the
    /// overflow bucket resolve to the histogram's upper edge. Returns 0 for
    /// an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (lower, count) in self.iter() {
            cumulative += count;
            if cumulative >= rank {
                return lower;
            }
        }
        self.bucket_width * self.buckets.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn hit_rate_over_total() {
        let mut hm = HitMiss::new();
        assert_eq!(hm.hit_rate(), 0.0);
        for _ in 0..3 {
            hm.hit();
        }
        hm.miss();
        assert_eq!(hm.total(), 4);
        assert!((hm.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn running_stats_mean_min_max() {
        let mut s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        for v in [10, 20, 30] {
            s.record(v);
        }
        s.record_cycles(Cycles::new(40));
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum(), 100);
        assert!((s.mean() - 25.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(10));
        assert_eq!(s.max(), Some(40));
    }

    /// A holder built by `Default` starts empty, like `new()`, and reports
    /// the smallest sample it records.
    #[test]
    fn default_running_stats_track_the_recorded_minimum() {
        let mut s = RunningStats::default();
        assert_eq!(s, RunningStats::new());
        s.record(7);
        s.record(9);
        assert_eq!(s.min(), Some(7));
    }

    #[test]
    fn running_stats_merge() {
        let mut a = RunningStats::new();
        a.record(5);
        let mut b = RunningStats::new();
        b.record(15);
        b.record(25);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(5));
        assert_eq!(a.max(), Some(25));
        let empty = RunningStats::new();
        a.merge(&empty);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(100, 4);
        for v in [0, 99, 100, 250, 399, 400, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.overflow(), 2);
        let buckets: Vec<(u64, u64)> = h.iter().collect();
        assert_eq!(buckets, vec![(0, 2), (100, 1), (200, 1), (300, 1)]);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn histogram_rejects_zero_width() {
        let _ = Histogram::new(0, 4);
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new(10, 10);
        assert_eq!(h.percentile(0.5), 0, "empty histogram");
        for v in 0..100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(0.5), 40, "median falls in the fifth bucket");
        assert_eq!(h.percentile(1.0), 90);
        h.record(5000); // overflow sample
        assert_eq!(h.percentile(1.0), 100, "overflow resolves to the edge");
    }
}
