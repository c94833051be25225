//! Statistics accumulators for simulation output.
//!
//! Four complementary accumulators cover everything the experiment harness
//! reports:
//!
//! * [`Counter`] — monotonic event counts (bus operations, invalidations).
//! * [`OnlineStats`] — streaming mean and extrema of sampled values
//!   (transaction latencies).
//! * [`BusyTracker`] — time-weighted utilization of a resource (a bus),
//!   accumulating busy nanoseconds against a window of simulated time.
//! * [`Histogram`] — power-of-two bucketed latency distribution.

use crate::time::{SimDuration, SimTime};

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use multicube_sim::stats::Counter;
///
/// let mut ops = Counter::new();
/// ops.add(3);
/// ops.incr();
/// assert_eq!(ops.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    #[inline]
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }
}

/// Streaming mean and extrema; the mean is updated incrementally, as in
/// Welford's online algorithm.
///
/// # Example
///
/// ```
/// use multicube_sim::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(v);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert_eq!(s.max(), Some(9.0));
/// ```
#[derive(Debug, Clone)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    /// An empty accumulator, as [`OnlineStats::new`].
    fn default() -> Self {
        OnlineStats::new()
    }
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel sweeps).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Time-weighted busy/idle tracking for a single resource.
///
/// Call [`BusyTracker::set_busy`] / [`BusyTracker::set_idle`] as the
/// resource changes state; [`BusyTracker::utilization`] reports the busy
/// fraction over the observed window.
///
/// # Example
///
/// ```
/// use multicube_sim::stats::BusyTracker;
/// use multicube_sim::SimTime;
///
/// let mut bus = BusyTracker::new();
/// bus.set_busy(SimTime::from_nanos(0));
/// bus.set_idle(SimTime::from_nanos(30));
/// assert!((bus.utilization(SimTime::from_nanos(100)) - 0.3).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BusyTracker {
    busy: SimDuration,
    busy_since: Option<SimTime>,
}

impl BusyTracker {
    /// Creates an idle tracker.
    pub fn new() -> Self {
        BusyTracker::default()
    }

    /// Marks the resource busy starting at `now`. Idempotent while busy.
    pub fn set_busy(&mut self, now: SimTime) {
        if self.busy_since.is_none() {
            self.busy_since = Some(now);
        }
    }

    /// Marks the resource idle at `now`, accumulating the elapsed busy span.
    /// Idempotent while idle.
    pub fn set_idle(&mut self, now: SimTime) {
        if let Some(since) = self.busy_since.take() {
            self.busy += now.since(since);
        }
    }

    /// Total accumulated busy time as of `now` (includes an open busy span).
    pub fn busy_time(&self, now: SimTime) -> SimDuration {
        match self.busy_since {
            Some(since) => self.busy + now.since(since),
            None => self.busy,
        }
    }

    /// Busy fraction of the window `[0, now]`; 0 if `now` is time zero.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now.as_nanos() == 0 {
            return 0.0;
        }
        self.busy_time(now).as_nanos() as f64 / now.as_nanos() as f64
    }
}

/// A power-of-two bucketed histogram of nanosecond values.
///
/// Bucket `i` counts values `v` with `2^i <= v < 2^(i+1)` (bucket 0 also
/// holds `v == 0`). Suitable for long-tailed latency distributions.
///
/// # Example
///
/// ```
/// use multicube_sim::stats::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(700);
/// h.record(800);
/// h.record(3_000);
/// assert_eq!(h.total(), 3);
/// assert!(h.quantile(0.5).unwrap() >= 512);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; 64],
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; 64],
            total: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.total += 1;
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of recorded values.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Lower bound of the bucket containing the `q`-quantile (0 ≤ q ≤ 1),
    /// or `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(if i == 0 { 0 } else { 1u64 << i });
            }
        }
        Some(1u64 << 63)
    }

    /// Iterates over `(bucket_lower_bound, count)` pairs with nonzero count.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << i }, c))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn online_stats_mean_and_extrema() {
        let mut s = OnlineStats::new();
        for v in 1..=5 {
            s.record(v as f64);
        }
        assert_eq!(s.count(), 5);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(5.0));
    }

    /// `Default` is `new()`: the extrema start at ±∞, not at 0, so the
    /// first sample sets both.
    #[test]
    fn online_stats_default_starts_empty() {
        let mut s = OnlineStats::default();
        s.record(5.0);
        assert_eq!(s.min(), Some(5.0));
        assert_eq!(s.max(), Some(5.0));
    }

    #[test]
    fn online_stats_empty_is_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let mut all = OnlineStats::new();
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for i in 0..100 {
            let v = (i as f64).sin() * 10.0;
            all.record(v);
            if i % 2 == 0 {
                left.record(v)
            } else {
                right.record(v)
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert_eq!(left.min(), all.min());
        assert_eq!(left.max(), all.max());
    }

    #[test]
    fn busy_tracker_handles_open_span() {
        let mut b = BusyTracker::new();
        b.set_busy(SimTime::from_nanos(10));
        // Still busy at t=60: 50ns of busy in a 60ns window.
        assert!((b.utilization(SimTime::from_nanos(60)) - 50.0 / 60.0).abs() < 1e-12);
        b.set_idle(SimTime::from_nanos(60));
        b.set_idle(SimTime::from_nanos(70)); // idempotent
        assert_eq!(b.busy_time(SimTime::from_nanos(100)).as_nanos(), 50);
    }

    #[test]
    fn busy_tracker_multiple_spans() {
        let mut b = BusyTracker::new();
        for start in [0u64, 100, 200] {
            b.set_busy(SimTime::from_nanos(start));
            b.set_idle(SimTime::from_nanos(start + 10));
        }
        assert_eq!(b.busy_time(SimTime::from_nanos(300)).as_nanos(), 30);
        assert!((b.utilization(SimTime::from_nanos(300)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        let buckets: Vec<_> = h.iter().collect();
        assert_eq!(buckets, vec![(0, 2), (2, 2), (1024, 1)]);
    }

    #[test]
    fn histogram_quantiles_are_monotone() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let q10 = h.quantile(0.1).unwrap();
        let q50 = h.quantile(0.5).unwrap();
        let q99 = h.quantile(0.99).unwrap();
        assert!(q10 <= q50 && q50 <= q99);
        assert!(q99 >= 512);
    }

    #[test]
    fn histogram_merge_sums_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(5);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.total(), 3);
    }
}
