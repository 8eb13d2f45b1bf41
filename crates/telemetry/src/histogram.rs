//! Log-bucketed histograms for latencies and other nonnegative magnitudes.
//!
//! # Bucket layout
//!
//! Values below 8 get one exact bucket each (indices 0–7). Every larger value
//! lands in one of four sub-buckets per power-of-two octave: for a value with
//! most-significant bit `m >= 3`, the two bits below the MSB select the
//! sub-bucket, so
//!
//! ```text
//! index(v) = v                               for v < 8
//! index(v) = 8 + (m - 3) * 4 + ((v >> (m - 2)) & 3)   otherwise
//! ```
//!
//! Each sub-bucket spans a quarter of its octave, so any reported quantile is
//! at most ~25% above the true value — plenty for p50/p95/p99 latency work —
//! while the whole `u64` range fits in [`BUCKET_COUNT`] = 252 buckets (2 KiB
//! of counters).
//!
//! # Concurrency
//!
//! [`Histogram`] records through relaxed atomics: recording is a single
//! `fetch_add` on the bucket plus bookkeeping, never a lock. Snapshots are
//! *not* atomic across buckets — a snapshot taken during concurrent recording
//! may split a logical sample between `count` and its bucket — which is the
//! standard (and harmless) trade for lock-free statistics.
//!
//! # Merge ≡ concatenation
//!
//! Bucketing is deterministic per value, and merging adds bucket counts
//! pointwise (plus `count`/`sum` and max-of-max), so merging two snapshots is
//! *exactly* the snapshot of the concatenated sample streams. The service
//! leans on this to combine per-phase histograms, and the bench harness to
//! combine per-client recorders.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: 8 exact small-value buckets plus 4 sub-buckets for each
/// of the 61 octaves `[2^3, 2^4)` … `[2^63, 2^64)`.
pub const BUCKET_COUNT: usize = 8 + 61 * 4;

/// Bucket index for a recorded value.
#[inline]
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v < 8 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize; // >= 3 here
        let sub = ((v >> (msb - 2)) & 3) as usize;
        8 + (msb - 3) * 4 + sub
    }
}

/// Largest value that lands in bucket `index` (inclusive upper bound).
#[must_use]
pub fn bucket_upper_bound(index: usize) -> u64 {
    debug_assert!(index < BUCKET_COUNT);
    if index < 8 {
        index as u64
    } else {
        let octave = (index - 8) / 4;
        let sub = ((index - 8) % 4) as u64;
        let base = 1u64 << (octave + 3);
        let width = base >> 2;
        // `base - 1 + ...` keeps the top bucket's bound at u64::MAX without
        // overflowing the intermediate sum.
        base - 1 + (sub + 1) * width
    }
}

/// A lock-free log-bucketed histogram (see the module docs for the layout).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// A fresh empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the counters.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s counters, with quantile extraction
/// and merging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no observations.
    #[must_use]
    pub fn empty() -> Self {
        HistogramSnapshot { buckets: vec![0; BUCKET_COUNT], count: 0, sum: 0, max: 0 }
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (wrapping on overflow, like the recorder).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation, or 0 when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as the upper bound of the bucket
    /// holding the rank-`ceil(q * count)` observation, clamped to the
    /// observed maximum. Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`quantile`](Self::quantile)).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Fold another snapshot into this one. The result is exactly the
    /// snapshot of the concatenated sample streams.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_boundaries_at_octave_edges() {
        // First bucketed octave [8, 16): sub-buckets {8,9} {10,11} {12,13} {14,15}.
        assert_eq!(bucket_index(8), 8);
        assert_eq!(bucket_index(9), 8);
        assert_eq!(bucket_index(10), 9);
        assert_eq!(bucket_index(15), 11);
        assert_eq!(bucket_index(16), 12);
        assert_eq!(bucket_upper_bound(8), 9);
        assert_eq!(bucket_upper_bound(11), 15);
        // Top of the range still fits.
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
        assert_eq!(bucket_upper_bound(BUCKET_COUNT - 1), u64::MAX);
    }

    #[test]
    fn upper_bounds_bracket_their_values() {
        let probes = [
            0u64,
            1,
            7,
            8,
            12,
            100,
            1_000,
            4_095,
            4_096,
            123_456_789,
            u64::MAX / 3,
            u64::MAX,
        ];
        for &v in &probes {
            let idx = bucket_index(v);
            let upper = bucket_upper_bound(idx);
            assert!(upper >= v, "upper bound {upper} below value {v}");
            if idx > 0 {
                assert!(bucket_upper_bound(idx - 1) < v, "value {v} fits an earlier bucket");
            }
            // Relative error of reporting the upper bound: at most 25%.
            assert!((upper - v) as f64 <= 0.25 * v as f64 + 1.0, "bucket too wide at {v}");
        }
    }

    #[test]
    fn bucket_index_is_monotone() {
        let mut prev = bucket_index(0);
        let mut v = 1u64;
        while v < 1 << 20 {
            let idx = bucket_index(v);
            assert!(idx >= prev);
            prev = idx;
            v += 1;
        }
    }

    #[test]
    fn quantiles_on_a_known_distribution() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum(), 5050);
        assert_eq!(s.max(), 100);
        // p50 covers rank 50; value 50 lives in [48, 55] whose bound is 55.
        assert_eq!(s.p50(), bucket_upper_bound(bucket_index(50)));
        // p99 and p100 are clamped by the observed max.
        assert!(s.p99() >= 99 && s.p99() <= 100);
        assert_eq!(s.quantile(1.0), 100);
        // Below the first observation the histogram still answers sanely.
        assert!(s.quantile(0.0) >= 1);
    }

    #[test]
    fn empty_snapshot_is_all_zeroes() {
        let s = Histogram::new().snapshot();
        assert_eq!(s, HistogramSnapshot::empty());
        assert_eq!(s.p50(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn merge_is_concatenation_on_a_fixed_example() {
        let (a, b, ab) = (Histogram::new(), Histogram::new(), Histogram::new());
        let xs = [3u64, 9, 9, 77, 1_000_000];
        let ys = [0u64, 8, 500, u64::MAX];
        for &x in &xs {
            a.record(x);
            ab.record(x);
        }
        for &y in &ys {
            b.record(y);
            ab.record(y);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, ab.snapshot());
    }
}
