//! Log-bucketed latency histogram with exact quantile queries over buckets.
//!
//! Layout: values below [`LINEAR_LIMIT`] get one bucket each (exact), every
//! larger octave `[2^k, 2^(k+1))` is split into four equal sub-buckets, so the
//! relative quantile error is bounded by 25% while the whole `u64` range fits
//! in [`NUM_BUCKETS`] fixed slots. Counts saturate instead of wrapping so a
//! pathological run can never panic or alias a small count.

/// Values below this limit are stored exactly, one bucket per value.
pub const LINEAR_LIMIT: u64 = 16;

/// Total number of buckets: 16 linear + 4 sub-buckets for each of the 60
/// octaves `[2^4, 2^5) .. [2^63, 2^64)`.
pub const NUM_BUCKETS: usize = 256;

/// Fixed-size log-linear histogram of `u64` samples (sim cycles).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: Box<[u64; NUM_BUCKETS]>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a sample value.
pub fn bucket_of(v: u64) -> usize {
    if v < LINEAR_LIMIT {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize; // >= 4
        let sub = ((v >> (msb - 2)) & 3) as usize;
        LINEAR_LIMIT as usize + (msb - 4) * 4 + sub
    }
}

/// Inclusive `[lo, hi]` value range covered by a bucket.
pub fn bucket_bounds(bucket: usize) -> (u64, u64) {
    assert!(bucket < NUM_BUCKETS, "bucket out of range");
    if (bucket as u64) < LINEAR_LIMIT {
        (bucket as u64, bucket as u64)
    } else {
        let octave = (bucket - LINEAR_LIMIT as usize) / 4;
        let sub = ((bucket - LINEAR_LIMIT as usize) % 4) as u64;
        let base = 1u64 << (octave + 4);
        let step = base / 4;
        let lo = base + sub * step;
        (lo, lo + (step - 1))
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Box::new([0; NUM_BUCKETS]),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` identical samples. Counts saturate at `u64::MAX`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let b = bucket_of(v);
        self.counts[b] = self.counts[b].saturating_add(n);
        self.total = self.total.saturating_add(n);
        self.sum = self.sum.saturating_add(v as u128 * n as u128);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples (saturating).
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`0.0 < q <= 1.0`), clamped to the recorded maximum so single-valued
    /// histograms answer exactly. Returns 0 when empty.
    ///
    /// Guarantee: for the exact order statistic `x` at rank `ceil(q * count)`,
    /// the returned value `r` satisfies `x <= r` and `bucket_of(r) ==
    /// bucket_of(x)` — i.e. the answer is never below the truth and never
    /// over-reports by more than the bucket width (25% relative).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return bucket_bounds(b).1.min(self.max);
            }
        }
        self.max
    }

    /// Iterate the non-empty buckets as `(lo, hi, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| {
                let (lo, hi) = bucket_bounds(b);
                (lo, hi, c)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_exact_below_linear_limit() {
        for v in 0..LINEAR_LIMIT {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn bucket_bounds_partition_the_u64_range() {
        // Every bucket's hi + 1 must be the next bucket's lo, ending at MAX.
        let mut expect_lo = 0u64;
        for b in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(b);
            assert_eq!(lo, expect_lo, "bucket {b} lo");
            assert!(hi >= lo);
            if b + 1 < NUM_BUCKETS {
                expect_lo = hi + 1;
            } else {
                assert_eq!(hi, u64::MAX);
            }
        }
    }

    #[test]
    fn bucket_of_matches_bounds() {
        for v in [0, 1, 15, 16, 17, 19, 20, 31, 32, 100, 1 << 20, u64::MAX] {
            let b = bucket_of(v);
            let (lo, hi) = bucket_bounds(b);
            assert!(lo <= v && v <= hi, "v={v} b={b} lo={lo} hi={hi}");
        }
    }

    #[test]
    fn single_value_quantiles_are_exact() {
        let mut h = Histogram::new();
        h.record_n(100, 7);
        for q in [0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 100);
        }
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 100);
        assert_eq!(h.mean(), 100.0);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    #[test]
    fn saturating_counts_do_not_wrap() {
        let mut h = Histogram::new();
        h.record_n(3, u64::MAX);
        h.record_n(3, 5);
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.quantile(1.0), 3);
    }
}
