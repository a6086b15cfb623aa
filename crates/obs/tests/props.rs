//! Randomized properties of the log-bucketed histogram, checked against an
//! exact sorted-vector oracle.
//!
//! The contract under test is [`Histogram::quantile`]'s documented
//! guarantee: for the order statistic `x` at rank `ceil(q * count)`, the
//! returned value `r` satisfies `x <= r`, lands in the same bucket as `x`
//! (so the over-report is bounded by the bucket width — 25% relative),
//! and never exceeds the recorded maximum.

use hoploc_obs::hist::{bucket_of, Histogram, LINEAR_LIMIT};
use hoploc_ptest::{run_cases, SmallRng};

/// Samples spread across the full bucket layout: exact linear values,
/// octave boundaries, and wide-range values up to 2^48.
fn sample_value(rng: &mut SmallRng) -> u64 {
    match rng.u64_below(4) {
        0 => rng.u64_below(LINEAR_LIMIT),
        1 => rng.u64_in(LINEAR_LIMIT..256),
        2 => {
            // Octave edges stress the bucket-boundary arithmetic.
            let shift = rng.u64_in(4..48);
            (1u64 << shift) + rng.u64_below(3) - 1
        }
        _ => rng.u64_in(0..1 << 48),
    }
}

/// The exact rank the histogram's `quantile` targets.
fn oracle(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[test]
fn quantile_is_a_tight_upper_bound_on_the_sorted_oracle() {
    run_cases("quantile_vs_sorted_oracle", 256, |rng| {
        let n = rng.usize_in(1..400);
        let vals: Vec<u64> = (0..n).map(|_| sample_value(rng)).collect();
        let mut h = Histogram::new();
        for &v in &vals {
            h.record(v);
        }
        let mut sorted = vals;
        sorted.sort_unstable();

        assert_eq!(h.count(), sorted.len() as u64);
        assert_eq!(h.min(), sorted[0]);
        assert_eq!(h.max(), *sorted.last().unwrap());
        let exact_mean = sorted.iter().map(|&v| v as u128).sum::<u128>() as f64 / n as f64;
        assert!((h.mean() - exact_mean).abs() <= 1e-9 * exact_mean.max(1.0));

        for q in [0.001, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
            let x = oracle(&sorted, q);
            let r = h.quantile(q);
            assert!(r >= x, "q={q}: reported {r} below exact {x}");
            assert!(r <= h.max(), "q={q}: reported {r} above max {}", h.max());
            assert_eq!(
                bucket_of(r),
                bucket_of(x),
                "q={q}: reported {r} left the exact value's bucket ({x})"
            );
        }
    });
}

#[test]
fn values_below_the_linear_limit_quantile_exactly() {
    // One bucket per value below LINEAR_LIMIT, so every quantile must
    // equal the oracle exactly, not just bucket-wise.
    run_cases("linear_range_is_exact", 128, |rng| {
        let vals = rng.vec_u64(1..200, 0..LINEAR_LIMIT);
        let mut h = Histogram::new();
        for &v in &vals {
            h.record(v);
        }
        let mut sorted = vals;
        sorted.sort_unstable();
        for q in [0.1, 0.5, 0.9, 1.0] {
            assert_eq!(h.quantile(q), oracle(&sorted, q));
        }
    });
}

#[test]
fn single_bucket_histograms_answer_with_the_recorded_max() {
    // All mass in one bucket: every quantile is clamped to the recorded
    // maximum, whatever the bucket's upper bound is.
    run_cases("single_bucket_clamps_to_max", 128, |rng| {
        let base = sample_value(rng);
        let b = bucket_of(base);
        let mut h = Histogram::new();
        let mut max = 0;
        for _ in 0..rng.usize_in(1..20) {
            // Another value from the same bucket (octave sub-buckets span
            // a range; linear buckets are a single value).
            let (lo, hi) = hoploc_obs::hist::bucket_bounds(b);
            let v = rng.u64_in(lo..hi.saturating_add(1).max(lo + 1));
            assert_eq!(bucket_of(v), b);
            h.record(v);
            max = max.max(v);
        }
        for q in [0.01, 0.5, 1.0] {
            assert_eq!(h.quantile(q), max);
        }
    });
}

#[test]
fn saturating_counts_never_wrap_or_panic() {
    run_cases("saturating_counts", 64, |rng| {
        let mut h = Histogram::new();
        let small = sample_value(rng);
        let big = sample_value(rng).max(small);
        h.record_n(small, u64::MAX - rng.u64_below(3));
        h.record_n(big, rng.u64_in(1..1000));
        assert_eq!(h.count(), u64::MAX, "count must saturate, not wrap");
        // The saturated low bucket holds every rank, so all quantiles
        // resolve inside it.
        assert_eq!(bucket_of(h.quantile(0.5)), bucket_of(small));
        assert!(h.quantile(1.0) <= h.max());
        assert_eq!(h.max(), big);
    });
}
