//! # hoploc-ptest
//!
//! A dependency-free, deterministic pseudo-random number generator and a
//! tiny randomized-property test harness. The workspace builds in fully
//! offline environments, so this crate stands in for `rand` (the
//! [`SmallRng`] generator) and for `proptest` (the [`run_cases`] driver):
//! every test case is derived from a fixed seed, so failures reproduce
//! exactly and reruns are bit-identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;

/// A small, fast, deterministic PRNG (xorshift64* seeded through
/// splitmix64). Not cryptographic; statistically fine for test-case and
/// jitter generation.
#[derive(Clone, Debug)]
pub struct SmallRng {
    state: u64,
}

impl SmallRng {
    /// Creates a generator from a seed. Any seed (including 0) is valid;
    /// the seed is diffused through splitmix64 before use.
    pub fn seed_from_u64(seed: u64) -> Self {
        // One splitmix64 round guarantees a non-zero, well-mixed state.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Self { state: z | 1 }
    }

    /// Derives an independent generator keyed by `key` — the tool for
    /// giving each parallel run its own stream without sharing state.
    pub fn fork(&self, key: u64) -> Self {
        Self::seed_from_u64(self.state ^ key.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, n)`. `n` must be non-zero.
    pub fn u64_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "u64_below requires a non-empty range");
        // Rejection sampling keeps the distribution exactly uniform.
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Uniform `u64` in a half-open range.
    pub fn u64_in(&mut self, r: Range<u64>) -> u64 {
        assert!(r.start < r.end, "empty range");
        r.start + self.u64_below(r.end - r.start)
    }

    /// Uniform `i64` in a half-open range.
    pub fn i64_in(&mut self, r: Range<i64>) -> i64 {
        assert!(r.start < r.end, "empty range");
        let span = r.end.wrapping_sub(r.start) as u64;
        r.start.wrapping_add(self.u64_below(span) as i64)
    }

    /// Uniform `usize` in a half-open range.
    pub fn usize_in(&mut self, r: Range<usize>) -> usize {
        self.u64_in(r.start as u64..r.end as u64) as usize
    }

    /// Uniform `u32` in a half-open range.
    pub fn u32_in(&mut self, r: Range<u32>) -> u32 {
        self.u64_in(r.start as u64..r.end as u64) as u32
    }

    /// Uniform `u16` in a half-open range.
    pub fn u16_in(&mut self, r: Range<u16>) -> u16 {
        self.u64_in(r.start as u64..r.end as u64) as u16
    }

    /// A fair coin flip.
    pub fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A vector of uniform `u64`s with length drawn from `len` and values
    /// drawn from `val`.
    pub fn vec_u64(&mut self, len: Range<usize>, val: Range<u64>) -> Vec<u64> {
        let n = self.usize_in(len);
        (0..n).map(|_| self.u64_in(val.clone())).collect()
    }
}

/// Runs `cases` deterministic randomized test cases. Each case gets a
/// generator seeded from the test `name` and the case index, so adding or
/// removing sibling tests never shifts another test's inputs. On panic,
/// the failing case index and seed are printed before the panic resumes.
pub fn run_cases(name: &str, cases: usize, mut body: impl FnMut(&mut SmallRng)) {
    for case in 0..cases {
        let seed = hash_name(name) ^ (case as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let mut rng = SmallRng::seed_from_u64(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(e) = result {
            eprintln!("property `{name}` failed at case {case} (seed {seed:#018x})");
            std::panic::resume_unwind(e);
        }
    }
}

/// FNV-1a over the test name: a stable, platform-independent seed source.
fn hash_name(name: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_are_respected() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.i64_in(-9..10);
            assert!((-9..10).contains(&v));
            let u = rng.u64_below(3);
            assert!(u < 3);
            let w = rng.usize_in(1..2);
            assert_eq!(w, 1);
        }
    }

    #[test]
    fn values_cover_the_range() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.usize_in(0..10)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
    }

    #[test]
    fn forked_streams_differ() {
        let base = SmallRng::seed_from_u64(3);
        let mut a = base.fork(1);
        let mut b = base.fork(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn run_cases_passes_distinct_rngs() {
        let mut firsts = Vec::new();
        run_cases("collect", 8, |rng| firsts.push(rng.next_u64()));
        assert_eq!(firsts.len(), 8);
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), 8, "case streams must differ");
    }
}
