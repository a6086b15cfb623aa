//! Differential tests of [`SetAssocCache`] against the structures it
//! replaced, kept as references: the array-of-ways model (verbatim, for a
//! single bank) and one independent cache per bank (for a many-bank
//! cache). Identical [`AccessResult`]s, residency and statistics, step by
//! step, over random demand / prefetch-install streams.

use hoploc_cache::{AccessResult, CacheConfig, CacheStats, SetAssocCache};
use hoploc_ptest::run_cases;

#[derive(Clone, Copy)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    last_used: u64,
    prefetched: bool,
}

/// The original `Vec<Vec<Way>>` cache: scan the set for the tag, fill the
/// first invalid way, else evict the least recently used.
struct RefCache {
    sets: Vec<Vec<Way>>,
    clock: u64,
    stats: CacheStats,
}

impl RefCache {
    fn new(config: CacheConfig) -> Self {
        let empty = Way {
            tag: 0,
            valid: false,
            dirty: false,
            last_used: 0,
            prefetched: false,
        };
        Self {
            sets: vec![vec![empty; config.ways]; config.num_sets()],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn set_index(&self, line: u64) -> usize {
        let n = self.sets.len() as u64;
        ((line ^ (line >> 7) ^ (line >> 14)) % n) as usize
    }

    fn hit(prefetched_hit: bool) -> AccessResult {
        AccessResult {
            hit: true,
            evicted: None,
            evicted_dirty: false,
            prefetched_hit,
            evicted_prefetched: false,
        }
    }

    fn fill(set: &mut [Way], line: u64, dirty: bool, prefetched: bool, clock: u64) -> AccessResult {
        let victim = if let Some(i) = set.iter().position(|w| !w.valid) {
            i
        } else {
            set.iter()
                .enumerate()
                .min_by_key(|(_, w)| w.last_used)
                .map(|(i, _)| i)
                .expect("non-empty set")
        };
        let old = set[victim];
        set[victim] = Way {
            tag: line,
            valid: true,
            dirty,
            last_used: clock,
            prefetched,
        };
        AccessResult {
            hit: false,
            evicted: old.valid.then_some(old.tag),
            evicted_dirty: old.valid && old.dirty,
            prefetched_hit: false,
            evicted_prefetched: old.valid && old.prefetched,
        }
    }

    fn access_rw(&mut self, line: u64, write: bool) -> AccessResult {
        self.clock += 1;
        self.stats.accesses += 1;
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        if let Some(w) = set.iter_mut().find(|w| w.valid && w.tag == line) {
            w.last_used = self.clock;
            w.dirty |= write;
            let prefetched_hit = w.prefetched;
            w.prefetched = false;
            self.stats.hits += 1;
            return Self::hit(prefetched_hit);
        }
        let r = Self::fill(set, line, write, false, self.clock);
        self.stats.evictions += r.evicted.is_some() as u64;
        self.stats.dirty_evictions += r.evicted_dirty as u64;
        r
    }

    fn install_prefetch(&mut self, line: u64) -> AccessResult {
        self.clock += 1;
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        if set.iter().any(|w| w.valid && w.tag == line) {
            return Self::hit(false);
        }
        Self::fill(set, line, false, true, self.clock)
    }

    fn contains(&self, line: u64) -> bool {
        self.sets[self.set_index(line)]
            .iter()
            .any(|w| w.valid && w.tag == line)
    }
}

fn geometry(ways: usize, sets: u64) -> CacheConfig {
    CacheConfig {
        size_bytes: 64 * ways as u64 * sets,
        line_bytes: 64,
        ways,
    }
}

/// `(ways, sets)`: both sides of the scan / index threshold, the one-way
/// case, a way count that is not a power of two, two set counts that are
/// not (24 and 6, one on each side of the threshold), and the four shipped
/// geometries: (2, 32) is `l1_scaled`, (2, 128) `l1_default`, (16, 64)
/// `l2_default`, (128, 1) `l2_scaled`.
const GEOMETRIES: [(usize, u64); 11] = [
    (1, 64),
    (2, 24),
    (2, 32),
    (2, 128),
    (4, 16),
    (5, 8),
    (8, 4),
    (16, 6),
    (16, 8),
    (16, 64),
    (128, 1),
];

#[test]
fn matches_the_array_of_ways_reference_step_by_step() {
    for (ways, sets) in GEOMETRIES {
        let cfg = geometry(ways, sets);
        let capacity = ways as u64 * sets;
        run_cases(&format!("cache_oracle_{ways}x{sets}"), 24, |rng| {
            let mut new = SetAssocCache::new(cfg);
            let mut old = RefCache::new(cfg);
            // Working sets from "fits" to "thrashes", with some huge line
            // addresses so the index hash sees more than small integers.
            let span = capacity * rng.u64_in(1..6) / 2 + 1;
            let base = if rng.flip() { 0 } else { rng.next_u64() >> 8 };
            for step in 0..rng.usize_in(200..3000) {
                let line = base + rng.u64_below(span);
                match rng.u64_below(15) {
                    0 | 1 => assert_eq!(
                        new.install_prefetch(0, line),
                        old.install_prefetch(line),
                        "step {step}: install_prefetch {line}"
                    ),
                    op => {
                        let write = op % 3 == 0;
                        assert_eq!(
                            new.access_rw(0, line, write),
                            old.access_rw(line, write),
                            "step {step}: access_rw {line} write={write}"
                        );
                    }
                }
                let probe = base + rng.u64_below(span);
                assert_eq!(new.contains(0, probe), old.contains(probe), "step {step}");
                assert_eq!(*new.stats(0), old.stats, "step {step}");
            }
            for line in base..base + span {
                assert_eq!(new.contains(0, line), old.contains(line), "final {line}");
            }
        });
    }
}

#[test]
fn banks_match_one_independent_cache_per_bank() {
    for (ways, sets) in GEOMETRIES {
        let cfg = geometry(ways, sets);
        let capacity = ways as u64 * sets;
        run_cases(&format!("cache_banks_{ways}x{sets}"), 8, |rng| {
            let banks = rng.usize_in(2..9);
            let mut banked = SetAssocCache::with_banks(cfg, banks);
            let mut apart: Vec<SetAssocCache> =
                (0..banks).map(|_| SetAssocCache::new(cfg)).collect();
            // One line span for every bank, so the banks hold the same
            // lines at once (private L2s sharing a line) and a bank's
            // probe must never find another bank's copy.
            let span = capacity * rng.u64_in(1..6) / 2 + 1;
            let base = if rng.flip() { 0 } else { rng.next_u64() >> 8 };
            for step in 0..rng.usize_in(200..2000) {
                let bank = rng.usize_in(0..banks);
                let line = base + rng.u64_below(span);
                match rng.u64_below(15) {
                    0 | 1 => assert_eq!(
                        banked.install_prefetch(bank, line),
                        apart[bank].install_prefetch(0, line),
                        "step {step}: bank {bank} install_prefetch {line}"
                    ),
                    op => {
                        let write = op % 3 == 0;
                        assert_eq!(
                            banked.access_rw(bank, line, write),
                            apart[bank].access_rw(0, line, write),
                            "step {step}: bank {bank} access_rw {line} write={write}"
                        );
                    }
                }
                let (probe_bank, probe) = (rng.usize_in(0..banks), base + rng.u64_below(span));
                assert_eq!(
                    banked.contains(probe_bank, probe),
                    apart[probe_bank].contains(0, probe),
                    "step {step}: bank {probe_bank} contains {probe}"
                );
                assert_eq!(banked.stats(bank), apart[bank].stats(0), "step {step}");
                if step % 64 == 0 {
                    banked.check();
                }
            }
            banked.check();
            for (bank, cache) in apart.iter().enumerate() {
                cache.check();
                assert_eq!(banked.stats(bank), cache.stats(0), "final bank {bank}");
                for line in base..base + span {
                    assert_eq!(
                        banked.contains(bank, line),
                        cache.contains(0, line),
                        "final bank {bank} line {line}"
                    );
                }
            }
        });
    }
}
