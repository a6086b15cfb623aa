//! Property-based tests of the cache and directory invariants.

use hoploc_cache::{CacheConfig, Directory, SetAssocCache};
use hoploc_ptest::run_cases;
use std::collections::HashSet;

#[test]
fn accessed_line_becomes_resident() {
    run_cases("accessed_line_becomes_resident", 64, |rng| {
        let lines = rng.vec_u64(1..200, 0..4096);
        let mut c = SetAssocCache::new(CacheConfig::l1_default());
        for &l in &lines {
            c.access(l);
            assert!(c.contains(l), "line {l} not resident right after access");
        }
    });
}

#[test]
fn capacity_is_never_exceeded() {
    run_cases("capacity_is_never_exceeded", 64, |rng| {
        let lines = rng.vec_u64(1..400, 0..100_000);
        let cfg = CacheConfig {
            size_bytes: 1024,
            line_bytes: 64,
            ways: 2,
        };
        let capacity = (cfg.size_bytes / cfg.line_bytes) as usize;
        let mut c = SetAssocCache::new(cfg);
        let mut resident: HashSet<u64> = HashSet::new();
        for &l in &lines {
            let r = c.access(l);
            if let Some(e) = r.evicted {
                resident.remove(&e);
            }
            resident.insert(l);
            assert!(resident.len() <= capacity);
        }
        // The model agrees with our shadow set.
        for &l in &resident {
            assert!(c.contains(l));
        }
    });
}

#[test]
fn hits_plus_misses_equals_accesses() {
    run_cases("hits_plus_misses_equals_accesses", 64, |rng| {
        let lines = rng.vec_u64(1..300, 0..512);
        let mut c = SetAssocCache::new(CacheConfig::l2_default());
        for &l in &lines {
            c.access(l);
        }
        let s = c.stats();
        assert_eq!(s.accesses, lines.len() as u64);
        assert_eq!(s.hits + s.misses(), s.accesses);
    });
}

#[test]
fn invalidate_removes() {
    run_cases("invalidate_removes", 64, |rng| {
        let line = rng.u64_in(0..10_000);
        let mut c = SetAssocCache::new(CacheConfig::l1_default());
        c.access(line);
        assert!(c.invalidate(line));
        assert!(!c.contains(line));
    });
}

/// [`SetAssocCache::check`] after every operation of a demand / prefetch /
/// invalidate mix: the index of a cache with indexed sets names exactly
/// the valid slots, and a cache with scanned sets owns no index.
/// Geometries on both sides of the threshold, with set counts that are
/// and are not powers of two.
#[test]
fn structure_invariants_hold_after_every_operation() {
    for (ways, sets) in [
        (2, 24),
        (2, 32),
        (4, 16),
        (5, 8),
        (16, 6),
        (16, 8),
        (128, 1),
    ] {
        let cfg = CacheConfig {
            size_bytes: 64 * ways as u64 * sets,
            line_bytes: 64,
            ways,
        };
        run_cases(&format!("cache_structure_{ways}x{sets}"), 12, |rng| {
            let mut c = SetAssocCache::new(cfg);
            c.check();
            let span = ways as u64 * sets * rng.u64_in(1..5) / 2 + 1;
            for _ in 0..rng.usize_in(100..600) {
                let line = rng.u64_below(span);
                match rng.u64_below(8) {
                    0 | 1 => {
                        c.invalidate(line);
                    }
                    2 => {
                        c.install_prefetch(line);
                    }
                    op => {
                        c.access_rw(line, op == 3);
                    }
                }
                c.check();
            }
        });
    }
}

#[test]
fn directory_tracks_sharers_exactly() {
    run_cases("directory_tracks_sharers_exactly", 64, |rng| {
        let n_ops = rng.usize_in(1..200);
        let ops: Vec<(u64, usize, bool)> = (0..n_ops)
            .map(|_| (rng.u64_in(0..64), rng.usize_in(0..32), rng.flip()))
            .collect();
        let mut dir = Directory::new();
        let mut shadow: std::collections::HashMap<u64, HashSet<usize>> = Default::default();
        for &(line, node, add) in &ops {
            if add {
                dir.add_sharer(line, node);
                shadow.entry(line).or_default().insert(node);
            } else {
                dir.remove_sharer(line, node);
                if let Some(s) = shadow.get_mut(&line) {
                    s.remove(&node);
                }
            }
        }
        for (line, sharers) in &shadow {
            let mut expect: Vec<usize> = sharers.iter().copied().collect();
            expect.sort_unstable();
            assert_eq!(dir.sharers(*line).iter().collect::<Vec<_>>(), expect);
            assert_eq!(dir.sharers(*line).len(), expect.len());
        }
    });
}
