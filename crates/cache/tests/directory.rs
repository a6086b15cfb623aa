//! `Directory` against the hash-map directory it replaced, kept here as
//! the reference: seeded streams of adds, removes (pruning a line's last
//! sharer), lookups and reads over a line range with a bound, comparing
//! every answer, `len`, `is_empty` and the hit/miss counters after each
//! operation.

use hoploc_cache::{Directory, IntMap};
use hoploc_ptest::{run_cases, SmallRng};

/// The `IntMap<u64, u128>` directory, verbatim but for the sink.
#[derive(Default)]
struct RefDirectory {
    entries: IntMap<u64, u128>,
    on_chip_hits: u64,
    off_chip_misses: u64,
}

impl RefDirectory {
    fn add_sharer(&mut self, line: u64, node: usize) {
        *self.entries.entry(line).or_insert(0) |= 1u128 << node;
    }

    fn remove_sharer(&mut self, line: u64, node: usize) {
        if let Some(mask) = self.entries.get_mut(&line) {
            *mask &= !(1u128 << node);
            if *mask == 0 {
                self.entries.remove(&line);
            }
        }
    }

    fn sharers(&self, line: u64) -> Vec<usize> {
        let mask = self.entries.get(&line).copied().unwrap_or(0);
        (0..128).filter(|n| mask & (1u128 << n) != 0).collect()
    }

    fn lookup(&mut self, line: u64, requester: usize) -> Vec<usize> {
        let mut sharers = self.sharers(line);
        sharers.retain(|&n| n != requester);
        if sharers.is_empty() {
            self.off_chip_misses += 1;
        } else {
            self.on_chip_hits += 1;
        }
        sharers
    }
}

fn step(rng: &mut SmallRng, lines: u64, dir: &mut Directory, reference: &mut RefDirectory) {
    let line = rng.u64_below(lines);
    let node = rng.usize_in(0..Directory::MAX_NODES);
    match rng.u64_below(5) {
        0 | 1 => {
            dir.add_sharer(line, node);
            reference.add_sharer(line, node);
        }
        2 => {
            // Mostly a sharer the line has, so lines empty out and prune.
            let node = reference.sharers(line).first().copied().unwrap_or(node);
            dir.remove_sharer(line, node);
            reference.remove_sharer(line, node);
        }
        3 => {
            let got: Vec<usize> = dir.lookup(line, node).iter().collect();
            assert_eq!(got, reference.lookup(line, node), "lookup({line}, {node})");
        }
        _ => {
            let got = dir.sharers(line);
            let want = reference.sharers(line);
            assert_eq!(got.iter().collect::<Vec<_>>(), want, "sharers({line})");
            assert_eq!(got.len(), want.len());
            assert_eq!(dir.has_sharer(line), !want.is_empty());
        }
    }
    assert_eq!(dir.len(), reference.entries.len());
    assert_eq!(dir.is_empty(), reference.entries.is_empty());
    assert_eq!(dir.on_chip_hits, reference.on_chip_hits);
    assert_eq!(dir.off_chip_misses, reference.off_chip_misses);
}

#[test]
fn directory_matches_the_hash_map_reference() {
    run_cases("directory_matches_the_hash_map_reference", 64, |rng| {
        // Few lines: sharer sets fill and empty; many: the table grows.
        let lines = [4, 64, 4096][rng.usize_in(0..3)];
        let mut dir = Directory::with_line_bound(lines);
        let mut reference = RefDirectory::default();
        for _ in 0..rng.usize_in(1..2000) {
            step(rng, lines, &mut dir, &mut reference);
        }
        // Reads and removes beyond the highest line added find nothing.
        assert!(dir.sharers(lines).is_empty());
        dir.remove_sharer(lines + 7, 3);
        assert_eq!(dir.len(), reference.entries.len());
    });
}

#[test]
fn unbounded_directory_matches_the_reference() {
    run_cases("unbounded_directory_matches_the_reference", 16, |rng| {
        let mut dir = Directory::new();
        let mut reference = RefDirectory::default();
        for _ in 0..500 {
            step(rng, 1 << 12, &mut dir, &mut reference);
        }
    });
}

#[test]
fn the_last_line_below_the_bound_is_accepted() {
    let mut dir = Directory::with_line_bound(100);
    dir.add_sharer(99, 127);
    assert_eq!(dir.sharers(99).iter().collect::<Vec<_>>(), vec![127]);
    assert_eq!(dir.len(), 1);
}

#[test]
#[should_panic(expected = "beyond the directory's 100 lines")]
fn a_line_at_the_bound_is_refused() {
    Directory::with_line_bound(100).add_sharer(100, 0);
}
