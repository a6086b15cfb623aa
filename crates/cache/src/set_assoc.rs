//! A set-associative cache model with LRU replacement.
//!
//! The model tracks tags only (no data): the simulator needs hit/miss
//! decisions and evictions, not contents. Addresses are *line* addresses
//! (byte address divided by the line size) — the caller chooses the
//! granularity, which lets the same structure serve 64 B L1 lines and
//! 256 B L2 lines (Table 1).
//!
//! The two are opposite geometries on the host as well: a 2-way L1 that
//! misses most of the time, and a 128-way scaled L2 behind it. The cache
//! therefore finds a line the way its associativity calls for — narrow
//! sets are scanned and keep nothing beside their slots, wide sets are
//! found through an index and keep a recency list — with one replacement
//! rule and one set of results ([`SetAssocCache`]).

use std::fmt;

/// Geometry of a cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line (block) size in bytes.
    pub line_bytes: u64,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// The paper's per-node L1: 16 KB, 64 B lines, 2-way (Table 1).
    pub fn l1_default() -> Self {
        Self {
            size_bytes: 16 * 1024,
            line_bytes: 64,
            ways: 2,
        }
    }

    /// The paper's per-node L2: 256 KB, 256 B lines, 16-way (Table 1).
    pub fn l2_default() -> Self {
        Self {
            size_bytes: 256 * 1024,
            line_bytes: 256,
            ways: 16,
        }
    }

    /// Capacity-scaled L1 (4 KB): same geometry as Table 1 but shrunk 4×,
    /// pairing with workload inputs shrunk ~16× from the paper's
    /// 124 MB–1.9 GB so the input-to-cache capacity ratios are preserved.
    pub fn l1_scaled() -> Self {
        Self {
            size_bytes: 4 * 1024,
            line_bytes: 64,
            ways: 2,
        }
    }

    /// Capacity-scaled L2 (32 KB per node): see [`CacheConfig::l1_scaled`].
    /// Modelled fully associative: at 128 lines, the paper's 16 ways would
    /// leave only 8 sets, whose occupancy variance under any layout is a
    /// shrinking artifact the 1024-line original never exhibits.
    pub fn l2_scaled() -> Self {
        Self {
            size_bytes: 32 * 1024,
            line_bytes: 256,
            ways: 128,
        }
    }

    /// Number of sets this geometry produces.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (zero sizes, capacity not a
    /// multiple of `line_bytes * ways`).
    pub fn num_sets(&self) -> usize {
        assert!(self.line_bytes > 0 && self.ways > 0 && self.size_bytes > 0);
        let lines = self.size_bytes / self.line_bytes;
        assert!(
            (lines as usize).is_multiple_of(self.ways) && lines > 0,
            "capacity must be a whole number of sets"
        );
        lines as usize / self.ways
    }
}

/// Result of a cache access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessResult {
    /// Whether the line was present.
    pub hit: bool,
    /// Line address evicted to make room, if any.
    pub evicted: Option<u64>,
    /// Whether the evicted line was dirty (needs a writeback).
    pub evicted_dirty: bool,
    /// The hit landed on a line installed by a prefetch that had not been
    /// demanded yet (the prefetch proved *useful*; the mark is cleared).
    pub prefetched_hit: bool,
    /// The evicted line was a prefetch nobody ever demanded (the prefetch
    /// proved *harmful*: pure pollution).
    pub evicted_prefetched: bool,
}

/// Demand counters: [`install_prefetch`](SetAssocCache::install_prefetch)
/// moves none of them.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Misses whose fill evicted a valid line.
    pub evictions: u64,
    /// Evictions of a dirty line.
    pub dirty_evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (0 when empty).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// `flags` bit: the line was written since it was filled.
const DIRTY: u8 = 1;
/// `flags` bit: installed by a prefetch and not yet touched by a demand
/// access.
const PREFETCHED: u8 = 2;
/// An unoccupied bucket of the line → slot index.
const EMPTY: u32 = u32::MAX;
/// Sets of at most this many ways are scanned; wider ones are indexed.
/// A miss in a scanned set costs a compare per way, where keeping an index
/// over it cost a failed probe, a removal with its backward shift and an
/// insertion: a stream of misses through the 2-way scaled L1 takes 18 ns
/// an access scanned and 66 ns indexed, and that L1 misses 84 % of the
/// miss-heavy sweep's accesses. A hit in a 128-way set must not compare
/// 128 tags.
const SCAN_WAYS: usize = 4;
/// The widest set: indexed sets link their ways by `u8` way numbers.
const MAX_WAYS: usize = 256;

/// A tag-only set-associative LRU cache.
///
/// Ways are stored structure-of-arrays (slot = `set * ways + way`). How a
/// line is found follows from the associativity, decided once in
/// [`new`](Self::new):
///
/// * **scanned sets** (at most four ways: the 2-way L1s) compare the
///   set's own tags. Nothing is kept beside the slots, so a miss
///   maintains nothing;
/// * **indexed sets** (the 16-way L2, the 128-way scaled L2) find a line
///   through one open-addressed line → slot index per cache, so a hit
///   compares no other tag of the set, and keep their ways in a circular
///   recency list, so a miss reads no other way's stamp either.
///
/// Both replace the same way: the first invalid way by position, else the
/// least recently used. `AccessResult`s, residency and statistics do not
/// depend on which of the two a geometry gets (`tests/oracle.rs`).
///
/// An indexed set finds that way without a scan. No line is ever
/// invalidated, so its valid ways are always `0..filled` and the first
/// invalid one is way `filled`. Every stamp is set by a touch that moves
/// its way to the list's head, so once the set is full the tail holds the
/// smallest stamp: the least recently used line.
///
/// # Examples
///
/// ```
/// use hoploc_cache::{CacheConfig, SetAssocCache};
///
/// let mut c = SetAssocCache::new(CacheConfig::l1_default());
/// assert!(!c.access(42).hit); // cold miss
/// assert!(c.access(42).hit); // now resident
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    num_sets: u64,
    /// The line each slot holds; meaningful while the slot is valid.
    tags: Vec<u64>,
    /// LRU timestamp of each slot, `0` while the way is invalid. Valid
    /// ways carry distinct values `>= 1` (the access clock), so "first
    /// invalid way by position, else least recently used" is the first
    /// minimum of a set's slice: how a scanned set finds its victim.
    last_used: Vec<u64>,
    flags: Vec<u8>,
    /// Line → slot: linear probing from a multiplicative hash, deletion by
    /// backward shift (no tombstones), sized to at most half full. Buckets
    /// name valid slots only; the key of a bucket is `tags[slot]`. Empty,
    /// and never allocated, when sets are scanned.
    index: Vec<u32>,
    index_shift: u32,
    /// Each slot's neighbours in its set's circular recency list, as way
    /// numbers: `older` runs from the head (most recently used) to the
    /// tail and wraps to the head, `newer` the other way. Empty, like
    /// `mru` and `filled`, when sets are scanned.
    older: Vec<u8>,
    newer: Vec<u8>,
    /// Per set: its most recently used way, the list's head.
    mru: Vec<u8>,
    /// Per set: how many of its ways are valid.
    filled: Vec<u16>,
    clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`CacheConfig::num_sets`]).
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        let lines = num_sets * config.ways;
        assert!(lines < EMPTY as usize / 2, "cache has too many lines");
        assert!(
            config.ways <= MAX_WAYS,
            "a set holds at most {MAX_WAYS} ways, not {}",
            config.ways
        );
        let indexed = config.ways > SCAN_WAYS;
        let buckets = if indexed {
            (2 * lines).next_power_of_two()
        } else {
            0
        };
        let (links, sets) = if indexed { (lines, num_sets) } else { (0, 0) };
        Self {
            config,
            num_sets: num_sets as u64,
            tags: vec![0; lines],
            last_used: vec![0; lines],
            flags: vec![0; lines],
            index: vec![EMPTY; buckets],
            index_shift: 64 - buckets.trailing_zeros(),
            older: vec![0; links],
            newer: vec![0; links],
            mru: vec![0; sets],
            filled: vec![0; sets],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// XOR-folded set index. Hardware LLCs hash the set index so that
    /// power-of-two address strides (such as the `N′`-unit stride a
    /// controller-interleaved layout produces) do not concentrate on a
    /// few sets; plain modulo indexing would turn the localized layout's
    /// slot stride into pathological conflict misses that no real machine
    /// exhibits.
    fn set_index(&self, line: u64) -> usize {
        ((line ^ (line >> 7) ^ (line >> 14)) % self.num_sets) as usize
    }

    /// The bucket a line's probe sequence starts at.
    fn home(&self, line: u64) -> usize {
        (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.index_shift) as usize
    }

    /// The index bucket holding `line`, if it is resident.
    fn find_bucket(&self, line: u64) -> Option<usize> {
        let mask = self.index.len() - 1;
        let mut b = self.home(line);
        loop {
            let slot = self.index[b];
            if slot == EMPTY {
                return None;
            }
            if self.tags[slot as usize] == line {
                return Some(b);
            }
            b = (b + 1) & mask;
        }
    }

    /// Whether sets are scanned (and `index` is empty) or indexed.
    fn scanned(&self) -> bool {
        self.config.ways <= SCAN_WAYS
    }

    /// The slot of `set` holding `line`, if it is resident.
    fn find(&self, set: usize, line: u64) -> Option<usize> {
        if !self.scanned() {
            return self.find_bucket(line).map(|b| self.index[b] as usize);
        }
        let ways = self.config.ways;
        let base = set * ways;
        let tags = &self.tags[base..base + ways];
        let ages = &self.last_used[base..base + ways];
        for way in 0..ways {
            if tags[way] == line && ages[way] != 0 {
                return Some(base + way);
            }
        }
        None
    }

    fn index_insert(&mut self, line: u64, slot: usize) {
        let mask = self.index.len() - 1;
        let mut b = self.home(line);
        while self.index[b] != EMPTY {
            b = (b + 1) & mask;
        }
        self.index[b] = slot as u32;
    }

    /// Removes a resident line's bucket, shifting later members of its
    /// probe run back so every remaining line stays reachable from its
    /// home bucket. Reads the tags of the shifted lines: call before the
    /// slot is overwritten.
    fn index_remove(&mut self, line: u64) {
        let mask = self.index.len() - 1;
        let mut hole = self
            .find_bucket(line)
            .expect("invariant: every valid slot has an index bucket");
        let mut b = hole;
        loop {
            b = (b + 1) & mask;
            let slot = self.index[b];
            if slot == EMPTY {
                break;
            }
            // A line may move into the hole only if that keeps it at or
            // after its home bucket along the probe direction.
            let home = self.home(self.tags[slot as usize]);
            if (b.wrapping_sub(home) & mask) >= (b.wrapping_sub(hole) & mask) {
                self.index[hole] = slot;
                hole = b;
            }
        }
        self.index[hole] = EMPTY;
    }

    /// Accesses a line (by line address), allocating it on miss.
    /// Returns whether it hit and any line evicted to make room.
    pub fn access(&mut self, line: u64) -> AccessResult {
        self.access_rw(line, false)
    }

    /// Like [`access`](Self::access), additionally marking the line dirty
    /// when `write` is set, and reporting the evicted line's dirtiness so
    /// the caller can issue a writeback.
    pub fn access_rw(&mut self, line: u64, write: bool) -> AccessResult {
        self.clock += 1;
        self.stats.accesses += 1;
        let set = self.set_index(line);
        if let Some(slot) = self.find(set, line) {
            self.last_used[slot] = self.clock;
            if !self.scanned() {
                self.touch(set, slot);
            }
            let flags = self.flags[slot];
            self.flags[slot] = (flags | if write { DIRTY } else { 0 }) & !PREFETCHED;
            self.stats.hits += 1;
            return AccessResult {
                hit: true,
                evicted: None,
                evicted_dirty: false,
                prefetched_hit: flags & PREFETCHED != 0,
                evicted_prefetched: false,
            };
        }
        let r = self.fill(set, line, if write { DIRTY } else { 0 });
        self.stats.evictions += u64::from(r.evicted.is_some());
        self.stats.dirty_evictions += u64::from(r.evicted_dirty);
        r
    }

    /// Installs a prefetched line without touching the demand statistics:
    /// [`CacheStats`] keep counting demand traffic only, so a run's hit
    /// rates stay comparable across prefetch settings. A line that is
    /// already resident is left exactly as it is (the demand that raced
    /// the prefetch owns it); otherwise the line fills an invalid way or
    /// evicts LRU, is marked [`prefetched`](AccessResult::prefetched_hit)
    /// until first demand touch, and any victim is reported as usual.
    pub fn install_prefetch(&mut self, line: u64) -> AccessResult {
        self.clock += 1;
        let set = self.set_index(line);
        if self.find(set, line).is_some() {
            return AccessResult {
                hit: true,
                evicted: None,
                evicted_dirty: false,
                prefetched_hit: false,
                evicted_prefetched: false,
            };
        }
        self.fill(set, line, PREFETCHED)
    }

    /// Moves `slot`, valid and in indexed `set`, to the head of the set's
    /// recency list.
    fn touch(&mut self, set: usize, slot: usize) {
        let base = set * self.config.ways;
        let way = (slot - base) as u8;
        let head = self.mru[set];
        if way == head {
            return;
        }
        let (older, newer) = (self.older[slot], self.newer[slot]);
        self.newer[base + older as usize] = newer;
        self.older[base + newer as usize] = older;
        self.push_head(set, way);
    }

    /// Links `way`, not in the list, in as the new head of `set`'s list.
    /// On an empty set `mru` is way 0 and its links name itself (as
    /// allocated), so way 0 ends up a list of one.
    fn push_head(&mut self, set: usize, way: u8) {
        let base = set * self.config.ways;
        let head = self.mru[set];
        let tail = self.newer[base + head as usize];
        self.older[base + way as usize] = head;
        self.newer[base + way as usize] = tail;
        self.newer[base + head as usize] = way;
        self.older[base + tail as usize] = way;
        self.mru[set] = way;
    }

    /// The way of `set` a fill takes: the first invalid way by position,
    /// else the least recently used. An indexed set's becomes its most
    /// recently used here.
    fn victim(&mut self, set: usize) -> usize {
        let ways = self.config.ways;
        let base = set * ways;
        if self.scanned() {
            let ages = &self.last_used[base..base + ways];
            // First minimum. Kept a plain compare-and-keep loop: fancier
            // iterator chains here have compiled to several times the cost.
            let mut way = 0;
            let mut oldest = ages[0];
            for (w, &age) in ages.iter().enumerate() {
                if age < oldest {
                    oldest = age;
                    way = w;
                }
            }
            return way;
        }
        let filled = self.filled[set] as usize;
        if filled < ways {
            self.filled[set] += 1;
            self.push_head(set, filled as u8);
            return filled;
        }
        // Full: the tail becomes the head by turning the circle one step.
        let tail = self.newer[base + self.mru[set] as usize];
        self.mru[set] = tail;
        tail as usize
    }

    /// Miss path: fills the first invalid way of `set`, the line's set,
    /// else evicts its least recently used line.
    fn fill(&mut self, set: usize, line: u64, flags: u8) -> AccessResult {
        let slot = set * self.config.ways + self.victim(set);
        let mut result = AccessResult {
            hit: false,
            evicted: None,
            evicted_dirty: false,
            prefetched_hit: false,
            evicted_prefetched: false,
        };
        if self.last_used[slot] != 0 {
            let victim = self.tags[slot];
            if !self.scanned() {
                self.index_remove(victim);
            }
            result.evicted = Some(victim);
            result.evicted_dirty = self.flags[slot] & DIRTY != 0;
            result.evicted_prefetched = self.flags[slot] & PREFETCHED != 0;
        }
        self.tags[slot] = line;
        self.last_used[slot] = self.clock;
        self.flags[slot] = flags;
        if !self.scanned() {
            self.index_insert(line, slot);
        }
        result
    }

    /// Checks residency without updating LRU state or statistics.
    pub fn contains(&self, line: u64) -> bool {
        self.find(self.set_index(line), line).is_some()
    }

    /// Panics unless the cache keeps what its associativity calls for: no
    /// index or recency list over scanned sets; over indexed sets an index
    /// that names exactly the valid slots, and in each set a list that
    /// runs over ways `0..filled` once each, from the MRU way in strictly
    /// decreasing stamps, with no valid way at or past `filled`. For tests,
    /// which call it after every operation; costs a pass over the whole
    /// cache.
    #[doc(hidden)]
    pub fn check(&self) {
        if self.scanned() {
            assert!(self.index.is_empty(), "a scanned cache owns no index");
            assert!(self.older.is_empty() && self.mru.is_empty());
            return;
        }
        let ways = self.config.ways;
        for set in 0..self.num_sets as usize {
            let (base, filled) = (set * ways, self.filled[set] as usize);
            let stamp = |way: usize| self.last_used[base + way];
            assert!(
                (0..ways).all(|w| (stamp(w) != 0) == (w < filled)),
                "set {set}: valid ways are not 0..{filled}"
            );
            // Strictly decreasing stamps make the ways distinct, so `filled`
            // steps that end back at the head visit each valid way once.
            let head = self.mru[set] as usize;
            assert!(head < filled.max(1), "set {set}: head {head} is invalid");
            let mut way = head;
            for step in 1..=filled {
                let older = self.older[base + way] as usize;
                assert_eq!(self.newer[base + older] as usize, way, "set {set}");
                let ordered = if step == filled {
                    older == head
                } else {
                    older < filled && stamp(older) < stamp(way)
                };
                assert!(ordered, "set {set}: not ways 0..{filled} from MRU to LRU");
                way = older;
            }
        }
        let valid = |slot: &usize| self.last_used[*slot] != 0;
        let named = self.index.iter().filter(|&&s| s != EMPTY).count();
        assert_eq!(named, (0..self.tags.len()).filter(valid).count());
        for slot in (0..self.tags.len()).filter(valid) {
            let line = self.tags[slot];
            assert_eq!(
                self.find(self.set_index(line), line),
                Some(slot),
                "slot {slot} is not what the index finds for its line"
            );
        }
    }
}

impl fmt::Display for SetAssocCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} sets x {} ways, {:.1}% hit",
            self.num_sets,
            self.config.ways,
            self.stats.hit_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways x 64B lines.
        SetAssocCache::new(CacheConfig {
            size_bytes: 256,
            line_bytes: 64,
            ways: 2,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(10).hit);
        assert!(c.access(10).hit);
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even line addresses).
        c.access(0);
        c.access(2);
        c.access(0); // 0 is now MRU, 2 is LRU
        let r = c.access(4);
        assert_eq!(r.evicted, Some(2));
        assert!(c.contains(0));
        assert!(!c.contains(2));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        c.access(0); // set 0
        c.access(1); // set 1
        c.access(2); // set 0
        c.access(3); // set 1
        assert!(c.contains(0) && c.contains(1) && c.contains(2) && c.contains(3));
    }

    #[test]
    fn default_geometries_are_consistent() {
        assert_eq!(CacheConfig::l1_default().num_sets(), 128);
        assert_eq!(CacheConfig::l2_default().num_sets(), 64);
    }

    #[test]
    fn dirty_lines_report_on_eviction() {
        let mut c = tiny();
        c.access_rw(0, true); // dirty
        c.access_rw(2, false); // clean, same set
        c.access_rw(0, false); // keep 0 MRU; 2 is LRU
        let r = c.access_rw(4, false); // evicts 2 (clean)
        assert_eq!(r.evicted, Some(2));
        assert!(!r.evicted_dirty);
        let r = c.access_rw(6, false); // evicts 0 (dirty)
        assert_eq!(r.evicted, Some(0));
        assert!(r.evicted_dirty);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access_rw(1, false);
        c.access_rw(1, true); // dirtied by the hit
        c.access_rw(3, false);
        c.access_rw(3, false);
        let r = c.access_rw(5, false); // evicts LRU = 1
        assert_eq!(r.evicted, Some(1));
        assert!(r.evicted_dirty);
    }

    #[test]
    fn demand_fills_count_evictions_and_prefetch_fills_do_not() {
        let mut c = tiny();
        c.access_rw(0, true); // set 0, dirty
        c.access_rw(2, false); // set 0 full
        c.access_rw(4, false); // evicts dirty 0
        c.access_rw(6, false); // evicts clean 2
        assert_eq!((c.stats().evictions, c.stats().dirty_evictions), (2, 1));
        let r = c.install_prefetch(8); // evicts 4
        assert_eq!(r.evicted, Some(4));
        assert_eq!((c.stats().evictions, c.stats().dirty_evictions), (2, 1));
        c.access_rw(10, false); // a demand fill counts again
        assert_eq!(c.stats().evictions, 3);
    }

    #[test]
    fn install_prefetch_marks_until_first_demand_touch() {
        let mut c = tiny();
        let r = c.install_prefetch(4);
        assert!(!r.hit && r.evicted.is_none());
        assert!(c.contains(4));
        assert_eq!(c.stats().accesses, 0, "installs are not demand accesses");
        // First demand touch reports (and clears) the prefetched mark.
        let r = c.access(4);
        assert!(r.hit && r.prefetched_hit);
        let r = c.access(4);
        assert!(r.hit && !r.prefetched_hit, "mark must clear after one hit");
    }

    #[test]
    fn untouched_prefetch_reports_harmful_on_eviction() {
        let mut c = tiny();
        c.install_prefetch(0); // set 0
        c.access(2); // set 0
        c.access(2);
        let r = c.access(4); // set 0: evicts the untouched prefetch (LRU)
        assert_eq!(r.evicted, Some(0));
        assert!(r.evicted_prefetched);
        // A demanded-then-evicted prefetch is not pollution.
        c.install_prefetch(6);
        c.access(6);
        c.access(2);
        c.access(2);
        let r = c.access(8);
        assert!(!r.evicted_prefetched, "touched prefetch is not harmful");
    }

    #[test]
    fn install_prefetch_is_a_noop_on_resident_lines() {
        let mut c = tiny();
        c.access_rw(3, true);
        let r = c.install_prefetch(3);
        assert!(r.hit);
        // The demand-owned line keeps its dirtiness and is NOT marked
        // prefetched: a later hit must not count as useful.
        assert!(!c.access(3).prefetched_hit);
        c.access(1);
        c.access(1);
        let r = c.access(5); // evicts 3
        assert_eq!(r.evicted, Some(3));
        assert!(r.evicted_dirty, "dirtiness survives a racing install");
    }

    #[test]
    #[should_panic(expected = "a set holds at most 256 ways, not 512")]
    fn sets_wider_than_the_recency_links_are_refused() {
        SetAssocCache::new(CacheConfig {
            size_bytes: 64 * 512,
            line_bytes: 64,
            ways: 512,
        });
    }

    #[test]
    fn contains_does_not_touch_stats() {
        let mut c = tiny();
        c.access(1);
        let before = *c.stats();
        assert!(c.contains(1));
        assert_eq!(*c.stats(), before);
    }
}
