//! The centralized L2 tag directory used with private L2 caches.
//!
//! In the paper's private-L2 configuration (Figure 2a), each memory
//! controller caches a slice of a centralized directory recording which
//! private L2s hold each line. On an L2 miss, the request travels to the
//! directory slice at the MC owning the line's physical address; the
//! directory then either forwards to a sharer L2 (an *on-chip* access) or
//! issues an *off-chip* memory request.

use std::fmt;

/// A set of sharer nodes (`< 128`): what the directory knows about one
/// line, as a value — no allocation per lookup.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct Sharers(u128);

impl Sharers {
    /// Number of sharers.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether no node holds the line.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The lowest sharer among the nodes of `mask` (bit `n` for node `n`).
    pub fn first_in(self, mask: u128) -> Option<usize> {
        let both = self.0 & mask;
        (both != 0).then(|| both.trailing_zeros() as usize)
    }

    /// The sharers in ascending node order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let node = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                node
            })
        })
    }
}

/// Sharer tracking for private L2 lines, indexed by line address.
///
/// Sharers are node indices (`< 128`), stored as a bitmask. The keys are
/// physical lines, which a machine allocates from its low addresses up,
/// so the masks sit in a table indexed by line and grown to the highest
/// line added — no hashing on a directory operation.
///
/// # Examples
///
/// ```
/// use hoploc_cache::Directory;
///
/// let mut dir = Directory::new();
/// dir.add_sharer(0x40, 3);
/// assert_eq!(dir.sharers(0x40).iter().collect::<Vec<_>>(), vec![3]);
/// dir.remove_sharer(0x40, 3);
/// assert!(dir.sharers(0x40).is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct Directory {
    /// `masks[line]`: the sharers of `line`; lines past the end have none.
    masks: Vec<u128>,
    /// Lines with at least one sharer, so [`len`](Self::len) is a read.
    tracked: usize,
    /// Lines at or beyond this are refused: the machine has no such line.
    line_bound: u64,
    /// Lookups that found at least one sharer (on-chip fulfilment).
    pub on_chip_hits: u64,
    /// Lookups that found no sharer (off-chip fulfilment).
    pub off_chip_misses: u64,
}

impl Default for Directory {
    fn default() -> Self {
        Self::new()
    }
}

impl Directory {
    /// The most nodes a directory can track: a sharer set is one `u128`.
    pub const MAX_NODES: usize = 128;

    /// Creates an empty directory whose table grows to whatever line is
    /// added: 16 bytes per line up to the highest one, so for keys that
    /// start low, as a machine's physical lines do.
    pub fn new() -> Self {
        Self::with_line_bound(u64::MAX)
    }

    /// Creates an empty directory for a machine with `lines` physical
    /// lines: adding a line at or beyond `lines` panics.
    pub fn with_line_bound(lines: u64) -> Self {
        Self {
            masks: Vec::new(),
            tracked: 0,
            line_bound: lines,
            on_chip_hits: 0,
            off_chip_misses: 0,
        }
    }

    /// Records that `node` now holds `line`.
    ///
    /// # Panics
    ///
    /// Panics if `node >= 128` or `line` is at or beyond the line bound.
    pub fn add_sharer(&mut self, line: u64, node: usize) {
        assert!(node < Self::MAX_NODES, "directory supports up to 128 nodes");
        assert!(
            line < self.line_bound,
            "line {line} is beyond the directory's {} lines",
            self.line_bound
        );
        let i = line as usize;
        if i >= self.masks.len() {
            self.masks.resize(i + 1, 0);
        }
        let mask = &mut self.masks[i];
        self.tracked += (*mask == 0) as usize;
        *mask |= 1u128 << node;
    }

    /// Records that `node` no longer holds `line` (eviction or
    /// invalidation). A line whose last sharer leaves is no longer
    /// tracked.
    pub fn remove_sharer(&mut self, line: u64, node: usize) {
        assert!(node < Self::MAX_NODES, "directory supports up to 128 nodes");
        if let Some(mask) = self.masks.get_mut(line as usize) {
            if *mask != 0 {
                *mask &= !(1u128 << node);
                self.tracked -= (*mask == 0) as usize;
            }
        }
    }

    /// The nodes currently holding `line`.
    pub fn sharers(&self, line: u64) -> Sharers {
        Sharers(self.masks.get(line as usize).copied().unwrap_or(0))
    }

    /// Whether any node holds `line`.
    pub fn has_sharer(&self, line: u64) -> bool {
        !self.sharers(line).is_empty()
    }

    /// Performs a lookup on behalf of `requester`: returns the sharers
    /// other than the requester (the caller picks among them by distance),
    /// and updates the on-chip / off-chip lookup counters.
    pub fn lookup(&mut self, line: u64, requester: usize) -> Sharers {
        let mut sharers = self.sharers(line);
        if requester < 128 {
            sharers.0 &= !(1u128 << requester);
        }
        if sharers.is_empty() {
            self.off_chip_misses += 1;
        } else {
            self.on_chip_hits += 1;
        }
        sharers
    }

    /// Number of tracked lines.
    pub fn len(&self) -> usize {
        self.tracked
    }

    /// Whether the directory tracks no lines.
    pub fn is_empty(&self) -> bool {
        self.tracked == 0
    }
}

impl fmt::Display for Directory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "directory: {} lines, {} on-chip, {} off-chip",
            self.tracked, self.on_chip_hits, self.off_chip_misses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(s: Sharers) -> Vec<usize> {
        s.iter().collect()
    }

    #[test]
    fn sharers_round_trip() {
        let mut d = Directory::new();
        d.add_sharer(1, 5);
        d.add_sharer(1, 63);
        assert_eq!(nodes(d.sharers(1)), vec![5, 63]);
        d.remove_sharer(1, 5);
        assert_eq!(nodes(d.sharers(1)), vec![63]);
    }

    #[test]
    fn empty_entries_pruned() {
        let mut d = Directory::new();
        d.add_sharer(7, 2);
        d.remove_sharer(7, 2);
        assert!(d.is_empty());
    }

    #[test]
    fn lookup_excludes_requester() {
        let mut d = Directory::new();
        d.add_sharer(9, 4);
        assert!(d.lookup(9, 4).is_empty());
        assert_eq!(d.off_chip_misses, 1);
        assert_eq!(nodes(d.lookup(9, 0)), vec![4]);
        assert_eq!(d.on_chip_hits, 1);
    }

    #[test]
    fn remove_missing_is_noop() {
        let mut d = Directory::new();
        d.remove_sharer(1, 1);
        assert!(d.is_empty());
    }

    #[test]
    fn high_node_indices_supported() {
        let mut d = Directory::new();
        d.add_sharer(1, 127);
        assert!(d.has_sharer(1));
        assert_eq!(nodes(d.sharers(1)), vec![127]);
        assert_eq!(d.sharers(1).len(), 1);
    }
}
