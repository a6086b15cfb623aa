//! The OS page-allocation layer (§5.3, *Page Interleaving*; §6.3).
//!
//! Under page interleaving the MC-selection bits sit above the page offset,
//! so the OS decides each page's controller at allocation time. Physical
//! frames are organized in per-MC pools; `pfn % N'` identifies the frame's
//! controller. Three policies are modelled:
//!
//! * [`PagePolicy::Interleaved`] — the hardware/OS default: pages rotate
//!   across controllers in allocation order;
//! * [`PagePolicy::Desired`] — the paper's modified policy: each virtual
//!   page is placed on the controller the compiler requested, falling back
//!   to an alternate controller when that pool is exhausted ("our approach
//!   does not increase the number of page faults");
//! * [`PagePolicy::FirstTouch`] — the §6.3 baseline: a page is allocated
//!   from MC *x* if its first access comes from a node in cluster *x*.

use hoploc_noc::{L2ToMcMapping, McId, NodeId};
use std::collections::HashMap;

/// Page-placement policy.
#[derive(Clone, Debug)]
pub enum PagePolicy {
    /// Round-robin page interleaving across controllers.
    Interleaved,
    /// Compiler-desired placement: virtual page number → controller.
    /// Pages absent from the map fall back to interleaving.
    Desired(HashMap<u64, McId>),
    /// First-touch: the first toucher's cluster controller owns the page
    /// (round-robin among the cluster's controllers when it has several).
    FirstTouch,
}

/// A dense-table entry no frame number can take: the page is unmapped.
const UNMAPPED: u64 = u64::MAX;

/// The page table plus physical frame allocator.
#[derive(Clone, Debug)]
pub struct Os {
    page_bytes: u64,
    num_mcs: usize,
    frames_per_mc: u64,
    policy: PagePolicy,
    /// `vpn`-indexed frame numbers, grown (by doubling) to the highest
    /// page touched below `dense_limit`: translation runs on every
    /// access, and programs lay their arrays out from low addresses up.
    dense: Vec<u64>,
    /// Pages at or beyond this `vpn` live in `sparse`. Four table entries
    /// per physical frame bounds the table by the machine's memory, not by
    /// whatever address a caller passes.
    dense_limit: u64,
    sparse: HashMap<u64, u64>,
    resident: usize,
    next_frame: Vec<u64>,
    next_rr_mc: usize,
    first_touch_rr: Vec<usize>,
    /// Pages that could not be placed on their preferred controller.
    pub fallback_allocations: u64,
}

impl Os {
    /// Creates the OS layer.
    ///
    /// # Panics
    ///
    /// Panics if sizes are zero.
    pub fn new(page_bytes: u64, memory_bytes: u64, num_mcs: usize, policy: PagePolicy) -> Self {
        assert!(page_bytes > 0 && memory_bytes >= page_bytes && num_mcs > 0);
        Self {
            page_bytes,
            num_mcs,
            frames_per_mc: memory_bytes / page_bytes / num_mcs as u64,
            policy,
            dense: Vec::new(),
            dense_limit: (memory_bytes / page_bytes).saturating_mul(4),
            sparse: HashMap::new(),
            resident: 0,
            next_frame: vec![0; num_mcs],
            next_rr_mc: 0,
            first_touch_rr: vec![0; num_mcs],
            fallback_allocations: 0,
        }
    }

    /// Translates a virtual address, allocating the page on first touch.
    /// `toucher` is the requesting node (used by first-touch placement).
    pub fn translate(&mut self, vaddr: u64, toucher: NodeId, mapping: &L2ToMcMapping) -> u64 {
        let vpn = vaddr / self.page_bytes;
        let offset = vaddr % self.page_bytes;
        let pfn = match self.dense.get(vpn as usize) {
            Some(&pfn) if pfn != UNMAPPED => pfn,
            _ => self.translate_slow(vpn, toucher, mapping),
        };
        pfn * self.page_bytes + offset
    }

    /// Everything but a hit in the dense table: a page outside its range,
    /// or the first touch of a page (which allocates it).
    fn translate_slow(&mut self, vpn: u64, toucher: NodeId, mapping: &L2ToMcMapping) -> u64 {
        let sparse = vpn >= self.dense_limit;
        if sparse {
            if let Some(&pfn) = self.sparse.get(&vpn) {
                return pfn;
            }
        }
        let pfn = self.allocate(vpn, toucher, mapping);
        self.resident += 1;
        if sparse {
            self.sparse.insert(vpn, pfn);
        } else {
            let i = vpn as usize;
            if i >= self.dense.len() {
                let grown = (i + 1).next_power_of_two().min(self.dense_limit as usize);
                self.dense.resize(grown, UNMAPPED);
            }
            self.dense[i] = pfn;
        }
        pfn
    }

    /// The controller owning a physical address under page interleaving.
    pub fn mc_of_paddr(&self, paddr: u64) -> McId {
        McId(((paddr / self.page_bytes) % self.num_mcs as u64) as u16)
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    fn allocate(&mut self, vpn: u64, toucher: NodeId, mapping: &L2ToMcMapping) -> u64 {
        let preferred = match &self.policy {
            PagePolicy::Interleaved => {
                let mc = self.next_rr_mc;
                self.next_rr_mc = (self.next_rr_mc + 1) % self.num_mcs;
                McId(mc as u16)
            }
            PagePolicy::Desired(map) => match map.get(&vpn) {
                Some(&mc) => mc,
                None => {
                    let mc = self.next_rr_mc;
                    self.next_rr_mc = (self.next_rr_mc + 1) % self.num_mcs;
                    McId(mc as u16)
                }
            },
            PagePolicy::FirstTouch => {
                let cluster = mapping.cluster_of(toucher);
                let mcs = mapping.cluster_mcs(cluster);
                let r = &mut self.first_touch_rr[cluster.0 as usize % self.num_mcs];
                let mc = mcs[*r % mcs.len()];
                *r += 1;
                mc
            }
        };
        // Try the preferred pool, then the others ("if the memory space
        // attached to the specified MC is full, an alternate MC is
        // selected").
        for round in 0..self.num_mcs {
            let mc = (preferred.0 as usize + round) % self.num_mcs;
            if self.next_frame[mc] < self.frames_per_mc {
                let idx = self.next_frame[mc];
                self.next_frame[mc] += 1;
                if round > 0 {
                    self.fallback_allocations += 1;
                }
                // Frame pools are striped: pfn % N' == mc.
                return idx * self.num_mcs as u64 + mc as u64;
            }
        }
        panic!(
            "physical memory exhausted: {} pages resident",
            self.resident
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoploc_noc::{McPlacement, Mesh};

    fn mapping() -> L2ToMcMapping {
        L2ToMcMapping::nearest_cluster(Mesh::new(8, 8), &McPlacement::Corners)
    }

    #[test]
    fn translation_is_stable() {
        let mut os = Os::new(4096, 1 << 20, 4, PagePolicy::Interleaved);
        let m = mapping();
        let a = os.translate(0x1234, NodeId(0), &m);
        let b = os.translate(0x1234, NodeId(9), &m);
        assert_eq!(a, b, "repeated translation must be identical");
        assert_eq!(a % 4096, 0x234);
    }

    #[test]
    fn interleaved_rotates_mcs() {
        let mut os = Os::new(4096, 1 << 20, 4, PagePolicy::Interleaved);
        let m = mapping();
        let mcs: Vec<u16> = (0..4u64)
            .map(|p| {
                let paddr = os.translate(p * 4096, NodeId(0), &m);
                os.mc_of_paddr(paddr).0
            })
            .collect();
        let mut sorted = mcs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn desired_policy_honors_map() {
        let mut map = HashMap::new();
        map.insert(0u64, McId(3));
        map.insert(1u64, McId(1));
        let mut os = Os::new(4096, 1 << 20, 4, PagePolicy::Desired(map));
        let m = mapping();
        let p0 = os.translate(0, NodeId(0), &m);
        assert_eq!(os.mc_of_paddr(p0), McId(3));
        let p1 = os.translate(4096, NodeId(0), &m);
        assert_eq!(os.mc_of_paddr(p1), McId(1));
        assert_eq!(os.fallback_allocations, 0);
    }

    #[test]
    fn desired_policy_falls_back_when_full() {
        // 4 frames total → 1 frame per MC.
        let mut map = HashMap::new();
        for vpn in 0..3u64 {
            map.insert(vpn, McId(0));
        }
        let mut os = Os::new(4096, 4 * 4096, 4, PagePolicy::Desired(map));
        let m = mapping();
        os.translate(0, NodeId(0), &m);
        os.translate(4096, NodeId(0), &m);
        os.translate(2 * 4096, NodeId(0), &m);
        assert_eq!(os.fallback_allocations, 2, "MC0 pool holds one frame only");
        assert_eq!(os.resident_pages(), 3);
    }

    #[test]
    fn first_touch_uses_toucher_cluster() {
        let mut os = Os::new(4096, 1 << 20, 4, PagePolicy::FirstTouch);
        let m = mapping();
        // Node 0 is in the top-left cluster, whose MC is MC0 (node 0).
        let p0 = os.translate(0, NodeId(0), &m);
        let mc = os.mc_of_paddr(p0);
        assert_eq!(mc, m.cluster_mcs(m.cluster_of(NodeId(0)))[0]);
        // Node 63 (bottom-right) gets its own corner's controller.
        let p8 = os.translate(8 * 4096, NodeId(63), &m);
        let mc2 = os.mc_of_paddr(p8);
        assert_eq!(mc2, m.cluster_mcs(m.cluster_of(NodeId(63)))[0]);
    }

    #[test]
    #[should_panic(expected = "physical memory exhausted")]
    fn oom_panics() {
        let mut os = Os::new(4096, 4096, 1, PagePolicy::Interleaved);
        let m = mapping();
        os.translate(0, NodeId(0), &m);
        os.translate(4096, NodeId(0), &m);
    }

    #[test]
    fn fallback_walk_wraps_across_all_pools() {
        // 1 frame per MC, every page desires MC2: the walk must visit
        // MC2 → MC3 → MC0 → MC1 in order before giving up.
        let mut map = HashMap::new();
        for vpn in 0..4u64 {
            map.insert(vpn, McId(2));
        }
        let mut os = Os::new(4096, 4 * 4096, 4, PagePolicy::Desired(map));
        let m = mapping();
        let owners: Vec<u16> = (0..4u64)
            .map(|p| {
                let paddr = os.translate(p * 4096, NodeId(0), &m);
                os.mc_of_paddr(paddr).0
            })
            .collect();
        assert_eq!(owners, vec![2, 3, 0, 1]);
        assert_eq!(os.fallback_allocations, 3);
        assert_eq!(os.resident_pages(), 4);
    }

    #[test]
    #[should_panic(expected = "physical memory exhausted")]
    fn fallback_walk_exhaustion_still_panics() {
        let mut map = HashMap::new();
        for vpn in 0..5u64 {
            map.insert(vpn, McId(2));
        }
        let mut os = Os::new(4096, 4 * 4096, 4, PagePolicy::Desired(map));
        let m = mapping();
        for p in 0..5u64 {
            os.translate(p * 4096, NodeId(0), &m);
        }
    }

    #[test]
    fn first_touch_shared_page_is_stable() {
        // The first toucher's cluster owns the page; a later toucher from
        // the opposite corner must neither move it nor re-allocate it.
        let mut os = Os::new(4096, 1 << 20, 4, PagePolicy::FirstTouch);
        let m = mapping();
        let first = os.translate(100, NodeId(0), &m);
        let again = os.translate(100, NodeId(63), &m);
        assert_eq!(first, again, "shared page must not move on second touch");
        assert_eq!(os.resident_pages(), 1);
        assert_eq!(
            os.mc_of_paddr(first),
            m.cluster_mcs(m.cluster_of(NodeId(0)))[0],
            "ownership follows the FIRST toucher"
        );
    }

    /// The `HashMap`-only page table [`Os`] used to be: same allocator,
    /// one hashed lookup per translation.
    struct RefOs {
        page_bytes: u64,
        num_mcs: usize,
        frames_per_mc: u64,
        policy: PagePolicy,
        page_table: HashMap<u64, u64>,
        next_frame: Vec<u64>,
        next_rr_mc: usize,
        first_touch_rr: Vec<usize>,
        fallback_allocations: u64,
    }

    impl RefOs {
        fn translate(&mut self, vaddr: u64, toucher: NodeId, mapping: &L2ToMcMapping) -> u64 {
            let vpn = vaddr / self.page_bytes;
            let pfn = match self.page_table.get(&vpn) {
                Some(&pfn) => pfn,
                None => {
                    let pfn = self.allocate(vpn, toucher, mapping);
                    self.page_table.insert(vpn, pfn);
                    pfn
                }
            };
            pfn * self.page_bytes + vaddr % self.page_bytes
        }

        fn allocate(&mut self, vpn: u64, toucher: NodeId, mapping: &L2ToMcMapping) -> u64 {
            let mut round_robin = || {
                let mc = self.next_rr_mc;
                self.next_rr_mc = (self.next_rr_mc + 1) % self.num_mcs;
                McId(mc as u16)
            };
            let preferred = match &self.policy {
                PagePolicy::Interleaved => round_robin(),
                PagePolicy::Desired(map) => map.get(&vpn).copied().unwrap_or_else(round_robin),
                PagePolicy::FirstTouch => {
                    let cluster = mapping.cluster_of(toucher);
                    let mcs = mapping.cluster_mcs(cluster);
                    let r = &mut self.first_touch_rr[cluster.0 as usize % self.num_mcs];
                    let mc = mcs[*r % mcs.len()];
                    *r += 1;
                    mc
                }
            };
            for round in 0..self.num_mcs {
                let mc = (preferred.0 as usize + round) % self.num_mcs;
                if self.next_frame[mc] < self.frames_per_mc {
                    let idx = self.next_frame[mc];
                    self.next_frame[mc] += 1;
                    self.fallback_allocations += (round > 0) as u64;
                    return idx * self.num_mcs as u64 + mc as u64;
                }
            }
            panic!("physical memory exhausted");
        }
    }

    #[test]
    fn matches_the_hashmap_page_table_under_every_policy() {
        let m = mapping();
        hoploc_ptest::run_cases("os_oracle", 48, |rng| {
            let page_bytes = 4096u64;
            let pages = rng.u64_in(16..600);
            // Between "every pool overflows into its neighbours" and
            // "nothing ever falls back".
            let memory_bytes = page_bytes * (pages + 8) * rng.u64_in(1..4);
            let policy = match rng.u64_below(3) {
                0 => PagePolicy::Interleaved,
                1 => PagePolicy::FirstTouch,
                _ => PagePolicy::Desired(
                    (0..pages)
                        .filter_map(|vpn| {
                            let mc = rng.u64_below(5);
                            (mc < 4).then_some((vpn, McId(mc as u16)))
                        })
                        .collect(),
                ),
            };
            let mut os = Os::new(page_bytes, memory_bytes, 4, policy.clone());
            let mut reference = RefOs {
                page_bytes,
                num_mcs: 4,
                frames_per_mc: memory_bytes / page_bytes / 4,
                policy,
                page_table: HashMap::new(),
                next_frame: vec![0; 4],
                next_rr_mc: 0,
                first_touch_rr: vec![0; 4],
                fallback_allocations: 0,
            };
            // A handful of pages far outside any dense range, the last
            // one ending at the top of the address space.
            let far: Vec<u64> = vec![
                u64::MAX / page_bytes,
                (1 << 50) + rng.u64_below(1 << 20),
                (1 << 40) + rng.u64_below(8),
                pages * 4096,
            ];
            for _ in 0..rng.usize_in(200..4000) {
                let vpn = if rng.u64_below(64) == 0 {
                    far[rng.usize_in(0..far.len())]
                } else {
                    rng.u64_below(pages - far.len() as u64)
                };
                let vaddr = vpn * page_bytes + rng.u64_below(page_bytes);
                let node = NodeId(rng.u64_below(64) as u16);
                assert_eq!(
                    os.translate(vaddr, node, &m),
                    reference.translate(vaddr, node, &m),
                    "vaddr {vaddr:#x} from {node}"
                );
                assert_eq!(os.fallback_allocations, reference.fallback_allocations);
                assert_eq!(os.resident_pages(), reference.page_table.len());
            }
        });
    }

    #[test]
    fn first_touch_falls_back_when_cluster_pool_is_full() {
        // 1 frame per MC: node 0's second page cannot stay in its cluster.
        let mut os = Os::new(4096, 4 * 4096, 4, PagePolicy::FirstTouch);
        let m = mapping();
        let home = m.cluster_mcs(m.cluster_of(NodeId(0)))[0];
        let p0 = os.translate(0, NodeId(0), &m);
        assert_eq!(os.mc_of_paddr(p0), home);
        let p1 = os.translate(4096, NodeId(0), &m);
        assert_ne!(os.mc_of_paddr(p1), home, "full pool must spill elsewhere");
        assert_eq!(os.fallback_allocations, 1);
        // Both translations stay stable afterwards.
        assert_eq!(os.translate(0, NodeId(63), &m), p0);
        assert_eq!(os.translate(4096, NodeId(63), &m), p1);
    }
}
