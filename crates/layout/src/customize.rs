//! Layout customization (§5.3): turning a Data-to-Core mapping and an
//! L2-to-MC mapping into a concrete virtual-memory placement.
//!
//! The paper expresses the customized layout as strip-mined/permuted array
//! references such as `(…, rₙ/(k·p), R(r_v), rₙ%(k·p))ᵀ`. This module
//! implements the equivalent *address function*: a bijection from original
//! data vectors to element offsets within the array's (padded) allocation,
//! arranged so that under the hardware's interleaving every element's
//! off-chip request goes to a memory controller assigned to the cluster of
//! the thread that owns the element.
//!
//! The arrangement is built from **interleave units** (cache lines or
//! pages, `p` elements each) grouped into **super-groups** of
//! `n_slots_total` consecutive units. Unit `slot` of every super-group maps
//! to the same memory controller (`slot % N'`), because the array base is
//! aligned to a whole super-group. Each owner (a cluster for private L2s, a
//! thread's home bank for shared L2) is assigned fixed slots, and its data
//! fills its slots across successive super-groups in order.

use crate::binding::ThreadBinding;
use crate::data_to_core::{transformed_bounds_into, DataToCore};
use hoploc_affine::{ArrayDecl, BlockPartition, IMat};
use hoploc_noc::{ClusterId, L2ToMcMapping, McId, NodeId};
use std::fmt;
use std::ops::{Index, Range};

/// Interleaving granularity of physical addresses across MCs (§3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Granularity {
    /// Cache-block interleaving: consecutive L2 lines rotate across MCs;
    /// the selection bits survive virtual-to-physical translation, so the
    /// compiler controls them directly.
    CacheLine,
    /// Page interleaving: the selection bits are chosen by the OS page
    /// allocator; the layout records a *desired* MC per virtual unit and
    /// relies on the modified allocation policy (§5.3, *Page Interleaving*).
    Page,
}

impl Granularity {
    /// Canonical lowercase name (CLI value, wire value, report field).
    pub fn name(self) -> &'static str {
        match self {
            Granularity::CacheLine => "cacheline",
            Granularity::Page => "page",
        }
    }

    /// Parses a [`name`](Self::name) back to a granularity.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "cacheline" => Ok(Granularity::CacheLine),
            "page" => Ok(Granularity::Page),
            other => Err(format!(
                "unknown granularity {other:?} (use cacheline or page)"
            )),
        }
    }
}

/// Last-level cache organization (§1, Figure 2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum L2Mode {
    /// Per-core private L2s with an MC-side directory (Figure 2a).
    Private,
    /// Shared SNUCA L2: each line has a home bank issuing its off-chip
    /// requests (Figure 2b).
    Shared,
}

impl L2Mode {
    /// Canonical lowercase name (wire value, report field).
    pub fn name(self) -> &'static str {
        match self {
            L2Mode::Private => "private",
            L2Mode::Shared => "shared",
        }
    }

    /// Parses a [`name`](Self::name) back to an L2 organization.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "private" => Ok(L2Mode::Private),
            "shared" => Ok(L2Mode::Shared),
            other => Err(format!("unknown l2 mode {other:?} (use private or shared)")),
        }
    }
}

/// Priority between on-chip and off-chip localization in the shared-L2
/// case, where §5.3 proves both cannot always be localized simultaneously.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SharedPolicy {
    /// The paper's default: generate an on-chip-localized layout first,
    /// then displace elements only as far as needed for the off-chip
    /// request to reach the desired (or an adjacent) controller.
    OnChipFirst,
    /// Force every unit onto a slot whose MC is exactly a desired one,
    /// accepting larger home-bank displacement (the paper's "one could
    /// also first generate the layout localized for off-chip accesses").
    OffChipFirst,
}

/// Highest array rank a localized layout supports: `ArrayLayout::place`
/// transforms subscripts in stack arrays of this length.
const MAX_RANK: usize = 8;

/// How the address function arranges one array.
#[derive(Clone, PartialEq, Debug)]
enum Plan {
    /// Untransformed row-major layout (unoptimized arrays).
    Original,
    /// The localized layout described in the module docs.
    Localized(Box<LocalizedPlan>),
}

#[derive(Clone, PartialEq, Debug)]
struct LocalizedPlan {
    /// Elements per interleave unit (`p` in the paper).
    p_elems: i64,
    /// Product of the transformed extents of all non-partition dimensions.
    slab: i64,
    /// Block partition of the (transformed) partition dimension over
    /// threads.
    part: BlockPartition,
    /// Owner group of each thread (cluster index for private L2, thread
    /// index for shared L2).
    thread_group: Vec<u32>,
    /// First partition-dimension coordinate owned by each group.
    group_v_lo: Vec<i64>,
    /// The interleave-unit slots of each group within a super-group.
    group_slots: GroupSlots,
    /// Units per super-group.
    n_slots_total: u32,
    /// Number of MCs (for desired-MC queries).
    n_mcs: u32,
}

/// The interleave-unit slots of each owner group within a super-group:
/// `slots[g]` is group `g`'s list. Kept group after group in one buffer,
/// so that a plan refilled for another mapping reuses it; it prints and
/// compares as the list of lists it stands for.
#[derive(Default, PartialEq, Eq)]
pub struct GroupSlots {
    slots: Vec<u32>,
    /// Where each group's slots end in `slots`.
    ends: Vec<u32>,
}

impl GroupSlots {
    /// Number of groups.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are no groups.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Every group's slots, in group order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        (0..self.len()).map(|g| &self[g])
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.ends.clear();
    }

    /// Appends a group with `slots`.
    fn push(&mut self, slots: impl IntoIterator<Item = u32>) {
        self.slots.extend(slots);
        self.ends.push(self.slots.len() as u32);
    }
}

impl Clone for GroupSlots {
    fn clone(&self) -> Self {
        Self {
            slots: self.slots.clone(),
            ends: self.ends.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.slots.clone_from(&source.slots);
        self.ends.clone_from(&source.ends);
    }
}

impl Index<usize> for GroupSlots {
    type Output = [u32];

    /// Group `g`'s slots.
    fn index(&self, g: usize) -> &[u32] {
        let start = g.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        &self.slots[start..self.ends[g] as usize]
    }
}

impl fmt::Debug for GroupSlots {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// What every localized array of one plan is arranged by: who owns each
/// thread's data and which slots each owner's units take. It depends on
/// the mapping and the binding (and, for shared L2s, the policy) alone, so
/// the pass builds it once per plan and each localized array copies it.
#[derive(Clone, Default)]
pub(crate) struct Owners {
    /// Owner group of each thread.
    thread_group: Vec<u32>,
    group_slots: GroupSlots,
    /// Per group, its first thread and one past its last, or `None`.
    threads: Vec<Option<(u32, u32)>>,
    n_slots_total: u32,
    n_mcs: u32,
    /// Slot rounds handed out per controller while filling.
    rounds: Vec<u32>,
}

impl Owners {
    /// The private-L2 arrangement (§5.3, lines 38–42 of Algorithm 1): a
    /// thread's group is its cluster, and each cluster occupies the slots
    /// of its assigned MCs. When several clusters share an MC, they stack
    /// into extended super-groups (slot + r·N′ still maps to the same
    /// controller).
    pub(crate) fn fill_private(&mut self, mapping: &L2ToMcMapping, binding: &ThreadBinding) {
        let n_mcs = mapping.num_mcs() as u32;
        self.thread_group.clear();
        self.thread_group.extend(
            (0..binding.len()).map(|t| u32::from(mapping.cluster_of(binding.node_of(t)).0)),
        );
        self.rounds.clear();
        self.rounds.resize(n_mcs as usize, 0);
        self.group_slots.clear();
        for c in 0..mapping.num_clusters() {
            let rounds = &mut self.rounds;
            let mcs = mapping.cluster_mcs(ClusterId(c as u16));
            let start = self.group_slots.slots.len();
            self.group_slots.push(mcs.iter().map(|mc| {
                let r = rounds[mc.0 as usize];
                rounds[mc.0 as usize] = r + 1;
                u32::from(mc.0) + r * n_mcs
            }));
            self.group_slots.slots[start..].sort_unstable();
        }
        let rounds = self.rounds.iter().copied().max().unwrap_or(1).max(1);
        self.n_slots_total = n_mcs * rounds;
        self.n_mcs = n_mcs;
        self.index_groups();
    }

    /// The shared-L2 arrangement (§5.3, lines 43–56): one group and one
    /// slot per thread, chosen so the home bank stays near the owning core
    /// while the unit's MC serves the core's cluster.
    pub(crate) fn fill_shared(
        &mut self,
        mapping: &L2ToMcMapping,
        binding: &ThreadBinding,
        policy: SharedPolicy,
    ) {
        let n_threads = binding.len() as u32;
        let slots = assign_shared_slots(mapping, binding, policy);
        self.n_slots_total =
            slots.iter().copied().max().unwrap_or(0) / n_threads * n_threads + n_threads;
        self.thread_group.clear();
        self.thread_group.extend(0..n_threads);
        self.group_slots.clear();
        for s in slots {
            self.group_slots.push([s]);
        }
        self.n_mcs = mapping.num_mcs() as u32;
        self.index_groups();
    }

    /// Hand-built owners, as [`ArrayLayout::from_parts`] takes them.
    fn from_parts(
        thread_group: Vec<u32>,
        group_slots: Vec<Vec<u32>>,
        n_slots_total: u32,
        n_mcs: u32,
    ) -> Self {
        let mut owners = Self {
            thread_group,
            n_slots_total,
            n_mcs,
            ..Self::default()
        };
        for slots in group_slots {
            owners.group_slots.push(slots);
        }
        owners.index_groups();
        owners
    }

    /// Fills `threads` from `thread_group`.
    fn index_groups(&mut self) {
        self.threads.clear();
        self.threads.resize(self.group_slots.len(), None);
        for (t, &g) in self.thread_group.iter().enumerate() {
            let t = t as u32;
            let range = &mut self.threads[g as usize];
            *range = Some(range.map_or((t, t + 1), |(lo, _)| (lo, t + 1)));
        }
    }
}

impl LocalizedPlan {
    /// The element offset at which interleave unit `unit` of group `g`'s
    /// data starts: the group's slots, filled across successive
    /// super-groups in order. The one statement of the slot arithmetic,
    /// under both [`ArrayLayout::place`] and [`Run`].
    fn unit_start(&self, g: usize, unit: i64) -> i64 {
        let slots = &self.group_slots[g];
        let k = slots.len() as i64;
        let supergroup = unit / k;
        let slot = slots[(unit % k) as usize] as i64;
        (supergroup * self.n_slots_total as i64 + slot) * self.p_elems
    }
}

/// A read-only view of a localized plan's internals, exposed for the
/// `hoploc-check` layout-legality verifier (and for tests that need to
/// assert plan structure). The fields mirror [`LocalizedPlan`]; see the
/// module docs for the super-group/slot arrangement they describe.
#[derive(Clone, Copy, Debug)]
pub struct PlanView<'a> {
    /// Elements per interleave unit (`p` in the paper).
    pub p_elems: i64,
    /// Product of the transformed extents of all non-partition dimensions.
    pub slab: i64,
    /// Partition-dimension block size per thread.
    pub block_size: i64,
    /// Owner group of each thread (index = thread id).
    pub thread_group: &'a [u32],
    /// First partition-dimension coordinate owned by each group.
    pub group_v_lo: &'a [i64],
    /// The interleave-unit slots of each group within a super-group.
    pub group_slots: &'a GroupSlots,
    /// Units per super-group.
    pub n_slots_total: u32,
    /// Number of memory controllers.
    pub n_mcs: u32,
}

/// The customized layout of one array: a bijection from original data
/// vectors to element offsets, plus the metadata the OS and simulator need.
/// Equal layouts place every element alike and ask the OS for the same
/// pages.
#[derive(Clone, PartialEq, Debug)]
pub struct ArrayLayout {
    u: IMat,
    mins: Vec<i64>,
    extents: Vec<i64>,
    dims: Vec<i64>,
    elem_size: u32,
    unit_bytes: u32,
    plan: Plan,
    span_elements: i64,
}

impl ArrayLayout {
    /// The untransformed row-major layout of an array (the baseline, and
    /// the fallback for arrays the pass declines to optimize).
    pub fn original(decl: &ArrayDecl) -> Self {
        let n = decl.rank();
        Self {
            u: IMat::identity(n),
            mins: vec![0; n],
            extents: decl.dims().to_vec(),
            dims: decl.dims().to_vec(),
            elem_size: decl.elem_size(),
            unit_bytes: 0,
            plan: Plan::Original,
            span_elements: decl.num_elements(),
        }
    }

    /// Builds the customized layout for the **private-L2** case (§5.3,
    /// lines 38–42 of Algorithm 1).
    ///
    /// `unit_bytes` is the interleave unit: the L2 line size for cache-line
    /// interleaving or the page size for page interleaving.
    ///
    /// # Panics
    ///
    /// Panics if `unit_bytes` is not a positive multiple of the element
    /// size, or the array's rank exceeds 8.
    pub fn localized_private(
        decl: &ArrayDecl,
        d2c: &DataToCore,
        mapping: &L2ToMcMapping,
        binding: &ThreadBinding,
        unit_bytes: u32,
    ) -> Self {
        let mut owners = Owners::default();
        owners.fill_private(mapping, binding);
        Self::localized(decl, &d2c.u, &owners, unit_bytes)
    }

    /// Builds the customized layout for the **shared-L2** case (§5.3,
    /// lines 43–56): one slot per thread, chosen so the home bank stays
    /// near the owning core while the unit's MC serves the core's cluster.
    ///
    /// # Panics
    ///
    /// Panics if `unit_bytes` is not a positive multiple of the element
    /// size, or the array's rank exceeds 8.
    pub fn localized_shared(
        decl: &ArrayDecl,
        d2c: &DataToCore,
        mapping: &L2ToMcMapping,
        binding: &ThreadBinding,
        unit_bytes: u32,
        policy: SharedPolicy,
    ) -> Self {
        let mut owners = Owners::default();
        owners.fill_shared(mapping, binding, policy);
        Self::localized(decl, &d2c.u, &owners, unit_bytes)
    }

    /// Assembles a localized layout directly from plan internals, skipping
    /// the slot-assignment machinery of [`ArrayLayout::localized_private`]
    /// / [`ArrayLayout::localized_shared`].
    ///
    /// **For verification tooling and tests only**: no legality validation
    /// is performed, so the result may alias elements or run past its span
    /// — exactly what the `hoploc-check` layout verifier exists to detect.
    /// `thread_group[t]` names the owner group of thread `t`;
    /// `group_slots[g]` lists group `g`'s interleave-unit slots within a
    /// super-group of `n_slots_total` units.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not square in the array rank, `unit_bytes` is not
    /// a positive multiple of the element size, or the rank exceeds 8.
    pub fn from_parts(
        decl: &ArrayDecl,
        u: IMat,
        unit_bytes: u32,
        thread_group: Vec<u32>,
        group_slots: Vec<Vec<u32>>,
        n_slots_total: u32,
        n_mcs: u32,
    ) -> Self {
        let owners = Owners::from_parts(thread_group, group_slots, n_slots_total, n_mcs);
        Self::localized(decl, &u, &owners, unit_bytes)
    }

    fn localized(decl: &ArrayDecl, u: &IMat, owners: &Owners, unit_bytes: u32) -> Self {
        let mut layout = Self::original(decl);
        layout.localize(decl, u, owners, unit_bytes);
        layout
    }

    /// Makes this the original layout of `decl`, unless it already is.
    pub(crate) fn set_original(&mut self, decl: &ArrayDecl) {
        let already =
            self.is_original() && self.dims == decl.dims() && self.elem_size == decl.elem_size();
        if !already {
            *self = Self::original(decl);
        }
    }

    /// Makes this `decl`'s layout transformed by `u` and arranged by
    /// `owners`, in the buffers it already has: the one construction under
    /// every localized layout.
    ///
    /// # Panics
    ///
    /// As [`ArrayLayout::from_parts`].
    pub(crate) fn localize(
        &mut self,
        decl: &ArrayDecl,
        u: &IMat,
        owners: &Owners,
        unit_bytes: u32,
    ) {
        assert!(
            decl.rank() <= MAX_RANK,
            "localized layouts support arrays of rank <= {MAX_RANK}"
        );
        assert!(unit_bytes > 0, "interleave unit must be positive");
        assert_eq!(
            unit_bytes % decl.elem_size(),
            0,
            "interleave unit must be a multiple of the element size"
        );
        self.u.clone_from(u);
        transformed_bounds_into(u, decl.dims(), &mut self.mins, &mut self.extents);
        self.dims.clear();
        self.dims.extend_from_slice(decl.dims());
        self.elem_size = decl.elem_size();
        self.unit_bytes = unit_bytes;
        let extents = &self.extents;
        let p_elems = (unit_bytes / decl.elem_size()) as i64;
        let slab: i64 = extents[1..].iter().product::<i64>().max(1);
        let part = BlockPartition::new(extents[0], owners.thread_group.len());

        if let Plan::Original = self.plan {
            self.plan = Plan::Localized(Box::new(LocalizedPlan {
                p_elems,
                slab,
                part,
                thread_group: Vec::new(),
                group_v_lo: Vec::new(),
                group_slots: GroupSlots::default(),
                n_slots_total: owners.n_slots_total,
                n_mcs: owners.n_mcs,
            }));
        }
        let Plan::Localized(plan) = &mut self.plan else {
            unreachable!("the plan was made localized above")
        };
        plan.p_elems = p_elems;
        plan.slab = slab;
        plan.part = part;
        plan.thread_group.clone_from(&owners.thread_group);
        plan.group_slots.clone_from(&owners.group_slots);
        plan.n_slots_total = owners.n_slots_total;
        plan.n_mcs = owners.n_mcs;

        // Each group's partition-dimension range: the blocks of its first
        // through last thread (contiguous under a cluster-major binding).
        // Its span needs ceil(its element span / (p·k)) super-groups; the
        // array occupies the max over groups, each super-group being
        // n_slots_total units. Using the v-range rather than the element
        // count keeps the span valid even for bindings where a group's
        // threads are not contiguous.
        plan.group_v_lo.clear();
        let mut max_supergroups = 0i64;
        for (g, threads) in owners.threads.iter().enumerate() {
            let (v_lo, v_hi) = threads.map_or((0, 0), |(first, end)| {
                let block_start = |t: u32| (i64::from(t) * part.block_size()).min(extents[0]);
                (block_start(first), block_start(end))
            });
            plan.group_v_lo.push(v_lo);
            let elems = (v_hi - v_lo).max(0) * slab;
            // `from_parts` performs no legality validation: a hand-built
            // plan may leave a group slotless. Size its span as if it had
            // one slot so construction succeeds and the hoploc-check
            // verifier can reject the plan instead of a panic here.
            let k = (owners.group_slots[g].len() as i64).max(1);
            let units = (elems + p_elems - 1) / p_elems;
            let sg = (units + k - 1) / k;
            max_supergroups = max_supergroups.max(sg);
        }
        self.span_elements = max_supergroups.max(1) * owners.n_slots_total as i64 * p_elems;
    }

    /// The layout transformation matrix `U`.
    pub fn u(&self) -> &IMat {
        &self.u
    }

    /// The internals of a localized plan, for the layout-legality verifier.
    /// `None` for the original layout (nothing to verify).
    pub fn plan_view(&self) -> Option<PlanView<'_>> {
        match &self.plan {
            Plan::Original => None,
            Plan::Localized(p) => Some(PlanView {
                p_elems: p.p_elems,
                slab: p.slab,
                block_size: p.part.block_size(),
                thread_group: &p.thread_group,
                group_v_lo: &p.group_v_lo,
                group_slots: &p.group_slots,
                n_slots_total: p.n_slots_total,
                n_mcs: p.n_mcs,
            }),
        }
    }

    /// Per-dimension minima of the transformed index box (the shift that
    /// normalizes transformed coordinates to start at zero).
    pub fn mins(&self) -> &[i64] {
        &self.mins
    }

    /// The declared (original) dimension sizes.
    pub fn dims(&self) -> &[i64] {
        &self.dims
    }

    /// Element size in bytes.
    pub fn elem_size(&self) -> u32 {
        self.elem_size
    }

    /// Interleave unit in bytes (0 for the original layout).
    pub fn unit_bytes(&self) -> u32 {
        self.unit_bytes
    }

    /// Whether this is the untransformed baseline layout.
    pub fn is_original(&self) -> bool {
        matches!(self.plan, Plan::Original)
    }

    /// Total element span of the allocation, including padding.
    pub fn span_elements(&self) -> i64 {
        self.span_elements
    }

    /// Total byte span of the allocation, including padding.
    pub fn span_bytes(&self) -> i64 {
        self.span_elements * self.elem_size as i64
    }

    /// Required base alignment in bytes: a whole super-group, so that slot
    /// arithmetic survives linearization (the paper's padding, §5.3).
    pub fn base_alignment_bytes(&self) -> i64 {
        match &self.plan {
            Plan::Original => self.elem_size as i64,
            Plan::Localized(p) => p.n_slots_total as i64 * self.unit_bytes as i64,
        }
    }

    /// Maps an original data vector to its element offset within the
    /// array's allocation.
    ///
    /// # Panics
    ///
    /// Panics if the subscript count differs from the array rank.
    pub fn place(&self, dvec: &[i64]) -> i64 {
        assert_eq!(
            dvec.len(),
            self.dims.len(),
            "subscript count must match rank"
        );
        match &self.plan {
            Plan::Original => {
                let mut off = 0i64;
                for (&s, &d) in dvec.iter().zip(&self.dims) {
                    off = off * d + s.clamp(0, d - 1);
                }
                off
            }
            Plan::Localized(p) => {
                let t = self.transform_clamped(dvec);
                let t = &t[..dvec.len()];
                let thread = p.part.block_of(t[0]) as usize;
                let g = p.thread_group[thread] as usize;
                let s = (t[0] - p.group_v_lo[g]) * p.slab + rest_offset(t, &self.extents);
                p.unit_start(g, s / p.p_elems) + s % p.p_elems
            }
        }
    }

    /// A cursor over `place(d0 + k·delta)` for `k = 0, 1, …, n − 1` that
    /// evaluates the layout once and then steps: along an arithmetic
    /// progression of data vectors the element offset moves by a constant
    /// until it leaves its interleave unit or its owner's block.
    ///
    /// [`place`](Self::place) stays the definition of the layout; this is
    /// its strength-reduced form for callers that walk an innermost loop
    /// (trace generation). `None` means "use `place`": some point of the
    /// progression leaves the array or the transformed box (a clamp of
    /// `place` would engage — each coordinate is monotone in `k`, so the
    /// two end points decide it), an intermediate of `U·d0 − mins`,
    /// `U·delta` or the end points overflows `i64` (`place` accumulates in
    /// `i128`), or `n < 1`.
    ///
    /// # Panics
    ///
    /// Panics if `d0` or `delta` differs in length from the array rank.
    pub fn run(&self, d0: &[i64], delta: &[i64], n: i64) -> Option<Run<'_>> {
        let rank = self.dims.len();
        assert_eq!(d0.len(), rank, "subscript count must match rank");
        assert_eq!(delta.len(), rank, "step count must match rank");
        if n < 1 {
            return None;
        }
        let last = n - 1;
        let inside = |first: i64, step: i64, extent: i64| -> Option<bool> {
            let end = first.checked_add(last.checked_mul(step)?)?;
            Some((0..extent).contains(&first) && (0..extent).contains(&end))
        };
        for ((&s, &ds), &d) in d0.iter().zip(delta).zip(&self.dims) {
            if !inside(s, ds, d)? {
                return None;
            }
        }
        // Row-major index of the first point in the box the plan
        // linearizes (the array itself, or its transformed image), and the
        // index's step per point, one dimension at a time.
        let (mut pos, mut step) = (0i64, 0i64);
        let mut fold = |t: i64, dt: i64, extent: i64| -> Option<()> {
            pos = pos * extent + t;
            step = step.checked_mul(extent)?.checked_add(dt)?;
            Some(())
        };
        let plan = match &self.plan {
            Plan::Original => {
                for ((&s, &ds), &d) in d0.iter().zip(delta).zip(&self.dims) {
                    fold(s, ds, d)?;
                }
                None
            }
            Plan::Localized(p) => {
                for ((row, &min), &e) in self.u.iter_rows().zip(&self.mins).zip(&self.extents) {
                    let (mut t, mut dt) = (0i64, 0i64);
                    for ((&a, &s), &ds) in row.iter().zip(d0).zip(delta) {
                        t = t.checked_add(a.checked_mul(s)?)?;
                        dt = dt.checked_add(a.checked_mul(ds)?)?;
                    }
                    let t = t.checked_sub(min)?;
                    if !inside(t, dt, e)? {
                        return None;
                    }
                    fold(t, dt, e)?;
                }
                Some(&**p)
            }
        };
        // Every `pos += step` of the `n` calls the cursor is good for.
        pos.checked_add(n.checked_mul(step)?)?;
        Some(Run {
            plan,
            pos,
            step,
            shift: 0,
            // The original layout's offset *is* the row-major index; a
            // localized run places itself on its first call.
            valid: if plan.is_none() {
                i64::MIN..i64::MAX
            } else {
                0..0
            },
            block: 0..0,
            group: 0,
        })
    }

    /// The thread that owns a data element (the thread whose iterations
    /// access it under the block distribution). Meaningful only for
    /// localized layouts; returns `None` for the original layout.
    pub fn owner_thread(&self, dvec: &[i64]) -> Option<usize> {
        match &self.plan {
            Plan::Original => None,
            Plan::Localized(p) => {
                assert_eq!(
                    dvec.len(),
                    self.dims.len(),
                    "subscript count must match rank"
                );
                let t = self.transform_clamped(dvec);
                Some(p.part.block_of(t[0]) as usize)
            }
        }
    }

    /// The desired memory controller of an interleave unit (unit index =
    /// element offset / `p`). Used by the OS-assisted page allocation
    /// policy under page interleaving. Returns `None` for the original
    /// layout (no preference).
    pub fn desired_unit_mc(&self, unit: i64) -> Option<McId> {
        match &self.plan {
            Plan::Original => None,
            Plan::Localized(p) => {
                let slot = (unit % p.n_slots_total as i64) as u32;
                Some(McId((slot % p.n_mcs) as u16))
            }
        }
    }

    /// Elements per interleave unit (0 for the original layout).
    pub fn unit_elems(&self) -> i64 {
        match &self.plan {
            Plan::Original => 0,
            Plan::Localized(p) => p.p_elems,
        }
    }

    /// The memory controllers serving thread `t`'s data under this layout:
    /// the MCs of the slots assigned to the thread's owner group, one entry
    /// per slot (so a controller holding two of the group's slots appears
    /// twice — callers treating the list as a traffic split get the right
    /// weights). `None` for the original layout, whose units interleave
    /// uniformly across all controllers.
    ///
    /// This is the static traffic-split query the locality estimator
    /// (`hoploc-est`) builds its hop-expectation and queue-pressure models
    /// on.
    pub fn thread_mcs(&self, thread: usize) -> Option<impl ExactSizeIterator<Item = McId> + '_> {
        match &self.plan {
            Plan::Original => None,
            Plan::Localized(p) => {
                let g = *p.thread_group.get(thread)? as usize;
                Some(
                    p.group_slots[g]
                        .iter()
                        .map(move |&slot| McId((slot % p.n_mcs) as u16)),
                )
            }
        }
    }

    /// Transformed extents (after `U` and shifting).
    pub fn extents(&self) -> &[i64] {
        &self.extents
    }

    /// `U·clamp(dvec)`, shifted and clamped into the transformed box, in
    /// the first `rank` entries of a stack array: this runs once per
    /// generated trace access, so it must not allocate. The caller has
    /// checked `dvec.len() == rank`.
    fn transform_clamped(&self, dvec: &[i64]) -> [i64; MAX_RANK] {
        let n = dvec.len();
        let mut clamped = [0i64; MAX_RANK];
        for ((c, &s), &d) in clamped.iter_mut().zip(dvec).zip(&self.dims) {
            *c = s.clamp(0, d - 1);
        }
        let mut t = [0i64; MAX_RANK];
        self.u.mul_vec_into(&clamped[..n], &mut t[..n]);
        for ((x, &m), &e) in t.iter_mut().zip(&self.mins).zip(&self.extents) {
            *x = (*x - m).clamp(0, e - 1);
        }
        t
    }
}

/// The cursor [`ArrayLayout::run`] returns: yields the element offsets of
/// the run's points in order, an add per point.
///
/// The run invariant: while `pos` — the row-major index of the current
/// point in the transformed box, `t₀·slab + rest` — stays inside `valid`,
/// the point's offset is `pos + shift`. `valid` is the part of the
/// point's interleave unit that its owner thread's block covers, so
/// leaving it is the only time the divisions of `place` run again: two
/// (unit, super-group) and the slot lookup per unit crossed, one more per
/// thread block crossed. A run along the partition dimension (rank-1
/// arrays, 1-deep nests) crosses blocks and owner groups; any other run
/// stays in one.
#[derive(Clone, Debug)]
pub struct Run<'a> {
    /// `None` for the original layout, whose `valid` is everything.
    plan: Option<&'a LocalizedPlan>,
    pos: i64,
    step: i64,
    shift: i64,
    valid: Range<i64>,
    /// The `pos` range of the current owner thread's block, and its group.
    block: Range<i64>,
    group: usize,
}

impl Run<'_> {
    /// The offset of the run's current point — `place` of it — then moves
    /// to the next. Good for the `n` calls the run was built for; beyond
    /// them the result is unspecified and the call may panic.
    #[inline]
    pub fn next_offset(&mut self) -> i64 {
        if !self.valid.contains(&self.pos) {
            self.relocate();
        }
        let offset = self.pos + self.shift;
        self.pos += self.step;
        offset
    }

    /// Re-derives `shift` and `valid` for the unit `pos` has moved into.
    fn relocate(&mut self) {
        let p = self
            .plan
            .expect("invariant: an original-layout run is valid everywhere");
        if !self.block.contains(&self.pos) {
            let per_block = p.part.block_size() * p.slab;
            let thread = self.pos / per_block;
            self.block = thread * per_block..(thread + 1) * per_block;
            self.group = p.thread_group[thread as usize] as usize;
        }
        // `pos` of the group's first element: units count from there.
        let base = p.group_v_lo[self.group] * p.slab;
        let unit = (self.pos - base) / p.p_elems;
        let start = base + unit * p.p_elems;
        self.shift = p.unit_start(self.group, unit) - start;
        self.valid = start.max(self.block.start)..(start + p.p_elems).min(self.block.end);
    }
}

/// Row-major offset of the non-partition dimensions of a transformed
/// vector.
fn rest_offset(t: &[i64], extents: &[i64]) -> i64 {
    let mut off = 0i64;
    for k in 1..t.len() {
        off = off * extents[k] + t[k];
    }
    off
}

/// Assigns each thread a home-bank slot for the shared-L2 layout.
///
/// Every slot `s` places the thread's units on home bank `s % N` and
/// controller `s % N'`. [`SharedPolicy::OnChipFirst`] keeps `s` as close to
/// the thread's own node id as possible while requiring the controller to
/// be desired *or adjacent to* a desired one; [`SharedPolicy::OffChipFirst`]
/// requires exactly a desired controller.
fn assign_shared_slots(
    mapping: &L2ToMcMapping,
    binding: &ThreadBinding,
    policy: SharedPolicy,
) -> Vec<u32> {
    let n = binding.len();
    let n_mcs = mapping.num_mcs();
    let mesh = mapping.mesh();
    // Adjacency: controllers within half the mesh perimeter-step of a
    // desired controller (nearest neighbours on the chip boundary).
    let adj_threshold = (mesh.width().max(mesh.height())) as u32;

    let mut taken = vec![false; 2 * n]; // allow one extension round
    let mut out = vec![0u32; n];
    #[allow(clippy::needless_range_loop)]
    for t in 0..n {
        let node = binding.node_of(t);
        let desired = mapping.mcs_of_node(node);
        let is_ok = |mc: McId| -> (bool, bool) {
            let exact = desired.contains(&mc);
            let adjacent = desired.iter().any(|&d| {
                mesh.hop_distance(mapping.mc_node(d), mapping.mc_node(mc)) <= adj_threshold
            });
            (exact, adjacent)
        };
        // Rank all free slots by (constraint satisfaction, |s - node|, s).
        let mut best: Option<(u32, u64, usize)> = None;
        #[allow(clippy::needless_range_loop)]
        for s in 0..2 * n {
            if taken[s] {
                continue;
            }
            let mc = McId((s % n_mcs) as u16);
            let (exact, adjacent) = is_ok(mc);
            let class = match policy {
                SharedPolicy::OffChipFirst => {
                    if exact {
                        0
                    } else if adjacent {
                        2
                    } else {
                        3
                    }
                }
                SharedPolicy::OnChipFirst => {
                    if exact {
                        0
                    } else if adjacent {
                        1
                    } else {
                        3
                    }
                }
            };
            let home = (s % n) as i64;
            let dist =
                mesh.hop_distance(node, NodeId(home as u16)) as u64 + if s >= n { 1 } else { 0 }; // discourage the extension round
            let key = (class, dist, s);
            if best.map(|b| key < (b.0, b.1, b.2)).unwrap_or(true) {
                best = Some(key);
            }
        }
        let (_, _, s) = best.expect(
            "invariant: 2n candidate slots for n threads, each thread takes one, \
             so at least n remain free when thread t < n picks",
        );
        taken[s] = true;
        out[t] = s as u32;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_to_core::determine_data_to_core;
    use hoploc_affine::{AffineAccess, ArrayDecl, ArrayRef, Loop, LoopNest, Program, Statement};
    use hoploc_noc::{McPlacement, Mesh};
    use std::collections::HashSet;

    fn setup() -> (L2ToMcMapping, ThreadBinding) {
        let mapping = L2ToMcMapping::nearest_cluster(Mesh::new(8, 8), &McPlacement::Corners);
        let binding = ThreadBinding::cluster_major(&mapping);
        (mapping, binding)
    }

    fn simple_program(dims: Vec<i64>) -> (Program, hoploc_affine::ArrayId) {
        let mut p = Program::new("t");
        let n = dims.len();
        let x = p.add_array(ArrayDecl::new("X", dims.clone(), 8));
        p.add_nest(LoopNest::new(
            dims.iter().map(|&d| Loop::constant(0, d)).collect(),
            0,
            vec![Statement::new(
                vec![ArrayRef::read(x, AffineAccess::identity(n))],
                1,
            )],
            1,
        ));
        (p, x)
    }

    fn private_layout(dims: Vec<i64>) -> (ArrayLayout, L2ToMcMapping, ThreadBinding) {
        let (p, x) = simple_program(dims);
        let d2c = determine_data_to_core(&p, x).unwrap();
        let (mapping, binding) = setup();
        let l = ArrayLayout::localized_private(p.array(x), &d2c, &mapping, &binding, 256);
        (l, mapping, binding)
    }

    #[test]
    fn private_layout_is_injective() {
        let (l, _, _) = private_layout(vec![256, 64]);
        let mut seen = HashSet::new();
        for a0 in 0..256 {
            for a1 in 0..64 {
                let off = l.place(&[a0, a1]);
                assert!(off >= 0 && off < l.span_elements());
                assert!(seen.insert(off), "collision at ({a0},{a1})");
            }
        }
    }

    #[test]
    fn private_layout_sends_units_to_owner_cluster_mc() {
        let (l, mapping, binding) = private_layout(vec![256, 64]);
        let p = 256 / 8; // elements per 256B unit
        for a0 in (0..256).step_by(7) {
            for a1 in (0..64).step_by(5) {
                let off = l.place(&[a0, a1]);
                let unit = off / p;
                let mc = McId((unit % mapping.num_mcs() as i64) as u16);
                let owner = l.owner_thread(&[a0, a1]).unwrap();
                let cluster = mapping.cluster_of(binding.node_of(owner));
                assert!(
                    mapping.cluster_mcs(cluster).contains(&mc),
                    "element ({a0},{a1}) owner thread {owner} got {mc} not in cluster set"
                );
            }
        }
    }

    #[test]
    fn private_layout_units_are_owner_pure() {
        // No interleave unit mixes elements of different owner clusters.
        let (l, mapping, binding) = private_layout(vec![256, 64]);
        let p = 256 / 8;
        let mut unit_owner: std::collections::HashMap<i64, u16> = Default::default();
        for a0 in 0..256 {
            for a1 in 0..64 {
                let unit = l.place(&[a0, a1]) / p;
                let owner = l.owner_thread(&[a0, a1]).unwrap();
                let cluster = mapping.cluster_of(binding.node_of(owner)).0;
                if let Some(&prev) = unit_owner.get(&unit) {
                    assert_eq!(prev, cluster, "unit {unit} mixes clusters");
                } else {
                    unit_owner.insert(unit, cluster);
                }
            }
        }
    }

    #[test]
    fn m2_units_round_robin_over_two_mcs() {
        let (p, x) = simple_program(vec![256, 64]);
        let d2c = determine_data_to_core(&p, x).unwrap();
        let mapping = L2ToMcMapping::halves(Mesh::new(8, 8), &McPlacement::Corners);
        let binding = ThreadBinding::cluster_major(&mapping);
        let l = ArrayLayout::localized_private(p.array(x), &d2c, &mapping, &binding, 256);
        let pe = 256 / 8;
        // Collect the set of MCs used by elements of thread 0 (left half).
        let mut mcs = HashSet::new();
        for a0 in 0..4 {
            for a1 in 0..64 {
                let unit = l.place(&[a0, a1]) / pe;
                mcs.insert((unit % 4) as u16);
            }
        }
        let cluster = mapping.cluster_of(binding.node_of(0));
        let expect: HashSet<u16> = mapping.cluster_mcs(cluster).iter().map(|m| m.0).collect();
        assert_eq!(mcs, expect, "left-half data must rotate over both left MCs");
        assert_eq!(mcs.len(), 2);
    }

    #[test]
    fn shared_layout_is_injective_and_bounded() {
        let (p, x) = simple_program(vec![256, 64]);
        let d2c = determine_data_to_core(&p, x).unwrap();
        let (mapping, binding) = setup();
        let l = ArrayLayout::localized_shared(
            p.array(x),
            &d2c,
            &mapping,
            &binding,
            256,
            SharedPolicy::OnChipFirst,
        );
        let mut seen = HashSet::new();
        for a0 in 0..256 {
            for a1 in 0..64 {
                let off = l.place(&[a0, a1]);
                assert!(
                    off >= 0 && off < l.span_elements(),
                    "offset {off} out of span"
                );
                assert!(seen.insert(off), "collision at ({a0},{a1})");
            }
        }
    }

    #[test]
    fn shared_offchip_first_hits_exact_mcs() {
        let (p, x) = simple_program(vec![256, 64]);
        let d2c = determine_data_to_core(&p, x).unwrap();
        let (mapping, binding) = setup();
        let l = ArrayLayout::localized_shared(
            p.array(x),
            &d2c,
            &mapping,
            &binding,
            256,
            SharedPolicy::OffChipFirst,
        );
        let pe = 256 / 8;
        for a0 in (0..256).step_by(11) {
            let off = l.place(&[a0, 0]);
            let unit = off / pe;
            let mc = McId((unit % 4) as u16);
            let owner = l.owner_thread(&[a0, 0]).unwrap();
            let cluster = mapping.cluster_of(binding.node_of(owner));
            assert!(mapping.cluster_mcs(cluster).contains(&mc));
        }
    }

    #[test]
    fn original_layout_is_row_major() {
        let decl = ArrayDecl::new("X", vec![4, 8], 8);
        let l = ArrayLayout::original(&decl);
        assert_eq!(l.place(&[0, 0]), 0);
        assert_eq!(l.place(&[1, 2]), 10);
        assert!(l.is_original());
        assert_eq!(l.span_elements(), 32);
        assert_eq!(l.desired_unit_mc(0), None);
    }

    #[test]
    fn desired_unit_mc_matches_place() {
        let (l, mapping, _) = private_layout(vec![256, 64]);
        let p = 256 / 8;
        for a0 in (0..256).step_by(13) {
            let off = l.place(&[a0, 3]);
            let unit = off / p;
            let by_query = l.desired_unit_mc(unit).unwrap();
            let by_arith = McId((unit % mapping.num_mcs() as i64) as u16);
            assert_eq!(by_query, by_arith);
        }
    }

    #[test]
    fn base_alignment_covers_supergroup() {
        let (l, mapping, _) = private_layout(vec![256, 64]);
        assert_eq!(l.base_alignment_bytes(), mapping.num_mcs() as i64 * 256);
    }

    #[test]
    fn span_padding_is_bounded() {
        // Padding should stay a small multiple of the raw size.
        let (l, _, _) = private_layout(vec![256, 64]);
        let raw = 256 * 64;
        assert!(l.span_elements() >= raw);
        assert!(l.span_elements() <= raw * 2, "padding overhead too large");
    }

    #[test]
    fn plan_view_exposes_localized_internals() {
        let (l, mapping, _) = private_layout(vec![256, 64]);
        let v = l.plan_view().expect("localized layout has a plan");
        assert_eq!(v.p_elems, 256 / 8);
        assert_eq!(v.n_mcs, mapping.num_mcs() as u32);
        assert_eq!(v.thread_group.len(), 64);
        assert_eq!(v.group_slots.len(), mapping.num_clusters());
        let decl = ArrayDecl::new("X", vec![4, 4], 8);
        assert!(ArrayLayout::original(&decl).plan_view().is_none());
    }

    #[test]
    fn from_parts_can_build_an_aliasing_plan() {
        // Two groups deliberately sharing slot 0: distinct elements must
        // collide — the defect the hoploc-check verifier exists to catch.
        let decl = ArrayDecl::new("X", vec![64, 32], 8);
        let l = ArrayLayout::from_parts(
            &decl,
            IMat::identity(2),
            256,
            vec![0; 32].into_iter().chain(vec![1; 32]).collect(),
            vec![vec![0], vec![0]],
            4,
            4,
        );
        let mut seen = HashSet::new();
        let mut collided = false;
        for a0 in 0..64 {
            for a1 in 0..32 {
                collided |= !seen.insert(l.place(&[a0, a1]));
            }
        }
        assert!(collided, "shared slot must alias the two groups' units");
    }

    #[test]
    fn shared_slots_are_distinct() {
        let (mapping, binding) = setup();
        for policy in [SharedPolicy::OnChipFirst, SharedPolicy::OffChipFirst] {
            let slots = assign_shared_slots(&mapping, &binding, policy);
            let set: HashSet<u32> = slots.iter().copied().collect();
            assert_eq!(
                set.len(),
                slots.len(),
                "slots must be distinct ({policy:?})"
            );
        }
    }

    #[test]
    fn shared_onchip_first_keeps_home_near() {
        let (mapping, binding) = setup();
        let mesh = *mapping.mesh();
        let slots = assign_shared_slots(&mapping, &binding, SharedPolicy::OnChipFirst);
        let n = binding.len();
        let avg_disp: f64 = (0..n)
            .map(|t| {
                let home = NodeId((slots[t] as usize % n) as u16);
                mesh.hop_distance(binding.node_of(t), home) as f64
            })
            .sum::<f64>()
            / n as f64;
        // Average displacement must be well under the mesh diameter.
        assert!(
            avg_disp < 4.0,
            "average home displacement {avg_disp} too large"
        );
    }
}
