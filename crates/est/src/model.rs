//! The footprint / traffic model: predicting off-chip behaviour of one
//! (application, layout, run-kind) cell without simulation.
//!
//! ## Footprint model
//!
//! For each loop nest the estimator mirrors the trace generator's walk
//! geometry exactly (strides, light-nest subsampling, hot-nest replay,
//! block-distributed parallel chunks) and computes, for every *reuse
//! level* `ℓ` (loops `< ℓ` pinned, loops `≥ ℓ` varying), the number of
//! distinct L2 lines `L(ℓ)` each reference group touches:
//!
//! ```text
//! L(depth) = span_lines(depth)                       (pinned iteration)
//! L(ℓ)     = min(span_lines(ℓ), n_ℓ · L(ℓ+1))        (outer levels)
//! ```
//!
//! where `span_lines(ℓ)` counts the lines overlapped by the union image
//! box of the group's subscript functions ([`AffineAccess::subscript_bounds`])
//! and `n_ℓ` is the walked trip count of loop `ℓ`. The `min` recurrence
//! makes `L(ℓ) ≤ n_ℓ · L(ℓ+1)` by construction, which in turn makes the
//! predicted miss count *non-increasing in L2 capacity* — the property
//! test relies on this, not on numerical luck.
//!
//! The *fit level* `ℓ*` is the outermost level whose nest footprint fits
//! the effective capacity (per-node L2 for private mode, the aggregate
//! NUCA capacity for shared mode); every loop outside `ℓ*` re-streams the
//! level-`ℓ*` working set, so the nest's off-chip demand is
//! `L(ℓ*) · Π_{k<ℓ*} n_k` (times the replay count when even the full
//! nest footprint exceeds capacity). References whose subscripts ignore
//! the parallel iterator are *broadcast*: every core touches the same
//! lines, the chip fetches them off-chip once (the directory or home
//! bank serves the other cores), so they are counted once globally and
//! the parallel loop contributes no multiplier.
//!
//! All of this is [`Footprint::of`]: it reads the application and the
//! cache shape only, in integer arithmetic, so one footprint serves every
//! layout, mapping and run kind it is then routed through.
//!
//! ## Hop expectation and queue pressure
//!
//! [`Footprint::route`] — the only floating-point half. [`Footprint::terms`]
//! is the same loop without the per-array and per-reference breakdown: the
//! three totals a search scores, bit for bit.
//!
//! Off-chip demand is split across memory controllers statically: the
//! layout plan's slot arithmetic ([`ArrayLayout::thread_mcs`]) for
//! optimized arrays, uniform interleave for original layouts, the owner
//! cluster's controllers for a friendly first-touch policy, the nearest
//! controller under the optimal-placement idealization. The expected
//! off-chip hop count weights each (requester, controller) pair with its
//! mesh distance — the requester being the core's node for private L2s
//! and the line's home tile for shared NUCA. Queue pressure is the
//! maximum controller share normalized so `1.0` = perfectly balanced and
//! `n_mcs` = everything on one controller.

use std::collections::HashMap;

use hoploc_affine::{AccessFn, AffineAccess, ArrayId, LoopNest, Program};
use hoploc_layout::{ArrayLayout, Granularity, L2Mode, ProgramLayout};
use hoploc_noc::{L2ToMcMapping, McId, Mesh, NodeId};
use hoploc_sim::SimConfig;
use hoploc_workloads::{App, LayoutPlanner, RunKind};

use crate::diag::plan_mc_shares_into;

/// The [`EstConfig`] fields [`Footprint::of`] reads: cache organization,
/// L2 bytes, line bytes, node count, threads per core. A footprint may be
/// shared between configurations that agree on these.
pub type FootprintInputs = (L2Mode, u64, u64, usize, usize);

/// The machine parameters the estimator needs — a small projection of
/// [`SimConfig`] so predictions are comparable to a given simulation.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct EstConfig {
    /// Per-node L2 capacity in bytes.
    pub l2_bytes: u64,
    /// L2 line size in bytes (the off-chip transfer unit).
    pub line_bytes: u64,
    /// Last-level cache organization.
    pub l2_mode: L2Mode,
    /// Interleaving granularity of physical addresses across MCs.
    pub granularity: Granularity,
    /// Number of mesh nodes (cores / L2 tiles).
    pub num_nodes: usize,
    /// Threads per core (Figure 24).
    pub threads_per_core: usize,
}

impl EstConfig {
    /// Projects a simulator configuration onto the estimator's inputs.
    pub fn from_sim(sim: &SimConfig) -> Self {
        Self {
            l2_bytes: sim.l2.size_bytes,
            line_bytes: sim.l2.line_bytes,
            l2_mode: sim.l2_mode,
            granularity: sim.granularity,
            num_nodes: sim.num_nodes(),
            threads_per_core: 1,
        }
    }

    /// Builder-style threads-per-core override.
    pub fn with_threads_per_core(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread per core");
        self.threads_per_core = threads;
        self
    }

    /// This configuration's [`FootprintInputs`].
    pub fn footprint_inputs(&self) -> FootprintInputs {
        (
            self.l2_mode,
            self.l2_bytes,
            self.line_bytes,
            self.num_nodes,
            self.threads_per_core,
        )
    }

    /// The capacity a working set is measured against: the per-node L2
    /// for private mode, the whole NUCA for shared mode.
    fn effective_capacity(&self) -> u64 {
        match self.l2_mode {
            L2Mode::Private => self.l2_bytes,
            L2Mode::Shared => self.l2_bytes * self.num_nodes as u64,
        }
    }
}

/// Prediction for one reference (nest, statement, reference coordinates
/// match the diagnostics' locations).
#[derive(Clone, PartialEq, Debug)]
pub struct RefEstimate {
    /// Nest index within the program.
    pub nest: usize,
    /// Statement index within the nest.
    pub statement: usize,
    /// Reference index within the statement.
    pub reference: usize,
    /// The referenced array's name.
    pub array: String,
    /// Accesses this reference issues (mirrors the trace walk).
    pub accesses: u64,
    /// Predicted off-chip line fetches attributed to this reference.
    pub predicted_offchip: u64,
    /// Whether the subscripts ignore the parallel iterator (all cores
    /// touch the same elements).
    pub broadcast: bool,
    /// Whether the reference goes through an index table (the prediction
    /// is a coarser approximation there).
    pub indexed: bool,
}

/// Prediction for one array, aggregated over all its references.
#[derive(Clone, PartialEq, Debug)]
pub struct ArrayEstimate {
    /// The array's name.
    pub array: String,
    /// Accesses to the array across all nests.
    pub accesses: u64,
    /// Predicted off-chip line fetches.
    pub predicted_offchip: u64,
    /// Predicted mean off-chip request hop distance for this array's
    /// traffic (`None` when the array generates no off-chip traffic).
    pub avg_hops: Option<f64>,
    /// Whether any reference to the array is broadcast.
    pub broadcast: bool,
    /// Whether any reference is indexed (estimate approximate).
    pub indexed: bool,
}

/// The totals of one prediction that a design-space search scores and
/// reports — an [`AppEstimate`]'s `offchip_fraction()`,
/// `avg_offchip_hops` and `queue_pressure` — as [`Footprint::terms`]
/// routes them without the breakdown.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct EstTerms {
    /// Predicted off-chip fraction.
    pub offchip: f64,
    /// Predicted mean off-chip hop count.
    pub hops: f64,
    /// Predicted queue pressure (1 = balanced).
    pub queue: f64,
}

/// The full static prediction for one (application, layout, kind) cell.
#[derive(Clone, Debug)]
pub struct AppEstimate {
    /// Application name.
    pub app: String,
    /// The run kind predicted.
    pub kind: RunKind,
    /// Total accesses (exact mirror of the generated trace volume).
    pub total_accesses: u64,
    /// Predicted off-chip line fetches.
    pub predicted_offchip: u64,
    /// Predicted mean off-chip request hop distance.
    pub avg_offchip_hops: f64,
    /// Predicted per-MC traffic shares (sum to 1 when there is traffic).
    pub mc_shares: Vec<f64>,
    /// Max MC share × number of MCs: 1.0 = balanced, `n_mcs` = one
    /// controller takes everything.
    pub queue_pressure: f64,
    /// Whether the app streams (its working set exceeds capacity, so
    /// off-chip traffic scales with accesses rather than footprint).
    pub streaming: bool,
    /// Per-array breakdown.
    pub arrays: Vec<ArrayEstimate>,
    /// Per-reference breakdown.
    pub refs: Vec<RefEstimate>,
}

impl AppEstimate {
    /// Predicted off-chip fraction.
    pub fn offchip_fraction(&self) -> f64 {
        offchip_fraction(self.predicted_offchip, self.total_accesses)
    }

    /// Fraction of accesses a stride/stream prefetcher can learn from:
    /// accesses through affine (non-index-table) references. Indexed
    /// references follow profiled tables, so their address streams carry
    /// no stride for the reference-keyed tables to lock onto.
    pub fn prefetchability(&self) -> f64 {
        let total: u64 = self.refs.iter().map(|r| r.accesses).sum();
        if total == 0 {
            return 1.0;
        }
        let affine: u64 = self
            .refs
            .iter()
            .filter(|r| !r.indexed)
            .map(|r| r.accesses)
            .sum();
        affine as f64 / total as f64
    }
}

/// Number of `line`-byte lines overlapped by an element box (inclusive
/// per-dimension bounds, row-major, already clamped into the array).
/// Trailing fully-covered dimensions merge into contiguous runs.
fn lines_in_box(dims: &[i64], lo: &[i64], hi: &[i64], elem: u64, line: u64) -> u64 {
    let rank = dims.len();
    let mut w = vec![0i64; rank];
    for d in 0..rank {
        if hi[d] < lo[d] {
            return 0;
        }
        w[d] = hi[d] - lo[d] + 1;
    }
    // The contiguous run: the fastest dimension's width, extended outward
    // while a dimension is fully covered.
    let mut run: i128 = 1;
    let mut d = rank;
    while d > 0 {
        d -= 1;
        run *= w[d] as i128;
        if w[d] != dims[d] {
            break;
        }
    }
    let rows: i128 = w[..d].iter().map(|&x| x as i128).product();
    let run_bytes = run * elem as i128;
    let lines_per_run = (run_bytes + line as i128 - 1) / line as i128;
    let by_rows = rows * lines_per_run;
    // Rows shorter than a line pack several to a line: cap by the
    // row-major address span of the box.
    let linearize = |pt: &[i64]| -> i128 {
        let mut off = 0i128;
        for d in 0..rank {
            off = off * dims[d] as i128 + pt[d] as i128;
        }
        off
    };
    let lo_byte = linearize(lo) * elem as i128;
    let hi_byte = (linearize(hi) + 1) * elem as i128 - 1;
    let by_span = hi_byte / line as i128 - lo_byte / line as i128 + 1;
    by_rows.min(by_span).clamp(0, u64::MAX as i128) as u64
}

/// The union image box of a group of same-matrix accesses over an
/// iteration box, clamped into the array, rendered as distinct lines.
fn span_lines(
    accs: &[&AffineAccess],
    dims: &[i64],
    elem: u64,
    line: u64,
    ranges: &[(i64, i64)],
) -> u64 {
    let rank = dims.len();
    let mut lo = vec![i64::MAX; rank];
    let mut hi = vec![i64::MIN; rank];
    for a in accs {
        let b = a.subscript_bounds(ranges);
        for d in 0..rank {
            lo[d] = lo[d].min(b[d].0);
            hi[d] = hi[d].max(b[d].1);
        }
    }
    for d in 0..rank {
        lo[d] = lo[d].clamp(0, dims[d] - 1);
        hi[d] = hi[d].clamp(0, dims[d] - 1);
    }
    lines_in_box(dims, &lo, &hi, elem, line)
}

/// Walked trip counts and walk geometry of one nest for one thread,
/// mirroring `generate_traces`.
struct Walk {
    /// Inclusive iterator ranges, with the parallel dimension restricted
    /// to the thread's chunk (or the full range for the global walk).
    ranges: Vec<(i64, i64)>,
    /// Midpoints used to pin loops outside the reuse level.
    mids: Vec<i64>,
    /// Walked iteration count per loop (after strides).
    counts: Vec<u64>,
}

impl Walk {
    /// Walked iterations of the whole nest.
    fn points(&self) -> u64 {
        self.counts.iter().product()
    }

    /// `Π_{k<lvl} counts[k]`, optionally treating the parallel loop as a
    /// single iteration (broadcast accounting).
    fn outer_mult(&self, lvl: usize, skip_par: Option<usize>) -> u64 {
        self.counts[..lvl]
            .iter()
            .enumerate()
            .map(|(k, &c)| if Some(k) == skip_par { 1 } else { c })
            .product()
    }
}

/// Builds the walk geometry for `thread` (or the global walk when
/// `thread` is `None`).
fn walk_for(nest: &LoopNest, strides: &[i64], thread: Option<(usize, usize)>) -> Walk {
    let mut ranges = nest.iteration_ranges();
    let trips = nest.trip_count_estimates();
    let par = nest.parallel_dim();
    if let Some((t, n_threads)) = thread {
        let (c_lo, c_hi) = nest.chunk_for_core(t, n_threads);
        ranges[par] = (c_lo, c_hi - 1);
    }
    let mids: Vec<i64> = ranges
        .iter()
        .map(|&(lo, hi)| if lo > hi { lo } else { lo + (hi - lo) / 2 })
        .collect();
    let counts: Vec<u64> = (0..nest.depth())
        .map(|k| {
            let trip = if k == par {
                (ranges[par].1 - ranges[par].0 + 1).max(0)
            } else {
                trips[k].max(0)
            };
            ((trip + strides[k] - 1) / strides[k]).max(0) as u64
        })
        .collect();
    Walk {
        ranges,
        mids,
        counts,
    }
}

/// The `L(ℓ)` recurrence for one same-matrix group of accesses over one
/// walk. `skip_par` treats the parallel loop as a single iteration
/// (broadcast groups, whose boxes ignore it anyway).
fn level_lines(
    accs: &[&AffineAccess],
    dims: &[i64],
    elem: u64,
    line: u64,
    walk: &Walk,
    skip_par: Option<usize>,
) -> Vec<u64> {
    let depth = walk.ranges.len();
    let mut l = vec![0u64; depth + 1];
    // An empty chunk (thread past the parallel range) touches nothing.
    if walk.counts.contains(&0) {
        return l;
    }
    let mut prev = 0u64;
    for lvl in (0..=depth).rev() {
        let r: Vec<(i64, i64)> = (0..depth)
            .map(|k| {
                if k < lvl {
                    (walk.mids[k], walk.mids[k])
                } else {
                    walk.ranges[k]
                }
            })
            .collect();
        let span = span_lines(accs, dims, elem, line, &r);
        // Walked-point cap: heavy subsampling can touch fewer lines than
        // the geometric span.
        let pts: u64 = (lvl..depth)
            .map(|k| {
                if Some(k) == skip_par {
                    1
                } else {
                    walk.counts[k]
                }
            })
            .product::<u64>()
            .saturating_mul(accs.len() as u64);
        let val = if lvl == depth {
            span.min(pts.max(1))
        } else {
            let mult = if Some(lvl) == skip_par {
                1
            } else {
                walk.counts[lvl].max(1)
            };
            span.min(prev.saturating_mul(mult)).min(pts)
        };
        l[lvl] = val;
        prev = val;
    }
    l
}

/// A same-matrix group of affine references to one array in one nest.
struct RefGroup {
    /// `(statement, reference)` coordinates of the members.
    members: Vec<(usize, usize)>,
    accesses: Vec<AffineAccess>,
}

/// Everything the model computed for one (nest, array) pair.
struct NestArray {
    array: ArrayId,
    part_groups: Vec<RefGroup>,
    bcast_groups: Vec<RefGroup>,
    /// `(statement, reference)` coordinates of indexed refs.
    indexed: Vec<(usize, usize)>,
}

/// Distinct L2 lines named by a profiled table over a 1-D array.
fn table_lines(table: &[i64], extent: i64, elem: u64, line: u64) -> u64 {
    let per_line = (line / elem).max(1) as i64;
    let n_lines = ((extent + per_line - 1) / per_line).max(1) as usize;
    let mut seen = vec![false; n_lines];
    let mut count = 0u64;
    for &v in table {
        let l = (v.clamp(0, extent - 1) / per_line) as usize;
        if !seen[l] {
            seen[l] = true;
            count += 1;
        }
    }
    count
}

/// Splits one nest's references into the model's groups.
fn group_refs(program: &Program, nest: &LoopNest) -> Vec<NestArray> {
    let par = nest.parallel_dim();
    let mut order: Vec<ArrayId> = Vec::new();
    let mut by_array: HashMap<ArrayId, NestArray> = HashMap::new();
    for (si, stmt) in nest.body().iter().enumerate() {
        for (ri, r) in stmt.refs.iter().enumerate() {
            let entry = by_array.entry(r.array).or_insert_with(|| {
                order.push(r.array);
                NestArray {
                    array: r.array,
                    part_groups: Vec::new(),
                    bcast_groups: Vec::new(),
                    indexed: Vec::new(),
                }
            });
            match &r.access {
                AccessFn::Affine(a) => {
                    let groups = if a.depends_on(par) {
                        &mut entry.part_groups
                    } else {
                        &mut entry.bcast_groups
                    };
                    match groups
                        .iter_mut()
                        .find(|g| g.accesses[0].matrix() == a.matrix())
                    {
                        Some(g) => {
                            g.members.push((si, ri));
                            g.accesses.push(a.clone());
                        }
                        None => groups.push(RefGroup {
                            members: vec![(si, ri)],
                            accesses: vec![a.clone()],
                        }),
                    }
                }
                AccessFn::Indexed { table, .. } => {
                    if program.table(*table).is_empty() {
                        continue;
                    }
                    entry.indexed.push((si, ri));
                }
            }
        }
    }
    order
        .into_iter()
        .map(|a| by_array.remove(&a).unwrap())
        .collect()
}

/// Hop-weighted off-chip volume: the mean hop count is their ratio.
#[derive(Clone, Copy, Default)]
struct Flow {
    hops: f64,
    volume: f64,
}

impl Flow {
    fn merge(&mut self, other: Flow) {
        self.hops += other.hops;
        self.volume += other.volume;
    }

    fn avg_hops(&self) -> Option<f64> {
        (self.volume > 0.0).then(|| self.hops / self.volume)
    }
}

/// Traffic accumulator: per-MC line counts plus hop-weighted volume.
struct Traffic<'b> {
    per_mc: &'b mut [f64],
    flow: Flow,
}

/// Everything one routing writes, kept by a [`PlacementScorer`] across the
/// placements it scores, so that scoring one allocates nothing here.
#[derive(Default)]
struct RouteBuffers {
    /// The mesh `rows` is for.
    mesh: Option<Mesh>,
    /// The hop row of every controller site routed to so far, one after
    /// another in order of first use: the distance from each node, in node
    /// order, then the row's mean — the distance from a uniformly drawn
    /// node. A scorer computes each site's row once.
    rows: Vec<f64>,
    /// Per node, the offset of its row in `rows` once it has been a site,
    /// else `usize::MAX`.
    row_at: Vec<usize>,
    /// Hop distance from every node to every controller of the cell being
    /// routed, controller-major (`mc * num_nodes + node`).
    hops: Vec<f64>,
    /// Mean hop distance from a uniformly drawn node to each controller.
    uniform_hops: Vec<f64>,
    /// Per-MC lines of the whole cell, and of the component being routed.
    cell: Vec<f64>,
    component: Vec<f64>,
    /// A localized plan's per-controller slot shares.
    shares: Vec<f64>,
}

impl RouteBuffers {
    /// Fills the hop rows of `mapping`'s controllers and sizes the per-MC
    /// accumulators for them.
    fn prepare(&mut self, mapping: &L2ToMcMapping) {
        let (mesh, n_mcs) = (*mapping.mesh(), mapping.num_mcs());
        let n = mesh.num_nodes();
        if self.mesh != Some(mesh) {
            self.mesh = Some(mesh);
            self.rows.clear();
            self.row_at.clear();
            self.row_at.resize(n, usize::MAX);
        }
        self.hops.clear();
        self.uniform_hops.clear();
        for m in 0..n_mcs {
            let site = mapping.mc_node(McId(m as u16));
            let mut at = self.row_at[site.0 as usize];
            if at == usize::MAX {
                at = self.rows.len();
                self.rows.reserve((n + 1) * n_mcs);
                self.rows.extend(mesh.hop_distances_to(site).map(f64::from));
                let mean = self.rows[at..].iter().sum::<f64>() / n as f64;
                self.rows.push(mean);
                self.row_at[site.0 as usize] = at;
            }
            let row = &self.rows[at..=at + n];
            self.hops.extend_from_slice(&row[..n]);
            self.uniform_hops.push(row[n]);
        }
        for v in [&mut self.cell, &mut self.component, &mut self.shares] {
            v.clear();
            v.resize(n_mcs, 0.0);
        }
    }
}

/// Where an off-chip request is issued from.
#[derive(Clone, Copy)]
enum Requester {
    /// A specific node (private-L2 core, or a shared-L2 home tile).
    Node(NodeId),
    /// Uniformly spread over all nodes.
    Uniform,
}

/// The static traffic split of one (layout, mapping, kind) cell.
struct Router<'a> {
    mapping: &'a L2ToMcMapping,
    cfg: &'a EstConfig,
    kind: RunKind,
    first_touch_friendly: bool,
    /// [`RouteBuffers::hops`] and [`RouteBuffers::uniform_hops`], filled
    /// for `mapping`.
    hops: &'a [f64],
    uniform_hops: &'a [f64],
}

impl Router<'_> {
    /// Hop distance from node `n` to controller `mc`, from the table.
    fn hops(&self, n: NodeId, mc: McId) -> f64 {
        self.hops[mc.0 as usize * self.cfg.num_nodes + n.0 as usize]
    }

    /// Splits `misses` lines of off-chip traffic for `thread`'s share of
    /// one array across controllers, weighting hops by requester distance.
    /// `shares` is scratch room for one localized plan's slot shares.
    fn route(
        &self,
        acc: &mut Traffic,
        misses: f64,
        requester: Requester,
        al: &ArrayLayout,
        thread: Option<usize>,
        shares: &mut [f64],
    ) {
        if misses <= 0.0 {
            return;
        }
        acc.flow.volume += misses;
        let (mapping, cfg) = (self.mapping, self.cfg);
        let n_nodes = cfg.num_nodes;
        let mut add = |mc: McId, w: f64| {
            let hops = match requester {
                Requester::Node(n) => self.hops(n, mc),
                Requester::Uniform => self.uniform_hops[mc.0 as usize],
            };
            acc.per_mc[mc.0 as usize] += w;
            acc.flow.hops += w * hops;
        };
        match self.kind {
            RunKind::Optimal => match requester {
                // The optimal idealization sends every request to the
                // requester's nearest controller.
                Requester::Node(n) => add(mapping.nearest_mc(n), misses),
                Requester::Uniform => {
                    let w = misses / n_nodes as f64;
                    for i in 0..n_nodes {
                        let n = NodeId(i as u16);
                        let mc = mapping.nearest_mc(n);
                        acc.per_mc[mc.0 as usize] += w;
                        acc.flow.hops += w * self.hops(n, mc);
                    }
                }
            },
            RunKind::FirstTouch => {
                // A friendly first touch lands each owner's pages on its
                // cluster's controllers (broadcast data is first touched
                // by thread 0); a mismatched one scatters pages with no
                // useful correlation to the requester — model as uniform.
                let owner_mcs = if self.first_touch_friendly {
                    let owner = mapping.cluster_of(node_of_thread(thread.unwrap_or(0), cfg));
                    mapping.cluster_mcs(owner)
                } else {
                    &[]
                };
                if owner_mcs.is_empty() {
                    let w = misses / mapping.num_mcs() as f64;
                    for m in 0..mapping.num_mcs() {
                        add(McId(m as u16), w);
                    }
                } else {
                    let w = misses / owner_mcs.len() as f64;
                    for &mc in owner_mcs {
                        add(mc, w);
                    }
                }
            }
            RunKind::Baseline | RunKind::Optimized => {
                let pinned = thread
                    .and_then(|t| al.thread_mcs(t))
                    .filter(|mcs| mcs.len() > 0);
                match pinned {
                    // The localized plan pins the thread's units to its
                    // group's slots (one list entry per slot, so shared
                    // controllers weight correctly).
                    Some(mcs) => {
                        let w = misses / mcs.len() as f64;
                        for mc in mcs {
                            add(mc, w);
                        }
                    }
                    // Traffic no single thread owns follows a localized
                    // plan's slot shares; original layouts interleave
                    // uniformly.
                    None if thread.is_none() && plan_mc_shares_into(al, shares) => {
                        for (m, share) in shares.iter().enumerate() {
                            add(McId(m as u16), misses * share);
                        }
                    }
                    None => {
                        let w = misses / mapping.num_mcs() as f64;
                        for m in 0..mapping.num_mcs() {
                            add(McId(m as u16), w);
                        }
                    }
                }
            }
        }
    }
}

/// The mesh node thread `t` runs on (threads share cores under SMT).
fn node_of_thread(t: usize, cfg: &EstConfig) -> NodeId {
    NodeId((t / cfg.threads_per_core % cfg.num_nodes) as u16)
}

/// The off-chip *requester* for thread `t`'s share of array `al`: the
/// core's node for private L2s; for shared NUCA, the home tile the
/// localized plan pins the thread's lines to, when that is statically a
/// single node (cache-line units, super-group commensurate with the
/// mesh), else uniform.
fn requester_for(al: &ArrayLayout, binding_node: NodeId, t: usize, cfg: &EstConfig) -> Requester {
    match cfg.l2_mode {
        L2Mode::Private => Requester::Node(binding_node),
        L2Mode::Shared => {
            if cfg.granularity == Granularity::CacheLine && al.unit_bytes() as u64 == cfg.line_bytes
            {
                if let Some(v) = al.plan_view() {
                    if (v.n_slots_total as usize).is_multiple_of(cfg.num_nodes) {
                        if let Some(g) = v.thread_group.get(t) {
                            let slots = &v.group_slots[*g as usize];
                            if slots.len() == 1 {
                                return Requester::Node(NodeId(
                                    (slots[0] as usize % cfg.num_nodes) as u16,
                                ));
                            }
                        }
                    }
                }
            }
            Requester::Uniform
        }
    }
}

/// One reference class during per-ref attribution: (member (statement,
/// reference) coordinates, class accesses, class misses, broadcast?,
/// indexed?).
type RefClass<'a> = (&'a [(usize, usize)], u64, u64, bool, bool);

/// Per-(nest, array) footprint-model output, before aggregation.
struct ComponentMisses {
    nest: usize,
    array: ArrayId,
    /// Per-thread partitioned misses.
    part: Vec<u64>,
    /// Global broadcast misses.
    bcast: u64,
    /// Global indexed misses.
    indexed: u64,
    /// Accesses by class (partitioned affine, broadcast affine, indexed).
    acc_part: u64,
    acc_bcast: u64,
    acc_indexed: u64,
    /// Level-0 (whole-nest) footprints, for the app-fits cold pass:
    /// per-thread partitioned lines, their all-thread union, and the
    /// global broadcast + indexed lines.
    l0_part: Vec<u64>,
    l0_part_glob: u64,
    l0_bcast: u64,
    l0_idx: u64,
    /// `(statement, reference)` members by class, for attribution.
    part_members: Vec<(usize, usize)>,
    bcast_members: Vec<(usize, usize)>,
    idx_members: Vec<(usize, usize)>,
    streaming: bool,
}

/// The off-chip demand of one (nest, array) pair, ready to be routed.
#[derive(PartialEq, Debug)]
struct ComponentDemand {
    array: ArrayId,
    /// Index of the array's entry in [`Footprint::arrays`].
    slot: usize,
    /// Per-thread partitioned misses.
    part: Vec<u64>,
    /// Broadcast plus indexed misses (no single owning thread).
    global: u64,
}

/// The layout-independent half of a prediction: how many lines each
/// thread's share of each array fetches off-chip. It reads the program,
/// the trace-walk geometry and the cache shape — never the layout, the
/// mapping, the run kind, the interleaving granularity or the controller
/// count — and is all integer arithmetic, so one footprint serves every
/// placement a search scores: [`route`](Self::route) adds only the
/// per-controller `f64` split. Two footprints compare equal exactly when
/// every prediction routed from them agrees on the off-chip term.
#[derive(PartialEq, Debug)]
pub struct Footprint {
    app: String,
    first_touch_friendly: bool,
    /// The [`EstConfig`] fields the model read; `route` must be handed the
    /// same ones.
    model_inputs: FootprintInputs,
    components: Vec<ComponentDemand>,
    total_accesses: u64,
    predicted_offchip: u64,
    streaming: bool,
    /// Per-array totals in first-appearance order (`avg_hops` unset).
    arrays: Vec<ArrayEstimate>,
    refs: Vec<RefEstimate>,
}

impl Footprint {
    /// Runs the footprint model for `app` on the machine `cfg` describes
    /// (one thread group per node: `num_nodes × threads_per_core` threads).
    pub fn of(app: &App, cfg: &EstConfig) -> Self {
        let program = &app.program;
        let n_threads = cfg.num_nodes * cfg.threads_per_core;
        let line = cfg.line_bytes;
        let cap = cfg.effective_capacity();
        let nests = program.nests();
        let sampling = app.gen.sampling(program);

        // ── Per-nest footprint model ───────────────────────────────────
        let mut components: Vec<ComponentMisses> = Vec::new();
        for (ni, (nest, sampling)) in nests.iter().zip(&sampling).enumerate() {
            let strides = &sampling.strides;
            let reps = sampling.reps as u64;
            let par = nest.parallel_dim();
            let groups = group_refs(program, nest);
            if groups.is_empty() {
                continue;
            }
            let global_walk = walk_for(nest, strides, None);
            let thread_walks: Vec<Walk> = (0..n_threads)
                .map(|t| walk_for(nest, strides, Some((t, n_threads))))
                .collect();

            // Level line counts per (array, class).
            struct NestArrayLines {
                /// Per thread, per level.
                part: Vec<Vec<u64>>,
                /// Partitioned lines over the *global* walk (all threads'
                /// chunks at once) — the union footprint, free of the halo
                /// double-counting in `Σ_t part[t]`.
                part_glob: u64,
                /// Global, per level.
                bcast: Vec<u64>,
                indexed: u64,
                array_lines: u64,
            }
            let depth = nest.depth();
            let mut lines: Vec<NestArrayLines> = Vec::with_capacity(groups.len());
            for g in &groups {
                let decl = program.array(g.array);
                let dims = decl.dims();
                let elem = decl.elem_size() as u64;
                let array_lines =
                    ((decl.size_bytes() as u64).saturating_add(line - 1) / line).max(1);
                let sum_levels =
                    |walk: &Walk, groups: &[RefGroup], skip: Option<usize>| -> Vec<u64> {
                        let mut tot = vec![0u64; depth + 1];
                        for grp in groups {
                            let accs: Vec<&AffineAccess> = grp.accesses.iter().collect();
                            let l = level_lines(&accs, dims, elem, line, walk, skip);
                            for (t, v) in tot.iter_mut().zip(l) {
                                *t = t.saturating_add(v).min(array_lines);
                            }
                        }
                        tot
                    };
                let part: Vec<Vec<u64>> = thread_walks
                    .iter()
                    .map(|w| sum_levels(w, &g.part_groups, None))
                    .collect();
                let part_glob = sum_levels(&global_walk, &g.part_groups, None)[0];
                let bcast = sum_levels(&global_walk, &g.bcast_groups, Some(par));
                // Distinct target lines named by this array's index tables.
                let indexed: u64 = nest
                    .body()
                    .iter()
                    .flat_map(|s| s.refs.iter())
                    .filter(|r| r.array == g.array)
                    .filter_map(|r| match &r.access {
                        AccessFn::Indexed { table, .. } => {
                            let tab = program.table(*table);
                            (!tab.is_empty()).then(|| {
                                table_lines(tab, decl.dims()[0], decl.elem_size() as u64, line)
                            })
                        }
                        AccessFn::Affine(_) => None,
                    })
                    .sum::<u64>()
                    .min(array_lines);
                lines.push(NestArrayLines {
                    part,
                    part_glob,
                    bcast,
                    indexed,
                    array_lines,
                });
            }

            // Footprint at each level → fit levels.
            // Private: each node holds its thread's partitioned lines plus a
            // full copy of broadcast data; indexed table targets are shared,
            // so each node holds roughly its 1/n slice.
            // Shared: one aggregate capacity holds everything once.
            let nf_at = |lvl: usize, t: usize| -> u64 {
                let mut lines_total = 0u64;
                for la in &lines {
                    let part = la.part[t][lvl];
                    let add = match cfg.l2_mode {
                        L2Mode::Private => part
                            .saturating_add(la.bcast[lvl])
                            .saturating_add(la.indexed / n_threads as u64 + 1)
                            .min(la.array_lines),
                        L2Mode::Shared => part,
                    };
                    lines_total = lines_total.saturating_add(add);
                }
                lines_total.saturating_mul(line)
            };
            let nf_shared_at = |lvl: usize| -> u64 {
                let mut lines_total = 0u64;
                for la in &lines {
                    let mut a = la.bcast[lvl].saturating_add(la.indexed);
                    for t in 0..n_threads {
                        a = a.saturating_add(la.part[t][lvl]);
                    }
                    lines_total = lines_total.saturating_add(a.min(la.array_lines));
                }
                lines_total.saturating_mul(line)
            };
            let fit_level = |nf: &dyn Fn(usize) -> u64| -> usize {
                (0..=depth).find(|&l| nf(l) <= cap).unwrap_or(depth)
            };
            let fit_t: Vec<usize> = match cfg.l2_mode {
                L2Mode::Private => (0..n_threads)
                    .map(|t| fit_level(&|l| nf_at(l, t)))
                    .collect(),
                L2Mode::Shared => {
                    let l = fit_level(&|l| nf_shared_at(l));
                    vec![l; n_threads]
                }
            };
            // Broadcast data is evicted when the most loaded node (private)
            // or the aggregate (shared) overflows.
            let fit_b = match cfg.l2_mode {
                L2Mode::Private => {
                    fit_level(&|l| (0..n_threads).map(|t| nf_at(l, t)).max().unwrap_or(0))
                }
                L2Mode::Shared => fit_t[0],
            };

            for (g, la) in groups.iter().zip(&lines) {
                let reps_of = |fits: bool| if fits { 1 } else { reps };
                let mut part = vec![0u64; n_threads];
                let mut acc_part = 0u64;
                for t in 0..n_threads {
                    let lvl = fit_t[t];
                    let pts = thread_walks[t].points();
                    acc_part = acc_part.saturating_add(
                        pts.saturating_mul(
                            reps * g
                                .part_groups
                                .iter()
                                .map(|p| p.members.len() as u64)
                                .sum::<u64>(),
                        ),
                    );
                    // Consecutive iterations of the loop just outside the fit
                    // level reuse whatever their spans share (a stencil's
                    // overlap is retained: its reuse distance is one ℓ*-level
                    // footprint, which fits by definition). Misses across
                    // that loop therefore collapse to the *distinct* lines at
                    // ℓ*−1, and only loops outside ℓ*−1 re-stream them. When
                    // spans are disjoint `L(ℓ*−1) = n·L(ℓ*)` and this is the
                    // plain re-streaming count.
                    let ml = lvl.saturating_sub(1);
                    part[t] = la.part[t][ml]
                        .saturating_mul(thread_walks[t].outer_mult(ml, None))
                        .saturating_mul(reps_of(lvl == 0));
                }
                let acc_bcast: u64 = (0..n_threads)
                    .map(|t| thread_walks[t].points())
                    .sum::<u64>()
                    .saturating_mul(
                        reps * g
                            .bcast_groups
                            .iter()
                            .map(|p| p.members.len() as u64)
                            .sum::<u64>(),
                    );
                let mb = fit_b.saturating_sub(1);
                let bcast = la.bcast[mb]
                    .saturating_mul(global_walk.outer_mult(mb, Some(par)))
                    .saturating_mul(reps_of(fit_b == 0));
                let acc_indexed: u64 = (0..n_threads)
                    .map(|t| thread_walks[t].points())
                    .sum::<u64>()
                    .saturating_mul(reps * g.indexed.len() as u64);
                let indexed = la
                    .indexed
                    .saturating_mul(global_walk.outer_mult(mb, Some(par)))
                    .saturating_mul(reps_of(fit_b == 0))
                    .min(acc_indexed);
                let streaming = fit_t.iter().any(|&l| l > 0) || fit_b > 0;
                components.push(ComponentMisses {
                    nest: ni,
                    array: g.array,
                    part,
                    bcast,
                    indexed,
                    acc_part,
                    acc_bcast,
                    acc_indexed,
                    l0_part: (0..n_threads).map(|t| la.part[t][0]).collect(),
                    l0_part_glob: la.part_glob,
                    l0_bcast: la.bcast[0],
                    l0_idx: la.indexed,
                    part_members: g
                        .part_groups
                        .iter()
                        .flat_map(|p| p.members.iter().copied())
                        .collect(),
                    bcast_members: g
                        .bcast_groups
                        .iter()
                        .flat_map(|p| p.members.iter().copied())
                        .collect(),
                    idx_members: g.indexed.clone(),
                    streaming,
                });
            }
        }

        // ── App-level fit: when the whole working set fits, only cold misses
        // remain. Each nest's cold contribution is the footprint it adds over
        // what earlier nests already brought in (running coverage per array),
        // so a subsampled init nest fetches its sparse sample and the first
        // heavy nest fetches the rest — matching first-touch order in the
        // trace. ───────────────────────────────────────────────────────────
        // App-level footprint per array: max over nests of the level-0 lines.
        let mut app_part: HashMap<ArrayId, Vec<u64>> = HashMap::new();
        let mut app_part_glob: HashMap<ArrayId, u64> = HashMap::new();
        let mut app_bcast: HashMap<ArrayId, u64> = HashMap::new();
        for c in &components {
            let p = app_part
                .entry(c.array)
                .or_insert_with(|| vec![0; n_threads]);
            for (pt, &l0) in p.iter_mut().zip(&c.l0_part) {
                *pt = (*pt).max(l0);
            }
            let g = app_part_glob.entry(c.array).or_insert(0);
            *g = (*g).max(c.l0_part_glob);
            let b = app_bcast.entry(c.array).or_insert(0);
            *b = (*b).max(c.l0_bcast.saturating_add(c.l0_idx));
        }
        let app_fits = match cfg.l2_mode {
            L2Mode::Private => (0..n_threads).all(|t| {
                let lines_total: u64 = app_part
                    .iter()
                    .map(|(a, p)| p[t].saturating_add(*app_bcast.get(a).unwrap_or(&0)))
                    .sum();
                lines_total.saturating_mul(line) <= cap
            }),
            L2Mode::Shared => {
                let lines_total: u64 = app_part_glob
                    .iter()
                    .map(|(a, g)| g.saturating_add(*app_bcast.get(a).unwrap_or(&0)))
                    .sum();
                lines_total.saturating_mul(line) <= cap
            }
        };
        if app_fits {
            let mut seen_part: HashMap<ArrayId, Vec<u64>> = HashMap::new();
            let mut seen_glob: HashMap<ArrayId, u64> = HashMap::new();
            let mut seen_bcast: HashMap<ArrayId, u64> = HashMap::new();
            for c in components.iter_mut() {
                c.streaming = false;
                let seen = seen_part
                    .entry(c.array)
                    .or_insert_with(|| vec![0; n_threads]);
                let mut sum_t = 0u64;
                for (t, s) in seen.iter_mut().enumerate().take(n_threads) {
                    let contrib = c.l0_part[t].saturating_sub(*s);
                    *s = (*s).max(c.l0_part[t]);
                    c.part[t] = contrib;
                    sum_t = sum_t.saturating_add(contrib);
                }
                if cfg.l2_mode == L2Mode::Shared && sum_t > 0 {
                    // Shared NUCA fetches each line once chip-wide: rescale
                    // the per-thread split so its total is the union
                    // contribution, not the halo-duplicating per-thread sum.
                    let sg = seen_glob.entry(c.array).or_insert(0);
                    let contrib_glob = c.l0_part_glob.saturating_sub(*sg);
                    *sg = (*sg).max(c.l0_part_glob);
                    for t in 0..n_threads {
                        c.part[t] = c.part[t] * contrib_glob / sum_t;
                    }
                }
                let sb = seen_bcast.entry(c.array).or_insert(0);
                let l0b = c.l0_bcast.saturating_add(c.l0_idx);
                let contrib = l0b.saturating_sub(*sb);
                *sb = (*sb).max(l0b);
                // Split the cold contribution between the nest's broadcast
                // and indexed classes, favouring broadcast.
                c.bcast = contrib.min(c.l0_bcast);
                c.indexed = contrib.saturating_sub(c.bcast);
            }
        }

        // ── Totals and per-reference attribution. ──────────────────────
        let mut arrays: Vec<ArrayEstimate> = Vec::new();
        let mut array_ids: Vec<ArrayId> = Vec::new();
        let mut refs: Vec<RefEstimate> = Vec::new();
        let streaming = components.iter().any(|c| c.streaming);
        let mut demand = Vec::with_capacity(components.len());

        for c in components {
            let name = program.array(c.array).name();
            let slot = array_ids
                .iter()
                .position(|&a| a == c.array)
                .unwrap_or_else(|| {
                    array_ids.push(c.array);
                    arrays.push(ArrayEstimate {
                        array: name.to_string(),
                        accesses: 0,
                        predicted_offchip: 0,
                        avg_hops: None,
                        broadcast: false,
                        indexed: false,
                    });
                    arrays.len() - 1
                });
            let part_total: u64 = c.part.iter().sum();
            let entry = &mut arrays[slot];
            entry.accesses += c.acc_part + c.acc_bcast + c.acc_indexed;
            entry.predicted_offchip += part_total + c.bcast + c.indexed;
            entry.broadcast |= c.acc_bcast > 0;
            entry.indexed |= c.acc_indexed > 0;

            // Per-ref attribution: each class's misses split evenly over
            // its member references (they share the walk geometry).
            let classes: [RefClass; 3] = [
                (&c.part_members, c.acc_part, part_total, false, false),
                (&c.bcast_members, c.acc_bcast, c.bcast, true, false),
                (&c.idx_members, c.acc_indexed, c.indexed, true, true),
            ];
            for (members, acc, miss, broadcast, indexed) in classes {
                let n = members.len() as u64;
                if n == 0 {
                    continue;
                }
                for (i, (si, ri)) in members.iter().enumerate() {
                    let extra = if (i as u64) < miss % n { 1 } else { 0 };
                    refs.push(RefEstimate {
                        nest: c.nest,
                        statement: *si,
                        reference: *ri,
                        array: name.to_string(),
                        accesses: acc / n + if (i as u64) < acc % n { 1 } else { 0 },
                        predicted_offchip: miss / n + extra,
                        broadcast,
                        indexed,
                    });
                }
            }
            demand.push(ComponentDemand {
                array: c.array,
                slot,
                global: c.bcast + c.indexed,
                part: c.part,
            });
        }

        Self {
            app: program.name().to_string(),
            first_touch_friendly: app.first_touch_friendly,
            model_inputs: cfg.footprint_inputs(),
            components: demand,
            total_accesses: arrays.iter().map(|a| a.accesses).sum(),
            predicted_offchip: arrays.iter().map(|a| a.predicted_offchip).sum(),
            streaming,
            arrays,
            refs,
        }
    }

    /// Splits the footprint's off-chip demand across the controllers of
    /// one (layout, mapping, kind) cell: per-MC shares, hop expectation,
    /// queue pressure. `cfg` must describe the machine the footprint was
    /// made for; its `granularity` is the cell's own, and the controllers
    /// are the mapping's.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` differs from the footprint's in a field the model
    /// read, if the layout binds a different number of cores, or if the
    /// mapping is for another mesh.
    pub fn route(
        &self,
        layout: &ProgramLayout,
        mapping: &L2ToMcMapping,
        kind: RunKind,
        cfg: &EstConfig,
    ) -> AppEstimate {
        let mut buf = RouteBuffers::default();
        let mut per_array = vec![Flow::default(); self.arrays.len()];
        let flow = self.route_flows(layout, mapping, kind, cfg, &mut buf, Some(&mut per_array));
        let mut arrays = self.arrays.clone();
        for (a, f) in arrays.iter_mut().zip(&per_array) {
            a.avg_hops = f.avg_hops();
        }
        let mc_shares: Vec<f64> = mc_shares(&buf.cell).collect();
        AppEstimate {
            app: self.app.clone(),
            kind,
            total_accesses: self.total_accesses,
            predicted_offchip: self.predicted_offchip,
            avg_offchip_hops: flow.avg_hops().unwrap_or(0.0),
            queue_pressure: queue_pressure(mc_shares.iter().copied(), mapping.num_mcs()),
            mc_shares,
            streaming: self.streaming,
            arrays,
            refs: self.refs.clone(),
        }
    }

    /// The three totals of [`route`](Self::route)'s estimate, bit for bit
    /// — its `offchip_fraction()`, `avg_offchip_hops` and
    /// `queue_pressure` — without its per-array and per-reference
    /// breakdown.
    ///
    /// # Panics
    ///
    /// As [`route`](Self::route).
    pub fn terms(
        &self,
        layout: &ProgramLayout,
        mapping: &L2ToMcMapping,
        kind: RunKind,
        cfg: &EstConfig,
    ) -> EstTerms {
        self.terms_in(layout, mapping, kind, cfg, &mut RouteBuffers::default())
    }

    /// [`terms`](Self::terms) in buffers the caller keeps.
    fn terms_in(
        &self,
        layout: &ProgramLayout,
        mapping: &L2ToMcMapping,
        kind: RunKind,
        cfg: &EstConfig,
        buf: &mut RouteBuffers,
    ) -> EstTerms {
        let flow = self.route_flows(layout, mapping, kind, cfg, buf, None);
        EstTerms {
            offchip: offchip_fraction(self.predicted_offchip, self.total_accesses),
            hops: flow.avg_hops().unwrap_or(0.0),
            queue: queue_pressure(mc_shares(&buf.cell), mapping.num_mcs()),
        }
    }

    /// The routing loop under [`route`](Self::route) and
    /// [`terms`](Self::terms): splits every component's demand across the
    /// controllers, leaves the cell's per-MC lines in `buf.cell` and
    /// returns the cell's flow, adding each component's flow to its
    /// array's entry of `per_array` when one is given.
    fn route_flows(
        &self,
        layout: &ProgramLayout,
        mapping: &L2ToMcMapping,
        kind: RunKind,
        cfg: &EstConfig,
        buf: &mut RouteBuffers,
        mut per_array: Option<&mut [Flow]>,
    ) -> Flow {
        assert_eq!(
            self.model_inputs,
            cfg.footprint_inputs(),
            "footprint was made for another machine"
        );
        assert_eq!(
            layout.binding().len(),
            cfg.num_nodes,
            "layout binds a different number of cores than the footprint's machine has"
        );
        assert_eq!(
            mapping.mesh().num_nodes(),
            cfg.num_nodes,
            "mapping is for another mesh"
        );
        buf.prepare(mapping);
        let RouteBuffers {
            hops,
            uniform_hops,
            cell,
            component,
            shares,
            ..
        } = buf;
        let router = Router {
            mapping,
            cfg,
            kind,
            first_touch_friendly: self.first_touch_friendly,
            hops,
            uniform_hops,
        };
        let mut flow = Flow::default();
        for c in &self.components {
            let al = layout.layout(c.array);
            component.fill(0.0);
            let mut traffic = Traffic {
                per_mc: component,
                flow: Flow::default(),
            };
            for (t, &m) in c.part.iter().enumerate() {
                if m == 0 {
                    continue;
                }
                let node = layout.binding().node_of(t / cfg.threads_per_core);
                let requester = requester_for(al, node, t, cfg);
                router.route(&mut traffic, m as f64, requester, al, Some(t), shares);
            }
            let global = c.global as f64;
            router.route(&mut traffic, global, Requester::Uniform, al, None, shares);
            for (a, b) in cell.iter_mut().zip(traffic.per_mc.iter()) {
                *a += b;
            }
            flow.merge(traffic.flow);
            if let Some(per_array) = per_array.as_deref_mut() {
                per_array[c.slot].merge(traffic.flow);
            }
        }
        flow
    }
}

/// Each controller's share of a cell's per-MC lines (all zero when there
/// are none).
fn mc_shares(per_mc: &[f64]) -> impl Iterator<Item = f64> + '_ {
    let total: f64 = per_mc.iter().sum();
    (per_mc.iter()).map(move |m| if total > 0.0 { m / total } else { 0.0 })
}

/// The largest controller share × the number of controllers.
fn queue_pressure(shares: impl Iterator<Item = f64>, n_mcs: usize) -> f64 {
    shares.fold(0.0f64, f64::max) * n_mcs as f64
}

/// Predicted off-chip line fetches per access.
fn offchip_fraction(predicted_offchip: u64, total_accesses: u64) -> f64 {
    if total_accesses == 0 {
        return 0.0;
    }
    predicted_offchip as f64 / total_accesses as f64
}

/// Predicts one (application, layout, kind) cell: [`Footprint::of`], then
/// [`Footprint::route`]. The layout must be the one the corresponding
/// simulation replays (take it from `Suite::layout_plan`), so prediction
/// error can only come from the model, never from divergent inputs.
pub fn estimate_app(
    app: &App,
    layout: &ProgramLayout,
    mapping: &L2ToMcMapping,
    kind: RunKind,
    cfg: &EstConfig,
) -> AppEstimate {
    Footprint::of(app, cfg).route(layout, mapping, kind, cfg)
}

/// Predicts one application against many unified
/// [`hoploc_noc::Placement`]s — the scoring loop of the `hoploc-search`
/// design-space optimizer. Everything a placement cannot change (the
/// layout pass's program analysis, the footprint model) is computed at
/// construction; [`plan`](Self::plan) customizes the layout for a placement
/// and [`estimate`](Self::estimate) routes the footprint through that plan,
/// or [`terms`](Self::terms) routes it to the totals alone.
pub struct PlacementScorer<'a> {
    planner: LayoutPlanner<'a>,
    /// The base machine, under the granularity last planned for. Its own
    /// placement stays the base one: the controllers are the mapping's of
    /// the placement planned for.
    sim: SimConfig,
    kind: RunKind,
    footprint: Footprint,
    buffers: RouteBuffers,
    /// The plan last filled, kept so that the next one reuses its buffers.
    layout: ProgramLayout,
}

impl<'a> PlacementScorer<'a> {
    /// Prepares `app` on the machine `sim` describes; `sim`'s own
    /// placement and granularity are overridden per plan.
    pub fn new(app: &'a App, sim: &SimConfig, kind: RunKind) -> Self {
        Self {
            planner: LayoutPlanner::new(app, kind),
            sim: sim.clone(),
            kind,
            footprint: Footprint::of(app, &EstConfig::from_sim(sim)),
            buffers: RouteBuffers::default(),
            layout: ProgramLayout::default(),
        }
    }

    /// Compiles the layout plan of the cell under `placement`, granularity
    /// and approximation threshold — the plan [`estimate`](Self::estimate)
    /// scores, and byte for byte the one a `hoploc_harness::Suite` built
    /// for the same placement compiles. A caller that goes on to simulate
    /// the cell hands this plan to the one-shot `hoploc_harness::run_plan`,
    /// so scoring and verification read one plan and the program is
    /// analyzed once.
    pub fn plan(
        &mut self,
        placement: &hoploc_noc::Placement,
        granularity: Granularity,
        approx_threshold: f64,
    ) -> ProgramLayout {
        self.fill(placement, granularity, approx_threshold);
        self.layout.clone()
    }

    /// Fills the kept plan with [`plan`](Self::plan)'s, in its own buffers.
    fn fill(
        &mut self,
        placement: &hoploc_noc::Placement,
        granularity: Granularity,
        approx_threshold: f64,
    ) {
        self.sim.granularity = granularity;
        (self.planner).layout_into(
            placement.mapping(),
            &self.sim,
            approx_threshold,
            &mut self.layout,
        );
    }

    /// Predicts the cell under `placement`: [`plan`](Self::plan), then
    /// [`Footprint::route`]. The controllers are the placement's mapping's,
    /// so the placement a candidate is scored with is byte-identical to the
    /// one the verifying cycle simulation is constructed from.
    pub fn estimate(
        &mut self,
        placement: &hoploc_noc::Placement,
        granularity: Granularity,
        approx_threshold: f64,
    ) -> AppEstimate {
        self.fill(placement, granularity, approx_threshold);
        let cfg = EstConfig::from_sim(&self.sim);
        (self.footprint).route(&self.layout, placement.mapping(), self.kind, &cfg)
    }

    /// [`estimate`](Self::estimate)'s three totals, bit for bit, routed
    /// through [`Footprint::terms`] in buffers the scorer keeps — the plan
    /// included: what a search scores each candidate by.
    pub fn terms(
        &mut self,
        placement: &hoploc_noc::Placement,
        granularity: Granularity,
        approx_threshold: f64,
    ) -> EstTerms {
        self.fill(placement, granularity, approx_threshold);
        let cfg = EstConfig::from_sim(&self.sim);
        let buffers = &mut self.buffers;
        (self.footprint).terms_in(&self.layout, placement.mapping(), self.kind, &cfg, buffers)
    }
}

/// One-shot [`PlacementScorer`]: predicts one cell against a unified
/// placement, analysis and footprint included.
pub fn estimate_placement(
    app: &App,
    placement: &hoploc_noc::Placement,
    sim: &SimConfig,
    kind: RunKind,
    approx_threshold: f64,
) -> AppEstimate {
    PlacementScorer::new(app, sim, kind).estimate(placement, sim.granularity, approx_threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoploc_noc::McPlacement;
    use hoploc_ptest::run_cases;

    #[test]
    fn router_hop_table_equals_hop_distance() {
        // Random controller sites on a square mesh and on two oblong ones
        // with one node count: every table entry is the mesh's own
        // distance, and the uniform means are the node-order sums the table
        // replaced, bit for bit. One set of buffers serves every case, as a
        // scorer's serves every placement it scores: rows of earlier cases
        // are reused, and a mesh of another shape starts afresh.
        let mut buf = RouteBuffers::default();
        run_cases("est.router.hop_table", 60, |rng| {
            let mesh = [Mesh::new(8, 8), Mesh::new(8, 4), Mesh::new(4, 8)][rng.usize_in(0..3)];
            let mut mc_nodes: Vec<NodeId> = Vec::new();
            while mc_nodes.len() < 4 {
                let n = NodeId(rng.u16_in(0..mesh.num_nodes() as u16));
                if !mc_nodes.contains(&n) {
                    mc_nodes.push(n);
                }
            }
            let all = (0..4).map(McId).collect();
            let mapping = L2ToMcMapping::new(
                mesh,
                mesh.width(),
                mesh.height(),
                mc_nodes.clone(),
                vec![all],
            )
            .expect("one cluster served by every controller");
            let cfg = EstConfig::from_sim(&SimConfig {
                mesh,
                placement: McPlacement::Custom(mc_nodes),
                ..SimConfig::scaled()
            });
            buf.prepare(&mapping);
            let router = Router {
                mapping: &mapping,
                cfg: &cfg,
                kind: RunKind::Optimized,
                first_touch_friendly: false,
                hops: &buf.hops,
                uniform_hops: &buf.uniform_hops,
            };
            for m in (0..4).map(McId) {
                let site = mapping.mc_node(m);
                for n in mesh.nodes() {
                    assert_eq!(router.hops(n, m), mesh.hop_distance(n, site) as f64);
                }
                let mean = mesh
                    .nodes()
                    .map(|n| mesh.hop_distance(n, site) as f64)
                    .sum::<f64>()
                    / cfg.num_nodes as f64;
                assert_eq!(router.uniform_hops[m.0 as usize].to_bits(), mean.to_bits());
            }
        });
    }
}
