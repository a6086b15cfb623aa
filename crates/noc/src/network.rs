//! The contention-aware mesh interconnect model.
//!
//! Messages traverse XY routes hop by hop. Every directed link serializes
//! the flits of each message crossing it, so two messages sharing a link at
//! the same time queue behind one another. This is the mechanism coupling
//! on-chip and off-chip traffic that the paper exploits: localizing
//! off-chip accesses frees link bandwidth, which also speeds up on-chip
//! (cache/coherence) traffic.

use crate::geometry::{Mesh, NodeId};
use hoploc_obs::{NetClass, ReqTag, Sink};
use std::fmt;

/// Classification of a message for statistics, mirroring the paper's
/// on-chip vs. off-chip latency breakdown.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TrafficClass {
    /// Cache-to-cache / directory / L1→L2 traffic.
    OnChip,
    /// Traffic between an L2/core and a memory controller (either
    /// direction).
    OffChip,
}

/// Maximum number of hops tracked by the histogram (covers meshes up to
/// 16×16).
pub const MAX_HOPS: usize = 32;

/// Per-class accumulated network statistics.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ClassStats {
    /// Messages sent.
    pub messages: u64,
    /// Sum of end-to-end network latencies (cycles).
    pub total_latency: u64,
    /// Sum of hop counts.
    pub total_hops: u64,
    /// `hist[h]` counts messages that traversed exactly `h` links.
    pub hop_histogram: Vec<u64>,
}

impl ClassStats {
    fn new() -> Self {
        Self {
            hop_histogram: vec![0; MAX_HOPS],
            ..Default::default()
        }
    }

    /// Mean network latency in cycles (0 if no messages).
    pub fn avg_latency(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.messages as f64
        }
    }

    /// Mean hops per message (0 if no messages).
    pub fn avg_hops(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.messages as f64
        }
    }

    /// Cumulative distribution of hop counts: `cdf()[h]` is the fraction of
    /// messages that traversed `h` or fewer links (Figure 15).
    pub fn cdf(&self) -> Vec<f64> {
        let total = self.messages.max(1) as f64;
        let mut acc = 0u64;
        self.hop_histogram
            .iter()
            .map(|&c| {
                acc += c;
                acc as f64 / total
            })
            .collect()
    }
}

/// Network-wide statistics, split by [`TrafficClass`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct NetStats {
    /// On-chip (cache / coherence) traffic.
    pub on_chip: ClassStats,
    /// Off-chip (to/from memory controllers) traffic.
    pub off_chip: ClassStats,
    /// Link traversals that crossed an active [`LinkFault`] window.
    pub fault_hops: u64,
    /// Total extra cycles charged by link-fault windows.
    pub fault_cycles: u64,
}

impl NetStats {
    fn new() -> Self {
        Self {
            on_chip: ClassStats::new(),
            off_chip: ClassStats::new(),
            ..Default::default()
        }
    }
}

/// Timing parameters of the interconnect (defaults match Table 1).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct NocConfig {
    /// Per-hop link traversal latency in cycles (Table 1: 4).
    pub hop_cycles: u64,
    /// Router pipeline depth in cycles (Table 1: 2).
    pub router_cycles: u64,
    /// Link width in bytes (Table 1: 16 B).
    pub link_bytes: u32,
    /// Whether links serialize competing messages. Disable for the
    /// contention-free ablation.
    pub contention: bool,
}

impl Default for NocConfig {
    fn default() -> Self {
        Self {
            hop_cycles: 4,
            router_cycles: 2,
            link_bytes: 16,
            contention: true,
        }
    }
}

/// A window of degraded service on one directed link.
///
/// While `from <= cycle < until`, every message hop that departs on
/// `link` is charged `extra_cycles` of additional traversal latency, and
/// (under contention) holds the link that much longer — modelling a
/// marginal link that has dropped to a slower signalling rate or is
/// retransmitting at the physical layer. Link ids use the same
/// `node * 4 + direction` encoding as [`Network::link_utilization`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LinkFault {
    /// Directed link id (`node * 4 + direction`).
    pub link: u32,
    /// First cycle of the window (inclusive).
    pub from: u64,
    /// End of the window (exclusive).
    pub until: u64,
    /// Extra cycles per traversal while the window is active.
    pub extra_cycles: u64,
}

impl LinkFault {
    /// Whether the window is active at `cycle`.
    pub fn active_at(&self, cycle: u64) -> bool {
        self.from <= cycle && cycle < self.until
    }
}

/// The mesh interconnect with per-link occupancy tracking.
///
/// # Examples
///
/// ```
/// use hoploc_noc::{Mesh, Network, NocConfig, NodeId, TrafficClass};
///
/// let mut net = Network::new(Mesh::new(4, 4), NocConfig::default());
/// let arrival = net.send(NodeId(0), NodeId(15), 8, TrafficClass::OffChip, 100);
/// assert!(arrival > 100);
/// assert_eq!(net.stats().off_chip.messages, 1);
/// ```
#[derive(Clone, Debug)]
pub struct Network {
    mesh: Mesh,
    config: NocConfig,
    /// `links[node * 4 + dir]`: the directed link leaving `node` in
    /// direction `dir`.
    links: Vec<Link>,
    /// Every node's `(x, y)`, in node order: a send reads its two
    /// endpoints here instead of dividing them out of the node ids.
    coords: Vec<(u16, u16)>,
    /// Injected fault windows per directed link; empty when no fault plan
    /// is installed, in which case the send path is byte-identical to a
    /// fault-free network.
    faults: Vec<Vec<LinkFault>>,
    stats: NetStats,
}

/// What one directed link keeps, in one record: a hop reads and writes
/// both.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
struct Link {
    /// Cycle at which the link becomes free.
    free_at: u64,
    /// Flit-cycles the link has carried (utilization accounting).
    flit_cycles: u64,
}

/// Direction encoding for link ids.
const EAST: usize = 0;
const WEST: usize = 1;
const NORTH: usize = 2;
const SOUTH: usize = 3;

impl Network {
    /// Creates an idle network.
    pub fn new(mesh: Mesh, config: NocConfig) -> Self {
        Self {
            mesh,
            config,
            links: vec![Link::default(); mesh.num_nodes() * 4],
            coords: mesh.nodes().map(|n| mesh.coords(n)).collect(),
            faults: Vec::new(),
            stats: NetStats::new(),
        }
    }

    /// Installs link-fault windows. Passing an empty slice clears them and
    /// restores the exact fault-free timing path. Panics on a link id
    /// outside the mesh (plans are validated upstream; this is a backstop).
    pub fn set_link_faults(&mut self, faults: &[LinkFault]) {
        let links = self.mesh.num_nodes() * 4;
        if faults.is_empty() {
            self.faults = Vec::new();
            return;
        }
        let mut table = vec![Vec::new(); links];
        for f in faults {
            assert!(
                (f.link as usize) < links,
                "link fault on {} but mesh has {} directed links",
                f.link,
                links
            );
            table[f.link as usize].push(*f);
        }
        self.faults = table;
    }

    /// Sum of extra cycles from windows active on `link` at `cycle` (none
    /// when no plan is installed).
    fn fault_extra(faults: &[Vec<LinkFault>], link: usize, cycle: u64) -> u64 {
        faults.get(link).map_or(0, |windows| {
            windows
                .iter()
                .filter(|f| f.active_at(cycle))
                .map(|f| f.extra_cycles)
                .sum()
        })
    }

    /// The underlying mesh.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The timing configuration.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Number of flits a payload of `bytes` occupies on a link.
    pub fn flits(&self, bytes: u32) -> u64 {
        (bytes as u64)
            .div_ceil(self.config.link_bytes as u64)
            .max(1)
    }

    /// Sends a message and returns its arrival cycle at `dst`.
    ///
    /// A message of `bytes` payload departs `src` at cycle `now`, traverses
    /// the XY route, and serializes on each directed link. Sending to self
    /// arrives immediately at `now`.
    pub fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u32,
        class: TrafficClass,
        now: u64,
    ) -> u64 {
        self.send_obs(src, dst, bytes, class, now, ReqTag::NONE, &Sink::disabled())
    }

    /// [`send`](Self::send) with observability: per-hop link-wait spans
    /// attributed to `tag`, link-fault delays and the message's latency
    /// recorded into `sink`. The untraced [`send`](Self::send) delegates
    /// here with a disabled sink, so traced and untraced runs share one
    /// timing path. Message, hop and flit counts stay in
    /// [`stats`](Self::stats) and [`flit_cycles`](Self::flit_cycles), which
    /// the simulator copies into the recording when the run ends.
    #[allow(clippy::too_many_arguments)]
    pub fn send_obs(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u32,
        class: TrafficClass,
        now: u64,
        tag: ReqTag,
        sink: &Sink,
    ) -> u64 {
        // Walk the XY route by coordinates: one directed link per step,
        // named `node * 4 + direction` as everywhere else.
        let (sx, sy) = self.coords[src.0 as usize];
        let (dx, dy) = self.coords[dst.0 as usize];
        let x_hops = sx.abs_diff(dx) as usize;
        let y_hops = sy.abs_diff(dy) as usize;
        let hops = x_hops + y_hops;
        // Each leg: its hop count, direction and the signed node stride.
        let width = self.mesh.width() as isize;
        let x_leg = if dx > sx { (EAST, 1) } else { (WEST, -1) };
        let y_leg = if dy > sy {
            (SOUTH, width)
        } else {
            (NORTH, -width)
        };
        let legs = [(x_hops, x_leg), (y_hops, y_leg)];
        // What is fixed for the whole message, read once: the hop loop
        // below then does only the work each hop changes.
        let flits = self.flits(bytes);
        let contention = self.config.contention;
        // Wire + downstream router pipeline; the final hop still pays the
        // router to reach the ejection port.
        let hop_cost = self.config.hop_cycles + self.config.router_cycles;
        // Fault windows and recording both sit behind this one flag.
        let extras = !self.faults.is_empty() || sink.is_enabled();
        let Self {
            links,
            faults,
            stats,
            ..
        } = self;
        let mut node = src.0 as usize;
        let mut t = now;
        for (steps, (dir, stride)) in legs {
            for _ in 0..steps {
                let link = node * 4 + dir;
                let state = &mut links[link];
                state.flit_cycles += flits;
                let depart = if contention { t.max(state.free_at) } else { t };
                // A fault window active at departure slows this traversal
                // and (under contention) occupies the link for the extra
                // cycles, so faults back-pressure later traffic too.
                let mut extra = 0;
                if extras {
                    extra = Self::fault_extra(faults, link, depart);
                    sink.hop(link as u32, depart, depart - t, flits, tag);
                    if extra > 0 {
                        stats.fault_hops += 1;
                        stats.fault_cycles += extra;
                        sink.link_fault(link as u32, depart, extra, tag);
                    }
                }
                if contention {
                    state.free_at = depart + flits + extra;
                }
                t = depart + extra + hop_cost;
                node = node.wrapping_add_signed(stride);
            }
        }
        let stats = match class {
            TrafficClass::OnChip => &mut stats.on_chip,
            TrafficClass::OffChip => &mut stats.off_chip,
        };
        stats.messages += 1;
        stats.total_latency += t - now;
        stats.total_hops += hops as u64;
        stats.hop_histogram[hops.min(MAX_HOPS - 1)] += 1;
        let obs_class = match class {
            TrafficClass::OnChip => NetClass::OnChip,
            TrafficClass::OffChip => NetClass::OffChip,
        };
        sink.net_msg(obs_class, hops, t - now, now);
        t
    }

    /// Flit-cycles each directed link has carried, indexed
    /// `node*4 + direction` (E, W, N, S).
    pub fn flit_cycles(&self) -> Vec<u64> {
        self.links.iter().map(|l| l.flit_cycles).collect()
    }

    /// Utilization of every directed link over `elapsed` cycles: the
    /// fraction of cycles each link spent transmitting flits, indexed as
    /// [`flit_cycles`](Self::flit_cycles). Quantifies the corner hotspots
    /// that bound localized configurations.
    pub fn link_utilization(&self, elapsed: u64) -> Vec<f64> {
        let e = elapsed.max(1) as f64;
        (self.links.iter())
            .map(|l| l.flit_cycles as f64 / e)
            .collect()
    }

    /// Pure-distance latency of a message without mutating link state:
    /// what [`send`](Self::send) would return on an idle network.
    pub fn uncontended_latency(&self, src: NodeId, dst: NodeId) -> u64 {
        let hops = self.mesh.hop_distance(src, dst) as u64;
        hops * (self.config.hop_cycles + self.config.router_cycles)
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} mesh, on-chip: {} msgs avg {:.1}cy, off-chip: {} msgs avg {:.1}cy",
            self.mesh.width(),
            self.mesh.height(),
            self.stats.on_chip.messages,
            self.stats.on_chip.avg_latency(),
            self.stats.off_chip.messages,
            self.stats.off_chip.avg_latency(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net4() -> Network {
        Network::new(Mesh::new(4, 4), NocConfig::default())
    }

    #[test]
    fn idle_latency_is_hops_times_cost() {
        let mut net = net4();
        // 0 -> 3 is 3 hops; each hop costs 4 + 2 cycles.
        let arrival = net.send(NodeId(0), NodeId(3), 8, TrafficClass::OnChip, 0);
        assert_eq!(arrival, 3 * 6);
        assert_eq!(net.uncontended_latency(NodeId(0), NodeId(3)), 18);
    }

    #[test]
    fn self_send_is_free() {
        let mut net = net4();
        assert_eq!(
            net.send(NodeId(5), NodeId(5), 64, TrafficClass::OnChip, 42),
            42
        );
        assert_eq!(net.stats().on_chip.hop_histogram[0], 1);
    }

    #[test]
    fn contention_delays_second_message() {
        let mut net = net4();
        // Two large messages over the same first link at the same time.
        let a = net.send(NodeId(0), NodeId(3), 256, TrafficClass::OffChip, 0);
        let b = net.send(NodeId(0), NodeId(3), 256, TrafficClass::OffChip, 0);
        assert!(b > a, "second message must queue behind the first");
    }

    #[test]
    fn disjoint_routes_do_not_interfere() {
        let mut net = net4();
        let a = net.send(NodeId(0), NodeId(1), 256, TrafficClass::OnChip, 0);
        let b = net.send(NodeId(14), NodeId(15), 256, TrafficClass::OnChip, 0);
        assert_eq!(a, b, "disjoint messages see identical latency");
    }

    #[test]
    fn contention_off_is_pure_distance() {
        let mut net = Network::new(
            Mesh::new(4, 4),
            NocConfig {
                contention: false,
                ..NocConfig::default()
            },
        );
        let a = net.send(NodeId(0), NodeId(3), 256, TrafficClass::OffChip, 0);
        let b = net.send(NodeId(0), NodeId(3), 256, TrafficClass::OffChip, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn stats_split_by_class() {
        let mut net = net4();
        net.send(NodeId(0), NodeId(1), 8, TrafficClass::OnChip, 0);
        net.send(NodeId(0), NodeId(2), 8, TrafficClass::OffChip, 0);
        net.send(NodeId(0), NodeId(3), 8, TrafficClass::OffChip, 0);
        assert_eq!(net.stats().on_chip.messages, 1);
        assert_eq!(net.stats().off_chip.messages, 2);
        assert_eq!(net.stats().off_chip.total_hops, 5);
    }

    #[test]
    fn cdf_is_monotone_and_reaches_one() {
        let mut net = net4();
        for d in 0..4u16 {
            net.send(NodeId(0), NodeId(d), 8, TrafficClass::OffChip, 0);
        }
        let cdf = net.stats().off_chip.cdf();
        for w in cdf.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!((cdf[MAX_HOPS - 1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn link_utilization_tracks_flit_cycles() {
        let mut net = net4();
        // 256B over the single 0->1 link: 16 flits.
        net.send(NodeId(0), NodeId(1), 256, TrafficClass::OffChip, 0);
        assert_eq!(net.flit_cycles()[0], 16);
        let util = net.link_utilization(160);
        let east0 = util[0]; // node 0, EAST
        assert!(
            (east0 - 0.1).abs() < 1e-9,
            "16 flit-cycles / 160 = 0.1, got {east0}"
        );
        assert_eq!(util.iter().filter(|&&u| u > 0.0).count(), 1);
    }

    #[test]
    fn flit_count_rounds_up() {
        let net = net4();
        assert_eq!(net.flits(8), 1);
        assert_eq!(net.flits(16), 1);
        assert_eq!(net.flits(17), 2);
        assert_eq!(net.flits(256), 16);
    }

    /// Every per-event family `send_obs` records that the network also
    /// counts: one latency sample and one window sample per message, and
    /// the fault delays.
    fn assert_per_event_families(rep: &hoploc_obs::ObsReport, net: &Network, case: &str) {
        let s = net.stats();
        for (name, c) in [("onchip", &s.on_chip), ("offchip", &s.off_chip)] {
            let hist = rep.registry().histogram(&format!("net.{name}_cycles"));
            assert_eq!(hist.unwrap().count(), c.messages, "{case}");
            let win = rep.registry().series_by_name(&format!("win.{name}_msgs"));
            assert_eq!(win.unwrap().vals.iter().sum::<u64>(), c.messages, "{case}");
        }
        let extra = rep.counter_family("fault.link.extra_cycles");
        assert_eq!(extra.iter().sum::<u64>(), s.fault_cycles, "{case}");
        // The copied families stay zero: the simulator fills them.
        assert_eq!(rep.counter("net.onchip.msgs"), 0, "{case}");
        let flits = rep.counter_family("net.link.flit_cycles");
        assert!(flits.iter().all(|&f| f == 0), "{case}");
    }

    #[test]
    fn send_obs_mirrors_stats_into_sink() {
        use hoploc_obs::{ObsConfig, Topology};
        let mut net = net4();
        let topo = Topology {
            mesh_width: 4,
            mesh_height: 4,
            mcs: 1,
            banks_per_mc: 1,
        };
        let sink = Sink::recording(topo, ObsConfig::default());
        for d in [3u16, 12, 15, 0] {
            net.send_obs(
                NodeId(0),
                NodeId(d),
                64,
                TrafficClass::OffChip,
                5,
                ReqTag::NONE,
                &sink,
            );
        }
        net.send_obs(
            NodeId(1),
            NodeId(2),
            8,
            TrafficClass::OnChip,
            0,
            ReqTag::NONE,
            &sink,
        );
        let rep = sink.into_report(1000).unwrap();
        assert_per_event_families(&rep, &net, "4x4");
        // The two sends from node 0 that leave east queue on link 0.
        assert!(rep.counter_family("net.link.wait_cycles")[0] > 0);
    }

    #[test]
    fn link_fault_window_adds_latency_and_backpressure() {
        let mut clean = net4();
        let base = clean.send(NodeId(0), NodeId(3), 8, TrafficClass::OffChip, 0);
        let mut faulty = net4();
        faulty.set_link_faults(&[LinkFault {
            link: 0, // node 0, EAST: the first hop of 0 -> 3
            from: 0,
            until: 1_000,
            extra_cycles: 7,
        }]);
        let a = faulty.send(NodeId(0), NodeId(3), 8, TrafficClass::OffChip, 0);
        assert_eq!(a, base + 7, "one faulted hop adds exactly its extra cycles");
        assert_eq!(faulty.stats().fault_hops, 1);
        assert_eq!(faulty.stats().fault_cycles, 7);
        // Outside the window the link is healthy again.
        let b = faulty.send(NodeId(0), NodeId(3), 8, TrafficClass::OffChip, 2_000);
        assert_eq!(b - 2_000, base);
        assert_eq!(faulty.stats().fault_hops, 1);
    }

    #[test]
    fn faulted_link_backpressures_followers() {
        // The extra cycles extend link occupancy, so a message right behind
        // the faulted one queues longer than under a clean link.
        let mut clean = net4();
        clean.send(NodeId(0), NodeId(1), 256, TrafficClass::OffChip, 0);
        let clean_follow = clean.send(NodeId(0), NodeId(1), 8, TrafficClass::OnChip, 0);
        let mut faulty = net4();
        faulty.set_link_faults(&[LinkFault {
            link: 0,
            from: 0,
            until: 10,
            extra_cycles: 50,
        }]);
        faulty.send(NodeId(0), NodeId(1), 256, TrafficClass::OffChip, 0);
        let faulty_follow = faulty.send(NodeId(0), NodeId(1), 8, TrafficClass::OnChip, 0);
        // The follower departs after the window closed, so it pays no extra
        // itself — only the inherited occupancy delay.
        assert_eq!(faulty_follow, clean_follow + 50);
        assert_eq!(faulty.stats().fault_hops, 1);
    }

    #[test]
    fn empty_fault_set_is_inert() {
        let mut clean = net4();
        let mut cleared = net4();
        cleared.set_link_faults(&[LinkFault {
            link: 0,
            from: 0,
            until: u64::MAX,
            extra_cycles: 99,
        }]);
        cleared.set_link_faults(&[]);
        for d in [3u16, 12, 15, 0, 7] {
            let a = clean.send(NodeId(0), NodeId(d), 64, TrafficClass::OffChip, 5);
            let b = cleared.send(NodeId(0), NodeId(d), 64, TrafficClass::OffChip, 5);
            assert_eq!(a, b);
        }
        assert_eq!(clean.stats(), cleared.stats());
        assert_eq!(clean.stats().fault_cycles, 0);
    }

    #[test]
    #[should_panic(expected = "directed links")]
    fn out_of_range_link_fault_panics() {
        net4().set_link_faults(&[LinkFault {
            link: 4 * 4 * 4, // one past the last directed link of a 4x4 mesh
            from: 0,
            until: 1,
            extra_cycles: 1,
        }]);
    }

    /// The route-materializing send this module used to run: walks the
    /// node list of `xy_route` and derives each link id from the
    /// coordinates of its two end nodes.
    struct RefNetwork {
        mesh: Mesh,
        config: NocConfig,
        free_at: Vec<u64>,
        flit_cycles: Vec<u64>,
        faults: Vec<LinkFault>,
        stats: NetStats,
    }

    impl RefNetwork {
        fn link_id(&self, from: NodeId, to: NodeId) -> usize {
            let (fx, fy) = self.mesh.coords(from);
            let (tx, ty) = self.mesh.coords(to);
            let dir = if tx == fx + 1 && ty == fy {
                EAST
            } else if fx == tx + 1 && ty == fy {
                WEST
            } else if tx == fx && ty == fy + 1 {
                SOUTH
            } else if tx == fx && fy == ty + 1 {
                NORTH
            } else {
                panic!("link between non-adjacent nodes {from} -> {to}");
            };
            from.0 as usize * 4 + dir
        }

        fn send(
            &mut self,
            src: NodeId,
            dst: NodeId,
            bytes: u32,
            class: TrafficClass,
            now: u64,
        ) -> u64 {
            let flits = (bytes as u64)
                .div_ceil(self.config.link_bytes as u64)
                .max(1);
            let route = self.mesh.xy_route(src, dst);
            let mut t = now;
            let mut from = src;
            for &next in &route {
                let link = self.link_id(from, next);
                self.flit_cycles[link] += flits;
                let depart = if self.config.contention {
                    t.max(self.free_at[link])
                } else {
                    t
                };
                let extra: u64 = self
                    .faults
                    .iter()
                    .filter(|f| f.link as usize == link && f.active_at(depart))
                    .map(|f| f.extra_cycles)
                    .sum();
                if self.config.contention {
                    self.free_at[link] = depart + flits + extra;
                }
                if extra > 0 {
                    self.stats.fault_hops += 1;
                    self.stats.fault_cycles += extra;
                }
                t = depart + extra + self.config.hop_cycles + self.config.router_cycles;
                from = next;
            }
            let stats = match class {
                TrafficClass::OnChip => &mut self.stats.on_chip,
                TrafficClass::OffChip => &mut self.stats.off_chip,
            };
            stats.messages += 1;
            stats.total_latency += t - now;
            stats.total_hops += route.len() as u64;
            stats.hop_histogram[route.len().min(MAX_HOPS - 1)] += 1;
            t
        }
    }

    /// Sends every pair of `mesh`'s nodes through `Network::send_obs` and
    /// the reference, comparing each arrival and then the link and stats
    /// state; a recording sink must also agree with the stats.
    fn check_against_reference(
        rng: &mut hoploc_ptest::SmallRng,
        mesh: Mesh,
        config: NocConfig,
        faulted: bool,
        recording: bool,
    ) {
        use hoploc_obs::{ObsConfig, Topology};
        let nodes = mesh.num_nodes() as u16;
        let links = mesh.num_nodes() * 4;
        let pairs = mesh.num_nodes() * mesh.num_nodes();
        // Overlapping windows on a quarter of the links, so some hops pay
        // two windows at once and most pay none; they open while the
        // sends below (two cycles apart) are still departing.
        let span = 2 * pairs as u64;
        let faults: Vec<LinkFault> = if faulted {
            (0..links / 2)
                .map(|_| {
                    let from = rng.u64_below(span);
                    LinkFault {
                        link: rng.u64_below(links as u64) as u32,
                        from,
                        until: from + rng.u64_in(1..span / 2),
                        extra_cycles: rng.u64_in(1..40),
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        let sink = if recording {
            let topo = Topology {
                mesh_width: mesh.width() as usize,
                mesh_height: mesh.height() as usize,
                mcs: 1,
                banks_per_mc: 1,
            };
            Sink::recording(topo, ObsConfig::default())
        } else {
            Sink::disabled()
        };
        let mut net = Network::new(mesh, config);
        net.set_link_faults(&faults);
        let mut reference = RefNetwork {
            mesh,
            config,
            free_at: vec![0; links],
            flit_cycles: vec![0; links],
            faults,
            stats: NetStats::new(),
        };
        // Every pair in a shuffled order, departures rising slowly enough
        // that links stay contended.
        let mut order: Vec<(u16, u16)> = (0..nodes)
            .flat_map(|s| (0..nodes).map(move |d| (s, d)))
            .collect();
        for i in (1..pairs).rev() {
            order.swap(i, rng.usize_in(0..i + 1));
        }
        let case = format!("{mesh:?} {config:?} faulted={faulted} recording={recording}");
        for (i, &(s, d)) in order.iter().enumerate() {
            let (bytes, class) = if i % 2 == 0 {
                (8, TrafficClass::OnChip)
            } else {
                (264, TrafficClass::OffChip)
            };
            let now = 2 * i as u64;
            let (src, dst) = (NodeId(s), NodeId(d));
            assert_eq!(
                net.send_obs(src, dst, bytes, class, now, ReqTag::NONE, &sink),
                reference.send(src, dst, bytes, class, now),
                "{case}: n{s} -> n{d} at {now}"
            );
        }
        let free_at: Vec<u64> = net.links.iter().map(|l| l.free_at).collect();
        assert_eq!(free_at, reference.free_at, "{case}");
        assert_eq!(net.flit_cycles(), reference.flit_cycles, "{case}");
        assert_eq!(net.stats, reference.stats, "{case}");
        assert_eq!(faulted, net.stats.fault_hops > 0, "{case}");
        if let Some(rep) = sink.into_report(1) {
            assert_per_event_families(&rep, &net, &case);
        }
    }

    #[test]
    fn send_matches_the_route_list_reference_for_every_pair() {
        let mut rng = hoploc_ptest::SmallRng::seed_from_u64(0x5E4D);
        for mesh in [Mesh::new(8, 8), Mesh::new(5, 3)] {
            for contention in [true, false] {
                let config = NocConfig {
                    contention,
                    ..NocConfig::default()
                };
                for (faulted, recording) in
                    [(false, false), (true, false), (false, true), (true, true)]
                {
                    check_against_reference(&mut rng, mesh, config, faulted, recording);
                }
            }
        }
    }

    /// The network as it was before links became records: `free_at` and
    /// `flit_cycles` as two arrays, each send dividing its endpoints'
    /// coordinates out of the node ids. Kept verbatim as the reference of
    /// `link_records_match_the_two_array_network`.
    struct TwoArrayNetwork {
        mesh: Mesh,
        config: NocConfig,
        free_at: Vec<u64>,
        flit_cycles: Vec<u64>,
        faults: Vec<Vec<LinkFault>>,
        stats: NetStats,
    }

    impl TwoArrayNetwork {
        fn new(mesh: Mesh, config: NocConfig, faults: &[LinkFault]) -> Self {
            let links = mesh.num_nodes() * 4;
            let mut table = Vec::new();
            if !faults.is_empty() {
                table = vec![Vec::new(); links];
                for f in faults {
                    table[f.link as usize].push(*f);
                }
            }
            Self {
                mesh,
                config,
                free_at: vec![0; links],
                flit_cycles: vec![0; links],
                faults: table,
                stats: NetStats::new(),
            }
        }

        #[allow(clippy::too_many_arguments)]
        fn send_obs(
            &mut self,
            src: NodeId,
            dst: NodeId,
            bytes: u32,
            class: TrafficClass,
            now: u64,
            tag: ReqTag,
            sink: &Sink,
        ) -> u64 {
            let (sx, sy) = self.mesh.coords(src);
            let (dx, dy) = self.mesh.coords(dst);
            let x_hops = sx.abs_diff(dx) as usize;
            let y_hops = sy.abs_diff(dy) as usize;
            let hops = x_hops + y_hops;
            let width = self.mesh.width() as isize;
            let x_leg = if dx > sx { (EAST, 1) } else { (WEST, -1) };
            let y_leg = if dy > sy {
                (SOUTH, width)
            } else {
                (NORTH, -width)
            };
            let legs = [(x_hops, x_leg), (y_hops, y_leg)];
            let flits = (bytes as u64)
                .div_ceil(self.config.link_bytes as u64)
                .max(1);
            let contention = self.config.contention;
            let hop_cost = self.config.hop_cycles + self.config.router_cycles;
            let extras = !self.faults.is_empty() || sink.is_enabled();
            let mut node = src.0 as usize;
            let mut t = now;
            for (steps, (dir, stride)) in legs {
                for _ in 0..steps {
                    let link = node * 4 + dir;
                    self.flit_cycles[link] += flits;
                    let depart = if contention {
                        t.max(self.free_at[link])
                    } else {
                        t
                    };
                    let mut extra = 0;
                    if extras {
                        extra = Network::fault_extra(&self.faults, link, depart);
                        sink.hop(link as u32, depart, depart - t, flits, tag);
                        if extra > 0 {
                            self.stats.fault_hops += 1;
                            self.stats.fault_cycles += extra;
                            sink.link_fault(link as u32, depart, extra, tag);
                        }
                    }
                    if contention {
                        self.free_at[link] = depart + flits + extra;
                    }
                    t = depart + extra + hop_cost;
                    node = node.wrapping_add_signed(stride);
                }
            }
            let stats = match class {
                TrafficClass::OnChip => &mut self.stats.on_chip,
                TrafficClass::OffChip => &mut self.stats.off_chip,
            };
            stats.messages += 1;
            stats.total_latency += t - now;
            stats.total_hops += hops as u64;
            stats.hop_histogram[hops.min(MAX_HOPS - 1)] += 1;
            let obs_class = match class {
                TrafficClass::OnChip => NetClass::OnChip,
                TrafficClass::OffChip => NetClass::OffChip,
            };
            sink.net_msg(obs_class, hops, t - now, now);
            t
        }

        fn link_utilization(&self, elapsed: u64) -> Vec<f64> {
            let e = elapsed.max(1) as f64;
            self.flit_cycles.iter().map(|&f| f as f64 / e).collect()
        }
    }

    /// Random sends through `Network` and the two-array reference: every
    /// arrival, then `stats`, `flit_cycles`, `link_utilization`, each
    /// link's `free_at` and, with a recording sink on each side, the
    /// recorded metrics and spans.
    #[test]
    fn link_records_match_the_two_array_network() {
        use hoploc_obs::{ObsConfig, Topology};
        let meshes = [
            Mesh::new(8, 8),
            Mesh::new(5, 3),
            Mesh::new(1, 6),
            Mesh::new(16, 8),
        ];
        hoploc_ptest::run_cases("link_records_match_the_two_array_network", 48, |rng| {
            let mesh = meshes[rng.usize_in(0..meshes.len())];
            let config = NocConfig {
                contention: rng.u64_below(4) != 0,
                ..NocConfig::default()
            };
            let (nodes, links) = (mesh.num_nodes() as u64, mesh.num_nodes() as u64 * 4);
            let sends = rng.usize_in(1..1500);
            let horizon = 2 * sends as u64;
            let faults: Vec<LinkFault> = if rng.flip() {
                (0..rng.u64_in(1..links))
                    .map(|_| {
                        let from = rng.u64_below(horizon);
                        LinkFault {
                            link: rng.u64_below(links) as u32,
                            from,
                            until: from + rng.u64_in(1..horizon),
                            extra_cycles: rng.u64_in(1..40),
                        }
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let recording = rng.flip();
            let sink = || {
                if !recording {
                    return Sink::disabled();
                }
                let topo = Topology {
                    mesh_width: mesh.width() as usize,
                    mesh_height: mesh.height() as usize,
                    mcs: 1,
                    banks_per_mc: 1,
                };
                Sink::recording(topo, ObsConfig::default())
            };
            let (sink_new, sink_ref) = (sink(), sink());
            let mut net = Network::new(mesh, config);
            net.set_link_faults(&faults);
            let mut reference = TwoArrayNetwork::new(mesh, config, &faults);
            let case = format!(
                "{mesh:?} {config:?} faults={} recording={recording}",
                faults.len()
            );
            let mut now = 0;
            for i in 0..sends {
                let src = NodeId(rng.u64_below(nodes) as u16);
                let dst = NodeId(rng.u64_below(nodes) as u16);
                let bytes = [8, 264, rng.u64_in(1..600) as u32][rng.usize_in(0..3)];
                let class = if rng.flip() {
                    TrafficClass::OnChip
                } else {
                    TrafficClass::OffChip
                };
                now += rng.u64_below(4);
                // Half the sends carry a request tag, minted alike on both
                // sides, so hops and fault delays land on request spans.
                let (tag_new, tag_ref) = if rng.flip() {
                    (
                        sink_new.begin_req(now, src.0),
                        sink_ref.begin_req(now, src.0),
                    )
                } else {
                    (ReqTag::NONE, ReqTag::NONE)
                };
                assert_eq!(
                    net.send_obs(src, dst, bytes, class, now, tag_new, &sink_new),
                    reference.send_obs(src, dst, bytes, class, now, tag_ref, &sink_ref),
                    "{case}: send {i}, {src} -> {dst}, {bytes} B at {now}"
                );
            }
            assert_eq!(net.stats, reference.stats, "{case}");
            assert_eq!(net.flit_cycles(), reference.flit_cycles, "{case}");
            let free_at: Vec<u64> = net.links.iter().map(|l| l.free_at).collect();
            assert_eq!(free_at, reference.free_at, "{case}");
            for elapsed in [1, now, now + 1000] {
                assert_eq!(
                    net.link_utilization(elapsed),
                    reference.link_utilization(elapsed),
                    "{case}"
                );
            }
            if let (Some(a), Some(b)) = (sink_new.into_report(now), sink_ref.into_report(now)) {
                assert_eq!(a.metrics_json(), b.metrics_json(), "{case}");
                assert_eq!(a.chrome_trace_json(), b.chrome_trace_json(), "{case}");
            }
        });
    }

    #[test]
    fn big_messages_slower_than_small_under_load() {
        let mut net = net4();
        // Saturate a link with many data messages, then measure a control
        // message's latency; it must exceed the idle latency.
        for _ in 0..10 {
            net.send(NodeId(0), NodeId(3), 256, TrafficClass::OffChip, 0);
        }
        let arrival = net.send(NodeId(0), NodeId(3), 8, TrafficClass::OnChip, 0);
        assert!(arrival > net.uncontended_latency(NodeId(0), NodeId(3)));
    }
}
