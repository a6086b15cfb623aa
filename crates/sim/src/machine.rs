//! The event-driven full-system simulator.
//!
//! Each thread replays its trace in order, holding an MSHR for every
//! access that leaves its L1 (in-order cores). Figure 2a and 2b are one
//! request flow, [`Simulator::l2_access`], that differs in which L2 slice
//! serves the line:
//!
//! 1. **Lookup** in the serving slice: the requester's own L2 (private,
//!    Figure 2a) or the line's SNUCA home bank, reached by a control
//!    message (shared, Figure 2b). A hit ends here; a home-bank hit sends
//!    the line back to the requester.
//! 2. **Eviction** of the line the fill replaced: a writeback to memory if
//!    it is dirty and writebacks are modelled, else (private only) a notice
//!    to its directory slice.
//! 3. **Late join** of a prefetch already in flight to the slice for this
//!    line.
//! 4. **MC selection**: the line's owner under the interleaving, or the
//!    slice's nearest MC under the §2 optimal scheme; an outage re-homes.
//! 5. **Directory** (private only): a sharer forwards cache-to-cache.
//! 6. **Off-chip**: request to the MC, FR-FCFS DRAM access, then the
//!    response leg MC → slice → requester ([`Simulator::reply`]), shared
//!    with prefetch completions and error replies for dropped requests.
//!
//! All messages share the contention-modelled mesh, so off-chip traffic
//! delays on-chip traffic exactly as §1 describes. The **optimal scheme**
//! serves every off-chip request at fixed row-hit latency.

use crate::cancel::Cancel;
use crate::config::SimConfig;
use crate::os::{Os, PagePolicy};
use crate::queue::EventQueue;
use crate::ring::TokenRing;
use crate::stats::RunStats;
use crate::trace::{Access, Stream, TraceWorkload, CHUNK};
use hoploc_cache::{CacheStats, Directory, IntMap, SetAssocCache, Sharers};
use hoploc_fault::{FaultTopo, McOutage};
use hoploc_layout::L2Mode;
use hoploc_mem::{Completion, McStats, MemoryController};
use hoploc_noc::{L2ToMcMapping, McId, Mesh, Network, NodeId, TrafficClass};
use hoploc_obs::{ObsConfig, ObsReport, Phase, ReqTag, Sink, Topology};
use hoploc_prefetch::{DemandOutcome, PrefetchSummary, SlicePrefetcher, INFLIGHT_CAP};

/// Events handled between two polls of the cancel token (≈ 1 ms): a power
/// of two, so the poll is one mask and one branch per event.
const CANCEL_POLL_EVENTS: u64 = 1 << 14;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EventKind {
    /// Thread issues its next trace entry.
    Issue { thread: usize },
    /// An overlapped (MSHR-tracked) miss returns to its thread.
    MissReturn { thread: usize },
    /// A memory completion surfaced earlier matures (response departs).
    /// `dropped` marks a request abandoned at the retry cap: an error
    /// reply travels back instead of data.
    MemDone { token: u64, dropped: bool },
    /// Re-run the FR-FCFS scheduler of a controller.
    McPoll { mc: usize },
}

/// A demand miss waiting for its line: the thread to resume, where the
/// serving slice forwards the line, and the request span to close. The
/// same record whether the miss went to memory itself or joined a prefetch
/// already in flight.
#[derive(Clone, Copy, Debug)]
struct Demand {
    thread: usize,
    /// Shared-L2 only: the requester the home bank forwards the line to.
    final_dst: Option<NodeId>,
    /// Observability tag of the request ([`ReqTag::NONE`] in untraced
    /// runs).
    req: ReqTag,
}

#[derive(Clone, Copy, Debug)]
enum MemKind {
    /// A demand fetch: the reply walks MC → slice → requester and resumes
    /// the thread.
    Demand(Demand),
    /// A dirty-eviction writeback: fire-and-forget, no response, no
    /// thread to resume.
    Writeback,
    /// A speculative prefetch: installs into the slice on completion,
    /// resumes any late-joined demands, and is dropped (never retried) on
    /// a transient error.
    Prefetch,
}

#[derive(Clone, Copy, Debug)]
struct PendingMem {
    kind: MemKind,
    /// The L2 slice the MC responds to (the requester's own for private,
    /// the line's home bank for shared).
    slice: NodeId,
    mc: usize,
    l2_line: u64,
}

/// Prefetch machinery: one engine per L2 slice plus the in-flight book.
/// Exists only when a prefetch mode is configured, so an Off run carries
/// no state and touches no prefetch code on its hot paths.
struct PfState {
    slices: Vec<SlicePrefetcher>,
    /// `(slice node, l2 line)` → token of the in-flight prefetch, the
    /// late-join rendezvous and the duplicate-issue filter.
    inflight: IntMap<(u16, u64), u64>,
    /// In-flight prefetches per slice (bounds issue at [`INFLIGHT_CAP`]).
    inflight_count: Vec<u32>,
    /// Demands blocked on an in-flight prefetch, by token.
    waiters: IntMap<u64, Vec<Demand>>,
    /// Each slice's counts: `RunStats::prefetch` is their sum, the `pf.*`
    /// families their per-node copy.
    summaries: Vec<PrefetchSummary>,
    /// Reusable candidate buffer for [`SlicePrefetcher::on_demand`].
    scratch: Vec<u64>,
}

struct ThreadState {
    node: NodeId,
    /// The accesses last drawn from the thread's stream, and how many of
    /// them have been scheduled; the last of those is the one whose issue
    /// is pending.
    chunk: Vec<Access>,
    pos: usize,
    /// Misses currently outstanding (bounded by the configured MLP).
    outstanding: u32,
    /// The thread consumed an access but could not continue (MSHRs full).
    blocked: bool,
    finish: u64,
}

/// The simulator. Construct once per run; [`Simulator::run`] consumes a
/// workload and produces [`RunStats`].
pub struct Simulator {
    config: SimConfig,
    mapping: L2ToMcMapping,
    /// Every node's [`L2ToMcMapping::nearest_mc`], in node order: where the
    /// optimal scheme sends a slice's requests. Empty unless
    /// `config.optimal`.
    nearest: Vec<usize>,
    os: Os,
    net: Network,
    mcs: Vec<MemoryController>,
    /// Every node's L1, bank `node`.
    l1: SetAssocCache,
    /// Every node's L2 slice, bank `node`.
    l2: SetAssocCache,
    dir: Directory,
    /// `sharer_rings[node][d]`: the nodes `d` hops from `node`, as a sharer
    /// mask. Empty on a shared-L2 machine, which has no directory.
    sharer_rings: Vec<Vec<u128>>,
    // Run state.
    events: EventQueue<EventKind>,
    threads: Vec<ThreadState>,
    pending: TokenRing<PendingMem>,
    next_token: u64,
    mc_next_poll: Vec<Option<u64>>,
    /// Whole-controller outage windows from the installed fault plan,
    /// bucketed per controller: routing a request asks about one or two
    /// controllers, not about every window of the plan. Empty when the
    /// plan has no outages, so the re-home check is one failed lookup.
    outages: Vec<Vec<McOutage>>,
    /// Prefetch state, present only when `config.prefetch` enables a mode.
    pf: Option<PfState>,
    // Stats no component keeps: the rest of `RunStats` is read from the
    // caches, the directory and the controllers when the run ends.
    writebacks: u64,
    /// Re-homed requests, per the dark controller they were bound for.
    rehomed: Vec<u64>,
    node_mc_requests: Vec<Vec<u64>>,
    /// Observability sink: disabled unless [`Simulator::with_obs`] was
    /// called. The network and the controllers record their spans and
    /// histograms into it; every count is copied in when the run ends.
    obs: Sink,
    /// Polled by the event loop; see [`Simulator::with_cancel`].
    cancel: Cancel,
}

impl Simulator {
    /// Builds a simulator.
    ///
    /// # Panics
    ///
    /// Panics — before simulating anything — if `mapping` disagrees with
    /// the configuration's mesh or MC placement, if `config.faults` fails
    /// [`hoploc_fault::FaultPlan::validate`] against the configured
    /// topology, or if a private-L2 machine has more nodes than the
    /// directory tracks ([`Directory::MAX_NODES`], 128).
    pub fn new(config: SimConfig, mapping: L2ToMcMapping, policy: PagePolicy) -> Self {
        assert_eq!(
            *mapping.mesh(),
            config.mesh,
            "mapping mesh must match config"
        );
        assert_eq!(
            mapping.mc_nodes(),
            config.placement.attach_nodes(&config.mesh).as_slice(),
            "mapping MC placement must match config"
        );
        let n = config.num_nodes();
        assert!(
            config.l2_mode == L2Mode::Shared || n <= Directory::MAX_NODES,
            "a private-L2 machine of {n} nodes exceeds the directory's {}-node limit",
            Directory::MAX_NODES
        );
        let n_mcs = config.num_mcs();
        let mut mc_cfg = config.mc;
        mc_cfg.ideal = config.optimal;
        let mut net = Network::new(config.mesh, config.noc);
        let mut mcs: Vec<MemoryController> =
            (0..n_mcs).map(|_| MemoryController::new(mc_cfg)).collect();
        let mut outages = Vec::new();
        if let Some(plan) = &config.faults {
            let topo = FaultTopo {
                links: (n * 4) as u32,
                mcs: n_mcs as u16,
                banks_per_mc: config.mc.banks as u16,
            };
            if let Err(e) = plan.validate(&topo) {
                panic!("fault plan does not fit the configured machine: {e}");
            }
            net.set_link_faults(&plan.links);
            for (i, mc) in mcs.iter_mut().enumerate() {
                mc.set_faults(plan.mc_faults(i as u16));
            }
            if !plan.outages.is_empty() {
                outages = vec![Vec::new(); n_mcs];
                for o in &plan.outages {
                    outages[o.mc as usize].push(*o);
                }
            }
        }
        Self {
            os: Os::new(config.page_bytes, config.memory_bytes, n_mcs, policy),
            net,
            mcs,
            l1: SetAssocCache::with_banks(config.l1, n),
            l2: SetAssocCache::with_banks(config.l2, n),
            dir: Directory::with_line_bound(config.memory_bytes / config.l2.line_bytes),
            sharer_rings: if config.l2_mode == L2Mode::Private {
                distance_rings(&config.mesh)
            } else {
                Vec::new()
            },
            events: EventQueue::new(),
            threads: Vec::new(),
            pending: TokenRing::new(),
            next_token: 0,
            mc_next_poll: vec![None; n_mcs],
            outages,
            pf: config.prefetch.enabled().then(|| PfState {
                slices: (0..n)
                    .map(|_| SlicePrefetcher::new(config.prefetch))
                    .collect(),
                inflight: IntMap::default(),
                inflight_count: vec![0; n],
                waiters: IntMap::default(),
                summaries: vec![PrefetchSummary::default(); n],
                scratch: Vec::new(),
            }),
            writebacks: 0,
            rehomed: vec![0; n_mcs],
            node_mc_requests: vec![vec![0; n_mcs]; n],
            obs: Sink::disabled(),
            cancel: Cancel::never(),
            nearest: if config.optimal {
                (mapping.mesh().nodes())
                    .map(|n| mapping.nearest_mc(n).0 as usize)
                    .collect()
            } else {
                Vec::new()
            },
            config,
            mapping,
        }
    }

    /// Enables observability: the run records request-lifecycle spans and a
    /// metric registry into a fresh recorder, harvested by
    /// [`Simulator::run_traced`]. Recording never changes simulated timing —
    /// [`RunStats`] stay bit-identical to an untraced run. The `pf.*`
    /// families exist exactly when a prefetch mode is on.
    pub fn with_obs(mut self, options: ObsConfig) -> Self {
        let topo = Topology {
            mesh_width: self.config.mesh.width() as usize,
            mesh_height: self.config.mesh.height() as usize,
            mcs: self.config.num_mcs(),
            banks_per_mc: self.config.mc.banks,
        };
        self.obs = Sink::recording(topo, options);
        if self.pf.is_some() {
            let names = PrefetchSummary::COUNTERS.map(|(name, _)| name);
            self.obs.register_counters(&names, topo.nodes());
        }
        self
    }

    /// Stops the run early once `cancel` is set, polled every 2^14 events.
    /// A cancelled run returns statistics for the token's holder to discard.
    pub fn with_cancel(mut self, cancel: Cancel) -> Self {
        self.cancel = cancel;
        self
    }

    /// Runs a workload to completion and returns the collected statistics.
    ///
    /// # Panics
    ///
    /// Panics — before simulating anything — if a trace references a node
    /// outside the mesh or `workload.app_of_thread` does not name one
    /// application per thread.
    pub fn run(mut self, workload: &TraceWorkload) -> RunStats {
        self.run_core(workload)
    }

    /// Like [`run`](Self::run), additionally harvesting the observability
    /// recording enabled by [`with_obs`](Self::with_obs). Every counter
    /// family that repeats a component's count is copied from that
    /// component here, once.
    ///
    /// # Panics
    ///
    /// Panics if the simulator was constructed without
    /// [`with_obs`](Self::with_obs), or as [`run`](Self::run).
    pub fn run_traced(mut self, workload: &TraceWorkload) -> (RunStats, ObsReport) {
        assert!(
            self.obs.is_enabled(),
            "run_traced requires Simulator::with_obs"
        );
        let stats = self.run_core(workload);
        let (on, off, l1, l2) = (&stats.net.on_chip, &stats.net.off_chip, &self.l1, &self.l2);
        let per_mc = |count: fn(&McStats) -> u64| stats.mc.iter().map(count).collect();
        // Every family that repeats a component's count, in snapshot order.
        let copies: &[(&str, Vec<u64>)] = &[
            ("sim.accesses", vec![stats.total_accesses]),
            ("sim.cache_to_cache", vec![stats.cache_to_cache]),
            ("sim.offchip", vec![stats.offchip_accesses]),
            ("sim.writebacks", vec![stats.writebacks]),
            ("sim.node_mc_requests", stats.node_mc_requests.concat()),
            ("dir.forwards", vec![self.dir.on_chip_hits]),
            ("dir.misses", vec![self.dir.off_chip_misses]),
            ("cache.l1.accesses", counts(l1, |s| s.accesses).collect()),
            ("cache.l1.hits", counts(l1, |s| s.hits).collect()),
            ("cache.l2.accesses", counts(l2, |s| s.accesses).collect()),
            ("cache.l2.hits", counts(l2, |s| s.hits).collect()),
            ("cache.l2.evictions", counts(l2, |s| s.evictions).collect()),
            (
                "cache.l2.evictions_dirty",
                counts(l2, |s| s.dirty_evictions).collect(),
            ),
            ("net.onchip.msgs", vec![on.messages]),
            ("net.offchip.msgs", vec![off.messages]),
            ("net.onchip.latency_cycles", vec![on.total_latency]),
            ("net.offchip.latency_cycles", vec![off.total_latency]),
            ("net.onchip.hops", vec![on.total_hops]),
            ("net.offchip.hops", vec![off.total_hops]),
            ("net.onchip.hop_hist", on.hop_histogram.clone()),
            ("net.offchip.hop_hist", off.hop_histogram.clone()),
            ("net.link.flit_cycles", self.net.flit_cycles()),
            ("mc.served", per_mc(|m| m.served)),
            ("mc.row_hits", per_mc(|m| m.row_hits)),
            ("mc.queue_cycles", per_mc(|m| m.total_queue_cycles)),
            ("mc.service_cycles", per_mc(|m| m.total_service_cycles)),
            ("fault.link.hops", vec![stats.net.fault_hops]),
            ("fault.bank.stall_cycles", per_mc(|m| m.fault_stall_cycles)),
            ("fault.mc.retries", per_mc(|m| m.retries)),
            ("fault.mc.dropped", per_mc(|m| m.dropped)),
            ("fault.rehomed", self.rehomed.clone()),
        ];
        for (name, values) in copies {
            self.obs.set_counters(name, values);
        }
        if let Some(pf) = &self.pf {
            for (name, count) in PrefetchSummary::COUNTERS {
                self.obs
                    .set_counters(name, &pf.summaries.iter().map(count).collect::<Vec<_>>());
            }
        }
        let report = std::mem::take(&mut self.obs)
            .into_report(stats.exec_cycles)
            .expect("invariant: the sink was checked enabled above");
        (stats, report)
    }

    fn run_core(&mut self, workload: &TraceWorkload) -> RunStats {
        let nodes = workload.nodes();
        assert!(
            workload.app_of_thread.len() == nodes.len(),
            "workload names an application for {} threads but has {}",
            workload.app_of_thread.len(),
            nodes.len()
        );
        for node in &nodes {
            assert!(
                (node.0 as usize) < self.config.num_nodes(),
                "trace bound to node outside the mesh"
            );
        }
        self.threads = nodes
            .into_iter()
            .map(|node| ThreadState {
                node,
                chunk: Vec::with_capacity(CHUNK),
                pos: 0,
                outstanding: 0,
                blocked: false,
                finish: 0,
            })
            .collect();
        let streams = &mut workload.streams()[..];
        for thread in 0..self.threads.len() {
            self.schedule_next(streams, thread, 0);
        }

        let (mut handled, mut cancelled) = (0u64, false);
        while let Some((now, kind)) = self.events.pop() {
            handled += 1;
            if handled % CANCEL_POLL_EVENTS == 0 && self.cancel.is_set() {
                cancelled = true;
                break;
            }
            match kind {
                EventKind::Issue { thread } => self.handle_issue(streams, thread, now),
                EventKind::MissReturn { thread } => self.miss_return(streams, thread, now),
                EventKind::MemDone { token, dropped } => {
                    self.handle_mem_done(streams, token, now, dropped)
                }
                EventKind::McPoll { mc } => self.handle_poll(mc, now),
            }
        }
        assert!(
            cancelled || self.pending.is_empty(),
            "simulation ended with in-flight requests"
        );

        let exec_cycles = self.threads.iter().map(|t| t.finish).max().unwrap_or(0);
        let mut app_finish = vec![0u64; workload.num_apps()];
        for (i, t) in self.threads.iter().enumerate() {
            let app = workload.app_of_thread[i];
            app_finish[app] = app_finish[app].max(t.finish);
        }
        let link_utilization = self.net.link_utilization(exec_cycles.max(1));
        RunStats {
            exec_cycles,
            total_accesses: counts(&self.l1, |s| s.accesses).sum(),
            l1_hits: counts(&self.l1, |s| s.hits).sum(),
            l2_hits: counts(&self.l2, |s| s.hits).sum(),
            // Only a private-L2 machine looks the directory up.
            cache_to_cache: self.dir.on_chip_hits,
            offchip_accesses: self.node_mc_requests.iter().flatten().sum(),
            writebacks: self.writebacks,
            net: self.net.stats().clone(),
            mc: self.mcs.iter().map(|m| *m.stats()).collect(),
            node_mc_requests: std::mem::take(&mut self.node_mc_requests),
            app_finish,
            os_fallbacks: self.os.fallback_allocations,
            link_utilization,
            rehomed_requests: self.rehomed.iter().sum(),
            dropped_requests: self.mcs.iter().map(|m| m.stats().dropped).sum(),
            backstop_flushes: 0,
            prefetch: (self.pf.as_ref())
                .map(|p| p.summaries.iter().sum())
                .unwrap_or_default(),
        }
    }

    fn schedule(&mut self, time: u64, kind: EventKind) {
        self.events.push(time, kind);
    }

    /// The controller owning a physical address under the configured
    /// interleaving.
    fn mc_of_paddr(&self, paddr: u64) -> usize {
        ((paddr / self.config.interleave_bytes()) % self.config.num_mcs() as u64) as usize
    }

    fn mc_node(&self, mc: usize) -> NodeId {
        self.mapping.mc_node(McId(mc as u16))
    }

    /// Whether controller `mc` is inside an outage window at `cycle`.
    fn mc_dark(&self, mc: usize, cycle: u64) -> bool {
        self.outages
            .get(mc)
            .is_some_and(|windows| windows.iter().any(|o| o.active_at(cycle)))
    }

    /// Graceful degradation under MC outages: the controller to actually
    /// route to at `now`. Normally `preferred`; during an outage window the
    /// request re-homes to the live controller nearest `origin` (so a
    /// cluster-local MC is preferred over a remote one, exactly the
    /// locality rule the layouts optimize for). If every controller is
    /// dark the request stays on `preferred` and queues until the window
    /// closes — outages never lose requests.
    fn live_mc(&mut self, preferred: usize, origin: NodeId, now: u64) -> usize {
        if !self.mc_dark(preferred, now) {
            return preferred;
        }
        let alive = (0..self.mcs.len())
            .filter(|&m| m != preferred && !self.mc_dark(m, now))
            .min_by_key(|&m| (self.config.mesh.hop_distance(origin, self.mc_node(m)), m));
        match alive {
            Some(m) => {
                self.rehomed[preferred] += 1;
                self.obs.rehome(now);
                m
            }
            None => preferred,
        }
    }

    /// The controller-local DRAM address: hardware strips the MC-selection
    /// bits before row/bank decoding, so each controller sees a dense
    /// address space. Without this, interleaving-striped frames would
    /// alias onto a fraction of the banks.
    fn mc_local_addr(&self, paddr: u64) -> u64 {
        let unit = self.config.interleave_bytes();
        let n = self.config.num_mcs() as u64;
        (paddr / (unit * n)) * unit + paddr % unit
    }

    fn handle_issue(&mut self, streams: &mut [Stream<'_>], thread: usize, now: u64) {
        let st = &self.threads[thread];
        let (node, access) = (st.node, st.chunk[st.pos - 1]);
        let paddr = self.os.translate(access.vaddr, node, &self.mapping);
        let t1 = now + self.config.l1_latency;
        let l1_line = paddr / self.config.l1.line_bytes;
        self.obs.access(now, node.0);
        if self
            .l1
            .access_rw(node.0 as usize, l1_line, access.write)
            .hit
        {
            self.after_access(streams, thread, t1, false);
            return;
        }
        // An L1 miss opens a request lifecycle; the span closes when the
        // data returns (or is dropped again on an L2 hit).
        let req = self.obs.begin_req(t1, node.0);
        self.l2_access(streams, thread, access, paddr, t1, req);
    }

    /// One request past an L1 miss (Figure 2a/2b). The two L2
    /// organizations differ in a single decision, which slice serves the
    /// line, and in what follows from it:
    ///
    /// | decision            | private                  | shared                       |
    /// |---------------------|--------------------------|------------------------------|
    /// | serving slice       | the requester's own L2   | the line's SNUCA home bank   |
    /// | lookup starts at    | `t1`                     | arrival of a control message |
    /// | thread moves on at  | the lookup's end         | `t1` (the MSHR holds it)     |
    /// | line returns via    | nothing (it is local)    | home bank → requester        |
    /// | coherence           | directory at the MC      | none (one copy per line)     |
    ///
    /// Everything else (hit, eviction, late join, MC selection, off-chip
    /// request) is the same sequence against `slice`.
    fn l2_access(
        &mut self,
        streams: &mut [Stream<'_>],
        thread: usize,
        access: Access,
        paddr: u64,
        t1: u64,
        req: ReqTag,
    ) {
        let node = self.threads[thread].node;
        let l2_line = paddr / self.config.l2.line_bytes;
        let private = self.config.l2_mode == L2Mode::Private;
        let (slice, final_dst, arrival) = if private {
            (node, None, t1)
        } else {
            let home = NodeId((l2_line % self.config.num_nodes() as u64) as u16);
            let at = self.ctl(node, home, TrafficClass::OnChip, t1, req);
            (home, Some(node), at)
        };
        let now = arrival + self.config.l2_latency;
        let resume = if private { now } else { t1 };
        let who = Demand {
            thread,
            final_dst,
            req,
        };
        let s = slice.0 as usize;
        let res = self.l2.access_rw(s, l2_line, access.write);
        self.pf_demand_result(slice, res.prefetched_hit, res.evicted_prefetched);
        let outcome = 'served: {
            if res.hit {
                self.obs.req_l2_hit(req);
                if !private {
                    let at = self.forward(slice, final_dst, false, now, req);
                    self.obs.retire(req, at);
                    self.schedule(at, EventKind::MissReturn { thread });
                }
                // A hit on a prefetched line trains as "would have been
                // off-chip" so the predictor stays gated-open under the
                // prefetcher's own success.
                break 'served if res.prefetched_hit {
                    DemandOutcome::PrefetchedHit
                } else {
                    DemandOutcome::L2Hit
                };
            }
            if let Some(evicted) = res.evicted {
                if private {
                    self.dir.remove_sharer(evicted, s);
                }
                let ev_mc = self.mc_of_paddr(evicted * self.config.l2.line_bytes);
                if self.config.writebacks && res.evicted_dirty {
                    self.write_back(slice, evicted, ev_mc, now);
                } else if private {
                    // The replaced line leaves this L2: tell its directory
                    // slice (fire-and-forget control message).
                    let dir_node = self.mc_node(ev_mc);
                    self.ctl(slice, dir_node, TrafficClass::OnChip, now, ReqTag::NONE);
                }
            }
            if self.pf_late_join(slice, l2_line, who) {
                break 'served DemandOutcome::PrefetchedHit;
            }
            let mc = if self.config.optimal {
                self.nearest[slice.0 as usize]
            } else {
                self.mc_of_paddr(paddr)
            };
            let mc = self.live_mc(mc, slice, now);
            let mc_node = self.mc_node(mc);
            if private {
                let sharers = self.dir.lookup(l2_line, s);
                let rings = &self.sharer_rings[node.0 as usize];
                if let Some(owner) = nearest_sharer(rings, sharers) {
                    // On-chip fulfilment: requester → directory → owner →
                    // requester.
                    self.obs.c2c(req);
                    let t3 = self.ctl(node, mc_node, TrafficClass::OnChip, now, req);
                    let fwd = req.phase(Phase::Forward);
                    let t4 = self.ctl(mc_node, owner, TrafficClass::OnChip, t3, fwd);
                    let t5 = t4 + self.config.l2_latency;
                    let t6 = self.response(owner, node, TrafficClass::OnChip, false, t5, req);
                    self.dir.add_sharer(l2_line, s);
                    self.obs.retire(req, t6);
                    self.schedule(t6, EventKind::MissReturn { thread });
                    break 'served DemandOutcome::OnChip;
                }
            }
            // Off-chip: slice → MC (request), DRAM, MC → slice (data).
            self.node_mc_requests[s][mc] += 1;
            self.obs.offchip(req, now);
            let at = self.ctl(slice, mc_node, TrafficClass::OffChip, now, req);
            self.enqueue_mem(
                paddr,
                at,
                PendingMem {
                    kind: MemKind::Demand(who),
                    slice,
                    mc,
                    l2_line,
                },
            );
            DemandOutcome::OffChip
        };
        self.pf_on_demand(slice, access.ref_id, l2_line, outcome, now);
        // Only a hit in the requester's own L2 completes without an MSHR.
        self.after_access(streams, thread, resume, !(res.hit && private));
    }

    /// A dirty line evicted from `slice` travels to memory: a data message
    /// plus a DRAM write, neither of which blocks a thread. An outage
    /// re-homes the write; the directory slice stays put.
    fn write_back(&mut self, slice: NodeId, line: u64, mc: usize, now: u64) {
        let mc = self.live_mc(mc, slice, now);
        self.writebacks += 1;
        let mc_node = self.mc_node(mc);
        let at = self.data(slice, mc_node, TrafficClass::OffChip, now, ReqTag::NONE);
        self.enqueue_mem(
            line * self.config.l2.line_bytes,
            at,
            PendingMem {
                kind: MemKind::Writeback,
                slice,
                mc,
                l2_line: line,
            },
        );
    }

    /// Sends one message over the mesh and returns its arrival time.
    fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u32,
        class: TrafficClass,
        now: u64,
        req: ReqTag,
    ) -> u64 {
        self.net
            .send_obs(src, dst, bytes, class, now, req, &self.obs)
    }

    /// A control-sized message.
    fn ctl(&mut self, src: NodeId, dst: NodeId, class: TrafficClass, now: u64, req: ReqTag) -> u64 {
        self.send(src, dst, self.config.control_bytes, class, now, req)
    }

    /// A message carrying one L2 line.
    fn data(
        &mut self,
        src: NodeId,
        dst: NodeId,
        class: TrafficClass,
        now: u64,
        req: ReqTag,
    ) -> u64 {
        self.send(src, dst, self.config.l2.line_bytes as u32, class, now, req)
    }

    /// One leg of a response: the line, or a control-sized error reply
    /// when the controller `dropped` the request.
    fn response(
        &mut self,
        src: NodeId,
        dst: NodeId,
        class: TrafficClass,
        dropped: bool,
        now: u64,
        req: ReqTag,
    ) -> u64 {
        let req = req.phase(Phase::Reply);
        if dropped {
            self.ctl(src, dst, class, now, req)
        } else {
            self.data(src, dst, class, now, req)
        }
    }

    /// The slice → requester half of a response, returning when it
    /// arrives: a shared home bank forwards over the mesh, a private slice
    /// already is the requester.
    fn forward(
        &mut self,
        slice: NodeId,
        final_dst: Option<NodeId>,
        dropped: bool,
        now: u64,
        req: ReqTag,
    ) -> u64 {
        match final_dst {
            Some(dst) => self.response(slice, dst, TrafficClass::OnChip, dropped, now, req),
            None => now,
        }
    }

    /// A memory response: MC → slice → requester.
    fn reply(
        &mut self,
        mc: usize,
        slice: NodeId,
        final_dst: Option<NodeId>,
        dropped: bool,
        now: u64,
        req: ReqTag,
    ) -> u64 {
        let mc_node = self.mc_node(mc);
        let at = self.response(mc_node, slice, TrafficClass::OffChip, dropped, now, req);
        self.forward(slice, final_dst, dropped, at, req)
    }

    /// The response to `who` arrived at `now`: close its span and return
    /// the miss to its thread.
    fn complete(&mut self, streams: &mut [Stream<'_>], who: Demand, now: u64, dropped: bool) {
        if dropped {
            self.obs.drop_req(who.req, now);
        } else {
            self.obs.retire(who.req, now);
        }
        self.miss_return(streams, who.thread, now);
    }

    /// A demand L2 access resolved against (possibly) prefetched state:
    /// a hit on an untouched prefetched line is *useful*, the eviction of
    /// one is *harmful* (pollution).
    fn pf_demand_result(&mut self, slice: NodeId, useful: bool, harmful: bool) {
        let Some(pf) = self.pf.as_mut() else { return };
        let summary = &mut pf.summaries[slice.0 as usize];
        summary.useful += useful as u64;
        summary.harmful += harmful as u64;
    }

    /// If a prefetch for `l2_line` is already in flight to `slice`, `who`
    /// joins it instead of issuing a second memory request (the demand's
    /// `access_rw` just allocated the line, so the landing prefetch
    /// installs as a no-op) and resumes when it lands. Counted as a *late*
    /// prefetch: the engine was right but not early enough.
    fn pf_late_join(&mut self, slice: NodeId, l2_line: u64, who: Demand) -> bool {
        let Some(pf) = self.pf.as_mut() else {
            return false;
        };
        let Some(&token) = pf.inflight.get(&(slice.0, l2_line)) else {
            return false;
        };
        pf.summaries[slice.0 as usize].late += 1;
        pf.waiters.entry(token).or_default().push(who);
        true
    }

    /// Trains the slice prefetcher at `slice` on one demand access and
    /// issues whatever candidates survive its gating. Called *after* the
    /// demand's own messages are sent at `now`, so prefetch traffic queues
    /// behind demand traffic on every shared link (demand priority).
    fn pf_on_demand(
        &mut self,
        slice: NodeId,
        ref_id: u32,
        l2_line: u64,
        outcome: DemandOutcome,
        now: u64,
    ) {
        let Some(mut pf) = self.pf.take() else { return };
        let s = slice.0 as usize;
        pf.scratch.clear();
        pf.slices[s].on_demand(
            ref_id,
            l2_line,
            outcome,
            &mut pf.summaries[s],
            &mut pf.scratch,
        );
        for i in 0..pf.scratch.len() {
            let line = pf.scratch[i];
            self.pf_try_issue(&mut pf, slice, line, now);
        }
        self.pf = Some(pf);
    }

    /// Issues one candidate line from `slice` unless the issue-side
    /// filters reject it.
    fn pf_try_issue(&mut self, pf: &mut PfState, slice: NodeId, line: u64, now: u64) {
        let node = slice.0 as usize;
        // Already resident or already being fetched: the engine's work is
        // simply done (not a drop — nothing was lost).
        if self.l2.contains(node, line) || pf.inflight.contains_key(&(slice.0, line)) {
            return;
        }
        if pf.inflight_count[node] as usize >= INFLIGHT_CAP {
            pf.summaries[node].dropped += 1;
            return;
        }
        let paddr = line * self.config.l2.line_bytes;
        let mc = self.mc_of_paddr(paddr);
        // Prefetches never re-home: a speculative fetch is not worth a
        // detour, so a dark controller just swallows it.
        if self.mc_dark(mc, now) {
            pf.summaries[node].dropped += 1;
            return;
        }
        pf.summaries[node].issued += 1;
        let mc_node = self.mc_node(mc);
        let at = self.ctl(slice, mc_node, TrafficClass::OffChip, now, ReqTag::NONE);
        let token = self.enqueue_mem(
            paddr,
            at,
            PendingMem {
                kind: MemKind::Prefetch,
                slice,
                mc,
                l2_line: line,
            },
        );
        pf.inflight.insert((slice.0, line), token);
        pf.inflight_count[node] += 1;
    }

    /// A prefetch's memory round trip finished: install the line (a no-op
    /// if a racing demand already owns it), resume late-joined demands,
    /// and on a transient-error drop let those demands fail exactly like
    /// a dropped demand request.
    fn finish_prefetch(
        &mut self,
        streams: &mut [Stream<'_>],
        ctx: PendingMem,
        token: u64,
        now: u64,
        dropped: bool,
    ) {
        let mut pf = self
            .pf
            .take()
            .expect("prefetch completion without prefetch state");
        let slice = ctx.slice;
        let node = slice.0 as usize;
        pf.inflight.remove(&(slice.0, ctx.l2_line));
        pf.inflight_count[node] -= 1;
        let waiters = pf.waiters.remove(&token).unwrap_or_default();
        if dropped {
            pf.summaries[node].dropped += 1;
            self.pf = Some(pf);
            // Waiting demands resume on a control-sized error reply along
            // the normal response path; the line is not installed.
            for w in waiters {
                let at = self.reply(ctx.mc, slice, w.final_dst, true, now, w.req);
                self.complete(streams, w, at, true);
            }
            return;
        }
        // Data travels MC → slice; the install marks the line prefetched
        // so a later demand hit counts as useful.
        let t1 = self.reply(ctx.mc, slice, None, false, now, ReqTag::NONE);
        let res = self.l2.install_prefetch(node, ctx.l2_line);
        pf.summaries[node].harmful += res.evicted_prefetched as u64;
        self.pf = Some(pf);
        if self.config.l2_mode == L2Mode::Private {
            // The victim leaves the slice's directory view, but its
            // writeback is not modelled: speculation must never add
            // demand memory traffic.
            if let Some(evicted) = res.evicted {
                self.dir.remove_sharer(evicted, node);
            }
            // The slice now holds the line: make it discoverable for
            // cache-to-cache forwarding, like any demand fill.
            self.dir.add_sharer(ctx.l2_line, node);
        }
        for w in waiters {
            let at = self.forward(slice, w.final_dst, false, t1, w.req);
            self.complete(streams, w, at, false);
        }
    }

    /// Allocates a token for `ctx`, files it as pending and submits the
    /// access to `ctx.mc`, arriving at `arrival`. Returns the token.
    fn enqueue_mem(&mut self, paddr: u64, arrival: u64, ctx: PendingMem) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        let mc = ctx.mc;
        if let MemKind::Demand(who) = ctx.kind {
            if who.req.is_some() {
                self.obs.bind_token(token, who.req);
            }
        }
        let prefetch = matches!(ctx.kind, MemKind::Prefetch);
        self.pending.insert(token, ctx);
        let local = self.mc_local_addr(paddr);
        let done =
            self.mcs[mc].enqueue_class_obs(local, token, arrival, mc as u16, prefetch, &self.obs);
        schedule_completions(&mut self.events, done);
        self.update_poll(mc);
        token
    }

    fn update_poll(&mut self, mc: usize) {
        if let Some(s) = self.mcs[mc].earliest_pending_start() {
            let due = s.max(1);
            if self.mc_next_poll[mc].map(|t| due < t).unwrap_or(true) {
                self.mc_next_poll[mc] = Some(due);
                self.schedule(due, EventKind::McPoll { mc });
            }
        }
    }

    fn handle_poll(&mut self, mc: usize, now: u64) {
        if self.mc_next_poll[mc] == Some(now) {
            self.mc_next_poll[mc] = None;
        }
        let done = self.mcs[mc].poll_obs(now, mc as u16, &self.obs);
        schedule_completions(&mut self.events, done);
        self.update_poll(mc);
    }

    fn handle_mem_done(&mut self, streams: &mut [Stream<'_>], token: u64, now: u64, dropped: bool) {
        let ctx = self
            .pending
            .remove(token)
            .expect("completion for unknown token");
        match ctx.kind {
            MemKind::Prefetch => self.finish_prefetch(streams, ctx, token, now, dropped),
            // The line is in DRAM; nothing waits on it. A dropped
            // writeback simply never lands.
            MemKind::Writeback => {}
            MemKind::Demand(who) => {
                // A dropped request (retry cap exhausted) is answered by a
                // control-sized error reply on the normal response path, so
                // the waiting thread still resumes. The line is NOT installed
                // and no sharer is recorded — a later touch misses again and
                // re-fetches.
                if !dropped && self.config.l2_mode == L2Mode::Private {
                    // The requester's L2 now holds the line.
                    self.dir.add_sharer(ctx.l2_line, ctx.slice.0 as usize);
                }
                let at = self.reply(ctx.mc, ctx.slice, who.final_dst, dropped, now, who.req);
                self.complete(streams, who, at, dropped);
            }
        }
    }

    /// The thread consumed one access at `now`. Misses occupy an MSHR; the
    /// thread proceeds to its next access unless all MSHRs are busy.
    fn after_access(&mut self, streams: &mut [Stream<'_>], thread: usize, now: u64, miss: bool) {
        let mlp = self.config.mlp.max(1);
        {
            let st = &mut self.threads[thread];
            st.finish = st.finish.max(now);
            if miss {
                st.outstanding += 1;
            }
            if st.outstanding >= mlp {
                st.blocked = true;
                return;
            }
        }
        self.schedule_next(streams, thread, now);
    }

    /// An outstanding miss returned at `now`.
    fn miss_return(&mut self, streams: &mut [Stream<'_>], thread: usize, now: u64) {
        let unblock = {
            let st = &mut self.threads[thread];
            debug_assert!(st.outstanding > 0, "miss return without outstanding miss");
            st.outstanding -= 1;
            st.finish = st.finish.max(now);
            let u = st.blocked;
            st.blocked = false;
            u
        };
        if unblock {
            self.schedule_next(streams, thread, now);
        }
    }

    /// Schedules the thread's next access (if any) after `now`, drawing a
    /// chunk from its stream when the last one is used up.
    fn schedule_next(&mut self, streams: &mut [Stream<'_>], thread: usize, now: u64) {
        let st = &mut self.threads[thread];
        if st.pos == st.chunk.len() {
            st.chunk.clear();
            streams[thread](&mut st.chunk);
            st.pos = 0;
        }
        if let Some(&next) = st.chunk.get(st.pos) {
            st.pos += 1;
            self.schedule(now + next.gap as u64, EventKind::Issue { thread });
        }
    }
}

/// Schedules a `MemDone` for each completion a controller just reported.
/// A free function over the queue alone, so the completions can stay
/// borrowed from the controller that owns them.
fn schedule_completions(events: &mut EventQueue<EventKind>, done: &[Completion]) {
    for c in done {
        events.push(
            c.finish,
            EventKind::MemDone {
                token: c.token,
                dropped: c.dropped,
            },
        );
    }
}

/// One count of each bank's statistics, in node order.
fn counts(cache: &SetAssocCache, count: fn(&CacheStats) -> u64) -> impl Iterator<Item = u64> + '_ {
    (0..cache.banks()).map(move |bank| count(cache.stats(bank)))
}

/// For each node, the masks of the nodes 0, 1, 2, … hops away, up to the
/// farthest node.
fn distance_rings(mesh: &Mesh) -> Vec<Vec<u128>> {
    mesh.nodes()
        .map(|to| {
            let mut rings = Vec::new();
            for (n, d) in mesh.hop_distances_to(to).enumerate() {
                let d = d as usize;
                if d >= rings.len() {
                    rings.resize(d + 1, 0);
                }
                rings[d] |= 1u128 << n;
            }
            rings
        })
        .collect()
}

/// The sharer fewest hops from the node whose [`distance_rings`] are
/// `rings`, the lowest node id among equals: the L2 the directory forwards
/// a private-L2 miss to.
fn nearest_sharer(rings: &[u128], sharers: Sharers) -> Option<NodeId> {
    if sharers.is_empty() {
        return None;
    }
    rings
        .iter()
        .find_map(|&ring| sharers.first_in(ring))
        .map(|s| NodeId(s as u16))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Access, ThreadTrace};
    use hoploc_cache::CacheConfig;
    use hoploc_fault::{FaultPlan, FaultRates};
    use hoploc_layout::Granularity;
    use hoploc_noc::McPlacement;
    use hoploc_obs::EvName;
    use hoploc_prefetch::{PrefetchConfig, PrefetchMode};

    fn small_config() -> SimConfig {
        SimConfig {
            mesh: hoploc_noc::Mesh::new(4, 4),
            placement: McPlacement::Corners,
            granularity: Granularity::CacheLine,
            ..SimConfig::default()
        }
    }

    fn mapping(cfg: &SimConfig) -> L2ToMcMapping {
        L2ToMcMapping::nearest_cluster(cfg.mesh, &cfg.placement)
    }

    fn seq_trace(node: u16, lines: u64, stride: u64) -> ThreadTrace {
        ThreadTrace::new(
            NodeId(node),
            (0..lines)
                .map(|k| Access {
                    vaddr: k * stride,
                    write: false,
                    gap: 2,
                    ref_id: 0,
                })
                .collect(),
        )
    }

    fn mesh_12x12(l2_mode: L2Mode) -> Simulator {
        let cfg = SimConfig {
            mesh: hoploc_noc::Mesh::new(12, 12),
            l2_mode,
            ..small_config()
        };
        let m = mapping(&cfg);
        Simulator::new(cfg, m, PagePolicy::Interleaved)
    }

    #[test]
    #[should_panic(expected = "exceeds the directory's 128-node limit")]
    fn private_l2_beyond_the_directory_is_refused_up_front() {
        mesh_12x12(L2Mode::Private);
    }

    #[test]
    fn shared_l2_needs_no_directory_and_runs_on_144_nodes() {
        let w = TraceWorkload::single("t", vec![seq_trace(143, 64, 256)]);
        assert_eq!(mesh_12x12(L2Mode::Shared).run(&w).total_accesses, 64);
    }

    #[test]
    fn single_thread_completes() {
        let cfg = small_config();
        let m = mapping(&cfg);
        let sim = Simulator::new(cfg, m, PagePolicy::Interleaved);
        let w = TraceWorkload::single("t", vec![seq_trace(5, 100, 256)]);
        let stats = sim.run(&w);
        assert_eq!(stats.total_accesses, 100);
        assert!(stats.exec_cycles > 0);
        assert_eq!(stats.app_finish.len(), 1);
        assert_eq!(stats.app_finish[0], stats.exec_cycles);
    }

    #[test]
    fn repeated_line_hits_l1() {
        let cfg = small_config();
        let m = mapping(&cfg);
        let sim = Simulator::new(cfg, m, PagePolicy::Interleaved);
        let trace = ThreadTrace::new(
            NodeId(0),
            (0..50)
                .map(|_| Access {
                    vaddr: 128,
                    write: false,
                    gap: 1,
                    ref_id: 0,
                })
                .collect(),
        );
        let stats = sim.run(&TraceWorkload::single("t", vec![trace]));
        assert_eq!(stats.l1_hits, 49);
        assert_eq!(stats.offchip_accesses, 1);
    }

    #[test]
    fn streaming_goes_offchip() {
        let cfg = small_config();
        let m = mapping(&cfg);
        let sim = Simulator::new(cfg, m, PagePolicy::Interleaved);
        // Touch 4096 distinct 256B lines (1 MB): far beyond one L2.
        let stats = sim.run(&TraceWorkload::single("t", vec![seq_trace(0, 4096, 256)]));
        assert!(
            stats.offchip_accesses > 3000,
            "got {}",
            stats.offchip_accesses
        );
        assert!(stats.memory_latency() > 0.0);
        assert!(stats.offchip_net_latency() > 0.0);
    }

    #[test]
    fn private_l2_forwards_cache_to_cache() {
        let cfg = small_config();
        let m = mapping(&cfg);
        let sim = Simulator::new(cfg, m, PagePolicy::Interleaved);
        // Thread on node 0 touches lines; thread on node 15 touches the
        // same lines afterwards (long gaps so node 0 finishes first).
        let a = seq_trace(0, 64, 256);
        let b = ThreadTrace::new(
            NodeId(15),
            (0..64u64)
                .map(|k| Access {
                    vaddr: k * 256,
                    write: false,
                    gap: 400,
                    ref_id: 0,
                })
                .collect(),
        );
        let stats = sim.run(&TraceWorkload::single("t", vec![a, b]));
        assert!(
            stats.cache_to_cache > 0,
            "directory must forward some lines"
        );
    }

    #[test]
    fn nearest_sharer_is_the_first_minimum_in_node_order() {
        // The reference is what the directory's `Vec<usize>` and
        // `min_by_key` used to pick: `min_by_key` keeps the first of equal
        // minima, and the holders are in ascending node order. Meshes up to
        // the directory's 128 nodes, square and not.
        for (w, h) in [(8, 8), (5, 3), (11, 11), (16, 8)] {
            let mesh = hoploc_noc::Mesh::new(w, h);
            let n = mesh.num_nodes() as u64;
            let rings = distance_rings(&mesh);
            hoploc_ptest::run_cases(&format!("nearest_sharer_{w}x{h}"), 256, |rng| {
                let mut dir = Directory::new();
                let mut holders = Vec::new();
                // From empty to full masks, so ties are common.
                let density = rng.u64_below(n + 1);
                for s in 0..n as usize {
                    if rng.u64_below(n) < density {
                        dir.add_sharer(7, s);
                        holders.push(s);
                    }
                }
                let node = NodeId(rng.u64_below(n) as u16);
                let want = holders
                    .iter()
                    .filter(|&&s| s != node.0 as usize)
                    .min_by_key(|&&s| mesh.hop_distance(node, NodeId(s as u16)))
                    .map(|&s| NodeId(s as u16));
                let sharers = dir.lookup(7, node.0 as usize);
                assert_eq!(nearest_sharer(&rings[node.0 as usize], sharers), want);
            });
        }
    }

    #[test]
    fn shared_l2_uses_home_banks() {
        let mut cfg = small_config();
        cfg.l2_mode = L2Mode::Shared;
        let m = mapping(&cfg);
        let sim = Simulator::new(cfg, m, PagePolicy::Interleaved);
        let stats = sim.run(&TraceWorkload::single("t", vec![seq_trace(3, 512, 256)]));
        assert_eq!(stats.total_accesses, 512);
        // Home-bank requests generate on-chip traffic even for L2 misses.
        assert!(stats.net.on_chip.messages > 0);
        assert!(stats.offchip_accesses > 0);
    }

    #[test]
    fn optimal_mode_uses_nearest_mc_only() {
        let mut cfg = small_config();
        cfg.optimal = true;
        let m = mapping(&cfg);
        let nearest = m.nearest_mc(NodeId(0)).0 as usize;
        let sim = Simulator::new(cfg, m, PagePolicy::Interleaved);
        let stats = sim.run(&TraceWorkload::single("t", vec![seq_trace(0, 1024, 256)]));
        for (mc, &count) in stats.node_mc_requests[0].iter().enumerate() {
            if mc != nearest {
                assert_eq!(count, 0, "optimal mode must only use the nearest MC");
            }
        }
        assert!(stats.node_mc_requests[0][nearest] > 0);
    }

    #[test]
    fn optimal_is_faster_than_default() {
        let cfg = small_config();
        let m = mapping(&cfg);
        let base = Simulator::new(cfg.clone(), m.clone(), PagePolicy::Interleaved)
            .run(&TraceWorkload::single("t", vec![seq_trace(0, 2048, 256)]));
        let mut ocfg = cfg;
        ocfg.optimal = true;
        let opt = Simulator::new(ocfg, m, PagePolicy::Interleaved)
            .run(&TraceWorkload::single("t", vec![seq_trace(0, 2048, 256)]));
        assert!(
            opt.exec_cycles < base.exec_cycles,
            "optimal {} !< base {}",
            opt.exec_cycles,
            base.exec_cycles
        );
    }

    #[test]
    fn multiprogram_reports_per_app_finish() {
        let cfg = small_config();
        let m = mapping(&cfg);
        let sim = Simulator::new(cfg, m, PagePolicy::Interleaved);
        let a = TraceWorkload::single("a", vec![seq_trace(0, 100, 256)]);
        let b = TraceWorkload::single("b", vec![seq_trace(5, 400, 256)]);
        let w = TraceWorkload::multiprogram("a+b", vec![a, b]);
        let stats = sim.run(&w);
        assert_eq!(stats.app_finish.len(), 2);
        assert!(stats.app_finish[1] >= stats.app_finish[0]);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = small_config();
        let m = mapping(&cfg);
        let w = TraceWorkload::single("t", vec![seq_trace(0, 500, 256), seq_trace(7, 500, 256)]);
        let s1 = Simulator::new(cfg.clone(), m.clone(), PagePolicy::Interleaved).run(&w);
        let s2 = Simulator::new(cfg, m, PagePolicy::Interleaved).run(&w);
        assert_eq!(s1.exec_cycles, s2.exec_cycles);
        assert_eq!(s1.offchip_accesses, s2.offchip_accesses);
    }

    /// Asserts every counter family copied from a component holds that
    /// component's count, as `RunStats` reports it, and agrees with the
    /// families the sink records per event. `cfg` is the run's machine.
    fn assert_obs_parity(cfg: &SimConfig, stats: &RunStats, rep: &ObsReport) {
        let reg = rep.registry();
        let total = |name| rep.counter_family(name).iter().sum::<u64>();
        let hist = |name: &str| reg.histogram(name).unwrap().count();
        let window = |name| reg.series_by_name(name).unwrap().vals.iter().sum::<u64>();
        assert_eq!(rep.counter("sim.accesses"), stats.total_accesses);
        assert_eq!(window("win.accesses"), stats.total_accesses);
        assert_eq!(rep.counter("sim.offchip"), stats.offchip_accesses);
        assert_eq!(window("win.offchip"), stats.offchip_accesses);
        assert_eq!(rep.counter("sim.cache_to_cache"), stats.cache_to_cache);
        assert_eq!(hist("req.c2c_cycles"), stats.cache_to_cache);
        assert_eq!(rep.counter("sim.writebacks"), stats.writebacks);
        let node_mc: Vec<u64> = stats.node_mc_requests.concat();
        assert_eq!(rep.counter_family("sim.node_mc_requests"), &node_mc[..]);
        // Every private-L2 off-chip demand missed in the directory first.
        let private = cfg.l2_mode == L2Mode::Private;
        assert_eq!(rep.counter("dir.forwards"), stats.cache_to_cache);
        let dir_misses = if private { stats.offchip_accesses } else { 0 };
        assert_eq!(rep.counter("dir.misses"), dir_misses);
        assert_eq!(total("cache.l1.accesses"), stats.total_accesses);
        assert_eq!(total("cache.l1.hits"), stats.l1_hits);
        assert_eq!(total("cache.l2.hits"), stats.l2_hits);
        for (name, c) in [
            ("onchip", &stats.net.on_chip),
            ("offchip", &stats.net.off_chip),
        ] {
            let family = |what| rep.counter_family(&format!("net.{name}.{what}"));
            assert_eq!(family("msgs"), [c.messages]);
            assert_eq!(family("latency_cycles"), [c.total_latency]);
            assert_eq!(family("hops"), [c.total_hops]);
            assert_eq!(family("hop_hist"), &c.hop_histogram[..]);
            assert_eq!(hist(&format!("net.{name}_cycles")), c.messages);
        }
        let e = stats.exec_cycles.max(1) as f64;
        let flits = rep.counter_family("net.link.flit_cycles");
        let util: Vec<f64> = flits.iter().map(|&f| f as f64 / e).collect();
        assert_eq!(util, stats.link_utilization);
        assert_eq!(rep.counter("fault.link.hops"), stats.net.fault_hops);
        assert_eq!(total("fault.link.extra_cycles"), stats.net.fault_cycles);
        type PerMc = (&'static str, fn(&McStats) -> u64);
        let per_mc: [PerMc; 7] = [
            ("mc.served", |m| m.served),
            ("mc.row_hits", |m| m.row_hits),
            ("mc.queue_cycles", |m| m.total_queue_cycles),
            ("mc.service_cycles", |m| m.total_service_cycles),
            ("fault.bank.stall_cycles", |m| m.fault_stall_cycles),
            ("fault.mc.retries", |m| m.retries),
            ("fault.mc.dropped", |m| m.dropped),
        ];
        for (name, count) in per_mc {
            let want: Vec<u64> = stats.mc.iter().map(count).collect();
            assert_eq!(rep.counter_family(name), &want[..], "{name}");
        }
        // The per-bank families, recorded per service, sum to the copies.
        let banks = cfg.mc.banks;
        for (bank, mc) in [
            ("mc.bank.served", "mc.served"),
            ("mc.bank.queue_cycles", "mc.queue_cycles"),
            ("mc.bank.busy_cycles", "mc.service_cycles"),
        ] {
            let per_bank: Vec<u64> = (rep.counter_family(bank).chunks(banks))
                .map(|c| c.iter().sum())
                .collect();
            assert_eq!(per_bank, rep.counter_family(mc), "{bank}");
        }
        assert_eq!(hist("mc.service_cycles"), total("mc.served"));
        // Requests re-home only away from a controller some outage darkens.
        let rehomed = rep.counter_family("fault.rehomed");
        assert_eq!(rehomed.iter().sum::<u64>(), stats.rehomed_requests);
        let outages = cfg.faults.as_ref().map_or(&[][..], |p| &p.outages[..]);
        let dark = |mc| outages.iter().any(|o| o.mc as usize == mc);
        assert!(rehomed
            .iter()
            .enumerate()
            .all(|(mc, &n)| n == 0 || dark(mc)));
    }

    /// A traced run equals its untraced twin and copies every count, on
    /// both L2 organizations, plain and stressed: gated prefetch,
    /// writebacks out of a 2 KB slice, and a severe fault plan that allows
    /// one retry, so every copied family carries a nonzero count.
    #[test]
    fn traced_runs_match_untraced_and_copy_every_count() {
        let topo = FaultTopo {
            links: 16 * 4,
            mcs: 4,
            banks_per_mc: 8,
        };
        let rates = FaultRates::severe().with_horizon(1 << 15);
        let mut plan = FaultPlan::from_seed(7, &topo, &rates);
        plan.retry.max_retries = 1;
        // Two threads over the same lines, storing every third: the
        // directory forwards, and evictions are dirty.
        let stream = |node: u16| {
            let accesses = (0..1024u64).map(|k| Access {
                vaddr: k * 256,
                write: k % 3 == 0,
                gap: 2 + node as u32,
                ref_id: node as u32,
            });
            ThreadTrace::new(NodeId(node), accesses.collect())
        };
        let w = TraceWorkload::single("t", vec![stream(0), stream(9)]);
        for l2_mode in [L2Mode::Private, L2Mode::Shared] {
            for stressed in [false, true] {
                let case = format!("{l2_mode:?}, stressed: {stressed}");
                let mut cfg = SimConfig {
                    l2_mode,
                    ..small_config()
                };
                if stressed {
                    cfg.prefetch = PrefetchConfig::with_mode(PrefetchMode::Gated);
                    cfg.writebacks = true;
                    cfg.l2 = CacheConfig {
                        size_bytes: 2048,
                        ways: 4,
                        ..cfg.l2
                    };
                    cfg.faults = Some(plan.clone());
                }
                let m = mapping(&cfg);
                let base = Simulator::new(cfg.clone(), m.clone(), PagePolicy::Interleaved).run(&w);
                let (stats, rep) = Simulator::new(cfg.clone(), m, PagePolicy::Interleaved)
                    .with_obs(ObsConfig::default())
                    .run_traced(&w);
                assert_eq!(stats, base, "{case}: recording must not perturb timing");
                assert_obs_parity(&cfg, &stats, &rep);
                assert!(rep.events().iter().any(|e| e.name == EvName::Offchip));
                for (name, count) in PrefetchSummary::COUNTERS {
                    let sum = rep.registry().counter_family(name).map(|f| f.iter().sum());
                    assert_eq!(sum, stressed.then(|| count(&stats.prefetch)), "{case}");
                }
                let mc_total = |count: fn(&McStats) -> u64| stats.mc.iter().map(count).sum();
                let nonzero = [
                    ("forwards", stats.cache_to_cache, l2_mode == L2Mode::Private),
                    ("prefetches", stats.prefetch.issued, stressed),
                    ("writebacks", stats.writebacks, stressed),
                    ("re-homes", stats.rehomed_requests, stressed),
                    ("faulted hops", stats.net.fault_hops, stressed),
                    ("retries", mc_total(|m| m.retries), stressed),
                    ("drops", mc_total(|m| m.dropped), stressed),
                    ("stall cycles", mc_total(|m| m.fault_stall_cycles), stressed),
                ];
                for (what, n, expected) in nonzero {
                    assert!(!expected || n > 0, "{case}: no {what}");
                }
            }
        }
    }

    mod prefetch {
        use super::*;

        fn with_mode(mode: PrefetchMode) -> SimConfig {
            SimConfig {
                prefetch: PrefetchConfig::with_mode(mode),
                ..small_config()
            }
        }

        /// A streaming trace with per-access `ref_id`s, as the workload
        /// generator would emit.
        fn stream_trace(node: u16, lines: u64, stride: u64) -> ThreadTrace {
            ThreadTrace::new(
                NodeId(node),
                (0..lines)
                    .map(|k| Access {
                        vaddr: k * stride,
                        write: false,
                        gap: 2,
                        ref_id: 7,
                    })
                    .collect(),
            )
        }

        #[test]
        fn stride_prefetch_covers_a_streaming_run() {
            let w = TraceWorkload::single("t", vec![stream_trace(0, 2048, 256)]);
            let cfg = small_config();
            let m = mapping(&cfg);
            let base = Simulator::new(cfg, m.clone(), PagePolicy::Interleaved).run(&w);
            let pcfg = with_mode(PrefetchMode::Stride);
            let opt = Simulator::new(pcfg, m, PagePolicy::Interleaved).run(&w);
            assert!(opt.prefetch.issued > 0, "stream must trigger the engine");
            assert!(
                opt.prefetch.useful + opt.prefetch.late > 0,
                "prefetches must cover some demand misses"
            );
            assert!(
                opt.offchip_accesses < base.offchip_accesses,
                "covered misses leave the demand off-chip path: {} !< {}",
                opt.offchip_accesses,
                base.offchip_accesses
            );
            assert_eq!(opt.total_accesses, base.total_accesses);
            // Demand conservation is stated over *demand* requests only.
            let served: u64 = opt.mc.iter().map(|m| m.served).sum();
            assert_eq!(served, opt.offchip_accesses);
        }

        #[test]
        fn gated_mode_scores_the_predictor() {
            let w = TraceWorkload::single("t", vec![stream_trace(0, 2048, 256)]);
            let cfg = with_mode(PrefetchMode::Gated);
            let m = mapping(&cfg);
            let stats = Simulator::new(cfg, m, PagePolicy::Interleaved).run(&w);
            let pf = stats.prefetch;
            assert!(pf.pred_total > 0, "every demand L2 access is scored");
            assert!(pf.candidates >= pf.gated, "gated is a subset of candidates");
            assert!(
                pf.issued + pf.dropped <= pf.candidates - pf.gated,
                "issue-side filtering only ever removes candidates"
            );
            // Measured accuracy is over demand outcomes, which the
            // prefetcher itself flips on-chip as it starts covering the
            // stream — so it need not stay high, only well-defined.
            assert!(pf.pred_correct > 0, "some predictions must score");
            let acc = pf.pred_accuracy();
            assert!(acc > 0.0 && acc <= 1.0, "got {acc}");
        }

        #[test]
        fn prefetch_runs_are_deterministic() {
            let w = TraceWorkload::single(
                "t",
                vec![stream_trace(0, 1024, 256), stream_trace(7, 512, 256)],
            );
            let cfg = with_mode(PrefetchMode::Gated);
            let m = mapping(&cfg);
            let a = Simulator::new(cfg.clone(), m.clone(), PagePolicy::Interleaved).run(&w);
            let b = Simulator::new(cfg, m, PagePolicy::Interleaved).run(&w);
            assert_eq!(a, b);
        }

        #[test]
        fn shared_l2_prefetches_at_the_home_bank() {
            let mut cfg = with_mode(PrefetchMode::Stream);
            cfg.l2_mode = L2Mode::Shared;
            let m = mapping(&cfg);
            let w = TraceWorkload::single("t", vec![stream_trace(3, 2048, 256)]);
            let stats = Simulator::new(cfg, m, PagePolicy::Interleaved).run(&w);
            assert_eq!(stats.total_accesses, 2048, "all demands consumed");
            assert!(stats.prefetch.issued > 0);
        }

        #[test]
        fn a_slice_drops_candidates_past_the_inflight_cap() {
            // Four threads share node 0's slice, each streaming its own
            // region with gap 0 and 64 overlapped misses: every demand
            // joins the prefetch its predecessor issued and issues the
            // next, so the slice keeps more than the cap in flight.
            let mut cfg = with_mode(PrefetchMode::Stride);
            cfg.mlp = 64;
            let threads: Vec<ThreadTrace> = (0..4u64)
                .map(|t| {
                    ThreadTrace::new(
                        NodeId(0),
                        (0..512u64)
                            .map(|k| Access {
                                vaddr: (t << 24) + k * 256,
                                write: false,
                                gap: 0,
                                ref_id: t as u32,
                            })
                            .collect(),
                    )
                })
                .collect();
            let w = TraceWorkload::single("t", threads);
            let m = mapping(&cfg);
            let mut sim = Simulator::new(cfg, m, PagePolicy::Interleaved);
            let stats = sim.run_core(&w);
            assert_eq!(stats.total_accesses, 2048);
            assert!(stats.prefetch.dropped > 0, "{:?}", stats.prefetch);
            let pf = sim.pf.as_ref().expect("stride mode keeps prefetch state");
            assert_eq!(pf.summaries[0].dropped, stats.prefetch.dropped);
            assert!(sim.pending.is_empty() && pf.inflight.is_empty() && pf.waiters.is_empty());
            assert!(pf.inflight_count.iter().all(|&n| n == 0));
        }

        #[test]
        fn outage_drops_prefetches_without_rehoming() {
            let mut cfg = with_mode(PrefetchMode::Stride);
            cfg.faults = Some(FaultPlan {
                outages: vec![McOutage {
                    mc: 0,
                    from: 0,
                    until: u64::MAX / 2,
                }],
                ..FaultPlan::none()
            });
            let m = mapping(&cfg);
            let w = TraceWorkload::single("t", vec![stream_trace(0, 2048, 256)]);
            let stats = Simulator::new(cfg, m, PagePolicy::Interleaved).run(&w);
            // Demands re-home; prefetches aimed at the dark MC are dropped.
            assert_eq!(stats.mc[0].served + stats.mc[0].pf_served, 0);
            assert!(stats.prefetch.dropped > 0, "dark-MC candidates drop");
            assert!(stats.rehomed_requests > 0);
            let served: u64 = stats.mc.iter().map(|m| m.served).sum();
            assert_eq!(served, stats.offchip_accesses, "demands all serve");
        }
    }

    mod faults {
        use super::*;
        use hoploc_fault::{BankFault, McBankFault, RetryPolicy};

        #[test]
        fn empty_fault_plan_is_inert() {
            let cfg = small_config();
            let m = mapping(&cfg);
            let w =
                TraceWorkload::single("t", vec![seq_trace(0, 1024, 256), seq_trace(9, 512, 256)]);
            let base = Simulator::new(cfg.clone(), m.clone(), PagePolicy::Interleaved).run(&w);
            let mut fcfg = cfg;
            fcfg.faults = Some(FaultPlan::none());
            let faulted = Simulator::new(fcfg, m, PagePolicy::Interleaved).run(&w);
            assert_eq!(base, faulted, "Some(FaultPlan::none()) must equal None");
        }

        #[test]
        fn outage_rehomes_to_nearest_live_mc() {
            let mut cfg = small_config();
            cfg.faults = Some(FaultPlan {
                outages: vec![McOutage {
                    mc: 0,
                    from: 0,
                    until: u64::MAX / 2,
                }],
                ..FaultPlan::none()
            });
            let m = mapping(&cfg);
            let stats = Simulator::new(cfg, m, PagePolicy::Interleaved)
                .run(&TraceWorkload::single("t", vec![seq_trace(0, 2048, 256)]));
            assert!(
                stats.rehomed_requests > 0,
                "interleaving must hit the dark MC"
            );
            assert_eq!(stats.mc[0].served, 0, "dark controller must see no traffic");
            for row in &stats.node_mc_requests {
                assert_eq!(row[0], 0);
            }
            let served: u64 = stats.mc.iter().map(|m| m.served).sum();
            assert_eq!(
                served, stats.offchip_accesses,
                "re-homed requests all serve"
            );
            assert_eq!(stats.dropped_requests, 0);
        }

        #[test]
        fn all_dark_falls_back_to_preferred() {
            let mut cfg = small_config();
            cfg.faults = Some(FaultPlan {
                outages: (0..4)
                    .map(|mc| McOutage {
                        mc,
                        from: 0,
                        until: u64::MAX / 2,
                    })
                    .collect(),
                ..FaultPlan::none()
            });
            let m = mapping(&cfg);
            let stats = Simulator::new(cfg, m, PagePolicy::Interleaved)
                .run(&TraceWorkload::single("t", vec![seq_trace(0, 512, 256)]));
            // Nowhere to go: requests stay put, nothing is lost.
            assert_eq!(stats.rehomed_requests, 0);
            let served: u64 = stats.mc.iter().map(|m| m.served).sum();
            assert_eq!(served, stats.offchip_accesses);
        }

        #[test]
        fn capped_retries_drop_but_threads_still_finish() {
            let mut cfg = small_config();
            let banks = cfg.mc.banks as u16;
            cfg.faults = Some(FaultPlan {
                seed: 11,
                banks: (0..4u16)
                    .flat_map(|mc| {
                        (0..banks).map(move |bank| McBankFault {
                            mc,
                            fault: BankFault {
                                bank,
                                from: 0,
                                until: u64::MAX / 2,
                                stall_cycles: 0,
                                error_period: 1,
                            },
                        })
                    })
                    .collect(),
                retry: RetryPolicy {
                    base_backoff: 4,
                    max_backoff: 16,
                    max_retries: 2,
                },
                ..FaultPlan::none()
            });
            let m = mapping(&cfg);
            let stats = Simulator::new(cfg, m, PagePolicy::Interleaved)
                .run(&TraceWorkload::single("t", vec![seq_trace(0, 512, 256)]));
            // Every off-chip request fails all attempts, yet the run ends
            // with every access consumed: error replies resume threads.
            assert_eq!(stats.total_accesses, 512);
            assert!(stats.dropped_requests > 0);
            assert_eq!(stats.dropped_requests, stats.offchip_accesses);
            let dropped: u64 = stats.mc.iter().map(|m| m.dropped).sum();
            assert_eq!(dropped, stats.dropped_requests);
            let served: u64 = stats.mc.iter().map(|m| m.served).sum();
            assert_eq!(served, 0);
        }

        #[test]
        fn rehoming_leaves_page_placement_untouched() {
            // Outages are routing-time only: the OS page allocator must
            // behave identically with and without the plan installed.
            let mut cfg = small_config();
            cfg.granularity = Granularity::Page;
            let m = mapping(&cfg);
            let w = TraceWorkload::single("t", vec![seq_trace(0, 192, 4096)]);
            let base = Simulator::new(cfg.clone(), m.clone(), PagePolicy::Interleaved).run(&w);
            cfg.faults = Some(FaultPlan {
                outages: vec![McOutage {
                    mc: 1,
                    from: 0,
                    until: u64::MAX / 2,
                }],
                ..FaultPlan::none()
            });
            let faulted = Simulator::new(cfg, m, PagePolicy::Interleaved).run(&w);
            assert_eq!(faulted.os_fallbacks, base.os_fallbacks);
            assert_eq!(faulted.total_accesses, base.total_accesses);
            assert!(faulted.rehomed_requests > 0);
            assert_eq!(faulted.mc[1].served, 0);
        }

        #[test]
        #[should_panic(expected = "simulation ended with in-flight requests")]
        fn a_request_left_without_an_event_fails_the_run() {
            let cfg = small_config();
            let m = mapping(&cfg);
            let mut sim = Simulator::new(cfg, m, PagePolicy::Interleaved);
            // Manufacture a scheduling hole: a request queued behind a busy
            // bank with no McPoll scheduled for it (the `update_poll` call is
            // deliberately skipped).
            let park = |sim: &mut Simulator, token: u64| {
                sim.next_token = token + 1;
                sim.pending.insert(
                    token,
                    PendingMem {
                        kind: MemKind::Writeback,
                        slice: NodeId(0),
                        mc: 0,
                        l2_line: 0,
                    },
                );
            };
            park(&mut sim, 0);
            park(&mut sim, 1);
            let first = sim.mcs[0]
                .enqueue_class_obs(0, 0, 10, 0, false, &sim.obs)
                .to_vec();
            assert_eq!(first.len(), 1, "idle bank finalizes the first arrival");
            let second = sim.mcs[0].enqueue_class_obs(0, 1, 10, 0, false, &sim.obs);
            assert!(second.is_empty(), "busy bank must park the second arrival");
            schedule_completions(&mut sim.events, &first);
            sim.run_core(&TraceWorkload::single("t", vec![]));
        }
    }
}
