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
use crate::stats::RunStats;
use crate::trace::{Access, TraceWorkload};
use hoploc_cache::{Directory, IntMap, SetAssocCache, Sharers};
use hoploc_fault::{FaultTopo, McOutage};
use hoploc_layout::L2Mode;
use hoploc_mem::{Completion, MemoryController};
use hoploc_noc::{L2ToMcMapping, McId, Mesh, Network, NodeId, TrafficClass};
use hoploc_obs::{CacheTag, ObsConfig, ObsReport, PfEvent, Phase, ReqTag, Sink, Topology};
use hoploc_prefetch::{DemandOutcome, PrefetchSummary, SlicePrefetcher};

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
    /// In-flight prefetches per slice (bounds issue at `queue_cap`).
    inflight_count: Vec<u32>,
    /// Demands blocked on an in-flight prefetch, by token.
    waiters: IntMap<u64, Vec<Demand>>,
    summary: PrefetchSummary,
    /// Reusable candidate buffer for [`SlicePrefetcher::on_demand`].
    scratch: Vec<u64>,
}

struct ThreadState {
    node: NodeId,
    cursor: usize,
    /// The access at `cursor`, decoded from the trace once, when its issue
    /// was scheduled.
    next: Access,
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
    os: Os,
    net: Network,
    mcs: Vec<MemoryController>,
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    dir: Directory,
    // Run state.
    events: EventQueue<EventKind>,
    threads: Vec<ThreadState>,
    pending: IntMap<u64, PendingMem>,
    next_token: u64,
    mc_next_poll: Vec<Option<u64>>,
    /// Whole-controller outage windows from the installed fault plan,
    /// bucketed per controller: routing a request asks about one or two
    /// controllers, not about every window of the plan. Empty when the
    /// plan has no outages, so the re-home check is one failed lookup.
    outages: Vec<Vec<McOutage>>,
    /// Prefetch state, present only when `config.prefetch` enables a mode.
    pf: Option<PfState>,
    // Stats.
    total_accesses: u64,
    l1_hits: u64,
    l2_hits: u64,
    cache_to_cache: u64,
    offchip: u64,
    writebacks: u64,
    rehomed: u64,
    dropped: u64,
    node_mc_requests: Vec<Vec<u64>>,
    /// Observability sink: disabled unless [`Simulator::with_obs`] was
    /// called, in which case every component mirrors its events here.
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
            l1: (0..n).map(|_| SetAssocCache::new(config.l1)).collect(),
            l2: (0..n).map(|_| SetAssocCache::new(config.l2)).collect(),
            dir: Directory::with_line_bound(config.memory_bytes / config.l2.line_bytes),
            events: EventQueue::new(),
            threads: Vec::new(),
            pending: IntMap::default(),
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
                summary: PrefetchSummary::default(),
                scratch: Vec::new(),
            }),
            total_accesses: 0,
            l1_hits: 0,
            l2_hits: 0,
            cache_to_cache: 0,
            offchip: 0,
            writebacks: 0,
            rehomed: 0,
            dropped: 0,
            node_mc_requests: vec![vec![0; n_mcs]; n],
            obs: Sink::disabled(),
            cancel: Cancel::never(),
            config,
            mapping,
        }
    }

    /// Enables observability: the run records request-lifecycle spans and a
    /// metric registry into a fresh recorder, harvested by
    /// [`Simulator::run_traced`]. Recording never changes simulated timing —
    /// [`RunStats`] stay bit-identical to an untraced run.
    pub fn with_obs(mut self, options: ObsConfig) -> Self {
        let topo = Topology {
            mesh_width: self.config.mesh.width() as usize,
            mesh_height: self.config.mesh.height() as usize,
            mcs: self.config.num_mcs(),
            banks_per_mc: self.config.mc.banks,
        };
        self.obs = Sink::recording(topo, options);
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
    /// recording enabled by [`with_obs`](Self::with_obs).
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
        let report = std::mem::take(&mut self.obs)
            .into_report(stats.exec_cycles)
            .expect("invariant: the sink was checked enabled above");
        (stats, report)
    }

    fn run_core(&mut self, workload: &TraceWorkload) -> RunStats {
        assert!(
            workload.app_of_thread.len() == workload.threads.len(),
            "workload names an application for {} threads but has {}",
            workload.app_of_thread.len(),
            workload.threads.len()
        );
        for t in &workload.threads {
            assert!(
                (t.node.0 as usize) < self.config.num_nodes(),
                "trace bound to node outside the mesh"
            );
        }
        self.threads = workload
            .threads
            .iter()
            .map(|t| ThreadState {
                node: t.node,
                cursor: 0,
                next: Access::default(),
                outstanding: 0,
                blocked: false,
                finish: 0,
            })
            .collect();
        for thread in 0..workload.threads.len() {
            self.schedule_next(workload, thread, 0);
        }

        let (mut handled, mut cancelled) = (0u64, false);
        while let Some((now, kind)) = self.events.pop() {
            handled += 1;
            if handled % CANCEL_POLL_EVENTS == 0 && self.cancel.is_set() {
                cancelled = true;
                break;
            }
            match kind {
                EventKind::Issue { thread } => self.handle_issue(workload, thread, now),
                EventKind::MissReturn { thread } => self.miss_return(workload, thread, now),
                EventKind::MemDone { token, dropped } => {
                    self.handle_mem_done(workload, token, now, dropped)
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
            total_accesses: self.total_accesses,
            l1_hits: self.l1_hits,
            l2_hits: self.l2_hits,
            cache_to_cache: self.cache_to_cache,
            offchip_accesses: self.offchip,
            writebacks: self.writebacks,
            net: self.net.stats().clone(),
            mc: self.mcs.iter().map(|m| *m.stats()).collect(),
            node_mc_requests: std::mem::take(&mut self.node_mc_requests),
            app_finish,
            os_fallbacks: self.os.fallback_allocations,
            link_utilization,
            rehomed_requests: self.rehomed,
            dropped_requests: self.dropped,
            backstop_flushes: 0,
            prefetch: self.pf.as_ref().map(|p| p.summary).unwrap_or_default(),
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
                self.rehomed += 1;
                self.obs.rehome(now, preferred as u16, m as u16);
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

    fn handle_issue(&mut self, workload: &TraceWorkload, thread: usize, now: u64) {
        let node = self.threads[thread].node;
        let access = self.threads[thread].next;
        debug_assert_eq!(
            workload.threads[thread].get(self.threads[thread].cursor),
            Some(access),
            "an issue is only scheduled by `schedule_next`, for the access at the cursor"
        );
        self.total_accesses += 1;

        let paddr = self.os.translate(access.vaddr, node, &self.mapping);
        let t1 = now + self.config.l1_latency;
        let l1_line = paddr / self.config.l1.line_bytes;
        self.obs.access(now, node.0);
        if self.l1[node.0 as usize]
            .access_rw_obs(l1_line, access.write, t1, CacheTag::l1(node.0), &self.obs)
            .hit
        {
            self.l1_hits += 1;
            self.after_access(workload, thread, t1, false);
            return;
        }
        // An L1 miss opens a request lifecycle; the span closes when the
        // data returns (or is dropped again on an L2 hit).
        let req = self.obs.begin_req(t1, node.0);
        self.l2_access(workload, thread, access, paddr, t1, req);
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
        workload: &TraceWorkload,
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
        let res =
            self.l2[s].access_rw_obs(l2_line, access.write, now, CacheTag::l2(slice.0), &self.obs);
        self.pf_demand_result(slice, res.prefetched_hit, res.evicted_prefetched);
        let outcome = 'served: {
            if res.hit {
                self.l2_hits += 1;
                self.obs.req_l2_hit(req, now);
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
                self.mapping.nearest_mc(slice).0 as usize
            } else {
                self.mc_of_paddr(paddr)
            };
            let mc = self.live_mc(mc, slice, now);
            let mc_node = self.mc_node(mc);
            if private {
                let sharers = self.dir.lookup_obs(l2_line, s, now, &self.obs);
                if let Some(owner) = nearest_sharer(&self.config.mesh, node, sharers) {
                    // On-chip fulfilment: requester → directory → owner →
                    // requester.
                    self.cache_to_cache += 1;
                    self.obs.c2c(req, now, node.0);
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
            self.offchip += 1;
            self.node_mc_requests[s][mc] += 1;
            self.obs.offchip(req, now, slice.0, mc as u16);
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
        self.after_access(workload, thread, resume, !(res.hit && private));
    }

    /// A dirty line evicted from `slice` travels to memory: a data message
    /// plus a DRAM write, neither of which blocks a thread. An outage
    /// re-homes the write; the directory slice stays put.
    fn write_back(&mut self, slice: NodeId, line: u64, mc: usize, now: u64) {
        let mc = self.live_mc(mc, slice, now);
        self.writebacks += 1;
        self.obs.writeback(now, slice.0, mc as u16);
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
    fn complete(&mut self, workload: &TraceWorkload, who: Demand, now: u64, dropped: bool) {
        if dropped {
            self.obs.drop_req(who.req, now);
        } else {
            self.obs.retire(who.req, now);
        }
        self.miss_return(workload, who.thread, now);
    }

    /// A demand L2 access resolved against (possibly) prefetched state:
    /// a hit on an untouched prefetched line is *useful*, the eviction of
    /// one is *harmful* (pollution). Both feed the accuracy throttle.
    fn pf_demand_result(&mut self, slice: NodeId, useful: bool, harmful: bool) {
        if !(useful || harmful) {
            return;
        }
        let Some(pf) = self.pf.as_mut() else { return };
        let s = &mut pf.slices[slice.0 as usize];
        if useful {
            pf.summary.useful += 1;
            s.resolve(true);
        }
        if harmful {
            pf.summary.harmful += 1;
            s.resolve(false);
        }
        if useful {
            self.obs.prefetch(PfEvent::Useful, slice.0, 1);
        }
        if harmful {
            self.obs.prefetch(PfEvent::Harmful, slice.0, 1);
        }
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
        pf.summary.late += 1;
        pf.slices[slice.0 as usize].resolve(true);
        pf.waiters.entry(token).or_default().push(who);
        self.obs.prefetch(PfEvent::Late, slice.0, 1);
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
        let before = pf.summary;
        pf.scratch.clear();
        pf.slices[slice.0 as usize].on_demand(
            ref_id,
            l2_line,
            outcome,
            &mut pf.summary,
            &mut pf.scratch,
        );
        for i in 0..pf.scratch.len() {
            let line = pf.scratch[i];
            self.pf_try_issue(&mut pf, slice, line, now);
        }
        let after = pf.summary;
        self.pf = Some(pf);
        self.pf_obs_diff(slice.0, before, after);
    }

    /// Issues one candidate line from `slice` unless the issue-side
    /// filters reject it.
    fn pf_try_issue(&mut self, pf: &mut PfState, slice: NodeId, line: u64, now: u64) {
        let node = slice.0 as usize;
        // Already resident or already being fetched: the engine's work is
        // simply done (not a drop — nothing was lost).
        if self.l2[node].contains(line) || pf.inflight.contains_key(&(slice.0, line)) {
            return;
        }
        if pf.inflight_count[node] as usize >= self.config.prefetch.queue_cap {
            pf.summary.dropped += 1;
            return;
        }
        let paddr = line * self.config.l2.line_bytes;
        let mc = self.mc_of_paddr(paddr);
        // Prefetches never re-home: a speculative fetch is not worth a
        // detour, so a dark controller just swallows it.
        if self.mc_dark(mc, now) {
            pf.summary.dropped += 1;
            return;
        }
        pf.summary.issued += 1;
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

    /// Mirrors summary deltas from one trigger into the obs families, so
    /// the `pf.*` counters match `RunStats::prefetch` by construction.
    fn pf_obs_diff(&mut self, node: u16, before: PrefetchSummary, after: PrefetchSummary) {
        let o = &self.obs;
        o.prefetch(
            PfEvent::Candidates,
            node,
            after.candidates - before.candidates,
        );
        o.prefetch(PfEvent::Gated, node, after.gated - before.gated);
        o.prefetch(PfEvent::Issued, node, after.issued - before.issued);
        o.prefetch(PfEvent::Dropped, node, after.dropped - before.dropped);
        o.prefetch(
            PfEvent::PredCorrect,
            node,
            after.pred_correct - before.pred_correct,
        );
        o.prefetch(
            PfEvent::PredTotal,
            node,
            after.pred_total - before.pred_total,
        );
    }

    /// A prefetch's memory round trip finished: install the line (a no-op
    /// if a racing demand already owns it), resume late-joined demands,
    /// and on a transient-error drop let those demands fail exactly like
    /// a dropped demand request.
    fn finish_prefetch(
        &mut self,
        workload: &TraceWorkload,
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
            pf.summary.dropped += 1;
            self.pf = Some(pf);
            self.obs.prefetch(PfEvent::Dropped, slice.0, 1);
            // Waiting demands resume on a control-sized error reply along
            // the normal response path; the line is not installed.
            for w in waiters {
                let at = self.reply(ctx.mc, slice, w.final_dst, true, now, w.req);
                self.complete(workload, w, at, true);
            }
            return;
        }
        // Data travels MC → slice; the install marks the line prefetched
        // so a later demand hit counts as useful.
        let t1 = self.reply(ctx.mc, slice, None, false, now, ReqTag::NONE);
        let res = self.l2[node].install_prefetch(ctx.l2_line);
        if res.evicted_prefetched {
            pf.summary.harmful += 1;
            pf.slices[node].resolve(false);
        }
        self.pf = Some(pf);
        if res.evicted_prefetched {
            self.obs.prefetch(PfEvent::Harmful, slice.0, 1);
        }
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
            self.complete(workload, w, at, false);
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

    fn handle_mem_done(&mut self, workload: &TraceWorkload, token: u64, now: u64, dropped: bool) {
        let ctx = self
            .pending
            .remove(&token)
            .expect("completion for unknown token");
        match ctx.kind {
            MemKind::Prefetch => self.finish_prefetch(workload, ctx, token, now, dropped),
            // The line is in DRAM; nothing waits on it. A dropped
            // writeback simply never lands.
            MemKind::Writeback => self.dropped += u64::from(dropped),
            MemKind::Demand(who) => {
                if dropped {
                    // Retry cap exhausted: the controller abandons the
                    // request and a control-sized error reply walks the
                    // normal response path, so the waiting thread still
                    // resumes. The line is NOT installed and no sharer is
                    // recorded — a later touch misses again and re-fetches.
                    self.dropped += 1;
                } else if self.config.l2_mode == L2Mode::Private {
                    // The requester's L2 now holds the line.
                    self.dir.add_sharer(ctx.l2_line, ctx.slice.0 as usize);
                }
                let at = self.reply(ctx.mc, ctx.slice, who.final_dst, dropped, now, who.req);
                self.complete(workload, who, at, dropped);
            }
        }
    }

    /// The thread consumed one access at `now`. Misses occupy an MSHR; the
    /// thread proceeds to its next access unless all MSHRs are busy.
    fn after_access(&mut self, workload: &TraceWorkload, thread: usize, now: u64, miss: bool) {
        let mlp = self.config.mlp.max(1);
        {
            let st = &mut self.threads[thread];
            st.cursor += 1;
            st.finish = st.finish.max(now);
            if miss {
                st.outstanding += 1;
            }
            if st.outstanding >= mlp {
                st.blocked = true;
                return;
            }
        }
        self.schedule_next(workload, thread, now);
    }

    /// An outstanding miss returned at `now`.
    fn miss_return(&mut self, workload: &TraceWorkload, thread: usize, now: u64) {
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
            self.schedule_next(workload, thread, now);
        }
    }

    /// Schedules the thread's next access (if any) after `now`.
    fn schedule_next(&mut self, workload: &TraceWorkload, thread: usize, now: u64) {
        let cursor = self.threads[thread].cursor;
        if let Some(next) = workload.threads[thread].get(cursor) {
            self.threads[thread].next = next;
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

/// The sharer fewest hops from `node`, the lowest node id among equals:
/// the L2 the directory forwards a private-L2 miss to.
fn nearest_sharer(mesh: &Mesh, node: NodeId, sharers: Sharers) -> Option<NodeId> {
    // `min_by_key` keeps the first of equal minima, and the mask iterates
    // in ascending node order.
    sharers
        .iter()
        .map(|s| NodeId(s as u16))
        .min_by_key(|&s| mesh.hop_distance(node, s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Access, ThreadTrace};
    use hoploc_layout::Granularity;
    use hoploc_noc::McPlacement;

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
        // What the directory's `Vec<usize>` and `min_by_key` used to pick.
        let mesh = hoploc_noc::Mesh::new(8, 8);
        hoploc_ptest::run_cases("nearest_sharer", 256, |rng| {
            let mut dir = Directory::new();
            let mut holders = Vec::new();
            // From empty to full masks, so ties are common.
            let density = rng.u64_below(65);
            for n in 0..64usize {
                if rng.u64_below(64) < density {
                    dir.add_sharer(7, n);
                    holders.push(n);
                }
            }
            let node = NodeId(rng.u64_below(64) as u16);
            let want = holders
                .iter()
                .filter(|&&n| n != node.0 as usize)
                .min_by_key(|&&n| mesh.hop_distance(node, NodeId(n as u16)))
                .map(|&n| NodeId(n as u16));
            let sharers = dir.lookup(7, node.0 as usize);
            assert_eq!(nearest_sharer(&mesh, node, sharers), want);
        });
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

    /// Asserts the observability mirror matches `RunStats` exactly: same
    /// timing, same counters, full hop histograms, per-MC aggregates.
    fn assert_obs_parity(stats: &RunStats, rep: &hoploc_obs::ObsReport) {
        assert_eq!(rep.counter("sim.accesses"), stats.total_accesses);
        assert_eq!(rep.offchip(), stats.offchip_accesses);
        assert_eq!(rep.counter("sim.cache_to_cache"), stats.cache_to_cache);
        assert_eq!(rep.counter("sim.writebacks"), stats.writebacks);
        assert_eq!(
            rep.counter_family("cache.l1.hits").iter().sum::<u64>(),
            stats.l1_hits
        );
        for class in [TrafficClass::OnChip, TrafficClass::OffChip] {
            let (name, cs) = match class {
                TrafficClass::OnChip => ("onchip", &stats.net.on_chip),
                TrafficClass::OffChip => ("offchip", &stats.net.off_chip),
            };
            assert_eq!(rep.counter(&format!("net.{name}.msgs")), cs.messages);
            assert_eq!(
                rep.counter(&format!("net.{name}.latency_cycles")),
                cs.total_latency
            );
            assert_eq!(rep.counter(&format!("net.{name}.hops")), cs.total_hops);
            let hist = rep.hop_histogram(name);
            for (h, &n) in cs.hop_histogram.iter().enumerate() {
                assert_eq!(hist[h.min(hist.len() - 1)], n, "hop bucket {h}");
            }
        }
        let served: Vec<u64> = stats.mc.iter().map(|m| m.served).collect();
        assert_eq!(rep.counter_family("mc.served"), &served[..]);
        let row_hits: Vec<u64> = stats.mc.iter().map(|m| m.row_hits).collect();
        assert_eq!(rep.counter_family("mc.row_hits"), &row_hits[..]);
        let queue: Vec<u64> = stats.mc.iter().map(|m| m.total_queue_cycles).collect();
        assert_eq!(rep.counter_family("mc.queue_cycles"), &queue[..]);
        let node_mc: Vec<u64> = stats.node_mc_requests.concat();
        assert_eq!(rep.counter_family("sim.node_mc_requests"), &node_mc[..]);
    }

    #[test]
    fn traced_run_matches_untraced_private() {
        let cfg = small_config();
        let m = mapping(&cfg);
        let w = TraceWorkload::single("t", vec![seq_trace(0, 1024, 256), seq_trace(9, 512, 256)]);
        let base = Simulator::new(cfg.clone(), m.clone(), PagePolicy::Interleaved).run(&w);
        let (stats, rep) = Simulator::new(cfg, m, PagePolicy::Interleaved)
            .with_obs(hoploc_obs::ObsConfig::default())
            .run_traced(&w);
        assert_eq!(stats.exec_cycles, base.exec_cycles);
        assert_eq!(stats.offchip_accesses, base.offchip_accesses);
        assert_eq!(
            stats.net.off_chip.total_latency,
            base.net.off_chip.total_latency
        );
        assert_obs_parity(&stats, &rep);
        // Every off-chip request leaves a closed span trail.
        assert!(rep
            .events()
            .iter()
            .any(|e| e.name == hoploc_obs::EvName::Offchip));
    }

    #[test]
    fn traced_run_matches_untraced_shared() {
        let mut cfg = small_config();
        cfg.l2_mode = L2Mode::Shared;
        let m = mapping(&cfg);
        let w = TraceWorkload::single("t", vec![seq_trace(3, 1024, 256)]);
        let base = Simulator::new(cfg.clone(), m.clone(), PagePolicy::Interleaved).run(&w);
        let (stats, rep) = Simulator::new(cfg, m, PagePolicy::Interleaved)
            .with_obs(hoploc_obs::ObsConfig::default())
            .run_traced(&w);
        assert_eq!(stats.exec_cycles, base.exec_cycles);
        assert_obs_parity(&stats, &rep);
    }

    #[test]
    fn counter_only_tracing_matches_spans_on() {
        let cfg = small_config();
        let m = mapping(&cfg);
        let w = TraceWorkload::single("t", vec![seq_trace(0, 768, 256)]);
        let (s1, full) = Simulator::new(cfg.clone(), m.clone(), PagePolicy::Interleaved)
            .with_obs(hoploc_obs::ObsConfig::default())
            .run_traced(&w);
        let (s2, lean) = Simulator::new(cfg, m, PagePolicy::Interleaved)
            .with_obs(hoploc_obs::ObsConfig {
                record_spans: false,
                ..hoploc_obs::ObsConfig::default()
            })
            .run_traced(&w);
        assert_eq!(s1.exec_cycles, s2.exec_cycles);
        assert_eq!(full.offchip(), lean.offchip());
        assert!(lean.events().is_empty());
        // Counters are independent of span recording.
        for name in [
            "sim.accesses",
            "sim.offchip",
            "net.onchip.msgs",
            "net.offchip.msgs",
            "net.link.flit_cycles",
            "net.link.wait_cycles",
            "mc.served",
            "mc.row_hits",
            "mc.bank.queue_cycles",
        ] {
            assert_eq!(
                full.counter_family(name),
                lean.counter_family(name),
                "{name}"
            );
        }
    }

    mod prefetch {
        use super::*;
        use hoploc_fault::{FaultPlan, McOutage};
        use hoploc_prefetch::{PrefetchConfig, PrefetchMode};

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
        fn off_mode_is_bit_identical_regardless_of_geometry() {
            // With the mode Off, every other prefetch knob must be inert:
            // the runs compare equal field-for-field (incl. f64s).
            let w = TraceWorkload::single("t", vec![seq_trace(0, 1024, 256)]);
            let cfg = small_config();
            let m = mapping(&cfg);
            let base = Simulator::new(cfg.clone(), m.clone(), PagePolicy::Interleaved).run(&w);
            let mut off = cfg;
            off.prefetch.degree = 16;
            off.prefetch.queue_cap = 1;
            let again = Simulator::new(off, m, PagePolicy::Interleaved).run(&w);
            assert_eq!(base, again);
            assert!(again.prefetch.is_empty());
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
        fn traced_prefetch_run_mirrors_summary_and_timing() {
            let w = TraceWorkload::single("t", vec![stream_trace(0, 1024, 256)]);
            let cfg = with_mode(PrefetchMode::Gated);
            let m = mapping(&cfg);
            let base = Simulator::new(cfg.clone(), m.clone(), PagePolicy::Interleaved).run(&w);
            let (stats, rep) = Simulator::new(cfg, m, PagePolicy::Interleaved)
                .with_obs(hoploc_obs::ObsConfig {
                    prefetch: true,
                    ..hoploc_obs::ObsConfig::default()
                })
                .run_traced(&w);
            assert_eq!(stats, base, "recording must not perturb timing");
            let pf = stats.prefetch;
            for (name, want) in [
                ("pf.candidates", pf.candidates),
                ("pf.gated", pf.gated),
                ("pf.issued", pf.issued),
                ("pf.useful", pf.useful),
                ("pf.late", pf.late),
                ("pf.harmful", pf.harmful),
                ("pf.dropped", pf.dropped),
                ("pf.pred.correct", pf.pred_correct),
                ("pf.pred.total", pf.pred_total),
            ] {
                assert_eq!(rep.counter_family(name).iter().sum::<u64>(), want, "{name}");
            }
            assert_obs_parity(&stats, &rep);
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
        use hoploc_fault::{BankFault, FaultPlan, FaultRates, McBankFault, McOutage, RetryPolicy};

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
        fn traced_faulted_run_matches_untraced() {
            let topo = hoploc_fault::FaultTopo {
                links: 16 * 4,
                mcs: 4,
                banks_per_mc: 8,
            };
            let mut cfg = small_config();
            cfg.faults = Some(FaultPlan::from_seed(
                3,
                &topo,
                &FaultRates::moderate().with_horizon(1 << 16),
            ));
            let m = mapping(&cfg);
            let w = TraceWorkload::single("t", vec![seq_trace(0, 1024, 256)]);
            let base = Simulator::new(cfg.clone(), m.clone(), PagePolicy::Interleaved).run(&w);
            let (stats, rep) = Simulator::new(cfg, m, PagePolicy::Interleaved)
                .with_obs(hoploc_obs::ObsConfig::default())
                .run_traced(&w);
            assert_eq!(stats, base, "recording must not perturb faulted timing");
            let retries: u64 = stats.mc.iter().map(|m| m.retries).sum();
            assert_eq!(
                rep.counter_family("fault.mc.retries").iter().sum::<u64>(),
                retries
            );
            let dropped: u64 = stats.mc.iter().map(|m| m.dropped).sum();
            assert_eq!(
                rep.counter_family("fault.mc.dropped").iter().sum::<u64>(),
                dropped
            );
            assert_eq!(
                rep.counter_family("fault.rehomed").iter().sum::<u64>(),
                stats.rehomed_requests
            );
            assert_eq!(rep.counter("fault.link.hops"), stats.net.fault_hops);
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
