//! The recording sink handed to instrumented components.
//!
//! A [`Sink`] is either *disabled* — every record call is a single branch on
//! a `None`, no allocation, no wall clock — or it wraps a shared [`Recorder`]
//! that owns the metric registry and span buffer for one simulation run.
//! Components never store a sink; the simulator owns it and passes `&Sink`
//! into the `_obs` method variants, so the untraced code paths compile to the
//! exact same work as before the observability layer existed.

use crate::event::{CacheLevel, CacheTag, EvName, NetClass, Phase, ReqTag, SpanEvent, Track};
use crate::registry::{CounterId, GaugeId, HistId, Registry, SeriesId, WindowMode};
use crate::report::ObsReport;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Static shape of the machine being observed, used to size metric families
/// and name exporter tracks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Topology {
    /// Mesh width in nodes.
    pub mesh_width: usize,
    /// Mesh height in nodes.
    pub mesh_height: usize,
    /// Number of memory controllers.
    pub mcs: usize,
    /// DRAM banks per controller.
    pub banks_per_mc: usize,
}

impl Topology {
    /// Total node count.
    pub fn nodes(&self) -> usize {
        self.mesh_width * self.mesh_height
    }

    /// Directed link count (`nodes * 4`; E, W, N, S per node).
    pub fn links(&self) -> usize {
        self.nodes() * 4
    }
}

/// Recording options.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ObsConfig {
    /// Record span events (the Chrome-trace payload). Counters, histograms,
    /// and windows are always recorded by an enabled sink.
    pub record_spans: bool,
    /// Epoch width for windowed series, in sim cycles.
    pub epoch_cycles: u64,
    /// Maximum number of requests that get spans; `0` means unlimited.
    /// Requests beyond the cap are still fully counted — only their spans
    /// are dropped, and the drop count is reported in the snapshot.
    pub span_capacity: u64,
    /// Register the prefetch metric families (`pf.*`). Unlike the fault
    /// families — which exist unconditionally — these are opt-in: a run
    /// with prefetching off must serialize a metrics snapshot
    /// byte-identical to a build that predates the prefetch subsystem,
    /// so the families only exist when the prefetcher does.
    pub prefetch: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            record_spans: true,
            epoch_cycles: 8192,
            span_capacity: 0,
            prefetch: false,
        }
    }
}

/// One prefetch-pipeline counter event, mirrored from the simulator's
/// `PrefetchSummary` accounting so the obs families match it by
/// construction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PfEvent {
    /// Candidate lines the engines produced.
    Candidates,
    /// Candidates the off-chip predictor filtered out.
    Gated,
    /// Prefetch requests sent toward a memory controller.
    Issued,
    /// Prefetched lines later hit by a demand access.
    Useful,
    /// Demand misses that joined an in-flight prefetch.
    Late,
    /// Prefetched lines evicted untouched.
    Harmful,
    /// Prefetches dropped (queue full, dark MC, transient error).
    Dropped,
    /// Off-chip predictions that matched the demand outcome.
    PredCorrect,
    /// Demand accesses the predictor scored.
    PredTotal,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ReqKind {
    /// Began (L1 miss), destination not yet known.
    Pending,
    /// Resolved to a cache-to-cache transfer.
    CacheToCache,
    /// Resolved to an off-chip (MC) access.
    Offchip,
}

#[derive(Clone, Copy, Debug)]
struct InFlight {
    node: u16,
    start: u64,
    kind: ReqKind,
}

/// Every metric handle the recorder uses, registered once at construction.
#[derive(Clone, Copy, Debug)]
struct Ids {
    accesses: CounterId,
    c2c: CounterId,
    offchip: CounterId,
    writebacks: CounterId,
    node_mc: CounterId,
    dir_forwards: CounterId,
    dir_misses: CounterId,
    l1_accesses: CounterId,
    l1_hits: CounterId,
    l2_accesses: CounterId,
    l2_hits: CounterId,
    l2_evictions: CounterId,
    l2_evictions_dirty: CounterId,
    net_msgs: [CounterId; 2],
    net_latency: [CounterId; 2],
    net_hops: [CounterId; 2],
    net_hop_hist: [CounterId; 2],
    link_flit_cycles: CounterId,
    link_wait_cycles: CounterId,
    mc_served: CounterId,
    mc_row_hits: CounterId,
    mc_queue_cycles: CounterId,
    mc_service_cycles: CounterId,
    bank_served: CounterId,
    bank_queue_cycles: CounterId,
    bank_busy_cycles: CounterId,
    mc_queue_depth: GaugeId,
    h_offchip: HistId,
    h_c2c: HistId,
    h_mc_queue: HistId,
    h_mc_service: HistId,
    h_net: [HistId; 2],
    win_accesses: SeriesId,
    win_offchip: SeriesId,
    win_row_hits: SeriesId,
    win_row_misses: SeriesId,
    win_net_msgs: [SeriesId; 2],
    win_queue_peak: SeriesId,
    // Fault-injection families. Registered unconditionally (after every
    // pre-existing family, preserving their serialization order) so a
    // zero-fault plan's metrics snapshot is byte-identical to an unfaulted
    // run's: both serialize the same families, all zero.
    fault_link_hops: CounterId,
    fault_link_cycles: CounterId,
    fault_bank_stalls: CounterId,
    fault_bank_stall_cycles: CounterId,
    fault_retries: CounterId,
    fault_dropped: CounterId,
    fault_rehomed: CounterId,
    h_dropped: HistId,
    win_faults: SeriesId,
    // Prefetch families. Unlike the fault families these register only
    // when [`ObsConfig::prefetch`] is set, so prefetch-off snapshots stay
    // byte-identical to builds that predate the subsystem.
    pf: Option<PfIds>,
}

/// Per-node prefetch-pipeline counters, mirroring `PrefetchSummary`.
#[derive(Clone, Copy, Debug)]
struct PfIds {
    candidates: CounterId,
    gated: CounterId,
    issued: CounterId,
    useful: CounterId,
    late: CounterId,
    harmful: CounterId,
    dropped: CounterId,
    pred_correct: CounterId,
    pred_total: CounterId,
}

/// Mutable recording state for one simulation run.
#[derive(Debug)]
pub struct Recorder {
    topo: Topology,
    config: ObsConfig,
    reg: Registry,
    ids: Ids,
    events: Vec<SpanEvent>,
    inflight: HashMap<u64, InFlight>,
    token_req: HashMap<u64, u64>,
    next_req: u64,
    spans_started: u64,
    dropped_spans: u64,
}

fn class_idx(class: NetClass) -> usize {
    match class {
        NetClass::OnChip => 0,
        NetClass::OffChip => 1,
    }
}

/// Hop-histogram width, matching the NoC's clamp (`hops.min(31)`).
pub const HOP_HIST_LEN: usize = 32;

impl Recorder {
    /// Fresh recorder for a machine of the given shape.
    pub fn new(topo: Topology, config: ObsConfig) -> Self {
        let mut reg = Registry::new();
        let nodes = topo.nodes();
        let e = config.epoch_cycles;
        let ids = Ids {
            accesses: reg.counter("sim.accesses", 1),
            c2c: reg.counter("sim.cache_to_cache", 1),
            offchip: reg.counter("sim.offchip", 1),
            writebacks: reg.counter("sim.writebacks", 1),
            node_mc: reg.counter("sim.node_mc_requests", nodes * topo.mcs),
            dir_forwards: reg.counter("dir.forwards", 1),
            dir_misses: reg.counter("dir.misses", 1),
            l1_accesses: reg.counter("cache.l1.accesses", nodes),
            l1_hits: reg.counter("cache.l1.hits", nodes),
            l2_accesses: reg.counter("cache.l2.accesses", nodes),
            l2_hits: reg.counter("cache.l2.hits", nodes),
            l2_evictions: reg.counter("cache.l2.evictions", nodes),
            l2_evictions_dirty: reg.counter("cache.l2.evictions_dirty", nodes),
            net_msgs: [
                reg.counter("net.onchip.msgs", 1),
                reg.counter("net.offchip.msgs", 1),
            ],
            net_latency: [
                reg.counter("net.onchip.latency_cycles", 1),
                reg.counter("net.offchip.latency_cycles", 1),
            ],
            net_hops: [
                reg.counter("net.onchip.hops", 1),
                reg.counter("net.offchip.hops", 1),
            ],
            net_hop_hist: [
                reg.counter("net.onchip.hop_hist", HOP_HIST_LEN),
                reg.counter("net.offchip.hop_hist", HOP_HIST_LEN),
            ],
            link_flit_cycles: reg.counter("net.link.flit_cycles", topo.links()),
            link_wait_cycles: reg.counter("net.link.wait_cycles", topo.links()),
            mc_served: reg.counter("mc.served", topo.mcs),
            mc_row_hits: reg.counter("mc.row_hits", topo.mcs),
            mc_queue_cycles: reg.counter("mc.queue_cycles", topo.mcs),
            mc_service_cycles: reg.counter("mc.service_cycles", topo.mcs),
            bank_served: reg.counter("mc.bank.served", topo.mcs * topo.banks_per_mc),
            bank_queue_cycles: reg.counter("mc.bank.queue_cycles", topo.mcs * topo.banks_per_mc),
            bank_busy_cycles: reg.counter("mc.bank.busy_cycles", topo.mcs * topo.banks_per_mc),
            mc_queue_depth: reg.gauge("mc.queue_depth", topo.mcs),
            h_offchip: reg.hist("req.offchip_cycles"),
            h_c2c: reg.hist("req.c2c_cycles"),
            h_mc_queue: reg.hist("mc.queue_wait_cycles"),
            h_mc_service: reg.hist("mc.service_cycles"),
            h_net: [
                reg.hist("net.onchip_cycles"),
                reg.hist("net.offchip_cycles"),
            ],
            win_accesses: reg.series("win.accesses", e, WindowMode::Add),
            win_offchip: reg.series("win.offchip", e, WindowMode::Add),
            win_row_hits: reg.series("win.row_hits", e, WindowMode::Add),
            win_row_misses: reg.series("win.row_misses", e, WindowMode::Add),
            win_net_msgs: [
                reg.series("win.onchip_msgs", e, WindowMode::Add),
                reg.series("win.offchip_msgs", e, WindowMode::Add),
            ],
            win_queue_peak: reg.series("win.mc_queue_depth_peak", e, WindowMode::Max),
            fault_link_hops: reg.counter("fault.link.hops", 1),
            fault_link_cycles: reg.counter("fault.link.extra_cycles", topo.links()),
            fault_bank_stalls: reg.counter("fault.bank.stalls", topo.mcs),
            fault_bank_stall_cycles: reg.counter("fault.bank.stall_cycles", topo.mcs),
            fault_retries: reg.counter("fault.mc.retries", topo.mcs),
            fault_dropped: reg.counter("fault.mc.dropped", topo.mcs),
            fault_rehomed: reg.counter("fault.rehomed", topo.mcs),
            h_dropped: reg.hist("req.dropped_cycles"),
            win_faults: reg.series("win.fault_events", e, WindowMode::Add),
            pf: config.prefetch.then(|| PfIds {
                candidates: reg.counter("pf.candidates", nodes),
                gated: reg.counter("pf.gated", nodes),
                issued: reg.counter("pf.issued", nodes),
                useful: reg.counter("pf.useful", nodes),
                late: reg.counter("pf.late", nodes),
                harmful: reg.counter("pf.harmful", nodes),
                dropped: reg.counter("pf.dropped", nodes),
                pred_correct: reg.counter("pf.pred.correct", nodes),
                pred_total: reg.counter("pf.pred.total", nodes),
            }),
        };
        Recorder {
            topo,
            config,
            reg,
            ids,
            events: Vec::new(),
            inflight: HashMap::new(),
            token_req: HashMap::new(),
            next_req: 0,
            spans_started: 0,
            dropped_spans: 0,
        }
    }

    fn push_event(&mut self, ev: SpanEvent) {
        if self.config.record_spans {
            self.events.push(ev);
        }
    }

    fn into_report(self, exec_cycles: u64) -> ObsReport {
        ObsReport::from_parts(
            self.topo,
            self.config,
            exec_cycles,
            self.reg,
            self.events,
            self.dropped_spans,
        )
    }
}

/// Handle passed into instrumented components: either disabled (free) or a
/// shared reference to the run's [`Recorder`].
#[derive(Clone, Debug, Default)]
pub struct Sink {
    rec: Option<Rc<RefCell<Recorder>>>,
}

impl Sink {
    /// A sink that records nothing. Every call is one branch on `None`,
    /// inlined at the call site.
    pub fn disabled() -> Sink {
        Sink { rec: None }
    }

    /// A sink recording into a fresh [`Recorder`].
    pub fn recording(topo: Topology, config: ObsConfig) -> Sink {
        Sink {
            rec: Some(Rc::new(RefCell::new(Recorder::new(topo, config)))),
        }
    }

    /// Whether this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// Every record point is `#[inline]` and funnels through here, so in
    /// the instrumented crates a disabled sink costs this one branch;
    /// the recording body stays behind a call.
    #[inline(always)]
    fn with<R: Default>(&self, f: impl FnOnce(&mut Recorder) -> R) -> R {
        match &self.rec {
            None => R::default(),
            Some(rc) => Self::record(rc, f),
        }
    }

    #[inline(never)]
    fn record<R>(rc: &RefCell<Recorder>, f: impl FnOnce(&mut Recorder) -> R) -> R {
        f(&mut rc.borrow_mut())
    }

    /// Consume the sink and freeze its recording. Returns `None` for a
    /// disabled sink.
    ///
    /// # Panics
    ///
    /// Panics if other clones of the sink are still alive; the owner must be
    /// the last holder when the run finishes.
    pub fn into_report(self, exec_cycles: u64) -> Option<ObsReport> {
        let rc = self.rec?;
        let rec = Rc::try_unwrap(rc)
            .expect("invariant: the simulator holds the only sink at report time")
            .into_inner();
        Some(rec.into_report(exec_cycles))
    }

    // ---- sim-level records -------------------------------------------------

    /// One memory access issued by `node` at `ts`.
    #[inline]
    pub fn access(&self, ts: u64, node: u16) {
        let _ = node;
        self.with(|r| {
            r.reg.inc(r.ids.accesses, 0, 1);
            r.reg.sample(r.ids.win_accesses, ts, 1);
        });
    }

    /// An L1 miss at `node` starts a request lifecycle; returns its tag.
    #[inline]
    pub fn begin_req(&self, ts: u64, node: u16) -> ReqTag {
        self.with(|r| {
            let id = r.next_req;
            r.next_req += 1;
            if r.config.record_spans {
                if r.config.span_capacity > 0 && r.spans_started >= r.config.span_capacity {
                    r.dropped_spans += 1;
                } else {
                    r.spans_started += 1;
                }
            }
            r.inflight.insert(
                id,
                InFlight {
                    node,
                    start: ts,
                    kind: ReqKind::Pending,
                },
            );
            ReqTag {
                id,
                phase: Phase::Request,
            }
        })
    }

    fn span_allowed(r: &Recorder, tag: ReqTag) -> bool {
        // Requests past the span capacity keep counting but draw no events.
        r.config.record_spans
            && tag.is_some()
            && (r.config.span_capacity == 0 || tag.id < r.config.span_capacity)
    }

    /// The request was satisfied by an L2 (local or home) hit; no span is
    /// drawn for it.
    #[inline]
    pub fn req_l2_hit(&self, tag: ReqTag, ts: u64) {
        let _ = ts;
        if !tag.is_some() {
            return;
        }
        self.with(|r| {
            r.inflight.remove(&tag.id);
        });
    }

    /// The request resolved to a cache-to-cache transfer.
    #[inline]
    pub fn c2c(&self, tag: ReqTag, ts: u64, node: u16) {
        let _ = (ts, node);
        self.with(|r| {
            r.reg.inc(r.ids.c2c, 0, 1);
            if let Some(f) = r.inflight.get_mut(&tag.id) {
                f.kind = ReqKind::CacheToCache;
            }
        });
    }

    /// The request resolved to an off-chip access bound for `mc`, accounted
    /// to `node` (the requester in private mode, the home slice in shared
    /// mode — mirroring `RunStats::node_mc_requests`).
    #[inline]
    pub fn offchip(&self, tag: ReqTag, ts: u64, node: u16, mc: u16) {
        self.with(|r| {
            r.reg.inc(r.ids.offchip, 0, 1);
            let idx = node as usize * r.topo.mcs + mc as usize;
            r.reg.inc(r.ids.node_mc, idx, 1);
            r.reg.sample(r.ids.win_offchip, ts, 1);
            if let Some(f) = r.inflight.get_mut(&tag.id) {
                f.kind = ReqKind::Offchip;
            }
        });
    }

    /// A dirty L2 eviction was written back toward `mc`.
    #[inline]
    pub fn writeback(&self, ts: u64, node: u16, mc: u16) {
        let _ = (ts, node, mc);
        self.with(|r| r.reg.inc(r.ids.writebacks, 0, 1));
    }

    /// The request's data arrived back at the requester: close its span and
    /// record its end-to-end latency.
    #[inline]
    pub fn retire(&self, tag: ReqTag, ts: u64) {
        if !tag.is_some() {
            return;
        }
        self.with(|r| {
            let Some(f) = r.inflight.remove(&tag.id) else {
                return;
            };
            let (name, hist) = match f.kind {
                ReqKind::Offchip => (EvName::Offchip, r.ids.h_offchip),
                ReqKind::CacheToCache => (EvName::CacheToCache, r.ids.h_c2c),
                ReqKind::Pending => return,
            };
            let dur = ts.saturating_sub(f.start);
            r.reg.observe(hist, dur);
            if Sink::span_allowed(r, tag) {
                r.push_event(SpanEvent {
                    track: Track::Core(f.node),
                    name,
                    ts: f.start,
                    dur,
                    req: tag.id,
                    arg: 0,
                });
            }
        });
    }

    /// The request was dropped after exhausting its retry budget: close its
    /// span as [`EvName::Dropped`] and record time-to-drop.
    #[inline]
    pub fn drop_req(&self, tag: ReqTag, ts: u64) {
        if !tag.is_some() {
            return;
        }
        self.with(|r| {
            let Some(f) = r.inflight.remove(&tag.id) else {
                return;
            };
            let dur = ts.saturating_sub(f.start);
            r.reg.observe(r.ids.h_dropped, dur);
            if Sink::span_allowed(r, tag) {
                r.push_event(SpanEvent {
                    track: Track::Core(f.node),
                    name: EvName::Dropped,
                    ts: f.start,
                    dur,
                    req: tag.id,
                    arg: 0,
                });
            }
        });
    }

    /// An off-chip request bound for dark controller `from_mc` was re-homed
    /// to live controller `to_mc`.
    #[inline]
    pub fn rehome(&self, ts: u64, from_mc: u16, to_mc: u16) {
        let _ = to_mc;
        self.with(|r| {
            r.reg.inc(r.ids.fault_rehomed, from_mc as usize, 1);
            r.reg.sample(r.ids.win_faults, ts, 1);
        });
    }

    /// Associate an MC token with the request it serves, so bank-service
    /// events can be attributed.
    #[inline]
    pub fn bind_token(&self, token: u64, tag: ReqTag) {
        if !tag.is_some() {
            return;
        }
        self.with(|r| {
            r.token_req.insert(token, tag.id);
        });
    }

    // ---- NoC records -------------------------------------------------------

    /// A message finished routing: aggregate per-class counters, mirroring
    /// the NoC's own `ClassStats` update.
    #[inline]
    pub fn net_msg(&self, class: NetClass, hops: usize, latency: u64, ts: u64) {
        self.with(|r| {
            let k = class_idx(class);
            r.reg.inc(r.ids.net_msgs[k], 0, 1);
            r.reg.inc(r.ids.net_latency[k], 0, latency);
            r.reg.inc(r.ids.net_hops[k], 0, hops as u64);
            r.reg
                .inc(r.ids.net_hop_hist[k], hops.min(HOP_HIST_LEN - 1), 1);
            r.reg.observe(r.ids.h_net[k], latency);
            r.reg.sample(r.ids.win_net_msgs[k], ts, 1);
        });
    }

    /// One link traversal: `depart` is when the flits start crossing `link`,
    /// `wait` is how long they queued for the link, `flits` its occupancy.
    #[inline]
    pub fn hop(&self, link: u32, depart: u64, wait: u64, flits: u64, tag: ReqTag) {
        self.with(|r| {
            r.reg.inc(r.ids.link_flit_cycles, link as usize, flits);
            r.reg.inc(r.ids.link_wait_cycles, link as usize, wait);
            if Sink::span_allowed(r, tag) {
                let name = match tag.phase {
                    Phase::Request => EvName::HopRequest,
                    Phase::Forward => EvName::HopForward,
                    Phase::Reply => EvName::HopReply,
                };
                r.push_event(SpanEvent {
                    track: Track::Link(link),
                    name,
                    ts: depart,
                    dur: flits,
                    req: tag.id,
                    arg: wait,
                });
            }
        });
    }

    /// A link traversal was delayed `extra` cycles by an active link-fault
    /// window.
    #[inline]
    pub fn link_fault(&self, link: u32, depart: u64, extra: u64, tag: ReqTag) {
        self.with(|r| {
            r.reg.inc(r.ids.fault_link_hops, 0, 1);
            r.reg.inc(r.ids.fault_link_cycles, link as usize, extra);
            r.reg.sample(r.ids.win_faults, depart, 1);
            if Sink::span_allowed(r, tag) {
                r.push_event(SpanEvent {
                    track: Track::Link(link),
                    name: EvName::LinkFault,
                    ts: depart,
                    dur: extra,
                    req: tag.id,
                    arg: 0,
                });
            }
        });
    }

    // ---- memory-controller records -----------------------------------------

    /// A request entered `mc`'s queues; `depth` is the owning bank's queue
    /// depth after insertion.
    #[inline]
    pub fn mc_enqueue(&self, mc: u16, depth: usize, ts: u64) {
        self.with(|r| {
            r.reg
                .set_gauge(r.ids.mc_queue_depth, mc as usize, depth as i64);
            r.reg.sample(r.ids.win_queue_peak, ts, depth as u64);
        });
    }

    /// A bank finished scheduling one request: `arrival..start` queued,
    /// `start..finish` in service; `depth` is the bank queue depth after
    /// removal.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn bank_service(
        &self,
        mc: u16,
        bank: u16,
        token: u64,
        arrival: u64,
        start: u64,
        finish: u64,
        row_hit: bool,
        depth: usize,
    ) {
        self.with(|r| {
            let m = mc as usize;
            let b = m * r.topo.banks_per_mc + bank as usize;
            let queue_cycles = start - arrival;
            let service_cycles = finish - start;
            r.reg.inc(r.ids.mc_served, m, 1);
            r.reg.inc(r.ids.mc_queue_cycles, m, queue_cycles);
            r.reg.inc(r.ids.mc_service_cycles, m, service_cycles);
            r.reg.inc(r.ids.bank_served, b, 1);
            r.reg.inc(r.ids.bank_queue_cycles, b, queue_cycles);
            r.reg.inc(r.ids.bank_busy_cycles, b, service_cycles);
            if row_hit {
                r.reg.inc(r.ids.mc_row_hits, m, 1);
                r.reg.sample(r.ids.win_row_hits, start, 1);
            } else {
                r.reg.sample(r.ids.win_row_misses, start, 1);
            }
            r.reg.observe(r.ids.h_mc_queue, queue_cycles);
            r.reg.observe(r.ids.h_mc_service, service_cycles);
            r.reg.set_gauge(r.ids.mc_queue_depth, m, depth as i64);
            let req = r.token_req.remove(&token).unwrap_or(u64::MAX);
            if r.config.record_spans
                && (req == u64::MAX || r.config.span_capacity == 0 || req < r.config.span_capacity)
            {
                if queue_cycles > 0 {
                    r.push_event(SpanEvent {
                        track: Track::McQueue(mc),
                        name: EvName::McQueue,
                        ts: arrival,
                        dur: queue_cycles,
                        req,
                        arg: 0,
                    });
                }
                let name = if row_hit {
                    EvName::BankRowHit
                } else {
                    EvName::BankRowMiss
                };
                r.push_event(SpanEvent {
                    track: Track::Bank(b as u32),
                    name,
                    ts: start,
                    dur: service_cycles,
                    req,
                    arg: 0,
                });
            }
        });
    }

    /// Whether a span attributed via a token→request lookup (which may have
    /// found nothing: `req == u64::MAX`) should be drawn.
    fn token_span_allowed(r: &Recorder, req: u64) -> bool {
        r.config.record_spans
            && (req == u64::MAX || r.config.span_capacity == 0 || req < r.config.span_capacity)
    }

    /// A bank service at `mc`/`bank` was stretched `stall` cycles by an
    /// active bank-stall window. `start` is when the stalled service began.
    #[inline]
    pub fn bank_stall(&self, mc: u16, bank: u16, token: u64, start: u64, stall: u64) {
        self.with(|r| {
            let m = mc as usize;
            r.reg.inc(r.ids.fault_bank_stalls, m, 1);
            r.reg.inc(r.ids.fault_bank_stall_cycles, m, stall);
            r.reg.sample(r.ids.win_faults, start, 1);
            let req = r.token_req.get(&token).copied().unwrap_or(u64::MAX);
            if Sink::token_span_allowed(r, req) {
                let b = m * r.topo.banks_per_mc + bank as usize;
                r.push_event(SpanEvent {
                    track: Track::Bank(b as u32),
                    name: EvName::BankStall,
                    ts: start,
                    dur: stall,
                    req,
                    arg: 0,
                });
            }
        });
    }

    /// A transient error at `mc` failed the request behind `token`; it will
    /// retry after `backoff` cycles (span drawn over the backoff interval).
    /// The token binding survives, so the eventual successful service (or
    /// drop) is still attributed.
    #[inline]
    pub fn mc_retry(&self, mc: u16, token: u64, ts: u64, backoff: u64) {
        self.with(|r| {
            r.reg.inc(r.ids.fault_retries, mc as usize, 1);
            r.reg.sample(r.ids.win_faults, ts, 1);
            let req = r.token_req.get(&token).copied().unwrap_or(u64::MAX);
            if Sink::token_span_allowed(r, req) {
                r.push_event(SpanEvent {
                    track: Track::McQueue(mc),
                    name: EvName::McRetry,
                    ts,
                    dur: backoff,
                    req,
                    arg: 0,
                });
            }
        });
    }

    /// The request behind `token` exhausted its retry budget at `mc` and was
    /// dropped; the token binding is consumed.
    #[inline]
    pub fn mc_drop(&self, mc: u16, token: u64, ts: u64) {
        self.with(|r| {
            r.reg.inc(r.ids.fault_dropped, mc as usize, 1);
            r.reg.sample(r.ids.win_faults, ts, 1);
            let req = r.token_req.remove(&token).unwrap_or(u64::MAX);
            if Sink::token_span_allowed(r, req) {
                r.push_event(SpanEvent {
                    track: Track::McQueue(mc),
                    name: EvName::Dropped,
                    ts,
                    dur: 0,
                    req,
                    arg: 0,
                });
            }
        });
    }

    // ---- cache / directory records -----------------------------------------

    /// One set-associative cache access.
    #[inline]
    pub fn cache_access(&self, tag: CacheTag, ts: u64, hit: bool, evicted: bool, dirty: bool) {
        let _ = ts;
        self.with(|r| {
            let n = tag.node as usize;
            match tag.level {
                CacheLevel::L1 => {
                    r.reg.inc(r.ids.l1_accesses, n, 1);
                    if hit {
                        r.reg.inc(r.ids.l1_hits, n, 1);
                    }
                }
                CacheLevel::L2 => {
                    r.reg.inc(r.ids.l2_accesses, n, 1);
                    if hit {
                        r.reg.inc(r.ids.l2_hits, n, 1);
                    }
                    if evicted {
                        r.reg.inc(r.ids.l2_evictions, n, 1);
                        if dirty {
                            r.reg.inc(r.ids.l2_evictions_dirty, n, 1);
                        }
                    }
                }
            }
        });
    }

    /// `n` prefetch-pipeline events of kind `ev` at `node`. A no-op unless
    /// the recorder was built with [`ObsConfig::prefetch`], keeping
    /// prefetch-off snapshots byte-identical to pre-prefetch builds.
    #[inline]
    pub fn prefetch(&self, ev: PfEvent, node: u16, n: u64) {
        if n == 0 {
            return;
        }
        self.with(|r| {
            let Some(pf) = r.ids.pf else { return };
            let id = match ev {
                PfEvent::Candidates => pf.candidates,
                PfEvent::Gated => pf.gated,
                PfEvent::Issued => pf.issued,
                PfEvent::Useful => pf.useful,
                PfEvent::Late => pf.late,
                PfEvent::Harmful => pf.harmful,
                PfEvent::Dropped => pf.dropped,
                PfEvent::PredCorrect => pf.pred_correct,
                PfEvent::PredTotal => pf.pred_total,
            };
            r.reg.inc(id, node as usize, n);
        });
    }

    /// One directory lookup; `forward` when a sharer could supply the line.
    #[inline]
    pub fn dir_lookup(&self, ts: u64, node: u16, forward: bool) {
        let _ = (ts, node);
        self.with(|r| {
            if forward {
                r.reg.inc(r.ids.dir_forwards, 0, 1);
            } else {
                r.reg.inc(r.ids.dir_misses, 0, 1);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology {
            mesh_width: 2,
            mesh_height: 2,
            mcs: 2,
            banks_per_mc: 2,
        }
    }

    #[test]
    fn disabled_sink_is_inert() {
        let s = Sink::disabled();
        assert!(!s.is_enabled());
        s.access(0, 0);
        let tag = s.begin_req(0, 0);
        assert!(!tag.is_some());
        s.retire(tag, 10);
        s.hop(0, 0, 0, 1, tag);
        assert!(s.into_report(100).is_none());
    }

    #[test]
    fn offchip_lifecycle_produces_span_and_latency() {
        let s = Sink::recording(topo(), ObsConfig::default());
        let tag = s.begin_req(10, 3);
        s.offchip(tag, 12, 3, 1);
        s.bind_token(77, tag);
        s.hop(5, 14, 2, 4, tag);
        s.bank_service(1, 0, 77, 20, 25, 60, false, 0);
        s.hop(6, 61, 0, 4, tag.phase(Phase::Reply));
        s.retire(tag, 70);
        let rep = s.into_report(100).unwrap();
        assert_eq!(rep.counter("sim.offchip"), 1);
        assert_eq!(
            rep.registry()
                .histogram("req.offchip_cycles")
                .unwrap()
                .count(),
            1
        );
        assert_eq!(
            rep.registry()
                .histogram("req.offchip_cycles")
                .unwrap()
                .quantile(1.0),
            60
        );
        let names: Vec<&str> = rep.events().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["hop.req", "queue", "row_miss", "hop.reply", "offchip"]
        );
        // Bank service attributed to the request via the token binding.
        assert!(rep.events().iter().all(|e| e.req == tag.id));
    }

    #[test]
    fn l2_hit_draws_no_span() {
        let s = Sink::recording(topo(), ObsConfig::default());
        let tag = s.begin_req(0, 0);
        s.req_l2_hit(tag, 5);
        s.retire(tag, 9); // late retire of a finished request is a no-op
        let rep = s.into_report(10).unwrap();
        assert!(rep.events().is_empty());
    }

    #[test]
    fn span_capacity_drops_spans_not_counts() {
        let cfg = ObsConfig {
            span_capacity: 1,
            ..ObsConfig::default()
        };
        let s = Sink::recording(topo(), cfg);
        for i in 0..3 {
            let tag = s.begin_req(i, 0);
            s.offchip(tag, i, 0, 0);
            s.retire(tag, i + 100);
        }
        let rep = s.into_report(200).unwrap();
        assert_eq!(rep.counter("sim.offchip"), 3);
        assert_eq!(rep.events().len(), 1, "only the first request draws a span");
        assert_eq!(rep.dropped_spans(), 2);
        assert_eq!(
            rep.registry()
                .histogram("req.offchip_cycles")
                .unwrap()
                .count(),
            3
        );
    }

    #[test]
    fn record_spans_false_keeps_metrics_only() {
        let cfg = ObsConfig {
            record_spans: false,
            ..ObsConfig::default()
        };
        let s = Sink::recording(topo(), cfg);
        let tag = s.begin_req(0, 1);
        s.offchip(tag, 0, 1, 0);
        s.retire(tag, 50);
        s.net_msg(NetClass::OffChip, 3, 18, 0);
        let rep = s.into_report(100).unwrap();
        assert!(rep.events().is_empty());
        assert_eq!(rep.counter("sim.offchip"), 1);
        assert_eq!(rep.counter("net.offchip.msgs"), 1);
        assert_eq!(rep.counter_family("net.offchip.hop_hist")[3], 1);
        assert_eq!(
            rep.registry()
                .histogram("req.offchip_cycles")
                .unwrap()
                .quantile(0.5),
            50
        );
    }

    #[test]
    fn fault_records_count_and_draw_spans() {
        let s = Sink::recording(topo(), ObsConfig::default());
        let tag = s.begin_req(0, 1);
        s.offchip(tag, 1, 1, 0);
        s.bind_token(7, tag);
        s.link_fault(3, 10, 5, tag);
        s.bank_stall(0, 1, 7, 20, 9);
        s.mc_retry(0, 7, 40, 16);
        s.mc_drop(0, 7, 80);
        s.drop_req(tag, 90);
        s.rehome(85, 1, 0);
        let rep = s.into_report(200).unwrap();
        assert_eq!(rep.counter("fault.link.hops"), 1);
        assert_eq!(rep.counter_family("fault.link.extra_cycles")[3], 5);
        assert_eq!(rep.counter_family("fault.bank.stalls")[0], 1);
        assert_eq!(rep.counter_family("fault.bank.stall_cycles")[0], 9);
        assert_eq!(rep.counter_family("fault.mc.retries")[0], 1);
        assert_eq!(rep.counter_family("fault.mc.dropped")[0], 1);
        assert_eq!(rep.counter_family("fault.rehomed")[1], 1);
        let names: Vec<&str> = rep.events().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["link_fault", "bank_stall", "retry", "dropped", "dropped"]
        );
        // Every fault span is attributed to the request via tag or token.
        assert!(rep.events().iter().all(|e| e.req == tag.id));
        assert_eq!(
            rep.registry()
                .histogram("req.dropped_cycles")
                .unwrap()
                .quantile(1.0),
            90
        );
    }

    #[test]
    fn zero_fault_families_serialize_all_zero() {
        // The fault families exist (all zero) even when nothing faulted, so
        // a zero-fault run's snapshot matches an unfaulted run's bytes.
        let s = Sink::recording(topo(), ObsConfig::default());
        s.access(0, 0);
        let rep = s.into_report(10).unwrap();
        assert_eq!(rep.counter("fault.link.hops"), 0);
        assert_eq!(rep.counter("fault.rehomed"), 0);
        assert!(rep.metrics_json().contains("fault.mc.retries"));
    }

    #[test]
    fn prefetch_families_are_absent_by_default() {
        // Unlike the fault families, pf.* only registers when opted in, so
        // prefetch-off snapshots are byte-identical to pre-prefetch builds.
        let s = Sink::recording(topo(), ObsConfig::default());
        s.access(0, 0);
        s.prefetch(PfEvent::Issued, 0, 3); // must be a silent no-op
        let rep = s.into_report(10).unwrap();
        assert!(!rep.metrics_json().contains("pf."));
    }

    #[test]
    fn prefetch_families_register_and_count_when_enabled() {
        let cfg = ObsConfig {
            prefetch: true,
            ..ObsConfig::default()
        };
        let s = Sink::recording(topo(), cfg);
        s.prefetch(PfEvent::Candidates, 1, 5);
        s.prefetch(PfEvent::Gated, 1, 2);
        s.prefetch(PfEvent::Issued, 1, 3);
        s.prefetch(PfEvent::Useful, 1, 1);
        s.prefetch(PfEvent::Late, 2, 1);
        s.prefetch(PfEvent::Harmful, 2, 1);
        s.prefetch(PfEvent::Dropped, 2, 1);
        s.prefetch(PfEvent::PredCorrect, 3, 4);
        s.prefetch(PfEvent::PredTotal, 3, 6);
        s.prefetch(PfEvent::PredTotal, 3, 0); // zero increments are free
        let rep = s.into_report(10).unwrap();
        let total = |name: &str| rep.counter_family(name).iter().sum::<u64>();
        assert_eq!(total("pf.candidates"), 5);
        assert_eq!(total("pf.gated"), 2);
        assert_eq!(total("pf.issued"), 3);
        assert_eq!(total("pf.useful"), 1);
        assert_eq!(total("pf.late"), 1);
        assert_eq!(total("pf.harmful"), 1);
        assert_eq!(total("pf.dropped"), 1);
        assert_eq!(total("pf.pred.correct"), 4);
        assert_eq!(total("pf.pred.total"), 6);
        // The counts land on the node that reported them.
        assert_eq!(rep.counter_family("pf.candidates")[1], 5);
        assert_eq!(rep.counter_family("pf.late")[2], 1);
    }

    #[test]
    fn windows_bucket_by_epoch() {
        let cfg = ObsConfig {
            epoch_cycles: 100,
            ..ObsConfig::default()
        };
        let s = Sink::recording(topo(), cfg);
        s.access(0, 0);
        s.access(99, 0);
        s.access(100, 0);
        s.mc_enqueue(0, 4, 50);
        s.mc_enqueue(0, 2, 60);
        let rep = s.into_report(200).unwrap();
        assert_eq!(
            rep.registry().series_by_name("win.accesses").unwrap().vals,
            vec![2, 1]
        );
        assert_eq!(
            rep.registry()
                .series_by_name("win.mc_queue_depth_peak")
                .unwrap()
                .vals,
            vec![4]
        );
    }
}
