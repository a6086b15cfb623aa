//! The recording sink handed to instrumented components.
//!
//! A [`Sink`] is either *disabled* — every record call is a single branch on
//! a `None`, no allocation, no wall clock — or it wraps a shared [`Recorder`]
//! that owns the metric registry and span buffer for one simulation run.
//! Components never store a sink; the simulator owns it and passes `&Sink`
//! into the `_obs` method variants, so the untraced code paths compile to the
//! exact same work as before the observability layer existed.

use crate::event::{EvName, NetClass, Phase, ReqTag, SpanEvent, Track};
use crate::registry::{CounterId, GaugeId, HistId, Registry, SeriesId, WindowMode};
use crate::report::{ObsReport, SPARE_EVENTS};
use hoploc_cache::TokenRing;
use std::cell::RefCell;
use std::mem::take;
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
    /// Epoch width for windowed series, in sim cycles.
    pub epoch_cycles: u64,
    /// Maximum number of requests that get spans; `0` means unlimited.
    /// Requests beyond the cap are still fully counted — only their spans
    /// are dropped, and the drop count is reported in the snapshot.
    pub span_capacity: u64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            epoch_cycles: 8192,
            span_capacity: 0,
        }
    }
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

/// The handle of every metric the recorder updates itself, registered once
/// at construction. The counter families a component keeps are registered
/// beside them, in snapshot order, but get no handle: the simulator fills
/// them when the run ends (`Sink::set_counters`).
#[derive(Clone, Copy, Debug)]
struct Ids {
    dir_forwards: CounterId,
    dir_misses: CounterId,
    link_wait_cycles: CounterId,
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
    fault_link_cycles: CounterId,
    fault_bank_stalls: CounterId,
    h_dropped: HistId,
    win_faults: SeriesId,
}

/// Mutable recording state for one simulation run.
#[derive(Debug)]
pub struct Recorder {
    topo: Topology,
    config: ObsConfig,
    reg: Registry,
    ids: Ids,
    events: Vec<SpanEvent>,
    /// The request being resolved now: the last one `begin_req` opened,
    /// until it closes or the next one opens. An L1 miss that hits the L2
    /// is opened and closed here and files nothing.
    open: Option<(u64, InFlight)>,
    /// Requests still in flight when a later one opened, by request id.
    inflight: TokenRing<InFlight>,
    /// The request id behind each bound MC token, by token.
    tokens: TokenRing<u64>,
    next_req: u64,
    spans_started: u64,
    dropped_spans: u64,
    /// Closes that found their request already closed (or never opened).
    stray_closes: u64,
}

/// Hop-histogram width. The simulator copies the NoC's histogram in, and
/// [`Sink::set_counters`] checks the two lengths agree.
pub(crate) const HOP_HIST_LEN: usize = 32;

impl Recorder {
    /// Fresh recorder for a machine of the given shape.
    pub fn new(topo: Topology, config: ObsConfig) -> Self {
        let mut reg = Registry::new();
        let (nodes, links, mcs) = (topo.nodes(), topo.links(), topo.mcs);
        let banks = mcs * topo.banks_per_mc;
        let e = config.epoch_cycles;
        // Counter families in snapshot order. A family whose handle is
        // dropped is a count its component keeps, filled when the run ends.
        reg.counter("sim.accesses", 1);
        reg.counter("sim.cache_to_cache", 1);
        reg.counter("sim.offchip", 1);
        reg.counter("sim.writebacks", 1);
        reg.counter("sim.node_mc_requests", nodes * mcs);
        let dir_forwards = reg.counter("dir.forwards", 1);
        let dir_misses = reg.counter("dir.misses", 1);
        reg.counter("cache.l1.accesses", nodes);
        reg.counter("cache.l1.hits", nodes);
        reg.counter("cache.l2.accesses", nodes);
        reg.counter("cache.l2.hits", nodes);
        reg.counter("cache.l2.evictions", nodes);
        reg.counter("cache.l2.evictions_dirty", nodes);
        reg.counter("net.onchip.msgs", 1);
        reg.counter("net.offchip.msgs", 1);
        reg.counter("net.onchip.latency_cycles", 1);
        reg.counter("net.offchip.latency_cycles", 1);
        reg.counter("net.onchip.hops", 1);
        reg.counter("net.offchip.hops", 1);
        reg.counter("net.onchip.hop_hist", HOP_HIST_LEN);
        reg.counter("net.offchip.hop_hist", HOP_HIST_LEN);
        reg.counter("net.link.flit_cycles", links);
        let link_wait_cycles = reg.counter("net.link.wait_cycles", links);
        reg.counter("mc.served", mcs);
        reg.counter("mc.row_hits", mcs);
        reg.counter("mc.queue_cycles", mcs);
        reg.counter("mc.service_cycles", mcs);
        let bank_served = reg.counter("mc.bank.served", banks);
        let bank_queue_cycles = reg.counter("mc.bank.queue_cycles", banks);
        let bank_busy_cycles = reg.counter("mc.bank.busy_cycles", banks);
        reg.counter("fault.link.hops", 1);
        let fault_link_cycles = reg.counter("fault.link.extra_cycles", links);
        let fault_bank_stalls = reg.counter("fault.bank.stalls", mcs);
        reg.counter("fault.bank.stall_cycles", mcs);
        reg.counter("fault.mc.retries", mcs);
        reg.counter("fault.mc.dropped", mcs);
        reg.counter("fault.rehomed", mcs);
        let ids = Ids {
            dir_forwards,
            dir_misses,
            link_wait_cycles,
            bank_served,
            bank_queue_cycles,
            bank_busy_cycles,
            fault_link_cycles,
            fault_bank_stalls,
            mc_queue_depth: reg.gauge("mc.queue_depth", mcs),
            h_offchip: reg.hist("req.offchip_cycles"),
            h_c2c: reg.hist("req.c2c_cycles"),
            h_mc_queue: reg.hist("mc.queue_wait_cycles"),
            h_mc_service: reg.hist("mc.service_cycles"),
            h_net: [
                reg.hist("net.onchip_cycles"),
                reg.hist("net.offchip_cycles"),
            ],
            h_dropped: reg.hist("req.dropped_cycles"),
            win_accesses: reg.series("win.accesses", e, WindowMode::Add),
            win_offchip: reg.series("win.offchip", e, WindowMode::Add),
            win_row_hits: reg.series("win.row_hits", e, WindowMode::Add),
            win_row_misses: reg.series("win.row_misses", e, WindowMode::Add),
            win_net_msgs: [
                reg.series("win.onchip_msgs", e, WindowMode::Add),
                reg.series("win.offchip_msgs", e, WindowMode::Add),
            ],
            win_queue_peak: reg.series("win.mc_queue_depth_peak", e, WindowMode::Max),
            win_faults: reg.series("win.fault_events", e, WindowMode::Add),
        };
        Recorder {
            topo,
            config,
            reg,
            ids,
            events: take(&mut SPARE_EVENTS.lock().unwrap()),
            open: None,
            inflight: TokenRing::new(),
            tokens: TokenRing::new(),
            next_req: 0,
            spans_started: 0,
            dropped_spans: 0,
            stray_closes: 0,
        }
    }

    /// The in-flight record of request `id`, wherever it is filed.
    fn find(&mut self, id: u64) -> Option<&mut InFlight> {
        match &mut self.open {
            Some((open, f)) if *open == id => Some(f),
            _ => self.inflight.get_mut(id),
        }
    }

    /// Closes request `id` and returns its record; `None`, counted as a
    /// stray close, if it is not in flight.
    fn close(&mut self, id: u64) -> Option<InFlight> {
        let f = match self.open {
            Some((open, _)) if open == id => self.open.take().map(|(_, f)| f),
            _ => self.inflight.remove(id),
        };
        self.stray_closes += u64::from(f.is_none());
        f
    }

    /// Closes a request's lifecycle at `ts`: its latency into `hist` and,
    /// within the span capacity, a span named `name` on its core's lane.
    fn end(&mut self, tag: ReqTag, f: InFlight, ts: u64, name: EvName, hist: HistId) {
        let dur = ts.saturating_sub(f.start);
        self.reg.observe(hist, dur);
        if Sink::span_allowed(self, tag) {
            self.span(Track::Core(f.node), name, f.start, dur, tag.id, 0);
        }
    }

    fn span(&mut self, track: Track, name: EvName, ts: u64, dur: u64, req: u64, arg: u64) {
        self.events.push(SpanEvent {
            track,
            name,
            ts,
            dur,
            req,
            arg,
        });
    }

    fn into_report(self, exec_cycles: u64) -> ObsReport {
        ObsReport {
            topo: self.topo,
            config: self.config,
            exec_cycles,
            reg: self.reg,
            events: self.events,
            dropped_spans: self.dropped_spans,
        }
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
        self.with(|r| r.reg.sample(r.ids.win_accesses, ts, 1));
    }

    /// An L1 miss at `node` starts a request lifecycle; returns its tag.
    #[inline]
    pub fn begin_req(&self, ts: u64, node: u16) -> ReqTag {
        self.with(|r| {
            let id = r.next_req;
            r.next_req += 1;
            if r.config.span_capacity > 0 && r.spans_started >= r.config.span_capacity {
                r.dropped_spans += 1;
            } else {
                r.spans_started += 1;
            }
            let begun = InFlight {
                node,
                start: ts,
                kind: ReqKind::Pending,
            };
            if let Some((older, f)) = r.open.replace((id, begun)) {
                r.inflight.insert(older, f);
            }
            ReqTag {
                id,
                phase: Phase::Request,
            }
        })
    }

    fn span_allowed(r: &Recorder, tag: ReqTag) -> bool {
        // Requests past the span capacity keep counting but draw no events.
        tag.is_some() && (r.config.span_capacity == 0 || tag.id < r.config.span_capacity)
    }

    /// The request was satisfied by an L2 (local or home) hit; no span is
    /// drawn for it.
    #[inline]
    pub fn req_l2_hit(&self, tag: ReqTag) {
        if !tag.is_some() {
            return;
        }
        self.with(|r| {
            r.close(tag.id);
        });
    }

    /// The request resolved to a cache-to-cache transfer.
    #[inline]
    pub fn c2c(&self, tag: ReqTag) {
        self.with(|r| {
            if let Some(f) = r.find(tag.id) {
                f.kind = ReqKind::CacheToCache;
            }
        });
    }

    /// The request resolved to an off-chip access at `ts`.
    #[inline]
    pub fn offchip(&self, tag: ReqTag, ts: u64) {
        self.with(|r| {
            r.reg.sample(r.ids.win_offchip, ts, 1);
            if let Some(f) = r.find(tag.id) {
                f.kind = ReqKind::Offchip;
            }
        });
    }

    /// The request's data arrived back at the requester: close its span and
    /// record its end-to-end latency. A request never classified — a demand
    /// that joined a prefetch in flight — closes here with neither.
    #[inline]
    pub fn retire(&self, tag: ReqTag, ts: u64) {
        if !tag.is_some() {
            return;
        }
        self.with(|r| {
            let Some(f) = r.close(tag.id) else {
                return;
            };
            let (name, hist) = match f.kind {
                ReqKind::Offchip => (EvName::Offchip, r.ids.h_offchip),
                ReqKind::CacheToCache => (EvName::CacheToCache, r.ids.h_c2c),
                ReqKind::Pending => return,
            };
            r.end(tag, f, ts, name, hist);
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
            if let Some(f) = r.close(tag.id) {
                r.end(tag, f, ts, EvName::Dropped, r.ids.h_dropped);
            }
        });
    }

    /// An off-chip request bound for a dark controller was re-homed at
    /// `ts`.
    #[inline]
    pub fn rehome(&self, ts: u64) {
        self.with(|r| r.reg.sample(r.ids.win_faults, ts, 1));
    }

    /// Associate an MC token with the request it serves, so bank-service
    /// events can be attributed. The binding lasts until the token is
    /// served or dropped.
    #[inline]
    pub fn bind_token(&self, token: u64, tag: ReqTag) {
        if !tag.is_some() {
            return;
        }
        self.with(|r| r.tokens.insert(token, tag.id));
    }

    /// Panics unless every request [`Sink::begin_req`] opened was closed
    /// exactly once and every token [`Sink::bind_token`] bound was consumed:
    /// what a run that ends with nothing in flight leaves behind.
    pub fn assert_settled(&self) {
        self.with(|r| {
            let open = r.open.map(|(id, _)| id);
            assert!(open.is_none(), "request {open:?} was never closed");
            assert!(r.inflight.is_empty(), "a request was never closed");
            assert_eq!(r.stray_closes, 0, "requests closed twice");
            assert!(r.tokens.is_empty(), "a bound MC token was never consumed");
        });
    }

    // ---- NoC records -------------------------------------------------------

    /// A message sent at `ts` finished routing after `latency` cycles: its
    /// latency histogram and window. The NoC counts messages and hops
    /// itself (`NetStats`), so `hops` goes unread.
    #[inline]
    pub fn net_msg(&self, class: NetClass, hops: usize, latency: u64, ts: u64) {
        let _ = hops;
        self.with(|r| {
            let k = class as usize;
            r.reg.observe(r.ids.h_net[k], latency);
            r.reg.sample(r.ids.win_net_msgs[k], ts, 1);
        });
    }

    /// One link traversal: `depart` is when the flits start crossing `link`,
    /// `wait` is how long they queued for the link, `flits` its occupancy.
    #[inline]
    pub fn hop(&self, link: u32, depart: u64, wait: u64, flits: u64, tag: ReqTag) {
        self.with(|r| {
            r.reg.inc(r.ids.link_wait_cycles, link as usize, wait);
            if Sink::span_allowed(r, tag) {
                let name = match tag.phase {
                    Phase::Request => EvName::HopRequest,
                    Phase::Forward => EvName::HopForward,
                    Phase::Reply => EvName::HopReply,
                };
                r.span(Track::Link(link), name, depart, flits, tag.id, wait);
            }
        });
    }

    /// A link traversal was delayed `extra` cycles by an active link-fault
    /// window.
    #[inline]
    pub fn link_fault(&self, link: u32, depart: u64, extra: u64, tag: ReqTag) {
        self.with(|r| {
            r.reg.inc(r.ids.fault_link_cycles, link as usize, extra);
            r.reg.sample(r.ids.win_faults, depart, 1);
            if Sink::span_allowed(r, tag) {
                let track = Track::Link(link);
                r.span(track, EvName::LinkFault, depart, extra, tag.id, 0);
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
            let (queued, busy) = (start - arrival, finish - start);
            r.reg.inc(r.ids.bank_served, b, 1);
            r.reg.inc(r.ids.bank_queue_cycles, b, queued);
            r.reg.inc(r.ids.bank_busy_cycles, b, busy);
            if row_hit {
                r.reg.sample(r.ids.win_row_hits, start, 1);
            } else {
                r.reg.sample(r.ids.win_row_misses, start, 1);
            }
            r.reg.observe(r.ids.h_mc_queue, queued);
            r.reg.observe(r.ids.h_mc_service, busy);
            r.reg.set_gauge(r.ids.mc_queue_depth, m, depth as i64);
            let req = r.tokens.remove(token).unwrap_or(u64::MAX);
            if Sink::token_span_allowed(r, req) {
                if queued > 0 {
                    r.span(Track::McQueue(mc), EvName::McQueue, arrival, queued, req, 0);
                }
                let name = if row_hit {
                    EvName::BankRowHit
                } else {
                    EvName::BankRowMiss
                };
                r.span(Track::Bank(b as u32), name, start, busy, req, 0);
            }
        });
    }

    /// Whether a span attributed via a token→request lookup (which may have
    /// found nothing: `req == u64::MAX`) should be drawn.
    fn token_span_allowed(r: &Recorder, req: u64) -> bool {
        req == u64::MAX || r.config.span_capacity == 0 || req < r.config.span_capacity
    }

    /// A bank service at `mc`/`bank` was stretched `stall` cycles by an
    /// active bank-stall window. `start` is when the stalled service began.
    #[inline]
    pub fn bank_stall(&self, mc: u16, bank: u16, token: u64, start: u64, stall: u64) {
        self.with(|r| {
            let m = mc as usize;
            r.reg.inc(r.ids.fault_bank_stalls, m, 1);
            r.reg.sample(r.ids.win_faults, start, 1);
            let req = r.tokens.get(token).copied().unwrap_or(u64::MAX);
            if Sink::token_span_allowed(r, req) {
                let b = (m * r.topo.banks_per_mc + bank as usize) as u32;
                r.span(Track::Bank(b), EvName::BankStall, start, stall, req, 0);
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
            r.reg.sample(r.ids.win_faults, ts, 1);
            let req = r.tokens.get(token).copied().unwrap_or(u64::MAX);
            if Sink::token_span_allowed(r, req) {
                r.span(Track::McQueue(mc), EvName::McRetry, ts, backoff, req, 0);
            }
        });
    }

    /// The request behind `token` exhausted its retry budget at `mc` and was
    /// dropped; the token binding is consumed.
    #[inline]
    pub fn mc_drop(&self, mc: u16, token: u64, ts: u64) {
        self.with(|r| {
            r.reg.sample(r.ids.win_faults, ts, 1);
            let req = r.tokens.remove(token).unwrap_or(u64::MAX);
            if Sink::token_span_allowed(r, req) {
                r.span(Track::McQueue(mc), EvName::Dropped, ts, 0, req, 0);
            }
        });
    }

    // ---- counts kept by the components ------------------------------------

    /// Registers one counter family per name, `len` zeroed slots each, after
    /// every family the recorder registers itself: a family only some runs
    /// have (the prefetcher's `pf.*`), filled by [`Sink::set_counters`].
    pub fn register_counters(&self, names: &[&'static str], len: usize) {
        self.with(|r| {
            for &name in names {
                r.reg.counter(name, len);
            }
        });
    }

    /// Fills counter family `name` with `values`, one per element: a count
    /// its component keeps itself, copied in once the run ends.
    ///
    /// # Panics
    ///
    /// Panics if no counter family is called `name`, or if its length is
    /// not `values.len()`.
    pub fn set_counters(&self, name: &str, values: &[u64]) {
        self.with(|r| {
            let family = r
                .reg
                .counters
                .iter_mut()
                .find(|f| f.name == name)
                .unwrap_or_else(|| panic!("no counter family named {name}"));
            assert_eq!(family.vals.len(), values.len(), "length of {name}");
            family.vals.copy_from_slice(values);
        });
    }

    // ---- directory records -------------------------------------------------

    /// One directory lookup; `forward` when a sharer could supply the line.
    /// The simulator does not call it: it copies `dir.*` from its
    /// `Directory` when the run ends, which overwrites these counts.
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

    fn window(rep: &ObsReport, name: &str) -> Vec<u64> {
        rep.registry().series_by_name(name).unwrap().vals.clone()
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
        s.offchip(tag, 12);
        s.bind_token(77, tag);
        s.hop(5, 14, 2, 4, tag);
        s.bank_service(1, 0, 77, 20, 25, 60, false, 0);
        s.hop(6, 61, 0, 4, tag.phase(Phase::Reply));
        s.retire(tag, 70);
        let rep = s.into_report(100).unwrap();
        assert_eq!(window(&rep, "win.offchip"), vec![1]);
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
        s.req_l2_hit(tag);
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
            s.offchip(tag, i);
            s.retire(tag, i + 100);
        }
        let rep = s.into_report(200).unwrap();
        assert_eq!(window(&rep, "win.offchip"), vec![3]);
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
    fn fault_records_count_and_draw_spans() {
        let s = Sink::recording(topo(), ObsConfig::default());
        let tag = s.begin_req(0, 1);
        s.offchip(tag, 1);
        s.bind_token(7, tag);
        s.link_fault(3, 10, 5, tag);
        s.bank_stall(0, 1, 7, 20, 9);
        s.mc_retry(0, 7, 40, 16);
        s.mc_drop(0, 7, 80);
        s.drop_req(tag, 90);
        s.rehome(85);
        let rep = s.into_report(200).unwrap();
        assert_eq!(rep.counter_family("fault.link.extra_cycles")[3], 5);
        assert_eq!(rep.counter_family("fault.bank.stalls")[0], 1);
        // Each of the five fault events lands in the window, and no count
        // its component keeps is incremented here.
        assert_eq!(window(&rep, "win.fault_events"), vec![5]);
        assert_eq!(rep.counter("fault.link.hops"), 0);
        assert_eq!(rep.counter_family("fault.rehomed"), &[0, 0]);
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

    const PF: [&str; 9] = [
        "pf.candidates",
        "pf.gated",
        "pf.issued",
        "pf.useful",
        "pf.late",
        "pf.harmful",
        "pf.dropped",
        "pf.pred.correct",
        "pf.pred.total",
    ];

    #[test]
    fn prefetch_families_are_absent_by_default() {
        // Unlike the fault families, pf.* exist only once registered, so
        // prefetch-off snapshots are byte-identical to pre-prefetch builds.
        let s = Sink::recording(topo(), ObsConfig::default());
        s.access(0, 0);
        let rep = s.into_report(10).unwrap();
        assert!(!rep.metrics_json().contains("pf."));
    }

    #[test]
    fn prefetch_families_register_and_count_when_enabled() {
        let s = Sink::recording(topo(), ObsConfig::default());
        s.register_counters(&PF, 4);
        s.set_counters("pf.candidates", &[0, 5, 0, 0]);
        s.set_counters("pf.late", &[0, 0, 1, 0]);
        s.set_counters("pf.pred.total", &[0, 0, 0, 6]);
        let rep = s.into_report(10).unwrap();
        let names: Vec<&str> = rep.registry().counters.iter().map(|f| f.name).collect();
        assert_eq!(names[names.len() - PF.len()..], PF);
        assert_eq!(rep.counter_family("pf.candidates"), &[0, 5, 0, 0]);
        assert_eq!(rep.counter_family("pf.late"), &[0, 0, 1, 0]);
        assert_eq!(rep.counter_family("pf.pred.total"), &[0, 0, 0, 6]);
        assert_eq!(rep.counter_family("pf.issued"), &[0; 4]);
    }

    #[test]
    fn set_counters_fills_a_family_in_place() {
        let s = Sink::recording(topo(), ObsConfig::default());
        s.set_counters("cache.l2.hits", &[1, 2, 3, 4]);
        let rep = s.into_report(10).unwrap();
        assert_eq!(rep.counter_family("cache.l2.hits"), &[1, 2, 3, 4]);
        let names: Vec<&str> = rep.registry().counters.iter().map(|f| f.name).collect();
        let at = |name| names.iter().position(|&n| n == name);
        assert!(at("dir.misses") < at("cache.l1.accesses"));
        assert!(at("cache.l2.evictions_dirty") < at("net.onchip.msgs"));
    }

    #[test]
    #[should_panic(expected = "no counter family named cache.l3.hits")]
    fn set_counters_refuses_an_unknown_family() {
        Sink::recording(topo(), ObsConfig::default()).set_counters("cache.l3.hits", &[0; 4]);
    }

    #[test]
    #[should_panic(expected = "length of cache.l1.hits")]
    fn set_counters_refuses_a_wrong_length() {
        Sink::recording(topo(), ObsConfig::default()).set_counters("cache.l1.hits", &[0; 3]);
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
