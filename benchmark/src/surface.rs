//! The binding file: every call into a `hoploc-*` crate is made here and
//! nowhere else in the benchmark.
//!
//! The benchmark binds to exactly these public items:
//!
//! * `workloads::{all_apps, layout_with, generate_traces}` (+ `App`,
//!   `RunKind`, `Scale`, `TraceGen`)
//! * `layout::{PassConfig::default, Granularity, L2Mode}`
//! * `sim::{SimConfig::scaled, AddressSpace::{build, desired_page_mcs},
//!   PagePolicy, Os::{new, translate}, Simulator::{new, run, with_obs,
//!   run_traced}, RunStats, PrefetchConfig::with_mode, PrefetchMode}`
//! * `noc::{L2ToMcMapping::nearest_cluster, NodeId, Network::{new, send},
//!   NocConfig, TrafficClass}`
//! * `mem::{MemoryController::{new, enqueue, poll}, McConfig}`
//! * `cache::{SetAssocCache::{new, access}, CacheConfig, Directory::{new,
//!   lookup, add_sharer}}`
//! * `prefetch::{SlicePrefetcher::{new, on_demand}, DemandOutcome,
//!   PrefetchSummary}`
//! * `obs::{ObsConfig, Sink::{recording, access, net_msg, mc_enqueue,
//!   dir_lookup, into_report}, Topology, NetClass}`
//! * `est::{EstConfig::{from_sim, with_threads_per_core}, estimate_app,
//!   estimate_placement}`
//! * `search::{SearchConfig::new, search_app, SearchReport, curated,
//!   Candidate::placement}`
//! * `serve::{Server::{bind, local_addr, run}, ServeConfig, SuiteEngine::new,
//!   EngineCaps, wire::{parse_request, encode_response, Response}}`
//! * `fault::{FaultPlan::from_seed, FaultRates::{moderate, with_horizon},
//!   FaultTopo}`
//!
//! Deliberately *not* bound: `harness::Suite::run_*`, `serve::Client` /
//! `JobSpec`, and every `_obs` twin — the surfaces ROADMAP item 3 plans to
//! collapse. The staged pipeline below is the harness's `prepare` + `run`
//! written out, so each stage can be timed from outside.
//!
//! Everything the rest of the benchmark sees is a benchmark-owned type
//! (`Counts`, `Stats`, `SearchOutcome`, …): when a bound signature changes,
//! this file changes and the metric definitions do not.

use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use hoploc_cache::{CacheConfig, Directory, SetAssocCache};
use hoploc_est::{estimate_app, estimate_placement, EstConfig};
use hoploc_fault::{FaultPlan, FaultRates, FaultTopo};
use hoploc_layout::{Granularity, L2Mode, PassConfig};
use hoploc_mem::{McConfig, MemoryController};
use hoploc_noc::{L2ToMcMapping, Network, NocConfig, NodeId, TrafficClass};
use hoploc_obs::{NetClass, ObsConfig, Sink, Topology};
use hoploc_prefetch::{DemandOutcome, PrefetchSummary, SlicePrefetcher};
use hoploc_search::{curated, search_app, SearchConfig};
use hoploc_serve::wire::{encode_response, parse_request, Response};
use hoploc_serve::{EngineCaps, ServeConfig, Server, SuiteEngine};
use hoploc_sim::{
    AddressSpace, Os, PagePolicy, PrefetchConfig, PrefetchMode, RunStats, SimConfig, Simulator,
};
use hoploc_workloads::{all_apps, generate_traces, layout_with, TraceGen};

pub use hoploc_workloads::{App, RunKind, Scale};

use crate::span::Tracer;
use crate::util::{fnv1a, median, Rng};

// ---------------------------------------------------------------------------
// Applications and machines
// ---------------------------------------------------------------------------

/// Builds the named applications at `scale`, in the order given.
pub fn build_apps(scale: Scale, names: &[&str]) -> Vec<App> {
    let mut all = all_apps(scale);
    names
        .iter()
        .map(|name| {
            let i = all
                .iter()
                .position(|a| a.name() == *name)
                .unwrap_or_else(|| panic!("no application named {name:?} in the suite"));
            all.swap_remove(i)
        })
        .collect()
}

pub fn app_name(app: &App) -> &str {
    app.name()
}

pub fn kind_name(kind: RunKind) -> &'static str {
    match kind {
        RunKind::Baseline => "baseline",
        RunKind::Optimized => "optimized",
        RunKind::FirstTouch => "first-touch",
        RunKind::Optimal => "optimal",
    }
}

/// The eight ways `sweep-axes` drives the same sim/cache/noc/mem layers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    /// Private L2, cache-line interleave, M1 mapping, corner MCs — the
    /// configuration of `sweep-hit` and `sweep-miss`.
    Plain,
    /// Shared (SNUCA) L2.
    SharedL2,
    /// Gated per-slice prefetching.
    Gated,
    /// A seeded moderate fault plan.
    Faults,
    /// Dirty-line writebacks modelled.
    Writebacks,
    /// Two threads per core.
    Threads2,
    /// Page interleave under the first-touch page policy.
    PageFt,
    /// Observability on: `with_obs(..).run_traced`.
    Traced,
}

impl Variant {
    pub const ALL: [Variant; 8] = [
        Variant::Plain,
        Variant::SharedL2,
        Variant::Gated,
        Variant::Faults,
        Variant::Writebacks,
        Variant::Threads2,
        Variant::PageFt,
        Variant::Traced,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Variant::Plain => "plain",
            Variant::SharedL2 => "sharedl2",
            Variant::Gated => "gated",
            Variant::Faults => "faults",
            Variant::Writebacks => "writebacks",
            Variant::Threads2 => "threads2",
            Variant::PageFt => "page-ft",
            Variant::Traced => "traced",
        }
    }

    /// The run kind a variant simulates: first-touch is by definition the
    /// original layout under the first-touch policy, everything else runs
    /// the optimized layout.
    pub fn kind(self) -> RunKind {
        match self {
            Variant::PageFt => RunKind::FirstTouch,
            _ => RunKind::Optimized,
        }
    }

    fn threads_per_core(self) -> usize {
        match self {
            Variant::Threads2 => 2,
            _ => 1,
        }
    }
}

/// A simulator configuration plus its L2-to-MC mapping.
pub struct Machine {
    sim: SimConfig,
    mapping: L2ToMcMapping,
}

/// The capacity-scaled Table 1 machine under `variant`.
pub fn machine(variant: Variant) -> Machine {
    let mut sim = SimConfig {
        granularity: Granularity::CacheLine,
        ..SimConfig::scaled()
    };
    match variant {
        Variant::SharedL2 => sim.l2_mode = L2Mode::Shared,
        Variant::Gated => sim.prefetch = PrefetchConfig::with_mode(PrefetchMode::Gated),
        Variant::Writebacks => sim.writebacks = true,
        Variant::PageFt => sim.granularity = Granularity::Page,
        Variant::Plain | Variant::Faults | Variant::Threads2 | Variant::Traced => {}
    }
    let mapping = L2ToMcMapping::nearest_cluster(sim.mesh, &sim.placement);
    Machine { sim, mapping }
}

// ---------------------------------------------------------------------------
// The staged cell pipeline
// ---------------------------------------------------------------------------

/// One simulation: an application, the side of the comparison, and how the
/// machine is driven.
pub struct Cell<'a> {
    pub app: &'a App,
    pub kind: RunKind,
    pub variant: Variant,
    /// `Variant::Faults` only: the plan seed and the cycle horizon its
    /// windows are placed within (the plain run's `exec_cycles`).
    pub fault: Option<(u64, u64)>,
}

/// The exact counts a run reports, summed or compared by the workloads.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Counts {
    pub exec_cycles: u64,
    pub accesses: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub c2c: u64,
    pub offchip: u64,
    pub writebacks: u64,
    pub mc_served: u64,
    pub mc_dropped: u64,
    pub mc_row_hits: u64,
    pub noc_messages: u64,
    pub offchip_msgs: u64,
    pub offchip_hops: u64,
    pub pf_issued: u64,
    pub pf_accurate: u64,
    pub rehomed: u64,
    pub os_fallbacks: u64,
    pub backstop_flushes: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.exec_cycles += o.exec_cycles;
        self.accesses += o.accesses;
        self.l1_hits += o.l1_hits;
        self.l2_hits += o.l2_hits;
        self.c2c += o.c2c;
        self.offchip += o.offchip;
        self.writebacks += o.writebacks;
        self.mc_served += o.mc_served;
        self.mc_dropped += o.mc_dropped;
        self.mc_row_hits += o.mc_row_hits;
        self.noc_messages += o.noc_messages;
        self.offchip_msgs += o.offchip_msgs;
        self.offchip_hops += o.offchip_hops;
        self.pf_issued += o.pf_issued;
        self.pf_accurate += o.pf_accurate;
        self.rehomed += o.rehomed;
        self.os_fallbacks += o.os_fallbacks;
        self.backstop_flushes += o.backstop_flushes;
    }
}

/// The full statistics of one run. Equality is the simulator's own
/// bit-for-bit `RunStats` equality, which is what "this rep repeated that
/// rep" and "traced equals untraced" are checked with.
#[derive(Clone, PartialEq, Debug)]
pub struct Stats(RunStats);

impl Stats {
    pub fn counts(&self) -> Counts {
        let s = &self.0;
        Counts {
            exec_cycles: s.exec_cycles,
            accesses: s.total_accesses,
            l1_hits: s.l1_hits,
            l2_hits: s.l2_hits,
            c2c: s.cache_to_cache,
            offchip: s.offchip_accesses,
            writebacks: s.writebacks,
            mc_served: s.mc.iter().map(|m| m.served).sum(),
            mc_dropped: s.mc.iter().map(|m| m.dropped).sum(),
            mc_row_hits: s.mc.iter().map(|m| m.row_hits).sum(),
            noc_messages: s.net.on_chip.messages + s.net.off_chip.messages,
            offchip_msgs: s.net.off_chip.messages,
            offchip_hops: s.net.off_chip.total_hops,
            pf_issued: s.prefetch.issued,
            pf_accurate: s.prefetch.useful + s.prefetch.late,
            rehomed: s.rehomed_requests,
            os_fallbacks: s.os_fallbacks,
            backstop_flushes: s.backstop_flushes,
        }
    }

    /// Folds this run into digest `h`: the counts plus the latency and
    /// queueing totals, so any change to simulated behaviour moves it.
    pub fn digest(&self, h: u64) -> u64 {
        let s = &self.0;
        let text = format!(
            "{:?}|{}|{}|{}|{}|{:?}",
            self.counts(),
            s.net.on_chip.total_latency,
            s.net.off_chip.total_latency,
            s.mc.iter().map(|m| m.total_queue_cycles).sum::<u64>(),
            s.mc.iter().map(|m| m.total_service_cycles).sum::<u64>(),
            s.app_finish,
        );
        fnv1a(h, text.as_bytes())
    }

    pub fn offchip_fraction(&self) -> f64 {
        self.0.offchip_fraction()
    }

    pub fn avg_offchip_hops(&self) -> f64 {
        self.0.net.off_chip.avg_hops()
    }
}

/// Runs one cell through the staged pipeline — `layout_with` →
/// `AddressSpace::build` / `desired_page_mcs` → `generate_traces` →
/// `Simulator::new` → `run` → teardown — with a span around each stage.
pub fn run_cell(cell: &Cell<'_>, m: &Machine, op: u32, tr: &mut Tracer) -> Stats {
    let app = cell.app;

    let s = tr.begin("layout.pass", op);
    let layout = layout_with(
        app,
        &m.mapping,
        &m.sim,
        cell.kind,
        PassConfig::default().approx_threshold,
    );
    tr.end(s);

    let s = tr.begin("sim.address_space", op);
    let space = AddressSpace::build(&app.program, &layout, 0);
    let policy = match cell.kind {
        RunKind::Optimized => {
            let desired = space.desired_page_mcs(&app.program, &layout, m.sim.page_bytes);
            if desired.is_empty() {
                PagePolicy::Interleaved
            } else {
                PagePolicy::Desired(desired)
            }
        }
        RunKind::FirstTouch => PagePolicy::FirstTouch,
        RunKind::Baseline | RunKind::Optimal => PagePolicy::Interleaved,
    };
    tr.end(s);

    let s = tr.begin("workloads.trace_gen", op);
    let gen = TraceGen {
        threads_per_core: cell.variant.threads_per_core(),
        ..app.gen
    };
    let workload = generate_traces(&app.program, &layout, &space, &gen);
    tr.end(s);

    let s = tr.begin("sim.construct", op);
    let mut cfg = m.sim.clone();
    cfg.optimal = cell.kind == RunKind::Optimal;
    cfg.mlp = app.mlp;
    if let Some((seed, horizon)) = cell.fault {
        let topo = FaultTopo {
            links: (cfg.num_nodes() * 4) as u32,
            mcs: cfg.num_mcs() as u16,
            banks_per_mc: cfg.mc.banks as u16,
        };
        let rates = FaultRates::moderate().with_horizon(horizon);
        cfg.faults = Some(FaultPlan::from_seed(seed, &topo, &rates));
    }
    let mut sim = Simulator::new(cfg, m.mapping.clone(), policy);
    if cell.variant == Variant::Traced {
        sim = sim.with_obs(ObsConfig::default());
    }
    tr.end(s);

    let s = tr.begin("sim.run", op);
    let (stats, report) = if cell.variant == Variant::Traced {
        let (stats, report) = sim.run_traced(&workload);
        (stats, Some(report))
    } else {
        (sim.run(&workload), None)
    };
    tr.end(s);

    let s = tr.begin("sim.teardown", op);
    drop(report);
    drop(workload);
    drop(space);
    drop(layout);
    tr.end(s);

    Stats(stats)
}

/// What the static estimator predicts for a cell.
pub struct Estimate {
    pub offchip_fraction: f64,
    pub hops: f64,
}

/// One `estimate_app` for a cell, under span `span`. The layout is compiled
/// outside the span: the cycle pipeline's `layout.pass` already times it.
pub fn estimate_cell(
    cell: &Cell<'_>,
    m: &Machine,
    op: u32,
    span: &'static str,
    tr: &mut Tracer,
) -> Estimate {
    let layout = layout_with(
        cell.app,
        &m.mapping,
        &m.sim,
        cell.kind,
        PassConfig::default().approx_threshold,
    );
    let cfg = EstConfig::from_sim(&m.sim).with_threads_per_core(cell.variant.threads_per_core());
    let s = tr.begin(span, op);
    let e = estimate_app(cell.app, &layout, &m.mapping, cell.kind, &cfg);
    tr.end(s);
    Estimate {
        offchip_fraction: e.offchip_fraction(),
        hops: e.avg_offchip_hops,
    }
}

// ---------------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------------

/// What one `search_app` reported.
#[derive(Clone, PartialEq, Debug)]
pub struct SearchOutcome {
    pub evaluated: u32,
    pub verified: usize,
    pub found_cycles: u64,
    pub corners_cycles: u64,
    pub edge_cycles: u64,
    pub diamond_cycles: u64,
    /// Progress events emitted (best-so-far improvements).
    pub events: usize,
    /// FNV-1a of the report's single-line JSON.
    pub report_digest: u64,
}

/// One design-space search under the default objective.
pub fn search(app: &App, scale: Scale, seed: u64, budget: u32, top_k: usize) -> SearchOutcome {
    let sim = SimConfig {
        granularity: Granularity::CacheLine,
        ..SimConfig::scaled()
    };
    let cfg = SearchConfig {
        seed,
        budget,
        top_k,
        ..SearchConfig::new(sim, scale)
    };
    let mut events = 0usize;
    let r = search_app(app, &cfg, &mut |_| events += 1);
    SearchOutcome {
        evaluated: r.evaluated,
        verified: r.verified.len(),
        found_cycles: r.found_cycles,
        corners_cycles: r.corners_cycles,
        edge_cycles: r.edge_cycles,
        diamond_cycles: r.diamond_cycles,
        events,
        report_digest: fnv1a(crate::util::FNV_SEED, r.to_json().as_bytes()),
    }
}

// ---------------------------------------------------------------------------
// Serve
// ---------------------------------------------------------------------------

/// An in-process job server on a loopback port, running on its own thread.
pub struct ServerHandle {
    pub addr: SocketAddr,
    thread: JoinHandle<(u64, u64)>,
}

/// Binds `127.0.0.1:0` and starts serving with `workers` job workers, a
/// 64-slot queue and a 256-entry result cache.
pub fn start_server(workers: usize) -> std::io::Result<ServerHandle> {
    let engine = Arc::new(SuiteEngine::new(EngineCaps::default()));
    let cfg = ServeConfig {
        workers,
        queue_cap: 64,
        cache_cap: 256,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", engine, cfg)?;
    let addr = server.local_addr()?;
    let thread = std::thread::spawn(move || {
        let summary = server.run();
        (summary.answered, summary.executed)
    });
    Ok(ServerHandle { addr, thread })
}

impl ServerHandle {
    /// Waits for the server to exit (a client must have sent `drain`) and
    /// returns its `(answered, executed)` totals.
    pub fn join(self) -> Result<(u64, u64), String> {
        self.thread
            .join()
            .map_err(|_| "the server thread panicked".to_string())
    }
}

// ---------------------------------------------------------------------------
// Component probes
// ---------------------------------------------------------------------------

/// Host cost of one operation of each component, driven with a seeded
/// synthetic stream through its public sink-free API.
#[derive(Clone, Copy, Default, Debug)]
pub struct Probes {
    pub l1_access_ns: f64,
    pub l2_access_ns: f64,
    pub directory_lookup_ns: f64,
    pub os_translate_ns: f64,
    pub noc_send_ns: f64,
    pub mem_enqueue_poll_ns: f64,
    pub prefetch_on_demand_ns: f64,
    pub obs_sink_event_ns: f64,
    pub est_placement_eval_us: f64,
    pub layout_pass_us: f64,
    pub wire_parse_us: f64,
    pub wire_encode_us: f64,
}

impl Probes {
    /// The probes under their per-layer metric names.
    pub fn named(&self) -> [(&'static str, f64); 12] {
        [
            ("cache.l1_access_ns", self.l1_access_ns),
            ("cache.l2_access_ns", self.l2_access_ns),
            ("cache.directory_lookup_ns", self.directory_lookup_ns),
            ("sim.os_translate_ns", self.os_translate_ns),
            ("noc.send_ns", self.noc_send_ns),
            ("mem.enqueue_poll_ns", self.mem_enqueue_poll_ns),
            ("prefetch.on_demand_ns", self.prefetch_on_demand_ns),
            ("obs.sink_event_ns", self.obs_sink_event_ns),
            ("est.placement_eval_us", self.est_placement_eval_us),
            ("layout.pass_us", self.layout_pass_us),
            ("serve.wire_parse_us", self.wire_parse_us),
            ("serve.wire_encode_us", self.wire_encode_us),
        ]
    }
}

const PROBE_ROUNDS: usize = 5;

/// Median over `PROBE_ROUNDS` rounds of `round`'s wall time, in
/// nanoseconds per operation.
fn ns_per_op(ops: usize, mut round: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..PROBE_ROUNDS)
        .map(|_| {
            let t = Instant::now();
            round();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// A line stream with reuse: four fifths of the draws come from a hot
/// eighth of `working_set`, the rest from all of it.
fn skewed_lines(rng: &mut Rng, n: usize, working_set: u64) -> Vec<u64> {
    let hot = (working_set / 8).max(1);
    (0..n)
        .map(|_| {
            if rng.below(5) < 4 {
                rng.below(hot)
            } else {
                rng.below(working_set)
            }
        })
        .collect()
}

fn probe_cache(cfg: CacheConfig, lines: &[u64]) -> f64 {
    ns_per_op(lines.len(), || {
        let mut cache = SetAssocCache::new(cfg);
        let mut hits = 0u64;
        for &line in lines {
            hits += cache.access(line).hit as u64;
        }
        black_box(hits);
    })
}

/// Runs every probe. `submit_lines` and `payload` are wire samples from the
/// serve workload's generator.
pub fn run_probes(seed: &Rng, submit_lines: &[String], payload: &str) -> Probes {
    const N: usize = 200_000;
    let mut p = Probes::default();
    let sim = SimConfig {
        granularity: Granularity::CacheLine,
        ..SimConfig::scaled()
    };
    let mapping = L2ToMcMapping::nearest_cluster(sim.mesh, &sim.placement);
    let nodes = sim.num_nodes() as u64;

    // L1 and L2 at the scaled geometries the sweeps run: working sets four
    // times the capacity, so the streams mix hits, misses and evictions.
    let mut rng = seed.fork(1);
    let l1_lines = skewed_lines(&mut rng, N, 4 * sim.l1.size_bytes / sim.l1.line_bytes);
    p.l1_access_ns = probe_cache(sim.l1, &l1_lines);
    let l2_lines = skewed_lines(&mut rng, N, 4 * sim.l2.size_bytes / sim.l2.line_bytes);
    p.l2_access_ns = probe_cache(sim.l2, &l2_lines);

    // Directory: each op records a sharer and looks the line up from
    // another node, over a line set the size of a bench-scale footprint.
    let mut rng = seed.fork(2);
    let dir_ops: Vec<(u64, usize, usize)> = (0..N)
        .map(|_| {
            (
                rng.below(1 << 16),
                rng.below(nodes) as usize,
                rng.below(nodes) as usize,
            )
        })
        .collect();
    p.directory_lookup_ns = ns_per_op(N, || {
        let mut dir = Directory::new();
        let mut found = 0usize;
        for &(line, holder, requester) in &dir_ops {
            dir.add_sharer(line, holder);
            found += dir.lookup(line, requester).len();
        }
        black_box(found);
    });

    // Address translation over 8192 pages (32 MB, a bench-scale footprint);
    // the first touch of each page allocates, every later one only looks up.
    let mut rng = seed.fork(3);
    let pages = 8192u64;
    let vaddrs: Vec<(u64, NodeId)> = (0..N)
        .map(|_| {
            (
                rng.below(pages * sim.page_bytes),
                NodeId(rng.below(nodes) as u16),
            )
        })
        .collect();
    p.os_translate_ns = ns_per_op(N, || {
        let mut os = Os::new(
            sim.page_bytes,
            sim.memory_bytes,
            sim.num_mcs(),
            PagePolicy::Interleaved,
        );
        let mut sum = 0u64;
        for &(vaddr, node) in &vaddrs {
            sum = sum.wrapping_add(os.translate(vaddr, node, &mapping));
        }
        black_box(sum);
    });

    // Network: random source/destination pairs, control and data payloads
    // alternating, departure times rising so links drain as in a run.
    let mut rng = seed.fork(4);
    let data_bytes = sim.l2.line_bytes as u32 + sim.control_bytes;
    let sends: Vec<(NodeId, NodeId, u32, TrafficClass)> = (0..N)
        .map(|i| {
            let src = NodeId(rng.below(nodes) as u16);
            let dst = NodeId(rng.below(nodes) as u16);
            if i % 2 == 0 {
                (src, dst, sim.control_bytes, TrafficClass::OnChip)
            } else {
                (src, dst, data_bytes, TrafficClass::OffChip)
            }
        })
        .collect();
    p.noc_send_ns = ns_per_op(N, || {
        let mut net = Network::new(sim.mesh, NocConfig::default());
        let mut arrival = 0u64;
        for (i, &(src, dst, bytes, class)) in sends.iter().enumerate() {
            arrival = arrival.wrapping_add(net.send(src, dst, bytes, class, 4 * i as u64));
        }
        black_box(arrival);
    });

    // Memory controller: one enqueue and one poll per op, arrivals paced
    // just under the channel's service rate so the bank queues hold work
    // without growing, with row locality from short sequential runs.
    let mut rng = seed.fork(5);
    let mut addr = 0u64;
    let addrs: Vec<u64> = (0..N)
        .map(|i| {
            if i % 4 == 0 {
                addr = rng.below(1 << 26) & !(sim.l2.line_bytes - 1);
            } else {
                addr += sim.l2.line_bytes;
            }
            addr
        })
        .collect();
    p.mem_enqueue_poll_ns = ns_per_op(N, || {
        let mut mc = MemoryController::new(McConfig::default());
        let mut done = 0usize;
        for (i, &addr) in addrs.iter().enumerate() {
            let now = 24 * i as u64;
            done += mc.enqueue(addr, i as u64, now).len();
            done += mc.poll(now + 12).len();
        }
        black_box(done);
    });

    // Prefetcher: eight references, each walking its own stride, with the
    // outcome mix of a miss stream (L2 hits neither train nor trigger).
    let mut rng = seed.fork(6);
    let mut cursors = [0u64; 8];
    let demands: Vec<(u32, u64, DemandOutcome)> = (0..N)
        .map(|_| {
            let r = rng.below(8) as usize;
            cursors[r] += r as u64 + 1;
            let outcome = match rng.below(4) {
                0 => DemandOutcome::L2Hit,
                1 => DemandOutcome::OnChip,
                _ => DemandOutcome::OffChip,
            };
            (r as u32, ((r as u64) << 32) + cursors[r], outcome)
        })
        .collect();
    p.prefetch_on_demand_ns = ns_per_op(N, || {
        let mut pf = SlicePrefetcher::new(PrefetchConfig::with_mode(PrefetchMode::Gated));
        let mut summary = PrefetchSummary::default();
        let mut out = Vec::new();
        for &(ref_id, line, outcome) in &demands {
            out.clear();
            pf.on_demand(ref_id, line, outcome, &mut summary, &mut out);
        }
        black_box((summary, out.len()));
    });

    // Recording sink: the counter/window events every access and message
    // mirror into it (span events need a live request and are covered by
    // `obs.traced_slowdown` instead).
    let topo = Topology {
        mesh_width: sim.mesh.width() as usize,
        mesh_height: sim.mesh.height() as usize,
        mcs: sim.num_mcs(),
        banks_per_mc: sim.mc.banks,
    };
    p.obs_sink_event_ns = ns_per_op(N, || {
        let sink = Sink::recording(topo, ObsConfig::default());
        for i in 0..N as u64 {
            let node = (i % nodes) as u16;
            match i % 4 {
                0 => sink.access(i, node),
                1 => sink.net_msg(NetClass::OffChip, (i % 14) as usize, 20 + i % 64, i),
                2 => sink.mc_enqueue((i % 4) as u16, (i % 7) as usize, i),
                _ => sink.dir_lookup(i, node, i % 8 == 3),
            }
        }
        black_box(sink.into_report(N as u64).is_some());
    });

    // Estimator scoring and the layout pass over the search's curated
    // candidates, for three applications at test scale (scoring cost is
    // scale-insensitive).
    let apps = build_apps(Scale::Test, &["swim", "fma3d", "hpccg"]);
    let candidates = curated(&sim.mesh, &[Granularity::CacheLine, Granularity::Page]);
    let placed: Vec<_> = candidates
        .iter()
        .map(|c| {
            let placement = c
                .placement(&sim.mesh)
                .expect("curated candidates are legal by construction");
            let cfg = SimConfig {
                granularity: c.granularity,
                placement: placement.mc_placement().clone(),
                ..sim.clone()
            };
            (placement, cfg, c.approx)
        })
        .collect();
    let evals = apps.len() * placed.len();
    p.est_placement_eval_us = ns_per_op(evals, || {
        let mut acc = 0.0;
        for app in &apps {
            for (placement, cfg, approx) in &placed {
                acc += estimate_placement(app, placement, cfg, RunKind::Optimized, *approx)
                    .avg_offchip_hops;
            }
        }
        black_box(acc);
    }) / 1e3;
    p.layout_pass_us = ns_per_op(evals, || {
        for app in &apps {
            for (placement, cfg, approx) in &placed {
                black_box(layout_with(
                    app,
                    placement.mapping(),
                    cfg,
                    RunKind::Optimized,
                    *approx,
                ));
            }
        }
    }) / 1e3;

    // Wire: parse submit lines, encode result replies.
    p.wire_parse_us = ns_per_op(submit_lines.len(), || {
        let mut ok = 0usize;
        for line in submit_lines {
            ok += parse_request(line).is_ok() as usize;
        }
        assert_eq!(
            ok,
            submit_lines.len(),
            "a generated submit line failed to parse"
        );
    }) / 1e3;
    let replies: Vec<Response> = (0..submit_lines.len() as u64)
        .map(|id| Response::ResultOk {
            id,
            result: payload.to_string(),
        })
        .collect();
    p.wire_encode_us = ns_per_op(replies.len(), || {
        let mut bytes = 0usize;
        for r in &replies {
            bytes += encode_response(r).len();
        }
        black_box(bytes);
    }) / 1e3;

    p
}
