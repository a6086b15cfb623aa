//! # hoploc-harness
//!
//! The suite harness: one code path that evaluates the full
//! (application × run-kind) matrix of the PLDI'15 reproduction — for the
//! integration tests, the figure benches, the `hoploc` binary, and the
//! examples — in parallel, with memoization of the expensive stages.
//!
//! Two content-keyed caches sit under every run:
//!
//! * **Layout plans.** [`hoploc_workloads::layout_with`] output per
//!   (app, layout class). The
//!   Baseline, FirstTouch, and Optimal run kinds all use the original
//!   (baseline) layouts, so one compile serves three run kinds; Optimized
//!   compiles once and is reused across repeat runs.
//! * **Trace workloads.** Generated access traces (plus the compiler's
//!   desired-page map) per (app, layout class). Trace generation walks
//!   every iteration of every nest and dominates sweep time; Baseline,
//!   FirstTouch, and Optimal runs of the same app share one generation.
//!
//! Parallel execution is *observably deterministic*: results are collected
//! by spec index, every cached artifact is a pure function of its key, all
//! per-run randomness is derived from fixed per-thread seeds inside trace
//! generation, and the memory controller / network / cache models carry no
//! cross-run state. A [`Suite::run_matrix`] at any `jobs` count is
//! bit-identical (`RunStats: PartialEq`, including the floating-point link
//! utilizations) to the sequential path — the integration suite asserts
//! this against `run_app` itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use hoploc_fault::{FaultPlan, FaultTopo};
use hoploc_noc::{L2ToMcMapping, McId};
use hoploc_obs::{ObsConfig, ObsReport};
use hoploc_sim::{AddressSpace, RunStats, SimConfig, Simulator, TraceWorkload};
use hoploc_workloads::{App, RunKind, TraceGen};

pub use hoploc_workloads::RunKind as Kind;

/// One cell of the run matrix: which app (by index into the suite) and
/// which side of the comparison.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunSpec {
    /// Index into [`Suite::apps`].
    pub app: usize,
    /// Which run kind to simulate.
    pub kind: RunKind,
}

/// A finished run: the spec it came from plus its statistics.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Application name.
    pub app: String,
    /// Run kind.
    pub kind: RunKind,
    /// Full simulation statistics.
    pub stats: RunStats,
}

impl RunRecord {
    /// The record of a run made outside [`Suite`]'s own fan-out.
    pub fn new(app: impl Into<String>, kind: RunKind, stats: RunStats) -> Self {
        Self {
            app: app.into(),
            kind,
            stats,
        }
    }
}

/// A finished traced run: statistics plus the observability report
/// (spans, metric registry, exportable snapshots).
#[derive(Debug)]
pub struct TracedRecord {
    /// Application name.
    pub app: String,
    /// Run kind.
    pub kind: RunKind,
    /// Full simulation statistics.
    pub stats: RunStats,
    /// The run's observability report.
    pub report: ObsReport,
}

/// Which compiled layout a run kind uses — the cache key discriminant.
/// Baseline, FirstTouch, and Optimal all run the original layouts.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum LayoutClass {
    Baseline,
    Optimized,
}

impl LayoutClass {
    fn of(kind: RunKind) -> Self {
        match kind {
            RunKind::Optimized => LayoutClass::Optimized,
            RunKind::Baseline | RunKind::FirstTouch | RunKind::Optimal => LayoutClass::Baseline,
        }
    }
}

/// One slot of a [`Memo`]: the compute-once cell plus the logical access
/// time used by the eviction policy.
struct MemoEntry<V> {
    cell: Arc<OnceLock<Arc<V>>>,
    last_used: u64,
}

/// A compute-once memo table. Concurrent lookups of the same key block on
/// one computation (via `OnceLock`), so every artifact is built exactly
/// once per table regardless of the thread schedule.
///
/// With a capacity (`cap = Some(n)`), the table holds at most `n`
/// *completed* entries: inserting past the cap evicts the
/// least-recently-used initialized entry. In-flight cells (still being
/// built) are never evicted, so the table can transiently exceed the cap
/// while builds race; outstanding `Arc<V>` handles keep evicted artifacts
/// alive until their users drop them. Because every artifact is a pure
/// function of its key, an evict-then-rebuild returns a bit-identical
/// value — eviction trades recompute time for bounded residency, which is
/// what a long-lived server process needs.
pub struct Memo<K, V> {
    map: Mutex<HashMap<K, MemoEntry<V>>>,
    tick: AtomicU64,
    cap: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Eq + Hash + Clone, V> Memo<K, V> {
    /// An empty table holding at most `cap` completed entries (`None` =
    /// unbounded; a cap of 0 is treated as 1).
    pub fn new(cap: Option<usize>) -> Self {
        Self {
            map: Mutex::new(HashMap::new()),
            tick: AtomicU64::new(0),
            cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The value under `key`, running `build` if no completed or in-flight
    /// entry holds it.
    pub fn get_or(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        let cell = {
            let mut map = self.map.lock().expect("memo poisoned");
            let entry = map.entry(key.clone()).or_insert_with(|| MemoEntry {
                cell: Arc::new(OnceLock::new()),
                last_used: now,
            });
            entry.last_used = now;
            entry.cell.clone()
        };
        // A miss is a build actually performed by this call; a lookup that
        // waits out (or arrives after) another thread's build is a hit.
        // Counting at the init closure keeps misses == builds even when
        // concurrent lookups race on an uninitialized cell.
        let mut built = false;
        let value = cell
            .get_or_init(|| {
                built = true;
                Arc::new(build())
            })
            .clone();
        if built {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(cap) = self.cap {
            self.evict_to(cap, &key);
        }
        value
    }

    /// Puts an already built `value` under `key`, replacing whatever was
    /// there: later lookups are hits, and no build is counted. The capacity
    /// is enforced by the next [`get_or`](Self::get_or).
    fn seed(&self, key: K, value: Arc<V>) {
        let entry = MemoEntry {
            cell: Arc::new(OnceLock::from(value)),
            last_used: self.tick.fetch_add(1, Ordering::Relaxed),
        };
        self.map.lock().expect("memo poisoned").insert(key, entry);
    }

    /// Evicts least-recently-used *initialized* entries until at most `cap`
    /// remain, never removing `keep` (the key the caller just touched).
    fn evict_to(&self, cap: usize, keep: &K) {
        let mut map = self.map.lock().expect("memo poisoned");
        while map.len() > cap.max(1) {
            let victim = map
                .iter()
                .filter(|(k, e)| *k != keep && e.cell.get().is_some())
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    map.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                // Everything else is still in flight: allow the transient
                // overflow rather than tearing down a racing build.
                None => break,
            }
        }
    }

    /// Entries currently held, in-flight ones included.
    pub fn resident(&self) -> usize {
        self.map.lock().expect("memo poisoned").len()
    }
}

/// Everything trace generation produces for one (app, layout class):
/// the workload plus the compiler's desired-page map (used only by
/// Optimized runs, empty for baseline layouts).
struct TraceBundle {
    workload: TraceWorkload,
    desired: HashMap<u64, McId>,
}

/// Cache traffic counters of one suite, for the aggregated report.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheCounters {
    /// Layout-plan cache hits / misses.
    pub layout_hits: u64,
    /// Layout-plan cache misses (compiles performed).
    pub layout_misses: u64,
    /// Layout-plan entries evicted by the capacity bound.
    pub layout_evictions: u64,
    /// Trace cache hits.
    pub trace_hits: u64,
    /// Trace cache misses (generations performed).
    pub trace_misses: u64,
    /// Trace entries evicted by the capacity bound.
    pub trace_evictions: u64,
}

/// A fixed (apps, mapping, config, threads-per-core) context whose run
/// matrix can be evaluated in parallel with shared caches.
///
/// Configurations are part of the key by construction: one `Suite` is one
/// config, and experiments that sweep configs (mesh sizes, placements,
/// granularities) build one suite per point.
pub struct Suite {
    /// Shared, not owned: suites of one application set (a server's pool,
    /// a search's verification runs) hold one copy of the programs.
    apps: Arc<[App]>,
    mapping: L2ToMcMapping,
    sim: SimConfig,
    threads_per_core: usize,
    approx_threshold: f64,
    layouts: Memo<(usize, LayoutClass), hoploc_layout::ProgramLayout>,
    traces: Memo<(usize, LayoutClass), TraceBundle>,
}

impl Suite {
    /// Creates a suite over `apps` under one mapping and simulator config.
    /// The layout/trace caches are unbounded — right for one-shot sweeps
    /// where the whole matrix is live at once; resident processes should
    /// bound them with [`with_cache_caps`](Self::with_cache_caps).
    pub fn new(apps: impl Into<Arc<[App]>>, mapping: L2ToMcMapping, sim: SimConfig) -> Self {
        Self {
            apps: apps.into(),
            mapping,
            sim,
            threads_per_core: 1,
            approx_threshold: hoploc_layout::PassConfig::default().approx_threshold,
            layouts: Memo::new(None),
            traces: Memo::new(None),
        }
    }

    /// Creates a suite whose geometry comes from a unified
    /// [`hoploc_noc::Placement`]: the config's MC placement and the
    /// mapping are taken from the same value, so the simulator's
    /// placement/mapping agreement assertion holds by construction.
    /// Design-space search verifies candidates through this entry point.
    pub fn for_placement(
        apps: impl Into<Arc<[App]>>,
        placement: &hoploc_noc::Placement,
        sim: SimConfig,
    ) -> Self {
        let cfg = SimConfig {
            placement: placement.mc_placement().clone(),
            ..sim
        };
        Self::new(apps, placement.mapping().clone(), cfg)
    }

    /// Sets the threads-per-core count (Figure 24). Resets nothing: the
    /// builder is consumed before any run.
    pub fn with_threads_per_core(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread per core");
        self.threads_per_core = threads;
        self
    }

    /// Sets the layout pass's approximation threshold for Optimized
    /// layouts. Builder-style: call before the first run, so the layout
    /// cache never mixes plans compiled under different thresholds.
    pub fn with_approx_threshold(mut self, approx_threshold: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&approx_threshold),
            "approx threshold must be a fraction"
        );
        self.approx_threshold = approx_threshold;
        self
    }

    /// Hands the suite the layout plan of one matrix cell instead of having
    /// it compile one: runs of `app` in `kind`'s layout class replay `plan`
    /// itself. The caller vouches that `plan` is what the suite would have
    /// compiled — same program, mapping, machine and threshold (a search
    /// passes the plan its scorer compiled for the candidate being
    /// verified). Builder-style: call after
    /// [`with_cache_caps`](Self::with_cache_caps), which empties the caches,
    /// and before the first run.
    ///
    /// # Panics
    ///
    /// Panics if the plan binds another number of threads than the machine
    /// has nodes.
    pub fn with_layout_plan(
        self,
        app: usize,
        kind: RunKind,
        plan: Arc<hoploc_layout::ProgramLayout>,
    ) -> Self {
        assert_eq!(
            plan.binding().len(),
            self.sim.num_nodes(),
            "seeded layout plan was compiled for another mesh"
        );
        self.layouts.seed((app, LayoutClass::of(kind)), plan);
        self
    }

    /// Bounds the layout and trace caches to at most `layout_cap` /
    /// `trace_cap` completed entries each (least-recently-used eviction;
    /// `0` means unbounded). Builder-style: call before the first run. The
    /// caps never change results — every cached artifact is a pure
    /// function of its key, so a rebuild after eviction is bit-identical —
    /// they only bound the memory a long-lived process can pin.
    pub fn with_cache_caps(mut self, layout_cap: usize, trace_cap: usize) -> Self {
        let cap = |n: usize| if n == 0 { None } else { Some(n) };
        self.layouts = Memo::new(cap(layout_cap));
        self.traces = Memo::new(cap(trace_cap));
        self
    }

    /// The applications in suite order.
    pub fn apps(&self) -> &[App] {
        &self.apps
    }

    /// The L2-to-MC mapping all runs use.
    pub fn mapping(&self) -> &L2ToMcMapping {
        &self.mapping
    }

    /// The simulator configuration all runs use.
    pub fn sim(&self) -> &SimConfig {
        &self.sim
    }

    /// Builds the full matrix: every app crossed with every given kind,
    /// apps varying fastest (matching the sequential suite loops).
    pub fn full_matrix(&self, kinds: &[RunKind]) -> Vec<RunSpec> {
        let mut specs = Vec::with_capacity(self.apps.len() * kinds.len());
        for &kind in kinds {
            for app in 0..self.apps.len() {
                specs.push(RunSpec { app, kind });
            }
        }
        specs
    }

    /// The compiled (or original) layout plan for one matrix cell, through
    /// the layout-plan cache.
    fn layout(&self, app: usize, class: LayoutClass) -> Arc<hoploc_layout::ProgramLayout> {
        let kind = match class {
            LayoutClass::Baseline => RunKind::Baseline,
            LayoutClass::Optimized => RunKind::Optimized,
        };
        self.layouts.get_or((app, class), || {
            hoploc_workloads::layout_with(
                &self.apps[app],
                &self.mapping,
                &self.sim,
                kind,
                self.approx_threshold,
            )
        })
    }

    /// The generated trace workload (and desired-page map) for one matrix
    /// cell, through the trace cache.
    fn traces(&self, app: usize, class: LayoutClass) -> Arc<TraceBundle> {
        self.traces.get_or((app, class), || {
            let layout = self.layout(app, class);
            let a = &self.apps[app];
            let space = AddressSpace::build(&a.program, &layout, 0);
            let desired = match class {
                LayoutClass::Optimized => {
                    space.desired_page_mcs(&a.program, &layout, self.sim.page_bytes)
                }
                LayoutClass::Baseline => HashMap::new(),
            };
            let gen = TraceGen {
                threads_per_core: self.threads_per_core,
                ..a.gen
            };
            let workload = hoploc_workloads::generate_traces(&a.program, &layout, &space, &gen);
            TraceBundle { workload, desired }
        })
    }

    /// The compiled (or original) layout plan for one matrix cell, shared
    /// through the suite's layout cache. This is the cross-validation entry
    /// point the static estimator (`hoploc-est`) uses: predictions are made
    /// from the *same* plan object the cycle simulation replays, so a
    /// prediction/simulation mismatch can only come from the model, never
    /// from divergent layout inputs.
    pub fn layout_plan(&self, app: usize, kind: RunKind) -> Arc<hoploc_layout::ProgramLayout> {
        self.layout(app, LayoutClass::of(kind))
    }

    /// Builds the simulator and workload for one matrix cell — the shared
    /// setup under both the plain and traced run paths.
    fn prepare(&self, spec: RunSpec) -> (Simulator, Arc<TraceBundle>) {
        self.prepare_faulted(spec, None)
    }

    /// [`prepare`](Self::prepare) with an optional fault-plan override:
    /// `Some(plan)` replaces whatever `sim.faults` the suite config holds.
    fn prepare_faulted(
        &self,
        spec: RunSpec,
        faults: Option<&FaultPlan>,
    ) -> (Simulator, Arc<TraceBundle>) {
        let app = &self.apps[spec.app];
        let class = LayoutClass::of(spec.kind);
        let bundle = self.traces(spec.app, class);
        let policy = hoploc_workloads::page_policy(spec.kind, bundle.desired.clone());
        let mut cfg = self.sim.clone();
        if let Some(plan) = faults {
            cfg.faults = Some(plan.clone());
        }
        cfg.optimal = spec.kind == RunKind::Optimal;
        cfg.mlp = app.mlp;
        let sim = Simulator::new(cfg, self.mapping.clone(), policy);
        (sim, bundle)
    }

    /// Runs one matrix cell. Pure in the spec: bit-identical to
    /// `hoploc_workloads::run_app_threads` with the same arguments.
    pub fn run_one(&self, spec: RunSpec) -> RunStats {
        let (sim, bundle) = self.prepare(spec);
        sim.run(&bundle.workload)
    }

    /// Runs one matrix cell with observability enabled. The statistics are
    /// bit-identical to [`run_one`](Self::run_one) — the sink only mirrors
    /// what the models already compute — and the report's counters mirror
    /// those statistics exactly.
    pub fn run_one_traced(&self, spec: RunSpec, obs: ObsConfig) -> (RunStats, ObsReport) {
        let (sim, bundle) = self.prepare(spec);
        sim.with_obs(obs).run_traced(&bundle.workload)
    }

    /// Runs one matrix cell under a fault plan. The empty plan is provably
    /// inert: `run_one_faulted(spec, &FaultPlan::none())` is bit-identical
    /// to [`run_one`](Self::run_one) (asserted by the fault suite).
    pub fn run_one_faulted(&self, spec: RunSpec, plan: &FaultPlan) -> RunStats {
        let (sim, bundle) = self.prepare_faulted(spec, Some(plan));
        sim.run(&bundle.workload)
    }

    /// [`run_one_faulted`](Self::run_one_faulted) with observability.
    pub fn run_one_faulted_traced(
        &self,
        spec: RunSpec,
        plan: &FaultPlan,
        obs: ObsConfig,
    ) -> (RunStats, ObsReport) {
        let (sim, bundle) = self.prepare_faulted(spec, Some(plan));
        sim.with_obs(obs).run_traced(&bundle.workload)
    }

    /// Fans a fault-plan sweep of one matrix cell across `jobs` workers,
    /// collected in plan order (deterministic at any job count, like
    /// [`run_matrix`](Self::run_matrix)).
    pub fn run_fault_sweep(
        &self,
        spec: RunSpec,
        plans: &[FaultPlan],
        jobs: usize,
    ) -> Vec<RunStats> {
        parallel_map(plans, jobs, |plan| self.run_one_faulted(spec, plan))
    }

    /// Runs a matrix of specs across `jobs` worker threads and collects
    /// results **by index**: the output order is the spec order no matter
    /// how the scheduler interleaves workers, and every record is
    /// bit-identical to what `jobs = 1` (or the un-cached sequential path)
    /// produces.
    pub fn run_matrix(&self, specs: &[RunSpec], jobs: usize) -> Vec<RunRecord> {
        let stats = parallel_map(specs, jobs, |spec| self.run_one(*spec));
        specs
            .iter()
            .zip(stats)
            .map(|(spec, stats)| RunRecord {
                app: self.apps[spec.app].name().to_string(),
                kind: spec.kind,
                stats,
            })
            .collect()
    }

    /// Convenience: run the full (apps × kinds) matrix.
    pub fn run_full(&self, kinds: &[RunKind], jobs: usize) -> Vec<RunRecord> {
        self.run_matrix(&self.full_matrix(kinds), jobs)
    }

    /// Runs a matrix of specs with observability enabled on every cell,
    /// across `jobs` workers, collected by index like
    /// [`run_matrix`](Self::run_matrix). Each run owns its sink, so the
    /// parallel fan-out stays deterministic: only the finished
    /// [`ObsReport`]s (plain data) cross threads.
    pub fn run_matrix_traced(
        &self,
        specs: &[RunSpec],
        jobs: usize,
        obs: ObsConfig,
    ) -> Vec<TracedRecord> {
        let results = parallel_map(specs, jobs, |spec| self.run_one_traced(*spec, obs));
        specs
            .iter()
            .zip(results)
            .map(|(spec, (stats, report))| TracedRecord {
                app: self.apps[spec.app].name().to_string(),
                kind: spec.kind,
                stats,
                report,
            })
            .collect()
    }

    /// Convenience: run the full (apps × kinds) matrix with tracing.
    pub fn run_full_traced(
        &self,
        kinds: &[RunKind],
        jobs: usize,
        obs: ObsConfig,
    ) -> Vec<TracedRecord> {
        self.run_matrix_traced(&self.full_matrix(kinds), jobs, obs)
    }

    /// Cache counters accumulated so far.
    pub fn cache_counters(&self) -> CacheCounters {
        CacheCounters {
            layout_hits: self.layouts.hits.load(Ordering::Relaxed),
            layout_misses: self.layouts.misses.load(Ordering::Relaxed),
            layout_evictions: self.layouts.evictions.load(Ordering::Relaxed),
            trace_hits: self.traces.hits.load(Ordering::Relaxed),
            trace_misses: self.traces.misses.load(Ordering::Relaxed),
            trace_evictions: self.traces.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Maps `f` over `items` across `jobs` worker threads and collects the
/// results **by index**: the output order is the item order no matter how
/// the scheduler interleaves workers. Workers pull items off a shared
/// atomic queue, so uneven item costs balance automatically. With
/// `jobs <= 1` (or a single item) this degenerates to a sequential map.
///
/// This is the fan-out primitive under [`Suite::run_matrix`] and the
/// `hoploc check` subcommand; `f` must be pure in its item for the
/// determinism guarantee to mean anything.
pub fn parallel_map<T: Sync, R: Send + Sync>(
    items: &[T],
    jobs: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let jobs = jobs.clamp(1, items.len().max(1));
    let slots: Vec<OnceLock<R>> = items.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                if slots[i].set(r).is_err() {
                    unreachable!("item index claimed twice");
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("invariant: the scope joins every worker, so each slot was filled")
        })
        .collect()
}

/// The fault-plan topology implied by a simulator configuration: the shape
/// [`hoploc_fault::FaultPlan::from_seed`] generates against and
/// [`hoploc_fault::FaultPlan::validate`] checks.
pub fn fault_topo(sim: &SimConfig) -> FaultTopo {
    FaultTopo {
        links: (sim.num_nodes() * 4) as u32,
        mcs: sim.num_mcs() as u16,
        banks_per_mc: sim.mc.banks as u16,
    }
}

/// A sensible default worker count: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Lower-case display name of a run kind (stable across `Debug` changes).
pub fn kind_name(kind: RunKind) -> &'static str {
    match kind {
        RunKind::Baseline => "baseline",
        RunKind::Optimized => "optimized",
        RunKind::FirstTouch => "first-touch",
        RunKind::Optimal => "optimal",
    }
}

/// Renders the aggregated per-run statistics table every harness consumer
/// prints: one row per record, in spec order.
pub fn render_table(records: &[RunRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<11} {:<12} {:>12} {:>12} {:>10} {:>9} {:>10}",
        "app", "kind", "exec cycles", "accesses", "off-chip", "avg hops", "mem lat"
    );
    for r in records {
        let _ = writeln!(
            out,
            "{:<11} {:<12} {:>12} {:>12} {:>10} {:>9.2} {:>10.1}",
            r.app,
            kind_name(r.kind),
            r.stats.exec_cycles,
            r.stats.total_accesses,
            r.stats.offchip_accesses,
            r.stats.net.off_chip.avg_hops(),
            r.stats.memory_latency(),
        );
    }
    out
}

/// Serializes one run record as a single-line JSON object — the canonical
/// machine-readable form of a run. This is the *unit* every consumer
/// agrees on byte-for-byte: [`to_json`] embeds it per run, and the
/// `hoploc-serve` job server replies with exactly these bytes, so a served
/// result can be compared literally against a direct `run_matrix` run.
pub fn record_json(r: &RunRecord) -> String {
    let s = &r.stats;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"app\": {}, \"kind\": \"{}\", \"exec_cycles\": {}, \
         \"total_accesses\": {}, \"l1_hits\": {}, \"l2_hits\": {}, \
         \"cache_to_cache\": {}, \"offchip_accesses\": {}, \
         \"offchip_fraction\": {:.6}, \"avg_offchip_hops\": {:.6}, \
         \"onchip_net_latency\": {:.6}, \"offchip_net_latency\": {:.6}, \
         \"memory_latency\": {:.6}, \"os_fallbacks\": {}, \
         \"rehomed\": {}, \"dropped\": {}, \"backstop_flushes\": {}}}",
        json_string(&r.app),
        kind_name(r.kind),
        s.exec_cycles,
        s.total_accesses,
        s.l1_hits,
        s.l2_hits,
        s.cache_to_cache,
        s.offchip_accesses,
        s.offchip_fraction(),
        s.net.off_chip.avg_hops(),
        s.onchip_net_latency(),
        s.offchip_net_latency(),
        s.memory_latency(),
        s.os_fallbacks,
        s.rehomed_requests,
        s.dropped_requests,
        s.backstop_flushes,
    );
    // The prefetch block exists only when the run prefetched: an Off run's
    // record stays byte-identical to pre-prefetch builds.
    if !s.prefetch.is_empty() {
        let p = &s.prefetch;
        out.truncate(out.len() - 1);
        let _ = write!(
            out,
            ", \"prefetch\": {{\"issued\": {}, \"useful\": {}, \"late\": {}, \
             \"harmful\": {}, \"dropped\": {}, \"accuracy\": {:.6}, \
             \"coverage\": {:.6}, \"pred_accuracy\": {:.6}}}}}",
            p.issued,
            p.useful,
            p.late,
            p.harmful,
            p.dropped,
            p.accuracy(),
            p.coverage(s.offchip_accesses),
            p.pred_accuracy(),
        );
    }
    out
}

/// Serializes run records (plus optional cache counters) as a JSON
/// document — the machine-readable summary `BENCH_*.json` trajectories
/// are built from. Hand-rolled: the workspace has no serde and builds
/// offline.
pub fn to_json(records: &[RunRecord], counters: Option<CacheCounters>) -> String {
    let mut out = String::from("{\n  \"runs\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&record_json(r));
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]");
    if let Some(c) = counters {
        let _ = write!(
            out,
            ",\n  \"cache\": {{\"layout_hits\": {}, \"layout_misses\": {}, \
             \"layout_evictions\": {}, \"trace_hits\": {}, \"trace_misses\": {}, \
             \"trace_evictions\": {}}}",
            c.layout_hits,
            c.layout_misses,
            c.layout_evictions,
            c.trace_hits,
            c.trace_misses,
            c.trace_evictions
        );
    }
    out.push_str("\n}\n");
    out
}

/// JSON string literal with escaping.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoploc_noc::Mesh;
    use hoploc_workloads::{mgrid, run_app, swim, Scale};

    fn suite2() -> Suite {
        let sim = SimConfig::scaled();
        let mapping = L2ToMcMapping::nearest_cluster(Mesh::new(8, 8), &sim.placement);
        Suite::new(vec![swim(Scale::Test), mgrid(Scale::Test)], mapping, sim)
    }

    #[test]
    fn parallel_matches_sequential_and_run_app() {
        let s = suite2();
        let kinds = [
            RunKind::Baseline,
            RunKind::Optimized,
            RunKind::FirstTouch,
            RunKind::Optimal,
        ];
        let specs = s.full_matrix(&kinds);
        let par = s.run_matrix(&specs, 4);
        let seq = s.run_matrix(&specs, 1);
        for ((p, q), spec) in par.iter().zip(&seq).zip(&specs) {
            assert_eq!(p.stats, q.stats, "jobs=4 diverged from jobs=1 on {spec:?}");
            let direct = run_app(&s.apps()[spec.app], s.mapping(), s.sim(), spec.kind);
            assert_eq!(p.stats, direct, "harness diverged from run_app on {spec:?}");
        }
    }

    #[test]
    fn caches_share_baseline_class_work() {
        let s = suite2();
        let kinds = [RunKind::Baseline, RunKind::FirstTouch, RunKind::Optimal];
        s.run_full(&kinds, 2);
        let c = s.cache_counters();
        // 2 apps × 1 baseline layout class: exactly 2 trace generations
        // serve all 6 runs.
        assert_eq!(c.trace_misses, 2, "{c:?}");
        assert_eq!(c.trace_hits, 4, "{c:?}");
    }

    #[test]
    fn seeded_layout_plan_is_replayed_not_recompiled() {
        let spec = RunSpec {
            app: 1,
            kind: RunKind::Optimized,
        };
        let compiling = suite2();
        let plan = compiling.layout_plan(spec.app, spec.kind);
        let want = compiling.run_one(spec);
        assert_eq!(compiling.cache_counters().layout_misses, 1);

        let seeded = suite2().with_layout_plan(spec.app, spec.kind, plan.clone());
        assert_eq!(seeded.run_one(spec), want);
        assert!(Arc::ptr_eq(&seeded.layout_plan(spec.app, spec.kind), &plan));
        let c = seeded.cache_counters();
        assert_eq!(c.layout_misses, 0, "{c:?}");
        assert_eq!(c.trace_misses, 1, "{c:?}");
        // The other cells of the suite still compile their own.
        seeded.run_one(RunSpec { app: 0, ..spec });
        assert_eq!(seeded.cache_counters().layout_misses, 1);
    }

    #[test]
    #[should_panic(expected = "compiled for another mesh")]
    fn seeding_a_plan_for_another_mesh_is_refused() {
        let small = hoploc_layout::baseline_layout(&swim(Scale::Test).program, 16);
        let _ = suite2().with_layout_plan(0, RunKind::Baseline, Arc::new(small));
    }

    #[test]
    fn traced_matrix_matches_untraced_and_is_deterministic() {
        let s = suite2();
        let kinds = [RunKind::Baseline, RunKind::Optimized];
        let specs = s.full_matrix(&kinds);
        let plain = s.run_matrix(&specs, 2);
        let par = s.run_matrix_traced(&specs, 4, ObsConfig::default());
        let seq = s.run_matrix_traced(&specs, 1, ObsConfig::default());
        for ((p, q), r) in par.iter().zip(&seq).zip(&plain) {
            assert_eq!(p.stats, r.stats, "tracing perturbed the simulation");
            assert_eq!(p.stats, q.stats, "jobs=4 diverged from jobs=1");
            assert_eq!(
                p.report.metrics_json(),
                q.report.metrics_json(),
                "metrics snapshot differs across job counts"
            );
            assert_eq!(
                p.report.chrome_trace_json(),
                q.report.chrome_trace_json(),
                "event stream differs across job counts"
            );
            assert_eq!(p.report.offchip(), r.stats.offchip_accesses);
        }
    }

    #[test]
    fn records_keep_spec_order() {
        let s = suite2();
        let specs = vec![
            RunSpec {
                app: 1,
                kind: RunKind::Optimized,
            },
            RunSpec {
                app: 0,
                kind: RunKind::Baseline,
            },
        ];
        let recs = s.run_matrix(&specs, 8);
        assert_eq!(recs[0].app, "mgrid");
        assert_eq!(recs[1].app, "swim");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let s = suite2();
        let recs = s.run_matrix(
            &[RunSpec {
                app: 0,
                kind: RunKind::Baseline,
            }],
            1,
        );
        let j = to_json(&recs, Some(s.cache_counters()));
        assert!(j.starts_with("{\n"));
        assert!(j.contains("\"app\": \"swim\""));
        assert!(j.contains("\"kind\": \"baseline\""));
        assert!(j.contains("\"cache\""));
        assert!(j.trim_end().ends_with('}'));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn fault_sweep_is_deterministic_and_empty_plan_inert() {
        use hoploc_fault::FaultRates;
        let s = suite2();
        let spec = RunSpec {
            app: 0,
            kind: RunKind::Baseline,
        };
        // Empty plan == no plan, bit for bit.
        assert_eq!(
            s.run_one_faulted(spec, &FaultPlan::none()),
            s.run_one(spec),
            "empty plan must be inert"
        );
        let topo = fault_topo(s.sim());
        let plans: Vec<FaultPlan> = (0..6)
            .map(|seed| FaultPlan::from_seed(seed, &topo, &FaultRates::moderate()))
            .collect();
        let par = s.run_fault_sweep(spec, &plans, 4);
        let seq = s.run_fault_sweep(spec, &plans, 1);
        assert_eq!(par, seq, "fault sweep diverged across job counts");
    }

    #[test]
    fn bounded_memo_evicts_lru_and_rebuilds_identically() {
        let memo: Memo<u32, u32> = Memo::new(Some(2));
        assert_eq!(*memo.get_or(1, || 10), 10);
        assert_eq!(*memo.get_or(2, || 20), 20);
        assert_eq!(*memo.get_or(1, || 10), 10); // refresh key 1
        assert_eq!(*memo.get_or(3, || 30), 30); // evicts key 2 (LRU)
        assert_eq!(memo.resident(), 2);
        assert_eq!(memo.evictions.load(Ordering::Relaxed), 1);
        // Key 2 was evicted: rebuilding is a miss but yields the same value.
        assert_eq!(*memo.get_or(2, || 20), 20);
        assert_eq!(memo.evictions.load(Ordering::Relaxed), 2);
        assert_eq!(memo.hits.load(Ordering::Relaxed), 1);
        assert_eq!(memo.misses.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn bounded_memo_is_safe_under_contention() {
        let memo: Memo<u64, u64> = Memo::new(Some(3));
        let keys: Vec<u64> = (0..64).map(|i| i % 9).collect();
        let out = parallel_map(&keys, 8, |&k| *memo.get_or(k, || k * k));
        for (k, v) in keys.iter().zip(out) {
            assert_eq!(v, k * k);
        }
        assert!(
            memo.resident() <= 3 + 8,
            "cap plus in-flight slack exceeded"
        );
    }

    #[test]
    fn bounded_suite_caches_match_unbounded_results() {
        let kinds = [RunKind::Baseline, RunKind::Optimized, RunKind::Optimal];
        let unbounded = suite2();
        let plain = unbounded.run_full(&kinds, 2);
        let sim = SimConfig::scaled();
        let mapping = L2ToMcMapping::nearest_cluster(Mesh::new(8, 8), &sim.placement);
        let bounded = Suite::new(vec![swim(Scale::Test), mgrid(Scale::Test)], mapping, sim)
            .with_cache_caps(1, 1);
        let tight = bounded.run_full(&kinds, 2);
        for (a, b) in plain.iter().zip(&tight) {
            assert_eq!(a.stats, b.stats, "eviction changed a result");
        }
        let c = bounded.cache_counters();
        assert!(
            c.layout_evictions > 0 && c.trace_evictions > 0,
            "cap 1 across 2 apps x 2 layout classes must evict: {c:?}"
        );
    }

    #[test]
    fn record_json_is_the_unit_of_to_json() {
        let s = suite2();
        let recs = s.run_matrix(
            &[RunSpec {
                app: 0,
                kind: RunKind::Baseline,
            }],
            1,
        );
        let unit = record_json(&recs[0]);
        assert!(unit.starts_with('{') && unit.ends_with('}'));
        assert!(!unit.contains('\n'), "record_json must be single-line");
        assert!(to_json(&recs, None).contains(&unit));
    }

    #[test]
    fn record_json_adds_prefetch_block_only_when_prefetching_happened() {
        use hoploc_sim::{PrefetchConfig, PrefetchMode};
        let spec = [RunSpec {
            app: 0,
            kind: RunKind::Optimized,
        }];
        let off = suite2().run_matrix(&spec, 1);
        let off_json = record_json(&off[0]);
        assert!(
            !off_json.contains("prefetch"),
            "prefetch-off records must stay byte-identical to pre-prefetch \
             builds: {off_json}"
        );

        let mut sim = SimConfig::scaled();
        sim.prefetch = PrefetchConfig::with_mode(PrefetchMode::Gated);
        let mapping = L2ToMcMapping::nearest_cluster(Mesh::new(8, 8), &sim.placement);
        let on = Suite::new(vec![swim(Scale::Test), mgrid(Scale::Test)], mapping, sim)
            .run_matrix(&spec, 1);
        let on_json = record_json(&on[0]);
        assert!(
            on_json.contains("\"prefetch\": {\"issued\": ")
                && on_json.contains("\"pred_accuracy\": "),
            "gated run must report its prefetch block: {on_json}"
        );
        assert!(!on_json.contains('\n'), "record stays single-line");
        assert!(on_json.ends_with("}}"));
    }

    #[test]
    fn parallel_map_keeps_item_order_at_any_job_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [0, 1, 3, 8, 200] {
            assert_eq!(
                parallel_map(&items, jobs, |&x| x * x),
                expect,
                "jobs={jobs}"
            );
        }
        assert!(parallel_map(&Vec::<u64>::new(), 4, |&x| x).is_empty());
    }
}
