//! # hoploc-harness
//!
//! The suite harness: one code path that evaluates the full
//! (application × run-kind) matrix of the PLDI'15 reproduction — for the
//! integration tests, the figure benches, the `hoploc` binary, and the
//! examples — in parallel.
//!
//! Every run compiles its own layout plan with
//! [`hoploc_workloads::layout_for`]: what the layout pass learns from the
//! program alone is kept on the application ([`App::analysis`]), so a plan
//! costs microseconds and no memo sits in front of it. Traces are not kept
//! either: each run streams its own into the simulator, a chunk per thread
//! at a time, so no run holds a whole trace.
//!
//! Parallel execution is *observably deterministic*: results are collected
//! by spec index, every plan is a pure function of its cell, all per-run
//! randomness is derived from fixed per-thread seeds inside trace
//! generation, and the memory controller / network / cache models carry no
//! cross-run state. A [`Suite::run_all`] at any `jobs` count is
//! bit-identical (`RunStats: PartialEq`, including the floating-point link
//! utilizations) to the sequential path — the unit tests assert this
//! against [`run_plan`] on a freshly compiled plan.
//!
//! Every simulation in the workspace is built by one runner in two
//! halves: a plan is prepared (address space, desired-page map) and its
//! trace simulated as the run pulls it. [`Suite::run`] and
//! [`Suite::run_mix`] compile their plans; [`run_plan`] is the one-shot for
//! a plan compiled elsewhere: the one a search's scorer compiled, or the
//! job server's.
//!
//! The threads come from one fan-out, [`pull_beside`], which
//! [`parallel_map`] and the search's verification both call.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

use hoploc_fault::{FaultPlan, FaultTopo};
use hoploc_layout::{Granularity, L2Mode};
use hoploc_noc::{L2ToMcMapping, Placement};
use hoploc_obs::{JsonWriter, ObsConfig, ObsReport};
use hoploc_sim::{Cancel, PrefetchConfig, PrefetchMode, RunStats, SimConfig, TraceWorkload};
use hoploc_workloads::{App, RunKind, Scale, MAX_THREADS_PER_CORE};

mod fan;
mod run;
pub use fan::{parallel_map, pull_beside};
pub use run::run_plan;

/// One cell of the run matrix: which app (by index into the suite) and
/// which side of the comparison.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunSpec {
    /// Index into [`Suite::apps`].
    pub app: usize,
    /// Which run kind to simulate.
    pub kind: RunKind,
}

/// One run asked of a [`Suite`]: the cell, and the optional axes a cell can
/// be run under. A new axis is one more optional field here.
#[derive(Clone, Copy, Debug)]
pub struct RunRequest<'a> {
    /// The matrix cell.
    pub spec: RunSpec,
    /// Replaces whatever fault plan the suite's config holds. The empty
    /// plan is inert: bit-identical to `None`.
    pub faults: Option<&'a FaultPlan>,
    /// Records the run. The statistics are bit-identical to an unrecorded
    /// run — the sink only mirrors what the models already compute.
    pub obs: Option<ObsConfig>,
    /// Stops the simulation early once set; the statistics of a cancelled
    /// run are the caller's to discard.
    pub cancel: Option<&'a Cancel>,
}

impl<'a> RunRequest<'a> {
    /// The plain run of a cell: no faults injected, nothing recorded.
    pub fn new(spec: RunSpec) -> Self {
        Self {
            spec,
            faults: None,
            obs: None,
            cancel: None,
        }
    }

    /// The same request under `plan`.
    pub fn with_faults(self, plan: &'a FaultPlan) -> Self {
        Self {
            faults: Some(plan),
            ..self
        }
    }

    /// The same request, recorded under `obs`.
    pub fn with_obs(self, obs: ObsConfig) -> Self {
        Self {
            obs: Some(obs),
            ..self
        }
    }
}

/// What one [`Suite::run`] produced.
#[derive(Debug)]
pub struct RunOutput {
    /// Full simulation statistics.
    pub stats: RunStats,
    /// The observability report (spans, metric registry, exportable
    /// snapshots), when the request asked for one.
    pub report: Option<ObsReport>,
}

impl RunOutput {
    /// Both halves of a recorded run.
    ///
    /// # Panics
    ///
    /// Panics if the request did not set [`RunRequest::obs`].
    pub fn recorded(self) -> (RunStats, ObsReport) {
        let report = self.report.expect("the request asked for no report");
        (self.stats, report)
    }
}

/// A finished run: the cell it came from, by name, plus what it produced.
#[derive(Debug)]
pub struct RunRecord {
    /// Application name.
    pub app: String,
    /// Run kind.
    pub kind: RunKind,
    /// Full simulation statistics.
    pub stats: RunStats,
    /// The run's observability report, when it was recorded.
    pub report: Option<ObsReport>,
}

impl RunRecord {
    /// The record of a run made outside [`Suite`]'s own fan-out.
    pub fn new(app: impl Into<String>, kind: RunKind, stats: RunStats) -> Self {
        Self {
            app: app.into(),
            kind,
            stats,
            report: None,
        }
    }
}

/// The six values that select one simulated machine — what every figure
/// of the paper varies — named once for the CLI, the serve wire and the
/// canonical job key alike. A new knob is a field here, a term in
/// [`canon_parts`](Self::canon_parts), a line in [`sim`](Self::sim) (or
/// [`placement`](Self::placement)), one flag and one wire member.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MachineSpec {
    /// Problem size.
    pub scale: Scale,
    /// MC interleaving granularity.
    pub granularity: Granularity,
    /// Last-level cache organization.
    pub l2_mode: L2Mode,
    /// `true` for the M2 (halves, k=2) L2-to-MC mapping, `false` for M1.
    pub m2: bool,
    /// Threads per core.
    pub threads: usize,
    /// L2 prefetch engine.
    pub prefetch: PrefetchMode,
}

impl Default for MachineSpec {
    fn default() -> Self {
        MachineSpec {
            scale: Scale::Bench,
            granularity: Granularity::CacheLine,
            l2_mode: L2Mode::Private,
            m2: false,
            threads: 1,
            prefetch: PrefetchMode::Off,
        }
    }
}

impl MachineSpec {
    /// The default machine (cache-line interleaving, private L2s, M1, one
    /// thread per core, no prefetching) at `scale`.
    pub fn at(scale: Scale) -> Self {
        MachineSpec {
            scale,
            ..MachineSpec::default()
        }
    }

    /// Refuses a machine the simulator cannot build. The other five fields
    /// are valid by type; `threads` arrives as a number from a flag or a
    /// wire member and is bounded here, for both.
    pub fn check(&self) -> Result<(), String> {
        if self.threads == 0 {
            return Err("threads must be at least 1".into());
        }
        if self.threads > MAX_THREADS_PER_CORE {
            return Err(format!(
                "threads must be at most {MAX_THREADS_PER_CORE} (got {})",
                self.threads
            ));
        }
        Ok(())
    }

    /// Name of the L2-to-MC mapping (`m1` or `m2`).
    pub fn mapping_name(&self) -> &'static str {
        if self.m2 {
            "m2"
        } else {
            "m1"
        }
    }

    /// Parses a [`mapping_name`](Self::mapping_name) into the `m2` field.
    pub fn parse_mapping(s: &str) -> Result<bool, String> {
        match s {
            "m1" => Ok(false),
            "m2" => Ok(true),
            other => Err(format!("unknown mapping {other:?} (use m1 or m2)")),
        }
    }

    /// The canonical form in the two pieces a job key wraps its own fields
    /// around: the five terms every key has carried, and the suffix of
    /// terms added since. A suffix term is absent at its default, so keys
    /// minted before it existed stay byte-stable.
    pub fn canon_parts(&self) -> (String, String) {
        let head = format!(
            "scale={};gran={};l2={};map={};threads={}",
            self.scale.name(),
            self.granularity.name(),
            self.l2_mode.name(),
            self.mapping_name(),
            self.threads,
        );
        let mut tail = String::new();
        if self.prefetch != PrefetchMode::Off {
            tail.push_str(";prefetch=");
            tail.push_str(self.prefetch.name());
        }
        (head, tail)
    }

    /// The canonical name of this machine: equal strings, equal machines.
    pub fn canon(&self) -> String {
        let (head, tail) = self.canon_parts();
        head + &tail
    }

    /// The simulator configuration: the capacity-scaled Table 1 machine
    /// with this spec's granularity, L2 organization and prefetch engine.
    pub fn sim(&self) -> SimConfig {
        SimConfig {
            granularity: self.granularity,
            l2_mode: self.l2_mode,
            prefetch: PrefetchConfig::with_mode(self.prefetch),
            ..SimConfig::scaled()
        }
    }

    /// The controllers and the L2-to-MC mapping: M1 (nearest cluster) or
    /// M2 (halves) over the scaled machine's mesh and corner controllers.
    pub fn placement(&self) -> Placement {
        let sim = SimConfig::scaled();
        if self.m2 {
            Placement::halves(sim.mesh, &sim.placement)
        } else {
            Placement::nearest(sim.mesh, &sim.placement)
        }
    }

    /// The L2-to-MC mapping half of [`placement`](Self::placement).
    pub fn mapping(&self) -> L2ToMcMapping {
        self.placement().into_mapping()
    }

    /// The harness every command runs `apps` through on this machine
    /// (`apps` are the caller's: one application, or the suite at
    /// [`scale`](Self::scale)).
    pub fn suite(&self, apps: impl Into<Arc<[App]>>) -> Suite {
        Suite::new(apps, self.mapping(), self.sim()).with_threads_per_core(self.threads)
    }
}

/// A compute-once memo table. Concurrent lookups of the same key block on
/// one computation (via `OnceLock`), so every artifact is built exactly
/// once per table regardless of the thread schedule, and kept: a caller
/// bounds it by the key space it uses.
pub struct Memo<K, V> {
    map: Mutex<HashMap<K, Arc<OnceLock<Arc<V>>>>>,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Self {
            map: Mutex::default(),
        }
    }
}

impl<K: Eq + Hash, V> Memo<K, V> {
    /// The value under `key`, running `build` if no completed or in-flight
    /// entry holds it.
    pub fn get_or(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        let cell = self
            .map
            .lock()
            .expect("memo poisoned")
            .entry(key)
            .or_default()
            .clone();
        cell.get_or_init(|| Arc::new(build())).clone()
    }

    /// Entries currently held, in-flight ones included.
    pub fn resident(&self) -> usize {
        self.map.lock().expect("memo poisoned").len()
    }
}

/// A fixed (apps, mapping, config, threads-per-core) context whose run
/// matrix can be evaluated in parallel.
///
/// Configurations are part of the key by construction: one `Suite` is one
/// config, and experiments that sweep configs (mesh sizes, placements,
/// granularities) build one suite per point.
pub struct Suite {
    /// Shared, not owned: a caller that builds several suites over one
    /// scale's programs holds one copy of them.
    apps: Arc<[App]>,
    mapping: L2ToMcMapping,
    sim: SimConfig,
    threads_per_core: usize,
}

impl Suite {
    /// Creates a suite over `apps` under one mapping and simulator config.
    pub fn new(apps: impl Into<Arc<[App]>>, mapping: L2ToMcMapping, sim: SimConfig) -> Self {
        Self {
            apps: apps.into(),
            mapping,
            sim,
            threads_per_core: 1,
        }
    }

    /// Sets the threads-per-core count (Figure 24). Resets nothing: the
    /// builder is consumed before any run.
    pub fn with_threads_per_core(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread per core");
        self.threads_per_core = threads;
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

    /// Builds the full matrix: the plain run of every app crossed with
    /// every given kind, apps varying fastest (matching the sequential
    /// suite loops).
    pub fn full_matrix(&self, kinds: &[RunKind]) -> Vec<RunRequest<'static>> {
        let mut reqs = Vec::with_capacity(self.apps.len() * kinds.len());
        for &kind in kinds {
            for app in 0..self.apps.len() {
                reqs.push(RunRequest::new(RunSpec { app, kind }));
            }
        }
        reqs
    }

    /// The compiled (or original) layout plan for one matrix cell: the plan
    /// [`run`](Self::run) simulates, so a static estimate made from it
    /// (`hoploc-est`) differs from the cycle simulation only by model,
    /// never by layout input.
    pub fn layout_plan(&self, app: usize, kind: RunKind) -> hoploc_layout::ProgramLayout {
        hoploc_workloads::layout_for(&self.apps[app], &self.mapping, &self.sim, kind)
    }

    /// Runs one request. Pure in the request — a run is bit-identical to
    /// [`run_plan`] at the suite's threads per core on a fresh
    /// [`hoploc_workloads::layout_for`] plan.
    pub fn run(&self, req: &RunRequest) -> RunOutput {
        let (app, kind) = (&self.apps[req.spec.app], req.spec.kind);
        let plan = self.layout_plan(req.spec.app, kind);
        let prepared = run::prepare(app, &plan, kind, 0, self.sim.page_bytes);
        let workload = prepared.traces(app, &plan, self.threads_per_core);
        let desired = &prepared.desired;
        run::simulate(&self.sim, &self.mapping, app.mlp, &workload, desired, req)
    }

    /// Runs every app of the suite co-scheduled as one `kind` run (Figure
    /// 25's multiprogrammed mixes): each app has its threads on all cores
    /// and a virtual address space of its own, and the returned statistics
    /// carry each app's finish time.
    pub fn run_mix(&self, kind: RunKind) -> RunStats {
        let page_bytes = self.sim.page_bytes;
        let prepared: Vec<_> = (self.apps.iter().enumerate())
            .map(|(i, app)| {
                // 4 GiB of virtual space per application keeps them disjoint.
                let origin = (i as u64) << 32;
                let plan = self.layout_plan(i, kind);
                let p = run::prepare(app, &plan, kind, origin, page_bytes);
                (app, plan, p)
            })
            .collect();
        let mut desired = HashMap::new();
        let mut programs = Vec::with_capacity(prepared.len());
        for (app, plan, p) in &prepared {
            desired.extend(&p.desired);
            programs.push(p.traces(app, plan, self.threads_per_core));
        }
        let name = self.apps.iter().map(|a| a.name()).collect::<Vec<_>>();
        let mix = TraceWorkload::multiprogram(name.join("+"), programs);
        let mlp = self.apps.iter().map(|a| a.mlp).max().unwrap_or(1);
        let req = RunRequest::new(RunSpec { app: 0, kind });
        run::simulate(&self.sim, &self.mapping, mlp, &mix, &desired, &req).stats
    }

    /// Runs `reqs` across `jobs` worker threads and collects the records
    /// **by index**: the output order is the request order no matter how
    /// the scheduler interleaves workers, and every record is bit-identical
    /// to what `jobs = 1` produces. Each recorded run owns its sink; only
    /// finished [`ObsReport`]s (plain data) cross threads.
    pub fn run_all(&self, reqs: &[RunRequest], jobs: usize) -> Vec<RunRecord> {
        parallel_map(reqs, jobs, |req| {
            let RunOutput { stats, report } = self.run(req);
            RunRecord {
                app: self.apps[req.spec.app].name().to_string(),
                kind: req.spec.kind,
                stats,
                report,
            }
        })
    }
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

/// FNV-1a over a byte string, the workspace's content hash: stable,
/// platform-independent, dependency-free. It keys served jobs and forks
/// each searched application's PRNG stream by name.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A sensible default worker count: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
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
            r.kind.name(),
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
/// result can be compared literally against a direct [`Suite::run_all`].
pub fn record_json(r: &RunRecord) -> String {
    let s = &r.stats;
    let mut w = JsonWriter::spaced();
    (w.obj().field("app", &r.app).field("kind", r.kind.name()))
        .field("exec_cycles", s.exec_cycles)
        .field("total_accesses", s.total_accesses)
        .field("l1_hits", s.l1_hits)
        .field("l2_hits", s.l2_hits)
        .field("cache_to_cache", s.cache_to_cache)
        .field("offchip_accesses", s.offchip_accesses)
        .field("offchip_fraction", s.offchip_fraction())
        .field("avg_offchip_hops", s.net.off_chip.avg_hops())
        .field("onchip_net_latency", s.onchip_net_latency())
        .field("offchip_net_latency", s.offchip_net_latency())
        .field("memory_latency", s.memory_latency())
        .field("os_fallbacks", s.os_fallbacks)
        .field("rehomed", s.rehomed_requests)
        .field("dropped", s.dropped_requests)
        .field("backstop_flushes", s.backstop_flushes);
    // The prefetch block exists only when the run prefetched: an Off run's
    // record stays byte-identical to pre-prefetch builds.
    if !s.prefetch.is_empty() {
        let p = &s.prefetch;
        (w.key("prefetch").obj())
            .field("issued", p.issued)
            .field("useful", p.useful)
            .field("late", p.late)
            .field("harmful", p.harmful)
            .field("dropped", p.dropped)
            .field("accuracy", p.accuracy())
            .field("coverage", p.coverage(s.offchip_accesses))
            .field("pred_accuracy", p.pred_accuracy())
            .end_obj();
    }
    w.end_obj().take()
}

/// Serializes run records as a JSON document — the machine-readable
/// summary behind every `--json`: one record per line of the `runs` array.
pub fn to_json(records: &[RunRecord]) -> String {
    let runs: Vec<String> = (records.iter())
        .map(|r| format!("\n    {}", record_json(r)))
        .collect();
    let mut w = JsonWriter::spaced();
    w.key("runs").raw(&format!("[{}\n  ]", runs.join(",")));
    format!("{{\n  {}\n}}\n", w.take())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoploc_fault::FaultRates;
    use hoploc_noc::{McPlacement, Mesh};
    use hoploc_ptest::run_cases;
    use hoploc_workloads::{all_apps, layout_for, mgrid, swim, weighted_speedup, wupwise};

    fn test_machine() -> MachineSpec {
        MachineSpec::at(Scale::Test)
    }

    fn suite2() -> Suite {
        test_machine().suite(vec![swim(Scale::Test), mgrid(Scale::Test)])
    }

    /// One run of `app` on `sim`, through the one-shot on a plan compiled
    /// for it alone: no memo, no fan-out.
    fn run_fresh(app: &App, sim: &SimConfig, kind: RunKind) -> RunStats {
        let placement = Placement::nearest(sim.mesh, &sim.placement);
        let plan = layout_for(app, placement.mapping(), sim, kind);
        run_plan(app, &plan, &placement, sim, 1, kind, &Cancel::never())
    }

    /// The four (faults, obs) corners of a request, over every cell: the
    /// plain run is the one-shot's, recording changes no statistic, the
    /// empty plan is no plan, a faulted run reads the same recorded or not
    /// — and every corner is the same at any job count, reports included.
    #[test]
    fn the_four_corners_of_a_request_agree_and_parallel_matches_sequential() {
        let s = suite2();
        let none = FaultPlan::none();
        let plan = FaultPlan::from_seed(3, &fault_topo(s.sim()), &FaultRates::moderate());
        let obs = ObsConfig::default();
        let mut reqs = Vec::new();
        for r in s.full_matrix(&RunKind::ALL) {
            reqs.extend([
                r,
                r.with_obs(obs),
                r.with_faults(&none),
                r.with_faults(&plan),
                r.with_faults(&plan).with_obs(obs),
            ]);
        }
        let par = s.run_all(&reqs, 4);
        let seq = s.run_all(&reqs, 1);
        for ((p, q), req) in par.iter().zip(&seq).zip(&reqs) {
            assert_eq!(p.stats, q.stats, "jobs=4 diverged from jobs=1 on {req:?}");
            assert_eq!(p.report.is_some(), req.obs.is_some(), "{req:?}");
            if let (Some(pr), Some(qr)) = (&p.report, &q.report) {
                assert_eq!(pr.metrics_json(), qr.metrics_json(), "{req:?}");
                assert_eq!(pr.chrome_trace_json(), qr.chrome_trace_json(), "{req:?}");
                assert_eq!(
                    pr.counter("sim.offchip"),
                    p.stats.offchip_accesses,
                    "{req:?}"
                );
            }
        }
        for (cell, req) in par.chunks(5).zip(s.full_matrix(&RunKind::ALL)) {
            let [plain, traced, inert, faulted, faulted_traced] = cell else {
                unreachable!("five requests per cell");
            };
            let spec = req.spec;
            let direct = run_fresh(&s.apps()[spec.app], s.sim(), spec.kind);
            assert_eq!(
                plain.stats, direct,
                "harness diverged from run_plan on {spec:?}"
            );
            assert_eq!(traced.stats, plain.stats, "recording perturbed {spec:?}");
            assert_eq!(inert.stats, plain.stats, "the empty plan must be inert");
            assert_eq!(
                faulted_traced.stats, faulted.stats,
                "recording perturbed a faulted run"
            );
        }
        assert!(
            par.chunks(5).any(|c| c[3].stats != c[0].stats),
            "a moderate plan should perturb at least one cell"
        );
    }

    /// Over random cells, threads per core, fault plans and recordings,
    /// the one-shot on the suite's own plan is the suite's run, field for
    /// field.
    #[test]
    fn the_one_shot_on_a_suites_plan_is_its_run() {
        let apps: Arc<[App]> = all_apps(Scale::Test).into();
        let suites = [1, 2].map(|threads| {
            let machine = MachineSpec {
                threads,
                ..test_machine()
            };
            (threads, machine.suite(apps.clone()))
        });
        let placement = test_machine().placement();
        run_cases("harness.run_plan.suite", 8, |rng| {
            let (threads, s) = &suites[rng.usize_in(0..suites.len())];
            let app = rng.usize_in(0..s.apps().len());
            let kind = RunKind::ALL[rng.usize_in(0..RunKind::ALL.len())];
            let rates = FaultRates::moderate();
            let plan = rng
                .flip()
                .then(|| FaultPlan::from_seed(rng.next_u64(), &fault_topo(s.sim()), &rates));
            let mut req = RunRequest::new(RunSpec { app, kind });
            if let Some(plan) = &plan {
                req = req.with_faults(plan);
            }
            if rng.flip() {
                req = req.with_obs(ObsConfig::default());
            }
            let sim = SimConfig {
                faults: plan.clone(),
                ..s.sim().clone()
            };
            let layout = s.layout_plan(app, kind);
            let once = run_plan(
                &s.apps()[app],
                &layout,
                &placement,
                &sim,
                *threads,
                kind,
                &Cancel::never(),
            );
            assert_eq!(once, s.run(&req).stats, "{threads} threads, {req:?}");
        });
    }

    #[test]
    #[should_panic(expected = "compiled for another mesh")]
    fn the_one_shot_refuses_a_plan_for_another_mesh() {
        let app = swim(Scale::Test);
        let small = hoploc_layout::baseline_layout(&app.program, 16);
        let sim = test_machine().sim();
        run_plan(
            &app,
            &small,
            &test_machine().placement(),
            &sim,
            1,
            RunKind::Baseline,
            &Cancel::never(),
        );
    }

    #[test]
    fn baseline_and_optimized_run() {
        let sim = SimConfig::default();
        let app = swim(Scale::Test);
        let base = run_fresh(&app, &sim, RunKind::Baseline);
        let opt = run_fresh(&app, &sim, RunKind::Optimized);
        assert!(base.total_accesses > 0);
        assert_eq!(base.total_accesses, opt.total_accesses, "same dynamic work");
    }

    #[test]
    fn optimized_localizes_offchip_traffic_swim() {
        let sim = SimConfig::default();
        let app = swim(Scale::Test);
        let base = run_fresh(&app, &sim, RunKind::Baseline);
        let opt = run_fresh(&app, &sim, RunKind::Optimized);
        // The optimization's core claim: fewer hops per off-chip message.
        assert!(
            opt.net.off_chip.avg_hops() < base.net.off_chip.avg_hops(),
            "optimized {} !< baseline {}",
            opt.net.off_chip.avg_hops(),
            base.net.off_chip.avg_hops()
        );
    }

    #[test]
    fn optimal_beats_baseline() {
        let sim = SimConfig::default();
        let app = wupwise(Scale::Test);
        let base = run_fresh(&app, &sim, RunKind::Baseline);
        let optimal = run_fresh(&app, &sim, RunKind::Optimal);
        assert!(optimal.exec_cycles < base.exec_cycles);
    }

    #[test]
    fn mix_runs_and_reports_speedup() {
        let mesh = Mesh::new(8, 8);
        let mapping = L2ToMcMapping::nearest_cluster(mesh, &McPlacement::Corners);
        let apps = vec![wupwise(Scale::Test), swim(Scale::Test)];
        let s = Suite::new(apps, mapping, SimConfig::default());
        let base = s.run_mix(RunKind::Baseline);
        let opt = s.run_mix(RunKind::Optimized);
        assert_eq!(base.app_finish.len(), 2);
        let ws = weighted_speedup(&base, &opt);
        assert!(
            ws > 0.5 && ws < 3.0,
            "weighted speedup {ws} out of sane range"
        );
    }

    #[test]
    fn records_keep_request_order() {
        let s = suite2();
        let reqs = [
            RunSpec {
                app: 1,
                kind: RunKind::Optimized,
            },
            RunSpec {
                app: 0,
                kind: RunKind::Baseline,
            },
        ]
        .map(RunRequest::new);
        let recs = s.run_all(&reqs, 8);
        assert_eq!(recs[0].app, "mgrid");
        assert_eq!(recs[1].app, "swim");
    }

    #[test]
    fn json_is_well_formed_and_record_json_is_its_unit() {
        let s = suite2();
        let recs = s.run_all(&s.full_matrix(&[RunKind::Baseline])[..1], 1);
        let j = to_json(&recs);
        assert!(j.starts_with("{\n"));
        assert!(j.contains("\"app\": \"swim\""));
        assert!(j.contains("\"kind\": \"baseline\""));
        assert!(j.trim_end().ends_with('}'));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        let unit = record_json(&recs[0]);
        assert!(unit.starts_with('{') && unit.ends_with('}'));
        assert!(!unit.contains('\n'), "record_json must be single-line");
        assert!(j.contains(&unit));
    }

    /// 64 lookups of 9 keys on 8 threads: each key is built exactly once,
    /// and every lookup returns its key's value.
    #[test]
    fn memo_builds_each_key_once_under_contention() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let memo: Memo<u64, u64> = Memo::default();
        let builds: [AtomicU64; 9] = Default::default();
        let keys: Vec<u64> = (0..64).map(|i| i % 9).collect();
        let out = parallel_map(&keys, 8, |&k| {
            *memo.get_or(k, || {
                builds[k as usize].fetch_add(1, Ordering::Relaxed);
                k * k
            })
        });
        for (k, v) in keys.iter().zip(out) {
            assert_eq!(v, k * k);
        }
        assert!(builds.iter().all(|b| b.load(Ordering::Relaxed) == 1));
        assert_eq!(memo.resident(), 9);
    }

    #[test]
    fn record_json_adds_prefetch_block_only_when_prefetching_happened() {
        let req = RunRequest::new(RunSpec {
            app: 0,
            kind: RunKind::Optimized,
        });
        let json_on = |machine: MachineSpec| {
            let s = machine.suite(vec![swim(Scale::Test)]);
            record_json(&s.run_all(&[req], 1)[0])
        };
        let off_json = json_on(test_machine());
        assert!(
            !off_json.contains("prefetch"),
            "prefetch-off records must stay byte-identical to pre-prefetch \
             builds: {off_json}"
        );
        let on_json = json_on(MachineSpec {
            prefetch: PrefetchMode::Gated,
            ..test_machine()
        });
        assert!(
            on_json.contains("\"prefetch\": {\"issued\": ")
                && on_json.contains("\"pred_accuracy\": "),
            "gated run must report its prefetch block: {on_json}"
        );
        assert!(!on_json.contains('\n'), "record stays single-line");
        assert!(on_json.ends_with("}}"));
    }

    #[test]
    fn every_spelling_parses_back_to_its_value() {
        for v in [Scale::Test, Scale::Bench] {
            assert_eq!(Scale::parse(v.name()), Ok(v));
        }
        for v in [Granularity::CacheLine, Granularity::Page] {
            assert_eq!(Granularity::parse(v.name()), Ok(v));
        }
        for v in [L2Mode::Private, L2Mode::Shared] {
            assert_eq!(L2Mode::parse(v.name()), Ok(v));
        }
        for v in RunKind::ALL {
            assert_eq!(RunKind::parse(v.name()), Ok(v));
        }
        for v in PrefetchMode::all() {
            assert_eq!(PrefetchMode::parse(v.name()), Ok(v));
        }
        for m2 in [false, true] {
            let m = MachineSpec {
                m2,
                ..MachineSpec::default()
            };
            assert_eq!(MachineSpec::parse_mapping(m.mapping_name()), Ok(m2));
        }
        assert!(Scale::parse("huge").unwrap_err().contains("\"huge\""));
        assert!(RunKind::parse("fastest").is_err());
        assert!(MachineSpec::parse_mapping("m3").is_err());
    }

    #[test]
    fn machine_spec_bounds_threads_and_names_itself_stably() {
        let with_threads = |threads| MachineSpec {
            threads,
            ..test_machine()
        };
        assert!(with_threads(1).check().is_ok());
        assert!(with_threads(MAX_THREADS_PER_CORE).check().is_ok());
        assert!(with_threads(0).check().unwrap_err().contains("at least 1"));
        for over in [MAX_THREADS_PER_CORE + 1, 4_000_000_000] {
            assert!(with_threads(over)
                .check()
                .unwrap_err()
                .contains("at most 16"));
        }
        // Off is absent from the canon; any other mode is its last term.
        assert_eq!(
            test_machine().canon(),
            "scale=test;gran=cacheline;l2=private;map=m1;threads=1"
        );
        let gated = MachineSpec {
            prefetch: PrefetchMode::Gated,
            m2: true,
            ..with_threads(2)
        };
        assert_eq!(
            gated.canon(),
            "scale=test;gran=cacheline;l2=private;map=m2;threads=2;prefetch=gated"
        );
        assert_eq!(gated.sim().prefetch.mode, PrefetchMode::Gated);
        // M2 through either constructor the tree has used for it.
        let sim = gated.sim();
        assert_eq!(
            gated.mapping(),
            Placement::halves(sim.mesh, &McPlacement::Corners).into_mapping()
        );
    }
}
