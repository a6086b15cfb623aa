//! The execution engine: how the server turns an accepted [`JobSpec`]
//! into result bytes.
//!
//! [`SuiteEngine`] is the real one. It keeps three things: each scale's
//! applications, the two placements and the estimator's footprints. Every
//! executed job compiles its own layout plan with [`layout_for`], from the
//! analysis its application keeps ([`App::analysis`]), in microseconds. A
//! cycle job runs that plan through [`hoploc_harness::run_plan`], the
//! one-shot a search's verification also calls; its result is the raw
//! [`hoploc_harness::record_json`] bytes of the run, which is exactly what
//! `hoploc sweep --json` embeds per record: a served result is
//! byte-identical to a direct run by construction.
//!
//! A request builds nothing it does not execute. Admission compares the
//! application name with [`APP_NAMES`]; each scale's 13 programs are built
//! once per engine, on the scale's first executed job, their index tables
//! over the harness fan-out on every core; an application's program is
//! analyzed once, on its first optimized plan; estimator jobs route the
//! plan through one [`Footprint`] shared across the kinds, granularities
//! and mappings that cannot change it.
//!
//! The trait exists so tests can substitute slow, failing or panicking
//! engines for the backpressure, timeout and panic paths.

use crate::job::{FaultSpec, Fidelity, JobSpec};
use hoploc_affine::TableId;
use hoploc_est::{est_record_json, EstConfig, Footprint, FootprintInputs};
use hoploc_fault::{FaultPlan, FaultRates};
use hoploc_harness::{
    default_jobs, fault_topo, parallel_map, record_json, run_plan, MachineSpec, Memo, RunRecord,
};
use hoploc_noc::Placement;
use hoploc_search::{search_app, Objective, SearchConfig};
use hoploc_sim::{Cancel, PrefetchMode, SimConfig};
use hoploc_workloads::{all_apps, layout_for, App, RunKind, Scale, APP_NAMES};
use std::cmp::Reverse;
use std::sync::{Arc, OnceLock};

/// Executes jobs. Implementations must be safe to call from many worker
/// threads at once.
pub trait Engine: Send + Sync {
    /// Cheap admission-time validation: reject jobs that could never run
    /// (unknown app, ill-fitting fault plan) before they cost a queue slot.
    fn validate(&self, spec: &JobSpec) -> Result<(), String>;

    /// Runs the job on the calling (worker) thread, returning the raw
    /// single-line JSON result, or a structured error message. Long-running
    /// job kinds (search) push intermediate progress lines (single-line
    /// JSON objects) through `emit` as they happen; the rest ignore it.
    /// Work that polls `cancel` stops once it is set — the server sets it
    /// at the job's deadline and discards what the job returns.
    fn run(&self, spec: &JobSpec, emit: &dyn Fn(String), cancel: &Cancel)
        -> Result<String, String>;
}

/// What [`SuiteEngine::new`] takes. No bound is left to set: the
/// footprints are finite by their key.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EngineCaps {}

/// What a shared [`Footprint`] is a function of: the application (scale
/// and index into [`APP_NAMES`]) and [`EstConfig::footprint_inputs`].
/// Admission bounds `threads`, the only input a request sets freely, so
/// the key space is finite: 416 keys a scale, ≈ 9 MiB (DESIGN §13), and
/// the memo needs no cap.
type FootprintKey = (Scale, usize, FootprintInputs);

/// The production engine: the applications, the placements and memoized
/// footprints over the real harness.
pub struct SuiteEngine {
    /// The applications of [`Scale::Test`] and [`Scale::Bench`], each built
    /// on first use, index tables included, and kept with the analysis
    /// each makes on its first optimized plan.
    catalogue: [OnceLock<Arc<[App]>>; 2],
    /// The M1 and M2 placements, indexed by `MachineSpec::m2`.
    placements: [Placement; 2],
    footprints: Memo<FootprintKey, Footprint>,
}

impl SuiteEngine {
    /// An engine with nothing built yet.
    pub fn new(_caps: EngineCaps) -> Self {
        SuiteEngine {
            catalogue: [OnceLock::new(), OnceLock::new()],
            placements: [false, true].map(|m2| {
                let machine = MachineSpec {
                    m2,
                    ..MachineSpec::default()
                };
                machine.placement()
            }),
            footprints: Memo::default(),
        }
    }

    /// The applications at `scale`, in [`APP_NAMES`] order.
    fn apps(&self, scale: Scale) -> &Arc<[App]> {
        let slot = match scale {
            Scale::Test => &self.catalogue[0],
            Scale::Bench => &self.catalogue[1],
        };
        slot.get_or_init(|| {
            let apps = all_apps(scale);
            // Build every table now, so no served request pays for one.
            parallel_map(&table_jobs(&apps), default_jobs(), |&(app, table)| {
                apps[app].program.table(table);
            });
            apps.into()
        })
    }

    /// Runs a search job: the same `search_app` call the CLI makes, fed
    /// the same [`MachineSpec::sim`](hoploc_harness::MachineSpec::sim), so
    /// the streamed events and the final report are byte-identical to
    /// `hoploc search <app> --json -` with the same seed.
    fn run_search(
        &self,
        spec: &JobSpec,
        emit: &dyn Fn(String),
        cancel: &Cancel,
    ) -> Result<String, String> {
        let search = spec.search.as_ref().expect("caller checked spec.search");
        let objective =
            Objective::parse(&search.objective).map_err(|e| format!("search objective: {e}"))?;
        let app = self
            .apps(spec.machine.scale)
            .iter()
            .find(|a| a.name() == spec.app)
            .ok_or_else(|| format!("unknown application {:?}", spec.app))?;
        let cfg = SearchConfig {
            seed: search.seed,
            budget: search.budget,
            objective,
            cancel: cancel.clone(),
            ..SearchConfig::new(spec.machine.sim(), spec.machine.scale)
        };
        Ok(search_app(app, &cfg, &mut |line| emit(line)).to_json())
    }
}

/// Every index table of `apps` as (application, table), the largest
/// first and equal lengths in catalogue order: the jobs of a catalogue's
/// fan-out, which hands them out in this order.
fn table_jobs(apps: &[App]) -> Vec<(usize, TableId)> {
    let mut jobs: Vec<(usize, TableId)> = (apps.iter().enumerate())
        .flat_map(|(a, app)| (0..app.program.table_count()).map(move |t| (a, TableId(t))))
        .collect();
    jobs.sort_by_key(|&(a, t)| Reverse(apps[a].program.table_len(t)));
    jobs
}

impl Engine for SuiteEngine {
    fn validate(&self, spec: &JobSpec) -> Result<(), String> {
        if !APP_NAMES.contains(&spec.app.as_str()) {
            return Err(format!(
                "unknown application {:?}; try `hoploc apps`",
                spec.app
            ));
        }
        spec.machine.check()?;
        if spec.fidelity == Fidelity::Est && spec.faults != FaultSpec::None {
            return Err("fault injection needs cycle fidelity (the estimator is static)".into());
        }
        if spec.fidelity == Fidelity::Est && spec.machine.prefetch != PrefetchMode::Off {
            return Err("prefetching needs cycle fidelity (the estimator is static)".into());
        }
        if let FaultSpec::Plan(plan) = &spec.faults {
            plan.validate(&fault_topo(&spec.machine.sim()))
                .map_err(|e| format!("fault plan does not fit this machine: {e}"))?;
        }
        if let Some(search) = &spec.search {
            // The optimizer searches mappings and tunes the optimized
            // layout itself, so every knob those subsume is pinned to the
            // value the search actually uses — accepting anything else
            // would key a result the server did not compute.
            if spec.kind != RunKind::Optimized {
                return Err("search jobs tune the optimized pass; use kind=optimized".into());
            }
            if spec.machine.m2 {
                return Err(
                    "search jobs explore L2-to-MC mappings; the m2 preset does not apply".into(),
                );
            }
            if spec.machine.threads != 1 {
                return Err("search jobs verify with one thread per core".into());
            }
            if spec.faults != FaultSpec::None {
                return Err("search jobs do not support fault injection".into());
            }
            if spec.fidelity != Fidelity::Cycle {
                return Err(
                    "search jobs verify with the cycle simulator; use cycle fidelity".into(),
                );
            }
            if search.budget == 0 {
                return Err("search budget must be at least 1".into());
            }
            Objective::parse(&search.objective).map_err(|e| format!("search objective: {e}"))?;
        }
        Ok(())
    }

    fn run(
        &self,
        spec: &JobSpec,
        emit: &dyn Fn(String),
        cancel: &Cancel,
    ) -> Result<String, String> {
        if spec.search.is_some() {
            return self.run_search(spec, emit, cancel);
        }
        let m = &spec.machine;
        let apps = self.apps(m.scale);
        let idx = (apps.iter())
            .position(|a| a.name() == spec.app)
            .ok_or_else(|| format!("unknown application {:?}", spec.app))?;
        let app = &apps[idx];
        let placement = &self.placements[usize::from(m.m2)];
        let sim = m.sim();
        // The est and cycle jobs of a cell compile the same plan, so the
        // two tiers disagree only by model, never by input.
        let plan = layout_for(app, placement.mapping(), &sim, spec.kind);
        if spec.fidelity == Fidelity::Est {
            let cfg = EstConfig::from_sim(&sim).with_threads_per_core(m.threads);
            // `estimate_app` in two steps: the footprint is shared by every
            // kind, granularity and mapping of this application.
            let key = (m.scale, idx, cfg.footprint_inputs());
            let footprint = self.footprints.get_or(key, || Footprint::of(app, &cfg));
            let est = footprint.route(&plan, placement.mapping(), spec.kind, &cfg);
            return Ok(est_record_json(&est));
        }
        let run =
            |sim: &SimConfig| run_plan(app, &plan, placement, sim, m.threads, spec.kind, cancel);
        let faults = match &spec.faults {
            FaultSpec::None => None,
            // Windows placed over the cell's clean run land inside the
            // faulted one. A clean run cut short by the deadline is
            // answered `timeout` by the server, whatever follows it.
            FaultSpec::Seed(seed) => {
                let rates = FaultRates::moderate().with_horizon(run(&sim).exec_cycles);
                Some(FaultPlan::from_seed(*seed, &fault_topo(&sim), &rates))
            }
            FaultSpec::Plan(given) => {
                given
                    .validate(&fault_topo(&sim))
                    .map_err(|e| format!("fault plan does not fit this machine: {e}"))?;
                Some(given.clone())
            }
        };
        let stats = run(&SimConfig { faults, ..sim });
        Ok(record_json(&RunRecord::new(&*spec.app, spec.kind, stats)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoploc_harness::{RunRequest, RunSpec};
    use hoploc_layout::{Granularity, L2Mode};
    use hoploc_workloads::MAX_THREADS_PER_CORE;

    /// A job run to completion, its progress dropped.
    fn run(eng: &SuiteEngine, spec: &JobSpec) -> Result<String, String> {
        eng.run(spec, &|_| {}, &Cancel::never())
    }

    fn spec(app: &str) -> JobSpec {
        JobSpec {
            app: app.into(),
            kind: RunKind::Baseline,
            machine: MachineSpec::at(Scale::Test),
            ..JobSpec::default()
        }
    }

    #[test]
    fn validate_rejects_unknown_apps_with_stable_bytes() {
        let eng = SuiteEngine::new(EngineCaps::default());
        // Before any job has run at either scale, and after.
        for warm in [false, true] {
            for scale in [Scale::Test, Scale::Bench] {
                let mut s = spec("swim");
                s.machine.scale = scale;
                s.fidelity = Fidelity::Est;
                if warm {
                    run(&eng, &s).unwrap();
                }
                assert!(eng.validate(&s).is_ok());
                s.app = "nosuchapp".into();
                assert_eq!(
                    eng.validate(&s).unwrap_err(),
                    "unknown application \"nosuchapp\"; try `hoploc apps`"
                );
            }
        }
    }

    #[test]
    fn validate_bounds_threads_per_core() {
        let eng = SuiteEngine::new(EngineCaps::default());
        let with_threads = |threads| {
            let mut s = spec("swim");
            s.machine.threads = threads;
            s
        };
        assert!(eng.validate(&with_threads(1)).is_ok());
        assert!(eng.validate(&with_threads(MAX_THREADS_PER_CORE)).is_ok());
        assert!(eng.validate(&with_threads(0)).is_err());
        for over in [MAX_THREADS_PER_CORE + 1, 4_000_000_000] {
            let err = eng.validate(&with_threads(over)).unwrap_err();
            assert!(err.contains("at most 16"), "{err}");
        }
    }

    /// What a fresh direct `Suite` answers for swim's `kind` cell of
    /// `machine`: `estimate_app` on its plan, or its run.
    fn direct(machine: MachineSpec, kind: RunKind, fidelity: Fidelity) -> String {
        let suite = machine.suite(all_apps(machine.scale));
        let swim = APP_NAMES.iter().position(|&a| a == "swim").unwrap();
        match fidelity {
            Fidelity::Est => {
                let cfg = EstConfig::from_sim(suite.sim()).with_threads_per_core(machine.threads);
                let plan = suite.layout_plan(swim, kind);
                let app = &suite.apps()[swim];
                let est = hoploc_est::estimate_app(app, &plan, suite.mapping(), kind, &cfg);
                est_record_json(&est)
            }
            Fidelity::Cycle => {
                let stats = suite
                    .run(&RunRequest::new(RunSpec { app: swim, kind }))
                    .stats;
                record_json(&RunRecord::new("swim", kind, stats))
            }
        }
    }

    /// Est and cycle jobs over the 16 layout configurations (scale ×
    /// granularity × L2 organization × mapping), then threads {1, 2} ×
    /// prefetch {off, gated} on one of them: every served byte is what a
    /// fresh direct `Suite` + `estimate_app` / `run` produces, and est jobs
    /// share footprints.
    #[test]
    fn served_bytes_are_a_direct_suites() {
        let eng = SuiteEngine::new(EngineCaps::default());
        let check = |machine: MachineSpec, kind, fidelity| {
            let job = JobSpec {
                kind,
                fidelity,
                machine,
                ..spec("swim")
            };
            let want = direct(machine, kind, fidelity);
            assert_eq!(run(&eng, &job).unwrap(), want, "{}", job.canon());
        };
        for scale in [Scale::Test, Scale::Bench] {
            for granularity in [Granularity::CacheLine, Granularity::Page] {
                for l2_mode in [L2Mode::Private, L2Mode::Shared] {
                    for m2 in [false, true] {
                        let machine = MachineSpec {
                            scale,
                            granularity,
                            l2_mode,
                            m2,
                            ..MachineSpec::default()
                        };
                        for kind in RunKind::ALL {
                            check(machine, kind, Fidelity::Est);
                        }
                        for kind in [RunKind::Baseline, RunKind::Optimized] {
                            check(machine, kind, Fidelity::Cycle);
                        }
                    }
                }
            }
        }
        for threads in [1, 2] {
            for prefetch in [PrefetchMode::Off, PrefetchMode::Gated] {
                let machine = MachineSpec {
                    threads,
                    prefetch,
                    ..MachineSpec::at(Scale::Test)
                };
                for kind in RunKind::ALL {
                    if prefetch == PrefetchMode::Off {
                        check(machine, kind, Fidelity::Est);
                    }
                    check(machine, kind, Fidelity::Cycle);
                }
            }
        }
        // One footprint per scale and cache organization, and one for two
        // threads per core.
        assert_eq!(eng.footprints.resident(), 5);
    }

    /// FNV-1a over the little-endian bytes of a table's values.
    fn table_hash(values: &[i64]) -> u64 {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        hoploc_harness::fnv1a(&bytes)
    }

    /// The catalogue's fan-out builds every table of the scale, each one
    /// job, the largest first, into the very values a lazily built
    /// `all_apps` table holds, and analyzes no program.
    #[test]
    fn a_catalogue_is_built_with_every_table() {
        let eng = SuiteEngine::new(EngineCaps::default());
        let apps = eng.apps(Scale::Test);
        let lazy = all_apps(Scale::Test);
        let jobs = table_jobs(apps);
        let mut listed = jobs.clone();
        listed.sort();
        listed.dedup();
        assert_eq!(listed.len(), jobs.len(), "a table listed twice");
        let tables: usize = apps.iter().map(|a| a.program.table_count()).sum();
        assert_eq!(jobs.len(), tables);
        assert_eq!(tables, 7);
        let len = |&(a, t): &(usize, TableId)| apps[a].program.table_len(t);
        assert!(jobs.windows(2).all(|w| len(&w[0]) >= len(&w[1])));
        for (app, direct) in apps.iter().zip(&lazy) {
            assert!(!app.analysis_is_built(), "{}", app.name());
            let (p, q) = (&app.program, &direct.program);
            for t in (0..p.table_count()).map(TableId) {
                assert!(p.table_is_built(t), "{} table {}", app.name(), t.0);
                assert_eq!(p.table_len(t), q.table(t).len());
                assert_eq!(table_hash(p.table(t)), table_hash(q.table(t)));
            }
        }
    }

    /// Jobs of two applications, every kind, on eight configurations:
    /// exactly those two applications' analyses are built, whatever the
    /// number of configurations their plans are compiled for.
    #[test]
    fn each_program_is_analyzed_once() {
        let eng = SuiteEngine::new(EngineCaps::default());
        let apps = ["swim", "hpccg"];
        for granularity in [Granularity::CacheLine, Granularity::Page] {
            for l2_mode in [L2Mode::Private, L2Mode::Shared] {
                for m2 in [false, true] {
                    for (app, kind) in apps.iter().flat_map(|a| RunKind::ALL.map(|k| (a, k))) {
                        let job = JobSpec {
                            kind,
                            fidelity: Fidelity::Est,
                            machine: MachineSpec {
                                granularity,
                                l2_mode,
                                m2,
                                ..MachineSpec::at(Scale::Test)
                            },
                            ..spec(app)
                        };
                        run(&eng, &job).unwrap();
                    }
                }
            }
        }
        for app in eng.apps(Scale::Test).iter() {
            let analyzed = apps.contains(&app.name());
            assert_eq!(app.analysis_is_built(), analyzed, "{}", app.name());
        }
    }

    #[test]
    fn est_fidelity_serves_the_estimator_record() {
        let eng = SuiteEngine::new(EngineCaps::default());
        let mut s = spec("swim");
        s.fidelity = Fidelity::Est;
        let served = run(&eng, &s).unwrap();
        assert!(served.contains("\"fidelity\": \"est\""), "{served}");
        assert!(served.contains("\"offchip_fraction\""), "{served}");
        // Deterministic, and a different answer (and key) than the cycle
        // tier for the same cell.
        assert_eq!(served, run(&eng, &s).unwrap());
        assert_ne!(s.key(), spec("swim").key());
        assert_ne!(served, run(&eng, &spec("swim")).unwrap());
    }

    #[test]
    fn est_fidelity_rejects_fault_injection() {
        let eng = SuiteEngine::new(EngineCaps::default());
        let mut s = spec("swim");
        s.fidelity = Fidelity::Est;
        s.faults = FaultSpec::Seed(3);
        let err = eng.validate(&s).unwrap_err();
        assert!(err.contains("cycle fidelity"), "{err}");
    }

    #[test]
    fn est_fidelity_rejects_prefetch() {
        let eng = SuiteEngine::new(EngineCaps::default());
        let mut s = spec("swim");
        s.fidelity = Fidelity::Est;
        s.machine.prefetch = PrefetchMode::Stride;
        let err = eng.validate(&s).unwrap_err();
        assert!(err.contains("cycle fidelity"), "{err}");
    }

    #[test]
    fn prefetch_jobs_serve_the_prefetch_block_and_key_separately() {
        let eng = SuiteEngine::new(EngineCaps::default());
        let plain = spec("swim");
        let mut pf = spec("swim");
        pf.machine.prefetch = PrefetchMode::Gated;
        assert!(eng.validate(&pf).is_ok());
        let off_bytes = run(&eng, &plain).unwrap();
        let pf_bytes = run(&eng, &pf).unwrap();
        assert!(
            !off_bytes.contains("prefetch"),
            "off-prefetch result must stay byte-identical to pre-prefetch \
             builds: {off_bytes}"
        );
        assert!(pf_bytes.contains("\"prefetch\": {"), "{pf_bytes}");
        assert_ne!(plain.key(), pf.key(), "modes must cache separately");
        assert_eq!(pf_bytes, run(&eng, &pf).unwrap(), "deterministic");
    }

    #[test]
    fn search_jobs_stream_and_match_direct_search() {
        use crate::job::SearchSpec;
        let eng = SuiteEngine::new(EngineCaps::default());
        let mut s = spec("gafort");
        s.kind = RunKind::Optimized;
        s.search = Some(SearchSpec {
            seed: 5,
            budget: 10,
            objective: "offchip+hops".into(),
        });
        assert!(eng.validate(&s).is_ok());
        let streamed = std::sync::Mutex::new(Vec::new());
        let served = eng
            .run(
                &s,
                &|line| streamed.lock().unwrap().push(line),
                &Cancel::never(),
            )
            .unwrap();

        let app = all_apps(s.machine.scale)
            .into_iter()
            .find(|a| a.name() == "gafort")
            .unwrap();
        let cfg = SearchConfig {
            seed: 5,
            budget: 10,
            objective: Objective::parse("offchip,hops").unwrap(),
            ..SearchConfig::new(s.machine.sim(), s.machine.scale)
        };
        let mut direct_events = Vec::new();
        let report = search_app(&app, &cfg, &mut |e| direct_events.push(e));
        assert_eq!(served, report.to_json(), "served report must match direct");
        assert_eq!(
            *streamed.lock().unwrap(),
            direct_events,
            "streamed events must match direct events byte-for-byte"
        );
    }

    #[test]
    fn search_validation_pins_subsumed_knobs() {
        use crate::job::SearchSpec;
        let eng = SuiteEngine::new(EngineCaps::default());
        let base = || {
            let mut s = spec("swim");
            s.kind = RunKind::Optimized;
            s.search = Some(SearchSpec {
                seed: 0,
                budget: 10,
                objective: "offchip+hops".into(),
            });
            s
        };
        assert!(eng.validate(&base()).is_ok());
        let mut bad = base();
        bad.kind = RunKind::Baseline;
        assert!(eng.validate(&bad).unwrap_err().contains("optimized"));
        let mut bad = base();
        bad.machine.m2 = true;
        assert!(eng.validate(&bad).unwrap_err().contains("m2"));
        let mut bad = base();
        bad.machine.threads = 2;
        assert!(eng.validate(&bad).unwrap_err().contains("thread"));
        let mut bad = base();
        bad.faults = FaultSpec::Seed(1);
        assert!(eng.validate(&bad).unwrap_err().contains("fault"));
        let mut bad = base();
        bad.fidelity = Fidelity::Est;
        assert!(eng.validate(&bad).unwrap_err().contains("cycle"));
        let mut bad = base();
        bad.search.as_mut().unwrap().budget = 0;
        assert!(eng.validate(&bad).unwrap_err().contains("budget"));
        let mut bad = base();
        bad.search.as_mut().unwrap().objective = "latency".into();
        assert!(eng.validate(&bad).unwrap_err().contains("objective"));
    }

    /// A seeded plan's windows are placed over the cell's own clean run,
    /// so even a test-scale run meets them.
    #[test]
    fn seeded_faults_are_deterministic() {
        let eng = SuiteEngine::new(EngineCaps::default());
        let clean = spec("swim");
        let mut s = spec("swim");
        s.faults = FaultSpec::Seed(7);
        let seeded = run(&eng, &s).unwrap();
        assert_eq!(seeded, run(&eng, &s).unwrap());
        assert_ne!(
            seeded,
            run(&eng, &clean).unwrap(),
            "the plan changed nothing"
        );
    }
}
