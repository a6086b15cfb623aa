//! The execution engine: how the server turns an accepted [`JobSpec`]
//! into result bytes.
//!
//! [`SuiteEngine`] is the real one. It owns a bounded pool of
//! [`hoploc_harness::Suite`]s keyed by [`hoploc_harness::MachineSpec::canon`],
//! so every job on the same machine shares one suite — and with
//! it the memoized (and capacity-bounded) layout cache. Results
//! are the raw [`hoploc_harness::record_json`] bytes of the run, which is
//! exactly what `hoploc sweep --json` embeds per record: a served result
//! is byte-identical to a direct run by construction.
//!
//! A request builds nothing it does not execute. Admission compares the
//! application name with [`APP_NAMES`]; each scale's 13 programs are built
//! once per engine, on the scale's first executed job, and every suite in
//! the pool holds that one `Arc<[App]>`; estimator jobs share one
//! [`Footprint`] across the kinds, granularities and mappings that cannot
//! change it.
//!
//! The trait exists so tests can substitute slow, failing or panicking
//! engines for the backpressure, timeout and panic paths.

use crate::job::{FaultSpec, Fidelity, JobSpec};
use hoploc_est::{est_record_json, EstConfig, Footprint, FootprintInputs};
use hoploc_fault::{FaultPlan, FaultRates};
use hoploc_harness::{fault_topo, record_json, Memo, RunRecord, RunRequest, RunSpec, Suite};
use hoploc_search::{search_app, Objective, SearchConfig};
use hoploc_sim::{Cancel, PrefetchMode};
use hoploc_workloads::{all_apps, App, RunKind, Scale, APP_NAMES};
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

/// Layout plans each suite keeps resident: two layout classes per app.
/// Plans are all a suite keeps: a trace streams through its run and is
/// gone when the run ends, so a served cycle job holds one chunk per
/// thread, never a whole trace.
const LAYOUT_CAP: usize = 32;

/// How many distinct configurations the engine keeps. What each suite
/// keeps is fixed (`LAYOUT_CAP`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EngineCaps {
    /// Distinct simulator configurations (suites) kept alive at once.
    pub suite_cap: usize,
}

impl Default for EngineCaps {
    fn default() -> Self {
        EngineCaps { suite_cap: 4 }
    }
}

/// What a shared [`Footprint`] is a function of: the application (scale
/// and suite index) and [`EstConfig::footprint_inputs`]. Admission bounds
/// `threads`, the only input a request sets freely, so the key space is
/// finite.
type FootprintKey = (Scale, usize, FootprintInputs);

/// The production engine: bounded suite pool over the real harness.
pub struct SuiteEngine {
    /// The applications of [`Scale::Test`] and [`Scale::Bench`], each built
    /// on first use, index tables included, and kept: every suite of a
    /// scale shares them.
    catalogue: [OnceLock<Arc<[App]>>; 2],
    suites: Memo<String, Suite>,
    footprints: Memo<FootprintKey, Footprint>,
}

impl SuiteEngine {
    /// An engine with the given residency bounds.
    pub fn new(caps: EngineCaps) -> Self {
        let suites = caps.suite_cap.max(1);
        SuiteEngine {
            catalogue: [OnceLock::new(), OnceLock::new()],
            suites: Memo::new(Some(suites)),
            // One footprint per application of every resident suite.
            footprints: Memo::new(Some(APP_NAMES.len() * suites)),
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
            apps.iter().for_each(|app| app.program.build_tables());
            apps.into()
        })
    }

    /// The shared suite for this job's machine, building (and
    /// LRU-evicting) as needed.
    fn suite_for(&self, spec: &JobSpec) -> Arc<Suite> {
        let machine = &spec.machine;
        self.suites.get_or(machine.canon(), || {
            machine
                .suite(self.apps(machine.scale).clone())
                .with_cache_cap(LAYOUT_CAP)
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

    fn resolve_plan(spec: &JobSpec, suite: &Suite) -> Result<Option<FaultPlan>, String> {
        let topo = fault_topo(suite.sim());
        match &spec.faults {
            FaultSpec::None => Ok(None),
            FaultSpec::Seed(seed) => Ok(Some(FaultPlan::from_seed(
                *seed,
                &topo,
                &FaultRates::moderate(),
            ))),
            FaultSpec::Plan(plan) => {
                plan.validate(&topo)
                    .map_err(|e| format!("fault plan does not fit this machine: {e}"))?;
                Ok(Some(plan.clone()))
            }
        }
    }
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
        let suite = self.suite_for(spec);
        let app_idx = suite
            .apps()
            .iter()
            .position(|a| a.name() == spec.app)
            .ok_or_else(|| format!("unknown application {:?}", spec.app))?;
        let run = RunSpec {
            app: app_idx,
            kind: spec.kind,
        };
        if spec.fidelity == Fidelity::Est {
            // Same compiled plan the cycle tier would replay, so the two
            // tiers disagree only by model, never by input.
            let plan = suite.layout_plan(run.app, run.kind);
            let cfg = EstConfig::from_sim(suite.sim()).with_threads_per_core(spec.machine.threads);
            // `estimate_app` in two steps: the footprint is shared by every
            // kind, granularity and mapping of this application.
            let footprint = self.footprints.get_or(
                (spec.machine.scale, run.app, cfg.footprint_inputs()),
                || Footprint::of(&suite.apps()[run.app], &cfg),
            );
            let est = footprint.route(&plan, suite.mapping(), run.kind, &cfg);
            return Ok(est_record_json(&est));
        }
        let plan = Self::resolve_plan(spec, &suite)?;
        let req = RunRequest {
            faults: plan.as_ref(),
            cancel: Some(cancel),
            ..RunRequest::new(run)
        };
        let stats = suite.run(&req).stats;
        Ok(record_json(&RunRecord::new(&*spec.app, spec.kind, stats)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoploc_harness::MachineSpec;
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

    /// Est and cycle jobs over more machine configurations than the pool
    /// holds: suites come and go, the applications under them are built
    /// once, est jobs share footprints, and every served byte is what a
    /// fresh direct `Suite` + `estimate_app` / `run` produces.
    #[test]
    fn evicting_pool_shares_one_catalogue_and_serves_direct_bytes() {
        use hoploc_est::estimate_app;
        let eng = SuiteEngine::new(EngineCaps { suite_cap: 2 });
        for l2_mode in [L2Mode::Private, L2Mode::Shared] {
            for granularity in [Granularity::CacheLine, Granularity::Page] {
                for m2 in [false, true] {
                    let mut machine = spec("swim");
                    machine.machine = MachineSpec {
                        granularity,
                        l2_mode,
                        m2,
                        ..machine.machine
                    };
                    let direct = machine.machine.suite(all_apps(Scale::Test));
                    let swim = direct
                        .apps()
                        .iter()
                        .position(|a| a.name() == "swim")
                        .unwrap();
                    for kind in RunKind::ALL {
                        let job = JobSpec {
                            kind,
                            fidelity: Fidelity::Est,
                            ..machine.clone()
                        };
                        let est = estimate_app(
                            &direct.apps()[swim],
                            &direct.layout_plan(swim, kind),
                            direct.mapping(),
                            kind,
                            &EstConfig::from_sim(direct.sim()),
                        );
                        assert_eq!(
                            run(&eng, &job).unwrap(),
                            est_record_json(&est),
                            "{}",
                            job.canon()
                        );
                    }
                    if l2_mode == L2Mode::Private {
                        let cell = RunSpec {
                            app: swim,
                            kind: RunKind::Baseline,
                        };
                        let stats = direct.run(&RunRequest::new(cell)).stats;
                        let record = record_json(&RunRecord::new("swim", cell.kind, stats));
                        assert_eq!(run(&eng, &machine).unwrap(), record, "{}", machine.canon());
                    }
                    // The suite that just served is live, and holds the
                    // catalogue's applications, not a copy.
                    assert_eq!(
                        eng.suite_for(&machine).apps().as_ptr(),
                        eng.apps(Scale::Test).as_ptr()
                    );
                    assert!(eng.suites.resident() <= 2);
                }
            }
        }
        // Thirty-two est jobs, one footprint per cache organization.
        assert_eq!(eng.footprints.resident(), 2);
    }

    #[test]
    fn a_catalogue_is_built_with_every_table() {
        use hoploc_affine::TableId;
        let eng = SuiteEngine::new(EngineCaps::default());
        let apps = eng.apps(Scale::Test);
        assert!(apps.iter().any(|a| a.program.table_count() > 0));
        for app in apps.iter() {
            let p = &app.program;
            let built = (0..p.table_count()).all(|t| p.table_is_built(TableId(t)));
            assert!(built, "{}", app.name());
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

    #[test]
    fn seeded_faults_are_deterministic() {
        let eng = SuiteEngine::new(EngineCaps::default());
        let mut s = spec("swim");
        s.faults = FaultSpec::Seed(7);
        assert_eq!(run(&eng, &s).unwrap(), run(&eng, &s).unwrap());
    }

    #[test]
    fn suite_pool_is_bounded() {
        let eng = SuiteEngine::new(EngineCaps { suite_cap: 1 });
        let a = spec("swim");
        let mut b = spec("swim");
        b.machine.granularity = Granularity::Page;
        let _ = eng.suite_for(&a);
        let _ = eng.suite_for(&b);
        assert_eq!(eng.suites.resident(), 1);
        let mut c = spec("swim");
        c.machine.l2_mode = L2Mode::Shared;
        assert_ne!(a.config_canon(), c.config_canon());
    }
}
