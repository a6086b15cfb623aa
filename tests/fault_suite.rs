//! Chaos + differential integration suite for the fault-injection layer.
//!
//! Three families of guarantees, each asserted over the full test-scale
//! application suite:
//!
//! 1. **Chaos conservation / termination** — for ≥ 32 seeded fault plans
//!    per app (cycling the whole `FaultRates::at_level` intensity ladder),
//!    every run terminates without the HL0900 backstop, consumes exactly
//!    the clean run's dynamic work, and conserves memory requests:
//!    `Σ served + Σ dropped == off-chip issues + writebacks` — no request
//!    is lost or duplicated by retry, re-homing, or dropping.
//!
//! 2. **Zero-fault differential** — an installed-but-empty plan is
//!    provably inert: bit-identical `RunStats` and byte-identical obs
//!    artifacts (Chrome trace + metrics JSON) versus the unfaulted path.
//!
//! 3. **Parallel determinism** — the same plan set swept with `--jobs 1`
//!    and `--jobs N` yields bit-identical records.
//!
//! The seed base defaults to 1 and can be shifted with the
//! `HOPLOC_CHAOS_SEED_BASE` environment variable to explore fresh plan
//! populations without editing the test.

use hoploc::fault::{FaultPlan, FaultRates};
use hoploc::harness::{default_jobs, fault_topo, RunRequest, RunSpec, Suite};
use hoploc::layout::Granularity;
use hoploc::noc::L2ToMcMapping;
use hoploc::obs::ObsConfig;
use hoploc::sim::{RunStats, SimConfig};
use hoploc::workloads::{all_apps, RunKind, Scale};

/// Seeded plans per application (the issue's floor).
const PLANS_PER_APP: usize = 32;

fn setup() -> (SimConfig, L2ToMcMapping) {
    let sim = SimConfig {
        granularity: Granularity::CacheLine,
        ..SimConfig::scaled()
    };
    let mapping = L2ToMcMapping::nearest_cluster(sim.mesh, &sim.placement);
    (sim, mapping)
}

fn seed_base() -> u64 {
    std::env::var("HOPLOC_CHAOS_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// The per-plan conservation + termination invariants, shared by the chaos
/// tests below.
fn assert_conserved(app: &str, seed: u64, clean: &RunStats, faulted: &RunStats) {
    assert_eq!(
        faulted.total_accesses, clean.total_accesses,
        "{app} seed {seed}: faults changed the dynamic work"
    );
    assert_eq!(
        faulted.backstop_flushes, 0,
        "{app} seed {seed}: run only terminated via the HL0900 backstop"
    );
    let served: u64 = faulted.mc.iter().map(|m| m.served).sum();
    let dropped: u64 = faulted.mc.iter().map(|m| m.dropped).sum();
    let issued = faulted.offchip_accesses + faulted.writebacks;
    assert_eq!(
        served + dropped,
        issued,
        "{app} seed {seed}: served {served} + dropped {dropped} != issued {issued} \
         (requests lost or duplicated)"
    );
    assert_eq!(
        dropped, faulted.dropped_requests,
        "{app} seed {seed}: controller and simulator disagree on drops"
    );
    // Retries and drops are both transient-error outcomes; every error is
    // accounted to exactly one of them.
    for (i, m) in faulted.mc.iter().enumerate() {
        assert_eq!(
            m.transient_errors,
            m.retries + m.dropped,
            "{app} seed {seed}: MC{i} mislaid a transient error"
        );
    }
}

/// One cell under each of `plans`, across `jobs` workers, in plan order.
fn fault_sweep(suite: &Suite, spec: RunSpec, plans: &[FaultPlan], jobs: usize) -> Vec<RunStats> {
    let reqs: Vec<RunRequest> = plans
        .iter()
        .map(|plan| RunRequest::new(spec).with_faults(plan))
        .collect();
    let runs = suite.run_all(&reqs, jobs);
    runs.into_iter().map(|r| r.stats).collect()
}

#[test]
fn chaos_every_app_survives_32_seeded_plans() {
    let (sim, mapping) = setup();
    let suite = Suite::new(all_apps(Scale::Test), mapping, sim);
    let topo = fault_topo(suite.sim());
    let base = seed_base();
    let jobs = default_jobs();
    let mut injected_somewhere = false;
    for (i, app) in suite.apps().iter().enumerate() {
        let spec = RunSpec {
            app: i,
            kind: RunKind::Optimized,
        };
        let clean = suite.run(&RunRequest::new(spec)).stats;
        // Placement horizon matched to this app's run length so the
        // windows actually overlap the run; intensity cycles the whole
        // ladder, from quiet (level 0) through severe (level 6).
        let plans: Vec<FaultPlan> = (0..PLANS_PER_APP)
            .map(|p| {
                let rates =
                    FaultRates::at_level((p % 7) as u32).with_horizon(clean.exec_cycles.max(1));
                FaultPlan::from_seed(base + (i * PLANS_PER_APP + p) as u64, &topo, &rates)
            })
            .collect();
        for plan in &plans {
            plan.validate(&topo).expect("generated plan must fit");
        }
        let runs = fault_sweep(&suite, spec, &plans, jobs);
        assert_eq!(runs.len(), plans.len());
        for (p, faulted) in runs.iter().enumerate() {
            assert_conserved(
                app.name(),
                base + (i * PLANS_PER_APP + p) as u64,
                &clean,
                faulted,
            );
            let retries: u64 = faulted.mc.iter().map(|m| m.retries).sum();
            if retries > 0 || faulted.dropped_requests > 0 || faulted.rehomed_requests > 0 {
                injected_somewhere = true;
            }
        }
    }
    // The sweep is vacuous if no plan ever perturbed a run.
    assert!(
        injected_somewhere,
        "no retries, drops, or re-homes across the whole chaos sweep"
    );
}

#[test]
fn zero_fault_plan_is_bit_identical_to_unfaulted_path() {
    let (sim, mapping) = setup();
    let suite = Suite::new(all_apps(Scale::Test), mapping, sim);
    let none = FaultPlan::none();
    for (i, app) in suite.apps().iter().enumerate() {
        for kind in [RunKind::Baseline, RunKind::Optimized] {
            let spec = RunSpec { app: i, kind };
            let clean = suite.run(&RunRequest::new(spec)).stats;
            let faulted = suite.run(&RunRequest::new(spec).with_faults(&none)).stats;
            // Full-struct equality: every counter, histogram, and
            // floating-point utilization.
            assert_eq!(
                clean,
                faulted,
                "{} {kind:?}: empty plan perturbed the run",
                app.name()
            );
        }
    }
    // And the observability artifacts are byte-identical, not just the
    // stats: the fault layer may not move, rename, or reorder a single
    // trace event or metric when its plan is empty.
    let spec = RunSpec {
        app: 0,
        kind: RunKind::Baseline,
    };
    let (clean_stats, clean_rep) = suite
        .run(&RunRequest::new(spec).with_obs(ObsConfig::default()))
        .recorded();
    let (fault_stats, fault_rep) = suite
        .run(
            &RunRequest::new(spec)
                .with_faults(&none)
                .with_obs(ObsConfig::default()),
        )
        .recorded();
    assert_eq!(clean_stats, fault_stats);
    assert_eq!(
        clean_rep.chrome_trace_json(),
        fault_rep.chrome_trace_json(),
        "empty plan changed the trace bytes"
    );
    assert_eq!(
        clean_rep.metrics_json(),
        fault_rep.metrics_json(),
        "empty plan changed the metrics bytes"
    );
}

#[test]
fn fault_sweep_identical_across_job_counts() {
    let (sim, mapping) = setup();
    let suite = Suite::new(all_apps(Scale::Test), mapping, sim);
    let topo = fault_topo(suite.sim());
    let base = seed_base();
    // A couple of apps with real off-chip traffic, severe plans so the
    // retry/re-home machinery is actually exercised on both arms.
    for app in [0usize, 1] {
        let spec = RunSpec {
            app,
            kind: RunKind::Optimized,
        };
        let clean = suite.run(&RunRequest::new(spec)).stats;
        let rates = FaultRates::severe().with_horizon(clean.exec_cycles.max(1));
        let plans: Vec<FaultPlan> = (0..8)
            .map(|p| FaultPlan::from_seed(base + 9000 + p, &topo, &rates))
            .collect();
        let seq = fault_sweep(&suite, spec, &plans, 1);
        let par = fault_sweep(&suite, spec, &plans, default_jobs().max(2));
        assert_eq!(
            seq, par,
            "app {app}: fault sweep diverged across job counts"
        );
    }
}

#[test]
fn faulted_traced_run_is_deterministic() {
    // Same plan, same seed → same bytes, even with the obs layer
    // recording every retry, stall, re-home, and drop.
    let (sim, mapping) = setup();
    let suite = Suite::new(all_apps(Scale::Test), mapping, sim);
    let topo = fault_topo(suite.sim());
    let spec = RunSpec {
        app: 0,
        kind: RunKind::Baseline,
    };
    let clean = suite.run(&RunRequest::new(spec)).stats;
    let rates = FaultRates::severe().with_horizon(clean.exec_cycles.max(1));
    let plan = FaultPlan::from_seed(seed_base() + 4242, &topo, &rates);
    let (s1, r1) = suite
        .run(
            &RunRequest::new(spec)
                .with_faults(&plan)
                .with_obs(ObsConfig::default()),
        )
        .recorded();
    let (s2, r2) = suite
        .run(
            &RunRequest::new(spec)
                .with_faults(&plan)
                .with_obs(ObsConfig::default()),
        )
        .recorded();
    assert_eq!(s1, s2);
    assert_eq!(r1.chrome_trace_json(), r2.chrome_trace_json());
    assert_eq!(r1.metrics_json(), r2.metrics_json());
    // The traced arm also mirrors the untraced one.
    let untraced = suite.run(&RunRequest::new(spec).with_faults(&plan)).stats;
    assert_eq!(s1, untraced, "tracing perturbed a faulted run");
}

#[test]
fn plan_text_round_trip_preserves_behavior() {
    // A plan that went through render → parse injects identically; this
    // is what makes `hoploc faults <app> --plan <file>` reproducible.
    let (sim, mapping) = setup();
    let suite = Suite::new(all_apps(Scale::Test), mapping, sim);
    let topo = fault_topo(suite.sim());
    let spec = RunSpec {
        app: 2,
        kind: RunKind::Optimized,
    };
    let clean = suite.run(&RunRequest::new(spec)).stats;
    let rates = FaultRates::moderate().with_horizon(clean.exec_cycles.max(1));
    let plan = FaultPlan::from_seed(seed_base() + 77, &topo, &rates);
    let reparsed = FaultPlan::parse(&plan.render()).expect("rendered plan must parse");
    assert_eq!(plan, reparsed);
    assert_eq!(
        suite.run(&RunRequest::new(spec).with_faults(&plan)).stats,
        suite
            .run(&RunRequest::new(spec).with_faults(&reparsed))
            .stats
    );
}
