//! End-to-end integration tests: the full compile → place → trace →
//! simulate pipeline over the 13-application suite (test scale), driven
//! through the parallel suite harness.
//!
//! The suite-wide assertions all read from one shared [`Suite`] sweep run
//! with `default_jobs()` workers, so the integration suite itself exercises
//! the parallel fan-out and the layout/trace caches; determinism against
//! the plain sequential `run_app` path is asserted explicitly below.

use hoploc::harness::{default_jobs, RunRecord, RunRequest, RunSpec, Suite};
use hoploc::layout::Granularity;
use hoploc::noc::L2ToMcMapping;
use hoploc::obs::{validate_chrome_trace, EvName, ObsConfig};
use hoploc::sim::SimConfig;
use hoploc::workloads::{all_apps, run_app, RunKind, Scale};
use std::sync::OnceLock;
use std::time::Instant;

fn setup() -> (SimConfig, L2ToMcMapping) {
    let sim = SimConfig {
        granularity: Granularity::CacheLine,
        ..SimConfig::scaled()
    };
    let mapping = L2ToMcMapping::nearest_cluster(sim.mesh, &sim.placement);
    (sim, mapping)
}

/// The kinds the shared sweep covers, in record order (kinds outermost).
const SWEEP_KINDS: [RunKind; 3] = [RunKind::Baseline, RunKind::Optimized, RunKind::Optimal];

/// One parallel sweep of the whole test-scale suite, shared by every test
/// that only reads run statistics.
fn sweep() -> &'static (Suite, Vec<RunRecord>) {
    static SWEEP: OnceLock<(Suite, Vec<RunRecord>)> = OnceLock::new();
    SWEEP.get_or_init(|| {
        let (sim, mapping) = setup();
        let suite = Suite::new(all_apps(Scale::Test), mapping, sim);
        let records = suite.run_all(&suite.full_matrix(&SWEEP_KINDS), default_jobs());
        (suite, records)
    })
}

/// The shared-sweep record for (kind, app index).
fn rec(kind: RunKind, app: usize) -> &'static RunRecord {
    let (suite, records) = sweep();
    let k = SWEEP_KINDS
        .iter()
        .position(|&x| x == kind)
        .expect("swept kind");
    &records[k * suite.apps().len() + app]
}

#[test]
fn every_app_runs_both_sides_with_identical_work() {
    let (suite, _) = sweep();
    for (i, app) in suite.apps().iter().enumerate() {
        let base = &rec(RunKind::Baseline, i).stats;
        let opt = &rec(RunKind::Optimized, i).stats;
        assert!(base.total_accesses > 0, "{}: empty run", app.name());
        assert_eq!(
            base.total_accesses,
            opt.total_accesses,
            "{}: the layout transformation changed the dynamic work",
            app.name()
        );
        assert!(
            base.exec_cycles > 0 && opt.exec_cycles > 0,
            "{}",
            app.name()
        );
    }
}

#[test]
fn optimization_localizes_offchip_traffic_suite_wide() {
    // Pooled over the suite, optimized off-chip messages must traverse
    // fewer links — the paper's central mechanism.
    let (suite, _) = sweep();
    let mut base_hops = 0.0;
    let mut opt_hops = 0.0;
    let mut n = 0.0;
    for i in 0..suite.apps().len() {
        let base = &rec(RunKind::Baseline, i).stats;
        let opt = &rec(RunKind::Optimized, i).stats;
        if base.offchip_accesses > 100 {
            base_hops += base.net.off_chip.avg_hops();
            opt_hops += opt.net.off_chip.avg_hops();
            n += 1.0;
        }
    }
    assert!(n >= 5.0, "too few apps with off-chip traffic at test scale");
    assert!(
        opt_hops / n < base_hops / n,
        "optimized avg hops {:.2} !< baseline {:.2}",
        opt_hops / n,
        base_hops / n
    );
}

#[test]
fn optimal_scheme_is_an_upper_bound_on_localization() {
    // The §2 optimal scheme uses only nearest controllers, so its off-chip
    // hop count lower-bounds any layout's.
    let (suite, _) = sweep();
    for (i, app) in suite.apps().iter().enumerate().take(4) {
        let optimal = &rec(RunKind::Optimal, i).stats;
        let opt = &rec(RunKind::Optimized, i).stats;
        if optimal.offchip_accesses > 100 {
            assert!(
                optimal.net.off_chip.avg_hops() <= opt.net.off_chip.avg_hops() + 0.3,
                "{}: optimal hops {:.2} > optimized {:.2}",
                app.name(),
                optimal.net.off_chip.avg_hops(),
                opt.net.off_chip.avg_hops()
            );
        }
    }
}

#[test]
fn page_and_cacheline_interleaving_both_work() {
    let (_, mapping) = setup();
    for granularity in [Granularity::CacheLine, Granularity::Page] {
        let sim = SimConfig {
            granularity,
            ..SimConfig::scaled()
        };
        let suite = Suite::new(
            vec![hoploc::workloads::swim(Scale::Test)],
            mapping.clone(),
            sim,
        );
        let recs = suite.run_all(
            &suite.full_matrix(&[RunKind::Baseline, RunKind::Optimized]),
            2,
        );
        assert_eq!(
            recs[0].stats.total_accesses, recs[1].stats.total_accesses,
            "{granularity:?}"
        );
    }
}

#[test]
fn runs_are_deterministic() {
    // Repeat runs of one cell are bit-identical...
    let (sim, mapping) = setup();
    let app = hoploc::workloads::mgrid(Scale::Test);
    let a = run_app(&app, &mapping, &sim, RunKind::Optimized);
    let b = run_app(&app, &mapping, &sim, RunKind::Optimized);
    assert_eq!(a, b);

    // ...and the parallel shared sweep is bit-identical, record for
    // record, to a fresh sequential (jobs = 1) evaluation of the same
    // matrix on a separate Suite instance. `RunStats: PartialEq` compares
    // every field, including the floating-point link utilizations.
    let (suite, records) = sweep();
    let (sim, mapping) = setup();
    let seq_suite = Suite::new(all_apps(Scale::Test), mapping, sim);
    let reqs = seq_suite.full_matrix(&SWEEP_KINDS);
    let seq = seq_suite.run_all(&reqs, 1);
    assert_eq!(records.len(), seq.len());
    for ((p, q), spec) in records.iter().zip(&seq).zip(reqs.iter().map(|r| r.spec)) {
        assert_eq!(
            p.stats,
            q.stats,
            "parallel sweep diverged from sequential on {} {:?}",
            suite.apps()[spec.app].name(),
            spec.kind
        );
    }
}

#[test]
fn parallel_sweep_is_at_least_twice_as_fast() {
    // Acceptance check: with ≥ 4 workers the harness sweep (fan-out +
    // caches, cold start) beats the plain sequential `run_app` loop it
    // replaced by ≥ 2× on the full test-scale matrix.
    if default_jobs() < 4 {
        eprintln!("skipping speedup check: fewer than 4 hardware threads");
        return;
    }
    let (sim, mapping) = setup();
    let kinds = [RunKind::Baseline, RunKind::Optimized];

    let suite = Suite::new(all_apps(Scale::Test), mapping.clone(), sim.clone());
    let reqs = suite.full_matrix(&kinds);
    let start = Instant::now();
    let par = suite.run_all(&reqs, default_jobs());
    let par_time = start.elapsed();

    let start = Instant::now();
    let mut seq = Vec::with_capacity(reqs.len());
    for RunSpec { app, kind } in reqs.iter().map(|r| r.spec) {
        seq.push(run_app(&suite.apps()[app], &mapping, &sim, kind));
    }
    let seq_time = start.elapsed();

    for (p, q) in par.iter().zip(&seq) {
        assert_eq!(&p.stats, q, "speedup arms diverged");
    }
    assert!(
        par_time.as_secs_f64() * 2.0 <= seq_time.as_secs_f64(),
        "parallel sweep {par_time:?} not 2x faster than sequential {seq_time:?}"
    );
}

#[test]
fn traced_sweep_is_deterministic_and_mirrors_stats() {
    // The observability layer must not perturb the simulation, and its
    // exported artifacts must be byte-identical at any worker count.
    let (sim, mapping) = setup();
    let apps = vec![
        hoploc::workloads::swim(Scale::Test),
        hoploc::workloads::mgrid(Scale::Test),
    ];
    let kinds = [RunKind::Baseline, RunKind::Optimized];
    let par_suite = Suite::new(apps.clone(), mapping.clone(), sim.clone());
    let reqs: Vec<RunRequest> = par_suite
        .full_matrix(&kinds)
        .into_iter()
        .map(|r| r.with_obs(ObsConfig::default()))
        .collect();
    let par = par_suite.run_all(&reqs, default_jobs().max(2));
    let seq_suite = Suite::new(apps, mapping, sim);
    let seq = seq_suite.run_all(&reqs, 1);
    for ((p, q), spec) in par.iter().zip(&seq).zip(reqs.iter().map(|r| r.spec)) {
        assert_eq!(p.stats, q.stats, "traced stats diverged on {spec:?}");
        let (p_report, q_report) = (p.report.as_ref().unwrap(), q.report.as_ref().unwrap());
        assert_eq!(
            p_report.chrome_trace_json(),
            q_report.chrome_trace_json(),
            "event stream not byte-identical across job counts on {spec:?}"
        );
        assert_eq!(
            p_report.metrics_json(),
            q_report.metrics_json(),
            "metrics snapshot not byte-identical across job counts on {spec:?}"
        );
        // The counter families behind Figs. 13, 15 and 18 mirror RunStats
        // exactly.
        assert_eq!(p_report.counter("sim.offchip"), p.stats.offchip_accesses);
        assert_eq!(
            p_report.counter_family("sim.node_mc_requests"),
            &p.stats.node_mc_requests.concat()[..],
        );
        assert_eq!(
            p_report.counter_family("net.offchip.hop_hist"),
            &p.stats.net.off_chip.hop_histogram[..],
        );
        assert_eq!(
            p_report.counter_family("net.onchip.hop_hist"),
            &p.stats.net.on_chip.hop_histogram[..],
        );
        let queue: Vec<u64> = p.stats.mc.iter().map(|m| m.total_queue_cycles).collect();
        assert_eq!(p_report.counter_family("mc.queue_cycles"), &queue[..]);
    }
}

#[test]
fn every_offchip_request_gets_a_full_span_trail() {
    let (sim, mapping) = setup();
    let suite = Suite::new(vec![hoploc::workloads::swim(Scale::Test)], mapping, sim);
    let cell = RunSpec {
        app: 0,
        kind: RunKind::Baseline,
    };
    let (stats, report) = suite
        .run(&RunRequest::new(cell).with_obs(ObsConfig::default()))
        .recorded();
    let events = report.events();
    // One closing `offchip` span per off-chip demand access...
    let closed = events.iter().filter(|e| e.name == EvName::Offchip).count();
    assert_eq!(closed as u64, stats.offchip_accesses);
    // ...and each of those requests also left NoC hops, an MC bank
    // service, and a reply on its trail.
    for name in [EvName::HopRequest, EvName::HopReply] {
        assert!(
            events.iter().filter(|e| e.name == name).count() as u64 >= stats.offchip_accesses,
            "{name:?} spans missing"
        );
    }
    let services = events
        .iter()
        .filter(|e| e.name == EvName::BankRowHit || e.name == EvName::BankRowMiss)
        .count() as u64;
    assert!(
        services >= stats.offchip_accesses,
        "bank services {services} < off-chip accesses {}",
        stats.offchip_accesses
    );
    // The exported trace round-trips through the schema validator.
    let summary =
        validate_chrome_trace(&report.chrome_trace_json()).expect("schema-valid Chrome trace");
    assert_eq!(summary.span_events, events.len());
}

#[test]
fn first_touch_runs_and_respects_clusters() {
    let (_, mapping) = setup();
    let sim = SimConfig {
        granularity: Granularity::Page,
        ..SimConfig::scaled()
    };
    let suite = Suite::new(vec![hoploc::workloads::gafort(Scale::Test)], mapping, sim);
    let ft = suite
        .run(&suite.full_matrix(&[RunKind::FirstTouch])[0])
        .stats;
    assert!(ft.total_accesses > 0);
    assert_eq!(
        ft.os_fallbacks, 0,
        "ample memory: no fallback allocations expected"
    );
}
