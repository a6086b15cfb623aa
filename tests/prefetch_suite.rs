//! Differential + chaos integration suite for the prefetch layer.
//!
//! Three families of guarantees over the test-scale application suite:
//!
//! 1. **Off-mode inertness** — `--prefetch off` (the default) builds no
//!    prefetch state: no cell of the (app × kind) matrix records prefetch
//!    activity and a traced run's snapshot has no `pf.*` family. (The
//!    mode is the only prefetch setting; degree, stream distance and the
//!    in-flight cap are constants of `hoploc-prefetch`.)
//!
//! 2. **Parallel determinism and one count per event** — a gated-prefetch
//!    matrix swept with `--jobs 1` and `--jobs N` yields bit-identical
//!    records, including every prefetch counter; and a traced gated run's
//!    `pf.*` families, which the simulator registers whenever its
//!    prefetcher is on, sum to `RunStats::prefetch` on every application.
//!
//! 3. **Chaos conservation / termination** — with gated prefetch on and
//!    seeded fault plans cycling the intensity ladder, every run
//!    terminates with no request in flight and conserves *demand*
//!    requests exactly as the fault suite states it
//!    (`Σ served + Σ dropped == off-chip issues + writebacks`):
//!    prefetch-class requests are exempt, accounted only under
//!    `pf_served`/`pf_dropped`, and are never retried or re-homed.

use hoploc::fault::{FaultPlan, FaultRates};
use hoploc::harness::{default_jobs, fault_topo, RunRequest, RunSpec, Suite};
use hoploc::layout::Granularity;
use hoploc::noc::L2ToMcMapping;
use hoploc::obs::ObsConfig;
use hoploc::sim::{PrefetchConfig, PrefetchMode, SimConfig};
use hoploc::workloads::{all_apps, RunKind, Scale};

const KINDS: [RunKind; 4] = [
    RunKind::Baseline,
    RunKind::Optimized,
    RunKind::FirstTouch,
    RunKind::Optimal,
];

fn suite_with(prefetch: PrefetchConfig) -> Suite {
    let sim = SimConfig {
        granularity: Granularity::CacheLine,
        prefetch,
        ..SimConfig::scaled()
    };
    let mapping = L2ToMcMapping::nearest_cluster(sim.mesh, &sim.placement);
    Suite::new(all_apps(Scale::Test), mapping, sim)
}

#[test]
fn prefetch_off_is_bit_identical_to_the_seed_engine() {
    // Mode Off means no prefetch state exists at all: no cell records
    // prefetch activity, recording changes nothing, and the snapshot has
    // no `pf.*` family. The Off cells' bytes are pinned in `flow_golden`.
    let off = suite_with(PrefetchConfig::default());
    let reqs = off.full_matrix(&KINDS);
    let runs = off.run_all(&reqs, default_jobs());
    for (run, spec) in runs.iter().zip(reqs.iter().map(|r| r.spec)) {
        assert!(
            run.stats.prefetch.is_empty(),
            "{spec:?}: off mode must record no prefetch activity"
        );
    }
    let (stats, report) = off.run(&reqs[0].with_obs(ObsConfig::default())).recorded();
    assert_eq!(stats, runs[0].stats, "recording perturbed an off-mode run");
    assert!(
        !report.metrics_json().contains("\"pf."),
        "prefetch-off metrics must not register pf.* families"
    );
}

#[test]
fn prefetch_matrix_identical_across_job_counts() {
    let suite = suite_with(PrefetchConfig::with_mode(PrefetchMode::Gated));
    let reqs = suite.full_matrix(&KINDS);
    let seq = suite.run_all(&reqs, 1);
    let par = suite.run_all(&reqs, default_jobs().max(2));
    let mut prefetched_somewhere = false;
    for ((s, p), spec) in seq.iter().zip(&par).zip(reqs.iter().map(|r| r.spec)) {
        assert_eq!(
            s.stats, p.stats,
            "{spec:?}: prefetch run diverged across job counts"
        );
        prefetched_somewhere |= s.stats.prefetch.issued > 0;
    }
    assert!(
        prefetched_somewhere,
        "the sweep is vacuous if no run ever issued a prefetch"
    );
}

#[test]
fn pf_counter_families_mirror_run_stats_on_every_app() {
    let suite = suite_with(PrefetchConfig::with_mode(PrefetchMode::Gated));
    let obs = ObsConfig::default();
    let mut prefetched_somewhere = false;
    for (i, app) in suite.apps().iter().enumerate() {
        let spec = RunSpec {
            app: i,
            kind: RunKind::Optimized,
        };
        let (stats, report) = suite.run(&RunRequest::new(spec).with_obs(obs)).recorded();
        let sum = |name: &str| report.counter_family(name).iter().sum::<u64>();
        let pf = &stats.prefetch;
        let name = app.name();
        // The snapshot copies each slice's summary, and `RunStats` sums
        // them, so the two must agree exactly — with no `prefetch` flag in
        // the `ObsConfig`: a gated run registers its families itself.
        assert_eq!(sum("pf.candidates"), pf.candidates, "{name}: candidates");
        assert_eq!(sum("pf.gated"), pf.gated, "{name}: gated");
        assert_eq!(sum("pf.issued"), pf.issued, "{name}: issued");
        assert_eq!(sum("pf.useful"), pf.useful, "{name}: useful");
        assert_eq!(sum("pf.late"), pf.late, "{name}: late");
        assert_eq!(sum("pf.harmful"), pf.harmful, "{name}: harmful");
        assert_eq!(sum("pf.dropped"), pf.dropped, "{name}: dropped");
        assert_eq!(sum("pf.pred.correct"), pf.pred_correct, "{name}: correct");
        assert_eq!(sum("pf.pred.total"), pf.pred_total, "{name}: total");
        prefetched_somewhere |= pf.issued > 0;
    }
    assert!(
        prefetched_somewhere,
        "the parity sweep is vacuous if nothing ever prefetched"
    );
}

#[test]
fn chaos_with_prefetch_on_terminates_and_conserves_demand() {
    let suite = suite_with(PrefetchConfig::with_mode(PrefetchMode::Gated));
    let topo = fault_topo(suite.sim());
    let jobs = default_jobs();
    let mut injected_somewhere = false;
    let mut pf_dropped_somewhere = false;
    for (i, app) in suite.apps().iter().enumerate() {
        let spec = RunSpec {
            app: i,
            kind: RunKind::Optimized,
        };
        let clean = suite.run(&RunRequest::new(spec)).stats;
        // 8 plans per app across the whole intensity ladder, placement
        // horizon matched to the run length (as in the fault suite).
        let plans: Vec<FaultPlan> = (0..8)
            .map(|p| {
                let rates =
                    FaultRates::at_level((p % 7) as u32).with_horizon(clean.exec_cycles.max(1));
                FaultPlan::from_seed(31_000 + (i * 8 + p) as u64, &topo, &rates)
            })
            .collect();
        let reqs: Vec<RunRequest> = plans
            .iter()
            .map(|plan| RunRequest::new(spec).with_faults(plan))
            .collect();
        for (p, faulted) in suite.run_all(&reqs, jobs).iter().enumerate() {
            let faulted = &faulted.stats;
            let name = app.name();
            assert_eq!(
                faulted.total_accesses, clean.total_accesses,
                "{name} plan {p}: faults + prefetch changed the dynamic work"
            );
            // Demand conservation, stated exactly as in the fault suite —
            // prefetch-class requests must not leak into either side.
            let served: u64 = faulted.mc.iter().map(|m| m.served).sum();
            let dropped: u64 = faulted.mc.iter().map(|m| m.dropped).sum();
            let issued = faulted.offchip_accesses + faulted.writebacks;
            assert_eq!(
                served + dropped,
                issued,
                "{name} plan {p}: demand requests lost or duplicated"
            );
            for (m, mc) in faulted.mc.iter().enumerate() {
                assert_eq!(
                    mc.transient_errors,
                    mc.retries + mc.dropped,
                    "{name} plan {p}: MC{m} mislaid a demand transient error"
                );
            }
            // Prefetches are speculative: issued ones either complete at
            // a controller or are dropped (at issue, in an outage, or on
            // a transient error) — never retried into the demand ledger.
            let pf = &faulted.prefetch;
            let pf_served: u64 = faulted.mc.iter().map(|m| m.pf_served).sum();
            assert!(
                pf_served <= pf.issued,
                "{name} plan {p}: more prefetches served than issued"
            );
            injected_somewhere |= faulted.dropped_requests > 0
                || faulted.rehomed_requests > 0
                || faulted.mc.iter().any(|m| m.retries > 0);
            pf_dropped_somewhere |= pf.dropped > 0;
        }
    }
    assert!(
        injected_somewhere,
        "no retries, drops, or re-homes across the whole chaos sweep"
    );
    assert!(
        pf_dropped_somewhere,
        "no plan ever dropped a prefetch; the exemption path is untested"
    );
}
