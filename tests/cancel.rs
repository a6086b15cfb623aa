//! The cancel token a run request and a search carry: set, it stops the
//! simulator's event loop at its next poll and a search's chain after its
//! first evaluation; never set, it changes no statistic.

use hoploc::cache::CacheConfig;
use hoploc::fault::{FaultPlan, FaultRates};
use hoploc::harness::{fault_topo, MachineSpec, RunRequest, RunSpec, Suite};
use hoploc::layout::L2Mode;
use hoploc::obs::ObsConfig;
use hoploc::search::{search_app, SearchConfig};
use hoploc::sim::{Cancel, PrefetchConfig, PrefetchMode, SimConfig};
use hoploc::workloads::{app_by_name, gafort, RunKind, Scale};
use std::time::{Duration, Instant};

/// Events the simulator handles between two polls of its token; each
/// access is at least one event.
const POLL_EVENTS: u64 = 1 << 14;

fn suite(app: &str, scale: Scale, sim: SimConfig) -> Suite {
    let apps = vec![app_by_name(app, scale).expect("a suite application")];
    Suite::new(apps, MachineSpec::at(scale).mapping(), sim)
}

#[test]
fn a_set_token_stops_the_run_at_its_first_poll() {
    let s = suite("swim", Scale::Bench, MachineSpec::at(Scale::Bench).sim());
    let cell = RunRequest::new(RunSpec {
        app: 0,
        kind: RunKind::Baseline,
    });
    let flagged = Cancel::new(None);
    flagged.cancel();
    let expired = Cancel::new(Some(Instant::now()));
    let full = s.run(&cell).stats.total_accesses;
    for token in [&flagged, &expired] {
        // Untraced (`Simulator::run`) and traced (`run_traced`).
        for req in [cell, cell.with_obs(ObsConfig::default())] {
            let cut = RunRequest {
                cancel: Some(token),
                ..req
            };
            let out = s.run(&cut);
            assert_eq!(out.report.is_some(), req.obs.is_some());
            let done = out.stats.total_accesses;
            assert!(
                done < POLL_EVENTS && done < full,
                "{done} of {full} accesses"
            );
        }
    }
}

#[test]
fn a_token_never_set_changes_no_statistic() {
    let tiny_l2 = CacheConfig {
        size_bytes: 2048,
        line_bytes: 256,
        ways: 4,
    };
    let later = Cancel::new(Some(Instant::now() + Duration::from_secs(3600)));
    for l2_mode in [L2Mode::Private, L2Mode::Shared] {
        let sim = SimConfig {
            l2: tiny_l2,
            l2_mode,
            writebacks: true,
            prefetch: PrefetchConfig::with_mode(PrefetchMode::Gated),
            ..MachineSpec::at(Scale::Test).sim()
        };
        for app in ["swim", "minimd"] {
            let s = suite(app, Scale::Test, sim.clone());
            let plan = FaultPlan::from_seed(7, &fault_topo(s.sim()), &FaultRates::moderate());
            for kind in [RunKind::Baseline, RunKind::Optimized] {
                let plain = RunRequest::new(RunSpec { app: 0, kind }).with_faults(&plan);
                let want = s.run(&plain).stats;
                for token in [Cancel::never(), Cancel::new(None), later.clone()] {
                    let req = RunRequest {
                        cancel: Some(&token),
                        ..plain
                    };
                    assert_eq!(s.run(&req).stats, want, "{app} {kind:?} {l2_mode:?}");
                }
            }
        }
    }
}

#[test]
fn a_set_token_stops_a_search_after_one_evaluation() {
    let cfg = SearchConfig {
        budget: 400,
        cancel: Cancel::new(None),
        ..SearchConfig::new(MachineSpec::at(Scale::Test).sim(), Scale::Test)
    };
    cfg.cancel.cancel();
    let mut events = Vec::new();
    let r = search_app(&gafort(Scale::Test), &cfg, &mut |e| events.push(e));
    assert_eq!((r.evaluated, events.len()), (1, 1));
}
