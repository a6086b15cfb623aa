//! End-to-end suite for the design-space search (`hoploc search`).
//!
//! Two headline assertions from the issue's acceptance list:
//!
//! 1. **The search wins.** From the committed seed, the machine-found
//!    design beats *both* paper placements (diamond and edge) on
//!    bench-scale applications, measured by cycle-sim completion time —
//!    not by the estimator that guided the search.
//! 2. **Serve streams are byte-identical.** A `search` job submitted to
//!    `hoploc-serve` over real loopback TCP streams exactly the progress
//!    event lines and final report that a direct `hoploc search --json -`
//!    run produces for the same seed, and resubmissions are served from
//!    cache with the same bytes.

use hoploc::harness::MachineSpec;
use hoploc::layout::Granularity;
use hoploc::search::{search_app, Objective, SearchConfig};
use hoploc::serve::{
    Client, EngineCaps, JobSpec, SearchSpec, ServeConfig, Server, SubmitStatus, SuiteEngine,
};
use hoploc::sim::SimConfig;
use hoploc::workloads::{all_apps, App, RunKind, Scale};
use std::sync::Arc;

/// The CLI's machine configuration (`fn sim` in the binary): cacheline
/// interleaving over the scaled mesh, private L2s.
fn cli_sim() -> SimConfig {
    SimConfig {
        granularity: Granularity::CacheLine,
        ..SimConfig::scaled()
    }
}

fn app_named(name: &str, scale: Scale) -> App {
    all_apps(scale)
        .into_iter()
        .find(|a| a.name() == name)
        .unwrap_or_else(|| panic!("unknown app {name}"))
}

#[test]
fn found_designs_beat_both_paper_placements_at_bench_scale() {
    // Seed 0 / budget 300 is the committed configuration (CI smoke job,
    // EXPERIMENTS.md table): it beats diamond AND edge on 12 of the 13
    // bench apps. Three of the cheapest winners keep this test tier-1
    // fast while still proving the "≥ 3 apps" acceptance bar.
    let cfg = SearchConfig {
        seed: 0,
        budget: 300,
        ..SearchConfig::new(cli_sim(), Scale::Bench)
    };
    for name in ["gafort", "apsi", "mgrid"] {
        let app = app_named(name, Scale::Bench);
        let report = search_app(&app, &cfg, &mut |_| {});
        assert!(
            report.found_cycles < report.diamond_cycles,
            "{name}: found {} must beat diamond {}",
            report.found_cycles,
            report.diamond_cycles
        );
        assert!(
            report.found_cycles < report.edge_cycles,
            "{name}: found {} must beat edge {}",
            report.found_cycles,
            report.edge_cycles
        );
        assert_eq!(report.seed, 0, "the winning configuration is committed");
    }
}

#[test]
fn serve_watch_stream_is_byte_identical_to_a_direct_search() {
    let engine = Arc::new(SuiteEngine::new(EngineCaps::default()));
    let server = Server::bind("127.0.0.1:0", engine, ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("bound addr");
    let handle = std::thread::spawn(move || server.run());

    let spec = JobSpec {
        app: "gafort".into(),
        kind: RunKind::Optimized,
        machine: MachineSpec::at(Scale::Test),
        search: Some(SearchSpec {
            seed: 9,
            budget: 24,
            objective: "offchip+hops".into(),
        }),
        ..JobSpec::default()
    };
    let mut client = Client::connect(addr).expect("connect");
    let (id, status, _) = client.submit_until_accepted(&spec, 10).expect("submit");
    assert_eq!(status, SubmitStatus::Queued);
    let mut streamed = Vec::new();
    let served = client
        .watch(id, &mut |event| streamed.push(event))
        .expect("watch to completion");

    // The direct run `hoploc search gafort --scale test --seed 9
    // --budget 24 --json -` reduces to exactly this call.
    let cfg = SearchConfig {
        seed: 9,
        budget: 24,
        objective: Objective::parse("offchip,hops").expect("valid objective"),
        ..SearchConfig::new(cli_sim(), Scale::Test)
    };
    let app = app_named("gafort", Scale::Test);
    let mut direct = Vec::new();
    let report = search_app(&app, &cfg, &mut |event| direct.push(event));
    assert_eq!(
        streamed, direct,
        "served progress events must match the direct run byte-for-byte"
    );
    assert_eq!(
        served,
        report.to_json(),
        "the served final report must match the direct run byte-for-byte"
    );

    // Resubmission: a cache hit with the same bytes, and `watch` on a
    // cached job degrades to the final line (no progress replay — the
    // cache stores results, not streams).
    let (id2, status2, _) = client.submit_until_accepted(&spec, 10).expect("resubmit");
    assert_eq!(status2, SubmitStatus::Cached);
    assert_ne!(id, id2);
    assert_eq!(client.result(id2).expect("cached result"), served);

    // An ordinary cycle job on the same connection still works, and its
    // watch is just a result with zero events.
    let plain = JobSpec {
        app: "gafort".into(),
        kind: RunKind::Baseline,
        machine: MachineSpec::at(Scale::Test),
        ..JobSpec::default()
    };
    let (id3, _, _) = client.submit_until_accepted(&plain, 10).expect("submit");
    let mut plain_events = Vec::new();
    let plain_result = client
        .watch(id3, &mut |e| plain_events.push(e))
        .expect("watch plain job");
    assert!(plain_events.is_empty(), "cycle jobs emit no progress");
    assert!(plain_result.contains("\"exec_cycles\""), "{plain_result}");

    client.drain().expect("drain");
    handle.join().expect("server thread");
}
