//! Pin of what a search's verification reports: the six `(key, cycles)`
//! pairs of every application's report — three finalists, then the corner,
//! edge and diamond baselines — against one fresh compile and one
//! simulation per request, kept here as the reference, and against digests
//! recorded from it. The search shares one simulation between requests for one machine;
//! the report must stay the one this path produces, and the number of
//! simulations it took is pinned beside it.

use hoploc_harness::run_plan;
use hoploc_layout::{Granularity, PassConfig};
use hoploc_noc::{McPlacement, Placement};
use hoploc_search::{search_app, Candidate, SearchConfig, SearchReport};
use hoploc_sim::{Cancel, SimConfig};
use hoploc_workloads::{all_apps, layout_with, App, RunKind, Scale};
use std::fmt::Write as _;

/// The search seeds pinned: the CLI default, and the one `hoploc-perf
/// --seed 1` derives for `search-triage`.
const SEEDS: [u64; 2] = [0, 0x5e4e_bd8e_edcd_b1cc];

/// Reference: cycle-sim completion time of the optimized run of `app` on
/// `placement` and `sim`, on a plan compiled for it alone (one analysis,
/// one compile, one trace, one simulation).
fn simulate_alone(app: &App, placement: &Placement, sim: &SimConfig, approx: f64) -> u64 {
    let kind = RunKind::Optimized;
    let plan = layout_with(app, placement.mapping(), sim, kind, approx);
    run_plan(app, &plan, placement, sim, kind, &Cancel::never()).exec_cycles
}

/// Reference: cycle-sim completion time of one candidate.
fn verify_candidate(app: &App, cfg: &SearchConfig, c: &Candidate) -> u64 {
    let placement = c
        .placement(&cfg.sim.mesh)
        .expect("search candidates are legal by construction");
    let sim = SimConfig {
        granularity: c.granularity,
        ..cfg.sim.clone()
    };
    simulate_alone(app, &placement, &sim, c.approx)
}

/// Reference: cycle-sim completion time of a paper placement under the
/// base config (nearest-cluster M1 mapping, default layout parameters).
fn baseline_cycles(app: &App, cfg: &SearchConfig, placement: &McPlacement) -> u64 {
    let p = Placement::nearest(cfg.sim.mesh, placement);
    let approx = PassConfig::default().approx_threshold;
    simulate_alone(app, &p, &cfg.sim, approx)
}

fn search_cfg(seed: u64) -> SearchConfig {
    let sim = SimConfig {
        granularity: Granularity::CacheLine,
        ..SimConfig::scaled()
    };
    SearchConfig {
        seed,
        budget: 1000,
        top_k: 3,
        ..SearchConfig::new(sim, Scale::Test)
    }
}

/// The six pairs of a report, one per line, in request order.
fn pairs_of(r: &SearchReport) -> String {
    let mut s = String::new();
    for v in &r.verified {
        let _ = writeln!(s, "{} {}", v.candidate.key(), v.cycles);
    }
    let _ = writeln!(s, "corners {}", r.corners_cycles);
    let _ = writeln!(s, "edge {}", r.edge_cycles);
    let _ = writeln!(s, "diamond {}", r.diamond_cycles);
    s
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// `(app, per seed: digest of the six pairs, per seed: simulations run for
/// the six)`, in suite order. The last column is the number of distinct
/// machines among the six requests — 68 and 66 of 78: where it is below
/// six, the shortlist holds approximation-threshold twins of one compiled
/// plan. Finalists that differ in a cluster's MC set and still finish in
/// the same cycle (wupwise, apsi on seed 0) are different machines and are
/// simulated each.
#[rustfmt::skip]
const PINNED: [(&str, [u64; 2], [usize; 2]); 13] = [
    ("wupwise", [0xe8244e81eee9a19e, 0x66a64407b513fcdb], [6, 6]),
    ("swim", [0xd91790cc5949c10e, 0x1e37ba7b193fc961], [5, 6]),
    ("mgrid", [0x159f07449283b0b8, 0x014dbda484e3f4eb], [6, 5]),
    ("applu", [0x44bb637cb416b0c5, 0xded2c685e64cbef1], [6, 6]),
    ("galgel", [0xbac68f5bd5025626, 0x461bda34406d8e8f], [5, 5]),
    ("apsi", [0xdb3dab9b9a06992d, 0xef90a2a21281f7e7], [6, 5]),
    ("gafort", [0x72c8389d5a5accdd, 0x397bd88953999c41], [4, 5]),
    ("fma3d", [0x842fde571fb2b4df, 0x4cffa5de0e355d28], [4, 5]),
    ("art", [0xea74a3d551ab2c0c, 0x5feb92c9ed3c7421], [6, 4]),
    ("ammp", [0x7d464607b9556a7a, 0x7d464607b9556a7a], [5, 5]),
    ("hpccg", [0x4f4e16bf75091e29, 0x4f4e16bf75091e29], [5, 5]),
    ("minighost", [0x1d3fe572c29ef6d0, 0xa1773ed496bbf853], [5, 5]),
    ("minimd", [0x8cf898da4b4c06d8, 0xbfd0fd6efd519149], [5, 4]),
];

#[test]
fn reports_equal_the_one_run_per_request_reference() {
    let apps = all_apps(Scale::Test);
    assert_eq!(apps.len(), PINNED.len());
    let mut got = Vec::new();
    for (app, (name, want, _)) in apps.iter().zip(&PINNED) {
        assert_eq!(app.name(), *name);
        let mut digests = [0u64; 2];
        let mut simulated = [0usize; 2];
        for (i, seed) in SEEDS.iter().enumerate() {
            let cfg = search_cfg(*seed);
            let r = search_app(app, &cfg, &mut |_| {});
            let at = format!("{name}, seed {seed:#x}");
            assert_eq!(r.verified.len(), 3, "{at}: top_k finalists");
            for v in &r.verified {
                assert_eq!(
                    v.cycles,
                    verify_candidate(app, &cfg, &v.candidate),
                    "{at}: finalist {}",
                    v.candidate.key()
                );
            }
            let base = |p| baseline_cycles(app, &cfg, &p);
            assert_eq!(r.corners_cycles, base(McPlacement::Corners), "{at}");
            assert_eq!(r.edge_cycles, base(McPlacement::EdgeMidpoints), "{at}");
            assert_eq!(r.diamond_cycles, base(McPlacement::Diagonal), "{at}");
            // The winner is the fastest finalist, ties to the smaller key.
            let winner = r
                .verified
                .iter()
                .min_by_key(|v| (v.cycles, v.candidate.key()))
                .expect("three finalists");
            assert_eq!(r.found, winner.candidate, "{at}");
            assert_eq!(r.found_cycles, winner.cycles, "{at}");
            assert_eq!(r.requested(), 6, "{at}");
            simulated[i] = r.simulated;
            let pairs = pairs_of(&r);
            digests[i] = fnv1a(&pairs);
            if digests[i] != want[i] {
                eprintln!("{at} now verifies:\n{pairs}");
            }
        }
        got.push((*name, digests, simulated));
    }
    assert_eq!(
        got, PINNED,
        "verification pairs or simulation counts moved: {got:#018x?}"
    );
}
