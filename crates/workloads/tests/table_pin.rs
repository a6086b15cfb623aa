//! Every index table of the suite, pinned by length and FNV-1a of its
//! values at both scales (recorded when the tables were still built with
//! their applications), and the laziness of declared tables: building the
//! catalogue builds no table, one read builds one table, and concurrent
//! first readers share one build. An application's layout analysis is
//! kept the same way: no catalogue and no plan of the baseline class
//! builds it, concurrent first readers share one build, a clone carries
//! it, and every plan made from it is the one a fresh pass compiles.

use hoploc_affine::{Program, TableId};
use hoploc_layout::{baseline_layout, optimize_program, Granularity, L2Mode, PassConfig};
use hoploc_noc::Placement;
use hoploc_sim::SimConfig;
use hoploc_workloads::{all_apps, fma3d, layout_for, RunKind, Scale};

/// FNV-1a over the little-endian bytes of every value.
fn fnv1a(values: &[i64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in values.iter().flat_map(|v| v.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn ids(program: &Program) -> impl Iterator<Item = TableId> {
    (0..program.table_count()).map(TableId)
}

/// An app with tables: its scale, its name and `(length, FNV-1a)` per
/// table.
type Pin = (Scale, &'static str, &'static [(usize, u64)]);

/// Every app with tables, [`Scale::Test`] first, in catalogue order.
#[rustfmt::skip]
const PINNED: [Pin; 10] = [
    (Scale::Test, "gafort", &[(16384, 0xb26cf0cd2863c434)]),
    (Scale::Test, "fma3d", &[(65536, 0x6423eba122d3e27e), (65536, 0xf1500fab12222281)]),
    (Scale::Test, "ammp", &[(4096, 0x3ca320533e45db5c), (4096, 0x56b82852e852a925)]),
    (Scale::Test, "hpccg", &[(32768, 0xa66b33d42cacc4fd)]),
    (Scale::Test, "minimd", &[(16384, 0x2814af4ad2079938)]),
    (Scale::Bench, "gafort", &[(196608, 0x4bdf30aea83782b8)]),
    (Scale::Bench, "fma3d", &[(786432, 0xee6cf7f938f98675), (786432, 0xc46671f8be2fd2f4)]),
    (Scale::Bench, "ammp", &[(49152, 0xebe4fbd3137535d3), (49152, 0x87bc6239c067bfa5)]),
    (Scale::Bench, "hpccg", &[(393216, 0x2ac6c6056fda6cd7)]),
    (Scale::Bench, "minimd", &[(196608, 0xfa5c29a1c7a9ef30)]),
];

#[test]
fn every_table_keeps_its_length_and_values() {
    let mut pinned = PINNED.iter();
    for scale in [Scale::Test, Scale::Bench] {
        for app in all_apps(scale) {
            let p = &app.program;
            if p.table_count() == 0 {
                continue;
            }
            let tables: Vec<(usize, u64)> = ids(p)
                .map(|t| (p.table(t).len(), fnv1a(p.table(t))))
                .collect();
            assert_eq!(pinned.next(), Some(&(scale, app.name(), &tables[..])));
        }
    }
    assert_eq!(pinned.next(), None);
}

#[test]
fn the_catalogue_builds_no_table() {
    for app in all_apps(Scale::Bench) {
        let p = &app.program;
        assert!(ids(p).all(|t| !p.table_is_built(t)), "{}", app.name());
    }
}

#[test]
fn reading_one_table_builds_that_table_only() {
    let app = fma3d(Scale::Test);
    let p = &app.program;
    assert_eq!(p.table_count(), 2);
    assert!(!p.table(TableId(1)).is_empty());
    assert!(!p.table_is_built(TableId(0)));
    assert!(p.table_is_built(TableId(1)));
}

#[test]
fn concurrent_first_readers_share_one_build() {
    let app = fma3d(Scale::Test);
    let p = &app.program;
    let [a, b] = std::thread::scope(|s| {
        let readers = [0, 1].map(|_| s.spawn(|| p.table(TableId(0))));
        readers.map(|r| r.join().expect("reader"))
    });
    assert_eq!(a, b);
    // One build: both readers hold the very same values.
    assert!(std::ptr::eq(a, b));
    assert!(std::ptr::eq(a, p.table(TableId(0))));
}

#[test]
fn debug_prints_a_declared_table_as_its_generator() {
    let app = fma3d(Scale::Bench);
    let text = format!("{:?}", app.program);
    assert!(
        text.contains("Banded { len: 786432, extent: 786432, jitter: 4096, seed: 3 }"),
        "{text}"
    );
    assert!(text.len() < 4096, "{} bytes", text.len());
    assert!(!app.program.table_is_built(TableId(0)));
}

/// The eight machines a plan can be compiled for (granularity × L2
/// organization × M1/M2), each with its mapping.
fn machines() -> Vec<(SimConfig, Placement)> {
    let mut out = Vec::new();
    for granularity in [Granularity::CacheLine, Granularity::Page] {
        for l2_mode in [L2Mode::Private, L2Mode::Shared] {
            let sim = SimConfig {
                granularity,
                l2_mode,
                ..SimConfig::scaled()
            };
            out.push((sim.clone(), Placement::nearest(sim.mesh, &sim.placement)));
            out.push((sim.clone(), Placement::halves(sim.mesh, &sim.placement)));
        }
    }
    out
}

#[test]
fn no_catalogue_and_no_baseline_class_plan_analyzes() {
    assert!(all_apps(Scale::Bench)
        .iter()
        .all(|a| !a.analysis_is_built()));
    let kinds = [RunKind::Baseline, RunKind::FirstTouch, RunKind::Optimal];
    for app in all_apps(Scale::Test) {
        for (sim, placement) in machines() {
            for kind in kinds {
                layout_for(&app, placement.mapping(), &sim, kind);
            }
        }
        assert!(!app.analysis_is_built(), "{}", app.name());
    }
}

#[test]
fn concurrent_first_readers_share_one_analysis_and_a_clone_carries_it() {
    let app = fma3d(Scale::Test);
    let before = app.clone();
    let [a, b] = std::thread::scope(|s| {
        let readers = [0, 1].map(|_| s.spawn(|| app.analysis()));
        readers.map(|r| r.join().expect("reader"))
    });
    // One build: both readers hold the very same analysis.
    assert!(std::ptr::eq(a, b));
    assert!(std::ptr::eq(a, app.analysis()));
    assert!(std::ptr::eq(a, app.clone().analysis()));
    assert!(!before.analysis_is_built(), "a clone made before the read");
}

/// Every test-scale application × every kind × the eight machines: the plan
/// made from the kept analysis is, `{:?}` for `{:?}`, the one a fresh
/// `optimize_program` (optimized side) or `baseline_layout` compiles.
#[test]
fn every_plan_is_a_fresh_pass() {
    for app in all_apps(Scale::Test) {
        for (sim, placement) in machines() {
            let mapping = placement.mapping();
            let pass = PassConfig {
                granularity: sim.granularity,
                l2_mode: sim.l2_mode,
                line_bytes: sim.l2.line_bytes as u32,
                page_bytes: sim.page_bytes as u32,
                ..PassConfig::default()
            };
            let optimized = optimize_program(&app.program, mapping, pass);
            let baseline = baseline_layout(&app.program, sim.num_nodes());
            for kind in RunKind::ALL {
                let fresh = match kind {
                    RunKind::Optimized => &optimized,
                    _ => &baseline,
                };
                let kept = layout_for(&app, mapping, &sim, kind);
                assert_eq!(
                    format!("{kept:?}"),
                    format!("{fresh:?}"),
                    "{} {kind:?} {:?} {:?}",
                    app.name(),
                    sim.granularity,
                    sim.l2_mode
                );
            }
        }
    }
}
