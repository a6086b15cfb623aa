//! Injected-defect tests for the HL10xx predicted-performance
//! diagnostics: each code is proven to fire by constructing the specific
//! defect it exists to catch — a plan no closer than interleaving
//! (HL1001), a plan piled onto one controller (HL1002), a working set
//! that streams (HL1003), an index-table prediction (HL1004) — and the
//! bundled suite is pinned warning-free so `--deny warnings` stays green.

use hoploc_affine::{
    AffineAccess, AffineExpr, ArrayDecl, ArrayRef, IMat, Loop, LoopNest, Program, Statement,
};
use hoploc_check::{Code, Severity};
use hoploc_est::{
    check_array_plan, performance_diagnostics, prefetch_diagnostics, standard_configs, EstConfig,
};
use hoploc_layout::{AppProfile, ArrayLayout};
use hoploc_noc::{L2ToMcMapping, NodeId};
use hoploc_sim::SimConfig;
use hoploc_workloads::{all_apps, layout_for, App, Scale, TraceGen};

fn machine() -> (SimConfig, L2ToMcMapping, Vec<NodeId>) {
    let sim = SimConfig::scaled();
    let mapping = L2ToMcMapping::nearest_cluster(sim.mesh, &sim.placement);
    let nodes: Vec<NodeId> = (0..sim.num_nodes()).map(|n| NodeId(n as u16)).collect();
    (sim, mapping, nodes)
}

/// A hand-built localized plan: one group per thread, each group owning
/// the slots `chooser` picks within a super-group of `threads × n_mcs`
/// interleave units.
fn plan_with_slots(
    mapping: &L2ToMcMapping,
    threads: usize,
    chooser: impl Fn(usize, u32) -> Vec<u32>,
) -> (ArrayDecl, ArrayLayout) {
    let n_mcs = mapping.num_mcs() as u32;
    let decl = ArrayDecl::new("W", vec![64, 64], 8);
    let thread_group: Vec<u32> = (0..threads as u32).collect();
    let group_slots: Vec<Vec<u32>> = (0..threads).map(|t| chooser(t, n_mcs)).collect();
    let al = ArrayLayout::from_parts(
        &decl,
        IMat::identity(2),
        256,
        thread_group,
        group_slots,
        threads as u32 * n_mcs,
        n_mcs,
    );
    (decl, al)
}

/// HL1001: a plan whose groups own one slot on *every* controller puts
/// each thread exactly at the uniform-interleave hop distance — paying
/// the localization machinery for zero hop improvement.
#[test]
fn hl1001_fires_when_the_plan_is_no_closer_than_interleaving() {
    let (_, mapping, nodes) = machine();
    let (_, al) = plan_with_slots(&mapping, nodes.len(), |t, n_mcs| {
        (0..n_mcs).map(|m| t as u32 * n_mcs + m).collect()
    });
    let ds = check_array_plan("toy", "W", &al, &nodes, &mapping, 1.0, "inj");
    assert!(
        ds.iter().any(|d| d.code == Code::PredictedPlanIneffective),
        "HL1001 must fire on an everywhere-plan: {ds:?}"
    );
    // Slots cover every controller evenly, so no imbalance finding.
    assert!(
        ds.iter().all(|d| d.code != Code::PredictedMcImbalance),
        "balanced slots must not draw HL1002: {ds:?}"
    );
}

/// HL1002: every group's slots ≡ 0 (mod n_mcs) — the whole array lands
/// on controller 0, whose queue the model predicts will saturate.
#[test]
fn hl1002_fires_when_slots_pile_onto_one_controller() {
    let (_, mapping, nodes) = machine();
    let (_, al) = plan_with_slots(&mapping, nodes.len(), |t, n_mcs| vec![t as u32 * n_mcs]);
    let ds = check_array_plan("toy", "W", &al, &nodes, &mapping, 1.0, "inj");
    assert!(
        ds.iter().any(|d| d.code == Code::PredictedMcImbalance),
        "HL1002 must fire when all slots hit MC0: {ds:?}"
    );
}

/// Warnings stay quiet below the traffic-significance floor: the same
/// piled-up plan draws nothing when the array carries 3% of the traffic.
#[test]
fn insignificant_arrays_draw_no_plan_warnings() {
    let (_, mapping, nodes) = machine();
    let (_, al) = plan_with_slots(&mapping, nodes.len(), |t, n_mcs| vec![t as u32 * n_mcs]);
    let ds = check_array_plan("toy", "W", &al, &nodes, &mapping, 0.03, "inj");
    assert!(
        ds.is_empty(),
        "3% of traffic is not worth a warning: {ds:?}"
    );
}

/// HL1003: a 2048×2048 f64 array is 32 MiB against a 32 KiB L2 — the
/// working set streams, and the app-level pass must say so.
#[test]
fn hl1003_fires_on_a_streaming_working_set() {
    let mut p = Program::new("bigstream");
    let a = p.add_array(ArrayDecl::new("G", vec![2048, 2048], 8));
    p.add_nest(LoopNest::new(
        vec![Loop::constant(0, 2048), Loop::constant(0, 2048)],
        0,
        vec![Statement::new(
            vec![ArrayRef::read(a, AffineAccess::identity(2))],
            1,
        )],
        1,
    ));
    let app = App::new(
        p,
        AppProfile {
            offchip_per_kcycle: 20.0,
            sharing_fraction: 0.0,
        },
        TraceGen::default(),
        false,
        1,
    );
    let (sim, mapping, _) = machine();
    let layout = layout_for(&app, &mapping, &sim, hoploc_workloads::RunKind::Optimized);
    let cfg = EstConfig::from_sim(&sim);
    let ds = performance_diagnostics(&app, &layout, &mapping, &cfg, "inj");
    assert!(
        ds.iter()
            .any(|d| d.code == Code::PredictedCapacityStreaming),
        "HL1003 must fire on a 32 MiB working set: {ds:?}"
    );
}

/// HL1004: minimd's neighbor lists go through index tables, so its
/// prediction must carry the coarse-model caveat.
#[test]
fn hl1004_fires_on_index_table_predictions() {
    let apps = all_apps(Scale::Test);
    let app = apps
        .iter()
        .find(|a| a.name() == "minimd")
        .expect("minimd is bundled");
    let (sim, mapping, _) = machine();
    let layout = layout_for(app, &mapping, &sim, hoploc_workloads::RunKind::Optimized);
    let cfg = EstConfig::from_sim(&sim);
    let ds = performance_diagnostics(app, &layout, &mapping, &cfg, "inj");
    let caveat = ds
        .iter()
        .find(|d| d.code == Code::EstimateApproximate)
        .expect("HL1004 must fire for an index-table app");
    assert!(
        caveat.message.contains("index-table"),
        "caveat must name the model: {}",
        caveat.message
    );
}

/// Wraps a program in an [`App`] with a neutral profile for the
/// prefetch-advisory tests.
fn toy_app(p: Program) -> App {
    App::new(
        p,
        AppProfile {
            offchip_per_kcycle: 2.0,
            sharing_fraction: 0.0,
        },
        TraceGen::default(),
        false,
        1,
    )
}

/// HL1101: an app whose only traffic goes through an index table gives
/// the stride/stream engines nothing to learn — the advisory must say so,
/// as a note (useless, not harmful).
#[test]
fn hl1101_fires_when_indexed_accesses_dominate() {
    let n = 4096i64;
    let mut p = Program::new("tabled");
    let x = p.add_array(ArrayDecl::new("X", vec![n], 8));
    let t = p.add_table((0..n).collect());
    p.add_nest(LoopNest::new(
        vec![Loop::constant(0, n)],
        0,
        vec![Statement::new(
            vec![ArrayRef::indexed_read(x, t, AffineExpr::var(1, 0))],
            1,
        )],
        1,
    ));
    let app = toy_app(p);
    let (sim, mapping, _) = machine();
    let layout = layout_for(&app, &mapping, &sim, hoploc_workloads::RunKind::Optimized);
    let cfg = EstConfig::from_sim(&sim);
    let ds = prefetch_diagnostics(&app, &layout, &mapping, &cfg, "inj", "stride");
    let d = ds
        .iter()
        .find(|d| d.code == Code::PrefetchUselessOnIndexed)
        .expect("HL1101 must fire on all-indexed traffic");
    assert_eq!(d.severity(), Severity::Note);
    assert!(d.message.contains("stride"), "{}", d.message);
    assert!(d.message.contains("X"), "{}", d.message);
}

/// HL1102: a working set that fits the L2 with a long-running reuse loop
/// is predicted resident — prefetching can only pollute, which is worth a
/// warning. The same shape at streaming size must stay quiet.
#[test]
fn hl1102_fires_when_the_app_is_predicted_l2_resident() {
    // `rereads` same-element reads per iteration: the cold-miss lines
    // amortize over that much reuse, driving the off-chip fraction down.
    let resident = |dim: i64, rereads: usize| {
        let mut p = Program::new("tiny");
        let a = p.add_array(ArrayDecl::new("A", vec![dim, dim], 8));
        p.add_nest(LoopNest::new(
            vec![Loop::constant(0, dim), Loop::constant(0, dim)],
            0,
            vec![Statement::new(
                vec![ArrayRef::read(a, AffineAccess::identity(2)); rereads],
                1,
            )],
            1,
        ));
        toy_app(p)
    };
    let (sim, mapping, _) = machine();
    let cfg = EstConfig::from_sim(&sim);
    let app = resident(16, 16);
    let layout = layout_for(&app, &mapping, &sim, hoploc_workloads::RunKind::Optimized);
    let ds = prefetch_diagnostics(&app, &layout, &mapping, &cfg, "inj", "stream");
    let d = ds
        .iter()
        .find(|d| d.code == Code::PrefetchPredictedHarmful)
        .expect("HL1102 must fire on a resident working set");
    assert_eq!(d.severity(), Severity::Warning);
    assert!(d.message.contains("stream"), "{}", d.message);

    // A 2048×2048 sweep streams: no resident-pollution warning.
    let big = resident(2048, 16);
    let layout = layout_for(&big, &mapping, &sim, hoploc_workloads::RunKind::Optimized);
    let ds = prefetch_diagnostics(&big, &layout, &mapping, &cfg, "inj", "stream");
    assert!(
        ds.iter().all(|d| d.code != Code::PrefetchPredictedHarmful),
        "a streaming working set is exactly what prefetching is for: {ds:?}"
    );
}

/// The bundled 13 applications, checked across the full standard config
/// grid, must draw no predicted-performance *warnings* — this is what
/// keeps `hoploc check all --deny warnings` (and CI) green with the
/// HL10xx pass wired in. Notes (streaming, approximation) are expected.
#[test]
fn bundled_suite_draws_no_predicted_performance_warnings() {
    for (label, sim) in standard_configs() {
        let mapping = L2ToMcMapping::nearest_cluster(sim.mesh, &sim.placement);
        let cfg = EstConfig::from_sim(&sim);
        for app in all_apps(Scale::Test) {
            let layout = layout_for(&app, &mapping, &sim, hoploc_workloads::RunKind::Optimized);
            for d in performance_diagnostics(&app, &layout, &mapping, &cfg, &label) {
                assert!(
                    d.severity() != Severity::Warning && d.severity() != Severity::Error,
                    "{} under {label}: unexpected {} {:?}: {}",
                    app.name(),
                    d.severity().name(),
                    d.code,
                    d.message
                );
            }
        }
    }
}
