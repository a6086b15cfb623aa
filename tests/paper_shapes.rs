//! Shape tests: qualitative claims of the paper, checked at test scale so
//! CI stays fast. Each runs one `hoploc_bench::FIGURES` entry, whose cells,
//! rows and shape predicate are written there once for both scales.

use hoploc::layout::select_mapping;
use hoploc::noc::{L2ToMcMapping, McPlacement};
use hoploc::sim::SimConfig;
use hoploc::workloads::{all_apps, Scale};

/// Measures figure `id` at test scale and asserts its shape holds.
fn holds(id: &str) {
    let fig = hoploc_bench::figure(id).expect("a registered figure");
    let m = (fig.measure)(Scale::Test);
    if let Err(why) = m.shape {
        panic!("{id} at test scale: {why}\n{}", m.table.render());
    }
}

#[test]
fn optimal_scheme_improves_execution_suite_wide() {
    holds("fig4");
}

#[test]
fn compiler_selection_separates_m1_and_m2_apps() {
    holds("fig17");
}

/// DESIGN §9: the §4 analysis, run for the machine both figure scales
/// simulate, singles out exactly fma3d and minighost among the 13 apps.
#[test]
fn the_mapping_analysis_picks_m2_for_fma3d_and_minighost_alone() {
    let sim = SimConfig::scaled();
    let candidates = [
        L2ToMcMapping::nearest_cluster(sim.mesh, &sim.placement),
        L2ToMcMapping::halves(sim.mesh, &McPlacement::Corners),
    ];
    for scale in [Scale::Test, Scale::Bench] {
        let m2: Vec<String> = (all_apps(scale).iter())
            .filter(|app| select_mapping(&candidates, &app.profile, &sim.noc, sim.mc.banks) == 1)
            .map(|app| app.name().to_string())
            .collect();
        assert_eq!(m2, ["fma3d", "minighost"], "{scale:?}");
    }
}

#[test]
fn high_pressure_apps_have_highest_bank_occupancy() {
    holds("fig18");
}

#[test]
fn shared_l2_mode_also_benefits() {
    holds("fig22");
}

#[test]
fn more_threads_per_core_amplify_contention() {
    holds("fig24");
}

#[test]
fn multiprogram_mixes_speed_up() {
    holds("fig25");
}

#[test]
fn larger_meshes_benefit_more() {
    holds("fig21");
}
