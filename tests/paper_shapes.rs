//! Shape tests: qualitative claims of the paper, checked at test scale so
//! CI stays fast. Each runs one `hoploc_bench::FIGURES` entry, whose cells,
//! rows and shape predicate are written there once for both scales.

use hoploc::workloads::Scale;

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
