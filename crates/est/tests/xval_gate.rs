//! The cross-validation gate at test scale: the estimator must rank the
//! full app × kind × config matrix the way the cycle simulator does
//! (Spearman ρ ≥ 0.8 on off-chip fraction) while being much faster.
//! CI additionally runs the same gate at bench scale through
//! `hoploc est all --json` with the ≥100× speedup requirement.

use hoploc_est::{cross_validate, spearman};
use hoploc_harness::default_jobs;
use hoploc_workloads::{all_apps, RunKind, Scale};

#[test]
fn estimator_ranks_the_test_matrix_like_the_simulator() {
    let apps = all_apps(Scale::Test);
    let report = cross_validate(&apps, default_jobs());
    assert_eq!(
        report.cells.len(),
        apps.len() * RunKind::ALL.len() * 4,
        "every app × kind × config cell must be present"
    );
    assert!(
        report.spearman_offchip >= 0.8,
        "off-chip rank correlation too weak: rho = {:.4}",
        report.spearman_offchip
    );
    // Hops and queue pressure are informational, but they must at least
    // rank in the right direction.
    assert!(
        report.spearman_hops > 0.0 && report.spearman_queue > 0.0,
        "hop/queue ranks inverted: {:.4} / {:.4}",
        report.spearman_hops,
        report.spearman_queue
    );
    // Even unoptimized and at toy scale the static pass must win clearly;
    // the release-build bench-scale CI gate demands ≥100×.
    assert!(
        report.speedup() > 5.0,
        "estimator not meaningfully faster: {:.1}x",
        report.speedup()
    );
    // The gated number is a rank statistic: monotonically rescaling the
    // estimates must reproduce it bit-for-bit from the raw cells.
    let est: Vec<f64> = report
        .cells
        .iter()
        .map(|c| c.est_offchip_fraction)
        .collect();
    let sim: Vec<f64> = report
        .cells
        .iter()
        .map(|c| c.sim_offchip_fraction)
        .collect();
    let scaled: Vec<f64> = est.iter().map(|x| 100.0 * x + 3.0).collect();
    assert_eq!(
        spearman(&scaled, &sim),
        report.spearman_offchip,
        "report rho must equal the rank statistic over its own cells"
    );
}
