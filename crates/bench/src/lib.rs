//! # hoploc-bench
//!
//! Shared support for the figure/table reproduction harnesses in
//! `benches/`. Every harness prints the same rows or series as the
//! corresponding figure of *Optimizing Off-Chip Accesses in Multicores*
//! (PLDI 2015); `EXPERIMENTS.md` records paper-vs-measured values.
//!
//! All suite sweeps go through [`hoploc_harness::Suite`]: the whole
//! (app × run-kind) matrix of a figure is fanned out across worker
//! threads, layout compilation and trace generation are memoized, and the
//! results are bit-identical to the sequential `run_app` loops the
//! harnesses used to run.
//!
//! Run all of them with `cargo bench`, or one with
//! `cargo bench --bench fig16_cacheline`.

#![forbid(unsafe_code)]

use hoploc_harness::{default_jobs, RunRecord, RunRequest, Suite};
use hoploc_layout::Granularity;
use hoploc_noc::{L2ToMcMapping, McPlacement, Mesh};
use hoploc_obs::{ObsConfig, ObsReport};
use hoploc_sim::{Improvement, RunStats, SimConfig};
use hoploc_workloads::{all_apps, App, RunKind, Scale};

/// The standard capacity-scaled simulator configuration all harnesses use,
/// at the given interleaving granularity.
pub fn standard_config(granularity: Granularity) -> SimConfig {
    SimConfig {
        granularity,
        ..SimConfig::scaled()
    }
}

/// The paper's default L2-to-MC mapping (M1, Figure 8a) on a mesh.
pub fn m1(mesh: Mesh) -> L2ToMcMapping {
    L2ToMcMapping::nearest_cluster(mesh, &McPlacement::Corners)
}

/// The alternate mapping M2 (Figure 8b).
pub fn m2(mesh: Mesh) -> L2ToMcMapping {
    L2ToMcMapping::halves(mesh, &McPlacement::Corners)
}

/// The benchmark-scale application suite.
pub fn suite() -> Vec<App> {
    all_apps(Scale::Bench)
}

/// A [`Suite`] over the benchmark-scale apps under the given config and
/// mapping — the standard harness every figure sweep starts from.
pub fn bench_suite(sim: SimConfig, mapping: L2ToMcMapping) -> Suite {
    Suite::new(suite(), mapping, sim)
}

/// Runs `reqs` — a [`Suite::full_matrix`], recorded or not — in parallel
/// and returns, per app, the records in kind order: `result[a][k]` is app
/// `a` under the matrix's `k`-th kind.
fn sweep(s: &Suite, reqs: &[RunRequest]) -> Vec<Vec<RunRecord>> {
    let records = s.run_all(reqs, default_jobs());
    let napps = s.apps().len();
    let mut per_app: Vec<Vec<RunRecord>> = (0..napps).map(|_| Vec::new()).collect();
    // full_matrix orders kinds outermost, apps innermost.
    for (i, r) in records.into_iter().enumerate() {
        per_app[i % napps].push(r);
    }
    per_app
}

/// Runs the full (suite × kinds) matrix in parallel: `result[a][k]` is app
/// `a` under `kinds[k]`.
pub fn sweep_kinds(s: &Suite, kinds: &[RunKind]) -> Vec<Vec<RunRecord>> {
    sweep(s, &s.full_matrix(kinds))
}

/// The commonest figure shape: baseline-vs-other per app, as
/// `(name, baseline, other)` rows in suite order.
pub fn sweep_pair(s: &Suite, base: RunKind, other: RunKind) -> Vec<(String, RunStats, RunStats)> {
    sweep_kinds(s, &[base, other])
        .into_iter()
        .map(|mut recs| {
            let o = recs.pop().expect("two kinds");
            let b = recs.pop().expect("two kinds");
            (b.app, b.stats, o.stats)
        })
        .collect()
}

/// The counter-only observability configuration figure sweeps use: the
/// metric registry is live (the figures read it) but no span events are
/// buffered, so the sweep stays cheap.
pub fn obs_counters_only() -> ObsConfig {
    ObsConfig {
        record_spans: false,
        ..ObsConfig::default()
    }
}

/// The full (suite × kinds) matrix with [`obs_counters_only`] recording on
/// every cell: each record carries the [`ObsReport`] whose counters mirror
/// its stats exactly.
pub fn recorded_matrix(s: &Suite, kinds: &[RunKind]) -> Vec<RunRequest<'static>> {
    s.full_matrix(kinds)
        .into_iter()
        .map(|r| r.with_obs(obs_counters_only()))
        .collect()
}

/// [`sweep_pair`] over observability reports: baseline-vs-other per app,
/// as `(name, baseline report, other report)` rows in suite order.
pub fn sweep_pair_traced(
    s: &Suite,
    base: RunKind,
    other: RunKind,
) -> Vec<(String, ObsReport, ObsReport)> {
    sweep(s, &recorded_matrix(s, &[base, other]))
        .into_iter()
        .map(|mut recs| {
            let o = recs.pop().expect("two kinds");
            let b = recs.pop().expect("two kinds");
            let report = |r: Option<ObsReport>| r.expect("every cell was recorded");
            (b.app, report(b.report), report(o.report))
        })
        .collect()
}

/// Prints a figure banner.
pub fn banner(fig: &str, caption: &str) {
    println!();
    println!("================================================================");
    println!("{fig}: {caption}");
    println!("================================================================");
}

/// Prints the four-metric header used by Figures 4, 14, 16, and 22.
pub fn four_metric_header() {
    println!(
        "{:<11} {:>12} {:>13} {:>11} {:>10}",
        "app", "on-chip net", "off-chip net", "memory", "exec time"
    );
}

/// Prints one four-metric reduction row.
pub fn four_metric_row(name: &str, imp: &Improvement) {
    println!(
        "{:<11} {:>11.1}% {:>12.1}% {:>10.1}% {:>9.1}%",
        name,
        imp.onchip_net * 100.0,
        imp.offchip_net * 100.0,
        imp.memory * 100.0,
        imp.exec_time * 100.0
    );
}

/// Prints the four-metric average row.
pub fn four_metric_avg(rows: &[Improvement]) {
    let n = rows.len().max(1) as f64;
    let avg = Improvement {
        onchip_net: rows.iter().map(|r| r.onchip_net).sum::<f64>() / n,
        offchip_net: rows.iter().map(|r| r.offchip_net).sum::<f64>() / n,
        memory: rows.iter().map(|r| r.memory).sum::<f64>() / n,
        exec_time: rows.iter().map(|r| r.exec_time).sum::<f64>() / n,
    };
    println!("{}", "-".repeat(60));
    four_metric_row("AVERAGE", &avg);
}

/// The standard four-metric figure body: sweep the suite under two kinds
/// in parallel, print one reduction row per app plus the average.
pub fn four_metric_figure(s: &Suite, base: RunKind, other: RunKind) {
    four_metric_header();
    let mut rows = Vec::new();
    for (name, b, o) in sweep_pair(s, base, other) {
        let imp = Improvement::between(&b, &o);
        four_metric_row(&name, &imp);
        rows.push(imp);
    }
    four_metric_avg(&rows);
}

/// The three-configuration exec-saving figure shape (Figures 19–21, 24):
/// one column per suite (all over the same app list), one row per app,
/// plus the average row. Each suite's matrix is swept in parallel.
pub fn exec_saving_figure(suites: &[Suite], labels: &[&str], base: RunKind, other: RunKind) {
    assert_eq!(suites.len(), labels.len());
    print!("{:<11}", "app");
    for l in labels {
        print!(" {:>8}", l);
    }
    println!();
    let cols: Vec<Vec<f64>> = suites
        .iter()
        .map(|s| {
            sweep_pair(s, base, other)
                .iter()
                .map(|(_, b, o)| exec_saving(b, o))
                .collect()
        })
        .collect();
    let napps = suites[0].apps().len();
    let mut avgs = vec![0.0f64; suites.len()];
    for i in 0..napps {
        print!("{:<11}", suites[0].apps()[i].name());
        for (c, col) in cols.iter().enumerate() {
            print!(" {:>7.1}%", col[i]);
            avgs[c] += col[i];
        }
        println!();
    }
    println!("{}", "-".repeat(11 + 9 * suites.len()));
    print!("{:<11}", "AVERAGE");
    for a in &avgs {
        print!(" {:>7.1}%", a / napps.max(1) as f64);
    }
    println!();
}

/// Execution-time reduction of `opt` over `base` as a percentage.
pub fn exec_saving(base: &RunStats, opt: &RunStats) -> f64 {
    RunStats::reduction(opt.exec_cycles as f64, base.exec_cycles as f64) * 100.0
}

/// Renders a crude horizontal bar for terminal "figures".
pub fn bar(value: f64, scale: f64) -> String {
    let n = ((value * scale).round().max(0.0) as usize).min(60);
    "#".repeat(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_config_is_scaled() {
        let c = standard_config(Granularity::CacheLine);
        assert_eq!(c.l2.size_bytes, 32 * 1024);
    }

    #[test]
    fn suite_has_thirteen_apps() {
        assert_eq!(suite().len(), 13);
    }

    #[test]
    fn bar_clamps() {
        assert_eq!(bar(2.0, 100.0), "#".repeat(60));
        assert_eq!(bar(-1.0, 10.0), "");
    }

    #[test]
    fn sweep_kinds_keeps_app_and_kind_order() {
        // Test-scale subset to keep this fast.
        let sim = SimConfig::scaled();
        let mapping = m1(sim.mesh);
        let apps = vec![
            hoploc_workloads::swim(Scale::Test),
            hoploc_workloads::mgrid(Scale::Test),
        ];
        let s = Suite::new(apps, mapping, sim);
        let rows = sweep_kinds(&s, &[RunKind::Baseline, RunKind::Optimized]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0].app, "swim");
        assert_eq!(rows[0][0].kind, RunKind::Baseline);
        assert_eq!(rows[0][1].kind, RunKind::Optimized);
        assert_eq!(rows[1][0].app, "mgrid");
    }
}
