//! Cross-validation of the static estimator against the cycle simulator:
//! the full app × kind × config matrix, predicted and simulated side by
//! side, summarized by Spearman rank correlation and a self-timed
//! speedup.
//!
//! The estimator's contract is *rank fidelity at negligible cost*: it
//! must order cells the way the simulator does (ρ ≥ 0.8 gates CI) while
//! running orders of magnitude faster (≥ 100×, also asserted from the
//! report). Both passes share the same compiled layout plans — compiled
//! outside both timers — so the comparison measures the models, not
//! layout compilation. Trace generation stays inside the simulator's
//! timer: avoiding it is precisely the estimator's advantage.

use std::time::Instant;

use hoploc_harness::{parallel_map, run_plan};
use hoploc_layout::{Granularity, L2Mode, ProgramLayout};
use hoploc_noc::Placement;
use hoploc_obs::JsonWriter;
use hoploc_sim::{Cancel, SimConfig};
use hoploc_workloads::{layout_for, App, RunKind};

use crate::model::{AppEstimate, EstConfig, Footprint};
use crate::rank::spearman;

/// The standard validation configs: the capacity-scaled Table 1 machine
/// crossed over L2 organization × interleaving granularity — the same
/// grid `hoploc check` verifies layouts under.
pub fn standard_configs() -> Vec<(String, SimConfig)> {
    let mut out = Vec::new();
    for mode in [L2Mode::Private, L2Mode::Shared] {
        for gran in [Granularity::CacheLine, Granularity::Page] {
            let mut sim = SimConfig::scaled();
            sim.l2_mode = mode;
            sim.granularity = gran;
            out.push((format!("{}/{}", mode.name(), gran.name()), sim));
        }
    }
    out
}

/// One matrix cell: prediction next to ground truth.
#[derive(Clone, Debug)]
pub struct XvalCell {
    /// Application name.
    pub app: String,
    /// Run kind.
    pub kind: RunKind,
    /// Config label (`private/cacheline` …).
    pub config: String,
    /// Predicted off-chip fraction.
    pub est_offchip_fraction: f64,
    /// Simulated off-chip fraction.
    pub sim_offchip_fraction: f64,
    /// Predicted mean off-chip hops.
    pub est_hops: f64,
    /// Simulated mean off-chip hops.
    pub sim_hops: f64,
    /// Predicted queue pressure (max MC share × n_mcs).
    pub est_queue_pressure: f64,
    /// Simulated queue pressure.
    pub sim_queue_pressure: f64,
}

/// The full cross-validation result.
#[derive(Clone, Debug)]
pub struct XvalReport {
    /// Every (app, kind, config) cell.
    pub cells: Vec<XvalCell>,
    /// Spearman ρ between predicted and simulated off-chip fraction —
    /// the gated headline number.
    pub spearman_offchip: f64,
    /// Spearman ρ for mean off-chip hops (informational).
    pub spearman_hops: f64,
    /// Spearman ρ for queue pressure (informational).
    pub spearman_queue: f64,
    /// Wall-clock nanoseconds the estimator pass took.
    pub est_nanos: u64,
    /// Wall-clock nanoseconds the simulator pass took (including trace
    /// generation, which the estimator does not need).
    pub sim_nanos: u64,
}

impl XvalReport {
    /// Simulator time over estimator time — the self-timed speedup the
    /// acceptance gate checks (≥ 100×).
    pub fn speedup(&self) -> f64 {
        if self.est_nanos == 0 {
            return f64::INFINITY;
        }
        self.sim_nanos as f64 / self.est_nanos as f64
    }
}

/// Runs the full matrix both ways and correlates. `jobs` bounds worker
/// threads for both passes symmetrically, keeping the speedup fair.
pub fn cross_validate(apps: &[App], jobs: usize) -> XvalReport {
    let mut cells = Vec::new();
    let mut est_nanos = 0u64;
    let mut sim_nanos = 0u64;
    for (label, sim) in standard_configs() {
        let placement = Placement::nearest(sim.mesh, &sim.placement);
        let mapping = placement.mapping();
        // Both sides consume the same compiled plans, one per (app, kind)
        // cell, apps outermost; compiling them here keeps layout cost out
        // of both timers.
        let plans: Vec<(usize, RunKind, ProgramLayout)> = (0..apps.len())
            .flat_map(|a| RunKind::ALL.map(|kind| (a, kind)))
            .map(|(a, kind)| (a, kind, layout_for(&apps[a], mapping, &sim, kind)))
            .collect();
        let cfg = EstConfig::from_sim(&sim);

        // One footprint per app serves all four kinds: only the routing
        // reads the layout and the kind.
        let t = Instant::now();
        let per_app: Vec<&[(usize, RunKind, ProgramLayout)]> =
            plans.chunks(RunKind::ALL.len()).collect();
        let ests: Vec<AppEstimate> = parallel_map(&per_app, jobs, |app_cells| {
            let footprint = Footprint::of(&apps[app_cells[0].0], &cfg);
            (app_cells.iter())
                .map(|(_, kind, plan)| footprint.route(plan, mapping, *kind, &cfg))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        est_nanos += t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        let runs = parallel_map(&plans, jobs, |(a, kind, plan)| {
            run_plan(
                &apps[*a],
                plan,
                &placement,
                &sim,
                1,
                *kind,
                &Cancel::never(),
            )
        });
        sim_nanos += t.elapsed().as_nanos() as u64;

        let n_mcs = sim.num_mcs();
        for (((a, kind, _), est), st) in plans.iter().zip(&ests).zip(&runs) {
            let totals: Vec<u64> = (0..n_mcs)
                .map(|m| st.node_mc_requests.iter().map(|row| row[m]).sum())
                .collect();
            let all: u64 = totals.iter().sum();
            let sim_qp = if all > 0 {
                totals
                    .iter()
                    .map(|&t| t as f64 / all as f64)
                    .fold(0.0, f64::max)
                    * n_mcs as f64
            } else {
                0.0
            };
            cells.push(XvalCell {
                app: apps[*a].name().to_string(),
                kind: *kind,
                config: label.clone(),
                est_offchip_fraction: est.offchip_fraction(),
                sim_offchip_fraction: st.offchip_fraction(),
                est_hops: est.avg_offchip_hops,
                sim_hops: st.net.off_chip.avg_hops(),
                est_queue_pressure: est.queue_pressure,
                sim_queue_pressure: sim_qp,
            });
        }
    }
    let pick = |f: fn(&XvalCell) -> (f64, f64)| -> f64 {
        let (xs, ys): (Vec<f64>, Vec<f64>) = cells.iter().map(f).unzip();
        spearman(&xs, &ys)
    };
    XvalReport {
        spearman_offchip: pick(|c| (c.est_offchip_fraction, c.sim_offchip_fraction)),
        spearman_hops: pick(|c| (c.est_hops, c.sim_hops)),
        spearman_queue: pick(|c| (c.est_queue_pressure, c.sim_queue_pressure)),
        est_nanos,
        sim_nanos,
        cells,
    }
}

/// Renders the report as JSON (the CI artifact and `--json` output): one
/// member per line, one cell per line of the `cells` array.
pub fn xval_json(r: &XvalReport) -> String {
    let mut w = JsonWriter::spaced();
    let cells: Vec<String> = (r.cells.iter())
        .map(|c| {
            (w.obj().field("app", &c.app).field("kind", c.kind.name()))
                .field("config", &c.config)
                .field("est_offchip_fraction", c.est_offchip_fraction)
                .field("sim_offchip_fraction", c.sim_offchip_fraction)
                .field("est_hops", c.est_hops)
                .field("sim_hops", c.sim_hops)
                .field("est_queue_pressure", c.est_queue_pressure)
                .field("sim_queue_pressure", c.sim_queue_pressure)
                .end_obj();
            format!("\n    {}", w.take())
        })
        .collect();
    let members = [
        w.key("cells")
            .raw(&format!("[{}\n  ]", cells.join(",")))
            .take(),
        w.field("spearman_offchip", r.spearman_offchip).take(),
        w.field("spearman_hops", r.spearman_hops).take(),
        w.field("spearman_queue", r.spearman_queue).take(),
        w.field("est_nanos", r.est_nanos).take(),
        w.field("sim_nanos", r.sim_nanos).take(),
        w.field("speedup", r.speedup()).take(),
    ];
    format!("{{\n  {}\n}}\n", members.join(",\n  "))
}

/// Renders the report as an aligned text table plus the summary lines.
pub fn render_text(r: &XvalReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:<11} {:<18} {:>9} {:>9} {:>8} {:>8} {:>7} {:>7}\n",
        "app", "kind", "config", "est-off", "sim-off", "est-hop", "sim-hop", "est-qp", "sim-qp"
    ));
    for c in &r.cells {
        out.push_str(&format!(
            "{:<12} {:<11} {:<18} {:>9.4} {:>9.4} {:>8.2} {:>8.2} {:>7.2} {:>7.2}\n",
            c.app,
            c.kind.name(),
            c.config,
            c.est_offchip_fraction,
            c.sim_offchip_fraction,
            c.est_hops,
            c.sim_hops,
            c.est_queue_pressure,
            c.sim_queue_pressure,
        ));
    }
    out.push_str(&format!(
        "\nspearman(offchip) = {:.4}\nspearman(hops)    = {:.4}\n\
         spearman(queue)   = {:.4}\nestimator {:.1}us vs simulator {:.1}ms: {:.0}x faster\n",
        r.spearman_offchip,
        r.spearman_hops,
        r.spearman_queue,
        r.est_nanos as f64 / 1e3,
        r.sim_nanos as f64 / 1e6,
        r.speedup(),
    ));
    out
}
