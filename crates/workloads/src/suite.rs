//! End-to-end experiment runner: compile (or not), generate traces,
//! simulate, and report — the shared machinery behind every figure.

use crate::apps::App;
use crate::gen::{generate_traces, TraceGen};
use hoploc_layout::{baseline_layout, PassConfig, ProgramAnalysis, ProgramLayout, SharedPolicy};
use hoploc_noc::{L2ToMcMapping, McId};
use hoploc_sim::{AddressSpace, PagePolicy, RunStats, SimConfig, Simulator, TraceWorkload};
use std::collections::HashMap;

/// Which side of a comparison a run represents.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RunKind {
    /// Original layouts, default OS placement.
    Baseline,
    /// Compiler-optimized layouts (plus the OS assist under page
    /// interleaving).
    Optimized,
    /// Original layouts under the OS first-touch page policy (§6.3).
    FirstTouch,
    /// The §2 optimal scheme: baseline layouts, nearest-MC redirection,
    /// ideal memory service.
    Optimal,
}

impl RunKind {
    /// Every kind, in the order the figures list them.
    pub const ALL: [RunKind; 4] = [
        RunKind::Baseline,
        RunKind::Optimized,
        RunKind::FirstTouch,
        RunKind::Optimal,
    ];

    /// Canonical lowercase name (CLI value, wire value, report column).
    pub fn name(self) -> &'static str {
        match self {
            RunKind::Baseline => "baseline",
            RunKind::Optimized => "optimized",
            RunKind::FirstTouch => "first-touch",
            RunKind::Optimal => "optimal",
        }
    }

    /// Parses a [`name`](Self::name) back to a kind.
    pub fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                format!("unknown run kind {s:?} (use baseline, optimized, first-touch, or optimal)")
            })
    }
}

/// Builds the program layout an experiment side uses.
pub fn layout_for(
    app: &App,
    mapping: &L2ToMcMapping,
    sim: &SimConfig,
    kind: RunKind,
) -> ProgramLayout {
    layout_with(
        app,
        mapping,
        sim,
        kind,
        PassConfig::default().approx_threshold,
    )
}

/// [`layout_for`] with an explicit approximation threshold (the layout
/// pass's `approx_threshold` knob). Design-space search varies this
/// per candidate; verification must replay the candidate's exact plan,
/// so the threshold travels with the layout request rather than being
/// pinned to the pass default.
pub fn layout_with(
    app: &App,
    mapping: &L2ToMcMapping,
    sim: &SimConfig,
    kind: RunKind,
    approx_threshold: f64,
) -> ProgramLayout {
    LayoutPlanner::new(app, kind).layout(mapping, sim, approx_threshold)
}

/// Builds the layouts of one experiment side for any number of mappings
/// and machines: what the layout pass learns from the program alone is
/// computed once, at construction. [`layout_with`] is the one-shot use.
pub struct LayoutPlanner<'a> {
    app: &'a App,
    /// `Some` for the side that runs the layout pass.
    analysis: Option<ProgramAnalysis>,
}

impl<'a> LayoutPlanner<'a> {
    /// Analyzes `app` for the `kind` side of an experiment.
    pub fn new(app: &'a App, kind: RunKind) -> Self {
        let analysis = match kind {
            RunKind::Optimized => Some(ProgramAnalysis::of(&app.program)),
            RunKind::Baseline | RunKind::FirstTouch | RunKind::Optimal => None,
        };
        Self { app, analysis }
    }

    /// The layout under `mapping` on the machine `sim` describes.
    pub fn layout(
        &self,
        mapping: &L2ToMcMapping,
        sim: &SimConfig,
        approx_threshold: f64,
    ) -> ProgramLayout {
        let mut out = ProgramLayout::default();
        self.layout_into(mapping, sim, approx_threshold, &mut out);
        out
    }

    /// [`layout`](Self::layout) written into `out`, reusing its buffers
    /// (`ProgramAnalysis::customize_into`).
    pub fn layout_into(
        &self,
        mapping: &L2ToMcMapping,
        sim: &SimConfig,
        approx_threshold: f64,
        out: &mut ProgramLayout,
    ) {
        match &self.analysis {
            Some(analysis) => {
                let cfg = PassConfig {
                    granularity: sim.granularity,
                    l2_mode: sim.l2_mode,
                    shared_policy: SharedPolicy::OnChipFirst,
                    line_bytes: sim.l2.line_bytes as u32,
                    page_bytes: sim.page_bytes as u32,
                    approx_threshold,
                };
                analysis.customize_into(&self.app.program, mapping, cfg, out);
            }
            None => *out = baseline_layout(&self.app.program, mapping.mesh().num_nodes()),
        }
    }
}

/// The OS page policy an experiment side uses: the compiler's `desired`
/// page → MC map for the optimized side (an empty map means the layout
/// asks nothing of the OS, as under cache-line interleaving), first touch
/// for its own side, the default interleaving otherwise.
pub fn page_policy(kind: RunKind, desired: HashMap<u64, McId>) -> PagePolicy {
    match kind {
        RunKind::Optimized if !desired.is_empty() => PagePolicy::Desired(desired),
        RunKind::FirstTouch => PagePolicy::FirstTouch,
        RunKind::Optimized | RunKind::Baseline | RunKind::Optimal => PagePolicy::Interleaved,
    }
}

/// The simulator configuration of one cell: `sim` with the §2 optimal
/// scheme on for that kind alone and the application's outstanding-miss
/// window. Every path that simulates a cell builds its config here.
pub fn cell_config(sim: &SimConfig, kind: RunKind, mlp: u32) -> SimConfig {
    SimConfig {
        optimal: kind == RunKind::Optimal,
        mlp,
        ..sim.clone()
    }
}

/// The page → MC map the compiler asks the OS for: only the optimized side
/// has one (empty under cache-line interleaving, where the layout needs no
/// help from the OS).
pub fn desired_pages(
    app: &App,
    kind: RunKind,
    space: &AddressSpace,
    layout: &ProgramLayout,
    page_bytes: u64,
) -> HashMap<u64, McId> {
    match kind {
        RunKind::Optimized => space.desired_page_mcs(&app.program, layout, page_bytes),
        RunKind::Baseline | RunKind::FirstTouch | RunKind::Optimal => HashMap::new(),
    }
}

/// Generates the trace workload for one side of an experiment.
pub fn build_workload(
    app: &App,
    mapping: &L2ToMcMapping,
    sim: &SimConfig,
    kind: RunKind,
    threads_per_core: usize,
) -> (TraceWorkload, PagePolicy) {
    let layout = layout_for(app, mapping, sim, kind);
    let space = AddressSpace::build(&app.program, &layout, 0);
    let policy = page_policy(
        kind,
        desired_pages(app, kind, &space, &layout, sim.page_bytes),
    );
    let gen = TraceGen {
        threads_per_core,
        ..app.gen
    };
    (generate_traces(&app.program, &layout, &space, &gen), policy)
}

/// Runs one application end to end.
pub fn run_app(app: &App, mapping: &L2ToMcMapping, sim: &SimConfig, kind: RunKind) -> RunStats {
    run_app_threads(app, mapping, sim, kind, 1)
}

/// Runs one application with a given thread-per-core count (Figure 24).
pub fn run_app_threads(
    app: &App,
    mapping: &L2ToMcMapping,
    sim: &SimConfig,
    kind: RunKind,
    threads_per_core: usize,
) -> RunStats {
    let cfg = cell_config(sim, kind, app.mlp);
    let (workload, policy) = build_workload(app, mapping, &cfg, kind, threads_per_core);
    Simulator::new(cfg, mapping.clone(), policy).run(&workload)
}

/// Runs a multiprogrammed mix: every application runs with one thread per
/// core on all cores (co-scheduled), with disjoint virtual address spaces.
/// Returns the combined run statistics (per-app finishes inside).
pub fn run_mix(apps: &[App], mapping: &L2ToMcMapping, sim: &SimConfig, kind: RunKind) -> RunStats {
    let cfg = cell_config(sim, kind, apps.iter().map(|a| a.mlp).max().unwrap_or(1));
    let mut merged_desired = HashMap::new();
    let mut workloads = Vec::new();
    for (i, app) in apps.iter().enumerate() {
        let layout = layout_for(app, mapping, &cfg, kind);
        // 4 GiB of virtual space per application keeps them disjoint.
        let origin = (i as u64) << 32;
        let space = AddressSpace::build(&app.program, &layout, origin);
        merged_desired.extend(desired_pages(app, kind, &space, &layout, cfg.page_bytes));
        workloads.push(generate_traces(&app.program, &layout, &space, &app.gen));
    }
    let policy = page_policy(kind, merged_desired);
    let name = apps.iter().map(|a| a.name()).collect::<Vec<_>>().join("+");
    let mix = TraceWorkload::multiprogram(name, workloads);
    Simulator::new(cfg, mapping.clone(), policy).run(&mix)
}

/// Weighted speedup of an optimized mix over its baseline (Figure 25's
/// metric): `Σᵢ T_baseline(i) / T_optimized(i)` normalized by app count, so
/// 1.0 means no change.
pub fn weighted_speedup(baseline: &RunStats, optimized: &RunStats) -> f64 {
    assert_eq!(baseline.app_finish.len(), optimized.app_finish.len());
    let n = baseline.app_finish.len().max(1);
    baseline
        .app_finish
        .iter()
        .zip(&optimized.app_finish)
        .map(|(&b, &o)| if o == 0 { 1.0 } else { b as f64 / o as f64 })
        .sum::<f64>()
        / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{swim, wupwise, Scale};
    use hoploc_noc::{McPlacement, Mesh};

    fn setup() -> (SimConfig, L2ToMcMapping) {
        let sim = SimConfig::default();
        let mapping = L2ToMcMapping::nearest_cluster(sim.mesh, &sim.placement);
        (sim, mapping)
    }

    #[test]
    fn baseline_and_optimized_run() {
        let (sim, mapping) = setup();
        let app = swim(Scale::Test);
        let base = run_app(&app, &mapping, &sim, RunKind::Baseline);
        let opt = run_app(&app, &mapping, &sim, RunKind::Optimized);
        assert!(base.total_accesses > 0);
        assert_eq!(base.total_accesses, opt.total_accesses, "same dynamic work");
    }

    #[test]
    fn optimized_localizes_offchip_traffic_swim() {
        let (sim, mapping) = setup();
        let app = swim(Scale::Test);
        let base = run_app(&app, &mapping, &sim, RunKind::Baseline);
        let opt = run_app(&app, &mapping, &sim, RunKind::Optimized);
        // The optimization's core claim: fewer hops per off-chip message.
        assert!(
            opt.net.off_chip.avg_hops() < base.net.off_chip.avg_hops(),
            "optimized {} !< baseline {}",
            opt.net.off_chip.avg_hops(),
            base.net.off_chip.avg_hops()
        );
    }

    #[test]
    fn optimal_beats_baseline() {
        let (sim, mapping) = setup();
        let app = wupwise(Scale::Test);
        let base = run_app(&app, &mapping, &sim, RunKind::Baseline);
        let optimal = run_app(&app, &mapping, &sim, RunKind::Optimal);
        assert!(optimal.exec_cycles < base.exec_cycles);
    }

    #[test]
    fn mix_runs_and_reports_speedup() {
        let (sim, _) = setup();
        let mesh = Mesh::new(8, 8);
        let mapping = L2ToMcMapping::nearest_cluster(mesh, &McPlacement::Corners);
        let apps = vec![wupwise(Scale::Test), swim(Scale::Test)];
        let base = run_mix(&apps, &mapping, &sim, RunKind::Baseline);
        let opt = run_mix(&apps, &mapping, &sim, RunKind::Optimized);
        assert_eq!(base.app_finish.len(), 2);
        let ws = weighted_speedup(&base, &opt);
        assert!(
            ws > 0.5 && ws < 3.0,
            "weighted speedup {ws} out of sane range"
        );
    }
}
