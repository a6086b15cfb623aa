//! The two sides of an experiment: which run kinds there are, the layout
//! each side compiles, and Figure 25's weighted speedup. Running a side is
//! `hoploc-harness`'s.

use crate::apps::App;
use hoploc_layout::{baseline_layout, PassConfig, ProgramLayout};
use hoploc_noc::L2ToMcMapping;
use hoploc_sim::{RunStats, SimConfig};

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

    /// The kind whose compiled layout (and so whose trace) a run of this
    /// kind replays: Baseline, FirstTouch and Optimal all run the original
    /// layouts, so the three compile the same plan.
    pub fn layout_class(self) -> RunKind {
        match self {
            RunKind::Optimized => RunKind::Optimized,
            RunKind::Baseline | RunKind::FirstTouch | RunKind::Optimal => RunKind::Baseline,
        }
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
    let mut out = ProgramLayout::default();
    layout_into(app, mapping, sim, kind, approx_threshold, &mut out);
    out
}

/// [`layout_with`] written into `out`, reusing its buffers
/// (`ProgramAnalysis::customize_into`). The optimized side customizes the
/// application's own [`App::analysis`], so a plan costs microseconds once
/// the program has been analyzed; the other sides analyze nothing.
pub fn layout_into(
    app: &App,
    mapping: &L2ToMcMapping,
    sim: &SimConfig,
    kind: RunKind,
    approx_threshold: f64,
    out: &mut ProgramLayout,
) {
    match kind.layout_class() {
        RunKind::Optimized => {
            let cfg = PassConfig {
                granularity: sim.granularity,
                l2_mode: sim.l2_mode,
                line_bytes: sim.l2.line_bytes as u32,
                page_bytes: sim.page_bytes as u32,
                approx_threshold,
            };
            app.analysis()
                .customize_into(&app.program, mapping, cfg, out);
        }
        _ => *out = baseline_layout(&app.program, mapping.mesh().num_nodes()),
    }
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
