//! Verification: the cycle simulations a search ends with.
//!
//! A search asks for one simulation per finalist and one per paper
//! placement — a list of [`VerifyRequest`]s. Each is compiled to a
//! [`Machine`] by the search's own scorer, requests whose machines are
//! equal form a group, one machine per group is simulated, and every
//! request reads its group's completion time. The report is what
//! simulating each request on its own would give; only the work is shared.

use crate::space::Candidate;
use hoploc_est::PlacementScorer;
use hoploc_harness::{RunRequest, RunSpec, Suite};
use hoploc_layout::{Granularity, PassConfig, ProgramLayout};
use hoploc_noc::{McPlacement, Mesh, Placement};
use hoploc_sim::SimConfig;
use hoploc_workloads::{App, RunKind};
use std::sync::Arc;

/// One cycle simulation a search asks for: the optimized run of its
/// application under a placement and a pair of layout-plan parameters.
#[derive(Debug)]
pub struct VerifyRequest {
    /// MC attach nodes and cluster map.
    pub placement: Placement,
    /// Physical interleaving granularity of the machine and of the plan.
    pub granularity: Granularity,
    /// Approximation threshold the plan is compiled under.
    pub approx: f64,
}

impl VerifyRequest {
    /// The request that verifies a candidate: its own geometry and its own
    /// plan parameters, so the simulation replays what the estimator scored.
    pub fn of(c: &Candidate, mesh: &Mesh) -> Self {
        Self {
            placement: c
                .placement(mesh)
                .expect("search candidates are legal by construction"),
            granularity: c.granularity,
            approx: c.approx,
        }
    }

    /// The request for one of the paper's named placements on the base
    /// machine `sim`: nearest-cluster M1 mapping, `sim`'s granularity, the
    /// layout pass's default threshold.
    pub fn paper(sim: &SimConfig, named: &McPlacement) -> Self {
        Self {
            placement: Placement::nearest(sim.mesh, named),
            granularity: sim.granularity,
            approx: PassConfig::default().approx_threshold,
        }
    }

    /// Compiles the request's layout plan with `scorer` — which has
    /// already analyzed the program, and whose machine must be the
    /// search's base configuration.
    pub fn compile(self, scorer: &mut PlacementScorer<'_>) -> Machine {
        let layout = scorer.plan(&self.placement, self.granularity, self.approx);
        Machine {
            placement: self.placement,
            granularity: self.granularity,
            layout: Arc::new(layout),
        }
    }
}

/// A compiled [`VerifyRequest`]: what one of a search's simulations is
/// constructed from beyond the program and the base [`SimConfig`] all of
/// them share.
///
/// Equality is the search's grouping key — equal machines are simulated
/// once. It compares exactly what `Simulator::new` and the trace are made
/// from: the L2-to-MC mapping (which carries the mesh and the MC attach
/// nodes, all the simulator reads of `SimConfig::placement`), the
/// granularity (the one other field a request overrides in the base
/// config), and the compiled plan as far as address-space construction,
/// the desired-page map and trace generation read it
/// ([`ProgramLayout::places_like`]). The approximation threshold is not
/// compared: it steers the compilation, and two thresholds that compile to
/// the same plan are the same machine.
#[derive(Debug)]
pub struct Machine {
    placement: Placement,
    granularity: Granularity,
    layout: Arc<ProgramLayout>,
}

impl PartialEq for Machine {
    fn eq(&self, other: &Self) -> bool {
        self.placement.mapping() == other.placement.mapping()
            && self.granularity == other.granularity
            && self.layout.places_like(&other.layout)
    }
}

impl Machine {
    /// Cycle-simulated completion time of `app[0]`'s optimized run on this
    /// machine, `base` supplying everything a request does not override.
    /// The suite replays the machine's plan object; nothing is recompiled.
    fn simulate(&self, app: &Arc<[App]>, base: &SimConfig) -> u64 {
        let sim = SimConfig {
            granularity: self.granularity,
            ..base.clone()
        };
        let kind = RunKind::Optimized;
        Suite::for_placement(app.clone(), &self.placement, sim)
            .with_approx_threshold(self.layout.config().approx_threshold)
            .with_layout_plan(0, kind, self.layout.clone())
            .run(&RunRequest::new(RunSpec { app: 0, kind }))
            .stats
            .exec_cycles
    }
}

/// Completion times of `machines` in order, and how many simulations that
/// took: each machine equal to an earlier one reads that one's result.
pub(crate) fn verify(app: &App, base: &SimConfig, machines: &[Machine]) -> (Vec<u64>, usize) {
    let one: Arc<[App]> = Arc::from([app.clone()]);
    let mut cycles: Vec<u64> = Vec::with_capacity(machines.len());
    let mut simulated = 0;
    for (i, m) in machines.iter().enumerate() {
        let c = match machines[..i].iter().position(|earlier| earlier == m) {
            Some(j) => cycles[j],
            None => {
                simulated += 1;
                m.simulate(&one, base)
            }
        };
        cycles.push(c);
    }
    (cycles, simulated)
}
