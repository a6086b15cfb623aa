//! The runner: the one place a simulation is built. A layout plan is
//! *prepared* — its program laid out in an address space, the compiler's
//! desired-page map read off it — and its trace is *simulated* on the
//! cell's machine, generated as the run pulls it. What a run kind means to
//! the machine (the page policy, the §2 optimal flag, the outstanding-miss
//! window, whether a desired-page map exists) is decided here and nowhere
//! else. [`Suite`](crate::Suite) compiles each cell's plan in front;
//! [`run_plan`] is the one-shot for a caller that compiled its own plan.

use std::collections::HashMap;

use hoploc_layout::ProgramLayout;
use hoploc_noc::{L2ToMcMapping, McId, Placement};
use hoploc_sim::{AddressSpace, Cancel, PagePolicy, RunStats, SimConfig, Simulator, TraceWorkload};
use hoploc_workloads::{generate_traces, App, RunKind, TraceGen};

use crate::{RunOutput, RunRequest, RunSpec};

/// A plan made ready to simulate: its program's address space, plus the
/// page → MC map the compiler asks the OS for. Only the optimized side has
/// one, and it is empty under cache-line interleaving, where the layout
/// needs no help from the OS.
pub(crate) struct Prepared {
    pub(crate) space: AddressSpace,
    pub(crate) desired: HashMap<u64, McId>,
}

/// Prepares `app` under `plan` (compiled for `kind`'s layout class): its
/// arrays placed from virtual address `origin`.
pub(crate) fn prepare(
    app: &App,
    plan: &ProgramLayout,
    kind: RunKind,
    origin: u64,
    page_bytes: u64,
) -> Prepared {
    let space = AddressSpace::build(&app.program, plan, origin);
    let desired = match kind.layout_class() {
        RunKind::Optimized => space.desired_page_mcs(&app.program, plan, page_bytes),
        _ => HashMap::new(),
    };
    Prepared { space, desired }
}

impl Prepared {
    /// The trace of `app` under `plan` in this address space,
    /// `threads_per_core` threads on every core the plan binds.
    pub(crate) fn traces<'a>(
        &'a self,
        app: &'a App,
        plan: &'a ProgramLayout,
        threads_per_core: usize,
    ) -> TraceWorkload<'a> {
        let gen = TraceGen {
            threads_per_core,
            ..app.gen
        };
        generate_traces(&app.program, plan, &self.space, &gen)
    }
}

/// Simulates `workload` as a run of `req`'s kind on the machine `sim` and
/// `mapping` describe, with an outstanding-miss window of `mlp` and the
/// desired-page map `desired`, under `req`'s fault plan (replacing
/// `sim`'s), recording and cancel token. `req.spec.app` is not read: the
/// caller prepared the cell.
pub(crate) fn simulate(
    sim: &SimConfig,
    mapping: &L2ToMcMapping,
    mlp: u32,
    workload: &TraceWorkload,
    desired: &HashMap<u64, McId>,
    req: &RunRequest,
) -> RunOutput {
    let kind = req.spec.kind;
    let policy = match kind {
        RunKind::Optimized if !desired.is_empty() => PagePolicy::Desired(desired.clone()),
        RunKind::FirstTouch => PagePolicy::FirstTouch,
        RunKind::Optimized | RunKind::Baseline | RunKind::Optimal => PagePolicy::Interleaved,
    };
    let mut cfg = SimConfig {
        optimal: kind == RunKind::Optimal,
        mlp,
        ..sim.clone()
    };
    if let Some(plan) = req.faults {
        cfg.faults = Some(plan.clone());
    }
    let sim = Simulator::new(cfg, mapping.clone(), policy)
        .with_cancel(req.cancel.cloned().unwrap_or_default());
    let (stats, report) = match req.obs {
        None => (sim.run(workload), None),
        Some(obs) => {
            let (stats, report) = sim.with_obs(obs).run_traced(workload);
            (stats, Some(report))
        }
    };
    RunOutput { stats, report }
}

/// Runs `app` once as a `kind` run under a `plan` its caller compiled:
/// `threads_per_core` threads on every core, on the machine `sim`
/// describes (its fault plan included) with `placement`'s controllers and
/// L2-to-MC mapping. This is what a design-space search verifies each
/// machine with — the plan its scorer compiled — and what the job server
/// runs a cycle job with, on the plan it compiled for the job: simulated
/// as a suite of one cell would.
///
/// # Panics
///
/// Panics if the plan binds another number of threads than the machine
/// has nodes.
pub fn run_plan(
    app: &App,
    plan: &ProgramLayout,
    placement: &Placement,
    sim: &SimConfig,
    threads_per_core: usize,
    kind: RunKind,
    cancel: &Cancel,
) -> RunStats {
    assert_eq!(
        plan.binding().len(),
        sim.num_nodes(),
        "layout plan was compiled for another mesh"
    );
    let sim = SimConfig {
        placement: placement.mc_placement().clone(),
        ..sim.clone()
    };
    let prepared = prepare(app, plan, kind, 0, sim.page_bytes);
    let workload = prepared.traces(app, plan, threads_per_core);
    let desired = &prepared.desired;
    let req = RunRequest {
        cancel: Some(cancel),
        ..RunRequest::new(RunSpec { app: 0, kind })
    };
    simulate(&sim, placement.mapping(), app.mlp, &workload, desired, &req).stats
}
