//! The runner: the one place a simulation is built. A layout plan is
//! *prepared* — its program laid out in an address space, the compiler's
//! desired-page map read off it, its trace generated — and the prepared
//! trace is *simulated* on the cell's machine. What a run kind means to
//! the machine (the page policy, the §2 optimal flag, the outstanding-miss
//! window, whether a desired-page map exists) is decided here and nowhere
//! else. [`Suite`](crate::Suite) puts its memos in front of the two halves;
//! [`run_plan`] is the one-shot for a caller that compiled its own plan.

use std::collections::HashMap;

use hoploc_layout::ProgramLayout;
use hoploc_noc::{L2ToMcMapping, McId, Placement};
use hoploc_sim::{AddressSpace, Cancel, PagePolicy, RunStats, SimConfig, Simulator, TraceWorkload};
use hoploc_workloads::{generate_traces, App, RunKind, TraceGen};

use crate::{RunOutput, RunRequest, RunSpec};

/// The kind whose compiled layout (and so whose trace) a run of `kind`
/// replays — the memo key discriminant. Baseline, FirstTouch, and Optimal
/// all run the original layouts.
pub(crate) fn layout_class(kind: RunKind) -> RunKind {
    match kind {
        RunKind::Optimized => RunKind::Optimized,
        RunKind::Baseline | RunKind::FirstTouch | RunKind::Optimal => RunKind::Baseline,
    }
}

/// A plan made ready to simulate: its trace, plus the page → MC map the
/// compiler asks the OS for. Only the optimized side has one, and it is
/// empty under cache-line interleaving, where the layout needs no help
/// from the OS.
pub(crate) struct Prepared {
    pub(crate) workload: TraceWorkload,
    pub(crate) desired: HashMap<u64, McId>,
}

/// Prepares `app` under `plan` (compiled for `kind`'s layout class): its
/// arrays placed from virtual address `origin`, `threads_per_core` threads
/// on every core the plan binds.
pub(crate) fn prepare(
    app: &App,
    plan: &ProgramLayout,
    kind: RunKind,
    origin: u64,
    page_bytes: u64,
    threads_per_core: usize,
) -> Prepared {
    let space = AddressSpace::build(&app.program, plan, origin);
    let desired = match layout_class(kind) {
        RunKind::Optimized => space.desired_page_mcs(&app.program, plan, page_bytes),
        _ => HashMap::new(),
    };
    let gen = TraceGen {
        threads_per_core,
        ..app.gen
    };
    let workload = generate_traces(&app.program, plan, &space, &gen);
    Prepared { workload, desired }
}

/// Simulates `prepared` as a run of `req`'s kind on the machine `sim` and
/// `mapping` describe, with an outstanding-miss window of `mlp`, under
/// `req`'s fault plan (replacing `sim`'s), recording and cancel token.
/// `req.spec.app` is not read: the caller prepared the cell.
pub(crate) fn simulate(
    sim: &SimConfig,
    mapping: &L2ToMcMapping,
    mlp: u32,
    prepared: &Prepared,
    req: &RunRequest,
) -> RunOutput {
    let kind = req.spec.kind;
    let policy = match kind {
        RunKind::Optimized if !prepared.desired.is_empty() => {
            PagePolicy::Desired(prepared.desired.clone())
        }
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
        None => (sim.run(&prepared.workload), None),
        Some(obs) => {
            let (stats, report) = sim.with_obs(obs).run_traced(&prepared.workload);
            (stats, Some(report))
        }
    };
    RunOutput { stats, report }
}

/// Runs `app` once as a `kind` run under a `plan` its caller compiled:
/// one thread per core, on the machine `sim` describes with `placement`'s
/// controllers and L2-to-MC mapping. This is what a design-space search
/// verifies each machine with — the plan its scorer compiled, simulated
/// as a suite of one cell would, with no memo in front.
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
    let prepared = prepare(app, plan, kind, 0, sim.page_bytes, 1);
    let req = RunRequest {
        cancel: Some(cancel),
        ..RunRequest::new(RunSpec { app: 0, kind })
    };
    simulate(&sim, placement.mapping(), app.mlp, &prepared, &req).stats
}
