//! The HL10xx *predicted-performance* diagnostics: static findings about
//! what a layout plan will do to off-chip behaviour, produced without
//! running the simulator.
//!
//! | Code   | Severity | Finding |
//! |--------|----------|---------|
//! | HL1001 | warning  | a localized plan is predicted not to reduce hop distance for a traffic-significant array |
//! | HL1002 | warning  | a plan concentrates a traffic-significant array's slots on few controllers |
//! | HL1003 | note     | the working set is predicted to stream through the L2 |
//! | HL1004 | note     | the prediction involves index-table references (coarse model) |
//!
//! The HL11xx *prefetch advisories* ([`prefetch_diagnostics`]) judge a
//! *requested* prefetch mode against the same static model, so they run
//! only when `hoploc check` is invoked with `--prefetch` (warnings for a
//! knob nobody asked for would trip `--deny warnings` CI gates):
//!
//! | Code   | Severity | Finding |
//! |--------|----------|---------|
//! | HL1101 | note     | a significant share of accesses go through index tables the prefetcher cannot learn |
//! | HL1102 | warning  | the app is predicted L2-resident, so prefetching can only pollute |
//!
//! The low-level queries ([`check_array_plan`], [`array_plan_hops`],
//! [`baseline_hops`]) take a bare [`ArrayLayout`] so tests can feed
//! deliberately bad plans built with [`ArrayLayout::from_parts`] and
//! prove each code fires; [`performance_diagnostics`] is the app-level
//! pass `hoploc check` runs, which derives traffic shares from the
//! footprint model and applies the significance gate.

use hoploc_check::{Code, Diagnostic};
use hoploc_layout::{ArrayLayout, ProgramLayout};
use hoploc_noc::{L2ToMcMapping, NodeId};
use hoploc_workloads::{App, RunKind};

use crate::model::{estimate_app, EstConfig};

/// An array's predicted traffic share below which plan-quality warnings
/// stay quiet: a bad plan for 3% of the traffic is not worth a warning.
pub const TRAFFIC_SIGNIFICANCE: f64 = 0.10;

/// HL1001 fires when the plan's expected hop distance fails to undercut
/// this fraction of the uniform-interleave baseline.
pub const HOP_IMPROVEMENT_FLOOR: f64 = 0.95;

/// HL1002 fires when one controller holds at least this share of the
/// plan's slots.
pub const MC_SHARE_CEILING: f64 = 0.5;

/// Mean off-chip hop distance under uniform interleaving: every node
/// equally likely to request, every controller equally likely to serve.
pub fn baseline_hops(mapping: &L2ToMcMapping, num_nodes: usize) -> f64 {
    let mesh = mapping.mesh();
    let n_mcs = mapping.num_mcs();
    let mut sum = 0.0;
    for n in 0..num_nodes {
        for m in 0..n_mcs {
            let mc = hoploc_noc::McId(m as u16);
            sum += mesh.hop_distance(NodeId(n as u16), mapping.mc_node(mc)) as f64;
        }
    }
    sum / (num_nodes * n_mcs.max(1)) as f64
}

/// Expected hop distance of a localized plan: each thread's requests go
/// to its group's slot controllers ([`ArrayLayout::thread_mcs`]),
/// weighted per slot. `nodes[t]` is the mesh node thread `t` runs on.
/// `None` for original layouts (nothing planned; traffic interleaves at
/// [`baseline_hops`]).
pub fn array_plan_hops(al: &ArrayLayout, nodes: &[NodeId], mapping: &L2ToMcMapping) -> Option<f64> {
    let mesh = mapping.mesh();
    let mut sum = 0.0;
    let mut n = 0usize;
    for (t, &node) in nodes.iter().enumerate() {
        let mcs = al.thread_mcs(t)?;
        let slots = mcs.len();
        if slots == 0 {
            continue;
        }
        let d: f64 = mcs
            .map(|mc| mesh.hop_distance(node, mapping.mc_node(mc)) as f64)
            .sum::<f64>()
            / slots as f64;
        sum += d;
        n += 1;
    }
    (n > 0).then(|| sum / n as f64)
}

/// The per-controller slot shares of a localized plan (`None` for
/// original layouts).
pub fn plan_mc_shares(al: &ArrayLayout, n_mcs: usize) -> Option<Vec<f64>> {
    let mut hist = vec![0.0; n_mcs];
    plan_mc_shares_into(al, &mut hist).then_some(hist)
}

/// [`plan_mc_shares`] into `hist`, one entry per controller; `false` (and
/// `hist` unspecified) where that is `None`.
pub(crate) fn plan_mc_shares_into(al: &ArrayLayout, hist: &mut [f64]) -> bool {
    let Some(v) = al.plan_view() else {
        return false;
    };
    hist.fill(0.0);
    let mut total = 0.0;
    for slots in v.group_slots.iter() {
        for &s in slots {
            hist[(s % v.n_mcs) as usize] += 1.0;
            total += 1.0;
        }
    }
    if total == 0.0 {
        return false;
    }
    for h in hist {
        *h /= total;
    }
    true
}

/// Checks one array's localized plan against the hop and balance
/// predictions. `traffic_share` is the array's fraction of the app's
/// predicted off-chip traffic — warnings stay quiet below
/// [`TRAFFIC_SIGNIFICANCE`]. Original layouts produce nothing (there is
/// no plan to judge).
pub fn check_array_plan(
    app: &str,
    array: &str,
    al: &ArrayLayout,
    nodes: &[NodeId],
    mapping: &L2ToMcMapping,
    traffic_share: f64,
    label: &str,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if al.is_original() || traffic_share < TRAFFIC_SIGNIFICANCE {
        return out;
    }
    let base = baseline_hops(mapping, nodes.len().max(1));
    if let Some(plan) = array_plan_hops(al, nodes, mapping) {
        if plan > HOP_IMPROVEMENT_FLOOR * base {
            out.push(
                Diagnostic::new(
                    Code::PredictedPlanIneffective,
                    app,
                    format!(
                        "localized plan is predicted to average {plan:.2} hops per \
                         off-chip request vs {base:.2} under uniform interleaving \
                         ({:.0}% of predicted traffic)",
                        traffic_share * 100.0
                    ),
                )
                .with_config(label)
                .on_array(array)
                .with_help(
                    "the slot assignment places this array's units no closer to their \
                     owning threads than default interleaving; check the cluster map \
                     and MC placement the plan was compiled against",
                ),
            );
        }
    }
    if let Some(shares) = plan_mc_shares(al, mapping.num_mcs()) {
        let (worst, share) = shares
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, &s)| (i, s))
            .unwrap_or((0, 0.0));
        if share >= MC_SHARE_CEILING {
            out.push(
                Diagnostic::new(
                    Code::PredictedMcImbalance,
                    app,
                    format!(
                        "localized plan routes {:.0}% of this array's slots to MC{worst} \
                         ({:.0}% of predicted traffic); that controller's queue is \
                         predicted to saturate",
                        share * 100.0,
                        traffic_share * 100.0
                    ),
                )
                .with_config(label)
                .on_array(array)
                .with_help(
                    "spread the group's slots across the cluster's controllers, or \
                     revisit the super-group size so slot % n_mcs covers all of them",
                ),
            );
        }
    }
    out
}

/// The app-level predicted-performance pass `hoploc check` runs: derives
/// per-array traffic shares from the footprint model, judges each
/// optimized array's plan, and reports capacity streaming and
/// approximation caveats.
pub fn performance_diagnostics(
    app: &App,
    layout: &ProgramLayout,
    mapping: &L2ToMcMapping,
    cfg: &EstConfig,
    label: &str,
) -> Vec<Diagnostic> {
    let est = estimate_app(app, layout, mapping, RunKind::Optimized, cfg);
    let name = app.name();
    let mut out = Vec::new();
    let total: f64 = est
        .arrays
        .iter()
        .map(|a| a.predicted_offchip as f64)
        .sum::<f64>()
        .max(1.0);
    let binding = layout.binding();
    let nodes: Vec<NodeId> = (0..binding.len() * cfg.threads_per_core)
        .map(|t| binding.node_of(t / cfg.threads_per_core))
        .collect();
    for (i, decl) in app.program.arrays().iter().enumerate() {
        let Some(a) = est.arrays.iter().find(|a| a.array == decl.name()) else {
            continue;
        };
        let share = a.predicted_offchip as f64 / total;
        out.extend(check_array_plan(
            name,
            decl.name(),
            layout.layout(hoploc_affine::ArrayId(i)),
            &nodes,
            mapping,
            share,
            label,
        ));
    }
    if est.streaming {
        out.push(
            Diagnostic::new(
                Code::PredictedCapacityStreaming,
                name,
                format!(
                    "predicted working set exceeds L2 capacity: {:.1}% of accesses \
                     go off-chip; placement, not caching, governs performance",
                    est.offchip_fraction() * 100.0
                ),
            )
            .with_config(label),
        );
    }
    if est.arrays.iter().any(|a| a.indexed) {
        let names: Vec<&str> = est
            .arrays
            .iter()
            .filter(|a| a.indexed)
            .map(|a| a.array.as_str())
            .collect();
        out.push(
            Diagnostic::new(
                Code::EstimateApproximate,
                name,
                format!(
                    "prediction uses the coarse index-table model for: {}",
                    names.join(", ")
                ),
            )
            .with_config(label),
        );
    }
    out
}

/// HL1102 fires when the predicted off-chip fraction sits at or below
/// this — an app whose demand stream the L2 already absorbs has nothing
/// for a prefetcher to cover, so every speculative fill is pollution.
pub const L2_RESIDENT_CEILING: f64 = 0.01;

/// The HL11xx prefetch advisories: judges a *requested* prefetch engine
/// against the static model. Opt-in — `hoploc check` runs this only when
/// invoked with `--prefetch <mode>` (`mode_name` is that mode's wire
/// name, echoed into the findings), because HL1102 is a warning and must
/// not trip `--deny warnings` gates for users who never asked about
/// prefetching.
pub fn prefetch_diagnostics(
    app: &App,
    layout: &ProgramLayout,
    mapping: &L2ToMcMapping,
    cfg: &EstConfig,
    label: &str,
    mode_name: &str,
) -> Vec<Diagnostic> {
    let est = estimate_app(app, layout, mapping, RunKind::Optimized, cfg);
    let name = app.name();
    let mut out = Vec::new();
    let indexed_share = 1.0 - est.prefetchability();
    if indexed_share >= TRAFFIC_SIGNIFICANCE {
        let names: Vec<&str> = est
            .arrays
            .iter()
            .filter(|a| a.indexed)
            .map(|a| a.array.as_str())
            .collect();
        out.push(
            Diagnostic::new(
                Code::PrefetchUselessOnIndexed,
                name,
                format!(
                    "{:.0}% of accesses go through index tables ({}) whose \
                     address streams carry no stride; the {mode_name} \
                     prefetcher is predicted useless for that traffic",
                    indexed_share * 100.0,
                    names.join(", "),
                ),
            )
            .with_config(label)
            .with_help(
                "indexed traffic trains nothing and gains nothing; expect \
                 coverage no higher than the app's affine access share",
            ),
        );
    }
    if !est.streaming && est.offchip_fraction() <= L2_RESIDENT_CEILING {
        out.push(
            Diagnostic::new(
                Code::PrefetchPredictedHarmful,
                name,
                format!(
                    "predicted L2-resident ({:.2}% of accesses off-chip): the \
                     {mode_name} prefetcher has nothing to cover and its \
                     fills can only evict live lines",
                    est.offchip_fraction() * 100.0,
                ),
            )
            .with_config(label)
            .with_help(
                "run this app with --prefetch off, or gate on the off-chip \
                 predictor (--prefetch gated) so the throttle idles the engine",
            ),
        );
    }
    out
}
