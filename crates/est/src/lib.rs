//! # hoploc-est
//!
//! Static locality and contention analysis: predicts each application's
//! off-chip behaviour — off-chip fraction, expected NoC hop count, and
//! per-MC queue pressure — from its affine IR, layout plan, and cluster
//! map alone, with **no simulation**.
//!
//! The cycle simulator answers "what happened"; this crate answers "what
//! will happen" in microseconds, by the same reasoning a compiler would
//! use (§5 of the paper): access matrices give footprints, footprints
//! against L2 capacity give reuse levels and miss counts, and the layout
//! plan's slot arithmetic gives the static traffic split across memory
//! controllers. Three surfaces build on the model:
//!
//! * [`estimate_app`] — the per-reference / per-array / per-app
//!   prediction ([`AppEstimate`]), consumed by `hoploc est`: a
//!   layout-independent [`Footprint`] routed through one layout.
//!   [`PlacementScorer`] keeps the footprint (and the layout pass's
//!   program analysis) across the placements a design-space search scores;
//! * [`performance_diagnostics`] — the `HL10xx` predicted-performance
//!   findings `hoploc check` folds into its report (a plan that will not
//!   help, a controller that will saturate, a working set that streams);
//! * [`cross_validate`] — the estimator-vs-simulator rank-correlation
//!   harness (Spearman ρ over the full app × kind × config matrix) that
//!   gates CI and self-times the estimator's speedup.
//!
//! The model is deliberately *rank-faithful* rather than cycle-accurate:
//! it must sort design points the way the simulator does (ρ ≥ 0.8), not
//! reproduce their absolute miss counts — though on degenerate
//! fits-in-cache configurations it is exact, and the property tests pin
//! that down along with capacity monotonicity and scale invariance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diag;
mod model;
mod rank;
mod xval;

pub use diag::{
    array_plan_hops, baseline_hops, check_array_plan, performance_diagnostics, plan_mc_shares,
    prefetch_diagnostics, HOP_IMPROVEMENT_FLOOR, L2_RESIDENT_CEILING, MC_SHARE_CEILING,
    TRAFFIC_SIGNIFICANCE,
};
pub use model::{
    estimate_app, estimate_placement, AppEstimate, ArrayEstimate, EstConfig, EstTerms, Footprint,
    FootprintInputs, PlacementScorer, RefEstimate,
};
pub use rank::{ranks, spearman};
pub use xval::{cross_validate, render_text, standard_configs, xval_json, XvalCell, XvalReport};

use hoploc_obs::JsonWriter;

/// One prediction as a single-line JSON record — the `fidelity=est`
/// payload hoploc-serve returns, field-compatible where the concepts
/// overlap with the simulator's run records (`app`, `kind`,
/// `total_accesses`, `offchip_accesses`, `offchip_fraction`,
/// `avg_offchip_hops`) plus the estimator-only fields.
pub fn est_record_json(e: &AppEstimate) -> String {
    let mut w = JsonWriter::spaced();
    (w.obj().field("app", &e.app).field("kind", e.kind.name()))
        .field("fidelity", "est")
        .field("total_accesses", e.total_accesses)
        .field("offchip_accesses", e.predicted_offchip)
        .field("offchip_fraction", e.offchip_fraction())
        .field("avg_offchip_hops", e.avg_offchip_hops)
        .field("queue_pressure", e.queue_pressure)
        .key("mc_shares")
        .items(&e.mc_shares)
        .field("streaming", e.streaming)
        .field("prefetchability", e.prefetchability())
        .end_obj()
        .take()
}
