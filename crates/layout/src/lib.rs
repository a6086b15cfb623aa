//! # hoploc-layout
//!
//! The core contribution of *Optimizing Off-Chip Accesses in Multicores*
//! (PLDI 2015): a compiler-guided data-layout transformation that places
//! array elements in virtual memory so that each off-chip (main-memory)
//! access travels a minimal number of NoC hops to a memory controller
//! serving the requesting core's cluster.
//!
//! The pass runs in two steps (Figure 7):
//!
//! 1. **Determining the Data-to-Core mapping** (§5.2,
//!    [`determine_data_to_core`]): solve `Bᵀ gᵥᵀ = 0` by integer Gaussian
//!    elimination for each weighted reference group and complete `gᵥ` into
//!    a unimodular transformation `U`.
//! 2. **Layout customization** (§5.3, [`ArrayLayout`]): strip-mine and
//!    permute the transformed layout so that, under the hardware's
//!    cache-line or page interleaving, every element's interleave unit maps
//!    to a controller assigned to its owner cluster — with separate
//!    constructions for private L2s, shared SNUCA L2 (where §5.3 proves
//!    perfect on-chip *and* off-chip localization is impossible), and
//!    OS-assisted page interleaving.
//!
//! [`optimize_program`] is Algorithm 1: it drives both steps over every
//! array of a [`hoploc_affine::Program`], approximating indexed references
//! from profiled tables (§5.4, [`approximate_table`]) and skipping arrays
//! that approximate too poorly. [`select_mapping`] implements the §4
//! analysis that chooses among candidate L2-to-MC mappings by weighing
//! distance-to-MC against memory-level parallelism.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod approx;
mod binding;
pub mod codegen;
mod customize;
mod data_to_core;
mod error;
mod pass;
mod select;

pub use approx::{approximate_table, IndexedApproximation};
pub use binding::ThreadBinding;
pub use customize::{ArrayLayout, Granularity, GroupSlots, L2Mode, PlanView, Run};
pub use data_to_core::{
    determine_data_to_core, transform_dvec, transformed_bounds, DataToCore, DATA_PARTITION_DIM,
};
pub use error::LayoutError;
pub use pass::{
    baseline_layout, optimize_program, ArrayReport, PassConfig, ProgramAnalysis, ProgramLayout,
};
pub use select::{mapping_cost, select_mapping, AppProfile};
