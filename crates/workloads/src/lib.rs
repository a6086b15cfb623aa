//! # hoploc-workloads
//!
//! The evaluation workloads of the PLDI'15 reproduction: all 13 SPEC
//! OMP2001 / Mantevo applications modelled as parameterized affine
//! programs ([`all_apps`]), trace generation that replays them under any
//! program layout ([`generate_traces`]), and the two sides of an
//! experiment ([`RunKind`], the layout each compiles: [`layout_for`]).
//! Simulating them is `hoploc-harness`'s one runner.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod apps;
mod gen;
mod suite;

pub use apps::{
    all_apps, ammp, app_by_name, applu, apsi, art, fma3d, gafort, galgel, hpccg, mgrid, minighost,
    minimd, mixes, swim, wupwise, App, Scale, APP_NAMES,
};
pub use gen::{generate_traces, NestSampling, TraceGen, MAX_THREADS_PER_CORE};
pub use suite::{layout_for, layout_into, layout_with, weighted_speedup, RunKind};
