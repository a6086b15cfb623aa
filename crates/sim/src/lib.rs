//! # hoploc-sim
//!
//! The full-system simulator of the hoploc reproduction: in-order cores
//! replaying memory traces over private or shared (SNUCA) L2s, a
//! contention-modelled mesh NoC, FR-FCFS memory controllers, and an OS
//! page-allocation layer with the paper's interleaved / compiler-desired /
//! first-touch policies.
//!
//! The pipeline is: build a [`TraceWorkload`] (one access stream per
//! thread; the `hoploc-workloads` crate generates these from affine
//! programs as the run pulls them), pick a
//! [`SimConfig`] (defaults reproduce Table 1) and a
//! [`PagePolicy`], then [`Simulator::run`] it for a [`RunStats`].
//! [`Improvement::between`] compares an optimized run against a baseline,
//! yielding the four reductions every results figure reports.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod address;
mod cancel;
mod config;
mod machine;
mod os;
mod queue;
mod stats;
mod trace;

pub use address::AddressSpace;
pub use cancel::Cancel;
pub use config::SimConfig;
pub use hoploc_prefetch::{PrefetchConfig, PrefetchMode, PrefetchSummary};
pub use machine::Simulator;
pub use os::{Os, PagePolicy};
pub use stats::{Improvement, RunStats};
pub use trace::{Access, Stream, ThreadTrace, TraceSource, TraceWorkload, CHUNK};
