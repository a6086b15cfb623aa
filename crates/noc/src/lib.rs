//! # hoploc-noc
//!
//! A cycle-approximate two-dimensional mesh network-on-chip model with XY
//! routing, per-link contention, and the cluster/memory-controller geometry
//! vocabulary of *Optimizing Off-Chip Accesses in Multicores* (PLDI 2015).
//!
//! The crate provides:
//!
//! * [`Mesh`], [`NodeId`], [`McId`] — geometry, Manhattan distances, XY
//!   routes, and the paper's MC placements P1/P2/P3 plus the 8- and 16-MC
//!   configurations ([`McPlacement`]);
//! * [`L2ToMcMapping`] — validated cluster → memory-controller mappings,
//!   including the paper's M1 (quadrants, `k = 1`) and M2 (halves,
//!   `k = 2`) examples, with the distance / MLP metrics used by the
//!   compiler's mapping-selection analysis;
//! * [`Placement`] — MC attach coordinates *plus* a validated cluster
//!   map as one value, consistent by construction, so design-space
//!   search, the estimator, and the simulator provably agree on
//!   geometry;
//! * [`Network`] — the contention model: messages serialize per directed
//!   link, so off-chip and on-chip traffic interfere exactly as the paper
//!   describes, with per-class latency and hop-histogram statistics
//!   ([`NetStats`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cluster;
mod geometry;
mod network;
mod placement;

pub use cluster::{ClusterId, L2ToMcMapping, MappingError};
pub use geometry::{McId, McPlacement, Mesh, NodeId};
pub use network::{ClassStats, LinkFault, NetStats, Network, NocConfig, TrafficClass, MAX_HOPS};
pub use placement::Placement;
