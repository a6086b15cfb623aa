//! # hoploc-cache
//!
//! Cache substrate for the hoploc simulator: a tag-only set-associative
//! LRU cache ([`SetAssocCache`]) used for both L1s and L2 slices — one
//! type that scans the 2-way L1's sets and indexes the wide L2's — and the
//! MC-side [`Directory`] that arbitrates between on-chip (cache-to-cache)
//! and off-chip fulfilment of private-L2 misses, per Figure 2a of the
//! paper. The shared-SNUCA home-bank arithmetic lives in the simulator,
//! which composes these structures per node. [`IntMap`] is the hash map
//! the simulator's per-access books (its in-flight request tables) are
//! keyed with.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod directory;
mod intmap;
mod set_assoc;

pub use directory::{Directory, Sharers};
pub use intmap::{IntHasher, IntMap};
pub use set_assoc::{AccessResult, CacheConfig, CacheStats, SetAssocCache};
