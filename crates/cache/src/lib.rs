//! # hoploc-cache
//!
//! Cache substrate for the hoploc simulator: a tag-only set-associative
//! LRU cache ([`SetAssocCache`]) used for both L1s and L2 slices — one
//! type that scans the 2-way L1's sets and indexes the wide L2's — and the
//! MC-side [`Directory`] that arbitrates between on-chip (cache-to-cache)
//! and off-chip fulfilment of private-L2 misses, per Figure 2a of the
//! paper. The shared-SNUCA home-bank arithmetic lives in the simulator,
//! which composes these structures per node. [`TokenRing`] is the book of
//! in-flight values keyed by a dense, increasing id (the simulator's
//! memory tokens, the recorder's request ids); [`IntMap`] is the hash map
//! the simulator's other per-access books are keyed with.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod directory;
mod intmap;
mod ring;
mod set_assoc;

pub use directory::{Directory, Sharers};
pub use intmap::{IntHasher, IntMap};
pub use ring::TokenRing;
pub use set_assoc::{AccessResult, CacheConfig, CacheStats, SetAssocCache};
