//! # hoploc
//!
//! An end-to-end reproduction of *Optimizing Off-Chip Accesses in
//! Multicores* (Ding, Tang, Kandemir, Zhang, Kultursay — PLDI 2015): a
//! compiler-guided data-layout transformation that localizes off-chip
//! (main-memory) accesses in NoC-based manycores, together with the full
//! simulation substrate needed to evaluate it.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`affine`] — integer linear algebra and the affine loop-nest IR;
//! * [`layout`] — the localization pass itself (the paper's contribution);
//! * [`noc`] — a 2-D mesh network-on-chip model with XY routing and
//!   link contention;
//! * [`mem`] — memory controllers with FR-FCFS scheduling over DRAM banks;
//! * [`cache`] — private and shared (SNUCA) L2 models with a directory;
//! * [`sim`] — the full-system simulator (cores, OS page allocation,
//!   translation, statistics);
//! * [`workloads`] — the paper's 13 SPEC-OMP/Mantevo applications modelled
//!   as parameterized affine programs;
//! * [`fault`] — seeded, deterministic fault plans (link latency windows,
//!   DRAM bank stalls/transient errors with bounded retry, whole-MC
//!   outages with nearest-live-MC re-homing) for the `hoploc faults`
//!   chaos/resilience tooling;
//! * [`obs`] — deterministic, sim-cycle-timestamped observability:
//!   request-lifecycle spans, a metric registry (counters, gauges,
//!   histograms, windowed series), and Chrome-trace / JSON / TSV
//!   exporters (`hoploc trace`);
//! * [`prefetch`] — per-L2-slice stride/stream prefetch engines with a
//!   perceptron-style off-chip predictor gating issue and an accuracy
//!   throttle (`--prefetch stride|stream|gated|off`);
//! * [`harness`] — the parallel suite harness that fans the
//!   (app × run-kind) matrix across threads with bit-identical results;
//! * [`check`] — the static verifier and lint pass (`hoploc check`):
//!   layout legality, parallelization races, and affine bounds
//!   diagnostics with stable `HLxxxx` codes;
//! * [`est`] — the static locality & contention estimator (`hoploc
//!   est`): predicts off-chip fraction, expected hop count, and per-MC
//!   queue pressure from access matrices and layout plans alone, emits
//!   the `HL10xx` predicted-performance diagnostics, and cross-validates
//!   itself against the cycle simulator by Spearman rank correlation;
//! * [`search`] — seeded, deterministic design-space search (`hoploc
//!   search`): simulated annealing plus exact branch-and-bound over MC
//!   placements, L2-to-MC cluster maps, and layout-plan parameters,
//!   scored by the static estimator with top candidates verified by the
//!   cycle simulator against the paper's fixed placements;
//! * [`serve`] — simulation-as-a-service (`hoploc serve` / `hoploc
//!   load`): a std-only TCP job server with a bounded queue, explicit
//!   backpressure, in-flight coalescing, a bounded LRU result cache keyed
//!   by canonical job hash, per-job timeouts, and graceful drain — served
//!   results are byte-identical to direct harness runs.
//!
//! See `examples/quickstart.rs` for the fastest way to run an optimized
//! vs. baseline comparison, and `hoploc sweep --jobs N` for the parallel
//! suite sweep.

#![forbid(unsafe_code)]

pub use hoploc_affine as affine;
pub use hoploc_cache as cache;
pub use hoploc_check as check;
pub use hoploc_est as est;
pub use hoploc_fault as fault;
pub use hoploc_harness as harness;
pub use hoploc_layout as layout;
pub use hoploc_mem as mem;
pub use hoploc_noc as noc;
pub use hoploc_obs as obs;
pub use hoploc_prefetch as prefetch;
pub use hoploc_search as search;
pub use hoploc_serve as serve;
pub use hoploc_sim as sim;
pub use hoploc_workloads as workloads;
