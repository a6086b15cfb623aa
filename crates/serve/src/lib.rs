//! `hoploc-serve` — simulation-as-a-service for the hoploc stack.
//!
//! A std-only multithreaded job server: a [`TcpListener`] frontend speaks
//! a newline-delimited JSON protocol (`submit` / `status` / `result` /
//! `stats` / `drain` / `ping`), a bounded queue applies explicit
//! backpressure (a full queue *replies* `queue_full` with a
//! `retry_after_ms` hint rather than blocking or dropping), and a worker
//! pool executes jobs through the existing [`hoploc_harness`] entry
//! points — so a served result is byte-identical to a direct run.
//!
//! Duplicate work is eliminated twice: identical submissions to an
//! in-flight job **coalesce** onto the same job id (one simulation, many
//! answers), and finished results land in a bounded LRU **cache** keyed by
//! the [canonical job key](job::JobSpec::canon) (application, run kind,
//! simulator configuration, fault plan, seed, fidelity tier). `drain`
//! stops admission, answers every accepted job, snapshots metrics, and
//! shuts down cleanly.
//!
//! Jobs carry a [`Fidelity`] tier: `cycle` (the default — full
//! simulation) or `est` (the [`hoploc_est`] static estimator, answering
//! in microseconds for design-space triage). The default tier's wire
//! encoding and canonical key are byte-identical to pre-fidelity clients',
//! so old caches and logs stay valid.
//!
//! Long-running jobs exist too: a submission with `search_*` fields runs
//! the [`hoploc_search`] design-space optimizer server-side, and the
//! `watch` op streams its progress events (best-so-far improvements)
//! followed by the final report — byte-identical to `hoploc search
//! --json -` for the same seed. Like `fidelity`, the search fields are
//! default-absent from both the wire form and the canonical key, so
//! pre-existing job keys and cached results stay byte-stable.
//!
//! The crate splits along the obvious seams:
//!
//! * [`job`] — job specs, canonical encoding, and the FNV-1a job key.
//! * [`wire`] — the NDJSON protocol: requests, responses, raw-byte
//!   payload embedding.
//! * [`cache`] — the bounded LRU result cache.
//! * [`metrics`] — server counters/gauges/histograms in a
//!   [`hoploc_obs::Registry`].
//! * [`engine`] — the [`engine::Engine`] trait and the production
//!   [`engine::SuiteEngine`] (each job's layout plan compiled on demand
//!   and run through the harness's one-shot).
//! * [`server`] — queue, workers, coalescing, backpressure, timeouts,
//!   drain, and the TCP frontend.
//! * [`client`] — a blocking client honoring backpressure hints.
//! * [`load`] — the loopback load generator behind `hoploc load`.
//!
//! [`TcpListener`]: std::net::TcpListener

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod engine;
pub mod job;
pub mod load;
pub mod metrics;
pub mod server;
pub mod wire;

pub use cache::LruCache;
pub use client::Client;
pub use engine::{Engine, EngineCaps, SuiteEngine};
pub use hoploc_sim::PrefetchMode;
pub use job::{FaultSpec, Fidelity, JobKey, JobSpec, SearchSpec};
pub use load::{run_load, LoadConfig, LoadReport};
pub use metrics::{Ctr, ServeMetrics};
pub use server::{Core, DrainSummary, ServeConfig, Server};
pub use wire::{Request, Response, SubmitStatus};
