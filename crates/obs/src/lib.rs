//! `hoploc-obs` — deterministic observability for the hoploc simulator stack.
//!
//! Everything here is timestamped in **sim cycles**, never wall clock, so a
//! recording is a pure function of the simulated machine and workload: two
//! runs (on any host, at any `--jobs` level) produce byte-identical traces
//! and snapshots.
//!
//! The crate has three layers:
//!
//! * **Recording** — a [`Sink`] handed by reference into the instrumented
//!   components (`sim`, `noc`, `mem`, `cache`). A disabled sink costs one
//!   branch per call site and allocates nothing; an enabled sink records
//!   each off-chip request's lifecycle as spans (L1 miss → directory →
//!   per-hop NoC traversal with link-wait cycles → MC queue → bank
//!   row-hit/miss service → reply) plus a [`Registry`] of counters, gauges,
//!   log-bucketed latency [`Histogram`]s, and windowed per-epoch series.
//! * **Report** — [`ObsReport`], the frozen result: plain data (safe to send
//!   across harness worker threads) with figure-level derived views that
//!   replicate the aggregate `RunStats` formulas operation-for-operation.
//! * **Export** — Chrome trace-event JSON (Perfetto-loadable, one lane per
//!   core/link/MC/bank), a per-link heatmap TSV, and a stable JSON metrics
//!   snapshot, plus the workspace's one JSON writer ([`JsonWriter`]) and a
//!   dependency-free JSON parser and schema validator used by tests and the
//!   `hoploc trace-validate` CI check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod hist;
pub mod json;
pub mod registry;
pub mod report;
pub mod sink;

pub use event::{CacheLevel, CacheTag, EvName, NetClass, Phase, ReqTag, SpanEvent, Track};
pub use hist::Histogram;
pub use json::{
    parse as parse_json, validate_chrome_trace, ChromeSummary, Floats, JsonScalar, JsonWriter,
    Value as JsonValue,
};
pub use registry::{Registry, WindowMode};
pub use report::ObsReport;
pub use sink::{ObsConfig, PfEvent, Sink, Topology, HOP_HIST_LEN};
