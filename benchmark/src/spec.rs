//! What the benchmark declares: its workloads and every metric it may
//! emit, with unit, direction and (for end-to-end metrics) the regression
//! bound. `BENCHMARK.json` at the repo root is `manifest_json()` of these
//! tables; a self-test keeps the two identical.

use std::fmt::Write as _;

use crate::json;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// How long one driver run measures, and the command the driver appends
/// `--workload .. --seed .. --seconds .. --trace ..` to.
pub const RUN_SECONDS: u32 = 12;
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];
pub const PATHS: &[&str] = &["benchmark"];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// The five workloads. The names are permanent: later changes are judged
/// against them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "sweep-hit",
        why: "baseline+optimized cycle sims of the 8 L1-friendly apps: core issue, L1, translate, event heap and trace generation do the work; NoC, MCs and directory do little",
    },
    Workload {
        name: "sweep-miss",
        why: "the same pipeline over the 5 miss-heavy apps: L2, directory, Network::send and FR-FCFS enqueue/poll dominate; with sweep-hit it covers the paper's 13 apps",
    },
    Workload {
        name: "sweep-axes",
        why: "swim and applu under 8 variants (shared L2, gated prefetch, faults, writebacks, 2 threads, page first-touch, traced): a gain on the default path that costs another path shows here",
    },
    Workload {
        name: "search-triage",
        why: "search_app for all 13 apps at test scale, budget 1000: estimator scoring, the layout pass and search bookkeeping do most of the work and the cycle sim little",
    },
    Workload {
        name: "serve-mix",
        why: "closed-loop NDJSON submit+result pairs over loopback with cache hits, coalesces and evictions: parse, validate, queue, cache and serialise are the latency, not the model",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics: what someone running a sweep, a search or a
/// served job waits for or pays. Every workload emits every one of them.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p99_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn l(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// The per-layer metrics of the traced run (layer = crate name). A
/// workload that does not exercise a metric's layer reports it as 0.
pub const PER_LAYER: &[Layer] = &[
    // Exact simulated results and fidelity: bit-equal between two runs of
    // one seed unless the model changed.
    l("sim_exec_cycles", "cycles", Lower),
    l("opt_exec_reduction", "share", Higher),
    l("search_found_vs_paper", "ratio", Higher),
    l("est_offchip_rank_corr", "rho", Higher),
    l("est_hops_rank_corr", "rho", Higher),
    l("failed_share", "share", Lower),
    l("bench.stats_digest", "hash48", Lower),
    // Memory: `VmHWM` of the traced run's process.
    l("peak_rss_mb", "MB", Lower),
    // Spans, sweeps.
    l("workloads.build_apps_s", "s", Lower),
    l("layout.pass_s", "s", Lower),
    l("sim.address_space_s", "s", Lower),
    l("workloads.trace_gen_s", "s", Lower),
    l("workloads.trace_gen_ns_per_access", "ns", Lower),
    l("sim.construct_s", "s", Lower),
    l("sim.run_s", "s", Lower),
    l("sim.run_ns_per_access", "ns", Lower),
    l("sim.teardown_s", "s", Lower),
    l("est.estimate_s", "s", Lower),
    l("est.speedup_vs_sim", "ratio", Higher),
    l("sim.run_ns_per_access.plain", "ns", Lower),
    l("sim.run_ns_per_access.sharedl2", "ns", Lower),
    l("sim.run_ns_per_access.gated", "ns", Lower),
    l("sim.run_ns_per_access.faults", "ns", Lower),
    l("sim.run_ns_per_access.writebacks", "ns", Lower),
    l("sim.run_ns_per_access.threads2", "ns", Lower),
    l("sim.run_ns_per_access.page-ft", "ns", Lower),
    l("sim.run_ns_per_access.traced", "ns", Lower),
    l("obs.traced_slowdown", "ratio", Lower),
    // Counts from the simulator's statistics (exact).
    l("sim.accesses", "count", Higher),
    l("cache.l1_hit_share", "share", Higher),
    l("cache.l2_hit_share", "share", Higher),
    l("cache.c2c_share", "share", Higher),
    l("mem.offchip_share", "share", Lower),
    l("mem.served", "count", Lower),
    l("mem.dropped", "count", Lower),
    l("mem.row_hit_rate", "share", Higher),
    l("noc.messages", "count", Lower),
    l("noc.msgs_per_access", "ratio", Lower),
    l("noc.avg_offchip_hops", "hops", Lower),
    l("prefetch.issued", "count", Lower),
    l("prefetch.accuracy", "share", Higher),
    l("fault.rehomed", "count", Lower),
    l("sim.os_fallbacks", "count", Lower),
    l("sim.backstop_flushes", "count", Lower),
    // Component probes.
    l("cache.l1_access_ns", "ns", Lower),
    l("cache.l2_access_ns", "ns", Lower),
    l("cache.directory_lookup_ns", "ns", Lower),
    l("sim.os_translate_ns", "ns", Lower),
    l("noc.send_ns", "ns", Lower),
    l("mem.enqueue_poll_ns", "ns", Lower),
    l("prefetch.on_demand_ns", "ns", Lower),
    l("obs.sink_event_ns", "ns", Lower),
    l("est.placement_eval_us", "us", Lower),
    l("layout.pass_us", "us", Lower),
    l("serve.wire_parse_us", "us", Lower),
    l("serve.wire_encode_us", "us", Lower),
    // Derived attribution of sim.run_s (an estimate).
    l("sim.est_share.cache", "share", Lower),
    l("sim.est_share.translate", "share", Lower),
    l("sim.est_share.noc", "share", Lower),
    l("sim.est_share.mem", "share", Lower),
    l("sim.est_share.rest", "share", Lower),
    // Search.
    l("search.search_app_s", "s", Lower),
    l("search.evals", "count", Higher),
    l("search.evals_per_s", "1/s", Higher),
    l("search.events", "count", Higher),
    l("search.verify_s", "s", Lower),
    l("search.score_share", "share", Higher),
    l("search.wins_vs_paper", "count", Higher),
    l("est.xval_est_s", "s", Lower),
    l("est.xval_sim_s", "s", Lower),
    // Serve.
    l("serve.ping_rtt_us", "us", Lower),
    l("serve.submit_rtt_us.test", "us", Lower),
    l("serve.submit_rtt_us.bench", "us", Lower),
    l("serve.result_wait_ms.est", "ms", Lower),
    l("serve.result_wait_ms.cycle", "ms", Lower),
    l("serve.hit_latency_p50_us", "us", Lower),
    l("serve.est_latency_p50_ms", "ms", Lower),
    l("serve.cycle_latency_p50_ms", "ms", Lower),
    l("serve.executed", "count", Lower),
    l("serve.cached", "count", Higher),
    l("serve.coalesced", "count", Higher),
    l("serve.rejected", "count", Lower),
    l("serve.retries", "count", Lower),
    l("serve.hit_ratio", "share", Higher),
    l("serve.queue_wait_p95_ms", "ms", Lower),
    l("serve.job_wall_p50_ms", "ms", Lower),
    l("serve.exec_share", "share", Higher),
    // The benchmark itself.
    l("bench.span_coverage", "share", Higher),
    l("bench.trace_overhead_share", "share", Lower),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json`, byte for byte.
pub fn manifest_json() -> String {
    let strings = |items: &[&str]| {
        items
            .iter()
            .map(|s| json::quote(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"command\": [{}],", strings(COMMAND));
    let _ = writeln!(s, "  \"paths\": [{}],", strings(PATHS));
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": {}, \"why\": {}}}",
            json::quote(w.name),
            json::quote(w.why)
        );
        s.push_str(if i + 1 < WORKLOADS.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
            json::quote(m.name),
            json::quote(m.unit),
            json::quote(m.better.name()),
            json::num(m.bound)
        );
        s.push_str(if i + 1 < END_TO_END.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
            json::quote(m.name),
            json::quote(m.unit),
            json::quote(m.better.name())
        );
        s.push_str(if i + 1 < PER_LAYER.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn declarations_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
        assert!(manifest_json().len() <= 64 * 1024);
    }

    #[test]
    fn manifest_matches_the_committed_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `hoploc-perf manifest > BENCHMARK.json`"
        );
        assert!(crate::json::parse(&committed).is_ok());
    }
}
