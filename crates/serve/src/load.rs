//! A loopback load generator: N concurrent clients submitting the
//! app × run-kind matrix and waiting for every result, reporting
//! throughput and tail latency.
//!
//! This is both the `hoploc load` subcommand's engine and the CI smoke
//! test's driver: it exercises submission, backpressure retries,
//! coalescing (every repeat after the first hits an in-flight or cached
//! job), and result fetching, and it fails loudly (nonzero job count in
//! [`LoadReport::failed`]) if any job errors.

use crate::client::Client;
use crate::job::JobSpec;
use crate::wire::SubmitStatus;
use hoploc_harness::{parallel_map, MachineSpec};
use hoploc_obs::{Floats, JsonWriter};
use hoploc_workloads::{RunKind, Scale, APP_NAMES};
use std::net::ToSocketAddrs;
use std::sync::Mutex;
use std::time::Instant;

/// Load-run shape.
#[derive(Clone, PartialEq, Debug)]
pub struct LoadConfig {
    /// Concurrent client connections.
    pub clients: usize,
    /// How many times each matrix cell is submitted (duplicates exercise
    /// coalescing and caching).
    pub repeat: usize,
    /// Problem size for every job.
    pub scale: Scale,
    /// Run kinds per app (default: baseline + optimized).
    pub kinds: Vec<RunKind>,
    /// Backpressure retry budget per submission.
    pub max_retries: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            clients: 4,
            repeat: 2,
            scale: Scale::Test,
            kinds: vec![RunKind::Baseline, RunKind::Optimized],
            max_retries: 10_000,
        }
    }
}

/// What a load run observed.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct LoadReport {
    /// Jobs accepted across all clients, whatever their result.
    pub submitted: u64,
    /// Jobs that returned a result.
    pub completed: u64,
    /// Jobs that returned an error, and jobs never accepted (retries spent,
    /// or no connection), which `submitted` does not count.
    pub failed: u64,
    /// Accepted submissions answered by in-flight coalescing.
    pub coalesced: u64,
    /// Accepted submissions answered from the result cache.
    pub cached: u64,
    /// Backpressure retries spent across all submissions.
    pub retries: u64,
    /// Wall-clock of the whole run in milliseconds.
    pub wall_ms: u64,
    /// Completed jobs per second.
    pub throughput: f64,
    /// Submit→result latency quantiles in milliseconds: p50, p95, p99,
    /// and max (exact order statistics, not estimates).
    pub latency_ms: LatencyQuantiles,
    /// The submit round trip alone (request line out, `submitted` reply
    /// back) in microseconds, over the submissions accepted at the first
    /// attempt — a retried one also slept out its backoff. This is
    /// admission: parse, validate, key, cache and coalescing lookups.
    pub submit_us: LatencyQuantiles,
    /// Client-side error messages (first few, for diagnostics).
    pub errors: Vec<String>,
}

/// Exact latency order statistics, in the unit of the field holding them.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct LatencyQuantiles {
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Slowest observed job.
    pub max: u64,
}

/// The submission list: apps × kinds × repeat, interleaved so duplicates
/// land close together (maximizing coalescing pressure) while distinct
/// jobs alternate (keeping the queue mixed).
pub fn job_matrix(cfg: &LoadConfig) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for app in APP_NAMES {
        for &kind in &cfg.kinds {
            for _ in 0..cfg.repeat.max(1) {
                jobs.push(JobSpec {
                    app: app.to_string(),
                    kind,
                    machine: MachineSpec::at(cfg.scale),
                    ..JobSpec::default()
                });
            }
        }
    }
    jobs
}

fn quantiles(latencies: &mut [u64]) -> LatencyQuantiles {
    if latencies.is_empty() {
        return LatencyQuantiles::default();
    }
    latencies.sort_unstable();
    let at = |q: f64| {
        let idx = ((latencies.len() as f64 - 1.0) * q).round() as usize;
        latencies[idx.min(latencies.len() - 1)]
    };
    LatencyQuantiles {
        p50: at(0.50),
        p95: at(0.95),
        p99: at(0.99),
        max: *latencies.last().expect("non-empty"),
    }
}

/// Runs the load: shards [`job_matrix`] round-robin across `cfg.clients`
/// connections, each submitting with backpressure retries and fetching
/// every result.
pub fn run_load<A: ToSocketAddrs>(addr: A, cfg: &LoadConfig) -> Result<LoadReport, String> {
    let addr = addr
        .to_socket_addrs()
        .map_err(|e| format!("bad address: {e}"))?
        .next()
        .ok_or("address resolved to nothing")?;
    let jobs = job_matrix(cfg);
    let clients = cfg.clients.max(1);
    let shards: Vec<Vec<JobSpec>> = (0..clients)
        .map(|c| jobs.iter().skip(c).step_by(clients).cloned().collect())
        .collect();
    // The report, every job's latency in ms, every first-attempt submit in µs.
    let shared = Mutex::new((LoadReport::default(), Vec::new(), Vec::new()));
    let started = Instant::now();
    parallel_map(&shards, clients, |shard| {
        let mut client = match Client::connect(addr) {
            Ok(c) => c,
            Err(e) => {
                let mut g = shared.lock().expect("load report poisoned");
                g.0.failed += shard.len() as u64;
                g.0.errors.push(format!("connect: {e}"));
                return;
            }
        };
        for spec in shard {
            let t0 = Instant::now();
            let accepted = client.submit_until_accepted(spec, cfg.max_retries);
            let submit_us = t0.elapsed().as_micros() as u64;
            let answered = (accepted.clone()).and_then(|(id, ..)| client.result(id).map(drop));
            let ms = t0.elapsed().as_millis() as u64;
            let mut g = shared.lock().expect("load report poisoned");
            // An accepted job counts as submitted, answered or not; one never
            // accepted counts as failed alone.
            if let Ok((_, status, retries)) = accepted {
                g.0.submitted += 1;
                g.0.retries += retries;
                match status {
                    SubmitStatus::Coalesced => g.0.coalesced += 1,
                    SubmitStatus::Cached => g.0.cached += 1,
                    SubmitStatus::Queued => {}
                }
                if retries == 0 {
                    g.2.push(submit_us);
                }
            }
            match answered {
                Ok(()) => {
                    g.0.completed += 1;
                    g.1.push(ms);
                }
                Err(e) => {
                    g.0.failed += 1;
                    if g.0.errors.len() < 8 {
                        g.0.errors.push(e);
                    }
                }
            }
        }
    });
    let (mut report, mut latencies, mut submits) = shared
        .into_inner()
        .map_err(|_| "load report poisoned".to_string())?;
    report.wall_ms = started.elapsed().as_millis() as u64;
    report.throughput = if report.wall_ms == 0 {
        report.completed as f64
    } else {
        report.completed as f64 * 1000.0 / report.wall_ms as f64
    };
    report.latency_ms = quantiles(&mut latencies);
    report.submit_us = quantiles(&mut submits);
    Ok(report)
}

/// Renders a report as the `hoploc load` text summary.
pub fn render_report(r: &LoadReport) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "jobs: {} completed, {} failed ({} coalesced, {} cached, {} backpressure retries)\n",
        r.completed, r.failed, r.coalesced, r.cached, r.retries
    ));
    s.push_str(&format!(
        "wall: {} ms, throughput: {:.1} jobs/s\n",
        r.wall_ms, r.throughput
    ));
    s.push_str(&format!(
        "latency (submit -> result): p50 {} ms, p95 {} ms, p99 {} ms, max {} ms\n",
        r.latency_ms.p50, r.latency_ms.p95, r.latency_ms.p99, r.latency_ms.max
    ));
    s.push_str(&format!(
        "submit round trip (accepted first time): p50 {} us, p99 {} us\n",
        r.submit_us.p50, r.submit_us.p99
    ));
    for e in &r.errors {
        s.push_str(&format!("error: {e}\n"));
    }
    s
}

/// Renders a report as a single JSON object (for `hoploc load --json`),
/// its throughput at three decimal places.
pub fn report_json(r: &LoadReport) -> String {
    let mut w = JsonWriter::spaced().floats(Floats::Fixed(3));
    (w.obj().field("submitted", r.submitted))
        .field("completed", r.completed)
        .field("failed", r.failed)
        .field("coalesced", r.coalesced)
        .field("cached", r.cached)
        .field("retries", r.retries)
        .field("wall_ms", r.wall_ms)
        .field("throughput", r.throughput)
        .field("p50_ms", r.latency_ms.p50)
        .field("p95_ms", r.latency_ms.p95)
        .field("p99_ms", r.latency_ms.p99)
        .field("max_ms", r.latency_ms.max)
        .field("submit_p50_us", r.submit_us.p50)
        .field("submit_p99_us", r.submit_us.p99)
        .end_obj();
    w.take() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_apps_kinds_and_repeats() {
        let cfg = LoadConfig {
            repeat: 3,
            ..LoadConfig::default()
        };
        let jobs = job_matrix(&cfg);
        let napps = APP_NAMES.len();
        assert_eq!(jobs.len(), napps * 2 * 3);
        let distinct: std::collections::HashSet<String> = jobs.iter().map(|j| j.canon()).collect();
        assert_eq!(distinct.len(), napps * 2, "repeats share canonical keys");
    }

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let mut xs: Vec<u64> = (1..=100).rev().collect();
        let q = quantiles(&mut xs);
        assert_eq!(q.p50, 51); // index round(99 * 0.5) = 50 -> value 51
        assert_eq!(q.p95, 95);
        assert_eq!(q.p99, 99);
        assert_eq!(q.max, 100);
        assert_eq!(quantiles(&mut []), LatencyQuantiles::default());
    }

    #[test]
    fn the_text_report_names_the_submit_round_trip() {
        // The JSON form is pinned byte for byte in tests/canon_golden.rs.
        let r = LoadReport {
            completed: 10,
            submit_us: LatencyQuantiles {
                p50: 19,
                p99: 240,
                ..LatencyQuantiles::default()
            },
            ..LoadReport::default()
        };
        assert!(render_report(&r).contains("p50 19 us, p99 240 us"));
    }
}
