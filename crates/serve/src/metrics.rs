//! Server-side metrics: counter, gauge, and histogram families in a
//! [`hoploc_obs::Registry`], snapshotted with the same byte-stable JSON
//! serialization the simulator's metrics snapshots use.
//!
//! Unlike simulation metrics these are wall-clock flavored (queue wait and
//! job wall time in milliseconds) — the registry is the shared vocabulary,
//! not the cycle-stamped semantics.

use hoploc_obs::registry::{CounterId, GaugeId, HistId};
use hoploc_obs::Registry;
use std::sync::Mutex;

/// Counter slots in the `serve.jobs` family.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ctr {
    /// Submissions received (accepted or not).
    Submitted,
    /// Submissions admitted to the queue.
    Accepted,
    /// Submissions rejected because the queue was at capacity.
    RejectedFull,
    /// Submissions rejected because the server was draining.
    RejectedDraining,
    /// Submissions rejected as malformed or invalid.
    RejectedInvalid,
    /// Submissions merged with an identical in-flight job.
    Coalesced,
    /// Submissions answered straight from the result cache.
    CacheHits,
    /// Results evicted from the cache to stay within capacity.
    CacheEvictions,
    /// Simulations actually executed by a worker.
    Executed,
    /// Jobs that ended in a structured error.
    Failed,
    /// Jobs that hit their wall-clock timeout.
    Timeouts,
    /// Request lines handled (any op).
    Requests,
    /// Request lines that failed to parse.
    ProtocolErrors,
    /// Jobs that received a terminal answer (done or error).
    Answered,
}

/// All counters, in wire/snapshot order.
pub const ALL_CTRS: [Ctr; 14] = [
    Ctr::Submitted,
    Ctr::Accepted,
    Ctr::RejectedFull,
    Ctr::RejectedDraining,
    Ctr::RejectedInvalid,
    Ctr::Coalesced,
    Ctr::CacheHits,
    Ctr::CacheEvictions,
    Ctr::Executed,
    Ctr::Failed,
    Ctr::Timeouts,
    Ctr::Requests,
    Ctr::ProtocolErrors,
    Ctr::Answered,
];

struct Inner {
    reg: Registry,
    ctrs: CounterId,
    queue_depth: GaugeId,
    active_jobs: GaugeId,
    job_wall_ms: HistId,
    queue_wait_ms: HistId,
}

/// Thread-safe server metrics. Cheap to update from workers and
/// connection handlers; snapshots serialize the whole registry.
pub struct ServeMetrics {
    inner: Mutex<Inner>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// A fresh registry with every family registered at zero.
    pub fn new() -> Self {
        let mut reg = Registry::new();
        let ctrs = reg.counter("serve.jobs", ALL_CTRS.len());
        let queue_depth = reg.gauge("serve.queue_depth", 1);
        let active_jobs = reg.gauge("serve.active_jobs", 1);
        let job_wall_ms = reg.hist("serve.job_wall_ms");
        let queue_wait_ms = reg.hist("serve.queue_wait_ms");
        ServeMetrics {
            inner: Mutex::new(Inner {
                reg,
                ctrs,
                queue_depth,
                active_jobs,
                job_wall_ms,
                queue_wait_ms,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("serve metrics poisoned")
    }

    /// Bumps one counter by `n`.
    pub fn inc(&self, c: Ctr, n: u64) {
        let mut g = self.lock();
        let id = g.ctrs;
        g.reg.inc(id, c as usize, n);
    }

    /// Reads one counter.
    pub fn get(&self, c: Ctr) -> u64 {
        let g = self.lock();
        g.reg
            .counter_family("serve.jobs")
            .map_or(0, |f| f[c as usize])
    }

    /// Publishes the current queue depth and in-flight job count.
    pub fn set_load(&self, queue_depth: usize, active_jobs: usize) {
        let mut g = self.lock();
        let (qd, aj) = (g.queue_depth, g.active_jobs);
        g.reg.set_gauge(qd, 0, queue_depth as i64);
        g.reg.set_gauge(aj, 0, active_jobs as i64);
    }

    /// Records one executed job's wall time in milliseconds.
    pub fn observe_job_wall_ms(&self, ms: u64) {
        let mut g = self.lock();
        let id = g.job_wall_ms;
        g.reg.observe(id, ms);
    }

    /// Records how long a job waited in the queue before a worker picked
    /// it up, in milliseconds.
    pub fn observe_queue_wait_ms(&self, ms: u64) {
        let mut g = self.lock();
        let id = g.queue_wait_ms;
        g.reg.observe(id, ms);
    }

    /// Multi-line pretty snapshot (file form, ends with a newline).
    pub fn snapshot_json(&self) -> String {
        self.lock().reg.snapshot_json()
    }

    /// Single-line snapshot for the wire: the same object with compact
    /// separators and no line breaks.
    pub fn snapshot_line(&self) -> String {
        self.lock().reg.snapshot_line()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoploc_obs::parse_json;

    #[test]
    fn counters_land_in_named_slots() {
        let m = ServeMetrics::new();
        m.inc(Ctr::Submitted, 3);
        m.inc(Ctr::Coalesced, 1);
        assert_eq!(m.get(Ctr::Submitted), 3);
        assert_eq!(m.get(Ctr::Coalesced), 1);
        assert_eq!(m.get(Ctr::Executed), 0);
    }

    #[test]
    fn snapshot_is_valid_json_with_families() {
        let m = ServeMetrics::new();
        m.inc(Ctr::Executed, 2);
        m.set_load(5, 3);
        m.observe_job_wall_ms(12);
        let v = parse_json(&m.snapshot_json()).expect("snapshot parses");
        assert_eq!(
            m.snapshot_line(),
            m.snapshot_json().replace([' ', '\n'], "")
        );
        let jobs = v
            .get("counters")
            .and_then(|c| c.get("serve.jobs"))
            .and_then(|f| f.as_array())
            .expect("serve.jobs family");
        assert_eq!(jobs.len(), ALL_CTRS.len());
        assert_eq!(jobs[Ctr::Executed as usize].as_u64(), Some(2));
        let qd = v
            .get("gauges")
            .and_then(|g| g.get("serve.queue_depth"))
            .and_then(|f| f.index(0))
            .and_then(|x| x.as_u64());
        assert_eq!(qd, Some(5));
        assert!(v
            .get("histograms")
            .and_then(|h| h.get("serve.job_wall_ms"))
            .is_some());
    }
}
