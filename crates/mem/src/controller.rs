//! A memory controller with FR-FCFS scheduling over DRAM banks.
//!
//! The controller owns several banks, each with a row buffer. Requests wait
//! in per-bank queues; when a bank frees up, the *first-ready,
//! first-come-first-served* (FR-FCFS, Table 1) policy picks a queued
//! request whose row is already open, falling back to the oldest request.
//! The shared data channel serializes response bursts across banks.
//!
//! Because the surrounding simulator delivers requests in global arrival
//! order, scheduling is resolved incrementally: each [`enqueue`] finalizes
//! every service decision that starts strictly before the new arrival (a
//! later arrival can no longer change those), and [`flush`] drains the
//! rest. This realizes FR-FCFS exactly for the arrival-ordered streams the
//! simulator produces.
//!
//! [`enqueue`]: MemoryController::enqueue
//! [`flush`]: MemoryController::flush

use crate::timing::DramTiming;
use hoploc_obs::Sink;
use std::fmt;

/// Row-buffer management policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RowPolicy {
    /// Leave the accessed row open (FR-FCFS exploits subsequent hits).
    #[default]
    Open,
    /// Precharge after every access: every request pays the full
    /// activate+access cost, but row conflicts never stall. The classic
    /// alternative, exposed for the ablation harness.
    Closed,
}

/// Configuration of one memory controller.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct McConfig {
    /// Number of DRAM banks behind the controller. Table 1 lists 4 banks
    /// per device with 4 active row buffers per DIMM; 8 independent banks
    /// per controller reproduces the §6.2 balance where one controller
    /// satisfies a 16-core cluster's demand for most applications but is
    /// overrun by the row-miss-heavy fma3d and minighost.
    pub banks: usize,
    /// Row-buffer size in bytes (Table 1: 4 KB, same as the page size).
    pub row_bytes: u64,
    /// Independent data channels per controller; response bursts serialize
    /// per channel. §6.2 assumes "the number of channels per memory
    /// controller is sufficiently large" for M1 to perform well.
    pub channels: usize,
    /// Device timing.
    pub timing: DramTiming,
    /// Row-buffer management policy.
    pub row_policy: RowPolicy,
    /// When `true`, requests are served at a fixed row-hit latency with no
    /// bank contention — the *optimal scheme* of §2, which "does not incur
    /// any additional latency due to bank contention".
    pub ideal: bool,
}

impl Default for McConfig {
    fn default() -> Self {
        Self {
            banks: 8,
            row_bytes: 4096,
            channels: 2,
            timing: DramTiming::default(),
            row_policy: RowPolicy::default(),
            ideal: false,
        }
    }
}

/// A finished memory request, reported back to the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Completion {
    /// Caller-supplied identifier.
    pub token: u64,
    /// Cycle at which the response data leaves the controller (for a
    /// dropped request: when the final failed attempt released the bank).
    pub finish: u64,
    /// Cycles the request waited before service began. For retried
    /// requests this covers the wait since the last requeue only.
    pub queue_cycles: u64,
    /// Cycles of actual DRAM service (including the channel burst).
    pub service_cycles: u64,
    /// The request exhausted its retry budget and carries no data; the
    /// simulator delivers an error response instead of the line.
    pub dropped: bool,
}

/// A window of degraded service on one DRAM bank.
///
/// While `from <= cycle < until`, every service attempt that *starts* in
/// the window is stretched by `stall_cycles`, and — when `error_period > 0`
/// — fails transiently with deterministic rate `1/error_period`, decided by
/// hashing `(plan seed, token, attempt)`. Failed attempts re-enter the bank
/// queue under the controller's [`RetryPolicy`] until the retry cap drops
/// them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BankFault {
    /// Bank index within the controller.
    pub bank: u16,
    /// First cycle of the window (inclusive).
    pub from: u64,
    /// End of the window (exclusive).
    pub until: u64,
    /// Extra busy cycles charged to every attempt starting in the window.
    pub stall_cycles: u64,
    /// Mean attempts per transient error (`0` = never error, `1` = every
    /// attempt in the window errors).
    pub error_period: u64,
}

impl BankFault {
    /// Whether the window is active at `cycle`.
    pub fn active_at(&self, cycle: u64) -> bool {
        self.from <= cycle && cycle < self.until
    }
}

/// Bounded exponential backoff with a per-request retry cap.
///
/// Attempt `k` (0-based) that fails transiently re-arrives after
/// `min(base_backoff << k, max_backoff)` cycles; after `max_retries`
/// failed attempts the request is dropped (completion with
/// [`Completion::dropped`] set). The cap is what guarantees termination
/// under any fault plan.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetryPolicy {
    /// Backoff after the first failed attempt (clamped to ≥ 1 cycle).
    pub base_backoff: u64,
    /// Upper bound on any single backoff.
    pub max_backoff: u64,
    /// Failed attempts allowed before the request is dropped.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            base_backoff: 16,
            max_backoff: 4096,
            max_retries: 4,
        }
    }
}

impl RetryPolicy {
    /// Backoff after failed attempt `attempt` (0-based).
    pub fn backoff(&self, attempt: u32) -> u64 {
        let shift = attempt.min(20);
        self.base_backoff
            .max(1)
            .saturating_mul(1u64 << shift)
            .min(self.max_backoff.max(1))
    }
}

/// The fault inputs one controller receives from a compiled fault plan.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct McFaults {
    /// Plan seed; mixed with (token, attempt) to decide transient errors.
    pub seed: u64,
    /// Bank-fault windows on this controller's banks.
    pub banks: Vec<BankFault>,
    /// Retry/backoff policy for transient errors.
    pub retry: RetryPolicy,
}

/// Deterministic transient-error decision: splitmix64-style finalizer over
/// `(seed, token, attempt)`, failing one in `period` attempts on average.
fn transient_failure(seed: u64, token: u64, attempt: u32, period: u64) -> bool {
    if period == 0 {
        return false;
    }
    let mut z = seed
        ^ token.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ ((attempt as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z.is_multiple_of(period)
}

/// Aggregate controller statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct McStats {
    /// Requests served.
    pub served: u64,
    /// Requests that hit an open row.
    pub row_hits: u64,
    /// Sum of queue waiting cycles (the time-integral of queue length).
    pub total_queue_cycles: u64,
    /// Sum of service cycles.
    pub total_service_cycles: u64,
    /// Largest queue depth observed across banks.
    pub max_queue_depth: usize,
    /// Service attempts that failed transiently in a fault window
    /// (`transient_errors == retries + dropped`).
    pub transient_errors: u64,
    /// Failed attempts that re-entered a bank queue after backoff.
    pub retries: u64,
    /// Requests dropped after exhausting the retry cap (not counted in
    /// [`served`](Self::served)).
    pub dropped: u64,
    /// Extra bank-busy cycles charged by active stall windows.
    pub fault_stall_cycles: u64,
    /// Prefetch-class requests served. Kept out of [`served`](Self::served)
    /// and the queue/service totals so demand-side conservation
    /// (`served + dropped == off-chip demand`) and latency averages keep
    /// their meaning with prefetching enabled.
    pub pf_served: u64,
    /// Prefetch-class requests dropped on a transient error. Prefetches
    /// are speculative: they are never retried and never re-homed.
    pub pf_dropped: u64,
}

impl McStats {
    /// Mean queueing latency per request.
    pub fn avg_queue_latency(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.total_queue_cycles as f64 / self.served as f64
        }
    }

    /// Row-buffer hit rate.
    pub fn row_hit_rate(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.served as f64
        }
    }

    /// Average bank-queue occupancy over an execution of `elapsed` cycles
    /// (Figure 18's utilization metric): the time-integral of queue length
    /// divided by elapsed time.
    pub fn queue_occupancy(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.total_queue_cycles as f64 / elapsed as f64
        }
    }
}

#[derive(Clone, Debug)]
struct Pending {
    token: u64,
    row: u64,
    arrival: u64,
    seq: u64,
    /// Failed service attempts so far (0 until a transient error).
    attempt: u32,
    /// Speculative prefetch-class request: accounted separately, dropped
    /// (never retried) on a transient error; the sink sees its queue depth
    /// only.
    prefetch: bool,
}

#[derive(Clone, Debug)]
struct Bank {
    open_row: Option<u64>,
    free_at: u64,
    queue: Vec<Pending>,
    /// Smallest `arrival` in `queue` (stale while it is empty), kept up to
    /// date by [`Bank::push`] / [`Bank::take`] so the scheduler does not
    /// rescan every queue each time it asks when a bank could next start.
    earliest_arrival: u64,
}

impl Bank {
    fn push(&mut self, p: Pending) {
        self.earliest_arrival = if self.queue.is_empty() {
            p.arrival
        } else {
            self.earliest_arrival.min(p.arrival)
        };
        self.queue.push(p);
    }

    fn take(&mut self, i: usize) -> Pending {
        let p = self.queue.swap_remove(i);
        if p.arrival == self.earliest_arrival {
            let rest = self.queue.iter().map(|q| q.arrival).min();
            self.earliest_arrival = rest.unwrap_or(0);
        }
        p
    }

    /// The earliest cycle a queued request could begin service, if any is
    /// queued.
    fn next_start(&self) -> Option<u64> {
        (!self.queue.is_empty()).then(|| self.free_at.max(self.earliest_arrival))
    }
}

/// One memory controller.
///
/// # Examples
///
/// ```
/// use hoploc_mem::{McConfig, MemoryController};
///
/// let mut mc = MemoryController::new(McConfig::default());
/// let mut done = mc.enqueue(0x1000, 1, 100).to_vec();
/// done.extend(mc.flush());
/// assert_eq!(done.len(), 1);
/// assert!(done[0].finish > 100);
/// ```
#[derive(Clone, Debug)]
pub struct MemoryController {
    config: McConfig,
    banks: Vec<Bank>,
    /// Bit `b` is set exactly while `banks[b]` has queued requests: the
    /// scheduler visits those banks, in ascending order, and no others.
    busy: u64,
    channel_free_at: Vec<u64>,
    stats: McStats,
    seq: u64,
    /// The completions of the latest `enqueue` / `poll` / `flush`, which
    /// return it borrowed: one buffer for the controller's lifetime
    /// instead of a fresh `Vec` per call.
    done: Vec<Completion>,
    /// Injected bank faults; `None` keeps the scheduling path byte-identical
    /// to a fault-free controller.
    faults: Option<McFaults>,
}

impl MemoryController {
    /// Creates an idle controller.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero banks, more than 64 banks, or
    /// a zero row size.
    pub fn new(config: McConfig) -> Self {
        assert!(config.banks > 0, "controller must have at least one bank");
        assert!(config.banks <= 64, "controller supports up to 64 banks");
        assert!(config.row_bytes > 0, "row size must be positive");
        assert!(
            config.channels > 0,
            "controller must have at least one channel"
        );
        Self {
            config,
            banks: (0..config.banks)
                .map(|_| Bank {
                    open_row: None,
                    free_at: 0,
                    queue: Vec::new(),
                    earliest_arrival: 0,
                })
                .collect(),
            busy: 0,
            channel_free_at: vec![0; config.channels],
            stats: McStats::default(),
            seq: 0,
            done: Vec::new(),
            faults: None,
        }
    }

    /// Installs bank-fault windows and the retry policy. Empty bank-fault
    /// lists clear injection and restore the exact fault-free scheduling
    /// path. Panics on a bank index outside the controller (plans are
    /// validated upstream; this is a backstop).
    pub fn set_faults(&mut self, faults: McFaults) {
        if faults.banks.is_empty() {
            self.faults = None;
            return;
        }
        for f in &faults.banks {
            assert!(
                (f.bank as usize) < self.config.banks,
                "bank fault on {} but controller has {} banks",
                f.bank,
                self.config.banks
            );
        }
        self.faults = Some(faults);
    }

    /// Active stall cycles and transient-failure decision for an attempt on
    /// `bank` starting at `start`. Stalls from overlapping windows add up; a
    /// failure from any window fails the attempt.
    fn fault_at(&self, bank: usize, start: u64, token: u64, attempt: u32) -> (u64, bool) {
        let Some(f) = &self.faults else {
            return (0, false);
        };
        let mut stall = 0;
        let mut fail = false;
        for w in f.banks.iter().filter(|w| w.bank as usize == bank) {
            if w.active_at(start) {
                stall += w.stall_cycles;
                fail = fail || transient_failure(f.seed, token, attempt, w.error_period);
            }
        }
        (stall, fail)
    }

    /// The controller's configuration.
    pub fn config(&self) -> &McConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &McStats {
        &self.stats
    }

    /// Submits a request for physical address `addr` arriving at cycle
    /// `now`, returning any completions this arrival finalizes (borrowed
    /// from the controller until its next call).
    ///
    /// Requests must be submitted in non-decreasing `now` order; this is
    /// checked in debug builds.
    pub fn enqueue(&mut self, addr: u64, token: u64, now: u64) -> &[Completion] {
        self.enqueue_class_obs(addr, token, now, 0, false, &Sink::disabled())
    }

    /// [`enqueue`](Self::enqueue) with observability and an explicit
    /// request class: queue-depth samples and per-bank service spans are
    /// recorded into `sink`, attributed to controller `mc`. The untraced
    /// [`enqueue`](Self::enqueue) delegates here with a disabled sink, so
    /// traced and untraced runs share one scheduling path. The per-controller
    /// totals stay in [`stats`](Self::stats), which the simulator copies
    /// into the recording when the run ends.
    ///
    /// Prefetch-class requests share the banks, channels, and FR-FCFS
    /// scheduling (they contend with demand exactly as real traffic
    /// would), but are accounted in [`McStats::pf_served`] /
    /// [`McStats::pf_dropped`] instead of the demand totals, are dropped
    /// on the *first* transient error (speculative work is never worth a
    /// retry), and reach the sink only as queue depth.
    pub fn enqueue_class_obs(
        &mut self,
        addr: u64,
        token: u64,
        now: u64,
        mc: u16,
        prefetch: bool,
        sink: &Sink,
    ) -> &[Completion] {
        self.done.clear();
        if self.config.ideal {
            // Optimal scheme: fixed row-hit service, no queueing, no bank
            // or channel contention.
            let service = self.config.timing.row_hit_cycles + self.config.timing.burst_cycles;
            if prefetch {
                self.stats.pf_served += 1;
            } else {
                self.stats.served += 1;
                self.stats.row_hits += 1;
                self.stats.total_service_cycles += service;
                let row = addr / self.config.row_bytes;
                let bank = (row % self.config.banks as u64) as u16;
                sink.bank_service(mc, bank, token, now, now, now + service, true, 0);
            }
            // The ideal controller abstracts banks away entirely, so bank
            // faults don't apply to it (MC outages are handled above it, in
            // the simulator's re-homing).
            self.done.push(Completion {
                token,
                finish: now + service,
                queue_cycles: 0,
                service_cycles: service,
                dropped: false,
            });
            return &self.done;
        }
        // Finalize all service decisions that start before this arrival.
        self.drain_until(now, mc, sink);
        let row = addr / self.config.row_bytes;
        let bank = (row % self.config.banks as u64) as usize;
        self.banks[bank].push(Pending {
            token,
            row,
            arrival: now,
            seq: self.seq,
            attempt: 0,
            prefetch,
        });
        self.seq += 1;
        self.busy |= 1 << bank;
        let depth = self.banks[bank].queue.len();
        if depth > self.stats.max_queue_depth {
            self.stats.max_queue_depth = depth;
        }
        sink.mc_enqueue(mc, depth, now);
        // The new arrival itself may start service immediately.
        self.drain_until(now + 1, mc, sink);
        &self.done
    }

    /// Drains every remaining queued request, returning their completions.
    /// Call once no further arrivals are possible.
    pub fn flush(&mut self) -> &[Completion] {
        self.done.clear();
        self.drain_until(u64::MAX, 0, &Sink::disabled());
        &self.done
    }

    /// Advances scheduling up to (and including) cycle `now`, finalizing
    /// every service decision that starts at or before it. The simulator
    /// calls this from poll events so blocked requesters make progress even
    /// when no further arrivals occur.
    pub fn poll(&mut self, now: u64) -> &[Completion] {
        self.poll_obs(now, 0, &Sink::disabled())
    }

    /// [`poll`](Self::poll) with observability (see
    /// [`enqueue_class_obs`](Self::enqueue_class_obs)).
    pub fn poll_obs(&mut self, now: u64, mc: u16, sink: &Sink) -> &[Completion] {
        self.done.clear();
        self.drain_until(now.saturating_add(1), mc, sink);
        &self.done
    }

    /// The earliest cycle at which a queued request could begin service, or
    /// `None` when no requests are pending. The simulator schedules its
    /// next poll at this time.
    pub fn earliest_pending_start(&self) -> Option<u64> {
        banks_in(self.busy)
            .filter_map(|b| self.banks[b].next_start())
            .min()
    }

    /// Serves queued requests whose service would start strictly before
    /// `horizon`, appending their completions to `self.done`.
    ///
    /// Banks are drained one after another in ascending order — the order
    /// decides who wins a shared data channel — and a bank with nothing
    /// queued serves nothing, so only the busy ones are visited. A retry
    /// re-enters the bank being drained, never another.
    fn drain_until(&mut self, horizon: u64, mc: u16, sink: &Sink) {
        for b in banks_in(self.busy) {
            while let Some(start) = self.banks[b].next_start() {
                if start >= horizon {
                    break;
                }
                // FR-FCFS among requests already waiting at `start`:
                // row hits first, then oldest (by submission order).
                let candidates = self.banks[b]
                    .queue
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.arrival <= start);
                let open = self.banks[b].open_row;
                let pick = candidates
                    .min_by_key(|(_, p)| (if Some(p.row) == open { 0u8 } else { 1u8 }, p.seq))
                    .map(|(i, _)| i)
                    .expect(
                        "invariant: start >= the queue's minimum arrival, so at least \
                         the earliest-arriving request passes the arrival filter",
                    );
                let p = self.banks[b].take(pick);
                let hit = self.config.row_policy == RowPolicy::Open
                    && self.banks[b].open_row == Some(p.row);
                let core_service = if hit {
                    self.config.timing.row_hit_cycles
                } else {
                    self.config.timing.row_miss_cycles
                };
                // Fault windows active at the attempt's start stretch the
                // access and may fail it transiently.
                let (stall, fail) = self.fault_at(b, start, p.token, p.attempt);
                if stall > 0 && !p.prefetch {
                    self.stats.fault_stall_cycles += stall;
                    sink.bank_stall(mc, b as u16, p.token, start, stall);
                }
                // Bank busy for the (possibly stalled) access; a successful
                // response burst then serializes on the bank's data channel.
                let bank_done = start + core_service + stall;
                if fail {
                    // The failed attempt occupied the bank and activated the
                    // row, but no data moved: no channel burst, not served.
                    self.banks[b].free_at = bank_done;
                    self.banks[b].open_row = match self.config.row_policy {
                        RowPolicy::Open => Some(p.row),
                        RowPolicy::Closed => None,
                    };
                    if p.prefetch {
                        // Speculative: drop on first failure, no retry, no
                        // demand-side error accounting or sink record.
                        self.stats.pf_dropped += 1;
                        self.done.push(Completion {
                            token: p.token,
                            finish: bank_done,
                            queue_cycles: start - p.arrival,
                            service_cycles: bank_done - start,
                            dropped: true,
                        });
                        continue;
                    }
                    self.stats.transient_errors += 1;
                    let retry = self.faults.as_ref().map(|f| f.retry).unwrap_or_default();
                    if p.attempt >= retry.max_retries {
                        self.stats.dropped += 1;
                        sink.mc_drop(mc, p.token, bank_done);
                        self.done.push(Completion {
                            token: p.token,
                            finish: bank_done,
                            queue_cycles: start - p.arrival,
                            service_cycles: bank_done - start,
                            dropped: true,
                        });
                    } else {
                        let backoff = retry.backoff(p.attempt);
                        self.stats.retries += 1;
                        sink.mc_retry(mc, p.token, bank_done, backoff);
                        // Re-enter the queue as a fresh arrival after the
                        // backoff; a new seq makes it younger than every
                        // waiting request, so retries can't starve others.
                        self.banks[b].push(Pending {
                            token: p.token,
                            row: p.row,
                            arrival: bank_done + backoff,
                            seq: self.seq,
                            attempt: p.attempt + 1,
                            prefetch: false,
                        });
                        self.seq += 1;
                    }
                    continue;
                }
                let ch = b % self.config.channels;
                let burst_start = bank_done.max(self.channel_free_at[ch]);
                let finish = burst_start + self.config.timing.burst_cycles;
                self.channel_free_at[ch] = finish;
                self.banks[b].free_at = bank_done;
                self.banks[b].open_row = match self.config.row_policy {
                    RowPolicy::Open => Some(p.row),
                    RowPolicy::Closed => None,
                };
                let queue_cycles = start - p.arrival;
                let service_cycles = finish - start;
                if p.prefetch {
                    self.stats.pf_served += 1;
                } else {
                    self.stats.served += 1;
                    if hit {
                        self.stats.row_hits += 1;
                    }
                    self.stats.total_queue_cycles += queue_cycles;
                    self.stats.total_service_cycles += service_cycles;
                    sink.bank_service(
                        mc,
                        b as u16,
                        p.token,
                        p.arrival,
                        start,
                        finish,
                        hit,
                        self.banks[b].queue.len(),
                    );
                }
                self.done.push(Completion {
                    token: p.token,
                    finish,
                    queue_cycles,
                    service_cycles,
                    dropped: false,
                });
            }
            if self.banks[b].queue.is_empty() {
                self.busy &= !(1 << b);
            }
        }
    }
}

/// The set bits of `mask`, lowest first.
fn banks_in(mask: u64) -> impl Iterator<Item = usize> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        (rest != 0).then(|| {
            let b = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            b
        })
    })
}

impl fmt::Display for MemoryController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MC: {} served, {:.1}% row hits, avg queue {:.1}cy",
            self.stats.served,
            self.stats.row_hit_rate() * 100.0,
            self.stats.avg_queue_latency(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc() -> MemoryController {
        MemoryController::new(McConfig::default())
    }

    #[test]
    fn single_request_served_at_row_miss_cost() {
        let mut m = mc();
        let mut done = m.enqueue(0, 7, 100).to_vec();
        done.extend(m.flush());
        assert_eq!(done.len(), 1);
        let c = done[0];
        assert_eq!(c.token, 7);
        assert_eq!(c.queue_cycles, 0);
        let t = DramTiming::default();
        assert_eq!(c.finish, 100 + t.row_miss_cycles + t.burst_cycles);
    }

    #[test]
    fn second_access_to_same_row_hits() {
        let mut m = mc();
        let mut done = m.enqueue(64, 1, 0).to_vec();
        done.extend(m.enqueue(128, 2, 10_000)); // same 4KB row, long after
        done.extend(m.flush());
        assert_eq!(done.len(), 2);
        assert_eq!(m.stats().row_hits, 1);
    }

    #[test]
    fn queued_request_waits() {
        let mut m = mc();
        m.enqueue(0, 1, 0);
        m.enqueue(0, 2, 1); // same bank, same row, must wait for bank
        let done = m.flush();
        let c2 = done.iter().find(|c| c.token == 2).unwrap();
        assert!(c2.queue_cycles > 0, "second request must queue");
    }

    #[test]
    fn fr_fcfs_prefers_row_hit() {
        let mut m = mc();
        let row = 4096u64 * 16; // bank 0 (row 16 % 16 == 0)
        let other_row = 4096u64 * 32; // also bank 0 (row 32 % 16 == 0)
        m.enqueue(row, 1, 0); // opens `row`
                              // Both arrive while bank is busy: FCFS order is (2: other_row, 3: row).
        m.enqueue(other_row, 2, 1);
        m.enqueue(row, 3, 2);
        let done = m.flush();
        let f2 = done.iter().find(|c| c.token == 2).unwrap().finish;
        let f3 = done.iter().find(|c| c.token == 3).unwrap().finish;
        assert!(
            f3 < f2,
            "row-hit request must be served before older row-miss"
        );
    }

    #[test]
    fn different_banks_serve_in_parallel() {
        let mut m = mc();
        m.enqueue(0, 1, 0); // bank 0, channel 0
        m.enqueue(4096, 2, 0); // bank 1, channel 1
        let done = m.flush();
        let t = DramTiming::default();
        for c in done {
            // Neither waits for a bank; only channel serialization differs.
            assert!(c.queue_cycles == 0);
            assert!(c.finish <= t.row_miss_cycles + 2 * t.burst_cycles);
        }
    }

    #[test]
    fn channel_serializes_bursts() {
        let mut m = mc();
        // Banks 0 and 4 share data channel 0 (bank % channels).
        let mut done = m.enqueue(0, 1, 0).to_vec();
        done.extend(m.enqueue(4 * 4096, 2, 0));
        done.extend(m.flush());
        let mut finishes: Vec<u64> = done.iter().map(|c| c.finish).collect();
        finishes.sort_unstable();
        assert!(
            finishes[1] >= finishes[0] + DramTiming::default().burst_cycles,
            "bursts must not overlap on the channel"
        );
    }

    #[test]
    fn ideal_mode_is_flat_latency() {
        let mut m = MemoryController::new(McConfig {
            ideal: true,
            ..McConfig::default()
        });
        let t = DramTiming::default();
        for k in 0..100 {
            let done = m.enqueue(0, k, 50);
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].finish, 50 + t.row_hit_cycles + t.burst_cycles);
            assert_eq!(done[0].queue_cycles, 0);
        }
        assert!(m.flush().is_empty());
    }

    #[test]
    fn stats_accumulate() {
        let mut m = mc();
        for k in 0..10 {
            m.enqueue(k * 64, k, k);
        }
        m.flush();
        let s = m.stats();
        assert_eq!(s.served, 10);
        assert!(s.total_service_cycles > 0);
        assert!(
            s.row_hit_rate() > 0.0,
            "sequential lines in one row should hit"
        );
    }

    #[test]
    fn queue_occupancy_grows_with_load() {
        let light = {
            let mut m = mc();
            for k in 0..20 {
                m.enqueue(0, k, k * 10_000);
            }
            m.flush();
            m.stats().queue_occupancy(200_000)
        };
        let heavy = {
            let mut m = mc();
            for k in 0..20 {
                m.enqueue(0, k, k);
            }
            m.flush();
            m.stats().queue_occupancy(200_000)
        };
        assert!(heavy > light);
    }

    #[test]
    fn closed_row_policy_never_hits() {
        let mut m = MemoryController::new(McConfig {
            row_policy: RowPolicy::Closed,
            ..McConfig::default()
        });
        let mut done = m.enqueue(64, 1, 0).to_vec();
        done.extend(m.enqueue(128, 2, 10_000)); // same row, far apart
        done.extend(m.flush());
        assert_eq!(done.len(), 2);
        assert_eq!(m.stats().row_hits, 0, "closed-row policy must not hit");
    }

    #[test]
    fn enqueue_class_obs_mirrors_stats_into_sink() {
        use hoploc_obs::{ObsConfig, Topology};
        let topo = Topology {
            mesh_width: 1,
            mesh_height: 1,
            mcs: 2,
            banks_per_mc: 8,
        };
        let sink = Sink::recording(topo, ObsConfig::default());
        let mut m = mc();
        for k in 0..30 {
            m.enqueue_class_obs((k % 3) * 4096, k, k * 5, 1, false, &sink);
        }
        m.poll_obs(u64::MAX, 1, &sink);
        let rep = sink.into_report(10_000).unwrap();
        let s = m.stats();
        // Controller 1's per-bank slots sum to its totals, controller 0's
        // stay untouched, and every service lands in the histograms once.
        let bank_sum =
            |name, mc: usize| rep.counter_family(name)[mc * 8..][..8].iter().sum::<u64>();
        assert_eq!(bank_sum("mc.bank.served", 1), s.served);
        assert_eq!(bank_sum("mc.bank.queue_cycles", 1), s.total_queue_cycles);
        assert_eq!(bank_sum("mc.bank.busy_cycles", 1), s.total_service_cycles);
        assert_eq!(bank_sum("mc.bank.served", 0), 0);
        let reg = rep.registry();
        let hist = |name| reg.histogram(name).unwrap().count();
        assert_eq!(hist("mc.queue_wait_cycles"), s.served);
        assert_eq!(hist("mc.service_cycles"), s.served);
        let window = |name| reg.series_by_name(name).unwrap().vals.iter().sum::<u64>();
        assert_eq!(window("win.row_hits"), s.row_hits);
        assert_eq!(window("win.row_hits") + window("win.row_misses"), s.served);
        // The copied families stay zero: the simulator fills them.
        assert_eq!(rep.counter_family("mc.served"), &[0, 0]);
    }

    #[test]
    fn ideal_mode_records_flat_services() {
        use hoploc_obs::{ObsConfig, Topology};
        let topo = Topology {
            mesh_width: 1,
            mesh_height: 1,
            mcs: 1,
            banks_per_mc: 8,
        };
        let sink = Sink::recording(topo, ObsConfig::default());
        let mut m = MemoryController::new(McConfig {
            ideal: true,
            ..McConfig::default()
        });
        m.enqueue_class_obs(0, 1, 10, 0, false, &sink);
        let rep = sink.into_report(100).unwrap();
        assert_eq!(rep.counter_family("mc.bank.served")[0], 1);
        assert_eq!(rep.counter_family("mc.bank.queue_cycles")[0], 0);
        let hits = rep.registry().series_by_name("win.row_hits").unwrap();
        assert_eq!(hits.vals, vec![1]);
        let h = rep.registry().histogram("mc.queue_wait_cycles").unwrap();
        assert_eq!(h.quantile(1.0), 0, "ideal mode never queues");
    }

    fn always_faulty(period: u64, retry: RetryPolicy) -> McFaults {
        McFaults {
            seed: 42,
            banks: (0..8)
                .map(|b| BankFault {
                    bank: b,
                    from: 0,
                    until: u64::MAX,
                    stall_cycles: 0,
                    error_period: period,
                })
                .collect(),
            retry,
        }
    }

    #[test]
    fn stall_window_stretches_service() {
        let mut m = mc();
        m.set_faults(McFaults {
            seed: 1,
            banks: vec![BankFault {
                bank: 0,
                from: 0,
                until: u64::MAX,
                stall_cycles: 100,
                error_period: 0,
            }],
            retry: RetryPolicy::default(),
        });
        let mut done = m.enqueue(0, 1, 0).to_vec();
        done.extend(m.flush());
        let t = DramTiming::default();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].finish, t.row_miss_cycles + 100 + t.burst_cycles);
        assert!(!done[0].dropped);
        assert_eq!(m.stats().fault_stall_cycles, 100);
        assert_eq!(m.stats().transient_errors, 0);
    }

    #[test]
    fn transient_error_retries_then_succeeds_outside_window() {
        let mut m = mc();
        // Only cycle 0 is in the window; error_period 1 fails the first
        // attempt, and the backoff re-arrival lands outside it.
        m.set_faults(McFaults {
            seed: 9,
            banks: vec![BankFault {
                bank: 0,
                from: 0,
                until: 1,
                stall_cycles: 0,
                error_period: 1,
            }],
            retry: RetryPolicy::default(),
        });
        let mut done = m.enqueue(0, 5, 0).to_vec();
        done.extend(m.flush());
        assert_eq!(done.len(), 1);
        assert!(!done[0].dropped);
        let s = m.stats();
        assert_eq!((s.served, s.retries, s.dropped), (1, 1, 0));
        let t = DramTiming::default();
        assert!(
            done[0].finish > t.row_miss_cycles + t.burst_cycles,
            "the retry must cost time"
        );
    }

    #[test]
    fn retry_cap_drops_the_request() {
        let mut m = mc();
        let retry = RetryPolicy {
            base_backoff: 4,
            max_backoff: 16,
            max_retries: 3,
        };
        m.set_faults(always_faulty(1, retry));
        let mut done = m.enqueue(0, 5, 0).to_vec();
        done.extend(m.flush());
        assert_eq!(
            done.len(),
            1,
            "a dropped request still completes exactly once"
        );
        assert!(done[0].dropped);
        let s = m.stats();
        assert_eq!(s.served, 0);
        assert_eq!(s.retries, 3);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.transient_errors, s.retries + s.dropped);
    }

    #[test]
    fn conservation_and_determinism_under_heavy_faults() {
        let run = || {
            let mut m = mc();
            m.set_faults(always_faulty(3, RetryPolicy::default()));
            let mut done: Vec<Completion> = Vec::new();
            for k in 0..200u64 {
                done.extend(m.enqueue((k % 16) * 4096, k, k * 7));
            }
            done.extend(m.flush());
            (done, *m.stats())
        };
        let (done, stats) = run();
        // Every token completes exactly once, served or dropped.
        let mut tokens: Vec<u64> = done.iter().map(|c| c.token).collect();
        tokens.sort_unstable();
        tokens.dedup();
        assert_eq!(tokens.len(), 200, "no lost or duplicated tokens");
        assert_eq!(stats.served + stats.dropped, 200);
        assert_eq!(stats.transient_errors, stats.retries + stats.dropped);
        // Same plan, same arrivals: bit-identical outcome.
        let (done2, stats2) = run();
        assert_eq!(done, done2);
        assert_eq!(stats, stats2);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let r = RetryPolicy {
            base_backoff: 16,
            max_backoff: 100,
            max_retries: 10,
        };
        assert_eq!(r.backoff(0), 16);
        assert_eq!(r.backoff(1), 32);
        assert_eq!(r.backoff(2), 64);
        assert_eq!(r.backoff(3), 100, "capped at max_backoff");
        assert_eq!(r.backoff(63), 100, "huge attempts don't overflow");
        let zero = RetryPolicy {
            base_backoff: 0,
            max_backoff: 0,
            max_retries: 1,
        };
        assert_eq!(zero.backoff(0), 1, "backoff is clamped to at least 1");
    }

    #[test]
    fn empty_faults_are_inert() {
        let drive = |m: &mut MemoryController| {
            let mut done: Vec<Completion> = Vec::new();
            for k in 0..50u64 {
                done.extend(m.enqueue((k % 5) * 64, k, k * 11));
            }
            done.extend(m.flush());
            done
        };
        let mut clean = mc();
        let mut cleared = mc();
        cleared.set_faults(McFaults::default());
        assert_eq!(drive(&mut clean), drive(&mut cleared));
        assert_eq!(clean.stats(), cleared.stats());
        assert_eq!(clean.stats().transient_errors, 0);
    }

    #[test]
    #[should_panic(expected = "banks")]
    fn out_of_range_bank_fault_panics() {
        mc().set_faults(McFaults {
            seed: 0,
            banks: vec![BankFault {
                bank: 8, // one past the last bank of the default config
                from: 0,
                until: 1,
                stall_cycles: 1,
                error_period: 0,
            }],
            retry: RetryPolicy::default(),
        });
    }

    #[test]
    #[should_panic(expected = "64 banks")]
    fn more_banks_than_the_busy_mask_holds_panics() {
        MemoryController::new(McConfig {
            banks: 65,
            ..McConfig::default()
        });
    }

    #[test]
    fn prefetch_class_is_accounted_separately() {
        let sink = Sink::disabled();
        let mut m = mc();
        let mut done = m.enqueue_class_obs(0, 1, 0, 0, true, &sink).to_vec();
        done.extend(m.enqueue_class_obs(4096, 2, 0, 0, false, &sink));
        done.extend(m.flush());
        assert_eq!(done.len(), 2);
        let s = m.stats();
        assert_eq!(s.pf_served, 1);
        assert_eq!(s.served, 1, "demand totals must exclude prefetches");
        // The prefetch's queue/service time never enters the demand
        // latency averages.
        let pf = done.iter().find(|c| c.token == 1).unwrap();
        assert!(pf.service_cycles > 0);
        assert_eq!(
            s.total_service_cycles,
            done.iter().find(|c| c.token == 2).unwrap().service_cycles
        );
    }

    #[test]
    fn prefetch_contends_with_demand_for_the_bank() {
        let sink = Sink::disabled();
        let mut clean = mc();
        let mut clean_done = clean.enqueue(16 * 4096, 1, 5).to_vec();
        clean_done.extend(clean.flush());
        let lone = clean_done[0].finish;
        let mut m = mc();
        // A prefetch arrives first and occupies bank 0; the demand behind
        // it (same bank, different row) must wait — prefetches share the
        // physical pipe.
        m.enqueue_class_obs(0, 9, 0, 0, true, &sink);
        let mut done = m
            .enqueue_class_obs(16 * 4096, 1, 5, 0, false, &sink)
            .to_vec();
        done.extend(m.flush());
        let demand = done.iter().find(|c| c.token == 1).unwrap();
        assert!(
            demand.finish > lone,
            "demand behind a prefetch must be delayed ({} !> {lone})",
            demand.finish
        );
        assert!(demand.queue_cycles > 0);
    }

    #[test]
    fn prefetch_transient_error_drops_without_retry() {
        let sink = Sink::disabled();
        let mut m = mc();
        m.set_faults(always_faulty(1, RetryPolicy::default()));
        let mut done = m.enqueue_class_obs(0, 3, 0, 0, true, &sink).to_vec();
        done.extend(m.flush());
        assert_eq!(done.len(), 1);
        assert!(done[0].dropped, "first failure must drop the prefetch");
        let s = m.stats();
        assert_eq!(s.pf_dropped, 1);
        assert_eq!(s.retries, 0, "prefetches are never retried");
        assert_eq!(s.dropped, 0, "demand drop counter must stay clean");
        assert_eq!(s.transient_errors, 0);
    }

    #[test]
    fn ideal_mode_keeps_prefetch_out_of_demand_stats() {
        let sink = Sink::disabled();
        let mut m = MemoryController::new(McConfig {
            ideal: true,
            ..McConfig::default()
        });
        let done = m.enqueue_class_obs(0, 1, 10, 0, true, &sink);
        assert_eq!(done.len(), 1);
        assert!(!done[0].dropped);
        assert_eq!(m.stats().pf_served, 1);
        assert_eq!(m.stats().served, 0);
        assert_eq!(m.stats().total_service_cycles, 0);
    }

    #[test]
    fn demand_only_streams_ignore_the_class_flag() {
        // enqueue() delegates through the class path with prefetch=false:
        // the pf counters stay zero and everything else is unchanged.
        let mut m = mc();
        for k in 0..20 {
            m.enqueue((k % 4) * 4096, k, k * 3);
        }
        m.flush();
        assert_eq!(m.stats().pf_served, 0);
        assert_eq!(m.stats().pf_dropped, 0);
        assert_eq!(m.stats().served, 20);
    }

    #[test]
    fn completions_eventually_all_returned() {
        let mut m = mc();
        let mut got = 0;
        for k in 0..50 {
            got += m.enqueue((k % 8) * 4096, k, k * 3).len();
        }
        got += m.flush().len();
        assert_eq!(got, 50);
    }
}
