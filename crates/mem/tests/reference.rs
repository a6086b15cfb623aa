//! `MemoryController` against a reference FR-FCFS controller that visits
//! every bank on every call: the scan the controller ran before it kept
//! a mask of the banks holding requests, kept here verbatim as the
//! oracle. Seeded streams mix demand and prefetch requests, stall,
//! transient-error, retry and drop faults, both row policies, ideal mode
//! and several bank/channel counts; after every call the completions,
//! the statistics and the next poll time must be equal.

use hoploc_mem::{
    BankFault, Completion, McConfig, McFaults, McStats, MemoryController, RetryPolicy, RowPolicy,
};
use hoploc_obs::Sink;
use hoploc_ptest::{run_cases, SmallRng};

struct RefPending {
    token: u64,
    row: u64,
    arrival: u64,
    seq: u64,
    attempt: u32,
    prefetch: bool,
}

struct RefBank {
    open_row: Option<u64>,
    free_at: u64,
    queue: Vec<RefPending>,
}

impl RefBank {
    fn next_start(&self) -> Option<u64> {
        let earliest = self.queue.iter().map(|p| p.arrival).min()?;
        Some(self.free_at.max(earliest))
    }
}

struct RefController {
    config: McConfig,
    banks: Vec<RefBank>,
    channel_free_at: Vec<u64>,
    stats: McStats,
    seq: u64,
    faults: Option<McFaults>,
}

/// The controller's transient-error hash, copied.
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

impl RefController {
    fn new(config: McConfig, faults: McFaults) -> Self {
        Self {
            config,
            banks: (0..config.banks)
                .map(|_| RefBank {
                    open_row: None,
                    free_at: 0,
                    queue: Vec::new(),
                })
                .collect(),
            channel_free_at: vec![0; config.channels],
            stats: McStats::default(),
            seq: 0,
            faults: (!faults.banks.is_empty()).then_some(faults),
        }
    }

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

    fn enqueue(&mut self, addr: u64, token: u64, now: u64, prefetch: bool) -> Vec<Completion> {
        let mut done = Vec::new();
        if self.config.ideal {
            let service = self.config.timing.row_hit_cycles + self.config.timing.burst_cycles;
            if prefetch {
                self.stats.pf_served += 1;
            } else {
                self.stats.served += 1;
                self.stats.row_hits += 1;
                self.stats.total_service_cycles += service;
            }
            done.push(Completion {
                token,
                finish: now + service,
                queue_cycles: 0,
                service_cycles: service,
                dropped: false,
            });
            return done;
        }
        self.drain_until(now, &mut done);
        let row = addr / self.config.row_bytes;
        let bank = (row % self.config.banks as u64) as usize;
        self.banks[bank].queue.push(RefPending {
            token,
            row,
            arrival: now,
            seq: self.seq,
            attempt: 0,
            prefetch,
        });
        self.seq += 1;
        let depth = self.banks[bank].queue.len();
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(depth);
        self.drain_until(now + 1, &mut done);
        done
    }

    fn poll(&mut self, now: u64) -> Vec<Completion> {
        let mut done = Vec::new();
        self.drain_until(now.saturating_add(1), &mut done);
        done
    }

    fn flush(&mut self) -> Vec<Completion> {
        let mut done = Vec::new();
        self.drain_until(u64::MAX, &mut done);
        done
    }

    fn earliest_pending_start(&self) -> Option<u64> {
        self.banks.iter().filter_map(RefBank::next_start).min()
    }

    /// Every bank, every call, in index order; each bank drained before
    /// the next is looked at.
    fn drain_until(&mut self, horizon: u64, done: &mut Vec<Completion>) {
        for b in 0..self.banks.len() {
            while let Some(start) = self.banks[b].next_start() {
                if start >= horizon {
                    break;
                }
                let open = self.banks[b].open_row;
                let pick = self.banks[b]
                    .queue
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.arrival <= start)
                    .min_by_key(|(_, p)| (if Some(p.row) == open { 0u8 } else { 1u8 }, p.seq))
                    .map(|(i, _)| i)
                    .expect("some request has arrived by its bank's start");
                let p = self.banks[b].queue.swap_remove(pick);
                let hit = self.config.row_policy == RowPolicy::Open && open == Some(p.row);
                let core_service = if hit {
                    self.config.timing.row_hit_cycles
                } else {
                    self.config.timing.row_miss_cycles
                };
                let (stall, fail) = self.fault_at(b, start, p.token, p.attempt);
                if stall > 0 && !p.prefetch {
                    self.stats.fault_stall_cycles += stall;
                }
                let bank_done = start + core_service + stall;
                self.banks[b].free_at = bank_done;
                self.banks[b].open_row = match self.config.row_policy {
                    RowPolicy::Open => Some(p.row),
                    RowPolicy::Closed => None,
                };
                if fail {
                    let dropped = Completion {
                        token: p.token,
                        finish: bank_done,
                        queue_cycles: start - p.arrival,
                        service_cycles: bank_done - start,
                        dropped: true,
                    };
                    if p.prefetch {
                        self.stats.pf_dropped += 1;
                        done.push(dropped);
                        continue;
                    }
                    self.stats.transient_errors += 1;
                    let retry = self.faults.as_ref().map(|f| f.retry).unwrap_or_default();
                    if p.attempt >= retry.max_retries {
                        self.stats.dropped += 1;
                        done.push(dropped);
                    } else {
                        self.stats.retries += 1;
                        self.banks[b].queue.push(RefPending {
                            token: p.token,
                            row: p.row,
                            arrival: bank_done + retry.backoff(p.attempt),
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
                let queue_cycles = start - p.arrival;
                let service_cycles = finish - start;
                if p.prefetch {
                    self.stats.pf_served += 1;
                } else {
                    self.stats.served += 1;
                    self.stats.row_hits += hit as u64;
                    self.stats.total_queue_cycles += queue_cycles;
                    self.stats.total_service_cycles += service_cycles;
                }
                done.push(Completion {
                    token: p.token,
                    finish,
                    queue_cycles,
                    service_cycles,
                    dropped: false,
                });
            }
        }
    }
}

/// Windows over a third of the banks: stalls, transient errors, both.
fn faults(rng: &mut SmallRng, banks: usize) -> McFaults {
    let windows = (0..banks.div_ceil(3))
        .map(|_| {
            let from = rng.u64_below(20_000);
            BankFault {
                bank: rng.usize_in(0..banks) as u16,
                from,
                until: from + rng.u64_in(1..8_000),
                stall_cycles: if rng.flip() { rng.u64_in(1..200) } else { 0 },
                error_period: if rng.flip() { rng.u64_in(1..4) } else { 0 },
            }
        })
        .collect();
    McFaults {
        seed: rng.next_u64(),
        banks: windows,
        retry: RetryPolicy {
            base_backoff: rng.u64_in(0..40),
            max_backoff: rng.u64_in(1..500),
            max_retries: rng.u32_in(0..5),
        },
    }
}

/// One stream: enqueues (some of them prefetches) at non-decreasing
/// times, polls at the requested next-poll time or a little after the
/// clock, then a flush, comparing the two controllers after every call.
fn differential(rng: &mut SmallRng, config: McConfig, faults: McFaults) -> McStats {
    let mut mc = MemoryController::new(config);
    mc.set_faults(faults.clone());
    let mut reference = RefController::new(config, faults);
    // A few hot rows per bank so requests both hit open rows and conflict.
    let rows = rng.u64_in(1..4) * config.banks as u64;
    let mut now = 0u64;
    let steps = rng.usize_in(1..400);
    for step in 0..steps {
        let (got, want, call) = match rng.u64_below(4) {
            0 => {
                let poll = match mc.earliest_pending_start() {
                    Some(t) if t >= now && rng.flip() => t,
                    _ => now + rng.u64_below(100),
                };
                now = poll;
                (mc.poll(poll).to_vec(), reference.poll(poll), "poll")
            }
            _ => {
                let burst = rng.flip();
                now += rng.u64_below(if burst { 10 } else { 120 });
                let addr = rng.u64_below(rows) * config.row_bytes + rng.u64_below(64) * 64;
                let prefetch = rng.u64_below(5) == 0;
                let got = mc
                    .enqueue_class_obs(addr, step as u64, now, 0, prefetch, &Sink::disabled())
                    .to_vec();
                (
                    got,
                    reference.enqueue(addr, step as u64, now, prefetch),
                    "enqueue",
                )
            }
        };
        assert_eq!(got, want, "{call} #{step} at {now} under {config:?}");
        assert_eq!(mc.stats(), &reference.stats, "{call} #{step} at {now}");
        assert_eq!(
            mc.earliest_pending_start(),
            reference.earliest_pending_start(),
            "{call} #{step} at {now}"
        );
    }
    assert_eq!(mc.flush(), reference.flush().as_slice(), "flush");
    assert_eq!(mc.stats(), &reference.stats, "flush");
    assert_eq!(mc.earliest_pending_start(), None);
    *mc.stats()
}

fn config(rng: &mut SmallRng) -> McConfig {
    McConfig {
        banks: [1, 3, 8, 8, 16, 64][rng.usize_in(0..6)],
        channels: rng.usize_in(1..4),
        row_policy: if rng.u64_below(3) == 0 {
            RowPolicy::Closed
        } else {
            RowPolicy::Open
        },
        ..McConfig::default()
    }
}

#[test]
fn fault_free_streams_match_the_reference() {
    run_cases("fault_free_streams_match_the_reference", 96, |rng| {
        let config = config(rng);
        differential(rng, config, McFaults::default());
    });
}

#[test]
fn faulted_streams_match_the_reference() {
    let mut totals = McStats::default();
    run_cases("faulted_streams_match_the_reference", 192, |rng| {
        let config = config(rng);
        let faults = faults(rng, config.banks);
        let s = differential(rng, config, faults);
        totals.retries += s.retries;
        totals.dropped += s.dropped;
        totals.pf_dropped += s.pf_dropped;
        totals.fault_stall_cycles += s.fault_stall_cycles;
    });
    // The streams reach every fault branch, not only the clean path.
    assert!(totals.retries > 0 && totals.dropped > 0 && totals.pf_dropped > 0);
    assert!(totals.fault_stall_cycles > 0);
}

#[test]
fn ideal_streams_match_the_reference() {
    run_cases("ideal_streams_match_the_reference", 32, |rng| {
        let config = McConfig {
            ideal: true,
            ..config(rng)
        };
        let faults = faults(rng, config.banks);
        differential(rng, config, faults);
    });
}
