//! The simulator's event queue: a calendar of per-cycle FIFO buckets.
//!
//! The event loop needs exactly one order — ascending `(time, seq)`, where
//! `seq` counts pushes — and nearly every event is due within a few hundred
//! cycles of the one being handled. So instead of a binary heap (a
//! `log n` sift per push and per pop, twice per simulated access) the
//! queue keeps a ring of [`RING`] buckets, one per cycle from the clock
//! onwards, each a FIFO list: a push appends, a pop takes the head of the
//! clock's bucket, and an occupancy bitmap finds the next cycle that has
//! work. Appending in push order *is* `seq` order, so no `seq` is stored.
//!
//! Two kinds of event do not fit the ring, and both go to a small binary
//! heap of `(time, seq, node)`:
//!
//! * events at least [`RING`] cycles ahead — mostly the completions of
//!   DRAM requests that queued behind others, and the slow miss returns
//!   that wait on them. They move into their bucket the moment the clock
//!   advances far enough to cover them — before the pop that advanced it
//!   returns, hence before any handler can push straight into that
//!   bucket. Everything already in the heap was pushed earlier (smaller
//!   `seq`) than anything pushed later, so buckets stay in `seq` order.
//! * events *earlier* than the clock. The simulator does schedule into the
//!   past of the event it is handling (a controller's next poll is due in
//!   controller-local time). All of them precede every ring event, so `pop`
//!   serves the heap first while its top is behind the clock.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cycles the ring covers, starting at the clock: long enough that a
/// queued DRAM request's completion rarely leaves it. Events pushed past
/// the ring per `sweep-miss` rep (7.48 M pushes, seed 1) at 512 / 1024 /
/// 2048 / 4096 cycles: 1.353 M / 1.007 M / 284 k / 41 k; `sweep-hit` 664 k
/// / 420 k / 14.5 k / 0. Of the three larger sizes, 2048 read fastest.
const RING: usize = 2048;
const WORDS: usize = RING / 64;
const NIL: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Node<T> {
    item: T,
    next: u32,
}

/// A priority queue popping in ascending `(time, push order)`.
pub(crate) struct EventQueue<T> {
    /// The cycle whose bucket is being drained; no ring event is earlier.
    clock: u64,
    /// First and last node of each cycle's list (`NIL` when empty), indexed
    /// by `time % RING`.
    heads: [u32; RING],
    tails: [u32; RING],
    /// Bit `b` set iff bucket `b` is non-empty.
    occupied: [u64; WORDS],
    /// Every queued event's payload; vacant nodes are chained through
    /// `free`, so the slab grows to the most events ever queued at once.
    nodes: Vec<Node<T>>,
    free: u32,
    /// `(time, seq, node)` of the events outside `clock .. clock + RING`.
    far: BinaryHeap<Reverse<(u64, u64, u32)>>,
    seq: u64,
}

impl<T: Copy> EventQueue<T> {
    pub(crate) fn new() -> Self {
        Self {
            clock: 0,
            heads: [NIL; RING],
            tails: [NIL; RING],
            occupied: [0; WORDS],
            nodes: Vec::new(),
            free: NIL,
            far: BinaryHeap::new(),
            seq: 0,
        }
    }

    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.far.is_empty() && self.occupied == [0; WORDS]
    }

    pub(crate) fn push(&mut self, time: u64, item: T) {
        self.seq += 1;
        let node = Node { item, next: NIL };
        let n = if self.free != NIL {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        } else {
            assert!(self.nodes.len() < NIL as usize, "event queue overflow");
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        };
        if time >= self.clock && time - self.clock < RING as u64 {
            self.append(time, n);
        } else {
            self.far.push(Reverse((time, self.seq, n)));
        }
    }

    /// Removes and returns the earliest event and its time.
    pub(crate) fn pop(&mut self) -> Option<(u64, T)> {
        loop {
            if let Some(&Reverse((time, _, n))) = self.far.peek() {
                if time < self.clock {
                    self.far.pop();
                    return Some((time, self.release(n)));
                }
            }
            let b = (self.clock % RING as u64) as usize;
            let head = self.heads[b];
            if head != NIL {
                let next = self.nodes[head as usize].next;
                self.heads[b] = next;
                if next == NIL {
                    self.tails[b] = NIL;
                    self.occupied[b / 64] &= !(1 << (b % 64));
                }
                return Some((self.clock, self.release(head)));
            }
            // The clock's cycle is done and nothing is behind it: advance
            // to the next cycle with work, then pull in what the ring now
            // covers.
            let in_far = self.far.peek().map(|&Reverse((time, _, _))| time);
            self.clock = match (self.next_occupied(), in_far) {
                (Some(a), Some(b)) => a.min(b),
                (a, b) => a.or(b)?,
            };
            while let Some(&Reverse((time, _, n))) = self.far.peek() {
                if time - self.clock >= RING as u64 {
                    break;
                }
                self.far.pop();
                self.append(time, n);
            }
        }
    }

    /// Frees node `n` and returns its payload.
    fn release(&mut self, n: u32) -> T {
        let node = &mut self.nodes[n as usize];
        node.next = self.free;
        self.free = n;
        node.item
    }

    /// Links node `n` at the back of the bucket of a `time` inside the
    /// ring's window.
    fn append(&mut self, time: u64, n: u32) {
        let b = (time % RING as u64) as usize;
        let tail = self.tails[b];
        if tail == NIL {
            self.heads[b] = n;
            self.occupied[b / 64] |= 1 << (b % 64);
        } else {
            self.nodes[tail as usize].next = n;
        }
        self.tails[b] = n;
    }

    /// The time of the first non-empty bucket at or after the clock.
    fn next_occupied(&self) -> Option<u64> {
        let start = (self.clock % RING as u64) as usize;
        let (w0, b0) = (start / 64, start % 64);
        for k in 0..=WORDS {
            let w = (w0 + k) % WORDS;
            let mut bits = self.occupied[w];
            if k == 0 {
                bits &= !0 << b0;
            } else if k == WORDS {
                // Back in the first word: only the buckets before `start`.
                bits &= !(!0 << b0);
            }
            if bits != 0 {
                let b = w * 64 + bits.trailing_zeros() as usize;
                return Some(self.clock + ((b + RING - start) % RING) as u64);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoploc_ptest::run_cases;

    #[test]
    fn pops_in_time_then_push_order() {
        let mut q = EventQueue::new();
        for (t, id) in [(5, 0), (3, 1), (5, 2), (3, 3), (9000, 4), (5, 5)] {
            q.push(t, id);
        }
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            got.push(e);
        }
        assert_eq!(got, vec![(3, 1), (3, 3), (5, 0), (5, 2), (5, 5), (9000, 4)]);
        assert!(q.is_empty());
    }

    #[test]
    fn matches_a_binary_heap_over_random_interleavings() {
        run_cases("event_queue_oracle", 64, |rng| {
            let mut q = EventQueue::new();
            let mut reference: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut id = 0u32;
            // The time of the event "being handled": pushes are placed
            // relative to it, as the simulator's handlers do.
            let mut handling = rng.u64_below(2000);
            for _ in 0..rng.usize_in(100..4000) {
                if rng.u64_below(5) < 3 {
                    let time = match rng.u64_below(16) {
                        // Same cycle.
                        0..=3 => handling,
                        // The usual near future.
                        4..=11 => handling + rng.u64_below(300),
                        // Around and beyond the ring's horizon.
                        12 | 13 => handling + RING as u64 - 2 + rng.u64_below(4),
                        14 => handling + rng.u64_below(20 * RING as u64),
                        // Into the past of the event being handled.
                        _ => handling.saturating_sub(rng.u64_below(700)),
                    };
                    seq += 1;
                    id += 1;
                    q.push(time, id);
                    reference.push(Reverse((time, seq, id)));
                } else {
                    let want = reference.pop().map(|Reverse((time, _, id))| (time, id));
                    assert_eq!(q.pop(), want);
                    if let Some((time, _)) = want {
                        handling = time;
                    }
                }
                assert_eq!(q.is_empty(), reference.is_empty());
            }
            while let Some(Reverse((time, _, id))) = reference.pop() {
                assert_eq!(q.pop(), Some((time, id)));
            }
            assert_eq!(q.pop(), None);
            assert!(q.is_empty());
        });
    }
}
