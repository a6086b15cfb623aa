//! A book of in-flight values keyed by a dense, increasing id.

/// Values keyed by an id that is handed out in increasing order — a
/// memory request's token, a traced request's sequence number — in a ring
/// of slots indexed by `id & (len - 1)`.
///
/// Ids are handed out in increasing order and retired in any order, so
/// the live ones lie in a window from the oldest live id to the newest.
/// An id whose slot still holds a live (older) id doubles the ring until
/// that slot is free: live ids sit in distinct slots of a ring and so,
/// differing modulo its length, in distinct slots of the doubled one too.
/// An insert, a lookup and a remove each touch one slot: no hash, no
/// probe.
#[derive(Debug)]
pub struct TokenRing<T> {
    slots: Vec<Option<(u64, T)>>,
    live: usize,
}

impl<T> Default for TokenRing<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TokenRing<T> {
    /// Slots of a new ring: enough for a scaled machine's steady state of
    /// 64 threads with two misses each, so a run doubles it a few times
    /// at most.
    const INITIAL: usize = 256;

    /// An empty ring of 256 slots.
    pub fn new() -> Self {
        Self::with_slots(Self::INITIAL)
    }

    fn with_slots(len: usize) -> Self {
        debug_assert!(len.is_power_of_two());
        Self {
            slots: (0..len).map(|_| None).collect(),
            live: 0,
        }
    }

    fn slot(&self, token: u64) -> usize {
        (token & (self.slots.len() as u64 - 1)) as usize
    }

    /// Files `value` under `token`, which must not be live.
    ///
    /// # Panics
    ///
    /// Panics if `token` is already live.
    pub fn insert(&mut self, token: u64, value: T) {
        while let Some((live, _)) = &self.slots[self.slot(token)] {
            assert_ne!(*live, token, "token {token} is already in flight");
            self.grow();
        }
        let i = self.slot(token);
        self.slots[i] = Some((token, value));
        self.live += 1;
    }

    /// The value filed under `token`, if it is live.
    pub fn get(&self, token: u64) -> Option<&T> {
        match &self.slots[self.slot(token)] {
            Some((live, value)) if *live == token => Some(value),
            _ => None,
        }
    }

    /// The value filed under `token`, mutably, if it is live.
    pub fn get_mut(&mut self, token: u64) -> Option<&mut T> {
        let i = self.slot(token);
        match &mut self.slots[i] {
            Some((live, value)) if *live == token => Some(value),
            _ => None,
        }
    }

    /// Removes and returns the value filed under `token`, if it is live.
    pub fn remove(&mut self, token: u64) -> Option<T> {
        let i = self.slot(token);
        match &self.slots[i] {
            Some((live, _)) if *live == token => {
                self.live -= 1;
                self.slots[i].take().map(|(_, value)| value)
            }
            _ => None,
        }
    }

    /// Whether no token is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Doubles the ring, moving each live token to its slot in the new one.
    fn grow(&mut self) {
        let old = std::mem::replace(self, Self::with_slots(2 * self.slots.len()));
        for (token, value) in old.slots.into_iter().flatten() {
            let i = self.slot(token);
            debug_assert!(self.slots[i].is_none());
            self.slots[i] = Some((token, value));
        }
        self.live = old.live;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IntMap;

    /// The ring against the `IntMap` book it replaced: tokens issued in
    /// increasing order and retired in random order, with some held for a
    /// long time so a new token wraps onto their slot and the ring grows.
    /// Every removal (of live and of unknown tokens) and `is_empty` agree.
    #[test]
    fn matches_an_int_map_under_random_issue_and_retire_orders() {
        hoploc_ptest::run_cases("token_ring_vs_int_map", 64, |rng| {
            // Four slots to start: more than four live tokens cannot fit,
            // so every case that holds five at once has grown the ring.
            let mut ring = TokenRing::with_slots(4);
            let mut reference: IntMap<u64, u64> = IntMap::default();
            let mut live: Vec<u64> = Vec::new();
            let mut next = 0u64;
            let mut most_live = 0;
            for step in 0..rng.usize_in(1..6000) {
                // Issue half the time; retire mostly at random, sometimes
                // the newest, rarely the oldest, so old tokens linger while
                // the window moves on.
                if live.is_empty() || rng.u64_below(8) < 4 {
                    let value = rng.next_u64();
                    ring.insert(next, value);
                    reference.insert(next, value);
                    live.push(next);
                    next += 1;
                } else {
                    let i = match rng.u64_below(16) {
                        0 => 0,
                        1..=4 => live.len() - 1,
                        _ => rng.usize_in(0..live.len()),
                    };
                    let token = live.remove(i);
                    assert_eq!(ring.get(token), reference.get(&token), "step {step}");
                    if let Some(value) = ring.get_mut(token) {
                        *value ^= step as u64;
                        *reference.get_mut(&token).unwrap() ^= step as u64;
                    }
                    assert_eq!(ring.remove(token), reference.remove(&token), "step {step}");
                }
                let stranger = rng.u64_below(next + 2);
                if !reference.contains_key(&stranger) {
                    assert_eq!(ring.get(stranger), None, "step {step}: {stranger}");
                    assert_eq!(ring.remove(stranger), None, "step {step}: {stranger}");
                }
                assert_eq!(ring.is_empty(), reference.is_empty(), "step {step}");
                most_live = most_live.max(live.len());
            }
            for token in live {
                assert_eq!(ring.remove(token), reference.remove(&token));
            }
            assert!(ring.is_empty());
            assert!(most_live <= 4 || ring.slots.len() > 4, "{most_live} live");
        });
    }

    #[test]
    fn a_token_wrapping_onto_a_live_one_grows_the_ring() {
        let mut ring = TokenRing::with_slots(4);
        ring.insert(0, 'a');
        for token in 1..4 {
            ring.insert(token, 'b');
            assert_eq!(ring.remove(token), Some('b'));
        }
        // Token 4 lands on token 0's slot while 0 is still live.
        ring.insert(4, 'c');
        assert_eq!(ring.slots.len(), 8);
        // 8 lands on 0 again in the doubled ring, and 16 in the next.
        ring.insert(8, 'd');
        ring.insert(16, 'e');
        assert_eq!(ring.slots.len(), 32);
        assert_eq!(ring.remove(4), Some('c'));
        assert_eq!(ring.remove(4), None);
        assert_eq!(ring.remove(0), Some('a'));
        assert_eq!(ring.remove(16), Some('e'));
        assert!(!ring.is_empty());
        assert_eq!(ring.remove(8), Some('d'));
        assert!(ring.is_empty());
    }
}
