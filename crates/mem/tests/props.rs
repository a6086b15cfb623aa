//! Property-based tests of the memory controller: conservation, ordering,
//! and timing invariants under arbitrary request streams.

use hoploc_mem::{McConfig, MemoryController};
use hoploc_ptest::{run_cases, SmallRng};

/// A stream of (address, inter-arrival gap) pairs.
fn stream(rng: &mut SmallRng) -> Vec<(u64, u64)> {
    let n = rng.usize_in(1..120);
    (0..n)
        .map(|_| (rng.u64_in(0..1 << 20), rng.u64_in(0..200)))
        .collect()
}

#[test]
fn every_request_completes_exactly_once() {
    run_cases("every_request_completes_exactly_once", 128, |rng| {
        let reqs = stream(rng);
        let mut mc = MemoryController::new(McConfig::default());
        let mut now = 0;
        let mut tokens = Vec::new();
        for (i, &(addr, gap)) in reqs.iter().enumerate() {
            now += gap;
            tokens.extend(mc.enqueue(addr, i as u64, now).iter().map(|c| c.token));
        }
        tokens.extend(mc.flush().iter().map(|c| c.token));
        tokens.sort_unstable();
        let expect: Vec<u64> = (0..reqs.len() as u64).collect();
        assert_eq!(tokens, expect);
    });
}

#[test]
fn completions_never_precede_service() {
    run_cases("completions_never_precede_service", 128, |rng| {
        let reqs = stream(rng);
        let mut mc = MemoryController::new(McConfig::default());
        let timing = *mc.config();
        let min_service = timing.timing.row_hit_cycles + timing.timing.burst_cycles;
        let mut now = 0;
        let mut arrivals = std::collections::HashMap::new();
        let mut done: Vec<hoploc_mem::Completion> = Vec::new();
        for (i, &(addr, gap)) in reqs.iter().enumerate() {
            now += gap;
            arrivals.insert(i as u64, now);
            done.extend(mc.enqueue(addr, i as u64, now));
        }
        done.extend(mc.flush());
        for c in done {
            let arrival = arrivals[&c.token];
            assert!(
                c.finish >= arrival + min_service,
                "token {} finished {} < arrival {} + min {}",
                c.token,
                c.finish,
                arrival,
                min_service
            );
            assert_eq!(arrival + c.queue_cycles + c.service_cycles, c.finish);
        }
    });
}

#[test]
fn stats_are_consistent() {
    run_cases("stats_are_consistent", 128, |rng| {
        let reqs = stream(rng);
        let mut mc = MemoryController::new(McConfig::default());
        let mut now = 0;
        for (i, &(addr, gap)) in reqs.iter().enumerate() {
            now += gap;
            mc.enqueue(addr, i as u64, now);
        }
        mc.flush();
        let s = mc.stats();
        assert_eq!(s.served, reqs.len() as u64);
        assert!(s.row_hits <= s.served);
    });
}

#[test]
fn ideal_mode_is_flat_and_instant() {
    run_cases("ideal_mode_is_flat_and_instant", 128, |rng| {
        let reqs = stream(rng);
        let mut mc = MemoryController::new(McConfig {
            ideal: true,
            ..McConfig::default()
        });
        let mut now = 0;
        for (i, &(addr, gap)) in reqs.iter().enumerate() {
            now += gap;
            let done = mc.enqueue(addr, i as u64, now);
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].queue_cycles, 0);
        }
        assert!(mc.flush().is_empty());
    });
}

#[test]
fn poll_makes_progress() {
    run_cases("poll_makes_progress", 128, |rng| {
        // Whatever is pending must become serviceable by its earliest
        // start time — polls never deadlock.
        let reqs = stream(rng);
        let mut mc = MemoryController::new(McConfig::default());
        let mut now = 0;
        let mut completed = 0usize;
        for (i, &(addr, gap)) in reqs.iter().enumerate() {
            now += gap;
            completed += mc.enqueue(addr, i as u64, now).len();
        }
        let mut guard = 0;
        while let Some(t) = mc.earliest_pending_start() {
            completed += mc.poll(t + 1).len();
            guard += 1;
            assert!(guard < 10_000, "poll loop failed to converge");
        }
        assert_eq!(completed, reqs.len());
    });
}
