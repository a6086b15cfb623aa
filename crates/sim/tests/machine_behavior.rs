//! Behavioral scenario tests for the event-driven machine: MSHR overlap,
//! FR-FCFS poll paths, traffic classification, and the optimal mode.

use hoploc_cache::CacheConfig;
use hoploc_layout::{Granularity, L2Mode};
use hoploc_noc::{L2ToMcMapping, Mesh, NodeId};
use hoploc_sim::{Access, PagePolicy, SimConfig, Simulator, ThreadTrace, TraceWorkload};

fn small() -> (SimConfig, L2ToMcMapping) {
    let cfg = SimConfig {
        mesh: Mesh::new(4, 4),
        granularity: Granularity::CacheLine,
        ..SimConfig::scaled()
    };
    let mapping = L2ToMcMapping::nearest_cluster(cfg.mesh, &cfg.placement);
    (cfg, mapping)
}

fn stream(node: u16, lines: u64, stride: u64, gap: u32) -> ThreadTrace {
    ThreadTrace::new(
        NodeId(node),
        (0..lines)
            .map(|k| Access {
                vaddr: k * stride,
                write: false,
                gap,
                ref_id: 0,
            })
            .collect(),
    )
}

#[test]
fn mlp_overlap_shortens_miss_streams() {
    let (mut cfg, mapping) = small();
    let w = TraceWorkload::single("t", vec![stream(5, 512, 256, 1)]);
    cfg.mlp = 1;
    let blocking = Simulator::new(cfg.clone(), mapping.clone(), PagePolicy::Interleaved).run(&w);
    cfg.mlp = 8;
    let overlapped = Simulator::new(cfg, mapping, PagePolicy::Interleaved).run(&w);
    assert!(
        (overlapped.exec_cycles as f64) < 0.7 * blocking.exec_cycles as f64,
        "8 MSHRs should overlap a pure miss stream: {} vs {}",
        overlapped.exec_cycles,
        blocking.exec_cycles
    );
    assert_eq!(overlapped.offchip_accesses, blocking.offchip_accesses);
}

#[test]
fn bursty_arrivals_exercise_the_poll_path() {
    // Many same-cycle misses from many nodes force queued requests whose
    // completions can only surface via MC polls — the run must still
    // conserve and terminate.
    let (mut cfg, mapping) = small();
    cfg.mlp = 4;
    let threads: Vec<ThreadTrace> = (0..16).map(|n| stream(n, 128, 4096, 0)).collect();
    let total: u64 = threads.iter().map(|t| t.accesses.len() as u64).sum();
    let w = TraceWorkload::single("burst", threads);
    let stats = Simulator::new(cfg, mapping, PagePolicy::Interleaved).run(&w);
    assert_eq!(stats.total_accesses, total);
    let served: u64 = stats.mc.iter().map(|m| m.served).sum();
    assert_eq!(
        served, stats.offchip_accesses,
        "every off-chip request served"
    );
}

#[test]
fn offchip_messages_are_classified_offchip() {
    let (cfg, mapping) = small();
    let w = TraceWorkload::single("t", vec![stream(0, 256, 256, 2)]);
    let stats = Simulator::new(cfg, mapping, PagePolicy::Interleaved).run(&w);
    // Each off-chip access yields one request + one response message.
    assert_eq!(stats.net.off_chip.messages, 2 * stats.offchip_accesses);
}

#[test]
fn shared_l2_hits_travel_on_chip() {
    let (mut cfg, mapping) = small();
    cfg.l2_mode = L2Mode::Shared;
    // Touch a small set twice: second pass hits home banks remotely.
    let accesses: Vec<Access> = (0..64u64)
        .chain(0..64)
        .map(|k| Access {
            vaddr: k * 256,
            write: false,
            gap: 2,
            ref_id: 0,
        })
        .collect();
    let w = TraceWorkload::single("t", vec![ThreadTrace::new(NodeId(0), accesses)]);
    let stats = Simulator::new(cfg, mapping, PagePolicy::Interleaved).run(&w);
    assert!(stats.l2_hits > 0, "second pass must hit the shared L2");
    assert!(stats.net.on_chip.messages > 0);
}

#[test]
fn optimal_mode_has_flat_memory_latency() {
    let (mut cfg, mapping) = small();
    cfg.optimal = true;
    let w = TraceWorkload::single("t", vec![stream(3, 512, 256, 1)]);
    let stats = Simulator::new(cfg.clone(), mapping, PagePolicy::Interleaved).run(&w);
    let expected = (cfg.mc.timing.row_hit_cycles + cfg.mc.timing.burst_cycles) as f64;
    assert!(
        (stats.memory_latency() - expected).abs() < 1e-9,
        "ideal memory must serve at fixed latency: {} vs {}",
        stats.memory_latency(),
        expected
    );
}

#[test]
fn writes_and_reads_share_the_same_path() {
    let (cfg, mapping) = small();
    let reads = TraceWorkload::single("r", vec![stream(0, 128, 256, 2)]);
    let writes = TraceWorkload::single(
        "w",
        vec![ThreadTrace::new(
            NodeId(0),
            (0..128u64)
                .map(|k| Access {
                    vaddr: k * 256,
                    write: true,
                    gap: 2,
                    ref_id: 0,
                })
                .collect(),
        )],
    );
    let sr = Simulator::new(cfg.clone(), mapping.clone(), PagePolicy::Interleaved).run(&reads);
    let sw = Simulator::new(cfg, mapping, PagePolicy::Interleaved).run(&writes);
    // Write-allocate: identical traffic shape either way.
    assert_eq!(sr.offchip_accesses, sw.offchip_accesses);
    assert_eq!(sr.exec_cycles, sw.exec_cycles);
}

#[test]
fn eviction_notices_appear_as_onchip_control_traffic() {
    // Stream far beyond L2 capacity: evictions must notify the directory,
    // generating on-chip messages even with zero sharing.
    let (cfg, mapping) = small();
    let w = TraceWorkload::single("t", vec![stream(6, 4096, 256, 1)]);
    let stats = Simulator::new(cfg, mapping, PagePolicy::Interleaved).run(&w);
    assert!(
        stats.net.on_chip.messages > 1000,
        "expected eviction notices, got {} on-chip messages",
        stats.net.on_chip.messages
    );
}

#[test]
fn mc_local_addressing_spreads_banks_under_page_policy() {
    // Frames striped across MCs must still use all banks within one MC
    // (the row/bank index is computed on the controller-local address).
    let (mut cfg, mapping) = small();
    cfg.granularity = Granularity::Page;
    cfg.mlp = 4;
    // One thread streaming pages that all land on its nearest MC via
    // first-touch.
    let w = TraceWorkload::single(
        "t",
        vec![ThreadTrace::new(
            NodeId(0),
            (0..512u64)
                .map(|k| Access {
                    vaddr: k * 4096,
                    write: false,
                    gap: 0,
                    ref_id: 0,
                })
                .collect(),
        )],
    );
    let stats = Simulator::new(cfg, mapping, PagePolicy::FirstTouch).run(&w);
    // With bank aliasing (the bug this guards against), 512 concurrent-ish
    // row misses pile onto 2 banks and the queue integral explodes.
    let mc0 = &stats.mc[0];
    assert!(mc0.served > 0);
    assert!(
        mc0.avg_queue_latency() < 1000.0,
        "bank aliasing suspected: avg queue {}",
        mc0.avg_queue_latency()
    );
}

/// A write stream far past the L2 capacity of `cfg`, with writebacks on
/// and off: dirty evictions must flow out as extra off-chip traffic that
/// no thread waits on.
fn assert_writebacks_do_not_block(mut cfg: SimConfig, mapping: L2ToMcMapping) {
    let w = TraceWorkload::single(
        "t",
        vec![ThreadTrace::new(
            NodeId(0),
            (0..2048u64)
                .map(|k| Access {
                    vaddr: k * 256,
                    write: true,
                    gap: 1,
                    ref_id: 0,
                })
                .collect(),
        )],
    );
    cfg.writebacks = true;
    let with = Simulator::new(cfg.clone(), mapping.clone(), PagePolicy::Interleaved).run(&w);
    cfg.writebacks = false;
    let without = Simulator::new(cfg, mapping, PagePolicy::Interleaved).run(&w);
    assert!(
        with.writebacks > 500,
        "expected many writebacks, got {}",
        with.writebacks
    );
    assert_eq!(without.writebacks, 0);
    // Demand-path accounting unchanged.
    assert_eq!(with.offchip_accesses, without.offchip_accesses);
    // Writebacks consume MC service.
    let served_with: u64 = with.mc.iter().map(|m| m.served).sum();
    let served_without: u64 = without.mc.iter().map(|m| m.served).sum();
    assert_eq!(served_with, served_without + with.writebacks);
}

#[test]
fn writebacks_add_offchip_traffic_without_blocking() {
    let (cfg, mapping) = small();
    assert_writebacks_do_not_block(cfg, mapping);
}

#[test]
fn shared_writebacks_leave_from_the_home_bank_without_blocking() {
    let (mut cfg, mapping) = small();
    cfg.l2_mode = L2Mode::Shared;
    // Sixteen 2 KB banks hold 128 lines between them, so the stream
    // overflows every home bank many times over; the default 32 KB banks
    // would absorb it without one eviction.
    cfg.l2 = CacheConfig {
        size_bytes: 2048,
        line_bytes: 256,
        ways: 4,
    };
    assert_writebacks_do_not_block(cfg, mapping);
}

#[test]
#[should_panic(expected = "names an application for 1 threads but has 2")]
fn a_workload_short_of_application_ids_is_refused_before_the_run() {
    let (cfg, mapping) = small();
    let mut w = TraceWorkload::single("t", vec![stream(0, 4, 256, 1), stream(1, 4, 256, 1)]);
    w.app_of_thread.pop();
    Simulator::new(cfg, mapping, PagePolicy::Interleaved).run(&w);
}
