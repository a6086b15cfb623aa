//! Property-based tests of the OS layer and the simulator's conservation
//! invariants.

use hoploc_noc::{L2ToMcMapping, McPlacement, Mesh, NodeId};
use hoploc_ptest::run_cases;
use hoploc_sim::{Access, Os, PagePolicy, SimConfig, Simulator, ThreadTrace, TraceWorkload};

fn mapping() -> L2ToMcMapping {
    L2ToMcMapping::nearest_cluster(Mesh::new(8, 8), &McPlacement::Corners)
}

#[test]
fn translation_is_stable_and_page_preserving() {
    run_cases("translation_is_stable_and_page_preserving", 32, |rng| {
        let vaddrs = rng.vec_u64(1..100, 0..1 << 24);
        let m = mapping();
        let mut os = Os::new(4096, 1 << 28, 4, PagePolicy::Interleaved);
        let mut first: std::collections::HashMap<u64, u64> = Default::default();
        for &v in &vaddrs {
            let p = os.translate(v, NodeId(0), &m);
            assert_eq!(p % 4096, v % 4096, "page offset must be preserved");
            let vpn = v / 4096;
            if let Some(&prev) = first.get(&vpn) {
                assert_eq!(p / 4096, prev, "translation must be stable");
            } else {
                first.insert(vpn, p / 4096);
            }
        }
    });
}

#[test]
fn distinct_pages_get_distinct_frames() {
    run_cases("distinct_pages_get_distinct_frames", 32, |rng| {
        let pages: std::collections::HashSet<u64> =
            rng.vec_u64(1..200, 0..10_000).into_iter().collect();
        let m = mapping();
        let mut os = Os::new(4096, 1 << 30, 4, PagePolicy::FirstTouch);
        let mut frames = std::collections::HashSet::new();
        for &vpn in &pages {
            let p = os.translate(vpn * 4096, NodeId((vpn % 64) as u16), &m);
            assert!(frames.insert(p / 4096), "frame reuse for vpn {vpn}");
        }
    });
}

#[test]
fn first_touch_lands_on_toucher_cluster() {
    run_cases("first_touch_lands_on_toucher_cluster", 64, |rng| {
        let page = rng.u64_in(0..1000);
        let node = rng.u16_in(0..64);
        let m = mapping();
        let mut os = Os::new(4096, 1 << 28, 4, PagePolicy::FirstTouch);
        let p = os.translate(page * 4096, NodeId(node), &m);
        let mc = os.mc_of_paddr(p);
        assert!(m.mcs_of_node(NodeId(node)).contains(&mc));
    });
}

#[test]
fn simulation_conserves_accesses() {
    run_cases("simulation_conserves_accesses", 32, |rng| {
        let n_streams = rng.usize_in(1..6);
        let threads: Vec<ThreadTrace> = (0..n_streams)
            .map(|_| {
                let node = rng.u16_in(0..64);
                let n_accs = rng.usize_in(1..40);
                ThreadTrace::new(
                    NodeId(node),
                    (0..n_accs)
                        .map(|_| Access {
                            vaddr: rng.u64_in(0..1 << 20),
                            write: false,
                            gap: rng.u32_in(0..10),
                            ref_id: 0,
                        })
                        .collect(),
                )
            })
            .collect();
        let total: u64 = threads.iter().map(|t| t.accesses.len() as u64).sum();
        let w = TraceWorkload::single("prop", threads);
        let cfg = SimConfig::scaled();
        let stats = Simulator::new(cfg, mapping(), PagePolicy::Interleaved).run(&w);
        assert_eq!(stats.total_accesses, total);
        // Access-path accounting: every access is an L1 hit, an L2-level
        // hit, a cache-to-cache transfer, or an off-chip fetch.
        assert_eq!(
            stats.l1_hits + stats.l2_hits + stats.cache_to_cache + stats.offchip_accesses,
            total
        );
        // Off-chip requests recorded per (node, MC) must total the count.
        let matrix: u64 = stats.node_mc_requests.iter().flatten().sum();
        assert_eq!(matrix, stats.offchip_accesses);
        assert!(stats.exec_cycles > 0 || total == 0);
    });
}

#[test]
fn mlp_never_slows_execution() {
    run_cases("mlp_never_slows_execution", 32, |rng| {
        let n_accs = rng.usize_in(10..60);
        let accs: Vec<(u64, u32)> = (0..n_accs)
            .map(|_| (rng.u64_in(0..1 << 18), rng.u32_in(0..6)))
            .collect();
        let traces = || {
            vec![ThreadTrace::new(
                NodeId(0),
                accs.iter()
                    .map(|&(v, g)| Access {
                        vaddr: v,
                        write: false,
                        gap: g,
                        ref_id: 0,
                    })
                    .collect(),
            )]
        };
        let mut blocking = SimConfig::scaled();
        blocking.mlp = 1;
        let mut overlapped = SimConfig::scaled();
        overlapped.mlp = 8;
        let w1 = TraceWorkload::single("b", traces());
        let s1 = Simulator::new(blocking, mapping(), PagePolicy::Interleaved).run(&w1);
        let s8 = Simulator::new(overlapped, mapping(), PagePolicy::Interleaved).run(&w1);
        assert!(
            s8.exec_cycles <= s1.exec_cycles,
            "more MSHRs made a single thread slower: {} > {}",
            s8.exec_cycles,
            s1.exec_cycles
        );
    });
}
