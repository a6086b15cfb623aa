//! Property-based tests of the OS layer, the simulator's conservation
//! invariants and the trace's stored format.

use hoploc_noc::{L2ToMcMapping, McPlacement, Mesh, NodeId};
use hoploc_ptest::run_cases;
use hoploc_sim::{
    Access, KindHint, Os, PagePolicy, SimConfig, Simulator, ThreadTrace, TraceWorkload,
};

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
        let total: u64 = threads.iter().map(|t| t.len() as u64).sum();
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

/// Accesses over the whole encodable range: addresses up to 2^40 − 1, gaps
/// on both sides of every 256 boundary and at `u32::MAX`, reference ids
/// from a small random pool so that kinds both repeat and multiply.
fn arbitrary_accesses(rng: &mut hoploc_ptest::SmallRng) -> Vec<Access> {
    let ref_ids = rng.vec_u64(1..64, 0..1 << 32);
    let n = rng.usize_in(1..5001);
    (0..n)
        .map(|_| Access {
            vaddr: match rng.u64_below(8) {
                0 => (1 << 40) - 1,
                1 => 0,
                _ => rng.u64_in(0..1 << 40),
            },
            write: rng.flip(),
            gap: match rng.u64_below(8) {
                0 => 0,
                1 => 255,
                2 => 256,
                3 => 1288,
                4 => u32::MAX,
                _ => rng.u32_in(0..2048),
            },
            ref_id: ref_ids[rng.usize_in(0..ref_ids.len())] as u32,
        })
        .collect()
}

#[test]
fn a_trace_round_trips_every_encodable_access() {
    run_cases("a_trace_round_trips_every_encodable_access", 32, |rng| {
        let accesses = arbitrary_accesses(rng);
        let trace = ThreadTrace::new(NodeId(3), accesses.clone());
        assert_eq!(trace.iter().collect::<Vec<_>>(), accesses);
        assert_eq!(trace.len(), accesses.len());
        assert!(!trace.is_empty());
        for (i, a) in accesses.iter().enumerate() {
            assert_eq!(trace.get(i), Some(*a), "access {i}");
        }
        assert_eq!(trace.get(accesses.len()), None);
    });
}

#[test]
fn trace_equality_is_equality_of_the_access_sequences() {
    run_cases(
        "trace_equality_is_equality_of_the_access_sequences",
        32,
        |rng| {
            let accesses = arbitrary_accesses(rng);
            let built = ThreadTrace::new(NodeId(3), accesses.clone());
            // The same accesses pushed one by one into an unsized trace,
            // some through a hint shared by all references and some without.
            let mut pushed = ThreadTrace::with_capacity(NodeId(3), 0);
            let mut hint = KindHint::default();
            for a in &accesses {
                if rng.flip() {
                    pushed.push_hinted(*a, &mut hint);
                } else {
                    pushed.push(*a);
                }
            }
            assert_eq!(built, pushed);
            assert_eq!(
                TraceWorkload::single("w", vec![built.clone()]),
                TraceWorkload::single("w", vec![pushed])
            );

            let mut other = accesses;
            let i = rng.usize_in(0..other.len());
            other[i].gap ^= 1 << rng.u32_in(0..32);
            assert_ne!(built, ThreadTrace::new(NodeId(3), other));
        },
    );
}

#[test]
#[should_panic(expected = "at or past the 2^40 a trace word holds")]
fn an_address_past_the_word_is_refused() {
    let mut trace = ThreadTrace::with_capacity(NodeId(0), 1);
    trace.push(Access {
        vaddr: 1 << 40,
        write: false,
        gap: 1,
        ref_id: 0,
    });
}

#[test]
#[should_panic(expected = "at most 65536 kinds")]
fn a_kind_past_the_table_is_refused() {
    let mut trace = ThreadTrace::with_capacity(NodeId(0), 1 << 16);
    for ref_id in 0..=1 << 16 {
        trace.push(Access {
            vaddr: 0,
            write: false,
            gap: 1,
            ref_id,
        });
        // Every kind up to the limit is held, and held apart.
        assert_eq!(trace.get(ref_id as usize).map(|a| a.ref_id), Some(ref_id));
    }
}
