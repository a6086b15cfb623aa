//! Path floors: the simulator's host cost per access on three hand-built
//! traces that each keep to one path of the memory hierarchy — every
//! access an L1 hit, every access an L1 miss that hits the L2, every
//! access an off-chip miss — on the scaled machine (`SimConfig::scaled`,
//! 8×8 mesh), 64 threads, two misses in flight per thread. Prints
//! nanoseconds per simulated access (minimum and median of five runs) and
//! gates nothing: `cargo bench -p hoploc-bench --bench floor`.

use std::time::Instant;

use hoploc_noc::{L2ToMcMapping, NodeId};
use hoploc_sim::{Access, PagePolicy, SimConfig, Simulator, ThreadTrace, TraceWorkload};

const RUNS: usize = 5;

/// Each thread's accesses: `per_thread` of them, cycling over `lines`
/// distinct lines `stride` bytes apart in the thread's own gigabyte-aligned
/// region (`lines` past `per_thread` never repeats a line).
fn traces(per_thread: u64, lines: u64, stride: u64, threads: u16) -> Vec<ThreadTrace> {
    (0..threads)
        .map(|t| {
            let base = u64::from(t) << 24;
            let accesses = (0..per_thread)
                .map(|k| Access {
                    vaddr: base + (k % lines) * stride,
                    write: k % 4 == 0,
                    gap: 1,
                    ref_id: 0,
                })
                .collect();
            ThreadTrace::new(NodeId(t), accesses)
        })
        .collect()
}

fn main() {
    let config = SimConfig {
        mlp: 2,
        ..SimConfig::scaled()
    };
    let threads = config.num_nodes() as u16;
    let (l1_line, l2_line) = (config.l1.line_bytes, config.l2.line_bytes);
    let l1_lines = config.l1.size_bytes / l1_line;
    let l2_lines = config.l2.size_bytes / l2_line;
    let floors = [
        // A quarter of the L1: after the first pass, every access hits.
        ("all L1 hit", traces(20_000, l1_lines / 4, l1_line, threads)),
        // Half the L2 in L1 lines, twice the L1: the L1 misses, the L2 hits.
        (
            "L1 miss, L2 hit",
            traces(20_000, l2_lines * l2_line / l1_line / 2, l1_line, threads),
        ),
        // A new L2 line every access: every access goes off-chip.
        ("all off-chip", traces(4_000, u64::MAX, l2_line, threads)),
    ];
    println!(
        "path floors: scaled machine, {threads} threads, mlp {}",
        config.mlp
    );
    for (name, threads) in floors {
        let accesses: usize = threads.iter().map(|t| t.accesses.len()).sum();
        let workload = TraceWorkload::single(name, threads);
        let mut ns: Vec<f64> = (0..RUNS)
            .map(|_| {
                let mapping = L2ToMcMapping::nearest_cluster(config.mesh, &config.placement);
                let sim = Simulator::new(config.clone(), mapping, PagePolicy::Interleaved);
                let start = Instant::now();
                let stats = sim.run(&workload);
                let elapsed = start.elapsed().as_nanos() as f64;
                assert_eq!(stats.total_accesses, accesses as u64);
                elapsed / accesses as f64
            })
            .collect();
        ns.sort_by(f64::total_cmp);
        println!(
            "{name:>16}: {:7.1} ns/access min, {:7.1} median ({accesses} accesses)",
            ns[0],
            ns[RUNS / 2]
        );
    }
}
