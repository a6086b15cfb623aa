//! Figure 18: bank-queue utilization (average occupancy) per application
//! under the M1 mapping. The paper's point: fma3d and minighost show far
//! higher occupancy than the rest — the memory-parallelism demand that
//! makes them prefer M2.
//!
//! The occupancy is read off the observability layer's `mc.queue_cycles`
//! counter family ([`ObsReport::bank_queue_occupancy`]), which replicates
//! `RunStats::bank_queue_occupancy` arithmetic exactly — same rows as the
//! pre-obs version of this harness.

use hoploc_bench::{banner, bar, bench_suite, m1, recorded_matrix, standard_config};
use hoploc_harness::default_jobs;
use hoploc_layout::Granularity;
use hoploc_workloads::RunKind;

fn main() {
    banner(
        "Figure 18",
        "bank queue occupancy under M1 (optimized runs)",
    );
    let sim = standard_config(Granularity::CacheLine);
    let s = bench_suite(sim.clone(), m1(sim.mesh));
    println!("{:<11} {:>10}", "app", "occupancy");
    for r in s.run_all(&recorded_matrix(&s, &[RunKind::Optimized]), default_jobs()) {
        let occ = r
            .report
            .expect("every cell was recorded")
            .bank_queue_occupancy();
        println!("{:<11} {:>10.2}  {}", r.app, occ, bar(occ, 4.0));
    }
}
