//! Figure 3: contribution of off-chip data accesses to total dynamic data
//! accesses (8×8 mesh, private L2s, page interleaving — the paper reports
//! a 22.4% average).

use hoploc_bench::{banner, bar, bench_suite, m1, standard_config};
use hoploc_harness::default_jobs;
use hoploc_layout::Granularity;
use hoploc_workloads::RunKind;

fn main() {
    banner(
        "Figure 3",
        "off-chip share of dynamic data accesses (baseline)",
    );
    let sim = standard_config(Granularity::Page);
    let s = bench_suite(sim.clone(), m1(sim.mesh));
    let records = s.run_all(&s.full_matrix(&[RunKind::Baseline]), default_jobs());
    println!("{:<11} {:>9}", "app", "off-chip");
    let mut sum = 0.0;
    for r in &records {
        let f = r.stats.offchip_fraction() * 100.0;
        sum += f;
        println!("{:<11} {:>8.1}%  {}", r.app, f, bar(f, 1.5));
    }
    println!("{}", "-".repeat(40));
    println!("{:<11} {:>8.1}%", "AVERAGE", sum / records.len() as f64);
}
