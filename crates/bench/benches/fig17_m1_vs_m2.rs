//! Figure 17: execution-time savings under the M1 (quadrant, k=1) vs M2
//! (halves, k=2) L2-to-MC mappings. The paper finds M1 better for most
//! applications — locality beats memory-level parallelism — with fma3d and
//! minighost as the exceptions. The last column shows which mapping the
//! compiler's §4 selection analysis picks from the two candidates.

use hoploc_bench::{banner, bench_suite, exec_saving, m1, m2, standard_config, sweep_pair};
use hoploc_harness::default_jobs;
use hoploc_layout::{select_mapping, Granularity, SelectModel};
use hoploc_workloads::RunKind;

fn main() {
    banner("Figure 17", "execution-time savings: M1 vs M2 mappings");
    let sim = standard_config(Granularity::CacheLine);
    let m1 = m1(sim.mesh);
    let m2 = m2(sim.mesh);
    let candidates = [m1.clone(), m2.clone()];
    let model = SelectModel::default();
    let s1 = bench_suite(sim.clone(), m1);
    let s2 = bench_suite(sim, m2);
    let pairs = sweep_pair(&s1, RunKind::Baseline, RunKind::Optimized);
    let o2 = s2.run_all(&s2.full_matrix(&[RunKind::Optimized]), default_jobs());
    println!("{:<11} {:>8} {:>8} {:>10}", "app", "M1", "M2", "compiler");
    for (i, (name, base, opt1)) in pairs.iter().enumerate() {
        let app = &s1.apps()[i];
        let pick = select_mapping(&candidates, &app.profile, &model);
        println!(
            "{:<11} {:>7.1}% {:>7.1}% {:>10}",
            name,
            exec_saving(base, opt1),
            exec_saving(base, &o2[i].stats),
            if pick == 0 { "M1" } else { "M2" }
        );
    }
}
