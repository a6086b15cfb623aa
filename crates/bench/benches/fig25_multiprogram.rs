//! Figure 25: multiprogrammed workloads (pairs of applications
//! co-scheduled on the same mesh), evaluated by weighted speedup of the
//! optimized layouts over the baseline. The paper reports improvements
//! between 5.4% and 13.1% depending on the mix. Its partitioned-cluster
//! scenario is not reproduced (DESIGN.md §9).

use hoploc_bench::{banner, m1, standard_config};
use hoploc_layout::Granularity;
use hoploc_workloads::{mixes, run_mix, weighted_speedup, RunKind, Scale};

fn main() {
    banner("Figure 25", "multiprogrammed mixes: weighted speedup");
    let sim = standard_config(Granularity::CacheLine);
    let mapping = m1(sim.mesh);
    println!("{:<26} {:>17}", "workload", "weighted speedup");
    for (name, apps) in mixes(Scale::Bench) {
        let base = run_mix(&apps, &mapping, &sim, RunKind::Baseline);
        let opt = run_mix(&apps, &mapping, &sim, RunKind::Optimized);
        let ws = weighted_speedup(&base, &opt);
        println!("{:<26} {:>16.3}  ({:+.1}%)", name, ws, (ws - 1.0) * 100.0);
    }
}
