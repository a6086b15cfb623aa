//! Quickstart: optimize one application's layout and measure the effect.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the `swim` workload model, runs it on the simulated 8×8 manycore
//! twice — with the original layouts and with the compiler-localized
//! layouts — and prints the four metrics the paper reports.

use hoploc::harness::{RunRequest, RunSpec, Suite};
use hoploc::layout::Granularity;
use hoploc::noc::{L2ToMcMapping, McPlacement};
use hoploc::sim::{Improvement, SimConfig};
use hoploc::workloads::{swim, RunKind, Scale};

fn main() {
    // Table 1's machine (capacity-scaled; see DESIGN.md §7), cache-line
    // interleaving of physical addresses across the four corner MCs.
    let sim = SimConfig {
        granularity: Granularity::CacheLine,
        ..SimConfig::scaled()
    };

    // The user-provided L2-to-MC mapping: the paper's default M1 —
    // quadrant clusters, each bound to its nearest corner controller.
    let mapping = L2ToMcMapping::nearest_cluster(sim.mesh, &McPlacement::Corners);

    let suite = Suite::new(vec![swim(Scale::Bench)], mapping, sim);
    let app = &suite.apps()[0];
    println!(
        "application: {} ({} arrays, {} nests)",
        app.name(),
        app.program.arrays().len(),
        app.program.nests().len()
    );
    let run = |kind| suite.run(&RunRequest::new(RunSpec { app: 0, kind })).stats;

    println!("\nsimulating baseline (original layouts)...");
    let base = run(RunKind::Baseline);
    println!(
        "  exec: {} cycles, off-chip: {} accesses ({:.1}%), avg off-chip hops: {:.1}",
        base.exec_cycles,
        base.offchip_accesses,
        base.offchip_fraction() * 100.0,
        base.net.off_chip.avg_hops()
    );

    println!("\nsimulating optimized (localized layouts)...");
    let opt = run(RunKind::Optimized);
    println!(
        "  exec: {} cycles, off-chip: {} accesses ({:.1}%), avg off-chip hops: {:.1}",
        opt.exec_cycles,
        opt.offchip_accesses,
        opt.offchip_fraction() * 100.0,
        opt.net.off_chip.avg_hops()
    );

    let imp = Improvement::between(&base, &opt);
    println!("\nreductions (optimized vs baseline):");
    println!(
        "  on-chip network latency : {:>6.1}%",
        imp.onchip_net * 100.0
    );
    println!(
        "  off-chip network latency: {:>6.1}%",
        imp.offchip_net * 100.0
    );
    println!("  memory latency          : {:>6.1}%", imp.memory * 100.0);
    println!(
        "  execution time          : {:>6.1}%",
        imp.exec_time * 100.0
    );
}
