//! Exploring the locality-vs-parallelism design space of §4: L2-to-MC
//! mappings, the compiler's mapping-selection analysis, and controller
//! placements.
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use hoploc::harness::Suite;
use hoploc::layout::{mapping_cost, select_mapping, Granularity};
use hoploc::noc::{L2ToMcMapping, McPlacement, Mesh};
use hoploc::sim::{RunStats, SimConfig};
use hoploc::workloads::{fma3d, wupwise, RunKind, Scale};

fn main() {
    let mesh = Mesh::new(8, 8);
    let m1 = L2ToMcMapping::nearest_cluster(mesh, &McPlacement::Corners);
    let m2 = L2ToMcMapping::halves(mesh, &McPlacement::Corners);

    println!("--- mapping geometry ---");
    for (name, m) in [("M1 (quadrants, k=1)", &m1), ("M2 (halves, k=2)", &m2)] {
        println!(
            "{name}: {} clusters x {} cores, avg distance-to-MC {:.2} hops, MLP degree {}",
            m.num_clusters(),
            m.cores_per_cluster(),
            m.avg_distance_to_mc(),
            m.mlp_degree()
        );
    }

    println!("\n--- compiler mapping selection (§4) ---");
    let machine = SimConfig::scaled();
    let (noc, banks) = (&machine.noc, machine.mc.banks);
    let candidates = [m1.clone(), m2.clone()];
    for app in [wupwise(Scale::Bench), fma3d(Scale::Bench)] {
        let c1 = mapping_cost(&m1, &app.profile, noc, banks);
        let c2 = mapping_cost(&m2, &app.profile, noc, banks);
        let pick = select_mapping(&candidates, &app.profile, noc, banks);
        println!(
            "{:<8} estimated cost: M1 {:>6.1}cy, M2 {:>6.1}cy -> compiler picks {}",
            app.name(),
            c1,
            c2,
            if pick == 0 { "M1" } else { "M2" }
        );
    }

    println!("\n--- measured: MC placements (Figure 26) ---");
    // One single-app suite per placement; base and optimized run in
    // parallel inside each.
    let saving = |suite: &Suite| -> f64 {
        let recs = suite.run_all(
            &suite.full_matrix(&[RunKind::Baseline, RunKind::Optimized]),
            2,
        );
        RunStats::reduction(
            recs[1].stats.exec_cycles as f64,
            recs[0].stats.exec_cycles as f64,
        ) * 100.0
    };
    for (name, placement) in [
        ("P1 corners", McPlacement::Corners),
        ("P2 edge midpoints", McPlacement::EdgeMidpoints),
        ("P3 diagonal", McPlacement::Diagonal),
    ] {
        let sim = SimConfig {
            granularity: Granularity::CacheLine,
            placement: placement.clone(),
            ..SimConfig::scaled()
        };
        let mapping = L2ToMcMapping::nearest_cluster(mesh, &placement);
        let suite = Suite::new(vec![wupwise(Scale::Bench)], mapping, sim);
        println!(
            "{name:<18} avg distance {:.2} hops, wupwise exec saving {:>5.1}%",
            suite.mapping().avg_distance_to_mc(),
            saving(&suite)
        );
    }
}
