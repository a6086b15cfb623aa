//! Figure 13: spatial distribution of off-chip accesses destined for MC1,
//! for apsi, original vs optimized. In the original case requests come
//! from all over the chip; optimized, they skew toward the nearby
//! (top-left) quadrant.
//!
//! The map is read off the observability layer's `sim.node_mc_requests`
//! counter family ([`ObsReport::mc_request_shares`]), which mirrors
//! `RunStats::node_mc_requests` exactly — same rows as the pre-obs
//! version of this harness.

use hoploc_bench::{banner, m1, recorded_matrix, standard_config};
use hoploc_harness::Suite;
use hoploc_layout::Granularity;
use hoploc_obs::ObsReport;
use hoploc_workloads::{apsi, RunKind, Scale};

fn print_map(label: &str, report: &ObsReport, width: usize) {
    println!("\n{label}: share of MC1's requests from each node (x100)");
    let shares = report.mc_request_shares(0);
    for y in 0..shares.len() / width {
        for x in 0..width {
            print!("{:>5.1}", shares[y * width + x] * 100.0);
        }
        println!();
    }
    // Quadrant concentration: how much of MC1's traffic originates in its
    // own (top-left) quadrant.
    let mut own = 0.0;
    for y in 0..width / 2 {
        for x in 0..width / 2 {
            own += shares[y * width + x];
        }
    }
    println!(
        "top-left quadrant share of MC1 traffic: {:.1}%",
        own * 100.0
    );
}

fn main() {
    banner(
        "Figure 13",
        "apsi: node-wise distribution of accesses to MC1",
    );
    let sim = standard_config(Granularity::CacheLine);
    let mapping = m1(sim.mesh);
    let width = sim.mesh.width() as usize;
    let s = Suite::new(vec![apsi(Scale::Bench)], mapping, sim);
    let reqs = recorded_matrix(&s, &[RunKind::Baseline, RunKind::Optimized]);
    let records = s.run_all(&reqs, 2);
    for (title, r) in ["ORIGINAL", "OPTIMIZED"].into_iter().zip(&records) {
        let report = r.report.as_ref().expect("every cell was recorded");
        print_map(title, report, width);
    }
}
