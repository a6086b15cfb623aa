//! Resilience sweep: execution-cycle inflation of the M1 and M2 layouts
//! versus the baseline layout as seeded fault intensity rises through the
//! [`FaultRates::at_level`] ladder (level 0 = quiet machine, level 3 adds
//! the first whole-MC outage, level 6 = severe).
//!
//! Each row pools the full benchmark-scale suite: per app the plan is
//! generated from `SEED + level·1000 + app` with the placement horizon
//! matched to that app's clean run length, so every level's windows land
//! inside the run. Everything is seeded — the same binary prints the same
//! bytes on every invocation (level 0 is the built-in check: its plans are
//! empty, so its inflation must print as exactly +0.00%).
//!
//! Run with `cargo bench --bench resilience`; shift the plan population
//! with `HOPLOC_RESILIENCE_SEED`.

use hoploc_bench::{banner, bench_suite, m1, m2, standard_config};
use hoploc_fault::{FaultPlan, FaultRates};
use hoploc_harness::{default_jobs, fault_topo, parallel_map, RunRequest, RunSpec, Suite};
use hoploc_layout::Granularity;
use hoploc_sim::RunStats;
use hoploc_workloads::RunKind;

fn seed() -> u64 {
    std::env::var("HOPLOC_RESILIENCE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// One arm of the comparison: a suite under a mapping, run as `kind`.
struct Arm<'a> {
    label: &'static str,
    suite: &'a Suite,
    kind: RunKind,
    /// Clean (fault-free) stats per app, the inflation denominator and the
    /// per-app plan horizon.
    clean: Vec<RunStats>,
}

impl<'a> Arm<'a> {
    fn new(label: &'static str, suite: &'a Suite, kind: RunKind) -> Arm<'a> {
        let clean = suite
            .run_all(&suite.full_matrix(&[kind]), default_jobs())
            .into_iter()
            .map(|r| r.stats)
            .collect();
        Arm {
            label,
            suite,
            kind,
            clean,
        }
    }

    /// Pooled faulted stats at `level`: per-app seeded plans, fanned across
    /// workers, summed over the suite.
    fn at_level(&self, level: u32, seed: u64) -> (f64, u64, u64, u64) {
        let topo = fault_topo(self.suite.sim());
        let apps: Vec<usize> = (0..self.suite.apps().len()).collect();
        let faulted = parallel_map(&apps, default_jobs(), |&app| {
            let horizon = self.clean[app].exec_cycles.max(1);
            let rates = FaultRates::at_level(level).with_horizon(horizon);
            let plan = FaultPlan::from_seed(seed + level as u64 * 1000 + app as u64, &topo, &rates);
            let spec = RunSpec {
                app,
                kind: self.kind,
            };
            self.suite
                .run(&RunRequest::new(spec).with_faults(&plan))
                .stats
        });
        let clean_cyc: u64 = self.clean.iter().map(|s| s.exec_cycles).sum();
        let fault_cyc: u64 = faulted.iter().map(|s| s.exec_cycles).sum();
        let retries: u64 = faulted
            .iter()
            .flat_map(|s| s.mc.iter())
            .map(|m| m.retries)
            .sum();
        let drops: u64 = faulted.iter().map(|s| s.dropped_requests).sum();
        let rehomed: u64 = faulted.iter().map(|s| s.rehomed_requests).sum();
        let inflation = (fault_cyc as f64 / clean_cyc.max(1) as f64 - 1.0) * 100.0;
        (inflation, retries, drops, rehomed)
    }
}

fn main() {
    banner(
        "Resilience",
        "exec-cycle inflation under rising fault intensity: baseline vs M1 vs M2",
    );
    let seed = seed();
    let sim = standard_config(Granularity::CacheLine);
    let s1 = bench_suite(sim.clone(), m1(sim.mesh));
    let s2 = bench_suite(sim.clone(), m2(sim.mesh));
    let arms = [
        Arm::new("baseline", &s1, RunKind::Baseline),
        Arm::new("M1", &s1, RunKind::Optimized),
        Arm::new("M2", &s2, RunKind::Optimized),
    ];
    println!(
        "plan seed {seed}; suite pooled over {} apps",
        s1.apps().len()
    );
    for arm in &arms {
        let pooled: u64 = arm.clean.iter().map(|s| s.exec_cycles).sum();
        println!("  {:<8} clean pooled exec: {pooled} cycles", arm.label);
    }
    println!(
        "{:<6} {:>10} {:>10} {:>10} {:>9} {:>7} {:>9}",
        "level", "baseline", "M1", "M2", "retries", "drops", "re-homed"
    );
    for level in 0..=6u32 {
        let rows: Vec<_> = arms.iter().map(|arm| arm.at_level(level, seed)).collect();
        // The operational counters are reported for the M1 arm (the
        // paper's default mapping); the other arms see the same plan
        // volume by construction.
        let (_, retries, drops, rehomed) = rows[1];
        println!(
            "{:<6} {:>9.2}% {:>9.2}% {:>9.2}% {:>9} {:>7} {:>9}",
            level, rows[0].0, rows[1].0, rows[2].0, retries, drops, rehomed
        );
    }
}
