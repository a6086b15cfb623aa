//! A search's chain allocates a bounded amount per fresh evaluation: the
//! layout pass fills a plan the scorer keeps, proposals reuse the
//! candidate and placement they replace, and routing runs in buffers kept
//! across the search — so doubling a search's budget adds at most a few
//! allocations per extra evaluation (cache and shortlist growth, the
//! occasional new best), not one per array, cluster and table.
//!
//! Counted with a global allocator (`counting_alloc`), so this binary
//! holds exactly one test. The count covers the verifying simulations
//! too; they are the same three paper machines and at most `top_k`
//! finalists at either budget.

use hoploc::layout::Granularity;
use hoploc::search::{search_app, SearchConfig};
use hoploc::sim::SimConfig;
use hoploc::workloads::{gafort, hpccg, Scale};

mod counting_alloc;

/// Allocations per extra fresh evaluation a doubled budget may add.
const PER_EVALUATION: u64 = 12;

#[test]
fn a_search_allocates_little_per_fresh_evaluation() {
    let sim = SimConfig {
        granularity: Granularity::CacheLine,
        ..SimConfig::scaled()
    };
    for app in [gafort(Scale::Test), hpccg(Scale::Test)] {
        let search = |budget| {
            let cfg = SearchConfig {
                seed: 7,
                budget,
                ..SearchConfig::new(sim.clone(), Scale::Test)
            };
            let (allocated, report) =
                counting_alloc::allocated_during(|| search_app(&app, &cfg, &mut |_| {}));
            (allocated.calls, u64::from(report.evaluated))
        };
        let (small_allocs, small_evals) = search(400);
        let (large_allocs, large_evals) = search(800);
        let name = app.name();
        assert!(
            large_evals > small_evals,
            "{name}: a doubled budget must evaluate more ({small_evals} → {large_evals})"
        );
        let extra = large_allocs.saturating_sub(small_allocs);
        let per_eval = extra as f64 / (large_evals - small_evals) as f64;
        eprintln!(
            "{name}: {small_allocs} allocations for {small_evals} evaluations, \
             {large_allocs} for {large_evals}: {per_eval:.1} per extra evaluation"
        );
        assert!(
            extra <= PER_EVALUATION * (large_evals - small_evals),
            "{name}: {extra} extra allocations for {} extra evaluations ({per_eval:.1} each)",
            large_evals - small_evals
        );
    }
}
