//! Property tests for the design-space search: legality of every
//! candidate the move generator can emit, admissibility of the
//! branch-and-bound bound on random instances, monotonicity of the
//! best-so-far progress stream, and safety of reusing one program
//! analysis and one footprint for every candidate of a search.

use hoploc_check::{check_layout, CheckConfig, Severity};
use hoploc_est::{estimate_placement, AppEstimate, EstConfig, Footprint};
use hoploc_layout::{Granularity, PassConfig, ProgramAnalysis};
use hoploc_ptest::{run_cases, SmallRng};
use hoploc_search::{
    balanced_assignment, balanced_assignment_brute, curated, propose, search_app, Candidate,
    EstTerms, Objective, SearchConfig, APPROX_LEVELS, TILINGS,
};
use hoploc_sim::SimConfig;
use hoploc_workloads::{gafort, hpccg, layout_with, swim, RunKind, Scale};

fn base_sim() -> SimConfig {
    SimConfig {
        granularity: Granularity::CacheLine,
        ..SimConfig::scaled()
    }
}

/// A random curated starting point for a walk.
fn random_start(rng: &mut SmallRng, sim: &SimConfig) -> Candidate {
    let all = curated(&sim.mesh, &[Granularity::CacheLine, Granularity::Page]);
    all[rng.usize_in(0..all.len())].clone()
}

#[test]
fn every_reachable_candidate_is_legal_and_checks_clean() {
    // The search only ever emits candidates built by `curated` or by a
    // chain of `propose` moves, so a random walk covers exactly the
    // reachable space. Each sampled point must (a) build a validated
    // placement and (b) produce a layout plan the static verifier
    // accepts with zero errors.
    let sim = base_sim();
    let app = gafort(Scale::Test);
    let cfg = CheckConfig::default();
    run_cases("search.space.legal", 30, |rng| {
        let mut cand = random_start(rng, &sim);
        for step in 0..8 {
            if let Some(next) = propose(rng, &cand, &sim.mesh) {
                cand = next;
            }
            let placement = cand
                .placement(&sim.mesh)
                .expect("moves must only emit legal candidates");
            // Checking the full layout is the expensive half; sample it.
            if step % 4 != 0 {
                continue;
            }
            let layout_sim = SimConfig {
                granularity: cand.granularity,
                ..sim.clone()
            };
            let layout = hoploc_workloads::layout_with(
                &app,
                placement.mapping(),
                &layout_sim,
                RunKind::Optimized,
                cand.approx,
            );
            let errors: Vec<String> = check_layout(&app.program, &layout, "search", &cfg)
                .into_iter()
                .filter(|d| d.severity() >= Severity::Error)
                .map(|d| format!("{d:?}"))
                .collect();
            assert!(
                errors.is_empty(),
                "candidate {} must check clean, found:\n{}",
                cand.key(),
                errors.join("\n")
            );
        }
    });
}

#[test]
fn bnb_bound_is_admissible_on_random_instances() {
    // Pruned branch-and-bound must return exactly the brute-force
    // optimum for random MC placements and every supported tiling.
    let mesh = base_sim().mesh;
    run_cases("search.bnb.admissible", 25, |rng| {
        let mut nodes = Vec::new();
        while nodes.len() < 4 {
            let n = hoploc_noc::NodeId(rng.u16_in(0..64));
            if !nodes.contains(&n) {
                nodes.push(n);
            }
        }
        let (cw, ch, k) = TILINGS[rng.usize_in(0..TILINGS.len())];
        let pruned = balanced_assignment(&mesh, &nodes, cw, ch, k);
        let brute = balanced_assignment_brute(&mesh, &nodes, cw, ch, k);
        match (pruned, brute) {
            (Some((_, a)), Some((_, b))) => {
                assert_eq!(a, b, "pruning must not cut the optimum ({cw}x{ch} k={k})");
            }
            (None, None) => {}
            (a, b) => panic!("feasibility must agree: {a:?} vs {b:?}"),
        }
    });
}

#[test]
fn best_score_is_monotone_non_increasing_along_the_stream() {
    // Progress events are best-so-far improvements, so the emitted
    // scores must strictly decrease, end at the report's final score,
    // and every embedded candidate must be legal.
    fn field_f64(event: &str, key: &str) -> f64 {
        let needle = format!("\"{key}\":");
        let start = event.find(&needle).expect("event carries the field") + needle.len();
        let rest = &event[start..];
        let end = rest
            .find([',', '}'])
            .expect("field is followed by a delimiter");
        rest[..end].parse().expect("field parses as a number")
    }
    let sim = base_sim();
    let app = gafort(Scale::Test);
    run_cases("search.stream.monotone", 6, |rng| {
        let cfg = SearchConfig {
            seed: rng.next_u64(),
            budget: 24,
            objective: Objective::default(),
            ..SearchConfig::new(sim.clone(), Scale::Test)
        };
        let mut events = Vec::new();
        let report = search_app(&app, &cfg, &mut |e| events.push(e));
        assert!(!events.is_empty(), "the starting point is always emitted");
        let scores: Vec<f64> = events.iter().map(|e| field_f64(e, "best_score")).collect();
        for pair in scores.windows(2) {
            assert!(
                pair[1] < pair[0],
                "best-so-far must strictly improve: {scores:?}"
            );
        }
        assert_eq!(
            *scores.last().expect("non-empty"),
            field_f64(&report.to_json(), "best_score"),
            "the last event must carry the final best score"
        );
        let evals: Vec<f64> = events.iter().map(|e| field_f64(e, "evaluated")).collect();
        for pair in evals.windows(2) {
            assert!(
                pair[1] >= pair[0],
                "evaluation counts must be non-decreasing: {evals:?}"
            );
        }
    });
}

#[test]
fn reused_analysis_and_footprint_score_like_a_fresh_estimate() {
    // A search builds one `ProgramAnalysis` and one `Footprint` per app
    // and customizes / routes them for every candidate. Along a random
    // walk that must give the layout a fresh pass compiles, byte for
    // byte, and the score a fresh estimate gets, bit for bit — for an app
    // whose indexed arrays make the approximation threshold matter
    // (hpccg) and one without index tables (swim).
    fn terms(e: &AppEstimate) -> EstTerms {
        EstTerms {
            offchip: e.offchip_fraction(),
            hops: e.avg_offchip_hops,
            queue: e.queue_pressure,
        }
    }
    let sim = base_sim();
    let diameter = (sim.mesh.width() - 1) + (sim.mesh.height() - 1);
    // Weigh the queue term too, so every estimator output reaches the score.
    let objective = Objective {
        queue: 1.0,
        ..Objective::default()
    };
    for app in [hpccg(Scale::Test), swim(Scale::Test)] {
        let analysis = ProgramAnalysis::of(&app.program);
        let footprint = Footprint::of(&app, &EstConfig::from_sim(&sim));
        run_cases("search.reuse", 30, |rng| {
            let mut cand = random_start(rng, &sim);
            for step in 0..8 {
                if let Some(next) = propose(rng, &cand, &sim.mesh) {
                    cand = next;
                }
                // Every case visits both granularities and all thresholds.
                cand.granularity = [Granularity::CacheLine, Granularity::Page][step % 2];
                cand.approx = APPROX_LEVELS[step % 3];
                let placement = cand.placement(&sim.mesh).expect("legal candidate");
                let mapping = placement.mapping();
                let cell = SimConfig {
                    granularity: cand.granularity,
                    placement: placement.mc_placement().clone(),
                    ..sim.clone()
                };

                let pass = PassConfig {
                    granularity: cand.granularity,
                    line_bytes: cell.l2.line_bytes as u32,
                    page_bytes: cell.page_bytes as u32,
                    approx_threshold: cand.approx,
                    ..PassConfig::default()
                };
                let layout = analysis.customize(&app.program, mapping, pass);
                let fresh = layout_with(&app, mapping, &cell, RunKind::Optimized, cand.approx);
                assert_eq!(
                    format!("{layout:?}"),
                    format!("{fresh:?}"),
                    "{}: reused analysis compiled another layout for {}",
                    app.name(),
                    cand.key()
                );

                let cfg = EstConfig::from_sim(&cell);
                let reused = footprint.route(&layout, mapping, RunKind::Optimized, &cfg);
                let fresh =
                    estimate_placement(&app, &placement, &cell, RunKind::Optimized, cand.approx);
                let n_mcs = placement.mc_nodes().len();
                assert_eq!(
                    objective.score(&reused, diameter, n_mcs).to_bits(),
                    objective.score(&fresh, diameter, n_mcs).to_bits(),
                    "{}: reused footprint scored {} differently",
                    app.name(),
                    cand.key()
                );
                assert_eq!(terms(&reused), terms(&fresh));
            }
        });
    }
}
