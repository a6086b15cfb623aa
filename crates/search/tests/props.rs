//! Property tests for the design-space search: legality of every
//! candidate the move generator can emit, a compact cache key that names
//! the candidates the spelled key names, the branch-and-bound's answer
//! against brute force on random instances, monotonicity of the
//! best-so-far progress stream, safety of reusing one program analysis and
//! one footprint for every candidate of a search, soundness of the key
//! verification shares simulations by, and that running the verifying
//! simulations beside the chain leaves no trace in what a search returns.

use hoploc_check::{check_layout, CheckConfig, Severity};
use hoploc_est::{estimate_placement, AppEstimate, EstConfig, Footprint, PlacementScorer};
use hoploc_harness::run_plan;
use hoploc_layout::{Granularity, L2Mode, PassConfig, ProgramAnalysis, ProgramLayout};
use hoploc_noc::{McId, McPlacement};
use hoploc_ptest::{run_cases, SmallRng};
use hoploc_search::{
    balanced_assignment, balanced_assignment_brute, curated, propose, search_app, search_suite,
    Candidate, CandidateKey, EstTerms, Objective, SearchConfig, VerifyRequest, APPROX_LEVELS,
    TILINGS,
};
use hoploc_sim::{AddressSpace, Cancel, RunStats, SimConfig, TraceWorkload};
use hoploc_workloads::{
    fma3d, gafort, generate_traces, hpccg, layout_with, swim, App, RunKind, Scale, TraceGen,
};
use std::collections::HashMap;

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

/// The evaluator caches scores by [`Candidate::compact_key`] and breaks
/// shortlist ties on [`Candidate::key`], so the two must name the same
/// candidates: equal exactly when the other is, over the curated list, the
/// paper starts (whose threshold is `PassConfig::default()`'s) and long
/// `propose` walks — all of which pack — and over shapes a search never
/// builds, which keep their spelled key.
#[test]
fn compact_key_is_equal_exactly_when_the_key_is() {
    let sim = base_sim();
    let mesh = sim.mesh;
    let mut points = curated(&mesh, &[Granularity::CacheLine, Granularity::Page]);
    for named in [
        McPlacement::Corners,
        McPlacement::EdgeMidpoints,
        McPlacement::Diagonal,
    ] {
        for granularity in [Granularity::CacheLine, Granularity::Page] {
            points.push(Candidate::from_named(&mesh, &named, granularity));
        }
    }
    let mut rng = SmallRng::seed_from_u64(27);
    for _ in 0..3 {
        let mut cand = random_start(&mut rng, &sim);
        let mut walked = Vec::new();
        for _ in 0..2000 {
            if let Some(next) = propose(&mut rng, &cand, &mesh) {
                walked.push(next.clone());
                cand = next;
            }
        }
        for level in APPROX_LEVELS {
            assert!(
                walked.iter().any(|c| c.approx == level),
                "every walk must reach threshold {level}"
            );
        }
        points.extend(walked);
    }
    for c in &points {
        assert!(
            matches!(c.compact_key(), CandidateKey::Packed(_)),
            "{} must pack",
            c.key()
        );
    }
    // Twins that spell alike from different bits, ties that round to even,
    // spellings too long to pack, too many controllers, and the empty
    // cluster lists two shapes spell alike.
    let start = points[0].clone();
    let with_approx = |approx| Candidate {
        approx,
        ..start.clone()
    };
    points.extend(
        [
            0.3,
            0.1 + 0.2,
            0.125,
            0.12,
            0.135,
            0.145,
            -0.001,
            0.0,
            9.995,
            12.5,
        ]
        .map(with_approx),
    );
    points.push(Candidate {
        mc_nodes: (0..16).map(hoploc_noc::NodeId).collect(),
        ..start.clone()
    });
    for assignments in [vec![], vec![vec![]], vec![vec![McId(0)], vec![]]] {
        points.push(Candidate {
            assignments,
            ..start.clone()
        });
    }
    let mut by_key: HashMap<String, CandidateKey> = HashMap::new();
    let mut by_compact: HashMap<CandidateKey, String> = HashMap::new();
    for c in &points {
        let (key, compact) = (c.key(), c.compact_key());
        let seen = by_key.entry(key.clone()).or_insert(compact.clone());
        assert_eq!(*seen, compact, "{key}: one key, two compact keys");
        let seen = by_compact.entry(compact).or_insert(key.clone());
        assert_eq!(*seen, key, "two keys, one compact key");
    }
    assert!(by_key.len() > 1000, "only {} distinct keys", by_key.len());
}

#[test]
fn bnb_equals_brute_force_under_every_tiling() {
    // Pruned branch-and-bound must return the brute-force answer itself —
    // the same cost and, among equal-cost maps, the same one — for random
    // 4-MC placements under all eight tilings: a retile move's candidate,
    // and with it the chain, is that map.
    let mesh = base_sim().mesh;
    run_cases("search.bnb.brute", 40, |rng| {
        let mut nodes = Vec::new();
        while nodes.len() < 4 {
            let n = hoploc_noc::NodeId(rng.u16_in(0..mesh.num_nodes() as u16));
            if !nodes.contains(&n) {
                nodes.push(n);
            }
        }
        for (cw, ch, k) in TILINGS {
            assert_eq!(
                balanced_assignment(&mesh, &nodes, cw, ch, k),
                balanced_assignment_brute(&mesh, &nodes, cw, ch, k),
                "{nodes:?} under {cw}x{ch} k={k}"
            );
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
        // One plan per L2 organization, refilled for every candidate of
        // every case, as a scorer's is.
        let mut kept = [ProgramLayout::default(), ProgramLayout::default()];
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
                for (kept, l2_mode) in kept.iter_mut().zip([L2Mode::Private, L2Mode::Shared]) {
                    let pass = PassConfig { l2_mode, ..pass };
                    analysis.customize_into(&app.program, mapping, pass, kept);
                    let fresh = analysis.customize(&app.program, mapping, pass);
                    assert_eq!(
                        format!("{kept:?}"),
                        format!("{fresh:?}"),
                        "{}: a refilled {l2_mode:?} plan differs from a fresh one for {}",
                        app.name(),
                        cand.key()
                    );
                    assert!(kept.places_like(&fresh));
                }

                let cfg = EstConfig::from_sim(&cell);
                let reused = footprint.route(&layout, mapping, RunKind::Optimized, &cfg);
                let fresh =
                    estimate_placement(&app, &placement, &cell, RunKind::Optimized, cand.approx);
                let n_mcs = placement.mc_nodes().len();
                assert_eq!(
                    objective.score(&terms(&reused), diameter, n_mcs).to_bits(),
                    objective.score(&terms(&fresh), diameter, n_mcs).to_bits(),
                    "{}: reused footprint scored {} differently",
                    app.name(),
                    cand.key()
                );
                assert_eq!(terms(&reused), terms(&fresh));
            }
        });
    }
}

/// What one candidate's verifying simulation is made from, built the way a
/// suite of its own builds it — fresh analysis, fresh compile — and with
/// nothing taken from the search's scorer: the trace, and the desired-page
/// map that (for the optimized run) is the page policy.
fn simulator_inputs(
    app: &App,
    sim: &SimConfig,
    c: &Candidate,
) -> (TraceWorkload, HashMap<u64, McId>) {
    let placement = c.placement(&sim.mesh).expect("legal candidate");
    let cell = SimConfig {
        granularity: c.granularity,
        placement: placement.mc_placement().clone(),
        ..sim.clone()
    };
    let layout = layout_with(
        app,
        placement.mapping(),
        &cell,
        RunKind::Optimized,
        c.approx,
    );
    let space = AddressSpace::build(&app.program, &layout, 0);
    let desired = space.desired_page_mcs(&app.program, &layout, cell.page_bytes);
    let gen = TraceGen {
        threads_per_core: 1,
        ..app.gen
    };
    let workload = generate_traces(&app.program, &layout, &space, &gen);
    (workload, desired)
}

/// The whole run of one candidate on a plan of its own: a fresh analysis
/// and compile, then the one-shot.
fn simulate_alone(app: &App, sim: &SimConfig, c: &Candidate) -> RunStats {
    let placement = c.placement(&sim.mesh).expect("legal candidate");
    let cell = SimConfig {
        granularity: c.granularity,
        ..sim.clone()
    };
    let kind = RunKind::Optimized;
    let plan = layout_with(app, placement.mapping(), &cell, kind, c.approx);
    run_plan(app, &plan, &placement, &cell, kind, &Cancel::never())
}

/// Equal [`hoploc_search::Machine`]s are one simulation: along random
/// walks of `propose` moves (MC relocations, retilings, reassignments,
/// swaps, granularity and threshold flips), whenever the machines two
/// neighbouring candidates compile to compare equal, two independently
/// built suites replay the same trace under the same page policy on the
/// same mapping and granularity and return the same `RunStats`, field for
/// field — so a pair that differs in any `Simulator::new` input has unequal
/// machines.
///
/// The converse is deliberately not a property. Unequal inputs can give
/// equal results — cluster maps that differ only by a relabelling no
/// thread's data sees finish in the same cycle (about three more
/// simulations per thirteen searches coincide that way) — and those are
/// simulated each: the key compares inputs, never outcomes.
#[test]
fn equal_machines_replay_one_trace_on_one_simulator() {
    let sim = base_sim();
    let (mut shared, mut distinct) = (0, 0);
    // hpccg's index tables put the threshold between plans; swim has none.
    for app in [hpccg(Scale::Test), swim(Scale::Test)] {
        let mut scorer = PlacementScorer::new(&app, &sim, RunKind::Optimized);
        run_cases("search.verify.key", 5, |rng| {
            let mut a = random_start(rng, &sim);
            for step in 0..5 {
                let b = match step {
                    // Every walk ends on a threshold twin, the move that
                    // most often keeps the compiled plan.
                    4 => Candidate {
                        approx: *APPROX_LEVELS
                            .iter()
                            .find(|&&l| l != a.approx)
                            .expect("three levels"),
                        ..a.clone()
                    },
                    _ => match propose(rng, &a, &sim.mesh) {
                        Some(b) => b,
                        None => continue,
                    },
                };
                let ma = VerifyRequest::of(&a, &sim.mesh).compile(&mut scorer);
                let mb = VerifyRequest::of(&b, &sim.mesh).compile(&mut scorer);
                if ma == mb {
                    shared += 1;
                    let at = format!("{}: {} vs {}", app.name(), a.key(), b.key());
                    assert_eq!(
                        a.placement(&sim.mesh).expect("legal").mapping(),
                        b.placement(&sim.mesh).expect("legal").mapping(),
                        "{at}"
                    );
                    assert_eq!(a.granularity, b.granularity, "{at}");
                    let (trace_a, pages_a) = simulator_inputs(&app, &sim, &a);
                    let (trace_b, pages_b) = simulator_inputs(&app, &sim, &b);
                    assert!(trace_a == trace_b, "{at}: traces differ");
                    assert_eq!(pages_a, pages_b, "{at}");
                    assert_eq!(
                        simulate_alone(&app, &sim, &a),
                        simulate_alone(&app, &sim, &b),
                        "{at}"
                    );
                } else {
                    distinct += 1;
                }
                a = b;
            }
        });
    }
    assert!(
        shared >= 8 && distinct >= 8,
        "the walks must meet both outcomes: {shared} equal, {distinct} unequal pairs"
    );
}

#[test]
fn the_start_candidate_is_its_paper_placements_baseline_machine() {
    // `search_app` starts from `Candidate::from_named` and verifies
    // `VerifyRequest::paper`: built apart, they must be one machine, or a
    // search whose start point reaches the shortlist simulates it twice.
    let sim = base_sim();
    let app = gafort(Scale::Test);
    let mut scorer = PlacementScorer::new(&app, &sim, RunKind::Optimized);
    let paper = [
        McPlacement::Corners,
        McPlacement::EdgeMidpoints,
        McPlacement::Diagonal,
    ];
    let baselines: Vec<_> = paper
        .iter()
        .map(|p| VerifyRequest::paper(&sim, p).compile(&mut scorer))
        .collect();
    for (i, named) in paper.iter().enumerate() {
        let start = Candidate::from_named(&sim.mesh, named, sim.granularity);
        assert_eq!(start.approx, PassConfig::default().approx_threshold);
        let machine = VerifyRequest::of(&start, &sim.mesh).compile(&mut scorer);
        for (j, baseline) in baselines.iter().enumerate() {
            assert_eq!(machine == *baseline, i == j, "{named:?} vs {:?}", paper[j]);
        }
    }
}

/// The helper thread's schedule cannot leak: a search run twenty times over,
/// and again as one of four side by side, is one report, one JSON line and
/// one event list. gafort and fma3d shortlist duplicates of one machine, so
/// the caller and the helper also race for the same few finalists.
#[test]
fn repeated_and_concurrent_searches_return_one_report() {
    let apps = [gafort(Scale::Test), fma3d(Scale::Test)];
    let cfg = SearchConfig {
        budget: 200,
        ..SearchConfig::new(base_sim(), Scale::Test)
    };
    for app in &apps {
        let mut want_events = Vec::new();
        let want = search_app(app, &cfg, &mut |e| want_events.push(e));
        for rep in 0..20 {
            let mut events = Vec::new();
            let got = search_app(app, &cfg, &mut |e| events.push(e));
            assert_eq!(got, want, "{}: repetition {rep}", app.name());
            assert_eq!(got.to_json(), want.to_json(), "{}", app.name());
            assert_eq!(events, want_events, "{}: repetition {rep}", app.name());
        }
        let four = [app.clone(), app.clone(), app.clone(), app.clone()];
        for (got, events) in search_suite(&four, &cfg, 4) {
            assert_eq!(got, want, "{}: under jobs = 4", app.name());
            assert_eq!(got.to_json(), want.to_json(), "{}", app.name());
            assert_eq!(events, want_events, "{}: under jobs = 4", app.name());
        }
    }
}
