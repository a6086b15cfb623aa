//! # hoploc-search
//!
//! Seeded, deterministic design-space search over the three axes the
//! paper fixes by hand: (a) where the four memory controllers attach to
//! the mesh, (b) how L2 clusters map to MCs, and (c) the layout-plan
//! parameters (interleaving granularity, approximation threshold).
//!
//! The optimizer is a two-phase pipeline:
//!
//! 1. **Curated branch-and-bound.** The paper's placements (plus the
//!    quadrant-centre interior placement) are crossed with every
//!    balanced cluster tiling; for each pair, an exact branch-and-bound
//!    ([`balanced_assignment`]) finds the distance-optimal balanced
//!    cluster map. These few dozen points are scored first.
//! 2. **Simulated annealing.** A single sequential Metropolis chain
//!    ([`anneal`]) explores the full space from the phase-1 incumbent —
//!    relocating MCs, retiling, reassigning and swapping cluster MC
//!    sets, and flipping layout-plan parameters.
//!
//! Candidates are scored by the static estimator (`hoploc-est`): the
//! program analysis and the footprint model are built once per search, so
//! a fresh evaluation is one layout customization plus one routing of the
//! footprint to the three totals the objective reads, both in buffers the
//! scorer keeps, after a proposal built in buffers the chain keeps: a
//! handful of allocations per evaluation. At test scale on 2 vCPUs that is
//! ≈ 6 µs of the chain thread's CPU in a fast phase of the host (PR 27);
//! PR 31 cut it by 40 % more. The top-K
//! finalists are *verified* by the cycle simulator against the
//! paper's corner, edge, and diamond placements before any win is
//! reported: [`VerifyRequest`]s compiled by the scorer that ranked them,
//! of which each distinct [`Machine`] is simulated once.
//!
//! The chain is still sequential — the PRNG, the evaluator, the shortlist
//! and the event stream stay on the thread that called [`search_app`]. What
//! runs beside it is the verification: the three paper machines depend on
//! the application and the base configuration alone, so they are compiled
//! first and a helper thread simulates them while the two phases run;
//! when the chain ends, the finalists that equal no paper machine and no
//! earlier finalist join the same list, both threads take whatever
//! simulation neither has started — a baseline or a finalist — and the
//! report is assembled by index. There is no setting for it: on one core
//! the threads are time-sliced and the bytes are the same.
//!
//! Every candidate is legal by construction
//! ([`Candidate::placement`] builds a validated
//! [`hoploc_noc::Placement`]), every search is reproducible from one
//! seed at any `--jobs` count and on any number of cores, and every
//! emitted line (progress events, final report) is a deterministic
//! single-line JSON object.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anneal;
mod bnb;
mod objective;
mod report;
mod space;
mod verify;

pub use anneal::{anneal, Schedule};
pub use bnb::{balanced_assignment, balanced_assignment_brute};
pub use hoploc_est::EstTerms;
pub use objective::Objective;
pub use report::{event_json, text_header, SearchReport, Verified};
pub use space::{curated, propose, Candidate, CandidateKey, APPROX_LEVELS, TILINGS};
pub use verify::{Machine, VerifyRequest};

use hoploc_est::PlacementScorer;
use hoploc_harness::{fnv1a, parallel_map};
use hoploc_layout::Granularity;
use hoploc_noc::{McPlacement, Placement};
use hoploc_ptest::SmallRng;
use hoploc_sim::{Cancel, SimConfig};
use hoploc_workloads::{App, RunKind, Scale};
use std::collections::HashMap;

/// One search's configuration. The base [`SimConfig`] carries the
/// machine (mesh, caches, default granularity) the baselines run under;
/// candidates override its placement and granularity per point.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Base machine configuration.
    pub sim: SimConfig,
    /// Problem scale the apps are built at (reported, and must match
    /// the apps handed to [`search_app`]).
    pub scale: Scale,
    /// Master seed; each app's chain forks deterministically from it.
    pub seed: u64,
    /// Estimator-evaluation budget per app.
    pub budget: u32,
    /// The objective to minimize.
    pub objective: Objective,
    /// How many top candidates to verify with the cycle simulator. A
    /// report always carries a found design, so `0` verifies one finalist,
    /// like `1`.
    pub top_k: usize,
    /// Once set, the chain stops as if its budget were spent (after the
    /// first evaluation, which every report needs) and so do the verifying
    /// simulations; the token's holder discards the report.
    pub cancel: Cancel,
}

/// The master seed of a search that names none.
pub const DEFAULT_SEED: u64 = 0;

/// The per-app estimator-evaluation budget of a search that names none.
pub const DEFAULT_BUDGET: u32 = 400;

impl SearchConfig {
    /// Defaults: [`DEFAULT_SEED`], [`DEFAULT_BUDGET`] evaluations, the
    /// default (`offchip+hops`) objective, 3 verified finalists.
    pub fn new(sim: SimConfig, scale: Scale) -> Self {
        Self {
            sim,
            scale,
            seed: DEFAULT_SEED,
            budget: DEFAULT_BUDGET,
            objective: Objective::default(),
            top_k: 3,
            cancel: Cancel::never(),
        }
    }
}

/// The estimator-backed scorer: caches by candidate key (revisits are
/// free), counts fresh evaluations against the budget, and keeps the
/// top-K distinct candidates for verification.
struct Evaluator<'a> {
    cfg: &'a SearchConfig,
    /// Holds what no candidate can change — the program analysis and the
    /// footprint model — so a fresh evaluation is customize + route only.
    scorer: PlacementScorer<'a>,
    diameter: u16,
    cache: HashMap<CandidateKey, (f64, EstTerms)>,
    evaluated: u32,
    /// `(score, key, candidate)`, ascending, truncated to `top_k`.
    top: Vec<(f64, String, Candidate)>,
}

impl<'a> Evaluator<'a> {
    fn new(app: &'a App, cfg: &'a SearchConfig) -> Self {
        let diameter = (cfg.sim.mesh.width() - 1) + (cfg.sim.mesh.height() - 1);
        Self {
            cfg,
            scorer: PlacementScorer::new(app, &cfg.sim, RunKind::Optimized),
            diameter,
            cache: HashMap::new(),
            evaluated: 0,
            top: Vec::new(),
        }
    }

    /// Scores a candidate whose validated placement is `placement`, or
    /// `None` once the budget is spent or the search is cancelled (cached
    /// revisits stay free).
    fn score(&mut self, c: &Candidate, placement: &Placement) -> Option<f64> {
        let key = c.compact_key();
        if let Some(&(score, _)) = self.cache.get(&key) {
            return Some(score);
        }
        if self.evaluated >= self.cfg.budget || (self.evaluated > 0 && self.cfg.cancel.is_set()) {
            return None;
        }
        self.evaluated += 1;
        let terms = self.scorer.terms(placement, c.granularity, c.approx);
        let score = self
            .cfg
            .objective
            .score(&terms, self.diameter, placement.mc_nodes().len());
        // Keep the verification shortlist sorted and bounded; ties break
        // on the candidate key so the list is seed-deterministic. Nearly
        // every evaluation scores above a full list's last entry and is
        // neither spelled nor kept.
        let keep = self.cfg.top_k.max(1);
        if self.top.len() < keep || score <= self.top[keep - 1].0 {
            let spelled = c.key();
            let pos = self
                .top
                .binary_search_by(|e| {
                    e.0.partial_cmp(&score)
                        .expect("objective scores are finite")
                        .then_with(|| e.1.cmp(&spelled))
                })
                .unwrap_err();
            if pos < keep {
                self.top.insert(pos, (score, spelled, c.clone()));
                self.top.truncate(keep);
            }
        }
        self.cache.insert(key, (score, terms));
        Some(score)
    }

    fn terms_of(&self, c: &Candidate) -> EstTerms {
        self.cache
            .get(&c.compact_key())
            .expect("best candidate was scored through the cache")
            .1
    }
}

/// Searches one application. `emit` receives each progress event as a
/// finished single-line JSON string (best-so-far improvements only, so
/// `best_score` is monotone non-increasing along the stream); the
/// returned report carries the verified outcome.
///
/// Deterministic: the chain's PRNG forks from `cfg.seed` by app *name*,
/// the chain is strictly sequential, and nothing time- or
/// thread-dependent enters the state. The paper baselines simulate beside
/// the chain on a helper thread started and joined in here; results are
/// placed by index, and a panic in any simulation leaves as itself.
pub fn search_app(app: &App, cfg: &SearchConfig, emit: &mut dyn FnMut(String)) -> SearchReport {
    assert!(cfg.budget >= 1, "search needs a budget of at least 1");
    let mesh = cfg.sim.mesh;
    // Forked by name: the chain does not depend on the app's position in
    // the suite or on `--jobs`.
    let mut rng = SmallRng::seed_from_u64(cfg.seed).fork(fnv1a(app.name().as_bytes()));
    let mut ev = Evaluator::new(app, cfg);

    // The paper baselines depend on the application and the base machine
    // alone: compiled first, they are simulated beside the two phases below.
    let papers = [
        McPlacement::Corners,
        McPlacement::EdgeMidpoints,
        McPlacement::Diagonal,
    ]
    .map(|p| VerifyRequest::paper(&cfg.sim, &p).compile(&mut ev.scorer));
    let ((best, best_score), cycles, simulated) =
        verify::verify_beside(app, &cfg.sim, &papers, &cfg.cancel, || {
            // Phase 1: curated branch-and-bound points, best-known first order,
            // each placed in the one placement this phase keeps.
            const LEGAL: &str = "search candidates are legal by construction";
            let start = Candidate::from_named(&mesh, &cfg.sim.placement, cfg.sim.granularity);
            let mut placement = start.placement(&mesh).expect(LEGAL);
            let mut best = start.clone();
            let mut best_score = ev
                .score(&start, &placement)
                .expect("budget >= 1 admits one evaluation");
            emit(event_json(
                app.name(),
                "curated",
                ev.evaluated,
                best_score,
                &best,
            ));
            let phase1_cap = (cfg.budget / 2).max(1);
            for c in curated(&mesh, &[Granularity::CacheLine, Granularity::Page]) {
                if ev.evaluated >= phase1_cap {
                    break;
                }
                c.place_into(&mesh, &mut placement).expect(LEGAL);
                let Some(score) = ev.score(&c, &placement) else {
                    break;
                };
                if score < best_score {
                    best = c;
                    best_score = score;
                    emit(event_json(
                        app.name(),
                        "curated",
                        ev.evaluated,
                        best_score,
                        &best,
                    ));
                }
            }

            // Phase 2: annealing from the incumbent with the remaining budget.
            let remaining = cfg.budget.saturating_sub(ev.evaluated);
            if remaining > 0 {
                let schedule = Schedule::for_budget(remaining);
                // The improvement callback needs the live evaluation count,
                // but the evaluator is exclusively borrowed by the scoring
                // closure — a Cell shares the counter without aliasing the
                // borrow.
                let evaluated_at = std::cell::Cell::new(ev.evaluated);
                let (b, s) = anneal(
                    &mesh,
                    &mut rng,
                    &schedule,
                    best.clone(),
                    best_score,
                    &mut |c, placement| {
                        let r = ev.score(c, placement);
                        evaluated_at.set(ev.evaluated);
                        r
                    },
                    &mut |c, s| emit(event_json(app.name(), "anneal", evaluated_at.get(), s, c)),
                );
                best = b;
                best_score = s;
            }

            // The shortlist, compiled by the scorer that ranked it.
            let finalists = (ev.top.iter())
                .map(|(_, _, c)| VerifyRequest::of(c, &mesh).compile(&mut ev.scorer))
                .collect();
            ((best, best_score), finalists)
        });
    let (finalist_cycles, paper_cycles) = cycles.split_at(ev.top.len());
    let verified: Vec<Verified> = ev
        .top
        .iter()
        .zip(finalist_cycles)
        .map(|((score, _, c), &cycles)| Verified {
            candidate: c.clone(),
            score: *score,
            cycles,
        })
        .collect();
    // Ties on cycles break on the candidate key the shortlist carries.
    let (winner, _) = verified
        .iter()
        .zip(&ev.top)
        .min_by(|(a, (_, a_key, _)), (b, (_, b_key, _))| {
            a.cycles.cmp(&b.cycles).then_with(|| a_key.cmp(b_key))
        })
        .expect("the shortlist keeps at least one of the >= 1 scored candidates");

    let est = ev.terms_of(&best);
    SearchReport {
        app: app.name().to_string(),
        scale: cfg.scale,
        seed: cfg.seed,
        budget: cfg.budget,
        objective: cfg.objective,
        evaluated: ev.evaluated,
        best,
        best_score,
        est,
        found: winner.candidate.clone(),
        found_cycles: winner.cycles,
        verified,
        corners_cycles: paper_cycles[0],
        edge_cycles: paper_cycles[1],
        diamond_cycles: paper_cycles[2],
        simulated,
    }
}

/// Searches many applications, fanning per-app chains across `jobs`
/// threads. Results are in app order and bit-identical at any job
/// count: each app's chain is sequential and seeded by name, and
/// [`parallel_map`] collects by index.
pub fn search_suite(
    apps: &[App],
    cfg: &SearchConfig,
    jobs: usize,
) -> Vec<(SearchReport, Vec<String>)> {
    parallel_map(apps, jobs, |app| {
        let mut events = Vec::new();
        let report = search_app(app, cfg, &mut |e| events.push(e));
        (report, events)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoploc_workloads::{apsi, gafort};

    fn test_cfg(seed: u64, budget: u32) -> SearchConfig {
        let sim = SimConfig {
            granularity: Granularity::CacheLine,
            ..SimConfig::scaled()
        };
        SearchConfig {
            seed,
            budget,
            top_k: 2,
            ..SearchConfig::new(sim, Scale::Test)
        }
    }

    #[test]
    fn search_is_seed_deterministic() {
        let app = gafort(Scale::Test);
        let cfg = test_cfg(7, 40);
        let mut ev_a = Vec::new();
        let a = search_app(&app, &cfg, &mut |e| ev_a.push(e));
        let mut ev_b = Vec::new();
        let b = search_app(&app, &cfg, &mut |e| ev_b.push(e));
        assert_eq!(a, b);
        assert_eq!(ev_a, ev_b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn suite_order_and_jobs_do_not_change_results() {
        let apps = [gafort(Scale::Test), apsi(Scale::Test)];
        let cfg = test_cfg(3, 24);
        let seq = search_suite(&apps, &cfg, 1);
        let par = search_suite(&apps, &cfg, 4);
        assert_eq!(seq, par);
        // Reversing the suite reverses the outputs but not any result.
        let rev_apps = [apps[1].clone(), apps[0].clone()];
        let rev = search_suite(&rev_apps, &cfg, 2);
        assert_eq!(seq[0], rev[1]);
        assert_eq!(seq[1], rev[0]);
    }

    #[test]
    fn report_json_is_single_line_object() {
        let app = gafort(Scale::Test);
        let cfg = test_cfg(1, 16);
        let mut events = Vec::new();
        let r = search_app(&app, &cfg, &mut |e| events.push(e));
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(!json.contains('\n'));
        for e in &events {
            assert!(e.starts_with('{') && !e.contains('\n'));
        }
        assert!(r.verified.len() <= 2 && !r.verified.is_empty());
        assert!(
            r.simulated >= 1 && r.simulated <= r.requested(),
            "{} of {} simulated",
            r.simulated,
            r.requested()
        );
        assert!(!json.contains("simulated"), "the wire report is pinned");
    }

    #[test]
    #[should_panic(expected = "physical memory exhausted")]
    fn a_baseline_that_outgrows_memory_panics_as_itself() {
        // Budget 1 shortlists the start candidate, a paper machine: the only
        // simulations are the helper's, and its panic is the search's.
        let mut cfg = test_cfg(5, 1);
        cfg.sim.memory_bytes = cfg.sim.page_bytes * 4;
        search_app(&gafort(Scale::Test), &cfg, &mut |_| {});
    }

    #[test]
    #[should_panic(expected = "physical memory exhausted")]
    fn a_panic_in_search_suite_leaves_as_itself() {
        let mut cfg = test_cfg(5, 8);
        cfg.sim.memory_bytes = cfg.sim.page_bytes * 4;
        search_suite(&[gafort(Scale::Test), apsi(Scale::Test)], &cfg, 4);
    }

    #[test]
    fn top_k_zero_verifies_one_finalist() {
        let app = gafort(Scale::Test);
        let search = |top_k| {
            let cfg = SearchConfig {
                top_k,
                ..test_cfg(5, 16)
            };
            search_app(&app, &cfg, &mut |_| {})
        };
        let zero = search(0);
        assert_eq!(zero.verified.len(), 1);
        assert_eq!(zero.found, zero.verified[0].candidate);
        assert_eq!(zero, search(1));
    }
}
