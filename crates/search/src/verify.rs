//! Verification: the cycle simulations a search's report rests on.
//!
//! A search asks for one simulation per finalist and one per paper
//! placement — a list of [`VerifyRequest`]s. Each is compiled to a
//! [`Machine`] by the search's own scorer, requests whose machines are
//! equal form a group, one machine per group is simulated, and every
//! request reads its group's completion time. The report is what
//! simulating each request on its own would give; only the work is shared,
//! and only its timing overlapped: the paper machines depend on the
//! application and the base configuration alone, so a helper thread
//! simulates them while the calling thread runs the chain that produces
//! the finalists, and once the chain is done both threads take the
//! simulations neither has started from one list ([`verify_beside`], on
//! the harness fan-out [`pull_beside`] at two threads).

use crate::space::Candidate;
use hoploc_est::PlacementScorer;
use hoploc_harness::{pull_beside, run_plan};
use hoploc_layout::{Granularity, PassConfig, ProgramLayout};
use hoploc_noc::{McPlacement, Mesh, Placement};
use hoploc_sim::{Cancel, SimConfig};
use hoploc_workloads::{App, RunKind};

/// One cycle simulation a search asks for: the optimized run of its
/// application under a placement and a pair of layout-plan parameters.
#[derive(Clone, Debug)]
pub struct VerifyRequest {
    /// MC attach nodes and cluster map.
    pub placement: Placement,
    /// Physical interleaving granularity of the machine and of the plan.
    pub granularity: Granularity,
    /// Approximation threshold the plan is compiled under.
    pub approx: f64,
}

impl VerifyRequest {
    /// The request that verifies a candidate: its own geometry and its own
    /// plan parameters, so the simulation replays what the estimator scored.
    pub fn of(c: &Candidate, mesh: &Mesh) -> Self {
        Self {
            placement: c
                .placement(mesh)
                .expect("search candidates are legal by construction"),
            granularity: c.granularity,
            approx: c.approx,
        }
    }

    /// The request for one of the paper's named placements on the base
    /// machine `sim`: nearest-cluster M1 mapping, `sim`'s granularity, the
    /// layout pass's default threshold.
    pub fn paper(sim: &SimConfig, named: &McPlacement) -> Self {
        Self {
            placement: Placement::nearest(sim.mesh, named),
            granularity: sim.granularity,
            approx: PassConfig::default().approx_threshold,
        }
    }

    /// Compiles the request's layout plan with `scorer` — which has
    /// already analyzed the program, and whose machine must be the
    /// search's base configuration.
    pub fn compile(self, scorer: &mut PlacementScorer<'_>) -> Machine {
        let layout = scorer.plan(&self.placement, self.granularity, self.approx);
        Machine {
            placement: self.placement,
            granularity: self.granularity,
            layout,
        }
    }
}

/// A compiled [`VerifyRequest`]: what one of a search's simulations is
/// constructed from beyond the program and the base [`SimConfig`] all of
/// them share.
///
/// Equality is the search's grouping key — equal machines are simulated
/// once. It compares exactly what `Simulator::new` and the trace are made
/// from: the L2-to-MC mapping (which carries the mesh and the MC attach
/// nodes, all the simulator reads of `SimConfig::placement`), the
/// granularity (the one other field a request overrides in the base
/// config), and the compiled plan as far as address-space construction,
/// the desired-page map and trace generation read it
/// ([`ProgramLayout::places_like`]). The approximation threshold is not
/// compared: it steers the compilation, and two thresholds that compile to
/// the same plan are the same machine.
#[derive(Debug)]
pub struct Machine {
    placement: Placement,
    granularity: Granularity,
    layout: ProgramLayout,
}

impl PartialEq for Machine {
    fn eq(&self, other: &Self) -> bool {
        self.placement.mapping() == other.placement.mapping()
            && self.granularity == other.granularity
            && self.layout.places_like(&other.layout)
    }
}

impl Machine {
    /// Cycle-simulated completion time of `app`'s optimized run on this
    /// machine, `base` supplying everything a request does not override.
    /// The run replays the machine's plan; nothing is recompiled.
    fn simulate(&self, app: &App, base: &SimConfig, cancel: &Cancel) -> u64 {
        let sim = SimConfig {
            granularity: self.granularity,
            ..base.clone()
        };
        let kind = RunKind::Optimized;
        run_plan(app, &self.layout, &self.placement, &sim, kind, cancel).exec_cycles
    }
}

/// Per machine, the index of the first equal one in `known` followed by the
/// machines equal to nothing before them, which are returned too.
fn group<'m>(known: &[Machine], machines: &'m [Machine]) -> (Vec<usize>, Vec<&'m Machine>) {
    let mut fresh: Vec<&Machine> = Vec::new();
    let slots = (machines.iter())
        .map(|m| {
            let seen = known
                .iter()
                .chain(fresh.iter().copied())
                .position(|e| e == m);
            seen.unwrap_or_else(|| {
                fresh.push(m);
                known.len() + fresh.len() - 1
            })
        })
        .collect();
    (slots, fresh)
}

/// Runs `chain` on the calling thread while a helper thread simulates the
/// distinct machines of `papers`, then the finalists `chain` returned —
/// those equal to no paper machine and to no earlier finalist — with both
/// threads taking the simulations neither has started ([`pull_beside`]).
/// Returns what `chain` returned beside them, the completion times of the
/// finalists then of `papers`, and the number of simulations that took:
/// the distinct machines among all of them.
///
/// Results are placed by index, so nothing depends on which thread ran
/// what or when. A panic in a simulation leaves with its own payload,
/// whichever thread it happened on. Every simulation stops early once
/// `cancel` is set.
pub(crate) fn verify_beside<T>(
    app: &App,
    base: &SimConfig,
    papers: &[Machine],
    cancel: &Cancel,
    chain: impl FnOnce() -> (T, Vec<Machine>),
) -> (T, Vec<u64>, usize) {
    let (paper_slots, distinct_papers) = group(&[], papers);
    let mut finalists: Vec<Machine> = Vec::new();
    let ((out, slots), runs) = pull_beside(
        &distinct_papers,
        2,
        || {
            let (out, machines) = chain();
            finalists = machines;
            let (slots, fresh) = group(papers, &finalists);
            ((out, slots), fresh)
        },
        |m| m.simulate(app, base, cancel),
    );
    let paper_cycles: Vec<u64> = paper_slots.iter().map(|&s| runs[s]).collect();
    let by_slot = [&paper_cycles[..], &runs[distinct_papers.len()..]].concat();
    let cycles = (slots.iter().map(|&s| by_slot[s]))
        .chain(paper_cycles.iter().copied())
        .collect();
    (out, cycles, runs.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{curated, APPROX_LEVELS};
    use hoploc_ptest::run_cases;
    use hoploc_workloads::{gafort, Scale};

    /// The schedule under test, with a token nothing sets.
    fn verify_beside<T>(
        app: &App,
        base: &SimConfig,
        papers: &[Machine],
        chain: impl FnOnce() -> (T, Vec<Machine>),
    ) -> (T, Vec<u64>, usize) {
        super::verify_beside(app, base, papers, &Cancel::never(), chain)
    }

    /// Reference: the sequential walk [`verify_beside`] replaced, as it
    /// was. Completion times of `machines` in order, and how many
    /// simulations that took: each machine equal to an earlier one reads
    /// that one's result.
    fn verify(app: &App, base: &SimConfig, machines: &[Machine]) -> (Vec<u64>, usize) {
        let mut cycles: Vec<u64> = Vec::with_capacity(machines.len());
        let mut simulated = 0;
        for (i, m) in machines.iter().enumerate() {
            let c = match machines[..i].iter().position(|earlier| earlier == m) {
                Some(j) => cycles[j],
                None => {
                    simulated += 1;
                    m.simulate(app, base, &Cancel::never())
                }
            };
            cycles.push(c);
        }
        (cycles, simulated)
    }

    fn base_sim() -> SimConfig {
        SimConfig {
            granularity: Granularity::CacheLine,
            ..SimConfig::scaled()
        }
    }

    const PAPER: [McPlacement; 3] = [
        McPlacement::Corners,
        McPlacement::EdgeMidpoints,
        McPlacement::Diagonal,
    ];

    /// Entries 0..3 are the paper requests, 3..6 the candidates that start
    /// from them (equal machines, built apart), the rest curated points
    /// beside an approximation-threshold twin each.
    fn pool(sim: &SimConfig) -> Vec<VerifyRequest> {
        let mesh = &sim.mesh;
        let mut reqs: Vec<VerifyRequest> =
            PAPER.iter().map(|p| VerifyRequest::paper(sim, p)).collect();
        for p in &PAPER {
            let start = Candidate::from_named(mesh, p, sim.granularity);
            reqs.push(VerifyRequest::of(&start, mesh));
        }
        let points = curated(mesh, &[Granularity::CacheLine, Granularity::Page]);
        for c in points
            .iter()
            .skip(points.len() / 8)
            .step_by(points.len() / 4)
        {
            for &approx in &APPROX_LEVELS[..2] {
                let twin = Candidate {
                    approx,
                    ..c.clone()
                };
                reqs.push(VerifyRequest::of(&twin, mesh));
            }
        }
        reqs
    }

    /// Verifies the pool entries `finalists` and `papers` both ways and
    /// returns how many simulations that took.
    fn check(app: &App, pool: &[VerifyRequest], finalists: &[usize], papers: &[usize]) -> usize {
        let sim = base_sim();
        let mut scorer = PlacementScorer::new(app, &sim, RunKind::Optimized);
        let mut compile = |picks: &[usize]| -> Vec<Machine> {
            (picks.iter())
                .map(|&i| pool[i].clone().compile(&mut scorer))
                .collect()
        };
        let in_order = compile(&[finalists, papers].concat());
        let want = verify(app, &sim, &in_order);
        let (papers_m, finalists_m) = (compile(papers), compile(finalists));
        let ((), cycles, simulated) = verify_beside(app, &sim, &papers_m, || ((), finalists_m));
        assert_eq!(
            (cycles, simulated),
            want,
            "finalists {finalists:?}, papers {papers:?}"
        );
        simulated
    }

    #[test]
    fn overlapped_verification_equals_the_sequential_walk() {
        let app = gafort(Scale::Test);
        let pool = pool(&base_sim());
        // (finalists, papers, simulations): top_k 3, 1 and 0 of distinct
        // machines; a finalist equal to a paper machine; two equal
        // finalists; threshold twins; both at once; all six equal; no paper.
        let planted: [(&[usize], &[usize], usize); 9] = [
            (&[6, 8, 10], &[0, 1, 2], 6),
            (&[8], &[0, 1, 2], 4),
            (&[], &[0, 1, 2], 3),
            (&[4, 8, 10], &[0, 1, 2], 5),
            (&[8, 8, 10], &[0, 1, 2], 5),
            (&[6, 7, 8], &[0, 1, 2], 5),
            (&[5, 8, 8], &[0, 1, 2], 4),
            (&[3, 3, 3], &[0, 0, 0], 1),
            (&[6, 8, 10], &[], 3),
        ];
        for (finalists, papers, simulations) in planted {
            assert_eq!(check(&app, &pool, finalists, papers), simulations);
        }
        run_cases("search.verify.beside", 6, |rng| {
            let top_k = rng.usize_in(0..4);
            let mut pick =
                |len| -> Vec<usize> { (0..len).map(|_| rng.usize_in(0..pool.len())).collect() };
            let (finalists, papers) = (pick(top_k), pick(3));
            check(&app, &pool, &finalists, &papers);
        });
    }

    /// A machine whose memory holds one page per controller.
    fn starved() -> SimConfig {
        let sim = base_sim();
        SimConfig {
            memory_bytes: sim.page_bytes * 4,
            ..sim
        }
    }

    #[test]
    #[should_panic(expected = "physical memory exhausted")]
    fn a_finalists_panic_leaves_as_itself() {
        let sim = starved();
        let app = gafort(Scale::Test);
        let mut scorer = PlacementScorer::new(&app, &sim, RunKind::Optimized);
        let finalists = (pool(&sim).drain(6..))
            .map(|r| r.compile(&mut scorer))
            .collect();
        verify_beside(&app, &sim, &[], || ((), finalists));
    }

    #[test]
    #[should_panic(expected = "physical memory exhausted")]
    fn a_baselines_panic_on_the_helper_leaves_as_itself() {
        let sim = starved();
        let app = gafort(Scale::Test);
        let mut scorer = PlacementScorer::new(&app, &sim, RunKind::Optimized);
        let papers: Vec<Machine> = (pool(&sim).drain(..3))
            .map(|r| r.compile(&mut scorer))
            .collect();
        verify_beside(&app, &sim, &papers, || ((), Vec::new()));
    }
}
