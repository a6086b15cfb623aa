//! Search results: the per-app report and the deterministic single-line
//! JSON encodings shared by the CLI and the serve result cache.
//!
//! Every encoding here is a pure function of the report value with fixed
//! field order and fixed float precision, so a served search result is
//! byte-identical to the direct CLI run of the same seed.

use crate::objective::Objective;
use crate::space::Candidate;
use hoploc_est::EstTerms;
use hoploc_workloads::Scale;
use std::fmt::Write as _;

/// One cycle-sim-verified finalist.
#[derive(Clone, PartialEq, Debug)]
pub struct Verified {
    /// The candidate design point.
    pub candidate: Candidate,
    /// Its estimator objective score (lower is better).
    pub score: f64,
    /// Cycle-simulated completion time under the candidate's geometry
    /// and layout plan.
    pub cycles: u64,
}

/// The result of one per-app search.
#[derive(Clone, PartialEq, Debug)]
pub struct SearchReport {
    /// Application name.
    pub app: String,
    /// Problem scale searched at.
    pub scale: Scale,
    /// The seed the whole search derives from.
    pub seed: u64,
    /// Estimator-evaluation budget given.
    pub budget: u32,
    /// The objective optimized.
    pub objective: Objective,
    /// Fresh estimator evaluations actually spent.
    pub evaluated: u32,
    /// Best candidate by estimator score.
    pub best: Candidate,
    /// Its objective score.
    pub best_score: f64,
    /// Its estimator terms.
    pub est: EstTerms,
    /// The cycle-sim-verified finalists, in score order.
    pub verified: Vec<Verified>,
    /// Cycle-sim completion time of the paper's corner placement (P1).
    pub corners_cycles: u64,
    /// Cycle-sim completion time of the paper's edge placement (P2).
    pub edge_cycles: u64,
    /// Cycle-sim completion time of the paper's diamond placement (P3).
    pub diamond_cycles: u64,
    /// The verified finalist with the lowest completion time.
    pub found: Candidate,
    /// Its completion time.
    pub found_cycles: u64,
    /// Cycle simulations actually run for the [`requested`](Self::requested)
    /// verification runs: requests for one machine share a simulation. Not
    /// part of [`to_json`](Self::to_json).
    pub simulated: usize,
}

impl SearchReport {
    /// Verification runs the report carries: one per finalist and one per
    /// paper placement.
    pub fn requested(&self) -> usize {
        self.verified.len() + 3
    }

    /// Whether the found design beats the paper's diamond placement.
    pub fn beats_diamond(&self) -> bool {
        self.found_cycles < self.diamond_cycles
    }

    /// Whether the found design beats the paper's edge placement.
    pub fn beats_edge(&self) -> bool {
        self.found_cycles < self.edge_cycles
    }

    /// The report as one line of JSON (starts with `{`, no newline) —
    /// the serve job result payload and the CLI `--json` record.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"search\":{");
        let _ = write!(
            s,
            "\"app\":\"{}\",\"scale\":\"{}\",\"seed\":{},\"budget\":{},\"objective\":\"{}\",\
             \"evaluated\":{},\"best\":{},\"best_score\":{:.6},\
             \"est\":{{\"offchip\":{:.6},\"hops\":{:.6},\"queue\":{:.6}}},\"verified\":[",
            self.app,
            self.scale.name(),
            self.seed,
            self.budget,
            self.objective.canon(),
            self.evaluated,
            self.best.to_json(),
            self.best_score,
            self.est.offchip,
            self.est.hops,
            self.est.queue,
        );
        for (i, v) in self.verified.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"candidate\":{},\"score\":{:.6},\"cycles\":{}}}",
                v.candidate.to_json(),
                v.score,
                v.cycles
            );
        }
        let _ = write!(
            s,
            "],\"baselines\":{{\"corners\":{},\"edge\":{},\"diamond\":{}}},\
             \"found\":{},\"found_cycles\":{},\"beats_diamond\":{},\"beats_edge\":{}}}}}",
            self.corners_cycles,
            self.edge_cycles,
            self.diamond_cycles,
            self.found.to_json(),
            self.found_cycles,
            self.beats_diamond(),
            self.beats_edge(),
        );
        s
    }

    /// One row of the human-readable table ([`text_header`] gives the
    /// matching header).
    pub fn text_row(&self) -> String {
        let beats = match (self.beats_diamond(), self.beats_edge()) {
            (true, true) => "diamond+edge",
            (true, false) => "diamond",
            (false, true) => "edge",
            (false, false) => "-",
        };
        format!(
            "{:<10} {:>6} {:>10.6} {:>12} {:>12} {:>12} {:>12}  {}",
            self.app,
            self.evaluated,
            self.best_score,
            self.found_cycles,
            self.diamond_cycles,
            self.edge_cycles,
            self.corners_cycles,
            beats
        )
    }
}

/// Header row matching [`SearchReport::text_row`].
pub fn text_header() -> String {
    format!(
        "{:<10} {:>6} {:>10} {:>12} {:>12} {:>12} {:>12}  {}",
        "app", "evals", "score", "found", "diamond", "edge", "corners", "beats"
    )
}

/// A progress event as one line of JSON (starts with `{`): emitted at
/// every strict best-so-far improvement, so `best_score` is monotone
/// non-increasing along the stream.
pub fn event_json(
    app: &str,
    phase: &str,
    evaluated: u32,
    best_score: f64,
    best: &Candidate,
) -> String {
    format!(
        "{{\"app\":\"{}\",\"phase\":\"{}\",\"evaluated\":{},\"best_score\":{:.6},\"best\":{}}}",
        app,
        phase,
        evaluated,
        best_score,
        best.to_json()
    )
}
