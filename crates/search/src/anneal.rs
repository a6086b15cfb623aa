//! The simulated-annealing engine: a single sequential Metropolis chain
//! over the candidate space, deterministic for a fixed seed.
//!
//! Determinism is load-bearing: the chain consumes randomness from one
//! [`SmallRng`] in a strictly sequential order, the evaluator is a pure
//! function of the candidate, and no wall-clock or thread identity ever
//! enters the state — so the same seed yields the same trajectory at any
//! `--jobs` count (parallelism only ever runs *different apps'* chains
//! concurrently).

use crate::space::{propose_into, Candidate};
use hoploc_noc::{Mesh, Placement};
use hoploc_ptest::SmallRng;

/// Annealing schedule parameters. The temperature decays geometrically
/// from `t0` to `t_end` across the move budget.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Schedule {
    /// Initial temperature, in objective-score units.
    pub t0: f64,
    /// Final temperature.
    pub t_end: f64,
    /// Maximum chain steps (proposals drawn), independent of how many
    /// cost fresh evaluations.
    pub max_steps: u32,
}

impl Schedule {
    /// A schedule sized to an evaluation budget: enough steps to spend
    /// it with cache hits to spare.
    pub fn for_budget(budget: u32) -> Self {
        Self {
            t0: 0.02,
            t_end: 0.0005,
            max_steps: budget.saturating_mul(4).max(16),
        }
    }

    fn temperature(&self, step: u32) -> f64 {
        let n = self.max_steps.max(2) as f64;
        let frac = step as f64 / (n - 1.0);
        self.t0 * (self.t_end / self.t0).powf(frac)
    }
}

/// A uniform draw in `[0, 1)` from the shared deterministic PRNG.
fn unit(rng: &mut SmallRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Runs the chain from `start` until the evaluator's budget is spent or
/// `max_steps` proposals have been drawn. `eval` scores a proposal beside
/// the validated placement [`propose`](crate::propose) built for it, and
/// returns `None` when the budget is exhausted (a cached revisit is free
/// and returns `Some`). `improved` fires whenever the best-so-far score
/// strictly decreases. Returns the best candidate and its score.
pub fn anneal(
    mesh: &Mesh,
    rng: &mut SmallRng,
    schedule: &Schedule,
    start: Candidate,
    start_score: f64,
    eval: &mut dyn FnMut(&Candidate, &Placement) -> Option<f64>,
    improved: &mut dyn FnMut(&Candidate, f64),
) -> (Candidate, f64) {
    // The proposal and its placement are built in buffers the chain keeps:
    // an accepted proposal swaps places with the current point.
    let mut current = start.clone();
    let mut current_score = start_score;
    let mut next = start.clone();
    let mut placement = start
        .placement(mesh)
        .expect("the chain starts from a legal candidate");
    let mut best = start;
    let mut best_score = start_score;
    for step in 0..schedule.max_steps {
        // Redraw a handful of times if the move generator rejects; a
        // fully stuck step just advances the schedule.
        if !(0..16).any(|_| propose_into(rng, &current, mesh, &mut next, &mut placement)) {
            continue;
        }
        let Some(score) = eval(&next, &placement) else {
            break;
        };
        let delta = score - current_score;
        let t = schedule.temperature(step);
        if delta < 0.0 || (t > 0.0 && unit(rng) < (-delta / t).exp()) {
            std::mem::swap(&mut current, &mut next);
            current_score = score;
            if current_score < best_score {
                best.clone_from(&current);
                best_score = current_score;
                improved(&best, best_score);
            }
        }
    }
    (best, best_score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoploc_layout::Granularity;
    use hoploc_noc::McPlacement;

    #[test]
    fn chain_is_deterministic_and_improves() {
        let mesh = Mesh::new(8, 8);
        let start = Candidate::from_named(&mesh, &McPlacement::Corners, Granularity::CacheLine);
        // A synthetic, cheap objective: mean hop distance of the mapping.
        let start_score = start.placement(&mesh).unwrap().avg_distance_to_mc();
        let run = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut evals = 0u32;
            let mut eval = |_: &Candidate, p: &Placement| {
                if evals >= 300 {
                    return None;
                }
                evals += 1;
                Some(p.avg_distance_to_mc())
            };
            let mut trail = Vec::new();
            let (best, score) = anneal(
                &mesh,
                &mut rng,
                &Schedule::for_budget(300),
                start.clone(),
                start_score,
                &mut eval,
                &mut |c, s| trail.push((c.key(), s)),
            );
            (best.key(), score, trail)
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must reproduce the whole trajectory");
        assert!(a.1 < start_score, "chain should improve mean distance");
        // Best-so-far is monotone non-increasing along the trail.
        for w in a.2.windows(2) {
            assert!(w[1].1 <= w[0].1);
        }
        let c = run(8);
        assert_ne!(a.2, c.2, "different seeds should explore differently");
    }
}
