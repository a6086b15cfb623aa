//! The five workloads and what they share: run options, the rep loop's
//! stopping rule, and the outcome every workload hands back.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::span::Tracer;
use crate::surface::{Counts, Probes, Scale};
use crate::util::median;

pub mod search;
pub mod serve;
pub mod sweep;

/// The paper's 13 applications, in suite order.
pub const ALL_APPS: [&str; 13] = [
    "wupwise",
    "swim",
    "mgrid",
    "applu",
    "galgel",
    "apsi",
    "gafort",
    "fma3d",
    "art",
    "ammp",
    "hpccg",
    "minighost",
    "minimd",
];

pub struct RunOptions {
    pub seed: u64,
    /// How long to measure. Whole reps only: at least `min_reps()`, then
    /// more while the budget lasts.
    pub seconds: f64,
    /// Record spans and emit per-layer metrics.
    pub traced: bool,
    /// Test scale, one rep: the self-tests' mode.
    pub quick: bool,
    /// Component probe results (traced runs), for the derived attribution.
    pub probes: Option<Probes>,
}

impl RunOptions {
    pub fn scale(&self) -> Scale {
        if self.quick {
            Scale::Test
        } else {
            Scale::Bench
        }
    }

    /// Three reps give every operation a median that one disturbed rep
    /// cannot move; a traced run needs its untraced rep plus two traced.
    fn min_reps(&self) -> usize {
        match (self.quick, self.traced) {
            (true, false) => 1,
            (true, true) => 2,
            (false, _) => 3,
        }
    }

    /// Whether another set-up sample is wanted after `done` samples that
    /// took `spent_s` together: at least five, then more while they are
    /// cheap — a set-up of a millisecond needs more samples than one of a
    /// second for its median to hold still.
    pub fn more_setup(&self, done: usize, spent_s: f64) -> bool {
        if self.quick {
            done < 1
        } else {
            done < 5 || (done < 40 && spent_s < 0.4)
        }
    }

    /// In a traced run every third rep (the first included) runs with the
    /// tracer off: it is the untraced reference the traced reps are checked
    /// against and the base of `bench.trace_overhead_share`.
    pub fn rep_is_traced(&self, rep: usize) -> bool {
        self.traced && !rep.is_multiple_of(3)
    }
}

/// Decides, between reps, whether to run another.
pub struct RepClock<'a> {
    started: Instant,
    opts: &'a RunOptions,
}

impl RepClock<'_> {
    pub fn start(opts: &RunOptions) -> RepClock<'_> {
        RepClock {
            started: Instant::now(),
            opts,
        }
    }

    pub fn another(&self, done: usize) -> bool {
        let opts = self.opts;
        done < opts.min_reps()
            || (!opts.quick && self.started.elapsed().as_secs_f64() < opts.seconds)
    }
}

/// Repeats `setup` as `RunOptions::more_setup` asks and returns the last
/// value built with the median set-up time.
pub fn timed_setup<T>(opts: &RunOptions, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    while last.is_none() || opts.more_setup(times.len(), times.iter().sum()) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up ran"), median(&times))
}

/// Operations that failed a check, counted and (the first few) described.
#[derive(Default)]
pub struct Failures {
    pub count: u64,
    pub messages: Vec<String>,
}

impl Failures {
    pub fn fail(&mut self, message: String) {
        self.count += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }
}

/// The per-cell conservation and liveness checks; false (and one failure
/// recorded) when the cell breaks one.
pub fn check_cell(label: &str, c: &Counts, failures: &mut Failures) -> bool {
    if c.mc_served + c.mc_dropped != c.offchip + c.writebacks {
        failures.fail(format!(
            "{label}: served {} + dropped {} != off-chip {} + writebacks {}",
            c.mc_served, c.mc_dropped, c.offchip, c.writebacks
        ));
        return false;
    }
    if c.backstop_flushes != 0 {
        failures.fail(format!(
            "{label}: liveness backstop fired {} time(s)",
            c.backstop_flushes
        ));
        return false;
    }
    true
}

/// What a workload hands back to `main`.
pub struct Outcome {
    /// Operations attempted over all reps (cells, searches, requests).
    pub attempted: u64,
    pub failures: Failures,
    pub setup_s: f64,
    /// Wall time of each rep's timed section.
    pub rep_wall_s: Vec<f64>,
    /// Work units one rep completes (simulated accesses, estimator
    /// evaluations, answered jobs) — `work_per_s` is this over `wall_s`.
    pub work_per_rep: f64,
    /// Latency of every timed operation in seconds: `op_s[op]` holds one
    /// sample per rep, in rep order (an operation that failed has none).
    pub op_s: Vec<Vec<f64>>,
    /// Digest of the exact results; equal for equal seeds unless the
    /// model changed.
    pub digest: u64,
    /// Per-layer metrics (traced runs; empty otherwise).
    pub layer: BTreeMap<&'static str, f64>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
    /// The recorded spans (traced runs).
    pub trace: Option<Tracer>,
}

/// `bench.trace_overhead_share`: how much slower an operation runs with
/// the tracer on. Each operation's traced samples are set against its own
/// untraced samples, and the median over operations is reported: one rep's
/// wall differs from another's by more than any tracing cost, but that
/// noise falls on operations independently and the median sheds it.
pub fn trace_overhead(opts: &RunOptions, op_s: &[Vec<f64>]) -> f64 {
    let ratios: Vec<f64> = op_s
        .iter()
        .filter_map(|samples| {
            let pick = |traced: bool| -> Vec<f64> {
                samples
                    .iter()
                    .enumerate()
                    .filter(|(rep, _)| opts.rep_is_traced(*rep) == traced)
                    .map(|(_, s)| *s)
                    .collect()
            };
            let (plain, traced) = (pick(false), pick(true));
            (!plain.is_empty() && !traced.is_empty()).then(|| median(&traced) / median(&plain))
        })
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        median(&ratios) - 1.0
    }
}
