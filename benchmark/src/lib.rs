//! `hoploc-perf` — the repo's benchmark.
//!
//! ```text
//! hoploc-perf run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//!     one workload, one run: prints a report, then as the last line of
//!     stdout one JSON object {correct, attempted, failed, metrics}. With
//!     --trace 0 the metrics are the end-to-end ones; with --trace 1 spans
//!     are recorded around every call into a layer and the metrics are the
//!     per-layer ones (the trace goes to benchmark/out/trace-<name>.json).
//! hoploc-perf all [--seed <n>] [--runs <k>] [--seconds <s>] [--quick] [--out <file>]
//!     every workload: k untraced runs (seeds n, n+1, ..) and one traced
//!     run each, every run in a fresh child process; writes a run set.
//! hoploc-perf compare <A.json> <B.json>
//!     two run sets of like configuration, metric by metric.
//! hoploc-perf manifest
//!     prints BENCHMARK.json as declared in src/spec.rs.
//! ```
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions (`src/surface.rs` lists them). The benchmark claims no gain;
//! it defines the names later changes are judged with.

pub mod json;
mod profile;
mod runset;
mod span;
pub mod spec;
mod surface;
mod util;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use util::{median, quantile, Rng};
use workloads::sweep::Sweep;
use workloads::{Outcome, RunOptions};

/// Usage errors exit 2; a failed run or comparison exits 1.
const USAGE: u8 = 2;

/// Runs the command line `args` (without the program name).
pub fn run(args: &[String]) -> ExitCode {
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("all") => runset::cmd_all(&args[1..]),
        Some("compare") => runset::cmd_compare(&args[1..]),
        Some("manifest") => {
            print!("{}", spec::manifest_json());
            Ok(true)
        }
        _ => Err(Usage(
            "usage: hoploc-perf <run|all|compare|manifest> [options] (see src/main.rs)".into(),
        )),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(Usage(message)) => {
            eprintln!("error: {message}");
            ExitCode::from(USAGE)
        }
    }
}

/// A command-line mistake.
pub struct Usage(pub String);

/// `--flag value` pairs and bare `--switch`es, checked against what the
/// subcommand accepts.
pub struct Flags {
    values: BTreeMap<String, String>,
    pub positional: Vec<String>,
}

impl Flags {
    pub fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Result<Flags, Usage> {
        let mut values = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if valued.contains(&a.as_str()) {
                let v = it
                    .next()
                    .ok_or_else(|| Usage(format!("{a} needs a value")))?;
                values.insert(a.clone(), v.clone());
            } else if switches.contains(&a.as_str()) {
                values.insert(a.clone(), String::new());
            } else if a.starts_with("--") {
                return Err(Usage(format!(
                    "unknown option {a} (valid: {})",
                    [valued, switches].concat().join(", ")
                )));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Flags { values, positional })
    }

    pub fn has(&self, flag: &str) -> bool {
        self.values.contains_key(flag)
    }

    pub fn get(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    pub fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, Usage> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| Usage(format!("{flag}: {v:?} is not a valid number"))),
        }
    }
}

fn cmd_run(args: &[String]) -> Result<bool, Usage> {
    let flags = Flags::parse(
        args,
        &["--workload", "--seed", "--seconds", "--trace"],
        &["--quick"],
    )?;
    let name = flags
        .get("--workload")
        .ok_or_else(|| Usage("run needs --workload <name>".into()))?;
    let workload = spec::workload(name).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        Usage(format!(
            "unknown workload {name:?} (one of {})",
            names.join(", ")
        ))
    })?;
    let traced = match flags.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(Usage(format!("--trace takes 0 or 1, not {other:?}"))),
    };
    let seconds: f64 = flags.number("--seconds", spec::RUN_SECONDS as f64)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(Usage("--seconds must be positive".into()));
    }
    let mut opts = RunOptions {
        seed: flags.number("--seed", 1u64)?,
        seconds,
        traced,
        quick: flags.has("--quick"),
        probes: None,
    };

    // Numbers measured under a profile other than the root's would be
    // about a different program.
    let profile = match profile::check_parity() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(false);
        }
    };

    println!(
        "== hoploc-perf run: {} | seed {} | {} s | {} | scale {} | nproc {} | profile.release {{{}}} ==",
        workload.name,
        opts.seed,
        opts.seconds,
        if traced { "traced" } else { "untraced" },
        if opts.quick { "quick" } else { "full" },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        profile
    );
    println!("why: {}", workload.why);

    if traced {
        let (lines, payload) = workloads::serve::wire_samples();
        let rng = Rng::new(opts.seed).fork(0x9b0be);
        opts.probes = Some(surface::run_probes(&rng, &lines, &payload));
    }
    let outcome = match workload.name {
        "sweep-hit" => workloads::sweep::run(Sweep::Hit, &opts),
        "sweep-miss" => workloads::sweep::run(Sweep::Miss, &opts),
        "sweep-axes" => workloads::sweep::run(Sweep::Axes, &opts),
        "search-triage" => workloads::search::run(&opts),
        "serve-mix" => workloads::serve::run(&opts),
        other => unreachable!("workload {other} is declared but not dispatched"),
    };
    Ok(report(workload.name, &opts, outcome))
}

/// Prints the report and the final JSON line; true when every check held.
fn report(workload: &str, opts: &RunOptions, mut outcome: Outcome) -> bool {
    for note in &outcome.notes {
        println!("{note}");
    }
    let reps = outcome.rep_wall_s.len();
    if reps > 0 {
        println!(
            "reps {reps}: wall min {:.4} / q1 {:.4} / median {:.4} / q3 {:.4} s; {} timed ops",
            quantile(&outcome.rep_wall_s, 0.0),
            quantile(&outcome.rep_wall_s, 0.25),
            median(&outcome.rep_wall_s),
            quantile(&outcome.rep_wall_s, 0.75),
            outcome.op_s.iter().map(Vec::len).sum::<usize>()
        );
    }
    println!("digest {workload} {:016x}", outcome.digest);

    let mut metrics: Vec<(&'static str, &'static str, f64)> = Vec::new();
    if opts.traced {
        if let Some(p) = &opts.probes {
            outcome.layer.extend(p.named());
        }
        if let Some(trace) = &outcome.trace {
            outcome
                .layer
                .insert("bench.span_coverage", trace.coverage());
            outcome.layer.insert(
                "bench.trace_overhead_share",
                workloads::trace_overhead(opts, &outcome.op_s),
            );
        }
        let attempted = outcome.attempted.max(1) as f64;
        outcome
            .layer
            .insert("failed_share", outcome.failures.count as f64 / attempted);
        outcome
            .layer
            .insert("peak_rss_mb", util::peak_rss_mb().unwrap_or(f64::NAN));
        // The low 48 bits: exact in a JSON number.
        outcome.layer.insert(
            "bench.stats_digest",
            (outcome.digest & ((1 << 48) - 1)) as f64,
        );
        for name in outcome.layer.keys() {
            assert!(
                spec::layer(name).is_some(),
                "per-layer metric {name} is emitted but not declared in spec.rs"
            );
        }
        // Every declared per-layer metric is reported by every workload; a
        // layer the workload does not exercise reads 0.
        for m in spec::PER_LAYER {
            let v = outcome.layer.get(m.name).copied().unwrap_or(0.0);
            metrics.push((m.name, m.unit, v));
        }
        if let Some(trace) = &outcome.trace {
            let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
            let path = format!("{dir}/trace-{workload}.json");
            let json = trace.to_json(workload, opts.seed);
            match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
                Ok(()) => println!("trace written to {path}"),
                Err(e) => outcome.failures.fail(format!("writing {path}: {e}")),
            }
        }
    } else if reps > 0 && outcome.op_s.iter().any(|s| !s.is_empty()) {
        let wall_s = median(&outcome.rep_wall_s);
        // An operation's latency is its median over the run's reps, in
        // milliseconds: one disturbed rep does not make a slow operation.
        let op_ms: Vec<f64> = outcome
            .op_s
            .iter()
            .filter(|samples| !samples.is_empty())
            .map(|samples| median(samples) * 1e3)
            .collect();
        println!(
            "op latency over {} operations, ms: p50 {:.4} / p90 {:.4} / p95 {:.4} / p99 {:.4} / max {:.4}",
            op_ms.len(),
            median(&op_ms),
            quantile(&op_ms, 0.90),
            quantile(&op_ms, 0.95),
            quantile(&op_ms, 0.99),
            quantile(&op_ms, 1.0)
        );
        let value = |name: &str| -> f64 {
            match name {
                "setup_s" => outcome.setup_s,
                "wall_s" => wall_s,
                "work_per_s" => outcome.work_per_rep / wall_s,
                "op_p50_ms" => median(&op_ms),
                "op_p99_ms" => quantile(&op_ms, 0.99),
                other => unreachable!("end-to-end metric {other} is declared but not computed"),
            }
        };
        for m in spec::END_TO_END {
            metrics.push((m.name, m.unit, value(m.name)));
        }
    }

    for (name, _, v) in &metrics {
        if !v.is_finite() {
            outcome
                .failures
                .fail(format!("metric {name} is not finite: {v}"));
        }
    }
    if metrics.is_empty() {
        outcome
            .failures
            .fail("the run produced no measurements".into());
    }
    for m in &outcome.failures.messages {
        println!("FAILED: {m}");
    }
    let width = metrics.iter().map(|m| m.0.len()).max().unwrap_or(0);
    for (name, unit, v) in &metrics {
        println!("{name:<width$}  {v:>16.6} {unit}");
    }

    let failed = outcome.failures.count;
    let correct = failed == 0;
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted.max(1),
        failed.min(outcome.attempted.max(1))
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(
            line,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if i > 0 { ", " } else { "" },
            json::quote(name),
            json::num(v),
            json::quote(unit)
        );
    }
    line.push_str("}}");
    println!("{line}");
    correct
}
