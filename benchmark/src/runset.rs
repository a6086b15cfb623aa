//! Run sets: `all` measures every workload several times, each run in a
//! fresh child process, and writes the values down; `compare` reads two
//! such files and says, metric by metric, whether the second is better,
//! the same, worse or unresolved.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::json::{self, Value};
use crate::spec::{self, Better};
use crate::util::{median, quartiles_exclusive};
use crate::{Flags, Usage};

/// How a run set was produced. Two sets compare only if everything here
/// but the revision and compiler agrees.
#[derive(Clone, PartialEq, Debug)]
struct Header {
    git_rev: String,
    rustc: String,
    nproc: u64,
    seed: u64,
    runs: u64,
    seconds: f64,
    scale: String,
    profile: String,
}

#[derive(Clone, Default, Debug)]
struct WorkloadSet {
    /// End-to-end metric → one value per run, in run order.
    end_to_end: BTreeMap<String, Vec<f64>>,
    /// Per-layer metric → the traced run's value.
    per_layer: BTreeMap<String, f64>,
    /// Exact-result digest of each untraced run (run i used seed + i).
    digests: Vec<String>,
    attempted: u64,
    failed: u64,
}

struct RunSet {
    header: Header,
    workloads: Vec<(String, WorkloadSet)>,
}

/// What a child's stdout yields: the final JSON line and the digest line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    digest: String,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child: no process outlives the run set.
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("the {workload} run printed nothing"))?;
    let v = json::parse(last).map_err(|e| format!("{workload}: last line is not JSON: {e}"))?;
    let number = |key: &str| {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{workload}: result has no {key}"))
    };
    let metrics = v
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or_else(|| format!("{workload}: result has no metrics"))?
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Value::as_f64)
                .map(|x| (name.clone(), x))
                .ok_or_else(|| format!("{workload}: metric {name} has no value"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix(&format!("digest {workload} ")))
        .unwrap_or("")
        .to_string();
    Ok(ChildResult {
        correct: v.get("correct") == Some(&Value::Bool(true)) && out.status.success(),
        attempted: number("attempted")? as u64,
        failed: number("failed")? as u64,
        metrics,
        digest,
    })
}

pub fn cmd_all(args: &[String]) -> Result<bool, Usage> {
    let flags = Flags::parse(
        args,
        &["--seed", "--runs", "--seconds", "--out"],
        &["--quick"],
    )?;
    let quick = flags.has("--quick");
    let seed: u64 = flags.number("--seed", 1)?;
    let runs: u64 = flags.number("--runs", if quick { 1 } else { 3 })?;
    let seconds: f64 = flags.number("--seconds", spec::RUN_SECONDS as f64)?;
    if runs == 0 {
        return Err(Usage("--runs must be at least 1".into()));
    }
    let out_path = flags.get("--out").map_or_else(
        || format!("{}/out/run-seed{seed}.json", env!("CARGO_MANIFEST_DIR")),
        str::to_string,
    );
    let profile = match crate::profile::check_parity() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(false);
        }
    };
    let header = Header {
        git_rev: first_line_of("git", &["describe", "--always", "--dirty", "--abbrev=40"]),
        rustc: first_line_of("rustc", &["--version"]),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        seed,
        runs,
        seconds,
        scale: if quick { "quick" } else { "full" }.into(),
        profile,
    };
    println!(
        "== hoploc-perf all: rev {} | {} | nproc {} | seed {seed} | {runs} run(s) x {seconds} s | scale {} | profile.release {{{}}} ==",
        header.git_rev, header.rustc, header.nproc, header.scale, header.profile
    );

    let mut sets: Vec<(String, WorkloadSet)> = spec::WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), WorkloadSet::default()))
        .collect();
    let mut all_correct = true;
    let mut absorb = |set: &mut WorkloadSet, name: &str, r: Result<ChildResult, String>| match r {
        Ok(r) => {
            all_correct &= r.correct;
            set.attempted += r.attempted;
            set.failed += r.failed;
            Some(r)
        }
        Err(e) => {
            eprintln!("error: {name}: {e}");
            all_correct = false;
            None
        }
    };
    // Run-major: a noisy interval on the host falls on every workload
    // alike instead of on all the runs of one.
    for run in 0..runs {
        for (name, set) in &mut sets {
            eprintln!("[run {}/{runs}] {name}", run + 1);
            let r = run_child(name, seed + run, seconds, false, quick);
            if let Some(r) = absorb(set, name, r) {
                for (metric, v) in r.metrics {
                    set.end_to_end.entry(metric).or_default().push(v);
                }
                set.digests.push(r.digest);
            }
        }
    }
    for (name, set) in &mut sets {
        eprintln!("[traced] {name}");
        let r = run_child(name, seed, seconds, true, quick);
        if let Some(r) = absorb(set, name, r) {
            set.per_layer = r.metrics.into_iter().collect();
        }
    }

    let set = RunSet {
        header,
        workloads: sets,
    };
    print!("{}", summary(&set));
    let written = std::path::Path::new(&out_path)
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&out_path, to_json(&set)));
    match written {
        Ok(()) => println!("run set written to {out_path}"),
        Err(e) => {
            eprintln!("error: writing {out_path}: {e}");
            all_correct = false;
        }
    }
    Ok(all_correct)
}

/// A value to five significant digits, so that microseconds and millions
/// share a column.
fn sig(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let decimals = (4 - x.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{x:.decimals$}")
}

/// Spread as the driver takes it: interquartile distance over the median.
fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles_exclusive(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

fn summary(set: &RunSet) -> String {
    let mut s = String::new();
    for (name, w) in &set.workloads {
        let _ = writeln!(
            s,
            "\n{name}: attempted {}, failed {} (failed_share {})",
            w.attempted,
            w.failed,
            w.failed as f64 / w.attempted.max(1) as f64
        );
        let _ = writeln!(
            s,
            "  {:<12} {:>14} {:>14} {:>14} {:>8} {:>6}  unit",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        for m in spec::END_TO_END {
            let Some(xs) = w.end_to_end.get(m.name).filter(|xs| !xs.is_empty()) else {
                continue;
            };
            let (q1, q3) = quartiles_exclusive(xs);
            let _ = writeln!(
                s,
                "  {:<12} {:>14} {:>14} {:>14} {:>7.2}% {:>5.0}%  {} (n={})",
                m.name,
                sig(median(xs)),
                sig(q1),
                sig(q3),
                100.0 * spread(xs),
                100.0 * m.bound,
                m.unit,
                xs.len()
            );
        }
        for m in spec::PER_LAYER {
            if let Some(v) = w.per_layer.get(m.name).filter(|v| **v != 0.0) {
                let _ = writeln!(s, "  {:<36} {:>14} {}", m.name, sig(*v), m.unit);
            }
        }
    }
    // The paper's headline beside ours: a shape reference from a different
    // simulator, so no error figure is claimed.
    let reduction = |name: &str| {
        set.workloads
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, w)| w.per_layer.get("opt_exec_reduction"))
            .copied()
    };
    if let (Some(hit), Some(miss)) = (reduction("sweep-hit"), reduction("sweep-miss")) {
        let _ = writeln!(
            s,
            "\n13-app mean exec-cycle reduction, optimized vs baseline: {:.2} % (paper: 20.5 %, a different simulator)",
            100.0 * (8.0 * hit + 5.0 * miss) / 13.0
        );
    }
    s
}

fn to_json(set: &RunSet) -> String {
    let h = &set.header;
    let mut s = format!(
        "{{\n  \"header\": {{\"git_rev\": {}, \"rustc\": {}, \"nproc\": {}, \"seed\": {}, \"runs\": {}, \"seconds\": {}, \"scale\": {}, \"profile\": {}}},\n  \"workloads\": {{\n",
        json::quote(&h.git_rev),
        json::quote(&h.rustc),
        h.nproc,
        h.seed,
        h.runs,
        json::num(h.seconds),
        json::quote(&h.scale),
        json::quote(&h.profile)
    );
    for (i, (name, w)) in set.workloads.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {}: {{\n      \"attempted\": {}, \"failed\": {},",
            json::quote(name),
            w.attempted,
            w.failed
        );
        let digests: Vec<String> = w.digests.iter().map(|d| json::quote(d)).collect();
        let _ = writeln!(s, "      \"digests\": [{}],", digests.join(", "));
        s.push_str("      \"end_to_end\": {\n");
        for (j, (metric, xs)) in w.end_to_end.iter().enumerate() {
            let values: Vec<String> = xs.iter().map(|x| json::num(*x)).collect();
            let _ = write!(
                s,
                "        {}: [{}]",
                json::quote(metric),
                values.join(", ")
            );
            s.push_str(if j + 1 < w.end_to_end.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("      },\n      \"per_layer\": {\n");
        for (j, (metric, v)) in w.per_layer.iter().enumerate() {
            let _ = write!(s, "        {}: {}", json::quote(metric), json::num(*v));
            s.push_str(if j + 1 < w.per_layer.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("      }\n    }");
        s.push_str(if i + 1 < set.workloads.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    // The benchmark defines names; it claims nothing.
    s.push_str("  },\n  \"claim\": null\n}\n");
    s
}

fn from_json(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let h = v
        .get("header")
        .ok_or_else(|| format!("{path}: no header"))?;
    let text_of = |key: &str| {
        h.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{path}: header has no {key}"))
    };
    let number_of = |key: &str| {
        h.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{path}: header has no {key}"))
    };
    let header = Header {
        git_rev: text_of("git_rev")?,
        rustc: text_of("rustc")?,
        nproc: number_of("nproc")? as u64,
        seed: number_of("seed")? as u64,
        runs: number_of("runs")? as u64,
        seconds: number_of("seconds")?,
        scale: text_of("scale")?,
        profile: text_of("profile")?,
    };
    let mut workloads = Vec::new();
    for (name, w) in v
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or_else(|| format!("{path}: no workloads"))?
    {
        let mut set = WorkloadSet {
            attempted: w.get("attempted").and_then(Value::as_f64).unwrap_or(0.0) as u64,
            failed: w.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64,
            ..WorkloadSet::default()
        };
        for d in w.get("digests").and_then(Value::as_arr).unwrap_or(&[]) {
            set.digests.push(d.as_str().unwrap_or("").to_string());
        }
        for (metric, xs) in w.get("end_to_end").and_then(Value::as_obj).unwrap_or(&[]) {
            let values = xs
                .as_arr()
                .unwrap_or(&[])
                .iter()
                .filter_map(Value::as_f64)
                .collect();
            set.end_to_end.insert(metric.clone(), values);
        }
        for (metric, x) in w.get("per_layer").and_then(Value::as_obj).unwrap_or(&[]) {
            if let Some(x) = x.as_f64() {
                set.per_layer.insert(metric.clone(), x);
            }
        }
        workloads.push((name.clone(), set));
    }
    Ok(RunSet { header, workloads })
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// Judges run set B against A on one metric of one workload.
///
/// * `unresolved`: a side's spread exceeds the bound and the two sides'
///   runs overlap — the measurement cannot tell, and saying "same" would
///   be a claim;
/// * `worse`: B's median is worse than A's by more than the bound;
/// * `better`: B's median is better by more than A's own spread and B
///   wins at least nine tenths of the run pairs (ties count for neither);
/// * `same` otherwise.
fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let gain = match better {
        Better::Lower => (ma - mb) / ma.abs(),
        Better::Higher => (mb - ma) / ma.abs(),
    };
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let overlap = max(b) >= min(a) && max(a) >= min(b);
    if spread(a).max(spread(b)) > bound && overlap {
        return Verdict::Unresolved;
    }
    if -gain > bound {
        return Verdict::Worse;
    }
    let (mut wins, mut losses) = (0, 0);
    for (x, y) in a.iter().zip(b) {
        let b_wins = match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        };
        if b_wins {
            wins += 1;
        } else if x != y {
            losses += 1;
        }
    }
    if gain > spread(a) && gain > 0.0 && wins * 10 >= (wins + losses) * 9 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

pub fn cmd_compare(args: &[String]) -> Result<bool, Usage> {
    let flags = Flags::parse(args, &[], &[])?;
    let [a_path, b_path] = flags.positional.as_slice() else {
        return Err(Usage(
            "compare takes two run-set files: A.json B.json".into(),
        ));
    };
    let (a, b) = match (from_json(a_path), from_json(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return Ok(false);
        }
    };
    // Like with like only: the seed fixes the inputs, runs and seconds fix
    // how much was measured, scale the input size, nproc the load, and
    // the profile the codegen.
    let (ha, hb) = (&a.header, &b.header);
    let unlike: Vec<String> = [
        ("seed", ha.seed.to_string(), hb.seed.to_string()),
        ("runs", ha.runs.to_string(), hb.runs.to_string()),
        ("seconds", ha.seconds.to_string(), hb.seconds.to_string()),
        ("scale", ha.scale.clone(), hb.scale.clone()),
        ("nproc", ha.nproc.to_string(), hb.nproc.to_string()),
        ("profile", ha.profile.clone(), hb.profile.clone()),
    ]
    .into_iter()
    .filter(|(_, x, y)| x != y)
    .map(|(k, x, y)| format!("{k}: {x} vs {y}"))
    .collect();
    if !unlike.is_empty() {
        eprintln!(
            "error: the run sets were not produced alike ({}); refusing to compare",
            unlike.join("; ")
        );
        return Ok(false);
    }
    println!(
        "A = {a_path} (rev {}, {})\nB = {b_path} (rev {}, {})\nseed {} | {} run(s) x {} s | scale {} | nproc {} | profile.release {{{}}}",
        ha.git_rev, ha.rustc, hb.git_rev, hb.rustc, ha.seed, ha.runs, ha.seconds, ha.scale, ha.nproc, ha.profile
    );
    println!("ratios are B/A; medians with [q1, q3] over the runs of each set");

    let mut counts = BTreeMap::new();
    let mut exact = true;
    for (name, wa) in &a.workloads {
        let Some((_, wb)) = b.workloads.iter().find(|(n, _)| n == name) else {
            println!("\n{name}: only in A");
            continue;
        };
        println!(
            "\n{name}: failed {}/{} vs {}/{}",
            wa.failed, wa.attempted, wb.failed, wb.attempted
        );
        if wa.digests == wb.digests {
            println!(
                "  exact results: digests identical over {} run(s)",
                wa.digests.len()
            );
        } else {
            exact = false;
            println!(
                "  exact results: digests DIFFER: {:?} vs {:?}",
                wa.digests, wb.digests
            );
        }
        println!(
            "  {:<12} {:>32} {:>32} {:>8} {:>6}  verdict",
            "metric", "A", "B", "B/A", "bound"
        );
        for m in spec::END_TO_END {
            let (Some(xa), Some(xb)) = (wa.end_to_end.get(m.name), wb.end_to_end.get(m.name))
            else {
                continue;
            };
            if xa.is_empty() || xb.is_empty() {
                continue;
            }
            let cell = |xs: &[f64]| {
                let (q1, q3) = quartiles_exclusive(xs);
                format!("{} [{}, {}]", sig(median(xs)), sig(q1), sig(q3))
            };
            let v = verdict(xa, xb, m.better, m.bound);
            *counts.entry(format!("{v:?}").to_lowercase()).or_insert(0) += 1;
            println!(
                "  {:<12} {:>32} {:>32} {:>8.4} {:>5.0}%  {} ({} is better, {})",
                m.name,
                cell(xa),
                cell(xb),
                median(xb) / median(xa),
                100.0 * m.bound,
                format!("{v:?}").to_lowercase(),
                m.better.name(),
                m.unit
            );
        }
        println!("  per-layer (traced run), B/A with its base A:");
        for m in spec::PER_LAYER {
            let (va, vb) = (
                wa.per_layer.get(m.name).copied().unwrap_or(0.0),
                wb.per_layer.get(m.name).copied().unwrap_or(0.0),
            );
            if va == 0.0 && vb == 0.0 {
                continue;
            }
            let ratio = if va == 0.0 {
                "n/a".to_string()
            } else {
                format!("{:.4}", vb / va)
            };
            println!(
                "    {:<36} {:>14} -> {:>14} {:<7} x{ratio} of {}",
                m.name,
                sig(va),
                sig(vb),
                m.unit,
                sig(va)
            );
        }
    }
    println!(
        "\nverdicts: {}; exact results {}",
        counts
            .iter()
            .map(|(k, n)| format!("{n} {k}"))
            .collect::<Vec<_>>()
            .join(", "),
        if exact { "identical" } else { "DIFFER" }
    );
    let bad =
        counts.get("worse").copied().unwrap_or(0) + counts.get("unresolved").copied().unwrap_or(0);
    Ok(bad == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_rules() {
        let a = [10.0, 10.1, 9.9, 10.05, 9.95];
        let same = [10.02, 10.0, 9.97, 10.1, 9.9];
        let worse = [11.5, 11.6, 11.4, 11.55, 11.45];
        let better = [8.0, 8.1, 7.9, 8.05, 7.95];
        let noisy = [8.0, 13.0, 9.0, 12.0, 10.0];
        assert_eq!(verdict(&a, &same, Better::Lower, 0.1), Verdict::Same);
        assert_eq!(verdict(&a, &worse, Better::Lower, 0.1), Verdict::Worse);
        assert_eq!(verdict(&a, &better, Better::Lower, 0.1), Verdict::Better);
        assert_eq!(verdict(&a, &noisy, Better::Lower, 0.1), Verdict::Unresolved);
        // Direction flips with "higher is better".
        assert_eq!(verdict(&a, &worse, Better::Higher, 0.1), Verdict::Better);
        assert_eq!(verdict(&a, &better, Better::Higher, 0.1), Verdict::Worse);
    }

    #[test]
    fn run_sets_round_trip() {
        let mut w = WorkloadSet {
            attempted: 48,
            failed: 0,
            digests: vec!["00ff".into(), "00aa".into()],
            ..WorkloadSet::default()
        };
        w.end_to_end.insert("wall_s".into(), vec![1.25, 1.5]);
        w.per_layer.insert("sim.run_s".into(), 0.75);
        let set = RunSet {
            header: Header {
                git_rev: "abc".into(),
                rustc: "rustc 1".into(),
                nproc: 2,
                seed: 1,
                runs: 2,
                seconds: 12.0,
                scale: "full".into(),
                profile: "overflow-checks = true".into(),
            },
            workloads: vec![("sweep-hit".into(), w)],
        };
        let text = to_json(&set);
        assert!(text.trim_end().ends_with("\"claim\": null\n}"));
        let path = std::env::temp_dir().join(format!("hoploc-perf-rt-{}.json", std::process::id()));
        std::fs::write(&path, &text).expect("temp file");
        let back = from_json(path.to_str().expect("utf-8 path")).expect("parses");
        std::fs::remove_file(&path).ok();
        assert_eq!(back.header, set.header);
        let (name, w) = &back.workloads[0];
        assert_eq!(name, "sweep-hit");
        assert_eq!(w.end_to_end["wall_s"], [1.25, 1.5]);
        assert_eq!(w.per_layer["sim.run_s"], 0.75);
        assert_eq!(w.digests, ["00ff", "00aa"]);
    }
}
