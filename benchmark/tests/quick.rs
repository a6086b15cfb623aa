//! Drives the built binary in `--quick` mode (test scale, one rep) and
//! checks the output contract: exactly the declared metrics, every value
//! finite, spans covering the operations, and exact results that repeat
//! for a seed and — where the seed only reorders work — across seeds.
//!
//! One test function on purpose: the runs are timed programs, and cargo
//! would otherwise run them on parallel threads.

use std::collections::BTreeMap;
use std::process::Command;

use hoploc_perf::json::{self, Value};

const EXE: &str = env!("CARGO_BIN_EXE_hoploc-perf");

struct Run {
    correct: bool,
    metrics: BTreeMap<String, (f64, String)>,
    digest: String,
}

fn run(workload: &str, seed: u64, traced: bool) -> Run {
    let out = Command::new(EXE)
        .args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            if traced { "1" } else { "0" },
            "--quick",
        ])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} traced {traced} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let v = json::parse(last).expect("the last line is one JSON object");
    let members = v.as_obj().expect("an object");
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let attempted = v
        .get("attempted")
        .and_then(Value::as_f64)
        .expect("attempted");
    let failed = v.get("failed").and_then(Value::as_f64).expect("failed");
    assert!(attempted >= 1.0 && attempted.fract() == 0.0 && failed == 0.0);
    let mut metrics = BTreeMap::new();
    for (name, m) in v.get("metrics").and_then(Value::as_obj).expect("metrics") {
        let keys: Vec<&str> = m
            .as_obj()
            .expect("a metric object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["value", "unit"], "{name}");
        let value = m.get("value").and_then(Value::as_f64).expect("a number");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        let unit = m.get("unit").and_then(Value::as_str).expect("a unit");
        let again = metrics.insert(name.clone(), (value, unit.to_string()));
        assert!(again.is_none(), "{workload}: {name} is emitted twice");
    }
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix(&format!("digest {workload} ")))
        .expect("a digest line")
        .to_string();
    Run {
        correct: v.get("correct") == Some(&Value::Bool(true)),
        metrics,
        digest,
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares under `key`.
fn declared(manifest: &Value, key: &str) -> Vec<(String, String)> {
    manifest
        .get(key)
        .and_then(Value::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("a string")
                    .to_string()
            };
            (text("name"), text("unit"))
        })
        .collect()
}

fn assert_emits_exactly(run: &Run, declared: &[(String, String)], what: &str) {
    let emitted: Vec<&String> = run.metrics.keys().collect();
    let mut wanted: Vec<&String> = declared.iter().map(|(n, _)| n).collect();
    wanted.sort();
    assert_eq!(emitted, wanted, "{what}: emitted vs declared metric names");
    for (name, unit) in declared {
        assert_eq!(&run.metrics[name].1, unit, "{what}: unit of {name}");
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "{name}"
        );
    }
}

/// Metrics that are exact: counts and simulated results, never timings.
const EXACT: [&str; 22] = [
    "sim_exec_cycles",
    "opt_exec_reduction",
    "search_found_vs_paper",
    "est_offchip_rank_corr",
    "est_hops_rank_corr",
    "failed_share",
    "bench.stats_digest",
    "sim.accesses",
    "cache.l1_hit_share",
    "cache.l2_hit_share",
    "cache.c2c_share",
    "mem.offchip_share",
    "mem.served",
    "mem.dropped",
    "mem.row_hit_rate",
    "noc.messages",
    "noc.avg_offchip_hops",
    "prefetch.issued",
    "prefetch.accuracy",
    "fault.rehomed",
    "search.evals",
    "search.wins_vs_paper",
];

#[test]
fn quick_runs_meet_the_output_contract() {
    let manifest_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = json::parse(&std::fs::read_to_string(manifest_path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let end_to_end = declared(&manifest, "end_to_end");
    let per_layer = declared(&manifest, "per_layer");
    let workloads: Vec<String> = manifest
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads.len(), 5);

    for w in &workloads {
        // Untraced: every end-to-end metric, each once, none zero.
        let plain = run(w, 1, false);
        assert!(plain.correct, "{w}");
        assert_emits_exactly(&plain, &end_to_end, w);
        for (name, (value, _)) in &plain.metrics {
            assert!(*value > 0.0, "{w}: end-to-end metric {name} is {value}");
        }

        // Traced: every per-layer metric, each once; spans cover the ops.
        let traced = run(w, 1, true);
        assert!(traced.correct, "{w}");
        assert_emits_exactly(&traced, &per_layer, w);
        let coverage = traced.metrics["bench.span_coverage"].0;
        assert!(
            (0.95..=1.0 + 1e-9).contains(&coverage),
            "{w}: span coverage {coverage}"
        );
        assert_eq!(traced.metrics["failed_share"].0, 0.0, "{w}");
        let trace_path = format!("{}/out/trace-{w}.json", env!("CARGO_MANIFEST_DIR"));
        let trace = json::parse(&std::fs::read_to_string(&trace_path).expect("a trace file"))
            .expect("the trace parses");
        assert!(
            !trace
                .get("spans")
                .and_then(Value::as_arr)
                .expect("spans")
                .is_empty(),
            "{w}: empty trace"
        );

        // One seed, two runs: exact results and digests are bit-equal, and
        // the traced run's digest is the untraced run's.
        let again = run(w, 1, true);
        assert_eq!(
            traced.digest, plain.digest,
            "{w}: traced vs untraced digest"
        );
        assert_eq!(traced.digest, again.digest, "{w}: digest across runs");
        for name in EXACT {
            assert_eq!(
                traced.metrics[name].0, again.metrics[name].0,
                "{w}: {name} differs between two runs of seed 1"
            );
        }

        // Another seed reorders the cells and the requests; it must not
        // change what a sweep-hit/-miss cell or a served job computes.
        if matches!(w.as_str(), "sweep-hit" | "sweep-miss" | "serve-mix") {
            let other = run(w, 2, true);
            assert_eq!(other.digest, traced.digest, "{w}: digest across seeds");
            assert_eq!(
                other.metrics["opt_exec_reduction"].0, traced.metrics["opt_exec_reduction"].0,
                "{w}: opt_exec_reduction across seeds"
            );
        }
    }
}

#[test]
fn usage_errors_exit_2_and_print_no_result() {
    for args in [
        vec!["run"],
        vec!["run", "--workload", "nosuch"],
        vec!["run", "--workload", "sweep-hit", "--trace", "2"],
        vec!["run", "--workload", "sweep-hit", "--bogus"],
        vec!["compare", "only-one.json"],
        vec![],
    ] {
        let out = Command::new(EXE).args(&args).output().expect("starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn manifest_subcommand_prints_the_committed_file() {
    let out = Command::new(EXE).arg("manifest").output().expect("starts");
    assert!(out.status.success());
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json");
    assert_eq!(String::from_utf8(out.stdout).expect("utf-8"), committed);
}
