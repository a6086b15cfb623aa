//! Property tests for the canonical job key and the wire protocol:
//! hash stability under JSON field reordering, hash inequality across
//! distinct configurations, and request/response round-trips (including
//! error replies) on seeded random samples.

use hoploc_fault::{FaultPlan, FaultRates, FaultTopo};
use hoploc_harness::MachineSpec;
use hoploc_ptest::{run_cases, SmallRng};
use hoploc_serve::wire::{
    encode_job, encode_request, encode_response, parse_request, parse_response, Request, Response,
    SubmitStatus,
};
use hoploc_serve::{FaultSpec, Fidelity, JobSpec, PrefetchMode, SearchSpec};
use hoploc_workloads::{RunKind, Scale};

const APPS: [&str; 6] = ["swim", "mgrid", "apsi", "cg", "mg", "equake"];

fn random_spec(rng: &mut SmallRng) -> JobSpec {
    use hoploc_layout::{Granularity, L2Mode};
    let faults = match rng.u64_below(3) {
        0 => FaultSpec::None,
        1 => FaultSpec::Seed(rng.next_u64() % 1000),
        _ => {
            let topo = FaultTopo {
                links: 256,
                mcs: 4,
                banks_per_mc: 8,
            };
            FaultSpec::Plan(FaultPlan::from_seed(
                rng.next_u64() % 64,
                &topo,
                &FaultRates::moderate(),
            ))
        }
    };
    JobSpec {
        app: APPS[rng.usize_in(0..APPS.len())].to_string(),
        kind: RunKind::ALL[rng.usize_in(0..RunKind::ALL.len())],
        machine: MachineSpec {
            scale: if rng.flip() {
                Scale::Test
            } else {
                Scale::Bench
            },
            granularity: if rng.flip() {
                Granularity::CacheLine
            } else {
                Granularity::Page
            },
            l2_mode: if rng.flip() {
                L2Mode::Private
            } else {
                L2Mode::Shared
            },
            m2: rng.flip(),
            threads: rng.usize_in(1..5),
            prefetch: PrefetchMode::all()[rng.usize_in(0..4)],
        },
        faults,
        fidelity: if rng.flip() {
            Fidelity::Cycle
        } else {
            Fidelity::Est
        },
        // Objectives are sampled in canon form: the parser canonicalizes
        // on the way in, so only canon strings survive a round trip.
        search: if rng.u64_below(4) == 0 {
            Some(SearchSpec {
                seed: rng.next_u64() % 1000,
                budget: (rng.u64_below(500) + 1) as u32,
                objective: ["offchip+hops", "offchip", "offchip+hops+queue"][rng.usize_in(0..3)]
                    .to_string(),
            })
        } else {
            None
        },
    }
}

/// The `"job"` object with its fields in a random order. Built from the
/// same canonical encoder pieces `encode_job` uses, so any disagreement
/// is a reordering effect, not a formatting one.
fn shuffled_job_json(spec: &JobSpec, rng: &mut SmallRng) -> String {
    let m = &spec.machine;
    let mut fields = vec![
        format!("\"app\":\"{}\"", spec.app),
        format!("\"kind\":\"{}\"", spec.kind.name()),
        format!("\"scale\":\"{}\"", m.scale.name()),
        format!("\"granularity\":\"{}\"", m.granularity.name()),
        format!("\"l2\":\"{}\"", m.l2_mode.name()),
        format!("\"mapping\":\"{}\"", m.mapping_name()),
        format!("\"threads\":{}", m.threads),
    ];
    match &spec.faults {
        FaultSpec::None => {}
        FaultSpec::Seed(s) => fields.push(format!("\"fault_seed\":{s}")),
        FaultSpec::Plan(p) => fields.push(format!(
            "\"fault_plan\":\"{}\"",
            p.render().replace('\\', "\\\\").replace('\n', "\\n")
        )),
    }
    // Mirror the encoder: the default tier is never written.
    if spec.fidelity != Fidelity::Cycle {
        fields.push("\"fidelity\":\"est\"".to_string());
    }
    if let Some(search) = &spec.search {
        fields.push(format!("\"search_seed\":{}", search.seed));
        fields.push(format!("\"search_budget\":{}", search.budget));
        fields.push(format!("\"search_objective\":\"{}\"", search.objective));
    }
    // Mirror the encoder: the Off prefetch default is never written.
    if m.prefetch != PrefetchMode::Off {
        fields.push(format!("\"prefetch\":\"{}\"", m.prefetch.name()));
    }
    // Fisher-Yates with the property rng.
    for i in (1..fields.len()).rev() {
        let j = rng.usize_in(0..i + 1);
        fields.swap(i, j);
    }
    format!("{{\"op\":\"submit\",\"job\":{{{}}}}}", fields.join(","))
}

#[test]
fn job_key_is_stable_under_field_reordering() {
    run_cases("serve.key.reorder", 200, |rng| {
        let spec = random_spec(rng);
        let canonical = parse_request(&format!(
            "{{\"op\":\"submit\",\"job\":{}}}",
            encode_job(&spec)
        ))
        .expect("canonical encoding parses");
        let shuffled = parse_request(&shuffled_job_json(&spec, rng)).expect("shuffled parses");
        let (Request::Submit(a), Request::Submit(b)) = (canonical, shuffled) else {
            panic!("both must parse as submissions");
        };
        assert_eq!(a, b, "field order must not change the parsed spec");
        assert_eq!(a.key(), spec.key(), "parse must round-trip the key");
        assert_eq!(a.key().hash, b.key().hash);
    });
}

#[test]
fn pre_fidelity_requests_parse_and_key_identically() {
    // A request written by a client that predates the `fidelity` field
    // (so: no such field at all) must parse to the default cycle tier and
    // produce the exact key it always did — cached results and coalescing
    // entries minted before the field existed stay hits.
    run_cases("serve.key.prefidelity", 200, |rng| {
        let mut spec = random_spec(rng);
        spec.fidelity = Fidelity::Cycle;
        spec.search = None;
        let old_line = shuffled_job_json(&spec, rng);
        assert!(
            !old_line.contains("fidelity"),
            "old-format request must not mention fidelity: {old_line}"
        );
        let Request::Submit(parsed) = parse_request(&old_line).expect("old format parses") else {
            panic!("must parse as a submission");
        };
        assert_eq!(parsed, spec, "old format must land on the default tier");
        assert_eq!(parsed.key(), spec.key());
        assert!(
            !parsed.canon().contains("fidelity"),
            "default-tier canon must be byte-stable: {}",
            parsed.canon()
        );
    });
}

#[test]
fn pre_prefetch_requests_parse_and_key_identically() {
    // A request written by a client that predates the `prefetch` field
    // must parse to the Off default and produce the exact key (and
    // configuration canon) it always did — cached results and coalescing
    // entries minted before the knob existed stay hits.
    run_cases("serve.key.preprefetch", 200, |rng| {
        let mut spec = random_spec(rng);
        spec.machine.prefetch = PrefetchMode::Off;
        let old_line = shuffled_job_json(&spec, rng);
        assert!(
            !old_line.contains("prefetch"),
            "old-format request must not mention prefetch: {old_line}"
        );
        let Request::Submit(parsed) = parse_request(&old_line).expect("old format parses") else {
            panic!("must parse as a submission");
        };
        assert_eq!(parsed, spec, "old format must land on the Off default");
        assert_eq!(parsed.key(), spec.key());
        assert!(
            !parsed.canon().contains("prefetch"),
            "off-prefetch canon must be byte-stable: {}",
            parsed.canon()
        );
        assert!(
            !parsed.config_canon().contains("prefetch"),
            "off-prefetch config canon must be byte-stable: {}",
            parsed.config_canon()
        );
    });
}

#[test]
fn distinct_configs_hash_differently() {
    run_cases("serve.key.distinct", 120, |rng| {
        let a = random_spec(rng);
        let b = random_spec(rng);
        if a.canon() != b.canon() {
            assert_ne!(
                a.key().hash,
                b.key().hash,
                "distinct canon strings must not collide on the sample\n a: {}\n b: {}",
                a.canon(),
                b.canon()
            );
        } else {
            assert_eq!(a.key().hash, b.key().hash);
        }
    });
}

#[test]
fn requests_round_trip() {
    run_cases("serve.wire.request", 200, |rng| {
        let req = match rng.u64_below(6) {
            0 => Request::Submit(random_spec(rng)),
            1 => Request::Status(rng.next_u64() % 10_000),
            2 => Request::Result(rng.next_u64() % 10_000),
            3 => Request::Stats,
            4 => Request::Drain,
            _ => Request::Ping,
        };
        let line = encode_request(&req);
        assert!(!line.contains('\n'), "requests are one line: {line}");
        assert_eq!(parse_request(&line).expect("parses"), req, "{line}");
    });
}

#[test]
fn responses_round_trip_including_error_replies() {
    run_cases("serve.wire.response", 200, |rng| {
        let raw_result = format!(
            "{{\"app\": \"{}\", \"exec_cycles\": {}}}",
            APPS[rng.usize_in(0..APPS.len())],
            rng.next_u64() % 1_000_000
        );
        let metrics = format!(
            "{{\"counters\": {{\"serve.jobs\": [{}]}},\"gauges\": {{}}}}",
            rng.next_u64() % 100
        );
        let resp = match rng.u64_below(9) {
            0 => Response::Submitted {
                id: rng.next_u64() % 10_000,
                key: format!("{:016x}", rng.next_u64()),
                status: match rng.u64_below(3) {
                    0 => SubmitStatus::Queued,
                    1 => SubmitStatus::Coalesced,
                    _ => SubmitStatus::Cached,
                },
            },
            1 => Response::Rejected {
                reason: if rng.flip() {
                    "queue_full".into()
                } else {
                    "draining".into()
                },
                detail: format!("queue at capacity ({} jobs waiting)", rng.u64_below(100)),
                retry_after_ms: rng.u64_below(1000),
            },
            2 => Response::Status {
                id: rng.next_u64() % 10_000,
                state: ["queued", "running", "done", "error"][rng.usize_in(0..4)].to_string(),
                queue_depth: rng.u64_below(100),
            },
            3 => Response::ResultOk {
                id: rng.next_u64() % 10_000,
                result: raw_result.clone(),
            },
            4 => Response::ResultErr {
                id: rng.next_u64() % 10_000,
                error: format!(
                    "timeout: exceeded {} ms wall-clock budget \"quoted\"",
                    rng.u64_below(5000)
                ),
            },
            5 => Response::Stats {
                metrics: metrics.clone(),
            },
            6 => Response::Drained {
                answered: rng.next_u64() % 10_000,
                executed: rng.next_u64() % 10_000,
                metrics: metrics.clone(),
            },
            7 => Response::Pong,
            _ => Response::ProtocolError {
                error: format!("unknown op \"op{}\"\twith\ttabs", rng.u64_below(100)),
            },
        };
        let line = encode_response(&resp);
        assert!(!line.contains('\n'), "responses are one line: {line}");
        assert_eq!(parse_response(&line).expect("parses"), resp, "{line}");
        // Raw payloads must cross the wire byte-exactly.
        match parse_response(&line).expect("parses") {
            Response::ResultOk { result, .. } => assert_eq!(result, raw_result),
            Response::Stats { metrics: m, .. } | Response::Drained { metrics: m, .. } => {
                assert_eq!(m, metrics)
            }
            _ => {}
        }
    });
}

#[test]
fn malformed_lines_never_panic_the_parser() {
    run_cases("serve.wire.fuzz", 300, |rng| {
        // Mutate a valid request line: truncate, splice bytes, or flip
        // a character. Parsing must return Ok or Err, never panic.
        let mut line = encode_request(&Request::Submit(random_spec(rng)));
        match rng.u64_below(3) {
            0 => {
                // Wire lines are pure ASCII, so any cut is a char boundary.
                let cut = rng.usize_in(0..line.len());
                line.truncate(cut);
            }
            1 => {
                let pos = rng.usize_in(0..line.len());
                line.insert(pos, ['{', '}', '"', ',', 'x'][rng.usize_in(0..5)]);
            }
            _ => {
                line = line.replace(
                    ["\"", ":", "{"][rng.usize_in(0..3)],
                    ["", "::", "[{"][rng.usize_in(0..3)],
                );
            }
        }
        let _ = parse_request(&line);
        let _ = parse_response(&line);
    });
}
