//! The newline-delimited JSON wire protocol.
//!
//! Every request and every response is exactly one line of JSON. Requests
//! carry an `"op"` discriminant (`submit`, `status`, `result`, `stats`,
//! `drain`, `ping`); responses echo the op and carry `"ok"` — `false`
//! marks both admission rejects (queue full, draining, invalid job) and
//! protocol errors, each with a machine-readable `"error"` reason.
//!
//! Result and metrics payloads are embedded as *raw* pre-serialized JSON
//! objects: the encoder splices the bytes in unchanged and the parser
//! extracts them unchanged, so a result served from the cache or over the
//! wire is byte-identical to the `record_json` of a direct run — the
//! property the end-to-end suite asserts literally.

use crate::job::{FaultSpec, Fidelity, JobSpec, SearchSpec};
use hoploc_fault::FaultPlan;
use hoploc_harness::MachineSpec;
use hoploc_layout::{Granularity, L2Mode};
use hoploc_obs::{parse_json, JsonValue, JsonWriter};
use hoploc_sim::PrefetchMode;
use hoploc_workloads::{RunKind, Scale};

/// A parsed client request.
#[derive(Clone, PartialEq, Debug)]
pub enum Request {
    /// Submit a job for execution.
    Submit(JobSpec),
    /// Ask for a job's current state.
    Status(u64),
    /// Wait for and fetch a job's result.
    Result(u64),
    /// Stream a job's progress events as they land, then its final
    /// result. For job kinds that never emit progress this degrades to
    /// `result` with extra steps.
    Watch(u64),
    /// Fetch the server metrics snapshot.
    Stats,
    /// Stop admitting, finish all accepted jobs, snapshot metrics, shut
    /// down.
    Drain,
    /// Liveness probe.
    Ping,
}

/// How an accepted submission was satisfied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SubmitStatus {
    /// Admitted to the queue; a worker will execute it.
    Queued,
    /// Merged with an identical in-flight job: same id, one simulation.
    Coalesced,
    /// Served from the result cache: already done on arrival.
    Cached,
}

impl SubmitStatus {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            SubmitStatus::Queued => "queued",
            SubmitStatus::Coalesced => "coalesced",
            SubmitStatus::Cached => "cached",
        }
    }
}

/// A server response (one line).
#[derive(Clone, PartialEq, Debug)]
pub enum Response {
    /// Submission accepted.
    Submitted {
        /// Job id (shared by coalesced submissions).
        id: u64,
        /// The 16-hex-digit canonical job hash.
        key: String,
        /// How the submission was satisfied.
        status: SubmitStatus,
    },
    /// Submission rejected (backpressure, drain, or invalid job). The
    /// client should wait `retry_after_ms` before retrying; `0` means
    /// "don't retry" (the condition is permanent for this server).
    Rejected {
        /// Machine-readable reason: `queue_full`, `draining`, or
        /// `invalid_job`.
        reason: String,
        /// Human-readable detail (empty when the reason says it all).
        detail: String,
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// A job's current state.
    Status {
        /// Job id.
        id: u64,
        /// `queued`, `running`, `done`, or `error`.
        state: String,
        /// Jobs currently waiting in the queue.
        queue_depth: u64,
    },
    /// A finished job's result: the raw `record_json` bytes.
    ResultOk {
        /// Job id.
        id: u64,
        /// Raw single-line JSON run record.
        result: String,
    },
    /// One progress event of a watched job: the raw event JSON bytes,
    /// numbered so a client can detect (and a test can assert) in-order
    /// delivery. A `watch` reply is any number of these followed by one
    /// terminal `ResultOk`/`ResultErr` line.
    Progress {
        /// Job id.
        id: u64,
        /// 0-based event number within this job.
        seq: u64,
        /// Raw single-line JSON event object.
        event: String,
    },
    /// A finished job's structured error (timeout, engine failure).
    ResultErr {
        /// Job id.
        id: u64,
        /// What went wrong.
        error: String,
    },
    /// The server metrics snapshot as a raw JSON object.
    Stats {
        /// Raw single-line JSON metrics object.
        metrics: String,
    },
    /// Drain acknowledged: all accepted jobs answered, server exiting.
    Drained {
        /// Jobs that received a terminal answer over the server lifetime.
        answered: u64,
        /// Simulations actually executed (less than submissions when
        /// coalescing/caching did their job).
        executed: u64,
        /// Final metrics snapshot as a raw JSON object.
        metrics: String,
    },
    /// Reply to `ping`.
    Pong,
    /// The request line could not be understood.
    ProtocolError {
        /// Parse/validation failure description.
        error: String,
    },
}

/// Encodes a job spec as the `"job"` object of a submit request. Faults
/// encode as `fault_seed` (seeded generation) or `fault_plan` (the
/// `hoploc faults` text format, JSON-escaped).
pub fn encode_job(spec: &JobSpec) -> String {
    let m = &spec.machine;
    let mut w = JsonWriter::compact();
    (w.obj().field("app", &spec.app))
        .field("kind", spec.kind.name())
        .field("scale", m.scale.name())
        .field("granularity", m.granularity.name())
        .field("l2", m.l2_mode.name())
        .field("mapping", m.mapping_name())
        .field("threads", m.threads);
    match &spec.faults {
        FaultSpec::None => {}
        FaultSpec::Seed(seed) => {
            w.field("fault_seed", seed);
        }
        FaultSpec::Plan(plan) => {
            w.field("fault_plan", plan.render());
        }
    }
    // Default-tier requests stay byte-identical to pre-fidelity clients'.
    if spec.fidelity != Fidelity::Cycle {
        w.field("fidelity", spec.fidelity.name());
    }
    // Search fields are likewise absent unless the job is a search.
    if let Some(search) = &spec.search {
        (w.field("search_seed", search.seed))
            .field("search_budget", search.budget)
            .field("search_objective", &search.objective);
    }
    // Off-prefetch requests stay byte-identical to pre-prefetch clients'.
    if m.prefetch != PrefetchMode::Off {
        w.field("prefetch", m.prefetch.name());
    }
    w.end_obj().take()
}

/// Parses the `"job"` object of a submit request. Unknown fields are
/// rejected — a typoed knob must not silently fall back to a default and
/// key (or simulate) something the client did not ask for. Values are
/// spelled by their types' own `parse`, the functions the CLI's flags call;
/// whether the machine they add up to can be built is the engine's
/// admission check ([`MachineSpec::check`]), not a protocol error.
pub fn parse_job(v: &JsonValue) -> Result<JobSpec, String> {
    let JsonValue::Obj(members) = v else {
        return Err("job must be an object".into());
    };
    let mut spec = JobSpec::default();
    let mut fault_seed: Option<u64> = None;
    let mut fault_plan: Option<FaultPlan> = None;
    let mut search_seed: Option<u64> = None;
    let mut search_budget: Option<u32> = None;
    let mut search_objective: Option<String> = None;
    let mut saw_app = false;
    let mut saw_kind = false;
    for (k, val) in members {
        let text = || val.as_str().ok_or_else(|| format!("{k} must be a string"));
        let number = || {
            val.as_u64()
                .ok_or_else(|| format!("{k} must be a non-negative integer"))
        };
        match k.as_str() {
            "app" => {
                spec.app = text()?.to_string();
                saw_app = true;
            }
            "kind" => {
                spec.kind = RunKind::parse(text()?)?;
                saw_kind = true;
            }
            "scale" => spec.machine.scale = Scale::parse(text()?)?,
            "granularity" => spec.machine.granularity = Granularity::parse(text()?)?,
            "l2" => spec.machine.l2_mode = L2Mode::parse(text()?)?,
            "mapping" => spec.machine.m2 = MachineSpec::parse_mapping(text()?)?,
            "threads" => spec.machine.threads = usize::try_from(number()?).unwrap_or(usize::MAX),
            "prefetch" => spec.machine.prefetch = PrefetchMode::parse(text()?)?,
            "fidelity" => spec.fidelity = Fidelity::parse(text()?)?,
            "fault_seed" => fault_seed = Some(number()?),
            "fault_plan" => {
                fault_plan =
                    Some(FaultPlan::parse(text()?).map_err(|e| format!("fault_plan: {e}"))?);
            }
            "search_seed" => search_seed = Some(number()?),
            "search_budget" => {
                let n = number()?;
                if n == 0 || n > u64::from(u32::MAX) {
                    return Err("search_budget must be between 1 and 4294967295".into());
                }
                search_budget = Some(n as u32);
            }
            "search_objective" => {
                // Canonicalize up front so semantically identical objective
                // spellings ("offchip,hops" vs "offchip+hops") key — and
                // therefore cache and coalesce — identically.
                let obj = hoploc_search::Objective::parse(text()?)
                    .map_err(|e| format!("search_objective: {e}"))?;
                search_objective = Some(obj.canon());
            }
            other => return Err(format!("unknown job field {other:?}")),
        }
    }
    if !saw_app {
        return Err("job is missing required field \"app\"".into());
    }
    if !saw_kind {
        return Err("job is missing required field \"kind\"".into());
    }
    spec.faults = match (fault_seed, fault_plan) {
        (Some(_), Some(_)) => {
            return Err("fault_seed and fault_plan are mutually exclusive".into());
        }
        (Some(seed), None) => FaultSpec::Seed(seed),
        (None, Some(plan)) => FaultSpec::Plan(plan),
        (None, None) => FaultSpec::None,
    };
    // Any search_* field makes the job a search; unspecified knobs take
    // the same defaults the CLI uses.
    spec.search = match (search_seed, search_budget, search_objective) {
        (None, None, None) => None,
        (seed, budget, objective) => Some(SearchSpec {
            seed: seed.unwrap_or(hoploc_search::DEFAULT_SEED),
            budget: budget.unwrap_or(hoploc_search::DEFAULT_BUDGET),
            objective: objective.unwrap_or_else(|| hoploc_search::Objective::default().canon()),
        }),
    };
    Ok(spec)
}

/// Encodes a request as one line (no trailing newline).
pub fn encode_request(req: &Request) -> String {
    let mut w = JsonWriter::compact();
    w.obj();
    match req {
        Request::Submit(spec) => w.field("op", "submit").key("job").raw(&encode_job(spec)),
        Request::Status(id) => w.field("op", "status").field("id", id),
        Request::Result(id) => w.field("op", "result").field("id", id),
        Request::Watch(id) => w.field("op", "watch").field("id", id),
        Request::Stats => w.field("op", "stats"),
        Request::Drain => w.field("op", "drain"),
        Request::Ping => w.field("op", "ping"),
    };
    w.end_obj().take()
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = parse_json(line).map_err(|e| format!("malformed JSON: {e}"))?;
    let op = v
        .get("op")
        .and_then(|o| o.as_str())
        .ok_or("missing \"op\" string")?;
    let id = || {
        v.get("id")
            .and_then(|i| i.as_u64())
            .ok_or_else(|| format!("op {op:?} needs a numeric \"id\""))
    };
    match op {
        "submit" => {
            let job = v.get("job").ok_or("submit needs a \"job\" object")?;
            Ok(Request::Submit(parse_job(job)?))
        }
        "status" => Ok(Request::Status(id()?)),
        "result" => Ok(Request::Result(id()?)),
        "watch" => Ok(Request::Watch(id()?)),
        "stats" => Ok(Request::Stats),
        "drain" => Ok(Request::Drain),
        "ping" => Ok(Request::Ping),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Encodes a response as one line (no trailing newline). `result` and
/// `metrics` payloads are spliced in as raw bytes.
pub fn encode_response(resp: &Response) -> String {
    let mut w = JsonWriter::compact();
    let ok = !matches!(
        resp,
        Response::Rejected { .. } | Response::ProtocolError { .. }
    );
    w.obj().field("ok", ok);
    match resp {
        Response::Submitted { id, key, status } => (w.field("op", "submit").field("id", id))
            .field("key", key)
            .field("status", status.name()),
        Response::Rejected {
            reason,
            detail,
            retry_after_ms,
        } => (w.field("op", "submit").field("error", reason))
            .field("detail", detail)
            .field("retry_after_ms", retry_after_ms),
        Response::Status {
            id,
            state,
            queue_depth,
        } => (w.field("op", "status").field("id", id))
            .field("state", state)
            .field("queue_depth", queue_depth),
        Response::ResultOk { id, result } => (w.field("op", "result").field("id", id))
            .field("state", "done")
            .key("result")
            .raw(result),
        Response::Progress { id, seq, event } => (w.field("op", "watch").field("id", id))
            .field("seq", seq)
            .key("event")
            .raw(event),
        Response::ResultErr { id, error } => (w.field("op", "result").field("id", id))
            .field("state", "error")
            .field("error", error),
        Response::Stats { metrics } => w.field("op", "stats").key("metrics").raw(metrics),
        Response::Drained {
            answered,
            executed,
            metrics,
        } => (w.field("op", "drain").field("answered", answered))
            .field("executed", executed)
            .key("metrics")
            .raw(metrics),
        Response::Pong => w.field("op", "ping"),
        Response::ProtocolError { error } => w.field("op", "error").field("error", error),
    };
    w.end_obj().take()
}

/// Extracts the raw bytes of the JSON object value of `"key":` in `line`,
/// balancing braces and skipping string contents. This is how result and
/// metrics payloads cross the protocol without a reserialization that
/// could perturb their bytes.
pub fn extract_raw_object(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let bytes = line.as_bytes();
    if *bytes.get(start)? != b'{' {
        return None;
    }
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate().skip(start) {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(line[start..=i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Parses one response line back into a [`Response`] (the client half of
/// the protocol). Raw `result`/`metrics` payloads are preserved
/// byte-for-byte.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let v = parse_json(line).map_err(|e| format!("malformed JSON: {e}"))?;
    let ok = matches!(v.get("ok"), Some(JsonValue::Bool(true)));
    let op = v
        .get("op")
        .and_then(|o| o.as_str())
        .ok_or("missing \"op\" string")?;
    let str_field = |name: &str| -> Result<String, String> {
        v.get(name)
            .and_then(|s| s.as_str())
            .map(str::to_string)
            .ok_or_else(|| format!("missing string \"{name}\""))
    };
    let num_field = |name: &str| -> Result<u64, String> {
        v.get(name)
            .and_then(|n| n.as_u64())
            .ok_or_else(|| format!("missing number \"{name}\""))
    };
    match (op, ok) {
        ("submit", true) => {
            let status = match str_field("status")?.as_str() {
                "queued" => SubmitStatus::Queued,
                "coalesced" => SubmitStatus::Coalesced,
                "cached" => SubmitStatus::Cached,
                other => return Err(format!("unknown submit status {other:?}")),
            };
            Ok(Response::Submitted {
                id: num_field("id")?,
                key: str_field("key")?,
                status,
            })
        }
        ("submit", false) => Ok(Response::Rejected {
            reason: str_field("error")?,
            detail: str_field("detail")?,
            retry_after_ms: num_field("retry_after_ms")?,
        }),
        ("status", true) => Ok(Response::Status {
            id: num_field("id")?,
            state: str_field("state")?,
            queue_depth: num_field("queue_depth")?,
        }),
        ("result", true) => {
            let id = num_field("id")?;
            match str_field("state")?.as_str() {
                "done" => Ok(Response::ResultOk {
                    id,
                    result: extract_raw_object(line, "result")
                        .ok_or("result reply is missing its \"result\" object")?,
                }),
                "error" => Ok(Response::ResultErr {
                    id,
                    error: str_field("error")?,
                }),
                other => Err(format!("unknown result state {other:?}")),
            }
        }
        ("watch", true) => Ok(Response::Progress {
            id: num_field("id")?,
            seq: num_field("seq")?,
            event: extract_raw_object(line, "event")
                .ok_or("watch reply is missing its \"event\" object")?,
        }),
        ("stats", true) => Ok(Response::Stats {
            metrics: extract_raw_object(line, "metrics")
                .ok_or("stats reply is missing its \"metrics\" object")?,
        }),
        ("drain", true) => Ok(Response::Drained {
            answered: num_field("answered")?,
            executed: num_field("executed")?,
            metrics: extract_raw_object(line, "metrics")
                .ok_or("drain reply is missing its \"metrics\" object")?,
        }),
        ("ping", true) => Ok(Response::Pong),
        ("error", false) => Ok(Response::ProtocolError {
            error: str_field("error")?,
        }),
        (op, ok) => Err(format!("unexpected reply op {op:?} with ok={ok}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            app: "swim".into(),
            kind: RunKind::Optimized,
            machine: MachineSpec::at(Scale::Test),
            ..JobSpec::default()
        }
    }

    #[test]
    fn submit_round_trips() {
        for faults in [
            FaultSpec::None,
            FaultSpec::Seed(42),
            FaultSpec::Plan(FaultPlan::parse("mc 1 from=5 until=9\n").unwrap()),
        ] {
            let mut s = spec();
            s.faults = faults;
            let req = Request::Submit(s);
            let line = encode_request(&req);
            assert_eq!(parse_request(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn plain_ops_round_trip() {
        for req in [
            Request::Status(7),
            Request::Result(9),
            Request::Watch(11),
            Request::Stats,
            Request::Drain,
            Request::Ping,
        ] {
            let line = encode_request(&req);
            assert_eq!(parse_request(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn fidelity_round_trips_and_default_is_absent_from_the_wire() {
        let mut s = spec();
        s.fidelity = Fidelity::Est;
        let line = encode_request(&Request::Submit(s.clone()));
        assert!(line.contains("\"fidelity\":\"est\""), "{line}");
        assert_eq!(parse_request(&line).unwrap(), Request::Submit(s));
        let line = encode_request(&Request::Submit(spec()));
        assert!(!line.contains("fidelity"), "{line}");
        let err = parse_request(
            r#"{"op":"submit","job":{"app":"a","kind":"baseline","fidelity":"rtl"}}"#,
        )
        .unwrap_err();
        assert!(err.contains("fidelity"), "{err}");
    }

    #[test]
    fn prefetch_round_trips_and_default_is_absent_from_the_wire() {
        let mut s = spec();
        s.machine.prefetch = PrefetchMode::Gated;
        let line = encode_request(&Request::Submit(s.clone()));
        assert!(line.contains("\"prefetch\":\"gated\""), "{line}");
        assert_eq!(parse_request(&line).unwrap(), Request::Submit(s));
        // Off-prefetch jobs never mention prefetch on the wire.
        let line = encode_request(&Request::Submit(spec()));
        assert!(!line.contains("prefetch"), "{line}");
        let err = parse_request(
            r#"{"op":"submit","job":{"app":"a","kind":"baseline","prefetch":"psychic"}}"#,
        )
        .unwrap_err();
        assert!(err.contains("prefetch"), "{err}");
    }

    #[test]
    fn search_fields_round_trip_and_defaults_are_absent_from_the_wire() {
        let mut s = spec();
        s.search = Some(SearchSpec {
            seed: 7,
            budget: 120,
            objective: "offchip+hops".into(),
        });
        let line = encode_request(&Request::Submit(s.clone()));
        assert!(line.contains("\"search_seed\":7"), "{line}");
        assert!(line.contains("\"search_budget\":120"), "{line}");
        assert!(
            line.contains("\"search_objective\":\"offchip+hops\""),
            "{line}"
        );
        assert_eq!(parse_request(&line).unwrap(), Request::Submit(s));
        // Non-search jobs never mention search on the wire.
        let line = encode_request(&Request::Submit(spec()));
        assert!(!line.contains("search"), "{line}");
        // A single search field is enough to opt in; the rest default to
        // the CLI defaults, and the objective is canonicalized on parse.
        let line = r#"{"op":"submit","job":{"app":"swim","kind":"optimized","search_seed":3}}"#;
        let Request::Submit(parsed) = parse_request(line).unwrap() else {
            panic!("must parse as a submission");
        };
        let search = parsed.search.expect("search_seed opts into search");
        assert_eq!((search.seed, search.budget), (3, 400));
        assert_eq!(search.objective, "offchip+hops");
        let line = r#"{"op":"submit","job":{"app":"swim","kind":"optimized","search_objective":"hops,offchip"}}"#;
        let Request::Submit(parsed) = parse_request(line).unwrap() else {
            panic!("must parse as a submission");
        };
        assert_eq!(parsed.search.unwrap().objective, "offchip+hops");
        // Bad knobs are parse errors, not silent defaults.
        for (line, needle) in [
            (
                r#"{"op":"submit","job":{"app":"a","kind":"optimized","search_budget":0}}"#,
                "search_budget",
            ),
            (
                r#"{"op":"submit","job":{"app":"a","kind":"optimized","search_objective":"latency"}}"#,
                "search_objective",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "`{line}` -> `{err}`");
        }
    }

    #[test]
    fn progress_replies_round_trip_with_raw_event_bytes() {
        let event = r#"{"app":"apsi","phase":"anneal","evaluated":41,"best_score":0.356519,"best":{"mcs":[18,21,42,45]}}"#;
        let resp = Response::Progress {
            id: 5,
            seq: 3,
            event: event.to_string(),
        };
        let line = encode_response(&resp);
        assert!(!line.contains('\n'), "one line: {line}");
        assert_eq!(parse_response(&line).unwrap(), resp, "{line}");
        let Response::Progress { event: back, .. } = parse_response(&line).unwrap() else {
            panic!("must parse as progress");
        };
        assert_eq!(back, event, "event bytes must cross the wire unchanged");
    }

    #[test]
    fn unknown_job_fields_are_rejected() {
        let line = r#"{"op":"submit","job":{"app":"swim","kind":"baseline","granlarity":"page"}}"#;
        let err = parse_request(line).unwrap_err();
        assert!(err.contains("granlarity"), "{err}");
    }

    #[test]
    fn missing_required_fields_are_rejected() {
        for (line, needle) in [
            (r#"{"op":"submit","job":{"kind":"baseline"}}"#, "app"),
            (r#"{"op":"submit","job":{"app":"swim"}}"#, "kind"),
            (r#"{"op":"status"}"#, "id"),
            (r#"{"op":"warp"}"#, "unknown op"),
            (r#"{"job":{}}"#, "op"),
            ("not json", "malformed"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "`{line}` -> `{err}`");
        }
    }

    #[test]
    fn exclusive_fault_fields() {
        let line = r##"{"op":"submit","job":{"app":"a","kind":"baseline","fault_seed":1,"fault_plan":"# x\n"}}"##;
        assert!(parse_request(line)
            .unwrap_err()
            .contains("mutually exclusive"));
    }

    #[test]
    fn raw_extraction_balances_braces_and_strings() {
        let line = r#"{"ok":true,"op":"stats","metrics":{"a":{"b":[1,2]},"s":"}{"}}"#;
        assert_eq!(
            extract_raw_object(line, "metrics").unwrap(),
            r#"{"a":{"b":[1,2]},"s":"}{"}"#
        );
        assert!(extract_raw_object(line, "result").is_none());
    }

    #[test]
    fn responses_round_trip_including_errors() {
        let raw = r#"{"app": "swim", "kind": "baseline", "exec_cycles": 12}"#;
        let metrics =
            r#"{"counters": {"serve.submitted": [3]},"gauges": {},"histograms": {},"series": {}}"#;
        for resp in [
            Response::Submitted {
                id: 3,
                key: "00ff".into(),
                status: SubmitStatus::Coalesced,
            },
            Response::Rejected {
                reason: "queue_full".into(),
                detail: "queue at capacity 2".into(),
                retry_after_ms: 50,
            },
            Response::Status {
                id: 3,
                state: "running".into(),
                queue_depth: 2,
            },
            Response::ResultOk {
                id: 3,
                result: raw.to_string(),
            },
            Response::ResultErr {
                id: 3,
                error: "timeout after 10 ms".into(),
            },
            Response::Stats {
                metrics: metrics.to_string(),
            },
            Response::Drained {
                answered: 12,
                executed: 4,
                metrics: metrics.to_string(),
            },
            Response::Pong,
            Response::ProtocolError {
                error: "unknown op \"warp\"".into(),
            },
        ] {
            let line = encode_response(&resp);
            assert!(!line.contains('\n'), "one line: {line}");
            assert_eq!(parse_response(&line).unwrap(), resp, "{line}");
        }
    }
}
