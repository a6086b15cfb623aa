//! End-to-end server tests over real loopback TCP.
//!
//! The headline assertion is byte-identity: N concurrent clients submit
//! an app × run-kind matrix and every result must equal, byte for byte,
//! the `record_json` of the same cell run directly through the harness.
//! The rest covers the ISSUE's acceptance list: duplicate submissions
//! coalesce (simulations executed < jobs submitted), a saturated queue
//! rejects with a retry hint, per-job timeouts answer with structured
//! errors, and drain shuts down with every accepted job answered.

use hoploc_harness::{record_json, MachineSpec, RunRequest, RunSpec, Suite};
use hoploc_noc::L2ToMcMapping;
use hoploc_serve::client::Client;
use hoploc_serve::engine::{Engine, EngineCaps, SuiteEngine};
use hoploc_serve::load::{run_load, LoadConfig};
use hoploc_serve::server::{ServeConfig, Server};
use hoploc_serve::wire::SubmitStatus;
use hoploc_serve::JobSpec;
use hoploc_sim::{Cancel, SimConfig};
use hoploc_workloads::{all_apps, RunKind, Scale};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

const KINDS: [RunKind; 2] = [RunKind::Baseline, RunKind::Optimized];

fn spec_for(app: &str, kind: RunKind) -> JobSpec {
    JobSpec {
        app: app.to_string(),
        kind,
        machine: MachineSpec::at(Scale::Test),
        ..JobSpec::default()
    }
}

/// The app × run-kind matrix at test scale, run directly through one
/// suite — the ground truth served results must match byte-for-byte.
fn direct_matrix() -> HashMap<String, String> {
    // Mirror the job defaults (and the CLI defaults): cacheline
    // interleaving, private L2s. SimConfig::default() is Page.
    let sim = SimConfig {
        granularity: hoploc_layout::Granularity::CacheLine,
        l2_mode: hoploc_layout::L2Mode::Private,
        ..SimConfig::scaled()
    };
    let mapping = L2ToMcMapping::nearest_cluster(sim.mesh, &sim.placement);
    let suite = Suite::new(all_apps(Scale::Test), mapping, sim);
    let mut reqs = Vec::new();
    for (i, _) in suite.apps().iter().enumerate() {
        for kind in KINDS {
            reqs.push(RunRequest::new(RunSpec { app: i, kind }));
        }
    }
    let records = suite.run_all(&reqs, 4);
    records
        .iter()
        .map(|r| (spec_for(&r.app, r.kind).canon(), record_json(r)))
        .collect()
}

fn start_server(cfg: ServeConfig) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let engine = Arc::new(SuiteEngine::new(EngineCaps::default()));
    start_server_with(engine, cfg)
}

fn start_server_with(
    engine: Arc<dyn Engine>,
    cfg: ServeConfig,
) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", engine, cfg).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || {
        server.run();
    });
    (addr, handle)
}

#[test]
fn served_results_are_byte_identical_to_direct_runs() {
    let expected = direct_matrix();
    let (addr, server) = start_server(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });

    // N concurrent clients split the matrix; each fetches its results
    // and checks them against the direct ground truth.
    let apps: Vec<String> = all_apps(Scale::Test)
        .iter()
        .map(|a| a.name().to_string())
        .collect();
    let expected = Arc::new(expected);
    let clients: Vec<_> = (0..3)
        .map(|c| {
            let apps = apps.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for app in apps.iter().skip(c).step_by(3) {
                    for kind in KINDS {
                        let spec = spec_for(app, kind);
                        let (id, _, _) = client
                            .submit_until_accepted(&spec, 10_000)
                            .expect("accepted");
                        let served = client.result(id).expect("result");
                        let want = expected.get(&spec.canon()).expect("ground truth");
                        assert_eq!(
                            &served, want,
                            "served bytes must equal direct run_all bytes for {app}/{kind:?}"
                        );
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    let mut client = Client::connect(addr).expect("connect");
    let (answered, executed, _) = client.drain().expect("drain");
    assert!(answered >= (apps.len() * KINDS.len()) as u64);
    assert!(executed >= 1);
    server.join().expect("server thread exits after drain");
}

#[test]
fn duplicate_submissions_coalesce_into_fewer_simulations() {
    let (addr, server) = start_server(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let report = run_load(
        addr,
        &LoadConfig {
            clients: 4,
            repeat: 3,
            scale: Scale::Test,
            kinds: KINDS.to_vec(),
            max_retries: 10_000,
        },
    )
    .expect("load run");
    assert_eq!(report.failed, 0, "errors: {:?}", report.errors);
    let napps = all_apps(Scale::Test).len() as u64;
    assert_eq!(report.completed, napps * 2 * 3);
    assert!(
        report.coalesced + report.cached > 0,
        "repeated submissions must coalesce or hit cache"
    );

    let mut client = Client::connect(addr).expect("connect");
    let (answered, executed, metrics) = client.drain().expect("drain");
    assert!(
        executed < report.completed,
        "coalescing must execute fewer simulations ({executed}) than jobs answered \
         ({} completed client-side)",
        report.completed
    );
    assert_eq!(executed, napps * 2, "each distinct cell simulates once");
    assert!(answered >= executed);
    // The drain metrics snapshot records the same story.
    let v = hoploc_obs::parse_json(&metrics).expect("metrics parse");
    let jobs = v
        .get("counters")
        .and_then(|c| c.get("serve.jobs"))
        .and_then(|f| f.as_array())
        .expect("serve.jobs family");
    let coalesced = jobs[hoploc_serve::Ctr::Coalesced as usize]
        .as_u64()
        .expect("coalesced");
    let cache_hits = jobs[hoploc_serve::Ctr::CacheHits as usize]
        .as_u64()
        .expect("cache_hits");
    assert!(coalesced + cache_hits > 0);
    server.join().expect("server exits");
}

/// An engine slow enough to hold the queue full while submissions pile up.
struct SlowEngine {
    delay: Duration,
}

impl Engine for SlowEngine {
    fn validate(&self, _spec: &JobSpec) -> Result<(), String> {
        Ok(())
    }

    fn run(&self, spec: &JobSpec, _: &dyn Fn(String), _: &Cancel) -> Result<String, String> {
        std::thread::sleep(self.delay);
        Ok(format!("{{\"canon\": \"{}\"}}", spec.canon()))
    }
}

#[test]
fn queue_saturation_rejects_with_retry_then_recovers() {
    let (addr, server) = start_server_with(
        Arc::new(SlowEngine {
            delay: Duration::from_millis(50),
        }),
        ServeConfig {
            workers: 1,
            queue_cap: 2,
            retry_after_ms: 5,
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect(addr).expect("connect");
    // Distinct jobs (different threads counts) so nothing coalesces.
    let mut rejected = 0u64;
    let mut ids = Vec::new();
    for i in 0..12 {
        let mut spec = spec_for("swim", RunKind::Baseline);
        spec.machine.threads = i + 1;
        match client.submit(&spec).expect("reply") {
            hoploc_serve::Response::Submitted { id, .. } => ids.push(id),
            hoploc_serve::Response::Rejected {
                reason,
                retry_after_ms,
                ..
            } => {
                assert_eq!(reason, "queue_full");
                assert_eq!(retry_after_ms, 5);
                rejected += 1;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(rejected > 0, "hammering a queue of 2 must reject");
    // Backpressure is advisory, not fatal: retrying with the hint lands.
    let mut spec = spec_for("swim", RunKind::Baseline);
    spec.machine.threads = 99;
    let (id, status, retries) = client
        .submit_until_accepted(&spec, 10_000)
        .expect("eventually accepted");
    assert_eq!(status, SubmitStatus::Queued);
    assert!(retries > 0, "acceptance had to wait out backpressure");
    ids.push(id);
    for id in ids {
        client.result(id).expect("every accepted job completes");
    }
    client.drain().expect("drain");
    server.join().expect("server exits");
}

#[test]
fn timeouts_reply_with_structured_errors() {
    let (addr, server) = start_server_with(
        Arc::new(SlowEngine {
            delay: Duration::from_millis(400),
        }),
        ServeConfig {
            workers: 1,
            job_timeout_ms: 30,
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect(addr).expect("connect");
    let (id, _, _) = client
        .submit_until_accepted(&spec_for("swim", RunKind::Baseline), 100)
        .expect("accepted");
    let err = client.result(id).expect_err("must time out");
    assert!(err.contains("timeout"), "{err}");
    let (answered, _, _) = client.drain().expect("drain");
    assert_eq!(answered, 1, "the timed-out job still counts as answered");
    server.join().expect("server exits");
}

#[test]
fn drain_answers_all_accepted_jobs_before_exit() {
    let (addr, server) = start_server_with(
        Arc::new(SlowEngine {
            delay: Duration::from_millis(20),
        }),
        ServeConfig {
            workers: 2,
            queue_cap: 64,
            ..ServeConfig::default()
        },
    );
    let mut submitter = Client::connect(addr).expect("connect");
    let mut ids = Vec::new();
    for i in 0..10 {
        let mut spec = spec_for("swim", RunKind::Baseline);
        spec.machine.threads = i + 1;
        let (id, _, _) = submitter
            .submit_until_accepted(&spec, 1000)
            .expect("accept");
        ids.push(id);
    }
    // Drain from a second connection while jobs are still queued.
    let mut drainer = Client::connect(addr).expect("connect drainer");
    let (answered, executed, _) = drainer.drain().expect("drain");
    assert_eq!(answered, 10, "drain must answer every accepted job");
    assert_eq!(executed, 10);
    // Results submitted before the drain are still fetchable afterwards.
    for id in ids {
        submitter.result(id).expect("post-drain result fetch");
    }
    // New submissions are refused.
    match submitter.submit(&spec_for("swim", RunKind::Optimized)) {
        Ok(hoploc_serve::Response::Rejected { reason, .. }) => assert_eq!(reason, "draining"),
        other => panic!("post-drain submit must be rejected, got {other:?}"),
    }
    server.join().expect("server exits");
}

#[test]
fn an_absurd_thread_count_is_refused_and_the_server_keeps_serving() {
    let (addr, server) = start_server(ServeConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    // Parses (any integer does) and would ask the worker for 64 x 4e9
    // thread traces; admission must refuse it before it costs a queue slot.
    let mut huge = spec_for("swim", RunKind::Baseline);
    huge.machine.threads = 4_000_000_000;
    match client.submit(&huge) {
        Ok(hoploc_serve::Response::Rejected { reason, detail, .. }) => {
            assert_eq!(reason, "invalid_job");
            assert!(detail.contains("at most 16"), "{detail}");
        }
        other => panic!("the oversized job must be rejected, got {other:?}"),
    }
    let (id, _, _) = client
        .submit_until_accepted(&spec_for("swim", RunKind::Baseline), 1000)
        .expect("a valid job is still accepted");
    let served = client.result(id).expect("and answered");
    assert!(served.contains("\"app\": \"swim\""), "{served}");
    let (answered, executed, _) = client.drain().expect("drain");
    assert_eq!((answered, executed), (1, 1));
    server.join().expect("server exits");
}
