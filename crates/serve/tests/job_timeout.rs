//! A served job that runs out of time stops simulating. Its worker runs it
//! under a token carrying the deadline, answers it with a timeout, goes on
//! to the next job, and leaves no thread behind.
//!
//! The one test in this binary, so the process's thread count is its own.

use hoploc_harness::MachineSpec;
use hoploc_serve::wire::Request;
use hoploc_serve::{
    Ctr, EngineCaps, Fidelity, JobSpec, Response, ServeConfig, Server, SuiteEngine,
};
use hoploc_workloads::Scale;
use std::sync::Arc;

/// Threads of this process (Linux; 0 elsewhere, where the check is moot).
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

#[test]
fn a_timed_out_job_stops_simulating_and_its_worker_serves_on() {
    let before = threads();
    let cfg = ServeConfig {
        workers: 1,
        job_timeout_ms: 1,
        ..ServeConfig::default()
    };
    let engine = Arc::new(SuiteEngine::new(EngineCaps::default()));
    let server = Server::bind("127.0.0.1:0", engine, cfg).expect("bind loopback");
    let core = server.core();
    let serving = std::thread::spawn(move || server.run());
    let answer = |job| match core.handle(Request::Submit(job)) {
        Response::Submitted { id, .. } => core.handle(Request::Result(id)),
        other => panic!("expected acceptance, got {other:?}"),
    };

    let cycle = JobSpec {
        app: "swim".into(),
        machine: MachineSpec::at(Scale::Bench),
        ..JobSpec::default()
    };
    let Response::ResultErr { error, .. } = answer(cycle) else {
        panic!("a bench-scale cycle job cannot finish in 1 ms");
    };
    assert_eq!(error, "timeout: exceeded 1 ms wall-clock budget");
    assert_eq!(core.metrics().get(Ctr::Timeouts), 1);

    // The one worker answers the next job, in time or not.
    let est = JobSpec {
        app: "swim".into(),
        fidelity: Fidelity::Est,
        machine: MachineSpec::at(Scale::Test),
        ..JobSpec::default()
    };
    let reply = answer(est);
    assert!(
        matches!(
            reply,
            Response::ResultOk { .. } | Response::ResultErr { .. }
        ),
        "{reply:?}"
    );

    assert_eq!(core.drain().answered, 2);
    serving.join().expect("the server exits after the drain");
    assert!(
        threads() <= before,
        "a thread outlived the server: {} before, {} after",
        before,
        threads()
    );
}
