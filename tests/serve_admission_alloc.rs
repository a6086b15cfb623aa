//! A served request builds nothing it does not execute: admission and a
//! result-cache hit cost a few small allocations (the key strings, the
//! job-table entry, the reply), never an application.
//!
//! Counted with a global allocator (`counting_alloc`), so this binary
//! holds exactly one test.

use hoploc::harness::MachineSpec;
use hoploc::serve::{
    Engine, EngineCaps, Fidelity, JobSpec, Request, Response, ServeConfig, Server, SubmitStatus,
    SuiteEngine,
};
use hoploc::sim::Cancel;
use hoploc::workloads::{app_by_name, RunKind, Scale, APP_NAMES};
use std::sync::Arc;

mod counting_alloc;
use counting_alloc::allocated_during;

fn est_job(app: &str, scale: Scale) -> JobSpec {
    JobSpec {
        app: app.into(),
        kind: RunKind::Optimized,
        machine: MachineSpec::at(scale),
        fidelity: Fidelity::Est,
        ..JobSpec::default()
    }
}

#[test]
fn admission_and_cache_hits_build_no_application() {
    // The yardstick: the cheapest single application to construct (galgel,
    // under 2 KB at test scale; the thirteen together are 1.7 MB).
    let smallest_app = APP_NAMES
        .iter()
        .map(|name| allocated_during(|| app_by_name(name, Scale::Test)).0.bytes)
        .min()
        .expect("thirteen applications");

    // Validation, after the engine has run a job at that scale.
    let engine = Arc::new(SuiteEngine::new(EngineCaps::default()));
    let bench = est_job("swim", Scale::Bench);
    engine
        .run(&bench, &|_| {}, &Cancel::never())
        .expect("the est job runs");
    let (warm, verdict) = allocated_during(|| engine.validate(&bench));
    assert!(verdict.is_ok());
    assert!(
        warm.bytes < 4096,
        "a warm validate at bench scale allocated {} bytes in {} calls",
        warm.bytes,
        warm.calls
    );

    // A submit answered from the result cache, through the server core.
    let server = Server::bind("127.0.0.1:0", engine, ServeConfig::default()).expect("bind");
    let core = server.core();
    let serving = std::thread::spawn(move || server.run());
    let test = est_job("swim", Scale::Test);
    let Response::Submitted { id, .. } = core.handle(Request::Submit(test.clone())) else {
        panic!("the first submission is accepted");
    };
    assert!(matches!(
        core.handle(Request::Result(id)),
        Response::ResultOk { .. }
    ));
    let request = Request::Submit(test);
    let (hit, reply) = allocated_during(|| core.handle(request));
    assert!(
        matches!(
            reply,
            Response::Submitted {
                status: SubmitStatus::Cached,
                ..
            }
        ),
        "{reply:?}"
    );
    assert!(
        hit.bytes < smallest_app,
        "a cached submit allocated {} bytes in {} calls; the smallest application is {} bytes",
        hit.bytes,
        hit.calls,
        smallest_app
    );

    core.drain();
    serving
        .join()
        .expect("the server thread exits after a drain");
}
