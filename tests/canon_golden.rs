//! Pinned bytes of everything a client can see of a job's identity, and of
//! every JSON document the workspace writes by hand.
//!
//! The grid is every machine a job can name (scale × granularity × L2
//! organisation × mapping, 1 and 2 threads per core, prefetch absent and
//! gated) crossed with run kind, fault request, fidelity and search. Each
//! job arrives the way a client sends it — one `submit` line through
//! `wire::parse_request` — and contributes its canonical form, its
//! configuration canon, its key and its re-encoded wire object to one
//! digest. Result caches, coalescing tables and client logs hold these
//! bytes; a refactoring of how a machine is named must leave them alone.
//!
//! The documents are pinned from small hand-built values: the run record
//! and its summary, the estimator record and cross-validation report, the
//! verifier's diagnostics, a search report and its progress event, the
//! load report, every wire request and response, a standalone metrics
//! registry, and the metrics snapshot and Chrome trace of a hand-driven
//! recording. Each must also parse back as JSON.
//!
//! The test speaks only the stable surface (`parse_request`, `JobSpec::
//! {canon, config_canon, key}`, `encode_job`, `record_json`, `to_json`,
//! `est_record_json`, `render_json`, …), so it compiles unchanged on both
//! sides of such a refactoring.

use hoploc::check::{render_json, Code, Diagnostic};
use hoploc::est::{est_record_json, xval_json, AppEstimate, XvalCell, XvalReport};
use hoploc::harness::{record_json, to_json, CacheCounters, MachineSpec, RunRecord};
use hoploc::layout::Granularity;
use hoploc::noc::{L2ToMcMapping, McId, NodeId};
use hoploc::obs::{parse_json, NetClass, ObsConfig, PfEvent, Registry, Sink, Topology, WindowMode};
use hoploc::search::{event_json, Candidate, EstTerms, Objective, SearchReport, Verified};
use hoploc::serve::job::fnv1a;
use hoploc::serve::load::{report_json, LatencyQuantiles, LoadReport};
use hoploc::serve::wire::{encode_job, encode_request, encode_response, parse_request};
use hoploc::serve::{FaultSpec, Fidelity, JobSpec, Request, Response, SearchSpec, SubmitStatus};
use hoploc::sim::{PagePolicy, PrefetchMode, SimConfig, Simulator, TraceWorkload};
use hoploc::workloads::{RunKind, Scale};

/// The `"job"` objects of the grid, as a client would write them: members
/// in no particular order, defaults left out.
fn grid() -> Vec<String> {
    let mut jobs = Vec::new();
    for scale in ["test", "bench"] {
        for granularity in ["cacheline", "page"] {
            for l2 in ["private", "shared"] {
                for mapping in ["m1", "m2"] {
                    for threads in [1, 2] {
                        for prefetch in ["", ",\"prefetch\":\"gated\""] {
                            let machine = format!(
                                "\"threads\":{threads},\"mapping\":\"{mapping}\",\
                                 \"l2\":\"{l2}\",\"scale\":\"{scale}\",\
                                 \"granularity\":\"{granularity}\"{prefetch}"
                            );
                            for kind in ["baseline", "optimized", "first-touch", "optimal"] {
                                for faults in [
                                    "",
                                    ",\"fault_seed\":7",
                                    ",\"fault_plan\":\"mc 1 from=5 until=9\\n\"",
                                ] {
                                    for fidelity in ["", ",\"fidelity\":\"est\""] {
                                        for search in [
                                            "",
                                            ",\"search_budget\":24,\"search_seed\":9,\
                                             \"search_objective\":\"hops,offchip\"",
                                        ] {
                                            jobs.push(format!(
                                                "{{{machine},\"kind\":\"{kind}\",\
                                                 \"app\":\"swim\"{faults}{fidelity}{search}}}"
                                            ));
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    jobs
}

fn parse(job: &str) -> JobSpec {
    match parse_request(&format!("{{\"op\":\"submit\",\"job\":{job}}}")) {
        Ok(Request::Submit(spec)) => spec,
        other => panic!("{job} did not parse as a submission: {other:?}"),
    }
}

/// The four strings a job is known by, one per line.
fn identity(spec: &JobSpec) -> String {
    format!(
        "{}\n{}\n{}\n{}\n",
        spec.canon(),
        spec.config_canon(),
        spec.key().hex(),
        encode_job(spec)
    )
}

#[test]
fn job_identity_bytes_are_pinned_over_the_grid() {
    let jobs = grid();
    assert_eq!(jobs.len(), 64 * 4 * 3 * 2 * 2);
    let mut all = String::new();
    for job in &jobs {
        let spec = parse(job);
        let id = identity(&spec);
        // What was re-encoded is the same job.
        assert_eq!(identity(&parse(&encode_job(&spec))), id, "{job}");
        all.push_str(&id);
    }
    assert_eq!(all.len(), 1_323_520, "total identity bytes");
    assert_eq!(
        format!("{:016x}", fnv1a(all.as_bytes())),
        "376bf545c0aea288",
        "digest of every job's canon, config canon, key and wire object"
    );
}

#[test]
fn job_identity_spot_checks_read_as_they_always_have() {
    // Everything defaulted.
    let plain = parse("{\"app\":\"swim\",\"kind\":\"optimized\"}");
    assert_eq!(
        identity(&plain),
        "app=swim;kind=optimized;scale=bench;gran=cacheline;l2=private;map=m1;threads=1;\
         faults=none\n\
         scale=bench;gran=cacheline;l2=private;map=m1;threads=1\n\
         369d105006a710ea\n\
         {\"app\":\"swim\",\"kind\":\"optimized\",\"scale\":\"bench\",\
         \"granularity\":\"cacheline\",\"l2\":\"private\",\"mapping\":\"m1\",\"threads\":1}\n"
    );
    // Everything set.
    let full = parse(grid().last().expect("the grid is not empty"));
    assert_eq!(
        identity(&full),
        "app=swim;kind=optimal;scale=bench;gran=page;l2=shared;map=m2;threads=2;\
         faults=plan:# hoploc fault plan|seed 0|retry base=16 max=4096 cap=4|\
         mc 1 from=5 until=9|;fidelity=est;search=seed:9,budget:24,objective:offchip+hops;\
         prefetch=gated\n\
         scale=bench;gran=page;l2=shared;map=m2;threads=2;prefetch=gated\n\
         117b89aad3dda0ec\n\
         {\"app\":\"swim\",\"kind\":\"optimal\",\"scale\":\"bench\",\"granularity\":\"page\",\
         \"l2\":\"shared\",\"mapping\":\"m2\",\"threads\":2,\
         \"fault_plan\":\"# hoploc fault plan\\nseed 0\\nretry base=16 max=4096 cap=4\\n\
         mc 1 from=5 until=9\\n\",\"fidelity\":\"est\",\"search_seed\":9,\"search_budget\":24,\
         \"search_objective\":\"offchip+hops\",\"prefetch\":\"gated\"}\n"
    );
}

/// A name no application has, holding every class of character the
/// escaper treats differently.
const AWKWARD: &str = "sw\"im\\ \n\r\t\u{1}\u{1f}é";
const ESCAPED: &str = "\"sw\\\"im\\\\ \\n\\r\\t\\u0001\\u001fé\"";

#[test]
fn escaped_strings_are_pinned_in_all_four_documents() {
    // A run of nothing: the record's numbers are all zero, its name is not.
    let sim = SimConfig::scaled();
    let mapping = L2ToMcMapping::nearest_cluster(sim.mesh, &sim.placement);
    let stats = Simulator::new(sim, mapping, PagePolicy::Interleaved)
        .run(&TraceWorkload::single("nothing", Vec::new()));
    let record = || RunRecord::new(AWKWARD, RunKind::FirstTouch, stats.clone());
    let unit = record_json(&record());
    assert_eq!(
        unit,
        format!(
            "{{\"app\": {ESCAPED}, \"kind\": \"first-touch\", \"exec_cycles\": 0, \
             \"total_accesses\": 0, \"l1_hits\": 0, \"l2_hits\": 0, \"cache_to_cache\": 0, \
             \"offchip_accesses\": 0, \"offchip_fraction\": 0.000000, \
             \"avg_offchip_hops\": 0.000000, \"onchip_net_latency\": 0.000000, \
             \"offchip_net_latency\": 0.000000, \"memory_latency\": 0.000000, \
             \"os_fallbacks\": 0, \"rehomed\": 0, \"dropped\": 0, \"backstop_flushes\": 0}}"
        )
    );
    let counters = CacheCounters {
        layout_hits: 1,
        layout_misses: 2,
        layout_evictions: 3,
        trace_hits: 4,
        trace_misses: 5,
        trace_evictions: 6,
    };
    assert_eq!(
        to_json(&[record(), record()], Some(counters)),
        format!(
            "{{\n  \"runs\": [\n    {unit},\n    {unit}\n  ],\n  \"cache\": \
             {{\"layout_hits\": 1, \"layout_misses\": 2, \"layout_evictions\": 3, \
             \"trace_hits\": 4, \"trace_misses\": 5, \"trace_evictions\": 6}}\n}}\n"
        )
    );

    let est = AppEstimate {
        app: AWKWARD.to_string(),
        kind: RunKind::Optimal,
        total_accesses: 8,
        predicted_offchip: 2,
        avg_offchip_hops: 3.5,
        mc_shares: vec![0.75, 0.25],
        queue_pressure: 1.5,
        streaming: true,
        arrays: Vec::new(),
        refs: Vec::new(),
    };
    assert_eq!(
        est_record_json(&est),
        format!(
            "{{\"app\": {ESCAPED}, \"kind\": \"optimal\", \"fidelity\": \"est\", \
             \"total_accesses\": 8, \"offchip_accesses\": 2, \"offchip_fraction\": 0.250000, \
             \"avg_offchip_hops\": 3.500000, \"queue_pressure\": 1.500000, \
             \"mc_shares\": [0.750000, 0.250000], \"streaming\": true, \
             \"prefetchability\": 1.000000}}"
        )
    );

    let mut diag = Diagnostic::new(Code::NonUnimodularTransform, AWKWARD, AWKWARD);
    diag.config = Some(AWKWARD.to_string());
    diag.help = Some(AWKWARD.to_string());
    assert_eq!(
        render_json(&[diag]),
        format!(
            "{{\n  \"counts\": {{\"errors\": 1, \"warnings\": 0, \"notes\": 0}},\n  \
             \"diagnostics\": [\n    {{\"code\": \"HL0101\", \"severity\": \"error\", \
             \"app\": {ESCAPED}, \"config\": {ESCAPED}, \"nest\": null, \"statement\": null, \
             \"reference\": null, \"array\": null, \"message\": {ESCAPED}, \
             \"help\": {ESCAPED}}}\n  ]\n}}\n"
        )
    );
}

/// A run of nothing under `name`, with `stats` adjusted by `tweak`.
fn empty_run(name: &str, tweak: impl FnOnce(&mut hoploc::sim::RunStats)) -> RunRecord {
    let sim = SimConfig::scaled();
    let mapping = L2ToMcMapping::nearest_cluster(sim.mesh, &sim.placement);
    let mut stats = Simulator::new(sim, mapping, PagePolicy::Interleaved)
        .run(&TraceWorkload::single("nothing", Vec::new()));
    tweak(&mut stats);
    RunRecord::new(name, RunKind::Optimized, stats)
}

#[test]
fn run_records_with_prefetch_and_empty_documents_are_pinned() {
    let record = empty_run("swim", |s| {
        s.exec_cycles = 7;
        s.offchip_accesses = 3;
        s.prefetch.issued = 4;
        s.prefetch.useful = 1;
        s.prefetch.late = 1;
        s.prefetch.harmful = 2;
        s.prefetch.dropped = 1;
        s.prefetch.pred_correct = 2;
        s.prefetch.pred_total = 3;
    });
    assert_eq!(
        record_json(&record),
        "{\"app\": \"swim\", \"kind\": \"optimized\", \"exec_cycles\": 7, \
         \"total_accesses\": 0, \"l1_hits\": 0, \"l2_hits\": 0, \"cache_to_cache\": 0, \
         \"offchip_accesses\": 3, \"offchip_fraction\": 0.000000, \
         \"avg_offchip_hops\": 0.000000, \"onchip_net_latency\": 0.000000, \
         \"offchip_net_latency\": 0.000000, \"memory_latency\": 0.000000, \
         \"os_fallbacks\": 0, \"rehomed\": 0, \"dropped\": 0, \"backstop_flushes\": 0, \
         \"prefetch\": {\"issued\": 4, \"useful\": 1, \"late\": 1, \"harmful\": 2, \
         \"dropped\": 1, \"accuracy\": 0.500000, \"coverage\": 0.400000, \
         \"pred_accuracy\": 0.666667}}"
    );
    assert_eq!(to_json(&[], None), "{\n  \"runs\": [\n  ]\n}\n");
    assert_eq!(
        render_json(&[]),
        "{\n  \"counts\": {\"errors\": 0, \"warnings\": 0, \"notes\": 0},\n  \
         \"diagnostics\": [\n  ]\n}\n"
    );
    let two = [
        Diagnostic::new(Code::HaloCarriedDependence, "mgrid", "distance 1").in_nest(2),
        Diagnostic::new(Code::PossibleOutOfBounds, "swim", "may reach -1")
            .at(1, 0, 2)
            .on_array("V"),
    ];
    assert_eq!(
        render_json(&two),
        "{\n  \"counts\": {\"errors\": 0, \"warnings\": 1, \"notes\": 1},\n  \
         \"diagnostics\": [\n    {\"code\": \"HL0202\", \"severity\": \"note\", \
         \"app\": \"mgrid\", \"config\": null, \"nest\": 2, \"statement\": null, \
         \"reference\": null, \"array\": null, \"message\": \"distance 1\", \"help\": null},\n    \
         {\"code\": \"HL0301\", \"severity\": \"warning\", \"app\": \"swim\", \"config\": null, \
         \"nest\": 1, \"statement\": 0, \"reference\": 2, \"array\": \"V\", \
         \"message\": \"may reach -1\", \"help\": null}\n  ]\n}\n"
    );
}

fn xval_report() -> XvalReport {
    let cell = |app: &str, kind, config: &str, base: f64| XvalCell {
        app: app.to_string(),
        kind,
        config: config.to_string(),
        est_offchip_fraction: base,
        sim_offchip_fraction: base / 2.0,
        est_hops: 3.0 + base,
        sim_hops: 3.25,
        est_queue_pressure: 1.0,
        sim_queue_pressure: 1.0 / 3.0,
    };
    XvalReport {
        cells: vec![
            cell(AWKWARD, RunKind::Baseline, "private/cacheline", 0.125),
            cell("swim", RunKind::Optimal, AWKWARD, 0.5),
        ],
        spearman_offchip: 0.875,
        spearman_hops: -0.25,
        spearman_queue: f64::NAN,
        est_nanos: 0,
        sim_nanos: 1_234_567,
    }
}

#[test]
fn the_cross_validation_report_is_pinned() {
    assert_eq!(
        xval_json(&xval_report()),
        format!(
            "{{\n  \"cells\": [\n    {{\"app\": {ESCAPED}, \"kind\": \"baseline\", \
             \"config\": \"private/cacheline\", \"est_offchip_fraction\": 0.125000, \
             \"sim_offchip_fraction\": 0.062500, \"est_hops\": 3.125000, \"sim_hops\": 3.250000, \
             \"est_queue_pressure\": 1.000000, \"sim_queue_pressure\": 0.333333}},\n    \
             {{\"app\": \"swim\", \"kind\": \"optimal\", \"config\": {ESCAPED}, \
             \"est_offchip_fraction\": 0.500000, \"sim_offchip_fraction\": 0.250000, \
             \"est_hops\": 3.500000, \"sim_hops\": 3.250000, \"est_queue_pressure\": 1.000000, \
             \"sim_queue_pressure\": 0.333333}}\n  ],\n  \"spearman_offchip\": 0.875000,\n  \
             \"spearman_hops\": -0.250000,\n  \"spearman_queue\": null,\n  \"est_nanos\": 0,\n  \
             \"sim_nanos\": 1234567,\n  \"speedup\": null\n}}\n"
        )
    );
    let empty = XvalReport {
        cells: Vec::new(),
        est_nanos: 4,
        sim_nanos: 10,
        ..xval_report()
    };
    assert_eq!(
        xval_json(&empty),
        "{\n  \"cells\": [\n  ],\n  \"spearman_offchip\": 0.875000,\n  \
         \"spearman_hops\": -0.250000,\n  \"spearman_queue\": null,\n  \"est_nanos\": 4,\n  \
         \"sim_nanos\": 10,\n  \"speedup\": 2.500000\n}\n"
    );
}

fn candidate(approx: f64) -> Candidate {
    Candidate {
        mc_nodes: vec![NodeId(18), NodeId(21), NodeId(42), NodeId(45)],
        cluster_w: 4,
        cluster_h: 2,
        assignments: vec![vec![McId(0)], vec![McId(1), McId(2)], vec![McId(3)]],
        granularity: Granularity::Page,
        approx,
    }
}

fn search_report() -> SearchReport {
    SearchReport {
        app: "apsi".to_string(),
        scale: Scale::Test,
        seed: 9,
        budget: 24,
        objective: Objective::default(),
        evaluated: 23,
        best: candidate(0.3),
        best_score: 0.356519,
        est: EstTerms {
            offchip: 0.2137,
            hops: 2.0 / 3.0,
            queue: 1.0,
        },
        verified: vec![
            Verified {
                candidate: candidate(0.3),
                score: 0.356519,
                cycles: 20_100,
            },
            Verified {
                candidate: candidate(1.0),
                score: 0.4,
                cycles: 19_900,
            },
        ],
        corners_cycles: 21_000,
        edge_cycles: 20_500,
        diamond_cycles: 19_950,
        found: candidate(1.0),
        found_cycles: 19_900,
        simulated: 4,
    }
}

#[test]
fn search_reports_and_progress_events_are_pinned() {
    let best = "{\"mcs\":[18,21,42,45],\"tile\":\"4x2\",\"assign\":\"0|1+2|3\",\
                \"granularity\":\"page\",\"approx\":0.30}";
    let found = "{\"mcs\":[18,21,42,45],\"tile\":\"4x2\",\"assign\":\"0|1+2|3\",\
                 \"granularity\":\"page\",\"approx\":1.00}";
    assert_eq!(candidate(0.3).to_json(), best);
    assert_eq!(
        search_report().to_json(),
        format!(
            "{{\"search\":{{\"app\":\"apsi\",\"scale\":\"test\",\"seed\":9,\"budget\":24,\
             \"objective\":\"offchip+hops\",\"evaluated\":23,\"best\":{best},\
             \"best_score\":0.356519,\"est\":{{\"offchip\":0.213700,\"hops\":0.666667,\
             \"queue\":1.000000}},\"verified\":[{{\"candidate\":{best},\"score\":0.356519,\
             \"cycles\":20100}},{{\"candidate\":{found},\"score\":0.400000,\"cycles\":19900}}],\
             \"baselines\":{{\"corners\":21000,\"edge\":20500,\"diamond\":19950}},\
             \"found\":{found},\"found_cycles\":19900,\"beats_diamond\":true,\
             \"beats_edge\":true}}}}"
        )
    );
    let no_finalists = SearchReport {
        verified: Vec::new(),
        ..search_report()
    };
    assert!(no_finalists
        .to_json()
        .contains("\"verified\":[],\"baselines\""));
    assert_eq!(
        event_json("apsi", "anneal", 41, 0.5, &candidate(0.3)),
        format!(
            "{{\"app\":\"apsi\",\"phase\":\"anneal\",\"evaluated\":41,\"best_score\":0.500000,\
             \"best\":{best}}}"
        )
    );
}

#[test]
fn the_load_report_is_pinned() {
    let r = LoadReport {
        submitted: 26,
        completed: 25,
        failed: 1,
        coalesced: 7,
        cached: 6,
        retries: 3,
        wall_ms: 812,
        throughput: 30.788_177,
        latency_ms: LatencyQuantiles {
            p50: 12,
            p95: 40,
            p99: 51,
            max: 60,
        },
        submit_us: LatencyQuantiles {
            p50: 19,
            p95: 150,
            p99: 240,
            max: 300,
        },
        errors: vec![AWKWARD.to_string()],
    };
    assert_eq!(
        report_json(&r),
        "{\"submitted\": 26, \"completed\": 25, \"failed\": 1, \"coalesced\": 7, \
         \"cached\": 6, \"retries\": 3, \"wall_ms\": 812, \"throughput\": 30.788, \
         \"p50_ms\": 12, \"p95_ms\": 40, \"p99_ms\": 51, \"max_ms\": 60, \
         \"submit_p50_us\": 19, \"submit_p99_us\": 240}\n"
    );
}

fn job() -> JobSpec {
    let mut machine = MachineSpec::at(Scale::Test);
    machine.prefetch = PrefetchMode::Gated;
    JobSpec {
        app: AWKWARD.to_string(),
        kind: RunKind::Optimized,
        machine,
        faults: FaultSpec::Seed(7),
        fidelity: Fidelity::Cycle,
        search: Some(SearchSpec {
            seed: 9,
            budget: 24,
            objective: "offchip+hops".to_string(),
        }),
    }
}

fn requests() -> Vec<Request> {
    vec![
        Request::Submit(job()),
        Request::Status(1),
        Request::Result(2),
        Request::Watch(3),
        Request::Stats,
        Request::Drain,
        Request::Ping,
    ]
}

const METRICS: &str =
    "{\"counters\":{\"serve.jobs\":[3]},\"gauges\":{},\"histograms\":{},\"series\":{}}";
const RESULT: &str = "{\"app\": \"swim\", \"exec_cycles\": 12}";

fn responses() -> Vec<Response> {
    vec![
        Response::Submitted {
            id: 4,
            key: "369d105006a710ea".to_string(),
            status: SubmitStatus::Cached,
        },
        Response::Rejected {
            reason: "queue_full".to_string(),
            detail: AWKWARD.to_string(),
            retry_after_ms: 50,
        },
        Response::Status {
            id: 4,
            state: AWKWARD.to_string(),
            queue_depth: 2,
        },
        Response::ResultOk {
            id: 4,
            result: RESULT.to_string(),
        },
        Response::Progress {
            id: 4,
            seq: 0,
            event: "{\"app\":\"apsi\",\"evaluated\":1}".to_string(),
        },
        Response::ResultErr {
            id: 4,
            error: AWKWARD.to_string(),
        },
        Response::Stats {
            metrics: METRICS.to_string(),
        },
        Response::Drained {
            answered: 12,
            executed: 5,
            metrics: METRICS.to_string(),
        },
        Response::Pong,
        Response::ProtocolError {
            error: AWKWARD.to_string(),
        },
    ]
}

#[test]
fn every_wire_request_and_response_is_pinned() {
    let lines: Vec<String> = requests().iter().map(encode_request).collect();
    assert_eq!(
        lines,
        [
            format!(
                "{{\"op\":\"submit\",\"job\":{{\"app\":{ESCAPED},\"kind\":\"optimized\",\
                 \"scale\":\"test\",\"granularity\":\"cacheline\",\"l2\":\"private\",\
                 \"mapping\":\"m1\",\"threads\":1,\"fault_seed\":7,\"search_seed\":9,\
                 \"search_budget\":24,\"search_objective\":\"offchip+hops\",\
                 \"prefetch\":\"gated\"}}}}"
            ),
            "{\"op\":\"status\",\"id\":1}".to_string(),
            "{\"op\":\"result\",\"id\":2}".to_string(),
            "{\"op\":\"watch\",\"id\":3}".to_string(),
            "{\"op\":\"stats\"}".to_string(),
            "{\"op\":\"drain\"}".to_string(),
            "{\"op\":\"ping\"}".to_string(),
        ]
    );
    let mut est = job();
    est.faults = FaultSpec::None;
    est.fidelity = Fidelity::Est;
    est.search = None;
    est.machine.prefetch = PrefetchMode::Off;
    assert_eq!(
        encode_job(&est),
        format!(
            "{{\"app\":{ESCAPED},\"kind\":\"optimized\",\"scale\":\"test\",\
             \"granularity\":\"cacheline\",\"l2\":\"private\",\"mapping\":\"m1\",\
             \"threads\":1,\"fidelity\":\"est\"}}"
        )
    );

    let lines: Vec<String> = responses().iter().map(encode_response).collect();
    assert_eq!(
        lines,
        [
            "{\"ok\":true,\"op\":\"submit\",\"id\":4,\"key\":\"369d105006a710ea\",\
             \"status\":\"cached\"}"
                .to_string(),
            format!(
                "{{\"ok\":false,\"op\":\"submit\",\"error\":\"queue_full\",\
                 \"detail\":{ESCAPED},\"retry_after_ms\":50}}"
            ),
            format!(
                "{{\"ok\":true,\"op\":\"status\",\"id\":4,\"state\":{ESCAPED},\
                 \"queue_depth\":2}}"
            ),
            format!(
                "{{\"ok\":true,\"op\":\"result\",\"id\":4,\"state\":\"done\",\"result\":{RESULT}}}"
            ),
            "{\"ok\":true,\"op\":\"watch\",\"id\":4,\"seq\":0,\
             \"event\":{\"app\":\"apsi\",\"evaluated\":1}}"
                .to_string(),
            format!(
                "{{\"ok\":true,\"op\":\"result\",\"id\":4,\"state\":\"error\",\
                 \"error\":{ESCAPED}}}"
            ),
            format!("{{\"ok\":true,\"op\":\"stats\",\"metrics\":{METRICS}}}"),
            format!(
                "{{\"ok\":true,\"op\":\"drain\",\"answered\":12,\"executed\":5,\
                 \"metrics\":{METRICS}}}"
            ),
            "{\"ok\":true,\"op\":\"ping\"}".to_string(),
            format!("{{\"ok\":false,\"op\":\"error\",\"error\":{ESCAPED}}}"),
        ]
    );
}

fn registry() -> Registry {
    let mut r = Registry::new();
    let c = r.counter("serve.jobs", 3);
    let g = r.gauge("mc.queue_depth", 2);
    let h = r.hist("req.offchip_cycles");
    r.hist("req.c2c_cycles");
    let add = r.series("win.offchip", 10, WindowMode::Add);
    let max = r.series("win.mc_queue_depth_peak", 10, WindowMode::Max);
    r.inc(c, 1, 5);
    r.inc(c, 2, 1);
    r.set_gauge(g, 0, -4);
    r.set_gauge(g, 1, 9);
    for v in [1, 2, 4, 40, 40] {
        r.observe(h, v);
    }
    for (ts, n) in [(0, 1), (9, 2), (35, 7)] {
        r.sample(add, ts, n);
        r.sample(max, ts, n);
    }
    r
}

#[test]
fn a_standalone_registry_snapshot_is_pinned() {
    assert_eq!(
        Registry::new().snapshot_json(),
        "{\n\"counters\": {},\n\"gauges\": {},\n\"histograms\": {},\n\"series\": {}\n}\n"
    );
    assert_eq!(
        registry().snapshot_json(),
        "{\n\
         \"counters\": {\n\
         \"serve.jobs\": [0, 5, 1]},\n\
         \"gauges\": {\n\
         \"mc.queue_depth\": [-4, 9]},\n\
         \"histograms\": {\n\
         \"req.offchip_cycles\": {\"count\": 5, \"min\": 1, \"max\": 40, \"mean\": 17.4, \"p50\": 4, \"p95\": 40, \"p99\": 40, \"buckets\": [[1, 1, 1],[2, 2, 1],[4, 4, 1],[40, 47, 2]]},\n\
         \"req.c2c_cycles\": {\"count\": 0, \"min\": 0, \"max\": 0, \"mean\": 0, \"p50\": 0, \"p95\": 0, \"p99\": 0, \"buckets\": []}},\n\
         \"series\": {\n\
         \"win.offchip\": {\"epoch_cycles\": 10, \"mode\": \"add\", \"values\": [3, 0, 0, 7]},\n\
         \"win.mc_queue_depth_peak\": {\"epoch_cycles\": 10, \"mode\": \"max\", \"values\": [2, 0, 0, 7]}}\n\
         }\n\
         "
    );
}

/// A 2×2 mesh with one controller, driven by hand through two off-chip
/// requests (one of them past a fault window), a cache-to-cache transfer,
/// a writeback, an unattributed bank service and the prefetch families.
fn recording() -> hoploc::obs::ObsReport {
    let topo = Topology {
        mesh_width: 2,
        mesh_height: 2,
        mcs: 1,
        banks_per_mc: 2,
    };
    let s = Sink::recording(
        topo,
        ObsConfig {
            epoch_cycles: 64,
            prefetch: true,
            ..ObsConfig::default()
        },
    );
    s.access(0, 0);
    s.access(1, 3);
    let a = s.begin_req(2, 0);
    let b = s.begin_req(3, 3);
    s.offchip(a, 4, 0, 0);
    s.offchip(b, 5, 3, 0);
    s.bind_token(1, a);
    s.bind_token(2, b);
    s.hop(0, 10, 0, 2, b);
    s.hop(4, 6, 1, 2, a);
    s.link_fault(4, 6, 3, a);
    s.net_msg(NetClass::OffChip, 2, 14, 20);
    s.mc_enqueue(0, 1, 12);
    s.mc_enqueue(0, 2, 13);
    s.bank_service(0, 0, 1, 12, 20, 50, false, 1);
    s.bank_service(0, 1, 2, 13, 50, 70, true, 0);
    s.retire(b, 90);
    s.retire(a, 80);
    let c = s.begin_req(91, 1);
    s.c2c(c, 95, 2);
    s.net_msg(NetClass::OnChip, 1, 6, 97);
    s.retire(c, 100);
    s.writeback(101, 2, 0);
    // A bank service no request was bound to: its span carries no `req`.
    s.bank_service(0, 1, 77, 102, 102, 110, true, 0);
    s.prefetch(PfEvent::Issued, 1, 3);
    s.prefetch(PfEvent::Useful, 1, 2);
    s.into_report(120).expect("the sink records")
}

#[test]
fn the_metrics_and_chrome_trace_of_a_recording_are_pinned() {
    let rep = recording();
    // The two `sim.backstop_*` counter members are left out of the pin:
    // they belong to the liveness backstop, not to the document's shape.
    let metrics: String = rep
        .metrics_json()
        .lines()
        .filter(|l| !l.starts_with("\"sim.backstop_"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(metrics.len(), 3401);
    assert_eq!(
        format!("{:016x}", fnv1a(metrics.as_bytes())),
        "7113a9a928dc2081"
    );
    assert_eq!(
        rep.chrome_trace_json(),
        "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n\
         {\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \"tid\": 0, \"args\": {\"name\": \"cores\"}},\n\
         {\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 2, \"tid\": 0, \"args\": {\"name\": \"links\"}},\n\
         {\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 3, \"tid\": 0, \"args\": {\"name\": \"memory controllers\"}},\n\
         {\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 4, \"tid\": 0, \"args\": {\"name\": \"dram banks\"}},\n\
         {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": 0, \"args\": {\"name\": \"core 0 (0,0)\"}},\n\
         {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": 1, \"args\": {\"name\": \"core 1 (1,0)\"}},\n\
         {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": 3, \"args\": {\"name\": \"core 3 (1,1)\"}},\n\
         {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 2, \"tid\": 0, \"args\": {\"name\": \"link 0E\"}},\n\
         {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 2, \"tid\": 4, \"args\": {\"name\": \"link 1E\"}},\n\
         {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 3, \"tid\": 0, \"args\": {\"name\": \"mc 0 queue\"}},\n\
         {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 4, \"tid\": 0, \"args\": {\"name\": \"mc 0 bank 0\"}},\n\
         {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 4, \"tid\": 1, \"args\": {\"name\": \"mc 0 bank 1\"}},\n\
         {\"ph\": \"X\", \"name\": \"offchip\", \"cat\": \"core\", \"ts\": 2, \"dur\": 78, \"pid\": 1, \"tid\": 0, \"args\": {\"req\": 0}},\n\
         {\"ph\": \"X\", \"name\": \"c2c\", \"cat\": \"core\", \"ts\": 91, \"dur\": 9, \"pid\": 1, \"tid\": 1, \"args\": {\"req\": 2}},\n\
         {\"ph\": \"X\", \"name\": \"offchip\", \"cat\": \"core\", \"ts\": 3, \"dur\": 87, \"pid\": 1, \"tid\": 3, \"args\": {\"req\": 1}},\n\
         {\"ph\": \"X\", \"name\": \"hop.req\", \"cat\": \"link\", \"ts\": 10, \"dur\": 2, \"pid\": 2, \"tid\": 0, \"args\": {\"req\": 1, \"wait\": 0}},\n\
         {\"ph\": \"X\", \"name\": \"hop.req\", \"cat\": \"link\", \"ts\": 6, \"dur\": 2, \"pid\": 2, \"tid\": 4, \"args\": {\"req\": 0, \"wait\": 1}},\n\
         {\"ph\": \"X\", \"name\": \"link_fault\", \"cat\": \"link\", \"ts\": 6, \"dur\": 3, \"pid\": 2, \"tid\": 4, \"args\": {\"req\": 0, \"wait\": 0}},\n\
         {\"ph\": \"X\", \"name\": \"queue\", \"cat\": \"mc\", \"ts\": 12, \"dur\": 8, \"pid\": 3, \"tid\": 0, \"args\": {\"req\": 0}},\n\
         {\"ph\": \"X\", \"name\": \"queue\", \"cat\": \"mc\", \"ts\": 13, \"dur\": 37, \"pid\": 3, \"tid\": 0, \"args\": {\"req\": 1}},\n\
         {\"ph\": \"X\", \"name\": \"row_miss\", \"cat\": \"bank\", \"ts\": 20, \"dur\": 30, \"pid\": 4, \"tid\": 0, \"args\": {\"req\": 0}},\n\
         {\"ph\": \"X\", \"name\": \"row_hit\", \"cat\": \"bank\", \"ts\": 50, \"dur\": 20, \"pid\": 4, \"tid\": 1, \"args\": {\"req\": 1}},\n\
         {\"ph\": \"X\", \"name\": \"row_hit\", \"cat\": \"bank\", \"ts\": 102, \"dur\": 8, \"pid\": 4, \"tid\": 1, \"args\": {}}\n\
         ]}\n\
         "
    );
}

#[test]
fn every_document_parses_as_json() {
    let record = || empty_run(AWKWARD, |s| s.prefetch.issued = 1);
    let diag = Diagnostic::new(Code::NonUnimodularTransform, AWKWARD, AWKWARD);
    let est = AppEstimate {
        app: AWKWARD.to_string(),
        kind: RunKind::Optimal,
        total_accesses: 8,
        predicted_offchip: 2,
        avg_offchip_hops: 3.5,
        mc_shares: vec![0.75, 0.25],
        queue_pressure: 1.5,
        streaming: false,
        arrays: Vec::new(),
        refs: Vec::new(),
    };
    let rep = recording();
    let mut docs = vec![
        record_json(&record()),
        to_json(&[record(), record()], Some(CacheCounters::default())),
        est_record_json(&est),
        xval_json(&xval_report()),
        render_json(&[diag.clone(), diag]),
        candidate(0.3).to_json(),
        search_report().to_json(),
        event_json("apsi", "anneal", 41, 0.5, &candidate(0.3)),
        report_json(&LoadReport::default()),
        registry().snapshot_json(),
        rep.metrics_json(),
        rep.chrome_trace_json(),
    ];
    docs.extend(requests().iter().map(encode_request));
    docs.extend(responses().iter().map(encode_response));
    for doc in &docs {
        if let Err(e) = parse_json(doc) {
            panic!("{e}: {doc}");
        }
    }
}
