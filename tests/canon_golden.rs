//! Pinned bytes of everything a client can see of a job's identity, and of
//! the four JSON documents that escape strings.
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
//! The test speaks only the stable surface (`parse_request`, `JobSpec::
//! {canon, config_canon, key}`, `encode_job`, `record_json`, `to_json`,
//! `est_record_json`, `render_json`), so it compiles unchanged on both
//! sides of such a refactoring.

use hoploc::check::{render_json, Code, Diagnostic};
use hoploc::est::{est_record_json, AppEstimate};
use hoploc::harness::{record_json, to_json, CacheCounters, RunRecord};
use hoploc::noc::L2ToMcMapping;
use hoploc::serve::job::fnv1a;
use hoploc::serve::wire::{encode_job, parse_request};
use hoploc::serve::{JobSpec, Request};
use hoploc::sim::{PagePolicy, SimConfig, Simulator, TraceWorkload};
use hoploc::workloads::RunKind;

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
