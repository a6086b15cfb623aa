//! `serve-mix`: an in-process job server driven over loopback with raw
//! NDJSON lines by a closed loop of connections.
//!
//! Closed loop because the server's callers are sweep scripts that wait
//! for each reply before sending the next request. Every request is a
//! `submit` followed by a `result` for the returned id; its latency runs
//! from the submit line leaving to the result line arriving.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use super::{Failures, Outcome, RepClock, RunOptions, ALL_APPS};
use crate::json::{self, Value};
use crate::span::Tracer;
use crate::surface::{start_server, ServerHandle};
use crate::util::{fnv1a, median, Rng, FNV_SEED};

const KINDS: [&str; 4] = ["baseline", "optimized", "first-touch", "optimal"];
/// How often a `queue_full` rejection is retried before the request
/// counts as failed. A closed loop of two connections cannot fill a
/// 64-slot queue, so retries are expected to stay at zero.
const RETRY_BUDGET: u32 = 5;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Est,
    Cycle,
}

/// One distinct job: its submit line and what kind of work it is.
struct Job {
    line: String,
    class: Class,
    bench_scale: bool,
    /// The machine configuration (scale x granularity x L2 x mapping) the
    /// server runs it under; jobs of one configuration share a suite.
    config: String,
}

impl Job {
    fn new(class: Class, app: &str, kind: &str, scale: &str, [gran, l2, map]: [&str; 3]) -> Job {
        Job {
            line: submit_line(app, kind, scale, gran, l2, map, class == Class::Est),
            class,
            bench_scale: scale == "bench",
            config: format!("{scale}/{gran}/{l2}/{map}"),
        }
    }
}

/// How many requests of each class one rep sends. What is asked for is
/// fixed, so that the work in a rep does not depend on the seed; the seed
/// decides the order, and with it what hits, coalesces and is evicted.
struct Sizing {
    /// Leading entries of `ALL_APPS` the population is built from.
    apps: usize,
    est_test: usize,
    est_bench: usize,
    cycle: usize,
}

const FULL: Sizing = Sizing {
    apps: 13,
    est_test: 600,
    est_bench: 120,
    cycle: 110,
};
/// Like `FULL`, every class total covers its distinct jobs (96, 24 and 18
/// for three apps), so the set of answers does not depend on the seed.
const QUICK: Sizing = Sizing {
    apps: 3,
    est_test: 120,
    est_bench: 24,
    cycle: 24,
};

fn submit_line(
    app: &str,
    kind: &str,
    scale: &str,
    gran: &str,
    l2: &str,
    map: &str,
    est: bool,
) -> String {
    let fidelity = if est { ",\"fidelity\":\"est\"" } else { "" };
    format!(
        "{{\"op\":\"submit\",\"job\":{{\"app\":\"{app}\",\"kind\":\"{kind}\",\"scale\":\"{scale}\",\
         \"granularity\":\"{gran}\",\"l2\":\"{l2}\",\"mapping\":\"{map}\",\"threads\":1{fidelity}}}}}"
    )
}

/// The distinct jobs, class by class: est-fidelity jobs at test scale
/// (apps x kinds x granularity x L2 x mapping), est-fidelity jobs at bench
/// scale (apps x kinds x mapping), and cycle jobs at test scale (apps x
/// kinds, plus the page-interleaved baseline/optimized pair).
fn population(sizing: &Sizing) -> [Vec<Job>; 3] {
    let apps = &ALL_APPS[..sizing.apps];
    let (mut est_test, mut est_bench, mut cycle) = (Vec::new(), Vec::new(), Vec::new());
    for app in apps {
        for kind in KINDS {
            for gran in ["cacheline", "page"] {
                for l2 in ["private", "shared"] {
                    for map in ["m1", "m2"] {
                        est_test.push(Job::new(Class::Est, app, kind, "test", [gran, l2, map]));
                    }
                }
            }
            for map in ["m1", "m2"] {
                let machine = ["cacheline", "private", map];
                est_bench.push(Job::new(Class::Est, app, kind, "bench", machine));
            }
            let machine = ["cacheline", "private", "m1"];
            cycle.push(Job::new(Class::Cycle, app, kind, "test", machine));
        }
        for kind in ["baseline", "optimized"] {
            let machine = ["page", "private", "m1"];
            cycle.push(Job::new(Class::Cycle, app, kind, "test", machine));
        }
    }
    [est_test, est_bench, cycle]
}

/// `total` requests over jobs `base..base + n`: every job once (as far as
/// `total` reaches), then repeats with Zipf-like popularity — the repeats
/// go to the jobs in list order in proportion to 1/(rank+1), by largest
/// remainder. No randomness: what is asked for is the same for every seed,
/// so the work in a rep is too; the seed only decides the order.
fn class_requests(base: usize, n: usize, total: usize) -> Vec<usize> {
    let mut out: Vec<usize> = (base..base + n).take(total).collect();
    let repeats = total - out.len();
    let weights: Vec<f64> = (0..n).map(|r| 1.0 / (r + 1) as f64).collect();
    let whole: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights.iter().map(|w| w / whole * repeats as f64).collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|&a, &b| {
        let (ra, rb) = (shares[a] - shares[a].floor(), shares[b] - shares[b].floor());
        rb.partial_cmp(&ra)
            .expect("shares are finite")
            .then(a.cmp(&b))
    });
    let assigned: usize = counts.iter().sum();
    for &r in by_remainder.iter().take(repeats - assigned) {
        counts[r] += 1;
    }
    for (r, &c) in counts.iter().enumerate() {
        out.extend(std::iter::repeat_n(base + r, c));
    }
    out
}

/// The request list of one rep: indices into the job list, in send order.
/// Half the repeats of cycle jobs are moved directly behind the job's
/// first submission, so that the connections ask for a job that is still
/// running and the server coalesces them.
fn request_order(jobs: &[Job], sizing: &Sizing, class_sizes: [usize; 3], seed: u64) -> Vec<usize> {
    let totals = [sizing.est_test, sizing.est_bench, sizing.cycle];
    let mut requests = Vec::new();
    let mut base = 0;
    for (&n, &total) in class_sizes.iter().zip(&totals) {
        requests.extend(class_requests(base, n, total));
        base += n;
    }
    Rng::new(seed).fork(0x5e47e).shuffle(&mut requests);

    let mut seen = vec![0u32; jobs.len()];
    let mut pulled: HashMap<usize, usize> = HashMap::new();
    let mut keep = vec![true; requests.len()];
    for (pos, &j) in requests.iter().enumerate() {
        seen[j] += 1;
        if jobs[j].class == Class::Cycle && seen[j] > 1 && seen[j].is_multiple_of(2) {
            *pulled.entry(j).or_insert(0) += 1;
            keep[pos] = false;
        }
    }
    let mut out = Vec::with_capacity(requests.len());
    for (pos, &j) in requests.iter().enumerate() {
        if !keep[pos] {
            continue;
        }
        out.push(j);
        if let Some(n) = pulled.remove(&j) {
            out.extend(std::iter::repeat_n(j, n));
        }
    }
    out
}

/// One connection: a line out, a line back.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: String,
    line: String,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A wedged server must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            out: String::new(),
            line: String::new(),
        })
    }

    fn round_trip(&mut self, request: &str) -> std::io::Result<&str> {
        // One write per line: with Nagle off, two would be two packets.
        self.out.clear();
        self.out.push_str(request);
        self.out.push('\n');
        self.writer.write_all(self.out.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end())
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Queued,
    Coalesced,
    Cached,
}

/// What one request observed. Times are nanoseconds since the rep began.
struct Record {
    request: usize,
    job: usize,
    submit_ns: u64,
    submitted_ns: u64,
    done_ns: u64,
    status: Status,
    key: String,
    payload_digest: u64,
    retries: u32,
    error: Option<String>,
}

/// Sends one submit+result pair and records what came back.
fn one_request(conn: &mut Conn, request: usize, job: usize, line: &str, origin: Instant) -> Record {
    let ns = |t: Instant| t.duration_since(origin).as_nanos() as u64;
    let mut rec = Record {
        request,
        job,
        submit_ns: ns(Instant::now()),
        submitted_ns: 0,
        done_ns: 0,
        status: Status::Queued,
        key: String::new(),
        payload_digest: 0,
        retries: 0,
        error: None,
    };
    let id = loop {
        let reply = match conn.round_trip(line) {
            Ok(r) => r,
            Err(e) => {
                rec.error = Some(format!("submit: {e}"));
                return rec;
            }
        };
        rec.submitted_ns = ns(Instant::now());
        let Ok(v) = json::parse(reply) else {
            rec.error = Some(format!("submit reply does not parse: {reply}"));
            return rec;
        };
        if v.get("ok") == Some(&Value::Bool(true)) {
            rec.status = match v.get("status").and_then(Value::as_str) {
                Some("queued") => Status::Queued,
                Some("coalesced") => Status::Coalesced,
                Some("cached") => Status::Cached,
                other => {
                    rec.error = Some(format!("unknown submit status {other:?}"));
                    return rec;
                }
            };
            rec.key = v
                .get("key")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string();
            match v.get("id").and_then(Value::as_f64) {
                Some(id) => break id as u64,
                None => {
                    rec.error = Some("submit reply carries no id".into());
                    return rec;
                }
            }
        }
        let reason = v.get("error").and_then(Value::as_str).unwrap_or("");
        if reason != "queue_full" || rec.retries >= RETRY_BUDGET {
            rec.error = Some(format!("rejected: {reply}"));
            return rec;
        }
        rec.retries += 1;
        let wait = v
            .get("retry_after_ms")
            .and_then(Value::as_f64)
            .unwrap_or(25.0);
        std::thread::sleep(Duration::from_millis(wait as u64));
    };
    let reply = match conn.round_trip(&format!("{{\"op\":\"result\",\"id\":{id}}}")) {
        Ok(r) => r,
        Err(e) => {
            rec.error = Some(format!("result: {e}"));
            return rec;
        }
    };
    rec.done_ns = ns(Instant::now());
    // The payload is the raw bytes after `"result":` up to the reply's
    // closing brace: the byte-stable part of the wire contract.
    let payload = reply
        .find("\"state\":\"done\",\"result\":")
        .map(|at| &reply[at + 24..reply.len() - 1]);
    match payload {
        Some(p) if matches!(json::parse(p), Ok(Value::Obj(_))) => {
            rec.payload_digest = fnv1a(FNV_SEED, p.as_bytes());
        }
        _ => rec.error = Some(format!("no parsable result payload: {reply}")),
    }
    rec
}

/// A bound server and its connections.
struct Bench {
    server: ServerHandle,
    clients: Vec<Conn>,
    control: Conn,
    /// The server's statistics once primed: what the reps' own statistics
    /// are counted from.
    primed: ServerStats,
}

/// The generated inputs of a rep.
struct Plan {
    jobs: Vec<Job>,
    /// Indices into `jobs`, in send order.
    order: Vec<usize>,
    /// The first est job of every machine configuration: the priming
    /// requests.
    priming: Vec<usize>,
}

impl Plan {
    fn generate(sizing: &Sizing, seed: u64) -> Plan {
        let classes = population(sizing);
        let class_sizes = [classes[0].len(), classes[1].len(), classes[2].len()];
        let jobs: Vec<Job> = classes.into_iter().flatten().collect();
        let order = request_order(&jobs, sizing, class_sizes, seed);
        let mut configs: Vec<&str> = Vec::new();
        let mut priming = Vec::new();
        for (j, job) in jobs.iter().enumerate() {
            if job.class == Class::Est && !configs.contains(&job.config.as_str()) {
                configs.push(&job.config);
                priming.push(j);
            }
        }
        Plan {
            jobs,
            order,
            priming,
        }
    }
}

fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Set-up: bind + connect + generate the requests + prime the server with
/// one est job per machine configuration, which makes the engine build
/// that configuration's suite. The timed section therefore starts on a
/// server that has served every configuration once (a user pays that cold
/// start once per server, not once per request), and `setup_s` is where a
/// change that moves work to server start or first use shows. Returns the
/// seconds it took.
fn set_up(sizing: &Sizing, seed: u64) -> Result<(Bench, f64), String> {
    let t = Instant::now();
    let n = connections();
    let server = start_server(n).map_err(|e| format!("bind: {e}"))?;
    let connect = || Conn::connect(server.addr).map_err(|e| format!("connect: {e}"));
    let clients = (0..n).map(|_| connect()).collect::<Result<Vec<_>, _>>()?;
    let mut control = connect()?;
    let plan = Plan::generate(sizing, seed);
    for &j in &plan.priming {
        let rec = one_request(&mut control, 0, j, &plan.jobs[j].line, t);
        if let Some(e) = rec.error {
            return Err(format!("priming {}: {e}", plan.jobs[j].config));
        }
    }
    let primed = read_stats(&mut control)?;
    let bench = Bench {
        server,
        clients,
        control,
        primed,
    };
    Ok((bench, t.elapsed().as_secs_f64()))
}

/// The server's own counters and histograms, read over the wire.
#[derive(Default, Clone, Copy)]
struct ServerStats {
    rejected: f64,
    coalesced: f64,
    cached: f64,
    executed: f64,
    job_wall_sum_ms: f64,
    job_wall_p50_ms: f64,
    queue_wait_p95_ms: f64,
}

impl ServerStats {
    /// What the server did since `earlier` (the quantiles stay whole-life:
    /// ten priming jobs among hundreds do not move them).
    fn since(self, earlier: ServerStats) -> ServerStats {
        ServerStats {
            rejected: self.rejected - earlier.rejected,
            coalesced: self.coalesced - earlier.coalesced,
            cached: self.cached - earlier.cached,
            executed: self.executed - earlier.executed,
            job_wall_sum_ms: self.job_wall_sum_ms - earlier.job_wall_sum_ms,
            ..self
        }
    }
}

fn read_stats(control: &mut Conn) -> Result<ServerStats, String> {
    let reply = control
        .round_trip("{\"op\":\"stats\"}")
        .map_err(|e| format!("stats: {e}"))?;
    let v = json::parse(reply).map_err(|e| format!("stats reply: {e}"))?;
    let metrics = v.get("metrics").ok_or("stats reply carries no metrics")?;
    // `serve.jobs` is a positional family; the slots are the server's
    // documented snapshot order (submitted, accepted, rejected_full,
    // rejected_draining, rejected_invalid, coalesced, cache_hits,
    // cache_evictions, executed, ...).
    let jobs = metrics
        .get("counters")
        .and_then(|c| c.get("serve.jobs"))
        .and_then(Value::as_arr)
        .ok_or("no serve.jobs counter family")?;
    let slot = |i: usize| jobs.get(i).and_then(Value::as_f64).unwrap_or(0.0);
    let hist = |name: &str, field: &str| {
        metrics
            .get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get(field))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    Ok(ServerStats {
        rejected: slot(2) + slot(3) + slot(4),
        coalesced: slot(5),
        cached: slot(6),
        executed: slot(8),
        job_wall_sum_ms: hist("serve.job_wall_ms", "mean") * hist("serve.job_wall_ms", "count"),
        job_wall_p50_ms: hist("serve.job_wall_ms", "p50"),
        queue_wait_p95_ms: hist("serve.queue_wait_ms", "p95"),
    })
}

/// Drains the server and waits for its thread: nothing the benchmark
/// started outlives the rep. Returns how many jobs the server answered.
fn shut_down(mut bench: Bench) -> Result<u64, String> {
    bench
        .control
        .round_trip("{\"op\":\"drain\"}")
        .map_err(|e| format!("drain: {e}"))?;
    drop(bench.clients);
    bench.server.join().map(|(answered, _executed)| answered)
}

/// The timed section: every connection pulls the next request off a shared
/// cursor and completes it before pulling another. Returns the records in
/// request order, the instant the section began and its wall time.
fn drive(bench: &mut Bench, plan: &Plan) -> (Vec<Record>, Instant, f64) {
    let cursor = AtomicUsize::new(0);
    let origin = Instant::now();
    let mut records: Vec<Record> = std::thread::scope(|scope| {
        let handles: Vec<_> = bench
            .clients
            .iter_mut()
            .map(|conn| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let r = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&j) = plan.order.get(r) else { break };
                        mine.push(one_request(conn, r, j, &plan.jobs[j].line, origin));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let wall = origin.elapsed().as_secs_f64();
    records.sort_by_key(|r| r.request);
    (records, origin, wall)
}

/// Median round trip of 200 pings, microseconds.
fn ping_rtt_us(control: &mut Conn) -> Result<f64, String> {
    let mut rtts = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        control
            .round_trip("{\"op\":\"ping\"}")
            .map_err(|e| format!("ping: {e}"))?;
        rtts.push(t.elapsed().as_nanos() as f64 * 1e-3);
    }
    Ok(median(&rtts))
}

/// What the traced run keeps of its last traced rep.
struct TracedRep {
    records: Vec<Record>,
    stats: ServerStats,
    ping_rtt_us: f64,
}

/// The serve per-layer metrics: client-side phases of the last traced
/// rep's requests and the server's own statistics for that rep.
fn layer_metrics(plan: &Plan, rep: &TracedRep, retries: u64) -> BTreeMap<&'static str, f64> {
    let jobs = &plan.jobs;
    let ok: Vec<&Record> = rep.records.iter().filter(|r| r.error.is_none()).collect();
    // Median milliseconds from one phase boundary to another, over the
    // requests `pick` selects (0 when it selects none).
    let ms = |pick: &dyn Fn(&Record) -> bool, from: fn(&Record) -> u64, to: fn(&Record) -> u64| {
        let v: Vec<f64> = ok
            .iter()
            .filter(|r| pick(r))
            .map(|r| (to(r) - from(r)) as f64 * 1e-6)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let submit = |r: &Record| r.submit_ns;
    let submitted = |r: &Record| r.submitted_ns;
    let done = |r: &Record| r.done_ns;
    let queued = |r: &Record, c: Class| jobs[r.job].class == c && r.status == Status::Queued;
    let stats = rep.stats;
    let answered = stats.executed + stats.cached + stats.coalesced;
    // Server-reported job wall over client-observed latency. Low = the
    // serve layer, not the model, is the cost. The server's histogram
    // holds whole milliseconds, so sub-millisecond est jobs count as 0 and
    // this is a lower bound.
    let latency_ms: f64 = ok
        .iter()
        .map(|r| (r.done_ns - r.submit_ns) as f64 * 1e-6)
        .sum();
    BTreeMap::from([
        ("serve.ping_rtt_us", rep.ping_rtt_us),
        (
            "serve.submit_rtt_us.test",
            1e3 * ms(&|r| !jobs[r.job].bench_scale, submit, submitted),
        ),
        (
            "serve.submit_rtt_us.bench",
            1e3 * ms(&|r| jobs[r.job].bench_scale, submit, submitted),
        ),
        (
            "serve.result_wait_ms.est",
            ms(&|r| queued(r, Class::Est), submitted, done),
        ),
        (
            "serve.result_wait_ms.cycle",
            ms(&|r| queued(r, Class::Cycle), submitted, done),
        ),
        (
            "serve.hit_latency_p50_us",
            1e3 * ms(&|r| r.status == Status::Cached, submit, done),
        ),
        (
            "serve.est_latency_p50_ms",
            ms(&|r| queued(r, Class::Est), submit, done),
        ),
        (
            "serve.cycle_latency_p50_ms",
            ms(&|r| queued(r, Class::Cycle), submit, done),
        ),
        ("serve.executed", stats.executed),
        ("serve.cached", stats.cached),
        ("serve.coalesced", stats.coalesced),
        ("serve.rejected", stats.rejected),
        ("serve.retries", retries as f64),
        (
            "serve.hit_ratio",
            if answered > 0.0 {
                (stats.cached + stats.coalesced) / answered
            } else {
                0.0
            },
        ),
        ("serve.queue_wait_p95_ms", stats.queue_wait_p95_ms),
        ("serve.job_wall_p50_ms", stats.job_wall_p50_ms),
        (
            "serve.exec_share",
            if latency_ms > 0.0 {
                stats.job_wall_sum_ms / latency_ms
            } else {
                0.0
            },
        ),
    ])
}

pub fn run(opts: &RunOptions) -> Outcome {
    let sizing = if opts.quick { &QUICK } else { &FULL };
    // The inputs depend on the seed only; every set-up generates them
    // again, timed, to prime the server it brings up.
    let plan = Plan::generate(sizing, opts.seed);
    let requests = plan.order.len();
    let mut failures = Failures::default();
    let mut attempted = 0u64;
    let mut setup_times = Vec::new();
    let mut rep_wall_s = Vec::new();
    let mut op_s: Vec<Vec<f64>> = vec![Vec::new(); requests];
    let mut on = Tracer::new(true);
    // First payload digest seen per canonical job key, over all reps.
    let mut answers: HashMap<String, u64> = HashMap::new();
    let mut retries = 0u64;
    let mut last_stats = ServerStats::default();
    let mut last_traced: Option<TracedRep> = None;

    let clock = RepClock::start(opts);
    let mut rep = 0usize;
    while clock.another(rep) {
        let traced = opts.rep_is_traced(rep);
        // A fresh server per rep, so every rep repeats the set-up.
        let mut bench = match set_up(sizing, opts.seed) {
            Ok((bench, seconds)) => {
                setup_times.push(seconds);
                bench
            }
            Err(e) => {
                failures.fail(format!("rep {rep} set-up: {e}"));
                attempted += 1;
                break;
            }
        };

        let (records, origin, wall) = drive(&mut bench, &plan);
        rep_wall_s.push(wall);

        // Checks, in request order: an ok reply within the retry budget,
        // a payload that parses (checked on receipt), and bytes identical
        // to the first answer for the same canonical key — whether it came
        // from the cache, a coalesced job or a re-execution after eviction.
        let offset = origin.duration_since(on.origin()).as_nanos() as u64;
        for r in &records {
            attempted += 1;
            retries += r.retries as u64;
            if let Some(e) = &r.error {
                failures.fail(format!("request {}: {e}", r.request));
                continue;
            }
            let first = *answers.entry(r.key.clone()).or_insert(r.payload_digest);
            if first != r.payload_digest {
                failures.fail(format!(
                    "request {}: payload for key {} differs from the first answer",
                    r.request, r.key
                ));
                continue;
            }
            op_s[r.request].push((r.done_ns - r.submit_ns) as f64 * 1e-9);
            if traced {
                let op = r.request as u32;
                let (t0, t1, t2) = (
                    offset + r.submit_ns,
                    offset + r.submitted_ns,
                    offset + r.done_ns,
                );
                let parent = on.push("op", op, t0, t2, None);
                on.push("serve.submit_rtt", op, t0, t1, parent);
                on.push("serve.result_wait", op, t1, t2, parent);
            }
        }

        // Every rep ends with stats + drain (pings first, in a traced rep,
        // while the server is still up).
        let ping = if traced {
            ping_rtt_us(&mut bench.control)
        } else {
            Ok(0.0)
        };
        match (ping, read_stats(&mut bench.control)) {
            (Ok(ping_rtt_us), Ok(stats)) => {
                last_stats = stats.since(bench.primed);
                if traced {
                    last_traced = Some(TracedRep {
                        records,
                        stats: last_stats,
                        ping_rtt_us,
                    });
                }
            }
            (Err(e), _) | (_, Err(e)) => failures.fail(format!("rep {rep}: {e}")),
        }
        // A coalesced submission shares the answer of the job it joined.
        let expected = (requests + plan.priming.len()) as u64;
        match shut_down(bench) {
            Ok(answered) if answered + last_stats.coalesced as u64 != expected => {
                failures.fail(format!(
                    "rep {rep}: server answered {answered} jobs (+{} coalesced) for {expected} requests",
                    last_stats.coalesced
                ))
            }
            Ok(_) => {}
            Err(e) => failures.fail(format!("rep {rep} shutdown: {e}")),
        }
        rep += 1;
    }
    // Top the set-up samples up to the usual count.
    while failures.count == 0 && opts.more_setup(setup_times.len(), setup_times.iter().sum()) {
        match set_up(sizing, opts.seed) {
            Ok((bench, seconds)) => {
                setup_times.push(seconds);
                if let Err(e) = shut_down(bench) {
                    failures.fail(format!("set-up shutdown: {e}"));
                }
            }
            Err(e) => failures.fail(format!("set-up: {e}")),
        }
    }
    let setup_s = if setup_times.is_empty() {
        0.0
    } else {
        median(&setup_times)
    };

    // The answers are the exact result: fold them in key order.
    let mut keys: Vec<(&String, &u64)> = answers.iter().collect();
    keys.sort();
    let mut digest = FNV_SEED;
    for (k, d) in keys {
        digest = fnv1a(fnv1a(digest, k.as_bytes()), &d.to_le_bytes());
    }

    let notes = vec![
        format!(
            "{} connections, {requests} submit+result pairs/rep over {} distinct jobs ({} est/test, {} est/bench, {} cycle/test requests), {} priming requests per set-up",
            connections(),
            answers.len(),
            sizing.est_test,
            sizing.est_bench,
            sizing.cycle,
            plan.priming.len()
        ),
        format!(
            "last rep: executed {}, cached {}, coalesced {}, rejected {}, retries {retries}; digest {digest:016x}",
            last_stats.executed, last_stats.cached, last_stats.coalesced, last_stats.rejected
        ),
    ];

    let layer = last_traced
        .as_ref()
        .map(|traced| layer_metrics(&plan, traced, retries))
        .unwrap_or_default();

    Outcome {
        attempted,
        failures,
        setup_s,
        rep_wall_s,
        work_per_rep: requests as f64,
        op_s,
        digest,
        layer,
        notes,
        trace: last_traced.is_some().then_some(on),
    }
}

/// Wire samples for the `serve.wire_*` probes: the population's submit
/// lines and a representative result payload.
pub fn wire_samples() -> (Vec<String>, String) {
    let lines = population(&FULL)
        .into_iter()
        .flatten()
        .map(|j| j.line)
        .collect();
    let payload = "{\"app\": \"swim\", \"kind\": \"optimized\", \"exec_cycles\": 1234567, \
        \"total_accesses\": 955968, \"l1_hits\": 700000, \"l2_hits\": 150000, \
        \"cache_to_cache\": 20000, \"offchip_accesses\": 85968, \"offchip_fraction\": 0.089928, \
        \"avg_offchip_hops\": 3.512345, \"onchip_net_latency\": 21.500000, \
        \"offchip_net_latency\": 48.250000, \"memory_latency\": 120.750000, \"os_fallbacks\": 0, \
        \"rehomed\": 0, \"dropped\": 0, \"backstop_flushes\": 0}"
        .to_string();
    (lines, payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order_for(sizing: &Sizing, seed: u64) -> (Vec<Job>, Vec<usize>) {
        let classes = population(sizing);
        let class_sizes = [classes[0].len(), classes[1].len(), classes[2].len()];
        let jobs: Vec<Job> = classes.into_iter().flatten().collect();
        let order = request_order(&jobs, sizing, class_sizes, seed);
        (jobs, order)
    }

    #[test]
    fn the_seed_fixes_the_requests_and_another_seed_reorders_them() {
        for sizing in [&FULL, &QUICK] {
            let (jobs, a) = order_for(sizing, 1);
            let (_, again) = order_for(sizing, 1);
            let (_, b) = order_for(sizing, 2);
            assert_eq!(a, again, "one seed, one request list");
            assert_ne!(a, b, "another seed, another order");
            let total = sizing.est_test + sizing.est_bench + sizing.cycle;
            for order in [&a, &b] {
                assert_eq!(order.len(), total);
                // Every distinct job is asked for at least once, so the set
                // of answers (and its digest) is the same for every seed.
                let mut seen = vec![false; jobs.len()];
                for &j in order.iter() {
                    seen[j] = true;
                }
                assert!(seen.iter().all(|s| *s));
                let cycle = order
                    .iter()
                    .filter(|&&j| jobs[j].class == Class::Cycle)
                    .count();
                assert_eq!(
                    cycle, sizing.cycle,
                    "class totals do not depend on the seed"
                );
                // Some cycle repeats sit directly behind their original.
                assert!(order
                    .windows(2)
                    .any(|w| w[0] == w[1] && jobs[w[0]].class == Class::Cycle));
            }
        }
    }

    #[test]
    fn submit_lines_are_the_wire_format() {
        assert_eq!(
            submit_line("swim", "optimized", "test", "page", "shared", "m2", true),
            "{\"op\":\"submit\",\"job\":{\"app\":\"swim\",\"kind\":\"optimized\",\"scale\":\"test\",\
             \"granularity\":\"page\",\"l2\":\"shared\",\"mapping\":\"m2\",\"threads\":1,\"fidelity\":\"est\"}}"
        );
        let (lines, payload) = wire_samples();
        assert_eq!(lines.len(), 598);
        assert!(matches!(json::parse(&payload), Ok(Value::Obj(_))));
        for line in &lines {
            assert!(json::parse(line).is_ok(), "{line}");
        }
    }
}
