//! The job server: bounded queue, worker pool, coalescing, caching,
//! backpressure, and graceful drain.
//!
//! One mutex guards all admission state (queue, job table, in-flight
//! index, result cache); three condvars move work along: `work_cv` wakes
//! workers when jobs are queued (or at shutdown), `done_cv` wakes clients
//! blocked in `result`, and `idle_cv` wakes the drainer when the last
//! in-flight job lands. Job execution itself happens outside the lock.
//!
//! Admission order for a submission: validation → drain check → result
//! cache → in-flight coalescing → queue-capacity check → enqueue.
//! Validation reads the spec alone (name and range lookups, no shared
//! state), so it runs before the admission lock is taken and a malformed
//! job is `invalid_job` whether or not the server is draining. A full
//! queue is a *reply*, not a dropped connection: the client gets
//! `queue_full` with a `retry_after_ms` hint and decides what to do.
//!
//! A worker runs each job itself, under a [`Cancel`] token carrying the
//! job's wall-clock deadline: the simulator and the search chain poll it, so
//! a timed-out job stops, and whatever returns after the deadline is
//! answered `timeout: …`. A job that panics is answered `internal: …`.

use crate::cache::LruCache;
use crate::engine::Engine;
use crate::job::JobSpec;
use crate::metrics::{Ctr, ServeMetrics};
use crate::wire::{encode_response, parse_request, Request, Response, SubmitStatus};
use hoploc_sim::Cancel;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ServeConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Queue capacity; submissions past this are rejected with
    /// `queue_full` + a retry hint.
    pub queue_cap: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_cap: usize,
    /// Per-job wall-clock budget in milliseconds (0 = no timeout).
    pub job_timeout_ms: u64,
    /// The backoff hint sent with `queue_full` rejections.
    pub retry_after_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_cap: 64,
            cache_cap: 256,
            job_timeout_ms: 0,
            retry_after_ms: 25,
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Clone, Debug)]
enum JobState {
    Queued,
    Running,
    Done(Arc<String>),
    Failed(String),
}

impl JobState {
    fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "error",
        }
    }
}

struct Job {
    spec: JobSpec,
    canon: String,
    state: JobState,
    enqueued_at: Instant,
    /// Progress events the engine has streamed so far (search jobs;
    /// empty for everything else and for cache hits). Shared `Arc`s so
    /// many watchers replay the same bytes without copying.
    progress: Vec<Arc<String>>,
}

struct CoreState {
    queue: VecDeque<u64>,
    jobs: HashMap<u64, Job>,
    /// Canonical job string → the job id duplicates coalesce onto.
    inflight: HashMap<String, u64>,
    cache: LruCache,
    /// Terminal job ids in completion order, for bounded retention.
    done_order: VecDeque<u64>,
    next_id: u64,
    active: usize,
    answered: u64,
    draining: bool,
    shutdown: bool,
}

impl CoreState {
    /// Files a new job under the next id.
    fn add(&mut self, spec: JobSpec, canon: &str, state: JobState) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let job = Job {
            spec,
            canon: canon.to_string(),
            state,
            enqueued_at: Instant::now(),
            progress: Vec::new(),
        };
        self.jobs.insert(id, job);
        id
    }
}

/// The shared server core: everything but the listener.
pub struct Core {
    cfg: ServeConfig,
    engine: Arc<dyn Engine>,
    metrics: ServeMetrics,
    state: Mutex<CoreState>,
    work_cv: Condvar,
    done_cv: Condvar,
    idle_cv: Condvar,
    addr: Mutex<Option<SocketAddr>>,
}

/// What `drain` reported when the server shut down.
#[derive(Clone, PartialEq, Debug)]
pub struct DrainSummary {
    /// Jobs that received a terminal answer over the server lifetime.
    pub answered: u64,
    /// Simulations actually executed.
    pub executed: u64,
    /// Final metrics snapshot (pretty multi-line JSON, file form).
    pub metrics: String,
}

impl Core {
    fn new(engine: Arc<dyn Engine>, cfg: ServeConfig) -> Self {
        Core {
            engine,
            metrics: ServeMetrics::new(),
            state: Mutex::new(CoreState {
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                inflight: HashMap::new(),
                cache: LruCache::new(cfg.cache_cap),
                done_order: VecDeque::new(),
                next_id: 1,
                active: 0,
                answered: 0,
                draining: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            addr: Mutex::new(None),
            cfg,
        }
    }

    /// The server metrics (shared with connection handlers and workers).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CoreState> {
        self.state.lock().expect("server core poisoned")
    }

    fn publish_load(&self, st: &CoreState) {
        self.metrics.set_load(st.queue.len(), st.active);
    }

    /// Completed jobs to retain for late `result` fetches.
    fn retained_cap(&self) -> usize {
        (self.cfg.queue_cap * 8).max(1024)
    }

    fn finish_job(&self, st: &mut CoreState, id: u64, state: JobState) {
        if let Some(job) = st.jobs.get_mut(&id) {
            st.inflight.remove(&job.canon);
            job.state = state;
            self.retire(st, id);
        }
        self.done_cv.notify_all();
    }

    /// Counts job `id` answered and keeps it for late fetches, within the cap.
    fn retire(&self, st: &mut CoreState, id: u64) {
        st.answered += 1;
        self.metrics.inc(Ctr::Answered, 1);
        st.done_order.push_back(id);
        while st.done_order.len() > self.retained_cap() {
            if let Some(old) = st.done_order.pop_front() {
                st.jobs.remove(&old);
            }
        }
    }

    /// Handles one submission, already past parse.
    fn submit(&self, spec: JobSpec) -> Response {
        self.metrics.inc(Ctr::Submitted, 1);
        let key = spec.key();
        if let Err(e) = self.engine.validate(&spec) {
            self.metrics.inc(Ctr::RejectedInvalid, 1);
            return Response::Rejected {
                reason: "invalid_job".into(),
                detail: e,
                retry_after_ms: 0,
            };
        }
        let mut st = self.lock();
        if st.draining {
            drop(st);
            self.metrics.inc(Ctr::RejectedDraining, 1);
            return Response::Rejected {
                reason: "draining".into(),
                detail: "server is draining; not admitting new jobs".into(),
                retry_after_ms: 0,
            };
        }
        let submitted = |id, status| Response::Submitted {
            id,
            key: key.hex(),
            status,
        };
        if let Some(result) = st.cache.get(&key.canon) {
            let id = st.add(spec, &key.canon, JobState::Done(result));
            self.retire(&mut st, id);
            drop(st);
            self.metrics.inc(Ctr::CacheHits, 1);
            return submitted(id, SubmitStatus::Cached);
        }
        if let Some(&id) = st.inflight.get(&key.canon) {
            drop(st);
            self.metrics.inc(Ctr::Coalesced, 1);
            return submitted(id, SubmitStatus::Coalesced);
        }
        if st.queue.len() >= self.cfg.queue_cap {
            let depth = st.queue.len();
            drop(st);
            self.metrics.inc(Ctr::RejectedFull, 1);
            return Response::Rejected {
                reason: "queue_full".into(),
                detail: format!("queue at capacity ({depth} jobs waiting)"),
                retry_after_ms: self.cfg.retry_after_ms,
            };
        }
        let id = st.add(spec, &key.canon, JobState::Queued);
        st.inflight.insert(key.canon.clone(), id);
        st.queue.push_back(id);
        self.publish_load(&st);
        drop(st);
        self.metrics.inc(Ctr::Accepted, 1);
        self.work_cv.notify_one();
        submitted(id, SubmitStatus::Queued)
    }

    /// Blocks until job `id` is terminal and returns its result reply: the
    /// one line a [`watch`](Self::watch) of it without progress streams.
    fn result(&self, id: u64) -> Response {
        let mut last = None;
        self.watch(id, false, &mut |resp| {
            last = Some(resp);
            true
        });
        last.expect("a watch streams at least one reply")
    }

    /// Streams job `id` to `emit`: if `progress`, every progress event in
    /// order (as [`Response::Progress`] with consecutive `seq`), then the
    /// terminal [`Response::ResultOk`]/[`Response::ResultErr`] line, then
    /// returns; without `progress` no event is copied. `emit` returning
    /// `false` (a dead connection) aborts the stream. The core lock is
    /// never held across an `emit` call.
    pub fn watch(&self, id: u64, progress: bool, emit: &mut dyn FnMut(Response) -> bool) {
        let mut sent = 0usize;
        loop {
            let (fresh, terminal) = {
                let mut st = self.lock();
                loop {
                    let Some(job) = st.jobs.get(&id) else {
                        let error = format!("unknown job id {id}");
                        break (Vec::new(), Some(Response::ProtocolError { error }));
                    };
                    let fresh: Vec<Arc<String>> = if progress {
                        job.progress[sent..].to_vec()
                    } else {
                        Vec::new()
                    };
                    let terminal = match &job.state {
                        JobState::Done(r) => Some(Response::ResultOk {
                            id,
                            result: r.as_ref().clone(),
                        }),
                        JobState::Failed(e) => Some(Response::ResultErr {
                            id,
                            error: e.clone(),
                        }),
                        _ => None,
                    };
                    if !fresh.is_empty() || terminal.is_some() {
                        break (fresh, terminal);
                    }
                    st = self.done_cv.wait(st).expect("server core poisoned");
                }
            };
            for event in fresh {
                let resp = Response::Progress {
                    id,
                    seq: sent as u64,
                    event: event.as_ref().clone(),
                };
                sent += 1;
                if !emit(resp) {
                    return;
                }
            }
            if let Some(terminal) = terminal {
                emit(terminal);
                return;
            }
        }
    }

    fn status(&self, id: u64) -> Response {
        let st = self.lock();
        match st.jobs.get(&id) {
            None => Response::ProtocolError {
                error: format!("unknown job id {id}"),
            },
            Some(job) => Response::Status {
                id,
                state: job.state.name().to_string(),
                queue_depth: st.queue.len() as u64,
            },
        }
    }

    /// Stops admission, waits for every accepted job to be answered, then
    /// shuts the worker pool down. Idempotent: concurrent drains all block
    /// until the server is idle and return the same summary.
    pub fn drain(&self) -> DrainSummary {
        let summary = self.drain_jobs();
        self.wake_accept_loop();
        summary
    }

    /// [`drain`](Self::drain) without waking the accept loop. A `drain`
    /// request waits for that until its reply is written: the accept loop's
    /// end is the process's, and the requester must read the reply first.
    fn drain_jobs(&self) -> DrainSummary {
        let mut st = self.lock();
        st.draining = true;
        while !(st.queue.is_empty() && st.active == 0) {
            st = self.idle_cv.wait(st).expect("server core poisoned");
        }
        st.shutdown = true;
        drop(st);
        self.work_cv.notify_all();
        self.done_cv.notify_all();
        self.idle_cv.notify_all();
        self.summary()
    }

    /// What the server has answered and executed so far, and its metrics.
    fn summary(&self) -> DrainSummary {
        DrainSummary {
            answered: self.lock().answered,
            executed: self.metrics.get(Ctr::Executed),
            metrics: self.metrics.snapshot_json(),
        }
    }

    /// Unblocks the accept loop after shutdown by making one throwaway
    /// connection to ourselves.
    fn wake_accept_loop(&self) {
        let addr = *self.addr.lock().expect("server addr poisoned");
        if let Some(addr) = addr {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
        }
    }

    /// Handles one request, returning the reply to send. A `drain` leaves
    /// the accept loop running for the frontend to end once it has replied.
    pub fn handle(&self, req: Request) -> Response {
        self.metrics.inc(Ctr::Requests, 1);
        match req {
            Request::Submit(spec) => self.submit(spec),
            Request::Status(id) => self.status(id),
            Request::Result(id) => self.result(id),
            // The TCP frontend streams `watch` itself (many lines per
            // request); through the one-reply `handle` path it degrades
            // to a blocking `result`.
            Request::Watch(id) => self.result(id),
            Request::Stats => Response::Stats {
                metrics: self.metrics.snapshot_line(),
            },
            Request::Ping => Response::Pong,
            Request::Drain => {
                let s = self.drain_jobs();
                Response::Drained {
                    answered: s.answered,
                    executed: s.executed,
                    metrics: self.metrics.snapshot_line(),
                }
            }
        }
    }

    /// The progress sink for job `id`: appends the event under the core
    /// lock and wakes watchers.
    fn progress_sink(&self, id: u64) -> impl Fn(String) + '_ {
        move |event: String| {
            let mut st = self.lock();
            if let Some(job) = st.jobs.get_mut(&id) {
                job.progress.push(Arc::new(event));
            }
            drop(st);
            self.done_cv.notify_all();
        }
    }

    /// Runs the engine on this worker under the configured wall-clock
    /// budget. A job still running at the deadline is told to stop through
    /// its token and answered with a timeout, whatever it returns; a panic
    /// is answered as an internal error.
    fn execute(&self, id: u64, spec: &JobSpec) -> Result<String, String> {
        let timeout = self.cfg.job_timeout_ms;
        let cancel = match timeout {
            0 => Cancel::never(),
            ms => Cancel::new(Some(Instant::now() + Duration::from_millis(ms))),
        };
        let sink = self.progress_sink(id);
        let out = panic::catch_unwind(AssertUnwindSafe(|| self.engine.run(spec, &sink, &cancel)));
        if cancel.is_set() {
            self.metrics.inc(Ctr::Timeouts, 1);
            return Err(format!("timeout: exceeded {timeout} ms wall-clock budget"));
        }
        out.unwrap_or_else(|payload| Err(format!("internal: {}", panic_message(&*payload))))
    }

    /// Starts the worker pool.
    fn start_workers(self: &Arc<Self>) -> Vec<std::thread::JoinHandle<()>> {
        (0..self.cfg.workers.max(1))
            .map(|_| {
                let core = self.clone();
                std::thread::spawn(move || core.worker_loop())
            })
            .collect()
    }

    /// One worker thread: pop, execute, answer, repeat until shutdown.
    fn worker_loop(self: Arc<Self>) {
        loop {
            let mut st = self.lock();
            while st.queue.is_empty() && !st.shutdown {
                st = self.work_cv.wait(st).expect("server core poisoned");
            }
            if st.shutdown && st.queue.is_empty() {
                return;
            }
            let id = st.queue.pop_front().expect("queue checked non-empty");
            let spec = {
                let job = st.jobs.get_mut(&id).expect("queued job must exist");
                job.state = JobState::Running;
                let waited = job.enqueued_at.elapsed().as_millis() as u64;
                self.metrics.observe_queue_wait_ms(waited);
                job.spec.clone()
            };
            st.active += 1;
            self.publish_load(&st);
            drop(st);

            let started = Instant::now();
            let outcome = self.execute(id, &spec);
            self.metrics
                .observe_job_wall_ms(started.elapsed().as_millis() as u64);

            let mut st = self.lock();
            st.active -= 1;
            let state = match outcome {
                Ok(result) => {
                    self.metrics.inc(Ctr::Executed, 1);
                    let result = Arc::new(result);
                    let canon = st.jobs.get(&id).map(|j| j.canon.clone());
                    if let Some(canon) = canon {
                        let evicted = st.cache.put(canon, result.clone());
                        self.metrics.inc(Ctr::CacheEvictions, evicted);
                    }
                    JobState::Done(result)
                }
                Err(e) => {
                    self.metrics.inc(Ctr::Failed, 1);
                    JobState::Failed(e)
                }
            };
            self.finish_job(&mut st, id, state);
            self.publish_load(&st);
            if st.queue.is_empty() && st.active == 0 {
                self.idle_cv.notify_all();
            }
        }
    }
}

/// The text a panic was raised with.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    (payload.downcast_ref::<&str>().copied())
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("the job panicked")
}

/// A bound TCP job server.
pub struct Server {
    listener: TcpListener,
    core: Arc<Core>,
}

impl Server {
    /// Binds `addr` and prepares (but does not start) the server.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        engine: Arc<dyn Engine>,
        cfg: ServeConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let core = Arc::new(Core::new(engine, cfg));
        *core.addr.lock().expect("server addr poisoned") = Some(listener.local_addr()?);
        Ok(Server { listener, core })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared core, for out-of-band drain (e.g. a stdin watcher).
    pub fn core(&self) -> Arc<Core> {
        self.core.clone()
    }

    /// Serves until a drain completes. Workers are joined; connection
    /// handler threads are detached and die with the process.
    pub fn run(self) -> DrainSummary {
        let workers = self.core.start_workers();
        for stream in self.listener.incoming() {
            if self.core.lock().shutdown {
                break;
            }
            let Ok(stream) = stream else { continue };
            let core = self.core.clone();
            std::thread::spawn(move || handle_connection(core, stream));
        }
        for w in workers {
            let _ = w.join();
        }
        self.core.summary()
    }
}

/// Reads request lines until EOF, answering each on the same stream.
fn handle_connection(core: Arc<Core>, stream: TcpStream) {
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut send = |resp: Response| {
        let mut out = encode_response(&resp);
        out.push('\n');
        writer.write_all(out.as_bytes()).is_ok() && writer.flush().is_ok()
    };
    for line in BufReader::new(stream).lines() {
        let Ok(line) = line else { return };
        if line.trim().is_empty() {
            continue;
        }
        let resp = match parse_request(&line) {
            // `watch` is the one multi-line reply: stream progress events as
            // they land, finish with the terminal result line, then resume
            // the normal one-reply-per-line loop on the same connection.
            Ok(Request::Watch(id)) => {
                core.metrics.inc(Ctr::Requests, 1);
                let mut alive = true;
                core.watch(id, true, &mut |resp| {
                    alive = send(resp);
                    alive
                });
                if !alive {
                    return;
                }
                continue;
            }
            Ok(req) => core.handle(req),
            Err(error) => {
                core.metrics.inc(Ctr::Requests, 1);
                core.metrics.inc(Ctr::ProtocolErrors, 1);
                Response::ProtocolError { error }
            }
        };
        let is_drain = matches!(resp, Response::Drained { .. });
        let sent = send(resp);
        if is_drain {
            core.wake_accept_loop();
        }
        if !sent || is_drain {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::FaultSpec;
    use hoploc_harness::Memo;

    /// Deterministic fake engine: streams three progress events (to
    /// exercise the watch path without a real search), then echoes the
    /// canon, built once per job through a [`Memo`] like the real engine's
    /// artifacts; optionally slow, failing, or panicking in the build.
    struct FakeEngine {
        delay_ms: u64,
        fail_apps: Vec<String>,
        panic_apps: Vec<String>,
        built: Memo<String, String>,
    }

    impl FakeEngine {
        fn new(delay_ms: u64) -> Self {
            FakeEngine {
                delay_ms,
                fail_apps: Vec::new(),
                panic_apps: Vec::new(),
                built: Memo::new(None),
            }
        }
    }

    impl Engine for FakeEngine {
        fn validate(&self, spec: &JobSpec) -> Result<(), String> {
            if spec.app == "invalid" {
                return Err("unknown application \"invalid\"".into());
            }
            Ok(())
        }

        fn run(&self, spec: &JobSpec, emit: &dyn Fn(String), _: &Cancel) -> Result<String, String> {
            for i in 0..3 {
                emit(format!("{{\"app\":\"{}\",\"step\":{i}}}", spec.app));
            }
            if self.delay_ms > 0 {
                std::thread::sleep(Duration::from_millis(self.delay_ms));
            }
            if self.fail_apps.contains(&spec.app) {
                return Err(format!("engine cannot run {:?}", spec.app));
            }
            let built = self.built.get_or(spec.canon(), || {
                assert!(
                    !self.panic_apps.contains(&spec.app),
                    "cannot build {:?}",
                    spec.app
                );
                format!("{{\"canon\": \"{}\"}}", spec.canon())
            });
            Ok(built.to_string())
        }
    }

    fn spec(app: &str) -> JobSpec {
        JobSpec {
            app: app.into(),
            ..JobSpec::default()
        }
    }

    fn core_with(engine: FakeEngine, cfg: ServeConfig) -> Arc<Core> {
        Arc::new(Core::new(Arc::new(engine), cfg))
    }

    /// Drains `core` and joins its workers.
    fn shut_down(core: &Core, workers: Vec<std::thread::JoinHandle<()>>) -> DrainSummary {
        let summary = core.drain();
        for w in workers {
            w.join().unwrap();
        }
        summary
    }

    /// The id and status `spec` was accepted with.
    fn accept(core: &Core, spec: JobSpec) -> (u64, SubmitStatus) {
        match core.submit(spec) {
            Response::Submitted { id, status, .. } => (id, status),
            other => panic!("expected acceptance, got {other:?}"),
        }
    }

    /// Every line a watch of job `id` streams.
    fn watched(core: &Core, id: u64) -> Vec<Response> {
        let mut got = Vec::new();
        core.watch(id, true, &mut |resp| {
            got.push(resp);
            true
        });
        got
    }

    /// The bytes job `id` was answered with.
    fn result_ok(core: &Core, id: u64) -> String {
        match core.result(id) {
            Response::ResultOk { result, .. } => result,
            other => panic!("expected a result, got {other:?}"),
        }
    }

    /// The error job `id` was answered with.
    fn result_err(core: &Core, id: u64) -> String {
        match core.result(id) {
            Response::ResultErr { error, .. } => error,
            other => panic!("expected an error result, got {other:?}"),
        }
    }

    #[test]
    fn submit_execute_result_round_trip() {
        let core = core_with(FakeEngine::new(0), ServeConfig::default());
        let workers = core.start_workers();
        let (id, status) = accept(&core, spec("swim"));
        assert_eq!(status, SubmitStatus::Queued);
        let result = result_ok(&core, id);
        assert!(result.contains("app=swim"), "{result}");
        shut_down(&core, workers);
    }

    #[test]
    fn duplicate_submissions_coalesce_and_cache() {
        let core = core_with(FakeEngine::new(40), ServeConfig::default());
        let workers = core.start_workers();
        let (id1, _) = accept(&core, spec("swim"));
        // Same job again while in flight: coalesced onto the same id.
        let (id2, status) = accept(&core, spec("swim"));
        assert_eq!(status, SubmitStatus::Coalesced);
        assert_eq!(id1, id2);
        let r1 = result_ok(&core, id1);
        // And again after completion: served from cache, new id, same bytes.
        let (id3, status) = accept(&core, spec("swim"));
        assert_eq!(status, SubmitStatus::Cached);
        assert_ne!(id1, id3);
        assert_eq!(r1, result_ok(&core, id3));
        assert_eq!(core.metrics.get(Ctr::Executed), 1, "one simulation total");
        shut_down(&core, workers);
    }

    #[test]
    fn full_queue_rejects_with_retry_hint() {
        let cfg = ServeConfig {
            workers: 1,
            queue_cap: 1,
            ..ServeConfig::default()
        };
        let core = core_with(FakeEngine::new(60), cfg);
        let workers = core.start_workers();
        // First job occupies the worker (popped from queue quickly);
        // submit distinct jobs until the queue slot is taken too.
        let mut accepted = Vec::new();
        let mut rejected = 0u64;
        for i in 0..20 {
            match core.submit(spec(&format!("app{i}"))) {
                Response::Submitted { id, .. } => accepted.push(id),
                Response::Rejected {
                    reason,
                    retry_after_ms,
                    ..
                } => {
                    assert_eq!(reason, "queue_full");
                    assert_eq!(retry_after_ms, core.cfg.retry_after_ms);
                    rejected += 1;
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert!(rejected > 0, "saturation must produce rejections");
        assert_eq!(core.metrics.get(Ctr::RejectedFull), rejected);
        for id in accepted {
            result_ok(&core, id);
        }
        shut_down(&core, workers);
    }

    #[test]
    fn invalid_jobs_are_rejected_before_the_queue() {
        let core = core_with(FakeEngine::new(0), ServeConfig::default());
        let Response::Rejected { reason, .. } = core.submit(spec("invalid")) else {
            panic!("expected rejection");
        };
        assert_eq!(reason, "invalid_job");
        assert_eq!(core.metrics.get(Ctr::Accepted), 0);
    }

    #[test]
    fn engine_failures_become_structured_errors() {
        let mut eng = FakeEngine::new(0);
        eng.fail_apps.push("bad".into());
        let core = core_with(eng, ServeConfig::default());
        let workers = core.start_workers();
        let (id, _) = accept(&core, spec("bad"));
        let error = result_err(&core, id);
        assert!(error.contains("bad"), "{error}");
        assert_eq!(core.metrics.get(Ctr::Failed), 1);
        shut_down(&core, workers);
    }

    #[test]
    fn timeouts_answer_without_wedging_the_worker() {
        let cfg = ServeConfig {
            workers: 1,
            job_timeout_ms: 20,
            ..ServeConfig::default()
        };
        let core = core_with(FakeEngine::new(500), cfg);
        let workers = core.start_workers();
        let Response::Submitted { id, .. } = core.submit(spec("slowpoke")) else {
            panic!("expected acceptance");
        };
        let Response::ResultErr { error, .. } = core.result(id) else {
            panic!("expected a timeout error");
        };
        assert!(error.contains("timeout"), "{error}");
        assert_eq!(core.metrics.get(Ctr::Timeouts), 1);
        // The worker must still be serviceable: a fast job via the
        // direct engine path would sleep 500ms here, so just drain.
        shut_down(&core, workers);
    }

    #[test]
    fn a_panicking_job_is_answered_and_its_worker_serves_on() {
        let mut eng = FakeEngine::new(40);
        eng.panic_apps.push("boom".into());
        let cfg = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let core = core_with(eng, cfg);
        let workers = core.start_workers();
        let want = "internal: cannot build \"boom\"";
        let (id, _) = accept(&core, spec("boom"));
        assert_eq!(accept(&core, spec("boom")), (id, SubmitStatus::Coalesced));
        // The duplicate shares the id, so it reads this same one answer.
        assert_eq!(result_err(&core, id), want);
        // Nothing was cached, and the build's cell was left empty: the job
        // runs, and panics, again.
        let (again, status) = accept(&core, spec("boom"));
        assert_eq!(status, SubmitStatus::Queued);
        assert_eq!(result_err(&core, again), want);
        let (healthy, _) = accept(&core, spec("swim"));
        result_ok(&core, healthy);
        assert_eq!(core.metrics.get(Ctr::Failed), 2);
        // One answer per job: the duplicate shares its id.
        assert_eq!(shut_down(&core, workers).answered, 3);
    }

    #[test]
    fn drain_answers_everything_then_rejects() {
        let core = core_with(FakeEngine::new(5), ServeConfig::default());
        let workers = core.start_workers();
        let ids: Vec<u64> = (0..6)
            .map(|i| accept(&core, spec(&format!("app{i}"))).0)
            .collect();
        let summary = shut_down(&core, workers);
        assert_eq!(summary.answered, 6);
        assert_eq!(summary.executed, 6);
        for id in ids {
            result_ok(&core, id);
        }
        let Response::Rejected { reason, .. } = core.submit(spec("late")) else {
            panic!("post-drain submissions must be rejected");
        };
        assert_eq!(reason, "draining");
    }

    #[test]
    fn watch_streams_progress_in_order_then_the_result() {
        let core = core_with(FakeEngine::new(0), ServeConfig::default());
        let workers = core.start_workers();
        let (id, _) = accept(&core, spec("swim"));
        let got = watched(&core, id);
        assert_eq!(got.len(), 4, "3 progress lines + 1 result: {got:?}");
        for (i, resp) in got.iter().take(3).enumerate() {
            let Response::Progress { seq, event, .. } = resp else {
                panic!("expected progress, got {resp:?}");
            };
            assert_eq!(*seq, i as u64, "events must arrive in order");
            assert_eq!(event, &format!("{{\"app\":\"swim\",\"step\":{i}}}"));
        }
        assert!(matches!(got[3], Response::ResultOk { .. }));
        // A late watcher replays the full history identically.
        let replay = watched(&core, id);
        assert_eq!(got, replay, "late watch must replay the same stream");
        // Watching an unknown id errors immediately.
        let bad = watched(&core, 9999);
        assert!(matches!(bad.as_slice(), [Response::ProtocolError { .. }]));
        shut_down(&core, workers);
    }

    #[test]
    fn watch_streams_under_job_timeouts_too() {
        // With a timeout configured the job runs under a token with a
        // deadline; the progress sink must still deliver.
        let cfg = ServeConfig {
            workers: 1,
            job_timeout_ms: 10_000,
            ..ServeConfig::default()
        };
        let core = core_with(FakeEngine::new(0), cfg);
        let workers = core.start_workers();
        let Response::Submitted { id, .. } = core.submit(spec("mgrid")) else {
            panic!("expected acceptance");
        };
        let got = watched(&core, id);
        assert_eq!(got.len(), 4, "{got:?}");
        assert!(matches!(got[3], Response::ResultOk { .. }));
        shut_down(&core, workers);
    }

    #[test]
    fn fault_specs_key_separately() {
        let core = core_with(FakeEngine::new(0), ServeConfig::default());
        let workers = core.start_workers();
        let clean = spec("swim");
        let mut faulted = spec("swim");
        faulted.faults = FaultSpec::Seed(3);
        let (a, _) = accept(&core, clean);
        let (b, _) = accept(&core, faulted);
        assert_ne!(a, b, "fault spec is part of the job identity");
        core.result(a);
        core.result(b);
        shut_down(&core, workers);
    }
}
