//! The fan-out: the one way the workspace runs independent jobs on more
//! than one thread. Results are collected by index and a panic leaves by
//! rank, so nothing a caller sees depends on the schedule.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};
use std::thread;

/// Maps `f` over `items` on `jobs` threads and collects the results **by
/// index**, whatever the schedule: [`pull_beside`] with an empty chain, so
/// a panic leaves as the lowest-index item's payload. `jobs <= 1` (or one
/// item) is a sequential map on the caller; `f` must be pure in its item
/// for determinism to hold.
pub fn parallel_map<T: Send + Sync, R: Send>(
    items: &[T],
    jobs: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let jobs = jobs.clamp(1, items.len().max(1));
    pull_beside(items, jobs, || ((), Vec::new()), f).1
}

/// The list [`pull_beside`]'s threads take jobs from, by index: the early
/// jobs, then the late ones once the chain has returned them.
struct Board {
    /// The next index no thread has taken.
    next: usize,
    /// How many late jobs there are, once the chain has returned.
    late: Option<usize>,
    /// Set by a panic in a job: nothing more is handed out.
    stopped: bool,
}

/// Runs `chain` on the calling thread while `jobs - 1` helper threads run
/// the `early` jobs in order. Once `chain` returns the late jobs, every
/// thread takes the jobs no thread has started from one list, early before
/// late, in list order, until none is left: at most `jobs` jobs run at
/// once, and no thread waits while a job it could start is untaken.
/// Returns what `chain` returned and the results of the early jobs then
/// the late ones, by index. With `jobs <= 1` the caller runs the chain,
/// then every job.
///
/// Panics are caught as values and re-raised on the caller once every
/// thread is done, lowest rank first: the early jobs by index, then
/// `chain`, then the late jobs by index. A panicking job stops the handing
/// out of jobs; every job before it in the list was handed out first, so
/// the payload that leaves does not depend on the schedule. A panicking
/// chain posts no late jobs, and the early ones, which rank before it,
/// still run.
pub fn pull_beside<J: Send + Sync, R: Send, T>(
    early: &[J],
    jobs: usize,
    chain: impl FnOnce() -> (T, Vec<J>),
    run: impl Fn(&J) -> R + Sync,
) -> (T, Vec<R>) {
    let late: OnceLock<Vec<J>> = OnceLock::new();
    let board = Mutex::new(Board {
        next: 0,
        late: None,
        stopped: false,
    });
    let posted = Condvar::new();
    // Every update of the board is one assignment and none can panic, so
    // a poisoned lock would still hold a whole board.
    let lock = || board.lock().unwrap_or_else(PoisonError::into_inner);
    // Waits only while every known job is taken and the chain still runs.
    let take = || {
        let mut b = lock();
        loop {
            if b.stopped {
                return None;
            }
            if b.next < early.len() + b.late.unwrap_or(0) {
                b.next += 1;
                return Some(b.next - 1);
            }
            if b.late.is_some() {
                return None;
            }
            b = posted.wait(b).unwrap_or_else(PoisonError::into_inner);
        }
    };
    let work = || {
        let mut done = Vec::new();
        while let Some(i) = take() {
            let job = match i.checked_sub(early.len()) {
                None => &early[i],
                Some(l) => &late
                    .get()
                    .expect("late jobs are posted before they are taken")[l],
            };
            let r = panic::catch_unwind(AssertUnwindSafe(|| run(job)));
            if r.is_err() {
                lock().stopped = true;
            }
            done.push((i, r));
        }
        done
    };
    let (out, mut done) = thread::scope(|scope| {
        let helpers: Vec<_> = (1..jobs).map(|_| scope.spawn(work)).collect();
        let out = panic::catch_unwind(AssertUnwindSafe(chain)).map(|(out, jobs)| {
            let n = jobs.len();
            let _ = late.set(jobs);
            (out, n)
        });
        lock().late = Some(out.as_ref().map_or(0, |&(_, n)| n));
        posted.notify_all();
        let mut done = work();
        for h in helpers {
            done.extend(h.join().expect("a worker catches its jobs' panics"));
        }
        (out, done)
    });
    // In list order, every job before the first panic has its result.
    done.sort_unstable_by_key(|&(i, _)| i);
    let result = |r: thread::Result<R>| r.unwrap_or_else(|payload| panic::resume_unwind(payload));
    let mut done = done.into_iter().peekable();
    let mut results = Vec::with_capacity(done.len());
    while let Some((_, r)) = done.next_if(|&(i, _)| i < early.len()) {
        results.push(result(r));
    }
    let (out, _) = out.unwrap_or_else(|payload| panic::resume_unwind(payload));
    results.extend(done.map(|(_, r)| result(r)));
    (out, results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoploc_ptest::run_cases;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::{self, Receiver, Sender};
    use std::thread::ThreadId;
    use std::time::Duration;

    #[test]
    fn parallel_map_keeps_item_order_at_any_job_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [0, 1, 3, 8, 200] {
            assert_eq!(
                parallel_map(&items, jobs, |&x| x * x),
                expect,
                "jobs={jobs}"
            );
        }
        assert!(parallel_map(&Vec::<u64>::new(), 4, |&x| x).is_empty());
    }

    /// Fake jobs for [`pull_beside`]: job `i` reports that it started and
    /// on which thread, then runs until the test releases it and returns
    /// `10 * i`. A test whose script fails drops its releases, which fails
    /// the jobs instead of hanging them.
    struct Gated {
        started: Sender<(usize, ThreadId)>,
        release: Vec<Mutex<Receiver<()>>>,
        running: AtomicUsize,
        peak: AtomicUsize,
    }

    impl Gated {
        fn new(jobs: usize) -> (Self, Script) {
            let (started, starts) = mpsc::channel();
            let (release, gates): (Vec<_>, Vec<_>) = (0..jobs).map(|_| mpsc::channel()).unzip();
            let gated = Self {
                started,
                release: gates.into_iter().map(Mutex::new).collect(),
                running: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
            };
            (gated, Script { starts, release })
        }

        fn run(&self, &i: &usize) -> usize {
            let now = self.running.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            let me = thread::current().id();
            self.started.send((i, me)).expect("the script listens");
            let gate = self.release[i].lock().unwrap();
            gate.recv().expect("the script released the job");
            self.running.fetch_sub(1, Ordering::SeqCst);
            10 * i
        }
    }

    /// The test's side of [`Gated`]: which job started where, and the
    /// releases.
    struct Script {
        starts: Receiver<(usize, ThreadId)>,
        release: Vec<Sender<()>>,
    }

    impl Script {
        /// The next job to start and its thread; a bound, not a sleep, so
        /// that a schedule that never starts it fails.
        fn started(&self) -> (usize, ThreadId) {
            (self.starts.recv_timeout(Duration::from_secs(60)))
                .expect("a job starts within a minute")
        }

        fn release(&self, i: usize) {
            self.release[i].send(()).unwrap();
        }
    }

    #[test]
    fn when_the_chain_ends_first_the_caller_takes_a_baseline_and_the_helper_a_finalist() {
        let (gated, script) = Gated::new(3);
        let (chain_may_end, chain_waits) = mpsc::channel();
        let caller = thread::current().id();
        let (out, results) = thread::scope(|s| {
            s.spawn(move || {
                let (job, helper) = script.started();
                assert_eq!(job, 0, "the helper starts on the first baseline");
                assert_ne!(helper, caller);
                chain_may_end.send(()).unwrap();
                assert_eq!(
                    script.started(),
                    (1, caller),
                    "the caller takes the baseline nobody started"
                );
                script.release(0);
                assert_eq!(
                    script.started(),
                    (2, helper),
                    "the helper takes the finalist"
                );
                script.release(1);
                script.release(2);
            });
            let chain = || {
                chain_waits.recv().unwrap();
                ("chain", vec![2])
            };
            pull_beside(&[0, 1], 2, chain, |i| gated.run(i))
        });
        // As the sequential walk: early jobs, then late ones, in order.
        assert_eq!((out, results), ("chain", vec![0, 10, 20]));
        assert_eq!(gated.peak.into_inner(), 2);
    }

    #[test]
    fn when_the_baselines_end_first_both_threads_take_finalists_two_at_a_time() {
        let (gated, script) = Gated::new(5);
        let (chain_may_end, chain_waits) = mpsc::channel();
        let (out, results) = thread::scope(|s| {
            s.spawn(move || {
                assert_eq!(script.started().0, 0);
                script.release(0);
                chain_may_end.send(()).unwrap();
                // Both threads start a finalist before either ends.
                let (a, b) = (script.started(), script.started());
                assert_ne!(a.1, b.1, "the two finalists run on two threads");
                let mut first = [a.0, b.0];
                first.sort();
                assert_eq!(first, [1, 2]);
                // The thread that frees up takes the next, while the
                // other job still runs.
                script.release(a.0);
                assert_eq!(script.started(), (3, a.1));
                script.release(3);
                assert_eq!(script.started(), (4, a.1));
                script.release(4);
                script.release(b.0);
            });
            let chain = || {
                chain_waits.recv().unwrap();
                ((), vec![1, 2, 3, 4])
            };
            pull_beside(&[0], 2, chain, |i| gated.run(i))
        });
        assert_eq!((out, results), ((), vec![0, 10, 20, 30, 40]));
        assert_eq!(gated.peak.into_inner(), 2, "never more than two at once");
    }

    #[test]
    fn with_no_baselines_the_helper_waits_for_the_finalists() {
        let (gated, script) = Gated::new(2);
        let (out, results) = thread::scope(|s| {
            s.spawn(move || {
                let (a, b) = (script.started(), script.started());
                assert_ne!(a.1, b.1);
                script.release(0);
                script.release(1);
            });
            pull_beside(&[], 2, || ((), vec![0, 1]), |i| gated.run(i))
        });
        assert_eq!((out, results), ((), vec![0, 10]));
    }

    /// Job `i` panics with its own index when `panics(i)`.
    fn panicking(panics: impl Fn(usize) -> bool + Sync) -> impl Fn(&usize) -> usize + Sync {
        move |&i| {
            assert!(!panics(i), "job {i}");
            i
        }
    }

    #[test]
    #[should_panic(expected = "job 1")]
    fn a_baselines_panic_outranks_the_chains() {
        pull_beside(
            &[0, 1, 2],
            2,
            || -> ((), Vec<usize>) { panic!("chain") },
            panicking(|i| i >= 1),
        );
    }

    #[test]
    #[should_panic(expected = "chain")]
    fn a_chains_panic_leaves_after_the_baselines_ran() {
        pull_beside(
            &[0, 1],
            2,
            || -> ((), Vec<usize>) { panic!("chain") },
            panicking(|_| false),
        );
    }

    #[test]
    #[should_panic(expected = "job 2")]
    fn the_lowest_panicking_finalist_leaves() {
        pull_beside(&[0], 2, || ((), vec![1, 2, 3, 4]), panicking(|i| i >= 2));
    }

    /// Reference: what [`pull_beside`] stands for, on the caller alone —
    /// the early jobs, then the chain, then the late jobs.
    fn sequential<J, R, T>(
        early: &[J],
        chain: impl FnOnce() -> (T, Vec<J>),
        run: impl Fn(&J) -> R,
    ) -> (T, Vec<R>) {
        let mut results: Vec<R> = early.iter().map(&run).collect();
        let (out, late) = chain();
        results.extend(late.iter().map(&run));
        (out, results)
    }

    /// The text of a payload raised by `panic!`, formatted or literal.
    fn message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => payload
                .downcast::<&str>()
                .expect("a text payload")
                .to_string(),
        }
    }

    #[test]
    fn any_job_count_returns_what_the_sequential_walk_returns() {
        run_cases("harness.fan.pull_beside", 96, |rng| {
            let jobs = rng.usize_in(1..5);
            let (n_early, n_late) = (rng.usize_in(0..7), rng.usize_in(0..7));
            let early: Vec<usize> = (0..n_early).collect();
            let late: Vec<usize> = (n_early..n_early + n_late).collect();
            // Jobs from `first_bad` on panic; so may the chain.
            let first_bad = match rng.flip() {
                true => rng.usize_in(0..n_early + n_late + 1),
                false => usize::MAX,
            };
            let chain_panics = rng.usize_in(0..4) == 0;
            let chain = || {
                assert!(!chain_panics, "chain");
                ("chain", late.clone())
            };
            let run = |&i: &usize| {
                assert!(i < first_bad, "job {i}");
                thread::yield_now();
                10 * i + 1
            };
            let got = panic::catch_unwind(|| pull_beside(&early, jobs, chain, run));
            let want = panic::catch_unwind(|| sequential(&early, chain, run));
            let case = format!("jobs {jobs}, {n_early} early, {n_late} late, from {first_bad}");
            match (got, want) {
                (Ok(got), Ok(want)) => assert_eq!(got, want, "{case}"),
                (Err(got), Err(want)) => assert_eq!(message(got), message(want), "{case}"),
                (got, want) => panic!("{case}: {:?} against {:?}", got.is_ok(), want.is_ok()),
            }
        });
    }
}
