//! The process-wide pool of partition workers.
//!
//! Every scan fans its partitions out over this one pool ([`scope`],
//! called by [`crate::scan`]'s fan-out): long-lived threads, started
//! lazily, grown to the most workers any one scan has asked for
//! (at most [`crate::context::QueryContext::scan_threads`]) and never
//! shrunk, shared by every query of the process. A scan hands the pool
//! some *jobs* — copies of one closure over the scan's state, each
//! claiming partitions until none is left — runs its consumer on the
//! calling thread, and returns once every job has ended. Jobs queue in
//! the order scans submit them; a scan that ends withdraws its jobs that
//! have not started.
//!
//! **Progress rule.** Pool threads run partition producers only, and a
//! producer never starts a scan: [`scope`] panics on a pool thread.
//! Consumers — query threads, the probe thread of a pipelined hash join —
//! never run on the pool and, while their scan runs, block on nothing
//! but that scan's queues; while its jobs are stalled ([`Jobs::stalled`])
//! a consumer produces partitions itself. So every job on a pool thread
//! belongs to a scan whose consumer drains it, each such job either
//! produces or ends, a scan whose jobs wait behind other scans' moves on
//! its consumer, and the pool keeps making progress however many jobs
//! queue behind its threads. A consumer that blocked on anything else mid-scan — a
//! bounded queue that only another scan's consumer drains, say — would
//! park its jobs on pool threads that every other scan is waiting for:
//! that is why a pipelined join's probe queue is unbounded.
//!
//! **Panic rule.** A job that panics is caught on its pool thread, which
//! lives on; the scan re-raises the first payload on the calling thread
//! with [`std::panic::resume_unwind`] once every job has ended. A
//! consumer that panics unwinds only after its scan's jobs have ended
//! too, so no job outlives the state it borrows — the guarantee
//! [`std::thread::scope`] gives.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

type Job = dyn Fn() + Sync;
type Panic = Box<dyn Any + Send>;

/// One scan's jobs: the closure each runs, whether a thread has taken one
/// yet, how many have not ended, and the first panic among them.
struct Batch {
    work: &'static Job,
    started: AtomicBool,
    state: Mutex<(usize, Option<Panic>)>,
    ended: Condvar,
}

impl Batch {
    /// `jobs` of this batch ended (or were withdrawn), `panic` among them.
    fn end(&self, jobs: usize, panic: Option<Panic>) {
        let mut state = lock(&self.state);
        state.0 -= jobs;
        if state.1.is_none() {
            state.1 = panic;
        }
        if state.0 == 0 {
            self.ended.notify_all();
        }
    }
}

/// The jobs waiting for a thread, and how many threads serve them.
#[derive(Default)]
struct Queue {
    jobs: VecDeque<Arc<Batch>>,
    threads: usize,
}

#[derive(Default)]
struct Pool {
    queue: Mutex<Queue>,
    ready: Condvar,
    /// Threads waiting for a job.
    idle: AtomicUsize,
}

thread_local! {
    static ON_POOL: Cell<bool> = const { Cell::new(false) };
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(Pool::default)
}

/// Every lock here guards counts and a queue that no panic leaves half
/// written (jobs run outside them), so a poisoned one is still valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Pool {
    /// Queue `jobs` runs of `batch`, first growing the pool to `jobs`
    /// threads.
    fn submit(&'static self, batch: &Arc<Batch>, jobs: usize) {
        let mut queue = lock(&self.queue);
        while queue.threads < jobs {
            std::thread::Builder::new()
                .name("partition-worker".into())
                .spawn(move || self.serve())
                .expect("start a partition worker");
            queue.threads += 1;
        }
        queue.jobs.extend(std::iter::repeat_n(batch.clone(), jobs));
        drop(queue);
        self.ready.notify_all();
    }

    /// A pool thread: run queued jobs, one at a time, for ever.
    fn serve(&self) {
        ON_POOL.set(true);
        loop {
            let batch = {
                let mut queue = lock(&self.queue);
                loop {
                    match queue.jobs.pop_front() {
                        Some(batch) => break batch,
                        None => {
                            self.idle.fetch_add(1, Ordering::Relaxed);
                            queue = self.ready.wait(queue).unwrap_or_else(|e| e.into_inner());
                            self.idle.fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                }
            };
            batch.started.store(true, Ordering::Relaxed);
            let panic = catch_unwind(AssertUnwindSafe(batch.work)).err();
            batch.end(1, panic);
        }
    }
}

/// A scan's jobs on the pool, as its consumer sees them. Dropping it
/// ends them — on every way out of [`scope`]: it withdraws those still
/// queued, then waits for the running ones.
pub(crate) struct Jobs(Arc<Batch>);

impl Jobs {
    /// Whether the jobs are stalled: none has a thread yet, and no thread
    /// is free to take one — every pool thread is busy with other scans'
    /// jobs, which queue ahead of these. Then the consumer had better
    /// produce a partition itself than wait.
    pub(crate) fn stalled(&self) -> bool {
        !self.0.started.load(Ordering::Relaxed) && pool().idle.load(Ordering::Relaxed) == 0
    }

    /// Every job ended; the first panic among them.
    fn join(&self) -> Option<Panic> {
        let withdrawn = {
            let mut queue = lock(&pool().queue);
            let before = queue.jobs.len();
            queue.jobs.retain(|b| !Arc::ptr_eq(b, &self.0));
            before - queue.jobs.len()
        };
        self.0.end(withdrawn, None);
        let mut state = lock(&self.0.state);
        while state.0 > 0 {
            state = self.0.ended.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        state.1.take()
    }
}

impl Drop for Jobs {
    fn drop(&mut self) {
        self.join();
    }
}

/// Run `jobs` copies of `work` on the pool while `body` runs on the
/// calling thread, handed the jobs to ask whether they are stalled, and
/// return `body`'s result once every job has ended — re-raising the first
/// job's panic, if one panicked. `body` must not wait on anything but
/// what the jobs produce (the progress rule, in the module docs); it is
/// never called on a pool thread.
pub(crate) fn scope<R>(jobs: usize, work: &(dyn Fn() + Sync), body: impl FnOnce(&Jobs) -> R) -> R {
    assert!(
        !ON_POOL.get(),
        "a partition worker started a scan: pool threads run producers only"
    );
    // SAFETY: `work` is only called by the jobs of this batch, and every
    // one of them has ended or been withdrawn before `scope` returns or
    // unwinds: `Jobs` is built as soon as the jobs are queued, before
    // `body` runs, and its `join` — on the normal path and, in `drop`, on
    // every other — withdraws the queued jobs and waits for the running
    // ones to finish calling `work`. A pool thread keeps its `Arc<Batch>`
    // for a moment after `end` but never calls `work` again, so the
    // erased borrow is never used once the closure can be freed.
    let work = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static Job>(work) };
    let batch = Arc::new(Batch {
        work,
        started: AtomicBool::new(false),
        state: Mutex::new((jobs, None)),
        ended: Condvar::new(),
    });
    pool().submit(&batch, jobs);
    let jobs = Jobs(batch);
    let out = body(&jobs);
    if let Some(panic) = jobs.join() {
        resume_unwind(panic);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::time::{Duration, Instant};

    /// `f` on a thread of its own, failing the test if it does not return
    /// within a minute (a pool that lost its threads hangs, not fails).
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(Duration::from_secs(60))
            .expect("the pool hung")
    }

    /// A body that returns once `n` jobs have started: a job still
    /// queued when the body returns is withdrawn, not run.
    fn until_started(started: &AtomicUsize, n: usize) {
        let since = Instant::now();
        while started.load(Ordering::SeqCst) < n && since.elapsed().as_secs() < 30 {
            std::thread::yield_now();
        }
    }

    /// `scope` of `jobs` copies of `job` whose body waits for them to
    /// start, its panic's message, if it panicked.
    fn panic_of(jobs: usize, job: impl Fn() + Sync) -> Option<String> {
        let started = AtomicUsize::new(0);
        let counted = || {
            started.fetch_add(1, Ordering::SeqCst);
            job()
        };
        catch_unwind(AssertUnwindSafe(|| {
            scope(jobs, &counted, |_| until_started(&started, jobs))
        }))
        .err()
        .map(|p| p.downcast_ref::<&str>().map_or("?", |s| s).to_string())
    }

    #[test]
    fn a_panicking_job_is_re_raised_and_its_thread_serves_on() {
        let panic = within_a_minute(|| panic_of(2, || panic!("job bug")));
        assert_eq!(panic.as_deref(), Some("job bug"));
        // Every pool thread that caught a panic still runs jobs.
        let panic = within_a_minute(|| panic_of(2, || ()));
        assert_eq!(panic, None);
    }

    #[test]
    fn a_panicking_body_unwinds_only_after_its_jobs_end() {
        let (started, ended) = within_a_minute(|| {
            let (started, ended) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let job = || {
                started.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(50));
                ended.fetch_add(1, Ordering::SeqCst);
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                scope(2, &job, |_| {
                    until_started(&started, 1);
                    panic!("consumer bug")
                })
            }));
            assert!(outcome.is_err());
            (started.into_inner(), ended.into_inner())
        });
        assert!(started >= 1, "no job ran");
        assert_eq!(started, ended, "a job outlived its scope");
    }

    #[test]
    fn a_job_that_starts_a_scan_is_refused() {
        let panic = within_a_minute(|| panic_of(1, || scope(1, &|| (), |_| ())));
        let panic = panic.expect("a nested scan ran on a pool thread");
        assert!(panic.contains("producers only"), "{panic}");
    }
}
