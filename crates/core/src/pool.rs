//! The background compiler pool: trace compilation off the execution
//! thread.
//!
//! In the paper's TraceMonkey, compilation happens on the thread that
//! recorded the trace — acceptable when compiles are rare and the realm
//! is alone in the process. A multi-tenant VM wants the execution thread
//! back as soon as recording finishes: the realm keeps *interpreting*
//! while a worker runs the compile pipeline (the monitor's
//! `compile_trace`: backward filters → register allocation → fragment
//! verification), and the monitor lands the finished fragment at the
//! next anchor hit, through the same `Monitor::land` a synchronous
//! compile goes through (`monitor/install.rs`). Until then the loop
//! simply stays in the interpreter — semantically identical, just not
//! yet fast. This module keeps only the queue, the workers and the panic
//! fence.
//!
//! A job carries the [`RecordedTrace`] by value and returns it alongside
//! the compiled [`Fragment`]; the monitor needs the (filtered) recording
//! back to build the tree (entry maps, exits, oracle marks). Results are
//! handed off on a per-job channel ([`Ticket`]), so a pool can serve any
//! number of realms without routing state. Compile jobs are the pool's
//! only job kind: native code is emitted by the thread that runs or
//! grows the tree (at its first run, and at each branch install).
//!
//! The two paths treat a failed compile differently. On a worker, a
//! verifier rejection or a compile-pipeline panic (a filter or backend
//! defect) is caught and surfaces as [`CompileOutcome::Failed`]; the
//! submitting monitor charges it to the site like a recording abort (the
//! §3.3 failure budget), so one realm's miscompile cannot take down the
//! process. On the execution thread the same rejection is a bug, and the
//! synchronous compile panics.
//!
//! Determinism: the interleaving test rig drives the handoff through
//! `tm_support::sched` yield points (`pool.submit`, `pool.take`,
//! `pool.result`, `pool.wait`); see `docs/TESTING.md`.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use tm_lir::{ArSlot, LirType};
use tm_nanojit::Fragment;
use tm_support::sched;

use crate::config::JitOptions;
use crate::monitor::compile_trace;
use crate::recorder::RecordedTrace;

/// A unit of compilation: one finished recording plus everything the
/// pipeline needs to run it to a fragment without touching realm state.
#[derive(Debug)]
pub struct CompileJob {
    /// The finished recording (moved in; returned with the result).
    pub recorded: RecordedTrace,
    /// Pre-existing entry state for the post-filter verification pass
    /// (empty for root traces).
    pub verify_base: Vec<(ArSlot, LirType)>,
    /// The submitting monitor's options (verify, fusion, ...).
    pub opts: JitOptions,
}

/// What came back from a worker.
#[derive(Debug)]
pub enum CompileOutcome {
    /// The pipeline succeeded: the (now backward-filtered) recording and
    /// its compiled fragment.
    Done {
        /// The recording, post-backward-filters.
        recorded: Box<RecordedTrace>,
        /// The compiled (and, if enabled, verified) fragment.
        fragment: Box<Fragment>,
    },
    /// The pipeline panicked or a verification stage rejected the trace;
    /// the monitor counts it as a recording failure at the site.
    Failed(String),
}

/// The submitter's handle to one in-flight job.
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<CompileOutcome>,
}

impl Ticket {
    /// A ticket whose job will never report, as when the pool shut down
    /// under it: it resolves to [`CompileOutcome::Failed`].
    #[cfg(test)]
    pub(crate) fn orphaned() -> Ticket {
        Ticket { rx: channel().1 }
    }

    /// Non-blocking poll. `None` while the job is still queued or
    /// compiling. A dead worker (channel disconnect) reports as
    /// [`CompileOutcome::Failed`].
    pub fn try_ready(&self) -> Option<CompileOutcome> {
        match self.rx.try_recv() {
            Ok(outcome) => Some(outcome),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => {
                Some(CompileOutcome::Failed("compiler pool shut down".into()))
            }
        }
    }

    /// Blocking wait, used when a program finishes with compiles still
    /// in flight (the monitor drains so its final state is
    /// deterministic). Under the schedule rig this spins through a yield
    /// point instead of blocking, keeping the interleaving seeded.
    pub fn wait(&self) -> CompileOutcome {
        if sched::armed() {
            loop {
                if let Some(outcome) = self.try_ready() {
                    return outcome;
                }
                sched::yield_point("pool.wait");
            }
        }
        match self.rx.recv() {
            Ok(outcome) => outcome,
            Err(_) => CompileOutcome::Failed("compiler pool shut down".into()),
        }
    }
}

#[derive(Debug, Default)]
struct Queue {
    /// Boxed: a job embeds its recording inline (~400 bytes) and queue
    /// slots churn.
    jobs: VecDeque<(Box<CompileJob>, Sender<CompileOutcome>)>,
    shutdown: bool,
    /// High-water mark of queued-but-not-taken jobs (diagnostics).
    peak_depth: usize,
    executed: u64,
}

#[derive(Debug)]
struct PoolShared {
    queue: Mutex<Queue>,
    cv: Condvar,
}

/// Pool-wide counters (see `docs/DIAGNOSTICS.md`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs a worker has finished (success or failure).
    pub executed: u64,
    /// Deepest the queue has been.
    pub peak_depth: usize,
    /// Jobs currently queued (not yet taken by a worker).
    pub queued: usize,
}

/// A pool of background compiler threads shared by any number of realms.
///
/// Dropping the pool shuts the workers down; in-flight tickets then
/// resolve to [`CompileOutcome::Failed`], which submitting monitors
/// absorb as site failures.
#[derive(Debug)]
pub struct CompilerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl CompilerPool {
    /// Spawns a pool with `nworkers` compiler threads (minimum 1).
    pub fn new(nworkers: usize) -> CompilerPool {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Queue::default()),
            cv: Condvar::new(),
        });
        let workers = (0..nworkers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tm-compile-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn compiler worker")
            })
            .collect();
        CompilerPool { shared, workers }
    }

    /// Enqueues `job`, returning the ticket its result will arrive on.
    pub fn submit(&self, job: CompileJob) -> Ticket {
        sched::yield_point("pool.submit");
        let (tx, rx) = channel();
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.jobs.push_back((Box::new(job), tx));
            q.peak_depth = q.peak_depth.max(q.jobs.len());
        }
        self.shared.cv.notify_one();
        sched::wake_all();
        Ticket { rx }
    }

    /// A snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        let q = self.shared.queue.lock().unwrap();
        PoolStats { executed: q.executed, peak_depth: q.peak_depth, queued: q.jobs.len() }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }
}

impl Drop for CompilerPool {
    fn drop(&mut self) {
        self.shared.queue.lock().unwrap().shutdown = true;
        self.shared.cv.notify_all();
        sched::wake_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        // Take one job, parking (schedule-aware) while the queue is idle.
        let next = loop {
            let mut q = shared.queue.lock().unwrap();
            if let Some(item) = q.jobs.pop_front() {
                drop(q);
                sched::yield_point("pool.take");
                break Some(item);
            }
            if q.shutdown {
                break None;
            }
            sched::pre_park("pool.park");
            let q2 = shared.cv.wait(q).unwrap();
            drop(q2);
            sched::post_park("pool.unpark");
        };
        let Some((job, tx)) = next else { return };
        let outcome = run_pipeline(*job);
        {
            let mut q = shared.queue.lock().unwrap();
            q.executed += 1;
        }
        sched::yield_point("pool.result");
        // The submitter may have vanished (program ended and the monitor
        // dropped the ticket); a send failure is fine.
        let _ = tx.send(outcome);
        sched::wake_all();
    }
}

/// The text of a caught panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic payload>")
}

/// [`compile_trace`] under a panic fence: a filter or backend defect
/// surfaces as [`CompileOutcome::Failed`], not a dead worker.
fn run_pipeline(job: CompileJob) -> CompileOutcome {
    let CompileJob { mut recorded, verify_base, opts } = job;
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        compile_trace(&mut recorded, &verify_base, &opts)
    }));
    match result {
        Ok(Ok(frag)) => CompileOutcome::Done {
            recorded: Box::new(recorded),
            fragment: Box::new(frag),
        },
        Ok(Err(msg)) => CompileOutcome::Failed(msg),
        Err(panic) => CompileOutcome::Failed(format!(
            "compile pipeline panicked: {}",
            panic_message(&*panic)
        )),
    }
}

/// Compile-time Send audit for the pool's moving parts: jobs and
/// outcomes cross threads by construction.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<CompileJob>();
    assert_send::<CompileOutcome>();
    assert_send::<Ticket>();
    assert_send::<CompilerPool>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_spawns_and_drops_cleanly() {
        let pool = CompilerPool::new(2);
        assert_eq!(pool.workers(), 2);
        assert_eq!(pool.stats().executed, 0);
        drop(pool);
    }

    #[test]
    fn minimum_one_worker() {
        let pool = CompilerPool::new(0);
        assert_eq!(pool.workers(), 1);
    }
}
