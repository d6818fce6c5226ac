//! The background compiler pool: trace compilation off the execution
//! thread.
//!
//! In the paper's TraceMonkey, compilation happens on the thread that
//! recorded the trace — acceptable when compiles are rare and the realm
//! is alone in the process. A multi-tenant VM wants the execution thread
//! back as soon as recording finishes: the realm keeps *interpreting*
//! while a worker runs the compile pipeline (backward filters →
//! register allocation → peephole fusion → fragment verification), and
//! the finished fragment is installed by the monitor at the next anchor
//! hit (see `Monitor::poll_compiles`). Until installation the loop
//! simply stays in the interpreter — semantically identical, just not
//! yet fast.
//!
//! A job carries the [`RecordedTrace`] by value and returns it alongside
//! the compiled [`Fragment`]; the monitor needs the (filtered) recording
//! back to build the tree (entry maps, exits, oracle marks). Results are
//! handed off on a per-job channel ([`Ticket`]), so a pool can serve any
//! number of realms without routing state. Compile jobs are the pool's
//! only job kind: native code is emitted one fragment at a time — a
//! single linear pass, comparable to `assemble` — by the thread that
//! installs the fragment (`Monitor::install_branch`).
//!
//! A compile-pipeline panic (a filter or backend defect) is caught in
//! the worker and surfaces as [`CompileOutcome::Failed`]; the submitting
//! monitor treats it like a recording abort (the §3.3 failure budget),
//! so one realm's miscompile cannot take down the process — matching the
//! sync path's behaviour of failing that site, not the VM.
//!
//! Determinism: the interleaving test rig drives the handoff through
//! `tm_support::sched` yield points (`pool.submit`, `pool.take`,
//! `pool.result`, `pool.wait`); see `docs/TESTING.md`.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use tm_lir::{run_backward_filters, ArSlot, ExitLiveness, LirType};
use tm_nanojit::{assemble, Fragment};
use tm_support::sched;

use crate::config::JitOptions;
use crate::exit::SideExitInfo;
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

/// The compile pipeline, written once for both callers (the monitor's
/// synchronous `compile_fragment` and the pool worker): backward filters,
/// the post-filter trace verification, assembly, and the backend
/// fragment verification. `Err` is a verifier rejection; what to do with
/// it (panic on the execution thread, fail the job on a worker) is the
/// caller's policy.
pub(crate) fn compile_trace(
    recorded: &mut RecordedTrace,
    verify_base: &[(ArSlot, LirType)],
    opts: &JitOptions,
) -> Result<Fragment, String> {
    let liveness = ExitLiveness {
        live_slots: recorded.exits.iter().map(SideExitInfo::live_slots).collect(),
    };
    run_backward_filters(&mut recorded.lir, &liveness, &recorded.loop_live);
    if opts.verify {
        // The recorder's output was already verified; what is handed to
        // the backend is re-checked so a backward-filter defect (bad id
        // compaction, dropped store an exit needs) surfaces here instead
        // of as compiled garbage.
        recorded
            .verify(verify_base)
            .map_err(|err| format!("backward filters produced a malformed trace: {err}"))?;
    }
    let frag = assemble(&recorded.lir);
    if opts.verify {
        // Backend output check: register allocation must hand both tiers
        // structurally sound code, addressing only the activation record
        // the recording laid out.
        tm_verifier::verify_fragment(&frag, recorded.layout.len())
            .map_err(|err| format!("backend produced a malformed fragment: {err}"))?;
    }
    Ok(frag)
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
