//! Deterministic thread-interleaving harness (the concurrency test rig).
//!
//! Concurrency bugs in the multi-tenant VM — a fragment published to the
//! shared code cache while another realm evicts, a compiler-pool result
//! installed while the submitting realm re-records — are schedule
//! dependent. Stress tests find them probabilistically; this module makes
//! them *reproducible*: a seeded cooperative scheduler serializes the
//! participating threads so that at most one runs at a time, and at every
//! instrumented **yield point** the next thread to run is chosen by a
//! [`TmRng`] seeded permutation. The observed interleaving is therefore a
//! pure function of the seed, and a failing seed is a regression test,
//! not a flake.
//!
//! ## How product code participates
//!
//! Code under test calls the ambient hooks, which are no-ops (one relaxed
//! atomic load) unless a schedule is armed **and** the calling thread is
//! a registered participant:
//!
//! * [`yield_point`]`("label")` — a possible context switch. Must be
//!   called *outside* any lock the other participants can block on.
//! * [`pre_park`]/[`post_park`] — wrapped around a real `Condvar` wait:
//!   `pre_park` surrenders the turn before blocking (the thread stops
//!   being runnable), `post_park` re-joins the schedule after waking.
//!   Call `post_park` only after releasing the lock the wait used.
//! * [`wake_all`] — called by a notifier right after `Condvar::notify_*`:
//!   marks parked participants runnable at a deterministic point.
//!
//! ## How tests drive it
//!
//! ```
//! use tm_support::sched::Schedule;
//!
//! let sched = Schedule::new(42, 2);
//! let a = {
//!     let s = sched.clone();
//!     std::thread::spawn(move || {
//!         let _p = s.attach(0);
//!         tm_support::sched::yield_point("step");
//!     })
//! };
//! let b = {
//!     let s = sched.clone();
//!     std::thread::spawn(move || {
//!         let _p = s.attach(1);
//!         tm_support::sched::yield_point("step");
//!     })
//! };
//! sched.start();
//! a.join().unwrap();
//! b.join().unwrap();
//! assert_eq!(sched.trace().len(), 6); // 2 attaches, 2 steps, 2 leaves
//! ```
//!
//! Only one schedule can be armed per process at a time ([`Schedule::start`]
//! panics otherwise); tests that use the rig must serialize on a mutex.
//! Unregistered threads (the rest of a concurrently running test binary)
//! never block: the ambient hooks ignore them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::TmRng;

/// How long a participant waits for its turn before declaring the
/// schedule wedged. A real deadlock in the code under test surfaces as a
/// panic naming the blocked label instead of a hung test binary.
const TURN_TIMEOUT: Duration = Duration::from_secs(10);

/// Fast ambient flag: true while some [`Schedule`] is armed. Lets the
/// production-code hooks cost one relaxed load when no rig is active.
static ARMED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// The schedule this thread participates in, if any.
    static PARTICIPANT: std::cell::RefCell<Option<(Arc<Core>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Run {
    /// Not yet attached (before [`Schedule::attach`]).
    Unborn,
    /// Eligible to be granted the turn.
    Runnable,
    /// Inside a real `Condvar` wait; not eligible until [`wake_all`].
    Parked,
    /// Left the schedule (normal exit or panic-unwind through the guard).
    Done,
}

#[derive(Debug)]
struct State {
    rng: TmRng,
    threads: Vec<Run>,
    /// Token currently allowed to run, or `None` before [`Schedule::start`]
    /// (and transiently while every live participant is parked).
    turn: Option<usize>,
    started: bool,
    trace: Vec<(usize, &'static str)>,
}

impl State {
    /// Picks the next turn among runnable participants with the seeded
    /// RNG. With no runnable participant the turn goes to `None` until a
    /// [`wake_all`] re-populates the runnable set.
    fn pick_next(&mut self) {
        let runnable: Vec<usize> = (0..self.threads.len())
            .filter(|&t| self.threads[t] == Run::Runnable)
            .collect();
        self.turn = match runnable.len() {
            0 => None,
            1 => Some(runnable[0]),
            n => Some(runnable[self.rng.gen_range(0..n)]),
        };
    }
}

#[derive(Debug)]
struct Core {
    state: Mutex<State>,
    cv: Condvar,
}

impl Core {
    /// Blocks until `tok` holds the turn. Panics after [`TURN_TIMEOUT`].
    fn wait_for_turn(&self, tok: usize, label: &'static str) {
        self.wait_for_turn_inner(tok, label, false);
    }

    /// Like [`Core::wait_for_turn`], but optionally also blocks while the
    /// schedule has not started yet (the attach barrier).
    fn wait_for_turn_inner(&self, tok: usize, label: &'static str, wait_for_start: bool) {
        let mut st = self.state.lock().unwrap();
        if wait_for_start {
            while !st.started {
                st = self.cv.wait(st).unwrap();
            }
        }
        while st.started && st.turn != Some(tok) && st.threads[tok] != Run::Done {
            let (next, timeout) = self.cv.wait_timeout(st, TURN_TIMEOUT).unwrap();
            st = next;
            if timeout.timed_out() && st.started && st.turn != Some(tok) {
                panic!(
                    "sched: thread {tok} starved waiting for its turn at \
                     '{label}' (turn = {:?}; deadlock in the code under test?)",
                    st.turn
                );
            }
        }
    }

    fn yield_point(&self, tok: usize, label: &'static str) {
        {
            let mut st = self.state.lock().unwrap();
            if !st.started {
                return;
            }
            st.trace.push((tok, label));
            st.pick_next();
            self.cv.notify_all();
        }
        self.wait_for_turn(tok, label);
    }
}

/// A seeded deterministic schedule over `nthreads` participants.
///
/// Cloning shares the schedule (it is an `Arc` internally).
#[derive(Debug, Clone)]
pub struct Schedule {
    core: Arc<Core>,
}

/// Participation guard returned by [`Schedule::attach`]: while alive the
/// current thread is scheduled; dropping it (including during a panic
/// unwind) removes the thread from the schedule and passes the turn on,
/// so one participant's failure cannot starve the others.
#[derive(Debug)]
pub struct Participant {
    core: Arc<Core>,
    tok: usize,
}

impl Drop for Participant {
    fn drop(&mut self) {
        PARTICIPANT.with(|p| *p.borrow_mut() = None);
        let mut st = self.core.state.lock().unwrap();
        st.threads[self.tok] = Run::Done;
        st.trace.push((self.tok, "leave"));
        if st.turn == Some(self.tok) || st.turn.is_none() {
            st.pick_next();
        }
        self.core.cv.notify_all();
    }
}

impl Schedule {
    /// Creates a schedule for `nthreads` participants with tokens
    /// `0..nthreads`, driven by `seed`.
    pub fn new(seed: u64, nthreads: usize) -> Schedule {
        Schedule {
            core: Arc::new(Core {
                state: Mutex::new(State {
                    rng: TmRng::seed_from_u64(seed),
                    threads: vec![Run::Unborn; nthreads],
                    turn: None,
                    started: false,
                    trace: Vec::new(),
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// Registers the current thread as participant `tok` and blocks until
    /// the schedule grants it the turn for the first time. Call from
    /// inside the spawned thread, before any work under test.
    pub fn attach(&self, tok: usize) -> Participant {
        {
            let mut st = self.core.state.lock().unwrap();
            assert!(st.threads[tok] == Run::Unborn, "token {tok} attached twice");
            st.threads[tok] = Run::Runnable;
            self.core.cv.notify_all();
        }
        PARTICIPANT.with(|p| *p.borrow_mut() = Some((Arc::clone(&self.core), tok)));
        self.core.wait_for_turn_inner(tok, "attach", true);
        Participant { core: Arc::clone(&self.core), tok }
    }

    /// Arms the schedule: waits for every participant to attach, picks
    /// the first turn with the seeded RNG, and releases the threads.
    /// Panics if another schedule is already armed in this process.
    pub fn start(&self) {
        assert!(
            !ARMED.swap(true, Ordering::SeqCst),
            "sched: another Schedule is already armed in this process"
        );
        let mut st = self.core.state.lock().unwrap();
        while st.threads.iter().any(|&t| t == Run::Unborn) {
            let (next, timeout) =
                self.core.cv.wait_timeout(st, TURN_TIMEOUT).unwrap();
            st = next;
            if timeout.timed_out() && st.threads.iter().any(|&t| t == Run::Unborn) {
                panic!("sched: not every participant attached");
            }
        }
        // Threads reach `attach` in whatever order the OS ran them; the
        // trace lists them in token order so it depends on the seed only.
        let n = st.threads.len();
        st.trace.extend((0..n).map(|tok| (tok, "attach")));
        st.started = true;
        st.pick_next();
        self.core.cv.notify_all();
    }

    /// Disarms and returns the observed interleaving: the `(token,
    /// label)` sequence of every attach, yield point, park transition,
    /// and leave, in schedule order. Call after joining the threads.
    pub fn finish(&self) -> Vec<(usize, &'static str)> {
        ARMED.store(false, Ordering::SeqCst);
        self.trace()
    }

    /// The interleaving observed so far.
    pub fn trace(&self) -> Vec<(usize, &'static str)> {
        self.core.state.lock().unwrap().trace.clone()
    }
}

/// Ambient yield point. No-op unless a schedule is armed and the calling
/// thread is a registered participant. See the module docs for the
/// locking rule: never call while holding a lock another participant can
/// block on.
pub fn yield_point(label: &'static str) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let part = PARTICIPANT.with(|p| p.borrow().clone());
    if let Some((core, tok)) = part {
        core.yield_point(tok, label);
    }
}

/// Ambient pre-wait hook: the calling participant stops being runnable
/// and passes the turn on. Call immediately before a `Condvar` wait.
pub fn pre_park(label: &'static str) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let part = PARTICIPANT.with(|p| p.borrow().clone());
    if let Some((core, tok)) = part {
        let mut st = core.state.lock().unwrap();
        if !st.started {
            return;
        }
        st.threads[tok] = Run::Parked;
        st.trace.push((tok, label));
        if st.turn == Some(tok) || st.turn.is_none() {
            st.pick_next();
        }
        core.cv.notify_all();
    }
}

/// Ambient post-wait hook: re-joins the schedule after a `Condvar` wait
/// returned. Call only after releasing the lock the wait used.
pub fn post_park(label: &'static str) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let part = PARTICIPANT.with(|p| p.borrow().clone());
    if let Some((core, tok)) = part {
        {
            let mut st = core.state.lock().unwrap();
            if !st.started {
                return;
            }
            st.threads[tok] = Run::Runnable;
            st.trace.push((tok, label));
            if st.turn.is_none() {
                st.pick_next();
            }
            core.cv.notify_all();
        }
        core.wait_for_turn(tok, label);
    }
}

/// Ambient notifier hook: marks every parked participant runnable, at
/// the notifier's (deterministic) program point. Call right after
/// `Condvar::notify_all`/`notify_one` on the condition the participants
/// wait on.
pub fn wake_all() {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let part = PARTICIPANT.with(|p| p.borrow().clone());
    if let Some((core, _tok)) = part {
        let mut st = core.state.lock().unwrap();
        for t in st.threads.iter_mut() {
            if *t == Run::Parked {
                *t = Run::Runnable;
            }
        }
        if st.turn.is_none() {
            st.pick_next();
        }
        core.cv.notify_all();
    }
}

/// Whether a schedule is currently armed (used by blocking code to pick
/// a spin-with-yield wait over a real blocking wait while under test).
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The rig is process-global; unit tests here serialize on this.
    static RIG: StdMutex<()> = StdMutex::new(());

    fn interleave(seed: u64) -> Vec<(usize, &'static str)> {
        let _g = RIG.lock().unwrap_or_else(|e| e.into_inner());
        let sched = Schedule::new(seed, 2);
        let mk = |tok: usize, s: Schedule| {
            std::thread::spawn(move || {
                let _p = s.attach(tok);
                for _ in 0..4 {
                    yield_point("work");
                }
            })
        };
        let a = mk(0, sched.clone());
        let b = mk(1, sched.clone());
        sched.start();
        a.join().unwrap();
        b.join().unwrap();
        sched.finish()
    }

    #[test]
    fn same_seed_same_interleaving() {
        let x = interleave(7);
        let y = interleave(7);
        assert_eq!(x, y);
        // Both threads ran all their yield points.
        assert_eq!(x.iter().filter(|e| e.1 == "work").count(), 8);
    }

    #[test]
    fn seeds_permute_the_schedule() {
        let distinct: std::collections::HashSet<Vec<(usize, &'static str)>> =
            (0..16).map(interleave).collect();
        assert!(distinct.len() > 1, "16 seeds must produce >1 interleaving");
    }

    #[test]
    fn unregistered_threads_ignore_the_hooks() {
        // No schedule armed (so none of the other tests may be mid-run):
        // all hooks are no-ops.
        let _g = RIG.lock().unwrap_or_else(|e| e.into_inner());
        yield_point("free");
        pre_park("free");
        post_park("free");
        wake_all();
        assert!(!armed());
    }

    #[test]
    fn park_wake_roundtrip() {
        let _g = RIG.lock().unwrap_or_else(|e| e.into_inner());
        let sched = Schedule::new(3, 2);
        let q: Arc<(StdMutex<Vec<u32>>, Condvar)> =
            Arc::new((StdMutex::new(Vec::new()), Condvar::new()));
        let consumer = {
            let (s, q) = (sched.clone(), Arc::clone(&q));
            std::thread::spawn(move || {
                let _p = s.attach(0);
                let item = loop {
                    let mut g = q.0.lock().unwrap();
                    if let Some(v) = g.pop() {
                        break v;
                    }
                    pre_park("consumer.park");
                    let g2 = q.1.wait(g).unwrap();
                    drop(g2);
                    post_park("consumer.wake");
                };
                assert_eq!(item, 99);
            })
        };
        let producer = {
            let (s, q) = (sched.clone(), Arc::clone(&q));
            std::thread::spawn(move || {
                let _p = s.attach(1);
                yield_point("producer.pre");
                q.0.lock().unwrap().push(99);
                q.1.notify_all();
                wake_all();
                yield_point("producer.post");
            })
        };
        sched.start();
        consumer.join().unwrap();
        producer.join().unwrap();
        sched.finish();
    }
}
