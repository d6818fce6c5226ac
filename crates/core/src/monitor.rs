//! The trace monitor: the state machine of the paper's Figure 2.
//!
//! The interpreter returns control here at every (unpatched) loop header.
//! The monitor counts hotness, starts and drives recordings, enters
//! compiled trees and leaves them at side exits (the state transfer
//! itself is [`crate::activation`]'s), grows trace trees at hot side
//! exits, links type-unstable siblings (Figure 6), runs trees — for
//! itself and for [`crate::nest`]'s nested calls (§4) — and applies
//! blacklisting with nesting forgiveness (§3.3, §4.2).
//!
//! A recording, of a root or of a branch, is driven by one function
//! (`Monitor::record`); what turns a finished one into code in its
//! tree, on this thread or on the compiler pool, is the child module
//! `install` (`monitor/install.rs`).

mod install;

use std::collections::HashSet;
use std::sync::Arc;

use tm_bytecode::FuncId;
use tm_interp::{Flow, Interp, RunExit};
use tm_lir::{ArSlot, LirType};
use tm_nanojit::{TraceExit, EXIT_UNSTITCHED};
use tm_runtime::{Realm, RuntimeError, Value};

use crate::activation::{export, import, ArPool, SlotBinding};
use crate::blacklist::{Blacklist, Verdict, MAX_FAILURES};
use crate::config::JitOptions;
use crate::events::{AbortReason, EventLog, TraceEvent};
use crate::exit::ExitKind;
use crate::nest::{NestHost, NestObserver};
use crate::oracle::Oracle;
use crate::pool::{CompilerPool, Ticket};
use crate::profiler::{Activity, Profiler};
use crate::recorder::{RecordAction, Recorder};
use crate::shared_cache::{SharedCodeCache, SharedKey};
use crate::tree::{Anchor, ExecCode, NestedSite, TraceTree, TreeCache, TreeCode, TreeId};

pub(crate) use install::compile_trace;

/// Loop-header crossings before a loop is hot and gets recorded (paper: 2).
pub const HOTNESS_THRESHOLD: u32 = 2;

/// Passes through a side exit before a branch trace is recorded there
/// (paper: the second taking of an exit makes it hot).
pub const HOT_EXIT_THRESHOLD: u32 = 2;

/// Maximum sibling trees per loop header before the monitor stops
/// recording new type-permutation trees.
const MAX_SIBLING_TREES: usize = 8;

/// Maximum fragments per tree (bounds code-cache growth).
const MAX_FRAGMENTS_PER_TREE: usize = 32;

/// §3.3 short-loop mitigation (proposed in the paper as future work): a
/// tree is disabled when, after `USELESS_PROBATION` entries, its average
/// native bytecodes per entry stays below `MIN_USEFUL_BYTECODES`.
const MIN_USEFUL_BYTECODES: u64 = 120;
const USELESS_PROBATION: u64 = 64;

/// Whether an abort reason is *provisional* (demote-only): it counts
/// toward the per-site failure budget but remains eligible for §4.2
/// nesting forgiveness instead of permanently condemning the site.
/// `InnerTreeNotReady`/`InnerTreeCallFailed` mean an inner tree was not
/// compiled (or misbehaved) *yet*; every other reason is hard.
pub fn abort_is_provisional(reason: &AbortReason) -> bool {
    matches!(reason, AbortReason::InnerTreeNotReady | AbortReason::InnerTreeCallFailed)
}

/// The pc range `[header, end)` of the anchor's loop: a recording that
/// leaves it at the anchor's frame ends the trace.
fn anchor_range(anchor: Anchor, interp: &Interp) -> (u32, u32) {
    let f = interp.prog().function(anchor.func);
    let l = f.loop_with_header(anchor.pc).expect("anchor is a loop header");
    (l.header, l.end)
}

/// Inline monitor state for one loop header.
///
/// Slots live in a dense per-function table indexed by [`LoopId`], so the
/// per-loop-edge work for a warm loop — find a matching compiled tree, or
/// tick the hotness counter — is bounds-checked array indexing with no
/// hashing (the in-memory analogue of the paper's §3.3 bytecode patching,
/// which already removes *blacklisted* headers from the monitor's view).
#[derive(Debug, Clone, Default)]
pub(crate) struct MonitorSlot {
    /// Hotness counter; meaningful only until the loop compiles or is
    /// silenced, after which the state is simply never consulted again.
    hotness: u32,
    /// Sibling trees anchored at this header, in creation order (one per
    /// entry type map; several when the loop is type-unstable, Figure 6).
    pub(crate) trees: Vec<TreeId>,
    /// The header was patched to `Nop` (blacklist / sibling overflow): the
    /// interpreter never reports this loop again, and the monitor must
    /// never touch the slot again either.
    pub(crate) silenced: bool,
}

/// The trace monitor.
#[derive(Debug)]
pub struct Monitor {
    /// Compiled trees.
    pub cache: TreeCache,
    /// Blacklist/backoff table.
    pub blacklist: Blacklist,
    /// Integer-demotion oracle.
    pub oracle: Oracle,
    /// Activity profiler (Figures 11/12).
    pub profiler: Profiler,
    /// Trace-event log.
    pub events: EventLog,
    pub(crate) opts: JitOptions,
    /// Dense per-function loop-header monitor state, indexed
    /// `[func][loop_id]`; sized from the installed program on entry to
    /// [`Monitor::run_program`].
    pub(crate) slots: Vec<Vec<MonitorSlot>>,
    /// Activation records not in use.
    pub(crate) ars: ArPool,
    /// Completion value captured when the program finished while a
    /// recording was shadowing execution.
    finished_during_recording: Option<Value>,
    /// The process-wide shared code cache and this program's key in it,
    /// when attached (multi-tenant hosts; see [`Monitor::attach_shared`]).
    shared: Option<(Arc<SharedCodeCache>, SharedKey)>,
    /// Sibling digests already installed from (or published to) the
    /// shared cache, so repeated probes never install duplicates.
    shared_seen: HashSet<u64>,
    /// Background compiler pool, when attached ([`Monitor::attach_pool`]).
    pool: Option<Arc<CompilerPool>>,
    /// In-flight background compiles, landed at a later anchor hit. What
    /// is compiling is a query over it ([`Monitor::compiling`]): an anchor
    /// whose root compiles is not recorded again, nor a branch of a tree
    /// with one compiling.
    in_flight: Vec<PendingCompile>,
    /// Test support: sees nested calls' returns and links
    /// ([`crate::vm::Vm::observe_nesting`]).
    pub(crate) observer: Option<NestObserver>,
}

/// One background compile the monitor is waiting on.
#[derive(Debug)]
struct PendingCompile {
    ticket: Ticket,
    target: Target,
}

/// What a recording grows: a new tree at a loop header, or a branch
/// stitched to exit `.2` of fragment `.1` of tree `.0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    Root(Anchor),
    Branch(TreeId, u32, u16),
}

/// A tree entered but not yet run: the handle on its code, the
/// activation record filled from interpreter state (or, for a nested
/// call, from the calling trace's record) and the interpreter frame its
/// slot keys are relative to.
pub(crate) struct Entered {
    pub(crate) tid: TreeId,
    pub(crate) code: Arc<TreeCode>,
    pub(crate) ar: Vec<u64>,
    pub(crate) frame: usize,
}

/// The exit a tree run came back through. `out_of_fuel`: the step budget
/// ran out on the way, and the caller owes a `StepBudgetExhausted`.
/// `inner_exit`: the run left through a `NestedUnexpected` exit because
/// the inner tree took this `(tree, fragment, exit)` instead of the one
/// its site expects (§4.1). `bytecodes`: the trunk bytecodes its loop
/// iterations ran, what §3.3 probation counts.
pub(crate) struct Ran {
    pub(crate) frag: u32,
    pub(crate) exit: u16,
    pub(crate) out_of_fuel: bool,
    pub(crate) inner_exit: Option<(TreeId, u32, u16)>,
    pub(crate) bytecodes: u64,
}

impl Monitor {
    /// Creates a monitor with the given configuration.
    pub fn new(opts: JitOptions) -> Monitor {
        Monitor {
            cache: TreeCache::new(),
            blacklist: Blacklist::new(),
            oracle: Oracle::new(),
            profiler: Profiler::new(opts.profile),
            events: {
                let mut log = EventLog::new();
                log.enabled = opts.log_events;
                log
            },
            opts,
            slots: Vec::new(),
            ars: ArPool::default(),
            finished_during_recording: None,
            shared: None,
            shared_seen: HashSet::new(),
            pool: None,
            in_flight: Vec::new(),
            observer: None,
        }
    }

    /// The configuration.
    pub fn options(&self) -> &JitOptions {
        &self.opts
    }

    /// Attaches the process-wide shared code cache: compiled trees this
    /// monitor produces are published under `key`, and hot anchors probe
    /// the cache before recording (the multi-tenant fragment dedup).
    pub fn attach_shared(&mut self, cache: Arc<SharedCodeCache>, key: SharedKey) {
        self.shared = Some((cache, key));
    }

    /// Attaches a background compiler pool: finished recordings are
    /// compiled off-thread and installed at the next anchor hit, while
    /// the realm keeps interpreting. Without a pool (or with
    /// [`JitOptions::background_compile`] off) compilation is
    /// synchronous, exactly as before.
    pub fn attach_pool(&mut self, pool: Arc<CompilerPool>) {
        self.pool = Some(pool);
    }

    /// Whether a background compile for a target `pick` accepts is in
    /// flight.
    fn compiling(&self, pick: impl Fn(Target) -> bool) -> bool {
        self.in_flight.iter().any(|p| pick(p.target))
    }

    /// Runs a program under mixed-mode execution until completion.
    ///
    /// # Errors
    ///
    /// Propagates guest [`RuntimeError`]s.
    pub fn run_program(
        &mut self,
        interp: &mut Interp,
        realm: &mut Realm,
    ) -> Result<Value, RuntimeError> {
        interp.monitor_enabled = true;
        self.ensure_slots(interp);
        self.profiler.switch(Activity::Interpret);
        let result = loop {
            match interp.run(realm) {
                Ok(RunExit::Finished(v)) => break Ok(v),
                Ok(RunExit::LoopEdge { func, header_pc, loop_id }) => {
                    self.profiler.switch(Activity::Monitor);
                    let anchor = Anchor::loop_header(func, header_pc, loop_id);
                    if let Err(e) = self.on_loop_edge(anchor, interp, realm) {
                        break Err(e);
                    }
                    if let Some(v) = self.finished_during_recording.take() {
                        break Ok(v);
                    }
                    self.profiler.switch(Activity::Interpret);
                }
                Err(e) => break Err(e),
            }
        };
        self.poll_compiles(true, interp);
        self.profiler.stats.bytecodes_interp = interp.ops_executed
            - self.profiler.stats.bytecodes_recorded;
        self.profiler.stats.ic = interp.ic_stats;
        self.profiler.stop();
        result
    }

    /// The monitor slot of `anchor`'s loop.
    fn slot_mut(&mut self, anchor: Anchor) -> &mut MonitorSlot {
        &mut self.slots[anchor.func.0 as usize][anchor.loop_id.0 as usize]
    }

    /// Sizes the dense slot table to the installed program: one slot per
    /// loop per function. Idempotent; re-running the same interpreter
    /// keeps accumulated state.
    pub(crate) fn ensure_slots(&mut self, interp: &Interp) {
        let prog = interp.prog();
        if self.slots.len() < prog.functions.len() {
            self.slots.resize_with(prog.functions.len(), Vec::new);
        }
        for (f, slots) in self.slots.iter_mut().enumerate() {
            let nslots = prog.functions[f].loops.len();
            if slots.len() < nslots {
                slots.resize_with(nslots, MonitorSlot::default);
            }
        }
    }

    /// Enters tree `tid` at its trunk: builds the activation record from
    /// interpreter state. `None` when the tree's entry type map doesn't
    /// match it — the type-map check and the unboxing are one pass.
    fn enter_tree(
        cache: &TreeCache,
        ars: &mut ArPool,
        tid: TreeId,
        interp: &Interp,
        realm: &Realm,
    ) -> Option<Entered> {
        let code = &cache.tree(tid).code;
        let frame = interp.frames.len() - 1;
        let mut ar = ars.take(code.layout.len());
        if import(&code.entry, interp, realm, frame, &mut ar) {
            return Some(Entered { tid, code: Arc::clone(code), ar, frame });
        }
        ars.give(ar);
        None
    }

    /// The trace-cache probe of §6.1 through the anchor's dense monitor
    /// slot (no hash lookup), for a `nested` call (§4.1) or a monitor run,
    /// either at its start or at the link a type-unstable exit of `from`
    /// takes (Figure 6). Enabled siblings come first, then the disabled
    /// ones, which only a nested call enters: §3.3 disables a tree whose
    /// entries from the monitor cost more in transitions than they run,
    /// and a call from an outer tree pays none. `from` comes last: the
    /// state its exit left enters it again only where a double it left
    /// is integral, which the interpreter holds as an int.
    pub(crate) fn enter_sibling(
        &mut self,
        anchor: Anchor,
        from: Option<TreeId>,
        nested: bool,
        interp: &Interp,
        realm: &Realm,
    ) -> Option<Entered> {
        let other = |t: &TraceTree| Some(t.id) != from;
        let picks: [&dyn Fn(&TraceTree) -> bool; 3] = [
            &|t| other(t) && !t.disabled,
            &|t| other(t) && t.disabled && nested,
            &|t| !other(t) && (nested || !t.disabled),
        ];
        let slot = &self.slots[anchor.func.0 as usize][anchor.loop_id.0 as usize];
        picks.iter().find_map(|pick| {
            slot.trees
                .iter()
                .filter(|&&tid| pick(self.cache.tree(tid)))
                .find_map(|&tid| Self::enter_tree(&self.cache, &mut self.ars, tid, interp, realm))
        })
    }

    /// Handles one loop-edge crossing. A program that finished during a
    /// recording leaves its value in `finished_during_recording`.
    fn on_loop_edge(
        &mut self,
        anchor: Anchor,
        interp: &mut Interp,
        realm: &mut Realm,
    ) -> Result<(), RuntimeError> {
        // 0. Background-compiled fragments ready? Land them now — the
        // "next anchor hit" of the compiler-pool handoff. Cheap when
        // nothing is in flight (a Vec emptiness check).
        if !self.in_flight.is_empty() {
            self.poll_compiles(false, interp);
        }

        // 1. A matching compiled tree? Enter it. Pure dense-slot work.
        if let Some(entered) = self.enter_sibling(anchor, None, false, interp, realm) {
            self.profiler.stats.monitor_slot_fast += 1;
            return self.run_tree(entered, interp, realm);
        }

        // 2. Hotness counting: an inline counter in the loop's slot.
        {
            let slot =
                &mut self.slots[anchor.func.0 as usize][anchor.loop_id.0 as usize];
            debug_assert!(!slot.silenced, "silenced headers are patched to Nop");
            slot.hotness += 1;
            if slot.hotness < HOTNESS_THRESHOLD {
                self.profiler.stats.monitor_slot_fast += 1;
                return Ok(());
            }
        }

        // Past the threshold: the slow machinery (sibling policy, backoff
        // tables, recording). Warm loops never reach this point again.
        self.profiler.stats.monitor_slot_slow += 1;
        if self.compiling(|t| t == Target::Root(anchor)) {
            // A root trace for this anchor is compiling in the background;
            // keep interpreting until it lands.
            return Ok(());
        }
        let slot = &self.slots[anchor.func.0 as usize][anchor.loop_id.0 as usize];
        if slot.trees.len() >= MAX_SIBLING_TREES {
            if slot.trees.iter().all(|&t| self.cache.tree(t).disabled) {
                // Every type permutation of this loop proved unprofitable:
                // silence the monitor permanently (§3.3).
                self.silence_header(anchor, interp);
            }
            return Ok(());
        }
        let judged = slot.trees.iter().filter(|&&t| judged(self.cache.tree(t), &self.oracle));
        for &tid in judged {
            if let Some(e) = Self::enter_tree(&self.cache, &mut self.ars, tid, interp, realm) {
                // §3.3 already judged this type map: a new recording
                // would only repeat it.
                self.ars.give(e.ar);
                return Ok(());
            }
        }

        // 3. Blacklist / backoff.
        match self.blacklist.check((anchor.func, anchor.pc)) {
            Verdict::Blacklisted => {
                self.silence_header(anchor, interp);
                return Ok(());
            }
            Verdict::Skip => return Ok(()),
            Verdict::Record => {}
        }

        // 3.5. Before paying to record: did another realm already compile
        // this anchor? Install every new shared-cache sibling and enter
        // one if it matches the current types.
        if self.try_shared_install(anchor) {
            if let Some(entered) = self.enter_sibling(anchor, None, false, interp, realm) {
                return self.run_tree(entered, interp, realm);
            }
        }

        // 4. Record a root trace.
        self.events.push(TraceEvent::RecordStartRoot { func: anchor.func, pc: anchor.pc });
        let range = anchor_range(anchor, interp);
        let rec = Recorder::new_root(anchor, range, interp, realm);
        self.record(Target::Root(anchor), rec, Vec::new(), interp, realm)
    }

    /// Drives `rec`, a recording for `target`, to its end. A finished
    /// trace is verified against `verify_base` (the state a branch enters
    /// with; empty for a root), then compiled and landed; an abort is
    /// charged to `target`. The program finishing on the way leaves its
    /// value in `finished_during_recording`.
    fn record(
        &mut self,
        target: Target,
        mut rec: Recorder,
        verify_base: Vec<(ArSlot, LirType)>,
        interp: &mut Interp,
        realm: &mut Realm,
    ) -> Result<(), RuntimeError> {
        self.profiler.switch(Activity::Record);
        let rec_start_ops = interp.ops_executed;
        let outcome = self.record_loop(&mut rec, interp, realm);
        self.profiler.stats.bytecodes_recorded += interp.ops_executed - rec_start_ops;
        self.profiler.switch(Activity::Monitor);
        match outcome {
            Ok(()) => {
                let recorded = rec.into_recorded();
                let verified =
                    if self.opts.verify { recorded.verify(&verify_base) } else { Ok(()) };
                match verified {
                    Ok(()) => self.compile(target, recorded, verify_base, interp),
                    Err(err) => self.fail(target, AbortReason::VerifyFailed(err), None, interp),
                }
            }
            Err(RecordError::Abort(reason)) => self.fail(target, reason, rec.last_inner(), interp),
            Err(RecordError::Guest(e)) => return Err(e),
            Err(RecordError::ProgramFinished(v)) => self.finished_during_recording = Some(v),
        }
        Ok(())
    }

    /// Counts a failed recording or compile for `target`. A root charges
    /// its loop header in the blacklist; a provisional abort is charged
    /// to the inner loop header it reached last, the one it `waited_on`
    /// (§4.2). A branch charges its side exit, which at the blacklist
    /// threshold stops being extended; its hotness counter is cleared so
    /// dead exits don't keep live state around.
    fn fail(
        &mut self,
        target: Target,
        reason: AbortReason,
        waited_on: Option<(FuncId, u32)>,
        interp: &mut Interp,
    ) {
        self.events.push(TraceEvent::RecordAbort { reason });
        self.profiler.stats.traces_aborted += 1;
        match target {
            Target::Root(anchor) => {
                let waited_on = waited_on.filter(|_| abort_is_provisional(&reason));
                if self.blacklist.record_failure((anchor.func, anchor.pc), waited_on) {
                    self.silence_header(anchor, interp);
                }
            }
            Target::Branch(tid, frag, exit) => {
                let st = self.cache.tree_mut(tid).exit_state_mut(frag, exit);
                st.failures += 1;
                if st.failures >= MAX_FAILURES {
                    st.counter = 0;
                }
            }
        }
    }

    /// Silences the anchor permanently: its loop header is patched to
    /// `Nop` and its monitor slot is marked silenced — neither the
    /// interpreter nor the monitor will ever touch this anchor again.
    pub(crate) fn silence_header(&mut self, anchor: Anchor, interp: &mut Interp) {
        interp.patch_loop_header(anchor.func, anchor.pc);
        self.slot_mut(anchor).silenced = true;
        self.events.push(TraceEvent::Blacklist { func: anchor.func, pc: anchor.pc });
    }

    /// Steps the interpreter through a recording until the recorder ends
    /// it.
    fn record_loop(
        &mut self,
        rec: &mut Recorder,
        interp: &mut Interp,
        realm: &mut Realm,
    ) -> Result<(), RecordError> {
        loop {
            match rec.record_op(interp, realm, &self.oracle) {
                RecordAction::Step { observe } => {
                    step(interp, realm)?;
                    if observe {
                        rec.after_step(interp, realm);
                    }
                }
                RecordAction::Finished => {
                    self.profiler.stats.traces_completed += 1;
                    return Ok(());
                }
                RecordAction::Abort(reason) => return Err(RecordError::Abort(reason)),
                RecordAction::InnerLoop { func, pc, loop_id } => {
                    // The step that brought us to the inner header was the
                    // LoopHeader op, which the recorder never steps: the
                    // nested call advances the interpreter.
                    let inner = Anchor::loop_header(func, pc, loop_id);
                    self.handle_inner_loop(rec, inner, interp, realm)?;
                }
            }
        }
    }

    /// Attempts a nested tree call while recording (§4.1).
    fn handle_inner_loop(
        &mut self,
        rec: &mut Recorder,
        inner_anchor: Anchor,
        interp: &mut Interp,
        realm: &mut Realm,
    ) -> Result<(), RecordError> {
        let Some(mut entered) = self.enter_sibling(inner_anchor, None, true, interp, realm) else {
            // "We simply abort recording the first trace. The trace
            // monitor will see the inner loop header, and will immediately
            // start recording the inner loop."
            return Err(RecordError::Abort(AbortReason::InnerTreeNotReady));
        };
        rec.begin_nested(inner_anchor.pc);
        // The LoopHeader op at the inner header has *not* been stepped;
        // step past it so interpreter state matches a normal tree entry.
        step(interp, realm)?;
        let inner = entered.tid;
        self.events.push(TraceEvent::NestedCall { tree: inner.0 });
        loop {
            let (tid, code) = (entered.tid, Arc::clone(&entered.code));
            // `ran.inner_exit` is not grown from here: the recording aborts.
            let (ran, kind) =
                self.execute_tree(entered, interp, realm).map_err(RecordError::Guest)?;
            if kind == ExitKind::Unstable {
                // Figure 6 inside the call: go on in the sibling the
                // exit state enters, as `run_tree` does.
                let next = self.enter_sibling(inner_anchor, Some(tid), true, interp, realm);
                if let Some(next) = next {
                    entered = next;
                    continue;
                }
            }
            let exit = &code.exits[ran.frag as usize][ran.exit as usize];
            if !matches!(kind, ExitKind::Branch | ExitKind::LeaveLoop) || exit.frames.len() != 1 {
                rec.cancel_nested();
                return Err(RecordError::Abort(AbortReason::InnerTreeCallFailed));
            }
            rec.finish_nested_with_stack(inner, tid, exit, (ran.frag, ran.exit), interp);
            return Ok(());
        }
    }

    /// The state a branch fragment stitched to `(parent_frag,
    /// parent_exit)` starts from: everything the parent exit's type map
    /// describes plus the tree's entry slots. The entry base for trace
    /// verification.
    fn branch_parent_reqs(
        &self,
        tid: TreeId,
        parent_frag: u32,
        parent_exit: u16,
    ) -> Vec<SlotBinding> {
        let tree = self.cache.tree(tid);
        let mut reqs = tree.exits[parent_frag as usize][parent_exit as usize]
            .typemap
            .clone();
        for e in &tree.entry {
            if !reqs.iter().any(|r| r.ar == e.ar) {
                reqs.push(*e);
            }
        }
        reqs
    }

    // ==== tree execution ====

    /// Runs a tree from the monitor, handling exits, branch extension, and
    /// type-stability transfers until control must return to the
    /// interpreter.
    fn run_tree(
        &mut self,
        mut entered: Entered,
        interp: &mut Interp,
        realm: &mut Realm,
    ) -> Result<(), RuntimeError> {
        let mut transfers = 0usize;
        // §3.3 probation charges a chain of sibling links to the tree the
        // monitor entered, as one entry.
        let (mut first, mut chain_bytecodes) = (entered.tid, 0);
        loop {
            let (tid, anchor) = (entered.tid, entered.code.anchor);
            self.events.push(TraceEvent::EnterTree { tree: tid.0 });
            let (ran, kind) = self.execute_tree(entered, interp, realm)?;
            let (frag, exit) = (ran.frag, ran.exit);
            chain_bytecodes += ran.bytecodes;
            if kind == ExitKind::Unstable {
                // Figure 6: look for a sibling tree whose entry map
                // matches the exit state.
                if let Some(next) = self.enter_sibling(anchor, Some(tid), false, interp, realm) {
                    transfers += 1;
                    if transfers < 1_000_000 {
                        if next.tid == tid {
                            // The state the tree left enters it again: no
                            // sibling link, another entry of its own.
                            self.charge_entry(first, chain_bytecodes);
                            (first, chain_bytecodes) = (tid, 0);
                        } else {
                            self.events.push(TraceEvent::StableTransfer {
                                from_tree: tid.0,
                                to_tree: next.tid.0,
                            });
                        }
                        entered = next;
                        continue;
                    }
                    self.ars.give(next.ar);
                }
            }
            self.charge_entry(first, chain_bytecodes);
            match kind {
                ExitKind::LoopEdge => {
                    // Preemption or pending GC at the loop edge (§6.4).
                    if realm.heap.gc_pending || realm.heap.should_collect() {
                        let roots = interp.roots();
                        realm.collect_garbage(&roots);
                    }
                    if realm.interrupt {
                        return Err(RuntimeError::Interrupted);
                    }
                    // Re-enter if still matching (the common case).
                    match self.enter_sibling(anchor, None, false, interp, realm) {
                        Some(next) => {
                            (first, chain_bytecodes) = (next.tid, 0);
                            entered = next;
                        }
                        None => return Ok(()),
                    }
                }
                ExitKind::Branch => {
                    self.maybe_extend(tid, frag, exit, interp, realm)?;
                    return Ok(());
                }
                ExitKind::NestedUnexpected => {
                    // §4.1: "we simply exit the outer trace and start
                    // recording a new branch in the inner tree."
                    if let Some((itid, ifrag, iexit)) = ran.inner_exit {
                        let ikind =
                            self.cache.tree(itid).exits[ifrag as usize][iexit as usize].kind;
                        if ikind == ExitKind::Branch {
                            self.maybe_extend(itid, ifrag, iexit, interp, realm)?;
                        }
                    }
                    return Ok(());
                }
                ExitKind::Unstable | ExitKind::LeaveLoop | ExitKind::DeepBail => return Ok(()),
            }
        }
    }

    /// Charges one monitor entry of `tid` whose run, sibling chain
    /// included, executed `bytecodes` trunk bytecodes natively, and
    /// applies the §3.3 short-loop mitigation: a tree whose entries
    /// execute too few bytecodes costs more in transitions than it saves;
    /// disable it.
    fn charge_entry(&mut self, tid: TreeId, bytecodes: u64) {
        let stats = &mut self.cache.tree_mut(tid).stats;
        stats.enters += 1;
        stats.native_bytecodes += bytecodes;
        let useless = stats.enters >= USELESS_PROBATION
            && stats.native_bytecodes / stats.enters < MIN_USEFUL_BYTECODES;
        if !useless || self.cache.tree(tid).disabled {
            return;
        }
        // The monitor never enters the tree again; only a nested-call site
        // recorded earlier still can. With no such site the machine code
        // is dead: give it back.
        let still_called = self.is_nested_callee(tid);
        let tree = self.cache.tree_mut(tid);
        tree.disabled = true;
        if !still_called {
            tree.exec = ExecCode::NotBuilt;
        }
    }

    /// Counts a side exit and records a branch trace when it becomes hot.
    fn maybe_extend(
        &mut self,
        tid: TreeId,
        frag: u32,
        exit: u16,
        interp: &mut Interp,
        realm: &mut Realm,
    ) -> Result<(), RuntimeError> {
        if self.compiling(|t| matches!(t, Target::Branch(b, ..) if b == tid)) {
            // A branch of this tree is already compiling in the
            // background. Branch recordings extend the tree's AR layout
            // from its current state, so two in-flight branches of one
            // tree would both extend the *same* base layout and the
            // second install would clobber the first's slots (observed as
            // out-of-bounds AR accesses). One in-flight branch per tree.
            return Ok(());
        }
        {
            let tree = self.cache.tree_mut(tid);
            if tree.fragments.len() >= MAX_FRAGMENTS_PER_TREE {
                return Ok(());
            }
            if tree.fragments[frag as usize].stitch[exit as usize] != EXIT_UNSTITCHED {
                // Already extended since the exit was taken.
                return Ok(());
            }
            let st = tree.exit_state_mut(frag, exit);
            if st.failures >= MAX_FAILURES {
                return Ok(());
            }
            st.counter += 1;
            if st.counter < HOT_EXIT_THRESHOLD {
                return Ok(());
            }
        }
        // §4.1: an exit some nested-call site expects is the return
        // contract of every outer tree calling this one. Stitching a
        // branch there would carry the inner tree straight past the exit
        // the callers guard on, so every nested call would side-exit
        // (`NestedUnexpected`) and §3.3 would disable the callers one by
        // one. Refuse, permanently.
        if self.exit_is_nested_contract(tid, frag, exit) {
            let st = self.cache.tree_mut(tid).exit_state_mut(frag, exit);
            st.failures = MAX_FAILURES;
            st.counter = 0;
            return Ok(());
        }
        // A hot integer-overflow guard means the int speculation at that
        // arithmetic site keeps failing: demote it (§3.2's oracle, applied
        // per site) so future recordings take the double path directly.
        if let Some(site) =
            self.cache.tree(tid).exits[frag as usize][exit as usize].arith_site
        {
            self.oracle.mark_site(site);
        }
        let anchor = self.cache.tree(tid).anchor;
        self.events.push(TraceEvent::RecordStartBranch { func: anchor.func, pc: anchor.pc });
        let tree = self.cache.tree(tid);
        let rec = Recorder::new_branch(
            anchor,
            anchor_range(anchor, interp),
            tree.layout.clone(),
            tree.entry.clone(),
            &tree.exits[frag as usize][exit as usize],
            tree.nested_sites.len() as u32,
            interp,
        );
        // The branch fragment enters with everything the parent path
        // established (its exit type map) plus the tree's entry slots —
        // the base state the verifier checks imports and exit maps
        // against.
        let verify_base = if self.opts.verify {
            self.branch_parent_reqs(tid, frag, exit).iter().map(|b| (b.ar, b.ty)).collect()
        } else {
            Vec::new()
        };
        self.record(Target::Branch(tid, frag, exit), rec, verify_base, interp, realm)
    }

    /// Whether `(frag, exit)` of tree `tid` is the `expected_exit` of any
    /// nested-call site — i.e. an exit outer trees rely on the inner tree
    /// returning through. Such exits must never be stitched.
    fn exit_is_nested_contract(&self, tid: TreeId, frag: u32, exit: u16) -> bool {
        self.cache.iter().any(|t| {
            t.nested_sites
                .iter()
                .any(|s| s.returns == tid && s.expected_exit == (frag, exit))
        })
    }

    /// Runs an entered tree from the monitor and restores interpreter
    /// state at the exit it took.
    fn execute_tree(
        &mut self,
        mut entered: Entered,
        interp: &mut Interp,
        realm: &mut Realm,
    ) -> Result<(Ran, ExitKind), RuntimeError> {
        let ran = self.run_entered(&mut entered, interp, realm)?;
        let kind = self.settle(&entered.code, &entered.ar, entered.frame, &ran, interp, realm);
        self.ars.give(entered.ar);
        kind.map(|kind| (ran, kind))
    }

    /// Runs an entered tree from its trunk and does the bookkeeping
    /// of one trace enter; interpreter state is the caller's to restore
    /// ([`Monitor::settle`], or a nested site's transfer plan). Every read
    /// of the tree's code goes through the handle taken at entry — the
    /// nesting host needs `&mut self` while the run is in progress.
    pub(crate) fn run_entered(
        &mut self,
        entered: &mut Entered,
        interp: &mut Interp,
        realm: &mut Realm,
    ) -> Result<Ran, RuntimeError> {
        let (tid, code) = (entered.tid, &*entered.code);
        self.profiler.stats.trace_enters += 1;
        self.profiler.stats.host_transitions += 1;

        self.profiler.switch(Activity::Native);
        // The interpreter's step budget extends to native execution: trace
        // loop edges bail out when the (approximate) fuel runs out.
        let fuel = interp.steps_remaining;
        // The tree's code is built from whatever fragments it has at its
        // first execution and grown by `install_branch` after that; its
        // direct sites follow the installs of other trees.
        let installs = self.cache.installs();
        let tree = self.cache.tree(tid);
        if matches!(tree.exec, ExecCode::NotBuilt) {
            self.build_exec(tid);
        } else if tree.plans.installs() != installs {
            self.refresh_exec(tid);
        }
        let tree = self.cache.tree_mut(tid);
        let exec = tree.exec.clone();
        match exec {
            ExecCode::Native(_) => self.profiler.stats.native_exits += 1,
            _ if self.opts.native_backend => self.profiler.stats.native_fallbacks += 1,
            _ => {}
        }
        // The tree's transfer plans travel with the run (a plan is in use
        // while the monitor runs the tree it calls) and come back after.
        let mut plans = std::mem::take(&mut tree.plans);
        let (outer, frame) = (code, entered.frame);
        let mut host =
            NestHost { monitor: self, interp, outer, plans: &mut plans, frame, unexpected: None };
        let ar = &mut entered.ar[..];
        let trace_exit = match &exec {
            ExecCode::Native(nt) => nt.execute(ar, realm, &mut host, fuel),
            ExecCode::Decoded(decoded) => decoded.execute(ar, realm, &mut host, fuel),
            ExecCode::NotBuilt => unreachable!("built above"),
        };
        let inner_exit = host.unexpected;
        self.cache.tree_mut(tid).plans = plans;
        let trace_exit = trace_exit?;
        self.profiler.switch(Activity::Monitor);
        Ok(self.account(tid, code, &trace_exit, inner_exit, interp))
    }

    /// The accounting of one finished run of tree `tid`: the step budget
    /// it spent (the run is cut short there when it spent all of it), and
    /// the bytecodes and instructions it ran natively.
    pub(crate) fn account(
        &mut self,
        tid: TreeId,
        code: &TreeCode,
        trace_exit: &TraceExit,
        inner_exit: Option<(TreeId, u32, u16)>,
        interp: &mut Interp,
    ) -> Ran {
        let (frag, exit) = (trace_exit.fragment, trace_exit.exit);
        let mut ran = Ran { frag, exit, out_of_fuel: false, inner_exit, bytecodes: 0 };
        interp.steps_remaining = interp.steps_remaining.saturating_sub(trace_exit.insts);
        if interp.steps_remaining == 0 {
            // State is restored first so the error surfaces cleanly.
            interp.steps_remaining = 1;
            ran.out_of_fuel = true;
            return ran;
        }

        // Figure 11 accounting: bytecode-equivalents executed natively.
        ran.bytecodes = trace_exit.iterations * u64::from(code.fragment_bytecodes[0]);
        let exit_bc = u64::from(code.fragment_bytecodes[trace_exit.fragment as usize]) / 2;
        self.profiler.stats.bytecodes_native += ran.bytecodes + exit_bc;
        self.profiler.stats.native_insts += trace_exit.insts;
        self.profiler.stats.native_insts_fused += trace_exit.insts - trace_exit.dispatched;
        self.profiler.stats.side_exits += 1;
        self.cache.tree_mut(tid).stats.iterations += trace_exit.iterations;
        self.events.push(TraceEvent::SideExit {
            tree: tid.0,
            fragment: trace_exit.fragment,
            exit: trace_exit.exit,
        });
        ran
    }

    /// Restores interpreter state at the exit `entered` came back
    /// through: [`export`] (an inner tree's unexpected exit already did),
    /// the step-budget error if one is owed, and the collection a helper
    /// asked for, now that the roots are all in interpreter state.
    pub(crate) fn settle(
        &mut self,
        code: &TreeCode,
        ar: &[u64],
        frame: usize,
        ran: &Ran,
        interp: &mut Interp,
        realm: &mut Realm,
    ) -> Result<ExitKind, RuntimeError> {
        let exit = &code.exits[ran.frag as usize][ran.exit as usize];
        if exit.kind != ExitKind::NestedUnexpected {
            export(exit, ar, frame, interp, realm);
        }
        if ran.out_of_fuel {
            return Err(RuntimeError::StepBudgetExhausted);
        }
        if realm.heap.gc_pending {
            let roots = interp.roots();
            realm.collect_garbage(&roots);
        }
        Ok(exit.kind)
    }

    /// Whether any tree's nested-call site calls tree `tid`, or returns
    /// from it.
    fn is_nested_callee(&self, tid: TreeId) -> bool {
        let calls = |s: &NestedSite| s.inner == tid || s.returns == tid;
        self.cache.iter().any(|t| t.nested_sites.iter().any(calls))
    }
}

/// Whether §3.3's verdict on `t` covers a new recording from a state it
/// accepts: it is disabled, and a recording would find what it found —
/// unless its entries never ran an iteration (a trunk that leaves the loop
/// says nothing of it), it calls inner trees (whose siblings may since
/// have changed), or `oracle` has since demoted one of its integer slots.
fn judged(t: &TraceTree, oracle: &Oracle) -> bool {
    let speculates = |b: &SlotBinding| {
        let var = crate::oracle::var_key(b.key, &[t.anchor.func]);
        b.ty != tm_lir::LirType::Int || var.is_none_or(|v| oracle.may_speculate_int(v))
    };
    t.disabled
        && t.stats.native_bytecodes > 0
        && t.nested_sites.is_empty()
        && t.entry.iter().all(speculates)
}

/// How a recording ended short of a finished trace.
enum RecordError {
    /// The recorder gave up on the trace.
    Abort(AbortReason),
    /// The guest program threw.
    Guest(RuntimeError),
    /// The guest program finished, with this completion value.
    ProgramFinished(Value),
}

/// One interpreter step under a recording.
fn step(interp: &mut Interp, realm: &mut Realm) -> Result<(), RecordError> {
    match interp.step(realm) {
        Ok(Flow::Normal | Flow::LoopHeader(_)) => Ok(()),
        Ok(Flow::Finished(v)) => Err(RecordError::ProgramFinished(v)),
        Err(e) => Err(RecordError::Guest(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::SlotKey;
    use crate::shared_cache::entry_digest;
    use crate::vm::{Engine, Vm};

    fn traced(src: &str) -> Vm {
        let mut opts = JitOptions::default();
        opts.log_events = true;
        let mut vm = Vm::with_options(Engine::Tracing, opts);
        vm.eval(src).expect("runs");
        vm
    }

    #[test]
    fn hot_loop_compiles_exactly_one_trunk() {
        let vm = traced("var s = 0; for (var i = 0; i < 100; i++) s += i; s");
        let m = vm.monitor().unwrap();
        assert_eq!(m.cache.len(), 1);
        let t = m.cache.iter().next().unwrap();
        assert_eq!(t.fragments.len(), 1);
        assert!(!t.unstable);
        assert!(t.stats.iterations > 90, "iterations: {}", t.stats.iterations);
        // One loop-edge exit plus assorted guards, none stitched.
        assert!(t.fragments[0].stitch.iter().all(|&e| e == EXIT_UNSTITCHED));
    }

    #[test]
    fn cold_loops_are_not_compiled() {
        // Only one crossing: below the hotness threshold of 2.
        let vm = traced("var s = 0; for (var i = 0; i < 0; i++) s += i; s");
        assert_eq!(vm.monitor().unwrap().cache.len(), 0);
    }

    #[test]
    fn a_loop_turns_hot_at_the_threshold_crossing() {
        // Recording starts at the `HOTNESS_THRESHOLD`-th header crossing,
        // not before: a loop crossing its header one time fewer stays cold.
        let crossings = |src| {
            let vm = traced(src);
            let m = vm.monitor().unwrap();
            let recordings = m.events.events().iter().filter(|e| {
                matches!(e, TraceEvent::RecordStartRoot { .. })
            });
            (m.slots[0][0].hotness, recordings.count())
        };
        let cold = crossings("var s = 0; for (var i = 0; i < 0; i++) s += i; s");
        assert_eq!(cold, (HOTNESS_THRESHOLD - 1, 0));
        let hot = crossings("var s = 0; for (var i = 0; i < 1; i++) s += i; s");
        assert_eq!(hot, (HOTNESS_THRESHOLD, 1));
    }

    #[test]
    fn sibling_trees_for_type_permutations() {
        // The loop alternates int/double phases over evals sharing one
        // monitor is not possible; instead a type flip mid-loop creates
        // sibling trees in one run.
        let vm = traced(
            "var v = 0; var s = 0;
             for (var i = 0; i < 2000; i++) { if (i == 1000) v = 0.5; s += v + 1; }
             s",
        );
        let m = vm.monitor().unwrap();
        assert!(m.cache.len() >= 2, "int-phase and double-phase trees");
    }

    #[test]
    fn exit_counters_gate_branch_recording() {
        // The odd path's exit is taken once (i == 299) or twice (i == 199,
        // 399): only the second pass makes it hot and grows a branch.
        const _: () = assert!(HOT_EXIT_THRESHOLD == 2);
        for (period, fragments) in [(300, 1), (200, 2)] {
            let src = format!(
                "var a = 0;
                 for (var i = 0; i < 500; i++) {{ if (i % {period} == {period} - 1) a += 2; else a++; }}
                 a"
            );
            let vm = traced(&src);
            let m = vm.monitor().unwrap();
            assert_eq!(m.cache.len(), 1);
            let t = m.cache.iter().next().unwrap();
            assert_eq!(t.fragments.len(), fragments, "period {period}");
        }
    }

    /// A three-iteration loop in a function called 200 times: every entry
    /// runs far fewer than `MIN_USEFUL_BYTECODES`, so the tree fails its
    /// §3.3 probation.
    const SHORT_LOOP_CALLS: &str = "\
        function f() { var s = 0; for (var i = 0; i < 3; i++) s += i; return s; }
        var t = 0; for (var j = 0; j < 200; j++) t += f(); t";

    /// The same calls from a loop that also makes a one-deep recursive
    /// call, which aborts every recording of it (`Recursive`): the calling
    /// loop gets no tree, so nothing calls the short loop's.
    const SHORT_LOOP_CALLS_UNTRACED: &str = "\
        function f() { var s = 0; for (var i = 0; i < 3; i++) s += i; return s; }
        function once(d) { if (d > 0) return once(d - 1); return 0; }
        var t = 0; for (var j = 0; j < 200; j++) t += once(1) + f(); t";

    #[test]
    fn a_tree_failing_probation_gives_its_code_back() {
        if !tm_nanojit::native_supported() {
            return;
        }
        let opts = JitOptions { profile: true, ..JitOptions::default() };
        let mut vm = Vm::with_options(Engine::Tracing, opts);
        vm.eval(SHORT_LOOP_CALLS_UNTRACED).expect("runs");
        let m = vm.monitor().unwrap();
        let main = vm.interp().unwrap().prog().main;
        assert!(m.cache.iter().all(|t| t.anchor.func != main), "the calling loop has no tree");
        assert!(m.profiler.stats.native_exits > 0, "the tree ran natively first");
        let t = m.cache.iter().find(|t| t.disabled).expect("the short loop is disabled");
        assert!(t.stats.enters >= USELESS_PROBATION);
        assert!(matches!(t.exec, ExecCode::NotBuilt), "{:?}", t.exec);
    }

    /// The short loop is first called from a traceable loop, whose tree
    /// nests it, then from the untraceable one, whose monitor entries
    /// disable it.
    const SHORT_LOOP_NESTED_THEN_CALLS: &str = "\
        function f() { var s = 0; for (var i = 0; i < 3; i++) s += i; return s; }
        function once(d) { if (d > 0) return once(d - 1); return 0; }
        var t = 0; for (var k = 0; k < 20; k++) t += f();
        for (var j = 0; j < 200; j++) t += once(1) + f(); t";

    #[test]
    fn a_disabled_tree_an_outer_tree_still_calls_keeps_its_code() {
        if !tm_nanojit::native_supported() {
            return;
        }
        let opts = JitOptions { profile: true, ..JitOptions::default() };
        let mut vm = Vm::with_options(Engine::Tracing, opts);
        vm.eval(SHORT_LOOP_NESTED_THEN_CALLS).expect("runs");
        let m = vm.monitor().unwrap();
        let t = m.cache.iter().find(|t| t.disabled).expect("the short loop is disabled");
        assert!(m.is_nested_callee(t.id), "the first loop's tree calls it");
        assert!(matches!(t.exec, ExecCode::Native(_)), "{:?}", t.exec);
        let s = &m.profiler.stats;
        assert!(s.nested_calls >= 10, "{s:?}");
        assert_eq!(s.native_fallbacks, 0, "nested calls stay native: {s:?}");
        assert!(s.native_fragments <= s.fragments, "{s:?}");
    }

    #[test]
    fn nested_calls_do_not_count_toward_probation() {
        let vm = traced(SHORT_LOOP_CALLS);
        let m = vm.monitor().unwrap();
        let main = vm.interp().unwrap().prog().main;
        let outer = m.cache.iter().find(|t| t.anchor.func == main).expect("the calling tree");
        let inner = m.cache.tree(outer.nested_sites[0].inner);
        assert!(!inner.disabled, "{:?}", inner.stats);
        assert!(inner.stats.enters < USELESS_PROBATION, "{:?}", inner.stats);
        assert!(m.profiler.stats.nested_calls >= 190, "{:?}", m.profiler.stats);
    }

    #[test]
    fn a_disabled_sibling_accepting_the_state_is_not_recorded_again() {
        let vm = traced(SHORT_LOOP_CALLS_UNTRACED);
        let m = vm.monitor().unwrap();
        let f = vm.interp().unwrap().prog().functions.iter().position(|f| f.name == "f");
        let short: Vec<_> =
            m.cache.iter().filter(|t| Some(t.anchor.func.0 as usize) == f).collect();
        assert_eq!(short.len(), 1, "one tree at the short loop");
        assert!(short[0].disabled);
    }

    /// Sibling selection over the slot path: creation order, and the
    /// first enabled sibling whose entry map imports wins.
    #[test]
    fn the_first_enabled_matching_sibling_is_entered() {
        let mut realm = Realm::new();
        let ast = tm_frontend::parse("var g = 1; for (var i = 0; i < 2; i++) g;").unwrap();
        let prog = tm_bytecode::compile(&ast, &mut realm).unwrap();
        let l = &prog.function(prog.main).loops[0];
        let anchor = Anchor::loop_header(prog.main, l.header, tm_bytecode::LoopId(0));
        let interp = Interp::new(prog, &mut realm);
        let g = realm.lookup_global("g").unwrap();
        let mut m = Monitor::new(JitOptions::default());
        m.ensure_slots(&interp);
        let mut sibling = |ty| {
            let entry = vec![SlotBinding { ar: 0, key: SlotKey::Global(g), ty }];
            let mut layout = crate::activation::ArLayout::new();
            layout.slot(SlotKey::Global(g));
            m.adopt(TraceTree::new(Arc::new(TreeCode {
                anchor,
                digest: entry_digest(anchor, &entry),
                layout,
                fragments: Arc::new(vec![]),
                exits: vec![],
                fragment_bytecodes: vec![],
                entry,
                nested_sites: vec![],
                loop_writes: vec![],
                unstable: false,
            })))
        };
        let (undef, int, dbl) =
            (sibling(LirType::Undefined), sibling(LirType::Int), sibling(LirType::Double));
        assert_eq!(
            m.slots[anchor.func.0 as usize][anchor.loop_id.0 as usize].trees,
            [undef, int, dbl]
        );
        let entered = |m: &mut Monitor, realm: &Realm| {
            m.enter_sibling(anchor, None, false, &interp, realm).map(|e| (e.tid, e.ar))
        };

        realm.set_global(g, Value::new_int(5));
        assert_eq!(entered(&mut m, &realm), Some((int, vec![5])), "Int precedes Double");
        realm.set_global(g, Value::UNDEFINED);
        assert_eq!(entered(&mut m, &realm).map(|e| e.0), Some(undef));
        let half = realm.heap.alloc_double(0.5);
        realm.set_global(g, half);
        assert_eq!(entered(&mut m, &realm), Some((dbl, vec![0.5f64.to_bits()])));
        realm.set_global(g, Value::NULL);
        assert_eq!(entered(&mut m, &realm), None, "no sibling's entry map matches");
        // A disabled sibling is passed over even when it matches.
        realm.set_global(g, Value::new_int(5));
        m.cache.tree_mut(int).disabled = true;
        assert_eq!(entered(&mut m, &realm), Some((dbl, vec![5.0f64.to_bits()])));
    }
}
