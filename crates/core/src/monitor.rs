//! The trace monitor: the state machine of the paper's Figure 2.
//!
//! The interpreter returns control here at every (unpatched) loop header.
//! The monitor counts hotness, starts and drives recordings, enters
//! compiled trees (building the activation record), restores interpreter
//! state at side exits (synthesizing inlined frames), grows trace trees at
//! hot side exits, links type-unstable siblings (Figure 6), executes
//! nested tree calls as the [`TreeHost`] (§4), and applies blacklisting
//! with nesting forgiveness (§3.3, §4.2).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use tm_interp::{Flow, Interp, RunExit};
use tm_nanojit::{emit_tree, execute, Fragment, TreeHost, Unsupported};
use tm_runtime::{Realm, RuntimeError, Value};

use crate::activation::{box_from_word, unbox_to_word, value_matches, SlotKey};
use crate::blacklist::{Blacklist, Verdict};
use crate::config::JitOptions;
use crate::events::{AbortReason, EventLog, TraceEvent};
use crate::exit::{ExitKind, SideExitInfo};
use crate::oracle::Oracle;
use crate::pool::{compile_trace, CompileJob, CompileOutcome, CompilerPool, Ticket};
use crate::profiler::{Activity, ProfileStats, Profiler};
use crate::recorder::{self, RecordAction, RecordedTrace, Recorder};
use crate::shared_cache::{entry_digest, SharedCodeCache, SharedKey};
use crate::tree::{
    Anchor, AnchorKind, ExitState, NativeCode, TraceTree, TreeCache, TreeId, TreeStats,
};

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
/// compiled (or misbehaved) *yet*; `TooDeep` means recursion exceeded the
/// unroll budget — the site itself is not hostile to tracing, and the
/// recursion paths must be able to retry it once entry trees exist.
pub fn abort_is_provisional(reason: &AbortReason) -> bool {
    matches!(
        reason,
        AbortReason::InnerTreeNotReady
            | AbortReason::InnerTreeCallFailed
            | AbortReason::TooDeep
    )
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
    /// A root recording for this anchor is compiling in the background;
    /// the monitor keeps interpreting the loop and must not record a
    /// duplicate until the fragment is installed (or fails).
    pub(crate) compiling: bool,
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
    /// Set by the nesting host when an inner tree took an unexpected exit,
    /// so the top-level loop can extend the *inner* tree (§4.1).
    pending_inner_exit: Option<(TreeId, u32, u16)>,
    /// Completion value captured when the program finished while a branch
    /// recording was shadowing execution.
    finished_during_recording: Option<Value>,
    /// The process-wide shared code cache and this program's key in it,
    /// when attached (multi-tenant hosts; see [`Monitor::attach_shared`]).
    shared: Option<(Arc<SharedCodeCache>, SharedKey)>,
    /// Sibling digests already installed from (or published to) the
    /// shared cache, so repeated probes never install duplicates.
    shared_seen: HashSet<u64>,
    /// Stable sibling identity per local tree: the digest used at first
    /// publish, reused on republish so branch extensions replace.
    published_digests: HashMap<TreeId, u64>,
    /// Background compiler pool, when attached ([`Monitor::attach_pool`]).
    pool: Option<Arc<CompilerPool>>,
    /// In-flight background compiles awaiting installation at the next
    /// anchor hit.
    in_flight: Vec<PendingCompile>,
    /// Side exits with a branch compile in flight (guards duplicate
    /// branch recordings; cleared on install or failure).
    in_flight_exits: HashSet<(TreeId, u32, u16)>,
}

/// One background compile the monitor is waiting on.
#[derive(Debug)]
struct PendingCompile {
    ticket: Ticket,
    kind: PendingKind,
}

#[derive(Debug, Clone, Copy)]
enum PendingKind {
    /// A root trace for `anchor`.
    Root { anchor: Anchor },
    /// A branch trace extending `(tid, frag, exit)`.
    Branch { tid: TreeId, frag: u32, exit: u16 },
}

enum RecResult {
    Finished,
    Abort(AbortReason),
}

impl Monitor {
    /// Creates a monitor with the given configuration.
    pub fn new(opts: JitOptions) -> Monitor {
        Monitor {
            cache: TreeCache::new(),
            blacklist: Blacklist::new(opts.blacklist),
            oracle: if opts.enable_oracle { Oracle::new() } else { Oracle::disabled() },
            profiler: Profiler::new(opts.profile),
            events: {
                let mut log = EventLog::new();
                log.enabled = opts.log_events;
                log
            },
            opts,
            slots: Vec::new(),
            pending_inner_exit: None,
            finished_during_recording: None,
            shared: None,
            shared_seen: HashSet::new(),
            published_digests: HashMap::new(),
            pool: None,
            in_flight: Vec::new(),
            in_flight_exits: HashSet::new(),
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

    /// The pool to submit to, when background compilation is active.
    fn async_pool(&self) -> Option<Arc<CompilerPool>> {
        if !self.opts.background_compile {
            return None;
        }
        self.pool.clone()
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
                    match self.on_loop_edge(
                        Anchor::loop_header(func, header_pc, loop_id),
                        interp,
                        realm,
                    ) {
                        Ok(None) => {}
                        Ok(Some(v)) => break Ok(v),
                        Err(e) => break Err(e),
                    }
                    if let Some(v) = self.finished_during_recording.take() {
                        break Ok(v);
                    }
                    self.profiler.switch(Activity::Interpret);
                }
                Ok(RunExit::RecursiveCall { func }) => {
                    self.profiler.switch(Activity::Monitor);
                    let nloops = interp.prog().function(func).loops.len();
                    match self.on_loop_edge(Anchor::func_entry(func, nloops), interp, realm)
                    {
                        Ok(None) => {}
                        Ok(Some(v)) => break Ok(v),
                        Err(e) => break Err(e),
                    }
                    if let Some(v) = self.finished_during_recording.take() {
                        break Ok(v);
                    }
                    self.profiler.switch(Activity::Interpret);
                }
                Err(e) => break Err(e),
            }
        };
        // Drain in-flight background compiles so the monitor's final
        // state (trees, counters, the persisted image) is deterministic
        // regardless of worker timing.
        if !self.in_flight.is_empty() {
            self.drain_compiles(interp);
        }
        self.profiler.stats.bytecodes_interp = interp.ops_executed
            - self.profiler.stats.bytecodes_recorded;
        self.profiler.stats.ic = interp.ic_stats;
        self.profiler.stop();
        result
    }

    /// Sizes the dense slot table to the installed program: one slot per
    /// loop per function, plus one extra slot per function for its
    /// function-entry (recursion) anchor. Idempotent; re-running the same
    /// interpreter keeps accumulated state.
    pub(crate) fn ensure_slots(&mut self, interp: &Interp) {
        let prog = interp.prog();
        if self.slots.len() < prog.functions.len() {
            self.slots.resize_with(prog.functions.len(), Vec::new);
        }
        for (f, slots) in self.slots.iter_mut().enumerate() {
            let nslots = prog.functions[f].loops.len() + 1;
            if slots.len() < nslots {
                slots.resize_with(nslots, MonitorSlot::default);
            }
        }
    }

    /// Finds a matching compiled tree for `anchor` through its dense
    /// monitor slot (no hash lookup; the hot trace-cache probe of §6.1).
    fn find_match_slot(
        &self,
        anchor: Anchor,
        realm: &Realm,
        interp: &Interp,
    ) -> Option<TreeId> {
        let slot = &self.slots[anchor.func.0 as usize][anchor.loop_id.0 as usize];
        slot.trees.iter().copied().find(|&id| {
            let t = self.cache.tree(id);
            !t.disabled && t.entry_matches(realm, interp)
        })
    }

    /// Handles one loop-edge crossing. Returns `Ok(Some(value))` if the
    /// program finished during recording.
    fn on_loop_edge(
        &mut self,
        anchor: Anchor,
        interp: &mut Interp,
        realm: &mut Realm,
    ) -> Result<Option<Value>, RuntimeError> {
        // 0. Background-compiled fragments ready? Install them now — the
        // "next anchor hit" of the compiler-pool handoff. Cheap when
        // nothing is in flight (a Vec emptiness check).
        if !self.in_flight.is_empty() {
            self.poll_compiles(interp);
        }

        // 1. A matching compiled tree? Enter it. Pure dense-slot work.
        if let Some(tid) = self.find_match_slot(anchor, realm, interp) {
            self.profiler.stats.monitor_slot_fast += 1;
            self.run_tree(tid, interp, realm)?;
            return Ok(None);
        }

        // 2. Hotness counting: an inline counter in the loop's slot.
        {
            let slot =
                &mut self.slots[anchor.func.0 as usize][anchor.loop_id.0 as usize];
            debug_assert!(!slot.silenced, "silenced headers are patched to Nop");
            slot.hotness += 1;
            if slot.hotness < self.opts.hotness_threshold {
                self.profiler.stats.monitor_slot_fast += 1;
                return Ok(None);
            }
        }

        // Past the threshold: the slow machinery (sibling policy, backoff
        // tables, recording). Warm loops never reach this point again.
        self.profiler.stats.monitor_slot_slow += 1;
        let slot = &self.slots[anchor.func.0 as usize][anchor.loop_id.0 as usize];
        if slot.compiling {
            // A root trace for this anchor is compiling in the background;
            // keep interpreting until it lands.
            return Ok(None);
        }
        if slot.trees.len() >= MAX_SIBLING_TREES {
            if slot.trees.iter().all(|&t| self.cache.tree(t).disabled) {
                // Every type permutation of this loop proved unprofitable:
                // silence the monitor permanently (§3.3).
                self.silence_header(anchor, interp);
            }
            return Ok(None);
        }

        // 3. Blacklist / backoff.
        match self.blacklist.check(anchor.site_key()) {
            Verdict::Blacklisted => {
                self.silence_header(anchor, interp);
                return Ok(None);
            }
            Verdict::Skip => return Ok(None),
            Verdict::Record => {}
        }

        // 3.5. Before paying to record: did another realm already compile
        // this anchor? Install every new shared-cache sibling and enter
        // one if it matches the current types.
        if self.try_shared_install(anchor) {
            if let Some(tid) = self.find_match_slot(anchor, realm, interp) {
                self.run_tree(tid, interp, realm)?;
                return Ok(None);
            }
        }

        // 4. Record a root trace.
        self.record_root(anchor, interp, realm)
    }

    /// Probes the shared code cache for `anchor`, installing every
    /// sibling not yet present locally. Returns whether anything new was
    /// installed.
    fn try_shared_install(&mut self, anchor: Anchor) -> bool {
        let Some((cache, key)) = self.shared.clone() else { return false };
        let found = cache.lookup(key, anchor);
        if found.is_empty() {
            self.profiler.stats.shared_cache_misses += 1;
            return false;
        }
        self.profiler.stats.shared_cache_hits += 1;
        let mut installed = false;
        for shared_tree in found {
            if !self.shared_seen.insert(shared_tree.digest) {
                continue;
            }
            let tid = self.cache.insert(shared_tree.instantiate());
            self.slots[anchor.func.0 as usize][anchor.loop_id.0 as usize]
                .trees
                .push(tid);
            self.published_digests.insert(tid, shared_tree.digest);
            self.profiler.stats.shared_cache_installed_trees += 1;
            installed = true;
        }
        installed
    }

    /// Publishes tree `tid` to the shared code cache (no-op without an
    /// attached cache, or for trees with nested-call sites).
    pub(crate) fn publish_shared(&mut self, tid: TreeId) {
        let Some((cache, key)) = self.shared.clone() else { return };
        let tree = self.cache.tree(tid);
        let digest = match self.published_digests.get(&tid) {
            Some(&d) => d,
            None => {
                let d = entry_digest(tree.anchor, &tree.entry);
                self.published_digests.insert(tid, d);
                d
            }
        };
        if cache.publish(key, digest, self.cache.tree(tid)) {
            self.shared_seen.insert(digest);
            self.profiler.stats.shared_cache_publishes += 1;
        }
    }

    fn anchor_range(&self, anchor: Anchor, interp: &Interp) -> (u32, u32) {
        let f = interp.prog().function(anchor.func);
        match anchor.kind {
            AnchorKind::LoopHeader => {
                let l = f.loop_with_header(anchor.pc).expect("anchor is a loop header");
                (l.header, l.end)
            }
            // An entry anchor "contains" the whole function body.
            AnchorKind::FuncEntry => (0, f.code.len() as u32),
        }
    }

    fn record_root(
        &mut self,
        anchor: Anchor,
        interp: &mut Interp,
        realm: &mut Realm,
    ) -> Result<Option<Value>, RuntimeError> {
        self.events.push(TraceEvent::RecordStartRoot { func: anchor.func, pc: anchor.pc });
        let range = self.anchor_range(anchor, interp);
        let mut rec = Recorder::new_root(anchor, range, interp, self.opts);
        self.profiler.switch(Activity::Record);
        let rec_start_ops = interp.ops_executed;
        let outcome = self.record_loop(&mut rec, interp, realm);
        self.profiler.stats.bytecodes_recorded += interp.ops_executed - rec_start_ops;
        self.profiler.switch(Activity::Monitor);
        match outcome {
            Ok(RecResult::Finished) => {
                let recorded = rec.into_recorded();
                if self.opts.verify {
                    if let Err(err) = recorded.verify(&[]) {
                        self.handle_record_failure(
                            anchor,
                            AbortReason::VerifyFailed(err),
                            interp,
                        );
                        return Ok(None);
                    }
                }
                if let Some(pool) = self.async_pool() {
                    // Hand the pipeline to a worker; the realm goes back
                    // to interpreting and the tree is installed at a
                    // later anchor hit (`poll_compiles`).
                    let ticket = pool.submit(CompileJob {
                        recorded,
                        verify_base: Vec::new(),
                        opts: self.opts,
                    });
                    self.slots[anchor.func.0 as usize][anchor.loop_id.0 as usize]
                        .compiling = true;
                    self.in_flight.push(PendingCompile {
                        ticket,
                        kind: PendingKind::Root { anchor },
                    });
                    self.profiler.stats.compile_jobs_submitted += 1;
                    return Ok(None);
                }
                self.build_root_tree(anchor, recorded);
                self.forgive_outer_loops(anchor, interp);
                Ok(None)
            }
            Ok(RecResult::Abort(reason)) => {
                self.handle_record_failure(anchor, reason, interp);
                Ok(None)
            }
            Err(RecordError::Guest(e)) => Err(e),
            Err(RecordError::ProgramFinished(v)) => Ok(Some(v)),
        }
    }

    fn handle_record_failure(&mut self, anchor: Anchor, reason: AbortReason, interp: &mut Interp) {
        self.events.push(TraceEvent::RecordAbort { reason });
        self.profiler.stats.traces_aborted += 1;
        if self.blacklist.record_failure(anchor.site_key(), abort_is_provisional(&reason)) {
            self.silence_header(anchor, interp);
        }
    }

    /// Silences the anchor permanently: a loop header is patched to `Nop`,
    /// a function-entry anchor stops the interpreter's recursion reports.
    /// Either way its monitor slot is marked silenced — neither the
    /// interpreter nor the monitor will ever touch this anchor again.
    pub(crate) fn silence_header(&mut self, anchor: Anchor, interp: &mut Interp) {
        match anchor.kind {
            AnchorKind::LoopHeader => interp.patch_loop_header(anchor.func, anchor.pc),
            AnchorKind::FuncEntry => interp.silence_recursion(anchor.func),
        }
        self.slots[anchor.func.0 as usize][anchor.loop_id.0 as usize].silenced = true;
        let (_, site_pc) = anchor.site_key();
        self.events.push(TraceEvent::Blacklist { func: anchor.func, pc: site_pc });
    }

    /// §4.2: an inner tree completed a trace; forgive outer loops that
    /// aborted waiting for it. The function-entry anchor encloses every
    /// loop in the function, so it is always forgiven alongside them.
    fn forgive_outer_loops(&mut self, anchor: Anchor, interp: &Interp) {
        let f = interp.prog().function(anchor.func);
        let mut outer_headers: Vec<u32> = f
            .loops
            .iter()
            .filter(|l| l.contains_pc(anchor.pc) && l.header != anchor.pc)
            .map(|l| l.header)
            .collect();
        if anchor.kind == AnchorKind::LoopHeader {
            outer_headers.push(crate::tree::ENTRY_SITE_PC);
        }
        self.blacklist.forgive_outer(anchor.func, &outer_headers);
    }

    /// Drives one recording to completion, stepping the interpreter.
    fn record_loop(
        &mut self,
        rec: &mut Recorder,
        interp: &mut Interp,
        realm: &mut Realm,
    ) -> Result<RecResult, RecordError> {
        loop {
            match rec.record_op(interp, realm, &self.oracle) {
                RecordAction::Step { observe } => match interp.step(realm) {
                    // `RecursiveCall` is informational: while recording, the
                    // recorder has already shadowed the call in `record_call`.
                    Ok(Flow::Normal | Flow::LoopHeader(_) | Flow::RecursiveCall { .. }) => {
                        if observe {
                            rec.after_step(interp, realm);
                        }
                    }
                    Ok(Flow::Finished(v)) => return Err(RecordError::ProgramFinished(v)),
                    Err(e) => return Err(RecordError::Guest(e)),
                },
                RecordAction::Finished => {
                    self.profiler.stats.traces_completed += 1;
                    return Ok(RecResult::Finished);
                }
                RecordAction::Abort(reason) => return Ok(RecResult::Abort(reason)),
                RecordAction::InnerLoop { func, pc, loop_id } => {
                    match self.handle_inner_loop(
                        rec,
                        Anchor::loop_header(func, pc, loop_id),
                        interp,
                        realm,
                    )? {
                        Ok(()) => {
                            // Nested call recorded; the step that brought
                            // us to the inner header was the LoopHeader op,
                            // which the recorder never steps — the inner
                            // tree execution advanced the interpreter.
                        }
                        Err(reason) => return Ok(RecResult::Abort(reason)),
                    }
                }
            }
        }
    }

    /// Attempts a nested tree call while recording (§4.1).
    #[allow(clippy::type_complexity)]
    fn handle_inner_loop(
        &mut self,
        rec: &mut Recorder,
        inner_anchor: Anchor,
        interp: &mut Interp,
        realm: &mut Realm,
    ) -> Result<Result<(), AbortReason>, RecordError> {
        if !self.opts.enable_nesting {
            return Ok(Err(AbortReason::InnerTreeNotReady));
        }
        let Some(tid) = self.find_match_slot(inner_anchor, realm, interp) else {
            // "We simply abort recording the first trace. The trace
            // monitor will see the inner loop header, and will immediately
            // start recording the inner loop."
            return Ok(Err(AbortReason::InnerTreeNotReady));
        };
        rec.begin_nested(inner_anchor.pc);
        // The LoopHeader op at the inner header has *not* been stepped;
        // step past it so interpreter state matches a normal tree entry.
        match interp.step(realm) {
            Ok(Flow::LoopHeader(_) | Flow::Normal | Flow::RecursiveCall { .. }) => {}
            Ok(Flow::Finished(v)) => return Err(RecordError::ProgramFinished(v)),
            Err(e) => return Err(RecordError::Guest(e)),
        }
        self.events.push(TraceEvent::NestedCall { tree: tid.0 });
        let (frag, exit, kind) = match self.execute_tree_once(tid, interp, realm) {
            Ok(r) => r,
            Err(e) => return Err(RecordError::Guest(e)),
        };
        let acceptable = matches!(kind, ExitKind::Branch | ExitKind::LeaveLoop)
            && self.cache.tree(tid).exits[frag as usize][exit as usize].frames.len() == 1;
        if !acceptable {
            rec.cancel_nested();
            return Ok(Err(AbortReason::InnerTreeCallFailed));
        }
        let stack_depth =
            self.cache.tree(tid).exits[frag as usize][exit as usize].frames[0].stack_depth;
        rec.finish_nested_with_stack(tid, (frag, exit), stack_depth, interp);
        Ok(Ok(()))
    }

    // ==== tree construction ====

    /// `verify_base` is the fragment's pre-existing entry state (empty for
    /// a root trace; the parent exit's type map plus the tree entry map
    /// for a branch), used only for the post-filter verification pass.
    fn compile_fragment(
        &mut self,
        recorded: &mut RecordedTrace,
        verify_base: &[(tm_lir::ArSlot, tm_lir::LirType)],
    ) -> Fragment {
        self.profiler.switch(Activity::Compile);
        // On the execution thread a verifier rejection is a bug in this
        // program, not a condition to recover from.
        let frag = compile_trace(recorded, verify_base, &self.opts)
            .unwrap_or_else(|err| panic!("{err}"));
        self.absorb_compiled_fragment_stats(&frag);
        self.profiler.switch(Activity::Monitor);
        frag
    }

    /// Rolls a completed recording's typed fast-call sites into the
    /// per-builtin trace counters.
    fn count_fast_helpers(&mut self, recorded: &mut RecordedTrace) {
        for h in recorded.fast_helpers.drain(..) {
            *self
                .profiler
                .stats
                .builtin_fast_records
                .entry(format!("{h:?}"))
                .or_insert(0) += 1;
        }
    }

    fn build_root_tree(&mut self, anchor: Anchor, mut recorded: RecordedTrace) -> TreeId {
        self.count_fast_helpers(&mut recorded);
        let frag = self.compile_fragment(&mut recorded, &[]);
        self.install_root_tree(anchor, recorded, frag)
    }

    /// Installs a compiled root fragment as a new tree: the tail of
    /// `build_root_tree`, shared with the background-compile install path
    /// (`poll_compiles`), which arrives here with a worker-built fragment.
    fn install_root_tree(
        &mut self,
        anchor: Anchor,
        mut recorded: RecordedTrace,
        frag: Fragment,
    ) -> TreeId {
        for m in recorded.oracle_marks.drain(..) {
            self.oracle.mark_double(m);
        }
        let unstable = recorded.finish == recorder::FinishKind::UnstableLoop;
        let exit_states = vec![vec![ExitState::default(); recorded.exits.len()]];
        let tree = TraceTree {
            id: TreeId(0), // assigned by the cache
            anchor,
            layout: recorded.layout,
            entry: recorded.new_entry,
            fragments: Arc::new(vec![frag]),
            exits: vec![recorded.exits],
            fragment_bytecodes: vec![recorded.bytecodes],
            exit_states,
            frag_entry_reqs: Vec::new(),
            nested_sites: recorded.nested_sites,
            loop_writes: recorded.loop_writes,
            lir: if self.opts.log_events { vec![recorded.lir] } else { vec![] },
            unstable,
            disabled: false,
            native: NativeCode::NotEmitted,
            stats: TreeStats::default(),
        };
        let tid = self.cache.insert(tree);
        {
            let t = self.cache.tree_mut(tid);
            let reqs = t.entry.iter().map(|e| (e.ar, e.key, e.ty)).collect();
            t.frag_entry_reqs.push(reqs);
        }
        // Register the sibling in the loop's dense monitor slot — the
        // structure the hot loop-edge path consults.
        self.slots[anchor.func.0 as usize][anchor.loop_id.0 as usize].trees.push(tid);
        self.profiler.stats.trees += 1;
        self.events.push(TraceEvent::RecordFinish {
            tree: tid.0,
            fragment: 0,
            lir_len: self.cache.tree(tid).fragments[0].len() as u32,
        });
        self.publish_shared(tid);
        tid
    }

    /// Entry requirements for monitor-mediated entry at a branch fragment
    /// stitched to `(parent_frag, parent_exit)`: everything the parent
    /// exit's type map describes plus the tree's entry slots. Doubles as
    /// the entry base for trace verification.
    fn branch_parent_reqs(
        &self,
        tid: TreeId,
        parent_frag: u32,
        parent_exit: u16,
    ) -> Vec<(tm_lir::ArSlot, SlotKey, tm_lir::LirType)> {
        let tree = self.cache.tree(tid);
        let mut reqs = tree.exits[parent_frag as usize][parent_exit as usize]
            .typemap
            .clone();
        for e in &tree.entry {
            if !reqs.iter().any(|&(a, _, _)| a == e.ar) {
                reqs.push((e.ar, e.key, e.ty));
            }
        }
        reqs
    }

    fn attach_branch(
        &mut self,
        tid: TreeId,
        parent_frag: u32,
        parent_exit: u16,
        mut recorded: RecordedTrace,
    ) {
        self.count_fast_helpers(&mut recorded);
        let verify_base: Vec<(tm_lir::ArSlot, tm_lir::LirType)> = self
            .branch_parent_reqs(tid, parent_frag, parent_exit)
            .iter()
            .map(|&(s, _, t)| (s, t))
            .collect();
        let frag = self.compile_fragment(&mut recorded, &verify_base);
        self.install_branch(tid, parent_frag, parent_exit, recorded, frag);
    }

    /// Installs a compiled branch fragment: the tail of `attach_branch`,
    /// shared with the background-compile install path.
    fn install_branch(
        &mut self,
        tid: TreeId,
        parent_frag: u32,
        parent_exit: u16,
        mut recorded: RecordedTrace,
        frag: Fragment,
    ) {
        let parent_reqs = self.branch_parent_reqs(tid, parent_frag, parent_exit);
        for m in recorded.oracle_marks.drain(..) {
            self.oracle.mark_double(m);
        }
        let stitch = self.opts.enable_stitching;
        let tree = self.cache.tree_mut(tid);
        let new_idx = tree.fragments.len() as u32;
        {
            let frags = Arc::make_mut(&mut tree.fragments);
            frags.push(frag);
            if stitch {
                frags[parent_frag as usize].stitch_exit(parent_exit, new_idx);
            }
        }
        // A tree that already has native code grows it in place: the new
        // body goes at the tail and the parent's exit is patched to jump
        // to it. Out of reserved capacity, or the code still referenced by
        // a run (never the case at an install today): build the tree
        // again, whole, as first execution does.
        tree.native = match std::mem::take(&mut tree.native) {
            NativeCode::Code(code) => {
                let stats = &mut self.profiler.stats;
                match Arc::try_unwrap(code).map(|nt| nt.append(&tree.fragments)) {
                    Ok(Ok(nt)) => {
                        stats.native_fragments += 1;
                        stats.native_emissions_sync += 1;
                        NativeCode::Code(Arc::new(nt))
                    }
                    Ok(Err(refused)) if refused != Unsupported::FULL => NativeCode::Refused,
                    _ => build_native(&tree.fragments, stats),
                }
            }
            other => other,
        };
        tree.exit_states[parent_frag as usize][parent_exit as usize].branch = Some(new_idx);
        tree.frag_entry_reqs.push(parent_reqs);
        tree.layout = recorded.layout;
        for e in recorded.new_entry {
            if !tree.entry.iter().any(|x| x.ar == e.ar) {
                tree.entry.push(e);
                // Every fragment's monitor-entry requirements must cover
                // every entry slot: fragments reached by stitching or
                // loop-back may read slots this fragment's own path never
                // touches.
                for reqs in &mut tree.frag_entry_reqs {
                    if !reqs.iter().any(|&(a, _, _)| a == e.ar) {
                        reqs.push((e.ar, e.key, e.ty));
                    }
                }
            }
        }
        // The branch's exits must also restore the *tree's* loop-persistent
        // writes (slots written by the trunk after the branch point carry
        // stale values from earlier iterations), and vice versa: existing
        // exits must restore the branch's new loop writes.
        let mut branch_exits = recorded.exits;
        for e in &mut branch_exits {
            crate::recorder::union_writes(&mut e.write_back, &tree.loop_writes);
            crate::recorder::union_writes(&mut e.typemap, &tree.loop_writes);
        }
        let mut new_loop_writes = tree.loop_writes.clone();
        crate::recorder::union_writes(&mut new_loop_writes, &recorded.loop_writes);
        if new_loop_writes.len() != tree.loop_writes.len() {
            for frag_exits in &mut tree.exits {
                for e in frag_exits {
                    crate::recorder::union_writes(&mut e.write_back, &new_loop_writes);
                    crate::recorder::union_writes(&mut e.typemap, &new_loop_writes);
                }
            }
            for site in &mut tree.nested_sites {
                crate::recorder::union_writes(&mut site.callsite.write_back, &new_loop_writes);
                crate::recorder::union_writes(&mut site.callsite.typemap, &new_loop_writes);
            }
        }
        tree.loop_writes = new_loop_writes;
        tree.exit_states.push(vec![ExitState::default(); branch_exits.len()]);
        tree.exits.push(branch_exits);
        if self.opts.log_events {
            tree.lir.push(recorded.lir);
        }
        tree.fragment_bytecodes.push(recorded.bytecodes);
        tree.nested_sites.extend(recorded.nested_sites);
        self.events.push(TraceEvent::Stitch {
            tree: tid.0,
            from_fragment: parent_frag,
            exit: parent_exit,
            to_fragment: new_idx,
        });
        self.events.push(TraceEvent::RecordFinish {
            tree: tid.0,
            fragment: new_idx,
            lir_len: self.cache.tree(tid).fragments[new_idx as usize].len() as u32,
        });
        // Republish: the tree grew a fragment, so realms installing it
        // from the shared cache later get the extended version.
        self.publish_shared(tid);
    }

    // ==== tree execution ====

    /// Runs a tree from the monitor, handling exits, branch extension, and
    /// type-stability transfers until control must return to the
    /// interpreter.
    fn run_tree(
        &mut self,
        mut tid: TreeId,
        interp: &mut Interp,
        realm: &mut Realm,
    ) -> Result<(), RuntimeError> {
        let mut transfers = 0usize;
        let mut start = 0u32;
        loop {
            self.events.push(TraceEvent::EnterTree { tree: tid.0 });
            let Some((frag, exit, kind)) = self.execute_tree_from(tid, start, interp, realm)?
            else {
                return Ok(()); // entry requirements not met: interpret
            };
            start = 0;
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
                    // Re-enter if still matching (the common case) — via
                    // the dense slot, not the anchor hash.
                    if let Some(next) =
                        self.find_match_slot(self.cache.tree(tid).anchor, realm, interp)
                    {
                        tid = next;
                        continue;
                    }
                    return Ok(());
                }
                ExitKind::Unstable => {
                    // Figure 6: look for a sibling tree whose entry map
                    // matches the exit state.
                    if !self.opts.enable_stability_linking {
                        return Ok(());
                    }
                    let anchor = self.cache.tree(tid).anchor;
                    if let Some(next) = self.find_match_slot(anchor, realm, interp) {
                        transfers += 1;
                        if next != tid {
                            self.events
                                .push(TraceEvent::StableTransfer { from_tree: tid.0, to_tree: next.0 });
                        }
                        if transfers < 1_000_000 {
                            tid = next;
                            continue;
                        }
                    }
                    return Ok(());
                }
                ExitKind::Branch => {
                    if !self.opts.enable_stitching {
                        // §6.2's alternative to stitching: call the branch
                        // fragment from the monitor, paying the transition
                        // cost stitching avoids.
                        if let Some(bfrag) =
                            self.cache.tree(tid).exit_state(frag, exit).branch
                        {
                            start = bfrag;
                            continue;
                        }
                    }
                    self.maybe_extend(tid, frag, exit, interp, realm)?;
                    return Ok(());
                }
                ExitKind::NestedUnexpected => {
                    // §4.1: "we simply exit the outer trace and start
                    // recording a new branch in the inner tree."
                    if let Some((itid, ifrag, iexit)) = self.pending_inner_exit.take() {
                        let ikind =
                            self.cache.tree(itid).exits[ifrag as usize][iexit as usize].kind;
                        if ikind == ExitKind::Branch {
                            self.maybe_extend(itid, ifrag, iexit, interp, realm)?;
                        }
                    }
                    return Ok(());
                }
                ExitKind::LeaveLoop | ExitKind::DeepBail => return Ok(()),
            }
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
        if self.in_flight_exits.iter().any(|&(t, _, _)| t == tid) {
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
            let max_failures = self.opts.blacklist.max_failures;
            let hot = self.opts.hot_exit_threshold;
            let st = tree.exit_state_mut(frag, exit);
            if st.branch.is_some() {
                // Already extended (reachable only via the monitor when
                // stitching is disabled).
                return Ok(());
            }
            if st.failures >= max_failures {
                return Ok(());
            }
            st.counter += 1;
            if st.counter < hot {
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
            let max_failures = self.opts.blacklist.max_failures;
            let st = self.cache.tree_mut(tid).exit_state_mut(frag, exit);
            st.failures = max_failures;
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
        let range = self.anchor_range(anchor, interp);
        self.events.push(TraceEvent::RecordStartBranch { func: anchor.func, pc: anchor.pc });
        let (layout, entry, site_base, parent_exit) = {
            let tree = self.cache.tree(tid);
            (
                tree.layout.clone(),
                tree.entry.clone(),
                tree.nested_sites.len() as u32,
                tree.exits[frag as usize][exit as usize].clone(),
            )
        };
        // The branch fragment enters with everything the parent path
        // established (its exit type map) plus the tree's entry slots —
        // the base state the verifier checks imports and exit maps
        // against.
        let verify_base: Vec<(tm_lir::ArSlot, tm_lir::LirType)> = if self.opts.verify {
            let mut base: Vec<(tm_lir::ArSlot, tm_lir::LirType)> =
                parent_exit.typemap.iter().map(|&(s, _, t)| (s, t)).collect();
            for e in &entry {
                if !base.iter().any(|&(s, _)| s == e.ar) {
                    base.push((e.ar, e.ty));
                }
            }
            base
        } else {
            Vec::new()
        };
        let mut rec = Recorder::new_branch(
            anchor,
            range,
            layout,
            entry,
            &parent_exit,
            site_base,
            interp,
            self.opts,
        );
        self.profiler.switch(Activity::Record);
        let rec_start_ops = interp.ops_executed;
        let outcome = self.record_loop(&mut rec, interp, realm);
        self.profiler.stats.bytecodes_recorded += interp.ops_executed - rec_start_ops;
        self.profiler.switch(Activity::Monitor);
        match outcome {
            Ok(RecResult::Finished) => {
                let recorded = rec.into_recorded();
                if self.opts.verify {
                    if let Err(err) = recorded.verify(&verify_base) {
                        self.events.push(TraceEvent::RecordAbort {
                            reason: AbortReason::VerifyFailed(err),
                        });
                        self.profiler.stats.traces_aborted += 1;
                        self.record_exit_failure(tid, frag, exit);
                        return Ok(());
                    }
                }
                if let Some(pool) = self.async_pool() {
                    let ticket = pool.submit(CompileJob {
                        recorded,
                        verify_base,
                        opts: self.opts,
                    });
                    self.in_flight_exits.insert((tid, frag, exit));
                    self.in_flight.push(PendingCompile {
                        ticket,
                        kind: PendingKind::Branch { tid, frag, exit },
                    });
                    self.profiler.stats.compile_jobs_submitted += 1;
                    return Ok(());
                }
                self.attach_branch(tid, frag, exit, recorded);
                Ok(())
            }
            Ok(RecResult::Abort(reason)) => {
                self.events.push(TraceEvent::RecordAbort { reason });
                self.profiler.stats.traces_aborted += 1;
                self.record_exit_failure(tid, frag, exit);
                Ok(())
            }
            Err(RecordError::Guest(e)) => Err(e),
            Err(RecordError::ProgramFinished(v)) => {
                self.finished_during_recording = Some(v);
                Ok(())
            }
        }
    }

    /// Whether `(frag, exit)` of tree `tid` is the `expected_exit` of any
    /// nested-call site — i.e. an exit outer trees rely on the inner tree
    /// returning through. Such exits must never be stitched.
    fn exit_is_nested_contract(&self, tid: TreeId, frag: u32, exit: u16) -> bool {
        self.cache.iter().any(|t| {
            t.nested_sites
                .iter()
                .any(|s| s.inner == tid && s.expected_exit == (frag, exit))
        })
    }

    /// Counts a branch-recording failure at `(frag, exit)`. At the
    /// blacklist threshold the exit stops being extended; its hotness
    /// counter is cleared so dead exits don't keep live state around.
    fn record_exit_failure(&mut self, tid: TreeId, frag: u32, exit: u16) {
        let max_failures = self.opts.blacklist.max_failures;
        let st = self.cache.tree_mut(tid).exit_state_mut(frag, exit);
        st.failures += 1;
        if st.failures >= max_failures {
            st.counter = 0;
        }
    }

    // ==== background compilation ====

    /// Non-blocking sweep over in-flight compile jobs, installing every
    /// finished fragment. Called on each anchor hit (the handoff point:
    /// "installing at the next anchor hit").
    fn poll_compiles(&mut self, interp: &mut Interp) {
        let mut i = 0;
        while i < self.in_flight.len() {
            match self.in_flight[i].ticket.try_ready() {
                None => i += 1,
                Some(outcome) => {
                    let pending = self.in_flight.swap_remove(i);
                    self.finish_compile(pending.kind, outcome, interp);
                }
            }
        }
    }

    /// Blocking drain, called when the program finishes: the monitor's
    /// final state (trees, counters, the persisted cache image) must not
    /// depend on how fast the workers were.
    fn drain_compiles(&mut self, interp: &mut Interp) {
        while let Some(pending) = self.in_flight.pop() {
            let outcome = pending.ticket.wait();
            self.finish_compile(pending.kind, outcome, interp);
        }
    }

    /// Absorbs one finished background compile: install on success,
    /// site-failure accounting on pipeline failure (mirroring the sync
    /// path's abort handling).
    fn finish_compile(
        &mut self,
        kind: PendingKind,
        outcome: CompileOutcome,
        interp: &mut Interp,
    ) {
        match (kind, outcome) {
            (PendingKind::Root { anchor }, CompileOutcome::Done { recorded, fragment }) => {
                self.slots[anchor.func.0 as usize][anchor.loop_id.0 as usize]
                    .compiling = false;
                let mut recorded = *recorded;
                self.count_fast_helpers(&mut recorded);
                self.absorb_compiled_fragment_stats(&fragment);
                self.install_root_tree(anchor, recorded, *fragment);
                self.forgive_outer_loops(anchor, interp);
                self.profiler.stats.compile_jobs_installed += 1;
            }
            (PendingKind::Root { anchor }, CompileOutcome::Failed(_)) => {
                self.slots[anchor.func.0 as usize][anchor.loop_id.0 as usize]
                    .compiling = false;
                self.profiler.stats.compile_jobs_failed += 1;
                self.handle_record_failure(anchor, AbortReason::CompileFailed, interp);
            }
            (
                PendingKind::Branch { tid, frag, exit },
                CompileOutcome::Done { recorded, fragment },
            ) => {
                self.in_flight_exits.remove(&(tid, frag, exit));
                if self.cache.tree(tid).exit_states[frag as usize][exit as usize]
                    .branch
                    .is_some()
                {
                    // Raced with another install path (e.g. the whole tree
                    // arrived from the shared cache meanwhile); drop it.
                    return;
                }
                let mut recorded = *recorded;
                self.count_fast_helpers(&mut recorded);
                self.absorb_compiled_fragment_stats(&fragment);
                self.install_branch(tid, frag, exit, recorded, *fragment);
                self.profiler.stats.compile_jobs_installed += 1;
            }
            (PendingKind::Branch { tid, frag, exit }, CompileOutcome::Failed(_)) => {
                self.in_flight_exits.remove(&(tid, frag, exit));
                self.events.push(TraceEvent::RecordAbort {
                    reason: AbortReason::CompileFailed,
                });
                self.profiler.stats.traces_aborted += 1;
                self.profiler.stats.compile_jobs_failed += 1;
                self.record_exit_failure(tid, frag, exit);
            }
        }
    }

    /// The profiler accounting for one compiled fragment, whichever
    /// thread compiled it.
    fn absorb_compiled_fragment_stats(&mut self, frag: &Fragment) {
        if self.opts.enable_fusion {
            self.profiler.stats.fused_superinsts += u64::from(frag.fuse_stats.superinsts);
            self.profiler.stats.fuse_insts_removed +=
                u64::from(frag.fuse_stats.raw_insts - frag.fuse_stats.fused_insts);
        }
        self.profiler.stats.fragments += 1;
    }

    /// Enters tree `tid` at its trunk: builds the activation record from
    /// interpreter state, executes fragments natively, and restores
    /// interpreter state at the exit.
    fn execute_tree_once(
        &mut self,
        tid: TreeId,
        interp: &mut Interp,
        realm: &mut Realm,
    ) -> Result<(u32, u16, ExitKind), RuntimeError> {
        Ok(self
            .execute_tree_from(tid, 0, interp, realm)?
            .expect("trunk entry was checked by the caller"))
    }

    /// Enters tree `tid` at fragment `start` (0 = trunk; >0 =
    /// monitor-mediated branch call). Returns `None` when the fragment's
    /// entry requirements don't match the interpreter state.
    fn execute_tree_from(
        &mut self,
        tid: TreeId,
        start: u32,
        interp: &mut Interp,
        realm: &mut Realm,
    ) -> Result<Option<(u32, u16, ExitKind)>, RuntimeError> {
        let entry_frame_idx = interp.frames.len() - 1;
        let (frags, mut ar) = {
            let tree = self.cache.tree(tid);
            let mut ar = vec![0u64; tree.layout.len()];
            for &(slot, key, ty) in &tree.frag_entry_reqs[start as usize] {
                let Some(v) = read_slot_value(interp, realm, entry_frame_idx, key) else {
                    return Ok(None);
                };
                if !value_matches(realm, v, ty) {
                    return Ok(None);
                }
                ar[slot as usize] = unbox_to_word(realm, v, ty);
            }
            (tree.fragments.clone(), ar)
        };
        self.cache.tree_mut(tid).stats.enters += 1;
        self.profiler.stats.trace_enters += 1;

        self.profiler.switch(Activity::Native);
        // The interpreter's step budget extends to native execution: trace
        // loop edges bail out when the (approximate) fuel runs out.
        let fuel = interp.steps_remaining;
        // Native tier: the tree's code is built from whatever fragments
        // it has at its first execution (so trees loaded from a cache that
        // never run cost nothing) and grown by `install_branch` after
        // that. The handle is cloned out of the tree: the nesting host
        // below needs `&mut self`, so the run cannot borrow the cache.
        let native = if self.opts.native_backend {
            let tree = self.cache.tree_mut(tid);
            if matches!(tree.native, NativeCode::NotEmitted) {
                tree.native = build_native(&frags, &mut self.profiler.stats);
            }
            match &tree.native {
                NativeCode::Code(nt) => {
                    self.profiler.stats.native_exits += 1;
                    Some(Arc::clone(nt))
                }
                _ => {
                    self.profiler.stats.native_fallbacks += 1;
                    None
                }
            }
        } else {
            None
        };
        let mut host = NestHost { monitor: self, interp, outer: tid, entry_frame_idx };
        let trace_exit = if let Some(nt) = native {
            nt.execute(start, &mut ar, realm, &mut host, fuel)?
        } else {
            execute(&frags, start, &mut ar, realm, &mut host, fuel)?
        };
        self.profiler.switch(Activity::Monitor);
        interp.steps_remaining = interp.steps_remaining.saturating_sub(trace_exit.insts);
        if interp.steps_remaining == 0 {
            // Restore state first so the error surfaces cleanly.
            interp.steps_remaining = 1;
            let exit_info = &self.cache.tree(tid).exits[trace_exit.fragment as usize]
                [trace_exit.exit as usize];
            if exit_info.kind != ExitKind::NestedUnexpected {
                restore_exit_state(exit_info, &ar, entry_frame_idx, interp, realm);
            }
            return Err(RuntimeError::StepBudgetExhausted);
        }

        // Figure 11 accounting: bytecode-equivalents executed natively.
        {
            let tree = self.cache.tree_mut(tid);
            tree.stats.iterations += trace_exit.iterations;
            tree.stats.monitor_exits += 1;
            let trunk_bc = u64::from(tree.fragment_bytecodes[0]);
            let exit_bc =
                u64::from(tree.fragment_bytecodes[trace_exit.fragment as usize]) / 2;
            self.profiler.stats.bytecodes_native +=
                trace_exit.iterations * trunk_bc + exit_bc;
            self.profiler.stats.native_insts += trace_exit.insts;
            self.profiler.stats.native_insts_fused += trace_exit.fused_insts;
            self.profiler.stats.side_exits += 1;
        }

        // §3.3 short-loop mitigation: a tree whose calls execute too few
        // bytecodes costs more in transitions than it saves; disable it.
        {
            let tree = self.cache.tree(tid);
            if !tree.disabled && tree.stats.enters >= USELESS_PROBATION {
                let avg = tree.stats.native_bytecodes(tree.fragment_bytecodes[0])
                    / tree.stats.enters.max(1);
                if avg < MIN_USEFUL_BYTECODES {
                    // The monitor never enters the tree again; only a
                    // nested-call site recorded earlier still can. With no
                    // such site the machine code is dead: give it back.
                    let still_called = self.is_nested_callee(tid);
                    let tree = self.cache.tree_mut(tid);
                    tree.disabled = true;
                    if !still_called {
                        tree.native = NativeCode::NotEmitted;
                    }
                }
            }
        }
        self.events.push(TraceEvent::SideExit {
            tree: tid.0,
            fragment: trace_exit.fragment,
            exit: trace_exit.exit,
        });
        let exit_info = &self.cache.tree(tid).exits[trace_exit.fragment as usize]
            [trace_exit.exit as usize];
        let kind = exit_info.kind;
        if kind != ExitKind::NestedUnexpected {
            restore_exit_state(exit_info, &ar, entry_frame_idx, interp, realm);
        }
        if realm.heap.gc_pending {
            let roots = interp.roots();
            realm.collect_garbage(&roots);
        }
        Ok(Some((trace_exit.fragment, trace_exit.exit, kind)))
    }

    /// Whether any tree's nested-call site calls tree `tid`.
    fn is_nested_callee(&self, tid: TreeId) -> bool {
        self.cache.iter().any(|t| t.nested_sites.iter().any(|s| s.inner == tid))
    }
}

/// Builds a tree's native code from all of `frags`: what first execution
/// does, and what a branch install falls back to when the code cannot
/// grow in place.
fn build_native(frags: &[Fragment], stats: &mut ProfileStats) -> NativeCode {
    match emit_tree(frags) {
        Ok(nt) => {
            stats.native_fragments += frags.len() as u64;
            stats.native_emissions_sync += 1;
            NativeCode::Code(Arc::new(nt))
        }
        Err(_) => NativeCode::Refused,
    }
}

/// Restores interpreter state from the activation record according to a
/// side exit's recipe: boxes written slots back, synthesizes inlined
/// frames, and positions the pc (§6.1: "it pops or synthesizes interpreter
/// JavaScript call stack frames as needed [and] copies the imported
/// variables back").
fn restore_exit_state(
    exit: &SideExitInfo,
    ar: &[u64],
    entry_frame_idx: usize,
    interp: &mut Interp,
    realm: &mut Realm,
) {
    // Drop any frames above the entry frame (stale state from an inner
    // tree's deeper exit, superseded by this outer exit).
    interp.frames.truncate(entry_frame_idx + 1);
    let entry_base = interp.frames[entry_frame_idx].base as usize;
    let entry_func = interp.frames[entry_frame_idx].func;
    let entry_nlocals = interp.prog().function(entry_func).nlocals as usize;
    interp.stack.truncate(entry_base + entry_nlocals);

    // Globals and entry-frame locals write back in place.
    for &(slot, key, ty) in &exit.write_back {
        match key {
            SlotKey::Global(g) => {
                let v = box_from_word(realm, ar[slot as usize], ty);
                realm.set_global(g, v);
            }
            SlotKey::Local { depth: 0, slot: l } => {
                let v = box_from_word(realm, ar[slot as usize], ty);
                interp.stack[entry_base + l as usize] = v;
            }
            _ => {}
        }
    }
    // Entry-frame operand stack, in push order.
    push_frame_stack(exit, 0, ar, interp, realm);
    interp.frames[entry_frame_idx].pc = exit.frames[0].resume_pc;

    // Synthesize inlined frames (§3.1 frame reconstruction).
    for (d, fd) in exit.frames.iter().enumerate().skip(1) {
        let d8 = d as u8;
        // The callee function object sits beneath the frame.
        interp.stack.push(Value::from_raw(fd.callee_raw));
        let base = interp.stack.len();
        let nlocals = interp.prog().function(fd.func).nlocals;
        for want in 0..nlocals {
            let mut v = Value::UNDEFINED;
            for &(slot, key, ty) in &exit.write_back {
                if key == (SlotKey::Local { depth: d8, slot: want }) {
                    v = box_from_word(realm, ar[slot as usize], ty);
                    break;
                }
            }
            interp.stack.push(v);
        }
        push_frame_stack(exit, d8, ar, interp, realm);
        interp.frames.push(tm_interp::Frame {
            func: fd.func,
            pc: fd.resume_pc,
            base: base as u32,
            is_construct: fd.is_construct,
        });
    }
}

/// Reads the interpreter-visible value for `key` relative to
/// `entry_frame_idx`, or `None` when the location is not materialized.
fn read_slot_value(
    interp: &Interp,
    realm: &Realm,
    entry_frame_idx: usize,
    key: SlotKey,
) -> Option<Value> {
    match key {
        SlotKey::Global(g) => Some(realm.global(g)),
        SlotKey::Local { depth, slot } => {
            let fidx = entry_frame_idx + depth as usize;
            if fidx >= interp.frames.len() {
                return None;
            }
            Some(interp.local_at(fidx, slot))
        }
        SlotKey::Stack { depth, idx } => {
            let fidx = entry_frame_idx + depth as usize;
            if fidx >= interp.frames.len() {
                return None;
            }
            let frame = interp.frames[fidx];
            let nlocals = interp.prog().function(frame.func).nlocals as usize;
            let pos = frame.base as usize + nlocals + idx as usize;
            // The entry must be within this frame's live operand stack.
            let limit = interp
                .frames
                .get(fidx + 1)
                .map(|next| next.base as usize - 1)
                .unwrap_or(interp.stack.len());
            if pos >= limit {
                return None;
            }
            Some(interp.stack[pos])
        }
        SlotKey::Reimport { .. } => None,
    }
}

/// Pushes frame `depth`'s operand-stack entries in index order.
fn push_frame_stack(
    exit: &SideExitInfo,
    depth: u8,
    ar: &[u64],
    interp: &mut Interp,
    realm: &mut Realm,
) {
    for want in 0..exit.frames[depth as usize].stack_depth {
        let mut found = None;
        for &(slot, key, ty) in &exit.write_back {
            if key == (SlotKey::Stack { depth, idx: want }) {
                found = Some(box_from_word(realm, ar[slot as usize], ty));
                break;
            }
        }
        interp.stack.push(found.expect("exit stack entries are written"));
    }
}

/// Errors internal to the recording driver.
enum RecordError {
    Guest(RuntimeError),
    ProgramFinished(Value),
}

/// The nesting host: executes inner trees on behalf of `CallTree`
/// instructions in outer traces (§4.1).
struct NestHost<'a> {
    monitor: &'a mut Monitor,
    interp: &'a mut Interp,
    outer: TreeId,
    entry_frame_idx: usize,
}

impl TreeHost for NestHost<'_> {
    fn call_tree(
        &mut self,
        site_id: u32,
        ar: &mut [u64],
        realm: &mut Realm,
    ) -> Result<bool, RuntimeError> {
        let (inner, expected_exit) = {
            let tree = self.monitor.cache.tree(self.outer);
            let site = &tree.nested_sites[site_id as usize];
            // 1. Sync outer AR → interpreter state at the call site.
            restore_exit_state(&site.callsite, ar, self.entry_frame_idx, self.interp, realm);
            (site.inner, site.expected_exit)
        };

        // 2. Entry check for the inner tree.
        if !self.monitor.cache.tree(inner).entry_matches(realm, self.interp) {
            return Ok(false);
        }

        // 3. Execute the inner tree (recursing through this host for its
        //    own nested calls).
        let (frag, exit, _kind) =
            self.monitor.execute_tree_once(inner, self.interp, realm)?;
        if (frag, exit) != expected_exit {
            // §4.1 "we must guard on it after the call, and side exit if
            // the property does not hold."
            self.monitor.pending_inner_exit = Some((inner, frag, exit));
            return Ok(false);
        }

        // 4. Refresh the outer AR from interpreter state: everything the
        // outer trace re-reads (`reimports`, in private slots), plus every
        // global/local slot that was synced to the interpreter at the call
        // site or is a loop-persistent write — the inner tree may have
        // modified those interpreter locations, and later outer exits
        // write them back from the AR.
        let tree = self.monitor.cache.tree(self.outer);
        let site = &tree.nested_sites[site_id as usize];
        let inner_top = self.interp.frames.len() - 1;
        // Later entries overwrite earlier ones, so the call-site types
        // (what post-call exits expect for slots written before the call)
        // take precedence over generic entry/loop-edge types; reimports
        // use private slots and never collide. Entry slots must also be
        // refreshed: branch fragments read them, and the inner tree may
        // have changed the underlying location.
        let entry_refresh = tree
            .entry
            .iter()
            .filter(|e| matches!(e.key, SlotKey::Global(_) | SlotKey::Local { .. }))
            .map(|e| (e.ar, e.key, e.ty));
        let refresh = entry_refresh
            .chain(tree.loop_writes.iter().copied())
            .chain(
                site.callsite
                    .write_back
                    .iter()
                    .filter(|&&(_, key, _)| {
                        matches!(key, SlotKey::Global(_) | SlotKey::Local { .. })
                    })
                    .copied(),
            )
            .chain(site.reimports.iter().copied());
        for (slot, key, ty) in refresh {
            let v = match key {
                SlotKey::Global(g) => realm.global(g),
                SlotKey::Local { depth, slot } => {
                    let idx = self.entry_frame_idx + depth as usize;
                    if idx > inner_top {
                        return Ok(false);
                    }
                    self.interp.local_at(idx, slot)
                }
                SlotKey::Stack { depth, idx } => {
                    let fidx = self.entry_frame_idx + depth as usize;
                    if fidx > inner_top {
                        return Ok(false);
                    }
                    let frame = self.interp.frames[fidx];
                    let nlocals =
                        self.interp.prog().function(frame.func).nlocals as usize;
                    let pos = frame.base as usize + nlocals + idx as usize;
                    self.interp.stack[pos]
                }
                SlotKey::Reimport { .. } => {
                    unreachable!("reimport lists store source keys")
                }
            };
            if !value_matches(realm, v, ty) {
                return Ok(false);
            }
            ar[slot as usize] = unbox_to_word(realm, v, ty);
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(t.fragments[0].stitch.iter().all(|&e| e == tm_nanojit::EXIT_UNSTITCHED));
    }

    #[test]
    fn cold_loops_are_not_compiled() {
        // Only one crossing: below the hotness threshold of 2.
        let vm = traced("var s = 0; for (var i = 0; i < 0; i++) s += i; s");
        assert_eq!(vm.monitor().unwrap().cache.len(), 0);
    }

    #[test]
    fn hotness_threshold_is_respected() {
        let mut opts = JitOptions::default();
        opts.hotness_threshold = 1000;
        let mut vm = Vm::with_options(Engine::Tracing, opts);
        vm.eval("var s = 0; for (var i = 0; i < 100; i++) s += i; s").unwrap();
        assert_eq!(vm.monitor().unwrap().cache.len(), 0, "loop never reaches 1000 crossings");
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
        let mut opts = JitOptions::default();
        opts.hot_exit_threshold = u32::MAX; // branches never become hot
        let mut vm = Vm::with_options(Engine::Tracing, opts);
        vm.eval("var a = 0; for (var i = 0; i < 500; i++) { if (i % 2) a++; else a--; } a")
            .unwrap();
        let m = vm.monitor().unwrap();
        for t in m.cache.iter() {
            assert_eq!(t.fragments.len(), 1, "no branch fragments without hot exits");
        }
    }

    /// A three-iteration loop in a function called 200 times: every entry
    /// runs far fewer than `MIN_USEFUL_BYTECODES`, so the tree fails its
    /// §3.3 probation.
    const SHORT_LOOP_CALLS: &str = "\
        function f() { var s = 0; for (var i = 0; i < 3; i++) s += i; return s; }
        var t = 0; for (var j = 0; j < 200; j++) t += f(); t";

    #[test]
    fn a_tree_failing_probation_gives_its_code_back() {
        if !tm_nanojit::native_supported() {
            return;
        }
        // Nesting off: no outer tree, so nothing calls the loop's tree.
        let opts = JitOptions { enable_nesting: false, profile: true, ..JitOptions::default() };
        let mut vm = Vm::with_options(Engine::Tracing, opts);
        vm.eval(SHORT_LOOP_CALLS).expect("runs");
        let m = vm.monitor().unwrap();
        assert!(m.profiler.stats.native_exits > 0, "the tree ran natively first");
        let t = m.cache.iter().find(|t| t.disabled).expect("the short loop is disabled");
        assert!(t.stats.enters >= USELESS_PROBATION);
        assert!(matches!(t.native, NativeCode::NotEmitted), "{:?}", t.native);
    }

    #[test]
    fn a_disabled_tree_an_outer_tree_still_calls_keeps_its_code() {
        if !tm_nanojit::native_supported() {
            return;
        }
        let opts = JitOptions { profile: true, ..JitOptions::default() };
        let mut vm = Vm::with_options(Engine::Tracing, opts);
        vm.eval(SHORT_LOOP_CALLS).expect("runs");
        let m = vm.monitor().unwrap();
        let t = m.cache.iter().find(|t| t.disabled).expect("the short loop is disabled");
        assert!(m.is_nested_callee(t.id), "the outer loop's tree calls it");
        assert!(matches!(t.native, NativeCode::Code(_)), "{:?}", t.native);
        let s = &m.profiler.stats;
        assert_eq!(s.native_fallbacks, 0, "nested calls stay native: {s:?}");
        assert!(s.native_fragments <= s.fragments, "{s:?}");
    }

    #[test]
    fn read_slot_value_covers_frames_and_stack() {
        let mut realm = Realm::new();
        let ast = tm_frontend::parse("var g = 7; var x = 0;").unwrap();
        let prog = tm_bytecode::compile(&ast, &mut realm).unwrap();
        let mut interp = Interp::new(prog, &mut realm);
        let _ = interp.run(&mut realm).unwrap();
        interp.reset();
        let g = realm.lookup_global("g").unwrap();
        let v = read_slot_value(&interp, &realm, 0, SlotKey::Global(g));
        assert!(v.is_some());
        // Locals of the entry frame are readable; deeper frames are not.
        assert!(read_slot_value(&interp, &realm, 0, SlotKey::Local { depth: 0, slot: 0 })
            .is_some());
        assert!(read_slot_value(&interp, &realm, 0, SlotKey::Local { depth: 3, slot: 0 })
            .is_none());
        assert!(read_slot_value(&interp, &realm, 0, SlotKey::Reimport { site: 0, idx: 0 })
            .is_none());
    }
}
