//! The trace recorder (§3.1, §6.3).
//!
//! "The job of the trace recorder is to emit LIR with identical semantics
//! to the currently running interpreter bytecode trace." The monitor
//! single-steps the interpreter; before each bytecode executes, the
//! recorder inspects the operand stack, emits type-specialized LIR with
//! guards for every control-flow branch, type observation, shape-dependent
//! access, and integer overflow, and mirrors the interpreter's stack in a
//! shadow of SSA values.
//!
//! Guard exits snapshot the *pre-op* state: a failing guard resumes the
//! interpreter at the current bytecode with its operands still on the
//! (reconstructed) stack, so the interpreter simply re-executes the
//! instruction down the unrecorded path.
//!
//! This file keeps the recording's bookkeeping: the shadow frames and
//! slot tables, exit snapshots, frame entry and exit, loop closing and
//! nesting. What each bytecode means on typed values is lowered in
//! `lowering.rs`, which reaches this state only through the primitives
//! below (the fields are private to this module).

use tm_bytecode::{FuncId, LoopId};
use tm_interp::Interp;
use tm_lir::{ArSlot, ExitId, FilterOptions, Lir, LirBuffer, LirTrace, LirType};
use tm_runtime::{Helper, Realm, Value};
use tm_support::WordMap;

use crate::activation::{observed_type, ArLayout, SlotBinding, SlotKey};
use crate::events::AbortReason;
use crate::exit::{ExitKind, FrameDesc, SideExitInfo};
use crate::lowering::PendingNative;
use crate::oracle::{var_key, Oracle, VarKey};
use crate::tree::{Anchor, NestedSite, TreeId};

/// Shadow frames a recording may hold, the entry frame included: a call
/// that would inline one more aborts with `TooDeep`.
pub const MAX_INLINE_DEPTH: usize = 8;

// `SlotKey::Local` keys the frame depth in a `u8`: side exits cannot
// describe a deeper frame.
const _: () = assert!(MAX_INLINE_DEPTH <= u8::MAX as usize);

/// Recording aborts (`TraceTooLong`) beyond this many LIR instructions.
const MAX_TRACE_LEN: usize = 2048;

/// A shadow value: the SSA id computing an interpreter value, plus its
/// unboxed type (never `Boxed` on the shadow stack).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sv {
    /// SSA id in the LIR buffer.
    pub id: u32,
    /// Unboxed type.
    pub ty: LirType,
}

#[derive(Debug)]
struct ShadowFrame {
    func: FuncId,
    locals: Vec<Option<Sv>>,
    stack: Vec<Sv>,
    is_construct: bool,
    /// Resume pc of the frame *below* when this frame returns.
    caller_resume: u32,
    /// Raw boxed word of this frame's callee function object.
    callee_raw: u64,
}

/// What the monitor should do after a `record_op` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordAction {
    /// Step the interpreter; when `observe` is set, call
    /// [`Recorder::after_step`] afterwards.
    Step {
        /// Whether the recorder needs to see the result value.
        observe: bool,
    },
    /// The trace was completed (loop closed, left, or unstable-ended).
    Finished,
    /// Recording cannot continue.
    Abort(AbortReason),
    /// Reached an inner loop header (§4.1): the monitor must execute (or
    /// fail to find) a nested tree.
    InnerLoop {
        /// Inner loop's function.
        func: FuncId,
        /// Inner loop header pc.
        pc: u32,
        /// Inner loop's id (dense monitor-slot index).
        loop_id: LoopId,
    },
}

/// How the finished trace ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishKind {
    /// Type-stable loop: ends with `LoopBack`.
    StableLoop,
    /// Type-unstable: ends with an always-taken `End` exit (Figure 6).
    UnstableLoop,
    /// Left the loop (break / return / fell out): ends with `End`.
    Leave,
}

/// The completed product of a recording.
#[derive(Debug)]
pub struct RecordedTrace {
    /// The (forward-filtered) LIR; backward filters are the compiler's job.
    pub lir: LirTrace,
    /// Side-exit descriptors, indexed by exit id.
    pub exits: Vec<SideExitInfo>,
    /// Imports that must be added to the tree's entry type map.
    pub new_entry: Vec<SlotBinding>,
    /// The (possibly grown) AR layout.
    pub layout: ArLayout,
    /// Bytecodes covered by this trace.
    pub bytecodes: u32,
    /// How the trace ended.
    pub finish: FinishKind,
    /// Variables to demote in the oracle (set for unstable loops, §3.2).
    pub oracle_marks: Vec<VarKey>,
    /// Nested call sites created during this recording.
    pub nested_sites: Vec<NestedSite>,
    /// AR slots live at the loop edge.
    pub loop_live: Vec<ArSlot>,
    /// Loop-persistent writes (globals and entry-frame locals written by a
    /// looping trace): their values survive across iterations in the AR,
    /// so *every* exit of the tree must write them back.
    pub loop_writes: Vec<SlotBinding>,
    /// Builtin helpers emitted as typed fast calls (per-builtin trace
    /// counters; see DIAGNOSTICS.md).
    pub fast_helpers: Vec<Helper>,
}

/// Projects a side-exit descriptor down to the shape the verifier checks
/// (the verifier is below `tm-core` in the crate graph and cannot name
/// `SlotKey`/`SideExitInfo` itself).
pub fn exit_view(e: &SideExitInfo) -> tm_verifier::ExitView {
    tm_verifier::ExitView {
        stack_depths: e.frames.iter().map(|f| f.stack_depth).collect(),
        stack_writes: e
            .write_back
            .iter()
            .filter_map(|b| match b.key {
                SlotKey::Stack { depth, idx } => Some((depth, idx)),
                _ => None,
            })
            .collect(),
        write_back: e.write_back.iter().map(|b| (b.ar, b.ty)).collect(),
        typemap: e.typemap.iter().map(|b| (b.ar, b.ty)).collect(),
    }
}

impl RecordedTrace {
    /// Statically verifies the recorded LIR against its exit metadata
    /// (`tm-verifier`): SSA shape, operand types, exit-table consistency,
    /// and exit-map/stack balance.
    ///
    /// `base_entry` is the fragment's pre-existing entry state: empty for
    /// a root trace, the tree entry map merged with the parent exit's
    /// type map for a branch trace. The trace's own `new_entry` imports
    /// are appended automatically.
    ///
    /// # Errors
    ///
    /// Returns the first defect found.
    pub fn verify(
        &self,
        base_entry: &[(ArSlot, LirType)],
    ) -> Result<(), tm_verifier::VerifyError> {
        let mut entry: Vec<(ArSlot, LirType)> = base_entry.to_vec();
        for e in &self.new_entry {
            if !entry.iter().any(|&(s, _)| s == e.ar) {
                entry.push((e.ar, e.ty));
            }
        }
        let views: Vec<tm_verifier::ExitView> = self.exits.iter().map(exit_view).collect();
        tm_verifier::verify_trace(&self.lir, &views, &entry)
    }
}

/// What the entry frame's locals and the globals held when a root
/// recording started: the entry types of the loop-persistent writes the
/// trace never imports.
#[derive(Debug)]
struct StartTypes {
    locals: Vec<LirType>,
    globals: Vec<LirType>,
}

impl StartTypes {
    fn of(&self, key: SlotKey) -> Option<LirType> {
        match key {
            SlotKey::Global(g) => {
                Some(self.globals.get(g as usize).copied().unwrap_or(LirType::Undefined))
            }
            SlotKey::Local { depth: 0, slot } => self.locals.get(slot as usize).copied(),
            _ => None,
        }
    }
}

/// A table indexed by a dense id: an AR slot ([`ArLayout::slot`] hands
/// them out in order) or a global slot. Iteration visits the ids in
/// ascending order, so the lists built from it come out sorted.
#[derive(Debug)]
struct Dense<T>(Vec<Option<T>>);

impl<T: Copy> Dense<T> {
    fn new() -> Dense<T> {
        Dense(Vec::new())
    }

    fn get(&self, id: usize) -> Option<T> {
        self.0.get(id).copied().flatten()
    }

    fn insert(&mut self, id: usize, v: T) {
        if self.0.len() <= id {
            self.0.resize(id + 1, None);
        }
        self.0[id] = Some(v);
    }

    fn retain(&mut self, keep: impl Fn(T) -> bool) {
        for e in &mut self.0 {
            if e.is_some_and(|v| !keep(v)) {
                *e = None;
            }
        }
    }

    fn clear(&mut self) {
        self.0.clear();
    }
}

/// What the recorder knows of each AR slot: the key it shadows and the
/// type it holds.
type SlotTable = Dense<(SlotKey, LirType)>;

impl SlotTable {
    /// The slots whose key `keep` accepts, in AR order.
    fn bindings(&self, keep: impl Fn(SlotKey) -> bool) -> Vec<SlotBinding> {
        let slots = self.0.iter().enumerate();
        slots
            .filter_map(|(ar, e)| {
                let (key, ty) = (*e)?;
                keep(key).then_some(SlotBinding { ar: ar as ArSlot, key, ty })
            })
            .collect()
    }
}

/// The trace recorder. One instance per recording attempt.
pub struct Recorder {
    buf: LirBuffer,
    layout: ArLayout,
    /// Known entry types per key (branch: seeded from the parent exit's
    /// type map; root: filled as imports happen).
    entry_types: WordMap<SlotKey, LirType>,
    new_entry: Vec<SlotBinding>,
    frames: Vec<ShadowFrame>,
    globals: Dense<Sv>,
    /// Cumulative write set: AR slots whose interpreter locations are
    /// stale (includes the parent path for branch traces).
    written: SlotTable,
    /// Cumulative type knowledge (writes ∪ imports).
    known: SlotTable,
    exits: Vec<SideExitInfo>,
    anchor: Anchor,
    anchor_range: (u32, u32),
    /// The tree entry map the loop edge must re-establish (empty for root
    /// recordings, which build their own in `new_entry`).
    existing_entry: Vec<SlotBinding>,
    ops_recorded: u32,
    nested_sites: Vec<NestedSite>,
    nested_site_base: u32,
    /// Inner anchors nested-called during this recording, by the frame
    /// depth they were reached at: hitting the same anchor twice in one
    /// frame means the inner tree exited mid-loop and we are circling it —
    /// the paper's "the interpreter PC is in the inner tree, so we cannot
    /// continue recording" case (§4.1). A frame's anchors go when it
    /// returns, so a second call of the same function is a second site.
    nested_anchors: Vec<(u8, FuncId, u32)>,
    /// The inner anchor this recording last reached: the one a provisional
    /// abort waited on (§4.2).
    last_inner: Option<(FuncId, u32)>,
    /// Root recordings only: the types the entry frame's locals and the
    /// globals held when recording started.
    start: Option<StartTypes>,
    active_site: Option<usize>,
    /// The variables the last nested call's expected exit writes back, in
    /// this trace's keys, at the types the host refreshes them with.
    returned: Vec<(SlotKey, LirType)>,
    pending_nested_exit: Option<ExitId>,
    pending_native: Option<(PendingNative, u32)>,
    oracle_marks: Vec<VarKey>,
    finish: Option<FinishKind>,
    loop_writes: Vec<SlotBinding>,
    // Per-op guard-exit state (see module docs).
    cur_exit: Option<ExitId>,
    pre_pc: u32,
    pre_depths: Vec<u16>,
    /// Whether the oracle permits integer speculation at the current
    /// bytecode site.
    site_ok: bool,
    /// Builtin helpers emitted as typed fast calls during this recording
    /// (diagnostics: the per-builtin trace counters in DIAGNOSTICS.md).
    fast_helpers: Vec<Helper>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("anchor", &self.anchor)
            .field("ops_recorded", &self.ops_recorded)
            .field("frames", &self.frames.len())
            .finish()
    }
}

impl Recorder {
    /// The one constructor: a recording at `anchor` with nothing shadowed
    /// yet but `frames`.
    fn new(
        anchor: Anchor,
        anchor_range: (u32, u32),
        layout: ArLayout,
        existing_entry: Vec<SlotBinding>,
        nested_site_base: u32,
        frames: Vec<ShadowFrame>,
        start: Option<StartTypes>,
    ) -> Recorder {
        Recorder {
            buf: LirBuffer::new(FilterOptions::default()),
            layout,
            entry_types: WordMap::default(),
            new_entry: Vec::new(),
            frames,
            globals: Dense::new(),
            written: Dense::new(),
            known: Dense::new(),
            exits: Vec::new(),
            anchor,
            anchor_range,
            existing_entry,
            ops_recorded: 0,
            nested_sites: Vec::new(),
            nested_site_base,
            nested_anchors: Vec::new(),
            last_inner: None,
            start,
            active_site: None,
            returned: Vec::new(),
            pending_nested_exit: None,
            pending_native: None,
            oracle_marks: Vec::new(),
            finish: None,
            loop_writes: Vec::new(),
            cur_exit: None,
            pre_pc: 0,
            pre_depths: Vec::new(),
            site_ok: true,
            fast_helpers: Vec::new(),
        }
    }

    /// Starts recording a root (trunk) trace at `anchor`. The interpreter
    /// must be positioned just past the anchor's `LoopHeader`.
    pub fn new_root(
        anchor: Anchor,
        anchor_range: (u32, u32),
        interp: &Interp,
        realm: &Realm,
    ) -> Recorder {
        let func = interp.frame().func;
        let nlocals = interp.prog().function(func).nlocals;
        let start = StartTypes {
            locals: (0..nlocals).map(|l| observed_type(interp.local(l))).collect(),
            globals: realm.globals.iter().map(|&v| observed_type(v)).collect(),
        };
        let frame = ShadowFrame {
            func,
            locals: vec![None; nlocals as usize],
            stack: Vec::new(),
            is_construct: false,
            caller_resume: 0,
            callee_raw: 0,
        };
        let (layout, entry) = (ArLayout::new(), Vec::new());
        Recorder::new(anchor, anchor_range, layout, entry, 0, vec![frame], Some(start))
    }

    /// Starts recording a branch trace from a side exit of an existing
    /// tree. The interpreter must be positioned at the exit's resume
    /// state.
    pub fn new_branch(
        anchor: Anchor,
        anchor_range: (u32, u32),
        layout: ArLayout,
        existing_entry: Vec<SlotBinding>,
        parent_exit: &SideExitInfo,
        nested_site_base: u32,
        interp: &Interp,
    ) -> Recorder {
        // A branch recorded from anywhere but where its parent exit
        // resumes describes another state.
        let resume_pc = parent_exit.frames.last().expect("frames").resume_pc;
        debug_assert_eq!(interp.frame().pc, resume_pc, "a branch starts at its parent's resume pc");
        // Rebuild shadow frames; locals import lazily (deeper-frame locals
        // not in the parent type map are still their initial undefined).
        // `snapshot_exit` derives a non-top frame's resume pc from the
        // frame *above* it (`frames[d].resume_pc == shadow[d+1].caller_resume`),
        // so the inversion reads the frame *below*: frame `d` was entered
        // from the call site its caller resumes at.
        let frames = parent_exit.frames.iter().enumerate().map(|(d, fd)| ShadowFrame {
            func: fd.func,
            locals: vec![None; interp.prog().function(fd.func).nlocals as usize],
            stack: Vec::new(),
            is_construct: fd.is_construct,
            caller_resume: if d == 0 { 0 } else { parent_exit.frames[d - 1].resume_pc },
            callee_raw: fd.callee_raw,
        });
        let frames = frames.collect();
        let mut rec = Recorder::new(
            anchor,
            anchor_range,
            layout,
            existing_entry,
            nested_site_base,
            frames,
            None,
        );
        // Every existing tree-entry slot is already populated at tree
        // entry: seed its type first so the branch never re-adds it as a
        // duplicate (conflicting) entry.
        for e in &rec.existing_entry {
            rec.entry_types.insert(e.key, e.ty);
        }
        // Everything the parent path established is importable at its
        // recorded type (overriding the entry type when the parent path
        // rewrote the slot); the parent's cumulative writes remain *our*
        // writes for later exits.
        for b in &parent_exit.typemap {
            rec.entry_types.insert(b.key, b.ty);
            rec.known.insert(b.ar.into(), (b.key, b.ty));
        }
        for b in &parent_exit.write_back {
            rec.written.insert(b.ar.into(), (b.key, b.ty));
        }
        // Guard exits before the first op need a valid pre-state.
        rec.pre_pc = resume_pc;
        rec.pre_depths = parent_exit.frames.iter().map(|f| f.stack_depth).collect();
        // Materialize operand stacks eagerly (stack shadows are
        // structural); types come from the parent exit's type map (every
        // live stack entry was written by the parent path).
        for d in 0..rec.frames.len() {
            let depth = parent_exit.frames[d].stack_depth;
            for idx in 0..depth {
                let key = SlotKey::Stack { depth: d as u8, idx };
                debug_assert!(rec.entry_types.contains_key(&key), "stack entry not in parent map");
                let sv = rec.import_slot(key, None);
                rec.frames[d].stack.push(sv);
            }
        }
        rec
    }

    /// The LIR recorded so far (diagnostics).
    pub fn lir(&self) -> &LirTrace {
        self.buf.trace()
    }

    /// Number of bytecodes recorded so far.
    pub fn ops_recorded(&self) -> u32 {
        self.ops_recorded
    }

    /// The inner loop header this recording last reached, if any: what an
    /// `InnerTreeNotReady`/`InnerTreeCallFailed` abort waited on.
    pub fn last_inner(&self) -> Option<(FuncId, u32)> {
        self.last_inner
    }

    // ==== shadow-state primitives (the lowering's only way in) ====

    pub(crate) fn depth(&self) -> usize {
        self.frames.len() - 1
    }

    pub(crate) fn emit(&mut self, inst: Lir) -> u32 {
        self.buf.emit(inst)
    }

    /// Marks the current guard exit as an integer-speculation arithmetic
    /// guard: taken hot, the monitor demotes this bytecode site in the
    /// oracle so future recordings use the double path.
    pub(crate) fn arith_guard_exit(&mut self) -> ExitId {
        let e = self.guard_exit();
        let site = (self.frames[self.depth()].func, self.pre_pc);
        self.exits[e.0 as usize].arith_site = Some(site);
        e
    }

    /// Whether the oracle permits integer speculation at this bytecode.
    pub(crate) fn site_may_speculate(&self) -> bool {
        self.site_ok
    }

    /// The shared guard exit for the current bytecode (created lazily with
    /// the pre-op snapshot).
    pub(crate) fn guard_exit(&mut self) -> ExitId {
        if let Some(e) = self.cur_exit {
            return e;
        }
        let depths = std::mem::take(&mut self.pre_depths);
        let e = self.snapshot_exit(ExitKind::Branch, self.pre_pc, Some(&depths));
        self.pre_depths = depths;
        self.cur_exit = Some(e);
        e
    }

    /// Emits a call of `helper` on `args` that leaves through the current
    /// bytecode's guard exit.
    pub(crate) fn call(&mut self, helper: Helper, args: &[u32], ret: LirType) -> u32 {
        let exit = self.guard_exit();
        self.emit(Lir::Call { helper, args: args.into(), ret, exit })
    }

    /// Snapshots state into a new side exit. `depths` overrides the
    /// per-frame operand-stack depths (pre-op state); `None` = current.
    fn snapshot_exit(
        &mut self,
        kind: ExitKind,
        resume_pc: u32,
        depths: Option<&[u16]>,
    ) -> ExitId {
        let exit = self.buf.alloc_exit();
        debug_assert_eq!(exit.0 as usize, self.exits.len());

        let cur_depths: Vec<u16> =
            self.frames.iter().map(|f| f.stack.len() as u16).collect();
        let depths = depths.unwrap_or(&cur_depths);

        let top = self.frames.len() - 1;
        let mut frames = Vec::with_capacity(self.frames.len());
        for (d, f) in self.frames.iter().enumerate() {
            frames.push(FrameDesc {
                func: f.func,
                resume_pc: if d == top {
                    resume_pc
                } else {
                    self.frames[d + 1].caller_resume
                },
                stack_depth: depths[d],
                is_construct: f.is_construct,
                callee_raw: f.callee_raw,
            });
        }

        let nframes = self.frames.len();
        let keep = |key: SlotKey| -> bool {
            match key {
                SlotKey::Global(_) => true,
                SlotKey::Local { depth, .. } => (depth as usize) < nframes,
                SlotKey::Stack { depth, idx } => {
                    (depth as usize) < nframes && idx < depths[depth as usize]
                }
                SlotKey::Reimport { .. } => false,
            }
        };
        let write_back = self.written.bindings(keep);
        let typemap = self.known.bindings(keep);

        self.exits.push(SideExitInfo {
            kind,
            frames,
            write_back,
            oracle_hint: Vec::new(),
            typemap,
            arith_site: None,
        });
        exit
    }

    /// Imports an interpreter location.
    ///
    /// Before any nested call, the import becomes part of the tree's entry
    /// type map. After a nested call ("re-import"), the type is taken from
    /// the freshly observed value and the slot is refreshed by the nesting
    /// host instead of at tree entry.
    fn import_slot(&mut self, key: SlotKey, observed: Option<Value>) -> Sv {
        if let Some(site) = self.active_site {
            // Post-nested-call re-import: the refreshed value gets a
            // private slot the host populates after the inner call, at the
            // type the inner exit leaves, or else the one observed.
            let ty = match self.returned.iter().find(|&&(k, _)| k == key) {
                Some(&(_, ty)) => ty,
                None => observed_type(observed.expect("re-import needs an observed value")),
            };
            let idx = self.nested_sites[site].reimports.len() as u16;
            let site_id = self.nested_site_base + site as u32;
            let ar = self.layout.slot(SlotKey::Reimport { site: site_id, idx });
            self.nested_sites[site].reimports.push(SlotBinding { ar, key, ty });
            let id = self.emit(Lir::Import { slot: ar, ty });
            return Sv { id, ty };
        }
        let ar = self.layout.slot(key);
        let ty = match self.entry_types.get(&key) {
            Some(&t) => t,
            None => {
                let v = observed.expect("fresh import needs an observed value");
                let ty = observed_type(v);
                self.entry_types.insert(key, ty);
                self.new_entry.push(SlotBinding { ar, key, ty });
                ty
            }
        };
        let id = self.emit(Lir::Import { slot: ar, ty });
        self.known.insert(ar.into(), (key, ty));
        Sv { id, ty }
    }

    /// Marks an AR slot written, emitting the store.
    fn write_ar(&mut self, key: SlotKey, sv: Sv) {
        let ar = self.layout.slot(key);
        self.emit(Lir::WriteAr { slot: ar, v: sv.id });
        self.written.insert(ar.into(), (key, sv.ty));
        self.known.insert(ar.into(), (key, sv.ty));
    }

    pub(crate) fn push(&mut self, sv: Sv) {
        let depth = self.depth() as u8;
        let idx = self.frames.last().expect("frame").stack.len() as u16;
        self.frames.last_mut().expect("frame").stack.push(sv);
        self.write_ar(SlotKey::Stack { depth, idx }, sv);
    }

    pub(crate) fn pop(&mut self) -> Sv {
        self.frames.last_mut().expect("frame").stack.pop().expect("shadow stack underflow")
    }

    /// Pops the top `n` entries, returned bottom first.
    pub(crate) fn pop_n(&mut self, n: usize) -> Vec<Sv> {
        let stack = &mut self.frames.last_mut().expect("frame").stack;
        stack.split_off(stack.len() - n)
    }

    pub(crate) fn peek(&self, from_top: usize) -> Sv {
        let st = &self.frames.last().expect("frame").stack;
        st[st.len() - 1 - from_top]
    }

    pub(crate) fn set_stack_from_top(&mut self, from_top: usize, sv: Sv) {
        let depth = self.depth() as u8;
        let len = self.frames.last().expect("frame").stack.len();
        let idx = len - 1 - from_top;
        self.frames.last_mut().expect("frame").stack[idx] = sv;
        self.write_ar(SlotKey::Stack { depth, idx: idx as u16 }, sv);
    }

    /// Applies the oracle before an Int entry type is chosen (§3.2).
    fn oracle_adjust(&mut self, key: SlotKey, v: Value, oracle: &Oracle) {
        if self.entry_types.contains_key(&key) {
            return;
        }
        if observed_type(v) == LirType::Int {
            let funcs: Vec<FuncId> = self.frames.iter().map(|f| f.func).collect();
            if let Some(vk) = var_key(key, &funcs) {
                if !oracle.may_speculate_int(vk) && self.active_site.is_none() {
                    let ar = self.layout.slot(key);
                    self.entry_types.insert(key, LirType::Double);
                    self.new_entry.push(SlotBinding { ar, key, ty: LirType::Double });
                }
            }
        }
    }

    pub(crate) fn local_sv(&mut self, slot: u16, interp: &Interp, oracle: &Oracle) -> Sv {
        let depth = self.depth();
        if let Some(sv) = self.frames[depth].locals[slot as usize] {
            return sv;
        }
        let key = SlotKey::Local { depth: depth as u8, slot };
        // A deeper-frame local that was never imported or written has no
        // populated AR slot; it is still its initial `undefined` (callee
        // locals are written eagerly at the inline call).
        let importable = depth == 0
            || self.entry_types.contains_key(&key)
            || self
                .layout
                .lookup(key)
                .is_some_and(|ar| self.known.get(ar.into()).is_some() && self.active_site.is_some());
        let sv = if importable {
            let v = interp.local(slot);
            self.oracle_adjust(key, v, oracle);
            self.import_slot(key, Some(v))
        } else {
            debug_assert!(interp.local(slot).is_undefined());
            self.undefined_sv()
        };
        self.frames[depth].locals[slot as usize] = Some(sv);
        sv
    }

    /// Writes variable `key`, a local of a live frame or a global.
    pub(crate) fn set_var(&mut self, key: SlotKey, sv: Sv) {
        match key {
            SlotKey::Global(g) => self.globals.insert(g as usize, sv),
            SlotKey::Local { depth, slot } => {
                self.frames[depth as usize].locals[slot as usize] = Some(sv);
            }
            SlotKey::Stack { .. } | SlotKey::Reimport { .. } => unreachable!("not a variable"),
        }
        self.write_ar(key, sv);
    }

    pub(crate) fn global_sv(&mut self, slot: u32, realm: &Realm, oracle: &Oracle) -> Sv {
        if let Some(sv) = self.globals.get(slot as usize) {
            return sv;
        }
        let key = SlotKey::Global(slot);
        let v = realm.global(slot);
        self.oracle_adjust(key, v, oracle);
        let sv = self.import_slot(key, Some(v));
        self.globals.insert(slot as usize, sv);
        sv
    }

    pub(crate) fn undefined_sv(&mut self) -> Sv {
        let id = self.emit(Lir::ConstBoxed(Value::UNDEFINED.raw()));
        Sv { id, ty: LirType::Undefined }
    }

    // ==== one bytecode ====

    /// Records the bytecode the interpreter is about to execute.
    pub fn record_op(
        &mut self,
        interp: &Interp,
        realm: &mut Realm,
        oracle: &Oracle,
    ) -> RecordAction {
        debug_assert!(self.finish.is_none(), "recording after finish");
        if self.buf.trace().code.len() > MAX_TRACE_LEN
            || self.buf.trace().num_exits > u16::MAX - 8
        {
            return RecordAction::Abort(AbortReason::TraceTooLong);
        }

        let frame = interp.frame();
        let pc = frame.pc;

        // Left the anchor loop? (§3.2 "the trace might exit the loop").
        if self.depth() == 0
            && !(self.anchor_range.0..self.anchor_range.1).contains(&pc)
        {
            self.finish_leave(pc);
            return RecordAction::Finished;
        }

        // Reset the per-op guard-exit state.
        self.cur_exit = None;
        self.pre_pc = pc;
        self.pre_depths.clear();
        self.pre_depths.extend(self.frames.iter().map(|f| f.stack.len() as u16));
        self.site_ok = oracle.may_speculate_int_site((frame.func, pc));
        self.ops_recorded += 1;

        let op = interp.current_op();
        match self.dispatch(op, interp, realm, oracle) {
            Ok(action) => action,
            Err(reason) => RecordAction::Abort(reason),
        }
    }

    /// Called by the monitor after stepping an instruction that needed its
    /// result observed (native calls).
    pub fn after_step(&mut self, interp: &Interp, realm: &mut Realm) {
        let Some((pending, call_id)) = self.pending_native.take() else {
            return;
        };
        let sv = self.native_result(pending, call_id, top_value(interp, 0), realm);
        self.push(sv);
    }

    /// Leaves a native call's result to [`Recorder::after_step`], which
    /// types it once the interpreter has run the call.
    pub(crate) fn await_native(&mut self, pending: PendingNative, call_id: u32) -> RecordAction {
        if let PendingNative::Fast(helper, _) = pending {
            self.fast_helpers.push(helper);
        }
        self.pending_native = Some((pending, call_id));
        RecordAction::Step { observe: true }
    }

    // ==== frames and loop headers ====

    /// Whether a call of `func` may be inlined into this trace.
    pub(crate) fn check_inline(&self, func: FuncId) -> Result<(), AbortReason> {
        // Recursion is not traced, as in TraceMonkey: inlining a function
        // that is already on the trace has no bound.
        if self.frames.iter().any(|f| f.func == func) {
            return Err(AbortReason::Recursive);
        }
        if self.frames.len() >= MAX_INLINE_DEPTH {
            return Err(AbortReason::TooDeep);
        }
        Ok(())
    }

    /// Enters an inlined frame of `func` whose locals start as `locals`
    /// (`this` first). Every local is written to the AR so exits inside
    /// the callee can synthesize the frame (§3.1: "frame entry and exit
    /// LIR saves just enough information to allow the interpreter call
    /// stack to be restored").
    pub(crate) fn enter_frame(
        &mut self,
        func: FuncId,
        is_construct: bool,
        callee_raw: u64,
        locals: Vec<Sv>,
    ) {
        self.frames.push(ShadowFrame {
            func,
            locals: Vec::new(), // installed after the AR writes below
            stack: Vec::new(),
            is_construct,
            caller_resume: self.pre_pc + 1,
            callee_raw,
        });
        let depth = self.depth() as u8;
        for (i, &sv) in locals.iter().enumerate() {
            self.write_ar(SlotKey::Local { depth, slot: i as u16 }, sv);
        }
        self.frames.last_mut().expect("frame").locals = locals.into_iter().map(Some).collect();
    }

    /// Records a return, of the top of the stack when `has_value`, else of
    /// `undefined`.
    pub(crate) fn return_from_frame(&mut self, has_value: bool) -> RecordAction {
        if self.frames.len() == 1 {
            // Returning out of the entry frame leaves the trace region.
            // Snapshot *before* popping the result: the interpreter
            // re-executes the Return at the exit and pops the result
            // itself.
            self.finish_leave(self.pre_pc);
            return RecordAction::Finished;
        }
        let result = if has_value { self.pop() } else { self.undefined_sv() };
        let frame = self.frames.pop().expect("frame");
        // The returned frame's slots name nothing now, and a call inlined
        // at this depth next may have fewer locals.
        let gone = self.frames.len() as u8;
        let alive = |(key, _): (SlotKey, LirType)| match key {
            SlotKey::Local { depth, .. } | SlotKey::Stack { depth, .. } => depth != gone,
            _ => true,
        };
        self.written.retain(alive);
        self.known.retain(alive);
        self.nested_anchors.retain(|&(depth, ..)| depth != gone);
        let result = if frame.is_construct && result.ty != LirType::Object {
            frame.locals[0].expect("this is always set")
        } else {
            result
        };
        self.push(result);
        RecordAction::Step { observe: false }
    }

    /// At a loop header: the anchor's closes the trace; any other is an
    /// inner loop the monitor must run as a nested tree (§4.1).
    pub(crate) fn loop_header(
        &mut self,
        interp: &Interp,
        loop_id: LoopId,
    ) -> Result<RecordAction, AbortReason> {
        let frame = interp.frame();
        if self.depth() == 0 && frame.func == self.anchor.func && frame.pc == self.anchor.pc {
            debug_assert!(
                self.frames[0].stack.is_empty(),
                "operand stack must be empty at a loop header"
            );
            self.finish_at_anchor();
            return Ok(RecordAction::Finished);
        }
        self.last_inner = Some((frame.func, frame.pc));
        let site = (self.depth() as u8, frame.func, frame.pc);
        if self.nested_anchors.contains(&site) {
            // We already called this inner tree from this frame and came
            // back around to its header: the inner call exited mid-loop,
            // so the outer trace cannot treat it as a subroutine. Abort
            // and let the inner tree grow (§4.1/§4.2).
            return Err(AbortReason::InnerTreeCallFailed);
        }
        self.nested_anchors.push(site);
        Ok(RecordAction::InnerLoop { func: frame.func, pc: frame.pc, loop_id })
    }

    // ==== nesting (§4) ====

    /// Prepares a nested tree call: snapshots the call-site exit before the
    /// monitor executes the inner tree on the live interpreter state.
    pub fn begin_nested(&mut self, header_pc: u32) {
        let e = self.snapshot_exit(ExitKind::NestedUnexpected, header_pc, None);
        self.pending_nested_exit = Some(e);
    }

    /// Completes a nested call after the monitor ran the inner tree (and
    /// the siblings its type-unstable exits led to, returning from
    /// `returns` through an exit writing back `returned`): records the
    /// `CallTree`, registers the site, and invalidates shadow state the
    /// inner tree may have changed.
    pub fn finish_nested(
        &mut self,
        inner: TreeId,
        returns: TreeId,
        expected_exit: (u32, u16),
        returned: &[SlotBinding],
    ) -> u32 {
        let exit = self.pending_nested_exit.take().expect("begin_nested first");
        let local = self.nested_sites.len();
        let site_id = self.nested_site_base + local as u32;
        let callsite = self.exits[exit.0 as usize].clone();
        self.nested_sites.push(NestedSite {
            inner,
            returns,
            expected_exit,
            reimports: Vec::new(),
            retyped: Vec::new(),
            callsite,
            callsite_exit: exit.0,
        });
        self.emit(Lir::CallTree { tree: site_id, exit });
        // Invalidate locals and globals (the inner tree may have written
        // them); operand stacks are unreachable from the inner loop.
        for f in &mut self.frames {
            for l in &mut f.locals {
                *l = None;
            }
        }
        self.globals.clear();
        self.active_site = Some(local);
        // The inner exit's keys are relative to the inner loop's frame.
        let depth = self.depth() as u8;
        let variables =
            returned.iter().filter(|b| matches!(b.key, SlotKey::Global(_) | SlotKey::Local { .. }));
        self.returned = variables.map(|b| (b.key.rebased(depth), b.ty)).collect();
        // The host refreshes a variable the inner exit writes back at the
        // exit's type: where this trace knew the slot at another, it
        // takes the refreshed value through a re-import, so that its
        // exits and loop edge see the type the slot holds.
        for (key, ty) in self.returned.clone() {
            let retyped = self
                .layout
                .lookup(key)
                .and_then(|ar| self.known.get(ar.into()))
                .is_some_and(|(_, was)| was != ty);
            if retyped {
                let sv = self.import_slot(key, None);
                self.set_var(key, sv);
                let ar = self.layout.slot(key);
                self.nested_sites[local].retyped.push(SlotBinding { ar, key, ty });
            }
        }
        site_id
    }

    /// Like [`Recorder::finish_nested`], additionally rebuilding the top
    /// frame's shadow operand stack from the inner tree's exit state (the
    /// inner exit may have left operands, e.g. a loop condition value).
    pub fn finish_nested_with_stack(
        &mut self,
        inner: TreeId,
        returns: TreeId,
        expected_exit: &SideExitInfo,
        exit: (u32, u16),
        interp: &Interp,
    ) -> u32 {
        let site = self.finish_nested(inner, returns, exit, &expected_exit.write_back);
        let stack_depth = expected_exit.frames[0].stack_depth;
        let depth = self.depth() as u8;
        self.frames.last_mut().expect("frame").stack.clear();
        for idx in 0..stack_depth {
            let key = SlotKey::Stack { depth, idx };
            let v = top_value(interp, (stack_depth - 1 - idx) as usize);
            let sv = self.import_slot(key, Some(v));
            self.frames.last_mut().expect("frame").stack.push(sv);
        }
        site
    }

    /// Abandons a prepared nested call (monitor failed to run the inner
    /// tree); the recording is being aborted anyway.
    pub fn cancel_nested(&mut self) {
        self.pending_nested_exit = None;
    }

    // ==== trace completion ====

    fn finish_leave(&mut self, pc: u32) {
        let e = self.snapshot_exit(ExitKind::LeaveLoop, pc, None);
        self.emit(Lir::End(e));
        self.finish = Some(FinishKind::Leave);
    }

    fn finish_at_anchor(&mut self) {
        // A loop-persistent write (a global or entry-frame local) the
        // trace never imported must still be populated at entry. A root
        // recording enters it at the type it held when recording started,
        // so that the tree can be entered from the state it was recorded
        // in (an int start takes a double edge as a double; a double
        // start, an int edge through the widening below); a branch has no
        // start state and keeps it only if the loop closes stable, at its
        // edge type. Pushed in AR order: the entry map, and with it the
        // sibling digest, is the same in every process.
        let mut fresh = self.written.bindings(|key| is_persistent(key) && !self.is_entry(key));
        debug_assert!(fresh.windows(2).all(|w| w[0].ar < w[1].ar), "slot tables walk in AR order");
        if let Some(start) = &self.start {
            for b in &mut fresh {
                let at_start = start.of(b.key).expect("persistent keys have a start type");
                b.ty = match (at_start, b.ty) {
                    (LirType::Int, LirType::Double) | (LirType::Double, LirType::Int) => {
                        LirType::Double
                    }
                    _ => at_start,
                };
                self.entry_types.insert(b.key, b.ty);
            }
            self.new_entry.append(&mut fresh);
        }
        // Type-stability analysis (§3.2): compare the loop-edge types of
        // every entry slot with the entry map.
        let entries: Vec<SlotBinding> = self.entries().copied().collect();
        let mut unstable = false;
        let mut coerce: Vec<(SlotBinding, Sv)> = Vec::new();
        for e in &entries {
            let cur_ty = self.known.get(e.ar.into()).map_or(e.ty, |(_, t)| t);
            if cur_ty == e.ty {
                continue;
            }
            if e.ty == LirType::Double && cur_ty == LirType::Int {
                // An int flowed into a double slot: widen at the edge.
                if let Some(sv) = self.edge_sv(e.key, cur_ty) {
                    coerce.push((*e, sv));
                    continue;
                }
            }
            unstable = true;
            if e.ty == LirType::Int && cur_ty == LirType::Double {
                // Integer mis-speculation: inform the oracle (§3.2).
                let funcs: Vec<FuncId> = self.frames.iter().map(|f| f.func).collect();
                if let Some(vk) = var_key(e.key, &funcs) {
                    self.oracle_marks.push(vk);
                }
            }
        }
        for (e, sv) in coerce {
            let d = self.emit(Lir::I2D(sv.id));
            self.write_ar(e.key, Sv { id: d, ty: LirType::Double });
        }
        if unstable {
            let e = self.snapshot_exit(ExitKind::Unstable, self.anchor.pc, None);
            self.emit(Lir::End(e));
            self.finish = Some(FinishKind::UnstableLoop);
        } else {
            // The trace loops: values written to globals / entry-frame
            // locals persist in the AR across iterations, so (a) they must
            // be entry-populated (first iteration would otherwise read or
            // write back garbage), and (b) *every* exit must write them
            // back (an exit on iteration k may be reached after the write
            // happened on iteration k-1).
            for b in fresh {
                self.entry_types.insert(b.key, b.ty);
                self.new_entry.push(b);
            }
            self.loop_writes = self.written.bindings(is_persistent);
            let e = self.snapshot_exit(ExitKind::LoopEdge, self.anchor.pc, None);
            self.emit(Lir::LoopBack(e));
            for exit in &mut self.exits {
                exit.add_loop_writes(&self.loop_writes);
            }
            self.finish = Some(FinishKind::StableLoop);
        }
    }

    /// Whether `key` is a *tree entry* slot (populated on every entry):
    /// `entry_types` also holds parent-path imports that are not, so this
    /// reads the entry lists themselves.
    fn is_entry(&self, key: SlotKey) -> bool {
        self.entries().any(|e| e.key == key)
    }

    /// The tree's entry map: the existing one, then this recording's
    /// imports.
    fn entries(&self) -> impl Iterator<Item = &SlotBinding> {
        self.existing_entry.iter().chain(&self.new_entry)
    }

    /// The value of `key` at the loop edge, as a `ty` the slot holds: its
    /// shadow value, or, for a slot a branch's parent path wrote and the
    /// branch never touched, an import of it. `None` after a nested call
    /// whose re-import is of another type than the slot's own.
    fn edge_sv(&mut self, key: SlotKey, ty: LirType) -> Option<Sv> {
        let sv = match self.current_sv_for(key) {
            Some(sv) => sv,
            None if self.active_site.is_none() && self.entry_types.get(&key) == Some(&ty) => {
                self.import_slot(key, None)
            }
            None => return None,
        };
        (sv.ty == ty).then_some(sv)
    }

    fn current_sv_for(&self, key: SlotKey) -> Option<Sv> {
        match key {
            SlotKey::Global(g) => self.globals.get(g as usize),
            SlotKey::Local { depth, slot } => self
                .frames
                .get(depth as usize)
                .and_then(|f| f.locals.get(slot as usize).copied().flatten()),
            SlotKey::Stack { .. } | SlotKey::Reimport { .. } => None,
        }
    }

    /// Consumes the recorder, producing the finished trace.
    ///
    /// # Panics
    ///
    /// Panics if recording did not finish (no `Finished` action).
    pub fn into_recorded(mut self) -> RecordedTrace {
        let finish = self.finish.expect("recording not finished");
        // Loop-write unioning may have grown the exits' write-back sets;
        // refresh the nested call sites' state-transfer recipes.
        for site in &mut self.nested_sites {
            site.callsite = self.exits[site.callsite_exit as usize].clone();
        }
        let loop_live: Vec<ArSlot> = self.entries().map(|e| e.ar).collect();
        RecordedTrace {
            lir: self.buf.into_trace(),
            exits: self.exits,
            new_entry: self.new_entry,
            layout: self.layout,
            bytecodes: self.ops_recorded,
            finish,
            oracle_marks: self.oracle_marks,
            nested_sites: self.nested_sites,
            loop_live,
            loop_writes: self.loop_writes,
            fast_helpers: self.fast_helpers,
        }
    }

}

/// Whether a write to `key` persists across loop iterations in the
/// activation record: globals and the entry frame's locals.
fn is_persistent(key: SlotKey) -> bool {
    matches!(key, SlotKey::Global(_) | SlotKey::Local { depth: 0, .. })
}

/// Reads the interpreter operand `from_top` entries below the top.
pub(crate) fn top_value(interp: &Interp, from_top: usize) -> Value {
    let ops = interp.operands();
    ops[ops.len() - 1 - from_top]
}
