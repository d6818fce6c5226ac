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

use std::collections::HashMap;

use tm_bytecode::{FuncId, LoopId, Op};
use tm_interp::Interp;
use tm_lir::{AluOp, ArSlot, ChkOp, CmpOp, ExitId, FOp, Lir, LirBuffer, LirTrace, LirType, Tag};
use tm_runtime::trace_helpers::FastTy;
use tm_runtime::{ops as rt_ops, Callee, Helper, IcKind, NativeId, ObjectClass, PropIc, Realm, Sym, Value};

use crate::activation::{observed_type, ArLayout, SlotBinding, SlotKey};
use crate::config::JitOptions;
use crate::events::AbortReason;
use crate::exit::{ExitKind, FrameDesc, SideExitInfo};
use crate::oracle::{var_key, Oracle, VarKey};
use crate::tree::{Anchor, NestedSite, TreeId};

/// Hard cap on shadow frames per recording: `SlotKey::Local` keys frame
/// depth in a `u8`, so side exits cannot describe deeper inlining no
/// matter what `max_inline_depth` is configured to.
const MAX_SHADOW_FRAMES: usize = 200;

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

#[derive(Debug, Clone, Copy)]
enum PendingNative {
    /// Generic boxed call: unbox the observed result.
    Generic,
    /// Typed fast call with result type; `CharCodeAt` additionally guards
    /// its NaN sentinel.
    Fast(Helper, FastTy),
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

/// The trace recorder. One instance per recording attempt.
pub struct Recorder {
    buf: LirBuffer,
    layout: ArLayout,
    /// Known entry types per key (branch: seeded from the parent exit's
    /// type map; root: filled as imports happen).
    entry_types: HashMap<SlotKey, LirType>,
    new_entry: Vec<SlotBinding>,
    frames: Vec<ShadowFrame>,
    globals: HashMap<u32, Sv>,
    /// Cumulative write set: AR slots whose interpreter locations are
    /// stale (includes the parent path for branch traces).
    written: HashMap<ArSlot, (SlotKey, LirType)>,
    /// Cumulative type knowledge (writes ∪ imports).
    known: HashMap<ArSlot, (SlotKey, LirType)>,
    exits: Vec<SideExitInfo>,
    anchor: Anchor,
    anchor_range: (u32, u32),
    /// The tree entry map the loop edge must re-establish (empty for root
    /// recordings, which build their own in `new_entry`).
    existing_entry: Vec<SlotBinding>,
    opts: JitOptions,
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
    /// Set by the fast-native helper: the last native call used the typed
    /// fast path.
    last_was_fast: bool,
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
    /// Starts recording a root (trunk) trace at `anchor`. The interpreter
    /// must be positioned just past the anchor's `LoopHeader`.
    pub fn new_root(
        anchor: Anchor,
        anchor_range: (u32, u32),
        interp: &Interp,
        realm: &Realm,
        opts: JitOptions,
    ) -> Recorder {
        let frame = interp.frame();
        let func = frame.func;
        let nlocals = interp.prog().function(func).nlocals;
        let start = StartTypes {
            locals: (0..nlocals).map(|l| observed_type(interp.local(l))).collect(),
            globals: realm.globals.iter().map(|&v| observed_type(v)).collect(),
        };
        Recorder {
            buf: LirBuffer::new(opts.filters),
            layout: ArLayout::new(),
            entry_types: HashMap::new(),
            new_entry: Vec::new(),
            frames: vec![ShadowFrame {
                func,
                locals: vec![None; nlocals as usize],
                stack: Vec::new(),
                is_construct: false,
                caller_resume: 0,
                callee_raw: 0,
            }],
            globals: HashMap::new(),
            written: HashMap::new(),
            known: HashMap::new(),
            exits: Vec::new(),
            anchor,
            anchor_range,
            existing_entry: Vec::new(),
            opts,
            ops_recorded: 0,
            nested_sites: Vec::new(),
            nested_site_base: 0,
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
            last_was_fast: false,
            fast_helpers: Vec::new(),
            nested_anchors: Vec::new(),
            last_inner: None,
            start: Some(start),
        }
    }

    /// Starts recording a branch trace from a side exit of an existing
    /// tree. The interpreter must be positioned at the exit's resume
    /// state.
    #[allow(clippy::too_many_arguments)]
    pub fn new_branch(
        anchor: Anchor,
        anchor_range: (u32, u32),
        layout: ArLayout,
        existing_entry: Vec<SlotBinding>,
        parent_exit: &SideExitInfo,
        nested_site_base: u32,
        interp: &Interp,
        opts: JitOptions,
    ) -> Recorder {
        // A branch recorded from anywhere but where its parent exit
        // resumes describes another state.
        let resume_pc = parent_exit.frames.last().expect("frames").resume_pc;
        debug_assert_eq!(interp.frame().pc, resume_pc, "a branch starts at its parent's resume pc");
        let mut rec = Recorder {
            buf: LirBuffer::new(opts.filters),
            layout,
            entry_types: HashMap::new(),
            new_entry: Vec::new(),
            frames: Vec::new(),
            globals: HashMap::new(),
            written: HashMap::new(),
            known: HashMap::new(),
            exits: Vec::new(),
            anchor,
            anchor_range,
            existing_entry,
            opts,
            ops_recorded: 0,
            nested_sites: Vec::new(),
            nested_site_base,
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
            last_was_fast: false,
            fast_helpers: Vec::new(),
            nested_anchors: Vec::new(),
            last_inner: None,
            start: None,
        };
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
            rec.known.insert(b.ar, (b.key, b.ty));
        }
        for b in &parent_exit.write_back {
            rec.written.insert(b.ar, (b.key, b.ty));
        }
        // Rebuild shadow frames; locals import lazily (deeper-frame locals
        // not in the parent type map are still their initial undefined).
        // `snapshot_exit` derives a non-top frame's resume pc from the
        // frame *above* it (`frames[d].resume_pc == shadow[d+1].caller_resume`),
        // so the inversion reads the frame *below*: frame `d` was entered
        // from the call site its caller resumes at.
        for (d, fd) in parent_exit.frames.iter().enumerate() {
            let nlocals = interp.prog().function(fd.func).nlocals;
            rec.frames.push(ShadowFrame {
                func: fd.func,
                locals: vec![None; nlocals as usize],
                stack: Vec::new(),
                is_construct: fd.is_construct,
                caller_resume: if d == 0 { 0 } else { parent_exit.frames[d - 1].resume_pc },
                callee_raw: fd.callee_raw,
            });
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

    // ==== shadow-state primitives ====

    fn depth(&self) -> usize {
        self.frames.len() - 1
    }

    fn emit(&mut self, inst: Lir) -> u32 {
        self.buf.emit(inst)
    }

    /// The shared guard exit for the current bytecode (created lazily with
    /// the pre-op snapshot).
    /// Marks the current guard exit as an integer-speculation arithmetic
    /// guard: taken hot, the monitor demotes this bytecode site in the
    /// oracle so future recordings use the double path.
    fn arith_guard_exit(&mut self) -> ExitId {
        let e = self.guard_exit();
        let site = (self.frames[self.depth()].func, self.pre_pc);
        self.exits[e.0 as usize].arith_site = Some(site);
        e
    }

    fn site_may_speculate(&self) -> bool {
        self.site_ok
    }

    fn guard_exit(&mut self) -> ExitId {
        if let Some(e) = self.cur_exit {
            return e;
        }
        let e = self.snapshot_exit(ExitKind::Branch, self.pre_pc, Some(&self.pre_depths.clone()));
        self.cur_exit = Some(e);
        e
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
        let mut write_back: Vec<SlotBinding> = self
            .written
            .iter()
            .filter(|&(_, &(key, _))| keep(key))
            .map(|(&ar, &(key, ty))| SlotBinding { ar, key, ty })
            .collect();
        write_back.sort_by_key(|b| b.ar);
        let mut typemap: Vec<SlotBinding> = self
            .known
            .iter()
            .filter(|&(_, &(key, _))| keep(key))
            .map(|(&ar, &(key, ty))| SlotBinding { ar, key, ty })
            .collect();
        typemap.sort_by_key(|b| b.ar);

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
        self.known.insert(ar, (key, ty));
        Sv { id, ty }
    }

    /// Marks an AR slot written, emitting the store.
    fn write_ar(&mut self, key: SlotKey, sv: Sv) {
        let ar = self.layout.slot(key);
        self.emit(Lir::WriteAr { slot: ar, v: sv.id });
        self.written.insert(ar, (key, sv.ty));
        self.known.insert(ar, (key, sv.ty));
    }

    fn push(&mut self, sv: Sv) {
        let depth = self.depth() as u8;
        let idx = self.frames.last().expect("frame").stack.len() as u16;
        self.frames.last_mut().expect("frame").stack.push(sv);
        self.write_ar(SlotKey::Stack { depth, idx }, sv);
    }

    fn pop(&mut self) -> Sv {
        self.frames.last_mut().expect("frame").stack.pop().expect("shadow stack underflow")
    }

    fn peek(&self, from_top: usize) -> Sv {
        let st = &self.frames.last().expect("frame").stack;
        st[st.len() - 1 - from_top]
    }

    fn set_stack_from_top(&mut self, from_top: usize, sv: Sv) {
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

    fn local_sv(&mut self, slot: u16, interp: &Interp, oracle: &Oracle) -> Sv {
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
                .is_some_and(|ar| self.known.contains_key(&ar) && self.active_site.is_some());
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
    fn set_var(&mut self, key: SlotKey, sv: Sv) {
        match key {
            SlotKey::Global(g) => {
                self.globals.insert(g, sv);
            }
            SlotKey::Local { depth, slot } => {
                self.frames[depth as usize].locals[slot as usize] = Some(sv);
            }
            SlotKey::Stack { .. } | SlotKey::Reimport { .. } => unreachable!("not a variable"),
        }
        self.write_ar(key, sv);
    }

    fn global_sv(&mut self, slot: u32, realm: &Realm, oracle: &Oracle) -> Sv {
        if let Some(&sv) = self.globals.get(&slot) {
            return sv;
        }
        let key = SlotKey::Global(slot);
        let v = realm.global(slot);
        self.oracle_adjust(key, v, oracle);
        let sv = self.import_slot(key, Some(v));
        self.globals.insert(slot, sv);
        sv
    }

    fn undefined_sv(&mut self) -> Sv {
        let id = self.emit(Lir::ConstBoxed(Value::UNDEFINED.raw()));
        Sv { id, ty: LirType::Undefined }
    }

    fn null_sv(&mut self) -> Sv {
        let id = self.emit(Lir::ConstBoxed(Value::NULL.raw()));
        Sv { id, ty: LirType::Null }
    }

    // ==== typed helpers ====

    /// Unboxes a boxed SSA value according to an observed concrete value,
    /// guarding the type.
    fn unbox_observed(&mut self, boxed: u32, actual: Value) -> Sv {
        let e = self.guard_exit();
        let ty = observed_type(actual);
        match Tag::of(ty) {
            // A number observed as a double may be int-tagged next time.
            Some(Tag::Double) => Sv { id: self.emit(Lir::UnboxNumD(boxed, e)), ty },
            Some(tag) => Sv { id: self.emit(Lir::Unbox(tag, boxed, e)), ty },
            None if ty == LirType::Null => {
                self.emit(Lir::GuardBoxedEq(boxed, Value::NULL.raw(), e));
                self.null_sv()
            }
            None => {
                self.emit(Lir::GuardBoxedEq(boxed, Value::UNDEFINED.raw(), e));
                self.undefined_sv()
            }
        }
    }

    /// Boxes a shadow value into a raw tagged word.
    fn box_sv(&mut self, sv: Sv) -> u32 {
        match Tag::of(sv.ty) {
            Some(tag) => self.emit(Lir::Box(tag, sv.id)),
            None => sv.id,
        }
    }

    /// ToNumber: `Ok((id, is_double))`.
    fn to_num(&mut self, sv: Sv) -> Result<(u32, bool), AbortReason> {
        match sv.ty {
            LirType::Int | LirType::Bool => Ok((sv.id, false)),
            LirType::Double => Ok((sv.id, true)),
            LirType::Null => Ok((self.emit(Lir::ConstI(0)), false)),
            LirType::Undefined | LirType::Object => {
                Ok((self.emit(Lir::ConstD(f64::NAN.to_bits())), true))
            }
            // String → number runs the interpreter's own `parse_number`
            // through a pure helper; the result is always a double (the
            // recorder widens int-valued numbers elsewhere too).
            LirType::String => {
                let e = self.guard_exit();
                let id = self.emit(Lir::Call {
                    helper: Helper::StrToNum,
                    args: vec![sv.id].into_boxed_slice(),
                    ret: LirType::Double,
                    exit: e,
                });
                Ok((id, true))
            }
            LirType::Boxed => Err(AbortReason::Unsupported),
        }
    }

    fn as_double(&mut self, id: u32, is_double: bool) -> u32 {
        if is_double {
            id
        } else {
            self.emit(Lir::I2D(id))
        }
    }

    /// ToInt32: `Ok((id, full_range))`; `full_range` means the i32 may
    /// exceed the boxable 31-bit range.
    fn to_i32(&mut self, sv: Sv) -> Result<(u32, bool), AbortReason> {
        match sv.ty {
            LirType::Int | LirType::Bool => Ok((sv.id, false)),
            LirType::Double => Ok((self.emit(Lir::D2I32(sv.id)), true)),
            LirType::Null | LirType::Undefined | LirType::Object => {
                Ok((self.emit(Lir::ConstI(0)), false))
            }
            LirType::String => {
                let (d, _) = self.to_num(sv)?;
                Ok((self.emit(Lir::D2I32(d)), true))
            }
            LirType::Boxed => Err(AbortReason::Unsupported),
        }
    }

    /// A Bool-typed truthiness computation for `sv`.
    fn truthy_sv(&mut self, sv: Sv) -> Sv {
        let id = match sv.ty {
            LirType::Bool => sv.id,
            LirType::Int => {
                let zero = self.emit(Lir::ConstI(0));
                let is_zero = self.emit(Lir::CmpI(CmpOp::Eq, sv.id, zero));
                self.emit(Lir::NotB(is_zero))
            }
            LirType::Double => {
                let zero = self.emit(Lir::ConstD(0.0f64.to_bits()));
                let lt = self.emit(Lir::CmpD(CmpOp::Lt, sv.id, zero));
                let gt = self.emit(Lir::CmpD(CmpOp::Gt, sv.id, zero));
                self.emit(Lir::AluI(AluOp::Or, lt, gt))
            }
            LirType::String => {
                let len = self.emit(Lir::StrLen(sv.id));
                let zero = self.emit(Lir::ConstI(0));
                self.emit(Lir::CmpI(CmpOp::Gt, len, zero))
            }
            LirType::Object => self.emit(Lir::ConstBool(true)),
            LirType::Null | LirType::Undefined => self.emit(Lir::ConstBool(false)),
            LirType::Boxed => unreachable!("boxed value on shadow stack"),
        };
        Sv { id, ty: LirType::Bool }
    }

    // ==== the per-bytecode dispatcher ====

    /// Records the bytecode the interpreter is about to execute.
    #[allow(clippy::too_many_lines)]
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
        self.pre_depths = self.frames.iter().map(|f| f.stack.len() as u16).collect();
        self.site_ok = oracle.may_speculate_int_site((frame.func, pc));
        self.ops_recorded += 1;

        let op = interp.current_op();
        match self.dispatch(op, interp, realm, oracle) {
            Ok(action) => action,
            Err(reason) => RecordAction::Abort(reason),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn dispatch(
        &mut self,
        op: Op,
        interp: &Interp,
        realm: &mut Realm,
        oracle: &Oracle,
    ) -> Result<RecordAction, AbortReason> {
        use RecordAction::Step;
        let step = Ok(Step { observe: false });
        match op {
            Op::Int(i) => {
                let id = self.emit(Lir::ConstI(i));
                self.push(Sv { id, ty: LirType::Int });
            }
            Op::Num(i) => {
                let v = interp.installed().literals.numbers[i as usize];
                let d = realm.heap.number_value(v).expect("number literal");
                let id = self.emit(Lir::ConstD(d.to_bits()));
                self.push(Sv { id, ty: LirType::Double });
            }
            Op::Str(i) => {
                let v = interp.installed().literals.atoms[i as usize];
                let h = v.as_string().expect("string literal").0;
                let id = self.emit(Lir::ConstStr(h));
                self.push(Sv { id, ty: LirType::String });
            }
            Op::True => {
                let id = self.emit(Lir::ConstBool(true));
                self.push(Sv { id, ty: LirType::Bool });
            }
            Op::False => {
                let id = self.emit(Lir::ConstBool(false));
                self.push(Sv { id, ty: LirType::Bool });
            }
            Op::Null => {
                let sv = self.null_sv();
                self.push(sv);
            }
            Op::Undefined => {
                let sv = self.undefined_sv();
                self.push(sv);
            }

            Op::GetLocal(s) => {
                let sv = self.local_sv(s, interp, oracle);
                self.push(sv);
            }
            Op::SetLocal(s) => {
                let v = self.pop();
                self.set_var(SlotKey::Local { depth: self.depth() as u8, slot: s }, v);
            }
            Op::GetGlobal(g) => {
                let sv = self.global_sv(g, realm, oracle);
                self.push(sv);
            }
            Op::SetGlobal(g) => {
                let v = self.pop();
                self.set_var(SlotKey::Global(g), v);
            }

            Op::Pop => {
                self.pop();
            }
            Op::Dup => {
                let v = self.peek(0);
                self.push(v);
            }
            Op::Swap => {
                let a = self.peek(0);
                let b = self.peek(1);
                self.set_stack_from_top(0, b);
                self.set_stack_from_top(1, a);
            }

            Op::Add => self.record_arith(FOp::Add, interp, realm)?,
            Op::Sub => self.record_arith(FOp::Sub, interp, realm)?,
            Op::Mul => self.record_arith(FOp::Mul, interp, realm)?,
            Op::Div => self.record_arith(FOp::Div, interp, realm)?,
            Op::Mod => self.record_arith(FOp::Mod, interp, realm)?,
            Op::Neg => {
                let a = self.pop();
                let actual = top_value(interp, 0);
                let (ai, ad) = self.to_num(a)?;
                let neg_is_int = !ad && {
                    let x = rt_ops::to_number(realm, actual);
                    let r = -x;
                    x != 0.0 && r == r.trunc() && Value::fits_int(r as i64)
                };
                if neg_is_int {
                    let e = self.guard_exit();
                    let id = self.emit(Lir::NegIChk(ai, e));
                    self.push(Sv { id, ty: LirType::Int });
                } else {
                    let d = self.as_double(ai, ad);
                    let id = self.emit(Lir::NegD(d));
                    self.push(Sv { id, ty: LirType::Double });
                }
            }
            Op::Pos => {
                let a = self.pop();
                match a.ty {
                    LirType::Int | LirType::Double => self.push(a),
                    _ => {
                        let (id, is_d) = self.to_num(a)?;
                        let ty = if is_d { LirType::Double } else { LirType::Int };
                        self.push(Sv { id, ty });
                    }
                }
            }

            Op::BitAnd => self.record_bitop(AluOp::And, interp, realm)?,
            Op::BitOr => self.record_bitop(AluOp::Or, interp, realm)?,
            Op::BitXor => self.record_bitop(AluOp::Xor, interp, realm)?,
            Op::Shl => self.record_bitop(AluOp::Shl, interp, realm)?,
            Op::Shr => self.record_bitop(AluOp::Shr, interp, realm)?,
            Op::UShr => self.record_bitop(AluOp::UShr, interp, realm)?,
            Op::BitNot => {
                let a = self.pop();
                let actual = top_value(interp, 0);
                let (ai, full) = self.to_i32(a)?;
                let id = self.emit(Lir::NotI(ai));
                self.push_i32_result(id, full, bitnot_value(realm, actual));
            }

            Op::Lt => self.record_rel(CmpOp::Lt)?,
            Op::Le => self.record_rel(CmpOp::Le)?,
            Op::Gt => self.record_rel(CmpOp::Gt)?,
            Op::Ge => self.record_rel(CmpOp::Ge)?,
            Op::Eq => self.record_eq(false, false)?,
            Op::Ne => self.record_eq(false, true)?,
            Op::StrictEq => self.record_eq(true, false)?,
            Op::StrictNe => self.record_eq(true, true)?,
            Op::Not => {
                let a = self.pop();
                let t = self.truthy_sv(a);
                let id = self.emit(Lir::NotB(t.id));
                self.push(Sv { id, ty: LirType::Bool });
            }
            Op::Typeof => {
                let a = self.pop();
                let s = match a.ty {
                    LirType::Int | LirType::Double => "number",
                    LirType::Bool => "boolean",
                    LirType::String => "string",
                    LirType::Null => "object",
                    LirType::Undefined => "undefined",
                    LirType::Object => {
                        let actual = top_value(interp, 0);
                        let oid = actual.as_object().expect("object-typed shadow");
                        // The class is guarded so function-vs-object stays
                        // correct on later runs.
                        let class = realm.heap.object(oid).class;
                        let e = self.guard_exit();
                        self.emit(Lir::GuardClass { obj: a.id, class: class as u8, exit: e });
                        if class == ObjectClass::Function {
                            "function"
                        } else {
                            "object"
                        }
                    }
                    LirType::Boxed => unreachable!("boxed on shadow stack"),
                };
                let atom = realm.typeof_atom(s);
                let id = self.emit(Lir::ConstStr(atom.as_string().expect("atom").0));
                self.push(Sv { id, ty: LirType::String });
            }

            Op::NewArray(n) => {
                let n = n as usize;
                let len = self.emit(Lir::ConstI(n as i32));
                let e = self.guard_exit();
                let arr = self.emit(Lir::Call {
                    helper: Helper::NewArray,
                    args: vec![len].into_boxed_slice(),
                    ret: LirType::Object,
                    exit: e,
                });
                // Pop elements (last on top) and store them.
                let mut elems = Vec::with_capacity(n);
                for _ in 0..n {
                    elems.push(self.pop());
                }
                elems.reverse();
                for (i, el) in elems.into_iter().enumerate() {
                    let idx = self.emit(Lir::ConstI(i as i32));
                    let boxed = self.box_sv(el);
                    self.emit(Lir::StoreElem(arr, idx, boxed));
                }
                self.push(Sv { id: arr, ty: LirType::Object });
            }
            Op::NewObject => {
                let proto = self.emit(Lir::ConstBoxed(tm_runtime::trace_helpers::NO_PROTO));
                let e = self.guard_exit();
                let obj = self.emit(Lir::Call {
                    helper: Helper::NewObject,
                    args: vec![proto].into_boxed_slice(),
                    ret: LirType::Object,
                    exit: e,
                });
                self.push(Sv { id: obj, ty: LirType::Object });
            }
            Op::InitProp(sym, site) => {
                let v = self.pop();
                let objsv = self.peek(0);
                let actual_obj = top_value(interp, 1);
                let ic = interp.ics.get(site as usize).copied().unwrap_or_default();
                self.record_set_prop(objsv, sym, v, actual_obj, ic, realm)?;
            }
            Op::GetProp(sym, site) => {
                let base = self.pop();
                let actual = top_value(interp, 0);
                let ic = interp.ics.get(site as usize).copied().unwrap_or_default();
                let result = self.record_get_prop(base, sym, actual, ic, realm)?;
                self.push(result);
            }
            Op::SetProp(sym, site) => {
                let v = self.pop();
                let base = self.pop();
                let actual_obj = top_value(interp, 1);
                let ic = interp.ics.get(site as usize).copied().unwrap_or_default();
                self.record_set_prop(base, sym, v, actual_obj, ic, realm)?;
                self.push(v);
            }
            Op::GetElem => {
                let idx = self.pop();
                let base = self.pop();
                let actual_idx = top_value(interp, 0);
                let actual_base = top_value(interp, 1);
                let result =
                    self.record_get_elem(base, idx, actual_base, actual_idx, realm)?;
                self.push(result);
            }
            Op::SetElem => {
                let v = self.pop();
                let idx = self.pop();
                let base = self.pop();
                let actual_idx = top_value(interp, 1);
                let actual_base = top_value(interp, 2);
                self.record_set_elem(base, idx, v, actual_base, actual_idx, realm)?;
                self.push(v);
            }

            Op::Call(argc) => return self.record_call(argc, false, interp, realm),
            Op::New(argc) => return self.record_call(argc, true, interp, realm),
            Op::Return | Op::ReturnUndef => {
                if self.frames.len() == 1 {
                    // Returning out of the entry frame leaves the trace
                    // region. Snapshot *before* popping the result: the
                    // interpreter re-executes the Return at the exit and
                    // pops the result itself.
                    self.finish_leave(self.pre_pc);
                    return Ok(RecordAction::Finished);
                }
                let result = if matches!(op, Op::Return) {
                    self.pop()
                } else {
                    self.undefined_sv()
                };
                let frame = self.frames.pop().expect("frame");
                // The returned frame's slots name nothing now, and a call
                // inlined at this depth next may have fewer locals.
                let gone = self.frames.len() as u8;
                let alive = |_: &ArSlot, &mut (key, _): &mut (SlotKey, LirType)| match key {
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
            }

            Op::Jump(_) => {}
            Op::JumpIfFalse(_) | Op::JumpIfTrue(_) => {
                let c = self.pop();
                let actual = top_value(interp, 0);
                let t = self.truthy_sv(c);
                let e = self.guard_exit();
                if rt_ops::truthy(realm, actual) {
                    self.emit(Lir::GuardTrue(t.id, e));
                } else {
                    self.emit(Lir::GuardFalse(t.id, e));
                }
            }
            Op::AndJump(_) => {
                let c = self.peek(0);
                let actual = top_value(interp, 0);
                let t = self.truthy_sv(c);
                let e = self.guard_exit();
                if rt_ops::truthy(realm, actual) {
                    self.emit(Lir::GuardTrue(t.id, e));
                    self.pop();
                } else {
                    self.emit(Lir::GuardFalse(t.id, e));
                }
            }
            Op::OrJump(_) => {
                let c = self.peek(0);
                let actual = top_value(interp, 0);
                let t = self.truthy_sv(c);
                let e = self.guard_exit();
                if rt_ops::truthy(realm, actual) {
                    self.emit(Lir::GuardTrue(t.id, e));
                } else {
                    self.emit(Lir::GuardFalse(t.id, e));
                    self.pop();
                }
            }

            Op::LoopHeader(loop_id) => {
                let frame = interp.frame();
                if self.depth() == 0
                    && frame.func == self.anchor.func
                    && frame.pc == self.anchor.pc
                {
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
                    // We already called this inner tree from this frame
                    // and came back around to its header: the inner call
                    // exited mid-loop, so the outer trace cannot treat it
                    // as a subroutine. Abort and let the inner tree grow
                    // (§4.1/§4.2).
                    return Err(AbortReason::InnerTreeCallFailed);
                }
                self.nested_anchors.push(site);
                return Ok(RecordAction::InnerLoop { func: frame.func, pc: frame.pc, loop_id });
            }
            Op::Nop => {}
        }
        step
    }

    /// Called by the monitor after stepping an instruction that needed its
    /// result observed (native calls).
    pub fn after_step(&mut self, interp: &Interp, realm: &mut Realm) {
        let Some((pending, call_id)) = self.pending_native.take() else {
            return;
        };
        let actual = top_value(interp, 0);
        let sv = match pending {
            PendingNative::Generic => self.unbox_observed(call_id, actual),
            PendingNative::Fast(helper, ret) => match ret {
                FastTy::Double => Sv { id: call_id, ty: LirType::Double },
                FastTy::Str => Sv { id: call_id, ty: LirType::String },
                FastTy::Obj => Sv { id: call_id, ty: LirType::Object },
                FastTy::Int => {
                    if helper == Helper::CharCodeAt {
                        // §6.3: charCodeAt returns an integer or NaN; the
                        // helper encodes NaN as -1 and we guard the
                        // observed case.
                        let zero = self.emit(Lir::ConstI(0));
                        let is_nan = realm
                            .heap
                            .number_value(actual)
                            .is_none_or(f64::is_nan);
                        let e = self.guard_exit();
                        if is_nan {
                            let ltz = self.emit(Lir::CmpI(CmpOp::Lt, call_id, zero));
                            self.emit(Lir::GuardTrue(ltz, e));
                            let id = self.emit(Lir::ConstD(f64::NAN.to_bits()));
                            Sv { id, ty: LirType::Double }
                        } else {
                            let gez = self.emit(Lir::CmpI(CmpOp::Ge, call_id, zero));
                            self.emit(Lir::GuardTrue(gez, e));
                            Sv { id: call_id, ty: LirType::Int }
                        }
                    } else {
                        Sv { id: call_id, ty: LirType::Int }
                    }
                }
            },
        };
        self.push(sv);
    }

    // ==== complex op recorders ====

    /// Converts a shadow value to a string SSA id (for concatenation).
    fn stringify(&mut self, sv: Sv) -> Result<u32, AbortReason> {
        match sv.ty {
            LirType::String => Ok(sv.id),
            LirType::Int => {
                let e = self.guard_exit();
                Ok(self.emit(Lir::Call {
                    helper: Helper::IntToString,
                    args: vec![sv.id].into_boxed_slice(),
                    ret: LirType::String,
                    exit: e,
                }))
            }
            LirType::Double => {
                let e = self.guard_exit();
                Ok(self.emit(Lir::Call {
                    helper: Helper::NumberToString,
                    args: vec![sv.id].into_boxed_slice(),
                    ret: LirType::String,
                    exit: e,
                }))
            }
            _ => Err(AbortReason::Unsupported),
        }
    }

    /// `+ - * / %`: string concatenation for `+` on a string, otherwise the
    /// overflow-checked integer op while the observed exact result is a
    /// boxable integer (and the site may still speculate), else the double
    /// op.
    fn record_arith(
        &mut self,
        op: FOp,
        interp: &Interp,
        realm: &mut Realm,
    ) -> Result<(), AbortReason> {
        let b_actual = top_value(interp, 0);
        let a_actual = top_value(interp, 1);
        let b = self.pop();
        let a = self.pop();
        if op == FOp::Add && (a.ty == LirType::String || b.ty == LirType::String) {
            let a_str = self.stringify(a)?;
            let b_str = self.stringify(b)?;
            let e = self.guard_exit();
            let id = self.emit(Lir::Call {
                helper: Helper::ConcatStrings,
                args: vec![a_str, b_str].into_boxed_slice(),
                ret: LirType::String,
                exit: e,
            });
            self.push(Sv { id, ty: LirType::String });
            return Ok(());
        }
        let chk = match op {
            FOp::Add => Some(ChkOp::Add),
            FOp::Sub => Some(ChkOp::Sub),
            FOp::Mul => Some(ChkOp::Mul),
            FOp::Div | FOp::Mod => None,
        };
        let int_like = |sv: Sv| matches!(sv.ty, LirType::Int | LirType::Bool | LirType::Null);
        // Int-like operands are integers in the boxable range, so the
        // checked op's `eval` on them is the exact observed result.
        let stays_int = int_like(a)
            && int_like(b)
            && match chk {
                Some(chk) => {
                    let x = rt_ops::to_number(realm, a_actual) as i32;
                    let y = rt_ops::to_number(realm, b_actual) as i32;
                    chk.eval(x, y).is_some()
                }
                None => op == FOp::Mod && mod_stays_int(realm, a_actual, b_actual),
            }
            && self.site_may_speculate();
        let (bi, bd) = self.to_num(b)?;
        let (ai, ad) = self.to_num(a)?;
        if stays_int {
            let e = self.arith_guard_exit();
            let id = match chk {
                Some(chk) => self.emit(Lir::ChkAluI(chk, ai, bi, e)),
                None => self.emit(Lir::ModIChk(ai, bi, e)),
            };
            self.push(Sv { id, ty: LirType::Int });
        } else {
            let bd2 = self.as_double(bi, bd);
            let ad2 = self.as_double(ai, ad);
            let id = self.emit(Lir::AluD(op, ad2, bd2));
            self.push(Sv { id, ty: LirType::Double });
        }
        Ok(())
    }

    /// `& | ^ << >> >>>` on ToInt32 operands.
    fn record_bitop(
        &mut self,
        op: AluOp,
        interp: &Interp,
        realm: &mut Realm,
    ) -> Result<(), AbortReason> {
        let b_actual = top_value(interp, 0);
        let a_actual = top_value(interp, 1);
        let b = self.pop();
        let a = self.pop();
        let (bi, bfull) = self.to_i32(b)?;
        let (ai, afull) = self.to_i32(a)?;
        let ax = rt_ops::to_int32(realm, a_actual);
        let bx = rt_ops::to_int32(realm, b_actual);
        // The left and unsigned right shifts can leave the boxable range on
        // in-range operands: checked while the observed result fits, widened
        // to a double otherwise.
        let chk = match op {
            AluOp::Shl => Some(ChkOp::Shl),
            AluOp::UShr => Some(ChkOp::UShr),
            _ => None,
        };
        match chk {
            Some(chk) if chk.eval(ax, bx).is_some() && self.site_may_speculate() => {
                let e = self.arith_guard_exit();
                let id = self.emit(Lir::ChkAluI(chk, ai, bi, e));
                self.push(Sv { id, ty: LirType::Int });
            }
            Some(_) => {
                let id = self.emit(Lir::AluI(op, ai, bi));
                // A `>>>` result is a u32.
                let d = self.emit(if op == AluOp::UShr { Lir::U2D(id) } else { Lir::I2D(id) });
                self.push(Sv { id: d, ty: LirType::Double });
            }
            // &,|,^,>> are closed over the boxable range (see the LIR
            // docs); a range check is only needed when an operand came
            // from a full-range ToInt32.
            None => {
                let id = self.emit(Lir::AluI(op, ai, bi));
                self.push_i32_result(id, afull || bfull, i64::from(op.eval(ax, bx)));
            }
        }
        Ok(())
    }

    /// Pushes an i32-valued result: in-range ints stay ints (guarded when
    /// the computation could leave the range), others widen to double.
    fn push_i32_result(&mut self, id: u32, may_escape: bool, actual: i64) {
        if Value::fits_int(actual) && (!may_escape || self.site_may_speculate()) {
            if may_escape {
                let e = self.arith_guard_exit();
                let checked = self.emit(Lir::ChkRangeI(id, e));
                self.push(Sv { id: checked, ty: LirType::Int });
            } else {
                self.push(Sv { id, ty: LirType::Int });
            }
        } else {
            let d = self.emit(Lir::I2D(id));
            self.push(Sv { id: d, ty: LirType::Double });
        }
    }

    fn record_rel(&mut self, op: CmpOp) -> Result<(), AbortReason> {
        let b = self.pop();
        let a = self.pop();
        if a.ty == LirType::String && b.ty == LirType::String {
            let e = self.guard_exit();
            let cmp = self.emit(Lir::Call {
                helper: Helper::StrCmp,
                args: vec![a.id, b.id].into_boxed_slice(),
                ret: LirType::Int,
                exit: e,
            });
            let zero = self.emit(Lir::ConstI(0));
            let id = self.emit(Lir::CmpI(op, cmp, zero));
            self.push(Sv { id, ty: LirType::Bool });
            return Ok(());
        }
        if a.ty == LirType::String || b.ty == LirType::String {
            // Mixed string/number comparison: generic helper.
            let helper = match op {
                CmpOp::Eq => Helper::EqAny,
                CmpOp::Lt => Helper::LtAny,
                CmpOp::Le => Helper::LeAny,
                CmpOp::Gt => Helper::GtAny,
                CmpOp::Ge => Helper::GeAny,
            };
            let ab = self.box_sv(a);
            let bb = self.box_sv(b);
            let e = self.guard_exit();
            let r = self.emit(Lir::Call {
                helper,
                args: vec![ab, bb].into_boxed_slice(),
                ret: LirType::Boxed,
                exit: e,
            });
            let e2 = self.guard_exit();
            let id = self.emit(Lir::Unbox(Tag::Bool, r, e2));
            self.push(Sv { id, ty: LirType::Bool });
            return Ok(());
        }
        let (bi, bd) = self.to_num(b)?;
        let (ai, ad) = self.to_num(a)?;
        let id = if ad || bd {
            let bd2 = self.as_double(bi, bd);
            let ad2 = self.as_double(ai, ad);
            self.emit(Lir::CmpD(op, ad2, bd2))
        } else {
            self.emit(Lir::CmpI(op, ai, bi))
        };
        self.push(Sv { id, ty: LirType::Bool });
        Ok(())
    }

    fn record_eq(&mut self, strict: bool, negate: bool) -> Result<(), AbortReason> {
        use LirType::{Bool, Double, Int, Null, Object, String as Str, Undefined};
        let b = self.pop();
        let a = self.pop();
        let push_const = |rec: &mut Self, v: bool| {
            let id = rec.emit(Lir::ConstBool(v != negate));
            rec.push(Sv { id, ty: LirType::Bool });
        };
        let id = match (a.ty, b.ty) {
            (Int, Int) | (Bool, Bool) | (Object, Object) => self.emit(Lir::CmpI(CmpOp::Eq, a.id, b.id)),
            (Int | Double, Int | Double) => {
                let ad = self.as_double(a.id, a.ty == Double);
                let bd = self.as_double(b.id, b.ty == Double);
                self.emit(Lir::CmpD(CmpOp::Eq, ad, bd))
            }
            (Str, Str) => {
                let e = self.guard_exit();
                self.emit(Lir::Call {
                    helper: Helper::StrEq,
                    args: vec![a.id, b.id].into_boxed_slice(),
                    ret: LirType::Bool,
                    exit: e,
                })
            }
            (Null, Null) | (Undefined, Undefined) => {
                push_const(self, true);
                return Ok(());
            }
            (Null, Undefined) | (Undefined, Null) => {
                push_const(self, !strict);
                return Ok(());
            }
            (Bool, Int | Double) | (Int | Double, Bool) if !strict => {
                // ToNumber(bool) is its 0/1 word.
                let (ai, ad) = self.to_num(a)?;
                let (bi, bd) = self.to_num(b)?;
                if ad || bd {
                    let a2 = self.as_double(ai, ad);
                    let b2 = self.as_double(bi, bd);
                    self.emit(Lir::CmpD(CmpOp::Eq, a2, b2))
                } else {
                    self.emit(Lir::CmpI(CmpOp::Eq, ai, bi))
                }
            }
            (Str, Int | Double) | (Int | Double, Str) if !strict => {
                let ab = self.box_sv(a);
                let bb = self.box_sv(b);
                let e = self.guard_exit();
                let r = self.emit(Lir::Call {
                    helper: Helper::EqAny,
                    args: vec![ab, bb].into_boxed_slice(),
                    ret: LirType::Boxed,
                    exit: e,
                });
                let e2 = self.guard_exit();
                self.emit(Lir::Unbox(Tag::Bool, r, e2))
            }
            // Remaining combinations are statically unequal under both
            // strict and (our simplified) loose semantics.
            _ => {
                push_const(self, false);
                return Ok(());
            }
        };
        let id = if negate { self.emit(Lir::NotB(id)) } else { id };
        self.push(Sv { id, ty: LirType::Bool });
        Ok(())
    }

    fn record_get_prop(
        &mut self,
        base: Sv,
        sym: Sym,
        actual_base: Value,
        ic: PropIc,
        realm: &mut Realm,
    ) -> Result<Sv, AbortReason> {
        match base.ty {
            LirType::Object => {
                let oid = actual_base.as_object().expect("object-typed shadow");
                if sym == realm.sym_length && realm.heap.object(oid).class == ObjectClass::Array {
                    let e = self.guard_exit();
                    self.emit(Lir::GuardClass {
                        obj: base.id,
                        class: ObjectClass::Array as u8,
                        exit: e,
                    });
                    let id = self.emit(Lir::ArrayLen(base.id));
                    return Ok(Sv { id, ty: LirType::Int });
                }
                // Per-site IC: the interpreter already proved this site
                // monomorphic for this shape, so emit the single shape
                // guard + slot load directly — no shape-table walk while
                // recording (the guard is identical to the walk's
                // first-level own-property case).
                let shape = realm.heap.object(oid).shape;
                if let IcKind::GetSlot(slot) = ic.kind {
                    if ic.matches(shape, realm.shapes.epoch()) {
                        let e = self.guard_exit();
                        self.emit(Lir::GuardShape { obj: base.id, shape: shape.0, exit: e });
                        let boxed = self.emit(Lir::LoadSlot(base.id, slot));
                        let value = realm.heap.object(oid).slots[slot as usize];
                        return Ok(self.unbox_observed(boxed, value));
                    }
                }
                // Walk the prototype chain, guarding every shape — the
                // paper's "two or three loads" property access (§3.1).
                let mut cur_id = oid;
                let mut cur_sv = base.id;
                loop {
                    let shape = realm.heap.object(cur_id).shape;
                    let e = self.guard_exit();
                    self.emit(Lir::GuardShape { obj: cur_sv, shape: shape.0, exit: e });
                    if let Some(slot) = realm.shapes.lookup(shape, sym) {
                        let boxed = self.emit(Lir::LoadSlot(cur_sv, slot));
                        let value = realm.heap.object(cur_id).slots[slot as usize];
                        return Ok(self.unbox_observed(boxed, value));
                    }
                    match realm.heap.object(cur_id).proto {
                        Some(p) => {
                            cur_sv = self.emit(Lir::LoadProto(cur_sv));
                            cur_id = p;
                        }
                        None => {
                            let sv = self.undefined_sv();
                            return Ok(sv);
                        }
                    }
                }
            }
            LirType::String => {
                if sym == realm.sym_length {
                    let id = self.emit(Lir::StrLen(base.id));
                    return Ok(Sv { id, ty: LirType::Int });
                }
                // String methods live on the (stable, rooted) string
                // prototype object.
                let proto = realm.string_proto.ok_or(AbortReason::Unsupported)?;
                let proto_sv = self.emit(Lir::ConstObj(proto.0));
                let proto_val = Value::new_object(proto);
                let sv = Sv { id: proto_sv, ty: LirType::Object };
                self.record_get_prop(sv, sym, proto_val, PropIc::default(), realm)
            }
            _ => Err(AbortReason::Unsupported),
        }
    }

    fn record_set_prop(
        &mut self,
        base: Sv,
        sym: Sym,
        v: Sv,
        actual_base: Value,
        ic: PropIc,
        realm: &mut Realm,
    ) -> Result<(), AbortReason> {
        if base.ty != LirType::Object {
            return Err(AbortReason::Unsupported);
        }
        let oid = actual_base.as_object().expect("object-typed shadow");
        let shape = realm.heap.object(oid).shape;
        let e = self.guard_exit();
        self.emit(Lir::GuardShape { obj: base.id, shape: shape.0, exit: e });
        let boxed = self.box_sv(v);
        // Per-site IC: skip the shape-table walk when the interpreter has
        // already resolved this site against the guarded shape.
        if ic.matches(shape, realm.shapes.epoch()) {
            if let IcKind::SetSlot(slot) = ic.kind {
                self.emit(Lir::StoreSlot(base.id, slot, boxed));
                return Ok(());
            }
        }
        if let Some(slot) = realm.shapes.lookup(shape, sym) {
            self.emit(Lir::StoreSlot(base.id, slot, boxed));
        } else {
            // Shape transition: the slow path (deterministic given the
            // guarded starting shape).
            let sym_const = self.emit(Lir::ConstI(sym.0 as i32));
            let e = self.guard_exit();
            self.emit(Lir::Call {
                helper: Helper::SetPropSlow,
                args: vec![base.id, sym_const, boxed].into_boxed_slice(),
                ret: LirType::Int,
                exit: e,
            });
        }
        Ok(())
    }

    fn record_get_elem(
        &mut self,
        base: Sv,
        idx: Sv,
        actual_base: Value,
        actual_idx: Value,
        realm: &mut Realm,
    ) -> Result<Sv, AbortReason> {
        let dense = base.ty == LirType::Object
            && actual_base
                .as_object()
                .is_some_and(|o| realm.heap.object(o).class == ObjectClass::Array)
            && actual_idx.as_int().is_some_and(|i| {
                i >= 0
                    && (i as usize)
                        < realm
                            .heap
                            .object(actual_base.as_object().expect("object"))
                            .elements
                            .len()
            });
        if dense {
            let idx_int = self.idx_to_int(idx)?;
            let e = self.guard_exit();
            self.emit(Lir::GuardClass {
                obj: base.id,
                class: ObjectClass::Array as u8,
                exit: e,
            });
            let e2 = self.guard_exit();
            self.emit(Lir::GuardBound { arr: base.id, idx: idx_int, exit: e2 });
            let boxed = self.emit(Lir::LoadElem(base.id, idx_int));
            let oid = actual_base.as_object().expect("object");
            let i = actual_idx.as_int().expect("int index");
            let value = realm.heap.object(oid).element(i as u32);
            return Ok(self.unbox_observed(boxed, value));
        }
        // Generic path (string indexing, out-of-bounds, property keys).
        if matches!(base.ty, LirType::Null | LirType::Undefined | LirType::Boxed) {
            return Err(AbortReason::Unsupported);
        }
        let bb = self.box_sv(base);
        let ib = self.box_sv(idx);
        let e = self.guard_exit();
        let r = self.emit(Lir::Call {
            helper: Helper::GetElemAny,
            args: vec![bb, ib].into_boxed_slice(),
            ret: LirType::Boxed,
            exit: e,
        });
        let value = realm
            .get_elem(actual_base, actual_idx)
            .map_err(|_| AbortReason::GuestError)?;
        Ok(self.unbox_observed(r, value))
    }

    fn idx_to_int(&mut self, idx: Sv) -> Result<u32, AbortReason> {
        match idx.ty {
            LirType::Int => Ok(idx.id),
            LirType::Double => {
                let e = self.guard_exit();
                Ok(self.emit(Lir::D2IChk(idx.id, e)))
            }
            _ => Err(AbortReason::Unsupported),
        }
    }

    fn record_set_elem(
        &mut self,
        base: Sv,
        idx: Sv,
        v: Sv,
        actual_base: Value,
        actual_idx: Value,
        realm: &mut Realm,
    ) -> Result<(), AbortReason> {
        let is_array = base.ty == LirType::Object
            && actual_base
                .as_object()
                .is_some_and(|o| realm.heap.object(o).class == ObjectClass::Array);
        let int_idx = actual_idx.as_int();
        if is_array {
            if let Some(i) = int_idx {
                let oid = actual_base.as_object().expect("object");
                let in_bounds = i >= 0 && (i as usize) < realm.heap.object(oid).elements.len();
                let idx_int = self.idx_to_int(idx)?;
                let e = self.guard_exit();
                self.emit(Lir::GuardClass {
                    obj: base.id,
                    class: ObjectClass::Array as u8,
                    exit: e,
                });
                let boxed = self.box_sv(v);
                if in_bounds {
                    let e2 = self.guard_exit();
                    self.emit(Lir::GuardBound { arr: base.id, idx: idx_int, exit: e2 });
                    self.emit(Lir::StoreElem(base.id, idx_int, boxed));
                } else if i >= 0 {
                    // The paper's Figure 3 path: call js_Array_set.
                    let e2 = self.guard_exit();
                    let zero = self.emit(Lir::ConstI(0));
                    let ge0 = self.emit(Lir::CmpI(CmpOp::Ge, idx_int, zero));
                    self.emit(Lir::GuardTrue(ge0, e2));
                    let e3 = self.guard_exit();
                    self.emit(Lir::Call {
                        helper: Helper::ArraySetElem,
                        args: vec![base.id, idx_int, boxed].into_boxed_slice(),
                        ret: LirType::Int,
                        exit: e3,
                    });
                } else {
                    return Err(AbortReason::Unsupported);
                }
                return Ok(());
            }
        }
        // Generic path.
        if matches!(base.ty, LirType::Null | LirType::Undefined | LirType::Boxed) {
            return Err(AbortReason::Unsupported);
        }
        let bb = self.box_sv(base);
        let ib = self.box_sv(idx);
        let vb = self.box_sv(v);
        let e = self.guard_exit();
        self.emit(Lir::Call {
            helper: Helper::SetElemAny,
            args: vec![bb, ib, vb].into_boxed_slice(),
            ret: LirType::Int,
            exit: e,
        });
        Ok(())
    }

    fn record_call(
        &mut self,
        argc: u8,
        is_construct: bool,
        interp: &Interp,
        realm: &mut Realm,
    ) -> Result<RecordAction, AbortReason> {
        let argc = argc as usize;
        // Stack (Call): [callee, this, args...]; (New): [callee, args...].
        let callee_offset = if is_construct { argc } else { argc + 1 };
        let callee_actual = top_value(interp, callee_offset);
        let callee_sv = self.peek(callee_offset);
        let Some(callee_oid) = callee_actual.as_object() else {
            // The interpreter will raise a TypeError when it re-executes
            // this call; that is a guest-visible error, but *recording*
            // stops because the callee is not callable — keep the two
            // distinct in the abort taxonomy.
            return Err(AbortReason::NotCallable);
        };
        if callee_sv.ty != LirType::Object {
            return Err(AbortReason::Unsupported);
        }
        let Some(callee_kind) = realm.heap.object(callee_oid).callee else {
            return Err(AbortReason::NotCallable);
        };
        // Function identity guard ("the recorder must also emit LIR to
        // guard that the function is the same", §3.1).
        let e = self.guard_exit();
        self.emit(Lir::GuardBoxedEq(callee_sv.id, u64::from(callee_oid.0), e));

        match callee_kind {
            Callee::Scripted(fidx) => {
                let func = FuncId(fidx);
                let f = interp.prog().function(func);
                let nparams = f.nparams as usize;
                let nlocals = f.nlocals as usize;

                // Recursion is not traced, as in TraceMonkey: inlining a
                // function that is already on the trace has no bound.
                if self.frames.iter().any(|f| f.func == func) {
                    return Err(AbortReason::Recursive);
                }
                // Inline at most `max_inline_depth` frames, and never more
                // than exits can describe (`SlotKey::Local` carries the
                // frame depth in a u8).
                if self.frames.len() >= MAX_SHADOW_FRAMES.min(self.opts.max_inline_depth) {
                    return Err(AbortReason::TooDeep);
                }

                // Collect args (top of stack is the last arg).
                let mut args = Vec::with_capacity(argc);
                for _ in 0..argc {
                    args.push(self.pop());
                }
                args.reverse();
                let this_sv = if is_construct {
                    self.record_construct_this(callee_sv, callee_oid, realm)?
                } else {
                    self.pop()
                };
                let _callee = self.pop();

                let caller_resume = self.pre_pc + 1;
                let mut locals: Vec<Option<Sv>> = Vec::with_capacity(nlocals);
                locals.push(Some(this_sv));
                for i in 0..nparams {
                    let sv = if i < args.len() {
                        args[i]
                    } else {
                        self.undefined_sv()
                    };
                    locals.push(Some(sv));
                }
                while locals.len() < nlocals {
                    let sv = self.undefined_sv();
                    locals.push(Some(sv));
                }
                self.frames.push(ShadowFrame {
                    func,
                    locals: Vec::new(), // installed after the AR writes below
                    stack: Vec::new(),
                    is_construct,
                    caller_resume,
                    callee_raw: Value::new_object(callee_oid).raw(),
                });
                // Write every local to the AR so exits inside the callee
                // can synthesize the frame (§3.1: "frame entry and exit
                // LIR saves just enough information to allow the
                // interpreter call stack to be restored").
                let depth = self.depth() as u8;
                for (i, sv) in locals.iter().enumerate() {
                    let sv = sv.expect("initialized");
                    self.write_ar(SlotKey::Local { depth, slot: i as u16 }, sv);
                }
                self.frames.last_mut().expect("frame").locals = locals;
                Ok(RecordAction::Step { observe: false })
            }
            Callee::Native(nid) => {
                if is_construct {
                    return Err(AbortReason::Unsupported);
                }
                let may_reenter = realm.natives[nid as usize].effects.may_reenter;
                if may_reenter {
                    // §6.5 deep-bail paths are not traceable.
                    return Err(AbortReason::Unsupported);
                }
                let fast = realm.natives[nid as usize].fast;
                // Shadow args: [this, args...] above the callee.
                let mut shadow_args = Vec::with_capacity(argc + 1);
                for k in 0..=argc {
                    shadow_args.push(self.peek(argc - k)); // this first
                }
                let call_id = if let Some(fast) = fast {
                    match self.try_fast_native(fast, &shadow_args, argc) {
                        Some(id) => id,
                        None => self.generic_native_call(NativeId(nid), &shadow_args)?,
                    }
                } else {
                    self.generic_native_call(NativeId(nid), &shadow_args)?
                };
                // Pop callee + this + args.
                for _ in 0..argc + 2 {
                    self.pop();
                }
                let pending = if let Some(f) = fast {
                    if self.last_was_fast {
                        PendingNative::Fast(f.helper, f.ret)
                    } else {
                        PendingNative::Generic
                    }
                } else {
                    PendingNative::Generic
                };
                self.pending_native = Some((pending, call_id));
                Ok(RecordAction::Step { observe: true })
            }
        }
    }

    /// Emits the `new.target`-side of a construct: reads the callee's
    /// `prototype` (shape-guarded) and allocates the new object.
    fn record_construct_this(
        &mut self,
        callee_sv: Sv,
        callee_oid: tm_runtime::ObjectId,
        realm: &mut Realm,
    ) -> Result<Sv, AbortReason> {
        let shape = realm.heap.object(callee_oid).shape;
        let slot = realm
            .shapes
            .lookup(shape, realm.sym_prototype)
            .ok_or(AbortReason::Unsupported)?;
        let proto_val = realm.heap.object(callee_oid).slots[slot as usize];
        if !proto_val.is_object() {
            return Err(AbortReason::Unsupported);
        }
        let e = self.guard_exit();
        self.emit(Lir::GuardShape { obj: callee_sv.id, shape: shape.0, exit: e });
        let boxed_proto = self.emit(Lir::LoadSlot(callee_sv.id, slot));
        let e2 = self.guard_exit();
        let proto = self.emit(Lir::Unbox(Tag::Object, boxed_proto, e2));
        let e3 = self.guard_exit();
        let obj = self.emit(Lir::Call {
            helper: Helper::NewObject,
            args: vec![proto].into_boxed_slice(),
            ret: LirType::Object,
            exit: e3,
        });
        Ok(Sv { id: obj, ty: LirType::Object })
    }

    /// Attempts a typed fast call (§6.5). Returns the call SSA id on
    /// success and sets `last_was_fast`.
    fn try_fast_native(
        &mut self,
        fast: tm_runtime::trace_helpers::FastNative,
        shadow_args: &[Sv],
        argc: usize,
    ) -> Option<u32> {
        self.last_was_fast = false;
        // Figure out which values feed the helper: string methods take the
        // receiver, Math-style functions skip it.
        let takes_receiver = matches!(fast.args.first(), Some(FastTy::Str | FastTy::Obj));
        let vals: Vec<Sv> = if takes_receiver {
            shadow_args.to_vec()
        } else {
            shadow_args[1..].to_vec()
        };
        if vals.len() < fast.args.len() || argc > fast.args.len() {
            return None;
        }
        let mut lir_args = Vec::with_capacity(fast.args.len());
        for (sv, &want) in vals.iter().zip(fast.args.iter()) {
            let id = match (want, sv.ty) {
                (FastTy::Double, LirType::Double) => sv.id,
                (FastTy::Double, LirType::Int | LirType::Bool) => self.emit(Lir::I2D(sv.id)),
                (FastTy::Int, LirType::Int) => sv.id,
                (FastTy::Int, LirType::Double) => {
                    let e = self.guard_exit();
                    self.emit(Lir::D2IChk(sv.id, e))
                }
                (FastTy::Str, LirType::String) => sv.id,
                (FastTy::Obj, LirType::Object) => sv.id,
                _ => return None,
            };
            lir_args.push(id);
        }
        let e = self.guard_exit();
        let ret = match fast.ret {
            FastTy::Double => LirType::Double,
            FastTy::Int => LirType::Int,
            FastTy::Str => LirType::String,
            FastTy::Obj => LirType::Object,
        };
        let id = self.emit(Lir::Call {
            helper: fast.helper,
            args: lir_args.into_boxed_slice(),
            ret,
            exit: e,
        });
        self.last_was_fast = true;
        self.fast_helpers.push(fast.helper);
        Some(id)
    }

    fn generic_native_call(
        &mut self,
        nid: NativeId,
        shadow_args: &[Sv],
    ) -> Result<u32, AbortReason> {
        self.last_was_fast = false;
        if shadow_args.len() > 10 {
            return Err(AbortReason::Unsupported);
        }
        let boxed: Vec<u32> = shadow_args.iter().map(|&sv| self.box_sv(sv)).collect();
        let e = self.guard_exit();
        Ok(self.emit(Lir::Call {
            helper: Helper::CallNative(nid),
            args: boxed.into_boxed_slice(),
            ret: LirType::Boxed,
            exit: e,
        }))
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
                .and_then(|ar| self.known.get(&ar))
                .is_some_and(|&(_, was)| was != ty);
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
        let mut fresh: Vec<SlotBinding> = self
            .written
            .iter()
            .filter(|&(_, &(key, _))| is_persistent(key) && !self.is_entry(key))
            .map(|(&ar, &(key, ty))| SlotBinding { ar, key, ty })
            .collect();
        fresh.sort_by_key(|b| b.ar);
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
        let entries: Vec<SlotBinding> = self
            .existing_entry
            .iter()
            .chain(self.new_entry.iter())
            .copied()
            .collect();
        let mut unstable = false;
        let mut coerce: Vec<(SlotBinding, Sv)> = Vec::new();
        for e in &entries {
            let cur_ty = self.known.get(&e.ar).map(|&(_, t)| t).unwrap_or(e.ty);
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
            let mut loop_writes: Vec<SlotBinding> = self
                .written
                .iter()
                .filter(|&(_, &(key, _))| is_persistent(key))
                .map(|(&ar, &(key, ty))| SlotBinding { ar, key, ty })
                .collect();
            loop_writes.sort_by_key(|b| b.ar);
            self.loop_writes = loop_writes;
            let e = self.snapshot_exit(ExitKind::LoopEdge, self.anchor.pc, None);
            self.emit(Lir::LoopBack(e));
            for exit in &mut self.exits {
                union_writes(&mut exit.write_back, &self.loop_writes);
                union_writes(&mut exit.typemap, &self.loop_writes);
            }
            self.finish = Some(FinishKind::StableLoop);
        }
    }

    /// Whether `key` is a *tree entry* slot (populated on every entry):
    /// `entry_types` also holds parent-path imports that are not, so this
    /// reads the entry lists themselves.
    fn is_entry(&self, key: SlotKey) -> bool {
        self.existing_entry.iter().chain(&self.new_entry).any(|e| e.key == key)
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
            SlotKey::Global(g) => self.globals.get(&g).copied(),
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
        let loop_live: Vec<ArSlot> = self
            .existing_entry
            .iter()
            .chain(self.new_entry.iter())
            .map(|e| e.ar)
            .collect();
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
fn top_value(interp: &Interp, from_top: usize) -> Value {
    let ops = interp.operands();
    ops[ops.len() - 1 - from_top]
}

fn mod_stays_int(realm: &Realm, a: Value, b: Value) -> bool {
    let x = rt_ops::to_number(realm, a);
    let y = rt_ops::to_number(realm, b);
    if y == 0.0 {
        return false;
    }
    let r = x % y;
    r == r.trunc() && Value::fits_int(r as i64) && !(r == 0.0 && x < 0.0)
}

fn bitnot_value(realm: &Realm, a: Value) -> i64 {
    i64::from(!rt_ops::to_int32(realm, a))
}

/// Adds loop-persistent writes missing from an exit's slot list (existing
/// entries keep their more precise per-exit types).
pub(crate) fn union_writes(list: &mut Vec<SlotBinding>, extra: &[SlotBinding]) {
    for b in extra {
        if !list.iter().any(|x| x.ar == b.ar) {
            list.push(*b);
        }
    }
    list.sort_by_key(|b| b.ar);
}
