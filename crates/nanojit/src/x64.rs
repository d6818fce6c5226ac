//! Native x86-64 backend: emits real machine code for compiled trace trees.
//!
//! This is the second execution tier behind the decoded virtual-ISA
//! executor ([`crate::executor`]). Raw [`Fragment`]s — the instructions
//! the assembler emitted, as `.tmc` files store them — are translated to
//! an executable W^X buffer, one buffer per trace tree, entered through a
//! tiny JIT calling convention ([`NativeCtx`] in the platform module):
//! the activation record, register file, spill area, and realm travel as
//! raw pointers; guards compile to compare-and-branch against per-exit
//! trampolines that materialize the exit index. A tree's code grows the
//! way the tree does (§6.2): the mapping is reserved with spare capacity,
//! a new branch fragment is appended at the tail, and the parent's exit
//! trampoline is patched in place with a direct `jmp` to the new body —
//! every fragment is emitted exactly once ([`NativeTree::append`]).
//!
//! What x86 gives NanoJIT for free the lowering takes by local selection,
//! with no liveness: a forward table of the i32 constants each fragment
//! loads turns an ALU, checked-ALU or compare operand into an immediate,
//! and a guard on the vreg a compare just wrote branches on that
//! compare's flags. (The decoded executor gets the same density by fusing
//! superinstructions of its own, [`crate::peephole`].)
//!
//! The decoded executor remains the portable reference implementation and
//! the differential oracle: a native tree must produce byte-identical AR
//! contents *and* the same [`TraceExit`] record — including the
//! `insts`/`iterations` counters, which the emitter reconstructs by
//! accumulating static per-exit-path counts of raw instructions — for
//! every program.
//!
//! Every `MachInst` family is covered. Pure int/double arithmetic,
//! guards, and AR traffic emit inline; ops that walk realm heap
//! structures (shape/class/bound guards, slot/element/proto loads and
//! stores, `ArrayLen`/`StrLen`) call tiny `extern "sysv64"` shims that
//! forward to the `tm_runtime::trace_helpers::heap_ops` functions the
//! decoded executor's match arms call — the heap's arenas
//! are growable `Vec`s, so baking their data pointers into code would go
//! stale on reallocation; a call through a stable shim address is the
//! reliable form. `CallHelper` marshals its arguments into a ctx-inline
//! buffer and dispatches through a per-tree [`Helper`] side table.
//!
//! `CallTree` (§4.1: the outer trace calls the inner tree "like a
//! subroutine") takes one of two forms. At a [`DirectSite`] — a site the
//! monitor found deferred, with a native callee and no move that needs
//! the heap — the caller's code does the call itself: it converts the
//! argument words from its own record into the callee's (zeroed first),
//! fills a callee ctx carved out of its own run (`NativeCtx::inner`,
//! with a zeroed register file and spill area and what is left of the
//! step budget), `call`s the callee's code, and on the expected exit
//! stages the refresh words from both records before storing any into its
//! own, counting the call for the host to fold in
//! ([`crate::executor::TreeHost::fold`]). Interpreter variables are read
//! and written by one thin shim ([`crate::executor::TreeHost::variables`]);
//! a call that does not come back as expected — another exit, a refused
//! refresh word, a spent budget, a helper error in the callee — is
//! finished by the host from the callee's record
//! ([`crate::executor::TreeHost::finish_call`]); a refused argument has
//! changed nothing and takes the host path whole. Every other site
//! re-enters the monitor's [`TreeHost`] through a type-erased trampoline,
//! which runs the inner tree's own native buffer when one is installed
//! or bridges to the decoded tier when it isn't. Helper/nested-tree
//! errors land in an out-of-band slot and unwind the buffer through the
//! epilogue, so [`NativeTree::execute`] returns `Result` exactly like the
//! decoded [`crate::executor::execute`]. The only remaining whole-tree
//! fallback is a `CallHelper` whose arity exceeds the inline argument
//! buffer ([`unsupported_op`]).
//!
//! On non-x86-64 or non-Linux targets the stub module below reports
//! native support as unavailable and the tier disables itself.

use std::sync::Arc;

use tm_lir::{ArSlot, LirType};

use crate::machinst::MachInst;

/// Why a tree could not be translated to native code. Carried as an
/// `Err` from [`emit_tree`] and [`NativeTree::append`]; the monitor falls
/// back to the decoded executor for the whole tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unsupported {
    /// Mnemonic of the first op the emitter does not translate, or
    /// `"mmap"` / `"mprotect"` when the OS refused the call.
    pub what: &'static str,
}

impl Unsupported {
    /// [`NativeTree::append`] ran out of reserved capacity. Unlike every
    /// other value this is no verdict on the tree: the caller rebuilds it
    /// whole with [`emit_tree`], which reserves a larger mapping.
    pub const FULL: Unsupported = Unsupported { what: "capacity" };
}

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "native backend: unsupported {}", self.what)
    }
}

/// Capacity of the per-run inline `CallHelper` argument buffer in the
/// JIT calling convention's ctx struct. No recorded helper call comes
/// close (the recorder builds at most a handful of operands), but the
/// pre-scan still rejects wider calls so emitted stores can never run
/// off the end of the buffer.
pub const MAX_HELPER_ARGS: usize = 8;

/// The ops [`emit_tree`] refuses. Since the full-coverage tier landed
/// this is only a `CallHelper` whose arity exceeds the inline argument
/// buffer ([`MAX_HELPER_ARGS`]); every other `MachInst` family emits.
/// Returns the mnemonic for diagnostics.
pub fn unsupported_op(inst: &MachInst) -> Option<&'static str> {
    match inst {
        MachInst::CallHelper { args, .. } if args.len() > MAX_HELPER_ARGS => {
            Some("CallHelper arity")
        }
        _ => None,
    }
}

/// Where a word of a direct call's transfer is read ([`DirectSite`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordFrom {
    /// A slot of the calling tree's record, holding a value of this type.
    Outer(ArSlot, LirType),
    /// A slot of the called tree's record, holding a value of this type.
    Inner(ArSlot, LirType),
    /// An interpreter variable, read by the host
    /// ([`crate::executor::TreeHost::variables`]).
    Host,
}

/// One word a direct call moves: slot `to` gets `from`, converted to
/// `ty` the way a round trip through the interpreter would convert it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordMove {
    /// Where the word is read.
    pub from: WordFrom,
    /// The slot it is written to.
    pub to: ArSlot,
    /// The type the slot holds.
    pub ty: LirType,
}

impl WordMove {
    /// Whether native code makes this move itself: the conversions that
    /// need no heap — an integer to an integer (refused outside the
    /// boxable 31 bits) or a double, a double to a double or to an
    /// integer (refused unless integral, not `-0` and in range), and a
    /// boolean, object or string to its own type. Host words are the
    /// host's to convert.
    pub fn lowers(&self) -> bool {
        use LirType::{Bool, Double, Int, Object, String};
        match self.from {
            WordFrom::Host => true,
            WordFrom::Outer(_, from) | WordFrom::Inner(_, from) => matches!(
                (from, self.ty),
                (Int | Double, Int | Double)
                    | (Bool, Bool)
                    | (Object, Object)
                    | (String, String)
            ),
        }
    }
}

/// A nested-call site whose `CallTree` the caller's code runs itself: it
/// moves the words of the site's transfer plan and calls the callee's
/// machine code, with no host in between unless interpreter variables
/// are read or written, or the call does not come back as expected.
#[derive(Debug, Clone)]
pub struct DirectSite {
    /// The callee's code. Held, so that every address the caller's code
    /// calls stays mapped while that code exists.
    pub callee: Arc<NativeTree>,
    /// Words in the callee's activation record.
    pub callee_ar: usize,
    /// The callee's arguments, into its record (zeroed first): from the
    /// caller's record or the host.
    pub args: Vec<WordMove>,
    /// The callee exit `(fragment, exit)` the site expects.
    pub expected: (u32, u16),
    /// After the expected exit, into the caller's record, every word
    /// read before any is written: from either record or the host.
    pub refresh: Vec<WordMove>,
    /// Whether the host then writes returned variables back.
    pub flush: bool,
}

impl PartialEq for DirectSite {
    fn eq(&self, other: &DirectSite) -> bool {
        Arc::ptr_eq(&self.callee, &other.callee)
            && (self.callee_ar, &self.args, self.expected, &self.refresh, self.flush)
                == (other.callee_ar, &other.args, other.expected, &other.refresh, other.flush)
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod imp {
    use std::collections::HashMap;
    use std::mem::offset_of;

    use tm_lir::{AluOp, ChkOp, CmpOp, FOp, LirType, Tag, NO_EXIT};
    use tm_runtime::trace_helpers::{
        call_helper, f64_from_word, heap_ops, word_from_f64, Helper,
    };
    use tm_runtime::{Realm, RuntimeError};

    use super::{unsupported_op, DirectSite, Unsupported, WordFrom, WordMove, MAX_HELPER_ARGS};
    use crate::executor::{
        box_word, unbox_word, DirectCounts, TraceExit, TreeHost, Variables,
    };
    use crate::machinst::{
        as_imm, Fragment, MachInst, Reg, EXIT_UNSTITCHED, REG_FILE_WORDS, REG_MASK,
    };

    /// Whether this build can emit and run native code.
    pub fn native_supported() -> bool {
        true
    }

    // ---- JIT calling convention ----------------------------------------

    /// Everything native code needs, passed by pointer in `rdi`. Pinned
    /// callee-saved registers cache the hot fields: `r15` = ctx, `r14` =
    /// `ar`, `r13` = `regs`, `r12` = `spill`; `rbx` accumulates the
    /// `insts` counter and is flushed to the ctx on exit.
    #[repr(C)]
    struct NativeCtx {
        /// Trace activation record base.
        ar: *mut u64,
        /// Register file base (`REG_FILE_WORDS` words, zeroed per run).
        regs: *mut u64,
        /// Spill area base (max spills over all fragments, zeroed).
        spill: *mut u64,
        /// The realm, for the few ops that allocate or read heap numbers.
        realm: *mut Realm,
        /// `&realm.interrupt`, polled at loop edges (§6.4).
        interrupt: *const bool,
        /// `&realm.heap.gc_pending`, polled at loop edges.
        gc_pending: *const bool,
        /// Instruction budget: loop edges exit once `insts >= fuel`.
        fuel: u64,
        /// Address of the fragment body to enter at; the prologue jumps
        /// through it, so fragments can be appended without touching the
        /// prologue.
        entry: *const u8,
        /// Out: completed loop-edge crossings.
        iterations: u64,
        /// Out: instructions retired.
        insts: u64,
        /// Out: fragment that took the final (unstitched) exit.
        exit_fragment: u32,
        /// Out: exit id taken.
        exit_id: u32,
        /// Per-tree `CallHelper` side table base ([`NativeTree::helpers`]).
        /// `Helper` carries a payload variant (`CallNative`), so sites
        /// index this table instead of baking an immediate.
        helpers: *const Helper,
        /// `CallHelper` argument scratch; emitted code stores the operand
        /// vregs here before calling [`helper_shim`]. The pre-scan caps
        /// arity at `MAX_HELPER_ARGS` so the stores stay in bounds.
        helper_args: [u64; MAX_HELPER_ARGS],
        /// Out from [`helper_shim`]: the helper's result word.
        helper_result: u64,
        /// Number of AR slots, so [`call_tree_shim`] can rebuild the
        /// `&mut [u64]` slice the nested tree executes against.
        ar_len: u64,
        /// Type-erased [`TreeHost`]: a thin pointer to the `&mut dyn
        /// TreeHost` living on [`NativeTree::execute`]'s stack (a raw fat
        /// pointer has no stable `repr(C)` layout, so it stays behind one
        /// more indirection and only Rust shim code dereferences it).
        host: *mut core::ffi::c_void,
        /// Out: error raised by a helper or nested tree. Points at an
        /// `Option<RuntimeError>` on `execute`'s stack; when a shim
        /// reports status 2 the native code unwinds through the epilogue
        /// and `execute` returns `Err` instead of a `TraceExit`. A
        /// callee's ctx points at its caller's.
        error: *mut Option<RuntimeError>,
        /// The ctx a direct site runs its callee in, whose `ar`, `regs`
        /// and `spill` are carved out of this run (null when the tree
        /// has no direct site). Its `ar_len` is the room for any callee.
        inner: *mut NativeCtx,
        /// Per site id, the direct calls completed since the host last
        /// folded them ([`TreeHost::fold`]); `sites` entries.
        counts: *mut DirectCounts,
        sites: u64,
        /// Where a direct site's refresh words wait until all are read;
        /// `stage_len` words.
        stage: *mut u64,
        stage_len: u64,
        /// Steps the next callee run may take: `fuel`, less what this
        /// run's direct calls have retired since the host last folded
        /// them. A callee run that uses all of it goes to the host.
        budget: u64,
    }

    /// `exit_fragment` of a callee run a helper error ended: a direct
    /// site presets it, and only exit trampolines overwrite it.
    const RAISED: u32 = u32::MAX;

    const CTX_AR: i32 = offset_of!(NativeCtx, ar) as i32;
    const CTX_REGS: i32 = offset_of!(NativeCtx, regs) as i32;
    const CTX_SPILL: i32 = offset_of!(NativeCtx, spill) as i32;
    const CTX_REALM: i32 = offset_of!(NativeCtx, realm) as i32;
    const CTX_INTERRUPT: i32 = offset_of!(NativeCtx, interrupt) as i32;
    const CTX_GC: i32 = offset_of!(NativeCtx, gc_pending) as i32;
    const CTX_FUEL: i32 = offset_of!(NativeCtx, fuel) as i32;
    const CTX_ENTRY: i32 = offset_of!(NativeCtx, entry) as i32;
    const CTX_ITER: i32 = offset_of!(NativeCtx, iterations) as i32;
    const CTX_INSTS: i32 = offset_of!(NativeCtx, insts) as i32;
    const CTX_EXIT_FRAG: i32 = offset_of!(NativeCtx, exit_fragment) as i32;
    const CTX_EXIT_ID: i32 = offset_of!(NativeCtx, exit_id) as i32;
    const CTX_HARGS: i32 = offset_of!(NativeCtx, helper_args) as i32;
    const CTX_HRESULT: i32 = offset_of!(NativeCtx, helper_result) as i32;
    const CTX_HELPERS: i32 = offset_of!(NativeCtx, helpers) as i32;
    const CTX_INNER: i32 = offset_of!(NativeCtx, inner) as i32;
    const CTX_COUNTS: i32 = offset_of!(NativeCtx, counts) as i32;
    const CTX_STAGE: i32 = offset_of!(NativeCtx, stage) as i32;
    const CTX_BUDGET: i32 = offset_of!(NativeCtx, budget) as i32;

    // ---- runtime shims --------------------------------------------------
    //
    // Native code calls these with the System V convention, so the pinned
    // callee-saved registers survive. The heap and box shims hold no
    // semantics of their own: each forwards to the `tm_runtime` function
    // (`trace_helpers::heap_ops`) that the decoded executor's match arm
    // for the same instruction calls.
    //
    // Every `realm` argument is `NativeCtx::realm`, which
    // `NativeTree::execute` fills from the `&mut Realm` it holds for the
    // whole run; native code runs on that thread only and is suspended
    // inside the call, so the reference each shim rebuilds is unique (or
    // shared, for the `*const` ones) for the shim's duration.

    extern "sysv64" fn fmod_shim(a: u64, b: u64) -> u64 {
        word_from_f64(FOp::Mod.eval(f64_from_word(a), f64_from_word(b)))
    }

    extern "sysv64" fn d2i32_shim(a: u64) -> u64 {
        i64::from(tm_runtime::ops::double_to_int32(f64_from_word(a))) as u64
    }

    /// `Box(Int)` slow path: the value is outside the boxable 31-bit
    /// range, so boxing allocates a heap double.
    extern "sysv64" fn boxi_slow_shim(realm: *mut Realm, i: u32) -> u64 {
        // SAFETY: `realm` is the run's realm (section comment).
        box_word(unsafe { &mut *realm }, Tag::Int, u64::from(i))
    }

    extern "sysv64" fn boxd_shim(realm: *mut Realm, bits: u64) -> u64 {
        // SAFETY: `realm` is the run's realm (section comment).
        box_word(unsafe { &mut *realm }, Tag::Double, bits)
    }

    /// Reads the heap double behind an already-tag-checked boxed value.
    extern "sysv64" fn unbox_double_shim(realm: *const Realm, raw: u64) -> u64 {
        // SAFETY: `realm` is the run's realm (section comment).
        unbox_word(unsafe { &*realm }, Tag::Double, raw).expect("tag checked by native code")
    }

    // Heap-walking ops (shape/class/bound guards, slot/element/proto
    // access, lengths). The heap's object and string arenas are growable
    // `Vec`s whose data pointers move on reallocation, so the emitter
    // calls these stable shims instead of baking arena addresses into
    // code; surrounding arithmetic still runs fully native.

    /// `GuardShape` probe.
    extern "sysv64" fn shape_of_shim(realm: *const Realm, obj: u64) -> u64 {
        // SAFETY: `realm` is the run's realm (section comment).
        heap_ops::shape_of(unsafe { &*realm }, obj)
    }

    /// `GuardClass` probe.
    extern "sysv64" fn class_of_shim(realm: *const Realm, obj: u64) -> u64 {
        // SAFETY: `realm` is the run's realm (section comment).
        heap_ops::class_of(unsafe { &*realm }, obj)
    }

    /// `GuardBound` probe.
    extern "sysv64" fn elems_len_shim(realm: *const Realm, obj: u64) -> u64 {
        // SAFETY: `realm` is the run's realm (section comment).
        heap_ops::elems_len(unsafe { &*realm }, obj)
    }

    extern "sysv64" fn load_slot_shim(realm: *const Realm, obj: u64, slot: u64) -> u64 {
        // SAFETY: `realm` is the run's realm (section comment).
        heap_ops::load_slot(unsafe { &*realm }, obj, slot)
    }

    extern "sysv64" fn store_slot_shim(realm: *mut Realm, obj: u64, slot: u64, v: u64) {
        // SAFETY: `realm` is the run's realm (section comment).
        heap_ops::store_slot(unsafe { &mut *realm }, obj, slot, v);
    }

    extern "sysv64" fn load_proto_shim(realm: *const Realm, obj: u64) -> u64 {
        // SAFETY: `realm` is the run's realm (section comment).
        heap_ops::load_proto(unsafe { &*realm }, obj)
    }

    /// `idx` arrives sign-extended from the i32 vreg.
    extern "sysv64" fn load_elem_shim(realm: *const Realm, obj: u64, idx: i64) -> u64 {
        // SAFETY: `realm` is the run's realm (section comment).
        heap_ops::load_elem(unsafe { &*realm }, obj, idx as i32)
    }

    extern "sysv64" fn store_elem_shim(realm: *mut Realm, obj: u64, idx: i64, v: u64) {
        // SAFETY: `realm` is the run's realm (section comment).
        heap_ops::store_elem(unsafe { &mut *realm }, obj, idx as i32, v);
    }

    extern "sysv64" fn array_len_shim(realm: *const Realm, obj: u64) -> u64 {
        // SAFETY: `realm` is the run's realm (section comment).
        heap_ops::array_len(unsafe { &*realm }, obj)
    }

    extern "sysv64" fn str_len_shim(realm: *const Realm, s: u64) -> u64 {
        // SAFETY: `realm` is the run's realm (section comment).
        heap_ops::str_len(unsafe { &*realm }, s)
    }

    // Runtime re-entry (helper calls, nested trees). Both return a
    // status word the emitted code branches on; errors are parked in
    // `ctx.error` and the buffer unwinds through the epilogue.

    /// `helper_shim` status: continue straight-line execution.
    const ST_OK: u32 = 0;
    /// Take the instruction's side exit (helper re-entered the VM §6.5,
    /// or the nested tree reported a guard mismatch).
    const ST_EXIT: u32 = 1;
    /// A `RuntimeError` was stored through `ctx.error`; abandon the run.
    const ST_ERR: u32 = 2;

    /// `CallHelper`: dispatches through the per-tree helper table with
    /// the arguments the emitted code marshalled into `ctx.helper_args`.
    extern "sysv64" fn helper_shim(ctx: *mut NativeCtx, helper: u32, argc: u32) -> u32 {
        let ctx = unsafe { &mut *ctx };
        let realm = unsafe { &mut *ctx.realm };
        let h = unsafe { *ctx.helpers.add(helper as usize) };
        match call_helper(realm, h, &ctx.helper_args[..argc as usize]) {
            Ok(w) => {
                ctx.helper_result = w;
                if realm.reentered_during_trace {
                    realm.reentered_during_trace = false;
                    ST_EXIT
                } else {
                    ST_OK
                }
            }
            Err(e) => {
                unsafe { *ctx.error = Some(e) };
                ST_ERR
            }
        }
    }

    /// What a shim works on, rebuilt from the ctx `NativeTree::execute`
    /// filled: the ctx, the run's `TreeHost`, realm and record, and, when
    /// the tree has direct sites, the callee ctx's record and the staged
    /// refresh words (empty otherwise).
    struct Run<'a> {
        ctx: &'a mut NativeCtx,
        host: &'a mut dyn TreeHost,
        realm: &'a mut Realm,
        ar: &'a mut [u64],
        callee_ar: &'a mut [u64],
        staged: &'a mut [u64],
    }

    impl Run<'_> {
        /// # Safety
        ///
        /// `ctx` is the ctx of a run in progress, suspended in this call.
        unsafe fn of(ctx: *mut NativeCtx) -> Self {
            // SAFETY: every pointer in a run's ctx outlives the run and
            // names memory nothing else touches while native code is
            // suspended — the callee's record and the staged words are
            // carved out of the run apart from each other and from the
            // record; `host` is a thin pointer to the `&mut dyn TreeHost`
            // on `execute`'s stack (a raw fat pointer has no stable
            // `repr(C)` layout, so only Rust code dereferences it).
            unsafe {
                let ctx = &mut *ctx;
                let host = &mut **(ctx.host as *mut &mut dyn TreeHost);
                let realm = &mut *ctx.realm;
                let ar = std::slice::from_raw_parts_mut(ctx.ar, ctx.ar_len as usize);
                let (callee_ar, staged) = match ctx.inner.as_ref() {
                    Some(inner) => (
                        std::slice::from_raw_parts_mut(inner.ar, inner.ar_len as usize),
                        std::slice::from_raw_parts_mut(ctx.stage, ctx.stage_len as usize),
                    ),
                    None => (&mut [][..], &mut [][..]),
                };
                Run { ctx, host, realm, ar, callee_ar, staged }
            }
        }

        /// Hands the direct calls counted so far to the host, before it
        /// reads any state they changed, and takes the budget it leaves.
        fn fold(&mut self) {
            if !self.ctx.counts.is_null() {
                // SAFETY: as in `of`.
                let counts =
                    unsafe { std::slice::from_raw_parts_mut(self.ctx.counts, self.ctx.sites as usize) };
                self.ctx.budget = self.host.fold(counts);
            }
        }

        /// The host's answer as a status word; an error is parked in
        /// `ctx.error`.
        fn status(&mut self, r: Result<bool, RuntimeError>) -> u32 {
            match r {
                Ok(true) => ST_OK,
                Ok(false) => ST_EXIT,
                Err(e) => {
                    // SAFETY: as in `of`.
                    unsafe { *self.ctx.error = Some(e) };
                    ST_ERR
                }
            }
        }
    }

    /// `CallTree` through the host, for nested-tree site `site`. The host
    /// marshals the AR, runs the inner tree — its *own* native buffer
    /// when one is installed, the decoded executor otherwise (the
    /// native→decoded bridge) — and reports whether the call completed
    /// on the expected exit.
    extern "sysv64" fn call_tree_shim(ctx: *mut NativeCtx, site: u32) -> u32 {
        // SAFETY: native code passes its own ctx.
        let mut run = unsafe { Run::of(ctx) };
        run.fold();
        let returned = run.host.call_tree(site, run.ar, run.realm);
        run.fold();
        run.status(returned)
    }

    /// A direct site's interpreter variables ([`TreeHost::variables`];
    /// `part` 0, 1, 2 = args, refresh, flush): 1 when they were moved,
    /// 0 on a refusal. Reads or writes interpreter variables only.
    extern "sysv64" fn variables_shim(ctx: *mut NativeCtx, site: u32, part: u32) -> u32 {
        // SAFETY: native code passes its own ctx.
        let run = unsafe { Run::of(ctx) };
        let part = [Variables::Args, Variables::Refresh, Variables::Flush][part.min(2) as usize];
        u32::from(run.host.variables(site, part, run.callee_ar, run.staged, run.realm))
    }

    /// A direct call that did not come back as its site expects — a
    /// callee exit other than the expected one, a refused refresh, a
    /// spent budget, or a helper error in the callee: the host finishes
    /// it from the callee's record and exit ([`TreeHost::finish_call`]).
    extern "sysv64" fn return_shim(ctx: *mut NativeCtx, site: u32) -> u32 {
        // SAFETY: native code passes its own ctx.
        let mut run = unsafe { Run::of(ctx) };
        run.fold();
        // SAFETY: as in `Run::of`; the callee ctx is read only.
        let inner = unsafe { &*run.ctx.inner };
        let exit = (inner.exit_fragment != RAISED).then_some(TraceExit {
            fragment: inner.exit_fragment,
            exit: inner.exit_id as u16,
            insts: inner.insts,
            dispatched: inner.insts,
            iterations: inner.iterations,
        });
        let finished = run.host.finish_call(site, run.ar, run.callee_ar, exit, run.realm);
        run.fold();
        match exit {
            // The callee's error is already in `ctx.error`.
            None => ST_ERR,
            Some(_) => run.status(finished),
        }
    }

    // ---- executable buffer ----------------------------------------------

    pub(super) const SYS_MMAP: isize = 9;
    pub(super) const SYS_MPROTECT: isize = 10;
    const SYS_MUNMAP: isize = 11;
    const PROT_RW: usize = 0x3;
    const PROT_RX: usize = 0x5;
    const MAP_PRIVATE_ANON: usize = 0x22;

    /// Spare room reserved behind a tree's first emission so that branch
    /// fragments append in place: the mapping is `CAPACITY_FACTOR` times
    /// the first emission, and at least `CAPACITY_FLOOR`. Pages of an
    /// anonymous mapping that are never written cost address space only,
    /// so the floor is sized for the large trees: the SunSpider suite's
    /// largest tree is 63 KB. A tree that outgrows its mapping is rebuilt whole
    /// into one `CAPACITY_FACTOR` times its new size.
    const CAPACITY_FACTOR: usize = 4;
    const CAPACITY_FLOOR: usize = 256 * 1024;

    // Test-only failure switch: the next `mmap` or `mprotect` (by syscall
    // number) issued on this thread is refused.
    #[cfg(test)]
    thread_local! {
        pub(super) static REFUSE_NEXT: std::cell::Cell<Option<isize>> =
            const { std::cell::Cell::new(None) };
    }

    #[cfg(test)]
    fn refused(nr: isize) -> bool {
        REFUSE_NEXT.with(|r| r.get() == Some(nr) && r.replace(None).is_some())
    }

    /// # Safety
    ///
    /// `n` with `args` must be a system call that is sound to issue: here
    /// an anonymous `mmap` at a kernel-chosen address, or
    /// `mprotect`/`munmap` on a range this module mapped and nothing else
    /// references.
    unsafe fn syscall(n: isize, args: [usize; 6]) -> isize {
        let ret: isize;
        // SAFETY: the Linux x86-64 syscall convention; rcx/r11 are
        // declared clobbered, and the caller vouches for the call itself.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") n => ret,
                in("rdi") args[0],
                in("rsi") args[1],
                in("rdx") args[2],
                in("r10") args[3],
                in("r8") args[4],
                in("r9") args[5],
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// A page-rounded mapping holding one tree's code, or nothing yet
    /// (`len == 0`). The pages are `rw-` while code is copied in or
    /// patched and `r-x` otherwise — never writable and executable at
    /// once.
    struct ExecBuf {
        ptr: *mut u8,
        len: usize,
    }

    // SAFETY: `ptr` is this value's own mapping. Code in it only touches
    // memory through the ctx it is called with, so executing through
    // `&ExecBuf` from any thread is sound; the mapping is written only by
    // `NativeTree::append`, which owns the tree by value (no `&` to it can
    // exist), and trees are realm-local in the monitor.
    unsafe impl Send for ExecBuf {}
    // SAFETY: as above.
    unsafe impl Sync for ExecBuf {}

    impl ExecBuf {
        const UNMAPPED: ExecBuf = ExecBuf { ptr: std::ptr::null_mut(), len: 0 };

        /// Maps `len` (a page multiple) bytes `rw-`.
        fn map(len: usize) -> Option<ExecBuf> {
            #[cfg(test)]
            if refused(SYS_MMAP) {
                return None;
            }
            // SAFETY: a fresh private anonymous mapping aliases nothing.
            let addr = unsafe {
                syscall(SYS_MMAP, [0, len, PROT_RW, MAP_PRIVATE_ANON, usize::MAX, 0])
            };
            if (-4095..0).contains(&addr) {
                return None;
            }
            Some(ExecBuf { ptr: addr as *mut u8, len })
        }

        /// Flips the whole mapping to `prot`; `false` when the OS refuses.
        fn protect(&self, prot: usize) -> bool {
            #[cfg(test)]
            if refused(SYS_MPROTECT) {
                return false;
            }
            // SAFETY: `ptr..ptr+len` is this value's own live mapping.
            unsafe { syscall(SYS_MPROTECT, [self.ptr as usize, self.len, prot, 0, 0, 0]) == 0 }
        }
    }

    impl Drop for ExecBuf {
        fn drop(&mut self) {
            if self.len != 0 {
                // SAFETY: `ptr..ptr+len` is this value's own mapping, and
                // no code in it is running: every run borrows the tree.
                unsafe { syscall(SYS_MUNMAP, [self.ptr as usize, self.len, 0, 0, 0, 0]) };
            }
        }
    }

    // ---- assembler ------------------------------------------------------

    const RAX: u8 = 0;
    const RCX: u8 = 1;
    const RDX: u8 = 2;
    const RBX: u8 = 3;
    const RSI: u8 = 6;
    const RDI: u8 = 7;
    const R8: u8 = 8;
    const R9: u8 = 9;
    const R10: u8 = 10;
    const R12: u8 = 12;
    const R13: u8 = 13;
    const R14: u8 = 14;
    const R15: u8 = 15;
    const XMM0: u8 = 0;
    const XMM1: u8 = 1;

    /// Condition codes for `jcc`/`setcc`. `cc ^ 1` is the inverse.
    const CC_AE: u8 = 0x3;
    const CC_E: u8 = 0x4;
    const CC_NE: u8 = 0x5;
    const CC_A: u8 = 0x7;
    const CC_S: u8 = 0x8;
    const CC_P: u8 = 0xA;
    const CC_NP: u8 = 0xB;
    const CC_L: u8 = 0xC;
    const CC_GE: u8 = 0xD;
    const CC_LE: u8 = 0xE;
    const CC_G: u8 = 0xF;

    /// A branch target resolved at finalize time.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Label {
        /// Entry of the trunk (fragment 0), where loop edges jump back to.
        Trunk,
        /// Exit site `n` (see `SiteInfo`).
        Site(u32),
        /// An emitter-local label inside one instruction's expansion.
        Local(u32),
        /// The common function epilogue.
        Epilogue,
    }

    /// Byte-buffer assembler with rel32 label fixups and offset-keyed
    /// annotations (consumed by the hexdump disassembler). It assembles
    /// the chunk of a tree's code that starts at offset `base`; label,
    /// fixup and note positions are offsets into the tree's mapping, so a
    /// chunk can jump to code laid before it. Annotations are only
    /// collected when `notes` is `Some` — formatting every virtual
    /// instruction is far too expensive for the monitor's emission path,
    /// which never reads them.
    #[derive(Default)]
    struct Asm {
        base: usize,
        code: Vec<u8>,
        labels: HashMap<Label, usize>,
        fixups: Vec<(usize, Label)>,
        notes: Option<Vec<(usize, String)>>,
    }

    impl Asm {
        fn here(&self) -> usize {
            self.base + self.code.len()
        }

        fn note(&mut self, text: impl FnOnce() -> String) {
            let here = self.here();
            if let Some(notes) = &mut self.notes {
                notes.push((here, text()));
            }
        }

        fn byte(&mut self, b: u8) {
            self.code.push(b);
        }

        fn bytes(&mut self, bs: &[u8]) {
            self.code.extend_from_slice(bs);
        }

        fn imm32(&mut self, v: i32) {
            self.code.extend_from_slice(&v.to_le_bytes());
        }

        fn imm64(&mut self, v: u64) {
            self.code.extend_from_slice(&v.to_le_bytes());
        }

        /// REX prefix for `reg`/`rm` (or base), omitted when empty.
        fn rex_if(&mut self, w: bool, reg: u8, rm: u8) {
            let rex = 0x40 | (u8::from(w) << 3) | (((reg >> 3) & 1) << 2) | ((rm >> 3) & 1);
            if rex != 0x40 {
                self.byte(rex);
            }
        }

        /// ModRM for `[base + disp32]` (mod=10; SIB when base is r12/rsp).
        fn modrm_mem(&mut self, reg: u8, base: u8, disp: i32) {
            self.byte(0b1000_0000 | ((reg & 7) << 3) | (base & 7));
            if base & 7 == 4 {
                self.byte(0x24);
            }
            self.imm32(disp);
        }

        fn modrm_reg(&mut self, reg: u8, rm: u8) {
            self.byte(0b1100_0000 | ((reg & 7) << 3) | (rm & 7));
        }

        fn op_mem(&mut self, w: bool, opc: &[u8], reg: u8, base: u8, disp: i32) {
            self.rex_if(w, reg, base);
            self.bytes(opc);
            self.modrm_mem(reg, base, disp);
        }

        fn op_reg(&mut self, w: bool, opc: &[u8], reg: u8, rm: u8) {
            self.rex_if(w, reg, rm);
            self.bytes(opc);
            self.modrm_reg(reg, rm);
        }

        /// SSE op with a mandatory prefix byte (F2/66) before REX.
        fn sse_mem(&mut self, prefix: u8, w: bool, opc: &[u8], xmm: u8, base: u8, disp: i32) {
            self.byte(prefix);
            self.rex_if(w, xmm, base);
            self.bytes(opc);
            self.modrm_mem(xmm, base, disp);
        }

        fn sse_reg(&mut self, prefix: u8, w: bool, opc: &[u8], reg: u8, rm: u8) {
            self.byte(prefix);
            self.rex_if(w, reg, rm);
            self.bytes(opc);
            self.modrm_reg(reg, rm);
        }

        // -- moves --

        /// `mov r32, [base+disp]` (zero-extends to 64 bits).
        fn mov_r32_mem(&mut self, dst: u8, base: u8, disp: i32) {
            self.op_mem(false, &[0x8B], dst, base, disp);
        }

        fn mov_r64_mem(&mut self, dst: u8, base: u8, disp: i32) {
            self.op_mem(true, &[0x8B], dst, base, disp);
        }

        fn mov_mem_r64(&mut self, base: u8, disp: i32, src: u8) {
            self.op_mem(true, &[0x89], src, base, disp);
        }

        /// `mov dword [base+disp], imm32`.
        fn mov_mem32_imm(&mut self, base: u8, disp: i32, imm: i32) {
            self.op_mem(false, &[0xC7], 0, base, disp);
            self.imm32(imm);
        }

        /// `movsxd r64, dword [base+disp]`.
        fn movsxd_r64_mem(&mut self, dst: u8, base: u8, disp: i32) {
            self.op_mem(true, &[0x63], dst, base, disp);
        }

        /// `movsxd r64, r32`.
        fn movsxd_r64_r32(&mut self, dst: u8, src: u8) {
            self.op_reg(true, &[0x63], dst, src);
        }

        fn mov_rr64(&mut self, dst: u8, src: u8) {
            self.op_reg(true, &[0x89], src, dst);
        }

        /// `mov r32, r32` (zero-extends; also truncates to u32).
        fn mov_rr32(&mut self, dst: u8, src: u8) {
            self.op_reg(false, &[0x89], src, dst);
        }

        /// `mov r32, imm32` (zero-extends).
        fn mov_r32_imm(&mut self, dst: u8, imm: u32) {
            self.rex_if(false, 0, dst);
            self.byte(0xB8 | (dst & 7));
            self.imm32(imm as i32);
        }

        /// `mov r64, imm32` (sign-extends).
        fn mov_r64_imm32(&mut self, dst: u8, imm: i32) {
            self.op_reg(true, &[0xC7], 0, dst);
            self.imm32(imm);
        }

        /// `movabs r64, imm64`.
        fn movabs(&mut self, dst: u8, imm: u64) {
            self.rex_if(true, 0, dst);
            self.byte(0xB8 | (dst & 7));
            self.imm64(imm);
        }

        // -- integer ALU --

        /// 32-bit `op dst, src` for the MR-form opcodes (add 01, or 09,
        /// and 21, sub 29, xor 31, cmp 39, test 85, mov 89).
        fn alu_rr32(&mut self, opc: u8, dst: u8, src: u8) {
            self.op_reg(false, &[opc], src, dst);
        }

        fn alu_rr64(&mut self, opc: u8, dst: u8, src: u8) {
            self.op_reg(true, &[opc], src, dst);
        }

        /// 32-bit `op rm, imm32` (group-1 opcode 81; ext selects the op).
        fn alu_r32_imm32(&mut self, ext: u8, rm: u8, imm: i32) {
            self.op_reg(false, &[0x81], ext, rm);
            self.imm32(imm);
        }

        fn alu_r64_imm32(&mut self, ext: u8, rm: u8, imm: i32) {
            self.op_reg(true, &[0x81], ext, rm);
            self.imm32(imm);
        }

        fn imul_rr32(&mut self, dst: u8, src: u8) {
            self.op_reg(false, &[0x0F, 0xAF], dst, src);
        }

        fn imul_rr64(&mut self, dst: u8, src: u8) {
            self.op_reg(true, &[0x0F, 0xAF], dst, src);
        }

        /// `imul r64, r64, imm32`.
        fn imul_r64_imm32(&mut self, dst: u8, src: u8, imm: i32) {
            self.op_reg(true, &[0x69], dst, src);
            self.imm32(imm);
        }

        /// `imul r32, r32, imm32`.
        fn imul_r32_imm32(&mut self, dst: u8, src: u8, imm: i32) {
            self.op_reg(false, &[0x69], dst, src);
            self.imm32(imm);
        }

        /// 32-bit shift by `cl` (ext: shl 4, shr 5, sar 7).
        fn shift_cl32(&mut self, ext: u8, rm: u8) {
            self.op_reg(false, &[0xD3], ext, rm);
        }

        /// 32-bit shift by immediate.
        fn shift_imm32(&mut self, ext: u8, rm: u8, imm: u8) {
            self.op_reg(false, &[0xC1], ext, rm);
            self.byte(imm);
        }

        /// 64-bit shift by immediate.
        fn shift_imm64(&mut self, ext: u8, rm: u8, imm: u8) {
            self.op_reg(true, &[0xC1], ext, rm);
            self.byte(imm);
        }

        fn test_rr32(&mut self, a: u8, b: u8) {
            self.alu_rr32(0x85, a, b);
        }

        fn test_rr64(&mut self, a: u8, b: u8) {
            self.alu_rr64(0x85, a, b);
        }

        /// `test al, imm8`.
        fn test_al_imm8(&mut self, imm: u8) {
            self.bytes(&[0xA8, imm]);
        }

        fn cmp_rr32(&mut self, a: u8, b: u8) {
            self.alu_rr32(0x39, a, b);
        }

        fn cmp_rr64(&mut self, a: u8, b: u8) {
            self.alu_rr64(0x39, a, b);
        }

        fn cmp_r32_imm32(&mut self, rm: u8, imm: i32) {
            self.alu_r32_imm32(7, rm, imm);
        }

        fn cmp_r64_imm32(&mut self, rm: u8, imm: i32) {
            self.alu_r64_imm32(7, rm, imm);
        }

        /// `cmp r64, [base+disp]`.
        fn cmp_r64_mem(&mut self, reg: u8, base: u8, disp: i32) {
            self.op_mem(true, &[0x3B], reg, base, disp);
        }

        /// `cmp byte [rax], 0`.
        fn cmp_byte_at_rax_0(&mut self) {
            self.bytes(&[0x80, 0x38, 0x00]);
        }

        /// `setcc r8` (low byte; only rax..rdx used).
        fn setcc(&mut self, cc: u8, rm: u8) {
            self.op_reg(false, &[0x0F, 0x90 | cc], 0, rm);
        }

        /// `movzx r32, r8`.
        fn movzx_r32_r8(&mut self, dst: u8, src: u8) {
            self.op_reg(false, &[0x0F, 0xB6], dst, src);
        }

        /// `and dst8, src8`.
        fn and_r8_r8(&mut self, dst: u8, src: u8) {
            self.op_reg(false, &[0x20], src, dst);
        }

        /// Group-3 unary (ext: not 2, neg 3) on r32.
        fn unary32(&mut self, ext: u8, rm: u8) {
            self.op_reg(false, &[0xF7], ext, rm);
        }

        fn neg64(&mut self, rm: u8) {
            self.op_reg(true, &[0xF7], 3, rm);
        }

        fn cdq(&mut self) {
            self.byte(0x99);
        }

        /// `idiv r32` (divides edx:eax).
        fn idiv32(&mut self, rm: u8) {
            self.op_reg(false, &[0xF7], 7, rm);
        }

        /// `inc qword [base+disp]`.
        fn inc_mem64(&mut self, base: u8, disp: i32) {
            self.op_mem(true, &[0xFF], 0, base, disp);
        }

        /// `add qword [base+disp], src`.
        fn add_mem_r64(&mut self, base: u8, disp: i32, src: u8) {
            self.op_mem(true, &[0x01], src, base, disp);
        }

        /// `sub qword [base+disp], src`.
        fn sub_mem_r64(&mut self, base: u8, disp: i32, src: u8) {
            self.op_mem(true, &[0x29], src, base, disp);
        }

        /// `cmp dword [base+disp], imm32`.
        fn cmp_mem32_imm(&mut self, base: u8, disp: i32, imm: i32) {
            self.op_mem(false, &[0x81], 7, base, disp);
            self.imm32(imm);
        }

        /// `rep stosq`: `rcx` words of `rax` from `rdi` up.
        fn rep_stosq(&mut self) {
            self.bytes(&[0xF3, 0x48, 0xAB]);
        }

        /// `btc r64, imm8` (used to flip the f64 sign bit).
        fn btc_r64_imm8(&mut self, rm: u8, imm: u8) {
            self.op_reg(true, &[0x0F, 0xBA], 7, rm);
            self.byte(imm);
        }

        /// `or r64, imm8` (sign-extended).
        fn or_r64_imm8(&mut self, rm: u8, imm: i8) {
            self.op_reg(true, &[0x83], 1, rm);
            self.byte(imm as u8);
        }

        /// `add r64, imm8` (sign-extended).
        fn add_r64_imm8(&mut self, rm: u8, imm: i8) {
            self.op_reg(true, &[0x83], 0, rm);
            self.byte(imm as u8);
        }

        fn xor_rr32(&mut self, rm: u8) {
            self.alu_rr32(0x31, rm, rm);
        }

        // -- SSE --

        /// `movsd xmm, [base+disp]`.
        fn movsd_load(&mut self, xmm: u8, base: u8, disp: i32) {
            self.sse_mem(0xF2, false, &[0x0F, 0x10], xmm, base, disp);
        }

        /// `movsd [base+disp], xmm`.
        fn movsd_store(&mut self, base: u8, disp: i32, xmm: u8) {
            self.sse_mem(0xF2, false, &[0x0F, 0x11], xmm, base, disp);
        }

        /// `addsd`/`subsd`/`mulsd`/`divsd xmm, [base+disp]` by opcode.
        fn sse_arith_mem(&mut self, opc: u8, xmm: u8, base: u8, disp: i32) {
            self.sse_mem(0xF2, false, &[0x0F, opc], xmm, base, disp);
        }

        /// `ucomisd xmm, [base+disp]`.
        fn ucomisd_mem(&mut self, xmm: u8, base: u8, disp: i32) {
            self.sse_mem(0x66, false, &[0x0F, 0x2E], xmm, base, disp);
        }

        /// `ucomisd xmm, xmm`.
        fn ucomisd_reg(&mut self, a: u8, b: u8) {
            self.sse_reg(0x66, false, &[0x0F, 0x2E], a, b);
        }

        /// `cvtsi2sd xmm, dword [base+disp]` (32-bit source).
        fn cvtsi2sd_mem32(&mut self, xmm: u8, base: u8, disp: i32) {
            self.sse_mem(0xF2, false, &[0x0F, 0x2A], xmm, base, disp);
        }

        /// `cvtsi2sd xmm, r32/r64`.
        fn cvtsi2sd_reg(&mut self, xmm: u8, gpr: u8, wide: bool) {
            self.sse_reg(0xF2, wide, &[0x0F, 0x2A], xmm, gpr);
        }

        /// `movq r64, xmm`.
        fn movq_r64_xmm(&mut self, gpr: u8, xmm: u8) {
            self.sse_reg(0x66, true, &[0x0F, 0x7E], xmm, gpr);
        }

        /// `cvttsd2si r64, xmm`.
        fn cvttsd2si_r64(&mut self, gpr: u8, xmm: u8) {
            self.sse_reg(0xF2, true, &[0x0F, 0x2C], gpr, xmm);
        }

        // -- control flow --

        fn push(&mut self, reg: u8) {
            self.rex_if(false, 0, reg);
            self.byte(0x50 | (reg & 7));
        }

        fn pop(&mut self, reg: u8) {
            self.rex_if(false, 0, reg);
            self.byte(0x58 | (reg & 7));
        }

        fn ret(&mut self) {
            self.byte(0xC3);
        }

        fn ud2(&mut self) {
            self.bytes(&[0x0F, 0x0B]);
        }

        fn call_rax(&mut self) {
            self.bytes(&[0xFF, 0xD0]);
        }

        fn bind(&mut self, label: Label) {
            let pos = self.here();
            let prev = self.labels.insert(label, pos);
            debug_assert!(prev.is_none(), "label {label:?} bound twice");
        }

        fn jmp(&mut self, label: Label) {
            self.byte(0xE9);
            self.fixups.push((self.here(), label));
            self.imm32(0);
        }

        fn jcc(&mut self, cc: u8, label: Label) {
            self.bytes(&[0x0F, 0x80 | cc]);
            self.fixups.push((self.here(), label));
            self.imm32(0);
        }

        /// Patches every rel32 fixup against the bound labels.
        fn finalize(&mut self) {
            for &(pos, label) in &self.fixups {
                let target = *self
                    .labels
                    .get(&label)
                    .unwrap_or_else(|| panic!("unbound label {label:?}"));
                let rel = i32::try_from(target as i64 - (pos as i64 + 4))
                    .expect("jump displacement exceeds rel32");
                let at = pos - self.base;
                self.code[at..at + 4].copy_from_slice(&rel.to_le_bytes());
            }
            self.fixups.clear();
        }
    }

    /// Overwrites the five bytes at `code[at..]` with `jmp rel32` to
    /// offset `target` of the same buffer.
    fn patch_jmp(code: &mut [u8], at: usize, target: usize) {
        let rel = i32::try_from(target as i64 - (at as i64 + 5))
            .expect("jump displacement exceeds rel32");
        code[at] = 0xE9;
        code[at + 1..at + 5].copy_from_slice(&rel.to_le_bytes());
    }

    // ---- tree emitter ---------------------------------------------------

    /// One guard's exit trampoline: flush the path counts, then store the
    /// exit record and return. Once a branch is stitched to the exit, the
    /// part after the flush is overwritten with a jump to the branch.
    struct SiteInfo {
        frag: u32,
        exit: u16,
        /// Raw instructions retired on the path from fragment entry
        /// through the exiting one.
        path: u32,
    }

    /// Where a laid exit trampoline of `(frag, exit)` is patched when a
    /// branch is stitched to it: `tail` is the mapping offset just past
    /// the count flush.
    struct SiteTail {
        frag: u32,
        exit: u16,
        tail: u32,
    }

    /// Emits one chunk of a tree's code: the fragments of one
    /// [`NativeTree::append`], preceded by the prologue and epilogue when
    /// they are the tree's first.
    struct Emitter {
        asm: Asm,
        /// Trampolines the chunk's bodies registered, laid after them.
        sites: Vec<SiteInfo>,
        next_local: u32,
        /// The tree's `CallHelper` side table, interned in emission
        /// order; emitted sites pass an index into it to [`helper_shim`].
        helpers: Vec<Helper>,
        /// Per vreg, the i32 it holds since the fragment began by a
        /// `ConstW`, so that a later ALU, compare or AR store takes it as
        /// an immediate operand.
        known: [Option<i32>; REG_FILE_WORDS],
        /// The flags still hold the compare (or boolean not) that just
        /// wrote this vreg: the vreg, and the condition code true when it
        /// holds 1. A guard on it branches on the flags (compare + `jcc`
        /// macro-fusion).
        flags: Option<(Reg, u8)>,
        /// The vreg `rax` still holds, just stored by the instruction
        /// before: an AR store of it needs no reload.
        rax: Option<Reg>,
        /// The tree's direct sites by site id ([`NativeTree::direct`]).
        direct: Vec<Option<DirectSite>>,
    }

    /// Register-file byte offset of virtual register `v` (off `r13`).
    fn vdisp(v: Reg) -> i32 {
        i32::from(v & REG_MASK) * 8
    }

    fn ar_disp(slot: u16) -> i32 {
        i32::from(slot) * 8
    }

    /// Integer compare condition code for a signed 32-bit `cmp a, b`.
    /// The `F2 0F xx` opcode byte of a double op, or `None` where SSE2 has
    /// no instruction (the remainder calls [`fmod_shim`]).
    fn sse_arith_opcode(op: FOp) -> Option<u8> {
        match op {
            FOp::Add => Some(0x58),
            FOp::Sub => Some(0x5C),
            FOp::Mul => Some(0x59),
            FOp::Div => Some(0x5E),
            FOp::Mod => None,
        }
    }

    fn int_cc(op: CmpOp) -> u8 {
        match op {
            CmpOp::Eq => CC_E,
            CmpOp::Lt => CC_L,
            CmpOp::Le => CC_LE,
            CmpOp::Gt => CC_G,
            CmpOp::Ge => CC_GE,
        }
    }

    impl Emitter {
        fn local(&mut self) -> Label {
            self.next_local += 1;
            Label::Local(self.next_local - 1)
        }

        /// Registers an exit trampoline carrying `path`'s count.
        fn site(&mut self, frag: u32, exit: u16, path: u32) -> Label {
            self.sites.push(SiteInfo { frag, exit, path });
            Label::Site(self.sites.len() as u32 - 1)
        }

        /// Index of `h` in the per-tree helper side table, interning it
        /// on first use.
        fn helper_index(&mut self, h: Helper) -> u32 {
            if let Some(i) = self.helpers.iter().position(|&x| x == h) {
                return i as u32;
            }
            self.helpers.push(h);
            self.helpers.len() as u32 - 1
        }

        fn flush_counts(&mut self, path: u32) {
            if path != 0 {
                self.asm.alu_r64_imm32(0, RBX, path as i32);
            }
        }

        // -- operand helpers --

        fn load_vreg32(&mut self, gpr: u8, v: Reg) {
            self.asm.mov_r32_mem(gpr, R13, vdisp(v));
        }

        fn load_vreg64(&mut self, gpr: u8, v: Reg) {
            self.asm.mov_r64_mem(gpr, R13, vdisp(v));
        }

        fn store_vreg64(&mut self, v: Reg, gpr: u8) {
            self.asm.mov_mem_r64(R13, vdisp(v), gpr);
        }

        /// `movsxd gpr, vreg` — exactly `i64::from(i32_from_word(w))`.
        fn movsxd_vreg(&mut self, gpr: u8, v: Reg) {
            self.asm.movsxd_r64_mem(gpr, R13, vdisp(v));
        }

        fn load_ar64(&mut self, gpr: u8, slot: u16) {
            self.asm.mov_r64_mem(gpr, R14, ar_disp(slot));
        }

        fn store_ar64(&mut self, slot: u16, gpr: u8) {
            self.asm.mov_mem_r64(R14, ar_disp(slot), gpr);
        }

        /// Materializes word `w` into `gpr` with the shortest encoding.
        fn const_word(&mut self, gpr: u8, w: u64) {
            if let Ok(u) = u32::try_from(w) {
                self.asm.mov_r32_imm(gpr, u);
            } else if let Ok(i) = i32::try_from(w as i64) {
                self.asm.mov_r64_imm32(gpr, i);
            } else {
                self.asm.movabs(gpr, w);
            }
        }

        /// `call shim(rdi, rsi)` — clobbers only caller-saved registers;
        /// the pinned r12–r15/rbx/rbp survive per the System V ABI.
        fn call_shim(&mut self, addr: usize) {
            self.asm.movabs(RAX, addr as u64);
            self.asm.call_rax();
        }

        /// Exits to `site` unless `rax` (any i64) is in the boxable
        /// 31-bit range `[-2^30, 2^30)`: `(rax + 2^30) mod 2^64 < 2^31`.
        /// Clobbers rcx/rdx. The half-open upper bound is exact because
        /// integer results are produced from i64 arithmetic whose only
        /// out-of-range-by-one case (`2^30`) must exit anyway.
        fn range_check_i31(&mut self, site: Label) {
            self.asm.mov_rr64(RCX, RAX);
            self.asm.alu_r64_imm32(0, RCX, 0x4000_0000);
            self.asm.mov_r32_imm(RDX, 0x8000_0000);
            self.asm.cmp_rr64(RCX, RDX);
            self.asm.jcc(CC_AE, site);
        }

        /// `rax` = the double at `[base+disp]` as an integer; exits to
        /// `site` unless it is integral, not `-0` and in the boxable
        /// 31-bit range. Clobbers rcx/rdx/xmm0/xmm1.
        fn double_to_int(&mut self, base: u8, disp: i32, site: Label) {
            self.asm.movsd_load(XMM0, base, disp);
            self.asm.cvttsd2si_r64(RAX, XMM0);
            self.asm.cvtsi2sd_reg(XMM1, RAX, true);
            // Round trip differs ⇔ fractional / NaN / out of i64 range
            // (the cvttsd2si sentinel never converts back).
            self.asm.ucomisd_reg(XMM0, XMM1);
            self.asm.jcc(CC_P, site);
            self.asm.jcc(CC_NE, site);
            let l_range = self.local();
            self.asm.test_rr64(RAX, RAX);
            self.asm.jcc(CC_NE, l_range);
            // rax == 0 with nonzero bits ⇔ -0.0.
            self.asm.mov_r64_mem(RCX, base, disp);
            self.asm.test_rr64(RCX, RCX);
            self.asm.jcc(CC_NE, site);
            self.asm.bind(l_range);
            self.range_check_i31(site);
        }

        // -- grouped op bodies --

        /// Unchecked 32-bit ALU: `eax = op.eval(eax, ecx-or-imm)`,
        /// then sign-extend into rax (the executor stores
        /// `i64::from(result)`).
        fn alu_i_rr(&mut self, op: AluOp) {
            match op {
                AluOp::Add => self.asm.alu_rr32(0x01, RAX, RCX),
                AluOp::Sub => self.asm.alu_rr32(0x29, RAX, RCX),
                AluOp::And => self.asm.alu_rr32(0x21, RAX, RCX),
                AluOp::Or => self.asm.alu_rr32(0x09, RAX, RCX),
                AluOp::Xor => self.asm.alu_rr32(0x31, RAX, RCX),
                AluOp::Mul => self.asm.imul_rr32(RAX, RCX),
                // Hardware masks the count by 31 for 32-bit shifts —
                // exactly the executor's `& 31`.
                AluOp::Shl => self.asm.shift_cl32(4, RAX),
                AluOp::Shr => self.asm.shift_cl32(7, RAX),
                AluOp::UShr => self.asm.shift_cl32(5, RAX),
            }
            self.asm.movsxd_r64_r32(RAX, RAX);
        }

        fn alu_i_imm(&mut self, op: AluOp, imm: i32) {
            match op {
                AluOp::Add => self.asm.alu_r32_imm32(0, RAX, imm),
                AluOp::Sub => self.asm.alu_r32_imm32(5, RAX, imm),
                AluOp::And => self.asm.alu_r32_imm32(4, RAX, imm),
                AluOp::Or => self.asm.alu_r32_imm32(1, RAX, imm),
                AluOp::Xor => self.asm.alu_r32_imm32(6, RAX, imm),
                AluOp::Mul => self.asm.imul_r32_imm32(RAX, RAX, imm),
                AluOp::Shl => self.asm.shift_imm32(4, RAX, (imm & 31) as u8),
                AluOp::Shr => self.asm.shift_imm32(7, RAX, (imm & 31) as u8),
                AluOp::UShr => self.asm.shift_imm32(5, RAX, (imm & 31) as u8),
            }
            self.asm.movsxd_r64_r32(RAX, RAX);
        }

        /// Checked ALU, register-register: result in rax (sign-extended,
        /// range-checked); exits to `site` per `ChkOp::eval`. Clobbers
        /// rcx/rdx/rsi.
        fn chk_alu_rr(&mut self, op: ChkOp, a: Reg, b: Reg, site: Label) {
            match op {
                ChkOp::Add => {
                    self.movsxd_vreg(RAX, a);
                    self.movsxd_vreg(RCX, b);
                    self.asm.alu_rr64(0x01, RAX, RCX);
                    self.range_check_i31(site);
                }
                ChkOp::Sub => {
                    self.movsxd_vreg(RAX, a);
                    self.movsxd_vreg(RCX, b);
                    self.asm.alu_rr64(0x29, RAX, RCX);
                    self.range_check_i31(site);
                }
                ChkOp::Mul => {
                    self.movsxd_vreg(RAX, a);
                    self.movsxd_vreg(RCX, b);
                    // Save x: a -0 result (res == 0 with a negative
                    // factor) must exit to the double path.
                    self.asm.mov_rr64(RSI, RAX);
                    self.asm.imul_rr64(RAX, RCX);
                    let l_range = self.local();
                    self.asm.test_rr64(RAX, RAX);
                    self.asm.jcc(CC_NE, l_range);
                    self.asm.test_rr64(RSI, RSI);
                    self.asm.jcc(CC_S, site);
                    self.asm.test_rr64(RCX, RCX);
                    self.asm.jcc(CC_S, site);
                    self.asm.bind(l_range);
                    self.range_check_i31(site);
                }
                ChkOp::Shl => {
                    self.load_vreg32(RCX, b);
                    self.load_vreg32(RAX, a);
                    self.asm.shift_cl32(4, RAX);
                    self.asm.movsxd_r64_r32(RAX, RAX);
                    self.range_check_i31(site);
                }
                ChkOp::UShr => {
                    self.load_vreg32(RCX, b);
                    self.load_vreg32(RAX, a);
                    self.asm.shift_cl32(5, RAX);
                    // Unsigned result: exit when above INT_MAX; the
                    // stored word is the zero-extended u32.
                    self.asm.cmp_r32_imm32(RAX, 0x3FFF_FFFF);
                    self.asm.jcc(CC_A, site);
                }
            }
        }

        /// Checked ALU with an immediate operand; result in rax.
        fn chk_alu_imm(&mut self, op: ChkOp, a: Reg, imm: i32, site: Label) {
            match op {
                ChkOp::Add => {
                    self.movsxd_vreg(RAX, a);
                    self.asm.alu_r64_imm32(0, RAX, imm);
                    self.range_check_i31(site);
                }
                ChkOp::Sub => {
                    self.movsxd_vreg(RAX, a);
                    self.asm.alu_r64_imm32(5, RAX, imm);
                    self.range_check_i31(site);
                }
                ChkOp::Mul => {
                    self.movsxd_vreg(RAX, a);
                    self.asm.mov_rr64(RSI, RAX);
                    self.asm.imul_r64_imm32(RAX, RAX, imm);
                    // -0 check, constant-folded on the immediate's sign:
                    // imm < 0 makes any zero result a -0 candidate;
                    // imm >= 0 needs x < 0 as well.
                    if imm < 0 {
                        self.asm.test_rr64(RAX, RAX);
                        self.asm.jcc(CC_E, site);
                    } else {
                        let l_range = self.local();
                        self.asm.test_rr64(RAX, RAX);
                        self.asm.jcc(CC_NE, l_range);
                        self.asm.test_rr64(RSI, RSI);
                        self.asm.jcc(CC_S, site);
                        self.asm.bind(l_range);
                    }
                    self.range_check_i31(site);
                }
                ChkOp::Shl => {
                    self.load_vreg32(RAX, a);
                    self.asm.shift_imm32(4, RAX, (imm & 31) as u8);
                    self.asm.movsxd_r64_r32(RAX, RAX);
                    self.range_check_i31(site);
                }
                ChkOp::UShr => {
                    self.load_vreg32(RAX, a);
                    self.asm.shift_imm32(5, RAX, (imm & 31) as u8);
                    self.asm.cmp_r32_imm32(RAX, 0x3FFF_FFFF);
                    self.asm.jcc(CC_A, site);
                }
            }
        }

        /// Loads double operands and sets flags for `cmp_d(op, x, y)`.
        /// Returns the condition code under which the compare is TRUE;
        /// NaN operands leave A/AE false (and set PF for Eq, which the
        /// callers handle explicitly).
        fn cmp_d_flags(&mut self, op: CmpOp, a: Reg, b: Reg) -> u8 {
            match op {
                // x < y  ⇔  y above x (ucomisd's unordered ⇒ not-above).
                CmpOp::Lt => {
                    self.asm.movsd_load(XMM0, R13, vdisp(b));
                    self.asm.ucomisd_mem(XMM0, R13, vdisp(a));
                    CC_A
                }
                CmpOp::Le => {
                    self.asm.movsd_load(XMM0, R13, vdisp(b));
                    self.asm.ucomisd_mem(XMM0, R13, vdisp(a));
                    CC_AE
                }
                CmpOp::Gt => {
                    self.asm.movsd_load(XMM0, R13, vdisp(a));
                    self.asm.ucomisd_mem(XMM0, R13, vdisp(b));
                    CC_A
                }
                CmpOp::Ge => {
                    self.asm.movsd_load(XMM0, R13, vdisp(a));
                    self.asm.ucomisd_mem(XMM0, R13, vdisp(b));
                    CC_AE
                }
                CmpOp::Eq => {
                    self.asm.movsd_load(XMM0, R13, vdisp(a));
                    self.asm.ucomisd_mem(XMM0, R13, vdisp(b));
                    CC_E
                }
            }
        }

        /// `eax = cmp_d(op, a, b) as u64` (0 or 1; NaN compares false).
        /// Returns the condition code the flags leave true exactly when
        /// the result is 1.
        fn cmp_d_set(&mut self, op: CmpOp, a: Reg, b: Reg) -> u8 {
            let mut cc = self.cmp_d_flags(op, a, b);
            if op == CmpOp::Eq {
                // Equal ⇔ ZF=1 ∧ PF=0 (PF flags the unordered case); the
                // `and` leaves ZF=0 exactly when both held.
                self.asm.setcc(CC_E, RAX);
                self.asm.setcc(CC_NP, RCX);
                self.asm.and_r8_r8(RAX, RCX);
                cc = CC_NE;
            } else {
                self.asm.setcc(cc, RAX);
            }
            self.asm.movzx_r32_r8(RAX, RAX);
            cc
        }

        /// `eax = cmp_i(op, a, b) as u64`, comparing with an immediate
        /// when either operand is a known constant (`op.swapped()` when it
        /// is `a`). Returns the condition code true when the result is 1.
        fn cmp_i_set(&mut self, op: CmpOp, a: Reg, b: Reg) -> u8 {
            let cc = match (self.imm(a), self.imm(b)) {
                (_, Some(imm)) => {
                    self.load_vreg32(RAX, a);
                    self.asm.cmp_r32_imm32(RAX, imm);
                    int_cc(op)
                }
                (Some(imm), None) => {
                    self.load_vreg32(RAX, b);
                    self.asm.cmp_r32_imm32(RAX, imm);
                    int_cc(op.swapped())
                }
                (None, None) => {
                    self.load_vreg32(RAX, a);
                    self.load_vreg32(RCX, b);
                    self.asm.cmp_rr32(RAX, RCX);
                    int_cc(op)
                }
            };
            self.asm.setcc(cc, RAX);
            self.asm.movzx_r32_r8(RAX, RAX);
            cc
        }

        /// The constant vreg `v` holds, if a `ConstW` of this fragment
        /// wrote it an i32.
        fn imm(&self, v: Reg) -> Option<i32> {
            self.known[usize::from(v & REG_MASK)]
        }

        /// For a binary op over `a` and `b`: the register operand and the
        /// immediate, when `b` is a known constant, or `a` is and the op
        /// commutes.
        fn imm_operand(&self, a: Reg, b: Reg, commutative: bool) -> Option<(Reg, i32)> {
            match (self.imm(a), self.imm(b)) {
                (_, Some(imm)) => Some((a, imm)),
                (Some(imm), None) if commutative => Some((b, imm)),
                _ => None,
            }
        }

        /// Exits to `site` unless vreg `s` is `want` (1 or 0): a branch on
        /// the flags when they still hold the compare (or boolean not)
        /// that wrote `s`.
        fn guard(&mut self, s: Reg, want: bool, flags: Option<(Reg, u8)>, site: Label) {
            let true_cc = match flags {
                Some((d, cc)) if d == s => cc,
                _ => {
                    self.load_vreg64(RAX, s);
                    self.asm.test_rr64(RAX, RAX);
                    CC_NE
                }
            };
            self.asm.jcc(if want { true_cc ^ 1 } else { true_cc }, site);
        }

        /// The §6.4 loop edge: counts flushed, iteration recorded, then
        /// interrupt/GC/fuel polls (each exits through a zero-add site)
        /// before jumping back to the tree anchor.
        fn loop_edge(&mut self, frag: u32, loop_exit: u16, path: u32) {
            self.flush_counts(path);
            let site = self.site(frag, loop_exit, 0);
            self.asm.inc_mem64(R15, CTX_ITER);
            self.asm.mov_r64_mem(RAX, R15, CTX_INTERRUPT);
            self.asm.cmp_byte_at_rax_0();
            self.asm.jcc(CC_NE, site);
            self.asm.mov_r64_mem(RAX, R15, CTX_GC);
            self.asm.cmp_byte_at_rax_0();
            self.asm.jcc(CC_NE, site);
            self.asm.cmp_r64_mem(RBX, R15, CTX_FUEL);
            self.asm.jcc(CC_AE, site);
            self.asm.jmp(Label::Trunk);
        }

        /// Calls `shim(ctx, site)` and dispatches on its status: an error
        /// leaves through the epilogue, `ST_EXIT` takes the `CallTree`'s
        /// side exit `site_exit`.
        fn call_site_shim(&mut self, shim: usize, s: u32, site_exit: Label) {
            self.asm.mov_rr64(RDI, R15);
            self.asm.mov_r32_imm(RSI, s);
            self.call_shim(shim);
            self.asm.cmp_r32_imm32(RAX, ST_ERR as i32);
            self.asm.jcc(CC_E, Label::Epilogue);
            self.asm.test_rr32(RAX, RAX);
            self.asm.jcc(CC_NE, site_exit);
        }

        /// `CallTree` at site `s` through the host ([`call_tree_shim`]).
        fn host_call(&mut self, s: u32, site_exit: Label) {
            self.asm.note(|| format!("; host call: site {s}"));
            let shim = call_tree_shim as extern "sysv64" fn(*mut NativeCtx, u32) -> u32;
            self.call_site_shim(shim as usize, s, site_exit);
        }

        /// Zeroes the `n` words the pointer at `[base+disp]` names.
        /// Clobbers rax/rcx/rdi.
        fn zero_words(&mut self, base: u8, disp: i32, n: usize) {
            if n == 0 {
                return;
            }
            self.asm.mov_r64_mem(RDI, base, disp);
            self.asm.xor_rr32(RAX);
            if n <= 8 {
                for k in 0..n {
                    self.asm.mov_mem_r64(RDI, k as i32 * 8, RAX);
                }
            } else {
                self.asm.mov_r32_imm(RCX, n as u32);
                self.asm.rep_stosq();
            }
        }

        /// `rax` = the word at `[base + slot*8]`, of type `from`,
        /// converted to `to` as `tm-core`'s `activation::transfer` does;
        /// a refusal goes to `refuse`. Only pairs [`WordMove::lowers`]
        /// admits reach here. Clobbers rcx/rdx/xmm0/xmm1.
        fn transfer_word(&mut self, base: u8, slot: u16, from: LirType, to: LirType, refuse: Label)
        {
            let disp = ar_disp(slot);
            match (from, to) {
                (LirType::Int, LirType::Int) => {
                    self.asm.movsxd_r64_mem(RAX, base, disp);
                    self.range_check_i31(refuse);
                }
                (LirType::Int, LirType::Double) => {
                    self.asm.cvtsi2sd_mem32(XMM0, base, disp);
                    self.asm.movq_r64_xmm(RAX, XMM0);
                }
                (LirType::Double, LirType::Int) => self.double_to_int(base, disp, refuse),
                (LirType::Bool, _) => {
                    self.asm.mov_r64_mem(RAX, base, disp);
                    self.asm.test_rr64(RAX, RAX);
                    self.asm.setcc(CC_NE, RAX);
                    self.asm.movzx_r32_r8(RAX, RAX);
                }
                (LirType::Object | LirType::String, _) => self.asm.mov_r32_mem(RAX, base, disp),
                // Double to double.
                _ => self.asm.mov_r64_mem(RAX, base, disp),
            }
        }

        /// Calls [`variables_shim`] for `part` of site `s`; `eax` = 0 on a
        /// refusal.
        fn variables_call(&mut self, s: u32, part: Variables) {
            self.asm.mov_rr64(RDI, R15);
            self.asm.mov_r32_imm(RSI, s);
            self.asm.mov_r32_imm(RDX, part as u32);
            let shim = variables_shim as extern "sysv64" fn(*mut NativeCtx, u32, u32) -> u32;
            self.call_shim(shim as usize);
        }

        /// `CallTree` at direct site `s`: the site's moves and the call
        /// of the callee's code, inline, in the callee ctx carved out of
        /// this run (`ctx.inner`). The host is called for interpreter
        /// variables only ([`variables_shim`]), and for a call that does
        /// not come back as expected ([`return_shim`]). A refused argument
        /// has changed nothing the host reads: that call goes through the
        /// host whole ([`call_tree_shim`]). Clobbers every caller-saved
        /// register.
        fn direct_call(&mut self, s: u32, d: &DirectSite, site_exit: Label) {
            let callee = &*d.callee;
            let from_host = |moves: &[WordMove]| moves.iter().any(|m| m.from == WordFrom::Host);
            let (l_host, l_back, l_done) = (self.local(), self.local(), self.local());
            let code = callee.buf.ptr;
            self.asm.note(|| format!("; direct call: site {s} -> tree code at {code:p}"));
            // The callee's record, zeroed, then its arguments: r9 = the
            // callee's ctx, r8 = its record.
            self.asm.mov_r64_mem(R9, R15, CTX_INNER);
            self.zero_words(R9, CTX_AR, d.callee_ar);
            self.asm.mov_r64_mem(R8, R9, CTX_AR);
            for m in &d.args {
                if let WordFrom::Outer(slot, ty) = m.from {
                    self.transfer_word(R14, slot, ty, m.ty, l_host);
                    self.asm.mov_mem_r64(R8, ar_disp(m.to), RAX);
                }
            }
            if from_host(&d.args) {
                self.variables_call(s, Variables::Args);
                self.asm.test_rr32(RAX, RAX);
                self.asm.jcc(CC_E, l_host);
                self.asm.mov_r64_mem(R9, R15, CTX_INNER);
            }
            // The callee's ctx: a fresh run from its trunk on what is
            // left of this run's budget.
            self.zero_words(R9, CTX_REGS, REG_FILE_WORDS);
            self.zero_words(R9, CTX_SPILL, callee.max_spills);
            // SAFETY: a fragment offset lies inside the callee's mapping.
            let entry = unsafe { callee.buf.ptr.add(callee.frag_offsets[0] as usize) };
            self.asm.movabs(RAX, entry as u64);
            self.asm.mov_mem_r64(R9, CTX_ENTRY, RAX);
            self.asm.movabs(RAX, callee.helpers.as_ptr() as u64);
            self.asm.mov_mem_r64(R9, CTX_HELPERS, RAX);
            self.asm.mov_r64_mem(RAX, R15, CTX_BUDGET);
            self.asm.mov_mem_r64(R9, CTX_FUEL, RAX);
            self.asm.xor_rr32(RAX);
            self.asm.mov_mem_r64(R9, CTX_ITER, RAX);
            self.asm.mov_mem32_imm(R9, CTX_EXIT_FRAG, RAISED as i32);
            self.asm.mov_rr64(RDI, R9);
            self.call_shim(callee.buf.ptr as usize);
            // Back: the expected exit, with budget left?
            self.asm.mov_r64_mem(R9, R15, CTX_INNER);
            self.asm.cmp_mem32_imm(R9, CTX_EXIT_FRAG, d.expected.0 as i32);
            self.asm.jcc(CC_NE, l_back);
            self.asm.cmp_mem32_imm(R9, CTX_EXIT_ID, i32::from(d.expected.1));
            self.asm.jcc(CC_NE, l_back);
            self.asm.mov_r64_mem(RAX, R9, CTX_INSTS);
            self.asm.cmp_r64_mem(RAX, R15, CTX_BUDGET);
            self.asm.jcc(CC_AE, l_back);
            // The refresh: every word staged (r10) before any is stored.
            if from_host(&d.refresh) {
                self.variables_call(s, Variables::Refresh);
                self.asm.test_rr32(RAX, RAX);
                self.asm.jcc(CC_E, l_back);
                self.asm.mov_r64_mem(R9, R15, CTX_INNER);
            }
            self.asm.mov_r64_mem(R8, R9, CTX_AR);
            self.asm.mov_r64_mem(R10, R15, CTX_STAGE);
            for (i, m) in d.refresh.iter().enumerate() {
                let (base, slot, ty) = match m.from {
                    WordFrom::Outer(slot, ty) => (R14, slot, ty),
                    WordFrom::Inner(slot, ty) => (R8, slot, ty),
                    WordFrom::Host => continue,
                };
                self.transfer_word(base, slot, ty, m.ty, l_back);
                self.asm.mov_mem_r64(R10, i as i32 * 8, RAX);
            }
            for (i, m) in d.refresh.iter().enumerate() {
                self.asm.mov_r64_mem(RAX, R10, i as i32 * 8);
                self.store_ar64(m.to, RAX);
            }
            if d.flush {
                self.variables_call(s, Variables::Flush);
                self.asm.mov_r64_mem(R9, R15, CTX_INNER);
            }
            // Counted for the host to fold in.
            let at = s as i32 * std::mem::size_of::<DirectCounts>() as i32;
            self.asm.mov_r64_mem(RAX, R9, CTX_INSTS);
            self.asm.sub_mem_r64(R15, CTX_BUDGET, RAX);
            self.asm.mov_r64_mem(RCX, R15, CTX_COUNTS);
            self.asm.inc_mem64(RCX, at + offset_of!(DirectCounts, calls) as i32);
            self.asm.add_mem_r64(RCX, at + offset_of!(DirectCounts, insts) as i32, RAX);
            self.asm.mov_r64_mem(RAX, R9, CTX_ITER);
            self.asm.add_mem_r64(RCX, at + offset_of!(DirectCounts, iterations) as i32, RAX);
            self.asm.jmp(l_done);
            self.asm.bind(l_back);
            self.asm.note(|| format!("; return shim: site {s}"));
            let shim = return_shim as extern "sysv64" fn(*mut NativeCtx, u32) -> u32;
            self.call_site_shim(shim as usize, s, site_exit);
            self.asm.jmp(l_done);
            self.asm.bind(l_host);
            self.host_call(s, site_exit);
            self.asm.bind(l_done);
        }

        /// Emits one virtual-ISA instruction of fragment `k`. `path`
        /// includes this instruction (an exiting instruction counts as
        /// retired). Selection is local: a known-constant operand becomes
        /// an immediate, a guard right after the compare (or boolean not)
        /// that wrote its vreg, or after AR stores, which leave the flags
        /// alone, branches on the flags, and an AR store of the vreg just
        /// computed stores it from `rax`.
        #[allow(clippy::too_many_lines)]
        fn emit_inst(&mut self, k: u32, inst: &MachInst, path: u32) {
            let flags = self.flags.take();
            let rax = self.rax.take();
            match *inst {
                MachInst::ConstW { d, w } => {
                    self.const_word(RAX, w);
                    self.store_vreg64(d, RAX);
                    self.rax = Some(d);
                }
                MachInst::Mov { d, s } => {
                    self.load_vreg64(RAX, s);
                    self.store_vreg64(d, RAX);
                    self.rax = Some(d);
                }
                MachInst::LoadSpill { d, slot } => {
                    self.asm.mov_r64_mem(RAX, R12, i32::from(slot) * 8);
                    self.store_vreg64(d, RAX);
                }
                MachInst::StoreSpill { slot, s } => {
                    self.load_vreg64(RAX, s);
                    self.asm.mov_mem_r64(R12, i32::from(slot) * 8, RAX);
                }
                MachInst::ReadAr { d, slot } => {
                    self.load_ar64(RAX, slot);
                    self.store_vreg64(d, RAX);
                    self.rax = Some(d);
                }
                MachInst::WriteAr { slot, s } => {
                    if rax != Some(s) {
                        self.load_vreg64(RAX, s);
                    }
                    self.store_ar64(slot, RAX);
                    self.rax = Some(s);
                    self.flags = flags;
                }

                MachInst::AluI { op, d, a, b } => {
                    match self.imm_operand(a, b, op.commutative()) {
                        Some((x, imm)) => {
                            self.load_vreg32(RAX, x);
                            self.alu_i_imm(op, imm);
                        }
                        None => {
                            self.load_vreg32(RCX, b);
                            self.load_vreg32(RAX, a);
                            self.alu_i_rr(op);
                        }
                    }
                    self.store_vreg64(d, RAX);
                    self.rax = Some(d);
                }
                MachInst::NotI { d, a } => {
                    self.load_vreg32(RAX, a);
                    self.asm.unary32(2, RAX);
                    self.asm.movsxd_r64_r32(RAX, RAX);
                    self.store_vreg64(d, RAX);
                }
                MachInst::NegI { d, a } => {
                    self.load_vreg32(RAX, a);
                    self.asm.unary32(3, RAX);
                    self.asm.movsxd_r64_r32(RAX, RAX);
                    self.store_vreg64(d, RAX);
                }

                MachInst::ChkAluI { op, d, a, b, exit } => {
                    let site = self.site(k, exit, path);
                    match self.imm_operand(a, b, op.commutative()) {
                        Some((x, imm)) => self.chk_alu_imm(op, x, imm, site),
                        None => self.chk_alu_rr(op, a, b, site),
                    }
                    self.store_vreg64(d, RAX);
                    self.rax = Some(d);
                }
                MachInst::NegIChk { d, a, exit } => {
                    let site = self.site(k, exit, path);
                    self.movsxd_vreg(RAX, a);
                    self.asm.test_rr64(RAX, RAX);
                    self.asm.jcc(CC_E, site);
                    self.asm.neg64(RAX);
                    self.range_check_i31(site);
                    self.store_vreg64(d, RAX);
                }
                MachInst::ModIChk { d, a, b, exit } => {
                    let site = self.site(k, exit, path);
                    self.load_vreg32(RCX, b);
                    self.load_vreg32(RAX, a);
                    self.asm.test_rr32(RCX, RCX);
                    self.asm.jcc(CC_E, site);
                    // y == -1 would trap on INT32_MIN / -1; the result is
                    // always 0, exiting only when x < 0 (a -0 result).
                    let l_div = self.local();
                    let l_store = self.local();
                    let l_done = self.local();
                    self.asm.cmp_r32_imm32(RCX, -1);
                    self.asm.jcc(CC_NE, l_div);
                    self.asm.test_rr32(RAX, RAX);
                    self.asm.jcc(CC_S, site);
                    self.asm.xor_rr32(RAX);
                    self.asm.jmp(l_done);
                    self.asm.bind(l_div);
                    self.asm.mov_rr32(RSI, RAX);
                    self.asm.cdq();
                    self.asm.idiv32(RCX);
                    // Remainder 0 from a negative dividend is -0.
                    self.asm.test_rr32(RDX, RDX);
                    self.asm.jcc(CC_NE, l_store);
                    self.asm.test_rr32(RSI, RSI);
                    self.asm.jcc(CC_S, site);
                    self.asm.bind(l_store);
                    self.asm.mov_rr32(RAX, RDX);
                    self.asm.bind(l_done);
                    self.asm.movsxd_r64_r32(RAX, RAX);
                    self.store_vreg64(d, RAX);
                }

                MachInst::AluD { op, d, a, b } => match sse_arith_opcode(op) {
                    Some(opc) => {
                        self.asm.movsd_load(XMM0, R13, vdisp(a));
                        self.asm.sse_arith_mem(opc, XMM0, R13, vdisp(b));
                        self.asm.movsd_store(R13, vdisp(d), XMM0);
                    }
                    None => {
                        self.load_vreg64(RDI, a);
                        self.load_vreg64(RSI, b);
                        self.call_shim(fmod_shim as extern "sysv64" fn(u64, u64) -> u64 as usize);
                        self.store_vreg64(d, RAX);
                    }
                },
                MachInst::NegD { d, a } => {
                    self.load_vreg64(RAX, a);
                    self.asm.btc_r64_imm8(RAX, 63);
                    self.store_vreg64(d, RAX);
                }

                MachInst::CmpI { op, d, a, b } => {
                    let cc = self.cmp_i_set(op, a, b);
                    self.store_vreg64(d, RAX);
                    (self.flags, self.rax) = (Some((d, cc)), Some(d));
                }
                MachInst::CmpD { op, d, a, b } => {
                    let cc = self.cmp_d_set(op, a, b);
                    self.store_vreg64(d, RAX);
                    (self.flags, self.rax) = (Some((d, cc)), Some(d));
                }
                MachInst::NotB { d, a } => {
                    // Negating a compare's result is its inverse
                    // condition; either way the flags then hold `d`.
                    let cc = match flags {
                        Some((f, cc)) if f == a => cc ^ 1,
                        _ => {
                            self.load_vreg64(RAX, a);
                            self.asm.test_rr64(RAX, RAX);
                            CC_E
                        }
                    };
                    self.asm.setcc(cc, RAX);
                    self.asm.movzx_r32_r8(RAX, RAX);
                    self.store_vreg64(d, RAX);
                    (self.flags, self.rax) = (Some((d, cc)), Some(d));
                }

                MachInst::I2D { d, a } => {
                    self.asm.cvtsi2sd_mem32(XMM0, R13, vdisp(a));
                    self.asm.movsd_store(R13, vdisp(d), XMM0);
                }
                MachInst::U2D { d, a } => {
                    // f64::from(u32): zero-extend then convert as i64.
                    self.load_vreg32(RAX, a);
                    self.asm.cvtsi2sd_reg(XMM0, RAX, true);
                    self.asm.movsd_store(R13, vdisp(d), XMM0);
                }
                MachInst::D2IChk { d, a, exit } => {
                    let site = self.site(k, exit, path);
                    self.double_to_int(R13, vdisp(a), site);
                    self.store_vreg64(d, RAX);
                }
                MachInst::D2I32 { d, a } => {
                    self.load_vreg64(RDI, a);
                    self.call_shim(d2i32_shim as extern "sysv64" fn(u64) -> u64 as usize);
                    self.store_vreg64(d, RAX);
                }
                MachInst::ChkRangeI { d, a, exit } => {
                    let site = self.site(k, exit, path);
                    self.movsxd_vreg(RAX, a);
                    self.range_check_i31(site);
                    self.store_vreg64(d, RAX);
                }

                MachInst::Box { tag, d, a } => {
                    match tag {
                        Tag::Int => {
                            // Fast path: in-range ints box inline (tag bit 0 = 1);
                            // out-of-range values allocate a heap double.
                            self.load_vreg32(RAX, a);
                            let l_slow = self.local();
                            let l_done = self.local();
                            self.asm.mov_rr32(RCX, RAX);
                            self.asm.alu_r32_imm32(0, RCX, 0x4000_0000);
                            self.asm.test_rr32(RCX, RCX);
                            self.asm.jcc(CC_S, l_slow);
                            self.asm.shift_imm64(4, RAX, 1);
                            self.asm.or_r64_imm8(RAX, 1);
                            self.asm.jmp(l_done);
                            self.asm.bind(l_slow);
                            self.asm.mov_r64_mem(RDI, R15, CTX_REALM);
                            self.asm.mov_rr32(RSI, RAX);
                            self.call_shim(
                                boxi_slow_shim as extern "sysv64" fn(*mut Realm, u32) -> u64 as usize,
                            );
                            self.asm.bind(l_done);
                        }
                        Tag::Double => {
                            self.asm.mov_r64_mem(RDI, R15, CTX_REALM);
                            self.load_vreg64(RSI, a);
                            self.call_shim(
                                boxd_shim as extern "sysv64" fn(*mut Realm, u64) -> u64 as usize,
                            );
                        }
                        Tag::Bool => {
                            // (b as u64) << 3 | SPECIAL tag: false → 6, true → 14.
                            self.load_vreg64(RAX, a);
                            self.asm.test_rr64(RAX, RAX);
                            self.asm.setcc(CC_NE, RAX);
                            self.asm.movzx_r32_r8(RAX, RAX);
                            self.asm.shift_imm64(4, RAX, 3);
                            self.asm.add_r64_imm8(RAX, 6);
                        }
                        Tag::Object => {
                            self.load_vreg32(RAX, a);
                            self.asm.shift_imm64(4, RAX, 3);
                        }
                        Tag::String => {
                            self.load_vreg32(RAX, a);
                            self.asm.shift_imm64(4, RAX, 3);
                            self.asm.or_r64_imm8(RAX, 4);
                        }
                    }
                    self.store_vreg64(d, RAX);
                }

                MachInst::Unbox { tag, d, a, exit } => {
                    let site = self.site(k, exit, path);
                    self.load_vreg64(RAX, a);
                    match tag {
                        Tag::Int => {
                            self.asm.test_al_imm8(1);
                            self.asm.jcc(CC_E, site);
                            // ((raw as u32) as i32) >> 1, stored sign-extended.
                            self.asm.shift_imm32(7, RAX, 1);
                            self.asm.movsxd_r64_r32(RAX, RAX);
                        }
                        Tag::Double => {
                            self.asm.mov_rr32(RCX, RAX);
                            self.asm.alu_r32_imm32(4, RCX, 7);
                            self.asm.cmp_r32_imm32(RCX, 2);
                            self.asm.jcc(CC_NE, site);
                            self.asm.mov_r64_mem(RDI, R15, CTX_REALM);
                            self.asm.mov_rr64(RSI, RAX);
                            self.call_shim(
                                unbox_double_shim as extern "sysv64" fn(*const Realm, u64) -> u64 as usize,
                            );
                        }
                        Tag::Object => {
                            self.asm.test_al_imm8(7);
                            self.asm.jcc(CC_NE, site);
                            self.asm.shift_imm64(5, RAX, 3);
                            // Object ids are u32: truncate like `(raw >> 3) as u32`.
                            self.asm.mov_rr32(RAX, RAX);
                        }
                        Tag::String => {
                            self.asm.mov_rr32(RCX, RAX);
                            self.asm.alu_r32_imm32(4, RCX, 7);
                            self.asm.cmp_r32_imm32(RCX, 4);
                            self.asm.jcc(CC_NE, site);
                            self.asm.shift_imm64(5, RAX, 3);
                            self.asm.mov_rr32(RAX, RAX);
                        }
                        Tag::Bool => {
                            let l_nottrue = self.local();
                            let l_done = self.local();
                            self.asm.cmp_r64_imm32(RAX, 14);
                            self.asm.jcc(CC_NE, l_nottrue);
                            self.asm.mov_r32_imm(RAX, 1);
                            self.asm.jmp(l_done);
                            self.asm.bind(l_nottrue);
                            self.asm.cmp_r64_imm32(RAX, 6);
                            self.asm.jcc(CC_NE, site);
                            self.asm.xor_rr32(RAX);
                            self.asm.bind(l_done);
                        }
                    }
                    self.store_vreg64(d, RAX);
                }
                MachInst::UnboxNumD { d, a, exit } => {
                    let site = self.site(k, exit, path);
                    self.load_vreg64(RAX, a);
                    let l_notint = self.local();
                    let l_done = self.local();
                    self.asm.test_al_imm8(1);
                    self.asm.jcc(CC_E, l_notint);
                    self.asm.shift_imm32(7, RAX, 1);
                    self.asm.cvtsi2sd_reg(XMM0, RAX, false);
                    self.asm.movsd_store(R13, vdisp(d), XMM0);
                    self.asm.jmp(l_done);
                    self.asm.bind(l_notint);
                    self.asm.mov_rr32(RCX, RAX);
                    self.asm.alu_r32_imm32(4, RCX, 7);
                    self.asm.cmp_r32_imm32(RCX, 2);
                    self.asm.jcc(CC_NE, site);
                    self.asm.mov_r64_mem(RDI, R15, CTX_REALM);
                    self.asm.mov_rr64(RSI, RAX);
                    self.call_shim(
                        unbox_double_shim as extern "sysv64" fn(*const Realm, u64) -> u64 as usize,
                    );
                    self.store_vreg64(d, RAX);
                    self.asm.bind(l_done);
                }

                MachInst::GuardTrue { s, exit } => {
                    let site = self.site(k, exit, path);
                    self.guard(s, true, flags, site);
                }
                MachInst::GuardFalse { s, exit } => {
                    let site = self.site(k, exit, path);
                    self.guard(s, false, flags, site);
                }
                MachInst::GuardBoxedEq { s, w, exit } => {
                    let site = self.site(k, exit, path);
                    self.load_vreg64(RAX, s);
                    if let Ok(i) = i32::try_from(w as i64) {
                        self.asm.cmp_r64_imm32(RAX, i);
                    } else {
                        self.const_word(RCX, w);
                        self.asm.cmp_rr64(RAX, RCX);
                    }
                    self.asm.jcc(CC_NE, site);
                }

                MachInst::LoopBack { exit } => self.loop_edge(k, exit, path),
                MachInst::End { exit } => {
                    let site = self.site(k, exit, path);
                    self.asm.jmp(site);
                }

                // -- heap-walking ops: realm in rdi, operands in
                // rsi/rdx/rcx, result back in rax. Calls go through the
                // shim block above (arena data pointers are not stable
                // enough to bake into code); the pinned r12–r15/rbx/rbp
                // survive the System V call, so only the current
                // instruction's scratch is live across it.

                MachInst::GuardShape { obj, shape, exit } => {
                    let site = self.site(k, exit, path);
                    self.asm.mov_r64_mem(RDI, R15, CTX_REALM);
                    self.load_vreg32(RSI, obj);
                    self.call_shim(
                        shape_of_shim as extern "sysv64" fn(*const Realm, u64) -> u64 as usize,
                    );
                    self.asm.cmp_r32_imm32(RAX, shape as i32);
                    self.asm.jcc(CC_NE, site);
                }
                MachInst::GuardClass { obj, class, exit } => {
                    let site = self.site(k, exit, path);
                    self.asm.mov_r64_mem(RDI, R15, CTX_REALM);
                    self.load_vreg32(RSI, obj);
                    self.call_shim(
                        class_of_shim as extern "sysv64" fn(*const Realm, u64) -> u64 as usize,
                    );
                    self.asm.cmp_r32_imm32(RAX, i32::from(class));
                    self.asm.jcc(CC_NE, site);
                }
                MachInst::GuardBound { arr, idx, exit } => {
                    let site = self.site(k, exit, path);
                    self.asm.mov_r64_mem(RDI, R15, CTX_REALM);
                    self.load_vreg32(RSI, arr);
                    self.call_shim(
                        elems_len_shim as extern "sysv64" fn(*const Realm, u64) -> u64 as usize,
                    );
                    // i64 index < 0, or >= the element count, exits.
                    self.movsxd_vreg(RCX, idx);
                    self.asm.test_rr64(RCX, RCX);
                    self.asm.jcc(CC_S, site);
                    self.asm.cmp_rr64(RCX, RAX);
                    self.asm.jcc(CC_AE, site);
                }
                MachInst::LoadSlot { d, o, slot } => {
                    self.asm.mov_r64_mem(RDI, R15, CTX_REALM);
                    self.load_vreg32(RSI, o);
                    self.asm.mov_r32_imm(RDX, slot);
                    self.call_shim(
                        load_slot_shim as extern "sysv64" fn(*const Realm, u64, u64) -> u64
                            as usize,
                    );
                    self.store_vreg64(d, RAX);
                }
                MachInst::StoreSlot { o, slot, s } => {
                    self.asm.mov_r64_mem(RDI, R15, CTX_REALM);
                    self.load_vreg32(RSI, o);
                    self.asm.mov_r32_imm(RDX, slot);
                    self.load_vreg64(RCX, s);
                    self.call_shim(
                        store_slot_shim as extern "sysv64" fn(*mut Realm, u64, u64, u64)
                            as usize,
                    );
                }
                MachInst::LoadProto { d, o } => {
                    self.asm.mov_r64_mem(RDI, R15, CTX_REALM);
                    self.load_vreg32(RSI, o);
                    self.call_shim(
                        load_proto_shim as extern "sysv64" fn(*const Realm, u64) -> u64 as usize,
                    );
                    self.store_vreg64(d, RAX);
                }
                MachInst::LoadElem { d, a, i } => {
                    self.asm.mov_r64_mem(RDI, R15, CTX_REALM);
                    self.load_vreg32(RSI, a);
                    self.movsxd_vreg(RDX, i);
                    self.call_shim(
                        load_elem_shim as extern "sysv64" fn(*const Realm, u64, i64) -> u64
                            as usize,
                    );
                    self.store_vreg64(d, RAX);
                }
                MachInst::StoreElem { a, i, s } => {
                    self.asm.mov_r64_mem(RDI, R15, CTX_REALM);
                    self.load_vreg32(RSI, a);
                    self.movsxd_vreg(RDX, i);
                    self.load_vreg64(RCX, s);
                    self.call_shim(
                        store_elem_shim as extern "sysv64" fn(*mut Realm, u64, i64, u64)
                            as usize,
                    );
                }
                MachInst::ArrayLen { d, a } => {
                    self.asm.mov_r64_mem(RDI, R15, CTX_REALM);
                    self.load_vreg32(RSI, a);
                    self.call_shim(
                        array_len_shim as extern "sysv64" fn(*const Realm, u64) -> u64 as usize,
                    );
                    self.store_vreg64(d, RAX);
                }
                MachInst::StrLen { d, a } => {
                    self.asm.mov_r64_mem(RDI, R15, CTX_REALM);
                    self.load_vreg32(RSI, a);
                    self.call_shim(
                        str_len_shim as extern "sysv64" fn(*const Realm, u64) -> u64 as usize,
                    );
                    self.store_vreg64(d, RAX);
                }

                // -- runtime re-entry --

                MachInst::CallHelper { d, helper, ref args, exit } => {
                    // The soft-float filter's helper calls cannot re-enter
                    // and carry the no-exit sentinel, which names no
                    // trampoline.
                    let site = (exit != NO_EXIT.0).then(|| self.site(k, exit, path));
                    let idx = self.helper_index(helper);
                    self.asm.note(|| format!("; helper table[{idx}] = {helper:?}"));
                    for (n, &s) in args.iter().enumerate() {
                        self.load_vreg64(RAX, s);
                        self.asm.mov_mem_r64(R15, CTX_HARGS + n as i32 * 8, RAX);
                    }
                    self.asm.mov_rr64(RDI, R15);
                    self.asm.mov_r32_imm(RSI, idx);
                    self.asm.mov_r32_imm(RDX, args.len() as u32);
                    self.call_shim(
                        helper_shim as extern "sysv64" fn(*mut NativeCtx, u32, u32) -> u32
                            as usize,
                    );
                    // The result store on the exit/error paths writes a
                    // stale scratch word into a dead vreg — harmless,
                    // and it keeps the status dispatch branch-light.
                    self.asm.mov_rr32(RCX, RAX);
                    self.asm.mov_r64_mem(RAX, R15, CTX_HRESULT);
                    self.store_vreg64(d, RAX);
                    self.asm.cmp_r32_imm32(RCX, ST_ERR as i32);
                    self.asm.jcc(CC_E, Label::Epilogue);
                    if let Some(site) = site {
                        self.asm.test_rr32(RCX, RCX);
                        self.asm.jcc(CC_NE, site);
                    }
                }
                MachInst::CallTree { tree, exit } => {
                    let site = self.site(k, exit, path);
                    match self.direct.get(tree as usize).cloned().flatten() {
                        Some(d) => self.direct_call(tree, &d, site),
                        None => self.host_call(tree, site),
                    }
                }
            }
        }

        /// Function prologue: save callee-saved registers (five pushes
        /// over the return address leave the stack aligned for shim
        /// calls), pin the ctx/AR/regs/spill pointers, zero the counter,
        /// and jump to the body `ctx.entry` names.
        fn prologue(&mut self) {
            self.asm.note(|| "; prologue".into());
            for reg in [RBX, R12, R13, R14, R15] {
                self.asm.push(reg);
            }
            self.asm.mov_rr64(R15, RDI);
            self.asm.mov_r64_mem(R14, R15, CTX_AR);
            self.asm.mov_r64_mem(R13, R15, CTX_REGS);
            self.asm.mov_r64_mem(R12, R15, CTX_SPILL);
            self.asm.xor_rr32(RBX);
            self.asm.note(|| "; entry dispatch: jmp [ctx.entry]".into());
            self.asm.op_mem(false, &[0xFF], 4, R15, CTX_ENTRY);
        }

        fn epilogue(&mut self) {
            self.asm.note(|| "; epilogue".into());
            self.asm.bind(Label::Epilogue);
            self.asm.mov_mem_r64(R15, CTX_INSTS, RBX);
            for reg in [R15, R14, R13, R12, RBX] {
                self.asm.pop(reg);
            }
            self.asm.ret();
        }

        /// Emits the body of fragment `k`; its exits register sites.
        fn body(&mut self, k: u32, frag: &Fragment) {
            self.asm.note(|| format!("; fragment {k}"));
            // Nothing is known on entry: a fragment is entered from the
            // loop edge and from every exit stitched to it.
            self.known = [None; REG_FILE_WORDS];
            (self.flags, self.rax) = (None, None);
            for (i, inst) in frag.code.iter().enumerate() {
                self.asm.note(|| format!("f{k} {i:4}: {inst:?}"));
                self.emit_inst(k, inst, i as u32 + 1);
                if let Some(d) = inst.dest() {
                    let w = match *inst {
                        MachInst::ConstW { w, .. } => as_imm(w),
                        _ => None,
                    };
                    self.known[usize::from(d & REG_MASK)] = w;
                }
            }
            // Fragments end in LoopBack/End; anything past is a bug.
            self.asm.ud2();
        }

        /// Emits every registered exit trampoline, unstitched: flush the
        /// path counts, record the exit, leave through the epilogue.
        /// Returns where each can later be patched into a stitch jump
        /// (which then carries the counts in the pinned accumulators).
        fn emit_sites(&mut self) -> Vec<SiteTail> {
            let mut tails = Vec::with_capacity(self.sites.len());
            for n in 0..self.sites.len() {
                let SiteInfo { frag, exit, path } = self.sites[n];
                self.asm
                    .note(|| format!("; exit site: fragment {frag} exit {exit} -> return"));
                self.asm.bind(Label::Site(n as u32));
                self.flush_counts(path);
                tails.push(SiteTail { frag, exit, tail: self.asm.here() as u32 });
                self.asm.mov_mem32_imm(R15, CTX_EXIT_FRAG, frag as i32);
                self.asm.mov_mem32_imm(R15, CTX_EXIT_ID, i32::from(exit));
                self.asm.jmp(Label::Epilogue);
            }
            tails
        }
    }

    /// Translates a whole trace tree (trunk fragment 0 plus stitched
    /// branch fragments) into one executable buffer: a tree with nothing
    /// mapped yet, grown by every fragment ([`NativeTree::append`]).
    ///
    /// # Errors
    ///
    /// [`Unsupported`] when any fragment contains an op outside the
    /// native subset, or when the OS refuses an executable mapping. The
    /// caller falls back to the decoded executor for the whole tree.
    pub fn emit_tree(fragments: &[Fragment]) -> Result<NativeTree, Unsupported> {
        NativeTree::emit(fragments, &[])
    }

    /// [`emit_tree`], additionally collecting the per-instruction and
    /// exit-trampoline annotations [`NativeTree::hexdump`] interleaves
    /// with the code bytes, with `CallTree`s at the sites `sites` names
    /// made direct. Diagnostics only: formatting the annotations costs
    /// more than the emission itself.
    pub fn emit_tree_annotated(
        fragments: &[Fragment],
        sites: &[Option<DirectSite>],
    ) -> Result<NativeTree, Unsupported> {
        NativeTree::unmapped(Some(Vec::new())).append(fragments, sites)
    }

    /// Spill words [`NativeTree::execute`] keeps on its own frame. On the
    /// SunSpider suite all 135 trees spill 9 words or fewer (123 none).
    const INLINE_SPILLS: usize = 16;

    /// A trace tree compiled to native x86-64 code.
    ///
    /// Executing it is semantically identical to running the decoded
    /// executor over the same fragments: same AR effects, same realm
    /// effects, same [`TraceExit`] including all counters.
    pub struct NativeTree {
        buf: ExecBuf,
        /// Bytes of `buf` holding code; the rest is room to grow.
        code_len: usize,
        /// Offset of the common epilogue (laid right after the prologue,
        /// so every later chunk can jump back to it).
        epilogue: usize,
        /// Offset of each fragment body; [`NativeTree::execute`] turns
        /// the start fragment into the address the prologue jumps to.
        frag_offsets: Vec<u32>,
        /// The exit trampolines no branch is stitched to yet.
        tails: Vec<SiteTail>,
        max_spills: usize,
        /// Hexdump annotations, collected only for
        /// [`emit_tree_annotated`] trees.
        notes: Option<Vec<(usize, String)>>,
        /// `CallHelper` side table; emitted sites index into it (the
        /// `Helper` enum carries a payload variant, so it cannot be an
        /// immediate in the code stream).
        helpers: Vec<Helper>,
        /// The `CallTree` sites emitted direct, by site id; `None` for
        /// those that go through the host.
        direct: Vec<Option<DirectSite>>,
        /// The room a run carves out for the direct sites' callees: the
        /// largest callee record, spill area and refresh.
        callee_room: (usize, usize, usize),
    }

    impl std::fmt::Debug for NativeTree {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("NativeTree")
                .field("code_len", &self.code_len)
                .field("num_frags", &self.frag_offsets.len())
                .field("direct_sites", &self.direct.iter().flatten().count())
                .finish_non_exhaustive()
        }
    }

    impl NativeTree {
        fn unmapped(notes: Option<Vec<(usize, String)>>) -> NativeTree {
            NativeTree {
                buf: ExecBuf::UNMAPPED,
                code_len: 0,
                epilogue: 0,
                frag_offsets: Vec::new(),
                tails: Vec::new(),
                max_spills: 0,
                notes,
                helpers: Vec::new(),
                direct: Vec::new(),
                callee_room: (0, 0, 0),
            }
        }

        /// Translates a whole trace tree into one executable buffer, as
        /// [`emit_tree`] does, with the `CallTree` of every site `sites`
        /// names (by site id) made direct.
        ///
        /// # Errors
        ///
        /// As [`emit_tree`].
        pub fn emit(
            fragments: &[Fragment],
            sites: &[Option<DirectSite>],
        ) -> Result<NativeTree, Unsupported> {
            NativeTree::unmapped(None).append(fragments, sites)
        }

        /// The sites whose `CallTree` this code runs directly, by site id.
        pub fn direct_sites(&self) -> &[Option<DirectSite>] {
            &self.direct
        }

        /// Takes `sites`' entries for the `CallTree`s of `new` fragments
        /// whose moves all lower, and grows the callee room to fit them.
        fn take_sites(&mut self, new: &[Fragment], sites: &[Option<DirectSite>]) {
            let calls = new.iter().flat_map(|f| &f.code).filter_map(|inst| match *inst {
                MachInst::CallTree { tree, .. } => Some(tree as usize),
                _ => None,
            });
            for s in calls {
                let Some(Some(d)) = sites.get(s) else { continue };
                if !d.args.iter().chain(&d.refresh).all(WordMove::lowers) {
                    continue;
                }
                if self.direct.len() <= s {
                    self.direct.resize(s + 1, None);
                }
                let (ar, spill, stage) = &mut self.callee_room;
                (*ar, *spill) = ((*ar).max(d.callee_ar), (*spill).max(d.callee.max_spills));
                *stage = (*stage).max(d.refresh.len());
                self.direct[s] = Some(d.clone());
            }
        }

        /// Grows the tree to cover `fragments`: the bodies and exit
        /// trampolines of `fragments[self.num_fragments()..]` are laid at
        /// the tail of the mapping, and every stitch in `fragments` not
        /// patched in yet overwrites the tail of the parent's exit
        /// trampoline(s) with a `jmp` to the target body. Code laid
        /// earlier is not emitted again and does not move.
        /// `fragments[..self.num_fragments()]` must be the fragments the
        /// tree was grown from so far, with stitches added at most. The
        /// mapping is `rw-` while it is written and `r-x` again before
        /// this returns.
        ///
        /// # Errors
        ///
        /// The tree is consumed and its mapping released.
        /// [`Unsupported::FULL`] when the new code does not fit the
        /// reserved capacity — rebuild with [`emit_tree`]; otherwise an
        /// op the emitter refuses or a refused `mmap`/`mprotect`.
        pub fn append(
            mut self,
            fragments: &[Fragment],
            sites: &[Option<DirectSite>],
        ) -> Result<NativeTree, Unsupported> {
            let first = self.frag_offsets.len();
            let new = &fragments[first..];
            if let Some(what) = new.iter().flat_map(|f| &f.code).find_map(unsupported_op) {
                return Err(Unsupported { what });
            }
            self.take_sites(new, sites);
            let mut e = Emitter {
                asm: Asm { base: self.code_len, notes: self.notes.take(), ..Asm::default() },
                sites: Vec::new(),
                next_local: 0,
                helpers: std::mem::take(&mut self.helpers),
                known: [None; REG_FILE_WORDS],
                flags: None,
                rax: None,
                direct: std::mem::take(&mut self.direct),
            };
            if self.code_len == 0 {
                e.prologue();
                self.epilogue = e.asm.here();
                e.epilogue();
            } else {
                e.asm.labels.insert(Label::Epilogue, self.epilogue);
                e.asm.labels.insert(Label::Trunk, self.frag_offsets[0] as usize);
            }
            for (k, frag) in (first..).zip(new) {
                if k == 0 {
                    e.asm.bind(Label::Trunk);
                }
                self.frag_offsets.push(e.asm.here() as u32);
                e.body(k as u32, frag);
                self.max_spills = self.max_spills.max(frag.num_spills as usize);
            }
            self.tails.extend(e.emit_sites());
            e.asm.finalize();
            self.helpers = e.helpers;
            self.direct = e.direct;

            let new_len = self.code_len + e.asm.code.len();
            if self.buf.len == 0 {
                let capacity =
                    (new_len * CAPACITY_FACTOR).max(CAPACITY_FLOOR).div_ceil(4096) * 4096;
                self.buf = ExecBuf::map(capacity).ok_or(Unsupported { what: "mmap" })?;
            } else if new_len > self.buf.len {
                return Err(Unsupported::FULL);
            } else if !self.buf.protect(PROT_RW) {
                return Err(Unsupported { what: "mprotect" });
            }
            // SAFETY: the mapping is `rw-` (fresh, or just flipped), at
            // least `new_len` bytes long, and this tree — owned by value,
            // so nothing is running in it — is the only thing naming it.
            let code = unsafe { std::slice::from_raw_parts_mut(self.buf.ptr, new_len) };
            code[self.code_len..].copy_from_slice(&e.asm.code);
            // Stitch: every trampoline whose exit now has a target jumps
            // there and leaves the table of unstitched ones.
            self.tails.retain(|site| {
                let target = fragments[site.frag as usize].stitch[usize::from(site.exit)];
                if target == EXIT_UNSTITCHED {
                    return true;
                }
                let tail = site.tail as usize;
                patch_jmp(code, tail, self.frag_offsets[target as usize] as usize);
                if let Some(notes) = &mut e.asm.notes {
                    notes.push((tail, format!("; stitched: jmp fragment {target}")));
                }
                false
            });
            if !self.buf.protect(PROT_RX) {
                return Err(Unsupported { what: "mprotect" });
            }
            self.code_len = new_len;
            self.notes = e.asm.notes;
            if let Some(notes) = &mut self.notes {
                // Stable: a stitch note stays behind its trampoline's.
                notes.sort_by_key(|&(off, _)| off);
            }
            Ok(self)
        }

        /// Runs the tree from its trunk until an unstitched exit.
        ///
        /// Mirrors `executor::execute` — same signature shape, same
        /// semantics: fresh zeroed register file and spill area, loop
        /// edges poll `realm.interrupt` / `realm.heap.gc_pending` and
        /// the `fuel` budget, `CallTree` sites re-enter `host` — or, at
        /// a direct site, call the callee's code and leave the host what
        /// it would have counted ([`TreeHost::fold`], before this
        /// returns).
        ///
        /// # Errors
        ///
        /// A `RuntimeError` raised by a helper call or a nested tree
        /// (reported out-of-band through the ctx error slot) is returned
        /// exactly as the decoded executor would return it.
        pub fn execute(
            &self,
            ar: &mut [u64],
            realm: &mut Realm,
            host: &mut dyn TreeHost,
            fuel: u64,
        ) -> Result<TraceExit, RuntimeError> {
            let entry = self.frag_offsets[0] as usize;
            let mut regs = [0u64; REG_FILE_WORDS];
            // The spill area lives on this frame; only a tree that spills
            // more than `INLINE_SPILLS` words takes it from the heap.
            let mut inline_spill = [0u64; INLINE_SPILLS];
            let mut heap_spill = Vec::new();
            let spill: &mut [u64] = if self.max_spills <= INLINE_SPILLS {
                &mut inline_spill
            } else {
                heap_spill.resize(self.max_spills, 0u64);
                &mut heap_spill
            };
            let mut error: Option<RuntimeError> = None;
            let mut host: &mut dyn TreeHost = host;
            let realm_ptr: *mut Realm = realm;
            let mut ctx = NativeCtx {
                ar: ar.as_mut_ptr(),
                regs: regs.as_mut_ptr(),
                spill: spill.as_mut_ptr(),
                realm: realm_ptr,
                // SAFETY: `realm_ptr` comes from the `&mut Realm` above;
                // taking a field address reads nothing.
                interrupt: unsafe { &raw const (*realm_ptr).interrupt },
                // SAFETY: as above.
                gc_pending: unsafe { &raw const (*realm_ptr).heap.gc_pending },
                fuel,
                // SAFETY: a fragment offset lies inside the mapping.
                entry: unsafe { self.buf.ptr.add(entry) },
                iterations: 0,
                insts: 0,
                exit_fragment: 0,
                exit_id: 0,
                helpers: self.helpers.as_ptr(),
                helper_args: [0u64; MAX_HELPER_ARGS],
                helper_result: 0,
                ar_len: ar.len() as u64,
                host: (&raw mut host).cast::<core::ffi::c_void>(),
                error: &raw mut error,
                inner: std::ptr::null_mut(),
                counts: std::ptr::null_mut(),
                sites: 0,
                stage: std::ptr::null_mut(),
                stage_len: 0,
                budget: fuel,
            };
            // Direct sites run their callee in room carved out of this
            // run; the callee ctx shares the realm, host and error slot.
            let (mut words, mut counts, mut callee) = (Vec::new(), Vec::new(), None);
            if self.direct.iter().any(Option::is_some) {
                let (callee_ar, spill, stage) = self.callee_room;
                words.resize(REG_FILE_WORDS + spill + callee_ar + stage, 0u64);
                counts.resize(self.direct.len(), DirectCounts::default());
                let base = words.as_mut_ptr();
                // SAFETY: the register file, spill area, record and
                // staged refresh lie in `words`, in that order.
                let at = |n: usize| unsafe { base.add(n) };
                let (regs, spill_at) = (base, at(REG_FILE_WORDS));
                let (ar, ar_len) = (at(REG_FILE_WORDS + spill), callee_ar as u64);
                ctx.inner = callee.insert(NativeCtx { regs, spill: spill_at, ar, ar_len, ..ctx });
                (ctx.counts, ctx.sites) = (counts.as_mut_ptr(), counts.len() as u64);
                (ctx.stage, ctx.stage_len) = (at(REG_FILE_WORDS + spill + callee_ar), stage as u64);
            }
            // SAFETY: `buf` starts with the prologue this module emitted
            // for exactly this signature and is `r-x`: `append` is the
            // only writer and takes the tree by value, so it cannot run
            // while `&self` is live. Every pointer in `ctx` (and in the
            // callee ctx) outlives the call; a direct site's callee code
            // is held by `self.direct`.
            let run = unsafe {
                std::mem::transmute::<*mut u8, extern "sysv64" fn(*mut NativeCtx)>(self.buf.ptr)
            };
            run(&mut ctx);
            if callee.is_some() {
                host.fold(&mut counts);
            }
            if let Some(e) = error {
                return Err(e);
            }
            Ok(TraceExit {
                fragment: ctx.exit_fragment,
                exit: ctx.exit_id as u16,
                insts: ctx.insts,
                dispatched: ctx.insts,
                iterations: ctx.iterations,
            })
        }

        /// Bytes of emitted code (not the reserved capacity).
        pub fn code_size(&self) -> usize {
            self.code_len
        }

        /// Base address of the executable mapping (diagnostics only).
        pub fn code_ptr(&self) -> *const u8 {
            self.buf.ptr
        }

        /// Number of fragment bodies in the buffer.
        pub fn num_fragments(&self) -> usize {
            self.frag_offsets.len()
        }

        /// Annotated hexdump of the emitted buffer: each virtual-ISA
        /// instruction / exit trampoline line followed by the machine
        /// bytes it compiled to. Empty unless the tree was built by
        /// [`emit_tree_annotated`].
        pub fn hexdump(&self) -> String {
            let notes = self.notes.as_deref().unwrap_or(&[]);
            // SAFETY: the first `code_len` bytes of the mapping are
            // initialized code, readable (`r-x`) while `&self` is live.
            let code = unsafe { std::slice::from_raw_parts(self.buf.ptr, self.code_len) };
            let mut out = String::new();
            for (n, (off, text)) in notes.iter().enumerate() {
                let end = notes.get(n + 1).map_or(self.code_len, |(o, _)| *o);
                out.push_str(&format!("{off:08x}  {text}\n"));
                for line in code[*off..end].chunks(16) {
                    let hex: Vec<String> = line.iter().map(|b| format!("{b:02x}")).collect();
                    out.push_str(&format!("          {}\n", hex.join(" ")));
                }
            }
            out
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod imp {
    use tm_runtime::{Realm, RuntimeError};

    use super::{DirectSite, Unsupported};
    use crate::executor::{box_word, unbox_word, TraceExit, TreeHost};
    use crate::machinst::Fragment;

    /// Whether this build can emit and run native code (it cannot; the
    /// monitor auto-disables the native tier).
    pub fn native_supported() -> bool {
        false
    }

    /// Stub for non-x86-64 targets: native emission always fails, so
    /// callers uniformly fall back to the decoded executor.
    #[derive(Debug)]
    pub struct NativeTree {
        never: std::convert::Infallible,
    }

    impl NativeTree {
        /// Unreachable: a stub `NativeTree` cannot be constructed.
        #[allow(clippy::missing_errors_doc)]
        pub fn execute(
            &self,
            _ar: &mut [u64],
            _realm: &mut Realm,
            _host: &mut dyn TreeHost,
            _fuel: u64,
        ) -> Result<TraceExit, RuntimeError> {
            match self.never {}
        }

        /// Unreachable: a stub `NativeTree` cannot be constructed.
        #[allow(clippy::missing_errors_doc)]
        pub fn append(
            self,
            _fragments: &[Fragment],
            _sites: &[Option<DirectSite>],
        ) -> Result<NativeTree, Unsupported> {
            match self.never {}
        }

        /// Native code generation is unavailable on this target.
        ///
        /// # Errors
        ///
        /// Always returns [`Unsupported`].
        pub fn emit(
            fragments: &[Fragment],
            _sites: &[Option<DirectSite>],
        ) -> Result<NativeTree, Unsupported> {
            emit_tree(fragments)
        }

        /// Unreachable: a stub `NativeTree` cannot be constructed.
        pub fn direct_sites(&self) -> &[Option<DirectSite>] {
            match self.never {}
        }

        /// Unreachable: a stub `NativeTree` cannot be constructed.
        pub fn code_size(&self) -> usize {
            match self.never {}
        }

        /// Unreachable: a stub `NativeTree` cannot be constructed.
        pub fn code_ptr(&self) -> *const u8 {
            match self.never {}
        }

        /// Unreachable: a stub `NativeTree` cannot be constructed.
        pub fn num_fragments(&self) -> usize {
            match self.never {}
        }

        /// Unreachable: a stub `NativeTree` cannot be constructed.
        pub fn hexdump(&self) -> String {
            match self.never {}
        }
    }

    /// Native code generation is unavailable on this target.
    ///
    /// # Errors
    ///
    /// Always returns [`Unsupported`].
    pub fn emit_tree(_fragments: &[Fragment]) -> Result<NativeTree, Unsupported> {
        Err(Unsupported { what: "target (requires x86-64 linux)" })
    }

    /// Native code generation is unavailable on this target.
    ///
    /// # Errors
    ///
    /// Always returns [`Unsupported`].
    pub fn emit_tree_annotated(
        _fragments: &[Fragment],
        _sites: &[Option<DirectSite>],
    ) -> Result<NativeTree, Unsupported> {
        Err(Unsupported { what: "target (requires x86-64 linux)" })
    }
}

pub use imp::{emit_tree, emit_tree_annotated, native_supported, NativeTree};

#[cfg(all(test, target_arch = "x86_64", target_os = "linux"))]
mod tests {
    use tm_lir::{AluOp, ChkOp, CmpOp, FOp, FilterOptions, Lir, LirBuffer, LirType, Tag};
    use tm_runtime::trace_helpers::{word_from_f64, word_from_i32};
    use tm_runtime::{
        Helper, NativeEffects, Object, ObjectClass, ObjectId, Realm, RuntimeError, Value,
    };

    use super::{emit_tree, native_supported, unsupported_op, NativeTree, MAX_HELPER_ARGS};
    use crate::assembler::assemble;
    use crate::executor::{execute, DecodedTree, NoNesting, TraceExit, TreeHost};
    use crate::machinst::{Fragment, MachInst};

    /// Runs `fragments` through the decoded executor, raw and fused, and
    /// the native backend with identical inputs and asserts byte-identical
    /// ARs and identical exit records (every counter; fused code
    /// dispatches fewer ops for the same raw instructions retired).
    fn run_both(fragments: &[Fragment], ar_init: &[u64], fuel: u64) -> TraceExit {
        run_both_with(fragments, ar_init, fuel, |_| {})
    }

    /// [`run_both`] with a realm-setup hook applied identically to both
    /// tiers' realms (heap ops need the same objects/strings on each
    /// side; fresh realms allocate deterministically, so ids agree).
    fn run_both_with(
        fragments: &[Fragment],
        ar_init: &[u64],
        fuel: u64,
        setup: impl Fn(&mut Realm),
    ) -> TraceExit {
        let mut realm_dec = Realm::new();
        setup(&mut realm_dec);
        let mut ar_dec = ar_init.to_vec();
        let dec = execute(fragments, &mut ar_dec, &mut realm_dec, &mut NoNesting, fuel)
            .expect("decoded execution failed");

        let mut realm_fused = Realm::new();
        setup(&mut realm_fused);
        let mut ar_fused = ar_init.to_vec();
        let mut fused = DecodedTree::default();
        fused.append(fragments, true, true);
        let fused = fused
            .execute(&mut ar_fused, &mut realm_fused, &mut NoNesting, fuel)
            .expect("fused execution failed");
        assert_eq!(TraceExit { dispatched: dec.dispatched, ..fused }, dec, "fused exit diverges");
        assert_eq!(ar_fused, ar_dec, "fused activation record diverges");

        let mut realm_nat = Realm::new();
        setup(&mut realm_nat);
        let mut ar_nat = ar_init.to_vec();
        let nt = emit_tree(fragments).expect("native emission failed");
        let nat = nt
            .execute(&mut ar_nat, &mut realm_nat, &mut NoNesting, fuel)
            .expect("native execution failed");

        assert_eq!(dec, nat, "exit records diverge");
        assert_eq!(ar_dec, ar_nat, "activation records diverge");
        dec
    }

    /// One-fragment tree: load AR slots into r0/r1, run `mk`'s ops, end.
    /// `num_exits` exits all return to the monitor.
    fn frag(ops: Vec<MachInst>, num_exits: usize) -> Vec<Fragment> {
        vec![Fragment::new(ops, 0, num_exits)]
    }

    /// AR-in/AR-out harness around a single binary op: r0 = ar[0],
    /// r1 = ar[1], op writes r2, ar[2] = r2, End(0). Exit 1 is the guard.
    fn binop_tree(op: MachInst) -> Vec<Fragment> {
        frag(
            vec![
                MachInst::ReadAr { d: 0, slot: 0 },
                MachInst::ReadAr { d: 1, slot: 1 },
                op,
                MachInst::WriteAr { slot: 2, s: 2 },
                MachInst::End { exit: 0 },
            ],
            2,
        )
    }

    fn unop_tree(op: MachInst) -> Vec<Fragment> {
        frag(
            vec![
                MachInst::ReadAr { d: 0, slot: 0 },
                op,
                MachInst::WriteAr { slot: 2, s: 2 },
                MachInst::End { exit: 0 },
            ],
            2,
        )
    }

    fn w(i: i32) -> u64 {
        word_from_i32(i)
    }

    fn d(x: f64) -> u64 {
        word_from_f64(x)
    }

    #[test]
    fn supported_on_this_target() {
        assert!(native_supported());
    }

    #[test]
    fn int_alu_all_ops_all_edges() {
        let cases: &[i32] = &[
            0, 1, -1, 2, -2, 31, 32, 33, -31, -32, 0x3FFF_FFFF, -0x4000_0000, i32::MAX,
            i32::MIN, 12345, -9876,
        ];
        for &op in AluOp::ALL {
            let tree = binop_tree(MachInst::AluI { op, d: 2, a: 0, b: 1 });
            for &x in cases {
                for &y in cases {
                    run_both(&tree, &[w(x), w(y), 0], u64::MAX);
                }
            }
        }
    }

    #[test]
    fn int_unary_and_checked_neg() {
        let cases: &[i32] =
            &[0, 1, -1, 0x3FFF_FFFF, -0x4000_0000, i32::MAX, i32::MIN, 77, -77];
        for op in [
            MachInst::NotI { d: 2, a: 0 },
            MachInst::NegI { d: 2, a: 0 },
            MachInst::NegIChk { d: 2, a: 0, exit: 1 },
            MachInst::ChkRangeI { d: 2, a: 0, exit: 1 },
        ] {
            let tree = unop_tree(op.clone());
            for &x in cases {
                run_both(&tree, &[w(x), 0, 0], u64::MAX);
            }
        }
    }

    #[test]
    fn checked_alu_overflow_and_minus_zero() {
        let cases: &[i32] = &[
            0, 1, -1, 2, -2, 3, 0x3FFF_FFFF, -0x4000_0000, 0x2000_0000, -0x2000_0000,
            46341, -46341, i32::MAX, i32::MIN, 31, 33,
        ];
        let chk = ChkOp::ALL.iter().map(|&op| MachInst::ChkAluI { op, d: 2, a: 0, b: 1, exit: 1 });
        for op in chk.into_iter().chain([MachInst::ModIChk { d: 2, a: 0, b: 1, exit: 1 }]) {
            let tree = binop_tree(op);
            for &x in cases {
                for &y in cases {
                    run_both(&tree, &[w(x), w(y), 0], u64::MAX);
                }
            }
        }
    }

    #[test]
    fn double_arith_and_compares() {
        let cases: &[f64] = &[
            0.0, -0.0, 1.0, -1.5, 2.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY,
            1e300, -1e300, 0.1, 1073741824.0, -1073741825.0,
        ];
        let arith = FOp::ALL.iter().map(|&op| MachInst::AluD { op, d: 2, a: 0, b: 1 });
        let cmps = CmpOp::ALL.iter().map(|&op| MachInst::CmpD { op, d: 2, a: 0, b: 1 });
        for op in arith.chain(cmps) {
            let tree = binop_tree(op);
            for &x in cases {
                for &y in cases {
                    run_both(&tree, &[d(x), d(y), 0], u64::MAX);
                }
            }
        }
    }

    #[test]
    fn int_compares_and_conversions() {
        let ints: &[i32] = &[0, 1, -1, 5, -5, i32::MAX, i32::MIN];
        for &op in CmpOp::ALL {
            let tree = binop_tree(MachInst::CmpI { op, d: 2, a: 0, b: 1 });
            for &x in ints {
                for &y in ints {
                    run_both(&tree, &[w(x), w(y), 0], u64::MAX);
                }
            }
        }
        for op in [MachInst::I2D { d: 2, a: 0 }, MachInst::U2D { d: 2, a: 0 }] {
            let tree = unop_tree(op.clone());
            for &x in ints {
                run_both(&tree, &[w(x), 0, 0], u64::MAX);
            }
        }
        // NotB over boolean-ish words.
        let tree = unop_tree(MachInst::NotB { d: 2, a: 0 });
        for v in [0u64, 1, 2, u64::MAX] {
            run_both(&tree, &[v, 0, 0], u64::MAX);
        }
    }

    #[test]
    fn double_to_int_paths() {
        let cases: &[f64] = &[
            0.0, -0.0, 1.0, -1.0, 1.5, -2.5, 1073741823.0, 1073741824.0, -1073741824.0,
            -1073741825.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e40, -1e40,
            9.2233720368547758e18, -9.2233720368547758e18, 4294967296.0, 0.25,
        ];
        for op in [MachInst::D2IChk { d: 2, a: 0, exit: 1 }, MachInst::D2I32 { d: 2, a: 0 }] {
            let tree = unop_tree(op.clone());
            for &x in cases {
                run_both(&tree, &[d(x), 0, 0], u64::MAX);
            }
        }
    }

    #[test]
    fn box_unbox_all_tags() {
        // Every tag boxes every word: ints across the full i32 range
        // (out-of-range values allocate a heap double in both tiers; fresh
        // realms allocate the same id, so the raw words still match),
        // double bit patterns, truthy words and handles.
        let words = [
            w(0), w(1), w(-1), w(0x3FFF_FFFF), w(0x4000_0000), w(-0x4000_0000), w(-0x4000_0001),
            w(i32::MAX), w(i32::MIN), d(-0.5), d(f64::NAN), d(1e300), d(3.0), 7, 42,
            u64::from(u32::MAX), u64::MAX,
        ];
        for &tag in Tag::ALL {
            let tree = unop_tree(MachInst::Box { tag, d: 2, a: 0 });
            for v in words {
                run_both(&tree, &[v, 0, 0], u64::MAX);
            }
        }

        // Every tag unboxes every tag class: ints, specials, handles, and
        // a heap double allocated in each tier's realm.
        let raws = [
            Value::new_int(0).raw(),
            Value::new_int(5).raw(),
            Value::new_int(-7).raw(),
            Value::TRUE.raw(),
            Value::FALSE.raw(),
            Value::NULL.raw(),
            Value::UNDEFINED.raw(),
            0,  // object id 0
            8,  // object id 1
            4,  // string id 0
            12, // string id 1
        ];
        for x in [2.5f64, -0.0, f64::NAN] {
            let boxed = Realm::new().heap.number(x).raw();
            let alloc = move |realm: &mut Realm| assert_eq!(realm.heap.number(x).raw(), boxed);
            let unbox = Tag::ALL.iter().map(|&tag| MachInst::Unbox { tag, d: 2, a: 0, exit: 1 });
            for op in unbox.chain([MachInst::UnboxNumD { d: 2, a: 0, exit: 1 }]) {
                let tree = unop_tree(op);
                for raw in raws.into_iter().chain([boxed]) {
                    run_both_with(&tree, &[raw, 0, 0], u64::MAX, alloc);
                }
            }
        }
    }

    #[test]
    fn guards_and_boxed_eq() {
        let tree = frag(
            vec![
                MachInst::ReadAr { d: 0, slot: 0 },
                MachInst::GuardTrue { s: 0, exit: 1 },
                MachInst::End { exit: 0 },
            ],
            2,
        );
        run_both(&tree, &[0], u64::MAX);
        run_both(&tree, &[1], u64::MAX);
        let tree = frag(
            vec![
                MachInst::ReadAr { d: 0, slot: 0 },
                MachInst::GuardFalse { s: 0, exit: 1 },
                MachInst::End { exit: 0 },
            ],
            2,
        );
        run_both(&tree, &[0], u64::MAX);
        run_both(&tree, &[u64::MAX], u64::MAX);
        for wv in [0u64, 6, 14, 0x8000_0000, u64::MAX, 0xFFFF_FFFF_8000_0000] {
            let tree = frag(
                vec![
                    MachInst::ReadAr { d: 0, slot: 0 },
                    MachInst::GuardBoxedEq { s: 0, w: wv, exit: 1 },
                    MachInst::End { exit: 0 },
                ],
                2,
            );
            run_both(&tree, &[wv], u64::MAX);
            run_both(&tree, &[wv.wrapping_add(1)], u64::MAX);
        }
    }

    #[test]
    fn spills_and_moves_and_consts() {
        let mut fr = Fragment::new(
            vec![
                MachInst::ConstW { d: 0, w: 0xDEAD_BEEF_CAFE_F00D },
                MachInst::StoreSpill { slot: 3, s: 0 },
                MachInst::ConstW { d: 0, w: 7 },
                MachInst::Mov { d: 1, s: 0 },
                MachInst::LoadSpill { d: 2, slot: 3 },
                MachInst::WriteAr { slot: 0, s: 1 },
                MachInst::WriteAr { slot: 1, s: 2 },
                MachInst::ConstW { d: 3, w: u64::from(u32::MAX) },
                MachInst::ConstW { d: 4, w: 0xFFFF_FFFF_FFFF_FFFF },
                MachInst::WriteAr { slot: 2, s: 3 },
                MachInst::WriteAr { slot: 3, s: 4 },
                MachInst::End { exit: 0 },
            ],
            4,
            1,
        );
        fr.num_spills = 4;
        run_both(&[fr], &[0, 0, 0, 0], u64::MAX);
    }

    /// The counting loop the LIR pipeline builds: constant increment,
    /// compare + store + guard, loop edge — every selection at once, and
    /// the loop tail the decoded executor fuses into one op.
    #[test]
    fn loop_tail_differential() {
        let mut b = LirBuffer::new(FilterOptions::default());
        let i = b.emit(Lir::Import { slot: 0, ty: LirType::Int });
        let limit = b.emit(Lir::Import { slot: 1, ty: LirType::Int });
        let one = b.emit(Lir::ConstI(1));
        let e_ovf = b.alloc_exit();
        let next = b.emit(Lir::ChkAluI(ChkOp::Add, i, one, e_ovf));
        b.emit(Lir::WriteAr { slot: 0, v: next });
        let cont = b.emit(Lir::CmpI(CmpOp::Lt, next, limit));
        let e_done = b.alloc_exit();
        b.emit(Lir::GuardTrue(cont, e_done));
        let e_loop = b.alloc_exit();
        b.emit(Lir::LoopBack(e_loop));
        let fragments = vec![assemble(b.trace())];

        run_both(&fragments, &[w(0), w(100)], u64::MAX);
        // Fuel exhaustion exits at the loop edge; overflow at the check.
        run_both(&fragments, &[w(0), w(1000)], 50);
        let exit = run_both(&fragments, &[w(0x3FFF_FFF0), w(i32::MAX)], u64::MAX);
        assert_eq!(exit.exit, 0, "the overflow guard");
    }

    /// A constant operand on either side of each int ALU and checked-ALU
    /// op, then AR stores of computed vregs and of the constant (a store
    /// of the vreg just computed reuses `rax`); words that are not
    /// sign-extended i32s must stay register operands.
    #[test]
    fn constant_operands_become_immediates() {
        let consts =
            [w(-3), w(40), w(31), w(0x3FFF_FFFF), u64::MAX, 0x8000_0000, (1 << 32) | 5];
        let xs = [0, 5, -17, 1000, 0x3FFF_FFFF, -0x4000_0000, i32::MAX, i32::MIN];
        let ops = AluOp::ALL.iter().flat_map(|&op| {
            [MachInst::AluI { op, d: 2, a: 0, b: 1 }, MachInst::AluI { op, d: 3, a: 1, b: 0 }]
        });
        let chk = ChkOp::ALL.iter().flat_map(|&op| {
            [
                MachInst::ChkAluI { op, d: 2, a: 0, b: 1, exit: 1 },
                MachInst::ChkAluI { op, d: 3, a: 1, b: 0, exit: 1 },
            ]
        });
        for op in ops.chain(chk) {
            for c in consts {
                let tree = frag(
                    vec![
                        MachInst::ReadAr { d: 0, slot: 0 },
                        MachInst::ConstW { d: 1, w: c },
                        op.clone(),
                        MachInst::WriteAr { slot: 1, s: 0 },
                        MachInst::WriteAr { slot: 2, s: 2 },
                        MachInst::WriteAr { slot: 3, s: 3 },
                        MachInst::WriteAr { slot: 0, s: 1 },
                        MachInst::WriteAr { slot: 4, s: 3 },
                        MachInst::End { exit: 0 },
                    ],
                    2,
                );
                for x in xs {
                    run_both(&tree, &[w(x), 0, 0, 0, 0], u64::MAX);
                }
            }
        }
    }

    /// Compares with a constant on each side (the left one through
    /// `CmpOp::swapped`), a register pair, and doubles (NaN included),
    /// each guarded both ways: right after the compare, after a store of
    /// its result, after a boolean not of it (and of a value that is no
    /// compare's), with the result read again after the guard, and a
    /// guard on another register in between.
    #[test]
    fn guards_branch_on_the_compares_flags() {
        let ints = [0, 1, -1, 4, 9, i32::MAX, i32::MIN];
        let doubles = [0.0, -0.0, 1.5, 4.0, -2.0, f64::NAN, f64::INFINITY];
        let int_cmps = CmpOp::ALL.iter().flat_map(|&op| {
            [
                MachInst::CmpI { op, d: 3, a: 0, b: 2 },
                MachInst::CmpI { op, d: 3, a: 2, b: 0 },
                MachInst::CmpI { op, d: 3, a: 0, b: 1 },
            ]
        });
        let dbl_cmps = CmpOp::ALL.iter().map(|&op| MachInst::CmpD { op, d: 3, a: 0, b: 1 });
        let guards = |exit| [MachInst::GuardTrue { s: 3, exit }, MachInst::GuardFalse { s: 3, exit }];
        for (double, cmp) in int_cmps.map(|c| (false, c)).chain(dbl_cmps.map(|c| (true, c))) {
            for guard in guards(1) {
                let shapes: [&[MachInst]; 6] = [
                    &[cmp.clone(), guard.clone()],
                    &[cmp.clone(), MachInst::WriteAr { slot: 2, s: 3 }, guard.clone()],
                    &[cmp.clone(), MachInst::NotB { d: 3, a: 3 }, guard.clone()],
                    &[cmp.clone(), MachInst::NotB { d: 3, a: 0 }, guard.clone()],
                    &[
                        cmp.clone(),
                        guard.clone(),
                        MachInst::AluI { op: AluOp::Add, d: 4, a: 3, b: 3 },
                        MachInst::WriteAr { slot: 2, s: 4 },
                    ],
                    &[cmp.clone(), MachInst::GuardTrue { s: 0, exit: 1 }, guard.clone()],
                ];
                for shape in shapes {
                    let mut code = vec![
                        MachInst::ReadAr { d: 0, slot: 0 },
                        MachInst::ReadAr { d: 1, slot: 1 },
                        MachInst::ConstW { d: 2, w: w(4) },
                    ];
                    code.extend_from_slice(shape);
                    code.push(MachInst::End { exit: 0 });
                    let tree = frag(code, 2);
                    if double {
                        for x in doubles {
                            for y in doubles {
                                run_both(&tree, &[d(x), d(y), 0], u64::MAX);
                            }
                        }
                    } else {
                        for x in ints {
                            for y in ints {
                                run_both(&tree, &[w(x), w(y), 0], u64::MAX);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn stitched_fragments_transfer_registers_and_counts() {
        // Fragment 0 guards r0 and exits to fragment 1 through a stitched
        // exit; fragment 1 continues with the register file intact.
        let mut f0 = Fragment::new(
            vec![
                MachInst::ReadAr { d: 0, slot: 0 },
                MachInst::ConstW { d: 3, w: 17 },
                MachInst::GuardTrue { s: 0, exit: 1 },
                MachInst::End { exit: 0 },
            ],
            0,
            2,
        );
        f0.stitch_exit(1, 1);
        let f1 = Fragment::new(
            vec![
                // Reads r3 written by fragment 0: registers persist
                // across stitched transfers.
                MachInst::WriteAr { slot: 1, s: 3 },
                MachInst::End { exit: 0 },
            ],
            0,
            1,
        );
        // Not for fusion, which assumes no register lives across a
        // stitched transfer.
        let fragments = vec![f0, f1];
        let nt = emit_tree(&fragments).unwrap();
        assert_eq!(agree(&nt, &fragments, &[0, 0]).fragment, 1);
        assert_eq!(agree(&nt, &fragments, &[1, 0]).fragment, 0);
    }

    #[test]
    fn loop_edge_interrupt_and_gc_pending_exit() {
        let mut b = LirBuffer::new(FilterOptions::default());
        let i = b.emit(Lir::Import { slot: 0, ty: LirType::Int });
        let limit = b.emit(Lir::Import { slot: 1, ty: LirType::Int });
        let one = b.emit(Lir::ConstI(1));
        let e_ovf = b.alloc_exit();
        let next = b.emit(Lir::ChkAluI(ChkOp::Add, i, one, e_ovf));
        b.emit(Lir::WriteAr { slot: 0, v: next });
        let cont = b.emit(Lir::CmpI(CmpOp::Lt, next, limit));
        let e_done = b.alloc_exit();
        b.emit(Lir::GuardTrue(cont, e_done));
        let e_loop = b.alloc_exit();
        b.emit(Lir::LoopBack(e_loop));
        let fragments = vec![assemble(b.trace())];

        for set_interrupt in [true, false] {
            let mut realm_dec = Realm::new();
            let mut realm_nat = Realm::new();
            if set_interrupt {
                realm_dec.interrupt = true;
                realm_nat.interrupt = true;
            } else {
                realm_dec.heap.gc_pending = true;
                realm_nat.heap.gc_pending = true;
            }
            let mut ar_dec = vec![w(0), w(100)];
            let mut ar_nat = ar_dec.clone();
            let dec = execute(&fragments, &mut ar_dec, &mut realm_dec, &mut NoNesting, u64::MAX)
                .unwrap();
            let nt = emit_tree(&fragments).unwrap();
            let nat = nt
                .execute(&mut ar_nat, &mut realm_nat, &mut NoNesting, u64::MAX)
                .unwrap();
            assert_eq!(dec, nat);
            assert_eq!(ar_dec, ar_nat);
            assert_eq!(dec.iterations, 1, "first loop edge must take the exit");
        }
    }

    #[test]
    fn only_oversized_helper_calls_fail_emission() {
        // Every heap/helper/nested-tree family now emits.
        assert!(unsupported_op(&MachInst::GuardShape { obj: 0, shape: 3, exit: 1 }).is_none());
        assert!(unsupported_op(&MachInst::CallTree { tree: 0, exit: 0 }).is_none());
        assert!(unsupported_op(&MachInst::ConstW { d: 0, w: 0 }).is_none());
        // The one residual rejection: arity beyond the inline arg buffer.
        let wide = MachInst::CallHelper {
            d: 2,
            helper: Helper::Pow,
            args: vec![0; MAX_HELPER_ARGS + 1].into(),
            exit: 1,
        };
        assert_eq!(unsupported_op(&wide), Some("CallHelper arity"));
        let tree = frag(vec![MachInst::ReadAr { d: 0, slot: 0 }, wide], 2);
        let err = emit_tree(&tree).unwrap_err();
        assert_eq!(err.what, "CallHelper arity");
    }

    #[test]
    fn hexdump_annotates_exit_trampolines() {
        let tree = frag(
            vec![
                MachInst::ReadAr { d: 0, slot: 0 },
                MachInst::GuardTrue { s: 0, exit: 1 },
                MachInst::End { exit: 0 },
            ],
            2,
        );
        // The monitor's emission path skips annotations entirely.
        assert!(emit_tree(&tree).unwrap().hexdump().is_empty());
        let nt = super::emit_tree_annotated(&tree, &[]).unwrap();
        let dump = nt.hexdump();
        assert!(dump.contains("; fragment 0"));
        assert!(dump.contains("GuardTrue"));
        assert!(dump.contains("exit site: fragment 0 exit 1 -> return"));
        assert!(dump.contains("; epilogue"));
        assert!(nt.code_size() > 0);
        assert_eq!(nt.num_fragments(), 1);
    }

    /// Asserts that no mapping of the process is writable and executable
    /// and that the one holding `nt`'s code is `r-x`.
    fn assert_wx(nt: &NativeTree) {
        let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
        let mut found = false;
        for line in maps.lines() {
            let mut parts = line.split_whitespace();
            let (Some(range), Some(perms)) = (parts.next(), parts.next()) else { continue };
            assert!(
                !(perms.contains('w') && perms.contains('x')),
                "RWX mapping present: {line}"
            );
            let (lo, hi) = range.split_once('-').unwrap();
            let lo = usize::from_str_radix(lo, 16).unwrap();
            let hi = usize::from_str_radix(hi, 16).unwrap();
            let entry = nt.code_ptr() as usize;
            if (lo..hi).contains(&entry) {
                assert!(perms.starts_with("r-x"), "JIT buffer not r-x: {line}");
                found = true;
            }
        }
        assert!(found, "JIT buffer not found in /proc/self/maps");
    }

    #[test]
    fn wx_mapping_is_never_writable_and_executable() {
        let (trunk, full) = growth_tree();
        let nt = emit_tree(&trunk).unwrap();
        assert_wx(&nt);
        let nt = nt.append(&full, &[]).unwrap();
        assert_wx(&nt);
    }

    // ---- growth: append a branch, patch the parent's exit ----

    /// A counting loop and the branch its odd-`i` guard grows: the trunk
    /// alone, then trunk (exit 1 stitched) plus branch. AR: `i`, `limit`,
    /// `acc`; the branch adds `i` (left in r0 by the trunk) to `acc` and
    /// loops back.
    fn growth_tree() -> (Vec<Fragment>, Vec<Fragment>) {
        let trunk = Fragment::new(
            vec![
                MachInst::ReadAr { d: 0, slot: 0 },
                MachInst::ReadAr { d: 1, slot: 1 },
                MachInst::ConstW { d: 2, w: 1 },
                MachInst::AluI { op: AluOp::Add, d: 0, a: 0, b: 2 },
                MachInst::WriteAr { slot: 0, s: 0 },
                MachInst::CmpI { op: CmpOp::Lt, d: 3, a: 0, b: 1 },
                MachInst::GuardTrue { s: 3, exit: 0 },
                MachInst::AluI { op: AluOp::And, d: 4, a: 0, b: 2 },
                MachInst::GuardFalse { s: 4, exit: 1 },
                MachInst::LoopBack { exit: 2 },
            ],
            0,
            3,
        );
        let branch = Fragment::new(
            vec![
                MachInst::ReadAr { d: 5, slot: 2 },
                MachInst::AluI { op: AluOp::Add, d: 5, a: 5, b: 0 },
                MachInst::WriteAr { slot: 2, s: 5 },
                MachInst::LoopBack { exit: 0 },
            ],
            0,
            1,
        );
        let mut stitched = trunk.clone();
        stitched.stitch_exit(1, 1);
        (vec![trunk], vec![stitched, branch])
    }

    /// Runs `nt` and the decoded executor over `fragments` from the same
    /// inputs and requires identical exit records and ARs.
    fn agree(nt: &NativeTree, fragments: &[Fragment], ar_init: &[u64]) -> TraceExit {
        let mut ar_dec = ar_init.to_vec();
        let dec =
            execute(fragments, &mut ar_dec, &mut Realm::new(), &mut NoNesting, u64::MAX).unwrap();
        let mut ar_nat = ar_init.to_vec();
        let nat =
            nt.execute(&mut ar_nat, &mut Realm::new(), &mut NoNesting, u64::MAX).unwrap();
        assert_eq!(dec, nat, "exit records diverge");
        assert_eq!(ar_dec, ar_nat, "activation records diverge");
        dec
    }

    #[test]
    fn appended_branch_agrees_with_decoded_and_whole_emission() {
        let (trunk, full) = growth_tree();
        let ar = [w(0), w(20), w(0)];
        let grown = emit_tree(&trunk).unwrap();
        let first = agree(&grown, &trunk, &ar);
        assert_eq!((first.fragment, first.exit), (0, 1), "the first odd i leaves the trunk");
        let ptr = grown.code_ptr();
        let trunk_size = grown.code_size();

        let grown = grown.append(&full, &[]).unwrap();
        assert_eq!(grown.code_ptr(), ptr, "an in-capacity append does not move the code");
        assert_eq!(grown.num_fragments(), 2);
        let whole = emit_tree(&full).unwrap();
        assert_eq!(grown.code_size(), whole.code_size(), "same bodies, laid once each");
        assert!(grown.code_size() > trunk_size);
        let exit = agree(&grown, &full, &ar);
        assert_eq!(exit, agree(&whole, &full, &ar));
        assert_eq!((exit.fragment, exit.exit), (0, 0), "the loop now runs to its limit");
        assert!(exit.iterations >= 18, "{exit:?}");
    }

    #[test]
    fn tree_grown_past_capacity_rebuilds_and_agrees() {
        // A branch too large for any first reservation: 40 000 constant
        // loads in front of the real branch body.
        let (trunk, mut full) = growth_tree();
        let mut code = vec![MachInst::ConstW { d: 6, w: 0x1234_5678_9ABC }; 40_000];
        code.append(&mut full[1].code);
        full[1].code = code;
        let grown = emit_tree(&trunk).unwrap();
        assert_eq!(grown.append(&full, &[]).unwrap_err(), super::Unsupported::FULL);
        let rebuilt = emit_tree(&full).unwrap();
        let exit = agree(&rebuilt, &full, &[w(0), w(20), w(0)]);
        assert_eq!((exit.fragment, exit.exit), (0, 0));
        // The rebuilt mapping has room again: the next branch appends.
        let mut more = full.clone();
        more[0].stitch_exit(0, 2);
        more.push(Fragment::new(vec![MachInst::End { exit: 0 }], 0, 1));
        let ptr = rebuilt.code_ptr();
        let grown = rebuilt.append(&more, &[]).unwrap();
        assert_eq!(grown.code_ptr(), ptr);
        assert_eq!(agree(&grown, &more, &[w(0), w(20), w(0)]).fragment, 2);
    }

    #[test]
    fn loop_edge_exit_is_stitched_on_every_source() {
        // The loop edge's interrupt, GC and fuel polls share one exit
        // trampoline; stitching the loop exit must redirect all three.
        let (trunk, _) = growth_tree();
        let mut full = trunk.clone();
        full[0].stitch_exit(2, 1);
        full.push(Fragment::new(
            vec![
                MachInst::ConstW { d: 7, w: 99 },
                MachInst::WriteAr { slot: 2, s: 7 },
                MachInst::End { exit: 0 },
            ],
            0,
            1,
        ));
        let nt = emit_tree(&trunk).unwrap().append(&full, &[]).unwrap();
        for source in 0..3 {
            let setup = |realm: &mut Realm| match source {
                0 => realm.interrupt = true,
                1 => realm.heap.gc_pending = true,
                _ => {}
            };
            let fuel = if source == 2 { 0 } else { u64::MAX };
            // i = 1 → 2: even, so the run reaches the loop edge.
            let (mut realm_dec, mut realm_nat) = (Realm::new(), Realm::new());
            setup(&mut realm_dec);
            setup(&mut realm_nat);
            let mut ar_dec = vec![w(1), w(20), w(0)];
            let mut ar_nat = ar_dec.clone();
            let dec =
                execute(&full, &mut ar_dec, &mut realm_dec, &mut NoNesting, fuel).unwrap();
            let nat = nt.execute(&mut ar_nat, &mut realm_nat, &mut NoNesting, fuel).unwrap();
            assert_eq!(dec, nat, "source {source}");
            assert_eq!(ar_dec, ar_nat, "source {source}");
            assert_eq!((nat.fragment, nat.exit, ar_nat[2]), (1, 0, 99), "source {source}");
        }
    }

    #[test]
    fn hexdump_of_an_appended_tree_annotates_everything() {
        let (trunk, full) = growth_tree();
        let nt = super::emit_tree_annotated(&trunk, &[]).unwrap().append(&full, &[]).unwrap();
        let dump = nt.hexdump();
        for (k, frag) in full.iter().enumerate() {
            assert!(dump.contains(&format!("; fragment {k}\n")), "{dump}");
            for (i, inst) in frag.code.iter().enumerate() {
                assert!(dump.contains(&format!("f{k} {i:4}: {inst:?}")), "f{k} {i}:\n{dump}");
            }
        }
        // Trunk: exits 0 and 1 and the shared loop-edge site; branch: its
        // loop-edge site. The stitch is reported where it was patched in.
        assert_eq!(dump.matches("; exit site: fragment 0 ").count(), 3, "{dump}");
        assert_eq!(dump.matches("; exit site: fragment 1 ").count(), 1, "{dump}");
        assert_eq!(dump.matches("; stitched: jmp fragment 1").count(), 1, "{dump}");
        // Every code byte is listed under some annotation.
        let listed = dump
            .lines()
            .filter(|l| l.starts_with("          "))
            .map(|l| l.split_whitespace().count())
            .sum::<usize>();
        assert_eq!(listed, nt.code_size());
    }

    #[test]
    fn refused_syscalls_fail_one_tree_and_leave_the_process_running() {
        use super::imp::{REFUSE_NEXT, SYS_MMAP, SYS_MPROTECT};
        let (trunk, full) = growth_tree();
        let ar = [w(0), w(20), w(0)];
        // What the monitor does with a tree: native code when it has it,
        // the decoded executor when the tree was refused.
        let run = |code: Result<NativeTree, super::Unsupported>| {
            let mut ar = ar.to_vec();
            let exit = match &code {
                Ok(nt) => nt.execute(&mut ar, &mut Realm::new(), &mut NoNesting, u64::MAX),
                Err(_) => execute(&full, &mut ar, &mut Realm::new(), &mut NoNesting, u64::MAX),
            };
            (exit.unwrap(), ar)
        };
        let decoded = run(Err(super::Unsupported::FULL));

        // The mprotect of an append.
        let nt = emit_tree(&trunk).unwrap();
        REFUSE_NEXT.set(Some(SYS_MPROTECT));
        let refused = nt.append(&full, &[]);
        assert_eq!(refused.as_ref().unwrap_err().what, "mprotect");
        assert_eq!(run(refused), decoded);

        // The mmap of a rebuild.
        REFUSE_NEXT.set(Some(SYS_MMAP));
        let refused = emit_tree(&full);
        assert_eq!(refused.as_ref().unwrap_err().what, "mmap");
        assert_eq!(run(refused), decoded);

        // The switch is spent: the next tree emits and agrees.
        assert!(REFUSE_NEXT.get().is_none());
        assert_eq!(run(emit_tree(&trunk).unwrap().append(&full, &[])), decoded);
    }

    // ---- full-coverage tier: heap ops, helper calls, nested trees ----

    /// Allocates, identically in any fresh realm: a 2-slot plain object
    /// with a prototype, a 3-element array, and a string. Returns the
    /// (object, array, string-id) AR-ready words.
    fn setup_heap(realm: &mut Realm) -> (u64, u64, u64) {
        let proto = realm.new_plain_object();
        let mut o = Object::new_plain(Some(proto));
        o.slots = vec![Value::new_int(7), Value::new_int(-3)];
        let obj = realm.heap.alloc_object(o);
        let arr = realm.heap.alloc_object(Object::new_array(3, None));
        for (i, v) in [10, 20, 30].into_iter().enumerate() {
            realm.heap.object_mut(arr).elements[i] = Value::new_int(v);
        }
        let sv = realm.heap.alloc_string("hello, trace");
        let sid = sv.as_string().expect("string value");
        (u64::from(obj.0), u64::from(arr.0), u64::from(sid.0))
    }

    /// `setup_heap` on a throwaway realm, to learn the ids/shape the
    /// differential runs will see.
    fn probe_heap() -> (Realm, u64, u64, u64) {
        let mut probe = Realm::new();
        let (o, a, st) = setup_heap(&mut probe);
        (probe, o, a, st)
    }

    #[test]
    fn guard_shape_differential_hit_and_miss() {
        let (probe, obj_w, _, _) = probe_heap();
        let shape = probe.heap.object(ObjectId(obj_w as u32)).shape.0;
        let tree = |shape| {
            frag(
                vec![
                    MachInst::ReadAr { d: 0, slot: 0 },
                    MachInst::GuardShape { obj: 0, shape, exit: 1 },
                    MachInst::ConstW { d: 1, w: 99 },
                    MachInst::WriteAr { slot: 1, s: 1 },
                    MachInst::End { exit: 0 },
                ],
                2,
            )
        };
        let hit = run_both_with(&tree(shape), &[obj_w, 0], u64::MAX, |r| {
            setup_heap(r);
        });
        assert_eq!(hit.exit, 0, "matching shape falls through");
        let miss = run_both_with(&tree(shape + 1), &[obj_w, 0], u64::MAX, |r| {
            setup_heap(r);
        });
        assert_eq!(miss.exit, 1, "shape-guard miss takes the side exit");
    }

    #[test]
    fn guard_class_differential() {
        let (_, obj_w, arr_w, _) = probe_heap();
        let tree = |class: u8| {
            frag(
                vec![
                    MachInst::ReadAr { d: 0, slot: 0 },
                    MachInst::GuardClass { obj: 0, class, exit: 1 },
                    MachInst::End { exit: 0 },
                ],
                2,
            )
        };
        for (objw, class, want) in [
            (obj_w, ObjectClass::Plain as u8, 0),
            (obj_w, ObjectClass::Array as u8, 1),
            (arr_w, ObjectClass::Array as u8, 0),
            (arr_w, ObjectClass::Function as u8, 1),
        ] {
            let e = run_both_with(&tree(class), &[objw], u64::MAX, |r| {
                setup_heap(r);
            });
            assert_eq!(e.exit, want);
        }
    }

    #[test]
    fn guard_bound_differential() {
        let (_, _, arr_w, _) = probe_heap();
        let tree = frag(
            vec![
                MachInst::ReadAr { d: 0, slot: 0 },
                MachInst::ReadAr { d: 1, slot: 1 },
                MachInst::GuardBound { arr: 0, idx: 1, exit: 1 },
                MachInst::End { exit: 0 },
            ],
            2,
        );
        for (i, want) in [(0, 0), (2, 0), (3, 1), (-1, 1)] {
            let e = run_both_with(&tree, &[arr_w, w(i)], u64::MAX, |r| {
                setup_heap(r);
            });
            assert_eq!(e.exit, want, "index {i}");
        }
    }

    #[test]
    fn slot_load_store_differential() {
        let (_, obj_w, _, _) = probe_heap();
        // Read slot 1, overwrite slot 0 with it, read slot 0 back.
        let tree = frag(
            vec![
                MachInst::ReadAr { d: 0, slot: 0 },
                MachInst::LoadSlot { d: 1, o: 0, slot: 1 },
                MachInst::StoreSlot { o: 0, slot: 0, s: 1 },
                MachInst::LoadSlot { d: 2, o: 0, slot: 0 },
                MachInst::WriteAr { slot: 1, s: 2 },
                MachInst::End { exit: 0 },
            ],
            1,
        );
        run_both_with(&tree, &[obj_w, 0], u64::MAX, |r| {
            setup_heap(r);
        });
    }

    #[test]
    fn elem_load_store_and_growth_differential() {
        let (_, _, arr_w, _) = probe_heap();
        // elements[2] -> elements[0]; then a growing store at index 5
        // (set_element extends the dense array) observed via ArrayLen.
        let tree = frag(
            vec![
                MachInst::ReadAr { d: 0, slot: 0 },
                MachInst::ReadAr { d: 1, slot: 1 },
                MachInst::ReadAr { d: 2, slot: 2 },
                MachInst::LoadElem { d: 3, a: 0, i: 1 },
                MachInst::StoreElem { a: 0, i: 2, s: 3 },
                MachInst::ArrayLen { d: 4, a: 0 },
                MachInst::WriteAr { slot: 1, s: 3 },
                MachInst::WriteAr { slot: 2, s: 4 },
                MachInst::End { exit: 0 },
            ],
            1,
        );
        run_both_with(&tree, &[arr_w, w(2), w(0)], u64::MAX, |r| {
            setup_heap(r);
        });
        run_both_with(&tree, &[arr_w, w(1), w(5)], u64::MAX, |r| {
            setup_heap(r);
        });
    }

    #[test]
    fn proto_array_len_str_len_differential() {
        let (_, obj_w, arr_w, str_w) = probe_heap();
        let tree = frag(
            vec![
                MachInst::ReadAr { d: 0, slot: 0 },
                MachInst::ReadAr { d: 1, slot: 1 },
                MachInst::ReadAr { d: 2, slot: 2 },
                MachInst::LoadProto { d: 3, o: 0 },
                MachInst::ArrayLen { d: 4, a: 1 },
                MachInst::StrLen { d: 5, a: 2 },
                MachInst::WriteAr { slot: 0, s: 3 },
                MachInst::WriteAr { slot: 1, s: 4 },
                MachInst::WriteAr { slot: 2, s: 5 },
                MachInst::End { exit: 0 },
            ],
            1,
        );
        run_both_with(&tree, &[obj_w, arr_w, str_w], u64::MAX, |r| {
            setup_heap(r);
        });
    }

    #[test]
    fn call_helper_differential_pure_and_allocating() {
        // Pure 1-arg and 2-arg math helpers.
        let tree = frag(
            vec![
                MachInst::ReadAr { d: 0, slot: 0 },
                MachInst::ReadAr { d: 1, slot: 1 },
                MachInst::CallHelper { d: 2, helper: Helper::Sin, args: vec![0].into(), exit: 1 },
                MachInst::CallHelper {
                    d: 3,
                    helper: Helper::Pow,
                    args: vec![0, 1].into(),
                    exit: 1,
                },
                MachInst::WriteAr { slot: 0, s: 2 },
                MachInst::WriteAr { slot: 1, s: 3 },
                MachInst::End { exit: 0 },
            ],
            2,
        );
        let e = run_both_with(&tree, &[d(0.5), d(3.0)], u64::MAX, |_| {});
        assert_eq!(e.exit, 0, "pure helpers never take the reenter exit");

        // The soft-float filter's calls carry the no-exit sentinel.
        let tree = binop_tree(MachInst::CallHelper {
            d: 2,
            helper: Helper::SoftMul,
            args: vec![0, 1].into(),
            exit: tm_lir::NO_EXIT.0,
        });
        run_both(&tree, &[d(1.5), d(-4.0), 0], u64::MAX);

        // An allocating string helper: both realms allocate identically.
        let (_, _, _, str_w) = probe_heap();
        let tree = frag(
            vec![
                MachInst::ReadAr { d: 0, slot: 0 },
                MachInst::CallHelper {
                    d: 1,
                    helper: Helper::ConcatStrings,
                    args: vec![0, 0].into(),
                    exit: 1,
                },
                MachInst::StrLen { d: 2, a: 1 },
                MachInst::WriteAr { slot: 0, s: 2 },
                MachInst::End { exit: 0 },
            ],
            2,
        );
        run_both_with(&tree, &[str_w], u64::MAX, |r| {
            setup_heap(r);
        });
    }

    fn reentering_native(realm: &mut Realm, _args: &[Value]) -> Result<Value, RuntimeError> {
        realm.output.push('.');
        Ok(Value::new_int(5))
    }

    fn failing_native(_realm: &mut Realm, _args: &[Value]) -> Result<Value, RuntimeError> {
        Err(RuntimeError::Other("native failure".into()))
    }

    #[test]
    fn call_helper_reenter_takes_exit_on_both_tiers() {
        let register = |realm: &mut Realm| {
            realm.register_native(
                "test.reenter",
                reentering_native,
                NativeEffects { may_reenter: true, ..NativeEffects::default() },
                None,
            )
        };
        let id = register(&mut Realm::new());
        let tree = frag(
            vec![
                MachInst::ReadAr { d: 0, slot: 0 },
                MachInst::CallHelper {
                    d: 1,
                    helper: Helper::CallNative(id),
                    args: vec![0].into(),
                    exit: 1,
                },
                MachInst::WriteAr { slot: 0, s: 1 },
                MachInst::End { exit: 0 },
            ],
            2,
        );
        let e = run_both_with(&tree, &[Value::new_int(1).raw()], u64::MAX, |r| {
            register(r);
        });
        assert_eq!(e.exit, 1, "§6.5: reentrant native forces the side exit");
    }

    #[test]
    fn call_helper_error_propagates_from_native_code() {
        let register = |realm: &mut Realm| {
            realm.register_native(
                "test.fail",
                failing_native,
                NativeEffects::default(),
                None,
            )
        };
        let id = register(&mut Realm::new());
        let tree = frag(
            vec![
                MachInst::ReadAr { d: 0, slot: 0 },
                MachInst::CallHelper {
                    d: 1,
                    helper: Helper::CallNative(id),
                    args: vec![0].into(),
                    exit: 1,
                },
                MachInst::End { exit: 0 },
            ],
            2,
        );
        let mut realm_dec = Realm::new();
        register(&mut realm_dec);
        let mut ar_dec = vec![Value::new_int(1).raw()];
        let dec =
            execute(&tree, &mut ar_dec, &mut realm_dec, &mut NoNesting, u64::MAX)
                .unwrap_err();
        let mut realm_nat = Realm::new();
        register(&mut realm_nat);
        let mut ar_nat = vec![Value::new_int(1).raw()];
        let nt = emit_tree(&tree).unwrap();
        let nat = nt
            .execute(&mut ar_nat, &mut realm_nat, &mut NoNesting, u64::MAX)
            .unwrap_err();
        assert_eq!(dec, nat, "both tiers surface the helper's RuntimeError");
    }

    #[test]
    fn call_helper_sites_annotate_helper_names() {
        let tree = frag(
            vec![
                MachInst::ReadAr { d: 0, slot: 0 },
                MachInst::CallHelper { d: 1, helper: Helper::Sqrt, args: vec![0].into(), exit: 1 },
                MachInst::End { exit: 0 },
            ],
            2,
        );
        let dump = super::emit_tree_annotated(&tree, &[]).unwrap().hexdump();
        assert!(
            dump.contains("; helper table[0] = Sqrt"),
            "hexdump resolves the helper name, not just a table index:\n{dump}"
        );
    }

    #[test]
    fn call_tree_reenters_host_and_bridges() {
        let fragments = frag(
            vec![
                MachInst::CallTree { tree: 3, exit: 1 },
                MachInst::ConstW { d: 0, w: 1 },
                MachInst::WriteAr { slot: 0, s: 0 },
                MachInst::End { exit: 0 },
            ],
            2,
        );
        struct Scripted {
            cont: bool,
            seen_site: u32,
        }
        impl TreeHost for Scripted {
            fn call_tree(
                &mut self,
                tree: u32,
                ar: &mut [u64],
                _realm: &mut Realm,
            ) -> Result<bool, RuntimeError> {
                self.seen_site = tree;
                ar[1] = 7;
                Ok(self.cont)
            }
        }
        for cont in [false, true] {
            let mut realm_dec = Realm::new();
            let mut ar_dec = vec![0u64, 0];
            let mut h_dec = Scripted { cont, seen_site: u32::MAX };
            let dec = execute(&fragments, &mut ar_dec, &mut realm_dec, &mut h_dec, u64::MAX)
                .unwrap();
            let mut realm_nat = Realm::new();
            let mut ar_nat = vec![0u64, 0];
            let mut h_nat = Scripted { cont, seen_site: u32::MAX };
            let nt = emit_tree(&fragments).unwrap();
            let nat = nt
                .execute(&mut ar_nat, &mut realm_nat, &mut h_nat, u64::MAX)
                .unwrap();
            assert_eq!(dec, nat, "exit records diverge");
            assert_eq!(ar_dec, ar_nat, "activation records diverge");
            assert_eq!(h_nat.seen_site, 3, "nested-site id passes through the shim");
            assert_eq!(ar_nat[1], 7, "host AR writes visible after native CallTree");
            assert_eq!(dec.exit, u16::from(!cont), "Ok(false) takes the call's exit");
        }
        // An erroring host (NoNesting included) propagates Err out of
        // the native buffer, matching the decoded tier.
        let nt = emit_tree(&fragments).unwrap();
        let mut ar = vec![0u64, 0];
        let err = nt
            .execute(&mut ar, &mut Realm::new(), &mut NoNesting, u64::MAX)
            .unwrap_err();
        let mut ar = vec![0u64, 0];
        let dec_err =
            execute(&fragments, &mut ar, &mut Realm::new(), &mut NoNesting, u64::MAX)
                .unwrap_err();
        assert_eq!(dec_err, err);
    }
}
