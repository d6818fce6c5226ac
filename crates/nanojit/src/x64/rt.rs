//! The run-time side of native code: the ctx it runs against
//! ([`NativeCtx`], and the `CTX_*` offsets lowering addresses it by) and
//! the shims it calls into the runtime and the host.

use std::mem::offset_of;

use tm_lir::{FOp, Tag};
use tm_runtime::trace_helpers::{call_helper, f64_from_word, heap_ops, word_from_f64, Helper};
use tm_runtime::{Realm, RuntimeError};

use super::MAX_HELPER_ARGS;
use crate::executor::{box_word, DirectCounts, TraceExit, TreeHost, Variables};

/// Everything native code needs, passed by pointer in `rdi`. Pinned
/// callee-saved registers cache the hot fields: `r15` = ctx, `r14` =
/// `ar`, `r13` = `regs`; `rbx` accumulates the `insts` counter and is
/// flushed to the ctx on exit. Vregs `r0`..`r5` live in rbp, r12 and
/// r8–r11 (`lower::MAPPED`).
#[repr(C)]
pub(super) struct NativeCtx {
    /// Trace activation record base.
    pub(super) ar: *mut u64,
    /// Memory file base: `REG_FILE_WORDS` words, the home of the vregs
    /// no machine register holds and the save area of those in r8–r11
    /// around a call, followed by the spill area (the most spill slots
    /// of any fragment). Never cleared, for a run or a nested call: a
    /// verified fragment writes every vreg and spill slot before
    /// reading it.
    pub(super) regs: *mut u64,
    /// The realm: inline heap accesses read its arena bases
    /// (`tm_runtime::object::layout`), and the heap shims get it.
    pub(super) realm: *mut Realm,
    /// `&realm.interrupt`, polled at loop edges (§6.4).
    pub(super) interrupt: *const bool,
    /// `&realm.heap.gc_pending`, polled at loop edges.
    pub(super) gc_pending: *const bool,
    /// Instruction budget: loop edges exit once `insts >= fuel`.
    pub(super) fuel: u64,
    /// Address of the fragment body to enter at; the prologue jumps
    /// through it, so fragments can be appended without touching the
    /// prologue.
    pub(super) entry: *const u8,
    /// Out: completed loop-edge crossings.
    pub(super) iterations: u64,
    /// Out: instructions retired.
    pub(super) insts: u64,
    /// Out: fragment that took the final (unstitched) exit.
    pub(super) exit_fragment: u32,
    /// Out: exit id taken.
    pub(super) exit_id: u32,
    /// Per-tree `CallHelper` side table base ([`NativeTree::helpers`]).
    /// `Helper` carries a payload variant (`CallNative`), so sites
    /// index this table instead of baking an immediate.
    pub(super) helpers: *const Helper,
    /// `CallHelper` argument scratch; emitted code stores the operand
    /// vregs here before calling [`helper_shim`]. The pre-scan caps
    /// arity at `MAX_HELPER_ARGS` so the stores stay in bounds.
    pub(super) helper_args: [u64; MAX_HELPER_ARGS],
    /// Out from [`helper_shim`]: the helper's result word.
    pub(super) helper_result: u64,
    /// Number of AR slots, so [`call_tree_shim`] can rebuild the
    /// `&mut [u64]` slice the nested tree executes against.
    pub(super) ar_len: u64,
    /// Type-erased [`TreeHost`]: a thin pointer to the `&mut dyn
    /// TreeHost` living on [`NativeTree::execute`]'s stack (a raw fat
    /// pointer has no stable `repr(C)` layout, so it stays behind one
    /// more indirection and only Rust shim code dereferences it).
    pub(super) host: *mut core::ffi::c_void,
    /// Out: error raised by a helper or nested tree. Points at an
    /// `Option<RuntimeError>` on `execute`'s stack; when a shim
    /// reports status 2 the native code unwinds through the epilogue
    /// and `execute` returns `Err` instead of a `TraceExit`. A
    /// callee's ctx points at its caller's.
    pub(super) error: *mut Option<RuntimeError>,
    /// The ctx a direct site runs its callee in, whose `ar`, `regs`
    /// and `spill` are carved out of this run (null when the tree
    /// has no direct site). Its `ar_len` is the room for any callee.
    pub(super) inner: *mut NativeCtx,
    /// Per site id, the direct calls completed since the host last
    /// folded them ([`TreeHost::fold`]); `sites` entries.
    pub(super) counts: *mut DirectCounts,
    pub(super) sites: u64,
    /// Where a direct site's refresh words wait until all are read;
    /// `stage_len` words.
    pub(super) stage: *mut u64,
    pub(super) stage_len: u64,
    /// Steps the next callee run may take: `fuel`, less what this
    /// run's direct calls have retired since the host last folded
    /// them. A callee run that uses all of it goes to the host.
    pub(super) budget: u64,
    /// The position in its site's chain of the tree a direct call runs,
    /// and the bytecodes counted for the link exit it left through.
    pub(super) link: u64,
    pub(super) link_bytecodes: u64,
}

impl NativeCtx {
    /// The exit record of the run this ctx saw to its end.
    pub(super) fn exit(&self) -> TraceExit {
        TraceExit {
            fragment: self.exit_fragment,
            exit: self.exit_id as u16,
            insts: self.insts,
            dispatched: self.insts,
            iterations: self.iterations,
        }
    }
}

/// `exit_fragment` of a callee run a helper error ended: a direct
/// site presets it, and only exit trampolines overwrite it.
pub(super) const RAISED: u32 = u32::MAX;

pub(super) const CTX_AR: i32 = offset_of!(NativeCtx, ar) as i32;
pub(super) const CTX_REGS: i32 = offset_of!(NativeCtx, regs) as i32;
pub(super) const CTX_REALM: i32 = offset_of!(NativeCtx, realm) as i32;
pub(super) const CTX_INTERRUPT: i32 = offset_of!(NativeCtx, interrupt) as i32;
pub(super) const CTX_GC: i32 = offset_of!(NativeCtx, gc_pending) as i32;
pub(super) const CTX_FUEL: i32 = offset_of!(NativeCtx, fuel) as i32;
pub(super) const CTX_ENTRY: i32 = offset_of!(NativeCtx, entry) as i32;
pub(super) const CTX_ITER: i32 = offset_of!(NativeCtx, iterations) as i32;
pub(super) const CTX_INSTS: i32 = offset_of!(NativeCtx, insts) as i32;
pub(super) const CTX_EXIT_FRAG: i32 = offset_of!(NativeCtx, exit_fragment) as i32;
pub(super) const CTX_EXIT_ID: i32 = offset_of!(NativeCtx, exit_id) as i32;
pub(super) const CTX_HARGS: i32 = offset_of!(NativeCtx, helper_args) as i32;
pub(super) const CTX_HRESULT: i32 = offset_of!(NativeCtx, helper_result) as i32;
pub(super) const CTX_HELPERS: i32 = offset_of!(NativeCtx, helpers) as i32;
pub(super) const CTX_INNER: i32 = offset_of!(NativeCtx, inner) as i32;
pub(super) const CTX_LINK: i32 = offset_of!(NativeCtx, link) as i32;
pub(super) const CTX_LINK_BC: i32 = offset_of!(NativeCtx, link_bytecodes) as i32;
pub(super) const CTX_COUNTS: i32 = offset_of!(NativeCtx, counts) as i32;
pub(super) const CTX_STAGE: i32 = offset_of!(NativeCtx, stage) as i32;
pub(super) const CTX_BUDGET: i32 = offset_of!(NativeCtx, budget) as i32;

// Native code calls the shims with the C convention — System V on
// x86-64 Linux — so the pinned callee-saved registers survive. The
// heap and box shims hold no semantics of their own: each forwards to
// the `tm_runtime` function (`trace_helpers::heap_ops`) that the
// decoded executor's match arm for the same instruction calls.
//
// Every `realm` argument is `NativeCtx::realm`, which
// `NativeTree::execute` fills from the `&mut Realm` it holds for the
// whole run; native code runs on that thread only and is suspended
// inside the call, so the reference each shim rebuilds is unique (or
// shared, for the `*const` ones) for the shim's duration.

pub(super) extern "C" fn fmod_shim(a: u64, b: u64) -> u64 {
    word_from_f64(FOp::Mod.eval(f64_from_word(a), f64_from_word(b)))
}

/// `D2I32` of a double `cvttsd2si` cannot convert (NaN, ±Inf, or
/// |x| ≥ 2^63); every other one is converted inline.
pub(super) extern "C" fn d2i32_shim(a: u64) -> u64 {
    i64::from(tm_runtime::ops::double_to_int32(f64_from_word(a))) as u64
}

/// `Box(Int)` slow path: the value is outside the boxable 31-bit
/// range, so boxing allocates a heap double.
pub(super) extern "C" fn boxi_slow_shim(realm: *mut Realm, i: u32) -> u64 {
    // SAFETY: `realm` is the run's realm (section comment).
    box_word(unsafe { &mut *realm }, Tag::Int, u64::from(i))
}

pub(super) extern "C" fn boxd_shim(realm: *mut Realm, bits: u64) -> u64 {
    // SAFETY: `realm` is the run's realm (section comment).
    box_word(unsafe { &mut *realm }, Tag::Double, bits)
}

// Heap accesses that call a shim: the slow paths of the inline slot
// and element accesses (an index not below the live length: the
// decoded tier's semantics, growing an array or panicking), and the
// ops with no inline form (`LoadProto`, `StrLen`).

pub(super) extern "C" fn load_slot_shim(realm: *const Realm, obj: u64, slot: u64) -> u64 {
    // SAFETY: `realm` is the run's realm (section comment).
    heap_ops::load_slot(unsafe { &*realm }, obj, slot)
}

pub(super) extern "C" fn store_slot_shim(realm: *mut Realm, obj: u64, slot: u64, v: u64) {
    // SAFETY: `realm` is the run's realm (section comment).
    heap_ops::store_slot(unsafe { &mut *realm }, obj, slot, v);
}

pub(super) extern "C" fn load_proto_shim(realm: *const Realm, obj: u64) -> u64 {
    // SAFETY: `realm` is the run's realm (section comment).
    heap_ops::load_proto(unsafe { &*realm }, obj)
}

/// `idx` arrives sign-extended from the i32 vreg.
pub(super) extern "C" fn load_elem_shim(realm: *const Realm, obj: u64, idx: i64) -> u64 {
    // SAFETY: `realm` is the run's realm (section comment).
    heap_ops::load_elem(unsafe { &*realm }, obj, idx as i32)
}

pub(super) extern "C" fn store_elem_shim(realm: *mut Realm, obj: u64, idx: i64, v: u64) {
    // SAFETY: `realm` is the run's realm (section comment).
    heap_ops::store_elem(unsafe { &mut *realm }, obj, idx as i32, v);
}

pub(super) extern "C" fn str_len_shim(realm: *const Realm, s: u64) -> u64 {
    // SAFETY: `realm` is the run's realm (section comment).
    heap_ops::str_len(unsafe { &*realm }, s)
}

// Runtime re-entry (helper calls, nested trees). Both return a
// status word the emitted code branches on; errors are parked in
// `ctx.error` and the buffer unwinds through the epilogue.

/// `helper_shim` status: continue straight-line execution.
pub(super) const ST_OK: u32 = 0;
/// Take the instruction's side exit (helper re-entered the VM §6.5,
/// or the nested tree reported a guard mismatch).
pub(super) const ST_EXIT: u32 = 1;
/// A `RuntimeError` was stored through `ctx.error`; abandon the run.
pub(super) const ST_ERR: u32 = 2;

/// `CallHelper`: dispatches through the per-tree helper table with
/// the arguments the emitted code marshalled into `ctx.helper_args`.
pub(super) extern "C" fn helper_shim(ctx: *mut NativeCtx, helper: u32, argc: u32) -> u32 {
    // SAFETY: native code passes its own ctx.
    let mut run = unsafe { Run::of(ctx) };
    // SAFETY: a site passes the index its emission interned its helper
    // at, in the table `ctx.helpers` points at.
    let h = unsafe { *run.ctx.helpers.add(helper as usize) };
    let called = call_helper(run.realm, h, &run.ctx.helper_args[..argc as usize]).map(|w| {
        run.ctx.helper_result = w;
        !std::mem::take(&mut run.realm.reentered_during_trace)
    });
    run.status(called)
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

    /// The host's (or a helper's) answer as a status word: `Ok(true)`
    /// goes on, `Ok(false)` takes the exit; an error is parked in
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
pub(super) extern "C" fn call_tree_shim(ctx: *mut NativeCtx, site: u32) -> u32 {
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
pub(super) extern "C" fn variables_shim(ctx: *mut NativeCtx, site: u32, part: u32) -> u32 {
    // SAFETY: native code passes its own ctx.
    let run = unsafe { Run::of(ctx) };
    let part = [Variables::Args, Variables::Refresh, Variables::Flush][part.min(2) as usize];
    let link = run.ctx.link as usize;
    u32::from(run.host.variables(site, part, link, run.callee_ar, run.staged, run.realm))
}

/// A direct call that did not come back as its site expects — a
/// callee exit other than the expected one, a refused refresh, a
/// spent budget, or a helper error in the callee: the host finishes
/// it from the callee's record and exit ([`TreeHost::finish_call`]).
pub(super) extern "C" fn return_shim(ctx: *mut NativeCtx, site: u32) -> u32 {
    // SAFETY: native code passes its own ctx.
    let mut run = unsafe { Run::of(ctx) };
    run.fold();
    // SAFETY: as in `Run::of`; the callee ctx is read only.
    let inner = unsafe { &*run.ctx.inner };
    let exit = (inner.exit_fragment != RAISED).then(|| inner.exit());
    let link = run.ctx.link as usize;
    let finished = run.host.finish_call(site, link, run.ar, run.callee_ar, exit, run.realm);
    run.fold();
    match exit {
        // The callee's error is already in `ctx.error`.
        None => ST_ERR,
        Some(_) => run.status(finished),
    }
}

/// Test support: a direct call's link `link`, or (`u32::MAX`) its return
/// ([`TreeHost::observe`]).
pub(super) extern "C" fn observe_shim(ctx: *mut NativeCtx, site: u32, link: u32) {
    // SAFETY: native code passes its own ctx.
    let run = unsafe { Run::of(ctx) };
    // SAFETY: as in `Run::of`; the callee ctx is read only.
    let inner = unsafe { &*run.ctx.inner };
    let exit = (inner.exit_fragment, inner.exit_id as u16);
    let link = (link != u32::MAX).then_some((link as usize, exit));
    run.host.observe(site, link, run.ar, run.callee_ar, run.realm);
}
