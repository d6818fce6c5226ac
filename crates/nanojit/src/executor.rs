//! Executor for compiled trace fragments.
//!
//! Executes the virtual ISA against a trace activation record and the
//! realm, in the dispatch form [`crate::peephole`] decodes it to (fused
//! into superinstructions, or one op per raw instruction). Guards that
//! fail consult the fragment's exit table: a stitched exit transfers
//! directly into a branch fragment (the paper's trace stitching, §6.2 —
//! values pass through the activation record, which is exactly what the
//! exiting trace's live `WriteAr`s populated); an unstitched exit returns
//! control to the trace monitor.

use tm_lir::Tag;
use tm_runtime::trace_helpers::{
    call_helper, f64_from_word, heap_ops, i32_from_word, word_from_f64,
};
use tm_runtime::value::{INT_MAX, INT_MIN};
use tm_runtime::{ObjectId, Realm, RuntimeError, StringId, Value};

use crate::machinst::{Fragment, MachInst, Reg, EXIT_UNSTITCHED, NREGS, REG_FILE_WORDS, REG_MASK};
use crate::peephole::{decode, Decoded, Op};

/// Host callback for nested-tree calls (§4). Implemented by the trace
/// monitor, which owns the tree registry and the interpreter state needed
/// to transfer between activation records.
pub trait TreeHost {
    /// Executes inner tree `tree` to completion.
    ///
    /// Returns `Ok(true)` when the inner tree exited through its expected
    /// loop-edge exit (the nesting guard holds), `Ok(false)` for any other
    /// inner side exit (the outer trace must side-exit).
    ///
    /// # Errors
    ///
    /// Propagates guest errors raised while running the inner tree.
    fn call_tree(
        &mut self,
        tree: u32,
        ar: &mut [u64],
        realm: &mut Realm,
    ) -> Result<bool, RuntimeError>;

    /// A direct call's interpreter variables at site `tree` (native tier,
    /// [`crate::x64::DirectSite`]): `Args` fills the record `inner` of its
    /// chain's tree `link`, `Refresh` fills `staged[i]` for the `i`-th
    /// refresh move, `Flush` writes returned variables back. `false` on a
    /// value that does not match its type.
    fn variables(
        &mut self,
        _tree: u32,
        _part: Variables,
        _link: usize,
        _inner: &mut [u64],
        _staged: &mut [u64],
        _realm: &mut Realm,
    ) -> bool {
        false
    }

    /// Finishes a direct call at site `tree` that did not come back as
    /// expected, from the record `inner` of the callee at `link` of the
    /// site's chain (0: the first) and its exit (`None`: a helper of the
    /// callee raised). Returns what [`TreeHost::call_tree`] would have.
    ///
    /// # Errors
    ///
    /// Restoring the interpreter at the callee's exit raised.
    fn finish_call(
        &mut self,
        _tree: u32,
        _link: usize,
        _ar: &mut [u64],
        _inner: &[u64],
        _exit: Option<TraceExit>,
        _realm: &mut Realm,
    ) -> Result<bool, RuntimeError> {
        Ok(false)
    }

    /// Counts the direct calls in `counts` (by site) and zeroes them;
    /// returns the step budget the next callee run may use.
    fn fold(&mut self, _counts: &mut [DirectCounts]) -> u64 {
        u64::MAX
    }

    /// Test support ([`crate::x64::DirectSite::observed`]): a direct
    /// call at site `tree` moved `inner` across its link `link` after the
    /// exit `(fragment, exit)` (`Some`), or came back and refreshed `ar`:
    /// `(tree, link, ar, inner, realm)`.
    fn observe(&mut self, _: u32, _: Option<Link>, _: &[u64], _: &[u64], _: &mut Realm) {}
}

/// The parts of a direct call [`TreeHost::variables`] serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variables {
    /// Arguments read from interpreter variables.
    Args,
    /// Refresh words read from interpreter variables.
    Refresh,
    /// The callee's returned variables no later exit writes back.
    Flush,
}

/// A link a direct call crossed: its position, and the exit before it.
pub type Link = (usize, (u32, u16));

/// The most type-unstable sibling links (Figure 6) a direct call crosses.
pub const MAX_LINKS: usize = 3;

/// The runs a direct site completed since the host last folded them, by
/// position in its chain of trees: a run completes when the call goes on.
#[repr(C)]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DirectCounts {
    /// Completed runs; those of the last tree are the calls that came
    /// back through the expected exit.
    pub runs: [u64; MAX_LINKS + 1],
    /// The callees' loop-edge crossings in them.
    pub iterations: [u64; MAX_LINKS + 1],
    /// The callees' raw instructions retired in them.
    pub insts: u64,
    /// The bytecodes counted for the exits they took.
    pub bytecodes: u64,
}

/// A no-op host for trees without nested calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoNesting;

impl TreeHost for NoNesting {
    fn call_tree(
        &mut self,
        _tree: u32,
        _ar: &mut [u64],
        _realm: &mut Realm,
    ) -> Result<bool, RuntimeError> {
        Err(RuntimeError::Other("unexpected nested tree call".into()))
    }
}

/// Why trace execution stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceExit {
    /// Fragment index (within the executed tree) that exited.
    pub fragment: u32,
    /// The exit id taken.
    pub exit: u16,
    /// Raw machine instructions retired during this run: the same count
    /// on either tier, whatever the decoded executor fused (the unit of
    /// the step budget).
    pub insts: u64,
    /// Instructions dispatched: the decoded executor's ops, which are
    /// fewer than `insts` where it fused; native code dispatches every
    /// raw instruction, so there it equals `insts`.
    pub dispatched: u64,
    /// Completed loop-edge crossings (LoopBack executions).
    pub iterations: u64,
}

/// Register-file index for `reg`. In-range registers make the mask a
/// no-op; the `debug_assert!` catches allocator bugs that would otherwise
/// silently alias registers through the mask.
#[inline(always)]
fn r(reg: Reg) -> usize {
    debug_assert!(
        (reg as usize) < NREGS,
        "register r{reg} out of range (NREGS = {NREGS}) — regalloc bug"
    );
    (reg & REG_MASK) as usize
}

#[inline]
fn fits_i31(v: i64) -> bool {
    (INT_MIN..=INT_MAX).contains(&v)
}

/// `Box { tag }`: the tagged word for the unboxed `tag` value `w`. The two
/// allocating tags go through `heap_ops` (which flags a due collection);
/// the native tier's slow-path shims call this same function.
#[inline]
pub(crate) fn box_word(realm: &mut Realm, tag: Tag, w: u64) -> u64 {
    match tag {
        Tag::Int => heap_ops::box_i(realm, i32_from_word(w)),
        Tag::Double => heap_ops::box_d(realm, w),
        Tag::Bool => Value::new_bool(w != 0).raw(),
        Tag::Object => Value::new_object(ObjectId(w as u32)).raw(),
        Tag::String => Value::new_string(StringId(w as u32)).raw(),
    }
}

/// `Unbox { tag }`: the unboxed value behind the tagged word `raw`, or
/// `None` when it carries another tag (the guard's side exit).
#[inline]
pub(crate) fn unbox_word(realm: &Realm, tag: Tag, raw: u64) -> Option<u64> {
    let v = Value::from_raw(raw);
    match tag {
        Tag::Int => v.as_int().map(|i| i64::from(i) as u64),
        Tag::Double => heap_ops::unbox_double(realm, raw),
        Tag::Bool => v.as_bool().map(u64::from),
        Tag::Object => v.as_object().map(|id| u64::from(id.0)),
        Tag::String => v.as_string().map(|id| u64::from(id.0)),
    }
}

/// Builds the monitor-facing exit record. Unstitched exits are rare
/// relative to dispatched instructions, so keep the construction (and the
/// return-path register shuffle it forces) out of the dispatch loop. This
/// is the **only** place a [`TraceExit`] is constructed.
#[cold]
#[inline(never)]
fn trace_exit(fragment: u32, exit: u16, insts: u64, dispatched: u64, iterations: u64) -> TraceExit {
    TraceExit { fragment, exit, insts, dispatched, iterations }
}

/// A trace tree in the decoded executor's dispatch form: each fragment
/// decoded ([`crate::peephole::decode`]) and fused or not. Built when the
/// tree first runs decoded and grown by every branch install, the way the
/// native tier's [`crate::NativeTree`] is.
#[derive(Debug, Clone, Default)]
pub struct DecodedTree {
    fragments: Vec<Decoded>,
}

impl DecodedTree {
    /// Grows the tree to cover `fragments`: decodes the ones it does not
    /// have yet (fused when `fuse`, the fusion checked when `verify`) and
    /// takes every fragment's exit table over, so stitches added since
    /// the last call are followed. Returns the newly decoded fragments.
    ///
    /// # Panics
    ///
    /// With `verify`, on a fusion defect ([`crate::peephole::decode`]).
    pub fn append(&mut self, fragments: &[Fragment], fuse: bool, verify: bool) -> &[Decoded] {
        let first = self.fragments.len();
        for (d, f) in self.fragments.iter_mut().zip(fragments) {
            d.stitch.clone_from(&f.stitch);
        }
        self.fragments.extend(fragments[first..].iter().map(|f| decode(f, fuse, verify)));
        &self.fragments[first..]
    }

    /// Executes the tree from its trunk, fragment 0, and any fragments
    /// reachable through stitched exits and loop-backs, until an
    /// unstitched exit is taken.
    ///
    /// `ar` is the trace activation record: unboxed words per the tree's
    /// slot layout, already populated by the monitor.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`]s raised by helper calls; such errors
    /// abort the whole guest program (the interpreter state cannot be
    /// reconstructed mid-trace, and the error terminates execution
    /// anyway).
    #[allow(clippy::too_many_lines)]
    pub fn execute(
        &self,
        ar: &mut [u64],
        realm: &mut Realm,
        host: &mut dyn TreeHost,
        fuel: u64,
    ) -> Result<TraceExit, RuntimeError> {
        use MachInst::*;
        // The current fragment's code, exit positions and exit table,
        // hoisted out of the dispatch loop and refreshed only on fragment
        // switch.
        let fragments = &self.fragments;
        let trunk = &fragments[0];
        let mut frag_idx = 0u32;
        let mut code: &[Op] = &trunk.code;
        let mut at: &[u32] = &trunk.at;
        let mut raw_len = u64::from(trunk.raw_len);
        let mut stitch: &[u32] = &trunk.stitch;
        let mut pc = 0usize;
        // NREGS rounded up to a power of two so masked indexing elides
        // bounds checks in the hot dispatch loop.
        let mut regs = [0u64; REG_FILE_WORDS];
        let mut spill: Vec<u64> = vec![0; trunk.num_spills as usize];
        // Counted when a fragment is left, not per dispatch: how many ops
        // and raw instructions a pass through a fragment executed follows
        // from where it left (`pc`, `at`).
        let mut insts: u64 = 0;
        let mut dispatched: u64 = 0;
        let mut iterations: u64 = 0;
        // Allocated by the first `CallHelper`, if there is one; any width
        // (the native tier caps a call at `MAX_HELPER_ARGS`, this one
        // serves the rest).
        let mut helper_args: Vec<u64> = Vec::new();

        // Fragment switch: a stitched exit, the loop edge.
        macro_rules! enter {
            ($idx:expr) => {{
                frag_idx = $idx;
                let frag = &fragments[frag_idx as usize];
                code = &frag.code;
                at = &frag.at;
                raw_len = u64::from(frag.raw_len);
                stitch = &frag.stitch;
                if spill.len() < frag.num_spills as usize {
                    spill.resize(frag.num_spills as usize, 0);
                }
                pc = 0;
            }};
        }

        // Leaves the fragment through exit `e`, its counts already taken.
        macro_rules! leave {
            ($exit:expr) => {{
                let e = $exit;
                let target = stitch[e as usize];
                if target == EXIT_UNSTITCHED {
                    return Ok(trace_exit(frag_idx, e, insts, dispatched, iterations));
                }
                // Trace stitching fast path: continue in the branch
                // fragment (resolved to a fragment index at link time)
                // without leaving the dispatch loop.
                enter!(target);
                continue;
            }};
        }

        // A side exit of the op just dispatched.
        macro_rules! take_exit {
            ($exit:expr) => {{
                insts += u64::from(at[pc - 1]);
                dispatched += pc as u64;
                leave!($exit)
            }};
        }

        // The loop edge (raw `LoopBack` and the fused loop-edge ops): the
        // whole fragment retired, preemption flag guard at every crossing
        // (§6.4), the deferred-GC safe point, then back to the tree anchor
        // (fragment 0, pc 0).
        macro_rules! loop_edge {
            ($exit:expr) => {{
                insts += raw_len;
                dispatched += pc as u64;
                iterations += 1;
                if realm.interrupt || realm.heap.gc_pending || insts >= fuel {
                    leave!($exit);
                }
                enter!(0);
            }};
        }

        // Raw instructions dispatch in the inner loop, superinstructions
        // in the outer one: one jump table per op either way (a match
        // through `Op::Raw` into `MachInst` would jump twice).
        loop {
            while let Op::Raw(inst) = &code[pc] {
                pc += 1;
                match *inst {
                    ConstW { d, w } => regs[r(d)] = w,
                    Mov { d, s } => regs[r(d)] = regs[r(s)],
                    LoadSpill { d, slot } => regs[r(d)] = spill[slot as usize],
                    StoreSpill { slot, s } => spill[slot as usize] = regs[r(s)],
                    ReadAr { d, slot } => regs[r(d)] = ar[slot as usize],
                    WriteAr { slot, s } => ar[slot as usize] = regs[r(s)],

                    AluI { op, d, a, b } => {
                        regs[r(d)] =
                            i64::from(op.eval(i32_from_word(regs[r(a)]), i32_from_word(regs[r(b)])))
                                as u64;
                    }
                    NotI { d, a } => {
                        regs[r(d)] = i64::from(!i32_from_word(regs[r(a)])) as u64;
                    }
                    NegI { d, a } => {
                        regs[r(d)] = i64::from(i32_from_word(regs[r(a)]).wrapping_neg()) as u64;
                    }

                    ChkAluI { op, d, a, b, exit } => {
                        match op.eval(i32_from_word(regs[r(a)]), i32_from_word(regs[r(b)])) {
                            Some(res) => regs[r(d)] = res as u64,
                            None => take_exit!(exit),
                        }
                    }
                    NegIChk { d, a, exit } => {
                        let x = i64::from(i32_from_word(regs[r(a)]));
                        let res = -x;
                        if x == 0 || !fits_i31(res) {
                            take_exit!(exit);
                        }
                        regs[r(d)] = res as u64;
                    }
                    ModIChk { d, a, b, exit } => {
                        let x = i32_from_word(regs[r(a)]);
                        let y = i32_from_word(regs[r(b)]);
                        if y == 0 {
                            take_exit!(exit);
                        }
                        let res = x.wrapping_rem(y);
                        if res == 0 && x < 0 {
                            take_exit!(exit);
                        }
                        regs[r(d)] = i64::from(res) as u64;
                    }

                    AluD { op, d, a, b } => {
                        regs[r(d)] =
                            word_from_f64(op.eval(f64_from_word(regs[r(a)]), f64_from_word(regs[r(b)])));
                    }
                    NegD { d, a } => {
                        regs[r(d)] = word_from_f64(-f64_from_word(regs[r(a)]));
                    }

                    CmpI { op, d, a, b } => {
                        regs[r(d)] =
                            u64::from(op.eval(i32_from_word(regs[r(a)]), i32_from_word(regs[r(b)])));
                    }
                    CmpD { op, d, a, b } => {
                        regs[r(d)] =
                            u64::from(op.eval(f64_from_word(regs[r(a)]), f64_from_word(regs[r(b)])));
                    }
                    NotB { d, a } => {
                        regs[r(d)] = u64::from(regs[r(a)] == 0);
                    }

                    I2D { d, a } => {
                        regs[r(d)] = word_from_f64(f64::from(i32_from_word(regs[r(a)])));
                    }
                    U2D { d, a } => {
                        regs[r(d)] = word_from_f64(f64::from(i32_from_word(regs[r(a)]) as u32));
                    }
                    D2IChk { d, a, exit } => {
                        let x = f64_from_word(regs[r(a)]);
                        if x.fract() != 0.0
                            || !fits_i31(x as i64)
                            || x.is_nan()
                            || (x == 0.0 && x.is_sign_negative())
                        {
                            take_exit!(exit);
                        }
                        regs[r(d)] = i64::from(x as i32) as u64;
                    }
                    D2I32 { d, a } => {
                        regs[r(d)] =
                            i64::from(tm_runtime::ops::double_to_int32(f64_from_word(regs[r(a)])))
                                as u64;
                    }

                    ChkRangeI { d, a, exit } => {
                        let x = i64::from(i32_from_word(regs[r(a)]));
                        if !fits_i31(x) {
                            take_exit!(exit);
                        }
                        regs[r(d)] = x as u64;
                    }
                    Box { tag, d, a } => regs[r(d)] = box_word(realm, tag, regs[r(a)]),
                    Unbox { tag, d, a, exit } => match unbox_word(realm, tag, regs[r(a)]) {
                        Some(w) => regs[r(d)] = w,
                        None => take_exit!(exit),
                    },
                    UnboxNumD { d, a, exit } => {
                        let v = Value::from_raw(regs[r(a)]);
                        match realm.heap.number_value(v) {
                            Some(x) => regs[r(d)] = word_from_f64(x),
                            None => take_exit!(exit),
                        }
                    }

                    GuardTrue { s, exit } => {
                        if regs[r(s)] == 0 {
                            take_exit!(exit);
                        }
                    }
                    GuardFalse { s, exit } => {
                        if regs[r(s)] != 0 {
                            take_exit!(exit);
                        }
                    }
                    GuardShape { obj, shape, exit } => {
                        if heap_ops::shape_of(realm, regs[r(obj)]) != u64::from(shape) {
                            take_exit!(exit);
                        }
                    }
                    GuardClass { obj, class, exit } => {
                        if heap_ops::class_of(realm, regs[r(obj)]) != u64::from(class) {
                            take_exit!(exit);
                        }
                    }
                    GuardBoxedEq { s, w, exit } => {
                        if regs[r(s)] != w {
                            take_exit!(exit);
                        }
                    }
                    GuardBound { arr, idx, exit } => {
                        let i = i32_from_word(regs[r(idx)]);
                        if i < 0 || i as u64 >= heap_ops::elems_len(realm, regs[r(arr)]) {
                            take_exit!(exit);
                        }
                    }

                    LoadSlot { d, o, slot } => {
                        regs[r(d)] = heap_ops::load_slot(realm, regs[r(o)], u64::from(slot));
                    }
                    StoreSlot { o, slot, s } => {
                        heap_ops::store_slot(realm, regs[r(o)], u64::from(slot), regs[r(s)]);
                    }
                    LoadProto { d, o } => {
                        regs[r(d)] = heap_ops::load_proto(realm, regs[r(o)]);
                    }
                    LoadElem { d, a, i } => {
                        regs[r(d)] = heap_ops::load_elem(realm, regs[r(a)], i32_from_word(regs[r(i)]));
                    }
                    StoreElem { a, i, s } => {
                        heap_ops::store_elem(realm, regs[r(a)], i32_from_word(regs[r(i)]), regs[r(s)]);
                    }
                    ArrayLen { d, a } => {
                        regs[r(d)] = heap_ops::array_len(realm, regs[r(a)]);
                    }
                    StrLen { d, a } => {
                        regs[r(d)] = heap_ops::str_len(realm, regs[r(a)]);
                    }

                    CallHelper { d, helper, ref args, exit } => {
                        helper_args.clear();
                        helper_args.extend(args.iter().map(|&s| regs[r(s)]));
                        let result = call_helper(realm, helper, &helper_args)?;
                        regs[r(d)] = result;
                        if realm.reentered_during_trace {
                            // §6.5: a reentrant external call forces the trace
                            // to exit immediately after the call returns.
                            realm.reentered_during_trace = false;
                            take_exit!(exit);
                        }
                    }
                    CallTree { tree, exit } => {
                        if !host.call_tree(tree, ar, realm)? {
                            take_exit!(exit);
                        }
                    }
                    LoopBack { exit } => loop_edge!(exit),
                    End { exit } => take_exit!(exit),
                }
            }
            let op = &code[pc];
            pc += 1;
            match *op {
                Op::Raw(_) => unreachable!("raw instructions dispatch above"),
                // ----- superinstructions ([`crate::peephole`]) -----
                Op::CmpBranchI { op, want, a, b, exit } => {
                    if op.eval(i32_from_word(regs[r(a)]), i32_from_word(regs[r(b)])) != want {
                        take_exit!(exit);
                    }
                }
                Op::CmpBranchD { op, want, a, b, exit } => {
                    if op.eval(f64_from_word(regs[r(a)]), f64_from_word(regs[r(b)])) != want {
                        take_exit!(exit);
                    }
                }
                Op::CmpBranchLoopI { op, want, a, b, exit, loop_exit } => {
                    if op.eval(i32_from_word(regs[r(a)]), i32_from_word(regs[r(b)])) != want {
                        take_exit!(exit);
                    }
                    loop_edge!(loop_exit);
                }
                Op::CmpBranchLoopD { op, want, a, b, exit, loop_exit } => {
                    if op.eval(f64_from_word(regs[r(a)]), f64_from_word(regs[r(b)])) != want {
                        take_exit!(exit);
                    }
                    loop_edge!(loop_exit);
                }
                Op::AluImmI { op, d, a, imm } => {
                    regs[r(d)] = i64::from(op.eval(i32_from_word(regs[r(a)]), imm)) as u64;
                }
                Op::AluArI { op, d, slot, b } => {
                    let x = i32_from_word(ar[slot as usize]);
                    regs[r(d)] = i64::from(op.eval(x, i32_from_word(regs[r(b)]))) as u64;
                }
                Op::AluWrI { op, d, a, b, slot } => {
                    let v =
                        i64::from(op.eval(i32_from_word(regs[r(a)]), i32_from_word(regs[r(b)])))
                            as u64;
                    regs[r(d)] = v;
                    ar[slot as usize] = v;
                }
                Op::AluImmWrI { op, d, a, imm, slot } => {
                    let v = i64::from(op.eval(i32_from_word(regs[r(a)]), imm)) as u64;
                    regs[r(d)] = v;
                    ar[slot as usize] = v;
                }
                Op::ChkAluImmI { op, d, a, imm, exit } => {
                    match op.eval(i32_from_word(regs[r(a)]), imm) {
                        Some(res) => regs[r(d)] = res as u64,
                        None => take_exit!(exit),
                    }
                }
                Op::ChkAluWrI { op, d, a, b, exit, slot } => {
                    match op.eval(i32_from_word(regs[r(a)]), i32_from_word(regs[r(b)])) {
                        Some(res) => {
                            regs[r(d)] = res as u64;
                            ar[slot as usize] = res as u64;
                        }
                        None => take_exit!(exit),
                    }
                }
                Op::ChkAluImmWrI { op, d, a, imm, exit, slot } => {
                    match op.eval(i32_from_word(regs[r(a)]), imm) {
                        Some(res) => {
                            regs[r(d)] = res as u64;
                            ar[slot as usize] = res as u64;
                        }
                        None => take_exit!(exit),
                    }
                }
                Op::ChkAluImmWrLoopI { op, d, a, imm, slot, exit, loop_exit } => {
                    match op.eval(i32_from_word(regs[r(a)]), imm) {
                        Some(res) => {
                            regs[r(d)] = res as u64;
                            ar[slot as usize] = res as u64;
                        }
                        None => take_exit!(exit),
                    }
                    loop_edge!(loop_exit);
                }
                Op::ConstWrAr { d, w, slot } => {
                    regs[r(d)] = w;
                    ar[slot as usize] = w;
                }
                Op::MovAr { d, src, dst } => {
                    let v = ar[src as usize];
                    regs[r(d)] = v;
                    ar[dst as usize] = v;
                }
                Op::WriteAr2 { slot_a, s_a, slot_b, s_b } => {
                    ar[slot_a as usize] = regs[r(s_a)];
                    ar[slot_b as usize] = regs[r(s_b)];
                }
                Op::WriteAr3 { slot_a, s_a, slot_b, s_b, slot_c, s_c } => {
                    ar[slot_a as usize] = regs[r(s_a)];
                    ar[slot_b as usize] = regs[r(s_b)];
                    ar[slot_c as usize] = regs[r(s_c)];
                }
                Op::AluArWrI { op, d, slot_a, b, slot_d } => {
                    let x = i32_from_word(ar[slot_a as usize]);
                    let v = i64::from(op.eval(x, i32_from_word(regs[r(b)]))) as u64;
                    regs[r(d)] = v;
                    ar[slot_d as usize] = v;
                }
                Op::CmpImmI { op, d, a, imm } => {
                    regs[r(d)] = u64::from(op.eval(i32_from_word(regs[r(a)]), imm));
                }
                Op::CmpWrI { op, d, a, b, slot } => {
                    let v =
                        u64::from(op.eval(i32_from_word(regs[r(a)]), i32_from_word(regs[r(b)])));
                    regs[r(d)] = v;
                    ar[slot as usize] = v;
                }
                Op::CmpWrD { op, d, a, b, slot } => {
                    let v =
                        u64::from(op.eval(f64_from_word(regs[r(a)]), f64_from_word(regs[r(b)])));
                    regs[r(d)] = v;
                    ar[slot as usize] = v;
                }
                Op::CmpImmWrI { op, d, a, imm, slot } => {
                    let v = u64::from(op.eval(i32_from_word(regs[r(a)]), imm));
                    regs[r(d)] = v;
                    ar[slot as usize] = v;
                }
                Op::CmpBranchImmI { op, want, a, imm, exit } => {
                    if op.eval(i32_from_word(regs[r(a)]), imm) != want {
                        take_exit!(exit);
                    }
                }
                // The Wr-branch forms write the register and the AR slot
                // *before* the exit check, matching the raw order (a
                // failing exit must see the stored condition).
                Op::CmpWrBranchI { op, want, d, a, b, slot, exit } => {
                    let c = op.eval(i32_from_word(regs[r(a)]), i32_from_word(regs[r(b)]));
                    regs[r(d)] = u64::from(c);
                    ar[slot as usize] = u64::from(c);
                    if c != want {
                        take_exit!(exit);
                    }
                }
                Op::CmpWrBranchD { op, want, d, a, b, slot, exit } => {
                    let c = op.eval(f64_from_word(regs[r(a)]), f64_from_word(regs[r(b)]));
                    regs[r(d)] = u64::from(c);
                    ar[slot as usize] = u64::from(c);
                    if c != want {
                        take_exit!(exit);
                    }
                }
                Op::CmpImmWrBranchI { op, want, d, a, imm, slot, exit } => {
                    let c = op.eval(i32_from_word(regs[r(a)]), imm);
                    regs[r(d)] = u64::from(c);
                    ar[slot as usize] = u64::from(c);
                    if c != want {
                        take_exit!(exit);
                    }
                }
            }
        }
    }
}

/// Runs the tree `fragments` unfused on the decoded executor: the
/// reference semantics of the raw ISA ([`DecodedTree::execute`]).
///
/// # Errors
///
/// As [`DecodedTree::execute`].
pub fn execute(
    fragments: &[Fragment],
    ar: &mut [u64],
    realm: &mut Realm,
    host: &mut dyn TreeHost,
    fuel: u64,
) -> Result<TraceExit, RuntimeError> {
    let mut tree = DecodedTree::default();
    tree.append(fragments, false, false);
    tree.execute(ar, realm, host, fuel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembler::assemble;
    use tm_lir::{AluOp, ChkOp, CmpOp, FOp, FilterOptions, Lir, LirBuffer, LirType};

    /// Builds the classic counting loop: slot0 += 1 until slot0 >= slot1.
    fn counting_tree() -> Vec<Fragment> {
        let mut b = LirBuffer::new(FilterOptions::default());
        let i = b.emit(Lir::Import { slot: 0, ty: LirType::Int });
        let limit = b.emit(Lir::Import { slot: 1, ty: LirType::Int });
        let one = b.emit(Lir::ConstI(1));
        let e_ovf = b.alloc_exit();
        let next = b.emit(Lir::ChkAluI(ChkOp::Add, i, one, e_ovf));
        b.emit(Lir::WriteAr { slot: 0, v: next });
        let cond = b.emit(Lir::CmpI(CmpOp::Lt, next, limit));
        let e_done = b.alloc_exit();
        b.emit(Lir::GuardTrue(cond, e_done));
        let e_loop = b.alloc_exit();
        b.emit(Lir::LoopBack(e_loop));
        vec![assemble(b.trace())]
    }

    /// Runs `frags` fused, from a fresh realm.
    fn run_fused(frags: &[Fragment], ar: &mut [u64]) -> TraceExit {
        let mut tree = DecodedTree::default();
        tree.append(frags, true, true);
        tree.execute(ar, &mut Realm::new(), &mut NoNesting, u64::MAX).unwrap()
    }

    #[test]
    fn loop_executes_to_exit() {
        let frags = counting_tree();
        let mut realm = Realm::new();
        let mut ar = vec![0u64, 100u64];
        let exit = execute(&frags, &mut ar, &mut realm, &mut NoNesting, u64::MAX).unwrap();
        assert_eq!(exit.exit, 1, "loop-done guard exit");
        assert_eq!(ar[0] as i64, 100);
        assert_eq!(exit.iterations, 99);
        assert!(exit.insts > 300, "about 7 insts x 100 iterations");
    }

    #[test]
    fn overflow_guard_exits() {
        // An unconditional increment loop: the only way out is the
        // 31-bit overflow guard (§3.1's integer overflow speculation).
        let mut b = LirBuffer::new(FilterOptions::default());
        let i = b.emit(Lir::Import { slot: 0, ty: LirType::Int });
        let one = b.emit(Lir::ConstI(1));
        let e_ovf = b.alloc_exit();
        let next = b.emit(Lir::ChkAluI(ChkOp::Add, i, one, e_ovf));
        b.emit(Lir::WriteAr { slot: 0, v: next });
        let e_loop = b.alloc_exit();
        b.emit(Lir::LoopBack(e_loop));
        let frags = vec![assemble(b.trace())];

        let mut realm = Realm::new();
        let start = INT_MAX - 5;
        let mut ar = vec![start as u64];
        let exit = execute(&frags, &mut ar, &mut realm, &mut NoNesting, u64::MAX).unwrap();
        assert_eq!(exit.exit, 0, "overflow guard exit");
        // The AR still holds the last in-range value.
        assert_eq!(ar[0] as i64, INT_MAX);
        assert_eq!(exit.iterations, 5);
    }

    #[test]
    fn preemption_exits_at_loop_edge() {
        let frags = counting_tree();
        let mut realm = Realm::new();
        realm.interrupt = true;
        let mut ar = vec![0u64, 1000u64];
        let exit = execute(&frags, &mut ar, &mut realm, &mut NoNesting, u64::MAX).unwrap();
        assert_eq!(exit.exit, 2, "interrupt takes the loop-edge exit");
        assert_eq!(exit.iterations, 1);
    }

    #[test]
    fn trace_stitching_transfers_to_branch_fragment() {
        // Trunk: guard slot0 < 10 else exit0; slot0 += 1; loop.
        let mut b = LirBuffer::new(FilterOptions::default());
        let i = b.emit(Lir::Import { slot: 0, ty: LirType::Int });
        let ten = b.emit(Lir::ConstI(10));
        let cond = b.emit(Lir::CmpI(CmpOp::Lt, i, ten));
        let e_branch = b.alloc_exit();
        b.emit(Lir::GuardTrue(cond, e_branch));
        let one = b.emit(Lir::ConstI(1));
        let e_ovf = b.alloc_exit();
        let next = b.emit(Lir::ChkAluI(ChkOp::Add, i, one, e_ovf));
        b.emit(Lir::WriteAr { slot: 0, v: next });
        let e_loop = b.alloc_exit();
        b.emit(Lir::LoopBack(e_loop));
        let mut trunk = assemble(b.trace());

        // Branch (taken when slot0 >= 10): slot1 = slot0 * 2; end.
        let mut b2 = LirBuffer::new(FilterOptions::default());
        let i2 = b2.emit(Lir::Import { slot: 0, ty: LirType::Int });
        let two = b2.emit(Lir::ConstI(2));
        let e2 = b2.alloc_exit();
        let dbl = b2.emit(Lir::ChkAluI(ChkOp::Mul, i2, two, e2));
        b2.emit(Lir::WriteAr { slot: 1, v: dbl });
        let e_end = b2.alloc_exit();
        b2.emit(Lir::End(e_end));
        let branch = assemble(b2.trace());

        // Stitch trunk exit 0 to the branch fragment.
        trunk.stitch_exit(0, 1);
        let frags = vec![trunk, branch];

        let mut realm = Realm::new();
        let mut ar = vec![0u64, 0u64];
        let exit = execute(&frags, &mut ar, &mut realm, &mut NoNesting, u64::MAX).unwrap();
        assert_eq!(exit.fragment, 1, "ended in the branch fragment");
        assert_eq!(exit.exit, 1, "the branch's End exit");
        assert_eq!(ar[0] as i64, 10);
        assert_eq!(ar[1] as i64, 20);
    }

    #[test]
    fn double_loop_with_boxing() {
        // slot0 (double) += 0.5 until >= slot1 (double).
        let mut b = LirBuffer::new(FilterOptions::default());
        let x = b.emit(Lir::Import { slot: 0, ty: LirType::Double });
        let limit = b.emit(Lir::Import { slot: 1, ty: LirType::Double });
        let half = b.emit(Lir::ConstD(0.5f64.to_bits()));
        let next = b.emit(Lir::AluD(FOp::Add, x, half));
        b.emit(Lir::WriteAr { slot: 0, v: next });
        let cond = b.emit(Lir::CmpD(CmpOp::Lt, next, limit));
        let e_done = b.alloc_exit();
        b.emit(Lir::GuardTrue(cond, e_done));
        let e_loop = b.alloc_exit();
        b.emit(Lir::LoopBack(e_loop));
        let frags = vec![assemble(b.trace())];
        let mut realm = Realm::new();
        let mut ar = vec![0.0f64.to_bits(), 10.0f64.to_bits()];
        let exit = execute(&frags, &mut ar, &mut realm, &mut NoNesting, u64::MAX).unwrap();
        assert_eq!(exit.exit, 0);
        assert_eq!(f64::from_bits(ar[0]), 10.0);
    }

    #[test]
    fn helper_call_from_trace() {
        // slot1 = sqrt(slot0) via the Sqrt helper; end.
        let mut b = LirBuffer::new(FilterOptions::default());
        let x = b.emit(Lir::Import { slot: 0, ty: LirType::Double });
        let e = b.alloc_exit();
        let r = b.emit(Lir::Call {
            helper: tm_runtime::Helper::Sqrt,
            args: vec![x].into_boxed_slice(),
            ret: LirType::Double,
            exit: e,
        });
        b.emit(Lir::WriteAr { slot: 1, v: r });
        let e_end = b.alloc_exit();
        b.emit(Lir::End(e_end));
        let frags = vec![assemble(b.trace())];
        let mut realm = Realm::new();
        let mut ar = vec![81.0f64.to_bits(), 0];
        let exit = execute(&frags, &mut ar, &mut realm, &mut NoNesting, u64::MAX).unwrap();
        assert_eq!(exit.exit, 1);
        assert_eq!(f64::from_bits(ar[1]), 9.0);
    }

    #[test]
    fn unbox_guard_takes_exit_on_wrong_tag() {
        let mut b = LirBuffer::new(FilterOptions::default());
        let v = b.emit(Lir::Import { slot: 0, ty: LirType::Boxed });
        let e_tag = b.alloc_exit();
        let i = b.emit(Lir::Unbox(Tag::Int, v, e_tag));
        b.emit(Lir::WriteAr { slot: 1, v: i });
        let e_end = b.alloc_exit();
        b.emit(Lir::End(e_end));
        let frags = vec![assemble(b.trace())];
        let mut realm = Realm::new();
        // An int-tagged word unboxes fine.
        let mut ar = vec![Value::new_int(5).raw(), 0];
        let exit = execute(&frags, &mut ar, &mut realm, &mut NoNesting, u64::MAX).unwrap();
        assert_eq!(exit.exit, 1);
        assert_eq!(ar[1] as i64, 5);
        // A string-tagged word takes the type guard exit.
        let s = realm.heap.alloc_string("x");
        let mut ar = vec![s.raw(), 0];
        let exit = execute(&frags, &mut ar, &mut realm, &mut NoNesting, u64::MAX).unwrap();
        assert_eq!(exit.exit, 0);
    }

    #[test]
    fn array_element_access() {
        // slot1 = arr[slot0-as-int] with bounds guard.
        let mut b = LirBuffer::new(FilterOptions::default());
        let arr = b.emit(Lir::Import { slot: 0, ty: LirType::Object });
        let idx = b.emit(Lir::Import { slot: 1, ty: LirType::Int });
        let e_bound = b.alloc_exit();
        b.emit(Lir::GuardBound { arr, idx, exit: e_bound });
        let v = b.emit(Lir::LoadElem(arr, idx));
        b.emit(Lir::WriteAr { slot: 2, v });
        let e_end = b.alloc_exit();
        b.emit(Lir::End(e_end));
        let frags = vec![assemble(b.trace())];
        let mut realm = Realm::new();
        let a = realm.new_array(3);
        realm.heap.object_mut(a).set_element(2, Value::new_int(42));
        let mut ar = vec![u64::from(a.0), 2, 0];
        let exit = execute(&frags, &mut ar, &mut realm, &mut NoNesting, u64::MAX).unwrap();
        assert_eq!(exit.exit, 1);
        assert_eq!(Value::from_raw(ar[2]).as_int(), Some(42));
        // Out of bounds takes the guard exit.
        let mut ar = vec![u64::from(a.0), 7, 0];
        let exit = execute(&frags, &mut ar, &mut realm, &mut NoNesting, u64::MAX).unwrap();
        assert_eq!(exit.exit, 0);
    }

    #[test]
    fn fused_counting_loop_same_result_fewer_dispatches() {
        let raw = counting_tree();
        let mut realm = Realm::new();
        let mut ar = vec![0u64, 100u64];
        let raw_exit = execute(&raw, &mut ar, &mut realm, &mut NoNesting, u64::MAX).unwrap();
        let mut ar2 = vec![0u64, 100u64];
        let fused_exit = run_fused(&raw, &mut ar2);

        assert_eq!(ar2, ar, "fusion must preserve the activation record");
        assert_eq!(raw_exit.dispatched, raw_exit.insts, "raw code dispatches every instruction");
        assert_eq!(
            TraceExit { dispatched: raw_exit.dispatched, ..fused_exit },
            raw_exit,
            "fused code retires the same raw instructions, exits included"
        );
        assert!(
            fused_exit.dispatched * 2 <= raw_exit.dispatched + 8,
            "counting loop should dispatch about half the instructions \
             (raw {} vs fused {})",
            raw_exit.dispatched,
            fused_exit.dispatched
        );
    }

    /// The step budget runs out at the same loop edge whether the tree
    /// runs fused or not: both charge raw instructions retired.
    #[test]
    fn fuel_runs_out_at_the_same_loop_edge_fused_or_not() {
        let raw = counting_tree();
        let mut tree = DecodedTree::default();
        tree.append(&raw, true, true);
        for fuel in [1, 20, 21, 77] {
            let mut ar = vec![0u64, 1000u64];
            let plain = execute(&raw, &mut ar, &mut Realm::new(), &mut NoNesting, fuel).unwrap();
            let mut ar2 = vec![0u64, 1000u64];
            let fused = tree.execute(&mut ar2, &mut Realm::new(), &mut NoNesting, fuel).unwrap();
            assert_eq!((fused.insts, fused.iterations), (plain.insts, plain.iterations));
            assert_eq!(ar2, ar);
            assert!(plain.insts >= fuel && plain.insts < fuel + 8, "{fuel}: {plain:?}");
        }
    }

    #[test]
    fn spill_store_reload_round_trip_executes_correctly() {
        // More live values than registers: the allocator must spill, and
        // the executed result must still be the exact sum.
        let mut b = LirBuffer::new(FilterOptions { cse: false, fold: false, ..Default::default() });
        let n = crate::machinst::NREGS + 8;
        let vals: Vec<_> = (0..n)
            .map(|i| b.emit(Lir::Import { slot: i as u16, ty: LirType::Int }))
            .collect();
        // Consume in reverse so early values must be reloaded from spill.
        let mut acc = vals[n - 1];
        for &v in vals.iter().rev().skip(1) {
            acc = b.emit(Lir::AluI(AluOp::Add, acc, v));
        }
        b.emit(Lir::WriteAr { slot: 0, v: acc });
        let e_end = b.alloc_exit();
        b.emit(Lir::End(e_end));
        let raw = assemble(b.trace());
        assert!(raw.num_spills > 0, "test requires spill traffic");

        let expected: i64 = (1..=n as i64).sum();
        let frags = [raw];
        let mut ar: Vec<u64> = (1..=n as u64).collect();
        let exit = execute(&frags, &mut ar, &mut Realm::new(), &mut NoNesting, u64::MAX).unwrap();
        assert_eq!((exit.exit, ar[0] as i64), (0, expected));
        let mut ar: Vec<u64> = (1..=n as u64).collect();
        assert_eq!((run_fused(&frags, &mut ar).exit, ar[0] as i64), (0, expected));
    }

    #[test]
    fn i31_overflow_guard_boundary_values() {
        assert!(fits_i31(INT_MAX as i64));
        assert!(!fits_i31(INT_MAX as i64 + 1));
        assert!(fits_i31(INT_MIN as i64));
        assert!(!fits_i31(INT_MIN as i64 - 1));

        // slot0 += 1 with overflow check, then end.
        let mut b = LirBuffer::new(FilterOptions::default());
        let x = b.emit(Lir::Import { slot: 0, ty: LirType::Int });
        let one = b.emit(Lir::ConstI(1));
        let e_ovf = b.alloc_exit();
        let next = b.emit(Lir::ChkAluI(ChkOp::Add, x, one, e_ovf));
        b.emit(Lir::WriteAr { slot: 0, v: next });
        let e_end = b.alloc_exit();
        b.emit(Lir::End(e_end));
        let frags = vec![assemble(b.trace())];
        let run = |fused, ar: &mut [u64]| {
            let mut tree = DecodedTree::default();
            tree.append(&frags, fused, true);
            tree.execute(ar, &mut Realm::new(), &mut NoNesting, u64::MAX).unwrap()
        };
        for fused in [false, true] {
            // INT_MAX - 1 + 1 == INT_MAX: still in range.
            let mut ar = vec![(INT_MAX - 1) as u64];
            assert_eq!(run(fused, &mut ar).exit, 1);
            assert_eq!(ar[0] as i64, i64::from(INT_MAX));
            // INT_MAX + 1: exactly one past the boundary takes the guard.
            let mut ar = vec![INT_MAX as u64];
            assert_eq!(run(fused, &mut ar).exit, 0, "overflow guard fires exactly at the boundary");
            assert_eq!(ar[0] as i64, i64::from(INT_MAX), "AR unchanged on guard exit");
        }

        // slot0 -= 1 checked: underflow boundary.
        let mut b = LirBuffer::new(FilterOptions::default());
        let x = b.emit(Lir::Import { slot: 0, ty: LirType::Int });
        let one = b.emit(Lir::ConstI(1));
        let e_ovf = b.alloc_exit();
        let next = b.emit(Lir::ChkAluI(ChkOp::Sub, x, one, e_ovf));
        b.emit(Lir::WriteAr { slot: 0, v: next });
        let e_end = b.alloc_exit();
        b.emit(Lir::End(e_end));
        let frags = vec![assemble(b.trace())];
        let mut ar = vec![INT_MIN as i64 as u64];
        let exit = execute(&frags, &mut ar, &mut Realm::new(), &mut NoNesting, u64::MAX).unwrap();
        assert_eq!(exit.exit, 0, "underflow guard fires exactly at the boundary");
        let mut ar = vec![INT_MIN as i64 as u64];
        assert_eq!(run_fused(&frags, &mut ar).exit, 0, "and fused");
    }

    #[test]
    fn stitched_exit_transfers_values_through_ar_when_fused() {
        // Same shape as trace_stitching_transfers_to_branch_fragment, but
        // both fragments run fused: the stitched transfer must still see
        // every trunk WriteAr in the AR.
        let mut b = LirBuffer::new(FilterOptions::default());
        let i = b.emit(Lir::Import { slot: 0, ty: LirType::Int });
        let ten = b.emit(Lir::ConstI(10));
        let cond = b.emit(Lir::CmpI(CmpOp::Lt, i, ten));
        let e_branch = b.alloc_exit();
        b.emit(Lir::GuardTrue(cond, e_branch));
        let one = b.emit(Lir::ConstI(1));
        let e_ovf = b.alloc_exit();
        let next = b.emit(Lir::ChkAluI(ChkOp::Add, i, one, e_ovf));
        b.emit(Lir::WriteAr { slot: 0, v: next });
        let e_loop = b.alloc_exit();
        b.emit(Lir::LoopBack(e_loop));
        let mut trunk = assemble(b.trace());

        let mut b2 = LirBuffer::new(FilterOptions::default());
        let i2 = b2.emit(Lir::Import { slot: 0, ty: LirType::Int });
        let two = b2.emit(Lir::ConstI(2));
        let e2 = b2.alloc_exit();
        let dbl = b2.emit(Lir::ChkAluI(ChkOp::Mul, i2, two, e2));
        b2.emit(Lir::WriteAr { slot: 1, v: dbl });
        let e_end = b2.alloc_exit();
        b2.emit(Lir::End(e_end));
        let branch = assemble(b2.trace());

        trunk.stitch_exit(0, 1);
        let mut ar = vec![0u64, 0u64];
        let exit = run_fused(&[trunk, branch], &mut ar);
        assert_eq!(exit.fragment, 1);
        assert_eq!(exit.exit, 1);
        assert_eq!(ar[0] as i64, 10, "trunk's final WriteAr visible across the stitch");
        assert_eq!(ar[1] as i64, 20, "branch computed from the transferred value");
    }

    #[test]
    fn call_tree_false_takes_the_attached_exit() {
        struct Scripted(bool);
        impl TreeHost for Scripted {
            fn call_tree(
                &mut self,
                _tree: u32,
                ar: &mut [u64],
                _realm: &mut Realm,
            ) -> Result<bool, RuntimeError> {
                ar[1] = 7;
                Ok(self.0)
            }
        }

        let mut b = LirBuffer::new(FilterOptions::default());
        let e_nest = b.alloc_exit();
        b.emit(Lir::CallTree { tree: 3, exit: e_nest });
        let x = b.emit(Lir::Import { slot: 1, ty: LirType::Int });
        b.emit(Lir::WriteAr { slot: 0, v: x });
        let e_end = b.alloc_exit();
        b.emit(Lir::End(e_end));
        let frags = vec![assemble(b.trace())];

        // Ok(false): the nesting guard fails — the outer trace must take
        // the CallTree's side exit without running the rest.
        let mut realm = Realm::new();
        let mut ar = vec![0u64, 0u64];
        let exit = execute(&frags, &mut ar, &mut realm, &mut Scripted(false), u64::MAX)
            .unwrap();
        assert_eq!(exit.exit, 0, "Ok(false) takes the CallTree exit");
        assert_eq!(ar[0], 0, "code after the call must not run");

        // Ok(true): execution continues past the nested call.
        let mut ar = vec![0u64, 0u64];
        let exit = execute(&frags, &mut ar, &mut realm, &mut Scripted(true), u64::MAX)
            .unwrap();
        assert_eq!(exit.exit, 1);
        assert_eq!(ar[0], 7, "inner tree's AR writes visible to the outer trace");
    }
}
