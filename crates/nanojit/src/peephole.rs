//! Superinstruction fusion: the decoded executor's private dispatch form.
//!
//! The shared ISA ([`MachInst`]) is what the assembler emits, `.tmc`
//! files store, `tm-verifier` checks and the native backend lowers. The
//! decoded executor ([`crate::executor`]) pays a match-arm dispatch per
//! instruction, so it runs a denser form: [`decode`] rewrites a raw
//! fragment into [`Op`]s, each a raw instruction or one of 25
//! superinstructions standing in for 2–4 adjacent raw ones — the
//! immediate operands, memory operands and macro-fused compare-and-branch
//! that x86 gives NanoJIT for free (the native backend gets them by
//! selection in its own lowering, [`crate::x64`]). The form is built when
//! a tree first runs decoded, grown as branches are installed, and never
//! serialised. Three rewrites iterate to a fixpoint:
//!
//! 1. **Immediate folding** — an int ALU/checked op whose operand register
//!    provably holds a 32-bit constant (tracked forward from `ConstW`)
//!    becomes an immediate form (`AluImmI`/`ChkAluImmI`); the `ConstW`
//!    dies and is collected by pass 3.
//! 2. **Adjacent-pair fusion** — compare + guard → `CmpBranch*`,
//!    compare-branch + `LoopBack` → `CmpBranchLoop*` (the loop-edge
//!    triple), `ReadAr` + ALU → `AluArI`, and ALU/checked-ALU +
//!    `WriteAr` → `*WrI` forms.
//! 3. **Dead-code removal** — pure instructions whose destination register
//!    is never read again are deleted.
//!
//! Both the deadness scans and DCE rely on an invariant of assembled
//! fragments: **no register is live across the back edge or across a
//! stitched-fragment transfer** — all loop-carried and cross-fragment
//! state flows through the trace activation record, and every register
//! read is preceded by a write earlier in the same fragment. A
//! straight-line scan to the end of the fragment is therefore a complete
//! liveness analysis.
//!
//! Every superinstruction performs exactly the reads, writes, checks and
//! exits of the raw sequence it replaces, in the same order, and every op
//! remembers which raw instructions it replaced. That serves two ends:
//! the executor charges a run in raw instructions retired, as the native
//! tier does ([`Decoded`]'s exit positions), and with `verify` [`decode`]
//! checks that each op names only registers, exits and activation-record
//! slots of the raw run it replaced — the check a `tm-verifier` pass over
//! fused code used to make.

use crate::machinst::{as_imm, Fragment, MachInst, Operand, Reg, REG_FILE_WORDS, REG_MASK};
use tm_lir::{AluOp, ChkOp, CmpOp};

/// One instruction of the decoded executor's dispatch form: a raw
/// instruction, or a superinstruction standing in for 2–4 adjacent raw
/// ones (the immediate forms count the folded `ConstW`).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    /// A raw instruction, dispatched as it is.
    Raw(MachInst),
    /// Compare + guard: exit unless `cmp_i(op, a, b) == want`. Replaces a
    /// compare whose result fed exactly one `GuardTrue` (`want: true`) /
    /// `GuardFalse` (`want: false`).
    CmpBranchI { op: CmpOp, want: bool, a: Reg, b: Reg, exit: u16 },
    /// Double compare + guard.
    CmpBranchD { op: CmpOp, want: bool, a: Reg, b: Reg, exit: u16 },
    /// Loop-edge triple: compare + guard + `LoopBack`. Exits via `exit`
    /// when the compare misses `want`, via `loop_exit` on preemption/GC
    /// at the loop edge, otherwise jumps to the anchor.
    CmpBranchLoopI { op: CmpOp, want: bool, a: Reg, b: Reg, exit: u16, loop_exit: u16 },
    /// Double-compare flavour of the loop-edge triple.
    CmpBranchLoopD { op: CmpOp, want: bool, a: Reg, b: Reg, exit: u16, loop_exit: u16 },
    /// `d = op(a, imm)` — immediate-operand ALU (`ConstW` folded in).
    AluImmI { op: AluOp, d: Reg, a: Reg, imm: i32 },
    /// `d = op(ar[slot], b)` — AR-operand ALU (`ReadAr` folded in).
    AluArI { op: AluOp, d: Reg, slot: u16, b: Reg },
    /// `d = op(a, b); ar[slot] = d` — ALU + `WriteAr`.
    AluWrI { op: AluOp, d: Reg, a: Reg, b: Reg, slot: u16 },
    /// `d = op(a, imm); ar[slot] = d` — immediate ALU + `WriteAr`.
    AluImmWrI { op: AluOp, d: Reg, a: Reg, imm: i32, slot: u16 },
    /// Checked `d = op(a, imm)`; exits on overflow like the raw checked op.
    ChkAluImmI { op: ChkOp, d: Reg, a: Reg, imm: i32, exit: u16 },
    /// Checked `d = op(a, b); ar[slot] = d`.
    ChkAluWrI { op: ChkOp, d: Reg, a: Reg, b: Reg, exit: u16, slot: u16 },
    /// Checked `d = op(a, imm); ar[slot] = d`.
    ChkAluImmWrI { op: ChkOp, d: Reg, a: Reg, imm: i32, exit: u16, slot: u16 },
    /// Loop-tail quad: checked `d = op(a, imm); ar[slot] = d`, then the
    /// loop edge. The overflow check exits *before* the register/AR
    /// writes, exactly like the raw sequence.
    ChkAluImmWrLoopI { op: ChkOp, d: Reg, a: Reg, imm: i32, slot: u16, exit: u16, loop_exit: u16 },
    /// `d = w; ar[slot] = w` — `ConstW` + `WriteAr`.
    ConstWrAr { d: Reg, w: u64, slot: u16 },
    /// `d = ar[src]; ar[dst] = d` — `ReadAr` + `WriteAr`, an AR-to-AR
    /// move through a register.
    MovAr { d: Reg, src: u16, dst: u16 },
    /// Two consecutive AR stores, in order.
    WriteAr2 { slot_a: u16, s_a: Reg, slot_b: u16, s_b: Reg },
    /// Three consecutive AR stores, in order.
    WriteAr3 { slot_a: u16, s_a: Reg, slot_b: u16, s_b: Reg, slot_c: u16, s_c: Reg },
    /// `d = op(ar[slot_a], b); ar[slot_d] = d` — `ReadAr` + ALU +
    /// `WriteAr`, the memory-to-memory addressing-mode analogue.
    AluArWrI { op: AluOp, d: Reg, slot_a: u16, b: Reg, slot_d: u16 },
    /// `d = cmp_i(op, a, imm)` — integer compare with immediate.
    CmpImmI { op: CmpOp, d: Reg, a: Reg, imm: i32 },
    /// `d = cmp_i(op, a, b); ar[slot] = d` — compare + result write-back
    /// (the recorder stores every branch condition to the AR for exits).
    CmpWrI { op: CmpOp, d: Reg, a: Reg, b: Reg, slot: u16 },
    /// Double flavour of `CmpWrI`.
    CmpWrD { op: CmpOp, d: Reg, a: Reg, b: Reg, slot: u16 },
    /// `d = cmp_i(op, a, imm); ar[slot] = d`.
    CmpImmWrI { op: CmpOp, d: Reg, a: Reg, imm: i32, slot: u16 },
    /// Immediate compare + guard (the 0/1 result was dead).
    CmpBranchImmI { op: CmpOp, want: bool, a: Reg, imm: i32, exit: u16 },
    /// Compare + result write-back + guard. `d` and `ar[slot]` are
    /// written *before* the exit check, exactly like the raw triple — a
    /// failing exit still sees the stored condition.
    CmpWrBranchI { op: CmpOp, want: bool, d: Reg, a: Reg, b: Reg, slot: u16, exit: u16 },
    /// Double flavour of `CmpWrBranchI`.
    CmpWrBranchD { op: CmpOp, want: bool, d: Reg, a: Reg, b: Reg, slot: u16, exit: u16 },
    /// Immediate compare + result write-back + guard.
    CmpImmWrBranchI { op: CmpOp, want: bool, d: Reg, a: Reg, imm: i32, slot: u16, exit: u16 },
}

impl Op {
    /// [`MachInst::operands`] for the dispatch form: each register, exit
    /// and AR slot the op touches, with its role.
    fn operands(&self, mut f: impl FnMut(Operand)) {
        use Op::*;
        use Operand::{Ar, Def, Exit, Use};
        macro_rules! ops {
            ($($role:ident $field:ident),*) => {{ $( f($role(*$field)); )* }};
        }
        match self {
            Raw(inst) => inst.operands(f),
            AluImmI { d, a, .. } | CmpImmI { d, a, .. } => ops!(Use a, Def d),
            ChkAluImmI { d, a, exit, .. } => ops!(Use a, Def d, Exit exit),
            CmpBranchImmI { a, exit, .. } => ops!(Use a, Exit exit),
            CmpBranchI { a, b, exit, .. } | CmpBranchD { a, b, exit, .. } => {
                ops!(Use a, Use b, Exit exit);
            }
            CmpBranchLoopI { a, b, exit, loop_exit, .. }
            | CmpBranchLoopD { a, b, exit, loop_exit, .. } => {
                ops!(Use a, Use b, Exit exit, Exit loop_exit);
            }
            AluArI { d, slot, b, .. } => ops!(Ar slot, Use b, Def d),
            AluWrI { d, a, b, slot, .. }
            | CmpWrI { d, a, b, slot, .. }
            | CmpWrD { d, a, b, slot, .. } => ops!(Use a, Use b, Def d, Ar slot),
            AluImmWrI { d, a, slot, .. } | CmpImmWrI { d, a, slot, .. } => {
                ops!(Use a, Def d, Ar slot);
            }
            ChkAluWrI { d, a, b, exit, slot, .. }
            | CmpWrBranchI { d, a, b, slot, exit, .. }
            | CmpWrBranchD { d, a, b, slot, exit, .. } => {
                ops!(Use a, Use b, Def d, Ar slot, Exit exit);
            }
            ChkAluImmWrI { d, a, exit, slot, .. } | CmpImmWrBranchI { d, a, slot, exit, .. } => {
                ops!(Use a, Def d, Ar slot, Exit exit);
            }
            ChkAluImmWrLoopI { d, a, slot, exit, loop_exit, .. } => {
                ops!(Use a, Def d, Ar slot, Exit exit, Exit loop_exit);
            }
            ConstWrAr { d, slot, .. } => ops!(Def d, Ar slot),
            MovAr { d, src, dst } => ops!(Ar src, Def d, Ar dst),
            WriteAr2 { slot_a, s_a, slot_b, s_b } => ops!(Use s_a, Ar slot_a, Use s_b, Ar slot_b),
            WriteAr3 { slot_a, s_a, slot_b, s_b, slot_c, s_c } => {
                ops!(Use s_a, Ar slot_a, Use s_b, Ar slot_b, Use s_c, Ar slot_c);
            }
            AluArWrI { d, slot_a, b, slot_d, .. } => ops!(Ar slot_a, Use b, Def d, Ar slot_d),
        }
    }

    /// The register the op writes, if any.
    fn dest(&self) -> Option<Reg> {
        let mut dest = None;
        self.operands(|o| {
            if let Operand::Def(d) = o {
                dest = Some(d);
            }
        });
        dest
    }

    /// Whether the op reads register `r`.
    fn reads(&self, r: Reg) -> bool {
        let mut read = false;
        self.operands(|o| read |= o == Operand::Use(r));
        read
    }

    /// [`MachInst::is_pure`] for the dispatch form.
    fn is_pure(&self) -> bool {
        match self {
            Op::Raw(inst) => inst.is_pure(),
            Op::AluImmI { .. } | Op::AluArI { .. } | Op::CmpImmI { .. } => true,
            _ => false,
        }
    }
}

/// A fragment in the decoded executor's dispatch form ([`decode`]).
#[derive(Debug, Clone)]
pub struct Decoded {
    pub(crate) code: Vec<Op>,
    /// Per op, how many raw instructions a pass through the fragment has
    /// retired when the op takes its side exit: the 1-based position of
    /// the raw instruction whose exit it is. (A loop edge retires the
    /// whole fragment, `raw_len`.)
    pub(crate) at: Vec<u32>,
    /// Length of the raw fragment.
    pub(crate) raw_len: u32,
    pub(crate) num_spills: u16,
    /// The raw fragment's exit table ([`Fragment::stitch`]), refreshed
    /// as branches are stitched to it.
    pub(crate) stitch: Vec<u32>,
    dce_removed: u32,
}

impl Decoded {
    /// Ops in the dispatch form.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Instructions in the raw fragment it was decoded from.
    pub fn raw_len(&self) -> usize {
        self.raw_len as usize
    }

    /// Superinstructions among the ops.
    pub fn superinsts(&self) -> usize {
        self.code.iter().filter(|op| !matches!(op, Op::Raw(_))).count()
    }

    /// Renders the dispatch form as a Figure-4 style listing, headed by
    /// the raw and fused instruction counts.
    pub fn listing(&self) -> String {
        let mut out = format!(
            "  ; fuse: {} raw -> {} fused ({} superinsts, {} dce)\n",
            self.raw_len,
            self.code.len(),
            self.superinsts(),
            self.dce_removed
        );
        for (pc, op) in self.code.iter().enumerate() {
            match op {
                Op::Raw(inst) => out.push_str(&format!("  {pc:4}: {inst:?}\n")),
                _ => out.push_str(&format!("  {pc:4}: {op:?}\n")),
            }
        }
        out
    }
}

/// `frag` fused into the decoded executor's dispatch form.
pub fn fuse(frag: Fragment) -> Decoded {
    decode(&frag, true, false)
}

/// `frag` in the decoded executor's dispatch form: fused when `fuse`,
/// one op per raw instruction otherwise.
///
/// # Panics
///
/// With `verify`, when an op names a register, exit or AR slot the raw
/// instructions it replaced do not — a fusion defect, which must not run.
pub fn decode(frag: &Fragment, fuse: bool, verify: bool) -> Decoded {
    let raw = &frag.code;
    let mut items: Vec<Item> = (0..raw.len() as u32)
        .map(|i| Item { op: Op::Raw(raw[i as usize].clone()), start: i, end: i + 1 })
        .collect();
    let mut dce_removed = 0;
    if fuse {
        loop {
            let folded = fold_immediates(&mut items);
            let paired = fuse_pairs(&mut items);
            let removed = remove_dead(&mut items);
            dce_removed += removed;
            if !folded && !paired && removed == 0 {
                break;
            }
        }
    }
    if verify {
        if let Some(err) = items.iter().find_map(|it| check(raw, it).err()) {
            panic!("superinstruction fusion produced a malformed op: {err}");
        }
    }
    Decoded {
        at: items.iter().map(|it| exit_position(raw, it)).collect(),
        code: items.into_iter().map(|it| it.op).collect(),
        raw_len: raw.len() as u32,
        num_spills: frag.num_spills,
        stitch: frag.stitch.clone(),
        dce_removed,
    }
}

/// An op and the raw instructions `start..end` it replaced.
#[derive(Debug, Clone)]
struct Item {
    op: Op,
    start: u32,
    end: u32,
}

/// How many raw instructions a pass through the fragment has retired when
/// `it` exits: through the one raw instruction of its run that exits
/// other than at the loop edge (fusion never merges two), else the whole
/// run.
fn exit_position(raw: &[MachInst], it: &Item) -> u32 {
    let guards = |i: &u32| {
        let inst = &raw[*i as usize];
        let mut exits = false;
        inst.for_each_exit(|_| exits = true);
        exits && !matches!(inst, MachInst::LoopBack { .. })
    };
    (it.start..it.end).rev().find(guards).map_or(it.end, |i| i + 1)
}

/// Whether `it.op` names only registers, exits and AR slots, each in the
/// role it plays there, that the raw run it replaced names.
fn check(raw: &[MachInst], it: &Item) -> Result<(), String> {
    let mut named = Vec::new();
    for inst in &raw[it.start as usize..it.end as usize] {
        inst.operands(|o| named.push(o));
    }
    let mut stray = None;
    it.op.operands(|o| {
        if !named.contains(&o) {
            stray.get_or_insert(o);
        }
    });
    match stray {
        None => Ok(()),
        Some(o) => Err(format!(
            "{:?} names {o:?}, which raw instructions {}..{} do not",
            it.op, it.start, it.end
        )),
    }
}

fn reg_idx(r: Reg) -> usize {
    (r & REG_MASK) as usize
}

/// True when register `r`'s current value is never read in `tail` (which
/// must be the rest of the fragment). Sound because no register is live
/// across the back edge or a stitched transfer.
fn reg_dead(tail: &[Item], r: Reg) -> bool {
    for it in tail {
        if it.op.reads(r) {
            return false;
        }
        if it.op.dest() == Some(r) {
            return true;
        }
    }
    true
}

/// Pass 1: rewrite register operands that provably hold constants into
/// immediate forms. The defining `ConstW` is left for DCE to collect.
fn fold_immediates(items: &mut [Item]) -> bool {
    use MachInst::{AluI, ChkAluI, CmpI, ConstW};
    let mut known: [Option<i32>; REG_FILE_WORDS] = [None; REG_FILE_WORDS];
    let mut changed = false;
    for it in items.iter_mut() {
        let replacement = match it.op {
            Op::Raw(AluI { op, d, a, b }) => match (known[reg_idx(a)], known[reg_idx(b)]) {
                // Both constant is left to the b-side fold (a stays a reg
                // read; LIR-level folding already handles const⊕const).
                (_, Some(imm)) => Some(Op::AluImmI { op, d, a, imm }),
                (Some(imm), None) if op.commutative() => Some(Op::AluImmI { op, d, a: b, imm }),
                _ => None,
            },
            Op::Raw(ChkAluI { op, d, a, b, exit }) => {
                match (known[reg_idx(a)], known[reg_idx(b)]) {
                    (_, Some(imm)) => Some(Op::ChkAluImmI { op, d, a, imm, exit }),
                    (Some(imm), None) if op.commutative() => {
                        Some(Op::ChkAluImmI { op, d, a: b, imm, exit })
                    }
                    _ => None,
                }
            }
            // Compares are not commutative, but every CmpOp has a swapped
            // twin, so a constant on either side folds.
            Op::Raw(CmpI { op, d, a, b }) => match (known[reg_idx(a)], known[reg_idx(b)]) {
                (_, Some(imm)) => Some(Op::CmpImmI { op, d, a, imm }),
                (Some(imm), None) => Some(Op::CmpImmI { op: op.swapped(), d, a: b, imm }),
                _ => None,
            },
            _ => None,
        };
        if let Some(new) = replacement {
            it.op = new;
            changed = true;
        }
        match it.op {
            Op::Raw(ConstW { d, w }) | Op::ConstWrAr { d, w, .. } => known[reg_idx(d)] = as_imm(w),
            _ => {
                if let Some(d) = it.op.dest() {
                    known[reg_idx(d)] = None;
                }
            }
        }
    }
    changed
}

/// Pass 2: left fold over the ops, fusing each with the previously
/// emitted one where a superinstruction exists. Chains compose in a
/// single scan (`CmpI`,`GuardTrue`,`LoopBack` → `CmpBranchI`,`LoopBack` →
/// `CmpBranchLoopI`).
fn fuse_pairs(items: &mut Vec<Item>) -> bool {
    let old = std::mem::take(items);
    let mut changed = false;
    for (j, it) in old.iter().enumerate() {
        if let Some(prev) = items.last_mut() {
            if let Some(op) = try_fuse(&prev.op, &it.op, &old[j + 1..]) {
                *prev = Item { op, start: prev.start, end: it.end };
                changed = true;
                continue;
            }
        }
        items.push(it.clone());
    }
    changed
}

/// `(s, exit, want)` when `op` is a raw guard: `GuardTrue` wants 1.
fn guard(op: &Op) -> Option<(Reg, u16, bool)> {
    match *op {
        Op::Raw(MachInst::GuardTrue { s, exit }) => Some((s, exit, true)),
        Op::Raw(MachInst::GuardFalse { s, exit }) => Some((s, exit, false)),
        _ => None,
    }
}

/// Attempts to fuse adjacent `prev`,`next` into one op. `tail` is the
/// rest of the fragment after `next` (for deadness checks).
fn try_fuse(prev: &Op, next: &Op, tail: &[Item]) -> Option<Op> {
    use MachInst::{AluI, ChkAluI, CmpD, CmpI, ConstW, GuardFalse, GuardTrue, LoopBack, NotB};
    use MachInst::{ReadAr, WriteAr};
    let dead = |r| reg_dead(tail, r);

    if let Some((s, exit, want)) = guard(next) {
        let fused = match *prev {
            // compare + guard → compare-branch, when the 0/1 result is
            // unused beyond the guard.
            Op::Raw(CmpI { op, d, a, b }) if s == d && dead(d) => {
                Op::CmpBranchI { op, want, a, b, exit }
            }
            Op::Raw(CmpD { op, d, a, b }) if s == d && dead(d) => {
                Op::CmpBranchD { op, want, a, b, exit }
            }
            Op::CmpImmI { op, d, a, imm } if s == d && dead(d) => {
                Op::CmpBranchImmI { op, want, a, imm, exit }
            }
            // boolean-not + guard → the opposite guard on the un-negated
            // value. `NotB` is exactly `d = (a == 0)`, so guarding `d`
            // true is guarding `a` false (and vice versa) for every u64
            // payload; the `NotB` write is elided, hence the deadness
            // requirement.
            Op::Raw(NotB { d, a }) if s == d && dead(d) => Op::Raw(if want {
                GuardFalse { s: a, exit }
            } else {
                GuardTrue { s: a, exit }
            }),
            // compare-write-through + guard → compare-write-branch. The
            // register and the AR slot are still written (before the exit
            // check, exactly the raw order), so no deadness requirement.
            Op::CmpWrI { op, d, a, b, slot } if s == d => {
                Op::CmpWrBranchI { op, want, d, a, b, slot, exit }
            }
            Op::CmpWrD { op, d, a, b, slot } if s == d => {
                Op::CmpWrBranchD { op, want, d, a, b, slot, exit }
            }
            Op::CmpImmWrI { op, d, a, imm, slot } if s == d => {
                Op::CmpImmWrBranchI { op, want, d, a, imm, slot, exit }
            }
            _ => return None,
        };
        return Some(fused);
    }

    if let Op::Raw(LoopBack { exit: loop_exit }) = *next {
        return match *prev {
            // compare-branch + loop edge → the loop-edge triple.
            Op::CmpBranchI { op, want, a, b, exit } => {
                Some(Op::CmpBranchLoopI { op, want, a, b, exit, loop_exit })
            }
            Op::CmpBranchD { op, want, a, b, exit } => {
                Some(Op::CmpBranchLoopD { op, want, a, b, exit, loop_exit })
            }
            // checked-increment write-through + loop edge → the whole
            // canonical loop tail (`i = i ⊕ imm (checked); store i; jump
            // back`) in one dispatch. The overflow check happens before
            // the writes, exactly as in the raw sequence.
            Op::ChkAluImmWrI { op, d, a, imm, exit, slot } => {
                Some(Op::ChkAluImmWrLoopI { op, d, a, imm, slot, exit, loop_exit })
            }
            _ => None,
        };
    }

    // ReadAr + ALU → AR-operand ALU. The loaded register must die at the
    // ALU (it is either overwritten by it or never read again), and must
    // not feed the ALU's *other* operand, which would still read it.
    if let (&Op::Raw(ReadAr { d: r, slot }), &Op::Raw(AluI { op, d, a, b })) = (prev, next) {
        let dead = d == r || dead(r);
        if a == r && b != r && dead {
            return Some(Op::AluArI { op, d, slot, b });
        }
        if b == r && a != r && op.commutative() && dead {
            return Some(Op::AluArI { op, d, slot, b: a });
        }
    }

    // ALU + WriteAr of its result → combined write-through forms. The
    // destination register is still written, so later uses are unaffected.
    let Op::Raw(WriteAr { slot, s }) = *next else { return None };
    Some(match *prev {
        Op::Raw(AluI { op, d, a, b }) if s == d => Op::AluWrI { op, d, a, b, slot },
        Op::AluImmI { op, d, a, imm } if s == d => Op::AluImmWrI { op, d, a, imm, slot },
        Op::Raw(ChkAluI { op, d, a, b, exit }) if s == d => {
            Op::ChkAluWrI { op, d, a, b, exit, slot }
        }
        Op::ChkAluImmI { op, d, a, imm, exit } if s == d => {
            Op::ChkAluImmWrI { op, d, a, imm, exit, slot }
        }
        // Compare + store of its 0/1 result (the recorder stores every
        // branch condition to the AR before guarding on it).
        Op::Raw(CmpI { op, d, a, b }) if s == d => Op::CmpWrI { op, d, a, b, slot },
        Op::Raw(CmpD { op, d, a, b }) if s == d => Op::CmpWrD { op, d, a, b, slot },
        Op::CmpImmI { op, d, a, imm } if s == d => Op::CmpImmWrI { op, d, a, imm, slot },
        // Constant materialization + store (constants re-written to the
        // AR every iteration by the recorder).
        Op::Raw(ConstW { d, w }) if s == d => Op::ConstWrAr { d, w, slot },
        // AR-to-AR shuffle through a register; the register copy
        // survives for later readers.
        Op::Raw(ReadAr { d, slot: src }) if s == d => Op::MovAr { d, src, dst: slot },
        Op::AluArI { op, d, slot: slot_a, b } if s == d => {
            Op::AluArWrI { op, d, slot_a, b, slot_d: slot }
        }
        // Adjacent AR stores → one grouped store (order preserved; a
        // repeated slot keeps only the last store, which is all the raw
        // pair made visible anyway).
        Op::Raw(WriteAr { slot: slot_a, .. }) if slot_a == slot => Op::Raw(WriteAr { slot, s }),
        Op::Raw(WriteAr { slot: slot_a, s: s_a }) => Op::WriteAr2 { slot_a, s_a, slot_b: slot, s_b: s },
        Op::WriteAr2 { slot_a, s_a, slot_b, s_b } => {
            Op::WriteAr3 { slot_a, s_a, slot_b, s_b, slot_c: slot, s_c: s }
        }
        _ => return None,
    })
}

/// Pass 3: backward liveness; deletes pure ops whose destination is dead.
/// The live set starts empty at the end of the fragment (the
/// back-edge/stitch invariant again).
fn remove_dead(items: &mut Vec<Item>) -> u32 {
    let mut live = [false; REG_FILE_WORDS];
    let mut keep = vec![true; items.len()];
    let mut removed = 0;
    for (i, it) in items.iter().enumerate().rev() {
        if let Some(d) = it.op.dest() {
            if !live[reg_idx(d)] && it.op.is_pure() {
                keep[i] = false;
                removed += 1;
                continue;
            }
            live[reg_idx(d)] = false;
        }
        it.op.operands(|o| {
            if let Operand::Use(s) = o {
                live[reg_idx(s)] = true;
            }
        });
    }
    if removed > 0 {
        let mut it = keep.iter();
        items.retain(|_| *it.next().unwrap());
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machinst::MachInst::*;
    use tm_lir::{AluOp, ChkOp, CmpOp};

    fn frag(code: Vec<MachInst>, num_exits: usize) -> Fragment {
        Fragment::new(code, 0, num_exits)
    }

    fn raw(inst: MachInst) -> Op {
        Op::Raw(inst)
    }

    fn has(f: &Decoded, pred: impl Fn(&Op) -> bool) -> bool {
        f.code.iter().any(pred)
    }

    /// The counting-loop body: 8 raw instructions fuse to 4, and each
    /// exit still charges the raw instructions retired up to it.
    #[test]
    fn counting_loop_halves() {
        let f = fuse(frag(
            vec![
                ReadAr { d: 0, slot: 0 },
                ReadAr { d: 1, slot: 1 },
                ConstW { d: 2, w: 1 },
                ChkAluI { op: ChkOp::Add, d: 3, a: 0, b: 2, exit: 0 },
                WriteAr { slot: 0, s: 3 },
                CmpI { op: CmpOp::Lt, d: 4, a: 3, b: 1 },
                GuardTrue { s: 4, exit: 1 },
                LoopBack { exit: 2 },
            ],
            3,
        ));
        assert_eq!(
            f.code,
            vec![
                raw(ReadAr { d: 0, slot: 0 }),
                raw(ReadAr { d: 1, slot: 1 }),
                Op::ChkAluImmWrI { op: ChkOp::Add, d: 3, a: 0, imm: 1, exit: 0, slot: 0 },
                Op::CmpBranchLoopI { op: CmpOp::Lt, want: true, a: 3, b: 1, exit: 1, loop_exit: 2 },
            ]
        );
        assert_eq!((f.raw_len(), f.len(), f.superinsts(), f.dce_removed), (8, 4, 2, 1));
        // The overflow exit is the raw `ChkAluI` (4th), the loop-done exit
        // the raw `GuardTrue` (7th); the loop edge retires all 8.
        assert_eq!(f.at[2..], [4, 7]);
    }

    #[test]
    fn unfused_decoding_is_one_op_per_instruction() {
        let code = vec![ReadAr { d: 0, slot: 0 }, GuardTrue { s: 0, exit: 0 }, End { exit: 1 }];
        let f = decode(&frag(code.clone(), 2), false, true);
        assert_eq!(f.code, code.into_iter().map(raw).collect::<Vec<_>>());
        assert_eq!(f.at, [1, 2, 3]);
        assert_eq!(f.superinsts(), 0);
    }

    /// With `verify`, an op naming an exit, register or slot its raw run
    /// does not is rejected — here a compare-branch whose exit is not the
    /// guard's.
    #[test]
    fn check_rejects_an_op_that_names_what_its_raw_run_does_not() {
        let code = [CmpI { op: CmpOp::Lt, d: 2, a: 0, b: 1 }, GuardTrue { s: 2, exit: 1 }];
        let item = |exit| Item {
            op: Op::CmpBranchI { op: CmpOp::Lt, want: true, a: 0, b: 1, exit },
            start: 0,
            end: 2,
        };
        assert_eq!(check(&code, &item(1)), Ok(()));
        let err = check(&code, &item(5)).unwrap_err();
        assert!(err.contains("Exit(5)"), "{err}");
        // A right exit with a register the run reads in another role.
        let wrong_role = Item { op: Op::CmpImmI { op: CmpOp::Lt, d: 0, a: 1, imm: 3 }, ..item(1) };
        assert!(check(&code, &wrong_role).unwrap_err().contains("Def(0)"));
    }

    #[test]
    fn cmp_guard_false_fuses_with_want_false() {
        let f = fuse(frag(
            vec![
                ReadAr { d: 0, slot: 0 },
                ReadAr { d: 1, slot: 1 },
                CmpI { op: CmpOp::Eq, d: 2, a: 0, b: 1 },
                GuardFalse { s: 2, exit: 0 },
                End { exit: 1 },
            ],
            2,
        ));
        assert!(has(&f, |o| matches!(o, Op::CmpBranchI { op: CmpOp::Eq, want: false, .. })));
    }

    #[test]
    fn cmp_result_still_used_blocks_fusion() {
        // The compare's 0/1 result is written to the AR after the guard,
        // so it stays a separate instruction.
        let f = fuse(frag(
            vec![
                ReadAr { d: 0, slot: 0 },
                ReadAr { d: 1, slot: 1 },
                CmpI { op: CmpOp::Lt, d: 2, a: 0, b: 1 },
                GuardTrue { s: 2, exit: 0 },
                WriteAr { slot: 2, s: 2 },
                End { exit: 1 },
            ],
            2,
        ));
        assert!(has(&f, |o| matches!(o, Op::Raw(CmpI { op: CmpOp::Lt, .. }))));
        assert!(has(&f, |o| matches!(o, Op::Raw(GuardTrue { .. }))));
    }

    #[test]
    fn readar_alu_fuses_unless_other_operand_aliases() {
        // r0 feeds both operands: must not fuse (the fused form would
        // read a stale register for the second operand).
        let f = fuse(frag(
            vec![
                ReadAr { d: 0, slot: 0 },
                AluI { op: AluOp::Sub, d: 1, a: 0, b: 0 },
                WriteAr { slot: 1, s: 1 },
                End { exit: 0 },
            ],
            1,
        ));
        assert!(has(&f, |o| matches!(o, Op::Raw(ReadAr { .. }))));
        assert!(!has(&f, |o| matches!(o, Op::AluArI { .. })));

        // Distinct operand: fuses, and the trailing WriteAr collapses
        // into the AR-to-AR write-through form.
        let f = fuse(frag(
            vec![
                ReadAr { d: 1, slot: 1 },
                ReadAr { d: 0, slot: 0 },
                AluI { op: AluOp::Sub, d: 2, a: 0, b: 1 },
                WriteAr { slot: 1, s: 2 },
                End { exit: 0 },
            ],
            1,
        ));
        assert_eq!(
            f.code,
            vec![
                raw(ReadAr { d: 1, slot: 1 }),
                Op::AluArWrI { op: AluOp::Sub, d: 2, slot_a: 0, b: 1, slot_d: 1 },
                raw(End { exit: 0 }),
            ]
        );
    }

    #[test]
    fn commutative_swap_folds_a_side_constant() {
        let f = fuse(frag(
            vec![
                ConstW { d: 0, w: 7 },
                ReadAr { d: 1, slot: 0 },
                AluI { op: AluOp::Mul, d: 2, a: 0, b: 1 },
                WriteAr { slot: 0, s: 2 },
                End { exit: 0 },
            ],
            1,
        ));
        assert_eq!(
            f.code,
            vec![
                raw(ReadAr { d: 1, slot: 0 }),
                Op::AluImmWrI { op: AluOp::Mul, d: 2, a: 1, imm: 7, slot: 0 },
                raw(End { exit: 0 }),
            ]
        );
    }

    #[test]
    fn non_i32_constw_is_not_an_immediate() {
        // A double bit-pattern constant must not fold into an int ALU imm.
        let bits = 1.5f64.to_bits();
        let f = fuse(frag(
            vec![
                ConstW { d: 0, w: bits },
                ReadAr { d: 1, slot: 0 },
                AluI { op: AluOp::Add, d: 2, a: 1, b: 0 },
                WriteAr { slot: 0, s: 2 },
                End { exit: 0 },
            ],
            1,
        ));
        assert!(has(&f, |o| matches!(o, Op::Raw(ConstW { .. }))));
        assert!(!has(&f, |o| matches!(o, Op::AluImmI { .. } | Op::AluImmWrI { .. })));
    }

    #[test]
    fn shared_constant_keeps_constw_for_other_reader() {
        // The constant register also feeds a non-foldable consumer
        // (a guard), so ConstW must survive DCE.
        let f = fuse(frag(
            vec![
                ConstW { d: 0, w: 1 },
                ReadAr { d: 1, slot: 0 },
                AluI { op: AluOp::Add, d: 2, a: 1, b: 0 },
                WriteAr { slot: 0, s: 2 },
                GuardTrue { s: 0, exit: 0 },
                End { exit: 1 },
            ],
            2,
        ));
        assert!(has(&f, |o| matches!(o, Op::Raw(ConstW { .. }))));
    }

    /// The recorder's canonical branch shape — compare, store the 0/1
    /// result to the AR, then guard on it — collapses to one
    /// compare-write-branch superinstruction.
    #[test]
    fn cmp_store_guard_triple_fuses() {
        let f = fuse(frag(
            vec![
                ReadAr { d: 0, slot: 0 },
                ReadAr { d: 1, slot: 1 },
                CmpI { op: CmpOp::Lt, d: 2, a: 0, b: 1 },
                WriteAr { slot: 2, s: 2 },
                GuardTrue { s: 2, exit: 0 },
                End { exit: 1 },
            ],
            2,
        ));
        assert_eq!(
            f.code,
            vec![
                raw(ReadAr { d: 0, slot: 0 }),
                raw(ReadAr { d: 1, slot: 1 }),
                Op::CmpWrBranchI { op: CmpOp::Lt, want: true, d: 2, a: 0, b: 1, slot: 2, exit: 0 },
                raw(End { exit: 1 }),
            ]
        );
        assert_eq!(f.at[2], 5, "the guard is the 5th raw instruction");
    }

    /// A constant compare operand folds through `swapped()` even though
    /// compares are not commutative, and the folded form still fuses
    /// with the store and the guard.
    #[test]
    fn compare_immediate_folds_on_either_side() {
        // Constant on the right: `x < 100`.
        let f = fuse(frag(
            vec![
                ReadAr { d: 0, slot: 0 },
                ConstW { d: 1, w: 100 },
                CmpI { op: CmpOp::Lt, d: 2, a: 0, b: 1 },
                GuardTrue { s: 2, exit: 0 },
                End { exit: 1 },
            ],
            2,
        ));
        assert_eq!(
            f.code,
            vec![
                raw(ReadAr { d: 0, slot: 0 }),
                Op::CmpBranchImmI { op: CmpOp::Lt, want: true, a: 0, imm: 100, exit: 0 },
                raw(End { exit: 1 }),
            ]
        );

        // Constant on the left: `100 < x` becomes `x > 100`.
        let f = fuse(frag(
            vec![
                ReadAr { d: 0, slot: 0 },
                ConstW { d: 1, w: 100 },
                CmpI { op: CmpOp::Lt, d: 2, a: 1, b: 0 },
                WriteAr { slot: 1, s: 2 },
                GuardTrue { s: 2, exit: 0 },
                End { exit: 1 },
            ],
            2,
        ));
        assert_eq!(
            f.code,
            vec![
                raw(ReadAr { d: 0, slot: 0 }),
                Op::CmpImmWrBranchI {
                    op: CmpOp::Gt,
                    want: true,
                    d: 2,
                    a: 0,
                    imm: 100,
                    slot: 1,
                    exit: 0,
                },
                raw(End { exit: 1 }),
            ]
        );
    }

    /// `CmpI Eq; NotB; Guard` — the boolean negation flips the guard's sense
    /// and the compare then fuses into the flipped guard.
    #[test]
    fn notb_guard_flips_and_fuses_into_compare() {
        let f = fuse(frag(
            vec![
                ReadAr { d: 0, slot: 0 },
                ReadAr { d: 1, slot: 1 },
                CmpI { op: CmpOp::Eq, d: 2, a: 0, b: 1 },
                NotB { d: 3, a: 2 },
                GuardTrue { s: 3, exit: 0 },
                End { exit: 1 },
            ],
            2,
        ));
        assert_eq!(
            f.code,
            vec![
                raw(ReadAr { d: 0, slot: 0 }),
                raw(ReadAr { d: 1, slot: 1 }),
                Op::CmpBranchI { op: CmpOp::Eq, want: false, a: 0, b: 1, exit: 0 },
                raw(End { exit: 1 }),
            ]
        );
    }

    /// AR-to-AR shuffles and constant rematerializations collapse.
    #[test]
    fn ar_shuffle_and_const_store_fuse() {
        let f = fuse(frag(
            vec![
                ReadAr { d: 0, slot: 3 },
                WriteAr { slot: 5, s: 0 },
                ConstW { d: 1, w: 7 },
                WriteAr { slot: 6, s: 1 },
                End { exit: 0 },
            ],
            1,
        ));
        assert_eq!(
            f.code,
            vec![
                Op::MovAr { d: 0, src: 3, dst: 5 },
                Op::ConstWrAr { d: 1, w: 7, slot: 6 },
                raw(End { exit: 0 }),
            ]
        );
    }

    /// Clusters of adjacent AR stores group into WriteAr2/WriteAr3.
    #[test]
    fn adjacent_writear_cluster_groups() {
        let f = fuse(frag(
            vec![
                ReadAr { d: 0, slot: 0 },
                ReadAr { d: 1, slot: 1 },
                ReadAr { d: 2, slot: 2 },
                AluI { op: AluOp::Add, d: 3, a: 0, b: 1 },
                WriteAr { slot: 3, s: 0 },
                WriteAr { slot: 4, s: 1 },
                WriteAr { slot: 5, s: 2 },
                WriteAr { slot: 6, s: 3 },
                End { exit: 0 },
            ],
            1,
        ));
        // The first three stores group into a WriteAr3; the fourth stays
        // a lone WriteAr (grouping caps at three).
        assert!(has(&f, |o| matches!(o, Op::WriteAr3 { .. })));
        assert_eq!(f.code.iter().filter(|o| matches!(o, Op::Raw(WriteAr { .. }))).count(), 1);
        assert_eq!(f.len(), 7, "9 raw -> 7 fused: {:?}", f.code);
    }

    /// Two stores to the *same* slot keep only the last one.
    #[test]
    fn same_slot_double_store_keeps_last() {
        let f = fuse(frag(
            vec![
                ReadAr { d: 0, slot: 0 },
                ReadAr { d: 1, slot: 1 },
                WriteAr { slot: 4, s: 0 },
                WriteAr { slot: 4, s: 1 },
                End { exit: 0 },
            ],
            1,
        ));
        // Only the second store survives, and it folds all the way down
        // to a single AR-to-AR move (both ReadArs die: slot 1 is re-read
        // by the MovAr itself).
        assert_eq!(f.code, vec![Op::MovAr { d: 1, src: 1, dst: 4 }, raw(End { exit: 0 })]);
        assert_eq!(f.at[1], 5, "the dead instructions still count as retired");
    }

    /// The canonical loop tail — checked increment, write-through, loop
    /// edge — becomes a single terminator superinstruction.
    #[test]
    fn checked_increment_loop_tail_fuses_to_one_terminator() {
        let f = fuse(frag(
            vec![
                ReadAr { d: 0, slot: 0 },
                ConstW { d: 1, w: 1 },
                ChkAluI { op: ChkOp::Add, d: 2, a: 0, b: 1, exit: 0 },
                WriteAr { slot: 0, s: 2 },
                LoopBack { exit: 1 },
            ],
            2,
        ));
        assert_eq!(
            f.code,
            vec![
                raw(ReadAr { d: 0, slot: 0 }),
                Op::ChkAluImmWrLoopI {
                    op: ChkOp::Add,
                    d: 2,
                    a: 0,
                    imm: 1,
                    slot: 0,
                    exit: 0,
                    loop_exit: 1,
                },
            ]
        );
        assert_eq!(f.at[1], 3, "an overflow exit retires the ConstW and the ChkAluI");
    }

    /// Checked shifts fold immediates like the other checked ops.
    #[test]
    fn checked_shift_folds_immediate() {
        let f = fuse(frag(
            vec![
                ReadAr { d: 0, slot: 0 },
                ConstW { d: 1, w: 2 },
                ChkAluI { op: ChkOp::Shl, d: 2, a: 0, b: 1, exit: 0 },
                WriteAr { slot: 0, s: 2 },
                End { exit: 1 },
            ],
            2,
        ));
        assert_eq!(
            f.code,
            vec![
                raw(ReadAr { d: 0, slot: 0 }),
                Op::ChkAluImmWrI { op: ChkOp::Shl, d: 2, a: 0, imm: 2, exit: 0, slot: 0 },
                raw(End { exit: 1 }),
            ]
        );
    }

    /// Every fused test shape above passes the post-fusion check.
    #[test]
    fn fusion_output_passes_its_own_check() {
        let f = frag(
            vec![
                ReadAr { d: 0, slot: 0 },
                ReadAr { d: 1, slot: 1 },
                ConstW { d: 2, w: 1 },
                ChkAluI { op: ChkOp::Add, d: 3, a: 0, b: 2, exit: 0 },
                WriteAr { slot: 0, s: 3 },
                CmpI { op: CmpOp::Lt, d: 4, a: 3, b: 1 },
                WriteAr { slot: 1, s: 4 },
                GuardTrue { s: 4, exit: 1 },
                LoopBack { exit: 2 },
            ],
            3,
        );
        let checked = decode(&f, true, true);
        assert_eq!(checked.code, fuse(f).code);
    }
}
