//! The virtual machine ISA that compiled traces execute.
//!
//! **Substitution note (see DESIGN.md):** the paper's NanoJIT emits real
//! x86/ARM machine code. We target a fixed virtual register ISA with two
//! execution tiers behind it:
//!
//! * the **decoded executor** ([`crate::executor`]) — a tight decode loop,
//!   portable to any target, and the reference semantics;
//! * the **native x86-64 backend** ([`crate::x64`]) — translates the same
//!   `MachInst` stream into real machine code in an
//!   executable buffer (on by default on x86-64 Linux, selected per tree
//!   by the monitor, with whole-tree fallback to the decoded executor for
//!   any instruction it doesn't cover). It reads the heap where the
//!   interpreter does, through the object layout the runtime publishes:
//!   a shape guard is a load and a compare, a slot access a load or a
//!   store, with no call.
//!
//! What the evaluation depends on is preserved in both tiers: compiled
//! trace instructions operate on **unboxed words in registers**, with no
//! type dispatch, no interpreter decode, no operand stack traffic, and
//! guards compiled to single compare-and-exit operations — the Figure 4
//! profile ("most LIR instructions compile to a single x86 instruction").
//! The decoded tier keeps that profile observable on every platform and
//! doubles as the differential oracle for the native tier; the native
//! tier restores the paper's actual mechanism on the paper's actual
//! target.
//!
//! The ISA is what the assembler emits, one instruction per LIR op plus
//! allocator moves and spills. The integer ALU, overflow-checked ALU,
//! double ALU, compare and box/unbox families carry their operation as a
//! [`tm_lir::AluOp`] / [`tm_lir::ChkOp`] / [`tm_lir::FOp`] /
//! [`tm_lir::CmpOp`] / [`tm_lir::Tag`] field (`AluI`, `ChkAluI`, `AluD`,
//! `CmpI`, `CmpD`, `Box`, `Unbox`); everything else is one variant each.
//! This one vocabulary is what `.tmc` files store, `tm-verifier` checks
//! and both tiers run. What real NanoJIT gets for free from x86 —
//! immediate operands, memory operands, macro-fused compare-and-branch —
//! each tier gets in its own way: the native backend by local instruction
//! selection inside its lowering, the decoded executor by fusing adjacent
//! instructions into superinstructions of its private dispatch form
//! ([`crate::peephole`]).
//!
//! Which register, exit and AR slot each variant touches is listed once,
//! in [`MachInst::operands`].

use tm_lir::{AluOp, ChkOp, CmpOp, FOp, Tag};
use tm_runtime::Helper;

/// A virtual register index.
pub type Reg = u8;

/// Number of general registers the allocator may use (deliberately small,
/// x86-like, so the spill logic of §5.2 is actually exercised). The
/// native tier keeps the six lowest in machine registers and the rest in
/// its memory file (`x64::register_map`); a fragment writes every
/// register before reading it (`tm-verifier`), so neither tier's
/// initial register contents are observable.
pub const NREGS: usize = 12;

/// Size of the executor's register file: `NREGS` rounded up to a power of
/// two so indexing can be masked instead of bounds-checked. The native
/// tier's memory file has the same layout, with the spill area after it.
pub const REG_FILE_WORDS: usize = NREGS.next_power_of_two();

/// Mask deriving a register-file index from a [`Reg`]. Shared by the
/// executor and the allocator's `debug_assert!`s — the only in-range
/// registers are `0..NREGS`, so masking is a no-op on well-formed code.
pub const REG_MASK: u8 = (REG_FILE_WORDS - 1) as Reg;

/// Whether `w` (a `ConstW` payload) is a sign-extended 32-bit integer,
/// i.e. usable verbatim as an `i32` immediate operand.
pub(crate) fn as_imm(w: u64) -> Option<i32> {
    let v = w as i32;
    (i64::from(v) as u64 == w).then_some(v)
}

/// Sentinel in [`Fragment::stitch`]: this exit returns to the monitor
/// rather than jumping to a stitched fragment.
pub const EXIT_UNSTITCHED: u32 = u32::MAX;

/// A machine instruction of the virtual ISA. `d` = destination register,
/// `a`/`b`/`s` = source registers; doubles travel as IEEE-754 bit patterns
/// in the same registers. `exit` fields are indexes into the fragment's
/// exit table ([`Fragment::stitch`]).
#[derive(Debug, Clone, PartialEq)]
pub enum MachInst {
    /// Load a constant word.
    ConstW {
        /// Destination.
        d: Reg,
        /// The word.
        w: u64,
    },
    /// Register move (emitted by the allocator).
    Mov {
        /// Destination.
        d: Reg,
        /// Source.
        s: Reg,
    },
    /// Reload from a spill slot.
    LoadSpill {
        /// Destination.
        d: Reg,
        /// Spill slot index.
        slot: u16,
    },
    /// Store to a spill slot.
    StoreSpill {
        /// Spill slot index.
        slot: u16,
        /// Source.
        s: Reg,
    },
    /// Read a trace-activation-record slot.
    ReadAr {
        /// Destination.
        d: Reg,
        /// AR slot.
        slot: u16,
    },
    /// Write a trace-activation-record slot.
    WriteAr {
        /// AR slot.
        slot: u16,
        /// Source.
        s: Reg,
    },

    /// `d = op(a, b)` — unchecked i32 ALU (wrapping arithmetic, bitwise
    /// ops, shifts by `b & 31`).
    AluI { op: AluOp, d: Reg, a: Reg, b: Reg },
    /// `d = !a` (bitwise).
    NotI { d: Reg, a: Reg },
    /// `d = -a` (wrapping).
    NegI { d: Reg, a: Reg },

    /// Checked `d = op(a, b)`: exit when the exact result leaves the
    /// boxable 31-bit integer range (or a multiply yields `-0`).
    ChkAluI { op: ChkOp, d: Reg, a: Reg, b: Reg, exit: u16 },
    /// Checked negate (exits on -0 and range overflow).
    NegIChk { d: Reg, a: Reg, exit: u16 },
    /// Checked remainder (exits on zero divisor / -0 result).
    ModIChk { d: Reg, a: Reg, b: Reg, exit: u16 },

    /// `d = op(a, b)` — double arithmetic.
    AluD { op: FOp, d: Reg, a: Reg, b: Reg },
    /// Double negate.
    NegD { d: Reg, a: Reg },

    /// `d = cmp_i(op, a, b)` — i32 compare producing 0/1.
    CmpI { op: CmpOp, d: Reg, a: Reg, b: Reg },
    /// `d = cmp_d(op, a, b)` — double compare producing 0/1 (NaN false).
    CmpD { op: CmpOp, d: Reg, a: Reg, b: Reg },
    /// Boolean not.
    NotB { d: Reg, a: Reg },

    /// Exact i32 → double.
    I2D { d: Reg, a: Reg },
    /// u32 bits → double.
    U2D { d: Reg, a: Reg },
    /// Double → i32 with integrality/range guard.
    D2IChk { d: Reg, a: Reg, exit: u16 },
    /// JS ToInt32 wrap.
    D2I32 { d: Reg, a: Reg },
    /// Guard an i32 fits the boxable 31-bit range (result = input).
    ChkRangeI { d: Reg, a: Reg, exit: u16 },

    /// Box the unboxed `tag` value in `a` (see [`tm_lir::Lir::Box`]:
    /// `Double`, and `Int` outside the 31-bit range, allocate and may flag
    /// a collection; the other tags are bit tagging).
    Box { tag: Tag, d: Reg, a: Reg },
    /// Unbox the tagged word in `a` as `tag`, exiting on any other tag.
    Unbox { tag: Tag, d: Reg, a: Reg, exit: u16 },
    /// Unbox any number as double.
    UnboxNumD { d: Reg, a: Reg, exit: u16 },

    /// Exit unless `s` is true (1).
    GuardTrue { s: Reg, exit: u16 },
    /// Exit unless `s` is false (0).
    GuardFalse { s: Reg, exit: u16 },
    /// Exit unless the object's shape matches.
    GuardShape { obj: Reg, shape: u32, exit: u16 },
    /// Exit unless the object's class matches.
    GuardClass { obj: Reg, class: u8, exit: u16 },
    /// Exit unless the boxed word bit-equals `w`.
    GuardBoxedEq { s: Reg, w: u64, exit: u16 },
    /// Exit unless `0 <= idx < elements.len()`.
    GuardBound { arr: Reg, idx: Reg, exit: u16 },

    /// Property slot load.
    LoadSlot { d: Reg, o: Reg, slot: u32 },
    /// Property slot store.
    StoreSlot { o: Reg, slot: u32, s: Reg },
    /// Prototype link load.
    LoadProto { d: Reg, o: Reg },
    /// Dense element load (pre-guarded).
    LoadElem { d: Reg, a: Reg, i: Reg },
    /// Dense element store (pre-guarded).
    StoreElem { a: Reg, i: Reg, s: Reg },
    /// Array length.
    ArrayLen { d: Reg, a: Reg },
    /// String length.
    StrLen { d: Reg, a: Reg },

    /// Call a runtime helper.
    CallHelper {
        /// Result register.
        d: Reg,
        /// The helper.
        helper: Helper,
        /// Argument registers.
        args: Box<[Reg]>,
        /// Exit taken on deep bail (reentry).
        exit: u16,
    },
    /// Call a nested trace tree (§4) through the host.
    CallTree {
        /// Tree registry key.
        tree: u32,
        /// Exit taken on unexpected inner exit.
        exit: u16,
    },
    /// Loop edge: jump to the tree anchor (fragment 0, pc 0); exits via
    /// `exit` on preemption or pending GC (§6.4).
    LoopBack { exit: u16 },
    /// Unconditional exit.
    End { exit: u16 },
}

/// One operand of a [`MachInst`], tagged with the role it plays — what
/// liveness ([`crate::peephole`]) and bounds checking (`tm-verifier`) need
/// to know about an instruction without knowing which instruction it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A register the instruction writes.
    Def(Reg),
    /// A register the instruction reads.
    Use(Reg),
    /// An exit id the instruction can take.
    Exit(u16),
    /// A trace-activation-record slot the instruction reads or writes.
    Ar(u16),
}

impl MachInst {
    /// Calls `f` once per operand, reads before the write. This is the
    /// only per-variant list of operand roles: [`MachInst::dest`],
    /// [`MachInst::for_each_src`] and [`MachInst::for_each_exit`] filter
    /// it. (Spill slots index a per-fragment array with its own
    /// store-before-load rule and are left to the verifier; the remaining
    /// fields are immediates.) A register read twice is visited twice.
    pub fn operands(&self, mut f: impl FnMut(Operand)) {
        use MachInst::*;
        use Operand::{Ar, Def, Exit, Use};
        macro_rules! ops {
            ($($role:ident $field:ident),*) => {{ $( f($role(*$field)); )* }};
        }
        match self {
            ConstW { d, .. } | LoadSpill { d, .. } => ops!(Def d),
            StoreSpill { s, .. } => ops!(Use s),
            ReadAr { d, slot } => ops!(Ar slot, Def d),
            WriteAr { slot, s } => ops!(Use s, Ar slot),
            Mov { d, s: a }
            | NotI { d, a }
            | NegI { d, a }
            | NegD { d, a }
            | NotB { d, a }
            | I2D { d, a }
            | U2D { d, a }
            | D2I32 { d, a }
            | Box { d, a, .. }
            | LoadSlot { d, o: a, .. }
            | LoadProto { d, o: a }
            | ArrayLen { d, a }
            | StrLen { d, a } => ops!(Use a, Def d),
            NegIChk { d, a, exit }
            | D2IChk { d, a, exit }
            | ChkRangeI { d, a, exit }
            | Unbox { d, a, exit, .. }
            | UnboxNumD { d, a, exit } => ops!(Use a, Def d, Exit exit),
            AluI { d, a, b, .. }
            | AluD { d, a, b, .. }
            | CmpI { d, a, b, .. }
            | CmpD { d, a, b, .. }
            | LoadElem { d, a, i: b } => ops!(Use a, Use b, Def d),
            ChkAluI { d, a, b, exit, .. } | ModIChk { d, a, b, exit } => {
                ops!(Use a, Use b, Def d, Exit exit);
            }
            GuardTrue { s: a, exit }
            | GuardFalse { s: a, exit }
            | GuardBoxedEq { s: a, exit, .. }
            | GuardShape { obj: a, exit, .. }
            | GuardClass { obj: a, exit, .. } => ops!(Use a, Exit exit),
            GuardBound { arr: a, idx: b, exit } => ops!(Use a, Use b, Exit exit),
            StoreSlot { o, s, .. } => ops!(Use o, Use s),
            StoreElem { a, i, s } => ops!(Use a, Use i, Use s),
            CallHelper { d, args, exit, .. } => {
                args.iter().for_each(|a| f(Use(*a)));
                ops!(Def d, Exit exit);
            }
            CallTree { exit, .. } | LoopBack { exit } | End { exit } => ops!(Exit exit),
        }
    }

    /// The register this instruction writes, if any.
    pub fn dest(&self) -> Option<Reg> {
        let mut dest = None;
        self.operands(|o| {
            if let Operand::Def(d) = o {
                dest = Some(d);
            }
        });
        dest
    }

    /// Calls `f` once per source register read (the same register may be
    /// visited more than once).
    pub fn for_each_src(&self, mut f: impl FnMut(Reg)) {
        self.operands(|o| {
            if let Operand::Use(s) = o {
                f(s);
            }
        });
    }

    /// Calls `f` once per exit id this instruction can take.
    pub fn for_each_exit(&self, mut f: impl FnMut(u16)) {
        self.operands(|o| {
            if let Operand::Exit(e) = o {
                f(e);
            }
        });
    }

    /// Whether the instruction has no observable effect beyond writing its
    /// destination register: no stores, no exits, no allocation, no way to
    /// trap. Pure instructions whose destination is dead may be deleted.
    pub fn is_pure(&self) -> bool {
        use MachInst::*;
        matches!(
            self,
            ConstW { .. }
                | Mov { .. }
                | LoadSpill { .. }
                | ReadAr { .. }
                | AluI { .. }
                | NotI { .. }
                | NegI { .. }
                | AluD { .. }
                | NegD { .. }
                | CmpI { .. }
                | CmpD { .. }
                | NotB { .. }
                | I2D { .. }
                | U2D { .. }
                | D2I32 { .. }
        )
    }

    /// Whether this instruction ends the fragment (nothing may follow it).
    pub fn is_terminator(&self) -> bool {
        matches!(self, MachInst::LoopBack { .. } | MachInst::End { .. })
    }
}

/// A compiled trace fragment: straight-line machine code whose only
/// control flow is guard exits and the final loop-back/end.
#[derive(Debug, Clone, PartialEq)]
pub struct Fragment {
    /// The instructions.
    pub code: Vec<MachInst>,
    /// Number of spill slots used.
    pub num_spills: u16,
    /// The exit table, indexed by exit id: `stitch[e]` is the fragment
    /// index exit `e` jumps to once a branch trace is attached by **trace
    /// stitching** (§6.2), or [`EXIT_UNSTITCHED`] while it still returns
    /// to the monitor. This is the tree's only link table: the monitor
    /// reads it to tell an exit that already has a branch.
    pub stitch: Vec<u32>,
}

impl Fragment {
    /// A fragment whose `num_exits` exits all return to the monitor.
    pub fn new(code: Vec<MachInst>, num_spills: u16, num_exits: usize) -> Self {
        Fragment { code, num_spills, stitch: vec![EXIT_UNSTITCHED; num_exits] }
    }

    /// Trace stitching: exit `exit` jumps to fragment `target` of the same
    /// tree from now on instead of returning to the monitor.
    pub fn stitch_exit(&mut self, exit: u16, target: u32) {
        self.stitch[exit as usize] = target;
    }

    /// Renders the fragment as a Figure-4 style listing.
    pub fn listing(&self) -> String {
        self.code.iter().enumerate().map(|(pc, inst)| format!("  {pc:4}: {inst:?}\n")).collect()
    }

    /// Number of machine instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the fragment is empty.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }
}
