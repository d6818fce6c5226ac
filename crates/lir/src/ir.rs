//! Trace-flavored SSA LIR (the paper's §3.1/§5).
//!
//! A trace is a **linear** sequence of LIR instructions: no join points, no
//! φ-nodes except the implicit entry ([`Lir::Import`] reads the trace
//! activation record, which is both the entry state and the loop-carried
//! state). Control flow appears only as **guards** — instructions that
//! conditionally leave the trace through a numbered side exit — and the
//! final [`Lir::LoopBack`]/[`Lir::End`].
//!
//! Integer values on trace are 32-bit two's-complement, but the *boxable*
//! integer range is the 31-bit inline range of the value tagging scheme, so
//! the checked arithmetic ops ([`Lir::ChkAluI`], ...) guard the 31-bit range: this
//! is exactly the "adding two integers can produce a value too large for
//! the integer representation" guard of §3.1.

use tm_runtime::Helper;

use crate::opclass::{AluOp, ChkOp, CmpOp, FOp, Tag};

/// Index of an instruction within a trace (SSA value id).
pub type LirId = u32;

/// Index of a side exit within a trace's exit table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExitId(pub u16);

/// Index of a slot in the trace activation record.
pub type ArSlot = u16;

/// The type of an SSA value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LirType {
    /// Unboxed 32-bit integer (boxable subset: 31-bit).
    Int,
    /// Unboxed IEEE-754 double.
    Double,
    /// Object handle.
    Object,
    /// String handle.
    String,
    /// Boolean (0/1 in a word).
    Bool,
    /// The constant `null`.
    Null,
    /// The constant `undefined`.
    Undefined,
    /// A raw boxed value word (tagged).
    Boxed,
}

impl LirType {
    /// Single-letter prefix used by the printer (`i3`, `d7`, ...).
    pub fn prefix(self) -> char {
        match self {
            LirType::Int => 'i',
            LirType::Double => 'd',
            LirType::Object => 'o',
            LirType::String => 's',
            LirType::Bool => 'b',
            LirType::Null => 'n',
            LirType::Undefined => 'u',
            LirType::Boxed => 'v',
        }
    }
}

/// One LIR instruction.
///
/// Operand fields name the SSA ids of inputs; each instruction defines at
/// most one SSA value (its own id).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Lir {
    // ---- constants ----
    /// Integer constant.
    ConstI(i32),
    /// Double constant (bit pattern, so the type is `Eq`-friendly).
    ConstD(u64),
    /// Object-handle constant.
    ConstObj(u32),
    /// String-handle constant.
    ConstStr(u32),
    /// Boolean constant.
    ConstBool(bool),
    /// Raw boxed word constant (`undefined`, `null`, boxed booleans).
    ConstBoxed(u64),

    // ---- trace activation record ----
    /// Entry read of AR slot `slot` with the entry type `ty` — the trace's
    /// φ-node. The monitor unboxes interpreter state into the AR before
    /// entering (§6.1).
    Import {
        /// AR slot index.
        slot: ArSlot,
        /// Unboxed type of the slot.
        ty: LirType,
    },
    /// Store `v` to AR slot `slot` — the paper's "stores to the interpreter
    /// stack" (Figure 3), candidates for dead-store elimination (§5.1).
    WriteAr {
        /// AR slot index.
        slot: ArSlot,
        /// Value to store (raw word).
        v: LirId,
    },

    // ---- arithmetic and comparison families (the operation is the
    //      `opclass` enum; its `eval` is the semantics) ----
    /// Unchecked 32-bit integer ALU op: the result is provably in range,
    /// or wrap semantics are wanted (shift counts are masked to 5 bits).
    AluI(AluOp, LirId, LirId),
    /// Bitwise not.
    NotI(LirId),
    /// Integer negate (unchecked).
    NegI(LirId),
    /// Checked integer ALU op: exits when the exact result leaves the
    /// boxable 31-bit range (§3.1 overflow guards).
    ChkAluI(ChkOp, LirId, LirId, ExitId),
    /// Checked negate (also exits on -0).
    NegIChk(LirId, ExitId),
    /// Checked remainder (exits on zero divisor or -0 result).
    ModIChk(LirId, LirId, ExitId),
    /// Double arithmetic.
    AluD(FOp, LirId, LirId),
    /// Double negate.
    NegD(LirId),
    /// Integer compare (produces Bool).
    CmpI(CmpOp, LirId, LirId),
    /// Double compare (produces Bool; NaN compares false).
    CmpD(CmpOp, LirId, LirId),
    /// Boolean not (input Bool).
    NotB(LirId),

    // ---- conversions (§3.1: "type conversions ... are represented by
    //      function calls" — here dedicated ops the backend may inline) ----
    /// Exact int → double.
    I2D(LirId),
    /// u32 bits → double (for `>>>` results).
    U2D(LirId),
    /// Double → int, exiting unless the value is integral and in the
    /// 31-bit range (used for indices and demotion).
    D2IChk(LirId, ExitId),
    /// JS `ToInt32` wrap of a double (deterministic, no guard).
    D2I32(LirId),
    /// Guard that a full-range i32 value fits the boxable 31-bit range
    /// (used after `ToInt32` conversions whose observed results were
    /// boxable ints); the result is the same value, typed Int-in-range.
    ChkRangeI(LirId, ExitId),

    // ---- boxing / unboxing ----
    /// Box an unboxed value of representation `Tag` into a tagged word.
    /// `Bool`, `Object` and `String` are pure bit tagging. `Double`
    /// allocates a heap double unless the value is integral and fits the
    /// inline 31-bit range; `Int` is inline in that range and allocates a
    /// heap double outside it (the demotion filter turns `Box(Double,
    /// I2D(x))` into `Box(Int, x)` for full-range `x`). An allocation that
    /// crosses the GC threshold flags the collection for the next loop
    /// edge or exit.
    Box(Tag, LirId),
    /// Unbox a tagged word as `Tag`, exiting when it carries another tag
    /// (`Double` accepts only a heap double, not an inline int).
    Unbox(Tag, LirId, ExitId),
    /// Unbox any number as double, exiting when not a number.
    UnboxNumD(LirId, ExitId),

    // ---- guards ----
    /// Exit unless the Bool operand is true.
    GuardTrue(LirId, ExitId),
    /// Exit unless the Bool operand is false.
    GuardFalse(LirId, ExitId),
    /// Exit unless the object's shape id equals `shape` (§3.1 object
    /// representation guard).
    GuardShape {
        /// Object operand.
        obj: LirId,
        /// Required shape id.
        shape: u32,
        /// Exit on mismatch.
        exit: ExitId,
    },
    /// Exit unless the object's class word equals `class` (Figure 3's
    /// array check).
    GuardClass {
        /// Object operand.
        obj: LirId,
        /// Required class (`ObjectClass` as u8).
        class: u8,
        /// Exit on mismatch.
        exit: ExitId,
    },
    /// Exit unless the boxed operand bit-equals `word` (guards observed
    /// `null`/`undefined`/bool values and function identity).
    GuardBoxedEq(LirId, u64, ExitId),
    /// Exit unless `0 <= idx < elements.len()` for array `arr`.
    GuardBound {
        /// Array operand.
        arr: LirId,
        /// Int index operand.
        idx: LirId,
        /// Exit when out of bounds.
        exit: ExitId,
    },

    // ---- memory ----
    /// Read property slot `slot` of an object: one indexed load (§3.1).
    LoadSlot(LirId, u32),
    /// Write property slot `slot` of an object.
    StoreSlot(LirId, u32, LirId),
    /// Read the prototype link.
    LoadProto(LirId),
    /// Read dense element `idx` (must be guarded in-bounds).
    LoadElem(LirId, LirId),
    /// Write dense element `idx` (must be guarded in-bounds).
    StoreElem(LirId, LirId, LirId),
    /// Dense length of an array.
    ArrayLen(LirId),
    /// Length of a string.
    StrLen(LirId),

    // ---- calls ----
    /// Call a runtime helper (§6.5 FFI; also `js_Array_set`-style runtime
    /// services). Arguments are raw words in the helper's convention.
    Call {
        /// The helper to call.
        helper: Helper,
        /// Argument values.
        args: Box<[LirId]>,
        /// Result type.
        ret: LirType,
        /// Exit taken when the helper reports a deep bail (reentry, error).
        exit: ExitId,
    },
    /// Call a nested trace tree (§4): executes the inner loop to
    /// completion. Exits through `exit` when the inner tree left through an
    /// unexpected side exit.
    CallTree {
        /// Key of the inner tree in the tree registry.
        tree: u32,
        /// Exit taken on unexpected inner exit.
        exit: ExitId,
    },

    // ---- trace ends ----
    /// Jump back to the tree anchor (type-stable loop edge). Carries the
    /// exit used for preemption/GC bail-outs at the loop edge (§6.4).
    LoopBack(ExitId),
    /// Unconditional exit (type-unstable tail, or a trace that leaves the
    /// loop).
    End(ExitId),
}

/// The one per-variant list of operand fields: calls `$f` on each operand
/// of `$inst` in order, by `&` or `&mut` following `$inst`'s borrow.
macro_rules! for_each_operand {
    ($inst:expr, $f:expr) => {{
        use Lir::*;
        match $inst {
            ConstI(_) | ConstD(_) | ConstObj(_) | ConstStr(_) | ConstBool(_) | ConstBoxed(_)
            | Import { .. } | CallTree { .. } | LoopBack(_) | End(_) => {}
            WriteAr { v: a, .. }
            | NotI(a)
            | NegI(a)
            | NegIChk(a, _)
            | NegD(a)
            | NotB(a)
            | I2D(a)
            | U2D(a)
            | D2IChk(a, _)
            | D2I32(a)
            | ChkRangeI(a, _)
            | Box(_, a)
            | Unbox(_, a, _)
            | UnboxNumD(a, _)
            | GuardTrue(a, _)
            | GuardFalse(a, _)
            | GuardShape { obj: a, .. }
            | GuardClass { obj: a, .. }
            | GuardBoxedEq(a, _, _)
            | LoadSlot(a, _)
            | LoadProto(a)
            | ArrayLen(a)
            | StrLen(a) => $f(a),
            AluI(_, a, b)
            | ChkAluI(_, a, b, _)
            | ModIChk(a, b, _)
            | AluD(_, a, b)
            | CmpI(_, a, b)
            | CmpD(_, a, b)
            | GuardBound { arr: a, idx: b, .. }
            | StoreSlot(a, _, b)
            | LoadElem(a, b) => {
                $f(a);
                $f(b);
            }
            StoreElem(a, i, v) => {
                $f(a);
                $f(i);
                $f(v);
            }
            Call { args, .. } => {
                for a in args {
                    $f(a);
                }
            }
        }
    }};
}

/// The one per-variant list of exit fields (`&` or `&mut` like above).
macro_rules! exit_field {
    ($inst:expr) => {{
        use Lir::*;
        match $inst {
            ChkAluI(_, _, _, e)
            | ModIChk(_, _, e)
            | NegIChk(_, e)
            | D2IChk(_, e)
            | ChkRangeI(_, e)
            | Unbox(_, _, e)
            | UnboxNumD(_, e)
            | GuardTrue(_, e)
            | GuardFalse(_, e)
            | GuardBoxedEq(_, _, e)
            | GuardShape { exit: e, .. }
            | GuardClass { exit: e, .. }
            | GuardBound { exit: e, .. }
            | Call { exit: e, .. }
            | CallTree { exit: e, .. }
            | LoopBack(e)
            | End(e) => Some(e),
            _ => None,
        }
    }};
}

impl Lir {
    /// The type of the SSA value this instruction defines, or `None` for
    /// pure effects (stores, guards, trace ends).
    pub fn result_ty(&self) -> Option<LirType> {
        use Lir::*;
        Some(match self {
            ConstI(_) => LirType::Int,
            ConstD(_) => LirType::Double,
            ConstObj(_) => LirType::Object,
            ConstStr(_) => LirType::String,
            ConstBool(_) => LirType::Bool,
            ConstBoxed(_) => LirType::Boxed,
            Import { ty, .. } => *ty,
            AluI(..) | NotI(_) | NegI(_) | ChkAluI(..) | NegIChk(..) | ModIChk(..) => LirType::Int,
            AluD(..) | NegD(_) | I2D(_) | U2D(_) | UnboxNumD(..) => LirType::Double,
            CmpI(..) | CmpD(..) | NotB(_) => LirType::Bool,
            D2IChk(..) | D2I32(_) | ChkRangeI(..) | ArrayLen(_) | StrLen(_) => LirType::Int,
            Box(..) | LoadSlot(..) | LoadElem(..) => LirType::Boxed,
            Unbox(tag, ..) => tag.ty(),
            LoadProto(_) => LirType::Object,
            Call { ret, .. } => *ret,
            WriteAr { .. } | StoreSlot(..) | StoreElem(..) | GuardTrue(..) | GuardFalse(..)
            | GuardShape { .. } | GuardClass { .. } | GuardBoxedEq(..) | GuardBound { .. }
            | CallTree { .. } | LoopBack(_) | End(_) => return None,
        })
    }

    /// Whether the instruction is pure (no side effects, no guard): safe to
    /// CSE and to remove when unused.
    pub fn is_pure(&self) -> bool {
        use Lir::*;
        match self {
            ConstI(_) | ConstD(_) | ConstObj(_) | ConstStr(_) | ConstBool(_) | ConstBoxed(_)
            | AluI(..) | NotI(_) | NegI(_) | AluD(..) | NegD(_) | CmpI(..) | CmpD(..)
            | NotB(_) | I2D(_) | U2D(_) | D2I32(_) => true,
            Box(tag, _) => *tag != Tag::Double,
            _ => false,
        }
    }

    /// The side exit this guard or checked op can take, if any.
    pub fn exit(&self) -> Option<ExitId> {
        exit_field!(self).copied()
    }

    /// Mutable access to the exit of [`Lir::exit`].
    pub fn exit_mut(&mut self) -> Option<&mut ExitId> {
        exit_field!(self)
    }

    /// Whether this is a memory load (invalidated by stores/calls for CSE).
    pub fn is_load(&self) -> bool {
        matches!(
            self,
            Lir::LoadSlot(..)
                | Lir::LoadElem(..)
                | Lir::LoadProto(_)
                | Lir::ArrayLen(_)
                | Lir::StrLen(_)
        )
    }

    /// Whether this instruction writes memory or has arbitrary effects
    /// (kills CSE'd loads).
    pub fn clobbers_memory(&self) -> bool {
        matches!(
            self,
            Lir::StoreSlot(..) | Lir::StoreElem(..) | Lir::Call { .. } | Lir::CallTree { .. }
        )
    }

    /// Collects the operand ids into `out`, in field order.
    pub fn operands(&self, out: &mut Vec<LirId>) {
        let mut f = |id: &LirId| out.push(*id);
        for_each_operand!(self, f);
    }

    /// Calls `f` on every operand id, in the order of [`Lir::operands`].
    pub fn operands_mut(&mut self, mut f: impl FnMut(&mut LirId)) {
        for_each_operand!(self, f);
    }
}

/// A recorded trace: linear LIR plus its entry/AR metadata.
///
/// The exit descriptor table itself lives with the tracer (`tm-core`),
/// which knows how to reconstruct interpreter state; LIR only references
/// exits by [`ExitId`].
#[derive(Debug, Clone, Default)]
pub struct LirTrace {
    /// The instructions; index = SSA id.
    pub code: Vec<Lir>,
    /// Number of side exits referenced.
    pub num_exits: u16,
}

impl LirTrace {
    /// Creates an empty trace.
    pub fn new() -> LirTrace {
        LirTrace::default()
    }

    /// The type of SSA value `id`.
    pub fn ty(&self, id: LirId) -> Option<LirType> {
        self.code[id as usize].result_ty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_types() {
        assert_eq!(Lir::ConstI(3).result_ty(), Some(LirType::Int));
        assert_eq!(Lir::AluD(FOp::Add, 0, 1).result_ty(), Some(LirType::Double));
        assert_eq!(Lir::CmpI(CmpOp::Lt, 0, 1).result_ty(), Some(LirType::Bool));
        assert_eq!(Lir::LoadSlot(0, 2).result_ty(), Some(LirType::Boxed));
        assert_eq!(Lir::GuardTrue(0, ExitId(0)).result_ty(), None);
        for &tag in Tag::ALL {
            assert_eq!(Lir::Unbox(tag, 0, ExitId(1)).result_ty(), Some(tag.ty()));
            assert_eq!(Tag::of(tag.ty()), Some(tag));
        }
        assert_eq!(Tag::of(LirType::Boxed), None);
    }

    #[test]
    fn purity_and_exits() {
        assert!(Lir::AluI(AluOp::Add, 0, 1).is_pure());
        assert!(!Lir::ChkAluI(ChkOp::Add, 0, 1, ExitId(0)).is_pure());
        assert!(Lir::Box(Tag::Int, 0).is_pure());
        assert!(!Lir::Box(Tag::Double, 0).is_pure(), "allocates");
        assert!(!Lir::LoadSlot(0, 0).is_pure(), "loads are not CSE-pure without memory tracking");
        assert_eq!(Lir::ChkAluI(ChkOp::Add, 0, 1, ExitId(3)).exit(), Some(ExitId(3)));
        assert_eq!(Lir::AluI(AluOp::Add, 0, 1).exit(), None);
        assert!(Lir::StoreElem(0, 1, 2).clobbers_memory());
        assert!(Lir::LoadElem(0, 1).is_load());
    }

    #[test]
    fn operand_collection() {
        let mut out = Vec::new();
        Lir::StoreElem(5, 6, 7).operands(&mut out);
        assert_eq!(out, vec![5, 6, 7]);
        out.clear();
        Lir::Call {
            helper: Helper::Sin,
            args: vec![3].into_boxed_slice(),
            ret: LirType::Double,
            exit: ExitId(0),
        }
        .operands(&mut out);
        assert_eq!(out, vec![3]);
        out.clear();
        Lir::ConstI(1).operands(&mut out);
        assert!(out.is_empty());
    }
}
