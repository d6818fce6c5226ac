//! The forward optimization pipeline (§5.1).
//!
//! "Every time the trace recorder emits a LIR instruction, the instruction
//! is immediately passed to the first filter in the forward pipeline" — a
//! [`LirBuffer`] is that pipeline. Each `emit` call streams the instruction
//! through (in order):
//!
//! 1. the **soft-float** filter (optional): double arithmetic → helper
//!    calls, for ISAs without floating point;
//! 2. **expression simplification**: constant folding and algebraic
//!    identities (`a - a = 0`, `x * 1 = x`, ...);
//! 3. the **semantic-specific** filter: INT↔DOUBLE identities that let
//!    DOUBLE be replaced with INT (e.g. `Box(Double, I2D(x)) → Box(Int, x)`,
//!    `D2IChk(I2D(x)) → x`);
//! 4. **CSE** over pure/guarded computations and (memory-generation-aware)
//!    loads.
//!
//! A filter may pass the instruction through, substitute an existing SSA
//! value, rewrite it, or drop it entirely — the same contract as the
//! paper's pipelined filters.

use std::collections::HashMap;

use crate::ir::{ExitId, Lir, LirId, LirTrace};
use crate::opclass::{AluOp, FOp, Tag};

/// Which forward filters run. All are on by default, which is what the
/// recorder uses; tests turn them off for an unoptimized reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterOptions {
    /// Constant folding + algebraic simplification.
    pub fold: bool,
    /// Common subexpression elimination.
    pub cse: bool,
    /// INT↔DOUBLE demotion identities.
    pub demote: bool,
}

impl Default for FilterOptions {
    fn default() -> Self {
        FilterOptions { fold: true, cse: true, demote: true }
    }
}

/// Counters describing what the filters did (tests, diagnostics).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FilterStats {
    /// Instructions folded to constants or simplified algebraically.
    pub folded: u64,
    /// Instructions eliminated by CSE.
    pub csed: u64,
    /// INT↔DOUBLE round trips removed.
    pub demoted: u64,
    /// Guards dropped because their condition was provably satisfied.
    pub guards_elided: u64,
}

/// Sentinel id returned by [`LirBuffer::emit`] for effect-only
/// instructions that were dropped by a filter. Never a valid operand.
pub const NO_VALUE: LirId = LirId::MAX;

/// The streaming LIR emission buffer with its forward filter pipeline.
#[derive(Debug)]
pub struct LirBuffer {
    trace: LirTrace,
    opts: FilterOptions,
    stats: FilterStats,
    cse: HashMap<(Lir, u32), LirId>,
    mem_gen: u32,
}

impl LirBuffer {
    /// Creates an empty buffer with the given filter configuration.
    pub fn new(opts: FilterOptions) -> LirBuffer {
        LirBuffer {
            trace: LirTrace::new(),
            opts,
            stats: FilterStats::default(),
            cse: HashMap::new(),
            mem_gen: 0,
        }
    }

    /// The trace built so far.
    pub fn trace(&self) -> &LirTrace {
        &self.trace
    }

    /// Consumes the buffer, returning the finished trace.
    pub fn into_trace(self) -> LirTrace {
        self.trace
    }

    /// Filter activity counters.
    pub fn stats(&self) -> FilterStats {
        self.stats
    }

    /// Allocates a fresh side-exit id.
    pub fn alloc_exit(&mut self) -> ExitId {
        let id = ExitId(self.trace.num_exits);
        self.trace.num_exits += 1;
        id
    }

    /// The instruction defining `id`.
    pub fn inst(&self, id: LirId) -> &Lir {
        &self.trace.code[id as usize]
    }

    /// Emits `inst` through the forward pipeline, returning the SSA id of
    /// the resulting value. Returns [`NO_VALUE`] when an effect-only
    /// instruction was dropped.
    pub fn emit(&mut self, inst: Lir) -> LirId {
        let inst = if self.opts.fold {
            match self.fold(inst) {
                Filtered::Value(id) => return id,
                Filtered::Dropped => return NO_VALUE,
                Filtered::Keep(i) => i,
            }
        } else {
            inst
        };
        let inst = if self.opts.demote {
            match self.demote(inst) {
                Filtered::Value(id) => return id,
                Filtered::Dropped => return NO_VALUE,
                Filtered::Keep(i) => i,
            }
        } else {
            inst
        };
        if self.opts.cse {
            if let Some(id) = self.try_cse(&inst) {
                self.stats.csed += 1;
                return id;
            }
        }
        self.push(inst)
    }

    /// Appends without filtering (used by the filters themselves and by
    /// tests).
    pub fn push(&mut self, inst: Lir) -> LirId {
        if inst.clobbers_memory() {
            self.mem_gen += 1;
        }
        let id = self.trace.code.len() as LirId;
        if self.opts.cse && (inst.is_pure() || cse_guarded(&inst) || inst.is_load()) {
            let key = self.cse_key(&inst);
            self.cse.insert(key, id);
        }
        self.trace.code.push(inst);
        id
    }

    /// Guarded ops key on everything but their exit id (it differs per
    /// site; the earlier identical computation's guard already ran).
    fn cse_key(&self, inst: &Lir) -> (Lir, u32) {
        let gen = if inst.is_load() { self.mem_gen } else { 0 };
        let mut key = inst.clone();
        if let Some(e) = key.exit_mut() {
            *e = ExitId(0);
        }
        (key, gen)
    }

    fn try_cse(&self, inst: &Lir) -> Option<LirId> {
        if !(inst.is_pure() || cse_guarded(inst) || inst.is_load()) {
            return None;
        }
        self.cse.get(&self.cse_key(inst)).copied()
    }

    // ---- expression simplification ----

    fn fold(&mut self, inst: Lir) -> Filtered {
        use Filtered::{Keep, Value};
        use Lir::*;
        let code = &self.trace.code;
        let ci = |id: LirId| match code[id as usize] {
            ConstI(v) => Some(v),
            _ => None,
        };
        let cd = |id: LirId| match code[id as usize] {
            ConstD(bits) => Some(f64::from_bits(bits)),
            _ => None,
        };
        let cb = |id: LirId| match code[id as usize] {
            ConstBool(v) => Some(v),
            _ => None,
        };
        let const_d = |x: f64| ConstD(x.to_bits());

        let folded = match inst {
            AluI(op, a, b) => {
                let eval = |x, y| op.eval(x, y);
                fold_binary(alu_identities(op), (a, b), (ci(a), ci(b)), eval, ConstI)
            }
            AluD(op, a, b) => {
                let bits = |id| cd(id).map(f64::to_bits);
                let eval = |x, y| op.eval(f64::from_bits(x), f64::from_bits(y)).to_bits();
                fold_binary(f_identities(op), (a, b), (bits(a), bits(b)), eval, ConstD)
            }
            CmpI(op, a, b) => ci(a).zip(ci(b)).map(|(x, y)| Keep(ConstBool(op.eval(x, y)))),
            CmpD(op, a, b) => cd(a).zip(cd(b)).map(|(x, y)| Keep(ConstBool(op.eval(x, y)))),
            NotI(a) => ci(a).map(|x| Keep(ConstI(!x))),
            NegI(a) => ci(a).map(|x| Keep(ConstI(x.wrapping_neg()))),
            NegD(a) => cd(a).map(|x| Keep(const_d(-x))),
            NotB(a) => match code[a as usize] {
                ConstBool(x) => Some(Keep(ConstBool(!x))),
                NotB(inner) => Some(Value(inner)),
                _ => None,
            },
            I2D(a) => ci(a).map(|x| Keep(const_d(f64::from(x)))),
            U2D(a) => ci(a).map(|x| Keep(const_d(f64::from(x as u32)))),
            D2I32(a) => cd(a).map(|x| Keep(ConstI(tm_runtime::ops::double_to_int32(x)))),
            GuardTrue(c, _) | GuardFalse(c, _) => {
                if cb(c) == Some(matches!(inst, GuardTrue(..))) {
                    self.stats.guards_elided += 1;
                    return Filtered::Dropped;
                }
                None
            }
            Box(Tag::Int, a) => ci(a)
                .and_then(|x| tm_runtime::Value::new_int_checked(i64::from(x)))
                .map(|v| Keep(ConstBoxed(v.raw()))),
            Box(Tag::Bool, a) => {
                cb(a).map(|x| Keep(ConstBoxed(tm_runtime::Value::new_bool(x).raw())))
            }
            _ => None,
        };
        self.stats.folded += u64::from(folded.is_some());
        folded.unwrap_or(Keep(inst))
    }

    // ---- INT↔DOUBLE demotion identities ----

    fn demote(&mut self, inst: Lir) -> Filtered {
        use Lir::*;
        let def = |id: LirId| &self.trace.code[id as usize];
        let demoted = match inst {
            // int → double → int round trips vanish.
            D2IChk(a, _) | D2I32(a) => match *def(a) {
                I2D(x) => Some(Filtered::Value(x)),
                _ => None,
            },
            // double → guarded int → double: the guard proved integrality.
            I2D(a) => match *def(a) {
                D2IChk(x, _) => Some(Filtered::Value(x)),
                _ => None,
            },
            // Boxing an int-valued double is boxing the int: no allocation
            // while the int is in the boxable range.
            Box(Tag::Double, a) => match *def(a) {
                I2D(x) => Some(Filtered::Keep(Box(Tag::Int, x))),
                _ => None,
            },
            // Unboxing a value we just boxed.
            Unbox(Tag::Double, a, _) | UnboxNumD(a, _) => match *def(a) {
                Box(Tag::Double, x) => Some(Filtered::Value(x)),
                Box(Tag::Int, x) => Some(Filtered::Keep(I2D(x))),
                _ => None,
            },
            Unbox(tag @ (Tag::Int | Tag::Bool), a, _) => match *def(a) {
                Box(t, x) if t == tag => Some(Filtered::Value(x)),
                _ => None,
            },
            _ => None,
        };
        self.stats.demoted += u64::from(demoted.is_some());
        demoted.unwrap_or(Filtered::Keep(inst))
    }
}

/// The algebraic identities `fold` applies to one binary op, as data. Every
/// row is checked against the op's `eval` by the tests below.
struct Identities<T> {
    /// `x ⊗ right == x`.
    right: Option<T>,
    /// `left ⊗ x == x`.
    left: Option<T>,
    /// `x ⊗ zero == zero ⊗ x == zero`.
    zero: Option<T>,
    /// What `x ⊗ x` is.
    same: Option<Same<T>>,
}

#[derive(Clone, Copy)]
enum Same<T> {
    /// `x ⊗ x` is this constant (the paper's `a − a = 0`).
    Const(T),
    /// `x ⊗ x == x`.
    Operand,
}

fn alu_identities(op: AluOp) -> Identities<i32> {
    let row = |right, left, zero, same| Identities { right, left, zero, same };
    match op {
        AluOp::Add => row(Some(0), Some(0), None, None),
        AluOp::Sub => row(Some(0), None, None, Some(Same::Const(0))),
        AluOp::Mul => row(Some(1), Some(1), Some(0), None),
        AluOp::And => row(Some(-1), Some(-1), Some(0), Some(Same::Operand)),
        AluOp::Or => row(Some(0), Some(0), None, Some(Same::Operand)),
        AluOp::Xor => row(Some(0), None, None, Some(Same::Const(0))),
        AluOp::Shl | AluOp::Shr => row(Some(0), None, None, None),
        AluOp::UShr => row(None, None, None, None),
    }
}

/// Double identities, as bit patterns: a row must hold for every `x`
/// including `-0.0`, NaN and the infinities, so `x + 0.0` (which turns
/// `-0.0` into `+0.0`) is absent and `x - 0.0` matches `+0.0` only.
fn f_identities(op: FOp) -> Identities<u64> {
    let row = |right: Option<f64>, left: Option<f64>| Identities {
        right: right.map(f64::to_bits),
        left: left.map(f64::to_bits),
        zero: None,
        same: None,
    };
    match op {
        FOp::Add | FOp::Mod => row(None, None),
        FOp::Sub => row(Some(0.0), None),
        FOp::Mul => row(Some(1.0), Some(1.0)),
        FOp::Div => row(Some(1.0), None),
    }
}

/// Folds `a ⊗ b` given the operands' constant values, if any: constant ⊗
/// constant through `eval`, then the identity table. `konst` makes the
/// instruction for a constant result.
fn fold_binary<T: Copy + PartialEq>(
    ids: Identities<T>,
    (a, b): (LirId, LirId),
    (x, y): (Option<T>, Option<T>),
    eval: impl FnOnce(T, T) -> T,
    konst: fn(T) -> Lir,
) -> Option<Filtered> {
    if let (Some(x), Some(y)) = (x, y) {
        return Some(Filtered::Keep(konst(eval(x, y))));
    }
    if y.is_some() && y == ids.right {
        return Some(Filtered::Value(a));
    }
    if x.is_some() && x == ids.left {
        return Some(Filtered::Value(b));
    }
    if let Some(z) = ids.zero.filter(|&z| x == Some(z) || y == Some(z)) {
        return Some(Filtered::Keep(konst(z)));
    }
    match ids.same.filter(|_| a == b)? {
        Same::Const(c) => Some(Filtered::Keep(konst(c))),
        Same::Operand => Some(Filtered::Value(a)),
    }
}

enum Filtered {
    /// Keep emitting this (possibly rewritten) instruction.
    Keep(Lir),
    /// The result is an existing SSA value.
    Value(LirId),
    /// Effect-only instruction eliminated.
    Dropped,
}

/// Checked/guarded value-producing ops may be CSE'd against an earlier
/// identical computation (whose guard already ran), and so may the one
/// allocating box (two boxes of one double are interchangeable).
fn cse_guarded(inst: &Lir) -> bool {
    inst.exit().is_some() && inst.result_ty().is_some() && !inst.clobbers_memory()
        || matches!(inst, Lir::Box(Tag::Double, _))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::LirType;
    use crate::opclass::{ChkOp, CmpOp};

    fn buf() -> LirBuffer {
        LirBuffer::new(FilterOptions::default())
    }

    #[test]
    fn constant_folding() {
        let mut b = buf();
        let two = b.emit(Lir::ConstI(2));
        let three = b.emit(Lir::ConstI(3));
        let sum = b.emit(Lir::AluI(AluOp::Add, two, three));
        assert_eq!(*b.inst(sum), Lir::ConstI(5));
        assert!(b.stats().folded >= 1);
    }

    #[test]
    fn algebraic_identities() {
        let mut b = buf();
        let x = b.emit(Lir::Import { slot: 0, ty: LirType::Int });
        let zero = b.emit(Lir::ConstI(0));
        let one = b.emit(Lir::ConstI(1));
        assert_eq!(b.emit(Lir::AluI(AluOp::Add, x, zero)), x);
        assert_eq!(b.emit(Lir::AluI(AluOp::Mul, x, one)), x);
        let diff = b.emit(Lir::AluI(AluOp::Sub, x, x));
        assert_eq!(*b.inst(diff), Lir::ConstI(0), "the paper's a - a = 0");
        let xor = b.emit(Lir::AluI(AluOp::Xor, x, x));
        assert_eq!(*b.inst(xor), Lir::ConstI(0));
    }

    #[test]
    fn double_identities_respect_ieee() {
        let mut b = buf();
        let x = b.emit(Lir::Import { slot: 0, ty: LirType::Double });
        let one = b.emit(Lir::ConstD(1.0f64.to_bits()));
        let zero = b.emit(Lir::ConstD(0.0f64.to_bits()));
        assert_eq!(b.emit(Lir::AluD(FOp::Mul, x, one)), x);
        assert_eq!(b.emit(Lir::AluD(FOp::Sub, x, zero)), x);
        // x + 0.0 must NOT simplify: (-0.0) + 0.0 == +0.0.
        let add = b.emit(Lir::AluD(FOp::Add, x, zero));
        assert_ne!(add, x);
    }

    #[test]
    fn cse_reuses_pure_ops() {
        let mut b = buf();
        let x = b.emit(Lir::Import { slot: 0, ty: LirType::Int });
        let y = b.emit(Lir::Import { slot: 1, ty: LirType::Int });
        let a1 = b.emit(Lir::AluI(AluOp::Add, x, y));
        let a2 = b.emit(Lir::AluI(AluOp::Add, x, y));
        assert_eq!(a1, a2);
        assert_eq!(b.stats().csed, 1);
    }

    #[test]
    fn cse_of_guarded_ops_ignores_exit_ids() {
        let mut b = buf();
        let x = b.emit(Lir::Import { slot: 0, ty: LirType::Boxed });
        let e1 = b.alloc_exit();
        let e2 = b.alloc_exit();
        let u1 = b.emit(Lir::Unbox(Tag::Int, x, e1));
        let u2 = b.emit(Lir::Unbox(Tag::Int, x, e2));
        assert_eq!(u1, u2);
    }

    #[test]
    fn cse_of_loads_is_memory_aware() {
        let mut b = buf();
        let o = b.emit(Lir::Import { slot: 0, ty: LirType::Object });
        let l1 = b.emit(Lir::LoadSlot(o, 2));
        let l2 = b.emit(Lir::LoadSlot(o, 2));
        assert_eq!(l1, l2, "identical loads with no store between CSE");
        let v = b.emit(Lir::ConstBoxed(7));
        b.emit(Lir::StoreSlot(o, 2, v));
        let l3 = b.emit(Lir::LoadSlot(o, 2));
        assert_ne!(l1, l3, "store kills load CSE");
    }

    #[test]
    fn demotion_removes_int_double_round_trips() {
        let mut b = buf();
        let x = b.emit(Lir::Import { slot: 0, ty: LirType::Int });
        let d = b.emit(Lir::I2D(x));
        let e = b.alloc_exit();
        // The paper: "LIR that converts an INT to a DOUBLE and then back
        // again would be removed by this filter."
        assert_eq!(b.emit(Lir::D2IChk(d, e)), x);
        assert_eq!(b.emit(Lir::D2I32(d)), x);
        let boxed = b.emit(Lir::Box(Tag::Double, d));
        assert_eq!(*b.inst(boxed), Lir::Box(Tag::Int, x), "boxing an int-valued double boxes the int");
        assert!(b.stats().demoted >= 3);
    }

    #[test]
    fn box_unbox_round_trips() {
        let mut b = buf();
        let x = b.emit(Lir::Import { slot: 0, ty: LirType::Int });
        let boxed = b.emit(Lir::Box(Tag::Int, x));
        let e = b.alloc_exit();
        assert_eq!(b.emit(Lir::Unbox(Tag::Int, boxed, e)), x);
        let xd = b.emit(Lir::Import { slot: 1, ty: LirType::Double });
        let boxed_d = b.emit(Lir::Box(Tag::Double, xd));
        let e2 = b.alloc_exit();
        assert_eq!(b.emit(Lir::UnboxNumD(boxed_d, e2)), xd);
    }

    #[test]
    fn guards_on_constants_are_elided() {
        let mut b = buf();
        let t = b.emit(Lir::ConstBool(true));
        let e = b.alloc_exit();
        assert_eq!(b.emit(Lir::GuardTrue(t, e)), NO_VALUE);
        assert_eq!(b.stats().guards_elided, 1);
        // GuardTrue on a *false* constant is kept (the trace will exit).
        let f = b.emit(Lir::ConstBool(false));
        let e2 = b.alloc_exit();
        assert_ne!(b.emit(Lir::GuardTrue(f, e2)), NO_VALUE);
    }

    #[test]
    fn filters_can_be_disabled() {
        let mut b = LirBuffer::new(FilterOptions {
            fold: false,
            cse: false,
            demote: false,
        });
        let two = b.emit(Lir::ConstI(2));
        let three = b.emit(Lir::ConstI(3));
        let sum = b.emit(Lir::AluI(AluOp::Add, two, three));
        assert_eq!(*b.inst(sum), Lir::AluI(AluOp::Add, two, three));
        let sum2 = b.emit(Lir::AluI(AluOp::Add, two, three));
        assert_ne!(sum, sum2);
    }

    const INT_EDGES: [i32; 10] =
        [0, 1, -1, -(1 << 30), (1 << 30) - 1, i32::MIN, i32::MAX, 31, 32, -32];
    const DOUBLE_EDGES: [f64; 7] =
        [0.0, -0.0, 1.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

    /// `fold(op(const, const)) == Const(op.eval(..))` for every op of every
    /// family over the edge sets (checked ops are never folded).
    #[test]
    fn constant_folding_is_eval() {
        let mut b = buf();
        for x in INT_EDGES {
            for y in INT_EDGES {
                let (a, c) = (b.emit(Lir::ConstI(x)), b.emit(Lir::ConstI(y)));
                for &op in AluOp::ALL {
                    let r = b.emit(Lir::AluI(op, a, c));
                    assert_eq!(*b.inst(r), Lir::ConstI(op.eval(x, y)), "{op:?}({x}, {y})");
                }
                for &op in CmpOp::ALL {
                    let r = b.emit(Lir::CmpI(op, a, c));
                    assert_eq!(*b.inst(r), Lir::ConstBool(op.eval(x, y)), "{op:?}({x}, {y})");
                }
                for &op in ChkOp::ALL {
                    let e = b.alloc_exit();
                    let r = b.emit(Lir::ChkAluI(op, a, c, e));
                    assert!(matches!(b.inst(r), Lir::ChkAluI(..)), "{op:?} keeps its guard");
                }
            }
        }
        for x in DOUBLE_EDGES {
            for y in DOUBLE_EDGES {
                let a = b.emit(Lir::ConstD(x.to_bits()));
                let c = b.emit(Lir::ConstD(y.to_bits()));
                for &op in FOp::ALL {
                    let r = b.emit(Lir::AluD(op, a, c));
                    let want = Lir::ConstD(op.eval(x, y).to_bits());
                    assert_eq!(*b.inst(r), want, "{op:?}({x}, {y})");
                }
                for &op in CmpOp::ALL {
                    let r = b.emit(Lir::CmpD(op, a, c));
                    assert_eq!(*b.inst(r), Lir::ConstBool(op.eval(x, y)), "{op:?}({x}, {y})");
                }
            }
        }
    }

    /// Every row of the identity tables holds in the op's `eval`, bit for
    /// bit, for every edge value of `x`.
    #[test]
    fn identity_tables_agree_with_eval() {
        fn check<T: Copy + PartialEq + std::fmt::Debug>(
            what: &dyn std::fmt::Debug,
            ids: Identities<T>,
            edges: &[T],
            eval: impl Fn(T, T) -> T,
        ) {
            for &x in edges {
                if let Some(r) = ids.right {
                    assert_eq!(eval(x, r), x, "{what:?}: x ⊗ right, x = {x:?}");
                }
                if let Some(l) = ids.left {
                    assert_eq!(eval(l, x), x, "{what:?}: left ⊗ x, x = {x:?}");
                }
                if let Some(z) = ids.zero {
                    assert_eq!(eval(x, z), z, "{what:?}: x ⊗ zero, x = {x:?}");
                    assert_eq!(eval(z, x), z, "{what:?}: zero ⊗ x, x = {x:?}");
                }
                match ids.same {
                    Some(Same::Const(c)) => assert_eq!(eval(x, x), c, "{what:?}: x ⊗ x"),
                    Some(Same::Operand) => assert_eq!(eval(x, x), x, "{what:?}: x ⊗ x"),
                    None => {}
                }
            }
        }
        for &op in AluOp::ALL {
            check(&op, alu_identities(op), &INT_EDGES, |x, y| op.eval(x, y));
        }
        let edges = DOUBLE_EDGES.map(f64::to_bits);
        for &op in FOp::ALL {
            check(&op, f_identities(op), &edges, |x, y| {
                op.eval(f64::from_bits(x), f64::from_bits(y)).to_bits()
            });
        }
    }

    /// The identities `fold` leaves alone, so the table cannot silently
    /// grow one that changes instruction counts: a commutative op's missing
    /// left identity, and the IEEE traps.
    #[test]
    fn fold_applies_exactly_the_table() {
        let mut b = buf();
        let x = b.emit(Lir::Import { slot: 0, ty: LirType::Int });
        let zero = b.emit(Lir::ConstI(0));
        let ones = b.emit(Lir::ConstI(-1));
        for inst in [
            Lir::AluI(AluOp::Xor, zero, x),
            Lir::AluI(AluOp::Or, x, ones),
            Lir::AluI(AluOp::UShr, x, zero),
            Lir::AluI(AluOp::Sub, zero, x),
        ] {
            let r = b.emit(inst.clone());
            assert_eq!(*b.inst(r), inst);
        }
        assert_eq!(b.emit(Lir::AluI(AluOp::Or, x, x)), x);
        assert_eq!(b.emit(Lir::AluI(AluOp::And, ones, x)), x);
        let r = b.emit(Lir::AluI(AluOp::And, x, zero));
        assert_eq!(*b.inst(r), Lir::ConstI(0));
        let d = b.emit(Lir::Import { slot: 1, ty: LirType::Double });
        let nzero = b.emit(Lir::ConstD((-0.0f64).to_bits()));
        let one = b.emit(Lir::ConstD(1.0f64.to_bits()));
        assert_ne!(b.emit(Lir::AluD(FOp::Sub, d, nzero)), d, "x - (-0.0) is not x for x = -0.0");
        assert_ne!(b.emit(Lir::AluD(FOp::Div, one, d)), d);
        assert_eq!(b.emit(Lir::AluD(FOp::Div, d, one)), d);
        assert_eq!(b.emit(Lir::AluD(FOp::Mul, one, d)), d);
    }
}
