//! Bytecode instruction set and program representation.
//!
//! The interpreter is a stack machine. Following the paper's §3.3, the
//! bytecode compiler guarantees that **a bytecode is a loop header iff it is
//! the target of a backward branch**, and marks each loop header with an
//! explicit [`Op::LoopHeader`] pseudo-instruction. The trace monitor is
//! invoked only at these ops; blacklisting *patches* a `LoopHeader` into a
//! plain [`Op::Nop`] so a blacklisted loop never pays monitor overhead
//! again.

use tm_runtime::Sym;

/// Index of a function within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Identifier of a loop within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoopId(pub u16);

/// A decoded bytecode instruction.
///
/// Operand conventions: `u16` indexes reference the program-wide constant
/// pools ([`Program::numbers`], [`Program::atoms`]) or frame-local slots;
/// jump targets are absolute instruction indexes within the function.
/// Sentinel property-site id: the site exceeds the per-program IC table
/// and always takes the uncached slow path (engines index their IC table
/// with a bounds check, so the sentinel simply never lands in it).
pub const NO_PROP_SITE: u16 = u16::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Hash)]
pub enum Op {
    // -- constants --
    /// Push an inline integer.
    Int(i32),
    /// Push numeric constant `numbers[n]` (materialized once at install).
    Num(u16),
    /// Push string constant `atoms[n]`.
    Str(u16),
    /// Push `true`.
    True,
    /// Push `false`.
    False,
    /// Push `null`.
    Null,
    /// Push `undefined`.
    Undefined,

    // -- variables --
    /// Push local slot `n` (slot 0 is `this`, then parameters, then vars).
    GetLocal(u16),
    /// Pop into local slot `n`.
    SetLocal(u16),
    /// Push global slot `n`.
    GetGlobal(u32),
    /// Pop into global slot `n`.
    SetGlobal(u32),

    // -- stack --
    /// Pop and discard.
    Pop,
    /// Duplicate the top of stack.
    Dup,
    /// Swap the top two values.
    Swap,

    // -- operators --
    /// `+` (add or concatenate)
    Add,
    /// binary `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// unary `-`
    Neg,
    /// unary `+` (ToNumber)
    Pos,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `>>>`
    UShr,
    /// `~`
    BitNot,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `===`
    StrictEq,
    /// `!==`
    StrictNe,
    /// `!`
    Not,
    /// `typeof`
    Typeof,

    // -- objects --
    /// Pop `n` elements, push a new array containing them.
    NewArray(u16),
    /// Push a new empty plain object.
    NewObject,
    /// Stack `[obj, val]` → `[obj]`: define property `sym` (object
    /// literals). The second operand is this site's program-wide property
    /// inline-cache id (`0..Program::prop_sites`, or [`NO_PROP_SITE`] on
    /// the rare program with more sites than fit — such sites take the
    /// uncached slow path). `u16` so `Op` stays 8 bytes.
    InitProp(Sym, u16),
    /// Stack `[obj]` → `[value]`: read property `sym`. Second operand:
    /// property IC site id.
    GetProp(Sym, u16),
    /// Stack `[obj, val]` → `[val]`: write property `sym`. Second operand:
    /// property IC site id.
    SetProp(Sym, u16),
    /// Stack `[obj, idx]` → `[value]`.
    GetElem,
    /// Stack `[obj, idx, val]` → `[val]`.
    SetElem,

    // -- calls --
    /// Stack `[callee, this, arg0..argN-1]` → `[result]`.
    Call(u8),
    /// Stack `[callee, arg0..argN-1]` → `[result]`: construct.
    New(u8),
    /// Pop the return value and return from the current frame.
    Return,
    /// Return `undefined`.
    ReturnUndef,

    // -- control flow --
    /// Unconditional jump.
    Jump(u32),
    /// Pop; jump when falsy.
    JumpIfFalse(u32),
    /// Pop; jump when truthy.
    JumpIfTrue(u32),
    /// `&&`: if top is falsy jump (keeping it); else pop.
    AndJump(u32),
    /// `||`: if top is truthy jump (keeping it); else pop.
    OrJump(u32),
    /// Loop header marker: the trace monitor hook (§3.3). Patched to
    /// [`Op::Nop`] when the loop is blacklisted.
    LoopHeader(LoopId),
    /// No-op (blacklisted loop header).
    Nop,
}

/// Static description of one loop in a function.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LoopInfo {
    /// The loop id (index into [`Function::loops`]).
    pub id: LoopId,
    /// Instruction index of the `LoopHeader` op.
    pub header: u32,
    /// Instruction index one past the loop's last instruction (its backward
    /// jump). `header..end` is the loop body range; used to decide loop
    /// nesting (§4.1: "given two loop edges, the system can easily
    /// determine whether they are nested and which is the inner loop").
    pub end: u32,
    /// Source line of the loop.
    pub line: u32,
}

impl LoopInfo {
    /// Whether `other` is strictly nested inside this loop.
    pub fn contains(&self, other: &LoopInfo) -> bool {
        self.header < other.header && other.end <= self.end && self != other
    }

    /// Whether instruction index `pc` is inside the loop body.
    pub fn contains_pc(&self, pc: u32) -> bool {
        (self.header..self.end).contains(&pc)
    }
}

/// A compiled function.
#[derive(Debug, Clone, Hash)]
pub struct Function {
    /// Diagnostic name (`"<main>"` for the script body).
    pub name: String,
    /// Number of declared parameters.
    pub nparams: u16,
    /// Total local slots: `1 (this) + nparams + vars + compiler temps`.
    pub nlocals: u16,
    /// The instruction stream.
    pub code: Vec<Op>,
    /// Source line for each instruction (parallel to `code`).
    pub lines: Vec<u32>,
    /// Loops in this function, indexed by [`LoopId`].
    pub loops: Vec<LoopInfo>,
}

impl Function {
    /// The innermost loop containing `pc`, if any.
    pub fn innermost_loop_at(&self, pc: u32) -> Option<&LoopInfo> {
        self.loops
            .iter()
            .filter(|l| l.contains_pc(pc))
            .min_by_key(|l| l.end - l.header)
    }

    /// The loop whose header is exactly `pc`, if any.
    pub fn loop_with_header(&self, pc: u32) -> Option<&LoopInfo> {
        self.loops.iter().find(|l| l.header == pc)
    }
}

/// A compiled program: functions plus program-wide constant pools.
#[derive(Debug, Clone)]
pub struct Program {
    /// All functions; `functions[main.0]` is the script body.
    pub functions: Vec<Function>,
    /// The entry function (script body).
    pub main: FuncId,
    /// Numeric constants (f64); materialized to boxed values at install.
    pub numbers: Vec<f64>,
    /// String constants (latin-1 code units); materialized at install.
    pub atoms: Vec<Vec<u8>>,
    /// Global slots assigned to declared functions: `(global slot, func)`.
    pub function_globals: Vec<(u32, FuncId)>,
    /// Number of property-access sites (`GetProp`/`SetProp`/`InitProp`)
    /// across all functions. Each site's opcode carries a dense id below
    /// this count; engines size their inline-cache tables from it.
    pub prop_sites: u32,
}

impl Program {
    /// The function table entry for `id`.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.0 as usize]
    }

    /// Total bytecode length across all functions (diagnostics).
    pub fn code_len(&self) -> usize {
        self.functions.iter().map(|f| f.code.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_nesting_predicate() {
        let outer = LoopInfo { id: LoopId(0), header: 0, end: 20, line: 1 };
        let inner = LoopInfo { id: LoopId(1), header: 5, end: 15, line: 2 };
        let disjoint = LoopInfo { id: LoopId(2), header: 25, end: 30, line: 3 };
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        assert!(!outer.contains(&disjoint));
        assert!(!outer.contains(&outer));
        assert!(outer.contains_pc(0));
        assert!(!outer.contains_pc(20));
    }

    #[test]
    fn innermost_loop_selection() {
        let f = Function {
            name: "t".into(),
            nparams: 0,
            nlocals: 1,
            code: vec![],
            lines: vec![],
            loops: vec![
                LoopInfo { id: LoopId(0), header: 0, end: 20, line: 1 },
                LoopInfo { id: LoopId(1), header: 5, end: 15, line: 2 },
            ],
        };
        assert_eq!(f.innermost_loop_at(7).unwrap().id, LoopId(1));
        assert_eq!(f.innermost_loop_at(2).unwrap().id, LoopId(0));
        assert!(f.innermost_loop_at(25).is_none());
        assert_eq!(f.loop_with_header(5).unwrap().id, LoopId(1));
    }
}
