//! The trace verifier: static well-formedness checks over recorded LIR.
//!
//! Four families of checks, mirroring the invariants the recorder is
//! supposed to establish and the executor relies on:
//!
//! 1. **SSA shape** — the trace is linear, so "defs dominate uses" is just
//!    `operand < self`; operands must also name value-producing
//!    instructions (stores/guards define nothing).
//! 2. **Operand types** — each operation consumes specific [`TypeClass`]es
//!    (integer words, doubles, object handles, boxed words, ...); the
//!    class system admits the recorder's word-level conventions, e.g.
//!    booleans are 0/1 words and feed integer arithmetic after `ToNumber`.
//! 3. **Exit table** — every referenced [`ExitId`] has a descriptor, the
//!    declared exit count matches the table, and the trace ends in exactly
//!    one terminator (`LoopBack`/`End`).
//! 4. **Exit maps** — for each exit, the write-back map must cover every
//!    live operand-stack entry of every frame (the restore path panics on
//!    a missing entry), write-back entries must be covered by the exit's
//!    type map, and map types must be consistent with the types the trace
//!    (or its entry map) actually puts in those activation-record slots.

use tm_lir::{ArSlot, CmpOp, Lir, LirId, LirTrace, LirType, Tag};

/// What an operand position accepts. Coarser than [`LirType`] because the
/// recorder works on raw words: a `Bool` is a 0/1 word and is valid
/// integer-arithmetic input, `null`/`undefined` values are materialized as
/// boxed-word constants, and object handles compare with integer equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeClass {
    /// A 32-bit integer word: `Int` or `Bool`.
    IntWord,
    /// An IEEE-754 double.
    Double,
    /// A boolean (guard and logic inputs).
    Bool,
    /// An object handle.
    Object,
    /// A string handle.
    String,
    /// A raw tagged value word: `Boxed`, `Null`, or `Undefined`.
    BoxedWord,
    /// Integer-comparable word: `IntWord` plus object handles (identity
    /// comparison via `CmpI(Eq)`).
    EqWord,
    /// Any value (helper-call arguments, raw AR stores).
    Any,
}

impl TypeClass {
    /// Whether a value of LIR type `ty` is acceptable in this position.
    pub fn admits(self, ty: LirType) -> bool {
        use LirType::*;
        match self {
            TypeClass::IntWord => matches!(ty, Int | Bool),
            TypeClass::Double => ty == Double,
            TypeClass::Bool => ty == Bool,
            TypeClass::Object => ty == Object,
            TypeClass::String => ty == String,
            TypeClass::BoxedWord => matches!(ty, Boxed | Null | Undefined),
            TypeClass::EqWord => matches!(ty, Int | Bool | Object),
            TypeClass::Any => true,
        }
    }
}

/// A caller-assembled view of one side exit's restoration metadata. The
/// full descriptor lives with the tracer (it names interpreter locations);
/// the verifier only needs the shape.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExitView {
    /// Operand-stack depth of each interpreter frame at this exit
    /// (index 0 = the trace entry frame). Must be non-empty.
    pub stack_depths: Vec<u16>,
    /// `(frame depth, stack index)` pairs covered by the exit's write-back
    /// map — the operand-stack entries the monitor can restore.
    pub stack_writes: Vec<(u8, u16)>,
    /// `(AR slot, boxing type)` of every write-back entry.
    pub write_back: Vec<(ArSlot, LirType)>,
    /// `(AR slot, observed type)` of every type-map entry.
    pub typemap: Vec<(ArSlot, LirType)>,
}

/// A structural defect found in a recorded trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerifyError {
    /// Instruction `at` uses `operand`, which is not defined before it in
    /// the linear trace (SSA defs must dominate uses).
    UseBeforeDef {
        /// Offending instruction index.
        at: LirId,
        /// The out-of-order (or out-of-range) operand id.
        operand: LirId,
    },
    /// Instruction `at` uses `operand`, but that instruction produces no
    /// SSA value (it is a store, guard, or trace end).
    UseOfNonValue {
        /// Offending instruction index.
        at: LirId,
        /// The value-less operand id.
        operand: LirId,
    },
    /// An operand's type does not match what the operation consumes.
    TypeMismatch {
        /// Offending instruction index.
        at: LirId,
        /// The ill-typed operand id.
        operand: LirId,
        /// What the operand position accepts.
        expected: TypeClass,
        /// The operand's actual LIR type.
        found: LirType,
    },
    /// Instruction `at` references side exit `exit`, which has no
    /// descriptor in the exit table.
    MissingExit {
        /// Offending instruction index.
        at: LirId,
        /// The dangling exit id.
        exit: u16,
    },
    /// The trace's declared exit count disagrees with the descriptor table.
    ExitCountMismatch {
        /// `LirTrace::num_exits`.
        declared: u16,
        /// Descriptors actually supplied.
        descriptors: u16,
    },
    /// The trace does not end in a single `LoopBack`/`End` terminator (a
    /// terminator is missing, or appears before the last instruction).
    BadTerminator {
        /// Index where the malformation was detected.
        at: LirId,
    },
    /// An exit descriptor has no frames (state restoration needs at least
    /// the entry frame).
    EmptyExitFrames {
        /// The defective exit id.
        exit: u16,
    },
    /// An exit's write-back map does not cover a live operand-stack entry;
    /// restoring interpreter state through this exit would fail.
    UnbalancedExitStack {
        /// The defective exit id.
        exit: u16,
        /// Frame depth of the uncovered entry.
        depth: u8,
        /// Stack index of the uncovered entry.
        idx: u16,
    },
    /// A write-back entry's slot/type is absent from the exit's type map
    /// (the type map must describe everything the exit restores).
    WriteBackNotInTypeMap {
        /// The defective exit id.
        exit: u16,
        /// The uncovered AR slot.
        slot: ArSlot,
    },
    /// An exit map claims a type for an AR slot that is inconsistent with
    /// every value the trace (or its entry map) puts in that slot.
    ExitTypeMismatch {
        /// The defective exit id.
        exit: u16,
        /// The inconsistent AR slot.
        slot: ArSlot,
        /// The type the exit map claims.
        ty: LirType,
    },
    /// An `Import` reads an AR slot at a type different from the entry
    /// map's type for that slot.
    ImportTypeMismatch {
        /// Offending instruction index.
        at: LirId,
        /// The imported AR slot.
        slot: ArSlot,
        /// The import's declared type.
        imported: LirType,
        /// The entry map's type.
        entry: LirType,
    },
    /// The same AR slot is imported twice (each slot has exactly one
    /// entry read — the trace's φ-node).
    DuplicateImport {
        /// Offending instruction index.
        at: LirId,
        /// The re-imported AR slot.
        slot: ArSlot,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use VerifyError::*;
        match *self {
            UseBeforeDef { at, operand } => {
                write!(f, "instruction {at} uses operand {operand} before its definition")
            }
            UseOfNonValue { at, operand } => {
                write!(f, "instruction {at} uses operand {operand}, which produces no value")
            }
            TypeMismatch { at, operand, expected, found } => write!(
                f,
                "instruction {at}: operand {operand} has type {found:?}, expected {expected:?}"
            ),
            MissingExit { at, exit } => {
                write!(f, "instruction {at} references exit {exit}, which has no descriptor")
            }
            ExitCountMismatch { declared, descriptors } => write!(
                f,
                "trace declares {declared} exits but {descriptors} descriptors were supplied"
            ),
            BadTerminator { at } => {
                write!(f, "trace terminator malformed at instruction {at}")
            }
            EmptyExitFrames { exit } => write!(f, "exit {exit} has no frames"),
            UnbalancedExitStack { exit, depth, idx } => write!(
                f,
                "exit {exit} does not write back stack entry {idx} of frame {depth}"
            ),
            WriteBackNotInTypeMap { exit, slot } => write!(
                f,
                "exit {exit} writes back AR slot {slot} absent from its type map"
            ),
            ExitTypeMismatch { exit, slot, ty } => write!(
                f,
                "exit {exit} maps AR slot {slot} as {ty:?}, inconsistent with the trace"
            ),
            ImportTypeMismatch { at, slot, imported, entry } => write!(
                f,
                "instruction {at} imports slot {slot} as {imported:?}, entry map says {entry:?}"
            ),
            DuplicateImport { at, slot } => {
                write!(f, "instruction {at} imports AR slot {slot} a second time")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Whether an exit map claiming `map_ty` for a slot is consistent with the
/// slot holding an SSA value of LIR type `lir_ty`.
///
/// `Int` and `Bool` are one word class in both directions: the recorder
/// labels 0/1 integer words (e.g. the `AluI(Or)` that truthiness tests compile
/// to) as boolean shadow values and feeds booleans to integer arithmetic
/// after `ToNumber`, so either label may back either map type. The three
/// boxed-word types are likewise interchangeable at the word level
/// (`null`/`undefined` constants are materialized as `ConstBoxed`).
fn map_compatible(map_ty: LirType, lir_ty: LirType) -> bool {
    use LirType::*;
    map_ty == lir_ty
        || (matches!(map_ty, Int | Bool) && matches!(lir_ty, Int | Bool))
        || (matches!(map_ty, Boxed | Null | Undefined)
            && matches!(lir_ty, Boxed | Null | Undefined))
}

/// The type class each operand position of `op` consumes, in
/// [`Lir::operands`] order.
fn operand_classes(op: &Lir, out: &mut Vec<TypeClass>) {
    use Lir::*;
    use TypeClass::*;
    match op {
        ConstI(_) | ConstD(_) | ConstObj(_) | ConstStr(_) | ConstBool(_) | ConstBoxed(_)
        | Import { .. } | CallTree { .. } | LoopBack(_) | End(_) => {}
        // Raw word into the activation record; boxing type is the exit
        // map's business, not the store's.
        WriteAr { .. } => out.push(Any),
        AluI(..) | ChkAluI(..) | ModIChk(..) => out.extend([IntWord, IntWord]),
        NotI(_) | NegI(_) | NegIChk(..) | I2D(_) | U2D(_) | ChkRangeI(..) => out.push(IntWord),
        AluD(..) | CmpD(..) => out.extend([Double, Double]),
        NegD(_) | D2IChk(..) | D2I32(_) => out.push(Double),
        // Object handles compare by identity through the integer comparator.
        CmpI(CmpOp::Eq, ..) => out.extend([EqWord, EqWord]),
        CmpI(..) => out.extend([IntWord, IntWord]),
        NotB(_) | GuardTrue(..) | GuardFalse(..) => out.push(Bool),
        LoadProto(_) | ArrayLen(_) | GuardShape { .. } | GuardClass { .. } => out.push(Object),
        StrLen(_) => out.push(String),
        Box(tag, _) => out.push(match tag {
            Tag::Int => IntWord,
            Tag::Double => Double,
            Tag::Bool => Bool,
            Tag::Object => Object,
            Tag::String => String,
        }),
        Unbox(..) | UnboxNumD(..) => out.push(BoxedWord),
        // Guards the raw word of a boxed value — or an object handle's
        // identity (function-callee guards compare the handle directly).
        GuardBoxedEq(..) => out.push(Any),
        GuardBound { .. } => out.extend([Object, IntWord]),
        LoadSlot(..) => out.push(Object),
        StoreSlot(..) => out.extend([Object, BoxedWord]),
        LoadElem(..) => out.extend([Object, IntWord]),
        StoreElem(..) => out.extend([Object, IntWord, BoxedWord]),
        // Helper arguments are raw words in the helper's own convention.
        Call { args, .. } => out.extend(std::iter::repeat(Any).take(args.len())),
    }
}

/// Statically verifies a recorded trace against its exit metadata.
///
/// `entry` is the entry type map as `(AR slot, entry type)` pairs: the
/// slots the monitor populates (and type-checks) before entering the
/// fragment. For branch fragments this is the parent exit's type map plus
/// the tree entry map. Slots a trace neither imports nor writes are
/// allowed to appear in exit maps (branch traces inherit parent-path
/// state).
///
/// # Errors
///
/// Returns the first [`VerifyError`] found, scanning instructions in
/// order and then the exit table.
pub fn verify_trace(
    trace: &LirTrace,
    exits: &[ExitView],
    entry: &[(ArSlot, LirType)],
) -> Result<(), VerifyError> {
    if trace.num_exits as usize != exits.len() {
        return Err(VerifyError::ExitCountMismatch {
            declared: trace.num_exits,
            descriptors: exits.len() as u16,
        });
    }

    // Types every AR slot can hold, as seen by this fragment: entry map
    // types plus everything the trace imports or writes.
    let mut slot_types: Vec<(ArSlot, LirType)> = entry.to_vec();
    let mut imported: Vec<ArSlot> = Vec::new();
    let mut classes: Vec<TypeClass> = Vec::new();
    let mut operands: Vec<LirId> = Vec::new();
    // Exits some instruction can actually take. The recorder allocates
    // exit snapshots eagerly (one per bytecode op), so when the forward
    // filters fold away every guard of an op, its descriptor dangles —
    // and dead-store elimination is free to drop stores only that
    // unreachable exit would have observed, so its maps are not checked.
    let mut reachable = vec![false; exits.len()];

    let len = trace.code.len();
    for (i, op) in trace.code.iter().enumerate() {
        let at = i as LirId;

        // 1. SSA shape and operand types.
        operands.clear();
        classes.clear();
        op.operands(&mut operands);
        operand_classes(op, &mut classes);
        debug_assert_eq!(operands.len(), classes.len());
        for (&operand, &class) in operands.iter().zip(&classes) {
            if operand >= at {
                return Err(VerifyError::UseBeforeDef { at, operand });
            }
            let Some(found) = trace.code[operand as usize].result_ty() else {
                return Err(VerifyError::UseOfNonValue { at, operand });
            };
            if !class.admits(found) {
                return Err(VerifyError::TypeMismatch { at, operand, expected: class, found });
            }
        }

        // 2. Exit references.
        if let Some(e) = op.exit() {
            if e.0 >= trace.num_exits {
                return Err(VerifyError::MissingExit { at, exit: e.0 });
            }
            reachable[e.0 as usize] = true;
        }

        // 3. Terminator discipline: exactly one, in last position.
        let is_term = matches!(op, Lir::LoopBack(_) | Lir::End(_));
        if is_term != (i + 1 == len) {
            return Err(VerifyError::BadTerminator { at });
        }

        // Track slot contents for the exit-map consistency pass.
        match *op {
            Lir::Import { slot, ty } => {
                if imported.contains(&slot) {
                    return Err(VerifyError::DuplicateImport { at, slot });
                }
                imported.push(slot);
                if let Some(&(_, ety)) =
                    entry.iter().find(|&&(s, _)| s == slot)
                {
                    if ety != ty {
                        return Err(VerifyError::ImportTypeMismatch {
                            at,
                            slot,
                            imported: ty,
                            entry: ety,
                        });
                    }
                }
                slot_types.push((slot, ty));
            }
            Lir::WriteAr { slot, v } => {
                // `v` was validated above; record the stored type.
                if let Some(ty) = trace.code[v as usize].result_ty() {
                    slot_types.push((slot, ty));
                }
            }
            _ => {}
        }
    }
    if len == 0 {
        return Err(VerifyError::BadTerminator { at: 0 });
    }

    // 4. Exit maps (only for exits that can be taken).
    for (e, view) in exits.iter().enumerate() {
        let exit = e as u16;
        if !reachable[e] {
            continue;
        }
        if view.stack_depths.is_empty() {
            return Err(VerifyError::EmptyExitFrames { exit });
        }
        // Stack balance: every live operand-stack entry must be covered by
        // the write-back map, or restoration would have nothing to push.
        for (depth, &sd) in view.stack_depths.iter().enumerate() {
            let depth = depth as u8;
            for idx in 0..sd {
                if !view.stack_writes.contains(&(depth, idx)) {
                    return Err(VerifyError::UnbalancedExitStack { exit, depth, idx });
                }
            }
        }
        // The type map describes everything the write-back restores.
        for &(slot, _) in &view.write_back {
            if !view.typemap.iter().any(|&(s, _)| s == slot) {
                return Err(VerifyError::WriteBackNotInTypeMap { exit, slot });
            }
        }
        // Map types must be producible by this fragment (or its entry
        // state). Slots the fragment never touches come from the parent
        // path of a branch trace and cannot be checked locally.
        for &(slot, ty) in view.typemap.iter().chain(&view.write_back) {
            let mut seen = slot_types.iter().filter(|&&(s, _)| s == slot).peekable();
            if seen.peek().is_some() && !seen.any(|&(_, lt)| map_compatible(ty, lt)) {
                return Err(VerifyError::ExitTypeMismatch { exit, slot, ty });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_lir::ExitId;

    fn exit0() -> ExitView {
        ExitView {
            stack_depths: vec![0],
            stack_writes: vec![],
            write_back: vec![(0, LirType::Int)],
            typemap: vec![(0, LirType::Int)],
        }
    }

    /// import → add-checked → store → loop: the minimal Figure 3 shape.
    fn valid_trace() -> (LirTrace, Vec<ExitView>, Vec<(ArSlot, LirType)>) {
        let trace = LirTrace {
            code: vec![
                Lir::Import { slot: 0, ty: LirType::Int },
                Lir::ConstI(1),
                Lir::ChkAluI(tm_lir::ChkOp::Add, 0, 1, ExitId(0)),
                Lir::WriteAr { slot: 0, v: 2 },
                Lir::LoopBack(ExitId(1)),
            ],
            num_exits: 2,
        };
        (trace, vec![exit0(), exit0()], vec![(0, LirType::Int)])
    }

    #[test]
    fn accepts_the_minimal_loop() {
        let (t, e, entry) = valid_trace();
        assert_eq!(verify_trace(&t, &e, &entry), Ok(()));
    }

    #[test]
    fn rejects_empty_trace() {
        let t = LirTrace::new();
        assert_eq!(
            verify_trace(&t, &[], &[]),
            Err(VerifyError::BadTerminator { at: 0 })
        );
    }

    #[test]
    fn type_classes_admit_word_conventions() {
        assert!(TypeClass::IntWord.admits(LirType::Bool));
        assert!(!TypeClass::IntWord.admits(LirType::Double));
        assert!(TypeClass::EqWord.admits(LirType::Object));
        assert!(TypeClass::BoxedWord.admits(LirType::Undefined));
        assert!(!TypeClass::BoxedWord.admits(LirType::Int));
        assert!(TypeClass::Any.admits(LirType::String));
    }

    #[test]
    fn display_is_informative() {
        let e = VerifyError::UnbalancedExitStack { exit: 3, depth: 1, idx: 2 };
        let s = e.to_string();
        assert!(s.contains("exit 3"), "{s}");
        assert!(s.contains("frame 1"), "{s}");
    }
}
