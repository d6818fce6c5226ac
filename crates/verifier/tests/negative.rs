//! Negative-path verifier tests: start from a known-good trace, apply one
//! hand-crafted mutation per test (drop a descriptor, swap an operand's
//! type, unbalance an exit's stack map, ...), and assert the verifier
//! rejects it with the *specific* [`VerifyError`] variant — not just any
//! error.

use tm_lir::{ArSlot, ChkOp, CmpOp, ExitId, Lir, LirTrace, LirType};
use tm_verifier::{verify_trace, ExitView, TypeClass, VerifyError};

/// A well-formed single-loop trace shaped like the paper's Figure 3:
/// import the counter, test it (leaving the Bool on an operand-stack
/// slot), guard, bump with an overflow check, store, loop.
///
/// AR layout: slot 0 = the counter (a local), slot 1 = operand-stack
/// entry `(depth 0, idx 0)`.
fn valid() -> (LirTrace, Vec<ExitView>, Vec<(ArSlot, LirType)>) {
    let trace = LirTrace {
        code: vec![
            /* 0 */ Lir::Import { slot: 0, ty: LirType::Int },
            /* 1 */ Lir::ConstI(10),
            /* 2 */ Lir::CmpI(CmpOp::Lt, 0, 1),
            /* 3 */ Lir::WriteAr { slot: 1, v: 2 },
            /* 4 */ Lir::GuardTrue(2, ExitId(0)),
            /* 5 */ Lir::ConstI(1),
            /* 6 */ Lir::ChkAluI(ChkOp::Add, 0, 5, ExitId(1)),
            /* 7 */ Lir::WriteAr { slot: 0, v: 6 },
            /* 8 */ Lir::LoopBack(ExitId(2)),
        ],
        num_exits: 3,
    };
    // Exit 0 is taken mid-op with the comparison result still on the
    // operand stack; exits 1 and 2 are at stack depth 0.
    let guard_exit = ExitView {
        stack_depths: vec![1],
        stack_writes: vec![(0, 0)],
        write_back: vec![(0, LirType::Int), (1, LirType::Bool)],
        typemap: vec![(0, LirType::Int), (1, LirType::Bool)],
    };
    let bare_exit = ExitView {
        stack_depths: vec![0],
        stack_writes: vec![],
        write_back: vec![(0, LirType::Int)],
        typemap: vec![(0, LirType::Int)],
    };
    let exits = vec![guard_exit, bare_exit.clone(), bare_exit];
    (trace, exits, vec![(0, LirType::Int)])
}

#[test]
fn the_base_trace_is_valid() {
    let (t, e, entry) = valid();
    assert_eq!(verify_trace(&t, &e, &entry), Ok(()));
}

#[test]
fn dropping_an_exit_descriptor_is_a_count_mismatch() {
    let (t, mut e, entry) = valid();
    e.pop();
    assert_eq!(
        verify_trace(&t, &e, &entry),
        Err(VerifyError::ExitCountMismatch { declared: 3, descriptors: 2 })
    );
}

#[test]
fn guard_referencing_an_undeclared_exit_is_missing() {
    let (mut t, mut e, entry) = valid();
    // Shrink the declared table consistently, leaving the LoopBack's
    // ExitId(2) dangling.
    t.num_exits = 2;
    e.pop();
    assert_eq!(
        verify_trace(&t, &e, &entry),
        Err(VerifyError::MissingExit { at: 8, exit: 2 })
    );
}

#[test]
fn swapping_an_operand_to_double_is_a_type_mismatch() {
    let (mut t, e, entry) = valid();
    // The checked-add increment becomes a double constant.
    t.code[5] = Lir::ConstD(0x3FF0000000000000);
    assert_eq!(
        verify_trace(&t, &e, &entry),
        Err(VerifyError::TypeMismatch {
            at: 6,
            operand: 5,
            expected: TypeClass::IntWord,
            found: LirType::Double,
        })
    );
}

#[test]
fn removing_a_stack_write_unbalances_the_exit() {
    let (t, mut e, entry) = valid();
    // Exit 0 promises stack depth 1 but no longer writes the entry back.
    e[0].stack_writes.clear();
    assert_eq!(
        verify_trace(&t, &e, &entry),
        Err(VerifyError::UnbalancedExitStack { exit: 0, depth: 0, idx: 0 })
    );
}

#[test]
fn forward_operand_reference_is_use_before_def() {
    let (mut t, e, entry) = valid();
    t.code[2] = Lir::CmpI(CmpOp::Lt, 0, 7);
    assert_eq!(
        verify_trace(&t, &e, &entry),
        Err(VerifyError::UseBeforeDef { at: 2, operand: 7 })
    );
}

#[test]
fn consuming_a_store_is_use_of_non_value() {
    let (mut t, e, entry) = valid();
    // The guard's operand becomes the WriteAr at index 3, which produces
    // no SSA value.
    t.code[4] = Lir::GuardTrue(3, ExitId(0));
    assert_eq!(
        verify_trace(&t, &e, &entry),
        Err(VerifyError::UseOfNonValue { at: 4, operand: 3 })
    );
}

#[test]
fn reimporting_a_slot_is_a_duplicate_import() {
    let (mut t, e, entry) = valid();
    t.code[5] = Lir::Import { slot: 0, ty: LirType::Int };
    assert_eq!(
        verify_trace(&t, &e, &entry),
        Err(VerifyError::DuplicateImport { at: 5, slot: 0 })
    );
}

#[test]
fn import_disagreeing_with_the_entry_map_is_rejected() {
    let (mut t, e, entry) = valid();
    t.code[0] = Lir::Import { slot: 0, ty: LirType::Double };
    assert_eq!(
        verify_trace(&t, &e, &entry),
        Err(VerifyError::ImportTypeMismatch {
            at: 0,
            slot: 0,
            imported: LirType::Double,
            entry: LirType::Int,
        })
    );
}

#[test]
fn exit_map_claiming_an_impossible_type_is_rejected() {
    let (t, mut e, entry) = valid();
    // Slot 0 only ever holds integers in this trace; an exit claiming it
    // boxes as a double would restore garbage.
    e[1].write_back[0] = (0, LirType::Double);
    e[1].typemap[0] = (0, LirType::Double);
    assert_eq!(
        verify_trace(&t, &e, &entry),
        Err(VerifyError::ExitTypeMismatch { exit: 1, slot: 0, ty: LirType::Double })
    );
}

#[test]
fn write_back_outside_the_type_map_is_rejected() {
    let (t, mut e, entry) = valid();
    e[1].write_back.push((2, LirType::Int));
    assert_eq!(
        verify_trace(&t, &e, &entry),
        Err(VerifyError::WriteBackNotInTypeMap { exit: 1, slot: 2 })
    );
}

#[test]
fn exit_without_frames_is_rejected() {
    let (t, mut e, entry) = valid();
    e[0].stack_depths.clear();
    assert_eq!(
        verify_trace(&t, &e, &entry),
        Err(VerifyError::EmptyExitFrames { exit: 0 })
    );
}

#[test]
fn missing_terminator_is_rejected() {
    let (mut t, e, entry) = valid();
    t.code.pop();
    assert_eq!(
        verify_trace(&t, &e, &entry),
        Err(VerifyError::BadTerminator { at: 7 })
    );
}

#[test]
fn mid_trace_terminator_is_rejected() {
    let (mut t, e, entry) = valid();
    t.code[4] = Lir::LoopBack(ExitId(0));
    assert_eq!(
        verify_trace(&t, &e, &entry),
        Err(VerifyError::BadTerminator { at: 4 })
    );
}

/// The recorder allocates exit snapshots eagerly, so descriptors with no
/// referencing instruction are legal — and exempt from map checks (dead
/// stores feeding only them are legitimately eliminated).
#[test]
fn unreferenced_exit_maps_are_not_checked() {
    let (mut t, mut e, entry) = valid();
    // Retarget the guard so descriptor 0 dangles, then corrupt it.
    t.code[4] = Lir::GuardTrue(2, ExitId(1));
    e[0].typemap = vec![(0, LirType::Object)];
    e[0].write_back = vec![(0, LirType::Object)];
    e[0].stack_writes.clear();
    e[0].stack_depths.clear();
    assert_eq!(verify_trace(&t, &e, &entry), Ok(()));
}

/// Boxed-word interchangeability: `null`/`undefined`/`Boxed` map entries
/// accept each other's values (they are one tagged-word class), but never
/// an unboxed integer.
#[test]
fn boxed_word_map_entries_interchange() {
    let trace = LirTrace {
        code: vec![
            Lir::ConstBoxed(7),
            Lir::WriteAr { slot: 0, v: 0 },
            Lir::End(ExitId(0)),
        ],
        num_exits: 1,
    };
    let mk = |ty| {
        vec![ExitView {
            stack_depths: vec![0],
            stack_writes: vec![],
            write_back: vec![(0, ty)],
            typemap: vec![(0, ty)],
        }]
    };
    assert_eq!(verify_trace(&trace, &mk(LirType::Null), &[]), Ok(()));
    assert_eq!(verify_trace(&trace, &mk(LirType::Undefined), &[]), Ok(()));
    assert_eq!(verify_trace(&trace, &mk(LirType::Boxed), &[]), Ok(()));
    assert_eq!(
        verify_trace(&trace, &mk(LirType::Int), &[]),
        Err(VerifyError::ExitTypeMismatch { exit: 0, slot: 0, ty: LirType::Int })
    );
}
