//! White-box tests of the trace recorder's type specialization: the
//! compiled trunk of specific source patterns must contain the expected
//! specialized machine operations (and not generic ones) — the core claim
//! of §3.1's "Type specialization" and "Representation specialization".

use tracemonkey::nanojit::MachInst;
use tracemonkey::runtime::Helper;
use tracemonkey::{Engine, Vm};
use tm_lir::{AluOp, ChkOp, CmpOp, FOp};

/// Runs `src` under tracing and returns the trunk instructions of the
/// first compiled tree.
fn trunk_of(src: &str) -> Vec<MachInst> {
    let mut vm = Vm::new(Engine::Tracing);
    vm.eval(src).expect("program runs");
    let m = vm.monitor().expect("tracing");
    let tree = m.cache.iter().next().expect("a tree compiled");
    tree.fragments[0].code.clone()
}

fn has(code: &[MachInst], pred: impl Fn(&MachInst) -> bool) -> bool {
    code.iter().any(pred)
}

/// Overflow-checked int arithmetic of class `op`.
fn has_checked(code: &[MachInst], op: ChkOp) -> bool {
    has(code, |i| matches!(*i, MachInst::ChkAluI { op: o, .. } if o == op))
}

/// Int comparison of class `op`.
fn has_cmp_i(code: &[MachInst], op: CmpOp) -> bool {
    has(code, |i| matches!(*i, MachInst::CmpI { op: o, .. } if o == op))
}

/// Double comparison of class `op`.
fn has_cmp_d(code: &[MachInst], op: CmpOp) -> bool {
    has(code, |i| matches!(*i, MachInst::CmpD { op: o, .. } if o == op))
}

/// Plain int ALU of class `op`.
fn has_alu(code: &[MachInst], op: AluOp) -> bool {
    has(code, |i| matches!(*i, MachInst::AluI { op: o, .. } if o == op))
}

#[test]
fn int_loops_use_checked_int_arithmetic() {
    let code = trunk_of("var s = 0; for (var i = 0; i < 500; i++) s += i; s");
    assert!(has_checked(&code, ChkOp::Add),
        "int accumulation compiles to overflow-guarded int add");
    assert!(!has(&code, |i| matches!(i, MachInst::AluD { op: FOp::Add, .. })),
        "no double arithmetic in a pure int loop");
    assert!(!has(&code, |i| matches!(i, MachInst::CallHelper { .. })),
        "no helper calls in a pure int loop");
}

#[test]
fn double_loops_use_double_arithmetic_without_guards() {
    let code = trunk_of("var s = 0.5; for (var i = 0; i < 500; i++) s = s + 1.5; s");
    assert!(has(&code, |i| matches!(i, MachInst::AluD { op: FOp::Add, .. })),
        "double accumulation compiles to unguarded double add");
}

#[test]
fn comparisons_specialize_by_type() {
    let int_code = trunk_of("var n = 0; for (var i = 0; i < 500; i++) if (i < 250) n++; n");
    assert!(has_cmp_i(&int_code, CmpOp::Lt));
    let dbl_code =
        trunk_of("var n = 0; var x = 0.0; for (var i = 0; i < 500; i++) { x += 0.5; if (x < 100.5) n++; } n");
    assert!(has_cmp_d(&dbl_code, CmpOp::Lt));
}

#[test]
fn property_reads_are_shape_guarded_slot_loads() {
    let code = trunk_of(
        "var o = {a: 1, b: 2}; var s = 0; for (var i = 0; i < 500; i++) s += o.b; s",
    );
    assert!(has(&code, |i| matches!(i, MachInst::GuardShape { .. })),
        "property access guards the object shape");
    assert!(has(&code, |i| matches!(i, MachInst::LoadSlot { slot: 1, .. })),
        "o.b reads slot 1 directly (the paper's 'one more load to get slot 2')");
}

#[test]
fn array_reads_are_class_and_bounds_guarded() {
    let code = trunk_of(
        "var a = [1,2,3,4]; var s = 0; for (var i = 0; i < 500; i++) s += a[i & 3]; s",
    );
    assert!(has(&code, |i| matches!(i, MachInst::GuardClass { class: 1, .. })),
        "Figure 3's class guard: the base must be an array");
    assert!(has(&code, |i| matches!(i, MachInst::GuardBound { .. })));
    assert!(has(&code, |i| matches!(i, MachInst::LoadElem { .. })));
}

#[test]
fn array_append_calls_js_array_set() {
    let code = trunk_of("var a = []; for (var i = 0; i < 500; i++) a[i] = i; a.length");
    assert!(
        has(&code, |i| matches!(
            i,
            MachInst::CallHelper { helper: Helper::ArraySetElem, .. }
        )),
        "out-of-bounds stores call the array-set helper (Figure 3's js_Array_set)"
    );
}

#[test]
fn math_sin_uses_the_typed_fast_call() {
    let code =
        trunk_of("var s = 0; for (var i = 0; i < 500; i++) s += Math.sin(i * 0.1); Math.floor(s)");
    assert!(
        has(&code, |i| matches!(i, MachInst::CallHelper { helper: Helper::Sin, .. })),
        "Math.sin with a double argument uses the specialized helper (§6.5)"
    );
    assert!(
        !has(&code, |i| matches!(
            i,
            MachInst::CallHelper { helper: Helper::CallNative(_), .. }
        )),
        "no generic boxed-argument native call for the specialized path"
    );
}

#[test]
fn function_calls_are_inlined_with_identity_guards() {
    let code = trunk_of(
        "function f(a) { return a * 2; } var s = 0; for (var i = 0; i < 500; i++) s += f(i); s",
    );
    assert!(has(&code, |i| matches!(i, MachInst::GuardBoxedEq { .. })),
        "the callee identity is guarded (§3.1 'guard that the function is the same')");
    assert!(has_checked(&code, ChkOp::Mul),
        "the callee body is inlined into the trace");
}

#[test]
fn loop_back_is_the_last_instruction_of_a_stable_trunk() {
    let code = trunk_of("var s = 0; for (var i = 0; i < 500; i++) s += i; s");
    assert!(
        matches!(code.last(), Some(MachInst::LoopBack { .. })),
        "a type-stable loop trace ends by jumping to its anchor"
    );
}

#[test]
fn bitops_compile_to_plain_int_ops() {
    let code = trunk_of(
        "var v = 0; for (var i = 0; i < 500; i++) v = (v ^ i) & 0xffff; v",
    );
    assert!(has_alu(&code, AluOp::Xor));
    assert!(has_alu(&code, AluOp::And));
}

#[test]
fn string_char_code_uses_sentinel_helper() {
    let code = trunk_of(
        "var t = 'abcdef'; var s = 0; for (var i = 0; i < 600; i++) s += t.charCodeAt(i % 6); s",
    );
    assert!(has(&code, |i| matches!(
        i,
        MachInst::CallHelper { helper: Helper::CharCodeAt, .. }
    )));
}

#[test]
fn typeof_needs_no_runtime_dispatch() {
    // typeof on a type-known value is resolved at record time: what reaches
    // the comparison is a constant string handle, like the literal's.
    let code = trunk_of(
        "var n = 0; for (var i = 0; i < 500; i++) if (typeof i === 'number') n++; n",
    );
    let (at, args) = code
        .iter()
        .enumerate()
        .find_map(|(at, i)| match i {
            MachInst::CallHelper { helper: Helper::StrEq, args, .. } => Some((at, args)),
            _ => None,
        })
        .expect("the string comparison");
    for &reg in args.iter() {
        let def = code[..at].iter().rev().find(|i| i.dest() == Some(reg));
        assert!(
            matches!(def, Some(MachInst::ConstW { .. })),
            "operand r{reg} of the comparison is computed: {def:?}"
        );
    }
}
