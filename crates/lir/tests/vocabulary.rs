//! What one op vocabulary makes checkable from outside the crate: one
//! instance of every `Lir` variant goes through the printer and the
//! operand/exit visitors.

use tm_lir::{
    print_trace, AluOp, ChkOp, CmpOp, ExitId, FOp, Lir, LirTrace, LirType, Tag,
};
use tm_runtime::Helper;

/// One instance of every variant (operand ids 1, 2, 3; exit 7).
fn one_of_each_variant() -> Vec<Lir> {
    use Lir::*;
    let e = ExitId(7);
    let all = vec![
        ConstI(-3),
        ConstD(1.5f64.to_bits()),
        ConstObj(4),
        ConstStr(5),
        ConstBool(true),
        ConstBoxed(0x1e),
        Import { slot: 6, ty: LirType::Int },
        WriteAr { slot: 6, v: 1 },
        AluI(AluOp::Xor, 1, 2),
        NotI(1),
        NegI(1),
        ChkAluI(ChkOp::Shl, 1, 2, e),
        NegIChk(1, e),
        ModIChk(1, 2, e),
        AluD(FOp::Div, 1, 2),
        NegD(1),
        CmpI(CmpOp::Le, 1, 2),
        CmpD(CmpOp::Gt, 1, 2),
        NotB(1),
        I2D(1),
        U2D(1),
        D2IChk(1, e),
        D2I32(1),
        ChkRangeI(1, e),
        Box(Tag::Object, 1),
        Unbox(Tag::Bool, 1, e),
        UnboxNumD(1, e),
        GuardTrue(1, e),
        GuardFalse(1, e),
        GuardShape { obj: 1, shape: 9, exit: e },
        GuardClass { obj: 1, class: 2, exit: e },
        GuardBoxedEq(1, 0x31, e),
        GuardBound { arr: 1, idx: 2, exit: e },
        LoadSlot(1, 8),
        StoreSlot(1, 8, 2),
        LoadProto(1),
        LoadElem(1, 2),
        StoreElem(1, 2, 3),
        ArrayLen(1),
        StrLen(1),
        Call { helper: Helper::Pow, args: vec![1, 2].into(), ret: LirType::Double, exit: e },
        CallTree { tree: 3, exit: e },
        LoopBack(e),
        End(e),
    ];
    let kinds: std::collections::HashSet<_> = all.iter().map(std::mem::discriminant).collect();
    assert_eq!(kinds.len(), all.len(), "a variant is listed twice");
    assert_eq!(all.len(), 44, "Lir's variant count");
    all
}

/// The printed text is pinned by `tests/golden/*.lir.txt` for the ops a
/// recording happens to contain; this pins it for every variant and every
/// family op. (Instruction *n* prints as the definition of value *n*;
/// values 1–3, the operands, are a double, a boxed word and an int.)
#[test]
fn every_variant_and_mnemonic_prints_as_pinned() {
    let code = one_of_each_variant();
    let text = print_trace(&LirTrace { code, num_exits: 8 });
    let pinned = [
        "  i0 = const -3",
        "  d1 = constd 1.5",
        "  o2 = constobj #4",
        "  s3 = conststr #5",
        "  b4 = constbool true",
        "  v5 = constboxed 0x1e",
        "  i6 = import slot[6] Int",
        "  st ar[6], d1",
        "  i8 = xori d1, o2",
        "  i9 = noti d1",
        "  i10 = negi d1",
        "  i11 = shli.chk d1, o2 -> exit7",
        "  i12 = negi.chk d1 -> exit7",
        "  i13 = modi.chk d1, o2 -> exit7",
        "  d14 = divd d1, o2",
        "  d15 = negd d1",
        "  b16 = lei d1, o2",
        "  b17 = gtd d1, o2",
        "  b18 = notb d1",
        "  d19 = i2d d1",
        "  d20 = u2d d1",
        "  i21 = d2i.chk d1 -> exit7",
        "  i22 = d2i32 d1",
        "  i23 = chkrange d1 -> exit7",
        "  v24 = boxobj d1",
        "  b25 = unboxbool d1 -> exit7",
        "  d26 = unboxnum d1 -> exit7",
        "  xf d1 -> exit7",
        "  xt d1 -> exit7",
        "  guard shape(d1) == 9 -> exit7",
        "  guard class(d1) == 2 -> exit7",
        "  guard d1 == 0x31 -> exit7",
        "  guard o2 in bounds(d1) -> exit7",
        "  v33 = ld d1[slot 8]",
        "  st d1[slot 8], o2",
        "  o35 = ld proto(d1)",
        "  v36 = ld d1[o2]",
        "  st d1[o2], s3",
        "  i38 = arraylen d1",
        "  i39 = strlen d1",
        "  d40 = call Pow(d1, o2) Double -> exit7",
        "  calltree T3 -> exit7",
        "  loop -> exit7",
        "  end -> exit7",
    ];
    assert_eq!(text.lines().collect::<Vec<_>>(), pinned);

    let mut mnemonics: Vec<&str> = Vec::new();
    mnemonics.extend(AluOp::ALL.iter().map(|op| op.mnemonic()));
    mnemonics.extend(ChkOp::ALL.iter().map(|op| op.mnemonic()));
    mnemonics.extend(FOp::ALL.iter().map(|op| op.mnemonic()));
    mnemonics.extend(CmpOp::ALL.iter().map(|op| op.mnemonic_i()));
    mnemonics.extend(CmpOp::ALL.iter().map(|op| op.mnemonic_d()));
    mnemonics.extend(Tag::ALL.iter().map(|tag| tag.box_mnemonic()));
    mnemonics.extend(Tag::ALL.iter().map(|tag| tag.unbox_mnemonic()));
    assert_eq!(
        mnemonics.join(" "),
        "addi subi muli andi ori xori shli shri ushri \
         addi.chk subi.chk muli.chk shli.chk ushri.chk \
         addd subd muld divd modd \
         eqi lti lei gti gei eqd ltd led gtd ged \
         boxi boxd boxb boxobj boxstr unboxi unboxd unboxbool unboxobj unboxstr"
    );
    let unique: std::collections::HashSet<&str> = mnemonics.iter().copied().collect();
    assert_eq!(unique.len(), mnemonics.len(), "two ops print alike");
}

/// `operands` and `operands_mut` visit the same ids in the same order,
/// `exit` and `exit_mut` the same exit, and a renumbering through
/// `operands_mut` is what `operands` then reports.
#[test]
fn visitors_agree_on_every_variant() {
    for mut inst in one_of_each_variant() {
        let mut read = Vec::new();
        inst.operands(&mut read);
        let mut visited = Vec::new();
        inst.operands_mut(|id| {
            visited.push(*id);
            *id += 10;
        });
        assert_eq!(read, visited, "{inst:?}");
        let mut renumbered = Vec::new();
        inst.operands(&mut renumbered);
        assert_eq!(renumbered, read.iter().map(|id| id + 10).collect::<Vec<_>>(), "{inst:?}");
        assert_eq!(inst.exit(), inst.exit_mut().copied(), "{inst:?}");
    }
}
