use tm_lir::{AluOp, ChkOp, CmpOp, FOp, FilterOptions, Lir, LirBuffer, LirType, Tag};
use tm_runtime::trace_helpers::{word_from_f64, word_from_i32};
use tm_runtime::{
    Helper, NativeEffects, Object, ObjectClass, ObjectId, Realm, RuntimeError, Value,
};

use super::{emit_tree, native_supported, unsupported_op, NativeTree, MAX_HELPER_ARGS};
use crate::assembler::assemble;
use crate::executor::{execute, DecodedTree, NoNesting, TraceExit, TreeHost};
use crate::machinst::{Fragment, MachInst};

/// Runs `fragments` through the decoded executor, raw and fused, and
/// the native backend with identical inputs and asserts byte-identical
/// ARs and identical exit records (every counter; fused code
/// dispatches fewer ops for the same raw instructions retired).
fn run_both(fragments: &[Fragment], ar_init: &[u64], fuel: u64) -> TraceExit {
    run_both_with(fragments, ar_init, fuel, |_| {})
}

/// [`run_both`] with a realm-setup hook applied identically to both
/// tiers' realms (heap ops need the same objects/strings on each
/// side; fresh realms allocate deterministically, so ids agree).
fn run_both_with(
    fragments: &[Fragment],
    ar_init: &[u64],
    fuel: u64,
    setup: impl Fn(&mut Realm),
) -> TraceExit {
    let mut realm_dec = Realm::new();
    setup(&mut realm_dec);
    let mut ar_dec = ar_init.to_vec();
    let dec = execute(fragments, &mut ar_dec, &mut realm_dec, &mut NoNesting, fuel)
        .expect("decoded execution failed");

    let mut realm_fused = Realm::new();
    setup(&mut realm_fused);
    let mut ar_fused = ar_init.to_vec();
    let mut fused = DecodedTree::default();
    fused.append(fragments, true, true);
    let fused = fused
        .execute(&mut ar_fused, &mut realm_fused, &mut NoNesting, fuel)
        .expect("fused execution failed");
    assert_eq!(TraceExit { dispatched: dec.dispatched, ..fused }, dec, "fused exit diverges");
    assert_eq!(ar_fused, ar_dec, "fused activation record diverges");

    let mut realm_nat = Realm::new();
    setup(&mut realm_nat);
    let mut ar_nat = ar_init.to_vec();
    let nt = emit_tree(fragments).expect("native emission failed");
    let nat = nt
        .execute(&mut ar_nat, &mut realm_nat, &mut NoNesting, fuel)
        .expect("native execution failed");

    assert_eq!(dec, nat, "exit records diverge");
    assert_eq!(ar_dec, ar_nat, "activation records diverge");
    dec
}

/// One-fragment tree: load AR slots into r0/r1, run `mk`'s ops, end.
/// `num_exits` exits all return to the monitor.
fn frag(ops: Vec<MachInst>, num_exits: usize) -> Vec<Fragment> {
    vec![Fragment::new(ops, 0, num_exits)]
}

/// AR-in/AR-out harness around a single binary op: r0 = ar[0],
/// r1 = ar[1], op writes r2, ar[2] = r2, End(0). Exit 1 is the guard.
fn binop_tree(op: MachInst) -> Vec<Fragment> {
    frag(
        vec![
            MachInst::ReadAr { d: 0, slot: 0 },
            MachInst::ReadAr { d: 1, slot: 1 },
            op,
            MachInst::WriteAr { slot: 2, s: 2 },
            MachInst::End { exit: 0 },
        ],
        2,
    )
}

fn unop_tree(op: MachInst) -> Vec<Fragment> {
    frag(
        vec![
            MachInst::ReadAr { d: 0, slot: 0 },
            op,
            MachInst::WriteAr { slot: 2, s: 2 },
            MachInst::End { exit: 0 },
        ],
        2,
    )
}

fn w(i: i32) -> u64 {
    word_from_i32(i)
}

fn d(x: f64) -> u64 {
    word_from_f64(x)
}

#[test]
fn supported_on_this_target() {
    assert!(native_supported());
}

#[test]
fn int_alu_all_ops_all_edges() {
    let cases: &[i32] = &[
        0, 1, -1, 2, -2, 31, 32, 33, -31, -32, 0x3FFF_FFFF, -0x4000_0000, i32::MAX,
        i32::MIN, 12345, -9876,
    ];
    for &op in AluOp::ALL {
        let tree = binop_tree(MachInst::AluI { op, d: 2, a: 0, b: 1 });
        for &x in cases {
            for &y in cases {
                run_both(&tree, &[w(x), w(y), 0], u64::MAX);
            }
        }
    }
}

#[test]
fn int_unary_and_checked_neg() {
    let cases: &[i32] =
        &[0, 1, -1, 0x3FFF_FFFF, -0x4000_0000, i32::MAX, i32::MIN, 77, -77];
    for op in [
        MachInst::NotI { d: 2, a: 0 },
        MachInst::NegI { d: 2, a: 0 },
        MachInst::NegIChk { d: 2, a: 0, exit: 1 },
        MachInst::ChkRangeI { d: 2, a: 0, exit: 1 },
    ] {
        let tree = unop_tree(op.clone());
        for &x in cases {
            run_both(&tree, &[w(x), 0, 0], u64::MAX);
        }
    }
}

#[test]
fn checked_alu_overflow_and_minus_zero() {
    let cases: &[i32] = &[
        0, 1, -1, 2, -2, 3, 0x3FFF_FFFF, -0x4000_0000, 0x2000_0000, -0x2000_0000,
        46341, -46341, i32::MAX, i32::MIN, 31, 33,
    ];
    let chk = ChkOp::ALL.iter().map(|&op| MachInst::ChkAluI { op, d: 2, a: 0, b: 1, exit: 1 });
    for op in chk.into_iter().chain([MachInst::ModIChk { d: 2, a: 0, b: 1, exit: 1 }]) {
        let tree = binop_tree(op);
        for &x in cases {
            for &y in cases {
                run_both(&tree, &[w(x), w(y), 0], u64::MAX);
            }
        }
    }
}

#[test]
fn double_arith_and_compares() {
    let cases: &[f64] = &[
        0.0, -0.0, 1.0, -1.5, 2.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY,
        1e300, -1e300, 0.1, 1073741824.0, -1073741825.0,
    ];
    let arith = FOp::ALL.iter().map(|&op| MachInst::AluD { op, d: 2, a: 0, b: 1 });
    let cmps = CmpOp::ALL.iter().map(|&op| MachInst::CmpD { op, d: 2, a: 0, b: 1 });
    for op in arith.chain(cmps) {
        let tree = binop_tree(op);
        for &x in cases {
            for &y in cases {
                run_both(&tree, &[d(x), d(y), 0], u64::MAX);
            }
        }
    }
}

#[test]
fn int_compares_and_conversions() {
    let ints: &[i32] = &[0, 1, -1, 5, -5, i32::MAX, i32::MIN];
    for &op in CmpOp::ALL {
        let tree = binop_tree(MachInst::CmpI { op, d: 2, a: 0, b: 1 });
        for &x in ints {
            for &y in ints {
                run_both(&tree, &[w(x), w(y), 0], u64::MAX);
            }
        }
    }
    for op in [MachInst::I2D { d: 2, a: 0 }, MachInst::U2D { d: 2, a: 0 }] {
        let tree = unop_tree(op.clone());
        for &x in ints {
            run_both(&tree, &[w(x), 0, 0], u64::MAX);
        }
    }
    // NotB over boolean-ish words.
    let tree = unop_tree(MachInst::NotB { d: 2, a: 0 });
    for v in [0u64, 1, 2, u64::MAX] {
        run_both(&tree, &[v, 0, 0], u64::MAX);
    }
}

#[test]
fn double_to_int_paths() {
    let cases: &[f64] = &[
        0.0, -0.0, 1.0, -1.0, 1.5, -2.5, 1073741823.0, 1073741824.0, -1073741824.0,
        -1073741825.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e40, -1e40,
        9.2233720368547758e18, -9.2233720368547758e18, 4294967296.0, 0.25,
    ];
    for op in [MachInst::D2IChk { d: 2, a: 0, exit: 1 }, MachInst::D2I32 { d: 2, a: 0 }] {
        let tree = unop_tree(op.clone());
        for &x in cases {
            run_both(&tree, &[d(x), 0, 0], u64::MAX);
        }
    }
}

#[test]
fn box_unbox_all_tags() {
    // Every tag boxes every word: ints across the full i32 range
    // (out-of-range values allocate a heap double in both tiers; fresh
    // realms allocate the same id, so the raw words still match),
    // double bit patterns, truthy words and handles.
    let words = [
        w(0), w(1), w(-1), w(0x3FFF_FFFF), w(0x4000_0000), w(-0x4000_0000), w(-0x4000_0001),
        w(i32::MAX), w(i32::MIN), d(-0.5), d(f64::NAN), d(1e300), d(3.0), 7, 42,
        u64::from(u32::MAX), u64::MAX,
    ];
    for &tag in Tag::ALL {
        let tree = unop_tree(MachInst::Box { tag, d: 2, a: 0 });
        for v in words {
            run_both(&tree, &[v, 0, 0], u64::MAX);
        }
    }

    // Every tag unboxes every tag class: ints, specials, handles, and
    // a heap double allocated in each tier's realm.
    let raws = [
        Value::new_int(0).raw(),
        Value::new_int(5).raw(),
        Value::new_int(-7).raw(),
        Value::TRUE.raw(),
        Value::FALSE.raw(),
        Value::NULL.raw(),
        Value::UNDEFINED.raw(),
        0,  // object id 0
        8,  // object id 1
        4,  // string id 0
        12, // string id 1
    ];
    for x in [2.5f64, -0.0, f64::NAN] {
        let boxed = Realm::new().heap.number(x).raw();
        let alloc = move |realm: &mut Realm| assert_eq!(realm.heap.number(x).raw(), boxed);
        let unbox = Tag::ALL.iter().map(|&tag| MachInst::Unbox { tag, d: 2, a: 0, exit: 1 });
        for op in unbox.chain([MachInst::UnboxNumD { d: 2, a: 0, exit: 1 }]) {
            let tree = unop_tree(op);
            for raw in raws.into_iter().chain([boxed]) {
                run_both_with(&tree, &[raw, 0, 0], u64::MAX, alloc);
            }
        }
    }
}

#[test]
fn guards_and_boxed_eq() {
    let tree = frag(
        vec![
            MachInst::ReadAr { d: 0, slot: 0 },
            MachInst::GuardTrue { s: 0, exit: 1 },
            MachInst::End { exit: 0 },
        ],
        2,
    );
    run_both(&tree, &[0], u64::MAX);
    run_both(&tree, &[1], u64::MAX);
    let tree = frag(
        vec![
            MachInst::ReadAr { d: 0, slot: 0 },
            MachInst::GuardFalse { s: 0, exit: 1 },
            MachInst::End { exit: 0 },
        ],
        2,
    );
    run_both(&tree, &[0], u64::MAX);
    run_both(&tree, &[u64::MAX], u64::MAX);
    for wv in [0u64, 6, 14, 0x8000_0000, u64::MAX, 0xFFFF_FFFF_8000_0000] {
        let tree = frag(
            vec![
                MachInst::ReadAr { d: 0, slot: 0 },
                MachInst::GuardBoxedEq { s: 0, w: wv, exit: 1 },
                MachInst::End { exit: 0 },
            ],
            2,
        );
        run_both(&tree, &[wv], u64::MAX);
        run_both(&tree, &[wv.wrapping_add(1)], u64::MAX);
    }
}

#[test]
fn spills_and_moves_and_consts() {
    let mut fr = Fragment::new(
        vec![
            MachInst::ConstW { d: 0, w: 0xDEAD_BEEF_CAFE_F00D },
            MachInst::StoreSpill { slot: 3, s: 0 },
            MachInst::ConstW { d: 0, w: 7 },
            MachInst::Mov { d: 1, s: 0 },
            MachInst::LoadSpill { d: 2, slot: 3 },
            MachInst::WriteAr { slot: 0, s: 1 },
            MachInst::WriteAr { slot: 1, s: 2 },
            MachInst::ConstW { d: 3, w: u64::from(u32::MAX) },
            MachInst::ConstW { d: 4, w: 0xFFFF_FFFF_FFFF_FFFF },
            MachInst::WriteAr { slot: 2, s: 3 },
            MachInst::WriteAr { slot: 3, s: 4 },
            MachInst::End { exit: 0 },
        ],
        4,
        1,
    );
    fr.num_spills = 4;
    run_both(&[fr], &[0, 0, 0, 0], u64::MAX);
}

/// The counting loop the LIR pipeline builds: constant increment,
/// compare + store + guard, loop edge — every selection at once, and
/// the loop tail the decoded executor fuses into one op.
#[test]
fn loop_tail_differential() {
    let mut b = LirBuffer::new(FilterOptions::default());
    let i = b.emit(Lir::Import { slot: 0, ty: LirType::Int });
    let limit = b.emit(Lir::Import { slot: 1, ty: LirType::Int });
    let one = b.emit(Lir::ConstI(1));
    let e_ovf = b.alloc_exit();
    let next = b.emit(Lir::ChkAluI(ChkOp::Add, i, one, e_ovf));
    b.emit(Lir::WriteAr { slot: 0, v: next });
    let cont = b.emit(Lir::CmpI(CmpOp::Lt, next, limit));
    let e_done = b.alloc_exit();
    b.emit(Lir::GuardTrue(cont, e_done));
    let e_loop = b.alloc_exit();
    b.emit(Lir::LoopBack(e_loop));
    let fragments = vec![assemble(b.trace())];

    run_both(&fragments, &[w(0), w(100)], u64::MAX);
    // Fuel exhaustion exits at the loop edge; overflow at the check.
    run_both(&fragments, &[w(0), w(1000)], 50);
    let exit = run_both(&fragments, &[w(0x3FFF_FFF0), w(i32::MAX)], u64::MAX);
    assert_eq!(exit.exit, 0, "the overflow guard");
}

/// A constant operand on either side of each int ALU and checked-ALU
/// op, then AR stores of computed vregs and of the constant (a store
/// of the vreg just computed reuses `rax`); words that are not
/// sign-extended i32s must stay register operands. Each op writes one
/// of r2/r3 and both are stored, so both are read from the record
/// first.
#[test]
fn constant_operands_become_immediates() {
    let consts =
        [w(-3), w(40), w(31), w(0x3FFF_FFFF), u64::MAX, 0x8000_0000, (1 << 32) | 5];
    let xs = [0, 5, -17, 1000, 0x3FFF_FFFF, -0x4000_0000, i32::MAX, i32::MIN];
    let ops = AluOp::ALL.iter().flat_map(|&op| {
        [MachInst::AluI { op, d: 2, a: 0, b: 1 }, MachInst::AluI { op, d: 3, a: 1, b: 0 }]
    });
    let chk = ChkOp::ALL.iter().flat_map(|&op| {
        [
            MachInst::ChkAluI { op, d: 2, a: 0, b: 1, exit: 1 },
            MachInst::ChkAluI { op, d: 3, a: 1, b: 0, exit: 1 },
        ]
    });
    for op in ops.chain(chk) {
        for c in consts {
            let tree = frag(
                vec![
                    MachInst::ReadAr { d: 2, slot: 2 },
                    MachInst::ReadAr { d: 3, slot: 3 },
                    MachInst::ReadAr { d: 0, slot: 0 },
                    MachInst::ConstW { d: 1, w: c },
                    op.clone(),
                    MachInst::WriteAr { slot: 1, s: 0 },
                    MachInst::WriteAr { slot: 2, s: 2 },
                    MachInst::WriteAr { slot: 3, s: 3 },
                    MachInst::WriteAr { slot: 0, s: 1 },
                    MachInst::WriteAr { slot: 4, s: 3 },
                    MachInst::End { exit: 0 },
                ],
                2,
            );
            for x in xs {
                run_both(&tree, &[w(x), 0, 0, 0, 0], u64::MAX);
            }
        }
    }
}

/// Compares with a constant on each side (the left one through
/// `CmpOp::swapped`), a register pair, and doubles (NaN included),
/// each guarded both ways: right after the compare, after a store of
/// its result, after a boolean not of it (and of a value that is no
/// compare's), with the result read again after the guard, and a
/// guard on another register in between.
#[test]
fn guards_branch_on_the_compares_flags() {
    let ints = [0, 1, -1, 4, 9, i32::MAX, i32::MIN];
    let doubles = [0.0, -0.0, 1.5, 4.0, -2.0, f64::NAN, f64::INFINITY];
    let int_cmps = CmpOp::ALL.iter().flat_map(|&op| {
        [
            MachInst::CmpI { op, d: 3, a: 0, b: 2 },
            MachInst::CmpI { op, d: 3, a: 2, b: 0 },
            MachInst::CmpI { op, d: 3, a: 0, b: 1 },
        ]
    });
    let dbl_cmps = CmpOp::ALL.iter().map(|&op| MachInst::CmpD { op, d: 3, a: 0, b: 1 });
    let guards = |exit| [MachInst::GuardTrue { s: 3, exit }, MachInst::GuardFalse { s: 3, exit }];
    for (double, cmp) in int_cmps.map(|c| (false, c)).chain(dbl_cmps.map(|c| (true, c))) {
        for guard in guards(1) {
            let shapes: [&[MachInst]; 6] = [
                &[cmp.clone(), guard.clone()],
                &[cmp.clone(), MachInst::WriteAr { slot: 2, s: 3 }, guard.clone()],
                &[cmp.clone(), MachInst::NotB { d: 3, a: 3 }, guard.clone()],
                &[cmp.clone(), MachInst::NotB { d: 3, a: 0 }, guard.clone()],
                &[
                    cmp.clone(),
                    guard.clone(),
                    MachInst::AluI { op: AluOp::Add, d: 4, a: 3, b: 3 },
                    MachInst::WriteAr { slot: 2, s: 4 },
                ],
                &[cmp.clone(), MachInst::GuardTrue { s: 0, exit: 1 }, guard.clone()],
            ];
            for shape in shapes {
                let mut code = vec![
                    MachInst::ReadAr { d: 0, slot: 0 },
                    MachInst::ReadAr { d: 1, slot: 1 },
                    MachInst::ConstW { d: 2, w: w(4) },
                ];
                code.extend_from_slice(shape);
                code.push(MachInst::End { exit: 0 });
                let tree = frag(code, 2);
                if double {
                    for x in doubles {
                        for y in doubles {
                            run_both(&tree, &[d(x), d(y), 0], u64::MAX);
                        }
                    }
                } else {
                    for x in ints {
                        for y in ints {
                            run_both(&tree, &[w(x), w(y), 0], u64::MAX);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn stitched_fragments_transfer_counts() {
    // Fragment 0 guards r0 and exits to fragment 1 through a stitched
    // exit; fragment 1 writes every vreg it reads, r3 too (no vreg is
    // live across a stitched transfer).
    let mut f0 = Fragment::new(
        vec![
            MachInst::ReadAr { d: 0, slot: 0 },
            MachInst::ConstW { d: 3, w: 17 },
            MachInst::GuardTrue { s: 0, exit: 1 },
            MachInst::End { exit: 0 },
        ],
        0,
        2,
    );
    f0.stitch_exit(1, 1);
    let f1 = Fragment::new(
        vec![
            MachInst::ReadAr { d: 4, slot: 0 },
            MachInst::ConstW { d: 3, w: w(17) },
            MachInst::AluI { op: AluOp::Add, d: 5, a: 4, b: 3 },
            MachInst::WriteAr { slot: 1, s: 5 },
            MachInst::End { exit: 0 },
        ],
        0,
        1,
    );
    let fragments = vec![f0, f1];
    let nt = emit_tree(&fragments).unwrap();
    assert_eq!(agree(&nt, &fragments, &[0, 0]).fragment, 1);
    assert_eq!(agree(&nt, &fragments, &[1, 0]).fragment, 0);
}

#[test]
fn loop_edge_interrupt_and_gc_pending_exit() {
    let mut b = LirBuffer::new(FilterOptions::default());
    let i = b.emit(Lir::Import { slot: 0, ty: LirType::Int });
    let limit = b.emit(Lir::Import { slot: 1, ty: LirType::Int });
    let one = b.emit(Lir::ConstI(1));
    let e_ovf = b.alloc_exit();
    let next = b.emit(Lir::ChkAluI(ChkOp::Add, i, one, e_ovf));
    b.emit(Lir::WriteAr { slot: 0, v: next });
    let cont = b.emit(Lir::CmpI(CmpOp::Lt, next, limit));
    let e_done = b.alloc_exit();
    b.emit(Lir::GuardTrue(cont, e_done));
    let e_loop = b.alloc_exit();
    b.emit(Lir::LoopBack(e_loop));
    let fragments = vec![assemble(b.trace())];

    for set_interrupt in [true, false] {
        let mut realm_dec = Realm::new();
        let mut realm_nat = Realm::new();
        if set_interrupt {
            realm_dec.interrupt = true;
            realm_nat.interrupt = true;
        } else {
            realm_dec.heap.gc_pending = true;
            realm_nat.heap.gc_pending = true;
        }
        let mut ar_dec = vec![w(0), w(100)];
        let mut ar_nat = ar_dec.clone();
        let dec = execute(&fragments, &mut ar_dec, &mut realm_dec, &mut NoNesting, u64::MAX)
            .unwrap();
        let nt = emit_tree(&fragments).unwrap();
        let nat = nt
            .execute(&mut ar_nat, &mut realm_nat, &mut NoNesting, u64::MAX)
            .unwrap();
        assert_eq!(dec, nat);
        assert_eq!(ar_dec, ar_nat);
        assert_eq!(dec.iterations, 1, "first loop edge must take the exit");
    }
}

#[test]
fn only_oversized_helper_calls_fail_emission() {
    // Every heap/helper/nested-tree family now emits.
    assert!(unsupported_op(&MachInst::GuardShape { obj: 0, shape: 3, exit: 1 }).is_none());
    assert!(unsupported_op(&MachInst::CallTree { tree: 0, exit: 0 }).is_none());
    assert!(unsupported_op(&MachInst::ConstW { d: 0, w: 0 }).is_none());
    // The one residual rejection: arity beyond the inline arg buffer.
    let wide = MachInst::CallHelper {
        d: 2,
        helper: Helper::Pow,
        args: vec![0; MAX_HELPER_ARGS + 1].into(),
        exit: 1,
    };
    assert_eq!(unsupported_op(&wide), Some("CallHelper arity"));
    let tree = frag(vec![MachInst::ReadAr { d: 0, slot: 0 }, wide], 2);
    let err = emit_tree(&tree).unwrap_err();
    assert_eq!(err.what, "CallHelper arity");
}

#[test]
fn hexdump_annotates_exit_trampolines() {
    let tree = frag(
        vec![
            MachInst::ReadAr { d: 0, slot: 0 },
            MachInst::GuardTrue { s: 0, exit: 1 },
            MachInst::End { exit: 0 },
        ],
        2,
    );
    // The monitor's emission path skips annotations entirely.
    assert!(emit_tree(&tree).unwrap().hexdump().is_empty());
    let nt = super::emit_tree_annotated(&tree, &[]).unwrap();
    let dump = nt.hexdump();
    assert!(dump.contains("; fragment 0"));
    assert!(dump.contains("GuardTrue"));
    assert!(dump.contains("exit site: fragment 0 exit 1 -> return"));
    assert!(dump.contains("; epilogue"));
    assert!(nt.code_size() > 0);
    assert_eq!(nt.num_fragments(), 1);
}

/// Asserts that no mapping of the process is writable and executable
/// and that the one holding `nt`'s code is `r-x`.
fn assert_wx(nt: &NativeTree) {
    let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
    let mut found = false;
    for line in maps.lines() {
        let mut parts = line.split_whitespace();
        let (Some(range), Some(perms)) = (parts.next(), parts.next()) else { continue };
        assert!(
            !(perms.contains('w') && perms.contains('x')),
            "RWX mapping present: {line}"
        );
        let (lo, hi) = range.split_once('-').unwrap();
        let lo = usize::from_str_radix(lo, 16).unwrap();
        let hi = usize::from_str_radix(hi, 16).unwrap();
        let entry = nt.code_ptr() as usize;
        if (lo..hi).contains(&entry) {
            assert!(perms.starts_with("r-x"), "JIT buffer not r-x: {line}");
            found = true;
        }
    }
    assert!(found, "JIT buffer not found in /proc/self/maps");
}

#[test]
fn wx_mapping_is_never_writable_and_executable() {
    let (trunk, full) = growth_tree();
    let nt = emit_tree(&trunk).unwrap();
    assert_wx(&nt);
    let nt = nt.append(&full, &[]).unwrap();
    assert_wx(&nt);
}

// ---- growth: append a branch, patch the parent's exit ----

/// A counting loop and the branch its odd-`i` guard grows: the trunk
/// alone, then trunk (exit 1 stitched) plus branch. AR: `i`, `limit`,
/// `acc`; the branch adds `i` (read back from the record the trunk
/// wrote it to: no vreg is live across a stitch) to `acc` and loops
/// back.
fn growth_tree() -> (Vec<Fragment>, Vec<Fragment>) {
    let trunk = Fragment::new(
        vec![
            MachInst::ReadAr { d: 0, slot: 0 },
            MachInst::ReadAr { d: 1, slot: 1 },
            MachInst::ConstW { d: 2, w: 1 },
            MachInst::AluI { op: AluOp::Add, d: 0, a: 0, b: 2 },
            MachInst::WriteAr { slot: 0, s: 0 },
            MachInst::CmpI { op: CmpOp::Lt, d: 3, a: 0, b: 1 },
            MachInst::GuardTrue { s: 3, exit: 0 },
            MachInst::AluI { op: AluOp::And, d: 4, a: 0, b: 2 },
            MachInst::GuardFalse { s: 4, exit: 1 },
            MachInst::LoopBack { exit: 2 },
        ],
        0,
        3,
    );
    let branch = Fragment::new(
        vec![
            MachInst::ReadAr { d: 0, slot: 0 },
            MachInst::ReadAr { d: 5, slot: 2 },
            MachInst::AluI { op: AluOp::Add, d: 5, a: 5, b: 0 },
            MachInst::WriteAr { slot: 2, s: 5 },
            MachInst::LoopBack { exit: 0 },
        ],
        0,
        1,
    );
    let mut stitched = trunk.clone();
    stitched.stitch_exit(1, 1);
    (vec![trunk], vec![stitched, branch])
}

/// Runs `nt` and the decoded executor over `fragments` from the same
/// inputs and requires identical exit records and ARs.
fn agree(nt: &NativeTree, fragments: &[Fragment], ar_init: &[u64]) -> TraceExit {
    let mut ar_dec = ar_init.to_vec();
    let dec =
        execute(fragments, &mut ar_dec, &mut Realm::new(), &mut NoNesting, u64::MAX).unwrap();
    let mut ar_nat = ar_init.to_vec();
    let nat =
        nt.execute(&mut ar_nat, &mut Realm::new(), &mut NoNesting, u64::MAX).unwrap();
    assert_eq!(dec, nat, "exit records diverge");
    assert_eq!(ar_dec, ar_nat, "activation records diverge");
    dec
}

#[test]
fn appended_branch_agrees_with_decoded_and_whole_emission() {
    let (trunk, full) = growth_tree();
    let ar = [w(0), w(20), w(0)];
    let grown = emit_tree(&trunk).unwrap();
    let first = agree(&grown, &trunk, &ar);
    assert_eq!((first.fragment, first.exit), (0, 1), "the first odd i leaves the trunk");
    let ptr = grown.code_ptr();
    let trunk_size = grown.code_size();

    let grown = grown.append(&full, &[]).unwrap();
    assert_eq!(grown.code_ptr(), ptr, "an in-capacity append does not move the code");
    assert_eq!(grown.num_fragments(), 2);
    let whole = emit_tree(&full).unwrap();
    assert_eq!(grown.code_size(), whole.code_size(), "same bodies, laid once each");
    assert!(grown.code_size() > trunk_size);
    let exit = agree(&grown, &full, &ar);
    assert_eq!(exit, agree(&whole, &full, &ar));
    assert_eq!((exit.fragment, exit.exit), (0, 0), "the loop now runs to its limit");
    assert!(exit.iterations >= 18, "{exit:?}");
}

#[test]
fn tree_grown_past_capacity_rebuilds_and_agrees() {
    // A branch too large for any first reservation: 40 000 constant
    // loads in front of the real branch body.
    let (trunk, mut full) = growth_tree();
    let mut code = vec![MachInst::ConstW { d: 6, w: 0x1234_5678_9ABC }; 40_000];
    code.append(&mut full[1].code);
    full[1].code = code;
    let grown = emit_tree(&trunk).unwrap();
    assert_eq!(grown.append(&full, &[]).unwrap_err(), super::Unsupported::FULL);
    let rebuilt = emit_tree(&full).unwrap();
    let exit = agree(&rebuilt, &full, &[w(0), w(20), w(0)]);
    assert_eq!((exit.fragment, exit.exit), (0, 0));
    // The rebuilt mapping has room again: the next branch appends.
    let mut more = full.clone();
    more[0].stitch_exit(0, 2);
    more.push(Fragment::new(vec![MachInst::End { exit: 0 }], 0, 1));
    let ptr = rebuilt.code_ptr();
    let grown = rebuilt.append(&more, &[]).unwrap();
    assert_eq!(grown.code_ptr(), ptr);
    assert_eq!(agree(&grown, &more, &[w(0), w(20), w(0)]).fragment, 2);
}

#[test]
fn loop_edge_exit_is_stitched_on_every_source() {
    // The loop edge's interrupt, GC and fuel polls share one exit
    // trampoline; stitching the loop exit must redirect all three.
    let (trunk, _) = growth_tree();
    let mut full = trunk.clone();
    full[0].stitch_exit(2, 1);
    full.push(Fragment::new(
        vec![
            MachInst::ConstW { d: 7, w: 99 },
            MachInst::WriteAr { slot: 2, s: 7 },
            MachInst::End { exit: 0 },
        ],
        0,
        1,
    ));
    let nt = emit_tree(&trunk).unwrap().append(&full, &[]).unwrap();
    for source in 0..3 {
        let setup = |realm: &mut Realm| match source {
            0 => realm.interrupt = true,
            1 => realm.heap.gc_pending = true,
            _ => {}
        };
        let fuel = if source == 2 { 0 } else { u64::MAX };
        // i = 1 → 2: even, so the run reaches the loop edge.
        let (mut realm_dec, mut realm_nat) = (Realm::new(), Realm::new());
        setup(&mut realm_dec);
        setup(&mut realm_nat);
        let mut ar_dec = vec![w(1), w(20), w(0)];
        let mut ar_nat = ar_dec.clone();
        let dec =
            execute(&full, &mut ar_dec, &mut realm_dec, &mut NoNesting, fuel).unwrap();
        let nat = nt.execute(&mut ar_nat, &mut realm_nat, &mut NoNesting, fuel).unwrap();
        assert_eq!(dec, nat, "source {source}");
        assert_eq!(ar_dec, ar_nat, "source {source}");
        assert_eq!((nat.fragment, nat.exit, ar_nat[2]), (1, 0, 99), "source {source}");
    }
}

#[test]
fn hexdump_of_an_appended_tree_annotates_everything() {
    let (trunk, full) = growth_tree();
    let nt = super::emit_tree_annotated(&trunk, &[]).unwrap().append(&full, &[]).unwrap();
    let dump = nt.hexdump();
    for (k, frag) in full.iter().enumerate() {
        assert!(dump.contains(&format!("; fragment {k}\n")), "{dump}");
        for (i, inst) in frag.code.iter().enumerate() {
            assert!(dump.contains(&format!("f{k} {i:4}: {inst:?}")), "f{k} {i}:\n{dump}");
        }
    }
    // Trunk: exits 0 and 1 and the shared loop-edge site; branch: its
    // loop-edge site. The stitch is reported where it was patched in.
    assert_eq!(dump.matches("; exit site: fragment 0 ").count(), 3, "{dump}");
    assert_eq!(dump.matches("; exit site: fragment 1 ").count(), 1, "{dump}");
    assert_eq!(dump.matches("; stitched: jmp fragment 1").count(), 1, "{dump}");
    // Every code byte is listed under some annotation.
    let listed = dump
        .lines()
        .filter(|l| l.starts_with("          "))
        .map(|l| l.split_whitespace().count())
        .sum::<usize>();
    assert_eq!(listed, nt.code_size());
}

/// Runs test `name` again, alone, in a child process of this test
/// binary, and requires it to pass there: the code file is created once
/// per process, so only a process that has not emitted yet can watch its
/// creation or count every range it hands out. `true` in the child,
/// which then runs the test's body.
fn in_fresh_process(name: &str) -> bool {
    if std::env::var_os("TM_X64_FRESH").is_some() {
        return true;
    }
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", &format!("x64::tests::{name}"), "--nocapture", "--test-threads=1"])
        .env("TM_X64_FRESH", "1")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{name} in a fresh process:\n{stdout}{stderr}");
    assert!(stdout.contains("1 passed"), "{name} did not run:\n{stdout}");
    false
}

#[test]
fn refused_syscalls_fail_one_tree_and_leave_the_process_running() {
    use super::buf::{
        REFUSE_NEXT, RESERVATION, SYS_FTRUNCATE, SYS_MEMFD_CREATE, SYS_MMAP, SYS_PWRITE64,
    };
    if !in_fresh_process("refused_syscalls_fail_one_tree_and_leave_the_process_running") {
        return;
    }
    let (trunk, full) = growth_tree();
    let ar = [w(0), w(20), w(0)];
    // What the monitor does with a tree: native code when it has it,
    // the decoded executor when the tree was refused.
    let run = |code: Result<NativeTree, super::Unsupported>| {
        let mut ar = ar.to_vec();
        let exit = match &code {
            Ok(nt) => nt.execute(&mut ar, &mut Realm::new(), &mut NoNesting, u64::MAX),
            Err(_) => execute(&full, &mut ar, &mut Realm::new(), &mut NoNesting, u64::MAX),
        };
        (exit.unwrap(), ar)
    };
    let decoded = run(Err(super::Unsupported::FULL));

    // Each call that creates the code file, at the first emission: the
    // tree is refused and the next emission tries again.
    for (nr, what) in
        [(SYS_MEMFD_CREATE, "memfd_create"), (SYS_FTRUNCATE, "ftruncate"), (SYS_MMAP, "mmap")]
    {
        REFUSE_NEXT.set(Some(nr));
        let refused = emit_tree(&full);
        assert_eq!(refused.as_ref().unwrap_err().what, what);
        assert_eq!(run(refused), decoded);
    }

    // The pwrite of an append, and of a first emission.
    let nt = emit_tree(&trunk).unwrap();
    REFUSE_NEXT.set(Some(SYS_PWRITE64));
    let refused = nt.append(&full, &[]);
    assert_eq!(refused.as_ref().unwrap_err().what, "pwrite");
    assert_eq!(run(refused), decoded);
    REFUSE_NEXT.set(Some(SYS_PWRITE64));
    let refused = emit_tree(&full);
    assert_eq!(refused.as_ref().unwrap_err().what, "pwrite");
    assert_eq!(run(refused), decoded);

    // A spent reservation: every range is held by a live tree.
    let mut held = Vec::new();
    let refused = loop {
        match emit_tree(&trunk) {
            Ok(nt) => held.push(nt),
            Err(refused) => break refused,
        }
    };
    assert_eq!(refused.what, "reservation");
    assert_eq!(held.len(), RESERVATION / super::buf::CAPACITY_FLOOR);
    assert_eq!(run(Err(refused)), decoded);
    for nt in &held[..3] {
        assert_eq!(agree(nt, &trunk, &ar), agree(&held[held.len() - 1], &trunk, &ar));
    }

    // The switch is spent, and a dropped tree makes room: the next tree
    // emits and agrees.
    assert!(REFUSE_NEXT.get().is_none());
    held.pop();
    assert_eq!(run(emit_tree(&trunk).unwrap().append(&full, &[])), decoded);
}

#[test]
fn a_dropped_tree_gives_its_range_to_the_next() {
    if !in_fresh_process("a_dropped_tree_gives_its_range_to_the_next") {
        return;
    }
    let (trunk, full) = growth_tree();
    let first = emit_tree(&trunk).unwrap();
    let ptr = first.code_ptr();
    drop(first);
    let second = emit_tree(&full).unwrap();
    assert_eq!(second.code_ptr(), ptr, "the freed range is reused");
    agree(&second, &full, &[w(0), w(20), w(0)]);
    drop(second);
    for _ in 0..1000 {
        drop(emit_tree(&trunk).unwrap());
    }
    assert_eq!(super::buf::CodeFile::top(), super::buf::CAPACITY_FLOOR, "one range, ever");
}

#[test]
fn the_code_file_is_never_mapped_writable() {
    let maps = || {
        let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
        let code: Vec<String> =
            maps.lines().filter(|l| l.contains("memfd:tm-code")).map(str::to_owned).collect();
        assert_eq!(code.len(), 1, "the code file is mapped once:\n{maps}");
        assert_eq!(code[0].split_whitespace().nth(1), Some("r-xs"), "{}", code[0]);
    };
    let (trunk, full) = growth_tree();
    let nt = emit_tree(&trunk).unwrap();
    maps();
    let nt = nt.append(&full, &[]).unwrap();
    maps();
    agree(&nt, &full, &[w(0), w(20), w(0)]);
}

// ---- full-coverage tier: heap ops, helper calls, nested trees ----

/// Allocates, identically in any fresh realm: a 2-slot plain object
/// with a prototype, a 3-element array, and a string. Returns the
/// (object, array, string-id) AR-ready words.
fn setup_heap(realm: &mut Realm) -> (u64, u64, u64) {
    let proto = realm.new_plain_object();
    let mut o = Object::new_plain(Some(proto));
    o.slots = vec![Value::new_int(7), Value::new_int(-3)].into();
    let obj = realm.heap.alloc_object(o);
    let arr = realm.heap.alloc_object(Object::new_array(3, None));
    for (i, v) in [10, 20, 30].into_iter().enumerate() {
        realm.heap.object_mut(arr).elements[i] = Value::new_int(v);
    }
    let sv = realm.heap.alloc_string("hello, trace");
    let sid = sv.as_string().expect("string value");
    (u64::from(obj.0), u64::from(arr.0), u64::from(sid.0))
}

/// `setup_heap` on a throwaway realm, to learn the ids/shape the
/// differential runs will see.
fn probe_heap() -> (Realm, u64, u64, u64) {
    let mut probe = Realm::new();
    let (o, a, st) = setup_heap(&mut probe);
    (probe, o, a, st)
}

#[test]
fn guard_shape_differential_hit_and_miss() {
    let (probe, obj_w, _, _) = probe_heap();
    let shape = probe.heap.object(ObjectId(obj_w as u32)).shape.0;
    let tree = |shape| {
        frag(
            vec![
                MachInst::ReadAr { d: 0, slot: 0 },
                MachInst::GuardShape { obj: 0, shape, exit: 1 },
                MachInst::ConstW { d: 1, w: 99 },
                MachInst::WriteAr { slot: 1, s: 1 },
                MachInst::End { exit: 0 },
            ],
            2,
        )
    };
    let hit = run_both_with(&tree(shape), &[obj_w, 0], u64::MAX, |r| {
        setup_heap(r);
    });
    assert_eq!(hit.exit, 0, "matching shape falls through");
    let miss = run_both_with(&tree(shape + 1), &[obj_w, 0], u64::MAX, |r| {
        setup_heap(r);
    });
    assert_eq!(miss.exit, 1, "shape-guard miss takes the side exit");
}

#[test]
fn guard_class_differential() {
    let (_, obj_w, arr_w, _) = probe_heap();
    let tree = |class: u8| {
        frag(
            vec![
                MachInst::ReadAr { d: 0, slot: 0 },
                MachInst::GuardClass { obj: 0, class, exit: 1 },
                MachInst::End { exit: 0 },
            ],
            2,
        )
    };
    for (objw, class, want) in [
        (obj_w, ObjectClass::Plain as u8, 0),
        (obj_w, ObjectClass::Array as u8, 1),
        (arr_w, ObjectClass::Array as u8, 0),
        (arr_w, ObjectClass::Function as u8, 1),
    ] {
        let e = run_both_with(&tree(class), &[objw], u64::MAX, |r| {
            setup_heap(r);
        });
        assert_eq!(e.exit, want);
    }
}

#[test]
fn guard_bound_differential() {
    let (_, _, arr_w, _) = probe_heap();
    let tree = frag(
        vec![
            MachInst::ReadAr { d: 0, slot: 0 },
            MachInst::ReadAr { d: 1, slot: 1 },
            MachInst::GuardBound { arr: 0, idx: 1, exit: 1 },
            MachInst::End { exit: 0 },
        ],
        2,
    );
    for (i, want) in [(0, 0), (2, 0), (3, 1), (-1, 1)] {
        let e = run_both_with(&tree, &[arr_w, w(i)], u64::MAX, |r| {
            setup_heap(r);
        });
        assert_eq!(e.exit, want, "index {i}");
    }
}

#[test]
fn slot_load_store_differential() {
    let (_, obj_w, _, _) = probe_heap();
    // Read slot 1, overwrite slot 0 with it, read slot 0 back.
    let tree = frag(
        vec![
            MachInst::ReadAr { d: 0, slot: 0 },
            MachInst::LoadSlot { d: 1, o: 0, slot: 1 },
            MachInst::StoreSlot { o: 0, slot: 0, s: 1 },
            MachInst::LoadSlot { d: 2, o: 0, slot: 0 },
            MachInst::WriteAr { slot: 1, s: 2 },
            MachInst::End { exit: 0 },
        ],
        1,
    );
    run_both_with(&tree, &[obj_w, 0], u64::MAX, |r| {
        setup_heap(r);
    });
}

#[test]
fn elem_load_store_and_growth_differential() {
    let (_, _, arr_w, _) = probe_heap();
    // elements[2] -> elements[0]; then a growing store at index 5
    // (set_element extends the dense array) observed via ArrayLen.
    let tree = frag(
        vec![
            MachInst::ReadAr { d: 0, slot: 0 },
            MachInst::ReadAr { d: 1, slot: 1 },
            MachInst::ReadAr { d: 2, slot: 2 },
            MachInst::LoadElem { d: 3, a: 0, i: 1 },
            MachInst::StoreElem { a: 0, i: 2, s: 3 },
            MachInst::ArrayLen { d: 4, a: 0 },
            MachInst::WriteAr { slot: 1, s: 3 },
            MachInst::WriteAr { slot: 2, s: 4 },
            MachInst::End { exit: 0 },
        ],
        1,
    );
    run_both_with(&tree, &[arr_w, w(2), w(0)], u64::MAX, |r| {
        setup_heap(r);
    });
    run_both_with(&tree, &[arr_w, w(1), w(5)], u64::MAX, |r| {
        setup_heap(r);
    });
}

#[test]
fn proto_array_len_str_len_differential() {
    let (_, obj_w, arr_w, str_w) = probe_heap();
    let tree = frag(
        vec![
            MachInst::ReadAr { d: 0, slot: 0 },
            MachInst::ReadAr { d: 1, slot: 1 },
            MachInst::ReadAr { d: 2, slot: 2 },
            MachInst::LoadProto { d: 3, o: 0 },
            MachInst::ArrayLen { d: 4, a: 1 },
            MachInst::StrLen { d: 5, a: 2 },
            MachInst::WriteAr { slot: 0, s: 3 },
            MachInst::WriteAr { slot: 1, s: 4 },
            MachInst::WriteAr { slot: 2, s: 5 },
            MachInst::End { exit: 0 },
        ],
        1,
    );
    run_both_with(&tree, &[obj_w, arr_w, str_w], u64::MAX, |r| {
        setup_heap(r);
    });
}

/// `D2I32` is the truncation's low 32 bits, inline, for |x| < 2^63 and
/// `d2i32_shim` for the one sentinel word (NaN, ±Inf, out of range):
/// both agree with `ops::double_to_int32` on the edges of each.
#[test]
fn d2i32_is_exact_toint32_inline_and_through_the_shim() {
    let (p31, p53, p63) = (2f64.powi(31), 2f64.powi(53), 2f64.powi(63));
    let mut cases = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, p63, -p63];
    for x in [p31, p53] {
        cases.extend([x, -x, x + 1.0, x - 1.0, -x + 1.0, -x - 1.0]);
    }
    let tree = unop_tree(MachInst::D2I32 { d: 2, a: 0 });
    for x in cases {
        run_both(&tree, &[d(x), 0, 0], u64::MAX);
        let mut ar = [d(x), 0, 0];
        emit_tree(&tree).unwrap().execute(&mut ar, &mut Realm::new(), &mut NoNesting, 0).unwrap();
        let want = i64::from(tm_runtime::ops::double_to_int32(x)) as u64;
        assert_eq!(ar[2], want, "ToInt32({x:e})");
    }
}

/// The object and double families lower inline, and only `LoadProto`,
/// `StrLen` and `Box(Double)` call a heap shim.
#[test]
fn heap_families_lower_inline() {
    let tree = frag(
        vec![
            MachInst::ReadAr { d: 0, slot: 0 },
            MachInst::ReadAr { d: 1, slot: 1 },
            MachInst::GuardShape { obj: 0, shape: 0, exit: 1 },
            MachInst::GuardClass { obj: 0, class: 0, exit: 1 },
            MachInst::GuardBound { arr: 0, idx: 1, exit: 1 },
            MachInst::LoadSlot { d: 2, o: 0, slot: 0 },
            MachInst::StoreSlot { o: 0, slot: 0, s: 2 },
            MachInst::LoadElem { d: 2, a: 0, i: 1 },
            MachInst::StoreElem { a: 0, i: 1, s: 2 },
            MachInst::ArrayLen { d: 2, a: 0 },
            MachInst::Unbox { tag: Tag::Double, d: 2, a: 1, exit: 1 },
            MachInst::UnboxNumD { d: 2, a: 1, exit: 1 },
            MachInst::LoadProto { d: 2, o: 0 },
            MachInst::StrLen { d: 2, a: 0 },
            MachInst::Box { tag: Tag::Double, d: 2, a: 1 },
            MachInst::End { exit: 0 },
        ],
        2,
    );
    let nt = emit_tree(&tree).unwrap();
    let shims: Vec<_> = nt.heap_sites().iter().filter(|(_, n)| n.shim > 0).map(|(f, _)| *f).collect();
    assert_eq!(shims, ["Box(Double)", "LoadProto", "StrLen"]);
    let inline: Vec<_> = nt.heap_sites().iter().filter(|(_, n)| n.inline > 0).map(|(f, _)| *f).collect();
    assert_eq!(inline.len(), 10, "{inline:?}");
}

/// A slot or element index not below the live length runs the shim,
/// whose semantics is the decoded tier's: a panic, not a read past the
/// storage. A panic inside an `extern "C"` shim aborts, so each case
/// runs in a child process (this test binary, filtered to this test,
/// with `TM_X64_OOB` naming the case) whose stderr must show it.
#[test]
fn out_of_range_slot_and_element_accesses_reach_the_shim() {
    let (_, obj_w, arr_w, _) = probe_heap();
    let cases = [
        ("load-slot", MachInst::LoadSlot { d: 2, o: 0, slot: 2 }, obj_w),
        ("store-slot", MachInst::StoreSlot { o: 0, slot: 5, s: 1 }, obj_w),
        ("load-elem", MachInst::LoadElem { d: 2, a: 0, i: 1 }, arr_w),
    ];
    let tree = |op: &MachInst| {
        frag(
            vec![
                MachInst::ReadAr { d: 0, slot: 0 },
                MachInst::ReadAr { d: 1, slot: 1 },
                op.clone(),
                MachInst::End { exit: 0 },
            ],
            1,
        )
    };
    let ar = |obj| [obj, w(3)];
    if let Ok(case) = std::env::var("TM_X64_OOB") {
        let (_, op, obj) = cases.iter().find(|c| c.0 == case).expect("a case name");
        let mut realm = Realm::new();
        setup_heap(&mut realm);
        let nt = emit_tree(&tree(op)).unwrap();
        let _ = nt.execute(&mut ar(*obj), &mut realm, &mut NoNesting, u64::MAX);
        return;
    }
    for (case, op, obj) in &cases {
        let decoded = std::panic::catch_unwind(|| {
            let mut realm = Realm::new();
            setup_heap(&mut realm);
            execute(&tree(op), &mut ar(*obj), &mut realm, &mut NoNesting, u64::MAX)
        });
        assert!(decoded.is_err(), "{case}: the decoded tier panics");
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "x64::tests::out_of_range_slot_and_element_accesses_reach_the_shim"])
            .args(["--nocapture", "--test-threads=1"])
            .env("TM_X64_OOB", case)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{case}: the native run must not complete");
        assert!(stderr.contains("index out of bounds"), "{case}: {stderr}");
    }
}

/// Allocates enough objects to grow the object arena past any capacity
/// a fresh realm starts with.
fn allocating_native(realm: &mut Realm, _args: &[Value]) -> Result<Value, RuntimeError> {
    for _ in 0..4096 {
        realm.new_plain_object();
    }
    Ok(Value::UNDEFINED)
}

/// One object read before and after a helper that reallocates the
/// object arena, in one fragment: every inline access re-reads the base.
#[test]
fn an_arena_that_moves_between_two_accesses_is_read_at_its_new_base() {
    let (_, obj_w, _, _) = probe_heap();
    let setup = |realm: &mut Realm| {
        setup_heap(realm);
        realm.register_native("test.alloc", allocating_native, NativeEffects::default(), None)
    };
    let id = setup(&mut Realm::new());
    let tree = frag(
        vec![
            MachInst::ReadAr { d: 0, slot: 0 },
            MachInst::LoadSlot { d: 1, o: 0, slot: 1 },
            MachInst::CallHelper {
                d: 2,
                helper: Helper::CallNative(id),
                args: vec![1].into(),
                exit: 1,
            },
            MachInst::GuardClass { obj: 0, class: ObjectClass::Plain as u8, exit: 1 },
            MachInst::LoadSlot { d: 2, o: 0, slot: 0 },
            MachInst::StoreSlot { o: 0, slot: 1, s: 2 },
            MachInst::LoadSlot { d: 3, o: 0, slot: 1 },
            MachInst::WriteAr { slot: 0, s: 1 },
            MachInst::WriteAr { slot: 1, s: 3 },
            MachInst::End { exit: 0 },
        ],
        2,
    );
    let e = run_both_with(&tree, &[obj_w, 0], u64::MAX, |r| {
        setup(r);
    });
    assert_eq!(e.exit, 0);
    // The helper does move the arena.
    let mut realm = Realm::new();
    setup(&mut realm);
    let at = |realm: &Realm| std::ptr::from_ref(realm.heap.object(ObjectId(obj_w as u32)));
    let before = at(&realm);
    allocating_native(&mut realm, &[]).unwrap();
    assert_ne!(before, at(&realm), "the object arena reallocated");
}

/// `ArraySetElem` one past the end reallocates the array's elements;
/// the `LoadElem` and `ArrayLen` after it read the new storage.
#[test]
fn elements_grown_by_a_helper_are_read_at_their_new_address() {
    let (_, _, arr_w, _) = probe_heap();
    let tree = frag(
        vec![
            MachInst::ReadAr { d: 0, slot: 0 },
            MachInst::ReadAr { d: 1, slot: 1 },
            MachInst::ReadAr { d: 2, slot: 2 },
            MachInst::LoadElem { d: 3, a: 0, i: 1 },
            MachInst::ConstW { d: 4, w: w(3) },
            MachInst::CallHelper {
                d: 5,
                helper: Helper::ArraySetElem,
                args: vec![0, 4, 2].into(),
                exit: 1,
            },
            MachInst::GuardBound { arr: 0, idx: 4, exit: 1 },
            MachInst::LoadElem { d: 5, a: 0, i: 4 },
            MachInst::ArrayLen { d: 4, a: 0 },
            MachInst::WriteAr { slot: 0, s: 3 },
            MachInst::WriteAr { slot: 1, s: 5 },
            MachInst::WriteAr { slot: 2, s: 4 },
            MachInst::End { exit: 0 },
        ],
        2,
    );
    let e = run_both_with(&tree, &[arr_w, w(2), Value::new_int(77).raw()], u64::MAX, |r| {
        setup_heap(r);
    });
    assert_eq!(e.exit, 0);
}

#[test]
fn call_helper_differential_pure_and_allocating() {
    // Pure 1-arg and 2-arg math helpers.
    let tree = frag(
        vec![
            MachInst::ReadAr { d: 0, slot: 0 },
            MachInst::ReadAr { d: 1, slot: 1 },
            MachInst::CallHelper { d: 2, helper: Helper::Sin, args: vec![0].into(), exit: 1 },
            MachInst::CallHelper {
                d: 3,
                helper: Helper::Pow,
                args: vec![0, 1].into(),
                exit: 1,
            },
            MachInst::WriteAr { slot: 0, s: 2 },
            MachInst::WriteAr { slot: 1, s: 3 },
            MachInst::End { exit: 0 },
        ],
        2,
    );
    let e = run_both_with(&tree, &[d(0.5), d(3.0)], u64::MAX, |_| {});
    assert_eq!(e.exit, 0, "pure helpers never take the reenter exit");

    // The soft-float filter's calls carry the no-exit sentinel.
    let tree = binop_tree(MachInst::CallHelper {
        d: 2,
        helper: Helper::SoftMul,
        args: vec![0, 1].into(),
        exit: tm_lir::NO_EXIT.0,
    });
    run_both(&tree, &[d(1.5), d(-4.0), 0], u64::MAX);

    // An allocating string helper: both realms allocate identically.
    let (_, _, _, str_w) = probe_heap();
    let tree = frag(
        vec![
            MachInst::ReadAr { d: 0, slot: 0 },
            MachInst::CallHelper {
                d: 1,
                helper: Helper::ConcatStrings,
                args: vec![0, 0].into(),
                exit: 1,
            },
            MachInst::StrLen { d: 2, a: 1 },
            MachInst::WriteAr { slot: 0, s: 2 },
            MachInst::End { exit: 0 },
        ],
        2,
    );
    run_both_with(&tree, &[str_w], u64::MAX, |r| {
        setup_heap(r);
    });
}

fn reentering_native(realm: &mut Realm, _args: &[Value]) -> Result<Value, RuntimeError> {
    realm.output.push('.');
    Ok(Value::new_int(5))
}

fn failing_native(_realm: &mut Realm, _args: &[Value]) -> Result<Value, RuntimeError> {
    Err(RuntimeError::Other("native failure".into()))
}

#[test]
fn call_helper_reenter_takes_exit_on_both_tiers() {
    let register = |realm: &mut Realm| {
        realm.register_native(
            "test.reenter",
            reentering_native,
            NativeEffects { may_reenter: true, ..NativeEffects::default() },
            None,
        )
    };
    let id = register(&mut Realm::new());
    let tree = frag(
        vec![
            MachInst::ReadAr { d: 0, slot: 0 },
            MachInst::CallHelper {
                d: 1,
                helper: Helper::CallNative(id),
                args: vec![0].into(),
                exit: 1,
            },
            MachInst::WriteAr { slot: 0, s: 1 },
            MachInst::End { exit: 0 },
        ],
        2,
    );
    let e = run_both_with(&tree, &[Value::new_int(1).raw()], u64::MAX, |r| {
        register(r);
    });
    assert_eq!(e.exit, 1, "§6.5: reentrant native forces the side exit");
}

#[test]
fn call_helper_error_propagates_from_native_code() {
    let register = |realm: &mut Realm| {
        realm.register_native(
            "test.fail",
            failing_native,
            NativeEffects::default(),
            None,
        )
    };
    let id = register(&mut Realm::new());
    let tree = frag(
        vec![
            MachInst::ReadAr { d: 0, slot: 0 },
            MachInst::CallHelper {
                d: 1,
                helper: Helper::CallNative(id),
                args: vec![0].into(),
                exit: 1,
            },
            MachInst::End { exit: 0 },
        ],
        2,
    );
    let mut realm_dec = Realm::new();
    register(&mut realm_dec);
    let mut ar_dec = vec![Value::new_int(1).raw()];
    let dec =
        execute(&tree, &mut ar_dec, &mut realm_dec, &mut NoNesting, u64::MAX)
            .unwrap_err();
    let mut realm_nat = Realm::new();
    register(&mut realm_nat);
    let mut ar_nat = vec![Value::new_int(1).raw()];
    let nt = emit_tree(&tree).unwrap();
    let nat = nt
        .execute(&mut ar_nat, &mut realm_nat, &mut NoNesting, u64::MAX)
        .unwrap_err();
    assert_eq!(dec, nat, "both tiers surface the helper's RuntimeError");
}

#[test]
fn call_helper_sites_annotate_helper_names() {
    let tree = frag(
        vec![
            MachInst::ReadAr { d: 0, slot: 0 },
            MachInst::CallHelper { d: 1, helper: Helper::Sqrt, args: vec![0].into(), exit: 1 },
            MachInst::End { exit: 0 },
        ],
        2,
    );
    let dump = super::emit_tree_annotated(&tree, &[]).unwrap().hexdump();
    assert!(
        dump.contains("; helper table[0] = Sqrt"),
        "hexdump resolves the helper name, not just a table index:\n{dump}"
    );
}

#[test]
fn call_tree_reenters_host_and_bridges() {
    let fragments = frag(
        vec![
            MachInst::CallTree { tree: 3, exit: 1 },
            MachInst::ConstW { d: 0, w: 1 },
            MachInst::WriteAr { slot: 0, s: 0 },
            MachInst::End { exit: 0 },
        ],
        2,
    );
    struct Scripted {
        cont: bool,
        seen_site: u32,
    }
    impl TreeHost for Scripted {
        fn call_tree(
            &mut self,
            tree: u32,
            ar: &mut [u64],
            _realm: &mut Realm,
        ) -> Result<bool, RuntimeError> {
            self.seen_site = tree;
            ar[1] = 7;
            Ok(self.cont)
        }
    }
    for cont in [false, true] {
        let mut realm_dec = Realm::new();
        let mut ar_dec = vec![0u64, 0];
        let mut h_dec = Scripted { cont, seen_site: u32::MAX };
        let dec = execute(&fragments, &mut ar_dec, &mut realm_dec, &mut h_dec, u64::MAX)
            .unwrap();
        let mut realm_nat = Realm::new();
        let mut ar_nat = vec![0u64, 0];
        let mut h_nat = Scripted { cont, seen_site: u32::MAX };
        let nt = emit_tree(&fragments).unwrap();
        let nat = nt
            .execute(&mut ar_nat, &mut realm_nat, &mut h_nat, u64::MAX)
            .unwrap();
        assert_eq!(dec, nat, "exit records diverge");
        assert_eq!(ar_dec, ar_nat, "activation records diverge");
        assert_eq!(h_nat.seen_site, 3, "nested-site id passes through the shim");
        assert_eq!(ar_nat[1], 7, "host AR writes visible after native CallTree");
        assert_eq!(dec.exit, u16::from(!cont), "Ok(false) takes the call's exit");
    }
    // An erroring host (NoNesting included) propagates Err out of
    // the native buffer, matching the decoded tier.
    let nt = emit_tree(&fragments).unwrap();
    let mut ar = vec![0u64, 0];
    let err = nt
        .execute(&mut ar, &mut Realm::new(), &mut NoNesting, u64::MAX)
        .unwrap_err();
    let mut ar = vec![0u64, 0];
    let dec_err =
        execute(&fragments, &mut ar, &mut Realm::new(), &mut NoNesting, u64::MAX)
            .unwrap_err();
    assert_eq!(dec_err, err);
}

// ---- vregs in machine registers ----

/// The i31 range check (`lea`, `shr`, `jnz`) at its edges, through each
/// instruction that runs it: `ChkRangeI`, checked add, sub and mul (with
/// products far outside i32 too), `NegIChk` and `D2IChk`.
#[test]
fn the_i31_range_check_holds_at_its_edges() {
    let in_range = |r: i64| (-(1 << 30)..1 << 30).contains(&r);
    let edges = [-(1 << 30) - 1, -(1 << 30), (1 << 30) - 1, 1 << 30];
    for x in edges {
        let out = u16::from(!in_range(x.into()));
        let chk = unop_tree(MachInst::ChkRangeI { d: 2, a: 0, exit: 1 });
        assert_eq!(run_both(&chk, &[w(x), 0, 0], u64::MAX).exit, out, "ChkRangeI {x}");
        let neg = unop_tree(MachInst::NegIChk { d: 2, a: 0, exit: 1 });
        let out = u16::from(!in_range(-i64::from(x)));
        assert_eq!(run_both(&neg, &[w(x), 0, 0], u64::MAX).exit, out, "NegIChk {x}");
        let d2i = unop_tree(MachInst::D2IChk { d: 2, a: 0, exit: 1 });
        let out = u16::from(!in_range(x.into()));
        assert_eq!(run_both(&d2i, &[d(f64::from(x)), 0, 0], u64::MAX).exit, out, "D2IChk {x}");
    }
    let pairs = [
        ((1 << 30) - 1, 1),
        ((1 << 30) - 2, 1),
        (-(1 << 30), -1),
        (-(1 << 30) + 1, -1),
        (1 << 15, 1 << 15),
        (-(1 << 15), 1 << 15),
        (-1, -(1 << 30)),
        (i32::MIN, i32::MIN),
        (i32::MAX, i32::MIN),
        (i32::MAX, i32::MAX),
    ];
    for (x, y) in pairs {
        let (x64, y64) = (i64::from(x), i64::from(y));
        for (op, r) in [(ChkOp::Add, x64 + y64), (ChkOp::Sub, x64 - y64), (ChkOp::Mul, x64 * y64)] {
            let tree = binop_tree(MachInst::ChkAluI { op, d: 2, a: 0, b: 1, exit: 1 });
            let exit = run_both(&tree, &[w(x), w(y), 0], u64::MAX).exit;
            assert_eq!(exit, u16::from(!in_range(r)), "{op:?} {x} {y}");
        }
    }
}

/// Every vreg holds a word of its own across `call`, an instruction that
/// calls out of native code, and each is read back after it: `ar[0..12]`
/// in, `ar[12..24]` out (the call's result among them, when it has one).
fn across_call(call: MachInst, ins: [u64; 12], setup: impl Fn(&mut Realm)) -> TraceExit {
    let mut code: Vec<MachInst> =
        (0..12).map(|v| MachInst::ReadAr { d: v, slot: u16::from(v) }).collect();
    code.push(call);
    code.extend((0..12).map(|v| MachInst::WriteAr { slot: 12 + u16::from(v), s: v }));
    code.push(MachInst::End { exit: 0 });
    let mut ar = ins.to_vec();
    ar.resize(24, 0);
    run_both_with(&frag(code, 2), &ar, u64::MAX, setup)
}

#[test]
fn every_vreg_survives_each_kind_of_call() {
    let (_, _, arr_w, _) = probe_heap();
    let ints = |k: i32| -> [u64; 12] { std::array::from_fn(|v| w(1000 * v as i32 + k)) };
    // An element store at the length: the shim grows the array.
    let mut ins = ints(1);
    (ins[0], ins[1]) = (arr_w, w(3));
    let store = MachInst::StoreElem { a: 0, i: 1, s: 5 };
    across_call(store, ins, |r| {
        setup_heap(r);
    });
    // A helper call, the remainder shim, and `D2I32` of NaN.
    let mut ins = ints(2);
    (ins[0], ins[1]) = (d(5.5), d(2.0));
    let pow = MachInst::CallHelper { d: 11, helper: Helper::Pow, args: vec![0, 1].into(), exit: 1 };
    assert_eq!(across_call(pow, ins, |_| {}).exit, 0);
    across_call(MachInst::AluD { op: FOp::Mod, d: 11, a: 0, b: 1 }, ins, |_| {});
    ins[0] = d(f64::NAN);
    across_call(MachInst::D2I32 { d: 11, a: 0 }, ins, |_| {});
    // Boxing an integer outside 31 bits, and a double: both allocate.
    let mut ins = ints(3);
    ins[0] = w(1 << 30);
    across_call(MachInst::Box { tag: Tag::Int, d: 11, a: 0 }, ins, |_| {});
    ins[0] = d(2.5);
    across_call(MachInst::Box { tag: Tag::Double, d: 11, a: 0 }, ins, |_| {});
}

/// A guard taken into a stitched branch while every vreg is live: the
/// branch writes what it reads, the trunk's path reads back all twelve.
#[test]
fn a_guard_taken_into_a_stitched_branch_with_every_vreg_live() {
    let mut code: Vec<MachInst> =
        (0..12).map(|v| MachInst::ReadAr { d: v, slot: u16::from(v) }).collect();
    code.push(MachInst::GuardTrue { s: 6, exit: 1 });
    code.extend((0..12).map(|v| MachInst::WriteAr { slot: 12 + u16::from(v), s: v }));
    code.push(MachInst::End { exit: 0 });
    let mut trunk = Fragment::new(code, 0, 2);
    trunk.stitch_exit(1, 1);
    let branch = Fragment::new(
        vec![
            MachInst::ReadAr { d: 2, slot: 3 },
            MachInst::ReadAr { d: 5, slot: 4 },
            MachInst::AluI { op: AluOp::Add, d: 3, a: 2, b: 5 },
            MachInst::WriteAr { slot: 12, s: 3 },
            MachInst::End { exit: 0 },
        ],
        0,
        1,
    );
    let fragments = [trunk, branch];
    for taken in [false, true] {
        let mut ar: Vec<u64> = (0..24).map(|k| w(100 * k + 7)).collect();
        ar[6] = u64::from(!taken);
        let exit = run_both(&fragments, &ar, u64::MAX);
        assert_eq!(exit.fragment, u32::from(taken));
    }
}
