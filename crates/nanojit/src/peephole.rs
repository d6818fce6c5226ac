//! Peephole superinstruction fusion over assembled fragments.
//!
//! Runs between register allocation ([`crate::assembler::assemble`]) and
//! fragment installation. Three rewrites iterate to a fixpoint:
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
//! The pass is semantics-preserving by construction: every fused form
//! performs exactly the reads, writes, checks and exits of the raw
//! sequence it replaces, in the same order ([`crate::machinst`] documents
//! each). `tm-verifier::verify_fragment` re-checks the structural
//! invariants after fusion.

use crate::machinst::{Fragment, FuseStats, MachInst, Reg, REG_FILE_WORDS, REG_MASK};

/// Fuses a fragment in place and fills in its [`FuseStats`].
pub fn fuse(mut frag: Fragment) -> Fragment {
    let raw_insts = frag.code.len() as u32;
    let mut dce_removed = 0;
    loop {
        let folded = fold_immediates(&mut frag.code);
        let paired = fuse_pairs(&mut frag.code);
        let removed = remove_dead(&mut frag.code);
        dce_removed += removed;
        if !folded && !paired && removed == 0 {
            break;
        }
    }
    frag.fuse_stats = FuseStats {
        raw_insts,
        fused_insts: frag.code.len() as u32,
        superinsts: frag.code.iter().filter(|i| i.is_fused()).count() as u32,
        dce_removed,
    };
    frag
}

fn reg_idx(r: Reg) -> usize {
    (r & REG_MASK) as usize
}

/// Whether `w` (a `ConstW` payload) is a sign-extended 32-bit integer,
/// i.e. usable verbatim as an `i32` immediate.
fn as_imm(w: u64) -> Option<i32> {
    let v = w as i32;
    if i64::from(v) as u64 == w {
        Some(v)
    } else {
        None
    }
}

/// True when register `r`'s current value is never read in `tail` (which
/// must be the rest of the fragment). Sound because no register is live
/// across the back edge or a stitched transfer.
fn reg_dead(tail: &[MachInst], r: Reg) -> bool {
    for inst in tail {
        let mut read = false;
        inst.for_each_src(|s| read |= s == r);
        if read {
            return false;
        }
        if inst.dest() == Some(r) {
            return true;
        }
    }
    true
}

/// Pass 1: rewrite register operands that provably hold constants into
/// immediate forms. The defining `ConstW` is left for DCE to collect.
fn fold_immediates(code: &mut [MachInst]) -> bool {
    use MachInst::*;
    let mut known: [Option<i32>; REG_FILE_WORDS] = [None; REG_FILE_WORDS];
    let mut changed = false;
    for inst in code.iter_mut() {
        let replacement = match *inst {
            AluI { op, d, a, b } => match (known[reg_idx(a)], known[reg_idx(b)]) {
                // Both constant is left to the b-side fold (a stays a reg
                // read; LIR-level folding already handles const⊕const).
                (_, Some(imm)) => Some(AluImmI { op, d, a, imm }),
                (Some(imm), None) if op.commutative() => Some(AluImmI { op, d, a: b, imm }),
                _ => None,
            },
            ChkAluI { op, d, a, b, exit } => match (known[reg_idx(a)], known[reg_idx(b)]) {
                (_, Some(imm)) => Some(ChkAluImmI { op, d, a, imm, exit }),
                (Some(imm), None) if op.commutative() => {
                    Some(ChkAluImmI { op, d, a: b, imm, exit })
                }
                _ => None,
            },
            // Compares are not commutative, but every CmpOp has a swapped
            // twin, so a constant on either side folds.
            CmpI { op, d, a, b } => match (known[reg_idx(a)], known[reg_idx(b)]) {
                (_, Some(imm)) => Some(CmpImmI { op, d, a, imm }),
                (Some(imm), None) => Some(CmpImmI { op: op.swapped(), d, a: b, imm }),
                _ => None,
            },
            _ => None,
        };
        if let Some(new) = replacement {
            *inst = new;
            changed = true;
        }
        match inst {
            ConstW { d, w } | ConstWrAr { d, w, .. } => known[reg_idx(*d)] = as_imm(*w),
            _ => {
                if let Some(d) = inst.dest() {
                    known[reg_idx(d)] = None;
                }
            }
        }
    }
    changed
}

/// Pass 2: left fold over the instruction stream, fusing each instruction
/// with the previously emitted one where a superinstruction exists.
/// Chains compose in a single scan (`CmpI`,`GuardTrue`,`LoopBack` →
/// `CmpBranchI`,`LoopBack` → `CmpBranchLoopI`).
fn fuse_pairs(code: &mut Vec<MachInst>) -> bool {
    let old = std::mem::take(code);
    let mut out: Vec<MachInst> = Vec::with_capacity(old.len());
    let mut changed = false;
    for (j, inst) in old.iter().enumerate() {
        if let Some(prev) = out.last() {
            if let Some(fused) = try_fuse(prev, inst, &old[j + 1..]) {
                out.pop();
                out.push(fused);
                changed = true;
                continue;
            }
        }
        out.push(inst.clone());
    }
    *code = out;
    changed
}

/// Attempts to fuse adjacent `prev`,`next` into one superinstruction.
/// `tail` is the rest of the fragment after `next` (for deadness checks).
fn try_fuse(prev: &MachInst, next: &MachInst, tail: &[MachInst]) -> Option<MachInst> {
    use MachInst::*;

    // compare + guard → compare-branch (when the 0/1 result is unused
    // beyond the guard).
    if let (&CmpI { op, d, a, b }, &GuardTrue { s, exit }) = (prev, next) {
        if s == d && reg_dead(tail, d) {
            return Some(CmpBranchI { op, want: true, a, b, exit });
        }
    }
    if let (&CmpI { op, d, a, b }, &GuardFalse { s, exit }) = (prev, next) {
        if s == d && reg_dead(tail, d) {
            return Some(CmpBranchI { op, want: false, a, b, exit });
        }
    }
    if let (&CmpD { op, d, a, b }, &GuardTrue { s, exit }) = (prev, next) {
        if s == d && reg_dead(tail, d) {
            return Some(CmpBranchD { op, want: true, a, b, exit });
        }
    }
    if let (&CmpD { op, d, a, b }, &GuardFalse { s, exit }) = (prev, next) {
        if s == d && reg_dead(tail, d) {
            return Some(CmpBranchD { op, want: false, a, b, exit });
        }
    }
    if let (&CmpImmI { op, d, a, imm }, &GuardTrue { s, exit }) = (prev, next) {
        if s == d && reg_dead(tail, d) {
            return Some(CmpBranchImmI { op, want: true, a, imm, exit });
        }
    }
    if let (&CmpImmI { op, d, a, imm }, &GuardFalse { s, exit }) = (prev, next) {
        if s == d && reg_dead(tail, d) {
            return Some(CmpBranchImmI { op, want: false, a, imm, exit });
        }
    }

    // boolean-not + guard → the opposite guard on the un-negated value.
    // `NotB` is exactly `d = (a == 0)`, so guarding `d` true is guarding
    // `a` false (and vice versa) for every u64 payload; the `NotB` write
    // is elided, hence the deadness requirement.
    if let (&NotB { d, a }, &GuardTrue { s, exit }) = (prev, next) {
        if s == d && reg_dead(tail, d) {
            return Some(GuardFalse { s: a, exit });
        }
    }
    if let (&NotB { d, a }, &GuardFalse { s, exit }) = (prev, next) {
        if s == d && reg_dead(tail, d) {
            return Some(GuardTrue { s: a, exit });
        }
    }

    // compare-write-through + guard → compare-write-branch. The register
    // and the AR slot are still written (before the exit check, exactly
    // the raw order), so no deadness requirement.
    if let (&CmpWrI { op, d, a, b, slot }, &GuardTrue { s, exit }) = (prev, next) {
        if s == d {
            return Some(CmpWrBranchI { op, want: true, d, a, b, slot, exit });
        }
    }
    if let (&CmpWrI { op, d, a, b, slot }, &GuardFalse { s, exit }) = (prev, next) {
        if s == d {
            return Some(CmpWrBranchI { op, want: false, d, a, b, slot, exit });
        }
    }
    if let (&CmpWrD { op, d, a, b, slot }, &GuardTrue { s, exit }) = (prev, next) {
        if s == d {
            return Some(CmpWrBranchD { op, want: true, d, a, b, slot, exit });
        }
    }
    if let (&CmpWrD { op, d, a, b, slot }, &GuardFalse { s, exit }) = (prev, next) {
        if s == d {
            return Some(CmpWrBranchD { op, want: false, d, a, b, slot, exit });
        }
    }
    if let (&CmpImmWrI { op, d, a, imm, slot }, &GuardTrue { s, exit }) = (prev, next) {
        if s == d {
            return Some(CmpImmWrBranchI { op, want: true, d, a, imm, slot, exit });
        }
    }
    if let (&CmpImmWrI { op, d, a, imm, slot }, &GuardFalse { s, exit }) = (prev, next) {
        if s == d {
            return Some(CmpImmWrBranchI { op, want: false, d, a, imm, slot, exit });
        }
    }

    // compare-branch + loop edge → the loop-edge triple.
    if let (&CmpBranchI { op, want, a, b, exit }, &LoopBack { exit: loop_exit }) = (prev, next) {
        return Some(CmpBranchLoopI { op, want, a, b, exit, loop_exit });
    }
    if let (&CmpBranchD { op, want, a, b, exit }, &LoopBack { exit: loop_exit }) = (prev, next) {
        return Some(CmpBranchLoopD { op, want, a, b, exit, loop_exit });
    }
    // checked-increment write-through + loop edge → the whole canonical
    // loop tail (`i = i ⊕ imm (checked); store i; jump back`) in one
    // dispatch. The overflow check happens before the writes, exactly as
    // in the raw sequence.
    if let (&ChkAluImmWrI { op, d, a, imm, exit, slot }, &LoopBack { exit: loop_exit }) =
        (prev, next)
    {
        return Some(ChkAluImmWrLoopI { op, d, a, imm, slot, exit, loop_exit });
    }

    // ReadAr + ALU → AR-operand ALU. The loaded register must die at the
    // ALU (it is either overwritten by it or never read again), and must
    // not feed the ALU's *other* operand, which would still read it.
    if let (&ReadAr { d: r, slot }, &AluI { op, d, a, b }) = (prev, next) {
        let dead = d == r || reg_dead(tail, r);
        if a == r && b != r && dead {
            return Some(AluArI { op, d, slot, b });
        }
        if b == r && a != r && op.commutative() && dead {
            return Some(AluArI { op, d, slot, b: a });
        }
    }

    // ALU + WriteAr of its result → combined write-through forms. The
    // destination register is still written, so later uses are unaffected.
    if let &WriteAr { slot, s } = next {
        if let &AluI { op, d, a, b } = prev {
            if s == d {
                return Some(AluWrI { op, d, a, b, slot });
            }
        }
        if let &AluImmI { op, d, a, imm } = prev {
            if s == d {
                return Some(AluImmWrI { op, d, a, imm, slot });
            }
        }
        if let &ChkAluI { op, d, a, b, exit } = prev {
            if s == d {
                return Some(ChkAluWrI { op, d, a, b, exit, slot });
            }
        }
        if let &ChkAluImmI { op, d, a, imm, exit } = prev {
            if s == d {
                return Some(ChkAluImmWrI { op, d, a, imm, exit, slot });
            }
        }
        // Compare + store of its 0/1 result (the recorder stores every
        // branch condition to the AR before guarding on it).
        if let &CmpI { op, d, a, b } = prev {
            if s == d {
                return Some(CmpWrI { op, d, a, b, slot });
            }
        }
        if let &CmpD { op, d, a, b } = prev {
            if s == d {
                return Some(CmpWrD { op, d, a, b, slot });
            }
        }
        if let &CmpImmI { op, d, a, imm } = prev {
            if s == d {
                return Some(CmpImmWrI { op, d, a, imm, slot });
            }
        }
        // Constant materialization + store (constants re-written to the
        // AR every iteration by the recorder).
        if let &ConstW { d, w } = prev {
            if s == d {
                return Some(ConstWrAr { d, w, slot });
            }
        }
        // AR-to-AR shuffle through a register; the register copy
        // survives for later readers.
        if let &ReadAr { d, slot: src } = prev {
            if s == d {
                return Some(MovAr { d, src, dst: slot });
            }
        }
        if let &AluArI { op, d, slot: slot_a, b } = prev {
            if s == d {
                return Some(AluArWrI { op, d, slot_a, b, slot_d: slot });
            }
        }
        // Adjacent AR stores → one grouped store (order preserved; a
        // repeated slot keeps only the last store, which is all the raw
        // pair made visible anyway).
        if let &WriteAr { slot: slot_a, s: s_a } = prev {
            if slot_a == slot {
                return Some(WriteAr { slot, s });
            }
            return Some(WriteAr2 { slot_a, s_a, slot_b: slot, s_b: s });
        }
        if let &WriteAr2 { slot_a, s_a, slot_b, s_b } = prev {
            return Some(WriteAr3 { slot_a, s_a, slot_b, s_b, slot_c: slot, s_c: s });
        }
    }

    None
}

/// Pass 3: backward liveness; deletes pure instructions whose destination
/// is dead. The live set starts empty at the end of the fragment (the
/// back-edge/stitch invariant again).
fn remove_dead(code: &mut Vec<MachInst>) -> u32 {
    let mut live = [false; REG_FILE_WORDS];
    let mut keep = vec![true; code.len()];
    let mut removed = 0;
    for (i, inst) in code.iter().enumerate().rev() {
        if let Some(d) = inst.dest() {
            if !live[reg_idx(d)] && inst.is_pure() {
                keep[i] = false;
                removed += 1;
                continue;
            }
            live[reg_idx(d)] = false;
        }
        inst.for_each_src(|s| live[reg_idx(s)] = true);
    }
    if removed > 0 {
        let mut it = keep.iter();
        code.retain(|_| *it.next().unwrap());
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

    /// The counting-loop body: 8 raw instructions fuse to 4.
    #[test]
    fn counting_loop_halves() {
        let f = frag(
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
        );
        let f = fuse(f);
        assert_eq!(
            f.code,
            vec![
                ReadAr { d: 0, slot: 0 },
                ReadAr { d: 1, slot: 1 },
                ChkAluImmWrI { op: ChkOp::Add, d: 3, a: 0, imm: 1, exit: 0, slot: 0 },
                CmpBranchLoopI { op: CmpOp::Lt, want: true, a: 3, b: 1, exit: 1, loop_exit: 2 },
            ]
        );
        assert_eq!(f.fuse_stats.raw_insts, 8);
        assert_eq!(f.fuse_stats.fused_insts, 4);
        assert_eq!(f.fuse_stats.superinsts, 2);
        assert_eq!(f.fuse_stats.dce_removed, 1);
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
        assert!(f
            .code
            .iter()
            .any(|i| matches!(i, CmpBranchI { op: CmpOp::Eq, want: false, .. })));
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
        assert!(f.code.iter().any(|i| matches!(i, CmpI { op: CmpOp::Lt, .. })));
        assert!(f.code.iter().any(|i| matches!(i, GuardTrue { .. })));
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
        assert!(f.code.iter().any(|i| matches!(i, ReadAr { .. })));
        assert!(!f.code.iter().any(|i| matches!(i, AluArI { .. })));

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
                ReadAr { d: 1, slot: 1 },
                AluArWrI { op: AluOp::Sub, d: 2, slot_a: 0, b: 1, slot_d: 1 },
                End { exit: 0 },
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
                ReadAr { d: 1, slot: 0 },
                AluImmWrI { op: AluOp::Mul, d: 2, a: 1, imm: 7, slot: 0 },
                End { exit: 0 },
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
        assert!(f.code.iter().any(|i| matches!(i, ConstW { .. })));
        assert!(!f.code.iter().any(|i| matches!(i, AluImmI { .. } | AluImmWrI { .. })));
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
        assert!(f.code.iter().any(|i| matches!(i, ConstW { .. })));
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
                ReadAr { d: 0, slot: 0 },
                ReadAr { d: 1, slot: 1 },
                CmpWrBranchI { op: CmpOp::Lt, want: true, d: 2, a: 0, b: 1, slot: 2, exit: 0 },
                End { exit: 1 },
            ]
        );
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
                ReadAr { d: 0, slot: 0 },
                CmpBranchImmI { op: CmpOp::Lt, want: true, a: 0, imm: 100, exit: 0 },
                End { exit: 1 },
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
                ReadAr { d: 0, slot: 0 },
                CmpImmWrBranchI {
                    op: CmpOp::Gt,
                    want: true,
                    d: 2,
                    a: 0,
                    imm: 100,
                    slot: 1,
                    exit: 0,
                },
                End { exit: 1 },
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
                ReadAr { d: 0, slot: 0 },
                ReadAr { d: 1, slot: 1 },
                CmpBranchI { op: CmpOp::Eq, want: false, a: 0, b: 1, exit: 0 },
                End { exit: 1 },
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
                MovAr { d: 0, src: 3, dst: 5 },
                ConstWrAr { d: 1, w: 7, slot: 6 },
                End { exit: 0 },
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
        assert!(f.code.iter().any(|i| matches!(i, WriteAr3 { .. })));
        assert_eq!(f.code.iter().filter(|i| matches!(i, WriteAr { .. })).count(), 1);
        assert_eq!(f.code.len(), 7, "9 raw -> 7 fused: {:?}", f.code);
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
        assert_eq!(f.code, vec![MovAr { d: 1, src: 1, dst: 4 }, End { exit: 0 }]);
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
                ReadAr { d: 0, slot: 0 },
                ChkAluImmWrLoopI {
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
        assert!(f.code.last().unwrap().is_terminator());
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
                ReadAr { d: 0, slot: 0 },
                ChkAluImmWrI { op: ChkOp::Shl, d: 2, a: 0, imm: 2, exit: 0, slot: 0 },
                End { exit: 1 },
            ]
        );
    }

    #[test]
    fn fusion_is_stable_at_fixpoint() {
        let f = frag(
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
        );
        let once = fuse(f);
        let twice = fuse(once.clone());
        assert_eq!(once.code, twice.code);
    }
}
