//! LIR → virtual-ISA assembly with greedy register allocation (§5.2).
//!
//! The paper uses "a simple greedy register allocator that makes a single
//! backward pass over the trace", spilling the value whose last mention is
//! furthest in the past. We implement the same greedy policy as a forward
//! emission pass driven by a precomputed backward liveness pass (the two
//! passes the paper's pipeline structure prescribes): when no register is
//! free, the **oldest register-carried value** (least recently touched) is
//! spilled — the paper's "minimum vm" heuristic.

use tm_lir::{Lir, LirId, LirTrace};

use crate::machinst::{Fragment, MachInst, Reg, NREGS};

/// Assembles an optimized LIR trace into a fragment.
///
/// # Panics
///
/// Panics on malformed traces (operands referencing effect-only
/// instructions).
pub fn assemble(trace: &LirTrace) -> Fragment {
    let n = trace.code.len();

    // Backward pass: last use of every SSA value.
    let mut last_use: Vec<u32> = vec![0; n];
    let mut operands = Vec::with_capacity(4);
    for i in (0..n).rev() {
        operands.clear();
        trace.code[i].operands(&mut operands);
        for &op in &operands {
            if last_use[op as usize] == 0 {
                last_use[op as usize] = i as u32;
            }
        }
    }

    let mut asm = Assembler {
        code: Vec::with_capacity(n + 8),
        reg_of: vec![None; n],
        spill_of: vec![None; n],
        contents: [None; NREGS],
        last_touch: [0; NREGS],
        tick: 0,
        num_spills: 0,
        last_use,
    };

    for (i, inst) in trace.code.iter().enumerate() {
        asm.tick += 1;
        asm.lower(i as LirId, inst);
        // Free registers whose values die here.
        for r in 0..NREGS {
            if let Some(v) = asm.contents[r] {
                if asm.last_use[v as usize] <= i as u32 && v != i as LirId {
                    asm.contents[r] = None;
                    asm.reg_of[v as usize] = None;
                }
            }
        }
    }

    Fragment::new(asm.code, asm.num_spills, trace.num_exits as usize)
}

struct Assembler {
    code: Vec<MachInst>,
    reg_of: Vec<Option<Reg>>,
    spill_of: Vec<Option<u16>>,
    contents: [Option<LirId>; NREGS],
    last_touch: [u64; NREGS],
    tick: u64,
    num_spills: u16,
    last_use: Vec<u32>,
}

impl Assembler {
    /// Returns a register currently holding `v`, reloading from its spill
    /// slot if needed. `pinned` registers are not eviction candidates.
    fn use_reg(&mut self, v: LirId, pinned: &mut Vec<Reg>) -> Reg {
        if let Some(r) = self.reg_of[v as usize] {
            self.last_touch[r as usize] = self.tick;
            pinned.push(r);
            return r;
        }
        let r = self.alloc_reg(pinned);
        let slot = self.spill_of[v as usize]
            .expect("value neither in a register nor spilled — allocator invariant broken");
        self.code.push(MachInst::LoadSpill { d: r, slot });
        self.bind(v, r);
        pinned.push(r);
        r
    }

    /// Allocates a destination register for the value `v` being defined.
    fn def_reg(&mut self, v: LirId, pinned: &mut Vec<Reg>) -> Reg {
        let r = self.alloc_reg(pinned);
        self.bind(v, r);
        r
    }

    fn bind(&mut self, v: LirId, r: Reg) {
        debug_assert!(
            (r as usize) < NREGS,
            "allocator produced out-of-range register r{r} (NREGS = {NREGS})"
        );
        self.reg_of[v as usize] = Some(r);
        self.contents[r as usize] = Some(v);
        self.last_touch[r as usize] = self.tick;
    }

    /// Picks a free register, or evicts the oldest register-carried value
    /// (the paper's spill heuristic).
    fn alloc_reg(&mut self, pinned: &[Reg]) -> Reg {
        if let Some(r) = (0..NREGS as Reg).find(|r| {
            self.contents[*r as usize].is_none() && !pinned.contains(r)
        }) {
            return r;
        }
        let victim_reg = (0..NREGS as Reg)
            .filter(|r| !pinned.contains(r))
            .min_by_key(|&r| self.last_touch[r as usize])
            .expect("more pinned registers than NREGS");
        debug_assert!((victim_reg as usize) < NREGS);
        let victim = self.contents[victim_reg as usize].expect("occupied");
        // Spill only if the victim is still needed and not already saved.
        if self.spill_of[victim as usize].is_none() {
            let slot = self.num_spills;
            self.num_spills += 1;
            self.spill_of[victim as usize] = Some(slot);
            self.code.push(MachInst::StoreSpill { slot, s: victim_reg });
        }
        self.reg_of[victim as usize] = None;
        self.contents[victim_reg as usize] = None;
        victim_reg
    }

    fn lower(&mut self, id: LirId, inst: &Lir) {
        use Lir::*;
        let mut pinned: Vec<Reg> = Vec::with_capacity(4);
        // `bin!(Variant { extra fields }, a, b)` / `un!(Variant { .. }, a)`:
        // the families carry their op or tag (and a checked op its exit)
        // next to the allocated d/a/b.
        macro_rules! bin {
            ($mk:ident $({ $($extra:tt)* })?, $a:expr, $b:expr) => {{
                let a = self.use_reg(*$a, &mut pinned);
                let b = self.use_reg(*$b, &mut pinned);
                let d = self.def_reg(id, &mut pinned);
                self.code.push(MachInst::$mk { $($($extra)*,)? d, a, b });
            }};
        }
        macro_rules! un {
            ($mk:ident $({ $($extra:tt)* })?, $a:expr) => {{
                let a = self.use_reg(*$a, &mut pinned);
                let d = self.def_reg(id, &mut pinned);
                self.code.push(MachInst::$mk { $($($extra)*,)? d, a });
            }};
        }

        match inst {
            ConstI(v) => {
                let d = self.def_reg(id, &mut pinned);
                self.code.push(MachInst::ConstW { d, w: i64::from(*v) as u64 });
            }
            ConstD(bits) => {
                let d = self.def_reg(id, &mut pinned);
                self.code.push(MachInst::ConstW { d, w: *bits });
            }
            ConstObj(h) | ConstStr(h) => {
                let d = self.def_reg(id, &mut pinned);
                self.code.push(MachInst::ConstW { d, w: u64::from(*h) });
            }
            ConstBool(v) => {
                let d = self.def_reg(id, &mut pinned);
                self.code.push(MachInst::ConstW { d, w: u64::from(*v) });
            }
            ConstBoxed(w) => {
                let d = self.def_reg(id, &mut pinned);
                self.code.push(MachInst::ConstW { d, w: *w });
            }
            Import { slot, .. } => {
                let d = self.def_reg(id, &mut pinned);
                self.code.push(MachInst::ReadAr { d, slot: *slot });
            }
            WriteAr { slot, v } => {
                let s = self.use_reg(*v, &mut pinned);
                self.code.push(MachInst::WriteAr { slot: *slot, s });
            }
            AluI(op, a, b) => bin!(AluI { op: *op }, a, b),
            NotI(a) => un!(NotI, a),
            NegI(a) => un!(NegI, a),
            ChkAluI(op, a, b, e) => bin!(ChkAluI { op: *op, exit: e.0 }, a, b),
            NegIChk(a, e) => un!(NegIChk { exit: e.0 }, a),
            ModIChk(a, b, e) => bin!(ModIChk { exit: e.0 }, a, b),
            AluD(op, a, b) => bin!(AluD { op: *op }, a, b),
            NegD(a) => un!(NegD, a),
            CmpI(op, a, b) => bin!(CmpI { op: *op }, a, b),
            CmpD(op, a, b) => bin!(CmpD { op: *op }, a, b),
            NotB(a) => un!(NotB, a),
            I2D(a) => un!(I2D, a),
            U2D(a) => un!(U2D, a),
            D2IChk(a, e) => un!(D2IChk { exit: e.0 }, a),
            D2I32(a) => un!(D2I32, a),
            ChkRangeI(a, e) => un!(ChkRangeI { exit: e.0 }, a),
            Box(tag, a) => un!(Box { tag: *tag }, a),
            Unbox(tag, a, e) => un!(Unbox { tag: *tag, exit: e.0 }, a),
            UnboxNumD(a, e) => un!(UnboxNumD { exit: e.0 }, a),
            GuardTrue(a, e) => {
                let s = self.use_reg(*a, &mut pinned);
                self.code.push(MachInst::GuardTrue { s, exit: e.0 });
            }
            GuardFalse(a, e) => {
                let s = self.use_reg(*a, &mut pinned);
                self.code.push(MachInst::GuardFalse { s, exit: e.0 });
            }
            GuardShape { obj, shape, exit } => {
                let o = self.use_reg(*obj, &mut pinned);
                self.code.push(MachInst::GuardShape { obj: o, shape: *shape, exit: exit.0 });
            }
            GuardClass { obj, class, exit } => {
                let o = self.use_reg(*obj, &mut pinned);
                self.code.push(MachInst::GuardClass { obj: o, class: *class, exit: exit.0 });
            }
            GuardBoxedEq(a, w, e) => {
                let s = self.use_reg(*a, &mut pinned);
                self.code.push(MachInst::GuardBoxedEq { s, w: *w, exit: e.0 });
            }
            GuardBound { arr, idx, exit } => {
                let a = self.use_reg(*arr, &mut pinned);
                let i = self.use_reg(*idx, &mut pinned);
                self.code.push(MachInst::GuardBound { arr: a, idx: i, exit: exit.0 });
            }
            LoadSlot(o, slot) => {
                let o = self.use_reg(*o, &mut pinned);
                let d = self.def_reg(id, &mut pinned);
                self.code.push(MachInst::LoadSlot { d, o, slot: *slot });
            }
            StoreSlot(o, slot, v) => {
                let o = self.use_reg(*o, &mut pinned);
                let s = self.use_reg(*v, &mut pinned);
                self.code.push(MachInst::StoreSlot { o, slot: *slot, s });
            }
            LoadProto(o) => {
                let o = self.use_reg(*o, &mut pinned);
                let d = self.def_reg(id, &mut pinned);
                self.code.push(MachInst::LoadProto { d, o });
            }
            LoadElem(a, i) => {
                let a = self.use_reg(*a, &mut pinned);
                let i = self.use_reg(*i, &mut pinned);
                let d = self.def_reg(id, &mut pinned);
                self.code.push(MachInst::LoadElem { d, a, i });
            }
            StoreElem(a, i, v) => {
                let a = self.use_reg(*a, &mut pinned);
                let i = self.use_reg(*i, &mut pinned);
                let s = self.use_reg(*v, &mut pinned);
                self.code.push(MachInst::StoreElem { a, i, s });
            }
            ArrayLen(a) => un!(ArrayLen, a),
            StrLen(a) => un!(StrLen, a),
            Call { helper, args, exit, .. } => {
                let regs: Vec<Reg> =
                    args.iter().map(|&a| self.use_reg(a, &mut pinned)).collect();
                let d = self.def_reg(id, &mut pinned);
                self.code.push(MachInst::CallHelper {
                    d,
                    helper: *helper,
                    args: regs.into_boxed_slice(),
                    exit: exit.0,
                });
            }
            CallTree { tree, exit } => {
                self.code.push(MachInst::CallTree { tree: *tree, exit: exit.0 });
            }
            LoopBack(e) => self.code.push(MachInst::LoopBack { exit: e.0 }),
            End(e) => self.code.push(MachInst::End { exit: e.0 }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_lir::{AluOp, ChkOp, ExitId, FilterOptions, LirBuffer, LirType};

    #[test]
    fn straight_line_assembly() {
        let mut b = LirBuffer::new(FilterOptions { fold: false, ..Default::default() });
        let x = b.emit(Lir::Import { slot: 0, ty: LirType::Int });
        let one = b.emit(Lir::ConstI(1));
        let e = b.alloc_exit();
        let sum = b.emit(Lir::ChkAluI(ChkOp::Add, x, one, e));
        b.emit(Lir::WriteAr { slot: 0, v: sum });
        let le = b.alloc_exit();
        b.emit(Lir::LoopBack(le));
        let frag = assemble(b.trace());
        assert!(matches!(frag.code[0], MachInst::ReadAr { slot: 0, .. }));
        assert!(frag.code.iter().any(|i| matches!(i, MachInst::ChkAluI { op: ChkOp::Add, .. })));
        assert!(matches!(frag.code.last(), Some(MachInst::LoopBack { .. })));
        assert_eq!(frag.num_spills, 0);
        assert_eq!(frag.stitch.len(), 2);
    }

    #[test]
    fn spills_when_register_pressure_exceeds_nregs() {
        // Create NREGS+4 live values, then consume them in order — forces
        // the oldest-value spill heuristic to fire.
        let mut b = LirBuffer::new(FilterOptions {
            fold: false,
            cse: false,
            ..Default::default()
        });
        let n = NREGS + 4;
        let vals: Vec<_> = (0..n)
            .map(|i| b.emit(Lir::Import { slot: i as u16, ty: LirType::Int }))
            .collect();
        // Sum all of them pairwise, keeping everything live to the end.
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.emit(Lir::AluI(AluOp::Add, acc, v));
        }
        b.emit(Lir::WriteAr { slot: 0, v: acc });
        let le = b.alloc_exit();
        b.emit(Lir::LoopBack(le));
        let frag = assemble(b.trace());
        assert!(frag.num_spills > 0, "register pressure must cause spills");
        let stores = frag.code.iter().filter(|i| matches!(i, MachInst::StoreSpill { .. })).count();
        let loads = frag.code.iter().filter(|i| matches!(i, MachInst::LoadSpill { .. })).count();
        assert!(stores > 0 && loads > 0);
    }

    #[test]
    fn spilled_values_are_reloaded_correctly() {
        // Structural check: every LoadSpill slot was previously stored.
        let mut b = LirBuffer::new(FilterOptions { cse: false, fold: false, ..Default::default() });
        let n = NREGS + 8;
        let vals: Vec<_> = (0..n)
            .map(|i| b.emit(Lir::Import { slot: i as u16, ty: LirType::Int }))
            .collect();
        // Use them in reverse so early values must be reloaded late.
        let mut acc = vals[n - 1];
        for &v in vals.iter().rev().skip(1) {
            acc = b.emit(Lir::AluI(AluOp::Add, acc, v));
        }
        b.emit(Lir::WriteAr { slot: 0, v: acc });
        let le = b.alloc_exit();
        b.emit(Lir::LoopBack(le));
        let frag = assemble(b.trace());
        let mut stored = std::collections::HashSet::new();
        for inst in &frag.code {
            match inst {
                MachInst::StoreSpill { slot, .. } => {
                    stored.insert(*slot);
                }
                MachInst::LoadSpill { slot, .. } => {
                    assert!(stored.contains(slot), "reload of never-stored spill slot {slot}");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn exit_ids_preserved() {
        let mut b = LirBuffer::new(FilterOptions::default());
        let c = b.emit(Lir::Import { slot: 0, ty: LirType::Bool });
        let e0 = b.alloc_exit();
        let e1 = b.alloc_exit();
        b.emit(Lir::GuardTrue(c, e0));
        b.emit(Lir::GuardFalse(c, e1));
        let le = b.alloc_exit();
        b.emit(Lir::End(le));
        let frag = assemble(b.trace());
        assert!(frag.code.iter().any(|i| matches!(i, MachInst::GuardTrue { exit: 0, .. })));
        assert!(frag.code.iter().any(|i| matches!(i, MachInst::GuardFalse { exit: 1, .. })));
        let _ = ExitId(0);
    }
}
