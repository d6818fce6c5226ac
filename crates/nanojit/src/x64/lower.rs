//! Lowering: each `MachInst` of a fragment to x86-64 through the
//! encoder, and the prologue, epilogue and exit trampolines around the
//! bodies.
//!
//! Vregs live in machine registers: `r0`..`r5` in the GPRs of [`MAPPED`]
//! for the whole fragment, the others in the memory file at
//! `[r13 + 8·v]`, which is also each mapped vreg's home while a call runs
//! (the spill area follows the file, off the same base). Every vreg access
//! goes through the operand helpers. No vreg is live where a fragment
//! begins or leaves: the fragment verifier proves each one is written
//! before it is read, and an exit's state is the activation record alone.
//! So a machine register's contents on entry are never read, a stitch or
//! the loop edge moves nothing, and a fragment's backward liveness scan
//! says which vregs in caller-saved registers a call must save and
//! reload.
//!
//! What x86 gives NanoJIT for free the lowering takes by local selection:
//! a forward table of the i32 constants each fragment loads turns an ALU,
//! checked-ALU or compare operand into an immediate, and a guard on the
//! vreg a compare just wrote branches on that compare's flags. (The
//! decoded executor gets the same density by fusing superinstructions of
//! its own, [`crate::peephole`].)

use tm_lir::{AluOp, ChkOp, CmpOp, FOp, Tag, NO_EXIT};
use tm_runtime::object::layout;
use tm_runtime::trace_helpers::Helper;

use super::enc::{
    Alu, ArithSd, Asm, Cc, Label, Shift, Src, CC_A, CC_AE, CC_E, CC_G, CC_GE, CC_L, CC_LE,
    CC_NE, CC_NP, CC_O, CC_P, CC_S, R10, R11, R12, R13, R14, R15, R8, R9, RAX, RBP, RBX, RCX,
    RDI, RDX, RSI, RSP, XMM0, XMM1,
};
use super::rt::{self, CTX_AR, CTX_ENTRY, CTX_EXIT_FRAG, CTX_EXIT_ID, CTX_GC, CTX_HARGS};
use super::rt::{CTX_FUEL, CTX_HRESULT, CTX_INSTS, CTX_INTERRUPT, CTX_ITER, CTX_REALM};
use super::rt::{CTX_REGS, ST_ERR};
use super::{DirectSite, HeapSites};
use crate::machinst::{as_imm, Fragment, MachInst, Operand, Reg, REG_FILE_WORDS, REG_MASK};

/// The machine register of each mapped vreg: vreg `v` lives in
/// `MAPPED[v]`, the rest in the memory file. `Assembler::alloc_reg` hands
/// out the lowest free index, so the low vregs carry most operand
/// traffic. rbp and r12 are callee-saved: the prologue saves them and
/// every call preserves them. r8–r11 are caller-saved: a call saves the
/// live ones to their homes and reloads them after.
const MAPPED: [u8; 6] = [RBP, R12, R8, R9, R10, R11];

/// The machine register vreg `v` lives in, if it is mapped.
fn mapped(v: Reg) -> Option<u8> {
    MAPPED.get(usize::from(v & REG_MASK)).copied()
}

/// Whether a System V call preserves machine register `g`.
fn callee_saved(g: u8) -> bool {
    matches!(g, RBX | RBP | R12 | R13 | R14 | R15)
}

/// The machine registers the prologue saves: the pinned ones and each
/// callee-saved register a vreg lives in.
fn saved_gprs() -> Vec<u8> {
    let pinned = [RBX, R13, R14, R15];
    pinned.into_iter().chain(MAPPED.into_iter().filter(|&g| callee_saved(g))).collect()
}

/// The name of a machine register in [`MAPPED`].
fn gpr_name(g: u8) -> &'static str {
    match g {
        RBP => "rbp",
        R8 => "r8",
        R9 => "r9",
        R10 => "r10",
        R11 => "r11",
        R12 => "r12",
        _ => "?",
    }
}

/// Where each vreg lives on the native tier, e.g. `r0=rbp r1=r12 …
/// r6–r11 memory`.
pub fn register_map() -> String {
    let regs = MAPPED.iter().enumerate().map(|(v, &g)| format!("r{v}={}", gpr_name(g)));
    let rest = format!("r{}–r{} memory", MAPPED.len(), crate::machinst::NREGS - 1);
    regs.chain([rest]).collect::<Vec<_>>().join(" ")
}

/// One guard's exit trampoline: flush the path counts, then store the
/// exit record and return. Once a branch is stitched to the exit, the
/// part after the flush is overwritten with a jump to the branch.
struct SiteInfo {
    frag: u32,
    exit: u16,
    /// Raw instructions retired on the path from fragment entry
    /// through the exiting one.
    path: u32,
}

/// Where a laid exit trampoline of `(frag, exit)` is patched when a
/// branch is stitched to it: `tail` is the code offset just past
/// the count flush.
pub(super) struct SiteTail {
    pub(super) frag: u32,
    pub(super) exit: u16,
    pub(super) tail: u32,
}

/// Emits one chunk of a tree's code: the fragments of one
/// [`NativeTree::append`], preceded by the prologue and epilogue when
/// they are the tree's first.
pub(super) struct Emitter {
    pub(super) asm: Asm,
    /// Trampolines the chunk's bodies registered, laid after them.
    sites: Vec<SiteInfo>,
    next_local: u32,
    /// The tree's `CallHelper` side table, interned in emission
    /// order; emitted sites pass an index into it to [`rt::helper_shim`].
    pub(super) helpers: Vec<Helper>,
    /// Per vreg, the i32 it holds since the fragment began by a
    /// `ConstW`, so that a later ALU, compare or AR store takes it as
    /// an immediate operand.
    known: [Option<i32>; REG_FILE_WORDS],
    /// The flags still hold the compare (or boolean not) that just
    /// wrote this vreg: the vreg, and the condition code true when it
    /// holds 1. A guard on it branches on the flags (compare + `jcc`
    /// macro-fusion).
    flags: Option<(Reg, Cc)>,
    /// The vreg `rax` still holds, just stored by the instruction
    /// before: an AR store of it needs no reload.
    rax: Option<Reg>,
    /// Bit `v` set: vreg `v` is read after the current instruction
    /// before it is written again, so a call it makes must keep it.
    live: u16,
    /// The tree's direct sites by site id (`NativeTree::direct`).
    pub(super) direct: Vec<Option<DirectSite>>,
    /// The tree's heap accesses by family and lowering
    /// (`NativeTree::heap_sites`).
    pub(super) heap_sites: HeapSites,
}

/// Memory-file byte offset of virtual register `v` (off `r13`).
fn vdisp(v: Reg) -> i32 {
    i32::from(v & REG_MASK) * 8
}

/// Byte offset of spill slot `slot` (off `r13`): the spill area follows
/// the memory file.
fn spill_disp(slot: u16) -> i32 {
    (REG_FILE_WORDS as i32 + i32::from(slot)) * 8
}

/// The machine register an instruction writing vreg `d` computes into:
/// `d`'s own when it is mapped, else `rax` (then stored to the file).
fn dest_gpr(d: Reg) -> u8 {
    mapped(d).unwrap_or(RAX)
}

/// The vreg mask bit of `v`.
fn bit(v: Reg) -> u16 {
    1 << (v & REG_MASK)
}

pub(super) fn ar_disp(slot: u16) -> i32 {
    i32::from(slot) * 8
}

/// The data address and length fields of an object's slots.
const SLOTS: (usize, usize) = (layout::SLOTS_PTR, layout::SLOTS_LEN);
/// The data address and length fields of an object's elements.
const ELEMS: (usize, usize) = (layout::ELEMS_PTR, layout::ELEMS_LEN);

/// The instruction of a double op, or `None` where SSE2 has none (the
/// remainder calls [`rt::fmod_shim`]).
fn arith_sd(op: FOp) -> Option<ArithSd> {
    match op {
        FOp::Add => Some(ArithSd::Add),
        FOp::Sub => Some(ArithSd::Sub),
        FOp::Mul => Some(ArithSd::Mul),
        FOp::Div => Some(ArithSd::Div),
        FOp::Mod => None,
    }
}

/// Integer compare condition code for a signed 32-bit `cmp a, b`.
fn int_cc(op: CmpOp) -> Cc {
    match op {
        CmpOp::Eq => CC_E,
        CmpOp::Lt => CC_L,
        CmpOp::Le => CC_LE,
        CmpOp::Gt => CC_G,
        CmpOp::Ge => CC_GE,
    }
}

/// The right operand of a binary op: a vreg, or the constant it holds.
#[derive(Clone, Copy)]
enum Rhs {
    Vreg(Reg),
    Imm(i32),
}

/// An argument of a heap shim, by how it is loaded from its vreg.
#[derive(Clone, Copy)]
enum Arg {
    /// An object or string id (32 bits, zero-extended).
    Id(Reg),
    /// An element index (sign-extended from 32 bits).
    Index(Reg),
    /// A whole word.
    Word(Reg),
    /// A constant.
    Const(u32),
}

impl Emitter {
    /// An emitter for the chunk laid at offset `base` of a tree's code,
    /// growing the tree's `notes`, helper table and direct sites.
    pub(super) fn new(
        base: usize,
        notes: Option<Vec<(usize, String)>>,
        helpers: Vec<Helper>,
        direct: Vec<Option<DirectSite>>,
        heap_sites: HeapSites,
    ) -> Emitter {
        Emitter {
            asm: Asm::new(base, notes),
            sites: Vec::new(),
            next_local: 0,
            helpers,
            known: [None; REG_FILE_WORDS],
            flags: None,
            rax: None,
            live: 0,
            direct,
            heap_sites,
        }
    }

    pub(super) fn local(&mut self) -> Label {
        self.next_local += 1;
        Label::Local(self.next_local - 1)
    }

    /// Registers an exit trampoline carrying `path`'s count.
    fn site(&mut self, frag: u32, exit: u16, path: u32) -> Label {
        self.sites.push(SiteInfo { frag, exit, path });
        Label::Site(self.sites.len() as u32 - 1)
    }

    /// Index of `h` in the per-tree helper side table, interning it
    /// on first use.
    fn helper_index(&mut self, h: Helper) -> u32 {
        if let Some(i) = self.helpers.iter().position(|&x| x == h) {
            return i as u32;
        }
        self.helpers.push(h);
        self.helpers.len() as u32 - 1
    }

    fn flush_counts(&mut self, path: u32) {
        if path != 0 {
            self.asm.alu64(Alu::Add, RBX, Src::Imm(path as i32));
        }
    }

    // -- operand helpers: the only code that names a vreg's location --

    /// `gpr` = the low 32 bits of vreg `v`, zero-extended.
    fn load_vreg32(&mut self, gpr: u8, v: Reg) {
        match mapped(v) {
            Some(g) => self.asm.mov_rr32(gpr, g),
            None => self.asm.mov_r32_mem(gpr, R13, vdisp(v)),
        }
    }

    fn load_vreg64(&mut self, gpr: u8, v: Reg) {
        match mapped(v) {
            Some(g) if g == gpr => {}
            Some(g) => self.asm.mov_rr64(gpr, g),
            None => self.asm.mov_r64_mem(gpr, R13, vdisp(v)),
        }
    }

    fn store_vreg64(&mut self, v: Reg, gpr: u8) {
        match mapped(v) {
            Some(g) if g == gpr => {}
            Some(g) => self.asm.mov_rr64(g, gpr),
            None => self.asm.mov_mem_r64(R13, vdisp(v), gpr),
        }
    }

    /// `movsxd gpr, vreg` — exactly `i64::from(i32_from_word(w))`.
    fn movsxd_vreg(&mut self, gpr: u8, v: Reg) {
        match mapped(v) {
            Some(g) => self.asm.movsxd_r64_r32(gpr, g),
            None => self.asm.movsxd_r64_mem(gpr, R13, vdisp(v)),
        }
    }

    /// The machine register holding vreg `v`'s word: its own, or
    /// `scratch` loaded from the memory file.
    fn vreg_in(&mut self, scratch: u8, v: Reg) -> u8 {
        match mapped(v) {
            Some(g) => g,
            None => {
                self.asm.mov_r64_mem(scratch, R13, vdisp(v));
                scratch
            }
        }
    }

    /// `xmm` = the double vreg `v` holds.
    fn load_vreg_xmm(&mut self, xmm: u8, v: Reg) {
        match mapped(v) {
            Some(g) => self.asm.movq_xmm_r64(xmm, g),
            None => self.asm.movsd_load(xmm, R13, vdisp(v)),
        }
    }

    fn store_vreg_xmm(&mut self, v: Reg, xmm: u8) {
        match mapped(v) {
            Some(g) => self.asm.movq_r64_xmm(g, xmm),
            None => self.asm.movsd_store(R13, vdisp(v), xmm),
        }
    }

    /// `op xmm, vreg`. Clobbers xmm1.
    fn arith_sd_vreg(&mut self, op: ArithSd, xmm: u8, v: Reg) {
        match mapped(v) {
            Some(g) => {
                self.asm.movq_xmm_r64(XMM1, g);
                self.asm.arith_sd_reg(op, xmm, XMM1);
            }
            None => self.asm.arith_sd_mem(op, xmm, R13, vdisp(v)),
        }
    }

    /// `ucomisd xmm, vreg`. Clobbers xmm1.
    fn ucomisd_vreg(&mut self, xmm: u8, v: Reg) {
        match mapped(v) {
            Some(g) => {
                self.asm.movq_xmm_r64(XMM1, g);
                self.asm.ucomisd_reg(xmm, XMM1);
            }
            None => self.asm.ucomisd_mem(xmm, R13, vdisp(v)),
        }
    }

    /// `xmm` = the i32 in vreg `v`'s low 32 bits, converted.
    fn cvtsi2sd_vreg(&mut self, xmm: u8, v: Reg) {
        match mapped(v) {
            Some(g) => self.asm.cvtsi2sd_reg(xmm, g, false),
            None => self.asm.cvtsi2sd_mem32(xmm, R13, vdisp(v)),
        }
    }

    /// The live vregs a call clobbers (`live`), with their registers.
    fn clobbered(&self) -> Vec<(Reg, u8)> {
        let live = self.live;
        let regs = MAPPED.iter().enumerate().map(|(v, &g)| (v as Reg, g));
        regs.filter(|&(v, g)| live & bit(v) != 0 && !callee_saved(g)).collect()
    }

    /// Before a call: each live vreg in a caller-saved register to its
    /// home in the memory file.
    fn save_live(&mut self) {
        for (v, g) in self.clobbered() {
            self.asm.mov_mem_r64(R13, vdisp(v), g);
        }
    }

    /// After a call: the vregs [`Emitter::save_live`] saved, back.
    fn reload_live(&mut self) {
        for (v, g) in self.clobbered() {
            self.asm.mov_r64_mem(g, R13, vdisp(v));
        }
    }

    pub(super) fn store_ar64(&mut self, slot: u16, gpr: u8) {
        self.asm.mov_mem_r64(R14, ar_disp(slot), gpr);
    }

    /// Materializes word `w` into `gpr` with the shortest encoding.
    fn const_word(&mut self, gpr: u8, w: u64) {
        if let Ok(u) = u32::try_from(w) {
            self.asm.mov_r32_imm(gpr, u);
        } else if let Ok(i) = i32::try_from(w as i64) {
            self.asm.mov_r64_imm32(gpr, i);
        } else {
            self.asm.movabs(gpr, w);
        }
    }

    /// `call shim(rdi, rsi)` — clobbers the caller-saved registers
    /// (r8–r11 among them, whose vregs the caller saves); the pinned
    /// r13–r15/rbx and the vregs in rbp/r12 survive per the System V ABI.
    pub(super) fn call_shim(&mut self, addr: *const ()) {
        self.asm.movabs(RAX, addr as u64);
        self.asm.call_rax();
    }

    /// [`Emitter::call_shim`] for a call inside one instruction: the live
    /// vregs in caller-saved registers wait in their homes meanwhile.
    fn call_saving(&mut self, addr: *const ()) {
        self.save_live();
        self.call_shim(addr);
        self.reload_live();
    }

    /// Exits to `site` unless `rax` (any i64) is in the boxable
    /// 31-bit range `[-2^30, 2^30)`: `(rax + 2^30) mod 2^64 < 2^31`,
    /// i.e. bits 31–63 of the sum are clear. Clobbers rcx. The
    /// half-open upper bound is exact because integer results are
    /// produced from i64 arithmetic whose only out-of-range-by-one case
    /// (`2^30`) must exit anyway.
    pub(super) fn range_check_i31(&mut self, site: Label) {
        self.asm.lea_r64_mem(RCX, RAX, 0x4000_0000);
        self.asm.shift64(Shift::Shr, RCX, 31);
        self.asm.jcc(CC_NE, site);
    }

    /// `rax` = the double in `xmm0` as an integer; exits to `site`
    /// unless it is integral, not `-0` and in the boxable 31-bit range.
    /// Clobbers rcx/xmm1.
    pub(super) fn double_to_int(&mut self, site: Label) {
        self.asm.cvttsd2si_r64(RAX, XMM0);
        self.asm.cvtsi2sd_reg(XMM1, RAX, true);
        // Round trip differs ⇔ fractional / NaN / out of i64 range
        // (the cvttsd2si sentinel never converts back).
        self.asm.ucomisd_reg(XMM0, XMM1);
        self.asm.jcc(CC_P, site);
        self.asm.jcc(CC_NE, site);
        let l_range = self.local();
        self.asm.test64(RAX, RAX);
        self.asm.jcc(CC_NE, l_range);
        // rax == 0 with nonzero bits ⇔ -0.0.
        self.asm.movq_r64_xmm(RCX, XMM0);
        self.asm.test64(RCX, RCX);
        self.asm.jcc(CC_NE, site);
        self.asm.bind(l_range);
        self.range_check_i31(site);
    }

    // -- grouped op bodies --

    /// `b` as a source operand: an immediate stays one; a vreg is its
    /// own register, or is loaded into rcx — sign-extended to 64 bits
    /// into rcx when `wide`.
    fn load_rhs(&mut self, b: Rhs, wide: bool) -> Src {
        match b {
            Rhs::Imm(imm) => return Src::Imm(imm),
            Rhs::Vreg(v) if wide => self.movsxd_vreg(RCX, v),
            Rhs::Vreg(v) => match mapped(v) {
                Some(g) => return Src::Reg(g),
                None => self.load_vreg32(RCX, v),
            },
        }
        Src::Reg(RCX)
    }

    /// A shift count: an immediate, or the vreg loaded into `cl`.
    fn shift_count(&mut self, b: Rhs) -> Src {
        match b {
            Rhs::Imm(imm) => Src::Imm(imm),
            Rhs::Vreg(v) => {
                self.load_vreg32(RCX, v);
                Src::Reg(RCX)
            }
        }
    }

    /// Unchecked 32-bit ALU: `eax = op.eval(a, b)`, then sign-extend
    /// into rax (the executor stores `i64::from(result)`).
    fn alu_i(&mut self, op: AluOp, a: Reg, b: Rhs) {
        let shift = matches!(op, AluOp::Shl | AluOp::Shr | AluOp::UShr);
        let b = if shift { self.shift_count(b) } else { self.load_rhs(b, false) };
        self.load_vreg32(RAX, a);
        match op {
            AluOp::Add => self.asm.alu32(Alu::Add, RAX, b),
            AluOp::Sub => self.asm.alu32(Alu::Sub, RAX, b),
            AluOp::And => self.asm.alu32(Alu::And, RAX, b),
            AluOp::Or => self.asm.alu32(Alu::Or, RAX, b),
            AluOp::Xor => self.asm.alu32(Alu::Xor, RAX, b),
            AluOp::Mul => self.asm.imul32(RAX, b),
            // 32-bit shifts take the count mod 32 — exactly the
            // executor's `& 31`.
            AluOp::Shl => self.asm.shift32(Shift::Shl, RAX, b),
            AluOp::Shr => self.asm.shift32(Shift::Sar, RAX, b),
            AluOp::UShr => self.asm.shift32(Shift::Shr, RAX, b),
        }
        self.asm.movsxd_r64_r32(RAX, RAX);
    }

    /// Checked ALU: result in rax (sign-extended, range-checked); exits
    /// to `site` per `ChkOp::eval`. Clobbers rcx/rsi.
    fn chk_alu(&mut self, op: ChkOp, a: Reg, b: Rhs, site: Label) {
        match op {
            ChkOp::Add | ChkOp::Sub => {
                self.movsxd_vreg(RAX, a);
                let b = self.load_rhs(b, true);
                let alu = if op == ChkOp::Add { Alu::Add } else { Alu::Sub };
                self.asm.alu64(alu, RAX, b);
                self.range_check_i31(site);
            }
            ChkOp::Mul => {
                self.movsxd_vreg(RAX, a);
                let b = self.load_rhs(b, true);
                // Save x: a -0 result (res == 0 with a negative
                // factor) must exit to the double path.
                self.asm.mov_rr64(RSI, RAX);
                self.asm.imul64(RAX, b);
                match b {
                    // A negative constant factor makes any zero result
                    // a -0 candidate.
                    Src::Imm(imm) if imm < 0 => {
                        self.asm.test64(RAX, RAX);
                        self.asm.jcc(CC_E, site);
                    }
                    _ => {
                        let l_range = self.local();
                        self.asm.test64(RAX, RAX);
                        self.asm.jcc(CC_NE, l_range);
                        self.asm.test64(RSI, RSI);
                        self.asm.jcc(CC_S, site);
                        if let Src::Reg(y) = b {
                            self.asm.test64(y, y);
                            self.asm.jcc(CC_S, site);
                        }
                        self.asm.bind(l_range);
                    }
                }
                self.range_check_i31(site);
            }
            ChkOp::Shl => {
                let b = self.shift_count(b);
                self.load_vreg32(RAX, a);
                self.asm.shift32(Shift::Shl, RAX, b);
                self.asm.movsxd_r64_r32(RAX, RAX);
                self.range_check_i31(site);
            }
            ChkOp::UShr => {
                let b = self.shift_count(b);
                self.load_vreg32(RAX, a);
                self.asm.shift32(Shift::Shr, RAX, b);
                // Unsigned result: exit when above INT_MAX; the
                // stored word is the zero-extended u32.
                self.asm.alu32(Alu::Cmp, RAX, Src::Imm(0x3FFF_FFFF));
                self.asm.jcc(CC_A, site);
            }
        }
    }

    /// Loads double operands and sets flags for `cmp_d(op, x, y)`.
    /// Returns the condition code under which the compare is TRUE;
    /// NaN operands leave A/AE false (and set PF for Eq, which the
    /// caller handles explicitly).
    fn cmp_d_flags(&mut self, op: CmpOp, a: Reg, b: Reg) -> Cc {
        // x < y  ⇔  y above x (ucomisd's unordered ⇒ not-above).
        let (x, y, cc) = match op {
            CmpOp::Lt => (b, a, CC_A),
            CmpOp::Le => (b, a, CC_AE),
            CmpOp::Gt => (a, b, CC_A),
            CmpOp::Ge => (a, b, CC_AE),
            CmpOp::Eq => (a, b, CC_E),
        };
        self.load_vreg_xmm(XMM0, x);
        self.ucomisd_vreg(XMM0, y);
        cc
    }

    /// Sets flags for `cmp_i(op, a, b)`, comparing with an immediate
    /// when either operand is a known constant (`op.swapped()` when it
    /// is `a`). Returns the condition code under which it is true.
    fn cmp_i_flags(&mut self, op: CmpOp, a: Reg, b: Reg) -> Cc {
        let (a, b, op) = match (self.imm(a), self.imm(b)) {
            (Some(_), None) => (b, a, op.swapped()),
            _ => (a, b, op),
        };
        let (a, b) = self.operands(a, b, false);
        let a = self.vreg_in(RAX, a);
        let b = self.load_rhs(b, false);
        self.asm.alu32(Alu::Cmp, a, b);
        int_cc(op)
    }

    /// The constant vreg `v` holds, if a `ConstW` of this fragment
    /// wrote it an i32.
    fn imm(&self, v: Reg) -> Option<i32> {
        self.known[usize::from(v & REG_MASK)]
    }

    /// For a binary op over `a` and `b`: the left vreg and the right
    /// operand — an immediate when `b` is a known constant, or when `a`
    /// is and the op commutes (the two then swap).
    fn operands(&self, a: Reg, b: Reg, commutative: bool) -> (Reg, Rhs) {
        match (self.imm(a), self.imm(b)) {
            (_, Some(imm)) => (a, Rhs::Imm(imm)),
            (Some(imm), None) if commutative => (b, Rhs::Imm(imm)),
            _ => (a, Rhs::Vreg(b)),
        }
    }

    /// Exits to `site` unless the low three bits of `rax` (a boxed
    /// value's tag) are `tag`. Clobbers rcx.
    fn check_tag(&mut self, tag: i32, site: Label) {
        self.asm.mov_rr32(RCX, RAX);
        self.asm.alu32(Alu::And, RCX, Src::Imm(7));
        self.asm.alu32(Alu::Cmp, RCX, Src::Imm(tag));
        self.asm.jcc(CC_NE, site);
    }

    /// `rax` = the heap double boxed in `rax`, read from the double
    /// arena; exits to `site` unless it is one. Clobbers rcx.
    fn unbox_double(&mut self, family: &'static str, site: Label) {
        self.check_tag(2, site);
        self.asm.shift64(Shift::Shr, RAX, 3);
        self.asm.mov_rr32(RAX, RAX);
        self.asm.mov_r64_mem(RCX, R15, CTX_REALM);
        self.asm.mov_r64_mem(RCX, RCX, layout::DOUBLE_BASE as i32);
        self.asm.mov_r64_idx8(RAX, RCX, RAX);
        self.count_heap(family, true);
    }

    /// Counts a heap access of `family` the code lowers inline, or as a
    /// shim call.
    fn count_heap(&mut self, family: &'static str, inline: bool) {
        let n = self.heap_sites.entry(family).or_default();
        if inline {
            n.inline += 1;
        } else {
            n.shim += 1;
        }
    }

    /// `gpr` = the address of the object whose id vreg `v` holds. The
    /// object arena's base is read from the heap at every access: any
    /// allocation since the last one (a helper, a nested call, a slow
    /// path) may have moved the arena. Clobbers rdx.
    fn object_addr(&mut self, gpr: u8, v: Reg) {
        self.asm.mov_r64_mem(RDX, R15, CTX_REALM);
        self.load_vreg32(gpr, v);
        self.asm.imul64(gpr, Src::Imm(layout::OBJECT_SIZE as i32));
        self.asm.add_r64_mem(gpr, RDX, layout::OBJECT_BASE as i32);
    }

    /// A slot or element load or store of the object whose id vreg `obj`
    /// holds, at `index` (a constant slot or a sign-extended element
    /// vreg): inline when the index is below the live length read from
    /// `len` (a negative one compares as a huge unsigned one), through
    /// the storage address read from `ptr`; else a call of `shim`, the
    /// decoded tier's own semantics (growing the array, or panicking).
    /// A load's value is left in rax.
    fn slot_or_elem(
        &mut self,
        family: &'static str,
        (ptr, len): (usize, usize),
        (obj, index): (Reg, Arg),
        store: Option<Reg>,
        shim: *const (),
    ) {
        let (slow, done) = (self.local(), self.local());
        self.object_addr(RAX, obj);
        self.load_arg(RCX, index);
        self.asm.cmp_r64_mem(RCX, RAX, len as i32);
        self.asm.jcc(CC_AE, slow);
        self.asm.mov_r64_mem(RAX, RAX, ptr as i32);
        match store {
            Some(s) => {
                let s = self.vreg_in(RDX, s);
                self.asm.mov_idx8_r64(RAX, RCX, s);
            }
            None => self.asm.mov_r64_idx8(RAX, RAX, RCX),
        }
        self.asm.jmp(done);
        self.asm.bind(slow);
        match store {
            Some(s) => self.heap_call(shim, &[Arg::Id(obj), index, Arg::Word(s)]),
            None => self.heap_call(shim, &[Arg::Id(obj), index]),
        }
        self.asm.bind(done);
        self.count_heap(family, true);
    }

    /// Exits to `site` unless vreg `s` is `want` (1 or 0): a branch on
    /// the flags when they still hold the compare (or boolean not)
    /// that wrote `s`.
    fn guard(&mut self, s: Reg, want: bool, flags: Option<(Reg, Cc)>, site: Label) {
        let true_cc = match flags {
            Some((d, cc)) if d == s => cc,
            _ => {
                let s = self.vreg_in(RAX, s);
                self.asm.test64(s, s);
                CC_NE
            }
        };
        self.asm.jcc(if want { true_cc.inverse() } else { true_cc }, site);
    }

    /// The §6.4 loop edge: counts flushed, iteration recorded, then
    /// interrupt/GC/fuel polls (each exits through a zero-add site)
    /// before jumping back to the tree anchor.
    fn loop_edge(&mut self, frag: u32, loop_exit: u16, path: u32) {
        self.flush_counts(path);
        let site = self.site(frag, loop_exit, 0);
        self.asm.inc_mem64(R15, CTX_ITER);
        for flag in [CTX_INTERRUPT, CTX_GC] {
            self.asm.mov_r64_mem(RAX, R15, flag);
            self.asm.cmp_byte_at_rax_0();
            self.asm.jcc(CC_NE, site);
        }
        self.asm.cmp_r64_mem(RBX, R15, CTX_FUEL);
        self.asm.jcc(CC_AE, site);
        self.asm.jmp(Label::Trunk);
    }

    /// Calls `shim(ctx, site)` and dispatches on its status: an error
    /// leaves through the epilogue, `ST_EXIT` takes the `CallTree`'s
    /// side exit `site_exit`.
    pub(super) fn call_site_shim(&mut self, shim: *const (), s: u32, site_exit: Label) {
        self.asm.mov_rr64(RDI, R15);
        self.asm.mov_r32_imm(RSI, s);
        self.call_shim(shim);
        self.asm.alu32(Alu::Cmp, RAX, Src::Imm(ST_ERR as i32));
        self.asm.jcc(CC_E, Label::Epilogue);
        self.asm.test32(RAX, RAX);
        self.asm.jcc(CC_NE, site_exit);
    }

    /// `CallTree` at site `s` through the host ([`rt::call_tree_shim`]).
    pub(super) fn host_call(&mut self, s: u32, site_exit: Label) {
        self.asm.note(|| format!("; host call: site {s}"));
        self.call_site_shim(rt::call_tree_shim as *const (), s, site_exit);
    }

    /// Calls `shim` with the realm in rdi and `args` in rsi, rdx, rcx;
    /// the result is in rax. The current instruction's scratch dies,
    /// and the live vregs survive it ([`Emitter::call_saving`]).
    fn heap_call(&mut self, shim: *const (), args: &[Arg]) {
        self.asm.mov_r64_mem(RDI, R15, CTX_REALM);
        for (gpr, &arg) in [RSI, RDX, RCX].into_iter().zip(args) {
            self.load_arg(gpr, arg);
        }
        self.call_saving(shim);
    }

    fn load_arg(&mut self, gpr: u8, arg: Arg) {
        match arg {
            Arg::Id(v) => self.load_vreg32(gpr, v),
            Arg::Index(v) => self.movsxd_vreg(gpr, v),
            Arg::Word(v) => self.load_vreg64(gpr, v),
            Arg::Const(c) => self.asm.mov_r32_imm(gpr, c),
        }
    }

    /// Emits one virtual-ISA instruction of fragment `k`. `path`
    /// includes this instruction (an exiting instruction counts as
    /// retired). Selection is local: a known-constant operand becomes
    /// an immediate, a guard right after the compare (or boolean not)
    /// that wrote its vreg, or after AR stores, which leave the flags
    /// alone, branches on the flags, and an AR store of the vreg just
    /// computed stores it from `rax`.
    #[allow(clippy::too_many_lines)]
    fn emit_inst(&mut self, k: u32, inst: &MachInst, path: u32) {
        let flags = self.flags.take();
        let rax = self.rax.take();
        match *inst {
            MachInst::ConstW { d, w } => {
                let g = dest_gpr(d);
                self.const_word(g, w);
                self.store_vreg64(d, g);
                self.rax = (g == RAX).then_some(d);
            }
            MachInst::Mov { d, s } => {
                let g = dest_gpr(d);
                self.load_vreg64(g, s);
                self.store_vreg64(d, g);
                self.rax = (g == RAX).then_some(d);
            }
            MachInst::LoadSpill { d, slot } => {
                let g = dest_gpr(d);
                self.asm.mov_r64_mem(g, R13, spill_disp(slot));
                self.store_vreg64(d, g);
            }
            MachInst::StoreSpill { slot, s } => {
                let s = self.vreg_in(RAX, s);
                self.asm.mov_mem_r64(R13, spill_disp(slot), s);
            }
            MachInst::ReadAr { d, slot } => {
                let g = dest_gpr(d);
                self.asm.mov_r64_mem(g, R14, ar_disp(slot));
                self.store_vreg64(d, g);
                self.rax = (g == RAX).then_some(d);
            }
            MachInst::WriteAr { slot, s } => {
                let g = if rax == Some(s) { RAX } else { self.vreg_in(RAX, s) };
                self.store_ar64(slot, g);
                self.rax = (g == RAX).then_some(s);
                self.flags = flags;
            }

            MachInst::AluI { op, d, a, b } => {
                let (a, b) = self.operands(a, b, op.commutative());
                self.alu_i(op, a, b);
                self.store_vreg64(d, RAX);
                self.rax = Some(d);
            }
            MachInst::NotI { d, a } | MachInst::NegI { d, a } => {
                self.load_vreg32(RAX, a);
                if matches!(inst, MachInst::NotI { .. }) {
                    self.asm.not32(RAX);
                } else {
                    self.asm.neg32(RAX);
                }
                self.asm.movsxd_r64_r32(RAX, RAX);
                self.store_vreg64(d, RAX);
            }

            MachInst::ChkAluI { op, d, a, b, exit } => {
                let site = self.site(k, exit, path);
                let (a, b) = self.operands(a, b, op.commutative());
                self.chk_alu(op, a, b, site);
                self.store_vreg64(d, RAX);
                self.rax = Some(d);
            }
            MachInst::NegIChk { d, a, exit } => {
                let site = self.site(k, exit, path);
                self.movsxd_vreg(RAX, a);
                self.asm.test64(RAX, RAX);
                self.asm.jcc(CC_E, site);
                self.asm.neg64(RAX);
                self.range_check_i31(site);
                self.store_vreg64(d, RAX);
            }
            MachInst::ModIChk { d, a, b, exit } => {
                let site = self.site(k, exit, path);
                self.load_vreg32(RCX, b);
                self.load_vreg32(RAX, a);
                self.asm.test32(RCX, RCX);
                self.asm.jcc(CC_E, site);
                // y == -1 would trap on INT32_MIN / -1; the result is
                // always 0, exiting only when x < 0 (a -0 result).
                let l_div = self.local();
                let l_store = self.local();
                let l_done = self.local();
                self.asm.alu32(Alu::Cmp, RCX, Src::Imm(-1));
                self.asm.jcc(CC_NE, l_div);
                self.asm.test32(RAX, RAX);
                self.asm.jcc(CC_S, site);
                self.asm.zero32(RAX);
                self.asm.jmp(l_done);
                self.asm.bind(l_div);
                self.asm.mov_rr32(RSI, RAX);
                self.asm.cdq();
                self.asm.idiv32(RCX);
                // Remainder 0 from a negative dividend is -0.
                self.asm.test32(RDX, RDX);
                self.asm.jcc(CC_NE, l_store);
                self.asm.test32(RSI, RSI);
                self.asm.jcc(CC_S, site);
                self.asm.bind(l_store);
                self.asm.mov_rr32(RAX, RDX);
                self.asm.bind(l_done);
                self.asm.movsxd_r64_r32(RAX, RAX);
                self.store_vreg64(d, RAX);
            }

            MachInst::AluD { op, d, a, b } => match arith_sd(op) {
                Some(op) => {
                    self.load_vreg_xmm(XMM0, a);
                    self.arith_sd_vreg(op, XMM0, b);
                    self.store_vreg_xmm(d, XMM0);
                }
                None => {
                    self.load_vreg64(RDI, a);
                    self.load_vreg64(RSI, b);
                    self.call_saving(rt::fmod_shim as *const ());
                    self.store_vreg64(d, RAX);
                }
            },
            MachInst::NegD { d, a } => {
                self.load_vreg64(RAX, a);
                self.asm.btc_r64_imm8(RAX, 63);
                self.store_vreg64(d, RAX);
            }

            MachInst::CmpI { op, d, a, b } | MachInst::CmpD { op, d, a, b } => {
                // `eax` = the result (0 or 1; NaN compares false), and
                // `cc` the condition the flags leave true when it is 1.
                let double = matches!(inst, MachInst::CmpD { .. });
                let cc =
                    if double { self.cmp_d_flags(op, a, b) } else { self.cmp_i_flags(op, a, b) };
                let cc = if double && op == CmpOp::Eq {
                    // Equal ⇔ ZF=1 ∧ PF=0 (PF flags the unordered case);
                    // the `and` leaves ZF=0 exactly when both held.
                    self.asm.setcc(CC_E, RAX);
                    self.asm.setcc(CC_NP, RCX);
                    self.asm.and_r8_r8(RAX, RCX);
                    CC_NE
                } else {
                    self.asm.setcc(cc, RAX);
                    cc
                };
                self.asm.movzx_r32_r8(RAX, RAX);
                self.store_vreg64(d, RAX);
                (self.flags, self.rax) = (Some((d, cc)), Some(d));
            }
            MachInst::NotB { d, a } => {
                // Negating a compare's result is its inverse
                // condition; either way the flags then hold `d`.
                let cc = match flags {
                    Some((f, cc)) if f == a => cc.inverse(),
                    _ => {
                        let a = self.vreg_in(RAX, a);
                        self.asm.test64(a, a);
                        CC_E
                    }
                };
                self.asm.setcc(cc, RAX);
                self.asm.movzx_r32_r8(RAX, RAX);
                self.store_vreg64(d, RAX);
                (self.flags, self.rax) = (Some((d, cc)), Some(d));
            }

            MachInst::I2D { d, a } => {
                self.cvtsi2sd_vreg(XMM0, a);
                self.store_vreg_xmm(d, XMM0);
            }
            MachInst::U2D { d, a } => {
                // f64::from(u32): zero-extend then convert as i64.
                self.load_vreg32(RAX, a);
                self.asm.cvtsi2sd_reg(XMM0, RAX, true);
                self.store_vreg_xmm(d, XMM0);
            }
            MachInst::D2IChk { d, a, exit } => {
                let site = self.site(k, exit, path);
                self.load_vreg_xmm(XMM0, a);
                self.double_to_int(site);
                self.store_vreg64(d, RAX);
            }
            MachInst::D2I32 { d, a } => {
                // The low 32 bits of the truncation are ToInt32 for every
                // |x| < 2^63; NaN, ±Inf and the rest convert to the one
                // word `cmp rax, 1` overflows on, i64::MIN.
                let (slow, done) = (self.local(), self.local());
                self.load_vreg_xmm(XMM0, a);
                self.asm.cvttsd2si_r64(RAX, XMM0);
                self.asm.alu64_imm8(Alu::Cmp, RAX, 1);
                self.asm.jcc(CC_O, slow);
                self.asm.movsxd_r64_r32(RAX, RAX);
                self.asm.jmp(done);
                self.asm.bind(slow);
                self.load_vreg64(RDI, a);
                self.call_saving(rt::d2i32_shim as *const ());
                self.asm.bind(done);
                self.store_vreg64(d, RAX);
            }
            MachInst::ChkRangeI { d, a, exit } => {
                let site = self.site(k, exit, path);
                self.movsxd_vreg(RAX, a);
                self.range_check_i31(site);
                self.store_vreg64(d, RAX);
            }

            MachInst::Box { tag, d, a } => {
                match tag {
                    Tag::Int => {
                        // Fast path: in-range ints box inline (tag bit 0 = 1);
                        // out-of-range values allocate a heap double.
                        self.load_vreg32(RAX, a);
                        let l_slow = self.local();
                        let l_done = self.local();
                        self.asm.mov_rr32(RCX, RAX);
                        self.asm.alu32(Alu::Add, RCX, Src::Imm(0x4000_0000));
                        self.asm.test32(RCX, RCX);
                        self.asm.jcc(CC_S, l_slow);
                        self.asm.shift64(Shift::Shl, RAX, 1);
                        self.asm.alu64_imm8(Alu::Or, RAX, 1);
                        self.asm.jmp(l_done);
                        self.asm.bind(l_slow);
                        self.asm.mov_r64_mem(RDI, R15, CTX_REALM);
                        self.asm.mov_rr32(RSI, RAX);
                        self.call_saving(rt::boxi_slow_shim as *const ());
                        self.asm.bind(l_done);
                    }
                    Tag::Double => {
                        self.heap_call(rt::boxd_shim as *const (), &[Arg::Word(a)]);
                        self.count_heap("Box(Double)", false);
                    }
                    Tag::Bool => {
                        // (b as u64) << 3 | SPECIAL tag: false → 6, true → 14.
                        let a = self.vreg_in(RAX, a);
                        self.asm.test64(a, a);
                        self.asm.setcc(CC_NE, RAX);
                        self.asm.movzx_r32_r8(RAX, RAX);
                        self.asm.shift64(Shift::Shl, RAX, 3);
                        self.asm.alu64_imm8(Alu::Add, RAX, 6);
                    }
                    Tag::Object | Tag::String => {
                        self.load_vreg32(RAX, a);
                        self.asm.shift64(Shift::Shl, RAX, 3);
                        if tag == Tag::String {
                            self.asm.alu64_imm8(Alu::Or, RAX, 4);
                        }
                    }
                }
                self.store_vreg64(d, RAX);
            }

            MachInst::Unbox { tag, d, a, exit } => {
                let site = self.site(k, exit, path);
                self.load_vreg64(RAX, a);
                match tag {
                    Tag::Int => {
                        self.asm.test_al_imm8(1);
                        self.asm.jcc(CC_E, site);
                        // ((raw as u32) as i32) >> 1, stored sign-extended.
                        self.asm.shift32(Shift::Sar, RAX, Src::Imm(1));
                        self.asm.movsxd_r64_r32(RAX, RAX);
                    }
                    Tag::Double => self.unbox_double("Unbox(Double)", site),
                    Tag::Object | Tag::String => {
                        if tag == Tag::Object {
                            self.asm.test_al_imm8(7);
                            self.asm.jcc(CC_NE, site);
                        } else {
                            self.check_tag(4, site);
                        }
                        self.asm.shift64(Shift::Shr, RAX, 3);
                        // Ids are u32: truncate like `(raw >> 3) as u32`.
                        self.asm.mov_rr32(RAX, RAX);
                    }
                    Tag::Bool => {
                        let l_nottrue = self.local();
                        let l_done = self.local();
                        self.asm.alu64(Alu::Cmp, RAX, Src::Imm(14));
                        self.asm.jcc(CC_NE, l_nottrue);
                        self.asm.mov_r32_imm(RAX, 1);
                        self.asm.jmp(l_done);
                        self.asm.bind(l_nottrue);
                        self.asm.alu64(Alu::Cmp, RAX, Src::Imm(6));
                        self.asm.jcc(CC_NE, site);
                        self.asm.zero32(RAX);
                        self.asm.bind(l_done);
                    }
                }
                self.store_vreg64(d, RAX);
            }
            MachInst::UnboxNumD { d, a, exit } => {
                let site = self.site(k, exit, path);
                self.load_vreg64(RAX, a);
                let l_notint = self.local();
                let l_done = self.local();
                self.asm.test_al_imm8(1);
                self.asm.jcc(CC_E, l_notint);
                self.asm.shift32(Shift::Sar, RAX, Src::Imm(1));
                self.asm.cvtsi2sd_reg(XMM0, RAX, false);
                self.store_vreg_xmm(d, XMM0);
                self.asm.jmp(l_done);
                self.asm.bind(l_notint);
                self.unbox_double("UnboxNumD", site);
                self.store_vreg64(d, RAX);
                self.asm.bind(l_done);
            }

            MachInst::GuardTrue { s, exit } | MachInst::GuardFalse { s, exit } => {
                let site = self.site(k, exit, path);
                self.guard(s, matches!(inst, MachInst::GuardTrue { .. }), flags, site);
            }
            MachInst::GuardBoxedEq { s, w, exit } => {
                let site = self.site(k, exit, path);
                let s = self.vreg_in(RAX, s);
                if let Ok(i) = i32::try_from(w as i64) {
                    self.asm.alu64(Alu::Cmp, s, Src::Imm(i));
                } else {
                    self.const_word(RCX, w);
                    self.asm.alu64(Alu::Cmp, s, Src::Reg(RCX));
                }
                self.asm.jcc(CC_NE, site);
            }

            MachInst::LoopBack { exit } => self.loop_edge(k, exit, path),
            MachInst::End { exit } => {
                let site = self.site(k, exit, path);
                self.asm.jmp(site);
            }

            // -- heap-walking ops, inline against the layout the
            // runtime publishes (`tm_runtime::object::layout`).

            MachInst::GuardShape { obj, shape, exit } => {
                let site = self.site(k, exit, path);
                self.object_addr(RAX, obj);
                self.asm.cmp_mem32_imm(RAX, layout::SHAPE as i32, shape as i32);
                self.asm.jcc(CC_NE, site);
                self.count_heap("GuardShape", true);
            }
            MachInst::GuardClass { obj, class, exit } => {
                let site = self.site(k, exit, path);
                self.object_addr(RAX, obj);
                self.asm.cmp_mem8_imm(RAX, layout::CLASS as i32, class);
                self.asm.jcc(CC_NE, site);
                self.count_heap("GuardClass", true);
            }
            MachInst::GuardBound { arr, idx, exit } => {
                let site = self.site(k, exit, path);
                // An index below 0 (huge unsigned), or not below the
                // element count, exits.
                self.object_addr(RAX, arr);
                self.movsxd_vreg(RCX, idx);
                self.asm.cmp_r64_mem(RCX, RAX, layout::ELEMS_LEN as i32);
                self.asm.jcc(CC_AE, site);
                self.count_heap("GuardBound", true);
            }
            MachInst::LoadSlot { d, o, slot } => {
                let shim = rt::load_slot_shim as *const ();
                self.slot_or_elem("LoadSlot", SLOTS, (o, Arg::Const(slot)), None, shim);
                self.store_vreg64(d, RAX);
            }
            MachInst::StoreSlot { o, slot, s } => {
                let shim = rt::store_slot_shim as *const ();
                self.slot_or_elem("StoreSlot", SLOTS, (o, Arg::Const(slot)), Some(s), shim);
            }
            MachInst::LoadElem { d, a, i } => {
                let shim = rt::load_elem_shim as *const ();
                self.slot_or_elem("LoadElem", ELEMS, (a, Arg::Index(i)), None, shim);
                self.store_vreg64(d, RAX);
            }
            MachInst::StoreElem { a, i, s } => {
                let shim = rt::store_elem_shim as *const ();
                self.slot_or_elem("StoreElem", ELEMS, (a, Arg::Index(i)), Some(s), shim);
            }
            MachInst::ArrayLen { d, a } => {
                // `array_length()` is the count truncated to u32.
                self.object_addr(RAX, a);
                self.asm.mov_r32_mem(RAX, RAX, layout::ELEMS_LEN as i32);
                self.store_vreg64(d, RAX);
                self.count_heap("ArrayLen", true);
            }

            // -- through shims: the prototype link (an `Option`) and
            // the string arena's lengths.

            MachInst::LoadProto { d, o } => {
                self.heap_call(rt::load_proto_shim as *const (), &[Arg::Id(o)]);
                self.store_vreg64(d, RAX);
                self.count_heap("LoadProto", false);
            }
            MachInst::StrLen { d, a } => {
                self.heap_call(rt::str_len_shim as *const (), &[Arg::Id(a)]);
                self.store_vreg64(d, RAX);
                self.count_heap("StrLen", false);
            }

            // -- runtime re-entry --

            MachInst::CallHelper { d, helper, ref args, exit } => {
                // The soft-float filter's helper calls cannot re-enter
                // and carry the no-exit sentinel, which names no
                // trampoline.
                let site = (exit != NO_EXIT.0).then(|| self.site(k, exit, path));
                let idx = self.helper_index(helper);
                self.asm.note(|| format!("; helper table[{idx}] = {helper:?}"));
                for (n, &s) in args.iter().enumerate() {
                    let s = self.vreg_in(RAX, s);
                    self.asm.mov_mem_r64(R15, CTX_HARGS + n as i32 * 8, s);
                }
                self.asm.mov_rr64(RDI, R15);
                self.asm.mov_r32_imm(RSI, idx);
                self.asm.mov_r32_imm(RDX, args.len() as u32);
                self.call_saving(rt::helper_shim as *const ());
                // The result store on the exit/error paths writes a
                // stale scratch word into a dead vreg — harmless,
                // and it keeps the status dispatch branch-light.
                self.asm.mov_rr32(RCX, RAX);
                self.asm.mov_r64_mem(RAX, R15, CTX_HRESULT);
                self.store_vreg64(d, RAX);
                self.asm.alu32(Alu::Cmp, RCX, Src::Imm(ST_ERR as i32));
                self.asm.jcc(CC_E, Label::Epilogue);
                if let Some(site) = site {
                    self.asm.test32(RCX, RCX);
                    self.asm.jcc(CC_NE, site);
                }
            }
            MachInst::CallTree { tree, exit } => {
                // A direct call's moves use r8–r10 as scratch, and the
                // callee's code its own vregs: the live vregs in
                // caller-saved registers wait in their homes for the
                // whole sequence.
                let site = self.site(k, exit, path);
                self.save_live();
                match self.direct.get(tree as usize).cloned().flatten() {
                    Some(d) => self.direct_call(tree, &d, site),
                    None => self.host_call(tree, site),
                }
                self.reload_live();
            }
        }
    }

    /// Function prologue: save the callee-saved registers native code
    /// pins or maps vregs to, keep the stack 16-byte aligned for shim
    /// calls (the return address and an odd number of pushes leave it
    /// so; an even number takes 8 bytes more), pin the ctx/AR/memory
    /// file pointers, zero the counter, and jump to the body
    /// `ctx.entry` names. Nothing a vreg register holds on entry is read.
    pub(super) fn prologue(&mut self) {
        self.asm.note(|| "; prologue".into());
        let saved = saved_gprs();
        for &reg in &saved {
            self.asm.push(reg);
        }
        if saved.len().is_multiple_of(2) {
            self.asm.alu64_imm8(Alu::Sub, RSP, 8);
        }
        self.asm.mov_rr64(R15, RDI);
        self.asm.mov_r64_mem(R14, R15, CTX_AR);
        self.asm.mov_r64_mem(R13, R15, CTX_REGS);
        self.asm.zero32(RBX);
        self.asm.note(|| "; entry dispatch: jmp [ctx.entry]".into());
        self.asm.jmp_mem(R15, CTX_ENTRY);
    }

    pub(super) fn epilogue(&mut self) {
        self.asm.note(|| "; epilogue".into());
        self.asm.bind(Label::Epilogue);
        self.asm.mov_mem_r64(R15, CTX_INSTS, RBX);
        let saved = saved_gprs();
        if saved.len().is_multiple_of(2) {
            self.asm.alu64_imm8(Alu::Add, RSP, 8);
        }
        for &reg in saved.iter().rev() {
            self.asm.pop(reg);
        }
        self.asm.ret();
    }

    /// Emits the body of fragment `k`; its exits register sites.
    pub(super) fn body(&mut self, k: u32, frag: &Fragment) {
        self.asm.note(|| format!("; fragment {k}"));
        // Nothing is known on entry: a fragment is entered from the
        // loop edge and from every exit stitched to it.
        self.known = [None; REG_FILE_WORDS];
        (self.flags, self.rax) = (None, None);
        // Backward liveness: what each instruction's calls must keep.
        let mut live_after = vec![0u16; frag.code.len()];
        let mut live = 0u16;
        for (i, inst) in frag.code.iter().enumerate().rev() {
            live_after[i] = live;
            let (mut defs, mut uses) = (0, 0);
            inst.operands(|o| match o {
                Operand::Def(d) => defs |= bit(d),
                Operand::Use(s) => uses |= bit(s),
                Operand::Exit(_) | Operand::Ar(_) => {}
            });
            live = (live & !defs) | uses;
        }
        // The fragment verifier's def-before-use rule: what a vreg's
        // register holds on entry is never read.
        debug_assert_eq!(live, 0, "fragment {k} reads vregs {live:#x} before writing them");
        for (i, inst) in frag.code.iter().enumerate() {
            self.asm.note(|| format!("f{k} {i:4}: {inst:?}"));
            self.live = live_after[i] & !inst.dest().map_or(0, bit);
            self.emit_inst(k, inst, i as u32 + 1);
            if let Some(d) = inst.dest() {
                let w = match *inst {
                    MachInst::ConstW { w, .. } => as_imm(w),
                    _ => None,
                };
                self.known[usize::from(d & REG_MASK)] = w;
            }
        }
        // Fragments end in LoopBack/End; anything past is a bug.
        self.asm.ud2();
    }

    /// Emits every registered exit trampoline, unstitched: flush the
    /// path counts, record the exit, leave through the epilogue.
    /// Returns where each can later be patched into a stitch jump
    /// (which then carries the counts in the pinned accumulators).
    pub(super) fn emit_sites(&mut self) -> Vec<SiteTail> {
        let mut tails = Vec::with_capacity(self.sites.len());
        for n in 0..self.sites.len() {
            let SiteInfo { frag, exit, path } = self.sites[n];
            self.asm
                .note(|| format!("; exit site: fragment {frag} exit {exit} -> return"));
            self.asm.bind(Label::Site(n as u32));
            self.flush_counts(path);
            tails.push(SiteTail { frag, exit, tail: self.asm.here() as u32 });
            self.asm.mov_mem32_imm(R15, CTX_EXIT_FRAG, frag as i32);
            self.asm.mov_mem32_imm(R15, CTX_EXIT_ID, i32::from(exit));
            self.asm.jmp(Label::Epilogue);
        }
        tails
    }
}
