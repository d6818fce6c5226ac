//! The x86-64 encoder: [`Asm`] assembles one chunk of a tree's code from
//! named operations, with rel32 label fixups. Opcode bytes, ModRM `/digit`s,
//! SIB and REX prefixes are private to this file; lowering names registers,
//! condition codes and operations only.

use tm_support::WordMap;

pub(super) const RAX: u8 = 0;
pub(super) const RCX: u8 = 1;
pub(super) const RDX: u8 = 2;
pub(super) const RBX: u8 = 3;
pub(super) const RSP: u8 = 4;
pub(super) const RBP: u8 = 5;
pub(super) const RSI: u8 = 6;
pub(super) const RDI: u8 = 7;
pub(super) const R8: u8 = 8;
pub(super) const R9: u8 = 9;
pub(super) const R10: u8 = 10;
pub(super) const R11: u8 = 11;
pub(super) const R12: u8 = 12;
pub(super) const R13: u8 = 13;
pub(super) const R14: u8 = 14;
pub(super) const R15: u8 = 15;
pub(super) const XMM0: u8 = 0;
pub(super) const XMM1: u8 = 1;

/// A condition code for `jcc`/`setcc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Cc(u8);

impl Cc {
    /// The condition that holds exactly when `self` does not.
    pub(super) fn inverse(self) -> Cc {
        Cc(self.0 ^ 1)
    }
}

pub(super) const CC_O: Cc = Cc(0x0);
pub(super) const CC_AE: Cc = Cc(0x3);
pub(super) const CC_E: Cc = Cc(0x4);
pub(super) const CC_NE: Cc = Cc(0x5);
pub(super) const CC_A: Cc = Cc(0x7);
pub(super) const CC_S: Cc = Cc(0x8);
pub(super) const CC_P: Cc = Cc(0xA);
pub(super) const CC_NP: Cc = Cc(0xB);
pub(super) const CC_L: Cc = Cc(0xC);
pub(super) const CC_GE: Cc = Cc(0xD);
pub(super) const CC_LE: Cc = Cc(0xE);
pub(super) const CC_G: Cc = Cc(0xF);

/// The group-1 integer operations, by the ModRM `/digit` of their
/// immediate forms (`81 /digit`); `digit << 3 | 1` is the opcode of
/// their register forms.
#[derive(Debug, Clone, Copy)]
pub(super) enum Alu {
    Add = 0,
    Or = 1,
    And = 4,
    Sub = 5,
    Xor = 6,
    Cmp = 7,
}

/// The shifts, by their ModRM `/digit`.
#[derive(Debug, Clone, Copy)]
pub(super) enum Shift {
    Shl = 4,
    /// Logical.
    Shr = 5,
    /// Arithmetic.
    Sar = 7,
}

/// Scalar-double arithmetic, by the opcode byte after `F2 0F`.
#[derive(Debug, Clone, Copy)]
pub(super) enum ArithSd {
    Add = 0x58,
    Mul = 0x59,
    Sub = 0x5C,
    Div = 0x5E,
}

/// A source operand: a register, or an immediate (sign-extended from 32
/// bits in 64-bit operations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Src {
    Reg(u8),
    Imm(i32),
}

/// A branch target resolved at finalize time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) enum Label {
    /// Entry of the trunk (fragment 0), where loop edges jump back to.
    Trunk,
    /// Exit site `n` (see `SiteInfo`).
    Site(u32),
    /// An emitter-local label inside one instruction's expansion.
    Local(u32),
    /// The common function epilogue.
    Epilogue,
}

/// Byte-buffer assembler with rel32 label fixups and offset-keyed
/// annotations (consumed by the hexdump disassembler). It assembles
/// the chunk of a tree's code that starts at offset `base`; label,
/// fixup and note positions are offsets into the tree's code, so a
/// chunk can jump to code laid before it. Annotations are only
/// collected when `notes` is `Some` — formatting every virtual
/// instruction is far too expensive for the monitor's emission path,
/// which never reads them.
pub(super) struct Asm {
    base: usize,
    code: Vec<u8>,
    labels: WordMap<Label, usize>,
    fixups: Vec<(usize, Label)>,
    notes: Option<Vec<(usize, String)>>,
}

impl Asm {
    /// An empty chunk laid at offset `base` of the tree's code, adding
    /// to `notes` when the tree collects them.
    pub(super) fn new(base: usize, notes: Option<Vec<(usize, String)>>) -> Asm {
        Asm { base, code: Vec::new(), labels: WordMap::default(), fixups: Vec::new(), notes }
    }

    pub(super) fn here(&self) -> usize {
        self.base + self.code.len()
    }

    pub(super) fn note(&mut self, text: impl FnOnce() -> String) {
        let here = self.here();
        if let Some(notes) = &mut self.notes {
            notes.push((here, text()));
        }
    }

    fn byte(&mut self, b: u8) {
        self.code.push(b);
    }

    fn bytes(&mut self, bs: &[u8]) {
        self.code.extend_from_slice(bs);
    }

    fn imm32(&mut self, v: i32) {
        self.code.extend_from_slice(&v.to_le_bytes());
    }

    fn imm64(&mut self, v: u64) {
        self.code.extend_from_slice(&v.to_le_bytes());
    }

    /// REX prefix for `reg`/`rm` (or base), omitted when empty.
    fn rex_if(&mut self, w: bool, reg: u8, rm: u8) {
        let rex = 0x40 | (u8::from(w) << 3) | (((reg >> 3) & 1) << 2) | ((rm >> 3) & 1);
        if rex != 0x40 {
            self.byte(rex);
        }
    }

    /// ModRM for `[base + disp32]` (mod=10; SIB when base is r12/rsp).
    fn modrm_mem(&mut self, reg: u8, base: u8, disp: i32) {
        self.byte(0b1000_0000 | ((reg & 7) << 3) | (base & 7));
        if base & 7 == 4 {
            self.byte(0x24);
        }
        self.imm32(disp);
    }

    /// ModRM + SIB for `[base + index*8]` (mod=01 with a zero disp8,
    /// so that rbp/r13 as a base need no special case).
    fn modrm_idx8(&mut self, reg: u8, base: u8, index: u8) {
        debug_assert_ne!(index & 7, 4, "rsp/r12 cannot be an index");
        self.byte(0b0100_0100 | ((reg & 7) << 3));
        self.byte(0b1100_0000 | ((index & 7) << 3) | (base & 7));
        self.byte(0);
    }

    /// `op reg, [base + index*8]` with REX.W.
    fn op_idx8(&mut self, opc: u8, reg: u8, base: u8, index: u8) {
        self.byte(0x48 | (((reg >> 3) & 1) << 2) | (((index >> 3) & 1) << 1) | ((base >> 3) & 1));
        self.byte(opc);
        self.modrm_idx8(reg, base, index);
    }

    fn modrm_reg(&mut self, reg: u8, rm: u8) {
        self.byte(0b1100_0000 | ((reg & 7) << 3) | (rm & 7));
    }

    fn op_mem(&mut self, w: bool, opc: &[u8], reg: u8, base: u8, disp: i32) {
        self.rex_if(w, reg, base);
        self.bytes(opc);
        self.modrm_mem(reg, base, disp);
    }

    fn op_reg(&mut self, w: bool, opc: &[u8], reg: u8, rm: u8) {
        self.rex_if(w, reg, rm);
        self.bytes(opc);
        self.modrm_reg(reg, rm);
    }

    /// SSE op with a mandatory prefix byte (F2/66) before REX.
    fn sse_mem(&mut self, prefix: u8, w: bool, opc: &[u8], xmm: u8, base: u8, disp: i32) {
        self.byte(prefix);
        self.rex_if(w, xmm, base);
        self.bytes(opc);
        self.modrm_mem(xmm, base, disp);
    }

    fn sse_reg(&mut self, prefix: u8, w: bool, opc: &[u8], reg: u8, rm: u8) {
        self.byte(prefix);
        self.rex_if(w, reg, rm);
        self.bytes(opc);
        self.modrm_reg(reg, rm);
    }

    /// `op rm, src` for a group-1 op: `81 /digit id` or the MR form.
    fn alu(&mut self, w: bool, op: Alu, rm: u8, src: Src) {
        match src {
            Src::Reg(reg) => self.op_reg(w, &[((op as u8) << 3) | 1], reg, rm),
            Src::Imm(imm) => {
                self.op_reg(w, &[0x81], op as u8, rm);
                self.imm32(imm);
            }
        }
    }

    /// `imul dst, src` (`0F AF /r`), or `imul dst, dst, imm32` (`69 /r`).
    fn imul(&mut self, w: bool, dst: u8, src: Src) {
        match src {
            Src::Reg(reg) => self.op_reg(w, &[0x0F, 0xAF], dst, reg),
            Src::Imm(imm) => {
                self.op_reg(w, &[0x69], dst, dst);
                self.imm32(imm);
            }
        }
    }

    // -- moves --

    /// `mov r32, [base+disp]` (zero-extends to 64 bits).
    pub(super) fn mov_r32_mem(&mut self, dst: u8, base: u8, disp: i32) {
        self.op_mem(false, &[0x8B], dst, base, disp);
    }

    pub(super) fn mov_r64_mem(&mut self, dst: u8, base: u8, disp: i32) {
        self.op_mem(true, &[0x8B], dst, base, disp);
    }

    pub(super) fn mov_mem_r64(&mut self, base: u8, disp: i32, src: u8) {
        self.op_mem(true, &[0x89], src, base, disp);
    }

    /// `lea r64, [base+disp]`.
    pub(super) fn lea_r64_mem(&mut self, dst: u8, base: u8, disp: i32) {
        self.op_mem(true, &[0x8D], dst, base, disp);
    }

    /// `mov r64, [base + index*8]`.
    pub(super) fn mov_r64_idx8(&mut self, dst: u8, base: u8, index: u8) {
        self.op_idx8(0x8B, dst, base, index);
    }

    /// `mov [base + index*8], r64`.
    pub(super) fn mov_idx8_r64(&mut self, base: u8, index: u8, src: u8) {
        self.op_idx8(0x89, src, base, index);
    }

    /// `mov dword [base+disp], imm32`.
    pub(super) fn mov_mem32_imm(&mut self, base: u8, disp: i32, imm: i32) {
        self.op_mem(false, &[0xC7], 0, base, disp);
        self.imm32(imm);
    }

    /// `movsxd r64, dword [base+disp]`.
    pub(super) fn movsxd_r64_mem(&mut self, dst: u8, base: u8, disp: i32) {
        self.op_mem(true, &[0x63], dst, base, disp);
    }

    /// `movsxd r64, r32`.
    pub(super) fn movsxd_r64_r32(&mut self, dst: u8, src: u8) {
        self.op_reg(true, &[0x63], dst, src);
    }

    pub(super) fn mov_rr64(&mut self, dst: u8, src: u8) {
        self.op_reg(true, &[0x89], src, dst);
    }

    /// `mov r32, r32` (zero-extends; also truncates to u32).
    pub(super) fn mov_rr32(&mut self, dst: u8, src: u8) {
        self.op_reg(false, &[0x89], src, dst);
    }

    /// `mov r32, imm32` (zero-extends).
    pub(super) fn mov_r32_imm(&mut self, dst: u8, imm: u32) {
        self.rex_if(false, 0, dst);
        self.byte(0xB8 | (dst & 7));
        self.imm32(imm as i32);
    }

    /// `mov r64, imm32` (sign-extends).
    pub(super) fn mov_r64_imm32(&mut self, dst: u8, imm: i32) {
        self.op_reg(true, &[0xC7], 0, dst);
        self.imm32(imm);
    }

    /// `movabs r64, imm64`.
    pub(super) fn movabs(&mut self, dst: u8, imm: u64) {
        self.rex_if(true, 0, dst);
        self.byte(0xB8 | (dst & 7));
        self.imm64(imm);
    }

    // -- integer ALU --

    /// 32-bit `op rm, src`.
    pub(super) fn alu32(&mut self, op: Alu, rm: u8, src: Src) {
        self.alu(false, op, rm, src);
    }

    /// 64-bit `op rm, src`.
    pub(super) fn alu64(&mut self, op: Alu, rm: u8, src: Src) {
        self.alu(true, op, rm, src);
    }

    /// 64-bit `op rm, imm8` (sign-extended).
    pub(super) fn alu64_imm8(&mut self, op: Alu, rm: u8, imm: i8) {
        self.op_reg(true, &[0x83], op as u8, rm);
        self.byte(imm as u8);
    }

    /// 32-bit `dst *= src`.
    pub(super) fn imul32(&mut self, dst: u8, src: Src) {
        self.imul(false, dst, src);
    }

    /// 64-bit `dst *= src`.
    pub(super) fn imul64(&mut self, dst: u8, src: Src) {
        self.imul(true, dst, src);
    }

    /// 32-bit shift of `rm` by `cl` (`count` is rcx) or by an immediate,
    /// taken mod 32 as the hardware takes `cl`.
    pub(super) fn shift32(&mut self, op: Shift, rm: u8, count: Src) {
        match count {
            Src::Reg(reg) => {
                debug_assert_eq!(reg, RCX, "a shift count in a register is in cl");
                self.op_reg(false, &[0xD3], op as u8, rm);
            }
            Src::Imm(imm) => {
                self.op_reg(false, &[0xC1], op as u8, rm);
                self.byte((imm & 31) as u8);
            }
        }
    }

    /// 64-bit shift by an immediate.
    pub(super) fn shift64(&mut self, op: Shift, rm: u8, imm: u8) {
        self.op_reg(true, &[0xC1], op as u8, rm);
        self.byte(imm);
    }

    pub(super) fn test32(&mut self, a: u8, b: u8) {
        self.op_reg(false, &[0x85], b, a);
    }

    pub(super) fn test64(&mut self, a: u8, b: u8) {
        self.op_reg(true, &[0x85], b, a);
    }

    /// `test al, imm8`.
    pub(super) fn test_al_imm8(&mut self, imm: u8) {
        self.bytes(&[0xA8, imm]);
    }

    /// `add r64, [base+disp]`.
    pub(super) fn add_r64_mem(&mut self, reg: u8, base: u8, disp: i32) {
        self.op_mem(true, &[0x03], reg, base, disp);
    }

    /// `cmp byte [base+disp], imm8`.
    pub(super) fn cmp_mem8_imm(&mut self, base: u8, disp: i32, imm: u8) {
        self.op_mem(false, &[0x80], 7, base, disp);
        self.byte(imm);
    }

    /// `cmp r64, [base+disp]`.
    pub(super) fn cmp_r64_mem(&mut self, reg: u8, base: u8, disp: i32) {
        self.op_mem(true, &[0x3B], reg, base, disp);
    }

    /// `cmp byte [rax], 0`.
    pub(super) fn cmp_byte_at_rax_0(&mut self) {
        self.bytes(&[0x80, 0x38, 0x00]);
    }

    /// `setcc r8` (low byte; only rax..rdx used).
    pub(super) fn setcc(&mut self, cc: Cc, rm: u8) {
        self.op_reg(false, &[0x0F, 0x90 | cc.0], 0, rm);
    }

    /// `movzx r32, r8`.
    pub(super) fn movzx_r32_r8(&mut self, dst: u8, src: u8) {
        self.op_reg(false, &[0x0F, 0xB6], dst, src);
    }

    /// `and dst8, src8`.
    pub(super) fn and_r8_r8(&mut self, dst: u8, src: u8) {
        self.op_reg(false, &[0x20], src, dst);
    }

    /// `not r32`.
    pub(super) fn not32(&mut self, rm: u8) {
        self.op_reg(false, &[0xF7], 2, rm);
    }

    /// `neg r32`.
    pub(super) fn neg32(&mut self, rm: u8) {
        self.op_reg(false, &[0xF7], 3, rm);
    }

    pub(super) fn neg64(&mut self, rm: u8) {
        self.op_reg(true, &[0xF7], 3, rm);
    }

    pub(super) fn cdq(&mut self) {
        self.byte(0x99);
    }

    /// `idiv r32` (divides edx:eax).
    pub(super) fn idiv32(&mut self, rm: u8) {
        self.op_reg(false, &[0xF7], 7, rm);
    }

    /// `inc qword [base+disp]`.
    pub(super) fn inc_mem64(&mut self, base: u8, disp: i32) {
        self.op_mem(true, &[0xFF], 0, base, disp);
    }

    /// `add qword [base+disp], src`.
    pub(super) fn add_mem_r64(&mut self, base: u8, disp: i32, src: u8) {
        self.op_mem(true, &[0x01], src, base, disp);
    }

    /// `sub qword [base+disp], src`.
    pub(super) fn sub_mem_r64(&mut self, base: u8, disp: i32, src: u8) {
        self.op_mem(true, &[0x29], src, base, disp);
    }

    /// `cmp dword [base+disp], imm32`.
    pub(super) fn cmp_mem32_imm(&mut self, base: u8, disp: i32, imm: i32) {
        self.op_mem(false, &[0x81], 7, base, disp);
        self.imm32(imm);
    }

    /// `rep stosq`: `rcx` words of `rax` from `rdi` up.
    pub(super) fn rep_stosq(&mut self) {
        self.bytes(&[0xF3, 0x48, 0xAB]);
    }

    /// `btc r64, imm8` (used to flip the f64 sign bit).
    pub(super) fn btc_r64_imm8(&mut self, rm: u8, imm: u8) {
        self.op_reg(true, &[0x0F, 0xBA], 7, rm);
        self.byte(imm);
    }

    /// `xor r32, r32`: zeroes the whole register.
    pub(super) fn zero32(&mut self, rm: u8) {
        self.alu32(Alu::Xor, rm, Src::Reg(rm));
    }

    // -- SSE --

    /// `movsd xmm, [base+disp]`.
    pub(super) fn movsd_load(&mut self, xmm: u8, base: u8, disp: i32) {
        self.sse_mem(0xF2, false, &[0x0F, 0x10], xmm, base, disp);
    }

    /// `movsd [base+disp], xmm`.
    pub(super) fn movsd_store(&mut self, base: u8, disp: i32, xmm: u8) {
        self.sse_mem(0xF2, false, &[0x0F, 0x11], xmm, base, disp);
    }

    /// `addsd`/`subsd`/`mulsd`/`divsd xmm, [base+disp]`.
    pub(super) fn arith_sd_mem(&mut self, op: ArithSd, xmm: u8, base: u8, disp: i32) {
        self.sse_mem(0xF2, false, &[0x0F, op as u8], xmm, base, disp);
    }

    /// `addsd`/`subsd`/`mulsd`/`divsd xmm, xmm`.
    pub(super) fn arith_sd_reg(&mut self, op: ArithSd, xmm: u8, src: u8) {
        self.sse_reg(0xF2, false, &[0x0F, op as u8], xmm, src);
    }

    /// `ucomisd xmm, [base+disp]`.
    pub(super) fn ucomisd_mem(&mut self, xmm: u8, base: u8, disp: i32) {
        self.sse_mem(0x66, false, &[0x0F, 0x2E], xmm, base, disp);
    }

    /// `ucomisd xmm, xmm`.
    pub(super) fn ucomisd_reg(&mut self, a: u8, b: u8) {
        self.sse_reg(0x66, false, &[0x0F, 0x2E], a, b);
    }

    /// `cvtsi2sd xmm, dword [base+disp]` (32-bit source).
    pub(super) fn cvtsi2sd_mem32(&mut self, xmm: u8, base: u8, disp: i32) {
        self.sse_mem(0xF2, false, &[0x0F, 0x2A], xmm, base, disp);
    }

    /// `cvtsi2sd xmm, r32/r64`.
    pub(super) fn cvtsi2sd_reg(&mut self, xmm: u8, gpr: u8, wide: bool) {
        self.sse_reg(0xF2, wide, &[0x0F, 0x2A], xmm, gpr);
    }

    /// `movq r64, xmm`.
    pub(super) fn movq_r64_xmm(&mut self, gpr: u8, xmm: u8) {
        self.sse_reg(0x66, true, &[0x0F, 0x7E], xmm, gpr);
    }

    /// `movq xmm, r64`.
    pub(super) fn movq_xmm_r64(&mut self, xmm: u8, gpr: u8) {
        self.sse_reg(0x66, true, &[0x0F, 0x6E], xmm, gpr);
    }

    /// `cvttsd2si r64, xmm`.
    pub(super) fn cvttsd2si_r64(&mut self, gpr: u8, xmm: u8) {
        self.sse_reg(0xF2, true, &[0x0F, 0x2C], gpr, xmm);
    }

    // -- control flow --

    pub(super) fn push(&mut self, reg: u8) {
        self.rex_if(false, 0, reg);
        self.byte(0x50 | (reg & 7));
    }

    pub(super) fn pop(&mut self, reg: u8) {
        self.rex_if(false, 0, reg);
        self.byte(0x58 | (reg & 7));
    }

    pub(super) fn ret(&mut self) {
        self.byte(0xC3);
    }

    pub(super) fn ud2(&mut self) {
        self.bytes(&[0x0F, 0x0B]);
    }

    pub(super) fn call_rax(&mut self) {
        self.bytes(&[0xFF, 0xD0]);
    }

    /// `jmp qword [base+disp]`.
    pub(super) fn jmp_mem(&mut self, base: u8, disp: i32) {
        self.op_mem(false, &[0xFF], 4, base, disp);
    }

    pub(super) fn bind(&mut self, label: Label) {
        self.bind_at(label, self.here());
    }

    /// Binds `label` to offset `pos` of the tree's code, which may lie
    /// in a chunk laid before this one.
    pub(super) fn bind_at(&mut self, label: Label, pos: usize) {
        let prev = self.labels.insert(label, pos);
        debug_assert!(prev.is_none(), "label {label:?} bound twice");
    }

    pub(super) fn jmp(&mut self, label: Label) {
        self.byte(0xE9);
        self.fixups.push((self.here(), label));
        self.imm32(0);
    }

    pub(super) fn jcc(&mut self, cc: Cc, label: Label) {
        self.bytes(&[0x0F, 0x80 | cc.0]);
        self.fixups.push((self.here(), label));
        self.imm32(0);
    }

    /// Patches every rel32 fixup against the bound labels and returns the
    /// chunk's code and the tree's notes.
    pub(super) fn finish(mut self) -> (Vec<u8>, Option<Vec<(usize, String)>>) {
        for &(pos, label) in &self.fixups {
            let target = *self
                .labels
                .get(&label)
                .unwrap_or_else(|| panic!("unbound label {label:?}"));
            let rel = i32::try_from(target as i64 - (pos as i64 + 4))
                .expect("jump displacement exceeds rel32");
            let at = pos - self.base;
            self.code[at..at + 4].copy_from_slice(&rel.to_le_bytes());
        }
        (self.code, self.notes)
    }
}

/// The five bytes of a `jmp rel32` at offset `at` to offset `target`
/// of the same buffer.
pub(super) fn jmp_rel32(at: usize, target: usize) -> [u8; 5] {
    let rel = i32::try_from(target as i64 - (at as i64 + 5))
        .expect("jump displacement exceeds rel32");
    let [a, b, c, d] = rel.to_le_bytes();
    [0xE9, a, b, c, d]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts that `emit` assembles `want` into a chunk at offset 0.
    fn check(asm: &str, emit: impl FnOnce(&mut Asm), want: &[u8]) {
        let mut a = Asm::new(0, None);
        emit(&mut a);
        assert_eq!(a.finish().0, want, "{asm}");
    }

    /// Encodings with edge cases, against the Intel SDM's.
    #[test]
    fn encodings_match_the_sdm() {
        // r12 as a base needs a SIB byte (0x24: no index, base r12).
        check("mov rax, [r12+8]", |a| a.mov_r64_mem(RAX, R12, 8),
            &[0x49, 0x8B, 0x84, 0x24, 8, 0, 0, 0]);
        check("mov ecx, [r12-8]", |a| a.mov_r32_mem(RCX, R12, -8),
            &[0x41, 0x8B, 0x8C, 0x24, 0xF8, 0xFF, 0xFF, 0xFF]);
        check("mov [r12+0x10], r9", |a| a.mov_mem_r64(R12, 0x10, R9),
            &[0x4D, 0x89, 0x8C, 0x24, 0x10, 0, 0, 0]);
        // r8-r15 in the reg field (REX.R), the rm field (REX.B), both.
        check("mov r9, [rax]", |a| a.mov_r64_mem(R9, RAX, 0), &[0x4C, 0x8B, 0x88, 0, 0, 0, 0]);
        check("mov rax, [r13]", |a| a.mov_r64_mem(RAX, R13, 0), &[0x49, 0x8B, 0x85, 0, 0, 0, 0]);
        check("mov r8, r15", |a| a.mov_rr64(R8, R15), &[0x4D, 0x89, 0xF8]);
        check("jmp [r15+0x38]", |a| a.jmp_mem(R15, 0x38), &[0x41, 0xFF, 0xA7, 0x38, 0, 0, 0]);
        check("movsd xmm0, [r13+8]", |a| a.movsd_load(XMM0, R13, 8),
            &[0xF2, 0x41, 0x0F, 0x10, 0x85, 8, 0, 0, 0]);
        // Scaled index: SIB with scale 8, a zero disp8 for any base.
        check("mov rax, [rax+rcx*8]", |a| a.mov_r64_idx8(RAX, RAX, RCX),
            &[0x48, 0x8B, 0x44, 0xC8, 0]);
        check("mov [r13+r9*8], r10", |a| a.mov_idx8_r64(R13, R9, R10),
            &[0x4F, 0x89, 0x54, 0xCD, 0]);
        check("lea rcx, [rax+0x40000000]", |a| a.lea_r64_mem(RCX, RAX, 0x4000_0000),
            &[0x48, 0x8D, 0x88, 0, 0, 0, 0x40]);
        check("lea r11, [r12-8]", |a| a.lea_r64_mem(R11, R12, -8),
            &[0x4D, 0x8D, 0x9C, 0x24, 0xF8, 0xFF, 0xFF, 0xFF]);
        check("shr rcx, 31", |a| a.shift64(Shift::Shr, RCX, 31), &[0x48, 0xC1, 0xE9, 31]);
        check("sub rsp, 8", |a| a.alu64_imm8(Alu::Sub, RSP, 8), &[0x48, 0x83, 0xEC, 8]);
        // Vregs mapped to rbp and r8-r12 as plain register operands.
        check("mov ebp, r12d", |a| a.mov_rr32(RBP, R12), &[0x44, 0x89, 0xE5]);
        check("test rbp, rbp", |a| a.test64(RBP, RBP), &[0x48, 0x85, 0xED]);
        check("movq xmm1, r11", |a| a.movq_xmm_r64(XMM1, R11),
            &[0x66, 0x49, 0x0F, 0x6E, 0xCB]);
        check("movq rbp, xmm0", |a| a.movq_r64_xmm(RBP, XMM0), &[0x66, 0x48, 0x0F, 0x7E, 0xC5]);
        check("addsd xmm0, xmm1", |a| a.arith_sd_reg(ArithSd::Add, XMM0, XMM1),
            &[0xF2, 0x0F, 0x58, 0xC1]);
        check("ucomisd xmm0, xmm1", |a| a.ucomisd_reg(XMM0, XMM1), &[0x66, 0x0F, 0x2E, 0xC1]);
        check("cvtsi2sd xmm0, r9d", |a| a.cvtsi2sd_reg(XMM0, R9, false),
            &[0xF2, 0x41, 0x0F, 0x2A, 0xC1]);
        check("push rbp", |a| a.push(RBP), &[0x55]);
        check("add rax, [rdx+0x10]", |a| a.add_r64_mem(RAX, RDX, 0x10),
            &[0x48, 0x03, 0x82, 0x10, 0, 0, 0]);
        check("cmp byte [rax+1], 2", |a| a.cmp_mem8_imm(RAX, 1, 2),
            &[0x80, 0xB8, 1, 0, 0, 0, 2]);
        // No REX when it would be a bare 0x40.
        check("mov eax, ecx", |a| a.mov_rr32(RAX, RCX), &[0x89, 0xC8]);
        check("mov edx, [rbx+4]", |a| a.mov_r32_mem(RDX, RBX, 4), &[0x8B, 0x93, 4, 0, 0, 0]);
        check("setne al", |a| a.setcc(CC_NE, RAX), &[0x0F, 0x95, 0xC0]);
        check("push rbx", |a| a.push(RBX), &[0x53]);
        check("push r12", |a| a.push(R12), &[0x41, 0x54]);
        // Register-or-immediate operands.
        check("cmp eax, 2", |a| a.alu32(Alu::Cmp, RAX, Src::Imm(2)), &[0x81, 0xF8, 2, 0, 0, 0]);
        check("sub rax, rcx", |a| a.alu64(Alu::Sub, RAX, Src::Reg(RCX)), &[0x48, 0x29, 0xC8]);
        check("imul eax, eax, -3", |a| a.imul32(RAX, Src::Imm(-3)),
            &[0x69, 0xC0, 0xFD, 0xFF, 0xFF, 0xFF]);
        check("sar eax, 1", |a| a.shift32(Shift::Sar, RAX, Src::Imm(33)), &[0xC1, 0xF8, 1]);
        check("shl eax, cl", |a| a.shift32(Shift::Shl, RAX, Src::Reg(RCX)), &[0xD3, 0xE0]);
        // mov r32, imm32 into r8+ (REX.B on the opcode's register).
        check("mov r10d, 0x12345678", |a| a.mov_r32_imm(R10, 0x1234_5678),
            &[0x41, 0xBA, 0x78, 0x56, 0x34, 0x12]);
        check("mov edx, 0x80000000", |a| a.mov_r32_imm(RDX, 0x8000_0000), &[0xBA, 0, 0, 0, 0x80]);
        let imm = 0x1122_3344_5566_7788;
        check("movabs rax, imm64", |a| a.movabs(RAX, imm),
            &[0x48, 0xB8, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11]);
        check("movabs r9, imm64", |a| a.movabs(R9, imm),
            &[0x49, 0xB9, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11]);
    }

    /// rel32 displacements count from the end of the instruction, in
    /// offsets of the tree's code: a chunk laid at 0x100 jumps back to
    /// a label an earlier chunk bound, and forward within itself.
    #[test]
    fn rel32_fixups_span_chunks() {
        let mut asm = Asm::new(0x100, None);
        asm.bind_at(Label::Epilogue, 0x40);
        asm.jmp(Label::Epilogue); // 0x100..0x105: 0x40 - 0x105 = -0xC5
        asm.jcc(CC_NE, Label::Local(0)); // 0x105..0x10B: 0x10C - 0x10B = 1
        asm.ret();
        asm.bind(Label::Local(0));
        let (code, _) = asm.finish();
        assert_eq!(code, [0xE9, 0x3B, 0xFF, 0xFF, 0xFF, 0x0F, 0x85, 1, 0, 0, 0, 0xC3]);
        // A stitch patched over an exit trampoline jumps back the same way.
        assert_eq!(jmp_rel32(4, 0), [0xE9, 0xF7, 0xFF, 0xFF, 0xFF]);
    }
}
