//! Binary serialization of compiled fragments (the persistent trace
//! cache's `tm-nanojit` layer; format spec in `docs/PERSISTENCE.md` §4).
//!
//! ## Design rules
//!
//! * **Exhaustive by construction.** The [`machinst_codec!`] table below
//!   names every [`MachInst`] variant with an explicit opcode byte; the
//!   generated encoder is an exhaustive `match`, so adding a variant
//!   without extending the table is a compile error — the codec cannot
//!   silently drop instructions.
//! * **Bit-exact round trips.** `decode(encode(f)) == f` for every
//!   well-formed fragment, and `encode(decode(bytes)) == bytes` for every
//!   accepted byte string (there are no redundant encodings). The
//!   round-trip property tests in `tests/persistence.rs` pin this over
//!   fuzzer-recorded trees.
//! * **Hostile input is rejected, never trusted.** Decoding validates
//!   opcode bytes, enum discriminants, and length prefixes; everything
//!   *semantic* (register ranges, exit-table coverage, terminator
//!   placement, AR-slot and stitch-target ranges) is deliberately left to
//!   `tm-verifier`, which every loaded fragment must pass before
//!   installation. The codec's job is only to guarantee that arbitrary
//!   bytes produce either `Err` or a structurally well-typed `Fragment`.
//!
//! Opcode bytes are part of the on-disk format: renumbering them is a
//! format-version bump (see `docs/PERSISTENCE.md` §7).

use crate::machinst::{Fragment, MachInst, Reg};
use tm_lir::{AluOp, ChkOp, CmpOp, FOp, Tag};
use tm_runtime::{Helper, NativeId};
use tm_support::binio::{BinError, ByteReader, ByteWriter};

/// A field type that knows how to write itself to / read itself from the
/// cache byte stream. Implemented for exactly the types that occur as
/// [`MachInst`] fields.
pub trait Codec: Sized {
    /// Appends the encoded form to `w`.
    fn enc(&self, w: &mut ByteWriter);
    /// Decodes one value, validating discriminants and lengths.
    fn dec(r: &mut ByteReader) -> Result<Self, BinError>;
}

impl Codec for u8 {
    fn enc(&self, w: &mut ByteWriter) {
        w.u8(*self);
    }
    fn dec(r: &mut ByteReader) -> Result<u8, BinError> {
        r.u8()
    }
}

impl Codec for u16 {
    fn enc(&self, w: &mut ByteWriter) {
        w.u16(*self);
    }
    fn dec(r: &mut ByteReader) -> Result<u16, BinError> {
        r.u16()
    }
}

impl Codec for u32 {
    fn enc(&self, w: &mut ByteWriter) {
        w.u32(*self);
    }
    fn dec(r: &mut ByteReader) -> Result<u32, BinError> {
        r.u32()
    }
}

impl Codec for u64 {
    fn enc(&self, w: &mut ByteWriter) {
        w.u64(*self);
    }
    fn dec(r: &mut ByteReader) -> Result<u64, BinError> {
        r.u64()
    }
}

impl Codec for Box<[Reg]> {
    fn enc(&self, w: &mut ByteWriter) {
        w.bytes_u32(self);
    }
    fn dec(r: &mut ByteReader) -> Result<Box<[Reg]>, BinError> {
        Ok(r.bytes_u32()?.into())
    }
}

/// Generates a `Codec` impl for a fieldless enum from an explicit
/// `discriminant => Variant` table (exhaustive encode match; decode
/// rejects unknown discriminants with [`BinError::BadTag`]).
macro_rules! enum_codec {
    ($ty:ident, $what:literal, { $($idx:literal => $name:ident),* $(,)? }) => {
        impl Codec for $ty {
            fn enc(&self, w: &mut ByteWriter) {
                w.u8(match self { $( $ty::$name => $idx, )* });
            }
            fn dec(r: &mut ByteReader) -> Result<$ty, BinError> {
                let at = r.pos();
                match r.u8()? {
                    $( $idx => Ok($ty::$name), )*
                    t => Err(BinError::BadTag { at, tag: u64::from(t), what: $what }),
                }
            }
        }
    };
}

enum_codec!(AluOp, "AluOp", {
    0 => Add, 1 => Sub, 2 => Mul, 3 => And, 4 => Or, 5 => Xor,
    6 => Shl, 7 => Shr, 8 => UShr,
});

enum_codec!(CmpOp, "CmpOp", {
    0 => Eq, 1 => Lt, 2 => Le, 3 => Gt, 4 => Ge,
});

enum_codec!(ChkOp, "ChkOp", {
    0 => Add, 1 => Sub, 2 => Mul, 3 => Shl, 4 => UShr,
});

enum_codec!(FOp, "FOp", {
    0 => Add, 1 => Sub, 2 => Mul, 3 => Div, 4 => Mod,
});

enum_codec!(Tag, "Tag", {
    0 => Int, 1 => Double, 2 => Bool, 3 => Object, 4 => String,
});

/// [`Helper`] codec: fieldless variants get a one-byte index from the
/// table; `CallNative(id)` is `0xff` followed by the id. Exhaustive
/// encode match — a new helper variant fails to compile until it gets a
/// table entry (and a format-version bump).
macro_rules! helper_codec {
    ($( $idx:literal => $name:ident ),* $(,)?) => {
        impl Codec for Helper {
            fn enc(&self, w: &mut ByteWriter) {
                match self {
                    $( Helper::$name => w.u8($idx), )*
                    Helper::CallNative(id) => {
                        w.u8(0xff);
                        w.u32(id.0);
                    }
                }
            }
            fn dec(r: &mut ByteReader) -> Result<Helper, BinError> {
                let at = r.pos();
                match r.u8()? {
                    $( $idx => Ok(Helper::$name), )*
                    0xff => Ok(Helper::CallNative(NativeId(r.u32()?))),
                    t => Err(BinError::BadTag { at, tag: u64::from(t), what: "Helper" }),
                }
            }
        }
    };
}

// Index 0 is the one helper that takes no arguments, so the all-zero
// `CallHelper` (no argument registers) is a well-formed call.
// Indices 18–21 named the deleted soft-float helpers. They stay unused,
// so no other helper's byte moves and a file naming one is `BadTag`.
helper_codec!(
    0 => Random,
    1 => Sin, 2 => Cos, 3 => Tan, 4 => Asin, 5 => Acos, 6 => Atan,
    7 => Exp, 8 => Log, 9 => Sqrt, 10 => Floor, 11 => Ceil, 12 => Round,
    13 => AbsD, 14 => Atan2, 15 => Pow, 16 => MinD, 17 => MaxD,
    22 => NumberToString, 23 => IntToString, 24 => ConcatStrings,
    25 => StrEq, 26 => StrCmp, 27 => CharCodeAt, 28 => CharAt,
    29 => Substring, 30 => FromCharCode, 31 => StrToNum,
    32 => ToLowerCase, 33 => ToUpperCase,
    34 => ArraySetElem, 35 => NewArray, 36 => NewObject, 37 => SetPropSlow,
    38 => LtAny, 39 => LeAny, 40 => GtAny, 41 => GeAny, 42 => EqAny,
    43 => GetElemAny, 44 => SetElemAny,
);

/// Generates [`encode_inst`]/[`decode_inst`] from the opcode table. Each
/// entry is `opcode Variant { field: Type, ... }`; the encoder is an
/// exhaustive match over [`MachInst`], the decoder dispatches on the
/// opcode byte and rejects unknown opcodes.
macro_rules! machinst_codec {
    ($( $op:literal $name:ident { $( $f:ident : $t:ty ),* $(,)? } )*) => {
        /// Appends the one-byte opcode and the fields of `inst` to `w`.
        pub fn encode_inst(inst: &MachInst, w: &mut ByteWriter) {
            match inst {
                $( MachInst::$name { $( $f ),* } => {
                    w.u8($op);
                    $( Codec::enc($f, w); )*
                } )*
            }
        }

        /// Decodes one instruction. Unknown opcodes and invalid enum
        /// discriminants are [`BinError::BadTag`].
        pub fn decode_inst(r: &mut ByteReader) -> Result<MachInst, BinError> {
            let at = r.pos();
            let op = r.u8()?;
            match op {
                $( $op => Ok(MachInst::$name { $( $f: <$t as Codec>::dec(r)? ),* }), )*
                t => Err(BinError::BadTag { at, tag: u64::from(t), what: "MachInst opcode" }),
            }
        }

        /// The table itself, for tests: each opcode with its field types.
        #[cfg(test)]
        const OPCODE_FIELD_TYPES: &[(u8, &[&str])] =
            &[ $( ($op, &[ $( stringify!($t) ),* ]) ),* ];
    };
}

machinst_codec! {
    0x00 ConstW { d: Reg, w: u64 }
    0x01 Mov { d: Reg, s: Reg }
    0x02 LoadSpill { d: Reg, slot: u16 }
    0x03 StoreSpill { slot: u16, s: Reg }
    0x04 ReadAr { d: Reg, slot: u16 }
    0x05 WriteAr { slot: u16, s: Reg }
    0x06 AluI { op: AluOp, d: Reg, a: Reg, b: Reg }
    0x07 NotI { d: Reg, a: Reg }
    0x08 NegI { d: Reg, a: Reg }
    0x09 ChkAluI { op: ChkOp, d: Reg, a: Reg, b: Reg, exit: u16 }
    0x0a NegIChk { d: Reg, a: Reg, exit: u16 }
    0x0b ModIChk { d: Reg, a: Reg, b: Reg, exit: u16 }
    0x0c AluD { op: FOp, d: Reg, a: Reg, b: Reg }
    0x0d NegD { d: Reg, a: Reg }
    0x0e CmpI { op: CmpOp, d: Reg, a: Reg, b: Reg }
    0x0f CmpD { op: CmpOp, d: Reg, a: Reg, b: Reg }
    0x10 NotB { d: Reg, a: Reg }
    0x11 I2D { d: Reg, a: Reg }
    0x12 U2D { d: Reg, a: Reg }
    0x13 D2IChk { d: Reg, a: Reg, exit: u16 }
    0x14 D2I32 { d: Reg, a: Reg }
    0x15 ChkRangeI { d: Reg, a: Reg, exit: u16 }
    0x16 Box { tag: Tag, d: Reg, a: Reg }
    0x17 Unbox { tag: Tag, d: Reg, a: Reg, exit: u16 }
    0x18 UnboxNumD { d: Reg, a: Reg, exit: u16 }
    0x19 GuardTrue { s: Reg, exit: u16 }
    0x1a GuardFalse { s: Reg, exit: u16 }
    0x1b GuardShape { obj: Reg, shape: u32, exit: u16 }
    0x1c GuardClass { obj: Reg, class: u8, exit: u16 }
    0x1d GuardBoxedEq { s: Reg, w: u64, exit: u16 }
    0x1e GuardBound { arr: Reg, idx: Reg, exit: u16 }
    0x1f LoadSlot { d: Reg, o: Reg, slot: u32 }
    0x20 StoreSlot { o: Reg, slot: u32, s: Reg }
    0x21 LoadProto { d: Reg, o: Reg }
    0x22 LoadElem { d: Reg, a: Reg, i: Reg }
    0x23 StoreElem { a: Reg, i: Reg, s: Reg }
    0x24 ArrayLen { d: Reg, a: Reg }
    0x25 StrLen { d: Reg, a: Reg }
    0x26 CallHelper { d: Reg, helper: Helper, args: Box<[Reg]>, exit: u16 }
    0x27 CallTree { tree: u32, exit: u16 }
    0x28 LoopBack { exit: u16 }
    0x29 End { exit: u16 }
}

/// Appends the encoded form of `frag` to `w` (PERSISTENCE.md §4:
/// instruction stream, spill count, exit table).
pub fn encode_fragment(frag: &Fragment, w: &mut ByteWriter) {
    w.u32(frag.code.len() as u32);
    for inst in &frag.code {
        encode_inst(inst, w);
    }
    w.u16(frag.num_spills);
    w.u32(frag.stitch.len() as u32);
    for &target in &frag.stitch {
        w.u32(target);
    }
}

/// Decodes one fragment. Structural validation only — callers must run
/// `tm-verifier` on the result before installing it.
pub fn decode_fragment(r: &mut ByteReader) -> Result<Fragment, BinError> {
    let n_code = r.seq_len(1)?;
    let mut code = Vec::with_capacity(n_code);
    for _ in 0..n_code {
        code.push(decode_inst(r)?);
    }
    let num_spills = r.u16()?;
    let n_exits = r.seq_len(4)?;
    let mut stitch = Vec::with_capacity(n_exits);
    for _ in 0..n_exits {
        stitch.push(r.u32()?);
    }
    Ok(Fragment { code, num_spills, stitch })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machinst::Operand;

    /// The all-zero instance of opcode `op` (discriminant 0 is valid for
    /// every operand enum; `args` is empty), or `None` past the table.
    fn zero_inst(op: u8) -> Option<MachInst> {
        let mut bytes = [0u8; 40];
        bytes[0] = op;
        decode_inst(&mut ByteReader::new(&bytes)).ok()
    }

    /// One instance of every variant, enumerated through the codec, plus
    /// the payload shapes zeros do not reach (wide words, last operation
    /// discriminants, helper arguments, the `CallNative` escape).
    fn sample_insts() -> Vec<MachInst> {
        use MachInst::*;
        let mut insts: Vec<MachInst> = (0..=u8::MAX).filter_map(zero_inst).collect();
        assert_eq!(insts.len(), OPCODE_FIELD_TYPES.len(), "every table opcode decodes");
        insts.extend([
            ConstW { d: 0, w: u64::MAX },
            GuardShape { obj: 3, shape: 0xdead_beef, exit: 2 },
            GuardBoxedEq { s: 4, w: 0x8000_0000_0000_0001, exit: 3 },
            LoadSlot { d: 0, o: 1, slot: 123_456 },
            CallHelper {
                d: 0,
                helper: Helper::StrToNum,
                args: vec![1, 2, 3].into(),
                exit: 1,
            },
            CallHelper {
                d: 1,
                helper: Helper::CallNative(NativeId(42)),
                args: [].into(),
                exit: 0,
            },
            AluI { op: AluOp::UShr, d: 1, a: 2, b: 3 },
            ChkAluI { op: ChkOp::UShr, d: 0, a: 0, b: 1, exit: 2 },
            CmpD { op: CmpOp::Ge, d: 0, a: 1, b: 2 },
        ]);
        insts
    }

    fn sample_fragment() -> Fragment {
        let mut f = Fragment::new(sample_insts(), 3, 10);
        f.stitch_exit(4, 2);
        f.stitch_exit(9, 0);
        f
    }

    /// [`MachInst::operands`] against the codec table's field types: every
    /// `Reg` field is reported as a `Def` or `Use`, and every `u16` field
    /// as an `Exit` or `Ar` (the two spill instructions' slot aside) — a
    /// field the role table forgets, or invents, changes a count.
    #[test]
    fn operand_roles_account_for_every_register_and_u16_field() {
        for &(op, types) in OPCODE_FIELD_TYPES {
            let inst = zero_inst(op).unwrap();
            let (mut regs, mut u16s) = (0, 0);
            inst.operands(|o| match o {
                Operand::Def(_) | Operand::Use(_) => regs += 1,
                Operand::Exit(_) | Operand::Ar(_) => u16s += 1,
            });
            if matches!(inst, MachInst::LoadSpill { .. } | MachInst::StoreSpill { .. }) {
                u16s += 1;
            }
            let count = |ty: &str| types.iter().filter(|t| **t == ty).count();
            assert_eq!(regs, count("Reg"), "{inst:?}: register roles");
            assert_eq!(u16s, count("u16"), "{inst:?}: exit/AR-slot roles");
        }
        // The one variable-length operand list.
        let call = MachInst::CallHelper { d: 9, helper: Helper::Pow, args: vec![4, 5].into(), exit: 3 };
        let mut seen = Vec::new();
        call.operands(|o| seen.push(o));
        assert_eq!(
            seen,
            [Operand::Use(4), Operand::Use(5), Operand::Def(9), Operand::Exit(3)]
        );
    }

    #[test]
    fn inst_round_trip() {
        for inst in sample_insts() {
            let mut w = ByteWriter::new();
            encode_inst(&inst, &mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(decode_inst(&mut r).unwrap(), inst);
            assert!(r.is_at_end());
        }
    }

    #[test]
    fn fragment_round_trip_is_bit_exact() {
        let frag = sample_fragment();
        let mut w = ByteWriter::new();
        encode_fragment(&frag, &mut w);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        let back = decode_fragment(&mut r).unwrap();
        assert!(r.is_at_end());
        assert_eq!(back.code, frag.code);
        assert_eq!(back.num_spills, frag.num_spills);
        assert_eq!(back.stitch, frag.stitch);

        // Re-encoding the decoded fragment reproduces the bytes exactly.
        let mut w2 = ByteWriter::new();
        encode_fragment(&back, &mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut r = ByteReader::new(&[0xf0]);
        assert!(matches!(
            decode_inst(&mut r),
            Err(BinError::BadTag { what: "MachInst opcode", .. })
        ));
    }

    #[test]
    fn bad_enum_discriminants_rejected() {
        // The op/tag byte follows the opcode: one past each enum's last
        // discriminant.
        for (opcode, past, what) in [
            (0x0e, 5, "CmpOp"), // CmpI
            (0x06, 9, "AluOp"), // AluI
            (0x09, 5, "ChkOp"), // ChkAluI
            (0x0c, 5, "FOp"),   // AluD
            (0x16, 5, "Tag"),   // Box
            (0x17, 5, "Tag"),   // Unbox
        ] {
            let bytes = [opcode, past];
            let mut r = ByteReader::new(&bytes);
            assert!(
                matches!(decode_inst(&mut r), Err(BinError::BadTag { what: w, .. }) if w == what),
                "opcode {opcode:#x}: {what}"
            );
        }
        // CallHelper, d, then a helper index one past the table (and not
        // the 0xff CallNative escape).
        let mut r = ByteReader::new(&[0x26, 0, 45]);
        assert!(matches!(decode_inst(&mut r), Err(BinError::BadTag { what: "Helper", .. })));
    }

    #[test]
    fn every_truncation_of_a_fragment_fails_cleanly() {
        let frag = sample_fragment();
        let mut w = ByteWriter::new();
        encode_fragment(&frag, &mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(
                decode_fragment(&mut r).is_err(),
                "truncation at {cut}/{} decoded successfully",
                bytes.len()
            );
        }
    }
}
