//! The one place an operation is named, from the recorder to the encoder.
//!
//! [`Lir`](crate::Lir) and the backend's `MachInst` carry these enums
//! instead of one variant per operation, so the recorder, the filters, the
//! printer, the verifiers, the assembler, the `.tmc` codec and both
//! execution tiers share one vocabulary. Each op's `eval` is its **reference
//! semantics**: constant folding, the decoded executor and the recorder's
//! observed-result computation all call it, and the x86-64 encoder is
//! differentially tested against it.

use tm_runtime::Value;

use crate::ir::LirType;

/// A plain (unchecked) binary integer ALU operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping i32 add.
    Add,
    /// Wrapping i32 subtract.
    Sub,
    /// Wrapping i32 multiply.
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left by `b & 31`.
    Shl,
    /// Arithmetic shift right by `b & 31`.
    Shr,
    /// Logical (u32) shift right by `b & 31`.
    UShr,
}

impl AluOp {
    /// Every op, in codec-discriminant order.
    pub const ALL: &'static [AluOp] = &[
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::UShr,
    ];

    /// `x op y` on wrapping 32-bit integers.
    #[inline]
    pub fn eval(self, x: i32, y: i32) -> i32 {
        match self {
            AluOp::Add => x.wrapping_add(y),
            AluOp::Sub => x.wrapping_sub(y),
            AluOp::Mul => x.wrapping_mul(y),
            AluOp::And => x & y,
            AluOp::Or => x | y,
            AluOp::Xor => x ^ y,
            AluOp::Shl => x.wrapping_shl((y & 31) as u32),
            AluOp::Shr => x.wrapping_shr((y & 31) as u32),
            AluOp::UShr => (x as u32).wrapping_shr((y & 31) as u32) as i32,
        }
    }

    /// The LIR-printer mnemonic ("addi", "shri", ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "addi",
            AluOp::Sub => "subi",
            AluOp::Mul => "muli",
            AluOp::And => "andi",
            AluOp::Or => "ori",
            AluOp::Xor => "xori",
            AluOp::Shl => "shli",
            AluOp::Shr => "shri",
            AluOp::UShr => "ushri",
        }
    }

    /// Whether `a op b == b op a` (drives operand-swap in constant
    /// folding).
    pub fn commutative(self) -> bool {
        matches!(self, AluOp::Add | AluOp::Mul | AluOp::And | AluOp::Or | AluOp::Xor)
    }
}

/// A comparison producing 0/1 (int or double flavour is carried by the
/// instruction using it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `==` (NaN-false for doubles).
    Eq,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
}

impl CmpOp {
    /// Every op, in codec-discriminant order.
    pub const ALL: &'static [CmpOp] = &[CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

    /// `x op y` on integers (`T = i32`) or doubles (`T = f64`, where every
    /// comparison with a NaN is false).
    #[inline]
    pub fn eval<T: PartialOrd>(self, x: T, y: T) -> bool {
        match self {
            CmpOp::Eq => x == y,
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
        }
    }

    /// Integer mnemonic ("lti", ...).
    pub fn mnemonic_i(self) -> &'static str {
        match self {
            CmpOp::Eq => "eqi",
            CmpOp::Lt => "lti",
            CmpOp::Le => "lei",
            CmpOp::Gt => "gti",
            CmpOp::Ge => "gei",
        }
    }

    /// Double mnemonic ("ltd", ...).
    pub fn mnemonic_d(self) -> &'static str {
        match self {
            CmpOp::Eq => "eqd",
            CmpOp::Lt => "ltd",
            CmpOp::Le => "led",
            CmpOp::Gt => "gtd",
            CmpOp::Ge => "ged",
        }
    }

    /// The comparison with swapped operands: `a op b == b op.swapped() a`
    /// (drives folding a constant *left* operand into an immediate form).
    pub fn swapped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// Overflow-checked integer arithmetic: exits to the attached side exit
/// when the exact result leaves the boxable 31-bit range (§3.1's overflow
/// guards).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChkOp {
    /// Checked add.
    Add,
    /// Checked subtract.
    Sub,
    /// Checked multiply (also exits on a `-0` result).
    Mul,
    /// Checked shift left by `b & 31`.
    Shl,
    /// Checked logical (u32) shift right by `b & 31` (exits when the
    /// unsigned result exceeds the boxable maximum).
    UShr,
}

impl ChkOp {
    /// Every op, in codec-discriminant order.
    pub const ALL: &'static [ChkOp] =
        &[ChkOp::Add, ChkOp::Sub, ChkOp::Mul, ChkOp::Shl, ChkOp::UShr];

    /// The exact result of `x op y`, or `None` when the guard fails (the
    /// result is outside the boxable 31-bit range, or a multiply yields
    /// `-0`, which needs the double path).
    #[inline]
    pub fn eval(self, x: i32, y: i32) -> Option<i64> {
        let res = match self {
            ChkOp::Add => i64::from(x) + i64::from(y),
            ChkOp::Sub => i64::from(x) - i64::from(y),
            ChkOp::Mul => {
                let res = i64::from(x) * i64::from(y);
                if res == 0 && (x < 0 || y < 0) {
                    return None;
                }
                res
            }
            // The shifts operate on the 32-bit value, then range-check the
            // result (a u32 result is never below INT_MIN, so for UShr the
            // range check is exactly the upper bound).
            ChkOp::Shl => i64::from(x.wrapping_shl((y & 31) as u32)),
            ChkOp::UShr => i64::from((x as u32).wrapping_shr((y & 31) as u32)),
        };
        Value::fits_int(res).then_some(res)
    }

    /// Mnemonic ("addi.chk", ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            ChkOp::Add => "addi.chk",
            ChkOp::Sub => "subi.chk",
            ChkOp::Mul => "muli.chk",
            ChkOp::Shl => "shli.chk",
            ChkOp::UShr => "ushri.chk",
        }
    }

    /// Whether the operands can be swapped.
    pub fn commutative(self) -> bool {
        matches!(self, ChkOp::Add | ChkOp::Mul)
    }
}

/// A binary operation on doubles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FOp {
    /// Add.
    Add,
    /// Subtract.
    Sub,
    /// Multiply.
    Mul,
    /// Divide.
    Div,
    /// Remainder (fmod).
    Mod,
}

impl FOp {
    /// Every op, in codec-discriminant order.
    pub const ALL: &'static [FOp] = &[FOp::Add, FOp::Sub, FOp::Mul, FOp::Div, FOp::Mod];

    /// `x op y` in IEEE-754 double arithmetic.
    #[inline]
    pub fn eval(self, x: f64, y: f64) -> f64 {
        match self {
            FOp::Add => x + y,
            FOp::Sub => x - y,
            FOp::Mul => x * y,
            FOp::Div => x / y,
            FOp::Mod => x % y,
        }
    }

    /// Mnemonic ("addd", ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            FOp::Add => "addd",
            FOp::Sub => "subd",
            FOp::Mul => "muld",
            FOp::Div => "divd",
            FOp::Mod => "modd",
        }
    }
}

/// The unboxed representation a `Box` starts from and an `Unbox` guards
/// for: the [`LirType`]s whose values travel untagged on trace. `Null`,
/// `Undefined` and `Boxed` values are already tagged words, so boxing them
/// is unrepresentable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tag {
    /// 32-bit integer.
    Int,
    /// IEEE-754 double.
    Double,
    /// 0/1 boolean.
    Bool,
    /// Object handle.
    Object,
    /// String handle.
    String,
}

impl Tag {
    /// Every tag, in codec-discriminant order.
    pub const ALL: &'static [Tag] = &[Tag::Int, Tag::Double, Tag::Bool, Tag::Object, Tag::String];

    /// The tag of values of type `ty`, or `None` when they are already
    /// boxed words.
    pub fn of(ty: LirType) -> Option<Tag> {
        match ty {
            LirType::Int => Some(Tag::Int),
            LirType::Double => Some(Tag::Double),
            LirType::Bool => Some(Tag::Bool),
            LirType::Object => Some(Tag::Object),
            LirType::String => Some(Tag::String),
            LirType::Null | LirType::Undefined | LirType::Boxed => None,
        }
    }

    /// The type of the unboxed value.
    pub fn ty(self) -> LirType {
        match self {
            Tag::Int => LirType::Int,
            Tag::Double => LirType::Double,
            Tag::Bool => LirType::Bool,
            Tag::Object => LirType::Object,
            Tag::String => LirType::String,
        }
    }

    /// Mnemonic of `Box(tag)` ("boxi", ...).
    pub fn box_mnemonic(self) -> &'static str {
        match self {
            Tag::Int => "boxi",
            Tag::Double => "boxd",
            Tag::Bool => "boxb",
            Tag::Object => "boxobj",
            Tag::String => "boxstr",
        }
    }

    /// Mnemonic of `Unbox(tag)` ("unboxi", ...).
    pub fn unbox_mnemonic(self) -> &'static str {
        match self {
            Tag::Int => "unboxi",
            Tag::Double => "unboxd",
            Tag::Bool => "unboxbool",
            Tag::Object => "unboxobj",
            Tag::String => "unboxstr",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_runtime::value::{INT_MAX, INT_MIN};

    #[test]
    fn mnemonics_cover_all_ops() {
        assert_eq!(AluOp::UShr.mnemonic(), "ushri");
        assert_eq!(CmpOp::Ge.mnemonic_i(), "gei");
        assert_eq!(CmpOp::Ge.mnemonic_d(), "ged");
        assert_eq!(ChkOp::Mul.mnemonic(), "muli.chk");
        assert_eq!(FOp::Mod.mnemonic(), "modd");
        assert_eq!(Tag::Bool.unbox_mnemonic(), "unboxbool");
    }

    #[test]
    fn commutativity() {
        assert!(AluOp::Add.commutative());
        assert!(!AluOp::Sub.commutative());
        assert!(!AluOp::Shl.commutative());
        assert!(ChkOp::Add.commutative());
        assert!(!ChkOp::Sub.commutative());
        assert!(!ChkOp::Shl.commutative());
        assert!(!ChkOp::UShr.commutative());
    }

    #[test]
    fn swapped_is_an_involution_preserving_meaning() {
        for &op in CmpOp::ALL {
            assert_eq!(op.swapped().swapped(), op);
            for (x, y) in [(1, 2), (2, 1), (3, 3)] {
                assert_eq!(op.eval(x, y), op.swapped().eval(y, x));
            }
        }
        assert_eq!(CmpOp::Lt.swapped(), CmpOp::Gt);
        assert_eq!(CmpOp::Le.swapped(), CmpOp::Ge);
        assert_eq!(CmpOp::Eq.swapped(), CmpOp::Eq);
    }

    #[test]
    fn commutative_means_eval_commutes() {
        let edges = [0, 1, -1, 31, 32, i32::MIN, i32::MAX, INT_MIN as i32, INT_MAX as i32];
        for x in edges {
            for y in edges {
                for &op in AluOp::ALL {
                    if op.commutative() {
                        assert_eq!(op.eval(x, y), op.eval(y, x), "{op:?}");
                    }
                }
                for &op in ChkOp::ALL {
                    if op.commutative() {
                        assert_eq!(op.eval(x, y), op.eval(y, x), "{op:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn checked_ops_guard_the_boxable_range() {
        let (min, max) = (INT_MIN as i32, INT_MAX as i32);
        assert_eq!(ChkOp::Add.eval(max - 1, 1), Some(INT_MAX));
        assert_eq!(ChkOp::Add.eval(max, 1), None);
        assert_eq!(ChkOp::Sub.eval(min, 1), None);
        assert_eq!(ChkOp::Mul.eval(0, -5), None, "-0 needs the double path");
        assert_eq!(ChkOp::Mul.eval(0, 5), Some(0));
        assert_eq!(ChkOp::Shl.eval(1, 30), None);
        assert_eq!(ChkOp::Shl.eval(1, 32), Some(1), "shift counts are masked");
        assert_eq!(ChkOp::UShr.eval(-1, 0), None, "u32::MAX is not boxable");
        assert_eq!(ChkOp::UShr.eval(-1, 2), Some(INT_MAX));
        assert_eq!(AluOp::UShr.eval(-1, 28), 15);
        assert_eq!(AluOp::Shr.eval(-16, 2), -4);
    }

    #[test]
    fn double_compares_are_false_on_nan() {
        for &op in CmpOp::ALL {
            assert!(!op.eval(f64::NAN, 1.0) && !op.eval(1.0, f64::NAN), "{op:?}");
        }
        assert!(CmpOp::Eq.eval(0.0, -0.0));
        assert_eq!(FOp::Mod.eval(5.5, 2.0), 1.5);
    }
}
