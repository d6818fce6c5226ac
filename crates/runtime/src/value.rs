//! Tagged value words, following the SpiderMonkey `jsval` scheme the paper
//! reproduces in Figure 9.
//!
//! A [`Value`] is a single 64-bit machine word whose low three bits are a
//! type tag:
//!
//! | tag bits | type      | payload |
//! |----------|-----------|---------|
//! | `xx1`    | number    | 31-bit integer, stored in bits 1..32 |
//! | `000`    | object    | handle (index) of a heap `Object` |
//! | `010`    | number    | handle of a heap-boxed `f64` |
//! | `100`    | string    | handle of a heap string |
//! | `110`    | special   | enumeration for `false`, `true`, `null`, `undefined` |
//!
//! Exactly as in the paper, *number* is semantically a 64-bit IEEE-754
//! double; the 31-bit integer representation is an invisible optimization
//! ("representation specialization: numbers", §3.1). Boxing and unboxing
//! these words is a significant interpreter cost that compiled traces avoid
//! by keeping values unboxed in the trace activation record.

/// Number of low bits used for the type tag.
pub const TAG_BITS: u32 = 3;

/// Raw tag values for the three-bit tags (the integer tag only needs bit 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Tag {
    /// `000` — pointer (handle) to a heap object.
    Object = 0b000,
    /// `010` — pointer (handle) to a heap-boxed double.
    Double = 0b010,
    /// `100` — pointer (handle) to a heap string.
    String = 0b100,
    /// `110` — special constant: `false`, `true`, `null`, `undefined`.
    Special = 0b110,
    /// `xx1` — 31-bit integer (only bit 0 is significant).
    Int = 0b001,
}

/// Payload enumeration for the `Special` tag.
pub const SPECIAL_FALSE: u64 = 0;
/// Payload for `true`.
pub const SPECIAL_TRUE: u64 = 1;
/// Payload for `null`.
pub const SPECIAL_NULL: u64 = 2;
/// Payload for `undefined`.
pub const SPECIAL_UNDEFINED: u64 = 3;

/// Smallest integer representable in the 31-bit inline integer encoding.
pub const INT_MIN: i64 = -(1 << 30);
/// Largest integer representable in the 31-bit inline integer encoding.
pub const INT_MAX: i64 = (1 << 30) - 1;

/// Handle to a heap object (an index into the object arena).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u32);

/// Handle to a heap string (an index into the string arena).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StringId(pub u32);

/// Handle to a heap-boxed double (an index into the double arena).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DoubleId(pub u32);

/// A boxed dynamic-language value: one tagged 64-bit word.
///
/// `Value` is deliberately opaque; use the `new_*` constructors and the
/// [`Value::unpack`] view. The inline-integer fast paths (`as_int`,
/// `is_int`) mirror the checks an interpreter performs on every operation —
/// the costs that trace compilation eliminates.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct Value(u64);

/// A decoded view of a [`Value`], produced by [`Value::unpack`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Unpacked {
    /// An inline 31-bit integer (a `number` to the language).
    Int(i32),
    /// A heap-boxed double (a `number` to the language).
    Double(DoubleId),
    /// A heap object (plain object, array, or function).
    Object(ObjectId),
    /// A heap string.
    String(StringId),
    /// The boolean `true` or `false`.
    Bool(bool),
    /// The `null` constant.
    Null,
    /// The `undefined` constant.
    Undefined,
}

impl Value {
    /// The `undefined` constant.
    pub const UNDEFINED: Value =
        Value((SPECIAL_UNDEFINED << TAG_BITS) | Tag::Special as u64);
    /// The `null` constant.
    pub const NULL: Value = Value((SPECIAL_NULL << TAG_BITS) | Tag::Special as u64);
    /// The boolean `true`.
    pub const TRUE: Value = Value((SPECIAL_TRUE << TAG_BITS) | Tag::Special as u64);
    /// The boolean `false`.
    pub const FALSE: Value = Value((SPECIAL_FALSE << TAG_BITS) | Tag::Special as u64);
    /// Integer zero, useful as a default.
    pub const ZERO: Value = Value(1); // (0 << 1) | 1

    /// Creates an inline integer value.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `i` is outside the 31-bit inline range;
    /// use [`Value::fits_int`] or [`Value::new_int_checked`] first.
    #[inline]
    pub fn new_int(i: i32) -> Value {
        debug_assert!(Value::fits_int(i64::from(i)), "int out of 31-bit range: {i}");
        Value((((i as u32) as u64) << 1) | 1)
    }

    /// Creates an inline integer if `i` fits the 31-bit range.
    #[inline]
    pub fn new_int_checked(i: i64) -> Option<Value> {
        if Value::fits_int(i) {
            Some(Value::new_int(i as i32))
        } else {
            None
        }
    }

    /// Returns `true` if `i` fits the inline 31-bit integer representation.
    #[inline]
    pub fn fits_int(i: i64) -> bool {
        (INT_MIN..=INT_MAX).contains(&i)
    }

    /// Creates a boolean value.
    #[inline]
    pub fn new_bool(b: bool) -> Value {
        if b {
            Value::TRUE
        } else {
            Value::FALSE
        }
    }

    /// Creates an object handle value.
    #[inline]
    pub fn new_object(id: ObjectId) -> Value {
        Value((u64::from(id.0) << TAG_BITS) | Tag::Object as u64)
    }

    /// Creates a string handle value.
    #[inline]
    pub fn new_string(id: StringId) -> Value {
        Value((u64::from(id.0) << TAG_BITS) | Tag::String as u64)
    }

    /// Creates a boxed-double handle value.
    #[inline]
    pub fn new_double(id: DoubleId) -> Value {
        Value((u64::from(id.0) << TAG_BITS) | Tag::Double as u64)
    }

    /// Returns the raw tagged word. Traces store boxed values as raw words.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs a value from a raw tagged word previously produced by
    /// [`Value::raw`].
    #[inline]
    pub fn from_raw(raw: u64) -> Value {
        Value(raw)
    }

    /// Returns the tag of this value.
    #[inline]
    pub fn tag(self) -> Tag {
        if self.0 & 1 == 1 {
            Tag::Int
        } else {
            match self.0 & 0b110 {
                0b000 => Tag::Object,
                0b010 => Tag::Double,
                0b100 => Tag::String,
                _ => Tag::Special,
            }
        }
    }

    /// Is this an inline integer?
    #[inline]
    pub fn is_int(self) -> bool {
        self.0 & 1 == 1
    }

    /// Is this a number (inline integer or boxed double)?
    #[inline]
    pub fn is_number(self) -> bool {
        matches!(self.tag(), Tag::Int | Tag::Double)
    }

    /// Is this an object handle?
    #[inline]
    pub fn is_object(self) -> bool {
        self.tag() == Tag::Object
    }

    /// Is this a string handle?
    #[inline]
    pub fn is_string(self) -> bool {
        self.tag() == Tag::String
    }

    /// Is this `true` or `false`?
    #[inline]
    pub fn is_bool(self) -> bool {
        self == Value::TRUE || self == Value::FALSE
    }

    /// Is this `null`?
    #[inline]
    pub fn is_null(self) -> bool {
        self == Value::NULL
    }

    /// Is this `undefined`?
    #[inline]
    pub fn is_undefined(self) -> bool {
        self == Value::UNDEFINED
    }

    /// Extracts the inline integer payload.
    ///
    /// Returns `None` when the value is not an inline integer.
    #[inline]
    pub fn as_int(self) -> Option<i32> {
        if self.is_int() {
            // Arithmetic shift recovers the sign.
            Some(((self.0 as u32) as i32) >> 1)
        } else {
            None
        }
    }

    /// Extracts the object handle, if this is an object.
    #[inline]
    pub fn as_object(self) -> Option<ObjectId> {
        if self.tag() == Tag::Object {
            Some(ObjectId((self.0 >> TAG_BITS) as u32))
        } else {
            None
        }
    }

    /// Extracts the string handle, if this is a string.
    #[inline]
    pub fn as_string(self) -> Option<StringId> {
        if self.tag() == Tag::String {
            Some(StringId((self.0 >> TAG_BITS) as u32))
        } else {
            None
        }
    }

    /// Extracts the boxed-double handle, if this is a boxed double.
    #[inline]
    pub fn as_double_id(self) -> Option<DoubleId> {
        if self.tag() == Tag::Double {
            Some(DoubleId((self.0 >> TAG_BITS) as u32))
        } else {
            None
        }
    }

    /// Extracts the boolean payload, if this is a boolean.
    #[inline]
    pub fn as_bool(self) -> Option<bool> {
        if self == Value::TRUE {
            Some(true)
        } else if self == Value::FALSE {
            Some(false)
        } else {
            None
        }
    }

    /// Decodes the value into its [`Unpacked`] view.
    #[inline]
    pub fn unpack(self) -> Unpacked {
        if self.is_int() {
            return Unpacked::Int(((self.0 as u32) as i32) >> 1);
        }
        let payload = self.0 >> TAG_BITS;
        match self.0 & 0b110 {
            0b000 => Unpacked::Object(ObjectId(payload as u32)),
            0b010 => Unpacked::Double(DoubleId(payload as u32)),
            0b100 => Unpacked::String(StringId(payload as u32)),
            _ => match payload {
                SPECIAL_FALSE => Unpacked::Bool(false),
                SPECIAL_TRUE => Unpacked::Bool(true),
                SPECIAL_NULL => Unpacked::Null,
                _ => Unpacked::Undefined,
            },
        }
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::UNDEFINED
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::new_bool(b)
    }
}

impl std::fmt::Debug for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.unpack() {
            Unpacked::Int(i) => write!(f, "Int({i})"),
            Unpacked::Double(id) => write!(f, "Double(#{})", id.0),
            Unpacked::Object(id) => write!(f, "Object(#{})", id.0),
            Unpacked::String(id) => write!(f, "String(#{})", id.0),
            Unpacked::Bool(b) => write!(f, "Bool({b})"),
            Unpacked::Null => write!(f, "Null"),
            Unpacked::Undefined => write!(f, "Undefined"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_round_trip() {
        for i in [0, 1, -1, 42, -42, INT_MAX as i32, INT_MIN as i32] {
            let v = Value::new_int(i);
            assert!(v.is_int());
            assert!(v.is_number());
            assert_eq!(v.as_int(), Some(i));
            assert_eq!(v.unpack(), Unpacked::Int(i));
        }
    }

    #[test]
    fn int_tag_is_low_bit() {
        // Figure 9: `xx1` means any word with bit 0 set is an integer.
        assert_eq!(Value::new_int(7).raw() & 1, 1);
        assert_eq!(Value::new_int(-7).raw() & 1, 1);
    }

    #[test]
    fn fits_int_bounds() {
        assert!(Value::fits_int(INT_MAX));
        assert!(Value::fits_int(INT_MIN));
        assert!(!Value::fits_int(INT_MAX + 1));
        assert!(!Value::fits_int(INT_MIN - 1));
        assert!(Value::new_int_checked(INT_MAX + 1).is_none());
        assert!(Value::new_int_checked(0).is_some());
    }

    #[test]
    fn specials_are_distinct() {
        let all = [Value::TRUE, Value::FALSE, Value::NULL, Value::UNDEFINED];
        for (i, a) in all.iter().enumerate() {
            assert_eq!(a.tag(), Tag::Special);
            for (j, b) in all.iter().enumerate() {
                assert_eq!(i == j, a == b);
            }
        }
    }

    #[test]
    fn handle_round_trips() {
        let o = Value::new_object(ObjectId(12345));
        assert_eq!(o.tag(), Tag::Object);
        assert_eq!(o.as_object(), Some(ObjectId(12345)));
        assert_eq!(o.as_string(), None);

        let s = Value::new_string(StringId(7));
        assert_eq!(s.tag(), Tag::String);
        assert_eq!(s.as_string(), Some(StringId(7)));

        let d = Value::new_double(DoubleId(9));
        assert_eq!(d.tag(), Tag::Double);
        assert!(d.is_number());
        assert_eq!(d.as_double_id(), Some(DoubleId(9)));
    }

    #[test]
    fn raw_round_trip() {
        for v in [
            Value::new_int(-5),
            Value::new_object(ObjectId(1)),
            Value::UNDEFINED,
            Value::new_string(StringId(3)),
        ] {
            assert_eq!(Value::from_raw(v.raw()), v);
        }
    }

    #[test]
    fn tag_bit_patterns_match_figure_9() {
        assert_eq!(Value::new_object(ObjectId(1)).raw() & 0b111, 0b000);
        assert_eq!(Value::new_double(DoubleId(1)).raw() & 0b111, 0b010);
        assert_eq!(Value::new_string(StringId(1)).raw() & 0b111, 0b100);
        assert_eq!(Value::TRUE.raw() & 0b111, 0b110);
    }

    #[test]
    fn bool_helpers() {
        assert_eq!(Value::new_bool(true).as_bool(), Some(true));
        assert_eq!(Value::new_bool(false).as_bool(), Some(false));
        assert_eq!(Value::NULL.as_bool(), None);
        assert!(Value::TRUE.is_bool());
        assert!(!Value::NULL.is_bool());
        assert!(Value::NULL.is_null());
        assert!(Value::UNDEFINED.is_undefined());
    }

    #[test]
    fn default_is_undefined() {
        assert_eq!(Value::default(), Value::UNDEFINED);
    }
}
