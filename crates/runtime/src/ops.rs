//! Operator semantics shared by every engine.
//!
//! The interpreter's generic slow paths, the method JIT's helper calls, and
//! the trace recorder's semantic model all route through these functions, so
//! the four engines in this repository are observably identical — the
//! property the paper's §6.3 calls "semantic equivalence" between the
//! recorder and the interpreter, which we get by construction.
//!
//! Semantics follow JavaScript with two documented deviations (no
//! `ToPrimitive` on objects in `==`/relational operators, and latin-1
//! strings); see DESIGN.md.

use crate::error::RuntimeError;
use crate::realm::Realm;
use crate::value::{Unpacked, Value};

/// JS `ToNumber`.
pub fn to_number(realm: &Realm, v: Value) -> f64 {
    match v.unpack() {
        Unpacked::Int(i) => f64::from(i),
        Unpacked::Double(id) => realm.heap.double(id),
        Unpacked::Bool(b) => {
            if b {
                1.0
            } else {
                0.0
            }
        }
        Unpacked::Null => 0.0,
        Unpacked::Undefined => f64::NAN,
        Unpacked::String(id) => parse_number(realm.heap.string(id)),
        Unpacked::Object(_) => f64::NAN,
    }
}

/// Parses a string body as a number the way JS `ToNumber` does (trimmed;
/// empty string is 0; decimal or hex literal; otherwise NaN).
pub fn parse_number(bytes: &[u8]) -> f64 {
    let text: String = bytes.iter().map(|&b| b as char).collect();
    let t = text.trim();
    if t.is_empty() {
        return 0.0;
    }
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        return match i64::from_str_radix(hex, 16) {
            Ok(v) => v as f64,
            Err(_) => f64::NAN,
        };
    }
    if t == "Infinity" || t == "+Infinity" {
        return f64::INFINITY;
    }
    if t == "-Infinity" {
        return f64::NEG_INFINITY;
    }
    t.parse::<f64>().unwrap_or(f64::NAN)
}

/// JS `ToInt32` (modular wrap of the double).
pub fn to_int32(realm: &Realm, v: Value) -> i32 {
    if let Some(i) = v.as_int() {
        return i;
    }
    double_to_int32(to_number(realm, v))
}

/// JS `ToInt32` on a raw double.
pub fn double_to_int32(d: f64) -> i32 {
    if !d.is_finite() || d == 0.0 {
        return 0;
    }
    let d = d.trunc();
    let m = d.rem_euclid(4294967296.0);
    let m = if m >= 2147483648.0 { m - 4294967296.0 } else { m };
    m as i32
}

/// JS truthiness.
pub fn truthy(realm: &Realm, v: Value) -> bool {
    match v.unpack() {
        Unpacked::Int(i) => i != 0,
        Unpacked::Double(id) => {
            let d = realm.heap.double(id);
            d != 0.0 && !d.is_nan()
        }
        Unpacked::Bool(b) => b,
        Unpacked::Null | Unpacked::Undefined => false,
        Unpacked::String(id) => !realm.heap.string(id).is_empty(),
        Unpacked::Object(_) => true,
    }
}

/// `typeof` result string.
pub fn typeof_str(realm: &Realm, v: Value) -> &'static str {
    match v.unpack() {
        Unpacked::Int(_) | Unpacked::Double(_) => "number",
        Unpacked::Bool(_) => "boolean",
        Unpacked::Null => "object",
        Unpacked::Undefined => "undefined",
        Unpacked::String(_) => "string",
        Unpacked::Object(id) => {
            if realm.heap.object(id).class == crate::object::ObjectClass::Function {
                "function"
            } else {
                "object"
            }
        }
    }
}

/// Formats a number the way JS `ToString` does for the common cases:
/// integral values print without a fractional part, specials print as
/// `NaN`/`Infinity`.
pub fn format_number(d: f64) -> String {
    if d.is_nan() {
        return "NaN".to_owned();
    }
    if d.is_infinite() {
        return if d > 0.0 { "Infinity".into() } else { "-Infinity".into() };
    }
    if d == 0.0 {
        return "0".to_owned();
    }
    if d == d.trunc() && d.abs() < 1e21 {
        return format!("{}", d as i64);
    }
    let s = format!("{d}");
    s
}

/// JS-style display string for any value (the interpreter's `ToString`).
pub fn to_display(realm: &mut Realm, v: Value) -> String {
    match v.unpack() {
        Unpacked::Int(i) => i.to_string(),
        Unpacked::Double(id) => format_number(realm.heap.double(id)),
        Unpacked::Bool(b) => b.to_string(),
        Unpacked::Null => "null".to_owned(),
        Unpacked::Undefined => "undefined".to_owned(),
        Unpacked::String(id) => realm.heap.string_text(id),
        Unpacked::Object(id) => {
            let obj = realm.heap.object(id);
            match obj.class {
                crate::object::ObjectClass::Array => {
                    let elems: Vec<Value> = obj.elements.to_vec();
                    let parts: Vec<String> = elems
                        .into_iter()
                        .map(|e| {
                            if e.is_null() || e.is_undefined() {
                                String::new()
                            } else {
                                to_display(realm, e)
                            }
                        })
                        .collect();
                    parts.join(",")
                }
                crate::object::ObjectClass::Function => "function".to_owned(),
                crate::object::ObjectClass::Plain => "[object Object]".to_owned(),
            }
        }
    }
}

/// `ToString` producing a guest string value.
pub fn to_string_value(realm: &mut Realm, v: Value) -> Value {
    if v.is_string() {
        return v;
    }
    let s = to_display(realm, v);
    realm.heap.alloc_string(&s)
}

/// The `+` operator: numeric addition or string concatenation.
pub fn add_values(realm: &mut Realm, a: Value, b: Value) -> Result<Value, RuntimeError> {
    // Integer fast path, escalating to double on 31-bit overflow — the
    // interpreter-side mirror of the trace's overflow guard (§3.1).
    if let (Some(x), Some(y)) = (a.as_int(), b.as_int()) {
        return Ok(realm.heap.number_i64(i64::from(x) + i64::from(y)));
    }
    if a.is_string() || b.is_string() {
        let sa = to_display(realm, a);
        let sb = to_display(realm, b);
        let mut bytes = Vec::with_capacity(sa.len() + sb.len());
        bytes.extend(sa.chars().map(|c| if (c as u32) <= 0xFF { c as u32 as u8 } else { b'?' }));
        bytes.extend(sb.chars().map(|c| if (c as u32) <= 0xFF { c as u32 as u8 } else { b'?' }));
        return Ok(realm.heap.alloc_string_bytes(bytes));
    }
    let x = to_number(realm, a);
    let y = to_number(realm, b);
    Ok(realm.heap.number(x + y))
}

/// The `-` operator.
pub fn sub_values(realm: &mut Realm, a: Value, b: Value) -> Result<Value, RuntimeError> {
    if let (Some(x), Some(y)) = (a.as_int(), b.as_int()) {
        return Ok(realm.heap.number_i64(i64::from(x) - i64::from(y)));
    }
    let x = to_number(realm, a);
    let y = to_number(realm, b);
    Ok(realm.heap.number(x - y))
}

/// The `*` operator.
pub fn mul_values(realm: &mut Realm, a: Value, b: Value) -> Result<Value, RuntimeError> {
    if let (Some(x), Some(y)) = (a.as_int(), b.as_int()) {
        let p = i64::from(x) * i64::from(y);
        // -0 results must take the double path: e.g. -1 * 0.
        if p != 0 || (x >= 0 && y >= 0) {
            return Ok(realm.heap.number_i64(p));
        }
    }
    let x = to_number(realm, a);
    let y = to_number(realm, b);
    Ok(realm.heap.number(x * y))
}

/// The `/` operator (always double semantics; `number()` re-compresses
/// integral results to the inline representation).
pub fn div_values(realm: &mut Realm, a: Value, b: Value) -> Result<Value, RuntimeError> {
    let x = to_number(realm, a);
    let y = to_number(realm, b);
    Ok(realm.heap.number(x / y))
}

/// The `%` operator (JS `fmod` semantics; sign of the dividend).
pub fn mod_values(realm: &mut Realm, a: Value, b: Value) -> Result<Value, RuntimeError> {
    if let (Some(x), Some(y)) = (a.as_int(), b.as_int()) {
        if y != 0 && !(x < 0 && x % y == 0) {
            // Rust % matches JS sign-of-dividend semantics for integers,
            // but a zero result with negative dividend is -0 in JS.
            return Ok(Value::new_int(x % y));
        }
    }
    let x = to_number(realm, a);
    let y = to_number(realm, b);
    Ok(realm.heap.number(x % y))
}

/// Unary `-`.
pub fn neg_value(realm: &mut Realm, a: Value) -> Result<Value, RuntimeError> {
    if let Some(x) = a.as_int() {
        if x != 0 {
            return Ok(realm.heap.number_i64(-i64::from(x)));
        }
        // -0 must become a boxed double.
        return Ok(realm.heap.alloc_double(-0.0));
    }
    let x = to_number(realm, a);
    Ok(realm.heap.number(-x))
}

/// Bitwise binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitOp {
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `>>>`
    UShr,
}

/// Applies a bitwise operator with JS `ToInt32`/`ToUint32` coercion.
pub fn bit_op(realm: &mut Realm, op: BitOp, a: Value, b: Value) -> Result<Value, RuntimeError> {
    let x = to_int32(realm, a);
    let y = to_int32(realm, b);
    let r: i64 = match op {
        BitOp::And => i64::from(x & y),
        BitOp::Or => i64::from(x | y),
        BitOp::Xor => i64::from(x ^ y),
        BitOp::Shl => i64::from(x.wrapping_shl((y & 31) as u32)),
        BitOp::Shr => i64::from(x.wrapping_shr((y & 31) as u32)),
        BitOp::UShr => i64::from((x as u32).wrapping_shr((y & 31) as u32)),
    };
    Ok(realm.heap.number_i64(r))
}

/// Bitwise `~`.
pub fn bitnot_value(realm: &mut Realm, a: Value) -> Result<Value, RuntimeError> {
    let x = to_int32(realm, a);
    Ok(realm.heap.number_i64(i64::from(!x)))
}

/// Relational operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Applies a relational operator: lexicographic for two strings, numeric
/// otherwise (NaN compares false).
pub fn rel_op(realm: &mut Realm, op: RelOp, a: Value, b: Value) -> Result<Value, RuntimeError> {
    if let (Some(sa), Some(sb)) = (a.as_string(), b.as_string()) {
        let (x, y) = (realm.heap.string(sa), realm.heap.string(sb));
        let r = match op {
            RelOp::Lt => x < y,
            RelOp::Le => x <= y,
            RelOp::Gt => x > y,
            RelOp::Ge => x >= y,
        };
        return Ok(Value::new_bool(r));
    }
    let x = to_number(realm, a);
    let y = to_number(realm, b);
    let r = match op {
        RelOp::Lt => x < y,
        RelOp::Le => x <= y,
        RelOp::Gt => x > y,
        RelOp::Ge => x >= y,
    };
    Ok(Value::new_bool(r))
}

/// Strict equality (`===`): numbers compare numerically across the int /
/// double representations, strings by content, objects by identity.
pub fn strict_eq(realm: &Realm, a: Value, b: Value) -> bool {
    if a == b {
        // Same word: equal unless NaN (a boxed NaN double equals itself by
        // word identity, which JS says is false).
        if let Some(id) = a.as_double_id() {
            return !realm.heap.double(id).is_nan();
        }
        return true;
    }
    match (a.unpack(), b.unpack()) {
        (Unpacked::Int(_), Unpacked::Int(_)) => false, // different words
        (Unpacked::Int(x), Unpacked::Double(yd)) => f64::from(x) == realm.heap.double(yd),
        (Unpacked::Double(xd), Unpacked::Int(y)) => realm.heap.double(xd) == f64::from(y),
        (Unpacked::Double(xd), Unpacked::Double(yd)) => {
            realm.heap.double(xd) == realm.heap.double(yd)
        }
        (Unpacked::String(xs), Unpacked::String(ys)) => {
            realm.heap.string(xs) == realm.heap.string(ys)
        }
        _ => false,
    }
}

/// Loose equality (`==`): like strict equality plus `null == undefined`,
/// number/string and boolean coercions. Objects compare by identity only
/// (no `ToPrimitive`; documented deviation).
pub fn loose_eq(realm: &Realm, a: Value, b: Value) -> bool {
    if strict_eq(realm, a, b) {
        return true;
    }
    match (a.unpack(), b.unpack()) {
        (Unpacked::Null, Unpacked::Undefined) | (Unpacked::Undefined, Unpacked::Null) => true,
        (Unpacked::Bool(x), _) => {
            loose_eq(realm, if x { Value::new_int(1) } else { Value::new_int(0) }, b)
        }
        (_, Unpacked::Bool(y)) => {
            loose_eq(realm, a, if y { Value::new_int(1) } else { Value::new_int(0) })
        }
        (Unpacked::String(_), Unpacked::Int(_) | Unpacked::Double(_))
        | (Unpacked::Int(_) | Unpacked::Double(_), Unpacked::String(_)) => {
            to_number(realm, a) == to_number(realm, b)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn realm() -> Realm {
        Realm::new()
    }

    #[test]
    fn add_ints_fast_path_and_overflow() {
        let mut r = realm();
        let v = add_values(&mut r, Value::new_int(2), Value::new_int(3)).unwrap();
        assert_eq!(v.as_int(), Some(5));
        // i31 overflow escalates to a boxed double.
        let big = Value::new_int(crate::value::INT_MAX as i32);
        let v = add_values(&mut r, big, Value::new_int(1)).unwrap();
        assert!(v.as_double_id().is_some());
        assert_eq!(r.heap.number_value(v), Some(1073741824.0));
    }

    #[test]
    fn add_concats_strings() {
        let mut r = realm();
        let s = r.heap.alloc_string("x=");
        let v = add_values(&mut r, s, Value::new_int(3)).unwrap();
        let sid = v.as_string().unwrap();
        assert_eq!(r.heap.string(sid), b"x=3");
    }

    #[test]
    fn div_produces_double_then_recompresses() {
        let mut r = realm();
        let v = div_values(&mut r, Value::new_int(6), Value::new_int(2)).unwrap();
        assert_eq!(v.as_int(), Some(3));
        let v = div_values(&mut r, Value::new_int(1), Value::new_int(2)).unwrap();
        assert_eq!(r.heap.number_value(v), Some(0.5));
        let v = div_values(&mut r, Value::new_int(1), Value::new_int(0)).unwrap();
        assert_eq!(r.heap.number_value(v), Some(f64::INFINITY));
    }

    #[test]
    fn mod_matches_js() {
        let mut r = realm();
        let v = mod_values(&mut r, Value::new_int(7), Value::new_int(3)).unwrap();
        assert_eq!(v.as_int(), Some(1));
        let v = mod_values(&mut r, Value::new_int(-7), Value::new_int(3)).unwrap();
        assert_eq!(v.as_int(), Some(-1));
        let v = mod_values(&mut r, Value::new_int(1), Value::new_int(0)).unwrap();
        assert!(r.heap.number_value(v).unwrap().is_nan());
    }

    #[test]
    fn mul_negative_zero() {
        let mut r = realm();
        let v = mul_values(&mut r, Value::new_int(-1), Value::new_int(0)).unwrap();
        let d = r.heap.number_value(v).unwrap();
        assert_eq!(d, 0.0);
        assert!(d.is_sign_negative(), "-1 * 0 must be -0");
    }

    #[test]
    fn bitops_coerce_to_int32() {
        let mut r = realm();
        let d = r.heap.alloc_double(4294967297.5); // ToInt32 -> 1
        let v = bit_op(&mut r, BitOp::And, d, Value::new_int(3)).unwrap();
        assert_eq!(v.as_int(), Some(1));
        let v = bit_op(&mut r, BitOp::Shl, Value::new_int(1), Value::new_int(30)).unwrap();
        // 2^30 exceeds i31: becomes a double numerically equal to 2^30.
        assert_eq!(r.heap.number_value(v), Some(1073741824.0));
        let v = bit_op(&mut r, BitOp::UShr, Value::new_int(-1), Value::new_int(0)).unwrap();
        assert_eq!(r.heap.number_value(v), Some(4294967295.0));
        let v = bitnot_value(&mut r, Value::new_int(0)).unwrap();
        assert_eq!(v.as_int(), Some(-1));
    }

    #[test]
    fn to_int32_wraps() {
        assert_eq!(double_to_int32(4294967296.0), 0);
        assert_eq!(double_to_int32(4294967297.0), 1);
        assert_eq!(double_to_int32(-1.0), -1);
        assert_eq!(double_to_int32(2147483648.0), -2147483648);
        assert_eq!(double_to_int32(f64::NAN), 0);
        assert_eq!(double_to_int32(f64::INFINITY), 0);
        assert_eq!(double_to_int32(3.7), 3);
        assert_eq!(double_to_int32(-3.7), -3);
    }

    #[test]
    fn relational_and_equality() {
        let mut r = realm();
        let lt = rel_op(&mut r, RelOp::Lt, Value::new_int(1), Value::new_int(2)).unwrap();
        assert_eq!(lt, Value::TRUE);
        let sa = r.heap.alloc_string("abc");
        let sb = r.heap.alloc_string("abd");
        let lt = rel_op(&mut r, RelOp::Lt, sa, sb).unwrap();
        assert_eq!(lt, Value::TRUE);

        // 1 === 1.0 across representations.
        let one_d = r.heap.alloc_double(1.0);
        assert!(strict_eq(&r, Value::new_int(1), one_d));
        // NaN !== NaN even for the same boxed double.
        let nan = r.heap.alloc_double(f64::NAN);
        assert!(!strict_eq(&r, nan, nan));
        // String content equality.
        let s1 = r.heap.alloc_string("xyz");
        let s2 = r.heap.alloc_string("xyz");
        assert!(strict_eq(&r, s1, s2));
        // Loose equality coercions.
        let five_s = r.heap.alloc_string("5");
        assert!(loose_eq(&r, five_s, Value::new_int(5)));
        assert!(loose_eq(&r, Value::NULL, Value::UNDEFINED));
        assert!(!strict_eq(&r, Value::NULL, Value::UNDEFINED));
        assert!(loose_eq(&r, Value::TRUE, Value::new_int(1)));
    }

    #[test]
    fn truthiness_table() {
        let mut r = realm();
        assert!(!truthy(&r, Value::new_int(0)));
        assert!(truthy(&r, Value::new_int(-1)));
        assert!(!truthy(&r, Value::FALSE));
        assert!(!truthy(&r, Value::NULL));
        assert!(!truthy(&r, Value::UNDEFINED));
        let nan = r.heap.alloc_double(f64::NAN);
        assert!(!truthy(&r, nan));
        let empty = r.heap.alloc_string("");
        assert!(!truthy(&r, empty));
        let s = r.heap.alloc_string("0");
        assert!(truthy(&r, s), "non-empty string '0' is truthy");
        let o = Value::new_object(r.new_plain_object());
        assert!(truthy(&r, o));
    }

    #[test]
    fn typeof_table() {
        let mut r = realm();
        assert_eq!(typeof_str(&r, Value::new_int(1)), "number");
        assert_eq!(typeof_str(&r, Value::TRUE), "boolean");
        assert_eq!(typeof_str(&r, Value::NULL), "object");
        assert_eq!(typeof_str(&r, Value::UNDEFINED), "undefined");
        let s = r.heap.alloc_string("s");
        assert_eq!(typeof_str(&r, s), "string");
        let o = Value::new_object(r.new_plain_object());
        assert_eq!(typeof_str(&r, o), "object");
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(3.0), "3");
        assert_eq!(format_number(3.5), "3.5");
        assert_eq!(format_number(-0.0), "0");
        assert_eq!(format_number(f64::NAN), "NaN");
        assert_eq!(format_number(f64::INFINITY), "Infinity");
        assert_eq!(format_number(f64::NEG_INFINITY), "-Infinity");
        assert_eq!(format_number(1e6), "1000000");
    }

    #[test]
    fn parse_number_cases() {
        assert_eq!(parse_number(b"42"), 42.0);
        assert_eq!(parse_number(b"  3.5  "), 3.5);
        assert_eq!(parse_number(b""), 0.0);
        assert_eq!(parse_number(b"0x10"), 16.0);
        assert!(parse_number(b"zebra").is_nan());
        assert_eq!(parse_number(b"-Infinity"), f64::NEG_INFINITY);
    }

    #[test]
    fn to_display_objects() {
        let mut r = realm();
        let arr = r.new_array(3);
        r.heap.object_mut(arr).set_element(0, Value::new_int(1));
        r.heap.object_mut(arr).set_element(2, Value::new_int(3));
        assert_eq!(to_display(&mut r, Value::new_object(arr)), "1,,3");
        let o = Value::new_object(r.new_plain_object());
        assert_eq!(to_display(&mut r, o), "[object Object]");
    }
}
