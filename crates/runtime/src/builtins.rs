//! Standard-library builtins installed into every realm.
//!
//! All builtins go through the FFI described in the paper's §6.5: each is a
//! native function taking an array of boxed values (`args[0]` = receiver).
//! Hot numeric natives carry a [`FastNative`] annotation so the tracer can
//! call them directly on unboxed values.

use crate::error::RuntimeError;
use crate::ops;
use crate::realm::{NativeEffects, Realm};
use crate::trace_helpers::{FastNative, FastTy, Helper};
use crate::value::{Unpacked, Value};

const PURE: NativeEffects =
    NativeEffects { may_reenter: false, accesses_globals: false, allocates: false };
const ALLOC: NativeEffects =
    NativeEffects { may_reenter: false, accesses_globals: false, allocates: true };

macro_rules! math1 {
    ($name:ident, $method:ident) => {
        fn $name(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
            let x = ops::to_number(realm, arg(args, 1));
            Ok(realm.heap.number(x.$method()))
        }
    };
}

#[inline]
fn arg(args: &[Value], i: usize) -> Value {
    args.get(i).copied().unwrap_or(Value::UNDEFINED)
}

math1!(math_sin, sin);
math1!(math_cos, cos);
math1!(math_tan, tan);
math1!(math_asin, asin);
math1!(math_acos, acos);
math1!(math_atan, atan);
math1!(math_exp, exp);
math1!(math_log, ln);
math1!(math_sqrt, sqrt);
math1!(math_floor, floor);
math1!(math_ceil, ceil);
math1!(math_abs, abs);

fn math_round(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let x = ops::to_number(realm, arg(args, 1));
    Ok(realm.heap.number((x + 0.5).floor()))
}

fn math_atan2(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let y = ops::to_number(realm, arg(args, 1));
    let x = ops::to_number(realm, arg(args, 2));
    Ok(realm.heap.number(y.atan2(x)))
}

fn math_pow(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let b = ops::to_number(realm, arg(args, 1));
    let e = ops::to_number(realm, arg(args, 2));
    Ok(realm.heap.number(b.powf(e)))
}

fn math_min(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let mut best = f64::INFINITY;
    for &a in &args[1..] {
        let x = ops::to_number(realm, a);
        if x.is_nan() {
            return Ok(realm.heap.number(f64::NAN));
        }
        if x < best {
            best = x;
        }
    }
    Ok(realm.heap.number(best))
}

fn math_max(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let mut best = f64::NEG_INFINITY;
    for &a in &args[1..] {
        let x = ops::to_number(realm, a);
        if x.is_nan() {
            return Ok(realm.heap.number(f64::NAN));
        }
        if x > best {
            best = x;
        }
    }
    Ok(realm.heap.number(best))
}

fn math_random(realm: &mut Realm, _args: &[Value]) -> Result<Value, RuntimeError> {
    let r = realm.next_random();
    Ok(realm.heap.number(r))
}

fn global_print(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let parts: Vec<String> = args[1..].iter().map(|&a| ops::to_display(realm, a)).collect();
    realm.print_line(&parts.join(" "));
    Ok(Value::UNDEFINED)
}

fn global_parse_int(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let v = arg(args, 1);
    let radix = match arg(args, 2).unpack() {
        Unpacked::Undefined => 10,
        other => {
            let r = match other {
                Unpacked::Int(i) => i,
                _ => ops::to_number(realm, arg(args, 2)) as i32,
            };
            if !(2..=36).contains(&r) {
                return Ok(realm.heap.number(f64::NAN));
            }
            r as u32
        }
    };
    let text = ops::to_display(realm, v);
    let t = text.trim();
    let (neg, t) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t.strip_prefix('+').unwrap_or(t)),
    };
    let t = if radix == 16 {
        t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")).unwrap_or(t)
    } else {
        t
    };
    let mut value: f64 = 0.0;
    let mut any = false;
    for c in t.chars() {
        match c.to_digit(radix) {
            Some(d) => {
                value = value * f64::from(radix) + f64::from(d);
                any = true;
            }
            None => break,
        }
    }
    if !any {
        return Ok(realm.heap.number(f64::NAN));
    }
    Ok(realm.heap.number(if neg { -value } else { value }))
}

fn global_parse_float(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let text = ops::to_display(realm, arg(args, 1));
    let t = text.trim();
    // Parse the longest valid float prefix.
    let mut end = 0;
    let bytes = t.as_bytes();
    let mut seen_digit = false;
    let mut seen_dot = false;
    let mut seen_exp = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'+' | b'-' if i == 0 || bytes[i - 1] == b'e' || bytes[i - 1] == b'E' => {}
            b'0'..=b'9' => seen_digit = true,
            b'.' if !seen_dot && !seen_exp => seen_dot = true,
            b'e' | b'E' if seen_digit && !seen_exp => {
                seen_exp = true;
            }
            _ => {
                end = i;
                break;
            }
        }
        end = i + 1;
    }
    let prefix = &t[..end];
    match prefix.parse::<f64>() {
        Ok(v) if seen_digit => Ok(realm.heap.number(v)),
        _ => Ok(realm.heap.number(f64::NAN)),
    }
}

fn global_is_nan(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let x = ops::to_number(realm, arg(args, 1));
    Ok(Value::new_bool(x.is_nan()))
}

// ---- string methods (receiver = args[0]) ----

fn recv_string(realm: &Realm, args: &[Value]) -> Result<Vec<u8>, RuntimeError> {
    match arg(args, 0).as_string() {
        Some(id) => Ok(realm.heap.string(id).to_vec()),
        None => Err(RuntimeError::TypeError("string method on non-string receiver".into())),
    }
}

fn string_char_code_at(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let s = recv_string(realm, args)?;
    let i = ops::to_number(realm, arg(args, 1));
    if i >= 0.0 && (i as usize) < s.len() && i.fract() == 0.0 {
        Ok(Value::new_int(i32::from(s[i as usize])))
    } else {
        Ok(realm.heap.number(f64::NAN))
    }
}

fn string_char_at(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let s = recv_string(realm, args)?;
    let i = ops::to_number(realm, arg(args, 1));
    let bytes = if i >= 0.0 && (i as usize) < s.len() && i.fract() == 0.0 {
        vec![s[i as usize]]
    } else {
        Vec::new()
    };
    Ok(realm.heap.alloc_string_bytes(bytes))
}

fn string_index_of(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let s = recv_string(realm, args)?;
    let needle_v = ops::to_string_value(realm, arg(args, 1));
    let needle = realm.heap.string(needle_v.as_string().expect("string")).to_vec();
    let start = match arg(args, 2).unpack() {
        Unpacked::Undefined => 0usize,
        _ => (ops::to_number(realm, arg(args, 2)).max(0.0) as usize).min(s.len()),
    };
    if needle.is_empty() {
        return Ok(Value::new_int(start as i32));
    }
    let pos = s[start..]
        .windows(needle.len())
        .position(|w| w == &needle[..])
        .map(|p| (p + start) as i32)
        .unwrap_or(-1);
    Ok(Value::new_int(pos))
}

fn string_substring(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let s = recv_string(realm, args)?;
    let len = s.len() as f64;
    let a = clamp_index(ops::to_number(realm, arg(args, 1)), len);
    let b = match arg(args, 2).unpack() {
        Unpacked::Undefined => len as usize,
        _ => clamp_index(ops::to_number(realm, arg(args, 2)), len),
    };
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    Ok(realm.heap.alloc_string_bytes(s[lo..hi].to_vec()))
}

fn clamp_index(x: f64, len: f64) -> usize {
    if x.is_nan() {
        0
    } else {
        x.clamp(0.0, len) as usize
    }
}

fn string_slice(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let s = recv_string(realm, args)?;
    let len = s.len() as i64;
    let norm = |x: f64| -> i64 {
        if x.is_nan() {
            0
        } else if x < 0.0 {
            (len + x as i64).max(0)
        } else {
            (x as i64).min(len)
        }
    };
    let a = norm(ops::to_number(realm, arg(args, 1)));
    let b = match arg(args, 2).unpack() {
        Unpacked::Undefined => len,
        _ => norm(ops::to_number(realm, arg(args, 2))),
    };
    let bytes = if a < b { s[a as usize..b as usize].to_vec() } else { Vec::new() };
    Ok(realm.heap.alloc_string_bytes(bytes))
}

fn string_split(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let s = recv_string(realm, args)?;
    let sep_v = ops::to_string_value(realm, arg(args, 1));
    let sep = realm.heap.string(sep_v.as_string().expect("string")).to_vec();
    let mut parts: Vec<Vec<u8>> = Vec::new();
    if sep.is_empty() {
        parts.extend(s.iter().map(|&b| vec![b]));
    } else {
        let mut start = 0;
        let mut i = 0;
        while i + sep.len() <= s.len() {
            if &s[i..i + sep.len()] == &sep[..] {
                parts.push(s[start..i].to_vec());
                i += sep.len();
                start = i;
            } else {
                i += 1;
            }
        }
        parts.push(s[start..].to_vec());
    }
    let arr = realm.new_array(parts.len());
    for (i, p) in parts.into_iter().enumerate() {
        let v = realm.heap.alloc_string_bytes(p);
        realm.heap.object_mut(arr).set_element(i as u32, v);
    }
    Ok(Value::new_object(arr))
}

fn string_to_lower(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let s = recv_string(realm, args)?;
    let out: Vec<u8> = s.iter().map(|b| b.to_ascii_lowercase()).collect();
    Ok(realm.heap.alloc_string_bytes(out))
}

fn string_to_upper(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let s = recv_string(realm, args)?;
    let out: Vec<u8> = s.iter().map(|b| b.to_ascii_uppercase()).collect();
    Ok(realm.heap.alloc_string_bytes(out))
}

fn string_replace(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    // Plain-string replace of the first occurrence (no regexp support).
    let s = recv_string(realm, args)?;
    let pat_v = ops::to_string_value(realm, arg(args, 1));
    let pat = realm.heap.string(pat_v.as_string().expect("string")).to_vec();
    let rep_v = ops::to_string_value(realm, arg(args, 2));
    let rep = realm.heap.string(rep_v.as_string().expect("string")).to_vec();
    if pat.is_empty() {
        return Ok(arg(args, 0));
    }
    let mut out = Vec::with_capacity(s.len());
    let mut i = 0;
    let mut replaced = false;
    while i < s.len() {
        if !replaced && i + pat.len() <= s.len() && &s[i..i + pat.len()] == &pat[..] {
            out.extend_from_slice(&rep);
            i += pat.len();
            replaced = true;
        } else {
            out.push(s[i]);
            i += 1;
        }
    }
    Ok(realm.heap.alloc_string_bytes(out))
}

fn string_from_char_code(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let mut bytes = Vec::with_capacity(args.len().saturating_sub(1));
    for &a in &args[1..] {
        let c = ops::to_int32(realm, a);
        bytes.push((c & 0xFF) as u8);
    }
    Ok(realm.heap.alloc_string_bytes(bytes))
}

// ---- array methods ----

fn recv_array(args: &[Value]) -> Result<crate::value::ObjectId, RuntimeError> {
    arg(args, 0)
        .as_object()
        .ok_or_else(|| RuntimeError::TypeError("array method on non-object receiver".into()))
}

fn array_push(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let id = recv_array(args)?;
    for &a in &args[1..] {
        realm.heap.object_mut(id).elements.push(a);
    }
    let len = realm.heap.object(id).array_length();
    Ok(realm.heap.number_i64(i64::from(len)))
}

fn array_pop(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let id = recv_array(args)?;
    Ok(realm.heap.object_mut(id).elements.pop().unwrap_or(Value::UNDEFINED))
}

fn array_shift(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let id = recv_array(args)?;
    let o = realm.heap.object_mut(id);
    if o.elements.is_empty() {
        Ok(Value::UNDEFINED)
    } else {
        Ok(o.elements.remove(0))
    }
}

fn array_unshift(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let id = recv_array(args)?;
    let o = realm.heap.object_mut(id);
    for (i, &a) in args[1..].iter().enumerate() {
        o.elements.insert(i, a);
    }
    let len = o.elements.len() as i64;
    Ok(realm.heap.number_i64(len))
}

fn array_join(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let id = recv_array(args)?;
    let sep = match arg(args, 1).unpack() {
        Unpacked::Undefined => ",".to_owned(),
        _ => ops::to_display(realm, arg(args, 1)),
    };
    let elems = realm.heap.object(id).elements.to_vec();
    let parts: Vec<String> = elems
        .into_iter()
        .map(|e| {
            if e.is_null() || e.is_undefined() {
                String::new()
            } else {
                ops::to_display(realm, e)
            }
        })
        .collect();
    Ok(realm.heap.alloc_string(&parts.join(&sep)))
}

fn array_reverse(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let id = recv_array(args)?;
    realm.heap.object_mut(id).elements.reverse();
    Ok(arg(args, 0))
}

fn array_index_of(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let id = recv_array(args)?;
    let needle = arg(args, 1);
    let elems = realm.heap.object(id).elements.to_vec();
    for (i, e) in elems.into_iter().enumerate() {
        if ops::strict_eq(realm, e, needle) {
            return Ok(Value::new_int(i as i32));
        }
    }
    Ok(Value::new_int(-1))
}

fn array_slice(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let id = recv_array(args)?;
    let len = realm.heap.object(id).elements.len() as i64;
    let norm = |x: f64| -> i64 {
        if x.is_nan() {
            0
        } else if x < 0.0 {
            (len + x as i64).max(0)
        } else {
            (x as i64).min(len)
        }
    };
    let a = match arg(args, 1).unpack() {
        Unpacked::Undefined => 0,
        _ => norm(ops::to_number(realm, arg(args, 1))),
    };
    let b = match arg(args, 2).unpack() {
        Unpacked::Undefined => len,
        _ => norm(ops::to_number(realm, arg(args, 2))),
    };
    let slice: Vec<Value> =
        if a < b { realm.heap.object(id).elements[a as usize..b as usize].to_vec() } else { vec![] };
    let out = realm.new_array(slice.len());
    realm.heap.object_mut(out).elements = slice.into();
    Ok(Value::new_object(out))
}

fn array_concat(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    let id = recv_array(args)?;
    let mut elems = realm.heap.object(id).elements.to_vec();
    for &a in &args[1..] {
        match a.as_object() {
            Some(oid) if realm.heap.object(oid).class == crate::object::ObjectClass::Array => {
                elems.extend(realm.heap.object(oid).elements.iter().copied());
            }
            _ => elems.push(a),
        }
    }
    let out = realm.new_array(0);
    realm.heap.object_mut(out).elements = elems.into();
    Ok(Value::new_object(out))
}

fn array_sort(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    // Default JS sort: by string representation. (A scripted comparator
    // would reenter the interpreter; this native does not support one and
    // is marked may_reenter=false accordingly.)
    let id = recv_array(args)?;
    let elems = realm.heap.object(id).elements.to_vec();
    let mut keyed: Vec<(String, Value)> =
        elems.into_iter().map(|e| (ops::to_display(realm, e), e)).collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    realm.heap.object_mut(id).elements = keyed.into_iter().map(|(_, v)| v).collect();
    Ok(arg(args, 0))
}

// ---- installation ----

/// Installs all builtins into `realm`: the `Math` and `String` global
/// objects, global functions, and the array/string prototypes.
pub fn install(realm: &mut Realm) {
    use FastTy::{Double, Int, Str};

    // Prototype objects first.
    let object_proto = realm.heap.alloc_object(crate::object::Object::new_plain(None));
    realm.object_proto = Some(object_proto);
    let array_proto = realm.heap.alloc_object(crate::object::Object::new_plain(None));
    realm.array_proto = Some(array_proto);
    let string_proto = realm.heap.alloc_object(crate::object::Object::new_plain(None));
    realm.string_proto = Some(string_proto);

    let def_method = |realm: &mut Realm,
                          proto: crate::value::ObjectId,
                          name: &str,
                          f: crate::realm::NativeFn,
                          effects: NativeEffects,
                          fast: Option<FastNative>| {
        let id = realm.register_native(name, f, effects, fast);
        let fv = realm.new_native_function(id);
        let sym = realm.symbols.intern(name.rsplit('.').next().expect("name"));
        realm.set_prop(Value::new_object(proto), sym, fv).expect("proto is an object");
    };

    // Array.prototype
    def_method(realm, array_proto, "Array.push", array_push, ALLOC, None);
    def_method(realm, array_proto, "Array.pop", array_pop, PURE, None);
    def_method(realm, array_proto, "Array.shift", array_shift, PURE, None);
    def_method(realm, array_proto, "Array.unshift", array_unshift, ALLOC, None);
    def_method(realm, array_proto, "Array.join", array_join, ALLOC, None);
    def_method(realm, array_proto, "Array.reverse", array_reverse, PURE, None);
    def_method(realm, array_proto, "Array.indexOf", array_index_of, PURE, None);
    def_method(realm, array_proto, "Array.slice", array_slice, ALLOC, None);
    def_method(realm, array_proto, "Array.concat", array_concat, ALLOC, None);
    def_method(realm, array_proto, "Array.sort", array_sort, ALLOC, None);

    // String.prototype
    def_method(
        realm,
        string_proto,
        "String.charCodeAt",
        string_char_code_at,
        PURE,
        Some(FastNative { helper: Helper::CharCodeAt, args: &[Str, Int], ret: Int }),
    );
    def_method(
        realm,
        string_proto,
        "String.charAt",
        string_char_at,
        ALLOC,
        Some(FastNative { helper: Helper::CharAt, args: &[Str, Int], ret: Str }),
    );
    def_method(realm, string_proto, "String.indexOf", string_index_of, PURE, None);
    def_method(
        realm,
        string_proto,
        "String.substring",
        string_substring,
        ALLOC,
        Some(FastNative { helper: Helper::Substring, args: &[Str, Int, Int], ret: Str }),
    );
    def_method(realm, string_proto, "String.slice", string_slice, ALLOC, None);
    def_method(realm, string_proto, "String.split", string_split, ALLOC, None);
    def_method(
        realm,
        string_proto,
        "String.toLowerCase",
        string_to_lower,
        ALLOC,
        Some(FastNative { helper: Helper::ToLowerCase, args: &[Str], ret: Str }),
    );
    def_method(
        realm,
        string_proto,
        "String.toUpperCase",
        string_to_upper,
        ALLOC,
        Some(FastNative { helper: Helper::ToUpperCase, args: &[Str], ret: Str }),
    );
    def_method(realm, string_proto, "String.replace", string_replace, ALLOC, None);

    // Math object.
    let math = realm.new_plain_object();
    let def_math = |realm: &mut Realm,
                        name: &str,
                        f: crate::realm::NativeFn,
                        fast: Option<FastNative>| {
        let id = realm.register_native(&format!("Math.{name}"), f, PURE, fast);
        let fv = realm.new_native_function(id);
        let sym = realm.symbols.intern(name);
        realm.set_prop(Value::new_object(math), sym, fv).expect("Math is an object");
    };
    let f1 = |h: Helper| Some(FastNative { helper: h, args: &[Double][..], ret: Double });
    let f2 = |h: Helper| {
        Some(FastNative { helper: h, args: &[Double, Double][..], ret: Double })
    };
    def_math(realm, "sin", math_sin, f1(Helper::Sin));
    def_math(realm, "cos", math_cos, f1(Helper::Cos));
    def_math(realm, "tan", math_tan, f1(Helper::Tan));
    def_math(realm, "asin", math_asin, f1(Helper::Asin));
    def_math(realm, "acos", math_acos, f1(Helper::Acos));
    def_math(realm, "atan", math_atan, f1(Helper::Atan));
    def_math(realm, "exp", math_exp, f1(Helper::Exp));
    def_math(realm, "log", math_log, f1(Helper::Log));
    def_math(realm, "sqrt", math_sqrt, f1(Helper::Sqrt));
    def_math(realm, "floor", math_floor, f1(Helper::Floor));
    def_math(realm, "ceil", math_ceil, f1(Helper::Ceil));
    def_math(realm, "abs", math_abs, f1(Helper::AbsD));
    def_math(realm, "round", math_round, f1(Helper::Round));
    def_math(realm, "atan2", math_atan2, f2(Helper::Atan2));
    def_math(realm, "pow", math_pow, f2(Helper::Pow));
    def_math(realm, "min", math_min, f2(Helper::MinD));
    def_math(realm, "max", math_max, f2(Helper::MaxD));
    def_math(
        realm,
        "random",
        math_random,
        Some(FastNative { helper: Helper::Random, args: &[], ret: Double }),
    );
    let pi = realm.heap.alloc_double(std::f64::consts::PI);
    let pi_sym = realm.symbols.intern("PI");
    realm.set_prop(Value::new_object(math), pi_sym, pi).expect("Math is an object");
    let e = realm.heap.alloc_double(std::f64::consts::E);
    let e_sym = realm.symbols.intern("E");
    realm.set_prop(Value::new_object(math), e_sym, e).expect("Math is an object");
    realm.define_global("Math", Value::new_object(math));

    // String object (constructor-less namespace with fromCharCode).
    let string_ns = realm.new_plain_object();
    let id = realm.register_native(
        "String.fromCharCode",
        string_from_char_code,
        ALLOC,
        // Typed fast path for the common 1-arg case; multi-arg calls take
        // the generic boxed path.
        Some(FastNative { helper: Helper::FromCharCode, args: &[Int], ret: Str }),
    );
    let fv = realm.new_native_function(id);
    let sym = realm.symbols.intern("fromCharCode");
    realm.set_prop(Value::new_object(string_ns), sym, fv).expect("String is an object");
    realm.define_global("String", Value::new_object(string_ns));

    // Global functions.
    let def_global = |realm: &mut Realm, name: &str, f: crate::realm::NativeFn| {
        let id = realm.register_native(name, f, ALLOC, None);
        let fv = realm.new_native_function(id);
        realm.define_global(name, fv);
    };
    def_global(realm, "print", global_print);
    def_global(realm, "parseInt", global_parse_int);
    def_global(realm, "parseFloat", global_parse_float);
    def_global(realm, "isNaN", global_is_nan);

    let nan = realm.heap.alloc_double(f64::NAN);
    realm.define_global("NaN", nan);
    let inf = realm.heap.alloc_double(f64::INFINITY);
    realm.define_global("Infinity", inf);
    realm.define_global("undefined", Value::UNDEFINED);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call_global(realm: &mut Realm, name: &str, args: &[Value]) -> Value {
        let slot = realm.lookup_global(name).expect("global exists");
        let f = realm.global(slot).as_object().expect("function object");
        let callee = realm.heap.object(f).callee.expect("callable");
        let crate::object::Callee::Native(id) = callee else { panic!("native") };
        let mut full = vec![Value::UNDEFINED];
        full.extend_from_slice(args);
        realm.call_native(crate::realm::NativeId(id), &full).expect("call ok")
    }

    fn call_method(realm: &mut Realm, recv: Value, name: &str, args: &[Value]) -> Value {
        let sym = realm.symbols.intern(name);
        let f = realm.get_prop(recv, sym).unwrap().as_object().expect("method");
        let callee = realm.heap.object(f).callee.expect("callable");
        let crate::object::Callee::Native(id) = callee else { panic!("native") };
        let mut full = vec![recv];
        full.extend_from_slice(args);
        realm.call_native(crate::realm::NativeId(id), &full).expect("call ok")
    }

    #[test]
    fn math_props_exist() {
        let mut realm = Realm::new();
        let math = realm.global(realm.lookup_global("Math").unwrap());
        let pi_sym = realm.symbols.intern("PI");
        let pi = realm.get_prop(math, pi_sym).unwrap();
        assert!((realm.heap.number_value(pi).unwrap() - std::f64::consts::PI).abs() < 1e-15);
    }

    #[test]
    fn print_accumulates_output() {
        let mut realm = Realm::new();
        let s = realm.heap.alloc_string("hello");
        call_global(&mut realm, "print", &[s, Value::new_int(42)]);
        assert_eq!(realm.output, "hello 42\n");
    }

    #[test]
    fn parse_int_radix() {
        let mut realm = Realm::new();
        let s = realm.heap.alloc_string("ff");
        let v = call_global(&mut realm, "parseInt", &[s, Value::new_int(16)]);
        assert_eq!(v.as_int(), Some(255));
        let s = realm.heap.alloc_string("42abc");
        let v = call_global(&mut realm, "parseInt", &[s]);
        assert_eq!(v.as_int(), Some(42));
        let s = realm.heap.alloc_string("zzz");
        let v = call_global(&mut realm, "parseInt", &[s]);
        assert!(realm.heap.number_value(v).unwrap().is_nan());
        let s = realm.heap.alloc_string("-10");
        let v = call_global(&mut realm, "parseInt", &[s]);
        assert_eq!(v.as_int(), Some(-10));
    }

    #[test]
    fn parse_float_prefix() {
        let mut realm = Realm::new();
        let s = realm.heap.alloc_string("3.5xyz");
        let v = call_global(&mut realm, "parseFloat", &[s]);
        assert_eq!(realm.heap.number_value(v), Some(3.5));
        let s = realm.heap.alloc_string("1e3");
        let v = call_global(&mut realm, "parseFloat", &[s]);
        assert_eq!(realm.heap.number_value(v), Some(1000.0));
    }

    #[test]
    fn string_methods() {
        let mut realm = Realm::new();
        let s = realm.heap.alloc_string("Hello World");
        let v = call_method(&mut realm, s, "charCodeAt", &[Value::new_int(0)]);
        assert_eq!(v.as_int(), Some(72));
        let v = call_method(&mut realm, s, "charCodeAt", &[Value::new_int(999)]);
        assert!(realm.heap.number_value(v).unwrap().is_nan());
        let world = realm.heap.alloc_string("World");
        let v = call_method(&mut realm, s, "indexOf", &[world]);
        assert_eq!(v.as_int(), Some(6));
        let v = call_method(
            &mut realm,
            s,
            "substring",
            &[Value::new_int(0), Value::new_int(5)],
        );
        assert_eq!(realm.heap.string(v.as_string().unwrap()), b"Hello");
        let v = call_method(&mut realm, s, "toUpperCase", &[]);
        assert_eq!(realm.heap.string(v.as_string().unwrap()), b"HELLO WORLD");
        let v = call_method(&mut realm, s, "slice", &[Value::new_int(-5)]);
        assert_eq!(realm.heap.string(v.as_string().unwrap()), b"World");
    }

    #[test]
    fn string_split_and_replace() {
        let mut realm = Realm::new();
        let s = realm.heap.alloc_string("a,b,c");
        let sep = realm.heap.alloc_string(",");
        let v = call_method(&mut realm, s, "split", &[sep]);
        let arr = v.as_object().unwrap();
        assert_eq!(realm.heap.object(arr).array_length(), 3);
        let s2 = realm.heap.alloc_string("aXbXc");
        let pat = realm.heap.alloc_string("X");
        let rep = realm.heap.alloc_string("-");
        let v = call_method(&mut realm, s2, "replace", &[pat, rep]);
        assert_eq!(realm.heap.string(v.as_string().unwrap()), b"a-bXc");
    }

    #[test]
    fn array_methods() {
        let mut realm = Realm::new();
        let arr = Value::new_object(realm.new_array(0));
        call_method(&mut realm, arr, "push", &[Value::new_int(3)]);
        call_method(&mut realm, arr, "push", &[Value::new_int(1)]);
        let len = call_method(&mut realm, arr, "push", &[Value::new_int(2)]);
        assert_eq!(len.as_int(), Some(3));
        call_method(&mut realm, arr, "sort", &[]);
        let dash = realm.heap.alloc_string("-");
        let joined = call_method(&mut realm, arr, "join", &[dash]);
        assert_eq!(realm.heap.string(joined.as_string().unwrap()), b"1-2-3");
        let popped = call_method(&mut realm, arr, "pop", &[]);
        assert_eq!(popped.as_int(), Some(3));
        let idx = call_method(&mut realm, arr, "indexOf", &[Value::new_int(2)]);
        assert_eq!(idx.as_int(), Some(1));
        let rev = call_method(&mut realm, arr, "reverse", &[]);
        assert_eq!(rev, arr);
        let first = realm.get_elem(arr, Value::new_int(0)).unwrap();
        assert_eq!(first.as_int(), Some(2));
    }

    #[test]
    fn from_char_code() {
        let mut realm = Realm::new();
        let string_ns = realm.global(realm.lookup_global("String").unwrap());
        let sym = realm.symbols.intern("fromCharCode");
        let f = realm.get_prop(string_ns, sym).unwrap().as_object().unwrap();
        let crate::object::Callee::Native(id) = realm.heap.object(f).callee.unwrap() else {
            panic!()
        };
        let v = realm
            .call_native(
                crate::realm::NativeId(id),
                &[Value::UNDEFINED, Value::new_int(72), Value::new_int(105)],
            )
            .unwrap();
        assert_eq!(realm.heap.string(v.as_string().unwrap()), b"Hi");
    }

    #[test]
    fn fast_annotations_present() {
        let realm = Realm::new();
        let sin = realm.natives.iter().find(|n| n.name == "Math.sin").unwrap();
        assert!(sin.fast.is_some());
        let cca = realm.natives.iter().find(|n| n.name == "String.charCodeAt").unwrap();
        assert_eq!(cca.fast.unwrap().helper, Helper::CharCodeAt);
    }
}
