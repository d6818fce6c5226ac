//! Runtime helpers callable from compiled code.
//!
//! The paper's LIR represents type conversions and runtime services as
//! function calls ("this makes the LIR used by TraceMonkey independent of
//! the concrete type system", §3.1), and its Figure 3 trace calls
//! `js_Array_set` to store an array element. This module is the Rust
//! equivalent: a closed set of [`Helper`] entry points that compiled traces
//! and method-JIT code invoke with raw unboxed machine words.
//!
//! Calling conventions: every argument and result is a 64-bit [`Word`].
//! Doubles travel as IEEE-754 bit patterns, 32-bit integers as
//! sign-extended two's complement, heap handles as zero-extended indexes,
//! and boxed values as raw tagged words.

use crate::error::RuntimeError;
use crate::ops;
use crate::realm::{NativeId, Realm};
use crate::shape::Sym;
use crate::value::{ObjectId, StringId, Value};

/// A raw 64-bit machine word.
pub type Word = u64;

/// Encodes an `f64` as a word.
#[inline]
pub fn word_from_f64(d: f64) -> Word {
    d.to_bits()
}

/// Decodes an `f64` from a word.
#[inline]
pub fn f64_from_word(w: Word) -> f64 {
    f64::from_bits(w)
}

/// Encodes an `i32` as a (sign-extended) word.
#[inline]
pub fn word_from_i32(i: i32) -> Word {
    i64::from(i) as u64
}

/// Decodes an `i32` from a word.
#[inline]
pub fn i32_from_word(w: Word) -> i32 {
    w as i32
}

/// The one definition of each heap-walking or allocating machine
/// instruction. The decoded executor's match arms call these directly; the
/// native tier's `extern "C"` shims are wrappers around the same
/// functions, so the two tiers cannot drift. Object and string operands
/// are handle words (zero-extended arena indexes), values are raw tagged
/// words. Handles and slot indexes were guarded by the recording; an
/// out-of-range one panics on the arena or slot bounds check.
pub mod heap_ops {
    use super::{f64_from_word, word_from_f64, Word};
    use crate::realm::Realm;
    use crate::value::{ObjectId, StringId, Value};

    /// `GuardShape` probe: the object's current shape id.
    #[inline]
    pub fn shape_of(realm: &Realm, obj: Word) -> Word {
        Word::from(realm.heap.object(ObjectId(obj as u32)).shape.0)
    }

    /// `GuardClass` probe: the object's class discriminant.
    #[inline]
    pub fn class_of(realm: &Realm, obj: Word) -> Word {
        realm.heap.object(ObjectId(obj as u32)).class as Word
    }

    /// `GuardBound` probe: the dense element count (`ArrayLen` is
    /// [`array_len`], the guest-visible `u32` length).
    #[inline]
    pub fn elems_len(realm: &Realm, obj: Word) -> Word {
        realm.heap.object(ObjectId(obj as u32)).elements.len() as Word
    }

    /// `LoadSlot`.
    #[inline]
    pub fn load_slot(realm: &Realm, obj: Word, slot: Word) -> Word {
        realm.heap.object(ObjectId(obj as u32)).slots[slot as usize].raw()
    }

    /// `StoreSlot`.
    #[inline]
    pub fn store_slot(realm: &mut Realm, obj: Word, slot: Word, v: Word) {
        realm.heap.object_mut(ObjectId(obj as u32)).slots[slot as usize] = Value::from_raw(v);
    }

    /// `LoadProto`.
    #[inline]
    pub fn load_proto(realm: &Realm, obj: Word) -> Word {
        let proto =
            realm.heap.object(ObjectId(obj as u32)).proto.expect("proto guarded by recording");
        Word::from(proto.0)
    }

    /// `LoadElem`. `GuardBound` precedes every access, so a negative `idx`
    /// (which wraps to an out-of-range `usize`) is a bug and panics.
    #[inline]
    pub fn load_elem(realm: &Realm, obj: Word, idx: i32) -> Word {
        realm.heap.object(ObjectId(obj as u32)).elements[idx as usize].raw()
    }

    /// `StoreElem` (grows the dense part like `Object::set_element`).
    #[inline]
    pub fn store_elem(realm: &mut Realm, obj: Word, idx: i32, v: Word) {
        realm.heap.object_mut(ObjectId(obj as u32)).set_element(idx as u32, Value::from_raw(v));
    }

    /// `ArrayLen`.
    #[inline]
    pub fn array_len(realm: &Realm, obj: Word) -> Word {
        Word::from(realm.heap.object(ObjectId(obj as u32)).array_length())
    }

    /// `StrLen`.
    #[inline]
    pub fn str_len(realm: &Realm, s: Word) -> Word {
        realm.heap.string(StringId(s as u32)).len() as Word
    }

    /// `Box(Int)`: inline when `i` fits the 31-bit range, a heap double
    /// otherwise. Like every allocating box, an allocation that crosses the
    /// GC threshold only flags the collection ([`super::maybe_defer_gc`]);
    /// the monitor runs it once the trace has exited. A box that allocated
    /// nothing flags nothing, as the native tier's inline box does not.
    #[inline]
    pub fn box_i(realm: &mut Realm, i: i32) -> Word {
        let v = realm.heap.number_i32(i);
        flag_if_allocated(realm, v)
    }

    /// `Box(Double)`: inline when the double is an in-range integer, a heap
    /// double otherwise.
    #[inline]
    pub fn box_d(realm: &mut Realm, bits: Word) -> Word {
        let v = realm.heap.number(f64_from_word(bits));
        flag_if_allocated(realm, v)
    }

    #[inline]
    fn flag_if_allocated(realm: &mut Realm, v: Value) -> Word {
        if v.as_double_id().is_some() {
            super::maybe_defer_gc(realm);
        }
        v.raw()
    }

    /// `Unbox(Double)`: the heap double behind `raw`, `None` when `raw` is
    /// not a boxed double (the guard's side exit).
    #[inline]
    pub fn unbox_double(realm: &Realm, raw: Word) -> Option<Word> {
        let id = Value::from_raw(raw).as_double_id()?;
        Some(word_from_f64(realm.heap.double(id)))
    }
}

/// Unboxed argument/result types for typed fast-call natives (§6.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastTy {
    /// Unboxed IEEE double.
    Double,
    /// Unboxed 32-bit integer.
    Int,
    /// String handle.
    Str,
    /// Object handle.
    Obj,
}

/// Typed fast-call annotation attached to a native function: when observed
/// argument types match `args`, the tracer emits a direct [`Helper`] call on
/// unboxed values, skipping boxed-array argument marshalling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastNative {
    /// Specialized helper implementing the native.
    pub helper: Helper,
    /// Required unboxed argument types; for method-style natives the
    /// receiver is `args[0]`.
    pub args: &'static [FastTy],
    /// Result type. For [`Helper::CharCodeAt`] the recorder additionally
    /// guards the `-1 = NaN` sentinel.
    pub ret: FastTy,
}

/// Identifies a runtime helper routine callable from compiled code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Helper {
    // -- double -> double math --
    /// `Math.sin`
    Sin,
    /// `Math.cos`
    Cos,
    /// `Math.tan`
    Tan,
    /// `Math.asin`
    Asin,
    /// `Math.acos`
    Acos,
    /// `Math.atan`
    Atan,
    /// `Math.exp`
    Exp,
    /// `Math.log`
    Log,
    /// `Math.sqrt`
    Sqrt,
    /// `Math.floor`
    Floor,
    /// `Math.ceil`
    Ceil,
    /// `Math.round`
    Round,
    /// `Math.abs` on doubles
    AbsD,
    // -- (double, double) -> double --
    /// `Math.atan2`
    Atan2,
    /// `Math.pow`
    Pow,
    /// `Math.min` (2-arg double case)
    MinD,
    /// `Math.max` (2-arg double case)
    MaxD,
    // -- misc --
    /// `Math.random`: () -> double
    Random,
    /// number (double bits) -> string handle. Allocates.
    NumberToString,
    /// int -> string handle. Allocates.
    IntToString,
    // -- strings --
    /// (str, str) -> str. Allocates.
    ConcatStrings,
    /// (str, str) -> 0/1 content equality
    StrEq,
    /// (str, str) -> -1/0/1 lexicographic compare
    StrCmp,
    /// (str, i32) -> code unit, or -1 for out-of-range (NaN in JS)
    CharCodeAt,
    /// (str, i32) -> str (empty when out of range). Allocates.
    CharAt,
    /// (str, i32, i32) -> str substring. Allocates.
    Substring,
    /// (i32 code) -> str. Allocates. (`String.fromCharCode`, 1-arg case)
    FromCharCode,
    /// (str) -> double bits: JS `ToNumber` on a string body. Pure.
    StrToNum,
    /// (str) -> str lower-cased. Allocates.
    ToLowerCase,
    /// (str) -> str upper-cased. Allocates.
    ToUpperCase,
    // -- arrays / objects --
    /// (obj, i32 index, boxed value) -> 1. The paper's `js_Array_set`.
    ArraySetElem,
    /// (i32 len) -> obj handle. Allocates.
    NewArray,
    /// (obj proto handle or NO_PROTO) -> obj handle. Allocates.
    NewObject,
    /// (obj, u32 sym, boxed value) -> 0 full property store (may transition
    /// the object's shape)
    SetPropSlow,
    // -- generic dynamic-typed operations (mixed string/number operands;
    //    boxed words in and out) --
    /// `<`
    LtAny,
    /// `<=`
    LeAny,
    /// `>`
    GtAny,
    /// `>=`
    GeAny,
    /// `==`
    EqAny,
    /// (boxed base, boxed index) -> boxed value
    GetElemAny,
    /// (boxed base, boxed index, boxed value) -> 0
    SetElemAny,
    /// Call a registered native with boxed args: (native id, argc, args...)
    CallNative(NativeId),
}

impl Helper {
    /// How many argument words [`call_helper`] reads, or `None` for the
    /// variadic [`Helper::CallNative`]. A call site with another count is
    /// malformed (the fragment verifier rejects it before it can run).
    pub fn arity(self) -> Option<usize> {
        use Helper::*;
        Some(match self {
            Random => 0,
            Sin | Cos | Tan | Asin | Acos | Atan | Exp | Log | Sqrt | Floor | Ceil | Round
            | AbsD | NumberToString | IntToString | FromCharCode | StrToNum | ToLowerCase
            | ToUpperCase | NewArray | NewObject => 1,
            Atan2 | Pow | MinD | MaxD | ConcatStrings | StrEq | StrCmp | CharCodeAt | CharAt | LtAny
            | LeAny | GtAny | GeAny | EqAny | GetElemAny => 2,
            Substring | ArraySetElem | SetPropSlow | SetElemAny => 3,
            CallNative(_) => return None,
        })
    }
}

/// Sentinel "no prototype" handle argument for [`Helper::NewObject`].
pub const NO_PROTO: Word = u64::MAX;

/// The most argument words a recorded helper call passes: the recorder
/// records no wider call (a generic native call passes `this` and its
/// arguments), and the native tier's inline argument buffer holds this
/// many.
pub const MAX_HELPER_ARGS: usize = 10;

#[inline]
fn obj(w: Word) -> ObjectId {
    ObjectId(w as u32)
}

#[inline]
fn strid(w: Word) -> StringId {
    StringId(w as u32)
}

#[inline]
fn boxed(w: Word) -> Value {
    Value::from_raw(w)
}

#[inline]
fn maybe_defer_gc(realm: &mut Realm) {
    if realm.heap.should_collect() {
        // On-trace allocation: defer collection to the next safe point
        // (trace loop edge or exit) because roots in machine registers are
        // not enumerable here.
        realm.heap.gc_pending = true;
    }
}

/// Invokes helper `h` with raw `args`.
///
/// # Errors
///
/// Propagates guest [`RuntimeError`]s. Compiled traces only call helpers
/// whose error paths were guarded away during recording, so an error from
/// trace execution aborts the whole trace run.
///
/// # Panics
///
/// Panics when `args` is shorter than [`Helper::arity`], or a
/// [`Helper::CallNative`] id is not a registered native: the fragment
/// verifier and the cache loader reject such call sites.
pub fn call_helper(realm: &mut Realm, h: Helper, args: &[Word]) -> Result<Word, RuntimeError> {
    let w = |v: Value| v.raw();
    // String-producing helpers return raw handles (the trace convention),
    // not boxed words.
    let hs = |v: Value| u64::from(v.as_string().expect("string result").0);
    let r = match h {
        Helper::Sin => word_from_f64(f64_from_word(args[0]).sin()),
        Helper::Cos => word_from_f64(f64_from_word(args[0]).cos()),
        Helper::Tan => word_from_f64(f64_from_word(args[0]).tan()),
        Helper::Asin => word_from_f64(f64_from_word(args[0]).asin()),
        Helper::Acos => word_from_f64(f64_from_word(args[0]).acos()),
        Helper::Atan => word_from_f64(f64_from_word(args[0]).atan()),
        Helper::Exp => word_from_f64(f64_from_word(args[0]).exp()),
        Helper::Log => word_from_f64(f64_from_word(args[0]).ln()),
        Helper::Sqrt => word_from_f64(f64_from_word(args[0]).sqrt()),
        Helper::Floor => word_from_f64(f64_from_word(args[0]).floor()),
        Helper::Ceil => word_from_f64(f64_from_word(args[0]).ceil()),
        Helper::Round => {
            // JS rounds half-up (towards +inf), unlike Rust's round.
            let d = f64_from_word(args[0]);
            word_from_f64((d + 0.5).floor())
        }
        Helper::AbsD => word_from_f64(f64_from_word(args[0]).abs()),
        Helper::Atan2 => word_from_f64(f64_from_word(args[0]).atan2(f64_from_word(args[1]))),
        Helper::Pow => word_from_f64(f64_from_word(args[0]).powf(f64_from_word(args[1]))),
        Helper::MinD => {
            let (a, b) = (f64_from_word(args[0]), f64_from_word(args[1]));
            word_from_f64(if a.is_nan() || b.is_nan() {
                f64::NAN
            } else if a < b {
                a
            } else {
                b
            })
        }
        Helper::MaxD => {
            let (a, b) = (f64_from_word(args[0]), f64_from_word(args[1]));
            word_from_f64(if a.is_nan() || b.is_nan() {
                f64::NAN
            } else if a > b {
                a
            } else {
                b
            })
        }
        Helper::Random => word_from_f64(realm.next_random()),
        Helper::NumberToString => {
            let s = ops::format_number(f64_from_word(args[0]));
            let v = realm.heap.alloc_string(&s);
            maybe_defer_gc(realm);
            hs(v)
        }
        Helper::IntToString => {
            let s = i32_from_word(args[0]).to_string();
            let v = realm.heap.alloc_string(&s);
            maybe_defer_gc(realm);
            hs(v)
        }
        Helper::ConcatStrings => {
            let a = realm.heap.string(strid(args[0])).to_vec();
            let b = realm.heap.string(strid(args[1]));
            let mut out = a;
            out.extend_from_slice(b);
            let v = realm.heap.alloc_string_bytes(out);
            maybe_defer_gc(realm);
            hs(v)
        }
        Helper::StrEq => {
            let eq = realm.heap.string(strid(args[0])) == realm.heap.string(strid(args[1]));
            word_from_i32(i32::from(eq))
        }
        Helper::StrCmp => {
            let a = realm.heap.string(strid(args[0]));
            let b = realm.heap.string(strid(args[1]));
            word_from_i32(match a.cmp(b) {
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => 0,
                std::cmp::Ordering::Greater => 1,
            })
        }
        Helper::CharCodeAt => {
            let s = realm.heap.string(strid(args[0]));
            let i = i32_from_word(args[1]);
            let code =
                if i >= 0 { s.get(i as usize).map(|&b| i32::from(b)) } else { None };
            word_from_i32(code.unwrap_or(-1))
        }
        Helper::CharAt => {
            let s = realm.heap.string(strid(args[0]));
            let i = i32_from_word(args[1]);
            let bytes: Vec<u8> = if i >= 0 {
                s.get(i as usize).map(|&b| vec![b]).unwrap_or_default()
            } else {
                Vec::new()
            };
            let v = realm.heap.alloc_string_bytes(bytes);
            maybe_defer_gc(realm);
            hs(v)
        }
        Helper::Substring => {
            let s = realm.heap.string(strid(args[0]));
            let len = s.len() as i32;
            let a = i32_from_word(args[1]).clamp(0, len);
            let b = i32_from_word(args[2]).clamp(0, len);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let bytes = s[lo as usize..hi as usize].to_vec();
            let v = realm.heap.alloc_string_bytes(bytes);
            maybe_defer_gc(realm);
            hs(v)
        }
        Helper::FromCharCode => {
            let c = (i32_from_word(args[0]) & 0xFF) as u8;
            let v = realm.heap.alloc_string_bytes(vec![c]);
            maybe_defer_gc(realm);
            hs(v)
        }
        Helper::StrToNum => {
            word_from_f64(ops::parse_number(realm.heap.string(strid(args[0]))))
        }
        Helper::ToLowerCase => {
            let bytes: Vec<u8> =
                realm.heap.string(strid(args[0])).iter().map(|b| b.to_ascii_lowercase()).collect();
            let v = realm.heap.alloc_string_bytes(bytes);
            maybe_defer_gc(realm);
            hs(v)
        }
        Helper::ToUpperCase => {
            let bytes: Vec<u8> =
                realm.heap.string(strid(args[0])).iter().map(|b| b.to_ascii_uppercase()).collect();
            let v = realm.heap.alloc_string_bytes(bytes);
            maybe_defer_gc(realm);
            hs(v)
        }
        Helper::ArraySetElem => {
            let id = obj(args[0]);
            let i = i32_from_word(args[1]);
            if i < 0 {
                return Err(RuntimeError::RangeError("negative array index".into()));
            }
            realm.heap.object_mut(id).set_element(i as u32, boxed(args[2]));
            maybe_defer_gc(realm);
            word_from_i32(1)
        }
        Helper::NewArray => {
            let len = i32_from_word(args[0]).max(0) as usize;
            let id = realm.new_array(len);
            maybe_defer_gc(realm);
            u64::from(id.0)
        }
        Helper::NewObject => {
            let proto = if args[0] == NO_PROTO { realm.object_proto } else { Some(obj(args[0])) };
            let id = realm.heap.alloc_object(crate::object::Object::new_plain(proto));
            maybe_defer_gc(realm);
            u64::from(id.0)
        }
        Helper::SetPropSlow => {
            let id = obj(args[0]);
            realm.set_prop(Value::new_object(id), Sym(args[1] as u32), boxed(args[2]))?;
            maybe_defer_gc(realm);
            0
        }
        Helper::LtAny => w(ops::rel_op(realm, ops::RelOp::Lt, boxed(args[0]), boxed(args[1]))?),
        Helper::LeAny => w(ops::rel_op(realm, ops::RelOp::Le, boxed(args[0]), boxed(args[1]))?),
        Helper::GtAny => w(ops::rel_op(realm, ops::RelOp::Gt, boxed(args[0]), boxed(args[1]))?),
        Helper::GeAny => w(ops::rel_op(realm, ops::RelOp::Ge, boxed(args[0]), boxed(args[1]))?),
        Helper::EqAny => w(Value::new_bool(ops::loose_eq(realm, boxed(args[0]), boxed(args[1])))),
        Helper::GetElemAny => w(realm.get_elem(boxed(args[0]), boxed(args[1]))?),
        Helper::SetElemAny => {
            realm.set_elem(boxed(args[0]), boxed(args[1]), boxed(args[2]))?;
            maybe_defer_gc(realm);
            0
        }
        Helper::CallNative(id) => {
            let vals: Vec<Value> = args.iter().map(|&a| boxed(a)).collect();
            let effects = realm.natives[id.0 as usize].effects;
            let result = realm.call_native(id, &vals)?;
            if effects.may_reenter {
                // §6.5: the VM sets a flag whenever the interpreter is
                // reentered while a compiled trace is running; the trace
                // exits immediately after the call.
                realm.reentered_during_trace = true;
            }
            maybe_defer_gc(realm);
            w(result)
        }
    };
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn math_helpers_round_trip_doubles() {
        let mut realm = Realm::new();
        let r = call_helper(&mut realm, Helper::Sqrt, &[word_from_f64(9.0)]).unwrap();
        assert_eq!(f64_from_word(r), 3.0);
        let r = call_helper(&mut realm, Helper::Pow, &[word_from_f64(2.0), word_from_f64(10.0)])
            .unwrap();
        assert_eq!(f64_from_word(r), 1024.0);
        // JS-style round: half goes towards +infinity.
        let r = call_helper(&mut realm, Helper::Round, &[word_from_f64(-0.5)]).unwrap();
        assert_eq!(f64_from_word(r), 0.0);
        let r = call_helper(&mut realm, Helper::Round, &[word_from_f64(2.5)]).unwrap();
        assert_eq!(f64_from_word(r), 3.0);
    }

    #[test]
    fn char_code_at_sentinel() {
        let mut realm = Realm::new();
        let s = realm.heap.alloc_string("AB");
        let sid = u64::from(s.as_string().unwrap().0);
        let r = call_helper(&mut realm, Helper::CharCodeAt, &[sid, word_from_i32(1)]).unwrap();
        assert_eq!(i32_from_word(r), 66);
        // Out of range returns the -1 sentinel the recorder guards
        // (String.charCodeAt "returns an integer or NaN", §6.3).
        let r = call_helper(&mut realm, Helper::CharCodeAt, &[sid, word_from_i32(7)]).unwrap();
        assert_eq!(i32_from_word(r), -1);
        let r = call_helper(&mut realm, Helper::CharCodeAt, &[sid, word_from_i32(-1)]).unwrap();
        assert_eq!(i32_from_word(r), -1);
    }

    #[test]
    fn array_set_elem_is_js_array_set() {
        let mut realm = Realm::new();
        let arr = realm.new_array(2);
        let ok = call_helper(
            &mut realm,
            Helper::ArraySetElem,
            &[u64::from(arr.0), word_from_i32(5), Value::FALSE.raw()],
        )
        .unwrap();
        assert_eq!(i32_from_word(ok), 1);
        assert_eq!(realm.heap.object(arr).array_length(), 6);
        assert_eq!(realm.heap.object(arr).element(5), Value::FALSE);
        let neg = call_helper(
            &mut realm,
            Helper::ArraySetElem,
            &[u64::from(arr.0), word_from_i32(-1), Value::FALSE.raw()],
        );
        assert!(neg.is_err());
    }

    /// [`Helper::arity`] is exactly what [`call_helper`] reads: a call with
    /// `arity` zero words runs (results and guest errors aside), one word
    /// fewer index-panics.
    #[test]
    fn arity_is_what_call_helper_reads() {
        use Helper::*;
        let all = [
            Sin, Cos, Tan, Asin, Acos, Atan, Exp, Log, Sqrt, Floor, Ceil, Round, AbsD, Atan2, Pow,
            MinD, MaxD, Random, NumberToString, IntToString, ConcatStrings, StrEq, StrCmp,
            CharCodeAt, CharAt, Substring, FromCharCode, StrToNum, ToLowerCase, ToUpperCase,
            ArraySetElem, NewArray, NewObject, SetPropSlow, LtAny, LeAny, GtAny, GeAny, EqAny,
            GetElemAny, SetElemAny,
        ];
        assert_eq!(all.len(), 41, "every helper but CallNative");
        assert_eq!(CallNative(NativeId(0)).arity(), None);
        for h in all {
            let n = h.arity().expect("fixed arity");
            // Handle 0 is a live object and, after one allocation, a live
            // string.
            let args = vec![0u64; n];
            let mut realm = Realm::new();
            realm.heap.alloc_string("x");
            let _ = call_helper(&mut realm, h, &args);
            if n > 0 {
                let short = std::panic::catch_unwind(|| {
                    let mut realm = Realm::new();
                    let _ = call_helper(&mut realm, h, &args[..n - 1]);
                });
                assert!(short.is_err(), "{h:?} reads fewer than {n} words");
            }
        }
    }

    #[test]
    fn allocation_past_threshold_defers_gc() {
        let mut realm = Realm::new();
        realm.heap.set_gc_threshold(1);
        let _ = call_helper(&mut realm, Helper::NewArray, &[word_from_i32(4)]).unwrap();
        let _ = call_helper(&mut realm, Helper::NewArray, &[word_from_i32(4)]).unwrap();
        assert!(realm.heap.gc_pending, "on-trace allocation defers GC via gc_pending");
    }

    #[test]
    fn substring_clamps_and_swaps() {
        let mut realm = Realm::new();
        let s = realm.heap.alloc_string("hello");
        let sid = u64::from(s.as_string().unwrap().0);
        // String-producing helpers return raw handles (trace convention).
        let r = call_helper(
            &mut realm,
            Helper::Substring,
            &[sid, word_from_i32(3), word_from_i32(1)],
        )
        .unwrap();
        assert_eq!(realm.heap.string(StringId(r as u32)), b"el");
        let r = call_helper(
            &mut realm,
            Helper::Substring,
            &[sid, word_from_i32(-5), word_from_i32(99)],
        )
        .unwrap();
        assert_eq!(realm.heap.string(StringId(r as u32)), b"hello");
    }

    #[test]
    fn concat_returns_a_handle() {
        let mut realm = Realm::new();
        let a = realm.heap.alloc_string("ab");
        let b = realm.heap.alloc_string("cd");
        let r = call_helper(
            &mut realm,
            Helper::ConcatStrings,
            &[
                u64::from(a.as_string().unwrap().0),
                u64::from(b.as_string().unwrap().0),
            ],
        )
        .unwrap();
        assert_eq!(realm.heap.string(StringId(r as u32)), b"abcd");
    }
}
