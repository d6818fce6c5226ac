//! Heap objects: plain objects, dense arrays, and function objects.

use std::mem::offset_of;
use std::ops::{Deref, DerefMut};

use crate::shape::{ShapeId, EMPTY_SHAPE};
use crate::value::{ObjectId, Value};

/// Identifies what kind of object this is.
///
/// The paper's recorded LIR guards on the object class word (Figure 3 masks
/// out the class tag of `primes` and compares it with `Array`); our trace
/// guards compare this enum as a small integer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ObjectClass {
    /// An ordinary object with named properties.
    Plain = 0,
    /// A dense array with `elements` storage and a `length`.
    Array = 1,
    /// A callable function object.
    Function = 2,
}

/// What a function object calls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Callee {
    /// A scripted function: index into the program's function table.
    Scripted(u32),
    /// A native (FFI) function: index into the realm's native registry.
    Native(u32),
}

/// A growable run of values whose data address and length sit in
/// fields of their own, kept current by every method that can move or
/// resize the storage, so that compiled code reads them at the fixed
/// offsets [`layout`] publishes (a `Vec`'s own fields have none). It
/// derefs to `[Value]`; writing an element in place moves nothing.
pub struct Values {
    ptr: usize,
    len: usize,
    vec: Vec<Value>,
}

impl Values {
    fn sync(&mut self) {
        (self.ptr, self.len) = (self.vec.as_ptr() as usize, self.vec.len());
    }

    /// Appends `v`.
    pub fn push(&mut self, v: Value) {
        self.vec.push(v);
        self.sync();
    }

    /// Removes and returns the last value.
    pub fn pop(&mut self) -> Option<Value> {
        let v = self.vec.pop();
        self.sync();
        v
    }

    /// Inserts `v` at `i`, shifting the rest up.
    pub fn insert(&mut self, i: usize, v: Value) {
        self.vec.insert(i, v);
        self.sync();
    }

    /// Removes and returns the value at `i`, shifting the rest down.
    pub fn remove(&mut self, i: usize) -> Value {
        let v = self.vec.remove(i);
        self.sync();
        v
    }

    /// Grows or truncates to `len` values, filling with `v`.
    pub fn resize(&mut self, len: usize, v: Value) {
        self.vec.resize(len, v);
        self.sync();
    }
}

impl From<Vec<Value>> for Values {
    fn from(vec: Vec<Value>) -> Values {
        let mut values = Values { ptr: 0, len: 0, vec };
        values.sync();
        values
    }
}

impl FromIterator<Value> for Values {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Values {
        Values::from(iter.into_iter().collect::<Vec<_>>())
    }
}

impl Default for Values {
    fn default() -> Values {
        Values::from(Vec::new())
    }
}

impl std::fmt::Debug for Values {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.vec.fmt(f)
    }
}

impl Clone for Values {
    fn clone(&self) -> Values {
        Values::from(self.vec.clone())
    }
}

impl Deref for Values {
    type Target = [Value];
    fn deref(&self) -> &[Value] {
        &self.vec
    }
}

impl DerefMut for Values {
    fn deref_mut(&mut self) -> &mut [Value] {
        &mut self.vec
    }
}

/// A garbage-collected object.
///
/// Named properties live in `slots`, indexed through the object's
/// [`ShapeId`]; integer-indexed elements live in the dense `elements`
/// vector. This mirrors SpiderMonkey's representation that the paper's
/// property-access specialization exploits.
#[derive(Debug, Clone)]
pub struct Object {
    /// Object kind: plain, array, or function.
    pub class: ObjectClass,
    /// Structural description mapping property names to slot indexes.
    pub shape: ShapeId,
    /// Named property values, positioned by shape slot index.
    pub slots: Values,
    /// Dense integer-indexed elements (arrays; holes are `undefined`).
    pub elements: Values,
    /// Prototype link for property lookup.
    pub proto: Option<ObjectId>,
    /// Call target, for function objects.
    pub callee: Option<Callee>,
}

impl Object {
    /// Creates a plain object with the empty shape and no prototype.
    pub fn new_plain(proto: Option<ObjectId>) -> Object {
        Object {
            class: ObjectClass::Plain,
            shape: EMPTY_SHAPE,
            slots: Values::default(),
            elements: Values::default(),
            proto,
            callee: None,
        }
    }

    /// Creates an array with `len` elements initialized to `undefined`.
    pub fn new_array(len: usize, proto: Option<ObjectId>) -> Object {
        Object {
            class: ObjectClass::Array,
            shape: EMPTY_SHAPE,
            slots: Values::default(),
            elements: vec![Value::UNDEFINED; len].into(),
            proto,
            callee: None,
        }
    }

    /// Creates a function object wrapping `callee`.
    pub fn new_function(callee: Callee, proto: Option<ObjectId>) -> Object {
        Object {
            class: ObjectClass::Function,
            shape: EMPTY_SHAPE,
            slots: Values::default(),
            elements: Values::default(),
            proto,
            callee: Some(callee),
        }
    }

    /// Array length (number of dense elements).
    #[inline]
    pub fn array_length(&self) -> u32 {
        self.elements.len() as u32
    }

    /// Reads dense element `idx`, returning `undefined` for holes past the
    /// end (the interpreter's slow path; traces guard `idx < len` instead).
    #[inline]
    pub fn element(&self, idx: u32) -> Value {
        self.elements.get(idx as usize).copied().unwrap_or(Value::UNDEFINED)
    }

    /// Writes dense element `idx`, growing the array as needed.
    pub fn set_element(&mut self, idx: u32, v: Value) {
        let idx = idx as usize;
        if idx >= self.elements.len() {
            self.elements.resize(idx + 1, Value::UNDEFINED);
        }
        self.elements[idx] = v;
    }
}

/// Where compiled code finds an object's fields, and the heap's
/// arenas, by byte offset: an object is `OBJECT_SIZE` bytes at
/// `object arena base + id * OBJECT_SIZE`, and a boxed double 8 bytes at
/// `double arena base + id * 8`. The bases are re-read at every access
/// ([`crate::Heap`] republishes them when an arena grows).
pub mod layout {
    use super::{offset_of, Object};
    use crate::heap::Heap;
    use crate::realm::Realm;

    /// Bytes between consecutive objects of the arena.
    pub const OBJECT_SIZE: usize = size_of::<Object>();
    /// The `ObjectClass` byte.
    pub const CLASS: usize = offset_of!(Object, class);
    /// The `ShapeId` (a `u32`).
    pub const SHAPE: usize = offset_of!(Object, shape.0);
    /// The data address of `slots` (a `usize`).
    pub const SLOTS_PTR: usize = offset_of!(Object, slots.ptr);
    /// The length of `slots` (a `usize`).
    pub const SLOTS_LEN: usize = offset_of!(Object, slots.len);
    /// The data address of `elements` (a `usize`).
    pub const ELEMS_PTR: usize = offset_of!(Object, elements.ptr);
    /// The length of `elements` (a `usize`).
    pub const ELEMS_LEN: usize = offset_of!(Object, elements.len);
    /// The address of the object arena's first object, off a `Realm`.
    pub const OBJECT_BASE: usize = offset_of!(Realm, heap) + Heap::OBJECT_BASE;
    /// The address of the double arena's first double, off a `Realm`.
    pub const DOUBLE_BASE: usize = offset_of!(Realm, heap) + Heap::DOUBLE_BASE;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_grows_on_store() {
        let mut a = Object::new_array(2, None);
        assert_eq!(a.array_length(), 2);
        a.set_element(5, Value::new_int(9));
        assert_eq!(a.array_length(), 6);
        assert_eq!(a.element(5).as_int(), Some(9));
        assert_eq!(a.element(3), Value::UNDEFINED);
        assert_eq!(a.element(100), Value::UNDEFINED);
    }

    /// Every method that resizes the storage republishes its address
    /// and length.
    #[test]
    fn values_keep_their_published_address_and_length() {
        let synced = |v: &Values| v.ptr == v.vec.as_ptr() as usize && v.len == v.vec.len();
        let mut v = Values::default();
        assert!(synced(&v));
        for i in 0..100 {
            v.push(Value::new_int(i));
            assert!(synced(&v));
        }
        v.insert(0, Value::NULL);
        assert!(synced(&v));
        assert_eq!(v.remove(0), Value::NULL);
        assert_eq!(v.pop(), Some(Value::new_int(99)));
        v.resize(1000, Value::UNDEFINED);
        assert!(synced(&v) && v.len() == 1000);
        assert!(synced(&v.clone()));
        assert!(synced(&Values::from(vec![Value::TRUE])));
        assert!(synced(&(0..3).map(Value::new_int).collect::<Values>()));
    }

    #[test]
    fn constructors_set_class() {
        assert_eq!(Object::new_plain(None).class, ObjectClass::Plain);
        assert_eq!(Object::new_array(0, None).class, ObjectClass::Array);
        let f = Object::new_function(Callee::Scripted(3), None);
        assert_eq!(f.class, ObjectClass::Function);
        assert_eq!(f.callee, Some(Callee::Scripted(3)));
    }
}
