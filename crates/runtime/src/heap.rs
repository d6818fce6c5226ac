//! The garbage-collected heap: arenas for objects, strings, and boxed
//! doubles, plus an exact, non-generational, stop-the-world mark-and-sweep
//! collector — the collector the paper describes for SpiderMonkey (§6).
//!
//! Handles ([`ObjectId`], [`StringId`], [`DoubleId`]) are indexes into
//! non-moving arenas with free lists, so compiled traces can keep unboxed
//! handles in registers across helper calls. Collection only happens at
//! explicit safe points: the interpreter's allocation sites, and — for
//! allocations performed *on trace* — deferred until the trace exits (the
//! trace sets [`Heap::gc_pending`]; the monitor collects once the full root
//! set is reconstructible). This mirrors TraceMonkey's constraint that
//! traces do not update interpreter state until exiting.

use std::mem::offset_of;

use crate::object::Object;
use crate::value::{DoubleId, ObjectId, StringId, Unpacked, Value};

/// Statistics about collector activity, for tests and the bench harness.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GcStats {
    /// Number of collections performed.
    pub collections: u64,
    /// Objects freed over all collections.
    pub objects_freed: u64,
    /// Strings freed over all collections.
    pub strings_freed: u64,
    /// Boxed doubles freed over all collections.
    pub doubles_freed: u64,
}

/// The garbage-collected heap.
#[derive(Debug)]
pub struct Heap {
    /// Every object cell, live or free (a free cell holds an empty
    /// object and a `false` in `obj_live`).
    objects: Vec<Object>,
    obj_live: Vec<bool>,
    obj_free: Vec<u32>,
    /// The addresses of `objects[0]` and `doubles[0]`, republished
    /// whenever the arena grows: compiled code indexes the arenas from
    /// these ([`crate::object::layout`]).
    obj_base: usize,
    dbl_base: usize,
    strings: Vec<Option<Box<[u8]>>>,
    str_free: Vec<u32>,
    doubles: Vec<f64>,
    dbl_live: Vec<bool>,
    dbl_free: Vec<u32>,
    /// Allocations since the last collection (in arena cells).
    allocated_since_gc: usize,
    /// Allocation budget between collections.
    gc_threshold: usize,
    /// Set when an on-trace allocation crossed the GC threshold; the trace
    /// monitor collects at the next trace exit.
    pub gc_pending: bool,
    /// Extra roots pushed by code holding otherwise-unrooted intermediates.
    temp_roots: Vec<Value>,
    stats: GcStats,
}

impl Default for Heap {
    fn default() -> Self {
        Heap::new()
    }
}

impl Heap {
    /// Default allocation budget between collections.
    pub const DEFAULT_GC_THRESHOLD: usize = 1 << 20;

    /// Offset of the published object arena base.
    pub(crate) const OBJECT_BASE: usize = offset_of!(Heap, obj_base);
    /// Offset of the published double arena base.
    pub(crate) const DOUBLE_BASE: usize = offset_of!(Heap, dbl_base);

    /// Creates an empty heap.
    pub fn new() -> Heap {
        Heap {
            objects: Vec::new(),
            obj_live: Vec::new(),
            obj_free: Vec::new(),
            obj_base: 0,
            dbl_base: 0,
            strings: Vec::new(),
            str_free: Vec::new(),
            doubles: Vec::new(),
            dbl_live: Vec::new(),
            dbl_free: Vec::new(),
            allocated_since_gc: 0,
            gc_threshold: Heap::DEFAULT_GC_THRESHOLD,
            gc_pending: false,
            temp_roots: Vec::new(),
            stats: GcStats::default(),
        }
    }

    /// Sets the allocation budget between collections (useful to force
    /// frequent GC in tests).
    pub fn set_gc_threshold(&mut self, threshold: usize) {
        self.gc_threshold = threshold.max(1);
    }

    /// Collector statistics so far.
    pub fn gc_stats(&self) -> GcStats {
        self.stats
    }

    /// True when enough allocation has happened that the caller should
    /// collect at the next safe point.
    #[inline]
    pub fn should_collect(&self) -> bool {
        self.allocated_since_gc >= self.gc_threshold
    }

    // ---- allocation ----

    /// Allocates `obj`, returning its handle.
    pub fn alloc_object(&mut self, obj: Object) -> ObjectId {
        self.allocated_since_gc += 1 + obj.slots.len() + obj.elements.len();
        if let Some(i) = self.obj_free.pop() {
            self.objects[i as usize] = obj;
            self.obj_live[i as usize] = true;
            ObjectId(i)
        } else {
            self.objects.push(obj);
            self.obj_live.push(true);
            self.obj_base = self.objects.as_ptr() as usize;
            ObjectId((self.objects.len() - 1) as u32)
        }
    }

    /// Allocates a string from UTF-8 text, returning a string value.
    ///
    /// Guest strings are sequences of latin-1 code units (like 2009-era JS
    /// engines' 8-bit string path); characters above U+00FF are replaced
    /// with `?`.
    pub fn alloc_string(&mut self, s: &str) -> Value {
        let bytes: Vec<u8> = s
            .chars()
            .map(|c| if (c as u32) <= 0xFF { c as u32 as u8 } else { b'?' })
            .collect();
        self.alloc_string_bytes(bytes)
    }

    /// Allocates a string from raw latin-1 code units.
    pub fn alloc_string_bytes(&mut self, bytes: impl Into<Box<[u8]>>) -> Value {
        let s = bytes.into();
        self.allocated_since_gc += 1 + s.len() / 8;
        let id = if let Some(i) = self.str_free.pop() {
            self.strings[i as usize] = Some(s);
            StringId(i)
        } else {
            self.strings.push(Some(s));
            StringId((self.strings.len() - 1) as u32)
        };
        Value::new_string(id)
    }

    /// Boxes a double on the heap, returning a double value.
    ///
    /// Prefer [`Heap::number`], which uses the inline integer representation
    /// whenever possible.
    pub fn alloc_double(&mut self, d: f64) -> Value {
        self.allocated_since_gc += 1;
        let id = if let Some(i) = self.dbl_free.pop() {
            self.doubles[i as usize] = d;
            self.dbl_live[i as usize] = true;
            DoubleId(i)
        } else {
            self.doubles.push(d);
            self.dbl_live.push(true);
            self.dbl_base = self.doubles.as_ptr() as usize;
            DoubleId((self.doubles.len() - 1) as u32)
        };
        Value::new_double(id)
    }

    /// Boxes a numeric result, using the inline 31-bit integer representation
    /// when the value is integral and in range (the representation
    /// preference of §3.1: "the interpreter uses integer representations as
    /// much as it can").
    pub fn number(&mut self, d: f64) -> Value {
        // -0.0 must stay a double: it is distinguishable via 1/x.
        if d == d.trunc() && !(d == 0.0 && d.is_sign_negative()) {
            if let Some(v) = Value::new_int_checked(d as i64) {
                return v;
            }
        }
        self.alloc_double(d)
    }

    /// Boxes an `i32` numeric result (inline when in the 31-bit range).
    pub fn number_i32(&mut self, i: i32) -> Value {
        Value::new_int_checked(i64::from(i)).unwrap_or_else(|| self.alloc_double(f64::from(i)))
    }

    /// Boxes an `i64` numeric result.
    pub fn number_i64(&mut self, i: i64) -> Value {
        Value::new_int_checked(i).unwrap_or_else(|| self.alloc_double(i as f64))
    }

    // ---- accessors ----

    /// Immutable access to an object.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale (object was collected).
    #[inline]
    pub fn object(&self, id: ObjectId) -> &Object {
        assert!(self.obj_live[id.0 as usize], "stale object handle");
        &self.objects[id.0 as usize]
    }

    /// Mutable access to an object.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale (object was collected).
    #[inline]
    pub fn object_mut(&mut self, id: ObjectId) -> &mut Object {
        assert!(self.obj_live[id.0 as usize], "stale object handle");
        &mut self.objects[id.0 as usize]
    }

    /// The code units of a heap string.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    #[inline]
    pub fn string(&self, id: StringId) -> &[u8] {
        self.strings[id.0 as usize].as_deref().expect("stale string handle")
    }

    /// The text of a heap string, decoding latin-1 code units.
    pub fn string_text(&self, id: StringId) -> String {
        self.string(id).iter().map(|&b| b as char).collect()
    }

    /// The payload of a boxed double.
    #[inline]
    pub fn double(&self, id: DoubleId) -> f64 {
        self.doubles[id.0 as usize]
    }

    /// Numeric payload of a value known to be a number (inline int or boxed
    /// double); `None` otherwise.
    #[inline]
    pub fn number_value(&self, v: Value) -> Option<f64> {
        match v.unpack() {
            Unpacked::Int(i) => Some(f64::from(i)),
            Unpacked::Double(id) => Some(self.double(id)),
            _ => None,
        }
    }

    // ---- temporary roots ----

    /// Pushes a temporary root; pair with [`Heap::pop_temp_root`].
    pub fn push_temp_root(&mut self, v: Value) {
        self.temp_roots.push(v);
    }

    /// Pops the most recent temporary root.
    pub fn pop_temp_root(&mut self) {
        self.temp_roots.pop();
    }

    // ---- collection ----

    /// Runs a stop-the-world mark-and-sweep collection with the given roots
    /// (the caller supplies interpreter stacks, globals, and any trace
    /// activation record contents).
    pub fn collect(&mut self, roots: &[Value]) {
        let mut obj_marks = vec![false; self.objects.len()];
        let mut str_marks = vec![false; self.strings.len()];
        let mut dbl_marks = vec![false; self.doubles.len()];

        let mut work: Vec<Value> = Vec::with_capacity(roots.len() + self.temp_roots.len());
        work.extend_from_slice(roots);
        work.extend_from_slice(&self.temp_roots);

        while let Some(v) = work.pop() {
            match v.unpack() {
                Unpacked::Object(id) => {
                    let i = id.0 as usize;
                    if i >= obj_marks.len() || obj_marks[i] {
                        continue;
                    }
                    obj_marks[i] = true;
                    assert!(self.obj_live[i], "marking stale object");
                    let obj = &self.objects[i];
                    work.extend(obj.slots.iter().copied());
                    work.extend(obj.elements.iter().copied());
                    if let Some(proto) = obj.proto {
                        work.push(Value::new_object(proto));
                    }
                }
                Unpacked::String(id) => {
                    let i = id.0 as usize;
                    if i < str_marks.len() {
                        str_marks[i] = true;
                    }
                }
                Unpacked::Double(id) => {
                    let i = id.0 as usize;
                    if i < dbl_marks.len() {
                        dbl_marks[i] = true;
                    }
                }
                _ => {}
            }
        }

        // Sweep.
        for (i, cell) in self.objects.iter_mut().enumerate() {
            if self.obj_live[i] && !obj_marks[i] {
                // Free the storage; an empty object takes no heap memory.
                *cell = Object::new_plain(None);
                self.obj_live[i] = false;
                self.obj_free.push(i as u32);
                self.stats.objects_freed += 1;
            }
        }
        for (i, cell) in self.strings.iter_mut().enumerate() {
            if cell.is_some() && !str_marks[i] {
                *cell = None;
                self.str_free.push(i as u32);
                self.stats.strings_freed += 1;
            }
        }
        for i in 0..self.doubles.len() {
            if self.dbl_live[i] && !dbl_marks[i] {
                self.dbl_live[i] = false;
                self.dbl_free.push(i as u32);
                self.stats.doubles_freed += 1;
            }
        }

        self.allocated_since_gc = 0;
        self.gc_pending = false;
        self.stats.collections += 1;
    }

    /// Per arena (objects, strings, doubles): how many cells it has grown
    /// to and its free list in reuse order. Heaps that agree on this hold
    /// the same set of live handles and hand out the same handle for
    /// every future allocation — what a realm fingerprint must pin, since
    /// compiled traces embed handles.
    pub fn arena_layout(&self) -> [(usize, &[u32]); 3] {
        [
            (self.objects.len(), &self.obj_free),
            (self.strings.len(), &self.str_free),
            (self.doubles.len(), &self.dbl_free),
        ]
    }

    /// Number of live objects (diagnostic).
    pub fn live_objects(&self) -> usize {
        self.obj_live.iter().filter(|&&b| b).count()
    }

    /// Number of live strings (diagnostic).
    pub fn live_strings(&self) -> usize {
        self.strings.iter().filter(|c| c.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::Object;

    #[test]
    fn number_prefers_int_representation() {
        let mut h = Heap::new();
        assert_eq!(h.number(42.0).as_int(), Some(42));
        assert_eq!(h.number(-7.0).as_int(), Some(-7));
        assert!(h.number(0.5).as_double_id().is_some());
        assert!(h.number(1e18).as_double_id().is_some());
        // -0.0 must be boxed to preserve its sign.
        let neg_zero = h.number(-0.0);
        let id = neg_zero.as_double_id().expect("-0.0 boxed");
        assert!(h.double(id).is_sign_negative());
        // 2^30 does not fit in i31.
        assert!(h.number(1073741824.0).as_double_id().is_some());
        assert_eq!(h.number(1073741823.0).as_int(), Some(1073741823));
    }

    #[test]
    fn collect_frees_unreachable() {
        let mut h = Heap::new();
        let keep = h.alloc_object(Object::new_plain(None));
        let _drop1 = h.alloc_object(Object::new_plain(None));
        let _drop2 = h.alloc_string("garbage");
        let kept_str = h.alloc_string("kept");
        h.object_mut(keep).slots.push(kept_str);

        h.collect(&[Value::new_object(keep)]);
        assert_eq!(h.live_objects(), 1);
        assert_eq!(h.live_strings(), 1);
        assert_eq!(h.gc_stats().collections, 1);
        assert_eq!(h.gc_stats().objects_freed, 1);
        // The kept string is still readable through the kept object.
        let s = h.object(keep).slots[0].as_string().unwrap();
        assert_eq!(h.string(s), b"kept");
    }

    #[test]
    fn collect_traverses_elements_and_proto() {
        let mut h = Heap::new();
        let proto = h.alloc_object(Object::new_plain(None));
        let arr = h.alloc_object(Object::new_array(1, Some(proto)));
        let elem = h.alloc_object(Object::new_plain(None));
        h.object_mut(arr).set_element(0, Value::new_object(elem));

        h.collect(&[Value::new_object(arr)]);
        assert_eq!(h.live_objects(), 3);
    }

    #[test]
    fn freed_cells_are_reused() {
        let mut h = Heap::new();
        let a = h.alloc_object(Object::new_plain(None));
        h.collect(&[]);
        assert_eq!(h.live_objects(), 0);
        let b = h.alloc_object(Object::new_plain(None));
        assert_eq!(a, b, "free list should reuse the slot");
    }

    #[test]
    fn temp_roots_protect_values() {
        let mut h = Heap::new();
        let s = h.alloc_string("precious");
        h.push_temp_root(s);
        h.collect(&[]);
        assert_eq!(h.live_strings(), 1);
        h.pop_temp_root();
        h.collect(&[]);
        assert_eq!(h.live_strings(), 0);
    }

    #[test]
    fn cycles_are_collected() {
        let mut h = Heap::new();
        let a = h.alloc_object(Object::new_plain(None));
        let b = h.alloc_object(Object::new_plain(None));
        h.object_mut(a).slots.push(Value::new_object(b));
        h.object_mut(b).slots.push(Value::new_object(a));
        h.collect(&[]);
        assert_eq!(h.live_objects(), 0, "mark-sweep reclaims cycles");
    }

    #[test]
    fn should_collect_after_threshold() {
        let mut h = Heap::new();
        h.set_gc_threshold(4);
        assert!(!h.should_collect());
        for _ in 0..4 {
            let _ = h.alloc_object(Object::new_plain(None));
        }
        assert!(h.should_collect());
        h.collect(&[]);
        assert!(!h.should_collect());
    }
}
