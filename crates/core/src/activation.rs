//! Trace activation records: the unboxed shadow of interpreter state.
//!
//! "To make variable accesses fast on trace, the trace also imports local
//! and global variables by unboxing them and copying them to its activation
//! record" (§3.1). A [`SlotKey`] names an interpreter-visible location
//! relative to the trace entry frame; an [`ArLayout`] assigns each key a
//! slot in the flat activation record all of a tree's fragments share
//! ("identical type maps yield identical activation record layouts", §6.2
//! — ours are identical by construction: one layout per tree).

use tm_interp::Interp;
use tm_lir::{ArSlot, LirType};
use tm_runtime::{Realm, Unpacked, Value};
use tm_support::WordMap;

use crate::exit::SideExitInfo;

/// An interpreter-visible storage location, relative to the frame in which
/// the trace was entered (depth 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotKey {
    /// A realm global slot.
    Global(u32),
    /// Local `slot` of the frame at inline `depth` (0 = entry frame).
    Local {
        /// Inline frame depth.
        depth: u8,
        /// Local slot index.
        slot: u16,
    },
    /// Operand stack entry `idx` of the frame at inline `depth`.
    Stack {
        /// Inline frame depth.
        depth: u8,
        /// Position within that frame's operand stack.
        idx: u16,
    },
    /// A private re-import slot: holds a value refreshed by the nesting
    /// host after a `CallTree` (§4.1). Never part of entry maps or exit
    /// write-backs — the canonical slot for the underlying location keeps
    /// its own (possibly different) type.
    Reimport {
        /// The nested call site this re-import belongs to.
        site: u32,
        /// Ordinal within the site.
        idx: u16,
    },
}

impl SlotKey {
    /// The key of a tree entered `depth` inline frames below the entry
    /// frame, as the outer trace names it.
    pub fn rebased(self, depth: u8) -> SlotKey {
        match self {
            SlotKey::Local { depth: d, slot } => SlotKey::Local { depth: d + depth, slot },
            SlotKey::Stack { depth: d, idx } => SlotKey::Stack { depth: d + depth, idx },
            SlotKey::Global(_) | SlotKey::Reimport { .. } => self,
        }
    }
}

/// One activation-record slot bound to the interpreter location it
/// shadows and the unboxed type it holds there: the element of every
/// type map (entry requirements, exit write-backs and type maps, loop
/// writes, nested-call re-imports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotBinding {
    /// The AR slot.
    pub ar: ArSlot,
    /// Interpreter location it shadows.
    pub key: SlotKey,
    /// Unboxed type of the slot.
    pub ty: LirType,
}

/// Maps slot keys to activation-record slots for one trace tree.
#[derive(Debug, Clone, Default)]
pub struct ArLayout {
    slots: WordMap<SlotKey, ArSlot>,
    keys: Vec<SlotKey>,
}

impl ArLayout {
    /// Creates an empty layout.
    pub fn new() -> ArLayout {
        ArLayout::default()
    }

    /// The AR slot for `key`, allocating one on first use.
    pub fn slot(&mut self, key: SlotKey) -> ArSlot {
        if let Some(&s) = self.slots.get(&key) {
            return s;
        }
        let s = self.keys.len() as ArSlot;
        self.keys.push(key);
        self.slots.insert(key, s);
        s
    }

    /// The AR slot for `key` if already allocated.
    pub fn lookup(&self, key: SlotKey) -> Option<ArSlot> {
        self.slots.get(&key).copied()
    }

    /// The key stored at `slot`.
    pub fn key(&self, slot: ArSlot) -> SlotKey {
        self.keys[slot as usize]
    }

    /// Number of slots allocated.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the layout is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// A free list of activation-record buffers: a tree entry takes one and
/// the exit gives it back, so a warm monitor enters trees without
/// allocating.
#[derive(Debug, Default)]
pub struct ArPool(Vec<Vec<u64>>);

impl ArPool {
    /// A zeroed record of `len` words.
    pub fn take(&mut self, len: usize) -> Vec<u64> {
        let mut ar = self.0.pop().unwrap_or_default();
        ar.clear();
        ar.resize(len, 0);
        ar
    }

    /// Returns a record to the list.
    pub fn give(&mut self, ar: Vec<u64>) {
        self.0.push(ar);
    }
}

/// Checks whether a boxed interpreter value matches an entry type — the
/// trace-cache lookup test ("a trace can be entered if the PC and the types
/// of values match those observed when recording was started").
///
/// `Double` accepts any number (ints are widened at entry), `Int` requires
/// the inline integer representation, `Boxed` accepts anything.
#[inline]
pub fn value_matches(v: Value, ty: LirType) -> bool {
    match ty {
        LirType::Int => v.is_int(),
        LirType::Double => v.is_number(),
        LirType::Object => v.is_object(),
        LirType::String => v.is_string(),
        LirType::Bool => v.is_bool(),
        LirType::Null => v.is_null(),
        LirType::Undefined => v.is_undefined(),
        LirType::Boxed => true,
    }
}

/// Unboxes a value into the raw word representation for an AR slot of the
/// given type. The caller must have verified [`value_matches`].
#[inline]
pub fn unbox_to_word(realm: &Realm, v: Value, ty: LirType) -> u64 {
    match ty {
        LirType::Int => i64::from(v.as_int().expect("entry check")) as u64,
        LirType::Double => realm.heap.number_value(v).expect("entry check").to_bits(),
        LirType::Object => u64::from(v.as_object().expect("entry check").0),
        LirType::String => u64::from(v.as_string().expect("entry check").0),
        LirType::Bool => u64::from(v.as_bool().expect("entry check")),
        LirType::Null | LirType::Undefined | LirType::Boxed => v.raw(),
    }
}

/// Boxes a raw AR word back into a value per its exit type. Boxing a
/// double goes through `Heap::number`, which re-compresses integral values
/// into the inline integer representation — exactly what the interpreter
/// would have produced.
pub fn box_from_word(realm: &mut Realm, w: u64, ty: LirType) -> Value {
    match ty {
        LirType::Int => realm.heap.number_i32(w as i32),
        LirType::Double => realm.heap.number(f64::from_bits(w)),
        LirType::Object => Value::new_object(tm_runtime::ObjectId(w as u32)),
        LirType::String => Value::new_string(tm_runtime::StringId(w as u32)),
        LirType::Bool => Value::new_bool(w != 0),
        LirType::Null => Value::NULL,
        LirType::Undefined => Value::UNDEFINED,
        LirType::Boxed => Value::from_raw(w),
    }
}

/// Moves a word between two activation records: what `box_from_word`
/// at `from` followed by the entry check and `unbox_to_word` at `to`
/// yields, without the trip through the heap for the numeric, boolean and
/// handle pairs. `None` where the entry check would have refused the
/// boxed value: an `Int` word outside the inline 31-bit range boxes as a
/// double cell, which an `Int` slot rejects, and only an integral double
/// other than `-0.0` re-compresses to an inline integer.
#[inline]
pub fn transfer(realm: &mut Realm, w: u64, from: LirType, to: LirType) -> Option<u64> {
    use LirType::{Bool, Double, Int, Object, String};
    match (from, to) {
        (Int, Int) => {
            let i = i64::from(w as i32);
            Value::fits_int(i).then_some(i as u64)
        }
        (Int, Double) => Some(f64::from(w as i32).to_bits()),
        (Double, Double) => Some(w),
        (Double, Int) => {
            let d = f64::from_bits(w);
            let inline = d == d.trunc() && !(d == 0.0 && d.is_sign_negative());
            (inline && Value::fits_int(d as i64)).then_some(d as i64 as u64)
        }
        (Bool, Bool) => Some(u64::from(w != 0)),
        (Object, Object) | (String, String) => Some(u64::from(w as u32)),
        _ => {
            let v = box_from_word(realm, w, from);
            value_matches(v, to).then(|| unbox_to_word(realm, v, to))
        }
    }
}

/// The observed [`LirType`] of a concrete value (used when choosing entry
/// types during recording).
pub fn observed_type(v: Value) -> LirType {
    match v.unpack() {
        Unpacked::Int(_) => LirType::Int,
        Unpacked::Double(_) => LirType::Double,
        Unpacked::Object(_) => LirType::Object,
        Unpacked::String(_) => LirType::String,
        Unpacked::Bool(_) => LirType::Bool,
        Unpacked::Null => LirType::Null,
        Unpacked::Undefined => LirType::Undefined,
    }
}

/// Reads the interpreter-visible value for `key` relative to
/// `entry_frame_idx`, or `None` when the location is not materialized.
#[inline]
pub fn read_slot(
    interp: &Interp,
    realm: &Realm,
    entry_frame_idx: usize,
    key: SlotKey,
) -> Option<Value> {
    match key {
        SlotKey::Global(g) => Some(realm.global(g)),
        SlotKey::Local { depth, slot } => {
            let fidx = entry_frame_idx + depth as usize;
            if fidx >= interp.frames.len() {
                return None;
            }
            Some(interp.local_at(fidx, slot))
        }
        SlotKey::Stack { depth, idx } => {
            let fidx = entry_frame_idx + depth as usize;
            if fidx >= interp.frames.len() {
                return None;
            }
            let frame = interp.frames[fidx];
            let nlocals = interp.prog().function(frame.func).nlocals as usize;
            let pos = frame.base as usize + nlocals + idx as usize;
            // The entry must be within this frame's live operand stack.
            let limit = interp
                .frames
                .get(fidx + 1)
                .map(|next| next.base as usize - 1)
                .unwrap_or(interp.stack.len());
            if pos >= limit {
                return None;
            }
            Some(interp.stack[pos])
        }
        SlotKey::Reimport { .. } => None,
    }
}

/// The word an interpreter location holds for binding `b`, or `None` when
/// the location is not materialized or its value does not match `b`'s
/// type: the per-slot step of [`import`] and of [`run_moves`]'s
/// interpreter-sourced moves.
#[inline]
pub(crate) fn unboxed(
    interp: &Interp,
    realm: &Realm,
    frame: usize,
    b: &SlotBinding,
) -> Option<u64> {
    let v = read_slot(interp, realm, frame, b.key)?;
    value_matches(v, b.ty).then(|| unbox_to_word(realm, v, b.ty))
}

/// Interpreter state → activation record: type-checks and unboxes every
/// binding in one pass (§6.1: "check the type map, unbox into the
/// activation record"). Returns `false` at the first location that is not
/// materialized or whose value does not match its binding's type; `ar` is
/// then partially written and must not be run. The interpreter-only case
/// of [`run_moves`], written in place because tree entry takes it on
/// every monitor transition.
///
/// Generic, so instantiated in the caller's codegen unit: the per-slot
/// helpers are `#[inline]` so that the loop body does not become
/// out-of-line calls per slot (8 % of a `heap-strings` round).
pub fn import<'a>(
    bindings: impl IntoIterator<Item = &'a SlotBinding>,
    interp: &Interp,
    realm: &Realm,
    entry_frame_idx: usize,
    ar: &mut [u64],
) -> bool {
    bindings.into_iter().all(|b| {
        unboxed(interp, realm, entry_frame_idx, b).map(|w| ar[b.ar as usize] = w).is_some()
    })
}

/// Where a word moved into an activation record is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The interpreter location the destination binding shadows.
    Interp,
    /// A slot of the record being written, holding a value of this type.
    Own(ArSlot, LirType),
    /// A slot of the other record, holding a value of this type.
    Other(ArSlot, LirType),
}

/// One word moved into an activation record: `to` is filled from `from`,
/// converted the way a round trip through the interpreter would have
/// ([`transfer`]; [`import`]'s entry check for [`Source::Interp`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// Where the word is read.
    pub from: Source,
    /// The slot it is written to, and the location and type it holds there.
    pub to: SlotBinding,
}

/// Runs `moves` into `dst`, whose interpreter locations are relative to
/// `frame`; `other` is the second record. Every word is read and converted
/// (into `words`, scratch) before any is written: a slot can be listed at
/// two types, and a later move may read what an earlier one replaces.
/// `false` at the first refusal, with `dst` untouched.
pub fn run_moves(
    moves: &[Move],
    dst: &mut [u64],
    other: &[u64],
    interp: &Interp,
    realm: &mut Realm,
    frame: usize,
    words: &mut Vec<u64>,
) -> bool {
    words.clear();
    for m in moves {
        let w = match m.from {
            Source::Interp => unboxed(interp, realm, frame, &m.to),
            Source::Own(slot, ty) => transfer(realm, dst[slot as usize], ty, m.to.ty),
            Source::Other(slot, ty) => transfer(realm, other[slot as usize], ty, m.to.ty),
        };
        match w {
            Some(w) => words.push(w),
            None => return false,
        }
    }
    for (m, &w) in moves.iter().zip(words.iter()) {
        dst[m.to.ar as usize] = w;
    }
    true
}

/// Activation record → interpreter state, according to a side exit's
/// recipe: boxes written slots back, synthesizes inlined frames, and
/// positions the pc (§6.1: "it pops or synthesizes interpreter JavaScript
/// call stack frames as needed \[and\] copies the imported variables back").
pub fn export(
    exit: &SideExitInfo,
    ar: &[u64],
    entry_frame_idx: usize,
    interp: &mut Interp,
    realm: &mut Realm,
) {
    // Drop any frames above the entry frame (stale state from an inner
    // tree's deeper exit, superseded by this outer exit).
    interp.frames.truncate(entry_frame_idx + 1);
    let entry_base = interp.frames[entry_frame_idx].base as usize;
    let entry_func = interp.frames[entry_frame_idx].func;
    let entry_nlocals = interp.prog().function(entry_func).nlocals as usize;
    interp.stack.truncate(entry_base + entry_nlocals);

    write_variables(&exit.write_back, ar, entry_frame_idx, interp, realm);
    // Entry-frame operand stack, in push order.
    push_frame_stack(exit, 0, ar, interp, realm);
    interp.frames[entry_frame_idx].pc = exit.frames[0].resume_pc;

    // Synthesize inlined frames (§3.1 frame reconstruction).
    for (d, fd) in exit.frames.iter().enumerate().skip(1) {
        let d8 = d as u8;
        // The callee function object sits beneath the frame.
        interp.stack.push(Value::from_raw(fd.callee_raw));
        let base = interp.stack.len();
        let nlocals = interp.prog().function(fd.func).nlocals;
        for want in 0..nlocals {
            let mut v = Value::UNDEFINED;
            for b in &exit.write_back {
                if b.key == (SlotKey::Local { depth: d8, slot: want }) {
                    v = box_from_word(realm, ar[b.ar as usize], b.ty);
                    break;
                }
            }
            interp.stack.push(v);
        }
        push_frame_stack(exit, d8, ar, interp, realm);
        interp.frames.push(tm_interp::Frame {
            func: fd.func,
            pc: fd.resume_pc,
            base: base as u32,
            is_construct: fd.is_construct,
        });
    }
}

/// Boxes the variables among `bindings` — globals and entry-frame locals —
/// back in place; operand-stack entries and inlined frames are
/// [`export`]'s. All of a nested call's return that a later exit of the
/// calling trace would not redo.
pub fn write_variables(
    bindings: &[SlotBinding],
    ar: &[u64],
    entry_frame_idx: usize,
    interp: &mut Interp,
    realm: &mut Realm,
) {
    let entry_base = interp.frames[entry_frame_idx].base as usize;
    for b in bindings {
        match b.key {
            SlotKey::Global(g) => {
                let v = box_from_word(realm, ar[b.ar as usize], b.ty);
                realm.set_global(g, v);
            }
            SlotKey::Local { depth: 0, slot: l } => {
                let v = box_from_word(realm, ar[b.ar as usize], b.ty);
                interp.stack[entry_base + l as usize] = v;
            }
            _ => {}
        }
    }
}

/// Pushes frame `depth`'s operand-stack entries in index order.
fn push_frame_stack(
    exit: &SideExitInfo,
    depth: u8,
    ar: &[u64],
    interp: &mut Interp,
    realm: &mut Realm,
) {
    for want in 0..exit.frames[depth as usize].stack_depth {
        let mut found = None;
        for b in &exit.write_back {
            if b.key == (SlotKey::Stack { depth, idx: want }) {
                found = Some(box_from_word(realm, ar[b.ar as usize], b.ty));
                break;
            }
        }
        interp.stack.push(found.expect("exit stack entries are written"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_stable() {
        let mut l = ArLayout::new();
        let a = l.slot(SlotKey::Global(3));
        let b = l.slot(SlotKey::Local { depth: 0, slot: 1 });
        let a2 = l.slot(SlotKey::Global(3));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(l.key(a), SlotKey::Global(3));
        assert_eq!(l.lookup(SlotKey::Stack { depth: 0, idx: 0 }), None);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn box_unbox_round_trips() {
        let mut realm = Realm::new();
        // Int.
        let v = Value::new_int(-7);
        assert!(value_matches(v, LirType::Int));
        let w = unbox_to_word(&realm, v, LirType::Int);
        assert_eq!(box_from_word(&mut realm, w, LirType::Int), v);
        // Double slot accepts ints and re-compresses on exit.
        assert!(value_matches(v, LirType::Double));
        let w = unbox_to_word(&realm, v, LirType::Double);
        assert_eq!(f64::from_bits(w), -7.0);
        assert_eq!(box_from_word(&mut realm, w, LirType::Double), v);
        // Non-integral double boxes as a double.
        let d = realm.heap.alloc_double(2.5);
        let w = unbox_to_word(&realm, d, LirType::Double);
        let back = box_from_word(&mut realm, w, LirType::Double);
        assert_eq!(realm.heap.number_value(back), Some(2.5));
        // Strings, bools, specials.
        let s = realm.heap.alloc_string("x");
        let w = unbox_to_word(&realm, s, LirType::String);
        assert_eq!(box_from_word(&mut realm, w, LirType::String), s);
        let w = unbox_to_word(&realm, Value::TRUE, LirType::Bool);
        assert_eq!(box_from_word(&mut realm, w, LirType::Bool), Value::TRUE);
        assert_eq!(box_from_word(&mut realm, 0, LirType::Undefined), Value::UNDEFINED);
    }

    #[test]
    fn type_matching_rules() {
        let mut realm = Realm::new();
        let i = Value::new_int(1);
        let d = realm.heap.alloc_double(0.5);
        assert!(value_matches(i, LirType::Int));
        assert!(!value_matches(d, LirType::Int), "Int slots are strict");
        assert!(value_matches(d, LirType::Double));
        assert!(value_matches(i, LirType::Double), "Double slots accept ints");
        assert!(value_matches(Value::NULL, LirType::Null));
        assert!(!value_matches(Value::NULL, LirType::Undefined));
        assert!(value_matches(Value::NULL, LirType::Boxed));
    }

    #[test]
    fn observed_types() {
        let mut realm = Realm::new();
        assert_eq!(observed_type(Value::new_int(3)), LirType::Int);
        let d = realm.heap.alloc_double(0.5);
        assert_eq!(observed_type(d), LirType::Double);
        assert_eq!(observed_type(Value::UNDEFINED), LirType::Undefined);
    }

    use crate::exit::{ExitKind, FrameDesc};
    use tm_runtime::ObjectId;

    const TYPES: [LirType; 8] = [
        LirType::Int,
        LirType::Double,
        LirType::Object,
        LirType::String,
        LirType::Bool,
        LirType::Null,
        LirType::Undefined,
        LirType::Boxed,
    ];

    /// A value of exactly type `ty` (for `Boxed`: any value).
    fn sample(realm: &mut Realm, ty: LirType) -> Value {
        match ty {
            LirType::Int => Value::new_int(-7),
            LirType::Double => realm.heap.alloc_double(2.5),
            LirType::Object => Value::new_object(ObjectId(3)),
            LirType::String => realm.heap.alloc_string("x"),
            LirType::Bool => Value::TRUE,
            LirType::Null => Value::NULL,
            LirType::Undefined => Value::UNDEFINED,
            LirType::Boxed => Value::new_int(9),
        }
    }

    /// An interpreter stopped in an eight-local function, eight globals,
    /// and an exit that writes every type through every key kind: globals,
    /// entry-frame locals and operand stack, and an inlined frame of the
    /// same function whose operand stack holds three entries.
    fn fixture() -> (Realm, Interp, Vec<u32>, SideExitInfo, Vec<u64>) {
        let mut realm = Realm::new();
        let src = "function f(a, b, c, d, e, f, g) { return a; }
                   var g0, g1, g2, g3, g4, g5, g6, g7;";
        let prog = tm_bytecode::compile(&tm_frontend::parse(src).unwrap(), &mut realm).unwrap();
        let func = tm_bytecode::FuncId(
            prog.functions.iter().position(|f| f.nlocals == 8).expect("this + 7 parameters") as u32,
        );
        let mut interp = Interp::new(prog, &mut realm);
        interp.frames[0].func = func;
        interp.stack.resize(8, Value::UNDEFINED);
        let globals: Vec<u32> =
            (0..8).map(|i| realm.lookup_global(&format!("g{i}")).unwrap()).collect();

        let mut write_back = Vec::new();
        let mut ar = Vec::new();
        let mut bind = |realm: &mut Realm, key, ty| {
            let v = sample(realm, ty);
            write_back.push(SlotBinding { ar: ar.len() as ArSlot, key, ty });
            ar.push(unbox_to_word(realm, v, ty));
        };
        for (i, &ty) in TYPES.iter().enumerate() {
            let i = i as u16;
            bind(&mut realm, SlotKey::Global(globals[i as usize]), ty);
            bind(&mut realm, SlotKey::Local { depth: 0, slot: i }, ty);
            bind(&mut realm, SlotKey::Stack { depth: 0, idx: i }, ty);
            bind(&mut realm, SlotKey::Local { depth: 1, slot: i }, ty);
            if i < 3 {
                bind(&mut realm, SlotKey::Stack { depth: 1, idx: i }, ty);
            }
        }
        let frame = |resume_pc, stack_depth, callee_raw| FrameDesc {
            func,
            resume_pc,
            stack_depth,
            is_construct: false,
            callee_raw,
        };
        let exit = SideExitInfo {
            kind: ExitKind::Branch,
            frames: vec![frame(1, 8, 0), frame(2, 3, Value::new_int(77).raw())],
            write_back,
            oracle_hint: vec![],
            typemap: vec![],
            arith_site: None,
        };
        (realm, interp, globals, exit, ar)
    }

    /// The reference for [`transfer`] is the round trip it replaces.
    #[test]
    fn transfer_is_box_then_entry_check_then_unbox_for_every_type_pair() {
        use tm_runtime::value::{INT_MAX, INT_MIN};
        let mut realm = Realm::new();
        let object = u64::from(realm.heap.alloc_object(tm_runtime::Object::new_plain(None)).0);
        let string = u64::from(realm.heap.alloc_string("live").as_string().unwrap().0);
        let half = realm.heap.alloc_double(0.5).raw();
        let int = |i: i64| i as u64;
        let mut words = vec![
            0,
            1,
            int(-1),
            int(INT_MAX),
            int(INT_MAX + 1),
            int(INT_MIN),
            int(INT_MIN - 1),
            int(i64::from(i32::MIN)),
            int(i64::from(i32::MAX)),
            // The same integers as a native 32-bit store leaves them.
            u64::from(-1i32 as u32),
            u64::from((INT_MIN - 1) as i32 as u32),
            object,
            string,
        ];
        // What a boxed slot can hold: values.
        let values = [
            Value::TRUE.raw(),
            Value::FALSE.raw(),
            Value::NULL.raw(),
            Value::UNDEFINED.raw(),
            Value::new_int(-7).raw(),
            Value::new_int(INT_MAX as i32).raw(),
            Value::new_object(ObjectId(object as u32)).raw(),
            Value::new_string(tm_runtime::StringId(string as u32)).raw(),
            half,
        ];
        words.extend(values);
        let doubles = [
            0.0,
            -0.0,
            0.5,
            -1.0,
            INT_MAX as f64,
            (INT_MAX + 1) as f64,
            INT_MIN as f64,
            (INT_MIN - 1) as f64,
            2f64.powi(31),
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        words.extend(doubles.map(f64::to_bits));

        // What a word means at a type, so that two boxings of one double
        // (distinct cells) compare equal.
        let meaning = |realm: &mut Realm, w: u64, ty: LirType| match ty {
            LirType::Boxed => match Value::from_raw(w).unpack() {
                Unpacked::Double(d) => format!("double {:#x}", realm.heap.double(d).to_bits()),
                other => format!("{other:?}"),
            },
            _ => format!("{w:#x}"),
        };
        for from in TYPES {
            for to in TYPES {
                for &w in &words {
                    // A handle type only ever holds a live handle, and a
                    // boxed slot a value.
                    let holds = match from {
                        LirType::Object => w == object,
                        LirType::String => w == string,
                        LirType::Boxed => values.contains(&w),
                        _ => true,
                    };
                    if !holds {
                        continue;
                    }
                    let boxed = box_from_word(&mut realm, w, from);
                    let reference =
                        value_matches(boxed, to).then(|| unbox_to_word(&realm, boxed, to));
                    let moved = transfer(&mut realm, w, from, to);
                    assert_eq!(moved.is_some(), reference.is_some(), "{w:#x} {from:?}->{to:?}");
                    if let (Some(m), Some(r)) = (moved, reference) {
                        let (m, r) = (meaning(&mut realm, m, to), meaning(&mut realm, r, to));
                        assert_eq!(m, r, "{w:#x} {from:?}->{to:?}");
                    }
                }
            }
        }
        // The refusals the nesting host relies on, spelled out.
        let mut t = |w, from, to| transfer(&mut realm, w, from, to);
        assert_eq!(t(int(INT_MAX + 1), LirType::Int, LirType::Int), None, "boxes as a double");
        assert_eq!(
            t(int(INT_MAX + 1), LirType::Int, LirType::Double),
            Some(((INT_MAX + 1) as f64).to_bits())
        );
        assert_eq!(t(3f64.to_bits(), LirType::Double, LirType::Int), Some(3));
        assert_eq!(t((-3f64).to_bits(), LirType::Double, LirType::Int), Some(int(-3)));
        assert_eq!(t((-0f64).to_bits(), LirType::Double, LirType::Int), None);
        assert_eq!(t(0.5f64.to_bits(), LirType::Double, LirType::Int), None);
        assert_eq!(t(7, LirType::Bool, LirType::Bool), Some(1), "normalised");
        assert_eq!(t(object, LirType::Object, LirType::String), None);
    }

    #[test]
    fn import_and_export_round_trip_every_type_through_every_key_kind() {
        let (mut realm, mut interp, _, exit, ar) = fixture();
        export(&exit, &ar, 0, &mut interp, &mut realm);
        // Entry frame: 8 locals + 8 operands; callee; inlined frame: 8 + 3.
        assert_eq!(interp.stack.len(), 16 + 1 + 11);
        assert_eq!(interp.stack[16], Value::new_int(77), "callee sits beneath the frame");
        assert_eq!(interp.frames.len(), 2);
        assert_eq!((interp.frames[0].pc, interp.frames[1].pc), (1, 2));
        assert_eq!(interp.frames[1].base, 17);

        let mut back = vec![0u64; ar.len()];
        assert!(import(&exit.write_back, &interp, &realm, 0, &mut back));
        assert_eq!(back, ar);

        // And the other way round, from a state with frames to drop.
        let shown = |interp: &Interp, realm: &mut Realm| -> Vec<String> {
            let stack = interp.stack.clone();
            stack.into_iter().map(|v| tm_runtime::ops::to_display(realm, v)).collect()
        };
        let before = shown(&interp, &mut realm);
        interp.stack.push(Value::NULL);
        interp.frames.push(interp.frames[1]);
        export(&exit, &back, 0, &mut interp, &mut realm);
        assert_eq!(shown(&interp, &mut realm), before);
        assert_eq!(interp.frames.len(), 2);
    }

    #[test]
    fn import_refuses_each_mismatch_and_leaves_the_interpreter_alone() {
        let (mut realm, mut interp, globals, exit, ar) = fixture();
        export(&exit, &ar, 0, &mut interp, &mut realm);
        let (stack, nframes) = (interp.stack.clone(), interp.frames.len());
        let global_words: Vec<u64> = globals.iter().map(|&g| realm.global(g).raw()).collect();
        let refused = |key, ty| {
            let mut scratch = vec![0u64; 1];
            !import(&[SlotBinding { ar: 0, key, ty }], &interp, &realm, 0, &mut scratch)
        };

        // A value of another type, for every type that excludes one, at
        // every kind of location. `TYPES[i]` lives at index `i` everywhere.
        for (i, &have) in TYPES.iter().enumerate() {
            let i = i as u16;
            for want in TYPES {
                let accepts = want == have
                    || want == LirType::Boxed
                    || (want == LirType::Double && have == LirType::Int)
                    // The `Boxed` sample is an int.
                    || (have == LirType::Boxed
                        && matches!(want, LirType::Int | LirType::Double));
                for key in [
                    SlotKey::Global(globals[i as usize]),
                    SlotKey::Local { depth: 0, slot: i },
                    SlotKey::Stack { depth: 0, idx: i },
                    SlotKey::Local { depth: 1, slot: i },
                ] {
                    assert_eq!(refused(key, want), !accepts, "{have:?} at {key:?} as {want:?}");
                }
            }
        }
        // Locations that are not materialized.
        assert!(refused(SlotKey::Local { depth: 2, slot: 0 }, LirType::Boxed), "no such frame");
        assert!(refused(SlotKey::Stack { depth: 2, idx: 0 }, LirType::Boxed), "no such frame");
        assert!(refused(SlotKey::Stack { depth: 0, idx: 8 }, LirType::Boxed), "the callee slot");
        assert!(refused(SlotKey::Stack { depth: 1, idx: 3 }, LirType::Boxed), "above the top");
        assert!(!refused(SlotKey::Stack { depth: 1, idx: 2 }, LirType::Boxed), "the top entry");
        assert!(refused(SlotKey::Reimport { site: 0, idx: 0 }, LirType::Boxed));
        // One bad binding refuses the whole list.
        let mut all = exit.write_back.clone();
        all.push(SlotBinding { ar: 0, key: SlotKey::Global(globals[0]), ty: LirType::String });
        assert!(!import(&all, &interp, &realm, 0, &mut vec![0u64; ar.len()]));

        assert_eq!((&interp.stack, interp.frames.len()), (&stack, nframes));
        let now: Vec<u64> = globals.iter().map(|&g| realm.global(g).raw()).collect();
        assert_eq!(now, global_words);
    }
}
