//! Trace trees and the trace cache (§3.2, §6.1).
//!
//! A [`TraceTree`] is a single-entry, multiple-exit collection of compiled
//! fragments sharing one activation-record layout: fragment 0 is the trunk
//! trace, later fragments are branch traces attached by stitching.
//! "Compiled traces are stored in a trace cache, indexed by interpreter PC
//! and type map" — [`TreeCache`] keeps, per loop-header PC, the list of
//! sibling trees (one per entry type map; several when the loop is
//! type-unstable, Figure 6).

use std::collections::HashMap;

use tm_bytecode::{FuncId, LoopId};
use tm_lir::{ArSlot, LirType};
use tm_nanojit::{Fragment, NativeTree};
use tm_runtime::{Realm, Value};

use std::sync::Arc;

use crate::activation::{value_matches, ArLayout, SlotKey};
use crate::exit::SideExitInfo;

/// Identifies a tree in the [`TreeCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TreeId(pub u32);

/// What kind of program point a trace tree anchors at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnchorKind {
    /// A `LoopHeader` op — the paper's loop anchors.
    LoopHeader,
    /// A function entry (pc 0), used to trace recursion: tail recursion
    /// closes into a loop at the entry, downward recursion unrolls to the
    /// inline-depth budget and re-enters the monitor at the deeper frame.
    FuncEntry,
}

/// A trace anchor: a loop header or a function entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Anchor {
    /// Function containing the anchor.
    pub func: FuncId,
    /// Instruction index of the `LoopHeader` op (loop anchors) or 0
    /// (function-entry anchors).
    pub pc: u32,
    /// The dense index into the monitor's per-function slot table: the
    /// loop's id for loop anchors, or one past the function's last loop id
    /// for the (single) entry anchor. Fully determined by `(func, pc, kind)`.
    pub loop_id: LoopId,
    /// Loop header or function entry.
    pub kind: AnchorKind,
}

impl Anchor {
    /// A loop-header anchor.
    pub fn loop_header(func: FuncId, pc: u32, loop_id: LoopId) -> Anchor {
        Anchor { func, pc, loop_id, kind: AnchorKind::LoopHeader }
    }

    /// The function-entry anchor of `func`, where `nloops` is the number
    /// of loops in `func` (the entry anchor uses the slot just past them).
    pub fn func_entry(func: FuncId, nloops: usize) -> Anchor {
        Anchor {
            func,
            pc: 0,
            loop_id: LoopId(nloops as u16),
            kind: AnchorKind::FuncEntry,
        }
    }

    /// Blacklist site key. Entry anchors use a sentinel pc so they never
    /// collide with a real loop header at pc 0.
    pub fn site_key(&self) -> (FuncId, u32) {
        match self.kind {
            AnchorKind::LoopHeader => (self.func, self.pc),
            AnchorKind::FuncEntry => (self.func, ENTRY_SITE_PC),
        }
    }
}

/// Sentinel pc used as the blacklist key of function-entry anchors.
pub const ENTRY_SITE_PC: u32 = u32::MAX;

/// Per-side-exit monitor state, stored densely parallel to
/// [`TraceTree::exits`] — a bounds-checked array access on the hot
/// exit-handling path where three `HashMap<(u32, u16), u32>`s used to be.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExitState {
    /// Hotness counter toward branch recording (§3.2: hot side exits grow
    /// the tree). Reset when the exit is blacklisted so long-running
    /// processes don't accumulate dead counters.
    pub counter: u32,
    /// Branch-recording failures at this exit; at the blacklist threshold
    /// the exit is never extended again.
    pub failures: u32,
    /// Attached branch fragment, if any (used for monitor-mediated branch
    /// calls when stitching is disabled, and to avoid re-recording).
    pub branch: Option<u32>,
}

/// One entry-type-map slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntrySlot {
    /// AR slot populated at entry.
    pub ar: ArSlot,
    /// Interpreter location it shadows.
    pub key: SlotKey,
    /// Required unboxed type.
    pub ty: LirType,
}

/// A nested-tree call site recorded in an outer trace (§4.1).
#[derive(Debug, Clone)]
pub struct NestedSite {
    /// The inner tree called.
    pub inner: TreeId,
    /// The (fragment, exit) the inner tree is expected to take — the
    /// "return to the same point every time" guard of §4.1.
    pub expected_exit: (u32, u16),
    /// Outer AR slots to refresh from interpreter state after the call,
    /// with the types the outer trace re-imports them at.
    pub reimports: Vec<(ArSlot, SlotKey, LirType)>,
    /// State-transfer recipe for the call site: how the nesting host syncs
    /// the outer AR into interpreter state before entering the inner tree.
    pub callsite: SideExitInfo,
    /// The exit id the call site snapshot came from (used to refresh the
    /// recipe after loop-write unioning).
    pub callsite_exit: u16,
}

/// Execution statistics for a tree.
#[derive(Debug, Default, Clone, Copy)]
pub struct TreeStats {
    /// Times entered from the monitor.
    pub enters: u64,
    /// Loop-edge crossings executed natively.
    pub iterations: u64,
    /// Side exits taken back to the monitor.
    pub monitor_exits: u64,
}

/// A tree's native x86-64 code (`JitOptions::native_backend`). Never
/// serialized or shared: trees loaded from a `.tmc` or the shared cache
/// start at `NotEmitted` and cost nothing until they run.
#[derive(Debug, Default)]
pub enum NativeCode {
    /// The tree has not executed yet (or the native tier is off).
    #[default]
    NotEmitted,
    /// Machine code covering every fragment of the tree, grown in place
    /// by each branch install. `Arc` because a run keeps the code alive
    /// while the nesting host re-borrows the monitor.
    Code(Arc<NativeTree>),
    /// The emitter refused the tree (an oversized `CallHelper`) or the
    /// OS refused `mmap`/`mprotect`: the tree runs decoded for good.
    Refused,
}

/// A compiled trace tree.
#[derive(Debug)]
pub struct TraceTree {
    /// The tree's id in the cache.
    pub id: TreeId,
    /// Loop header this tree anchors at.
    pub anchor: Anchor,
    /// Activation-record layout shared by all fragments.
    pub layout: ArLayout,
    /// Entry type map: slots the monitor populates (and checks) on entry.
    pub entry: Vec<EntrySlot>,
    /// Compiled fragments; `[0]` is the trunk. Shared so the executor can
    /// run them while the monitor (the nesting host) stays borrowable.
    pub fragments: Arc<Vec<Fragment>>,
    /// Side-exit descriptors, per fragment, indexed by exit id.
    pub exits: Vec<Vec<SideExitInfo>>,
    /// Bytecodes covered by each fragment (Figure 11 accounting).
    pub fragment_bytecodes: Vec<u32>,
    /// Monitor state per side exit (hotness, failures, attached branch),
    /// parallel to [`TraceTree::exits`].
    pub exit_states: Vec<Vec<ExitState>>,
    /// Per-fragment entry requirements: the AR slots (with types) that must
    /// be populated to enter execution at that fragment from the monitor.
    pub frag_entry_reqs: Vec<Vec<(ArSlot, SlotKey, LirType)>>,
    /// Nested call sites embedded in this tree's fragments.
    pub nested_sites: Vec<NestedSite>,
    /// Loop-persistent writes across all stable fragments: every exit must
    /// write these back.
    pub loop_writes: Vec<(ArSlot, SlotKey, LirType)>,
    /// Final (backward-filtered) LIR per fragment, retained when
    /// `JitOptions::log_events` is set — diagnostics and golden tests read
    /// the exact IR the backend compiled.
    pub lir: Vec<tm_lir::LirTrace>,
    /// Whether the trunk ends type-unstable (`End` instead of `LoopBack`).
    pub unstable: bool,
    /// Disabled trees are never entered (the §3.3 short-loop mitigation:
    /// calling them costs more than interpreting).
    pub disabled: bool,
    /// Native code for `fragments`, built at the first execution.
    pub native: NativeCode,
    /// Execution statistics.
    pub stats: TreeStats,
}

impl TreeStats {
    /// Native bytecodes attributed to this tree (Figure 11 accounting).
    pub fn native_bytecodes(&self, trunk_bc: u32) -> u64 {
        self.iterations * u64::from(trunk_bc)
    }
}

impl TraceTree {
    /// Monitor state for exit `(frag, exit)`.
    #[inline]
    pub fn exit_state(&self, frag: u32, exit: u16) -> &ExitState {
        &self.exit_states[frag as usize][exit as usize]
    }

    /// Mutable monitor state for exit `(frag, exit)`.
    #[inline]
    pub fn exit_state_mut(&mut self, frag: u32, exit: u16) -> &mut ExitState {
        &mut self.exit_states[frag as usize][exit as usize]
    }

    /// Reads the current interpreter-visible value for an entry key.
    /// Returns `None` for keys that are not observable at a loop header
    /// (they never appear in entry maps).
    pub fn read_entry_value(
        realm: &Realm,
        interp: &tm_interp::Interp,
        key: SlotKey,
    ) -> Option<Value> {
        match key {
            SlotKey::Global(g) => Some(realm.global(g)),
            SlotKey::Local { depth: 0, slot } => Some(interp.local(slot)),
            _ => None,
        }
    }

    /// Whether the current interpreter state matches this tree's entry
    /// type map.
    pub fn entry_matches(&self, realm: &Realm, interp: &tm_interp::Interp) -> bool {
        self.entry.iter().all(|e| {
            TraceTree::read_entry_value(realm, interp, e.key)
                .is_some_and(|v| value_matches(realm, v, e.ty))
        })
    }
}

/// The trace cache: all compiled trees, indexed by anchor.
#[derive(Debug, Default)]
pub struct TreeCache {
    trees: Vec<TraceTree>,
    by_anchor: HashMap<Anchor, Vec<TreeId>>,
}

impl TreeCache {
    /// Creates an empty cache.
    pub fn new() -> TreeCache {
        TreeCache::default()
    }

    /// Registers a new tree, returning its id.
    pub fn insert(&mut self, mut tree: TraceTree) -> TreeId {
        let id = TreeId(self.trees.len() as u32);
        tree.id = id;
        self.by_anchor.entry(tree.anchor).or_default().push(id);
        self.trees.push(tree);
        id
    }

    /// The tree with the given id.
    pub fn tree(&self, id: TreeId) -> &TraceTree {
        &self.trees[id.0 as usize]
    }

    /// Mutable access to a tree.
    pub fn tree_mut(&mut self, id: TreeId) -> &mut TraceTree {
        &mut self.trees[id.0 as usize]
    }

    /// All sibling trees anchored at `anchor`.
    pub fn trees_at(&self, anchor: Anchor) -> &[TreeId] {
        self.by_anchor.get(&anchor).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Finds a tree at `anchor` whose entry type map matches the current
    /// interpreter state — the trace-cache lookup of §6.1.
    pub fn find_match(
        &self,
        anchor: Anchor,
        realm: &Realm,
        interp: &tm_interp::Interp,
    ) -> Option<TreeId> {
        self.trees_at(anchor)
            .iter()
            .copied()
            .find(|&id| !self.tree(id).disabled && self.tree(id).entry_matches(realm, interp))
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Iterates over all trees.
    pub fn iter(&self) -> impl Iterator<Item = &TraceTree> {
        self.trees.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_with_entry(entry: Vec<EntrySlot>) -> TraceTree {
        TraceTree {
            id: TreeId(0),
            anchor: Anchor::loop_header(FuncId(0), 3, LoopId(0)),
            layout: ArLayout::new(),
            entry,
            fragments: Arc::new(vec![]),
            exits: vec![],
            fragment_bytecodes: vec![],
            exit_states: vec![],
            frag_entry_reqs: vec![],
            nested_sites: vec![],
            loop_writes: vec![],
            lir: vec![],
            unstable: false,
            disabled: false,
            native: NativeCode::NotEmitted,
            stats: TreeStats::default(),
        }
    }

    fn setup() -> (Realm, tm_interp::Interp) {
        let ast = tm_frontend::parse("var g = 1; var x = 0;").unwrap();
        let mut realm = Realm::new();
        let prog = tm_bytecode::compile(&ast, &mut realm).unwrap();
        let mut interp = tm_interp::Interp::new(prog, &mut realm);
        let _ = interp.run(&mut realm).unwrap();
        interp.reset();
        (realm, interp)
    }

    #[test]
    fn entry_matching_against_interp_state() {
        let (mut realm, interp) = setup();
        let g = realm.lookup_global("g").unwrap();
        realm.set_global(g, Value::new_int(5));

        let t_int = tree_with_entry(vec![EntrySlot {
            ar: 0,
            key: SlotKey::Global(g),
            ty: LirType::Int,
        }]);
        assert!(t_int.entry_matches(&realm, &interp));

        let d = realm.heap.alloc_double(0.5);
        realm.set_global(g, d);
        assert!(!t_int.entry_matches(&realm, &interp), "double does not match Int entry");

        let t_dbl = tree_with_entry(vec![EntrySlot {
            ar: 0,
            key: SlotKey::Global(g),
            ty: LirType::Double,
        }]);
        assert!(t_dbl.entry_matches(&realm, &interp));
    }

    #[test]
    fn cache_finds_first_matching_sibling() {
        let (mut realm, interp) = setup();
        let g = realm.lookup_global("g").unwrap();
        realm.set_global(g, Value::new_int(5));

        let mut cache = TreeCache::new();
        let anchor = Anchor::loop_header(FuncId(0), 3, LoopId(0));
        let t_dbl = tree_with_entry(vec![EntrySlot {
            ar: 0,
            key: SlotKey::Global(g),
            ty: LirType::Undefined,
        }]);
        let id_a = cache.insert(t_dbl);
        let t_int = tree_with_entry(vec![EntrySlot {
            ar: 0,
            key: SlotKey::Global(g),
            ty: LirType::Int,
        }]);
        let id_b = cache.insert(t_int);

        assert_eq!(cache.trees_at(anchor), &[id_a, id_b]);
        assert_eq!(cache.find_match(anchor, &realm, &interp), Some(id_b));
        realm.set_global(g, Value::UNDEFINED);
        assert_eq!(cache.find_match(anchor, &realm, &interp), Some(id_a));
        assert_eq!(cache.len(), 2);
    }
}
