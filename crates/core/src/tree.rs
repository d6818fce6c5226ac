//! Trace trees and the trace cache (§3.2, §6.1).
//!
//! A [`TraceTree`] is a single-entry, multiple-exit collection of compiled
//! fragments sharing one activation-record layout: fragment 0 is the trunk
//! trace, later fragments are branch traces attached by stitching.
//! "Compiled traces are stored in a trace cache, indexed by interpreter PC
//! and type map" — [`TreeCache`] owns the trees; the monitor's dense slot
//! table keeps, per loop-header PC, the list of sibling trees (one per
//! entry type map; several when the loop is type-unstable, Figure 6).

use std::sync::Arc;

use tm_bytecode::{FuncId, LoopId};
use tm_nanojit::{DecodedTree, Fragment, NativeTree};

use crate::activation::{ArLayout, SlotBinding};
use crate::exit::SideExitInfo;
use crate::nest::SitePlans;

/// Identifies a tree in the [`TreeCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TreeId(pub u32);

/// A trace anchor: a loop header, the only place a trace starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Anchor {
    /// Function containing the loop.
    pub func: FuncId,
    /// Instruction index of the `LoopHeader` op.
    pub pc: u32,
    /// The loop's id: the dense index into the monitor's per-function
    /// slot table. Fully determined by `(func, pc)`.
    pub loop_id: LoopId,
}

impl Anchor {
    /// The anchor of the loop `loop_id`, whose header is at `func:pc`.
    pub fn loop_header(func: FuncId, pc: u32, loop_id: LoopId) -> Anchor {
        Anchor { func, pc, loop_id }
    }
}

/// Per-side-exit monitor state, stored densely parallel to
/// [`TreeCode::exits`] — a bounds-checked array access on the hot
/// exit-handling path where two `HashMap<(u32, u16), u32>`s used to be.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExitState {
    /// Hotness counter toward branch recording (§3.2: hot side exits grow
    /// the tree). Reset when the exit is blacklisted so long-running
    /// processes don't accumulate dead counters.
    pub counter: u32,
    /// Branch-recording failures at this exit; at the blacklist threshold
    /// the exit is never extended again.
    pub failures: u32,
}

/// A nested-tree call site recorded in an outer trace (§4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct NestedSite {
    /// The inner tree called.
    pub inner: TreeId,
    /// The tree the call returns from: `inner`, or the sibling a chain of
    /// type-unstable exits led to (Figure 6), followed inside the call.
    pub returns: TreeId,
    /// The (fragment, exit) of `returns` the call is expected to take —
    /// the "return to the same point every time" guard of §4.1.
    pub expected_exit: (u32, u16),
    /// Outer AR slots to refresh from interpreter state after the call,
    /// with the types the outer trace re-imports them at.
    pub reimports: Vec<SlotBinding>,
    /// Outer variables the outer trace knew at another type than the one
    /// the expected exit writes back: their slots are refreshed at that
    /// exit's type, as listed here, and the trace takes them over from a
    /// re-import.
    pub retyped: Vec<SlotBinding>,
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
    /// Times entered from the monitor. A chain of type-unstable sibling
    /// links the monitor follows counts once, against the tree it entered;
    /// nested calls never count.
    pub enters: u64,
    /// Loop-edge crossings executed natively, nested calls included.
    pub iterations: u64,
    /// Trunk bytecodes the monitor's entries ran natively, their sibling
    /// chains included: what §3.3 probation weighs against `enters`.
    pub native_bytecodes: u64,
}

/// What a realm runs a tree's fragments as: native x86-64 code, or the
/// decoded executor's dispatch form. Built at the tree's first run and
/// grown by each branch install; never serialized or shared, so trees
/// loaded from a `.tmc` or the shared cache start at `NotBuilt` and cost
/// nothing until they run. `Arc` because a run keeps the code alive while
/// the nesting host re-borrows the monitor.
#[derive(Debug, Default, Clone)]
pub enum ExecCode {
    /// The tree has not executed yet.
    #[default]
    NotBuilt,
    /// Machine code covering every fragment (`JitOptions::native_backend`).
    Native(Arc<NativeTree>),
    /// Every fragment decoded, and fused under
    /// `JitOptions::enable_fusion`: the native tier is off, or the emitter
    /// refused the tree (an oversized `CallHelper`) or the OS refused
    /// `mmap`/`mprotect`, and the tree runs decoded for good.
    Decoded(Arc<DecodedTree>),
}

/// Everything about a compiled tree that is fixed when a fragment is
/// installed: the one description the monitor, the nesting host, the
/// shared code cache and the `.tmc` codec all hold, behind an `Arc`.
/// Branch links live in the fragments themselves: `Fragment::stitch` is
/// the only link table, and an exit with a branch is never re-recorded.
/// Immutable once shared — a branch install grows it through
/// `Arc::make_mut`, so every other holder keeps the version it has.
#[derive(Debug, Clone)]
pub struct TreeCode {
    /// Loop header this tree anchors at.
    pub anchor: Anchor,
    /// Sibling identity in the shared code cache: anchor plus the entry
    /// map the tree was first installed with. Stable across branch
    /// extensions, so a republish replaces rather than duplicates.
    pub digest: u64,
    /// Activation-record layout shared by all fragments.
    pub layout: ArLayout,
    /// Compiled fragments; `[0]` is the trunk.
    pub fragments: Arc<Vec<Fragment>>,
    /// Side-exit descriptors, per fragment, indexed by exit id.
    pub exits: Vec<Vec<SideExitInfo>>,
    /// Bytecodes covered by each fragment (Figure 11 accounting).
    pub fragment_bytecodes: Vec<u32>,
    /// The entry type map: the AR slots the monitor populates (and checks)
    /// on entry. The monitor only ever enters at the trunk, so one map
    /// covers every fragment; a branch install appends the slots its
    /// fragment reads that the map lacks.
    pub entry: Vec<SlotBinding>,
    /// Nested call sites embedded in this tree's fragments.
    pub nested_sites: Vec<NestedSite>,
    /// Loop-persistent writes across all stable fragments: every exit must
    /// write these back.
    pub loop_writes: Vec<SlotBinding>,
    /// Whether the trunk ends type-unstable (`End` instead of `LoopBack`).
    pub unstable: bool,
}

/// A compiled trace tree as one realm holds it: the shared [`TreeCode`]
/// plus the realm's own counters and native code.
#[derive(Debug)]
pub struct TraceTree {
    /// The tree's id in the cache.
    pub id: TreeId,
    /// The compiled product (fields are reachable through `Deref`).
    pub code: Arc<TreeCode>,
    /// Monitor state per side exit (hotness, failures), parallel to
    /// [`TreeCode::exits`].
    pub exit_states: Vec<Vec<ExitState>>,
    /// Final (backward-filtered) LIR per fragment, retained when
    /// `JitOptions::log_events` is set — diagnostics and golden tests read
    /// the exact IR the backend compiled.
    pub lir: Vec<tm_lir::LirTrace>,
    /// Disabled trees are never entered (the §3.3 short-loop mitigation:
    /// calling them costs more than interpreting).
    pub disabled: bool,
    /// The code `fragments` run as, built at the first execution.
    pub exec: ExecCode,
    /// Transfer plans of this tree's nested-call sites: derived from this
    /// realm's trees, so never part of the shared [`TreeCode`].
    pub plans: SitePlans,
    /// Execution statistics.
    pub stats: TreeStats,
}

impl std::ops::Deref for TraceTree {
    type Target = TreeCode;

    fn deref(&self) -> &TreeCode {
        &self.code
    }
}

impl TraceTree {
    /// A realm's fresh handle on `code`: zeroed exit counters and
    /// statistics, no native code. The id is assigned by the cache.
    pub fn new(code: Arc<TreeCode>) -> TraceTree {
        let exit_states =
            code.exits.iter().map(|e| vec![ExitState::default(); e.len()]).collect();
        TraceTree {
            id: TreeId(0),
            code,
            exit_states,
            lir: Vec::new(),
            disabled: false,
            exec: ExecCode::NotBuilt,
            plans: SitePlans::default(),
            stats: TreeStats::default(),
        }
    }

    /// Mutable monitor state for exit `(frag, exit)`.
    #[inline]
    pub fn exit_state_mut(&mut self, frag: u32, exit: u16) -> &mut ExitState {
        &mut self.exit_states[frag as usize][exit as usize]
    }
}

/// The trace cache: all compiled trees by id. The per-anchor sibling
/// lists live in the monitor's dense slot table.
#[derive(Debug, Default)]
pub struct TreeCache {
    trees: Vec<TraceTree>,
    installs: u64,
}

impl TreeCache {
    /// Creates an empty cache.
    pub fn new() -> TreeCache {
        TreeCache::default()
    }

    /// Registers a new tree, returning its id.
    pub fn insert(&mut self, mut tree: TraceTree) -> TreeId {
        self.installs += 1;
        let id = TreeId(self.trees.len() as u32);
        tree.id = id;
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

    /// Mutable access to a tree, if `id` names one.
    pub fn get_mut(&mut self, id: TreeId) -> Option<&mut TraceTree> {
        self.trees.get_mut(id.0 as usize)
    }

    /// Access to a tree in order to grow its code: like an insertion, it
    /// moves [`TreeCache::installs`].
    pub fn tree_to_grow(&mut self, id: TreeId) -> &mut TraceTree {
        self.installs += 1;
        self.tree_mut(id)
    }

    /// How many times a tree was inserted or grown. Whatever is derived
    /// from several trees' code (a nested site's transfer plan) is current
    /// while this has not moved.
    pub fn installs(&self) -> u64 {
        self.installs
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

    /// Iterates mutably over all trees.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut TraceTree> {
        self.trees.iter_mut()
    }
}
