//! Native x86-64 backend: emits real machine code for compiled trace trees.
//!
//! This is the second execution tier behind the decoded virtual-ISA
//! executor ([`crate::executor`]). Raw [`Fragment`](crate::Fragment)s —
//! the instructions the assembler emitted, as `.tmc` files store them —
//! are translated to machine code in a range of the process's one code
//! file, mapped `r-x` and written only with `pwrite`, one range per trace tree,
//! entered through a tiny JIT calling convention (`NativeCtx` in
//! `rt.rs`): the activation record, the memory file (with the spill area
//! after it) and the realm travel as raw pointers; guards compile to
//! compare-and-branch against per-exit trampolines that materialize the
//! exit index. Vregs `r0`..`r5` live in machine registers (rbp, r12,
//! r8–r11: [`register_map`]), the rest in the memory file. That needs no
//! state at a fragment's edges: `tm-verifier` proves every fragment writes
//! each vreg before reading it, and an exit hands over the activation
//! record alone, so where a vreg lives is unobservable. A tree's code
//! grows the way the tree does (§6.2): the range is reserved with spare
//! capacity, a new branch fragment is appended at the tail, and the
//! parent's exit trampoline is patched in place with a direct `jmp` to
//! the new body — every fragment is emitted exactly once
//! ([`NativeTree::append`]).
//!
//! The decoded executor remains the portable reference implementation and
//! the differential oracle: a native tree must produce byte-identical AR
//! contents *and* the same [`TraceExit`](crate::TraceExit) record —
//! including the `insts`/`iterations` counters, which the emitter
//! reconstructs by accumulating static per-exit-path counts of raw
//! instructions — for every program.
//!
//! Every `MachInst` family is covered. Pure int/double arithmetic,
//! guards, and AR traffic emit inline, and so do the object and double
//! families — shape/class/bound guards, slot and element loads and
//! stores, `ArrayLen` and double unboxes — against the layout
//! `tm_runtime::object::layout` publishes, re-reading the arena base at
//! every access. An index not below the live length, `LoadProto`,
//! `StrLen` and `Box(Double)` call tiny `extern "C"` shims (`rt.rs`)
//! that forward to the `tm_runtime::trace_helpers::heap_ops` functions
//! the decoded executor's match arms call. `CallHelper` marshals its
//! arguments into a ctx-inline buffer and dispatches through a per-tree
//! [`Helper`](tm_runtime::Helper) side table. `CallTree` (§4.1: the outer
//! trace calls the inner tree "like a subroutine") is a direct call of
//! the callee's code at a [`DirectSite`] (`transfer.rs`); every other
//! site re-enters the monitor's [`TreeHost`](crate::TreeHost) through a
//! type-erased trampoline, which runs the inner tree's own native buffer
//! when one is installed or bridges to the decoded tier when it isn't.
//! Helper/nested-tree errors land in an out-of-band slot and unwind the
//! buffer through the epilogue, so [`NativeTree::execute`] returns
//! `Result` exactly like the decoded [`crate::executor::execute`]. The
//! only remaining whole-tree fallback is a `CallHelper` whose arity
//! exceeds the inline argument buffer ([`unsupported_op`]).
//!
//! The backend is cut at its seams: `enc.rs` encodes instructions (the
//! only file that names opcode bytes), `lower.rs` lowers each `MachInst`
//! with local selection, `transfer.rs` lowers a direct site's word moves
//! and call, `rt.rs` holds the ctx native code runs against and the shims
//! it calls, and `buf.rs` keeps the code file, grows a tree's code in it
//! and runs it.
//!
//! On targets other than x86-64 Linux [`native_supported`] is false:
//! every emission is refused and the tier disables itself.

use std::collections::BTreeMap;
use std::sync::Arc;

use tm_lir::{ArSlot, LirType};

use crate::machinst::MachInst;

mod buf;
mod enc;
mod lower;
mod rt;
mod transfer;

pub use buf::{emit_tree, emit_tree_annotated, NativeTree};
pub use lower::register_map;

/// A tree's heap accesses by family (`GuardShape`, `LoadElem`,
/// `Unbox(Double)`, ...): how many sites its code lowers inline and
/// how many as a call of a heap shim.
pub type HeapSites = BTreeMap<&'static str, SiteCount>;

/// Sites of one heap family in a tree's code ([`HeapSites`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteCount {
    /// Inline against the object and double layout the runtime
    /// publishes (`tm_runtime::object::layout`).
    pub inline: u32,
    /// Calls of a shim.
    pub shim: u32,
}

/// Why a tree could not be translated to native code. Carried as an
/// `Err` from [`emit_tree`] and [`NativeTree::append`]; the monitor falls
/// back to the decoded executor for the whole tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unsupported {
    /// Mnemonic of the first op the emitter does not translate, the
    /// syscall the OS refused (`"memfd_create"`, `"ftruncate"`,
    /// `"mmap"`, `"pwrite"`), `"reservation"` when the code file is
    /// full, or the target when it has no backend.
    pub what: &'static str,
}

impl Unsupported {
    /// [`NativeTree::append`] ran out of reserved capacity. Unlike every
    /// other value this is no verdict on the tree: the caller rebuilds it
    /// whole with [`emit_tree`], which reserves a larger range.
    pub const FULL: Unsupported = Unsupported { what: "capacity" };
}

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "native backend: unsupported {}", self.what)
    }
}

/// Capacity of the per-run inline `CallHelper` argument buffer in the
/// JIT calling convention's ctx struct. No recorded helper call comes
/// close (the recorder builds at most a handful of operands), but the
/// pre-scan still rejects wider calls so emitted stores can never run
/// off the end of the buffer.
pub const MAX_HELPER_ARGS: usize = 8;

/// The ops [`emit_tree`] refuses. Since the full-coverage tier landed
/// this is only a `CallHelper` whose arity exceeds the inline argument
/// buffer ([`MAX_HELPER_ARGS`]); every other `MachInst` family emits.
/// Returns the mnemonic for diagnostics.
pub fn unsupported_op(inst: &MachInst) -> Option<&'static str> {
    match inst {
        MachInst::CallHelper { args, .. } if args.len() > MAX_HELPER_ARGS => {
            Some("CallHelper arity")
        }
        _ => None,
    }
}

/// Where a word of a direct call's transfer is read ([`DirectSite`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordFrom {
    /// A slot of the calling tree's record, holding a value of this type.
    Outer(ArSlot, LirType),
    /// A slot of the called tree's record, holding a value of this type.
    Inner(ArSlot, LirType),
    /// An interpreter variable, read by the host
    /// ([`crate::executor::TreeHost::variables`]).
    Host,
}

/// One word a direct call moves: slot `to` gets `from`, converted to
/// `ty` the way a round trip through the interpreter would convert it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordMove {
    /// Where the word is read.
    pub from: WordFrom,
    /// The slot it is written to.
    pub to: ArSlot,
    /// The type the slot holds.
    pub ty: LirType,
}

impl WordMove {
    /// Whether native code makes this move itself: the conversions that
    /// need no heap — an integer to an integer (refused outside the
    /// boxable 31 bits) or a double, a double to a double or to an
    /// integer (refused unless integral, not `-0` and in range), a
    /// boolean, object or string to its own type, and `undefined` to
    /// itself (a constant word: a `var` of a loop body before its first
    /// assignment). Host words are the host's to convert.
    pub fn lowers(&self) -> bool {
        use LirType::{Bool, Double, Int, Object, String, Undefined};
        match self.from {
            WordFrom::Host => true,
            WordFrom::Outer(_, from) | WordFrom::Inner(_, from) => matches!(
                (from, self.ty),
                (Int | Double, Int | Double)
                    | (Bool, Bool)
                    | (Object, Object)
                    | (String, String)
                    | (Undefined, Undefined)
            ),
        }
    }
}

/// A type-unstable sibling link (Figure 6) a [`DirectSite`]'s call
/// crosses: from one of `exits` of the tree before, `callee` runs next.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectHop {
    /// The link exits `(fragment, exit)` of the tree before, each with
    /// the bytecodes the host counts for a run that leaves through it.
    pub exits: Vec<((u32, u16), u64)>,
    /// The next tree's code and record length, as for the site's callee.
    pub callee: Arc<NativeTree>,
    pub callee_ar: usize,
    /// Its entry words (the record zeroed first), from the tree before's,
    /// every word read before any is written.
    pub moves: Vec<WordMove>,
}

/// A nested-call site whose `CallTree` the caller's code runs itself: it
/// moves the words of the site's transfer plan and calls the callee's
/// machine code, and the code of each sibling its links lead to, with no
/// host in between unless interpreter variables are read or written, or
/// the call does not come back as expected.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectSite {
    /// The callee's code. Held, so that every address the caller's code
    /// calls stays mapped while that code exists.
    pub callee: Arc<NativeTree>,
    /// Words in the callee's activation record.
    pub callee_ar: usize,
    /// The trees of the chain a call may start in, tried in order (the
    /// callee first), with the arguments into that tree's record (zeroed
    /// first): from the caller's record or the host.
    pub args: Vec<(usize, Vec<WordMove>)>,
    /// The links from the callee to the tree the call returns from.
    pub hops: Vec<DirectHop>,
    /// The exit `(fragment, exit)` of the last tree the site expects,
    /// with the bytecodes the host counts for it.
    pub expected: ((u32, u16), u64),
    /// After the expected exit, into the caller's record, every word
    /// read before any is written: from either record or the host.
    pub refresh: Vec<WordMove>,
    /// Whether the host then writes returned variables back.
    pub flush: bool,
    /// Test support: the code shows the host each link and return.
    pub observed: bool,
}

impl DirectSite {
    /// Every word the site moves.
    pub fn moves(&self) -> impl Iterator<Item = &WordMove> {
        let args = self.args.iter().flat_map(|(_, a)| a);
        args.chain(self.hops.iter().flat_map(|h| &h.moves)).chain(&self.refresh)
    }

    /// The code of every tree the site calls, in chain order.
    pub fn callees(&self) -> impl Iterator<Item = &Arc<NativeTree>> {
        std::iter::once(&self.callee).chain(self.hops.iter().map(|h| &h.callee))
    }
}

/// Whether this build can emit and run native code.
pub fn native_supported() -> bool {
    cfg!(all(target_arch = "x86_64", target_os = "linux"))
}

#[cfg(all(test, target_arch = "x86_64", target_os = "linux"))]
mod tests;
