//! # tm-nanojit
//!
//! The trace compilation backend of the TraceMonkey reproduction — the
//! NanoJIT stand-in (§5): greedy one-pass register allocation onto a small
//! virtual register ISA, plus the executor that runs compiled fragments.
//!
//! "The trace compilation subsystem ... is separate from the VM and can be
//! used for other applications" — this crate depends only on `tm-lir` and
//! `tm-runtime` (for helper calls); the tracing policy lives in `tm-core`
//! and the method JIT reuses the same ISA.
//!
//! See DESIGN.md for the virtual-ISA substitution rationale (real x86
//! emission → decode-loop ISA preserving the no-boxing/no-dispatch
//! execution profile the paper measures).

pub mod assembler;
pub mod executor;
pub mod machinst;
pub mod peephole;
pub mod serial;
pub mod x64;

pub use assembler::assemble;
pub use executor::{
    execute, DecodedTree, DirectCounts, NoNesting, TraceExit, TreeHost, Variables,
};
pub use x64::{
    emit_tree, emit_tree_annotated, native_supported, DirectSite, NativeTree, Unsupported,
    WordFrom, WordMove,
};
pub use machinst::{Fragment, MachInst, Reg, EXIT_UNSTITCHED, NREGS, REG_FILE_WORDS, REG_MASK};
pub use peephole::{fuse, Decoded};
