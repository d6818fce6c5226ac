//! # tm-nanojit
//!
//! The trace compilation backend of the TraceMonkey reproduction — the
//! NanoJIT stand-in (§5): greedy one-pass register allocation onto a small
//! virtual register ISA (`MachInst`), and two tiers that run it — the
//! decoded executor, portable and the reference, and the native x86-64
//! backend ([`x64`]), which emits real machine code and is the default
//! where it is supported.
//!
//! "The trace compilation subsystem ... is separate from the VM and can be
//! used for other applications" — this crate depends only on `tm-lir` and
//! `tm-runtime` (for helper calls); the tracing policy lives in `tm-core`.
//! The method JIT has an instruction set of its own (`tm-methodjit`'s
//! `MInst`). DESIGN.md has the two-tier rationale.

pub mod assembler;
pub mod executor;
pub mod machinst;
pub mod peephole;
pub mod serial;
pub mod x64;

pub use assembler::assemble;
pub use executor::{
    execute, DecodedTree, DirectCounts, Link, NoNesting, TraceExit, TreeHost, Variables, MAX_LINKS,
};
pub use x64::{
    emit_tree, emit_tree_annotated, native_supported, register_map, DirectHop, DirectSite,
    HeapSites, NativeTree, SiteCount, Unsupported, WordFrom, WordMove,
};
pub use machinst::{Fragment, MachInst, Reg, EXIT_UNSTITCHED, NREGS, REG_FILE_WORDS, REG_MASK};
pub use peephole::{fuse, Decoded};
