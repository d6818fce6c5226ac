//! Static trace verification and failing-program reduction.
//!
//! A recorded trace is a linear SSA program whose only control flow is
//! guards, so its correctness conditions are local and checkable (Dissegna
//! et al. model tracing-JIT soundness exactly this way): every use is
//! dominated by its definition, every operand type matches what the
//! operation consumes, every referenced side exit has a descriptor, and
//! every exit's write-back map covers the operand-stack state it promises
//! to restore. [`verify_trace`] checks all of that before a trace is handed
//! to the backend; a violation is reported as a structured [`VerifyError`]
//! instead of compiled into garbage. [`verify_fragment`] re-checks the
//! backend's *output* — register ranges, spill discipline, exit tables,
//! AR slots, terminator placement — in the raw machine code register
//! allocation produces, which is also what a `.tmc` file hands back.
//!
//! The companion [`reduce`] module shrinks failing guest programs (found by
//! the differential fuzzer or by a verifier rejection) to minimal
//! regression tests via delta debugging.

#![warn(missing_docs)]

pub mod fragment;
pub mod reduce;
pub mod verify;

pub use fragment::{verify_fragment, verify_loaded_fragments, FragmentError};
pub use reduce::{as_regression_test, reduce_program, ReduceStats};
pub use verify::{verify_trace, ExitView, TypeClass, VerifyError};
