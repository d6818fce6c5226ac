//! # tm-lir
//!
//! Trace-flavored SSA LIR and its optimization filter pipelines — the
//! NanoJIT LIR layer of the TraceMonkey reproduction (paper §3.1, §5.1).
//!
//! Traces are linear instruction sequences with guards as the only control
//! flow. Optimization runs as the paper describes: forward filters stream
//! over instructions *as the recorder emits them* ([`LirBuffer`]), backward
//! filters run once recording completes
//! ([`backward::run_backward_filters`]), so the whole trace is optimized in
//! "just two loop passes ... one forward and one backward".
//!
//! ```
//! use tm_lir::{AluOp, FilterOptions, Lir, LirBuffer, LirType};
//!
//! let mut buf = LirBuffer::new(FilterOptions::default());
//! let x = buf.emit(Lir::Import { slot: 0, ty: LirType::Int });
//! let k = buf.emit(Lir::ConstI(0));
//! // The algebraic filter folds x + 0 to x as it streams through.
//! assert_eq!(buf.emit(Lir::AluI(AluOp::Add, x, k)), x);
//! ```

pub mod backward;
pub mod buffer;
pub mod ir;
pub mod opclass;
pub mod printer;

pub use backward::{run_backward_filters, BackwardStats, ExitLiveness};
pub use buffer::{FilterOptions, FilterStats, LirBuffer, NO_VALUE};
pub use ir::{ArSlot, ExitId, Lir, LirId, LirTrace, LirType};
pub use opclass::{AluOp, ChkOp, CmpOp, FOp, Tag};
pub use printer::print_trace;
