//! # tm-core
//!
//! The TraceMonkey core — the primary contribution of *Trace-based
//! Just-in-Time Type Specialization for Dynamic Languages* (PLDI 2009),
//! built on the substrate crates:
//!
//! * [`monitor`] — the mixed-mode state machine (Figure 2): hotness
//!   counting, trace-cache lookup, tree runs, branch extension and
//!   stability linking;
//! * [`activation`] — the state transfer between interpreter and
//!   activation record: [`activation::import`] at tree entry,
//!   [`activation::export`] (with frame synthesis) at side exits,
//!   [`activation::transfer`] between two records;
//! * [`nest`] — nested tree calls (§4): per-site transfer plans between
//!   the outer and the inner activation record, and the host that
//!   executes them;
//! * [`recorder`] — bytecode → type-specialized SSA LIR with guards
//!   (§3.1, §6.3): the recording's bookkeeping, with the per-bytecode
//!   lowering in the private `lowering` module;
//! * [`tree`] — trace trees: the shared, immutable [`tree::TreeCode`] and
//!   each realm's [`tree::TraceTree`] handle on it;
//! * [`oracle`] — integer-demotion advisory (§3.2);
//! * [`blacklist`] — abort backoff and permanent blacklisting with
//!   bytecode patching and nesting forgiveness (§3.3, §4.2);
//! * [`persist`] — the persistent trace cache: warm-starting the JIT
//!   across processes from a verified on-disk snapshot
//!   (`docs/PERSISTENCE.md`);
//! * [`vm`] — the public [`vm::Vm`] facade.
//!
//! ```
//! use tm_core::vm::{Engine, Vm};
//!
//! let mut vm = Vm::new(Engine::Tracing);
//! let v = vm.eval("var s = 0; for (var i = 0; i < 1000; i++) s += i; s")?;
//! assert_eq!(vm.realm.heap.number_value(v), Some(499500.0));
//! # Ok::<(), tm_core::vm::VmError>(())
//! ```

pub mod activation;
pub mod blacklist;
pub mod config;
pub mod events;
pub mod exit;
mod lowering;
pub mod monitor;
pub mod mt;
pub mod nest;
pub mod oracle;
pub mod persist;
pub mod pool;
pub mod profiler;
pub mod recorder;
pub mod shared_cache;
pub mod tree;
pub mod vm;

pub use config::JitOptions;
pub use monitor::Monitor;
pub use mt::{MultiTenantVm, RealmJob, RealmReport};
pub use persist::{CacheError, CacheHandle};
pub use pool::CompilerPool;
pub use shared_cache::{SharedCacheStats, SharedCodeCache};
pub use vm::{Engine, Vm, VmError};

/// Compile-time Send audit: a multi-tenant VM runs one realm per thread,
/// so every piece of per-realm state — the realm itself, the interpreter,
/// the monitor with its compiled trees, and the whole [`Vm`] facade —
/// must be `Send`. Keeping the assertion here means any future field
/// that reintroduces `Rc`/raw-pointer state fails the build, not a test.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<tm_runtime::Realm>();
    assert_send::<tm_interp::Interp>();
    assert_send::<Monitor>();
    assert_send::<tree::TraceTree>();
    assert_send::<Vm>();
    assert_send::<profiler::ProfileStats>();
};
