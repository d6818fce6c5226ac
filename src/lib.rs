//! # tracemonkey
//!
//! A from-scratch Rust reproduction of **"Trace-based Just-in-Time Type
//! Specialization for Dynamic Languages"** (Gal et al., PLDI 2009) — the
//! TraceMonkey system: a trace-recording, type-specializing JIT for a
//! dynamic language, together with the full substrate it needs (language
//! frontend, bytecode interpreter, object model with shapes, mark-sweep
//! GC, LIR optimizer, and a register-allocating backend) and the baseline
//! engines its evaluation compares against.
//!
//! ## Quick start
//!
//! ```
//! use tracemonkey::{Engine, Vm};
//!
//! let mut vm = Vm::new(Engine::Tracing);
//! let v = vm.eval("
//!     var primes = [];
//!     for (var i = 0; i < 100; i++) primes[i] = true;
//!     for (var i = 2; i < 100; ++i) {
//!         if (!primes[i]) continue;
//!         for (var k = i + i; k < 100; k += i) primes[k] = false;
//!     }
//!     var count = 0;
//!     for (var i = 2; i < 100; i++) if (primes[i]) count++;
//!     count
//! ")?;
//! assert_eq!(vm.realm.heap.number_value(v), Some(25.0));
//! # Ok::<(), tracemonkey::VmError>(())
//! ```
//!
//! ## Engines
//!
//! * [`Engine::Interp`] — baseline bytecode interpreter (the paper's
//!   SpiderMonkey baseline);
//! * [`Engine::Method`] — whole-function compiler without type
//!   specialization (the 2009 V8 stand-in);
//! * [`Engine::Tracing`] — the TraceMonkey tracing JIT.
//!
//! See `DESIGN.md` for the architecture and the substitutions made
//! relative to the paper, and `EXPERIMENTS.md` for the reproduced
//! evaluation.

pub use tm_bytecode as bytecode;
pub use tm_core as jit;
pub use tm_frontend as frontend;
pub use tm_interp as interp;
pub use tm_lir as lir;
pub use tm_methodjit as methodjit;
pub use tm_nanojit as nanojit;
pub use tm_runtime as runtime;

pub use tm_core::config::JitOptions;
pub use tm_core::monitor::Monitor;
pub use tm_core::persist::{CacheError, CacheHandle};
pub use tm_core::{
    CompilerPool, MultiTenantVm, RealmJob, RealmReport, SharedCacheStats, SharedCodeCache,
};
pub use tm_core::vm::VmError;
pub use tm_runtime::{Realm, RuntimeError, Value};

use std::ops::{Deref, DerefMut};

use tm_core::vm::{Engine as CoreEngine, Vm as CoreVm};
use tm_methodjit::MethodVm;

/// Which execution engine a [`Vm`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Baseline bytecode interpreter (SpiderMonkey stand-in, 1.0x).
    Interp,
    /// Method-at-a-time compiler without type specialization (2009 V8
    /// stand-in).
    Method,
    /// The TraceMonkey tracing JIT.
    Tracing,
}

/// A complete guest-language virtual machine over any of the three engines.
///
/// A thin wrapper over [`tm_core::vm::Vm`], which implements the
/// interpreter and tracing engines and everything around them (realm,
/// trace cache, compiler pool, profile); it derefs to that VM, so
/// `vm.realm`, `vm.output()`, `vm.profile()`, `vm.monitor()`,
/// `vm.set_cache_path(..)` and the rest are the one implementation. The
/// wrapper adds only [`Engine::Method`], which `tm-core` cannot name.
#[derive(Debug)]
pub struct Vm {
    core: CoreVm,
    engine: Engine,
}

impl Deref for Vm {
    type Target = CoreVm;

    fn deref(&self) -> &CoreVm {
        &self.core
    }
}

impl DerefMut for Vm {
    fn deref_mut(&mut self) -> &mut CoreVm {
        &mut self.core
    }
}

impl Vm {
    /// Creates a VM for `engine` with default options.
    pub fn new(engine: Engine) -> Vm {
        Vm::with_options(engine, JitOptions::default())
    }

    /// Creates a VM with explicit JIT options (relevant to
    /// [`Engine::Tracing`]).
    pub fn with_options(engine: Engine, opts: JitOptions) -> Vm {
        let core_engine = match engine {
            // The wrapped VM never evaluates under the method engine.
            Engine::Interp | Engine::Method => CoreEngine::Interp,
            Engine::Tracing => CoreEngine::Tracing,
        };
        Vm { core: CoreVm::with_options(core_engine, opts), engine }
    }

    /// The engine this VM runs.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Evaluates a program, returning its completion value (the value of
    /// the last top-level expression statement).
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] for parse, compile, or runtime failures.
    pub fn eval(&mut self, source: &str) -> Result<Value, VmError> {
        if self.engine != Engine::Method {
            return self.core.eval(source);
        }
        let prog = self.core.compile(source)?;
        let mut mvm = MethodVm::new(prog, &mut self.core.realm);
        mvm.steps_remaining = self.core.step_budget;
        Ok(mvm.run(&mut self.core.realm)?)
    }

    /// Evaluates and coerces the result to a number (`None` when the
    /// completion value is not numeric).
    ///
    /// # Errors
    ///
    /// See [`Vm::eval`].
    pub fn eval_number(&mut self, source: &str) -> Result<Option<f64>, VmError> {
        let v = self.eval(source)?;
        Ok(self.core.realm.heap.number_value(v))
    }
}
