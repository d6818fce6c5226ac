//! The public VM facade: parse, compile, install, and run guest programs
//! under a chosen engine.

use std::path::PathBuf;
use std::sync::Arc;

use tm_bytecode::Program;
use tm_interp::{Interp, RunExit};
use tm_runtime::{Realm, RuntimeError, Value};

use crate::config::JitOptions;
use crate::monitor::Monitor;
use crate::nest::NestObserver;
use crate::persist::{cache_path_from_env, CacheError, CacheHandle};
use crate::pool::CompilerPool;
use crate::profiler::ProfileStats;
use crate::shared_cache::{SharedCodeCache, SharedKey};

/// Which execution engine [`Vm::eval`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The baseline bytecode interpreter (the paper's SpiderMonkey
    /// baseline, Figure 10's 1.0x).
    Interp,
    /// The tracing JIT (TraceMonkey).
    Tracing,
}

/// An error from [`Vm::eval`].
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// Lexing/parsing failed.
    Parse(tm_frontend::ParseError),
    /// Bytecode compilation failed.
    Compile(tm_bytecode::CompileError),
    /// The guest program raised an error.
    Runtime(RuntimeError),
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::Parse(e) => e.fmt(f),
            VmError::Compile(e) => e.fmt(f),
            VmError::Runtime(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for VmError {}

impl From<tm_frontend::ParseError> for VmError {
    fn from(e: tm_frontend::ParseError) -> Self {
        VmError::Parse(e)
    }
}

impl From<tm_bytecode::CompileError> for VmError {
    fn from(e: tm_bytecode::CompileError) -> Self {
        VmError::Compile(e)
    }
}

impl From<RuntimeError> for VmError {
    fn from(e: RuntimeError) -> Self {
        VmError::Runtime(e)
    }
}

/// A complete guest-language virtual machine.
///
/// ```
/// use tm_core::vm::{Engine, Vm};
///
/// let mut vm = Vm::new(Engine::Tracing);
/// let v = vm.eval("var s = 0; for (var i = 1; i <= 100; i++) s += i; s")?;
/// assert_eq!(vm.realm.heap.number_value(v), Some(5050.0));
/// # Ok::<(), tm_core::vm::VmError>(())
/// ```
#[derive(Debug)]
pub struct Vm {
    /// The execution environment (globals persist across `eval` calls).
    pub realm: Realm,
    engine: Engine,
    opts: JitOptions,
    monitor: Option<Monitor>,
    last_interp: Option<Interp>,
    /// Step budget applied to each eval (guards runaway programs).
    pub step_budget: u64,
    /// Persistent trace-cache file (tracing engine only). Defaults to the
    /// `TM_CACHE` environment variable; `None` disables persistence.
    cache_path: Option<PathBuf>,
    /// Why the last eval's cache load or save was rejected, if it was.
    /// Purely diagnostic — a rejected cache degrades to a cold start.
    last_cache_error: Option<CacheError>,
    /// Process-wide shared code cache (multi-tenant deployments).
    shared: Option<Arc<SharedCodeCache>>,
    /// Background compiler pool (used when `opts.background_compile`).
    pool: Option<Arc<CompilerPool>>,
    /// Test support: handed to each tracing run's monitor.
    observer: Option<NestObserver>,
}

impl Vm {
    /// Creates a VM with default options for `engine`.
    pub fn new(engine: Engine) -> Vm {
        Vm::with_options(engine, JitOptions::default())
    }

    /// Creates a tracing VM with explicit JIT options.
    pub fn with_options(engine: Engine, opts: JitOptions) -> Vm {
        Vm {
            realm: Realm::new(),
            engine,
            opts,
            monitor: None,
            last_interp: None,
            step_budget: u64::MAX,
            cache_path: cache_path_from_env(),
            last_cache_error: None,
            shared: None,
            pool: None,
            observer: None,
        }
    }

    /// Test support: a line for every nested call's return and link in
    /// later tracing runs ([`crate::nest::NestObserver`]).
    pub fn observe_nesting(&mut self) -> std::sync::mpsc::Receiver<String> {
        let (observer, lines) = std::sync::mpsc::channel();
        self.observer = Some(observer);
        lines
    }

    /// Attaches a process-wide shared code cache: compiled trees this VM
    /// produces are published to it, and before recording, the monitor
    /// probes it for trees another realm already compiled (keyed by
    /// program checksum + realm fingerprint + anchor, so realms with
    /// diverged shape tables never share).
    pub fn attach_shared_cache(&mut self, cache: Arc<SharedCodeCache>) {
        self.shared = Some(cache);
    }

    /// Attaches a background compiler pool. Compiles are only actually
    /// offloaded when [`JitOptions::background_compile`] is set.
    pub fn attach_pool(&mut self, pool: Arc<CompilerPool>) {
        self.pool = Some(pool);
    }

    /// Sets (or disables) the persistent trace-cache file, overriding the
    /// `TM_CACHE` environment variable.
    pub fn set_cache_path(&mut self, path: Option<PathBuf>) {
        self.cache_path = path;
    }

    /// Why the last eval's cache load or save was rejected, if it was.
    pub fn last_cache_error(&self) -> Option<&CacheError> {
        self.last_cache_error.as_ref()
    }

    /// The engine this VM runs.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Parses `source` and compiles it to bytecode against this VM's
    /// realm: the front half of [`Vm::eval`], public so an engine that
    /// lives outside this crate (the method JIT) shares it.
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] for parse or compile failures.
    pub fn compile(&mut self, source: &str) -> Result<Program, VmError> {
        let ast = tm_frontend::parse(source)?;
        Ok(tm_bytecode::compile(&ast, &mut self.realm)?)
    }

    /// Evaluates a program, returning its completion value.
    ///
    /// Each call compiles a fresh program against the shared realm; the
    /// trace cache is reset (trees are program-specific).
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] for parse, compile, or runtime failures.
    pub fn eval(&mut self, source: &str) -> Result<Value, VmError> {
        let prog = self.compile(source)?;
        let mut interp = Interp::new(prog, &mut self.realm);
        interp.steps_remaining = self.step_budget;
        let result = match self.engine {
            Engine::Interp => {
                match interp.run(&mut self.realm) {
                    Ok(RunExit::Finished(v)) => Ok(v),
                    Ok(RunExit::LoopEdge { .. }) => {
                        unreachable!("monitor disabled")
                    }
                    Err(e) => Err(VmError::Runtime(e)),
                }
            }
            Engine::Tracing => {
                let mut monitor = Monitor::new(self.opts);
                // Capture the program key and realm fingerprint once, at the
                // install point (post-compile, pre-run): the shared cache
                // keys by them, and a warm process sees the same realm the
                // saved traces were validated against.
                let key = (self.shared.is_some() || self.cache_path.is_some())
                    .then(|| SharedKey::capture(interp.prog(), &self.realm));
                if let (Some(cache), Some(key)) = (&self.shared, key) {
                    monitor.attach_shared(Arc::clone(cache), key);
                }
                if let Some(pool) = &self.pool {
                    monitor.attach_pool(Arc::clone(pool));
                }
                self.last_cache_error = None;
                let handle =
                    self.cache_path.clone().zip(key).map(|(path, key)| CacheHandle { path, key });
                if let Some(h) = &handle {
                    if let Err(e) = monitor.load_cache(h, &mut interp, &self.realm) {
                        self.last_cache_error = Some(e);
                    }
                }
                monitor.observer = self.observer.clone();
                let r = monitor.run_program(&mut interp, &mut self.realm);
                if let (Some(h), Ok(_)) = (&handle, &r) {
                    if let Err(e) = monitor.save_cache(h, &self.realm) {
                        self.last_cache_error = Some(e);
                    }
                }
                self.monitor = Some(monitor);
                r.map_err(VmError::Runtime)
            }
        };
        self.last_interp = Some(interp);
        result
    }

    /// Accumulated `print` output.
    pub fn output(&self) -> &str {
        &self.realm.output
    }

    /// The monitor of the last tracing run (trees, events, profiler).
    pub fn monitor(&self) -> Option<&Monitor> {
        self.monitor.as_ref()
    }

    /// The interpreter of the last run (bytecode counters).
    pub fn interp(&self) -> Option<&Interp> {
        self.last_interp.as_ref()
    }

    /// Profile statistics of the last tracing run.
    pub fn profile(&self) -> Option<&ProfileStats> {
        self.monitor.as_ref().map(|m| &m.profiler.stats)
    }

    /// Convenience: evaluate and coerce the result to a number.
    ///
    /// # Errors
    ///
    /// Propagates [`VmError`]; non-numeric results yield `None`.
    pub fn eval_number(&mut self, source: &str) -> Result<Option<f64>, VmError> {
        let v = self.eval(source)?;
        Ok(self.realm.heap.number_value(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_number_on_all_engines() {
        for engine in [Engine::Interp, Engine::Tracing] {
            let mut vm = Vm::new(engine);
            let v = vm.eval_number("var s = 0; for (var i = 1; i <= 10; i++) s += i; s");
            assert_eq!(v.unwrap(), Some(55.0), "{engine:?}");
        }
    }

    #[test]
    fn parse_and_compile_errors_are_reported() {
        let mut vm = Vm::new(Engine::Tracing);
        assert!(matches!(vm.eval("var x = ;"), Err(VmError::Parse(_))));
        assert!(matches!(vm.eval("break;"), Err(VmError::Compile(_))));
        let err = vm.eval("null.x").unwrap_err();
        assert!(matches!(err, VmError::Runtime(_)));
        // Errors display as readable text.
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn output_accumulates_across_evals() {
        let mut vm = Vm::new(Engine::Tracing);
        vm.eval("print('a');").unwrap();
        vm.eval("print('b');").unwrap();
        assert_eq!(vm.output(), "a\nb\n");
    }

    #[test]
    fn monitor_is_available_after_tracing_runs() {
        let mut vm = Vm::new(Engine::Tracing);
        vm.eval("var s = 0; for (var i = 0; i < 100; i++) s++; s").unwrap();
        assert!(vm.monitor().is_some());
        assert!(vm.profile().is_some());
        assert!(vm.interp().is_some());
        let mut vm2 = Vm::new(Engine::Interp);
        vm2.eval("1").unwrap();
        assert!(vm2.monitor().is_none());
    }
}
