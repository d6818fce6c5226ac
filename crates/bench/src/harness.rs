//! The fresh-VM timed run behind the `ablation` binary and the
//! `suite_gates` integration test. Benchmarking proper lives in
//! `tm_bench/` (see its README).

use std::time::{Duration, Instant};

use tracemonkey::{Engine, JitOptions, Vm};

use crate::suite::BenchProgram;

/// Result of running one program on one engine.
#[derive(Debug)]
pub struct RunResult {
    /// Best-of-N wall-clock time.
    pub time: Duration,
    /// Completion value rendered as a string (consistency checking).
    pub value: String,
    /// The VM after the run (profile/monitor inspection).
    pub vm: Vm,
}

/// Runs `prog` under `engine`, returning the fastest of `repeats` runs
/// (SunSpider-style: each run is a fresh VM, timing includes compilation —
/// the "low startup time" constraint the paper emphasizes).
pub fn run_program(prog: &BenchProgram, engine: Engine, opts: JitOptions, repeats: u32) -> RunResult {
    let mut best = Duration::MAX;
    let mut last_vm = None;
    let mut value = String::new();
    for _ in 0..repeats.max(1) {
        let mut vm = Vm::with_options(engine, opts);
        let start = Instant::now();
        let v = vm.eval(prog.source).unwrap_or_else(|e| {
            panic!("{} failed under {:?}: {e}", prog.name, engine)
        });
        let elapsed = start.elapsed();
        value = tracemonkey::runtime::ops::to_display(&mut vm.realm, v);
        if elapsed < best {
            best = elapsed;
        }
        last_vm = Some(vm);
    }
    RunResult { time: best, value, vm: last_vm.expect("at least one run") }
}
