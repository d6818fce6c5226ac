//! The fresh-VM run behind the `suite_gates` integration test.
//! Benchmarking proper lives in `tm_bench/` (see its README).

use tracemonkey::{Engine, JitOptions, Vm};

use crate::suite::BenchProgram;

/// Result of running one program on one engine.
#[derive(Debug)]
pub struct RunResult {
    /// Completion value rendered as a string (consistency checking).
    pub value: String,
    /// The VM after the run (profile/monitor inspection).
    pub vm: Vm,
}

/// Runs `prog` under `engine` on a fresh VM.
pub fn run_program(prog: &BenchProgram, engine: Engine, opts: JitOptions) -> RunResult {
    let mut vm = Vm::with_options(engine, opts);
    let v = vm
        .eval(prog.source)
        .unwrap_or_else(|e| panic!("{} failed under {:?}: {e}", prog.name, engine));
    let value = tracemonkey::runtime::ops::to_display(&mut vm.realm, v);
    RunResult { value, vm }
}
