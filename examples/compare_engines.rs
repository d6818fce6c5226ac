//! Runs one workload under all three engines and reports times — a
//! miniature of the paper's Figure 10 experiment.
//!
//! ```sh
//! cargo run --release --example compare_engines [iterations]
//! ```

use std::time::Instant;
use tracemonkey::{Engine, Vm};

fn main() {
    let n: u64 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(2_000_000);
    let source = format!(
        "var v = 4294967296; for (var i = 0; i < {n}; i++) v = v & i; v"
    );
    println!("bitops-bitwise-and kernel, {n} iterations:\n");
    let mut base = None;
    for (name, engine) in [
        ("interpreter (SpiderMonkey baseline)", Engine::Interp),
        ("method JIT (V8-2009 stand-in)", Engine::Method),
        ("tracing JIT (TraceMonkey)", Engine::Tracing),
    ] {
        let mut vm = Vm::new(engine);
        let start = Instant::now();
        let v = vm.eval(&source).expect("run");
        let t = start.elapsed();
        assert_eq!(vm.realm.heap.number_value(v), Some(0.0));
        let speedup = base.get_or_insert(t).as_secs_f64() / t.as_secs_f64();
        println!("  {name:38} {:8.1?}  ({speedup:.2}x)", t);
    }
}
