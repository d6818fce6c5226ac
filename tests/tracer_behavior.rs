//! Tests of the tracer's observable behavior against the paper's
//! descriptions: the §2 narrative event sequence, trace-tree topology
//! (Figures 5/7/8), type-stability linking (Figure 6), blacklisting
//! (§3.3), nested trees (§4), and the preemption guard (§6.4).

use tracemonkey::jit::events::TraceEvent;
use tracemonkey::jit::exit::ExitKind;
use tracemonkey::{Engine, JitOptions, Vm};

fn traced_vm(src: &str) -> Vm {
    let mut opts = JitOptions::default();
    opts.log_events = true;
    let mut vm = Vm::with_options(Engine::Tracing, opts);
    vm.eval(src).expect("program runs");
    vm
}

#[test]
fn sieve_narrative_matches_section_2() {
    // The paper's §2 walkthrough: the inner loop becomes hot first and is
    // recorded as its own tree (T45); the outer loop is recorded next and
    // *calls* the inner tree (T16); a hot side exit of the outer tree
    // grows a branch trace (T23,1).
    let vm = traced_vm(
        "var primes = [];
         for (var i = 0; i < 500; i++) primes[i] = true;
         for (var i = 2; i < 500; ++i) {
             if (!primes[i]) continue;
             for (var k = i + i; k < 500; k += i)
                 primes[k] = false;
         }
         primes.length",
    );
    let m = vm.monitor().unwrap();
    let events = m.events.events();

    // Find the recording of the inner k-loop and the outer i-loop.
    let roots: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::RecordStartRoot { pc, .. } => Some(*pc),
            _ => None,
        })
        .collect();
    assert!(roots.len() >= 2, "both inner and outer loops are recorded: {roots:?}");

    // A nested call was recorded while tracing the outer loop (§4.1).
    assert!(
        events.iter().any(|e| matches!(e, TraceEvent::NestedCall { .. })),
        "the outer loop calls the inner tree"
    );
    // The `continue` path becomes hot and is stitched as a branch trace.
    assert!(
        events.iter().any(|e| matches!(e, TraceEvent::Stitch { .. })),
        "a hot side exit grows a stitched branch trace"
    );
    // After warmup, the program runs almost entirely natively.
    let p = vm.profile().unwrap();
    assert!(
        p.native_bytecode_fraction() > 0.9,
        "sieve should run >90% natively, got {:.1}%",
        100.0 * p.native_bytecode_fraction()
    );
}

#[test]
fn trace_tree_topology_trunk_and_branch() {
    // Figure 5: a tree with a trunk and an attached branch trace, both
    // looping back to the tree anchor.
    let vm = traced_vm(
        "var a = 0, b = 0;
         for (var i = 0; i < 2000; i++) {
             if (i % 4 == 0) a++; else b++;
         }
         a * 10000 + b",
    );
    let m = vm.monitor().unwrap();
    let tree = m.cache.iter().max_by_key(|t| t.fragments.len()).expect("a tree");
    assert!(
        tree.fragments.len() >= 2,
        "the minority branch becomes a branch fragment (got {})",
        tree.fragments.len()
    );
    // The branch is reachable by stitching from some trunk exit.
    let stitched = tree
        .fragments
        .iter()
        .any(|f| f.stitch.iter().any(|&t| t != tracemonkey::nanojit::EXIT_UNSTITCHED));
    assert!(stitched, "branch fragments are stitched to parent exits");
}

#[test]
fn nested_trees_outer_calls_inner() {
    // Figure 7/8: the outer tree calls the inner tree instead of
    // duplicating it.
    let vm = traced_vm(
        "var s = 0;
         for (var i = 0; i < 120; i++)
             for (var j = 0; j < 50; j++)
                 s += i ^ j;
         s",
    );
    let m = vm.monitor().unwrap();
    let with_sites: Vec<_> = m.cache.iter().filter(|t| !t.nested_sites.is_empty()).collect();
    assert!(!with_sites.is_empty(), "some tree has a nested call site");
    let outer = with_sites[0];
    let inner = outer.nested_sites[0].inner;
    assert_ne!(outer.id, inner, "outer calls a different tree");
    // The inner tree ran many iterations through nested calls.
    assert!(m.cache.tree(inner).stats.iterations > 1000);
}

#[test]
fn type_unstable_loops_reach_equilibrium() {
    // Figure 6: a loop whose variable starts undefined and becomes a
    // number: sibling trees form and connect rather than thrashing.
    let vm = traced_vm(
        "var t; var s = 0;
         for (var i = 0; i < 3000; i++) { t = i * 0.5; s += t; }
         s",
    );
    let m = vm.monitor().unwrap();
    let p = vm.profile().unwrap();
    assert!(
        p.native_bytecode_fraction() > 0.8,
        "type-unstable warmup still converges to native execution ({:.1}%)",
        100.0 * p.native_bytecode_fraction()
    );
    // At least one tree anchors at the loop with a Double entry for t.
    assert!(m.cache.len() >= 1);
}

#[test]
fn oracle_demotes_after_unstable_recording() {
    // §3.2: an int→double widening at the loop edge marks the variable in
    // the oracle; the re-recorded trace is stable.
    let vm = traced_vm(
        "var x = 0;
         for (var i = 0; i < 4000; i++) {
             x = x + 0.25; // becomes non-integer immediately after start
         }
         x",
    );
    let m = vm.monitor().unwrap();
    assert!(
        !m.oracle.is_empty() || m.cache.iter().any(|t| !t.unstable),
        "the oracle learns or a stable tree forms"
    );
    let p = vm.profile().unwrap();
    assert!(p.native_bytecode_fraction() > 0.9);
}

#[test]
fn blacklisting_patches_untraceable_loops() {
    // §3.3: a loop whose body always aborts recording (object→string
    // coercion is outside the recorder's subset) gets blacklisted, and the
    // loop-header op is patched so the monitor is never called again.
    let vm = traced_vm(
        "var s = 0;
         var o = {x: 1};
         var t = '';
         for (var i = 0; i < 3000; i++) {
             t = '' + o; // ToString(object): untraceable
             s += 1;
         }
         s",
    );
    let m = vm.monitor().unwrap();
    let events = m.events.events();
    let aborts = events.iter().filter(|e| matches!(e, TraceEvent::RecordAbort { .. })).count();
    let blacklists =
        events.iter().filter(|e| matches!(e, TraceEvent::Blacklist { .. })).count();
    assert!(aborts >= 1, "recording must have been attempted and aborted");
    assert!(blacklists >= 1, "the loop gets blacklisted after repeated failures");
    // Crucially, the failures are bounded (no unbounded re-recording).
    assert!(aborts <= 4, "aborts are bounded by the blacklist policy, got {aborts}");
}

#[test]
fn preemption_interrupts_native_loops() {
    // §6.4: the preemption flag is honored at trace loop edges.
    let mut opts = JitOptions::default();
    opts.log_events = true;
    let mut vm = Vm::with_options(Engine::Tracing, opts);
    // Prime a long-running loop, interrupting from a native callback would
    // need threads; instead set the flag before a second eval that loops
    // forever — the flag must stop both interpreted and traced loops.
    vm.realm.interrupt = true;
    let err = vm.eval("var i = 0; while (true) i++;").unwrap_err();
    assert!(matches!(
        err,
        tracemonkey::VmError::Runtime(tracemonkey::RuntimeError::Interrupted)
    ));
}

#[test]
fn side_exit_kinds_cover_the_design() {
    let vm = traced_vm(
        "var s = 0;
         for (var i = 0; i < 900; i++) {
             if (i % 5 == 0) s += 2; else s -= 1;
             if (i == 777) break;
         }
         s",
    );
    let m = vm.monitor().unwrap();
    let mut saw_branch = false;
    let mut saw_loop_edge = false;
    for tree in m.cache.iter() {
        for exits in &tree.exits {
            for e in exits {
                match e.kind {
                    ExitKind::Branch => saw_branch = true,
                    ExitKind::LoopEdge => saw_loop_edge = true,
                    _ => {}
                }
            }
        }
    }
    assert!(saw_branch && saw_loop_edge);
}

#[test]
fn completion_value_survives_tracing() {
    let mut vm = Vm::new(Engine::Tracing);
    let v = vm.eval("var s = 0; for (var i = 0; i < 1000; i++) s += 2; s * 2").unwrap();
    assert_eq!(vm.realm.heap.number_value(v), Some(4000.0));
}

#[test]
fn globals_persist_across_evals() {
    let mut vm = Vm::new(Engine::Tracing);
    vm.eval("var acc = 0; for (var i = 0; i < 500; i++) acc += i;").unwrap();
    let v = vm.eval("acc * 2").unwrap();
    assert_eq!(vm.realm.heap.number_value(v), Some(124750.0 * 2.0));
}

#[test]
fn step_budget_is_enforced_under_tracing() {
    let mut vm = Vm::new(Engine::Tracing);
    vm.step_budget = 200_000;
    let err = vm.eval("var i = 0; while (true) i++;").unwrap_err();
    assert!(matches!(
        err,
        tracemonkey::VmError::Runtime(tracemonkey::RuntimeError::StepBudgetExhausted)
    ));
}

#[test]
fn time_after_a_nested_call_is_the_outer_traces_not_the_monitors() {
    // Figure 12: the outer trace calls a two-iteration inner tree and then
    // does 80 statements of arithmetic of its own (11 LIR instructions
    // each: 150 of them would not fit a trace). Billing the return from
    // the nested call to the monitor, and leaving it there, would put all
    // of that arithmetic in the monitor's column.
    use tracemonkey::jit::profiler::Activity;
    let body: String = (0..80)
        .map(|k| {
            let f = if k % 2 == 0 { "sin" } else { "sqrt" };
            format!("x = Math.{f}(x + {k}) + 1;\n")
        })
        .collect();
    let src = format!(
        "var x = 0.5; var n = 0;
         for (var i = 0; i < 3000; i++) {{
             for (var j = 0; j < 2; j++) n = n + j;
             {body}
         }}
         x + n"
    );
    let opts = JitOptions { profile: true, ..JitOptions::default() };
    let mut vm = Vm::with_options(Engine::Tracing, opts);
    vm.eval(&src).expect("program runs");
    let s = vm.profile().unwrap();
    assert!(s.nested_calls >= 2900, "the nest was traced: {s:?}");
    let (native, monitor) = (s.time_in(Activity::Native), s.time_in(Activity::Monitor));
    assert!(native > monitor, "native {native:?} <= monitor {monitor:?}");
}
