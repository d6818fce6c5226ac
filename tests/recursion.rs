//! Recursion is not traced: a recorded call whose callee is already on the
//! trace aborts the recording with `Recursive`, as in TraceMonkey. Every
//! recursive shape below is driven from a hot loop, so the recorder meets
//! the recursion, and each is checked three ways: the interpreter's
//! result, the tracing engine's on the decoded executor, and on the native
//! tier. The contract for each program: no tree is anchored in a
//! recursive function, recording stays cheap (at most
//! `MAX_RECORDED` bytecodes), and every abort is `Recursive`.

use tracemonkey::jit::events::{AbortReason, TraceEvent};
use tracemonkey::jit::recorder::MAX_INLINE_DEPTH;
use tracemonkey::{Engine, JitOptions, Vm};

/// Bytecodes a program may record before the recursion stops it: one
/// loop iteration up to the recursive call, a few times over.
const MAX_RECORDED: u64 = 200;

fn interp_number(src: &str) -> Option<f64> {
    let mut vm = Vm::new(Engine::Interp);
    vm.eval_number(src).expect("interpreter runs")
}

/// Runs `src` under tracing on the decoded executor and on the native tier
/// (where the target has one), each against the interpreter, and returns
/// the VMs in that order.
fn traced_both(src: &str) -> Vec<Vm> {
    let expected = interp_number(src);
    let tiers = if tracemonkey::nanojit::native_supported() { &[false, true][..] } else { &[false] };
    tiers
        .iter()
        .map(|&native| {
            let opts =
                JitOptions { log_events: true, native_backend: native, ..JitOptions::default() };
            let mut vm = Vm::with_options(Engine::Tracing, opts);
            let traced = vm.eval_number(src).expect("traced program runs");
            assert_eq!(traced, expected, "tracing (native: {native}) disagrees on: {src}");
            vm
        })
        .collect()
}

/// The contract for a program whose functions named in `recursive` call
/// themselves (directly or through each other).
fn check_untraced(src: &str, recursive: &[&str]) -> Vec<Vm> {
    let vms = traced_both(src);
    for vm in &vms {
        let m = vm.monitor().expect("tracing monitor");
        let prog = vm.interp().expect("interpreter").prog();
        for tree in m.cache.iter() {
            let name = &prog.function(tree.anchor.func).name;
            assert!(!recursive.contains(&name.as_str()), "a tree is anchored in `{name}`: {src}");
        }
        let p = vm.profile().expect("profile");
        assert!(
            p.bytecodes_recorded <= MAX_RECORDED,
            "recorded {} bytecodes: {src}",
            p.bytecodes_recorded
        );
        let aborts = aborts(vm);
        assert!(!aborts.is_empty(), "the driver loop records into the recursion: {src}");
        assert!(
            aborts.iter().all(|r| *r == AbortReason::Recursive),
            "aborts {aborts:?}: {src}"
        );
    }
    vms
}

/// Every abort reason `vm`'s recordings ended with.
fn aborts(vm: &Vm) -> Vec<AbortReason> {
    let events = vm.monitor().expect("tracing monitor").events.events();
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::RecordAbort { reason } => Some(*reason),
            _ => None,
        })
        .collect()
}

#[test]
fn self_tail_call_closes_into_a_loop_trace() {
    // A self tail call is a loop to the programmer, but not to the
    // recorder: it is a call into a function already on the trace.
    check_untraced(
        "function sum(n, acc) {
            if (n == 0) return acc;
            return sum(n - 1, acc + n);
        }
        var t = 0;
        for (var i = 0; i < 60; i++) t += sum(300 + i, 0);
        t",
        &["sum"],
    );
}

#[test]
fn tail_recursion_with_argument_rebinding_agrees_on_types() {
    // The arguments change type (int → double) down the recursion.
    check_untraced(
        "function scale(n, x) {
            if (n == 0) return x;
            return scale(n - 1, x + 0.5);
        }
        var t = 0;
        for (var i = 0; i < 60; i++) t += scale(200 + i, i);
        t",
        &["scale"],
    );
}

#[test]
fn mutual_recursion_traces_via_unrolling() {
    // isEven/isOdd call each other: the recorder inlines isEven and isOdd,
    // and stops at the second call of isEven.
    check_untraced(
        "function isEven(n) { if (n == 0) return 1; return isOdd(n - 1); }
         function isOdd(n) { if (n == 0) return 0; return isEven(n - 1); }
         var s = 0;
         for (var i = 0; i < 60; i++) s += isEven(i + 40);
         s",
        &["isEven", "isOdd"],
    );
}

#[test]
fn binary_tree_recursion_mixes_native_and_interpreted_frames() {
    // Downward (non-tail) recursion runs in the interpreter while the
    // driver's inner loop, which calls nothing, still runs on trace.
    let src = "function item(depth) {
            if (depth == 0) return 1;
            return item(depth - 1) + item(depth - 1) + 1;
        }
        var total = 0;
        for (var d = 4; d <= 12; d++) {
            total += item(d);
            for (var k = 0; k < 200; k++) total = (total + (k & d)) % 1000000;
        }
        total % 1000000";
    for vm in check_untraced(src, &["item"]) {
        let p = vm.profile().unwrap();
        assert!(p.bytecodes_native > 0, "the inner loop runs on trace");
        assert!(p.bytecodes_interp > 0, "the recursive frames run interpreted");
    }
}

#[test]
fn hot_side_exits_off_a_recursive_trace_grow_branches() {
    // Branchy recursion whose leaf test alternates between two data
    // paths: neither path is recorded past the first recursive call.
    check_untraced(
        "function walk(n, bias) {
            if (n < 2) return bias;
            if ((n & 1) == bias) return walk(n - 1, bias) + 1;
            return walk(n - 2, 1 - bias) + 2;
        }
        var s = 0;
        for (var i = 0; i < 40; i++) s += walk(120 + (i % 3), i & 1);
        s",
        &["walk"],
    );
}

/// A loop calling down a chain of distinct functions `f1` … `fN` that
/// fills the recorder's inline budget (the loop's own frame and one per
/// function), whose last function then calls `last_call`.
fn budget_filling_chain(last_call: &str) -> String {
    let n = MAX_INLINE_DEPTH - 1;
    let mut src = String::new();
    for k in 1..n {
        src += &format!("function f{k}(n) {{ return f{}(n) + 1; }}\n", k + 1);
    }
    src += &format!(
        "function f{n}(n) {{ if (n < 2) return 1; return n * {last_call}(n - 1); }}
        function leaf(n) {{ return n; }}
        var s = 0;
        for (var i = 0; i < 200; i++) s = (s + f1(12)) % 1000003;
        s"
    );
    src
}

#[test]
fn deep_recursion_under_tiny_inline_budget_still_compiles() {
    // The recursive call of the chain's last function is also past the
    // depth budget: the recursion check comes first, so the abort is
    // `Recursive`, never `TooDeep`.
    let last = format!("f{}", MAX_INLINE_DEPTH - 1);
    check_untraced(&budget_filling_chain(&last), &[&last]);
    // The budget is full at that call: a call of a fresh function from the
    // same place aborts `TooDeep`.
    for vm in traced_both(&budget_filling_chain("leaf")) {
        let aborts = aborts(&vm);
        assert!(!aborts.is_empty() && aborts.iter().all(|r| *r == AbortReason::TooDeep), "{aborts:?}");
    }
}

#[test]
fn recursion_in_constructors_stays_correct() {
    // A recursive constructor: `new Node` inside `Node` is a recursive
    // construct call.
    check_untraced(
        "function Node(depth) {
            this.depth = depth;
            if (depth > 0) this.child = new Node(depth - 1);
        }
        var s = 0;
        for (var i = 0; i < 50; i++) {
            var n = new Node(6);
            s += n.child.child.depth;
        }
        s",
        &["Node"],
    );
}

#[test]
fn shallow_recursion_in_a_hot_loop_runs_interpreted() {
    // `fib(3)` is three frames deep, well inside `MAX_INLINE_DEPTH`, and
    // an inlining recorder could unroll it whole. It is still a recursion:
    // the loop aborts, is blacklisted, and loop and recursion both run in
    // the interpreter. This is the price of the abort rule (DESIGN.md §8).
    let src = "function fib(n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
        var s = 0;
        for (var i = 0; i < 2000; i++) s += fib(3);
        s";
    const _: () = assert!(MAX_INLINE_DEPTH > 3);
    for vm in check_untraced(src, &["fib"]) {
        let p = vm.profile().unwrap();
        assert_eq!(p.trees, 0, "the loop that calls the recursion compiles nothing");
        assert_eq!(p.bytecodes_native, 0, "everything runs interpreted");
    }
}

#[test]
fn a_non_recursive_call_chain_three_deep_still_compiles_and_runs_natively() {
    // The control: calls are inlined as long as none of them recurses.
    let src = "function c(x) { return x & 7; }
        function b(x) { return c(x) * 2; }
        function a(x) { return b(x) + 1; }
        var s = 0;
        for (var i = 0; i < 2000; i++) s = (s + a(i)) | 0;
        s";
    for vm in traced_both(src) {
        let p = vm.profile().unwrap();
        assert_eq!(p.traces_aborted, 0, "nothing aborts");
        assert!(p.trees >= 1, "the loop compiles");
        assert!(p.bytecodes_native > p.bytecodes_interp, "and runs on trace");
        if vm.monitor().unwrap().options().native_backend {
            assert!(p.native_fragments > 0, "on the native tier");
        }
    }
}
