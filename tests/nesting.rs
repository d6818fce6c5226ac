//! Nested tree calls (§4) under transfer plans (`tm-core::nest`): every
//! program runs on the interpreter and on the tracing JIT's two tiers and
//! must print the same, leave the same globals and, through
//! `nested_deferred`, show which kind of plan carried its calls — the
//! deferred one (nothing exported at the call site) or the eager one.
//! The plan-level property test is in `crates/core/src/nest.rs`.

use std::sync::Arc;

use tracemonkey::jit::activation::SlotKey;
use tracemonkey::jit::profiler::ProfileStats;
use tracemonkey::jit::tree::ExecCode;
use tracemonkey::nanojit::native_supported;
use tracemonkey::runtime::ops::to_display;
use tracemonkey::runtime::{NativeEffects, Realm, Value};
use tracemonkey::{Engine, JitOptions, RuntimeError, Vm, VmError};

/// What a run leaves for a program to see: output, completion value and
/// the globals named.
fn visible(vm: &mut Vm, result: Result<tracemonkey::Value, VmError>, globals: &[&str]) -> String {
    let done = match result {
        Ok(v) => to_display(&mut vm.realm, v),
        Err(e) => format!("error: {e}"),
    };
    let mut shown = format!("{}=> {done}", vm.output());
    for name in globals {
        let v = vm.realm.lookup_global(name).map(|g| vm.realm.global(g));
        let v = v.map_or("unbound".to_owned(), |v| to_display(&mut vm.realm, v));
        shown.push_str(&format!("\n{name} = {v}"));
    }
    shown
}

/// Runs `src` everywhere; returns the native tier's VM (the decoded
/// tier's again where there is no native one) after checking that both
/// tiers agree with the interpreter and with each other on the counters
/// that say how calls were made and on the state every call's return
/// and link left.
fn differential_with(src: &str, globals: &[&str], tune: fn(&mut Vm)) -> Vm {
    let mut interp = Vm::new(Engine::Interp);
    tune(&mut interp);
    let result = interp.eval(src);
    let want = visible(&mut interp, result, globals);
    let (mut ran, mut logs): (Vec<Vm>, Vec<Vec<String>>) = (Vec::new(), Vec::new());
    for native_backend in [false, true] {
        let opts = JitOptions { native_backend, ..JitOptions::default() };
        let mut vm = Vm::with_options(Engine::Tracing, opts);
        tune(&mut vm);
        let log = vm.observe_nesting();
        let result = vm.eval(src);
        assert_eq!(visible(&mut vm, result, globals), want, "native_backend: {native_backend}");
        ran.push(vm);
        logs.push(log.try_iter().collect());
    }
    let first = logs[0].iter().zip(&logs[1]).position(|(d, n)| d != n);
    let line = |i: usize| first.and_then(|at| logs[i].get(at));
    assert!(logs[0] == logs[1], "the tiers' calls leave different state: {:?}", [line(0), line(1)]);
    let [decoded, native] = [0, 1].map(|i| ran[i].profile().expect("tracing"));
    let counts = |s: &ProfileStats| {
        [
            s.nested_calls,
            s.nested_deferred,
            s.trace_enters,
            s.side_exits,
            s.bytecodes_native,
            s.native_insts,
        ]
    };
    assert_eq!(counts(decoded), counts(native), "the tiers run the same plans, and count the same");
    assert_eq!(decoded.nested_direct, 0, "the decoded tier calls through the host");
    if native_supported() {
        assert_eq!(native.native_exits + native.native_fallbacks, native.trace_enters);
    }
    assert!(native.nested_direct <= native.nested_deferred);
    assert!(native.nested_deferred <= native.nested_calls);
    assert!(native.nested_calls < native.trace_enters, "the monitor entered the outer tree");
    ran.pop().expect("two runs")
}

fn differential(src: &str, globals: &[&str]) -> ProfileStats {
    differential_with(src, globals, |_| {}).profile().expect("tracing").clone()
}

/// All calls deferred, and there were some; on the native tier, some
/// made directly.
fn assert_all_deferred(s: &ProfileStats, at_least: u64) {
    assert!(s.nested_calls >= at_least, "{s:?}");
    assert_eq!(s.nested_deferred, s.nested_calls, "{s:?}");
    assert!(s.nested_direct > 0 || !native_supported(), "{s:?}");
}

#[test]
fn inner_tree_reads_a_global_the_outer_never_names() {
    // `limit` and `step` reach the inner tree from the interpreter, not
    // from the outer record.
    let s = differential(
        "var limit = 7; var step = 2; var total = 0;
         for (var i = 0; i < 300; i++) {
             var j = 0;
             while (j < limit) { total += j; j += step; }
         }
         total",
        &["total", "i", "j", "limit"],
    );
    assert_all_deferred(&s, 250);
}

#[test]
fn inner_tree_writes_a_global_only_it_names_and_the_outer_exits_right_after() {
    // `seen` is the inner tree's alone: no exit of the outer trace writes
    // it back, so the call itself has to. The outer loop leaves through a
    // side exit on the iteration after `i == 150`'s call.
    let s = differential(
        "var seen = 0; var data = [3, 1, 4, 1, 5, 9, 2, 6]; var out = 0;
         for (var i = 0; i < 400; i++) {
             for (var k = 0; k < 8; k++) seen = seen + data[k] * (i & 3);
             if (i == 150) { out = seen; break; }
         }
         print(seen); out",
        &["seen", "out", "i", "k"],
    );
    assert_all_deferred(&s, 100);
}

#[test]
fn two_call_sites_in_one_outer_body_the_second_reading_what_the_first_wrote() {
    let s = differential(
        "var acc = 0; var carry = 1;
         for (var i = 0; i < 300; i++) {
             for (var a = 0; a < 5; a++) carry = (carry * 3 + a) % 1009;
             for (var b = 0; b < 4; b++) acc = (acc + carry + b) % 100003;
         }
         acc * 10000 + carry",
        &["acc", "carry", "a", "b", "i"],
    );
    assert_all_deferred(&s, 500);
}

#[test]
fn a_value_leaving_the_31_bit_range_at_the_call_site() {
    // `big` is an integer argument of the inner tree until `i << 23`
    // passes 2^30: the outer trace's checked shift exits, `big` becomes a
    // double there, and what the inner tree is handed from then on is a
    // double too large for its integer entry.
    let s = differential(
        "var big = 1; var sum = 0;
         for (var i = 0; i < 200; i++) {
             big = (i < 120) ? (i << 3) : (i << 23);
             for (var j = 0; j < 4; j++) sum = (sum + (big & 1023) + j) | 0;
         }
         print(big); sum",
        &["big", "sum", "i", "j"],
    );
    assert!(s.nested_deferred >= 100, "{s:?}");
}

/// The monitor took the outer tree back at least `n` times: a nested call
/// that does not return as expected ends the outer run. The programs that
/// provoke it count their iterations on the heap, where a trace's writes
/// are immediate: an interpreter resumed from stale state would run an
/// iteration again and count it twice.
fn assert_outer_exits(s: &ProfileStats, n: u64) {
    assert!(s.trace_enters - s.nested_calls >= n, "{s:?}");
}

#[test]
fn a_refused_argument_leaves_the_interpreter_at_the_call_site() {
    // The outer trace holds `v` as a double (a quotient); the inner tree
    // was recorded while it was integral and wants an integer. From
    // `i == 60` every other `v` has a fraction: the argument is refused
    // with nothing exported yet, and the interpreter has to find `v`, `i`
    // and `s` as the outer trace left them.
    let s = differential(
        "var v = 0; var s = 0; var runs = { n: 0 };
         for (var i = 0; i < 120; i++) {
             runs.n = runs.n + 1;
             v = i / ((i < 60) ? 1 : 2);
             for (var j = 0; j < 4; j++) s = s + (v | 0) + j;
         }
         print(runs.n); s",
        &["v", "s", "i", "j"],
    );
    assert_all_deferred(&s, 100);
    assert_outer_exits(&s, 25);
}

#[test]
fn a_refused_refresh_leaves_the_interpreter_at_the_inner_exit() {
    // The inner tree returns `q` as a double (a quotient); the outer trace
    // re-reads it as the integer it was when recorded. From `i == 60`
    // every other `q` has a fraction.
    let s = differential(
        "var q = 0; var s = 0; var d = 1; var runs = { n: 0 };
         for (var i = 0; i < 120; i++) {
             runs.n = runs.n + 1;
             if (i == 60) d = 2;
             for (var j = 0; j < 4; j++) { q = (i + j) / d; }
             s = s + q;
         }
         print(runs.n); s",
        &["q", "s", "d", "i", "j"],
    );
    assert_all_deferred(&s, 100);
    assert_outer_exits(&s, 25);
}

#[test]
fn an_unexpected_inner_exit_leaves_the_interpreter_there() {
    // From `i == 60` the inner tree's integer addition meets a fraction
    // and leaves through a guard instead of its loop exit, every call.
    let s = differential(
        "var w = 1; var s = 0; var runs = { n: 0 };
         for (var i = 0; i < 120; i++) {
             runs.n = runs.n + 1;
             for (var j = 0; j < 4; j++) { w = (i < 60) ? w + 1 : w + 0.5; }
             s = s + w;
         }
         print(runs.n); s",
        &["w", "s", "i", "j"],
    );
    assert_all_deferred(&s, 100);
    assert_outer_exits(&s, 50);
}

#[test]
fn a_stale_unexpected_inner_exit_is_not_extended_by_a_later_refused_call() {
    // `Gen::nested` seed n968. Recording an outer loop, the monitor runs a
    // middle tree whose inner call leaves through an overflow guard; the
    // recording aborts. Later the inner tree refuses a (now double)
    // argument. The monitor used to grow the first call's inner exit
    // then, from an interpreter standing somewhere else: the branch it
    // stitched jumped back to the loop header on every overflow, and the
    // budget here is what ends that.
    differential_with(
        "var acc = 0;
         var dbl = 0.5;
         var glob = 1;
         function loopy1(p2, p3) {
             var t4 = (((-17) | (p3))) | 0;
             for (var i5 = 0; i5 < 6; i5++) {
                 glob = (glob + (-0.07851388176124008)) | 0;
             }
             return (t4 + (p3)) | 0;
         }
         function loopy6(p7, p8) {
             var t9 = (p7) | 0;
             for (var i10 = 0; i10 < 7; i10++) {
                 glob = (glob + (((((t9) << (p8))) - (((2.9744654906756685) << (glob)))))) | 0;
             }
             for (var i11 = 0; i11 < 9; i11++) {
                 glob = (glob + (t9)) | 0;
             }
             return (t9 + (-6)) | 0;
         }
         var obj12 = { a: 1, b: 2 };
         for (var main = 0; main < 47; main++) {
             var v13 = loopy1((((main) & (1073741822))) | 0, (((glob) << (acc))) | 0) | 0;
             obj12.a = (((15) | (dbl))) | 0;
             var v14 = loopy6((-92) | 0, (((-70) * (-1.9479948674426615))) | 0) | 0;
             for (var i15 = 0; i15 < 8; i15++) {
                 glob = (glob ^ (((i15) ^ (((55) << (i15)))))) | 0;
                 if ((1073741822) <= (((v14) >>> (-1.917755434398279)))) {
                     for (var i16 = 0; i16 < 8; i16++) {
                         if ((((i15) >> (1.3279454413674445))) === (1073741823)) {
                         }
                     }
                 }
                 for (var i17 = 0; i17 < 4; i17++) {
                     var v18 = ((((i15) | (main))) << (acc));
                     v14 -= ((1073741823) ^ (glob));
                 }
             }
             for (var i19 = 0; i19 < 7; i19++) {
                 glob = (glob - (((((-1.6074018976036737) % (((dbl) & 7) + 2))) % (((((57) << (1073741822))) & 7) + 2)))) | 0;
             }
             acc = (acc + (acc | 0) + (dbl | 0) + (glob | 0) + (main | 0) + (v13 | 0) + (v14 | 0) + (obj12.a | 0) + (obj12.b | 0)) | 0;
         }
         (acc + glob) | 0",
        &["acc", "glob", "main"],
        |vm| vm.step_budget = 10_000_000,
    );
}

#[test]
fn an_int_slot_meets_a_double_typed_inner_entry_and_the_reverse() {
    // The inner tree is recorded while `x` holds a double and `n` an
    // integer; later calls pass an integer `x` (widened) and, in the
    // second half, a double `n` (refused, or accepted where integral).
    let s = differential(
        "var x = 0.5; var n = 3; var r = 0;
         for (var i = 0; i < 400; i++) {
             for (var j = 0; j < n; j++) r = r + x * j;
             x = (i % 3 == 0) ? i : i + 0.25;
             n = (i < 200) ? 3 : ((i & 1) ? 2.5 : 4);
         }
         r",
        &["x", "n", "r", "i", "j"],
    );
    assert!(s.nested_deferred >= 100, "{s:?}");
}

#[test]
fn an_inner_loop_in_a_called_function_runs_deferred() {
    // The call site is inside an inlined frame: the inner tree's slot
    // keys are rebased by the frame depth, and `scale`, `t` and `k` come
    // from the outer record.
    let s = differential(
        "var weights = [1, 2, 3, 4, 5];
         function dot(scale) {
             var t = 0;
             for (var k = 0; k < 5; k++) t += weights[k] * scale;
             return t;
         }
         var total = 0;
         for (var i = 0; i < 300; i++) total = (total + dot(i & 7)) % 65521;
         total",
        &["total", "i"],
    );
    assert_all_deferred(&s, 250);
}

#[test]
fn a_returned_inlined_frames_locals_are_not_read_back_after_a_later_call() {
    // Found by `Gen::nested` (seed n95): `wide` has more locals than
    // `narrow`, both are inlined at depth 1, and the call site in `narrow`
    // still lists `wide`'s last local. Reading it back after the call
    // indexed past the interpreter's stack.
    let vm = differential_with(
        "var glob = 1;
         function wide(p, q) {
             var t = p | 0; var u = q | 0; var w = 3;
             for (var k = 0; k < 6; k++) glob = (glob + t + u + w + k) | 0;
             return (t + u) | 0;
         }
         function narrow(p) {
             for (var k = 0; k < 5; k++) glob = (glob ^ (p + k)) | 0;
             return glob | 0;
         }
         var acc = 0;
         for (var main = 0; main < 60; main++) {
             var a = wide(main, acc) | 0;
             var b = narrow(a) | 0;
             acc = (acc + a + b) | 0;
         }
         (acc + glob) | 0",
        &["acc", "glob", "main"],
        |_| {},
    );
    let s = vm.profile().expect("tracing");
    assert_all_deferred(s, 30);
    // No exit lists a returned frame's locals: every local an exit names
    // is one of the function running at its depth.
    let prog = vm.interp().expect("the program ran").prog();
    for tree in vm.monitor().expect("tracing").cache.iter() {
        for exit in tree.exits.iter().flatten() {
            for b in exit.write_back.iter().chain(&exit.typemap) {
                if let SlotKey::Local { depth, slot } = b.key {
                    let nlocals = prog.function(exit.frames[depth as usize].func).nlocals;
                    assert!(slot < nlocals, "{:?} at {exit:?}", b.key);
                }
            }
        }
    }
}

/// The `math-cordic` shape: the inner loop is in an inlined frame, and
/// `next` is `undefined` at its first header, so the tree the call enters
/// leaves through a type-unstable exit into a sibling (Figure 6).
const LINKED: &str = "
    function turn(target) {
        var x = 1000, angle = 0, next;
        for (var step = 0; step < 8; step++) {
            next = x >> 1;
            if (target > angle) { x = x - (next >> step); angle += 0.75; }
            else { x = x + (next >> step); angle -= 0.25; }
        }
        return x + angle;
    }
    var total = 0.5;
    for (var i = 0; i < 300; i++) total += turn(2);
    total";

#[test]
fn a_call_across_a_sibling_link_runs_direct() {
    // Also the exit-state check's pinned case: the refresh of `step` (dead
    // once `turn` returns) and the link's move of `next` (written before
    // it is read) change no output, so only the logs of the calls' returns
    // and links show either one dropped.
    let s = differential(LINKED, &["total", "i"]);
    assert_all_deferred(&s, 250);
    // Each call runs the tree it enters and the sibling it links to.
    assert!(s.trace_enters >= 2 * s.nested_calls, "{s:?}");
    if native_supported() {
        assert!(s.nested_direct >= 250, "{s:?}");
        assert!(s.host_transitions < 50, "{s:?}");
    }
}

#[test]
fn a_refused_link_conversion_falls_back_to_the_host_tail() {
    // The tree a call enters (`prev` undefined) leaves `angle` a double at
    // its link; the sibling the call goes on in holds it as an integer,
    // as it was when that sibling was recorded. From `i == 150` every
    // other `angle` has a fraction there: the link's conversion is
    // refused, and the outer trace leaves at the call site.
    let s = differential(
        "var runs = { n: 0 };
         function turn(base) {
             var x = 1000, angle = 0, prev;
             for (var step = 0; step < 8; step++) {
                 if (prev === undefined) angle = base * 0.5; else angle = angle + 1;
                 prev = x;
                 x = x - (x >> 3);
             }
             return x + angle;
         }
         var total = 0.5;
         for (var i = 0; i < 300; i++) { runs.n++; total += turn(i < 150 ? 2 * i : i); }
         print(runs.n); total",
        &["total", "i"],
    );
    assert_all_deferred(&s, 250);
    assert_outer_exits(&s, 50);
}

#[test]
fn an_unexpected_exit_of_an_inlined_frames_direct_call_exports_the_call_site() {
    // From `i == 150` the inner loop's `base < 150` guard fails in the
    // tree the call enters: the call returns through an exit its site
    // does not expect, and the interpreter resumes inside `sum`, in the
    // frame the call site's export synthesizes, with the locals the
    // outer trace wrote and the inner exit's.
    let s = differential(
        "var runs = { n: 0 };
         function sum(base) {
             var t = base;
             for (var k = 0; k < 6; k++) t = (base < 150) ? t + 1 : t + 0.5;
             return t;
         }
         var total = 0;
         for (var i = 0; i < 300; i++) { runs.n++; total += sum(i); }
         print(runs.n); total",
        &["total", "i"],
    );
    assert_all_deferred(&s, 250);
    assert_outer_exits(&s, 50);
}

#[test]
fn a_three_deep_nest_is_eager_outside_and_deferred_inside() {
    let s = differential(
        "var cube = 0;
         for (var i = 0; i < 60; i++) {
             for (var j = 0; j < 6; j++) {
                 for (var k = 0; k < 5; k++) cube = (cube + i * j + k) % 99991;
             }
         }
         cube",
        &["cube", "i", "j", "k"],
    );
    // Calls of the leaf (from the middle tree, and from the outer tree's
    // own inlined copy of the middle body if any) are deferred; calls of
    // the middle tree are not.
    assert!(s.nested_deferred >= 200, "{s:?}");
    assert!(s.nested_calls - s.nested_deferred >= 40, "{s:?}");
}

#[test]
fn the_inner_tree_grows_a_branch_and_then_a_nested_site_after_the_outer_plan_was_built() {
    // Phase 1 (i < 150): the inner j-loop takes one path. Phase 2: the
    // other arm gets hot and is stitched in, which re-unions the inner
    // exits' write-backs (`odd` is new). Phase 3 (i >= 300): that arm
    // starts running its own loop, so the inner tree gains a nested site
    // and stops being a leaf.
    let s = differential(
        "var even = 0; var odd = 0; var deep = 0;
         for (var i = 0; i < 450; i++) {
             for (var j = 0; j < 6; j++) {
                 if (i < 150 || (j & 1) == 0) { even = even + j; }
                 else {
                     odd = odd + j;
                     if (i >= 300) { for (var k = 0; k < 3; k++) deep = deep + k; }
                 }
             }
         }
         even * 1000000 + odd * 1000 + deep",
        &["even", "odd", "deep", "i", "j", "k"],
    );
    assert!(s.nested_deferred >= 150, "{s:?}");
    assert!(s.nested_calls > s.nested_deferred, "phase 3's calls export first: {s:?}");
}

#[test]
fn a_collection_due_inside_a_deferred_call_waits_for_the_outer_loop_edge() {
    // The inner loop allocates strings — in its condition, so that it can
    // leave through its expected exit with a collection due — while the
    // outer trace holds a fresh object in a local across the call: with
    // the call site not exported, that object is in no root until the
    // outer trace exits, and the collection has to wait until it does.
    let vm = differential_with(
        "function run() {
             var kept = 0;
             for (var i = 0; i < 200; i++) {
                 var fresh = { tag: i, name: 'n' + i };
                 var text = '';
                 var j = 0;
                 while ((text = text + 'ab' + j).length < 18) j++;
                 kept = kept + fresh.tag + text.length + fresh.name.length;
             }
             return kept;
         }
         run()",
        &[],
        |vm| vm.realm.heap.set_gc_threshold(64),
    );
    let s = vm.profile().expect("tracing");
    assert!(s.nested_deferred >= 100, "{s:?}");
    let collections = vm.realm.heap.gc_stats().collections;
    assert!(collections > 20, "the threshold was crossed again and again: {collections}");
    // Each one cost the outer trace an exit at its loop edge (or the inner
    // tree one at its own, which ends the outer run as well).
    assert!(s.trace_enters - s.nested_calls >= collections, "{s:?}");
}

#[test]
fn the_step_budget_running_out_inside_a_nested_call() {
    let src = "var spins = 0;
               for (var i = 0; i < 100000; i++) { for (var j = 0; j < 50; j++) spins = spins + 1; }
               spins";
    for native_backend in [false, true] {
        let opts = JitOptions { native_backend, ..JitOptions::default() };
        let mut vm = Vm::with_options(Engine::Tracing, opts);
        vm.step_budget = 200_000;
        match vm.eval(src) {
            Err(VmError::Runtime(RuntimeError::StepBudgetExhausted)) => {}
            other => panic!("expected the budget to run out, got {other:?}"),
        }
        let s = vm.profile().unwrap();
        assert!(s.nested_deferred > 0, "{s:?}");
        // Interpreter state was restored before the error surfaced: the
        // counters it holds are those of a loop still running.
        let spins = vm.realm.lookup_global("spins").map(|g| vm.realm.global(g)).unwrap();
        let spins = vm.realm.heap.number_value(spins).expect("a number");
        let i = vm.realm.lookup_global("i").map(|g| vm.realm.global(g)).unwrap();
        let i = vm.realm.heap.number_value(i).expect("a number");
        assert!(spins > 1000.0 && i > 20.0, "spins {spins}, i {i}");
        assert!(spins >= i * 50.0 && spins <= (i + 1.0) * 50.0, "spins {spins}, i {i}");
    }
}

// ---- direct calls (the native tier calls the inner tree's code itself) ---

/// Defines the global native `name` for `f`, traced as a helper call.
fn define(vm: &mut Vm, name: &str, f: fn(&mut Realm, &[Value]) -> Result<Value, RuntimeError>) {
    let effects = NativeEffects { may_reenter: false, accesses_globals: false, allocates: false };
    let id = vm.realm.register_native(name, f, effects, None);
    let f = vm.realm.new_native_function(id);
    vm.realm.define_global(name, f);
}

/// The integer argument of a native.
fn int_arg(realm: &Realm, args: &[Value]) -> Option<f64> {
    realm.heap.number_value(args.get(1).copied().unwrap_or(Value::ZERO))
}

/// `failAt(n)`: `n`, but a range error at 1000.
fn fail_at(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    match int_arg(realm, args) {
        Some(1000.0) => Err(RuntimeError::RangeError("failAt".into())),
        _ => Ok(args.get(1).copied().unwrap_or(Value::ZERO)),
    }
}

/// `armAt(n)`: `n`, and the interrupt flag set at 1002.
fn arm_at(realm: &mut Realm, args: &[Value]) -> Result<Value, RuntimeError> {
    if int_arg(realm, args) == Some(1002.0) {
        realm.interrupt = true;
    }
    Ok(args.get(1).copied().unwrap_or(Value::ZERO))
}

const CALLS_A_NATIVE: &str = "var total = 0;
     for (var i = 0; i < 300; i++) {
         for (var j = 0; j < 4; j++) total = total + NATIVE(i * 4 + j);
     }
     total";

#[test]
fn a_helper_error_inside_a_directly_called_inner_tree() {
    let vm = differential_with(
        &CALLS_A_NATIVE.replace("NATIVE", "failAt"),
        &["total", "i", "j"],
        |vm| define(vm, "failAt", fail_at),
    );
    let s = vm.profile().expect("tracing");
    assert_all_deferred(s, 200);
}

#[test]
fn an_interrupt_set_while_a_directly_called_inner_tree_runs() {
    let vm = differential_with(
        &CALLS_A_NATIVE.replace("NATIVE", "armAt"),
        &["total", "i", "j"],
        |vm| define(vm, "armAt", arm_at),
    );
    let s = vm.profile().expect("tracing");
    assert_all_deferred(s, 200);
}

/// Whether every direct site of `vm`'s native trees calls its callee's
/// current code.
fn direct_callees_are_current(vm: &Vm) -> bool {
    let m = vm.monitor().expect("tracing");
    m.cache.iter().all(|t| match &t.exec {
        ExecCode::Native(nt) => nt.direct_sites().iter().enumerate().all(|(s, d)| match d {
            Some(d) => match &m.cache.tree(t.nested_sites[s].inner).exec {
                ExecCode::Native(callee) => Arc::ptr_eq(callee, &d.callee),
                _ => false,
            },
            None => true,
        }),
        _ => true,
    })
}

#[test]
fn a_callee_grown_after_its_callers_code_was_emitted() {
    // The inner tree gains a branch (the odd arm) from `i == 100`, long
    // after the outer tree's code was emitted calling its trunk: the
    // callee grows in place and the caller is emitted again.
    let vm = differential_with(
        "var even = 0; var odd = 0;
         for (var i = 0; i < 400; i++) {
             for (var j = 0; j < 6; j++) {
                 if (i < 100 || (j & 1) == 0) even = even + j; else odd = odd + j;
             }
         }
         even * 100000 + odd",
        &["even", "odd", "i", "j"],
        |_| {},
    );
    let s = vm.profile().expect("tracing");
    assert_all_deferred(s, 350);
    if !native_supported() {
        return;
    }
    assert!(s.nested_direct * 10 >= s.nested_calls * 9, "direct again after the growth: {s:?}");
    let m = vm.monitor().expect("tracing");
    let grown = m.cache.iter().find(|t| t.nested_sites.is_empty() && t.fragments.len() > 1);
    let grown = grown.expect("the inner tree grew a branch");
    let frags = grown.fragments.len();
    assert!(matches!(&grown.exec, ExecCode::Native(nt) if nt.num_fragments() == frags));
    assert!(direct_callees_are_current(&vm), "a caller still calls the callee's old code");
}

#[test]
fn a_site_with_a_boxed_move_stays_on_the_host_path() {
    // `z` reaches the inner tree as `null`: a move the plan makes by
    // boxing, which native code does not.
    let s = differential(
        "var t = 0; var z = null;
         for (var i = 0; i < 300; i++) {
             z = null;
             for (var j = 0; j < 4; j++) { if (z === null) t = t + j; }
         }
         t",
        &["t", "z", "i", "j"],
    );
    assert!(s.nested_calls >= 250, "{s:?}");
    assert_eq!(s.nested_deferred, s.nested_calls, "{s:?}");
    assert_eq!(s.nested_direct, 0, "{s:?}");
}

// ---- convergence --------------------------------------------------------

/// Share of the run's bytecodes that ran natively.
fn native_share(s: &ProfileStats) -> f64 {
    s.bytecodes_native as f64 / (s.bytecodes_native + s.bytecodes_interp) as f64
}

#[test]
fn a_loop_written_slot_holding_minus_zero_at_the_header_enters_as_a_double() {
    // 3d-raytrace, reduced: `o` is written before it is read, and at the
    // inner header it holds the last iteration's value — `-0` after the
    // first element. Typed from the loop edge alone, the tree wanted an
    // int there and could not be entered from the state it was recorded
    // in: a sibling per outer iteration until §3.3 disabled them all.
    let s = differential(
        "var xs = [0, 2, -2]; var acc = 0;
         for (var p = 0; p < 3000; p++) {
             for (var s = 0; s < 3; s++) { var o = -xs[s]; acc += o * 0.5 + p; }
         }
         acc",
        &["acc", "o", "s", "p"],
    );
    assert!(native_share(&s) >= 0.99, "{s:?}");
    assert!(s.nested_calls >= 2900, "{s:?}");
    assert!(s.trees <= 4, "{s:?}");
}

#[test]
fn a_callees_loop_variable_undefined_at_each_first_header() {
    // math-cordic, reduced: `n` is undefined when each call reaches the
    // header and a double on the loop edge. The first tree closes
    // type-unstable (Figure 6) and links to the double one, inside the
    // outer tree's nested call as in a monitor run.
    let s = differential(
        "function g() {
             var x = 0.5;
             for (var s = 0; s < 12; s++) { var n; n = x + s; x = n; }
             return x;
         }
         var total = 0;
         for (var i = 0; i < 5000; i++) total += g();
         total",
        &["total", "i"],
    );
    assert!(s.nested_calls >= 4990, "{s:?}");
    assert!(native_share(&s) >= 0.99, "{s:?}");
    assert!(s.traces_aborted <= 1, "{s:?}");
}

#[test]
fn two_calls_of_one_function_in_one_outer_iteration_are_two_sites() {
    // The second call reaches the inner header the first call's site was
    // recorded at, from a fresh frame: a site of its own, not a revisit.
    let s = differential(
        "function f(n) { var s = 0; for (var k = 0; k < 4; k++) s += n + k; return s; }
         var t = 0;
         for (var i = 0; i < 20000; i++) { t += f(i); t -= f(1); }
         t",
        &["t", "i"],
    );
    assert_eq!(s.traces_aborted, 0, "{s:?}");
    assert!(s.nested_calls >= 39_990, "{s:?}");
    assert!(native_share(&s) >= 0.99, "{s:?}");
}

#[test]
fn an_outer_loop_is_forgiven_when_its_inner_loop_in_a_callee_compiles() {
    // The outer loop in the main script gets hot first and aborts at the
    // callee's loop, which has no tree yet (§4.2). Its tree arrives during
    // the next call, in another function: the outer loop is retried at
    // once instead of after its backoff.
    let s = differential(
        "function inner(n) { var s = 0; for (var k = 0; k < n; k++) s += k; return s; }
         var t = 0;
         for (var i = 0; i < 40; i++) t += inner(i);
         t",
        &["t", "i"],
    );
    assert_eq!(s.traces_aborted, 1, "{s:?}");
    assert!(s.nested_calls >= 30, "{s:?}");
}
